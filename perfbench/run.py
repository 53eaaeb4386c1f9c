"""genuslab benchmark runner.

    python3 perfbench/run.py --workload families|sweep|nonlinear|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass starts a fresh worker
process (``worker.py``) that imports the package from ``src``, parses one
generated session and runs all of its commands through ``cli.run``, as
``genuslab run`` does.  Passes run one at a time, each after the previous
one has ended (a closed loop with one client), until ``--seconds`` is used
up.  Every command report is checked (``checks.py``).

Pass i of a run executes the session generated from (seed, i), so one run
covers several draws of the workload; a traced run repeats draw 0 so that
its counts can be compared between passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it has the
per-layer metrics, measured by wrapping the layer entry points
(``spans.py``).  The lines before it record the session digests, the
failed share and the machine.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("families", "sweep", "nonlinear")
DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# the 90th percentile of the command times needs ten samples beyond it
MIN_COMMAND_SAMPLES = 100
# set-up-only spawns after each plain pass, so set-up gets more samples
SETUPS_PER_PASS = 2
# no pass is started that could end later than this after the run began
TIME_CAP_S = 150.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_worker(text: str, mode: str, hash_seed=None) -> dict:
    """One fresh worker in the given mode (setup, run or trace); adds the
    set-up time, from spawning the worker until it reports the session
    parsed."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    started = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, WORKER, SRC, mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT) as proc:
        proc.stdin.write(text)
        proc.stdin.close()
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    out = json.loads(rest) if mode != "setup" else {}
    out["setup_s"] = ready - started
    out["wall_s"] = time.perf_counter() - started
    out["traced"] = mode == "trace"
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q * len(ranked)) - 1, 0)]


def measure(seconds: float, trace: bool, sessions) -> tuple:
    """Passes until the time is used up and the minimum sample counts are
    met, and the set-up times of extra set-up-only workers.  In a traced run
    plain and traced passes alternate on draw 0."""
    passes, setups = [], []
    started = time.perf_counter()
    while True:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        want_trace = trace and len(traced) < len(plain)
        draw = 0 if trace else len(passes)
        text = sessions(draw)
        result = run_worker(text, "trace" if want_trace else "run",
                            hash_seed=len(traced) + 1 if want_trace else None)
        result["draw"] = draw
        passes.append(result)
        if not want_trace:
            setups += [run_worker(text, "setup")["setup_s"]
                       for _ in range(SETUPS_PER_PASS)]
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        elapsed = time.perf_counter() - started
        longest = max(p["wall_s"] for p in passes)
        if trace:
            enough = (len(plain) >= MIN_TRACED_PASSES
                      and len(traced) >= MIN_TRACED_PASSES)
        else:
            samples = sum(len(p["aggregate"]["reports"]) for p in plain)
            enough = (len(plain) >= MIN_PASSES
                      and samples >= MIN_COMMAND_SAMPLES)
        if enough and elapsed + longest > seconds:
            return passes, setups
        if elapsed + longest > TIME_CAP_S:
            return passes, setups


def end_to_end(passes, setups) -> dict:
    plain = [p for p in passes if not p["traced"]]
    times = [r["timings"]["seconds"] for p in plain
             for r in p["aggregate"]["reports"]]
    return {
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "cmd_p90_s": percentile(times, 0.9),
        "setup_s": statistics.median([p["setup_s"] for p in plain] + setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain)
        / 1024.0,
    }


def per_layer(passes) -> tuple:
    """Layer metrics of the traced passes: times are medians, counts come
    from the first pass and must repeat exactly in the others."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p["layers"] for p in passes if p["traced"]]
    out = {}
    repeat = True
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    out["trace.overhead_s"] = (
        statistics.median(p["pass_s"] for p in passes if p["traced"])
        - statistics.median(p["pass_s"] for p in plain))
    return out, repeat


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    from checks import canonical_digest, command_failed
    from workloads import session_text
    import numpy

    texts = {}

    def sessions(draw):
        if draw not in texts:
            texts[draw] = session_text(workload, seed * 1000 + draw)
        return texts[draw]

    passes, setups = measure(seconds, trace, sessions)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        committed = json.load(fh)[workload]
    attempted = failed = 0
    digests_ok = True
    for p in passes:
        reports = p["aggregate"]["reports"]
        attempted += len(reports)
        failed += sum(command_failed(r, workload == "families")
                      for r in reports)
        p["digest"] = canonical_digest(p["aggregate"])
        if seed == DEFAULT_SEED and p["draw"] < len(committed):
            digests_ok = digests_ok and p["digest"] == committed[p["draw"]]
    correct = failed == 0 and digests_ok
    if trace:
        metrics, repeat = per_layer(passes)
        correct = correct and repeat
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(passes, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "sessions": {str(d): hashlib.sha256(t.encode()).hexdigest()
                     for d, t in sorted(texts.items())},
        "digests_checked": seed == DEFAULT_SEED, "digests_ok": digests_ok,
        "failed_share": failed / attempted,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
    }
    print(json.dumps(info, sort_keys=True))
    print(f"{workload}: failed_share = {failed / attempted} (1)")
    for m in wanted:
        print(f"{workload}: {m['name']} = {metrics[m['name']]} ({m['unit']})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "genuslab", "__init__.py")):
        print(f"perfbench: no genuslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), spec)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
