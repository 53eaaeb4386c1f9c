"""One pass in a fresh interpreter, the way ``genuslab run`` executes it.

Usage: python3 worker.py SRC_DIR MODE < session.ses

Reads the session text from stdin, imports the package from SRC_DIR, parses
the text and prints the line ``ready``.  In MODE ``setup`` it stops there.
In MODE ``run`` or ``trace`` it then runs every command through ``cli.run``,
serializes the aggregate with ``report.to_json`` and prints one JSON line
with the pass time, the aggregate, the exit code, the peak resident set size
and, when tracing, the layer metrics of ``spans.Recorder``.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water resident set size of this process since it was exec'd.
    ``ru_maxrss`` would not do: Linux carries the parent's high-water mark
    over into a spawned child, so it reports the larger of the two."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    from genuslab import cli, dsl, report

    session = dsl.parse_session(sys.stdin.read())
    print("ready", flush=True)
    if mode == "setup":
        return 0
    started = time.perf_counter()
    aggregate, code = cli.run(session)
    document = report.to_json(aggregate)
    pass_s = time.perf_counter() - started
    out = {
        "pass_s": pass_s,
        "exit_code": code,
        "aggregate": json.loads(document),
        "peak_rss_kb": peak_rss_kb(),
        "layers": recorder.metrics() if recorder else None,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
