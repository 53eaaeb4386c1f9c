"""Command line front end: run a session file, or sweep instance families.

Exit codes: 0 all checks passed, 1 a check failed, 2 the input could not be
parsed or the invocation was malformed, 3 an engine error or any other
exception inside a command, reported as a structured error.  Reports go to
stdout in canonical JSON (or the CSV projection); diagnostics go to stderr.
"""

import json
import os
import sys
import time

from .corpus import (InstanceDescriptor, build_example42, build_example44,
                     build_prop41_instance, default_grid, example42_descriptor,
                     example44_descriptor, idealization_descriptor,
                     random_instance, ulrich_check)
from .dsl import (CORPUS_FAMILIES, CheckCmd, ComputeCmd, CorpusCmd, Session,
                  corpus_parameter_problem, parse_session)
from .errors import EngineError, HomogeneityViolation, ParseError
from .groebner import engine_run
from .invariants import (check_prop38, check_theorem34, covolume,
                         hilbert_samuel_table, inequality_suite,
                         invariant_report, multiplicity)
from .report import (SCHEMA_VERSION, report_failed, serialize_checklist,
                     serialize_equivalence, serialize_invariants,
                     serialize_prop38, to_csv, to_json)
from .ring import DEFAULT_PRIME, Record

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


class RunFlags(Record):
    seed: int = 0
    max_n: int = None
    fmt: str = "json"
    budget: int = 24
    verify_gb: bool = False
    no_timings: bool = False


# ----------------------------------------------------------- batteries

def _standard_battery(module, seq, flags: RunFlags, out: dict) -> dict:
    """Invariants plus the inequality suite, and the main equivalence when
    the dimension admits it.  Returns the flat summary used for golden
    comparisons."""
    inv = invariant_report(module, seq)
    table = hilbert_samuel_table(module, seq.gens, flags.max_n)
    out["invariants"] = serialize_invariants(inv, table.values)
    out["inequalities"] = serialize_checklist(inequality_suite(module, seq))
    summary = {
        "dimension": inv.dimension,
        "depth": inv.depth,
        "covolume": inv.covolume,
        "e0": inv.coefficients[0],
        "chi1": inv.chi1[0],
        "sectional_genus": inv.sectional_genus,
        "hdeg": inv.hdeg,
    }
    if len(inv.coefficients) > 1:
        summary["e1"] = inv.coefficients[1]
    if inv.torsions:
        summary["torsion1"] = inv.torsions[0]
    if inv.dimension >= 2:
        rep = check_theorem34(module, seq, seed=flags.seed,
                              budget=flags.budget)
        out["thm34"] = serialize_equivalence(rep)
        summary["equality"] = rep.equality
    return summary


def _corpus_battery(desc: InstanceDescriptor, flags: RunFlags,
                    out: dict) -> dict:
    p = desc.params.get("prime", DEFAULT_PRIME)
    if desc.family == "example44":
        _, seq = build_example44(desc.params["l"], desc.params["m"], p)
        return _standard_battery(seq.module, seq, flags, out)
    if desc.family == "example42":
        _, module, xs = build_example42(desc.params["d"], p)
        rep = ulrich_check(module, xs)
        out["ulrich"] = serialize_checklist(rep.checks)
        return {
            "e0": multiplicity(module, xs),
            "covolume": covolume(module, xs),
            "generators": module.minimal_generator_count(),
            "ulrich": rep.passed,
        }
    if desc.family == "idealization":
        _, seq = build_prop41_instance(p)
        return _standard_battery(seq.module, seq, flags, out)
    if desc.family == "random":
        module, seq = random_instance(desc.params["seed"], p=p,
                                      tries=desc.params.get("tries", 50))
        return _standard_battery(module, seq, flags, out)
    raise ValueError(f"unknown corpus family {desc.family!r}")


def _error_entry(err: Exception) -> dict:
    """The structured error of a command that raised; the run goes on and
    exits 3.  Anything but an engine error is a bug, so its traceback also
    goes to stderr."""
    if not isinstance(err, EngineError):
        import traceback  # only on a crash: keeps it off the start-up path
        traceback.print_exception(err, file=sys.stderr)
    return {"type": type(err).__name__, "message": str(err)}


def run_corpus_instance(desc: InstanceDescriptor, flags: RunFlags) -> dict:
    """One instance end to end.  Errors are recorded, not raised, so a sweep
    always completes."""
    out = {"instance": desc.instance_id, "family": desc.family,
           "params": dict(desc.params)}
    started = time.perf_counter()
    try:
        summary = _corpus_battery(desc, flags, out)
        mismatches = {}
        for key in sorted(desc.expected):
            want = desc.expected[key]
            got = summary.get(key)
            if got != want:
                mismatches[key] = {"expected": want, "got": got}
        if mismatches:
            out["expected_mismatches"] = mismatches
        suite_bad = out.get("inequalities", {}).get("verdict") == "fails"
        out["status"] = "fail" if (mismatches or suite_bad) else "pass"
    except Exception as err:
        out["error"] = _error_entry(err)
        out["status"] = "error"
    if not flags.no_timings:
        out["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    return out


def corpus_run(grid, flags: RunFlags = RunFlags()) -> dict:
    """Run every descriptor, merge deterministically by instance id.  An
    empty grid yields an empty aggregate."""
    with engine_run(verify=flags.verify_gb, table_cap=flags.max_n):
        instances = [run_corpus_instance(d, flags) for d in grid]
    instances.sort(key=lambda r: r["instance"])
    failed = [r["instance"] for r in instances if r["status"] == "fail"]
    errored = [r["instance"] for r in instances if r["status"] == "error"]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "corpus",
        "seed": flags.seed,
        "instances": instances,
        "summary": {
            "total": len(instances),
            "passed": len(instances) - len(failed) - len(errored),
            "failed": failed,
            "errored": errored,
        },
    }


# ------------------------------------------------------------- sessions

def _descriptor_for(family: str, params, prime: int) -> InstanceDescriptor:
    problem = corpus_parameter_problem(family, params)
    if problem:
        raise ValueError(problem)
    if family == "example44":
        return example44_descriptor(params[0], params[1], prime)
    if family == "example42":
        return example42_descriptor(params[0], prime)
    if family == "idealization":
        return idealization_descriptor(prime)
    if family == "random":
        return InstanceDescriptor("random", {"seed": params[0],
                                             "prime": prime})
    raise ValueError(f"unknown corpus family {family!r}")


def _execute(session: Session, cmd, index: int, flags: RunFlags) -> dict:
    if isinstance(cmd, CorpusCmd):
        desc = _descriptor_for(cmd.family, cmd.params, session.prime)
        out = run_corpus_instance(desc, flags)
        out["command"] = " ".join(["corpus", cmd.family]
                                  + [str(v) for v in cmd.params])
        out["command_index"] = index
        return out

    out = {"command_index": index}
    started = time.perf_counter()
    try:
        if isinstance(cmd, ComputeCmd):
            out["command"] = "compute invariants"
            out["instance"] = f"{cmd.target} with {cmd.sequence}"
            module = session.module_for(cmd.target)
            polys = session.env[cmd.sequence][1]
            inv = invariant_report(module, polys)
            table = hilbert_samuel_table(module, polys, flags.max_n)
            out["invariants"] = serialize_invariants(inv, table.values)
        elif isinstance(cmd, CheckCmd):
            out["command"] = f"check {cmd.kind}"
            out["instance"] = f"{cmd.target} with {cmd.argument}"
            module = session.module_for(cmd.target)
            polys = session.env[cmd.argument][1]
            if cmd.kind == "thm34":
                rep = check_theorem34(module, polys, seed=flags.seed,
                                      budget=flags.budget)
                out["thm34"] = serialize_equivalence(rep)
            elif cmd.kind == "prop38":
                out["prop38"] = serialize_prop38(check_prop38(module, polys))
            elif cmd.kind == "inequalities":
                out["inequalities"] = serialize_checklist(
                    inequality_suite(module, polys))
            else:
                rep = ulrich_check(module, polys)
                out["ulrich"] = serialize_checklist(rep.checks)
        else:
            raise TypeError(f"not a command: {cmd!r}")
    except Exception as err:
        out["error"] = _error_entry(err)
    if not flags.no_timings:
        out["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    return out


def run(session: Session, flags: RunFlags = RunFlags()) -> tuple:
    """Execute every command of a parsed session.  Returns the aggregate
    report and the exit code; errors are captured per command."""
    with engine_run(verify=flags.verify_gb, table_cap=flags.max_n):
        reports = [_execute(session, cmd, i, flags)
                   for i, cmd in enumerate(session.commands)]
    aggregate = {
        "schema": SCHEMA_VERSION,
        "kind": "session",
        "prime": session.prime,
        "seed": flags.seed,
        "reports": reports,
    }
    return aggregate, _exit_code(reports)


def _exit_code(reports) -> int:
    if any(r.get("error") or r.get("status") == "error" for r in reports):
        return EXIT_ENGINE
    for r in reports:
        bad = r["status"] == "fail" if "status" in r else report_failed(r)
        if bad:
            return EXIT_CHECK_FAILED
    return EXIT_OK


# ------------------------------------------------------- shell plumbing

def config_to_grid(config: dict, prime: int = DEFAULT_PRIME) -> tuple:
    """JSON grid description to descriptors.  Keys: example44 (list of
    [l, m] pairs), example42 (list of d), idealization (bool), random
    (seed count or explicit seed list)."""
    unknown = set(config) - {"example44", "example42", "idealization",
                             "random"}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    grid = []
    for pair in config.get("example44", []):
        grid.append(_descriptor_for("example44", [int(pair[0]), int(pair[1])],
                                    prime))
    for d in config.get("example42", []):
        grid.append(_descriptor_for("example42", [int(d)], prime))
    if config.get("idealization"):
        grid.append(idealization_descriptor(prime))
    seeds = config.get("random", [])
    if isinstance(seeds, int):
        seeds = range(seeds)
    for s in seeds:
        grid.append(_descriptor_for("random", [int(s)], prime))
    return tuple(grid)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("GENUSLAB_SEED", "").strip()
    return int(env) if env else 0


def _build_parser():
    import argparse  # the command line only: run() never needs it

    def at_least(low: int):
        """An integer no smaller than low, else a usage error."""
        def parse(text):
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(
                    f"must be at least {low}, got {value}")
            return value
        parse.__name__ = "int"  # argparse reports "invalid int value: ..."
        return parse

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None,
                        help="search seed (default: GENUSLAB_SEED or 0)")
    shared.add_argument("--max-n", type=at_least(0), default=None,
                        metavar="N", help="cap every length table at degree N")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--budget", type=at_least(1), default=24,
                        help="attempt budget for the d-sequence search")
    shared.add_argument("--verify-gb", action="store_true",
                        help="re-verify every completed basis (slow)")
    shared.add_argument("--no-timings", action="store_true",
                        help="omit timings for byte-identical output")

    parser = argparse.ArgumentParser(
        prog="genuslab",
        description="Exact Hilbert coefficients, sectional genera, and "
                    "homological degrees for graded modules.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[shared],
                           help="execute a session file")
    run_p.add_argument("session", help="path to a session file")
    corpus_p = sub.add_parser("corpus", parents=[shared],
                              help="sweep instance families")
    corpus_p.add_argument("names", nargs="*", metavar="FAMILY [PARAM ...]",
                          help="one family with its integer parameters; "
                               "default is the standing grid")
    corpus_p.add_argument("--config", metavar="FILE",
                          help="JSON grid description")
    corpus_p.add_argument("--random-seeds", type=at_least(0), default=50,
                          help="random block size of the standing grid")
    return parser


def _emit(aggregate: dict, flags: RunFlags) -> None:
    if flags.fmt == "csv":
        rows = aggregate.get("reports", aggregate.get("instances", []))
        sys.stdout.write(to_csv(rows))
    else:
        sys.stdout.write(to_json(aggregate))


def _corpus_grid_from_args(args) -> tuple:
    if args.names:
        family = args.names[0]
        if family not in CORPUS_FAMILIES:
            raise ValueError(f"unknown corpus family {family!r}")
        arity = len(CORPUS_FAMILIES[family])
        params = args.names[1:]
        if len(params) != arity:
            raise ValueError(
                f"{family} takes {arity} integer parameter(s), "
                f"got {len(params)}")
        return (_descriptor_for(family, [int(v) for v in params],
                                DEFAULT_PRIME),)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        try:
            return config_to_grid(config)
        except (TypeError, IndexError, AttributeError) as err:
            # config_to_grid builds descriptors only, so these come from
            # entries of the wrong shape
            raise ValueError(f"malformed grid description: {err}") from err
    return default_grid(args.random_seeds)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        flags = RunFlags(seed=_resolve_seed(args.seed), max_n=args.max_n,
                         fmt=args.format, budget=args.budget,
                         verify_gb=args.verify_gb,
                         no_timings=args.no_timings)
    except ValueError as err:
        print(f"genuslab: bad GENUSLAB_SEED: {err}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "run":
        try:
            with open(args.session, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            print(f"genuslab: {err}", file=sys.stderr)
            return EXIT_USAGE
        try:
            session = parse_session(text)
        except (ParseError, HomogeneityViolation) as err:
            print(f"genuslab: {type(err).__name__}: {err}", file=sys.stderr)
            return EXIT_USAGE
        aggregate, code = run(session, flags)
        _emit(aggregate, flags)
        return code

    try:
        grid = _corpus_grid_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"genuslab: {err}", file=sys.stderr)
        return EXIT_USAGE
    aggregate = corpus_run(grid, flags)
    _emit(aggregate, flags)
    summary = aggregate["summary"]
    if summary["errored"]:
        return EXIT_ENGINE
    if summary["failed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
