"""Tests of the benchmark itself: the generator, the output checks and the
names run.py prints.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from checks import command_failed  # noqa: E402
from workloads import session_text  # noqa: E402
from genuslab.dsl import parse_session  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert session_text(workload, 7) == session_text(workload, 7)
    assert session_text(workload, 7) != session_text(workload, 8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_generated_session_parses(workload, seed):
    session = parse_session(session_text(workload, seed))
    assert session.commands


def test_workload_names_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


def test_thm34_failing_on_both_sides_is_not_a_failure():
    report = {"instance": "A0 with Q0", "thm34": {
        "equality": False, "condition2": False, "consequences": [],
        "verdict": "fails"}}
    assert not command_failed(report, families=False)
    report["thm34"]["condition2"] = True
    assert command_failed(report, families=False)


def test_families_numbers_are_held_to_the_closed_form():
    inv = {"dimension": 3, "depth": 2, "covolume": 3, "coefficients": [2, -1],
           "chi1": {"koszul": 1}, "sectional_genus": 0, "hdeg": 3,
           "torsions": [1]}
    report = {"instance": "Aq21 with Qq21", "invariants": inv}
    assert not command_failed(report, families=True)
    inv["hdeg"] = 4
    assert command_failed(report, families=True)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_name_is_in_the_spec(trace):
    spec = _spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"]: m["unit"] for m in wanted}
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "families", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == known
    for line in lines[1:-1]:
        name = line.split(": ", 1)[1].split(" = ")[0]
        assert name in known or name == "failed_share"
