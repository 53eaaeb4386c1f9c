"""Shell behavior: report content, determinism, exit codes, formats."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import genuslab
from genuslab import cli, invariants
from genuslab.cli import (EXIT_CHECK_FAILED, EXIT_ENGINE, EXIT_OK, EXIT_USAGE,
                          RunFlags, config_to_grid, corpus_run, main, run)
from genuslab.corpus import InstanceDescriptor, example42_descriptor
from genuslab.dsl import parse_session
from genuslab.report import CSV_COLUMNS, to_json

SESSIONS = pathlib.Path(__file__).resolve().parent.parent / "sessions"


def shell(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = shell(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------- sessions

def test_product_quadrics_report(capsys):
    code, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "product_quadrics.ses"), "--no-timings"])
    assert code == EXIT_OK
    assert agg["schema"] == 1
    assert agg["prime"] == 32003
    inv = agg["reports"][0]["invariants"]
    assert inv["dimension"] == 3
    assert inv["depth"] == 2
    assert inv["covolume"] == 3
    assert inv["coefficients"] == [2, -1, 0, 0]
    assert inv["sectional_genus"] == 0
    assert inv["chi1"] == {"koszul": 1, "serre": 1}
    assert inv["hdeg"] == 3
    assert inv["torsions"] == [1, 0]
    assert inv["table"][:3] == [3, 11, 26]
    assert inv["generalized_cm"] is False and inv["sv"] is None
    thm = agg["reports"][1]["thm34"]
    assert thm["verdict"] == "holds"
    assert thm["equality"] is True
    assert (thm["lhs"], thm["rhs"], thm["covolume_defect"]) == (0, 0, 0)
    assert thm["coefficient_rows"] == [[2, 0, 0], [3, 0, 0]]
    names = [c["name"] for c in thm["consequences"]]
    assert "d-sequence generators found" in names


def test_spiked_line_all_checks_hold(capsys):
    code, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "spiked_line.ses"), "--no-timings"])
    assert code == EXIT_OK
    by_cmd = {r["command"]: r for r in agg["reports"]}
    assert by_cmd["check prop38"]["prop38"]["coefficients"] == [1, -1, 0]
    assert by_cmd["check prop38"]["prop38"]["verdict"] == "holds"
    assert by_cmd["check inequalities"]["inequalities"]["verdict"] == "holds"
    assert by_cmd["check thm34"]["thm34"]["verdict"] == "holds"


def test_ulrich_session(capsys):
    code, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "triangular_cokernel.ses"), "--no-timings"])
    assert code == EXIT_OK
    assert agg["reports"][0]["ulrich"]["verdict"] == "holds"


def test_families_session(capsys):
    code, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "families.ses"), "--no-timings"])
    assert code == EXIT_OK
    assert [r["status"] for r in agg["reports"]] == ["pass"] * 4
    assert agg["reports"][0]["command"] == "corpus example44 2 1"


def test_byte_identical_output(capsys):
    argv = ["run", str(SESSIONS / "spiked_line.ses"), "--no-timings"]
    _, first, _ = shell(capsys, argv)
    _, second, _ = shell(capsys, argv)
    assert first == second
    assert "timings" not in first


def test_timings_present_by_default(capsys):
    _, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "triangular_cokernel.ses")])
    assert "seconds" in agg["reports"][0]["timings"]


def test_max_n_surfaces_no_stabilization(capsys):
    code, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "product_quadrics.ses"),
        "--max-n", "1", "--no-timings"])
    assert code == EXIT_ENGINE
    first = agg["reports"][0]
    assert first["error"]["type"] == "NoStabilization"
    assert first["instance"] == "A with Q"
    assert first["command_index"] == 0


@pytest.mark.parametrize("max_n, code", [(0, EXIT_ENGINE), (4, EXIT_ENGINE),
                                         (5, EXIT_OK)])
def test_max_n_caps_the_rows_the_coefficients_need(capsys, max_n, code):
    # product_quadrics: d = 3 and postulation 0, so the fit needs the rows
    # 0..5; the exact route keeps that cap, and a cap of 0 stays 0
    got, agg, _ = run_json(capsys, [
        "run", str(SESSIONS / "product_quadrics.ses"),
        "--max-n", str(max_n), "--no-timings"])
    assert got == code
    errors = [r.get("error", {}).get("type") for r in agg["reports"]]
    assert errors == (["NoStabilization"] * 2 if code else [None, None])


def test_failing_check_exits_one(capsys, tmp_path):
    path = tmp_path / "fat.ses"
    path.write_text("ring R = vars x\nideal I = x^2\nalgebra A = R / I\n"
                    "ideal J = x\ncheck ulrich A J\n")
    code, agg, _ = run_json(capsys, ["run", str(path), "--no-timings"])
    assert code == EXIT_CHECK_FAILED
    verdicts = [c["status"]
                for c in agg["reports"][0]["ulrich"]["checks"]]
    assert "fail" in verdicts


@pytest.mark.parametrize("text", [
    "frobnicate\n",
    "compute invariants A Q\n",
    "ring R = vars x y\nideal I = x + y^2\n",
    "prime 4\ncorpus example42 1\n",
    "prime 1\n",
])
def test_bad_sessions_exit_two(capsys, tmp_path, text):
    path = tmp_path / "bad.ses"
    path.write_text(text)
    code, out, err = shell(capsys, ["run", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("text, line, col, digit", [
    ("ring R = vars x\nideal I = x^²\n", 2, 13, "²"),
    ("prime ³\n", 1, 7, "³"),
])
def test_superscript_digit_is_a_parse_error(capsys, tmp_path, text, line,
                                            col, digit):
    # str.isdigit accepts a superscript but int() does not
    path = tmp_path / "superscript.ses"
    path.write_text(text, encoding="utf-8")
    code, out, err = shell(capsys, ["run", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"genuslab: ParseError: line {line}, col {col}: "
                   f"unexpected character {digit!r}\n")


def test_wide_ring_dimension_is_computed(capsys, tmp_path):
    # seventeen variables have no cap: the dimension of k[a..q]/(a^2) is
    # computed as 16, so two parameters are a precondition error, exit 3
    path = tmp_path / "wide.ses"
    path.write_text("ring R = vars a b c d e f g h i j k l m n o p q\n"
                    "ideal I = a^2\nalgebra A = R / I\nsequence Q = a, b\n"
                    "compute invariants A Q\n")
    code, agg, _ = run_json(capsys, ["run", str(path), "--no-timings"])
    assert code == EXIT_ENGINE
    assert agg["reports"][0]["error"] == {
        "type": "PreconditionViolation",
        "message": "module has dimension 16, got 2 parameters"}


def test_exponent_past_the_packed_fields_is_a_precondition_error(capsys,
                                                                  tmp_path):
    # the engine packs each exponent into a 16-bit field; an input it cannot
    # pack is refused with a structured error and exit 3, never a wrong
    # number or a traceback
    path = tmp_path / "huge.ses"
    path.write_text("ring R = vars x y\nideal I = x^40000\n"
                    "algebra A = R / I\nsequence Q = y\n"
                    "compute invariants A Q\n")
    code, agg, err = run_json(capsys, ["run", str(path), "--no-timings"])
    assert code == EXIT_ENGINE
    error = agg["reports"][0]["error"]
    assert error["type"] == "PreconditionViolation"
    assert "packed-term limit 32767" in error["message"]
    assert "Traceback" not in err


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def test_crash_in_a_command_is_a_structured_error(capsys, monkeypatch):
    # an exception that is not an engine error still gives a structured
    # error and exit 3, not an uncaught traceback and exit 1
    monkeypatch.setattr(cli, "invariant_report", _boom)
    code, agg, err = run_json(capsys, [
        "run", str(SESSIONS / "spiked_line.ses"), "--no-timings"])
    assert code == EXIT_ENGINE
    assert agg["reports"][0]["error"] == {"type": "RuntimeError",
                                          "message": "boom"}
    # a bug, so its traceback is a diagnostic on stderr
    assert "RuntimeError: boom" in err
    # the other commands still ran
    assert agg["reports"][-1]["thm34"]["verdict"] == "holds"


def test_crash_in_a_corpus_instance_is_a_structured_error(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "ulrich_check", _boom)
    code, agg, _ = run_json(capsys, ["corpus", "example42", "1",
                                     "--no-timings"])
    assert code == EXIT_ENGINE
    (inst,) = agg["instances"]
    assert inst["status"] == "error"
    assert inst["error"] == {"type": "RuntimeError", "message": "boom"}


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = shell(capsys, ["run", str(tmp_path / "nope.ses")])
    assert code == EXIT_USAGE
    assert err.strip()


def test_non_utf8_session_exits_two(capsys, tmp_path):
    path = tmp_path / "utf16.ses"
    path.write_bytes(b"\xff\xfe" + "ring R = vars x\n".encode("utf-16-le"))
    code, out, err = shell(capsys, ["run", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("genuslab: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", str(SESSIONS / "spiked_line.ses"), "--budget", "-3"],
    ["run", str(SESSIONS / "spiked_line.ses"), "--budget", "0"],
    ["run", str(SESSIONS / "spiked_line.ses"), "--max-n", "-4"],
    ["corpus", "--random-seeds", "-2"],
], ids=["budget-negative", "budget-zero", "max-n", "random-seeds"])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    # rejected by the parser before anything runs: not a failing check,
    # a silently dropped block or a clamped table cap
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert "must be at least" in captured.err
    assert "Traceback" not in captured.err


def test_seed_from_environment(capsys, tmp_path, monkeypatch):
    path = tmp_path / "s.ses"
    path.write_text("ring R = vars x\nideal I = x^2\nalgebra A = R / I\n"
                    "ideal J = x\ncheck ulrich A J\n")
    monkeypatch.setenv("GENUSLAB_SEED", "7")
    _, agg, _ = run_json(capsys, ["run", str(path), "--no-timings"])
    assert agg["seed"] == 7
    _, agg, _ = run_json(capsys, ["run", str(path), "--no-timings",
                                  "--seed", "9"])
    assert agg["seed"] == 9


def test_csv_projection(capsys):
    code, out, _ = shell(capsys, [
        "run", str(SESSIONS / "product_quadrics.ses"),
        "--format", "csv", "--no-timings"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    compute = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert compute["e0"] == "2"
    assert compute["e1"] == "-1"
    assert compute["hdeg"] == "3"
    check = dict(zip(CSV_COLUMNS, lines[2].split(",")))
    assert check["verdict"] == "holds"


# ------------------------------------------------------------------ corpus

def test_corpus_single_family(capsys):
    code, agg, _ = run_json(capsys, ["corpus", "example42", "2",
                                     "--no-timings"])
    assert code == EXIT_OK
    assert agg["kind"] == "corpus"
    assert agg["summary"] == {"total": 1, "passed": 1, "failed": [],
                              "errored": []}
    inst = agg["instances"][0]
    assert inst["instance"] == "example42(d=2,prime=32003)"
    assert inst["status"] == "pass"
    assert inst["ulrich"]["verdict"] == "holds"


def test_corpus_config_file(capsys, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "example44": [[2, 1]], "example42": [1],
        "idealization": True, "random": 2}))
    code, agg, _ = run_json(capsys, ["corpus", "--config", str(config),
                                     "--no-timings"])
    assert code == EXIT_OK
    ids = [r["instance"] for r in agg["instances"]]
    assert ids == sorted(ids)
    assert len(ids) == 5
    assert agg["summary"]["passed"] == 5


def test_corpus_empty_config(capsys, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    code, agg, _ = run_json(capsys, ["corpus", "--config", str(config)])
    assert code == EXIT_OK
    assert agg["instances"] == []
    assert agg["summary"]["total"] == 0


def test_corpus_usage_errors(capsys, tmp_path):
    assert shell(capsys, ["corpus", "frobnicate"])[0] == EXIT_USAGE
    assert shell(capsys, ["corpus", "example44", "2"])[0] == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert shell(capsys, ["corpus", "--config", str(bad)])[0] == EXIT_USAGE
    bad.write_text(json.dumps({"unknown_family": 1}))
    assert shell(capsys, ["corpus", "--config", str(bad)])[0] == EXIT_USAGE


@pytest.mark.parametrize("family, params", [
    ("example44", ["1", "1"]), ("example44", ["2", "0"]), ("example42", ["0"]),
])
def test_out_of_range_corpus_parameters_exit_two(capsys, tmp_path, family,
                                                 params):
    # as a session line, as shell arguments and in a config file: rejected
    # as input before anything is built
    path = tmp_path / "bad.ses"
    path.write_text(f"prime 32003\ncorpus {family} {' '.join(params)}\n")
    code, out, err = shell(capsys, ["run", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert "ParseError" in err and f"{family} needs" in err
    code, out, err = shell(capsys, ["corpus", family] + params)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"{family} needs" in err and "Traceback" not in err
    config = tmp_path / "grid.json"
    value = [int(v) for v in params]
    config.write_text(json.dumps({family: [value if len(value) > 1
                                           else value[0]]}))
    code, out, err = shell(capsys, ["corpus", "--config", str(config)])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"{family} needs" in err


@pytest.mark.parametrize("config", [
    {"example44": [[2]]}, {"example44": 5}, {"example42": [None]}, ["example42"],
])
def test_malformed_config_exits_two(capsys, tmp_path, config):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    code, out, err = shell(capsys, ["corpus", "--config", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert "malformed grid description" in err


def test_euler_characteristic_homology_once_per_pair(monkeypatch):
    # one compute invariants plus one check inequalities share the Koszul
    # homology of their (module, Q) pair
    calls = []
    original = invariants.koszul_homology_lengths

    def counted(seq, *args):
        calls.append((id(seq.module), frozenset(seq.gens)))
        return original(seq, *args)

    monkeypatch.setattr(invariants, "koszul_homology_lengths", counted)
    session = parse_session(
        "ring R = vars x y z\nideal I = x^2, x*y\nalgebra A = R / I\n"
        "sequence Q = z, y\ncompute invariants A Q\n"
        "check inequalities A Q\n")
    _, code = run(session, RunFlags(no_timings=True))
    assert code == EXIT_OK
    assert len(calls) == len(set(calls)) == 1


def test_injected_golden_mismatch_is_flagged():
    good = example42_descriptor(3)
    bad = InstanceDescriptor("example42", {"d": 2, "prime": 32003},
                             {"e0": 99})
    agg = corpus_run([good, bad], RunFlags(no_timings=True))
    assert agg["summary"]["failed"] == ["example42(d=2,prime=32003)"]
    assert agg["summary"]["errored"] == []
    flagged = [r for r in agg["instances"] if r["status"] == "fail"]
    assert len(flagged) == 1
    assert flagged[0]["expected_mismatches"] == {
        "e0": {"expected": 99, "got": 2}}


def test_corpus_continues_past_errors():
    bad = InstanceDescriptor("random", {"seed": 0, "prime": 32003,
                                        "tries": 0})
    agg = corpus_run([bad, example42_descriptor(1)],
                     RunFlags(no_timings=True))
    assert agg["summary"]["total"] == 2
    assert agg["summary"]["passed"] == 1
    assert agg["summary"]["errored"] == [bad.instance_id]
    errored = [r for r in agg["instances"] if r["status"] == "error"]
    assert errored[0]["error"]["type"] == "GenerationFailure"


def test_corpus_deterministic():
    grid = config_to_grid({"random": 3, "example42": [2]})
    one = to_json(corpus_run(grid, RunFlags(no_timings=True)))
    two = to_json(corpus_run(grid, RunFlags(no_timings=True)))
    assert one == two


def _child_env():
    # A child running from another directory, where a relative PYTHONPATH
    # entry such as "src" does not resolve, is pointed at the absolute
    # directory holding the genuslab package this process imported.
    package_root = str(pathlib.Path(genuslab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "genuslab.cli", "run",
         str(SESSIONS / "triangular_cokernel.ses"), "--no-timings"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    agg = json.loads(proc.stdout)
    assert agg["reports"][0]["ulrich"]["verdict"] == "holds"


def test_import_does_not_load_numpy(tmp_path):
    # the engine has no runtime dependency; numpy must not come in by import
    code = ("import sys\n"
            "import genuslab.cli, genuslab.invariants, genuslab.oracle\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cold_import_stays_light(tmp_path):
    # what a run imports before its first command: no dataclasses (which
    # loads inspect, ast and dis), no command-line parser, no CSV writer
    code = ("import sys\n"
            "from genuslab import cli, dsl, report\n"
            "heavy = {'dataclasses', 'inspect', 'argparse', 'csv'}\n"
            "print(sorted(heavy & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_engine_does_not_import_the_oracle(tmp_path):
    # the dense oracle is the tests' second opinion, not part of the engine
    code = ("import sys\n"
            "import genuslab.cli, genuslab.invariants\n"
            "assert 'genuslab.oracle' not in sys.modules, 'oracle imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_every_benchmark_span_resolves():
    # the benchmark wraps engine entry points by name; a name it binds must
    # stay, as a module attribute or an entry of its class's __dict__
    path = SESSIONS.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for _, mod_name, attr in spans.SPANS:
        module = importlib.import_module(mod_name)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            assert fn_name in vars(getattr(module, owner_name)), attr
        else:
            assert callable(getattr(module, fn_name, None)), attr
