"""Every shipped session reproduces its recorded output byte for byte.

The golden files under tests/golden/ hold the exact stdout of
`genuslab run <session> --no-timings` and its exit code.  An engine change
that alters any reported number, or the order or layout of a report, shows
up here; one that only moves work around does not.  Basis re-verification
(--verify-gb) must not change a byte either.

tests/golden/corpus.json is the exact stdout of `genuslab corpus
--no-timings`, the default corpus, and tests/golden/scale.json that of
`genuslab corpus --no-timings --config tests/golden/scale_grid.json`, the
example44 grid at 6-9 variables.  tests/golden/example44_4_2.json is that of
`genuslab corpus example44 4 2 --no-timings`, the hdeg recursion at 10
variables, tests/golden/example44_5_1.json that of `genuslab corpus
example44 5 1 --no-timings`, at 11 variables, where QM has three zero
duals, tests/golden/example44_6_1.json that of `genuslab corpus example44 6
1 --no-timings`, at 13 variables, tests/golden/example44_5_2.json that of
`genuslab corpus example44 5 2 --no-timings`, at 12 variables, and
tests/golden/example44_6_2.json that of `genuslab corpus example44 6 2
--no-timings`, at 14 variables.  They take seconds each, so CI diffs them
in steps of their own instead of here.
"""

import json
import pathlib

import pytest

from genuslab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS_FILES = {"corpus", "scale", "scale_grid", "example44_4_2",
                "example44_5_1", "example44_6_1", "example44_5_2",
                "example44_6_2"}
GOLDEN = sorted(p for p in (ROOT / "tests" / "golden").glob("*.json")
                if p.stem not in CORPUS_FILES)


def test_every_session_has_a_golden_file():
    sessions = sorted(p.stem for p in (ROOT / "sessions").glob("*.ses"))
    assert sessions == [p.stem for p in GOLDEN]


@pytest.mark.parametrize("extra", [[], ["--verify-gb"]],
                         ids=["plain", "verify-gb"])
@pytest.mark.parametrize("golden", GOLDEN, ids=lambda p: p.stem)
def test_session_output_is_byte_identical(capsys, golden, extra):
    want = json.loads(golden.read_text(encoding="utf-8"))
    code = main(["run", str(ROOT / want["session"]), "--no-timings"] + extra)
    out = capsys.readouterr().out
    assert code == want["exit_code"]
    assert out == want["stdout"]
