"""The engine run: --verify-gb, --max-n and the shared Hilbert numerators
live for one with block, and nothing of a run is kept at module level."""
import copy
import importlib
import pathlib
import pkgutil
import sys

import pytest

import genuslab
from genuslab import groebner
from genuslab.cli import RunFlags, run
from genuslab.dsl import parse_session
from genuslab.groebner import (TABLE_CAP, current_run,
                               debug_verification_enabled, engine_run,
                               groebner_basis, hilbert_series)
from genuslab.ring import FreeModule, PolyRing, poly_in_position

SESSIONS = pathlib.Path(__file__).resolve().parent.parent / "sessions"


def _module_containers():
    # a shallow copy of every dict, list and set bound at module level in
    # the package, every module of it imported
    for info in pkgutil.iter_modules(genuslab.__path__, "genuslab."):
        importlib.import_module(info.name)
    return {(name, attr): copy.copy(value)
            for name, module in list(sys.modules.items())
            if name == "genuslab" or name.startswith("genuslab.")
            for attr, value in vars(module).items()
            if not attr.startswith("__")
            and isinstance(value, (dict, list, set))}


def _basis():
    # a monomial ideal whose numerator recursion takes several pivots
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = (R.variable(i) for i in range(3))
    F = FreeModule(R, (0,))
    return groebner_basis(F, [poly_in_position(F, f, 0) for f in
                              (x * x, x * y, y ** 3, y * z * z, z ** 4)])


def test_a_run_leaves_no_module_level_container_changed():
    session = parse_session((SESSIONS / "families.ses").read_text())
    before = _module_containers()
    run(session, RunFlags(verify_gb=True, max_n=3, no_timings=True))
    after = _module_containers()
    assert [key for key in before if after.get(key) != before[key]] == []


def test_a_run_that_raises_restores_the_defaults():
    with pytest.raises(ZeroDivisionError):
        with engine_run(verify=True, table_cap=3):
            assert debug_verification_enabled()
            assert current_run().table_cap == 3
            1 // 0
    assert not debug_verification_enabled()
    assert current_run().table_cap == TABLE_CAP == 64


def test_a_nested_run_restores_the_outer_one():
    with engine_run(verify=True, table_cap=3) as outer:
        with engine_run(table_cap=0) as inner:
            assert current_run() is inner
            assert not debug_verification_enabled()
            assert inner.table_cap == 0  # a cap of 0 is not the default
        assert current_run() is outer
        assert debug_verification_enabled() and outer.table_cap == 3


def test_each_run_starts_with_an_empty_memo():
    with engine_run() as first:
        hilbert_series(_basis())
        assert first.numerators
    with engine_run() as second:
        assert second.numerators == {}


def test_outside_every_run_nothing_is_kept(monkeypatch):
    # each top-level numerator call takes _minimal_leads once, and once
    # more for every recursion step it does not find in its memo
    calls = []
    minimal = groebner._minimal_leads
    monkeypatch.setattr(groebner, "_minimal_leads",
                        lambda leads: calls.append(leads) or minimal(leads))

    def steps():
        calls.clear()
        hilbert_series(_basis())  # a new basis: its own series memo is empty
        return len(calls)

    first = steps()
    assert first > 1 and steps() == first
    assert current_run().numerators is None
    with engine_run():
        assert steps() == first
        assert steps() == 1  # the run's memo answers the second call
