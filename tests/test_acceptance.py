"""End-to-end acceptance: eight criteria, one printed pass/fail line each.

Every comparison is an exact integer equality.  The printed lines bypass
capture so the verdicts are always visible in the run log.
"""

import random
import time

import pytest

from genuslab.corpus import (build_example42, build_example44,
                             build_prop41_instance, random_instance,
                             ulrich_check)
from genuslab.groebner import groebner_basis
from genuslab.homology import depth
from genuslab.invariants import (check_prop38, check_theorem34, euler_chi1,
                                 hdeg, hilbert_samuel_table,
                                 inequality_suite, invariant_report,
                                 is_d_sequence, module_coefficients,
                                 multiplicity, sectional_genus, torsion)
from genuslab.modules import GradedAlgebra, ParameterSequence
from genuslab.oracle import membership, quotient_dimension_at
from genuslab.ring import (FreeModule, Polynomial, PolyRing, mono_divides,
                           poly_in_position)


def _finish(n: int, problems: list, detail: str, started: float,
            capfd, budget: float = None):
    elapsed = time.perf_counter() - started
    ok = not problems
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n}: {status} ({elapsed:.1f}s) {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, f"criterion {n}: " + "; ".join(problems)
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {n} over budget: {elapsed:.1f}s >= {budget}s")


# ------------------------------------------------------------ shared sweep

@pytest.fixture(scope="module")
def sweep():
    """The corpus instances plus fifty seeded random ones, built once."""
    out = []
    for lm in ((2, 1), (3, 1)):
        _, seq = build_example44(*lm)
        out.append((f"quadrics{lm}", seq.module, seq))
    for d in (1, 2, 3):
        _, module, xs = build_example42(d)
        out.append((f"cokernel{d}", module,
                    ParameterSequence(module, xs[1:])))
    _, seq = build_prop41_instance()
    out.append(("square-zero", seq.module, seq))
    for s in range(50):
        module, seq = random_instance(s)
        out.append((f"random{s}", module, seq))
    return out


# -------------------------------------------------------------- criteria

def test_criterion_1_product_quadrics_headline(capfd):
    started = time.perf_counter()
    problems = []
    try:
        _, seq = build_example44(2, 1)
        module = seq.module
        inv = invariant_report(module, seq)
        got = (inv.dimension, inv.depth, inv.covolume, inv.coefficients[0],
               inv.coefficients[1], inv.chi1, inv.sectional_genus, inv.hdeg,
               inv.torsions[0])
        want = (3, 2, 3, 2, -1, (1, 1), 0, 3, 1)
        if got != want:
            problems.append(f"headline numbers {got} != {want}")
        rep = check_theorem34(module, seq, budget=64)
        if not rep.equality:
            problems.append("genus equality does not hold")
        if not rep.condition2 or rep.covolume_defect != 0:
            problems.append("coefficient conditions do not hold")
        names = {c.name: c.status for c in rep.consequences}
        for name in ("d-sequence generators found",
                     "closed form reproduces the table",
                     "parameter multiples meet no finite section"):
            if names.get(name) != "pass":
                problems.append(f"consequence not passing: {name}")
        c = module_coefficients(module, seq.gens)
        table = hilbert_samuel_table(module, seq.gens, 6)
        bad = [n for n in range(7) if c.value_at(n) != table.values[n]]
        if bad:
            problems.append(f"closed form misses the table at {bad}")
    except Exception as exc:
        problems.append(f"error: {exc!r}")
    _finish(1, problems, "product quadrics, small case", started, capfd, budget=60)


def test_criterion_2_genus_torsion_separation(capfd):
    started = time.perf_counter()
    problems = []
    try:
        _, seq = build_example44(3, 1)
        module = seq.module
        g = sectional_genus(module, seq)
        e0 = module_coefficients(module, seq.gens).e[0]
        h = hdeg(module, seq.gens)
        t1 = torsion(module, seq.gens, 1)
        chi = euler_chi1(module, seq)[0]
        if not (g == 1 and (h, e0, t1) == (5, 2, 2) and g == h - e0 - t1):
            problems.append(
                f"genus equality numbers g={g}, hdeg={h}, e0={e0}, T1={t1}")
        if not (chi == 2 and h - e0 == 3 and chi < h - e0):
            problems.append(f"strict separation chi1={chi}, defect={h - e0}")
    except Exception as exc:
        problems.append(f"error: {exc!r}")
    _finish(2, problems,
            "equality holds while the Euler bound stays strict", started,
            capfd, budget=600)


def test_criterion_3_equality_failure_in_lockstep(capfd):
    started = time.perf_counter()
    problems = []
    try:
        _, seq = build_example44(4, 1)
        module = seq.module
        rep = check_theorem34(module, seq, budget=64)
        if rep.equality or rep.condition2:
            problems.append(
                f"expected both sides false, got {rep.equality} and "
                f"{rep.condition2}")
        if not (rep.lhs == 2 and rep.rhs == 3 and rep.lhs < rep.rhs):
            problems.append(f"gap numbers lhs={rep.lhs}, rhs={rep.rhs}")
    except Exception as exc:
        problems.append(f"error: {exc!r}")
    _finish(3, problems, "equality fails on both sides together", started, capfd, budget=1800)


def test_criterion_4_triangular_cokernel_ulrich(capfd):
    started = time.perf_counter()
    problems = []
    try:
        for d in (1, 2, 3):
            algebra, module, xs = build_example42(d)
            rep = ulrich_check(module, xs)
            if not rep.passed:
                bad = [c.name for c in rep.checks if not c.ok]
                problems.append(f"d={d}: failed {bad}")
            if depth(module) != d - 1:
                problems.append(f"d={d}: depth {depth(module)}")
            if multiplicity(module, xs) != d:
                problems.append(f"d={d}: e0 {multiplicity(module, xs)}")
            cov = hilbert_samuel_table(module, xs, 0).values[0]
            if cov != d or module.minimal_generator_count() != d:
                problems.append(f"d={d}: reduction not free of rank {d}")
    except Exception as exc:
        problems.append(f"error: {exc!r}")
    _finish(4, problems, "all three Ulrich conditions for d = 1, 2, 3",
            started, capfd, budget=60)


def test_criterion_5_square_zero_extension(capfd):
    started = time.perf_counter()
    problems = []
    try:
        _, seq = build_prop41_instance()
        module = seq.module
        g = sectional_genus(module, seq)
        e0 = module_coefficients(module, seq.gens).e[0]
        h = hdeg(module, seq.gens)
        t1 = torsion(module, seq.gens, 1)
        if g != 0 or h - e0 - t1 != 0:
            problems.append(f"g={g}, hdeg={h}, e0={e0}, T1={t1}")
        # the genus mirrors the embedded line: its covolume equals its
        # multiplicity under the full linear system
        ring = PolyRing(("x", "y"), 32003)
        x = ring.variable(0)
        line = GradedAlgebra(ring, []).cyclic_module().quotient_by_ideal([x])
        ideal = (x, ring.variable(1))
        line_cov = hilbert_samuel_table(line, ideal, 0).values[0]
        line_e0 = multiplicity(line, ideal)
        if not (g == line_cov - line_e0 == 0):
            problems.append(
                f"line numbers covolume={line_cov}, e0={line_e0}")
        rep = check_theorem34(module, seq, budget=64)
        if not (rep.equality and rep.passed):
            problems.append("equivalence or a consequence failed")
    except Exception as exc:
        problems.append(f"error: {exc!r}")
    _finish(5, problems, "square-zero extension meets the bound exactly",
            started, capfd, budget=30)


def _property_problems(tag: str, module, seq) -> list:
    out = []
    d = seq.count
    c = module_coefficients(module, seq.gens)
    cov = seq.covolume()
    chi = euler_chi1(module, seq)[0]
    if chi != cov - c.e[0]:
        out.append(f"{tag}: chi1 {chi} != covolume defect {cov - c.e[0]}")
    if chi < 0:
        out.append(f"{tag}: chi1 {chi} negative")
    for ck in inequality_suite(module, seq):
        if ck.status == "fail":
            out.append(f"{tag}: {ck.name} {ck.details}")
    inv = invariant_report(module, seq)
    nonzero = []
    for row in inv.duals:
        if row["dimension"] is not None:
            nonzero.append(row["index"])
            if row["dimension"] > row["index"]:
                out.append(f"{tag}: dual {row['index']} has dimension "
                           f"{row['dimension']}")
    # the duals stop below the top index, so a module whose depth is
    # maximal legitimately shows no nonzero entry
    expected_depth = min(nonzero) if nonzero else inv.dimension
    if expected_depth != inv.depth:
        out.append(f"{tag}: depth {inv.depth} vs nonzero duals {nonzero}")
    h0_len = module.h0_length()
    zero_len = inv.duals[0]["length"] if inv.duals else module.total_length()
    if zero_len != h0_len:
        out.append(f"{tag}: dual length {zero_len} != sections {h0_len}")
    if d >= 2:
        # raises EquivalenceViolation if the two sides ever disagree
        check_theorem34(module, seq, budget=16)
    return out


def test_criterion_6_property_sweep(sweep, capfd):
    started = time.perf_counter()
    problems = []
    checked = 0
    for tag, module, seq in sweep:
        try:
            problems.extend(_property_problems(tag, module, seq))
        except Exception as exc:
            problems.append(f"{tag}: error: {exc!r}")
        checked += 1
    detail = f"every law on {checked} instances"
    if len(problems) > 6:
        problems = problems[:6] + [f"... {len(problems) - 6} more"]
    assert checked >= 56
    _finish(6, problems, detail, started, capfd, budget=1200)


def test_criterion_7_colon_stable_coefficients(sweep, capfd):
    started = time.perf_counter()
    problems = []
    extra = []
    ring = PolyRing(("x", "y", "z"), 32003)
    x, y, z = (ring.variable(i) for i in range(3))
    spiked = GradedAlgebra(ring, [x ** 2, x * y]).cyclic_module()
    extra.append(("spiked line", spiked, ParameterSequence(spiked, [z, y])))
    ring4 = PolyRing(("x", "y", "z", "w"), 32003)
    xx, yy, zz, ww = (ring4.variable(i) for i in range(4))
    planes = GradedAlgebra(
        ring4, [xx * zz, xx * ww, yy * zz, yy * ww]).cyclic_module()
    extra.append(("two planes", planes,
                  ParameterSequence(planes, [xx - zz, yy - ww])))
    verified = 0
    for tag, module, seq in list(sweep) + extra:
        try:
            if not is_d_sequence(seq, module).holds:
                continue
            verified += 1
            rep = check_prop38(module, seq)
            if not rep.passed:
                bad = [c.name for c in rep.checks if not c.ok]
                problems.append(f"{tag}: {bad}")
        except Exception as exc:
            problems.append(f"{tag}: error: {exc!r}")
    if verified < 5:
        problems.append(f"only {verified} verified systems")
    _finish(7, problems,
            f"coefficient laws on {verified} verified systems",
            started, capfd)


def _oracle_instance(seed: int):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z"), 32003)
    gens = []
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(2, 6)
        terms = {}
        for _ in range(1 if rng.random() < 0.6 else 2):
            exps = [0, 0, 0]
            for _ in range(deg):
                exps[rng.randrange(3)] += 1
            key = tuple(exps)
            terms[key] = (terms.get(key, 0) + rng.randrange(1, 32003)) % 32003
        poly = Polynomial(ring, terms)
        if poly:
            gens.append(poly)
    return ring, gens, rng


def test_criterion_8_dense_oracle_agreement(capfd):
    started = time.perf_counter()
    problems = []
    queries = 0
    for seed in range(20):
        ring, gens, rng = _oracle_instance(seed)
        ambient = FreeModule(ring, (0,))
        elems = [poly_in_position(ambient, g, 0) for g in gens]
        basis = groebner_basis(ambient, elems)
        leads = [g.lead_term()[0][1] for g in basis.gb]
        for _ in range(5):
            t = rng.randint(0, 8)
            standard = sum(
                1 for m in ring.monomials_of_degree(t)
                if not any(mono_divides(ld, m) for ld in leads))
            dense = quotient_dimension_at(ambient, elems, t)
            queries += 1
            if standard != dense:
                problems.append(
                    f"seed {seed}: degree {t} piece {standard} != {dense}")
        for _ in range(5):
            if rng.random() < 0.5 and elems:
                top = max(g.degree for g in elems) + rng.randint(0, 2)
                v = ambient.zero()
                for g in elems:
                    gap = top - g.degree
                    if gap < 0:
                        continue
                    exps = [0, 0, 0]
                    for _ in range(gap):
                        exps[rng.randrange(3)] += 1
                    v = v + g.shifted(tuple(exps), rng.randrange(32003))
            else:
                t = rng.randint(1, 6)
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exps = [0, 0, 0]
                    for _ in range(t):
                        exps[rng.randrange(3)] += 1
                    key = tuple(exps)
                    terms[key] = (terms.get(key, 0)
                                  + rng.randrange(32003)) % 32003
                v = poly_in_position(ambient, Polynomial(ring, terms), 0)
            queries += 1
            if basis.contains(v) != membership(v, elems):
                problems.append(f"seed {seed}: membership mismatch on {v}")
    if queries != 200:
        problems.append(f"ran {queries} queries, wanted 200")
    _finish(8, problems, "basis engine agrees with dense linear algebra "
            f"on {queries} queries", started, capfd)
