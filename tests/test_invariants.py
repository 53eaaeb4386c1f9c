"""Length tables, coefficient extraction, and the derived invariants.

Expected numbers are worked out by hand on small quotient rings where the
monomial bases are listable, then pinned exactly.
"""
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genuslab import invariants, modules
from genuslab.corpus import build_example42, build_example44, random_instance
from genuslab.errors import (CrossCheckFailure, IndexOutOfRange,
                             InfiniteLength, NoStabilization,
                             NotFoundWithinBudget, NotGeneralizedCM,
                             PreconditionViolation)
from genuslab.groebner import (NEG_INF, SubmoduleBasis, hilbert_series,
                               quotient_total_length, set_debug_verification)
from genuslab.homology import dual_sections, ext_module
from genuslab.invariants import (LengthTable, _TableEngine, _annihilator,
                                 _engine, _graded_superficial,
                                 _not_annihilating, _windowed_superficial,
                                 check_prop38,
                                 check_theorem34, covolume, euler_chi1,
                                 find_d_sequence_generators, hdeg,
                                 hilbert_coefficients, hilbert_samuel_table,
                                 inequality_suite, invariant_report,
                                 is_d_sequence, is_superficial, multiplicity,
                                 module_coefficients, sectional_genus,
                                 sv_invariant, torsion)
from genuslab.modules import (GradedAlgebra, GradedModule, ParameterSequence,
                              ideal_power, present_subquotient,
                              submodule_colon, submodule_intersect)
from genuslab.ring import (FreeElement, FreeModule, PolyRing, binomial,
                           poly_in_position, poly_times_element)

from reference import (reference_multiples_hdeg,
                       reference_sections_quotient_degrees)


def algebra(names, relations=(), p=32003):
    ring = PolyRing(tuple(names), p)
    xs = [ring.variable(i) for i in range(ring.nvars)]
    return GradedAlgebra(ring, [rel(*xs) for rel in relations]), xs


@pytest.fixture(scope="module")
def line_with_spike():
    # k[x,y]/(x^2, xy): a line with one nilpotent on top, dimension 1
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    return A.cyclic_module(), x, y


@pytest.fixture(scope="module")
def two_planes():
    # two planes in 4-space meeting at the origin: depth 1, H^1 = k
    A, (x, y, z, w) = algebra(
        "xyzw", [lambda x, y, z, w: x * z, lambda x, y, z, w: x * w,
                 lambda x, y, z, w: y * z, lambda x, y, z, w: y * w])
    return A.cyclic_module(), (x - z, y - w)


@pytest.fixture(scope="module")
def plane_with_line():
    # k[x,y,z]/(x^2, xy): a plane with an embedded line, depth 1, dim 2,
    # the first cohomology dual has dimension 1
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    return A.cyclic_module(), x, y, z


# -- tables -------------------------------------------------------------------

def test_table_polynomial_ring():
    A, (x, y) = algebra("xy")
    table = hilbert_samuel_table(A.cyclic_module(), (x, y), 6)
    assert table.values == tuple(binomial(n + 2, 2) for n in range(7))


def test_table_line_with_spike(line_with_spike):
    M, x, y = line_with_spike
    table = hilbert_samuel_table(M, (y,), 5)
    assert table.values == (2, 3, 4, 5, 6, 7)


def test_table_nonlinear_parameter(line_with_spike):
    # (y^2) takes the graded route with D = 2, counting the standard
    # monomials of y-degree below 2(n+1); quotient basis is 1, x, y..y^{2n+1}
    M, x, y = line_with_spike
    table = hilbert_samuel_table(M, (y * y,), 4)
    assert table.values == (3, 5, 7, 9, 11)


def test_table_skew_linear_parameter(line_with_spike):
    # x + y generates the same power ideals as y here since xy = x^2 = 0
    M, x, y = line_with_spike
    table = hilbert_samuel_table(M, (x + y,), 4)
    assert table.values == (2, 3, 4, 5, 6)


def test_table_grows_on_demand(line_with_spike):
    M, x, y = line_with_spike
    table = hilbert_samuel_table(M, (y,), 2)
    assert table.top == 2
    bigger = table.extended(8)
    assert bigger.values[:3] == table.values
    assert bigger.values[8] == 10


def _rank_two_duals_of_random_38():
    module, seq = random_instance(38)
    duals = [ds.module for ds in dual_sections(module) if ds.module.rank == 2]
    assert duals
    return [(dual, seq.gens) for dual in duals]


def _example42(d):
    _, module, xs = build_example42(d)
    return [(module, xs)]


def _unequal_twist_sum():
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    M = A.cyclic_module().direct_sum(
        A.cyclic_module(2).quotient_by_ideal([x]))
    assert M.twists == (0, 2)
    return [(M, (x + y, z - y))]


def _random(seed):
    module, seq = random_instance(seed)
    return [(module, seq.gens)]


@pytest.mark.parametrize("build", [
    _rank_two_duals_of_random_38,
    lambda: _example42(2), lambda: _example42(3), lambda: _example42(4),
    _unequal_twist_sum,
    lambda: _random(0), lambda: _random(5), lambda: _random(10),
], ids=["random38-rank2-duals", "example42-2", "example42-3", "example42-4",
        "unequal-twist-sum", "random0", "random5", "random10"])
def test_tangent_cone_route_matches_ideal_powers(build):
    # the tangent-cone slices against expanded powers of the ideal
    for module, gens in build():
        eng = _TableEngine(module, gens)
        assert eng.graded
        assert ([eng._graded_value(n) for n in range(6)]
                == [eng._direct_value(n) for n in range(6)])


def _two_squares(module, gens):
    return (gens[0] * gens[0], gens[1] * gens[1]) + tuple(gens[2:])


def _product_not_power(module, gens):
    # g times a second parameter: a quadric that is no power of a linear form
    x, y, z = module.algebra.variables()
    return (gens[0] * (x + 2 * y + 3 * z),) + tuple(gens[1:])


@pytest.mark.parametrize("build, nonlinear", [
    (lambda: _random(0), _product_not_power),
    (lambda: _random(5), _two_squares), (lambda: _random(10), _two_squares),
    (_unequal_twist_sum, _two_squares), (lambda: _example42(3), _two_squares),
], ids=["random0", "random5", "random10", "unequal-twist-sum", "example42-3"])
def test_direct_route_recurrence_matches_ideal_powers(build, nonlinear):
    # levels seeded from the previous level against expanded powers of a
    # non-linear ideal the graded route does not take: two squared
    # generators, or a product of two linear forms
    for module, gens in build():
        gens = nonlinear(module, gens)
        eng = _TableEngine(module, gens)
        assert not eng.graded
        for n in range(6):
            power = ideal_power(module.algebra, list(gens), n + 1)
            polys = [g.component(0) for g in power.gb]
            expanded = module.submodule_with(module.ideal_multiples(polys))
            assert eng._direct_value(n) == quotient_total_length(expanded)


def _powered(build, exponent):
    # every generator in turn raised to the exponent, the others kept
    cases = []
    for module, gens in build():
        for i in range(len(gens)):
            cases.append((module, gens[:i] + (gens[i] ** exponent,)
                          + gens[i + 1:]))
    return cases


_POWER_BUILDS = ([lambda s=s: _random(s) for s in range(20)]
                 + [lambda d=d: _example42(d) for d in (2, 3, 4)]
                 + [_unequal_twist_sum])
_POWER_IDS = ([f"random{s}" for s in range(20)]
              + [f"example42-{d}" for d in (2, 3, 4)] + ["unequal-twist-sum"])


@pytest.mark.parametrize("exponent", [2, 3])
@pytest.mark.parametrize("build", _POWER_BUILDS, ids=_POWER_IDS)
def test_power_route_matches_direct_route(build, exponent):
    # one generator a power of a linear form: the weighted slices against
    # the levels built one by one
    for module, gens in _powered(build, exponent):
        eng = _TableEngine(module, gens)
        assert eng.graded and eng.coords.weight == exponent
        assert ([eng._graded_value(n) for n in range(6)]
                == [eng._direct_value(n) for n in range(6)])


def test_power_of_a_dependent_form_takes_the_direct_route(plane_with_line):
    # (y + z)^2 with y + z already among the linear generators
    M, x, y, z = plane_with_line
    eng = _TableEngine(M, (y, z, (y + z) ** 2))
    assert not eng.graded
    # 1, y^a z^b with a + b <= n, and x z^b with b <= n
    assert eng.values_up_to(3) == [2, 5, 9, 14]


def _fresh_plane_with_line():
    # a new algebra each time, so that no coordinate change is memoized yet
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    return A.cyclic_module(), (y + x, z - 2 * y)


def test_swapped_columns_of_the_coordinate_change_fail_a_plain_run(
        monkeypatch):
    M, gens = _fresh_plane_with_line()
    real = invariants.invert_matrix
    monkeypatch.setattr(invariants, "invert_matrix", lambda rows, p: [
        [r[1], r[0]] + r[2:] for r in real(rows, p)])
    with pytest.raises(CrossCheckFailure, match="straighten"):
        hilbert_samuel_table(M, gens, 2)


@pytest.mark.parametrize("gens", [lambda x, y, z: (y + x, z - 2 * y),
                                  lambda x, y, z: (y + x, (z - 2 * y) ** 2)],
                         ids=["linear", "power"])
def test_verify_gb_maps_every_moved_element_back(gens):
    # a corrupted image of x^2, a monomial of the relations, is caught by
    # mapping the moved relations back through the inverse matrix
    M, _ = _fresh_plane_with_line()
    gens = gens(*M.algebra.variables())
    change = invariants.graded_coordinates(M.algebra, gens).change
    x2 = (2, 0, 0)
    change._images[x2] = {e: 2 * c for e, c in change.image(x2).items()}
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure, match="coordinate change"):
            hilbert_samuel_table(M, gens, 2)
    finally:
        set_debug_verification(False)


def test_one_coordinate_change_serves_m_m_over_am_and_m_over_h0(
        monkeypatch):
    # d = 2, linear Q: the length tables of M, M/a_1M and M/H⁰(M) all move
    # their relations through the one object memoized on the algebra
    module, seq = random_instance(7)
    assert seq.count == 2
    built, engines = [], []
    real_coords = invariants._GradedCoordinates.__init__
    real_engine = _TableEngine.__init__

    def counting(self, *args):
        built.append(self)
        real_coords(self, *args)

    def recording(self, *args):
        real_engine(self, *args)
        engines.append(self)

    monkeypatch.setattr(invariants._GradedCoordinates, "__init__", counting)
    monkeypatch.setattr(_TableEngine, "__init__", recording)
    invariant_report(module, seq)
    inequality_suite(module, seq)
    assert len(built) == 1
    assert all(eng.coords is built[0] for eng in engines)
    relations = [eng.module.relations for eng in engines]
    assert len({id(eng.module) for eng in engines}) == len(engines) == 3
    assert engines[0].module is module
    assert module.power_submodule(seq.gens[:1]) in relations
    assert [r == module.h0_submodule() for r in relations].count(True) == 2


def test_power_route_cross_checks_row_one_under_verify_gb(
        line_with_spike, monkeypatch):
    M, x, y = line_with_spike
    set_debug_verification(True)
    try:
        assert _TableEngine(M, (y * y,)).values_up_to(2) == [3, 5, 7]
        monkeypatch.setattr(_TableEngine, "_direct_value", lambda self, n: 0)
        with pytest.raises(CrossCheckFailure, match="n = 1"):
            _TableEngine(M, (y * y,)).values_up_to(1)
    finally:
        set_debug_verification(False)


# -- coefficients -------------------------------------------------------------

def test_coefficients_polynomial_ring():
    A, (x, y) = algebra("xy")
    c = module_coefficients(A.cyclic_module(), (x, y))
    assert c.e == (1, 0, 0)
    assert c.postulation == 0
    assert sectional_genus(A.cyclic_module(), (x, y)) == 0


def test_coefficients_line_with_spike(line_with_spike):
    M, x, y = line_with_spike
    c = module_coefficients(M, (y,))
    assert c.e == (1, -1)
    assert c.value_at(3) == 5
    assert sectional_genus(M, (y,)) == 0


def test_coefficients_deeper_spike():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y * y])
    M = A.cyclic_module()
    assert module_coefficients(M, (y,)).e == (1, -2)
    assert sectional_genus(M, (y,)) == -1


def test_postulation_waits_for_the_nilpotent():
    A, (x,) = algebra("x", [lambda x: x * x])
    M = A.cyclic_module()
    table = hilbert_samuel_table(M, (x,), 4)
    assert table.values == (1, 2, 2, 2, 2)
    c = hilbert_coefficients(table, 0)
    assert c.e == (2,)
    assert c.postulation == 1
    assert multiplicity(M, (x,)) == 2


def test_no_stabilization_without_growth():
    frozen = LengthTable((1, 2, 3))
    with pytest.raises(NoStabilization):
        hilbert_coefficients(frozen, 2)


def test_split_summand_coefficients():
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    K = S.quotient_by_ideal([x, y])
    M = S.direct_sum(K)
    c = module_coefficients(M, (x, y))
    assert c.e == (1, 0, 1)
    assert sectional_genus(M, (x, y)) == 1


# -- e0 from the Hilbert series -----------------------------------------------

def _table_e0(module, gens):
    s = max(int(module.dimension()), 0)
    return hilbert_coefficients(hilbert_samuel_table(module, gens), s).e[0]


def _series_e0_cases():
    # random draws with the drawn linear Q, the first parameter squared and
    # cubed, and one extra linear generator; the twisted rank-2 sum
    cases = []
    for seed in list(range(20)) + [38]:
        module, seq = random_instance(seed)
        g = seq.gens
        v = module.algebra.variables()
        extra = sum(v[1:], v[0])
        cases += [(module, g), (module, (g[0] ** 2,) + g[1:]),
                  (module, (g[0] ** 3,) + g[1:]), (module, g + (extra,))]
    return cases + _unequal_twist_sum()


def test_series_multiplicity_matches_the_table():
    # e0 off the Hilbert series against the table's binomial fit, on the
    # modules and on their Ext duals under the same Q; a Q with more than
    # dim generators not all linear stays on the table
    compared = tabled = 0
    for module, gens in _series_e0_cases():
        for m in [module] + [ds.module for ds in dual_sections(module)]:
            if m.is_zero():
                continue
            want = _table_e0(m, gens)
            series = invariants._series_multiplicity(m, gens)
            linear = all(g.degree == 1 for g in gens)
            if len(gens) > m.dimension() and not linear:
                assert series is None
                assert multiplicity(m, gens) == want
                if m.dimension() > 0:
                    assert ("hscoeffs", frozenset(gens)) in m._cache
                    tabled += 1
                continue
            assert series == want, (m, [str(g) for g in gens])
            assert multiplicity(m, gens) == want
            compared += m.dimension() > 0
    assert compared >= 80 and tabled >= 10, (compared, tabled)


def test_multiplicity_of_a_nonparameter_nonlinear_ideal():
    # Q = m^2 on k[x,y]: three generators for dimension two, so the degree
    # product 8 is wrong; e_Q = 4 comes from the table
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    q = (x * x, x * y, y * y)
    assert invariants._series_multiplicity(S, q) is None
    assert multiplicity(S, q) == 4
    assert multiplicity(S, (x * x, y ** 3)) == 6  # Serre: 2 * 3 * e(S)
    assert multiplicity(S, (x, y, x + y)) == 1  # linear: a reduction of m


def test_series_multiplicity_needs_finite_colength(line_with_spike):
    M, x, y = line_with_spike
    with pytest.raises(InfiniteLength):
        multiplicity(M, (x,))
    with pytest.raises(InfiniteLength):
        module_coefficients(M, (x,))


@pytest.mark.parametrize("seed", range(6))
def test_covolume_reads_the_quotient_and_checks_row_zero(monkeypatch, seed):
    module, seq = random_instance(seed)
    assert covolume(module, seq.gens) == seq.covolume()
    assert covolume(module, seq.gens) == hilbert_samuel_table(
        module, seq.gens, 0).values[0]
    # a table whose row 0 is off by one trips the check under --verify-gb
    table = invariants.hilbert_samuel_table

    def off_by_one(*args):
        return LengthTable(tuple(v + 1 for v in table(*args).values))

    monkeypatch.setattr(invariants, "hilbert_samuel_table", off_by_one)
    assert covolume(module, seq.gens) == seq.covolume()
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure):
            covolume(module, seq.gens)
    finally:
        set_debug_verification(False)


def test_covolume_keeps_the_infinite_length_message(line_with_spike):
    M, x, y = line_with_spike
    with pytest.raises(InfiniteLength) as table:
        hilbert_samuel_table(M, (x,), 0)
    with pytest.raises(InfiniteLength) as direct:
        covolume(M, (x,))
    assert str(direct.value) == str(table.value)


def test_wrong_series_multiplicity_is_caught(monkeypatch):
    degree = GradedModule.degree
    monkeypatch.setattr(GradedModule, "degree", lambda self: degree(self) + 1)
    module, seq = random_instance(5)
    with pytest.raises(CrossCheckFailure):
        module_coefficients(module, seq.gens)
    assert multiplicity(module, seq.gens) == _table_e0(module, seq.gens) + 1
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure):
            multiplicity(module, seq.gens)
    finally:
        set_debug_verification(False)


# -- chi and the two routes ---------------------------------------------------

def test_chi_line_with_spike(line_with_spike):
    M, x, y = line_with_spike
    assert euler_chi1(M, (y,)) == (1, 1)


def test_chi_regular_sequence_vanishes():
    A, (x, y) = algebra("xy")
    assert euler_chi1(A.cyclic_module(), (x, y)) == (0, 0)


def test_chi_split_summand():
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    M = S.direct_sum(S.quotient_by_ideal([x, y]))
    assert euler_chi1(M, (x, y)) == (1, 1)


# -- hdeg, torsion, sv --------------------------------------------------------

def test_hdeg_line_with_spike(line_with_spike):
    M, x, y = line_with_spike
    assert hdeg(M, (y,)) == 2
    assert sv_invariant(M) == 1


def test_hdeg_split_summand():
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    K = S.quotient_by_ideal([x, y])
    M = S.direct_sum(K)
    assert hdeg(S, (x, y)) == 1
    assert hdeg(M, (x, y)) == 2  # adds the length of the finite summand
    assert torsion(M, (x, y), 1) == 0
    assert sv_invariant(M) == 1


def test_torsion_index_guards(line_with_spike):
    M, x, y = line_with_spike
    with pytest.raises(IndexOutOfRange):
        torsion(M, (y,), 1)  # dimension 1 has no torsions
    A, (u, v) = algebra("uv")
    with pytest.raises(IndexOutOfRange):
        torsion(A.cyclic_module(), (u, v), 0)
    with pytest.raises(IndexOutOfRange):
        torsion(A.cyclic_module(), (u, v), 2)


def test_sv_needs_finite_duals(plane_with_line):
    M, x, y, z = plane_with_line
    duals = dual_sections(M)
    assert duals[0].finite_length and not duals[1].finite_length
    with pytest.raises(NotGeneralizedCM):
        sv_invariant(M)
    # hdeg still recurses through the positive-dimensional dual
    assert hdeg(M, (y, z)) == 2
    assert torsion(M, (y, z), 1) == 1


# -- superficiality -----------------------------------------------------------

def test_superficial_preconditions():
    A, (x, y) = algebra("xy")
    M = A.cyclic_module()
    with pytest.raises(PreconditionViolation):
        is_superficial(y, M, (x,))  # not in the ideal
    with pytest.raises(PreconditionViolation):
        is_superficial(x * x, M, (x, y))  # inside m·Q


def test_superficial_verified_with_consequences():
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    M = S.direct_sum(S.quotient_by_ideal([x, y]))
    rep = is_superficial(x, M, (x, y))
    assert rep.status == "verified"
    assert rep.colon_length == 1


def test_superficial_element_in_q_plus_i():
    # k[x,y]/(x - y), Q = (x): y is x in the algebra, so its initial form
    # is read off its normal form modulo the ideal, not off y as given
    A, (x, y) = algebra("xy", [lambda x, y: x - y])
    rep = is_superficial(y, A.cyclic_module(), (x,))
    assert rep.status == "verified"
    set_debug_verification(True)
    try:
        assert is_superficial(y, A.cyclic_module(), (x,)).status == "verified"
    finally:
        set_debug_verification(False)


def test_superficial_refuted():
    A, (x, y) = algebra("xy", [lambda x, y: x * y])
    M = A.cyclic_module()
    rep = is_superficial(x, M, (x,))
    assert rep.status == "refuted"
    assert rep.witness is not None


def _skew_twist_module():
    # coker of S(-2) -> S ⊕ S(-1), 1 |-> (-y^2, x), over k[x,y]; the module
    # is the ideal (x, y^2), so x is a nonzerodivisor, but the relation's
    # initial form x·e2 kills e2 in gr_Q(M)
    A, (x, y) = algebra("xy")
    F = FreeModule(A.ring, (0, 1))
    rel = FreeElement(F, {(1, (1, 0)): 1, (0, (0, 2)): -1})
    return GradedModule(A, (0, 1), [rel]), x, y


def test_superficiality_against_the_window():
    # wherever the colon window is conclusive, the exact test agrees
    compared = 0
    for seed in range(60):
        module, seq = random_instance(seed)
        for a in seq.gens:
            exact = _graded_superficial(a, module, seq.gens)
            window, _ = _windowed_superficial(a, module, seq.gens)
            if window != "inconclusive":
                assert exact == (window == "verified"), (seed, str(a))
                compared += 1
    assert compared >= 100


def test_nonzerodivisor_that_is_not_superficial():
    M, x, y = _skew_twist_module()
    rep = is_superficial(x, M, (x, y))
    assert rep.status == "refuted"
    assert "filter-regular" in rep.witness
    assert _annihilator(x, M) == (NEG_INF, 0)
    # by the definition: y^n e2 lies in Q^n M and x·y^n e2 = y^{n+2} e1 in
    # Q^{n+2} M, but y^n e2 is not in Q^{n+1} M, for every n
    level = lambda k: M.submodule_with(M.ideal_multiples(
        [g.component(0) for g in ideal_power(M.algebra, [x, y], k).gb]))
    e2 = M.ambient.generator(1)
    for n in range(1, 5):
        m = poly_times_element(y ** n, e2)
        assert level(n + 2).contains(poly_times_element(x, m))
        assert not level(n + 1).contains(m)
    # and the second coefficient moves across x although nothing is killed
    assert (module_coefficients(M, (x, y)).e[1]
            != module_coefficients(M.quotient_by_ideal([x]), (x, y)).e[1])
    assert _windowed_superficial(x, M, (x, y), c_max=6)[0] == "inconclusive"
    assert is_superficial(y, M, (x, y)).status == "verified"


def test_wider_window_confirms_random_38():
    # the default window (c <= 3) cannot decide either generator; one up to
    # c = 6 verifies both, as the exact test does
    module, seq = random_instance(38)
    for a in seq.gens:
        assert _windowed_superficial(a, module, seq.gens)[0] == "inconclusive"
        assert _windowed_superficial(a, module, seq.gens,
                                     c_max=6)[0] == "verified"
        assert is_superficial(a, module, seq.gens).status == "verified"


def test_verify_gb_cross_checks_the_window(monkeypatch):
    M, x, y = _skew_twist_module()
    monkeypatch.setattr(invariants, "_windowed_superficial",
                        lambda *args, **kw: ("verified", 1))
    assert is_superficial(x, M, (x, y)).status == "refuted"
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure):
            is_superficial(x, M, (x, y))
    finally:
        set_debug_verification(False)


def test_nonlinear_ideal_keeps_the_window(line_with_spike):
    # one power: the weight-D form y^2 is filter-regular on gr_W(M), so the
    # window is never asked
    M, x, y = line_with_spike
    assert _engine(M, (y * y,)).coords.weight == 2
    assert _engine(M, (y,)).coords is not None
    rep = is_superficial(y * y, M, (y * y,))
    assert rep.status == "verified" and rep.window_start is None
    # two powers leave the graded route, and the window decides
    A, (u, v) = algebra("xy")
    S = A.cyclic_module()
    assert _engine(S, (u * u, v * v)).coords is None
    rep = is_superficial(u * u, S, (u * u, v * v))
    assert rep.status == "verified" and rep.window_start == 1


def test_one_power_zero_divisor_goes_to_the_window():
    # k[x,y,z]/(xz, xy) with Q = (x + y, l^2), l = x + z: on the line
    # V(y, z) Q is (x) and l^2 = x^2 lies in Q^2, so l^2 is a zero-divisor
    # on gr_W(M) there; the W-test proves nothing and the window decides
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * z,
                                   lambda x, y, z: x * y])
    M = A.cyclic_module()
    q = (x + y, (x + z) ** 2)
    assert _engine(M, q).coords.weight == 2
    assert not _graded_superficial(q[1], M, q)
    rep = is_superficial(q[1], M, q)
    assert rep.status == "inconclusive" and rep.colon_length == 0
    assert _graded_superficial(q[0], M, q)
    assert is_superficial(q[0], M, q).status == "verified"


def test_weighted_superficiality_against_the_window():
    # one parameter squared (cubed on the first seeds): wherever the colon
    # window is conclusive, a filter-regular weight-D form means verified
    compared = 0
    for seed in range(60):
        module, seq = random_instance(seed)
        if seq.count > 2:
            continue  # three parameters make the window slow
        for power in ((2, 3) if seed < 15 else (2,)):
            gens = (seq.gens[0] ** power,) + tuple(seq.gens[1:])
            assert _engine(module, gens).coords.weight == power
            for a in gens:
                weighted = _graded_superficial(a, module, gens)
                window, _ = _windowed_superficial(a, module, gens)
                if window != "inconclusive":
                    assert not weighted or window == "verified", \
                        (seed, power, str(a))
                    compared += 1
    assert compared >= 60


def test_verify_gb_cross_checks_the_weighted_test(monkeypatch, line_with_spike):
    M, x, y = line_with_spike
    monkeypatch.setattr(invariants, "_windowed_superficial",
                        lambda *args, **kw: ("refuted", None))
    assert is_superficial(y * y, M, (y * y,)).status == "verified"
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure):
            is_superficial(y * y, M, (y * y,))
    finally:
        set_debug_verification(False)


def _presented_annihilator(a, module):
    # (0 :_M a) as the colon (N : a), presented over N: two elimination
    # kernels, the form that the series difference replaced: its oracle
    colon = submodule_colon(module.relations, a)
    return present_subquotient(module.algebra, list(colon.gb),
                               module.relations, module.ambient)


def _colon_window(a, module, qgens, c_max=3, window=2):
    # the colon window decided by a colon and an intersection at every
    # (c, n), the form that the Hilbert-series window replaced: its oracle
    if _presented_annihilator(a, module).dimension() > 0:
        return "refuted", None
    level = lambda k: module.power_submodule(qgens, k)
    for c in range(1, c_max + 1):
        if all(submodule_intersect(submodule_colon(level(n + 1), a), level(c))
               == level(n) for n in range(c, c + window + 1)):
            return "verified", c
    return "inconclusive", None


@pytest.mark.parametrize("seed", range(10))
def test_series_window_matches_the_colon_window(seed):
    # linear Q, the first generator squared, and the first two squared
    # (off the graded route): the same verdict and start on every generator
    module, seq = random_instance(seed)
    g = seq.gens
    systems = [g, (g[0] ** 2,) + g[1:]]
    if seq.count >= 2:
        systems.append((g[0] ** 2, g[1] ** 2) + g[2:])
    for gens in systems:
        for a in gens:
            assert _windowed_superficial(a, module, gens) \
                == _colon_window(a, module, gens), \
                ([str(q) for q in gens], str(a))


def test_series_window_covers_every_outcome():
    # the draws above reach a start of 2 and an inconclusive window
    module, seq = random_instance(0)
    a = seq.gens[0]
    assert _windowed_superficial(a, module, seq.gens) == ("verified", 2)
    module, seq = random_instance(7)
    gens = (seq.gens[0] ** 2,) + seq.gens[1:]
    assert _windowed_superficial(gens[0], module, gens) \
        == ("inconclusive", None)


def test_verify_gb_catches_a_wrong_window_series(monkeypatch):
    # a kernel series that reads zero at every step: the window then
    # verifies an element the colons leave inconclusive, and --verify-gb
    # says so
    M, x, y = _skew_twist_module()
    assert _windowed_superficial(x, M, (x, y))[0] == "inconclusive"
    monkeypatch.setattr(invariants, "combine_series", lambda *parts: {})
    assert _windowed_superficial(x, M, (x, y)) == ("verified", 1)
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure, match="_windowed_superficial"):
            _windowed_superficial(x, M, (x, y))
    finally:
        set_debug_verification(False)


# -- annihilators -------------------------------------------------------------

def test_annihilator_series_matches_the_presented_colon():
    # (dimension, multiplicity) of (0 :_M a) read off the series, against
    # the presented colon, for every generator of every draw and, for
    # annihilators of positive dimension, every variable
    outcomes = set()
    for seed in range(40):
        module, seq = random_instance(seed)
        for a in seq.gens + tuple(module.algebra.variables()):
            presented = _presented_annihilator(a, module)
            got = _annihilator(a, module)
            assert got == (presented.dimension(), presented.degree()), \
                (seed, str(a))
            outcomes.add("positive" if got[0] > 0 else got[1] > 0)
    assert outcomes == {"positive", True, False}


def test_annihilation_by_membership_matches_the_annihilator():
    # on every Ext dual of every draw: the generators that act nonzero, by
    # membership of g·e_j, against membership in the built annihilator
    outcomes = []
    for seed in range(40):
        module, seq = random_instance(seed)
        for ds in dual_sections(module):
            ann = ds.module.annihilator()
            want = [g for g in seq.gens
                    if not ann.contains(poly_in_position(ann.ambient, g, 0))]
            got = _not_annihilating(seq.gens, ds.module)
            assert got == want, (seed, ds.index)
            outcomes.append(bool(got))
    assert True in outcomes and False in outcomes


def test_verify_gb_catches_a_wrong_annihilator_series(monkeypatch):
    # a colon series that calls y regular on k[x,y]/(x², xy), where
    # (0 : y) is spanned by x: the series says the zero module
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    assert _annihilator(y, A.cyclic_module()) == (0, 1)
    monkeypatch.setattr(modules, "colon_series",
                        lambda n, f, extended=None: hilbert_series(n))
    assert _annihilator(y, A.cyclic_module()) == (NEG_INF, 0)
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure, match="colon_quotient_series"):
            _annihilator(y, A.cyclic_module())
    finally:
        set_debug_verification(False)


@pytest.mark.parametrize("site", [
    lambda M, y: _annihilator(y, M),
    lambda M, y: _graded_superficial(y, M, (y,)),
    lambda M, y: check_prop38(M, (y,)),
], ids=["annihilator", "graded-superficial", "prop38-colon-defect"])
def test_verify_gb_catches_a_wrong_colon_quotient_series(monkeypatch, site):
    # a colon series that calls (N : y)/N zero on k[x,y]/(x², xy), where it
    # is spanned by x: each site that measures that quotient goes on
    # unchecked, and under --verify-gb the presented colon refutes it
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    monkeypatch.setattr(modules, "colon_series",
                        lambda n, f, extended=None: hilbert_series(n))
    site(A.cyclic_module(), y)
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure, match="colon_quotient_series"):
            site(A.cyclic_module(), y)
    finally:
        set_debug_verification(False)


def test_verify_gb_catches_a_wrong_annihilation_test(monkeypatch):
    # membership that holds for everything: y then seems to kill
    # k[x,y]/(x², xy), which the built annihilator (x², xy) refutes
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    assert _not_annihilating([x * x, y], M) == [y]
    monkeypatch.setattr(SubmoduleBasis, "contains_all",
                        lambda self, others: True)
    assert _not_annihilating([x * x, y], M) == []
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure, match="_not_annihilating"):
            _not_annihilating([x * x, y], M)
    finally:
        set_debug_verification(False)


# -- d-sequences --------------------------------------------------------------

def test_d_sequence_holds(line_with_spike):
    M, x, y = line_with_spike
    assert is_d_sequence(ParameterSequence(M, (y,))).holds


def test_d_sequence_fails_with_witness():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y * y])
    rep = is_d_sequence(ParameterSequence(A.cyclic_module(), (y,)))
    assert not rep.holds
    assert rep.violation == (1, 1)
    assert rep.witness is not None and "x" in rep.witness


def test_d_sequence_two_planes(two_planes):
    M, q = two_planes
    assert is_d_sequence(ParameterSequence(M, q)).holds


def test_find_d_sequence_identity_first(line_with_spike):
    M, x, y = line_with_spike
    found = find_d_sequence_generators((y,), M)
    assert found.gens == (y,)
    assert found.search_transcript[-1]["outcome"] == "accepted"
    assert found.search_transcript[-1]["matrices"] == "identity"


def test_find_d_sequence_budget_zero(line_with_spike):
    M, x, y = line_with_spike
    with pytest.raises(NotFoundWithinBudget) as err:
        find_d_sequence_generators((y,), M, budget=0)
    assert err.value.transcript == []


def test_find_d_sequence_deterministic(two_planes):
    M, q = two_planes
    a = find_d_sequence_generators(q, M, seed=5)
    b = find_d_sequence_generators(q, M, seed=5)
    assert a.gens == b.gens


def _colon_d_sequence(seq):
    # the colon test with both colons built for every pair, the form that
    # the Hilbert-series test replaced: its oracle, witness included
    m = seq.module
    for i in range(1, seq.count + 1):
        prefix = m.power_submodule(seq.prefix(i - 1))
        for j in range(i, seq.count + 1):
            ai, aj = seq.gens[i - 1], seq.gens[j - 1]
            lhs = submodule_colon(prefix, ai * aj)
            rhs = submodule_colon(prefix, aj)
            if lhs != rhs:
                witness = next((g for g in lhs.gb if rhs.normal_form(g)), None)
                return (False, (i, j), str(witness) if witness else None)
    return (True, None, None)


def test_d_sequence_series_matches_the_colons():
    # the same verdict, violating pair and witness, on systems that fail
    # and on systems that hold
    outcomes = []
    for seed in range(40):
        module, seq = random_instance(seed)
        g = seq.gens
        systems = [g, (g[0] ** 2,) + g[1:]]
        if seq.count >= 2:
            systems.append((g[0] ** 2, g[1] ** 2) + g[2:])
        for gens in systems:
            cand = ParameterSequence(module, gens)
            rep = is_d_sequence(cand)
            assert (rep.holds, rep.violation, rep.witness) \
                == _colon_d_sequence(cand), (seed, [str(q) for q in gens])
            outcomes.append(rep.holds)
    assert outcomes.count(False) >= 20 and outcomes.count(True) >= 20


def test_d_sequence_witness_needs_one_colon(monkeypatch):
    # a failing pair names its witness from the basis of P : a_i·a_j, with
    # one normal form of a_j·g per element g and no basis of P : a_j; the
    # witness is the one the two colons name, and under --verify-gb, which
    # builds both, the report is the same
    built = []
    colon = invariants.submodule_colon
    monkeypatch.setattr(invariants, "submodule_colon",
                        lambda n, f: built.append(f) or colon(n, f))
    failing = 0
    for seed in range(40):
        module, seq = random_instance(seed)
        cand = ParameterSequence(module, (seq.gens[0] ** 2,) + seq.gens[1:])
        built.clear()
        rep = is_d_sequence(cand)
        assert len(built) == (0 if rep.holds else 1)
        if rep.holds:
            continue
        failing += 1
        assert (rep.holds, rep.violation, rep.witness) \
            == _colon_d_sequence(cand), seed
        set_debug_verification(True)
        try:
            assert is_d_sequence(cand) == rep
        finally:
            set_debug_verification(False)
    assert failing >= 10


def test_verify_gb_catches_a_wrong_d_sequence_series(monkeypatch):
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y * y])
    seq = ParameterSequence(A.cyclic_module(), (y,))
    assert not is_d_sequence(seq).holds
    # every colon series alike: the failing pair looks like a d-sequence
    monkeypatch.setattr(invariants, "colon_series",
                        lambda n, f, within=None, extended=None: {0: 1})
    assert is_d_sequence(seq).holds
    set_debug_verification(True)
    try:
        with pytest.raises(CrossCheckFailure, match="is_d_sequence"):
            is_d_sequence(seq)
    finally:
        set_debug_verification(False)


# -- checkers -----------------------------------------------------------------

def test_prop38_line_with_spike(line_with_spike):
    M, x, y = line_with_spike
    rep = check_prop38(M, (y,))
    assert rep.passed
    assert rep.coefficients == (1, -1)


def test_prop38_rejects_non_d_sequence():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y * y])
    with pytest.raises(PreconditionViolation):
        check_prop38(A.cyclic_module(), (y,))


def test_prop38_two_planes(two_planes):
    M, q = two_planes
    rep = check_prop38(M, q)
    assert rep.passed
    assert rep.coefficients == (2, -1, 0)


def test_theorem34_regular_sequence():
    A, (x, y) = algebra("xy")
    rep = check_theorem34(A.cyclic_module(), (x, y))
    assert rep.equality and rep.condition2
    assert rep.lhs == rep.rhs == 0
    assert rep.covolume_defect == 0
    assert rep.passed


def test_theorem34_two_planes(two_planes):
    M, q = two_planes
    rep = check_theorem34(M, q)
    assert rep.equality
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.coefficient_rows == ((2, 0, 0),)
    assert rep.passed
    names = [c.name for c in rep.consequences]
    assert "d-sequence generators found" in names


def test_theorem34_embedded_line(plane_with_line):
    M, x, y, z = plane_with_line
    rep = check_theorem34(M, (y, z))
    assert rep.equality == rep.condition2
    assert rep.passed


def test_theorem34_needs_dimension_two(line_with_spike):
    M, x, y = line_with_spike
    with pytest.raises(PreconditionViolation):
        check_theorem34(M, (y,))


def suite_has_no_failures(checks):
    return all(c.status in ("pass", "skipped") for c in checks)


def test_inequality_suite_dimension_one(line_with_spike):
    M, x, y = line_with_spike
    checks = inequality_suite(M, (y,))
    assert suite_has_no_failures(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["genus vanishing matches the colon test"].status == "pass"


def test_inequality_suite_two_planes(two_planes):
    M, q = two_planes
    checks = inequality_suite(M, q)
    assert suite_has_no_failures(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["second coefficient sandwiched by the first torsion"
                   ].details == {"e1": -1, "torsion1": 1}


def test_inequality_suite_embedded_line(plane_with_line):
    M, x, y, z = plane_with_line
    checks = inequality_suite(M, (y, z))
    assert suite_has_no_failures(checks)
    statuses = {c.name: c.status for c in checks}
    assert statuses["degree defect equals the weighted section sum"] == "skipped"


def test_inequality_suite_split_summand():
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    M = S.direct_sum(S.quotient_by_ideal([x, y]))
    assert suite_has_no_failures(inequality_suite(M, (x, y)))


# -- QM and M/H⁰(M) off M's own duals -----------------------------------------

def _split_summand():
    # S ⊕ k over k[x,y]: dimension 2 with H⁰ = k
    A, (x, y) = algebra("xy")
    S = A.cyclic_module()
    M = S.direct_sum(S.quotient_by_ideal([x, y]))
    return M, ParameterSequence(M, [x, y])


def _plane_with_embedded_point():
    # k[x,y,z]/(x^2, xy, xz): dimension 2, H⁰ = (x)
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y,
                                   lambda x, y, z: x * z])
    M = A.cyclic_module()
    return M, ParameterSequence(M, [y, z])


def _example44(lm):
    seq = build_example44(*lm)[1]
    return seq.module, seq


_TWIN_CASES = ([(lambda s=s: random_instance(s)) for s in range(40)]
               + [lambda: _example44((2, 2)), lambda: _example44((3, 1)),
                  _split_summand, _plane_with_embedded_point])
_TWIN_IDS = ([f"random{s}" for s in range(40)]
             + ["example44-22", "example44-31", "split-summand",
                "embedded-point"])


@pytest.mark.parametrize("build", _TWIN_CASES, ids=_TWIN_IDS)
def test_finite_length_twin_matches_the_resolved_modules(build):
    # hdeg of QM, and hdeg and the first torsion of M/H⁰(M), read off M's
    # duals equal the values from resolving and dualizing each module
    module, seq = build()
    gens, d = seq.gens, seq.count
    assert (invariants.finite_length_twin(module, gens, "QM")
            == (reference_multiples_hdeg(module, gens), None))
    if d >= 2:
        assert (invariants.finite_length_twin(module, gens, "M/H0")
                == reference_sections_quotient_degrees(module, gens))


def test_finite_length_twin_cases_cover_every_path():
    # d = 1 and d >= 2, a D_1(QM) of finite length and one of positive
    # dimension (the one presented dual), H⁰(QM) zero and nonzero, and
    # M/H⁰(M) with H⁰(M) nonzero in dimension 2
    seen = set()
    for build in _TWIN_CASES:
        module, seq = build()
        n, d = module.algebra.ring.nvars, seq.count
        shape = [min(d, 2), bool(invariants._multiples_sections_series(
            module, seq.gens))]
        if d >= 2:
            qm = present_subquotient(
                module.algebra, module.ideal_multiples(list(seq.gens)),
                module.relations, module.ambient)
            shape.append(ext_module(qm, n - 1).dimension() > 0)
            shape.append(module.h0_length() > 0)
        seen.add(tuple(shape))
    assert {s[0] for s in seen} == {1, 2}
    assert {s[1] for s in seen if s[0] == 1} == {False, True}
    assert {s[2] for s in seen if s[0] == 2} == {False, True}
    assert {s[3] for s in seen if s[0] == 2} == {False, True}


@pytest.mark.parametrize("build", _TWIN_CASES, ids=_TWIN_IDS)
def test_hdeg_drops_by_the_finite_sections(build):
    # hdeg(M) = hdeg(M/H⁰M) + ℓ(H⁰M) for d >= 1 (Vasconcelos 1998), with
    # M/H⁰(M) resolved on its own
    module, seq = build()
    chopped = reference_sections_quotient_degrees(module, seq.gens)[0]
    assert hdeg(module, seq.gens) == chopped + module.h0_length()


def _shifted_sections(monkeypatch):
    # add t^3·(1-t)^n to the H⁰(QM) series: a wrong E_n(QM) of the right
    # length
    real = invariants._multiples_sections_series

    def wrong(module, gens):
        n = module.algebra.ring.nvars
        extra = {3 + k: (-1) ** k * binomial(n, k) for k in range(n + 1)}
        return invariants.combine_series((1, 0, real(module, gens)),
                                         (1, 0, extra))
    monkeypatch.setattr(invariants, "_multiples_sections_series", wrong)


def _longer_sections(monkeypatch):
    # ℓ(H) one too large
    real = invariants.series_length
    monkeypatch.setattr(invariants, "series_length",
                        lambda num, n: real(num, n) + 1)


@pytest.mark.parametrize("fault", [_shifted_sections, _longer_sections],
                         ids=["E_n", "length"])
@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify-gb"])
def test_verify_gb_catches_a_wrong_multiples_dual(monkeypatch, fault,
                                                  verify):
    # a plain run cannot tell; under --verify-gb QM is resolved too
    module, seq = random_instance(0)
    fault(monkeypatch)
    set_debug_verification(verify)
    try:
        if verify:
            with pytest.raises(CrossCheckFailure, match="finite_length_twin"):
                invariants.finite_length_twin(module, seq.gens, "QM")
        else:
            invariants.finite_length_twin(module, seq.gens, "QM")
    finally:
        set_debug_verification(False)


# -- the aggregate ------------------------------------------------------------

def test_invariant_report_line_with_spike(line_with_spike):
    M, x, y = line_with_spike
    rep = invariant_report(M, (y,))
    assert rep.dimension == 1
    assert rep.depth == 0
    assert rep.covolume == 2
    assert rep.coefficients == (1, -1)
    assert rep.sectional_genus == 0
    assert rep.chi1 == (1, 1)
    assert rep.hdeg == 2
    assert rep.torsions == ()
    assert rep.generalized_cm and rep.sv == 1
    assert rep.duals[0]["length"] == 1


def test_invariant_report_two_planes(two_planes):
    M, q = two_planes
    rep = invariant_report(M, q)
    assert rep.dimension == 2 and rep.depth == 1
    assert rep.coefficients == (2, -1, 0)
    assert rep.sectional_genus == 0
    assert rep.hdeg == 3 and rep.torsions == (1,)
    assert rep.sv == 1
    assert rep.duals[1]["length"] == 1


# -- the engine under a moving frame ------------------------------------------

@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=12, deadline=None)
def test_skewed_parameters_on_embedded_line(a, b):
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    M = A.cyclic_module()
    q = (y + x * a, z + x * b)
    c = module_coefficients(M, q)
    assert c.e == (1, -1, 0)
    assert euler_chi1(M, q) == (1, 1)
    assert hdeg(M, q) == 2
    assert sectional_genus(M, q) == 0
