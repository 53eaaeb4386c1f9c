"""Basis engine: reduction, pair filters, kernels, counting."""
from operator import mul

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genuslab import invariants, oracle
from genuslab.errors import (CrossCheckFailure, InfiniteLength,
                             PreconditionViolation)
from genuslab.groebner import (BuchbergerState, EXP_LIMIT, NEG_INF, Packing,
                               SubmoduleBasis, _hilbert_numerator,
                               count_standard_monomials, engine_run,
                               groebner_basis, hilbert_series, kernel_of_map,
                               quotient_dimension, quotient_hilbert_function,
                               quotient_total_length, series_dimension,
                               syzygies, verify_basis)
from genuslab.modules import GradedAlgebra
from genuslab.ring import (FreeElement, FreeModule, PolyRing, mono_divides,
                           mono_lcm, poly_in_position, poly_times_element)

from oracle_battery import run_battery
from reference import element_from_components


def ring2(p=7):
    return PolyRing(("x", "y"), p)


def ideal_basis(ring, polys):
    F = FreeModule(ring, (0,))
    return groebner_basis(F, [poly_in_position(F, f, 0) for f in polys])


def test_classic_ideal_basis():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    b = ideal_basis(R, [x * x, x * y + y * y])
    leads = [g.lead_term()[0][1] for g in b.gb]
    assert leads == [(1, 1), (2, 0), (0, 3)]  # xy < x^2 < y^3
    F = b.ambient
    assert poly_in_position(F, y ** 3, 0) in list(b.gb)
    assert b.contains(poly_in_position(F, x * x * y, 0))
    assert not b.contains(poly_in_position(F, y * y, 0))


def test_coprime_filter_only_for_ideals():
    # in rank 2 the coprime-leads shortcut is wrong: here y*g1 - x*g2 has a
    # lead in the second position that no generator lead divides
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0, 0))
    g1 = element_from_components(F, [x, y])
    g2 = element_from_components(F, [y, None])
    b = groebner_basis(F, [g1, g2])
    assert element_from_components(F, [None, y * y]) in list(b.gb)
    v = element_from_components(F, [None, y * y])
    assert oracle.membership(v, [g1, g2])
    verify_basis(b)


def test_truncated_run_is_complete_below_cutoff():
    R = PolyRing(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    F = FreeModule(R, (0,))
    gens = [poly_in_position(F, f, 0)
            for f in (x * x - y * z, x * y - z * z, y * y * y - x * z * z)]
    full = groebner_basis(F, gens)
    st_ = BuchbergerState(F, gens)
    st_.process(until=3)
    got = {g.lead_term()[0] for g in st_.basis}
    want = {g.lead_term()[0] for g in full.gb if g.degree <= 3}
    # every lead of degree <= 3 must already be covered by the truncated run
    from genuslab.ring import mono_divides
    for t in want:
        assert any(p == t[0] and mono_divides(e, t[1]) for (p, e) in got)


def test_syzygy_of_two_variables():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0,))
    gens = [poly_in_position(F, x, 0), poly_in_position(F, y, 0)]
    s = syzygies(F, gens)
    assert s.ambient.twists == (1, 1)
    assert len(s.gb) == 1
    u = s.gb[0]
    assert u.component(0) == -y and u.component(1) == x
    # the defining property, checked directly
    total = sum((poly_times_element(u.component(i), gens[i])
                 for i in range(2)), F.zero())
    assert total.is_zero


def test_kernel_with_relations_is_a_colon():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0,))
    rel = groebner_basis(F, [poly_in_position(F, x * x, 0)])
    col = poly_in_position(F, x, 0)
    k = kernel_of_map([col], [1], F, relations=rel)
    assert [g.component(0) for g in k.gb] == [x]


def test_kernel_generators_multiply_into_relations():
    R = PolyRing(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    F = FreeModule(R, (0, 0))
    rel = groebner_basis(F, [element_from_components(F, [x * x, None]),
                             element_from_components(F, [None, y * y])])
    cols = [element_from_components(F, [x, y]),
            element_from_components(F, [z, None]),
            element_from_components(F, [None, z])]
    k = kernel_of_map(cols, [c.degree for c in cols], F, relations=rel)
    assert k.gb  # the kernel is visibly nonzero: x^2*e1 etc. pull back
    for u in k.gb:
        total = F.zero()
        for i, c in enumerate(cols):
            total = total + poly_times_element(u.component(i), c)
        assert rel.contains(total)


def test_quotient_dimension_cases():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert quotient_dimension(ideal_basis(R, [x * x, x * y, y * y])) == 0
    assert quotient_dimension(ideal_basis(R, [x * x, x * y])) == 1
    assert quotient_dimension(ideal_basis(R, [])) == 2
    assert quotient_dimension(ideal_basis(R, [R.constant(1)])) == NEG_INF


def test_series_dimension_cases():
    assert series_dimension({}, 3) == (NEG_INF, 0)
    assert series_dimension({2: 0, 5: 0}, 3) == (NEG_INF, 0)
    assert series_dimension({0: 1}, 2) == (2, 1)  # k[x, y]
    assert series_dimension({0: 1}, 0) == (0, 1)  # k
    assert series_dimension({0: 1, 2: -1}, 2) == (1, 2)  # k[x, y]/(x^2)
    assert series_dimension({0: 1, 2: -2, 4: 1}, 2) == (0, 4)  # (x^2, y^2)
    assert series_dimension({-1: 1, 0: 1}, 1) == (1, 2)  # twists -1 and 0
    assert series_dimension({0: 1, 1: -3, 2: 3, 3: -1}, 3) == (0, 1)
    with pytest.raises(CrossCheckFailure):
        series_dimension({0: 1, 1: -1}, 0)  # 1 - t is no Hilbert series
    with pytest.raises(CrossCheckFailure):
        series_dimension({0: 1, 1: -2, 2: 1}, 1)  # (1 - t)^2 over (1 - t)


def monomial_basis(nvars, twists, leads_by_pos):
    F = FreeModule(PolyRing(tuple(f"v{i}" for i in range(nvars))), twists)
    return groebner_basis(F, [FreeElement(F, {(pos, e): 1})
                              for pos, leads in enumerate(leads_by_pos)
                              for e in leads])


def squares(n, k):
    return [tuple(2 if i == j else 0 for i in range(n)) for j in range(k)]


@pytest.mark.parametrize("n, k", [(17, 1), (17, 17), (20, 1), (20, 17),
                                  (20, 20)])
def test_wide_ring_closed_forms(n, k):
    # k of n variables squared: dimension n - k, and length 2^n for k = n;
    # there is no cap on the number of variables
    b = monomial_basis(n, (0,), [squares(n, k)])
    assert quotient_dimension(b) == n - k
    if k == n:
        assert quotient_total_length(b) == 2 ** n


def support_scan_dimension(nvars, leads_by_pos):
    """dim F/N for a monomial module: the most variables a subset can hold
    while no generator of some position is supported inside it."""
    best = NEG_INF
    for leads in leads_by_pos:
        masks = [sum(1 << i for i, a in enumerate(e) if a) for e in leads]
        if 0 in masks:
            continue  # a unit: this position contributes nothing
        for u in range(1 << nvars):
            if all(m & ~u for m in masks):
                best = max(best, bin(u).count("1"))
    return best


@st.composite
def monomial_modules(draw):
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 2))
    twists = tuple(draw(st.lists(st.integers(-2, 2), min_size=rank,
                                 max_size=rank)))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    leads = []
    for _ in range(rank):
        pos = draw(st.lists(exps, max_size=5))
        if draw(st.booleans()):
            pos.append((0,) * n)  # a unit, so the zero quotient occurs
        leads.append(pos)
    return n, twists, leads


@given(monomial_modules())
@settings(max_examples=200, deadline=None)
def test_quotient_dimension_against_support_scan(case):
    n, twists, leads = case
    b = monomial_basis(n, twists, leads)
    want = support_scan_dimension(n, leads)
    assert quotient_dimension(b) == want
    if want <= 0:
        top = 2 * n + 3  # every exponent is at most 2
        listed = sum(quotient_hilbert_function(b, t) for t in range(-3, top))
        assert quotient_total_length(b) == listed
    else:
        with pytest.raises(InfiniteLength):
            quotient_total_length(b)


def test_quotient_lengths():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert quotient_total_length(ideal_basis(R, [x * x, x * y, y * y])) == 3
    assert quotient_total_length(ideal_basis(R, [x * x, y * y])) == 4
    assert quotient_total_length(ideal_basis(R, [x * x, x * y + y * y])) == 4
    assert quotient_total_length(ideal_basis(R, [R.constant(1)])) == 0
    with pytest.raises(InfiniteLength):
        quotient_total_length(ideal_basis(R, [x * x, x * y]))


def test_twisted_counts():
    R = ring2()
    F = FreeModule(R, (0, 1))
    b = SubmoduleBasis.zero(F)
    assert quotient_hilbert_function(b, 0) == 1
    # x, y, and the twisted generator
    assert quotient_hilbert_function(b, 1) == 3
    assert quotient_hilbert_function(b, 2) == 5


def test_hilbert_function_against_oracle():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0,))
    gens = [poly_in_position(F, x * x, 0), poly_in_position(F, x * y + y * y, 0)]
    b = groebner_basis(F, gens)
    for t in range(7):
        assert (quotient_hilbert_function(b, t)
                == oracle.quotient_dimension_at(F, gens, t))


def test_count_standard_monomials_small_cases():
    assert count_standard_monomials([(2, 0), (1, 1), (0, 2)], 2, 2) == 0
    assert count_standard_monomials([(2, 0)], 2, 3) == 2  # xy^2 and y^3 survive
    assert count_standard_monomials([], 2, 4) == 5


@st.composite
def lead_sets(draw):
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return n, draw(st.lists(exps, max_size=6))


@given(lead_sets(), st.integers(0, 6),
       st.tuples(*[st.integers(1, 3)] * 4))
@settings(max_examples=150, deadline=None)
def test_count_standard_monomials_matches_listing(case, d, weights):
    # the Hilbert-numerator count against listing every monomial of degree
    # d, plain and with per-variable weights: the weighted numerator over
    # the product of the (1 - t^w_i), expanded up to t^d
    n, leads = case
    ring = PolyRing(tuple("xyzw"[:n]))
    listed = sum(1 for m in ring.monomials_of_degree(d)
                 if not any(mono_divides(e, m) for e in leads))
    assert count_standard_monomials(leads, n, d) == listed
    w = weights[:n]
    inverse = [1] + [0] * d
    for wi in w:
        for j in range(wi, d + 1):
            inverse[j] += inverse[j - wi]
    counted = sum(c * inverse[d - j]
                  for j, c in _hilbert_numerator(tuple(leads), n, w).items()
                  if j <= d)
    listed = sum(1 for k in range(d + 1) for m in ring.monomials_of_degree(k)
                 if sum(map(mul, m, w)) == d
                 and not any(mono_divides(e, m) for e in leads))
    assert counted == listed


def test_finite_colength_needs_a_series_that_ends(monkeypatch):
    # every weight slice of the graded route's tangent cone has finite
    # colength, so (1-t)^(n-b) divides each s-coefficient of the bigraded
    # numerator; one corrupted coefficient fails a plain run
    ring = ring2(32003)
    x, y = ring.variable(0), ring.variable(1)
    M = GradedAlgebra(ring, [x * x, x * y]).cyclic_module()
    assert invariants.hilbert_samuel_table(M, (y,), 3).values == (2, 3, 4, 5)
    real = invariants._hilbert_numerator

    def corrupted(leads, n, weights):
        num = dict(real(leads, n, weights))
        num[0] = num.get(0, 0) + 1
        return num

    monkeypatch.setattr(invariants, "_hilbert_numerator", corrupted)
    M = GradedAlgebra(ring, [x * x, x * y]).cyclic_module()
    with pytest.raises(CrossCheckFailure, match="does not end"):
        invariants.hilbert_samuel_table(M, (y,), 3)


def test_twisted_rank_two_length_against_oracle():
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = (R.variable(i) for i in range(3))
    F = FreeModule(R, (0, 2))
    gens = [element_from_components(F, [x ** 3, y]),
            element_from_components(F, [x * x * z, x - z]),
            element_from_components(F, [y * y + x * z, None]),
            element_from_components(F, [z ** 3, None]),
            element_from_components(F, [x ** 4, None]),
            element_from_components(F, [None, z * z])]
    b = groebner_basis(F, gens)
    assert quotient_dimension(b) == 0
    by_degree = [oracle.quotient_dimension_at(F, gens, t) for t in range(10)]
    assert by_degree[-2:] == [0, 0]
    assert sum(by_degree) > 0
    assert quotient_total_length(b) == sum(by_degree)


def test_verify_rejects_non_basis():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0,))
    fake = SubmoduleBasis(F, [poly_in_position(F, x * x, 0),
                              poly_in_position(F, x * y + y * y, 0)])
    with pytest.raises(CrossCheckFailure):
        verify_basis(fake)


def test_debug_verification_flag():
    with engine_run(verify=True):
        R = ring2()
        x, y = R.variable(0), R.variable(1)
        ideal_basis(R, [x * x - y * y, x * y])


def test_zero_and_full_cases():
    R = ring2()
    F = FreeModule(R, (0,))
    b = groebner_basis(F, [F.zero()])
    assert b.gb == ()
    assert b.contains(F.zero())
    assert not b.is_full()
    u = groebner_basis(F, [poly_in_position(F, R.constant(3), 0)])
    assert u.is_full()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_normal_form_properties(seed):
    import random
    rng = random.Random(seed)
    R = ring2(32003)
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0,))
    gens = [poly_in_position(F, x * x + y * y * rng.randrange(1, 7), 0),
            poly_in_position(F, x * y * rng.randrange(1, 7), 0)]
    b = groebner_basis(F, gens)
    terms = {(0, (i, 3 - i)): rng.randrange(0, 32003) for i in range(4)}
    from genuslab.ring import FreeElement
    v = FreeElement(F, terms)
    nf = b.normal_form(v)
    assert b.normal_form(nf) == nf
    assert b.contains(v - nf)
    assert oracle.membership(v - nf, gens)


def test_oracle_battery_smoke():
    assert run_battery(60, seed=20260822) >= 60


# -- the leaner core: kernel-only interreduction, carried leads, masks ------

def _kernel_by_full_basis(cols, col_twists, target, relations=None):
    # the reference route: a reduced basis of the whole big module, then
    # its tracking-block elements stripped down to the kernel's ambient
    ring = target.ring
    r = target.rank
    big = FreeModule(ring, tuple(target.twists) + tuple(col_twists),
                     elim_rank=r)
    elems = []
    for idx, col in enumerate(cols):
        terms = dict(col.terms)
        terms[(r + idx, ring.zero_exps())] = 1
        elems.append(FreeElement(big, terms))
    for rel in (relations.gb if relations is not None else ()):
        elems.append(FreeElement(big, dict(rel.terms)))
    small = FreeModule(ring, tuple(col_twists))
    kernel = [FreeElement(small, {(pos - r, e): c
                                  for (pos, e), c in g.terms.items()})
              for g in groebner_basis(big, elems).gb
              if all(pos >= r for pos, _ in g.terms)]
    kernel.sort(key=lambda g: small.term_key(g.lead_term()[0]))
    return kernel


def _random_relations(seed):
    from genuslab.corpus import random_instance
    module, _ = random_instance(seed)
    return module.relations


def _binomial_module():
    from genuslab.modules import GradedAlgebra
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = (R.variable(i) for i in range(3))
    return GradedAlgebra(R, []).cyclic_module().quotient_by_ideal(
        [x * y - y * z, x * x + y * z, x * y * y + z ** 3])


def _unequal_twist_module():
    from genuslab.modules import GradedAlgebra
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = (R.variable(i) for i in range(3))
    A = GradedAlgebra(R, [x * x, x * y])
    M = A.cyclic_module().direct_sum(
        A.cyclic_module(2).quotient_by_ideal([x, y * z]))
    assert M.twists == (0, 2)
    return M


@pytest.mark.parametrize("build", [
    lambda: _random_relations(0), lambda: _random_relations(5),
    lambda: _random_relations(10), lambda: _binomial_module().relations,
    lambda: _unequal_twist_module().relations,
], ids=["random0", "random5", "random10", "binomial", "unequal-twist-sum"])
def test_kernel_of_map_matches_full_basis_route(build):
    basis = build()
    # syzygies of the reduced basis used as generators
    cols = list(basis.gb)
    twists = [g.degree for g in cols]
    got = kernel_of_map(cols, twists, basis.ambient)
    assert list(got.gb) == _kernel_by_full_basis(cols, twists, basis.ambient)
    # and a kernel modulo the relations: the colon by every variable
    ring = basis.ambient.ring
    cols = [poly_in_position(basis.ambient, ring.variable(i), pos)
            for i in range(ring.nvars) for pos in range(basis.ambient.rank)]
    twists = [c.degree for c in cols]
    got = kernel_of_map(cols, twists, basis.ambient, relations=basis)
    assert got.gb
    assert list(got.gb) == _kernel_by_full_basis(cols, twists, basis.ambient,
                                                 relations=basis)


def test_verification_covers_the_kernel_run(monkeypatch):
    # --verify-gb re-checks the whole Buchberger run behind a kernel, not
    # only the kernel it leaves: with every pair skipped the syzygy
    # y*e1 - x*e2 is lost and the empty kernel left is a valid basis
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = FreeModule(R, (0,))
    cols = [poly_in_position(F, x, 0), poly_in_position(F, y, 0)]
    monkeypatch.setattr(BuchbergerState, "_chain_skip",
                        lambda self, i, j, lcm: True)
    assert not kernel_of_map(cols, [1, 1], F).gb
    with engine_run(verify=True):
        with pytest.raises(CrossCheckFailure):
            kernel_of_map(cols, [1, 1], F)


_R3 = PolyRing(("x", "y", "z"), 32003)
_ORDERS = [FreeModule(_R3, (0, 1)), FreeModule(_R3, (0, 1), elim_rank=1),
           FreeModule(_R3, (0, 1), tangent_block=2)]


@st.composite
def _elements(draw, ambient, degree):
    terms = {}
    for pos, twist in enumerate(ambient.twists):
        d = degree - twist
        if d < 0:
            continue
        monos = list(_R3.monomials_of_degree(d))
        for e in draw(st.lists(st.sampled_from(monos), max_size=4)):
            terms[(pos, e)] = draw(st.integers(1, 32002))
    return FreeElement(ambient, terms)


def _lead_is_fresh(g):
    return not g or g.lead_term()[0] == max(g.terms, key=g.ambient.term_key)


def _degree_is_fresh(g):
    return g.degree == FreeElement(g.ambient, dict(g.terms)).degree


@given(st.data(), st.sampled_from(range(len(_ORDERS))))
@settings(max_examples=60, deadline=None)
def test_carried_leads_match_recomputed(data, order):
    F = _ORDERS[order]
    gens = [data.draw(_elements(F, d)) for d in (2, 2, 3)]
    v = data.draw(_elements(F, 3))
    shift = data.draw(st.sampled_from(list(_R3.monomials_of_degree(2))))
    c = data.draw(st.integers(1, 32002))
    for g in gens + [v]:
        g.lead_term()  # carried from here on
        for h in (g.shifted(shift), g.shifted(shift, c), g.scale(c),
                  g.monic(), -g):
            assert _lead_is_fresh(h) and _degree_is_fresh(h)
    basis = groebner_basis(F, gens)
    for g in basis.gb:
        assert _lead_is_fresh(g) and _degree_is_fresh(g)
    for h in (basis.normal_form(v), BuchbergerState(F, gens).normal_form(v)):
        assert _lead_is_fresh(h) and _degree_is_fresh(h)
    state = BuchbergerState(F, gens + [v], build_pairs=False)
    for g in state.reduced_basis() + state.basis:
        assert _lead_is_fresh(g) and _degree_is_fresh(g)


@given(st.lists(st.tuples(st.integers(0, 1), st.lists(st.integers(0, 2),
                                                       min_size=5, max_size=5)),
                min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 1), st.lists(st.integers(0, 3),
                                                      min_size=5, max_size=5)),
                min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_guarded_find_reducer_is_the_first_divisor(leads, terms):
    R = PolyRing(tuple("abcde"), 32003)
    F = FreeModule(R, (0, 0))
    st_ = BuchbergerState(F, [], build_pairs=False)
    pack = st_.pk.pack
    for pos, e in leads:
        lead = pack((pos, tuple(e)))
        st_._append(lead, {lead: 1})
    for pos, e in terms:
        e = tuple(e)
        plain = next((i for i, g in enumerate(st_.basis)
                      if g.lead_term()[0][0] == pos
                      and mono_divides(g.lead_term()[0][1], e)), None)
        assert st_.find_reducer(pack((pos, e))) == plain


# -- packed terms --------------------------------------------------------------

_R4 = PolyRing(tuple("xyzw"), 32003)


@st.composite
def _packed_orders(draw):
    """The three kinds of order in _ORDERS, over four variables, with drawn
    twists (negative ones included), tangent blocks and weights 1-3."""
    twists = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    kind = draw(st.sampled_from(["degrevlex", "elimination", "tangent"]))
    if kind == "elimination":
        return FreeModule(_R4, twists, elim_rank=draw(st.integers(1, 2)))
    if kind == "tangent":
        return FreeModule(_R4, twists, tangent_block=draw(st.integers(1, 3)),
                          tangent_weight=draw(st.integers(1, 3)))
    return FreeModule(_R4, twists)


_TERMS = st.lists(st.tuples(st.integers(0, 2),
                            st.tuples(*[st.integers(0, 3)] * 4)),
                  min_size=2, max_size=30, unique=True)


@settings(max_examples=80, deadline=None)
@given(_packed_orders(), _TERMS, st.tuples(*[st.integers(0, 3)] * 4))
def test_packed_terms_follow_term_key(F, terms, s):
    pk = Packing(F)
    pack = pk.pack
    # the integer order is the term order
    assert (sorted(terms, key=F.term_key) == sorted(terms, key=pack))
    for pos, e in terms:
        t = (pos, e)
        assert pk.term(pack(t)) == t
        # multiplying by x^s adds delta(s), the same at every position
        shifted = (pos, tuple(a + b for a, b in zip(e, s)))
        assert pack(shifted) == pack(t) + sum(a * d for a, d in zip(s, pk.delta))
    # the guarded subtraction is divisibility at one position, and the
    # packed lcm of two terms there is the lcm of their exponents
    for lead in terms:
        for t in terms:
            if lead[0] == t[0]:
                guarded = (pk.guarded(pack(lead)) - pack(t)) & pk.guard
                assert (guarded == pk.guard) == mono_divides(lead[1], t[1])
                lcm = mono_lcm(lead[1], t[1])
                assert pk.lcm(pack(lead), pack(t)) == (
                    pack((lead[0], lcm)), sum(lcm) - sum(lead[1]))


def test_packing_refuses_degrees_past_its_fields():
    F = FreeModule(_R4, (0, -3))
    x = _R4.variable(0)
    # the run may reach position 1, where a term of this twisted degree has
    # a monomial three degrees higher
    ok = poly_in_position(F, x ** (EXP_LIMIT - 3), 0)
    assert groebner_basis(F, [ok]).gb[0].terms == ok.terms
    over = poly_in_position(F, x ** (EXP_LIMIT - 2), 0)
    with pytest.raises(PreconditionViolation, match=str(EXP_LIMIT)):
        groebner_basis(F, [over])
    # a pair whose S-polynomial would pass the limit stops the run before
    # it is built, though both generators pack
    y, z, w = (_R4.variable(i) for i in (1, 2, 3))
    G = FreeModule(_R4, (0,))
    half = EXP_LIMIT // 2 + 1
    gens = [poly_in_position(G, x ** half * y + z ** (half + 1), 0),
            poly_in_position(G, x * y ** half + w ** (half + 1), 0)]
    with pytest.raises(PreconditionViolation, match="packed-term limit"):
        groebner_basis(G, gens)


# -- the Hilbert series memo ---------------------------------------------------

def test_hilbert_series_copy_can_be_changed_by_the_caller():
    ring = ring2()
    x, y = ring.variable(0), ring.variable(1)
    basis = ideal_basis(ring, [x * x, x * y])
    first = hilbert_series(basis)
    assert first == {0: 1, 2: -2, 3: 1}
    first[0] = 99
    first.clear()
    assert hilbert_series(basis) == {0: 1, 2: -2, 3: 1}
    assert hilbert_series(basis) is not hilbert_series(basis)


def test_equal_bases_built_apart_read_equal_series():
    ring = PolyRing(("x", "y", "z"), 32003)
    x, y, z = (ring.variable(i) for i in range(3))
    one = ideal_basis(ring, [x * y - z * z, x * x])
    two = ideal_basis(ring, [x * x, (x * y - z * z).scale(5), x * x * z])
    assert one == two and one is not two
    assert hilbert_series(one) == hilbert_series(two)
    F = FreeModule(ring, (0, 1))
    gens = [poly_in_position(F, x * z, 0) + poly_in_position(F, y, 1),
            poly_in_position(F, z, 1)]
    assert hilbert_series(groebner_basis(F, gens)) == hilbert_series(
        groebner_basis(F, gens[::-1]))
