"""Homological layer: resolutions, duals, depth, Koszul homology."""
import random

import pytest

from genuslab import groebner, homology, modules, oracle
from genuslab.corpus import build_example42, build_example44, random_instance
from genuslab.errors import CrossCheckFailure, ZeroModule
from genuslab.groebner import (SubmoduleBasis, groebner_basis, kernel_of_map,
                               syzygies)
from genuslab.homology import (FreeComplex, depth, dual_sections,
                               ext_module, free_resolution, koszul_complex,
                               koszul_homology_lengths, minimal_generators,
                               minimal_presentation, projective_dimension)
from genuslab.modules import (GradedAlgebra, GradedModule, ParameterSequence,
                              echelon_insert, present_subquotient,
                              submodule_colon, zero_module)
from genuslab.ring import (FreeElement, FreeModule, Polynomial, PolyRing,
                           poly_in_position, poly_times_element)

from reference import (ext_cycles_and_boundaries, reference_ext_module,
                       reference_minimal_presentation,
                       reference_present_subquotient,
                       verify_resolution_exactness)


def algebra(names, relations=(), p=32003):
    ring = PolyRing(tuple(names), p)
    xs = [ring.variable(i) for i in range(ring.nvars)]
    return GradedAlgebra(ring, [rel(*xs) for rel in relations]), xs


def residue_field(algebra_obj):
    return algebra_obj.cyclic_module().quotient_by_ideal(
        algebra_obj.variables())


# -- resolutions --------------------------------------------------------------

def test_resolution_of_residue_field_two_vars():
    A, _ = algebra("xy")
    k = residue_field(A)
    res = free_resolution(k)
    assert res.betti_numbers() == (1, 2, 1)
    assert projective_dimension(k) == 2
    assert res.spots[1].twists == (1, 1)
    assert res.spots[2].twists == (2,)
    verify_resolution_exactness(res, 6)


def test_resolution_of_residue_field_three_vars():
    A, _ = algebra("xyz")
    k = residue_field(A)
    assert free_resolution(k).betti_numbers() == (1, 3, 3, 1)
    verify_resolution_exactness(free_resolution(k), 6)


def test_resolution_of_free_module_has_length_zero():
    A, _ = algebra("xy")
    M = GradedModule(A, (0, -1), [])
    res = free_resolution(M)
    assert res.length == 0
    assert res.betti_numbers() == (2,)


def test_resolution_prunes_redundant_generators():
    # F^2 modulo (e0 - e1) is free of rank one
    A, (x, y) = algebra("xy")
    F = FreeModule(A.ring, (0, 0))
    e0, e1 = F.generator(0), F.generator(1)
    M = GradedModule(A, (0, 0), [e0 - e1])
    assert free_resolution(M).betti_numbers() == (1,)
    assert depth(M) == 2


def test_minimal_presentation_eliminates_unit_entries():
    A, (x, y) = algebra("xy")
    F = FreeModule(A.ring, (0, 1))
    rel = poly_in_position(F, x, 0) + F.generator(1)
    M = GradedModule(A, (0, 1), [rel])
    mp = minimal_presentation(M)
    assert mp.twists == (0,)
    assert not mp.relations.gb


def test_minimal_presentation_ignores_term_insertion_order():
    # e0 + e1 has two unit entries; deleting e0 leaves x*e2 - y*e1 as
    # (-y, x), deleting e1 would leave it as (y, x).  The order, not the
    # history of the terms dict, must pick e0.
    A, _ = algebra("xy")
    F = FreeModule(A.ring, (0, 0, 0))
    one, x, y = (0, 0), (1, 0), (0, 1)
    other = FreeElement(F, {(2, x): 1, (1, y): -1})
    got = []
    for order in (((0, one), (1, one)), ((1, one), (0, one))):
        unit = FreeElement(F, {t: 1 for t in order})
        assert list(unit.terms) == list(order)
        M = GradedModule(A, (0, 0, 0), SubmoduleBasis(F, (unit, other)),
                         relations_complete=True)
        mp = minimal_presentation(M)
        assert mp.twists == (0, 0)
        got.append([g.terms for g in mp.relations.gb])
    assert got[0] == got[1] == [{(1, x): 1, (0, y): A.ring.prime - 1}]


def _three_deletions_module():
    """Six generators over k[x,y].  The relations carry a unit entry at
    position 1, two at positions 2 and 4, and two at positions 0 and 5, so
    three generators go.  Each deletion moves the later positions down, and
    which of two unit entries goes changes the presentation."""
    A, (x, y) = algebra("xy")
    F = FreeModule(A.ring, (0, 1, 1, 0, 1, 0))
    e = [F.generator(i) for i in range(6)]
    rels = [e[1] - poly_in_position(F, x, 0),
            e[2] + e[4] - poly_in_position(F, y, 3),
            e[5] - e[0],
            poly_in_position(F, x, 2) - poly_in_position(F, y, 4),
            poly_in_position(F, x * x, 3) - poly_in_position(F, y, 1)]
    return GradedModule(A, F.twists, rels)


def _assert_presentations_match(monkeypatch, run):
    """Every minimal_presentation call that run() makes gives the twists
    and relation basis of the per-round reference."""
    calls = []
    real = homology.minimal_presentation

    def recording(module):
        out = real(module)
        calls.append((module, out))
        return out

    monkeypatch.setattr(homology, "minimal_presentation", recording)
    run()
    assert calls
    for module, got in calls:
        want = reference_minimal_presentation(module)
        assert got.twists == want.twists
        assert got.relations == want.relations
    return calls


def test_minimal_presentation_renumbers_after_three_deletions(monkeypatch):
    M = _three_deletions_module()
    [(_, mp)] = _assert_presentations_match(
        monkeypatch, lambda: homology.minimal_presentation(M))
    assert M.rank - mp.rank >= 3
    assert (mp.dimension(), mp.degree()) == (M.dimension(), M.degree())


def _assert_ext_matches_the_reference(module):
    """Every ext_module(module, i) has the twists and relation basis of the
    route it replaced: all of ker d_i^T presented over im d_(i-1)^T, then
    unit elimination."""
    for i in range(module.algebra.ring.nvars + 1):
        got, want = ext_module(module, i), reference_ext_module(module, i)
        assert got.twists == want.twists
        assert got.relations == want.relations


@pytest.mark.parametrize("seed", range(40))
def test_minimal_presentation_matches_the_reference_on_ext(seed):
    _assert_ext_matches_the_reference(random_instance(seed)[0])


@pytest.mark.parametrize("lm", [(2, 2), (3, 1)], ids=["22", "31"])
def test_minimal_presentation_matches_the_reference_on_example44_duals(lm):
    # the module's Ext modules, and those of each of its duals
    module = build_example44(*lm)[1].module
    _assert_ext_matches_the_reference(module)
    for ds in dual_sections(module):
        _assert_ext_matches_the_reference(ds.module)


def test_presentation_tries_the_last_gen_of_a_degree_first():
    # Z = <e1, a, b> with a = e2 and b = e2 + x·e1 in F = S ⊕ S(-1) over
    # k[x,y], B = <y·e2>: a and b have degree 1 and agree modulo m·Z, so one
    # of them is picked.  The route the picks replaced eliminates the first
    # unit position, a, and keeps b; trying a first would present on a,
    # with the relation y·e_a in place of y·e_b - xy·e_1
    A, (x, y) = algebra("xy")
    F = FreeModule(A.ring, (0, 1))
    e1, a = F.generator(0), F.generator(1)
    gens = [e1, a, a + poly_times_element(x, e1)]
    bottom = groebner_basis(F, [poly_times_element(y, a)])
    got = present_subquotient(A, gens, bottom, F)
    want = reference_minimal_presentation(
        reference_present_subquotient(A, gens, bottom, F))
    assert got.twists == want.twists == (0, 1)
    assert got.relations == want.relations


def test_verify_compositions_rejects_maps_that_do_not_compose_to_zero():
    A, (x, y) = algebra("xy")
    ring = A.ring
    F0, F1, F2 = (FreeModule(ring, (d,)) for d in (0, 1, 2))
    bad = FreeComplex([F0, F1, F2], [[poly_in_position(F0, x, 0)],
                                     [poly_in_position(F1, y, 0)]])
    with pytest.raises(CrossCheckFailure):
        bad.verify_compositions()
    koszul = koszul_complex(ParameterSequence(A.cyclic_module(), [x, y]))
    koszul.verify_compositions()


def test_exactness_verifier_rejects_truncation():
    A, _ = algebra("xy")
    k = residue_field(A)
    res = free_resolution(k)
    chopped = FreeComplex(res.spots[:2], res.diffs[:1])
    with pytest.raises(CrossCheckFailure):
        verify_resolution_exactness(chopped, 6)


# -- minimal generators -------------------------------------------------------

def _example42_relations():
    _, module, _ = build_example42(3)
    return module.relations


def _unequal_twist_module():
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    M = A.cyclic_module().direct_sum(
        A.cyclic_module(2).quotient_by_ideal([x, y * z]))
    assert M.twists == (0, 2)
    return M


def _unequal_twist_relations():
    return _unequal_twist_module().relations


def _random_relations(seed):
    module, _ = random_instance(seed)
    return module.relations


def _binomial_module():
    # its relations are a reduced basis of 6 elements over 3 minimal
    # generators; the two degree-3 elements have nonzero but proportional
    # normal forms modulo mN, so only the first of them is picked
    A, (x, y, z) = algebra("xyz")
    return A.cyclic_module().quotient_by_ideal(
        [x * y - y * z, x * x + y * z, x * y * y + z ** 3])


def _binomial_relations():
    return _binomial_module().relations


def _seeded_binomial_module(seed):
    # k[x,y,z] modulo three or four random homogeneous binomials of degree
    # 2 or 3
    rng = random.Random(seed)
    A, _ = algebra("xyz")
    ring = A.ring
    binomials = []
    for _ in range(rng.choice((3, 4))):
        first, second = rng.sample(
            list(ring.monomials_of_degree(rng.choice((2, 2, 3)))), 2)
        binomials.append(Polynomial(ring, {
            first: 1, second: rng.randrange(1, ring.prime)}))
    return A.cyclic_module().quotient_by_ideal(binomials)


def _syzygies_of(build):
    # the syzygies of a reduced basis used as generators, so the syzygy
    # module carries redundant S-pair syzygies
    basis = build()
    return syzygies(basis.ambient, basis.gb)


def _ext_pair(build, i):
    # (Z, B) at spot i of the dualized resolution, as ext_module builds them
    return lambda: ext_cycles_and_boundaries(build(), i)[:2]


@pytest.mark.parametrize("build", [
    lambda: _random_relations(0), lambda: _random_relations(5),
    lambda: _random_relations(10), _example42_relations,
    _unequal_twist_relations, _binomial_relations,
    lambda: _syzygies_of(lambda: _random_relations(0)),
    lambda: _syzygies_of(_binomial_relations),
    _ext_pair(lambda: random_instance(0)[0], 1),
    _ext_pair(lambda: random_instance(0)[0], 2),
    _ext_pair(lambda: build_example42(2)[1], 1),
    _ext_pair(lambda: build_example44(2, 2)[1].module, 1),
    _ext_pair(lambda: build_example44(2, 2)[1].module, 2),
], ids=["random0", "random5", "random10", "example42-3", "unequal-twist-sum",
        "binomial", "syzygies-random0", "syzygies-binomial", "ext1-random0",
        "ext2-random0", "ext1-example42-2", "ext1-example44-22",
        "ext2-example44-22"])
def test_minimal_generators_against_the_oracle(build):
    # in every degree t the picks are a basis of Z_t / (mZ + B)_t, by dense
    # linear algebra, and together with B they regenerate Z.  B is zero for
    # a submodule's own basis, which minimal_generators picks from; for the
    # cycles Z of a dualized resolution B is the boundaries, and two of the
    # cases are zero duals, Z = B
    built = build()
    if isinstance(built, SubmoduleBasis):
        gens, bottom = list(built.gb), SubmoduleBasis.zero(built.ambient)
        picked = minimal_generators(built)
    else:
        gens, bottom = built
        picked = modules.minimal_picks(gens, bottom)
    ambient = bottom.ambient
    ring = ambient.ring
    b = list(bottom.gb)
    mz = [poly_times_element(ring.variable(i), g)
          for i in range(ring.nvars) for g in gens]
    degrees = [g.degree for g in gens]
    for t in range(min(degrees), max(degrees) + 1):
        assert (sum(1 for g in picked if g.degree == t)
                == oracle.span_dimension(ambient, gens + b, t)
                - oracle.span_dimension(ambient, mz + b, t))
    assert (groebner_basis(ambient, picked + b)
            == groebner_basis(ambient, gens + b))


def test_example44_41_betti_numbers():
    _, seq = build_example44(4, 1)
    assert (free_resolution(seq.module).betti_numbers()
            == (1, 16, 48, 68, 56, 28, 8, 1))


def test_minimal_generators_cross_check_under_verify_gb(monkeypatch):
    basis = _unequal_twist_relations()
    want = minimal_generators(basis)
    monkeypatch.setattr(groebner, "_DEBUG_VERIFY", True)
    assert groebner.debug_verification_enabled()
    assert minimal_generators(basis) == want
    # picks that do not regenerate the submodule trip the cross-check
    monkeypatch.setattr(modules, "BuchbergerState", _NoPicks)
    with pytest.raises(CrossCheckFailure):
        minimal_generators(basis)


class _NoPicks(groebner.BuchbergerState):
    # every insertion that decides a pick reports nothing new, so nothing is
    # picked
    def insert(self, v):
        return False


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify-gb"])
@pytest.mark.parametrize("present", ["ext_module", "minimal_presentation"])
def test_presentations_cross_check_under_verify_gb(monkeypatch, present,
                                                   verify):
    # with no picks, a nonzero Ext module and a module with unit entries
    # both come out as the zero module: a plain run cannot tell, and
    # --verify-gb finds that the picks do not regenerate the module
    if present == "ext_module":
        assert not ext_module(random_instance(0)[0], 2).is_zero()
        module = random_instance(0)[0]
        free_resolution(module)  # resolved before the fault
        run = lambda: ext_module(module, 2)
    else:
        module = _three_deletions_module()
        run = lambda: minimal_presentation(module)
        assert not run().is_zero()
    monkeypatch.setattr(modules, "BuchbergerState", _NoPicks)
    monkeypatch.setattr(groebner, "_DEBUG_VERIFY", verify)
    if verify:
        with pytest.raises(CrossCheckFailure, match="regenerate"):
            run()
    else:
        assert run().is_zero()


# -- exactness -----------------------------------------------------------------

@pytest.mark.parametrize("build", [
    _binomial_module, _unequal_twist_module,
    *[(lambda s=s: _seeded_binomial_module(s)) for s in range(6)],
], ids=["binomial", "unequal-twist-sum",
        *[f"seeded-binomial{s}" for s in range(6)]])
def test_resolution_exact_by_the_dense_verifier(build):
    # non-monomial relations: the dense degreewise check one degree past
    # every twist of the resolution
    res = free_resolution(build())
    top = max(t for spot in res.spots for t in spot.twists)
    verify_resolution_exactness(res, top + 1)


def test_resolution_checks_the_euler_characteristic(monkeypatch):
    # one pick dropped: d∘d = 0 still holds on the shorter complex, but its
    # graded Euler characteristic no longer matches the Hilbert series
    A, _ = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    assert free_resolution(A.cyclic_module()).betti_numbers() == (1, 2, 1)
    picks = homology.minimal_generators
    dropped = []

    def drop_one(basis):
        got = picks(basis)
        if got and not dropped:
            dropped.append(got.pop())
        return got

    monkeypatch.setattr(homology, "minimal_generators", drop_one)
    with pytest.raises(CrossCheckFailure, match="Euler characteristic"):
        free_resolution(A.cyclic_module())
    assert dropped


# -- differential: the decisions against the routines they replaced ----------

def _mn_echelon_picks(basis):
    """The picker minimal_generators replaced: one degree-truncated basis of
    mN, then one echelon per degree of the normal forms modulo mN."""
    if not basis.gb:
        return []
    ambient = basis.ambient
    ring = ambient.ring
    top = max(g.degree for g in basis.gb)
    mn = groebner.BuchbergerState(ambient, [
        poly_times_element(ring.variable(i), g)
        for i in range(ring.nvars) for g in basis.gb if g.degree < top])
    mn.process(until=top)
    by_degree = {}
    for g in sorted(basis.gb,
                    key=lambda g: (g.degree, ambient.term_key(g.lead_term()[0]))):
        by_degree.setdefault(g.degree, []).append((g, mn.normal_form(g)))
    picked = []
    for pairs in by_degree.values():
        columns = sorted({t for _, nf in pairs for t in nf.terms},
                         key=ambient.term_key, reverse=True)
        echelon = []
        for g, nf in pairs:
            if echelon_insert(echelon, [nf.terms.get(t, 0) for t in columns],
                              ring.prime):
                picked.append(g)
    return picked


def _colon_h0(module):
    """The plain colon iteration h0_submodule replaced: (N : m), (N : m²),
    ... as kernels, to the fixed point."""
    mgens = module.algebra.variables()
    u = module.relations
    while True:
        v = submodule_colon(u, mgens)
        if v == u:
            return u
        u = v


def _terms(elems):
    return [g.terms for g in elems]


def _assert_decisions_match(module):
    assert module.h0_submodule() == _colon_h0(module)
    # every step of the resolution: its picks from the kernel before it
    res = free_resolution(module)
    current = minimal_presentation(module).relations
    for k, cols in enumerate(res.diffs):
        assert _terms(_mn_echelon_picks(current)) == _terms(cols)
        current = kernel_of_map(cols, [c.degree for c in cols], res.spots[k])
    assert _mn_echelon_picks(current) == []


@pytest.mark.parametrize("build", [
    *[(lambda s=s: random_instance(s)[0]) for s in range(40)],
    lambda: build_example42(2)[1], _unequal_twist_module,
], ids=[*[f"random{s}" for s in range(40)], "example42-2", "unequal-twist"])
def test_h0_and_picks_match_the_replaced_routines(build):
    # the module and every Ext dual of its dual_sections
    module = build()
    _assert_decisions_match(module)
    for ds in dual_sections(module):
        _assert_decisions_match(ds.module)


def _counting_colons(monkeypatch):
    calls = []
    real = modules.submodule_colon

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(modules, "submodule_colon", counted)
    return calls


def test_h0_falls_back_to_the_colon_when_the_sum_of_variables_kills(
        monkeypatch):
    # x + y kills k[x,y]/(x + y), which still has depth 1: the series test
    # fails, and the one colon finds no finite-length sections
    A, (x, y) = algebra("xy", [lambda x, y: x + y])
    M = A.cyclic_module()
    calls = _counting_colons(monkeypatch)
    assert M.h0_submodule() == M.relations
    assert len(calls) == 1
    assert M.h0_length() == 0


def test_h0_with_a_deeper_socle_takes_two_colons(monkeypatch):
    # (N : m) and (N : m²) are both built, and the sum of the variables
    # then certifies the fixed point without a third colon
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y * y])
    M = A.cyclic_module()
    calls = _counting_colons(monkeypatch)
    assert M.h0_submodule() == _colon_h0(M)
    assert len(calls) == 2
    assert M.h0_length() == 2


def test_h0_over_a_ring_without_variables():
    A, _ = algebra("")
    M = A.cyclic_module().direct_sum(A.cyclic_module(1))
    assert M.h0_submodule() == _colon_h0(M)
    assert M.h0_length() == M.total_length() == 2


def test_h0_series_test_cross_check_under_verify_gb(monkeypatch):
    # a colon series that wrongly calls x + y regular certifies N as the
    # fixed point, although k[x,y]/(x², xy) has the socle element x
    A, _ = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    monkeypatch.setattr(modules, "colon_series",
                        lambda n, f: groebner.hilbert_series(n))
    monkeypatch.setattr(groebner, "_DEBUG_VERIFY", True)
    with pytest.raises(CrossCheckFailure, match="h0_submodule"):
        A.cyclic_module().h0_submodule()


# -- ext ----------------------------------------------------------------------

def test_ext_of_residue_field():
    A, _ = algebra("xy")
    k = residue_field(A)
    top = ext_module(k, 2)
    assert top.total_length() == 1
    assert ext_module(k, 0).is_zero()
    assert ext_module(k, 1).is_zero()
    assert ext_module(k, 5).is_zero()


def test_ext_of_free_module_vanishes_positively():
    A, _ = algebra("xy")
    M = GradedModule(A, (0, -1), [])
    hom = ext_module(M, 0)
    assert hom.rank == 2 and not hom.relations.gb
    assert ext_module(M, 1).is_zero()
    assert ext_module(M, 2).is_zero()


def test_ext_duality_lengths_in_dimension_zero():
    # for finite length over two variables, the top ext has the same length
    A, (x, y) = algebra("xy")
    M = A.cyclic_module().quotient_by_ideal([x * x, x * y, y * y])
    assert M.total_length() == 3
    assert ext_module(M, 2).total_length() == 3
    assert ext_module(M, 1).is_zero()


# -- dual sections and depth --------------------------------------------------

def test_dual_sections_of_shallow_cyclic():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    duals = dual_sections(M)
    assert [d.index for d in duals] == [0]
    assert duals[0].finite_length
    assert duals[0].module.total_length() == 1  # the socle element x
    assert M.h0_length() == 1


def test_dual_sections_of_finite_length_module_are_empty():
    A, _ = algebra("xy")
    assert dual_sections(residue_field(A)) == []


def test_depth_examples():
    A, _ = algebra("xy")
    assert depth(A.cyclic_module()) == 2
    free_plus_point = A.cyclic_module().direct_sum(residue_field(A))
    assert depth(free_plus_point) == 0

    B, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    assert depth(B.cyclic_module()) == 0

    C, (x, y) = algebra("xy", [lambda x, y: x * x])
    assert depth(C.cyclic_module()) == 1  # y stays regular

    with pytest.raises(ZeroModule):
        depth(zero_module(A))


def test_dual_section_dimensions_bounded_by_index():
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * y, lambda x, y, z: x * z])
    M = A.cyclic_module()  # union of a plane and a line
    for d in dual_sections(M):
        dim = d.module.dimension()
        assert dim <= d.index


# -- koszul -------------------------------------------------------------------

def test_koszul_complex_shape_and_signs():
    A, (x, y, z) = algebra("xyz")
    M = A.cyclic_module()
    seq = ParameterSequence(M, [x, y, z])
    cx = koszul_complex(seq)
    assert cx.betti_numbers() == (1, 3, 3, 1)
    assert [f.twists for f in cx.spots] == [(0,), (1, 1, 1), (2, 2, 2), (3,)]
    # first differential lists the sequence itself
    assert [str(col) for col in cx.diffs[0]] == ["(x)", "(y)", "(z)"]
    # middle spot: d(e_{01}) = a_0 e_1 - a_1 e_0
    col = cx.diffs[1][0]
    assert col.component(0) == -y and col.component(1) == x


def test_koszul_homology_of_regular_sequence():
    A, (x, y) = algebra("xy")
    M = A.cyclic_module()
    seq = ParameterSequence(M, [x, y])
    assert koszul_homology_lengths(seq) == [1, 0, 0]


def test_koszul_homology_matches_annihilator_in_dimension_one():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    seq = ParameterSequence(M, [y])
    lengths = koszul_homology_lengths(seq)
    assert lengths == [2, 1]  # covolume 2; (0 : y) is spanned by x
    assert seq.covolume() == 2


def test_koszul_spot_zero_is_the_modules_power_submodule(monkeypatch):
    # B_0 = N + QF comes from the module's memoized power_submodule; under
    # --verify-gb a wrong one is caught against the complex
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    seq = ParameterSequence(M, [y])
    groebner.set_debug_verification(True)
    try:
        assert koszul_homology_lengths(seq) == [2, 1]
        monkeypatch.setattr(M, "power_submodule",
                            lambda polys, k=1: M.submodule_with(
                                M.ideal_multiples([y * y])))
        with pytest.raises(CrossCheckFailure, match="B_0"):
            koszul_homology_lengths(seq)
    finally:
        groebner.set_debug_verification(False)


def test_koszul_homology_empty_sequence_is_the_module():
    A, (x, y) = algebra("xy")
    M = residue_field(A)
    seq = ParameterSequence(M, [])
    assert koszul_homology_lengths(seq) == [1]


def _presented_koszul_lengths(seq):
    # each H_i presented from the kernel Z_i over the boundaries B_i, the
    # form that the Hilbert-series lengths replaced: their oracle
    m = seq.module
    cx = koszul_complex(seq)
    r = m.rank

    def blocks(spot):
        return [FreeElement(spot, {(blk * r + pos, e): c
                                   for (pos, e), c in g.terms.items()},
                            _checked=True)
                for blk in range(spot.rank // r) for g in m.relations.gb]

    lengths = []
    for i, spot in enumerate(cx.spots):
        if i == 0:
            top = [spot.generator(b) for b in range(spot.rank)]
        else:
            top = [FreeElement(spot, dict(g.terms), _checked=True)
                   for g in groebner.kernel_of_map(
                       cx.diffs[i - 1], list(spot.twists), cx.spots[i - 1],
                       relations=blocks(cx.spots[i - 1])).gb]
        bottom = groebner_basis(spot, (list(cx.diffs[i]) if i < seq.count
                                       else []) + blocks(spot))
        lengths.append(present_subquotient(m.algebra, top, bottom,
                                           spot).total_length())
    return lengths


def _rank_two_sequence():
    # coker of the 2 x 2 upper-triangular matrix of example 4.2, dimension 1
    _, module, xs = build_example42(2)
    return ParameterSequence(module, [xs[1]])


def _rank_three_sequence():
    _, module, xs = build_example42(3)
    return ParameterSequence(module, [xs[1], xs[2]])


def _unequal_twist_sequence():
    # S ⊕ S(2)/(x, yz) over k[x,y,z]/(x^2, xy), twists (0, 2)
    basis = _unequal_twist_relations()
    ring = basis.ambient.ring
    A = GradedAlgebra(ring, [ring.variable(0) ** 2,
                             ring.variable(0) * ring.variable(1)])
    module = GradedModule(A, basis.ambient.twists, basis)
    return ParameterSequence(module, [ring.variable(1), ring.variable(2)])


@pytest.mark.parametrize("build", [
    *[(lambda s: lambda: random_instance(s)[1])(s) for s in range(20)],
    _rank_two_sequence, _rank_three_sequence, _unequal_twist_sequence,
], ids=[f"random{s}" for s in range(20)]
    + ["example42-2", "example42-3", "unequal-twist-sum"])
def test_koszul_lengths_match_the_presented_homology(build):
    seq = build()
    assert koszul_homology_lengths(seq) == _presented_koszul_lengths(seq)


def test_verify_gb_catches_a_wrong_koszul_series(monkeypatch):
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    seq = ParameterSequence(A.cyclic_module(), [y])
    series_length = homology.series_length
    monkeypatch.setattr(homology, "series_length",
                        lambda num, n: series_length(num, n) + 1)
    assert koszul_homology_lengths(seq) == [3, 2]
    monkeypatch.setattr(groebner, "_DEBUG_VERIFY", True)
    with pytest.raises(CrossCheckFailure, match="koszul_homology_lengths"):
        koszul_homology_lengths(seq)
