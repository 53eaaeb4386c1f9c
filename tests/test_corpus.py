"""Reference families against their closed-form values."""
import pytest

from genuslab.errors import GenerationFailure, NotGeneralizedCM
from genuslab.groebner import NEG_INF, groebner_basis
from genuslab.homology import depth, dual_sections
from genuslab.invariants import (check_theorem34, euler_chi1, hdeg,
                                 hilbert_samuel_table, inequality_suite,
                                 module_coefficients, multiplicity,
                                 sectional_genus, sv_invariant, torsion)
from genuslab.corpus import (build_example42, build_example44,
                             build_prop41_instance, default_grid,
                             example44_descriptor, random_instance,
                             ulrich_check)
from genuslab.modules import GradedAlgebra, submodule_intersect
from genuslab.ring import FreeModule, PolyRing, poly_in_position


@pytest.fixture(scope="module")
def quadric21():
    algebra, seq = build_example44(2, 1)
    return algebra, seq, seq.module


def test_example44_21_headline_numbers(quadric21):
    algebra, seq, M = quadric21
    expected = example44_descriptor(2, 1).expected
    assert M.dimension() == expected["dimension"] == 3
    assert depth(M) == expected["depth"] == 2
    assert seq.covolume() == expected["covolume"] == 3
    c = module_coefficients(M, seq.gens)
    assert c.e == (2, -1, 0, 0)
    assert euler_chi1(M, seq) == (1, 1)
    assert sectional_genus(M, seq.gens) == expected["sectional_genus"] == 0
    assert hdeg(M, seq.gens) == expected["hdeg"] == 3
    assert torsion(M, seq.gens, 1) == expected["torsion1"] == 1
    assert torsion(M, seq.gens, 2) == 0


def test_example44_21_duals(quadric21):
    algebra, seq, M = quadric21
    duals = dual_sections(M)
    assert duals[0].module.is_zero() and duals[1].module.is_zero()
    assert duals[2].module.dimension() == 1
    with pytest.raises(NotGeneralizedCM):
        sv_invariant(M)


def test_example44_21_theorem(quadric21):
    algebra, seq, M = quadric21
    rep = check_theorem34(M, seq, budget=64)
    assert rep.equality and rep.condition2
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.passed
    assert all(c.status != "fail" for c in inequality_suite(M, seq))


def test_example44_products_match_the_intersection():
    # the defining ideal is the intersection of the two coordinate blocks
    algebra, seq = build_example44(2, 1)
    ring = algebra.ring
    F = FreeModule(ring, (0,))
    block = lambda idxs: groebner_basis(
        F, [poly_in_position(F, ring.variable(i), 0) for i in idxs])
    meet = submodule_intersect(block(range(2)), block(range(2, 4)))
    assert meet == groebner_basis(
        F, [poly_in_position(F, f, 0) for f in algebra.ideal_gens])


def test_example44_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_example44(1, 1)
    with pytest.raises(ValueError):
        build_example44(2, 0)


def test_example44_descriptor_formulas():
    d21 = example44_descriptor(2, 1).expected
    assert d21["hdeg"] == 3 and d21["torsion1"] == 1 and d21["equality"]
    d31 = example44_descriptor(3, 1).expected
    assert d31["sectional_genus"] == 1 and d31["hdeg"] == 5
    assert d31["torsion1"] == 2 and d31["equality"]
    d41 = example44_descriptor(4, 1).expected
    assert d41["sectional_genus"] == 2 and not d41["equality"]
    d22 = example44_descriptor(2, 2).expected
    assert d22["sectional_genus"] == 0 and d22["equality"]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_example42_is_ulrich(d):
    algebra, C, ideal = build_example42(d)
    dim = algebra.dimension()
    assert (0 if dim == NEG_INF else int(dim)) == d - 1
    assert C.minimal_generator_count() == d
    assert hilbert_samuel_table(C, ideal, 0).values[0] == d
    assert multiplicity(C, ideal) == d
    rep = ulrich_check(C, ideal)
    assert rep.passed


def test_ulrich_rejects_fat_point():
    ring = PolyRing(("x",), 32003)
    x = ring.variable(0)
    A = GradedAlgebra(ring, [x * x])
    N = A.cyclic_module()
    rep = ulrich_check(N, (x,))
    assert not rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["multiplicity equals the covolume"].status == "fail"
    assert by_name["depth is maximal"].status == "pass"


def test_prop41_instance():
    A, seq = build_prop41_instance()
    M = seq.module
    assert M.dimension() == 2 and depth(M) == 1
    assert seq.covolume() == 2
    c = module_coefficients(M, seq.gens)
    assert c.e == (1, -1, 0)
    assert sectional_genus(M, seq.gens) == 0
    assert hdeg(M, seq.gens) == 2 and torsion(M, seq.gens, 1) == 1
    # the genus equals the covolume defect of the fiber module and the
    # torsion-bound equality holds with a minus sign on the torsion
    assert hdeg(M, seq.gens) - c.e[0] - torsion(M, seq.gens, 1) == 0
    rep = check_theorem34(M, seq)
    assert rep.equality and rep.passed
    duals = dual_sections(M)
    assert duals[0].module.is_zero()
    assert duals[1].module.dimension() == 1


def test_prop41_fiber_numbers():
    # covolume and multiplicity of the square-zero part over the base
    ring = PolyRing(("x", "y"), 32003)
    x, y = ring.variable(0), ring.variable(1)
    R = GradedAlgebra(ring, [])
    line = R.cyclic_module().quotient_by_ideal([x])
    cov = hilbert_samuel_table(line, (x, y), 0).values[0]
    assert cov == 1 and multiplicity(line, (x, y)) == 1


def test_random_instances_deterministic():
    m1, q1 = random_instance(5)
    m2, q2 = random_instance(5)
    assert q1.gens == q2.gens
    assert m1.algebra.ideal_gens == m2.algebra.ideal_gens
    assert q1.covolume() == q2.covolume()


def test_random_instances_have_parameters():
    for seed in range(8):
        module, seq = random_instance(seed)
        assert seq.count == module.dimension() >= 1
        assert seq.covolume() > 0


def test_random_instance_gives_up():
    with pytest.raises(GenerationFailure):
        random_instance(0, tries=0)


def test_default_grid_shape():
    grid = default_grid(random_seeds=3)
    families = [g.family for g in grid]
    assert families.count("example44") == 2
    assert families.count("example42") == 3
    assert families.count("idealization") == 1
    assert families.count("random") == 3
    assert grid[0].instance_id == "example44(l=2,m=1,prime=32003)"
