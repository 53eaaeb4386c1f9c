"""Module layer: algebras, presented modules, submodule calculus."""
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from genuslab.corpus import build_example42, random_instance
from genuslab.errors import (DependentRows, EngineError, IncompleteBasis,
                             InfiniteLength, NonStandardGrading, NotLinearForm,
                             PreconditionViolation, RaggedMatrix,
                             SingularMatrix, ZeroModule)
from genuslab.groebner import (NEG_INF, groebner_basis,
                               quotient_hilbert_function)
from genuslab.homology import dual_sections
from genuslab.invariants import _engine
from genuslab.modules import (GradedAlgebra, GradedModule, LinearChange,
                              ParameterSequence, complete_to_invertible,
                              ideal_power, idealization, invert_matrix,
                              linear_coefficients, module_from_matrix,
                              power_of_linear_form, submodule_colon,
                              submodule_intersect, zero_module)
from genuslab.ring import (FreeElement, FreeModule, Polynomial, PolyRing,
                           poly_in_position, poly_times_element)

from reference import (reference_annihilator, reference_colon,
                       reference_intersect, substitute_element,
                       substitute_linear)


def algebra(names, relations=(), p=32003):
    ring = PolyRing(tuple(names), p)
    xs = [ring.variable(i) for i in range(ring.nvars)]
    return GradedAlgebra(ring, [rel(*xs) for rel in relations]), xs


def ideal_basis_of(ring, polys):
    F = FreeModule(ring, (0,))
    return groebner_basis(F, [poly_in_position(F, f, 0) for f in polys])


def test_ideal_basis_is_memoized_on_the_algebra():
    A, (x, y) = algebra("xy", [lambda x, y: x * y])
    first = A.ideal_basis([x, y * y])
    assert A.ideal_basis([y * y, x - x, x]) is first
    assert A.ideal_basis([x]) is not first
    assert first == ideal_basis_of(A.ring, [x, y * y, x * y])
    # m·(x) + I
    deep = A.ideal_basis([x], times_m=True)
    assert A.ideal_basis([x], times_m=True) is deep
    assert deep == ideal_basis_of(A.ring, [x * x, x * y])


# -- colon --------------------------------------------------------------------

def test_colon_standard_examples():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    c = submodule_colon(M.relations, y)
    assert c == ideal_basis_of(A.ring, [x])

    B, (x, y) = algebra("xy", [lambda x, y: x * x])
    N = B.cyclic_module()
    assert submodule_colon(N.relations, y) == N.relations  # y is regular

    one = A.ring.constant(1)
    assert submodule_colon(M.relations, one) == M.relations


def test_colon_composes_and_contains():
    rng = random.Random(7)
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * y * z])
    M = A.cyclic_module()
    for _ in range(5):
        f = x * rng.randrange(1, 11) + y * rng.randrange(1, 11)
        g = z * rng.randrange(1, 11) + x
        once = submodule_colon(submodule_colon(M.relations, f), g)
        assert once == submodule_colon(M.relations, f * g)
        assert submodule_colon(M.relations, f).contains_all(M.relations.gb)


def test_colon_by_ideal_elementwise():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    both = submodule_colon(M.relations, [x, y])
    each = submodule_intersect(submodule_colon(M.relations, x),
                               submodule_colon(M.relations, y))
    assert both == each


# -- intersection -------------------------------------------------------------

def test_intersection_of_coordinate_ideals():
    A, (x1, x2, y1, y2) = algebra(("x1", "x2", "y1", "y2"))
    left = ideal_basis_of(A.ring, [x1, x2])
    right = ideal_basis_of(A.ring, [y1, y2])
    got = submodule_intersect(left, right)
    want = ideal_basis_of(A.ring, [x1 * y1, x1 * y2, x2 * y1, x2 * y2])
    assert got == want
    assert submodule_intersect(left, left) == left
    F = left.ambient
    zero = groebner_basis(F, [])
    assert submodule_intersect(left, zero) == zero


def test_intersection_membership_property():
    rng = random.Random(3)
    A, (x, y, z) = algebra("xyz")
    n1 = ideal_basis_of(A.ring, [x * x, y * z])
    n2 = ideal_basis_of(A.ring, [x * y + z * z])
    meet = submodule_intersect(n1, n2)
    F = n1.ambient
    for _ in range(20):
        terms = {(0, e): rng.randrange(0, 32003)
                 for e in A.ring.monomials_of_degree(3)}
        from genuslab.ring import FreeElement
        v = FreeElement(F, terms)
        assert meet.contains(v) == (n1.contains(v) and n2.contains(v))


# -- powers -------------------------------------------------------------------

def test_ideal_powers():
    A, (x, y) = algebra("xy")
    q2 = ideal_power(A, [x, y], 2)
    assert q2 == ideal_basis_of(A.ring, [x * x, x * y, y * y])
    q0 = ideal_power(A, [x, y], 0)
    assert q0.is_full()
    assert ideal_power(A, [x, y], 1) == ideal_basis_of(A.ring, [x, y])


def _squared(gens, count):
    return tuple(g * g for g in gens[:count]) + tuple(gens[count:])


def _power_cases():
    # each random draw with its linear Q, the first generator squared and
    # the first two squared; then a rank-2 sum with twists (0, 2)
    cases = []
    for seed in range(10):
        module, seq = random_instance(seed)
        for count in range(min(len(seq.gens), 2) + 1):
            cases.append((f"random{seed}-squares{count}", module,
                          _squared(seq.gens, count)))
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    M = A.cyclic_module().direct_sum(
        A.cyclic_module(2).quotient_by_ideal([x]))
    assert M.twists == (0, 2)
    cases.append(("twist-sum", M, (x + y, z - y)))
    cases.append(("twist-sum-squares2", M, ((x + y) ** 2, (z - y) ** 2)))
    return cases


def test_power_submodule_matches_expanded_ideal_powers():
    # N + Q^k F seeded level by level against the multiples of an
    # independently expanded (polys)^k
    for name, module, gens in _power_cases():
        for k in range(1, 5):
            polys = [g.component(0)
                     for g in ideal_power(module.algebra, gens, k).gb]
            expanded = module.submodule_with(module.ideal_multiples(polys))
            assert module.power_submodule(gens, k) == expanded, (name, k)
    assert module.power_submodule([]) is module.relations
    assert module.power_submodule([], 3) is module.relations


def test_power_submodule_is_shared():
    # one basis of N + QF behind the parameter sequence, the table engine
    # and the quotient module, whatever the order of the generators
    module, seq = random_instance(7)
    gens = seq.gens
    assert len(gens) == 2
    base = module.power_submodule(gens)
    assert ParameterSequence(module, gens).quotient_basis is base
    assert _engine(module, gens)._base is base
    bar = module.quotient_by_ideal(gens)
    assert bar.relations is base
    assert bar is module.quotient_by_ideal(list(reversed(gens)))
    assert ParameterSequence(module, gens).covolume() == bar.total_length()


# -- the stacked kernel against the hand-laid blocks --------------------------

def _kernel_case(name):
    if name.startswith("random"):
        module, seq = random_instance(int(name[6:]))
        return module, seq.gens
    if name.startswith("example42"):
        _, module, xs = build_example42(int(name[-1]))
        return module, xs
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    module = A.cyclic_module().direct_sum(
        A.cyclic_module(2).quotient_by_ideal([x]))
    assert module.twists == (0, 2)
    return module, (x + y, z - y)


@pytest.mark.parametrize("name", [f"random{s}" for s in range(40)]
                         + [f"example42-{d}" for d in (2, 3, 4)]
                         + ["unequal-twist-sum"])
def test_stacked_kernel_matches_the_hand_laid_blocks(name):
    # colons by m, by each variable and by products of parameters, of N and
    # of N + QF; intersections of power_submodule levels; the annihilators
    # of the module and of every dual of its local cohomology
    module, gens = _kernel_case(name)
    mgens = module.algebra.variables()
    products = [a * b for i, a in enumerate(gens) for b in gens[i:]]
    for n in (module.relations, module.power_submodule(gens)):
        for f in [mgens] + [[v] for v in mgens] + [[g] for g in products]:
            assert submodule_colon(n, f) == reference_colon(n, f)
    levels = [(module.power_submodule(gens, 2),
               module.power_submodule(gens[:1])),
              (module.power_submodule(gens),
               module.power_submodule(mgens, 2))]
    for first, second in levels:
        assert (submodule_intersect(first, second)
                == reference_intersect(first, second))
    for m in [module] + [ds.module for ds in dual_sections(module)]:
        assert m.annihilator() == reference_annihilator(m)


# -- annihilator --------------------------------------------------------------

def test_annihilators():
    A, (x, y) = algebra("xy")
    free = A.cyclic_module()
    assert free.annihilator().gb == ()
    assert zero_module(A).annihilator().is_full()

    B, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    ann = B.cyclic_module().annihilator()
    assert ann == ideal_basis_of(B.ring, [x * x, x * y])


def test_annihilator_of_two_by_two_cokernel():
    # coker of [[a, b], [0, a]] over k[a,b]/(a^2): the determinant a^2 kills it
    A, (a, b) = algebra("ab", [lambda a, b: a * a])
    C = module_from_matrix(A, [[a, b], [None, a]])
    ann = C.annihilator()
    F1 = ann.ambient
    assert ann.contains(poly_in_position(F1, a * a, 0))
    assert not ann.contains(poly_in_position(F1, b, 0))


# -- sections with finite support --------------------------------------------

def test_h0_examples():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    assert A.cyclic_module().h0_length() == 1

    B, (x, y) = algebra("xy", [lambda x, y: x * y])
    assert B.cyclic_module().h0_length() == 0

    C, (x, y) = algebra("xy")
    M = C.cyclic_module().direct_sum(C.cyclic_module().quotient_by_ideal([x, y]))
    assert M.dimension() == 2
    assert M.h0_length() == 1


def test_h0_of_quotient_with_deeper_socle():
    # x is killed by m^2 but not by m
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y * y])
    assert A.cyclic_module().h0_length() == 2


# -- dimension and length -----------------------------------------------------

def test_dimension_cases():
    A, (x, y) = algebra("xy", [lambda x, y: x * y])
    assert A.cyclic_module().dimension() == 1
    assert zero_module(A).dimension() == NEG_INF
    B, _ = algebra("xy")
    assert B.cyclic_module().dimension() == 2


def test_length_and_additivity():
    A, (x, y) = algebra("xy")
    fin = A.cyclic_module().quotient_by_ideal([x * x, x * y, y * y * y])
    assert fin.total_length() == 4
    point = A.cyclic_module().quotient_by_ideal([x, y])
    assert fin.direct_sum(point).total_length() == 5
    with pytest.raises(InfiniteLength):
        A.cyclic_module().total_length()


def test_one_series_gives_dimension_length_and_degree():
    # k[x,y,z]/(x^2, xy): a plane with an embedded line, e(M) = 1; twisting
    # a summand moves the series but not its multiplicity
    A, (x, y, z) = algebra("xyz", [lambda x, y, z: x * x,
                                   lambda x, y, z: x * y])
    M = A.cyclic_module()
    assert (M.dimension(), M.degree()) == (2, 1)
    assert M.direct_sum(A.cyclic_module(2)).degree() == 2
    fin = M.quotient_by_ideal([y, z])
    assert (fin.dimension(), fin.degree(), fin.total_length()) == (0, 2, 2)
    assert zero_module(A).degree() == 0
    assert M._cache["dim"] == (2, 1)


def test_quotient_by_ideal_edges():
    A, (x, y) = algebra("xy", [lambda x, y: x * x])
    M = A.cyclic_module()
    assert M.quotient_by_ideal([]).relations == M.relations
    assert M.quotient_by_ideal([A.ring.constant(1)]).is_zero()
    assert M.quotient_by_ideal([y]).dimension() == 0


def test_minimal_generator_count():
    A, (x, y) = algebra("xy")
    M = A.cyclic_module().direct_sum(A.cyclic_module().quotient_by_ideal([x, y]))
    assert M.minimal_generator_count() == 2


# -- parameter sequences ------------------------------------------------------

def test_parameter_sequence_validation():
    A, (x, y) = algebra("xy", [lambda x, y: x * x, lambda x, y: x * y])
    M = A.cyclic_module()
    q = ParameterSequence(M, [y])
    assert q.covolume() == 2  # classes of 1 and x
    assert q.prefix(0) == () and q.prefix(1) == (y,)
    with pytest.raises(PreconditionViolation):
        ParameterSequence(M, [x])  # x does not cut the dimension
    with pytest.raises(PreconditionViolation):
        ParameterSequence(M, [y, x])  # wrong count
    with pytest.raises(ZeroModule):
        ParameterSequence(zero_module(A), [])


def test_parameter_sequence_on_zero_dimensional_module():
    A, (x, y) = algebra("xy")
    M = A.cyclic_module().quotient_by_ideal([x, y * y])
    q = ParameterSequence(M, [])
    assert q.covolume() == M.total_length() == 2


# -- linear algebra utilities -------------------------------------------------

def test_matrix_inverse_and_completion():
    p = 32003
    t = [[1, 1], [0, 1]]
    ti = invert_matrix(t, p)
    assert ti == [[1, p - 1], [0, 1]]
    with pytest.raises(SingularMatrix):
        invert_matrix([[1, 1], [2, 2]], p)
    comp = complete_to_invertible([[1, 1]], 2, p)
    assert comp[0] == [1, 1]
    invert_matrix(comp, p)  # must not raise


def test_linear_substitution_moves_parameters_to_variables():
    A, (x, y) = algebra("xy")
    q = x + y
    b = complete_to_invertible([linear_coefficients(q)], 2, A.ring.prime)
    t = invert_matrix(b, A.ring.prime)
    assert LinearChange(A.ring, t).poly(q) == x
    f = x * x
    g = LinearChange(A.ring, [[1, 1], [0, 1]]).poly(f)  # x -> x + y
    assert g == x * x + 2 * x * y + y * y


@st.composite
def substitution_cases(draw):
    """A random invertible matrix T = P·L·U over Z/p, with a homogeneous
    polynomial of degree <= 4 or a power c·l^D (D = 2, 3) of a linear form,
    and a homogeneous element of rank <= 3, in 2-5 variables."""
    p = draw(st.sampled_from([7, 32003]))
    n = draw(st.integers(2, 5))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)), p)
    coeff = st.integers(0, p - 1)
    lower = [[1 if i == j else draw(coeff) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[draw(st.integers(1, p - 1)) if i == j else draw(coeff)
              if j > i else 0 for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    t = [[sum(lower[perm[i]][k] * upper[k][j] for k in range(n)) % p
          for j in range(n)] for i in range(n)]

    def poly(d):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            e = [0] * n
            for i in draw(st.lists(st.integers(0, n - 1), min_size=d,
                                   max_size=d)):
                e[i] += 1
            terms[tuple(e)] = draw(coeff)
        return Polynomial(ring, terms)

    if draw(st.booleans()):
        f = poly(draw(st.integers(0, 4)))
    else:
        f = (poly(1) ** draw(st.sampled_from([2, 3]))).scale(draw(coeff))
    twists = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    top = max(twists) + draw(st.integers(0, 2))
    F = FreeModule(ring, twists)
    terms = {}
    for pos, tw in enumerate(twists):
        for e, c in poly(top - tw).terms.items():
            terms[(pos, e)] = c
    return ring, t, f, FreeElement(F, terms)


@given(substitution_cases())
@settings(max_examples=150, deadline=None)
def test_linear_change_matches_the_reference_substitution(case):
    # the memoized monomial images against the substitution in polynomial
    # arithmetic, and back through the inverse matrix
    ring, t, f, v = case
    change = LinearChange(ring, t)
    back = LinearChange(ring, invert_matrix(t, ring.prime))
    moved = change.poly(f)
    assert moved == substitute_linear(f, t)
    assert back.poly(moved) == f
    moved_v = change.element(v, v.ambient)
    assert moved_v == substitute_element(v, t)
    assert back.element(moved_v, v.ambient) == v
    # a second call reads the kept images and gives the same
    assert change.poly(f) == moved


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c, coeffs", [
    (1, (1, 0, 0)), (5, (0, 1, -3)), (-2, (1, 7, 11)), (3, (0, 0, 1)),
])
def test_power_of_linear_form_recovers_the_power(c, coeffs, d):
    A, xs = algebra("xyz")
    ring = A.ring
    l = sum((xv.scale(a) for xv, a in zip(xs, coeffs) if a),
            ring.constant(0))
    got = power_of_linear_form((l ** d).scale(c))
    assert got is not None
    gc, gl, gd = got
    assert gd == d
    assert (gl ** d).scale(gc) == (l ** d).scale(c)
    # l normalised to a leading coefficient 1 at its first variable
    first = next(i for i, a in enumerate(coeffs) if a)
    assert linear_coefficients(gl)[first] == 1
    assert not any(linear_coefficients(gl)[:first])


def test_power_of_linear_form_rejects_other_forms():
    A, (x, y, z) = algebra("xyz")
    for f in [x * y, x * x + y * y, x ** 3 + y ** 3, x * x * y,
              x * x + 2 * x * y, (x + y) ** 2 + z * z, A.ring.constant(4),
              A.ring.constant(0)]:
        assert power_of_linear_form(f) is None, f
    # over Z/3, (x + y)^3 = x^3 + y^3: the linear part cannot be read off
    # the coefficients, so no power is claimed
    B, (u, v) = algebra("uv", p=3)
    assert power_of_linear_form((u + v) ** 3) is None
    assert power_of_linear_form((u + v) ** 2) == (1, u + v, 2)


@pytest.mark.parametrize("error, call", [
    (SingularMatrix, lambda A, x, y: invert_matrix([[1, 1], [2, 2]], 32003)),
    (DependentRows,
     lambda A, x, y: complete_to_invertible([[1, 1], [2, 2]], 2, 32003)),
    # one row cannot be part of a 0 x 0 matrix
    (IncompleteBasis, lambda A, x, y: complete_to_invertible([[1]], 0, 32003)),
    (RaggedMatrix, lambda A, x, y: module_from_matrix(A, [[x, y], [x]])),
    (NotLinearForm, lambda A, x, y: linear_coefficients(x * y)),
], ids=["singular", "dependent", "incomplete", "ragged", "not-linear"])
def test_linear_algebra_failures_are_engine_errors(error, call):
    # named engine errors, so the command line reports them with exit 3
    A, (x, y) = algebra("xy")
    assert issubclass(error, EngineError)
    with pytest.raises(error):
        call(A, x, y)


# -- idealization -------------------------------------------------------------

def test_idealization_square_zero_extension():
    A, (x, y) = algebra("xy")
    M = A.cyclic_module().quotient_by_ideal([x])
    B = idealization(M)
    assert B.ring.variables == ("x", "y", "u0")
    got = [str(g.component(0)) for g in B.defining_basis().gb]
    assert got == ["u0^2", "x*u0"]
    # graded pieces: the module copy enters shifted by the new variable degree
    R = B.cyclic_module()
    base = A.cyclic_module()
    value = lambda module, t: quotient_hilbert_function(module.relations, t)
    for t in range(6):
        assert value(R, t) == value(base, t) + value(M, t - 1)


def test_idealization_edges():
    A, (x, y) = algebra("xy")
    R = idealization(zero_module(A))
    assert R.ring is A.ring and R.ideal_gens == A.ideal_gens
    mixed = GradedModule(A, (0, 1), [])
    with pytest.raises(NonStandardGrading):
        idealization(mixed)


def test_idealization_avoids_name_clashes():
    A, (u0, v) = algebra(("u0", "v"))
    M = A.cyclic_module().quotient_by_ideal([u0, v])
    B = idealization(M)
    assert len(set(B.ring.variables)) == 3


# -- cokernel constructor -----------------------------------------------------

def test_module_from_matrix():
    A, (x, y) = algebra("xy")
    M = module_from_matrix(A, [[x, y], [y, x]])
    assert M.rank == 2
    assert M.dimension() == 1  # det = x^2 - y^2 kills it, codim 1
    N = module_from_matrix(A, [[x], [y]])
    v = poly_times_element(x, N.ambient.generator(0)) + \
        poly_times_element(y, N.ambient.generator(1))
    assert N.relations.contains(v)
