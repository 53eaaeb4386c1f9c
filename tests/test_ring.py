"""Arithmetic kernel: scalars, monomial orders, polynomials, module elements."""
import pytest
from hypothesis import given
import hypothesis.strategies as st

from genuslab.dsl import Add, Sub, Var
from genuslab.errors import HomogeneityViolation
from genuslab.invariants import CheckResult, LengthTable, SuperficialityReport
from genuslab.ring import (DEFAULT_PRIME, FreeModule, FrozenRecordError,
                           PolyRing, Polynomial, Record, binomial,
                           degrevlex_key, is_prime, mono_div, mono_divides,
                           mono_lcm, mono_mul, poly_times_element)

from reference import element_from_components


def make_ring(names="xyz", p=DEFAULT_PRIME):
    return PolyRing(tuple(names), p)


# -- records ------------------------------------------------------------------

class _Pair(Record):
    left: int
    right: int = 0


class _OtherPair(Record):
    left: int
    right: int = 0


def test_record_equality_needs_the_same_type():
    assert _Pair(1, 2) == _Pair(1, right=2) == _Pair(left=1, right=2)
    assert _Pair(1) == _Pair(1, 0) and _Pair(1) != _Pair(1, 1)
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert Add(Var("x"), Var("y")) != Sub(Var("x"), Var("y"))
    assert len({_Pair(1, 2), _Pair(1, 2), _OtherPair(1, 2)}) == 2
    with pytest.raises(TypeError):
        _Pair()


def test_records_are_immutable():
    assert issubclass(FrozenRecordError, AttributeError)
    rec = _Pair(1, 2)
    with pytest.raises(FrozenRecordError):
        rec.left = 3
    with pytest.raises(FrozenRecordError):
        del rec.right
    with pytest.raises(FrozenRecordError):
        rec.extra = 0
    with pytest.raises(AttributeError):
        PolyRing(("x",)).prime = 7
    assert not hasattr(rec, "__dict__") and rec.left == 1


def test_record_factory_default_is_fresh_per_instance():
    a, b = CheckResult("a", "pass"), CheckResult("a", "pass")
    assert a.details == {} and a.details is not b.details
    assert a == b and CheckResult("a", "pass", {"n": 1}) != a


def test_record_repr_matches_the_dataclass_form():
    assert repr(SuperficialityReport("verified", window_start=2)) == (
        "SuperficialityReport(status='verified', window_start=2, "
        "colon_length=None, witness=None)")
    # the grow callback is left out of repr, equality and hash
    table = LengthTable((1, 3, 6), lambda upto: (1, 3, 6, 10))
    assert repr(table) == "LengthTable(values=(1, 3, 6))"
    assert table == LengthTable((1, 3, 6))
    assert hash(table) == hash(LengthTable((1, 3, 6)))
    assert table.extended(3).values == (1, 3, 6, 10)


def test_equal_free_modules_hash_equal():
    a = FreeModule(make_ring(), (0, 1))
    b = FreeModule(make_ring(), (0, 1), 0, 0, 1)
    assert a == b and hash(a) == hash(b)
    assert a != FreeModule(make_ring(), (0, 1), elim_rank=1)
    assert a != FreeModule(make_ring("xyw"), (0, 1))
    assert repr(a) == (
        "FreeModule(ring=PolyRing(variables=('x', 'y', 'z'), prime=32003), "
        "twists=(0, 1), elim_rank=0, tangent_block=0, tangent_weight=1)")


def test_monomial_arithmetic():
    assert mono_mul((1, 0, 2), (0, 3, 1)) == (1, 3, 3)
    assert mono_div((1, 3, 3), (0, 3, 1)) == (1, 0, 2)
    assert mono_mul((), ()) == ()


# -- integers -----------------------------------------------------------------

def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, 0) == 1
    assert binomial(4, 4) == 1
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(5, -2) == 0


@given(st.integers(0, 60), st.integers(-3, 63))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


def test_is_prime():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(32003)
    assert not is_prime(32001)


# -- prime field --------------------------------------------------------------

def test_scalar_ops_mod_7():
    # scalars as constant polynomials: sums, products and negatives mod 7
    R = make_ring("xy", 7)
    c = R.constant
    assert c(5) + c(4) == c(2)
    assert c(3) * c(5) == c(1)
    assert -c(2) == c(5)
    assert R.inv(3) == 5
    assert c(R.inv(4)) * c(4) == c(1)
    with pytest.raises(ZeroDivisionError):
        R.inv(0)
    with pytest.raises(ZeroDivisionError):
        R.inv(7)  # 7 = 0 mod 7


def test_ring_validation():
    with pytest.raises(ValueError,
                       match="^coefficient modulus 6 is not an odd prime$"):
        PolyRing(("x",), 6)
    with pytest.raises(ValueError,
                       match="^coefficient modulus 2 is not an odd prime$"):
        PolyRing(("x",), 2)  # odd primes only
    with pytest.raises(ValueError, match="^duplicate variable names$"):
        PolyRing(("x", "x"), 7)
    assert PolyRing(prime=7, variables=("x",)).prime == 7
    assert make_ring().prime == DEFAULT_PRIME


@given(st.integers(0, DEFAULT_PRIME - 1), st.integers(0, DEFAULT_PRIME - 1),
       st.integers(0, DEFAULT_PRIME - 1))
def test_field_axioms(a, b, c):
    # scalars as constant polynomials
    R = make_ring()
    u, v, w = R.constant(a), R.constant(b), R.constant(c)
    assert u + (v + w) == (u + v) + w
    assert u * (v * w) == (u * v) * w
    assert u * (v + w) == u * v + u * w
    assert not u + (-u)
    if a % DEFAULT_PRIME:
        assert u * R.constant(R.inv(a)) == R.constant(1)


# -- monomial order -----------------------------------------------------------

def test_degrevlex_quadrics_in_three_variables():
    # x^2 > xy > y^2 > xz > yz > z^2
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert degrevlex_key(a) > degrevlex_key(b)
        assert degrevlex_key(b) < degrevlex_key(a)
    assert degrevlex_key((1, 1, 0)) == degrevlex_key((1, 1, 0))


def test_degrevlex_degree_dominates():
    assert degrevlex_key((0, 0, 3)) > degrevlex_key((2, 0, 0))


exps3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(exps3, exps3, exps3)
def test_degrevlex_total_and_multiplicative(a, b, m):
    ka, kb = degrevlex_key(a), degrevlex_key(b)
    assert (ka == kb) == (a == b)
    if ka > kb:
        am = tuple(x + y for x, y in zip(a, m))
        bm = tuple(x + y for x, y in zip(b, m))
        assert degrevlex_key(am) > degrevlex_key(bm)


@given(exps3, exps3)
def test_divisor_is_smaller(a, b):
    if mono_divides(a, b):
        assert degrevlex_key(a) <= degrevlex_key(b)
    lcm = mono_lcm(a, b)
    assert mono_divides(a, lcm) and mono_divides(b, lcm)


# -- polynomials --------------------------------------------------------------

def test_polynomial_product():
    R = make_ring("xy", 7)
    x, y = R.variable(0), R.variable(1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_polynomial_homogeneity_enforced():
    R = make_ring("xy", 7)
    x = R.variable(0)
    with pytest.raises(HomogeneityViolation):
        x + R.constant(1)
    with pytest.raises(HomogeneityViolation):
        Polynomial(R, {(1, 0): 1, (2, 0): 1})


def test_polynomial_scale_and_monic():
    R = make_ring("xy", 7)
    x, y = R.variable(0), R.variable(1)
    f = x * 2 + y * 3
    assert f.scale(0).is_zero
    g = f.monic()
    assert g.lead_term() == ((1, 0), 1)
    assert g.terms[(0, 1)] == 5  # 3/2 = 5 mod 7


def test_polynomial_lead_and_str():
    R = make_ring("xyz")
    x, y, z = (R.variable(i) for i in range(3))
    f = x * x + x * y + y * z
    assert f.lead_term() == ((2, 0, 0), 1)
    assert str(f) == "x^2 + x*y + y*z"
    assert str(x - y) == "x - y"
    assert str(R.constant(0)) == "0"


def test_monomials_of_degree():
    R = make_ring("xyz")
    twos = list(R.monomials_of_degree(2))
    assert len(twos) == 6
    assert len(set(twos)) == 6
    assert all(sum(e) == 2 for e in twos)


@given(st.integers(0, 4), st.integers(0, 4))
def test_monomial_count_is_binomial(n_extra, d):
    R = PolyRing(tuple(f"t{i}" for i in range(n_extra + 1)), 7)
    assert len(list(R.monomials_of_degree(d))) == binomial(d + n_extra, n_extra)


# -- free modules -------------------------------------------------------------

def test_element_homogeneity_with_twists():
    R = make_ring("xy", 7)
    F = FreeModule(R, (0, 1))
    x = R.variable(0)
    v = element_from_components(F, [x, R.constant(1)])  # degrees 1 and 1
    assert v.degree == 1
    with pytest.raises(HomogeneityViolation):
        element_from_components(F, [x, x])


def test_top_order_monomial_first_then_position():
    R = make_ring("xy", 7)
    F = FreeModule(R, (0, 0))
    x, y = R.variable(0), R.variable(1)
    v = element_from_components(F, [y, x])
    assert v.lead_term() == ((1, (1, 0)), 1)  # x beats y regardless of position
    w = element_from_components(F, [x, x])
    assert w.lead_term() == ((0, (1, 0)), 1)  # ties go to the earlier position


def test_elimination_block_dominates():
    R = make_ring("xy", 7)
    F = FreeModule(R, (0, 0), elim_rank=1)
    low = (1, (5, 0))
    high = (0, (0, 0))
    assert F.term_key(high) > F.term_key(low)


def test_tangent_order_leads_with_lowest_block_degree():
    R = make_ring("xyz", 7)
    F = FreeModule(R, (0, 1), tangent_block=1)
    x, y, z = (R.variable(i) for i in range(3))
    # x*y has the smaller x-degree, so it beats x^2 despite degrevlex
    v = element_from_components(F, [x * x + x * y, None])
    assert v.lead_term() == ((0, (1, 1, 0)), 1)
    # with the twist, y in position 1 has degree 2 like x*z in position 0
    # and wins on x-degree; untwisted, x*z would lead on degree alone
    w = element_from_components(F, [x * z, y])
    assert w.lead_term() == ((1, (0, 1, 0)), 1)
    # block (x, y) with weight D = 2, as for Q = (x, y^2): x weighs 2 and
    # y weighs 1, so y^2 (weight 2) beats x*y (weight 3), where the block
    # degree ties them and degrevlex picks x*y
    F2 = FreeModule(R, (0, 1), tangent_block=2, tangent_weight=2)
    F1 = FreeModule(R, (0, 1), tangent_block=2)
    assert (element_from_components(F2, [x * y + y * y, None]).lead_term()
            == ((0, (0, 2, 0)), 1))
    assert (element_from_components(F1, [x * y + y * y, None]).lead_term()
            == ((0, (1, 1, 0)), 1))
    # twisted: y in position 1 (weight 1) beats x*z (weight 2) under D = 2;
    # under D = 1 both have block degree 1 and x*z wins on its own degree
    assert (element_from_components(F2, [x * z, y]).lead_term()
            == ((1, (0, 1, 0)), 1))
    assert (element_from_components(F1, [x * z, y]).lead_term()
            == ((0, (1, 0, 1)), 1))


def test_element_arithmetic():
    R = make_ring("xy", 7)
    F = FreeModule(R, (0, 0))
    x, y = R.variable(0), R.variable(1)
    v = element_from_components(F, [x, y])
    w = element_from_components(F, [x, None])
    assert (v - w).component(0).is_zero
    assert (v - w).component(1) == y
    assert v.scale(0).is_zero
    assert poly_times_element(x, v).component(1) == x * y
    assert v.shifted((0, 1)).component(0) == x * y
    assert (v + (-v)).is_zero


def test_element_monic_and_str():
    R = make_ring("xy", 7)
    F = FreeModule(R, (0, 0))
    v = element_from_components(F, [R.variable(0).scale(3), R.variable(1)])
    m = v.monic()
    lt, c = m.lead_term()
    assert c == 1 and lt == (0, (1, 0))
    assert str(m) == "(x, -2*y)"  # 1/3 = 5 = -2 mod 7
