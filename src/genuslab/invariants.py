"""Length tables along powers of an ideal, Hilbert coefficients, and the
derived invariants: sectional genus, first Euler characteristic, homological
degree and torsion.  On top of those sit the element tests (superficiality,
d-sequences), a seeded generator search, and the checkers that tie the
numbers together.

Every number here is an exact integer.  On the graded route the rows,
e_0..e_d and the postulation are read off one bigraded Hilbert numerator
(`_TableEngine`; Rossi–Valla, Hilbert Functions of Filtered Modules, ch. 1).
Elsewhere, and under --verify-gb as a second derivation, a fit in the
binomial basis is accepted only once it reproduces the tail of the table;
there is no interpolation and no tolerance anywhere.

The multiplicity e_0 needs no table when Q is a homogeneous system of
parameters or is generated by linear forms: it is read off the one Hilbert
series of M (Serre's formula, see `multiplicity`).  The coefficients above
supply e_1..e_d, and e_0 only for a Q with more than dim M generators that
are not all linear.  Wherever they are computed anyway, their e_0 must
equal the series value.

Superficiality is tested on the associated graded module F/N*, whose basis
is read off the length-table engine's (`_initial_module`), whenever Q takes
its graded route and M/QM has finite length.  For linear Q that is gr_Q(M),
and a is superficial exactly when its initial form is filter-regular on it.
For Q made of linear forms plus one power c·l^D it is gr_W(M), graded by the
engine's block weight W; a filter-regular weight-D form of a proves a
superficial, but a zero-divisor proves nothing.  The heuristic window of
colons decides everything else: that unverified case, two or more powers, a
generator that is not a power of a linear form, and a Q leaving M/QM of
infinite length.

A colon, an intersection or a presentation that is only compared or
measured is never built: its Hilbert series is read off the one basis of a
sum, by additivity along a short exact sequence.  For f of degree δ,
0 -> (F/(N : f))(-δ) -> F/N -> F/(N + fF) -> 0 gives
HS(F/(N : f)) = t^-δ·(HS(F/N) - HS(F/(N + fF))) (`colon_series`), and
0 -> F/(A ∩ B) -> F/A ⊕ F/B -> F/(A + B) -> 0 gives the intersection.  The
steps of the colon window, the d-sequence colon test and the Thm 3.4
intersection compare such series; for a submodule that contains another,
equal series mean equal submodules.  The three measured colon quotients
(N : f)/N, the annihilator (0 :_M a) of a superficiality test, the
filter-regularity test and the Prop 3.8 colon defect, all come from
`colon_quotient_series`.  Thm 3.4's duals are tested for annihilation by
membership (`_not_annihilating`).  Under --verify-gb each of them is also
built as a kernel and must agree, and each colon quotient must match its
presented colon in the whole Hilbert series.
"""
from __future__ import annotations

import random
from itertools import accumulate
from math import prod

from .errors import (CrossCheckFailure, EquivalenceViolation, IndexOutOfRange,
                     InfiniteLength, NoStabilization, NotFoundWithinBudget,
                     NotGeneralizedCM, PreconditionViolation, SingularMatrix,
                     ZeroModule)
from .groebner import (NEG_INF, SubmoduleBasis, _hilbert_numerator,
                       combine_series, current_run, debug_verification_enabled,
                       groebner_basis, hilbert_series, quotient_total_length,
                       series_dimension, series_length, verify_basis)
from .homology import dual_sections, ext_module, koszul_homology_lengths
from .modules import (GradedAlgebra, GradedModule, LinearChange,
                      ParameterSequence, _as_poly_list, colon_quotient_series,
                      colon_series, complete_to_invertible, echelon_insert,
                      invert_matrix, linear_coefficients, power_of_linear_form,
                      present_subquotient, submodule_colon,
                      submodule_intersect)
from .ring import (FreeElement, FreeModule, Polynomial, Record, binomial,
                   poly_in_position, poly_times_element)


def _gens_for(q):
    if isinstance(q, ParameterSequence):
        return tuple(q.gens)
    return tuple(f for f in _as_poly_list(q) if f)


def _sequence_for(module, q) -> ParameterSequence:
    if isinstance(q, ParameterSequence) and q.module is module:
        return q
    return ParameterSequence(module, _gens_for(q))


# -- the length table ---------------------------------------------------------

class _GradedCoordinates(Record):
    """The graded route's coordinates for one Q (`graded_coordinates`): the
    block b, the weight D and the change C."""
    block: int
    weight: int
    change: LinearChange

    def block_weight(self, e: tuple) -> int:
        """W = D·|a| + k of the exponents e, in these coordinates."""
        b = self.block
        return self.weight * sum(e[:b - 1]) + e[b - 1]


def graded_coordinates(algebra: GradedAlgebra, gens):
    """Coordinates for Q = (gens) of linear forms plus at most one power
    c·l^D of a linear form l independent of them, None for other Q, kept on
    the algebra per set of generators (M, M/aM and M/H⁰(M) share them).  C
    moves the independent linear generators onto x_1..x_(b-1) and l onto
    x_b (for linear Q, D = 1), so Q = (x_1..x_(b-1), x_b^D).  Checked on
    coefficient rows: row(q)·C = e_i for the i-th independent linear q,
    row(l)·C = e_b (c·l^D checked by expanding), and row(q)·C is 0 outside
    the block for every linear q.  --verify-gb maps each image back."""
    def build():
        ring = algebra.ring
        p, nv = ring.prime, ring.nvars
        linear = [linear_coefficients(q) for q in gens if q.degree == 1]
        powers = [q for q in gens if q.degree != 1]
        if len(powers) > 1:
            return None
        ech = []
        indep = [row for row in linear if echelon_insert(ech, row, p)]
        nlin, weight = len(indep), 1
        if powers:
            form = power_of_linear_form(powers[0])
            if form is None or not echelon_insert(
                    ech, linear_coefficients(form[1]), p):
                return None
            indep.append(linear_coefficients(form[1]))
            weight = form[2]
        b = len(indep)
        change = invert_matrix(complete_to_invertible(indep, nv, p), p)
        image = lambda row: [sum(a * r[k] for a, r in zip(row, change)) % p
                             for k in range(nv)]
        if ([image(row) for row in indep]
                != [[int(k == i) for k in range(nv)] for i in range(b)]
                or any(any(image(row)[nlin:]) for row in linear)):
            raise CrossCheckFailure(
                "coordinate change failed to straighten the generators")
        return _GradedCoordinates(b, weight, LinearChange(ring, change))
    return algebra._memo(("coordinates", frozenset(gens)), build)


class _TableEngine:
    """Produces ℓ(M/Q^{n+1}M) for one module and one generating set.

    Two routes.  The graded route takes every Q generated by linear forms
    plus at most one power c·l^D of a linear form l independent of them,
    in the algebra's shared coordinates for Q (`graded_coordinates`), where
    Q = (x_1..x_(b-1), x_b^D).  Give x^a·x_b^k, with a the exponents of
    x_1..x_(b-1), the weight W = D·|a| + k.  Then Q^m is spanned by the
    monomials of weight at least mD, since |a| + ⌊k/D⌋ >= m exactly when
    W >= mD.  One basis of the transformed relations in the weighted
    tangent-cone order (see FreeModule.tangent_block) takes its leads from
    the lowest-weight forms, so ℓ(M/Q^{n+1}M) is the number of standard
    monomials of weight below D(n+1), read off one bigraded numerator of
    the leads (`_numerator`).  With two powers, or a generator that is not
    a power of a linear form, weight no longer cuts out Q^m (x·y has weight
    2 in (x^2, y^2) but is not in it), and the finite quotient by each
    level N + Q^{n+1}F, from the module's power_submodule, is counted
    directly.  The graded route is an optimization only: the transformed
    basis must have the Hilbert series of the original relations, row 0
    must be the covolume, and under --verify-gb row 1 the direct value."""

    def __init__(self, module: GradedModule, gens):
        self.module = module
        self.gens = tuple(gens)
        self.values = []
        self._base = module.power_submodule(gens)
        _require_finite_colength(module, gens)
        self.coords = (graded_coordinates(module.algebra, self.gens)
                       if module.rank > 0 and self.gens else None)
        self.graded = self.coords is not None
        self._h = None
        if not self.graded:
            return
        F = FreeModule(module.algebra.ring, module.twists,
                       tangent_block=self.coords.block,
                       tangent_weight=self.coords.weight)
        self.basis_t = groebner_basis(F, [self.coords.change.element(g, F)
                                          for g in module.relations.gb])
        if hilbert_series(self.basis_t) != hilbert_series(module.relations):
            raise CrossCheckFailure(
                "tangent-cone basis changed the Hilbert series")

    def _numerator(self):
        """(h, d) with Σ_n ℓ(M/Q^{n+1}M)·u^n = h(u)/(1-u)^(d+1), h(1) != 0.
        K(s, t), s the weight and t the other degree, is over
        (1-s^D)^(b-1)(1-s)(1-t)^(n-b); finite slices make each s-coefficient
        divisible by (1-t)^(n-b), and at t = 1 they give K'(s).
        K'(s)(1 + ... + s^(D-1)) folded into u = s^D is over (1-u)^(b+1)."""
        if self._h is not None:
            return self._h
        n, b, D = (self.module.algebra.ring.nvars, self.coords.block,
                   self.coords.weight)
        leads = self.basis_t.leads_by_position()
        # s^i·t^j packed as i·B + j, B above every degree in t
        B = 1 + sum(max((e[i] for es in leads.values() for e in es),
                        default=0) for i in range(b, n))
        weights = (D * B,) * (b - 1) + (B,) + (1,) * (n - b)
        kprime = {}
        for pos in range(self.basis_t.ambient.rank):
            by_s = {}
            for z, c in _hilbert_numerator(tuple(leads.get(pos, ())), n,
                                           weights).items():
                by_s.setdefault(z // B, [0] * B)[z % B] = c
            for i, coeffs in by_s.items():
                for _ in range(n - b):
                    if sum(coeffs):
                        raise CrossCheckFailure(
                            "a weight slice of the tangent cone does not end")
                    coeffs = list(accumulate(coeffs[:-1]))
                kprime[i] = kprime.get(i, 0) + sum(coeffs)
        h = [0] * ((max(kprime, default=0) + D - 1) // D + 1)
        for i, c in kprime.items():
            for r in range(i, i + D):
                h[r // D] += c
        d = b
        while any(h) and not sum(h):
            if d == 0:
                raise CrossCheckFailure("the length series has no pole")
            h, d = list(accumulate(h[:-1])), d - 1
        while h and not h[-1]:
            h.pop()
        if sum(h[:1]) != quotient_total_length(self._base):
            raise CrossCheckFailure("fast and direct covolumes disagree")
        self._h = h, d
        return self._h

    def _graded_value(self, n: int) -> int:
        h, d = self._numerator()
        return sum(c * binomial(n - k + d, d) for k, c in enumerate(h[:n + 1]))

    def coefficients(self) -> HilbertCoefficients:
        """e_i = Σ_k h_k·C(k, i).  The polynomial adds to row n the terms of
        k > n, h_k·C(n - k + d, d), which vanish for k - n <= d; at
        k - n = d + 1 it is (-1)^d·h_k, so the postulation is deg h - d."""
        h, d = self._numerator()
        e = tuple(sum(c * binomial(k, i) for k, c in enumerate(h))
                  for i in range(d + 1))
        return HilbertCoefficients(e, max(len(h) - 1 - d, 0), d)

    def _direct_value(self, n: int) -> int:
        return quotient_total_length(
            self.module.power_submodule(self.gens, n + 1))

    def values_up_to(self, top: int) -> list:
        while len(self.values) <= top:
            n = len(self.values)
            v = self._graded_value(n) if self.graded else self._direct_value(n)
            if (self.graded and n == 1 and debug_verification_enabled()
                    and v != self._direct_value(1)):
                raise CrossCheckFailure(
                    "fast and direct lengths disagree at n = 1")
            if self.values and v < self.values[-1]:
                raise CrossCheckFailure("length table decreased")
            self.values.append(v)
        return list(self.values[:top + 1])


def _require_finite_colength(module: GradedModule, gens) -> None:
    """InfiniteLength unless ℓ(M/QM) is finite; M/QM is the memoized
    quotient module that the covolume reads too."""
    if module.quotient_by_ideal(gens).dimension() > 0:
        raise InfiniteLength(
            "the ideal does not cut the module down to finite length")


def covolume(module: GradedModule, gens) -> int:
    """ℓ(M/QM) off the memoized quotient, with no length table."""
    _require_finite_colength(module, gens)
    return module.quotient_by_ideal(gens).total_length()


def _engine(module: GradedModule, gens) -> _TableEngine:
    return module._memo(("hsengine", frozenset(gens)),
                        lambda: _TableEngine(module, gens))


class LengthTable(Record):
    """values[n] = ℓ(M/Q^{n+1}M); grown on demand through the source."""
    values: tuple
    _grow: object = None

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def extended(self, upto: int):
        if self._grow is None:
            raise NoStabilization("table cannot be extended")
        return LengthTable(tuple(self._grow(upto)), self._grow)


def hilbert_samuel_table(module: GradedModule, q, top: int = None) -> LengthTable:
    """Exact lengths ℓ(M/Q^{n+1}M) for n = 0..top."""
    gens = _gens_for(q)
    eng = _engine(module, gens)
    if top is None:
        s = module.dimension()
        top = (0 if s == NEG_INF else max(int(s), 0)) + 4
    return LengthTable(tuple(eng.values_up_to(top)), eng.values_up_to)


# -- coefficient extraction ---------------------------------------------------

class HilbertCoefficients(Record):
    """Signed coefficients e[0..s] of the length polynomial, plus the least
    table index from which the polynomial provably agrees."""
    e: tuple
    postulation: int
    dimension: int

    def value_at(self, n: int) -> int:
        s = self.dimension
        return sum(((-1) ** i) * self.e[i] * binomial(n + s - i, s - i)
                   for i in range(s + 1))


def _binomial_fit(vals, a: int, s: int) -> HilbertCoefficients:
    # the polynomial Σ (-1)^i·e_i·C(n+s-i, s-i) through vals[a..a+s]
    window, e = vals[a:a + s + 1], []
    for i in range(s + 1):
        diffs = window
        for _ in range(s - i):
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        e.append((-1) ** i * diffs[0])
        window = [w - diffs[0] * binomial(a + k + s - i, s - i)
                  for k, w in enumerate(window)]
    return HilbertCoefficients(tuple(e), 0, s)


def hilbert_coefficients(table: LengthTable, s: int) -> HilbertCoefficients:
    """Finite-difference extraction in the binomial basis, for the direct
    route and, under --verify-gb, as the graded route's second derivation.
    Accepts only when the polynomial through the s + 1 entries from top - s
    - 2 on reproduces all later ones; else doubles the table, up to a cap.
    """
    cap = current_run().table_cap
    while True:
        top = table.top
        if top >= s + 2:
            fit = _binomial_fit(table.values, top - s - 2, s)
            on = [fit.value_at(n) == v for n, v in enumerate(table.values)]
            if all(on[top - s - 2:]):
                if fit.e[0] <= 0:
                    raise CrossCheckFailure(
                        f"nonpositive leading coefficient {fit.e[0]}")
                post = next(n0 for n0 in range(top - s - 1)
                            if all(on[n0:n0 + s + 3]))
                return HilbertCoefficients(fit.e, post, s)
        if top >= cap:
            raise NoStabilization(
                f"no stable coefficients with {top + 1} table entries")
        table = table.extended(min(max(2 * top, s + 4), cap))


def module_coefficients(module: GradedModule, q) -> HilbertCoefficients:
    """Exact on the graded route, where NoStabilization keeps the fit's cap:
    postulation + d + 2 > the run's table_cap (--max-n).  The fit runs on the
    direct route, and under --verify-gb on both, where the two must agree.
    Memoized on the module, so a later run reads what the first one built."""
    gens = _gens_for(q)

    def build():
        cap = current_run().table_cap
        s = module.dimension()
        if s == NEG_INF:
            raise ZeroModule("the zero module has no Hilbert coefficients")
        s = max(int(s), 0)
        eng = _engine(module, gens)
        coeffs = None
        if eng.graded:
            coeffs = eng.coefficients()
            if coeffs.dimension != s:
                raise CrossCheckFailure(f"length series of dimension "
                                        f"{coeffs.dimension}, not {s}")
            if coeffs.postulation + s + 2 > cap:
                raise NoStabilization(f"no stable coefficients with "
                                      f"{cap + 1} table entries")
        if coeffs is None or debug_verification_enabled():
            table = hilbert_samuel_table(module, gens, min(s + 4, cap))
            fit = hilbert_coefficients(table, s)
            if coeffs is not None and fit != coeffs:
                raise CrossCheckFailure(
                    f"windowed fit {fit}, exact coefficients {coeffs}")
            coeffs = fit
        series = _series_multiplicity(module, gens)
        if series is not None and series != coeffs.e[0]:
            raise CrossCheckFailure(
                f"multiplicity {coeffs.e[0]} from the length table, "
                f"{series} from the Hilbert series")
        return coeffs
    return module._memo(("hscoeffs", frozenset(gens)), build)


def _series_multiplicity(module: GradedModule, gens):
    """e_Q(M) read off the Hilbert series of M, for a nonzero M; None where
    the series does not give it, for a Q with more than dim M generators
    that are not all linear.  InfiniteLength when ℓ(M/QM) is infinite."""
    s = module.dimension()
    if len(gens) != s and any(g.degree != 1 for g in gens):
        return None
    _require_finite_colength(module, gens)
    if len(gens) == s:
        return module.degree() * prod(g.degree for g in gens)
    return module.degree()


def multiplicity(module: GradedModule, q) -> int:
    """The multiplicity e_Q(M), the leading coefficient of the length
    polynomial; the total length in dimension zero, and 0 for M = 0.

    For positive dimension d it is read off the Hilbert series of M, whose
    multiplicity e(M) = h(1) the module keeps with its dimension, whenever
    one of two conditions holds (InfiniteLength when ℓ(M/QM) is infinite):

    - Q has d generators q_1..q_d, a homogeneous system of parameters.
      Then e_Q(M) = χ(q; M) = deg q_1 ⋯ deg q_d · e(M) (Serre's formula;
      Bruns–Herzog, Cohen–Macaulay Rings, 4.6–4.7).
    - Q is generated by linear forms, in any number.  With ℓ(M/QM) finite
      such a Q is a reduction of the maximal ideal on M, so e_Q(M) = e(M)
      (Huneke–Swanson, Integral Closure, ch. 8 and 11).

    Otherwise, where the degree product is wrong, and in every case under
    --verify-gb, e_0 comes from module_coefficients, which requires it to
    equal the series value wherever there is one."""
    s = module.dimension()
    if s == NEG_INF:
        return 0
    if s <= 0:
        return module.total_length()
    gens = _gens_for(q)
    e0 = _series_multiplicity(module, gens)
    if e0 is None or debug_verification_enabled():
        return module_coefficients(module, gens).e[0]
    return e0


# -- the paired genus and Euler characteristic --------------------------------

def sectional_genus(module: GradedModule, q) -> int:
    """ℓ(M/QM) − e0 + e1 for a full parameter system Q."""
    seq = _sequence_for(module, q)
    if seq.count < 1:
        raise PreconditionViolation(
            "the sectional genus needs dimension at least 1")
    c = module_coefficients(module, seq.gens)
    return seq.covolume() - c.e[0] + c.e[1]


def euler_chi1(module: GradedModule, q) -> tuple:
    """(alternating homology sum over spots >= 1, covolume minus
    multiplicity); computed both ways and required to agree.  Memoized per
    module and generating set, like the Hilbert coefficients."""
    seq = _sequence_for(module, q)

    def build():
        lengths = koszul_homology_lengths(seq)
        koszul = sum(((-1) ** (i - 1)) * lengths[i]
                     for i in range(1, len(lengths)))
        serre = seq.covolume() - multiplicity(module, seq.gens)
        if koszul != serre:
            raise CrossCheckFailure(
                f"Euler characteristic mismatch: {koszul} from homology, "
                f"{serre} from lengths")
        return (koszul, serre)
    return module._memo(("chi1", frozenset(seq.gens)), build)


# -- homological degree and torsion -------------------------------------------

def hdeg(module: GradedModule, q) -> int:
    """Homological degree off the module's own resolution: the length in
    dimension <= 0, else e_Q plus binomially weighted degrees of its duals,
    D_j of dimension <= j < dim M.  QM, M/H⁰M: `finite_length_twin`."""
    if module.is_zero():
        return 0
    s = module.dimension()
    if s <= 0:
        return module.total_length()
    gens = _gens_for(q)

    def build():
        duals = dual_sections(module)
        total = multiplicity(module, gens)
        for j in range(int(s)):
            total += binomial(int(s) - 1, j) * hdeg(duals[j].module, gens)
        return total
    return module._memo(("hdeg", frozenset(gens)), build)


def torsion(module: GradedModule, q, i: int) -> int:
    """The i-th torsion: weighted degrees of D_1..D_(d-i), never D_0."""
    s = module.dimension()
    s = 0 if s == NEG_INF else int(s)
    if s < 2:
        raise IndexOutOfRange("torsions need dimension at least 2")
    if i < 1 or i > s - 1:
        raise IndexOutOfRange(f"torsion index {i} outside 1..{s - 1}")
    gens = _gens_for(q)
    duals = dual_sections(module)
    return sum(binomial(s - i - 1, j - 1) * hdeg(duals[j].module, gens)
               for j in range(1, s - i + 1))


def _multiples_sections_series(module: GradedModule, gens) -> dict:
    """Numerator of HS(H⁰(QM)) = HS((u ∩ P)/N) over (1-t)^n, u = h0_submodule
    and P = N + QF, memoized per Q, by 0 -> F/(u ∩ P) -> F/u ⊕ F/P ->
    F/(u + P) -> 0 from one basis of u + P with P's as its prefix; zero iff
    P meets u in N alone, as when H⁰(M) = 0 and u is N, where no basis of
    u + P is built.  Under --verify-gb u ∩ P is built, and must agree."""
    def build():
        first, second = module.power_submodule(gens), module.h0_submodule()
        relations = hilbert_series(module.relations)
        series = {} if second == module.relations else combine_series(
            (1, 0, relations), (-1, 0, hilbert_series(first)),
            (-1, 0, hilbert_series(second)),
            (1, 0, hilbert_series(groebner_basis(
                module.ambient, list(first.gb) + list(second.gb),
                assume_reduced_prefix=len(first.gb)))))
        if debug_verification_enabled() and series != combine_series(
                (1, 0, relations), (-1, 0, hilbert_series(
                    submodule_intersect(first, second)))):
            raise CrossCheckFailure(
                "the intersection series and the intersection disagree")
        return series
    return module._memo(("H0(QM)", frozenset(gens)), build)


def finite_length_twin(module: GradedModule, gens, kind: str) -> tuple:
    """(hdeg, first torsion) of L = QM (kind "QM", d >= 1, torsion None) or
    L = M/H⁰(M) (kind "M/H0", d >= 2), d = dim M, off M's own duals D_j =
    Ext^(n-j)(-, S), with no resolution of L.  Ext^i vanishes below n on the
    finite-length difference, so D_j(L) ≅ D_j(M) for j >= 2 (QM) and j >= 1
    (M/H⁰(M), whose D_0 is 0) (Bruns-Herzog, 3.5, 4.1; Vasconcelos 1998):
    hdeg(M/H⁰M) = hdeg(M) - ℓ(H⁰M), torsions equal.  For QM, with E_i(N) the
    numerator of HS(Ext^i(N, S)), P_N that of HS(N), Σ(-1)^i E_i = P(1/t)
    and H = H⁰(QM): E_n(QM) = (-1)^n P_H(1/t), E_(n-1)(QM) = E_(n-1)(M) -
    E_n(M) + (-1)^n (P_H + P_(M/QM))(1/t), and hdeg(QM) = e_Q(M) + ℓ(H) +
    (d-1)·hdeg(D_1(QM)) + Σ_(j>=2) C(d-1, j)·hdeg(D_j(M)), where
    hdeg(D_1(QM)) is E_(n-1)(QM) at t = 1 unless that has positive
    dimension, and only then is D_1(QM) presented off L's resolution.  Under
    --verify-gb an L ≠ M is resolved and dualized too, and must agree."""
    n, d = module.algebra.ring.nvars, int(module.dimension())
    verify = debug_verification_enabled()
    twin = lambda: module._memo((kind, frozenset(gens)), lambda: (
        present_subquotient(module.algebra, module.ideal_multiples(list(gens)),
                            module.relations, module.ambient) if kind == "QM"
        else module.quotient_by_submodule(module.h0_submodule())))
    ext = lambda m, j: hilbert_series(ext_module(m, n - j).relations)
    bar = lambda num: {-t: (-1) ** n * c for t, c in num.items()}
    if kind == "M/H0":
        shared, predicted = range(1, d), {0: {}}
        got = (hdeg(module, gens) - module.h0_length(),
               torsion(module, gens, 1))
    else:
        shared, sections = range(2, d), _multiples_sections_series(module, gens)
        predicted = {0: bar(sections)}
        if d >= 2 or verify:
            predicted[1] = combine_series((1, 0, bar(combine_series(
                (1, 0, sections),
                (1, 0, hilbert_series(module.power_submodule(gens)))))),
                (1, 0, ext(module, 1)), (-1, 0, ext(module, 0)))
        h = multiplicity(module, gens) + series_length(sections, n) + sum(
            binomial(d - 1, j) * hdeg(ext_module(module, n - j), gens)
            for j in shared)
        if d >= 2:
            dim1, len1 = series_dimension(predicted[1], n)
            h += (d - 1) * (len1 if dim1 <= 0
                            else hdeg(ext_module(twin(), n - 1), gens))
        got = (h, None)
    if verify and twin() is not module:  # M/H⁰(M) is M when H⁰(M) = 0
        predicted.update({j: ext(module, j) for j in shared})
        bad = [j for j in sorted(predicted) if ext(twin(), j) != predicted[j]]
        want = (hdeg(twin(), gens),
                torsion(twin(), gens, 1) if kind == "M/H0" else None)
        if bad or want != got:
            raise CrossCheckFailure(
                f"finite_length_twin ({kind}): L's own duals at {bad} differ "
                f"from M's, or hdeg and torsion {want} from {got}")
    return got


def sv_invariant(module: GradedModule) -> int:
    """Binomially weighted lengths of the cohomology duals below the
    dimension; defined only when all of them have finite length."""
    s = module.dimension()
    if s == NEG_INF or int(s) <= 0:
        return 0
    s = int(s)
    duals = dual_sections(module)
    for j in range(s):
        if not duals[j].finite_length:
            raise NotGeneralizedCM(
                f"the dual at index {j} has positive dimension")
    return sum(binomial(s - 1, j) * duals[j].module.total_length()
               for j in range(s))


# -- element tests ------------------------------------------------------------

class CheckResult(Record):
    name: str
    status: str  # pass | fail | skipped
    details: dict = dict

    @property
    def ok(self) -> bool:
        return self.status != "fail"


class SuperficialityReport(Record):
    status: str  # verified | refuted | inconclusive
    window_start: int = None
    colon_length: int = None
    witness: str = None


def _annihilator(a, module: GradedModule):
    """(d, e) for (0 :_M a) = (N : a)/N: its Krull dimension and the
    multiplicity of its Hilbert series, the length when d <= 0, read off
    colon_quotient_series with the module's memoized basis of N + aF.
    Memoized per element and --verify-gb state: a module can outlive a run."""
    return module._memo(
        ("annihilator", a, debug_verification_enabled()),
        lambda: series_dimension(colon_quotient_series(
            module.relations, a, extended=module.power_submodule([a])),
            module.algebra.ring.nvars))


def _windowed_superficial(a, module: GradedModule, qgens, c_max=3, window=2):
    """Colon-window test: (Q^{n+1}M : a) ∩ Q^c M = Q^n M for c <= c_max and
    a window of n, after refuting when (0 :_M a) has positive dimension.
    Returns (status, start).  The levels L_k = N + Q^k F are the
    module's power_submodule bases, shared with the direct table route.  A
    heuristic, kept for what the graded test cannot decide: a one-power Q
    whose weight-D form of a is not filter-regular on gr_W(M), a Q with two
    or more powers or a form that is not a power, and a Q leaving M/QM of
    infinite length; ROADMAP item 3 deletes it.

    Each (c, n) is read off Hilbert series, with no colon or intersection
    built.  a must lie in Q + I, as every caller ensures: then a·L_n lies
    in L_(n+1), and v -> av maps Q^cM/Q^nM to M/Q^(n+1)M with kernel
    lhs/L_n, where lhs = (L_(n+1) : a) ∩ L_c.  So lhs = L_n exactly when
    HS(F/L_n) - HS(F/L_c) - HS(L_c/lhs) is zero.  HS(L_c/lhs) is the
    colon_series of L_(n+1) by a within the basis elements of L_c outside
    L_n, which generate L_c modulo L_n: one basis of L_(n+1) plus their
    multiples by a, and none at n = c, where the step always holds.  Under
    --verify-gb every step is also decided by the colon and the
    intersection, and the two must agree."""
    if _annihilator(a, module)[0] > 0:
        return "refuted", None
    level = lambda k: module.power_submodule(qgens, k)
    for c in range(1, c_max + 1):
        good = True
        for n in range(c, c + window + 1):
            outside = [g for g in level(c).gb if not level(n).contains(g)]
            kernel = combine_series(
                (1, 0, hilbert_series(level(n))),
                (-1, 0, hilbert_series(level(c))),
                (-1, 0, colon_series(level(n + 1), a, outside)))
            if debug_verification_enabled():
                lhs = submodule_intersect(
                    submodule_colon(level(n + 1), a), level(c))
                if (lhs == level(n)) != (not kernel):
                    raise CrossCheckFailure(
                        f"_windowed_superficial at c = {c}, n = {n}: the "
                        "kernel series and the colon disagree")
            if kernel:
                good = False
                break
        if good:
            return "verified", c
    return "inconclusive", None


def _initial_module(module: GradedModule, gens):
    """N*_W with gr_W(M) = F/N*_W, in the table engine's ambient, where
    Q = (x_1..x_(b-1), x_b^D) and W = D·|a| + k is its block weight.  The
    tangent-cone order refines the W-adic filtration and takes each lead
    from the lowest-weight form, so the lowest-weight forms of the engine's
    reduced basis are the reduced basis of N*_W, with the same leads
    (Eisenbud, Commutative Algebra, 15.17); each must keep its lead.  For
    linear Q, D = 1, W is the x-degree and F/N*_W is gr_Q(M)."""
    def build():
        eng = _engine(module, gens)
        ambient, forms = eng.basis_t.ambient, []
        for g in eng.basis_t.gb:
            weights = {t: eng.coords.block_weight(t[1]) for t in g.terms}
            low = min(weights.values())
            forms.append(FreeElement(ambient, {
                t: c for t, c in g.terms.items() if weights[t] == low},
                _checked=True))
            if forms[-1].lead_term()[0] != g.lead_term()[0]:
                raise CrossCheckFailure("a lowest-weight form lost its lead")
        initial = SubmoduleBasis(ambient, forms)
        if debug_verification_enabled():
            verify_basis(initial)
        return initial
    return module._memo(("initial", frozenset(gens)), build)


def _tangent_ideal(algebra: GradedAlgebra, gens):
    """Basis of the defining ideal I in the algebra's coordinates for Q =
    (gens), in their weighted tangent-cone order."""
    def build():
        coords = graded_coordinates(algebra, gens)
        F = FreeModule(algebra.ring, (0,), tangent_block=coords.block,
                       tangent_weight=coords.weight)
        return groebner_basis(F, [
            poly_in_position(F, coords.change.poly(f), 0)
            for f in algebra.ideal_gens])
    return algebra._memo(("tangent ideal", frozenset(gens)), build)


def _graded_superficial(a, module: GradedModule, gens) -> bool:
    """Whether the weight-D form a*_W of a is filter-regular on
    G_W = gr_W(M) = F/N*_W, that is, whether (0 :_G a*_W) = (N*_W : a*_W)/N*_W
    has finite length, that is, whether its colon_quotient_series has no
    pole at t = 1.

    Then a is superficial for Q: if v has W-order j, with c <= j < w, and
    av lies in F_(w+D)M, then a*_W·v* = 0, which cannot happen once c passes
    the top weight of (0 :_G a*_W); so (F_(w+D)M : a) ∩ F_cM ⊆ F_wM, and
    w = nD is the Q-adic statement, since Q^n M = F_(nD)M.  For linear Q
    (D = 1) G_W is gr_Q(M) and the converse holds too.

    a acts on M only through its class modulo the defining ideal I.  An a
    given in Q + I but not in Q has terms of weight below D; it is replaced
    by its normal form modulo I in the tangent-cone order, which takes
    leads from the lowest-weight forms, so that the normal form has the
    largest W-order among the representatives of a.  False when that
    W-order is not exactly D, where a*_W says nothing.  (An a of W-order
    above D lies in mQ + I.)"""
    coords = _engine(module, gens).coords
    star = coords.change.poly(a)
    if min(coords.block_weight(e) for e in star.terms) < coords.weight:
        ideal = _tangent_ideal(module.algebra, gens)
        star = ideal.normal_form(
            poly_in_position(ideal.ambient, star, 0)).component(0)
    weights = {e: coords.block_weight(e) for e in star.terms}
    if not weights or min(weights.values()) != coords.weight:
        return False
    star = Polynomial(star.ring, {e: c for e, c in star.terms.items()
                                  if weights[e] == coords.weight},
                      _checked=True)
    killed = colon_quotient_series(_initial_module(module, gens), star)
    return series_dimension(killed, module.algebra.ring.nvars)[0] <= 0


def _superficial_status(a, module: GradedModule, gens):
    """(status, window start) for one element.  On the graded table route
    a filter-regular weight-D form gives verified, and for linear Q a
    zero-divisor gives refuted; under --verify-gb a conclusive colon window
    must agree with either.  The colon window decides the rest: a one-power
    Q whose form is a zero-divisor, and every Q off the graded route.
    Memoized on the module per element and set of generators, since the
    d-sequence search asks again for the candidates of every attempt, and
    per the run's --verify-gb state, so that a verdict reached unchecked is
    never handed out as a checked one by a later run on the same module."""
    def build():
        try:
            coords = _engine(module, gens).coords
        except InfiniteLength:
            coords = None
        if coords is not None:
            exact = _graded_superficial(a, module, gens)
            if exact or coords.weight == 1:
                if debug_verification_enabled():
                    window, _ = _windowed_superficial(a, module, gens)
                    if (window != "inconclusive"
                            and (window == "verified") != exact):
                        raise CrossCheckFailure(
                            f"the colon window says {window} but the initial "
                            f"form is {'' if exact else 'not '}filter-regular "
                            "on the associated graded module")
                return ("verified" if exact else "refuted"), None
        return _windowed_superficial(a, module, gens)
    return module._memo(("superficial", a, frozenset(gens),
                         debug_verification_enabled()), build)


def is_superficial(a, module: GradedModule, q) -> SuperficialityReport:
    """Test a single element against the powers of the ideal: refuted when
    its annihilator has positive dimension; then, with ℓ(M/QM) finite,
    decided exactly on gr_Q(M) for linear Q, and verified on gr_W(M) when
    Q is linear forms plus one power and the weight-D form of a is
    filter-regular there; by the three-valued colon window otherwise.  A
    verified element in dimension >= 2 additionally has its effect on the
    Hilbert coefficients of the quotient checked exactly."""
    gens = _gens_for(q)
    algebra = module.algebra
    if not a:
        raise PreconditionViolation("the zero element is never superficial")
    inside = algebra.ideal_basis(gens)
    probe = poly_in_position(inside.ambient, a, 0)
    if not inside.contains(probe):
        raise PreconditionViolation("the element is not in the ideal")
    deep = algebra.ideal_basis(gens, times_m=True)
    if deep.contains(poly_in_position(deep.ambient, a, 0)):
        raise PreconditionViolation(
            "the element lies in the irrelevant multiple of the ideal")
    dim0, length0 = _annihilator(a, module)
    if dim0 > 0:
        return SuperficialityReport(
            "refuted", witness="the annihilator of the element has dimension "
            f"{dim0}")
    status, start = _superficial_status(a, module, gens)
    if status == "refuted":
        return SuperficialityReport(
            "refuted", witness="the initial form of the element is not "
            "filter-regular on the associated graded module")
    if status == "verified":
        d = module.dimension()
        if d != NEG_INF and int(d) >= 2:
            d = int(d)
            bar = module.quotient_by_ideal([a])
            if int(bar.dimension()) != d - 1:
                raise CrossCheckFailure(
                    "quotient by a verified superficial element has the "
                    "wrong dimension")
            cm = module_coefficients(module, gens)
            cb = module_coefficients(bar, gens)
            for i in range(d - 1):
                if cm.e[i] != cb.e[i]:
                    raise CrossCheckFailure(
                        f"coefficient {i} changed across a superficial "
                        f"quotient: {cm.e[i]} vs {cb.e[i]}")
            sign = (-1) ** (d - 1)
            if sign * (cb.e[d - 1] - cm.e[d - 1]) != length0:
                raise CrossCheckFailure(
                    "the final coefficient shift does not equal the length "
                    "of the annihilator")
    return SuperficialityReport(status, window_start=start,
                                colon_length=length0)


class DSequenceReport(Record):
    holds: bool
    violation: tuple = None  # (i, j) on failure, 1-based
    witness: str = None


def is_d_sequence(seq: ParameterSequence) -> DSequenceReport:
    """Colon test over all index pairs: the colon of each prefix submodule
    P by a product of two later entries must equal the colon by the second
    factor alone.  P : a_j lies inside P : a_i·a_j, so the two are equal
    exactly when F modulo each has the same Hilbert series, which
    colon_series reads off one basis of P + fF each.  For a failing pair
    the witness is the first element g of the reduced basis of P : a_i·a_j
    outside P : a_j, that is with a_j·g outside P: one normal form each,
    with no basis of P : a_j.  Under --verify-gb both colons are built for
    every pair, and they must agree with the series."""
    m = seq.module
    d = seq.count
    for i in range(1, d + 1):
        prefix = m.power_submodule(seq.prefix(i - 1))
        for j in range(i, d + 1):
            ai, aj = seq.gens[i - 1], seq.gens[j - 1]
            # P + a_i·F is the next prefix level, memoized on the module
            same = colon_series(prefix, ai * aj) == colon_series(
                prefix, aj, extended=(m.power_submodule(seq.prefix(i))
                                      if j == i else None))
            if same and not debug_verification_enabled():
                continue
            lhs = submodule_colon(prefix, ai * aj)
            witness = None if same else next(
                (g for g in lhs.gb
                 if not prefix.contains(poly_times_element(aj, g))), None)
            if debug_verification_enabled():
                rhs = submodule_colon(prefix, aj)
                named = None if same else next(
                    (g for g in lhs.gb if rhs.normal_form(g)), None)
                if (lhs == rhs) != same or named is not witness:
                    raise CrossCheckFailure(
                        f"is_d_sequence at {(i, j)}: the colon series, the "
                        "colons and the witness disagree")
            if not same:
                return DSequenceReport(False, (i, j),
                                       str(witness) if witness else None)
    return DSequenceReport(True)


def find_d_sequence_generators(q, module: GradedModule, budget: int = 24,
                               seed: int = 0):
    """Seeded search for an ordering and change of generators that passes
    the colon test.  Each attempt draws one invertible scalar matrix per
    generator degree, then orders the new generators greedily so that every
    prefix element is superficial on the successive quotients: decided
    exactly on gr_Q for linear Q, verified on gr_W for linear forms plus
    one power, and screened by the colon window whatever that leaves open,
    where an inconclusive candidate is the fallback.  The transcript of
    attempts rides along on the returned sequence for replay."""
    seq = _sequence_for(module, q)
    d = seq.count
    if d < 1:
        raise PreconditionViolation("the search needs dimension at least 1")
    ring = module.algebra.ring
    p = ring.prime
    rng = random.Random(seed)
    by_degree = {}
    for idx, g in enumerate(seq.gens):
        by_degree.setdefault(g.degree, []).append(idx)
    deep = module.algebra.ideal_basis(seq.gens, times_m=True)
    transcript = []
    for attempt in range(budget):
        if attempt == 0:
            new_gens = list(seq.gens)
            matrices = "identity"
        else:
            new_gens = [None] * d
            matrices = []
            for deg in sorted(by_degree):
                idxs = by_degree[deg]
                g = len(idxs)
                while True:
                    mat = [[rng.randrange(p) for _ in range(g)]
                           for _ in range(g)]
                    try:
                        invert_matrix(mat, p)
                        break
                    except SingularMatrix:
                        continue
                matrices.append({"degree": deg, "rows": mat})
                for r, row in enumerate(mat):
                    acc = None
                    for t, c in enumerate(row):
                        if c % p == 0:
                            continue
                        piece = ring.constant(c) * seq.gens[idxs[t]]
                        acc = piece if acc is None else acc + piece
                    new_gens[idxs[r]] = acc
        entry = {"attempt": attempt, "matrices": matrices}
        if any(g is None or not g for g in new_gens):
            entry["outcome"] = "degenerate combination"
            transcript.append(entry)
            continue
        remaining = list(new_gens)
        chosen = []
        current = module
        stuck = None
        for step in range(d):
            pick = None
            fallback = None
            for idx, cand in enumerate(remaining):
                if deep.contains(poly_in_position(deep.ambient, cand, 0)):
                    continue
                after = current.quotient_by_ideal([cand])
                want = d - step - 1
                dim_after = after.dimension()
                if (want == 0 and dim_after not in (NEG_INF, 0)) or \
                        (want > 0 and dim_after != want):
                    continue
                status, _ = _superficial_status(cand, current, seq.gens)
                if status == "verified":
                    pick = idx
                    break
                # only the colon window is inconclusive
                if status == "inconclusive" and fallback is None:
                    fallback = idx
            if pick is None:
                pick = fallback  # the colon test below still decides
            if pick is None:
                stuck = step
                break
            chosen.append(remaining.pop(pick))
            # memoized: the quotient built while screening the pick
            current = current.quotient_by_ideal([chosen[-1]])
        if stuck is not None:
            entry["outcome"] = f"no screened candidate at step {stuck}"
            transcript.append(entry)
            continue
        entry["ordering"] = [str(g) for g in chosen]
        cand_seq = ParameterSequence(module, chosen)
        rep = is_d_sequence(cand_seq)
        if rep.holds:
            entry["outcome"] = "accepted"
            transcript.append(entry)
            cand_seq.search_transcript = transcript
            return cand_seq
        entry["outcome"] = f"colon test failed at {rep.violation}"
        entry["witness"] = rep.witness
        transcript.append(entry)
    raise NotFoundWithinBudget(
        f"no d-sequence ordering found in {budget} attempts", transcript)


# -- checkers -----------------------------------------------------------------

class DSequenceCoefficientReport(Record):
    coefficients: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def check_prop38(module: GradedModule, seq) -> DSequenceCoefficientReport:
    """For a d-sequence system: the leading coefficient against the top
    colon, every signed coefficient against a difference of finite-section
    lengths, and the closed-form length polynomial against the table on a
    short window."""
    seq = _sequence_for(module, seq)
    rep = is_d_sequence(seq)
    if not rep.holds:
        raise PreconditionViolation(
            f"generators are not a d-sequence (witness {rep.witness})")
    d = seq.count
    c = module_coefficients(module, seq.gens)
    e = c.e
    checks = []
    if d >= 1:
        # ℓ((P : a_d)/P) for P = N + (a_1..a_(d-1))F; P + a_d·F is the
        # memoized quotient basis
        extra = series_length(colon_quotient_series(
            module.power_submodule(seq.prefix(d - 1)), seq.gens[d - 1],
            extended=seq.quotient_basis), module.algebra.ring.nvars)
        got = seq.covolume() - extra
        checks.append(CheckResult(
            "leading coefficient from the top colon",
            "pass" if e[0] == got else "fail",
            {"coefficient": e[0], "covolume": seq.covolume(),
             "colon defect": extra}))
        for i in range(1, d):
            big = module.quotient_by_ideal(
                list(seq.prefix(d - i))).h0_length()
            small = module.quotient_by_ideal(
                list(seq.prefix(d - i - 1))).h0_length()
            want = big - small
            got_i = ((-1) ** i) * e[i]
            checks.append(CheckResult(
                f"signed coefficient {i} from finite sections",
                "pass" if got_i == want else "fail",
                {"signed": got_i, "sections": (big, small)}))
        top = module.h0_length()
        got_d = ((-1) ** d) * e[d]
        checks.append(CheckResult(
            f"signed coefficient {d} equals the finite-section length",
            "pass" if got_d == top else "fail",
            {"signed": got_d, "sections": top}))
    table = hilbert_samuel_table(module, seq.gens, d + 3)
    mism = [n for n in range(d + 4) if c.value_at(n) != table.values[n]]
    checks.append(CheckResult(
        "closed form reproduces the table",
        "pass" if not mism else "fail",
        {"window": list(table.values[:d + 4]), "mismatches": mism}))
    return DSequenceCoefficientReport(e, tuple(checks))


class EquivalenceReport(Record):
    lhs: int
    rhs: int
    equality: bool
    coefficient_rows: tuple  # (index, signed coefficient, target)
    covolume_defect: int
    condition2: bool
    consequences: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.consequences)


def _not_annihilating(polys, module: GradedModule) -> list:
    """The polys g with g·M != 0.  g kills M = F/N exactly when g·e_j lies
    in N for every position j, one membership test each, so no annihilator
    is built.  Under --verify-gb the annihilator is also built as a kernel,
    and the two must name the same polys."""
    out = [g for g in polys
           if not module.relations.contains_all(module.ideal_multiples([g]))]
    if debug_verification_enabled():
        ann = module.annihilator()
        built = [g for g in polys
                 if not ann.contains(poly_in_position(ann.ambient, g, 0))]
        if built != out:
            raise CrossCheckFailure(
                f"_not_annihilating: {[str(g) for g in out]} act nonzero by "
                f"membership, {[str(g) for g in built]} by the annihilator")
    return out


def check_theorem34(module: GradedModule, q, seed: int = 0,
                    budget: int = 24) -> EquivalenceReport:
    """The main equivalence: the sectional genus meets its torsion bound
    exactly if and only if every middle signed coefficient equals the
    matching torsion, the last one equals the finite-section length, and
    the covolume defect vanishes.  A mismatch between the two sides raises,
    loudly.  When the equality holds the downstream consequences are also
    verified: a d-sequence system is searched for, the closed form must
    reproduce the table, and the two vanishing statements are checked."""
    seq = _sequence_for(module, q)
    d = seq.count
    if d < 2:
        raise PreconditionViolation("the equivalence needs dimension >= 2")
    c = module_coefficients(module, seq.gens)
    e = c.e
    lhs = seq.covolume() - e[0] + e[1]
    rhs = hdeg(module, seq.gens) - e[0] - torsion(module, seq.gens, 1)
    cond1 = lhs == rhs
    rows = []
    ok2 = True
    for i in range(2, d):
        want = torsion(module, seq.gens, i)
        got = ((-1) ** i) * e[i]
        rows.append((i, got, want))
        ok2 = ok2 and got == want
    h0_len = module.h0_length()
    got_d = ((-1) ** d) * e[d]
    rows.append((d, got_d, h0_len))
    ok2 = ok2 and got_d == h0_len
    defect = seq.covolume() - sum(((-1) ** i) * e[i] for i in range(d + 1))
    cond2 = ok2 and defect == 0
    if cond1 != cond2:
        raise EquivalenceViolation(
            f"genus equality is {cond1} ({lhs} vs {rhs}) but the "
            f"coefficient conditions give {cond2} (rows {rows}, "
            f"defect {defect})")
    consequences = []
    if cond1:
        try:
            found = find_d_sequence_generators(seq, module, budget=budget,
                                               seed=seed)
            consequences.append(CheckResult(
                "d-sequence generators found", "pass",
                {"generators": [str(g) for g in found.gens],
                 "attempts": len(found.search_transcript)}))
        except NotFoundWithinBudget as err:
            consequences.append(CheckResult(
                "d-sequence generators found", "fail",
                {"budget": budget, "attempts": len(err.transcript)}))
        table = hilbert_samuel_table(module, seq.gens, d + 3)
        bad = [n for n in range(d + 4) if c.value_at(n) != table.values[n]]
        if bad:
            raise CrossCheckFailure(
                f"closed form fails on the table at {bad}")
        consequences.append(CheckResult(
            "closed form reproduces the table", "pass",
            {"window": list(table.values[:d + 4])}))
        if _multiples_sections_series(module, seq.gens):
            raise CrossCheckFailure(
                "the parameter multiples meet the finite sections")
        consequences.append(CheckResult(
            "parameter multiples meet no finite section", "pass"))
        duals = dual_sections(module)
        for i in range(1, d - 2):
            missing = [str(g) for g in
                       _not_annihilating(seq.gens, duals[i].module)]
            if missing:
                raise CrossCheckFailure(
                    f"the ideal does not annihilate the dual at {i}: "
                    f"{missing}")
            consequences.append(CheckResult(
                f"ideal annihilates the dual at index {i}", "pass"))
    return EquivalenceReport(lhs, rhs, cond1, tuple(rows), defect, cond2,
                             tuple(consequences))


def inequality_suite(module: GradedModule, q) -> tuple:
    """Every inequality and transfer law on one instance, each reported
    with its numbers.  Engine-level cross-checks raise; statements about
    the mathematics are reported pass/fail.  hdeg(QM), for degree
    subadditivity, comes off M's duals (`finite_length_twin`)."""
    seq = _sequence_for(module, q)
    d = seq.count
    gens = seq.gens
    c = module_coefficients(module, gens)
    e = c.e
    chi = euler_chi1(module, seq)[0]
    h = hdeg(module, gens)
    checks = [CheckResult(
        "first Euler characteristic is nonnegative",
        "pass" if chi >= 0 else "fail", {"chi1": chi})]
    checks.append(CheckResult(
        "first Euler characteristic bounded by the degree defect",
        "pass" if chi <= h - e[0] else "fail",
        {"chi1": chi, "hdeg": h, "e0": e[0]}))
    genus = None
    if d >= 1:
        genus = seq.covolume() - e[0] + e[1]
    if d >= 2:
        t1 = torsion(module, gens, 1)
        checks.append(CheckResult(
            "sectional genus bounded by the torsion defect",
            "pass" if genus <= h - e[0] - t1 else "fail",
            {"genus": genus, "bound": h - e[0] - t1}))
        checks.append(CheckResult(
            "second coefficient sandwiched by the first torsion",
            "pass" if 0 >= e[1] >= -t1 else "fail",
            {"e1": e[1], "torsion1": t1}))
        duals = dual_sections(module)
        ident = e[0] + sum(binomial(d - 2, j) * hdeg(duals[j].module, gens)
                           for j in range(d - 1))
        checks.append(CheckResult(
            "degree minus first torsion identity",
            "pass" if h - t1 == ident else "fail",
            {"hdeg": h, "torsion1": t1, "weighted sum": ident}))
    if d == 1:
        drep = is_d_sequence(seq)
        checks.append(CheckResult(
            "sectional genus is nonpositive in dimension one",
            "pass" if genus <= 0 else "fail", {"genus": genus}))
        checks.append(CheckResult(
            "genus vanishing matches the colon test",
            "pass" if (genus == 0) == drep.holds else "fail",
            {"genus": genus, "d_sequence": drep.holds}))
    if d >= 1:
        bound = finite_length_twin(module, gens, "QM")[0] + seq.covolume()
        checks.append(CheckResult(
            "degree subadditivity along the parameter filtration",
            "pass" if h <= bound else "fail",
            {"hdeg": h, "inner": bound - seq.covolume(),
             "covolume": seq.covolume()}))
    if d >= 2:
        checks.append(_superficial_transfer(module, seq, c))
        checks.append(_section_transfer(module, seq, c))
    if d >= 1:
        if all(ds.finite_length for ds in dual_sections(module)):
            sv = sv_invariant(module)
            checks.append(CheckResult(
                "degree defect equals the weighted section sum",
                "pass" if h - e[0] == sv else "fail", {"defect": h - e[0],
                                                       "sv": sv}))
            checks.append(CheckResult(
                "covolume defect bounded by the weighted section sum",
                "pass" if seq.covolume() - e[0] <= sv else "fail",
                {"covolume defect": seq.covolume() - e[0], "sv": sv}))
        else:
            checks.append(CheckResult(
                "degree defect equals the weighted section sum", "skipped",
                {"reason": "a cohomology dual has positive dimension"}))
    return tuple(checks)


def _superficial_transfer(module, seq, c) -> CheckResult:
    """Genus transfer to the quotient by one verified superficial element;
    in dimension two the annihilator length is the exact correction."""
    d = seq.count
    pick = None
    for cand in seq.gens:
        try:
            rep = is_superficial(cand, module, seq.gens)
        except PreconditionViolation:
            continue
        if rep.status == "verified":
            pick = (cand, rep)
            break
    if pick is None:
        return CheckResult("genus transfer across a superficial element",
                           "skipped",
                           {"reason": "no generator passed the window test"})
    cand, rep = pick
    bar = module.quotient_by_ideal([cand])
    cb = module_coefficients(bar, seq.gens)
    bar_cov = covolume(bar, seq.gens)
    bar_genus = bar_cov - cb.e[0] + cb.e[1]
    genus = seq.covolume() - c.e[0] + c.e[1]
    correction = rep.colon_length if d == 2 else 0
    return CheckResult(
        "genus transfer across a superficial element",
        "pass" if genus == bar_genus + correction else "fail",
        {"element": str(cand), "genus": genus, "quotient genus": bar_genus,
         "correction": correction})


def _section_transfer(module, seq, c) -> CheckResult:
    """The torsion-bound equality holds for the module exactly when it
    holds after removing the finite sections and the parameter multiples
    miss them.  M/H⁰(M)'s hdeg and torsion come off M's duals
    (`finite_length_twin`), and the miss off HS(H⁰(QM))."""
    gens = seq.gens
    e = c.e
    eq_m = (seq.covolume() - e[0] + e[1]
            == hdeg(module, gens) - e[0] - torsion(module, gens, 1))
    chopped = module.quotient_by_submodule(module.h0_submodule())
    if chopped.is_zero():
        return CheckResult("equality transfer past the finite sections",
                           "skipped", {"reason": "nothing left after the "
                                       "finite sections"})
    cc = module_coefficients(chopped, gens)
    cov = covolume(chopped, gens)
    h, t1 = finite_length_twin(module, gens, "M/H0")
    eq_c = cov - cc.e[0] + cc.e[1] == h - cc.e[0] - t1
    trivial = not _multiples_sections_series(module, gens)
    return CheckResult(
        "equality transfer past the finite sections",
        "pass" if eq_m == (eq_c and trivial) else "fail",
        {"equality": eq_m, "chopped equality": eq_c,
         "intersection trivial": trivial})


# -- the aggregate ------------------------------------------------------------

class InvariantReport(Record):
    dimension: int
    depth: int
    covolume: int
    coefficients: tuple
    postulation: int
    sectional_genus: int
    chi1: tuple
    hdeg: int
    torsions: tuple
    generalized_cm: bool
    sv: int
    duals: tuple


def invariant_report(module: GradedModule, q) -> InvariantReport:
    """Every headline number for one module and one parameter system."""
    from .homology import depth as _depth
    seq = _sequence_for(module, q)
    d = seq.count
    c = module_coefficients(module, seq.gens)
    duals = dual_sections(module)
    rows = []
    for ds in duals:
        dim_j = ds.module.dimension()
        rows.append({
            "index": ds.index,
            "dimension": None if dim_j == NEG_INF else int(dim_j),
            "finite": ds.finite_length,
            "length": ds.module.total_length() if ds.finite_length else None,
            "hdeg": hdeg(ds.module, seq.gens),
        })
    generalized = all(ds.finite_length for ds in duals)
    return InvariantReport(
        dimension=d,
        depth=_depth(module),
        covolume=seq.covolume(),
        coefficients=c.e,
        postulation=c.postulation,
        sectional_genus=(seq.covolume() - c.e[0] + c.e[1]) if d >= 1 else 0,
        chi1=euler_chi1(module, seq),
        hdeg=hdeg(module, seq.gens),
        torsions=tuple(torsion(module, seq.gens, i) for i in range(1, d))
        if d >= 2 else (),
        generalized_cm=generalized,
        sv=sv_invariant(module) if generalized else None,
        duals=tuple(rows))
