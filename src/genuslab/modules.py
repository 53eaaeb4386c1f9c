"""Graded algebras, finitely presented graded modules, and the submodule
calculus: colon, intersection, powers, annihilator, sections with finite
support, dimension, length, quotients, sums, idealization.

A module is always a pair (free ambient F over the polynomial ring, relation
submodule N), with the algebra's defining ideal folded into N so that F/N is
genuinely a module over the quotient ring.  All derived data is cached
lazily through `_memo`, on the algebra or module it belongs to; every value,
once computed, is immutable.  One presentation is one object, with one
cache: M's quotient by its own relations is M, and the algebra's ideals live
on its one rank-one module S/I.  In particular every submodule N + Q^k F,
the filtration that the length tables, the colon tests and the quotients
M/QM are read off, is built by one method, `GradedModule.power_submodule`,
and kept on its module.  A submodule is its reduced basis (SubmoduleBasis).
The kernels here, the colon, intersection and annihilator, are one
construction, `stacked_kernel`: the kernel of a map into a direct sum of
shifted quotients F/N_b.  They are built where a caller needs their elements
and otherwise only under --verify-gb: what is only measured is read off
Hilbert series (`colon_series`, `colon_quotient_series`), and annihilation
is tested by membership.  Minimal generators are picked one way,
`minimal_picks`, and every subquotient is presented on its picks, so no
presentation has a unit entry.
"""
from __future__ import annotations

from .errors import (CrossCheckFailure, DependentRows, IncompleteBasis,
                     InfiniteLength, NonStandardGrading, NotLinearForm,
                     PreconditionViolation, RaggedMatrix, SingularMatrix,
                     ZeroModule)
from .groebner import (NEG_INF, BuchbergerState, SubmoduleBasis,
                       combine_series, debug_verification_enabled,
                       groebner_basis, hilbert_series, kernel_of_map,
                       quotient_total_length, series_dimension,
                       series_length)
from .ring import (FreeElement, FreeModule, Polynomial, PolyRing,
                   poly_in_position, poly_times_element)


def _as_poly_list(f):
    return [f] if isinstance(f, Polynomial) else list(f)


class _Memoized:
    """Values derived lazily from an immutable object, each built once and
    kept in the object's own `_cache` under its key."""

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


class GradedAlgebra(_Memoized):
    """Quotient of a standard graded polynomial ring by a homogeneous ideal.
    I, its ideals (polys) + I and its dimension are read off S/I."""

    def __init__(self, ring: PolyRing, ideal_gens=()):
        self.ring = ring
        self.ideal_gens = tuple(f for f in ideal_gens if f)
        self._cache = {}

    def defining_basis(self) -> SubmoduleBasis:
        return self.cyclic_module().relations

    def ideal_basis(self, polys, times_m: bool = False) -> SubmoduleBasis:
        """Basis of the ideal (polys) + I of the polynomial ring, or of
        m·(polys) + I when times_m: a power_submodule level of S/I."""
        polys = [f for f in polys if f]
        if times_m:
            polys = [v * f for v in self.variables() for f in polys]
        return self.cyclic_module().power_submodule(polys)

    def dimension(self):
        return self.cyclic_module().dimension()

    def variables(self):
        return [self.ring.variable(i) for i in range(self.ring.nvars)]

    def cyclic_module(self, twist: int = 0) -> "GradedModule":
        return self._memo(("cyclic", twist),
                          lambda: GradedModule(self, (twist,), []))

    def __repr__(self):
        return (f"GradedAlgebra({','.join(self.ring.variables)} mod "
                f"{len(self.ideal_gens)} relations, p={self.ring.prime})")


class GradedModule(_Memoized):
    """F/N for a graded free ambient F and relation submodule N ⊇ I·F."""

    def __init__(self, algebra: GradedAlgebra, twists, relations,
                 relations_complete: bool = False):
        self.algebra = algebra
        self.twists = tuple(twists)
        self.ambient = FreeModule(algebra.ring, self.twists)
        if isinstance(relations, SubmoduleBasis):
            if relations.ambient.twists != self.twists:
                raise ValueError("relation basis lives in a different ambient")
            if relations_complete:
                self.relations = relations
            else:
                ideal_cols = self._ideal_columns()
                self.relations = groebner_basis(
                    self.ambient, list(relations.gb) + ideal_cols,
                    assume_reduced_prefix=len(relations.gb))
        else:
            elems = [v for v in relations if v]
            for v in elems:
                if v.ambient.twists != self.twists:
                    raise ValueError("relation element in a different ambient")
            self.relations = groebner_basis(self.ambient,
                                            elems + self._ideal_columns())
        self._cache = {}

    def _ideal_columns(self):
        return [poly_in_position(self.ambient, f, pos)
                for f in self.algebra.ideal_gens
                for pos in range(len(self.twists))]

    # -- size ----------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.twists)

    def _series(self):
        """(d, e) of the module's one Hilbert series: the Krull dimension
        and the multiplicity e(M) = h(1), which is the length when d = 0."""
        return self._memo("dim", lambda: series_dimension(
            hilbert_series(self.relations), self.algebra.ring.nvars))

    def dimension(self):
        """Krull dimension; -inf for the zero module."""
        return self._series()[0]

    def degree(self) -> int:
        """The multiplicity e(M) of the Hilbert series; 0 for M = 0."""
        return self._series()[1]

    def is_zero(self) -> bool:
        return self.relations.is_full()

    def total_length(self) -> int:
        d, e = self._series()
        if d > 0:
            raise InfiniteLength(f"quotient has dimension {d}")
        return e

    def minimal_generator_count(self) -> int:
        return self._memo("mu", lambda: quotient_total_length(
            self.power_submodule(self.algebra.variables())))

    # -- submodules ----------------------------------------------------------

    def submodule_with(self, extra) -> SubmoduleBasis:
        """Basis of N + (extra elements)."""
        extra = [v for v in extra if v]
        if not extra:
            return self.relations
        return groebner_basis(self.ambient, list(self.relations.gb) + extra,
                              assume_reduced_prefix=len(self.relations.gb))

    def ideal_multiples(self, polys) -> list:
        return [poly_in_position(self.ambient, f, pos)
                for f in _as_poly_list(polys) if f
                for pos in range(self.rank)]

    def power_submodule(self, polys, k: int = 1) -> SubmoduleBasis:
        """Reduced basis of N + Q^k F for Q = (polys) and k >= 1, memoized
        on the module per set of nonzero polys and k; N itself for Q = 0.
        Level 1 adds the multiples of the polys to N.  Level k is seeded
        from level k - 1, as N + Q^k F = N + Q(N + Q^(k-1) F): q·g for every
        q in polys and every basis element g of level k - 1 outside N.  The
        reduced basis is unique, so it does not depend on the order of the
        polys."""
        polys = [f for f in _as_poly_list(polys) if f]

        def build():
            if k == 1:
                return self.submodule_with(self.ideal_multiples(polys))
            outside = [g for g in self.power_submodule(polys, k - 1).gb
                       if not self.relations.contains(g)]
            return self.submodule_with([poly_times_element(q, g)
                                        for q in polys for g in outside])
        return self._memo(("power", frozenset(polys), k), build)

    def h0_submodule(self) -> SubmoduleBasis:
        """Preimage in the ambient of the largest finite-length submodule:
        colon by the irrelevant ideal m, iterated to a fixed point.  The
        chain (N : m) ⊆ (N : m²) ⊆ ... is walked directly; it stabilizes
        because the ambient is noetherian.

        Every step first asks whether ℓ = x_1 + ... + x_n is regular on F/u
        (Bruns-Herzog, Cohen-Macaulay Rings, 1.2): u ⊆ (u : ℓ), so the two
        are equal exactly when their Hilbert series are, and colon_series
        reads that off one basis of u + ℓF.  Then (u : m) ⊆ (u : ℓ) = u, as
        ℓ lies in m, and u is the fixed point.  ℓ lies in no proper monomial
        prime, so for a monomial u it is regular exactly when F/u has no
        finite-length sections.  Only when ℓ is a zero-divisor, or there are
        no variables, is the colon (u : m) built as a kernel.  Under --verify-gb the kernel
        is also built where ℓ certified u, and must equal u."""
        def build():
            mgens = self.algebra.variables()
            ell = sum(mgens[1:], mgens[0]) if mgens else None
            u = self.relations
            while True:
                if ell is not None and (colon_series(u, ell)
                                        == hilbert_series(u)):
                    if (debug_verification_enabled()
                            and submodule_colon(u, mgens) != u):
                        raise CrossCheckFailure(
                            "h0_submodule: x_1 + ... + x_n is regular by the "
                            "Hilbert series, but (u : m) differs from u")
                    return u
                v = submodule_colon(u, mgens)
                if v == u:
                    return u
                u = v
        return self._memo("h0sub", build)

    def h0_length(self) -> int:
        """ℓ(H⁰_m(M)), the length of the finite-length sections h0_submodule/N:
        the value at t = 1 of HS(F/N) - HS(F/h0_submodule), by additivity
        (Bruns-Herzog, 4.1), with no presentation.  Under --verify-gb the
        sections are also presented as a module and the lengths compared."""
        def build():
            sub = self.h0_submodule()
            length = series_length(combine_series(
                (1, 0, hilbert_series(self.relations)),
                (-1, 0, hilbert_series(sub))), self.algebra.ring.nvars)
            if debug_verification_enabled() and sub != self.relations:
                presented = present_subquotient(
                    self.algebra, sub.gb, self.relations,
                    self.ambient).total_length()
                if presented != length:
                    raise CrossCheckFailure(
                        f"h0_length: length {length} from the series, "
                        f"{presented} from the presentation")
            return length
        return self._memo("h0len", build)

    def annihilator(self) -> SubmoduleBasis:
        """{f in S : f·M = 0}, as a rank-1 basis: the kernel of
        S -> ⊕_j (F/N)(twist_j) sending 1 to every generator e_j."""
        return self._memo("ann", lambda: stacked_kernel(
            [(self.relations, t) for t in self.twists],
            [[self.ambient.generator(j) for j in range(self.rank)]],
            FreeModule(self.algebra.ring, (0,))))

    # -- derived modules ------------------------------------------------------

    def quotient_by_ideal(self, polys) -> "GradedModule":
        """M / (polys)M on the same ambient, memoized like power_submodule:
        the same ideal gives back the same module, with its caches."""
        polys = [f for f in _as_poly_list(polys) if f]
        return self._memo(("quotient", frozenset(polys)), lambda:
                          self.quotient_by_submodule(self.power_submodule(polys)))

    def quotient_by_submodule(self, sub: SubmoduleBasis) -> "GradedModule":
        """F/sub for a submodule that contains the relations; M itself,
        with its caches, when sub is N (M/H⁰(M) when H⁰(M) = 0, say)."""
        if sub == self.relations:
            return self
        return GradedModule(self.algebra, self.twists, sub,
                            relations_complete=True)

    def direct_sum(self, other: "GradedModule") -> "GradedModule":
        if other.algebra is not self.algebra:
            raise ValueError("direct sum needs a common algebra")
        twists = self.twists + other.twists
        F = FreeModule(self.algebra.ring, twists)
        elems = ([embed(g, F, 0) for g in self.relations.gb]
                 + [embed(g, F, self.rank) for g in other.relations.gb])
        elems.sort(key=lambda g: F.term_key(g.lead_term()[0]))
        basis = SubmoduleBasis(F, elems)
        return GradedModule(self.algebra, twists, basis, relations_complete=True)

    def __repr__(self):
        return f"GradedModule(rank {self.rank}, twists {self.twists})"


def zero_module(algebra: GradedAlgebra) -> GradedModule:
    return GradedModule(algebra, (), [])


def module_from_matrix(algebra: GradedAlgebra, rows, row_twists=None) -> GradedModule:
    """Cokernel of the matrix whose (i, j) entry is rows[i][j]: generators
    indexed by rows, one relation per column."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise RaggedMatrix("ragged matrix")
    twists = tuple(row_twists) if row_twists is not None else (0,) * nrows
    F = FreeModule(algebra.ring, twists)
    relations = []
    for j in range(ncols):
        terms = {}
        for i in range(nrows):
            f = rows[i][j]
            if f is None or not f:
                continue
            for e, c in f.terms.items():
                terms[(i, e)] = c
        relations.append(FreeElement(F, terms))
    return GradedModule(algebra, twists, relations)


def minimal_picks(gens, bottom: SubmoduleBasis) -> list:
    """The gens that form a basis of (⟨gens⟩ + B)/(m·⟨gens⟩ + B) for the
    submodule B = bottom, in the order tried: a minimal generating set of
    (⟨gens⟩ + B)/B chosen among the gens (Nakayama).

    One Buchberger run seeded with B's reduced basis decides every pick
    (Kreuzer-Robbiano, Computational Commutative Algebra 2, ch. 4).  The
    gens are tried by ascending degree, in their given order within one.
    Before g of degree d the run is processed through degree d, so it is a
    basis of B + P there, P the picks so far, and g is picked exactly when
    its normal form is nonzero; the normal form joins the run.  The earlier
    picks and B generate ⟨gens⟩ + B below degree d, so (B + P)_d is
    (m·⟨gens⟩ + B)_d plus the span of the earlier picks of degree d, and no
    basis of m·⟨gens⟩ is ever built.  Under --verify-gb the picks and B must
    regenerate ⟨gens⟩ + B."""
    ambient, prefix = bottom.ambient, len(bottom.gb)
    run = BuchbergerState(ambient, bottom.gb, assume_reduced_prefix=prefix)
    picked = []
    for g in sorted(gens, key=lambda g: g.degree):
        run.process(until=g.degree)
        if run.insert(g):
            picked.append(g)
    if debug_verification_enabled() and not groebner_basis(
            ambient, list(bottom.gb) + picked,
            assume_reduced_prefix=prefix).contains_all(gens):
        raise CrossCheckFailure(
            "minimal generators do not regenerate the submodule")
    return picked


def present_subquotient(algebra: GradedAlgebra, gens, bottom: SubmoduleBasis,
                        ambient: FreeModule) -> GradedModule:
    """The module (gens + bottom)/bottom, presented on the `minimal_picks`
    of the nonzero gens modulo bottom, in their given order, the last gen
    of a degree tried first, so no relation has a unit entry; the zero
    module when nothing is picked.  Requires the quotient to be killed by
    the defining ideal, as when bottom contains I·ambient or for cohomology
    of dualized resolutions (killed by the annihilator): the kernel then
    picks up the ideal action on its own."""
    kept = {id(g) for g in minimal_picks([g for g in gens if g][::-1], bottom)}
    picked = [g for g in gens if id(g) in kept]
    if not picked:
        return zero_module(algebra)
    degs = [g.degree for g in picked]
    ker = kernel_of_map(picked, degs, ambient, relations=bottom)
    return GradedModule(algebra, degs, ker, relations_complete=True)


# -- submodule operations -----------------------------------------------------

def embed(v: FreeElement, target: FreeModule, offset: int) -> FreeElement:
    """v as an element of target, every position moved up by offset: the
    inclusion of a free module as one block of a direct sum."""
    return FreeElement(target, {(pos + offset, e): c
                                for (pos, e), c in v.terms.items()},
                       _checked=True)


def stacked_kernel(blocks, cols, ambient: FreeModule) -> SubmoduleBasis:
    """Kernel of the map ambient -> ⊕_b (F/N_b)(s_b) for blocks [(N_b, s_b)],
    every N_b a submodule of one free F of rank r, sending the i-th
    generator to cols[i]: one element of F per block (zero allowed).  Block
    b takes the positions b·r .. b·r + r - 1, with the twists of F lowered
    by s_b, and carries a copy of N_b's basis (Eisenbud, Commutative
    Algebra, 15.10).  With no blocks the kernel is everything.  The basis
    is kernel_of_map's as it comes, in the plain module of ambient's twists."""
    r = blocks[0][0].ambient.rank if blocks else 0
    target = FreeModule(ambient.ring, tuple(
        t - s for n, s in blocks for t in n.ambient.twists))
    images = []
    for col in cols:
        terms = {}
        for b, v in enumerate(col):
            terms.update(embed(v, target, b * r).terms)
        images.append(FreeElement(target, terms, _checked=True))
    rels = [embed(g, target, b * r) for b, (n, _) in enumerate(blocks)
            for g in n.gb]
    return kernel_of_map(images, list(ambient.twists), target, relations=rels)


def submodule_colon(n: SubmoduleBasis, f) -> SubmoduleBasis:
    """{v in ambient : g·v in n for every g in f}; f a polynomial or a list:
    the kernel of F -> ⊕_g (F/n)(deg g), v -> (g·v)_g."""
    polys = [g for g in _as_poly_list(f) if g]
    F = n.ambient
    return stacked_kernel([(n, g.degree) for g in polys],
                          [[poly_in_position(F, g, i) for g in polys]
                           for i in range(F.rank)], F)


def colon_series(n: SubmoduleBasis, f: Polynomial, within=None,
                 extended: SubmoduleBasis = None) -> dict:
    """Numerator over (1-t)^nvars of the Hilbert series of W/((n : f) ∩ W),
    for a nonzero homogeneous f of degree δ and W the submodule generated
    by the elements `within`; W is the whole ambient F when within is None,
    and the series is then that of F/(n : f).

    Multiplication by f maps W onto (n + fW)/n with kernel (n : f) ∩ W, so
    0 -> (W/((n : f) ∩ W))(-δ) -> F/n -> F/(n + fW) -> 0 is exact, and by
    additivity (Bruns-Herzog, Cohen-Macaulay Rings, 4.1)
    HS(W/((n : f) ∩ W)) = t^-δ·(HS(F/n) - HS(F/(n + fW))).  That takes one
    basis of n + fW, with n's reduced basis as its prefix, where the colon
    itself takes an elimination kernel.  `extended` is that basis when the
    caller already has it, say a memoized power_submodule level.  The series
    is the same for any generators of W modulo n : f, and 0 for W = 0."""
    if within is not None and not within:
        return {}
    if extended is None:
        ambient = n.ambient
        if within is None:
            within = [ambient.generator(i) for i in range(ambient.rank)]
        extended = groebner_basis(
            ambient, list(n.gb) + [poly_times_element(f, g) for g in within],
            assume_reduced_prefix=len(n.gb))
    return combine_series((1, -f.degree, hilbert_series(n)),
                          (-1, -f.degree, hilbert_series(extended)))


def colon_quotient_series(n: SubmoduleBasis, f: Polynomial,
                          extended: SubmoduleBasis = None) -> dict:
    """Numerator over (1-t)^nvars of the Hilbert series of (n : f)/n, for a
    nonzero homogeneous f: HS(F/n) - HS(F/(n : f)) by additivity, the
    second term from colon_series (`extended` as there).  Under --verify-gb
    the colon is also built, (n : f)/n presented on its basis, and the
    whole series must agree."""
    series = combine_series((1, 0, hilbert_series(n)),
                            (-1, 0, colon_series(n, f, extended=extended)))
    if debug_verification_enabled():
        gens = list(submodule_colon(n, f).gb)
        built = hilbert_series(kernel_of_map(
            gens, [g.degree for g in gens], n.ambient, relations=n))
        if built != series:
            raise CrossCheckFailure(
                f"colon_quotient_series: Hilbert series numerator {series} "
                f"from the sums, {built} from the presented colon")
    return series


def submodule_intersect(n1: SubmoduleBasis, n2: SubmoduleBasis) -> SubmoduleBasis:
    """n1 ∩ n2: the kernel of F -> F/n1 ⊕ F/n2, v -> (v, v)."""
    if n1.ambient != n2.ambient:
        raise ValueError("intersection needs a common ambient")
    F = n1.ambient
    return stacked_kernel([(n1, 0), (n2, 0)],
                          [[F.generator(i)] * 2 for i in range(F.rank)], F)


def ideal_power(algebra: GradedAlgebra, polys, n: int) -> SubmoduleBasis:
    """Reduced basis of (polys)^n inside the ring (not touching the algebra's
    defining ideal).  Iterative, reducing at every step, and uncached: the
    engine builds N + Q^k F with GradedModule.power_submodule, and this
    stays as the independent reference that the tests compare it with."""
    polys = tuple(g for g in _as_poly_list(polys) if g)
    ring = algebra.ring
    F = FreeModule(ring, (0,))
    if n == 0:
        return groebner_basis(F, [poly_in_position(F, ring.constant(1), 0)])
    if n == 1:
        return groebner_basis(F, [poly_in_position(F, g, 0) for g in polys])
    prev = ideal_power(algebra, polys, n - 1)
    return groebner_basis(F, [poly_times_element(g, h)
                              for g in polys for h in prev.gb])


class ParameterSequence:
    """A full system of parameters a_1..a_d for a module, with its prefixes.

    Validated at construction: the count matches the module dimension and the
    quotient M/QM has finite length.
    """

    def __init__(self, module: GradedModule, gens):
        gens = tuple(_as_poly_list(gens))
        d = module.dimension()
        if d == NEG_INF:
            raise ZeroModule("parameter sequences need a nonzero module")
        if len(gens) != max(d, 0):
            raise PreconditionViolation(
                f"module has dimension {d}, got {len(gens)} parameters")
        if any(not g for g in gens):
            raise PreconditionViolation("zero entry in a parameter sequence")
        self.module = module
        self.gens = gens
        self.quotient_basis = module.power_submodule(gens)
        if module.quotient_by_ideal(gens).dimension() > 0:
            raise PreconditionViolation(
                "parameters do not cut the module down to finite length")

    @property
    def count(self) -> int:
        return len(self.gens)

    def covolume(self) -> int:
        """ℓ(M/QM)."""
        return self.module.quotient_by_ideal(self.gens).total_length()

    def prefix(self, i: int):
        """The first i parameters (Q_0 is the empty sequence)."""
        return self.gens[:i]


# -- linear algebra over the prime field -------------------------------------

def invert_matrix(rows, p: int):
    """Inverse of a square matrix over Z/p; SingularMatrix if singular.

    Gauss-Jordan on [A | I] through echelon_insert.  The forward pass puts
    the rows in echelon form, and A is invertible exactly when every lead
    falls in the A half.  Sorted by lead, the rows are then inserted again
    from the last to the first, which clears every entry above a lead, so
    they become [I | A^-1]."""
    n = len(rows)
    forward = []
    for i, row in enumerate(rows):
        echelon_insert(forward, [row[j] for j in range(n)]
                       + [1 if j == i else 0 for j in range(n)], p)
    forward.sort(key=_lead)
    if [_lead(row) for row in forward] != list(range(n)):
        raise SingularMatrix("singular matrix")
    back = []
    for row in reversed(forward):
        echelon_insert(back, row, p)
    return [row[n:] for row in reversed(back)]


def _lead(row):
    return next((i for i, c in enumerate(row) if c), None)


def echelon_insert(echelon: list, row, p: int) -> bool:
    """Reduce row over Z/p against the monic echelon rows, in the order they
    were inserted.  A nonzero remainder is made monic and appended (True);
    a row in their span leaves the list unchanged (False)."""
    vec = [c % p for c in row]
    for prow in echelon:
        c = vec[_lead(prow)]
        if c:
            vec = [(a - c * b) % p for a, b in zip(vec, prow)]
    lead = _lead(vec)
    if lead is None:
        return False
    inv = pow(vec[lead], p - 2, p)
    echelon.append([(c * inv) % p for c in vec])
    return True


def complete_to_invertible(rows, n: int, p: int):
    """Extend linearly independent rows to an invertible n x n matrix by
    greedily appending unit vectors."""
    basis = []
    out = []
    def add(row):
        if not echelon_insert(basis, row, p):
            return False
        out.append([c % p for c in row])
        return True
    for row in rows:
        if not add(row):
            raise DependentRows("rows are linearly dependent")
    for i in range(n):
        if len(out) == n:
            break
        add([1 if j == i else 0 for j in range(n)])
    if len(out) != n:
        raise IncompleteBasis("could not complete the matrix")
    return out


def linear_coefficients(f: Polynomial):
    """Coefficient row of a linear form."""
    if f.degree != 1:
        raise NotLinearForm("not a linear form")
    ring = f.ring
    row = [0] * ring.nvars
    for e, c in f.terms.items():
        row[next(i for i, a in enumerate(e) if a)] = c
    return row


def power_of_linear_form(f: Polynomial):
    """(c, l, d) with f == c·l^d for a linear form l whose first nonzero
    coefficient is 1 and d = deg f >= 1; None when f is not such a power.

    If f = c·l^d and x_i is the first variable in l, then x_i^d is the first
    pure power in f, with coefficient c, and x_i^(d-1)·x_j has coefficient
    c·d·l_j.  l is read off those, and c·l^d == f is checked by expanding,
    so a polynomial that is not a power is never taken for one.  None also
    when p divides d, where the coefficients of x_i^(d-1)·x_j vanish."""
    d = f.degree
    ring = f.ring
    p = ring.prime
    if d is None or d < 1 or d % p == 0:
        return None
    n = ring.nvars
    pure = [tuple(d if k == i else 0 for k in range(n)) for i in range(n)]
    i = next((i for i in range(n) if pure[i] in f.terms), None)
    if i is None:
        return None
    c = f.terms[pure[i]]
    scale = pow(c * d, p - 2, p)
    terms = {ring.var_exps(i): 1}
    for j in range(n):
        if j != i:
            e = list(pure[i])
            e[i] -= 1
            e[j] += 1
            v = f.terms.get(tuple(e), 0) * scale % p
            if v:
                terms[ring.var_exps(j)] = v
    l = Polynomial(ring, terms, _checked=True)
    return (c, l, d) if (l ** d).scale(c) == f else None


class LinearChange:
    """The substitution x_j -> Σ_k rows[j][k]·x_k over Z/p, for an
    invertible matrix rows, term by term.  The image of a monomial is built
    once, from that of the monomial with its last variable lowered by one,
    and kept.  Under --verify-gb every image is mapped back through the
    inverse matrix and must be the original."""

    def __init__(self, ring: PolyRing, rows):
        self.ring = ring
        self.rows = rows
        self._back = None
        self._images = {ring.zero_exps(): {ring.zero_exps(): 1}}

    def image(self, e: tuple) -> dict:
        """The image of the monomial x^e, as {exponents: coefficient}."""
        got = self._images.get(e)
        if got is None:
            j = max(i for i, a in enumerate(e) if a)
            p = self.ring.prime
            got = {}
            for m, a in self.image(e[:j] + (e[j] - 1,) + e[j + 1:]).items():
                for i, c in enumerate(self.rows[j]):
                    if c:
                        k = m[:i] + (m[i] + 1,) + m[i + 1:]
                        got[k] = (got.get(k, 0) + a * c) % p
            got = self._images[e] = {k: c for k, c in got.items() if c}
        return got

    def _move(self, terms: dict, check: bool = True) -> dict:
        # {(position, exponents): coefficient}, moved exponent by exponent
        p = self.ring.prime
        out = {}
        for (pos, e), c in terms.items():
            for m, a in self.image(e).items():
                t = (pos, m)
                out[t] = out.get(t, 0) + c * a
        out = {t: c % p for t, c in out.items() if c % p}
        if check and debug_verification_enabled():
            self._back = self._back or LinearChange(
                self.ring, invert_matrix(self.rows, p))
            if self._back._move(out, False) != terms:
                raise CrossCheckFailure(
                    "the coordinate change does not map back to the original")
        return out

    def poly(self, f: Polynomial) -> Polynomial:
        return Polynomial(self.ring, {m: c for (_, m), c in self._move(
            {(0, e): c for e, c in f.terms.items()}).items()}, _checked=True)

    def element(self, v: FreeElement, ambient: FreeModule) -> FreeElement:
        """The image of v in ambient, which has v's twists."""
        return FreeElement(ambient, self._move(v.terms), _checked=True)


# -- idealization -------------------------------------------------------------

def idealization(module: GradedModule, var_base: str = "u") -> GradedAlgebra:
    """The square-zero extension of the module's algebra by the module.

    Only realizable inside a standard graded ring when all generators sit in
    one common degree: the new variables then enter in degree 1 and the copy
    of the module inside the extension appears shifted up by one degree.
    """
    algebra = module.algebra
    ring = algebra.ring
    r = module.rank
    if r == 0:
        return GradedAlgebra(ring, algebra.ideal_gens)
    if len(set(module.twists)) != 1:
        raise NonStandardGrading(
            "idealization needs all module generators in one degree")
    taken = set(ring.variables)
    base = var_base
    while any(f"{base}{i}" in taken for i in range(r)):
        base = base + "_"
    names = ring.variables + tuple(f"{base}{i}" for i in range(r))
    big = PolyRing(names, ring.prime)
    n = ring.nvars

    def lift(f: Polynomial) -> Polynomial:
        return Polynomial(big, {e + (0,) * r: c for e, c in f.terms.items()},
                          _checked=True)

    gens = [lift(f) for f in algebra.ideal_gens]
    for g in module.relations.gb:
        terms = {}
        for (pos, e), c in g.terms.items():
            ext = list(e) + [0] * r
            ext[n + pos] = 1
            terms[tuple(ext)] = c
        gens.append(Polynomial(big, terms, _checked=True))
    for i in range(r):
        for j in range(i, r):
            e = [0] * (n + r)
            e[n + i] += 1
            e[n + j] += 1
            gens.append(Polynomial(big, {tuple(e): 1}, _checked=True))
    return GradedAlgebra(big, gens)
