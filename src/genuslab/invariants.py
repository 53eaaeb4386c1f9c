"""Length tables along powers of an ideal, Hilbert coefficients, and the
derived invariants: sectional genus, first Euler characteristic, homological
degree and torsion.  On top of those sit the element tests (superficiality,
d-sequences), a seeded generator search, and the checkers that tie the
numbers together.

Every number here is an exact integer.  Coefficient extraction works by
finite differences in the binomial basis and accepts a value only after two
overlapping windows agree and the fitted polynomial reproduces the tail of
the table; there is no interpolation and no tolerance anywhere.

Superficiality is decided exactly when Q is linear and M/QM has finite
length: a is superficial exactly when its initial form is filter-regular on
gr_Q(M), which the length-table engine already presents as F/N*.  Only a
non-linear Q, or one leaving M/QM of infinite length, still goes through a
heuristic window of colons.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (CrossCheckFailure, EquivalenceViolation, IndexOutOfRange,
                     InfiniteLength, NoStabilization, NotFoundWithinBudget,
                     NotGeneralizedCM, PreconditionViolation, SingularMatrix,
                     ZeroModule)
from .groebner import (NEG_INF, debug_verification_enabled, finite_colength,
                       groebner_basis, hilbert_series, quotient_dimension,
                       quotient_total_length, series_dimension)
from .homology import dual_sections, koszul_homology_lengths
from .modules import (GradedModule, ParameterSequence, _as_poly_list,
                      complete_to_invertible, echelon_insert, ideal_power,
                      invert_matrix, linear_coefficients, present_subquotient,
                      submodule_colon, submodule_intersect, substitute_element,
                      substitute_linear)
from .ring import (FreeElement, FreeModule, PolyRing, binomial, mono_divides,
                   poly_in_position, poly_times_element)

TABLE_CAP = 64


def _gens_for(q):
    if isinstance(q, ParameterSequence):
        return tuple(q.gens)
    return tuple(f for f in _as_poly_list(q) if f)


def _sequence_for(module, q) -> ParameterSequence:
    if isinstance(q, ParameterSequence) and q.module is module:
        return q
    return ParameterSequence(module, _gens_for(q))


def _ring_ideal_basis(algebra, polys):
    F1 = FreeModule(algebra.ring, (0,))
    gens = [poly_in_position(F1, f, 0)
            for f in list(polys) + list(algebra.ideal_gens) if f]
    return groebner_basis(F1, gens)


# -- the length table ---------------------------------------------------------

class _TableEngine:
    """Produces ℓ(M/Q^{n+1}M) for one module and one generating set.

    Two routes.  When every generator is linear, an exact coordinate change
    moves the ideal onto the first block of variables x, and one basis of the
    transformed relations is computed in the tangent-cone order (see
    FreeModule.tangent_block).  Its leads span the initial module of
    gr_Q(M), so ℓ(M/Q^{n+1}M) is the number of standard monomials of
    x-degree at most n.  Each x-degree slice is counted once: for every
    x-monomial u of that degree, the finitely many monomials in the other
    variables that stay outside the colon of the leads by u.  Every length
    is then a prefix sum of slices.  Otherwise each level N + Q^{n+1}F is
    computed from the previous one as N + Q(N + Q^n F) and its finite
    quotient counted directly.  The linear route is an optimization only:
    the transformed basis must have the Hilbert series of the original
    relations, and the n = 0 value of the fast route is cross-checked
    against the direct quotient.
    """

    def __init__(self, module: GradedModule, gens):
        self.module = module
        self.gens = tuple(gens)
        self.values = []
        self._base = module.submodule_with(module.ideal_multiples(list(gens)))
        self._levels = [self._base]  # bases of N + Q^{n+1}F, by n
        if quotient_dimension(self._base) > 0:
            raise InfiniteLength(
                "the ideal does not cut the module down to finite length")
        self.linear = (module.rank > 0 and bool(self.gens)
                       and all(q.degree == 1 for q in self.gens))
        if self.linear:
            self._prepare_linear()

    def _prepare_linear(self):
        ring = self.module.algebra.ring
        p = ring.prime
        nv = ring.nvars
        rows = [linear_coefficients(q) for q in self.gens]
        ech, indep, indep_at = [], [], []
        for ridx, row in enumerate(rows):
            if echelon_insert(ech, row, p):
                indep.append(row)
                indep_at.append(ridx)
        self.block = len(indep)
        full = complete_to_invertible(indep, nv, p)
        self.change = invert_matrix(full, p)
        for i, ridx in enumerate(indep_at):
            if substitute_linear(self.gens[ridx], self.change) != ring.variable(i):
                raise CrossCheckFailure(
                    "coordinate change failed to straighten a generator")
        for q in self.gens:
            img = substitute_linear(q, self.change)
            if any(e[j] for e in img.terms for j in range(self.block, nv)):
                raise CrossCheckFailure(
                    "coordinate change left a generator outside the block")
        F = FreeModule(ring, self.module.twists, tangent_block=self.block)
        moved = [FreeElement(F, substitute_element(g, self.change).terms,
                             _checked=True)
                 for g in self.module.relations.gb]
        self.basis_t = groebner_basis(F, moved)
        if (hilbert_series(self.basis_t)
                != hilbert_series(self.module.relations)):
            raise CrossCheckFailure(
                "tangent-cone basis changed the Hilbert series")
        b = self.block
        leads = self.basis_t.leads_by_position()
        # per position, each lead split into its block and non-block parts
        self._split = [[(e[:b], e[b:]) for e in leads.get(pos, ())]
                       for pos in range(F.rank)]
        self._x_monomials = PolyRing(ring.variables[:b], p).monomials_of_degree
        self._outside = {}
        self._cumulative = []

    def _outside_count(self, colon: tuple) -> int:
        """Monomials in the non-block variables outside the monomial ideal
        generated by colon, which must have finite colength."""
        got = self._outside.get(colon)
        if got is None:
            m = self.module.algebra.ring.nvars - self.block
            got = self._outside[colon] = finite_colength(colon, m)
        return got

    def _slice(self, k: int) -> int:
        """Standard monomials of block degree exactly k."""
        total = 0
        for u in self._x_monomials(k):
            for split in self._split:
                total += self._outside_count(
                    tuple(y for x, y in split if mono_divides(x, u)))
        return total

    def _linear_value(self, n: int) -> int:
        cum = self._cumulative
        while len(cum) <= n:
            cum.append((cum[-1] if cum else 0) + self._slice(len(cum)))
        return cum[n]

    def _direct_value(self, n: int) -> int:
        # N + Q^{n+1}F = N + Q(N + Q^n F): each level is seeded from the
        # previous one, leaving out the basis elements already in N
        levels = self._levels
        relations = self.module.relations
        while len(levels) <= n:
            outside = [g for g in levels[-1].gb if not relations.contains(g)]
            levels.append(self.module.submodule_with(
                [poly_times_element(q, g) for q in self.gens for g in outside]))
        return quotient_total_length(levels[n])

    def values_up_to(self, top: int) -> list:
        while len(self.values) <= top:
            n = len(self.values)
            if self.linear:
                v = self._linear_value(n)
                if n == 0 and v != quotient_total_length(self._base):
                    raise CrossCheckFailure(
                        "fast and direct covolumes disagree")
            else:
                v = self._direct_value(n)
            if self.values and v < self.values[-1]:
                raise CrossCheckFailure("length table decreased")
            self.values.append(v)
        return list(self.values[:top + 1])


def _engine(module: GradedModule, gens) -> _TableEngine:
    key = ("hsengine", frozenset(gens))
    if key not in module._cache:
        module._cache[key] = _TableEngine(module, gens)
    return module._cache[key]


@dataclass(frozen=True)
class LengthTable:
    """values[n] = ℓ(M/Q^{n+1}M); grown on demand through the source."""
    values: tuple
    _grow: object = field(default=None, repr=False, compare=False)

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def extended(self, upto: int):
        if self._grow is None:
            return None
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

@dataclass(frozen=True)
class HilbertCoefficients:
    """Signed coefficients e[0..s] of the length polynomial, plus the least
    table index from which the polynomial provably agrees."""
    e: tuple
    postulation: int
    dimension: int

    def value_at(self, n: int) -> int:
        s = self.dimension
        return sum(((-1) ** i) * self.e[i] * binomial(n + s - i, s - i)
                   for i in range(s + 1))


def _binomial_fit(vals, a: int, s: int):
    # fit vals[a..a+s] as sum c_i * C(n+s-i, s-i); None when it cannot hold
    if a < 0 or a + s >= len(vals):
        return None
    window = [vals[a + k] for k in range(s + 1)]
    coeffs = []
    for i in range(s + 1):
        deg = s - i
        diffs = window
        for _ in range(deg):
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        if any(x != diffs[0] for x in diffs):
            return None
        ci = diffs[0]
        coeffs.append(ci)
        window = [window[k] - ci * binomial(a + k + s - i, s - i)
                  for k in range(s + 1)]
    if any(window):
        return None
    return tuple(coeffs)


def _fit_value(coeffs, s: int, n: int) -> int:
    return sum(c * binomial(n + s - i, s - i) for i, c in enumerate(coeffs))


def hilbert_coefficients(table: LengthTable, s: int) -> HilbertCoefficients:
    """Finite-difference extraction in the binomial basis.

    Accepts only when the windows at the last two offsets produce identical
    coefficients and the fitted polynomial reproduces the trailing s + 2
    table entries; otherwise the table is doubled, up to a hard cap.
    """
    while True:
        vals = list(table.values)
        top = table.top
        if top >= s + 2:
            a = top - s - 2
            fit = _binomial_fit(vals, a, s)
            if (fit is not None and fit == _binomial_fit(vals, a + 1, s)
                    and all(_fit_value(fit, s, n) == vals[n]
                            for n in range(top - s - 1, top + 1))):
                e = tuple(((-1) ** i) * c for i, c in enumerate(fit))
                if e[0] <= 0:
                    raise CrossCheckFailure(
                        f"nonpositive leading coefficient {e[0]}")
                post = next(n0 for n0 in range(top + 1)
                            if n0 + s + 2 <= top
                            and all(_fit_value(fit, s, n) == vals[n]
                                    for n in range(n0, n0 + s + 3)))
                return HilbertCoefficients(e, post, s)
        if top >= TABLE_CAP:
            raise NoStabilization(
                f"no stable coefficients with {top + 1} table entries")
        grown = table.extended(min(max(2 * top, s + 4), TABLE_CAP))
        if grown is None:
            raise NoStabilization("table cannot be extended")
        table = grown


def module_coefficients(module: GradedModule, q) -> HilbertCoefficients:
    gens = _gens_for(q)
    key = ("hscoeffs", frozenset(gens))
    if key not in module._cache:
        s = module.dimension()
        if s == NEG_INF:
            raise ZeroModule("the zero module has no Hilbert coefficients")
        s = max(int(s), 0)
        table = hilbert_samuel_table(module, gens, min(s + 4, TABLE_CAP))
        module._cache[key] = hilbert_coefficients(table, s)
    return module._cache[key]


def multiplicity(module: GradedModule, q) -> int:
    """Leading coefficient of the length polynomial; total length in
    dimension zero."""
    s = module.dimension()
    if s == NEG_INF:
        return 0
    if s <= 0:
        return module.total_length()
    return module_coefficients(module, q).e[0]


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
    key = ("chi1", frozenset(seq.gens))
    if key not in module._cache:
        lengths = koszul_homology_lengths(seq)
        koszul = sum(((-1) ** (i - 1)) * lengths[i]
                     for i in range(1, len(lengths)))
        serre = seq.covolume() - multiplicity(module, seq.gens)
        if koszul != serre:
            raise CrossCheckFailure(
                f"Euler characteristic mismatch: {koszul} from homology, "
                f"{serre} from lengths")
        module._cache[key] = (koszul, serre)
    return module._cache[key]


# -- homological degree and torsion -------------------------------------------

def hdeg(module: GradedModule, q) -> int:
    """Homological degree: length in dimension <= 0, otherwise the
    multiplicity plus binomially weighted degrees of the cohomology duals.
    Well-founded because the j-th dual has dimension at most j < dim M."""
    if module.is_zero():
        return 0
    s = module.dimension()
    if s <= 0:
        return module.total_length()
    gens = _gens_for(q)
    key = ("hdeg", frozenset(gens))
    if key not in module._cache:
        duals = dual_sections(module)
        total = multiplicity(module, gens)
        for j in range(int(s)):
            total += binomial(int(s) - 1, j) * hdeg(duals[j].module, gens)
        module._cache[key] = total
    return module._cache[key]


def torsion(module: GradedModule, q, i: int) -> int:
    """The i-th torsion: weighted degrees of the duals at indices above i."""
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

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class SuperficialityReport:
    status: str  # verified | refuted | inconclusive
    window_start: int = None
    colon_length: int = None
    witness: str = None


def _annihilator(a, module: GradedModule) -> GradedModule:
    """(0 :_M a), presented on its own generators."""
    colon = submodule_colon(module.relations, a)
    return present_subquotient(module.algebra, list(colon.gb),
                               module.relations, module.ambient)


def _windowed_superficial(a, module: GradedModule, qgens, killed,
                          c_max=3, window=2):
    """Colon-window test: (Q^{n+1}M : a) ∩ Q^c M = Q^n M for c <= c_max and
    a window of n, after refuting on a positive-dimensional annihilator
    `killed`.  Returns (status, start).  A heuristic, kept only for a Q that
    is not linear or leaves M/QM of infinite length, where gr_Q(M) is not
    at hand; ROADMAP item 2 deletes it."""
    if killed.dimension() > 0:
        return "refuted", None
    algebra = module.algebra
    bases = {}

    def power_basis(k):
        if k not in bases:
            polys = [g.component(0)
                     for g in ideal_power(algebra, list(qgens), k).gb]
            bases[k] = module.submodule_with(module.ideal_multiples(polys))
        return bases[k]

    for c in range(1, c_max + 1):
        good = True
        for n in range(c, c + window + 1):
            lhs = submodule_intersect(
                submodule_colon(power_basis(n + 1), a), power_basis(c))
            if lhs != power_basis(n):
                good = False
                break
        if good:
            return "verified", c
    return "inconclusive", None


def _graded_engine(module: GradedModule, gens):
    """The cached table engine when Q is linear and ℓ(M/QM) is finite, so
    that gr_Q(M) is at hand; None otherwise."""
    if not gens or any(q.degree != 1 for q in gens):
        return None
    try:
        eng = _engine(module, gens)
    except InfiniteLength:
        return None
    return eng if eng.linear else None


def _initial_module(module: GradedModule, gens):
    """N* with gr_Q(M) = F/N*, in a plain ambient and in the coordinates of
    the table engine, where Q = (x_1..x_b).  The tangent-cone order refines
    the x-adic filtration, so the lowest x-degree forms of its basis
    generate N*."""
    key = ("initial", frozenset(gens))
    if key not in module._cache:
        eng = _engine(module, gens)
        b = eng.block
        F = FreeModule(module.algebra.ring, module.twists)
        forms = []
        for g in eng.basis_t.gb:
            low = min(sum(e[:b]) for _, e in g.terms)
            forms.append(FreeElement(
                F, {t: c for t, c in g.terms.items() if sum(t[1][:b]) == low},
                _checked=True))
        initial = groebner_basis(F, forms)
        if hilbert_series(initial) != hilbert_series(module.relations):
            raise CrossCheckFailure(
                "the associated graded module changed the Hilbert series")
        module._cache[key] = initial
    return module._cache[key]


def _graded_superficial(a, module: GradedModule, gens) -> bool:
    """Exact test for linear Q with ℓ(M/QM) finite: a is superficial for M
    exactly when its initial form a* is filter-regular on G = gr_Q(M), that
    is, when (0 :_G a*) = (N* : a*)/N* has finite length.  Its Hilbert
    series is that of F/N* minus that of F/(N* : a*), and it has finite
    length exactly when that series has no pole at t = 1."""
    initial = _initial_module(module, gens)
    colon = submodule_colon(
        initial, substitute_linear(a, _engine(module, gens).change))
    if colon == initial:
        return True
    diff = hilbert_series(initial)
    for j, c in hilbert_series(colon).items():
        diff[j] = diff.get(j, 0) - c
    return series_dimension(diff, module.algebra.ring.nvars)[0] <= 0


def _superficial_status(a, module: GradedModule, gens, killed=None):
    """(status, window start) for one element: exact on gr_Q(M) when it is
    at hand, where under --verify-gb a conclusive colon window must agree;
    the colon window otherwise.  killed is (0 :_M a), computed here when
    needed and not supplied."""
    if _graded_engine(module, gens) is None:
        if killed is None:
            killed = _annihilator(a, module)
        return _windowed_superficial(a, module, gens, killed)
    exact = _graded_superficial(a, module, gens)
    if debug_verification_enabled():
        if killed is None:
            killed = _annihilator(a, module)
        window, _ = _windowed_superficial(a, module, gens, killed)
        if window != "inconclusive" and (window == "verified") != exact:
            raise CrossCheckFailure(
                f"the colon window says {window} but the initial form is "
                f"{'' if exact else 'not '}filter-regular on gr_Q(M)")
    return ("verified" if exact else "refuted"), None


def is_superficial(a, module: GradedModule, q) -> SuperficialityReport:
    """Test a single element against the powers of the ideal: refuted when
    its annihilator has positive dimension, then decided exactly on
    gr_Q(M) for linear Q with ℓ(M/QM) finite, and by the three-valued
    colon window otherwise.  A verified element in dimension >= 2
    additionally has its effect on the Hilbert coefficients of the
    quotient checked exactly."""
    gens = _gens_for(q)
    algebra = module.algebra
    if not a:
        raise PreconditionViolation("the zero element is never superficial")
    inside = _ring_ideal_basis(algebra, list(gens))
    probe = poly_in_position(inside.ambient, a, 0)
    if not inside.contains(probe):
        raise PreconditionViolation("the element is not in the ideal")
    deep = _ring_ideal_basis(algebra, [v * f for v in algebra.variables()
                                       for f in gens])
    if deep.contains(poly_in_position(deep.ambient, a, 0)):
        raise PreconditionViolation(
            "the element lies in the irrelevant multiple of the ideal")
    killed = _annihilator(a, module)
    if killed.dimension() > 0:
        return SuperficialityReport(
            "refuted", witness="the annihilator of the element has dimension "
            f"{killed.dimension()}")
    status, start = _superficial_status(a, module, gens, killed)
    if status == "refuted":
        return SuperficialityReport(
            "refuted", witness="the initial form of the element is not "
            "filter-regular on the associated graded module")
    length0 = killed.total_length()
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


@dataclass(frozen=True)
class DSequenceReport:
    holds: bool
    violation: tuple = None  # (i, j) on failure, 1-based
    witness: str = None


def is_d_sequence(seq, module: GradedModule = None) -> DSequenceReport:
    """Colon test over all index pairs: the colon of each prefix submodule
    by a product of two later entries must equal the colon by the second
    factor alone.  Reduced bases make the comparison canonical."""
    if module is not None and (not isinstance(seq, ParameterSequence)
                               or seq.module is not module):
        seq = ParameterSequence(module, _gens_for(seq))
    m = seq.module
    d = seq.count
    for i in range(1, d + 1):
        prefix = m.submodule_with(m.ideal_multiples(list(seq.prefix(i - 1))))
        for j in range(i, d + 1):
            ai, aj = seq.gens[i - 1], seq.gens[j - 1]
            lhs = submodule_colon(prefix, ai * aj)
            rhs = submodule_colon(prefix, aj)
            if lhs != rhs:
                witness = next((g for g in lhs.gb if rhs.normal_form(g)), None)
                return DSequenceReport(False, (i, j),
                                       str(witness) if witness else None)
    return DSequenceReport(True)


def find_d_sequence_generators(q, module: GradedModule, budget: int = 24,
                               seed: int = 0):
    """Seeded search for an ordering and change of generators that passes
    the colon test.  Each attempt draws one invertible scalar matrix per
    generator degree, then orders the new generators greedily so that every
    prefix element is superficial on the successive quotients: decided
    exactly on gr_Q for linear Q, screened by the colon window otherwise,
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
    deep = _ring_ideal_basis(module.algebra,
                             [v * f for v in module.algebra.variables()
                              for f in seq.gens])
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
            screened = {}  # quotients built while screening, reused for the pick
            for idx, cand in enumerate(remaining):
                if deep.contains(poly_in_position(deep.ambient, cand, 0)):
                    continue
                after = screened[idx] = current.quotient_by_ideal([cand])
                want = d - step - 1
                dim_after = after.dimension()
                if (want == 0 and dim_after not in (NEG_INF, 0)) or \
                        (want > 0 and dim_after != want):
                    continue
                status, _ = _superficial_status(cand, current, seq.gens)
                if status == "verified":
                    pick = idx
                    break
                # only the colon window, for a non-linear Q, is inconclusive
                if status == "inconclusive" and fallback is None:
                    fallback = idx
            if pick is None:
                pick = fallback  # the colon test below still decides
            if pick is None:
                stuck = step
                break
            chosen.append(remaining.pop(pick))
            current = screened[pick]
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

@dataclass(frozen=True)
class DSequenceCoefficientReport:
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
        prev = module.submodule_with(
            module.ideal_multiples(list(seq.prefix(d - 1))))
        colon = submodule_colon(prev, seq.gens[d - 1])
        extra = present_subquotient(module.algebra, list(colon.gb), prev,
                                    module.ambient).total_length()
        got = seq.covolume() - extra
        checks.append(CheckResult(
            "leading coefficient from the top colon",
            "pass" if e[0] == got else "fail",
            {"coefficient": e[0], "covolume": seq.covolume(),
             "colon defect": extra}))
        h0_of = lambda mod: mod.h0().total_length()
        for i in range(1, d):
            big = h0_of(module.quotient_by_ideal(list(seq.prefix(d - i))))
            small = h0_of(module.quotient_by_ideal(
                list(seq.prefix(d - i - 1))))
            want = big - small
            got_i = ((-1) ** i) * e[i]
            checks.append(CheckResult(
                f"signed coefficient {i} from finite sections",
                "pass" if got_i == want else "fail",
                {"signed": got_i, "sections": (big, small)}))
        top = h0_of(module)
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


@dataclass(frozen=True)
class EquivalenceReport:
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
    h0_len = module.h0().total_length()
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
        qb = module.submodule_with(module.ideal_multiples(list(seq.gens)))
        inter = submodule_intersect(qb, module.h0_submodule())
        if not module.relations.contains_all(inter.gb):
            raise CrossCheckFailure(
                "the parameter multiples meet the finite sections")
        consequences.append(CheckResult(
            "parameter multiples meet no finite section", "pass"))
        duals = dual_sections(module)
        for i in range(1, d - 2):
            ann = duals[i].module.annihilator()
            missing = [str(g) for g in seq.gens
                       if not ann.contains(poly_in_position(ann.ambient, g, 0))]
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
    the mathematics are reported pass/fail."""
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
        inner = present_subquotient(
            module.algebra, module.ideal_multiples(list(gens)),
            module.relations, module.ambient)
        bound = hdeg(inner, gens) + seq.covolume()
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
    bar_cov = hilbert_samuel_table(bar, seq.gens, 0).values[0]
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
    miss them."""
    d = seq.count
    gens = seq.gens
    e = c.e
    eq_m = (seq.covolume() - e[0] + e[1]
            == hdeg(module, gens) - e[0] - torsion(module, gens, 1))
    h0b = module.h0_submodule()
    chopped = module.quotient_by_submodule(h0b)
    if chopped.is_zero():
        return CheckResult("equality transfer past the finite sections",
                           "skipped", {"reason": "nothing left after the "
                                       "finite sections"})
    cc = module_coefficients(chopped, gens)
    cov = hilbert_samuel_table(chopped, gens, 0).values[0]
    eq_c = (cov - cc.e[0] + cc.e[1]
            == hdeg(chopped, gens) - cc.e[0] - torsion(chopped, gens, 1))
    qb = module.submodule_with(module.ideal_multiples(list(gens)))
    inter = submodule_intersect(qb, h0b)
    trivial = module.relations.contains_all(inter.gb)
    return CheckResult(
        "equality transfer past the finite sections",
        "pass" if eq_m == (eq_c and trivial) else "fail",
        {"equality": eq_m, "chopped equality": eq_c,
         "intersection trivial": trivial})


# -- the aggregate ------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
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
