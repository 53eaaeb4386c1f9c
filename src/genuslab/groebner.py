"""Buchberger engine for submodules of graded free modules.

Plain Buchberger with normal selection (lowest S-pair degree first) and two
classical pair filters: the coprime-lead filter, only in rank-one ambients
where it is actually valid, and the chain filter on lcm divisibility.  No
signature-based shortcuts.  Because every element is homogeneous, pairs are
processed degree by degree, lowest first.  The engine works for any module
order the ambient's term_key defines: degrevlex, the elimination block order,
or the tangent-cone order used for length tables.

Each basis element is kept as its lead, its tail (every other term) and a
bit mask of the variables in its lead.  A candidate reducer is rejected on
the mask before its exponents are compared (Bachmann-Schoenemann, ISSAC
1998), S-pairs are built from the two shifted tails, since the monic leads
cancel, and reduction walks only the reducer's tail.  A reduction fills its
output largest term first, so the lead of every new element is carried in,
never searched for.

Kernel computations (syzygies, colons, intersections, presentations of
subquotients) all reduce to one primitive: the kernel of a map from a free
module to a presented module, computed with a block order in which target
positions dominate tracking positions.  Under that order an element whose
lead lies in the tracking block lies there entirely, and those elements of
the finished Buchberger run form a basis of the kernel; only they are
interreduced.  The reduced basis is unique, so this is the kernel's reduced
basis, the same as the tracking part of the whole module's reduced basis.
Under debug verification the whole run is re-checked, not only the kernel:
a wrongly skipped pair can lose a kernel element and still leave the rest a
Groebner basis.

Standard monomials are counted, never listed, through the Hilbert numerator
of the lead monomials.  Hilbert function values and the length-table slices
come from that one kernel.  So do the Krull dimension and every finite
length: the dimension is the pole order at t = 1 of the Hilbert series, and
once that pole is gone the length is the value at t = 1 (Bruns-Herzog,
Cohen-Macaulay Rings, 4.1).
"""
from __future__ import annotations

import heapq

from .errors import CrossCheckFailure, InfiniteLength
from .ring import (FreeElement, FreeModule, binomial, mono_deg, mono_div,
                   mono_divides, mono_lcm, mono_mask)

NEG_INF = float("-inf")

_DEBUG_VERIFY = False


def set_debug_verification(flag: bool) -> None:
    """When on, every completed basis re-checks that all S-pairs reduce to
    zero, with no pair filters.  Slow; meant for tests and --verify-gb."""
    global _DEBUG_VERIFY
    _DEBUG_VERIFY = bool(flag)


def debug_verification_enabled() -> bool:
    return _DEBUG_VERIFY


class BuchbergerState:
    """Incremental Buchberger run over a fixed ambient.

    assume_reduced_prefix marks the first k inserted generators as an already
    reduced basis: pairs inside the prefix are skipped, which is exactly
    Buchberger's criterion applied to a known basis.
    """

    def __init__(self, ambient: FreeModule, gens, assume_reduced_prefix: int = 0,
                 build_pairs: bool = True):
        self.ambient = ambient
        self.basis = []
        self.by_pos = {}         # pos -> [(lead degree, lead exps, mask, index)]
        self.leads = []
        self.tails = []          # per element, its terms but the lead
        self.pairs = []
        self.pending = set()
        self.prefix = assume_reduced_prefix
        self.build_pairs = build_pairs
        count = 0
        for g in gens:
            if not g:
                continue
            if count < assume_reduced_prefix:
                self._append(g.monic())
            else:
                self.insert(g)
            count += 1

    # -- basis bookkeeping

    def _append(self, g: FreeElement) -> None:
        """Add the monic element g, with its lead, its tail (every term but
        the lead) and the divisibility mask of its lead."""
        idx = len(self.basis)
        self.basis.append(g)
        lead, _ = g.lead_term()
        pos, exps = lead
        mask = mono_mask(exps)
        tail = [(t, c) for t, c in g.terms.items() if t != lead]
        self.leads.append(lead)
        self.tails.append(tail)
        self.by_pos.setdefault(pos, []).append((mono_deg(exps), exps, mask, idx))
        if not self.build_pairs:
            return
        rank1 = self.ambient.rank == 1 and self.ambient.elim_rank == 0
        for dj, ej, mj, j in self.by_pos[pos][:-1]:
            if not tail and not self.tails[j]:
                continue  # S-pair of two terms cancels identically
            if idx < self.prefix and j < self.prefix:
                continue
            if rank1 and not mask & mj:
                continue  # coprime leads, valid for ideals only
            lcm = mono_lcm(exps, ej)
            pair = (j, idx)
            self.pending.add(pair)
            heapq.heappush(self.pairs,
                           (mono_deg(lcm) + self.ambient.twists[pos], j, idx))

    def find_reducer(self, t):
        """Index of the first basis element whose lead divides the term t,
        or None."""
        pos, exps = t
        lst = self.by_pos.get(pos)
        if not lst:
            return None
        d = mono_deg(exps)
        miss = ~mono_mask(exps)
        for dg, eg, mg, idx in lst:
            if dg <= d and not mg & miss and mono_divides(eg, exps):
                return idx
        return None

    # -- reduction

    def _reduce_dict(self, work: dict) -> dict:
        """Normal form of the element `work` (consumed), as a dict filled
        largest term first: its first key is the lead."""
        ambient = self.ambient
        p = ambient.ring.prime
        heap_key = ambient.heap_key
        heap = [(heap_key(t), t) for t in work]
        heapq.heapify(heap)
        leads, tails = self.leads, self.tails
        out = {}
        while heap:
            _, t = heapq.heappop(heap)
            c = work.pop(t, None)
            if c is None:
                continue  # cancelled or stale entry
            idx = self.find_reducer(t)
            if idx is None:
                out[t] = c
                continue
            # the reducer is monic, so its lead cancels t exactly
            shift = mono_div(t[1], leads[idx][1])
            for (pos2, e2), c2 in tails[idx]:
                nt = (pos2, tuple(x + y for x, y in zip(e2, shift)))
                old = work.get(nt)
                if old is None:
                    v = (-c * c2) % p
                    if v:
                        work[nt] = v
                        heapq.heappush(heap, (heap_key(nt), nt))
                else:
                    v = (old - c * c2) % p
                    if v:
                        work[nt] = v
                    else:
                        del work[nt]
        return out

    def _element(self, terms: dict) -> FreeElement:
        """A reduced dict as an element; its first key is the lead."""
        return FreeElement(self.ambient, terms, _checked=True,
                           _lead=next(iter(terms), None))

    def normal_form(self, v: FreeElement) -> FreeElement:
        if not v:
            return v
        return self._element(self._reduce_dict(dict(v.terms)))

    def insert(self, v: FreeElement) -> bool:
        """Append the normal form of v, made monic, with its pairs when it is
        nonzero; True exactly then."""
        nf = self.normal_form(v)
        if nf:
            self._append(nf.monic())
        return bool(nf)

    # -- pair processing

    def _chain_skip(self, i: int, j: int) -> bool:
        pos, ei = self.leads[i]
        lcm = mono_lcm(ei, self.leads[j][1])
        miss = ~mono_mask(lcm)
        for _, ek, mk, k in self.by_pos[pos]:
            if k == i or k == j:
                continue
            if mk & miss or not mono_divides(ek, lcm):
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in self.pending and b not in self.pending:
                return True
        return False

    def _spair(self, i: int, j: int) -> dict:
        """The S-pair of basis elements i and j as a work dict, built from
        the two shifted tails: both elements are monic, so their shifted
        leads cancel."""
        ei, ej = self.leads[i][1], self.leads[j][1]
        lcm = mono_lcm(ei, ej)
        si, sj = mono_div(lcm, ei), mono_div(lcm, ej)
        p = self.ambient.ring.prime
        work = {(pos, tuple(x + y for x, y in zip(e, si))): c
                for (pos, e), c in self.tails[i]}
        for (pos, e), c in self.tails[j]:
            nt = (pos, tuple(x + y for x, y in zip(e, sj)))
            v = (work.get(nt, 0) - c) % p
            if v:
                work[nt] = v
            else:
                work.pop(nt, None)
        return work

    def process(self, until=None) -> None:
        """Run until the pair queue is empty, or only pairs of degree > until
        remain.  Homogeneity makes the truncated state complete through
        degree `until`."""
        while self.pairs:
            d = self.pairs[0][0]
            if until is not None and d > until:
                return
            _, i, j = heapq.heappop(self.pairs)
            self.pending.discard((i, j))
            if self._chain_skip(i, j):
                continue
            nf = self._reduce_dict(self._spair(i, j))
            if nf:
                self._append(self._element(nf).monic())

    def leads_by_position(self) -> dict:
        out = {}
        for pos, lst in self.by_pos.items():
            out[pos] = [e for _, e, _, _ in lst]
        return out


def _interreduce(ambient: FreeModule, elems):
    """Minimal leads, fully tail-reduced, monic, sorted by lead term."""
    elems = [g for g in elems if g]
    elems.sort(key=lambda g: ambient.term_key(g.lead_term()[0]))
    reducer = BuchbergerState(ambient, [], build_pairs=False)
    for g in elems:
        (pos, e), _ = g.lead_term()
        # a divisor lead is <= in the order, so scanning ascending suffices
        if reducer.find_reducer((pos, e)) is None:
            reducer._append(g.monic())
    out = []
    for g, tail in zip(reducer.basis, reducer.tails):
        lt, lc = g.lead_term()
        terms = {lt: lc}
        terms.update(reducer._reduce_dict(dict(tail)))
        out.append(FreeElement(ambient, terms, _checked=True, _lead=lt))
    out.sort(key=lambda g: ambient.term_key(g.lead_term()[0]))
    return out


class SubmoduleBasis:
    """A submodule of a graded free module, carrying its reduced basis.

    gb is canonical for the ambient and order: two bases are equal as
    submodules iff their gb tuples match.
    """

    __slots__ = ("ambient", "gens", "gb", "_index")

    def __init__(self, ambient: FreeModule, gens, gb):
        self.ambient = ambient
        self.gens = tuple(gens)
        self.gb = tuple(gb)
        self._index = None

    @classmethod
    def zero(cls, ambient: FreeModule) -> "SubmoduleBasis":
        return cls(ambient, (), ())

    def __eq__(self, other):
        return (isinstance(other, SubmoduleBasis)
                and self.ambient == other.ambient
                and len(self.gb) == len(other.gb)
                and all(a.terms == b.terms for a, b in zip(self.gb, other.gb)))

    def __hash__(self):
        return hash((self.ambient, len(self.gb)))

    def _reducer(self) -> BuchbergerState:
        if self._index is None:
            st = BuchbergerState(self.ambient, [], build_pairs=False)
            for g in self.gb:
                st._append(g)
            self._index = st
        return self._index

    def normal_form(self, v: FreeElement) -> FreeElement:
        if not v:
            return v
        return self._reducer().normal_form(v)

    def contains(self, v: FreeElement) -> bool:
        # a v whose lead no lead of the basis divides is outside, with no
        # normal form needed
        if v and self._reducer().find_reducer(v.lead_term()[0]) is None:
            return False
        return not self.normal_form(v)

    def contains_all(self, others) -> bool:
        return all(self.contains(g) for g in others)

    def leads_by_position(self) -> dict:
        out = {}
        for g in self.gb:
            (pos, e), _ = g.lead_term()
            out.setdefault(pos, []).append(e)
        return out

    def standard_monomial_count(self, t: int) -> int:
        """Number of monomials of degree t in the quotient ambient/self."""
        leads = self.leads_by_position()
        n = self.ambient.ring.nvars
        total = 0
        for pos, twist in enumerate(self.ambient.twists):
            total += count_standard_monomials(leads.get(pos, ()), n, t - twist)
        return total

    def is_full(self) -> bool:
        """Does the submodule contain every ambient generator?"""
        leads = self.leads_by_position()
        zero = self.ambient.ring.zero_exps()
        return all(zero in leads.get(pos, ()) for pos in range(self.ambient.rank))


def groebner_basis(ambient: FreeModule, gens, *, assume_reduced_prefix: int = 0,
                   keep_gens=None) -> SubmoduleBasis:
    live = [g for g in gens if g]
    state = BuchbergerState(ambient, live, assume_reduced_prefix)
    state.process()
    gb = _interreduce(ambient, state.basis)
    basis = SubmoduleBasis(ambient, keep_gens if keep_gens is not None else live, gb)
    if _DEBUG_VERIFY:
        verify_basis(basis)
    return basis


def verify_basis(basis: SubmoduleBasis) -> None:
    """Re-check the Buchberger criterion on the finished basis, skipping no
    pairs, and each carried lead against a fresh maximum over the terms.
    CrossCheckFailure on any nonzero remainder or wrong lead."""
    gb = basis.gb
    term_key = basis.ambient.term_key
    for g in gb:
        if g.lead_term()[0] != max(g.terms, key=term_key):
            raise CrossCheckFailure(
                f"carried lead {g.lead_term()[0]} is not the largest term")
    for i in range(len(gb)):
        (pi, ei), _ = gb[i].lead_term()
        for j in range(i + 1, len(gb)):
            (pj, ej), _ = gb[j].lead_term()
            if pi != pj:
                continue
            lcm = mono_lcm(ei, ej)
            s = gb[i].shifted(mono_div(lcm, ei)) - gb[j].shifted(mono_div(lcm, ej))
            if basis.normal_form(s):
                raise CrossCheckFailure(
                    f"S-pair ({i},{j}) does not reduce to zero")


# -- kernels ------------------------------------------------------------------

def kernel_of_map(cols, col_twists, target: FreeModule,
                  relations=None) -> SubmoduleBasis:
    """Kernel of the map S^k -> target/relations sending the k-th generator
    to cols[k].

    cols are elements of `target` (zero allowed, with its twist supplied in
    col_twists).  Returns a basis in a plain rank-k ambient with twists
    col_twists; its generators give every tuple (u_1..u_k) with
    sum u_i * cols[i] inside the relation submodule.
    """
    ring = target.ring
    big = FreeModule(ring, tuple(target.twists) + tuple(col_twists),
                     elim_rank=target.rank)
    elems = []
    for idx, col in enumerate(cols):
        terms = {(pos, e): c for (pos, e), c in col.terms.items()}
        terms[(target.rank + idx, ring.zero_exps())] = 1
        elems.append(FreeElement(big, terms))
    rel_gens = ()
    if relations is not None:
        rel_gens = relations.gb if isinstance(relations, SubmoduleBasis) else relations
    for rel in rel_gens:
        if not rel:
            continue
        elems.append(FreeElement(big, dict(rel.terms), _checked=True))
    # under the block order an element whose lead lies in the tracking
    # block lies there entirely, and those elements are a basis of the
    # kernel: only they need interreducing
    state = BuchbergerState(big, elems)
    state.process()
    if _DEBUG_VERIFY:
        # the whole big-module basis: a wrongly skipped pair may lose a
        # kernel element without leaving the kernel part non-Groebner
        verify_basis(SubmoduleBasis(big, elems, state.basis))
    small = FreeModule(ring, tuple(col_twists))
    r = target.rank
    tracked = []
    for g in state.basis:
        (pos, e), _ = g.lead_term()
        if pos >= r:
            tracked.append(FreeElement(
                small, {(q - r, m): c for (q, m), c in g.terms.items()},
                _checked=True, _lead=(pos - r, e)))
    kernel = _interreduce(small, tracked)
    out = SubmoduleBasis(small, kernel, kernel)
    if _DEBUG_VERIFY:
        verify_basis(out)
    return out


def syzygies(basis: SubmoduleBasis) -> SubmoduleBasis:
    """Syzygy module of basis.gens, as a submodule of S^len(gens)."""
    cols = list(basis.gens)
    twists = [g.degree if g else 0 for g in cols]
    return kernel_of_map(cols, twists, basis.ambient, relations=None)


# -- standard monomial counting ----------------------------------------------
# One mechanism: the Hilbert numerator of a monomial ideal, by the pivot
# recursion of Bayer-Stillman and Bigatti.  A Hilbert function value, the
# Krull dimension and the length of a finite quotient are all read off the
# numerator; no monomial is ever listed.

def _minimal_leads(leads):
    out = []
    for e in sorted(leads, key=lambda e: (mono_deg(e), e)):
        if not any(mono_divides(k, e) for k in out):
            out.append(e)
    return tuple(out)


_NUMERATOR_CACHE = {}


def _hilbert_numerator(leads, n: int) -> dict:
    """Numerator of the degreewise-size series of S/(leads) over (1-t)^n,
    as a sparse {degree: coefficient} dict.

    Recursion on a pivot variable: quotienting by the pivot and coloning out
    the pivot split the count exactly, and once every variable touches at
    most one generator the generators are pairwise coprime and the numerator
    is a plain product.
    """
    leads = _minimal_leads(leads)
    key = (n, leads)
    got = _NUMERATOR_CACHE.get(key)
    if got is not None:
        return got
    if any(mono_deg(e) == 0 for e in leads):
        out = {}
    else:
        counts = [0] * n
        for e in leads:
            for i, a in enumerate(e):
                if a:
                    counts[i] += 1
        pivot = max(range(n), key=counts.__getitem__) if n else 0
        if not leads or counts[pivot] <= 1:
            out = {0: 1}
            for e in leads:
                d = mono_deg(e)
                nxt = {}
                for j, c in out.items():
                    nxt[j] = nxt.get(j, 0) + c
                    nxt[j + d] = nxt.get(j + d, 0) - c
                out = {j: c for j, c in nxt.items() if c}
        else:
            unit = tuple(1 if i == pivot else 0 for i in range(n))
            plus = [e for e in leads if e[pivot] == 0] + [unit]
            quo = [tuple(a - 1 if i == pivot and a else a
                         for i, a in enumerate(e)) for e in leads]
            out = dict(_hilbert_numerator(tuple(plus), n))
            for j, c in _hilbert_numerator(tuple(quo), n).items():
                v = out.get(j + 1, 0) + c
                if v:
                    out[j + 1] = v
                else:
                    out.pop(j + 1, None)
    _NUMERATOR_CACHE[key] = out
    return out


def _series_value(num: dict, n: int, t: int) -> int:
    if t < 0:
        return 0
    if n == 0:
        return num.get(t, 0)
    return sum(c * binomial(t - j + n - 1, n - 1)
               for j, c in num.items() if j <= t)


def count_standard_monomials(leads, n: int, d: int) -> int:
    """Monomials of degree d in n variables outside the monomial ideal
    generated by `leads`."""
    return _series_value(_hilbert_numerator(tuple(leads), n), n, d)


def hilbert_series(basis: SubmoduleBasis) -> dict:
    """Numerator over (1-t)^nvars of the Hilbert series of ambient/basis:
    the per-position numerators of the lead monomials, shifted by the
    twists and summed.  A fresh dict on each call."""
    n = basis.ambient.ring.nvars
    leads = basis.leads_by_position()
    out = {}
    for pos, twist in enumerate(basis.ambient.twists):
        for j, c in _hilbert_numerator(tuple(leads.get(pos, ())), n).items():
            out[j + twist] = out.get(j + twist, 0) + c
    return {j: c for j, c in out.items() if c}


def combine_series(*parts) -> dict:
    """The numerator sum of sign·t^shift·num over the (sign, shift, num)
    parts, zero coefficients dropped: how exact sequences of graded
    modules add and shift Hilbert series over a common (1-t)^n."""
    out = {}
    for sign, shift, num in parts:
        for j, c in num.items():
            out[j + shift] = out.get(j + shift, 0) + sign * c
    return {j: c for j, c in out.items() if c}


def series_dimension(num: dict, n: int):
    """(d, e) for the series num/(1-t)^n of a graded module: d is the pole
    order at t = 1, the Krull dimension, and e = h(1) for the numerator h
    of the series over (1-t)^d, the multiplicity, which for d = 0 is the
    length.  (-inf, 0) for the zero series.

    While the coefficients of the numerator sum to 0 it is divisible by
    1-t; the quotient's coefficients are the numerator's prefix sums.  A
    nonzero series that needs d < 0 is no Hilbert series:
    CrossCheckFailure."""
    if not any(num.values()):
        return NEG_INF, 0
    low = min(num)
    coeffs = [num.get(j, 0) for j in range(low, max(num) + 1)]
    d = n
    while sum(coeffs) == 0:
        if d == 0:
            raise CrossCheckFailure(
                "a nonzero Hilbert series vanishes at t = 1 without a pole")
        acc, quo = 0, []
        for c in coeffs[:-1]:
            acc += c
            quo.append(acc)
        coeffs = quo
        d -= 1
    return d, sum(coeffs)


def finite_colength(leads, n: int) -> int:
    """Monomials in n variables outside the monomial ideal generated by
    `leads`, which must have finite colength: the series then has no pole,
    and the count is its value at t = 1.  CrossCheckFailure when the series
    does not end."""
    d, e = series_dimension(_hilbert_numerator(tuple(leads), n), n)
    if d > 0:
        raise CrossCheckFailure(
            "finite colength expected, but the Hilbert series does not end")
    return e


def series_length(num: dict, n: int) -> int:
    """The length of the module with series num/(1-t)^n, its value at
    t = 1; InfiniteLength when the series has a pole there."""
    d, e = series_dimension(num, n)
    if d > 0:
        raise InfiniteLength(f"quotient has dimension {d}")
    return e


def quotient_dimension(basis: SubmoduleBasis):
    """Krull dimension of ambient/basis: the pole order at t = 1 of its
    Hilbert series.  -inf for the zero quotient."""
    return series_dimension(hilbert_series(basis), basis.ambient.ring.nvars)[0]


def quotient_hilbert_function(basis: SubmoduleBasis, t: int) -> int:
    return basis.standard_monomial_count(t)


def quotient_total_length(basis: SubmoduleBasis) -> int:
    """Length of ambient/basis; InfiniteLength when the dimension is > 0."""
    return series_length(hilbert_series(basis), basis.ambient.ring.nvars)
