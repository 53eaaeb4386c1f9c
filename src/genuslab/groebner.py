"""Buchberger engine for submodules of graded free modules.

Plain Buchberger with normal selection (lowest S-pair degree first) and two
classical pair filters: the coprime-lead filter, only in rank-one ambients
where it is actually valid, and the chain filter on lcm divisibility.  No
signature-based shortcuts.  Because every element is homogeneous, pairs are
processed degree by degree, lowest first.  The engine works for any module
order the ambient's term_key defines: degrevlex, the elimination block order,
or the tangent-cone order used for length tables.

Inside a run every term is one int, packed by the run's Packing so that the
integer order is the ambient's term_key (Monagan-Pearce, J. Symbolic Comput.
2011, on packed monomials).  Multiplying a term by a monomial is one
addition, a reducer's shift is the difference of two keys, and divisibility
is one guarded subtraction, which tests every exponent at once (Bachmann-
Schoenemann, ISSAC 1998).  Each basis element is kept as its packed lead and
its tail (every other term).  S-pairs are built from the two shifted tails,
since the monic leads cancel, and reduction walks only the reducer's tail.
A reduction fills its output largest term first, so the lead of every new
element is carried in, never searched for.  Terms are packed once on the
way in and unpacked only for what callers read: the reduced basis, the
tracked part of a kernel run and normal forms.

Kernel computations (syzygies, colons, intersections, presentations of
subquotients) all reduce to one primitive: the kernel of a map from a free
module to a presented module, computed with a block order in which target
positions dominate tracking positions.  Under that order an element whose
lead lies in the tracking block lies there entirely, and those elements of
the finished Buchberger run form a basis of the kernel; only they are
interreduced.  The reduced basis is unique, so this is the kernel's reduced
basis, the same as the tracking part of the whole module's reduced basis.
A submodule is carried as its reduced basis alone (SubmoduleBasis), so
syzygies takes the generators it relates as an argument.
Under debug verification, a setting of the engine_run in force, the whole
Buchberger run is re-checked, not only the kernel: a wrongly skipped pair
can lose a kernel element and still leave the rest a Groebner basis.

Standard monomials are counted, never listed, through the Hilbert numerator
of the lead monomials.  Hilbert function values and the graded route's
length tables, through a bigraded numerator with per-variable weights,
come from that one kernel.  So do the Krull dimension and every finite
length: the dimension is the pole order at t = 1 of the Hilbert series, and
once that pole is gone the length is the value at t = 1 (Bruns-Herzog,
Cohen-Macaulay Rings, 4.1).
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from operator import mul

from .errors import (CrossCheckFailure, HomogeneityViolation, InfiniteLength,
                     PreconditionViolation)
from .ring import (FreeElement, FreeModule, Record, binomial, mono_deg,
                   mono_div, mono_divides, mono_lcm)

NEG_INF = float("-inf")

FIELD = 16                                # bits in one field of a packed term
FIELD_MASK = (1 << FIELD) - 1
EXP_LIMIT = (1 << (FIELD - 1)) - 1        # largest monomial degree in a run

TABLE_CAP = 64                            # default last length-table row


class EngineRun(Record):
    """The settings of one run and the Hilbert numerators its calls share."""
    verify: bool
    table_cap: int
    numerators: dict


_RUN = ContextVar("engine_run", default=EngineRun(False, TABLE_CAP, None))


@contextmanager
def engine_run(verify: bool = False, table_cap: int = None):
    """The with block's run: verify is --verify-gb, table_cap --max-n."""
    token = _RUN.set(EngineRun(bool(verify), TABLE_CAP if table_cap is None
                               else table_cap, {}))
    try:
        yield _RUN.get()
    finally:
        _RUN.reset(token)


def current_run() -> EngineRun:
    return _RUN.get()


def debug_verification_enabled() -> bool:
    return _RUN.get().verify


class Packing:
    """The terms (pos, e) of one ambient as ints whose integer order is the
    ambient's term_key.

    From the least significant FIELD-bit field up: rank - pos; EXP_LIMIT -
    e_i for each variable, with x_n highest (revlex); the degree; then the
    elimination block bit, or for the tangent order WMAX - W and, unbounded
    on top, the twisted degree.  Every field but the position is linear in
    e, so multiplying a term by x^s adds sum s_i * delta[i], and at one
    position the shift from L to T is T - L.  The top bit of each exponent
    field is a guard, clear in every key: L divides T at the same position
    exactly when (guarded(L) - T) & guard == guard.  A run keeps each
    monomial degree, hence each exponent, at most EXP_LIMIT (check()), so no
    field ever borrows or overflows.
    """

    __slots__ = ("rank", "floor", "shifts", "delta", "base",
                 "low", "guard", "block", "deg", "ones", "tangent")

    def __init__(self, ambient: FreeModule):
        n, rank = ambient.ring.nvars, ambient.rank
        if rank > FIELD_MASK:
            raise PreconditionViolation(
                f"rank {rank} exceeds the packed position field "
                f"({FIELD_MASK} positions)")
        self.rank = rank
        self.floor = min(ambient.twists, default=0)
        self.deg = deg = FIELD * (n + 1)
        top = deg + FIELD
        self.shifts = range(FIELD, deg, FIELD)
        self.low = (1 << deg) - 1              # position and exponent fields
        self.ones = (self.low >> FIELD) // FIELD_MASK   # bit 0 of fields 0..n-1
        self.guard = self.ones << (2 * FIELD - 1)
        self.delta = [(1 << deg) - (1 << s) for s in self.shifts]
        fixed = self.ones * EXP_LIMIT << FIELD
        self.block = None          # the elimination block bit, when there is one
        self.tangent = None        # (top, tdeg, [(weight, exponent fields)])
        b = ambient.tangent_block
        if b:
            d = ambient.tangent_weight
            wmax = d * EXP_LIMIT
            tdeg = top + wmax.bit_length()
            weights = [d] * (b - 1) + [1]
            self.tangent = (top, tdeg, [
                (w, sum(EXP_LIMIT << FIELD * (i + 1)
                        for i, v in enumerate(weights) if v == w))
                for w in sorted(set(weights))])
            weights += [0] * (n - b)
            self.delta = [x - (w << top) + (1 << tdeg)
                          for x, w in zip(self.delta, weights)]
            self.base = [fixed + (wmax << top) + (t << tdeg) + rank - pos
                         for pos, t in enumerate(ambient.twists)]
        else:
            if ambient.elim_rank:
                self.block = 1 << top
            self.base = [fixed + rank - pos + (self.block
                                               if pos < ambient.elim_rank else 0)
                         for pos in range(rank)]

    def check(self, degree: int) -> None:
        """PreconditionViolation unless every term of twisted degree
        `degree` packs without overflow."""
        if degree - self.floor > EXP_LIMIT:
            raise PreconditionViolation(
                f"monomial degree {degree - self.floor} exceeds the packed-term "
                f"limit {EXP_LIMIT} ({FIELD}-bit exponent fields)")

    def pack(self, t) -> int:
        pos, e = t
        k = self.base[pos]
        for x, d in zip(e, self.delta):
            if x:
                k += x * d
        return k

    def term(self, k: int):
        """The (pos, exps) term packed as k."""
        return (self.rank - (k & FIELD_MASK),
                tuple([EXP_LIMIT - ((k >> s) & FIELD_MASK) for s in self.shifts]))

    def guarded(self, lead: int) -> int:
        """lead's position and exponent fields with every guard bit set."""
        return (lead & self.low) | self.guard

    def degree(self, k: int) -> int:
        """The monomial degree of the term k."""
        return (k >> self.deg) & FIELD_MASK

    def lcm(self, a: int, b: int):
        """(l, deg l - deg a) for the lcm l of the terms a and b at one
        position, with no unpacking.  The guarded subtraction marks the
        exponents where b is at least a; there l takes b's field, and x
        sums the differences.  Multiplying by ones adds x's fields up in
        field n, carry-free while the degrees stay within EXP_LIMIT."""
        g = (self.guarded(a) - b) & self.guard
        sel = g - (g >> (FIELD - 1))
        x = (a & sel) - (b & sel)
        hsum = self.deg - FIELD
        h = ((x * self.ones) >> hsum) & FIELD_MASK
        k = a - x + (h << self.deg)
        if self.tangent:
            top, tdeg, groups = self.tangent
            k += h << tdeg
            for w, m in groups:
                k -= w * ((((x & m) * self.ones) >> hsum) & FIELD_MASK) << top
        return k, h


class BuchbergerState:
    """Incremental Buchberger run over a fixed ambient.

    assume_reduced_prefix marks the first k inserted generators as an already
    reduced basis: pairs inside the prefix are skipped, which is exactly
    Buchberger's criterion applied to a known basis.
    """

    def __init__(self, ambient: FreeModule, gens, assume_reduced_prefix: int = 0,
                 build_pairs: bool = True, packing: Packing = None):
        self.ambient = ambient
        self.pk = packing or Packing(ambient)
        self.prime = ambient.ring.prime
        self.leads = []          # per element, its packed lead
        self.tails = []          # per element, [(packed term, coeff)] but the lead
        self.by_pos = {}         # position field -> [(guarded lead, index)]
        self.pairs = []          # (degree, i, j, packed lcm)
        self.pending = set()
        self.prefix = assume_reduced_prefix
        self.build_pairs = build_pairs
        self.seen = {}           # packed -> input term, reused when unpacking
        count = 0
        for g in gens:
            if not g:
                continue
            work = self._pack(g, self.seen)
            if count < assume_reduced_prefix:
                self._append(max(work), work)
            else:
                self._add(work)
            count += 1

    # -- packing at the boundary

    def _pack(self, v: FreeElement, seen=None) -> dict:
        """The terms of v, packed; each input term is recorded in seen."""
        self.pk.check(v.degree)
        pack = self.pk.pack
        work = {pack(t): c for t, c in v.terms.items()}
        if seen is not None:
            seen.update(zip(work, v.terms))
        return work

    def _unpack(self, terms: dict, seen=None) -> FreeElement:
        """A packed dict whose first key is the lead, as an element; terms in
        seen keep their input tuples."""
        term, known = self.pk.term, (seen or {}).get
        out = {known(k) or term(k): c for k, c in terms.items()}
        lead = next(iter(out), None)
        return FreeElement(self.ambient, out, _checked=True, _lead=lead,
                           _degree=None if lead is None
                           else sum(lead[1]) + self.ambient.twists[lead[0]])

    @property
    def basis(self) -> list:
        """The elements so far, unpacked, monic, in insertion order."""
        return [self._unpack({lead: 1, **dict(tail)}, self.seen)
                for lead, tail in zip(self.leads, self.tails)]

    # -- basis bookkeeping

    def _enter(self, lead: int, tail: list) -> None:
        """Index the monic element with packed lead and tail."""
        self.by_pos.setdefault(lead & FIELD_MASK, []).append(
            (self.pk.guarded(lead), len(self.leads)))
        self.leads.append(lead)
        self.tails.append(tail)

    def _append(self, lead: int, terms: dict) -> None:
        """Add the element with packed terms and lead `lead`, made monic,
        with its pairs."""
        p = self.prime
        c = terms[lead]
        if c == 1:
            tail = [(k, v) for k, v in terms.items() if k != lead]
        else:
            inv = pow(c, p - 2, p)
            tail = [(k, v * inv % p) for k, v in terms.items() if k != lead]
        if self.build_pairs:
            self._queue_pairs(lead, tail)
        self._enter(lead, tail)

    def _queue_pairs(self, lead: int, tail: list) -> None:
        """Queue the pairs of the element about to enter with each earlier
        element at its position, each with its degree and packed lcm."""
        pk = self.pk
        idx = len(self.leads)
        leads, tails = self.leads, self.tails
        rank1 = self.ambient.rank == 1 and self.ambient.elim_rank == 0
        deg = pk.degree(lead) + self.ambient.twists[pk.rank
                                                    - (lead & FIELD_MASK)]
        for _, j in self.by_pos.get(lead & FIELD_MASK, ()):
            if not tail and not tails[j]:
                continue  # S-pair of two terms cancels identically
            if idx < self.prefix and j < self.prefix:
                continue
            lcm, h = pk.lcm(lead, leads[j])
            if rank1 and h == pk.degree(leads[j]):
                continue  # coprime leads, valid for ideals only
            self.pending.add((j, idx))
            heappush(self.pairs, (deg + h, j, idx, lcm))

    def find_reducer(self, t: int):
        """Index of the first basis element whose lead divides the packed
        term t, or None."""
        guard = self.pk.guard
        for lg, idx in self.by_pos.get(t & FIELD_MASK, ()):
            if (lg - t) & guard == guard:
                return idx
        return None

    # -- reduction

    def _reduce_dict(self, work: dict) -> dict:
        """Normal form of the packed element `work` (consumed), as a dict
        filled largest term first: its first key is the lead."""
        p = self.prime
        find_reducer, leads, tails = self.find_reducer, self.leads, self.tails
        heap = [-k for k in work]
        heapify(heap)
        out = {}
        while heap:
            t = -heappop(heap)
            c = work.pop(t, None)
            if c is None:
                continue  # cancelled or stale entry
            idx = find_reducer(t)
            if idx is None:
                out[t] = c
                continue
            # the reducer is monic, so its lead cancels t exactly
            shift = t - leads[idx]
            for k, c2 in tails[idx]:
                nt = k + shift
                old = work.get(nt)
                if old is None:
                    work[nt] = (-c * c2) % p
                    heappush(heap, -nt)
                else:
                    v = (old - c * c2) % p
                    if v:
                        work[nt] = v
                    else:
                        del work[nt]
        return out

    def _add(self, work: dict) -> bool:
        """Append the normal form of the packed `work`, made monic, with its
        pairs when it is nonzero; True exactly then."""
        nf = self._reduce_dict(work)
        if nf:
            self._append(next(iter(nf)), nf)
        return bool(nf)

    def normal_form(self, v: FreeElement) -> FreeElement:
        if not v:
            return v
        return self._unpack(self._reduce_dict(self._pack(v)))

    def insert(self, v: FreeElement) -> bool:
        """Append the normal form of v, made monic, with its pairs when it is
        nonzero; True exactly then."""
        return self._add(self._pack(v))

    # -- pair processing

    def _chain_skip(self, i: int, j: int, lcm: int) -> bool:
        guard = self.pk.guard
        for lg, k in self.by_pos[lcm & FIELD_MASK]:
            if k == i or k == j or (lg - lcm) & guard != guard:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in self.pending and b not in self.pending:
                return True
        return False

    def _spair(self, i: int, j: int, lcm: int) -> dict:
        """The S-pair of basis elements i and j as a packed work dict, built
        from the two shifted tails: both elements are monic, so their
        shifted leads cancel."""
        si, sj = lcm - self.leads[i], lcm - self.leads[j]
        p = self.prime
        work = {k + si: c for k, c in self.tails[i]}
        for k, c in self.tails[j]:
            nt = k + sj
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
        pairs = self.pairs
        limit = self.pk.floor + EXP_LIMIT
        while pairs:
            d = pairs[0][0]
            if until is not None and d > until:
                return
            _, i, j, lcm = heappop(pairs)
            self.pending.discard((i, j))
            if d > limit:
                # every term of the S-pair has twisted degree d
                self.pk.check(d)
            if self._chain_skip(i, j, lcm):
                continue
            self._add(self._spair(i, j, lcm))

    def reduced_basis(self, ambient: FreeModule = None, below: int = None):
        """The reduced basis of the elements so far, or of those whose
        packed lead is < below: minimal leads, fully tail-reduced, monic,
        sorted by lead term, as elements of `ambient` (this run's by
        default), which must pack these terms to the same keys."""
        order = sorted(range(len(self.leads)), key=self.leads.__getitem__)
        if below is not None:
            order = [i for i in order if self.leads[i] < below]
        reducer = BuchbergerState(ambient or self.ambient, [],
                                  build_pairs=False,
                                  packing=None if ambient else self.pk)
        for i in order:
            # a divisor lead is <= in the order, so scanning ascending suffices
            lead = self.leads[i]
            if reducer.find_reducer(lead) is None:
                reducer._enter(lead, self.tails[i])
        out = []
        for lead, tail in zip(reducer.leads, reducer.tails):
            terms = {lead: 1}
            terms.update(reducer._reduce_dict(dict(tail)))
            out.append(reducer._unpack(terms, None if ambient else self.seen))
        return out


class SubmoduleBasis:
    """A submodule of a graded free module, as its reduced basis.

    gb is canonical for the ambient and order: two bases are equal as
    submodules iff their gb tuples match.
    """

    __slots__ = ("ambient", "gb", "_index", "_series")

    def __init__(self, ambient: FreeModule, gb):
        self.ambient = ambient
        self.gb = tuple(gb)
        self._index = None
        self._series = None

    @classmethod
    def zero(cls, ambient: FreeModule) -> "SubmoduleBasis":
        return cls(ambient, ())

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
                work = st._pack(g)
                lead = st.pk.pack(g.lead_term()[0])
                del work[lead]
                st._enter(lead, list(work.items()))
            self._index = st
        return self._index

    def normal_form(self, v: FreeElement) -> FreeElement:
        if not v:
            return v
        return self._reducer().normal_form(v)

    def contains(self, v: FreeElement) -> bool:
        if not v:
            return True
        st = self._reducer()
        st.pk.check(v.degree)
        # a v whose lead no lead of the basis divides is outside, with no
        # normal form needed
        if st.find_reducer(st.pk.pack(v.lead_term()[0])) is None:
            return False
        return not st._reduce_dict(st._pack(v))

    def contains_all(self, others) -> bool:
        return all(self.contains(g) for g in others)

    def leads_by_position(self) -> dict:
        out = {}
        for g in self.gb:
            (pos, e), _ = g.lead_term()
            out.setdefault(pos, []).append(e)
        return out

    def is_full(self) -> bool:
        """Does the submodule contain every ambient generator?"""
        leads = self.leads_by_position()
        zero = self.ambient.ring.zero_exps()
        return all(zero in leads.get(pos, ()) for pos in range(self.ambient.rank))


def groebner_basis(ambient: FreeModule, gens, *,
                   assume_reduced_prefix: int = 0) -> SubmoduleBasis:
    state = BuchbergerState(ambient, gens, assume_reduced_prefix)
    state.process()
    basis = SubmoduleBasis(ambient, state.reduced_basis())
    if debug_verification_enabled():
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
    r = target.rank
    big = FreeModule(ring, tuple(target.twists) + tuple(col_twists),
                     elim_rank=r)
    # the target positions come first in big, with the same twists, so the
    # columns and relations pack as they are
    state = BuchbergerState(big, [])
    zero = ring.zero_exps()
    for idx, col in enumerate(cols):
        work = {}
        if col:
            if col.degree != col_twists[idx]:
                raise HomogeneityViolation(
                    f"column {idx} has degree {col.degree}, "
                    f"twist {col_twists[idx]}")
            work = state._pack(col)
        work[state.pk.pack((r + idx, zero))] = 1
        state._add(work)
    rel_gens = ()
    if relations is not None:
        rel_gens = relations.gb if isinstance(relations, SubmoduleBasis) else relations
    for rel in rel_gens:
        if rel:
            state._add(state._pack(rel))
    state.process()
    if debug_verification_enabled():
        # the whole big-module basis: a wrongly skipped pair may lose a
        # kernel element without leaving the kernel part non-Groebner
        verify_basis(SubmoduleBasis(big, state.basis))
    # under the block order an element whose lead lies in the tracking
    # block lies there entirely, and those elements are a basis of the
    # kernel: only they need interreducing.  Their keys, below the block
    # bit, are also the keys of the same terms in the small module, with
    # positions moved down by r.
    small = FreeModule(ring, tuple(col_twists))
    kernel = state.reduced_basis(small, below=state.pk.block)
    out = SubmoduleBasis(small, kernel)
    if debug_verification_enabled():
        verify_basis(out)
    return out


def syzygies(ambient: FreeModule, gens) -> SubmoduleBasis:
    """Syzygy module of the elements gens of ambient, as a submodule of
    S^len(gens); a zero generator gets twist 0."""
    cols = list(gens)
    twists = [g.degree if g else 0 for g in cols]
    return kernel_of_map(cols, twists, ambient)


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


def _hilbert_numerator(leads, n: int, weights=None, _memo=None) -> dict:
    """Numerator of the degreewise-size series of S/(leads) over (1-t)^n,
    as a sparse {degree: coefficient} dict; with weights, x_i has degree
    weights[i] and the series is over the product of the (1-t^weights[i]).

    Recursion on a pivot variable: quotienting by the pivot and coloning out
    the pivot split the count exactly, and once every variable touches at
    most one generator the generators are pairwise coprime and the numerator
    is a plain product.  The memo is the run's (engine_run), taken once per
    top-level call and passed down; outside every run a fresh one per call."""
    if _memo is None:
        _memo = _RUN.get().numerators
        _memo = {} if _memo is None else _memo
    leads = _minimal_leads(leads)
    key = (n, leads, weights)
    got = _memo.get(key)
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
                d = (mono_deg(e) if weights is None
                     else sum(map(mul, e, weights)))
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
            step = 1 if weights is None else weights[pivot]
            out = dict(_hilbert_numerator(tuple(plus), n, weights, _memo))
            for j, c in _hilbert_numerator(tuple(quo), n, weights,
                                           _memo).items():
                v = out.get(j + step, 0) + c
                if v:
                    out[j + step] = v
                else:
                    out.pop(j + step, None)
    _memo[key] = out
    return out


def _series_value(num: dict, n: int, t: int) -> int:
    """Coefficient of t in num/(1-t)^n.  num may have negative degrees,
    as a twisted module's numerator does."""
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
    twists and summed.  Assembled once per basis and kept on it; every
    call returns a fresh copy, so a caller may change what it gets."""
    if basis._series is None:
        n = basis.ambient.ring.nvars
        leads = basis.leads_by_position()
        out = {}
        for pos, twist in enumerate(basis.ambient.twists):
            for j, c in _hilbert_numerator(tuple(leads.get(pos, ())),
                                           n).items():
                out[j + twist] = out.get(j + twist, 0) + c
        basis._series = {j: c for j, c in out.items() if c}
    return dict(basis._series)


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
    """dim_k of the degree-t piece of ambient/basis, read off its series."""
    return _series_value(hilbert_series(basis), basis.ambient.ring.nvars, t)


def quotient_total_length(basis: SubmoduleBasis) -> int:
    """Length of ambient/basis; InfiniteLength when the dimension is > 0."""
    return series_length(hilbert_series(basis), basis.ambient.ring.nvars)
