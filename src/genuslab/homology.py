"""Free resolutions, dualized-resolution cohomology, depth, and Koszul
homology.

Resolutions are minimal by construction: at every step the differential is a
Nakayama-minimal generating set of the syzygy module N, a basis of N/mN
picked from N's reduced basis by one incremental Buchberger run on the picks
themselves, so no unit entries ever appear and Auslander-Buchsbaum applies
literally.  Every emitted resolution is checked two ways: consecutive
differentials compose to zero, exactly, and the graded Euler characteristic
of its free modules equals the Hilbert series of the module it resolves
(Bruns-Herzog, Cohen-Macaulay Rings, 4.1), so a lost syzygy generator is
caught too.  The dense per-degree exactness verifier, a second opinion for
small instances, lives with the tests.

The local-cohomology duals are realized as cohomology of the dualized
resolution, dropping the canonical-module twist: every consumer here (length,
dimension, annihilator, multiplicities against m-primary ideals) cannot see a
uniform twist.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CrossCheckFailure, ZeroModule
from .groebner import (NEG_INF, BuchbergerState, SubmoduleBasis,
                       combine_series, debug_verification_enabled,
                       groebner_basis, hilbert_series, kernel_of_map,
                       series_length)
from .modules import GradedModule, embed, present_subquotient, zero_module
from .ring import FreeElement, FreeModule, mono_mul, poly_times_element


def apply_columns(cols, v: FreeElement, target: FreeModule) -> FreeElement:
    """Image of v under the map sending generator i to cols[i]: c·d·x^(e+f)
    for every term c·x^e of v and d·x^f of its column, summed in one dict."""
    terms = {}
    for (pos, e), c in v.terms.items():
        for (b, f), d in cols[pos].terms.items():
            t = (b, mono_mul(e, f))
            terms[t] = terms.get(t, 0) + c * d
    return FreeElement(target, terms)


class FreeComplex:
    """Chain complex of graded free modules.

    spots[k] is the ambient at homological index k; diffs[k] lists the
    columns of the map spots[k+1] -> spots[k].
    """

    def __init__(self, spots, diffs):
        self.spots = list(spots)
        self.diffs = [list(cols) for cols in diffs]
        if len(self.diffs) != max(len(self.spots) - 1, 0):
            raise ValueError("differential count does not match spots")

    @property
    def length(self) -> int:
        return len(self.spots) - 1

    def betti_numbers(self):
        return tuple(f.rank for f in self.spots)

    def verify_compositions(self) -> None:
        """d∘d = 0, exactly, at every junction."""
        for k in range(len(self.diffs) - 1):
            for v in self.diffs[k + 1]:
                if apply_columns(self.diffs[k], v, self.spots[k]):
                    raise CrossCheckFailure(
                        f"differentials at spots {k + 2}->{k} do not compose to zero")


def minimal_generators(basis: SubmoduleBasis) -> list:
    """A Nakayama-minimal generating set for the submodule N, picked from its
    reduced basis in ascending (degree, lead term) order.

    One Buchberger run on the picks so far decides every pick (Kreuzer-
    Robbiano, Computational Commutative Algebra 2, ch. 4).  Before g of
    degree d the run is processed through degree d, so it is a basis of the
    picks' submodule P there, and g is picked exactly when its normal form
    is nonzero, that is when g is not in P_d; the normal form joins the run.
    The picks before degree d generate N below degree d, so P_d is (mN)_d
    plus the span of the earlier picks of degree d: g is picked exactly when
    it is not in mN plus the earlier picks, the definition of a basis of
    N/mN.  No basis of mN is ever built.  Under --verify-gb the picks must
    regenerate N.
    """
    ambient = basis.ambient
    picks = BuchbergerState(ambient, [])
    picked = []
    for g in sorted(basis.gb,
                    key=lambda g: (g.degree, ambient.term_key(g.lead_term()[0]))):
        picks.process(until=g.degree)
        if picks.insert(g):
            picked.append(g)
    if debug_verification_enabled() and groebner_basis(ambient, picked) != basis:
        raise CrossCheckFailure(
            "minimal generators do not regenerate the submodule")
    return picked


def minimal_presentation(module: GradedModule) -> GradedModule:
    """An isomorphic module with no unit entries in its relations: every
    relation carrying a degree-zero coefficient is used to delete the
    corresponding generator.  Of several unit entries in one relation the
    order-largest goes: they share the monomial 1, so the smallest position.
    Deletions keep the positions of the original ambient; the kept ones are
    renumbered into one free module, with one basis, at the end."""
    ring = module.algebra.ring
    one = ring.zero_exps()
    rels = list(module.relations.gb)
    kept = list(range(module.rank))
    while True:
        hit = next(((i, min(units)) for i, g in enumerate(rels)
                    if (units := [pos for pos, e in g.terms if e == one])),
                   None)
        if hit is None:
            break
        i, t = hit
        g = rels.pop(i)
        kept.remove(t)
        inv = ring.inv(g.terms[(t, one)])
        survivors = []
        for h in rels:
            ct = h.component(t)
            if ct:
                h = h - poly_times_element(ct.scale(inv), g)
            if h:
                survivors.append(h)
        rels = survivors
    if len(kept) == module.rank:
        return module
    F = FreeModule(ring, tuple(module.twists[pos] for pos in kept))
    renumber = {pos: new for new, pos in enumerate(kept)}
    basis = groebner_basis(F, [FreeElement(
        F, {(renumber[pos], e): c for (pos, e), c in h.terms.items()},
        _checked=True) for h in rels])
    return GradedModule(module.algebra, F.twists, basis,
                        relations_complete=True)


def free_resolution(module: GradedModule) -> FreeComplex:
    """Minimal graded free resolution over the ambient polynomial ring; by
    the syzygy theorem it has at most nvars differentials.  Checked before
    it is returned: d∘d = 0, and the sum over the spots i of (-1)^i times
    the sum of t^a over the twists a of spot i is the numerator of the
    module's Hilbert series over (1-t)^nvars, as exactness requires."""
    def build():
        mp = minimal_presentation(module)
        cap = module.algebra.ring.nvars
        spots = [mp.ambient]
        diffs = []
        current = mp.relations
        while True:
            cols = minimal_generators(current)
            if not cols:
                break
            if len(diffs) >= cap:
                raise CrossCheckFailure(
                    "resolution exceeds the syzygy-theorem bound")
            diffs.append(cols)
            current = kernel_of_map(cols, [c.degree for c in cols], spots[-1])
            spots.append(current.ambient)
        out = FreeComplex(spots, diffs)
        out.verify_compositions()
        euler = combine_series(*[((-1) ** i, t, {0: 1})
                                 for i, spot in enumerate(spots)
                                 for t in spot.twists])
        if euler != hilbert_series(module.relations):
            raise CrossCheckFailure(
                "free_resolution: the graded Euler characteristic of the "
                "resolution differs from the Hilbert series of the module")
        return out
    return module._memo("resolution", build)


def projective_dimension(module: GradedModule) -> int:
    return free_resolution(module).length


def _transpose(cols, dual_domain: FreeModule):
    """Columns of the dual map.  cols define F -> G by generator images in
    G; the result defines G* -> F*, one column per generator of G, each an
    element of F* (dual_domain)."""
    buckets = [{} for _ in range(cols[0].ambient.rank if cols else 0)]
    for s, col in enumerate(cols):
        for (b, e), c in col.terms.items():
            buckets[b][(s, e)] = c
    return [FreeElement(dual_domain, terms) for terms in buckets]


def ext_module(module: GradedModule, i: int) -> GradedModule:
    """Cohomology of the dualized minimal resolution at spot i, presented and
    then minimized."""
    def build():
        res = free_resolution(module)
        pd = res.length
        if i < 0 or i > pd:
            return zero_module(module.algebra)
        ring = module.algebra.ring
        fi = res.spots[i]
        fi_star = FreeModule(ring, tuple(-t for t in fi.twists))
        if i < pd:
            fnext_star = FreeModule(
                ring, tuple(-t for t in res.spots[i + 1].twists))
            tcols = _transpose(res.diffs[i], fnext_star)
            top = kernel_of_map(tcols, list(fi_star.twists), fnext_star).gb
        else:
            top = [fi_star.generator(b) for b in range(fi_star.rank)]
        if i >= 1:
            bcols = _transpose(res.diffs[i - 1], fi_star)
            bottom = groebner_basis(fi_star, bcols)
        else:
            bottom = SubmoduleBasis.zero(fi_star)
        return minimal_presentation(
            present_subquotient(module.algebra, top, bottom, fi_star))
    return module._memo(("ext", i), build)


@dataclass(frozen=True)
class DualSection:
    """One graded dual of local cohomology: index j carries the dual of the
    j-th cohomology, finite-length iff that cohomology is finitely
    generated."""
    index: int
    module: GradedModule
    finite_length: bool


def dual_sections(module: GradedModule) -> list:
    """The duals for j = 0..dim-1, via the dualized resolution.  The length
    of the j = 0 entry is cross-checked against h0_length, the length of
    the finite sections computed directly."""
    def build():
        s = module.dimension()
        n = module.algebra.ring.nvars
        out = []
        top = 0 if s == NEG_INF else max(int(s), 0)
        for j in range(top):
            mj = ext_module(module, n - j)
            dim_j = mj.dimension()
            if dim_j != NEG_INF and dim_j > j:
                raise CrossCheckFailure(
                    f"dual section {j} has dimension {dim_j} > {j}")
            out.append(DualSection(j, mj, dim_j <= 0))
        if top >= 1:
            expected = module.h0_length()
            got = out[0].module.total_length()
            if expected != got:
                raise CrossCheckFailure(
                    f"dual of the zeroth cohomology has length {got}, "
                    f"direct sections have length {expected}")
        return out
    return module._memo("duals", build)


def depth(module: GradedModule) -> int:
    """Depth, computed two independent ways and asserted equal: variable
    count minus projective dimension, and the first nonvanishing dual."""
    if module.is_zero():
        raise ZeroModule("depth of the zero module is undefined")

    def build():
        n = module.algebra.ring.nvars
        ab = n - projective_dimension(module)
        s = max(int(module.dimension()), 0)
        duals = dual_sections(module)
        from_duals = next(
            (ds.index for ds in duals if not ds.module.is_zero()), s)
        if ab != from_duals:
            raise CrossCheckFailure(
                f"depth disagreement: resolution gives {ab}, duals give "
                f"{from_duals}")
        return ab
    return module._memo("depth", build)


# -- Koszul complexes ---------------------------------------------------------

def koszul_complex(seq, module: GradedModule = None) -> FreeComplex:
    """The exterior-algebra complex of the sequence with coefficients in the
    module's ambient: d(e_{i1<..<ik}) = sum_j (-1)^{j+1} a_{ij} e_{..without ij..}."""
    m = module if module is not None else seq.module
    F = m.ambient
    ring = m.algebra.ring
    d = seq.count
    degs = [a.degree for a in seq.gens]
    r = F.rank
    subsets = [list(itertools.combinations(range(d), k)) for k in range(d + 1)]
    index = [{T: i for i, T in enumerate(level)} for level in subsets]
    spots = []
    for k in range(d + 1):
        twists = []
        for T in subsets[k]:
            shift = sum(degs[j] for j in T)
            twists.extend(t + shift for t in F.twists)
        spots.append(FreeModule(ring, tuple(twists)))
    diffs = []
    for k in range(1, d + 1):
        cols = []
        for T in subsets[k]:
            for b in range(r):
                terms = {}
                for jpos, ij in enumerate(T):
                    # deleting distinct entries of T lands in distinct blocks,
                    # so no accumulation across j
                    rest = T[:jpos] + T[jpos + 1:]
                    flat = index[k - 1][rest] * r + b
                    sign = 1 if jpos % 2 == 0 else -1
                    for e, c in seq.gens[ij].terms.items():
                        terms[(flat, e)] = sign * c
                cols.append(FreeElement(spots[k - 1], terms))
        diffs.append(cols)
    out = FreeComplex(spots, diffs)
    out.verify_compositions()
    return out


def koszul_homology_lengths(seq, module: GradedModule = None) -> list:
    """Exact lengths of the homology of the sequence's complex with
    coefficients in the presented module, spots 0..d.

    The complex is K_i = F_i/N_i, with N_i the relation blocks of F_i.  At
    spot i the boundaries B_i are the image of F_(i+1) plus N_i, and the
    cycles Z_i the preimage of N_(i-1), so that H_i = Z_i/B_i and
    HS(H_i) = HS(F_i/B_i) - HS(F_i/Z_i).  The differential maps F_i/Z_i
    isomorphically onto B_(i-1)/N_(i-1), in degree 0 on the twisted spots,
    so HS(F_i/Z_i) = HS(F_(i-1)/N_(i-1)) - HS(F_(i-1)/B_(i-1)), where
    F_(i-1)/N_(i-1) is one copy of F/N per (i-1)-subset T, twisted by
    deg a_T.  So every length is read off the one basis of each B_i, with
    no kernel and no presentation of H_i (additivity of Hilbert series,
    Bruns-Herzog, Cohen-Macaulay Rings, 4.1): it is the value of that
    difference at t = 1, and InfiniteLength when the difference has a pole
    there, as total_length raises.  Under --verify-gb each H_i is also
    presented from the kernel Z_i and its length compared."""
    m = module if module is not None else seq.module
    cx = koszul_complex(seq, m)
    algebra = m.algebra
    n_gb = m.relations.gb
    r = m.ambient.rank
    d = seq.count
    degs = [a.degree for a in seq.gens]
    relation_series = hilbert_series(m.relations)

    def blocks(spot: FreeModule):
        return [embed(g, spot, blk * r)
                for blk in range(spot.rank // r if r else 0) for g in n_gb]

    lengths = []
    below = None  # HS(F_(i-1)/B_(i-1))
    for i in range(d + 1):
        spot = cx.spots[i]
        bottom_gens = list(cx.diffs[i]) if i < d else []
        bottom = groebner_basis(spot, bottom_gens + blocks(spot))
        if i == 0:
            cycles = {}  # Z_0 = F_0
        else:
            cycles = combine_series(
                *[(1, sum(degs[j] for j in T), relation_series)
                  for T in itertools.combinations(range(d), i - 1)],
                (-1, 0, below))
        boundaries = hilbert_series(bottom)
        length = series_length(combine_series((1, 0, boundaries),
                                              (-1, 0, cycles)),
                               algebra.ring.nvars)
        if debug_verification_enabled():
            if i == 0:
                top = [spot.generator(b) for b in range(spot.rank)]
            else:
                top = kernel_of_map(cx.diffs[i - 1], list(spot.twists),
                                    cx.spots[i - 1],
                                    relations=blocks(cx.spots[i - 1])).gb
            presented = present_subquotient(algebra, top, bottom,
                                            spot).total_length()
            if presented != length:
                raise CrossCheckFailure(
                    f"koszul_homology_lengths at spot {i}: length {length} "
                    f"from the series, {presented} from the presentation")
        lengths.append(length)
        below = boundaries
    return lengths
