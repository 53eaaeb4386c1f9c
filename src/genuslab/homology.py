"""Free resolutions, dualized-resolution cohomology, depth, and Koszul
homology.

Minimal generators are picked one way, `modules.minimal_picks`: one
incremental Buchberger run that keeps an element exactly when its normal
form modulo the submodule below and the earlier picks is nonzero.  It picks
each differential of a resolution from the reduced basis of the syzygy
module N, a basis of N/mN, and the generators of every presentation this
layer builds (`minimal_presentation`, the Ext duals), so no relation and no
differential has a unit entry and Auslander-Buchsbaum applies literally.
Every emitted resolution is checked two ways: consecutive differentials
compose to zero, exactly, and the graded Euler characteristic of its free
modules equals the Hilbert series of the module it resolves (Bruns-Herzog,
Cohen-Macaulay Rings, 4.1), so a lost syzygy generator is caught too.  The
dense per-degree exactness verifier, a second opinion for small instances,
lives with the tests.

The local-cohomology duals are realized as cohomology of the dualized
resolution, dropping the canonical-module twist: every consumer here (length,
dimension, annihilator, multiplicities against m-primary ideals) cannot see a
uniform twist.
"""
from __future__ import annotations

import itertools

from .errors import CrossCheckFailure, ZeroModule
from .groebner import (NEG_INF, SubmoduleBasis, combine_series,
                       debug_verification_enabled, groebner_basis,
                       hilbert_series, kernel_of_map, series_length)
from .modules import (GradedModule, embed, minimal_picks, present_subquotient,
                      zero_module)
from .ring import FreeElement, FreeModule, Record, mono_mul


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
    """A basis of N/mN for the submodule N, picked by `minimal_picks` from
    its reduced basis, sorted by lead, so in (degree, lead term) order."""
    return minimal_picks(basis.gb, SubmoduleBasis.zero(basis.ambient))


def minimal_presentation(module: GradedModule) -> GradedModule:
    """An isomorphic module with no unit entries in its relations: the
    module itself when no relation has a degree-zero entry (so N lies in
    mF), else the module presented on its own generators."""
    one = module.algebra.ring.zero_exps()
    if not any(e == one for g in module.relations.gb for _, e in g.terms):
        return module
    gens = [module.ambient.generator(i) for i in range(module.rank)]
    return present_subquotient(module.algebra, gens, module.relations,
                               module.ambient)


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
    """Cohomology of the dualized minimal resolution at spot i, the kernel
    of d_i^T over the image of d_(i-1)^T, presented on minimal picks of the
    kernel's basis: the zero module when every element of the kernel lies
    in the image, with no presentation built.

    At i = pd the kernel is F_pd* and the image lies in m·F_pd* (minimal
    resolution), so the module is F_pd* over the image, with no pick and no
    kernel; under --verify-gb every generator must still be picked."""
    def build():
        res = free_resolution(module)
        pd = res.length
        if i < 0 or i > pd:
            return zero_module(module.algebra)
        ring = module.algebra.ring
        fi_star = FreeModule(ring, tuple(-t for t in res.spots[i].twists))
        bottom = groebner_basis(
            fi_star, _transpose(res.diffs[i - 1], fi_star) if i else [])
        if i < pd:
            fnext_star = FreeModule(
                ring, tuple(-t for t in res.spots[i + 1].twists))
            tcols = _transpose(res.diffs[i], fnext_star)
            top = kernel_of_map(tcols, list(fi_star.twists), fnext_star).gb
            return present_subquotient(module.algebra, top, bottom, fi_star)
        if debug_verification_enabled() and len(minimal_picks(
                [fi_star.generator(b) for b in range(fi_star.rank)],
                bottom)) < fi_star.rank:
            raise CrossCheckFailure(
                f"ext_module: a generator of F_{i}* at spot pd is not picked")
        return GradedModule(module.algebra, fi_star.twists, bottom,
                            relations_complete=True)
    return module._memo(("ext", i), build)


class DualSection(Record):
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
    there, as total_length raises.  B_0 is the module's power_submodule
    N + QF.  Under --verify-gb B_0 is also built from the complex, and each
    H_i is presented from the kernel Z_i, and both must agree."""
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
        bottom_gens = (list(cx.diffs[i]) if i < d else []) + blocks(spot)
        if i == 0:
            bottom = m.power_submodule(seq.gens)  # B_0 = N + QF
            cycles = {}  # Z_0 = F_0
        else:
            bottom = groebner_basis(spot, bottom_gens)
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
                if bottom != groebner_basis(spot, bottom_gens):
                    raise CrossCheckFailure("koszul_homology_lengths: B_0 "
                                            "differs from the module's N + QF")
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
