"""Test-side constructions that the engine itself never calls.

`element_from_components` builds a module element from one polynomial per
position, the way hand-written test cases are easiest to state.
`verify_resolution_exactness` is the dense second opinion on a resolution:
degree by degree, through the oracle's row reduction, it checks that the
homology vanishes at every positive spot.  The engine checks its own
resolutions by the graded Euler characteristic instead.
"""
from genuslab import oracle
from genuslab.errors import CrossCheckFailure
from genuslab.ring import FreeElement, FreeModule


def element_from_components(ambient: FreeModule, polys) -> FreeElement:
    """The element with polys[i] in position i (None or 0 for nothing);
    degrees must agree after twisting."""
    terms = {}
    for pos, f in enumerate(polys):
        if f is None or f.is_zero:
            continue
        for e, c in f.terms.items():
            terms[(pos, e)] = c
    return FreeElement(ambient, terms)


def verify_resolution_exactness(res, degree_bound: int) -> None:
    """Dense degreewise check that the homology of the complex res vanishes
    at its positive spots up to the given degree; CrossCheckFailure names
    the first spot and degree where it does not.  Exponential in degree;
    for small instances only."""
    for i in range(1, len(res.spots)):
        fi = res.spots[i]
        lo = min(fi.twists) if fi.twists else 0
        for t in range(lo, degree_bound + 1):
            full = len(oracle.degree_terms(fi, t))
            rank_in = oracle.span_dimension(res.spots[i - 1], res.diffs[i - 1], t)
            rank_next = (oracle.span_dimension(fi, res.diffs[i], t)
                         if i < len(res.diffs) else 0)
            if full - rank_in != rank_next:
                raise CrossCheckFailure(
                    f"resolution not exact at spot {i}, degree {t}")
