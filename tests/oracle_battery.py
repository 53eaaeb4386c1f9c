"""Randomized engine-vs-oracle comparisons.

Shared between the engine tests and the acceptance gate: the basis engine
answers membership and graded-dimension queries, the dense oracle answers the
same queries by row reduction, and every agreement is counted.  Any mismatch
raises immediately.
"""
import random

from genuslab import oracle
from genuslab.groebner import (groebner_basis, quotient_hilbert_function,
                               verify_basis)
from genuslab.ring import FreeModule, Polynomial, PolyRing, poly_times_element

from reference import element_from_components


def random_poly(rng, ring, degree):
    if degree < 0:
        return None
    monos = list(ring.monomials_of_degree(degree))
    picked = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
    return Polynomial(ring, {m: rng.randrange(1, ring.prime) for m in picked})


def random_element(rng, ambient, t):
    terms = {}
    for pos, twist in enumerate(ambient.twists):
        d = t - twist
        if d < 0:
            continue
        monos = list(ambient.ring.monomials_of_degree(d))
        for m in rng.sample(monos, k=min(len(monos), rng.randint(0, 2))):
            terms[(pos, m)] = rng.randrange(1, ambient.ring.prime)
    from genuslab.ring import FreeElement
    return FreeElement(ambient, terms)


def run_battery(queries: int, seed: int, verify: bool = False) -> int:
    """Run engine-vs-oracle queries until `queries` agreements accumulate.
    Returns the number of comparisons made."""
    rng = random.Random(seed)
    done = 0
    while done < queries:
        nvars = rng.choice([2, 2, 3])
        ring = PolyRing(tuple("xyz"[:nvars]))
        rank = rng.choice([1, 1, 2])
        twists = tuple(rng.choice([0, 0, 1]) for _ in range(rank))
        F = FreeModule(ring, twists)
        gens = []
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(rank)
            deg = rng.randint(1, 3) + twists[pos]
            comps = []
            for q in range(rank):
                d = deg - twists[q]
                if d < 0 or (q != pos and rng.random() < 0.5):
                    comps.append(None)
                else:
                    comps.append(random_poly(rng, ring, d))
            v = element_from_components(F, comps)
            if v:
                gens.append(v)
        basis = groebner_basis(F, gens)
        if verify:
            verify_basis(basis)

        for t in range(min(twists) if twists else 0, 7):
            engine = quotient_hilbert_function(basis, t)
            dense = oracle.quotient_dimension_at(F, gens, t)
            assert engine == dense, (
                f"graded count mismatch at degree {t}: engine {engine}, "
                f"oracle {dense} (seed {seed})")
            done += 1

        for _ in range(4):
            t = rng.randint(min(twists, default=0), 6)
            v = random_element(rng, F, t)
            assert basis.contains(v) == oracle.membership(v, gens), (
                f"membership mismatch on random element (seed {seed})")
            done += 1

        if gens:
            # elements built inside the submodule must always test positive
            g = rng.choice(gens)
            f = random_poly(rng, ring, rng.randint(0, 2))
            v = poly_times_element(f, g)
            if len(gens) > 1:
                h = rng.choice(gens)
                d = v.degree - h.degree if v else None
                if d is not None and d >= 0:
                    w = random_poly(rng, ring, d)
                    v = v + poly_times_element(w, h)
            assert basis.contains(v)
            assert oracle.membership(v, gens)
            done += 2
    return done
