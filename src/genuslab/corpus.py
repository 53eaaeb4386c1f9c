"""Reference instance families and seeded random instances.

Three constructed families with known closed-form invariants (a product
quadric quotient with a linear reduction, an upper-triangular cokernel over
a hypersurface, a square-zero extension), plus a deterministic monomial
instance generator for property suites.
"""
import random

from .errors import CrossCheckFailure, GenerationFailure, PreconditionViolation
from .invariants import CheckResult, covolume, multiplicity
from .modules import GradedAlgebra, GradedModule, ParameterSequence, \
    idealization, module_from_matrix
from .ring import Polynomial, PolyRing, Record, binomial


class InstanceDescriptor:
    def __init__(self, family: str, params: dict, expected: dict = None):
        self.family = family
        self.params = params
        self.expected = {} if expected is None else expected

    @property
    def instance_id(self) -> str:
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}({inner})"


def build_example44(l: int, m: int, p: int = 32003):
    """Quotient of a polynomial ring in 2l+m variables by all l*l products
    of the first block with the second, with the linear parameter system
    x_i - y_i, z_j.  Returns the algebra and the parameter sequence on its
    cyclic module."""
    if l < 2 or m < 1:
        raise ValueError("needs l >= 2 and m >= 1")
    names = tuple(f"x{i + 1}" for i in range(l)) \
        + tuple(f"y{i + 1}" for i in range(l)) \
        + tuple(f"z{j + 1}" for j in range(m))
    ring = PolyRing(names, p)
    xs = [ring.variable(i) for i in range(l)]
    ys = [ring.variable(l + i) for i in range(l)]
    zs = [ring.variable(2 * l + j) for j in range(m)]
    algebra = GradedAlgebra(ring, [x * y for x in xs for y in ys])
    gens = tuple(x - y for x, y in zip(xs, ys)) + tuple(zs)
    # the parameters form a reduction: the square of the irrelevant ideal
    # already lies inside its multiple by the parameters
    allv = xs + ys + zs
    square = algebra.ideal_basis(allv, times_m=True)
    mixed = algebra.ideal_basis(gens, times_m=True)
    if square != mixed:
        raise CrossCheckFailure("parameters are not a degree-one reduction")
    seq = ParameterSequence(algebra.cyclic_module(), gens)
    return algebra, seq


def example44_descriptor(l: int, m: int, p: int = 32003) -> InstanceDescriptor:
    """Closed-form expected values for the product-quadric family."""
    rhs_gap = binomial(l + m - 2, m + 1)
    return InstanceDescriptor(
        "example44", {"l": l, "m": m, "prime": p},
        {"dimension": l + m, "depth": m + 1, "covolume": l + 1,
         "e0": 2, "e1": -1, "chi1": l - 1, "sectional_genus": l - 2,
         "hdeg": 2 + binomial(l + m - 1, m + 1),
         "torsion1": binomial(l + m - 2, m),
         "equality": l - 2 == rhs_gap})


def example42_descriptor(d: int, p: int = 32003) -> InstanceDescriptor:
    return InstanceDescriptor(
        "example42", {"d": d, "prime": p},
        {"e0": d, "covolume": d, "generators": d, "ulrich": True})


def idealization_descriptor(p: int = 32003) -> InstanceDescriptor:
    return InstanceDescriptor(
        "idealization", {"prime": p},
        {"dimension": 2, "depth": 1, "covolume": 2, "e0": 1, "e1": -1,
         "sectional_genus": 0, "hdeg": 2, "torsion1": 1, "equality": True})


def build_example42(d: int, p: int = 32003):
    """Cokernel of the d by d upper-triangular matrix with x1 on the
    diagonal and x_{j-i+1} above it, over k[x1..xd]/(x1^d).  Returns the
    algebra, the module, and the generators of the irrelevant ideal."""
    if d < 1:
        raise ValueError("needs d >= 1")
    names = tuple(f"x{i + 1}" for i in range(d))
    ring = PolyRing(names, p)
    xs = [ring.variable(i) for i in range(d)]
    algebra = GradedAlgebra(ring, [xs[0] ** d])
    rows = [[xs[j - i] if j >= i else None for j in range(d)]
            for i in range(d)]
    module = module_from_matrix(algebra, rows)
    return algebra, module, tuple(xs)


def build_prop41_instance(p: int = 32003):
    """Square-zero extension of the plane by the coordinate line: the
    algebra k[x,y,u]/(xu, u^2) with the linear parameters (x, y)."""
    ring = PolyRing(("x", "y"), p)
    x, y = ring.variable(0), ring.variable(1)
    R = GradedAlgebra(ring, [])
    line = R.cyclic_module().quotient_by_ideal([x])
    A = idealization(line)
    big = A.ring
    q = (big.variable(0), big.variable(1))
    return A, ParameterSequence(A.cyclic_module(), q)


class UlrichReport(Record):
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def ulrich_check(module: GradedModule, ideal_gens) -> UlrichReport:
    """Maximal depth, multiplicity equal to the covolume, and residual
    freeness (covolume = generator count times the base covolume)."""
    from .homology import depth
    algebra = module.algebra
    gens = tuple(ideal_gens)
    ring_dim = algebra.dimension()
    ring_dim = 0 if ring_dim < 0 else int(ring_dim)
    dep = depth(module)
    checks = [CheckResult(
        "depth is maximal", "pass" if dep == ring_dim else "fail",
        {"depth": dep, "ring dimension": ring_dim})]
    e0 = multiplicity(module, gens)
    cov = covolume(module, gens)
    checks.append(CheckResult(
        "multiplicity equals the covolume",
        "pass" if e0 == cov else "fail", {"e0": e0, "covolume": cov}))
    mu = module.minimal_generator_count()
    base = covolume(algebra.cyclic_module(), gens)
    checks.append(CheckResult(
        "reduction of the module is free over the reduction of the ring",
        "pass" if cov == mu * base else "fail",
        {"covolume": cov, "generators": mu, "base covolume": base}))
    return UlrichReport(tuple(checks))


def random_instance(seed: int, max_vars: int = 4, max_deg: int = 3,
                    p: int = 32003, tries: int = 50):
    """Monomial-ideal quotient with a random linear parameter system,
    deterministic per seed.  Dimension at least one, parameters checked
    m-primary; gives up after a bounded number of draws."""
    rng = random.Random(seed)
    letters = "xyzw"
    for _ in range(tries):
        nv = rng.randint(2, max_vars)
        ring = PolyRing(tuple(letters[:nv]), p)
        count = rng.randint(1, nv + 1)
        gens = []
        for _ in range(count):
            deg = rng.randint(2, max_deg)
            exps = [0] * nv
            for _ in range(deg):
                exps[rng.randrange(nv)] += 1
            gens.append(Polynomial(ring, {tuple(exps): 1}))
        algebra = GradedAlgebra(ring, gens)
        module = algebra.cyclic_module()
        dim = module.dimension()
        if dim < 1:
            continue
        q = []
        for _ in range(int(dim)):
            f = None
            for i in range(nv):
                c = rng.randrange(p)
                if c:
                    piece = ring.constant(c) * ring.variable(i)
                    f = piece if f is None else f + piece
            q.append(f)
        if any(g is None for g in q):
            continue
        try:
            return module, ParameterSequence(module, q)
        except PreconditionViolation:
            continue
    raise GenerationFailure(f"no instance within {tries} draws for seed {seed}")


def default_grid(random_seeds: int = 50) -> tuple:
    """The standing corpus: the two fast product-quadric instances, the
    three cokernel sizes, the square-zero extension, and the seeded random
    block."""
    grid = [example44_descriptor(2, 1), example44_descriptor(3, 1)]
    grid += [example42_descriptor(d) for d in (1, 2, 3)]
    grid.append(idealization_descriptor())
    grid += [InstanceDescriptor("random", {"seed": s, "prime": 32003})
             for s in range(random_seeds)]
    return tuple(grid)
