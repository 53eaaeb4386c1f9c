"""Seeded session texts for the three benchmark workloads.

Each workload is one multi-ring session in the plain session language, so a
pass is exactly what ``genuslab run`` executes on that text.  The same seed
always gives the same text.

* ``families``: the reference families with closed-form invariants, written
  out as declarations; the seed permutes the order in which each ring's
  variables are declared, which changes the monomial order the engine uses.
* ``sweep``: monomial quotients with a generic linear parameter system.
* ``nonlinear``: the same kind of quotients with exactly one parameter
  squared, so the length table cannot take the linear coordinate-change
  route.
"""

import itertools
import random

from genuslab.dsl import parse_session
from genuslab.errors import EngineError
from genuslab.modules import ParameterSequence

PRIME = 32003
LETTERS = "xyzw"

# (variables, dimension) strata of the random workloads; every round of a
# session draws one instance from each.  A fixed number per stratum keeps the
# work in a pass from swinging with the seed as free draws would.  Four
# variables in dimension 2 or 3 are left out: one such instance takes 0.3 to
# 7 s, and relabelling its variables alone moves that threefold, more than
# the draws of one run average out.
STRATA = ((2, 1), (3, 1), (3, 2), (4, 1))
ROUNDS = {"sweep": 12, "nonlinear": 5}

# example44 (l, m) and example42 d.  (2, 2) and (3, 1) are left out for the
# same reason: 3 to 10 s per pass, moving by up to half with the order in
# which the variables are declared.
QUADRICS = ((2, 1),)
COKERNELS = (1, 2, 3, 4, 5)


def monomial_dimension(supports, nvars: int) -> int:
    """Krull dimension of k[x]/I for a monomial ideal I whose generators
    have the given variable supports: the largest set of variables that
    contains no support.  -1 when a generator is a unit."""
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = set(subset)
            if not any(s <= chosen for s in supports):
                return size
    return -1


def _monomial_text(exps) -> str:
    parts = []
    for letter, a in zip(LETTERS, exps):
        if a == 1:
            parts.append(letter)
        elif a > 1:
            parts.append(f"{letter}^{a}")
    return "*".join(parts)


def _linear_text(coeffs) -> str:
    return " + ".join(f"{c}*{letter}" for c, letter in zip(coeffs, LETTERS))


def _draw_ideal(rng: random.Random, nvars: int, dim: int):
    """Monomial generators of degree 2 or 3 whose quotient has dimension
    exactly ``dim``."""
    while True:
        count = rng.randint(1, nvars + 1)
        gens = set()
        for _ in range(count):
            exps = [0] * nvars
            for _ in range(rng.randint(2, 3)):
                exps[rng.randrange(nvars)] += 1
            gens.add(tuple(exps))
        supports = [frozenset(i for i, a in enumerate(e) if a) for e in gens]
        if monomial_dimension(supports, nvars) == dim:
            return sorted(gens)


def _validate(text: str) -> bool:
    """True when the drawn parameters are a system of parameters, checked
    through the public ParameterSequence on the parsed declarations."""
    session = parse_session(text)
    module = session.module_for("A")
    try:
        ParameterSequence(module, session.env["Q"][1])
    except EngineError:
        return False
    return True


def _random_instance(rng: random.Random, nvars: int, dim: int,
                     squared: bool) -> list:
    """Declarations (with the local names R, I, A, Q) of one validated
    instance.  A rejected draw is redrawn."""
    while True:
        gens = _draw_ideal(rng, nvars, dim)
        seq = [_linear_text([rng.randint(1, PRIME - 1) for _ in range(nvars)])
               for _ in range(dim)]
        if squared:
            k = rng.randrange(dim)
            seq[k] = f"({seq[k]})^2"
        lines = [f"ring R = vars {' '.join(LETTERS[:nvars])}",
                 f"ideal I = {', '.join(_monomial_text(e) for e in gens)}",
                 "algebra A = R / I",
                 f"sequence Q = {', '.join(seq)}"]
        if _validate("\n".join(lines) + "\n"):
            return lines


def _rename(lines, suffix: str) -> list:
    """Give the local names R, I, A, Q of one instance a unique suffix."""
    out = []
    for line in lines:
        head, name, rest = line.split(" ", 2)
        rest = rest.replace("R / I", f"R{suffix} / I{suffix}")
        out.append(f"{head} {name}{suffix} {rest}")
    return out


def _battery(suffix: str, dim: int) -> list:
    cmds = [f"compute invariants A{suffix} Q{suffix}",
            f"check inequalities A{suffix} Q{suffix}"]
    if dim >= 2:
        cmds.append(f"check thm34 A{suffix} Q{suffix}")
    return cmds


def random_session(seed: int, rounds: int, squared: bool) -> str:
    rng = random.Random(seed)
    lines = [f"prime {PRIME}"]
    index = 0
    for _ in range(rounds):
        for nvars, dim in STRATA:
            decl = _random_instance(rng, nvars, dim, squared)
            suffix = str(index)
            lines += _rename(decl, suffix) + _battery(suffix, dim)
            index += 1
    return "\n".join(lines) + "\n"


def _ring_line(name: str, rng: random.Random, variables) -> str:
    order = list(variables)
    rng.shuffle(order)
    return f"ring {name} = vars {' '.join(order)}"


def families_session(seed: int) -> str:
    """Product quadrics, triangular cokernels with the Ulrich check, the
    square-zero extension battery and the spiked line with Prop 3.8."""
    rng = random.Random(seed)
    lines = [f"prime {PRIME}"]
    for l, m in QUADRICS:
        s = f"q{l}{m}"
        xs = [f"x{i + 1}" for i in range(l)]
        ys = [f"y{i + 1}" for i in range(l)]
        zs = [f"z{j + 1}" for j in range(m)]
        lines += [_ring_line(f"R{s}", rng, xs + ys + zs),
                  f"ideal I{s} = " + ", ".join(f"{x}*{y}" for x in xs
                                                for y in ys),
                  f"algebra A{s} = R{s} / I{s}",
                  f"sequence Q{s} = " + ", ".join(
                      [f"{x} - {y}" for x, y in zip(xs, ys)] + zs)]
        lines += _battery(s, l + m)
    for d in COKERNELS:
        s = f"c{d}"
        xs = [f"x{i + 1}" for i in range(d)]
        rows = [", ".join(xs[j - i] if j >= i else "0" for j in range(d))
                for i in range(d)]
        lines += [_ring_line(f"R{s}", rng, xs),
                  f"ideal I{s} = x1^{d}",
                  f"algebra A{s} = R{s} / I{s}",
                  f"module C{s} = coker A{s} ["
                  + ", ".join(f"[{r}]" for r in rows) + "]",
                  f"ideal J{s} = " + ", ".join(xs),
                  f"check ulrich C{s} J{s}"]
    lines += [_ring_line("Rsq", rng, ["x", "y", "u"]),
              "ideal Isq = x*u, u^2",
              "algebra Asq = Rsq / Isq",
              "sequence Qsq = x, y"] + _battery("sq", 2)
    lines += [_ring_line("Rsp", rng, ["x", "y", "z"]),
              "ideal Isp = x^2, x*y",
              "algebra Asp = Rsp / Isp",
              "sequence Qsp = z, y"] + _battery("sp", 2)
    lines.append("check prop38 Asp Qsp")
    return "\n".join(lines) + "\n"


def session_text(workload: str, seed: int) -> str:
    if workload == "families":
        return families_session(seed)
    if workload in ROUNDS:
        return random_session(seed, ROUNDS[workload],
                              squared=workload == "nonlinear")
    raise ValueError(f"unknown workload {workload!r}")
