"""Exact arithmetic kernel: prime-field scalars, monomials, homogeneous
polynomials, and elements of graded free modules.

Coefficients live in Z/p for a fixed odd prime p (default 32003); lengths and
combinatorial counts are arbitrary-precision Python integers.  Monomials are
bare exponent tuples compared degree-reverse-lexicographically, free-module
terms are (position, exponents) pairs compared term-over-position with the
smaller position winning ties.  Values are immutable once constructed, and
an element carries its degree and, once known, its lead term.  FreeModule's
term_key defines each module order; inside a Buchberger run the engine packs
every term into one int that sorts the same way (groebner.Packing), and
hands back tuples.
"""
from __future__ import annotations

import math
from operator import add, attrgetter, sub

from .errors import HomogeneityViolation

DEFAULT_PRIME = 32003

Exps = tuple  # exponent tuple, one entry per ring variable
Term = tuple  # (position, Exps)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention: 0 when k < 0, n < 0 or k > n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# -- monomial helpers ---------------------------------------------------------

def mono_deg(e: Exps) -> int:
    return sum(e)


def mono_mul(a: Exps, b: Exps) -> Exps:
    return tuple(map(add, a, b))


def mono_divides(a: Exps, b: Exps) -> bool:
    """Does a divide b?"""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a: Exps, b: Exps) -> Exps:
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(x if x > y else y for x, y in zip(a, b))


def degrevlex_key(e: Exps):
    """Sort key: bigger key means bigger monomial in degrevlex."""
    return (sum(e), tuple(-x for x in reversed(e)))


# -- value records ------------------------------------------------------------

_set = object.__setattr__
_FACTORY = object()  # the parameter default of a field with a factory


class FrozenRecordError(AttributeError):
    """A field of a Record was assigned or deleted."""


class _RecordType(type):
    """The annotated names of a Record body are its fields, kept in
    __slots__; a value in the body is the field's default, and a callable
    one a factory called per instance.  Unless the body defines __init__,
    one is compiled as straight-line code: records are built on the pass
    path, where a loop over the fields would cost more per instance."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        scope = {"_set": _set, "_FACTORY": _FACTORY}
        params, body = ["self"], []
        for f in fields:
            param = value = f
            if f in ns:
                scope["_" + f] = default = ns.pop(f)
                param = f"{f}=_{f}"
                if callable(default):
                    param = f"{f}=_FACTORY"
                    value = f"_{f}() if {f} is _FACTORY else {f}"
            params.append(param)
            body.append(f"_set(self, {f!r}, {value})")
        cls = super().__new__(mcls, name, bases, dict(ns, __slots__=fields))
        if fields:
            cls._shown = tuple(f for f in fields if not f.startswith("_"))
            cls._key = attrgetter(*cls._shown)
            if "__init__" not in ns:
                exec(f"def __init__({', '.join(params)}):\n    "
                     + "\n    ".join(body), scope)
                cls.__init__ = scope["__init__"]
        return cls


class Record(metaclass=_RecordType):
    """An immutable value with named fields, built by position or keyword,
    equal to a record of the same exact type with equal fields.  A field
    named with a leading "_" is left out of equality, hash and repr."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._shown))

    def __setattr__(self, name, *value):
        raise FrozenRecordError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class PolyRing(Record):
    """Polynomial ring k[x_1..x_n] over the prime field Z/p, standard graded."""

    variables: tuple
    prime: int

    def __init__(self, variables: tuple, prime: int = DEFAULT_PRIME):
        if not is_prime(prime) or prime == 2:
            raise ValueError(f"coefficient modulus {prime} is not an odd prime")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        _set(self, "variables", variables)
        _set(self, "prime", prime)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def inv(self, a: int) -> int:
        """The inverse of a in Z/p."""
        a %= self.prime
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Z/%d" % self.prime)
        return pow(a, self.prime - 2, self.prime)

    def zero_exps(self) -> Exps:
        return (0,) * self.nvars

    def var_exps(self, i: int) -> Exps:
        e = [0] * self.nvars
        e[i] = 1
        return tuple(e)

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, {self.var_exps(i): 1})

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {self.zero_exps(): c % self.prime})

    def monomials_of_degree(self, d: int):
        """All exponent tuples of total degree d, in a fixed generation order."""
        n = self.nvars
        if n == 0:
            if d == 0:
                yield ()
            return

        def rec(rest, left):
            if rest == 1:
                yield (left,)
                return
            for head in range(left + 1):
                for tail in rec(rest - 1, left - head):
                    yield (head,) + tail

        yield from rec(n, d)


class Polynomial:
    """A homogeneous polynomial, stored sparsely as {exponents: coefficient}.

    degree is None for the zero polynomial.  Construction drops zero
    coefficients and rejects mixed-degree term sets.
    """

    __slots__ = ("ring", "terms", "degree")

    def __init__(self, ring: PolyRing, terms: dict, _checked: bool = False):
        p = ring.prime
        if not _checked:
            clean = {}
            for e, c in terms.items():
                c %= p
                if c:
                    clean[e] = c
            terms = clean
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        deg = None
        for e in terms:
            d = sum(e)
            if deg is None:
                deg = d
            elif d != deg:
                raise HomogeneityViolation(
                    f"mixed degrees {deg} and {d} in one polynomial")
        object.__setattr__(self, "degree", deg)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring.variables, self.ring.prime,
                     frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise HomogeneityViolation(
                f"adding degrees {self.degree} and {other.degree}")
        p = self.ring.prime
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out, _checked=True)

    def __neg__(self) -> "Polynomial":
        p = self.ring.prime
        return Polynomial(self.ring, {e: p - c for e, c in self.terms.items()},
                          _checked=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        p = self.ring.prime
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out, _checked=True)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.prime
        if c == 0:
            return Polynomial(self.ring, {}, _checked=True)
        p = self.ring.prime
        return Polynomial(self.ring, {e: (c * v) % p for e, v in self.terms.items()},
                          _checked=True)

    def __pow__(self, k: int) -> "Polynomial":
        out = self.ring.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def lead_term(self):
        """(exponents, coefficient) of the degrevlex-largest term, or None."""
        if not self.terms:
            return None
        e = max(self.terms, key=degrevlex_key)
        return e, self.terms[e]

    def monic(self) -> "Polynomial":
        lt = self.lead_term()
        if lt is None:
            return self
        return self.scale(self.ring.inv(lt[1]))

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ring.prime
        names = self.ring.variables
        parts = []
        for e in sorted(self.terms, key=degrevlex_key, reverse=True):
            c = self.terms[e]
            if c > p // 2:
                sign, c = "-", p - c
            else:
                sign = "+"
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append(names[i])
                elif a > 1:
                    factors.append(f"{names[i]}^{a}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


# -- graded free modules ------------------------------------------------------

class FreeModule(Record):
    """Graded free module with generator degrees `twists`.

    A term in position i with monomial m has degree deg(m) + twists[i].
    elim_rank > 0 turns on the block order used for kernel computations: terms
    in positions < elim_rank dominate every term in the tail block, each block
    internally ordered term-over-position degrevlex.

    tangent_block = b > 0 turns on the tangent-cone order used for length
    tables along (x_1..x_b): twisted degree first, then the smaller block
    weight wins, then term-over-position degrevlex.  The block weight of
    x^a·x_b^k, with a the exponents of x_1..x_(b-1), is D·|a| + k for
    D = tangent_weight; with D = 1 it is the degree in x_1..x_b.  On a
    homogeneous element the lead is thus taken from its lowest-weight form,
    which for D = 1 is its lowest-order form in the (x_1..x_b)-adic
    filtration, and for D > 1 in the filtration by the powers of
    (x_1..x_(b-1), x_b^D).  It ignores elim_rank.
    """

    ring: PolyRing
    twists: tuple
    elim_rank: int = 0
    tangent_block: int = 0
    tangent_weight: int = 1

    @property
    def rank(self) -> int:
        return len(self.twists)

    def term_key(self, t: Term):
        pos, e = t
        b = self.tangent_block
        if b:
            d = self.tangent_weight
            w = sum(e[:b]) if d == 1 else d * sum(e[:b - 1]) + e[b - 1]
            return (sum(e) + self.twists[pos], -w, sum(e),
                    tuple(-x for x in reversed(e)), -pos)
        block = 1 if pos < self.elim_rank else 0
        return (block, sum(e), tuple(-x for x in reversed(e)), -pos)

    def zero(self) -> "FreeElement":
        return FreeElement(self, {}, _checked=True)

    def generator(self, pos: int) -> "FreeElement":
        return FreeElement(self, {(pos, self.ring.zero_exps()): 1}, _checked=True)


class FreeElement:
    """Homogeneous element of a graded free module, {(pos, exps): coeff}.

    _lead and _degree are internal: the engine passes the lead term in when
    it already knows it (a reduction fills its output largest term first,
    and shifting or scaling an element moves its lead along, since every
    module order is multiplicative).  Otherwise lead_term() finds it once,
    on demand.  Likewise a known degree skips the homogeneity scan; it is
    passed only with _checked terms.
    """

    __slots__ = ("ambient", "terms", "degree", "_lead")

    def __init__(self, ambient: FreeModule, terms: dict, _checked: bool = False,
                 _lead=None, _degree=None):
        p = ambient.ring.prime
        if not _checked:
            clean = {}
            for t, c in terms.items():
                c %= p
                if c:
                    clean[t] = c
            terms = clean
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", terms)
        deg = _degree
        if deg is None:
            twists = ambient.twists
            for pos, e in terms:
                d = sum(e) + twists[pos]
                if deg is None:
                    deg = d
                elif d != deg:
                    raise HomogeneityViolation(
                        f"mixed degrees {deg} and {d} in one module element")
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "_lead", _lead)

    def __setattr__(self, *a):
        raise AttributeError("FreeElement is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, FreeElement) and self.ambient == other.ambient
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def lead_term(self):
        """((pos, exps), coeff) for the order-largest term, or None if zero."""
        if not self.terms:
            return None
        t = self._lead
        if t is None:
            t = max(self.terms, key=self.ambient.term_key)
            object.__setattr__(self, "_lead", t)
        return t, self.terms[t]

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.ambient.ring.prime
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = (out.get(t, 0) + c) % p
            if v:
                out[t] = v
            else:
                out.pop(t, None)
        return FreeElement(self.ambient, out)

    def __neg__(self) -> "FreeElement":
        p = self.ambient.ring.prime
        return FreeElement(self.ambient, {t: p - c for t, c in self.terms.items()},
                           _checked=True, _lead=self._lead, _degree=self.degree)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "FreeElement":
        c %= self.ambient.ring.prime
        p = self.ambient.ring.prime
        if c == 0:
            return self.ambient.zero()
        return FreeElement(self.ambient, {t: (c * v) % p for t, v in self.terms.items()},
                           _checked=True, _lead=self._lead, _degree=self.degree)

    def monic(self) -> "FreeElement":
        lt = self.lead_term()
        if lt is None or lt[1] == 1:
            return self
        return self.scale(self.ambient.ring.inv(lt[1]))

    def shifted(self, exps: Exps, coeff: int = 1) -> "FreeElement":
        """Multiply by coeff * x^exps."""
        p = self.ambient.ring.prime
        coeff %= p
        if coeff == 0:
            return self.ambient.zero()
        out = {}
        for (pos, e), c in self.terms.items():
            out[(pos, mono_mul(e, exps))] = (c * coeff) % p
        lead = self._lead
        if lead is not None:
            lead = (lead[0], mono_mul(lead[1], exps))
        deg = self.degree
        return FreeElement(self.ambient, out, _checked=True, _lead=lead,
                           _degree=None if deg is None else deg + sum(exps))

    def component(self, pos: int) -> Polynomial:
        return Polynomial(self.ambient.ring,
                          {e: c for (q, e), c in self.terms.items() if q == pos},
                          _checked=True)

    def __str__(self):
        if not self.terms:
            return "(0)"
        return "(" + ", ".join(str(self.component(i))
                               for i in range(self.ambient.rank)) + ")"

    __repr__ = __str__


def poly_times_element(f: Polynomial, v: FreeElement) -> FreeElement:
    p = v.ambient.ring.prime
    out = {}
    for e1, c1 in f.terms.items():
        for (pos, e2), c2 in v.terms.items():
            t = (pos, mono_mul(e1, e2))
            w = (out.get(t, 0) + c1 * c2) % p
            if w:
                out[t] = w
            else:
                out.pop(t, None)
    return FreeElement(v.ambient, out, _checked=True)


def poly_in_position(ambient: FreeModule, f: Polynomial, pos: int) -> FreeElement:
    return FreeElement(ambient, {(pos, e): c for e, c in f.terms.items()},
                       _checked=True)
