"""Line-oriented session language: declarations of rings, ideals, algebras,
modules and parameter sequences, followed by compute / check / corpus
commands.

One statement per line.  Parsing resolves every name immediately, so an
undefined variable or a mixed-degree polynomial is rejected with its source
position before anything runs.  ``print_session`` regenerates canonical text;
parse -> print -> parse is the identity on the statement list.
"""

import re

from .errors import HomogeneityViolation, ParseError, UndefinedName
from .modules import GradedAlgebra, GradedModule, module_from_matrix
from .ring import DEFAULT_PRIME, PolyRing, Polynomial, Record


# ---------------------------------------------------------------- tokens

# After blanks: an integer (exactly the digits int() reads), a word, a
# symbol, the end of the line or a comment, or any other character.
_TOKEN = re.compile(r"[ \t]*(?:(?P<int>\d+)|(?P<name>\w+)"
                    r"|(?P<symbol>[=/,+\-*^()[\]])|(?P<end>#|\Z)|(?P<bad>.))",
                    re.DOTALL)

CHECK_KINDS = ("thm34", "prop38", "inequalities", "ulrich")
# family name -> (name, least accepted value or None) per integer parameter
CORPUS_FAMILIES = {"example44": (("l", 2), ("m", 1)), "example42": (("d", 1),),
                   "idealization": (), "random": (("seed", None),)}


def corpus_parameter_problem(family: str, params):
    """Why the integer parameters are out of range for the family's builder,
    or None when they are in range."""
    spec = CORPUS_FAMILIES[family]
    if all(least is None or v >= least
           for (_, least), v in zip(spec, params)):
        return None
    need = " and ".join(f"{name} >= {least}" for name, least in spec
                        if least is not None)
    got = " and ".join(f"{name}={v}" for (name, _), v in zip(spec, params))
    return f"{family} needs {need}, got {got}"


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name", "int", or the symbol itself
        self.text = text
        self.line = line
        self.col = col


def _tokenize_line(text: str, line_no: int):
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        tok = m.group(kind)
        col = m.start(kind) + 1
        # a name starts with a letter or "_", so a word that starts with a
        # digit int() cannot read, such as a superscript, is an error
        if kind == "bad" or (kind == "name" and not (tok[0].isalpha()
                                                    or tok[0] == "_")):
            raise ParseError(line_no, col, f"unexpected character {tok[0]!r}")
        out.append(Token(tok if kind == "symbol" else kind, tok, line_no, col))
    return out


# ------------------------------------------------- polynomial expressions
# Stored as syntax so a session can be reprinted verbatim; resolved against
# a concrete ring on demand.

class Var(Record):
    name: str


class Num(Record):
    value: int


class Add(Record):
    left: object
    right: object


class Sub(Record):
    left: object
    right: object


class Mul(Record):
    left: object
    right: object


class Neg(Record):
    arg: object


class Pow(Record):
    base: object
    exponent: int


# how tightly each node binds; a name or a number binds tightest (5)
_PREC = {Add: 1, Sub: 1, Mul: 2, Neg: 3, Pow: 4}
_INFIX = {Add: " + ", Sub: " - ", Mul: "*"}


def expr_text(node, min_prec: int = 1) -> str:
    prec = _PREC.get(type(node), 5)
    if isinstance(node, Var):
        body = node.name
    elif isinstance(node, Num):
        body = str(node.value)
    elif type(node) in _INFIX:
        body = (expr_text(node.left, prec) + _INFIX[type(node)]
                + expr_text(node.right, prec + 1))
    elif isinstance(node, Neg):
        body = f"-{expr_text(node.arg, 3)}"
    else:
        body = f"{expr_text(node.base, 5)}^{node.exponent}"
    return f"({body})" if prec < min_prec else body


def resolve_expr(node, ring: PolyRing, line: int) -> Polynomial:
    """Expression tree to a polynomial of the given ring.  Unknown variable
    names and inhomogeneous sums are reported with the statement's line."""
    if isinstance(node, Var):
        if node.name not in ring.variables:
            raise UndefinedName(
                line, 1, f"{node.name} is not a variable of the current ring")
        return ring.variable(ring.variables.index(node.name))
    if isinstance(node, Num):
        return ring.constant(node.value)
    try:
        if isinstance(node, Add):
            return (resolve_expr(node.left, ring, line)
                    + resolve_expr(node.right, ring, line))
        if isinstance(node, Sub):
            return (resolve_expr(node.left, ring, line)
                    - resolve_expr(node.right, ring, line))
        if isinstance(node, Mul):
            return (resolve_expr(node.left, ring, line)
                    * resolve_expr(node.right, ring, line))
        if isinstance(node, Neg):
            return -resolve_expr(node.arg, ring, line)
        return resolve_expr(node.base, ring, line) ** node.exponent
    except HomogeneityViolation as err:
        raise HomogeneityViolation(f"line {line}: {err}") from err


# ------------------------------------------------------------ statements

class PrimeDecl(Record):
    value: int


class RingDecl(Record):
    name: str
    variables: tuple


class IdealDecl(Record):
    name: str
    polys: tuple


class AlgebraDecl(Record):
    name: str
    ring_name: str
    ideal_name: str


class ModuleDecl(Record):
    name: str
    algebra_name: str
    twists: tuple  # empty means all zero
    rows: tuple    # tuple of tuples of expressions


class SequenceDecl(Record):
    name: str
    polys: tuple


class ComputeCmd(Record):
    target: str
    sequence: str


class CheckCmd(Record):
    kind: str
    target: str
    argument: str


class CorpusCmd(Record):
    family: str
    params: tuple


COMMAND_KINDS = (ComputeCmd, CheckCmd, CorpusCmd)


class Session:
    """A parsed session: the prime, the statement list as written, and the
    fully resolved objects behind every declared name."""

    def __init__(self):
        self.prime = DEFAULT_PRIME
        self.statements = ()
        self.env = {}

    @property
    def commands(self) -> tuple:
        return tuple(s for s in self.statements
                     if isinstance(s, COMMAND_KINDS))

    def lookup(self, name: str, kinds, line: int):
        if name not in self.env:
            raise UndefinedName(line, 1, f"{name} was never declared")
        kind, obj = self.env[name]
        if kind not in kinds:
            raise ParseError(
                line, 1,
                f"{name} is a {kind}, expected one of {'/'.join(kinds)}")
        return obj

    def module_for(self, name: str, line: int = 0) -> GradedModule:
        """The named module, or the rank-one module S/I of the named
        algebra: the one object the algebra keeps, so command results on it
        stay memoized."""
        obj = self.lookup(name, ("module", "algebra"), line)
        if isinstance(obj, GradedAlgebra):
            return obj.cyclic_module()
        return obj


# -------------------------------------------------------------- parsing

class _LineParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next_kind(self, ahead: int = 0):
        i = self.pos + ahead
        return self.tokens[i].kind if i < len(self.tokens) else None

    def _fail(self, expected):
        tok = self.peek()
        col = tok.col if tok else (self.tokens[-1].col + len(self.tokens[-1].text)
                                   if self.tokens else 1)
        got = repr(tok.text) if tok else "end of line"
        raise ParseError(self.line, col,
                         f"expected {' or '.join(expected)}, got {got}")

    def take(self, *kinds):
        tok = self.peek()
        if tok is None or (kinds and tok.kind not in kinds):
            self._fail(kinds or ("a token",))
        self.pos += 1
        return tok

    def name(self) -> str:
        return self.take("name").text

    def keyword(self, word: str):
        tok = self.take("name")
        if tok.text != word:
            raise ParseError(self.line, tok.col,
                             f"expected the keyword {word!r}")

    def integer(self) -> int:
        if self.next_kind() == "-":
            self.take("-")
            return -int(self.take("int").text)
        return int(self.take("int").text)

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(self.line, tok.col,
                             f"unexpected trailing {tok.text!r}")

    # expression grammar: sum of products of powers, with unary minus
    def expression(self):
        node = self.product()
        while self.next_kind() in ("+", "-"):
            op = Add if self.take().kind == "+" else Sub
            node = op(node, self.product())
        return node

    def product(self):
        node = self.factor()
        while self.next_kind() == "*":
            self.take("*")
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.next_kind() == "-":
            self.take("-")
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.next_kind() == "^":
            self.take("^")
            node = Pow(node, int(self.take("int").text))
        return node

    def atom(self):
        kind = self.next_kind()
        if kind == "name":
            return Var(self.take().text)
        if kind == "int":
            return Num(int(self.take().text))
        if kind == "(":
            self.take("(")
            node = self.expression()
            self.take(")")
            return node
        self._fail(("a name", "a number", "("))

    def expression_list(self) -> tuple:
        out = [self.expression()]
        while self.next_kind() == ",":
            self.take(",")
            out.append(self.expression())
        return tuple(out)


class _SessionParser:
    def __init__(self):
        self.session = Session()
        self.scope_ring = None  # ring of the most recent ring declaration
        self.statements = []

    def declare(self, name, kind, obj, line):
        if name in self.session.env:
            raise ParseError(line, 1, f"{name} was already declared")
        self.session.env[name] = (kind, obj)

    def current_ring(self, line) -> PolyRing:
        if self.scope_ring is None:
            raise UndefinedName(line, 1, "no ring has been declared yet")
        return self.scope_ring

    def statement(self, p: _LineParser):
        head = p.take("name").text
        line = p.line
        if head == "prime":
            value = p.integer()
            p.done()
            if self.statements:
                raise ParseError(line, 1,
                                 "prime must come before everything else")
            try:
                PolyRing((), value)  # the modulus test every ring applies
            except ValueError as err:
                raise ParseError(line, 1, str(err)) from err
            self.session.prime = value
            return PrimeDecl(value)
        if head == "ring":
            name = p.name()
            p.take("=")
            p.keyword("vars")
            variables = [p.name()]
            while p.next_kind() == "name":
                variables.append(p.name())
            p.done()
            try:
                ring = PolyRing(tuple(variables), self.session.prime)
            except ValueError as err:
                raise ParseError(line, 1, str(err)) from err
            self.declare(name, "ring", ring, line)
            self.scope_ring = ring
            return RingDecl(name, tuple(variables))
        if head in ("ideal", "sequence"):
            name = p.name()
            p.take("=")
            exprs = p.expression_list()
            p.done()
            ring = self.current_ring(line)
            polys = tuple(resolve_expr(e, ring, line) for e in exprs)
            self.declare(name, head, polys, line)
            return (IdealDecl if head == "ideal" else SequenceDecl)(name, exprs)
        if head == "algebra":
            name = p.name()
            p.take("=")
            ring_name = p.name()
            p.take("/")
            ideal_name = p.name()
            p.done()
            ring = self.session.lookup(ring_name, ("ring",), line)
            polys = self.session.lookup(ideal_name, ("ideal",), line)
            self.declare(name, "algebra", GradedAlgebra(ring, polys), line)
            return AlgebraDecl(name, ring_name, ideal_name)
        if head == "module":
            return self.module_statement(p, line)
        if head == "compute":
            p.keyword("invariants")
            target = p.name()
            seq = p.name()
            p.done()
            self.session.lookup(target, ("module", "algebra"), line)
            self.session.lookup(seq, ("sequence",), line)
            return ComputeCmd(target, seq)
        if head == "check":
            kind = p.take("name").text
            if kind not in CHECK_KINDS:
                raise ParseError(line, 1,
                                 f"unknown check {kind!r}, expected one of "
                                 f"{', '.join(CHECK_KINDS)}")
            target = p.name()
            argument = p.name()
            p.done()
            self.session.lookup(target, ("module", "algebra"), line)
            wanted = ("ideal",) if kind == "ulrich" else ("sequence",)
            self.session.lookup(argument, wanted, line)
            return CheckCmd(kind, target, argument)
        if head == "corpus":
            family = p.take("name").text
            if family not in CORPUS_FAMILIES:
                raise ParseError(line, 1,
                                 f"unknown corpus family {family!r}")
            params = tuple(p.integer()
                           for _ in CORPUS_FAMILIES[family])
            p.done()
            problem = corpus_parameter_problem(family, params)
            if problem:
                raise ParseError(line, 1, problem)
            return CorpusCmd(family, params)
        raise ParseError(line, 1, f"unknown statement {head!r}")

    def module_statement(self, p: _LineParser, line: int):
        name = p.name()
        p.take("=")
        p.keyword("coker")
        algebra_name = p.name()
        algebra = self.session.lookup(algebra_name, ("algebra",), line)
        twists = ()
        # a single bracket opens the twist list, a double bracket the matrix
        if p.next_kind() == "[" and p.next_kind(1) != "[":
            p.take("[")
            tw = []
            while p.next_kind() not in (None, "]"):
                tw.append(p.integer())
            p.take("]")
            twists = tuple(tw)
        p.take("[")
        rows = []
        while True:
            p.take("[")
            rows.append(p.expression_list())
            p.take("]")
            if p.next_kind() == ",":
                p.take(",")
                continue
            break
        p.take("]")
        p.done()
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError(line, 1, "matrix rows have unequal lengths")
        if twists and len(twists) != len(rows):
            raise ParseError(line, 1,
                             f"{len(twists)} twists for {len(rows)} rows")
        ring = algebra.ring
        entries = [[resolve_expr(e, ring, line) for e in row] for row in rows]
        module = module_from_matrix(algebra, entries,
                                    row_twists=twists or None)
        self.declare(name, "module", module, line)
        return ModuleDecl(name, algebra_name, twists,
                          tuple(tuple(r) for r in rows))


def parse_session(text: str) -> Session:
    """Parse and resolve session text.

    Raises ParseError (with line and column) for malformed input,
    UndefinedName for references to missing names, and HomogeneityViolation
    when a declared element mixes degrees.
    """
    sp = _SessionParser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        stmt = sp.statement(_LineParser(tokens, line_no))
        sp.statements.append(stmt)
    sp.session.statements = tuple(sp.statements)
    return sp.session


# ------------------------------------------------------------- printing

def _statement_text(stmt) -> str:
    if isinstance(stmt, PrimeDecl):
        return f"prime {stmt.value}"
    if isinstance(stmt, RingDecl):
        return f"ring {stmt.name} = vars {' '.join(stmt.variables)}"
    if isinstance(stmt, (IdealDecl, SequenceDecl)):
        head = "ideal" if isinstance(stmt, IdealDecl) else "sequence"
        return (f"{head} {stmt.name} = "
                + ", ".join(expr_text(e) for e in stmt.polys))
    if isinstance(stmt, AlgebraDecl):
        return f"algebra {stmt.name} = {stmt.ring_name} / {stmt.ideal_name}"
    if isinstance(stmt, ModuleDecl):
        parts = [f"module {stmt.name} = coker {stmt.algebra_name}"]
        if stmt.twists:
            parts.append("[" + " ".join(str(t) for t in stmt.twists) + "]")
        rows = ", ".join(
            "[" + ", ".join(expr_text(e) for e in row) + "]"
            for row in stmt.rows)
        parts.append(f"[{rows}]")
        return " ".join(parts)
    if isinstance(stmt, ComputeCmd):
        return f"compute invariants {stmt.target} {stmt.sequence}"
    if isinstance(stmt, CheckCmd):
        return f"check {stmt.kind} {stmt.target} {stmt.argument}"
    if isinstance(stmt, CorpusCmd):
        return " ".join(["corpus", stmt.family]
                        + [str(v) for v in stmt.params])
    raise TypeError(f"not a statement: {stmt!r}")


def print_session(session: Session) -> str:
    """Canonical text for a session; parsing it back gives the same
    statement list."""
    return "\n".join(_statement_text(s) for s in session.statements) + "\n"
