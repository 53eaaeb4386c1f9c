"""Session text: round trips, name resolution, malformed input."""

import pathlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genuslab.dsl import (Add, Mul, Neg, Num, Pow, Sub, Var, _LineParser,
                          _tokenize_line, expr_text, parse_session,
                          print_session)
from genuslab.errors import HomogeneityViolation, ParseError, UndefinedName

from reference import reference_tokenize_line

SESSION_DIR = pathlib.Path(__file__).resolve().parent.parent / "sessions"


def session_files():
    files = sorted(SESSION_DIR.glob("*.ses"))
    assert len(files) >= 4
    return files


@pytest.mark.parametrize("path", session_files(), ids=lambda p: p.stem)
def test_shipped_sessions_round_trip(path):
    session = parse_session(path.read_text())
    printed = print_session(session)
    again = parse_session(printed)
    assert again.statements == session.statements
    assert print_session(again) == printed


def test_product_quadrics_shape():
    session = parse_session(
        (SESSION_DIR / "product_quadrics.ses").read_text())
    kinds = [kind for kind, _ in session.env.values()]
    assert kinds.count("algebra") == 1
    assert kinds.count("sequence") == 1
    assert len(session.commands) == 2
    algebra = session.env["A"][1]
    assert algebra.dimension() == 3
    assert len(session.env["Q"][1]) == 3


def test_module_declaration_resolves():
    session = parse_session(
        (SESSION_DIR / "triangular_cokernel.ses").read_text())
    module = session.env["C"][1]
    assert module.minimal_generator_count() == 2
    assert module.twists == (0, 0)


def test_module_twists():
    text = ("ring R = vars x y\n"
            "ideal I = x^3\n"
            "algebra S = R / I\n"
            "module M = coker S [0 -1] [[x, y], [x^2, y^2]]\n")
    session = parse_session(text)
    assert session.env["M"][1].twists == (0, -1)
    assert parse_session(print_session(session)).statements == \
        session.statements


def test_empty_text():
    session = parse_session("")
    assert session.statements == ()
    assert session.prime == 32003


def test_comments_and_blank_lines_are_skipped():
    session = parse_session("# nothing\n\nring R = vars x  # trailing\n")
    assert len(session.statements) == 1


def test_module_for_is_shared():
    session = parse_session("ring R = vars x y\nideal I = x^2\n"
                            "algebra A = R / I\n")
    assert session.module_for("A") is session.module_for("A")


# ------------------------------------------------------------ expressions

def parse_expr(text):
    p = _LineParser(_tokenize_line(text, 1), 1)
    node = p.expression()
    p.done()
    return node


def test_precedence():
    assert parse_expr("x + y*z^2") == Add(Var("x"),
                                          Mul(Var("y"), Pow(Var("z"), 2)))
    assert parse_expr("(x + y)*z") == Mul(Add(Var("x"), Var("y")), Var("z"))
    assert parse_expr("-x*y") == Mul(Neg(Var("x")), Var("y"))
    assert parse_expr("x - y - z") == Sub(Sub(Var("x"), Var("y")), Var("z"))


_leaf = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z1")]),
    st.integers(0, 9).map(Num))


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(*t)))


@given(st.recursive(_leaf, _extend, max_leaves=12))
@settings(max_examples=80, deadline=None)
def test_expression_print_parse_identity(tree):
    assert parse_expr(expr_text(tree)) == tree


# ---------------------------------------------------------------- tokens

def _tokens(text, line_no=1):
    return [(t.kind, t.text, t.line, t.col)
            for t in _tokenize_line(text, line_no)]


_line_chars = st.one_of(
    st.sampled_from(" \t#_=/,+-*^()[]"),
    st.sampled_from("xyzAB019"),
    # letters, decimal digits int() reads, numerals that are no digits,
    # a combining mark and blanks the parser does not skip
    st.sampled_from("éßΩж中٣७０½Ⅷ\u0301\xa0\r\n.;"),
    st.characters())


def _unreadable_digit(ch):
    # str.isdigit accepts it, int() does not: the character scanner made an
    # int token of it, and the parser then crashed on int()
    return ch.isdigit() and not ch.isdecimal()


@given(st.text(alphabet=_line_chars, max_size=24), st.integers(1, 50))
@settings(max_examples=400, deadline=None)
def test_tokenizer_matches_the_character_scanner(text, line_no):
    assume(not any(_unreadable_digit(ch) for ch in text))
    try:
        want = reference_tokenize_line(text, line_no)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize_line(text, line_no)
        assert ((got.value.line, got.value.col, str(got.value))
                == (err.line, err.col, str(err)))
        return
    assert _tokens(text, line_no) == want


def test_superscript_digits_in_names_stay_names():
    assert _tokens("x² y³_1") == reference_tokenize_line("x² y³_1", 1)
    assert _tokens("x²") == [("name", "x²", 1, 1)]


@pytest.mark.parametrize("text, col", [
    ("x^²", 3), ("prime ³", 7), ("2²", 2), ("²x", 1), ("x^3 ¹", 5)])
def test_unreadable_digit_is_an_unexpected_character(text, col):
    with pytest.raises(ParseError) as err:
        _tokenize_line(text, 4)
    assert (err.value.line, err.value.col) == (4, col)
    assert str(err.value).endswith(
        f"unexpected character {text[col - 1]!r}")


# --------------------------------------------------------------- rejects

@pytest.mark.parametrize("text, line", [
    ("frobnicate x\n", 1),
    ("ring R = vars x\nring R = vars y\n", 2),
    ("ring R = vars x\nprime 101\n", 2),
    ("ring R = vars x x\n", 1),
    ("prime 4\nring R = vars x\n", 1),
    ("prime 4\ncorpus example42 1\n", 1),
    ("prime 1\n", 1),
    ("ring R = vars x\nideal I = x\ncheck frobnicate R I\n", 3),
    ("corpus unknown44 2 1\n", 1),
    ("prime 32003\ncorpus example44 1 1\n", 2),
    ("corpus example42 0\n", 1),
    ("ring R = vars x\nideal I = x,\n", 2),
    ("ring R = vars x\nideal I = x x\n", 2),
    ("ring R = vars x y\nideal I = x^2\nalgebra S = R / I\n"
     "module M = coker S [[x, y], [x]]\n", 4),
    ("ring R = vars x y\nideal I = x^2\nalgebra S = R / I\n"
     "module M = coker S [0] [[x, y], [0, x]]\n", 4),
])
def test_parse_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert err.value.line == line
    assert err.value.col >= 1


@pytest.mark.parametrize("text", [
    "compute invariants A Q\n",
    "ring R = vars x\nideal I = x*q\n",
    "sequence Q = x\n",
    "ring R = vars x\nideal I = x\nalgebra A = R / J\n",
])
def test_undefined_names(text):
    with pytest.raises(UndefinedName):
        parse_session(text)


def test_wrong_kind_is_a_parse_error():
    text = ("ring R = vars x\nideal I = x\n"
            "algebra A = R / I\nalgebra B = A / I\n")
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert not isinstance(err.value, UndefinedName)
    assert "expected" in str(err.value)


def test_inhomogeneous_ideal():
    with pytest.raises(HomogeneityViolation) as err:
        parse_session("ring R = vars x y\nideal I = x + y^2\n")
    assert "line 2" in str(err.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = vars x\nideal I = x @ x\n")
    assert err.value.line == 2
    assert err.value.col == 13
