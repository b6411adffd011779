"""Expression/session grammar and name resolution."""

import functools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivalg import (
    ParseError,
    QQ,
    UnknownIdentifierError,
    VanishingDenominatorError,
    VarContext,
)
from derivalg.parser import _CHECKS, _STATEMENTS, Statement, parse_session
from derivalg.session import Session


def run_lines(text):
    session = Session()
    out = []
    for stmt in parse_session(text):
        out.append(session.execute(stmt))
    return session, out


def test_parse_ring_statement():
    (stmt,) = parse_session("ring R = QQ[x, y]")
    assert stmt.kind == "ring"
    name, p, variables = stmt.operands
    assert name == "R" and variables == ("x", "y")
    assert p is None


def test_parse_gf_ring():
    (stmt,) = parse_session("ring F = GF(5)[x]")
    _, p, _ = stmt.operands
    assert p == 5


def test_parse_derivation_statement():
    (stmt,) = parse_session("der d on R : x -> -y, y -> x")
    assert stmt.kind == "der"
    name, _, assignments = stmt.operands
    assert name == "d" and len(assignments) == 2


def test_parse_check_commute():
    (stmt,) = parse_session("check commute d1 d2")
    assert stmt.kind == "check_commute"


def test_statements_of_different_kinds_differ():
    # the kind is a field, so equal operands do not make equal statements
    assert parse_session("gb I") == [Statement(1, "gb", ("I",))]
    assert parse_session("gb I") != parse_session("dim I")
    assert parse_session("check simple S") != parse_session("gb S")


@pytest.mark.parametrize("word", sorted(_CHECKS))
def test_a_check_kind_is_no_keyword(word):
    with pytest.raises(ParseError) as err:
        parse_session(f"{word} Q d")
    assert str(err.value) == f"line 1, col 1: unknown statement {word!r}"


def test_every_kind_has_one_handler():
    kinds = set(_STATEMENTS) | set(_CHECKS)
    handlers = {name[len("_do_"):] for name in vars(Session)
                if name.startswith("_do_")}
    assert kinds == handlers and len(kinds) == 20


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = QQ[x, y]\nring S = QQ[x y]")
    assert err.value.line == 2
    assert err.value.col > 0



# one or more refusals of each statement kind, with the exact message
_PARSE_ERRORS = [
    ("ring R QQ[x]", "line 1, col 8: expected '=', found 'QQ'"),
    ("ring R = QQ[x,]", "line 1, col 15: expected 'ident', found ']'"),
    ("ring R = QQ[x y]", "line 1, col 15: expected ']', found 'y'"),
    ("ring R = GF(x)[y]", "line 1, col 13: expected 'number', found 'x'"),
    ("ring R = GF(5[x]", "line 1, col 14: expected ')', found '['"),
    ("ring R = ZZ[x]", "line 1, col 10: unknown field 'ZZ' (use QQ or GF(p))"),
    ("ideal I R : x", "line 1, col 9: expected 'in', found 'R'"),
    ("ideal I in R x", "line 1, col 14: expected ':', found 'x'"),
    ("ideal I in R : x,", "line 1, col 18: expected an expression, found 'eof'"),
    ("quotient Q = R I", "line 1, col 16: expected '/', found 'I'"),
    ("quotient Q R / I", "line 1, col 12: expected '=', found 'R'"),
    ("der d on R : x 1", "line 1, col 16: expected 'arrow', found '1'"),
    ("der d R : x -> 1", "line 1, col 7: expected 'on', found 'R'"),
    ("der d on R : x -> 1,", "line 1, col 21: expected 'ident', found 'eof'"),
    ("skew S = R[t d]", "line 1, col 14: expected ';', found 'd'"),
    ("skew S = R[t; d", "line 1, col 16: expected ']', found 'eof'"),
    ("skew S = R",
     "line 1, col 11: a skew ring needs at least one [var; derivation] step"),
    ("weyl x", "line 1, col 6: expected 'number', found 'x'"),
    ("weyl 2 as", "line 1, col 10: expected 'ident', found 'eof'"),
    ("let f x", "line 1, col 7: expected '=', found 'x'"),
    ("let f = x in", "line 1, col 13: expected 'ident', found 'eof'"),
    ("mul", "line 1, col 4: expected an expression, found 'eof'"),
    ("mul x y", "line 1, col 7: unexpected trailing 'y'"),
    ("mul x in", "line 1, col 9: expected 'ident', found 'eof'"),
    ("apply d", "line 1, col 8: expected an expression, found 'eof'"),
    ("gb 2", "line 1, col 4: expected 'ident', found '2'"),
    ("member x I", "line 1, col 10: expected 'in', found 'I'"),
    ("member x in I with", "line 1, col 19: expected 'cofactors', found 'eof'"),
    ("dim", "line 1, col 4: expected 'ident', found 'eof'"),
    ("certificate x in 3", "line 1, col 18: expected 'ident', found '3'"),
    ("darboux x 2", "line 1, col 11: expected 'bound', found '2'"),
    ("darboux x bound", "line 1, col 16: expected 'number', found 'eof'"),
    ("darboux x bound 2 in", "line 1, col 21: expected 'ident', found 'eof'"),
    ("check", "line 1, col 6: expected 'ident', found 'eof'"),
    ("check foo", "line 1, col 7: unknown check 'foo'"),
    ("check commute d", "line 1, col 16: expected 'ident', found 'eof'"),
    ("check dideal I", "line 1, col 15: expected 'ident', found 'eof'"),
    ("check dideal I d --dim1", "line 1, col 18: unexpected trailing '--dim1'"),
    ("check dsimple Q", "line 1, col 16: expected 'ident', found 'eof'"),
    ("check dsimple Q d --foo", "line 1, col 19: unexpected trailing '--foo'"),
    ("check simple", "line 1, col 13: expected 'ident', found 'eof'"),
    ("inner x in 3", "line 1, col 12: expected 'ident', found '3'"),
    ("extend d S", "line 1, col 10: expected 'into', found 'S'"),
    ("extend d into", "line 1, col 14: expected 'ident', found 'eof'"),
    ("3 x", "line 1, col 1: expected a statement keyword, found '3'"),
    ("frob x", "line 1, col 1: unknown statement 'frob'"),
    ("ring R = QQ[x]\n\n  gb I J", "line 3, col 8: unexpected trailing 'J'"),
]


@pytest.mark.parametrize("text, message", _PARSE_ERRORS)
def test_parse_error_of_each_statement_kind(text, message):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert str(err.value) == message


def test_a_flag_needs_a_space_after_an_operand():
    # right after an operand `--` is two minus signs: d--dim1 is d - (-dim1)
    with pytest.raises(ParseError) as err:
        parse_session("check dsimple Q d--dim1")
    assert str(err.value) == "line 1, col 18: unexpected trailing '-'"
    (stmt,) = parse_session("check dsimple Q d --dim1")
    _, _, dim1 = stmt.operands
    assert dim1

def test_unexpected_character_after_a_comment():
    # columns count from the start of the line the character is on
    with pytest.raises(ParseError, match="unexpected character '\\$'") as err:
        parse_session("ring R = QQ[x]\n# a comment $ is fine here\n  mul x $ 1\n")
    assert (err.value.line, err.value.col) == (3, 9)


def test_parse_rejects_unknown_statement():
    with pytest.raises(ParseError):
        parse_session("frobnicate x")


def test_parse_rejects_bad_exponent():
    with pytest.raises(ParseError):
        parse_session("mul x^-1")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_session("mul 1/0")


def test_comments_and_blank_lines():
    stmts = parse_session("# a comment\n\nring R = QQ[x]\n# trailing\n")
    assert len(stmts) == 1


def test_unknown_identifier_is_reported():
    session, _ = run_lines("ring R = QQ[x, y]")
    (stmt,) = parse_session("mul (t^2 + x*t) * (y*t)")
    with pytest.raises(UnknownIdentifierError):
        session.execute(stmt)


def test_undefined_ring_reference():
    session = Session()
    (stmt,) = parse_session("ideal I in R : x")
    with pytest.raises(UnknownIdentifierError):
        session.execute(stmt)


def test_duplicate_binding_rejected():
    with pytest.raises(ParseError):
        run_lines("ring R = QQ[x]\nring R = QQ[y]")


def test_rational_literals_and_precedence():
    session, out = run_lines("ring R = QQ[x, y]\nmul 2/3*x^2*y - y + 1")
    record, _ = out[-1]
    assert record["result"]["str"] == "2/3*x^2*y - y + 1"


def test_unary_minus_binds_to_power():
    session, out = run_lines("ring R = QQ[x]\nmul -x^2 + x*x")
    record, _ = out[-1]
    assert record["result"]["str"] == "0"


def test_gf_literals_reduced_by_context():
    session, out = run_lines("ring F = GF(3)[x]\nmul 5*x + 1/2")
    record, _ = out[-1]
    # 5 = 2 mod 3 and 1/2 = 2 mod 3
    assert record["result"]["str"] == "2*x + 2"


def test_print_parse_round_trip_random():
    import random

    from conftest import rand_poly

    ctx = VarContext(("x", "y"), QQ)
    session, _ = run_lines("ring R = QQ[x, y]")
    rng = random.Random(31337)
    for _ in range(40):
        p = rand_poly(rng, ctx, max_degree=4, max_terms=5)
        (stmt,) = parse_session(f"mul {p}")
        record, _ = session.execute(stmt)
        assert record["result"]["str"] == str(p)


def test_print_parse_round_trip_gf():
    import random

    from derivalg import GF
    from conftest import rand_poly

    ctx = VarContext(("x", "y"), GF(5))
    session, _ = run_lines("ring F = GF(5)[x, y]")
    rng = random.Random(271)
    for _ in range(30):
        p = rand_poly(rng, ctx, max_degree=4, max_terms=5)
        (stmt,) = parse_session(f"mul {p}")
        record, _ = session.execute(stmt)
        assert record["result"]["str"] == str(p)


def test_skew_print_parse_round_trip():
    session, out = run_lines(
        "weyl 1\nlet f = (y^2 + 1)*x^2 + 2*x + y\nmul (y^2 + 1)*x^2 + 2*x + y")
    let_record = out[1][0]
    mul_record = out[2][0]
    assert let_record["value"]["str"] == mul_record["result"]["str"]
    rendered = mul_record["result"]["str"]
    (stmt,) = parse_session(f"mul {rendered}")
    record, _ = session.execute(stmt)
    assert record["result"]["str"] == rendered


def test_element_bindings_resolve_in_ring():
    session, out = run_lines(
        "ring R = QQ[x, y]\nlet f = x + y\nmul f * f")
    record, _ = out[-1]
    assert record["result"]["str"] == "x^2 + 2*x*y + y^2"


def test_non_ascii_digits_are_not_numbers():
    # the grammar's integers are ASCII; an Arabic-Indic three is no digit
    with pytest.raises(ParseError) as err:
        parse_session("ring R = QQ[x]\nmul \u0663*x\n")
    assert str(err.value) == "line 2, col 5: unexpected character '\u0663'"
    assert (err.value.line, err.value.col) == (2, 5)


def test_literal_past_the_int_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    with pytest.raises(ParseError) as err:
        parse_session("ring R = QQ[x]\nmul x + 2/" + "7" * 5000 + "\n")
    assert (err.value.line, err.value.col) == (2, 11)
    assert "5000 digits" in str(err.value)


# -- the evaluator against Poly arithmetic ----------------------------------
#
# A tree is a leaf (its DSL text) or a tuple: (op, left, right) for + - *,
# ("neg", operand) or ("^", base, exponent).  It is rendered fully
# parenthesised, so its text order is its evaluation order.

_GOOD_LEAVES = st.one_of(
    st.integers(0, 30).map(str),
    st.tuples(st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9]))
    .map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["x", "y", "f"]),
)
# an unknown name, a bound skew element, a denominator that vanishes in GF(7)
_BAD_LEAVES = st.sampled_from(["zz", "u", "1/14"])


def _trees(leaves, depth=3):
    if depth == 0:
        return leaves
    sub = _trees(leaves, depth - 1)
    return st.one_of(leaves,
                     st.tuples(st.sampled_from("+-*"), sub, sub),
                     st.tuples(st.just("neg"), sub),
                     st.tuples(st.just("^"), sub, st.integers(0, 2)))


def _render(tree, chunks, leaves):
    """Append the text of `tree` to `chunks` and (column, text) of each leaf
    to `leaves`."""
    if isinstance(tree, str):
        leaves.append((sum(map(len, chunks)) + 1, tree))
        chunks.append(tree)
    elif tree[0] == "neg":
        chunks.append("(-")
        _render(tree[1], chunks, leaves)
        chunks.append(")")
    elif tree[0] == "^":
        chunks.append("(")
        _render(tree[1], chunks, leaves)
        chunks.append(f")^{tree[2]}")
    else:
        chunks.append("(")
        _render(tree[1], chunks, leaves)
        chunks.append(f" {tree[0]} ")
        _render(tree[2], chunks, leaves)
        chunks.append(")")


def _oracle(tree, context, f):
    if isinstance(tree, str):
        if tree in ("x", "y"):
            return context.var_by_name(tree)
        if tree == "f":
            return f
        n, _, d = tree.partition("/")
        return context.const(Fraction(int(n), int(d or 1)))
    if tree[0] == "neg":
        return -_oracle(tree[1], context, f)
    if tree[0] == "^":
        return _oracle(tree[1], context, f) ** tree[2]
    a, b = _oracle(tree[1], context, f), _oracle(tree[2], context, f)
    return a + b if tree[0] == "+" else a - b if tree[0] == "-" else a * b


@functools.cache
def _eval_session(field):
    session, _ = run_lines(f"""
        ring R = {field}[x, y]
        ideal I in R : x^2 + y^2 - 1, x*y^2 - 2
        quotient Q = R / I
        let f = x*y - 3 in R
        weyl 1 as W
        let u = x in W
    """)
    return session


def _statement(tree, ring):
    chunks, leaves = ["mul "], []
    _render(tree, chunks, leaves)
    chunks.append(f" in {ring}")
    (stmt,) = parse_session("".join(chunks))
    return stmt, leaves


_CASES = [(field, ring) for field in ("QQ", "GF(7)") for ring in ("R", "Q")]


@pytest.mark.parametrize("field, ring", _CASES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree=_trees(_GOOD_LEAVES))
def test_evaluator_matches_poly_arithmetic(field, ring, tree):
    # one reduction at the end gives the normal form of Poly arithmetic
    session = _eval_session(field)
    quotient = session.rings[ring]
    stmt, _ = _statement(tree, ring)
    expected = quotient.reduce(_oracle(tree, quotient.context,
                                       session.elements["f"]))
    expr, _ = stmt.operands
    assert session.eval_poly(expr, quotient) == expected
    record, human = session.execute(stmt)
    assert record["result"]["str"] == str(expected)
    assert human() == f"mul: {expected}"


@pytest.mark.parametrize("field, ring", _CASES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree=st.tuples(st.sampled_from("+-*"),
                      _trees(st.one_of(_GOOD_LEAVES, _BAD_LEAVES)), _BAD_LEAVES))
def test_evaluator_reports_the_first_bad_leaf(field, ring, tree):
    # leaves are evaluated in text order, and the first bad one raises; the
    # last leaf is bad (but 1/14 is a fine rational over QQ)
    session = _eval_session(field)
    stmt, leaves = _statement(tree, ring)
    for col, leaf in leaves:
        if leaf in ("zz", "u"):
            with pytest.raises(UnknownIdentifierError) as err:
                session.execute(stmt)
            assert (err.value.line, err.value.col) == (1, col)
            assert str(err.value) == f"line 1, col {col}: unknown identifier {leaf!r}"
            return
        if field == "GF(7)" and leaf == "1/14":
            with pytest.raises(ZeroDivisionError) as err:
                session.execute(stmt)
            assert type(err.value) is VanishingDenominatorError
            assert str(err.value) == "denominator 14 vanishes in GF(7)"
            return
    session.execute(stmt)
