"""Expression/session grammar and name resolution."""

import pytest

from derivalg import ParseError, QQ, UnknownIdentifierError, VarContext
from derivalg.parser import (
    CheckCommute,
    DefineDerivation,
    DefineRing,
    parse_session,
    parse_statement_line,
)
from derivalg.session import Session


def run_lines(text):
    session = Session()
    out = []
    for stmt in parse_session(text):
        out.append(session.execute(stmt))
    return session, out


def test_parse_ring_statement():
    (stmt,) = parse_session("ring R = QQ[x, y]")
    assert isinstance(stmt, DefineRing)
    assert stmt.name == "R" and stmt.variables == ("x", "y")
    assert stmt.field_spec.p is None


def test_parse_gf_ring():
    (stmt,) = parse_session("ring F = GF(5)[x]")
    assert stmt.field_spec.p == 5


def test_parse_derivation_statement():
    (stmt,) = parse_session("der d on R : x -> -y, y -> x")
    assert isinstance(stmt, DefineDerivation)
    assert stmt.name == "d" and len(stmt.assignments) == 2


def test_parse_check_commute():
    (stmt,) = parse_session("check commute d1 d2")
    assert isinstance(stmt, CheckCommute)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = QQ[x, y]\nring S = QQ[x y]")
    assert err.value.line == 2
    assert err.value.col > 0


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


def test_parse_statement_line_blank():
    assert parse_statement_line("   # nothing\n") is None


def test_element_bindings_resolve_in_ring():
    session, out = run_lines(
        "ring R = QQ[x, y]\nlet f = x + y\nmul f * f")
    record, _ = out[-1]
    assert record["result"]["str"] == "x^2 + 2*x*y + y^2"
