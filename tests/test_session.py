"""Session statements not already covered by the CLI round-trip tests."""

import pytest

from derivalg import (
    BudgetExceededError,
    NonCommutingDerivationsError,
    ParseError,
    PreconditionError,
    UnitIdealError,
)
from derivalg import QuotientRing, groebner
from derivalg.parser import parse_session
from derivalg.session import Session


def run_lines(text, session=None):
    session = session or Session()
    out = []
    for stmt in parse_session(text):
        out.append(session.execute(stmt)[0])
    return session, out


def test_der_rejects_a_repeated_generator():
    session = Session()
    with pytest.raises(ParseError, match="'x' is given two images in der d"):
        run_lines("ring R = QQ[x, y]\nder d on R : x -> 1, x -> y\n", session)
    assert "d" not in session.derivations


def test_skew_definition_and_let():
    _, out = run_lines("""
ring R = QQ[y]
der d on R : y -> 1
skew S = R[x; d]
let f = x*y in S
mul f - y*x in S
""")
    assert out[-1]["result"]["str"] == "1"


def test_iterated_skew_definition():
    _, out = run_lines("""
ring R = QQ[y1, y2]
der d1 on R : y1 -> 1
der d2 on R : y2 -> 1
skew S = R[t1; d1][t2; d2]
mul t1 * y1 - y1 * t1
mul t1 * t2 - t2 * t1
""")
    assert out[-2]["result"]["str"] == "1"
    assert out[-1]["result"]["str"] == "0"


def test_skew_definition_refuses_noncommuting():
    session, _ = run_lines("""
ring R = QQ[y1, y2]
der d1 on R : y1 -> y2
der d2 on R : y2 -> y1
""")
    (stmt,) = parse_session("skew S = R[t1; d1][t2; d2]")
    with pytest.raises(NonCommutingDerivationsError):
        session.execute(stmt)


def test_extend_statement():
    session, out = run_lines("""
ring R = QQ[y, z]
der dy on R : y -> 1
der dz on R : z -> 1
skew S = R[x; dy]
extend dz into S
""")
    assert out[-1]["extends"] is True

    (stmt,) = parse_session("der ydy on R : y -> y")
    session.execute(stmt)
    (stmt,) = parse_session("extend ydy into S")
    with pytest.raises(NonCommutingDerivationsError):
        session.execute(stmt)


def test_gb_and_member_statements():
    _, out = run_lines("""
ring R = QQ[x, y]
ideal I in R : x*y - 1, y^2 - 1
gb I
member x^2*y - x in I with cofactors
member x + 1 in I
""")
    gb_record = out[2]
    assert gb_record["basis"]  # reduced basis, grevlex by default
    member_record = out[3]
    assert member_record["member"] is True
    assert member_record["remainder"] == "0"
    assert out[4]["member"] is False


def test_certificate_statement_char0():
    _, out = run_lines("""
ring R = QQ[x1, x2]
certificate x1^2*x2 + 3*x1
""")
    assert out[-1]["word"] == ["x1", "x1", "x2"]
    assert out[-1]["constant"] == "2"


def test_certificate_statement_truncated():
    _, out = run_lines("""
ring F = GF(3)[x]
ideal P in F : x^3
quotient T = F / P
certificate 2*x + x^2 in T
""")
    assert out[-1]["word"] == ["x", "x"]
    assert out[-1]["constant"] == "2"


def test_certificate_rejects_wrong_quotient():
    session, _ = run_lines("""
ring F = GF(3)[x]
ideal P in F : x^2
quotient T = F / P
""")
    (stmt,) = parse_session("certificate x in T")
    with pytest.raises(PreconditionError):
        session.execute(stmt)


def test_darboux_statement():
    _, out = run_lines("""
ring R = QQ[x, y]
darboux y bound 3
""")
    assert out[-1]["status"] == "found"
    assert out[-1]["h"] == "y"


def test_apply_statement_on_quotient():
    _, out = run_lines("""
ring R = QQ[x1, x2]
ideal J in R : x1^2 + x2^2 - 1
quotient Q = R / J
der rot on Q : x1 -> -x2, x2 -> x1
apply rot x1^2
""")
    # d(x1^2) = 2 x1 (-x2), reduced in the quotient
    assert out[-1]["result"]["str"] == "-2*x1*x2"


def test_check_dideal_works_modulo_the_defining_ideal():
    # e(xy) = y^2 lies in J + I = (xy, y^2): (xy) is e-stable in Q
    _, out = run_lines("""
ring R = QQ[x, y]
ideal I in R : y^2
quotient Q = R / I
der e on Q : x -> y
ideal J in R : x*y
check dideal J e
""")
    assert out[-1]["d_ideal"] is True


def test_dim_of_the_unit_ideal_is_refused():
    with pytest.raises(UnitIdealError, match="defining ideal is the whole ring"):
        run_lines("ring R = QQ[x]\nideal I in R : x, x + 1\ndim I\n")



@pytest.mark.parametrize("text, name", [
    ("ring R = QQ[x, y]\nlet x = y + 1\n", "x"),
    ("weyl 1\nlet x = y\n", "x"),         # a skew variable of A1
    ("weyl 1\nlet y = x\n", "y"),         # a base variable of A1
    ("ring R = QQ[y]\nder d on R : y -> 1\nskew S = R[x; d]\n"
     "let y = x in S\n", "y"),
])
def test_let_refuses_a_variable_of_its_ring(text, name):
    # the variable wins every lookup, so the binding could never be read
    session = Session()
    with pytest.raises(ParseError,
                       match=f"element '{name}' is a variable of its ring"):
        run_lines(text, session)
    assert name not in session.elements

# -- the session memo ----------------------------------------------------------

KATSURA3 = """
ring R = QQ[u0, u1, u2, u3]
ideal K in R : u0 + 2*u1 + 2*u2 + 2*u3 - 1, u0^2 - u0 + 2*u1^2 + 2*u2^2 + 2*u3^2, 2*u0*u1 + 2*u1*u2 - u1 + 2*u2*u3, 2*u0*u2 + u1^2 + 2*u1*u3 - u2
"""
KATSURA3_STEPS = 4       # grevlex, as pinned in tests/test_groebner.py


def _count_divisions(monkeypatch):
    """A counter of every `_divide` call, the engine's one division."""
    counts = {"divide": 0}
    divide = groebner._divide

    def counting(*args, **kwargs):
        counts["divide"] += 1
        return divide(*args, **kwargs)

    monkeypatch.setattr(groebner, "_divide", counting)
    return counts


def test_repeated_basis_in_a_session_is_the_same_object(monkeypatch):
    bases = []
    buchberger = groebner.buchberger

    def recording(*args, **kwargs):
        bases.append(buchberger(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(groebner, "buchberger", recording)
    counts = _count_divisions(monkeypatch)
    session, first = run_lines(KATSURA3 + "gb K\n")
    assert counts["divide"]
    counts["divide"] = 0
    _, second = run_lines("gb K\n", session)
    assert second[0] == first[-1]
    assert len(bases) == 2 and bases[1] is bases[0]
    assert counts["divide"] == 0


def test_memo_hit_keeps_the_step_budget(monkeypatch):
    session, _ = run_lines(KATSURA3)
    session.budget = KATSURA3_STEPS
    _, [computed] = run_lines("gb K\n", session)
    counts = _count_divisions(monkeypatch)
    # a hit raises exactly when the loop would, with the loop's message
    session.budget = KATSURA3_STEPS - 1
    message = f"Buchberger step budget \\({KATSURA3_STEPS - 1}\\) exhausted"
    with pytest.raises(BudgetExceededError, match=message):
        run_lines("gb K\n", session)
    session.budget = KATSURA3_STEPS
    assert run_lines("gb K\n", session)[1] == [computed]
    assert counts["divide"] == 0
    with pytest.raises(BudgetExceededError, match=message):
        groebner.buchberger(session.ideals["K"].generators,
                            budget=KATSURA3_STEPS - 1)


def test_a_statement_that_raises_stores_nothing():
    session, _ = run_lines(KATSURA3, Session(budget=KATSURA3_STEPS - 1))
    with pytest.raises(BudgetExceededError):
        run_lines("gb K\n", session)
    assert session._memo == {}


def test_sessions_do_not_share_a_memo_and_library_calls_recompute(
        monkeypatch):
    counts = _count_divisions(monkeypatch)
    first, _ = run_lines(KATSURA3 + "gb K\n")
    made = counts["divide"]
    run_lines(KATSURA3 + "gb K\n")
    assert made and counts["divide"] == 2 * made
    generators = first.ideals["K"].generators
    for _ in range(2):
        counts["divide"] = 0
        groebner.buchberger(generators)
        assert counts["divide"] == made


def test_check_simple_reuses_the_dsimple_verdict(monkeypatch):
    session, out = run_lines("""
ring R = QQ[x, y]
ideal I in R : x^2 + y^2 - 1
quotient Q = R / I
der d on Q : x -> -y, y -> x
check dsimple Q d --dim1
skew S = Q[t; d]
""")
    counts = _count_divisions(monkeypatch)
    _, [simple] = run_lines("check simple S\n", session)
    assert counts["divide"] == 0
    for key in ("status", "criterion", "reason", "witness"):
        assert simple[key] == out[4][key]


def test_a_verdict_memo_hit_hashes_its_ring_once(monkeypatch):
    # the key holds the images of each d, not d, whose own key holds the
    # ring again
    session, _ = run_lines("""
ring R = QQ[x, y]
ideal I in R : x^2 + y^2 - 1
quotient Q = R / I
der d on Q : x -> -y, y -> x
check dsimple Q d
""")
    calls = []
    key = QuotientRing._key
    monkeypatch.setattr(QuotientRing, "_key",
                        lambda ring: calls.append(ring) or key(ring))
    _, [verdict] = run_lines("check dsimple Q d\n", session)
    assert verdict["status"] == "Simple"
    assert calls == [session.rings["Q"]]


def test_verdicts_of_equal_rings_keep_their_own_generators():
    # Q == Q2 and d == d2, but a witness prints the defining generators
    text = """
ring R = QQ[x, y]
ideal I in R : x^2 + y^2 - 1
ideal I2 in R : 2*x^2 + 2*y^2 - 2
quotient Q = R / I
quotient Q2 = R / I2
der d on Q : x -> 0
der d2 on Q2 : x -> 0
"""
    session, _ = run_lines(text)
    assert session.rings["Q"] == session.rings["Q2"]
    assert session.derivations["d"] == session.derivations["d2"]
    _, verdicts = run_lines("check dsimple Q d\ncheck dsimple Q2 d2\n",
                            session)
    assert verdicts[0]["witness"] == ["x", "x^2 + y^2 - 1"]
    assert verdicts[1]["witness"] == ["x", "2*x^2 + 2*y^2 - 2"]
    assert verdicts[1] == run_lines(text + "check dsimple Q2 d2\n")[1][-1]
