"""Golden transcripts of pool-shaped sessions.

``data/pool_<shape>.dsl`` holds one session of each shape the benchmark's
``session-replay`` pool generates (ellipse, circle, two parallel lines,
crossing lines over QQ[x, y]), each with every statement kind of a pool
session: ring, ideal, quotient, der on R and on R/I, apply, check dideal,
dim, check dsimple --dim1, gb, member with cofactors, skew, check simple,
certificate and darboux.  ``pool_<shape>_transcript.txt`` and ``.jsonl``
are the text and ``--json`` output of ``derivalg run`` on it; a change to
parsing, evaluation or printing must leave them byte-identical.

``--order`` orders printed bases, cofactors and normal forms only: under
``--order lex`` these sessions print the same ``check`` and ``dim`` lines,
and each shape's quotient with a lex basis gets the verdicts of the grevlex
one.
"""

import contextlib
import io
import pathlib
import subprocess
import sys

import pytest

from derivalg import (
    QQ,
    Derivation,
    IdealHandle,
    QuotientRing,
    SkewRingDescriptor,
    TermOrder,
    VarContext,
    d_ideal_check,
    d_simplicity,
    dim1_simplicity,
    skew_simplicity,
)
from derivalg import cli, groebner

DATA = pathlib.Path(__file__).parent / "data"
SHAPES = ["ellipse", "circle", "two_lines", "crossing_lines"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("flags, suffix", [((), "txt"), (("--json",), "jsonl")],
                         ids=["text", "json"])
def test_pool_transcript_matches_golden(shape, flags, suffix):
    assert (_run(DATA / f"pool_{shape}.dsl", *flags)
            == (DATA / f"pool_{shape}_transcript.{suffix}").read_text())


def _run(path, *flags):
    """The standard output of `derivalg *flags run path`."""
    out = subprocess.run(
        [sys.executable, "-m", "derivalg", *flags, "run", str(path)],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("session", ["acceptance_session"]
                         + [f"pool_{shape}" for shape in SHAPES])
def test_order_lex_prints_the_same_verdicts(session):
    path = DATA / f"{session}.dsl"
    verdicts = [[line for line in _run(path, *flags).splitlines()
                 if line.startswith(("check ", "dim "))]
                for flags in ((), ("--order", "lex"))]
    assert verdicts[0] and verdicts[0] == verdicts[1]


def _pool_shape(shape, order):
    """The quotient Q = QQ[x, y]/I of a pool shape with its basis in
    `order`, I, the pool's second ideal J (I plus a line) and d on Q."""
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    relation, line, images = {
        "ellipse": (x ** 2 + 5 * y ** 2 - 4, x - 5 * y - 6, [30 * y, -6 * x]),
        "circle": (x ** 2 + y ** 2 - 49, x - 5 * y - 1,
                   [-(3 * x - 5) * y, (3 * x - 5) * x]),
        "two_lines": (y ** 2 - 25, x - 5 * y - 8, [1 + 5 * y, y ** 2 - 25]),
        "crossing_lines": ((x - 7) * (y - 4), x - 7 * y - 7,
                           [(x - 7) * (9 * x - 2), -(y - 4) * (9 * x - 2)]),
    }[shape]
    I = IdealHandle(ctx, [relation])
    ring = QuotientRing.of(I, order) if order else QuotientRing.of(I)
    return ring, I, IdealHandle(ctx, [relation, line]), Derivation(ring, images)


@pytest.mark.parametrize("shape", SHAPES)
def test_lex_quotient_meets_grevlex_verdicts(shape):
    # a ring basis in lex, the verdicts' ideals in grevlex: the same answers
    lex_ring, I, J, d_lex = _pool_shape(shape, TermOrder.LEX)
    ring, _, _, d = _pool_shape(shape, None)
    assert lex_ring.basis.order is TermOrder.LEX
    assert ring.basis.order is TermOrder.GREVLEX
    assert d_simplicity(lex_ring, [d_lex]) == d_simplicity(ring, [d])
    assert dim1_simplicity(lex_ring, d_lex) == dim1_simplicity(ring, d)
    assert (skew_simplicity(SkewRingDescriptor(lex_ring, ["t"], [d_lex]))
            == skew_simplicity(SkewRingDescriptor(ring, ["t"], [d])))
    for ideal in (I, J):
        assert d_ideal_check(ideal, [d_lex]) == d_ideal_check(ideal, [d])


def test_pool_sessions_pin_the_engine_work(monkeypatch):
    # the divisions the engine makes on the four pool sessions, pinned: a
    # normal form of a reduced polynomial, and an input or basis element
    # that no other leading monomial divides a term of, divide nothing; and
    # each (nvars, order, field width) has one packer, however many bases
    # and normal forms ask for it
    divisions = 0
    divide = groebner._divide

    def counting(*args, **kwargs):
        nonlocal divisions
        divisions += 1
        return divide(*args, **kwargs)

    packers = {}
    build = groebner._Packer.__new__

    def shared(cls, nvars, order, need):
        packer = build(cls, nvars, order, need)
        packers.setdefault((nvars, order, packer.limit), set()).add(packer)
        return packer

    monkeypatch.setattr(groebner, "_divide", counting)
    monkeypatch.setattr(groebner, "_PACKERS", {})
    monkeypatch.setattr(groebner._Packer, "__new__", staticmethod(shared))
    for shape in SHAPES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--json", "run", str(DATA / f"pool_{shape}.dsl")]) == 0
        assert out.getvalue() == (
            DATA / f"pool_{shape}_transcript.jsonl").read_text()
    assert divisions == 51
    assert packers and all(len(built) == 1 for built in packers.values())
