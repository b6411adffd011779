"""Refusals of bad input, one row each: the call, its exception type and
its message.  The CLI rows build the session script of a subcommand, so
they run in-process."""

import re

import pytest

from derivalg import (QQ, ContextMismatchError, Derivation, GroebnerBasis,
                      IdealHandle, ParseError, PreconditionError, QuotientRing,
                      SkewRingDerivation, SkewRingDescriptor, TermOrder,
                      UnknownIdentifierError, VarContext, buchberger,
                      commutator, commuting_set_check, d_ideal_check,
                      d_simplicity, dim1_simplicity, inner_induced, normal_form,
                      skew_mul, weyl_algebra)
from derivalg.cli import build_arg_parser
from derivalg.parser import parse_session
from derivalg.poly import det_fraction_free
from derivalg.session import Session

CTX = VarContext(("x", "y"), QQ)
OTHER = VarContext(("u", "v"), QQ)
X, Y = CTX.var(0), CTX.var(1)
U = OTHER.var(0)
R = QuotientRing.trivial(CTX)
D = Derivation.partial(R, 0)
D_OTHER = Derivation.partial(QuotientRing.trivial(OTHER), 0)
CIRCLE = QuotientRing.of(IdealHandle(CTX, [X**2 + Y**2 - 1]))
ROTATION = Derivation(CIRCLE, [-Y, X])
W1, W2 = weyl_algebra(1), weyl_algebra(2)


def _cli(*argv):
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


def _session(text):
    session = Session()
    for stmt in parse_session(text):
        session.execute(stmt)


QUOTIENT = "ring R = QQ[x]\nideal I in R : x\nquotient Q = R / I\n"

REFUSALS = [
    # cli
    pytest.param(lambda: _cli("check", "commute", "--ring", "QQ[x]", "--der", "x -> 1",
                              "--der", "x -> x", "--der", "x -> 2"),
                 ParseError, "check commute takes exactly two derivations",
                 id="cli-commute-three-ders"),
    pytest.param(lambda: _cli("check", "simple", "--ring", "QQ[x]", "--skew-var", "t",
                              "--skew-var", "s", "--der", "x -> 1"),
                 ParseError, "one --skew-var per --der is required",
                 id="cli-simple-skew-var-count"),
    pytest.param(lambda: _cli("check", "simple", "--ring", "QQ[x]"),
                 ParseError, "check simple needs --weyl N, or --ring with --skew-var/--der",
                 id="cli-simple-without-skew"),
    pytest.param(lambda: _cli("gb", "--ring", "QQ x", "x"),
                 ParseError, "bad ring designator 'QQ x'", id="cli-bad-ring"),
    # session
    pytest.param(lambda: _session(QUOTIENT + "ideal J in Q : x"),
                 PreconditionError, "ideals are defined in polynomial rings",
                 id="session-ideal-over-quotient"),
    pytest.param(lambda: _session(QUOTIENT + "quotient T = Q / I"),
                 PreconditionError, "quotients are taken over polynomial rings",
                 id="session-quotient-over-quotient"),
    pytest.param(lambda: _session("ring R = QQ[x]\nring S = QQ[y]\n"
                                  "ideal I in R : x\nquotient Q = S / I"),
                 PreconditionError, "ideal 'I' does not live in ring 'S'",
                 id="session-quotient-other-ring"),
    pytest.param(lambda: _session("ring R = QQ[x]\nder d on R : y -> 1"),
                 UnknownIdentifierError, "'y' is not a variable of R",
                 id="session-der-foreign-variable"),
    pytest.param(lambda: _session("mul x"),
                 UnknownIdentifierError,
                 "line 1, col 1: no ring in scope; define one first",
                 id="session-no-ring-in-scope"),
    pytest.param(lambda: _session("ring R = QQ[x]\ninner x"),
                 PreconditionError, "inner analysis runs in a skew ring",
                 id="session-inner-in-a-commutative-ring"),
    pytest.param(lambda: _session("ring R = QQ[x]\nideal I in S : x"),
                 UnknownIdentifierError, "line 2, col 1: unknown ring 'S'",
                 id="session-unknown-ring"),
    pytest.param(lambda: _session("ring R = QQ[x]\nder d on R : x -> 1\n"
                                  "extend d into S"),
                 UnknownIdentifierError, "line 3, col 1: unknown skew ring 'S'",
                 id="session-unknown-skew-ring"),
    pytest.param(lambda: _session("weyl 1\nder d on A1 : x -> 1"),
                 UnknownIdentifierError, "line 2, col 1: 'A1' is a skew ring, "
                 "not a polynomial or quotient ring", id="session-der-on-a-skew-ring"),
    pytest.param(lambda: _session("weyl 1\nideal I in A1 : x"),
                 UnknownIdentifierError, "line 2, col 1: 'A1' is a skew ring, "
                 "not a polynomial or quotient ring", id="session-ideal-in-a-skew-ring"),
    pytest.param(lambda: _session(QUOTIENT + "weyl 1\nquotient T = A1 / I"),
                 UnknownIdentifierError, "line 5, col 1: 'A1' is a skew ring, "
                 "not a polynomial or quotient ring",
                 id="session-quotient-over-a-skew-ring"),
    pytest.param(lambda: _session("ring R = QQ[x]\nder d on R : x -> 1\nweyl 1\n"
                                  "check dsimple A1 d"),
                 UnknownIdentifierError, "line 4, col 1: 'A1' is a skew ring, "
                 "not a polynomial or quotient ring",
                 id="session-check-dsimple-on-a-skew-ring"),
    pytest.param(lambda: _session("ring R = QQ[x]\ncheck simple R"),
                 UnknownIdentifierError, "line 2, col 1: 'R' is a polynomial or "
                 "quotient ring, not a skew ring", id="session-check-simple-on-a-ring"),
    pytest.param(lambda: _session(QUOTIENT + "der d on R : x -> 1\nextend d into Q"),
                 UnknownIdentifierError, "line 5, col 1: 'Q' is a polynomial or "
                 "quotient ring, not a skew ring", id="session-extend-into-a-quotient"),
    pytest.param(lambda: _session("ring R = QQ[x]\n\ngb I"),
                 UnknownIdentifierError, "line 3, col 1: unknown ideal 'I'",
                 id="session-unknown-ideal"),
    pytest.param(lambda: _session("ring R = QQ[x]\napply d x"),
                 UnknownIdentifierError, "line 2, col 1: unknown derivation 'd'",
                 id="session-unknown-derivation"),
    # groebner
    pytest.param(lambda: IdealHandle(CTX, [U]),
                 ContextMismatchError, "ideal generator outside the context",
                 id="ideal-foreign-generator"),
    pytest.param(lambda: buchberger([X, U]),
                 ContextMismatchError, "generators live in different contexts",
                 id="buchberger-foreign-generator"),
    pytest.param(lambda: normal_form(U, GroebnerBasis(CTX, TermOrder.GREVLEX, [X])),
                 ContextMismatchError, "polynomial and basis contexts differ",
                 id="normal-form-foreign-input"),
    pytest.param(lambda: QuotientRing(CTX, IdealHandle(OTHER, [U]), CIRCLE.basis),
                 ContextMismatchError, "quotient components share no context",
                 id="quotient-foreign-component"),
    pytest.param(lambda: buchberger([CTX.zero, CTX.zero]),
                 ValueError, "buchberger needs a context; use an IdealHandle for (0)",
                 id="buchberger-only-zeros"),
    # derivation
    pytest.param(lambda: Derivation(R, [U, U]),
                 ContextMismatchError, "derivation image outside the ring",
                 id="derivation-foreign-image"),
    pytest.param(lambda: commutator(D, D_OTHER),
                 ContextMismatchError, "commutator operands live on different rings",
                 id="commutator-across-rings"),
    pytest.param(lambda: commuting_set_check([D, D_OTHER]),
                 ContextMismatchError, "derivations live on different rings",
                 id="commuting-set-across-rings"),
    pytest.param(lambda: d_ideal_check(IdealHandle(CTX, [X]), [D, ROTATION]),
                 ContextMismatchError, "derivations live on different rings",
                 id="d-ideal-across-rings"),
    pytest.param(lambda: d_ideal_check(IdealHandle(CTX, [X]), [D_OTHER]),
                 ContextMismatchError, "derivation outside the ideal's context",
                 id="d-ideal-foreign-derivation"),
    # simplicity
    pytest.param(lambda: d_simplicity(R, [D_OTHER]),
                 ContextMismatchError, "derivation does not live on the given ring",
                 id="d-simplicity-foreign-derivation"),
    pytest.param(lambda: dim1_simplicity(R, D_OTHER),
                 ContextMismatchError, "derivation does not live on the given ring",
                 id="dim1-simplicity-foreign-derivation"),
    # skew
    pytest.param(lambda: SkewRingDescriptor(R, ["t"], [D_OTHER]),
                 ContextMismatchError, "derivation does not live on the base ring",
                 id="skew-foreign-structure-derivation"),
    pytest.param(lambda: W1.one() + W2.one(),
                 ContextMismatchError, "skew elements live in different rings",
                 id="skew-arithmetic-across-rings"),
    pytest.param(lambda: skew_mul(W1, W1.one(), W2.one()),
                 ContextMismatchError, "operands live in a different skew ring",
                 id="skew-mul-foreign-operand"),
    pytest.param(lambda: SkewRingDerivation(W1, Derivation.partial(W1.base, 0))
                 .apply(W2.one()),
                 ContextMismatchError, "element outside the extension's ring",
                 id="skew-derivation-foreign-element"),
    pytest.param(lambda: inner_induced(W1, W2.one()),
                 ContextMismatchError, "element outside the skew ring",
                 id="inner-induced-foreign-element"),
    pytest.param(lambda: W1.variable("x") ** -1,
                 ValueError, "skew powers take non-negative int exponents",
                 id="skew-negative-power"),
    # poly
    pytest.param(lambda: VarContext(("x", ""), QQ),
                 ValueError, "variable names must be nonempty", id="empty-variable-name"),
    pytest.param(lambda: setattr(CTX, "names", ("z",)),
                 AttributeError, "cannot assign to field 'names' of VarContext",
                 id="context-assign"),
    pytest.param(lambda: delattr(CTX, "field"),
                 AttributeError, "cannot delete field 'field' of VarContext",
                 id="context-delete"),
    pytest.param(lambda: X ** -1,
                 ValueError, "polynomial powers take non-negative int exponents",
                 id="poly-negative-power"),
    pytest.param(lambda: X.substitute({0: U}),
                 ContextMismatchError, "substituted values leave the context",
                 id="substitute-foreign-value"),
    pytest.param(lambda: X.evaluate([1]),
                 ValueError, "point arity does not match the context",
                 id="evaluate-wrong-arity"),
    pytest.param(lambda: det_fraction_free([[X, Y]], CTX),
                 ValueError, "determinant needs a square matrix",
                 id="determinant-not-square"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error
