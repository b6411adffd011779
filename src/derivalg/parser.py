"""Tokenizer, expression parser, and session-statement parser for the CLI.

Grammar (one statement per line, `#` starts a comment):

    ring R = QQ[x, y]                  ring R = GF(5)[x, y]
    ideal I in R : f1, f2, ...
    quotient Q = R / I
    der d on R : x -> -y, y -> x       (missing variables map to 0)
    skew S = R[t1; d1][t2; d2]
    weyl N [as NAME]
    let name = EXPR [in RING]
    mul EXPR [in RING]
    apply DER EXPR
    gb IDEAL                           member EXPR in IDEAL [with cofactors]
    dim IDEAL
    certificate EXPR [in RING]
    darboux EXPR bound N
    check commute D1 D2
    check dideal IDEAL D1 [D2 ...]
    check dsimple RING D1 [D2 ...] [--dim1]
    check simple SKEWRING
    inner EXPR [in SKEWRING]
    extend DER into SKEWRING

`check dsimple` runs `simplicity.d_simplicity`, as does `check simple` on the
skew ring's base, in every characteristic, when no constant relation among
D (G1) decides first; `--dim1` takes one derivation and answers Unknown
unless the ring has characteristic 0 and dimension 1.

Expressions: ASCII integers, `a/b` rationals, identifiers, `+ - * ^`, parentheses;
`*` is mandatory between factors and `^` takes a non-negative integer.

Tokens, expression nodes and statements are `typing.NamedTuple` records, and
every statement has its source `line` as the first field.  Like any tuple, a
record compares equal to a plain tuple of the same values, whatever its
class: tell statements apart by type, as `Session.execute` does.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import ParseError

# spaces and comments match no group and make no token; `bad` catches the
# first character no token starts with
_TOKEN_RE = re.compile(r"""
    [ \t]+
  | \#[^\n]*
  | (?P<newline>\n)
  | (?P<number>[0-9]+)
  | (?P<flag>--[A-Za-z][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*^/()\[\],:;=])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str      # number | ident | flag | arrow | op | newline | eof
    text: str
    line: int
    col: int


def tokenize(text: str):
    """The tokens of `text`, ending in one `eof` token; one regex pass.

    Tokens are made with `tuple.__new__`, which skips the NamedTuple
    constructor's argument handling.
    """
    tokens = []
    append = tokens.append
    new = tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        append(new(Token, (kind, m.group(), line, col)))
        if kind == "newline":
            line += 1
            line_start = m.end()
    append(new(Token, ("eof", "", line, len(text) - line_start + 1)))
    return tokens


# --------------------------------------------------------------------------
# expression AST
# --------------------------------------------------------------------------


class Num(NamedTuple):
    numerator: int
    denominator: int
    line: int
    col: int


class Name(NamedTuple):
    text: str
    line: int
    col: int


class Unary(NamedTuple):
    op: str
    operand: object


class Binary(NamedTuple):
    op: str             # + - * ^
    left: object
    right: object


_new = tuple.__new__


def _expected(want: str, t: Token) -> ParseError:
    return ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                      t.line, t.col)


def _number(t: Token) -> int:
    """The value of a number token.  Any other token, or a literal past
    Python's int/str digit limit, is a ParseError at its position."""
    if t.kind != "number":
        raise _expected("number", t)
    try:
        return int(t.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(t.text)} digits is too long",
                         t.line, t.col) from None


class _Stream:
    def __init__(self, tokens, start=0):
        self.tokens = tokens
        self.i = start

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise _expected(text if text is not None else kind, t)
        return self.next()

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text


def parse_expression(stream: _Stream):
    node, stream.i = _sum(stream.tokens, stream.i)
    return node


def _sum(tokens, i):
    """(node, index past it) of the sum at tokens[i].  Only op tokens have
    the texts + - * / ^ ( ), so the text alone tells them apart."""
    node, i = _product(tokens, i)
    while (op := tokens[i][1]) in ("+", "-"):
        right, i = _product(tokens, i + 1)
        node = _new(Binary, (op, node, right))
    return node, i


def _product(tokens, i):
    node, i = _factor(tokens, i)
    while tokens[i][1] == "*":
        right, i = _factor(tokens, i + 1)
        node = _new(Binary, ("*", node, right))
    return node, i


def _factor(tokens, i):
    """`-` factor, or an atom with an optional `^` number."""
    t = tokens[i]
    kind, text, line, col = t
    if text == "-":
        node, i = _factor(tokens, i + 1)
        return _new(Unary, ("-", node)), i
    if kind == "number":
        slash = tokens[i + 1][1] == "/"
        d = _number(tokens[i + 2]) if slash else 1
        if d == 0:
            z = tokens[i + 2]
            raise ParseError("zero denominator in rational literal", z.line, z.col)
        node, i = _new(Num, (_number(t), d, line, col)), i + (3 if slash else 1)
    elif kind == "ident":
        node, i = _new(Name, (text, line, col)), i + 1
    elif text == "(":
        node, i = _sum(tokens, i + 1)
        if tokens[i][1] != ")":
            raise _expected(")", tokens[i])
        i += 1
    else:
        raise ParseError(f"expected an expression, found {text or kind!r}", line, col)
    if tokens[i][1] == "^":
        e = tokens[i + 1]
        node = _new(Binary, ("^", node, _new(Num, (_number(e), 1, e.line, e.col))))
        i += 2
    return node, i


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


class FieldDesignator(NamedTuple):
    p: Optional[int]    # None = QQ


class DefineRing(NamedTuple):
    line: int
    name: str
    field_spec: FieldDesignator
    variables: tuple


class DefineIdeal(NamedTuple):
    line: int
    name: str
    ring: str
    generators: tuple


class DefineQuotient(NamedTuple):
    line: int
    name: str
    ring: str
    ideal: str


class DefineDerivation(NamedTuple):
    line: int
    name: str
    ring: str
    assignments: tuple  # ((varname, expr), ...)


class DefineSkew(NamedTuple):
    line: int
    name: str
    base: str
    steps: tuple        # ((varname, dername), ...)


class DefineWeyl(NamedTuple):
    line: int
    n: int
    name: str


class LetElement(NamedTuple):
    line: int
    name: str
    expr: object
    ring: Optional[str]


class MulCommand(NamedTuple):
    line: int
    expr: object
    ring: Optional[str]


class ApplyCommand(NamedTuple):
    line: int
    derivation: str
    expr: object


class GbCommand(NamedTuple):
    line: int
    ideal: str


class MemberCommand(NamedTuple):
    line: int
    expr: object
    ideal: str
    cofactors: bool


class DimCommand(NamedTuple):
    line: int
    ideal: str


class CertificateCommand(NamedTuple):
    line: int
    expr: object
    ring: Optional[str]


class DarbouxCommand(NamedTuple):
    line: int
    expr: object
    bound: int
    ring: Optional[str]


class CheckCommute(NamedTuple):
    line: int
    first: str
    second: str


class CheckDideal(NamedTuple):
    line: int
    ideal: str
    derivations: tuple


class CheckDsimple(NamedTuple):
    line: int
    ring: str
    derivations: tuple
    dim1: bool


class CheckSimple(NamedTuple):
    line: int
    ring: str


class InnerCommand(NamedTuple):
    line: int
    expr: object
    ring: Optional[str]


class ExtendCommand(NamedTuple):
    line: int
    derivation: str
    ring: str


def parse_session(text: str):
    """Parse a full session; any syntax error aborts with its line/column."""
    tokens = tokenize(text)
    stream = _Stream(tokens)
    statements = []
    while stream.peek().kind != "eof":
        if stream.peek().kind == "newline":
            stream.next()
            continue
        statements.append(_parse_statement(stream))
        t = stream.peek()
        if t.kind not in ("newline", "eof"):
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)
    return statements


def _parse_statement(stream: _Stream):
    t = stream.peek()
    if t.kind != "ident":
        raise ParseError(f"expected a statement keyword, found {t.text!r}",
                         t.line, t.col)
    keyword = t.text
    handler = _STATEMENTS.get(keyword)
    if handler is None:
        raise ParseError(f"unknown statement {keyword!r}", t.line, t.col)
    stream.next()
    return handler(stream, t.line)


def _ident(stream: _Stream) -> str:
    return stream.expect("ident").text


def _parse_ring_stmt(stream, line):
    name = _ident(stream)
    stream.expect("op", "=")
    spec = _parse_field(stream)
    stream.expect("op", "[")
    variables = [_ident(stream)]
    while stream.at_op(","):
        stream.next()
        variables.append(_ident(stream))
    stream.expect("op", "]")
    return DefineRing(line, name, spec, tuple(variables))


def _parse_field(stream: _Stream) -> FieldDesignator:
    t = stream.expect("ident")
    if t.text == "QQ":
        return FieldDesignator(None)
    if t.text == "GF":
        stream.expect("op", "(")
        p = _number(stream.next())
        stream.expect("op", ")")
        return FieldDesignator(p)
    raise ParseError(f"unknown field {t.text!r} (use QQ or GF(p))",
                     t.line, t.col)


def _parse_ideal_stmt(stream, line):
    name = _ident(stream)
    stream.expect("ident", "in")
    ring = _ident(stream)
    stream.expect("op", ":")
    gens = [parse_expression(stream)]
    while stream.at_op(","):
        stream.next()
        gens.append(parse_expression(stream))
    return DefineIdeal(line, name, ring, tuple(gens))


def _parse_quotient_stmt(stream, line):
    name = _ident(stream)
    stream.expect("op", "=")
    ring = _ident(stream)
    stream.expect("op", "/")
    ideal = _ident(stream)
    return DefineQuotient(line, name, ring, ideal)


def _parse_der_stmt(stream, line):
    name = _ident(stream)
    stream.expect("ident", "on")
    ring = _ident(stream)
    stream.expect("op", ":")
    assignments = []
    while True:
        var = _ident(stream)
        stream.expect("arrow")
        assignments.append((var, parse_expression(stream)))
        if stream.at_op(","):
            stream.next()
            continue
        break
    return DefineDerivation(line, name, ring, tuple(assignments))


def _parse_skew_stmt(stream, line):
    name = _ident(stream)
    stream.expect("op", "=")
    base = _ident(stream)
    steps = []
    while stream.at_op("["):
        stream.next()
        var = _ident(stream)
        stream.expect("op", ";")
        der = _ident(stream)
        stream.expect("op", "]")
        steps.append((var, der))
    if not steps:
        t = stream.peek()
        raise ParseError("a skew ring needs at least one [var; derivation] step",
                         t.line, t.col)
    return DefineSkew(line, name, base, tuple(steps))


def _parse_weyl_stmt(stream, line):
    n = _number(stream.next())
    name = f"A{n}"
    if stream.peek().kind == "ident" and stream.peek().text == "as":
        stream.next()
        name = _ident(stream)
    return DefineWeyl(line, n, name)


def _parse_let_stmt(stream, line):
    name = _ident(stream)
    stream.expect("op", "=")
    expr = parse_expression(stream)
    ring = _opt_in_ring(stream)
    return LetElement(line, name, expr, ring)


def _opt_in_ring(stream: _Stream) -> Optional[str]:
    if stream.peek().kind == "ident" and stream.peek().text == "in":
        stream.next()
        return _ident(stream)
    return None


def _parse_mul_stmt(stream, line):
    expr = parse_expression(stream)
    return MulCommand(line, expr, _opt_in_ring(stream))


def _parse_apply_stmt(stream, line):
    der = _ident(stream)
    expr = parse_expression(stream)
    return ApplyCommand(line, der, expr)


def _parse_gb_stmt(stream, line):
    return GbCommand(line, _ident(stream))


def _parse_member_stmt(stream, line):
    expr = parse_expression(stream)
    stream.expect("ident", "in")
    ideal = _ident(stream)
    cof = False
    if stream.peek().kind == "ident" and stream.peek().text == "with":
        stream.next()
        stream.expect("ident", "cofactors")
        cof = True
    return MemberCommand(line, expr, ideal, cof)


def _parse_dim_stmt(stream, line):
    return DimCommand(line, _ident(stream))


def _parse_certificate_stmt(stream, line):
    expr = parse_expression(stream)
    return CertificateCommand(line, expr, _opt_in_ring(stream))


def _parse_darboux_stmt(stream, line):
    expr = parse_expression(stream)
    stream.expect("ident", "bound")
    n = _number(stream.next())
    return DarbouxCommand(line, expr, n, _opt_in_ring(stream))


def _parse_check_stmt(stream, line):
    what = stream.expect("ident")
    if what.text == "commute":
        return CheckCommute(line, _ident(stream), _ident(stream))
    if what.text == "dideal":
        ideal = _ident(stream)
        ders = [_ident(stream)]
        while stream.peek().kind == "ident":
            ders.append(_ident(stream))
        return CheckDideal(line, ideal, tuple(ders))
    if what.text == "dsimple":
        ring = _ident(stream)
        ders = [_ident(stream)]
        dim1 = False
        while True:
            t = stream.peek()
            if t.kind == "ident":
                ders.append(_ident(stream))
            elif t.kind == "flag" and t.text == "--dim1":
                stream.next()
                dim1 = True
            else:
                break
        return CheckDsimple(line, ring, tuple(ders), dim1)
    if what.text == "simple":
        return CheckSimple(line, _ident(stream))
    raise ParseError(f"unknown check {what.text!r}", what.line, what.col)


def _parse_inner_stmt(stream, line):
    expr = parse_expression(stream)
    return InnerCommand(line, expr, _opt_in_ring(stream))


def _parse_extend_stmt(stream, line):
    der = _ident(stream)
    stream.expect("ident", "into")
    ring = _ident(stream)
    return ExtendCommand(line, der, ring)


_STATEMENTS = {
    "ring": _parse_ring_stmt,
    "ideal": _parse_ideal_stmt,
    "quotient": _parse_quotient_stmt,
    "der": _parse_der_stmt,
    "skew": _parse_skew_stmt,
    "weyl": _parse_weyl_stmt,
    "let": _parse_let_stmt,
    "mul": _parse_mul_stmt,
    "apply": _parse_apply_stmt,
    "gb": _parse_gb_stmt,
    "member": _parse_member_stmt,
    "dim": _parse_dim_stmt,
    "certificate": _parse_certificate_stmt,
    "darboux": _parse_darboux_stmt,
    "check": _parse_check_stmt,
    "inner": _parse_inner_stmt,
    "extend": _parse_extend_stmt,
}
