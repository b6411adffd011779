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
    darboux EXPR bound N [in RING]
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

One recursive descent parses statements and expressions alike: each rule
takes the token list and an index and returns (value, index past it).  A
rule tells keywords and punctuation apart by their text alone, as no token
of another kind can have the text of an `op` token or of a keyword.

Tokens, expression nodes and statements are `typing.NamedTuple` records, and
every statement has its source `line` as the first field.  Like any tuple, a
record compares equal to a plain tuple of the same values, whatever its
class: tell statements apart by type, as `Session.execute` does.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple, Optional

from .errors import ParseError

# spaces and comments match no group and make no token; `bad` catches the
# first character no token starts with.  `--` right after an operand (a
# letter, digit, `_` or `)`) is two minus signs, so `x--y` is x - (-y).
_TOKEN_RE = re.compile(r"""
    [ \t]+
  | \#[^\n]*
  | (?P<newline>\n)
  | (?P<number>[0-9]+)
  | (?P<flag>(?<![A-Za-z0-9_)])--[A-Za-z][A-Za-z0-9_]*)
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


def _expect(tokens, i, kind, text=None):
    """The index past tokens[i], which must be a `kind` token (with `text`)."""
    t = tokens[i]
    if t.kind != kind or (text is not None and t.text != text):
        raise _expected(kind if text is None else text, t)
    return i + 1


def _ident(tokens, i):
    """(name, index past it) of the identifier at tokens[i]."""
    return tokens[i].text, _expect(tokens, i, "ident")


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
    statements = []
    i = 0
    while True:
        kind, word, line, col = tokens[i]
        if kind == "eof":
            return statements
        if kind == "newline":
            i += 1
            continue
        if kind != "ident":
            raise ParseError(f"expected a statement keyword, found {word!r}",
                             line, col)
        parse = _STATEMENTS.get(word)
        if parse is None:
            raise ParseError(f"unknown statement {word!r}", line, col)
        stmt, i = parse(tokens, i + 1, line)
        statements.append(stmt)
        t = tokens[i]
        if t.kind not in ("newline", "eof"):
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)


def _comma_list(tokens, i, item):
    """(tuple of items, index past them) of `item (, item)*`, each item
    parsed by `item(tokens, i) -> (value, i)`."""
    value, i = item(tokens, i)
    items = [value]
    while tokens[i][1] == ",":
        value, i = item(tokens, i + 1)
        items.append(value)
    return tuple(items), i


def _opt_in_ring(tokens, i):
    """(RING or None, index past it) of an optional `in RING`."""
    if tokens[i][1] == "in":
        return _ident(tokens, i + 1)
    return None, i


def _parse_ring_stmt(tokens, i, line):
    name, i = _ident(tokens, i)
    spec, i = _parse_field(tokens, _expect(tokens, i, "op", "="))
    variables, i = _comma_list(tokens, _expect(tokens, i, "op", "["), _ident)
    return DefineRing(line, name, spec, variables), _expect(tokens, i, "op", "]")


def _parse_field(tokens, i):
    t = tokens[i]
    i = _expect(tokens, i, "ident")
    if t.text == "QQ":
        return FieldDesignator(None), i
    if t.text == "GF":
        i = _expect(tokens, i, "op", "(")
        p = _number(tokens[i])
        return FieldDesignator(p), _expect(tokens, i + 1, "op", ")")
    raise ParseError(f"unknown field {t.text!r} (use QQ or GF(p))",
                     t.line, t.col)


def _parse_ideal_stmt(tokens, i, line):
    name, i = _ident(tokens, i)
    ring, i = _ident(tokens, _expect(tokens, i, "ident", "in"))
    gens, i = _comma_list(tokens, _expect(tokens, i, "op", ":"), _sum)
    return DefineIdeal(line, name, ring, gens), i


def _parse_quotient_stmt(tokens, i, line):
    name, i = _ident(tokens, i)
    ring, i = _ident(tokens, _expect(tokens, i, "op", "="))
    ideal, i = _ident(tokens, _expect(tokens, i, "op", "/"))
    return DefineQuotient(line, name, ring, ideal), i


def _parse_der_stmt(tokens, i, line):
    name, i = _ident(tokens, i)
    ring, i = _ident(tokens, _expect(tokens, i, "ident", "on"))
    assignments, i = _comma_list(tokens, _expect(tokens, i, "op", ":"),
                                 _assignment)
    return DefineDerivation(line, name, ring, assignments), i


def _assignment(tokens, i):
    """((var, expr), index past it) of `var -> EXPR`."""
    var, i = _ident(tokens, i)
    expr, i = _sum(tokens, _expect(tokens, i, "arrow"))
    return (var, expr), i


def _parse_skew_stmt(tokens, i, line):
    name, i = _ident(tokens, i)
    base, i = _ident(tokens, _expect(tokens, i, "op", "="))
    steps = []
    while tokens[i][1] == "[":
        var, i = _ident(tokens, i + 1)
        der, i = _ident(tokens, _expect(tokens, i, "op", ";"))
        steps.append((var, der))
        i = _expect(tokens, i, "op", "]")
    if not steps:
        t = tokens[i]
        raise ParseError("a skew ring needs at least one [var; derivation] step",
                         t.line, t.col)
    return DefineSkew(line, name, base, tuple(steps)), i


def _parse_weyl_stmt(tokens, i, line):
    n = _number(tokens[i])
    name, i = f"A{n}", i + 1
    if tokens[i][1] == "as":
        name, i = _ident(tokens, i + 1)
    return DefineWeyl(line, n, name), i


def _parse_let_stmt(tokens, i, line):
    name, i = _ident(tokens, i)
    expr, i = _sum(tokens, _expect(tokens, i, "op", "="))
    ring, i = _opt_in_ring(tokens, i)
    return LetElement(line, name, expr, ring), i


def _parse_expr_in_ring(record, tokens, i, line):
    """`EXPR [in RING]`, the statement of `mul`, `certificate` and `inner`."""
    expr, i = _sum(tokens, i)
    ring, i = _opt_in_ring(tokens, i)
    return record(line, expr, ring), i


def _parse_name(record, tokens, i, line):
    """`NAME`, the statement of `gb`, `dim` and `check simple`."""
    name, i = _ident(tokens, i)
    return record(line, name), i


def _parse_apply_stmt(tokens, i, line):
    der, i = _ident(tokens, i)
    expr, i = _sum(tokens, i)
    return ApplyCommand(line, der, expr), i


def _parse_member_stmt(tokens, i, line):
    expr, i = _sum(tokens, i)
    ideal, i = _ident(tokens, _expect(tokens, i, "ident", "in"))
    cofactors = tokens[i][1] == "with"
    if cofactors:
        i = _expect(tokens, i + 1, "ident", "cofactors")
    return MemberCommand(line, expr, ideal, cofactors), i


def _parse_darboux_stmt(tokens, i, line):
    expr, i = _sum(tokens, i)
    i = _expect(tokens, i, "ident", "bound")
    n = _number(tokens[i])
    ring, i = _opt_in_ring(tokens, i + 1)
    return DarbouxCommand(line, expr, n, ring), i


def _parse_check_stmt(tokens, i, line):
    t = tokens[i]
    what, i = _ident(tokens, i)
    if what == "commute":
        first, i = _ident(tokens, i)
        second, i = _ident(tokens, i)
        return CheckCommute(line, first, second), i
    if what == "simple":
        return _parse_name(CheckSimple, tokens, i, line)
    if what not in ("dideal", "dsimple"):
        raise ParseError(f"unknown check {what!r}", t.line, t.col)
    target, i = _ident(tokens, i)
    der, i = _ident(tokens, i)
    ders, dim1 = [der], False
    while True:     # D2 ...; only dsimple reads --dim1, anywhere after D1
        kind, text = tokens[i][:2]
        if kind == "ident":
            ders.append(text)
        elif text == "--dim1" and what == "dsimple":
            dim1 = True
        else:
            break
        i += 1
    if what == "dideal":
        return CheckDideal(line, target, tuple(ders)), i
    return CheckDsimple(line, target, tuple(ders), dim1), i


def _parse_extend_stmt(tokens, i, line):
    der, i = _ident(tokens, i)
    ring, i = _ident(tokens, _expect(tokens, i, "ident", "into"))
    return ExtendCommand(line, der, ring), i


# each parser takes (tokens, index past the keyword, line) and returns
# (record, index past the statement)
_STATEMENTS = {
    "ring": _parse_ring_stmt,
    "ideal": _parse_ideal_stmt,
    "quotient": _parse_quotient_stmt,
    "der": _parse_der_stmt,
    "skew": _parse_skew_stmt,
    "weyl": _parse_weyl_stmt,
    "let": _parse_let_stmt,
    "mul": partial(_parse_expr_in_ring, MulCommand),
    "apply": _parse_apply_stmt,
    "gb": partial(_parse_name, GbCommand),
    "member": _parse_member_stmt,
    "dim": partial(_parse_name, DimCommand),
    "certificate": partial(_parse_expr_in_ring, CertificateCommand),
    "darboux": _parse_darboux_stmt,
    "check": _parse_check_stmt,
    "inner": partial(_parse_expr_in_ring, InnerCommand),
    "extend": _parse_extend_stmt,
}
