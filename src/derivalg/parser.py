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
of another kind can have the text of an `op` token or of a keyword.  Most
statement rules are `_seq`s of texts and operand rules, so the tables at the
end of the module read like the grammar above.

Tokens and expression nodes are `typing.NamedTuple` records.  A statement is
one record, `Statement(line, kind, operands)`: its source line, its kind (the
keyword, or `check_<what>` for a check) and the tuple of values its rule
reads, which `Session.execute` passes to `Session._do_<kind>` after the line.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

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


def _expect(tokens, i, kind):
    """The index past tokens[i], which must be a `kind` token."""
    if tokens[i].kind != kind:
        raise _expected(kind, tokens[i])
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


class Statement(NamedTuple):
    line: int
    kind: str           # the keyword, or check_<what> for a check
    operands: tuple     # the values its rule reads, in source order


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
        if word == "check":
            t = tokens[i + 1]
            what, i = _ident(tokens, i + 1)
            word = "check_" + what
            rule = _CHECKS.get(word)
            if rule is None:
                raise ParseError(f"unknown check {what!r}", t.line, t.col)
        else:
            rule = _STATEMENTS.get(word)
            if rule is None:
                raise ParseError(f"unknown statement {word!r}", line, col)
            i += 1
        operands, i = rule(tokens, i)
        statements.append(_new(Statement, (line, word, operands)))
        t = tokens[i]
        if t.kind not in ("newline", "eof"):
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)


def _seq(*parts):
    """The rule that reads `parts` in turn: a string is the text of the
    keyword or punctuation that must come next, any other part a rule whose
    value is the next operand.  Its value is the tuple of the operands."""
    def rule(tokens, i):
        operands = []
        for part in parts:
            if part.__class__ is str:
                if tokens[i][1] != part:
                    raise _expected(part, tokens[i])
                i += 1
            else:
                value, i = part(tokens, i)
                operands.append(value)
        return tuple(operands), i
    return rule


def _comma_list(item):
    """The rule of `item (, item)*`, whose value is the tuple of the items."""
    def rule(tokens, i):
        value, i = item(tokens, i)
        items = [value]
        while tokens[i][1] == ",":
            value, i = item(tokens, i + 1)
            items.append(value)
        return tuple(items), i
    return rule


def _num(tokens, i):
    """(value, index past it) of the number at tokens[i]."""
    return _number(tokens[i]), i + 1


def _in_ring(tokens, i):
    """(RING or None, index past it) of an optional `in RING`."""
    if tokens[i][1] == "in":
        return _ident(tokens, i + 1)
    return None, i


_GF = _seq("(", _num, ")")


def _field(tokens, i):
    """(p, index past it) of `GF(p)`, or of `QQ` with p None."""
    t = tokens[i]
    if t.text == "QQ":
        return None, i + 1
    if t.text == "GF":
        (p,), i = _GF(tokens, i + 1)
        return p, i
    if t.kind != "ident":
        raise _expected("ident", t)
    raise ParseError(f"unknown field {t.text!r} (use QQ or GF(p))",
                     t.line, t.col)


def _assignment(tokens, i):
    """((var, expr), index past it) of `var -> EXPR`."""
    var, i = _ident(tokens, i)
    expr, i = _sum(tokens, _expect(tokens, i, "arrow"))
    return (var, expr), i


_STEP = _seq("[", _ident, ";", _ident, "]")


def _steps(tokens, i):
    """(((var, der), ...), index past them) of one or more `[var; der]`."""
    steps = []
    while tokens[i][1] == "[":
        step, i = _STEP(tokens, i)
        steps.append(step)
    if not steps:
        t = tokens[i]
        raise ParseError("a skew ring needs at least one [var; derivation] step",
                         t.line, t.col)
    return tuple(steps), i


def _weyl(tokens, i):
    """`N [as NAME]`; the name is AN without `as`."""
    n, i = _num(tokens, i)
    if tokens[i][1] != "as":
        return (n, f"A{n}"), i
    name, i = _ident(tokens, i + 1)
    return (n, name), i


def _cofactors(tokens, i):
    """(True, index past it) of `with cofactors`, or (False, i) without."""
    if tokens[i][1] != "with":
        return False, i
    if tokens[i + 1][1] != "cofactors":
        raise _expected("cofactors", tokens[i + 1])
    return True, i + 2


def _derivations(flag, tokens, i):
    """((NAME, (D1, D2, ...)), index past them) of `NAME D1 [D2 ...]`, the
    operands of `check dideal`.  Given a `flag`, which may stand anywhere
    after D1, whether it does is a third operand: `check dsimple`'s --dim1."""
    name, i = _ident(tokens, i)
    der, i = _ident(tokens, i)
    ders, flagged = [der], False
    while True:
        kind, text = tokens[i][:2]
        if kind == "ident":
            ders.append(text)
        elif text == flag:
            flagged = True
        else:
            break
        i += 1
    if flag is None:
        return (name, tuple(ders)), i
    return (name, tuple(ders), flagged), i


# each rule takes (tokens, index past the keyword) and returns (operands,
# index past the statement); the operands are what `Session._do_<kind>`
# takes after the line
_STATEMENTS = {
    "ring": _seq(_ident, "=", _field, "[", _comma_list(_ident), "]"),
    "ideal": _seq(_ident, "in", _ident, ":", _comma_list(_sum)),
    "quotient": _seq(_ident, "=", _ident, "/", _ident),
    "der": _seq(_ident, "on", _ident, ":", _comma_list(_assignment)),
    "skew": _seq(_ident, "=", _ident, _steps),
    "weyl": _weyl,
    "let": _seq(_ident, "=", _sum, _in_ring),
    "mul": _seq(_sum, _in_ring),
    "apply": _seq(_ident, _sum),
    "gb": _seq(_ident),
    "member": _seq(_sum, "in", _ident, _cofactors),
    "dim": _seq(_ident),
    "certificate": _seq(_sum, _in_ring),
    "darboux": _seq(_sum, "bound", _num, _in_ring),
    "inner": _seq(_sum, _in_ring),
    "extend": _seq(_ident, "into", _ident),
}

# the rules of `check <what>`, by kind; they are looked up only after
# `check`, so no kind of theirs is a keyword
_CHECKS = {
    "check_commute": _seq(_ident, _ident),
    "check_dideal": partial(_derivations, None),
    "check_dsimple": partial(_derivations, "--dim1"),
    "check_simple": _seq(_ident),
}
