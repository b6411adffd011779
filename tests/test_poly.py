"""Polynomial arithmetic, partials, substitution, term orders."""

import random
from fractions import Fraction

import pytest

from derivalg import (
    GF,
    QQ,
    ContextMismatchError,
    InexactDivisionError,
    Poly,
    TermOrder,
    VarContext,
    ZeroPolynomialError,
)
from derivalg.poly import det_fraction_free, exact_div

from conftest import rand_poly


def test_product_difference_of_squares(ctx_xy):
    x = ctx_xy.var(0)
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_power_makes_no_product_by_the_unit(ctx_xy, monkeypatch):
    # square-and-multiply from the exponent's lowest set bit: no product is
    # by the unit, so x^1 takes none and x^2 one
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    f = x - 2 * y + 1
    expected = [ctx_xy.one]
    for _ in range(12):
        expected.append(expected[-1] * f)
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for n, power in enumerate(expected):
        calls.clear()
        assert f ** n == power
        squarings = max(n.bit_length() - 1, 0)
        assert len(calls) == squarings + max(bin(n).count("1") - 1, 0)
    calls.clear()
    assert x ** 1 is x and not calls
    square = x ** 2
    assert len(calls) == 1 and square == Poly(ctx_xy, {(2, 0): 1})


def test_cancellation_removes_terms(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    s = (x ** 2 * y + y) + (-y)
    assert s == x ** 2 * y
    assert len(s) == 1


def test_char2_square_brute_force():
    # oracle: expand (x+1)*(x+1) by explicit term-by-term addition mod 2
    ctx = VarContext(("x",), GF(2))
    x = ctx.var(0)
    expanded = ctx.zero
    for a in (x, ctx.one):
        for b in (x, ctx.one):
            expanded = expanded + a * b
    assert expanded == x ** 2 + 1
    assert (x + 1) ** 2 == expanded


def test_partial_basic(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    assert (x ** 2 * y).partial(0) == 2 * x * y
    assert (x ** 2).partial(1) == ctx_xy.zero


def test_partial_char_p_kills_pth_powers():
    ctx = VarContext(("x",), GF(2))
    assert (ctx.var(0) ** 2).partial(0).is_zero()


def test_partial_bad_index(ctx_xy):
    with pytest.raises(IndexError):
        ctx_xy.one.partial(5)


def test_substitute_examples():
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    assert (x + 1).substitute({0: x ** 2}) == x ** 2 + 1
    assert (x ** 2).substitute({0: x + 1}) == x ** 2 + 2 * x + 1

    ctx2 = VarContext(("x", "y"), QQ)
    x2, y2 = ctx2.var(0), ctx2.var(1)
    assert (x2 ** 2 * y2).substitute({0: y2, 1: x2}) == y2 ** 2 * x2


def test_leading_term_orders(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    m, c = (x ** 2 * y + x * y ** 2).leading_term(TermOrder.LEX)
    assert m == (2, 1) and c == 1
    m, _ = (x + y ** 2).leading_term(TermOrder.LEX)
    assert m == (1, 0)
    m, _ = (x + y ** 2).leading_term(TermOrder.GREVLEX)
    assert m == (0, 2)
    with pytest.raises(ZeroPolynomialError):
        ctx_xy.zero.leading_term(TermOrder.LEX)


def test_context_mismatch_rejected(ctx_xy, ctx_xyz):
    with pytest.raises(ContextMismatchError):
        ctx_xy.var(0) + ctx_xyz.var(0)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_ring_axioms_random(field):
    ctx = VarContext(("x", "y"), field)
    rng = random.Random(42)
    for _ in range(60):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx)
        c = rand_poly(rng, ctx)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_leibniz_random(ctx_xy):
    rng = random.Random(99)
    for _ in range(60):
        f = rand_poly(rng, ctx_xy)
        g = rand_poly(rng, ctx_xy)
        for i in range(2):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_substitute_multiplicative_random(ctx_xy):
    rng = random.Random(7)
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    images = {0: x + y, 1: x * y - 1}

    def phi(f):
        return f.substitute(images)

    for _ in range(40):
        f = rand_poly(rng, ctx_xy)
        g = rand_poly(rng, ctx_xy)
        assert phi(f * g) == phi(f) * phi(g)
        assert phi(f + g) == phi(f) + phi(g)


def test_canonical_equality(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    a = x * y + 1
    b = 1 + y * x
    assert a == b and hash(a) == hash(b)
    assert a != x * y


def test_exact_division_roundtrip(ctx_xy):
    rng = random.Random(3)
    for _ in range(30):
        f = rand_poly(rng, ctx_xy, nonzero=True)
        g = rand_poly(rng, ctx_xy, nonzero=True)
        assert exact_div(f * g, g) == f


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(7)], ids=str)
def test_exact_div_refusals_and_non_monic_divisors(field):
    ctx = VarContext(("x", "y"), field)
    x, y = ctx.var(0), ctx.var(1)
    # the leading term x*y is divisible by x, the later term 1 is not
    with pytest.raises(InexactDivisionError) as info:
        exact_div(x * y + 1, x)
    assert str(info.value) == "(x) does not divide (x*y + 1)"
    f, g = x ** 2 + 5 * y, x * y - 2 * y + 1
    with pytest.raises(InexactDivisionError) as info:
        exact_div(f * g + x ** 9, g)
    assert str(info.value) == f"({g}) does not divide ({f * g + x ** 9})"
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        exact_div(f, ctx.zero)
    with pytest.raises(ContextMismatchError):
        exact_div(f, VarContext(("u", "v"), field).var(0))
    # non-monic divisors: a Fraction leading coefficient over QQ, 3 over F_p
    lc = Fraction(2, 3) if field.p is None else 3
    h = g.scale(lc)
    assert exact_div(f * h, h) == f
    assert exact_div(f * h, f.scale(lc)) == h.scale(Fraction(1) / lc)
    assert exact_div(ctx.zero, h).is_zero()


def test_determinant_vs_cofactor_expansion(ctx_xy):
    def cofactor_det(m, ctx):
        n = len(m)
        if n == 0:
            return ctx.one
        total = ctx.zero
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * cofactor_det(minor, ctx)
            total = total + (term if j % 2 == 0 else -term)
        return total

    for ctx in (ctx_xy, VarContext(("x", "y"), GF(7)),
                VarContext(("x", "y"), GF(32003))):
        rng = random.Random(5)
        for n in (2, 3):
            for _ in range(10):
                m = [[rand_poly(rng, ctx, max_degree=1, max_terms=2)
                      for _ in range(n)] for _ in range(n)]
                assert det_fraction_free(m, ctx) == cofactor_det(m, ctx)
        x, y, zero, one = ctx.var(0), ctx.var(1), ctx.zero, ctx.one
        assert det_fraction_free([], ctx) == cofactor_det([], ctx) == one
        zero_column = [[zero, x, one], [zero, y, x], [zero, one, y]]
        assert det_fraction_free(zero_column, ctx) == zero
        # zero pivots at steps 0 and 1, each cleared by a row swap
        for m in ([[zero, x], [y, one]],
                  [[zero, x, one], [zero, zero, y], [x + 1, one, zero]]):
            assert det_fraction_free(m, ctx) == cofactor_det(m, ctx)
        assert det_fraction_free([[zero, x], [y, one]], ctx) == -x * y


def test_zero_coefficients_never_stored(ctx_xy):
    x = ctx_xy.var(0)
    p = x - x
    assert p.is_zero() and len(p) == 0
    q = Poly(ctx_xy, {(1, 0): QQ.element(0), (0, 0): QQ.element(2)})
    assert len(q) == 1


def test_equality_with_foreign_values_is_false(ctx_xy):
    x = ctx_xy.var(0)
    z = VarContext(("z",), QQ).var(0)
    five = GF(5).element(1)
    assert not x == z and x != z
    assert z not in [x]
    assert not ctx_xy.one == five and ctx_xy.one != five
    assert five not in [ctx_xy.one] and ctx_xy.one not in [five]
    assert ctx_xy.one == QQ.element(1) and ctx_xy.one == 1
    assert GF(5).element(1) == VarContext(("z",), GF(5)).one


def test_equality_with_a_vanishing_denominator_is_false():
    # 1/5 is no element of GF(5): comparing with it answers False
    one = VarContext(("z",), GF(5)).one
    fifth = Fraction(1, 5)
    assert not one == fifth and one != fifth
    assert fifth not in [one] and one not in [fifth]
    assert not GF(5).element(1) == fifth and GF(5).element(1) != fifth
    assert one == Fraction(6, 1) and one == Fraction(1, 3) * 3
    assert VarContext(("z",), QQ).one != fifth
