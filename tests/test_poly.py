"""Polynomial arithmetic, partials, endomorphisms, term orders."""

import random

import pytest

from derivalg import (
    GF,
    QQ,
    ContextMismatchError,
    InjectivityStatus,
    Poly,
    RingEndomorphism,
    TermOrder,
    VarContext,
    ZeroPolynomialError,
    apply_endo,
)
from derivalg.poly import det_fraction_free, exact_div

from conftest import rand_poly


def test_product_difference_of_squares(ctx_xy):
    x = ctx_xy.var(0)
    assert (x + 1) * (x - 1) == x ** 2 - 1


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


def test_apply_endo_examples():
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    phi = RingEndomorphism(ctx, [x ** 2])
    assert apply_endo(phi, x + 1) == x ** 2 + 1

    ctx2 = VarContext(("x", "y"), QQ)
    x2, y2 = ctx2.var(0), ctx2.var(1)
    swap = RingEndomorphism(ctx2, [y2, x2])
    assert apply_endo(swap, x2 ** 2 * y2) == y2 ** 2 * x2

    shift = RingEndomorphism(ctx, [x + 1])
    assert apply_endo(shift, x ** 2) == x ** 2 + 2 * x + 1


def test_endo_injectivity_jacobian():
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    assert RingEndomorphism(ctx, [x ** 2]).injectivity() is InjectivityStatus.INJECTIVE

    ctx2 = VarContext(("x", "y"), QQ)
    x2 = ctx2.var(0)
    collapse = RingEndomorphism(ctx2, [x2, x2])
    assert collapse.injectivity() is InjectivityStatus.NOT_INJECTIVE

    ident = RingEndomorphism.identity(ctx2)
    assert ident.injectivity() is InjectivityStatus.INJECTIVE


def test_endo_injectivity_char_p():
    ctx = VarContext(("x", "y"), GF(3))
    x, y = ctx.var(0), ctx.var(1)
    assert RingEndomorphism(ctx, [y, x]).injectivity() is InjectivityStatus.INJECTIVE
    assert RingEndomorphism(ctx, [x ** 3, y]).injectivity() is InjectivityStatus.UNKNOWN
    assert RingEndomorphism(ctx, [x, x]).injectivity() is InjectivityStatus.NOT_INJECTIVE


def test_leading_term_orders(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    m, c = (x ** 2 * y + x * y ** 2).leading_term(TermOrder.LEX)
    assert m == (2, 1) and c.is_one()
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


def test_endo_multiplicative_random(ctx_xy):
    rng = random.Random(7)
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    phi = RingEndomorphism(ctx_xy, [x + y, x * y - 1])
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


def test_determinant_vs_cofactor_expansion(ctx_xy):
    rng = random.Random(5)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = ctx_xy.zero
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * cofactor_det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    for n in (2, 3):
        for _ in range(10):
            m = [[rand_poly(rng, ctx_xy, max_degree=1, max_terms=2)
                  for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(m, ctx_xy) == cofactor_det(m)


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
