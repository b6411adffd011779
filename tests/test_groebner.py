"""Groebner engine: bases, normal forms, membership, dimension, quotients.

Membership is cross-checked against an independent oracle that looks for
bounded-degree cofactors by exact linear algebra on coefficient vectors.
"""

import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivalg import (
    GF,
    QQ,
    BudgetExceededError,
    ContextMismatchError,
    GroebnerBasis,
    IdealHandle,
    Poly,
    QuotientRing,
    TermOrder,
    UnitIdealError,
    VarContext,
    buchberger,
    groebner_basis,
    is_unit_ideal,
    normal_form,
    normal_form_with_cofactors,
)

from derivalg import groebner
from derivalg.groebner import _divide, _Packer
from derivalg.poly import exact_div

from conftest import rand_poly


# tuple-monomial reference operations the packed engine is checked against
def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))


def monomial_divides(a, b):
    """True when a | b componentwise."""
    return all(map(operator.le, a, b))


def leading_monomial(f, order):
    return f.leading_term(order)[0]


# --------------------------------------------------------------------------
# independent membership oracle: bounded-degree cofactors via linear algebra
# --------------------------------------------------------------------------


def _monomials_up_to(nvars, degree):
    out = []
    for combo in itertools.product(range(degree + 1), repeat=nvars):
        if sum(combo) <= degree:
            out.append(combo)
    return out


def solve_linear(rows, rhs, field):
    """Consistency of A x = b over an exact field (Gaussian elimination).

    rows: list of {col: coeff} dicts.  Returns True iff a solution exists.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    used = set()
    for _ in range(len(rows)):
        pivot_row = None
        for i, row in enumerate(rows):
            if i in used:
                continue
            if row:
                pivot_row = i
                break
        if pivot_row is None:
            break
        used.add(pivot_row)
        col, coeff = next(iter(rows[pivot_row].items()))
        inv = coeff.inverse()
        rows[pivot_row] = {c: v * inv for c, v in rows[pivot_row].items()}
        rhs[pivot_row] = rhs[pivot_row] * inv
        for i, row in enumerate(rows):
            if i == pivot_row or col not in row:
                continue
            factor = row[col]
            for c, v in rows[pivot_row].items():
                nv = row.get(c, field.zero) - factor * v
                if nv.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = nv
            rhs[i] = rhs[i] - factor * rhs[pivot_row]
    for i, row in enumerate(rows):
        if not row and not rhs[i].is_zero():
            return False
    return True


def member_oracle(f, handle: IdealHandle) -> bool:
    """f in (g_1..g_m)? Search cofactors q_i with deg q_i <= bound.

    bound = deg f + max generator degree + 2, per the agreed test contract.
    """
    gens = handle.generators
    if not gens:
        return f.is_zero()
    ctx = handle.context
    field = ctx.field
    bound = max(f.total_degree(), 0) + max(g.total_degree() for g in gens) + 2
    cof_monos = _monomials_up_to(ctx.nvars, bound)
    columns = []
    for gi, g in enumerate(gens):
        for m in cof_monos:
            columns.append((gi, m))
    # rows indexed by target monomials: sum over columns == coeff of f
    row_map = {}
    for j, (gi, m) in enumerate(columns):
        for mg, cg in gens[gi].terms():
            target = tuple(a + b for a, b in zip(m, mg))
            row_map.setdefault(target, {})[j] = (
                row_map.get(target, {}).get(j, field.zero) + cg)
    targets = sorted(set(row_map) | {mono for mono, _ in f.terms()})
    rows = [row_map.get(t, {}) for t in targets]
    rhs = [f.coeff(t) for t in targets]
    return solve_linear(rows, rhs, field)


def _member(f, handle: IdealHandle) -> bool:
    """f in the ideal: its normal form modulo the reduced basis is zero."""
    return normal_form(f, groebner_basis(handle)).is_zero()


# --------------------------------------------------------------------------
# worked examples
# --------------------------------------------------------------------------


def test_buchberger_hand_run(ctx_xy):
    # S-poly of (xy - 1, y^2 - 1) is x - y, after which xy - 1 reduces away
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    basis = buchberger([x * y - 1, y ** 2 - 1], TermOrder.LEX)
    assert list(basis.polys) == [x - y, y ** 2 - 1]


def test_buchberger_single_generator(ctx_xy):
    x = ctx_xy.var(0)
    assert list(buchberger([x], TermOrder.LEX).polys) == [x]


def test_buchberger_unit(ctx_xy):
    x = ctx_xy.var(0)
    basis = buchberger([x, x + 1], TermOrder.LEX)
    assert basis.is_unit


def test_buchberger_deterministic(ctx_xyz):
    rng = random.Random(11)
    for _ in range(10):
        gens = [rand_poly(rng, ctx_xyz, nonzero=True) for _ in range(3)]
        b1 = buchberger(gens)
        b2 = buchberger(gens)
        assert b1 == b2


def test_normal_form_examples(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    basis = buchberger([x ** 2 + y ** 2 - 1], TermOrder.LEX)
    assert normal_form(x ** 2, basis) == 1 - y ** 2
    basis_x = buchberger([x], TermOrder.LEX)
    assert normal_form(x ** 2, basis_x).is_zero()
    assert normal_form(y, basis_x) == y


def test_hand_built_basis_is_made_monic():
    # the pseudo-division in _divide is exact only against monic divisors
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    basis = GroebnerBasis(ctx, TermOrder.GREVLEX, [2 * x - 1])
    assert basis.polys == (x - Fraction(1, 2),)
    assert normal_form(x, basis) == Fraction(1, 2)
    gf = VarContext(("x",), GF(7))
    assert GroebnerBasis(gf, TermOrder.GREVLEX, [3 * gf.var(0) + 1]).polys == (
        gf.var(0) + 5,)


def test_hand_built_basis_refuses_an_element_of_another_context():
    # packed against QQ[x, y], z would lose its exponent and read as 1, so
    # every normal form modulo {z} came out 0
    c2 = VarContext(("x", "y"), QQ)
    z = VarContext(("x", "y", "z"), QQ).var(2)
    with pytest.raises(ContextMismatchError, match="outside the context"):
        GroebnerBasis(c2, TermOrder.GREVLEX, [z])
    with pytest.raises(ContextMismatchError, match="outside the context"):
        GroebnerBasis(c2, TermOrder.LEX, [c2.var(0), z])


@pytest.mark.parametrize("order", ["lex", None, 3], ids=repr)
def test_a_term_order_must_be_a_term_order(order):
    # "lex" was taken for grevlex: the basis {x^2 - y, x*y - 1, -x + y^2}
    # came back labelled lex, and a hand-built basis failed later, in
    # normal_form, with an AttributeError
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    gens = [x * y - 1, y ** 2 - x]
    for build in (lambda: buchberger(gens, order),
                  lambda: groebner_basis(IdealHandle(ctx, gens), order),
                  lambda: QuotientRing.of(IdealHandle(ctx, gens), order),
                  lambda: GroebnerBasis(ctx, order, [x]),
                  lambda: groebner_basis(IdealHandle(ctx, []), order)):
        with pytest.raises(TypeError, match="not a term order"):
            build()
    assert buchberger(gens, TermOrder.LEX).polys == (x - y ** 2, y ** 3 - 1)


def test_normal_form_linearity(ctx_xy):
    rng = random.Random(23)
    gens = [rand_poly(rng, ctx_xy, nonzero=True) for _ in range(2)]
    basis = buchberger(gens)
    for _ in range(30):
        f = rand_poly(rng, ctx_xy)
        g = rand_poly(rng, ctx_xy)
        assert normal_form(f + g, basis) == normal_form(f, basis) + normal_form(g, basis)


def test_normal_form_cofactors_reconstruct(ctx_xyz):
    rng = random.Random(31)
    for _ in range(15):
        gens = [rand_poly(rng, ctx_xyz, nonzero=True) for _ in range(2)]
        basis = buchberger(gens)
        f = rand_poly(rng, ctx_xyz)
        r, cof = normal_form_with_cofactors(f, basis)
        rebuilt = r
        for q, g in zip(cof, basis.polys):
            rebuilt = rebuilt + q * g
        assert rebuilt == f


def test_ideal_member_examples(ctx_xy):
    x = ctx_xy.var(0)
    I = IdealHandle(ctx_xy, [x])
    assert _member(x ** 2, I)
    assert not _member(x + 1, I)


def test_ideal_member_char2():
    ctx = VarContext(("x",), GF(2))
    x = ctx.var(0)
    I = IdealHandle(ctx, [x ** 2])
    assert _member(2 * x, I)  # 2x = 0 in characteristic 2


def test_unit_ideal_examples():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    circle = x1 ** 2 + x2 ** 2 - 1
    assert is_unit_ideal(IdealHandle(ctx, [-x2, x1, circle]))
    # witness replay: 1 = x1*x1 + (-x2)*(-x2) - circle
    assert x1 * x1 + (-x2) * (-x2) - circle == ctx.one
    assert not is_unit_ideal(IdealHandle(ctx, [x1, x2]))
    assert not is_unit_ideal(IdealHandle(ctx, [x2, circle]))


def test_krull_dimension_examples(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ctx12 = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx12.var(0), ctx12.var(1)
    for handle, dim in ((IdealHandle(ctx_xy, []), 2),
                        (IdealHandle(ctx12, [x1 ** 2 + x2 ** 2 - 1]), 1),
                        (IdealHandle(ctx_xy, [x * y]), 1)):
        assert QuotientRing.of(handle).dimension() == dim
    with pytest.raises(UnitIdealError):
        QuotientRing.of(IdealHandle(ctx_xy, [ctx_xy.one]))


def test_krull_dimension_order_independent(ctx_xy, ctx_xyz):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    sx, sy, sz = (ctx_xyz.var(i) for i in range(3))
    fixed = [
        IdealHandle(ctx_xy, []),
        IdealHandle(ctx_xy, [x * y]),
        IdealHandle(ctx_xy, [x ** 2 + y ** 2 - 1]),
        IdealHandle(ctx_xy, [x, y]),
        IdealHandle(ctx_xyz, [sx ** 2 + sy ** 2 + sz ** 2 - 1]),
        IdealHandle(ctx_xyz, [sx * sy, sy * sz]),
    ]
    for handle in fixed:
        assert len({QuotientRing.of(handle, order).dimension()
                    for order in TermOrder}) == 1


def test_quotient_reduce_examples(ctx_xyz):
    sx, sy, sz = (ctx_xyz.var(i) for i in range(3))
    sphere = QuotientRing.of(IdealHandle(ctx_xyz, [sx ** 2 + sy ** 2 + sz ** 2 - 1]))
    assert sphere.reduce(sx ** 2 + sy ** 2 + sz ** 2) == ctx_xyz.one

    ctx12 = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx12.var(0), ctx12.var(1)
    circle = QuotientRing.of(IdealHandle(ctx12, [x1 ** 2 + x2 ** 2 - 1]))
    assert circle.reduce(x1 ** 2) == 1 - x2 ** 2
    already = circle.reduce(x1 * x2 + 3)
    assert circle.reduce(already) == already
    # a polynomial ring needs no reduction: reduce hands back f itself
    assert QuotientRing.trivial(ctx12).reduce(already) is already


def test_quotient_rejects_unit_ideal(ctx_xy):
    with pytest.raises(UnitIdealError):
        QuotientRing.of(IdealHandle(ctx_xy, [ctx_xy.one]))


def test_budget_exhaustion_reported(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    with pytest.raises(BudgetExceededError):
        buchberger([x * y - 1, y ** 2 - 1], TermOrder.LEX, budget=0)


def _katsura3(field):
    ctx = VarContext(("u0", "u1", "u2", "u3"), field)
    u0, u1, u2, u3 = (ctx.var(i) for i in range(4))
    return [u0 + 2 * u1 + 2 * u2 + 2 * u3 - 1,
            u0 ** 2 - u0 + 2 * u1 ** 2 + 2 * u2 ** 2 + 2 * u3 ** 2,
            2 * u0 * u1 + 2 * u1 * u2 - u1 + 2 * u2 * u3,
            2 * u0 * u2 + u1 ** 2 + 2 * u1 * u3 - u2]


def _katsura4(field):
    ctx = VarContext(("u0", "u1", "u2", "u3", "u4"), field)
    u0, u1, u2, u3, u4 = (ctx.var(i) for i in range(5))
    return [u0 + 2 * u1 + 2 * u2 + 2 * u3 + 2 * u4 - 1,
            u0 ** 2 - u0 + 2 * u1 ** 2 + 2 * u2 ** 2 + 2 * u3 ** 2
            + 2 * u4 ** 2,
            2 * u0 * u1 + 2 * u1 * u2 - u1 + 2 * u2 * u3 + 2 * u3 * u4,
            2 * u0 * u2 + u1 ** 2 + 2 * u1 * u3 + 2 * u2 * u4 - u2,
            2 * u0 * u3 + 2 * u1 * u2 + 2 * u1 * u4 - u3]


def _cyclic4(field):
    ctx = VarContext(("u0", "u1", "u2", "u3"), field)
    u0, u1, u2, u3 = (ctx.var(i) for i in range(4))
    return [u0 + u1 + u2 + u3,
            u0 * u1 + u1 * u2 + u2 * u3 + u3 * u0,
            u0 * u1 * u2 + u1 * u2 * u3 + u2 * u3 * u0 + u3 * u0 * u1,
            u0 * u1 * u2 * u3 - 1]


def _three_generators(field):
    # skipping a J-pair whose signature another pair shares, instead of
    # reducing the rewriter multiple, gives a wrong grevlex basis here
    ctx = VarContext(("x", "y", "z", "w"), field)
    x, y, z, w = (ctx.var(i) for i in range(4))
    return [y ** 3 * z ** 3 * w ** 3, 4 * x ** 2 + y * z ** 3 * w,
            4 * x ** 3 * y * z ** 2 * w ** 2 + 3 * y ** 2]


def _buchberger_reductions(monkeypatch):
    """Count the `_divide` calls that `buchberger` itself makes: all of
    them, those that reduce a rewriter multiple (the ones with a signature
    filter), and those that end at zero."""
    counts = {"all": 0, "rewriter": 0, "zero": 0}
    divide = groebner._divide

    def counting(*args, **kwargs):
        result = divide(*args, **kwargs)
        if sys._getframe(1).f_code.co_name == "buchberger":
            counts["all"] += 1
            counts["rewriter"] += kwargs.get("signature") is not None
            counts["zero"] += result[0].is_zero()
        return result

    monkeypatch.setattr(groebner, "_divide", counting)
    return counts


@pytest.mark.parametrize("system, field, order, steps", [
    (_katsura3, QQ, TermOrder.GREVLEX, 4),
    (_katsura3, QQ, TermOrder.LEX, 17),
    (_cyclic4, QQ, TermOrder.GREVLEX, 4),
    (_cyclic4, QQ, TermOrder.LEX, 5),
    (_katsura4, QQ, TermOrder.GREVLEX, 11),
    (_katsura4, GF(32003), TermOrder.GREVLEX, 11),
], ids=["katsura3-grevlex", "katsura3-lex", "cyclic4-grevlex", "cyclic4-lex",
        "katsura4-grevlex", "katsura4-grevlex-gf32003"])
def test_budget_pins_s_polynomial_path(system, field, order, steps,
                                       monkeypatch):
    # the budget counts the rewriter multiples reduced, so the smallest
    # budget that succeeds pins them: the signature order and the criteria
    gens = system(field)
    with pytest.raises(BudgetExceededError):
        buchberger(gens, order, budget=steps - 1)
    counts = _buchberger_reductions(monkeypatch)
    assert not buchberger(gens, order, budget=steps).is_unit
    assert counts["rewriter"] == steps


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)],
                         ids=["QQ", "GF5", "GF32003"])
def test_rewriter_multiple_basis_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    gens = _three_generators(field)
    assert (_monic_terms(sympy, buchberger(gens).polys, field)
            == _sympy_reduced(sympy, gens, "grevlex", field))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_katsura4_reduces_no_pair_to_zero(field, monkeypatch):
    counts = _buchberger_reductions(monkeypatch)
    buchberger(_katsura4(field))
    assert counts["all"] and counts["zero"] == 0


@pytest.mark.parametrize("order", list(TermOrder), ids=lambda o: o.value)
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("system", [_katsura3, _katsura4, _cyclic4],
                         ids=["katsura3", "katsura4", "cyclic4"])
def test_generator_order_and_scaling_change_nothing(system, field, order,
                                                    monkeypatch):
    # the inputs are sorted by leading monomial, so every rotation and
    # rescaling of the list takes the same path: the same basis and the
    # same number of rewriter multiples reduced
    sympy = pytest.importorskip("sympy")
    gens = system(field)
    counts = _buchberger_reductions(monkeypatch)
    basis = buchberger(gens, order)
    steps = counts["rewriter"]
    if system is _katsura4 and order is TermOrder.LEX:
        # too slow for sympy: check it against the grevlex basis instead
        _assert_same_ideal_and_lex_groebner(basis, buchberger(gens))
    else:
        assert (_monic_terms(sympy, basis.polys, field)
                == _sympy_reduced(sympy, gens, order.value, field))
    rng = random.Random(17)
    for shift in range(len(gens)):
        rotated = [g.scale(rng.choice([-1, 1]) * rng.randint(1, 97))
                   for g in gens[shift:] + gens[:shift]]
        counts["rewriter"] = 0
        assert buchberger(rotated, order) == basis
        assert counts["rewriter"] == steps


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("system, order", [
    # a new element, a new signature (in either order) and a rewriter
    # multiple that each outgrow the fields of the keys so far
    (lambda x, y: [x ** 4 * y + x * y ** 4,
                   x ** 3 * y ** 4 + 2 * x ** 2 * y ** 2], TermOrder.LEX),
    (lambda x, y: [2 * x ** 2 + x * y ** 4, 2 * x ** 2 * y ** 4 + 2 * y],
     TermOrder.LEX),
    (lambda x, y: [2 * x ** 4 * y ** 3, 2 * x ** 4 + x * y ** 4 + y ** 2],
     TermOrder.GREVLEX),
    (lambda x, y: [2 * x ** 4 * y ** 3 + x ** 2, x ** 3 - y ** 3],
     TermOrder.LEX),
], ids=["lex-element", "lex-signature", "grevlex-signature", "lex-multiple"])
def test_signature_keys_widen_and_match_sympy(system, order, field,
                                              monkeypatch):
    sympy = pytest.importorskip("sympy")
    ctx = VarContext(("x", "y"), field)
    gens = system(ctx.var(0), ctx.var(1))
    widened = []
    packing = groebner._packing

    def counting(*args, **kwargs):
        widened.append(sys._getframe(1).f_code.co_name == "widen")
        return packing(*args, **kwargs)

    monkeypatch.setattr(groebner, "_packing", counting)
    basis = buchberger(gens, order)
    assert any(widened)
    assert (_monic_terms(sympy, basis.polys, field)
            == _sympy_reduced(sympy, gens, order.value, field))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("system, order, steps", [
    # the systems of test_signature_keys_widen_and_match_sympy, and one
    # whose rewriter multiple outgrows the fields before it is divided, each
    # with the number of rewriter multiples it reduces; lex-multiple
    # divides one of them again after a key outgrows the fields mid-division
    (lambda x, y: [x ** 4 * y + x * y ** 4,
                   x ** 3 * y ** 4 + 2 * x ** 2 * y ** 2], TermOrder.LEX, 4),
    (lambda x, y: [2 * x ** 2 + x * y ** 4, 2 * x ** 2 * y ** 4 + 2 * y],
     TermOrder.LEX, 2),
    (lambda x, y: [2 * x ** 4 * y ** 3, 2 * x ** 4 + x * y ** 4 + y ** 2],
     TermOrder.GREVLEX, 5),
    (lambda x, y: [2 * x ** 4 * y ** 3 + x ** 2, x ** 3 - y ** 3],
     TermOrder.LEX, 3),
    (lambda x, y: [x ** 2 * y + 2 * y ** 4,
                   x ** 3 * y ** 4 + 2 * x ** 2 * y ** 2 + 3 * x * y],
     TermOrder.LEX, 4),
], ids=["lex-element", "lex-signature", "grevlex-signature", "lex-multiple",
        "lex-multiple-undivided"])
def test_widening_retry_costs_one_budget_step(system, order, steps, field):
    sympy = pytest.importorskip("sympy")
    ctx = VarContext(("x", "y"), field)
    gens = system(ctx.var(0), ctx.var(1))
    basis = buchberger(gens, order, budget=steps)
    assert (_monic_terms(sympy, basis.polys, field)
            == _sympy_reduced(sympy, gens, order.value, field))
    with pytest.raises(BudgetExceededError):
        buchberger(gens, order, budget=steps - 1)


def _monic_terms(sympy, polys, field):
    """The polynomials as a set of sorted (monomial, coefficient) tuples,
    coefficients as sympy Rationals or residues."""
    if field.p is None:
        return {tuple(sorted((m, sympy.Rational(c.numerator, c.denominator))
                             for m, c in g.terms())) for g in polys}
    return {tuple(sorted((m, c.value) for m, c in g.terms())) for g in polys}


def _sympy_reduced(sympy, gens, order, field):
    """sympy's reduced basis of `gens`, made monic, in `_monic_terms` form."""
    ctx = gens[0].context
    syms = sympy.symbols(ctx.names)
    options = {} if field.p is None else {"modulus": field.p}
    exprs = [sympy.Poly.from_dict({m: int(c.value) if field.p else
                                   sympy.Rational(c.numerator, c.denominator)
                                   for m, c in g.terms()}, *syms).as_expr()
             for g in gens]
    out = set()
    for e in sympy.groebner(exprs, *syms, order=order, **options).exprs:
        poly = sympy.Poly(e, *syms, **options)
        if field.p is None:
            lc = poly.LC(order=order)
            out.add(tuple(sorted((m, sympy.Rational(c) / lc)
                                 for m, c in poly.terms())))
        else:
            inverse = pow(int(poly.LC(order=order)) % field.p, -1, field.p)
            out.add(tuple(sorted((m, int(c) * inverse % field.p)
                                 for m, c in poly.terms())))
    return out


def _assert_same_ideal_and_lex_groebner(lex, grevlex):
    """lex is a lex Groebner basis of the ideal that grevlex is a basis of:
    each basis reduces the other to zero, and every S-polynomial of lex
    reduces to zero modulo lex (Buchberger's criterion)."""
    assert all(normal_form(g, grevlex).is_zero() for g in lex.polys)
    assert all(normal_form(g, lex).is_zero() for g in grevlex.polys)
    for f, g in itertools.combinations(lex.polys, 2):
        mf, mg = leading_monomial(f, lex.order), leading_monomial(g, lex.order)
        lcm = tuple(map(max, mf, mg))
        uf = Poly(f.context, {tuple(a - b for a, b in zip(lcm, mf)): 1})
        ug = Poly(f.context, {tuple(a - b for a, b in zip(lcm, mg)): 1})
        assert normal_form(uf * f - ug * g, lex).is_zero()


@st.composite
def _division_problems(draw, fields=(QQ, GF(32003))):
    """(reduced basis of a small random ideal, dividend) over one of the
    fields."""
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(1, 3))
    ctx = VarContext(tuple("xyz"[:nvars]), field)
    monomials = st.sampled_from(
        [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3])

    def polys(coefficients, max_terms):
        terms = st.dictionaries(monomials, coefficients,
                                min_size=1, max_size=max_terms)
        return terms.map(lambda t: Poly(ctx, t))

    nonzero = st.sampled_from([c for c in range(-5, 6) if c])
    gens = draw(st.lists(polys(nonzero, 3), min_size=1, max_size=3))
    order = draw(st.sampled_from(list(TermOrder)))
    return buchberger(gens, order), draw(polys(st.integers(-5, 5), 5))


@settings(max_examples=100, deadline=None)
@given(_division_problems())
def test_division_property(problem):
    basis, f = problem
    r, cofactors = normal_form_with_cofactors(f, basis)
    assert len(cofactors) == len(basis)
    rebuilt = r
    for q, g in zip(cofactors, basis.polys):
        rebuilt = rebuilt + q * g
    assert rebuilt == f
    for mono, _ in r.terms():
        assert not any(monomial_divides(lead, mono)
                       for lead in basis.leading_monomials())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_division_problems(fields=(QQ, GF(7))), st.booleans())
def test_normal_form_without_division_is_the_division(problem, zero):
    # a normal form that no leading monomial divides a term of skips
    # _divide: it must give what _divide gives, and give f itself
    basis, f = problem
    if zero:
        f = f.context.zero
    reduced = normal_form(f, basis)
    for g in (f, reduced):
        r, cofactors = _packed_division(g, basis.polys, basis.order, True)
        assert normal_form(g, basis) == r
        assert normal_form_with_cofactors(g, basis) == (r, cofactors)
    assert normal_form(reduced, basis) is reduced
    assert normal_form_with_cofactors(reduced, basis)[0] is reduced
    with mock.patch.object(groebner, "_divide", side_effect=AssertionError):
        assert normal_form(reduced, basis) is reduced
        assert normal_form_with_cofactors(reduced, basis) == (
            reduced, [f.context.zero] * len(basis))


def test_division_cofactors_golden():
    # `member --cofactors` prints these; the division order fixes them
    ctx = VarContext(("x", "y", "z"), QQ)
    x, y, z = (ctx.var(i) for i in range(3))
    gens = [x * y - z ** 2, y * z - x ** 2 + y, x * z - y ** 2 + 1]
    f = x ** 3 * y ** 2 * z + 3 * x ** 2 * y ** 2 - y * z ** 2 + 5
    expected = {
        TermOrder.GREVLEX: (
            ["-x + y + z^3", "x^2 + x - y", "x*y - z^2", "y^2 + z",
             "x*z + z + 1", "x + y*z"],
            "2*x + z^2 - z + 3",
            ["y^2 + y", "x*y^2*z - y^2*z + 3*y^2", "y^2*z + y*z - 2*y + 1",
             "-y*z + 2*y - 1", "2", "-2*z - 2"]),
        TermOrder.LEX: (
            ["x - z^4 - z - 1", "y - z^4 + z^3 - z - 1",
             "z^5 + z^2 + 2*z + 1"],
            "2*z^4 + z^2 + z + 5",
            ["x^2*y^2*z + x*y^2*z^5 + x*y^2*z^2 + x*y^2*z + 3*x*y^2"
             " + y^2*z^9 + 2*y^2*z^6 + 2*y^2*z^5 + 3*y^2*z^4 + y^2*z^3"
             " + 2*y^2*z^2 + 4*y^2*z + 3*y^2",
             "y*z^13 + 3*y*z^10 + 3*y*z^9 + 3*y*z^8 + 3*y*z^7 + 6*y*z^6"
             " + 9*y*z^5 + 7*y*z^4 + 3*y*z^3 + 6*y*z^2 + 7*y*z + 3*y + z^17"
             " - z^16 + 4*z^14 + z^13 + 3*z^11 + 9*z^10 + 9*z^9 + 4*z^8"
             " + 5*z^7 + 18*z^6 + 17*z^5 + 6*z^4 + 6*z^3 + 12*z^2 + 10*z + 3",
             "z^16 - 2*z^15 + z^14 + 4*z^13 - 3*z^12 + 3*z^10 + 5*z^9 + 3*z^8"
             " - 2*z^7 + 2*z^6 + 15*z^5 + 3*z^4 - 3*z^3 + 6*z^2 + 6*z + 3"]),
    }
    for order, (polys, remainder, cofactors) in expected.items():
        basis = buchberger(gens, order)
        assert [str(g) for g in basis.polys] == polys
        r, q = normal_form_with_cofactors(f, basis)
        assert str(r) == remainder
        assert [str(c) for c in q] == cofactors


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(2024)
    agree = 0
    for _ in range(25):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), QQ)
        gens = [rand_poly(rng, ctx, max_degree=rng.randint(1, 3),
                          max_terms=3, nonzero=True)
                for _ in range(rng.randint(1, 2))]
        handle = IdealHandle(ctx, gens)
        # one likely member (an explicit combination), one random probe
        combo = ctx.zero
        for g in gens:
            combo = combo + rand_poly(rng, ctx, max_degree=1, max_terms=2) * g
        probes = [combo, rand_poly(rng, ctx, max_degree=3, max_terms=3)]
        for f in probes:
            assert _member(f, handle) == member_oracle(f, handle)
            agree += 1
    assert agree == 50


def test_membership_oracle_gf5():
    rng = random.Random(77)
    ctx = VarContext(("x", "y"), GF(5))
    for _ in range(10):
        gens = [rand_poly(rng, ctx, max_degree=2, max_terms=3, nonzero=True)]
        handle = IdealHandle(ctx, gens)
        f = rand_poly(rng, ctx, max_degree=3, max_terms=3)
        assert _member(f, handle) == member_oracle(f, handle)


def test_zero_ideal_basis_empty(ctx_xy):
    basis = groebner_basis(IdealHandle(ctx_xy, []))
    assert len(basis) == 0
    assert normal_form(ctx_xy.var(0), basis) == ctx_xy.var(0)


def test_reduced_basis_structural_invariants():
    # basis elements are monic and no leading monomial divides any term
    # of another element
    rng = random.Random(1234)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), QQ)
        gens = [rand_poly(rng, ctx, max_degree=3, max_terms=3, nonzero=True)
                for _ in range(rng.randint(1, 3))]
        for order in (TermOrder.LEX, TermOrder.GREVLEX):
            basis = buchberger(gens, order)
            leads = [leading_monomial(g, order) for g in basis.polys]
            for i, g in enumerate(basis.polys):
                assert g.leading_term(order)[1] == 1
                for j, lead in enumerate(leads):
                    if i == j:
                        continue
                    for mono, _ in g.terms():
                        assert not monomial_divides(lead, mono)


def test_reduced_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    modulus = 32003
    rng = random.Random(424242)
    for trial in range(20):
        nvars = rng.randint(1, 3)
        names = tuple("xyz"[:nvars])
        ctx = VarContext(names, QQ)
        ctx_p = VarContext(names, GF(modulus))
        syms = sympy.symbols(" ".join(names))
        if nvars == 1:
            syms = (syms,)
        gens = [rand_poly(rng, ctx, max_degree=rng.randint(1, 3), max_terms=3,
                          nonzero=True) for _ in range(rng.randint(1, 3))]
        gens_p = [Poly(ctx_p, {m: c.numerator for m, c in g.terms()})
                  for g in gens]

        def to_sympy(p):
            expr = sympy.Integer(0)
            for mono, coeff in p.terms():
                term = sympy.Rational(coeff.numerator, coeff.denominator)
                for s, e in zip(syms, mono):
                    term *= s ** e
                expr += term
            return expr

        def monic_terms_mod_p(e, sympy_order):
            # the sympy element as a {monomial: residue} map scaled to LC 1
            poly = sympy.Poly(e, *syms, modulus=modulus)
            lc = int(poly.LC(order=sympy_order)) % modulus
            inverse = pow(lc, -1, modulus)
            return {m: int(c) * inverse % modulus for m, c in poly.terms()}

        for mine_order, sympy_order in ((TermOrder.LEX, "lex"),
                                        (TermOrder.GREVLEX, "grevlex")):
            mine = buchberger(gens, mine_order)
            reference = sympy.groebner([to_sympy(g) for g in gens], *syms,
                                       order=sympy_order)

            def monic(e):
                lc = sympy.Poly(e, *syms).LC(order=sympy_order)
                return sympy.expand(e / lc)

            assert (sorted(str(monic(e)) for e in reference.exprs)
                    == sorted(str(sympy.expand(to_sympy(g))) for g in mine.polys))

            mine_p = buchberger(gens_p, mine_order)
            reference_p = sympy.groebner([to_sympy(g) for g in gens], *syms,
                                         order=sympy_order, modulus=modulus)
            assert (sorted(sorted(monic_terms_mod_p(e, sympy_order).items())
                           for e in reference_p.exprs)
                    == sorted(sorted((m, c.value) for m, c in g.terms())
                              for g in mine_p.polys))


# --------------------------------------------------------------------------
# the fraction-free QQ path: inputs it must normalise, the _divide contract
# --------------------------------------------------------------------------


def _rational_poly(rng, ctx):
    """A nonzero polynomial with small Fraction coefficients of either sign."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * ctx.nvars
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(ctx.nvars)] += 1
            terms[tuple(mono)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                          rng.randint(1, 6))
        p = Poly(ctx, terms)
        if not p.is_zero():
            return p


def test_reduced_basis_matches_sympy_on_rational_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8080)
    negative_leads = fractional = 0
    for trial in range(20):
        nvars = rng.randint(1, 3)
        names = tuple("xyz"[:nvars])
        ctx = VarContext(names, QQ)
        syms = sympy.symbols(names)
        gens = [_rational_poly(rng, ctx) for _ in range(rng.randint(1, 3))]

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.prod(s ** e for s, e in zip(syms, m))
                        for m, c in p.terms()), sympy.Integer(0))

        fractional += any(c.denominator != 1
                          for g in gens for c in g._terms.values())
        for mine_order, sympy_order in ((TermOrder.LEX, "lex"),
                                        (TermOrder.GREVLEX, "grevlex")):
            negative_leads += sum(g._lead(mine_order)[1] < 0 for g in gens)
            mine = buchberger(gens, mine_order)
            reference = sympy.groebner([to_sympy(g) for g in gens], *syms,
                                       order=sympy_order)
            expected = sorted(
                str(sympy.expand(e / sympy.Poly(e, *syms).LC(order=sympy_order)))
                for e in reference.exprs)
            assert expected == sorted(str(sympy.expand(to_sympy(g)))
                                      for g in mine.polys)
    assert negative_leads and fractional


def test_buchberger_invariant_under_rational_rescaling():
    rng = random.Random(5150)
    for trial in range(20):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), QQ)
        gens = [rand_poly(rng, ctx, max_degree=3, max_terms=3, nonzero=True)
                for _ in range(rng.randint(1, 3))]
        scaled = [g.scale(Fraction(rng.choice([-1, 1]) * rng.randint(1, 50),
                                   rng.randint(1, 50))) for g in gens]
        for order in TermOrder:
            assert buchberger(scaled, order) == buchberger(gens, order)


def test_associate_generators_deduplicate(ctx_xyz):
    x, y, z = (ctx_xyz.var(i) for i in range(3))
    g = 2 * x ** 2 * y - 3 * y * z + 4
    h = x * z - y ** 2
    for order in TermOrder:
        # one element, so no pair: a duplicate would spend a step
        single = buchberger([g, g.scale(Fraction(-3, 7))], order, budget=0)
        assert single == buchberger([g], order)
        assert len(single) == 1
        assert (buchberger([g.scale(Fraction(5, 2)), h, -g], order)
                == buchberger([g, h], order))


def _packed_division(f, divisors, order, want_cofactors=False):
    """`_divide` of f by the divisors, packed by `_packing` with fields up
    to 255, and the remainder and cofactors unpacked."""
    packer, records = groebner._packing(f.context, divisors, order, 64)
    r, quotients = _divide(packer.packed(f), packer, records, want_cofactors)

    def unpacked(terms):
        return Poly._raw(f.context,
                         {packer.unpack(k): c for k, c in terms.items()})

    return unpacked(r), (quotients if quotients is None
                          else [unpacked(q) for q in quotients])


def test_divide_pseudo_remainder_against_non_monic_divisors():
    # over QQ an integer dividend stays integral against integer divisors;
    # the remainder is lam times the one against the monic divisors, and
    # the cofactors rebuild lam*f, for one nonzero rational lam
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    # x^2 passes to the remainder, then y meets LC 2 and doubles it
    r, _ = _packed_division(x ** 2 + y, [2 * y + 1], TermOrder.LEX)
    assert r == 2 * x ** 2 - 1
    assert all(type(c) is int for c in r._terms.values())
    rng = random.Random(2718)
    pseudo = 0
    for trial in range(40):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), QQ)
        divisors = [rand_poly(rng, ctx, max_degree=2, max_terms=3, coeff_lo=-9,
                              coeff_hi=9, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
        f = rand_poly(rng, ctx, max_degree=4, max_terms=6, coeff_lo=-9,
                      coeff_hi=9, nonzero=True)
        for order in TermOrder:
            r, cofactors = _packed_division(f, divisors, order, True)
            exact = normal_form(f, GroebnerBasis(ctx, order, divisors))
            rebuilt = r
            for q, g in zip(cofactors, divisors):
                rebuilt = rebuilt + q * g
            m, c = f._lead(order)
            lam = Fraction(rebuilt._terms[m]) / c
            assert lam != 0
            assert rebuilt == f.scale(lam)
            assert r == exact.scale(lam)
            assert all(type(c) is int for c in r._terms.values())
            pseudo += lam != 1
    assert pseudo


def _reference_remainder(f, divisors, order):
    """Tuple-keyed division of f, term by term from the top, each term
    cancelled by the first divisor whose leading monomial divides it; a
    leading coefficient lc other than 1 (integral, over QQ) pseudo-divides:
    c*m scales what is left of f, and the remainder so far, by lc/gcd(c, lc)."""
    field = f.context.field
    leads = [g._lead(order) for g in divisors]
    left = {m: Fraction(c) for m, c in f._terms.items()}
    remainder = {}
    while left:
        m = max(left, key=order.key)
        c = left.pop(m)
        if not c:
            continue
        for g, (lm, lc) in zip(divisors, leads):
            if monomial_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        if lc != 1:
            scale = lc // math.gcd(int(c), lc)
            c = c * scale / lc
            left = {k: v * scale for k, v in left.items()}
            remainder = {k: v * scale for k, v in remainder.items()}
        u = tuple(a - b for a, b in zip(m, lm))
        for k, v in g._terms.items():
            if k != lm:
                key = monomial_mul(u, k)
                left[key] = left.get(key, 0) - c * v
        if field.p is not None:
            left = {k: v % field.p for k, v in left.items()}
    return {m: int(c) if c.denominator == 1 else c
            for m, c in remainder.items()}


@pytest.mark.parametrize("order", list(TermOrder), ids=lambda o: o.value)
@pytest.mark.parametrize("field", [QQ, GF(32003), GF(7)],
                         ids=["QQ", "GF32003", "GF7"])
def test_packed_dividend_gets_the_poly_remainder_packed(field, order):
    # buchberger and _reduce_basis divide packed maps: the remainder is the
    # tuple-keyed reference's, term for term and coefficient type for type,
    # leading term first, and it answers is_zero() as bench/tracing.py asks
    # it to.  Over F_p the divisors are monic; over QQ a Fraction dividend
    # meets monic divisors and an integer one integer divisors.
    rng = random.Random(1903)
    zeros = 0
    cases = []
    if field is QQ:
        # 5/4 - (1/2)*(1/2) = Fraction(1, 1) must come back as the int 1
        ctx = VarContext(("x",), QQ)
        x = ctx.var(0)
        cases.append((x * Fraction(1, 2) + Fraction(5, 4),
                      [x + Fraction(1, 2)]))
    for trial in range(40):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), field)
        divisors = [rand_poly(rng, ctx, max_degree=2, max_terms=3, coeff_lo=-9,
                              coeff_hi=9, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
        f = rand_poly(rng, ctx, max_degree=4, max_terms=6, coeff_lo=-9,
                      coeff_hi=9)
        if trial % 4 == 0:
            # a multiple of the first divisor: the remainder is zero
            f = rand_poly(rng, ctx, max_degree=2) * divisors[0]
        if field is not QQ or trial % 2:
            divisors = [g.monic(order) for g in divisors]
            if field is QQ:
                f = f.scale(Fraction(1, 2))
        cases.append((f, divisors))
    for f, divisors in cases:
        ctx = f.context
        expected = _reference_remainder(f, divisors, order)
        packer, records = groebner._packing(ctx, divisors, order, 64)
        r, _ = _divide(packer.packed(f), packer, records)
        assert isinstance(r, groebner._Packed) and r.context == ctx
        terms = {packer.unpack(k): c for k, c in r.items()}
        assert terms == expected
        assert ([type(c) for c in terms.values()]
                == [type(expected[m]) for m in terms])
        assert r.is_zero() == (not expected)
        if r:
            assert (packer.unpack(next(iter(r)))
                    == max(expected, key=order.key))
        zeros += r.is_zero()
    assert zeros


def _division_invariant(f, records, field) -> bool:
    """What `_divide`'s coefficient step relies on: every record has LC 1,
    or the field is QQ and the records and the dividend are integral."""
    if all(lc == 1 for _, _, lc, _ in records):
        return True
    return (field.p is None
            and all(type(c) is int for c in f.values())
            and all(type(lc) is int and all(type(c) is int for _, c in tail)
                    for _, _, lc, tail in records))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)],
                         ids=["QQ", "GF7", "GF32003"])
def test_every_division_meets_the_coefficient_invariant(field, monkeypatch):
    # _divide has no exact-inverse step and no Fraction demotion after a
    # scaling: no caller hands it a non-monic record over F_p, or a
    # Fraction against a non-monic record over QQ
    ctx = VarContext(("x", "y"), field)
    x, y = ctx.var(0), ctx.var(1)
    packer, records = groebner._packing(ctx, [3 * x + y], TermOrder.LEX)
    if field is QQ:
        fraction_lc = groebner._packing(
            ctx, [y * Fraction(2, 3) + 1], TermOrder.LEX)[1]
        assert not _division_invariant(packer.packed(x + y), fraction_lc, QQ)
        assert not _division_invariant(
            packer.packed((x + y).scale(Fraction(1, 2))), records, QQ)
    else:
        assert not _division_invariant(packer.packed(x + y), records, field)
    divide = groebner._divide
    callers = {}
    pseudo = 0

    def checked(f, packer, records, *args, **kwargs):
        nonlocal pseudo
        assert _division_invariant(f, records, field)
        pseudo += any(lc != 1 for _, _, lc, _ in records)
        caller = sys._getframe(1).f_code.co_name
        callers[caller] = callers.get(caller, 0) + 1
        return divide(f, packer, records, *args, **kwargs)

    monkeypatch.setattr(groebner, "_divide", checked)
    # x^2 - y and x^2 + y make the element y, whose leading monomial divides
    # the tail of x^2 - y: _reduce_basis divides it, in every field
    for order in TermOrder:
        assert buchberger([x ** 2 - y, x ** 2 + y], order).polys == (x ** 2, y)
    rng = random.Random(4242)
    for trial in range(30):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), field)
        gens = [_rational_poly(rng, ctx) for _ in range(rng.randint(1, 3))]
        f = _rational_poly(rng, ctx) * _rational_poly(rng, ctx)
        for order in TermOrder:
            basis = buchberger(gens, order)
            for divisors in (basis, GroebnerBasis(ctx, order, gens)):
                r, cofactors = normal_form_with_cofactors(f, divisors)
                assert r + sum((q * g for q, g in zip(cofactors, divisors)),
                               ctx.zero) == f
        assert exact_div(f * gens[0], gens[0]) == f
    assert {"buchberger", "_reduce_basis", "_normal_form"} <= set(callers)
    assert bool(pseudo) == (field is QQ)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_reduce_basis_repacks_keys_the_inter_reduction_outgrows(field):
    # inter-reducing x - y^4 by y - z^4 makes z^16, one past the narrowest
    # fields: the packed division raises, and _reduce_basis repacks wider
    sympy = pytest.importorskip("sympy")
    ctx = VarContext(("x", "y", "z"), field)
    x, y, z = (ctx.var(i) for i in range(3))
    gens = [x - y ** 4, y - z ** 4]
    packer, records = groebner._packing(ctx, gens, TermOrder.LEX)
    assert packer.limit == 15
    with pytest.raises(OverflowError):
        _divide(packer.packed(gens[0]), packer, records[1:])
    packer, records = groebner._reduce_basis(ctx, TermOrder.LEX,
                                             (packer, records))
    assert packer.limit >= 16
    basis = [groebner._monic(ctx, packer, record)[0] for record in records]
    assert basis == [x - z ** 16, y - z ** 4]
    assert (_monic_terms(sympy, basis, field)
            == _sympy_reduced(sympy, gens, "lex", field))


# --------------------------------------------------------------------------
# packed monomials: the int keys inside the division loop
# --------------------------------------------------------------------------


@st.composite
def _packed_monomials(draw):
    """(order, packer, exponent vectors within the packer's field width)."""
    order = draw(st.sampled_from(list(TermOrder)))
    nvars = draw(st.integers(1, 4))
    packer = _Packer(nvars, order, draw(st.integers(0, 1 << 20)))
    exponent = st.one_of(st.just(0), st.just(packer.limit),
                         st.integers(0, packer.limit))
    vectors = st.tuples(*[exponent] * nvars)
    return order, packer, draw(st.lists(vectors, min_size=2, max_size=4))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packed_monomials())
def test_packed_key_order_is_the_term_order_reversed(case):
    # the heap pops the smallest key, which must be the largest monomial
    order, packer, (a, b, *_) = case
    assert ((packer.pack(a) < packer.pack(b))
            == (order.key(a) > order.key(b)))
    assert (packer.pack(a) == packer.pack(b)) == (a == b)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packed_monomials())
def test_packed_key_sum_is_the_monomial_product(case):
    _, packer, (a, b, *_) = case
    # split b so the product stays within the field width: a/2 + b/2
    a = tuple(e // 2 for e in a)
    b = tuple(e - e // 2 for e in b)
    assert (packer.pack(monomial_mul(a, b))
            == packer.pack(a) + packer.pack(b) - packer.one)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packed_monomials())
def test_packed_guard_test_is_divisibility(case):
    _, packer, monomials = case
    low, guard = packer.low, packer.guard
    a, m = monomials[0], monomials[1]
    # also a divisor drawn below m, so the true branch is met often
    for d in (a, tuple(min(x, y) for x, y in zip(a, m))):
        test = guard - (packer.pack(d) & low)
        assert (((packer.pack(m) & low) + test) & guard == guard) \
            == monomial_divides(d, m)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packed_monomials())
def test_packed_key_unpacks_to_its_monomial(case):
    _, packer, monomials = case
    for m in monomials:
        assert packer.unpack(packer.pack(m)) == m


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packed_monomials())
def test_signature_product_compares_exactly_past_the_limit(case):
    # K((m/d)*s) = K(m) - K(d) + K(s) may hold fields up to twice the
    # limit; compared with a key in range, it must still follow the order
    order, packer, monomials = case
    m, s, t = monomials[0], monomials[1], monomials[-1]
    d = tuple(e // 2 for e in m)
    product = tuple(a - b + c for a, b, c in zip(m, d, s))
    key = packer.pack(m) - packer.pack(d) + packer.pack(s)
    assert (key > packer.pack(t)) == (order.key(product) < order.key(t))
    assert (key == packer.pack(t)) == (product == t)


def _sympy_check(sympy, mine, exprs, names, order):
    """mine (a GroebnerBasis) equals sympy's reduced basis of `exprs`."""
    syms = sympy.symbols(names)
    reference = sympy.groebner([sympy.sympify(e) for e in exprs], *syms,
                               order=order)
    monic = {sympy.expand(e / sympy.Poly(e, *syms).LC(order=order))
             for e in reference.exprs}
    assert monic == {sympy.sympify(str(g).replace("^", "**"))
                     for g in mine.polys}
    return reference


def test_grevlex_exponent_past_the_initial_width_matches_sympy():
    # 70000 needs 17 bits: the basis must hold the exponent, never wrap it
    sympy = pytest.importorskip("sympy")
    ctx = VarContext(("x", "y", "z"), QQ)
    x, y, z = (ctx.var(i) for i in range(3))
    mine = buchberger([x ** 70000 * y - z, y ** 2 - 1], TermOrder.GREVLEX)
    assert set(mine.polys) == {x ** 70000 - y * z, y ** 2 - 1}
    # a dividend far wider than the basis it is reduced against
    for order in TermOrder:
        narrow = buchberger([y ** 2 - 1], order)
        assert normal_form(x ** 40 * y ** 3 + z, narrow) == x ** 40 * y + z
    _sympy_check(sympy, mine, ["x**70000*y - z", "y**2 - 1"], "x y z",
                 "grevlex")


def test_lex_division_raising_exponents_past_the_width_matches_sympy(
        monkeypatch):
    # x -> y^300 -> z^90000: lex division raises exponents as it goes, and
    # the normal form divides again wider each time a key outgrows the fields
    sympy = pytest.importorskip("sympy")
    packings = []
    packing = groebner._packing

    def counting(*args, **kwargs):
        packings.append(args)
        return packing(*args, **kwargs)

    monkeypatch.setattr(groebner, "_packing", counting)
    for field in (GF(32003), QQ):
        ctx = VarContext(("x", "y", "z"), field)
        x, y, z = (ctx.var(i) for i in range(3))
        divisors = GroebnerBasis(ctx, TermOrder.LEX, [x - y ** 300, y - z ** 300])
        packings.clear()
        r, cofactors = normal_form_with_cofactors(x, divisors)
        assert r == z ** 90000
        assert r + sum((q * g for q, g in zip(cofactors, divisors)),
                       ctx.zero) == x
        assert len(packings) > 1
        # the basis keeps the widest packing: the same call builds none
        packings.clear()
        assert normal_form_with_cofactors(x, divisors) == (r, cofactors)
        assert not packings
        basis = buchberger(divisors, TermOrder.LEX)
        assert set(basis.polys) == {x - z ** 90000, y - z ** 300}
        assert normal_form(x * y, basis) == z ** 90300
        # inter-reduction raises an exponent past the basis width: 8 -> 64
        small = buchberger([x - y ** 8, y - z ** 8], TermOrder.LEX)
        assert normal_form(x, small) == z ** 64
    reference = _sympy_check(sympy, basis, ["x - y**300", "y - z**300"],
                             "x y z", "lex")
    assert reference.reduce(sympy.Symbol("x"))[1] == sympy.Symbol("z") ** 90000


def test_lex_s_polynomial_reduction_past_the_width_matches_sympy():
    # an S-polynomial of small degree reduces through w^125: the reduction
    # inside buchberger outgrows the fields and starts over wider
    sympy = pytest.importorskip("sympy")
    ctx = VarContext(("x", "y", "z", "w"), QQ)
    x, y, z, w = (ctx.var(i) for i in range(4))
    mine = buchberger([x - y ** 5, y - z ** 5, z - w ** 5, x * w - 1],
                      TermOrder.LEX)
    _sympy_check(sympy, mine, ["x - y**5", "y - z**5", "z - w**5", "x*w - 1"],
                 "x y z w", "lex")
    # the inputs (exponents <= 5) get fields up to 15, and later elements
    # reach exponent 17: the basis must widen before their S-polynomials
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    mine = buchberger([7 * x ** 4 * y ** 2 + 5 * x * y ** 5 + 5 * x * y,
                       2 * x ** 5 * y ** 2 + 3 * x ** 3 * y ** 2
                       + 6 * x ** 2 * y ** 3], TermOrder.LEX)
    _sympy_check(sympy, mine, ["7*x**4*y**2 + 5*x*y**5 + 5*x*y",
                               "2*x**5*y**2 + 3*x**3*y**2 + 6*x**2*y**3"],
                 "x y", "lex")
