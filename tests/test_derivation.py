"""Derivations: application, commutators, D-ideals and quotient induction."""

import random

import pytest

from derivalg import (
    GF,
    QQ,
    ContextMismatchError,
    DerivalgError,
    Derivation,
    IdealHandle,
    NonCommutingDerivationsError,
    NotInvariantError,
    QuotientRing,
    SkewRingDescriptor,
    VarContext,
    commutator,
    commuting_set_check,
    d_ideal_check,
    groebner_basis,
    normal_form,
    weyl_algebra,
)
from derivalg import derivation

from conftest import rand_derivation, rand_poly


@pytest.fixture
def sphere_setup():
    ctx = VarContext(("x", "y", "z"), QQ)
    x, y, z = (ctx.var(i) for i in range(3))
    d1 = Derivation(ctx, [y + z, z - x, -x - y])
    d2 = Derivation(ctx, [y + 2 * z, x * y * z - x, -x * y ** 2 - 2 * x])
    relation = x ** 2 + y ** 2 + z ** 2 - 1
    return ctx, d1, d2, relation


def test_apply_rotation_kills_radius(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    d = Derivation(ctx_xy, [-y, x])
    assert d.apply(x ** 2 + y ** 2).is_zero()


def test_apply_partial(ctx_xy):
    y = ctx_xy.var(1)
    d = Derivation.partial(ctx_xy, 1)
    assert d.apply(y ** 3) == 3 * y ** 2


def test_apply_sphere_derivations(sphere_setup):
    _, d1, d2, relation = sphere_setup
    assert d1.apply(relation).is_zero()
    assert d2.apply(relation).is_zero()


def test_commutator_partials(ctx_xy):
    dx = Derivation.partial(ctx_xy, 0)
    dy = Derivation.partial(ctx_xy, 1)
    assert commutator(dx, dy).is_zero()


def test_commutator_scaling():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    dy = Derivation.partial(ctx, 0)
    ydy = Derivation(ctx, [y])
    c = commutator(dy, ydy)
    assert c == dy  # [d/dy, y d/dy] = d/dy


def test_commutator_nonzero_pair():
    ctx = VarContext(("y1", "y2"), QQ)
    y1, y2 = ctx.var(0), ctx.var(1)
    d1 = Derivation(ctx, [y2, ctx.zero])
    d2 = Derivation(ctx, [ctx.zero, y1])
    c = commutator(d1, d2)
    assert c.images[0] == -y1


def test_commuting_set_check():
    ctx = VarContext(("y1", "y2", "y3"), QQ)
    partials = [Derivation.partial(ctx, i) for i in range(3)]
    assert commuting_set_check(partials).commute

    y1, y2 = ctx.var(0), ctx.var(1)
    d1 = Derivation(ctx, [y2, ctx.zero, ctx.zero])
    d2 = Derivation(ctx, [ctx.zero, y1, ctx.zero])
    report = commuting_set_check([d1, d2])
    assert not report.commute
    assert (report.first, report.second) == (0, 1)
    assert report.witness == -y1

    assert commuting_set_check([d1]).commute


def test_weyl_algebra_builds_no_commutator(monkeypatch):
    # the partials have constant images, so every pair commutes unchecked
    calls = []

    def counted(d1, d2):
        calls.append((d1, d2))
        return commutator(d1, d2)

    monkeypatch.setattr(derivation, "commutator", counted)
    ring = weyl_algebra(6)
    assert ring.nskew == 6
    assert calls == []


def test_constant_derivation_is_checked_against_a_nonconstant_one(ctx_xy):
    # [d/dx, x*d/dy] sends y to d/dx(x) = 1: a constant-image derivation
    # paired with a non-constant one is still checked and refused
    x = ctx_xy.var(0)
    dx = Derivation.partial(ctx_xy, 0)
    xdy = Derivation(ctx_xy, [ctx_xy.zero, x])
    report = commuting_set_check([dx, xdy])
    assert not report.commute
    assert (report.first, report.second, report.generator) == (0, 1, 1)
    assert report.witness == ctx_xy.one
    with pytest.raises(NonCommutingDerivationsError) as err:
        SkewRingDescriptor(ctx_xy, ["s", "t"], [dx, xdy])
    assert str(err.value) == ("derivations 0 and 1 do not commute: "
                              "commutator sends y to 1")
    assert (err.value.first, err.value.second) == (0, 1)
    assert (err.value.generator, err.value.witness) == ("y", ctx_xy.one)


def test_arity_refusals_are_library_errors(ctx_xy):
    # refused as InvalidArgumentError, still a ValueError
    d = Derivation.partial(ctx_xy, 0)
    with pytest.raises(DerivalgError, match="one image per ring generator") as err:
        Derivation(ctx_xy, [ctx_xy.one])
    assert isinstance(err.value, ValueError)
    with pytest.raises(DerivalgError, match="one derivation per skew variable") as err:
        SkewRingDescriptor(ctx_xy, ["s", "t"], [d])
    assert isinstance(err.value, ValueError)


_INDEXED = {
    "var": lambda ctx, i: ctx.var(i),
    "substitute": lambda ctx, i: ctx.one.substitute({i: ctx.var(0)}),
    "Poly.partial": lambda ctx, i: ctx.one.partial(i),
    "Derivation.partial": lambda ctx, i: Derivation.partial(ctx, i),
    "skew_var": lambda ctx, i: weyl_algebra(2).skew_var(i),
    "base_var": lambda ctx, i: weyl_algebra(2).base_var(i),
    "degree_in": lambda ctx, i: (ctx.var(0) ** 3 * ctx.var(1)).degree_in(i),
}


@pytest.mark.parametrize("i", [2, 5, -1])
@pytest.mark.parametrize("entry", _INDEXED, ids=str)
def test_variable_and_skew_indices_are_range_checked(ctx_xy, entry, i):
    # two variables in QQ[x, y] and two skew variables in A_2: a negative
    # index must not read as the last one, nor a large one give a zero map
    with pytest.raises(IndexError, match=f" index {i} out of range"):
        _INDEXED[entry](ctx_xy, i)


@pytest.mark.parametrize("exponents", [(1,), (-1, 1), (1, 0, 0)], ids=str)
def test_coefficient_reads_check_their_exponent_vector(ctx_xy, exponents):
    # QQ[x, y] and A_2: a short, long or negative vector read as 0 before
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    with pytest.raises(ValueError, match="bad exponent vector"):
        (x ** 3 * y + 1).coeff(exponents)
    A2 = weyl_algebra(2)
    with pytest.raises(ValueError, match="bad skew exponent vector"):
        A2.skew_var(0).coefficient(exponents)
    assert (x ** 3 * y + 1).coeff((3, 1)) == 1
    assert A2.skew_var(0).coefficient((1, 0)) == A2.base.context.one


def test_d_ideal_sphere(sphere_setup):
    ctx, d1, d2, relation = sphere_setup
    assert d_ideal_check(IdealHandle(ctx, [relation]), [d1, d2])


def test_d_ideal_counterexample():
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    assert not d_ideal_check(IdealHandle(ctx, [x ** 2]),
                             [Derivation.partial(ctx, 0)])


def test_d_ideal_check_works_modulo_the_defining_ideal(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    quotient = QuotientRing.of(IdealHandle(ctx_xy, [y ** 2]))
    J = IdealHandle(ctx_xy, [x * y])
    # e(xy) = y^2: zero in R/(y^2), outside (xy) in R
    assert d_ideal_check(J, [Derivation(quotient, [y, ctx_xy.zero])])
    assert not d_ideal_check(J, [Derivation(ctx_xy, [y, ctx_xy.zero])])
    with pytest.raises(ContextMismatchError, match="different rings"):
        d_ideal_check(J, [Derivation.partial(quotient, 0),
                          Derivation.partial(ctx_xy, 0)])


def test_d_ideal_pth_powers():
    for p in (2, 3):
        ctx = VarContext(("x1", "x2"), GF(p))
        gens = [ctx.var(i) ** p for i in range(2)]
        partials = [Derivation.partial(ctx, i) for i in range(2)]
        assert d_ideal_check(IdealHandle(ctx, gens), partials)


def test_d_ideal_random_combinations(sphere_setup):
    # stability extends from generators to random cofactor combinations
    ctx, d1, d2, relation = sphere_setup
    basis = groebner_basis(IdealHandle(ctx, [relation]))
    rng = random.Random(17)
    for _ in range(20):
        h = rand_poly(rng, ctx, max_degree=2, max_terms=3) * relation
        for d in (d1, d2):
            assert normal_form(d.apply(h), basis).is_zero()


def test_induce_on_quotient_sphere(sphere_setup):
    ctx, d1, d2, relation = sphere_setup
    sphere = QuotientRing.of(IdealHandle(ctx, [relation]))
    for d in (d1, d2):
        induced = Derivation(sphere, d.images)
        assert induced.ring == sphere


def test_induce_fails_without_invariance():
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 2]))
    with pytest.raises(NotInvariantError) as err:
        Derivation.partial(ring, 0)
    assert err.value.generator == x ** 2
    assert err.value.image == 2 * x


def test_induce_char2_truncated():
    ctx = VarContext(("x",), GF(2))
    x = ctx.var(0)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 2]))
    induced = Derivation.partial(ring, 0)
    assert induced.images[0] == ctx.one


def test_quotient_derivation_validated_at_construction():
    ctx = VarContext(("x",), QQ)
    x = ctx.var(0)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 2]))
    with pytest.raises(NotInvariantError):
        Derivation(ring, [ctx.one])
    # x d/dx preserves (x^2)
    ok = Derivation(ring, [x])
    assert ok.apply(x ** 2).is_zero()


def test_apply_leibniz_random(ctx_xyz):
    rng = random.Random(5)
    ring = QuotientRing.trivial(ctx_xyz)
    for _ in range(25):
        d = rand_derivation(rng, ring)
        f = rand_poly(rng, ctx_xyz)
        g = rand_poly(rng, ctx_xyz)
        assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)


def test_commutator_is_derivation(ctx_xy):
    rng = random.Random(8)
    ring = QuotientRing.trivial(ctx_xy)
    for _ in range(15):
        c = commutator(rand_derivation(rng, ring), rand_derivation(rng, ring))
        f = rand_poly(rng, ctx_xy)
        g = rand_poly(rng, ctx_xy)
        assert c.apply(f * g) == c.apply(f) * g + f * c.apply(g)


def test_induced_apply_commutes_with_reduction(sphere_setup):
    ctx, d1, _, relation = sphere_setup
    sphere = QuotientRing.of(IdealHandle(ctx, [relation]))
    induced = Derivation(sphere, d1.images)
    rng = random.Random(12)
    for _ in range(20):
        f = rand_poly(rng, ctx)
        assert induced.apply(sphere.reduce(f)) == sphere.reduce(d1.apply(f))

