"""Simplicity deciders: certificates, unit-ideal criteria, char-p
obstruction, and the bounded Darboux search."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivalg import (
    DEFAULT_BUDGET,
    GF,
    QQ,
    BudgetExceededError,
    DarbouxStatus,
    Derivation,
    IdealHandle,
    Poly,
    PreconditionError,
    QuotientRing,
    SimplicityStatus,
    SkewRingDescriptor,
    TermOrder,
    VarContext,
    ZeroPolynomialError,
    certificate,
    d_ideal_check,
    d_simplicity,
    darboux_search,
    dim1_simplicity,
    groebner_basis,
    is_unit_ideal,
    prime_char_obstruction,
    replay_certificate,
    skew_simplicity,
)
from derivalg import simplicity
from derivalg.groebner import _initial_dimension
from derivalg.simplicity import (
    _certified_prime,
    _rational_roots,
    _refuted,
    _solve_rational,
)

from conftest import rand_poly


def _unit_image_ideal(ring, d):
    """The J_D step of d_simplicity for D = {d}: 1 in (d(x_i)) + I."""
    return is_unit_ideal(IdealHandle(ring.context,
                                     [*d.images, *ring.defining.generators]))


def _stable_principal(g, D):
    """Whether (g) + I is D-stable, by d_ideal_check."""
    ring = D[0].ring
    return d_ideal_check(IdealHandle(ring.context,
                                     [g, *ring.defining.generators]), D)


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


def _truncated(ctx):
    """The truncated ring F_p[x]/(x_1^p, ..., x_n^p) over ctx's field."""
    p = ctx.field.characteristic
    return QuotientRing.of(IdealHandle(ctx, [ctx.var(i) ** p
                                             for i in range(ctx.nvars)]))


def test_partials_certificate_example():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    f = x1 ** 2 * x2 + 3 * x1
    cert = certificate(QuotientRing.trivial(ctx), f)
    # lowest-index variable first, at its maximal exponent
    assert cert.word == (0, 0, 1)
    assert cert.final_constant == QQ.element(2)
    assert replay_certificate(cert, f) == QQ.element(2)


def test_partials_certificate_trivial_cases():
    ctx = VarContext(("x1",), QQ)
    ring = QuotientRing.trivial(ctx)
    cert = certificate(ring, ctx.const(5))
    assert cert.word == () and cert.final_constant == QQ.element(5)
    cert = certificate(ring, ctx.var(0))
    assert cert.word == (0,) and cert.final_constant == QQ.element(1)


def test_partials_certificate_zero_rejected():
    ctx = VarContext(("x1",), QQ)
    with pytest.raises(ZeroPolynomialError):
        certificate(QuotientRing.trivial(ctx), ctx.zero)


def test_partials_certificate_word_length_bounded():
    ctx = VarContext(("x1", "x2", "x3"), QQ)
    ring = QuotientRing.trivial(ctx)
    rng = random.Random(3)
    for _ in range(50):
        f = rand_poly(rng, ctx, max_degree=5, max_terms=5, nonzero=True)
        cert = certificate(ring, f)
        assert len(cert.word) <= max(f.total_degree(), 0)
        assert not cert.final_constant.is_zero()


def test_truncated_certificate_examples():
    ctx3 = VarContext(("x",), GF(3))
    x = ctx3.var(0)
    cert = certificate(_truncated(ctx3), 2 * x + x ** 2)
    assert cert.word == (0, 0)
    assert cert.final_constant == GF(3).element(2)

    ctx2 = VarContext(("x",), GF(2))
    cert = certificate(_truncated(ctx2), ctx2.var(0))
    assert cert.word == (0,)
    assert cert.final_constant == GF(2).element(1)

    ctx5 = VarContext(("x",), GF(5))
    cert = certificate(_truncated(ctx5), ctx5.const(3))
    assert cert.word == () and cert.final_constant == GF(5).element(3)


def test_truncated_certificate_rejects_big_exponents():
    # the certificate is of the normal form: x^3 is 0 in GF(3)[x]/(x^3)
    ctx = VarContext(("x",), GF(3))
    with pytest.raises(ZeroPolynomialError):
        certificate(_truncated(ctx), ctx.var(0) ** 3)


def test_certificate_of_the_normal_form():
    ctx = VarContext(("x",), GF(3))
    x = ctx.var(0)
    T = _truncated(ctx)
    f = x ** 4 + x
    cert = certificate(T, f)
    assert T.reduce(f) == x
    assert cert == certificate(T, x)
    assert cert.word == (0,) and cert.final_constant == GF(3).element(1)
    assert replay_certificate(cert, T.reduce(f)) == cert.final_constant


def test_certificate_needs_exactly_the_truncated_ring():
    # the basis must be {x_1^p, ..., x_n^p}, whatever generators and term
    # order gave it
    ctx = VarContext(("x", "y"), GF(3))
    x, y = ctx.var(0), ctx.var(1)
    message = ("characteristic-p certificates need the quotient by the "
               "p-th powers of the variables")
    for gens in ([], [x ** 3], [x ** 3, y ** 3, x * y], [x ** 2, y ** 2]):
        ring = QuotientRing.of(IdealHandle(ctx, gens))
        with pytest.raises(PreconditionError, match=message):
            certificate(ring, x)
    ring = QuotientRing.of(IdealHandle(ctx, [y ** 3, x ** 3 + y ** 3, x ** 3]),
                           TermOrder.LEX)
    assert certificate(ring, x * y ** 2).word == (0, 1, 1)


def test_certificate_replay_through_quotient_derivations():
    # replay uses the induced derivations of the truncated ring, not partial()
    p = 3
    ctx = VarContext(("x1", "x2"), GF(p))
    ring = _truncated(ctx)
    induced = [Derivation.partial(ring, i) for i in range(2)]
    rng = random.Random(44)
    for _ in range(30):
        f = Poly_random_truncated(rng, ctx, p)
        if f.is_zero():
            continue
        cert = certificate(ring, f)
        g = f
        for i in cert.word:
            g = induced[i].apply(g)
        assert g == ctx.const(cert.final_constant)


def Poly_random_truncated(rng, ctx, p):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randrange(p) for _ in range(ctx.nvars))
        terms[mono] = ctx.field.element(rng.randrange(p))
    from derivalg import Poly
    return Poly(ctx, terms)


# --------------------------------------------------------------------------
# unit-ideal criteria
# --------------------------------------------------------------------------


@pytest.fixture
def circle_rotation():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x1 ** 2 + x2 ** 2 - 1]))
    rot = Derivation(ring, [-x2, x1])
    return ring, rot


def test_necessary_unit_condition(circle_rotation):
    ring, rot = circle_rotation
    assert _unit_image_ideal(ring, rot)

    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    Ry = QuotientRing.trivial(ctx)
    assert not _unit_image_ideal(Ry, Derivation(Ry, [y]))
    assert _unit_image_ideal(Ry, Derivation.partial(Ry, 0))


def test_dim1_simplicity_circle(circle_rotation):
    ring, rot = circle_rotation
    verdict = dim1_simplicity(ring, rot)
    assert verdict.status is SimplicityStatus.SIMPLE
    assert ring.dimension() == 1


def test_dim1_simplicity_negative_control():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    Ry = QuotientRing.trivial(ctx)
    verdict = dim1_simplicity(Ry, Derivation(Ry, [y]))
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness is not None
    assert list(verdict.witness.generators) == [y]


def test_dim1_simplicity_dimension_gate(ctx_xy):
    ring = QuotientRing.trivial(ctx_xy)
    verdict = dim1_simplicity(ring, Derivation.partial(ring, 0))
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "dimension != 1"


def test_dim1_simplicity_characteristic_gate():
    ring = QuotientRing.trivial(VarContext(("x",), GF(5)))
    verdict = dim1_simplicity(ring, Derivation.partial(ring, 0))
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "characteristic is not 0"


def test_charp_obstruction_in_characteristic_0(circle_rotation):
    ring, _ = circle_rotation
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "characteristic is 0"


def test_simple_implies_necessary_condition(circle_rotation):
    ring, rot = circle_rotation
    if dim1_simplicity(ring, rot).status is SimplicityStatus.SIMPLE:
        assert _unit_image_ideal(ring, rot)


# --------------------------------------------------------------------------
# the one decider: d_simplicity
# --------------------------------------------------------------------------


def test_d_simplicity_nilpotent_base_has_stable_witness(ctx_xy):
    # QQ[x, y]/(y^2) with d/dx: the nilradical (y) is stable, so the
    # dimension-1 unit-ideal test (which passes) must not be reached
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ring = QuotientRing.of(IdealHandle(ctx_xy, [y ** 2]))
    d = Derivation(ring, [ctx_xy.one, ctx_xy.zero])
    assert _unit_image_ideal(ring, d)
    for verdict in (d_simplicity(ring, [d]), dim1_simplicity(ring, d)):
        assert verdict.status is SimplicityStatus.NOT_SIMPLE
        assert list(verdict.witness.generators) == [y, y ** 2]
        assert verdict.criterion == "stable principal ideal witness"


def test_d_simplicity_polynomial_ring_missing_a_partial(ctx_xy):
    ring = QuotientRing.trivial(ctx_xy)
    verdict = d_simplicity(ring, [Derivation.partial(ring, 0)])
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [ctx_xy.var(1)]


def test_d_simplicity_ellipse_attaches_image_ideal(ctx_xy):
    # no variable or image generates a stable ideal, so the dimension-1
    # NotSimple carries J = (d(x), d(y)) + I
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    relation = 6 * x ** 2 + 7 * y ** 2 - 7
    ring = QuotientRing.of(IdealHandle(ctx_xy, [relation]))
    k = 8 * x - 4
    d = Derivation(ring, [7 * k * y, -6 * k * x])
    verdict = d_simplicity(ring, [d])
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.criterion == "dimension-1 unit-ideal criterion"
    J = verdict.witness
    assert J is not None
    assert list(J.generators) == list(d.images) + [relation]
    assert d_ideal_check(J, [d])
    assert not is_unit_ideal(J)
    assert any(not ring.reduce(g).is_zero() for g in J.generators)
    assert dim1_simplicity(ring, d) == verdict


def test_d_simplicity_zero_derivation_attaches_a_shift(ctx_xy):
    # on the hyperbola both variables are units, so no variable is a
    # witness; with d = 0 every ideal is stable, and x - 1 is not a unit
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ring = QuotientRing.of(IdealHandle(ctx_xy, [x * y - 1]))
    D = [Derivation(ring, [ctx_xy.zero] * 2)]
    verdict = d_simplicity(ring, D)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [x - 1, x * y - 1]
    assert verdict.criterion == "stable principal ideal witness"
    _assert_witness(ring, D, verdict)


def test_d_simplicity_no_applicable_criterion(ctx_xyz):
    x, y, z = ctx_xyz.var(0), ctx_xyz.var(1), ctx_xyz.var(2)
    ring = QuotientRing.trivial(ctx_xyz)
    D = [Derivation(ring, [ctx_xyz.one, ctx_xyz.zero, y]),
         Derivation(ring, [ctx_xyz.zero, ctx_xyz.one, x])]
    verdict = d_simplicity(ring, D)
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "no applicable criterion"


def test_d_simplicity_prime_characteristic_delegates():
    ctx = VarContext(("x",), GF(2))
    ring = QuotientRing.trivial(ctx)
    D = [Derivation.partial(ring, 0)]
    assert d_simplicity(ring, D) == prime_char_obstruction(ring)


def test_d_simplicity_agrees_with_skew_simplicity(ctx_xy, circle_rotation):
    # every D here is linearly independent over R, where R[t; D] is simple
    # exactly when R is D-simple: skew_simplicity returns R's verdict
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    plane = QuotientRing.trivial(ctx_xy)
    nilpotent = QuotientRing.of(IdealHandle(ctx_xy, [y ** 2]))
    ellipse = QuotientRing.of(IdealHandle(ctx_xy, [6 * x ** 2 + 7 * y ** 2 - 7]))
    cases = [
        circle_rotation,
        (plane, Derivation.partial(plane, 0)),
        (plane, Derivation(plane, [y, x])),
        (nilpotent, Derivation(nilpotent, [ctx_xy.one, ctx_xy.zero])),
        (ellipse, Derivation(ellipse, [7 * (8 * x - 4) * y, -6 * (8 * x - 4) * x])),
    ]
    for ring, d in cases:
        skew = SkewRingDescriptor(ring, ["t"], [d])
        assert skew_simplicity(skew) == d_simplicity(ring, [d])
    partials = [Derivation.partial(plane, i) for i in range(2)]
    skew = SkewRingDescriptor(plane, ["t1", "t2"], partials)
    assert skew_simplicity(skew) == d_simplicity(plane, partials)
    assert skew_simplicity(skew).status is SimplicityStatus.SIMPLE


def test_quotient_dimension_matches_krull_dimension(ctx_xy, ctx_xyz):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    assert QuotientRing.trivial(ctx_xy).dimension() == 2
    for gens, dim in (([x * y], 1), ([x ** 2 + y ** 2 - 1], 1),
                      ([x - 1, y ** 3], 0)):
        assert QuotientRing.of(IdealHandle(ctx_xy, gens)).dimension() == dim
    z = ctx_xyz.var(2)
    handle = IdealHandle(ctx_xyz, [ctx_xyz.var(0) * z - ctx_xyz.var(1) ** 2])
    assert QuotientRing.of(handle).dimension() == 2


# --------------------------------------------------------------------------
# characteristic p obstruction
# --------------------------------------------------------------------------


def test_charp_obstruction_f2x():
    ctx = VarContext(("x",), GF(2))
    ring = QuotientRing.trivial(ctx)
    d = Derivation.partial(ring, 0)
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [ctx.var(0) ** 2]
    # the witness is a proper D-stable ideal
    assert d_ideal_check(verdict.witness, [d])
    assert not is_unit_ideal(verdict.witness)


def test_charp_obstruction_dim0_unknown():
    ctx = VarContext(("x",), GF(3))
    x = ctx.var(0)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 3]))
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "necessary condition passed"


def test_charp_obstruction_dim2():
    ctx = VarContext(("x", "y"), GF(5))
    ring = QuotientRing.trivial(ctx)
    D = [Derivation.partial(ring, i) for i in range(2)]
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness is not None
    assert d_ideal_check(verdict.witness, D)
    assert not is_unit_ideal(verdict.witness)
    assert list(verdict.witness.generators) == [ctx.var(0) ** 5]
    _assert_charp_witness(ring, D, verdict)


def test_charp_witness_on_shifted_variety():
    # x and y are units modulo xy - 1, so the tries must shift to r = 1
    ctx = VarContext(("x", "y"), GF(2))
    x, y = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x * y - 1]))
    d = Derivation(ring, [x, y])  # Euler derivation preserves (xy - 1): x(y)+y(x)=2xy=0
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness is not None
    assert not is_unit_ideal(verdict.witness)
    assert d_ideal_check(verdict.witness, [d])
    _assert_charp_witness(ring, [d], verdict)


def test_charp_witness_lists_no_power_inside_the_ideal():
    # x is nilpotent modulo I = (x^5), so x - r never cuts the dimension;
    # y^5 joins I's generator
    ctx = VarContext(("x", "y"), GF(5))
    x, y = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 5]))
    d = Derivation(ring, [ctx.one, ctx.zero])
    verdict = d_simplicity(ring, [d])
    assert list(verdict.witness.generators) == [y ** 5, x ** 5]
    assert str(verdict) == ("NotSimple witness (y^5, x^5) "
                            "[positive Krull dimension in characteristic p]")
    assert d_ideal_check(verdict.witness, [d])
    _assert_charp_witness(ring, [d], verdict)


def _assert_charp_witness(ring, D, verdict):
    # a witness (x_i^p - r) + I, checked without a basis of the p-th power:
    # (x_i - r) + I is proper and of lower dimension, and each d kills
    # x_i^p - r
    ctx = ring.context
    p = ctx.field.characteristic
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    g, *rest = verdict.witness.generators
    assert rest == list(ring.defining.generators)
    (i,) = [i for i in range(ctx.nvars) if g.degree_in(i)]
    r = ctx.var(i) ** p - g
    assert r.is_constant()
    basis = groebner_basis(IdealHandle(ctx, [ctx.var(i) - r] + rest))
    assert not basis.is_unit
    assert _initial_dimension(basis) < ring.dimension()
    assert all(d(g).is_zero() for d in D)


def _assert_witness(ring, D, verdict):
    # a witness checked without trusting the decider: it is not the unit
    # ideal and its first generator is nonzero modulo I; in characteristic
    # 0, d_ideal_check accepts it; in characteristic p, its first generator
    # is g with its exponents times p, (g) + I is proper and of lower
    # dimension, and every d sends the generator to 0
    ctx = ring.context
    p = ctx.field.characteristic
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    first, *rest = verdict.witness.generators
    assert rest == list(ring.defining.generators)
    assert not groebner_basis(verdict.witness).is_unit
    assert not ring.reduce(first).is_zero()
    if p == 0:
        assert d_ideal_check(verdict.witness, D)
        return
    assert all(e % p == 0 for m in first._terms for e in m)
    g = Poly(ctx, {tuple(e // p for e in m): c for m, c in first._terms.items()})
    if p < 100:
        assert g ** p == first
    basis = groebner_basis(IdealHandle(ctx, [g] + rest))
    assert not basis.is_unit
    assert _initial_dimension(basis) < ring.dimension()
    assert all(d(first).is_zero() for d in D)


def _ring_case(field, names, case):
    # the ring field[names]/(f) and D = [d], for (f, (d(x_1), ...)) =
    # case(x_1, ..., 1)
    ctx = VarContext(names, field)
    f, images = case(*(ctx.var(i) for i in range(len(names))), ctx.one)
    ring = QuotientRing.of(IdealHandle(ctx, [f]))
    return ring, [Derivation(ring, images)]


STABLE = "stable principal ideal witness"
CHARP = "positive Krull dimension in characteristic p"


@pytest.mark.parametrize("field, names, case, text", [
    (QQ, ("x", "y"), lambda x, y, one: (x * y - 1, (0 * one, 0 * one)),
     f"(x - 1, x*y - 1) [{STABLE}]"),
    (QQ, ("x", "y", "z"), lambda x, y, z, one: (x * y * z - 1, (0 * one,) * 3),
     f"(x - 1, x*y*z - 1) [{STABLE}]"),
    # z is a constant of x d/dx - y d/dy
    (QQ, ("x", "y", "z"), lambda x, y, z, one: (x * y * z - 1, (x, -y, 0 * one)),
     f"(z - 1, x*y*z - 1) [{STABLE}]"),
    (GF(2), ("x", "y"), lambda x, y, one: (
        (x ** 2 + x) * (y ** 2 + y) - 1, (0 * one, 0 * one)),
     f"(x^4 + x^2 + 1, x^2*y^2 + x^2*y + x*y^2 + x*y + 1) [{CHARP}]"),
], ids=["QQ-hyperbola-zero", "QQ-xyz-zero", "QQ-xyz-z-constant", "GF2-zero"])
def test_shift_witness_where_variables_and_images_give_none(field, names, case,
                                                             text):
    # each of these rings is not D-simple, and no variable or image of D
    # generates a proper D-stable ideal
    ring, D = _ring_case(field, names, case)
    verdict = d_simplicity(ring, D)
    assert str(verdict) == f"NotSimple witness {text}"
    _assert_witness(ring, D, verdict)


def test_shift_tries_stop_at_the_budget_in_characteristic_0(monkeypatch):
    # x and y are units modulo xyz - 1 and z - 1 is the first stable shift.
    # The shift pass of _witness skips the shifts x - 0, y - 0, z - 0 that
    # the first pass tried, without counting them: a budget of 2 tries x, y
    # in the first pass and z, x - 1 in the second, so z - 1 is never
    # tried, and the default budget finds it at the sixth basis, none twice
    ring, D = _ring_case(QQ, ("x", "y", "z"), lambda x, y, z, one: (
        x * y * z - 1, (x, -y, 0 * one)))
    x, y, z = ring.generators()
    bases = []
    compute = simplicity.groebner_basis
    monkeypatch.setattr(simplicity, "groebner_basis", lambda handle, *a, **k: (
        bases.append(handle.generators[0]) or compute(handle, *a, **k)))
    verdict = d_simplicity(ring, D, budget=2)
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "no applicable criterion"
    assert bases == [x, y, z, x - 1]
    bases.clear()
    verdict = d_simplicity(ring, D)
    assert list(verdict.witness.generators) == [z - 1, x * y * z - 1]
    assert bases == [x, y, z, x - 1, y - 1, z - 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shifts_list_each_value_then_each_quadratic_without_a_root(p):
    ctx = VarContext(("x",), GF(p))
    x = ctx.var(0)
    rootless = [x ** 2 + a * x + b for a in range(p) for b in range(p)
                if all((r * r + a * r + b) % p for r in range(p))]
    assert len(rootless) == (p * p - p) // 2   # the monic irreducibles
    shifts = list(simplicity._shifts(QuotientRing.trivial(ctx)))
    assert shifts == [x - r for r in range(p)] + rootless


def test_shifts_over_qq_and_at_a_large_prime(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    shifts = list(simplicity._shifts(QuotientRing.trivial(ctx_xy)))
    assert shifts == [v - r for r in (0, 1, -1, 2, -2) for v in (x, y)]
    # the values of F_p are listed lazily
    ctx = VarContext(("x",), GF(10 ** 18 + 3))
    first = list(itertools.islice(simplicity._shifts(QuotientRing.trivial(ctx)), 3))
    assert first == [ctx.var(0) - r for r in range(3)]


def _charp_case(p, case):
    # the ring GF(p)[x, y]/(f) and the derivation d, for (f, (d(x), d(y)))
    # = case(x, y, 1)
    ctx = VarContext(("x", "y"), GF(p))
    f, images = case(ctx.var(0), ctx.var(1), ctx.one)
    ring = QuotientRing.of(IdealHandle(ctx, [f]))
    return ring, [Derivation(ring, images)]


@pytest.mark.parametrize("p, case, text", [
    (32003, lambda x, y, one: (x ** 2 + y ** 2 - 1, (-y, x)),
     "(x^32003, x^2 + y^2 + 32002)"),
    # x^2 + 1 has no root mod 443, so there is no rational point; y cuts
    (443, lambda x, y, one: (x ** 2 + 1, (0 * one, one)),
     "(y^443, x^2 + 1)"),
    # x takes no value of GF(2), where x^2 - x vanishes; y - 1 works
    (2, lambda x, y, one: ((x ** 2 - x) * y - 1, (x ** 2 - x, y)),
     "(y^2 + 1, x^2*y + x*y + 1)"),
    (1000000000000000003, lambda x, y, one: (x ** 2 + y ** 2 - 1, (-y, x)),
     "(x^1000000000000000003, x^2 + y^2 + 1000000000000000002)"),
], ids=["GF32003-circle", "GF443-no-rational-point", "GF2-y-shifted",
        "GF(10^18+3)-circle"])
def test_charp_witness_is_a_shifted_variable_power(p, case, text):
    ring, D = _charp_case(p, case)
    verdict = d_simplicity(ring, D)
    assert str(verdict) == (f"NotSimple witness {text} "
                            "[positive Krull dimension in characteristic p]")
    _assert_charp_witness(ring, D, verdict)


NO_WITNESS = ("positive dimension forces NotSimple; "
              "no (x_i - r)^p witness found")


def test_charp_quadratic_witness_after_every_linear_try_fails():
    # over GF(2) both x^2 + x and y^2 + y are units modulo I, so every
    # x_i - r with r in GF(2) generates the unit ideal with I; x^2 + x + 1,
    # without a root in GF(2), does not, and its square is the witness
    ring, D = _charp_case(2, lambda x, y, one: (
        (x ** 2 + x) * (y ** 2 + y) - 1, (x ** 2 + x, y ** 2 + y)))
    verdict = d_simplicity(ring, D)
    x = ring.context.var(0)
    assert verdict.witness.generators[0] == x ** 4 + x ** 2 + 1
    assert verdict.reason is None
    _assert_witness(ring, D, verdict)


def test_charp_tries_stop_at_the_budget(monkeypatch):
    # all 886 tries fail on this ring; a budget of 5 makes only 5 of them
    ring, D = _charp_case(443, lambda x, y, one: (
        (x ** 443 - x) * (y ** 443 - y) - 1, (0 * one, 0 * one)))
    tries = []
    basis_of = simplicity.groebner_basis
    monkeypatch.setattr(simplicity, "groebner_basis",
                        lambda *a, **k: tries.append(a) or basis_of(*a, **k))
    verdict = d_simplicity(ring, D, budget=5)
    assert len(tries) == 5
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness is None
    assert verdict.reason == NO_WITNESS


# --------------------------------------------------------------------------
# principal stability and Darboux
# --------------------------------------------------------------------------


def test_principal_stability_examples():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    ring = QuotientRing.trivial(ctx)
    assert _stable_principal(y, [Derivation(ring, [y])])
    assert not _stable_principal(y, [Derivation.partial(ring, 0)])

    ctxs = VarContext(("x", "y", "z"), QQ)
    sx, sy, sz = (ctxs.var(i) for i in range(3))
    d1 = Derivation(ctxs, [sy + sz, sz - sx, -sx - sy])
    d2 = Derivation(ctxs, [sy + 2 * sz, sx * sy * sz - sx, -sx * sy ** 2 - 2 * sx])
    relation = sx ** 2 + sy ** 2 + sz ** 2 - 1
    assert _stable_principal(relation, [d1, d2])


def test_witness_tries_each_constant_multiple_once(circle_rotation, monkeypatch):
    # the candidates are x1, x2 and the images -x2, x1; (-x2) + I is the
    # ideal (x2) + I already refused, so two bases are computed, not three
    ring, rot = circle_rotation
    bases = []
    compute = simplicity.groebner_basis

    def counted(handle, *args, **kwargs):
        bases.append(handle.generators[0])
        return compute(handle, *args, **kwargs)

    monkeypatch.setattr(simplicity, "groebner_basis", counted)
    candidates = (*ring.generators(), *rot.images)
    assert simplicity._witness(ring, [rot], candidates,
                               budget=DEFAULT_BUDGET) is None
    x1, x2 = ring.context.var(0), ring.context.var(1)
    assert bases == [x1, x2]


def test_darboux_linear_field(ctx_xy):
    y = ctx_xy.var(1)
    result = darboux_search(y, 3)
    assert result.status is DarbouxStatus.FOUND
    assert result.h == y and result.cofactor == ctx_xy.one


def test_darboux_zero_field(ctx_xy):
    y = ctx_xy.var(1)
    result = darboux_search(ctx_xy.zero, 2)
    assert result.status is DarbouxStatus.FOUND
    assert result.h == y and result.cofactor.is_zero()


def test_darboux_simple_derivation_has_none(ctx_xy):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    result = darboux_search(y ** 2 + x, 3)
    assert result.status is DarbouxStatus.NONE_UP_TO_BOUND
    assert result.bound == 3


@pytest.mark.parametrize("power,bound", [(2, 1), (5, 1), (5, 2)])
def test_darboux_cofactor_degree_above_the_bound(ctx_xy, power, bound):
    # d(y) = x^k*y: the cofactor x^k has degree deg F - 1 > bound
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    result = darboux_search(x ** power * y, bound)
    assert result.status is DarbouxStatus.FOUND
    assert result.h == y and result.cofactor == x ** power


@pytest.mark.parametrize("F_builder,bound", [
    (lambda x, y: y, 4),
    (lambda x, y: x * y, 3),
    (lambda x, y: y ** 2, 3),
    (lambda x, y: x ** 2 * y + y, 2),
])
def test_darboux_found_pairs_verify(ctx_xy, F_builder, bound):
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    F = F_builder(x, y)
    result = darboux_search(F, bound)
    if result.status is DarbouxStatus.FOUND:
        lhs = result.h.partial(0) + F * result.h.partial(1)
        assert lhs == result.cofactor * result.h
        assert not result.h.is_constant()


def test_darboux_monotone_bounds(ctx_xy):
    # a Found at a smaller bound cannot coexist with NoneUpToBound at a larger one
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    for F in (y, x * y, y ** 2 + x):
        small = darboux_search(F, 2)
        large = darboux_search(F, 3)
        if small.status is DarbouxStatus.FOUND:
            assert large.status is DarbouxStatus.FOUND


def test_darboux_preconditions(ctx_xyz, ctx_xy):
    with pytest.raises(PreconditionError):
        darboux_search(ctx_xyz.var(0), 2)
    with pytest.raises(PreconditionError):
        darboux_search(ctx_xy.var(0), 0)
    gf_ctx = VarContext(("x", "y"), GF(5))
    with pytest.raises(PreconditionError):
        darboux_search(gf_ctx.var(1), 2)


def test_rational_roots_respects_the_budget():
    # the Mersenne prime 2^61 - 1 would take ~1.5e9 trial divisions unbudgeted
    ctx = VarContext(("t",), QQ)
    t = ctx.var(0)
    with pytest.raises(BudgetExceededError):
        _rational_roots(t ** 2 - (2 ** 61 - 1), 0, DEFAULT_BUDGET)
    roots = _rational_roots(4 * t ** 2 - 9, 0, DEFAULT_BUDGET)
    assert roots == [QQ.element(Fraction(3, 2)), QQ.element(Fraction(-3, 2))]


def test_darboux_irrational_pivot_does_not_end_the_search(ctx_xy):
    # the pivot y has only h = y +- i: consistent, no rational point; the
    # next pivot y^2 gives h = y^2 + 1
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    result = darboux_search(4 * x ** 2 * y ** 2 + 4 * x ** 2, 3)
    assert result.status is DarbouxStatus.FOUND
    assert result.h == y ** 2 + 1
    assert result.cofactor == 8 * x ** 2 * y


def test_darboux_irrational_pivot_then_rational_quadratic(ctx_xy):
    # h = y +- 1/sqrt(2) are irrational; their product y^2 - 1/2 is found
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    result = darboux_search(2 * x - 4 * x * y ** 2, 2)
    assert result.status is DarbouxStatus.FOUND
    assert result.h == y ** 2 - Fraction(1, 2)
    assert result.cofactor == -8 * x * y


def test_darboux_unresolved_pivot_named_when_nothing_is_found(ctx_xy):
    # at bound 1, d = d/dx + (y^2 - 2) d/dy has only h = y -+ sqrt(2): the
    # pivot y is consistent without a rational point, the pivot x is not
    y = ctx_xy.var(1)
    with pytest.raises(BudgetExceededError, match="leading monomial y "):
        darboux_search(y ** 2 - 2, 1)


def test_darboux_answer_ignores_term_insertion_order(ctx_xy):
    # F = -9y^2 - 8y built with its two terms stored either way round: the
    # equations are listed by monomial, so both take one path
    y = ctx_xy.var(1)
    for terms in ({(0, 2): -9, (0, 1): -8}, {(0, 1): -8, (0, 2): -9}):
        result = darboux_search(Poly(ctx_xy, terms), 1)
        assert result.status is DarbouxStatus.FOUND
        assert result.h == y
        assert result.cofactor == -9 * y - 8


def _keyed(f):
    """The term map of f keyed as `_eliminate` keys terms: the sorted tuple
    of the indices of the variables, one entry per factor."""
    return {tuple(i for i, e in enumerate(m) for _ in range(e)): c
            for m, c in f._terms.items()}


def test_refuted_pivot_systems_have_no_zero(ctx_xy, monkeypatch):
    # every pivot system that the top-down pass rules out is one on which
    # the bottom-up `_solve_rational` returns None; the point search is
    # stubbed out while the systems are collected, so every pivot is seen
    rng = random.Random(25)
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    fields = []
    for _ in range(4):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        fields += [y ** 2 + a * x, a * y - b * x, a * x * y + b * y ** 2]
    fields += [rand_poly(rng, ctx_xy, 3, 3, -3, 3) for _ in range(12)]
    systems = []

    def record(equations, field):
        refuted = _refuted(equations, field)
        systems.append((equations, refuted))
        return refuted

    monkeypatch.setattr(simplicity, "_refuted", record)
    monkeypatch.setattr(simplicity, "_solve_rational", lambda *args: None)
    for F in fields:
        for bound in (1, 2, 3):
            darboux_search(F, bound)
    refuted = [eqs for eqs, r in systems if r]
    assert 0 < len(refuted) < len(systems)
    for eqs in refuted:
        n = 1 + max((i for e in eqs for m in e for i in m), default=0)
        unknowns = VarContext([f"u{i}" for i in range(n)], QQ)
        assert _solve_rational(eqs, unknowns, DEFAULT_BUDGET) is None


def test_solve_rational_specialisation_fallback():
    # u*v - 1 has no linear unknown and no univariate basis element: v is
    # specialised, 0 fails (-1 = 0), 1 leaves u - 1
    ctx = VarContext(("u", "v"), QQ)
    u, v = ctx.var(0), ctx.var(1)
    assert _solve_rational([_keyed(u * v - 1)], ctx, DEFAULT_BUDGET) == [1, 1]


def test_solve_rational_inconsistent_and_linear():
    ctx = VarContext(("u", "v", "w"), QQ)
    u, v, w = (ctx.var(i) for i in range(3))
    assert _solve_rational([_keyed(u * v - 1), _keyed(u * v - 2)], ctx,
                           DEFAULT_BUDGET) is None
    # the lowest-index linear unknown u = (v + 1)/2 is eliminated, v is
    # free (0), and of the roots of 4w^2 - 9 the positive one comes first
    values = _solve_rational([_keyed(2 * u - v - 1), _keyed(4 * w ** 2 - 9)],
                             ctx, DEFAULT_BUDGET)
    assert values == [Fraction(1, 2), 0, Fraction(3, 2)]


_COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def _darboux_shaped(draw):
    """(M + L, equations): terms of a pivot system of `darboux_search`, a
    constant, c_k, l_j or c_k*l_j, with c_k = u_k and l_j = u_{M+j}."""
    M, L = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    keys = ([()] + [(k,) for k in range(M + L)]
            + [(k, M + j) for k in range(M) for j in range(L)])
    equations = []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(st.dictionaries(st.sampled_from(keys), _COEFFS,
                                     min_size=1, max_size=4))
        terms = {m: c.numerator if c.denominator == 1 else c
                 for m, c in terms.items() if c}
        if terms:
            equations.append(terms)
    return M + L, equations


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=_darboux_shaped())
def test_elimination_agrees_with_sympy(system):
    # None from `_eliminate` means the unit ideal; a point from
    # `_solve_rational` zeroes every input equation, and None from it
    # means the unit ideal too
    sympy = pytest.importorskip("sympy")
    n, equations = system
    unknowns = VarContext([f"u{i}" for i in range(n)], QQ)
    symbols = sympy.symbols(unknowns.names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*[symbols[i] for i in m])
                 for m, c in e.items()) for e in equations]
    unit = list(sympy.groebner(exprs, *symbols, order="grevlex").exprs) == [1]
    eliminated = simplicity._eliminate(equations, QQ)
    if eliminated is None:
        assert unit
    else:
        # every map it returns is keyed as its input: sorted index tuples,
        # nonzero coefficients
        rest, solved = eliminated
        for e in rest + list(solved.values()):
            assert all(list(m) == sorted(m) and c for m, c in e.items())
    try:
        values = _solve_rational(equations, unknowns, DEFAULT_BUDGET)
    except (simplicity._NoRationalPoint, BudgetExceededError):
        assert not unit
        return
    if values is None:
        assert unit
        return
    for e in equations:
        total = Fraction(0)
        for m, c in e.items():
            for i in m:
                c *= values[i]
            total += c
        assert total == 0


def _roots_by_fractions(coeffs):
    """The rational roots of sum(c * t^e for e, c in coeffs), by trying
    every +-p/q with p, q dividing the integer ends, as Fractions, ordered
    by |r| with the positive one first."""
    denom = math.lcm(*[Fraction(c).denominator for c in coeffs.values()])
    ints = {e: int(c * denom) for e, c in coeffs.items()}
    roots = set()
    if 0 not in ints:
        roots.add(Fraction(0))
        ints = {e - min(ints): c for e, c in ints.items()}
    if max(ints) > 0:
        for p in simplicity._divisors(ints[0]):
            for q in simplicity._divisors(ints[max(ints)]):
                for r in (Fraction(p, q), Fraction(-p, q)):
                    if sum(c * r ** e for e, c in ints.items()) == 0:
                        roots.add(r)
    return sorted(roots, key=lambda r: (abs(r), r < 0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roots=st.lists(st.builds(Fraction, st.integers(-12, 12),
                                st.integers(1, 6)), max_size=4),
       extra=st.lists(_COEFFS, max_size=4),
       scale=_COEFFS.filter(bool), var=st.integers(0, 1))
def test_rational_roots_match_the_fraction_definition(roots, extra, scale, var):
    # planted roots times a random rational factor: the integer Horner test
    # finds the roots the Fraction definition finds, in the same order
    ctx = VarContext(("s", "t"), QQ)
    t = ctx.var(var)
    g = ctx.const(scale) * sum((e * t ** k for k, e in enumerate(extra)),
                               ctx.one)
    for r in roots:
        g = g * (t - r)
    if g.is_zero():
        return
    found = _rational_roots(g, var, DEFAULT_BUDGET)
    coeffs = {m[var]: c for m, c in g._terms.items()}
    expected = [] if max(coeffs) == 0 else _roots_by_fractions(coeffs)
    assert found == expected
    assert [type(r) for r in found] == [int if r.denominator == 1 else Fraction
                                        for r in expected]
    assert set(roots) <= set(found)


# --------------------------------------------------------------------------
# one image ideal J_D and the dimension-1 primality certificate
# --------------------------------------------------------------------------


def _assert_image_witness(ring, D, verdict):
    # a NotSimple witness J_D is proper, nonzero modulo I and D-stable
    J = verdict.witness
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(J.generators) == [g for d in D for g in d.images if not g.is_zero()] \
        + list(ring.defining.generators)
    assert not is_unit_ideal(J)
    assert any(not ring.reduce(g).is_zero() for g in J.generators)
    assert d_ideal_check(J, D)


def test_two_parallel_lines_are_not_certified_simple(ctx_xy):
    # (y - 1) + I is a proper d/dx-stable ideal of QQ[x, y]/(y^2 - 1), so
    # 1 in J_d alone must not give Simple: the ideal is not prime
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ring = QuotientRing.of(IdealHandle(ctx_xy, [y ** 2 - 1]))
    d = Derivation(ring, [ctx_xy.one, ctx_xy.zero])
    assert _unit_image_ideal(ring, d)
    assert _stable_principal(y - 1, [d])
    verdict = d_simplicity(ring, [d])
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "primality not certified"
    assert dim1_simplicity(ring, d) == verdict
    assert skew_simplicity(SkewRingDescriptor(ring, ["t"], [d])) == verdict


def _circle_pair(ctx, left, right):
    x, y = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 2 + y ** 2 - 1]))
    return ring, [Derivation(ring, [-k * y, k * x]) for k in (left, right)]


def test_two_derivations_on_the_circle_simple(ctx_xy):
    # J_{d1} + J_{d2} contains (1 + x) + (1 - x) = 2, though neither does
    x = ctx_xy.var(0)
    ring, D = _circle_pair(ctx_xy, 1 + x, 1 - x)
    assert not any(_unit_image_ideal(ring, d) for d in D)
    verdict = d_simplicity(ring, D)
    assert verdict.status is SimplicityStatus.SIMPLE
    assert verdict.criterion == "dimension-1 unit-ideal criterion"


def test_two_derivations_on_the_circle_not_simple(ctx_xy):
    # both image ideals lie in the maximal ideal of the point (-1, 0)
    x = ctx_xy.var(0)
    ring, D = _circle_pair(ctx_xy, 1 + x, (1 + x) ** 2)
    verdict = d_simplicity(ring, D)
    assert verdict.criterion == "dimension-1 unit-ideal criterion"
    _assert_image_witness(ring, D, verdict)


def test_dimension_two_decided_by_image_ideal(ctx_xy):
    # no variable or image of d = (xy - 1)d/dx + (x - y^2)d/dy generates a
    # stable principal ideal, but J_d = (xy - 1, x - y^2) is proper
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ring = QuotientRing.trivial(ctx_xy)
    d = Derivation(ring, [x * y - 1, x - y ** 2])
    for g in (x, y, x * y - 1, x - y ** 2):
        assert not _stable_principal(g, [d])
    verdict = d_simplicity(ring, [d])
    assert verdict.criterion == "proper D-stable image ideal"
    assert list(verdict.witness.generators) == [x * y - 1, x - y ** 2]
    _assert_image_witness(ring, [d], verdict)


def test_primality_certificate(ctx_xy):
    # smooth projective closures: conics and a line (F_x is a unit);
    # singular ones: parallel lines, crossing lines, a cusp, a double line
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    assert _certified_prime(QuotientRing.trivial(VarContext(("x",), QQ)),
                            budget=DEFAULT_BUDGET)
    smooth = [x ** 2 + y ** 2 - 1, 6 * x ** 2 + 7 * y ** 2 - 7, x * y - 1,
              y - x ** 2, 2 * x - 3 * y + 1, x ** 3 + y ** 3 - 1]
    singular = [y ** 2 - 81, (x - 7) * (y - 9), y ** 2 - x ** 3,
                (x + y - 1) ** 2]
    for f, expected in [(f, True) for f in smooth] + [(f, False) for f in singular]:
        ring = QuotientRing.of(IdealHandle(ctx_xy, [f]))
        assert _certified_prime(ring, budget=DEFAULT_BUDGET) is expected, f
    # a non-principal ideal is not certified
    ring = QuotientRing.of(IdealHandle(ctx_xy, [x * y, y ** 2]))
    assert not _certified_prime(ring, budget=DEFAULT_BUDGET)
