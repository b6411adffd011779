"""Simplicity deciders: certificates, unit-ideal criteria, char-p
obstruction, and the bounded Darboux search."""

import random
from fractions import Fraction

import pytest

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
    is_unit_ideal,
    krull_dimension,
    necessary_unit_condition,
    prime_char_obstruction,
    principal_stability_check,
    replay_certificate,
    skew_simplicity,
)
from derivalg import simplicity
from derivalg.simplicity import (
    _certified_prime,
    _rational_roots,
    _refuted,
    _solve_rational,
)

from conftest import rand_poly


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
    assert necessary_unit_condition(ring, rot)

    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    Ry = QuotientRing.trivial(ctx)
    assert not necessary_unit_condition(Ry, Derivation(Ry, [y]))
    assert necessary_unit_condition(Ry, Derivation.partial(Ry, 0))


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


def test_simple_implies_necessary_condition(circle_rotation):
    ring, rot = circle_rotation
    if dim1_simplicity(ring, rot).status is SimplicityStatus.SIMPLE:
        assert necessary_unit_condition(ring, rot)


# --------------------------------------------------------------------------
# the one decider: d_simplicity
# --------------------------------------------------------------------------


def test_d_simplicity_nilpotent_base_has_stable_witness(ctx_xy):
    # QQ[x, y]/(y^2) with d/dx: the nilradical (y) is stable, so the
    # dimension-1 unit-ideal test (which passes) must not be reached
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ring = QuotientRing.of(IdealHandle(ctx_xy, [y ** 2]))
    d = Derivation(ring, [ctx_xy.one, ctx_xy.zero])
    assert necessary_unit_condition(ring, d)
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


def test_d_simplicity_zero_derivation_attaches_nothing(ctx_xy):
    # on the hyperbola both variables are units, so no principal witness
    x, y = ctx_xy.var(0), ctx_xy.var(1)
    ring = QuotientRing.of(IdealHandle(ctx_xy, [x * y - 1]))
    verdict = d_simplicity(ring, [Derivation(ring, [ctx_xy.zero] * 2)])
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness is None
    assert verdict.criterion == "dimension-1 unit-ideal criterion"


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
    for gens in ([x * y], [x ** 2 + y ** 2 - 1], [x - 1, y ** 3]):
        handle = IdealHandle(ctx_xy, gens)
        assert QuotientRing.of(handle).dimension() == krull_dimension(handle)
    z = ctx_xyz.var(2)
    handle = IdealHandle(ctx_xyz, [ctx_xyz.var(0) * z - ctx_xyz.var(1) ** 2])
    assert QuotientRing.of(handle).dimension() == krull_dimension(handle) == 2


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


def test_charp_witness_on_shifted_variety():
    # V(xy - 1) misses the origin over GF(2); the point search must shift
    ctx = VarContext(("x", "y"), GF(2))
    x, y = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x * y - 1]))
    d = Derivation(ring, [x, y])  # Euler derivation preserves (xy - 1): x(y)+y(x)=2xy=0
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness is not None
    assert not is_unit_ideal(verdict.witness)
    assert d_ideal_check(verdict.witness, [d])


def test_charp_witness_lists_no_power_inside_the_ideal():
    # at the origin x^5 lies in I = (x^5), so only y^5 joins I's generator
    ctx = VarContext(("x", "y"), GF(5))
    x, y = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x ** 5]))
    d = Derivation(ring, [ctx.one, ctx.zero])
    verdict = d_simplicity(ring, [d])
    assert list(verdict.witness.generators) == [y ** 5, x ** 5]
    assert str(verdict) == ("NotSimple witness (y^5, x^5) "
                            "[positive Krull dimension in characteristic p]")
    assert d_ideal_check(verdict.witness, [d])


# --------------------------------------------------------------------------
# principal stability and Darboux
# --------------------------------------------------------------------------


def test_principal_stability_examples():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    ring = QuotientRing.trivial(ctx)
    assert principal_stability_check(y, [Derivation(ring, [y])])
    assert not principal_stability_check(y, [Derivation.partial(ring, 0)])

    ctxs = VarContext(("x", "y", "z"), QQ)
    sx, sy, sz = (ctxs.var(i) for i in range(3))
    d1 = Derivation(ctxs, [sy + sz, sz - sx, -sx - sy])
    d2 = Derivation(ctxs, [sy + 2 * sz, sx * sy * sz - sx, -sx * sy ** 2 - 2 * sx])
    relation = sx ** 2 + sy ** 2 + sz ** 2 - 1
    assert principal_stability_check(relation, [d1, d2])


def test_principal_witness_tries_each_constant_multiple_once(circle_rotation,
                                                            monkeypatch):
    # the candidates are x1, x2 and the images -x2, x1; (-x2) + I is the
    # ideal (x2) + I already refused, so two bases are computed, not three
    ring, rot = circle_rotation
    bases = []
    compute = simplicity.groebner_basis

    def counted(handle, *args, **kwargs):
        bases.append(handle.generators[0])
        return compute(handle, *args, **kwargs)

    monkeypatch.setattr(simplicity, "groebner_basis", counted)
    assert simplicity._principal_witness(ring, [rot],
                                         budget=DEFAULT_BUDGET) is None
    x1, x2 = ring.context.var(0), ring.context.var(1)
    assert bases == [x1, x2]


def test_principal_stability_zero_rejected():
    ctx = VarContext(("y",), QQ)
    ring = QuotientRing.trivial(ctx)
    with pytest.raises(ZeroPolynomialError):
        principal_stability_check(ctx.zero, [Derivation.partial(ring, 0)])


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

    def record(equations, unknowns):
        refuted = _refuted(equations, unknowns)
        systems.append((equations, unknowns, refuted))
        return refuted

    monkeypatch.setattr(simplicity, "_refuted", record)
    monkeypatch.setattr(simplicity, "_solve_rational", lambda *args: None)
    for F in fields:
        for bound in (1, 2, 3):
            darboux_search(F, bound)
    refuted = [(eqs, u) for eqs, u, r in systems if r]
    assert 0 < len(refuted) < len(systems)
    for eqs, unknowns in refuted:
        system = [Poly._raw(unknowns, e) for e in eqs]
        assert _solve_rational(system, unknowns, DEFAULT_BUDGET) is None


def test_solve_rational_specialisation_fallback():
    # u*v - 1 has no linear unknown and no univariate basis element: v is
    # specialised, 0 fails (-1 = 0), 1 leaves u - 1
    ctx = VarContext(("u", "v"), QQ)
    u, v = ctx.var(0), ctx.var(1)
    assert _solve_rational([u * v - 1], ctx, DEFAULT_BUDGET) == [1, 1]


def test_solve_rational_inconsistent_and_linear():
    ctx = VarContext(("u", "v", "w"), QQ)
    u, v, w = (ctx.var(i) for i in range(3))
    assert _solve_rational([u * v - 1, u * v - 2], ctx, DEFAULT_BUDGET) is None
    # the lowest-index linear unknown u = (v + 1)/2 is eliminated, v is
    # free (0), and of the roots of 4w^2 - 9 the positive one comes first
    values = _solve_rational([2 * u - v - 1, 4 * w ** 2 - 9], ctx,
                             DEFAULT_BUDGET)
    assert values == [Fraction(1, 2), 0, Fraction(3, 2)]


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
    assert necessary_unit_condition(ring, d)
    assert principal_stability_check(y - 1, [d])
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
    assert not any(necessary_unit_condition(ring, d) for d in D)
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
        assert not principal_stability_check(g, [d])
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


def test_principal_stability_needs_a_derivation():
    ctx = VarContext(("y",), QQ)
    with pytest.raises(PreconditionError):
        principal_stability_check(ctx.var(0), [])
