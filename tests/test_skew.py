"""Skew polynomial rings: normal-form products, Weyl relations, extensions,
inner derivations, and the simplicity verdict."""

import math
import random
from fractions import Fraction

import pytest

from derivalg import (
    QQ,
    ContextMismatchError,
    Derivation,
    GF,
    IdealHandle,
    NonCommutingDerivationsError,
    PreconditionError,
    QuotientRing,
    RingEndomorphism,
    SimplicityStatus,
    SingleOreDescriptor,
    SkewPoly,
    VarContext,
    binomial_push,
    build_skew_ring,
    extend_derivation,
    family_skew_derivation,
    inner_induced,
    inner_residuals,
    skew_commutator,
    skew_simplicity,
    weyl_algebra,
)

from conftest import rand_poly


def fold_push(ring, i, n, r):
    """Oracle: x_i^n * r by n-fold single-step rewriting x_i c = c x_i + d_i(c)."""
    d = ring.derivations[i]
    acc = {(0,) * ring.nskew: r}
    unit = tuple(1 if j == i else 0 for j in range(ring.nskew))
    for _ in range(n):
        nxt = {}
        for e, c in acc.items():
            up = tuple(a + b for a, b in zip(e, unit))
            for key, val in ((up, c), (e, d.apply(c))):
                if val.is_zero():
                    continue
                have = nxt.get(key)
                s = val if have is None else have + val
                if s.is_zero():
                    nxt.pop(key, None)
                else:
                    nxt[key] = s
        acc = nxt
    from derivalg.skew import SkewPoly
    return SkewPoly(ring, acc)


@pytest.fixture(scope="module")
def A1():
    return weyl_algebra(1)


@pytest.fixture(scope="module")
def A2():
    return weyl_algebra(2)


def test_weyl_first_relation(A1):
    x, y = A1.skew_var(0), A1.base_var(0)
    assert x * y == y * x + 1
    assert skew_commutator(x, y) == A1.one()


def test_weyl_two_step_rewrites(A1):
    x, y = A1.skew_var(0), A1.base_var(0)
    assert x ** 2 * y == y * x ** 2 + 2 * x
    assert x * y ** 2 == y ** 2 * x + 2 * y


def test_weyl_cross_relations(A2):
    x1, x2 = A2.skew_var(0), A2.skew_var(1)
    y1, y2 = A2.base_var(0), A2.base_var(1)
    assert skew_commutator(x1, y2).is_zero()
    assert skew_commutator(x1, x2).is_zero()
    assert skew_commutator(x1, y1) == A2.one()
    assert skew_commutator(x2, y2) == A2.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_relations_all(n):
    ring = weyl_algebra(n)
    for i in range(n):
        for j in range(n):
            xi, xj = ring.skew_var(i), ring.skew_var(j)
            yi, yj = ring.base_var(i), ring.base_var(j)
            assert skew_commutator(xi, xj).is_zero()
            assert skew_commutator(yi, yj).is_zero()
            expected = ring.one() if i == j else ring.zero()
            assert skew_commutator(xi, yj) == expected


def test_binomial_push_examples(A1):
    y = A1.base.context.var(0)
    assert binomial_push(A1, 0, 2, y) == y * A1.skew_var(0) ** 2 + 2 * A1.skew_var(0)
    assert binomial_push(A1, 0, 0, y) == A1.from_base(y)
    assert binomial_push(A1, 0, 1, y ** 3) == (
        y ** 3 * A1.skew_var(0) + 3 * y ** 2)


def test_binomial_push_matches_single_step_oracle(A1, A2):
    rng = random.Random(314)
    for ring in (A1, A2):
        ctx = ring.base.context
        for n in range(7):
            for _ in range(8):
                r = rand_poly(rng, ctx, max_degree=3, max_terms=3)
                for i in range(ring.nskew):
                    assert binomial_push(ring, i, n, r) == fold_push(ring, i, n, r)


def test_binomial_push_char_p():
    # in characteristic 2 the middle binomial coefficient of n=2 vanishes
    ctx = VarContext(("y",), GF(2))
    base = QuotientRing.trivial(ctx)
    ring = build_skew_ring(base, ["x"], [Derivation.partial(base, 0)])
    y = ctx.var(0)
    pushed = binomial_push(ring, 0, 2, y ** 2)
    assert pushed == ring.from_base(y ** 2) * ring.skew_var(0) ** 2
    rng = random.Random(15)
    for n in range(5):
        for _ in range(5):
            r = rand_poly(rng, ctx, max_degree=3, max_terms=3)
            assert binomial_push(ring, 0, n, r) == fold_push(ring, 0, n, r)


def test_degree_zero_embedding(A2):
    rng = random.Random(9)
    ctx = A2.base.context
    for _ in range(25):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx)
        assert A2.from_base(a) * A2.from_base(b) == A2.from_base(a * b)


def custom_two_derivation_ring():
    ctx = VarContext(("y1", "y2"), QQ)
    base = QuotientRing.trivial(ctx)
    d1 = Derivation.partial(base, 0)
    d2 = Derivation(base, [ctx.zero, ctx.var(1)])  # y2 d/dy2, commutes with d/dy1
    return build_skew_ring(base, ["t1", "t2"], [d1, d2])


def rand_skew(rng, ring, x_degree=3, base_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nskew
        for _ in range(rng.randint(0, x_degree)):
            e[rng.randrange(ring.nskew)] += 1
        terms[tuple(e)] = rand_poly(rng, ring.base.context,
                                    max_degree=base_degree, max_terms=2)
    from derivalg.skew import SkewPoly
    return SkewPoly(ring, terms)


def test_associativity_random(A1, A2):
    rng = random.Random(2718)
    rings = [A1, A2, custom_two_derivation_ring()]
    for ring in rings:
        for _ in range(25):
            u = rand_skew(rng, ring)
            v = rand_skew(rng, ring)
            w = rand_skew(rng, ring)
            assert (u * v) * w == u * (v * w)


def test_associativity_quotient_base():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    circle = QuotientRing.of(IdealHandle(ctx, [x1 ** 2 + x2 ** 2 - 1]))
    rot = Derivation(circle, [-x2, x1])
    ring = build_skew_ring(circle, ["t"], [rot])
    rng = random.Random(11)
    from derivalg.skew import SkewPoly

    def rand_elt():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 3),)] = rand_poly(rng, ctx, max_degree=2,
                                                    max_terms=2)
        return SkewPoly(ring, terms)

    for _ in range(25):
        u, v, w = rand_elt(), rand_elt(), rand_elt()
        assert (u * v) * w == u * (v * w)


def test_distributivity_random(A1):
    rng = random.Random(555)
    for _ in range(25):
        u, v, w = (rand_skew(rng, A1) for _ in range(3))
        assert u * (v + w) == u * v + u * w


def test_build_skew_ring_gate():
    ctx = VarContext(("y1", "y2"), QQ)
    y1, y2 = ctx.var(0), ctx.var(1)
    base = QuotientRing.trivial(ctx)
    d1 = Derivation(base, [y2, ctx.zero])
    d2 = Derivation(base, [ctx.zero, y1])
    with pytest.raises(NonCommutingDerivationsError) as err:
        build_skew_ring(base, ["t1", "t2"], [d1, d2])
    assert err.value.generator == "y1"
    assert err.value.witness == -y1

    partials = [Derivation.partial(base, i) for i in range(2)]
    ring = build_skew_ring(base, ["t1", "t2"], partials)
    assert ring.commuting_certified

    single = build_skew_ring(base, ["t"], [d1])
    assert single.commuting_certified


def test_extend_derivation_coefficientwise():
    ctx = VarContext(("y", "z"), QQ)
    base = QuotientRing.trivial(ctx)
    ring = build_skew_ring(base, ["x"], [Derivation.partial(base, 0)])
    dz = Derivation.partial(base, 1)
    ext = extend_derivation(dz, ring)
    z = ring.from_base(ctx.var(1))
    y = ring.from_base(ctx.var(0))
    x = ring.skew_var(0)
    assert ext.apply(z * x + y) == x


def test_extend_derivation_self(A1):
    dy = Derivation.partial(A1.base, 0)
    ext = extend_derivation(dy, A1)
    y, x = A1.base_var(0), A1.skew_var(0)
    assert ext.apply(y * x) == x


def test_extend_derivation_refused():
    ctx = VarContext(("y",), QQ)
    base = QuotientRing.trivial(ctx)
    ring = build_skew_ring(base, ["x"], [Derivation.partial(base, 0)])
    ydy = Derivation(base, [ctx.var(0)])
    with pytest.raises(NonCommutingDerivationsError):
        extend_derivation(ydy, ring)


def test_extension_leibniz_against_skew_mul(A1):
    rng = random.Random(77)
    ext = extend_derivation(Derivation.partial(A1.base, 0), A1)
    for _ in range(25):
        u = rand_skew(rng, A1)
        v = rand_skew(rng, A1)
        assert ext.apply(u * v) == ext.apply(u) * v + u * ext.apply(v)


def test_inner_induced_weyl(A1):
    x = A1.skew_var(0)
    analysis = inner_induced(A1, x)
    assert analysis.induced
    assert analysis.derivation == Derivation.partial(A1.base, 0)

    y = A1.base_var(0)
    analysis = inner_induced(A1, y)
    assert analysis.induced
    assert analysis.derivation.is_zero()  # commutative base: inner => zero


@pytest.mark.parametrize("n", [2, 3])
def test_inner_induced_weyl_higher(n):
    ring = weyl_algebra(n)
    for i in range(n):
        analysis = inner_induced(ring, ring.skew_var(i))
        assert analysis.induced
        assert analysis.derivation == Derivation.partial(ring.base, i)


def test_inner_induced_failure(A1):
    x, y = A1.skew_var(0), A1.base_var(0)
    f = x ** 2 + y * x
    analysis = inner_induced(A1, f)
    assert not analysis.induced
    assert analysis.offending_generator == "y"
    assert analysis.residual == 2 * x + y


def test_inner_residuals_examples(A1):
    ctx = A1.base.context
    y = ctx.var(0)
    x = A1.skew_var(0)

    res = inner_residuals(A1, x, y)
    assert len(res) == 1 and res[0].is_zero()

    f = x ** 2 + A1.from_base(y) * x
    res = inner_residuals(A1, f, y)
    assert [str(r) for r in res] == ["2", "0"]

    res = inner_residuals(A1, A1.from_base(ctx.const(7)), y)
    assert res == []


def test_inner_residuals_match_analysis_randomized():
    rng = random.Random(4242)
    for trial in range(50):
        nvars = rng.randint(1, 2)
        ctx = VarContext(tuple(f"y{i}" for i in range(1, nvars + 1)), QQ)
        base = QuotientRing.trivial(ctx)
        d = Derivation(base, [rand_poly(rng, ctx, max_degree=1, max_terms=2)
                              for _ in range(nvars)])
        ring = build_skew_ring(base, ["x"], [d])
        f = rand_skew(rng, ring, x_degree=3, base_degree=1)
        analysis = inner_induced(ring, f)
        all_zero = all(
            r.is_zero()
            for g in range(nvars)
            for r in inner_residuals(ring, f, ctx.var(g)))
        assert analysis.induced == all_zero


def closed_form_residuals(ring, f, r):
    """Oracle: for f = sum a_i x^i in one skew variable, the x^k coefficient
    (k = 1..n) of f*r - r*f by its closed form
    sum_{i >= k} a_i * C(i, i-k) * d^(i-k)(r) - r * a_k."""
    r = ring.base.reduce(r)
    d = ring.derivations[0]
    n = f.x_degree()
    coeffs = {e[0]: c for e, c in f.terms.items()}
    out = []
    for k in range(1, n + 1):
        total = ring.base.context.zero
        derived = r
        for i in range(k, n + 1):
            a_i = coeffs.get(i)
            if a_i is not None:
                total = total + (a_i * derived).scale(math.comb(i, i - k))
            derived = d.apply(derived)
        total = total - r * coeffs.get(k, ring.base.context.zero)
        out.append(ring.base.reduce(total))
    return out


def _circle_rotation_ring():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    circle = QuotientRing.of(IdealHandle(ctx, [x1 ** 2 + x2 ** 2 - 1]))
    return build_skew_ring(circle, ["t"], [Derivation(circle, [-x2, x1])])


@pytest.mark.parametrize("ring", [weyl_algebra(1), weyl_algebra(1, GF(7)),
                                  _circle_rotation_ring()],
                         ids=["A1-QQ", "A1-GF7", "circle-rotation"])
def test_inner_residuals_match_closed_form(ring):
    # x-degrees up to 9 reach C(i, j) = 0 mod 7 over GF(7)
    rng = random.Random(1913)
    ctx = ring.base.context
    for _ in range(25):
        terms = {(k,): rand_poly(rng, ctx, max_degree=3, max_terms=3)
                 for k in rng.sample(range(10), rng.randint(1, 4))}
        f = SkewPoly(ring, terms)
        r = rand_poly(rng, ctx, max_degree=3, max_terms=3)
        assert inner_residuals(ring, f, r) == closed_form_residuals(ring, f, r)


def test_inner_residuals_reject_multivariable(A2):
    with pytest.raises(PreconditionError):
        inner_residuals(A2, A2.skew_var(0), A2.base.context.var(0))


def test_endo_skew_mul_closed_form():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    phi = RingEndomorphism(ctx, [y ** 2])
    ring = SingleOreDescriptor(ctx, "x", phi)
    x = ring.skew_var()
    assert x * ring.from_base(y) == ring.from_base(y ** 2) * x
    assert x * x * ring.from_base(y) == ring.from_base(y ** 4) * x * x


def test_endo_skew_mul_closed_form_matches_recursion():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    phi = RingEndomorphism(ctx, [y ** 2])
    zero_d = SingleOreDescriptor(ctx, "x", phi)
    rng = random.Random(88)
    for n in range(5):
        for _ in range(5):
            r = rand_poly(rng, ctx, max_degree=2, max_terms=2)
            closed = zero_d.push((n,), r)
            # recursion oracle: repeated x * (.) steps
            acc = {0: r} if not r.is_zero() else {}
            for _ in range(n):
                nxt = {}
                for k, c in acc.items():
                    up = phi(c)
                    if not up.is_zero():
                        nxt[k + 1] = nxt.get(k + 1, ctx.zero) + up
                acc = nxt
            assert closed == {(k,): c for k, c in acc.items()}


def test_endo_skew_mul_identity_twist_matches_weyl(A1):
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    ident = RingEndomorphism.identity(ctx)
    ring = SingleOreDescriptor(base, "x", ident, Derivation.partial(base, 0))
    x = ring.skew_var()
    prod = x * ring.from_base(y)
    assert prod == ring.from_base(y) * x + ring.one()
    # same computation in the Weyl algebra
    wx, wy = A1.skew_var(0), A1.base_var(0)
    weyl_prod = wx * wy
    assert weyl_prod.terms == prod.terms
    rng = random.Random(361)

    def rand_terms():
        return {(rng.randint(0, 3),): rand_poly(rng, ctx, max_degree=3)
                for _ in range(rng.randint(1, 3))}

    for _ in range(20):
        terms_u, terms_v = rand_terms(), rand_terms()
        ore_prod = SkewPoly(ring, terms_u) * SkewPoly(ring, terms_v)
        weyl_prod = SkewPoly(A1, terms_u) * SkewPoly(A1, terms_v)
        assert ore_prod.terms == weyl_prod.terms


def test_endo_skew_mul_family_derivation():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    phi = RingEndomorphism(ctx, [y ** 2])
    d = family_skew_derivation(ctx.one, phi)
    ring = SingleOreDescriptor(ctx, "x", phi, d)
    x = ring.skew_var()
    # x y = phi(y) x + d(y) = y^2 x + (y^2 - y)
    prod = x * ring.from_base(y)
    assert prod.terms[(1,)] == y ** 2
    assert prod.terms[(0,)] == y ** 2 - y


def test_ore_family_power_rsub_and_hash():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    phi = RingEndomorphism(ctx, [y ** 2])
    ring = SingleOreDescriptor(ctx, "x", phi, family_skew_derivation(y + 1, phi))
    x = ring.skew_var()
    u = (y - 1) * x ** 2 + x + 3 * y
    assert u ** 3 == u * u * u
    assert 2 - u == -(u - 2)
    twin = SkewPoly(ring, {(2,): y - 1, (1,): ctx.one, (0,): 3 * y})
    assert twin == u
    assert hash(twin) == hash(u)
    assert len({u, twin, u * x}) == 2


def test_skew_derivation_value_equality():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    sq = RingEndomorphism(ctx, [y ** 2])
    a = family_skew_derivation(y + 1, sq)
    b = family_skew_derivation(y + 1, RingEndomorphism(ctx, [y ** 2]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != family_skew_derivation(y + 2, sq)
    assert a != family_skew_derivation(y + 1, RingEndomorphism(ctx, [y ** 3]))


def test_single_ore_descriptors_compare_by_value():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    ident = RingEndomorphism.identity(ctx)
    sq = RingEndomorphism(ctx, [y ** 2])
    builds = [
        lambda: SingleOreDescriptor(base, "x", ident, Derivation.partial(base, 0)),
        lambda: SingleOreDescriptor(ctx, "x", sq, family_skew_derivation(y + 1, sq)),
        lambda: SingleOreDescriptor(ctx, "x", sq),
    ]
    for build in builds:
        first, second = build(), build()
        assert first == second and hash(first) == hash(second)
        total = first.skew_var() + second.from_base(y)
        assert total.ring == first
    rings = [build() for build in builds]
    assert len(set(rings)) == 3


def test_inner_residuals_reject_ore_ring():
    ctx = VarContext(("y",), QQ)
    base = QuotientRing.trivial(ctx)
    ring = SingleOreDescriptor(base, "x", RingEndomorphism.identity(ctx),
                               Derivation.partial(base, 0))
    with pytest.raises(PreconditionError):
        inner_residuals(ring, ring.skew_var(), ctx.var(0))


def test_ore_products_golden_output():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    sq = RingEndomorphism(ctx, [y ** 2])
    closed = SingleOreDescriptor(ctx, "x", sq)
    family = SingleOreDescriptor(ctx, "x", sq, family_skew_derivation(y + 1, sq))
    base = QuotientRing.trivial(ctx)
    ident = SingleOreDescriptor(base, "x", RingEndomorphism.identity(ctx),
                                Derivation.partial(base, 0))
    one = ctx.one
    products = [
        SkewPoly(closed, {(2,): y + 1, (1,): -3 * one, (0,): 2 * one})
        * SkewPoly(closed, {(1,): y ** 2 - 2, (0,): y}),
        SkewPoly(family, {(2,): one, (0,): y})
        * SkewPoly(family, {(1,): y - 1, (0,): 2 * y ** 2}),
        SkewPoly(ident, {(3,): one, (1,): y, (0,): ctx.const(Fraction(-1, 2))})
        * SkewPoly(ident, {(1,): y ** 2, (0,): y}),
    ]
    # printed by the implementation with a separate Ore element type
    expected = [
        "(y^9 + y^8 - 2*y - 2)*x^3 + (y^5 - 2*y^4 + 6)*x^2 + (-y^2 - 4)*x + 2*y",
        "(y^4 - 1)*x^3 + (2*y^8 + y^6 + y^5 + y^4 - y^3 - 2*y^2)*x^2 + "
        "(2*y^10 + 2*y^9 + 4*y^8 + y^7 - y^6 - 2*y^5 - 5*y^4 - 2*y^3 + y^2)*x + "
        "(2*y^11 + 2*y^10 + 2*y^9 + 2*y^8 - 2*y^7 - 4*y^6 - 6*y^5 - 2*y^4 "
        "+ 6*y^3 + 2*y^2)",
        "y^2*x^4 + 7*y*x^3 + (y^3 + 9)*x^2 + 5/2*y^2*x + 1/2*y",
    ]
    assert [str(p) for p in products] == expected


def test_skew_simplicity_weyl(A1):
    verdict = skew_simplicity(A1)
    assert verdict.status is SimplicityStatus.SIMPLE


def test_skew_simplicity_negative():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    ring = build_skew_ring(base, ["x"], [Derivation(base, [y])])
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [y]


def test_skew_simplicity_circle_rotation():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x1 ** 2 + x2 ** 2 - 1]))
    rot = Derivation(ring, [-x2, x1])
    S = build_skew_ring(ring, ["t"], [rot])
    verdict = skew_simplicity(S)
    assert verdict.status is SimplicityStatus.SIMPLE


def test_skew_simplicity_never_simple_with_witness():
    # whenever a principal witness exists the verdict must not be Simple
    ctx = VarContext(("y1", "y2"), QQ)
    y1 = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    d = Derivation(base, [y1, ctx.one])  # d(y1) = y1 stabilizes (y1)
    ring = build_skew_ring(base, ["x"], [d])
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE


def test_skew_simplicity_char_p_unknown():
    ctx = VarContext(("y",), GF(5))
    base = QuotientRing.trivial(ctx)
    ring = build_skew_ring(base, ["x"], [Derivation.partial(base, 0)])
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.UNKNOWN


def test_quotient_base_products_golden_output():
    ring = _circle_rotation_ring()
    x1, x2 = ring.base.context.var(0), ring.base.context.var(1)
    t, X1, X2 = ring.skew_var(), ring.from_base(x1), ring.from_base(x2)
    products = [t * X1, X1 * t ** 2 * X1, (X1 * t + X2) * (X2 * t - X1),
                (t + X2) ** 2 * (X1 - t)]
    # printed when every partial product was reduced on its own; the
    # t^2 coefficient of x1*t^2*x1 is x1^2 reduced by x1^2 + x2^2 - 1
    expected = [
        "x1*t - x2",
        "(-x2^2 + 1)*t^2 - 2*x1*x2*t + (x2^2 - 1)",
        "x1*x2*t^2 + x2^2*t",
        "-t^3 + (x1 - 2*x2)*t^2 + (2*x1*x2 - x1 - x2^2 - 2*x2)*t "
        "+ (x1*x2^2 - x1 - 3*x2^2 + 1)",
    ]
    assert [str(p) for p in products] == expected
    assert SkewPoly(ring, {(1,): x1 ** 2 + x2 ** 2 - 1}).is_zero()


def _ore_shapes():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    sq = RingEndomorphism(ctx, [y ** 2])
    base = QuotientRing.trivial(ctx)
    return [SingleOreDescriptor(ctx, "x", sq),
            SingleOreDescriptor(ctx, "x", sq, family_skew_derivation(y + 1, sq)),
            SingleOreDescriptor(base, "x", RingEndomorphism.identity(ctx),
                                Derivation.partial(base, 0))]


@pytest.mark.parametrize("ring", _ore_shapes(),
                         ids=["endo", "family", "derivation"])
def test_ore_push_edges(ring):
    ctx = ring.base.context
    y = ctx.var(0)
    for r in (y, 3 * y ** 2 - 1, ctx.one):
        assert ring.push((0,), r) == {(0,): r}
    for n in range(4):
        assert ring.push((n,), ctx.zero) == {}


def test_skew_equality_with_foreign_values_is_false():
    A1 = weyl_algebra(1)
    x = A1.skew_var(0)
    z = VarContext(("z",), QQ).var(0)
    five = GF(5).element(1)
    assert not x == z and x != z and z != x
    assert z not in [x] and x not in [z]
    assert not A1.one() == five and A1.one() != five
    assert five not in [A1.one()] and A1.one() not in [five]
    assert A1.one() == QQ.element(1) and A1.one() == 1
    assert A1.from_base(A1.base.context.var(0)) == A1.base.context.var(0)


def test_skew_equality_with_a_vanishing_denominator_is_false():
    one = weyl_algebra(1, GF(5)).one()
    fifth = Fraction(1, 5)
    assert not one == fifth and one != fifth
    assert fifth not in [one] and one not in [fifth]
    assert one == Fraction(6, 1)


def test_foreign_coefficients_refused_over_a_polynomial_base():
    # a polynomial base still checks the context of caller input
    A1 = weyl_algebra(1)
    z = VarContext(("z",), QQ).var(0)
    with pytest.raises(ContextMismatchError):
        A1.from_base(z)
    with pytest.raises(ContextMismatchError):
        SkewPoly(A1, {(1,): z})
    with pytest.raises(ContextMismatchError):
        binomial_push(A1, 0, 2, z)
    with pytest.raises(ContextMismatchError):
        A1.derivations[0].apply(z)
