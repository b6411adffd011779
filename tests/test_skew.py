"""Skew polynomial rings: normal-form products, Weyl relations, extensions,
inner derivations, and the simplicity verdict."""

import itertools
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
    Poly,
    QuotientRing,
    SimplicityStatus,
    SkewPoly,
    SkewRingDerivation,
    SkewRingDescriptor,
    VarContext,
    binomial_push,
    d_simplicity,
    inner_induced,
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
    ring = SkewRingDescriptor(base, ["x"], [Derivation.partial(base, 0)])
    y = ctx.var(0)
    pushed = binomial_push(ring, 0, 2, y ** 2)
    assert pushed == ring.from_base(y ** 2) * ring.skew_var(0) ** 2
    rng = random.Random(15)
    for n in range(5):
        for _ in range(5):
            r = rand_poly(rng, ctx, max_degree=3, max_terms=3)
            assert binomial_push(ring, 0, n, r) == fold_push(ring, 0, n, r)


def fold_push_vector(ring, exponents, r):
    """Oracle: x^(a) * r by `fold_push`, one skew variable at a time."""
    acc = {(0,) * ring.nskew: r}
    for i, n in enumerate(exponents):
        nxt = {}
        for e, c in acc.items():
            for pe, pc in fold_push(ring, i, n, c).terms.items():
                key = tuple(a + b for a, b in zip(e, pe))
                nxt[key] = nxt.get(key, ring.base.context.zero) + pc
        acc = nxt
    return SkewPoly(ring, acc).terms


def two_derivation_quotient_ring():
    # QQ[x, y]/(x^2 - 1) with D = {d/dy, x d/dy}: the two commute and keep
    # (x^2 - 1), and repeated x d/dy makes x^2 terms that reduce to 1
    ctx = VarContext(("x", "y"), QQ)
    x = ctx.var(0)
    base = QuotientRing.of(IdealHandle(ctx, [x ** 2 - 1]))
    dy = Derivation(base, [ctx.zero, ctx.one])
    x_dy = Derivation(base, [ctx.zero, x])
    return SkewRingDescriptor(base, ["s", "t"], [dy, x_dy])


@pytest.mark.parametrize("make_ring", [two_derivation_quotient_ring,
                                       lambda: weyl_algebra(2, GF(3))],
                         ids=["quotient", "A2-GF3"])
def test_push_matches_folded_single_step_oracle(make_ring):
    # in GF(3), C(3, 1) and C(3, 2) vanish, so x_i^3 pushes drop their
    # middle terms
    ring = make_ring()
    ctx = ring.base.context
    rng = random.Random(27)
    for a in ((1, 2), (3, 0), (0, 3), (3, 3), (2, 4), (4, 1)):
        for _ in range(4):
            r = ring.base.reduce(rand_poly(rng, ctx, max_degree=3, max_terms=3))
            assert ring.push(a, r) == fold_push_vector(ring, a, r)


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
    return SkewRingDescriptor(base, ["t1", "t2"], [d1, d2])


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
    ring = SkewRingDescriptor(circle, ["t"], [rot])
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
        SkewRingDescriptor(base, ["t1", "t2"], [d1, d2])
    assert err.value.generator == "y1"
    assert err.value.witness == -y1

    partials = [Derivation.partial(base, i) for i in range(2)]
    ring = SkewRingDescriptor(base, ["t1", "t2"], partials)
    assert ring.derivations == tuple(partials)

    single = SkewRingDescriptor(base, ["t"], [d1])
    assert single.derivations == (d1,)


def test_extend_derivation_coefficientwise():
    ctx = VarContext(("y", "z"), QQ)
    base = QuotientRing.trivial(ctx)
    ring = SkewRingDescriptor(base, ["x"], [Derivation.partial(base, 0)])
    dz = Derivation.partial(base, 1)
    ext = SkewRingDerivation(ring, dz)
    z = ring.from_base(ctx.var(1))
    y = ring.from_base(ctx.var(0))
    x = ring.skew_var(0)
    assert ext.apply(z * x + y) == x


def test_extend_derivation_self(A1):
    dy = Derivation.partial(A1.base, 0)
    ext = SkewRingDerivation(A1, dy)
    y, x = A1.base_var(0), A1.skew_var(0)
    assert ext.apply(y * x) == x


def test_extend_derivation_refused():
    ctx = VarContext(("y",), QQ)
    base = QuotientRing.trivial(ctx)
    ring = SkewRingDescriptor(base, ["x"], [Derivation.partial(base, 0)])
    ydy = Derivation(base, [ctx.var(0)])
    with pytest.raises(NonCommutingDerivationsError) as err:
        SkewRingDerivation(ring, ydy)
    assert str(err.value) == (
        "cannot extend: the derivation does not commute with the structure "
        "derivation of x (commutator sends y to -1)")
    assert (err.value.first, err.value.second) == (ydy, ring.derivations[0])
    assert (err.value.generator, err.value.witness) == ("y", -ctx.one)
    other = QuotientRing.trivial(VarContext(("z",), QQ))
    with pytest.raises(ContextMismatchError, match="does not live on the base"):
        SkewRingDerivation(ring, Derivation.partial(other, 0))


def test_extension_leibniz_against_skew_mul(A1):
    rng = random.Random(77)
    ext = SkewRingDerivation(A1, Derivation.partial(A1.base, 0))
    for _ in range(25):
        u = rand_skew(rng, A1)
        v = rand_skew(rng, A1)
        assert ext.apply(u * v) == ext.apply(u) * v + u * ext.apply(v)


def test_skew_power_makes_no_product_by_the_unit(A1, monkeypatch):
    # repeated multiplication from u: u^k takes k - 1 products, u^0 none
    from derivalg import skew
    u = A1.skew_var(0) + A1.base_var(0)
    expected = [A1.one()]
    for _ in range(6):
        expected.append(expected[-1] * u)
    calls = []
    mul = skew.skew_mul

    def counted(ring, a, b):
        calls.append(1)
        return mul(ring, a, b)

    monkeypatch.setattr(skew, "skew_mul", counted)
    for k, power in enumerate(expected):
        calls.clear()
        assert u ** k == power
        assert len(calls) == max(k - 1, 0)
    assert u ** 1 is u


def pairwise_push_product(ring, u, v):
    """Oracle: u * v as the sum over every pair of terms of r_a * x^(a) * s_b
    * x^(b), each x^(a) * s_b expanded afresh by the binomial rule one
    variable at a time, scaling at every variable step."""
    acc = {}
    for a, r in u.terms.items():
        for b, s in v.terms.items():
            pushed = {(0,) * ring.nskew: s}
            for i, n in enumerate(a):
                nxt = {}
                for e, c in pushed.items():
                    for k in range(n + 1):
                        key = (*e[:i], e[i] + n - k, *e[i + 1:])
                        nxt[key] = (nxt.get(key, ring.base.context.zero)
                                    + c.scale(math.comb(n, k)))
                        c = ring.derivations[i].apply(c)
                pushed = nxt
            for e, c in pushed.items():
                key = tuple(x + y for x, y in zip(e, b))
                acc[key] = acc.get(key, ring.base.context.zero) + r * c
    return SkewPoly(ring, acc)


def _nonlinear_skew(rng, ring):
    """A `rand_skew` of skew degree 2 with two terms or more, one of them with
    a non-constant coefficient."""
    while True:
        u = rand_skew(rng, ring, x_degree=2, base_degree=2)
        if (u.x_degree() == 2 and len(u.terms) > 1
                and not all(r.is_constant() for r in u.terms.values())):
            return u


@pytest.mark.parametrize("make_ring", [
    lambda: weyl_algebra(1), lambda: weyl_algebra(2), lambda: weyl_algebra(3),
    lambda: weyl_algebra(1, GF(3)), lambda: weyl_algebra(2, GF(3)),
    lambda: weyl_algebra(3, GF(3)), lambda: weyl_algebra(2, GF(32003)),
    lambda: weyl_algebra(3, GF(32003)), two_derivation_quotient_ring,
    lambda: _circle_rotation_ring()],
    ids=["A1", "A2", "A3", "A1-GF3", "A2-GF3", "A3-GF3", "A2-GF32003",
         "A3-GF32003", "quotient", "circle-rotation"])
def test_products_and_powers_match_the_pairwise_push_oracle(make_ring):
    # skew-degree 3 and more reaches C(3, k) = 0 mod 3 over GF(3); over
    # GF(32003) the unreduced sums of one output coefficient pass p before
    # its one reduction; and the quotient bases reduce their derivatives mod
    # the defining ideal
    ring = make_ring()
    rng = random.Random(36)
    for _ in range(12):
        u = rand_skew(rng, ring, x_degree=4, base_degree=3)
        v = rand_skew(rng, ring, x_degree=4, base_degree=3)
        assert u * v == pairwise_push_product(ring, u, v)
    # a linear u, and a nonlinear one whose terms s_b are not constants, so
    # the pushes a power keeps carry deeper derivative tables
    for u, top in ((rand_skew(rng, ring, x_degree=1, base_degree=1), 7),
                   (_nonlinear_skew(rng, ring), 4)):
        power = ring.one()
        for k in range(top + 1):
            assert u ** k == power
            power = pairwise_push_product(ring, power, u)


def _linear_weyl(seed, n=2, field=QQ):
    """A seeded u = c0 + sum c_v * v over the generators v of A_n, with the
    powers u^2 and u^5 as left factors of u."""
    A = weyl_algebra(n, field)
    rng = random.Random(seed)
    u = A.one() * rng.randint(1, 9)
    for name in A.names + A.base.context.names:
        u = u + A.variable(name) * rng.randint(1, 9)
    return u, {k: u ** k for k in (2, 5)}


def test_skew_product_takes_each_derivative_once(monkeypatch):
    # each derivative d^k(s) of a term s of the right factor is taken once
    # per product, so the count does not grow with the left factor: for a
    # linear u, u^2 already has every x^(a) that reaches a nonzero d^k(s)
    u, left = _linear_weyl(5)
    calls = []
    apply = Derivation.apply

    def counted(self, f):
        calls.append(1)
        return apply(self, f)

    monkeypatch.setattr(Derivation, "apply", counted)
    counts = {}
    for k, w in left.items():
        calls.clear()
        w * u
        counts[k] = len(calls)
    assert len(left[5].terms) > len(left[2].terms)
    assert counts[5] == counts[2] > 0


@pytest.mark.parametrize("n, field", [(2, QQ), (3, QQ), (3, GF(32003))],
                         ids=["A2", "A3", "A3-GF32003"])
def test_skew_power_expands_its_right_factor_once(n, field, monkeypatch):
    # u ** 6 keeps u's derivative tables and its expansions x^(a) * s_b over
    # its five products, so it takes each d^k(s_b) and expands each x^(a) *
    # s_b once in all; for a linear u the exponents of u^5 hold those of
    # every lower power, so the single product u^5 * u does the same work
    u, left = _linear_weyl(5, n, field)
    calls = {"apply": 0, "push": 0}
    apply, push = Derivation.apply, SkewRingDescriptor._push

    def counted_apply(self, f):
        calls["apply"] += 1
        return apply(self, f)

    def counted_push(self, *args):
        calls["push"] += 1
        return push(self, *args)

    monkeypatch.setattr(Derivation, "apply", counted_apply)
    monkeypatch.setattr(SkewRingDescriptor, "_push", counted_push)
    power = u ** 6
    powered = dict(calls)
    calls.update(apply=0, push=0)
    product = left[5] * u
    assert power == product
    assert powered == calls
    assert calls["apply"] > 0
    assert calls["push"] == len(left[5].terms) * len(u.terms)


def test_skew_product_sums_each_coefficient_in_one_term_map(monkeypatch):
    # every product r_a * d^k(s_b) is added in place into the raw term map of
    # its output exponent, and the derivative tables apply the chain rule in
    # one raw term map too, so no Poly is multiplied or added at all
    u, left = _linear_weyl(7)
    calls = {"mul": 0, "add": 0}
    mul, add = Poly.__mul__, Poly.__add__

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__add__", counted_add)
    counts = {}
    for k, w in left.items():
        calls.update(mul=0, add=0)
        w * u
        counts[k] = dict(calls)
    assert len(left[5].terms) > len(left[2].terms)
    assert counts[5]["mul"] == counts[2]["mul"] == 0
    assert counts[5]["add"] == counts[2]["add"] == 0


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


def _residuals(ring, f, r):
    """The x^1 .. x^n coefficients of f*r - r*f, n the x-degree of f, read
    off skew_commutator: all zero on every generator exactly when
    conjugation by f lands in the base ring."""
    comm = skew_commutator(f, ring.from_base(r))
    return [comm.coefficient((k,)) for k in range(1, f.x_degree() + 1)]


def test_inner_residuals_examples(A1):
    ctx = A1.base.context
    y = ctx.var(0)
    x = A1.skew_var(0)

    res = _residuals(A1, x, y)
    assert len(res) == 1 and res[0].is_zero()

    f = x ** 2 + A1.from_base(y) * x
    res = _residuals(A1, f, y)
    assert [str(r) for r in res] == ["2", "0"]

    res = _residuals(A1, A1.from_base(ctx.const(7)), y)
    assert res == []


def test_inner_residuals_match_analysis_randomized():
    rng = random.Random(4242)
    for trial in range(50):
        nvars = rng.randint(1, 2)
        ctx = VarContext(tuple(f"y{i}" for i in range(1, nvars + 1)), QQ)
        base = QuotientRing.trivial(ctx)
        d = Derivation(base, [rand_poly(rng, ctx, max_degree=1, max_terms=2)
                              for _ in range(nvars)])
        ring = SkewRingDescriptor(base, ["x"], [d])
        f = rand_skew(rng, ring, x_degree=3, base_degree=1)
        analysis = inner_induced(ring, f)
        all_zero = all(
            r.is_zero()
            for g in range(nvars)
            for r in _residuals(ring, f, ctx.var(g)))
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
    return SkewRingDescriptor(circle, ["t"], [Derivation(circle, [-x2, x1])])


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
        assert _residuals(ring, f, r) == closed_form_residuals(ring, f, r)


def test_skew_power_rsub_and_hash():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    ring = SkewRingDescriptor(ctx, ["x"], [Derivation(ctx, [y + 1])])
    x = ring.skew_var()
    u = (y - 1) * x ** 2 + x + 3 * y
    assert u ** 3 == u * u * u
    assert 2 - u == -(u - 2)
    twin = SkewPoly(ring, {(2,): y - 1, (1,): ctx.one, (0,): 3 * y})
    assert twin == u
    assert hash(twin) == hash(u)
    assert len({u, twin, u * x}) == 2


def test_skew_ring_descriptors_compare_by_value():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    builds = [
        lambda: SkewRingDescriptor(base, ["x"], [Derivation.partial(base, 0)]),
        lambda: SkewRingDescriptor(ctx, ["x"], [Derivation(ctx, [y + 1])]),
        lambda: _circle_rotation_ring(),
    ]
    for build in builds:
        first, second = build(), build()
        assert first == second and hash(first) == hash(second)
        total = first.skew_var() + second.base_var(0)
        assert total.ring == first
    rings = [build() for build in builds]
    assert len(set(rings)) == 3


def test_ore_products_golden_output():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    ring = SkewRingDescriptor(base, ["x"], [Derivation.partial(base, 0)])
    one = ctx.one
    product = (SkewPoly(ring, {(3,): one, (1,): y, (0,): ctx.const(Fraction(-1, 2))})
               * SkewPoly(ring, {(1,): y ** 2, (0,): y}))
    # printed by a one-variable descriptor that pushed by the single-step
    # rule x*r = r*x + d(r), independent of the binomial push
    assert str(product) == "y^2*x^4 + 7*y*x^3 + (y^3 + 9)*x^2 + 5/2*y^2*x + 1/2*y"


def test_skew_simplicity_weyl(A1):
    verdict = skew_simplicity(A1)
    assert verdict.status is SimplicityStatus.SIMPLE


def test_skew_simplicity_negative():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    ring = SkewRingDescriptor(base, ["x"], [Derivation(base, [y])])
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [y]


def test_skew_simplicity_circle_rotation():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    ring = QuotientRing.of(IdealHandle(ctx, [x1 ** 2 + x2 ** 2 - 1]))
    rot = Derivation(ring, [-x2, x1])
    S = SkewRingDescriptor(ring, ["t"], [rot])
    verdict = skew_simplicity(S)
    assert verdict.status is SimplicityStatus.SIMPLE


def test_skew_simplicity_never_simple_with_witness():
    # whenever a principal witness exists the verdict must not be Simple
    ctx = VarContext(("y1", "y2"), QQ)
    y1 = ctx.var(0)
    base = QuotientRing.trivial(ctx)
    d = Derivation(base, [y1, ctx.one])  # d(y1) = y1 stabilizes (y1)
    ring = SkewRingDescriptor(base, ["x"], [d])
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE


def test_skew_simplicity_char_p_base_not_simple():
    # no constant relation, so GF(5)[y]'s own proper D-stable ideal (y^5)
    # gives the proper two-sided ideal S*(y^5)
    ctx = VarContext(("y",), GF(5))
    base = QuotientRing.trivial(ctx)
    ring = SkewRingDescriptor(base, ["s"], [Derivation.partial(base, 0)])
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [ctx.var(0) ** 5]
    assert verdict.criterion == "positive Krull dimension in characteristic p"


def _dependent_skew_rings():
    """Skew rings over linearly dependent D, each with its central
    z = sum c_i*t_i (c a constant relation of D), in any characteristic;
    for one zero derivation, z = t."""
    plane = VarContext(("x", "y"), QQ)
    P = QuotientRing.trivial(plane)
    a, b, c = (Derivation(P, images) for images in
               ([plane.one, plane.zero], [plane.zero, plane.one],
                [plane.one, plane.one]))
    S1 = SkewRingDescriptor(P, ["t1", "t2", "t3"], [a, b, c])
    circle = VarContext(("x1", "x2"), QQ)
    x1, x2 = circle.var(0), circle.var(1)
    R = QuotientRing.of(IdealHandle(circle, [x1 ** 2 + x2 ** 2 - 1]))
    S2 = SkewRingDescriptor(R, ["t1", "t2"], [Derivation(R, [-x2, x1]),
                                              Derivation(R, [-2 * x2, 2 * x1])])
    L = QuotientRing.trivial(VarContext(("y",), QQ))
    dy = Derivation.partial(L, 0)
    S3 = SkewRingDescriptor(L, ["s1", "s2"], [dy, dy])
    F5 = QuotientRing.trivial(VarContext(("y",), GF(5)))
    S4 = SkewRingDescriptor(F5, ["s1", "s2"], [Derivation.partial(F5, 0)] * 2)
    x = VarContext(("x",), QQ).var(0)
    zeros = [SkewRingDescriptor(R, ["t"], [Derivation(R, [x.context.zero])])
             for R in (QuotientRing.of(IdealHandle(x.context, [x ** 2 + 1])),
                       QuotientRing.trivial(x.context))]
    t = [S.skew_var for S in (S1, S2, S3, S4)]
    return [(S1, t[0](2) - t[0](0) - t[0](1)), (S2, t[1](1) - 2 * t[1](0)),
            (S3, t[2](1) - t[2](0)), (S4, t[3](1) - t[3](0)),
            *((S, S.skew_var()) for S in zeros)]


@pytest.mark.parametrize("case", range(6))
def test_skew_simplicity_dependent_derivations_not_simple(case):
    ring, z = _dependent_skew_rings()[case]
    generators = ([ring.base_var(j) for j in range(ring.base.context.nvars)]
                  + [ring.skew_var(i) for i in range(ring.nskew)])
    # z is central and of t-degree 1, so S*z is a proper two-sided ideal
    assert all(skew_commutator(z, g).is_zero() for g in generators)
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert verdict.witness.generators == (z,)


def _rank(rows, field):
    """The rank of an int matrix over `field`, by Gaussian elimination."""
    rows = [[field.element(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _independent_commuting_sets():
    """(base, D) with D commuting and linearly independent over the base."""
    def partials(ring):
        return [Derivation.partial(ring, i) for i in range(ring.context.nvars)]
    sets = []
    for field in (QQ, GF(5)):
        plane = QuotientRing.trivial(VarContext(("x", "y"), field))
        zero, y = plane.context.zero, plane.context.var(1)
        sets += [(plane, partials(plane)),
                 (plane, [Derivation.partial(plane, 0), Derivation(plane, [zero, y])])]
    for field in (QQ, GF(3)):
        space = QuotientRing.trivial(VarContext(("x", "y", "z"), field))
        sets.append((space, partials(space)))
    circle = _circle_rotation_ring()
    return sets + [(circle.base, list(circle.derivations))]


def test_skew_simplicity_on_constant_combinations_of_independent_sets():
    # D' = D*C for a constant matrix C: D' has a constant relation exactly
    # when C's columns are dependent over k (for m = 1, when C = 0 and D'
    # is the zero derivation); then the witness must be central, and
    # otherwise D' is independent over R and the base's verdict stands
    rng = random.Random(16)
    seen = set()
    for _ in range(80):
        base, D = rng.choice(_independent_commuting_sets())
        field = base.context.field
        m = rng.randint(1, 3)
        C = [[rng.randint(-2, 2) for _ in range(m)] for _ in D]
        shape = rng.random()
        if shape < 0.3:             # one column a combination of the others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            for row in C:
                row[m - 1] = a * row[0] + b * row[1] if m > 1 else 0
        elif shape < 0.6 and m == len(D):   # D itself, reordered
            order = rng.sample(range(m), m)
            C = [[int(order[j] == k) for j in range(m)] for k in range(m)]
        combos = [Derivation(base, [sum((d.images[i].scale(C[k][j])
                                         for k, d in enumerate(D)),
                                        base.context.zero)
                                    for i in range(base.context.nvars)])
                  for j in range(m)]
        ring = SkewRingDescriptor(base, [f"t{j}" for j in range(m)], combos)
        verdict = skew_simplicity(ring)
        dependent = _rank(C, field) < m
        seen.add((field.characteristic > 0, m == 1, dependent, verdict.status))
        if dependent:
            assert verdict.status is SimplicityStatus.NOT_SIMPLE
            (z,) = verdict.witness.generators
            assert z.x_degree() == 1
            generators = ([ring.base_var(i) for i in range(base.context.nvars)]
                          + [ring.skew_var(j) for j in range(m)])
            assert all(skew_commutator(z, g).is_zero() for g in generators)
        else:
            assert verdict == d_simplicity(base, combos)
    # both sides occur for each characteristic, with m = 1 and with m > 1
    assert {case[:3] for case in seen} == set(itertools.product((False, True), repeat=3))
    assert (False, False, False, SimplicityStatus.SIMPLE) in seen
    assert (False, True, False, SimplicityStatus.SIMPLE) in seen


def test_skew_simplicity_unknown_when_dependent_only_over_the_base(monkeypatch):
    # QQ[x, y]/(x^2 - 2) with d/dy and x*d/dy: x is a constant outside QQ,
    # so x*t1 - t2 is central but no relation over QQ shows it; a Simple
    # base verdict must not carry over
    ctx = VarContext(("x", "y"), QQ)
    x = ctx.var(0)
    base = QuotientRing.of(IdealHandle(ctx, [x ** 2 - 2]))
    ring = SkewRingDescriptor(base, ["t1", "t2"],
                              [Derivation(base, [ctx.zero, ctx.one]),
                               Derivation(base, [ctx.zero, x])])
    z = ring.from_base(x) * ring.skew_var(0) - ring.skew_var(1)
    assert skew_commutator(z, ring.base_var(1)).is_zero()
    from derivalg import simplicity
    monkeypatch.setattr(simplicity, "d_simplicity",
                        lambda *args, **kwargs: simplicity.SimplicityVerdict(
                            SimplicityStatus.SIMPLE, criterion="assumed"))
    verdict = skew_simplicity(ring)
    assert verdict.status is SimplicityStatus.UNKNOWN
    assert verdict.reason == "derivations dependent over R, no constant relation found"
    # (G2)'s argument divides by the t-exponents, so in characteristic p
    # even an independent D does not carry a Simple base verdict over
    line = QuotientRing.trivial(VarContext(("y",), GF(5)))
    ring = SkewRingDescriptor(line, ["s"], [Derivation.partial(line, 0)])
    assert skew_simplicity(ring).status is SimplicityStatus.UNKNOWN


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


def _push_shapes():
    base = QuotientRing.trivial(VarContext(("y",), QQ))
    return [SkewRingDescriptor(base, ["x"], [Derivation.partial(base, 0)]),
            _circle_rotation_ring(), weyl_algebra(2)]


@pytest.mark.parametrize("ring", _push_shapes(),
                         ids=["derivation", "circle-rotation", "A2"])
def test_ore_push_edges(ring):
    ctx = ring.base.context
    y = ctx.var(0)
    zero = (0,) * ring.nskew
    for r in (y, 3 * y ** 2 - 1, ctx.one):
        r = ring.base.reduce(r)
        assert ring.push(zero, r) == {zero: r}
    for n in range(4):
        assert ring.push((n,) + zero[1:], ctx.zero) == {}


@pytest.mark.parametrize("exponents", [(-1, 0), (1,), (1, 0, 0)], ids=str)
def test_push_refuses_a_bad_exponent_vector(exponents):
    # (-1, 0) read as x1^-1 * y1 = 0, the others died with a bare KeyError
    A2 = weyl_algebra(2)
    with pytest.raises(ValueError, match="bad skew exponent vector"):
        A2.push(exponents, A2.base.context.var(0))


def test_push_reduces_its_coefficient_and_refuses_another_context():
    A2 = weyl_algebra(2)
    with pytest.raises(ContextMismatchError):
        A2.push((0, 0), VarContext(("a", "b", "c"), QQ).var(2))
    # on the circle x^2 = 1 - y^2, so t * x^2 = (1 - y^2) t - 2xy, which
    # binomial_push already gave; push returned the coefficient x^2 as it was
    ring = _circle_rotation_ring()
    ctx = ring.base.context
    x, y = ctx.var(0), ctx.var(1)
    pushed = ring.push((1,), x ** 2)
    assert pushed == {(1,): 1 - y ** 2, (0,): -2 * x * y}
    assert pushed == ring.push((1,), ring.base.reduce(x ** 2))
    assert SkewPoly._raw(ring, pushed) == binomial_push(ring, 0, 1, x ** 2)


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
