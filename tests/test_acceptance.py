"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything here is exact; there are no tolerances to tune.
"""

import json
import pathlib
import random
import subprocess
import sys

import pytest

from derivalg import (
    GF,
    QQ,
    DarbouxStatus,
    Derivation,
    IdealHandle,
    NonCommutingDerivationsError,
    Poly,
    QuotientRing,
    SimplicityStatus,
    SkewRingDescriptor,
    TermOrder,
    VarContext,
    binomial_push,
    certificate,
    d_ideal_check,
    darboux_search,
    dim1_simplicity,
    groebner_basis,
    ideal_member,
    inner_induced,
    inner_residuals,
    is_unit_ideal,
    krull_dimension,
    normal_form,
    prime_char_obstruction,
    skew_simplicity,
    weyl_algebra,
)
from derivalg.groebner import _initial_dimension

from conftest import rand_poly
from test_groebner import member_oracle
from test_skew import custom_two_derivation_ring, fold_push, rand_skew

DATA = pathlib.Path(__file__).parent / "data"


def _pass(n, label):
    print(f"ACCEPTANCE CRITERION {n:2d} PASS - {label}")


def test_criterion_01_weyl_relations():
    for n in (1, 2, 3):
        ring = weyl_algebra(n)
        for i in range(n):
            for j in range(n):
                xi, xj = ring.skew_var(i), ring.skew_var(j)
                yi, yj = ring.base_var(i), ring.base_var(j)
                assert (xi * yj - yj * xi) == (ring.one() if i == j else ring.zero())
                assert (xi * xj - xj * xi).is_zero()
                assert (yi * yj - yj * yi).is_zero()
    _pass(1, "Weyl relations hold exactly in A_1, A_2, A_3")


def test_criterion_02_binomial_push_oracle():
    rng = random.Random(8080)
    rings = [weyl_algebra(1), custom_two_derivation_ring()]
    checked = 0
    for k in range(50):
        ring = rings[k % len(rings)]
        r = rand_poly(rng, ring.base.context, max_degree=3, max_terms=3)
        i = k % ring.nskew
        for n in range(7):
            assert binomial_push(ring, i, n, r) == fold_push(ring, i, n, r)
        checked += 1
    assert checked == 50
    _pass(2, "binomial push equals n-fold single-step rewriting (n <= 6)")


def test_criterion_03_associativity():
    rng = random.Random(360)
    rings = [weyl_algebra(1), weyl_algebra(2), custom_two_derivation_ring()]
    total = 0
    for ring in rings:
        count = 67 if ring is not rings[-1] else 66
        for _ in range(count):
            u = rand_skew(rng, ring, x_degree=3, base_degree=2)
            v = rand_skew(rng, ring, x_degree=3, base_degree=2)
            w = rand_skew(rng, ring, x_degree=3, base_degree=2)
            assert (u * v) * w == u * (v * w)
            total += 1
    assert total == 200
    _pass(3, "200 random skew-product triples associate exactly")


def test_criterion_04_commuting_gate():
    ctx = VarContext(("y1", "y2"), QQ)
    y1, y2 = ctx.var(0), ctx.var(1)
    base = QuotientRing.trivial(ctx)
    d1 = Derivation(base, [y2, ctx.zero])
    d2 = Derivation(base, [ctx.zero, y1])
    with pytest.raises(NonCommutingDerivationsError) as err:
        SkewRingDescriptor(base, ["t1", "t2"], [d1, d2])
    assert err.value.witness == -y1
    partials = [Derivation.partial(base, i) for i in range(2)]
    ring = SkewRingDescriptor(base, ["t1", "t2"], partials)
    assert ring.derivations == tuple(partials)
    _pass(4, "non-commuting pair refused with witness -y1; partials accepted")


def test_criterion_05_sphere_tangency():
    ctx = VarContext(("x", "y", "z"), QQ)
    x, y, z = (ctx.var(i) for i in range(3))
    relation = x ** 2 + y ** 2 + z ** 2 - 1
    d1 = Derivation(ctx, [y + z, z - x, -x - y])
    d2 = Derivation(ctx, [y + 2 * z, x * y * z - x, -x * y ** 2 - 2 * x])
    assert d1.apply(relation).is_zero()
    assert d2.apply(relation).is_zero()
    sphere = QuotientRing.of(IdealHandle(ctx, [relation]))
    for d in (d1, d2):
        induced = Derivation(sphere, d.images)
        assert induced.ring == sphere
    _pass(5, "both sphere derivations annihilate the relation and descend")


def test_criterion_06_circle_simplicity():
    ctx = VarContext(("x1", "x2"), QQ)
    x1, x2 = ctx.var(0), ctx.var(1)
    circle = x1 ** 2 + x2 ** 2 - 1
    handle = IdealHandle(ctx, [circle])
    assert krull_dimension(handle) == 1
    ring = QuotientRing.of(handle)
    rot = Derivation(ring, [-x2, x1])
    verdict = dim1_simplicity(ring, rot)
    assert verdict.status is SimplicityStatus.SIMPLE
    # unit-ideal witness replay: 1 = x1*x1 + (-x2)*(-x2) - 1*(x1^2 + x2^2 - 1)
    combination = x1 * x1 + (-x2) * (-x2) - ctx.one * circle
    assert combination == ctx.one
    image_ideal = IdealHandle(ctx, [-x2, x1, circle])
    assert is_unit_ideal(image_ideal)
    assert normal_form(ctx.one, groebner_basis(image_ideal)).is_zero()
    _pass(6, "circle + rotation is Simple with a replayable unit-ideal witness")


def test_criterion_07_negative_control():
    ctx = VarContext(("y",), QQ)
    y = ctx.var(0)
    ring = QuotientRing.trivial(ctx)
    d = Derivation(ring, [y])
    verdict = dim1_simplicity(ring, d)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(verdict.witness.generators) == [y]
    skew = SkewRingDescriptor(ring, ["x"], [d])
    skew_verdict = skew_simplicity(skew)
    assert skew_verdict.status is SimplicityStatus.NOT_SIMPLE
    assert list(skew_verdict.witness.generators) == [y]
    _pass(7, "Q[y] with y*d/dy and its skew ring are NotSimple with witness (y)")


def test_criterion_08_certificates():
    rng = random.Random(1881)
    ctx = VarContext(("x1", "x2", "x3"), QQ)
    ring = QuotientRing.trivial(ctx)
    partials = [Derivation.partial(ring, i) for i in range(3)]
    for _ in range(100):
        f = rand_poly(rng, ctx, max_degree=5, max_terms=6, nonzero=True)
        cert = certificate(ring, f)
        g = f
        for i in cert.word:
            g = partials[i].apply(g)
        assert g == ctx.const(cert.final_constant)
        assert not cert.final_constant.is_zero()

    for p in (2, 3, 5):
        fctx = VarContext(("x1", "x2"), GF(p))
        truncated = QuotientRing.of(
            IdealHandle(fctx, [fctx.var(i) ** p for i in range(2)]))
        induced = [Derivation.partial(truncated, i) for i in range(2)]
        produced = 0
        while produced < 100:
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = (rng.randrange(p), rng.randrange(p))
                terms[mono] = fctx.field.element(rng.randrange(p))
            f = Poly(fctx, terms)
            if f.is_zero():
                continue
            cert = certificate(truncated, f)
            g = f
            for i in cert.word:
                g = induced[i].apply(g)
            assert g == fctx.const(cert.final_constant)
            assert not cert.final_constant.is_zero()
            produced += 1
    _pass(8, "100 char-0 and 100-per-p truncated certificates replay exactly")


def test_criterion_09_charp_obstruction():
    ctx = VarContext(("x",), GF(2))
    ring = QuotientRing.trivial(ctx)
    d = Derivation.partial(ring, 0)
    verdict = prime_char_obstruction(ring)
    assert verdict.status is SimplicityStatus.NOT_SIMPLE
    witness = verdict.witness
    assert witness is not None
    assert d_ideal_check(witness, [d])
    assert not is_unit_ideal(witness)
    assert witness.generators  # nonzero
    _pass(9, "F_2[x] with d/dx is NotSimple with a verified D-stable witness")


def test_criterion_10_darboux():
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    found = darboux_search(y, 3)
    assert found.status is DarbouxStatus.FOUND
    assert found.h == y and found.cofactor == ctx.one

    nowicki = darboux_search(y ** 2 + x, 3)
    assert nowicki.status is DarbouxStatus.NONE_UP_TO_BOUND
    assert nowicki.bound == 3

    for F, bound in ((y, 3), (ctx.zero, 2), (x * y, 3), (y ** 2, 3)):
        result = darboux_search(F, bound)
        if result.status is DarbouxStatus.FOUND:
            lhs = result.h.partial(0) + F * result.h.partial(1)
            assert lhs == result.cofactor * result.h
            assert not result.h.is_constant()
    _pass(10, "Darboux search: (y, 1) found; y^2 + x clean up to degree 3")


def test_criterion_11_inner_derivations():
    A1 = weyl_algebra(1)
    x, y = A1.skew_var(0), A1.base_var(0)
    analysis = inner_induced(A1, x)
    assert analysis.induced
    assert analysis.derivation == Derivation.partial(A1.base, 0)

    failing = inner_induced(A1, x ** 2 + y * x)
    assert not failing.induced
    assert failing.offending_generator == "y"
    assert failing.residual == 2 * x + y

    rng = random.Random(909)
    for _ in range(50):
        nvars = rng.randint(1, 2)
        ctx = VarContext(tuple(f"y{i}" for i in range(1, nvars + 1)), QQ)
        base = QuotientRing.trivial(ctx)
        d = Derivation(base, [rand_poly(rng, ctx, max_degree=1, max_terms=2)
                              for _ in range(nvars)])
        ring = SkewRingDescriptor(base, ["x"], [d])
        f = rand_skew(rng, ring, x_degree=3, base_degree=1)
        analysis = inner_induced(ring, f)
        residuals_zero = all(
            r.is_zero()
            for g in range(nvars)
            for r in inner_residuals(ring, f, ctx.var(g)))
        assert analysis.induced == residuals_zero
    _pass(11, "inner analysis matches the coefficient residual criterion")


def test_criterion_12_groebner_oracle():
    rng = random.Random(5150)
    ideals = 0
    while ideals < 50:
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:nvars]), QQ)
        gens = [rand_poly(rng, ctx, max_degree=rng.randint(1, 3),
                          max_terms=3, nonzero=True)
                for _ in range(rng.randint(1, 2))]
        handle = IdealHandle(ctx, gens)
        combo = ctx.zero
        for g in gens:
            combo = combo + rand_poly(rng, ctx, max_degree=1, max_terms=2) * g
        for f in (combo, rand_poly(rng, ctx, max_degree=3, max_terms=3)):
            assert ideal_member(f, handle) == member_oracle(f, handle)
        ideals += 1

    ctx2 = VarContext(("x", "y"), QQ)
    x, y = ctx2.var(0), ctx2.var(1)
    ctx3 = VarContext(("x", "y", "z"), QQ)
    sx, sy, sz = (ctx3.var(i) for i in range(3))
    fixed = [
        IdealHandle(ctx2, []),
        IdealHandle(ctx2, [x * y]),
        IdealHandle(ctx2, [x ** 2 + y ** 2 - 1]),
        IdealHandle(ctx2, [x, y]),
        IdealHandle(ctx3, [sx ** 2 + sy ** 2 + sz ** 2 - 1]),
        IdealHandle(ctx3, [sx * sy, sy * sz]),
    ]
    for handle in fixed:
        assert (_initial_dimension(groebner_basis(handle, TermOrder.LEX))
                == krull_dimension(handle))
    _pass(12, "membership matches the cofactor oracle on 50 ideals; "
              "dimension is order-independent")


def test_criterion_13_cli_round_trip():
    session_file = DATA / "acceptance_session.dsl"
    cmd = [sys.executable, "-m", "derivalg", "--json", "run", str(session_file)]
    first = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    records = [json.loads(line) for line in first.stdout.splitlines()]
    by_command = {}
    for record in records:
        by_command.setdefault(record["command"], []).append(record)

    # criterion 1 content: all commutator muls evaluate to 1 or 0
    weyl_muls = [r for r in by_command["mul"]
                 if r["result"]["str"] in ("1", "0")]
    assert len(weyl_muls) >= 11
    # criterion 5 content: both sphere applications give 0, D-ideal true
    applies = by_command["apply"]
    assert all(r["result"]["str"] == "0" for r in applies)
    assert by_command["check_dideal"][0]["d_ideal"] is True
    # criterion 6 content: dimension 1 and a Simple verdict
    assert by_command["dim"][0]["dimension"] == 1
    assert by_command["check_dsimple"][0]["status"] == "Simple"
    assert any(r["result"]["str"] == "1" for r in by_command["mul"])
    # criterion 11 content: inner analyses
    inner = by_command["inner"]
    assert inner[0]["inner_induced"] is True and inner[0]["images"] == {"y": "1"}
    assert inner[1]["inner_induced"] is True and inner[1]["images"] == {"y": "0"}
    assert inner[2]["inner_induced"] is False
    assert inner[2]["residual"] == "2*x + y"
    assert by_command["check_simple"][0]["status"] == "Simple"
    _pass(13, "session replay is byte-identical and reproduces the criteria")
