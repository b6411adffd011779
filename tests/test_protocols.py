"""One identity rule and one subtraction rule for the library's types.

The field, context, ideal, basis, ring, derivation and skew-ring handles
compare and hash by one key (`field._Keyed`); `FieldElement`, `Poly` and
`SkewPoly` subtract through `+` and negation (`field._Arithmetic`); and a
`Poly` builds its hash once and pickles without it.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import derivalg
from derivalg import (GF, QQ, Derivation, FieldMismatchError, FieldSpec,
                      GroebnerBasis, IdealHandle, QuotientRing,
                      SkewRingDescriptor, TermOrder, VarContext, weyl_algebra)
from derivalg import poly


def _handles():
    """Each keyed type's instance, built afresh, beside the tuple its hash
    hashes."""
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    ideal = IdealHandle(ctx, [x**2 + y**2 - 1])
    basis = GroebnerBasis(ctx, TermOrder.GREVLEX, ideal.generators)
    ring = QuotientRing(ctx, ideal, basis)
    d = Derivation(ring, [-y, x])
    return {
        "FieldSpec": (FieldSpec(), ("FieldSpec", None)),
        "VarContext": (ctx, (("x", "y"), QQ)),
        "IdealHandle": (ideal, (ctx, ideal.generators)),
        "GroebnerBasis": (basis, (ctx, TermOrder.GREVLEX, basis.polys)),
        "QuotientRing": (ring, (ctx, basis)),
        "Derivation": (d, (ring, d.images)),
        "SkewRingDescriptor": (SkewRingDescriptor(ring, ["t"], [d]),
                               (ring, ("t",), (d,))),
    }


KEYED = list(_handles())


@pytest.mark.parametrize("name", KEYED)
def test_separately_built_handles_are_equal_and_hash_alike(name):
    (a, key), (b, _) = _handles()[name], _handles()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(key)


@pytest.mark.parametrize("name", KEYED)
def test_a_handle_equals_no_instance_of_another_class(name):
    handles = _handles()
    a, key = handles[name]
    assert a != key
    for other, (b, _) in handles.items():
        if other != name:
            assert a != b and b != a


def test_an_ideal_is_not_the_basis_of_the_same_polynomials():
    ctx = VarContext(("x", "y"), QQ)
    gens = [ctx.var(0), ctx.var(1)]
    ideal = IdealHandle(ctx, gens)
    basis = GroebnerBasis(ctx, TermOrder.GREVLEX, gens)
    assert ideal.generators == basis.polys
    assert ideal != basis and basis != ideal


def _values():
    """(a, b, scalars) of each subtracting type; the scalars go on either
    side of `-`."""
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    weyl = weyl_algebra(1)
    t, s = weyl.variable("x"), weyl.variable("y")
    base = weyl.base.context.var(0)
    scalars = [3, Fraction(-2, 3), QQ.element(Fraction(5, 4))]
    return {
        "FieldElement": (QQ.element(Fraction(1, 2)), QQ.element(7), scalars),
        "Poly": (x**2 - Fraction(1, 3) * y, x * y + 4, scalars),
        "SkewPoly": (t * s + Fraction(1, 2), s**2 - t, scalars + [base**2 + 1]),
    }


SUBTRACTING = list(_values())


@pytest.mark.parametrize("name", SUBTRACTING)
def test_difference_is_the_sum_with_the_negation(name):
    a, b, _ = _values()[name]
    assert a - b == a + (-b)
    assert b - a == b + (-a)
    assert a - a == 0


@pytest.mark.parametrize("name", SUBTRACTING)
def test_reflected_difference_with_each_scalar(name):
    a, _, scalars = _values()[name]
    for c in scalars:
        assert c - a == -(a - c)
        assert (c - a) + a == c
        assert type(c - a) is type(a) and type(a - c) is type(a)


@pytest.mark.parametrize("name", SUBTRACTING)
def test_difference_with_a_string_is_a_type_error(name):
    a, _, _ = _values()[name]
    with pytest.raises(TypeError):
        a - "x"
    with pytest.raises(TypeError):
        "x" - a


@pytest.mark.parametrize("name", SUBTRACTING)
def test_difference_across_fields_is_refused(name):
    a, _, _ = _values()[name]
    other = GF(7).element(3)
    with pytest.raises(FieldMismatchError):
        a - other
    with pytest.raises(FieldMismatchError):
        other - a


def test_a_poly_builds_its_hash_once(monkeypatch):
    built = []

    def counting(items):
        built.append(items)
        return frozenset(items)
    monkeypatch.setattr(poly, "frozenset", counting, raising=False)
    ctx = VarContext(("x", "y"), QQ)
    f = ctx.var(0) ** 2 - Fraction(1, 3) * ctx.var(1)
    assert hash(f) == hash(f) == hash((ctx, frozenset(f._terms.items())))
    assert len(built) == 1


def test_a_pickled_poly_is_found_under_another_hash_seed():
    ctx = VarContext(("x", "y"), GF(7))
    f = ctx.var(0) ** 2 - 3 * ctx.var(1)
    hash(f)
    assert pickle.loads(pickle.dumps(f)) == f
    code = ("import pickle, sys\n"
            "from derivalg import GF, VarContext\n"
            "p = pickle.loads(sys.stdin.buffer.read())\n"
            "ctx = VarContext(('x', 'y'), GF(7))\n"
            "q = ctx.var(0) ** 2 - 3 * ctx.var(1)\n"
            "print(q == p, q in {p}, p in {q})")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(derivalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(f),
                         env=env, check=True, capture_output=True).stdout
    assert out.decode().split() == ["True", "True", "True"]
