"""Exact field arithmetic: canonical forms, axioms, prime-field inverses."""

import random
from fractions import Fraction

import pytest

from derivalg import (
    GF,
    QQ,
    FieldMismatchError,
    FieldSpec,
    InvalidArgumentError,
    PreconditionError,
)
from derivalg.field import _MR_BOUND, _is_prime


def test_normalize_gcd_reduction():
    assert QQ.from_ratio(2, 4).value == Fraction(1, 2)


def test_normalize_sign():
    e = QQ.from_ratio(3, -3)
    assert e.numerator == -1 and e.denominator == 1


def test_normalize_zero():
    e = QQ.from_ratio(0, 7)
    assert e.numerator == 0 and e.denominator == 1


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        QQ.from_ratio(1, 0)


def test_rational_add():
    assert QQ.from_ratio(1, 2) + QQ.from_ratio(1, 3) == QQ.from_ratio(5, 6)


def test_gf3_mul():
    F3 = GF(3)
    assert F3.element(2) * F3.element(2) == F3.element(1)


def test_gf5_division_matches_brute_force_inverse():
    # oracle: search for b with 2*b == 1 mod 5 by enumeration
    F5 = GF(5)
    inverse = next(b for b in range(1, 5) if (2 * b) % 5 == 1)
    assert inverse == 3
    assert F5.element(1) / F5.element(2) == F5.element(3)


def test_characteristic():
    assert QQ.characteristic == 0
    assert GF(2).characteristic == 2
    assert GF(7).characteristic == 7


def test_primality_validated():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(InvalidArgumentError, match="is not a prime"):
        GF((10 ** 9 + 7) * (10 ** 9 + 9))
    assert GF(10 ** 18 + 3).characteristic == 10 ** 18 + 3
    # past the bound of the test a modulus is refused, prime or not
    with pytest.raises(PreconditionError, match=f"past {_MR_BOUND}, the primality"):
        GF(_MR_BOUND)


def test_primality_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    near = [10 ** 9 + k for k in range(-100, 100)]
    values = (list(range(-5, 3000)) + near
              + [a * b for a in near[:20] for b in near[-20:]]
              + [rng.randrange(2, 1 << rng.randrange(2, 81)) for _ in range(3000)])
    for n in values:
        assert _is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 41041, 825265, 321197185,
    56052361, 118901521, 172947529,  # Carmichael, no prime factor below 43
    3215031751,                  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,         # ... to the bases 2 through 23
    318665857834031151167461,    # ... to the bases 2 through 37
])
def test_primality_refutes_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not _is_prime(n)
    with pytest.raises(InvalidArgumentError, match="is not a prime"):
        GF(n)


def test_mixed_field_operands_rejected():
    with pytest.raises(FieldMismatchError):
        QQ.element(1) + GF(5).element(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.element(1) / QQ.element(0)
    with pytest.raises(ZeroDivisionError):
        GF(7).element(3) / GF(7).element(0)


@pytest.mark.parametrize("spec", [QQ, GF(5), GF(2)])
def test_field_axioms_random(spec):
    rng = random.Random(101)
    for _ in range(200):
        a = spec.element(rng.randint(-20, 20))
        b = spec.element(rng.randint(-20, 20))
        c = spec.element(rng.randint(-20, 20))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == spec.one


@pytest.mark.parametrize("spec", [QQ, GF(11)])
def test_canonical_idempotence(spec):
    rng = random.Random(7)
    for _ in range(50):
        a = spec.element(rng.randint(-30, 30))
        assert spec.element(a) == a
        if spec.is_rationals:
            again = spec.from_ratio(a.numerator, a.denominator)
            assert again.value == a.value


def test_rational_canonical_invariants():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(-40, 40)
        d = rng.choice([x for x in range(-15, 16) if x])
        e = QQ.from_ratio(n, d)
        assert e.denominator > 0
        from math import gcd
        assert gcd(abs(e.numerator), e.denominator) == 1


def test_prime_field_values_reduced():
    F7 = GF(7)
    assert F7.element(9).value == 2
    assert F7.element(-1).value == 6
    assert F7.from_ratio(1, 3).value == 5  # 3*5 = 15 = 1 mod 7


def _held_canonically(e, spec):
    """The value of e is a Fraction over QQ and an int in [0, p) over F_p."""
    if spec.is_rationals:
        return type(e.value) is Fraction
    return type(e.value) is int and 0 <= e.value < spec.p


@pytest.mark.parametrize("spec", [QQ, GF(5)])
def test_every_operation_holds_a_canonical_value(spec):
    # integral results (1/2 + 1/2, 2 * 1/2, ...) and negative ones included
    values = [0, 1, -1, 2, 7, Fraction(1, 2), Fraction(-3, 2)]
    for a in values:
        x = spec.element(a)
        results = [spec.element(x), -x, spec.one / x if x else spec.zero]
        for b in values:
            y = spec.element(b)
            results += [x + y, x - y, x * y, a + y, a - y, a * y, x + b, x - b, x * b]
            if y:
                results += [x / y, a / y, x / b]
                assert x / y == spec.element(Fraction(a) / Fraction(b))
            assert x + y == spec.element(Fraction(a) + Fraction(b))
            assert x - y == spec.element(Fraction(a) - Fraction(b))
            assert x * y == spec.element(Fraction(a) * Fraction(b))
        for r in results:
            assert _held_canonically(r, spec), repr(r)


def test_element_refuses_foreign_values():
    with pytest.raises(FieldMismatchError, match="is not an element of QQ"):
        QQ.element(GF(5).element(1))
    with pytest.raises(ZeroDivisionError, match=r"^denominator 5 vanishes in GF\(5\)$"):
        GF(5).element(Fraction(1, 5))
