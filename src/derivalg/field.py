"""Exact coefficient arithmetic over the rationals and over prime fields F_p.

A :class:`FieldSpec` names the field (characteristic 0 rationals, or F_p for a
prime p); a :class:`FieldElement` is a value tagged with its spec.  Rational
values are stdlib ``Fraction`` instances, which are always in lowest terms
with a positive denominator, so the canonical form is maintained for free.
Prime-field values are ints in ``[0, p)``.

``FieldElement`` is the boundary type: what users pass in and get back.
Inside polynomials, coefficients are *raw* Python numbers, with no wrapper
and no field tag: over QQ an ``int`` when the value is integral and a
``Fraction`` otherwise, over F_p an ``int`` in ``[0, p)``.
:meth:`FieldSpec.raw` coerces a value to that form, :meth:`FieldSpec.element`
wraps a raw value again, and :meth:`FieldSpec.raw_inverse` inverts one.

No floating point is used anywhere: Groebner intermediates blow up and only
exact results are acceptable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import (
    FieldMismatchError,
    InvalidArgumentError,
    VanishingDenominatorError,
)

# Miller-Rabin to the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n at or past _MR_BOUND."""
    if n >= _MR_BOUND:
        raise InvalidArgumentError(
            f"modulus {n} is past {_MR_BOUND}, the primality test's bound")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(x == 1 or any(pow(x, 1 << k, n) == n - 1 for k in range(s))
               for x in (pow(a, d, n) for a in _MR_BASES))


class _Keyed:
    """Equality and hashing from `_key()`, within one class; the identity
    test comes first, as every Poly operation compares two contexts."""

    __slots__ = ()

    def __eq__(self, other):
        return self is other or (other.__class__ is self.__class__
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())


class _Arithmetic:
    """Subtraction from `+` and negation, with the operand from `_coerce`."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self


class FieldSpec(_Keyed):
    """The rationals (``p is None``) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not (isinstance(p, int) and _is_prime(p)):
            raise InvalidArgumentError(f"modulus {p!r} is not a prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def element(self, value: Union[int, Fraction, "FieldElement"]) -> "FieldElement":
        """:meth:`raw` of the value, held as a ``Fraction`` over QQ."""
        c = self.raw(value)
        return FieldElement(self, Fraction(c) if self.p is None else c)

    def raw(self, value):
        """The raw coefficient of an int, Fraction, or element of this field.

        Over QQ an integral value comes back as an ``int`` and any other as a
        ``Fraction``; over F_p the value is an ``int`` in ``[0, p)``, and a
        Fraction whose denominator vanishes mod p raises
        VanishingDenominatorError.
        """
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatchError(f"{value} is not an element of {self}")
            value = value.value
        p = self.p
        if isinstance(value, int):
            return int(value) if p is None else value % p
        if isinstance(value, Fraction):
            if p is None:
                return value.numerator if value.denominator == 1 else value
            return self.from_ratio(value.numerator, value.denominator).value
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def raw_inverse(self, c):
        """The inverse of a nonzero raw coefficient, as a raw coefficient."""
        if not c:
            raise ZeroDivisionError(f"division by zero in {self}")
        if self.p is not None:
            return pow(c, -1, self.p)
        n, d = c.numerator, c.denominator
        if n == 1:
            return d
        if n == -1:
            return -d
        return Fraction(d, n)

    def from_ratio(self, numerator: int, denominator: int) -> "FieldElement":
        """The canonical element numerator/denominator.

        Raises ZeroDivisionError when the denominator vanishes, in F_p a
        VanishingDenominatorError when it is divisible by p.
        """
        if self.p is None:
            return FieldElement(self, Fraction(numerator, denominator))
        d = denominator % self.p
        if d == 0:
            raise VanishingDenominatorError(
                f"denominator {denominator} vanishes in {self}")
        return FieldElement(self, numerator * pow(d, -1, self.p) % self.p)

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    def _key(self):
        return ("FieldSpec", self.p)

    def __str__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    __repr__ = __str__


QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


def _outside(value, spec: FieldSpec) -> bool:
    """True for a scalar that equals no element of `spec`: an element of
    another field, or a Fraction whose denominator vanishes in it."""
    if isinstance(value, FieldElement):
        return value.spec != spec
    return (isinstance(value, Fraction) and spec.p is not None
            and value.denominator % spec.p == 0)


class FieldElement(_Arithmetic):
    """An exact field value tagged with its :class:`FieldSpec`.

    Instances are immutable; arithmetic between elements of different fields
    raises :class:`FieldMismatchError`.  Ints (and Fractions over QQ) coerce
    on the fly, so ``coeff * 3`` works.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatchError(
                    f"mixed-field operands: {self.spec} vs {other.spec}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.spec.element(self.value + o.value)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.spec.element(self.value * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return self.spec.element(-self.value)

    def inverse(self) -> "FieldElement":
        return self.spec.element(self.spec.raw_inverse(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def numerator(self) -> int:
        return self.value.numerator if self.spec.p is None else self.value

    @property
    def denominator(self) -> int:
        return self.value.denominator if self.spec.p is None else 1

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return (not _outside(other, self.spec)
                    and self == self.spec.element(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.spec}:{self.value}"
