"""Canonical multivariate commutative polynomials over an exact field.

A polynomial is a map from exponent vectors (plain int tuples, one entry per
context variable) to nonzero *raw* coefficients: over QQ an ``int`` when the
value is integral and a ``Fraction`` otherwise, over F_p an ``int`` in
``[0, p)`` (see :mod:`derivalg.field`).  The empty map is zero.  Two
polynomials are equal exactly when their term maps are identical, so
structural equality is mathematical equality.

Arithmetic works on the raw numbers by one coefficient rule: each operation
builds a raw, unreduced term map and `_canonical` alone makes it canonical,
with one ``% p`` per output term over F_p.
:class:`~derivalg.field.FieldElement` is the boundary type: constructors
accept it, and ``terms``, ``coeff``, ``leading_term``, ``constant_value``
and ``evaluate`` return it.

Contexts are small (a handful of variables at desk scale), so exponent
vectors are dense tuples rather than sparse maps.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import add
from typing import Iterator, Sequence

from .errors import (
    ContextMismatchError,
    InexactDivisionError,
    InvalidArgumentError,
    ZeroPolynomialError,
)
from .field import FieldElement, FieldSpec, _Arithmetic, _Keyed, _outside

Monomial = tuple  # exponent vector; length == number of context variables


class TermOrder(enum.Enum):
    """Monomial orders on a fixed variable order."""

    LEX = "lex"
    GREVLEX = "grevlex"

    def key(self, exponents: Monomial):
        """Sort key; larger key = larger monomial under the order."""
        if self is TermOrder.LEX:
            return exponents
        # graded reverse lex: degree first, then the *last* variable in
        # which the monomials differ decides, reversed.
        return (sum(exponents),) + tuple(-e for e in reversed(exponents))

    def __str__(self):
        return self.value


class VarContext(_Keyed):
    """An ordered tuple of distinct variable names plus the coefficient field.

    The order is fixed at creation; every polynomial operation below assumes
    both operands share one context object (compared by value).  Instances
    are immutable.
    """

    __slots__ = ("names", "field")

    def __init__(self, names, field: FieldSpec):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate variable names in {names}")
        if any(not n for n in names):
            raise ValueError("variable names must be nonempty")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of VarContext")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of VarContext")

    def _key(self):
        return (self.names, self.field)

    def __repr__(self):
        return f"VarContext(names={self.names!r}, field={self.field!r})"

    def __reduce__(self):
        return (VarContext, (self.names, self.field))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in context {self}") from None

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly._raw(self, {tuple(exp): 1})

    def var_by_name(self, name: str) -> "Poly":
        return self.var(self.index(name))

    def const(self, value) -> "Poly":
        c = self.field.raw(value)
        if not c:
            return Poly._raw(self, {})
        return Poly._raw(self, {(0,) * self.nvars: c})

    @property
    def zero(self) -> "Poly":
        return Poly._raw(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def __str__(self):
        return f"{self.field}[{', '.join(self.names)}]"


class Poly(_Arithmetic):
    """An exact multivariate polynomial in a :class:`VarContext`.

    Immutable by convention; arithmetic returns fresh objects and never
    stores zero coefficients.  The hash is computed on first use and kept.
    """

    __slots__ = ("context", "_terms", "_hash")

    def __init__(self, context: VarContext, terms: dict):
        n = context.nvars
        raw = context.field.raw
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for {context}")
            c = raw(coeff)
            if c:
                clean[mono] = c
        self.context = context
        self._terms = clean

    @classmethod
    def _raw(cls, context: VarContext, terms: dict) -> "Poly":
        # Internal fast path: terms already canonical (valid keys, nonzero
        # raw coefficients in the field's canonical form).
        self = object.__new__(cls)
        self.context = context
        self._terms = terms
        return self

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def terms(self) -> Iterator:
        """(monomial, FieldElement) pairs sorted descending by lex order."""
        element = self.context.field.element
        return iter([(m, element(c)) for m, c in self._sorted_items()])

    def _sorted_items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coeff(self, mono: Monomial) -> FieldElement:
        mono = tuple(mono)
        if len(mono) != self.context.nvars or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent vector {mono} for {self.context}")
        return self.context.field.element(self._terms.get(mono, 0))

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def degree_in(self, i: int) -> int:
        """Max exponent of variable i; 0 if the variable is absent."""
        if not 0 <= i < self.context.nvars:
            raise IndexError(f"variable index {i} out of range")
        if not self._terms:
            return 0
        return max(m[i] for m in self._terms)

    def lowest_var_present(self) -> int | None:
        """Smallest variable index with a positive exponent somewhere."""
        present = [i for i in range(self.context.nvars)
                   if any(m[i] > 0 for m in self._terms)]
        return min(present) if present else None

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def constant_value(self) -> FieldElement:
        return self.coeff((0,) * self.context.nvars)

    def leading_term(self, order: TermOrder):
        """(monomial, coefficient) maximal under `order`; zero poly raises."""
        m, c = self._lead(order)
        return m, self.context.field.element(c)

    def _lead(self, order: TermOrder):
        """(monomial, raw coefficient) maximal under `order`."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        m = max(self._terms, key=order.key)
        return m, self._terms[m]

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.context != self.context:
                raise ContextMismatchError(
                    f"context mismatch: {self.context} vs {other.context}")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.context.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        get = terms.get
        for m, c in o._terms.items():
            terms[m] = get(m, 0) + c
        return Poly._raw(self.context, _canonical(terms, self.context.field.p))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.context, _canonical(
            {m: -c for m, c in self._terms.items()}, self.context.field.p))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = {}
        _mul_into(acc, self._terms, o._terms)
        return Poly._raw(self.context, _canonical(acc, self.context.field.p))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative int exponents")
        if not n:
            return self.context.one
        # square up to the lowest set bit, so no product is by the unit
        base = self
        while not n & 1:
            base, n = base * base, n >> 1
        result = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                result = result * base
        return result

    def scale(self, c) -> "Poly":
        """The product with a constant (an int, Fraction or FieldElement)."""
        field = self.context.field
        c = field.raw(c)
        if not c:
            return self.context.zero
        if c == 1:
            return self
        return Poly._raw(self.context, _canonical(
            {m: v * c for m, v in self._terms.items()}, field.p))

    def monic(self, order: TermOrder) -> "Poly":
        _, lc = self._lead(order)
        if lc == 1:
            return self
        return self.scale(self.context.field.raw_inverse(lc))

    # -- calculus and evaluation -----------------------------------------

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative by variable i.

        Exponents multiply coefficients inside the field, so in
        characteristic p the terms with p | exponent vanish.
        """
        if not 0 <= i < self.context.nvars:
            raise IndexError(f"variable index {i} out of range")
        return Poly._raw(self.context, _canonical(_partial_terms(self._terms, i),
                                                  self.context.field.p))

    def substitute(self, values: dict) -> "Poly":
        """f with the polynomial values[i] put for variable i, expanded.

        `values` maps variable indices to polynomials in this context; the
        variables it does not name stay.  Each power of an image is computed
        once, and every term of the result is collected in one term map; a
        term free of the substituted variables is copied as it is, and f
        itself is returned when none of them occurs in it.
        """
        for i, g in values.items():
            if not 0 <= i < self.context.nvars:
                raise IndexError(f"variable index {i} out of range")
            if g.context != self.context:
                raise ContextMismatchError("substituted values leave the context")
        terms = self._terms
        if not any(m[i] for m in terms for i in values):
            return self
        powers = {i: [None, g] for i, g in values.items()}  # [_, g, g^2, ...]

        def power(i, e):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * values[i])
            return cache[e]

        acc = {}
        get = acc.get
        for m, c in terms.items():
            image = None
            for i in values:
                e = m[i]
                if e:
                    g = values[i] if e == 1 else power(i, e)
                    if image is None:
                        rest, image = list(m), g
                    else:
                        image = image * g
                    rest[i] = 0
            if image is None:
                old = get(m)
                acc[m] = c if old is None else old + c
            else:
                _mul_into(acc, {tuple(rest): c}, image._terms)
        return Poly._raw(self.context, _canonical(acc, self.context.field.p))

    def evaluate(self, point: Sequence) -> FieldElement:
        field = self.context.field
        values = [field.raw(v) for v in point]
        if len(values) != self.context.nvars:
            raise ValueError("point arity does not match the context")
        p = field.p
        total = 0
        for m, c in self._terms.items():
            for v, e in zip(values, m):
                if e:
                    c *= v ** e if p is None else pow(v, e, p)
            total += c
        return field.element(total)

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.context == other.context and self._terms == other._terms
        if _outside(other, self.context.field):
            return False
        if isinstance(other, (int, Fraction, FieldElement)):
            return self == self.context.const(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.context, frozenset(self._terms.items())))
            return self._hash

    def __reduce__(self):
        # a str hash differs between processes, so the cached one stays here
        return (Poly._raw, (self.context, self._terms))

    # -- printing --------------------------------------------------------

    def __str__(self):
        names = self.context.names
        signed = self.context.field.is_rationals
        return _join_terms([(signed and c < 0, str(abs(c) if signed else c),
                             _monomial_text(names, m))
                            for m, c in self._sorted_items()])

    def __repr__(self):
        return f"Poly({self})"


def _monomial_text(names, exponents) -> str:
    """`x^2*y` for exponents (2, 1) over names (x, y); empty for the unit."""
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in zip(names, exponents) if e])


def _join_terms(terms) -> str:
    """Print (negative, coefficient, monomial) triples as `a - 2*b + c`.

    A unit coefficient is left out before a monomial; no triples print `0`.
    """
    chunks = []
    for negative, coeff, mono in terms:
        body = coeff if not mono else mono if coeff == "1" else f"{coeff}*{mono}"
        if chunks:
            chunks.append(f"- {body}" if negative else f"+ {body}")
        else:
            chunks.append(f"-{body}" if negative else body)
    return " ".join(chunks) or "0"


def _canonical(acc: dict, p) -> dict:
    """The canonical raw term map of a computed one, whose entries may be
    zero, integral Fractions (over QQ) or ints outside [0, p) (over F_p):
    zeros dropped, an integral Fraction demoted to int, one ``% p`` per term.
    The one place computed coefficients are made canonical."""
    if p is None:
        return {m: c.numerator if c.denominator == 1 else c
                for m, c in acc.items() if c}
    terms = {}
    for m, c in acc.items():
        c %= p
        if c:
            terms[m] = c
    return terms


def _mul_into(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b for raw term maps, in place: the one product loop.  The
    sums are left unreduced (zeros, integral Fractions, ints >= p), so `acc`
    takes any number of products before one `_canonical`."""
    get = acc.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            c = get(m)
            acc[m] = ca * cb if c is None else c + ca * cb


def _partial_terms(terms: dict, i: int) -> dict:
    """The raw, unreduced term map of d/dx_i of a raw term map: each term
    with a positive exponent e in x_i becomes e*c times m/x_i."""
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
            for m, c in terms.items() if m[i]}


def exact_div(f: Poly, g: Poly) -> Poly:
    """The quotient f/g when g divides f exactly; otherwise raises.

    The one-element basis {g} is g made monic, so its normal-form cofactor
    is exact; that cofactor times 1/LC(g) is f/g, whatever the term order."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.context != g.context:
        raise ContextMismatchError("exact_div operands share no context")
    # here, not at the top: groebner imports poly
    from .groebner import GroebnerBasis, normal_form_with_cofactors
    basis = GroebnerBasis(f.context, TermOrder.GREVLEX, [g])
    remainder, (quotient,) = normal_form_with_cofactors(f, basis)
    if not remainder.is_zero():
        raise InexactDivisionError(f"({g}) does not divide ({f})")
    return quotient.scale(f.context.field.raw_inverse(g._lead(basis.order)[1]))


def det_fraction_free(matrix, context: VarContext) -> Poly:
    """Determinant of a square Poly matrix via fraction-free elimination.

    Bareiss one-step elimination: every division is exact inside the
    polynomial ring, so no fraction-field arithmetic is needed.
    """
    n = len(matrix)
    if n == 0:
        return context.one
    work = [list(row) for row in matrix]
    if any(len(row) != n for row in work):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = context.one
    for k in range(n - 1):
        if work[k][k].is_zero():
            for r in range(k + 1, n):
                if not work[r][k].is_zero():
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return context.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[i][j] * work[k][k] - work[i][k] * work[k][j]
                work[i][j] = exact_div(num, prev) if not num.is_zero() else context.zero
            work[i][k] = context.zero
        prev = work[k][k]
    det = work[n - 1][n - 1]
    return -det if sign < 0 else det
