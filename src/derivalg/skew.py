"""Iterated skew polynomial rings of derivation type, and single Ore extensions.

Both rings share one element type, `SkewPoly`, kept in left-coefficient
normal form: every element is a sum of base-ring coefficients times monomials
in the skew variables,

    u = sum  r_(a) * x1^a1 ... xn^an,

and `skew_mul` multiplies by asking the ring descriptor's `push(a, r)` for
x^(a) * r in normal form, summing the unreduced products for each output
exponent and reducing each sum once.  `SkewRingDescriptor` pushes one
variable at a time with

    x_i * r = r * x_i + d_i(r),
    x_i^n * r = sum_k  C(n, k) * d_i^k(r) * x_i^(n-k);

`SingleOreDescriptor` pushes by the one recursion x * r = f(r) * x + d(r),
applied n times for x^n * r, with d = None standing for the zero map.

The construction demands pairwise commuting derivations; a non-commuting
pair is refused at descriptor construction with the violating pair and a
witness image.  Binomial coefficients are exact big integers mapped into the
coefficient field, so characteristic-p pushes reduce them mod p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .derivation import Derivation, SkewDerivation, _as_ring, commuting_set_check
from .errors import (
    ContextMismatchError,
    NonCommutingDerivationsError,
    NotInjectiveError,
    PreconditionError,
)
from .field import FieldElement, FieldSpec, QQ, _outside
from .groebner import DEFAULT_BUDGET, QuotientRing, TermOrder
from .poly import (
    InjectivityStatus,
    Poly,
    RingEndomorphism,
    VarContext,
    _join_terms,
    _monomial_text,
)

if TYPE_CHECKING:
    from .simplicity import SimplicityVerdict


def _graded_lex_key(exponents):
    return (sum(exponents), exponents)


def _add_into(terms: dict, e, r: Poly) -> None:
    """terms[e] += r, dropping the key when the sum is zero."""
    have = terms.get(e)
    s = r if have is None else have + r
    if s.is_zero():
        terms.pop(e, None)
    else:
        terms[e] = s


class _SkewRing:
    """Element constructors shared by the skew ring descriptors.

    Subclasses provide `base`, `names` and `push(exponents, r)`.
    """

    __slots__ = ()

    @property
    def nskew(self) -> int:
        return len(self.names)

    def zero(self) -> "SkewPoly":
        return SkewPoly._raw(self, {})

    def one(self) -> "SkewPoly":
        return self.from_base(self.base.context.one)

    def from_base(self, r: Poly) -> "SkewPoly":
        r = self.base.reduce(r)
        if r.is_zero():
            return SkewPoly._raw(self, {})
        return SkewPoly._raw(self, {(0,) * self.nskew: r})

    def skew_var(self, i: int = 0) -> "SkewPoly":
        e = [0] * self.nskew
        e[i] = 1
        return SkewPoly._raw(self, {tuple(e): self.base.context.one})

    def base_var(self, i: int) -> "SkewPoly":
        return self.from_base(self.base.context.var(i))

    def variable(self, name: str) -> "SkewPoly":
        if name in self.names:
            return self.skew_var(self.names.index(name))
        return self.base_var(self.base.context.index(name))


class SkewRingDescriptor(_SkewRing):
    """R[x1; d1]...[xn; dn] with commuting derivations of a commutative base R."""

    __slots__ = ("base", "names", "derivations", "commuting_certified")

    def __init__(self, base, names: Sequence[str], derivations: Sequence[Derivation]):
        base = _as_ring(base)
        names = tuple(names)
        derivations = tuple(derivations)
        if len(names) != len(derivations):
            raise ValueError("one derivation per skew variable is required")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("skew variable names must be distinct and nonempty")
        if set(names) & set(base.context.names):
            raise ValueError("skew variable names collide with base variables")
        for d in derivations:
            if d.ring != base:
                raise ContextMismatchError("derivation does not live on the base ring")
        report = commuting_set_check(derivations) if derivations else None
        if report is not None and not report.commute:
            gen = base.context.names[report.generator]
            raise NonCommutingDerivationsError(
                f"derivations {report.first} and {report.second} do not commute: "
                f"commutator sends {gen} to {report.witness}",
                first=report.first, second=report.second,
                generator=gen, witness=report.witness)
        self.base = base
        self.names = names
        self.derivations = derivations
        self.commuting_certified = True

    def push(self, exponents, r: Poly) -> dict:
        """x^(a) * r as {exponent: coefficient}; variables pushed one at a time."""
        acc = {(0,) * self.nskew: r} if r else {}
        for i, power in enumerate(exponents):
            if power == 0:
                continue
            nxt = {}
            for e, coeff in acc.items():
                for pe, pc in binomial_push(self, i, power, coeff).terms.items():
                    _add_into(nxt, tuple(map(add, e, pe)), pc)
            acc = nxt
        return acc

    def __eq__(self, other):
        return (isinstance(other, SkewRingDescriptor)
                and self.base == other.base
                and self.names == other.names
                and self.derivations == other.derivations)

    def __hash__(self):
        return hash((self.base, self.names, self.derivations))

    def __str__(self):
        steps = "".join(f"[{n}; {d}]" for n, d in zip(self.names, self.derivations))
        return f"{self.base}{steps}"


def build_skew_ring(base, names: Sequence[str],
                    derivations: Sequence[Derivation]) -> SkewRingDescriptor:
    """Descriptor for R[x; D]; refuses non-commuting derivation sets."""
    return SkewRingDescriptor(base, names, derivations)


class SkewPoly:
    """An element of a skew ring or Ore extension in left-coefficient normal form.

    `terms` maps exponent tuples (one entry per skew variable) to nonzero
    base-ring coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        n = ring.nskew
        clean = {}
        for e, r in terms.items():
            e = tuple(e)
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad skew exponent vector {e}")
            _add_into(clean, e, ring.base.reduce(r))
        self.ring = ring
        self.terms = clean

    @classmethod
    def _raw(cls, ring, terms: dict) -> "SkewPoly":
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def x_degree(self) -> int:
        """Max total degree in the skew variables; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def base_part(self) -> Poly:
        """The coefficient of x^0 (the degree-0 part)."""
        return self.terms.get((0,) * self.ring.nskew, self.ring.base.context.zero)

    def coefficient(self, exponents) -> Poly:
        return self.terms.get(tuple(exponents), self.ring.base.context.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: _graded_lex_key(kv[0]), reverse=True)

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            if other.ring != self.ring:
                raise ContextMismatchError("skew elements live in different rings")
            return other
        if isinstance(other, Poly):
            return self.ring.from_base(other)
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ring.from_base(self.ring.base.context.const(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, r in o.terms.items():
            _add_into(terms, e, r)
        return SkewPoly._raw(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly._raw(self.ring, {e: -r for e, r in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return skew_mul(self.ring, self, o)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return skew_mul(self.ring, o, self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("skew powers take non-negative int exponents")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, SkewPoly):
            return self.ring == other.ring and self.terms == other.terms
        context = self.ring.base.context
        if (isinstance(other, Poly) and other.context != context
                or _outside(other, context.field)):
            return False
        if isinstance(other, (Poly, int, Fraction, FieldElement)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        names = self.ring.names
        return _join_terms([_signed_chunk(r, _monomial_text(names, e))
                            for e, r in self.sorted_terms()])

    def __repr__(self):
        return f"SkewPoly({self})"


def _signed_chunk(r: Poly, mono: str):
    """The `_join_terms` triple of the term r*mono: the sign of a one-term
    coefficient is pulled out, a longer coefficient is parenthesised."""
    s = str(r)
    if len(r) > 1:
        return False, f"({s})", mono
    negative = s.startswith("-")
    return negative, s[1:] if negative else s, mono


def binomial_push(ring: SkewRingDescriptor, i: int, n: int, r: Poly) -> SkewPoly:
    """x_i^n * r in normal form: sum_k C(n,k) d_i^k(r) x_i^(n-k)."""
    if not 0 <= i < ring.nskew:
        raise IndexError(f"skew index {i} out of range")
    if n < 0:
        raise ValueError("negative skew powers are not defined")
    r = ring.base.reduce(r)
    d = ring.derivations[i]
    terms = {}
    current = r
    for k in range(n + 1):
        if current.is_zero():
            break
        # current is a normal form, and so is any scalar multiple of it
        coeff = current.scale(math.comb(n, k))
        if not coeff.is_zero():
            e = [0] * ring.nskew
            e[i] = n - k
            terms[tuple(e)] = coeff
        if k < n:
            current = d.apply(current)
    return SkewPoly._raw(ring, terms)


def skew_mul(ring: SkewRingDescriptor | SingleOreDescriptor,
             u: SkewPoly, v: SkewPoly) -> SkewPoly:
    """Normal-form product; restricts to base multiplication in degree 0."""
    if u.ring != ring or v.ring != ring:
        raise ContextMismatchError("operands live in a different skew ring")
    terms = {}
    for a, r in u.terms.items():
        for b, s in v.terms.items():
            for e, coeff in ring.push(a, s).items():
                _add_into(terms, tuple(map(add, e, b)), r * coeff)
    if ring.base.is_trivial:
        return SkewPoly._raw(ring, terms)
    # reduction is linear, so one normal form per output coefficient suffices
    reduce = ring.base.reduce
    return SkewPoly._raw(ring, {e: c for e, t in terms.items() if (c := reduce(t))})


def skew_commutator(u: SkewPoly, v: SkewPoly) -> SkewPoly:
    return u * v - v * u


def weyl_algebra(n: int, field: FieldSpec = QQ) -> SkewRingDescriptor:
    """A_n over `field`: base field[y..], skew vars x.. with d_i = d/dy_i.

    Generator relations: [x_i, y_i] = 1, [x_i, y_j] = 0 for i != j, and all
    x's (and all y's) commute.
    """
    if n < 1:
        raise ValueError("the Weyl algebra index must be at least 1")
    if n == 1:
        ynames, xnames = ("y",), ("x",)
    else:
        ynames = tuple(f"y{i}" for i in range(1, n + 1))
        xnames = tuple(f"x{i}" for i in range(1, n + 1))
    base = QuotientRing.trivial(VarContext(ynames, field))
    partials = [Derivation.partial(base, i) for i in range(n)]
    return SkewRingDescriptor(base, xnames, partials)


class SkewRingDerivation:
    """A derivation of a skew ring acting coefficientwise (skew vars map to 0)."""

    __slots__ = ("ring", "base_derivation")

    def __init__(self, ring: SkewRingDescriptor, base_derivation: Derivation):
        self.ring = ring
        self.base_derivation = base_derivation

    def apply(self, u: SkewPoly) -> SkewPoly:
        if u.ring != self.ring:
            raise ContextMismatchError("element outside the extension's ring")
        terms = {}
        for e, r in u.terms.items():
            img = self.base_derivation.apply(r)
            if not img.is_zero():
                terms[e] = img
        return SkewPoly._raw(self.ring, terms)

    __call__ = apply


def extend_derivation(d1: Derivation, ring: SkewRingDescriptor) -> SkewRingDerivation:
    """Extend a base derivation to the skew ring by sending every x_i to 0.

    Possible exactly when d1 commutes with every structure derivation d_i;
    otherwise the extension would violate the push rule and is refused.
    """
    if d1.ring != ring.base:
        raise ContextMismatchError("derivation does not live on the base ring")
    for name, d in zip(ring.names, ring.derivations):
        report = commuting_set_check([d1, d])
        if not report.commute:
            gen = ring.base.context.names[report.generator]
            raise NonCommutingDerivationsError(
                f"cannot extend: the derivation does not commute with the "
                f"structure derivation of {name} "
                f"(commutator sends {gen} to {report.witness})",
                first=d1, second=d, generator=gen, witness=report.witness)
    return SkewRingDerivation(ring, d1)


class InnerAnalysis(NamedTuple):
    """Outcome of testing whether conjugation by an element induces a base derivation."""

    element: SkewPoly
    derivation: Derivation | None = None
    offending_generator: str | None = None
    residual: SkewPoly | None = None

    @property
    def induced(self) -> bool:
        return self.derivation is not None


def inner_induced(ring: SkewRingDescriptor, f: SkewPoly) -> InnerAnalysis:
    """Compute r -> f*r - r*f on the base generators.

    When every commutator has skew degree 0 the map is a derivation of the
    base ring and its generator images are returned.  Otherwise the first
    offending generator and its full residual are reported.
    """
    if f.ring != ring:
        raise ContextMismatchError("element outside the skew ring")
    images = []
    for i in range(ring.base.context.nvars):
        comm = skew_commutator(f, ring.base_var(i))
        if comm.x_degree() > 0:
            return InnerAnalysis(element=f,
                                 offending_generator=ring.base.context.names[i],
                                 residual=comm)
        images.append(comm.base_part())
    return InnerAnalysis(element=f, derivation=Derivation(ring.base, images))


def inner_residuals(ring: SkewRingDescriptor, f: SkewPoly, r: Poly):
    """Obstructions to f = sum a_i x^i (i <= n) inducing a base derivation,
    at one r: the coefficients of x^1 .. x^n in the commutator f*r - r*f,
    read off `skew_commutator`.

    The x^0 coefficient is the induced value itself (see inner_induced).
    The list is all zero on every generator exactly when conjugation by f
    lands in the base ring.  Defined for single-variable rings of
    derivation type only.
    """
    if not isinstance(ring, SkewRingDescriptor) or ring.nskew != 1:
        raise PreconditionError(
            "residuals are defined for single-variable rings of derivation type")
    comm = skew_commutator(f, ring.from_base(r))
    return [comm.coefficient((k,)) for k in range(1, f.x_degree() + 1)]


class SingleOreDescriptor(_SkewRing):
    """R[x; f, d] in one variable: multiplication rule x r = f(r) x + d(r).

    Three shapes are supported: f = id with an ordinary derivation (the
    derivation-type case), injective f with d = 0, and injective f with the
    twisted family d = c*(f - id).
    """

    __slots__ = ("base", "name", "endo", "derivation")

    def __init__(self, base, name: str, endo: RingEndomorphism,
                 derivation=None):
        base = _as_ring(base)
        if not base.is_trivial:
            raise PreconditionError("single Ore extensions take a polynomial base")
        if endo.context != base.context:
            raise ContextMismatchError("endomorphism outside the base context")
        if name in base.context.names or not name:
            raise ValueError("bad skew variable name")
        if endo.injectivity() is InjectivityStatus.NOT_INJECTIVE:
            raise NotInjectiveError("the twisting endomorphism must be injective")
        if isinstance(derivation, Derivation):
            if not endo.is_identity:
                raise PreconditionError(
                    "an ordinary derivation requires the identity twist")
            if derivation.ring != base:
                raise ContextMismatchError("derivation outside the base ring")
        elif isinstance(derivation, SkewDerivation):
            if derivation.endo != endo:
                raise PreconditionError(
                    "the skew derivation must be twisted by the same endomorphism")
        elif derivation is not None:
            raise TypeError("unsupported derivation shape")
        self.base = base
        self.name = name
        self.endo = endo
        self.derivation = derivation

    @property
    def names(self) -> tuple:
        return (self.name,)

    def push(self, exponents, r: Poly) -> dict:
        """x^n * r as {(exponent,): coefficient}, by n steps of the rule
        x r = f(r) x + d(r); d = None is the zero map."""
        (n,) = exponents
        d = self.derivation
        acc = {(0,): r} if r else {}
        for _ in range(n):
            nxt = {}
            for (k,), c in acc.items():
                _add_into(nxt, (k + 1,), self.endo(c))
                if d is not None:
                    _add_into(nxt, (k,), d.apply(c))
            acc = nxt
        return acc

    def __eq__(self, other):
        return (isinstance(other, SingleOreDescriptor)
                and self.base == other.base and self.name == other.name
                and self.endo == other.endo and self.derivation == other.derivation)

    def __hash__(self):
        return hash((self.base, self.name, self.endo, self.derivation))

    def __str__(self):
        if self.derivation is None:
            return f"{self.base}[{self.name}; {self.endo}]"
        return f"{self.base}[{self.name}; {self.endo}, d]"


def skew_simplicity(ring: SkewRingDescriptor,
                    order: TermOrder = TermOrder.GREVLEX,
                    budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """Simplicity of R[x; D] for commutative R, via D-simplicity of the base.

    For a commutative base of characteristic 0 the skew ring is simple
    exactly when the base is D-simple, so the verdict is d_simplicity's on
    the base.  A prime-characteristic base is Unknown: the transfer is out
    of scope there.
    """
    from .simplicity import SimplicityStatus, SimplicityVerdict, d_simplicity
    base = ring.base
    if base.context.field.characteristic != 0:
        return SimplicityVerdict(
            SimplicityStatus.UNKNOWN,
            reason="prime-characteristic base: simplicity transfer out of scope")
    return d_simplicity(base, ring.derivations, order, budget)
