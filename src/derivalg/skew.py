"""Iterated skew polynomial rings of derivation type.

Elements are `SkewPoly`s kept in left-coefficient normal form: every element
is a sum of base-ring coefficients times monomials in the skew variables,

    u = sum  r_(a) * x1^a1 ... xn^an,

and `skew_mul` multiplies term by term, expanding each x^(a) * s in normal
form one variable at a time by the binomial rule

    x_i * r = r * x_i + d_i(r),
    x_i^n * r = sum_k  C(n, k) * d_i^k(r) * x_i^(n-k),

taking each d^k(s) = d1^k1 ... dn^kn (s) once per right factor (it does
not depend on a) and expanding each x^(a) * s once per right factor.  The
expansion state of a right factor (`_RightFactor`) lives for one product, or
for the n - 1 products of a power u ** n, which all take u as right factor.
Every product r_(a) * C(a, k) d^k(s) is added in place into one raw,
unreduced term map per output exponent by `poly._mul_into`, the loop
`Poly.__mul__` runs, and each output coefficient is made canonical and
reduced once.  `push(a, r)` is the same expansion for one x^(a) * r, checked
and reduced, and `binomial_push` its one-variable entry.

Coefficients are reduced where they enter a skew ring, and only there: in
`from_base`, `SkewPoly(...)`, `push` (so `binomial_push`), and once per
output coefficient in `skew_mul`.

The construction demands pairwise commuting derivations; a non-commuting
pair is refused at descriptor construction with the violating pair and a
witness image.  Binomial coefficients are exact big integers mapped into the
coefficient field, so characteristic-p pushes reduce them mod p.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .derivation import Derivation, _as_ring, commuting_set_check
from .errors import (
    ContextMismatchError,
    InvalidArgumentError,
    NonCommutingDerivationsError,
)
from .field import FieldElement, FieldSpec, QQ, _Arithmetic, _Keyed, _outside
from .groebner import DEFAULT_BUDGET, QuotientRing
from .poly import (Poly, VarContext, _canonical, _join_terms, _monomial_text,
                   _mul_into, det_fraction_free)

if TYPE_CHECKING:
    from .simplicity import SimplicityVerdict


def _graded_lex_key(exponents):
    return (sum(exponents), exponents)


def _skew_exponents(exponents, n: int) -> tuple:
    """`exponents` as a tuple; refused unless it has n entries, none negative."""
    e = tuple(exponents)
    if len(e) != n or any(x < 0 for x in e):
        raise ValueError(f"bad skew exponent vector {e}")
    return e


def _add_into(terms: dict, e, r: Poly) -> None:
    """terms[e] += r, dropping the key when the sum is zero."""
    have = terms.get(e)
    s = r if have is None else have + r
    if s.is_zero():
        terms.pop(e, None)
    else:
        terms[e] = s


class SkewRingDescriptor(_Keyed):
    """R[x1; d1]...[xn; dn] with commuting derivations of a commutative base R."""

    __slots__ = ("base", "names", "derivations")

    def __init__(self, base, names: Sequence[str], derivations: Sequence[Derivation]):
        base = _as_ring(base)
        names = tuple(names)
        derivations = tuple(derivations)
        if len(names) != len(derivations):
            raise InvalidArgumentError("one derivation per skew variable is required")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise InvalidArgumentError("skew variable names must be distinct and nonempty")
        if set(names) & set(base.context.names):
            raise InvalidArgumentError("skew variable names collide with base variables")
        for d in derivations:
            if d.ring != base:
                raise ContextMismatchError("derivation does not live on the base ring")
        report = commuting_set_check(derivations)
        if not report.commute:
            gen = base.context.names[report.generator]
            raise NonCommutingDerivationsError(
                f"derivations {report.first} and {report.second} do not commute: "
                f"commutator sends {gen} to {report.witness}",
                first=report.first, second=report.second,
                generator=gen, witness=report.witness)
        self.base = base
        self.names = names
        self.derivations = derivations

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
        if not 0 <= i < self.nskew:
            raise IndexError(f"skew index {i} out of range")
        e = [0] * self.nskew
        e[i] = 1
        return SkewPoly._raw(self, {tuple(e): self.base.context.one})

    def base_var(self, i: int) -> "SkewPoly":
        return self.from_base(self.base.context.var(i))

    def variable(self, name: str) -> "SkewPoly":
        if name in self.names:
            return self.skew_var(self.names.index(name))
        return self.base_var(self.base.context.index(name))

    def push(self, exponents, r: Poly) -> dict:
        """x^(a) * r as {exponent: coefficient}, r reduced first.

        The checked entry to the expansion: it refuses an exponent vector of
        the wrong length or with a negative entry, and an r of another
        context."""
        exponents = _skew_exponents(exponents, self.nskew)
        zero = (0,) * self.nskew
        return self._push(exponents, {zero: self.base.reduce(r)}, zero)

    def _push(self, exponents, table: dict, b) -> dict:
        """x^(a) * s * x^(b) as {a - k + b: C(a, k) * d^k(s)} for a =
        `exponents`, C(a, k) = prod C(a_i, k_i), by the binomial rule one
        variable at a time.  `table` maps k to d^k(s), from {0: s}; a missing
        entry is d_i(table[k - e_i]), a normal form and the same by every
        path as the d_i commute."""
        weights = {(0,) * len(exponents): 1}   # k -> C(a, k), for the k reached
        for i, n in enumerate(exponents):
            if n == 0:
                continue
            nxt = {}
            for k, w in weights.items():
                c, head, tail = table[k], k[:i], k[i + 1:]
                for j in range(n + 1):
                    nxt[k] = w * math.comb(n, j)
                    if j == n:
                        break
                    k = (*head, j + 1, *tail)
                    if k not in table:
                        table[k] = self.derivations[i].apply(c)
                    if not (c := table[k]):
                        break
            weights = nxt
        top = tuple(map(add, exponents, b))
        return {tuple(map(sub, top, k)): c for k, w in weights.items()
                if (c := table[k] if w == 1 else table[k].scale(w))}

    def _key(self):
        return (self.base, self.names, self.derivations)

    def __str__(self):
        steps = "".join(f"[{n}; {d}]" for n, d in zip(self.names, self.derivations))
        return f"{self.base}{steps}"


class SkewPoly(_Arithmetic):
    """An element of a skew ring in left-coefficient normal form.

    `terms` maps exponent tuples (one entry per skew variable) to nonzero
    base-ring coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        clean = {}
        for e, r in terms.items():
            _add_into(clean, _skew_exponents(e, ring.nskew), ring.base.reduce(r))
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
        return self.terms.get(_skew_exponents(exponents, self.ring.nskew),
                              self.ring.base.context.zero)

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
        """n - 1 products through `skew_mul`, each by self on the right, which
        share one `_RightFactor`: self's derivative tables and the expansion of
        every x^(a) * s_b are computed once for the whole power."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("skew powers take non-negative int exponents")
        result = self if n else self.ring.one()
        right = _RightFactor(self)
        for _ in range(n - 1):
            result = skew_mul(self.ring, result, right)
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
    """x_i^n * r in normal form: sum_k C(n,k) d_i^k(r) x_i^(n-k).

    The one-variable entry to `SkewRingDescriptor.push`: it checks i and n
    and delegates, and `push` reduces r (refusing an r of another context).
    """
    if not 0 <= i < ring.nskew:
        raise IndexError(f"skew index {i} out of range")
    if n < 0:
        raise ValueError("negative skew powers are not defined")
    e = [0] * ring.nskew
    e[i] = n
    return SkewPoly._raw(ring, ring.push(e, r))


class _RightFactor:
    """A right factor v with its expansion state: for each term s_b * x^(b)
    of v, the derivative table k -> d^k(s_b) that `_push` fills, and a memo
    from each left exponent a to the expansions x^(a) * s_b * x^(b), one per
    term.  Built for one product, or once for the n - 1 products of `v ** n`."""

    __slots__ = ("ring", "tables", "pushed")

    def __init__(self, v: SkewPoly):
        zero = (0,) * v.ring.nskew
        self.ring = v.ring
        self.tables = [(b, {zero: s}) for b, s in v.terms.items()]
        self.pushed = {}


def skew_mul(ring: SkewRingDescriptor, u: SkewPoly, v) -> SkewPoly:
    """Normal-form product; restricts to base multiplication in degree 0.
    v is a SkewPoly or, when it is the right factor of several products,
    its `_RightFactor`: each x^(a) * s_b is expanded once and each d^k(s_b)
    taken once for all of them.  Each output exponent keeps one raw term
    map that `_mul_into` adds every product to."""
    right = v if isinstance(v, _RightFactor) else _RightFactor(v)
    if u.ring != ring or right.ring != ring:
        raise ContextMismatchError("operands live in a different skew ring")
    memo, tables = right.pushed, right.tables
    acc = {}
    for a, r in u.terms.items():
        r = r._terms
        pushes = memo.get(a)
        if pushes is None:
            pushes = memo[a] = [ring._push(a, table, b) for b, table in tables]
        for pushed in pushes:
            for e, coeff in pushed.items():
                _mul_into(acc.setdefault(e, {}), r, coeff._terms)
    # reduction is linear, so one normal form per output coefficient suffices
    base, p = ring.base, ring.base.context.field.p
    return SkewPoly._raw(ring, {e: c for e, t in acc.items() if (
        c := base.reduce(Poly._raw(base.context, _canonical(t, p))))})


def skew_commutator(u: SkewPoly, v: SkewPoly) -> SkewPoly:
    return u * v - v * u


def weyl_algebra(n: int, field: FieldSpec = QQ) -> SkewRingDescriptor:
    """A_n over `field`: base field[y..], skew vars x.. with d_i = d/dy_i.

    Generator relations: [x_i, y_i] = 1, [x_i, y_j] = 0 for i != j, and all
    x's (and all y's) commute.
    """
    if n < 1:
        raise InvalidArgumentError("the Weyl algebra index must be at least 1")
    if n == 1:
        ynames, xnames = ("y",), ("x",)
    else:
        ynames = tuple(f"y{i}" for i in range(1, n + 1))
        xnames = tuple(f"x{i}" for i in range(1, n + 1))
    base = QuotientRing.trivial(VarContext(ynames, field))
    partials = [Derivation.partial(base, i) for i in range(n)]
    return SkewRingDescriptor(base, xnames, partials)


class SkewRingDerivation:
    """A base derivation extended coefficientwise, every x_i sent to 0; refused
    unless it commutes with every structure derivation d_i (the push rule)."""

    __slots__ = ("ring", "base_derivation")

    def __init__(self, ring: SkewRingDescriptor, base_derivation: Derivation):
        if base_derivation.ring != ring.base:
            raise ContextMismatchError("derivation does not live on the base ring")
        for name, d in zip(ring.names, ring.derivations):
            report = commuting_set_check([base_derivation, d])
            if not report.commute:
                gen = ring.base.context.names[report.generator]
                raise NonCommutingDerivationsError(
                    f"cannot extend: the derivation does not commute with the "
                    f"structure derivation of {name} "
                    f"(commutator sends {gen} to {report.witness})",
                    first=base_derivation, second=d, generator=gen,
                    witness=report.witness)
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


class CentralWitness(NamedTuple):
    """A central z of skew degree 1, so S*z is a proper two-sided ideal;
    `generators` is (z,), listed and printed as an ideal's are."""

    generators: tuple


def skew_simplicity(ring: SkewRingDescriptor, *,
                    budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """Simplicity of S = R[t_1..t_m; D] over a commutative base R, with
    M_ij = d_j(x_i); the first rule that applies decides:

    1. (G1) M*c = 0 for some c != 0 in k^m: NotSimple, witness the central
       z = sum c_j*t_j ([z, r] = sum c_j*d_j(r) = 0, and the t_j commute);
    2. R's verdict from `d_simplicity` when it is not Simple (S*J is a proper
       two-sided ideal for a proper D-stable J);
    3. Simple in characteristic 0 when m = 1 (past rule 1, d != 0 on R) or
       (G2) an m x m minor of M is nonzero in the domain R; else Unknown.
    """
    from .simplicity import SimplicityStatus, SimplicityVerdict, d_simplicity
    if (z := _central_relation(ring)) is not None:
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE,
                                 witness=CentralWitness((z,)),
                                 criterion="constant relation among D")
    verdict = d_simplicity(ring.base, ring.derivations, budget=budget)
    if verdict.status is not SimplicityStatus.SIMPLE or (
            ring.base.context.field.characteristic == 0
            and (ring.nskew == 1 or _independent_over_base(ring))):
        return verdict
    return SimplicityVerdict(
        SimplicityStatus.UNKNOWN,
        reason="derivations dependent over R, no constant relation found")


def _central_relation(ring: SkewRingDescriptor) -> SkewPoly | None:
    """z = sum c_j*t_j for a nonzero c in k^m with sum c_j*d_j = 0, checked
    central, or None.  The images d_j(x_i) are normal forms and reduction is
    k-linear, so c solves one homogeneous linear equation per generator and
    monomial; `_eliminate` solves every one of them, and the lowest free c_j
    is set to 1, the other free ones to 0."""
    from .simplicity import _back_substitute, _eliminate
    m, context = ring.nskew, ring.base.context
    equations = {}
    for j, d in enumerate(ring.derivations):
        for i, g in enumerate(d.images):
            for mono, c in g._terms.items():
                equations.setdefault((i, mono), {})[(j,)] = c
    _, solved = _eliminate([e for _, e in sorted(equations.items())],
                           context.field)
    free = next((j for j in range(m) if j not in solved), None)
    if free is None:
        return None
    c = _back_substitute(solved, [int(j == free) for j in range(m)],
                         context.field)
    unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    z = SkewPoly(ring, {unit[j]: context.const(v) for j, v in enumerate(c)})
    if any(skew_commutator(z, ring.variable(n)) for n in context.names + ring.names):
        raise AssertionError(f"the constant relation {z} is not central")
    return z


def _independent_over_base(ring: SkewRingDescriptor) -> bool:
    """Whether some m x m minor of M_ij = d_j(x_i) is nonzero in the base;
    over a domain, whether D is linearly independent over it."""
    M = [[d.images[i] for d in ring.derivations]
         for i in range(ring.base.context.nvars)]
    return any(ring.base.reduce(det_fraction_free(rows, ring.base.context))
               for rows in itertools.combinations(M, ring.nskew))
