"""Buchberger's algorithm and the ideal-theoretic decision layer.

Everything downstream (D-ideal checks, unit-ideal criteria, Krull dimension,
quotient normal forms) reduces to the unique reduced Groebner basis of an
ideal under a term order.  Determinism is part of the contract: recomputing
a basis yields an identical object, and normal forms are unique.

Over QQ the Buchberger loop runs fraction-free: basis elements are integer
primitive polynomials (denominators cleared, content divided out, leading
coefficient positive), S-polynomials cross-multiply the integer leading
coefficients, `_divide` pseudo-divides by non-monic elements, and each
finished reduction has its content removed.  Elements are made monic only
when the reduced basis is returned.  Over F_p every element is monic
throughout.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import BudgetExceededError, ContextMismatchError, UnitIdealError
from .poly import (
    Poly,
    TermOrder,
    VarContext,
    _canonical,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_BUDGET = 20_000


class IdealHandle:
    """A finitely generated ideal, held by its generator list.

    Zero generators are dropped at construction; the empty list is the zero
    ideal.
    """

    __slots__ = ("context", "generators")

    def __init__(self, context: VarContext, generators: Iterable[Poly]):
        gens = []
        for g in generators:
            if g.context != context:
                raise ContextMismatchError("ideal generator outside the context")
            if not g.is_zero():
                gens.append(g)
        self.context = context
        self.generators = tuple(gens)

    def __eq__(self, other):
        return (isinstance(other, IdealHandle)
                and self.context == other.context
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.context, self.generators))

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


class GroebnerBasis:
    """The reduced Groebner basis of an ideal under a fixed term order.

    Reduced means: every element is monic, and no leading monomial divides
    any term of another element.  Such a basis is unique for (ideal, order),
    which makes ideal equality and membership decidable by normal forms.
    The constructor makes each given element monic, and computes the
    (LM, raw LC) pair of each once, into ``leads``.
    """

    __slots__ = ("context", "order", "polys", "leads")

    def __init__(self, context: VarContext, order: TermOrder,
                 polys: Sequence[Poly]):
        self.context = context
        self.order = order
        self.polys = tuple(g.monic(order) for g in polys)
        self.leads = tuple(g._lead(order) for g in self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0] == self.context.one

    def leading_monomials(self):
        return [m for m, _ in self.leads]

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.context == other.context
                and self.order == other.order
                and self.polys == other.polys)

    def __hash__(self):
        return hash((self.context, self.order, self.polys))

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.polys) + "}"


def _heap_key(order: TermOrder):
    """A key on monomials whose smallest value is the largest monomial under
    `order`: the negated ``order.key``, built directly."""
    if order is TermOrder.LEX:
        return lambda m: tuple([-e for e in m])
    # negated grevlex key: (-degree, e_n, ..., e_1)
    return lambda m: (-sum(m),) + m[::-1]


def _divide(f: Poly, divisors: Sequence[Poly], order: TermOrder,
            want_cofactors: bool = False, lead=None):
    """Multivariate division: lam*f = sum(q_i * divisors[i]) + r, lam != 0.

    Heap-driven (Monagan & Pearce, *Sparse polynomial division using a
    heap*, 2011): the dividend is a mutable {monomial: coeff} map beside a
    heap of its monomials keyed by the order, so each step pops the leading
    term instead of rescanning the dividend.  A monomial that cancels to
    zero stays in the map, and on the heap, until it is popped and skipped.
    The popped term c*m is cancelled by the first divisor, in list order,
    whose leading monomial divides m: t*(g - LT(g)) is subtracted in place,
    with t = c*m / LT(g), which touches only the divisor's tail.  When no
    leading monomial divides m, the term moves to the remainder.  The
    divisor list order is part of the determinism contract.

    No term of r is divisible by any divisor's leading monomial.  The terms
    of r and of each q_i are produced in descending order.  `lead` is the
    divisors' (LM, raw LC) list, when the caller has it cached.

    Coefficients are raw (see :mod:`derivalg.field`).  Over F_p the
    dividend's entries accumulate unreduced, possibly negative, products
    and are reduced once, when popped; over QQ an integral Fraction is
    demoted to int there.

    Over QQ, an integer term c*m met by a divisor g whose leading
    coefficient c_g is an integer other than 1 is cancelled by
    pseudo-division: the dividend, the remainder and the quotients are
    scaled by c_g/e, with e = gcd(c, c_g), and (c/e)*u*g is subtracted,
    with u = m/LM(g), so integer inputs stay integral.  The remainder is
    then r = lam*r_exact for the exact remainder r_exact and some nonzero
    rational lam, from the same divisor choices.  Against monic divisors
    (every GroebnerBasis) lam = 1: remainder and cofactors are exact.
    """
    context = f.context
    field = context.field
    modulus = field.p
    if lead is None:
        lead = [g._lead(order) for g in divisors]
    heap_key = _heap_key(order)
    p = dict(f._terms)
    heap = [(heap_key(m), m) for m in p]
    heapify(heap)
    tails = {}               # divisor index -> [(m, -c) for the tail]
    inverses = {}            # divisor index -> 1/LC, for the exact step
    remainder = {}
    quotients = [{} for _ in divisors] if want_cofactors else None
    scaled = False
    while heap:
        m = heappop(heap)[1]
        c = p.pop(m)
        if modulus is None:
            if not c:
                continue
            if c.denominator == 1:
                c = c.numerator
        else:
            c %= modulus
            if not c:
                continue
        for i, (mg, cg) in enumerate(lead):
            if monomial_divides(mg, m):
                break
        else:
            remainder[m] = c
            continue
        tail = tails.get(i)
        if tail is None:
            tail = tails[i] = [(mk, -ck) for mk, ck in divisors[i]._terms.items()
                               if mk != mg]
        if (modulus is None and cg != 1
                and type(c) is int and type(cg) is int):
            e = gcd(c, cg)
            q = c // e
            scale = cg // e
            if scale != 1:
                scaled = True
                for mapping in [p, remainder] + (quotients or []):
                    for k in mapping:
                        mapping[k] *= scale
        else:
            inverse = inverses.get(i)
            if inverse is None:
                inverse = inverses[i] = field.raw_inverse(cg)
            q = c * inverse
            if modulus is None:
                if q.denominator == 1:
                    q = q.numerator
            else:
                q %= modulus
        u = monomial_div(m, mg)
        if want_cofactors:
            quotients[i][u] = q
        for mk, ck in tail:
            mono = monomial_mul(u, mk)
            d = q * ck
            acc = p.get(mono)
            if acc is None:
                p[mono] = d
                heappush(heap, (heap_key(mono), mono))
            else:
                p[mono] = acc + d
    if scaled:
        # a scaled Fraction may have become integral: demote it
        remainder = _canonical(remainder, None)
        if want_cofactors:
            quotients = [_canonical(q, None) for q in quotients]
    cofactors = ([Poly._raw(context, q) for q in quotients]
                 if want_cofactors else None)
    return Poly._raw(context, remainder), cofactors


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """The unique remainder of f modulo the basis; zero iff f lies in the ideal."""
    if f.context != basis.context:
        raise ContextMismatchError("polynomial and basis contexts differ")
    if not basis.polys:
        return f
    return _divide(f, basis.polys, basis.order, lead=basis.leads)[0]


def normal_form_with_cofactors(f: Poly, basis: GroebnerBasis):
    """(remainder, cofactors): f = sum(cofactor_i * basis_i) + remainder."""
    if f.context != basis.context:
        raise ContextMismatchError("polynomial and basis contexts differ")
    if not basis.polys:
        return f, []
    return _divide(f, basis.polys, basis.order, want_cofactors=True,
                   lead=basis.leads)


def _s_poly(f: Poly, g: Poly, lead_f, lead_g) -> Poly:
    """S(f, g) up to a nonzero constant, from the cached (LM, raw LC) pairs
    of f and g: (c_g/e)*u_f*f - (c_f/e)*u_g*g with e = gcd(c_f, c_g) and
    u = lcm(LM f, LM g)/LM.  Both leading coefficients are integers: over
    QQ the elements are integer primitive, over F_p they are monic (c = 1,
    so this is the monic combination u_f*f - u_g*g)."""
    (mf, cf), (mg, cg) = lead_f, lead_g
    e = gcd(cf, cg)
    sf, sg = cg // e, cf // e
    lcm = monomial_lcm(mf, mg)
    tf = Poly._raw(f.context, {monomial_div(lcm, mf): sf})
    tg = Poly._raw(g.context, {monomial_div(lcm, mg): sg})
    return tf * f - tg * g


def _primitive(f: Poly, order: TermOrder) -> Poly:
    """The integer primitive associate of a nonzero polynomial over QQ:
    denominators cleared, content divided out, leading coefficient > 0."""
    terms = f._terms
    denominator = lcm(*[c.denominator for c in terms.values()])
    if denominator != 1:
        terms = {m: c.numerator * (denominator // c.denominator)
                 for m, c in terms.items()}
    content = gcd(*terms.values())
    if f._lead(order)[1] < 0:
        content = -content
    if content == 1 and terms is f._terms:
        return f
    return Poly._raw(f.context, {m: c // content for m, c in terms.items()})


def _normalize(g: Poly, order: TermOrder) -> Poly:
    """The working form of a basis element: integer primitive over QQ,
    monic over F_p."""
    return _primitive(g, order) if g.context.field.p is None else g.monic(order)


def buchberger(generators: Iterable[Poly], order: TermOrder = TermOrder.GREVLEX,
               budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """The unique reduced Groebner basis of (generators) under `order`.

    Normal selection strategy (lowest lcm degree first, ties broken by the
    order and then by index), with the coprime-leading-term criterion and the
    standard lcm chain criterion for pair elimination.  Each basis element's
    (LM, raw LC) is cached when it is appended; pending pairs sit in a heap keyed
    by (deg lcm, order.key(lcm), i, j), with a set of the same pairs beside
    it for the chain criterion's membership tests.  S-polynomials are reduced
    by the heap-driven `_divide` against the cached leads.  Exceeding
    `budget` S-polynomial reductions raises BudgetExceededError rather than
    returning anything partial.

    Over QQ the elements are kept integer primitive (see `_primitive`) from
    entry on, so associate generators deduplicate; `_divide` then
    pseudo-divides, and each nonzero remainder is made primitive again.  A
    pseudo-remainder is a nonzero rational multiple of the exact one, so
    leading monomials, pairs, the step count and the reduced monic output
    are those of the monic computation.  Over F_p elements are monic.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("buchberger needs a context; use an IdealHandle for (0)")
    context = gens[0].context
    for g in gens:
        if g.context != context:
            raise ContextMismatchError("generators live in different contexts")
    basis = []
    lead = []
    for g in gens:
        g = _normalize(g, order)
        if g not in basis:
            basis.append(g)
            lead.append(g._lead(order))

    queue = []               # (deg lcm, order key of lcm, i, j, lcm)
    pending = set()          # the (i, j) pairs in the queue

    def add_pairs(j):
        mj = lead[j][0]
        for i in range(j):
            lcm = monomial_lcm(lead[i][0], mj)
            heappush(queue, (monomial_degree(lcm), order.key(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(1, len(basis)):
        add_pairs(j)
    steps = 0
    while queue:
        _, _, i, j, lcm = heappop(queue)
        pending.discard((i, j))
        mi = lead[i][0]
        mj = lead[j][0]
        # coprime criterion: S-poly reduces to zero automatically
        if all(a == 0 or b == 0 for a, b in zip(mi, mj)):
            continue
        # chain criterion: some k with LM_k | lcm and both mixed pairs done
        skip = False
        for k, (mk, _) in enumerate(lead):
            if k == i or k == j:
                continue
            if not monomial_divides(mk, lcm):
                continue
            if (min(i, k), max(i, k)) in pending:
                continue
            if (min(j, k), max(j, k)) in pending:
                continue
            skip = True
            break
        if skip:
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceededError(
                f"Buchberger step budget ({budget}) exhausted")
        h, _ = _divide(_s_poly(basis[i], basis[j], lead[i], lead[j]), basis,
                       order, lead=lead)
        if h.is_zero():
            continue
        h = _normalize(h, order)
        basis.append(h)
        lead.append(h._lead(order))
        add_pairs(len(basis) - 1)

    return GroebnerBasis(context, order, _reduce_basis(basis, order, lead))


def _reduce_basis(basis, order: TermOrder, lead):
    """Minimalize, inter-reduce in one pass and sort by LM, largest first:
    the reduced basis up to the scaling that `GroebnerBasis` makes monic.

    `lead` is the elements' (LM, raw LC) list.  The elements are in the
    working form of `_normalize`, and each inter-reduced element is put in
    it again (over F_p a monic remainder is returned unchanged).
    """
    # minimal: drop any element whose LM is divisible by another's LM
    minimal = []
    minimal_lead = []
    for i, g in enumerate(basis):
        mi = lead[i][0]
        keep = True
        for j, (m, _) in enumerate(lead):
            if i == j:
                continue
            if monomial_divides(m, mi) and (mi != m or j < i):
                keep = False
                break
        if keep:
            minimal.append(g)
            minimal_lead.append(lead[i])
    # inter-reduce the tails in one pass: no other leading monomial divides
    # an element's own, so its leading monomial passes to the remainder and
    # the cached LMs stay valid (over QQ the LC may be scaled); as the LMs
    # never change, an element reduced once stays reduced
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1:]
        if not others:
            continue
        r, _ = _divide(minimal[i], others, order,
                       lead=minimal_lead[:i] + minimal_lead[i + 1:])
        if r != minimal[i]:
            r = _normalize(r, order)
            lm = minimal_lead[i][0]
            minimal_lead[i] = (lm, r._terms[lm])
            minimal[i] = r
    ranked = sorted(zip(minimal_lead, minimal),
                    key=lambda pair: order.key(pair[0][0]), reverse=True)
    return [g for _, g in ranked]


def groebner_basis(ideal: IdealHandle, order: TermOrder = TermOrder.GREVLEX,
                   budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced basis of an IdealHandle; the zero ideal yields an empty basis."""
    if not ideal.generators:
        return GroebnerBasis(ideal.context, order, ())
    return buchberger(ideal.generators, order, budget)


def ideal_member(f: Poly, ideal: IdealHandle,
                 order: TermOrder = TermOrder.GREVLEX,
                 budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f lies in the ideal (zero normal form)."""
    basis = groebner_basis(ideal, order, budget)
    return normal_form(f, basis).is_zero()


def is_unit_ideal(ideal: IdealHandle, order: TermOrder = TermOrder.GREVLEX,
                  budget: int = DEFAULT_BUDGET) -> bool:
    """True iff 1 lies in the ideal (reduced basis == {1})."""
    return groebner_basis(ideal, order, budget).is_unit


def krull_dimension(ideal: IdealHandle, order: TermOrder = TermOrder.GREVLEX,
                    budget: int = DEFAULT_BUDGET) -> int:
    """dim k[x_1..x_n]/I via the initial ideal.

    The answer is independent of the chosen term order.
    """
    basis = groebner_basis(ideal, order, budget)
    if basis.is_unit:
        raise UnitIdealError("the unit ideal has no Krull dimension")
    return _initial_dimension(basis)


def _initial_dimension(basis: GroebnerBasis) -> int:
    """Largest size of a variable subset S such that no leading monomial of
    the (non-unit) basis involves only variables from S."""
    supports = [frozenset(i for i, e in enumerate(m) if e > 0)
                for m in basis.leading_monomials()]
    n = basis.context.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    raise AssertionError("unreachable: the empty set is always independent")


class QuotientRing:
    """k[x_1..x_n]/I with elements held as normal forms modulo I's basis.

    An empty defining basis models the polynomial ring itself, which lets
    derivations and simplicity checks treat both cases uniformly.
    """

    __slots__ = ("context", "defining", "basis")

    def __init__(self, context: VarContext, defining: IdealHandle,
                 basis: GroebnerBasis):
        if defining.context != context or basis.context != context:
            raise ContextMismatchError("quotient components share no context")
        if basis.is_unit:
            raise UnitIdealError("defining ideal is the whole ring")
        self.context = context
        self.defining = defining
        self.basis = basis

    @classmethod
    def of(cls, ideal: IdealHandle, order: TermOrder = TermOrder.GREVLEX,
           budget: int = DEFAULT_BUDGET) -> "QuotientRing":
        return cls(ideal.context, ideal, groebner_basis(ideal, order, budget))

    @classmethod
    def trivial(cls, context: VarContext) -> "QuotientRing":
        empty = IdealHandle(context, ())
        return cls(context, empty, GroebnerBasis(context, TermOrder.GREVLEX, ()))

    @property
    def is_trivial(self) -> bool:
        return not self.basis.polys

    def reduce(self, f: Poly) -> Poly:
        """Canonical representative of f modulo the defining ideal."""
        if f.context != self.context:
            raise ContextMismatchError("element outside the quotient's context")
        if not self.basis.polys:
            return f
        return normal_form(f, self.basis)

    def dimension(self) -> int:
        """Krull dimension, read off the defining basis."""
        return _initial_dimension(self.basis)

    def generators(self):
        return tuple(self.context.var(i) for i in range(self.context.nvars))

    def __eq__(self, other):
        return (isinstance(other, QuotientRing)
                and self.context == other.context
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.context, self.basis))

    def __str__(self):
        if self.is_trivial:
            return str(self.context)
        return f"{self.context}/{self.defining}"


def quotient_reduce(ring: QuotientRing, f: Poly) -> Poly:
    return ring.reduce(f)
