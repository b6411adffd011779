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

Inside the engine a monomial is one int (`_Packer`; Monagan & Pearce,
J. Symbolic Comput. 46, 2011; Bachmann & Schoenemann, ISSAC 1998): a
product is a sum of keys, LM(g) | m is one addition and one mask test, and
a heap of keys pops the leading term.  `_divide` is the one boundary: Polys
(or a dividend `buchberger` or `_reduce_basis` packed already) in, Polys
out.  `buchberger`, `_reduce_basis` and `GroebnerBasis` keep each element's
packed divisor record beside it.  A key never wraps: field widths follow
the input degrees with headroom.  Grevlex never raises the degree while
dividing, so a degree check at `_divide` entry covers every key; lex can (x
reduced by x - y^300, then y - z^300, is z^90000), so each new dividend
key's guard bits are checked, and one that outgrows its fields restarts the
division wider.  `buchberger` keeps the fields twice as wide as its
elements' largest degree (grevlex) or exponent (lex), so every S-polynomial
fits.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import BudgetExceededError, ContextMismatchError, UnitIdealError
from .poly import (
    Poly,
    TermOrder,
    VarContext,
    _canonical,
    monomial_degree,
    monomial_lcm,
)

DEFAULT_BUDGET = 20_000
_MIN_BITS = 4            # the narrowest exponent field of a packed key


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
    The constructor makes each given element monic; the elements' packed
    divisor records (see `_Packer`) are built on the first normal form.
    """

    __slots__ = ("context", "order", "polys", "_packed")

    def __init__(self, context: VarContext, order: TermOrder,
                 polys: Sequence[Poly]):
        self.context = context
        self.order = order
        self.polys = tuple(g.monic(order) for g in polys)
        self._packed = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0] == self.context.one

    def leading_monomials(self):
        return [g._lead(self.order)[0] for g in self.polys]

    def _divisors(self):
        """The elements' (packer, divisor records), built on first use."""
        if self._packed is None:
            self._packed = _packing(self.context, self.polys, self.order)
        return self._packed

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.context == other.context
                and self.order == other.order
                and self.polys == other.polys)

    def __hash__(self):
        return hash((self.context, self.order, self.polys))

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.polys) + "}"


class _Packer:
    """Packed int keys for the monomials of one (nvars, order, field width).

    Exponent e_i sits in field i (x_1 lowest) of `bits` value bits under a
    guard bit.  A key is K(m) = one + sum(e_i * weights[i]), so
    K(a*b) = K(a) + K(b) - one, and the smaller key is the larger monomial:
    under grevlex the fields hang below -deg(m); under lex they hang below
    a top half holding limit - e_i, with x_1 highest.  With every exponent
    at most `limit`, a | m iff (K(m) & low) + (guard - (K(a) & low)) has all
    its guard bits set.
    """

    __slots__ = ("limit", "weights", "one", "low", "guard", "shifts")

    def __init__(self, nvars: int, order: TermOrder, need: int):
        bits = max(_MIN_BITS, (2 * need).bit_length())
        width = bits + 1
        self.limit = limit = (1 << bits) - 1
        self.shifts = range(0, width * nvars, width)
        top = 1 << width * nvars
        self.low = top - 1
        ones = self.low // ((1 << width) - 1)        # 1 in every field
        self.guard = ones << bits
        if order is TermOrder.LEX:
            self.one = limit * ones * top
            self.weights = [(1 << s) - (top << width * (nvars - 1) - s)
                            for s in self.shifts]
        else:
            self.one = 0
            self.weights = [(1 << s) - top for s in self.shifts]

    def pack(self, m: tuple) -> int:
        return sum(map(mul, m, self.weights), self.one)

    def unpack(self, key: int) -> tuple:
        limit = self.limit
        return tuple([key >> s & limit for s in self.shifts])

    def record(self, g: Poly):
        """g as a divisor: (test constant, lead key, raw LC, packed tail),
        the tail as (K(m) - K(LM), -c) pairs."""
        pack = self.pack
        terms = [(pack(m), c) for m, c in g._terms.items()]
        lead, lc = min(terms)
        return (self.guard - (lead & self.low), lead, lc,
                [(k - lead, -c) for k, c in terms if k != lead])


def _need(monomials, order: TermOrder) -> int:
    """The largest exponent (lex) or degree (grevlex) among `monomials`:
    the value a packer's `limit` must cover."""
    if order is TermOrder.LEX:
        return max(chain.from_iterable(monomials), default=0)
    return max(map(sum, monomials), default=0)


def _packing(context: VarContext, divisors: Sequence[Poly], order: TermOrder,
             need: int = 0):
    """(packer, divisor records) wide enough for the divisors and `need`."""
    need = max([need] + [_need(g._terms, order) for g in divisors])
    packer = _Packer(context.nvars, order, need)
    return packer, [packer.record(g) for g in divisors]


def _divide(f: Poly, divisors: Sequence[Poly], order: TermOrder,
            want_cofactors: bool = False, packed=None):
    """Multivariate division: lam*f = sum(q_i * divisors[i]) + r, lam != 0.

    Heap-driven (Monagan & Pearce, *Sparse polynomial division using a
    heap*, 2011) on packed monomials: the dividend is a mutable
    {key: coeff} map beside a heap of its keys, so each step pops the
    leading term instead of rescanning the dividend.  A key that cancels to
    zero stays in the map, and on the heap, until it is popped and skipped.
    The popped term c*m is cancelled by the first divisor, in list order,
    whose leading monomial divides m: t*(g - LT(g)) is subtracted in place,
    with t = c*m / LT(g), which touches only the divisor's tail, each of
    whose keys is K(m) plus a cached offset.  When no leading monomial
    divides m, the term moves to the remainder.  The divisor list order is
    part of the determinism contract.

    No term of r is divisible by any divisor's leading monomial.  The terms
    of r and of each q_i are produced in descending order.  `packed` is
    the divisors' (packer, records) from `_packing`, when the caller has it
    cached; a Poly dividend it is too narrow for gets a wider one here.
    `buchberger` and `_reduce_basis` hand in f already packed by it, as a
    {key: raw coeff} map.

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
    if isinstance(f, Poly):
        context = f.context
        need = _need(f._terms, order)
        if packed is None or packed[0].limit < need:
            packed = _packing(context, divisors, order, need)
        pack = packed[0].pack
        p = {pack(m): c for m, c in f._terms.items()}
    else:
        context = divisors[0].context
        p = dict(f)
    packer, records = packed
    field = context.field
    modulus = field.p
    heap = list(p)
    heapify(heap)
    tests = [r[0] for r in records]
    low, guard, one = packer.low, packer.guard, packer.one
    inverses = {}            # divisor index -> 1/LC, for the exact step
    remainder = {}
    quotients = [{} for _ in divisors] if want_cofactors else None
    scaled = False
    while heap:
        m = heappop(heap)
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
        mlow = m & low
        for i, test in enumerate(tests):
            if (mlow + test) & guard == guard:
                break
        else:
            remainder[m] = c
            continue
        _, lead, cg, tail = records[i]
        if cg == 1:
            q = c
        elif modulus is None and type(c) is int and type(cg) is int:
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
        if want_cofactors:
            quotients[i][m - lead + one] = q
        for offset, ck in tail:
            mono = m + offset
            d = q * ck
            acc = p.get(mono)
            if acc is None:
                if mono & guard:
                    # an exponent outgrew its field (lex only): start wider
                    if not isinstance(f, Poly):
                        f = Poly._raw(context, _canonical(
                            {packer.unpack(k): v for k, v in f.items()}, modulus))
                    return _divide(f, divisors, order, want_cofactors,
                                   _packing(context, divisors, order,
                                            packer.limit + 1))
                p[mono] = d
                heappush(heap, mono)
            else:
                p[mono] = acc + d
    if scaled:
        # a scaled Fraction may have become integral: demote it
        remainder = _canonical(remainder, None)
        if want_cofactors:
            quotients = [_canonical(q, None) for q in quotients]
    unpack = packer.unpack
    cofactors = ([Poly._raw(context, {unpack(k): c for k, c in q.items()})
                  for q in quotients] if want_cofactors else None)
    return (Poly._raw(context, {unpack(k): c for k, c in remainder.items()}),
            cofactors)


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """The unique remainder of f modulo the basis; zero iff f lies in the ideal."""
    if f.context != basis.context:
        raise ContextMismatchError("polynomial and basis contexts differ")
    if not basis.polys:
        return f
    return _divide(f, basis.polys, basis.order, packed=basis._divisors())[0]


def normal_form_with_cofactors(f: Poly, basis: GroebnerBasis):
    """(remainder, cofactors): f = sum(cofactor_i * basis_i) + remainder."""
    if f.context != basis.context:
        raise ContextMismatchError("polynomial and basis contexts differ")
    if not basis.polys:
        return f, []
    return _divide(f, basis.polys, basis.order, want_cofactors=True,
                   packed=basis._divisors())


def _s_poly(lcm_key: int, record_f, record_g) -> dict:
    """S(f, g) up to a nonzero constant, as a packed map with unreduced
    entries, from the divisor records of f and g and the key of
    lcm = lcm(LM f, LM g): (c_g/e)*u_f*f - (c_f/e)*u_g*g with
    e = gcd(c_f, c_g) and u = lcm/LM.  The leading terms cancel, and u*m
    has key K(lcm) + K(m) - K(LM), so only the cached tails are read.
    Both leading coefficients are integers: over QQ the elements are
    integer primitive, over F_p they are monic (c = 1, so this is the monic
    combination u_f*f - u_g*g)."""
    _, _, cf, tail_f = record_f
    _, _, cg, tail_g = record_g
    e = gcd(cf, cg)
    sf, sg = cg // e, cf // e
    s = {lcm_key + offset: -sf * c for offset, c in tail_f}
    get = s.get
    for offset, c in tail_g:
        key = lcm_key + offset
        s[key] = get(key, 0) + sg * c
    return s


def _primitive(f: Poly, lc) -> Poly:
    """The integer primitive associate of a nonzero polynomial over QQ with
    raw leading coefficient lc: denominators cleared, content divided out,
    leading coefficient > 0."""
    terms = f._terms
    denominator = lcm(*[c.denominator for c in terms.values()])
    if denominator != 1:
        terms = {m: c.numerator * (denominator // c.denominator)
                 for m, c in terms.items()}
    content = gcd(*terms.values())
    if lc < 0:
        content = -content
    if content == 1 and terms is f._terms:
        return f
    return Poly._raw(f.context, {m: c // content for m, c in terms.items()})


def _normalize(g: Poly, lc) -> Poly:
    """The working form of a basis element with raw leading coefficient lc:
    integer primitive over QQ, monic over F_p.  A `_divide` remainder lists
    its leading term first, so its lc is ``next(iter(r._terms.values()))``."""
    field = g.context.field
    if field.p is None:
        return _primitive(g, lc)
    return g if lc == 1 else g.scale(field.raw_inverse(lc))


def buchberger(generators: Iterable[Poly], order: TermOrder = TermOrder.GREVLEX,
               budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """The unique reduced Groebner basis of (generators) under `order`.

    Normal selection strategy (lowest lcm degree first, ties broken by the
    order and then by index), with the coprime-leading-term criterion and the
    standard lcm chain criterion for pair elimination.  Each basis element's
    LM and packed divisor record are cached when it is appended; pending
    pairs sit in a heap keyed by (deg lcm, order.key(lcm), i, j), with a
    set of the same pairs beside it for the chain criterion's membership
    tests.  Both criteria read packed keys: a pair is coprime when
    K(lcm) = K(LM_i) + K(LM_j) - K(1), and LM_k | lcm is the guard test.
    Each S-polynomial is built packed from the two records and reduced by
    the heap-driven `_divide` against them all.  Exceeding
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
    for g in gens:
        g = _normalize(g, g._lead(order)[1])
        if g not in basis:
            basis.append(g)
    packed = _packing(context, basis, order)
    lead = [packed[0].unpack(record[1]) for record in packed[1]]

    queue = []               # (deg lcm, order key of lcm, i, j, lcm)
    pending = set()          # the (i, j) pairs in the queue

    def add_pairs(j):
        mj = lead[j]
        for i in range(j):
            lcm = monomial_lcm(lead[i], mj)
            heappush(queue, (monomial_degree(lcm), order.key(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(1, len(basis)):
        add_pairs(j)
    steps = 0
    while queue:
        _, _, i, j, lcm = heappop(queue)
        pending.discard((i, j))
        packer, records = packed
        lcm_key = packer.pack(lcm)
        # coprime criterion (lcm = LM_i * LM_j): the S-poly reduces to zero
        if lcm_key == records[i][1] + records[j][1] - packer.one:
            continue
        # chain criterion: some k with LM_k | lcm and both mixed pairs done
        lcm_low = lcm_key & packer.low
        guard = packer.guard
        skip = False
        for k, record in enumerate(records):
            if k == i or k == j:
                continue
            if (lcm_low + record[0]) & guard != guard:
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
        h, _ = _divide(_s_poly(lcm_key, records[i], records[j]), basis, order,
                       packed=packed)
        if h.is_zero():
            continue
        h = _normalize(h, next(iter(h._terms.values())))
        basis.append(h)
        need = _need(h._terms, order)
        if 2 * need > packer.limit:
            packed = _packing(context, basis, order)
        else:
            records.append(packer.record(h))
        lead.append(packed[0].unpack(packed[1][-1][1]))
        add_pairs(len(basis) - 1)

    polys, (packer, records) = _reduce_basis(basis, order, packed)
    result = GroebnerBasis(context, order, polys)
    # hand the records on; an element that `monic` rescaled gets a new one
    result._packed = packer, [r if g is h else packer.record(h)
                              for r, g, h in zip(records, polys, result.polys)]
    return result


def _reduce_basis(basis, order: TermOrder, packed):
    """Minimalize, inter-reduce in one pass and sort by LM, largest first:
    the reduced basis up to the scaling that `GroebnerBasis` makes monic,
    and its (packer, divisor records).

    `packed` is the elements' (packer, divisor records) from `_packing`.
    The elements are in the working form of `_normalize`, and each
    inter-reduced element is put in it again (over F_p a monic remainder
    is returned unchanged).
    """
    packer, records = packed
    low, guard = packer.low, packer.guard
    # minimal: drop any element whose LM is divisible by another's LM
    minimal = []
    minimal_records = []
    for i, g in enumerate(basis):
        li = records[i][1]
        keep = True
        for j, (test, lj, _, _) in enumerate(records):
            if i == j:
                continue
            if ((li & low) + test) & guard == guard and (li != lj or j < i):
                keep = False
                break
        if keep:
            minimal.append(g)
            minimal_records.append(records[i])
    # inter-reduce the tails in one pass: no other leading monomial divides
    # an element's own, so its leading monomial passes to the remainder and
    # the cached LMs stay valid (over QQ the LC may be scaled); as the LMs
    # never change, an element reduced once stays reduced
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1:]
        if not others:
            continue
        _, lead, lc, tail = minimal_records[i]
        dividend = {lead + offset: -c for offset, c in tail}  # minimal[i]
        dividend[lead] = lc
        r, _ = _divide(dividend, others, order, packed=(
            packer, minimal_records[:i] + minimal_records[i + 1:]))
        if r != minimal[i]:
            r = _normalize(r, next(iter(r._terms.values())))
            minimal[i] = r
            if _need(r._terms, order) > packer.limit:
                packer, minimal_records = _packing(r.context, minimal, order)
            else:
                minimal_records[i] = packer.record(r)
    ranked = sorted(zip(minimal_records, minimal), key=lambda pair: pair[0][1])
    return [g for _, g in ranked], (packer, [r for r, _ in ranked])


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
