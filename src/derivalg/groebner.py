"""Buchberger's algorithm and the ideal-theoretic decision layer.

Everything downstream (D-ideal checks, unit-ideal criteria, Krull dimension,
quotient normal forms) reduces to the unique reduced Groebner basis of an
ideal under a term order.  Determinism is part of the contract: recomputing
a basis yields an identical object, and normal forms are unique.  The order
is a parameter only where it shapes the result (a basis, its cofactors, a
normal form); membership, the unit test and the dimension are decided in
grevlex.

`buchberger` is signature-based (RB: Eder & Faugere, J. Symbolic Comput.
80, 2017; Roune & Stillman, ISSAC 2012).  Each element carries a
signature, a monomial times the basis vector e_j of the input it stems
from, and the loop reduces at most one polynomial per signature, in
increasing signature order.  Signatures known to reduce to zero (F5
criterion, earlier zero reductions) or already covered by an element are
skipped before any reduction, so no pair of katsura-4 reduces to zero.

Over QQ the loop runs fraction-free: basis elements are integer primitive
polynomials (denominators cleared, content divided out, leading
coefficient positive), `_divide` pseudo-divides by non-monic elements, and
each finished reduction has its content removed.  Elements are made monic
only when the reduced basis is returned.  Over F_p every element is monic
throughout.

Inside the engine a monomial is one int (`_Packer`; Monagan & Pearce,
J. Symbolic Comput. 46, 2011; Bachmann & Schoenemann, ISSAC 1998): a
product is a sum of keys, LM(g) | m is one addition and one mask test, and
a heap of keys pops the leading term.  Signatures are packed by the same
packer, and one packer serves every call with the same (nvars, order,
field width).  `_divide`, the one division, takes a packed dividend and
divisor records (see `_Packer.record`) and returns a packed remainder
(`_Packed`) and packed quotients; it runs only where some leading monomial
divides a term, as any other polynomial is its own remainder.
`buchberger` packs each input generator once and holds every element as
its record until `_monic` unpacks the reduced basis.  `normal_form` and
`normal_form_with_cofactors` are the one Poly boundary (`_normal_form`):
a zero or reduced f comes back itself, after a test of its exponent
tuples against the leading monomials a `GroebnerBasis` keeps; any other f
is packed in the records the basis keeps beside its elements, and the
results are unpacked.  A key never wraps:
field widths follow the input degrees with headroom.  Grevlex never raises
the degree while dividing, so fields that hold the dividend's degree cover
every key; lex can (x reduced by x - y^300, then y - z^300, is z^90000),
so `_divide` checks each new dividend key's guard bits and raises
OverflowError when one outgrows its fields.  Its caller then repacks every
key wider and divides again.  `buchberger` keeps its fields wide enough for
its largest leading monomial plus its largest signature of the current
index, which covers every J-pair signature, and checks the guard bits of
each rewriter multiple it builds.  A signature of a reduction step,
(m/LM(h))*sig(h), is only compared with K(T), and that comparison stays
exact while each field is at most twice the limit.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from math import gcd, lcm
from operator import ge, itemgetter, mul
from typing import Iterable, Sequence

from .errors import BudgetExceededError, ContextMismatchError, UnitIdealError
from .field import _Keyed
from .poly import Poly, TermOrder, VarContext

DEFAULT_BUDGET = 20_000
_MIN_BITS = 4            # the narrowest exponent field of a packed key

# The memo of the running session statement (set by `Session.execute`), or
# None: `buchberger` and `simplicity.d_simplicity` store their results in it,
# so a session computes each basis and each verdict once.
_MEMO: ContextVar = ContextVar("derivalg_memo", default=None)


class IdealHandle(_Keyed):
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

    def _key(self):
        return (self.context, self.generators)

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


class GroebnerBasis(_Keyed):
    """The reduced Groebner basis of an ideal under a fixed term order.

    Reduced means: every element is monic, and no leading monomial divides
    any term of another element.  Such a basis is unique for (ideal, order),
    which makes ideal equality and membership decidable by normal forms.
    The constructor makes each given element monic and keeps the leading
    monomials, which decide whether a normal form needs any division (see
    `normal_form`); the elements' packed divisor records (see `_Packer`)
    are built on the first division, and again wider for a dividend that
    needs it.  `buchberger` hands in monic elements, their leading
    monomials and their records (`_reduced`).
    """

    __slots__ = ("context", "order", "polys", "_leads", "_packed")

    def __init__(self, context: VarContext, order: TermOrder,
                 polys: Sequence[Poly]):
        if not isinstance(order, TermOrder):
            raise TypeError(f"not a term order: {order!r}")
        polys = tuple(g.monic(order) for g in polys)
        if any(g.context != context for g in polys):
            raise ContextMismatchError("basis element outside the context")
        self.context = context
        self.order = order
        self.polys = polys
        self._leads = tuple([g._lead(order)[0] for g in polys])
        self._packed = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def is_unit(self) -> bool:
        # a monic element whose leading monomial is 1 is the constant 1
        return len(self._leads) == 1 and not any(self._leads[0])

    def leading_monomials(self):
        return list(self._leads)

    @classmethod
    def _reduced(cls, context: VarContext, order: TermOrder, polys, leads,
                 packed):
        """The basis of monic elements whose leading monomials and (packer,
        divisor records) `buchberger` built already: nothing is rescanned."""
        self = object.__new__(cls)
        self.context = context
        self.order = order
        self.polys = polys
        self._leads = leads
        self._packed = packed
        return self

    def _divisors(self, need: int = 0):
        """The elements' (packer, divisor records), with fields that hold
        `need`: built on first use, and again wider when `need` outgrows
        the cached ones."""
        if self._packed is None or self._packed[0].limit < need:
            self._packed = _packing(self.context, self.polys, self.order, need)
        return self._packed

    def _key(self):
        return (self.context, self.order, self.polys)

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

    A packer is never changed once built, so one serves every caller:
    `_Packer(nvars, order, need)` returns the packer of (nvars, order, the
    field width `need` asks for), built on the first call and shared by
    every basis, division and normal form after it.
    """

    __slots__ = ("limit", "weights", "one", "low", "guard", "shifts")

    def __new__(cls, nvars: int, order: TermOrder, need: int):
        bits = max(_MIN_BITS, (2 * need).bit_length())
        key = (nvars, order, bits)
        self = _PACKERS.get(key)
        if self is not None:
            return self
        self = _PACKERS[key] = object.__new__(cls)
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
        return self

    def pack(self, m: tuple) -> int:
        return sum(map(mul, m, self.weights), self.one)

    def unpack(self, key: int) -> tuple:
        limit = self.limit
        return tuple([key >> s & limit for s in self.shifts])

    def repack(self, keys, old: "_Packer") -> list:
        """The keys of `old` as keys of this packer."""
        unpack = old.unpack
        return [self.pack(unpack(k)) for k in keys]

    def packed(self, g: Poly) -> "_Packed":
        """g with packed keys, leading term first."""
        weights, one = self.weights, self.one
        packed = _Packed(sorted([(sum(map(mul, m, weights), one), c)
                                 for m, c in g._terms.items()]))
        packed.context = g.context
        return packed

    def record(self, g: "_Packed"):
        """g (nonzero, leading term first) as a divisor: (test constant, lead
        key, raw LC, packed tail), the tail as (K(m) - K(LM), c) pairs."""
        terms = iter(g.items())
        lead, lc = next(terms)
        return (self.guard - (lead & self.low), lead, lc,
                [(k - lead, c) for k, c in terms])

    def working(self, terms: list, p) -> tuple:
        """The divisor record (see `record`) of a nonzero element, from its
        (key, raw coeff) pairs, leading term first, put in working form:
        over F_p (p given) monic; over QQ integer primitive, i.e.
        denominators cleared, content divided out and leading coefficient
        > 0.  Over QQ only an input generator can hold a Fraction, so the
        denominators are looked at only when one is met."""
        lead, lc = terms[0]
        if p is not None:
            scale = 1 if lc == 1 else pow(lc, -1, p)
        else:
            try:
                scale = gcd(*[c for _, c in terms])
            except TypeError:        # a Fraction: clear the denominators
                denominator = lcm(*[c.denominator for _, c in terms])
                terms = [(k, c.numerator * (denominator // c.denominator))
                         for k, c in terms]
                lc = terms[0][1]
                scale = gcd(*[c for _, c in terms])
            if lc < 0:
                scale = -scale
        test = self.guard - (lead & self.low)
        if scale == 1:
            return test, lead, lc, [(k - lead, c) for k, c in terms[1:]]
        if p is not None:
            return test, lead, 1, [(k - lead, c * scale % p)
                                   for k, c in terms[1:]]
        return test, lead, lc // scale, [(k - lead, c // scale)
                                         for k, c in terms[1:]]

    def need(self, key: int) -> int:
        """The `_need` of the monomial of `key`.  Under grevlex a key is
        low - deg*2^w, with w the width of all fields and 0 <= low < 2^w."""
        if not self.one:     # grevlex
            return -(key // (self.low + 1))
        return max(self.unpack(key))


# the packer of each (nvars, order, bits) built so far: see `_Packer`
_PACKERS: dict = {}


class _Packed(dict):
    """A polynomial inside the engine: {key: raw coeff} in one packer's
    keys, the leading term first, with its `context` set after the map is
    built (`_Packed(terms)` is dict's own constructor).  It answers
    `is_zero` like a Poly."""

    __slots__ = ("context",)

    def is_zero(self) -> bool:
        return not self


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
    return packer, [packer.record(packer.packed(g)) for g in divisors]


def _multiple(context: VarContext, record, shift: int = 0) -> _Packed:
    """u*g for the element g of a divisor record, with K(u) = one + shift."""
    _, lead, lc, tail = record
    top = lead + shift
    g = _Packed([(top, lc)] + [(top + o, c) for o, c in tail])
    g.context = context
    return g


def _unpacked(context: VarContext, packer: _Packer, record) -> Poly:
    """The Poly of the element of a divisor record of `packer`."""
    unpack = packer.unpack
    return Poly._raw(context, {unpack(k): c for k, c
                               in _multiple(context, record).items()})


def _divide(f: _Packed, packer: _Packer, records: Sequence,
            want_cofactors: bool = False, signature=None):
    """Multivariate division: lam*f = sum(q_i * g_i) + r, lam != 0, with g_i
    the element of records[i], a divisor record of `packer`.

    Heap-driven (Monagan & Pearce, *Sparse polynomial division using a
    heap*, 2011): the dividend is a mutable {key: coeff} map beside a heap
    of its keys, so each step pops the leading term instead of rescanning
    the dividend.  A key that cancels to zero stays in the map, and on the
    heap, until it is popped and skipped.  The popped term c*m is cancelled
    by the first divisor, in list order, whose leading monomial divides m:
    t*(g - LT(g)) is subtracted in place, with t = c*m / LT(g), which
    touches only the divisor's tail, each of whose keys is K(m) plus a
    cached offset.  When no leading monomial divides m, the term moves to
    the remainder.  The divisor list order is part of the determinism
    contract.

    f, in the keys of `packer` and in any term order, is left unchanged.
    The result is (r, quotients): r a `_Packed`, and with `want_cofactors`
    the {key: coeff} map of each q_i, else None.  No term of r is divisible
    by a divisor's leading monomial; the terms of r and of each q_i come in
    descending order.  A key that outgrows the fields (lex only) raises
    OverflowError.

    `signature` = (K(T), sigs) makes the reduction regular for
    `buchberger`'s signature loop: divisor i with sigs[i] = K(sig_i) may
    cancel m only when (m/LM_i)*sig_i is smaller than T, i.e. when its key
    K(m) - K(LM_i) + K(sig_i) is larger than K(T); sigs[i] = None (an
    element of lower index, whose every multiple has a smaller signature)
    always may.  That key's fields may hold up to twice the limit, which
    still fits each field below its guard bit, so the comparison with the
    valid key K(T) is exact.

    Coefficients are raw (see :mod:`derivalg.field`).  Over F_p the
    dividend's entries accumulate unreduced, possibly negative, products
    and are reduced once, when popped; over QQ an integral Fraction is
    demoted to int there.  Every divisor has leading coefficient 1, or the
    field is QQ and f and the divisors are integral: `GroebnerBasis`
    elements are monic, `buchberger`'s are monic over F_p and integer
    primitive over QQ, with integral dividends.  A term c*m met by g with
    c_g = LC(g) != 1 is cancelled by pseudo-division: the dividend, the
    remainder and the quotients are scaled by c_g/e, with e = gcd(c, c_g),
    and (c/e)*u*g is subtracted, with u = m/LM(g).  Then r = lam*r_exact
    for the exact remainder r_exact, from the same divisor choices; against
    monic divisors lam = 1.
    """
    context = f.context
    modulus = context.field.p
    p = dict(f)
    heap = list(p)
    heapify(heap)
    tests = [r[0] for r in records]
    if signature is not None:
        bound, sigs = signature
        offsets = [s if s is None else s - r[1] for s, r in zip(sigs, records)]
    low, guard, one = packer.low, packer.guard, packer.one
    remainder = {}
    quotients = [{} for _ in records] if want_cofactors else None
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
                if signature is None or offsets[i] is None:
                    break
                if m + offsets[i] > bound:       # K((m/LM_i)*sig_i) > K(T)
                    break
        else:
            remainder[m] = c
            continue
        _, lead, cg, tail = records[i]
        if cg == 1:
            q = c
        else:                # pseudo-division: c and cg are ints
            e = gcd(c, cg)
            q = c // e
            scale = cg // e
            if scale != 1:
                for mapping in [p, remainder] + (quotients or []):
                    for k in mapping:
                        mapping[k] *= scale
        if want_cofactors:
            quotients[i][m - lead + one] = q
        for offset, ck in tail:
            mono = m + offset
            d = q * ck
            acc = p.get(mono)
            if acc is None:
                if mono & guard:
                    # an exponent outgrew its field (lex only)
                    raise OverflowError("a packed key outgrew its fields")
                p[mono] = -d
                heappush(heap, mono)
            else:
                p[mono] = acc - d
    r = _Packed(remainder)
    r.context = context
    return r, quotients


def _normal_form(f: Poly, basis: GroebnerBasis, want_cofactors: bool):
    """(remainder, cofactors as Polys, or None) of f modulo the basis: the
    Poly boundary of `_divide`.  When no leading monomial of the basis
    divides a term of f (f zero, or already reduced), f is its own
    remainder: f itself comes back, with zero cofactors, and nothing is
    packed.  Otherwise f is packed in the basis's packing, made wider first
    when f needs it, and again when the division outgrows it (lex only);
    the basis keeps the widest packing built."""
    context = f.context
    if context is not basis.context and context != basis.context:
        raise ContextMismatchError("polynomial and basis contexts differ")
    leads = basis._leads
    if not any(all(map(ge, m, lm)) for m in f._terms for lm in leads):
        return f, [context.zero] * len(leads) if want_cofactors else None
    need = _need(f._terms, basis.order)
    while True:
        packer, records = basis._divisors(need)
        weights, one = packer.weights, packer.one
        dividend = _Packed([(sum(map(mul, m, weights), one), c)
                            for m, c in f._terms.items()])
        dividend.context = context
        try:
            r, quotients = _divide(dividend, packer, records, want_cofactors)
            break
        except OverflowError:
            need = packer.limit + 1      # lex only: divide again, wider
    shifts, limit = packer.shifts, packer.limit
    r = Poly._raw(context, {tuple([k >> s & limit for s in shifts]): c
                            for k, c in r.items()})
    if want_cofactors:
        quotients = [Poly._raw(context, {tuple([k >> s & limit for s in shifts]): c
                                         for k, c in q.items()})
                     for q in quotients]
    return r, quotients


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """The unique remainder of f modulo the basis; zero iff f lies in the
    ideal.  An f that no leading monomial of the basis divides a term of
    is its own remainder and comes back itself, undivided."""
    return _normal_form(f, basis, False)[0]


def normal_form_with_cofactors(f: Poly, basis: GroebnerBasis):
    """(remainder, cofactors): f = sum(cofactor_i * basis_i) + remainder.
    As in `normal_form`, a reduced f comes back itself, undivided, with
    zero cofactors."""
    return _normal_form(f, basis, True)


def buchberger(generators: Iterable[Poly], order: TermOrder = TermOrder.GREVLEX,
               budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """The unique reduced Groebner basis of (generators) under `order`.

    A signature-based loop, RB (Eder & Faugere, J. Symbolic Comput. 80,
    2017; Roune & Stillman, ISSAC 2012), in position-over-term order.  The
    inputs, each in working form (see `_Packer.working`) and without
    duplicates, are sorted by LM, smallest first; input j has signature
    e_j and is reduced by the elements of lower index, all of which have
    smaller signatures.  Then the J-pairs of index j are taken in
    increasing signature T = t*e_j, one per signature.  T is discarded
    when LM(h)*e_j divides it for an element h of lower index (the F5
    criterion) or when a signature whose reduction ended at zero divides
    it.  Otherwise the rewriter multiple (T/sig(r))*r, with r the element
    added last whose signature divides T, is reduced regularly: a reducer
    h may cancel a term m only when sig((m/LM(h))*h) < T.  It is dropped
    when its leading term is not regular-top-reducible, since r already
    covers T; a zero result records T as a syzygy signature, and any
    other becomes a new element with signature T.

    Signatures are packed by the elements' packer (see `_Packer`), and the
    elements are held as its divisor records: each input is packed once,
    and only the reduced basis is unpacked (`_monic`).  An input is
    divided by the elements before it only when one of their leading
    monomials divides one of its terms.  An element or
    signature of index j too wide for every J-pair signature to fit, or a
    rewriter multiple or division that outgrows the fields, repacks every
    key wider; the division is then made again.  The budget counts the
    rewriter multiples reduced, a repacked one once: exceeding it raises
    BudgetExceededError rather than returning anything partial.

    Over QQ the elements are kept integer primitive (see `_Packer.working`)
    from entry on, so associate generators deduplicate; `_divide` then
    pseudo-divides, and each nonzero remainder is made primitive again.  A
    pseudo-remainder is a nonzero rational multiple of the exact one, so
    leading monomials, signatures, the step count and the reduced monic
    output are those of the monic computation.  Over F_p elements are
    monic.

    Inside a session statement (see `_MEMO`) the basis of equal
    (order, generators) is computed once: a repeated call returns the same
    object, and raises as the loop would when its step count exceeds
    `budget`.  A call that raises stores nothing.
    """
    if not isinstance(order, TermOrder):
        raise TypeError(f"not a term order: {order!r}")
    gens = [g for g in generators if g._terms]
    if not gens:
        raise ValueError("buchberger needs a context; use an IdealHandle for (0)")
    context = gens[0].context
    for g in gens:
        if g.context is not context and g.context != context:
            raise ContextMismatchError("generators live in different contexts")
    memo = _MEMO.get()
    if memo is not None:
        memo_key = (order, tuple(gens))
        hit = memo.get(memo_key)
        if hit is not None:
            basis, steps = hit
            # the loop raises before a step that would exceed the budget
            if steps and steps > budget:
                raise BudgetExceededError(
                    f"Buchberger step budget ({budget}) exhausted")
            return basis
    lex = order is TermOrder.LEX
    need = _need([m for g in gens for m in g._terms], order)   # every LM
    sig_need = 0             # the need of the signatures of index j
    packer = _Packer(context.nvars, order, need)
    p = context.field.p
    weights, one = packer.weights, packer.one
    input_records = []
    for g in gens:
        record = packer.working(sorted([(sum(map(mul, m, weights), one), c)
                                        for m, c in g._terms.items()]), p)
        if record not in input_records:
            input_records.append(record)
    # smallest LM first: the largest key first, stably
    input_records.sort(key=itemgetter(1), reverse=True)
    records = []             # the elements as divisor records, in the
                             # order they were added
    lead = []                # their LMs
    first = 0                # the elements from here on have index j
    sigs = []                # K(signature) of the elements of index j
    koszul = []              # LM(h) | T tests, for the h below index j
    syzygies = []            # K(T) of index j signatures that reduced to 0
    heap = []                # -K(T) of the J-pairs of index j to take

    def widen(least):
        # repack every key, with fields that hold at least `least`
        nonlocal packer
        old, n = packer, len(records)
        polys = [_unpacked(context, old, r) for r in records + input_records]
        packer, repacked = _packing(context, polys, order, least)
        records[:], input_records[:] = repacked[:n], repacked[n:]
        koszul[:] = [r[0] for r in records[:first]]
        sigs[first:] = packer.repack(sigs[first:], old)
        syzygies[:] = packer.repack(syzygies, old)
        # repacking keeps the order of keys, so the heap stays a heap
        heap[:] = [-key for key in packer.repack([-e for e in heap], old)]

    steps = 0
    for i in range(len(input_records)):
        first = len(records)
        sig_need = 0
        koszul[:] = [r[0] for r in records]
        sigs[:] = [None] * first
        syzygies.clear()     # the heap is empty: each index drains it
        # input j reduced by the elements below index j, when one of their
        # LMs divides one of its terms
        record = input_records[i]
        while koszul and _divides_any(_keys(record), koszul, packer.low,
                                      packer.guard):
            try:
                r, _ = _divide(_multiple(context, record), packer, records)
            except OverflowError:
                widen(packer.limit + 1)      # lex only: divide again
                record = input_records[i]
                continue
            record = packer.working(list(r.items()), p) if r else None
            break
        if record is None:
            continue     # e_j is a syzygy: index j adds nothing
        t = packer.one       # e_j
        while record is not None:
            # append the element of `record` with signature t*e_j and queue
            # its J-pairs
            records.append(record)
            sigs.append(t)
            mn = packer.unpack(record[1])
            lead.append(mn)
            need = max(need, max(mn) if lex else sum(mn))
            if t != packer.one:
                sig_need = max(sig_need, packer.need(t))
            # a J-pair signature (lcm/LM(g))*sig(g) has fields of at most
            # need + sig_need; every other key is checked where it is made
            if need + sig_need > packer.limit:
                widen(need + sig_need)
            n = len(records) - 1
            ln, t = records[n][1], sigs[n]
            low, guard = packer.low, packer.guard
            weights, one = packer.weights, packer.one
            for k in range(n):
                lcm_key = sum(map(mul, map(max, lead[k], mn), weights), one)
                key = lcm_key - ln + t
                if k >= first:
                    other = lcm_key - records[k][1] + sigs[k]
                    if other == key:
                        continue     # a singular pair
                    key = min(key, other)    # the larger signature
                # the F5 criterion: LM(h) | T for an h below index j
                if not _divides_any((key,), koszul, low, guard):
                    heappush(heap, -key)
            # the J-pairs in increasing signature, up to a new element
            record = None
            while heap and record is None:
                t = -heappop(heap)
                while heap and heap[0] == -t:
                    heappop(heap)
                low, guard = packer.low, packer.guard
                tl = t & low
                # the syzygy criterion: a signature that reduced to 0 divides T
                if syzygies and any((tl + guard - (s & low)) & guard == guard
                                    for s in syzygies):
                    continue
                k = n
                while (tl + guard - (sigs[k] & low)) & guard != guard:
                    k -= 1   # the rewriter: sig(r) | T, added last
                dividend = _multiple(context, records[k], t - sigs[k])
                if any(key & guard for key in dividend):
                    heappush(heap, -t)
                    widen(packer.limit + 1)
                    continue
                # a regular top-reduction: by an element of index below j,
                # or by h of index j with K((top/LM(h))*sig(h)) > K(T)
                # (exact, as in `_divide`'s signature filter)
                top = records[k][1] + t - sigs[k]    # K((T/sig(r))*LM(r))
                topl = top & low
                if not (_divides_any((top,), koszul, low, guard)
                        or any((topl + records[h][0]) & guard == guard
                               and top - records[h][1] + sigs[h] > t
                               for h in range(first, n + 1))):
                    continue     # not regular-top-reducible: r covers T
                if steps >= budget:
                    raise BudgetExceededError(
                        f"Buchberger step budget ({budget}) exhausted")
                try:
                    r, _ = _divide(dividend, packer, records,
                                   signature=(t, sigs))
                except OverflowError:
                    heappush(heap, -t)       # lex only: reduce T again
                    widen(packer.limit + 1)
                    continue
                steps += 1
                if r:
                    record = packer.working(list(r.items()), p)
                else:
                    syzygies.append(t)

    packer, records = _reduce_basis(context, order, (packer, records))
    polys, monic, leads = zip(*[_monic(context, packer, r) for r in records])
    basis = GroebnerBasis._reduced(context, order, polys, leads,
                                   (packer, monic))
    if memo is not None:
        memo[memo_key] = (basis, steps)
    return basis


def _keys(record) -> list:
    """The keys of the element of a divisor record, leading key first."""
    _, lead, _, tail = record
    return [lead] + [lead + offset for offset, _ in tail]


def _divides_any(keys, tests, low: int, guard: int) -> bool:
    """Whether some divisor test (see `_Packer.record`) passes for the
    monomial of one of the keys."""
    for key in keys:
        key &= low
        for test in tests:
            if (key + test) & guard == guard:
                return True
    return False


def _monic(context: VarContext, packer: _Packer, record):
    """(Poly, divisor record, LM) of a reduced basis element made monic,
    read off its record in one pass: each coefficient is divided by the
    LC once, into one int or Fraction that the Poly and the record share.
    Over F_p the working form is monic already; over QQ it is integer
    primitive with lc > 0."""
    test, lead, lc, tail = record
    shifts, limit = packer.shifts, packer.limit
    lm = tuple([lead >> s & limit for s in shifts])
    terms = {lm: 1}
    if lc == 1:
        for offset, c in tail:
            key = lead + offset
            terms[tuple([key >> s & limit for s in shifts])] = c
    else:
        monic = []
        for offset, c in tail:
            q, r = divmod(c, lc)
            c = Fraction(c, lc) if r else q
            monic.append((offset, c))
            key = lead + offset
            terms[tuple([key >> s & limit for s in shifts])] = c
        record = (test, lead, 1, monic)
    return Poly._raw(context, terms), record, lm


def _reduce_basis(context: VarContext, order: TermOrder, packed):
    """Minimalize, inter-reduce in one pass and sort by LM, largest first:
    the (packer, divisor records) of the reduced basis up to the scaling
    that `_monic` removes.

    `packed` holds the elements as records of its packer, in the working
    form of `_Packer.working`, and each inter-reduced element is put in it
    again.  An element is divided only when another element's leading
    monomial divides a key of its tail; any other is reduced already.  A
    division whose keys outgrow the fields (lex only) starts the whole pass
    again, wider; the elements reduced already stay reduced.
    """
    packer, records = packed
    low, guard = packer.low, packer.guard
    # minimal: drop any element whose LM is divisible by another's LM
    tests = [record[0] for record in records]
    minimal = []
    for i, record in enumerate(records):
        li = record[1]
        mi = li & low
        for j, test in enumerate(tests):
            if (mi + test) & guard == guard and (j < i or li != records[j][1]):
                break
        else:
            minimal.append(record)
    # inter-reduce the tails in one pass: no other leading monomial divides
    # an element's own, so its leading monomial passes to the remainder and
    # the cached LMs and tests stay valid (over QQ the LC may be scaled); as
    # the LMs never change, an element reduced once stays reduced
    tests = [record[0] for record in minimal]
    for i in range(len(minimal)):
        _, lead, _, tail = minimal[i]
        if not (tail and _divides_any([lead + offset for offset, _ in tail],
                                      tests[:i] + tests[i + 1:], low, guard)):
            continue
        try:
            r, _ = _divide(_multiple(context, minimal[i]), packer,
                           minimal[:i] + minimal[i + 1:])
        except OverflowError:
            return _reduce_basis(context, order, _packing(
                context, [_unpacked(context, packer, g) for g in minimal],
                order, packer.limit + 1))
        minimal[i] = packer.working(list(r.items()), context.field.p)
    return packer, sorted(minimal, key=itemgetter(1))


def groebner_basis(ideal: IdealHandle, order: TermOrder = TermOrder.GREVLEX,
                   budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced basis of an IdealHandle; the zero ideal yields an empty basis."""
    if not ideal.generators:
        return GroebnerBasis(ideal.context, order, ())
    return buchberger(ideal.generators, order, budget)


def is_unit_ideal(ideal: IdealHandle, *, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff 1 lies in the ideal (reduced basis == {1})."""
    return groebner_basis(ideal, budget=budget).is_unit


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


class QuotientRing(_Keyed):
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

    def _key(self):
        return (self.context, self.basis)

    def __str__(self):
        if self.is_trivial:
            return str(self.context)
        return f"{self.context}/{self.defining}"
