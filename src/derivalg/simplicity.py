"""Differential-simplicity deciders and their machine-checkable certificates.

Positive answers are constructive wherever the theory allows:

* `certificate(ring, f)`: over a characteristic-0 polynomial ring, or over
  the truncated ring F_p[x]/(x_i^p) with the induced partials, a word of
  partial derivatives reducing any nonzero element to a nonzero constant
  (in the truncated ring every exponent is < p, so no factorial vanishes);
* for a 1-dimensional finitely generated algebra R = k[x]/I with a finite
  set D of derivations, the unit-ideal criterion 1 in the image ideal
  J_D = (d(x_i) : d in D, all i) + I, once I is certified prime (I = 0, or
  a plane curve with a smooth projective closure);
* in characteristic p, a D-stable proper witness ideal of p-th powers
  whenever the Krull dimension is positive (simplicity is impossible there).

Negative answers carry a proper nonzero D-stable ideal where one is known; a
proper J_D is one in any dimension, as d'(d(a)r) = d'(d(a))r + d(a)d'(r).

`d_simplicity` is the one decider that orders these criteria; the CLI's
`check dsimple`, `dim1_simplicity` and `skew_simplicity` (past a constant
relation among D) use it.  Everything else is Unknown, with its reason.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .derivation import Derivation, _escape
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    PreconditionError,
    ZeroPolynomialError,
)
from .field import FieldElement
from .groebner import (
    DEFAULT_BUDGET,
    _MEMO,
    IdealHandle,
    _MemoKey,
    QuotientRing,
    TermOrder,
    _initial_dimension,
    buchberger,
    groebner_basis,
    is_unit_ideal,
)
from .poly import Poly, VarContext, _canonical

# Largest p^n for which prime_char_obstruction searches F_p^n for a rational
# point of V(I) to build its witness.
POINT_BUDGET = 200_000


class SimplicityCertificate(NamedTuple):
    """A replayable reduction of a ring element to a nonzero constant.

    `word` lists 0-based variable indices in application order: applying the
    corresponding (induced) partial derivatives left to right to the input
    element yields exactly `final_constant`.
    """

    word: tuple
    final_constant: FieldElement


class SimplicityStatus(enum.Enum):
    SIMPLE = "Simple"
    NOT_SIMPLE = "NotSimple"
    UNKNOWN = "Unknown"


class SimplicityVerdict(NamedTuple):
    """A verdict; `witness` is an ideal of the base ring, or for a skew ring
    a `skew.CentralWitness`; either lists the `generators` that `verdict_json`
    and the verdict's text print."""

    status: SimplicityStatus
    witness: IdealHandle | None = None
    reason: str | None = None
    criterion: str | None = None

    def __str__(self):
        return _verdict_text(verdict_json(self))


def verdict_json(v: SimplicityVerdict) -> dict:
    return {
        "status": v.status.value,
        "criterion": v.criterion,
        "reason": v.reason,
        "witness": None if v.witness is None
        else [str(g) for g in v.witness.generators],
    }


def _verdict_text(record: dict) -> str:
    """A verdict's one-line text, from its record of `verdict_json`."""
    witness, reason, criterion = (record[k] for k in ("witness", "reason", "criterion"))
    extra = (f" witness ({', '.join(witness) or '0'})" if witness is not None
             else f" ({reason})" if reason else "")
    return record["status"] + extra + (f" [{criterion}]" if criterion else "")


class DarbouxStatus(enum.Enum):
    FOUND = "found"
    NONE_UP_TO_BOUND = "none_up_to_bound"


class DarbouxResult(NamedTuple):
    status: DarbouxStatus
    h: Poly | None
    cofactor: Poly | None
    bound: int


def certificate(ring: QuotientRing, f: Poly) -> SimplicityCertificate:
    """Reduce the normal form of f != 0 in `ring` to a nonzero constant with
    the (induced) partial derivatives.

    The ring decides which certificate applies: in characteristic 0 it must
    be the polynomial ring, in characteristic p the truncated ring
    F_p[x]/(x_1^p..x_n^p), whose normal forms have every exponent < p.  In
    either ring the maximal exponent m of a variable has m! != 0, so the
    strategy of `_reduce_to_constant` goes through.
    """
    context = ring.context
    p = context.field.characteristic
    if p == 0:
        if not ring.is_trivial:
            raise PreconditionError(
                "characteristic-0 certificates need the full polynomial ring")
    elif set(ring.basis.polys) != {context.var(i) ** p
                                   for i in range(context.nvars)}:
        raise PreconditionError(
            "characteristic-p certificates need the quotient by "
            "the p-th powers of the variables")
    return _reduce_to_constant(ring.reduce(f))


def _reduce_to_constant(f: Poly) -> SimplicityCertificate:
    """A word of partials taking f != 0 to a nonzero constant.

    Differentiates the lowest variable present at its maximal exponent m
    until f is constant; each such step multiplies the top coefficient by
    m!, which the caller guarantees does not vanish, and eliminates the
    variable, so the word length is at most the total degree.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot certify the zero element")
    word = []
    g = f
    while not g.is_constant():
        i = g.lowest_var_present()
        m = g.degree_in(i)
        for _ in range(m):
            g = g.partial(i)
            word.append(i)
    constant = g.constant_value()
    assert not constant.is_zero()
    return SimplicityCertificate(tuple(word), constant)


def replay_certificate(cert: SimplicityCertificate, f: Poly) -> FieldElement:
    """Apply the certificate word to f; returns the resulting constant.

    A certificate of `certificate(ring, f)` replays on the normal form
    `ring.reduce(f)`, which it certifies."""
    g = f
    for i in cert.word:
        g = g.partial(i)
    if not g.is_constant():
        raise ValueError("certificate word does not reduce the element to a constant")
    return g.constant_value()


def _all_partials_present(ring: QuotientRing, derivations) -> bool:
    """True when ring is a polynomial ring and every partial is among derivations."""
    if not ring.is_trivial:
        return False
    partials = {Derivation.partial(ring, i) for i in range(ring.context.nvars)}
    return partials <= set(derivations)


def _image_ideal(ring: QuotientRing, derivations) -> IdealHandle:
    """J_D = (d(x_i) for every d in D and every i) + I, lifted to k[x]."""
    gens = [g for d in derivations for g in d.images]
    return IdealHandle(ring.context, gens + list(ring.defining.generators))


def necessary_unit_condition(ring: QuotientRing, d: Derivation, *,
                             budget: int = DEFAULT_BUDGET) -> bool:
    """1 in (d(x_1), ..., d(x_n)) + I — necessary for d-simplicity.

    False certifies that the ring is *not* d-simple; True alone decides
    nothing unless the dimension-1 criterion applies.
    """
    if ring.context.field.characteristic != 0:
        raise PreconditionError("unit-ideal condition applies in characteristic 0")
    if d.ring != ring:
        raise ContextMismatchError("derivation does not live on the given ring")
    return is_unit_ideal(_image_ideal(ring, [d]), budget=budget)


def principal_stability_check(g: Poly, derivations, *,
                              budget: int = DEFAULT_BUDGET) -> bool:
    """True iff d(g) lies in (g) (plus the defining ideal) for every d.

    A nonunit g passing this check generates a proper D-stable ideal, i.e. a
    NotSimple witness.
    """
    if g.is_zero():
        raise ZeroPolynomialError("principal stability needs a nonzero generator")
    derivations = list(derivations)
    if not derivations:
        raise PreconditionError("principal stability needs at least one derivation")
    ring = derivations[0].ring
    if g.context != ring.context:
        raise ContextMismatchError("generator outside the derivations' ring")
    for d in derivations:
        if d.ring != ring:
            raise ContextMismatchError("derivations live on different rings")
    handle = IdealHandle(ring.context, [g] + list(ring.defining.generators))
    basis = groebner_basis(handle, budget=budget)
    return _escape([g], derivations, basis) is None


def _principal_witness(ring: QuotientRing, derivations, *,
                       budget: int) -> IdealHandle | None:
    """First variable or nonconstant derivation image generating a proper
    D-stable ideal; a constant multiple of an earlier candidate spans the
    same ideal, so it is not tried again."""
    candidates = {}
    for g in (*ring.generators(), *(img for d in derivations for img in d.images)):
        if not g.is_constant():
            candidates.setdefault(g.monic(TermOrder.GREVLEX), g)
    for g in candidates.values():
        if ring.reduce(g).is_zero():
            continue
        handle = IdealHandle(ring.context, [g] + list(ring.defining.generators))
        basis = groebner_basis(handle, budget=budget)
        if basis.is_unit:
            continue
        if _escape([g], derivations, basis) is None:
            return handle
    return None


def d_simplicity(ring: QuotientRing, derivations, *,
                 budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """D-simplicity of R = k[x_1..x_n]/I; the first criterion that applies decides:

    1. characteristic p: prime_char_obstruction;
    2. a polynomial ring with every partial in D: Simple;
    3. a variable or image generating a proper nonzero D-stable ideal: NotSimple;
    4. the image ideal J_D = (d(x_i) : d in D, all i) + I is D-stable; proper
       with some d nonzero on R, it is a NotSimple witness in any dimension;
    5. dimension 1, J_D proper and every d zero on R: NotSimple without a
       witness (R is not a field);
    6. dimension 1 and 1 in J_D: Simple when I is certified prime (every
       D-stable maximal ideal contains J_D, and the minimal primes of R are
       D-stable), else Unknown;
    7. anything else: Unknown.

    Inside a session statement (see `groebner._MEMO`) the verdict is
    decided once per (ring, defining generators, D, budget): the generators
    are part of the key because a witness prints them, and equal rings may
    be defined by different generators.  Every ideal it decides on is
    computed in grevlex, whatever the order of the ring's basis.
    """
    derivations = tuple(derivations)
    for d in derivations:
        if d.ring != ring:
            raise ContextMismatchError("derivation does not live on the given ring")
    memo = _MEMO.get()
    if memo is None:
        return _decide(ring, derivations, budget=budget)
    key = _MemoKey((ring, ring.defining, derivations, budget))
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _decide(ring, derivations, budget=budget)
    return verdict


def _decide(ring: QuotientRing, derivations: tuple, *,
            budget: int) -> SimplicityVerdict:
    """The verdict of `d_simplicity`, decided afresh."""
    if ring.context.field.characteristic != 0:
        return prime_char_obstruction(ring, budget=budget)
    if _all_partials_present(ring, derivations):
        return SimplicityVerdict(
            SimplicityStatus.SIMPLE,
            criterion="polynomial base with all partial derivatives")
    witness = _principal_witness(ring, derivations, budget=budget)
    if witness is not None:
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                                 criterion="stable principal ideal witness")
    J = _image_ideal(ring, derivations)
    proper = not is_unit_ideal(J, budget=budget)
    dim1 = ring.dimension() == 1
    criterion = ("dimension-1 unit-ideal criterion" if dim1
                 else "proper D-stable image ideal")
    if proper and any(not d.is_zero() for d in derivations):
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=J,
                                 criterion=criterion)
    if not dim1:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="no applicable criterion")
    if proper:
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, criterion=criterion)
    if not _certified_prime(ring, budget=budget):
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="primality not certified")
    return SimplicityVerdict(SimplicityStatus.SIMPLE, criterion=criterion)


def _certified_prime(ring: QuotientRing, *, budget: int) -> bool:
    """True when the defining ideal I is certified prime: I = 0, or I = (f)
    with f in two variables and a smooth projective closure F, i.e. the
    basis of (F, F_x, F_y, F_z) is the unit ideal or has dimension 0.  Two
    components of a plane curve meet, in singular points, so a smooth F is
    irreducible over the algebraic closure and f generates a prime ideal.
    False means no certificate, not that I is not prime.
    """
    if ring.is_trivial:
        return True
    if len(ring.basis) != 1 or ring.context.nvars != 2:
        return False
    f = ring.basis.polys[0]
    n = f.total_degree()
    plane = VarContext(("x", "y", "z"), ring.context.field)
    F = Poly._raw(plane, {(a, b, n - a - b): c for (a, b), c in f._terms.items()})
    singular = IdealHandle(plane, [F] + [F.partial(i) for i in range(3)])
    basis = groebner_basis(singular, budget=budget)
    return basis.is_unit or _initial_dimension(basis) == 0


def dim1_simplicity(ring: QuotientRing, d: Derivation, *,
                    budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """d-simplicity of a 1-dimensional finitely generated algebra (char 0).

    Any unmet precondition (nonzero characteristic, dimension != 1) yields
    Unknown with the reason; past them the verdict is d_simplicity's for
    D = {d}.
    """
    if ring.context.field.characteristic != 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="characteristic is not 0")
    if d.ring != ring:
        raise ContextMismatchError("derivation does not live on the given ring")
    if ring.dimension() != 1:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN, reason="dimension != 1")
    return d_simplicity(ring, [d], budget=budget)


def prime_char_obstruction(ring: QuotientRing, *,
                           budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """Dimension obstruction in characteristic p.

    A D-simple ring of characteristic p is 0-dimensional, whatever D is, so
    the check takes no derivations: the ideal generated by p-th powers of a
    maximal ideal is proper and D-stable (d(g^p) = p g^(p-1) d(g) = 0).  So positive dimension means NotSimple;
    the witness attached is ((x_1-a_1)^p, ..., (x_n-a_n)^p) + I for a
    rational point a of V(I), when one exists in F_p^n and p^n is at most
    POINT_BUDGET.  Dimension 0 leaves the question open.
    """
    p = ring.context.field.characteristic
    if p == 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="characteristic is 0")
    if ring.dimension() == 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="necessary condition passed")
    witness = _charp_witness(ring, budget=budget)
    reason = None if witness is not None else (
        "positive dimension forces NotSimple; no rational-point witness found")
    return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                             reason=reason,
                             criterion="positive Krull dimension in characteristic p")


def _charp_witness(ring: QuotientRing, *, budget: int) -> IdealHandle | None:
    p = ring.context.field.characteristic
    n = ring.context.nvars
    if p ** n > POINT_BUDGET:
        return None
    field = ring.context.field
    gens = ring.defining.generators
    for point in itertools.product(range(p), repeat=n):
        values = [field.element(a) for a in point]
        if any(not g.evaluate(values).is_zero() for g in gens):
            continue
        shifted = [(ring.context.var(i) - ring.context.const(a)) ** p
                   for i, a in enumerate(values)]
        # a power inside I adds nothing to the witness
        powers = [g for g in shifted if ring.reduce(g)]
        if not powers:
            continue
        handle = IdealHandle(ring.context, powers + list(gens))
        if is_unit_ideal(handle, budget=budget):
            continue
        return handle
    return None


# ---------------------------------------------------------------------------
# Darboux polynomial search for d = d/dx + F(x,y) d/dy
# ---------------------------------------------------------------------------


def darboux_search(F: Poly, bound: int,
                   budget: int = DEFAULT_BUDGET) -> DarbouxResult:
    """Bounded search for h with d(h) = cofactor * h, d = d/dx + F d/dy.

    Looks for a nonconstant h of total degree <= bound with a polynomial
    cofactor of degree <= max(deg F - 1, 0), whatever the bound: comparing
    degrees in d(h) = cofactor*h forces this, since d(x) = 1 (F = x^2*y has
    h = y with cofactor x^2 at bound 1).  The unknowns are the coefficients
    c_0..c_{M-1} of h and l_0..l_{L-1} of the cofactor, the variables of
    one context; each equation is the coefficient of one x,y-monomial in
    d(h) - cofactor*h, and the system is built once, as raw term maps.

    The candidate leading monomials of h, the pivots, are tried in
    ascending grevlex order; the pivot's coefficient is fixed to 1 and
    those of larger monomials to 0 by filtering terms.  Each pivot system
    is first eliminated top down (`_refuted`): there the pivot's
    coefficient makes the equations linear in the cofactor unknowns, so a
    contradiction shows in a few steps and the pivot is skipped.  Otherwise
    `_solve_rational` looks for a rational point bottom up, and the first
    pair found is verified and returned; skipping refuted pivots changes no
    answer, since `_solve_rational` finds no point on them either.  A pivot
    whose system is inconsistent, or consistent without an extracted
    rational point, passes to the next.  When no pivot yields h and some
    pivot's system was consistent, BudgetExceededError names the first
    such leading monomial — never a wrong NoneUpToBound.
    """
    ctx = F.context
    if ctx.nvars != 2:
        raise PreconditionError("Darboux search works over k[x, y] (two variables)")
    if ctx.field.characteristic != 0:
        raise PreconditionError("Darboux search needs characteristic 0")
    if bound < 1:
        raise PreconditionError("the degree bound must be at least 1")

    h_monos = _monomials_up_to(bound)
    cof_monos = _monomials_up_to(max(F.total_degree() - 1, 0))
    M = len(h_monos)
    n = M + len(cof_monos)
    unknowns = VarContext([f"c{k}" for k in range(M)]
                          + [f"l{j}" for j in range(n - M)], ctx.field)
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]

    # the coefficient of each x,y-monomial in h_x + F*h_y - cofactor*h
    equations = {}

    def add(xy, c, u):
        eq = equations.setdefault(xy, {})
        eq[u] = eq.get(u, 0) + c

    for k, (a, b) in enumerate(h_monos):
        if a:
            add((a - 1, b), a, unit[k])
    for (p, q), f in F._terms.items():
        for k, (a, b) in enumerate(h_monos):
            if b:
                add((a + p, b + q - 1), b * f, unit[k])
    for j, (p, q) in enumerate(cof_monos):
        for k, (a, b) in enumerate(h_monos):
            add((a + p, b + q), -1, tuple(map(operator.add, unit[k], unit[M + j])))
    # listed by x,y-monomial under grevlex, so that equal F's take one path
    # whatever the insertion order of their terms; each term holds exactly
    # one c_k and is kept as (the grevlex rank of h_monos[k], its exponents,
    # its exponents without c_k, its coefficient)
    grevlex = TermOrder.GREVLEX.key
    ascending = sorted(h_monos, key=grevlex)
    rank = [ascending.index(m) for m in h_monos]
    system = []
    for xy in sorted(equations, key=grevlex):
        terms = []
        for u, c in _canonical(equations[xy], ctx.field.p).items():
            k = u.index(1)
            terms.append((rank[k], u, u[:k] + (0,) + u[k + 1:], c))
        system.append(terms)
    unresolved = None
    for r in range(1, M):   # the pivots; rank 0 is the constant monomial
        # c_k = 1 at the pivot and 0 above it: keep, strip or drop each term
        eqs = ({bare if q == r else u: c for q, u, bare, c in terms if q <= r}
               for terms in system)
        eqs = [e for e in eqs if e]
        if _refuted(eqs, unknowns):
            continue
        try:
            values = _solve_rational([Poly._raw(unknowns, e) for e in eqs],
                                     unknowns, budget)
        except _NoRationalPoint:
            if unresolved is None:
                unresolved = ascending[r]
            continue
        if values is None:
            continue
        values[rank.index(r)] = 1   # the pivot normalization, not a free 0
        h = Poly(ctx, dict(zip(h_monos, values)))
        cof = Poly(ctx, dict(zip(cof_monos, values[M:])))
        lhs = h.partial(0) + F * h.partial(1)
        if h.is_constant() or lhs != cof * h:
            raise AssertionError("extracted Darboux pair failed verification")
        return DarbouxResult(DarbouxStatus.FOUND, h, cof, bound)

    if unresolved is not None:
        raise BudgetExceededError(
            f"the Darboux system with leading monomial "
            f"{Poly._raw(ctx, {unresolved: 1})} is consistent but no rational "
            f"point was extracted")
    return DarbouxResult(DarbouxStatus.NONE_UP_TO_BOUND, None, None, bound)


def _monomials_up_to(degree: int):
    """The exponents (a, b) with a + b <= degree, by degree, then by b."""
    return [(total - i, i)
            for total in range(degree + 1) for i in range(total + 1)]


class _NoRationalPoint(Exception):
    """A consistent system whose rational point the extraction missed."""


def _refuted(equations, context: VarContext) -> bool:
    """Whether `_eliminate` on the raw term maps, last equation first,
    derives a nonzero constant.  Substituting a linear solution keeps the
    solution set, so True proves that `_solve_rational` returns None."""
    return _eliminate(equations[::-1], context) is None


def _solve_rational(equations, context: VarContext, budget: int):
    """A rational common zero of the system, as a list of raw values indexed
    like the context's variables, or None when the system has no zero.

    Linear elimination (`_eliminate`, on the term maps in the given order)
    comes first.  What remains goes through Buchberger; a unit basis means
    no zero, otherwise `_extract_point` looks for a rational point of it.
    Unknowns left free are set to 0, and the eliminated ones are evaluated
    back in reverse order.  A consistent system whose point was not
    extracted raises _NoRationalPoint.
    """
    eliminated = _eliminate([e._terms for e in equations if e._terms], context)
    if eliminated is None:
        return None
    eqs, solved = eliminated
    point = {}
    if eqs:
        basis = buchberger([Poly._raw(context, e) for e in eqs],
                           TermOrder.GREVLEX, budget)
        if basis.is_unit:
            return None
        point = _extract_point(list(basis.polys), context.nvars, budget, 0)
        if point is None:
            raise _NoRationalPoint
    values = [point.get(i, 0) for i in range(context.nvars)]
    # later-solved unknowns may appear in the values of earlier ones
    for i in reversed(list(solved)):
        values[i] = context.field.raw(solved[i].evaluate(values))
    return values


def _eliminate(equations, context: VarContext):
    """Linear elimination on nonzero raw term maps, which it leaves as
    they are.

    Each step takes the first equation a*u_i + r with a linear unknown (see
    `_linear_unknown`) and puts -r/a for u_i into the equations that hold
    u_i, dropping zero results; an equation's linear unknown is kept until
    the equation changes.  Returns (the remaining maps, {i: the value of
    u_i as a Poly} in the order solved), or None as soon as an equation is
    a nonzero constant.
    """
    field = context.field
    constant = (0,) * context.nvars
    eqs = list(equations)
    if any(len(e) == 1 and constant in e for e in eqs):
        return None
    hits = [_linear_unknown(e) for e in eqs]
    solved = {}
    while True:
        at = next((at for at, i in enumerate(hits) if i is not None), None)
        if at is None:
            return eqs, solved
        i, e = hits[at], eqs[at]
        unit = constant[:i] + (1,) + constant[i + 1:]
        inverse = -field.raw_inverse(e[unit])
        value = Poly._raw(context, {m: c for m, c in e.items() if m != unit}
                          ).scale(inverse)
        kept, kept_hits = [], []
        for q, hit in zip(eqs, hits):
            if q is e:
                continue
            if any(m[i] for m in q):
                q = Poly._raw(context, q).substitute({i: value})._terms
                if not q:
                    continue
                if len(q) == 1 and constant in q:
                    return None
                hit = _linear_unknown(q)
            kept.append(q)
            kept_hits.append(hit)
        eqs, hits = kept, kept_hits
        solved[i] = value


def _linear_unknown(terms):
    """The lowest i with terms == a*u_i + r, a a nonzero constant and u_i
    absent from r, or None; one pass over the terms."""
    lone = []
    blocked = set()
    for m in terms:
        if sum(m) == 1:
            lone.append(m.index(1))
        else:
            blocked.update(i for i, e in enumerate(m) if e)
    return min((i for i in lone if i not in blocked), default=None)


def _extract_point(basis, nvars: int, budget: int, depth: int):
    """A rational point {unknown index: raw value} of the variety of a
    reduced non-unit Groebner basis, or None; backtracking.

    The first univariate element's rational roots are tried in order of
    |r|, positive first; without one, the last variable present is set to
    0, 1, -1, 2, -2 in turn.  Each trial value is substituted and the
    result Groebner-reduced again; a constant or a unit basis drops the
    trial.  Depths beyond nvars + 4 give up.
    """
    if depth > nvars + 4:
        return None
    if not basis:
        return {}
    for g in basis:
        var = _sole_variable(g)
        if var is not None:
            candidates = _rational_roots(g, var, budget)
            break
    else:
        var = max(i for g in basis for m in g._terms
                  for i, e in enumerate(m) if e)
        candidates = (0, 1, -1, 2, -2)
    context = basis[0].context
    for value in candidates:
        reduced = [q.substitute({var: context.const(value)}) for q in basis]
        reduced = [q for q in reduced if not q.is_zero()]
        if any(q.is_constant() for q in reduced):
            continue
        if reduced:
            trial = buchberger(reduced, TermOrder.GREVLEX, budget)
            if trial.is_unit:
                continue
            reduced = list(trial.polys)
        point = _extract_point(reduced, nvars, budget, depth + 1)
        if point is not None:
            point[var] = value
            return point
    return None


def _sole_variable(g: Poly):
    """The index of the one variable g involves, or None."""
    present = {i for m in g._terms for i, e in enumerate(m) if e}
    return present.pop() if len(present) == 1 else None


def _rational_roots(g: Poly, var: int, budget: int):
    """All rational roots, as raw values ordered by |r| with the positive
    one first, of a univariate (in `var`) polynomial over QQ.

    Candidates p/q come from the divisors of the constant and leading
    integer coefficients.  Finding them takes sqrt(|a0|) + sqrt(|an|) trial
    divisions; when that exceeds `budget`, BudgetExceededError is raised
    before any is made.
    """
    coeffs = {m[var]: c for m, c in g._terms.items()}
    if max(coeffs) == 0:
        return []
    # clear denominators to integer coefficients
    denom = math.lcm(*[c.denominator for c in coeffs.values()])
    ints = {e: int(c * denom) for e, c in coeffs.items()}
    roots = set()
    if 0 not in ints:
        roots.add(0)
        low = min(ints)
        ints = {e - low: c for e, c in ints.items()}
    if max(ints) > 0:
        a0 = abs(ints[0])
        an = abs(ints[max(ints)])
        trials = math.isqrt(a0) + math.isqrt(an)
        if trials > budget:
            raise BudgetExceededError(
                f"rational root search needs {trials} trial divisions, "
                f"over the budget of {budget}")
        denominators = _divisors(an)
        for p in _divisors(a0):
            for q in denominators:
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if sum(c * cand ** e for e, c in ints.items()) == 0:
                        roots.add(g.context.field.raw(cand))
    return sorted(roots, key=lambda r: (abs(r), r < 0))


def _divisors(n: int):
    """The positive divisors of n in ascending order; [1] for n = 0."""
    n = abs(n)
    if n == 0:
        return [1]
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]
