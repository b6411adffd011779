"""Differential-simplicity deciders and their machine-checkable certificates.

Positive answers are constructive wherever the theory allows:

* `certificate(ring, f)`: over a characteristic-0 polynomial ring, or over
  the truncated ring F_p[x]/(x_i^p) with the induced partials, a word of
  partial derivatives reducing any nonzero element to a nonzero constant
  (in the truncated ring every exponent is < p, so no factorial vanishes);
* for a 1-dimensional finitely generated algebra R = k[x]/I with a finite
  set D of derivations, the unit-ideal criterion 1 in the image ideal
  J_D = (d(x_i) : d in D, all i) + I, once I is certified prime (I = 0, or
  a plane curve with a smooth projective closure).

Negative answers carry a proper nonzero D-stable ideal where one is known: a
proper J_D in any dimension, as d'(d(a)r) = d'(d(a))r + d(a)d'(r), or one of
`_witness`, which tries (g) + I for g a variable, an image or a shift of a
variable, and in characteristic p, where positive dimension rules simplicity
out, (g^p) + I for the first shift g that cuts the dimension.

`d_simplicity` is the one decider that orders these criteria; the CLI's
`check dsimple`, `dim1_simplicity` and `skew_simplicity` (past a constant
relation among D) use it.  Everything else is Unknown, with its reason.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple

from .derivation import Derivation, _chain_rule, _escape
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    PreconditionError,
    ZeroPolynomialError,
)
from .field import FieldElement, FieldSpec
from .groebner import (
    DEFAULT_BUDGET,
    _MEMO,
    IdealHandle,
    QuotientRing,
    TermOrder,
    _initial_dimension,
    buchberger,
    groebner_basis,
    is_unit_ideal,
)
from .poly import Poly, VarContext, _canonical


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


def _witness(ring: QuotientRing, derivations, candidates, *, budget: int,
             tried: set | None = None) -> IdealHandle | None:
    """The first witness among the candidates g: (g) + I when it is proper
    and D-stable, or with derivations None (characteristic p), (g^p) + I
    when (g) + I is proper and of lower dimension than R.  Each try takes
    one basis of (g) + I, at most `budget` of them; constants, g zero on R
    and constant multiples of an earlier g are skipped.  `tried` holds the
    monic g of an earlier pass, which are skipped too and not counted; the
    g tried here join it."""
    context, gens = ring.context, list(ring.defining.generators)
    tried = set() if tried is None else tried
    tries = 0
    for g in candidates:
        key = None if g.is_constant() else g.monic(TermOrder.GREVLEX)
        if key is None or key in tried or ring.reduce(g).is_zero():
            continue
        if tries == budget:
            return None
        tries += 1
        tried.add(key)
        handle = IdealHandle(context, [g] + gens)
        basis = groebner_basis(handle, budget=budget)
        if basis.is_unit:
            continue
        if derivations is not None:
            if _escape([g], derivations, basis) is None:
                return handle
        elif _initial_dimension(basis) < ring.dimension():
            p = context.field.characteristic   # g^p, as c^p = c in F_p
            power = {tuple(e * p for e in m): c for m, c in g._terms.items()}
            return IdealHandle(context, [Poly._raw(context, power)] + gens)
    return None


def _shifts(ring: QuotientRing):
    """x_i - r for r = 0, 1, 2, ... in F_p (0, 1, -1, 2, -2 over QQ), each r
    for every variable; then, over F_p and lazily, each x_i^2 + a*x_i + b
    without a root (Euler's criterion on a^2 - 4b; x^2 + x + 1 for p = 2)."""
    xs, p = ring.generators(), ring.context.field.characteristic
    for r in range(p) if p else (0, 1, -1, 2, -2):
        yield from (x - ring.context.const(r) for x in xs)
    for a, b in ((a, b) for a in range(p) for b in range(p)):
        if (a == b == 1) if p == 2 else pow(a * a - 4 * b, p // 2, p) == p - 1:
            yield from (x * x + a * x + b for x in xs)


def d_simplicity(ring: QuotientRing, derivations, *,
                 budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """D-simplicity of R = k[x_1..x_n]/I; the first criterion that applies decides:

    1. characteristic p: prime_char_obstruction, NotSimple in positive
       dimension, with the witness (g^p) + I when a shift g finds one;
    2. a polynomial ring with every partial in D: Simple;
    3. a variable or image g with (g) + I proper and D-stable (`_witness`): NotSimple;
    4. the image ideal J_D = (d(x_i) : d in D, all i) + I is D-stable; proper
       with some d nonzero on R, it is a NotSimple witness in any dimension;
    5. dimension 1, J_D proper and every d zero on R: NotSimple (R is not a
       field), with a stable shift as in rule 7 when a try finds one;
    6. dimension 1 and 1 in J_D: Simple when I is certified prime (every
       D-stable maximal ideal contains J_D, and the minimal primes of R are
       D-stable), else Unknown;
    7. anything else: NotSimple with a stable shift (`_shifts`), else Unknown.

    Inside a session statement (see `groebner._MEMO`) the verdict is
    decided once per (ring, defining generators, images of D, budget): the
    generators are part of the key because a witness prints them, and equal
    rings may be defined by different generators; each d lives on the ring,
    so its images name it.  Every ideal it decides on is computed in
    grevlex, whatever the order of the ring's basis.
    """
    derivations = tuple(derivations)
    for d in derivations:
        if d.ring != ring:
            raise ContextMismatchError("derivation does not live on the given ring")
    memo = _MEMO.get()
    if memo is None:
        return _decide(ring, derivations, budget=budget)
    key = (ring, ring.defining, tuple(d.images for d in derivations), budget)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _decide(ring, derivations, budget=budget)
    return verdict


def _decide(ring: QuotientRing, derivations: tuple, *,
            budget: int) -> SimplicityVerdict:
    """The verdict of `d_simplicity`, decided afresh."""
    if ring.context.field.characteristic != 0:
        return prime_char_obstruction(ring, budget=budget)
    if ring.is_trivial and set(derivations) >= {
            Derivation.partial(ring, i) for i in range(ring.context.nvars)}:
        return SimplicityVerdict(
            SimplicityStatus.SIMPLE,
            criterion="polynomial base with all partial derivatives")
    images = [g for d in derivations for g in d.images]
    tried = set()    # the shift pass starts with x_i - 0: none is built again
    witness = _witness(ring, derivations, (*ring.generators(), *images),
                       budget=budget, tried=tried)
    if witness is not None:
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                                 criterion="stable principal ideal witness")
    # J_D = (d(x_i) for every d in D and every i) + I, lifted to k[x]
    J = IdealHandle(ring.context, images + list(ring.defining.generators))
    proper = not is_unit_ideal(J, budget=budget)
    dim1 = ring.dimension() == 1
    criterion = ("dimension-1 unit-ideal criterion" if dim1
                 else "proper D-stable image ideal")
    if proper and any(not d.is_zero() for d in derivations):
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=J,
                                 criterion=criterion)
    if proper or not dim1:
        witness = _witness(ring, derivations, _shifts(ring), budget=budget,
                           tried=tried)
        if witness is not None:
            return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                                     criterion="stable principal ideal witness")
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
    the check takes no derivations and positive dimension means NotSimple.
    For any g, d(g^p) = p g^(p-1) d(g) = 0, so (g^p) + I is D-stable; it is
    proper when (g) + I is, and g^p is not in I when dim((g) + I) < dim R
    (else g is nilpotent on R).  The witness is the first such (g^p) + I
    for g in `_shifts`; after `budget` tries, or all of them, there is none.
    A basis past the budget raises BudgetExceededError.  Dimension 0 leaves
    the question open.
    """
    if ring.context.field.characteristic == 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="characteristic is 0")
    if ring.dimension() == 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="necessary condition passed")
    witness = _witness(ring, None, _shifts(ring), budget=budget)
    reason = None if witness is not None else (
        "positive dimension forces NotSimple; no (x_i - r)^p witness found")
    return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                             reason=reason,
                             criterion="positive Krull dimension in characteristic p")


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
    c_0..c_{M-1} of h and l_0..l_{L-1} of the cofactor, numbered 0..M+L-1;
    each equation is the coefficient of one x,y-monomial in
    d(h) - cofactor*h, built once as a raw term map keyed by the sorted
    tuple of the indices of each term's unknowns: (k,) for c_k and
    (k, M+j) for c_k*l_j (see `_eliminate`).

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
    unknowns = VarContext([f"c{k}" for k in range(M)]
                          + [f"l{j}" for j in range(len(cof_monos))], ctx.field)

    # the coefficient of each x,y-monomial in h_x + F*h_y - cofactor*h
    equations = {}

    def add(xy, c, u):
        eq = equations.setdefault(xy, {})
        eq[u] = eq.get(u, 0) + c

    for k, (a, b) in enumerate(h_monos):
        if a:
            add((a - 1, b), a, (k,))
    for (p, q), f in F._terms.items():
        for k, (a, b) in enumerate(h_monos):
            if b:
                add((a + p, b + q - 1), b * f, (k,))
    for j, (p, q) in enumerate(cof_monos):
        for k, (a, b) in enumerate(h_monos):
            add((a + p, b + q), -1, (k, M + j))
    # listed by x,y-monomial under grevlex, so that equal F's take one path
    # whatever the insertion order of their terms; each term holds exactly
    # one c_k, first in its key, and is kept as (the grevlex rank of
    # h_monos[k], its key, its key without c_k, its coefficient)
    grevlex = TermOrder.GREVLEX.key
    ascending = sorted(h_monos, key=grevlex)
    rank = [ascending.index(m) for m in h_monos]
    system = [[(rank[u[0]], u, u[1:], c)
               for u, c in _canonical(equations[xy], ctx.field.p).items()]
              for xy in sorted(equations, key=grevlex)]
    unresolved = None
    for r in range(1, M):   # the pivots; rank 0 is the constant monomial
        # c_k = 1 at the pivot and 0 above it: keep, strip or drop each term
        eqs = ({bare if q == r else u: c for q, u, bare, c in terms if q <= r}
               for terms in system)
        eqs = [e for e in eqs if e]
        if _refuted(eqs, ctx.field):
            continue
        try:
            values = _solve_rational(eqs, unknowns, budget)
        except _NoRationalPoint:
            if unresolved is None:
                unresolved = ascending[r]
            continue
        if values is None:
            continue
        values[rank.index(r)] = 1   # the pivot normalization, not a free 0
        h = Poly(ctx, dict(zip(h_monos, values)))
        cof = Poly(ctx, dict(zip(cof_monos, values[M:])))
        # d = d/dx + F d/dy, applied by the chain rule, not by the equations
        if h.is_constant() or _chain_rule(h, (ctx.one, F)) != cof * h:
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


def _refuted(equations, field: FieldSpec) -> bool:
    """Whether `_eliminate` on the term maps, last equation first, derives
    a nonzero constant.  Substituting a linear solution keeps the solution
    set, so True proves that `_solve_rational` returns None."""
    return _eliminate(equations[::-1], field) is None


def _solve_rational(equations, unknowns: VarContext, budget: int):
    """A rational common zero of the system, as a list of raw values indexed
    like the unknowns, or None when the system has no zero.

    Linear elimination (`_eliminate`, on the nonzero term maps in the
    given order) comes first.  What remains goes through Buchberger in the
    context of the unknowns it holds, in their order, so grevlex orders its
    monomials as among all the unknowns; a unit basis means no zero,
    otherwise `_extract_point` looks for a rational point of it.  Unknowns
    left free are set to 0, and the eliminated ones are evaluated back in
    reverse order.  A consistent system whose point was not extracted
    raises _NoRationalPoint.
    """
    field = unknowns.field
    eliminated = _eliminate(equations, field)
    if eliminated is None:
        return None
    eqs, solved = eliminated
    values = [0] * unknowns.nvars
    if eqs:
        present = sorted({i for e in eqs for m in e for i in m})
        context = VarContext([unknowns.names[i] for i in present], field)
        basis = buchberger([Poly._raw(context, {tuple(map(m.count, present)): c
                                                for m, c in e.items()})
                            for e in eqs], TermOrder.GREVLEX, budget)
        if basis.is_unit:
            return None
        point = _extract_point(list(basis.polys), unknowns.nvars, budget, 0)
        if point is None:
            raise _NoRationalPoint
        for at, value in point.items():
            values[present[at]] = value
    return _back_substitute(solved, values, field)


def _eliminate(equations, field: FieldSpec):
    """Linear elimination on nonzero raw term maps in unknowns u_0, u_1,
    ..., which it leaves as they are.  A term's key is the sorted tuple of
    the indices of its unknowns, one entry per factor: () for the constant,
    (i,) for u_i, (i, j) for u_i*u_j.

    Each step takes the first equation a*u_i + r with a linear unknown (see
    `_linear_unknown`) and puts -r/a for u_i into the equations that hold
    u_i, dropping zero results; an equation's linear unknown is looked for
    when a step reaches it and kept until the equation changes.  Returns
    (the remaining maps, {i: the value of u_i as such a map} in the order
    solved), or None as soon as an equation is a nonzero constant.
    """
    p = field.p
    eqs = list(equations)
    if any(len(e) == 1 and () in e for e in eqs):
        return None
    hits = [False] * len(eqs)   # False: not yet looked for
    solved = {}
    while True:
        for at, e in enumerate(eqs):
            if hits[at] is False:
                hits[at] = _linear_unknown(e)
            if hits[at] is not None:
                break
        else:
            return eqs, solved
        i = hits.pop(at)
        del eqs[at]
        unit = (i,)
        inverse = -field.raw_inverse(e[unit])
        value = _canonical({m: c * inverse for m, c in e.items() if m != unit}, p)
        powers = [None, value]
        kept, kept_hits = [], []
        for q, hit in zip(eqs, hits):
            if i in set().union(*q):
                q = _substitute(q, i, powers, p)
                if not q:
                    continue
                if len(q) == 1 and () in q:
                    return None
                hit = False
            kept.append(q)
            kept_hits.append(hit)
        eqs, hits = kept, kept_hits
        solved[i] = value


def _substitute(terms, i, powers, p):
    """The canonical term map of `terms` with powers[1] put for u_i, where
    powers = [None, value, value^2, ...] grows as needed."""
    acc = {}
    get = acc.get
    for m, c in terms.items():
        if i not in m:
            acc[m] = get(m, 0) + c
            continue
        e = m.count(i)
        while len(powers) <= e:
            power = {}
            for ma, ca in powers[-1].items():
                for mb, cb in powers[1].items():
                    key = tuple(sorted(ma + mb))
                    power[key] = power.get(key, 0) + ca * cb
            powers.append(_canonical(power, p))
        at = m.index(i)
        rest = m[:at] + m[at + e:]
        for mv, cv in powers[e].items():
            key = tuple(sorted(rest + mv)) if rest and mv else rest or mv
            acc[key] = get(key, 0) + c * cv
    return _canonical(acc, p)


def _linear_unknown(terms):
    """The lowest i with terms == a*u_i + r, a a nonzero constant and u_i
    absent from r, or None."""
    blocked = {k for m in terms if len(m) != 1 for k in m}
    lone = [m[0] for m in terms if len(m) == 1 and m[0] not in blocked]
    return min(lone) if lone else None


def _back_substitute(solved, values: list, field: FieldSpec) -> list:
    """`values` with each unknown that `_eliminate` solved set to its value
    there, last solved first, as later-solved unknowns may appear in the
    values of earlier ones."""
    for i in reversed(list(solved)):
        total = 0
        for m, c in solved[i].items():
            for k in m:
                c *= values[k]
            total += c
        values[i] = field.raw(total)
    return values


def _extract_point(basis, nvars: int, budget: int, depth: int):
    """A rational point {variable index: raw value} of the variety of a
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
        present = {i for m in g._terms for i, e in enumerate(m) if e}
        if len(present) == 1:
            var = present.pop()
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


def _rational_roots(g: Poly, var: int, budget: int):
    """All rational roots, as raw values ordered by |r| with the positive
    one first, of a univariate (in `var`) polynomial over QQ.

    With integer coefficients c_0..c_n and c_0 != 0, a root is p/q in
    lowest terms with p dividing c_0 and q dividing c_n; each such
    candidate is tested in integers, q^n * f(p/q) by Horner's rule.
    Finding the divisors takes sqrt(|c_0|) + sqrt(|c_n|) trial divisions;
    when that exceeds `budget`, BudgetExceededError is raised before any is
    made.
    """
    coeffs = {m[var]: c for m, c in g._terms.items()}
    if max(coeffs) == 0:
        return []
    # clear denominators to integer coefficients
    denom = math.lcm(*[c.denominator for c in coeffs.values()])
    ints = {e: int(c * denom) for e, c in coeffs.items()}
    roots = []
    if 0 not in ints:
        roots.append(0)
        low = min(ints)
        ints = {e - low: c for e, c in ints.items()}
    n = max(ints)
    if n > 0:
        a0, an = abs(ints[0]), abs(ints[n])
        trials = math.isqrt(a0) + math.isqrt(an)
        if trials > budget:
            raise BudgetExceededError(
                f"rational root search needs {trials} trial divisions, "
                f"over the budget of {budget}")
        top, *rest = [ints.get(e, 0) for e in range(n, -1, -1)]
        denominators = _divisors(an)
        raw = g.context.field.raw
        for p in _divisors(a0):
            for q in denominators:
                if math.gcd(p, q) != 1:
                    continue
                for s in (p, -p):
                    total, scale = top, 1
                    for c in rest:
                        scale *= q
                        total = total * s + c * scale
                    if not total:
                        roots.append(raw(Fraction(s, q)))
    return sorted(roots, key=lambda r: (abs(r), r < 0))


def _divisors(n: int):
    """The positive divisors of n in ascending order; [1] for n = 0."""
    n = abs(n)
    if n == 0:
        return [1]
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]
