"""Differential-simplicity deciders and their machine-checkable certificates.

Positive answers are constructive wherever the theory allows:

* over a characteristic-0 polynomial ring with all partials, a word of
  partial derivatives reducing any nonzero element to a nonzero constant;
* over the truncated ring F_p[x]/(x_i^p) with the induced partials, the same
  kind of word (every exponent is < p, so the factorials never vanish);
* for a 1-dimensional finitely generated algebra with one derivation, the
  unit-ideal criterion 1 in (d(x_1), ..., d(x_n)) + I;
* in characteristic p, a D-stable proper witness ideal of p-th powers
  whenever the Krull dimension is positive (simplicity is impossible there).

`d_simplicity` is the one decider that orders these criteria; the CLI's
`check dsimple`, `dim1_simplicity` and `skew_simplicity` all end in it.
Everything else is an honest Unknown carrying its reason.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .derivation import Derivation, _chain_rule
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    PreconditionError,
    ZeroPolynomialError,
)
from .field import FieldElement
from .groebner import (
    DEFAULT_BUDGET,
    IdealHandle,
    QuotientRing,
    TermOrder,
    buchberger,
    groebner_basis,
    is_unit_ideal,
    normal_form,
)
from .poly import Poly, VarContext


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
    status: SimplicityStatus
    witness: IdealHandle | None = None
    reason: str | None = None
    criterion: str | None = None

    def __str__(self):
        extra = ""
        if self.witness is not None:
            extra = f" witness {self.witness}"
        elif self.reason:
            extra = f" ({self.reason})"
        if self.criterion:
            extra += f" [{self.criterion}]"
        return self.status.value + extra


class DarbouxStatus(enum.Enum):
    FOUND = "found"
    NONE_UP_TO_BOUND = "none_up_to_bound"


class DarbouxResult(NamedTuple):
    status: DarbouxStatus
    h: Poly | None
    cofactor: Poly | None
    bound: int


def partials_certificate(f: Poly) -> SimplicityCertificate:
    """Reduce f != 0 to a nonzero constant with partial derivatives (char 0).

    Strategy: repeatedly differentiate the lowest-index variable present, at
    its maximal exponent m.  That step multiplies the top coefficient by m!,
    which cannot vanish in characteristic zero, and eliminates the variable;
    the word length is at most the total degree.
    """
    if f.context.field.characteristic != 0:
        raise PreconditionError("partials certificate needs characteristic 0")
    if f.is_zero():
        raise ZeroPolynomialError("cannot certify the zero element")
    return _reduce_to_constant(f)


def truncated_certificate(f: Poly) -> SimplicityCertificate:
    """Certificate for a canonical representative in F_p[x]/(x_1^p..x_n^p).

    Requires every exponent of f to be < p; then the maximal exponent m of
    the chosen variable satisfies m! != 0 mod p and the char-0 reduction
    strategy goes through verbatim with the induced partials.
    """
    p = f.context.field.characteristic
    if p == 0:
        raise PreconditionError("truncated certificate needs prime characteristic")
    if f.is_zero():
        raise ZeroPolynomialError("cannot certify the zero element")
    for mono, _ in f.terms():
        if any(e >= p for e in mono):
            raise PreconditionError(
                f"representative has an exponent >= {p}; reduce it first")
    return _reduce_to_constant(f)


def _reduce_to_constant(f: Poly) -> SimplicityCertificate:
    """A word of partials taking f to a nonzero constant.

    Differentiates the lowest variable present at its maximal exponent m
    until f is constant; callers guarantee that m! never vanishes.
    """
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
    """Apply the certificate word to f; returns the resulting constant."""
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


def _lifted_image_ideal(ring: QuotientRing, d: Derivation) -> IdealHandle:
    gens = list(d.images) + list(ring.defining.generators)
    return IdealHandle(ring.context, gens)


def necessary_unit_condition(ring: QuotientRing, d: Derivation,
                             order: TermOrder = TermOrder.GREVLEX,
                             budget: int = DEFAULT_BUDGET) -> bool:
    """1 in (d(x_1), ..., d(x_n)) + I — necessary for d-simplicity.

    False certifies that the ring is *not* d-simple; True alone decides
    nothing unless the dimension-1 criterion applies.
    """
    if ring.context.field.characteristic != 0:
        raise PreconditionError("unit-ideal condition applies in characteristic 0")
    if d.ring != ring:
        raise ContextMismatchError("derivation does not live on the given ring")
    return is_unit_ideal(_lifted_image_ideal(ring, d), order, budget)


def principal_stability_check(g: Poly, derivations,
                              order: TermOrder = TermOrder.GREVLEX,
                              budget: int = DEFAULT_BUDGET) -> bool:
    """True iff d(g) lies in (g) (plus the defining ideal) for every d.

    A nonunit g passing this check generates a proper D-stable ideal, i.e. a
    NotSimple witness.
    """
    if g.is_zero():
        raise ZeroPolynomialError("principal stability needs a nonzero generator")
    derivations = list(derivations)
    ring = derivations[0].ring
    if g.context != ring.context:
        raise ContextMismatchError("generator outside the derivations' ring")
    handle = IdealHandle(ring.context, [g] + list(ring.defining.generators))
    basis = groebner_basis(handle, order, budget)
    for d in derivations:
        if d.ring != ring:
            raise ContextMismatchError("derivations live on different rings")
        if not normal_form(_chain_rule(g, d.images), basis).is_zero():
            return False
    return True


def _principal_witness(ring: QuotientRing, derivations,
                       order: TermOrder, budget: int) -> IdealHandle | None:
    """First variable or derivation image generating a proper D-stable ideal."""
    candidates = list(ring.generators())
    for d in derivations:
        for img in d.images:
            if not img.is_zero() and not img.is_constant() and img not in candidates:
                candidates.append(img)
    for g in candidates:
        if ring.reduce(g).is_zero():
            continue
        handle = IdealHandle(ring.context, [g] + list(ring.defining.generators))
        basis = groebner_basis(handle, order, budget)
        if basis.is_unit:
            continue
        if all(normal_form(_chain_rule(g, d.images), basis).is_zero()
               for d in derivations):
            return handle
    return None


def d_simplicity(ring: QuotientRing, derivations,
                 order: TermOrder = TermOrder.GREVLEX,
                 budget: int = DEFAULT_BUDGET) -> SimplicityVerdict:
    """D-simplicity of R = k[x_1..x_n]/I; the first criterion that applies decides:

    1. characteristic p: prime_char_obstruction;
    2. a polynomial ring with every partial in D: Simple;
    3. a variable or image generating a proper nonzero D-stable ideal: NotSimple;
    4. dimension 1 and 1 in J_d = (d(x_1), ..., d(x_n)) + I for a d in D: Simple
       (R is not checked to be a domain);
    5. dimension 1 and D = {d}: NotSimple, witnessed by the D-stable proper
       J_d unless d is zero on R;
    6. anything else: Unknown.
    """
    derivations = list(derivations)
    for d in derivations:
        if d.ring != ring:
            raise ContextMismatchError("derivation does not live on the given ring")
    if ring.context.field.characteristic != 0:
        return prime_char_obstruction(ring, derivations, order, budget)
    if _all_partials_present(ring, derivations):
        return SimplicityVerdict(
            SimplicityStatus.SIMPLE,
            criterion="polynomial base with all partial derivatives")
    witness = _principal_witness(ring, derivations, order, budget)
    if witness is not None:
        return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                                 criterion="stable principal ideal witness")
    if ring.dimension() == 1:
        images = [_lifted_image_ideal(ring, d) for d in derivations]
        if any(is_unit_ideal(J, order, budget) for J in images):
            return SimplicityVerdict(SimplicityStatus.SIMPLE,
                                     criterion="dimension-1 unit-ideal criterion")
        if len(derivations) == 1:
            witness = None if derivations[0].is_zero() else images[0]
            return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                                     criterion="dimension-1 unit-ideal criterion")
    return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                             reason="no applicable criterion")


def dim1_simplicity(ring: QuotientRing, d: Derivation,
                    order: TermOrder = TermOrder.GREVLEX,
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
    return d_simplicity(ring, [d], order, budget)


def prime_char_obstruction(ring: QuotientRing, derivations,
                           order: TermOrder = TermOrder.GREVLEX,
                           budget: int = DEFAULT_BUDGET,
                           point_budget: int = 200_000) -> SimplicityVerdict:
    """Dimension obstruction in characteristic p.

    A D-simple ring of characteristic p is 0-dimensional, whatever D is: the
    ideal generated by p-th powers of a maximal ideal is proper and D-stable
    (d(g^p) = p g^(p-1) d(g) = 0).  So positive dimension means NotSimple;
    the witness attached is ((x_1-a_1)^p, ..., (x_n-a_n)^p) + I for a
    rational point a of V(I), when one exists in F_p^n.  Dimension 0 leaves
    the question open.
    """
    p = ring.context.field.characteristic
    if p == 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="characteristic is 0")
    if ring.dimension() == 0:
        return SimplicityVerdict(SimplicityStatus.UNKNOWN,
                                 reason="necessary condition passed")
    witness = _charp_witness(ring, order, budget, point_budget)
    reason = None if witness is not None else (
        "positive dimension forces NotSimple; no rational-point witness found")
    return SimplicityVerdict(SimplicityStatus.NOT_SIMPLE, witness=witness,
                             reason=reason,
                             criterion="positive Krull dimension in characteristic p")


def _charp_witness(ring: QuotientRing, order: TermOrder, budget: int,
                   point_budget: int) -> IdealHandle | None:
    p = ring.context.field.characteristic
    n = ring.context.nvars
    if p ** n > point_budget:
        return None
    field = ring.context.field
    gens = ring.defining.generators
    for point in itertools.product(range(p), repeat=n):
        values = [field.element(a) for a in point]
        if any(not g.evaluate(values).is_zero() for g in gens):
            continue
        powers = []
        nonzero = False
        for i, a in enumerate(values):
            shifted = (ring.context.var(i) - ring.context.const(a)) ** p
            powers.append(shifted)
            if not ring.reduce(shifted).is_zero():
                nonzero = True
        if not nonzero:
            continue
        handle = IdealHandle(ring.context, powers + list(gens))
        if is_unit_ideal(handle, order, budget):
            continue
        return handle
    return None


# ---------------------------------------------------------------------------
# Darboux polynomial search for d = d/dx + F(x,y) d/dy
# ---------------------------------------------------------------------------


def darboux_search(F: Poly, bound: int,
                   budget: int = DEFAULT_BUDGET) -> DarbouxResult:
    """Bounded search for h with d(h) = cofactor * h, d = d/dx + F d/dy.

    Looks for a nonconstant h of total degree <= bound with polynomial
    cofactor of degree <= max(deg F - 1, 0) (the degree comparison in
    d(h) = cofactor*h forces this, since d(x) = 1).  The bilinear system in
    the unknown coefficients is solved pivot by pivot: the leading
    coefficient of h is normalized to 1 for each candidate leading monomial,
    the rest is eliminated/Groebner-reduced, and a rational solution is
    extracted and verified.  A consistent system without an extractable
    rational point raises BudgetExceededError — never a wrong NoneUpToBound.
    """
    ctx = F.context
    if ctx.nvars != 2:
        raise PreconditionError("Darboux search works over k[x, y] (two variables)")
    if ctx.field.characteristic != 0:
        raise PreconditionError("Darboux search needs characteristic 0")
    if bound < 1:
        raise PreconditionError("the degree bound must be at least 1")

    cof_bound = min(max(F.total_degree() - 1, 0), bound)
    h_monos = _monomials_up_to(2, bound)
    cof_monos = _monomials_up_to(2, cof_bound)

    taken = set(ctx.names)
    c_names = _fresh_names("c", len(h_monos), taken)
    l_names = _fresh_names("l", len(cof_monos), taken | set(c_names))
    big = VarContext(tuple(ctx.names) + tuple(c_names) + tuple(l_names), ctx.field)
    unknowns = VarContext(tuple(c_names) + tuple(l_names), ctx.field)
    pad = len(c_names) + len(l_names)

    def embed(f: Poly) -> Poly:
        return Poly._raw(big, {m + (0,) * pad: c for m, c in f._terms.items()})

    def sym(offset: int, xy: tuple) -> dict:
        e = [0] * big.nvars
        e[0], e[1] = xy
        e[2 + offset] = 1
        return tuple(e)

    H = Poly(big, {sym(k, m): ctx.field.one for k, m in enumerate(h_monos)})
    Lam = Poly(big, {sym(len(c_names) + k, m): ctx.field.one
                     for k, m in enumerate(cof_monos)})
    G = H.partial(0) + embed(F) * H.partial(1) - Lam * H

    # collect coefficients of the x,y-monomials: equations over the unknowns
    equations = {}
    for m, c in G._terms.items():
        xy = (m[0], m[1])
        rest = m[2:]
        eq = equations.setdefault(xy, {})
        eq[rest] = eq.get(rest, 0) + c
    system = [Poly(unknowns, eq) for eq in equations.values()]
    system = [e for e in system if not e.is_zero()]

    grevlex = TermOrder.GREVLEX
    order_key = lambda mono: grevlex.key(mono)
    pivots = sorted((m for m in h_monos if sum(m) > 0), key=order_key)

    for pivot in pivots:
        assignment = {}
        for k, m in enumerate(h_monos):
            if m == pivot:
                assignment[k] = ctx.field.one
            elif order_key(m) > order_key(pivot):
                assignment[k] = ctx.field.zero
        fixed = {c_names[k]: v for k, v in assignment.items()}
        specialized = [_substitute_constants(e, fixed) for e in system]
        specialized = [e for e in specialized if not e.is_zero()]
        solution = _solve_rational(specialized, unknowns, budget)
        if solution is None:
            continue
        values = dict(solution)
        values.update(fixed)  # pivot normalization wins over free-variable defaults
        h = Poly(ctx, {m: values.get(c_names[k], ctx.field.zero)
                       for k, m in enumerate(h_monos)})
        cof = Poly(ctx, {m: values.get(l_names[k], ctx.field.zero)
                         for k, m in enumerate(cof_monos)})
        lhs = h.partial(0) + F * h.partial(1)
        if h.is_constant() or lhs != cof * h:
            raise AssertionError("extracted Darboux pair failed verification")
        return DarbouxResult(DarbouxStatus.FOUND, h, cof, bound)

    return DarbouxResult(DarbouxStatus.NONE_UP_TO_BOUND, None, None, bound)


def _monomials_up_to(nvars: int, degree: int):
    assert nvars == 2
    return [(total - i, i)
            for total in range(degree + 1) for i in range(total + 1)]


def _fresh_names(prefix: str, count: int, taken) -> list:
    names = []
    k = 0
    while len(names) < count:
        cand = f"{prefix}{k}"
        if cand not in taken:
            names.append(cand)
        k += 1
    return names


def _substitute_constants(f: Poly, values: dict) -> Poly:
    """Substitute field constants for a subset of variables, by name."""
    ctx = f.context
    idx = {ctx.index(name): ctx.field.raw(val) for name, val in values.items()}
    terms = {}
    for m, c in f._terms.items():
        mono = list(m)
        for i, val in idx.items():
            e = mono[i]
            if e:
                c *= val ** e
                mono[i] = 0
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + c
    return Poly(ctx, terms)


def _solve_rational(equations, context: VarContext, budget: int):
    """A rational common zero of the system, or None when there is none.

    Constant-coefficient linear unknowns are eliminated by substitution
    first; what remains goes through Buchberger.  An empty remainder leaves
    the free unknowns at 0.  Nontrivial remainders are triangularized (lex)
    and back-substituted through rational root search with a bounded
    specialization fallback; exhausting the fallback raises
    BudgetExceededError because consistency over the closure was already
    established.
    """
    eqs = [e for e in equations if not e.is_zero()]
    solved = {}

    changed = True
    while changed:
        changed = False
        for e in eqs:
            hit = _linear_solvable(e)
            if hit is None:
                continue
            name, value_poly = hit
            # value_poly has the remaining unknowns; substitute symbolically
            eqs = [_substitute_poly(q, name, value_poly) for q in eqs]
            eqs = [q for q in eqs if not q.is_zero()]
            solved[name] = value_poly
            changed = True
            break
        for e in eqs:
            if e.is_constant() and not e.is_zero():
                return None

    if eqs:
        basis = buchberger(eqs, TermOrder.GREVLEX, budget)
        if basis.is_unit:
            return None
        point = _extract_point(list(basis.polys), context, budget, depth=0)
        if point is None:
            raise BudgetExceededError(
                "system is consistent but no rational point was extracted")
    else:
        point = {}

    # every unknown not pinned yet defaults to 0
    values = {name: point.get(name, context.field.zero) for name in context.names
              if name not in solved}
    # unwind the substitution chain (later-solved names may appear in earlier ones)
    for name in reversed(list(solved)):
        values[name] = solved[name].evaluate(
            [values.get(n, context.field.zero) for n in context.names])
    return values


def _linear_solvable(e: Poly):
    """(name, rest) when e == a*u + rest with constant a and u absent from rest."""
    ctx = e.context
    for i in range(ctx.nvars):
        coeff = None
        rest = {}
        ok = True
        for m, c in e._terms.items():
            if m[i] == 0:
                rest[m] = c
            elif m[i] == 1 and sum(m) == 1:
                coeff = c
            else:
                ok = False
                break
        if ok and coeff is not None:
            inv = -ctx.field.raw_inverse(coeff)
            value = Poly(ctx, {m: c * inv for m, c in rest.items()})
            return ctx.names[i], value
    return None


def _substitute_poly(f: Poly, name: str, value: Poly) -> Poly:
    ctx = f.context
    i = ctx.index(name)
    result = ctx.zero
    powers = {0: ctx.one}

    def power(e):
        if e not in powers:
            powers[e] = power(e - 1) * value
        return powers[e]

    for m, c in f._terms.items():
        e = m[i]
        base = Poly._raw(ctx, {m[:i] + (0,) + m[i + 1:]: c})
        result = result + (base * power(e) if e else base)
    return result


def _extract_point(gens, context: VarContext, budget: int, depth: int):
    """Backtracking rational-point extraction from a consistent system."""
    if depth > context.nvars + 4:
        return None
    gens = [g for g in gens if not g.is_zero()]
    if any(g.is_constant() for g in gens):
        return None
    if not gens:
        return {}
    # prefer a univariate generator: rational roots are enumerable
    for g in gens:
        var = _sole_variable(g)
        if var is None:
            continue
        for root in _rational_roots(g, var, budget):
            reduced = [_substitute_constants(q, {context.names[var]: root})
                       for q in gens]
            reduced = [q for q in reduced if not q.is_zero()]
            if any(q.is_constant() for q in reduced):
                continue
            rest = _extract_point(_regroebner(reduced, budget), context,
                                  budget, depth + 1)
            if rest is not None:
                rest[context.names[var]] = root
                return rest
        return None
    # no univariate generator: specialize the last context variable present
    present = sorted({i for g in gens for m, _ in g._terms.items()
                      for i, e in enumerate(m) if e})
    var = present[-1]
    for guess in (0, 1, -1, 2, -2):
        val = context.field.element(guess)
        reduced = [_substitute_constants(q, {context.names[var]: val})
                   for q in gens]
        reduced = [q for q in reduced if not q.is_zero()]
        if any(q.is_constant() for q in reduced):
            continue
        rest = _extract_point(_regroebner(reduced, budget), context,
                              budget, depth + 1)
        if rest is not None:
            rest[context.names[var]] = val
            return rest
    return None


def _regroebner(gens, budget: int):
    if not gens:
        return []
    basis = buchberger(gens, TermOrder.GREVLEX, budget)
    if basis.is_unit:
        return [gens[0].context.one]
    return list(basis.polys)


def _sole_variable(g: Poly):
    seen = None
    for m, _ in g._terms.items():
        for i, e in enumerate(m):
            if e:
                if seen is None:
                    seen = i
                elif seen != i:
                    return None
    return seen


def _rational_roots(g: Poly, var: int, budget: int):
    """All rational roots of a univariate (in `var`) polynomial over QQ.

    Candidates p/q come from the divisors of the constant and leading
    integer coefficients.  Finding them takes sqrt(|a0|) + sqrt(|an|) trial
    divisions; when that exceeds `budget`, BudgetExceededError is raised
    before any is made.
    """
    coeffs = {}
    for m, c in g._terms.items():
        coeffs[m[var]] = c
    degree = max(coeffs)
    if degree == 0:
        return []
    # clear denominators to integer coefficients
    denom = 1
    for c in coeffs.values():
        denom = math.lcm(denom, c.denominator)
    ints = {e: int(c * denom) for e, c in coeffs.items()}
    roots = []
    field = g.context.field
    if 0 not in ints:
        roots.append(field.zero)
        low = min(ints)
        ints = {e - low: c for e, c in ints.items()}
        if max(ints) == 0:
            return _dedup_roots(roots)
    a0 = abs(ints.get(0, 0))
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
                value = sum(Fraction(c) * cand ** e for e, c in ints.items())
                if value == 0:
                    roots.append(field.element(cand))
    return _dedup_roots(roots)


def _dedup_roots(roots):
    out = []
    for r in sorted(roots, key=lambda x: (abs(x.value), x.value < 0)):
        if r not in out:
            out.append(r)
    return out


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return [1]
    small, big = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    return small + big[::-1]
