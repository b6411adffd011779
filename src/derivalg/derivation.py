"""Derivations of polynomial and quotient rings.

A derivation is stored extensionally: one image polynomial per ring
generator.  On f it acts through the chain rule,

    d(f) = sum_i  (df/dx_i) * d(x_i),

which is additive and Leibniz by construction.  Derivations of a quotient
ring R/I revalidate d(I) <= I at construction; a silently non-invariant
derivation would corrupt every downstream check, so there is no unchecked
path.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import ContextMismatchError, NotInvariantError
from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBasis,
    IdealHandle,
    QuotientRing,
    groebner_basis,
    normal_form,
)
from .poly import Poly, VarContext


def _as_ring(ring) -> QuotientRing:
    if isinstance(ring, QuotientRing):
        return ring
    if isinstance(ring, VarContext):
        return QuotientRing.trivial(ring)
    raise TypeError(f"not a ring handle: {ring!r}")


class Derivation:
    """A derivation of a polynomial or quotient ring, given by generator images."""

    __slots__ = ("ring", "images")

    def __init__(self, ring, images: Iterable[Poly]):
        ring = _as_ring(ring)
        images = tuple(images)
        if len(images) != ring.context.nvars:
            raise ValueError("one image per ring generator is required")
        for g in images:
            if g.context != ring.context:
                raise ContextMismatchError("derivation image outside the ring")
        self.ring = ring
        self.images = tuple(ring.reduce(g) for g in images)
        escape = _escape(ring.defining.generators or ring.basis.polys,
                         [self], ring.basis)
        if escape is not None:
            g, lifted = escape
            raise NotInvariantError(
                f"derivation does not preserve the defining ideal: "
                f"image of {g} is {lifted}",
                generator=g, image=lifted)

    @classmethod
    def partial(cls, ring, i: int) -> "Derivation":
        """The i-th partial derivative (or its induced quotient map)."""
        ring = _as_ring(ring)
        n = ring.context.nvars
        one = ring.context.one
        zero = ring.context.zero
        return cls(ring, [one if j == i else zero for j in range(n)])

    def apply(self, f: Poly) -> Poly:
        if f.context != self.ring.context:
            raise ContextMismatchError("element outside the derivation's ring")
        return self.ring.reduce(_chain_rule(f, self.images))

    __call__ = apply

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.images)

    def __eq__(self, other):
        return (isinstance(other, Derivation)
                and self.ring == other.ring
                and self.images == other.images)

    def __hash__(self):
        return hash((self.ring, self.images))

    def __str__(self):
        names = self.ring.context.names
        return ", ".join(f"{n} -> {g}" for n, g in zip(names, self.images))

    def __repr__(self):
        return f"Derivation({self})"


def _chain_rule(f: Poly, images: Sequence[Poly]) -> Poly:
    total = f.context.zero
    for i, g in enumerate(images):
        if g.is_zero():
            continue
        p = f.partial(i)
        if not p.is_zero():
            # a constant image (a partial derivative, say) only scales
            total = total + (p.scale(g.constant_value()) if g.is_constant()
                             else p * g)
    return total


def _escape(generators: Iterable[Poly], derivations: Sequence[Derivation],
            basis: GroebnerBasis):
    """The first pair (g, d(g)) with d(g) outside the ideal of `basis`, g
    running over `generators` and d over `derivations` for each g; None
    when every image lies in the ideal."""
    for g in generators:
        for d in derivations:
            image = _chain_rule(g, d.images)
            if not normal_form(image, basis).is_zero():
                return g, image
    return None


def commutator(d1: Derivation, d2: Derivation) -> Derivation:
    """The derivation d1 o d2 - d2 o d1; zero iff d1 and d2 commute."""
    if d1.ring != d2.ring:
        raise ContextMismatchError("commutator operands live on different rings")
    images = [d1.apply(d2.images[i]) - d2.apply(d1.images[i])
              for i in range(d1.ring.context.nvars)]
    return Derivation(d1.ring, images)


class CommuteReport(NamedTuple):
    """Outcome of a pairwise commutation check over a derivation list."""

    commute: bool
    first: int | None = None
    second: int | None = None
    generator: int | None = None
    witness: Poly | None = None


def commuting_set_check(derivations: Sequence[Derivation]) -> CommuteReport:
    """True iff every pair commutes; otherwise reports the first violation."""
    derivations = list(derivations)
    for d in derivations[1:]:
        if d.ring != derivations[0].ring:
            raise ContextMismatchError("derivations live on different rings")
    # a derivation with constant images only is a k-combination of the
    # partials, and two of them commute: d_i(d_j(x_k)) = d_i(constant) = 0
    constant = [all(g.is_constant() for g in d.images) for d in derivations]
    for i in range(len(derivations)):
        for j in range(i + 1, len(derivations)):
            if constant[i] and constant[j]:
                continue
            c = commutator(derivations[i], derivations[j])
            for g, img in enumerate(c.images):
                if not img.is_zero():
                    return CommuteReport(False, i, j, g, img)
    return CommuteReport(True)


def d_ideal_check(ideal: IdealHandle, derivations: Sequence[Derivation], *,
                  budget: int = DEFAULT_BUDGET) -> bool:
    """True iff d(I) <= I for every derivation in the list.

    Checking the generators suffices: by the Leibniz rule the image of any
    combination sum(a_i g_i) is sum(d(a_i) g_i + a_i d(g_i)), which stays in
    I once every d(g_i) does.
    """
    derivations = list(derivations)
    for d in derivations:
        if d.ring.context != ideal.context:
            raise ContextMismatchError("derivation outside the ideal's context")
    basis = groebner_basis(ideal, budget=budget)
    return _escape(ideal.generators, derivations, basis) is None
