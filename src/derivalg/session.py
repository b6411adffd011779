"""Session state and statement execution for the CLI.

A session holds named bindings (rings, ideals, quotient rings, derivations,
skew rings, elements) and executes parsed statements against them.  Every
result is rendered as a JSON-ready dict, and its human text is formatted
from the dict's strings on demand; rendering is fully deterministic, so
replaying a session file yields byte-identical output.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from . import parser as P
from .errors import (
    BudgetExceededError,
    ParseError,
    PreconditionError,
    UnknownIdentifierError,
)
from .field import FieldSpec
from .groebner import (
    DEFAULT_BUDGET,
    _MEMO,
    IdealHandle,
    QuotientRing,
    TermOrder,
    groebner_basis,
    normal_form_with_cofactors,
)
from .poly import Poly, VarContext, _canonical, _mul_into

# The derivation, simplicity and skew layers are imported by the handlers
# that use them, so a session of Groebner commands never loads them.
if TYPE_CHECKING:
    from .skew import SkewPoly, SkewRingDescriptor


def poly_json(p: Poly) -> dict:
    return {
        "str": str(p),
        "terms": [{"exponents": list(m), "coefficient": str(c)}
                  for m, c in p._sorted_items()],
    }


def skew_json(u: SkewPoly) -> dict:
    return {
        "str": str(u),
        "terms": [{"exponents": list(e), "coefficient": poly_json(r)}
                  for e, r in u.sorted_terms()],
    }


def _walk(node, leaf, ops):
    """The value of an expression AST: `leaf` gives each Num and Name node
    its value, and `ops` maps "+", "-", "*", "neg" and "^" (with an int
    exponent) to the arithmetic that combines the values, left operand
    first."""
    cls = node.__class__
    if cls is P.Binary:
        op, left = node.op, _walk(node.left, leaf, ops)
        if op == "^":
            return ops[op](left, node.right.numerator)
        return ops[op](left, _walk(node.right, leaf, ops))
    if cls is P.Unary:
        return ops["neg"](_walk(node.operand, leaf, ops))
    return leaf(node)


def _merge(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign*b for raw term maps, unreduced."""
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, 0) + sign * c
    return acc


def _product(a: dict, b: dict) -> dict:
    """a * b for raw term maps, unreduced."""
    acc = {}
    _mul_into(acc, a, b)
    return acc


# the arithmetic of `Session.eval_poly`, on raw term maps, and of
# `Session.eval_in`, on SkewPoly; each caller adds its "^"
_TERM_OPS = {"+": _merge, "-": lambda a, b: _merge(a, b, -1), "*": _product,
             "neg": lambda a: {m: -c for m, c in a.items()}}
_SKEW_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "neg": operator.neg}


class Session:
    """Named bindings plus the execution of parsed statements.

    Each session keeps one memo of Groebner bases and D-simplicity verdicts
    (see `groebner._MEMO`), active while `execute` runs a statement, so it
    computes each of them once; the memo lives as long as the session.
    `order` is the term order of printed bases, cofactors and quotient
    normal forms; `dim` and every `check` compute in grevlex.
    """

    def __init__(self, order: TermOrder = TermOrder.GREVLEX,
                 budget: int = DEFAULT_BUDGET):
        self.order = order
        self.budget = budget
        self.rings = {}        # name -> QuotientRing (trivial = plain ring)
                               #         or SkewRingDescriptor
        self.ideals = {}       # name -> IdealHandle
        self.derivations = {}  # name -> Derivation
        self.elements = {}     # name -> Poly | SkewPoly
        self.current = None    # name of the ring in scope for bare commands
        self._memo = {}        # see `execute`

    # -- binding helpers ---------------------------------------------------

    def _bind(self, table: dict, kind: str, name: str, value, line: int):
        if name in table:
            raise ParseError(f"{kind} {name!r} is already defined", line, 1)
        table[name] = value

    def _lookup(self, table: dict, kind: str, name: str, line: int,
                expected: type = object):
        if name not in table:
            raise UnknownIdentifierError(f"unknown {kind} {name!r}", line, 1)
        value = table[name]
        if isinstance(value, expected):
            return value
        # only the ring table holds two kinds, so a wrong one is the other
        kinds = ("polynomial or quotient ring", "skew ring")
        held, wanted = kinds if isinstance(value, QuotientRing) else kinds[::-1]
        raise UnknownIdentifierError(f"{name!r} is a {held}, not a {wanted}",
                                     line, 1)

    def _any_ring(self, name: str | None, line: int):
        if name is None:
            name = self.current
            if name is None:
                raise UnknownIdentifierError("no ring in scope; define one first",
                                             line, 1)
        return self._lookup(self.rings, "ring", name, line)

    # -- expression evaluation ----------------------------------------------

    def eval_in(self, node, ring: SkewRingDescriptor) -> SkewPoly:
        """Evaluate an expression AST in a skew ring."""
        context = ring.base.context

        def leaf(node):
            if node.__class__ is P.Num:
                value = context.field.from_ratio(node.numerator, node.denominator)
                return ring.from_base(context.const(value))
            name = node.text
            if name in ring.names or name in context.names:
                return ring.variable(name)
            bound = self.elements.get(name)  # a Poly or a SkewPoly
            if (bound is not None and not isinstance(bound, Poly)
                    and bound.ring == ring):
                return bound
            raise UnknownIdentifierError(f"unknown identifier {name!r}",
                                         node.line, node.col)

        def power(u, n):   # u ** n makes n - 1 products, a step each
            if n - 1 > self.budget:
                raise BudgetExceededError(
                    f"the skew power with exponent {n} takes {n - 1} "
                    f"product{'s' if n > 2 else ''}, "
                    f"over the step budget ({self.budget})")
            return u ** n
        return _walk(node, leaf, {**_SKEW_OPS, "^": power})

    def eval_poly(self, node, ring: QuotientRing) -> Poly:
        """The normal form of an expression in a polynomial or quotient ring.

        The tree folds into one raw, unreduced term map (see `poly`): + and
        - merge maps, * runs `poly._mul_into`, and a power squares and
        multiplies, each product made canonical so that its coefficients
        stay reduced mod p.  One `_canonical` finishes the map, and it is
        reduced once, at the end, which gives the unique normal form."""
        context = ring.context
        field, names = context.field, context.names
        one = (0,) * len(names)

        def leaf(node):
            if node.__class__ is P.Num:
                n, d = node.numerator, node.denominator
                return {one: n if d == 1 else field.from_ratio(n, d).value}
            name = node.text
            if name in names:
                i = names.index(name)
                return {one[:i] + (1,) + one[i + 1:]: 1}
            bound = self.elements.get(name)
            if isinstance(bound, Poly) and bound.context == context:
                return bound._terms
            raise UnknownIdentifierError(f"unknown identifier {name!r}",
                                         node.line, node.col)

        def power(a, n):
            result = None
            while n:
                if n & 1:
                    result = a if result is None else _canonical(
                        _product(result, a), field.p)
                n >>= 1
                if n:
                    a = _canonical(_product(a, a), field.p)
            return {one: 1} if result is None else result

        terms = _walk(node, leaf, {**_TERM_OPS, "^": power})
        return ring.reduce(Poly._raw(context, _canonical(terms, field.p)))

    # -- statement dispatch --------------------------------------------------

    def execute(self, stmt: P.Statement):
        """Run one statement as `self._do_<kind>(line, *operands)`, with the
        session's memo active.

        Returns (json_record, human): `human()` formats the statement's text
        output from the record's strings, so a JSON run never builds it."""
        line, kind, operands = stmt
        handler = getattr(self, "_do_" + kind)
        token = _MEMO.set(self._memo)
        try:
            return handler(line, *operands)
        finally:
            _MEMO.reset(token)

    def _do_ring(self, line, name, p, variables):
        context = VarContext(variables, FieldSpec(p))
        ring = QuotientRing.trivial(context)
        self._bind(self.rings, "ring", name, ring, line)
        self.current = name
        record = {"command": "ring", "name": name,
                  "field": str(context.field), "variables": list(context.names)}
        return record, lambda: f"ring {name} = {context}"

    def _do_ideal(self, line, name, ring_name, generators):
        ring = self._lookup(self.rings, "ring", ring_name, line, QuotientRing)
        if not ring.is_trivial:
            raise PreconditionError("ideals are defined in polynomial rings")
        gens = [self.eval_poly(e, ring) for e in generators]
        handle = IdealHandle(ring.context, gens)
        self._bind(self.ideals, "ideal", name, handle, line)
        record = {"command": "ideal", "name": name, "ring": ring_name,
                  "generators": [str(g) for g in handle.generators]}
        return record, lambda: "ideal {} = ({}) in {}".format(
            name, ", ".join(record["generators"]) or "0", ring_name)

    def _do_quotient(self, line, name, ring_name, ideal):
        ring = self._lookup(self.rings, "ring", ring_name, line, QuotientRing)
        if not ring.is_trivial:
            raise PreconditionError("quotients are taken over polynomial rings")
        handle = self._lookup(self.ideals, "ideal", ideal, line)
        if handle.context != ring.context:
            raise PreconditionError(
                f"ideal {ideal!r} does not live in ring {ring_name!r}")
        quotient = QuotientRing.of(handle, self.order, self.budget)
        self._bind(self.rings, "ring", name, quotient, line)
        self.current = name
        record = {"command": "quotient", "name": name, "ring": ring_name,
                  "ideal": ideal,
                  "groebner_basis": [str(g) for g in quotient.basis.polys]}
        return record, lambda: f"quotient {name} = {quotient}"

    def _do_der(self, line, name, ring_name, assignments):
        ring = self._lookup(self.rings, "ring", ring_name, line, QuotientRing)
        names = ring.context.names
        images = {}
        for var, expr in assignments:
            if var not in names:
                raise UnknownIdentifierError(
                    f"{var!r} is not a variable of {ring_name}", line, 1)
            if var in images:
                raise ParseError(
                    f"{var!r} is given two images in der {name}", line, 1)
            images[var] = self.eval_poly(expr, ring)
        from .derivation import Derivation
        derivation = Derivation(ring, [images.get(n, ring.context.zero) for n in names])
        self._bind(self.derivations, "derivation", name, derivation, line)
        record = {"command": "der", "name": name, "ring": ring_name,
                  "images": {n: str(g) for n, g in zip(names, derivation.images)}}
        return record, lambda: f"der {name} on {ring_name} : " + ", ".join(
            f"{n} -> {g}" for n, g in record["images"].items())

    def _do_skew(self, line, name, base_name, steps):
        base = self._lookup(self.rings, "ring", base_name, line, QuotientRing)
        names = [var for var, _ in steps]
        ders = [self._lookup(self.derivations, "derivation", d, line)
                for _, d in steps]
        from .skew import SkewRingDescriptor
        ring = SkewRingDescriptor(base, names, ders)
        self._bind(self.rings, "skew ring", name, ring, line)
        self.current = name
        record = {"command": "skew", "name": name, "base": base_name,
                  "variables": names,
                  "derivations": [d for _, d in steps]}
        return record, lambda: f"skew {name} = {ring}"

    def _do_weyl(self, line, n, name):
        from .skew import weyl_algebra
        ring = weyl_algebra(n)
        self._bind(self.rings, "skew ring", name, ring, line)
        self.current = name
        record = {"command": "weyl", "name": name, "n": n,
                  "base_variables": list(ring.base.context.names),
                  "skew_variables": list(ring.names)}
        return record, lambda: f"weyl {n}: {name} = {ring}"

    def _evaluate(self, line, expr, ring_name):
        """expr in ring_name (default: the ring in scope), reduced, and its
        JSON rendering."""
        ring = self._any_ring(ring_name, line)
        if isinstance(ring, QuotientRing):
            value = self.eval_poly(expr, ring)
            return value, poly_json(value)
        value = self.eval_in(expr, ring)
        return value, skew_json(value)

    def _do_let(self, line, name, expr, ring_name):
        value, rendered = self._evaluate(line, expr, ring_name)
        # a variable of the value's ring hides any element of its name
        variables = (value.context.names if isinstance(value, Poly)
                     else value.ring.names + value.ring.base.context.names)
        if name in variables:
            raise ParseError(f"element {name!r} is a variable of its ring",
                             line, 1)
        self._bind(self.elements, "element", name, value, line)
        record = {"command": "let", "name": name, "value": rendered}
        return record, lambda: f"let {name} = {rendered['str']}"

    def _do_mul(self, line, expr, ring_name):
        _, rendered = self._evaluate(line, expr, ring_name)
        record = {"command": "mul", "result": rendered}
        return record, lambda: f"mul: {rendered['str']}"

    def _do_apply(self, line, der_name, expr):
        derivation = self._lookup(self.derivations, "derivation", der_name, line)
        value = self.eval_poly(expr, derivation.ring)
        image = derivation.apply(value)
        record = {"command": "apply", "derivation": der_name,
                  "element": str(value), "result": poly_json(image)}
        return record, lambda: f"apply {der_name}: {record['result']['str']}"

    def _do_gb(self, line, ideal):
        handle = self._lookup(self.ideals, "ideal", ideal, line)
        basis = groebner_basis(handle, self.order, self.budget)
        record = {"command": "gb", "ideal": ideal, "order": str(self.order),
                  "basis": [str(g) for g in basis.polys]}
        return record, lambda: f"gb {ideal}: {{{', '.join(record['basis'])}}}"

    def _do_member(self, line, expr, ideal, cofactors):
        handle = self._lookup(self.ideals, "ideal", ideal, line)
        ring = QuotientRing.trivial(handle.context)
        f = self.eval_poly(expr, ring)
        basis = groebner_basis(handle, self.order, self.budget)
        remainder, cof = normal_form_with_cofactors(f, basis)
        member = remainder.is_zero()
        record = {"command": "member", "ideal": ideal, "element": str(f),
                  "member": member}
        if cofactors:
            record["cofactors"] = [
                {"basis_element": str(g), "cofactor": str(q)}
                for g, q in zip(basis.polys, cof)]
            record["remainder"] = str(remainder)
        return record, lambda: (f"member {record['element']} in {ideal}: "
                                f"{str(member).lower()}")

    def _do_dim(self, line, ideal):
        handle = self._lookup(self.ideals, "ideal", ideal, line)
        dim = QuotientRing.of(handle, budget=self.budget).dimension()
        record = {"command": "dim", "ideal": ideal, "dimension": dim}
        return record, lambda: f"dim {ideal}: {dim}"

    def _do_certificate(self, line, expr, ring_name):
        ring = self._any_ring(ring_name, line)
        if not isinstance(ring, QuotientRing):
            raise PreconditionError("certificates live in commutative rings")
        from .simplicity import certificate
        f = self.eval_poly(expr, ring)
        cert = certificate(ring, f)
        names = ring.context.names
        record = {"command": "certificate", "element": str(f),
                  "word": [names[i] for i in cert.word],
                  "word_indices": list(cert.word),
                  "constant": str(cert.final_constant)}
        word = " ".join(record["word"]) or "(empty)"
        return record, lambda: (f"certificate: word [{word}] "
                                f"constant {record['constant']}")

    def _do_darboux(self, line, expr, bound, ring_name):
        ring = self._any_ring(ring_name, line)
        if not isinstance(ring, QuotientRing) or not ring.is_trivial:
            raise PreconditionError("Darboux search runs over a polynomial ring")
        from .simplicity import DarbouxStatus, darboux_search
        F = self.eval_poly(expr, ring)
        result = darboux_search(F, bound, self.budget)
        record = {"command": "darboux", "F": str(F), "bound": bound,
                  "status": result.status.value}
        if result.status is DarbouxStatus.FOUND:
            record["h"] = str(result.h)
            record["cofactor"] = str(result.cofactor)
            return record, lambda: (f"darboux: found h = {record['h']}, "
                                    f"cofactor = {record['cofactor']}")
        return record, lambda: f"darboux: none up to degree {bound}"

    def _do_check_commute(self, line, first, second):
        d1 = self._lookup(self.derivations, "derivation", first, line)
        d2 = self._lookup(self.derivations, "derivation", second, line)
        from .derivation import commuting_set_check
        report = commuting_set_check([d1, d2])
        record = {"command": "check_commute", "first": first,
                  "second": second, "commute": report.commute}
        if not report.commute:
            gen = d1.ring.context.names[report.generator]
            record["witness"] = {"generator": gen, "image": str(report.witness)}
            return record, lambda: (f"check commute: false (commutator sends {gen} "
                                    f"to {record['witness']['image']})")
        return record, lambda: "check commute: true"

    def _do_check_dideal(self, line, ideal, der_names):
        handle = self._lookup(self.ideals, "ideal", ideal, line)
        ders = [self._lookup(self.derivations, "derivation", d, line)
                for d in der_names]
        from .derivation import d_ideal_check
        ok = d_ideal_check(handle, ders, budget=self.budget)
        record = {"command": "check_dideal", "ideal": ideal,
                  "derivations": list(der_names), "d_ideal": ok}
        return record, lambda: f"check dideal: {str(ok).lower()}"

    def _do_check_dsimple(self, line, ring_name, der_names, dim1):
        ring = self._lookup(self.rings, "ring", ring_name, line, QuotientRing)
        ders = [self._lookup(self.derivations, "derivation", d, line)
                for d in der_names]
        for d in ders:
            if d.ring != ring:
                raise PreconditionError(
                    f"derivation does not live on ring {ring_name!r}")
        from .simplicity import (_verdict_text, d_simplicity, dim1_simplicity,
                                 verdict_json)
        if dim1:
            if len(ders) != 1:
                raise PreconditionError(
                    "the dimension-1 criterion takes a single derivation")
            verdict = dim1_simplicity(ring, ders[0], budget=self.budget)
        else:
            verdict = d_simplicity(ring, ders, budget=self.budget)
        record = {"command": "check_dsimple", "ring": ring_name,
                  "derivations": list(der_names)}
        record.update(verdict_json(verdict))
        return record, lambda: f"check dsimple: {_verdict_text(record)}"

    def _do_check_simple(self, line, ring_name):
        from .simplicity import _verdict_text, verdict_json
        from .skew import SkewRingDescriptor, skew_simplicity
        ring = self._lookup(self.rings, "skew ring", ring_name, line,
                            SkewRingDescriptor)
        verdict = skew_simplicity(ring, budget=self.budget)
        record = {"command": "check_simple", "ring": ring_name}
        record.update(verdict_json(verdict))
        return record, lambda: f"check simple: {_verdict_text(record)}"

    def _do_inner(self, line, expr, ring_name):
        ring = self._any_ring(ring_name, line)
        if isinstance(ring, QuotientRing):
            raise PreconditionError("inner analysis runs in a skew ring")
        from .skew import inner_induced
        f = self.eval_in(expr, ring)
        analysis = inner_induced(ring, f)
        record = {"command": "inner", "element": str(f),
                  "inner_induced": analysis.induced}
        if analysis.induced:
            record["images"] = {n: str(g) for n, g in
                                zip(ring.base.context.names,
                                    analysis.derivation.images)}
            return record, lambda: "inner: induces " + ", ".join(
                f"{n} -> {g}" for n, g in record["images"].items())
        record["offending_generator"] = analysis.offending_generator
        record["residual"] = str(analysis.residual)
        return record, lambda: (f"inner: not degree 0 at "
                                f"{record['offending_generator']}, "
                                f"residual {record['residual']}")

    def _do_extend(self, line, der_name, ring_name):
        derivation = self._lookup(self.derivations, "derivation", der_name, line)
        from .skew import SkewRingDerivation, SkewRingDescriptor
        ring = self._lookup(self.rings, "skew ring", ring_name, line,
                            SkewRingDescriptor)
        SkewRingDerivation(ring, derivation)
        record = {"command": "extend", "derivation": der_name,
                  "ring": ring_name, "extends": True}
        return record, lambda: (f"extend {der_name} into {ring_name}: ok "
                                f"(skew variables map to 0)")
