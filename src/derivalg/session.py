"""Session state and statement execution for the CLI.

A session holds named bindings (rings, ideals, quotient rings, derivations,
skew rings, elements) and executes parsed statements against them.  Every
result is rendered as a JSON-ready dict, and its human text is formatted
from the dict's strings on demand; rendering is fully deterministic, so
replaying a session file yields byte-identical output.
"""

from __future__ import annotations

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
from .poly import Poly, VarContext

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


def _walk(node, leaf, power=pow):
    """The value of an expression AST: `leaf` gives each Num and Name node its
    value, the values' own + - * and `power` combine them, left operand first."""
    cls = node.__class__
    if cls is P.Binary:
        op, left = node.op, _walk(node.left, leaf, power)
        if op == "^":
            return power(left, node.right.numerator)
        right = _walk(node.right, leaf, power)
        return (left + right if op == "+" else left - right if op == "-"
                else left * right)
    if cls is P.Unary:
        return -_walk(node.operand, leaf, power)
    return leaf(node)


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
        if name in table and isinstance(table[name], expected):
            return table[name]
        raise UnknownIdentifierError(f"unknown {kind} {name!r}", line, 1)

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
        return _walk(node, leaf, power)

    def eval_poly(self, node, ring: QuotientRing) -> Poly:
        """The normal form of an expression in a polynomial or quotient ring:
        an integer literal is a raw coefficient (see `poly`), and the result
        is reduced once, at the end, which gives the unique normal form."""
        context = ring.context

        def leaf(node):
            if node.__class__ is P.Num:  # an integer stays a raw coefficient
                n, d = node.numerator, node.denominator
                return context.const(n if d == 1 else context.field.from_ratio(n, d))
            name = node.text
            if name in context.names:
                return context.var_by_name(name)
            bound = self.elements.get(name)
            if isinstance(bound, Poly) and bound.context == context:
                return bound
            raise UnknownIdentifierError(f"unknown identifier {name!r}",
                                         node.line, node.col)
        return ring.reduce(_walk(node, leaf))

    # -- statement dispatch --------------------------------------------------

    def execute(self, stmt):
        """Run one statement, with the session's memo active.

        Returns (json_record, human): `human()` formats the statement's text
        output from the record's strings, so a JSON run never builds it."""
        handler = self._DISPATCH[type(stmt)]
        token = _MEMO.set(self._memo)
        try:
            return handler(self, stmt)
        finally:
            _MEMO.reset(token)

    def _do_ring(self, stmt: P.DefineRing):
        context = VarContext(stmt.variables, FieldSpec(stmt.field_spec.p))
        ring = QuotientRing.trivial(context)
        self._bind(self.rings, "ring", stmt.name, ring, stmt.line)
        self.current = stmt.name
        record = {"command": "ring", "name": stmt.name,
                  "field": str(context.field), "variables": list(context.names)}
        return record, lambda: f"ring {stmt.name} = {context}"

    def _do_ideal(self, stmt: P.DefineIdeal):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line, QuotientRing)
        if not ring.is_trivial:
            raise PreconditionError("ideals are defined in polynomial rings")
        gens = [self.eval_poly(e, ring) for e in stmt.generators]
        handle = IdealHandle(ring.context, gens)
        self._bind(self.ideals, "ideal", stmt.name, handle, stmt.line)
        record = {"command": "ideal", "name": stmt.name, "ring": stmt.ring,
                  "generators": [str(g) for g in handle.generators]}
        return record, lambda: "ideal {} = ({}) in {}".format(
            stmt.name, ", ".join(record["generators"]) or "0", stmt.ring)

    def _do_quotient(self, stmt: P.DefineQuotient):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line, QuotientRing)
        if not ring.is_trivial:
            raise PreconditionError("quotients are taken over polynomial rings")
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        if handle.context != ring.context:
            raise PreconditionError(
                f"ideal {stmt.ideal!r} does not live in ring {stmt.ring!r}")
        quotient = QuotientRing.of(handle, self.order, self.budget)
        self._bind(self.rings, "ring", stmt.name, quotient, stmt.line)
        self.current = stmt.name
        record = {"command": "quotient", "name": stmt.name, "ring": stmt.ring,
                  "ideal": stmt.ideal,
                  "groebner_basis": [str(g) for g in quotient.basis.polys]}
        return record, lambda: f"quotient {stmt.name} = {quotient}"

    def _do_der(self, stmt: P.DefineDerivation):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line, QuotientRing)
        names = ring.context.names
        images = {}
        for var, expr in stmt.assignments:
            if var not in names:
                raise UnknownIdentifierError(
                    f"{var!r} is not a variable of {stmt.ring}", stmt.line, 1)
            if var in images:
                raise ParseError(
                    f"{var!r} is given two images in der {stmt.name}", stmt.line, 1)
            images[var] = self.eval_poly(expr, ring)
        from .derivation import Derivation
        derivation = Derivation(ring, [images.get(n, ring.context.zero) for n in names])
        self._bind(self.derivations, "derivation", stmt.name, derivation, stmt.line)
        record = {"command": "der", "name": stmt.name, "ring": stmt.ring,
                  "images": {n: str(g) for n, g in zip(names, derivation.images)}}
        return record, lambda: f"der {stmt.name} on {stmt.ring} : " + ", ".join(
            f"{n} -> {g}" for n, g in record["images"].items())

    def _do_skew(self, stmt: P.DefineSkew):
        base = self._lookup(self.rings, "ring", stmt.base, stmt.line, QuotientRing)
        names = [var for var, _ in stmt.steps]
        ders = [self._lookup(self.derivations, "derivation", d, stmt.line)
                for _, d in stmt.steps]
        from .skew import SkewRingDescriptor
        ring = SkewRingDescriptor(base, names, ders)
        self._bind(self.rings, "skew ring", stmt.name, ring, stmt.line)
        self.current = stmt.name
        record = {"command": "skew", "name": stmt.name, "base": stmt.base,
                  "variables": names,
                  "derivations": [d for _, d in stmt.steps]}
        return record, lambda: f"skew {stmt.name} = {ring}"

    def _do_weyl(self, stmt: P.DefineWeyl):
        from .skew import weyl_algebra
        ring = weyl_algebra(stmt.n)
        self._bind(self.rings, "skew ring", stmt.name, ring, stmt.line)
        self.current = stmt.name
        record = {"command": "weyl", "name": stmt.name, "n": stmt.n,
                  "base_variables": list(ring.base.context.names),
                  "skew_variables": list(ring.names)}
        return record, lambda: f"weyl {stmt.n}: {stmt.name} = {ring}"

    def _evaluate(self, stmt):
        """stmt.expr in stmt.ring (default: the ring in scope), reduced, and
        its JSON rendering."""
        ring = self._any_ring(stmt.ring, stmt.line)
        if isinstance(ring, QuotientRing):
            value = self.eval_poly(stmt.expr, ring)
            return value, poly_json(value)
        value = self.eval_in(stmt.expr, ring)
        return value, skew_json(value)

    def _do_let(self, stmt: P.LetElement):
        value, rendered = self._evaluate(stmt)
        # a variable of the value's ring hides any element of its name
        variables = (value.context.names if isinstance(value, Poly)
                     else value.ring.names + value.ring.base.context.names)
        if stmt.name in variables:
            raise ParseError(f"element {stmt.name!r} is a variable of its ring",
                             stmt.line, 1)
        self._bind(self.elements, "element", stmt.name, value, stmt.line)
        record = {"command": "let", "name": stmt.name, "value": rendered}
        return record, lambda: f"let {stmt.name} = {rendered['str']}"

    def _do_mul(self, stmt: P.MulCommand):
        _, rendered = self._evaluate(stmt)
        record = {"command": "mul", "result": rendered}
        return record, lambda: f"mul: {rendered['str']}"

    def _do_apply(self, stmt: P.ApplyCommand):
        derivation = self._lookup(self.derivations, "derivation",
                                  stmt.derivation, stmt.line)
        value = self.eval_poly(stmt.expr, derivation.ring)
        image = derivation.apply(value)
        record = {"command": "apply", "derivation": stmt.derivation,
                  "element": str(value), "result": poly_json(image)}
        return record, lambda: f"apply {stmt.derivation}: {record['result']['str']}"

    def _do_gb(self, stmt: P.GbCommand):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        basis = groebner_basis(handle, self.order, self.budget)
        record = {"command": "gb", "ideal": stmt.ideal, "order": str(self.order),
                  "basis": [str(g) for g in basis.polys]}
        return record, lambda: f"gb {stmt.ideal}: {{{', '.join(record['basis'])}}}"

    def _do_member(self, stmt: P.MemberCommand):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        ring = QuotientRing.trivial(handle.context)
        f = self.eval_poly(stmt.expr, ring)
        basis = groebner_basis(handle, self.order, self.budget)
        remainder, cof = normal_form_with_cofactors(f, basis)
        member = remainder.is_zero()
        record = {"command": "member", "ideal": stmt.ideal, "element": str(f),
                  "member": member}
        if stmt.cofactors:
            record["cofactors"] = [
                {"basis_element": str(g), "cofactor": str(q)}
                for g, q in zip(basis.polys, cof)]
            record["remainder"] = str(remainder)
        return record, lambda: (f"member {record['element']} in {stmt.ideal}: "
                                f"{str(member).lower()}")

    def _do_dim(self, stmt: P.DimCommand):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        dim = QuotientRing.of(handle, budget=self.budget).dimension()
        record = {"command": "dim", "ideal": stmt.ideal, "dimension": dim}
        return record, lambda: f"dim {stmt.ideal}: {dim}"

    def _do_certificate(self, stmt: P.CertificateCommand):
        ring = self._any_ring(stmt.ring, stmt.line)
        if not isinstance(ring, QuotientRing):
            raise PreconditionError("certificates live in commutative rings")
        from .simplicity import certificate
        f = self.eval_poly(stmt.expr, ring)
        cert = certificate(ring, f)
        names = ring.context.names
        record = {"command": "certificate", "element": str(f),
                  "word": [names[i] for i in cert.word],
                  "word_indices": list(cert.word),
                  "constant": str(cert.final_constant)}
        word = " ".join(record["word"]) or "(empty)"
        return record, lambda: (f"certificate: word [{word}] "
                                f"constant {record['constant']}")

    def _do_darboux(self, stmt: P.DarbouxCommand):
        ring = self._any_ring(stmt.ring, stmt.line)
        if not isinstance(ring, QuotientRing) or not ring.is_trivial:
            raise PreconditionError("Darboux search runs over a polynomial ring")
        from .simplicity import DarbouxStatus, darboux_search
        F = self.eval_poly(stmt.expr, ring)
        result = darboux_search(F, stmt.bound, self.budget)
        record = {"command": "darboux", "F": str(F), "bound": stmt.bound,
                  "status": result.status.value}
        if result.status is DarbouxStatus.FOUND:
            record["h"] = str(result.h)
            record["cofactor"] = str(result.cofactor)
            return record, lambda: (f"darboux: found h = {record['h']}, "
                                    f"cofactor = {record['cofactor']}")
        return record, lambda: f"darboux: none up to degree {stmt.bound}"

    def _do_check_commute(self, stmt: P.CheckCommute):
        d1 = self._lookup(self.derivations, "derivation", stmt.first, stmt.line)
        d2 = self._lookup(self.derivations, "derivation", stmt.second, stmt.line)
        from .derivation import commuting_set_check
        report = commuting_set_check([d1, d2])
        record = {"command": "check_commute", "first": stmt.first,
                  "second": stmt.second, "commute": report.commute}
        if not report.commute:
            gen = d1.ring.context.names[report.generator]
            record["witness"] = {"generator": gen, "image": str(report.witness)}
            return record, lambda: (f"check commute: false (commutator sends {gen} "
                                    f"to {record['witness']['image']})")
        return record, lambda: "check commute: true"

    def _do_check_dideal(self, stmt: P.CheckDideal):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        ders = [self._lookup(self.derivations, "derivation", d, stmt.line)
                for d in stmt.derivations]
        from .derivation import d_ideal_check
        ok = d_ideal_check(handle, ders, budget=self.budget)
        record = {"command": "check_dideal", "ideal": stmt.ideal,
                  "derivations": list(stmt.derivations), "d_ideal": ok}
        return record, lambda: f"check dideal: {str(ok).lower()}"

    def _do_check_dsimple(self, stmt: P.CheckDsimple):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line, QuotientRing)
        ders = [self._lookup(self.derivations, "derivation", d, stmt.line)
                for d in stmt.derivations]
        for d in ders:
            if d.ring != ring:
                raise PreconditionError(
                    f"derivation does not live on ring {stmt.ring!r}")
        from .simplicity import (_verdict_text, d_simplicity, dim1_simplicity,
                                 verdict_json)
        if stmt.dim1:
            if len(ders) != 1:
                raise PreconditionError(
                    "the dimension-1 criterion takes a single derivation")
            verdict = dim1_simplicity(ring, ders[0], budget=self.budget)
        else:
            verdict = d_simplicity(ring, ders, budget=self.budget)
        record = {"command": "check_dsimple", "ring": stmt.ring,
                  "derivations": list(stmt.derivations)}
        record.update(verdict_json(verdict))
        return record, lambda: f"check dsimple: {_verdict_text(record)}"

    def _do_check_simple(self, stmt: P.CheckSimple):
        from .simplicity import _verdict_text, verdict_json
        from .skew import SkewRingDescriptor, skew_simplicity
        ring = self._lookup(self.rings, "skew ring", stmt.ring, stmt.line,
                            SkewRingDescriptor)
        verdict = skew_simplicity(ring, budget=self.budget)
        record = {"command": "check_simple", "ring": stmt.ring}
        record.update(verdict_json(verdict))
        return record, lambda: f"check simple: {_verdict_text(record)}"

    def _do_inner(self, stmt: P.InnerCommand):
        ring = self._any_ring(stmt.ring, stmt.line)
        if isinstance(ring, QuotientRing):
            raise PreconditionError("inner analysis runs in a skew ring")
        from .skew import inner_induced
        f = self.eval_in(stmt.expr, ring)
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

    def _do_extend(self, stmt: P.ExtendCommand):
        derivation = self._lookup(self.derivations, "derivation",
                                  stmt.derivation, stmt.line)
        from .skew import SkewRingDerivation, SkewRingDescriptor
        ring = self._lookup(self.rings, "skew ring", stmt.ring, stmt.line,
                            SkewRingDescriptor)
        SkewRingDerivation(ring, derivation)
        record = {"command": "extend", "derivation": stmt.derivation,
                  "ring": stmt.ring, "extends": True}
        return record, lambda: (f"extend {stmt.derivation} into {stmt.ring}: ok "
                                f"(skew variables map to 0)")

    _DISPATCH = {
        P.DefineRing: _do_ring,
        P.DefineIdeal: _do_ideal,
        P.DefineQuotient: _do_quotient,
        P.DefineDerivation: _do_der,
        P.DefineSkew: _do_skew,
        P.DefineWeyl: _do_weyl,
        P.LetElement: _do_let,
        P.MulCommand: _do_mul,
        P.ApplyCommand: _do_apply,
        P.GbCommand: _do_gb,
        P.MemberCommand: _do_member,
        P.DimCommand: _do_dim,
        P.CertificateCommand: _do_certificate,
        P.DarbouxCommand: _do_darboux,
        P.CheckCommute: _do_check_commute,
        P.CheckDideal: _do_check_dideal,
        P.CheckDsimple: _do_check_dsimple,
        P.CheckSimple: _do_check_simple,
        P.InnerCommand: _do_inner,
        P.ExtendCommand: _do_extend,
    }
