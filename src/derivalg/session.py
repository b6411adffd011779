"""Session state and statement execution for the CLI.

A session holds named bindings (rings, ideals, quotient rings, derivations,
skew rings, elements) and executes parsed statements against them.  Every
result is rendered both as human text and as a JSON-ready dict; rendering is
fully deterministic, so replaying a session file yields byte-identical
output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import parser as P
from .errors import (
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
    krull_dimension,
    normal_form_with_cofactors,
)
from .poly import Poly, VarContext

# The derivation, simplicity and skew layers are imported by the handlers
# that use them, so a session of Groebner commands never loads them.
if TYPE_CHECKING:
    from .simplicity import SimplicityVerdict
    from .skew import SkewPoly


def poly_json(p: Poly) -> dict:
    return {
        "str": str(p),
        "terms": [{"exponents": list(m), "coefficient": str(c)}
                  for m, c in p.terms()],
    }


def skew_json(u: SkewPoly) -> dict:
    return {
        "str": str(u),
        "terms": [{"exponents": list(e), "coefficient": poly_json(r)}
                  for e, r in u.sorted_terms()],
    }


def verdict_json(v: SimplicityVerdict) -> dict:
    return {
        "status": v.status.value,
        "criterion": v.criterion,
        "reason": v.reason,
        "witness": None if v.witness is None
        else [str(g) for g in v.witness.generators],
    }


class Session:
    """Named bindings plus the execution of parsed statements.

    Each session keeps one memo of Groebner bases and D-simplicity verdicts
    (see `groebner._MEMO`), active while `execute` runs a statement, so it
    computes each of them once; the memo lives as long as the session.
    """

    def __init__(self, order: TermOrder = TermOrder.GREVLEX,
                 budget: int = DEFAULT_BUDGET):
        self.order = order
        self.budget = budget
        self.rings = {}        # name -> QuotientRing (trivial = plain ring)
        self.ideals = {}       # name -> IdealHandle
        self.derivations = {}  # name -> Derivation
        self.skew_rings = {}   # name -> SkewRingDescriptor
        self.elements = {}     # name -> Poly | SkewPoly
        self.current = None    # name of the ring in scope for bare commands
        self._memo = {}        # see `execute`

    # -- binding helpers ---------------------------------------------------

    def _bind(self, table: dict, kind: str, name: str, value, line: int):
        if name in table:
            raise ParseError(f"{kind} {name!r} is already defined", line, 1)
        table[name] = value

    def _lookup(self, table: dict, kind: str, name: str, line: int):
        if name in table:
            return table[name]
        raise UnknownIdentifierError(f"unknown {kind} {name!r}", line, 1)

    def _any_ring(self, name: str | None, line: int):
        if name is None:
            name = self.current
            if name is None:
                raise UnknownIdentifierError("no ring in scope; define one first",
                                             line, 1)
        if name in self.skew_rings:
            return self.skew_rings[name]
        return self._lookup(self.rings, "ring", name, line)

    # -- expression evaluation ----------------------------------------------

    def eval_in(self, node, ring):
        """Evaluate an expression AST in a polynomial/quotient or skew ring."""
        if isinstance(node, P.Num):
            if isinstance(ring, QuotientRing):
                return ring.context.const(
                    ring.context.field.from_ratio(node.numerator, node.denominator))
            context = ring.base.context
            value = context.field.from_ratio(node.numerator, node.denominator)
            return ring.from_base(context.const(value))
        if isinstance(node, P.Name):
            return self._resolve_name(node, ring)
        if isinstance(node, P.Unary):
            return -self.eval_in(node.operand, ring)
        if isinstance(node, P.Binary):
            if node.op == "^":
                base = self.eval_in(node.left, ring)
                return base ** node.right.numerator
            left = self.eval_in(node.left, ring)
            right = self.eval_in(node.right, ring)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
        raise AssertionError(f"unhandled expression node {node!r}")

    def _resolve_name(self, node: P.Name, ring):
        name = node.text
        if isinstance(ring, QuotientRing):
            if name in ring.context.names:
                return ring.reduce(ring.context.var_by_name(name))
            bound = self.elements.get(name)
            if isinstance(bound, Poly) and bound.context == ring.context:
                return ring.reduce(bound)
        else:
            if name in ring.names or name in ring.base.context.names:
                return ring.variable(name)
            # a bound element is a Poly or a SkewPoly
            bound = self.elements.get(name)
            if (bound is not None and not isinstance(bound, Poly)
                    and bound.ring == ring):
                return bound
        raise UnknownIdentifierError(f"unknown identifier {name!r}",
                                     node.line, node.col)

    def eval_poly(self, node, ring: QuotientRing) -> Poly:
        return ring.reduce(self.eval_in(node, ring))

    # -- statement dispatch --------------------------------------------------

    def execute(self, stmt):
        """Run one statement, with the session's memo active; returns
        (json_record, human_text)."""
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
        return record, f"ring {stmt.name} = {context}"

    def _do_ideal(self, stmt: P.DefineIdeal):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line)
        if not ring.is_trivial:
            raise PreconditionError("ideals are defined in polynomial rings")
        gens = [self.eval_poly(e, ring) for e in stmt.generators]
        handle = IdealHandle(ring.context, gens)
        self._bind(self.ideals, "ideal", stmt.name, handle, stmt.line)
        record = {"command": "ideal", "name": stmt.name, "ring": stmt.ring,
                  "generators": [str(g) for g in handle.generators]}
        return record, f"ideal {stmt.name} = {handle} in {stmt.ring}"

    def _do_quotient(self, stmt: P.DefineQuotient):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line)
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
        return record, f"quotient {stmt.name} = {quotient}"

    def _do_der(self, stmt: P.DefineDerivation):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line)
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
                  "images": {n: str(g) for n, g in
                             zip(ring.context.names, derivation.images)}}
        return record, f"der {stmt.name} on {stmt.ring} : {derivation}"

    def _do_skew(self, stmt: P.DefineSkew):
        base = self._lookup(self.rings, "ring", stmt.base, stmt.line)
        names = [var for var, _ in stmt.steps]
        ders = [self._lookup(self.derivations, "derivation", d, stmt.line)
                for _, d in stmt.steps]
        from .skew import build_skew_ring
        ring = build_skew_ring(base, names, ders)
        self._bind(self.skew_rings, "skew ring", stmt.name, ring, stmt.line)
        self.current = stmt.name
        record = {"command": "skew", "name": stmt.name, "base": stmt.base,
                  "variables": names,
                  "derivations": [d for _, d in stmt.steps]}
        return record, f"skew {stmt.name} = {ring}"

    def _do_weyl(self, stmt: P.DefineWeyl):
        from .skew import weyl_algebra
        ring = weyl_algebra(stmt.n)
        self._bind(self.skew_rings, "skew ring", stmt.name, ring, stmt.line)
        self.current = stmt.name
        record = {"command": "weyl", "name": stmt.name, "n": stmt.n,
                  "base_variables": list(ring.base.context.names),
                  "skew_variables": list(ring.names)}
        return record, f"weyl {stmt.n}: {stmt.name} = {ring}"

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
        self._bind(self.elements, "element", stmt.name, value, stmt.line)
        record = {"command": "let", "name": stmt.name, "value": rendered}
        return record, f"let {stmt.name} = {rendered['str']}"

    def _do_mul(self, stmt: P.MulCommand):
        _, rendered = self._evaluate(stmt)
        record = {"command": "mul", "result": rendered}
        return record, f"mul: {rendered['str']}"

    def _do_apply(self, stmt: P.ApplyCommand):
        derivation = self._lookup(self.derivations, "derivation",
                                  stmt.derivation, stmt.line)
        value = self.eval_poly(stmt.expr, derivation.ring)
        image = derivation.apply(value)
        record = {"command": "apply", "derivation": stmt.derivation,
                  "element": str(value), "result": poly_json(image)}
        return record, f"apply {stmt.derivation}: {image}"

    def _do_gb(self, stmt: P.GbCommand):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        basis = groebner_basis(handle, self.order, self.budget)
        record = {"command": "gb", "ideal": stmt.ideal, "order": str(self.order),
                  "basis": [str(g) for g in basis.polys]}
        return record, f"gb {stmt.ideal}: {basis}"

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
        return record, f"member {f} in {stmt.ideal}: {str(member).lower()}"

    def _do_dim(self, stmt: P.DimCommand):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        dim = krull_dimension(handle, self.order, self.budget)
        record = {"command": "dim", "ideal": stmt.ideal, "dimension": dim}
        return record, f"dim {stmt.ideal}: {dim}"

    def _do_certificate(self, stmt: P.CertificateCommand):
        ring = self._any_ring(stmt.ring, stmt.line)
        if not isinstance(ring, QuotientRing):
            raise PreconditionError("certificates live in commutative rings")
        from .simplicity import partials_certificate, truncated_certificate
        f = self.eval_poly(stmt.expr, ring)
        p = ring.context.field.characteristic
        if p == 0:
            if not ring.is_trivial:
                raise PreconditionError(
                    "characteristic-0 certificates need the full polynomial ring")
            cert = partials_certificate(f)
        else:
            if not _is_truncated_ring(ring):
                raise PreconditionError(
                    "characteristic-p certificates need the quotient by "
                    "the p-th powers of the variables")
            cert = truncated_certificate(f)
        names = ring.context.names
        record = {"command": "certificate", "element": str(f),
                  "word": [names[i] for i in cert.word],
                  "word_indices": list(cert.word),
                  "constant": str(cert.final_constant)}
        word = " ".join(record["word"]) or "(empty)"
        return record, f"certificate: word [{word}] constant {cert.final_constant}"

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
            human = f"darboux: found h = {result.h}, cofactor = {result.cofactor}"
        else:
            human = f"darboux: none up to degree {stmt.bound}"
        return record, human

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
            human = (f"check commute: false "
                     f"(commutator sends {gen} to {report.witness})")
        else:
            human = "check commute: true"
        return record, human

    def _do_check_dideal(self, stmt: P.CheckDideal):
        handle = self._lookup(self.ideals, "ideal", stmt.ideal, stmt.line)
        ders = [self._lookup(self.derivations, "derivation", d, stmt.line)
                for d in stmt.derivations]
        from .derivation import d_ideal_check
        ok = d_ideal_check(handle, ders, self.order, self.budget)
        record = {"command": "check_dideal", "ideal": stmt.ideal,
                  "derivations": list(stmt.derivations), "d_ideal": ok}
        return record, f"check dideal: {str(ok).lower()}"

    def _do_check_dsimple(self, stmt: P.CheckDsimple):
        ring = self._lookup(self.rings, "ring", stmt.ring, stmt.line)
        ders = [self._lookup(self.derivations, "derivation", d, stmt.line)
                for d in stmt.derivations]
        for d in ders:
            if d.ring != ring:
                raise PreconditionError(
                    f"derivation does not live on ring {stmt.ring!r}")
        from .simplicity import d_simplicity, dim1_simplicity
        if stmt.dim1:
            if len(ders) != 1:
                raise PreconditionError(
                    "the dimension-1 criterion takes a single derivation")
            verdict = dim1_simplicity(ring, ders[0], self.order, self.budget)
        else:
            verdict = d_simplicity(ring, ders, self.order, self.budget)
        record = {"command": "check_dsimple", "ring": stmt.ring,
                  "derivations": list(stmt.derivations)}
        record.update(verdict_json(verdict))
        return record, f"check dsimple: {verdict}"

    def _do_check_simple(self, stmt: P.CheckSimple):
        ring = self._lookup(self.skew_rings, "skew ring", stmt.ring, stmt.line)
        from .skew import skew_simplicity
        verdict = skew_simplicity(ring, self.order, self.budget)
        record = {"command": "check_simple", "ring": stmt.ring}
        record.update(verdict_json(verdict))
        return record, f"check simple: {verdict}"

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
            human = f"inner: induces {analysis.derivation}"
        else:
            record["offending_generator"] = analysis.offending_generator
            record["residual"] = str(analysis.residual)
            human = (f"inner: not degree 0 at {analysis.offending_generator}, "
                     f"residual {analysis.residual}")
        return record, human

    def _do_extend(self, stmt: P.ExtendCommand):
        derivation = self._lookup(self.derivations, "derivation",
                                  stmt.derivation, stmt.line)
        ring = self._lookup(self.skew_rings, "skew ring", stmt.ring, stmt.line)
        from .skew import extend_derivation
        extend_derivation(derivation, ring)
        record = {"command": "extend", "derivation": stmt.derivation,
                  "ring": stmt.ring, "extends": True}
        return record, (f"extend {stmt.derivation} into {stmt.ring}: ok "
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


def _is_truncated_ring(ring: QuotientRing) -> bool:
    """True when the defining ideal is exactly (x_1^p, ..., x_n^p)."""
    p = ring.context.field.characteristic
    if ring.is_trivial:
        return False
    expected = sorted((ring.context.var(i) ** p
                       for i in range(ring.context.nvars)), key=str)
    actual = sorted(ring.basis.polys, key=str)
    return expected == actual
