"""Layer spans for the traced benchmark run, installed from outside derivalg.

``Tracer.install`` wraps the public entry points of each derivalg module
(plus the ``_divide`` and ``_reduce_basis`` steps the roadmap names as
layers) and rebinds every module attribute that referred to the original,
so calls made through ``from .groebner import normal_form`` are traced too.

Each wrapped call is a span: name, start, end, parent span and job id.  A
layer's self time is its span's duration minus the time of the child spans
it covers.  A call into the layer it is already in (``Poly.__sub__`` calling
``Poly.__add__``, ``FieldElement.__truediv__`` calling ``inverse``) is part
of the outer span, not a new one.  Field and polynomial arithmetic runs
millions of times, so those layers keep only their counts and times; the
coarser layers also keep the span records, up to ``MAX_SPANS``, which
``write_spans`` writes out at the end.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

MAX_SPANS = 100_000

# layer -> (module, attribute path, ...) hooks; "Class.method" patches a class
HOOKS = {
    "field.op": ("derivalg.field", "FieldElement.__add__", "FieldElement.__radd__",
                 "FieldElement.__sub__", "FieldElement.__rsub__",
                 "FieldElement.__mul__", "FieldElement.__rmul__",
                 "FieldElement.__truediv__", "FieldElement.__rtruediv__",
                 "FieldElement.__neg__", "FieldElement.inverse"),
    "poly.add": ("derivalg.poly", "Poly.__add__", "Poly.__radd__", "Poly.__sub__",
                 "Poly.__rsub__", "Poly.__neg__"),
    "poly.mul": ("derivalg.poly", "Poly.__mul__", "Poly.__rmul__"),
    "poly.leading_term": ("derivalg.poly", "Poly.leading_term"),
    "groebner.buchberger": ("derivalg.groebner", "buchberger"),
    "groebner.divide": ("derivalg.groebner", "_divide"),
    "groebner.reduce_basis": ("derivalg.groebner", "_reduce_basis"),
    "groebner.normal_form": ("derivalg.groebner", "normal_form",
                             "normal_form_with_cofactors", "QuotientRing.reduce"),
    "groebner.is_unit_ideal": ("derivalg.groebner", "is_unit_ideal"),
    "derivation.apply": ("derivalg.derivation", "Derivation.apply",
                         "Derivation.__call__"),
    "derivation.construct": ("derivalg.derivation", "Derivation.__init__"),
    "simplicity.verdict": ("derivalg.simplicity", "dim1_simplicity",
                           "prime_char_obstruction", "derivalg.skew:skew_simplicity"),
    "simplicity.darboux": ("derivalg.simplicity", "darboux_search"),
    "skew.skew_mul": ("derivalg.skew", "skew_mul"),
    "skew.binomial_push": ("derivalg.skew", "binomial_push"),
    "parser.parse_session": ("derivalg.parser", "parse_session"),
    "session.execute": ("derivalg.session", "Session.execute"),
    "cli.main": ("derivalg.cli", "main"),
}

# layers too fine-grained to keep one record per call
AGGREGATE_ONLY = {"field.op", "poly.add", "poly.mul", "poly.leading_term"}

MODULES = ("derivalg.field", "derivalg.poly", "derivalg.groebner",
           "derivalg.derivation", "derivalg.simplicity", "derivalg.skew",
           "derivalg.parser", "derivalg.session", "derivalg.cli", "derivalg")


class Tracer:
    def __init__(self):
        self.stack = []          # frames: [layer, child_ns, nearest recorded span id]
        self.layers = {}         # layer -> [calls, self_ns]
        self.spans = []          # (id, layer, start, end, parent_id, job)
        self.dropped_spans = 0
        self.job = None
        self.missing = []        # hooks not found in this version of derivalg
        self.missing_layers = set()
        self.term_products = 0
        self.sreductions = 0     # _divide calls made directly by buchberger
        self.zero_reductions = 0
        self.basis_len_total = 0
        self.gb_keys = set()     # (generators, order) seen in the current job
        self.gb_repeats = 0
        self._next_id = 0
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, (home, *targets) in HOOKS.items():
            self.layers.setdefault(layer, [0, 0])
            for target in targets:
                module_name, _, path = target.rpartition(":")
                module = importlib.import_module(module_name or home)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module.__name__}:{path}")
                    self.missing_layers.add(layer)
                    continue
                wrapper = self._wrap(layer, original)
                if owner_name:
                    self._rebind(owner, attr, original, wrapper)
                else:
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is original:
                                self._rebind(m, name, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def start_job(self, job_id):
        self.job = job_id
        self.gb_keys = set()

    # -- the span wrapper -------------------------------------------------------

    def _wrap(self, layer, fn):
        stack = self.stack
        totals = self.layers[layer]
        spans = self.spans
        record = layer not in AGGREGATE_ONLY
        after = {
            "poly.mul": self._after_mul,
            "groebner.buchberger": self._after_buchberger,
            "groebner.divide": self._after_divide,
        }.get(layer)
        before = self._before_buchberger if layer == "groebner.buchberger" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args, kwargs)
            parent_record = stack[-1][2] if stack else 0
            if record:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent_record
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, layer, start, end,
                                      parent_record, tracer.job))
                    else:
                        tracer.dropped_spans += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_mul(self, args, result):
        a, b = args[0], args[1]
        if hasattr(b, "_terms"):
            self.term_products += len(a._terms) * len(b._terms)
        else:
            self.term_products += len(a._terms)

    def _before_buchberger(self, args, kwargs):
        """Count a repeat of (generators, order) within the current job; the
        generators are materialised so an iterator argument survives."""
        if args:
            args = (tuple(args[0]),) + args[1:]
            generators = args[0]
        else:
            generators = kwargs["generators"] = tuple(kwargs["generators"])
        order = args[1] if len(args) > 1 else kwargs.get("order")
        key = (generators, str(order))
        if key in self.gb_keys:
            self.gb_repeats += 1
        self.gb_keys.add(key)
        return args

    def _after_buchberger(self, args, result):
        self.basis_len_total += len(result)

    def _after_divide(self, args, result):
        if self.stack and self.stack[-1][0] == "groebner.buchberger":
            self.sreductions += 1
            if result[0].is_zero():
                self.zero_reductions += 1

    # -- results ------------------------------------------------------------------

    def metrics(self, ms_scale=1.0):
        """Per-layer metrics, self times multiplied by `ms_scale`; a layer
        whose hook is missing is left out."""
        calls = {layer: totals[0] for layer, totals in self.layers.items()}
        ms = {layer: totals[1] / 1e6 * ms_scale for layer, totals in self.layers.items()}

        def ratio(num, den):
            return num / den if den else 0.0

        gb_calls = calls["groebner.buchberger"]
        rows = [
            ("field.ops", "field.op", calls["field.op"], "count"),
            ("field.ms", "field.op", ms["field.op"], "ms"),
            ("poly.mul.calls", "poly.mul", calls["poly.mul"], "count"),
            ("poly.mul.term_products", "poly.mul", self.term_products, "count"),
            ("poly.mul.ms", "poly.mul", ms["poly.mul"], "ms"),
            ("poly.add.calls", "poly.add", calls["poly.add"], "count"),
            ("poly.add.ms", "poly.add", ms["poly.add"], "ms"),
            ("poly.leading_term.calls", "poly.leading_term",
             calls["poly.leading_term"], "count"),
            ("poly.leading_term.ms", "poly.leading_term",
             ms["poly.leading_term"], "ms"),
            ("groebner.buchberger.calls", "groebner.buchberger", gb_calls, "count"),
            ("groebner.buchberger.ms", "groebner.buchberger",
             ms["groebner.buchberger"], "ms"),
            ("groebner.basis_len", "groebner.buchberger",
             ratio(self.basis_len_total, gb_calls), "count"),
            ("groebner.divide.calls", "groebner.divide",
             calls["groebner.divide"], "count"),
            ("groebner.divide.ms", "groebner.divide", ms["groebner.divide"], "ms"),
            ("groebner.divide.zero_frac", "groebner.divide",
             ratio(self.zero_reductions, self.sreductions), "ratio"),
            ("groebner.reduce_basis.ms", "groebner.reduce_basis",
             ms["groebner.reduce_basis"], "ms"),
            ("groebner.normal_form.calls", "groebner.normal_form",
             calls["groebner.normal_form"], "count"),
            ("groebner.normal_form.ms", "groebner.normal_form",
             ms["groebner.normal_form"], "ms"),
            ("groebner.repeat_frac", "groebner.buchberger",
             ratio(self.gb_repeats, gb_calls), "ratio"),
            ("derivation.apply.calls", "derivation.apply",
             calls["derivation.apply"], "count"),
            ("derivation.apply.ms", "derivation.apply", ms["derivation.apply"], "ms"),
            ("derivation.construct.ms", "derivation.construct",
             ms["derivation.construct"], "ms"),
            ("simplicity.verdict.calls", "simplicity.verdict",
             calls["simplicity.verdict"], "count"),
            ("simplicity.verdict.ms", "simplicity.verdict",
             ms["simplicity.verdict"], "ms"),
            ("simplicity.darboux.ms", "simplicity.darboux",
             ms["simplicity.darboux"], "ms"),
            ("simplicity.unit_ideal_tests", "groebner.is_unit_ideal",
             calls["groebner.is_unit_ideal"], "count"),
            ("skew.skew_mul.calls", "skew.skew_mul", calls["skew.skew_mul"], "count"),
            ("skew.skew_mul.ms", "skew.skew_mul", ms["skew.skew_mul"], "ms"),
            ("skew.binomial_push.calls", "skew.binomial_push",
             calls["skew.binomial_push"], "count"),
            ("skew.binomial_push.ms", "skew.binomial_push",
             ms["skew.binomial_push"], "ms"),
            ("parser.parse_session.ms", "parser.parse_session",
             ms["parser.parse_session"], "ms"),
            ("session.execute.ms", "session.execute", ms["session.execute"], "ms"),
            ("cli.main.ms", "cli.main", ms["cli.main"], "ms"),
        ]
        return {name: {"value": value, "unit": unit}
                for name, layer, value, unit in rows
                if layer not in self.missing_layers}

    def self_time_ms(self):
        return {layer: totals[1] / 1e6 for layer, totals in self.layers.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, layer, start, end, parent, job in self.spans:
                handle.write(json.dumps({"id": span_id, "name": layer,
                                         "start_ns": start, "end_ns": end,
                                         "parent": parent, "job": job}) + "\n")
