"""The raw-coefficient polynomial kernel against boxed field arithmetic.

``Poly`` keeps raw coefficients (int or Fraction over QQ, int mod p over
F_p); the references below rebuild every result from the
``FieldElement`` values that ``terms()`` hands out, using only the
field's own operators.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivalg
from derivalg import GF, QQ, FieldElement, Poly, TermOrder, VarContext
from derivalg.poly import exact_div

FIELDS = [QQ, GF(32003)]


def _reference(ctx, pairs):
    """A Poly from (monomial, FieldElement) pairs, summed with field `+`."""
    acc = {}
    for m, c in pairs:
        acc[m] = acc[m] + c if m in acc else c
    return Poly(ctx, {m: c for m, c in acc.items() if not c.is_zero()})


def _assert_canonical(f):
    p = f.context.field.p
    for c in f._terms.values():
        if p is None:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        else:
            assert type(c) is int and 0 < c < p


@st.composite
def _polys(draw, count):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    ctx = VarContext(tuple("xyz"[:nvars]), field)
    monomials = st.sampled_from(
        [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3])
    coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    polys = [Poly(ctx, draw(st.dictionaries(monomials, coefficients, max_size=4)))
             for _ in range(count)]
    return ctx, polys, draw(coefficients)


@settings(max_examples=150, deadline=None)
@given(_polys(4), st.data())
def test_substitute_commutes_with_evaluation(problem, data):
    ctx, (f, *images), _ = problem
    chosen = data.draw(st.sets(st.integers(0, ctx.nvars - 1)))
    values = {i: images[i] for i in chosen}
    point = data.draw(st.lists(st.integers(-5, 5), min_size=ctx.nvars,
                               max_size=ctx.nvars))
    image_point = [values[i].evaluate(point) if i in values else point[i]
                   for i in range(ctx.nvars)]
    g = f.substitute(values)
    _assert_canonical(g)
    assert g.evaluate(point) == f.evaluate(image_point)


@settings(max_examples=150, deadline=None)
@given(_polys(2))
def test_ring_operations_match_boxed_reference(problem):
    ctx, (f, g), _ = problem
    ft, gt = list(f.terms()), list(g.terms())
    cases = [
        (f + g, ft + gt),
        (f - g, ft + [(m, -c) for m, c in gt]),
        (-f, [(m, -c) for m, c in ft]),
        (f * g, [(tuple(a + b for a, b in zip(mf, mg)), cf * cg)
                 for mf, cf in ft for mg, cg in gt]),
    ]
    for got, pairs in cases:
        _assert_canonical(got)
        assert got == _reference(ctx, pairs)


@settings(max_examples=150, deadline=None)
@given(_polys(1))
def test_scale_monic_partial_match_boxed_reference(problem):
    ctx, (f,), c = problem
    field = ctx.field
    ft = list(f.terms())
    boxed = field.element(c)
    got = f.scale(c)
    _assert_canonical(got)
    assert got == _reference(ctx, [(m, v * boxed) for m, v in ft])
    for i in range(ctx.nvars):
        got = f.partial(i)
        _assert_canonical(got)
        assert got == _reference(ctx, [
            (m[:i] + (m[i] - 1,) + m[i + 1:], v * field.element(m[i]))
            for m, v in ft if m[i]])
    if f.is_zero():
        return
    for order in TermOrder:
        got = f.monic(order)
        _assert_canonical(got)
        inverse = f.leading_term(order)[1].inverse()
        assert got == _reference(ctx, [(m, v * inverse) for m, v in ft])


@settings(max_examples=100, deadline=None)
@given(_polys(2))
def test_exact_div_recovers_the_cofactor(problem):
    ctx, (f, g), _ = problem
    if g.is_zero():
        return
    q = exact_div(f * g, g)
    _assert_canonical(q)
    assert q == f


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_integral_fraction_is_the_same_coefficient(field):
    ctx = VarContext(("x", "y"), field)
    m = (1, 2)
    a, b = Poly(ctx, {m: Fraction(2, 1)}), Poly(ctx, {m: 2})
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == str(b)
    thirds = Poly(ctx, {m: Fraction(1, 3), (0, 0): Fraction(-4, 3)})
    assert thirds.scale(3) == Poly(ctx, {m: 1, (0, 0): -4})
    assert str(thirds.scale(3)) == str(Poly(ctx, {m: 1, (0, 0): -4}))


def test_boundary_values_are_fractions_over_qq():
    ctx = VarContext(("x", "y"), QQ)
    x, y = ctx.var(0), ctx.var(1)
    f = 3 * x ** 2 * y + Fraction(1, 2) * y - 5
    boxed = [f.coeff((2, 1)), f.coeff((0, 1)), f.coeff((1, 1)), f.constant_value(),
             f.leading_term(TermOrder.LEX)[1], f.leading_term(TermOrder.GREVLEX)[1],
             f.evaluate([1, 2])]
    boxed += [c for _, c in f.terms()]
    for c in boxed:
        assert isinstance(c, FieldElement) and c.spec == QQ
        assert type(c.value) is Fraction
        if not c.is_zero():
            assert type(c.inverse().value) is Fraction
    assert f.coeff((2, 1)).inverse() == Fraction(1, 3)


def _fresh_python(code):
    """stdout of `code` run by a new interpreter that imports derivalg from
    this checkout."""
    src = str(Path(derivalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _loaded_after(code):
    """The derivalg submodules loaded once `code` has run in a new process."""
    out = _fresh_python(
        code + "\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('derivalg.'))))")
    return set(out.split())


def test_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at import time
    for module in ("derivalg", "derivalg.cli"):
        code = (f"import sys, {module}; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert _fresh_python(code) == "[]", module


def test_groebner_names_load_only_the_core():
    code = ("import derivalg\n"
            "derivalg.Poly, derivalg.QQ, derivalg.GF, derivalg.VarContext, "
            "derivalg.TermOrder, derivalg.buchberger")
    assert _loaded_after(code) == {"derivalg.errors", "derivalg.field",
                                   "derivalg.poly", "derivalg.groebner"}


def test_weyl_names_leave_out_simplicity():
    code = ("import derivalg\n"
            "derivalg.weyl_algebra, derivalg.SkewPoly, derivalg.inner_induced")
    loaded = _loaded_after(code)
    assert "derivalg.skew" in loaded
    assert "derivalg.simplicity" not in loaded


def test_cli_import_leaves_out_the_derivation_layers():
    loaded = _loaded_after("import derivalg.cli")
    assert not loaded & {"derivalg.derivation", "derivalg.simplicity",
                         "derivalg.skew"}


# submodule -> the names the package exports from it
EXPORTS = {
    "errors": "BudgetExceededError ContextMismatchError DerivalgError "
              "FieldMismatchError InexactDivisionError InvalidArgumentError "
              "NonCommutingDerivationsError NotInvariantError "
              "ParseError PreconditionError UnitIdealError "
              "UnknownIdentifierError VanishingDenominatorError "
              "ZeroPolynomialError",
    "field": "GF QQ FieldElement FieldSpec",
    "poly": "Poly TermOrder VarContext",
    "groebner": "DEFAULT_BUDGET GroebnerBasis IdealHandle QuotientRing "
                "buchberger groebner_basis ideal_member is_unit_ideal "
                "krull_dimension normal_form normal_form_with_cofactors",
    "derivation": "CommuteReport Derivation commutator commuting_set_check "
                  "d_ideal_check",
    "simplicity": "DarbouxResult DarbouxStatus SimplicityCertificate "
                  "SimplicityStatus SimplicityVerdict certificate d_simplicity "
                  "darboux_search dim1_simplicity necessary_unit_condition "
                  "prime_char_obstruction principal_stability_check "
                  "replay_certificate",
    "skew": "InnerAnalysis SkewPoly SkewRingDerivation "
            "SkewRingDescriptor binomial_push "
            "inner_induced inner_residuals skew_commutator skew_mul "
            "skew_simplicity weyl_algebra",
}


def test_export_surface():
    # every exported name is listed, is its submodule's object and is bound
    # by a star import (the README quick tour uses one), and stays cached in
    # the package; a new process, so the lazy names resolve here first
    code = f"""
import importlib, derivalg
star = {{}}
exec("from derivalg import *", star)
listed, shown = set(derivalg.__all__), set(dir(derivalg))
bad, count = [], 0
for module, names in {EXPORTS!r}.items():
    home = importlib.import_module("derivalg." + module)
    for name in names.split():
        count += 1
        value = getattr(derivalg, name)
        if (name not in listed or name not in shown
                or value is not getattr(home, name) or star.get(name) is not value
                or name not in vars(derivalg)):
            bad.append(name)
print(count, len(listed), bad)
"""
    count = sum(len(names.split()) for names in EXPORTS.values())
    assert _fresh_python(code) == f"{count} {count} []"


def test_readme_quick_tour_runs():
    # the python block of README.md, run as it stands in a new interpreter
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert _fresh_python(block + "\nprint('done')") == "done"


def test_unknown_name_raises_attribute_error():
    code = """
import derivalg
try:
    derivalg.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh_python(code) == "module 'derivalg' has no attribute 'no_such_name'"
    assert not hasattr(derivalg, "no_such_name")
