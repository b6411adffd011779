"""Golden printed output of Weyl-algebra products, powers and inner
derivations over QQ and GF(32003).

The expected strings in ``data/golden_skew.txt`` were printed by the
implementation that kept every coefficient as a boxed field element; any
change to the coefficient representation must print them unchanged.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from derivalg import GF, QQ, inner_induced, weyl_algebra

GOLDEN = Path(__file__).parent / "data" / "golden_skew.txt"


def _elements(n, field):
    A = weyl_algebra(n, field)
    v = A.variable
    if n == 2:
        f = v("x1") + v("x2") + v("y1") + v("y2") + 1
        g = (v("y1") * v("x1") * Fraction(1, 2) - 3 * v("y2") ** 2 * v("x2")
             + v("x1") * v("x2"))
        h = v("y1") * v("y2") - v("x2") ** 2 + Fraction(2, 3)
        inner = v("y1") ** 2 * v("x1") - Fraction(3, 4) * v("y2") * v("x2") + v("y1")
    else:
        f = v("x1") * v("y2") + v("x3") - Fraction(5, 7) * v("y3") * v("y1") + 2
        g = v("y1") ** 2 * v("x1") ** 2 + v("x2") * v("y3") - v("y2")
        h = v("x1") * v("x2") * v("x3") + v("y1") * v("y2") * v("y3")
        inner = g
    return A, f, g, h, inner


def _inner_text(analysis):
    if analysis.induced:
        return f"induced {analysis.derivation}"
    return f"residual at {analysis.offending_generator}: {analysis.residual}"


def golden_lines(field, n):
    """(label, printed value) for every computation pinned in A_n."""
    A, f, g, h, inner = _elements(n, field)
    label = f"{field} A{n}"
    return [(f"{label} f^5", str(f ** 5)),
            (f"{label} g*h", str(g * h)),
            (f"{label} h*g", str(h * g)),
            (f"{label} g^3", str(g ** 3)),
            (f"{label} inner", _inner_text(inner_induced(A, inner)))]


def _load():
    out = {}
    for row in GOLDEN.read_text(encoding="utf-8").splitlines():
        label, _, value = row.partition("\t")
        out[label] = value
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_golden_skew_output(field, n):
    expected = _load()
    for label, value in golden_lines(field, n):
        assert value == expected[label], label
