"""Golden Darboux-search answers: status, h and cofactor as a session prints
them.

``data/golden_darboux.txt`` holds one field per line, tab-separated:
F, the degree bound, the status, h and the cofactor (``-`` when nothing was
found).  The fields are the 48 bound-2 fields of the seed-1
``session-replay`` pool of the benchmark, then five classic fields at bound
3, then four fields whose cofactor degree deg F - 1 exceeds the bound (each
pair checked by hand: d(y) = x^k*y, and d(y^2 + 1) = 8*x^2*y*(y^2 + 1) for
F = 4*x^2*y^2 + 4*x^2).  The first 53 answers were printed by the
implementation that kept the unknowns beside x and y in one polynomial
ring; the pivot order, the elimination rule, the free-unknown default and
the root order must keep them unchanged.
"""

from pathlib import Path

import pytest

from derivalg.parser import parse_session
from derivalg.session import Session

GOLDEN = Path(__file__).parent / "data" / "golden_darboux.txt"
ROWS = [row.split("\t") for row in GOLDEN.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("F,bound,status,h,cofactor", ROWS,
                         ids=[f"{i}:{row[0]}" for i, row in enumerate(ROWS)])
def test_golden_darboux_answer(F, bound, status, h, cofactor):
    session = Session()
    record = None
    for stmt in parse_session(f"ring R = QQ[x, y]\ndarboux {F} bound {bound}\n"):
        record = session.execute(stmt)[0]
    assert record["status"] == status
    assert record.get("h", "-") == h
    assert record.get("cofactor", "-") == cofactor
