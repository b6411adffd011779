"""The verdict census: each row of tests/data/census.txt is a ring with a
set of derivations whose simplicity is known, run as one-shot `check`.

A decided verdict must be the known one, and a row that needs a witness
must print one.  Unknown is allowed only on an "open" row, one that no rule
decides yet; it names the item that is to decide it.  The count of decided
rows is pinned: a change that decides more rows raises DECIDED and marks
them "decided".  Run as a script, this prints `census: k of n decided`.
"""

import contextlib
import io
import json
import pathlib
import shlex
from typing import NamedTuple

import pytest

from derivalg import cli

CENSUS = pathlib.Path(__file__).parent / "data" / "census.txt"
DECIDED = 8


class Row(NamedTuple):
    item: str
    known: str
    witness: bool
    open: bool
    why: str
    args: list


def _rows():
    rows = []
    for line in CENSUS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            item, known, witness, today, why, args = (
                field.strip() for field in line.split("|"))
            rows.append(Row(item, known, witness == "witness", today == "open",
                            why, shlex.split(args)))
    return rows


ROWS = _rows()


def _verdict(row: Row) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", "check", *row.args]) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def census_line() -> str:
    decided = sum(_verdict(row)["status"] != "Unknown" for row in ROWS)
    return f"census: {decided} of {len(ROWS)} decided"


@pytest.mark.parametrize("row", ROWS, ids=[
    f"row{i + 1}-item{row.item.replace(' ', '')}" for i, row in enumerate(ROWS)])
def test_census_row(row):
    record = _verdict(row)
    if record["status"] == "Unknown":
        assert row.open, f"a decided row prints Unknown: {record['reason']}"
        pytest.xfail(f"no rule decides this row yet (item {row.item})")
    assert record["status"] == row.known, row.why
    if row.witness:
        assert record["witness"], "a NotSimple row that needs a witness has none"


def test_census_decided_count():
    line = census_line()
    print(line)
    assert line == f"census: {DECIDED} of {len(ROWS)} decided"
    assert DECIDED == sum(not row.open for row in ROWS)


if __name__ == "__main__":
    print(census_line())
