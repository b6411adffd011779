"""Golden transcripts of pool-shaped sessions.

``data/pool_<shape>.dsl`` holds one session of each shape the benchmark's
``session-replay`` pool generates (ellipse, circle, two parallel lines,
crossing lines over QQ[x, y]), each with every statement kind of a pool
session: ring, ideal, quotient, der on R and on R/I, apply, check dideal,
dim, check dsimple --dim1, gb, member with cofactors, skew, check simple,
certificate and darboux.  ``pool_<shape>_transcript.txt`` and ``.jsonl``
are the text and ``--json`` output of ``derivalg run`` on it; a change to
parsing, evaluation or printing must leave them byte-identical.
"""

import pathlib
import subprocess
import sys

import pytest

DATA = pathlib.Path(__file__).parent / "data"
SHAPES = ["ellipse", "circle", "two_lines", "crossing_lines"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("flags, suffix", [((), "txt"), (("--json",), "jsonl")],
                         ids=["text", "json"])
def test_pool_transcript_matches_golden(shape, flags, suffix):
    out = subprocess.run(
        [sys.executable, "-m", "derivalg", *flags, "run",
         str(DATA / f"pool_{shape}.dsl")],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (DATA / f"pool_{shape}_transcript.{suffix}").read_text()
