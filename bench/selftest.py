"""Self-test of the benchmark: small inputs must pass every oracle, a damaged
result must be caught, and a checkout without sources must be refused.

    python3 bench/selftest.py

Exits 0 when every check holds, 1 otherwise, and prints one line per check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "7", "--seconds", "1",
                           *extra], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in W.WORKLOADS:
        code, result = bench("--workload", workload, "--trace", "0", "--tiny")
        expect(code == 0 and result["correct"] and result["failed"] == 0
               and set(result["metrics"]) == end_to_end,
               f"{workload}: tiny run passes its oracles and reports {sorted(end_to_end)}")
        code, result = bench("--workload", workload, "--trace", "0", "--tiny", "--corrupt")
        expect(code == 0 and not result["correct"] and result["failed"] > 0,
               f"{workload}: a corrupted result raises failed_frac above 0")
        code, result = bench("--workload", workload, "--trace", "1", "--tiny")
        expect(code == 0 and result["correct"] and set(result["metrics"]) == per_layer,
               f"{workload}: traced tiny run reports every per-layer metric")

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result = bench("--workload", W.WORKLOADS[0], "--trace", "0", cwd=bare,
                             script=bare / "bench" / "run.py")
        expect(code != 0 and result is None,
               "a directory with only the benchmark files is refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
