"""The derivalg benchmark: one closed-loop client, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):

* ``groebner-batch``: reduced grevlex bases of katsura-3/4, cyclic-4 over QQ
  and GF(32003) and katsura-5 over GF(32003), generator lists rotated and
  scaled by the seed.
* ``weyl-products``: products, powers and ``inner_induced`` of seeded
  random elements of A_1, A_2, A_3 over QQ, plus a GF(32003) block.
* ``session-replay``: ``derivalg.cli.main(["--json", "run", file])`` on the
  acceptance session and on seeded generated sessions.

With ``--trace 0`` this script times the set-up of fresh worker interpreters
(``setup_s``, the median of several), then runs one worker in a closed loop
over a fixed number of whole job rounds (about ``--seconds`` of work, see
``workloads.round_count``) and reports ``jobs_per_s`` (completed jobs over
the summed job latency, so the client's own bookkeeping is left out),
``job_ms_p50``, ``job_ms_tail``, ``setup_s`` and ``peak_rss_mb``.  With
Every time in these metrics is scaled to the reference speed of the host
the benchmark was defined on (``speed.py``): the host's speed swings up to
twofold while other tenants load it, and the worker tracks that with a short
calibration workload.  With ``--trace 1`` a worker runs a fixed set of rounds
untraced, then again with
layer spans (``tracing.py``), and this script reports the per-layer metrics
and ``trace_overhead_frac``.  Every output is checked against the oracles
in ``oracles.py`` after the worker has finished; a job that raises, exits
non-zero or disagrees with its oracle counts as failed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same numbers as a table.

``--tiny`` uses small inputs and ``--corrupt`` damages one result before it
is checked; ``selftest.py`` uses both.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from speed import REFERENCE_MS  # noqa: E402

SETUP_RUNS = 9          # fresh interpreters timed to first-job-ready, incl. the main one
WORKER_TIMEOUT_S = 150


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_command(args, mode):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def run_worker(args, mode):
    """(seconds from spawn to the ready line, scaled to the reference speed
    by the worker's calibration sample; the worker's job and done records)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(worker_command(args, mode), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{mode} worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not ready.strip():
        fail(f"{mode} worker exited with code {proc.returncode}")
    if json.loads(ready) != {"event": "ready"}:
        fail(f"unexpected first worker line {ready!r}")
    calibration, *records = [json.loads(line) for line in rest.splitlines()]
    return setup_s * REFERENCE_MS / calibration["ms"], records


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def corrupt(pairs):
    """Damage the last basis, Weyl product or repeated transcript the way a
    bug would: one wrong coefficient, or one changed verdict line."""
    def bump(term):
        term[1] = str(int(term[1].split("/")[0]) + 1)

    for job, record in reversed(pairs):
        result = record["result"]
        if not result or job["kind"] == "inner":
            continue
        if job["kind"] == "session":
            result["out"] = result["out"].replace("true", "false", 1)
        elif job["kind"] == "gb":
            bump(result[0][0])         # first term of the first basis element
        else:
            bump(result[0][1][0])      # first y-term of the first x-term
        return


class Checker:
    def __init__(self, args):
        self.args = args
        self.groebner = oracles.GroebnerOracle()
        self.weyl = oracles.WeylOracle()
        self.session = (oracles.SessionOracle(ROOT, args.seed, args.tiny)
                        if args.workload == "session-replay" else None)
        self.failures = []

    def check(self, job, record):
        """True when the job succeeded and its output is right."""
        if record["error"] is not None:
            reason = record["error"]
        elif job["kind"] == "gb":
            reason = self.groebner.check(job, record["result"])
        elif job["kind"] == "session":
            reason = self.session.check(job, record["result"])
        else:
            rng = random.Random(f"oracle:{self.args.seed}:{record['round']}:"
                                f"{record['index']}")
            reason = self.weyl.check(job, record["result"], rng)
        if reason:
            self.failures.append(f"round {record['round']} job {record['index']}: "
                                 f"{reason}")
        return not reason


def check_jobs(args, records, label):
    """(failed, checker, (job, record) pairs) for the job records of one pass."""
    checker = Checker(args)
    rounds = {}
    pairs = []
    for record in records:
        if record.get("pass") != label:
            continue
        index = record["round"]
        if index not in rounds:
            rounds[index] = W.make_round(args.workload, args.seed, index, args.tiny)
        pairs.append((rounds[index][record["index"]], record))
    if args.corrupt:
        corrupt(pairs)
    failed = sum(not checker.check(job, record) for job, record in pairs)
    return failed, checker, pairs


def report(lines, result):
    for line in lines:
        print(line)
    print(json.dumps(result))


def run_plain(args):
    setups = [run_worker(args, "setup")[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, records = run_worker(args, "run")
    setups.append(setup_s)
    done = records[-1]
    failed, checker, pairs = check_jobs(args, records, "run")
    jobs = [record for _, record in pairs]
    attempted = len(jobs)
    latencies = [r["scaled_ns"] / 1e6 for r in jobs]
    tail_ms, tail_pct = tail(latencies)
    raw_p50 = statistics.median(r["ns"] / 1e6 for r in jobs)
    job_time_s = sum(latencies) / 1e3
    metrics = {
        "jobs_per_s": (attempted - failed) / job_time_s,
        "job_ms_p50": statistics.median(latencies),
        "job_ms_tail": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": done["peak_rss_mb"],
    }
    units = {"jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    notes = {"job_ms_p50": f"{raw_p50:.4f} ms wall clock",
             "job_ms_tail": f"p{tail_pct:.1f} of {attempted} jobs",
             "setup_s": f"median of {len(setups)} fresh interpreters",
             "jobs_per_s": f"{done['rounds']} rounds, {job_time_s:.2f} s of job time"}
    lines = [f"# {args.workload} seed {args.seed}: closed loop, one client; "
             f"times scaled to the reference speed (speed.py)"]
    for name, value in metrics.items():
        lines.append(f"{name:<14} {value:>12.4f} {units[name]:<4} {notes.get(name, '')}")
    lines.append(f"{'failed_frac':<14} {failed / attempted:>12.4f} ratio "
                 f"{failed} of {attempted} jobs")
    lines += [f"FAILED {reason}" for reason in checker.failures[:10]]
    if args.workload == "groebner-batch":
        lines += groebner_reference(pairs, checker)
    report(lines, {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}})


def groebner_reference(pairs, checker):
    """Our median time per ideal beside sympy's time on the same input."""
    ours = {}
    for job, record in pairs:
        ours.setdefault(job["label"], []).append(record["ns"] / 1e6)
    lines = ["# reference (not gated): median wall-clock ms per basis, ours vs "
             "sympy groebner on the first input of each ideal"]
    for label, ms in checker.groebner.sympy_ms().items():
        lines.append(f"{label:<14} ours {statistics.median(ours[label]):>10.1f} ms"
                     f"   sympy {ms:>10.1f} ms")
    return lines


def run_traced(args):
    _, records = run_worker(args, "trace")
    done = records[-1]
    failed, checker, pairs = check_jobs(args, records, "plain")
    attempted = len(pairs)
    plain = [record for _, record in pairs]
    traced = [r for r in records if r.get("pass") == "traced"]
    mismatched = sum(a["result"] != b["result"] or b["error"] is not None
                     for a, b in zip(plain, traced)) + abs(len(plain) - len(traced))
    failed = min(attempted, failed + mismatched)
    metrics = done["metrics"]
    lines = [f"# {args.workload} seed {args.seed}: traced run, {done['rounds']} "
             f"rounds, {done['spans']} spans kept, {done['dropped_spans']} dropped"]
    for name, m in metrics.items():
        lines.append(f"{name:<30} {m['value']:>14.4f} {m['unit']}")
    total = sum(done["self_ms"].values())
    lines.append("# self time share by layer")
    for layer, ms in sorted(done["self_ms"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<30} {100 * ms / total if total else 0:>6.1f} %")
    lines += [f"missing hook {hook}" for hook in done["missing_hooks"]]
    lines += [f"FAILED {reason}" for reason in checker.failures[:10]]
    if mismatched:
        lines.append(f"FAILED {mismatched} traced results differ from untraced ones")
    report(lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage the last result before checking it (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "derivalg" / "__init__.py").is_file():
        fail(f"no derivalg sources under {ROOT / 'src'}; run from a checkout")
    if args.workload == "session-replay" and not (ROOT / W.ACCEPTANCE_SESSION).is_file():
        fail(f"missing {W.ACCEPTANCE_SESSION}")
    if args.trace:
        run_traced(args)
    else:
        run_plain(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
