"""One benchmark worker: a fresh interpreter that runs one workload's jobs.

    python3 bench/worker.py --workload W --seed N --seconds S --mode MODE [--tiny]

MODE is ``setup`` (set up, print the ready line, exit), ``run`` (set up, then
a closed loop over the rounds that S seconds buy, see
``workloads.round_count``) or ``trace`` (a fixed number of rounds untraced,
then the same rounds with layer spans).

The worker imports derivalg from the checkout's ``src`` directory and writes
one JSON object per line to stdout: ``ready``, a ``calibration`` sample (see
``speed.py``), then one ``job`` line per job with its latency, its latency
scaled to the reference speed and its serialised result, then ``done``.
Inputs are converted to derivalg objects outside each job's timed region.
A traced run writes its spans to ``.bench_trace/<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from speed import Speed, calibration_ms  # noqa: E402

# rounds in each pass of a traced run; fixed, so traced counts repeat exactly
TRACE_ROUNDS = {"groebner-batch": 1, "weyl-products": 6, "session-replay": 6}


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")


class Runner:
    """Turns plain job specs into derivalg calls and serialises results."""

    def __init__(self, workload, seed, tiny, workdir):
        import derivalg
        if not Path(derivalg.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"derivalg imported from {derivalg.__file__}, "
                               f"not from {ROOT / 'src'}")
        self.d = derivalg
        if workload == "session-replay":
            import derivalg.cli
            self.cli = derivalg.cli
            self.files = {W.ACCEPTANCE_SESSION: str(ROOT / W.ACCEPTANCE_SESSION)}
            for name, text in W.generated_sessions(seed, tiny):
                path = Path(workdir) / f"{name}.dsl"
                path.write_text(text, encoding="utf-8")
                self.files[name] = str(path)
        self._weyl = {}

    def field(self, modulus):
        return self.d.QQ if modulus is None else self.d.GF(modulus)

    def weyl(self, n, modulus):
        key = (n, modulus)
        if key not in self._weyl:
            self._weyl[key] = self.d.weyl_algebra(n, self.field(modulus))
        return self._weyl[key]

    def skew_element(self, ring, terms):
        ctx = ring.base.context
        return self.d.SkewPoly(ring, {x: self.d.Poly(ctx, coeffs)
                                      for x, coeffs in terms.items()})

    def prepare(self, job):
        """(callable, serialiser) for one job; the callable is the timed call."""
        kind = job["kind"]
        if kind == "gb":
            ctx = self.d.VarContext(tuple(f"u{i}" for i in range(job["nvars"])),
                                    self.field(job["modulus"]))
            gens = [self.d.Poly(ctx, g) for g in job["gens"]]
            order = self.d.TermOrder.GREVLEX
            return (lambda: self.d.buchberger(gens, order),
                    lambda basis: [poly_terms(g) for g in basis.polys])
        if kind == "session":
            argv = ["--json", "run", self.files[job["name"]]]
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            return call, lambda code: {"code": code, "out": out.getvalue(),
                                       "err": err.getvalue()}
        ring = self.weyl(job["n"], job["modulus"])
        u = self.skew_element(ring, job["u"])
        if kind == "mul":
            v = self.skew_element(ring, job["v"])
            return (lambda: u * v), skew_terms
        if kind == "pow":
            k = job["k"]
            return (lambda: u ** k), skew_terms
        if kind == "inner":
            return (lambda: self.d.inner_induced(ring, u)), inner_result
        raise ValueError(f"unknown job kind {kind!r}")


def poly_terms(p):
    return [[list(m), str(c)] for m, c in p.terms()]


def skew_terms(u):
    return [[list(e), poly_terms(r)] for e, r in u.sorted_terms()]


def inner_result(analysis):
    if analysis.induced:
        return {"induced": True,
                "images": [poly_terms(g) for g in analysis.derivation.images]}
    return {"induced": False, "offending": analysis.offending_generator,
            "residual": skew_terms(analysis.residual)}


def run_job(runner, job, tracer=None, job_id=None):
    """Run one job; returns (latency_ns, serialised result, error text)."""
    call, serialise = runner.prepare(job)
    if tracer is not None:
        tracer.start_job(job_id)
    start = time.perf_counter_ns()
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        return time.perf_counter_ns() - start, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start
    return latency, serialise(value), None


def run_rounds(runner, args, first, rounds, tracer=None, label="run"):
    """Run `rounds` whole rounds; `first` is round 0, generated during set-up.
    Returns the summed job latency and scaled job latency, in ns."""
    speed = Speed(emit)
    for index in range(rounds):
        jobs = first if index == 0 else W.make_round(args.workload, args.seed,
                                                     index, args.tiny)
        for position, job in enumerate(jobs):
            latency, result, error = run_job(runner, job, tracer, f"{index}.{position}")
            speed.add({"event": "job", "pass": label, "round": index, "index": position,
                       "ns": latency, "result": result, "error": error})
    speed.flush()
    return speed.raw_ns, speed.scaled_ns


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)

    workbase = ROOT / ".bench_work"
    workbase.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workbase)
    try:
        runner = Runner(args.workload, args.seed, args.tiny, workdir)
        first = W.make_round(args.workload, args.seed, 0, args.tiny)
        _, _, error = run_job(runner, W.make_warmup(args.workload, args.seed))
        if error:
            raise RuntimeError(f"warm-up job failed: {error}")
        emit({"event": "ready"})
        sys.stdout.flush()
        emit({"event": "calibration", "ms": calibration_ms()})
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            rounds = W.round_count(args.workload, args.seconds, args.tiny)
            run_rounds(runner, args, first, rounds)
            emit({"event": "done", "rounds": rounds,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
            return 0
        from tracing import Tracer
        rounds = 1 if args.tiny else TRACE_ROUNDS[args.workload]
        _, plain_ns = run_rounds(runner, args, first, rounds, label="plain")
        tracer = Tracer()
        tracer.install()
        try:
            traced_raw_ns, traced_ns = run_rounds(runner, args, first, rounds, tracer,
                                                  label="traced")
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(ms_scale=traced_ns / traced_raw_ns)
        metrics["trace_overhead_frac"] = {"value": traced_ns / plain_ns - 1,
                                          "unit": "ratio"}
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        emit({"event": "done", "rounds": rounds, "metrics": metrics,
              "self_ms": tracer.self_time_ms(), "missing_hooks": tracer.missing,
              "spans": len(tracer.spans), "dropped_spans": tracer.dropped_spans})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workbase)


if __name__ == "__main__":
    sys.exit(main())
