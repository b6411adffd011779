"""Machine-speed calibration for a shared host.

On the host this benchmark was defined on (a 2-core VM), the same Python
code runs up to twice as slow for stretches of seconds to minutes while
another tenant loads the cores, and steal time does not show it.  That
swamps any difference between two commits.  A worker therefore times a
short fixed calibration workload, pure-Python Fraction, tuple and dict work
that never touches derivalg, between jobs whenever CALIBRATE_EVERY_NS of job
time has passed since the last sample, and scales each job's latency by
REFERENCE_MS / calibration time, the time being the mean of the samples
just before and just after the job.  Latencies are reported as milliseconds at
the reference speed (the calibration's time on the idle host); the raw
wall-clock figures are printed beside them.  Measured side by side over a
minute in which the raw time of a Weyl-algebra power swung between 19 and
39 ms, the scaled time stayed within about 5% of its median.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

REFERENCE_MS = 2.5
CALIBRATE_EVERY_NS = 250_000_000


def _work():
    terms = [((i, j), Fraction(i + 1, j + 2)) for i in range(6) for j in range(6)]
    out = {}
    for (a, b), c in terms:
        for (d, e), f in terms[:20]:
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


def calibration_ms(samples: int = 3) -> float:
    """Fastest of a few runs of the calibration workload, in ms."""
    best = None
    for _ in range(samples):
        start = perf_counter_ns()
        _work()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


class Speed:
    """Brackets runs of jobs between calibration samples.

    Job records are held until the next sample, taken once CALIBRATE_EVERY_NS
    of job time has passed, and each held job is scaled by the mean of the
    samples before and after it; ``flush`` takes a final sample."""

    def __init__(self, emit):
        self.emit = emit
        self.held = []
        self.since_ns = 0
        self.last_ms = calibration_ms()
        self.raw_ns = 0
        self.scaled_ns = 0

    def add(self, record):
        self.held.append(record)
        self.since_ns += record["ns"]
        if self.since_ns >= CALIBRATE_EVERY_NS:
            self.flush()

    def flush(self):
        now_ms = calibration_ms()
        factor = REFERENCE_MS / ((self.last_ms + now_ms) / 2)
        for record in self.held:
            record["scaled_ns"] = record["ns"] * factor
            self.raw_ns += record["ns"]
            self.scaled_ns += record["scaled_ns"]
            self.emit(record)
        self.held.clear()
        self.since_ns = 0
        self.last_ms = now_ms
