"""Closed request loop, interleaved calibration and the metrics of one run.

One client sends a workload's fixed request list, pass after pass, each
request only after the previous one returned, until the run's seconds are
spent (whole passes only, at least :data:`MIN_REQUESTS` requests).

Calibration: the box this runs on switches between a fast and a slow mode,
often within a second, which moves raw times by up to 1.7x.  A fixed chunk
of ``numpy.tensordot`` calls, of the kind of work the workload does
(:data:`CHUNKS`), runs before the first request and after every request and
every setup, outside their times.  Each request is also reported in units
of the mean of the chunks on either side of it, and each setup in units of
the chunk after it.  Raw and calibrated figures are printed side by side;
the chunk's own median is printed as a diagnostic.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from tracing import COUNTERS, ENTRIES, REQUEST, Tracer

#: A run sets up at least SETUP_REPEATS times and for at least SETUP_SECONDS.
#: Setups of a few milliseconds need many repeats to give a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
#: A run has at least this many requests, so the tail percentile exists.
MIN_REQUESTS = 20
#: Requests beyond the tail percentile.
TAIL_BEYOND = 10

_rng = np.random.default_rng(0)
_SMALL_A = _rng.standard_normal((4, 4, 4)) + 1j * _rng.standard_normal((4, 4, 4))
_SMALL_B = _rng.standard_normal((4, 4, 4)) + 1j * _rng.standard_normal((4, 4, 4))
_GATE = (_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))).reshape(2, 2, 2, 2)
_STATES = (_rng.standard_normal((16, 2**12)) + 0j).reshape([16] + [2] * 12)


def dispatch_chunk() -> float:
    """500 tensordots of 64-entry tensors: Python and NumPy dispatch, like plan replay."""
    start = time.perf_counter()
    for _ in range(500):
        np.tensordot(_SMALL_A, _SMALL_B, axes=([1, 2], [0, 1]))
    return time.perf_counter() - start


def state_chunk() -> float:
    """48 two-qubit gates on 16 states of 12 qubits: memory-bound, like dense trajectories.

    Each gate is one ``numpy.tensordot`` with a freshly allocated result, as
    in the trajectory engine; an allocation-free variant of this chunk did
    not track that engine (calibrated medians spread 11% over ten runs).
    """
    start = time.perf_counter()
    for step in range(48):
        axis = 1 + step % 11
        np.tensordot(_GATE, _STATES, axes=([2, 3], [axis, axis + 1]))
    return time.perf_counter() - start


#: Calibration chunks by the kind of work they stand in for, each with its
#: nominal time: about its time on a 2-core box in the slow mode.  The
#: dispatch chunk does not track dense trajectories: their calibrated median
#: moved 32-42 across five runs, the raw one 225-323 ms.
#:
#: setup_s is the median setup in chunks times the nominal chunk time, i.e.
#: seconds on a box where the chunk takes its nominal time.  Raw setup seconds
#: move with the box's mode and are printed beside it.
CHUNKS = {"dispatch": (dispatch_chunk, 0.01), "state": (state_chunk, 0.02)}


def tail(values: List[float]) -> tuple:
    """Highest percentile with at least TAIL_BEYOND values above it: (percentile, value)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return 100.0, ordered[-1]
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class Sample:
    label: str
    seconds: float
    chunk_before: float
    chunk_after: float
    passed: bool
    error: float
    traced: bool

    @property
    def calibrated(self) -> float:
        """The request's time in chunks (mean of the chunks on either side)."""
        return 2.0 * self.seconds / (self.chunk_before + self.chunk_after)


@dataclass
class Run:
    """Everything one invocation measured."""

    setup_seconds: List[float]
    setup_nominal_seconds: List[float]
    requests_per_pass: int
    samples: List[Sample] = field(default_factory=list)
    passes: int = 0
    traced_passes: int = 0
    tracer: Tracer | None = None
    plan_cache: tuple = (0, 0)
    reference_seconds: float = 0.0

    def select(self, traced: bool) -> List[Sample]:
        return [sample for sample in self.samples if sample.traced == traced]


def run_workload(workload, seconds: float, trace: bool) -> Run:
    """Set up, compute references, then drive whole passes for ``seconds``.

    With ``trace`` the passes alternate untraced and traced, starting
    untraced, so both see the same machine modes; the per-layer figures come
    from the traced passes and the difference of the two is the overhead.
    """
    calibration_chunk, nominal_chunk_seconds = CHUNKS[workload.calibration]
    setup_seconds, setup_nominal = [], []
    while len(setup_seconds) < SETUP_REPEATS or sum(setup_seconds) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - start)
        setup_nominal.append(setup_seconds[-1] / calibration_chunk() * nominal_chunk_seconds)
    start = time.perf_counter()
    workload.references()
    run = Run(setup_seconds, setup_nominal, 0, tracer=Tracer() if trace else None)
    run.reference_seconds = time.perf_counter() - start
    chunk = calibration_chunk()
    deadline = time.perf_counter() + seconds
    index = 0
    while (
        run.passes < (2 if trace else 1)
        or len(run.samples) < MIN_REQUESTS
        or time.perf_counter() < deadline
    ):
        traced = trace and run.passes % 2 == 1
        workload.begin_pass()
        requests = workload.pass_requests(index)
        run.requests_per_pass = len(requests)
        cache_before = workload.plan_cache_counts()
        tracer = run.tracer if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            for request in requests:
                sample = _serve(request, tracer, index, chunk, calibration_chunk)
                run.samples.append(sample)
                chunk = sample.chunk_after
                index += 1
        if traced:
            cache_after = workload.plan_cache_counts()
            run.plan_cache = tuple(
                total + after - before
                for total, after, before in zip(run.plan_cache, cache_after, cache_before)
            )
            run.traced_passes += 1
        run.passes += 1
    return run


def _serve(request, tracer: Tracer | None, index: int, chunk_before: float,
           calibration_chunk) -> Sample:
    """Time one request, then run the calibration chunk, then check the value.

    A request that raises, or whose check raises or misses, has failed.
    """
    span = tracer.request(index) if tracer is not None else contextlib.nullcontext()
    passed, error = False, math.nan
    start = time.perf_counter()
    try:
        with span:
            result = request.call()
    except Exception:
        seconds = time.perf_counter() - start
        chunk_seconds = calibration_chunk()
        print(f"request {request.label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    else:
        seconds = time.perf_counter() - start
        chunk_seconds = calibration_chunk()
        try:
            passed, error = request.check(result)
        except Exception:
            print(f"check of {request.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return Sample(
        request.label, seconds, chunk_before, chunk_seconds, bool(passed), float(error),
        tracer is not None,
    )


def cost_cal(samples: List[Sample], requests_per_pass: int) -> float:
    """One pass of the fixed request list in chunks: the mean calibrated request, times its length."""
    return requests_per_pass * statistics.fmean(sample.calibrated for sample in samples)


def end_to_end(run: Run) -> Dict[str, tuple]:
    """Every end-to-end metric: name -> (value, unit, sample count, note)."""
    samples = run.select(False)
    n = len(samples)
    latencies = [sample.seconds * 1e3 for sample in samples]
    percentile, tail_value = tail(latencies)
    errors = [sample.error for sample in samples if not math.isnan(sample.error)]
    failed = sum(not sample.passed for sample in samples)
    raw_p50 = statistics.median(latencies)
    raw_pass = run.requests_per_pass * sum(s.seconds for s in samples) / n
    return {
        "latency_cal.p50": (
            statistics.median(s.calibrated for s in samples), "cal", n,
            f"raw {raw_p50:.4g} ms",
        ),
        "cost_cal.total": (
            cost_cal(samples, run.requests_per_pass), "cal", n,
            f"raw {raw_pass:.4g} s for one pass of {run.requests_per_pass} requests",
        ),
        "latency_ms.p50": (raw_p50, "ms", n, ""),
        "latency_ms.tail": (tail_value, "ms", n, f"p{percentile:.1f}"),
        "throughput_rps": (n / sum(s.seconds for s in samples), "1/s", n, ""),
        "setup_s": (
            statistics.median(run.setup_nominal_seconds),
            "s", len(run.setup_seconds),
            f"raw median {statistics.median(run.setup_seconds):.4g} s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, ""
        ),
        "failed_ratio": (failed / n, "ratio", n, f"{failed} failed"),
        "abs_error.max": (max(errors, default=math.nan), "fidelity", n, "max |value - reference|"),
        "calibration.chunk_ms.p50": (
            statistics.median(s.chunk_after * 1e3 for s in samples), "ms", n, "diagnostic"
        ),
    }


def per_layer(run: Run) -> Dict[str, tuple]:
    """Every per-layer metric of the traced passes, per pass: name -> (value, unit)."""
    tracer = run.tracer
    passes = run.traced_passes
    calls, self_seconds = tracer.totals()
    request_seconds = sum(s.seconds for s in run.select(True))
    metrics: Dict[str, tuple] = {}
    layer_of = {entry.name: entry.layer for entry in ENTRIES}
    layer_self = dict.fromkeys(layer_of.values(), 0.0)
    for name, layer in layer_of.items():
        metrics[f"{name}.calls"] = (calls.get(name, 0) / passes, "count/pass")
        metrics[f"{name}.self_s"] = (self_seconds.get(name, 0.0) / passes, "s/pass")
        metrics[f"{name}.errors"] = (tracer.errors.get(name, 0) / passes, "count/pass")
        layer_self[layer] += self_seconds.get(name, 0.0)
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.share"] = (seconds / request_seconds, "ratio")
    metrics["unattributed.share"] = (self_seconds.get(REQUEST, 0.0) / request_seconds, "ratio")
    for counter in COUNTERS:
        unit = "B/pass" if counter.endswith(".bytes") else "count/pass"
        metrics[counter] = (tracer.counters.get(counter, 0) / passes, unit)
    steps = tracer.counters.get("tensornetwork.plan.specialize.steps", 0)
    residual = tracer.counters.get("tensornetwork.plan.specialize.residual_steps", 0)
    metrics["tensornetwork.plan.specialize.residual_ratio"] = (
        residual / steps if steps else 0.0, "ratio"
    )
    hits, lookups = run.plan_cache
    metrics["api.session.plan_cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead.cost_cal"] = (
        cost_cal(run.select(True), run.requests_per_pass)
        - cost_cal(run.select(False), run.requests_per_pass),
        "cal",
    )
    return metrics

