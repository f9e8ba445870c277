"""Span tracing of the program's layers, installed from the benchmark's side.

The program carries no instrumentation of its own, so the traced run wraps
the public entry point of each layer at the place where callers look the
name up: a function imported by value (``from m import f``) is patched in
the importing module, a method is patched on its class.  Every wrapped call
records one span ``(name, start, end, parent, request)``; spans stay in
memory until :meth:`Tracer.write_spans` runs at the end of the benchmark.

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested within one thread, so the children
never overlap and the subtraction is exact.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name of the benchmark's own per-request span (the root of each tree).
REQUEST = "request"


def _count_terms(counters, args, kwargs, result):
    counters["core.approximation.terms"] += result.num_terms


def _count_specialized_replay(counters, args, kwargs, result):
    counters["tensornetwork.plan.replay.contractions"] += args[0].num_residual_steps


def _count_full_replay(counters, args, kwargs, result):
    counters["tensornetwork.plan.replay.contractions"] += args[0].num_steps


def _count_specialize(counters, args, kwargs, result):
    counters["tensornetwork.plan.specialize.residual_steps"] += result.num_residual_steps
    counters["tensornetwork.plan.specialize.steps"] += args[0].num_steps


def _count_samples(counters, args, kwargs, result):
    counters["backends.engine.samples"] += result.num_samples


def _count_host_bytes(counters, args, kwargs, result):
    counters["xp.to_host.bytes"] += result.nbytes


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``owner.attr`` seen as ``layer.label``.

    ``owner`` is ``"module"`` or ``"module:Class"``; ``count`` optionally
    adds to the tracer's counters from the call's arguments and result.
    """

    layer: str
    label: str
    owner: str
    attr: str
    count: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.label}"


#: The layers of the program and the entry points wrapped for each.
ENTRIES: Tuple[Entry, ...] = (
    Entry("api.session", "Session.compile", "repro.api.session:Session", "compile"),
    Entry("api.executable", "Executable.run", "repro.api.executable:Executable", "run"),
    Entry("api.executable", "Executable.bind", "repro.api.executable:Executable", "bind"),
    Entry("circuits.parameters", "substitute", "repro.api.executable", "substitute"),
    Entry("circuits.passes", "run_passes", "repro.api.session", "run_passes"),
    Entry("core.svd_decomposition", "decompose_noise", "repro.core.approximation", "decompose_noise"),
    Entry("core.approximation", "ApproximateNoisySimulator.fidelity",
          "repro.core.approximation:ApproximateNoisySimulator", "fidelity", _count_terms),
    Entry("core.approximation", "ApproximateNoisySimulator.prepare",
          "repro.core.approximation:ApproximateNoisySimulator", "prepare"),
    Entry("tensornetwork.circuit_to_tn", "substituted_split_networks",
          "repro.core.approximation", "substituted_split_networks"),
    # Looked up inside circuit_to_tn (by the split and doubled networks) and
    # by the trajectory engine's template network.
    Entry("tensornetwork.circuit_to_tn", "operator_amplitude_network",
          "repro.tensornetwork.circuit_to_tn", "operator_amplitude_network"),
    Entry("tensornetwork.circuit_to_tn", "operator_amplitude_network",
          "repro.backends.engine", "operator_amplitude_network"),
    # TensorNetwork.contract looks the planner up as a module attribute.
    Entry("tensornetwork.ordering", "contract_greedy", "repro.tensornetwork.ordering", "contract_greedy"),
    Entry("tensornetwork.plan", "ContractionPlan.record",
          "repro.tensornetwork.plan:ContractionPlan", "record"),
    Entry("tensornetwork.plan", "ContractionPlan.specialize",
          "repro.tensornetwork.plan:ContractionPlan", "specialize", _count_specialize),
    Entry("tensornetwork.plan", "ContractionPlan.execute",
          "repro.tensornetwork.plan:ContractionPlan", "execute", _count_full_replay),
    Entry("tensornetwork.plan", "SpecializedPlan.execute",
          "repro.tensornetwork.plan:SpecializedPlan", "execute", _count_specialized_replay),
    Entry("backends.engine", "BatchedTrajectoryEngine.estimate_fidelity",
          "repro.backends.engine:BatchedTrajectoryEngine", "estimate_fidelity", _count_samples),
    Entry("backends.engine", "BatchedTrajectoryEngine.prepare",
          "repro.backends.engine:BatchedTrajectoryEngine", "prepare"),
    Entry("xp", "NumpyNamespace.tensordot", "repro.xp.numpy_ns:NumpyNamespace", "tensordot"),
    Entry("xp", "NumpyNamespace.einsum", "repro.xp.numpy_ns:NumpyNamespace", "einsum"),
    Entry("xp", "NumpyNamespace.transpose", "repro.xp.numpy_ns:NumpyNamespace", "transpose"),
    Entry("xp", "NumpyNamespace.matmul", "repro.xp.numpy_ns:NumpyNamespace", "matmul"),
    Entry("xp", "NumpyNamespace.to_host", "repro.xp.numpy_ns:NumpyNamespace", "to_host",
          _count_host_bytes),
)

#: Counters the wrappers accumulate, reported next to the span totals.
COUNTERS = (
    "core.approximation.terms",
    "tensornetwork.plan.replay.contractions",
    "backends.engine.samples",
    "xp.to_host.bytes",
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = collections.Counter()
        self.errors: Dict[str, int] = collections.Counter()
        self._stack: List[int] = []
        self._request: Optional[int] = None

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append((name, time.perf_counter(), None, parent, self._request))
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, end, parent, request)

    def _wrap(self, entry: Entry, function: Callable) -> Callable:
        tracer = self
        name = entry.name
        count = entry.count

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        restore = []
        try:
            for entry in ENTRIES:
                owner = _resolve_owner(entry.owner)
                raw = vars(owner)[entry.attr]
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(entry, raw.__func__))
                else:
                    patched = self._wrap(entry, raw)
                setattr(owner, entry.attr, patched)
                restore.append((owner, entry.attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one benchmark request; nested spans carry its id."""
        self._request = request_id
        index = self._open(REQUEST)
        try:
            yield
        finally:
            self._close(index)
            self._request = None

    # ------------------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Per span name: number of calls and summed self seconds."""
        calls: Dict[str, int] = collections.Counter()
        self_seconds: Dict[str, float] = collections.defaultdict(float)
        child_seconds = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_seconds[name] += (end - start) - child_seconds[index]
        return calls, self_seconds

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps([name, start, end, parent, request]) + "\n")
