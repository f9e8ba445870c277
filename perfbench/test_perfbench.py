"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``python -m pytest perfbench/test_perfbench.py -q`` from the
repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import harness
import run as bench
import tracing
from workloads import WORKLOADS, tiny

SPEC = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


WORKLOAD_NAMES = ("approx_replay", "traj_dense", "sweep_cold", "variational")


def measure(workload, trace: bool):
    try:
        return harness.run_workload(workload, 0.0, trace)
    finally:
        workload.close()


def test_benchmark_json_matches_the_harness():
    assert [metric["name"] for metric in SPEC["end_to_end"]] == list(bench.GATED)
    workload = tiny("approx_replay", 5)
    run = measure(workload, trace=True)
    untraced = harness.end_to_end(run)
    for metric in SPEC["end_to_end"]:
        assert untraced[metric["name"]][1] == metric["unit"]
    layers = harness.per_layer(run)
    assert {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, WORKLOADS[name].reason) for name in WORKLOAD_NAMES
    ]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(name, capsys):
    workload = tiny(name, 5)
    run = measure(workload, trace=False)
    metrics = harness.end_to_end(run)
    bench._report(workload, run, metrics, trace=False)
    lines = capsys.readouterr().out.splitlines()
    for metric, (value, unit, count, _) in metrics.items():
        line = next(line for line in lines if line.split()[:1] == [metric])
        assert line.split()[2] == unit and f"n={count}" in line
    assert metrics["failed_ratio"][0] == 0.0
    assert workload.reason


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_wrong_reference_fails_every_request(name, monkeypatch):
    workload = tiny(name, 5)
    computed = workload.references

    def wrong_references():
        computed()
        for label in workload.reference:
            workload.reference[label] += 0.5

    monkeypatch.setattr(workload, "references", wrong_references)
    run = measure(workload, trace=False)
    assert harness.end_to_end(run)["failed_ratio"][0] == 1.0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_fixed_seed(name):
    def counts():
        layers = harness.per_layer(measure(tiny(name, 5), trace=True))
        timed = (".self_s", ".share", "trace.overhead.cost_cal")
        return {key: value for key, (value, _) in layers.items() if not key.endswith(timed)}

    first = counts()
    assert first == counts()
    assert any(key.endswith(".calls") and value > 0 for key, value in first.items())


def test_tracer_self_time_excludes_children_and_restores_entries():
    from repro.tensornetwork import ordering

    original = ordering.contract_greedy
    tracer = tracing.Tracer()
    with tracer.installed():
        assert ordering.contract_greedy is not original
        with tracer.request(0):
            parent = tracer._open("outer")
            child = tracer._open("inner")
            tracer._close(child)
            tracer._close(parent)
    assert ordering.contract_greedy is original
    calls, self_seconds = tracer.totals()
    assert calls["outer"] == calls["inner"] == calls[tracing.REQUEST] == 1
    name, start, end, _, request = tracer.spans[1]
    assert request == 0
    assert self_seconds["outer"] == pytest.approx((end - start) - self_seconds["inner"])
