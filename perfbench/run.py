"""Benchmark of the paper's workloads through the public compile/run path.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload approx_replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in its own process, one after the
other.  A single workload prints a report, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the gated end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
run whose passes alternate untraced and traced (spans are written to
``perfbench/out/``).  The exit code is 0 when the run completed, whether or
not its checks passed; ``correct`` says whether they did.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The end-to-end metrics the JSON line carries (BENCHMARK.json lists the same).
GATED = ("latency_cal.p50", "cost_cal.total", "setup_s", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, completed.returncode)
    return worst


def _report(workload, run, metrics, trace: bool) -> None:
    samples = run.samples
    failed = [sample.label for sample in samples if not sample.passed]
    print(f"workload {workload.name} (seed {workload.seed}): {workload.reason}")
    print(
        f"  {len(samples)} requests in {run.passes} passes of {run.requests_per_pass}"
        f"{f' ({run.traced_passes} traced)' if trace else ''}, {len(failed)} failed;"
        f" references took {run.reference_seconds:.1f} s, untimed"
    )
    for label in sorted(set(failed)):
        print(f"  FAILED {label}: {failed.count(label)} of {sum(s.label == label for s in samples)}")
    if not trace:
        for name, (value, unit, count, note) in metrics.items():
            print(f"  {name:<26} {value:>14.6g} {unit:<9} n={count:<5} {note}")
        return
    ranked = sorted(
        ((value, name[: -len(".share")]) for name, (value, _) in metrics.items()
         if name.endswith(".share")),
        reverse=True,
    )
    print("  self-time share of traced request time: "
          + ", ".join(f"{layer} {share:.1%}" for share, layer in ranked if share >= 0.005))
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:<64} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return _run_all(args)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        run = harness.run_workload(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    if args.trace:
        metrics = harness.per_layer(run)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        run.tracer.write_spans(out / f"spans-{workload.name}-seed{args.seed}.jsonl")
        selected = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        metrics = harness.end_to_end(run)
        selected = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in GATED}
    _report(workload, run, metrics, bool(args.trace))
    failed = sum(not sample.passed for sample in run.samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": selected,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
