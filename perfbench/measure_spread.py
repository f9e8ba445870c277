"""Measure the spread of one trajectory on every stochastic row.

Run from the root of a checkout (takes about five minutes on a 2-core box)::

    python3 perfbench/measure_spread.py

For each trajectory row of the full and the tiny workloads it draws 16384
trajectories of the row's compiled circuit and writes their standard
deviation and largest value to ``perfbench/spread.json``.  It then prints,
per row, the share of a million resampled requests (of the row's request
size) that would miss their check although the estimator is correct.
Rerun it when a row or its sample count changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.api import Session  # noqa: E402
from repro.backends.engine import BatchedTrajectoryEngine  # noqa: E402

import workloads  # noqa: E402

TRAJECTORIES = 16384
RESAMPLES = 1_000_000
ENGINES = {"trajectories": "statevector", "trajectories_tn": "tn"}


def miss_rate(values: np.ndarray, samples: int, tolerance: float, rng) -> float:
    """Share of resampled ``samples``-trajectory means farther than ``tolerance`` from the mean."""
    mean = values.mean()
    misses = 0
    chunk = max(1, 4_000_000 // samples)
    for start in range(0, RESAMPLES, chunk):
        count = min(chunk, RESAMPLES - start)
        means = values[rng.integers(0, len(values), size=(count, samples))].mean(axis=1)
        misses += int(np.count_nonzero(np.abs(means - mean) > tolerance))
    return misses / RESAMPLES


def main() -> int:
    table = {}
    rng = np.random.default_rng(0)
    print(f"{'row':<62} {'sigma':>10} {'max':>10} {'n':>3} {'miss rate':>9}")
    candidates = [workloads.WORKLOADS[name](0) for name in ("traj_dense", "sweep_cold")]
    candidates += [workloads.tiny(name, 0) for name in ("traj_dense", "sweep_cold")]
    for workload in candidates:
        workload.setup()
        with Session(workers=None) as session:
            for backend, row, circuit in workload.stochastic_rows():
                # The compiled circuit is what the requests' trajectories run on.
                compiled = session.compile(circuit, backend=backend, samples=1).circuit
                engine = BatchedTrajectoryEngine(ENGINES[backend])
                values = np.asarray(
                    engine.estimate_fidelity(
                        compiled, TRAJECTORIES, rng=workloads.derive_seed(0, "sigma", row),
                        keep_samples=True,
                    ).samples
                )
                spread = {"sigma": float(values.std(ddof=1)), "max": float(values.max())}
                table[f"{backend}/{row}"] = spread
                tolerance = workloads.trajectory_tolerance(spread, workload.samples)
                rate = miss_rate(values, workload.samples, tolerance, rng)
                print(f"{backend + '/' + row:<62} {spread['sigma']:>10.3g} {spread['max']:>10.3g}"
                      f" {workload.samples:>3} {rate:>9.2g}", flush=True)
        workload.close()
    workloads.SPREAD_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
