"""The benchmark's four workloads: the paper's cells served through the public path.

Every request goes through ``Session.compile()`` -> ``Executable.run()`` (or
``Executable.bind(θ).run()``) of a ``Session(workers=None)``: one client, one
process, no pool.  The per-request trajectory seeds, the θ trace and the
order of the cold-compile cells are derived from the benchmark seed; the
program only ever sees the generated circuits, seeds and bindings.

Noise placements are the ones the specs pin (``seed: 5`` and ``seed: 13``
in ``benchmarks/specs/table3*.yaml``), not derived from the benchmark seed:
the placement sets how many contractions a term replays (23 to 31 residual
steps on ``qaoa_9`` with 8 noises), so a seed-derived placement would move
the work of a request by up to a third between seeds.

Reference values are computed outside timing, once per invocation, by
independent methods: the density-matrix simulator, the exact TN contraction,
or the level-2 approximation with its Theorem-1 bound.  A request whose value
misses its reference counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.api import Session, apply_noise
from repro.circuits.library import benchmark_circuit
from repro.circuits.parameters import circuit_parameters, substitute

#: Float rounding allowance of a deterministic check against a rigorous bound.
ROUNDING = 1e-12
#: A trajectory estimate from n trajectories may stray from its exact reference
#: by STANDARD_ERRORS * sigma / sqrt(n) + RARE_TRAJECTORIES * max / n +
#: RESOLUTION, with the row's per-trajectory standard deviation sigma and
#: largest value max from SPREAD_FILE.  The request's own standard error is
#: not used: a few dozen trajectories are often all equal and estimate zero.
#: The second term covers the lumpy estimators (rare trajectories weigh
#: 10-100x the common one): with it, none of a million resampled requests of
#: any row missed (measure_spread.py prints the rates).  RESOLUTION covers
#: trajectories too rare for the 16384 measured ones to contain: on
#: cliffordt_12 every measured trajectory is 0, the exact value 1.7e-9.
STANDARD_ERRORS = 8.0
RARE_TRAJECTORIES = 2
RESOLUTION = 1e-6
#: Per-trajectory standard deviation and maximum of every stochastic row,
#: written by measure_spread.py from 16384 trajectories per row.
SPREAD_FILE = Path(__file__).with_name("spread.json")
#: Noise rows of benchmarks/specs/table3.yaml and table3_large.yaml.
DEPOLARIZING_1E3 = {"channel": "depolarizing", "parameter": 0.001, "count": 8, "seed": 5}
DEPOLARIZING_5E3 = {"channel": "depolarizing", "parameter": 0.005, "count": 8, "seed": 5}
SUPERCONDUCTING = {"channel": "superconducting", "count": 8, "seed": 13}
#: Circuit axis of table3_large.yaml: (name, builder keywords).
TABLE3_LARGE_CIRCUITS = (
    ("qaoa_12", {"native_gates": False}),
    ("qaoa_14", {"native_gates": False}),
    ("brickwork_12x8", {}),
    ("brickwork_14x6", {}),
    ("cliffordt_12", {}),
    ("ghzladder_12x6", {}),
)
#: Circuit builder seed shared by every spec row.
CIRCUIT_SEED = 3


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 63-bit seed from the benchmark seed and a label path."""
    text = "\x1f".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") % (2**63)


def build_noisy(circuit: str, builder: dict, noise: dict, *, parametric=False):
    """The circuit of one (circuit, noise) row of the specs."""
    ideal = benchmark_circuit(circuit, seed=CIRCUIT_SEED, parametric=parametric, **builder)
    return apply_noise(ideal, noise)


def noise_label(noise: dict) -> str:
    rate = f"-p{noise['parameter']:g}" if "parameter" in noise else ""
    return f"{noise['channel']}{rate}-x{noise['count']}-s{noise['seed']}"


def trajectory_spread(backend: str, row: str) -> dict:
    """``{"sigma", "max"}`` of one trajectory of ``backend`` on ``row`` (circuit/noise)."""
    table = json.loads(SPREAD_FILE.read_text())
    key = f"{backend}/{row}"
    if key not in table:
        raise KeyError(f"{key} is not in {SPREAD_FILE.name}; run measure_spread.py")
    return table[key]


def trajectory_tolerance(spread: dict, samples: int) -> float:
    """How far an estimate from ``samples`` trajectories may stray (see STANDARD_ERRORS)."""
    return (
        STANDARD_ERRORS * spread["sigma"] / math.sqrt(samples)
        + RARE_TRAJECTORIES * spread["max"] / samples
        + RESOLUTION
    )


@dataclass
class Request:
    """One request: ``call`` is timed, ``check`` is not.

    ``check`` returns ``(passed, |value - reference|)``.
    """

    label: str
    call: Callable
    check: Callable


def within_bound(reference: float) -> Callable:
    """Check against an exact value within the result's Theorem-1 bound."""

    def check(result) -> Tuple[bool, float]:
        error = abs(result.value - reference)
        return error <= result.error_bound + ROUNDING, error

    return check


def within(reference: float, tolerance: float) -> Callable:
    """Check against a reference value within a fixed tolerance."""

    def check(result) -> Tuple[bool, float]:
        error = abs(result.value - reference)
        return error <= tolerance, error

    return check


class Workload:
    """Base: owns the session its requests run in and closes it in :meth:`close`."""

    name = ""
    reason = ""
    #: Kind of calibration chunk (see harness.CHUNKS) that tracks this workload.
    calibration = "dispatch"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._session: Session | None = None
        #: Reference value per request label (see :meth:`references`).
        self.reference: Dict[str, float] = {}

    def session(self) -> Session:
        """A fresh session; the previous one (of an earlier setup or pass) is closed.

        Keeping one session alive keeps the process's memory independent of
        how many setups a run had time for.
        """
        self.close()
        self._session = Session(workers=None)
        return self._session

    def plan_cache_counts(self) -> Tuple[int, int]:
        """(hits, lookups) of the live session's plan cache."""
        if self._session is None:
            return 0, 0
        stats = self._session.cache_stats()
        hits = stats["hits"] + stats["coalesced"]
        return hits, hits + stats["misses"]

    def close(self) -> None:
        if self._session is not None:
            self._session.close()

    # Overridden by each workload ---------------------------------------
    def setup(self) -> None:
        """Build circuits and compile what the requests serve (timed)."""

    def references(self) -> None:
        """Compute the reference values (untimed, once per invocation)."""

    def begin_pass(self) -> None:
        """Prepare one pass over the request list (untimed)."""

    def pass_requests(self, first_index: int) -> List[Request]:
        """The fixed request list; ``first_index`` numbers its first request."""
        raise NotImplementedError

    def stochastic_rows(self) -> List[Tuple[str, str, object]]:
        """(backend, row, circuit) of every trajectory row, after :meth:`setup`."""
        return []


class ApproxReplay(Workload):
    name = "approx_replay"
    reason = (
        "Serves a Table III 'ours' cell from one compiled executable, so plan replay "
        "does almost all the work and a faster replay or term loop shows here."
    )

    def __init__(self, seed: int, circuit: str = "qaoa_9", noise: dict = DEPOLARIZING_1E3,
                 requests: int = 20) -> None:
        super().__init__(seed)
        self.circuit_name, self.noise, self.requests = circuit, noise, requests

    def setup(self) -> None:
        self.circuit = build_noisy(self.circuit_name, {"native_gates": False}, self.noise)
        self.executable = self.session().compile(self.circuit, backend="approximation", level=1)

    def references(self) -> None:
        with Session(workers=None) as session:
            self.reference["ours"] = session.run(self.circuit, backend="density_matrix").value

    def pass_requests(self, first_index: int) -> List[Request]:
        check = within_bound(self.reference["ours"])
        return [Request("ours", lambda: self.executable.run(), check) for _ in range(self.requests)]


class TrajDense(Workload):
    name = "traj_dense"
    reason = (
        "Runs the Table III Traj(MM) baseline at 12 qubits with no plan layer, so gate "
        "application and Kraus sampling take the time, for state-independent and "
        "state-dependent branch weights alike."
    )
    calibration = "state"

    def __init__(self, seed: int, circuit: str = "qaoa_12",
                 noises: Sequence[dict] = (DEPOLARIZING_5E3, SUPERCONDUCTING),
                 samples: int = 64) -> None:
        super().__init__(seed)
        self.circuit_name, self.noises, self.samples = circuit, tuple(noises), samples

    def setup(self) -> None:
        session = self.session()
        self.circuits = {}
        self.executables = {}
        for noise in self.noises:
            label = f"{self.circuit_name}/{noise_label(noise)}"
            self.circuits[label] = build_noisy(self.circuit_name, {"native_gates": False}, noise)
            self.executables[label] = session.compile(
                self.circuits[label], backend="trajectories", samples=self.samples,
                seed=derive_seed(self.seed, "compile", label),
            )

    def stochastic_rows(self):
        return [("trajectories", label, circuit) for label, circuit in self.circuits.items()]

    def references(self) -> None:
        self.spread = {label: trajectory_spread("trajectories", label) for label in self.circuits}
        with Session(workers=None) as session:
            for label, circuit in self.circuits.items():
                self.reference[label] = session.run(
                    circuit, backend="approximation", level=2
                ).value

    def pass_requests(self, first_index: int) -> List[Request]:
        requests = []
        for offset, label in enumerate(self.executables):
            executable = self.executables[label]
            seed = derive_seed(self.seed, "trajectory", first_index + offset)
            check = within(
                self.reference[label], trajectory_tolerance(self.spread[label], self.samples)
            )
            requests.append(Request(label, lambda e=executable, s=seed: e.run(seed=s), check))
        return requests


class SweepCold(Workload):
    name = "sweep_cold"
    reason = (
        "Every request compiles a configuration its session has never seen, so greedy "
        "plan search and passes dominate and work moved from run time into compile "
        "time shows as a cost."
    )

    BACKENDS = ("approximation", "tn", "trajectories_tn")

    def __init__(self, seed: int, circuits: Sequence[tuple] = TABLE3_LARGE_CIRCUITS,
                 noises: Sequence[dict] = (DEPOLARIZING_1E3, DEPOLARIZING_5E3, SUPERCONDUCTING),
                 samples: int = 32) -> None:
        super().__init__(seed)
        self.circuit_specs, self.noises = tuple(circuits), tuple(noises)
        self.samples = samples
        rows = [f"{c}/{noise_label(n)}" for c, _ in self.circuit_specs for n in self.noises]
        cells = [(row, backend) for row in rows for backend in self.BACKENDS]
        order = np.random.default_rng(derive_seed(seed, "order")).permutation(len(cells))
        self.cells = [cells[index] for index in order]

    def setup(self) -> None:
        self.rows = {}
        for circuit, builder in self.circuit_specs:
            for noise in self.noises:
                self.rows[f"{circuit}/{noise_label(noise)}"] = build_noisy(circuit, builder, noise)

    def stochastic_rows(self):
        return [("trajectories_tn", row, circuit) for row, circuit in self.rows.items()]

    def references(self) -> None:
        self.spread = {row: trajectory_spread("trajectories_tn", row) for row in self.rows}
        self.level2 = {}
        with Session(workers=None) as session:
            for row, circuit in self.rows.items():
                exact = session.run(circuit, backend="tn").value
                self.level2[row] = session.run(circuit, backend="approximation", level=2)
                # The tn cell's reference is the level-2 value, whose Theorem-1
                # bound bounds its distance to the exact value.
                self.reference[f"{row}/tn"] = self.level2[row].value
                self.reference[f"{row}/approximation"] = exact
                self.reference[f"{row}/trajectories_tn"] = exact

    def begin_pass(self) -> None:
        # A fresh session per pass: no request finds its plan cached.
        self.pass_session = self.session()

    def _check(self, row, backend) -> Callable:
        reference = self.reference[f"{row}/{backend}"]
        if backend == "tn":
            return within(reference, self.level2[row].error_bound + ROUNDING)
        if backend == "approximation":
            return within_bound(reference)
        return within(reference, trajectory_tolerance(self.spread[row], self.samples))

    def pass_requests(self, first_index: int) -> List[Request]:
        session = self.pass_session
        requests = []
        for offset, (row, backend) in enumerate(self.cells):
            options = {"level": 1} if backend == "approximation" else {}
            if backend == "trajectories_tn":
                options = {
                    "samples": self.samples,
                    "seed": derive_seed(self.seed, "trajectory", first_index + offset),
                }

            def call(circuit=self.rows[row], backend=backend, options=options):
                return session.compile(circuit, backend=backend, **options).run()

            requests.append(Request(f"{row}/{backend}", call, self._check(row, backend)))
        return requests


class Variational(Workload):
    name = "variational"
    reason = (
        "Runs an optimizer loop of bind(theta).run() on the paper's method, the only "
        "workload that exercises Executable.bind and circuit parameter substitution."
    )

    def __init__(self, seed: int, circuit: str = "qaoa_9", noise: dict = DEPOLARIZING_1E3,
                 steps: int = 6) -> None:
        super().__init__(seed)
        self.circuit_name, self.noise, self.steps = circuit, noise, steps

    def setup(self) -> None:
        self.circuit = build_noisy(
            self.circuit_name, {"native_gates": False}, self.noise, parametric=True
        )
        self.executable = self.session().compile(self.circuit, backend="approximation", level=1)
        # An optimizer-like θ trace: a random start, then small random steps.
        rng = np.random.default_rng(derive_seed(self.seed, "theta"))
        names = sorted(circuit_parameters(self.circuit))
        theta = rng.uniform(0.0, math.pi, len(names))
        self.trace = []
        for _ in range(self.steps):
            self.trace.append(dict(zip(names, (float(value) for value in theta))))
            theta = theta + rng.normal(0.0, 0.1, len(names))

    def references(self) -> None:
        with Session(workers=None) as session:
            for step, binding in enumerate(self.trace):
                bound = substitute(self.circuit, binding)
                self.reference[f"step{step}"] = session.run(bound, backend="density_matrix").value

    def pass_requests(self, first_index: int) -> List[Request]:
        return [
            Request(
                f"step{step}",
                lambda binding=binding: self.executable.bind(binding).run(),
                within_bound(self.reference[f"step{step}"]),
            )
            for step, binding in enumerate(self.trace)
        ]


WORKLOADS = {cls.name: cls for cls in (ApproxReplay, TrajDense, SweepCold, Variational)}

#: Few-qubit noise rows for the benchmark's own tests.
TINY_NOISES = (
    {"channel": "depolarizing", "parameter": 0.001, "count": 3, "seed": 5},
    {"channel": "superconducting", "count": 3, "seed": 13},
)


def tiny(name: str, seed: int) -> Workload:
    """A few-qubit version of a workload, on the same code paths as the full one."""
    if name == "approx_replay":
        return ApproxReplay(seed, circuit="qaoa_4", noise=TINY_NOISES[0], requests=2)
    if name == "traj_dense":
        return TrajDense(seed, circuit="qaoa_4", noises=TINY_NOISES, samples=16)
    if name == "sweep_cold":
        circuits = (("qaoa_4", {"native_gates": False}), ("ghzladder_4x2", {}))
        return SweepCold(seed, circuits=circuits, noises=TINY_NOISES, samples=8)
    return Variational(seed, circuit="qaoa_4", noise=TINY_NOISES[0], steps=2)
