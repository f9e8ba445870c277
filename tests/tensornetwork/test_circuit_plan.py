"""Algorithm 1 and TN trajectories plan the same network of a circuit.

Algorithm 1's upper split network (SVD factors in the noise nodes) and the
trajectory amplitude network (Kraus operators in the noise nodes) differ
only in the values of their batched noise inputs, so their circuit plans
must be equal: the same schedule, the same noise positions, the same
residual steps and the same baked static tensors.  The rows are the
benchmark's: ``qaoa_9`` and the Table III large circuits, each under 8
depolarizing noises (p = 1e-3) and under 8 superconducting noises.
"""

import numpy as np
import pytest

from repro.api import apply_noise
from repro.backends.engine import BatchedTrajectoryEngine
from repro.circuits.library import benchmark_circuit
from repro.core import ApproximateNoisySimulator

CIRCUITS = (
    ("qaoa_9", {"native_gates": False}),
    ("qaoa_12", {"native_gates": False}),
    ("qaoa_14", {"native_gates": False}),
    ("brickwork_12x8", {}),
    ("brickwork_14x6", {}),
    ("cliffordt_12", {}),
    ("ghzladder_12x6", {}),
)
NOISES = {
    "depolarizing": {"channel": "depolarizing", "parameter": 0.001, "count": 8, "seed": 5},
    "superconducting": {"channel": "superconducting", "count": 8, "seed": 13},
}


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("name,builder", CIRCUITS, ids=[name for name, _ in CIRCUITS])
def test_algorithm1_and_trajectories_share_one_plan(name, builder, noise):
    circuit = apply_noise(benchmark_circuit(name, seed=3, **builder), NOISES[noise])
    terms = ApproximateNoisySimulator().prepare(circuit).circuit_plan
    trajectories = BatchedTrajectoryEngine("tn").prepare(circuit).circuit_plan
    assert len(terms.noise_positions) == 8
    assert terms.noise_positions == trajectories.noise_positions
    assert terms.plan.steps == trajectories.plan.steps
    assert terms.specialized._residual == trajectories.specialized._residual
    assert terms.specialized._baked.keys() == trajectories.specialized._baked.keys()
    for slot, tensor in terms.specialized._baked.items():
        assert np.array_equal(tensor, trajectories.specialized._baked[slot]), slot
