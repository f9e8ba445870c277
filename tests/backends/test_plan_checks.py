"""A compiled plan serves only the circuit structure and boundary states it was made for.

``SimulationBackend.run(circuit, task, plan=...)`` with a plan compiled for
another circuit, or for other boundary states, raises
:class:`ValidationError` on every backend that compiles one, instead of
returning the other configuration's value.
"""

import pytest

from repro.backends import SimulationTask, get_backend
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.noise import NoiseModel, depolarizing_channel
from repro.utils.validation import ValidationError


def _noisy(ideal):
    return NoiseModel(depolarizing_channel(0.02), seed=1).insert_random(ideal, 2)


GHZ = _noisy(ghz_circuit(3))
QAOA = _noisy(qaoa_circuit(3, seed=1))

MISMATCHES = {
    # (circuit run, output state run) against a plan for GHZ and "000".
    "other circuit": (QAOA, "000", "different circuit"),
    "other output state": (GHZ, "100", "different output state"),
}


@pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
@pytest.mark.parametrize("name", ["tn", "trajectories_tn", "trajectories", "approximation"])
def test_mismatched_plan_is_refused(name, mismatch):
    backend = get_backend(name)
    plan = backend.compile(GHZ, SimulationTask(output_state="000"))
    assert plan is not None
    circuit, output_state, message = MISMATCHES[mismatch]
    task = SimulationTask(output_state=output_state, num_samples=16, seed=1)
    # The configuration run is a valid one: without the plan it simulates.
    backend.run(circuit, task)
    with pytest.raises(ValidationError, match=message):
        backend.run(circuit, task, plan=plan)
