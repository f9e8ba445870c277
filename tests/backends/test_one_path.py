"""One execution path: ``run()`` without a plan compiles, then runs the same code.

Every registered backend executes through ``_run(circuit, task, plan)``; a
plan-less ``run`` gets its plan from the backend's own ``_compile``.  So a
one-shot run and a run with an explicitly compiled plan must agree
bit-for-bit, for every backend that supports the circuit.
"""

import pytest

from repro.api import Session, apply_noise
from repro.backends import SimulationTask, available_backends, get_backend
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.circuits.parameters import circuit_parameters
from repro.tensornetwork import ordering
from repro.tensornetwork.plan import ContractionPlan


def _noisy_qaoa(parametric=False):
    ideal = qaoa_circuit(4, seed=7, native_gates=False, parametric=parametric)
    return apply_noise(
        ideal, {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2}
    )


CIRCUITS = {"noisy_qaoa_4": _noisy_qaoa(), "ghz_3": ghz_circuit(3)}


def _cases():
    for label, circuit in CIRCUITS.items():
        for name in available_backends(circuit):
            yield pytest.param(label, name, None, id=f"{label}-{name}")
            if get_backend(name).capabilities.stochastic:
                yield pytest.param(label, name, 1, id=f"{label}-{name}-workers1")


class TestOnePath:
    @pytest.mark.parametrize("label,name,workers", list(_cases()))
    def test_run_equals_run_with_compiled_plan(self, label, name, workers):
        circuit = CIRCUITS[label]
        task = SimulationTask(num_samples=96, seed=11, level=1, workers=workers)
        backend = get_backend(name)
        one_shot = backend.run(circuit, task)
        planned = backend.run(circuit, task, plan=backend.compile(circuit, task))
        assert one_shot.value == planned.value
        assert one_shot.standard_error == planned.standard_error
        assert one_shot.num_contractions == planned.num_contractions
        assert one_shot.num_samples == planned.num_samples


class TestParametricApproximationPlanning:
    def test_bound_run_plans_once_not_once_per_term(self, monkeypatch):
        """A bound run of parametric ``ours`` plans once, not once per term."""
        parametric = _noisy_qaoa(parametric=True)
        with Session() as session:
            executable = session.compile(parametric, backend="approximation", level=1)
            bound = executable.bind(dict.fromkeys(circuit_parameters(parametric), 0.3))
            plans, orderings = [], []
            for_network, plan = ContractionPlan.for_network.__func__, ordering.contract_greedy

            def counting_for_network(cls, *args, **kwargs):
                plans.append(1)
                return for_network(cls, *args, **kwargs)

            def counting_plan(*args, **kwargs):
                orderings.append(1)
                return plan(*args, **kwargs)

            monkeypatch.setattr(ContractionPlan, "for_network", classmethod(counting_for_network))
            monkeypatch.setattr(ordering, "contract_greedy", counting_plan)
            result = bound.run()
        # Level 1 over three depolarizing noises: 1 + 3 * 3 terms.
        assert result.num_contractions == 2 * 10
        assert len(plans) == 1
        assert len(orderings) == 1
