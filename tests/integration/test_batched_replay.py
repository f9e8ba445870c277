"""Batched term replay is bit-identical to evaluating Algorithm 1 term by term.

:meth:`ApproximateNoisySimulator.fidelity` evaluates both halves of all terms
of a run in one batched replay of the upper network's plan.  The oracle here
is the sequential definition: per term, the two substituted networks are
built afresh and each is contracted by a full :meth:`ContractionPlan.execute`
replay of the recorded schedule over its own tensors — the lower half from
the lower network, not through the conjugate identity — and the products are
summed per level and then into the total.  Values must agree with ``==``,
also when the circuit's parametric gates are bound inputs of the replay.
"""

import itertools

import numpy as np
import pytest

from repro.api import apply_noise
from repro.backends import SimulationTask, get_backend
from repro.circuits.library import benchmark_circuit
from repro.circuits.parameters import circuit_parameters, substitute
from repro.core import ApproximateNoisySimulator
from repro.noise import NoiseModel, depolarizing_channel
from repro.tensornetwork.circuit_to_tn import substituted_split_networks


def _per_term_values(noisy, level):
    """(level contributions, total) of the sequential per-term evaluation."""
    prepared = ApproximateNoisySimulator().prepare(noisy)
    decompositions = prepared.decompositions
    zeros = "0" * noisy.num_qubits
    total = 0.0 + 0.0j
    contributions = []
    for k in range(level + 1):
        contribution = 0.0 + 0.0j
        for positions in itertools.combinations(range(len(decompositions)), k):
            choices = [range(1, decompositions[p].num_terms) for p in positions]
            for assignment in itertools.product(*choices):
                substitution = {i: d.terms[0] for i, d in enumerate(decompositions)}
                for position, term_index in zip(positions, assignment):
                    substitution[position] = decompositions[position].terms[term_index]
                upper, lower = substituted_split_networks(noisy, substitution, zeros, zeros)
                plan = prepared.circuit_plan.plan
                contribution += plan.execute(
                    [node.tensor for node in upper.nodes]
                ) * plan.execute([node.tensor for node in lower.nodes])
        contributions.append(float(np.real(contribution)))
        total += contribution
    return tuple(contributions), float(np.real(total))


@pytest.fixture(scope="module")
def mixed_superconducting():
    """Superconducting noises (3 SVD terms each) plus depolarizing ones (4 terms)."""
    ideal = benchmark_circuit("qaoa_4", seed=3)
    noisy = apply_noise(ideal, {"channel": "superconducting", "count": 5, "seed": 13})
    return NoiseModel(depolarizing_channel(0.01), seed=2).insert_random(noisy, 2)


class TestBatchedTermReplay:
    @pytest.mark.parametrize("level", [1, 2])
    def test_superconducting_mixed_term_counts(self, mixed_superconducting, level):
        noisy = mixed_superconducting
        counts = [d.num_terms for d in ApproximateNoisySimulator().decompose_noises(noisy)]
        assert len(set(counts)) > 1
        result = ApproximateNoisySimulator(level=level).fidelity(noisy)
        if level == 1:
            assert result.num_terms == 17
        contributions, total = _per_term_values(noisy, level)
        assert result.level_contributions == contributions
        assert result.value == total
        backend = get_backend("approximation").run(noisy, SimulationTask(level=level))
        assert backend.value == total

    @pytest.mark.parametrize("level", [1, 2])
    def test_bound_parametric_circuit(self, level):
        # The parametric gates are bound inputs of the replay (bound once per
        # run), while the oracle's fresh networks carry them as plain tensors.
        ideal = benchmark_circuit("qaoa_4", seed=3, native_gates=False, parametric=True)
        binding = {
            name: 0.3 + 0.17 * index
            for index, name in enumerate(sorted(circuit_parameters(ideal)))
        }
        noisy = apply_noise(
            substitute(ideal, binding),
            {"channel": "depolarizing", "parameter": 0.01, "count": 4, "seed": 5},
        )
        assert ApproximateNoisySimulator().prepare(noisy).circuit_plan.gate_positions
        result = ApproximateNoisySimulator(level=level).fidelity(noisy)
        contributions, total = _per_term_values(noisy, level)
        assert result.level_contributions == contributions
        assert result.value == total

    def test_level3_on_qaoa_4(self):
        ideal = benchmark_circuit("qaoa_4", seed=0)
        noisy = NoiseModel(depolarizing_channel(0.01), seed=0).insert_random(ideal, 5)
        result = ApproximateNoisySimulator(level=3).fidelity(noisy)
        contributions, total = _per_term_values(noisy, 3)
        assert result.num_terms == 1 + 5 * 3 + 10 * 9 + 10 * 27
        assert result.level_contributions == contributions
        assert result.value == total

    def test_chunked_equals_unchunked(self, mixed_superconducting):
        noisy = mixed_superconducting
        prepared = ApproximateNoisySimulator().prepare(noisy)
        # A budget of five terms' worth of the largest per-term tensor: the
        # replay of 2T rows runs in chunks of five rows and a shorter last
        # chunk, and (T not a multiple of 5) one chunk straddles the upper
        # and the conjugated lower rows.
        budget = 5 * prepared.circuit_plan.specialized.peak_row_entries
        assert budget >= prepared.circuit_plan.plan.peak_intermediate_entries
        unchunked = ApproximateNoisySimulator(level=2).fidelity(noisy)
        assert unchunked.num_terms % 5 != 0
        chunked = ApproximateNoisySimulator(level=2, max_intermediate_size=budget).fidelity(noisy)
        assert chunked.value == unchunked.value
        assert chunked.level_contributions == unchunked.level_contributions
