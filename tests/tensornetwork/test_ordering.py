"""Oracle tests for the contraction planner.

:func:`contract_greedy` plans on integer edge ids.  The reference below is
the slow recorder it replaced: it contracts the live :class:`Node` objects
pair by pair, re-enumerating the connected pairs before every step, and
writes down each step's list positions and axes as it goes.  The planner's
``(steps, peak)`` must equal the reference's exactly — replayed values
depend bit-for-bit on positions and axes.
"""

import numpy as np
import pytest

from repro.circuits.library import ghz_circuit, hf_circuit, qaoa_circuit
from repro.core import decompose_noise
from repro.noise import NoiseModel, amplitude_damping_channel, depolarizing_channel
from repro.tensornetwork import (
    TensorNetwork,
    connect,
    contract_greedy,
    contract_nodes,
    noisy_doubled_network,
    operator_amplitude_network,
    substituted_split_networks,
)
from repro.utils.validation import ValidationError

STRATEGIES = ("greedy", "sequential")


def reference_schedule(network, strategy):
    """The observer-based recorder the planner replaced; consumes ``network``."""
    nodes = list(network.nodes)
    steps, peak = [], 0

    def contract(node_a, node_b):
        nonlocal peak
        shared = [
            edge for edge in node_a.edges
            if not edge.is_dangling and edge.other(node_a) is node_b
        ]
        shared_dim = 1
        for edge in shared:
            shared_dim *= edge.dimension
        peak = max(peak, (node_a.size // shared_dim) * (node_b.size // shared_dim))
        steps.append((
            nodes.index(node_a),
            nodes.index(node_b),
            tuple(edge.axis_of(node_a) for edge in shared),
            tuple(edge.axis_of(node_b) for edge in shared),
        ))
        result = contract_nodes(node_a, node_b)
        nodes.remove(node_a)
        nodes.remove(node_b)
        nodes.append(result)

    def connected_pairs():
        pairs, seen = [], set()
        for node in nodes:
            for neighbour in node.neighbours():
                key = (min(node.id, neighbour.id), max(node.id, neighbour.id))
                if key not in seen:
                    seen.add(key)
                    pairs.append((node, neighbour))
        return pairs

    def cost(pair):
        node_a, node_b = pair
        shared_dim = 1
        for edge in node_a.edges:
            if not edge.is_dangling and edge.other(node_a) is node_b:
                shared_dim *= edge.dimension
        result = (node_a.size // shared_dim) * (node_b.size // shared_dim)
        return result, result - node_a.size - node_b.size

    while True:
        pairs = connected_pairs()
        if not pairs:
            break
        contract(*(pairs[0] if strategy == "sequential" else min(pairs, key=cost)))
    while len(nodes) > 1:
        contract(nodes[0], nodes[1])
    return steps, peak


def _assert_matches_reference(network, strategy):
    planned = contract_greedy(network, strategy)
    assert planned == reference_schedule(network, strategy)


def _random_network(seed):
    """Random ranks and dimensions, multi-edges, dangling edges, loose parts."""
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(2, 10))
    ranks = rng.integers(1, 5, size=num_nodes)
    slots = [(node, axis) for node in range(num_nodes) for axis in range(ranks[node])]
    rng.shuffle(slots)
    high = 2 if seed % 2 else 4  # even seeds: all-2 dimensions, so many ties
    dims = {slot: int(rng.integers(1, high)) + 1 for slot in slots}
    links = []
    for first, second in zip(slots[0::2], slots[1::2]):
        if first[0] != second[0] and rng.random() < 0.8:
            dims[second] = dims[first]
            links.append((first, second))
    if seed % 3 == 0 and num_nodes >= 2:
        # A guaranteed multi-edge between two fresh axes of nodes 0 and 1.
        for _ in range(2):
            first, second = (0, int(ranks[0])), (1, int(ranks[1]))
            ranks[0] += 1
            ranks[1] += 1
            dims[first] = dims[second] = 2
            links.append((first, second))
    network = TensorNetwork()
    nodes = [
        network.add_node(rng.normal(size=tuple(dims[(node, axis)] for axis in range(ranks[node]))))
        for node in range(num_nodes)
    ]
    for (node_a, axis_a), (node_b, axis_b) in links:
        connect(nodes[node_a].edges[axis_a], nodes[node_b].edges[axis_b])
    return network


def _noisy(circuit, seed):
    circuit = NoiseModel(depolarizing_channel(0.01), seed=seed).insert_random(circuit, 2)
    return NoiseModel(amplitude_damping_channel(0.02), seed=seed).insert_random(circuit, 2)


CIRCUITS = {
    "ghz_3": _noisy(ghz_circuit(3), 1),
    "qaoa_4": _noisy(qaoa_circuit(4, seed=7, native_gates=False), 2),
    "hf_4": _noisy(hf_circuit(4, seed=11), 3),
}

STATES = {
    "zeros": lambda n: ("0" * n, "0" * n),
    "mixed": lambda n: ("+" * n, "01" * (n // 2) + "0" * (n % 2)),
    "dense": lambda n: (np.ones(2**n) / np.sqrt(2**n), "0" * n),
}


def _circuit_networks(label, states):
    circuit = CIRCUITS[label]
    input_state, output_state = STATES[states](circuit.num_qubits)
    dominant = {
        index: decompose_noise(inst.operation).terms[0]
        for index, inst in enumerate(circuit.noise_instructions)
    }
    trajectory_ops = [
        (inst.operation.matrix if inst.is_gate else inst.operation.kraus_operators[0], inst.qubits)
        for inst in circuit
    ]
    return {
        "split": lambda: substituted_split_networks(circuit, dominant, input_state, output_state),
        "doubled": lambda: noisy_doubled_network(circuit, input_state, output_state),
        "trajectory": lambda: operator_amplitude_network(
            circuit.num_qubits, trajectory_ops, input_state, output_state
        ),
    }


class TestPlannerOracle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(40))
    def test_random_networks(self, seed, strategy):
        _assert_matches_reference(_random_network(seed), strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("states", sorted(STATES))
    @pytest.mark.parametrize("label", sorted(CIRCUITS))
    def test_circuit_networks(self, label, states, strategy):
        for build in _circuit_networks(label, states).values():
            networks = build()
            for network in networks if isinstance(networks, tuple) else (networks,):
                _assert_matches_reference(network, strategy)

    def test_isolated_nodes_are_joined_by_outer_products(self):
        network = TensorNetwork()
        for _ in range(3):
            network.add_node(np.ones(2))
        steps, peak = contract_greedy(network)
        assert steps == [(0, 1, (), ()), (0, 1, (), ())]
        assert peak == 8

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            contract_greedy(_random_network(0), "quantum")

    def test_self_loop_rejected(self):
        network = TensorNetwork()
        node = network.add_node(np.eye(2))
        connect(node.edges[0], node.edges[1])
        with pytest.raises(ValidationError):
            contract_greedy(network)
