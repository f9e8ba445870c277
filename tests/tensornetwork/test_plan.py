"""Tests for specialized, batched contraction-plan replay.

:meth:`SpecializedPlan.execute` replays a batch of variable-input values in
one pass; row ``i`` must equal (``==``, not approximately) the slow oracle
:meth:`ContractionPlan.execute` on row ``i``'s full tensor list.
"""

import numpy as np
import pytest

from repro.tensornetwork import ContractionPlan, Node, TensorNetwork, connect
from repro.tensornetwork.circuit_to_tn import operator_amplitude_network
from repro.utils.validation import ValidationError
from repro.xp import get_namespace


def _random_matrix(rng, k):
    dim = 2**k
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_network(seed, num_qubits=4, num_ops=10, idle_qubit=False):
    """A random operator-amplitude network and the node positions of its ops.

    With ``idle_qubit`` the last qubit carries no operation, so its boundary
    pair forms a separate component and the schedule ends in outer products.
    """
    rng = np.random.default_rng(seed)
    active = num_qubits - 1 if idle_qubit else num_qubits
    operations = []
    for _ in range(num_ops):
        k = int(rng.integers(1, 3))
        qubits = [int(q) for q in rng.choice(active, size=k, replace=False)]
        operations.append((_random_matrix(rng, k), qubits))
    network = operator_amplitude_network(num_qubits, operations, "0" * num_qubits, "+" * num_qubits)
    op_positions = [num_qubits + index for index in range(num_ops)]
    return network, op_positions


def _recorded(network):
    tensors = [node.tensor for node in network.nodes]
    plan, _ = ContractionPlan.record(network)
    return plan, tensors


def _random_stacks(seed, tensors, positions, rows):
    rng = np.random.default_rng(seed)
    return {
        position: rng.normal(size=(rows,) + tensors[position].shape)
        + 1j * rng.normal(size=(rows,) + tensors[position].shape)
        for position in positions
    }


def _oracle_rows(plan, tensors, stacks, rows):
    values = []
    for row in range(rows):
        substituted = list(tensors)
        for position, stack in stacks.items():
            substituted[position] = np.ascontiguousarray(stack[row])
        values.append(plan.execute(substituted))
    return values


def _assert_rows_equal(amplitudes, expected):
    assert amplitudes.shape == (len(expected),)
    for row, value in enumerate(expected):
        assert amplitudes[row] == value, row


class TestBatchedReplayOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_equal_full_replay_on_random_networks(self, seed):
        network, op_positions = _random_network(seed, idle_qubit=seed % 2 == 1)
        plan, tensors = _recorded(network)
        rng = np.random.default_rng(100 + seed)
        variable = sorted(rng.choice(op_positions, size=3, replace=False).tolist())
        specialized = plan.specialize(tensors, variable)
        stacks = _random_stacks(seed, tensors, variable, rows=9)
        _assert_rows_equal(specialized.execute(stacks), _oracle_rows(plan, tensors, stacks, 9))

    def test_outer_product_step(self):
        # Two disconnected components: a matrix loop (a-b) and a vector pair
        # (c-d).  The schedule must join their scalars by an outer product,
        # and the variable node sits upstream of it.
        rng = np.random.default_rng(1)
        network = TensorNetwork()
        nodes = [
            network.add(Node(rng.normal(size=shape) + 1j * rng.normal(size=shape)))
            for shape in ((2, 2), (2, 2), (2,), (2,))
        ]
        a, b, c, d = nodes
        connect(a.edges[0], b.edges[1])
        connect(a.edges[1], b.edges[0])
        connect(c.edges[0], d.edges[0])
        plan, tensors = _recorded(network)
        assert any(not axes_a for _, _, axes_a, _ in plan.steps)
        specialized = plan.specialize(tensors, [0])
        stacks = _random_stacks(2, tensors, [0], rows=5)
        _assert_rows_equal(specialized.execute(stacks), _oracle_rows(plan, tensors, stacks, 5))

    def test_vector_outer_product_step(self):
        # A hand-built schedule: the outer product u ⊗ v of two batched
        # vectors, then its full contraction with a static matrix.  A batched
        # matmul rounds such outer products differently from tensordot in
        # many rows, so this guards the per-row path.
        rng = np.random.default_rng(3)
        tensors = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in ((2,), (2,), (2, 2))]
        plan = ContractionPlan([(0, 1, (), ()), (0, 1, (0, 1), (0, 1))], num_inputs=3)
        specialized = plan.specialize(tensors, [0, 1])
        stacks = _random_stacks(3, tensors, [0, 1], rows=64)
        _assert_rows_equal(specialized.execute(stacks), _oracle_rows(plan, tensors, stacks, 64))

    def test_no_variable_positions(self):
        network, _ = _random_network(3)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, [])
        assert specialized.num_residual_steps == 0
        _assert_rows_equal(specialized.execute({}), [plan.execute(tensors)])

    def test_batch_of_one(self):
        network, op_positions = _random_network(4)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[:2])
        stacks = _random_stacks(4, tensors, op_positions[:2], rows=1)
        _assert_rows_equal(specialized.execute(stacks), _oracle_rows(plan, tensors, stacks, 1))

    @pytest.mark.parametrize("max_intermediate_size", [1, 40, 100])
    def test_chunked_equals_unchunked(self, max_intermediate_size):
        network, op_positions = _random_network(5, idle_qubit=True)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[1::3])
        stacks = _random_stacks(5, tensors, op_positions[1::3], rows=11)
        unchunked = specialized.execute(stacks)
        chunked = specialized.execute(stacks, max_intermediate_size=max_intermediate_size)
        assert np.array_equal(chunked, unchunked)
        _assert_rows_equal(chunked, _oracle_rows(plan, tensors, stacks, 11))

    def test_fake_gpu_equals_cpu(self):
        network, op_positions = _random_network(6, idle_qubit=True)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[::2])
        stacks = _random_stacks(6, tensors, op_positions[::2], rows=7)
        xp = get_namespace("fake_gpu")
        on_device = specialized.execute(
            {position: xp.asarray(stack) for position, stack in stacks.items()}, xp=xp
        )
        assert isinstance(on_device, np.ndarray)
        assert np.array_equal(on_device, specialized.execute(stacks))


class TestStaticSlots:
    """Specialization keeps only the static tensors a later step reads."""

    @staticmethod
    def _read_slots(specialized):
        reads = {specialized._result_slot}
        for slot_a, slot_b, *_ in specialized._bind_steps + specialized._residual:
            reads |= {slot_a, slot_b}
        return reads

    @pytest.mark.parametrize("seed", range(4))
    def test_baked_slots_are_read_later(self, seed):
        network, op_positions = _random_network(seed, idle_qubit=seed % 2 == 1)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[::3], op_positions[1::3])
        assert set(specialized._baked) <= self._read_slots(specialized)
        assert len(specialized._baked) < plan.num_inputs

    def test_fully_static_plan_keeps_only_its_result(self):
        network, _ = _random_network(9)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, [])
        assert list(specialized._baked) == [plan.num_inputs + plan.num_steps - 1]


class TestBinding:
    """Bound positions take one value per bind(); rows still equal a full replay."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_rows_equal_full_replay(self, seed):
        network, op_positions = _random_network(seed, idle_qubit=seed % 2 == 1)
        plan, tensors = _recorded(network)
        variable, bound = op_positions[::3], op_positions[1::2]
        specialized = plan.specialize(tensors, variable, bound)
        values = {
            position: stack[0]
            for position, stack in _random_stacks(50 + seed, tensors, bound, rows=1).items()
        }
        stacks = _random_stacks(seed, tensors, variable, rows=6)
        substituted = list(tensors)
        for position, value in values.items():
            substituted[position] = value
        _assert_rows_equal(
            specialized.bind(values).execute(stacks),
            _oracle_rows(plan, substituted, stacks, 6),
        )

    def test_only_bound_positions(self):
        network, op_positions = _random_network(11)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, [], op_positions[:4])
        values = {position: 2.0 * tensors[position] for position in op_positions[:4]}
        substituted = [values.get(position, tensor) for position, tensor in enumerate(tensors)]
        _assert_rows_equal(specialized.bind(values).execute({}), [plan.execute(substituted)])

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_bound_outer_products_join_components(self, seed):
        # The idle qubit's boundary pair is a separate, static component, so
        # binding ends in outer products of unbatched operands.
        network, op_positions = _random_network(seed, idle_qubit=True)
        plan, tensors = _recorded(network)
        bound = op_positions[::2]
        specialized = plan.specialize(tensors, [], bound)
        values = {
            position: stack[0]
            for position, stack in _random_stacks(seed, tensors, bound, rows=1).items()
        }
        substituted = [values.get(position, tensor) for position, tensor in enumerate(tensors)]
        _assert_rows_equal(specialized.bind(values).execute({}), [plan.execute(substituted)])

    def test_plan_without_bound_positions_binds_to_itself(self):
        network, op_positions = _random_network(12)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[:2])
        assert specialized.bind({}) is specialized

    def test_execute_before_bind_raises(self):
        network, op_positions = _random_network(13)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, [], op_positions[:2])
        with pytest.raises(ValidationError, match="bind"):
            specialized.execute({})
        with pytest.raises(ValidationError, match="bound positions"):
            specialized.bind({op_positions[0]: tensors[op_positions[0]]})


class TestBatchedReplayValidation:
    def test_missing_substitution(self):
        network, op_positions = _random_network(7)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[:2])
        stacks = _random_stacks(7, tensors, op_positions[:1], rows=2)
        with pytest.raises(ValidationError, match="missing substitution"):
            specialized.execute(stacks)

    def test_mismatched_batch_sizes(self):
        network, op_positions = _random_network(8)
        plan, tensors = _recorded(network)
        specialized = plan.specialize(tensors, op_positions[:2])
        stacks = _random_stacks(8, tensors, op_positions[:2], rows=3)
        stacks[op_positions[0]] = stacks[op_positions[0]][:2]
        with pytest.raises(ValidationError, match="batch size"):
            specialized.execute(stacks)
