"""Builders turning circuits into tensor networks.

Three diagrams are needed by the library:

1. ``circuit_amplitude_network`` — the ordinary (noiseless) amplitude
   ``⟨v| U_d … U_1 |ψ⟩`` as an ``n``-rail network.
2. ``noisy_doubled_network`` — the paper's Section-III diagram: a ``2n``-rail
   network in which every gate ``U`` appears twice (``U`` on the upper rails
   and ``U*`` on the mirrored lower rails) and every noise channel appears as
   its matrix representation ``M_E = Σ_k E_k ⊗ E_k*`` coupling upper and
   lower rails.  Contracting it yields ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.
3. ``substituted_split_networks`` — the diagrams used by Algorithm 1: when
   every noise is substituted by a Kronecker product ``U_i ⊗ V_i`` the doubled
   network falls apart into two independent ``n``-rail networks which are
   contracted separately and multiplied.

:class:`CircuitPlan` plans one of them once and replays it for every binding
of the circuit's parameters and every batch of noise operators: exact TN, TN
trajectories and Algorithm 1 all run on it.

States are given either as bitstrings (``"0100"``), per-qubit vectors, or a
dense statevector.  Product-state forms keep every boundary tensor rank-1 so
the contraction stays cheap.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.tensornetwork.network import TensorNetwork
from repro.tensornetwork.plan import ContractionPlan
from repro.utils.validation import ValidationError

from repro.xp import declare_seam
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = [
    "StateLike",
    "resolve_product_state",
    "dense_product_state",
    "gate_tensor",
    "instruction_nodes",
    "CircuitRecord",
    "CircuitPlan",
    "operator_amplitude_network",
    "circuit_amplitude_network",
    "noisy_doubled_network",
    "noisy_observable_network",
    "substituted_split_networks",
]

#: Accepted state descriptions: bitstring, per-qubit vectors, or a dense vector.
StateLike = Union[str, Sequence[np.ndarray], np.ndarray]


def resolve_product_state(state: StateLike, num_qubits: int) -> List[np.ndarray] | np.ndarray:
    """Normalise a state description.

    Returns a list of per-qubit 2-vectors when the state is a product state
    (bitstring or explicit factor list) and a dense ``2**n`` vector otherwise.
    """
    if isinstance(state, str):
        if len(state) != num_qubits or any(c not in "01+-" for c in state):
            raise ValidationError(
                f"bitstring {state!r} is not a valid {num_qubits}-qubit product state "
                "(characters 0, 1, +, - allowed)"
            )
        lookup = {
            "0": np.array([1.0, 0.0], dtype=complex),
            "1": np.array([0.0, 1.0], dtype=complex),
            "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        }
        return [lookup[c] for c in state]

    if isinstance(state, (list, tuple)) and len(state) == num_qubits and all(
        np.asarray(factor).size == 2 for factor in state
    ):
        return [np.asarray(factor, dtype=complex).ravel() for factor in state]

    dense = np.asarray(state, dtype=complex).ravel()
    if dense.size != 2**num_qubits:
        raise ValidationError(
            f"state of length {dense.size} does not match {num_qubits} qubits"
        )
    return dense


def dense_product_state(state: StateLike, num_qubits: int) -> np.ndarray:
    """Return ``state`` as a dense ``2**n`` vector (Kronecker product of factors)."""
    resolved = resolve_product_state(state, num_qubits)
    if isinstance(resolved, list):
        dense = np.array([1.0 + 0.0j])
        for factor in resolved:
            dense = np.kron(dense, factor)
        return dense
    return resolved


def gate_tensor(matrix: np.ndarray) -> np.ndarray:
    """The node tensor of a ``2**k × 2**k`` operator: one axis per qubit, outputs first.

    Leading axes of a stack of operators are kept.
    """
    matrix = np.asarray(matrix, dtype=complex)
    qubits = matrix.shape[-1].bit_length() - 1
    return matrix.reshape(matrix.shape[:-2] + (2,) * (2 * qubits))


def instruction_nodes(
    circuit: Circuit, input_state: StateLike, doubled: bool = False
) -> List[Tuple[int, ...]]:
    """Node positions of each instruction's op nodes, in circuit order.

    Follows the node order of the builders here: the input boundary comes
    first (one node per rail for a product state, one node for a dense
    state), then the op nodes in application order.  Single-size networks
    (:func:`circuit_amplitude_network`, either half of
    :func:`substituted_split_networks`, or :func:`operator_amplitude_network`
    with one operation per instruction) give every instruction one node;
    :func:`noisy_doubled_network` (``doubled=True``) gives a gate two, ``U``
    then ``U*``, and a noise channel one.

    >>> from repro.circuits.library import ghz_circuit
    >>> instruction_nodes(ghz_circuit(2), "00")
    [(2,), (3,)]
    >>> instruction_nodes(ghz_circuit(2), "00", doubled=True)
    [(4, 5), (6, 7)]
    """
    n = circuit.num_qubits
    rails = 2 * n if doubled else n
    position = rails if isinstance(resolve_product_state(input_state, n), list) else 1
    layout = []
    for inst in circuit:
        width = 2 if doubled and inst.is_gate else 1
        layout.append(tuple(range(position, position + width)))
        position += width
    return layout


def _same_state(a: StateLike, b: StateLike, num_qubits: int) -> bool:
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    a, b = resolve_product_state(a, num_qubits), resolve_product_state(b, num_qubits)
    if isinstance(a, list) != isinstance(b, list):
        return False
    return all(map(np.array_equal, a, b)) if isinstance(a, list) else np.array_equal(a, b)


class CircuitRecord(NamedTuple):
    """What a prepared plan serves: a circuit structure and its boundary states.

    ``fingerprint`` is :meth:`Circuit.structural_fingerprint`, which every
    binding of a parametric circuit shares.
    """

    fingerprint: str
    input_state: StateLike
    output_state: StateLike

    def check(self, circuit: Circuit, input_state: StateLike, output_state: StateLike) -> None:
        """Raise :class:`ValidationError` unless these are the recorded inputs.

        A bitstring state matches its product factors; a dense vector matches
        only an equal dense vector.
        """
        fingerprint = circuit.structural_fingerprint()
        if fingerprint != self.fingerprint:
            raise ValidationError(
                "prepared plan was recorded for a different circuit "
                f"(fingerprint {self.fingerprint[:12]}…, got {fingerprint[:12]}…)"
            )
        for name, recorded, given in (
            ("input", self.input_state, input_state),
            ("output", self.output_state, output_state),
        ):
            if not _same_state(recorded, given, circuit.num_qubits):
                raise ValidationError(f"prepared plan was recorded for a different {name} state")


class CircuitPlan:
    """A circuit's network, planned once: noise nodes batched, parametric gates bound.

    Built from a circuit, a network the builders here made of it (single-size,
    or the doubled diagram with ``doubled=True``) and its boundary states.
    The plan is specialized (:meth:`ContractionPlan.specialize`) over every
    input but the noise nodes of a single-size network, which :meth:`replay`
    fills per row (a sampled Kraus operator, an SVD factor of an Algorithm-1
    term; the doubled diagram's ``M_E`` stays static), and the
    parametric-gate nodes (``U``, and ``U*`` when doubled), which
    :meth:`bind` reads from the circuit being run after checking it against
    the plan's :class:`CircuitRecord`.

    >>> from repro.circuits import Circuit
    >>> from repro.circuits.parameters import Parameter, substitute
    >>> from repro.noise import depolarizing_channel
    >>> circuit = Circuit(2).rx(Parameter("theta"), 0).cx(0, 1)
    >>> circuit = substitute(circuit.append(depolarizing_channel(0.01), 1), {"theta": 0.3})
    >>> upper, _ = substituted_split_networks(circuit, {0: (np.eye(2), np.eye(2))}, "00", "00")
    >>> single = CircuitPlan(circuit, upper, "00", "00")
    >>> single.noise_positions, single.gate_positions
    ((4,), (2,))
    >>> doubled = noisy_doubled_network(circuit, "00", "00")
    >>> CircuitPlan(circuit, doubled, "00", "00", doubled=True).gate_positions
    (4, 5)
    >>> bound = single.bind(circuit, "00", "00")
    >>> amplitudes = bound.replay(np.zeros((1, 1), int), [np.eye(2)[None]])
    >>> [round(amplitude.real, 6) for amplitude in amplitudes.tolist()]  # cos(θ/2)
    [0.988771]
    """

    def __init__(
        self,
        circuit: Circuit,
        network: TensorNetwork,
        input_state: StateLike,
        output_state: StateLike,
        doubled: bool = False,
        strategy: str = "greedy",
    ) -> None:
        self.plan = ContractionPlan.for_network(network, strategy=strategy)
        layout = instruction_nodes(circuit, input_state, doubled=doubled)
        #: Node positions of the batched noise inputs, in circuit order.
        self.noise_positions: Tuple[int, ...] = () if doubled else tuple(
            layout[index][0] for index, inst in enumerate(circuit) if inst.is_noise
        )
        #: ``(instruction index, node position, conjugated)`` per parametric-gate node.
        self._gates = tuple(
            (index, position, conjugated)
            for index, inst in enumerate(circuit)
            if getattr(inst.operation, "is_parametric_gate", False)
            for position, conjugated in zip(layout[index], (False, True))
        )
        #: Node positions of the bound parametric-gate inputs.
        self.gate_positions = tuple(position for _, position, _ in self._gates)
        self.specialized = self.plan.specialize(
            [node.tensor for node in network.nodes], self.noise_positions, self.gate_positions
        )
        self.record = CircuitRecord(circuit.structural_fingerprint(), input_state, output_state)

    def bind(
        self, circuit: Circuit, input_state: StateLike, output_state: StateLike
    ) -> "CircuitPlan":
        """This plan with ``circuit``'s parametric-gate tensors bound in.

        Raises :class:`ValidationError` unless ``circuit`` (any binding of the
        recorded structure) and the states match the record.  Only the steps
        the gates feed are evaluated.
        """
        self.record.check(circuit, input_state, output_state)
        matrices = {index: circuit[index].operation.matrix for index, _, _ in self._gates}
        bound = copy.copy(self)
        bound.specialized = self.specialized.bind({
            position: gate_tensor(matrices[index].conj() if conjugated else matrices[index])
            for index, position, conjugated in self._gates
        })
        return bound

    def replay(
        self,
        rows: np.ndarray,
        stacks: Sequence,
        xp=None,
        max_intermediate_size: int | None = None,
    ) -> np.ndarray:
        """One amplitude per row of ``rows``, a ``(T, N)`` array of per-noise indices.

        ``stacks[i]`` stacks the operators noise ``i``'s node may take, shaped
        like the node (on ``xp``'s device when given); row ``r`` puts
        ``stacks[i][rows[r, i]]`` there and is bit-identical to a full replay
        (:meth:`SpecializedPlan.execute`).  Without noise inputs the plan's
        one value is one row.
        """
        return self.specialized.execute(
            {
                position: stack[rows[:, noise]]
                for noise, (position, stack) in enumerate(zip(self.noise_positions, stacks))
            },
            xp=xp,
            max_intermediate_size=max_intermediate_size,
        )


def _add_boundary(
    network: TensorNetwork,
    state: StateLike,
    num_qubits: int,
    conjugate: bool,
    label: str,
) -> List:
    """Add input/output boundary nodes and return one dangling edge per qubit."""
    resolved = resolve_product_state(state, num_qubits)
    edges = []
    if isinstance(resolved, list):
        for qubit, factor in enumerate(resolved):
            vec = factor.conj() if conjugate else factor
            node = network.add_node(vec, name=f"{label}{qubit}")
            edges.append(node.edges[0])
    else:
        vec = resolved.conj() if conjugate else resolved
        node = network.add_node(vec.reshape([2] * num_qubits), name=label)
        edges.extend(node.edges)
    return edges


def operator_amplitude_network(
    num_qubits: int,
    operations: Sequence[Tuple[np.ndarray, Sequence[int]]],
    input_state: StateLike,
    output_state: StateLike,
    name: str = "amplitude",
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Build the network for ``⟨v| O_d … O_1 |ψ⟩`` with arbitrary matrices ``O_i``.

    ``operations`` lists ``(matrix, qubits)`` pairs in application order; the
    matrices need not be unitary (the approximation algorithm inserts the SVD
    factors ``U_i``/``V_i`` here).
    """
    network = TensorNetwork(name=name, max_intermediate_size=max_intermediate_size)
    open_edges = _add_boundary(network, input_state, num_qubits, conjugate=False, label="in")

    for op_index, (matrix, qubits) in enumerate(operations):
        qubits = [int(q) for q in qubits]
        k = len(qubits)
        shape = np.shape(matrix)
        if shape != (2**k, 2**k):
            raise ValidationError(
                f"operation {op_index} has shape {shape}, expected {(2**k, 2**k)}"
            )
        for q in qubits:
            if not 0 <= q < num_qubits:
                raise ValidationError(f"operation {op_index} touches invalid qubit {q}")
        node = network.add_node(gate_tensor(matrix), name=f"op{op_index}")
        for j, qubit in enumerate(qubits):
            network.connect(node.edges[k + j], open_edges[qubit])
            open_edges[qubit] = node.edges[j]

    output_edges = _add_boundary(network, output_state, num_qubits, conjugate=True, label="out")
    for qubit in range(num_qubits):
        network.connect(output_edges[qubit], open_edges[qubit])
    return network


def circuit_amplitude_network(
    circuit: Circuit,
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Amplitude network ``⟨v| C |ψ⟩`` for a noiseless circuit ``C``."""
    if not circuit.is_noiseless():
        raise ValidationError(
            "circuit_amplitude_network only handles noiseless circuits; "
            "use noisy_doubled_network for noisy ones"
        )
    operations = [(inst.operation.matrix, inst.qubits) for inst in circuit]
    return operator_amplitude_network(
        circuit.num_qubits,
        operations,
        input_state,
        output_state,
        name=f"{circuit.name}_amplitude",
        max_intermediate_size=max_intermediate_size,
    )


def noisy_doubled_network(
    circuit: Circuit,
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """The paper's doubled (``2n``-qubit) diagram for ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩``.

    Upper rails ``0..n-1`` carry the original circuit, lower rails ``n..2n-1``
    carry the conjugated circuit, and each noise channel becomes a single
    ``M_E`` node straddling the corresponding upper/lower rails.
    """
    n = circuit.num_qubits
    operations: List[Tuple[np.ndarray, List[int]]] = []
    for inst in circuit:
        qubits = list(inst.qubits)
        mirrored = [q + n for q in qubits]
        if inst.is_gate:
            matrix = inst.operation.matrix
            operations.append((matrix, qubits))
            operations.append((matrix.conj(), mirrored))
        else:
            m_e = inst.operation.matrix_representation()
            operations.append((m_e, qubits + mirrored))

    doubled_input = _double_state(input_state, n)
    doubled_output = _double_state(output_state, n)
    return operator_amplitude_network(
        2 * n,
        operations,
        doubled_input,
        doubled_output,
        name=f"{circuit.name}_doubled",
        max_intermediate_size=max_intermediate_size,
    )


def noisy_observable_network(
    circuit: Circuit,
    input_state: StateLike,
    observable_ops: Dict[int, np.ndarray] | None = None,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Doubled diagram evaluating ``tr(O · E_N(|ψ⟩⟨ψ|))`` for a product observable.

    ``observable_ops`` maps qubits to single-qubit operators; unlisted qubits
    carry the identity (i.e. they are traced out).  The output boundary of
    each qubit is a single rank-2 node ``B_i[r, c] = O_i[c, r]`` connecting
    the qubit's upper (row) and lower (column) rails, which closes the trace.

    This extends the paper's diagram from fidelities ``⟨v|E_N(ρ)|v⟩`` to
    expectation values of local observables (e.g. the QAOA cost Hamiltonian
    under noise) without reconstructing any density matrix.
    """
    observable_ops = observable_ops or {}
    n = circuit.num_qubits
    for qubit, op in observable_ops.items():
        if not 0 <= int(qubit) < n:
            raise ValidationError(f"observable touches invalid qubit {qubit}")
        if np.asarray(op).shape != (2, 2):
            raise ValidationError("observable factors must be single-qubit (2x2) operators")

    network = TensorNetwork(
        name=f"{circuit.name}_observable", max_intermediate_size=max_intermediate_size
    )
    resolved = resolve_product_state(input_state, n)
    if isinstance(resolved, list):
        doubled_input: StateLike = resolved + [factor.conj() for factor in resolved]
    else:
        doubled_input = np.kron(resolved, resolved.conj())

    open_edges = _add_boundary(network, doubled_input, 2 * n, conjugate=False, label="in")

    op_index = 0
    for inst in circuit:
        qubits = list(inst.qubits)
        mirrored = [q + n for q in qubits]
        if inst.is_gate:
            matrices = [(inst.operation.matrix, qubits), (inst.operation.matrix.conj(), mirrored)]
        else:
            matrices = [(inst.operation.matrix_representation(), qubits + mirrored)]
        for matrix, target_qubits in matrices:
            k = len(target_qubits)
            node = network.add_node(gate_tensor(matrix), name=f"op{op_index}")
            op_index += 1
            for j, qubit in enumerate(target_qubits):
                network.connect(node.edges[k + j], open_edges[qubit])
                open_edges[qubit] = node.edges[j]

    for qubit in range(n):
        operator = np.asarray(observable_ops.get(qubit, np.eye(2)), dtype=complex)
        boundary = network.add_node(operator.T, name=f"obs{qubit}")
        network.connect(boundary.edges[0], open_edges[qubit])
        network.connect(boundary.edges[1], open_edges[qubit + n])
    return network


def _double_state(state: StateLike, num_qubits: int) -> StateLike:
    """Return the doubled boundary state ``|ψ⟩ ⊗ |ψ*⟩`` in the cheapest representation."""
    resolved = resolve_product_state(state, num_qubits)
    if isinstance(resolved, list):
        return resolved + [factor.conj() for factor in resolved]
    return np.kron(resolved, resolved.conj())


def substituted_split_networks(
    circuit: Circuit,
    substitution: Dict[int, Tuple[np.ndarray, np.ndarray]],
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> Tuple[TensorNetwork, TensorNetwork]:
    """Build the two independent ``n``-rail networks of a fully substituted term.

    ``substitution`` maps the *noise occurrence index* (0-based position among
    the circuit's noise instructions, in order) to a pair ``(U, V)`` so that
    the noise's matrix representation is replaced by ``U ⊗ V``.  Every noise
    occurrence must be substituted — that is what makes the doubled diagram
    factorise into the upper network (⟨v| … U … |ψ⟩) and the lower network
    (⟨v*| … V … |ψ*⟩).

    Node for node, the lower network is the conjugate of the upper one with
    ``conj(V)`` in place of ``U``: its value is the conjugate of the upper
    network's value under that substitution, which is how Algorithm 1
    evaluates both halves with one recorded plan.
    """
    upper_ops: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    lower_ops: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    noise_index = 0
    for inst in circuit:
        if inst.is_gate:
            upper_ops.append((inst.operation.matrix, inst.qubits))
            lower_ops.append((inst.operation.matrix.conj(), inst.qubits))
        else:
            if noise_index not in substitution:
                raise ValidationError(
                    f"noise occurrence {noise_index} has no substitution; "
                    "all noises must be substituted to split the diagram"
                )
            upper_matrix, lower_matrix = substitution[noise_index]
            upper_ops.append((np.asarray(upper_matrix, dtype=complex), inst.qubits))
            lower_ops.append((np.asarray(lower_matrix, dtype=complex), inst.qubits))
            noise_index += 1
    if noise_index != len(substitution):
        raise ValidationError(
            f"substitution has {len(substitution)} entries but the circuit has "
            f"{noise_index} noise occurrences"
        )

    upper = operator_amplitude_network(
        circuit.num_qubits,
        upper_ops,
        input_state,
        output_state,
        name=f"{circuit.name}_upper",
        max_intermediate_size=max_intermediate_size,
    )
    resolved_in = resolve_product_state(input_state, circuit.num_qubits)
    resolved_out = resolve_product_state(output_state, circuit.num_qubits)
    conj_in = (
        [f.conj() for f in resolved_in] if isinstance(resolved_in, list) else resolved_in.conj()
    )
    conj_out = (
        [f.conj() for f in resolved_out] if isinstance(resolved_out, list) else resolved_out.conj()
    )
    lower = operator_amplitude_network(
        circuit.num_qubits,
        lower_ops,
        conj_in,
        conj_out,
        name=f"{circuit.name}_lower",
        max_intermediate_size=max_intermediate_size,
    )
    return upper, lower
