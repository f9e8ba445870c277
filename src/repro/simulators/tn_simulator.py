"""Tensor-network (TN-based) exact noisy simulator.

This is the "TN-based method" baseline of the paper (and the exact algorithm
of its Section III): build the doubled tensor-network diagram in which every
gate appears as ``U`` and ``U*`` and every noise as its matrix representation
``M_E``, then contract the whole network to obtain
``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.

The contraction respects an optional intermediate-size budget; exceeding it
raises :class:`~repro.tensornetwork.network.ContractionMemoryError`, which the
benchmark harness reports as "MO" exactly like the paper's Table II.

The replay hot path (:class:`PreparedFidelity`) dispatches its batched
replay through an :class:`repro.xp.ArrayNamespace` when the simulator is
constructed with ``device=``.  Network *construction*, the ordering search
and the partial evaluation of a plan stay on the host.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.tensornetwork.circuit_to_tn import (
    CircuitPlan,
    StateLike,
    circuit_amplitude_network,
    noisy_doubled_network,
    noisy_observable_network,
)
from repro.xp import declare_seam, get_namespace
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = ["PreparedFidelity", "TNSimulator"]


class PreparedFidelity:
    """A planned fidelity contraction, evaluated without re-planning.

    Produced by :meth:`TNSimulator.prepare`: the network construction and the
    contraction-ordering search are paid once, in a
    :class:`~repro.tensornetwork.circuit_to_tn.CircuitPlan` that evaluates
    every tensor that cannot change.  For a circuit without parametric gates
    that is the whole contraction, so :meth:`execute` only returns the value.

    The parametric gates are the plan's *bound* inputs: the schedule depends
    only on tensor shapes, so one prepared plan serves every binding of the
    structure.  :meth:`execute` reads those gates' tensors from the circuit
    being run and replays only the steps that depend on them — no network
    build, no ordering search.
    """

    __slots__ = ("circuit_plan", "noiseless", "_xp")

    def __init__(self, circuit_plan: CircuitPlan, noiseless: bool, xp=None) -> None:
        self.circuit_plan = circuit_plan
        self.noiseless = noiseless
        #: Replay namespace (None = host numpy).
        self._xp = xp

    def execute(self, circuit: Circuit, input_state: StateLike, output_state: StateLike) -> float:
        """Return the fidelity of ``circuit``, a binding of the prepared structure.

        ``circuit`` and the boundary states must be the prepared ones
        (:class:`~repro.utils.validation.ValidationError` otherwise).
        """
        bound = self.circuit_plan.bind(circuit, input_state, output_state)
        # No batched input: the plan's one row is the value.
        value = complex(bound.replay(np.empty((1, 0), dtype=int), (), xp=self._xp)[0])
        if self.noiseless:
            return float(abs(value) ** 2)
        return float(np.real(value))

    def describe(self) -> dict:
        """Plan-cost summary (node count, steps, peak intermediate size)."""
        return {
            "noiseless": self.noiseless,
            "parametric": bool(self.circuit_plan.gate_positions),
            **self.circuit_plan.plan.describe(),
        }


class TNSimulator:
    """Exact noisy simulation by contraction of the doubled tensor network."""

    def __init__(
        self,
        max_intermediate_size: int | None = 2**26,
        strategy: str = "greedy",
        device: str | None = None,
    ) -> None:
        #: Budget on the entry count of any intermediate tensor (None = unlimited).
        self.max_intermediate_size = max_intermediate_size
        #: Contraction-order heuristic ("greedy" or "sequential").
        self.strategy = strategy
        #: Replay device for prepared plans (None = host; construction and
        #: the ordering search always run on the host).
        self.device = device
        self._xp = None if device is None else get_namespace(device)

    # ------------------------------------------------------------------
    def amplitude(
        self,
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
    ) -> complex:
        """Return ``⟨v| C |ψ⟩`` for a noiseless circuit (single-size network)."""
        network = circuit_amplitude_network(
            circuit,
            input_state,
            output_state,
            max_intermediate_size=self.max_intermediate_size,
        )
        return network.contract_to_scalar(strategy=self.strategy)

    def fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> float:
        """Return ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.

        ``input_state`` and ``output_state`` default to ``|0…0⟩``.  Both may
        be bitstrings, per-qubit product factors or dense vectors.
        """
        prepared = self.prepare(circuit, input_state, output_state)
        _, input_state, output_state = prepared.circuit_plan.record  # defaults resolved
        return prepared.execute(circuit, input_state, output_state)

    def prepare(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> PreparedFidelity:
        """Plan this fidelity evaluation once, for every binding of ``circuit``.

        Builds the same network :meth:`fidelity` would and plans it as a
        :class:`~repro.tensornetwork.circuit_to_tn.CircuitPlan` (every tensor
        but the parametric gates' is evaluated once), so repeated evaluations
        of the same circuit/boundary configuration skip the network
        construction and ordering search entirely.
        """
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state
        noiseless = circuit.is_noiseless()
        build = circuit_amplitude_network if noiseless else noisy_doubled_network
        network = build(
            circuit, input_state, output_state, max_intermediate_size=self.max_intermediate_size
        )
        circuit_plan = CircuitPlan(
            circuit, network, input_state, output_state,
            doubled=not noiseless, strategy=self.strategy,
        )
        return PreparedFidelity(circuit_plan, noiseless, xp=self._xp)

    def expectation(
        self,
        circuit: Circuit,
        observable,
        input_state: StateLike = None,
        lightcone: bool = True,
    ) -> float:
        """Return ``tr(O · E_N(|ψ⟩⟨ψ|))`` for a Pauli-sum observable ``O``.

        ``observable`` is a :class:`repro.circuits.observables.PauliObservable`
        (or a single :class:`PauliTerm`).  Each term is evaluated by one
        contraction of the doubled diagram with the trace-closure boundary —
        no density matrix is ever materialised, so this works for noisy
        circuits beyond the reach of the density-matrix simulator.

        With ``lightcone=True`` (the default) each term's network is built
        from the circuit restricted to the backward causal cone of that
        term's support (:func:`repro.circuits.passes.prune_to_observable_cone`)
        — exact, because the qubits outside the cone are traced out and every
        dropped site is trace preserving.  A local term of a shallow circuit
        then contracts a much smaller network than the full diagram.
        """
        from repro.circuits.observables import PauliObservable, PauliTerm
        from repro.circuits.passes import prune_to_observable_cone

        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        if isinstance(observable, PauliTerm):
            observable = PauliObservable([observable])
        total = observable.constant
        for term in observable:
            operator_map = term.operator_map()
            term_circuit = circuit
            if lightcone and operator_map:
                term_circuit, _ = prune_to_observable_cone(circuit, operator_map.keys())
            network = noisy_observable_network(
                term_circuit,
                input_state,
                operator_map,
                max_intermediate_size=self.max_intermediate_size,
            )
            value = network.contract_to_scalar(strategy=self.strategy)
            total += term.coefficient * float(np.real(value))
        return float(total)

    def matrix_element(
        self,
        circuit: Circuit,
        bra_state: StateLike,
        ket_state: StateLike,
        input_state: StateLike = None,
    ) -> complex:
        """Return ``⟨x| E_N(|ψ⟩⟨ψ|) |y⟩`` via the polarisation identity of Section III.

        Each of the four terms is itself a fidelity-style evaluation with a
        superposed boundary state, so arbitrary density-matrix elements reduce
        to four contractions of the doubled diagram.
        """
        from repro.tensornetwork.circuit_to_tn import dense_product_state

        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state

        x = dense_product_state(bra_state, n)
        y = dense_product_state(ket_state, n)
        terms = [
            (0.25, x + y),
            (-0.25, x - y),
            (-0.25j, x + 1j * y),
            (0.25j, x - 1j * y),
        ]
        total = 0.0 + 0.0j
        for coefficient, vector in terms:
            norm = np.linalg.norm(vector)
            if norm < 1e-15:
                continue
            value = self.fidelity(circuit, input_state, vector / norm)
            total += coefficient * (norm**2) * value
        return complex(total)
