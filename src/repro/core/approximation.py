"""The paper's approximation algorithm for noisy circuit simulation (Algorithm 1).

Given a noisy circuit ``E_N`` with ``N`` noise channels, an input state
``|ψ⟩``, an output state ``|v⟩`` and an approximation level ``l``, the
algorithm

1. SVD-decomposes every noise's matrix representation into
   ``M_E = Σ_{i=0..3} U_i ⊗ V_i`` (:mod:`repro.core.svd_decomposition`);
2. enumerates every way of replacing at most ``l`` noises by one of their
   sub-dominant terms (``i ∈ {1,2,3}``) while all remaining noises use the
   dominant term ``U_0 ⊗ V_0``;
3. evaluates each substituted diagram as the product of two independent
   single-size tensor-network contractions (upper and lower half) and sums
   the contributions.  The lower half is the conjugate of the upper network
   with ``conj(V_i)`` for ``U_i``, so both halves are rows of one replay.

The result ``A(l)`` approximates the fidelity ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` with
the Theorem-1 error bound; ``l = N`` recovers the exact value.

Both the bound and the cost are indexed by the noise count ``N``, which is
why the session-layer compiler passes (:mod:`repro.circuits.passes`) only
shrink it in ways that cannot change the remaining channels' sampling
structure for this backend: folding a *unitary* channel into a gate removes
a channel whose SVD has a single term (its level budget was free), and
pruning removes channels provably acting as the identity on the boundary —
while channel *merging*, which rewrites ``N`` arbitrarily, stays reserved
for the exact superoperator backends.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.error_bounds import contraction_count, theorem1_error_bound
from repro.core.svd_decomposition import NoiseTermDecomposition, decompose_noise
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork.circuit_to_tn import (
    CircuitPlan,
    StateLike,
    dense_product_state,
    gate_tensor,
    substituted_split_networks,
)
from repro.utils.validation import ValidationError

__all__ = [
    "ApproximationResult",
    "ApproximateNoisySimulator",
    "PreparedApproximation",
    "term_indices",
]


@dataclass(frozen=True)
class PreparedApproximation:
    """One-time work of Algorithm 1, reusable across levels and repeat runs.

    Every substituted term of the algorithm produces the *same* upper network
    topology (only the inserted ``U_i`` tensor values change), and the lower
    network is that network's complex conjugate with ``conj(V_i)`` inserted.
    So the noise decompositions and the upper network's
    :class:`~repro.tensornetwork.circuit_to_tn.CircuitPlan` can be computed
    once — by :meth:`ApproximateNoisySimulator.prepare` — and replayed for a
    whole batch of both halves' terms with the noise tensors swapped in.  The
    plan is level-independent: one prepared object serves
    ``fidelity(..., level=l)`` for every ``l``, and every binding of the
    prepared circuit's parameters, but only that circuit structure and those
    boundary states (:meth:`CircuitPlan.bind` checks).
    """

    decompositions: Tuple[NoiseTermDecomposition, ...]
    #: The upper network's plan: noise nodes batched, parametric gates bound.
    circuit_plan: CircuitPlan
    #: Per noise, its ``K`` terms' ``U_i`` and then their ``conj(V_i)``
    #: stacked along a leading axis (``2K`` entries), shaped like the noise's
    #: template node.
    terms: Tuple[np.ndarray, ...]

    def describe(self) -> dict:
        """Plan-cost summary (what :meth:`repro.api.Executable.describe` reports)."""
        return {
            "num_noises": len(self.decompositions),
            **self.circuit_plan.plan.describe(),
            "residual_steps": self.circuit_plan.specialized.num_residual_steps,
        }


def term_indices(
    decompositions: Sequence[NoiseTermDecomposition], level: int
) -> Tuple[np.ndarray, List[int]]:
    """Algorithm 1's terms up to ``level`` as rows of per-noise term indices.

    Row ``r`` substitutes term ``rows[r, i]`` of noise ``i`` (0 = dominant).
    Rows come grouped by level — level ``k`` is ``rows[offsets[k]:offsets[k + 1]]``
    — and, within a level, in the order of position combinations and then of
    sub-dominant assignments.
    """
    num_noises = len(decompositions)
    blocks = []
    offsets = [0]
    for k in range(level + 1):
        count = 0
        for positions in itertools.combinations(range(num_noises), k):
            # Each selected position can use any of its sub-dominant terms.
            assignments = list(itertools.product(
                *(range(1, decompositions[p].num_terms) for p in positions)
            ))
            block = np.zeros((len(assignments), num_noises), dtype=np.intp)
            if positions and assignments:
                block[:, list(positions)] = assignments
            blocks.append(block)
            count += len(assignments)
        offsets.append(offsets[-1] + count)
    return np.concatenate(blocks), offsets


@dataclass(frozen=True)
class ApproximationResult:
    """Outcome of one run of the approximation algorithm."""

    value: float
    level: int
    num_noises: int
    num_terms: int
    num_contractions: int
    level_contributions: Tuple[float, ...]
    max_noise_rate: float
    elapsed_seconds: float
    #: Batched plan replays the run made (one per batch of terms, serving
    #: both halves; 0 with the dense ``"statevector"`` term backend).
    replay_calls: int = 0

    @property
    def error_bound(self) -> float:
        """Theorem-1 a-priori bound on ``|F − A(l)|`` for this run."""
        return theorem1_error_bound(self.num_noises, self.max_noise_rate, self.level)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"A({self.level}) = {self.value:.8f} "
            f"(noises={self.num_noises}, terms={self.num_terms}, "
            f"contractions={self.num_contractions}, bound={self.error_bound:.2e})"
        )


def _stacked_terms(decompositions: Sequence[NoiseTermDecomposition]) -> Tuple[np.ndarray, ...]:
    """Per noise, its terms' ``U_i`` then their ``conj(V_i)``, stacked as node tensors."""
    stacks = []
    for decomposition in decompositions:
        pairs = np.asarray(decomposition.terms, dtype=complex)
        stacks.append(gate_tensor(np.concatenate([pairs[:, 0], pairs[:, 1].conj()])))
    return tuple(stacks)


class ApproximateNoisySimulator:
    """Implementation of Algorithm 1 (ApproximationNoisySimulation).

    This is the algorithm-level class; at the service level the same
    computation is dispatched through the registry as backend
    ``"approximation"`` (alias ``"ours"``) — e.g.
    ``repro.api.simulate(circuit, backend="approximation", level=1)`` — whose
    unified result carries ``error_bound`` and provenance.

    Example — a level-1 run on a noisy GHZ circuit, checked against the exact
    value (level ``N``) and the Theorem-1 a-priori bound::

        >>> from repro.circuits.library import ghz_circuit
        >>> from repro.core import ApproximateNoisySimulator
        >>> from repro.noise import NoiseModel, depolarizing_channel
        >>> model = NoiseModel(depolarizing_channel(0.01), seed=1)
        >>> noisy = model.insert_random(ghz_circuit(2), 2)
        >>> simulator = ApproximateNoisySimulator(level=1)
        >>> result = simulator.fidelity(noisy)
        >>> result.level, result.num_noises
        (1, 2)
        >>> exact = simulator.exact_fidelity(noisy)
        >>> abs(result.value - exact.value) <= result.error_bound
        True
    """

    def __init__(
        self,
        level: int = 1,
        backend: str = "tn",
        max_intermediate_size: int | None = 2**26,
        strategy: str = "greedy",
        drop_tolerance: float = 1e-14,
    ) -> None:
        if level < 0:
            raise ValidationError("level must be non-negative")
        if backend not in ("tn", "statevector"):
            raise ValidationError(f"unknown backend {backend!r}")
        #: Default approximation level ``l`` (the paper recommends 1).
        self.level = int(level)
        #: "tn" contracts each half diagram as a tensor network; "statevector"
        #: evaluates it by dense matrix application (useful for small circuits
        #: and for cross-checking the TN path).
        self.backend = backend
        self.max_intermediate_size = max_intermediate_size
        self.strategy = strategy
        self.drop_tolerance = drop_tolerance

    # ------------------------------------------------------------------
    # Decomposition of the circuit's noises
    # ------------------------------------------------------------------
    def decompose_noises(self, circuit: Circuit) -> List[NoiseTermDecomposition]:
        """SVD-decompose every noise channel of ``circuit`` (in occurrence order)."""
        decompositions = []
        for inst in circuit.noise_instructions:
            decompositions.append(
                decompose_noise(inst.operation, drop_tolerance=self.drop_tolerance)
            )
        return decompositions

    # ------------------------------------------------------------------
    # One-time preparation (compile step of the service layer)
    # ------------------------------------------------------------------
    def prepare(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> PreparedApproximation:
        """Precompute the term-independent work of Algorithm 1 for ``circuit``.

        SVD-decomposes every noise channel and plans the dominant-term upper
        network as a :class:`~repro.tensornetwork.circuit_to_tn.CircuitPlan`
        (noise nodes batched, parametric gates bound); every substituted
        term's two halves share its topology
        (:func:`substituted_split_networks`), so :meth:`fidelity` replays it
        once for a batch of all terms' noise tensors instead of building and
        greedy-ordering two fresh networks per term.  Values are
        bit-identical to contracting each term's own networks (the greedy
        heuristic decides from tensor *shapes* only).
        """
        if self.backend != "tn":
            raise ValidationError(
                "prepare() applies to the tn term backend only "
                f"(this simulator evaluates terms via {self.backend!r})"
            )
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state
        decompositions = self.decompose_noises(circuit)
        dominant = {
            index: decomposition.terms[0]
            for index, decomposition in enumerate(decompositions)
        }
        upper, _ = substituted_split_networks(
            circuit,
            dominant,
            input_state,
            output_state,
            max_intermediate_size=self.max_intermediate_size,
        )
        return PreparedApproximation(
            decompositions=tuple(decompositions),
            circuit_plan=CircuitPlan(
                circuit, upper, input_state, output_state, strategy=self.strategy
            ),
            terms=_stacked_terms(decompositions),
        )

    def _term_evaluator(
        self,
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
        prepared: PreparedApproximation | None = None,
    ) -> Tuple[List[NoiseTermDecomposition], Callable[[np.ndarray], Tuple[List[complex], int]]]:
        """The noise decompositions and the batch evaluator of one run.

        The evaluator maps a ``(T, N)`` array of term-index rows (see
        :func:`term_indices`) to the ``T`` term values ``upper × lower`` and
        the number of batched plan replays it made.  With the ``"tn"`` term
        backend the rows replay the plan of ``prepared`` — which must have
        been prepared for this circuit's structure and these boundary states,
        and is prepared here when not given — bound to this circuit's gates,
        in one batched call: ``T`` rows of ``U_i`` give the upper halves,
        ``T`` rows of ``conj(V_i)`` the conjugated lower ones.  The
        ``"statevector"`` backend applies each term's matrices densely.
        """
        if prepared is None and self.backend == "tn":
            prepared = self.prepare(circuit, input_state, output_state)
        if prepared is None:
            decompositions = self.decompose_noises(circuit)

            def evaluate_dense(rows: np.ndarray) -> Tuple[List[complex], int]:
                values = []
                for row in rows.tolist():
                    substitution = {
                        noise_index: decompositions[noise_index].terms[term_index]
                        for noise_index, term_index in enumerate(row)
                    }
                    values.append(self._evaluate_term_statevector(
                        circuit, substitution, input_state, output_state
                    ))
                return values, 0

            return decompositions, evaluate_dense

        circuit_plan = prepared.circuit_plan.bind(circuit, input_state, output_state)
        # A noise's conj(V_i) sits K entries after its U_i in its stack.
        lower_offsets = np.array([d.num_terms for d in prepared.decompositions], dtype=np.intp)

        def evaluate(rows: np.ndarray) -> Tuple[List[complex], int]:
            values = circuit_plan.replay(
                np.concatenate([rows, rows + lower_offsets]),
                prepared.terms,
                max_intermediate_size=self.max_intermediate_size,
            ).tolist()
            # Without noises the plan has no variable input and returns its
            # one row, which is then both halves.  Python complex products:
            # numpy's vectorised multiply may round differently from the
            # scalar product of one term's two halves.
            count = len(rows)
            return [
                upper * lower.conjugate()
                for upper, lower in zip(values[:count], values[len(values) - count:])
            ], 1

        return list(prepared.decompositions), evaluate

    def _evaluate_term_statevector(
        self,
        circuit: Circuit,
        substitution: Dict[int, Tuple[np.ndarray, np.ndarray]],
        input_state: StateLike,
        output_state: StateLike,
    ) -> complex:
        n = circuit.num_qubits
        if n > 20:
            raise MemoryError("statevector backend limited to 20 qubits")
        psi = dense_product_state(input_state, n)
        v = dense_product_state(output_state, n)
        upper = psi.copy()
        lower = psi.conj().copy()
        noise_index = 0
        for inst in circuit:
            if inst.is_gate:
                upper = apply_matrix(upper, inst.operation.matrix, inst.qubits, n)
                lower = apply_matrix(lower, inst.operation.matrix.conj(), inst.qubits, n)
            else:
                u_matrix, v_matrix = substitution[noise_index]
                upper = apply_matrix(upper, u_matrix, inst.qubits, n)
                lower = apply_matrix(lower, v_matrix, inst.qubits, n)
                noise_index += 1
        upper_value = complex(np.vdot(v, upper))
        lower_value = complex(np.vdot(v.conj(), lower))
        return upper_value * lower_value

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
        level: int | None = None,
        prepared: PreparedApproximation | None = None,
    ) -> ApproximationResult:
        """Return the level-``l`` approximation ``A(l)`` of ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩``.

        ``input_state`` and ``output_state`` default to ``|0…0⟩`` as in the
        paper's Table II experiments.  The terms are enumerated as rows of
        term indices (:func:`term_indices`); with the ``"tn"`` term backend
        both halves of all of them are evaluated by one batched replay of the
        plan recorded by :meth:`prepare`.  ``prepared`` supplies that plan
        when already recorded; it must come from the same circuit structure
        (any binding of its parameters) and boundary states
        (:class:`ValidationError` otherwise).  Without it this call records
        it.
        """
        start = time.perf_counter()
        level = self.level if level is None else int(level)
        if level < 0:
            raise ValidationError("level must be non-negative")
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state

        decompositions, evaluate = self._term_evaluator(
            circuit, input_state, output_state, prepared
        )
        num_noises = len(decompositions)
        level = min(level, num_noises)
        rows, offsets = term_indices(decompositions, level)
        values, replay_calls = evaluate(rows)

        # Sum each level's contributions in enumeration order, then the total.
        total = 0.0 + 0.0j
        level_contributions: List[float] = []
        for k in range(level + 1):
            contribution = 0.0 + 0.0j
            for value in values[offsets[k]:offsets[k + 1]]:
                contribution += value
            level_contributions.append(float(np.real(contribution)))
            total += contribution
        num_terms = len(values)

        max_rate = max((d.noise_rate for d in decompositions), default=0.0)
        elapsed = time.perf_counter() - start
        return ApproximationResult(
            value=float(np.real(total)),
            level=level,
            num_noises=num_noises,
            num_terms=num_terms,
            num_contractions=2 * num_terms,
            level_contributions=tuple(level_contributions),
            max_noise_rate=max_rate,
            elapsed_seconds=elapsed,
            replay_calls=replay_calls,
        )

    # ------------------------------------------------------------------
    def level_for_error(
        self,
        circuit: Circuit,
        target_error: float,
        max_level: int | None = None,
    ) -> int:
        """Smallest level whose Theorem-1 bound meets ``target_error`` for this circuit.

        Uses only the a-priori bound (no simulation), so it can be called
        before committing to an expensive run; combine with
        :func:`repro.core.error_bounds.contraction_count` to budget the cost.
        """
        if target_error <= 0:
            raise ValidationError("target_error must be positive")
        decompositions = self.decompose_noises(circuit)
        num_noises = len(decompositions)
        max_rate = max((d.noise_rate for d in decompositions), default=0.0)
        ceiling = num_noises if max_level is None else min(int(max_level), num_noises)
        for level in range(ceiling + 1):
            if theorem1_error_bound(num_noises, max_rate, level) <= target_error:
                return level
        return ceiling

    def fidelity_to_error(
        self,
        circuit: Circuit,
        target_error: float,
        input_state: StateLike = None,
        output_state: StateLike = None,
        max_level: int | None = None,
    ) -> ApproximationResult:
        """Run Algorithm 1 at the cheapest level whose a-priori bound meets ``target_error``."""
        level = self.level_for_error(circuit, target_error, max_level=max_level)
        return self.fidelity(circuit, input_state, output_state, level=level)

    # ------------------------------------------------------------------
    def exact_fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> ApproximationResult:
        """Run the algorithm at level ``N`` (all noises), which is exact."""
        return self.fidelity(
            circuit, input_state, output_state, level=circuit.noise_count()
        )

    def planned_contractions(self, circuit: Circuit, level: int | None = None) -> int:
        """Number of contractions Algorithm 1 will perform (Theorem 1 count)."""
        level = self.level if level is None else int(level)
        return contraction_count(circuit.noise_count(), level)
