"""Estimating arbitrary density-matrix elements (Section III's polarisation identity).

The simulators and the approximation algorithm natively compute diagonal
quantities of the form ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩``.  The paper points out that any
matrix element ``⟨x| E_N(rho) |y⟩`` follows from four such evaluations:

``⟨x|E(ρ)|y⟩ = ¼[ ⟨w₊|E(ρ)|w₊⟩ − ⟨w₋|E(ρ)|w₋⟩ − i⟨w_{+i}|E(ρ)|w_{+i}⟩ + i⟨w_{−i}|E(ρ)|w_{−i}⟩ ]``

with ``w₊ = x + y``, ``w₋ = x − y``, ``w_{±i} = x ± i y``.  This module applies
that identity on top of *any* estimator exposing
``fidelity(circuit, input_state, output_state)`` — the exact TN simulator, the
approximation algorithm, or the trajectories baseline — and can reconstruct a
full output density matrix element by element for small registers.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.circuits.circuit import Circuit
from repro.tensornetwork.circuit_to_tn import StateLike, dense_product_state
from repro.utils.validation import ValidationError, check_statevector

__all__ = ["FidelityEstimator", "estimate_matrix_element", "estimate_density_matrix"]


class FidelityEstimator(Protocol):
    """Anything that can estimate ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩``."""

    def fidelity(self, circuit: Circuit, input_state=None, output_state=None):  # pragma: no cover
        ...


def _as_float(value) -> float:
    """Unwrap estimator results that carry metadata (ApproximationResult etc.)."""
    if hasattr(value, "value"):
        return float(value.value)
    if hasattr(value, "estimate"):
        return float(value.estimate)
    return float(value)


def estimate_matrix_element(
    estimator: FidelityEstimator,
    circuit: Circuit,
    bra_state: StateLike,
    ket_state: StateLike,
    input_state: StateLike = None,
) -> complex:
    """Estimate ``⟨x| E_N(|ψ⟩⟨ψ|) |y⟩`` with four fidelity evaluations."""
    n = circuit.num_qubits
    input_state = "0" * n if input_state is None else input_state
    x = check_statevector(dense_product_state(bra_state, n), name="bra_state")
    y = check_statevector(dense_product_state(ket_state, n), name="ket_state")
    if x.size != 2**n or y.size != 2**n:
        raise ValidationError("bra/ket dimensions do not match the circuit")

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
        value = _as_float(estimator.fidelity(circuit, input_state, vector / norm))
        total += coefficient * (norm**2) * value
    return complex(total)


def estimate_density_matrix(
    estimator: FidelityEstimator,
    circuit: Circuit,
    input_state: StateLike = None,
    max_qubits: int = 6,
) -> np.ndarray:
    """Reconstruct the full output density matrix element by element.

    This needs ``O(4**n)`` fidelity evaluations and is intended for small
    registers (validation, visualisation, and the extended experiments).
    """
    n = circuit.num_qubits
    if n > max_qubits:
        raise ValidationError(
            f"density-matrix reconstruction limited to {max_qubits} qubits (got {n})"
        )
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    basis = np.eye(dim, dtype=complex)
    for row in range(dim):
        # Diagonal elements are plain fidelities.
        rho[row, row] = _as_float(
            estimator.fidelity(circuit, input_state, basis[:, row])
        )
        for col in range(row + 1, dim):
            element = estimate_matrix_element(
                estimator, circuit, basis[:, row], basis[:, col], input_state
            )
            rho[row, col] = element
            rho[col, row] = np.conj(element)
    return rho
