"""Working-precision audit: complex64 opt-in stays within statistical contracts.

The per-backend tolerance contracts live in :mod:`repro.verify.oracles`
(:class:`~repro.verify.oracles.CrossBackendAgreement`): stochastic backends
get an absolute floor of ``stochastic_floor``.  Single precision introduces
an error far below that floor on the few-qubit verification workloads, so a
complex64 statevector run must agree with the complex128 reference within
the *same* contract the conformance harness applies to sampled values —
that is what makes complex64 safe to enable on accelerators where it doubles
throughput.
"""

import numpy as np
import pytest

from repro.circuits.library import benchmark_circuit, ghz_circuit, qft_circuit
from repro.simulators import StatevectorSimulator
from repro.verify.oracles import CrossBackendAgreement
from repro.xp import KNOWN_DEVICES, get_namespace

#: The statistical floor the conformance oracles grant stochastic backends.
FLOOR = CrossBackendAgreement().stochastic_floor


def _workloads():
    cases = [ghz_circuit(5), qft_circuit(4)]
    for seed in range(4):
        cases.append(benchmark_circuit("qaoa_5", seed=seed))
        cases.append(benchmark_circuit("inst_2x3_8", seed=seed))
    return cases


class TestComplex64Contract:
    def test_namespace_dtype_parameter_is_explicit(self):
        xp = get_namespace("cpu", dtype="complex64")
        assert xp.complex_dtype == np.dtype(np.complex64)
        with pytest.raises(ValueError, match="complex64 or complex128"):
            get_namespace("cpu", dtype="float64")

    @pytest.mark.parametrize("index,circuit", list(enumerate(_workloads())))
    def test_complex64_statevector_within_the_stochastic_floor(self, index, circuit):
        reference = StatevectorSimulator().run(circuit)
        single = StatevectorSimulator(dtype="complex64").run(circuit)
        assert single.dtype == np.complex64
        # State fidelity |<psi64|psi128>|^2 within the statistical contract.
        overlap = abs(np.vdot(single.astype(np.complex128), reference)) ** 2
        assert overlap == pytest.approx(1.0, abs=FLOOR)
        # Per-amplitude probabilities agree within the same floor.
        assert np.max(np.abs(np.abs(single) ** 2 - np.abs(reference) ** 2)) < FLOOR

    def test_complex64_contract_holds_on_every_device(self):
        circuit = benchmark_circuit("qaoa_4", seed=2)
        reference = StatevectorSimulator().run(circuit)
        for device in KNOWN_DEVICES:
            single = StatevectorSimulator(device=device, dtype="complex64").run(circuit)
            overlap = abs(np.vdot(single.astype(np.complex128), reference)) ** 2
            assert overlap == pytest.approx(1.0, abs=FLOOR), device

    def test_complex64_fidelity_quantity_within_floor(self):
        # The paper's measured quantity |<0|C|0>|^2 through the amplitude path.
        circuit = qft_circuit(5)
        v = np.zeros(2**5, dtype=complex)
        v[0] = 1.0
        reference = abs(StatevectorSimulator().amplitude(circuit, v)) ** 2
        single = abs(StatevectorSimulator(dtype="complex64").amplitude(circuit, v)) ** 2
        assert single == pytest.approx(reference, abs=FLOOR)
