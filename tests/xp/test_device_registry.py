"""Registry behaviour: device resolution, env default, seam declarations."""

import pytest

from repro.api import Session
from repro.circuits.library import ghz_circuit
from repro.cli import main
from repro.sweeps import load_spec
from repro.utils.validation import ValidationError
from repro.xp import (
    KNOWN_DEVICES,
    declare_seam,
    default_device,
    get_namespace,
    seam_modules,
)


class TestResolution:
    def test_cpu_is_the_numpy_reference(self):
        xp = get_namespace("cpu")
        assert xp.name == "numpy" and xp.device == "cpu"

    def test_fake_gpu_always_available(self):
        assert get_namespace("fake_gpu").device == "fake_gpu"

    def test_namespaces_are_cached(self):
        assert get_namespace("cpu") is get_namespace("cpu")

    def test_dtype_variants_are_distinct_instances(self):
        import numpy as np

        single = get_namespace("cpu", dtype="complex64")
        assert single is not get_namespace("cpu")
        assert single.complex_dtype == np.dtype(np.complex64)
        assert single.real_dtype == np.dtype(np.float32)

    def test_unknown_device_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown device"):
            get_namespace("tpu")

    def test_known_devices_are_the_two_tested_namespaces(self):
        assert KNOWN_DEVICES == ("cpu", "fake_gpu")
        assert [get_namespace(device).device for device in KNOWN_DEVICES] == list(
            KNOWN_DEVICES
        )


def _through_get_namespace(device, monkeypatch):
    get_namespace(device)


def _through_env_default(device, monkeypatch):
    monkeypatch.setenv("REPRO_DEVICE", device)
    get_namespace(None)


def _through_session_default(device, monkeypatch):
    Session(device=device)


def _through_per_call_device(device, monkeypatch):
    with Session(device="cpu") as session:
        session.run(ghz_circuit(2), backend="statevector", device=device)


def _through_sweep_spec(device, monkeypatch):
    load_spec(
        {
            "name": "device_check",
            "device": device,
            "grid": {"circuit": ["ghz_2"], "backend": ["statevector"]},
        }
    )


@pytest.mark.parametrize("device", ["cuda", "auto"])
@pytest.mark.parametrize(
    "entry",
    [
        _through_get_namespace,
        _through_env_default,
        _through_session_default,
        _through_per_call_device,
        _through_sweep_spec,
    ],
    ids=lambda entry: entry.__name__.removeprefix("_through_"),
)
def test_removed_device_strings_are_unknown_everywhere(entry, device, monkeypatch):
    """``cuda``/``auto`` are not devices: each entry point names the known ones."""
    with pytest.raises(ValidationError, match="known: cpu, fake_gpu") as excinfo:
        entry(device, monkeypatch)
    assert repr(device) in str(excinfo.value)


@pytest.mark.parametrize("device", ["cuda", "auto"])
def test_removed_device_strings_are_unknown_on_the_cli(device, capsys):
    argv = ["simulate", "--circuit", "ghz_3", "--noises", "1", "--device", device]
    assert main(argv) == 2
    assert f"unknown device {device!r}; known: cpu, fake_gpu" in capsys.readouterr().err


class TestEnvDefault:
    def test_default_device_falls_back_to_cpu(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEVICE", raising=False)
        assert default_device() == "cpu"
        assert get_namespace(None).device == "cpu"

    def test_env_variable_selects_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEVICE", "fake_gpu")
        assert default_device() == "fake_gpu"
        assert get_namespace(None).device == "fake_gpu"

    def test_env_variable_is_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEVICE", "warp_drive")
        with pytest.raises(ValidationError, match="REPRO_DEVICE"):
            default_device()


class TestSeamRegistry:
    def test_hot_path_modules_are_declared(self):
        declared = seam_modules()
        for module in (
            "repro.backends.engine",
            "repro.simulators.statevector",
            "repro.simulators.density_matrix",
            "repro.tensornetwork.plan",
            "repro.circuits.passes.ptm",
        ):
            assert module in declared, module

    def test_declared_modes_are_typed(self):
        modes = set(seam_modules().values())
        assert modes <= {"host", "dispatch"}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            declare_seam("tests.bogus", mode="quantum")
