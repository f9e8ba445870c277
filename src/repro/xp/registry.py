"""Device-string resolution, the namespace cache and the seam registry.

>>> from repro.xp import get_namespace
>>> get_namespace("cpu").name
'numpy'
>>> get_namespace("fake_gpu").device
'fake_gpu'

``get_namespace`` maps a device string to a cached
:class:`~repro.xp.namespace.ArrayNamespace` instance:

``"cpu"``
    The numpy reference namespace.
``"fake_gpu"``
    NumPy-backed with a distinct array type and mandatory explicit
    transfers (the CI vehicle for transfer discipline).
``None``
    The session default: the ``REPRO_DEVICE`` environment variable when set
    (how CI forces ``fake_gpu`` onto the device-capable backends), else
    ``"cpu"``.

Hot-path modules additionally *declare* themselves here
(:func:`declare_seam`), recording which namespace regime they run on:
``"host"`` modules route all math through :mod:`repro.xp.host`;
``"dispatch"`` modules accept a namespace and run device math through it.
``tools/check_xp_seam.py`` cross-checks the declarations against the import
graph so the seam cannot silently erode.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as _np

from repro.utils.validation import ValidationError
from repro.xp.namespace import ArrayNamespace

__all__ = [
    "KNOWN_DEVICES",
    "declare_seam",
    "default_device",
    "get_namespace",
    "seam_modules",
]

#: Accepted ``device=`` strings; anything else is a ValidationError.
KNOWN_DEVICES = ("cpu", "fake_gpu")

#: Environment variable naming the session-default device (soft: applied only
#: to backends whose capabilities declare ``supports_device``).
DEVICE_ENV = "REPRO_DEVICE"

_NAMESPACES: Dict[tuple, ArrayNamespace] = {}


def default_device() -> str:
    """The session-default device: ``$REPRO_DEVICE`` when set, else ``cpu``."""
    device = os.environ.get(DEVICE_ENV, "cpu").strip() or "cpu"
    if device not in KNOWN_DEVICES:
        raise ValidationError(
            f"{DEVICE_ENV}={device!r} is not a known device; "
            f"known: {', '.join(KNOWN_DEVICES)}"
        )
    return device


def get_namespace(device: str | None = None, dtype=None) -> ArrayNamespace:
    """The cached :class:`ArrayNamespace` for ``device`` at working ``dtype``.

    Raises :class:`~repro.utils.validation.ValidationError` for device strings
    outside :data:`KNOWN_DEVICES` — never a silent cpu fallback.
    """
    if device is None:
        device = default_device()
    device = str(device)
    if device not in KNOWN_DEVICES:
        raise ValidationError(
            f"unknown device {device!r}; known: {', '.join(KNOWN_DEVICES)}"
        )
    dtype_key = _np.dtype(dtype or "complex128").str
    key = (device, dtype_key)
    cached = _NAMESPACES.get(key)
    if cached is not None:
        return cached
    namespace = _build_namespace(device, dtype_key)
    _NAMESPACES[key] = namespace
    return namespace


def _build_namespace(device: str, dtype: str) -> ArrayNamespace:
    if device == "cpu":
        from repro.xp.numpy_ns import NumpyNamespace

        return NumpyNamespace(dtype=dtype)
    from repro.xp.fake_gpu import FakeGpuNamespace

    return FakeGpuNamespace(dtype=dtype)


# ---------------------------------------------------------------------------
# Seam-enforcement registry
# ---------------------------------------------------------------------------

_SEAM_MODULES: Dict[str, str] = {}


def declare_seam(module: str, mode: str = "host") -> None:
    """Record that ``module`` routes its dense math through the xp seam.

    ``mode="host"`` — all math goes through the :mod:`repro.xp.host` alias
    (cpu-only today, auditable and lint-enforced).  ``mode="dispatch"`` — the
    module's hot paths additionally accept an :class:`ArrayNamespace` and run
    device math through it.  Called at import time by every module under the
    seam directories; ``tools/check_xp_seam.py`` fails CI when a seam module
    forgets to declare itself or imports numpy directly.
    """
    if mode not in ("host", "dispatch"):
        raise ValidationError(f"unknown seam mode {mode!r}; use 'host' or 'dispatch'")
    _SEAM_MODULES[str(module)] = mode


def seam_modules() -> Dict[str, str]:
    """A copy of the declared seam registry (module name -> mode)."""
    return dict(_SEAM_MODULES)
