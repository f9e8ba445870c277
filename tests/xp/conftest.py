"""Fixtures for the array-namespace conformance suite.

The ``xp`` fixture parametrizes each test over *every* known device
(``KNOWN_DEVICES``: the ``numpy`` reference and ``fake_gpu``).  A test written
against the fixture is therefore a conformance contract — any future namespace
must pass it as-is.
"""

import pytest

from repro.xp import KNOWN_DEVICES, get_namespace


@pytest.fixture(params=KNOWN_DEVICES)
def xp(request):
    """One ArrayNamespace per known device (test id = device name)."""
    return get_namespace(request.param)
