"""The benchmark's span tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches each layer's entry point where callers look
it up — a function in the module that imports it, a method on its class —
and fails at install time when a refactor renames, moves or stops importing
one of them.  This check reads the tracer's ``ENTRIES`` table (loading the
module by path; it needs only the standard library) and asserts every
``owner`` still defines its ``attr``, so the default test run notices before
the benchmark does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ENTRIES = _load_tracing().ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: f"{entry.owner}.{entry.attr}")
def test_traced_entry_point_exists(entry):
    module_name, _, class_name = entry.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = vars(owner)[class_name]
    assert entry.attr in vars(owner)
