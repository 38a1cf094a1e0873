"""The benchmark tracer wraps functions by name; every name must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves(monkeypatch):
    # Load the tracer without writing its bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"trilink.{layer}.{name}"
        for layer, names in tracer.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"trilink.{layer}"), name, None))
    ]
    assert tracer.LAYER_FUNCTIONS and missing == []
