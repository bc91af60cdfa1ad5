"""The benchmark's tracer replaces package globals by name; each one it names
must exist, or its layer silently reads 0 in the benchmark record."""

import ast
import importlib
from pathlib import Path

from onebit_mimo import montecarlo

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    """``TARGETS`` of the tracer, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def missing_targets():
    return [
        f"{module}.{name}"
        for module, name, _ in trace_targets()
        if not hasattr(importlib.import_module(f"onebit_mimo.{module}"), name)
    ]


def test_every_trace_target_resolves():
    assert trace_targets()
    assert missing_targets() == []


def test_a_removed_global_is_reported(monkeypatch):
    monkeypatch.delattr(montecarlo, "trial_streams")
    assert missing_targets() == ["montecarlo.trial_streams"]
