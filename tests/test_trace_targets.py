"""The benchmark's tracer replaces package globals by name; each one it names
must exist, and must be called by a run, or its layer silently reads 0 in
the benchmark record."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from onebit_mimo import bussgang, montecarlo
from onebit_mimo.channel import SystemConfig
from onebit_mimo.receivers import ReceiverKind, build_combiner

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
#: Targets a clean in-process run does not reach: ``run_trial`` runs only for
#: a redrawn (degenerate) trial, ``wait`` only with a worker pool, and
#: ``effective_noise_covariance`` only for a substituted received covariance,
#: since BMMSE's matrix is otherwise built by the arcsine law.
UNREACHED_IN_PROCESS = {
    "montecarlo.run_trial", "montecarlo.wait", "bussgang.effective_noise_covariance",
}


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


def test_every_trace_target_is_reached(monkeypatch):
    # A tiny batch over two grid points and all eight receivers, with a
    # counter where the tracer would put its wrapper.
    calls = Counter()
    for module_name, name, _ in trace_targets():
        module = importlib.import_module(f"onebit_mimo.{module_name}")

        def counting(*args, _target=f"{module_name}.{name}", _fn=getattr(module, name), **kwargs):
            calls[_target] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    plan = montecarlo.TrialPlan(
        config=SystemConfig(2, 4), kinds=tuple(ReceiverKind), snr_db_grid=(0.0, 10.0),
        max_trials=3, min_bit_errors=0, seed=1,
    )
    montecarlo._batch_counts(plan, dict.fromkeys(range(2), plan.kinds), 0, 3)
    unreached = {f"{module}.{name}" for module, name, _ in trace_targets()} - set(calls)
    assert unreached == UNREACHED_IN_PROCESS
    # A BMMSE build on a substituted covariance reaches the one target that
    # only such a build reaches.
    h = np.eye(4, 2, dtype=complex)
    stats = bussgang.QuantizedStatistics(h, 0.5, received_cov=2.5 * np.eye(4))
    build_combiner(ReceiverKind.BMMSE, h, 0.5, stats=stats)
    assert calls["bussgang.effective_noise_covariance"] == 1

