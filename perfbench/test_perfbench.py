"""Tests of the benchmark itself, at the workloads' tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_and_record(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_its_unit(workload, trace, kind):
    result, record = result_and_record(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["environment"]["seed"] == 7
    if trace:
        assert record["missing_targets"] == []
        pool_only = {"montecarlo.wait_s"} if workload != "fig1a-sweep-w2" else set()
        assert pool_only <= set(record["unmeasured_metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_the_csv_unchanged(workload):
    _, plain = result_and_record(bench(workload, 0))
    _, traced = result_and_record(bench(workload, 1))
    assert plain["csv_sha256"] == traced["csv_sha256"]


def run_in_process(capsys, *argv):
    """``run.main`` in this process; returns (result, record) from its stdout."""
    assert run.main(["--seed", "7", "--seconds", "0", "--tiny", *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def test_corrupted_golden_copy_is_a_failed_run(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(BENCH_DIR / "golden", golden)
    path = golden / "fig1a-k2n16-tiny.csv"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[7] = str(int(fields[7]) + 1)
    path.write_text("".join([header, ",".join(fields), *rest]))
    monkeypatch.setattr(run, "GOLDEN_DIR", golden)
    result, _ = run_in_process(capsys, "--workload", "fig1a-k2n16", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_zero_trial_row_is_a_problem_not_a_crash():
    workload = run.WORKLOADS["fig1a-k2n16"]
    text = (BENCH_DIR / "golden" / "fig1a-k2n16-tiny.csv").read_text()
    header, first, *rest = text.splitlines(keepends=True)
    fields = first.split(",")
    fields[5:8] = ["0", "0", "0"]
    problems = run.check_csv("".join([header, ",".join(fields), *rest]), workload, True)
    assert any("no bits" in problem for problem in problems)
    fields[2] = "two"
    problems = run.check_csv("".join([header, ",".join(fields), *rest]), workload, True)
    assert any("unparsable" in problem for problem in problems)
    assert run.check_csv(text, workload, True) == []


def test_absent_trace_target_is_listed_as_unmeasured(monkeypatch, capsys):
    run.import_package()
    from onebit_mimo import montecarlo

    monkeypatch.delattr(montecarlo, "wait")  # unused with one worker
    result, record = run_in_process(capsys, "--workload", "fig1a-k2n16", "--trace", "1")
    assert result["correct"]
    assert record["missing_targets"] == ["montecarlo.wait"]
    assert "montecarlo.wait_s" in record["unmeasured_metrics"]
    assert "linalg.hermitian_solve.us_per_trial" not in record["unmeasured_metrics"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
