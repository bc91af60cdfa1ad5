"""CSV/JSON emission format and parse-back round trip."""

import csv
import json
import os
import shutil
import stat
import subprocess

import numpy as np
import pytest

from onebit_mimo import linalg, montecarlo, results
from onebit_mimo.linalg import large_order_kernel, openblas_threads
from onebit_mimo.montecarlo import BerRecord
from onebit_mimo.receivers import ReceiverKind
from onebit_mimo.results import emit_results, read_records
from onebit_mimo.rng import STREAM_VERSION


def record(**overrides):
    base = dict(
        snr_db=30.0,
        kind=ReceiverKind.BMMSE,
        users=2,
        antennas=16,
        modulation="qpsk",
        trials=100_000,
        bits=400_000,
        bit_errors=120,
    )
    base.update(overrides)
    return BerRecord(**base)


def test_csv_row_format(tmp_path):
    path = tmp_path / "out.csv"
    emit_results([record()], "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,receiver,k,n,modulation,trials,bits,bit_errors,ber"
    assert lines[1] == "30,bmmse,2,16,qpsk,100000,400000,120,3.00000e-4"


def test_csv_sorted_by_receiver_then_snr(tmp_path):
    records = [
        record(snr_db=10.0, kind=ReceiverKind.ZF, bit_errors=4),
        record(snr_db=0.0, kind=ReceiverKind.ZF, bit_errors=8),
        record(snr_db=0.0, kind=ReceiverKind.MRC, bit_errors=6),
    ]
    path = tmp_path / "out.csv"
    emit_results(records, "csv", path)
    rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    assert rows == [["0", "mrc"], ["0", "zf"], ["10", "zf"]]


def test_csv_round_trip_preserves_counts(tmp_path):
    records = [
        record(),
        record(snr_db=25.0, kind=ReceiverKind.MRC, trials=7_000, bits=28_000, bit_errors=311),
    ]
    path = tmp_path / "out.csv"
    emit_results(records, "csv", path)
    parsed = read_records(path)
    assert sorted(parsed, key=lambda r: r.kind.value) == sorted(
        records, key=lambda r: r.kind.value
    )


def test_empty_record_list_creates_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        emit_results([], "csv", path)
    assert not path.exists()


def test_json_structure(tmp_path):
    path = tmp_path / "out.json"
    emit_results([record()], "json", path, seed=42)
    payload = json.loads(path.read_text())
    assert set(payload) == {"meta", "records"}
    assert payload["meta"]["seed"] == 42
    assert payload["meta"]["stream_version"] == STREAM_VERSION == 1
    assert "git_describe" in payload["meta"]
    assert "timestamp" in payload["meta"]
    assert payload["meta"]["numpy"] == np.__version__
    assert "scipy" not in payload["meta"]
    assert payload["meta"]["lapack"] == large_order_kernel()
    assert payload["meta"]["openblas_pinned"] == sorted(openblas_threads())
    assert payload["meta"]["heap_retained"] is montecarlo.heap_retained()
    (row,) = payload["records"]
    # Wilson 95% interval of 120 errors in 400000 bits.
    assert row.pop("ber_low") == pytest.approx(2.509172525969989e-4, rel=1e-9)
    assert row.pop("ber_high") == pytest.approx(3.586805400926918e-4, rel=1e-9)
    assert row == {
        "snr_db": 30.0,
        "receiver": "bmmse",
        "k": 2,
        "n": 16,
        "modulation": "qpsk",
        "trials": 100_000,
        "bits": 400_000,
        "bit_errors": 120,
        "ber": 0.0003,
    }

    # The run facts live in the JSON meta only: the CSV schema and bytes
    # stay as they were.
    csv_path = tmp_path / "out.csv"
    emit_results([record()], "csv", csv_path, seed=42)
    assert csv_path.read_bytes() == (
        b"snr_db,receiver,k,n,modulation,trials,bits,bit_errors,ber\r\n"
        b"30,bmmse,2,16,qpsk,100000,400000,120,3.00000e-4\r\n"
    )


def test_both_formats_write_the_one_record_row(tmp_path, monkeypatch):
    # A key added to the row reaches JSON only; a CSV column's value comes
    # from the same row.
    records = [record(), record(kind=ReceiverKind.ZF, bit_errors=7)]
    before = tmp_path / "before.csv"
    emit_results(records, "csv", before)
    record_row = results._record_row
    monkeypatch.setattr(results, "_record_row", lambda r: {**record_row(r), "extra": 1})
    after = tmp_path / "after.csv"
    emit_results(records, "csv", after)
    assert after.read_bytes() == before.read_bytes()
    emit_results(records, "json", tmp_path / "out.json")
    rows = json.loads((tmp_path / "out.json").read_text())["records"]
    assert [row["extra"] for row in rows] == [1, 1]

    monkeypatch.setattr(results, "_record_row", lambda r: {**record_row(r), "k": 99})
    emit_results(records, "csv", after)
    assert [row.users for row in read_records(after)] == [99, 99]


def failing_csv_writerow(monkeypatch):
    """Make ``csv.DictWriter.writerow`` write its first row and then raise."""
    writerow = csv.DictWriter.writerow
    written = []

    def partial(self, row):
        if written:
            raise OSError("disk full")
        written.append(row)
        return writerow(self, row)

    monkeypatch.setattr(csv.DictWriter, "writerow", partial)


def failing_json_dump(monkeypatch):
    """Make ``json.dump`` write the start of its output and then raise."""

    def partial(payload, handle, **kwargs):
        handle.write('{\n  "meta": ')
        raise TypeError("Object of type int64 is not JSON serializable")

    monkeypatch.setattr(json, "dump", partial)


@pytest.mark.parametrize(
    "out_format, fail",
    [("csv", failing_csv_writerow), ("json", failing_json_dump)],
    ids=["csv", "json"],
)
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, out_format, fail):
    path = tmp_path / f"out.{out_format}"
    records = [record(), record(kind=ReceiverKind.ZF, bit_errors=7)]
    emit_results(records, out_format, path)
    previous = path.read_bytes()
    fail(monkeypatch)
    with pytest.raises((OSError, TypeError)):
        emit_results([record(bit_errors=3), *records[1:]], out_format, path)
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == [path.name]


def test_written_file_has_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    path = tmp_path / "out.csv"
    emit_results([record()], "csv", path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]


def test_json_names_the_gufuncs_without_posv(tmp_path, monkeypatch):
    monkeypatch.setattr(linalg, "_POSV", None)
    path = tmp_path / "out.json"
    emit_results([record()], "json", path)
    assert json.loads(path.read_text())["meta"]["lapack"] == "numpy gufuncs"


@pytest.mark.parametrize("retained", [True, False])
def test_json_records_whether_the_heap_is_retained(tmp_path, monkeypatch, retained):
    monkeypatch.setattr(montecarlo, "_heap_retained", retained)
    path = tmp_path / "out.json"
    emit_results([record()], "json", path)
    assert json.loads(path.read_text())["meta"]["heap_retained"] is retained


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_results([record()], "yaml", tmp_path / "out.yaml")


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_records(path)


def git(repo, *args):
    """``git -C repo args`` with a fixed identity; its stripped stdout."""
    command = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args]
    return subprocess.run(command, check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
@pytest.mark.parametrize("tracked", [False, True], ids=["ignored-copy", "tracked-copy"])
def test_git_describe_names_only_the_checkout_tracking_the_package(
    tmp_path, monkeypatch, tracked
):
    # A copy of the package in another repository's ignored directory, as in
    # a virtual environment inside a project, must not report that project's
    # commit; the same copy committed there does.
    repo = tmp_path / "project"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / ".gitignore").write_text("venv/\n")
    package = repo / ("pkg" if tracked else "venv") / "onebit_mimo"
    package.mkdir(parents=True)
    shutil.copy(results.__file__, package / "results.py")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "project")
    monkeypatch.setattr(results, "__file__", str(package / "results.py"))
    expected = git(repo, "describe", "--always", "--dirty") if tracked else "unknown"
    assert results._git_describe() == expected
