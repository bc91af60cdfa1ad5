"""CSV/JSON emission and parsing of BER records."""

import csv
import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .linalg import large_order_kernel, openblas_threads
from .montecarlo import BerRecord, heap_retained, wilson_interval
from .receivers import ReceiverKind
from .rng import STREAM_VERSION

CSV_HEADER = ("snr_db", "receiver", "k", "n", "modulation", "trials", "bits", "bit_errors", "ber")


def _format_snr(value: float) -> str:
    # Six significant digits where they read back exactly, else the shortest
    # string that does: two grid points never share a label.
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


def _format_ber(value: float) -> str:
    # Six significant digits, exponent without zero padding: 3.00000e-4.
    mantissa, exponent = f"{value:.5e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _sorted(records):
    return sorted(
        records, key=lambda r: (r.kind.value, r.snr_db, r.users, r.antennas)
    )


def _git_describe() -> str:
    """``git describe`` of the checkout that tracks this file, else
    ``"unknown"``: a copy in another repository's ignored or untracked
    directory, such as a virtual environment, does not name that commit."""
    here = Path(__file__).resolve()

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=here.parent, capture_output=True, text=True, timeout=5
        )

    try:
        if git("ls-files", "--error-unmatch", here.name).returncode != 0:
            return "unknown"
        out = git("describe", "--always", "--dirty")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _record_row(record: BerRecord) -> dict:
    ber_low, ber_high = wilson_interval(record.bit_errors, record.bits)
    return {
        "snr_db": record.snr_db,
        "receiver": record.kind.value,
        "k": record.users,
        "n": record.antennas,
        "modulation": record.modulation,
        "trials": record.trials,
        "bits": record.bits,
        "bit_errors": record.bit_errors,
        "ber": record.ber,
        "ber_low": ber_low,
        "ber_high": ber_high,
    }


def _replace_file(path, write, newline=None) -> None:
    """Write a text file through ``write(handle)`` and move it to ``path`` in
    one rename, so that an error while writing leaves whatever was at
    ``path`` whole. The file is written beside ``path``, with the mode a
    plain ``open`` gives, and removed if the write fails."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(temporary, "x", newline=newline)
    try:
        with handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def emit_results(records, out_format: str, path, seed=None) -> None:
    """Write records to ``path``, sorted by (receiver, snr_db).

    CSV writes the :data:`CSV_HEADER` columns of each record's
    :func:`_record_row`, with ``snr_db`` and ``ber`` formatted, and is
    byte-deterministic for identical records. JSON writes every key of the row,
    so ``ber_low`` and ``ber_high``, the Wilson 95% interval of the BER, reach
    JSON only. JSON carries a top-level ``meta`` object: seed,
    ``stream_version`` (:data:`onebit_mimo.rng.STREAM_VERSION`), git describe,
    timestamp, the numpy version, ``lapack``
    (:func:`onebit_mimo.linalg.large_order_kernel`: the library file and
    ``zposv`` symbol that solve complex orders above 8, or ``"numpy
    gufuncs"``), and ``openblas_pinned``: the file name of the OpenBLAS that
    sweeps pin to one thread, the one whose thread calls
    :mod:`onebit_mimo.linalg` found through numpy's linalg extension, or empty
    when that extension exposes none. It is not a list of every OpenBLAS loaded
    in the process. ``heap_retained``
    (:func:`onebit_mimo.montecarlo.heap_retained`) is true when a sweep has set
    glibc's heap thresholds in this process, so that the memory trials free
    stays in it; false where the C library is not glibc. The timestamp is
    excluded from any determinism guarantee.

    The file is written beside ``path`` and renamed over it when complete, so
    a write that fails leaves the file that was at ``path`` as it was.
    """
    rows = [_record_row(record) for record in _sorted(records)]
    if not rows:
        raise ValueError("refusing to emit an empty record list")
    if out_format == "csv":

        def write(handle):
            writer = csv.DictWriter(handle, CSV_HEADER, extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {**row, "snr_db": _format_snr(row["snr_db"]), "ber": _format_ber(row["ber"])}
                )

        _replace_file(path, write, newline="")
    elif out_format == "json":
        payload = {
            "meta": {
                "seed": seed,
                "stream_version": STREAM_VERSION,
                "git_describe": _git_describe(),
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "numpy": np.__version__,
                "lapack": large_order_kernel(),
                "openblas_pinned": sorted(openblas_threads()),
                "heap_retained": heap_retained(),
            },
            "records": rows,
        }

        def write(handle):
            json.dump(payload, handle, indent=2)
            handle.write("\n")

        _replace_file(path, write)
    else:
        raise ValueError(f"unknown output format {out_format!r}")


def read_records(path) -> list[BerRecord]:
    """Parse a CSV written by :func:`emit_results` back into records."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        return [
            BerRecord(
                snr_db=float(row["snr_db"]),
                kind=ReceiverKind(row["receiver"]),
                users=int(row["k"]),
                antennas=int(row["n"]),
                modulation=row["modulation"],
                trials=int(row["trials"]),
                bits=int(row["bits"]),
                bit_errors=int(row["bit_errors"]),
            )
            for row in reader
        ]
