"""Golden-CSV oracle for the trial engine.

Each CSV in ``tests/golden/`` has one row in ``GOLDEN``: the ``simulate``
arguments that wrote it, without ``--workers`` and ``--out``. Every row is
reproduced byte for byte at 1 and at 2 workers.

The first five rows were written by the per-trial engine that the stacked
engine replaced (commit 0388145). ``k2n16-qpsk`` runs 1100 trials per
point, so it crosses a 512-trial chunk boundary and the 1000-trial batch
boundary (512 + 488, then 100).

``k16n16-16qam`` is the square case, the worst-conditioned channel shape:
it was written by the stacked engine at commit a810467, before AQNM-MMSE
and WFQ moved from N x N to K x K solves.

``fig2-early-stop`` goes through a preset, several plans and the early-stop
rule: K = 2 and 4 run to the 2000-trial cap, K >= 6 stop at 1000 trials on
the error target. It was written at commit e93e291, while the fig2 sweep
was still a separate function.

``k2n16-early-stop-grid`` is one plan whose grid points stop at different
batches: at -10 dB every kind stops at 1000 trials, at 10 dB MRC stops at
1000, BMRC at 2000 and the rest at the 2500-trial cap, a partial last
batch. It was written at commit 06959fd, while every grid point still ran
as its own batches.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from onebit_mimo import cli
from onebit_mimo.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
#: The benchmark's golden CSVs, read here and never written.
BENCH_GOLDEN_DIR = Path(__file__).parents[1] / "perfbench" / "golden"
#: Each golden's ``simulate`` arguments, by the golden's file stem.
GOLDEN = {
    name: argv.split()
    for name, argv in {
        "k2n16-qpsk": "--k 2 --n 16 --mod qpsk --snr-start -10 --snr-stop 30 --snr-step 10"
        " --max-trials 1100 --seed 3 --receivers all --min-bit-errors 0 --format csv",
        "k4n32-8psk": "--k 4 --n 32 --mod 8psk --snr-start 0 --snr-stop 20 --snr-step 20"
        " --max-trials 300 --seed 4 --receivers all --min-bit-errors 0 --format csv",
        "k4n32-16qam": "--k 4 --n 32 --mod 16qam --snr-start 0 --snr-stop 20 --snr-step 20"
        " --max-trials 300 --seed 4 --receivers all --min-bit-errors 0 --format csv",
        "k2n16-unquantized": "--k 2 --n 16 --mod qpsk --snr-start -10 --snr-stop 30"
        " --snr-step 20 --unquantized --max-trials 300 --seed 6 --receivers all"
        " --min-bit-errors 0 --format csv",
        "k16n128": "--k 16 --n 128 --mod qpsk --snr-start 0 --snr-stop 30 --snr-step 30"
        " --max-trials 40 --seed 8 --receivers all --min-bit-errors 0 --format csv",
        "k16n16-16qam": "--k 16 --n 16 --mod 16qam --snr-start 0 --snr-stop 40 --snr-step 20"
        " --max-trials 300 --seed 12 --receivers all --min-bit-errors 0 --format csv",
        "fig2-early-stop": "--preset fig2 --receivers mrc,bmrc --max-trials 2000"
        " --min-bit-errors 60 --seed 6",
        "k2n16-early-stop-grid": "--k 2 --n 16 --mod qpsk --snr-start -10 --snr-stop 30"
        " --snr-step 20 --receivers all --max-trials 2500 --min-bit-errors 15 --seed 9",
    }.items()
}


def test_every_golden_has_a_row():
    assert sorted(GOLDEN) == sorted(path.stem for path in GOLDEN_DIR.glob("*.csv"))


@pytest.mark.parametrize(
    "name, workers",
    # A row at 1 worker keeps the golden's name as its id.
    [pytest.param(name, "1", id=name) for name in sorted(GOLDEN)]
    + [pytest.param(name, "2", id=f"{name}-2-workers") for name in sorted(GOLDEN)],
)
def test_reproduces_golden_csv(name, workers, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*GOLDEN[name], "--workers", workers, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_grid_points_stopping_at_different_batches():
    # The spread the golden exists for: a point that stops at the first
    # batch, a point whose slowest kind runs to the cap, and a point whose
    # kinds stop at three different batches.
    trials = {}
    with open(GOLDEN_DIR / "k2n16-early-stop-grid.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            trials.setdefault(float(row["snr_db"]), {})[row["receiver"]] = int(row["trials"])
    assert set(trials[-10.0].values()) == {1000}
    assert max(trials[30.0].values()) == 2500
    assert set(trials[10.0].values()) == {1000, 2000, 2500}


#: Prints each workload of ``perfbench/run.py`` as the simulator arguments
#: of its golden run, full and tiny, with ``OUT`` for the output path. The
#: interpreter runs with ``-B``, so perfbench/ gets no bytecode cache.
_BENCH_ARGV = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
print(json.dumps({
    f"{name}{'-tiny' if tiny else ''}": workload.argv(run.GOLDEN_SEED, "OUT", tiny)
    for name, workload in run.WORKLOADS.items() for tiny in (False, True)
}))
"""


@pytest.fixture(scope="module")
def bench_argv():
    result = subprocess.run(
        [sys.executable, "-B", "-c", _BENCH_ARGV, str(BENCH_GOLDEN_DIR.parent)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize("path", sorted(BENCH_GOLDEN_DIR.glob("*.csv")), ids=lambda p: p.stem)
def test_reproduces_benchmark_golden_csv(path, bench_argv, tmp_path):
    # The benchmark's warm-up compares its golden run with these files; this
    # runs the same arguments, worker count included, in Tier-1.
    out = tmp_path / path.name
    argv = [str(out) if arg == "OUT" else arg for arg in bench_argv[path.stem]]
    assert main(argv) == 0
    assert out.read_bytes() == path.read_bytes()


#: Runs the simulator with every import of scipy failing.
_WITHOUT_SCIPY = """
import sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from onebit_mimo.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_golden_csv_without_scipy(tmp_path):
    # The N x N solves of this case go through LAPACK without scipy.
    out = tmp_path / "k2n16-qpsk.csv"
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, *GOLDEN["k2n16-qpsk"], "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN_DIR / "k2n16-qpsk.csv").read_bytes()


@pytest.mark.parametrize(
    "path",
    # The rows that run every receiver; fig2 runs neither WFQ nor AQNM-MMSE.
    sorted([
        *(GOLDEN_DIR / f"{name}.csv" for name, argv in GOLDEN.items()
          if argv[argv.index("--receivers") + 1] == "all"),
        *BENCH_GOLDEN_DIR.glob("*.csv"),
    ]),
    ids=lambda path: f"{path.parents[1].name}-{path.stem}",
)
def test_wfq_rows_are_aqnm_mmse_rows(path):
    # WFQ's combiner is AQNM-MMSE's, so its counts are AQNM-MMSE's.
    rows = {"wfq": {}, "aqnm-mmse": {}}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["receiver"] in rows:
                counts = (row["trials"], row["bits"], row["bit_errors"], row["ber"])
                rows[row["receiver"]][row["snr_db"], row["k"]] = counts
    assert rows["wfq"]
    assert rows["wfq"] == rows["aqnm-mmse"]
