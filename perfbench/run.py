"""Benchmark of the onebit-mimo Monte Carlo simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process per run drives the simulator only through its public
functions: ``cli.parse_run_spec`` -> ``cli.run_spec`` ->
``results.emit_results``. A run

1. runs the workload once at the golden seed, untimed, as warm-up, and
   compares its CSV byte for byte with ``perfbench/golden/``;
2. repeats the workload at ``--seed`` until ``--seconds`` have passed and
   reports totals over the repetitions. Every CSV is checked (see
   ``check_csv``) and all repetitions must write identical bytes;
3. between repetitions, times cold set-up (``import onebit_mimo`` through
   ``parse_run_spec``) in fresh interpreters and reports the fastest.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``tracing.py``) plus the tracing overhead. The last line of
stdout is the JSON result; per-run details go to ``perfbench/out/``.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = BENCH_DIR / "golden"
GOLDEN_SEED = 1
SETUP_PROBES = 10

CSV_HEADER = ["snr_db", "receiver", "k", "n", "modulation", "trials", "bits", "bit_errors", "ber"]
RECEIVERS = ("mrc", "zf", "mmse", "aqnm-mmse", "wfq", "bmrc", "bzf", "bmmse")
BITS_PER_SYMBOL = {"qpsk": 2}
#: Trials between stopping-rule evaluations: a point stops at a multiple of
#: this or at the cap.
BATCH_SIZE = 1000


@dataclass(frozen=True)
class Workload:
    """One simulate invocation; every workload evaluates all eight receivers."""

    users: int
    antennas: int
    modulation: str
    snr_start: float
    snr_stop: float
    snr_step: float
    max_trials: int
    tiny_max_trials: int
    min_bit_errors: int
    workers: int

    def cap(self, tiny: bool) -> int:
        return self.tiny_max_trials if tiny else self.max_trials

    def grid(self) -> list[float]:
        count = int((self.snr_stop - self.snr_start) / self.snr_step + 1e-9) + 1
        return [self.snr_start + i * self.snr_step for i in range(count)]

    def argv(self, seed: int, out: Path, tiny: bool) -> list[str]:
        return [
            "--k", str(self.users), "--n", str(self.antennas),
            "--mod", self.modulation,
            "--snr-start", repr(self.snr_start), "--snr-stop", repr(self.snr_stop),
            "--snr-step", repr(self.snr_step),
            "--receivers", ",".join(RECEIVERS),
            "--max-trials", str(self.cap(tiny)),
            "--min-bit-errors", str(self.min_bit_errors),
            "--workers", str(self.workers),
            "--seed", str(seed), "--format", "csv", "--out", str(out),
        ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fig1a-k2n16": Workload(
        2, 16, "qpsk", -10.0, 30.0, 5.0,
        max_trials=100, tiny_max_trials=3, min_bit_errors=0, workers=1,
    ),
    "fig2-k16n128": Workload(
        16, 128, "qpsk", 30.0, 30.0, 5.0,
        max_trials=60, tiny_max_trials=2, min_bit_errors=0, workers=1,
    ),
    "fig1a-sweep-w2": Workload(
        2, 16, "qpsk", -10.0, 30.0, 20.0,
        max_trials=2000, tiny_max_trials=3, min_bit_errors=200, workers=2,
    ),
}


def check_csv(text: str, workload: Workload, tiny: bool) -> list[str]:
    """Invariants every correct CSV of ``workload`` satisfies, whatever the seed."""
    cap = workload.cap(tiny)
    bits_per_trial = workload.users * BITS_PER_SYMBOL[workload.modulation]
    expected = {(snr, kind) for snr in workload.grid() for kind in RECEIVERS}
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return ["bad or missing CSV header"]
    problems, seen = [], set()
    for row in rows[1:]:
        try:
            snr, kind, k, n, modulation, trials, bits, errors, ber = row
            key = (float(snr), kind)
            k, n, trials, bits, errors = int(k), int(n), int(trials), int(bits), int(errors)
            ber = float(ber)
        except ValueError:
            problems.append(f"unparsable row {row}")
            continue
        if key not in expected or key in seen:
            problems.append(f"unexpected or repeated row {row}")
        seen.add(key)
        if (k, n, modulation) != (workload.users, workload.antennas, workload.modulation):
            problems.append(f"wrong system in row {row}")
        if not (1 <= trials <= cap and (trials % BATCH_SIZE == 0 or trials == cap)):
            problems.append(f"trials not a batch multiple or the cap: {row}")
        if trials < cap and not 0 < workload.min_bit_errors <= errors:
            problems.append(f"stopped before the cap without reaching the target: {row}")
        if bits != trials * bits_per_trial:
            problems.append(f"bits != trials * K * bits_per_symbol: {row}")
        if bits <= 0:
            problems.append(f"no bits, so no BER: {row}")
        elif not 0 <= errors <= bits or abs(ber - errors / bits) > 1e-5 * (errors / bits):
            problems.append(f"bit_errors or ber inconsistent: {row}")
    if seen != expected:
        problems.append(f"{len(expected - seen)} expected rows missing")
    return problems


def data_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def trials_in(text: str) -> int:
    """Trials simulated: per point the largest per-receiver count, summed."""
    per_point: dict[str, int] = {}
    for row in data_rows(text):
        per_point[row[0]] = max(per_point.get(row[0], 0), int(row[5]))
    return sum(per_point.values())


def import_package():
    """Import the simulator from this checkout's ``src``; exit non-zero if absent."""
    if not (SRC / "onebit_mimo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC}/onebit_mimo")
    sys.path.insert(0, str(SRC))
    import onebit_mimo
    from onebit_mimo import cli, results

    if Path(onebit_mimo.__file__).resolve().parent != SRC / "onebit_mimo":
        sys.exit(f"perfbench: imported onebit_mimo from {onebit_mimo.__file__}, not {SRC}")
    return cli, results


def median(values):
    return statistics.median(values) if values else 0.0


def throughput(reps) -> float:
    """Total trials ÷ total seconds inside ``run_spec`` over ``(trials, seconds, ...)``
    repetitions. A total, not a median of repetitions: the machine's speed
    flips between two levels for seconds at a time, and a median over
    repetitions jumps from one level to the other."""
    seconds = sum(rep[1] for rep in reps)
    return sum(rep[0] for rep in reps) / seconds if seconds else 0.0


def environment(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": workload.workers,
        "seed": seed,
        "git_describe": describe,
    }


def layer_metrics(summary, counts, trials: int, useful: int):
    """Per-layer metrics of one traced repetition, and the names of those
    that were not measured in it. A metric is not measured when the span it
    reads never ran in this process: its target is absent from the package,
    or (on a pool workload) it ran in the workers. Such a metric reads 0."""
    metrics, unmeasured = {}, set()

    def field(name, index):  # index 0: inclusive s, 1: self s, 2: calls
        return summary.get(name, (0.0, 0.0, 0))[index]

    def add(metric, value, unit, span=None):
        metrics[metric] = (value, unit)
        if span is not None and span not in summary:
            unmeasured.add(metric)

    def add_us(metric, span, index=0):
        add(metric, field(span, index) * 1e6 / trials, "us", span)

    add_us("rng.trial_streams.us_per_trial", "rng.trial_streams")
    add("rng.trial_streams.calls", field("rng.trial_streams", 2), "count",
        "rng.trial_streams")
    for name in ("channel.draw_channel", "channel.transmit", "channel.one_bit_quantize",
                 "modulation.map_bits_to_symbols", "modulation.symbols_to_bits",
                 "bussgang.QuantizedStatistics", "bussgang.noise_cov",
                 "bussgang.aqnm_covariance", "linalg.elementwise_arcsin",
                 "linalg.hermitian_solve", "receivers.detect_pipeline"):
        add_us(f"{name}.us_per_trial", name)
    for kind in RECEIVERS:
        name = f"receivers.build_combiner.{kind}"
        add_us(f"{name}.us_per_trial", name, 1)
    add_us("montecarlo.run_trial.self_us_per_trial", "montecarlo.run_trial", 1)
    add("linalg.hermitian_solve.calls_per_trial",
        field("linalg.hermitian_solve", 2) / trials, "count", "linalg.hermitian_solve")
    add("linalg.hermitian_solve.flops_per_trial",
        counts["linalg.hermitian_solve.flops"] / trials, "flop", "linalg.hermitian_solve")
    add("montecarlo.redraws", counts["montecarlo.redraws"], "count", "rng.trial_streams")
    # Counted at pool submission; 0 is a measurement when no pool is used.
    add("montecarlo.batches_submitted", counts["montecarlo.batches_submitted"], "count")
    computed = counts["montecarlo.receiver_trials_computed"]
    add("montecarlo.useful_batch_ratio", useful / computed if computed else 0.0, "ratio")
    if not computed:
        unmeasured.add("montecarlo.useful_batch_ratio")
    add("montecarlo.wait_s", field("montecarlo.wait", 0), "s", "montecarlo.wait")
    add("results.emit_results.ms", field("results.emit_results", 0) * 1e3, "ms",
        "results.emit_results")
    return metrics, unmeasured


class Run:
    """Repetitions of one workload and their checks."""

    def __init__(self, cli, results, workload: Workload, tiny: bool, golden: bytes):
        self.cli, self.results = cli, results
        self.workload, self.tiny, self.golden = workload, tiny, golden
        self.attempted = self.failed = 0
        self.first_sha = None
        self.setup: list[float] = []

    def probe_setup(self, seed: int):
        """Time one cold set-up in a fresh interpreter; see setup_probe.py."""
        self.attempted += 1
        argv = self.workload.argv(seed, OUT_DIR / "unused.csv", self.tiny)
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *argv],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if probe.returncode == 0:
            self.setup.append(float(probe.stdout.strip().splitlines()[-1]))
        else:
            self.failed += 1
            print(f"setup probe failed:\n{probe.stderr}", file=sys.stderr)

    def repetition(self, seed: int, out: Path, tracer=None, timed=True):
        """Run once; return (run_spec seconds, wall seconds, CSV text) or None
        if the repetition failed. Timed repetitions must all write the same
        bytes."""
        self.attempted += 1
        try:
            spec = self.cli.parse_run_spec(self.workload.argv(seed, out, self.tiny))
            run_spec, emit = self.cli.run_spec, self.results.emit_results
            if tracer is not None:
                run_spec = tracer.wrap(run_spec, "cli.run_spec")
                emit = tracer.wrap(emit, "results.emit_results")
            start = perf_counter()
            records = run_spec(spec)
            ran = perf_counter()
            emit(records, spec.out_format, spec.out_path, seed=spec.seed)
            done = perf_counter()
            data = out.read_bytes()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        problems = check_csv(data.decode(), self.workload, self.tiny)
        sha = hashlib.sha256(data).hexdigest()
        if seed == GOLDEN_SEED and data != self.golden:
            problems.append("CSV differs from the golden copy")
        if timed:
            self.first_sha = self.first_sha or sha
            if sha != self.first_sha:
                problems.append("CSV differs from this run's first repetition")
        if problems:
            self.failed += 1
            print(f"output check failed (sha256 {sha}):", *problems[:10], sep="\n  ",
                  file=sys.stderr)
            return None
        return ran - start, done - start, data.decode()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest size of the workload, for the benchmark's tests")
    parser.add_argument("--write-golden", action="store_true",
                        help="run once at the golden seed and store the CSV as the golden copy")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        sys.exit("perfbench: --seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    cli, results = import_package()
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}"
    golden_path = GOLDEN_DIR / f"{tag}.csv"
    OUT_DIR.mkdir(exist_ok=True)

    if args.write_golden:
        out = OUT_DIR / "golden-check.csv"
        spec = cli.parse_run_spec(workload.argv(GOLDEN_SEED, out, args.tiny))
        results.emit_results(cli.run_spec(spec), "csv", out, seed=GOLDEN_SEED)
        problems = check_csv(out.read_text(), workload, args.tiny)
        if problems:
            sys.exit("perfbench: refusing to store a CSV that fails its checks:\n"
                     + "\n".join(problems))
        golden_path.write_bytes(out.read_bytes())
        print(f"wrote {golden_path}", file=sys.stderr)
        return 0
    if not golden_path.is_file():
        sys.exit(f"perfbench: missing golden copy {golden_path}")

    run = Run(cli, results, workload, args.tiny, golden_path.read_bytes())
    run.repetition(GOLDEN_SEED, OUT_DIR / "golden-check.csv", timed=False)

    tracer = Tracer() if args.trace else None
    out = OUT_DIR / f"{tag}-seed{args.seed}.csv"
    plain, traced = [], []
    probes, probes_run = (1 if args.tiny else SETUP_PROBES), 0
    start = perf_counter()
    while True:
        # Set-up probes are spread over the timed window, so that they sample
        # the same stretch of machine speed as the repetitions.
        if probes_run < probes and perf_counter() - start >= probes_run * args.seconds / probes:
            run.probe_setup(args.seed)
            probes_run += 1
        use_tracer = tracer is not None and len(traced) < len(plain)
        if not use_tracer:
            rep = run.repetition(args.seed, out)
            if rep is not None:
                plain.append((trials_in(rep[2]), rep[0], rep[1]))
        else:
            before, mark = tracer.counts.copy(), tracer.mark()
            with tracer.installed():
                rep = run.repetition(args.seed, out, tracer)
            if rep is not None:
                trials = trials_in(rep[2])
                useful = sum(int(row[5]) for row in data_rows(rep[2]))
                layers, unmeasured = layer_metrics(
                    tracer.summarize(mark, tracer.mark()),
                    tracer.counts - before, trials, useful)
                traced.append((trials, rep[0], layers, unmeasured))
        enough = tracer is None or (plain and traced)
        if perf_counter() - start >= args.seconds and (enough or run.failed):
            break
    for _ in range(probes - probes_run):
        run.probe_setup(args.seed)

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    plain_tps = throughput(plain)
    trace_record = {}
    if tracer is None:
        metrics = {
            "trials_per_s": (plain_tps, "1/s"),
            "wall_s": (statistics.fmean(wall for *_, wall in plain) if plain else 0.0, "s"),
            # The fastest probe: contention from other load on the machine
            # only ever adds time, and the median of a run's probes followed
            # the machine's slow and fast stretches from run to run.
            "setup_s": (min(run.setup, default=0.0), "s"),
            "peak_rss_mb": (usage / 1024, "MB"),
        }
    else:
        units, unmeasured = layer_metrics({}, Counter(), 1, 0)
        metrics = {
            name: (median([layers[name][0] for _, _, layers, _ in traced]), unit)
            for name, (_, unit) in units.items()
        }
        for *_, rep_unmeasured in traced:
            unmeasured &= rep_unmeasured
        traced_tps = throughput(traced)
        metrics["trace.overhead_ratio"] = (
            plain_tps / traced_tps if traced_tps else 0.0, "ratio")
        # The result holds only the contract's keys, so the record says which
        # zeros are not measurements.
        trace_record = {
            "missing_targets": sorted(tracer.missing),
            "unmeasured_metrics": sorted(unmeasured),
        }
        if unmeasured:
            print("not measured in this process, reads 0:", sorted(unmeasured),
                  file=sys.stderr)
        if tracer.missing:
            print("absent from the package:", sorted(tracer.missing), file=sys.stderr)
        tracer.save(OUT_DIR / f"{tag}-seed{args.seed}.spans.npz")

    csv_sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "none"
    record = {
        "workload": args.workload,
        "tiny": args.tiny,
        "trace": args.trace,
        "environment": environment(workload, args.seed),
        "csv_sha256": csv_sha,
        "golden_sha256": hashlib.sha256(run.golden).hexdigest(),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "setup_s_samples": run.setup,
        "untraced_trials_per_s_samples": [trials / ran for trials, ran, _ in plain],
        "wall_s_samples": [wall for *_, wall in plain],
        "error_rate": run.failed / run.attempted,
        **trace_record,
    }
    (OUT_DIR / f"{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=2) + "\n")
    print(json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
