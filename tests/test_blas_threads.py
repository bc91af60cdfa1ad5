"""What a sweep sets in each of its processes, through the one preparation
that the caller and every pool worker run. One BLAS thread: the pin inside a
sweep, its restore, the pool workers, the thread pool a forked worker must
not start again, the calls made only to change the count, the no-OpenBLAS
case, and the counts the pin must not change. The retained heap: the pool
workers, and the page faults it saves."""

import contextlib
import os
import resource
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from pathlib import Path

import pytest

from onebit_mimo import linalg, montecarlo
from onebit_mimo.channel import SystemConfig
from onebit_mimo.errors import RankDeficientError
from onebit_mimo.montecarlo import TrialPlan, _batch_counts, ber_sweep
from onebit_mimo.receivers import ReceiverKind
from test_cli import BrokenPool


def small_plan(**overrides):
    base = dict(
        config=SystemConfig(2, 8),
        kinds=(ReceiverKind.MRC, ReceiverKind.BMMSE),
        snr_db_grid=(0.0, 10.0),
        max_trials=1_500,
        min_bit_errors=0,
        seed=3,
    )
    base.update(overrides)
    return TrialPlan(**base)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads, so that a pin to one shows; the
    previous count comes back afterwards."""
    threads = linalg._THREADS
    if threads is None:
        pytest.skip("numpy's linalg exposes no OpenBLAS thread calls")
    previous = threads.get()
    threads.set(2)
    try:
        counts = linalg.openblas_threads()
        assert counts == {threads.library: 2}
        yield counts
    finally:
        threads.set(previous)


def test_sweep_runs_one_blas_thread(two_blas_threads, monkeypatch):
    seen = []

    def recording_batch(plan, points, start, stop):
        seen.append(linalg.openblas_threads())
        return {point: dict.fromkeys(kinds, 0) for point, kinds in points.items()}

    monkeypatch.setattr(montecarlo, "_batch_counts", recording_batch)
    ber_sweep([small_plan()])
    floor_plans = [
        small_plan(config=SystemConfig(k, 8 * k, "qpsk"),
                   kinds=(ReceiverKind.MRC,), snr_db_grid=(30.0,), max_trials=10)
        for k in (1, 2)
    ]
    ber_sweep(floor_plans)
    assert seen == [dict.fromkeys(two_blas_threads, 1)] * 4
    assert linalg.openblas_threads() == two_blas_threads


def test_previous_counts_back_when_the_sweep_raises(two_blas_threads, monkeypatch):
    def failing_plan(*args):
        assert set(linalg.openblas_threads().values()) == {1}
        raise RankDeficientError("every draw rank-deficient")

    monkeypatch.setattr(montecarlo, "_plan_records", failing_plan)
    with pytest.raises(RankDeficientError):
        ber_sweep([small_plan()])
    assert linalg.openblas_threads() == two_blas_threads


def sweep_initializer(monkeypatch):
    """The initializer a two-worker sweep gives its pool."""
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    ber_sweep([small_plan()], workers=2)
    (kwargs,) = built
    return kwargs["initializer"]


@pytest.mark.parametrize("broken", [False, True], ids=["pool", "broken-pool"])
def test_previous_counts_back_after_a_pool(two_blas_threads, monkeypatch, broken):
    shutdowns = []

    class RecordingPool(BrokenPool if broken else ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shutdowns.append(kwargs)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    with pytest.raises(BrokenProcessPool) if broken else contextlib.nullcontext():
        ber_sweep([small_plan()], workers=2)
    assert shutdowns == [{"cancel_futures": True}]
    assert linalg.openblas_threads() == two_blas_threads


#: The process ids :func:`record_preparation` ran in, in this process.
PREPARED = []


def record_preparation():
    """Stands in for ``montecarlo._prepare_process``; a module-level function,
    so that a spawned worker could unpickle it too."""
    PREPARED.append(os.getpid())


def test_one_preparation_for_the_caller_and_the_workers(monkeypatch):
    monkeypatch.setattr(montecarlo, "_prepare_process", record_preparation)
    PREPARED.clear()
    ber_sweep([small_plan(max_trials=10)])
    assert PREPARED == [os.getpid()]
    PREPARED.clear()
    # Each worker runs it in its own process, so only the caller's call is
    # recorded here.
    assert sweep_initializer(monkeypatch) is record_preparation
    assert PREPARED == [os.getpid()]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_run_one_blas_thread(two_blas_threads, monkeypatch, method):
    initializer = sweep_initializer(monkeypatch)
    context = get_context(method)
    if method == "fork":
        # Negative control: without the initializer a forked worker keeps
        # the parent's two threads.
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            plain = pool.submit(linalg.openblas_threads).result(timeout=120)
        assert plain == two_blas_threads
    with ProcessPoolExecutor(1, mp_context=context, initializer=initializer) as pool:
        pinned = pool.submit(linalg.openblas_threads).result(timeout=120)
    # Forked or spawned, the worker binds numpy's OpenBLAS and runs it at
    # one thread.
    assert pinned == dict.fromkeys(two_blas_threads, 1)


def worker_threads():
    """numpy's OpenBLAS thread count and the number of OS threads of the
    process that calls this."""
    return linalg.openblas_threads(), len(os.listdir("/proc/self/task"))


def pin_directly():
    """Calls OpenBLAS's setter for one thread, whatever its count."""
    linalg._THREADS.set(1)


def test_forked_worker_starts_no_blas_thread(two_blas_threads, monkeypatch):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count a process's threads in")
    initializer = sweep_initializer(monkeypatch)
    montecarlo._prepare_process()
    pinned = dict.fromkeys(two_blas_threads, 1)
    context = get_context("fork")
    # Negative control: OpenBLAS's fork handler shut its thread pool down in
    # the child, and a set call, even to the inherited count, starts it again.
    with ProcessPoolExecutor(1, mp_context=context, initializer=pin_directly) as pool:
        assert pool.submit(worker_threads).result(timeout=120) == (pinned, 2)
    # The worker inherits the caller's one thread, so its preparation calls
    # nothing and the worker runs on its own thread alone.
    with ProcessPoolExecutor(1, mp_context=context, initializer=initializer) as pool:
        assert pool.submit(worker_threads).result(timeout=120) == (pinned, 1)


def test_openblas_is_called_only_to_change_its_count(monkeypatch):
    # Starts at two threads; each set call's count is the current one.
    calls = []
    stub = linalg._Threads(set=calls.append, get=lambda: (calls or [2])[-1], library="libstub.so")
    monkeypatch.setattr(linalg, "_THREADS", stub)
    assert linalg.set_openblas_threads(2) == 2
    assert calls == []
    assert linalg.set_openblas_threads(1) == 2
    assert calls == [1]
    # A sweep in a process already at one thread neither pins nor restores.
    ber_sweep([small_plan(max_trials=10)])
    assert calls == [1]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_retain_the_heap(monkeypatch, method):
    if montecarlo._MALLOPT is None:
        pytest.skip("the C library is not glibc")
    initializer = sweep_initializer(monkeypatch)
    assert montecarlo.heap_retained()
    # A forked worker would inherit this process's setting; clear the flag
    # so that only the initializer can set it again.
    monkeypatch.setattr(montecarlo, "_heap_retained", False)
    context = get_context(method)
    # Negative control: without the initializer no worker has the setting.
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        assert not pool.submit(montecarlo.heap_retained).result(timeout=120)
    with ProcessPoolExecutor(1, mp_context=context, initializer=initializer) as pool:
        assert pool.submit(montecarlo.heap_retained).result(timeout=120)


# Minor page faults per trial of a K=16, N=128 run with all eight receivers,
# measured over a second run after a first one has warmed the process up.
# The process that never sweeps sets glibc's mmap and trim thresholds to
# their static defaults, 128 KiB each: glibc's dynamic thresholds rise with
# the blocks freed so far, so without that its reading would depend on the
# order of the allocations before it.
_FAULTS_PER_TRIAL = """
import resource, sys
from onebit_mimo import linalg, montecarlo
from onebit_mimo.channel import SystemConfig
from onebit_mimo.montecarlo import TrialPlan, _batch_counts, ber_sweep
from onebit_mimo.receivers import ReceiverKind

trials = 8
plan = TrialPlan(
    config=SystemConfig(16, 128, "qpsk"),
    kinds=tuple(ReceiverKind), snr_db_grid=(30.0,), max_trials=trials,
    min_bit_errors=0, seed=5,
)
if sys.argv[1] == "sweep":
    def run():
        ber_sweep([plan])
else:
    for param in (montecarlo._M_MMAP_THRESHOLD, montecarlo._M_TRIM_THRESHOLD):
        assert montecarlo._MALLOPT(param, 128 * 1024)
    linalg.set_openblas_threads(1)
    def run():
        _batch_counts(plan, {0: plan.kinds}, 0, trials)
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / trials)
"""


def faults_per_trial(how):
    """Steady-state minor page faults per trial in a fresh interpreter that
    runs the same trials twice, through ``ber_sweep`` (``"sweep"``) or, in a
    process that never sweeps, through ``_batch_counts`` at one BLAS thread
    (``"batch"``)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_TRIAL, how],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return float(result.stdout)


def test_swept_process_faults_no_temporaries_in():
    if montecarlo._MALLOPT is None:
        pytest.skip("the C library is not glibc")
    # glibc's default thresholds hand the N x N temporaries back to the
    # kernel after every chunk (negative control): at least the pages of one
    # N x N complex array per trial ...
    assert faults_per_trial("batch") >= 128 * 128 * 16 // resource.getpagesize()
    # ... and a sweep keeps them, so a trial faults no page in.
    assert faults_per_trial("sweep") < 2


def test_without_openblas_nothing_is_pinned(two_blas_threads, monkeypatch):
    threads = linalg._THREADS

    def actual_counts():
        return {threads.library: threads.get()}

    monkeypatch.setattr(linalg, "_THREADS", None)
    assert linalg.openblas_threads() == {}
    assert linalg.set_openblas_threads(1) is None
    assert actual_counts() == two_blas_threads
    assert montecarlo._prepare_process() is None
    assert actual_counts() == two_blas_threads


def test_only_numpys_openblas_is_reported():
    # scipy.linalg loads an OpenBLAS of its own, which no simulator code
    # calls; the pin and its report name numpy's alone.
    pytest.importorskip("scipy.linalg")
    if linalg._POSV is None or linalg._THREADS is None:
        pytest.skip("numpy's linalg exposes no OpenBLAS zposv and thread calls")
    library, _ = linalg.large_order_kernel().split()
    assert list(linalg.openblas_threads()) == [library]


def test_pinned_counts_equal_multithreaded_counts(two_blas_threads):
    # Oracle: the per-kind error counts of the hardest fig2 point under
    # several BLAS threads equal those of the pinned sweep.
    config = SystemConfig(16, 128, "qpsk")
    kinds = tuple(ReceiverKind)
    plan = TrialPlan(
        config=config,
        kinds=kinds,
        snr_db_grid=(30.0,),
        max_trials=40,
        min_bit_errors=0,
        seed=11,
    )
    threaded = _batch_counts(plan, {0: kinds}, 0, 40)[0]
    pinned = {record.kind: record.bit_errors for record in ber_sweep([plan])}
    assert pinned == threaded
    assert any(threaded.values())
