"""One BLAS thread per simulator process: the pin inside a sweep, its
restore, the pool workers, the no-OpenBLAS case, and the counts the pin must
not change."""

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from onebit_mimo import linalg, montecarlo
from onebit_mimo.channel import SystemConfig
from onebit_mimo.errors import RankDeficientError
from onebit_mimo.montecarlo import TrialPlan, _batch_counts, ber_sweep
from onebit_mimo.receivers import ReceiverKind


def small_plan(**overrides):
    base = dict(
        config=SystemConfig(2, 8, 1.0),
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
    """Every loaded OpenBLAS at two threads, so that a pin to one shows;
    the previous counts come back afterwards."""
    calls = linalg._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS loaded in this process")
    previous = [get_threads() for _, get_threads, _ in calls]
    for _, _, set_threads in calls:
        set_threads(2)
    try:
        counts = linalg.openblas_threads()
        assert set(counts.values()) == {2}
        yield counts
    finally:
        for (_, _, set_threads), count in zip(calls, previous):
            set_threads(count)


def test_sweep_runs_one_blas_thread(two_blas_threads, monkeypatch):
    seen = []

    def recording_batch(plan, points, start, stop):
        seen.append(linalg.openblas_threads())
        return {point: dict.fromkeys(kinds, 0) for point, kinds in points.items()}

    monkeypatch.setattr(montecarlo, "_batch_counts", recording_batch)
    ber_sweep([small_plan()])
    floor_plans = [
        small_plan(config=SystemConfig.from_snr_db(k, 8 * k, 30.0, "qpsk"),
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


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_run_one_blas_thread(two_blas_threads, monkeypatch, method):
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    ber_sweep([small_plan()], workers=2)
    (kwargs,) = built
    context = get_context(method)
    if method == "fork":
        # Negative control: without the initializer a forked worker keeps
        # the parent's two threads.
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            plain = pool.submit(linalg.openblas_threads).result(timeout=120)
        assert plain == two_blas_threads
    with ProcessPoolExecutor(
        1, mp_context=context, initializer=kwargs["initializer"]
    ) as pool:
        pinned = pool.submit(linalg.openblas_threads).result(timeout=120)
    if method == "fork":
        # A forked worker has every library its parent loaded.
        assert pinned == dict.fromkeys(two_blas_threads, 1)
    # A spawned worker loads only what its imports need, numpy's OpenBLAS
    # among it; whatever it loaded runs at one thread.
    assert set(pinned) <= set(two_blas_threads)
    assert set(pinned.values()) == {1}
    if linalg._POSV is not None and "openblas" in linalg._POSV.library.lower():
        assert linalg._POSV.library in pinned


def test_without_openblas_nothing_is_pinned(two_blas_threads, monkeypatch):
    calls = linalg._openblas_thread_calls()

    def actual_counts():
        return {name: get_threads() for name, get_threads, _ in calls}

    monkeypatch.setattr(linalg, "_loaded_openblas", lambda: [])
    assert linalg.openblas_threads() == {}
    with linalg.single_blas_thread():
        assert actual_counts() == two_blas_threads
    linalg.pin_one_blas_thread()
    assert actual_counts() == two_blas_threads
    monkeypatch.undo()
    monkeypatch.setattr(linalg.sys, "platform", "darwin")
    assert linalg._loaded_openblas() == []


def test_pinned_counts_equal_multithreaded_counts(two_blas_threads):
    # Oracle: the per-kind error counts of the hardest fig2 point under
    # several BLAS threads equal those of the pinned sweep.
    config = SystemConfig.from_snr_db(16, 128, 30.0, "qpsk")
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
