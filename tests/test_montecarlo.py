"""Trial execution, sweeps, stopping rule, determinism, and the
statistical diagnostics."""

import inspect
import json
import math
import tracemalloc
from concurrent.futures import Executor, Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import linalg, montecarlo, receivers
from onebit_mimo.bussgang import QuantizedStatistics, received_covariance
from onebit_mimo.channel import (
    SystemConfig,
    draw_channel,
    noise_power_from_snr_db,
    one_bit_quantize,
    transmit,
)
from onebit_mimo.errors import (
    DegenerateDenominatorError,
    NotPositiveDefiniteError,
    RankDeficientError,
)
from onebit_mimo.montecarlo import (
    BATCH_SIZE,
    BerRecord,
    TrialPlan,
    ber_sweep,
    residual_cross_covariance,
    run_trial,
    sample_output_covariance,
    wilson_interval,
)
from onebit_mimo.modulation import (
    make_constellation,
    map_bits_to_symbols,
    supported_modulations,
    symbols_to_bits,
)
from onebit_mimo.receivers import (
    NOISE_INDEPENDENT_KINDS,
    SAME_COMBINER,
    ReceiverKind,
    build_combiner,
    detect_pipeline,
)
from onebit_mimo.results import emit_results
from onebit_mimo.rng import CHANNEL, NOISE, SYMBOLS, trial_keys, trial_streams
from shared import rayleigh_channel, seed_sequence_stream, v1_bits, v1_channel, v1_noise


def grid_plan(config, kinds, seed, grid, quantized=True):
    """A plan for calling ``_batch_counts`` directly; its trial cap and
    error target are not read there."""
    return TrialPlan(config=config, kinds=kinds, snr_db_grid=grid, max_trials=1,
                     min_bit_errors=0, seed=seed, quantized=quantized)


def point_counts(config, snr_db, kinds, seed, start, stop):
    """``_batch_counts`` over [start, stop) at the one grid point ``snr_db``."""
    plan = grid_plan(config, kinds, seed, (snr_db,))
    return montecarlo._batch_counts(plan, {0: kinds}, start, stop)[0]


def oracle_counts(plan, start, stop, redrawn=frozenset()):
    """Per-point, per-kind sums of single ``run_trial`` calls over [start,
    stop), the trials in ``redrawn`` from their first redraw."""
    totals = {}
    for point, snr_db in enumerate(plan.snr_db_grid):
        noise_power = noise_power_from_snr_db(snr_db)
        singles = [
            run_trial(plan.config, plan.kinds, trial_streams(plan.seed, [i], int(i in redrawn)),
                      noise_power, plan.quantized)
            for i in range(start, stop)
        ]
        totals[point] = {kind: sum(t[kind] for t in singles) for kind in plan.kinds}
    return totals


def point_oracle(config, snr_db, kinds, seed, start, stop, redrawn=frozenset()):
    """``oracle_counts`` at the one grid point ``snr_db``."""
    plan = grid_plan(config, kinds, seed, (snr_db,))
    return oracle_counts(plan, start, stop, redrawn)[0]


def every_point(plan):
    """The ``points`` argument of ``_batch_counts``: every kind at every point."""
    return dict.fromkeys(range(len(plan.snr_db_grid)), plan.kinds)


def recorded_chunks(monkeypatch):
    """The trial count of each chunk drawn from here on, in order."""
    lengths = []
    init = montecarlo._ChunkDraws.__init__

    def recording(draws, config, streams):
        init(draws, config, streams)
        lengths.append(len(draws.channel))

    monkeypatch.setattr(montecarlo._ChunkDraws, "__init__", recording)
    return lengths


def two_chunk_range(start, antennas):
    """A trial range from ``start`` over one full chunk and a partial one,
    and the chunk size."""
    chunk = montecarlo._CHUNK_ELEMENTS // antennas**2
    return range(start, start + chunk + chunk // 8), chunk


class TestRunTrial:
    def test_unquantized_noiseless_zf_has_no_errors(self):
        cfg = SystemConfig(2, 8)
        for index in range(50):
            errors = run_trial(
                cfg, (ReceiverKind.ZF,), trial_streams(3, [index]), 1e-30, quantized=False
            )
            assert errors[ReceiverKind.ZF] == 0

    def test_single_user_single_antenna_qpsk_survives_quantization(self):
        # The quadrant of h*x is recovered after dividing out h, so one-bit
        # sampling is lossless here as noise vanishes.
        cfg = SystemConfig(1, 1)
        for index in range(200):
            errors = run_trial(cfg, (ReceiverKind.MRC,), trial_streams(9, [index]), 1e-20)
            assert errors[ReceiverKind.MRC] == 0

    def test_deterministic_given_streams(self):
        cfg = SystemConfig(2, 8)
        kinds = tuple(ReceiverKind)
        a = run_trial(cfg, kinds, trial_streams(11, [4]), 0.5)
        b = run_trial(cfg, kinds, trial_streams(11, [4]), 0.5)
        assert a == b

    def test_counts_do_not_depend_on_requested_kinds(self):
        # A kind's error count is a function of (seed, trial) only, which is
        # what makes speculative parallel batches exact.
        cfg = SystemConfig(2, 8)
        all_counts = run_trial(cfg, tuple(ReceiverKind), trial_streams(13, [7]), 0.1)
        solo = run_trial(cfg, (ReceiverKind.BMMSE,), trial_streams(13, [7]), 0.1)
        assert solo[ReceiverKind.BMMSE] == all_counts[ReceiverKind.BMMSE]

    def test_wfq_alone_counts_as_aqnm_mmse(self):
        cfg = SystemConfig(4, 8, "16qam")
        total = 0
        for index in range(20):
            wfq = run_trial(cfg, (ReceiverKind.WFQ,), trial_streams(15, [index]), 0.1)
            aqnm = run_trial(cfg, (ReceiverKind.AQNM_MMSE,), trial_streams(15, [index]), 0.1)
            assert wfq == {ReceiverKind.WFQ: aqnm[ReceiverKind.AQNM_MMSE]}
            total += wfq[ReceiverKind.WFQ]
        assert total > 0

    @pytest.mark.parametrize("noise_power", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_noise_power_before_drawing(self, monkeypatch, noise_power):
        # MRC alone builds no QuantizedStatistics, whose own check would
        # stop the trial: run_trial's check is the one that raises.
        def no_draw(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(montecarlo, "draw_channel", no_draw)
        with pytest.raises(ValueError, match="noise_power must be"):
            run_trial(SystemConfig(2, 8), (ReceiverKind.MRC,), trial_streams(3, [0]), noise_power)

    def test_mrc_runs_at_a_finite_positive_noise_power(self, monkeypatch):
        errors = run_trial(SystemConfig(2, 8), (ReceiverKind.MRC,), trial_streams(3, [0]), 1e-3)
        assert list(errors) == [ReceiverKind.MRC]
        # Negative control: without the check, MRC runs at a noise power of 0.
        monkeypatch.setattr(montecarlo, "check_noise_power", lambda noise_power: noise_power)
        run_trial(SystemConfig(2, 8), (ReceiverKind.MRC,), trial_streams(3, [0]), 0.0)


def leads_with_config_kinds_streams(fn):
    return list(inspect.signature(fn).parameters)[:3] == ["config", "kinds", "streams"]


class TestBenchmarkHooks:
    def test_run_trial_takes_config_kinds_streams_first(self):
        # The benchmark's Tracer._count_trial (perfbench/tracing.py) reads a
        # run_trial call's kinds from args[1].
        assert leads_with_config_kinds_streams(run_trial)

    def test_noise_power_second_fails_the_check(self):
        # Negative control: a run_trial with the noise power moved second.
        def stand_in(config, noise_power, kinds, streams, quantized=True):
            return run_trial(config, kinds, streams, noise_power, quantized)

        assert not leads_with_config_kinds_streams(stand_in)


class TestBatchedEngine:
    def test_chunks_equal_single_trials(self, monkeypatch):
        self.check_chunks_equal_single_trials(monkeypatch, 2)

    @pytest.mark.parametrize("users", [8, 9], ids=["gufunc-solves", "lapack-solves"])
    def test_chunks_equal_single_trials_either_side_of_the_solve_cut(self, monkeypatch, users):
        # The K x K solves take numpy's stacked kernel up to order 8 and the
        # per-slice LAPACK one above; BMMSE's 16 x 16 solve takes LAPACK.
        self.check_chunks_equal_single_trials(monkeypatch, users)

    @staticmethod
    def check_chunks_equal_single_trials(monkeypatch, users):
        # One full chunk at N=16 and a partial one.
        cfg = SystemConfig(users, 16, "16qam")
        kinds = tuple(ReceiverKind)
        trials, chunk = two_chunk_range(50, cfg.antennas)
        oracle = point_oracle(cfg, 5.0, kinds, 17, trials.start, trials.stop)
        chunks = recorded_chunks(monkeypatch)
        totals = point_counts(cfg, 5.0, kinds, 17, trials.start, trials.stop)
        assert chunks == [chunk, len(trials) - chunk]
        assert totals == oracle
        assert all(totals.values())

    def test_chunks_equal_single_trials_at_n128(self, monkeypatch):
        # A chunk boundary at the index where a trial's key takes a second
        # entropy word, and a partial chunk after it.
        cfg = SystemConfig(2, 128, "qpsk")
        kinds = tuple(ReceiverKind)
        chunk = montecarlo._CHUNK_ELEMENTS // cfg.antennas**2
        start, stop = 2**32 - chunk, 2**32 + chunk // 2
        oracle = point_oracle(cfg, 0.0, kinds, 17, start, stop)
        chunks = recorded_chunks(monkeypatch)
        assert point_counts(cfg, 0.0, kinds, 17, start, stop) == oracle
        assert chunks == [chunk, chunk // 2]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_bulk_keyed_draws_equal_trial_streams(self, monkeypatch, chunk):
        # A batch that starts off 0 and ends in a partial chunk; the chunk
        # size is _CHUNK_ELEMENTS // N**2.
        cfg = SystemConfig(3, 4, "16qam")
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk * cfg.antennas**2)
        # The noise reaches no stage alone, so the receive vectors the
        # quantizer sees are compared with transmit(channel, symbols) + noise.
        stacks = []

        def recording_transmit(channel, symbols):
            stacks.append(channel)
            return transmit(channel, symbols)

        bit_stacks = []

        def recording_map(bits, constellation):
            bit_stacks.append(bits)
            return map_bits_to_symbols(bits, constellation)

        received_stacks = []

        def recording_quantize(received):
            received_stacks.append(received)
            return one_bit_quantize(received)

        monkeypatch.setattr(montecarlo, "transmit", recording_transmit)
        monkeypatch.setattr(montecarlo, "map_bits_to_symbols", recording_map)
        monkeypatch.setattr(montecarlo, "one_bit_quantize", recording_quantize)
        start, stop = 1003, 1003 + 2 * chunk + 1
        point_counts(cfg, 10.0, (ReceiverKind.ZF,), 23, start, stop)

        assert [len(channel) for channel in stacks] == [chunk, chunk, 1]
        # The oracle: each trial's streams built from their own SeedSequence,
        # drawn by stream v1's per-trial formulas.
        channel_rngs, symbol_rngs, noise_rngs = (
            [seed_sequence_stream(23, i, purpose) for i in range(start, stop)]
            for purpose in (CHANNEL, SYMBOLS, NOISE)
        )
        channel = np.stack([v1_channel(rng, cfg.antennas, cfg.users) for rng in channel_rngs])
        bits = np.stack([v1_bits(rng, 3 * 4) for rng in symbol_rngs])
        noise = np.stack([v1_noise(rng, cfg.antennas, 0.1) for rng in noise_rngs])
        received = transmit(channel, map_bits_to_symbols(bits, make_constellation("16qam"))) + noise
        assert np.concatenate(stacks).tobytes() == channel.tobytes()
        assert np.concatenate(bit_stacks).tobytes() == bits.tobytes()
        assert np.concatenate(received_stacks).tobytes() == received.tobytes()

    def test_clean_range_builds_no_per_trial_streams(self, monkeypatch):
        # Two chunks at N=16, keyed in one trial_streams call for the whole
        # batch, not one per chunk or trial.
        cfg = SystemConfig(2, 16, "qpsk")
        kinds = tuple(ReceiverKind)
        trials, chunk = two_chunk_range(60, cfg.antennas)
        oracle = point_oracle(cfg, 10.0, kinds, 29, trials.start, trials.stop)
        chunks = recorded_chunks(monkeypatch)
        calls = []

        def counting_streams(*args):
            calls.append(args)
            return trial_streams(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("a SeedSequence was built")

        monkeypatch.setattr(montecarlo, "trial_streams", counting_streams)
        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        totals = point_counts(cfg, 10.0, kinds, 29, trials.start, trials.stop)
        assert chunks == [chunk, len(trials) - chunk]
        assert totals == oracle
        assert calls == [(29, trials)]

    def test_one_build_per_distinct_combiner(self, monkeypatch):
        # WFQ's counts are AQNM-MMSE's: a chunk over all eight kinds builds
        # seven combiners, none of them for WFQ.
        built = []

        def counting_build(kind, *args, **kwargs):
            built.append(kind)
            return build_combiner(kind, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "build_combiner", counting_build)
        cfg = SystemConfig(2, 16, "qpsk")
        chunk = montecarlo._CHUNK_ELEMENTS // cfg.antennas**2
        totals = point_counts(cfg, 0.0, tuple(ReceiverKind), 19, 0, chunk)
        assert len(built) == 7
        assert ReceiverKind.WFQ not in built
        assert totals[ReceiverKind.WFQ] == totals[ReceiverKind.AQNM_MMSE] > 0

    @pytest.mark.parametrize("users, antennas", [(2, 16), (9, 16), (16, 128)])
    def test_every_solve_is_complex(self, monkeypatch, users, antennas):
        # Every receiver solves a complex system, Hermitian by construction:
        # the solver's precondition, which it does not check. The K x K
        # systems at K=2 go through the gufuncs, the rest through zposv.
        matrices = []

        def spy(matrix, rhs):
            matrices.append(matrix.copy())
            return linalg.hermitian_solve(matrix, rhs)

        def asymmetry(matrix):
            return np.abs(matrix - matrix.conj().mT).max()

        monkeypatch.setattr(receivers, "hermitian_solve", spy)
        cfg = SystemConfig(users, antennas, "qpsk")
        point_counts(cfg, 10.0, tuple(ReceiverKind), 31, 0, 2)
        assert len(matrices) == 5
        assert all(np.iscomplexobj(matrix) for matrix in matrices)
        assert all(asymmetry(matrix) <= 1e-10 for matrix in matrices)
        # Negative control: one off-diagonal entry moved by 1e-6 fails it.
        matrices[-1][0, 0, 1] += 1e-6
        assert not asymmetry(matrices[-1]) <= 1e-10


@st.composite
def split_ranges(draw):
    """A plan over K <= N <= 40 and any modulation, and trial indices
    a < b < c, possibly past 2**32, that split [a, c) into two parts."""
    users = draw(st.integers(1, 40))
    config = SystemConfig(users, draw(st.integers(users, 40)),
                          draw(st.sampled_from(supported_modulations())))
    grid = draw(st.lists(st.sampled_from([-5.0, 10.0, 30.0]), min_size=1, max_size=2,
                         unique=True))
    plan = grid_plan(config, tuple(ReceiverKind), draw(st.integers(0, 2**64 - 1)),
                     tuple(grid), draw(st.booleans()))
    a = draw(st.integers(0, 2**33))
    b = a + draw(st.integers(1, 9))
    return plan, a, b, b + draw(st.integers(1, 9))


class TestRangeSplit:
    """A trial range draws and counts what its parts draw and count, at any
    chunk size: trial i's draws depend on the seed and i alone."""

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(case=split_ranges(), chunk=st.integers(1, 8))
    def test_range_is_its_parts(self, case, chunk):
        plan, a, b, c = case

        def draws(start, stop):
            streams = trial_streams(plan.seed, range(start, stop))
            drawn = montecarlo._ChunkDraws(plan.config, streams)
            return [getattr(drawn, name).tobytes() for name in ("channel", "bits", "noise", "signal")]

        assert draws(a, c) == [x + y for x, y in zip(draws(a, b), draws(b, c))]

        points = every_point(plan)
        whole = montecarlo._batch_counts(plan, points, a, c)
        first, second = (montecarlo._batch_counts(plan, points, *part)
                         for part in ((a, b), (b, c)))
        assert whole == {
            point: {kind: first[point][kind] + second[point][kind] for kind in kinds}
            for point, kinds in points.items()
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk * plan.config.antennas**2)
            assert montecarlo._batch_counts(plan, points, a, c) == whole


class TestStackedDetection:
    """All distinct combiners of a (chunk, point) are detected in one pass."""

    @pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "analog"])
    @pytest.mark.parametrize(
        "users, antennas, modulation", [(2, 16, "qpsk"), (16, 128, "qpsk"), (4, 32, "16qam")]
    )
    def test_detects_what_each_combiner_detects_alone(
        self, monkeypatch, users, antennas, modulation, quantized
    ):
        cfg = SystemConfig(users, antennas, modulation)
        noise_power = noise_power_from_snr_db(5.0)
        trials = 3 if antennas == 128 else 40
        draws = montecarlo._ChunkDraws(cfg, trial_streams(37, range(trials)))
        passes = []

        def recording(*args):
            passes.append((args, detect_pipeline(*args)))
            return passes[-1][1]

        monkeypatch.setattr(montecarlo, "detect_pipeline", recording)
        kinds = tuple(ReceiverKind)
        errors = draws.errors(noise_power, kinds, quantized)
        [((observed, _, _, constellation), stacked)] = passes

        # The oracle: each distinct combiner built and detected on its own.
        received = (transmit(draws.channel, map_bits_to_symbols(draws.bits, constellation))
                    + draws.noise * np.sqrt(noise_power / 2.0))
        assert observed.tobytes() == (one_bit_quantize(received) if quantized else received).tobytes()
        stats = QuantizedStatistics(draws.channel, noise_power)
        formulas = list(dict.fromkeys(SAME_COMBINER.get(kind, kind) for kind in kinds))
        assert len(formulas) == len(stacked) == 7
        for formula, row in zip(formulas, stacked):
            combiner = build_combiner(formula, draws.channel, noise_power, stats=stats)
            alone = detect_pipeline(observed, combiner.matrix, combiner.eq_denominators, constellation)
            assert row.tobytes() == alone.tobytes(), formula
            bit_errors = np.count_nonzero(symbols_to_bits(alone, constellation) != draws.bits, axis=-1)
            for kind in kinds:
                if SAME_COMBINER.get(kind, kind) is formula:
                    assert errors[kind].tobytes() == bit_errors.tobytes(), kind

    def test_one_detection_per_chunk_and_point(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[1].shape)
            return detect_pipeline(*args)

        monkeypatch.setattr(montecarlo, "detect_pipeline", counting)
        cfg = SystemConfig(2, 16, "qpsk")
        chunk = montecarlo._CHUNK_ELEMENTS // cfg.antennas**2
        plan = grid_plan(cfg, tuple(ReceiverKind), 19, (-10.0, 0.0, 10.0))
        montecarlo._batch_counts(plan, every_point(plan), 0, 2 * chunk + 1)
        stacks = [(7, chunk, 2, 16)] * 2 + [(7, 1, 2, 16)]
        assert calls == [shape for shape in stacks for _ in plan.snr_db_grid]


class TestFoldedGrid:
    """One draw per chunk, evaluated at every grid point of a batch."""

    GRID = (-5.0, 5.0, 15.0)

    @pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "analog"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_folded_counts_equal_single_trials_per_point(self, monkeypatch, chunk, quantized):
        cfg = SystemConfig(2, 8, "16qam")
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk * cfg.antennas**2)
        plan = grid_plan(cfg, tuple(ReceiverKind), 31, self.GRID, quantized)
        start, stop = 1003, 1003 + 2 * chunk + 1
        totals = montecarlo._batch_counts(plan, every_point(plan), start, stop)
        assert totals == oracle_counts(plan, start, stop)
        assert all(any(counts.values()) for counts in totals.values())

    def test_noise_of_another_point_fails_the_oracle(self, monkeypatch):
        # Negative control: a fold that scales every point's noise with the
        # first point's N0 is told apart by the per-point oracle.
        cfg = SystemConfig(2, 8, "16qam")
        plan = grid_plan(cfg, tuple(ReceiverKind), 31, self.GRID)
        first = noise_power_from_snr_db(self.GRID[0])
        errors = montecarlo._ChunkDraws.errors

        def stale_noise(draws, noise_power, kinds, quantized):
            direction = draws.noise
            draws.noise = direction * np.sqrt(first / noise_power)
            try:
                return errors(draws, noise_power, kinds, quantized)
            finally:
                draws.noise = direction

        oracle = oracle_counts(plan, 0, 100)
        assert montecarlo._batch_counts(plan, every_point(plan), 0, 100) == oracle
        monkeypatch.setattr(montecarlo._ChunkDraws, "errors", stale_noise)
        stale = montecarlo._batch_counts(plan, every_point(plan), 0, 100)
        assert stale[0] == oracle[0]
        assert stale[1] != oracle[1] and stale[2] != oracle[2]

    def test_points_and_kinds_are_counted_as_given(self):
        cfg = SystemConfig(2, 16, "qpsk")
        plan = grid_plan(cfg, (ReceiverKind.MRC, ReceiverKind.BMMSE), 5, self.GRID)
        oracle = oracle_counts(plan, 0, 70)
        points = {2: (ReceiverKind.BMMSE,), 0: plan.kinds}
        totals = montecarlo._batch_counts(plan, points, 0, 70)
        assert totals == {
            2: {ReceiverKind.BMMSE: oracle[2][ReceiverKind.BMMSE]},
            0: oracle[0],
        }

    def test_noise_independent_combiners_do_not_read_the_noise_power(self):
        channel = rayleigh_channel(np.random.default_rng(4), 16, 2)
        for kind in NOISE_INDEPENDENT_KINDS:
            low, high = (build_combiner(kind, channel, n0) for n0 in (1e-3, 10.0))
            assert low.matrix.tobytes() == high.matrix.tobytes()
            assert low.eq_denominators.tobytes() == high.eq_denominators.tobytes()

    @pytest.mark.parametrize("grid", [(0.0,), (-10.0, 0.0, 10.0, 20.0)])
    def test_builds_per_chunk_and_per_point(self, monkeypatch, grid):
        # MRC and ZF once per chunk whatever the grid length; every kind
        # that reads the noise power once per (chunk, point); WFQ never.
        built = []

        def counting_build(kind, *args, **kwargs):
            built.append(kind)
            return build_combiner(kind, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "build_combiner", counting_build)
        cfg = SystemConfig(2, 16, "qpsk")
        chunk = montecarlo._CHUNK_ELEMENTS // cfg.antennas**2
        plan = grid_plan(cfg, tuple(ReceiverKind), 19, grid)
        montecarlo._batch_counts(plan, every_point(plan), 0, 2 * chunk + 1)
        chunks = 3
        assert NOISE_INDEPENDENT_KINDS == {ReceiverKind.MRC, ReceiverKind.ZF}
        assert {kind: built.count(kind) for kind in set(built)} == {
            kind: chunks if kind in NOISE_INDEPENDENT_KINDS else chunks * len(grid)
            for kind in ReceiverKind
            if kind not in SAME_COMBINER
        }


def _key(rng):
    return tuple(rng.bit_generator.state["state"]["key"].tolist())


def zero_last_column(h):
    h[:, -1] = 0


def copy_first_column(h):
    h[:, -1] = h[:, 0]


def faulty_channels(monkeypatch, fault):
    """Apply ``fault`` to the channel draws of the (trial, redraw) pairs
    added to the returned set.

    A draw is marked by the key of its channel stream, which a batch and a
    redrawn trial both take from ``trial_streams``; each row of a stacked
    draw is checked against the key of the generator that drew it."""
    targets = set()
    marked = set()

    def streams(seed, indices, redraw=0):
        for index, key in zip(indices, trial_keys(seed, indices, redraw)[CHANNEL]):
            if (index, redraw) in targets:
                marked.add(tuple(key.tolist()))
        return trial_streams(seed, indices, redraw)

    def channel(config, rngs):
        keys = []

        def recorded():
            for rng in rngs:
                keys.append(_key(rng))
                yield rng

        h = draw_channel(config, recorded())
        for row, key in zip(h, keys, strict=True):
            if key in marked:
                fault(row)
        return h

    monkeypatch.setattr(montecarlo, "trial_streams", streams)
    monkeypatch.setattr(montecarlo, "draw_channel", channel)
    return targets


@pytest.fixture
def zero_channels(monkeypatch):
    """Marked draws get a zero last channel column (for one user, an
    all-zero channel)."""
    return faulty_channels(monkeypatch, zero_last_column)


class RedrawChecks:
    """The checks every degenerate draw gets, for the fault a subclass names:
    the draws of its ``CONFIG`` with a zero last channel column raise
    ``ERROR`` and are logged as ``WORD`` draws at ``SNR_DB`` and on the
    ``GRID``."""

    def test_redraw_in_the_middle_of_a_chunk(self, zero_channels, caplog):
        zero_channels.add((37, 0))
        assert montecarlo._CHUNK_ELEMENTS // self.CONFIG.antennas**2 >= 100  # one chunk
        with caplog.at_level("WARNING", logger="onebit_mimo.montecarlo"):
            totals = point_counts(self.CONFIG, self.SNR_DB, self.KINDS, 21, 0, 100)
        assert totals == point_oracle(self.CONFIG, self.SNR_DB, self.KINDS, 21, 0, 100,
                                      redrawn={37})
        assert [r.getMessage() for r in caplog.records] == [
            f"discarding {self.WORD} draw at trial 37 (redraw 1) at {self.SNR_DB:g} dB"
        ]

    def test_consecutive_draws_raise(self, zero_channels):
        zero_channels.update((37, redraw) for redraw in range(montecarlo._MAX_REDRAWS))
        with pytest.raises(self.ERROR, match="consecutive"):
            point_counts(self.CONFIG, self.SNR_DB, self.KINDS, 21, 0, 100)

    def test_each_grid_point_redraws_the_trial(self, zero_channels, caplog):
        zero_channels.add((37, 0))
        plan = grid_plan(self.CONFIG, self.KINDS, 21, self.GRID)
        with caplog.at_level("WARNING", logger="onebit_mimo.montecarlo"):
            totals = montecarlo._batch_counts(plan, every_point(plan), 0, 100)
        assert totals == oracle_counts(plan, 0, 100, redrawn={37})
        assert [r.getMessage() for r in caplog.records] == [
            f"discarding {self.WORD} draw at trial 37 (redraw 1) at {snr_db:g} dB"
            for snr_db in self.GRID
        ]

    def test_consecutive_draws_raise_on_a_grid(self, zero_channels):
        zero_channels.update((37, redraw) for redraw in range(montecarlo._MAX_REDRAWS))
        plan = grid_plan(self.CONFIG, self.KINDS, 21, self.GRID)
        with pytest.raises(self.ERROR, match="consecutive"):
            montecarlo._batch_counts(plan, every_point(plan), 0, 100)


class TestRankDeficientRedraw(RedrawChecks):
    # One user, so a zero column is a zero channel: ZF's Gram matrix is 0,
    # which does not factor, and ZF runs first.
    CONFIG = SystemConfig(1, 4)
    SNR_DB = 7.0
    KINDS = (ReceiverKind.ZF, ReceiverKind.MMSE, ReceiverKind.BMMSE)
    GRID = (7.0, 20.0)
    ERROR = RankDeficientError
    WORD = "rank-deficient"


class TestCopiedColumnRedraw:
    """Two equal channel columns make ZF's Gram matrix singular; where
    Cholesky fails on it, the draw is redrawn as rank-deficient rather than
    regularised into a combiner."""

    CONFIG = SystemConfig(2, 16)
    SNR_DB = 7.0
    KINDS = (ReceiverKind.ZF,)

    def test_gram_that_does_not_factor_is_redrawn(self, monkeypatch, caplog):
        [h] = draw_channel(self.CONFIG, trial_streams(21, [37])[CHANNEL])
        copy_first_column(h)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(h.conj().T @ h)
        faulty_channels(monkeypatch, copy_first_column).add((37, 0))
        with caplog.at_level("WARNING", logger="onebit_mimo.montecarlo"):
            totals = point_counts(self.CONFIG, self.SNR_DB, self.KINDS, 21, 0, 100)
        assert totals == point_oracle(self.CONFIG, self.SNR_DB, self.KINDS, 21, 0, 100,
                                      redrawn={37})
        assert [r.getMessage() for r in caplog.records] == [
            "discarding rank-deficient draw at trial 37 (redraw 1) at 7 dB"
        ]


class TestZeroColumnRedraw(RedrawChecks):
    # Two users, one of them with a zero channel column: every kind's
    # equalization denominator for that user is zero.
    CONFIG = SystemConfig(2, 16)
    SNR_DB = 7.0
    KINDS = tuple(ReceiverKind)
    GRID = (-3.0, 7.0)
    ERROR = DegenerateDenominatorError
    WORD = "zero-denominator"

    def test_healthy_draws_at_minus_150_db_are_kept(self, zero_channels, caplog):
        # The denominators scale with 1/N0; healthy draws are no redraws at
        # any noise power, while a zero column still is one.
        zero_channels.add((37, 0))
        with caplog.at_level("WARNING", logger="onebit_mimo.montecarlo"):
            totals = point_counts(self.CONFIG, -150.0, self.KINDS, 21, 0, 100)
        assert [r.getMessage() for r in caplog.records] == [
            "discarding zero-denominator draw at trial 37 (redraw 1) at -150 dB"
        ]
        assert all(0.4 <= errors / (100 * 4) <= 0.6 for errors in totals.values())

    def test_second_trial_of_a_stacked_n128_chunk_is_redrawn(
        self, zero_channels, caplog, monkeypatch
    ):
        # At K=16, N=128 a chunk stacks several trials, so ZF's Gram matrices
        # go to posv as one stack in which the second slice fails; ZF runs
        # first, so the chunk is rerun trial by trial and that trial is
        # redrawn as rank-deficient.
        chunk = montecarlo._CHUNK_ELEMENTS // 128**2
        assert chunk >= 2
        config = SystemConfig(16, 128)
        kinds = (ReceiverKind.ZF, *(k for k in ReceiverKind if k is not ReceiverKind.ZF))
        stacks = []
        lapack_solve = linalg._lapack_solve

        def recording_solve(matrices, rhss):
            try:
                return lapack_solve(matrices, rhss)
            except NotPositiveDefiniteError:
                failed = []
                for index, matrix in enumerate(matrices):
                    try:
                        np.linalg.cholesky(matrix)
                    except np.linalg.LinAlgError:
                        failed.append(index)
                stacks.append((len(matrices), failed))
                raise

        monkeypatch.setattr(linalg, "_lapack_solve", recording_solve)
        zero_channels.add((1, 0))
        with caplog.at_level("WARNING", logger="onebit_mimo.montecarlo"):
            totals = point_counts(config, 30.0, kinds, 21, 0, chunk)
        assert totals == point_oracle(config, 30.0, kinds, 21, 0, chunk, redrawn={1})
        assert [r.getMessage() for r in caplog.records] == [
            "discarding rank-deficient draw at trial 1 (redraw 1) at 30 dB"
        ]
        assert (chunk, [1]) in stacks


def chunk_errors_peak():
    """Traced peak bytes of one ``_ChunkDraws.errors`` call on a chunk of
    K=16, N=128 trials, as many as ``_batch_counts`` stacks, with all eight
    receivers."""
    config = SystemConfig(16, 128)
    chunk = max(1, montecarlo._CHUNK_ELEMENTS // config.antennas**2)
    draws = montecarlo._ChunkDraws(config, trial_streams(3, range(chunk)))
    tracemalloc.start()
    try:
        draws.errors(noise_power_from_snr_db(30.0), tuple(ReceiverKind), True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    # A chunk's N x N memory is the received covariance BMMSE's matrix is
    # built over, plus one piece of temporaries; its combiners and their
    # detection stack add K x N arrays. At N=128 the chunk _batch_counts
    # picks (8 trials) peaks at about 2.6 N x N complex arrays per trial, one
    # of twice as many trials at about 2.3 per trial of its own. The bound of
    # 3 per trial of the picked chunk keeps the benchmark's peak RSS within
    # its bound.
    TRIALS = montecarlo._CHUNK_ELEMENTS // 128**2
    BOUND = 3 * TRIALS * 128**2 * np.dtype(complex).itemsize

    def test_n128_chunk_stays_within_its_bound(self):
        assert chunk_errors_peak() <= self.BOUND

    def test_twice_the_chunk_exceeds_the_bound(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 2 * montecarlo._CHUNK_ELEMENTS)
        assert chunk_errors_peak() > self.BOUND


class TestTrialPlan:
    def test_rejects_zero_max_trials(self):
        cfg = SystemConfig(2, 4)
        with pytest.raises(ValueError):
            TrialPlan(
                config=cfg,
                kinds=(ReceiverKind.ZF,),
                snr_db_grid=(0.0,),
                max_trials=0,
                min_bit_errors=10,
                seed=1,
            )

    def test_rejects_empty_grid(self):
        cfg = SystemConfig(2, 4)
        with pytest.raises(ValueError):
            TrialPlan(
                config=cfg,
                kinds=(ReceiverKind.ZF,),
                snr_db_grid=(),
                max_trials=10,
                min_bit_errors=10,
                seed=1,
            )

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"min_bit_errors": -1}, "min_bit_errors must be >= 0"),
            ({"kinds": ()}, "kinds must be nonempty"),
            ({"kinds": (ReceiverKind.ZF, ReceiverKind.ZF)}, "kinds must be unique"),
            ({"kinds": ("zf", "nope")}, "'nope' is not a valid ReceiverKind"),
            ({"seed": -1}, "seed must be a nonnegative integer"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"max_trials": 2.5}, "max_trials must be an integer, got 2.5"),
            ({"min_bit_errors": 0.5}, "min_bit_errors must be an integer, got 0.5"),
            ({"snr_db_grid": (0.0, 10.0, 0.0)}, "snr_db_grid points must be unique"),
        ],
        ids=["negative-error-target", "no-kinds", "duplicate-kinds", "unknown-name",
             "negative-seed", "float-seed", "float-trial-cap", "float-error-target",
             "repeated-grid-point"],
    )
    def test_rejects_invalid_field(self, field, message):
        plan = {"config": SystemConfig(2, 4), "kinds": (ReceiverKind.ZF,),
                "snr_db_grid": (0.0,), "max_trials": 10, "min_bit_errors": 10, "seed": 1}
        with pytest.raises(ValueError, match=message):
            TrialPlan(**{**plan, **field})

    def test_numpy_integers_sweep_as_ints(self, tmp_path):
        # Integer fields are tested as numbers.Integral, not as int, and
        # stored as int, so that the JSON output can write the records.
        plans = [
            TrialPlan(config=SystemConfig(integer(2), integer(4)), kinds=("zf",),
                      snr_db_grid=(0.0,), max_trials=integer(300),
                      min_bit_errors=integer(0), seed=integer(9))
            for integer in (int, np.int64)
        ]
        assert plans[0] == plans[1]
        written = []
        for plan in plans:
            path = tmp_path / f"{len(written)}.json"
            emit_results(ber_sweep([plan]), "json", path)
            written.append(json.loads(path.read_text())["records"])
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "grid", [(0.0, 4000.0), (-4000.0, 0.0), (0.0, float("nan"))],
        ids=["underflow", "overflow", "nan"],
    )
    def test_rejects_grid_point_without_noise_power(self, grid):
        # Every grid point's noise power is checked when the plan is built.
        cfg = SystemConfig(2, 4)
        with pytest.raises(ValueError, match="noise_power"):
            TrialPlan(
                config=cfg,
                kinds=(ReceiverKind.ZF,),
                snr_db_grid=grid,
                max_trials=10,
                min_bit_errors=10,
                seed=1,
            )

    def test_names_sweep_to_the_bytes_of_members(self, tmp_path):
        # emit_results sorts records by kind.value, so a name left as a
        # plain string would fail only after the whole sweep.
        members = (ReceiverKind.ZF, ReceiverKind.MMSE)
        written = []
        for kinds in [("zf", "mmse"), members]:
            plan = TrialPlan(config=SystemConfig(2, 4), kinds=kinds,
                             snr_db_grid=(0.0, 10.0), max_trials=200, min_bit_errors=0,
                             seed=9)
            assert all(isinstance(kind, ReceiverKind) for kind in plan.kinds)
            path = tmp_path / f"{len(written)}.csv"
            emit_results(ber_sweep([plan]), "csv", path)
            written.append(path.read_bytes())
        assert written[0] == written[1]


class TestBerRecord:
    def test_ber_and_validation(self):
        record = BerRecord(30.0, ReceiverKind.BMMSE, 2, 16, "qpsk", 10, 40, 4)
        assert record.ber == 0.1
        with pytest.raises(ValueError):
            BerRecord(30.0, ReceiverKind.BMMSE, 2, 16, "qpsk", 10, 40, 41)


class TestBerSweep:
    def test_stops_at_batch_boundary_or_cap(self):
        cfg = SystemConfig(2, 4)
        plan = TrialPlan(
            config=cfg,
            kinds=(ReceiverKind.MRC, ReceiverKind.ZF),
            snr_db_grid=(0.0,),
            max_trials=5_000,
            min_bit_errors=50,
            seed=7,
        )
        for record in ber_sweep([plan]):
            assert record.trials % BATCH_SIZE == 0 or record.trials == 5_000
            assert record.bits == record.trials * 2 * 2
            if record.trials < 5_000:
                assert record.bit_errors >= 50

    def test_zero_error_target_runs_every_trial(self):
        cfg = SystemConfig(2, 4)
        plan = TrialPlan(
            config=cfg,
            kinds=(ReceiverKind.MRC,),
            snr_db_grid=(0.0,),
            max_trials=1_500,
            min_bit_errors=0,
            seed=7,
        )
        (record,) = ber_sweep([plan])
        assert record.trials == 1_500

    def test_worker_count_does_not_change_counts(self):
        cfg = SystemConfig(2, 8)
        plan = TrialPlan(
            config=cfg,
            kinds=(ReceiverKind.MRC, ReceiverKind.BMMSE),
            snr_db_grid=(0.0, 10.0),
            max_trials=3_000,
            min_bit_errors=100,
            seed=21,
        )
        assert ber_sweep([plan], workers=1) == ber_sweep([plan], workers=2)

    def test_unquantized_zf_ber_decreases_with_snr(self):
        cfg = SystemConfig(2, 4)
        plan = TrialPlan(
            config=cfg,
            kinds=(ReceiverKind.ZF,),
            snr_db_grid=(0.0, 10.0),
            max_trials=3_000,
            min_bit_errors=0,
            seed=5,
            quantized=False,
        )
        low, high = ber_sweep([plan])
        # Allow 3-sigma binomial noise on the comparison.
        sigma = np.sqrt(
            low.ber * (1 - low.ber) / low.bits + high.ber * (1 - high.ber) / high.bits
        )
        assert low.ber >= high.ber - 3 * sigma

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_raises(self, monkeypatch, workers):
        calls = []
        monkeypatch.setattr(montecarlo, "_batch_counts", lambda *args: calls.append(args))
        monkeypatch.setattr(montecarlo, "_prepare_process", lambda: calls.append("prepare"))
        plan = TrialPlan(
            config=SystemConfig(2, 4),
            kinds=(ReceiverKind.ZF,),
            snr_db_grid=(0.0,),
            max_trials=1_000,
            min_bit_errors=0,
            seed=5,
        )
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ber_sweep([plan], workers=workers)
        assert calls == []

    def test_interrupted_sweep_cancels_queued_batches(self, monkeypatch):
        shutdowns = []

        class InterruptedPool(Executor):
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, fn, /, *args, **kwargs):
                future = Future()
                future.set_exception(KeyboardInterrupt())
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InterruptedPool)
        plan = TrialPlan(
            config=SystemConfig(2, 4),
            kinds=(ReceiverKind.ZF,),
            snr_db_grid=(0.0,),
            max_trials=5_000,
            min_bit_errors=0,
            seed=5,
        )
        with pytest.raises(KeyboardInterrupt):
            ber_sweep([plan], workers=2)
        assert shutdowns == [True]


class TestPlanRecords:
    def test_in_process_runs_each_folded_batch_once(self, monkeypatch):
        # MRC reaches the error target after two batches and ZF after three,
        # of five: the third batch runs ZF alone, and no fourth one runs.
        calls = []
        per_batch = {ReceiverKind.MRC: 100, ReceiverKind.ZF: 50}

        def counts(plan, points, start, stop):
            calls.append((points[0], start, stop))
            return {point: {kind: per_batch[kind] for kind in kinds}
                    for point, kinds in points.items()}

        monkeypatch.setattr(montecarlo, "_batch_counts", counts)
        kinds = (ReceiverKind.MRC, ReceiverKind.ZF)
        plan = TrialPlan(
            config=SystemConfig(2, 4),
            kinds=kinds,
            snr_db_grid=(0.0,),
            max_trials=5 * BATCH_SIZE,
            min_bit_errors=150,
            seed=7,
        )
        records = montecarlo._plan_records(plan, montecarlo._run_now, 1)
        # QPSK: 2 users x 2 bits per trial.
        assert [(r.kind, r.trials, r.bits, r.bit_errors) for r in records] == [
            (ReceiverKind.MRC, 2_000, 2_000 * 2 * 2, 200),
            (ReceiverKind.ZF, 3_000, 3_000 * 2 * 2, 150),
        ]
        assert calls == [
            (kinds, 0, 1_000),
            (kinds, 1_000, 2_000),
            ((ReceiverKind.ZF,), 2_000, 3_000),
        ]

    def test_stopped_points_drop_out_of_later_batches(self, monkeypatch):
        # At -10 dB both kinds reach the target in the first batch; at 0 dB
        # MRC stops after two batches and ZF after three; at 10 dB nothing
        # errs and the point runs to the cap, whose last batch is partial.
        per_batch = [
            {ReceiverKind.MRC: 500, ReceiverKind.ZF: 500},
            {ReceiverKind.MRC: 100, ReceiverKind.ZF: 50},
            {ReceiverKind.MRC: 0, ReceiverKind.ZF: 0},
        ]
        calls = []

        def counts(plan, points, start, stop):
            calls.append((points, start, stop))
            return {point: {kind: per_batch[point][kind] for kind in kinds}
                    for point, kinds in points.items()}

        monkeypatch.setattr(montecarlo, "_batch_counts", counts)
        kinds = (ReceiverKind.MRC, ReceiverKind.ZF)
        plan = TrialPlan(
            config=SystemConfig(2, 4),
            kinds=kinds,
            snr_db_grid=(-10.0, 0.0, 10.0),
            max_trials=4_500,
            min_bit_errors=150,
            seed=7,
        )
        records = montecarlo._plan_records(plan, montecarlo._run_now, 1)
        assert [(r.snr_db, r.kind, r.trials, r.bit_errors) for r in records] == [
            (-10.0, ReceiverKind.MRC, 1_000, 500),
            (-10.0, ReceiverKind.ZF, 1_000, 500),
            (0.0, ReceiverKind.MRC, 2_000, 200),
            (0.0, ReceiverKind.ZF, 3_000, 150),
            (10.0, ReceiverKind.MRC, 4_500, 0),
            (10.0, ReceiverKind.ZF, 4_500, 0),
        ]
        assert calls == [
            ({0: kinds, 1: kinds, 2: kinds}, 0, 1_000),
            ({1: kinds, 2: kinds}, 1_000, 2_000),
            ({1: (ReceiverKind.ZF,), 2: kinds}, 2_000, 3_000),
            ({2: kinds}, 3_000, 4_000),
            ({2: kinds}, 4_000, 4_500),
        ]

    def test_out_of_order_completion_folds_the_in_process_records(self, monkeypatch):
        # A pool whose batches finish only when the fold waits, newest first
        # within each window of unfolded batches; the records must still be
        # the in-process ones. The plan is the k2n16-early-stop-grid golden's,
        # whose grid points stop at different batches.
        plan = TrialPlan(
            config=SystemConfig(2, 16),
            kinds=tuple(ReceiverKind),
            snr_db_grid=(-10.0, 10.0, 30.0),
            max_trials=2_500,
            min_bit_errors=15,
            seed=9,
        )
        max_inflight = 3
        window, finished, unfolded, sizes = [], [], set(), []
        real_wait = montecarlo.wait

        class Batch(Future):
            def result(self, timeout=None):
                unfolded.discard(self)
                return super().result(timeout)

        def submit(fn, *args):
            future = Batch()
            window.append((future, fn, args))
            unfolded.add(future)
            sizes.append(len(unfolded))
            return future

        def newest_first_wait(futures, **kwargs):
            for future, fn, args in reversed(window):
                finished.append(args[2])
                future.set_result(fn(*args))
            window.clear()
            return real_wait(futures, **kwargs)

        monkeypatch.setattr(montecarlo, "wait", newest_first_wait)
        records = montecarlo._plan_records(plan, submit, max_inflight)
        assert records == montecarlo._plan_records(plan, montecarlo._run_now, 1)
        assert finished != sorted(finished)
        assert max(sizes) == max_inflight


def floor_plans(user_counts, kinds, seed, max_trials, min_bit_errors):
    """The fig2 preset's plans: QPSK at 30 dB with N = 8K, one per user count."""
    return [
        TrialPlan(
            config=SystemConfig(k, 8 * k, "qpsk"),
            kinds=kinds,
            snr_db_grid=(30.0,),
            max_trials=max_trials,
            min_bit_errors=min_bit_errors,
            seed=seed,
        )
        for k in user_counts
    ]


class TestErrorFloorSweep:
    def test_shape_and_operating_point(self):
        records = ber_sweep(
            floor_plans([2], (ReceiverKind.MRC, ReceiverKind.BMRC), seed=3,
                        max_trials=2_000, min_bit_errors=50)
        )
        assert len(records) == 2
        for record in records:
            assert record.snr_db == 30.0
            assert record.antennas == 8 * record.users
            assert record.modulation == "qpsk"

    def test_one_pool_for_all_user_counts(self, tmp_path, monkeypatch):
        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        kinds = (ReceiverKind.MRC, ReceiverKind.BMMSE)
        paths = {}
        for workers in (2, 1):
            records = ber_sweep(
                floor_plans([1, 2, 3], kinds, seed=8, max_trials=1_500, min_bit_errors=0),
                workers=workers,
            )
            paths[workers] = tmp_path / f"w{workers}.csv"
            emit_results(records, "csv", paths[workers])
        assert len(built) == 1
        assert paths[2].read_bytes() == paths[1].read_bytes()


class TestDiagnostics:
    def test_residual_cross_covariances_vanish(self):
        rng = np.random.default_rng(123)
        h = rayleigh_channel(rng, 4, 2)
        samples = 100_000
        receive_stat, symbol_stat = residual_cross_covariance(
            h, 1.0, samples, np.random.default_rng(1000)
        )
        bound = 5 * np.sqrt(2 / samples)
        assert receive_stat <= bound
        assert symbol_stat <= bound

    def test_wrong_gain_negative_control(self):
        rng = np.random.default_rng(123)
        h = rayleigh_channel(rng, 4, 2)
        samples = 100_000
        receive_stat, _ = residual_cross_covariance(
            h, 1.0, samples, np.random.default_rng(77), gain=np.zeros(4)
        )
        assert receive_stat > 5 * np.sqrt(2 / samples)

    def test_statistic_decays_like_sqrt_samples(self):
        rng = np.random.default_rng(123)
        h = rayleigh_channel(rng, 4, 2)
        runs = np.random.default_rng(5)
        small = np.mean(
            [residual_cross_covariance(h, 1.0, 4_000, runs)[0] for _ in range(20)]
        )
        large = np.mean(
            [residual_cross_covariance(h, 1.0, 8_000, runs)[0] for _ in range(20)]
        )
        assert 1.1 <= small / large <= 1.8

    def test_rejects_tiny_sample_counts(self):
        h = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError):
            residual_cross_covariance(h, 1.0, 10, np.random.default_rng(0))

    def test_output_covariance_diagonal_is_exactly_two(self):
        rng = np.random.default_rng(123)
        h = rayleigh_channel(rng, 3, 2)
        cov = sample_output_covariance(h, 0.5, 2_000, np.random.default_rng(2))
        np.testing.assert_array_equal(cov.diagonal().real, 2.0)
        assert np.abs(cov.diagonal().imag).max() == 0

    def test_output_covariance_matches_arcsine_law(self):
        # The raw quantizer alphabet obeys the 4/pi arcsine law, twice the
        # unit-power convention used by the linearized-model statistics.
        rng = np.random.default_rng(123)
        h = rayleigh_channel(rng, 4, 2)
        n0 = 1.0
        samples = 40_000
        cov = sample_output_covariance(h, n0, samples, np.random.default_rng(9))
        received = received_covariance(h, n0)
        scale = 1 / np.sqrt(received.diagonal().real)
        normalized = received * np.outer(scale, scale)
        law = (4 / np.pi) * (
            np.arcsin(np.clip(normalized.real, -1, 1))
            + 1j * np.arcsin(np.clip(normalized.imag, -1, 1))
        )
        np.fill_diagonal(law, 2.0)
        assert np.abs(cov - law).max() <= 8 / np.sqrt(samples)

    def test_scalar_output_covariance(self):
        cov = sample_output_covariance(
            np.array([[1.0 + 0j]]), 1.0, 2_000, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(cov, np.array([[2.0 + 0j]]))


def zf_qpsk_ber(snr_db, branches):
    """Exact per-bit BER of unquantized ZF with QPSK in i.i.d. Rayleigh
    fading: each user's post-ZF SNR is that of ``branches`` = N - K + 1
    diversity branches (Winters, Salz and Gitlin, IEEE Trans. Commun. 1994),
    and a QPSK bit sees half of it, so the BER is that of BPSK over that many
    maximal-ratio-combined branches at mean SNR rho / 2 (Proakis, *Digital
    Communications*)."""
    g = 10.0 ** (snr_db / 10.0) / 2.0
    mu = math.sqrt(g / (1.0 + g))
    return ((1.0 - mu) / 2.0) ** branches * sum(
        math.comb(branches - 1 + l, l) * ((1.0 + mu) / 2.0) ** l for l in range(branches)
    )


@pytest.fixture(scope="module")
def zf_records():
    """Unquantized ZF over 8 (K, N, SNR) cells, 20000 trials each."""
    grids = {(2, 4): (-5.0, 0.0, 5.0, 10.0), (2, 16): (-10.0, -5.0), (4, 8): (0.0, 5.0)}
    plans = [
        TrialPlan(config=SystemConfig(k, n), kinds=(ReceiverKind.ZF,),
                  snr_db_grid=grid, max_trials=20_000, min_bit_errors=0, seed=11,
                  quantized=False)
        for (k, n), grid in grids.items()
    ]
    return ber_sweep(plans)


class TestClosedFormBer:
    #: The 99.9% two-sided normal quantile: eight cells at 95% would miss
    #: one now and then by chance alone.
    Z = 3.2905

    def outside(self, records, branches_lost):
        """The cells whose Wilson interval misses the closed form with
        N - K + 1 - ``branches_lost`` diversity branches."""
        misses = []
        for record in records:
            branches = record.antennas - record.users + 1 - branches_lost
            exact = zf_qpsk_ber(record.snr_db, branches)
            low, high = wilson_interval(record.bit_errors, record.bits, z=self.Z)
            if not low <= exact <= high:
                misses.append((record.users, record.antennas, record.snr_db, exact, low, high))
        return misses

    def test_unquantized_zf_matches_the_closed_form(self, zf_records):
        assert [record.trials for record in zf_records] == [20_000] * 8
        assert self.outside(zf_records, branches_lost=0) == []

    def test_one_branch_too_few_misses_every_cell(self, zf_records):
        # Negative control: N - K branches predict too high a BER everywhere.
        assert len(self.outside(zf_records, branches_lost=1)) == len(zf_records)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 1000)
        assert lo < 0.01 < hi

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert hi > 0

    @pytest.mark.parametrize("successes", [5, -1])
    def test_rejects_successes_outside_the_total(self, successes):
        with pytest.raises(ValueError, match=rf"successes={successes}, total=3\b"):
            wilson_interval(successes, 3)

    def test_rejects_an_empty_total(self):
        with pytest.raises(ValueError, match="total must be positive"):
            wilson_interval(0, 0)

    def test_bounds_of_the_range_are_accepted(self):
        assert wilson_interval(3, 3)[1] == 1.0
        assert wilson_interval(0, 3)[0] == 0.0
