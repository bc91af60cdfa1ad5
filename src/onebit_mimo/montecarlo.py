"""Monte Carlo trial execution, BER accumulation, and statistical diagnostics.

One trial draws a fresh channel, payload bits, and noise, then evaluates
every requested receiver on the same draw (paired comparison). The draws are
keyed by (seed, trial index) only, so trial i has the same channel, payload
and noise direction ``a + 1j * b`` at every SNR (common random numbers); a
grid point changes only the noise scale ``sqrt(N0 / 2)``.

A sweep runs a sequence of plans through one worker pool (Fig. 1 is one plan
over an SNR grid, Fig. 2 one plan per user count), and :func:`_plan_records`
turns a plan into its records. The unit of work is a batch: a plan's trials
``[start, stop)``, ``BATCH_SIZE`` of them, run at the grid points and kinds
still active. :func:`_batch_counts` walks a batch in stacked chunks of
``max(1, _CHUNK_ELEMENTS // N**2)`` trials (512 at N=16, 32 at N=64, 8 at
N=128). A batch takes the streams of all its trials from one
:func:`~onebit_mimo.rng.trial_streams` call, which keys them in one pass,
and each chunk draws its trials from them into ``(B, N, K)`` channel,
``(B, K * bits per symbol)`` payload and ``(B, N)`` noise-direction arrays,
with one generator call per trial and purpose and the arithmetic once per
chunk.
The draws, ``H @ x`` and the combiners that do not depend on the noise power
(MRC, ZF) are computed once per chunk; the receive vector, quantizer,
Bussgang statistics and the other combiners once per (chunk, grid point),
one point after another, with the floating-point operations of a point
evaluated alone. The statistics hold the chunk's one stacked N x N array,
over which BMMSE's matrix is built, and are freed before detection.
Detection runs once per (chunk, point) too, on the ``(C, B, K, N)`` stack
of the C distinct combiners (7 for all eight kinds, see
:data:`~onebit_mimo.receivers.SAME_COMBINER`). :func:`run_trial` is a
chunk of one at one point, which redraws a degenerate trial from its
streams at the next ``redraw``.

Each (point, kind) stops at a batch boundary: its error target or the trial
cap. Batch results are folded strictly in batch-index order, so the recorded
counts are byte-identical for any worker count or scheduling. Workers can
run ahead speculatively: a batch's error counts at a (point, kind) depend
only on the seed, the trial indices and the SNR, never on which points and
receivers are still accumulating. :func:`_prepare_process` prepares every
process of a sweep, the caller and each pool worker alike: one BLAS thread,
so ``workers`` is the only parallelism, and the memory trials free kept for
the rest of the process (glibc's heap thresholds, set through ``mallopt``;
nothing changes under another C library), so the N x N memory of a chunk
(2 MiB at N=128) is reused instead of faulted in as fresh pages every
chunk. Each step is taken only where it is not already in place: a forked
worker inherits both from the caller, so its preparation calls neither
OpenBLAS, whose thread pool a call would start again in the child, nor
``mallopt``; a spawned worker takes both steps. Memory placement changes
no result.
"""

import collections
import ctypes
import itertools
import logging
import math
import numbers
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .bussgang import QuantizedStatistics
from .channel import (
    SystemConfig,
    check_noise_power,
    draw_channel,
    draw_noise_direction,
    noise_power_from_snr_db,
    one_bit_quantize,
    transmit,
)
from .errors import DegenerateDenominatorError, NotPositiveDefiniteError
from .linalg import set_openblas_threads
from .modulation import make_constellation, map_bits_to_symbols, symbols_to_bits
from .receivers import (
    COVARIANCE_KINDS,
    NOISE_INDEPENDENT_KINDS,
    SAME_COMBINER,
    ReceiverKind,
    build_combiner,
    detect_pipeline,
)
from .rng import random_bits, trial_streams

logger = logging.getLogger(__name__)

#: Trials per stopping-rule evaluation window.
BATCH_SIZE = 1000
#: Redraw attempts for (probability-zero) degenerate channel draws.
_MAX_REDRAWS = 8
#: Errors that mark a channel draw on which some receiver is undefined (a
#: combiner system that does not factor, so the draw is rank-deficient, or
#: a user with a zero channel column), each with the word the redraw
#: warning uses for it.
_DEGENERATE_DRAWS = {
    NotPositiveDefiniteError: "rank-deficient",
    DegenerateDenominatorError: "zero-denominator",
}
#: Entries (2 MiB of complex128) of one stacked N x N array of a chunk: 8
#: trials at N=128, 32 at N=64 and 512 at N=16. A chunk holds one such
#: array, the received covariance that BMMSE's matrix is built over, and the
#: N x N steps over it work in pieces of ``linalg.PIECE_ENTRIES`` entries.
#: At K=16, N=128, 8 trials per chunk ran about 1.25x the trials/s of 2
#: (``_batch_counts``, all receivers), and the traced peak of such a chunk
#: stays under 3 N x N arrays per trial, which keeps the benchmark's peak
#: RSS within its bound.
_CHUNK_ELEMENTS = 2**17
#: glibc's ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: Blocks below this size come from the heap, not from a fresh ``mmap`` each:
#: glibc's largest mmap threshold, 4 MiB per byte of a ``long`` (32 MiB on
#: 64-bit), so that every chunk temporary is reused heap memory.
_MMAP_THRESHOLD = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
#: Free bytes at the top of the heap that glibc keeps instead of handing
#: them back to the kernel: twice the mmap threshold, the ratio of glibc's
#: own dynamic rule, and far above the about 5.2 MiB a chunk at N=128 frees.
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@dataclass(frozen=True)
class TrialPlan:
    """A BER-versus-SNR sweep specification.

    ``config`` is the system; each grid point's noise power comes from its
    SNR through :func:`~onebit_mimo.channel.noise_power_from_snr_db`, and
    must come out finite and positive at every point;
    ``min_bit_errors = 0`` disables the early-stop target so every point
    runs exactly ``max_trials`` trials. ``kinds`` may give receivers by name
    (``"zf"``); each becomes its :class:`ReceiverKind`. ``snr_db_grid`` may
    be any sequence of real numbers, a numpy array included; it is stored
    as a tuple of floats, so a plan hashes. An unknown name, a
    ``max_trials``, ``min_bit_errors`` or ``seed`` that is not an integer, a
    grid point that is not a real number (a bool included), and a repeated
    grid point raise ``ValueError`` here, not during the sweep.
    """

    config: SystemConfig
    kinds: tuple[ReceiverKind, ...]
    snr_db_grid: tuple[float, ...]
    max_trials: int
    min_bit_errors: int
    seed: int
    quantized: bool = True

    def __post_init__(self):
        for name in ("max_trials", "min_bit_errors", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # A numpy integer becomes an int, which the JSON output can write.
            object.__setattr__(self, name, int(value))
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")
        if self.min_bit_errors < 0:
            raise ValueError(
                f"min_bit_errors must be >= 0, got {self.min_bit_errors}"
            )
        grid = tuple(self.snr_db_grid)
        for snr_db in grid:
            if isinstance(snr_db, bool) or not isinstance(snr_db, numbers.Real):
                raise ValueError(f"grid point {snr_db!r} is not a real number")
        object.__setattr__(self, "snr_db_grid", tuple(map(float, grid)))
        if not self.snr_db_grid:
            raise ValueError("snr_db_grid must be nonempty")
        for snr_db in self.snr_db_grid:
            try:
                noise_power_from_snr_db(snr_db)
            except ValueError as exc:
                raise ValueError(f"grid point {snr_db} dB: {exc}") from None
        if len(set(self.snr_db_grid)) != len(self.snr_db_grid):
            raise ValueError("snr_db_grid points must be unique")
        object.__setattr__(self, "kinds", tuple(ReceiverKind(kind) for kind in self.kinds))
        if not self.kinds:
            raise ValueError("kinds must be nonempty")
        if len(set(self.kinds)) != len(self.kinds):
            raise ValueError("kinds must be unique")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True)
class BerRecord:
    """Accumulated counts for one (receiver, SNR, K, N) cell."""

    snr_db: float
    kind: ReceiverKind
    users: int
    antennas: int
    modulation: str
    trials: int
    bits: int
    bit_errors: int

    def __post_init__(self):
        if not 0 <= self.bit_errors <= self.bits:
            raise ValueError("bit_errors must lie in [0, bits]")

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits


class _ChunkDraws:
    """The draws of a chunk of B trials, to be evaluated at any number of
    grid points: ``(B, N, K)`` channels, ``(B, K * bits per symbol)`` payload
    bits, ``(B, N)`` noiseless receive vectors ``H @ x`` and ``(B, N)`` noise
    directions. ``streams`` holds the channel, payload and noise generators
    of the B trials, one iterable per purpose, as
    :func:`~onebit_mimo.rng.trial_streams` yields them."""

    def __init__(self, config, streams):
        self.constellation = make_constellation(config.modulation)
        payload_bits = config.users * self.constellation.bits_per_symbol
        channel_rngs, symbol_rngs, noise_rngs = streams
        self.channel = draw_channel(config, channel_rngs)
        self.bits = random_bits(symbol_rngs, payload_bits)
        self.noise = draw_noise_direction(config.antennas, noise_rngs)
        self.signal = transmit(self.channel, map_bits_to_symbols(self.bits, self.constellation))
        # Built at the first point that needs them, then shared by the rest.
        self._noise_independent = {}

    def errors(self, noise_power, kinds, quantized):
        """Per-kind bit-error counts, one per trial, at ``noise_power``: the
        noise is the noise direction scaled by ``sqrt(noise_power / 2)``,
        added to the noiseless ``H @ x``."""
        received = self.signal + self.noise * np.sqrt(noise_power / 2.0)
        observed = one_bit_quantize(received) if quantized else received

        stats = None
        if any(kind in COVARIANCE_KINDS for kind in kinds):
            stats = QuantizedStatistics(self.channel, noise_power)

        combiners = []
        for kind in dict.fromkeys(SAME_COMBINER.get(kind, kind) for kind in kinds):
            combiner = self._noise_independent.get(kind)
            if combiner is None:
                combiner = build_combiner(kind, self.channel, noise_power, stats=stats)
                if kind in NOISE_INDEPENDENT_KINDS:
                    self._noise_independent[kind] = combiner
            combiners.append(combiner)
        # The statistics hold BMMSE's N x N matrix: free it before detection.
        del stats
        # One detection pass over the (C, B, K, N) stack of the C distinct
        # combiners; row c of the counts is combiners[c]'s.
        detected = detect_pipeline(
            observed,
            np.stack([combiner.matrix for combiner in combiners]),
            np.stack([combiner.eq_denominators for combiner in combiners]),
            self.constellation,
        )
        counts = np.count_nonzero(
            symbols_to_bits(detected, self.constellation) != self.bits, axis=-1
        )
        errors = {combiner.kind: row for combiner, row in zip(combiners, counts)}
        return {kind: errors[SAME_COMBINER.get(kind, kind)] for kind in kinds}


def run_trial(
    config: SystemConfig,
    kinds: tuple[ReceiverKind, ...],
    streams,
    noise_power: float,
    quantized: bool = True,
) -> dict[ReceiverKind, int]:
    """One trial: per-kind bit-error counts on a shared (H, x, z) draw from
    ``streams``, what ``trial_streams(seed, [index], redraw)`` returns, at
    ``noise_power``. A noise power that is not finite and positive raises
    ``ValueError`` before anything is drawn.

    Channel statistics are computed once and shared across the
    quantization-aware kinds. With ``quantized=False`` the pipeline runs on
    the analog receive vector (no-floor baseline).
    """
    check_noise_power(noise_power)
    draws = _ChunkDraws(config, streams)
    errors = draws.errors(noise_power, kinds, quantized)
    return {kind: int(count[0]) for kind, count in errors.items()}


def _redrawn_trial(plan, snr_db, kinds, index):
    """Trial ``index`` alone at the grid point ``snr_db``, redrawn while its
    draw is degenerate."""
    noise_power = noise_power_from_snr_db(snr_db)
    for redraw in range(_MAX_REDRAWS):
        try:
            streams = trial_streams(plan.seed, [index], redraw)
            return run_trial(plan.config, kinds, streams, noise_power, plan.quantized)
        except tuple(_DEGENERATE_DRAWS) as exc:
            fault = type(exc)
            logger.warning(
                "discarding %s draw at trial %d (redraw %d) at %g dB",
                _DEGENERATE_DRAWS[fault],
                index,
                redraw + 1,
                snr_db,
            )
    raise fault(
        f"trial {index}: {_MAX_REDRAWS} consecutive degenerate draws, "
        f"the last {_DEGENERATE_DRAWS[fault]}"
    )


def _batch_counts(plan: TrialPlan, points, start: int, stop: int):
    """Per-kind bit errors summed over trial indices [start, stop) at each
    grid point of ``points``, a map from an index into ``plan.snr_db_grid``
    to the kinds counted there; returns ``{point: {kind: errors}}``.

    The streams of the whole range are keyed in one ``trial_streams`` call.
    Each chunk is drawn from them once and evaluated at the points in turn; a
    (chunk, point) with a degenerate draw is rerun trial by trial, each such
    trial redrawn at that point."""
    noise_powers = {point: noise_power_from_snr_db(plan.snr_db_grid[point]) for point in points}
    totals = {point: dict.fromkeys(kinds, 0) for point, kinds in points.items()}
    chunk = max(1, _CHUNK_ELEMENTS // plan.config.antennas**2)
    streams = trial_streams(plan.seed, range(start, stop))
    for first in range(start, stop, chunk):
        indices = range(first, min(first + chunk, stop))
        draws = _ChunkDraws(plan.config, [itertools.islice(s, len(indices)) for s in streams])
        for point, kinds in points.items():
            try:
                errors = draws.errors(noise_powers[point], kinds, plan.quantized)
            except tuple(_DEGENERATE_DRAWS):
                snr_db = plan.snr_db_grid[point]
                singles = [_redrawn_trial(plan, snr_db, kinds, i) for i in indices]
                errors = {kind: [single[kind] for single in singles] for kind in kinds}
            for kind in kinds:
                totals[point][kind] += int(np.sum(errors[kind]))
    return totals


def _plan_records(plan: TrialPlan, submit, max_inflight: int) -> list[BerRecord]:
    """The records of one plan, in grid order, each grid point's in
    ``plan.kinds`` order. Batches go to ``submit(fn, *args)``, which returns
    a future, at most ``max_inflight`` at a time.

    Each (point, kind) stops at the first batch boundary where its
    cumulative errors reach ``plan.min_bit_errors`` (if positive), else at
    ``plan.max_trials``; a point stops with its last kind. Submitted batches
    wait in one first-in, first-out queue and are folded from its head,
    strictly in batch-index order, so the records are independent of
    execution order; batches are dispatched with the points and kinds still
    active after the batches folded so far, a superset of those canonically
    active at any later boundary.
    """
    n_batches = math.ceil(plan.max_trials / BATCH_SIZE)
    grid = range(len(plan.snr_db_grid))
    trials = [dict.fromkeys(plan.kinds, 0) for _ in grid]
    errors = [dict.fromkeys(plan.kinds, 0) for _ in grid]
    # Point -> its active kinds. Entries are replaced, never mutated, so the
    # copy a batch is submitted with stays as it was.
    active = dict.fromkeys(grid, plan.kinds)
    # (stop, future) of each unfolded batch, in submission order.
    pending = collections.deque()
    next_batch = 0
    while active:
        while len(pending) < max_inflight and next_batch < n_batches:
            start = next_batch * BATCH_SIZE
            stop = min(start + BATCH_SIZE, plan.max_trials)
            pending.append((stop, submit(_batch_counts, plan, dict(active), start, stop)))
            next_batch += 1
        boundary, future = pending.popleft()
        # A batch run in this process is done on submit: only a pool waits.
        if not future.done():
            wait([future])
        counts = future.result()
        capped = boundary == plan.max_trials
        for point, kinds in list(active.items()):
            for kind in kinds:
                trials[point][kind] = boundary
                errors[point][kind] += counts[point][kind]
            kinds = tuple(
                kind
                for kind in kinds
                if not (capped or 0 < plan.min_bit_errors <= errors[point][kind])
            )
            if kinds:
                active[point] = kinds
            else:
                del active[point]
    config = plan.config
    bits_per_trial = config.users * make_constellation(config.modulation).bits_per_symbol
    return [
        BerRecord(
            snr_db=snr_db,
            kind=kind,
            users=config.users,
            antennas=config.antennas,
            modulation=config.modulation,
            trials=trials[point][kind],
            bits=trials[point][kind] * bits_per_trial,
            bit_errors=errors[point][kind],
        )
        for point, snr_db in enumerate(plan.snr_db_grid)
        for kind in plan.kinds
    ]


def _run_now(fn, *args) -> Future:
    """Run ``fn(*args)`` in this process; an exception propagates at once."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _bind_mallopt():
    """glibc's ``mallopt`` as a ctypes function, or None where the C library
    is not glibc (macOS, musl): the parameter numbers are glibc's."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return None
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


_MALLOPT = _bind_mallopt()
_heap_retained = False


def _retain_heap() -> None:
    """Keep the memory a trial frees in this process, for the rest of the
    process.

    With its default, dynamic thresholds glibc hands the top of the heap
    back to the kernel whenever more than about 512 KB of it is free, so
    every chunk at N=128 faults its 512 KB N x N temporaries in again as
    freshly zeroed pages. This sets glibc's mmap and trim thresholds
    (``_MMAP_THRESHOLD``, ``_TRIM_THRESHOLD``) through ``mallopt``. glibc
    has no getter for them, and setting either one turns its dynamic
    threshold off, so the previous behaviour cannot be restored. Nothing
    happens where the C library is not glibc, or once the setting holds.
    """
    global _heap_retained
    if _heap_retained or _MALLOPT is None:
        return
    _heap_retained = bool(
        _MALLOPT(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and _MALLOPT(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )


def heap_retained() -> bool:
    """Whether a sweep has set glibc's heap thresholds in this process, so
    that freed memory stays in it (:func:`ber_sweep`); False where the C
    library is not glibc or before the first sweep."""
    return _heap_retained


def _prepare_process() -> int | None:
    """Set what every process of a sweep keeps, the caller of
    :func:`ber_sweep` as each pool worker: numpy's OpenBLAS at one thread
    and the retained heap. Each is set only where it does not hold yet, so
    in a worker forked from a prepared caller this calls nothing. Returns
    OpenBLAS's previous thread count, or None where numpy exposes no
    OpenBLAS thread calls."""
    _retain_heap()
    return set_openblas_threads(1)


def ber_sweep(plans: Sequence[TrialPlan], workers: int = 1) -> list[BerRecord]:
    """Run each plan over its SNR grid; one record per (SNR, kind), in plan
    order, each grid point's records in ``plan.kinds`` order.

    All plans share one pool of ``workers`` processes, which keeps
    ``2 * workers`` batches in flight; with one worker, batches run in this
    process one at a time. Trial randomness is keyed by (seed, trial index)
    only, so grid points share channel/bit draws (common random numbers) and
    results do not depend on ``workers``. A ``workers`` below 1 raises
    ``ValueError``.

    :func:`_prepare_process` prepares this process and, as the pool's
    initializer, each worker: numpy's OpenBLAS at one thread, and the memory
    trials free kept for the rest of the process (:func:`heap_retained`
    tells whether it holds; glibc cannot restore its default thresholds).
    A forked worker inherits both from this process and so makes no call
    into OpenBLAS, whose thread pool stays shut down in it; a spawned
    worker sets both.
    On exit, also by exception, queued batches are cancelled instead of
    awaited, and this process gets its previous OpenBLAS count back.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    previous = _prepare_process()
    executor = None
    try:
        submit, max_inflight = _run_now, 1
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers, initializer=_prepare_process)
            submit, max_inflight = executor.submit, 2 * workers
        return [record for plan in plans for record in _plan_records(plan, submit, max_inflight)]
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
        if previous is not None:
            set_openblas_threads(previous)


def _gaussian_received(channel, noise_power, samples, rng):
    """``samples`` unit-power complex Gaussian payloads (where the quantizer's
    second-order linearization is exact) and their noisy receive vectors."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    n, k = channel.shape
    symbols = (
        rng.standard_normal((k, samples)) + 1j * rng.standard_normal((k, samples))
    ) * np.sqrt(0.5)
    noise = (
        rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    ) * np.sqrt(noise_power / 2.0)
    return symbols, channel @ symbols + noise


def residual_cross_covariance(
    channel,
    noise_power,
    samples: int,
    rng: np.random.Generator,
    gain=None,
):
    """Max |sample cross-covariance| of (receive, quantization residual) and
    (symbols, effective noise).

    Both vanish as the sample count grows when the Bussgang gain is used;
    pass a wrong length-N ``gain`` diagonal (e.g. zeros) as a negative
    control. Symbols are drawn complex Gaussian with identity covariance:
    the decomposition's second-order identities are exact for Gaussian
    quantizer input, which is what this diagnostic checks. The quantizer
    output is scaled to unit per-component power to match the gain
    convention (see :mod:`onebit_mimo.bussgang`).
    """
    channel = np.asarray(channel)
    symbols, received = _gaussian_received(channel, noise_power, samples, rng)
    stats = QuantizedStatistics(channel, noise_power)
    gain = stats.gain if gain is None else np.asarray(gain)
    observed = one_bit_quantize(received) / np.sqrt(2.0)
    residual = observed - gain[:, None] * received
    effective_noise = observed - stats.effective_channel @ symbols
    receive_stat = np.abs(received @ residual.conj().T).max() / samples
    symbol_stat = np.abs(symbols @ effective_noise.conj().T).max() / samples
    return receive_stat, symbol_stat


def sample_output_covariance(
    channel, noise_power, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample covariance of the raw quantizer output (diagonal is exactly 2).

    Under Gaussian signaling the off-diagonals follow the arcsine law for
    the {+-1 +- 1j} alphabet, i.e. (4/pi) * [arcsin(Re C) + j*arcsin(Im C)]
    with C the normalized receive covariance: a factor 2 above the
    unit-power convention the linearized-model statistics use.
    """
    _, received = _gaussian_received(np.asarray(channel), noise_power, samples, rng)
    observed = one_bit_quantize(received)
    return observed @ observed.conj().T / samples


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054):
    """Wilson score confidence interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError(
            f"successes must lie in [0, total], got successes={successes}, total={total}"
        )
    p = successes / total
    denom = 1.0 + z**2 / total
    center = (p + z**2 / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / total + z**2 / (4 * total**2))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == total else min(1.0, center + half)
    return low, high
