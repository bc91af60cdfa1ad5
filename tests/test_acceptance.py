"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they complete).

The two Monte Carlo sweeps here are the expensive part (about 12 s and 3.5 s
on 2 cores under ``pytest --durations``); they are computed once per session
and shared across criteria.
"""

import numpy as np
import pytest

from onebit_mimo.bussgang import (
    QuantizedStatistics,
    effective_noise_covariance,
    received_covariance,
)
from onebit_mimo.channel import SystemConfig, one_bit_quantize
from onebit_mimo.cli import main
from onebit_mimo.linalg import hermitian_solve
from onebit_mimo.modulation import make_constellation
from onebit_mimo.montecarlo import (
    TrialPlan,
    ber_sweep,
    residual_cross_covariance,
    wilson_interval,
)
from onebit_mimo.receivers import (
    BUSSGANG_KINDS,
    ReceiverKind,
    build_combiner,
    detect_pipeline,
)
from shared import rayleigh_channel

SEED = 42
WORKERS = 2


def _report(number: int, description: str, passed: bool) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    return passed


@pytest.fixture(scope="module")
def fig1a_records():
    """Fig. 1a operating point (K=2, N=16, QPSK) at the floor-dominated SNRs
    25/30/35 dB; every point gets >= 2e5 trials or 200 bit errors."""
    plan = TrialPlan(
        config=SystemConfig(2, 16, "qpsk"),
        kinds=tuple(ReceiverKind),
        snr_db_grid=(25.0, 30.0, 35.0),
        max_trials=300_000,
        min_bit_errors=200,
        seed=SEED,
    )
    records = ber_sweep([plan], workers=WORKERS)
    return {(r.snr_db, r.kind): r for r in records}


@pytest.fixture(scope="module")
def floor_records():
    """Fig. 2 operating points (QPSK at 30 dB, N = 8K) for K = 2, 8, 16."""
    plans = [
        TrialPlan(
            config=SystemConfig(k, 8 * k, "qpsk"),
            kinds=(ReceiverKind.MRC, ReceiverKind.BMRC),
            snr_db_grid=(30.0,),
            max_trials=150_000,
            min_bit_errors=1_000,
            seed=SEED,
        )
        for k in (2, 8, 16)
    ]
    records = ber_sweep(plans, workers=WORKERS)
    return {(r.users, r.kind): r for r in records}


def _interval(record):
    return wilson_interval(record.bit_errors, record.bits)


def test_criterion_1_bussgang_receivers_beat_conventional(fig1a_records):
    at30 = {kind: fig1a_records[(30.0, kind)] for kind in ReceiverKind}
    checks = []
    for better, worse in (
        (ReceiverKind.BMMSE, ReceiverKind.MMSE),
        (ReceiverKind.BZF, ReceiverKind.ZF),
        (ReceiverKind.BMRC, ReceiverKind.MRC),
    ):
        lo_worse, _ = _interval(at30[worse])
        _, hi_better = _interval(at30[better])
        checks.append(at30[better].ber < at30[worse].ber and hi_better < lo_worse)
    halved = at30[ReceiverKind.BMMSE].ber <= 0.5 * at30[ReceiverKind.MMSE].ber
    ok = all(checks) and halved
    assert _report(
        1,
        "30 dB: BMMSE < MMSE, BZF < ZF, BMRC < MRC with separated 95% CIs, "
        "and BMMSE at most half of MMSE",
        ok,
    )


def test_criterion_2_error_floors_flatten(fig1a_records):
    ok = True
    for kind in ReceiverKind:
        low = fig1a_records[(25.0, kind)]
        high = fig1a_records[(35.0, kind)]
        assert low.bit_errors > 0 and high.bit_errors > 0
        ratio = low.ber / high.ber
        ok = ok and (1 / 3 <= ratio <= 3)
    assert _report(2, "25 dB and 35 dB floors agree within a factor of 3", ok)


def test_criterion_3_floor_gap_shrinks_with_user_count(floor_records):
    def conservative_ratio_bounds(users):
        mrc = floor_records[(users, ReceiverKind.MRC)]
        bmrc = floor_records[(users, ReceiverKind.BMRC)]
        mrc_lo, mrc_hi = _interval(mrc)
        bmrc_lo, bmrc_hi = _interval(bmrc)
        return mrc_lo / bmrc_hi, mrc_hi / bmrc_lo

    low_k_floor, _ = conservative_ratio_bounds(2)
    _, high_k_ceiling = conservative_ratio_bounds(16)
    ok = high_k_ceiling < low_k_floor
    assert _report(
        3,
        "MRC/BMRC floor ratio at K=16 is below the K=2 ratio with separated CIs",
        ok,
    )


def test_criterion_4_large_user_count_reduction():
    rng = np.random.default_rng(4)
    k, n, n0 = 8, 64, 0.01
    h = rayleigh_channel(rng, n, k)
    gamma = 2 / (np.pi * (k + n0))
    stats = QuantizedStatistics(h, n0, received_cov=(k + n0) * np.eye(n))
    references = {
        ReceiverKind.BMRC: np.sqrt(gamma) * h.conj().T,
        ReceiverKind.BZF: np.sqrt(1 / gamma)
        * hermitian_solve(h.conj().T @ h, h.conj().T),
        ReceiverKind.BMMSE: np.sqrt(1 / gamma)
        * hermitian_solve(h @ h.conj().T + (1 - gamma * k) / gamma * np.eye(n), h)
        .conj()
        .T,
    }
    worst = max(
        np.abs(build_combiner(kind, h, n0, stats=stats).matrix - reference).max()
        for kind, reference in references.items()
    )
    assert _report(
        4,
        f"substituting (K+N0)*I for the received covariance reproduces the "
        f"approximate receivers (max dev {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
    )


def test_criterion_5_scalar_closed_form_chain():
    h = np.array([[1.0 + 0j]])
    n0 = 1.0
    stats = QuantizedStatistics(h, n0)
    deviations = (
        abs(stats.effective_channel[0, 0] - 1 / np.sqrt(np.pi)),
        abs(stats.noise_cov[0, 0] - (1 - 1 / np.pi)),
        abs(build_combiner(ReceiverKind.BMMSE, h, n0).matrix[0, 0] - 1 / np.sqrt(np.pi)),
        abs(build_combiner(ReceiverKind.BZF, h, n0).matrix[0, 0] - np.sqrt(np.pi)),
    )
    worst = max(deviations)
    assert _report(
        5,
        f"scalar chain: effective channel, noise covariance, BMMSE, BZF "
        f"(max dev {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
    )


def test_criterion_6_statistical_oracles():
    rng = np.random.default_rng(123)
    h = rayleigh_channel(rng, 4, 2)
    n0 = 1.0
    samples = 100_000
    bound = 5 * np.sqrt(2 / samples)

    receive_stat, symbol_stat = residual_cross_covariance(
        h, n0, samples, np.random.default_rng(1000)
    )
    uncorrelated = receive_stat <= bound and symbol_stat <= bound

    control_stat, _ = residual_cross_covariance(
        h, n0, samples, np.random.default_rng(77), gain=np.zeros(4)
    )
    control_fails = control_stat > bound

    qpsk = make_constellation("qpsk")
    sample_rng = np.random.default_rng(11)
    symbols = qpsk.points[sample_rng.integers(0, 4, size=(2, samples))]
    noise = (
        sample_rng.standard_normal((4, samples))
        + 1j * sample_rng.standard_normal((4, samples))
    ) * np.sqrt(n0 / 2)
    received = h @ symbols + noise
    estimate = received @ received.conj().T / samples
    expected = received_covariance(h, n0)
    covariance_ok = np.abs(estimate - expected).max() <= 0.03 * np.abs(expected).max()

    ok = uncorrelated and control_fails and covariance_ok
    assert _report(
        6,
        "residual cross-covariances vanish, receive covariance matches within "
        "3%, and the zero-gain negative control fails the bound",
        ok,
    )


def test_criterion_7_exact_invariants():
    rng = np.random.default_rng(7)
    qpsk = make_constellation("qpsk")

    # Scaling invariance of the pipeline: 1000 random (kind, c, y) cases.
    scaling_ok = True
    kinds = tuple(ReceiverKind)
    for case in range(125):
        h = rayleigh_channel(rng, 8, 2)
        n0 = 10 ** rng.uniform(-3, 1)
        stats = QuantizedStatistics(h, n0)
        y = one_bit_quantize(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        c = 10 ** rng.uniform(-6, 6)
        for kind in kinds:
            combiner = build_combiner(kind, h, n0, stats=stats)
            reference = stats.effective_channel if kind in BUSSGANG_KINDS else h
            matrix, denominators = combiner.matrix, combiner.eq_denominators
            scaled = c * matrix
            scaled_denominators = np.einsum("kn,nk->k", scaled, reference)
            base = detect_pipeline(y, matrix, denominators, qpsk)
            scaling_ok = (
                scaling_ok
                and (detect_pipeline(y, scaled, scaled_denominators, qpsk) == base).all()
                and (detect_pipeline(c * y, matrix, denominators, qpsk) == base).all()
            )

    # Unbiasedness and the vanishing-noise MMSE limit.
    h = rayleigh_channel(rng, 16, 4)
    stats = QuantizedStatistics(h, 0.1)
    zf_dev = np.abs(
        build_combiner(ReceiverKind.ZF, h, 0.1).matrix @ h - np.eye(4)
    ).max()
    bzf_dev = np.abs(
        build_combiner(ReceiverKind.BZF, h, 0.1, stats=stats).matrix
        @ stats.effective_channel
        - np.eye(4)
    ).max()
    mmse_dev = np.abs(
        build_combiner(ReceiverKind.MMSE, h, 1e-12).matrix
        - build_combiner(ReceiverKind.ZF, h, 1e-12).matrix
    ).max()

    # Analytic diagonal of the effective noise covariance.
    diag_ok = True
    for _ in range(5):
        hh = rayleigh_channel(rng, 8, 3)
        n0 = 10 ** rng.uniform(-3, 1)
        cov = effective_noise_covariance(received_covariance(hh, n0), n0)
        expected = (2 / np.pi) * (
            np.pi / 2 - 1 + n0 / received_covariance(hh, n0).diagonal().real
        )
        diag_ok = diag_ok and np.abs(cov.diagonal().real - expected).max() <= 1e-10

    # Unquantized noiseless zero-forcing is exact over 1e4 trials.
    plan = TrialPlan(
        config=SystemConfig(2, 16, "qpsk"),
        kinds=(ReceiverKind.ZF,),
        snr_db_grid=(300.0,),
        max_trials=10_000,
        min_bit_errors=0,
        seed=SEED,
        quantized=False,
    )
    (baseline,) = ber_sweep([plan])
    baseline_ok = baseline.trials == 10_000 and baseline.bit_errors == 0

    ok = (
        scaling_ok
        and zf_dev <= 1e-10
        and bzf_dev <= 1e-10
        and mmse_dev <= 1e-6
        and diag_ok
        and baseline_ok
    )
    assert _report(
        7,
        "pipeline scaling invariance (1000 cases), ZF/BZF unbiasedness, "
        "MMSE->ZF limit, analytic noise diagonal, exact noiseless baseline",
        ok,
    )


def test_criterion_8_worker_count_determinism(tmp_path):
    args = ["--preset", "fig1a", "--seed", str(SEED), "--max-trials", "10000"]
    single = tmp_path / "single.csv"
    many = tmp_path / "many.csv"
    assert main(args + ["--workers", "1", "--out", str(single)]) == 0
    assert main(args + ["--workers", "8", "--out", str(many)]) == 0
    ok = single.read_bytes() == many.read_bytes()
    assert _report(
        8, "fig1a run with 1 and 8 workers produces byte-identical CSV", ok
    )
