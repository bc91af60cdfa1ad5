"""Combiner construction and the equalize/rescale/detect pipeline."""

import numpy as np
import pytest

from onebit_mimo import linalg, receivers
from onebit_mimo.bussgang import QuantizedStatistics, aqnm_covariance
from onebit_mimo.channel import noise_power_from_snr_db, one_bit_quantize
from onebit_mimo.errors import (
    DegenerateDenominatorError,
    NotPositiveDefiniteError,
    ZeroVectorError,
)
from onebit_mimo.linalg import diagonal, hermitian_solve
from onebit_mimo.modulation import make_constellation, map_bits_to_symbols
from onebit_mimo.receivers import (
    BUSSGANG_KINDS,
    SAME_COMBINER,
    ReceiverKind,
    build_combiner,
    demultiplex,
    detect,
    detect_pipeline,
    equalize,
    rescale,
)
from shared import rayleigh_channel

ALL_KINDS = tuple(ReceiverKind)


def n_column_solve(kind, channel, noise_power, stats, loaded=True):
    """ZF, BZF, MMSE or AQNM-MMSE's matrix as the K x K system solved against
    the N columns of ``X^H`` (or ``X^H D^-1``); ``loaded=False`` leaves out
    MMSE's ``N0 I``."""
    formula = SAME_COMBINER.get(kind, kind)
    x = stats.effective_channel if kind in BUSSGANG_KINDS else channel
    rhs = x.conj().mT
    if formula is ReceiverKind.AQNM_MMSE:
        aqnm = aqnm_covariance(stats.received_cov)
        rhs = rhs / (noise_power + aqnm.sigma_q / aqnm.kappa**2)[..., None, :]
    system = rhs @ x
    if formula is ReceiverKind.AQNM_MMSE:
        diagonal(system)[...] += 1.0
    elif formula is ReceiverKind.MMSE and loaded:
        diagonal(system)[...] += noise_power
    return hermitian_solve(system, rhs)


def relative_error(matrix, expected):
    return np.abs(matrix - expected).max() / np.abs(expected).max()


class TestBuildCombiner:
    def test_identity_channel(self):
        h = np.eye(2, dtype=complex)
        n0 = 0.5
        np.testing.assert_allclose(
            build_combiner(ReceiverKind.MRC, h, n0).matrix, np.eye(2), atol=1e-14
        )
        np.testing.assert_allclose(
            build_combiner(ReceiverKind.ZF, h, n0).matrix, np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(
            build_combiner(ReceiverKind.MMSE, h, n0).matrix,
            np.eye(2) / (1 + n0),
            atol=1e-12,
        )

    def test_scalar_bussgang_closed_forms(self):
        h = np.array([[1.0 + 0j]])
        bzf = build_combiner(ReceiverKind.BZF, h, 1.0)
        bmmse = build_combiner(ReceiverKind.BMMSE, h, 1.0)
        assert abs(bzf.matrix[0, 0] - np.sqrt(np.pi)) <= 1e-12
        assert abs(bmmse.matrix[0, 0] - 1 / np.sqrt(np.pi)) <= 1e-12

    def test_wfq_is_aqnm_mmse(self):
        # kappa*(Sigma_r + (alpha/kappa)*diag) is the AQNM-MMSE matrix scaled
        # by kappa, and detection is scale-invariant, so WFQ takes
        # AQNM-MMSE's combiner as it is.
        rng = np.random.default_rng(0)
        h = rayleigh_channel(rng, 8, 3)
        wfq = build_combiner(ReceiverKind.WFQ, h, 0.2)
        aqnm = build_combiner(ReceiverKind.AQNM_MMSE, h, 0.2)
        assert wfq.kind is ReceiverKind.WFQ
        np.testing.assert_array_equal(wfq.matrix, aqnm.matrix)
        np.testing.assert_array_equal(wfq.eq_denominators, aqnm.eq_denominators)

    @pytest.mark.parametrize("n0", [1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("k, n", [(1, 1), (2, 16), (4, 4), (4, 32), (16, 16), (16, 128)])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_aqnm_kinds_match_direct_formulas(self, k, n, n0, stack):
        # The K x K solve against the N x N formulas, written out:
        # AQNM-MMSE H^H (R + diag(sigma_q)/kappa^2)^-1 and
        # WFQ H^H (kappa R + alpha diag(R))^-1, with R = HH^H + N0 I and
        # sigma_q = alpha kappa diag(R). WFQ is built as AQNM-MMSE's
        # combiner, which is kappa times its own.
        rng = np.random.default_rng(14)
        shape = (*stack, n, k)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        alpha = 0.3634
        kappa = 1 - alpha
        r = h @ h.conj().swapaxes(-1, -2) + n0 * np.eye(n)
        diag_r = np.einsum("...ii->...i", r).real
        sigma_q = alpha * kappa * diag_r
        direct = {
            ReceiverKind.AQNM_MMSE: (r + (sigma_q / kappa**2)[..., None] * np.eye(n), 1),
            ReceiverKind.WFQ: (kappa * r + (alpha * diag_r)[..., None] * np.eye(n), kappa),
        }
        stats = QuantizedStatistics(h, n0)
        for kind, (m, scale) in direct.items():
            expected = scale * np.linalg.solve(m, h).conj().swapaxes(-1, -2)
            combiner = build_combiner(kind, h, n0, stats=stats)
            matrix_error = np.abs(combiner.matrix - expected).max() / np.abs(expected).max()
            assert matrix_error <= 1e-12, kind
            denominators = np.einsum("...kn,...nk->...k", expected, h)
            denominator_error = (
                np.abs(combiner.eq_denominators - denominators).max()
                / np.abs(denominators).max()
            )
            assert denominator_error <= 1e-12, kind

    @pytest.mark.parametrize("k, n", [(2, 16), (16, 128)], ids=["gufunc", "posv"])
    def test_identity_solves_match_solves_against_the_n_columns(self, k, n):
        # The K x K systems are solved against the K x K identity and then
        # multiplied into the N columns; the oracle solves against those.
        assert (k > linalg._GUFUNC_MAX_ORDER) == (n == 128)
        h = rayleigh_channel(np.random.default_rng(31), 3 * n, k).reshape(3, n, k)
        stats = QuantizedStatistics(h, 0.5)
        for kind in (ReceiverKind.ZF, ReceiverKind.BZF, ReceiverKind.MMSE,
                     ReceiverKind.AQNM_MMSE, ReceiverKind.WFQ):
            matrix = build_combiner(kind, h, 0.5, stats=stats).matrix
            assert relative_error(matrix, n_column_solve(kind, h, 0.5, stats)) <= 1e-12, kind

    @pytest.mark.parametrize("k, n", [(2, 16), (16, 128)], ids=["gufunc", "posv"])
    def test_unloaded_mmse_oracle_fails(self, k, n):
        # Negative control: without N0 I the oracle is ZF's, not MMSE's.
        h = rayleigh_channel(np.random.default_rng(31), 3 * n, k).reshape(3, n, k)
        stats = QuantizedStatistics(h, 0.5)
        matrix = build_combiner(ReceiverKind.MMSE, h, 0.5, stats=stats).matrix
        unloaded = n_column_solve(ReceiverKind.MMSE, h, 0.5, stats, loaded=False)
        assert relative_error(matrix, unloaded) > 1e-12

    def test_zf_unbiased(self):
        rng = np.random.default_rng(1)
        h = rayleigh_channel(rng, 16, 4)
        w = build_combiner(ReceiverKind.ZF, h, 0.1).matrix
        assert np.abs(w @ h - np.eye(4)).max() <= 1e-10

    def test_bzf_unbiased_against_effective_channel(self):
        rng = np.random.default_rng(2)
        h = rayleigh_channel(rng, 16, 4)
        stats = QuantizedStatistics(h, 0.1)
        w = build_combiner(ReceiverKind.BZF, h, 0.1, stats=stats).matrix
        assert np.abs(w @ stats.effective_channel - np.eye(4)).max() <= 1e-10

    def test_mmse_approaches_zf_at_vanishing_noise(self):
        rng = np.random.default_rng(3)
        h = rayleigh_channel(rng, 8, 3)
        mmse = build_combiner(ReceiverKind.MMSE, h, 1e-12).matrix
        zf = build_combiner(ReceiverKind.ZF, h, 1e-12).matrix
        assert np.abs(mmse - zf).max() <= 1e-6

    def test_denominators_use_matching_reference(self):
        rng = np.random.default_rng(5)
        h = rayleigh_channel(rng, 8, 2)
        n0 = 0.3
        stats = QuantizedStatistics(h, n0)
        for kind in ALL_KINDS:
            combiner = build_combiner(kind, h, n0, stats=stats)
            reference = stats.effective_channel if kind in BUSSGANG_KINDS else h
            expected = np.einsum("kn,nk->k", combiner.matrix, reference)
            np.testing.assert_allclose(combiner.eq_denominators, expected, atol=1e-14)

    def test_zero_column_degenerate_denominator(self):
        h = np.zeros((2, 1), dtype=complex)
        with pytest.raises(DegenerateDenominatorError):
            build_combiner(ReceiverKind.MRC, h, 1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_denominator_floor_is_scale_free(self, kind):
        # At -150 dB the denominators of the noise-dependent kinds scale down
        # with 1/N0 far below any absolute floor; a healthy draw must still
        # pass, and the same draw with a zero column must not. ZF's and BZF's
        # Gram matrix then does not factor; the other kinds solve no system,
        # or one with a noise or unit loading, so they trip the floor instead.
        h = rayleigh_channel(np.random.default_rng(15), 16, 2)
        n0 = noise_power_from_snr_db(-150.0)
        assert (build_combiner(kind, h, n0).eq_denominators != 0).all()
        h[:, 1] = 0
        zero_forcing = kind in (ReceiverKind.ZF, ReceiverKind.BZF)
        with pytest.raises(NotPositiveDefiniteError if zero_forcing else DegenerateDenominatorError):
            build_combiner(kind, h, n0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_name_builds_what_its_kind_builds(self, kind):
        h = rayleigh_channel(np.random.default_rng(16), 8, 2)
        by_name = build_combiner(kind.value, h, 0.3)
        by_kind = build_combiner(kind, h, 0.3)
        assert by_name.kind is by_kind.kind is kind
        assert by_name.matrix.tobytes() == by_kind.matrix.tobytes()
        assert by_name.eq_denominators.tobytes() == by_kind.eq_denominators.tobytes()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="nope"):
            build_combiner("nope", np.eye(2, dtype=complex), 1.0)

    def test_nan_noise_power_raises(self):
        # NaN used to pass every check and build an all-NaN combiner.
        h = rayleigh_channel(np.random.default_rng(17), 8, 2)
        with pytest.raises(ValueError, match="noise_power"):
            build_combiner("bmrc", h, float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_non_finite_channel_raises_one_error(self, kind, bad):
        # Refused before any arithmetic: one message for every kind, no
        # warning (pytest makes one an error), and a ValueError, which the
        # sweep does not redraw.
        h = rayleigh_channel(np.random.default_rng(17), 8, 2)
        h[3, 1] = bad
        with pytest.raises(ValueError, match="^channel has a non-finite entry$"):
            build_combiner(kind, h, 0.5)

    def test_solve_error_leaves_build_combiner_unchanged(self, monkeypatch):
        # Every kind that solves raises the solve's own error, which the
        # sweep redraws as a rank-deficient draw.
        failure = NotPositiveDefiniteError("a slice does not factor")

        def failing_solve(matrix, rhs):
            raise failure

        monkeypatch.setattr(receivers, "hermitian_solve", failing_solve)
        h = rayleigh_channel(np.random.default_rng(18), 8, 2)
        solving = [kind for kind in ALL_KINDS if kind not in (ReceiverKind.MRC, ReceiverKind.BMRC)]
        for kind in solving:
            with pytest.raises(NotPositiveDefiniteError) as raised:
                build_combiner(kind, h, 0.5)
            assert raised.value is failure

    def test_copied_column_does_not_factor(self):
        # Two equal all-ones columns: ZF's Gram matrix is 4 in every entry,
        # and Cholesky's second pivot is 4 - 2 * 2 = 0 without rounding.
        with pytest.raises(NotPositiveDefiniteError):
            build_combiner(ReceiverKind.ZF, np.ones((4, 2), dtype=complex), 1.0)


class TestPipelineStages:
    def test_demultiplex_identity_and_linearity(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        y1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_array_equal(demultiplex(np.eye(4), y1), y1)
        np.testing.assert_allclose(
            demultiplex(w, y1 + y2),
            demultiplex(w, y1) + demultiplex(w, y2),
            atol=1e-12,
        )

    def test_demultiplex_hand_product(self):
        w = np.array([[0.5, 0.5]])
        y = np.array([1 + 1j, 1 - 1j])
        np.testing.assert_allclose(demultiplex(w, y), [1.0], atol=1e-15)

    def test_equalize_is_noop_for_zf(self):
        rng = np.random.default_rng(7)
        h = rayleigh_channel(rng, 8, 3)
        combiner = build_combiner(ReceiverKind.ZF, h, 0.2)
        x_tilde = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(
            equalize(x_tilde, combiner.eq_denominators), x_tilde, atol=1e-10
        )

    def test_equalize_scalar_chain(self):
        # Scalar quantization-aware MMSE has denominator (W A) = 1/pi.
        h = np.array([[1.0 + 0j]])
        combiner = build_combiner(ReceiverKind.BMMSE, h, 1.0)
        assert abs(combiner.eq_denominators[0] - 1 / np.pi) <= 1e-12
        out = equalize(np.array([0.3 + 0j]), combiner.eq_denominators)
        assert abs(out[0] - 0.3 * np.pi) <= 1e-10

    def test_equalize_invariant_to_combiner_scaling(self):
        rng = np.random.default_rng(8)
        h = rayleigh_channel(rng, 6, 2)
        combiner = build_combiner(ReceiverKind.MMSE, h, 0.4)
        scaled = 3.7 * combiner.matrix
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = equalize(demultiplex(combiner.matrix, y), combiner.eq_denominators)
        b = equalize(demultiplex(scaled, y), np.einsum("kn,nk->k", scaled, h))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rescale_examples(self):
        np.testing.assert_allclose(
            rescale(np.array([1.0, 1j]), 2), np.array([1.0, 1j]), atol=1e-12
        )
        np.testing.assert_allclose(
            rescale(np.array([2.0, 0.0]), 2), np.array([np.sqrt(2), 0.0]), atol=1e-12
        )

    def test_rescale_norm_and_direction(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        out = rescale(x, 5)
        assert np.linalg.norm(out) ** 2 == pytest.approx(5.0, abs=1e-10)
        cos = abs(np.vdot(out, x)) / (np.linalg.norm(out) * np.linalg.norm(x))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_rescale_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            rescale(np.zeros(3, dtype=complex), 3)

    def test_rescale_does_not_change_psk_decisions(self):
        qpsk = make_constellation("qpsk")
        grid = np.linspace(-2, 2, 9)
        points = np.array(
            [a + 1j * b for a in grid for b in grid if abs(a) + abs(b) > 0]
        )
        for k in (1, 2, 4):
            x = points[: len(points) - len(points) % k].reshape(-1, k)
            for row in x:
                if np.linalg.norm(row) == 0:
                    continue
                np.testing.assert_array_equal(
                    detect(rescale(row, k), qpsk), detect(row, qpsk)
                )

    def test_detect_first_quadrant(self):
        qpsk = make_constellation("qpsk")
        out = detect(np.array([0.9 + 0.2j]), qpsk)
        np.testing.assert_allclose(out, [(1 + 1j) / np.sqrt(2)], atol=1e-15)

    def test_detect_fixed_points(self):
        for name in ("qpsk", "8psk", "16qam"):
            c = make_constellation(name)
            np.testing.assert_array_equal(detect(c.points, c), c.points)

    def test_detect_against_brute_force(self):
        rng = np.random.default_rng(10)
        for name in ("qpsk", "8psk", "16qam"):
            c = make_constellation(name)
            signal = 3 * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
            fast = detect(signal, c)
            slow = np.array(
                [min(c.points, key=lambda p, s=s: abs(s - p) ** 2) for s in signal]
            )
            np.testing.assert_array_equal(fast, slow)


class TestDetectPipeline:
    def test_noiseless_unquantized_zf_recovers_exactly(self):
        rng = np.random.default_rng(11)
        qpsk = make_constellation("qpsk")
        h = rayleigh_channel(rng, 8, 2)
        bits = rng.integers(0, 2, size=4)
        x = map_bits_to_symbols(bits, qpsk)
        combiner = build_combiner(ReceiverKind.ZF, h, 1e-30)
        np.testing.assert_array_equal(
            detect_pipeline(h @ x, combiner.matrix, combiner.eq_denominators, qpsk), x
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scaling_invariance(self, kind):
        # Scaling the combiner (with recomputed denominators) or the input by
        # any positive constant leaves the detected symbols bit-identical.
        rng = np.random.default_rng(12)
        qpsk = make_constellation("qpsk")
        h = rayleigh_channel(rng, 8, 2)
        n0 = 0.25
        stats = QuantizedStatistics(h, n0)
        combiner = build_combiner(kind, h, n0, stats=stats)
        reference = stats.effective_channel if kind in BUSSGANG_KINDS else h
        matrix, denominators = combiner.matrix, combiner.eq_denominators
        for _ in range(40):
            y = one_bit_quantize(rng.standard_normal(8) + 1j * rng.standard_normal(8))
            base = detect_pipeline(y, matrix, denominators, qpsk)
            c = 10 ** rng.uniform(-6, 6)
            scaled = c * matrix
            scaled_denominators = np.einsum("kn,nk->k", scaled, reference)
            np.testing.assert_array_equal(
                detect_pipeline(y, scaled, scaled_denominators, qpsk), base
            )
            np.testing.assert_array_equal(
                detect_pipeline(c * y, matrix, denominators, qpsk), base
            )

    def test_bmmse_is_stationary_for_monte_carlo_mse(self):
        # No small perturbation of the quantization-aware MMSE combiner may
        # significantly reduce the sampled MSE (paired samples, Gaussian
        # payload, unit-power quantizer output).
        rng = np.random.default_rng(13)
        n, k, n0 = 4, 2, 1.0
        h = rayleigh_channel(rng, n, k)
        w = build_combiner(ReceiverKind.BMMSE, h, n0).matrix
        samples = 20_000
        x = (rng.standard_normal((k, samples)) + 1j * rng.standard_normal((k, samples))) * np.sqrt(0.5)
        z = (rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))) * np.sqrt(n0 / 2)
        y = one_bit_quantize(h @ x + z) / np.sqrt(2)
        base = (np.abs(x - w @ y) ** 2).sum(axis=0)
        for _ in range(20):
            delta = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
            delta *= 0.01 / np.linalg.norm(delta)
            diff = (np.abs(x - (w + delta) @ y) ** 2).sum(axis=0) - base
            stderr = diff.std(ddof=1) / np.sqrt(samples)
            assert diff.mean() >= -3 * stderr
