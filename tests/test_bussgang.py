"""Second-order statistics: received covariance, Bussgang gain and effective
channel, effective noise covariance, AQNM parameters."""

import numpy as np
import pytest

from onebit_mimo.bussgang import (
    ALPHA_ONE_BIT,
    QuantizedStatistics,
    aqnm_covariance,
    effective_noise_covariance,
    received_covariance,
)
from onebit_mimo.errors import DegenerateCovarianceError
from onebit_mimo.linalg import PIECE_ENTRIES, elementwise_arcsin
from shared import rayleigh_channel


class TestReceivedCovariance:
    def test_scalar(self):
        np.testing.assert_allclose(
            received_covariance(np.array([[1.0 + 0j]]), 0.1), [[1.1]], atol=1e-15
        )

    def test_noise_only(self):
        np.testing.assert_array_equal(
            received_covariance(np.zeros((3, 2)), 1.0), np.eye(3)
        )

    def test_hermitian_with_positive_diagonal(self):
        rng = np.random.default_rng(0)
        h = rayleigh_channel(rng, 8, 2)
        cov = received_covariance(h, 0.25)
        np.testing.assert_array_equal(cov, cov.conj().T)
        assert (cov.diagonal().real > 0).all()


class TestBussgangMatrices:
    def test_gain_for_scaled_identity_covariance(self):
        # received covariance 2*I gives gain (1/sqrt(pi))*I.
        stats = QuantizedStatistics(np.zeros((2, 1)), 1.0, received_cov=2 * np.eye(2))
        np.testing.assert_allclose(
            np.diag(stats.gain), np.eye(2) / np.sqrt(np.pi), atol=1e-15
        )

    def test_scalar_effective_channel(self):
        effective = QuantizedStatistics(np.array([[1.0 + 0j]]), 1.0).effective_channel
        np.testing.assert_allclose(effective, [[1 / np.sqrt(np.pi)]], atol=1e-15)

    def test_definition_identity(self):
        rng = np.random.default_rng(1)
        h = rayleigh_channel(rng, 6, 3)
        n0 = 0.3
        cov = received_covariance(h, n0)
        stats = QuantizedStatistics(h, n0)
        scale = np.sqrt(2 / np.pi) / np.sqrt(cov.diagonal().real)
        np.testing.assert_allclose(
            stats.effective_channel, np.diag(scale) @ h, atol=1e-14
        )
        np.testing.assert_allclose(
            stats.effective_channel, np.diag(stats.gain) @ h, atol=1e-14
        )

    def test_degenerate_covariance(self):
        with pytest.raises(DegenerateCovarianceError):
            QuantizedStatistics(
                np.zeros((2, 1)), 1.0, received_cov=np.diag([1.0, 0.0])
            )


class TestEffectiveNoiseCovariance:
    def test_scalar_closed_form(self):
        received = received_covariance(np.array([[1.0 + 0j]]), 1.0)
        cov = effective_noise_covariance(received, 1.0)
        assert abs(cov[0, 0] - (1 - 1 / np.pi)) <= 1e-12

    def test_vanishing_noise_diagonal_limit(self):
        rng = np.random.default_rng(2)
        h = rayleigh_channel(rng, 5, 2)
        cov = effective_noise_covariance(received_covariance(h, 1e-12), 1e-12)
        np.testing.assert_allclose(cov.diagonal().real, 1 - 2 / np.pi, atol=1e-9)

    def test_orthogonal_rows_give_diagonal_covariance(self):
        # Each antenna sees one user: the normalized covariance has zero
        # off-diagonals so arcsin contributes nothing off the diagonal.
        h = np.diag([1.0 + 0j, 2.0 - 0j])
        cov = effective_noise_covariance(received_covariance(h, 0.5), 0.5)
        off = cov - np.diag(cov.diagonal())
        assert np.abs(off).max() == 0

    def test_analytic_diagonal(self):
        rng = np.random.default_rng(3)
        h = rayleigh_channel(rng, 8, 3)
        n0 = 0.37
        received = received_covariance(h, n0)
        cov = effective_noise_covariance(received, n0)
        expected = (2 / np.pi) * (np.pi / 2 - 1 + n0 / received.diagonal().real)
        assert np.abs(cov.diagonal().real - expected).max() <= 1e-10

    def test_hermitian_and_near_psd(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            h = rayleigh_channel(rng, 8, 4)
            n0 = 10 ** rng.uniform(-3, 1)
            cov = effective_noise_covariance(received_covariance(h, n0), n0)
            assert np.abs(cov - cov.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(cov).min() >= -1e-8

    def test_invariant_under_joint_rescaling(self):
        # H -> cH with N0 -> c^2 N0 leaves the normalized covariance alone.
        rng = np.random.default_rng(5)
        h = rayleigh_channel(rng, 6, 2)
        n0, c = 0.2, 7.3
        a = effective_noise_covariance(received_covariance(h, n0), n0)
        scaled_n0 = c**2 * n0
        b = effective_noise_covariance(received_covariance(c * h, scaled_n0), scaled_n0)
        assert np.abs(a - b).max() <= 1e-12


class TestAqnm:
    def test_scalar_example(self):
        params = aqnm_covariance(received_covariance(np.array([[1.0 + 0j]]), 1.0))
        assert params.alpha == 0.3634
        assert params.kappa == pytest.approx(0.6366)
        assert params.sigma_q[0] == pytest.approx(0.3634 * 0.6366 * 2.0, abs=1e-12)

    def test_noise_only(self):
        params = aqnm_covariance(received_covariance(np.zeros((3, 1)), 1.0))
        np.testing.assert_allclose(
            np.diag(params.sigma_q),
            ALPHA_ONE_BIT * (1 - ALPHA_ONE_BIT) * np.eye(3),
            atol=1e-15,
        )

    def test_sigma_q_diagonal_real_nonnegative(self):
        rng = np.random.default_rng(6)
        h = rayleigh_channel(rng, 6, 3)
        params = aqnm_covariance(received_covariance(h, 0.1))
        assert params.sigma_q.shape == (6,)
        assert np.isrealobj(params.sigma_q)
        assert (params.sigma_q >= 0).all()

    def test_degenerate_covariance(self):
        with pytest.raises(DegenerateCovarianceError):
            aqnm_covariance(np.diag([1.0, 0.0]))

    def test_statistics_give_the_covariance_parameters(self):
        # The power diagonal of the statistics, without the covariance.
        h = rayleigh_channel(np.random.default_rng(12), 6, 3)
        stats = QuantizedStatistics(h, 0.2)
        params = aqnm_covariance(stats)
        expected = aqnm_covariance(received_covariance(h, 0.2))
        assert params[:2] == expected[:2]
        assert params.sigma_q.tobytes() == expected.sigma_q.tobytes()
        assert "received_cov" not in vars(stats)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_diagonal_is_degenerate(self, entry):
        with pytest.raises(DegenerateCovarianceError):
            aqnm_covariance(np.diag([1.0, entry]))


class TestQuantizedStatistics:
    def test_matches_free_functions(self):
        rng = np.random.default_rng(7)
        h = rayleigh_channel(rng, 6, 2)
        n0 = 0.4
        stats = QuantizedStatistics(h, n0)
        received = received_covariance(h, n0)
        np.testing.assert_array_equal(stats.received_cov, received)
        gain = np.sqrt(2.0 / np.pi) / np.sqrt(received.diagonal().real)
        np.testing.assert_array_equal(stats.gain, gain)
        np.testing.assert_array_equal(stats.effective_channel, gain[:, None] * h)
        np.testing.assert_array_equal(
            stats.noise_cov, effective_noise_covariance(received, n0)
        )

    def test_covariance_substitution_propagates(self):
        rng = np.random.default_rng(8)
        h = rayleigh_channel(rng, 4, 2)
        substitute = 3.0 * np.eye(4)
        stats = QuantizedStatistics(h, 0.5, received_cov=substitute)
        np.testing.assert_allclose(
            np.diag(stats.gain), np.sqrt(2 / (3 * np.pi)) * np.eye(4), atol=1e-15
        )
        np.testing.assert_array_equal(stats.received_cov, substitute)

    @pytest.mark.parametrize(
        "noise_power", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"]
    )
    def test_rejects_noise_power_not_finite_and_positive(self, noise_power):
        h = rayleigh_channel(np.random.default_rng(9), 4, 2)
        with pytest.raises(ValueError, match=r"^noise_power must be (> 0|finite), got "):
            QuantizedStatistics(h, noise_power)

    def test_nan_channel_entry_is_degenerate(self):
        # A NaN diagonal used to pass the positivity check.
        h = rayleigh_channel(np.random.default_rng(9), 4, 2)
        h[2, 1] = np.nan
        with pytest.raises(DegenerateCovarianceError):
            QuantizedStatistics(h, 0.5)


def written_output_covariance(stats):
    """A A^H + noise_cov as written, from the received covariance."""
    a = stats.effective_channel
    return a @ a.conj().mT + effective_noise_covariance(stats.received_cov, stats.noise_power)


class TestOutputCovariance:
    @pytest.mark.parametrize("users, antennas", [(2, 16), (4, 64), (16, 128)])
    @pytest.mark.parametrize("noise_power", [10.0, 1.0, 1e-3])
    def test_arcsine_law_equals_the_written_form(self, users, antennas, noise_power):
        # One slice more than a piece holds, so the stack is built in two.
        slices = PIECE_ENTRIES // antennas**2 + 1
        rng = np.random.default_rng(users)
        h = np.stack([rayleigh_channel(rng, antennas, users) for _ in range(slices)])
        stats = QuantizedStatistics(h, noise_power)
        law = stats.output_cov
        expected = written_output_covariance(stats)
        assert np.abs(law - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_received_cov_is_not_overwritten(self):
        rng = np.random.default_rng(10)
        h = rayleigh_channel(rng, 16, 2)
        expected = received_covariance(h, 0.3)
        late = QuantizedStatistics(h, 0.3)
        late.output_cov
        early = QuantizedStatistics(h, 0.3)
        received = early.received_cov.copy()
        early.output_cov
        for stats in (late, early):
            assert stats.received_cov.tobytes() == expected.tobytes()
        assert received.tobytes() == expected.tobytes()
        assert early.output_cov.tobytes() == late.output_cov.tobytes()

    def test_substitute_keeps_the_written_form(self):
        # Negative control: under criterion 4's (K + N0) I the arcsine law
        # misses A A^H + noise_cov, so that case must not use it.
        rng = np.random.default_rng(11)
        k, n, n0 = 4, 32, 0.1
        h = rayleigh_channel(rng, n, k)
        substitute = (k + n0) * np.eye(n)
        stats = QuantizedStatistics(h, n0, received_cov=substitute)
        expected = written_output_covariance(stats)
        np.testing.assert_array_equal(stats.output_cov, expected)
        normalized = substitute / (k + n0)
        law = (2 / np.pi) * elementwise_arcsin(normalized)
        assert np.abs(law - expected).max() > 1e-3
