"""System-model tests: config validation, channel statistics, quantizer."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import channel
from onebit_mimo.channel import (
    SystemConfig,
    draw_channel,
    draw_noise_direction,
    noise_power_from_snr_db,
    one_bit_quantize,
    transmit,
)
from onebit_mimo.errors import UnsupportedModulationError
from onebit_mimo.rng import CHANNEL, NOISE, trial_streams
from shared import seed_sequence_stream, v1_channel, v1_noise


class TestSystemConfig:
    """What a sweep's system is built from: K, N and the modulation in a
    ``SystemConfig``, and each grid point's noise power from its SNR, which
    ``noise_power_from_snr_db`` alone turns into one and checks."""

    def test_rejects_more_users_than_antennas(self):
        with pytest.raises(ValueError, match="antennas"):
            SystemConfig(users=4, antennas=2)

    @pytest.mark.parametrize(
        "args, error, message",
        [((0, 2), ValueError, "users must be >= 1"),
         ((1, 2, "bpsk"), UnsupportedModulationError, "'bpsk'"),
         ((2.5, 4), ValueError, "users must be an integer, got 2.5"),
         ((2, 4.0), ValueError, "antennas must be an integer, got 4.0")],
        ids=["no-users", "bpsk", "float-users", "float-antennas"],
    )
    def test_rejects_users_or_modulation(self, args, error, message):
        with pytest.raises(error, match=message):
            SystemConfig(*args)

    def test_fields_are_the_system_alone(self):
        assert [field.name for field in dataclasses.fields(SystemConfig)] == [
            "users", "antennas", "modulation"]

    def test_stale_noise_power_argument_fails_loudly(self):
        # A call site written for the noise power in the config does not
        # build a config: the third positional is read as the modulation,
        # and a fourth argument or the keyword has no field to go to.
        with pytest.raises(UnsupportedModulationError, match="1.0"):
            SystemConfig(2, 4, 1.0)
        with pytest.raises(TypeError):
            SystemConfig(2, 4, 1.0, "qpsk")
        with pytest.raises(TypeError, match="noise_power"):
            SystemConfig(2, 4, noise_power=1.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match=r"noise_power must be > 0, got 0\.0"):
            noise_power_from_snr_db(4000.0)

    @pytest.mark.parametrize(
        "snr_db, message",
        [(-math.inf, "must be finite, got inf"), (math.nan, "must be > 0, got nan")],
        ids=["inf", "nan"],
    )
    def test_rejects_non_finite_noise(self, snr_db, message):
        with pytest.raises(ValueError, match=f"noise_power {message}"):
            noise_power_from_snr_db(snr_db)

    def test_overflowing_noise_power_raises(self):
        # 10**400 overflows a float, which raises instead of returning inf.
        with pytest.raises(ValueError, match="noise_power must be finite, got inf"):
            noise_power_from_snr_db(-4000.0)

    def test_snr_round_trip(self):
        assert -10.0 * np.log10(noise_power_from_snr_db(17.5)) == pytest.approx(17.5)
        assert noise_power_from_snr_db(0.0) == 1.0
        assert noise_power_from_snr_db(30.0) == pytest.approx(1e-3)


class TestDrawChannel:
    def test_deterministic_under_seed(self):
        cfg = SystemConfig(2, 4)
        a = draw_channel(cfg, [np.random.default_rng(5)])
        b = draw_channel(cfg, [np.random.default_rng(5)])
        np.testing.assert_array_equal(a, b)

    def test_moments_over_many_draws(self):
        # Law of large numbers: per-entry mean -> 0 and E|h|^2 -> 1.
        cfg = SystemConfig(2, 4)
        h = draw_channel(cfg, itertools.repeat(np.random.default_rng(11), 100_000))
        assert h.shape == (100_000, 4, 2)
        assert np.abs(h.mean(axis=0)).max() <= 0.02
        assert np.abs((np.abs(h) ** 2).mean(axis=0) - 1.0).max() <= 0.02


#: (seed, trial indices, redraw) of the stacked-draw oracles: indices on
#: both sides of 2**32, where a key takes a second index word, and redraws.
DRAW_CASES = [
    (0, range(0, 5), 0),
    (2**40 + 9, range(2**32 - 2, 2**32 + 2), 1),
    (17, [7, 2**33, 5], 3),
]


class TestStackedDraws:
    """One generator call per trial and the complex arithmetic over the
    stack draw the bytes of stream v1's per-trial formulas, on streams built
    from numpy's own SeedSequence."""

    @pytest.mark.parametrize("users, antennas", [(1, 1), (2, 16), (3, 5), (16, 128)])
    @pytest.mark.parametrize("seed, indices, redraw", DRAW_CASES)
    def test_channel_is_v1(self, seed, indices, redraw, users, antennas):
        cfg = SystemConfig(users, antennas)
        stack = draw_channel(cfg, trial_streams(seed, indices, redraw)[CHANNEL])
        expected = np.stack([
            v1_channel(seed_sequence_stream(seed, i, CHANNEL, redraw), antennas, users)
            for i in indices
        ])
        assert stack.shape == (len(indices), antennas, users)
        assert stack.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("antennas, noise_power", [(1, 1.0), (16, 1e-3), (5, 10.0)])
    @pytest.mark.parametrize("seed, indices, redraw", DRAW_CASES)
    def test_noise_is_v1(self, seed, indices, redraw, antennas, noise_power):
        # The noise of a noise power is its direction scaled by sqrt(N0 / 2).
        direction = draw_noise_direction(antennas, trial_streams(seed, indices, redraw)[NOISE])
        stack = direction * np.sqrt(noise_power / 2.0)
        expected = np.stack([
            v1_noise(seed_sequence_stream(seed, i, NOISE, redraw), antennas, noise_power)
            for i in indices
        ])
        assert stack.shape == (len(indices), antennas)
        assert stack.tobytes() == expected.tobytes()

    def test_interleaved_parts_fail_the_oracle(self, monkeypatch):
        # Negative control: one call per trial as well, but with each entry's
        # a and b drawn next to each other and read as one complex number.
        def interleaved(rngs, shape):
            return np.stack([rng.standard_normal((*shape, 2)) for rng in rngs]).view(complex)[..., 0]

        monkeypatch.setattr(channel, "_complex_normals", interleaved)
        stack = draw_channel(SystemConfig(2, 16), trial_streams(3, [4])[CHANNEL])
        assert stack.shape == (1, 16, 2)
        expected = v1_channel(seed_sequence_stream(3, 4, CHANNEL), 16, 2)
        assert not np.array_equal(stack[0], expected)


def awgn(antennas, noise_power, rng):
    """One trial's noise as the engine forms it: the noise direction scaled
    by ``sqrt(N0 / 2)``."""
    return draw_noise_direction(antennas, [rng])[0] * np.sqrt(noise_power / 2.0)


class TestTransmit:
    def test_noiseless_limit_identity_channel(self):
        rng = np.random.default_rng(0)
        h = np.eye(2, dtype=complex)
        x = np.array([1.0, 1j])
        r = transmit(h, x) + awgn(2, 1e-30, rng)
        np.testing.assert_allclose(r, x, atol=1e-12)

    def test_noiseless_limit_general_channel(self):
        rng = np.random.default_rng(1)
        h = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
        x = np.array([1.0, -1j])
        r = transmit(h, x) + awgn(4, 1e-30, rng)
        np.testing.assert_allclose(r, h @ x, atol=1e-12)

    def test_reproducible_from_seed(self):
        h = np.eye(3, dtype=complex)
        x = np.ones(3, dtype=complex)
        a = transmit(h, x) + awgn(3, 0.3, np.random.default_rng(9))
        b = transmit(h, x) + awgn(3, 0.3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_stack_matches_single_trials(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((5, 6, 3)) + 1j * rng.standard_normal((5, 6, 3))
        x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        stacked = transmit(h, x)
        for i in range(5):
            assert stacked[i].tobytes() == transmit(h[i], x[i]).tobytes()

    def test_noise_power(self):
        rng = np.random.default_rng(12)
        z = draw_noise_direction(4, itertools.repeat(rng, 50_000)) * np.sqrt(0.25 / 2.0)
        assert z.shape == (50_000, 4)
        assert np.abs((np.abs(z) ** 2).mean(axis=0) - 0.25).max() <= 0.01

    def test_sample_covariance_matches_model(self):
        # Cov(r) = H H^H + N0 I for unit-power uncorrelated symbols.
        rng = np.random.default_rng(3)
        n, k, n0 = 4, 2, 0.5
        h = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
        qpsk = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        draws = 100_000
        x = qpsk[rng.integers(0, 4, size=(k, draws))]
        z = (rng.standard_normal((n, draws)) + 1j * rng.standard_normal((n, draws))) * np.sqrt(n0 / 2)
        r = h @ x + z
        estimate = r @ r.conj().T / draws
        expected = h @ h.conj().T + n0 * np.eye(n)
        assert np.abs(estimate - expected).max() <= 0.03 * np.abs(expected).max()


class TestOneBitQuantize:
    def test_componentwise_sign(self):
        r = np.array([1 + 2j, -0.5 - 0.1j])
        np.testing.assert_array_equal(one_bit_quantize(r), np.array([1 + 1j, -1 - 1j]))

    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(one_bit_quantize(np.array([0j])), np.array([1 + 1j]))

    def test_alphabet_power(self):
        rng = np.random.default_rng(4)
        r = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        y = one_bit_quantize(r)
        assert np.isin(y.real, (-1.0, 1.0)).all()
        assert np.isin(y.imag, (-1.0, 1.0)).all()
        np.testing.assert_array_equal(y.real**2 + y.imag**2, 2.0)

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10, allow_subnormal=False),
                st.floats(min_value=-10, max_value=10, allow_subnormal=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_invariant_to_positive_scaling(self, pairs, scale):
        r = np.array([re + 1j * im for re, im in pairs])
        np.testing.assert_array_equal(one_bit_quantize(scale * r), one_bit_quantize(r))

    def test_subnormal_underflow_maps_to_plus_one(self):
        # Halving the smallest negative subnormal underflows to -0.0, which
        # sign(0) = +1 maps to +1: positive scaling cannot preserve the sign
        # of a component that rounds to zero, so the property above draws no
        # subnormals and this outcome is pinned here instead.
        r = np.array([complex(0.0, -5e-324)])
        np.testing.assert_array_equal(one_bit_quantize(r), [1 - 1j])
        np.testing.assert_array_equal(one_bit_quantize(0.5 * r), [1 + 1j])
