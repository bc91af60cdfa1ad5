"""Stream keys derived in bulk, and the trial streams keyed with them,
against numpy's SeedSequence built per trial and purpose."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import rng
from onebit_mimo.modulation import make_constellation, supported_modulations
from onebit_mimo.rng import CHANNEL, NOISE, SYMBOLS, random_bits, trial_keys, trial_streams
from shared import seed_sequence_stream, v1_bits

U64_MAX = 2**64 - 1
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, U64_MAX)
#: Index ranges on each side of 2**32, where an index takes a second
#: entropy word, and across it.
EDGE_RANGES = (
    range(0, 4),
    range(997, 1003),
    range(2**32 - 3, 2**32 + 3),
    range(2**64 - 3, 2**64),
)


def seed_sequence_keys(seed, indices, redraw):
    """The oracle: numpy's SeedSequence, one trial and purpose at a time."""
    return np.array(
        [
            [
                np.random.SeedSequence((seed, index, purpose, redraw)).generate_state(
                    2, np.uint64
                )
                for index in indices
            ]
            for purpose in (CHANNEL, SYMBOLS, NOISE)
        ],
        dtype=np.uint64,
    ).reshape(3, len(indices), 2)


def keys_match(seed, indices, redraw):
    keys = trial_keys(seed, np.array(indices, dtype=np.uint64), redraw)
    return keys.dtype == np.uint64 and np.array_equal(
        keys, seed_sequence_keys(seed, indices, redraw)
    )


class TestTrialKeys:
    @pytest.mark.parametrize("indices", EDGE_RANGES, ids=lambda r: f"{r.start}+{len(r)}")
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_cases_match_seed_sequence(self, seed, indices):
        for redraw in range(8):
            assert keys_match(seed, indices, redraw), redraw

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, U64_MAX),
        start=st.integers(0, U64_MAX - 16),
        length=st.integers(1, 16),
        redraw=st.integers(0, 7),
    )
    def test_matches_seed_sequence(self, seed, start, length, redraw):
        assert keys_match(seed, range(start, start + length), redraw)

    def test_shape_and_empty_range(self):
        assert trial_keys(5, np.arange(10, 17, dtype=np.uint64)).shape == (3, 7, 2)
        assert trial_keys(5, np.arange(0, dtype=np.uint64)).shape == (3, 0, 2)

    @pytest.mark.parametrize(
        "name", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R"]
    )
    def test_negative_control_wrong_constant(self, monkeypatch, name):
        monkeypatch.setattr(rng, name, getattr(rng, name) ^ 1)
        assert not keys_match(7, range(2**32 - 2, 2**32 + 2), 0)

    @pytest.mark.parametrize("dropped", [0, 11, 15])
    def test_negative_control_dropped_mix_round(self, monkeypatch, dropped):
        # A two-word seed makes 5 entropy words: 12 pool rounds, then 4
        # rounds for the fifth word.
        calls = []
        mix = rng._mix

        def dropping_mix(x, y):
            calls.append(None)
            return x if len(calls) - 1 == dropped else mix(x, y)

        monkeypatch.setattr(rng, "_mix", dropping_mix)
        assert not keys_match(U64_MAX, range(5), 3)
        assert len(calls) == 16


class TestTrialStreams:
    def test_draws_what_fresh_streams_draw(self):
        # Each purpose's draws of each trial, across the 2**32 index word
        # boundary, from one generator per purpose re-keyed in turn.
        cases = [(2**40 + 9, range(2**32 - 2, 2**32 + 2)), (0, [7, 2**33, 5]), (U64_MAX, [0])]
        for (seed, indices), redraw in itertools.product(cases, range(8)):
            streams = trial_streams(seed, indices, redraw)
            for purpose, keyed_stream in zip((CHANNEL, SYMBOLS, NOISE), streams, strict=True):
                fresh = [seed_sequence_stream(seed, index, purpose, redraw) for index in indices]
                for keyed, stream in zip(keyed_stream, fresh, strict=True):
                    # These draws leave buffered words and a 32-bit half word
                    # behind, which re-keying for the next trial must drop.
                    assert keyed.standard_normal(9).tobytes() == stream.standard_normal(9).tobytes()
                    assert np.array_equal(
                        keyed.integers(0, 2, size=5), stream.integers(0, 2, size=5)
                    )
                    assert keyed.random() == stream.random()

    def test_one_generator_per_purpose(self):
        # Drawing a purpose out of turn cannot shift another purpose's draws.
        channel, symbols, noise = trial_streams(3, [10, 11])
        first_noise = next(noise)
        assert next(channel).random() == seed_sequence_stream(3, 10, CHANNEL, 0).random()
        assert next(symbols).random() == seed_sequence_stream(3, 10, SYMBOLS, 0).random()
        assert first_noise.random() == seed_sequence_stream(3, 10, NOISE, 0).random()
        assert next(channel).random() == seed_sequence_stream(3, 11, CHANNEL, 0).random()


#: Payload bit counts K * bits per symbol for K = 1, 2, 3 and every
#: modulation, 2 to 12 bits: 8-PSK at odd K (3 and 9 bits) reads half of its
#: last raw word.
PAYLOAD_BITS = sorted(
    {users * make_constellation(name).bits_per_symbol
     for users in (1, 2, 3) for name in supported_modulations()}
)


def bits_match(seed, indices, redraw, count):
    """``random_bits`` of bulk-keyed streams against ``integers(0, 2)`` of
    streams built from their own SeedSequence."""
    bits = random_bits(trial_streams(seed, indices, redraw)[SYMBOLS], count)
    expected = np.stack(
        [v1_bits(seed_sequence_stream(seed, i, SYMBOLS, redraw), count) for i in indices]
    )
    return bits.dtype == expected.dtype == np.int64 and bits.tobytes() == expected.tobytes()


class TestRandomBits:
    CASES = [(0, range(0, 6), 0), (2**40 + 9, range(2**32 - 3, 2**32 + 3), 2), (U64_MAX, [5], 7)]

    @pytest.mark.parametrize("count", PAYLOAD_BITS)
    @pytest.mark.parametrize("seed, indices, redraw", CASES)
    def test_equal_integers(self, seed, indices, redraw, count):
        assert bits_match(seed, indices, redraw, count)

    @pytest.mark.parametrize("positions", [[0, 32], [63, 31]], ids=["low-bit", "high-half-first"])
    def test_negative_control_wrong_bits(self, monkeypatch, positions):
        monkeypatch.setattr(rng, "_HALF_WORD_TOP_BITS", np.array(positions, dtype=np.uint64))
        assert not bits_match(0, range(0, 6), 0, 12)


class TestInputCheck:
    @pytest.mark.parametrize(
        "seed, indices, redraw",
        [
            (-1, [0], 0),
            (0, [0], -1),
            (0, np.array([3, -1]), 0),
            (0, [-1, U64_MAX], 0),
            (0, [2**64], 0),
            (0, [1.0], 0),
        ],
    )
    def test_negative_or_non_integer_input_raises(self, seed, indices, redraw):
        # A negative seed once looped forever in _words, and an int64 index
        # of -1 took the key of trial 2**64 - 1.
        with pytest.raises(ValueError, match="nonnegative integers"):
            trial_keys(seed, indices, redraw)
        with pytest.raises(ValueError, match="nonnegative integers"):
            trial_streams(seed, indices, redraw)
