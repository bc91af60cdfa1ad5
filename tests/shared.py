"""Helpers shared by the test modules."""

import numpy as np


def rayleigh_channel(rng, n, k):
    """An N x K channel of unit-variance circular complex Gaussian entries."""
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)


def seed_sequence_stream(seed, index, purpose, redraw=0):
    """The stream of one trial and purpose, built from its own SeedSequence."""
    key = np.random.SeedSequence((seed, index, purpose, redraw))
    return np.random.Generator(np.random.Philox(key))


# The draws of stream v1 as one trial's generator made them, one call per
# real or imaginary part: the oracles of the stacked draws.


def v1_channel(rng, antennas, users):
    shape = (antennas, users)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def v1_noise(rng, antennas, noise_power):
    direction = rng.standard_normal(antennas) + 1j * rng.standard_normal(antennas)
    return direction * np.sqrt(noise_power / 2.0)


def v1_bits(rng, count):
    return rng.integers(0, 2, size=count)
