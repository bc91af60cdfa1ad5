"""Helpers shared by the test modules."""

import numpy as np


def rayleigh_channel(rng, n, k):
    """An N x K channel of unit-variance circular complex Gaussian entries."""
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)


def seed_sequence_stream(seed, index, purpose, redraw=0):
    """The stream of one trial and purpose, built from its own SeedSequence."""
    key = np.random.SeedSequence((seed, index, purpose, redraw))
    return np.random.Generator(np.random.Philox(key))
