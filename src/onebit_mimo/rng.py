"""Deterministic per-trial random streams.

Each trial owns three independent counter-based streams keyed by
(seed, trial index, purpose), one per randomness purpose, so a trial's
channel, payload bits, and noise are fully determined by the seed and the
trial index regardless of how trials are partitioned across workers, and
a change in how much randomness one purpose consumes cannot shift another.
"""

from typing import NamedTuple

import numpy as np

#: Bumped whenever the draws of a given (seed, trial index) change.
STREAM_VERSION = 1

CHANNEL = 0
SYMBOLS = 1
NOISE = 2


class TrialStreams(NamedTuple):
    channel: np.random.Generator
    symbols: np.random.Generator
    noise: np.random.Generator


def _stream(seed: int, trial_index: int, purpose: int, redraw: int):
    key = np.random.SeedSequence((seed, trial_index, purpose, redraw))
    return np.random.Generator(np.random.Philox(key))


def trial_streams(seed: int, trial_index: int, redraw: int = 0) -> TrialStreams:
    """Streams for one trial; bump ``redraw`` to redraw a discarded trial."""
    return TrialStreams(
        channel=_stream(seed, trial_index, CHANNEL, redraw),
        symbols=_stream(seed, trial_index, SYMBOLS, redraw),
        noise=_stream(seed, trial_index, NOISE, redraw),
    )
