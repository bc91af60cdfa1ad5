"""Deterministic per-trial random streams.

Each trial owns three independent counter-based streams keyed by
(seed, trial index, purpose), one per randomness purpose, so a trial's
channel, payload bits, and noise are fully determined by the seed and the
trial index regardless of how trials are partitioned across workers, and
a change in how much randomness one purpose consumes cannot shift another.

A stream is a Philox generator at counter 0 whose 128-bit key is
``SeedSequence((seed, trial index, purpose, redraw)).generate_state(2,
np.uint64)``. :func:`trial_keys` derives those keys for any number of trials
in one vectorized pass of the SeedSequence hash, and :func:`trial_streams`
hands out the streams: per purpose, one Philox generator re-keyed to each
trial's key in turn, so each trial draws exactly what its own
``Generator(Philox(key))`` draws without building a SeedSequence or a
generator per trial. :func:`random_bits` reads the payload bits of many
streams as their ``integers(0, 2)`` would draw them, from raw Philox words.
"""

from collections.abc import Iterable, Iterator

import numpy as np

#: Bumped whenever the draws of a given (seed, trial index) change.
STREAM_VERSION = 1

CHANNEL = 0
SYMBOLS = 1
NOISE = 2

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): uint32
# arithmetic over a pool of 4 words, with constants that do not depend on
# the entropy.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _words(n: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: little-endian uint32 words,
    one word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_sequence_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(2, np.uint64)`` for every element
    at once: ``entropy`` holds at least 4 entropy words, each a uint32 array
    of one shape; returns that shape plus a trailing axis of 2 uint64
    words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for value in pool:
        value = value ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def trial_keys(seed: int, indices, redraw: int = 0) -> np.ndarray:
    """Philox keys of the streams of trials ``indices``: a ``(3, B, 2)``
    uint64 array whose ``[purpose, j]`` row is the key of that purpose's
    stream of trial ``indices[j]``. A negative seed, index or redraw raises
    ``ValueError``, as ``SeedSequence`` does."""
    indices = np.asarray(indices)
    bad_index = indices.size and (indices.dtype.kind not in "ui" or indices.min() < 0)
    if seed < 0 or redraw < 0 or bad_index:
        raise ValueError("seed, trial indices and redraw must be nonnegative integers")
    indices = indices.astype(np.uint64)
    low = (indices & _MASK32).astype(np.uint32)
    high = (indices >> 32).astype(np.uint32)
    purposes = np.array([[CHANNEL], [SYMBOLS], [NOISE]], dtype=np.uint32)
    keys = np.empty((3, indices.size, 2), dtype=np.uint64)
    # An index below 2**32 is one entropy word, a larger one two.
    wide = high != 0
    for part, index_words in ((~wide, [low]), (wide, [low, high])):
        if part.any():
            words = [*_words(seed), *(w[part] for w in index_words), purposes, *_words(redraw)]
            entropy = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint32) for w in words))
            keys[:, part] = _seed_sequence_keys(entropy)
    return keys


#: The bits of a raw Philox word that ``Generator.integers(0, 2)`` returns:
#: the top bits of its low and then its high 32-bit half.
_HALF_WORD_TOP_BITS = np.array([31, 63], dtype=np.uint64)


def random_bits(rngs: Iterable[np.random.Generator], count: int) -> np.ndarray:
    """``rng.integers(0, 2, size=count)`` of each Philox generator in
    ``rngs``, stacked into a ``(B, count)`` int64 array, from ``ceil(count /
    2)`` raw words per generator.

    ``integers(0, 2)`` draws each bit from one ``next_uint32`` by Lemire's
    method, whose rejection threshold for a range of 2 is 0: it never
    rejects, and the bit is the top bit of the uint32. Philox serves its
    uint32s as the low and then the high half of each raw 64-bit word, so
    bits ``2 i`` and ``2 i + 1`` are bits 31 and 63 of word ``i``. An odd
    count leaves the high half of the last word unread, and the generator is
    not left where ``integers`` would leave it.
    """
    words = -(-count // 2)
    raw = np.stack([rng.bit_generator.random_raw(words) for rng in rngs])
    bits = (raw[..., None] >> _HALF_WORD_TOP_BITS) & np.uint64(1)
    return bits.reshape(len(raw), 2 * words)[:, :count].astype(np.int64)


def _rekeyed(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """Yield one Philox-backed generator set to each row of the ``(B, 2)``
    uint64 ``keys`` in turn at counter 0: each yield draws what
    ``Generator(Philox(key=key))`` draws."""
    # Its seed is never drawn from: each key replaces the state.
    generator = np.random.Generator(np.random.Philox(0))
    for key in keys.tolist():
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def trial_streams(seed: int, indices, redraw: int = 0) -> tuple[Iterator, Iterator, Iterator]:
    """The channel, payload and noise streams of trials ``indices``: one
    iterator per purpose, each yielding the trials' generators in turn, all
    keyed in one :func:`trial_keys` pass. A yielded generator is re-keyed
    for the next trial, so finish drawing from it before advancing its
    iterator. Bump ``redraw`` to redraw discarded trials."""
    return tuple(_rekeyed(purpose_keys) for purpose_keys in trial_keys(seed, indices, redraw))
