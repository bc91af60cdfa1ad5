"""Gray-labeled symbol constellations and the bit/symbol maps.

All constellations are normalized to unit average power and carry a
Gray bit labeling: nearest neighbors (ring neighbors for PSK, grid
neighbors for QAM) differ in exactly one bit. Points are stored in
label-code order, so a label code indexes its point directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, UnknownSymbolError, UnsupportedModulationError


@dataclass(frozen=True, eq=False)
class Constellation:
    """Symbol alphabet with Gray-coded bit labels, in label-code order.

    ``points[c]`` is the point whose label reads as the integer ``c``, and
    ``labels[c]`` is that label's bit row (MSB first). Instances are
    immutable and safe to share across worker processes.
    """

    points: np.ndarray
    labels: np.ndarray
    bits_per_symbol: int


def _build_qpsk():
    # The high bit selects the real sign, the low bit the imaginary sign;
    # sign-adjacent points then differ in exactly one bit around the ring.
    codes = np.arange(4)
    re = 1.0 - 2.0 * (codes >> 1)
    im = 1.0 - 2.0 * (codes & 1)
    return (re + 1j * im) / np.sqrt(2.0)


def _build_8psk():
    # Unit ring at angles 2*pi*m/8 with the standard Gray sequence
    # 000,001,011,010,110,111,101,100 assigned around the ring.
    m = np.arange(8)
    points = np.empty(8, dtype=complex)
    points[m ^ (m >> 1)] = np.exp(2j * np.pi * m / 8.0)
    return points


def _build_16qam():
    # Per-axis Gray mapping 00,01,11,10 -> -3,-1,+1,+3 (high bit pair on the
    # real axis); average power 1.
    axis_level = np.array([-3.0, -1.0, 3.0, 1.0])
    codes = np.arange(16)
    re = axis_level[codes >> 2]
    im = axis_level[codes & 3]
    return (re + 1j * im) / np.sqrt(10.0)


_BUILDERS = {"qpsk": _build_qpsk, "8psk": _build_8psk, "16qam": _build_16qam}
_CACHE: dict[str, Constellation] = {}


def supported_modulations():
    return tuple(_BUILDERS)


def make_constellation(name: str) -> Constellation:
    """Return the (cached) unit-power Gray-labeled constellation for
    ``name``, spelled as :func:`supported_modulations` gives it."""
    if name not in _BUILDERS:
        raise UnsupportedModulationError(
            f"unsupported modulation {name!r}; choose from {sorted(_BUILDERS)}"
        )
    if name not in _CACHE:
        points = _BUILDERS[name]()
        width = len(points).bit_length() - 1
        shifts = np.arange(width - 1, -1, -1)
        labels = ((np.arange(len(points))[:, None] >> shifts) & 1).astype(np.uint8)
        _CACHE[name] = Constellation(points, labels, width)
    return _CACHE[name]


def map_bits_to_symbols(bits, constellation: Constellation) -> np.ndarray:
    """Map each 0/1 sequence along the last axis to constellation points,
    MSB-first per symbol."""
    bits = np.asarray(bits)
    width = constellation.bits_per_symbol
    count = bits.shape[-1] if bits.ndim else 0
    if count == 0 or count % width:
        raise LengthMismatchError(
            f"bit count {count} is not a positive multiple of {width}"
        )
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(width - 1, -1, -1)
    codes = bits.reshape(*bits.shape[:-1], -1, width) @ weights
    return constellation.points[codes]


def symbols_to_bits(symbols, constellation: Constellation) -> np.ndarray:
    """Invert :func:`map_bits_to_symbols` along the last axis; symbols must
    be exact points."""
    symbols = np.asarray(symbols)
    matches = symbols[..., None] == constellation.points
    index = matches.argmax(axis=-1)
    if not matches.any(axis=-1).all():
        raise UnknownSymbolError("symbol is not a constellation point")
    return constellation.labels[index].reshape(*symbols.shape[:-1], -1)
