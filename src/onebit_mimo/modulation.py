"""Gray-labeled symbol constellations and the bit/symbol maps.

All constellations are normalized to unit average power and carry a
Gray bit labeling: nearest neighbors (ring neighbors for PSK, grid
neighbors for QAM) differ in exactly one bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, UnknownSymbolError, UnsupportedModulationError


@dataclass(frozen=True, eq=False)
class Constellation:
    """Symbol alphabet with Gray-coded bit labels.

    ``labels[i]`` is the bit row (MSB first) of ``points[i]``;
    ``point_by_code[c]`` is the index of the point whose label reads as
    the integer ``c``. Instances are immutable and safe to share across
    worker processes.
    """

    name: str
    points: np.ndarray
    labels: np.ndarray
    bits_per_symbol: int
    point_by_code: np.ndarray


def _bit_rows(codes, width):
    codes = np.asarray(codes)
    shifts = np.arange(width - 1, -1, -1)
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8)


def _build_qpsk():
    # Bit 0 selects the real sign, bit 1 the imaginary sign; sign-adjacent
    # points then differ in exactly one bit around the ring.
    codes = np.arange(4)
    bits = _bit_rows(codes, 2)
    re = 1.0 - 2.0 * bits[:, 0]
    im = 1.0 - 2.0 * bits[:, 1]
    points = (re + 1j * im) / np.sqrt(2.0)
    return points, bits, codes


def _build_8psk():
    # Unit ring at angles 2*pi*m/8 with the standard Gray sequence
    # 000,001,011,010,110,111,101,100 assigned around the ring.
    m = np.arange(8)
    points = np.exp(2j * np.pi * m / 8.0)
    gray = m ^ (m >> 1)
    labels = _bit_rows(gray, 3)
    point_by_code = np.empty(8, dtype=np.intp)
    point_by_code[gray] = m
    return points, labels, point_by_code


def _build_16qam():
    # Per-axis Gray mapping 00,01,11,10 -> -3,-1,+1,+3; average power 1.
    axis_level = np.array([-3.0, -1.0, 3.0, 1.0])
    codes = np.arange(16)
    bits = _bit_rows(codes, 4)
    re = axis_level[(bits[:, 0] << 1) | bits[:, 1]]
    im = axis_level[(bits[:, 2] << 1) | bits[:, 3]]
    points = (re + 1j * im) / np.sqrt(10.0)
    return points, bits, codes


_BUILDERS = {"qpsk": _build_qpsk, "8psk": _build_8psk, "16qam": _build_16qam}
_CACHE: dict[str, Constellation] = {}


def supported_modulations():
    return tuple(_BUILDERS)


def make_constellation(name: str) -> Constellation:
    """Return the (cached) unit-power Gray-labeled constellation for ``name``."""
    key = name.lower()
    if key not in _BUILDERS:
        raise UnsupportedModulationError(
            f"unsupported modulation {name!r}; choose from {sorted(_BUILDERS)}"
        )
    if key not in _CACHE:
        points, labels, code_map = _BUILDERS[key]()
        _CACHE[key] = Constellation(
            name=key,
            points=points,
            labels=labels,
            bits_per_symbol=labels.shape[1],
            point_by_code=np.asarray(code_map, dtype=np.intp),
        )
    return _CACHE[key]


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
    return constellation.points[constellation.point_by_code[codes]]


def symbols_to_bits(symbols, constellation: Constellation) -> np.ndarray:
    """Invert :func:`map_bits_to_symbols` along the last axis; symbols must
    be exact points."""
    symbols = np.asarray(symbols)
    matches = symbols[..., None] == constellation.points
    index = matches.argmax(axis=-1)
    if not matches.any(axis=-1).all():
        raise UnknownSymbolError("symbol is not a constellation point")
    return constellation.labels[index].reshape(*symbols.shape[:-1], -1)
