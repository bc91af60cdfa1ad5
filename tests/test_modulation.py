"""Constellation construction, Gray labeling, and bit/symbol round trips."""

import numpy as np
import pytest

from onebit_mimo.errors import (
    LengthMismatchError,
    UnknownSymbolError,
    UnsupportedModulationError,
)
from onebit_mimo.modulation import (
    Constellation,
    make_constellation,
    map_bits_to_symbols,
    supported_modulations,
    symbols_to_bits,
)

ALL_NAMES = ["qpsk", "8psk", "16qam"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_average_power(name):
    c = make_constellation(name)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_labels_are_a_bijection(name):
    c = make_constellation(name)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    codes = c.labels @ weights
    assert sorted(codes) == list(range(len(c.points)))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gray_property_between_nearest_neighbors(name):
    # Every pair of points at the minimum distance differs in exactly one bit.
    c = make_constellation(name)
    pts = c.points
    dist = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(dist, np.inf)
    minimum = dist.min()
    for i, j in zip(*np.nonzero(np.isclose(dist, minimum))):
        assert np.count_nonzero(c.labels[i] != c.labels[j]) == 1


def test_qpsk_points_and_metadata():
    c = make_constellation("qpsk")
    expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    assert {complex(np.round(p * np.sqrt(2), 12)) for p in c.points} == expected
    assert c.bits_per_symbol == 2


def test_qpsk_spec_neighbor_labels_differ_in_one_bit():
    c = make_constellation("qpsk")
    a = np.argmin(np.abs(c.points - (1 + 1j) / np.sqrt(2)))
    b = np.argmin(np.abs(c.points - (-1 + 1j) / np.sqrt(2)))
    assert np.count_nonzero(c.labels[a] != c.labels[b]) == 1


def test_8psk_is_the_unit_ring():
    # Ring point m carries the Gray label m ^ (m >> 1), so it is stored there.
    c = make_constellation("8psk")
    m = np.arange(8)
    np.testing.assert_allclose(c.points[m ^ (m >> 1)], np.exp(2j * np.pi * m / 8), atol=1e-15)
    assert c.bits_per_symbol == 3


def maps_labels_to_points(c):
    """Whether each label row maps to the point stored at its position."""
    return np.array_equal(map_bits_to_symbols(c.labels, c)[:, 0], c.points)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_points_are_stored_in_label_code_order(name):
    c = make_constellation(name)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    np.testing.assert_array_equal(c.labels @ weights, np.arange(len(c.points)))
    assert maps_labels_to_points(c)
    np.testing.assert_array_equal(symbols_to_bits(c.points[:, None], c), c.labels)


def test_ring_ordered_8psk_is_not_in_label_code_order():
    # Negative control: the unit ring in ring order, each point with its
    # Gray label, maps label code c to ring point c, not to the point
    # labeled c.
    m = np.arange(8)
    shifts = np.arange(2, -1, -1)
    labels = (((m ^ (m >> 1))[:, None] >> shifts) & 1).astype(np.uint8)
    ring = Constellation(np.exp(2j * np.pi * m / 8.0), labels, 3)
    assert not maps_labels_to_points(ring)


def test_16qam_levels():
    c = make_constellation("16qam")
    levels = sorted(set(np.round(c.points.real * np.sqrt(10), 9)))
    assert levels == [-3, -1, 1, 3]
    assert c.bits_per_symbol == 4


def test_unsupported_name():
    with pytest.raises(UnsupportedModulationError):
        make_constellation("64qam")


def test_qpsk_bits_00_map_to_their_labeled_point():
    c = make_constellation("qpsk")
    sym = map_bits_to_symbols([0, 0], c)
    idx = np.argmin(np.abs(c.points - sym[0]))
    assert list(c.labels[idx]) == [0, 0]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_trip_on_random_bits(name):
    c = make_constellation(name)
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=1200 - 1200 % c.bits_per_symbol)
    symbols = map_bits_to_symbols(bits, c)
    np.testing.assert_array_equal(symbols_to_bits(symbols, c), bits)


def test_length_mismatch():
    c = make_constellation("qpsk")
    with pytest.raises(LengthMismatchError):
        map_bits_to_symbols([0, 1, 0], c)
    with pytest.raises(LengthMismatchError):
        map_bits_to_symbols([], c)


def test_unknown_symbol():
    c = make_constellation("qpsk")
    with pytest.raises(UnknownSymbolError):
        symbols_to_bits(np.array([0.5 + 0.5j]), c)


def test_non_binary_bits_rejected():
    c = make_constellation("qpsk")
    with pytest.raises(ValueError):
        map_bits_to_symbols([0, 2], c)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_every_non_binary_value_rejected(bad):
    c = make_constellation("qpsk")
    bits = np.zeros((3, 4))
    bits[1, 2] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        map_bits_to_symbols(bits, c)


def test_boolean_bits_map_as_integers():
    c = make_constellation("16qam")
    bits = np.random.default_rng(8).integers(0, 2, size=(5, 8))
    as_bool = map_bits_to_symbols(bits.astype(bool), c)
    assert as_bool.tobytes() == map_bits_to_symbols(bits, c).tobytes()


def test_every_point_is_its_own_nearest():
    for name in supported_modulations():
        c = make_constellation(name)
        dist = np.abs(c.points[:, None] - c.points[None, :])
        assert (dist.argmin(axis=1) == np.arange(len(c.points))).all()
