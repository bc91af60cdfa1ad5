"""Uplink system model: i.i.d. Rayleigh channel, AWGN, and one-bit sampling.

The SNR convention is rho = 1/N0 with unit transmit power per user, so a
grid point at ``snr_db`` runs with noise power ``10**(-snr_db/10)``.

The draws take one generator per trial and return the stack of their
trials, a single draw being the stack of one. Each generator is called
once per draw, for the real parts ``a`` and then the imaginary parts ``b``
(``standard_normal((2, *shape))``, the values of two calls of
``standard_normal(shape)``), and the complex arithmetic runs once over the
stack with the floating-point operations of ``(a + 1j * b) * scale``, so
each trial's entries are the bytes its own draw gave before the stacking.
"""

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .modulation import supported_modulations
from .errors import UnsupportedModulationError


def check_noise_power(noise_power: float) -> float:
    """``noise_power``, or a ``ValueError`` unless it is finite and positive."""
    if not noise_power > 0:
        raise ValueError(f"noise_power must be > 0, got {noise_power}")
    if not np.isfinite(noise_power):
        raise ValueError(f"noise_power must be finite, got {noise_power}")
    return noise_power


def noise_power_from_snr_db(snr_db: float) -> float:
    """The noise power ``10**(-snr_db/10)`` of a grid point at ``snr_db``;
    ``ValueError`` where that underflows to 0, overflows or is NaN."""
    try:
        noise_power = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise_power = float("inf")
    return check_noise_power(noise_power)


@dataclass(frozen=True)
class SystemConfig:
    """The system a sweep runs: K single-antenna users, N base-station
    antennas and the modulation. The noise power is not part of it: each
    grid point gives its own, from :func:`noise_power_from_snr_db`."""

    users: int
    antennas: int
    modulation: str = "qpsk"

    def __post_init__(self):
        for name in ("users", "antennas"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # A numpy integer becomes an int, which the JSON output can write.
            object.__setattr__(self, name, int(value))
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.antennas < self.users:
            raise ValueError(
                f"antennas must be >= users, got N={self.antennas} K={self.users}"
            )
        if self.modulation not in supported_modulations():
            raise UnsupportedModulationError(
                f"unsupported modulation {self.modulation!r}"
            )


def _complex_normals(rngs: Iterable[np.random.Generator], shape) -> np.ndarray:
    """``a + 1j * b`` of each generator in ``rngs``, stacked into a
    ``(B, *shape)`` array, with ``a`` and then ``b`` the generator's
    ``standard_normal((2, *shape))``."""
    pairs = np.stack([rng.standard_normal((2, *shape)) for rng in rngs])
    # a + 1j * b operation for operation, with no stack beside the pairs and
    # the result.
    stack = 1j * pairs[:, 1]
    stack += pairs[:, 0]
    return stack


def draw_channel(config: SystemConfig, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Draw a ``(B, N, K)`` stack of channels with i.i.d. unit-variance
    complex Gaussian entries, ``(a + 1j * b) * sqrt(1/2)``, one from each of
    the B generators in ``rngs``."""
    channel = _complex_normals(rngs, (config.antennas, config.users))
    channel *= np.sqrt(0.5)
    return channel


def draw_noise_direction(antennas: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Draw a ``(B, N)`` stack of ``a + 1j * b``, one from each generator in
    ``rngs``: the noise of every noise power, before its scale
    ``sqrt(N0 / 2)``."""
    return _complex_normals(rngs, (antennas,))


def transmit(channel: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Noiseless receive vector channel @ symbols, for one trial (``(N, K)``
    and ``(K,)``) or a stack of them. Noise is added to it afterwards: the
    direction of :func:`draw_noise_direction` scaled by ``sqrt(N0 / 2)``."""
    return (channel @ symbols[..., None])[..., 0]


def one_bit_quantize(signal: np.ndarray) -> np.ndarray:
    """Componentwise sign of real and imaginary parts; sign(0) = +1.

    Output entries are in {+-1 +- 1j}. Works elementwise on arrays of any
    shape, so sample blocks can be quantized in one call.
    """
    signal = np.asarray(signal)
    return np.where(signal.real >= 0, 1.0, -1.0) + 1j * np.where(
        signal.imag >= 0, 1.0, -1.0
    )
