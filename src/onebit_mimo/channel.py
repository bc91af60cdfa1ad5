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


def noise_power_from_snr_db(snr_db: float) -> float:
    """``10**(-snr_db/10)``; ``inf`` where that overflows a float."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return float("inf")


@dataclass(frozen=True)
class SystemConfig:
    """One operating point: K single-antenna users, N base-station antennas."""

    users: int
    antennas: int
    noise_power: float
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
        if not self.noise_power > 0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")
        if not np.isfinite(self.noise_power):
            raise ValueError(f"noise_power must be finite, got {self.noise_power}")
        if self.modulation not in supported_modulations():
            raise UnsupportedModulationError(
                f"unsupported modulation {self.modulation!r}"
            )

    @property
    def snr_db(self) -> float:
        return -10.0 * np.log10(self.noise_power)

    @classmethod
    def from_snr_db(cls, users, antennas, snr_db, modulation="qpsk"):
        return cls(users, antennas, noise_power_from_snr_db(snr_db), modulation)


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


def draw_noise(config: SystemConfig, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Draw a ``(B, N)`` stack of complex AWGN vectors of power
    ``config.noise_power``, one from each generator in ``rngs``."""
    return draw_noise_direction(config.antennas, rngs) * np.sqrt(config.noise_power / 2.0)


def transmit(
    channel: np.ndarray, symbols: np.ndarray, noise: np.ndarray | None = None
) -> np.ndarray:
    """Analog receive vector channel @ symbols + noise, for one trial
    (``(N, K)``, ``(K,)``, ``(N,)``) or a stack of them; without ``noise``,
    the noiseless channel @ symbols, to which any noise adds the same way."""
    signal = (channel @ symbols[..., None])[..., 0]
    return signal if noise is None else signal + noise


def one_bit_quantize(signal: np.ndarray) -> np.ndarray:
    """Componentwise sign of real and imaginary parts; sign(0) = +1.

    Output entries are in {+-1 +- 1j}. Works elementwise on arrays of any
    shape, so sample blocks can be quantized in one call.
    """
    signal = np.asarray(signal)
    return np.where(signal.real >= 0, 1.0, -1.0) + 1j * np.where(
        signal.imag >= 0, 1.0, -1.0
    )
