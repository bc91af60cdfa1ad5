"""Second-order statistics of the one-bit receive chain.

Two linearizations of the quantizer are provided: the additive
quantization-noise model (a fixed gain plus uncorrelated Gaussian
distortion with diagonal covariance), and the Bussgang decomposition,
which is exact to second order and yields the effective channel and
effective noise covariance that the quantization-aware receivers use.

The Bussgang quantities follow the convention in which the quantizer
output carries unit power per complex component, i.e. the raw {+-1 +- 1j}
samples divided by sqrt(2); the combiners are invariant to that positive
scaling, but the statistics here are only consistent with data under it.

Every function acts on the trailing axes: a channel is ``(..., N, K)`` and
a covariance ``(..., N, N)``, so a stack of draws is one call and a single
draw is the stack of one.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import check_noise_power
from .errors import DegenerateCovarianceError
from .linalg import diagonal, elementwise_arcsin, pieces

# Inverse signal-to-quantization-noise ratio of a one-bit quantizer, kept at
# the commonly quoted rounded value rather than 1 - 2/pi.
ALPHA_ONE_BIT = 0.3634


def received_covariance(channel: np.ndarray, noise_power: float) -> np.ndarray:
    """Covariance of the analog receive vector for unit-power symbols."""
    covariance = channel @ channel.conj().mT
    diagonal(covariance)[...] += noise_power
    return covariance


def _diag_or_raise(received_cov):
    entries = diagonal(received_cov).real
    # Written so that a NaN entry fails it too.
    if not ((entries > 0) & (entries < np.inf)).all():
        raise DegenerateCovarianceError(
            "received covariance has a non-finite or non-positive diagonal entry"
        )
    return entries


def effective_noise_covariance(received_cov, noise_power) -> np.ndarray:
    """Covariance of the effective noise in the linearized quantized model.

    (2/pi) * [arcsin(C) - C + noise_power * diag(received_cov)^(-1)] with
    C the diagonally normalized received covariance and arcsin applied
    separately to the real and imaginary part of each entry.
    """
    power = _diag_or_raise(received_cov)
    inv_sqrt = 1.0 / np.sqrt(power)
    normalized = received_cov * (inv_sqrt[..., :, None] * inv_sqrt[..., None, :])
    # The normalized diagonal is identically 1; pin it so rounding one ulp
    # below 1 cannot be amplified by the infinite arcsine slope there.
    diagonal(normalized)[...] = 1.0
    # In place: elementwise_arcsin returns a fresh array.
    noise = elementwise_arcsin(normalized)
    noise -= normalized
    diagonal(noise)[...] += noise_power * (1.0 / power)
    noise *= 2.0 / np.pi
    return noise


class AqnmParameters(NamedTuple):
    """Gain and distortion covariance of the additive quantization-noise model."""

    alpha: float
    kappa: float
    #: Diagonal of the (diagonal) distortion covariance, ``(..., N)``.
    sigma_q: np.ndarray


def aqnm_covariance(stats: "QuantizedStatistics") -> AqnmParameters:
    """AQNM parameters of a draw: alpha, kappa = 1 - alpha, and the diagonal
    of the distortion covariance, alpha * kappa * diag(received_cov), read
    off the power diagonal of its :class:`QuantizedStatistics`, so that the
    N x N covariance need not be formed."""
    alpha = ALPHA_ONE_BIT
    kappa = 1.0 - alpha
    return AqnmParameters(alpha, kappa, alpha * kappa * stats.power)


class QuantizedStatistics:
    """Per-channel-draw statistics shared by the quantization-aware receivers.

    For one draw or a stack, the ``(..., N)`` power diagonal of the received
    covariance, the Bussgang gain (sqrt(2/pi) / sqrt(power)) and the
    effective channel A = diag(gain) @ channel are computed at construction.
    The covariance of the quantizer output, the effective noise covariance
    and the received covariance itself are computed on first access and
    cached. Pass ``received_cov`` to substitute an approximate covariance
    (e.g. its large-user-count limit) into all downstream quantities. The
    AQNM-MMSE and WFQ combiners read only the power diagonal (the
    distortion powers); they take HH^H from the channel itself, so a
    substitution reaches them only through ``diag(received_cov)``. A noise
    power that is not finite and positive raises
    :func:`~onebit_mimo.channel.check_noise_power`'s ``ValueError``; a received
    covariance with a diagonal entry that is not (from a NaN channel entry,
    say) raises :class:`~onebit_mimo.errors.DegenerateCovarianceError`.
    """

    def __init__(self, channel, noise_power, received_cov=None):
        self._channel = np.asarray(channel)
        self.noise_power = check_noise_power(float(noise_power))
        if received_cov is None:
            # Formed once to read the power diagonal off, then overwritten by
            # output_cov; received_cov forms its own.
            self._covariance = received_covariance(self._channel, self.noise_power)
            self.power = _diag_or_raise(self._covariance)
        else:
            self._covariance = None
            self.received_cov = np.asarray(received_cov)
            self.power = _diag_or_raise(self.received_cov)
        self.gain = np.sqrt(2.0 / np.pi) / np.sqrt(self.power)
        self.effective_channel = self.gain[..., :, None] * self._channel

    @cached_property
    def received_cov(self) -> np.ndarray:
        return received_covariance(self._channel, self.noise_power)

    @cached_property
    def noise_cov(self) -> np.ndarray:
        return effective_noise_covariance(self.received_cov, self.noise_power)

    @cached_property
    def output_cov(self) -> np.ndarray:
        """Covariance of the quantizer output, A A^H + noise_cov: the matrix
        the quantization-aware MMSE combiner solves with.

        For the draw's own received covariance this is the arcsine law,
        (2/pi) * arcsin(C) with C the normalized received covariance (Van
        Vleck and Middleton, Proc. IEEE 1966), built over the covariance
        formed at construction, in place and one piece of the stack at a
        time. A substituted covariance adds a term to that law, so there it
        is A A^H + noise_cov as written.
        """
        if self._covariance is None:
            a = self.effective_channel
            covariance = a @ a.conj().mT
            covariance += self.noise_cov
            return covariance
        covariance = self._covariance.astype(complex, copy=False)
        self._covariance = None
        n = covariance.shape[-1]
        slices = covariance.reshape(-1, n, n)
        inv_sqrt = (1.0 / np.sqrt(self.power)).reshape(-1, n)
        for part in pieces(len(slices), n):
            piece, scale = slices[part], inv_sqrt[part]
            # As effective_noise_covariance normalizes and pins C.
            piece *= scale[:, :, None] * scale[:, None, :]
            diagonal(piece)[...] = 1.0
            piece[...] = elementwise_arcsin(piece)
            piece *= 2.0 / np.pi
        return covariance
