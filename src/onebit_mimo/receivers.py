"""The eight linear combiners and the combine/equalize/rescale/detect pipeline.

Combining matrices are K x N (one row per user). Equalization divides each
user's combined sample by the matching diagonal of W @ H (conventional
receivers) or W @ A (quantization-aware receivers, with A the Bussgang
effective channel); because numerator and denominator share any scaling of
W, the detected symbols are invariant to positive rescalings of either the
combiner or the input vector.

Everything acts on the trailing axes: a channel stack ``(..., N, K)`` gives
``(..., K, N)`` combining matrices and detects ``(..., N)`` receive vectors,
one trial per leading index, so a single trial is the stack of one.
Detection reads only a combiner's matrix and denominators, never its kind,
so :func:`detect_pipeline` takes those arrays, and several combiners
stacked along one more leading axis are detected in one pass.

ZF, BZF, MMSE and AQNM-MMSE solve their K x K Gram-type system against the
K x K identity and form the combiner with one stacked matmul, ``S^-1 @ X^H``
(or ``S^-1 @ X^H D^-1``), instead of solving against the N columns of
``X^H``: the cost of a solve grows with its right sides, and K <= N.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bussgang import QuantizedStatistics, aqnm_covariance
from .errors import DegenerateDenominatorError, ZeroVectorError
from .linalg import diagonal, hermitian_solve
from .modulation import Constellation


class ReceiverKind(str, Enum):
    """The eight receivers. ``wfq`` (Mezghani, Khoufi and Nossek, WSA 2007) is
    AQNM-MMSE's combiner, so its rows are AQNM-MMSE's (:data:`SAME_COMBINER`)."""

    MRC = "mrc"
    ZF = "zf"
    MMSE = "mmse"
    AQNM_MMSE = "aqnm-mmse"
    WFQ = "wfq"
    BMRC = "bmrc"
    BZF = "bzf"
    BMMSE = "bmmse"

    def __str__(self):
        return self.value


#: Kinds built from the Bussgang effective channel (and equalized against it).
BUSSGANG_KINDS = frozenset({ReceiverKind.BMRC, ReceiverKind.BZF, ReceiverKind.BMMSE})
#: Kinds whose construction needs the received covariance.
COVARIANCE_KINDS = BUSSGANG_KINDS | {ReceiverKind.AQNM_MMSE, ReceiverKind.WFQ}
#: Kinds whose combiner does not depend on the noise power, so one build
#: serves a channel draw at every grid point.
NOISE_INDEPENDENT_KINDS = frozenset({ReceiverKind.MRC, ReceiverKind.ZF})
#: Kinds whose combiner is another kind's, so one build and one detection
#: serve both. WFQ's matrix kappa*R + alpha*diag(R) (Mezghani, Khoufi and
#: Nossek, "A modified MMSE receiver for quantized MIMO systems", WSA 2007)
#: is kappa times AQNM-MMSE's R + diag(sigma_q)/kappa^2, and detection is
#: invariant to positive scaling of the combiner.
SAME_COMBINER = {ReceiverKind.WFQ: ReceiverKind.AQNM_MMSE}

#: Smallest |w_k x_k| / (|w_k| |x_k|) of a usable equalization denominator.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Combiner:
    """A receiver kind, its ``(..., K, N)`` combining matrices, and the
    ``(..., K)`` per-user equalization denominators (validated at
    construction to lie above ``DENOMINATOR_FLOOR`` times their
    Cauchy-Schwarz bound)."""

    kind: ReceiverKind
    matrix: np.ndarray
    eq_denominators: np.ndarray


def _identity(matrix):
    """The identity as the right side of each slice of a ``(..., K, K)``
    stack, a read-only broadcast view."""
    return np.broadcast_to(np.eye(matrix.shape[-1]), matrix.shape)


def build_combiner(
    kind: ReceiverKind | str,
    channel: np.ndarray,
    noise_power: float,
    stats: QuantizedStatistics | None = None,
) -> Combiner:
    """Build the combining matrix for ``kind`` at each channel of a stack.

    ``stats`` carries the received covariance and Bussgang quantities; it is
    computed on demand when omitted, and should be shared across the
    quantization-aware kinds within a trial. A kind in :data:`SAME_COMBINER`
    gets the matrix and denominators of the kind it maps to. ``kind`` may be
    given by its name, such as ``"mmse"``; an unknown name raises
    ``ValueError``, as does a channel with a non-finite entry, whatever
    the kind. A draw whose combiner system does not factor raises the
    solve's :class:`~onebit_mimo.errors.NotPositiveDefiniteError`, and one
    with a denominator under the floor :class:`DegenerateDenominatorError`.
    """
    kind = ReceiverKind(kind)
    channel = np.asarray(channel)
    # Before any arithmetic, so that a NaN or inf entry raises one error for
    # every kind, and no warning.
    if not np.isfinite(channel).all():
        raise ValueError("channel has a non-finite entry")
    if kind in COVARIANCE_KINDS and stats is None:
        stats = QuantizedStatistics(channel, noise_power)
    # The channel the combiner is built from and equalized against.
    x = stats.effective_channel if kind in BUSSGANG_KINDS else channel
    xh = x.conj().mT
    formula = SAME_COMBINER.get(kind, kind)

    if formula in (ReceiverKind.MRC, ReceiverKind.BMRC):
        matrix = xh
    elif formula in (ReceiverKind.ZF, ReceiverKind.BZF):
        gram = xh @ x
        matrix = hermitian_solve(gram, _identity(gram)) @ xh
    elif formula is ReceiverKind.MMSE:
        m = xh @ x
        diagonal(m)[...] += noise_power
        matrix = hermitian_solve(m, _identity(m)) @ xh
    elif formula is ReceiverKind.AQNM_MMSE:
        # H^H (HH^H + D)^-1 with D = diag(N0 + sigma_q/kappa^2), as the K x K
        # solve (I + H^H D^-1 H)^-1 H^H D^-1 (the push-through identity).
        aqnm = aqnm_covariance(stats)
        loading = noise_power + aqnm.sigma_q / aqnm.kappa**2
        weighted = xh / loading[..., None, :]
        m = weighted @ x
        diagonal(m)[...] += 1.0
        matrix = hermitian_solve(m, _identity(m)) @ weighted
    else:  # ReceiverKind.BMMSE: A^H (A A^H + noise_cov)^-1
        matrix = hermitian_solve(stats.output_cov, x).conj().mT

    denominators = np.einsum("...kn,...nk->...k", matrix, x)
    # |w_k x_k| <= |w_k| |x_k| (Cauchy-Schwarz), so the floor is relative and
    # holds at any noise power; a zero channel column still trips it.
    scale = np.sqrt(np.vecdot(matrix, matrix).real * np.vecdot(x, x, axis=-2).real)
    if not (np.abs(denominators) > DENOMINATOR_FLOOR * scale).all():
        raise DegenerateDenominatorError(
            f"{kind} equalization denominator within {DENOMINATOR_FLOOR} of "
            "zero, relative to its Cauchy-Schwarz bound"
        )
    return Combiner(kind=kind, matrix=matrix, eq_denominators=denominators)


def rescale(equalized: np.ndarray) -> np.ndarray:
    """Scale each trailing-axis vector to squared norm equal to its length,
    the user count K, preserving direction.

    Detection-invariant for PSK constellations; required for QAM, where
    decision regions are not scale-free.
    """
    # The dot products np.linalg.norm takes of a single complex vector, so a
    # stacked trial rounds exactly as it would alone.
    re, im = equalized.real, equalized.imag
    norm = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
    if not (norm > 0).all():
        raise ZeroVectorError("cannot rescale a zero (or non-finite) vector")
    return np.sqrt(equalized.shape[-1]) * (equalized / norm)


def detect(signal: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Symbol-by-symbol nearest-point decision; ties pick the lowest label
    code."""
    distance = np.abs(signal[..., None] - constellation.points)
    return constellation.points[distance.argmin(axis=-1)]


def detect_pipeline(
    received: np.ndarray,
    matrix: np.ndarray,
    eq_denominators: np.ndarray,
    constellation: Constellation,
) -> np.ndarray:
    """Combine -> equalize -> rescale -> detect for each receive vector.

    ``matrix`` and ``eq_denominators`` are a :class:`Combiner`'s, or a stack
    of several combiners' along a leading axis, ``(C, ..., K, N)`` and
    ``(C, ..., K)``, which detects the ``(..., N)`` receive vectors once per
    combiner in one pass. Detection does not depend on the receiver kind.
    """
    # For the zero-forcing kinds the denominators are 1 up to rounding, so
    # the division is a no-op there; dividing uniformly keeps one path.
    equalized = (matrix @ received[..., None])[..., 0] / eq_denominators
    return detect(rescale(equalized), constellation)
