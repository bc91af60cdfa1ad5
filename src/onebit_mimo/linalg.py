"""Dense complex linear-algebra kernels used by the receiver builders.

All receiver formulas written with a matrix inverse are evaluated by
factor-and-solve instead; matrices here are small (at most a few hundred
rows) and always Hermitian positive definite up to rounding. A stack of
order at most 8 (the K x K systems of a few users) is solved by numpy's
stacked gufuncs in one call, since per-call overhead dominates there; a
larger order is factored and solved slice by slice by LAPACK's Cholesky
driver, which is faster per slice. At these sizes BLAS threads cost more
than they save, so sweeps run every loaded OpenBLAS at one thread
(:func:`single_blas_thread`).
"""

import contextlib
import ctypes
import os
import sys

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ArcsinDomainError, NotPositiveDefiniteError

# Max allowed elementwise |M - M^H| before refusing to treat M as Hermitian.
HERMITIAN_TOL = 1e-10
# Band around [-1, 1] tolerated before clamping arcsine arguments.
ARCSIN_BAND = 1e-9
# Relative diagonal jitter for the single retry on a failed factorization.
_JITTER_SCALE = 1e-10
# Largest matrix order solved by numpy's stacked gufuncs; larger stacks are
# factored slice by slice through LAPACK, which is faster per slice there.
_GUFUNC_MAX_ORDER = 8
# (setter, getter) of the thread count, as exported by numpy's ILP64 wheel
# build, scipy's wheel build and a plain OpenBLAS; one library exports one pair.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def hermitian_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for a stack of Hermitian positive-definite
    ``(..., n, n)`` matrices and ``(..., n, m)`` or ``(..., n)`` right sides.

    The kernel follows the order n. Up to ``_GUFUNC_MAX_ORDER`` the whole
    stack goes through numpy's gufuncs: one ``np.linalg.cholesky`` call is
    the positive-definite test and one ``np.linalg.solve`` call (LU) the
    solve, since per-call overhead outweighs the arithmetic there. Above it
    each slice goes through one call of LAPACK's ``posv``, which factors it
    by Cholesky and solves as ``scipy.linalg.cho_factor``/``cho_solve`` do.
    Either way a slice that fails the factorization (numerically
    semi-definite input) is retried once with a tiny trace-scaled diagonal
    jitter before :class:`NotPositiveDefiniteError` is raised; the other
    slices are solved as they are. The order alone picks the kernel, so a
    slice solves to the same bytes in a stack of any size. A right side
    with any other shape, such as an extra leading axis, raises
    ``ValueError``.
    """
    matrix = np.asarray(matrix)
    rhs = np.asarray(rhs)
    asymmetry = np.abs(matrix - matrix.conj().mT).max()
    if not asymmetry <= HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^H| = {asymmetry!r} "
            f"exceeds {HERMITIAN_TOL}"
        )
    # The right side is one vector or one matrix per slice, nothing else.
    same_stack = rhs.shape[: matrix.ndim - 1] == matrix.shape[:-1]
    if rhs.ndim not in (matrix.ndim - 1, matrix.ndim) or not same_stack:
        raise ValueError(
            f"incompatible shapes {matrix.shape} and {rhs.shape} for a solve"
        )
    n = matrix.shape[-1]
    matrices = matrix.reshape(-1, n, n)
    rhss = rhs.reshape(len(matrices), n, -1)
    solve = _gufunc_solve if n <= _GUFUNC_MAX_ORDER else _lapack_solve
    solution = solve(matrices, rhss).reshape(rhs.shape)
    if not np.isfinite(solution).all():
        raise NotPositiveDefiniteError("solve produced non-finite entries")
    return solution


def _gufunc_solve(matrices, rhss):
    """:func:`hermitian_solve` of a ``(B, n, n)`` stack in two gufunc calls."""
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        matrices = np.stack([_with_jitter(_positive_definite, m) for m in matrices])
    return np.linalg.solve(matrices, rhss)


def _positive_definite(matrix):
    """``matrix`` if its Cholesky factorization succeeds, else None."""
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    return matrix


def _lapack_solve(matrices, rhss):
    """:func:`hermitian_solve` of a ``(B, n, n)`` stack, one LAPACK ``posv``
    (Cholesky factor and solve) per slice."""
    (posv,) = get_lapack_funcs(("posv",), (matrices, rhss))

    def solve(matrix, rhs):
        _, solution, info = posv(matrix, rhs, lower=True)
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info} of posv")
        return solution if info == 0 else None

    # Stacking the transposes keeps posv's Fortran order in each slice, so
    # later products see the memory layout of a single solve.
    return np.stack([_with_jitter(solve, m, b).T for m, b in zip(matrices, rhss)]).mT


def _with_jitter(attempt, matrix, *args):
    """``attempt(matrix, *args)``; where that is None (the matrix is not
    numerically positive definite), ``attempt`` on the matrix plus
    ``_JITTER_SCALE`` times its mean diagonal on the diagonal, once, before
    :class:`NotPositiveDefiniteError`."""
    result = attempt(matrix, *args)
    if result is None:
        n = matrix.shape[0]
        jitter = _JITTER_SCALE * matrix.trace().real / n
        result = attempt(matrix + jitter * np.eye(n), *args)
        if result is None:
            raise NotPositiveDefiniteError(
                "Cholesky factorization failed even after jitter retry"
            )
    return result


def diagonal(matrix: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a ``(..., n, n)`` stack, ``(..., n)``."""
    return np.einsum("...ii->...i", matrix)


def elementwise_arcsin(matrix: np.ndarray) -> np.ndarray:
    """Arcsine applied separately to the real and imaginary part of each entry.

    Inputs must lie in [-1, 1] up to a rounding band of ``ARCSIN_BAND`` per
    component; entries inside the band are clamped before evaluation.
    Normalized covariances have unit diagonal analytically, but rounding can
    push components slightly past 1.
    """
    # Real and imaginary parts interleaved, one float per component.
    parts = np.ascontiguousarray(matrix, dtype=complex).view(np.float64)
    if not (np.abs(parts) <= 1.0 + ARCSIN_BAND).all():
        raise ArcsinDomainError(
            "entry outside [-1, 1] by more than the rounding band; "
            "input is not a normalized covariance"
        )
    # ascontiguousarray makes a 0-d input 1-d; the reshape undoes that.
    return np.arcsin(np.clip(parts, -1.0, 1.0)).view(complex).reshape(np.shape(matrix))


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    if not sys.platform.startswith("linux"):
        return []
    try:
        with open("/proc/self/maps") as maps:
            rows = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = {row[5].strip() for row in rows if len(row) == 6}
    return sorted(path for path in paths if "openblas" in os.path.basename(path).lower())


def _openblas_thread_calls():
    """``(file name, get_threads, set_threads)`` of each loaded OpenBLAS that
    exports a thread-count setter."""
    calls = []
    for path in _loaded_openblas():
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_CALLS:
            if hasattr(library, setter) and hasattr(library, getter):
                set_threads, get_threads = getattr(library, setter), getattr(library, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                calls.append((os.path.basename(path), get_threads, set_threads))
                break
    return calls


def openblas_threads() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, keyed by file name."""
    return {name: get_threads() for name, get_threads, _ in _openblas_thread_calls()}


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Nothing changes when none is loaded or the system is not Linux. On exit,
    also by exception, each library gets back its previous thread count.
    """
    calls = _openblas_thread_calls()
    previous = [get_threads() for _, get_threads, _ in calls]
    for _, _, set_threads in calls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, _, set_threads), count in zip(calls, previous):
            set_threads(count)


def pin_one_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread for the rest of the process."""
    for _, _, set_threads in _openblas_thread_calls():
        set_threads(1)
