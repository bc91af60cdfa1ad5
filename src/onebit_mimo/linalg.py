"""Dense complex linear-algebra kernels used by the receiver builders.

All receiver formulas written with a matrix inverse are evaluated by
factor-and-solve instead; the systems the receivers form are small (at most
a few hundred rows), Hermitian by construction and positive definite,
except on a degenerate draw, where the solve raises. A stack of order above
8 is factored and solved slice by slice by LAPACK's Cholesky routine
``zposv``, which is faster per slice there. That routine is the one in the
LAPACK numpy itself links (an OpenBLAS in numpy's wheels), bound through
ctypes once at import. Every other stack, the K x K systems of a few users,
is solved by numpy's stacked gufuncs in one call, as is every stack where
no ``zposv`` symbol is found. At these sizes BLAS threads cost more than
they save, so sweeps run numpy's OpenBLAS at one thread
(:func:`set_openblas_threads`); its thread-count calls are bound by the same
lookup as ``zposv``.

The arcsine of the Bussgang statistics runs over a whole ``(B, n, n)``
stack in pieces of at most ``PIECE_ENTRIES`` entries (:func:`pieces`), and
``zposv`` factors each slice in one reused ``n x n`` workspace, so the
temporaries of a stack are one piece's, however many slices it has.
"""

import ctypes
import os
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ArcsinDomainError, NotPositiveDefiniteError

# Band around [-1, 1] tolerated before clamping arcsine arguments.
ARCSIN_BAND = 1e-9
# Entries (512 KiB of complex128) of the largest piece of a stack that one
# elementwise step works on, so that a piece and its temporaries stay inside
# a core's 2 MiB L2 cache.
PIECE_ENTRIES = 2**15
# Largest matrix order solved by numpy's stacked gufuncs; larger stacks are
# factored slice by slice through LAPACK, which is faster per slice there.
_GUFUNC_MAX_ORDER = 8
# (symbol of LAPACK's zposv, its Fortran integer type, setter and getter of
# OpenBLAS's thread count), as exported by numpy's ILP64 wheel build, a plain
# ILP64 OpenBLAS, an LP64 wheel build and a plain OpenBLAS. The first zposv
# and the first thread pair found are used.
_BUILDS = (
    ("scipy_zposv_64_", ctypes.c_int64,
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("zposv_64_", ctypes.c_int64,
     "openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_zposv_", ctypes.c_int32,
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("zposv_", ctypes.c_int32, "openblas_set_num_threads", "openblas_get_num_threads"),
)


class _Posv(NamedTuple):
    """LAPACK's ``zposv`` as a ctypes function, its Fortran integer type, and
    the library file and symbol it was found as."""

    routine: Callable
    integer: type
    library: str
    symbol: str


class _Threads(NamedTuple):
    """OpenBLAS's thread-count setter and getter as ctypes functions, and the
    library file they were found in."""

    set: Callable
    get: Callable
    library: str


class _DlInfo(ctypes.Structure):
    _fields_ = [
        ("dli_fname", ctypes.c_char_p),
        ("dli_fbase", ctypes.c_void_p),
        ("dli_sname", ctypes.c_char_p),
        ("dli_saddr", ctypes.c_void_p),
    ]


def _library_of(function, fallback):
    """File name of the shared library that defines a ctypes ``function``
    (``dladdr``), or ``fallback`` where that cannot be told."""
    info = _DlInfo()
    address = ctypes.cast(function, ctypes.c_void_p)
    try:
        found = ctypes.CDLL(None).dladdr(address, ctypes.byref(info))
    except (AttributeError, OSError):
        return fallback
    if not found or not info.dli_fname:
        return fallback
    return os.path.basename(os.fsdecode(info.dli_fname))


def _bind():
    """``(posv, threads)``: LAPACK's ``zposv`` and the OpenBLAS thread calls
    that numpy's linalg extension can reach, each None where not found.

    The symbols are looked up through the extension's own handle, so they
    come from the LAPACK and OpenBLAS it links, whatever that library's file
    is called.
    """
    try:
        handle = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None, None
    fallback = os.path.basename(_umath_linalg.__file__)
    posv = threads = None
    for symbol, integer, setter, getter in _BUILDS:
        if posv is None and hasattr(handle, symbol):
            routine = getattr(handle, symbol)
            # UPLO, N, NRHS, A, LDA, B, LDB, INFO by address, then the hidden
            # length of the UPLO string.
            routine.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
            routine.restype = None
            posv = _Posv(routine, integer, _library_of(routine, fallback), symbol)
        if threads is None and hasattr(handle, setter) and hasattr(handle, getter):
            set_threads, get_threads = getattr(handle, setter), getattr(handle, getter)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = _Threads(set_threads, get_threads, _library_of(set_threads, fallback))
    return posv, threads


_POSV, _THREADS = _bind()


def large_order_kernel() -> str:
    """What solves orders above 8: the LAPACK library file and
    ``zposv`` symbol, or ``"numpy gufuncs"`` when none was found."""
    return f"{_POSV.library} {_POSV.symbol}" if _POSV else "numpy gufuncs"


def hermitian_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for a stack of Hermitian positive-definite
    ``(..., n, n)`` matrices and ``(..., n, m)`` or ``(..., n)`` right sides.

    The receivers' kernel. Its input is Hermitian, a precondition that is
    not checked: the receivers form each system Hermitian by construction,
    and ``zposv`` reads only the lower triangle, so the upper one of a
    matrix that is not Hermitian is silently ignored there.

    A stack of order above ``_GUFUNC_MAX_ORDER`` goes slice by slice
    through one call each of LAPACK's ``zposv``, which factors by Cholesky
    and solves as ``scipy.linalg.cho_factor``/``cho_solve`` do; the routine
    is the one in the LAPACK numpy links (:func:`large_order_kernel` names
    it). Every other stack goes through numpy's gufuncs: one
    ``np.linalg.cholesky`` call is the positive-definite test and one
    ``np.linalg.solve`` call (LU) the solve. Those are small orders, where
    per-call overhead outweighs the arithmetic, and every order where
    numpy's LAPACK exports no ``zposv``. Either kernel solves every slice or
    raises :class:`NotPositiveDefiniteError` where a slice does not factor
    (numerically semi-definite or indefinite input), as does a solution
    with a non-finite entry. Nothing is retried, so the caller decides what
    such a system means. The order alone picks the kernel, so a slice
    solves to the same bytes in a stack of any size. A matrix that is not a
    stack of square matrices, and a right side with any other shape, such
    as an extra leading axis, raise ``ValueError``.
    """
    matrix = np.asarray(matrix)
    rhs = np.asarray(rhs)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise ValueError(f"matrix of shape {matrix.shape} is not a stack of square matrices")
    # The right side is one vector or one matrix per slice, nothing else.
    same_stack = rhs.shape[: matrix.ndim - 1] == matrix.shape[:-1]
    if rhs.ndim not in (matrix.ndim - 1, matrix.ndim) or not same_stack:
        raise ValueError(
            f"incompatible shapes {matrix.shape} and {rhs.shape} for a solve"
        )
    n = matrix.shape[-1]
    matrices = matrix.reshape(-1, n, n)
    rhss = rhs.reshape(len(matrices), n, -1)
    solve = _lapack_solve if n > _GUFUNC_MAX_ORDER and _POSV else _gufunc_solve
    solution = solve(matrices, rhss).reshape(rhs.shape)
    if not np.isfinite(solution).all():
        raise NotPositiveDefiniteError("solve produced non-finite entries")
    return solution


def pieces(count: int, order: int) -> list[slice]:
    """Consecutive ranges that cover a stack of ``count`` matrices of order
    ``order``, each of at most :data:`PIECE_ENTRIES` entries, or of one
    matrix where one alone has more."""
    step = max(1, PIECE_ENTRIES // max(1, order * order))
    return [slice(first, first + step) for first in range(0, count, step)]


def _gufunc_solve(matrices, rhss):
    """:func:`hermitian_solve`'s kernel for a ``(B, n, n)`` stack in two
    gufunc calls: the solutions, or :class:`NotPositiveDefiniteError` where
    a slice does not factor by Cholesky, or by LU (a singular slice whose
    Cholesky pivots round above zero)."""
    try:
        np.linalg.cholesky(matrices)
        return np.linalg.solve(matrices, rhss)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"a slice does not factor: {exc}") from exc


def _lapack_solve(matrices, rhss):
    """:func:`hermitian_solve`'s kernel for a ``(B, n, n)`` stack,
    one LAPACK ``zposv`` (Cholesky factor and solve) per slice: the
    solutions, or :class:`NotPositiveDefiniteError` at the first slice that
    does not factor."""
    # A C-ordered transpose is its matrix in Fortran order, as zposv reads
    # it. Each slice is copied into one workspace, which zposv overwrites
    # with its factor; the right sides are overwritten with the solutions.
    factor = np.empty(matrices.shape[1:], dtype=complex)
    solutions = np.array(rhss.mT, dtype=complex, order="C")
    # N (also LDA and LDB), NRHS and INFO, in one array.
    ints = (_POSV.integer * 3)(*rhss.shape[1:], 0)
    n_at, count_at, info_at = (
        ctypes.addressof(ints) + i * ctypes.sizeof(_POSV.integer) for i in range(3)
    )
    factor_at = factor.ctypes.data
    solution_at, solution_step = solutions.ctypes.data, solutions.strides[0]
    for index, matrix in enumerate(matrices):
        np.copyto(factor, matrix.mT)
        _POSV.routine(b"L", n_at, count_at, factor_at, n_at,
                      solution_at + index * solution_step, n_at, info_at, 1)
        info = ints[2]
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info} of zposv")
        if info > 0:
            raise NotPositiveDefiniteError(f"slice {index} does not factor by Cholesky")
    # Per-slice Fortran order, as a single zposv call returns its solution.
    return solutions.mT


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
    # Real and imaginary parts interleaved, one float per component, in the
    # one copy that is clipped and then overwritten with the result.
    parts = np.array(matrix, dtype=complex, order="C", ndmin=1).view(np.float64)
    # The test |x| <= 1 + band without an |x| array; a NaN fails it, since
    # max and min return any NaN they meet.
    bound = 1.0 + ARCSIN_BAND
    if not (parts.max(initial=0.0) <= bound and parts.min(initial=0.0) >= -bound):
        raise ArcsinDomainError(
            "entry outside [-1, 1] by more than the rounding band; "
            "input is not a normalized covariance"
        )
    np.clip(parts, -1.0, 1.0, out=parts)
    np.arcsin(parts, out=parts)
    # ndmin makes a 0-d input 1-d; the reshape undoes that.
    return parts.view(complex).reshape(np.shape(matrix))


def openblas_threads() -> dict[str, int]:
    """Current thread count of numpy's OpenBLAS keyed by its file name, or
    ``{}`` where numpy's linalg exposes no OpenBLAS thread calls."""
    return {_THREADS.library: _THREADS.get()} if _THREADS else {}


def set_openblas_threads(count: int) -> int | None:
    """Set numpy's OpenBLAS to ``count`` threads and return its previous
    count, or do nothing and return None where numpy's linalg exposes no
    OpenBLAS thread calls.

    OpenBLAS is called only where its count differs from ``count``. In a
    forked child, whose thread pool OpenBLAS's fork handler shut down, the
    set call starts that pool again even at an unchanged count, and its
    server thread then spins beside the child's work; a child that inherits
    its parent's count of one therefore keeps no thread beyond its own."""
    if _THREADS is None:
        return None
    previous = _THREADS.get()
    if previous != count:
        _THREADS.set(count)
    return previous
