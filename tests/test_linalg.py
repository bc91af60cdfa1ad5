"""Tests for the complex Hermitian solve and elementwise arcsine kernels."""

import ctypes
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from onebit_mimo import linalg
from onebit_mimo.errors import ArcsinDomainError, NotPositiveDefiniteError
from onebit_mimo.linalg import diagonal, elementwise_arcsin, hermitian_solve


#: The highest order ``hermitian_solve`` hands to numpy's gufuncs; above it
#: each slice of a complex stack goes through one call of LAPACK's zposv.
GUFUNC_MAX_ORDER = 8


def random_hpd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + np.eye(n)


class TestHermitianSolve:
    def test_identity(self):
        b = np.array([[1.0], [1j]])
        x = hermitian_solve(np.eye(2), b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_diagonal_scaling(self):
        m = np.array([[2.0, 0.0], [0.0, 2.0]])
        b = np.array([[4.0], [2j]])
        x = hermitian_solve(m, b)
        np.testing.assert_allclose(x, np.array([[2.0], [1j]]), atol=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(0)
        m = random_hpd(rng, 8)
        b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        x = hermitian_solve(m, b)
        residual = np.abs(m @ x - b).max()
        assert residual <= 1e-8 * np.abs(b).max()

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(1)
        m = random_hpd(rng, 12)
        x0 = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        x = hermitian_solve(m, m @ x0)
        assert np.abs(x - x0).max() <= 1e-8 * np.abs(x0).max()

    def test_vector_rhs(self):
        rng = np.random.default_rng(2)
        m = random_hpd(rng, 5)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = hermitian_solve(m, b)
        np.testing.assert_allclose(m @ x, b, atol=1e-10)

    @pytest.mark.parametrize("leading", [3, 4])
    def test_rejects_extra_rhs_axis(self, leading):
        # A (3, 3) matrix has no stack axis, so a (leading, 3, 2) right side
        # is not one of its solves, whatever its leading size.
        rng = np.random.default_rng(7)
        b = rng.standard_normal((leading, 3, 2))
        with pytest.raises(ValueError, match="incompatible"):
            hermitian_solve(random_hpd(rng, 3), b)

    def test_negative_definite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_solve(-np.eye(3), np.eye(3))

    def test_singular_matrix_that_cholesky_passes_raises(self):
        # Cholesky's last pivot, 2 - (2 / sqrt(2))**2, rounds above zero,
        # but LU's, 2 - 2 * (2 / 2), is exactly zero: the same typed error,
        # not numpy's LinAlgError.
        m = np.array([[2.0, 2.0], [2.0, 2.0]])
        np.linalg.cholesky(m)
        with pytest.raises(NotPositiveDefiniteError, match="Singular"):
            hermitian_solve(m, np.eye(2))


def hpd_stack(rng, batch, n):
    return np.stack([random_hpd(rng, n) for _ in range(batch)])


def cholesky_reference(matrices, rhs):
    """Per-slice cho_factor/cho_solve: the LAPACK kernel's byte oracle."""
    return np.stack(
        [
            cho_solve(cho_factor(m, lower=True, check_finite=False), b, check_finite=False)
            for m, b in zip(matrices, rhs)
        ]
    )


def per_slice_reference(matrices, rhs):
    """The single-matrix solve each kernel's stack replaces, byte for byte:
    ``cho_solve`` above the gufunc cut, and ``np.linalg.solve`` for smaller
    orders and for every order when numpy's LAPACK has no ``zposv``."""
    if np.shape(matrices)[-1] > GUFUNC_MAX_ORDER and linalg._POSV is not None:
        return cholesky_reference(matrices, rhs)
    return np.stack([np.linalg.solve(m, b) for m, b in zip(matrices, rhs)])


def counted_posv(monkeypatch):
    """Patch ``linalg._POSV`` so that each call of its routine is recorded;
    returns the list the calls go to."""
    if linalg._POSV is None:
        pytest.skip("numpy's LAPACK exports no zposv")
    calls = []
    routine = linalg._POSV.routine

    def call(*args):
        calls.append(args)
        return routine(*args)

    monkeypatch.setattr(linalg, "_POSV", linalg._POSV._replace(routine=call))
    return calls


def assert_close_relative(actual, expected, tolerance=1e-12):
    assert np.abs(actual - expected).max() <= tolerance * np.abs(expected).max()


class TestStackedHermitianSolve:
    # Orders 8 and 9 sit on either side of the cut between the kernels.
    ORDERS = [1, 2, 8, 9, 16, 128]

    @pytest.mark.parametrize("n", ORDERS)
    def test_bytes_equal_per_slice_cholesky(self, n):
        self.check_per_slice_bytes(n)

    @pytest.mark.parametrize("n", [9, 16, 128])
    def test_without_posv_every_order_solves_through_the_gufuncs(self, monkeypatch, n):
        monkeypatch.setattr(linalg, "_POSV", None)
        assert linalg.large_order_kernel() == "numpy gufuncs"
        # LU rounds a vector right side unlike a column of a matrix one at
        # large orders, so only matrix right sides are compared by bytes.
        self.check_per_slice_bytes(n, vectors=False)

    @staticmethod
    def check_per_slice_bytes(n, vectors=True):
        rng = np.random.default_rng(n)
        matrices = hpd_stack(rng, 5, n)
        rhs = rng.standard_normal((5, n, 3)) + 1j * rng.standard_normal((5, n, 3))
        x = hermitian_solve(matrices, rhs)
        assert x.shape == rhs.shape
        assert x.dtype == rhs.dtype
        assert x.tobytes() == per_slice_reference(matrices, rhs).tobytes()
        assert_close_relative(x, cholesky_reference(matrices, rhs))
        for i in range(5):
            single = hermitian_solve(matrices[i], rhs[i])
            assert single.tobytes() == x[i].tobytes()
            vector = hermitian_solve(matrices[i], rhs[i, :, 0])
            if vectors:
                assert vector.tobytes() == x[i, :, 0].tobytes()
            assert_close_relative(vector, x[i, :, 0])

    @pytest.mark.parametrize("n", ORDERS)
    def test_lapack_kernel_only_above_the_cut(self, monkeypatch, n):
        # The gufunc kernel never calls LAPACK's zposv; the LAPACK kernel
        # calls it once per slice. A complex matrix with a real right side
        # is a complex system.
        calls = counted_posv(monkeypatch)
        rng = np.random.default_rng(n)
        hermitian_solve(hpd_stack(rng, 5, n), np.ones((5, n, 2)))
        assert len(calls) == (5 if n > GUFUNC_MAX_ORDER else 0)

    @pytest.mark.parametrize("slice_kind", ["semidefinite", "indefinite"])
    @pytest.mark.parametrize(
        "path, n", [("gufuncs", 4), ("zposv", 16), ("no-zposv", 16), ("real", 16)]
    )
    def test_slice_that_does_not_factor_raises(self, monkeypatch, slice_kind, path, n):
        # On every kernel, one slice that does not factor fails the stack;
        # real input goes where complex input of its order goes.
        if path == "zposv" and linalg._POSV is None:
            pytest.skip("numpy's LAPACK exports no zposv")
        if path == "no-zposv":
            monkeypatch.setattr(linalg, "_POSV", None)
        rng = np.random.default_rng(3)
        matrices = hpd_stack(rng, 4, n)
        rhs = rng.standard_normal((4, n, 2)) + 1j * rng.standard_normal((4, n, 2))
        if path == "real":
            matrices, rhs = matrices.real.copy(), rhs.real.copy()
        assert np.isfinite(hermitian_solve(matrices, rhs)).all()
        if slice_kind == "semidefinite":
            matrices[2] = np.diag(np.arange(n, dtype=float))
        else:
            matrices[2] = -matrices[2]
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_solve(matrices, rhs)

    def test_large_order_kernel_names_a_mapped_library_and_its_symbol(self):
        if linalg._POSV is None:
            pytest.skip("numpy's LAPACK exports no zposv")
        library, symbol = linalg.large_order_kernel().split()
        assert symbol in {build[0] for build in linalg._BUILDS}
        if sys.platform.startswith("linux"):
            with open("/proc/self/maps") as maps:
                rows = [line.split(None, 5) for line in maps]
            assert library in {os.path.basename(row[5].strip()) for row in rows if len(row) == 6}

    def test_rejects_mismatched_stack(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="incompatible"):
            hermitian_solve(hpd_stack(rng, 2, 3), np.ones((3, 3, 1)))


def stacked_copy_lapack_solve(matrices, rhss):
    """``linalg._lapack_solve`` as it was before it reused one workspace: it
    copied the whole stack to Fortran order first. Its byte oracle on a
    stack whose every slice factors."""
    posv = linalg._POSV
    factors = np.array(matrices.mT, dtype=complex, order="C")
    solutions = np.array(rhss.mT, dtype=complex, order="C")
    ints = (posv.integer * 3)(*rhss.shape[1:], 0)
    n_at, count_at, info_at = (
        ctypes.addressof(ints) + i * ctypes.sizeof(posv.integer) for i in range(3)
    )
    for index in range(len(factors)):
        posv.routine(b"L", n_at, count_at, factors.ctypes.data + index * factors.strides[0],
                     n_at, solutions.ctypes.data + index * solutions.strides[0], n_at,
                     info_at, 1)
        assert ints[2] == 0
    return solutions.mT


class TestLapackWorkspace:
    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("fails", [False, True], ids=["clean", "one-slice-fails"])
    def test_bytes_equal_the_stacked_copy(self, n, fails):
        if linalg._POSV is None:
            pytest.skip("numpy's LAPACK exports no zposv")
        rng = np.random.default_rng(n)
        matrices = hpd_stack(rng, 4, n)
        if fails:
            matrices[2] = -matrices[2]
        rhs = rng.standard_normal((4, n, 3)) + 1j * rng.standard_normal((4, n, 3))
        before = matrices.copy()
        if fails:
            with pytest.raises(NotPositiveDefiniteError, match="slice 2 "):
                linalg._lapack_solve(matrices, rhs)
        else:
            solutions = linalg._lapack_solve(matrices, rhs)
            assert solutions.tobytes() == stacked_copy_lapack_solve(matrices, rhs).tobytes()
        assert matrices.tobytes() == before.tobytes()


def test_diagonal_is_a_writable_view():
    m = np.zeros((2, 3, 3))
    diagonal(m)[...] += np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(m[1], np.diag([3.0, 4.0, 5.0]))


def two_part_arcsin(matrix):
    """The arcsine of the real and the imaginary parts as two passes, joined
    as ``a + 1j * b``: the one-pass kernel's value oracle."""
    re, im = matrix.real, matrix.imag
    return np.arcsin(np.clip(re, -1.0, 1.0)) + 1j * np.arcsin(np.clip(im, -1.0, 1.0))


def in_band_stack(rng, zeros=False):
    """A (3, 5, 5) complex stack in [-1, 1] with exact +-1 components and
    components inside the rounding band; with ``zeros``, +-0.0 ones too."""
    parts = rng.uniform(-1.0, 1.0, (3, 5, 5, 2))
    flat = parts.reshape(-1)
    flat[::7], flat[1::11] = 1.0, -1.0
    flat[2::13], flat[3::17] = 1.0 + 5e-10, -1.0 - 5e-10
    if zeros:
        flat[4::5], flat[5::19] = 0.0, -0.0
    return parts.view(complex)[..., 0]


class TestElementwiseArcsin:
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_equal_two_part_arcsine_without_zeros(self, seed):
        c = in_band_stack(np.random.default_rng(seed))
        assert (c.view(np.float64) != 0).all()
        assert elementwise_arcsin(c).tobytes() == two_part_arcsin(c).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_values_equal_two_part_arcsine_with_zeros(self, seed):
        # Only the sign of a zero component may differ: ``a + 1j * b`` turns
        # -0.0 into +0.0, the one-pass kernel keeps it.
        c = in_band_stack(np.random.default_rng(seed), zeros=True)
        out, reference = elementwise_arcsin(c), two_part_arcsin(c)
        np.testing.assert_array_equal(out, reference)
        parts, reference_parts = out.view(np.float64), reference.view(np.float64)
        nonzero = c.view(np.float64) != 0
        assert parts[nonzero].tobytes() == reference_parts[nonzero].tobytes()
        np.testing.assert_array_equal(np.signbit(parts), np.signbit(c.view(np.float64)))

    def test_transposed_input_equals_contiguous_input(self):
        c = in_band_stack(np.random.default_rng(3)).mT
        assert not c.flags.c_contiguous
        out = elementwise_arcsin(c)
        assert out.tobytes() == elementwise_arcsin(np.ascontiguousarray(c)).tobytes()

    def test_real_input_equals_complex_input(self):
        r = np.random.default_rng(4).uniform(-1.0, 1.0, (4, 4))
        out = elementwise_arcsin(r)
        assert out.dtype == complex
        assert out.tobytes() == elementwise_arcsin(r.astype(complex)).tobytes()
        scalar = elementwise_arcsin(0.5)
        assert scalar.shape == () and scalar == np.arcsin(0.5)

    def test_identity_maps_to_half_pi(self):
        out = elementwise_arcsin(np.eye(2))
        np.testing.assert_allclose(out, (np.pi / 2) * np.eye(2), rtol=0, atol=0)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(elementwise_arcsin(np.zeros((3, 3))), 0)

    def test_imaginary_part_handled_separately(self):
        out = elementwise_arcsin(np.array([[1j]]))
        np.testing.assert_allclose(out, np.array([[1j * np.pi / 2]]), atol=0)

    def test_clamps_inside_band(self):
        out = elementwise_arcsin(np.array([[1.0 + 5e-10]]))
        assert out[0, 0] == np.arcsin(1.0)

    def test_rejects_outside_band(self):
        with pytest.raises(ArcsinDomainError):
            elementwise_arcsin(np.array([[1.0 + 1e-8]]))
        with pytest.raises(ArcsinDomainError):
            elementwise_arcsin(np.array([[-1.0 - 1e-8 + 0j]]))

    def test_rejects_nan(self):
        with pytest.raises(ArcsinDomainError):
            elementwise_arcsin(np.array([[np.nan]]))

    @pytest.mark.parametrize(
        "entry",
        [0.5 + 0.5j, 1.0 + 1e-9j, -1.0 - 1e-9, 1 + 1e-9 + 1j,
         1.0 + 1.01e-9, -1.0 - 1.01e-9, 0.3 + 1.01e-9j + 1j, 0.3 - 1.01e-9j - 1j,
         0.2 + 1j * np.nan, np.nan + 0.2j, np.inf, -np.inf * 1j],
    )
    def test_domain_decision_of_the_absolute_value_test(self, entry):
        # The test it replaced: every component within 1 + ARCSIN_BAND of 0
        # in absolute value, which a NaN fails. The entry sits among in-band
        # ones, inside the band too, which clipping would change in place.
        matrix = np.array([[0.1 - 0.2j, 1.0 + 5e-10], [entry, -5e-10j - 1j]])
        before = matrix.copy()
        parts = matrix.view(np.float64)
        if (np.abs(parts) <= 1.0 + linalg.ARCSIN_BAND).all():
            elementwise_arcsin(matrix)
        else:
            with pytest.raises(ArcsinDomainError):
                elementwise_arcsin(matrix)
        assert matrix.tobytes() == before.tobytes()

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1.0, max_value=1.0),
                st.floats(min_value=-1.0, max_value=1.0),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_odd_and_bounded(self, pairs):
        c = np.array([re + 1j * im for re, im in pairs])
        out = elementwise_arcsin(c)
        np.testing.assert_array_equal(elementwise_arcsin(-c), -out)
        assert (np.abs(out.real) <= np.pi / 2).all()
        assert (np.abs(out.imag) <= np.pi / 2).all()
