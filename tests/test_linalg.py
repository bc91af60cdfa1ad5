"""Tests for the complex Hermitian solve and elementwise arcsine kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from onebit_mimo import linalg
from onebit_mimo.errors import ArcsinDomainError, NotPositiveDefiniteError
from onebit_mimo.linalg import diagonal, elementwise_arcsin, hermitian_solve


#: The highest order ``hermitian_solve`` hands to numpy's gufuncs; above it
#: each slice goes through LAPACK's potrf/potrs.
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

    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(m, np.eye(2))

    def test_rejects_non_hermitian_nan(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(m, np.eye(2))

    def test_negative_definite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_solve(-np.eye(3), np.eye(3))

    def test_jitter_rescues_semidefinite(self):
        # Exactly semi-definite: plain Cholesky fails, the jittered retry
        # succeeds and returns finite values.
        m = np.diag([1.0, 0.0])
        x = hermitian_solve(m, np.array([[1.0], [0.0]]))
        assert np.isfinite(x).all()


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
    ``np.linalg.solve`` up to the gufunc cut, ``cho_solve`` above it."""
    if np.shape(matrices)[-1] > GUFUNC_MAX_ORDER:
        return cholesky_reference(matrices, rhs)
    return np.stack([np.linalg.solve(m, b) for m, b in zip(matrices, rhs)])


def assert_close_relative(actual, expected, tolerance=1e-12):
    assert np.abs(actual - expected).max() <= tolerance * np.abs(expected).max()


class TestStackedHermitianSolve:
    # Orders 8 and 9 sit on either side of the cut between the kernels.
    ORDERS = [1, 2, 8, 9, 16, 128]

    @pytest.mark.parametrize("n", ORDERS)
    def test_bytes_equal_per_slice_cholesky(self, n):
        rng = np.random.default_rng(n)
        matrices = hpd_stack(rng, 5, n)
        rhs = rng.standard_normal((5, n, 3)) + 1j * rng.standard_normal((5, n, 3))
        x = hermitian_solve(matrices, rhs)
        assert x.shape == rhs.shape
        assert x.tobytes() == per_slice_reference(matrices, rhs).tobytes()
        assert_close_relative(x, cholesky_reference(matrices, rhs))
        for i in range(5):
            single = hermitian_solve(matrices[i], rhs[i])
            assert single.tobytes() == x[i].tobytes()
            vector = hermitian_solve(matrices[i], rhs[i, :, 0])
            assert vector.tobytes() == x[i, :, 0].tobytes()

    @pytest.mark.parametrize("n", ORDERS)
    def test_lapack_kernel_only_above_the_cut(self, monkeypatch, n):
        # The gufunc kernel never reaches the per-slice LAPACK solve; the
        # LAPACK kernel runs it once per slice.
        calls = []

        def counting(*args):
            calls.append(args)
            return cholesky_solve(*args)

        cholesky_solve = linalg._cholesky_solve
        monkeypatch.setattr(linalg, "_cholesky_solve", counting)
        rng = np.random.default_rng(n)
        hermitian_solve(hpd_stack(rng, 5, n), np.ones((5, n, 2)))
        assert len(calls) == (5 if n > GUFUNC_MAX_ORDER else 0)

    def test_semidefinite_slice_gets_jitter_others_unchanged(self):
        self.check_semidefinite_slice(3)

    def test_semidefinite_slice_above_the_cut(self):
        self.check_semidefinite_slice(16)

    @staticmethod
    def check_semidefinite_slice(n):
        rng = np.random.default_rng(3)
        matrices = hpd_stack(rng, 4, n)
        rhs = rng.standard_normal((4, n, 2)) + 1j * rng.standard_normal((4, n, 2))
        clean = hermitian_solve(matrices, rhs)
        matrices[2] = np.diag(np.arange(n, dtype=float))
        x = hermitian_solve(matrices, rhs)
        assert np.isfinite(x).all()
        for i in (0, 1, 3):
            assert x[i].tobytes() == clean[i].tobytes()
        # The jittered slice equals a solve of the jittered matrix itself.
        jitter = 1e-10 * matrices[2].trace().real / n
        jittered = matrices[2] + jitter * np.eye(n)
        assert x[2].tobytes() == per_slice_reference([jittered], [rhs[2]])[0].tobytes()
        assert_close_relative(x[2], cholesky_reference([jittered], [rhs[2]])[0])

    def test_indefinite_slice_raises(self):
        self.check_indefinite_slice(4)

    def test_indefinite_slice_above_the_cut_raises(self):
        self.check_indefinite_slice(16)

    @staticmethod
    def check_indefinite_slice(n):
        rng = np.random.default_rng(4)
        matrices = hpd_stack(rng, 3, n)
        matrices[1] = -matrices[1]
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_solve(matrices, np.ones((3, n, 1)))

    def test_non_hermitian_slice_raises(self):
        rng = np.random.default_rng(5)
        matrices = hpd_stack(rng, 3, 4)
        matrices[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(matrices, np.ones((3, 4, 1)))

    def test_rejects_mismatched_stack(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="incompatible"):
            hermitian_solve(hpd_stack(rng, 2, 3), np.ones((3, 3, 1)))


def test_diagonal_is_a_writable_view():
    m = np.zeros((2, 3, 3))
    diagonal(m)[...] += np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(m[1], np.diag([3.0, 4.0, 5.0]))


class TestElementwiseArcsin:
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
