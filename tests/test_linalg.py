import numpy as np
import pytest

from bargtop import NumericalFailure, SingularMatrix
from bargtop.linalg import (
    eig_hermitian_real,
    embed_real,
    solve,
    spectral_norm,
    split_real_linear,
)

from conftest import relerr
from oracles import schur_block_invert


class TestSolve:
    def test_identity(self):
        x = solve(np.eye(2), np.array([[1.0], [1j]]))
        assert np.allclose(x, [[1.0], [1j]])

    def test_scalar(self):
        x = solve(2.0 * np.eye(2), np.eye(2))
        assert np.allclose(x, 0.5 * np.eye(2))

    def test_kernel_system_of_identity_instance(self):
        # critical-point system of the trivial symbol on the model weight
        a = np.diag([0.5, 0.5]).astype(complex)
        x = solve(a, np.array([[1.0], [1.0]]))
        assert np.allclose(x, [[2.0], [2.0]])

    def test_residual_invariant_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
            b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            x = solve(m, b)
            assert spectral_norm(m @ x - b) <= 1e-9 * spectral_norm(b)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


class TestEig:
    def test_zero(self):
        w, _ = eig_hermitian_real(np.zeros((2, 2)))
        assert np.allclose(w, [0.0, 0.0])

    def test_indefinite_diag(self):
        w, _ = eig_hermitian_real(np.diag([1.0, -1.0]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = rng.standard_normal((n, n))
            s = s + s.T
            w, v = eig_hermitian_real(s)
            assert np.all(np.diff(w) >= 0)
            assert relerr(v @ np.diag(w) @ v.T, s) <= 1e-12
            assert spectral_norm(v.T @ v - np.eye(n)) <= 1e-12

    def test_sign_convention_deterministic(self, rng):
        s = rng.standard_normal((5, 5))
        s = s + s.T
        _, v1 = eig_hermitian_real(s)
        _, v2 = eig_hermitian_real(s.copy())
        assert np.array_equal(v1, v2)
        for k in range(5):
            col = v1[:, k]
            j = np.nonzero(np.abs(col) > 1e-12)[0][0]
            assert col[j] > 0

    def test_not_symmetric_raises(self):
        with pytest.raises(NumericalFailure):
            eig_hermitian_real(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSchurBlockInvert:
    def test_identity(self):
        b = schur_block_invert(np.eye(2, dtype=complex), 1)
        assert np.allclose(b, np.eye(2))

    def test_scalar_blocks(self):
        # critical-point matrix of the trivial symbol on the model weight
        b = schur_block_invert(np.diag([0.5, 0.5]).astype(complex), 1)
        assert np.allclose(b, np.diag([2.0, 2.0]))
        assert abs(b[1, 1] - 2.0) < 1e-14

    def test_singular_leading_block(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(SingularMatrix):
            schur_block_invert(a, 1)

    def test_inverse_invariant_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
            a += 3 * np.eye(2 * n)
            b = schur_block_invert(a, n)
            assert spectral_norm(b @ a - np.eye(2 * n)) <= 1e-9 * spectral_norm(a) * spectral_norm(b)
            # trailing block of the inverse must itself be invertible
            assert np.linalg.svd(b[n:, n:], compute_uv=False)[-1] > 1e-10


class TestRealified:
    def test_embed_roundtrip(self, rng):
        n = 3
        w = embed_real(n)
        r = rng.standard_normal(2 * n)
        z = w @ r
        x = r[:n] + 1j * r[n:]
        assert np.allclose(z[:n], x)
        assert np.allclose(z[n:], x.conj())

    def test_split_real_linear(self, rng):
        n = 2
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nn = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # build the realified action of x -> P x + N conj(x)
        cols = []
        for k in range(n):
            e = np.zeros(n, dtype=complex)
            e[k] = 1.0
            cols.append(p @ e + nn @ e)
        for k in range(n):
            e = np.zeros(n, dtype=complex)
            e[k] = 1j
            cols.append(p @ e + nn @ e.conj())
        t = np.stack(cols, axis=1)
        p2, n2 = split_real_linear(t)
        assert relerr(p2, p) <= 1e-12
        assert relerr(n2, nn) <= 1e-12
