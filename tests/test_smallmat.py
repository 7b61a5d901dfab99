import numpy as np
import pytest

from blockmg import smallmat
from blockmg.errors import DimensionError, SingularMatrixError


def test_eig_2x2_symmetric():
    w, V = smallmat.eig_hermitian([[12.0, 2.0], [2.0, 12.0]])
    np.testing.assert_allclose(w, [10.0, 14.0], atol=1e-12)


def test_eig_rank_one_block():
    # value of the degree-2 stiffness symbol at zero
    M = np.array([[16.0, -16.0], [-16.0, 16.0]]) / 3.0
    w, V = smallmat.eig_hermitian(M)
    np.testing.assert_allclose(w, [0.0, 32.0 / 3.0], atol=1e-12)
    np.testing.assert_allclose(M @ V[:, 0], np.zeros(2), atol=1e-12)


def test_eig_identity():
    w, V = smallmat.eig_hermitian(np.eye(3))
    np.testing.assert_allclose(w, np.ones(3))
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = rng.integers(2, 9)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = A + A.conj().T
        w, V = smallmat.eig_hermitian(H)
        assert w.dtype.kind == "f"
        assert np.all(np.diff(w) >= -1e-12)
        rebuilt = (V * w) @ V.conj().T
        assert np.linalg.norm(rebuilt - H) <= 1e-9 * np.linalg.norm(H)
        assert np.linalg.norm(V.conj().T @ V - np.eye(d)) <= 1e-10


def test_eig_residual_bound():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    H = A + A.T
    w, V = smallmat.eig_hermitian(H)
    for i in range(6):
        res = np.linalg.norm(H @ V[:, i] - w[i] * V[:, i])
        assert res <= 1e-10 * np.linalg.norm(H, 2)


def test_eig_rejects_nonsquare():
    with pytest.raises(DimensionError):
        smallmat.eig_hermitian(np.ones((2, 3)))


def test_solve_identity():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(smallmat.solve(np.eye(2), B), B)


def test_solve_diagonal():
    X = smallmat.solve(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(X, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_corner_sum_inverse():
    # inverse of the corner sum of the degree-2 interpolation symbol at 0
    M = np.array([[12.0, 4.0], [4.0, 12.0]])
    X = smallmat.solve(M, np.eye(2))
    np.testing.assert_allclose(X, np.array([[12.0, -4.0], [-4.0, 12.0]]) / 128.0,
                               atol=1e-14)


def test_solve_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = rng.integers(2, 10)
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M += d * np.eye(d)  # keep well-conditioned
        B = rng.standard_normal((d, 3))
        X = smallmat.solve(M, B)
        assert np.linalg.norm(M @ X - B) <= 1e-9 * np.linalg.norm(B)


def test_solve_singular_carries_pivot():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        smallmat.solve(M, np.eye(2))
    assert err.value.pivot_index is not None


def test_solve_shape_mismatch():
    with pytest.raises(DimensionError):
        smallmat.solve(np.eye(2), np.ones((3, 1)))
