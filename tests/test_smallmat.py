import numpy as np
import pytest

from blockmg import smallmat
from blockmg.errors import DimensionError, SingularMatrixError


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
