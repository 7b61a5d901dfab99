"""Shared fixtures: reference symbols, random-symbol helpers and the
oracles several test files compare against."""

import numpy as np
import pytest
from hypothesis import strategies as st

from blockmg import MatrixTrigPolynomial


@pytest.fixture
def f_q2():
    """Degree-2 stiffness symbol, hardcoded reference values."""
    a0 = np.array([[16.0, -8.0], [-8.0, 14.0]]) / 3.0
    a1 = np.array([[0.0, -8.0], [0.0, 1.0]]) / 3.0
    return MatrixTrigPolynomial({0: a0, 1: a1, -1: a1.T})


@pytest.fixture
def p_l2():
    """Block form of the scalar linear-interpolation transfer, degree 2."""
    return MatrixTrigPolynomial({
        0: np.array([[1.0, 1.0], [0.0, 2.0]]),
        -1: np.array([[1.0, 0.0], [2.0, 0.0]]),
        1: np.array([[0.0, 1.0], [0.0, 0.0]]),
    })


def random_hermitian_symbol(rng, d, degree, shift_to_psd=False):
    """Random Hermitian matrix trig polynomial, optionally shifted PSD."""
    coeffs = {}
    c0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    coeffs[0] = c0 + c0.conj().T
    for j in range(1, degree + 1):
        cj = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coeffs[j] = cj
        coeffs[-j] = cj.conj().T
    f = MatrixTrigPolynomial(coeffs)
    if shift_to_psd:
        thetas = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        low = min(np.linalg.eigvalsh(v)[0] for v in f.evaluate_grid(thetas))
        coeffs[0] = coeffs[0] + (abs(low) + 0.1) * np.eye(d)
        f = MatrixTrigPolynomial(coeffs)
    return f


def random_symbol(rng, d, degree):
    """Random complex (non-Hermitian) matrix trig polynomial."""
    return MatrixTrigPolynomial({
        j: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for j in range(-degree, degree + 1)})


def max_coeff_difference(f, g) -> float:
    """Largest entry-wise difference between two coefficient windows."""
    keys = set(f.coeffs) | set(g.coeffs)
    zero = np.zeros((f.d, f.d), dtype=complex)
    return max(np.max(np.abs(f.coeffs.get(k, zero) - g.coeffs.get(k, zero)))
               for k in keys)


def has_full_column_rank(P, tol: float = 1e-10) -> bool:
    """Full column rank of a grid transfer through its Gram matrix."""
    G = (P.matrix.conj().T @ P.matrix).toarray()
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    return bool(w[0] > tol * max(w[-1], 1.0))


@st.composite
def symbols(draw, max_m=2):
    """Random symbols with d <= 3 and m <= max_m whose coefficient entries
    are arbitrary finite doubles (signed zeros and subnormals included)."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, max_m))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m),
                         min_size=1, max_size=4, unique=True))
    doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]))
    entries = st.lists(doubles, min_size=2 * d * d, max_size=2 * d * d)
    return MatrixTrigPolynomial(
        {j: np.array(draw(entries)).view(complex).reshape(d, d) for j in keys}, m=m)


def same_bits(a, b) -> bool:
    """Bit-for-bit equality of two float or complex arrays."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
