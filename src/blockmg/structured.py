"""Block-Toeplitz and block-circulant matrices assembled from univariate
symbols, grid transfers assembled from projector symbols, and explicit
Galerkin products.

A transfer is the circulant or the trimmed stride-2 block-Toeplitz
matrix of its projector symbol.  The trimmed one, which every FEM
transfer is, is tiled from the symbol's row-pair table straight into
CSR order (:func:`_trimmed_transfer`).

The setup's sparse algebra (the Galerkin product (P^H A) P and its
symmetrization, a transfer's adjoint, the deviation A - A^H of the
Hermitian test) runs on CSR arrays through scipy's ``_sparsetools``
kernels, the ones its operators call, in the same order and with its
index dtype rule: the results are bit-identical to the public
expressions, without an operator dispatch and a matrix constructor per
step.

Matrices are assembled explicitly in sparse form: the target problems
are desk-scale and the Galerkin triple products must be formed exactly.
Block conventions follow the generating-function definition: the block
at block-row i, block-column k is the coefficient at i - k, so the
coefficient at +1 sits on the first block subdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import (csr_matmat, csr_matmat_maxnnz, csr_matvec,
                                       csr_minus_csr, csr_plus_csr, csr_tocsc)
from scipy.sparse._sputils import upcast, upcast_char

from . import smallmat
from .errors import ArgumentError, DimensionError
from .symbol import HERMITIAN_RTOL, MatrixTrigPolynomial

CIRCULANT = "circulant"
TRIMMED = "trimmed"


@dataclass
class BlockStructuredMatrix:
    """A sparse matrix as the solver sees it: its size, dense form and
    Hermitian test.  The structure it was assembled with (block-Toeplitz,
    block-circulant or neither) is not recorded."""

    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def is_hermitian(self) -> bool:
        """A = A^H to HERMITIAN_RTOL relative to max |a_ij|, so the
        verdict does not move when A is scaled.  A is put in canonical
        form in place, as ``abs(A)`` puts it, so that duplicate entries
        count summed."""
        A = self.matrix
        dev = _csr_binop(csr_minus_csr, _csr(A), _csr_adjoint(_csr(A)))[2]
        A.sum_duplicates()
        top = np.abs(dev).max(initial=0.0)
        return top <= HERMITIAN_RTOL * np.abs(A.data[:A.nnz]).max(initial=0.0)


# -- CSR array algebra (see the module docstring) ------------------------------
#
# A CSR matrix here is its arrays and shape, (indptr, indices, data, shape).
# The kernels read their inputs unchecked, so the shapes are checked first.

_INT32_MAX = np.iinfo(np.int32).max


def _csr(M: sp.csr_matrix):
    return M.indptr, M.indices, M.data, M.shape


def _csr_matrix(a) -> sp.csr_matrix:
    indptr, indices, data, shape = a
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _index_cast(arrays, maxval=0):
    """scipy's index dtype for ``arrays`` and a count up to ``maxval``,
    by its ``get_index_dtype`` rule (int64 when an array's dtype does not
    cast to int32 or the count exceeds int32) without that function's
    per-call limits lookup, and the arrays cast to it."""
    fits = maxval <= _INT32_MAX and np.can_cast(np.result_type(*arrays), np.int32)
    idx = np.int32 if fits else np.int64
    return idx, [np.asarray(a, dtype=idx) for a in arrays]


def _cut(indptr, indices, data, shape):
    """A kernel's output cut to its nnz, copied when that leaves room
    unused, so that no matrix keeps the kernel's spare room."""
    nnz = int(indptr[-1])
    if nnz < len(indices):
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return indptr, indices, data, shape


def _csr_matmat(a, b):
    """a @ b: ``csr_matmat_maxnnz``, then ``csr_matmat``, as ``A @ B``
    calls them.  The kernel drops exact zeros, so the output is cut."""
    (ap, aj, ax, (m, k)), (bp, bj, bx, (kb, n)) = a, b
    if k != kb:
        raise DimensionError(f"product of a {m} x {k} and a {kb} x {n} matrix")
    _, arrays = _index_cast((ap, aj, bp, bj))
    maxnnz = csr_matmat_maxnnz(m, n, *arrays)
    idx, (ap, aj, bp, bj) = _index_cast(arrays, maxval=maxnnz)
    indptr = np.empty(m + 1, dtype=idx)
    indices = np.empty(maxnnz, dtype=idx)
    data = np.empty(maxnnz, dtype=upcast(ax.dtype, bx.dtype))
    csr_matmat(m, n, ap, aj, ax, bp, bj, bx, indptr, indices, data)
    return _cut(indptr, indices, data, (m, n))


def _csr_adjoint(a):
    """a^H: ``csr_tocsc``, as ``A.tocsc()`` calls it, with the data
    conjugated when complex (the same bits as conjugating first, as
    ``A.conj().T.tocsr()`` does)."""
    indptr, indices, data, (m, n) = a
    nnz = int(indptr[-1])
    idx, (ap, aj) = _index_cast((indptr, indices), maxval=max(nnz, m))
    out = (np.empty(n + 1, dtype=idx), np.empty(nnz, dtype=idx),
           np.empty(nnz, dtype=upcast(data.dtype)))
    csr_tocsc(m, n, ap, aj, data, *out)
    if out[2].dtype.kind == "c":
        np.conjugate(out[2], out=out[2])
    return (*out, (n, m))


def _csr_binop(kernel, a, b):
    """a + b or a - b by ``csr_plus_csr`` or ``csr_minus_csr``, as
    ``A + B`` calls them (scipy's ``_binopt``)."""
    (ap, aj, ax, (m, n)), (bp, bj, bx, shape) = a, b
    if shape != (m, n):
        raise DimensionError(f"sum of a {m} x {n} and a {shape[0]} x {shape[1]} matrix")
    maxnnz = int(ap[-1]) + int(bp[-1])
    idx, (ap, aj, bp, bj) = _index_cast((ap, aj, bp, bj), maxval=maxnnz)
    indptr = np.empty(m + 1, dtype=idx)
    indices = np.empty(maxnnz, dtype=idx)
    data = np.empty(maxnnz, dtype=upcast(ax.dtype, bx.dtype))
    kernel(m, n, ap, aj, ax, bp, bj, bx, indptr, indices, data)
    return _cut(indptr, indices, data, (m, n))


def matvec_kernel(M: sp.spmatrix):
    """x -> M @ x for a 1-D x, bit for bit, by scipy's ``csr_matvec``
    bound once to the arrays of M (of M.tocsr() if M is stored otherwise).

    It is what ``M @ x`` runs after its dispatch: the kernel adds into a
    zeroed output of scipy's upcast dtype of M and x (``upcast_char``).
    Binding skips the dispatch, some 3 us per product, which is most of
    a product's cost on small levels.  The kernel reads x unchecked, so its shape is checked here;
    M's arrays must not be replaced afterwards."""
    M = M.tocsr()
    n, m = M.shape
    indptr, indices, data = M.indptr, M.indices, M.data
    char = data.dtype.char

    def matvec(x):
        if x.shape != (m,):
            raise ArgumentError(f"product of a {n} x {m} matrix with shape {x.shape}")
        y = np.zeros(n, dtype=upcast_char(char, x.dtype.char))
        csr_matvec(n, m, indptr, indices, data, x, y)
        return y

    return matvec


class GridTransfer:
    """A prolongation matrix P and its adjoint P^H, formed once, with
    their products bound once (:func:`matvec_kernel`)."""

    def __init__(self, matrix: sp.spmatrix):
        self.matrix = sp.csr_matrix(matrix)
        self.adjoint = _csr_matrix(_csr_adjoint(_csr(self.matrix)))
        self._prolong = matvec_kernel(self.matrix)
        self._restrict = matvec_kernel(self.adjoint)

    @property
    def fine_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def coarse_size(self) -> int:
        return self.matrix.shape[1]

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return self._restrict(x)

    def prolong(self, y: np.ndarray) -> np.ndarray:
        return self._prolong(y)


def _shift_matrix(n: int, j: int) -> sp.csr_matrix:
    """J_n^(j): 1 at (i, k) when i - k = j."""
    rows = np.arange(max(0, j), min(n, n + j))
    return sp.csr_matrix((np.ones(len(rows)), (rows, rows - j)), shape=(n, n))


def _cyclic_shift_matrix(n: int, j: int) -> sp.csr_matrix:
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows - j) % n)), shape=(n, n))


def _kron01(S, c: np.ndarray):
    """kron(S, c) for a 0/1 matrix S.  Every product is 1 * x, exact, so
    the overflow numpy's complex product can flag on entries near the
    largest double is spurious and is not raised."""
    with np.errstate(over="ignore"):
        return sp.kron(S, c)


def assemble_toeplitz(f: MatrixTrigPolynomial, n: int) -> BlockStructuredMatrix:
    """Block-Toeplitz matrix of f with n block rows (size d*n).

    The block at block position (i, k) is the coefficient at i - k, so
    the coefficient at +1 fills the first block subdiagonal.
    """
    if f.m != 1:
        raise ArgumentError("assemble_toeplitz needs a univariate symbol")
    w = f.window()[0]
    if w >= n:
        raise ArgumentError(f"coefficient window {w} must be smaller than n={n}")
    A = sum(_kron01(_shift_matrix(n, j), c) for (j,), c in f.coeffs.items())
    return BlockStructuredMatrix(sp.csr_matrix(A))


def assemble_circulant(f: MatrixTrigPolynomial, n: int) -> BlockStructuredMatrix:
    """Block-circulant matrix of f with n blocks, by periodic band wrap.

    Coincides with the spectral definition through the Fourier matrix;
    the coefficient window must stay below n/2 so the wrapped band
    represents the symbol without aliasing.
    """
    if f.m != 1:
        raise ArgumentError("assemble_circulant needs a univariate symbol")
    w = f.window()[0]
    if w >= n / 2:
        raise ArgumentError(f"coefficient window {w} must be below n/2 = {n / 2}")
    A = sum(_kron01(_cyclic_shift_matrix(n, j), c) for (j,), c in f.coeffs.items())
    return BlockStructuredMatrix(sp.csr_matrix(A))


def _trimmed_transfer(p: MatrixTrigPolynomial, n: int) -> sp.csr_matrix:
    """The stride-2 block-Toeplitz matrix of p, block (i, k) = c_{i-2k-1}
    for n fine and n/2 coarse blocks, with its last scalar row and column
    removed, straight into CSR order.

    Fine block rows 2k and 2k+1 form row pair k, and coefficient c_j sits
    in half s = (j+1) mod 2 of every row pair, at the coarse block offset
    (s-1-j)/2 from k.  So one (2d, .) row-pair table of the coefficients
    over the coarse block offsets serves every pair: its nonzeros in
    row-major order, tiled over the n/2 pairs, are the CSR arrays, and
    only the entries that fall outside the matrix near either end are
    dropped.  The data is real when no coefficient has an imaginary part.
    """
    d, half = p.d, n // 2
    j = np.array([k for (k,) in p.coeffs])
    coeffs = np.array(list(p.coeffs.values()))
    if not coeffs.imag.any():
        coeffs = coeffs.real
    s = (j + 1) % 2
    offset = (s - 1 - j) // 2
    lo = offset.min()
    table = np.zeros((2, offset.max() - lo + 1, d, d), dtype=coeffs.dtype)
    table[s, offset - lo] = coeffs
    table = table.transpose(0, 2, 1, 3).reshape(2 * d, -1)
    row, col = np.nonzero(table)
    pairs = np.arange(half)[:, None]
    fine = (2 * d * pairs + row).ravel()
    coarse = (d * (pairs + lo) + col).ravel()
    keep = (coarse >= 0) & (coarse < d * half - 1) & (fine < d * n - 1)
    indptr = np.zeros(d * n, dtype=fine.dtype)
    np.cumsum(np.bincount(fine[keep], minlength=d * n - 1), out=indptr[1:])
    data = np.tile(table[row, col], half)[keep]
    return sp.csr_matrix((data, coarse[keep], indptr), shape=(d * n - 1, d * half - 1))


def assemble_transfer(p: MatrixTrigPolynomial, n: int, structure: str) -> GridTransfer:
    """Prolongation of p on n fine blocks, n even, and n/2 coarse blocks.

    ``circulant`` keeps block columns 0, 2, ... of the block-circulant
    matrix of p.  ``trimmed`` is the stride-2 block-Toeplitz matrix of p
    with its last scalar row and column removed (:func:`_trimmed_transfer`):
    the Dirichlet system of size d n - 1, which every FEM transfer is.
    """
    if structure not in (CIRCULANT, TRIMMED):
        raise ArgumentError(f"unknown structure {structure!r}")
    if p.m != 1:
        raise ArgumentError("assemble_transfer needs a univariate symbol")
    if n < 2 or n % 2 != 0:
        raise ArgumentError(f"{structure} transfer needs an even n >= 2, got {n}")
    if structure == TRIMMED:
        return GridTransfer(_trimmed_transfer(p, n))
    cols = (np.arange(0, n, 2)[:, None] * p.d + np.arange(p.d)).ravel()
    return GridTransfer(assemble_circulant(p, n).matrix.tocsc()[:, cols].tocsr())


def galerkin(A: BlockStructuredMatrix, P: GridTransfer,
             _hermitian: bool | None = None) -> BlockStructuredMatrix:
    """Explicit sparse triple product (P^H A) P, symmetrized as
    (C + C^H) / 2 when A is Hermitian, on scipy's CSR kernels.

    For a block-circulant A and a circulant transfer the product is the
    block-circulant matrix of the coarse symbol.  For the trimmed FEM
    pairs there are no boundary terms either: the product of the trimmed
    T_n of f and the trimmed transfer of p is the trimmed T_{n/2} of
    ``coarse_symbol(f, p)``, up to rounding, at every level of a chain.

    ``_hermitian``, when given, is the verdict of ``A.is_hermitian()``,
    which a Galerkin chain takes once on its finest matrix: every coarser
    level is the symmetrized output of the previous product.
    """
    if A.size != P.fine_size:
        raise ArgumentError(f"size mismatch: A is {A.size}, P fine side is {P.fine_size}")
    C = _csr_matmat(_csr_matmat(_csr(P.adjoint), _csr(A.matrix)), _csr(P.matrix))
    if A.is_hermitian() if _hermitian is None else _hermitian:
        C = _csr_binop(csr_plus_csr, C, _csr_adjoint(C))
        np.multiply(C[2], 0.5, out=C[2])
    return BlockStructuredMatrix(_csr_matrix(C))


def coarse_projection_norm(A: BlockStructuredMatrix, P: GridTransfer) -> float:
    """Spectral norm of the coarse-grid projector P (P^H A P)^-1 P^H A,
    formed densely; sizes are capped at 2048."""
    if A.size > 2048:
        raise ArgumentError(f"dense projector norm capped at size 2048, got {A.size}")
    Ad = A.dense()
    Pd = P.matrix.toarray()
    G = Pd.conj().T @ Ad @ Pd
    pi = Pd @ smallmat.solve(G, Pd.conj().T @ Ad)
    return float(np.linalg.norm(pi, 2))
