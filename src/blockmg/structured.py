"""Block-Toeplitz and block-circulant matrices assembled from univariate
symbols, grid transfers assembled from projector symbols, and explicit
Galerkin products.

One tiler (:func:`_tile`) lays out a symbol's coefficients straight
into CSR order for the block-Toeplitz and block-circulant matrices and
for both stride-2 transfers, circulant and trimmed, of a projector
symbol.  Every FEM transfer is the trimmed one.

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

import numbers
from dataclasses import dataclass, field

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
    block-circulant or neither) is not recorded.

    ``exactly_hermitian`` is True only where A = A^H is known bit for
    bit, set by the code that forms A: FEM assembly, :func:`galerkin` on
    its symmetrized products, :func:`~blockmg.multilevel.kron_sum` on
    sums of two recorded factors, and :meth:`is_hermitian` for a matrix
    from outside.  It is never an argument, and False means unknown.  It is
    the library's one record of Hermiticity: the solver's Hermitian paths
    read it alone, and :func:`galerkin` tests only a matrix without it."""

    matrix: sp.csr_matrix
    exactly_hermitian: bool = field(default=False, init=False, repr=False,
                                    compare=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def is_hermitian(self) -> bool:
        """A = A^H to HERMITIAN_RTOL relative to max |a_ij|, so the
        verdict does not move when A is scaled.  A is put in canonical
        form in place, as ``abs(A)`` puts it, so that duplicate entries
        count summed.  The kernel stores no zero of the deviation
        A - A^H, so an empty one records ``exactly_hermitian``."""
        A = self.matrix
        dev = _csr_binop(csr_minus_csr, _csr(A), _csr_adjoint(_csr(A)))[2]
        self.exactly_hermitian = not dev.size
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
    a product's cost on small levels.  M's arrays must not be replaced
    afterwards."""
    M = M.tocsr()
    return _bind_matvec(csr_matvec, M.shape, M.indptr, M.indices, M.data)


def _bind_matvec(kernel, shape, *arrays):
    """x -> the product of the matrix of ``shape`` stored in ``arrays``
    with a 1-D x, by a ``_sparsetools`` matvec ``kernel`` (``csr_matvec``,
    ``csc_matvec`` or ``dia_matvec``, whose arguments after the shape
    are ``arrays``, the data last) adding into a zeroed output of
    scipy's upcast dtype.  The kernel reads x unchecked, so its shape is
    checked here."""
    n, m = shape
    char = arrays[-1].dtype.char

    def matvec(x):
        if x.shape != (m,):
            raise ArgumentError(f"product of a {n} x {m} matrix with shape {x.shape}")
        y = np.zeros(n, dtype=upcast_char(char, x.dtype.char))
        kernel(n, m, *arrays, x, y)
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


def _is_integer(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_inputs(p: MatrixTrigPolynomial, n, builder: str) -> None:
    """Refuse a multivariate symbol and a block count that is not an integer."""
    if p.m != 1:
        raise ArgumentError(f"{builder} needs a univariate symbol")
    if not _is_integer(n):
        raise ArgumentError(f"block count n must be an integer, got {n!r}")


def _tile(p: MatrixTrigPolynomial, n: int, stride: int = 1, offset: int = 0,
          periodic: bool = False, trim: bool = False) -> sp.csr_matrix:
    """The matrix of n block rows and n/stride block columns with block
    (i, k) = c_{i - stride k - offset} of p, straight into CSR order.

    Block rows stride g .. stride g + stride - 1 form group g, and c_j
    sits in row s = (j + offset) mod stride of every group, at block
    column g + (s - j - offset)/stride.  So one (stride d, .) table of
    the coefficients serves every group: its nonzeros in row-major order,
    tiled over the groups, are the CSR arrays.  ``periodic`` wraps the
    columns (a window of p below n/2 keeps the wrapped blocks apart) and
    then sorts each row; otherwise the entries outside the matrix are
    dropped.  ``trim`` drops the last scalar row and column.  The data is
    real when no coefficient has an imaginary part."""
    d, groups = p.d, n // stride
    j = np.array([k for (k,) in p.coeffs])
    if periodic and (w := int(np.abs(j).max())) >= n / 2:
        raise ArgumentError(f"coefficient window {w} must be below n/2 = {n / 2}")
    coeffs = np.array(list(p.coeffs.values()))
    if not coeffs.imag.any():
        coeffs = coeffs.real
    s = (j + offset) % stride
    shift = (s - j - offset) // stride
    lo = shift.min()
    table = np.zeros((stride, shift.max() - lo + 1, d, d), dtype=coeffs.dtype)
    table[s, shift - lo] = coeffs
    table = table.transpose(0, 2, 1, 3).reshape(stride * d, -1)
    row, col = np.nonzero(table)
    g = np.arange(groups)[:, None]
    fine = (stride * d * g + row).ravel()
    coarse = (d * (g + lo) + col).ravel()
    rows, cols = d * n - trim, d * groups - trim
    if periodic:
        keep = slice(None)
        coarse %= cols
    else:
        keep = (coarse >= 0) & (coarse < cols) & (fine < rows)
    indptr = np.zeros(rows + 1, dtype=fine.dtype)
    np.cumsum(np.bincount(fine[keep], minlength=rows), out=indptr[1:])
    # tiled after the count: fewer large arrays alive, 1.5x faster at n = 2^14
    data = np.tile(table[row, col], groups)[keep]
    M = sp.csr_matrix((data, coarse[keep], indptr), shape=(rows, cols))
    if periodic:
        M.sort_indices()
    return M


def assemble_toeplitz(f: MatrixTrigPolynomial, n: int) -> BlockStructuredMatrix:
    """Block-Toeplitz matrix of f with n block rows (size d*n).

    The block at block position (i, k) is the coefficient at i - k, so
    the coefficient at +1 fills the first block subdiagonal.
    """
    _check_inputs(f, n, "assemble_toeplitz")
    w = f.window()[0]
    if w >= n:
        raise ArgumentError(f"coefficient window {w} must be smaller than n={n}")
    return BlockStructuredMatrix(_tile(f, n))


def assemble_circulant(f: MatrixTrigPolynomial, n: int) -> BlockStructuredMatrix:
    """Block-circulant matrix of f with n blocks, by periodic band wrap.

    Coincides with the spectral definition through the Fourier matrix;
    the coefficient window must stay below n/2 so the wrapped band
    represents the symbol without aliasing.
    """
    _check_inputs(f, n, "assemble_circulant")
    return BlockStructuredMatrix(_tile(f, n, periodic=True))


def assemble_transfer(p: MatrixTrigPolynomial, n: int, structure: str) -> GridTransfer:
    """Prolongation of p on n fine blocks, n even, and n/2 coarse blocks,
    tiled from p's row-pair table (:func:`_tile`, stride 2).

    ``circulant`` has block (i, k) = c_{i-2k}, columns wrapped modulo n/2
    (block columns 0, 2, ... of the block-circulant matrix of p).
    ``trimmed`` has block (i, k) = c_{i-2k-1}, less its last scalar row
    and column: the Dirichlet system of size d n - 1 of every FEM transfer.
    """
    if structure not in (CIRCULANT, TRIMMED):
        raise ArgumentError(f"unknown structure {structure!r}")
    _check_inputs(p, n, "assemble_transfer")
    if n < 2 or n % 2 != 0:
        raise ArgumentError(f"{structure} transfer needs an even n >= 2, got {n}")
    if structure == TRIMMED:
        return GridTransfer(_tile(p, n, stride=2, offset=1, trim=True))
    return GridTransfer(_tile(p, n, stride=2, periodic=True))


def galerkin(A: BlockStructuredMatrix, P: GridTransfer) -> BlockStructuredMatrix:
    """Explicit sparse triple product (P^H A) P, symmetrized as
    (C + C^H) / 2 when A is Hermitian, on scipy's CSR kernels.

    For a block-circulant A and a circulant transfer the product is the
    block-circulant matrix of the coarse symbol.  For the trimmed FEM
    pairs there are no boundary terms either: the product of the trimmed
    T_n of f and the trimmed transfer of p is the trimmed T_{n/2} of
    ``coarse_symbol(f, p)``, up to rounding, at every level of a chain.

    A is Hermitian when it records ``exactly_hermitian``, and is tested
    (:meth:`~BlockStructuredMatrix.is_hermitian`) only when it does not.
    A symmetrized product is Hermitian bit for bit, and records it:
    entries (i, j) and (j, i) of C + C^H are c_ij + conj(c_ji) and
    c_ji + conj(c_ij), one sum conjugated, and halving rounds both alike.
    So a chain tests at most its finest matrix: none from FEM assembly.
    """
    if A.size != P.fine_size:
        raise ArgumentError(f"size mismatch: A is {A.size}, P fine side is {P.fine_size}")
    C = _csr_matmat(_csr_matmat(_csr(P.adjoint), _csr(A.matrix)), _csr(P.matrix))
    symmetrize = A.exactly_hermitian or A.is_hermitian()
    if symmetrize:
        C = _csr_binop(csr_plus_csr, C, _csr_adjoint(C))
        np.multiply(C[2], 0.5, out=C[2])
    out = BlockStructuredMatrix(_csr_matrix(C))
    out.exactly_hermitian = bool(symmetrize)
    return out


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
