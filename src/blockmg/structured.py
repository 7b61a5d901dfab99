"""Block-Toeplitz and block-circulant matrices assembled from symbols,
cutting matrices, grid-transfer assembly, and explicit Galerkin products.
Toeplitz matrices, cutting and transfers also take a tuple of sizes,
one per variable of a multilevel symbol.

Matrices are assembled explicitly in sparse form: the target problems
are desk-scale and the Galerkin triple products must be formed exactly.
Block conventions follow the generating-function definition: the block
at block-row i, block-column k is the coefficient at i - k, so the
coefficient at +1 sits on the first block subdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from . import smallmat
from .errors import ArgumentError
from .symbol import MatrixTrigPolynomial

CIRCULANT = "circulant"
TOEPLITZ = "toeplitz"
GENERAL = "general"

ODD_ROWS = "odd"
EVEN_ROWS = "even"


@dataclass
class BlockStructuredMatrix:
    """A sparse matrix with a structure tag.

    ``n`` is the number of blocks for circulant/Toeplitz structure and
    None for general matrices; ``d`` is the block order.
    """

    structure: str
    d: int
    n: int | None
    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def is_hermitian(self, rtol: float = 1e-12) -> bool:
        dev = abs(self.matrix - self.matrix.conj().T)
        top = dev.max() if dev.nnz else 0.0
        scale = abs(self.matrix).max() if self.matrix.nnz else 0.0
        return top <= rtol * (1.0 + scale)


class GridTransfer:
    """A prolongation matrix P and its adjoint P^H, formed once."""

    def __init__(self, matrix: sp.spmatrix):
        self.matrix = sp.csr_matrix(matrix)
        self.adjoint = self.matrix.conj().T.tocsr()

    @property
    def fine_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def coarse_size(self) -> int:
        return self.matrix.shape[1]

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return self.adjoint @ x

    def prolong(self, y: np.ndarray) -> np.ndarray:
        return self.matrix @ y


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


def assemble_toeplitz(f: MatrixTrigPolynomial, n) -> BlockStructuredMatrix:
    """Block-Toeplitz matrix of f with n block rows (size d*n).

    The block at block position (i, k) is the coefficient at i - k, so
    the coefficient at +1 fills the first block subdiagonal.  For an
    m-variable symbol, n is a tuple of m sizes and the term of the
    coefficient at j is kron(J_{n_1}^{j_1}, ..., J_{n_m}^{j_m}, c_j),
    a multilevel matrix tagged general.
    """
    if np.ndim(n) == 0:
        if f.m != 1:
            raise ArgumentError("assemble_toeplitz needs a univariate symbol")
        ns = (n,)
    else:
        ns = tuple(int(k) for k in n)
        if len(ns) != f.m:
            raise ArgumentError(f"symbol has {f.m} variables but {len(ns)} sizes given")
    for w, k in zip(f.window(), ns):
        if w >= k:
            raise ArgumentError(f"coefficient window {w} must be smaller than n={k}")
    A = sp.csr_matrix(sum(
        _kron01(reduce(sp.kron, (_shift_matrix(k, i) for k, i in zip(ns, j))), c)
        for j, c in f.coeffs.items()))
    if np.ndim(n) == 0:
        return BlockStructuredMatrix(TOEPLITZ, f.d, n, A)
    return BlockStructuredMatrix(GENERAL, f.d, None, A)


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
    return BlockStructuredMatrix(CIRCULANT, f.d, n, sp.csr_matrix(A))


def cutting_matrix(n, parity: str) -> np.ndarray:
    """Row indices (0-based) kept by the downsampling matrix.

    ``odd`` keeps 1-based rows 1, 3, 5, ... and requires n even
    (k = n/2); ``even`` keeps 1-based rows 2, 4, ... and requires n odd
    (k = (n-1)/2).  For a tuple of sizes the Kronecker product of the
    per-dimension cuts keeps the rows whose every per-dimension index is
    kept, returned in row-major order.
    """
    if np.ndim(n) > 0:
        ns = tuple(int(k) for k in n)
        if not ns:
            raise ArgumentError("cutting needs at least one dimension")
        mesh = np.meshgrid(*(cutting_matrix(k, parity) for k in ns), indexing="ij")
        return np.ravel_multi_index(tuple(g.ravel() for g in mesh), dims=ns)
    if parity == ODD_ROWS:
        if n % 2 != 0:
            raise ArgumentError(f"odd-row cutting needs even n, got {n}")
        return np.arange(0, n, 2)
    if parity == EVEN_ROWS:
        if n % 2 != 1:
            raise ArgumentError(f"even-row cutting needs odd n, got {n}")
        return np.arange(1, n, 2)
    raise ArgumentError(f"unknown cutting parity {parity!r}")


def assemble_transfer(p: MatrixTrigPolynomial, n, structure: str) -> GridTransfer:
    """Prolongation: structured matrix of p times the cutting selector.

    Circulant structure takes n even with odd-row cutting; Toeplitz takes
    n odd with even-row cutting, matching the level-size recursions
    n = 2^t and n = 2^t - 1.  A Toeplitz transfer of an m-variable
    symbol takes a tuple of m odd sizes.
    """
    if structure == CIRCULANT:
        if np.ndim(n) != 0 or n % 2 != 0:
            raise ArgumentError(f"circulant transfer needs even n, got {n}")
        assemble, parity = assemble_circulant, ODD_ROWS
    elif structure == TOEPLITZ:
        if np.any(np.asarray(n) % 2 != 1):
            raise ArgumentError(f"toeplitz transfer needs odd n, got {n}")
        assemble, parity = assemble_toeplitz, EVEN_ROWS
    else:
        raise ArgumentError(f"unknown structure {structure!r}")
    keep = cutting_matrix(n, parity)
    cols = (keep[:, None] * p.d + np.arange(p.d)[None, :]).ravel()
    return GridTransfer(assemble(p, n).matrix.tocsc()[:, cols].tocsr())


def galerkin(A: BlockStructuredMatrix, P: GridTransfer) -> BlockStructuredMatrix:
    """Explicit sparse triple product P^H A P.

    Circulant inputs stay circulant (the product equals the circulant of
    the coarse symbol); everything else is tagged general since the
    Toeplitz structure only survives up to boundary terms.
    """
    if A.size != P.fine_size:
        raise ArgumentError(f"size mismatch: A is {A.size}, P fine side is {P.fine_size}")
    C = (P.matrix.conj().T @ A.matrix @ P.matrix).tocsr()
    if A.is_hermitian():
        C = ((C + C.conj().T) * 0.5).tocsr()
    if A.structure == CIRCULANT and A.n is not None and A.n % 2 == 0:
        return BlockStructuredMatrix(CIRCULANT, A.d, A.n // 2, C)
    return BlockStructuredMatrix(GENERAL, A.d, None, C)


def coarse_projection_norm(A: BlockStructuredMatrix, P: GridTransfer,
                           tol: float = 1e-8, max_iter: int = 5000) -> float:
    """Spectral norm of the coarse-grid projector P (P^H A P)^-1 P^H A.

    Dense path; sizes are capped at 2048.  The norm is the square root of
    the dominant eigenvalue of pi^H pi, found by power iteration.
    """
    if A.size > 2048:
        raise ArgumentError(f"dense projector norm capped at size 2048, got {A.size}")
    Ad = A.dense()
    Pd = P.matrix.toarray()
    G = Pd.conj().T @ Ad @ Pd
    pi = Pd @ smallmat.solve(G, Pd.conj().T @ Ad)
    M = pi.conj().T @ pi
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        w /= nw
        lam_new = float(np.real(np.conj(w) @ (M @ w)))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            lam = lam_new
            break
        lam, v = lam_new, w
    return float(np.sqrt(max(lam, 0.0)))


def write_coo(path, A: BlockStructuredMatrix) -> None:
    """Coordinate-format text export: header then 1-based (row, col, re, im)."""
    coo = A.matrix.tocoo()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"coo {A.matrix.shape[0]} {A.matrix.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r + 1} {c + 1} {float(v.real)!r} {float(v.imag)!r}\n")


def read_coo(path) -> sp.csr_matrix:
    """Inverse of :func:`write_coo` (returns the bare sparse matrix)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"cannot read coordinate file {path}: {exc}") from exc
    header = lines[0].split() if lines else []
    if len(header) != 4 or header[0] != "coo":
        raise ArgumentError("not a coordinate-format export")
    try:
        rows, cols, nnz = (int(v) for v in header[1:])
    except ValueError as exc:
        raise ArgumentError(f"bad coordinate-file header {lines[0]!r}") from exc
    if len(lines) - 1 < nnz:
        raise ArgumentError(
            f"truncated coordinate file {path}: {len(lines) - 1} of {nnz} entries")
    ii, jj, vv = [], [], []
    for k, line in enumerate(lines[1:nnz + 1], start=2):
        try:
            r, c, re, im = line.split()
            ii.append(int(r) - 1)
            jj.append(int(c) - 1)
            vv.append(complex(float(re), float(im)))
        except ValueError as exc:
            raise ArgumentError(
                f"truncated coordinate file {path}: bad entry on line {k}: {line!r}") from exc
    try:
        return sp.csr_matrix((np.array(vv, dtype=complex), (ii, jj)), shape=(rows, cols))
    except ValueError as exc:
        raise ArgumentError(f"bad coordinate file {path}: {exc}") from exc
