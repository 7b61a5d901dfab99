"""Block-Toeplitz and block-circulant matrices assembled from symbols,
cutting matrices, grid-transfer assembly, and explicit Galerkin products.

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
import scipy.sparse.linalg as spla

from . import smallmat
from .errors import ArgumentError
from .symbol import MatrixTrigPolynomial, coarse_symbol

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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def is_hermitian(self, rtol: float = 1e-12) -> bool:
        dev = abs(self.matrix - self.matrix.conj().T)
        top = dev.max() if dev.nnz else 0.0
        scale = abs(self.matrix).max() if self.matrix.nnz else 0.0
        return top <= rtol * (1.0 + scale)


@dataclass
class GridTransfer:
    """A prolongation operator: symbol, cutting parity, assembled matrix."""

    p: MatrixTrigPolynomial | None
    parity: str
    fine_size: int
    coarse_size: int
    matrix: sp.csr_matrix

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.conj().T @ x

    def prolong(self, y: np.ndarray) -> np.ndarray:
        return self.matrix @ y


def _window_radius(f: MatrixTrigPolynomial) -> int:
    return f.window()[0]


def _shift_matrix(n: int, j: int) -> sp.csr_matrix:
    """J_n^(j): 1 at (i, k) when i - k = j."""
    rows = np.arange(max(0, j), min(n, n + j))
    return sp.csr_matrix((np.ones(len(rows)), (rows, rows - j)), shape=(n, n))


def _cyclic_shift_matrix(n: int, j: int) -> sp.csr_matrix:
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows - j) % n)), shape=(n, n))


def assemble_toeplitz(f: MatrixTrigPolynomial, n: int) -> BlockStructuredMatrix:
    """Block-Toeplitz matrix of f with n block rows (size d*n).

    The block at block position (i, k) is the coefficient at i - k, so
    the coefficient at +1 fills the first block subdiagonal.
    """
    if f.m != 1:
        raise ArgumentError("assemble_toeplitz needs a univariate symbol")
    w = _window_radius(f)
    if w >= n:
        raise ArgumentError(f"coefficient window {w} must be smaller than n={n}")
    A = sum(sp.kron(_shift_matrix(n, j), c) for (j,), c in f.coeffs.items())
    return BlockStructuredMatrix(TOEPLITZ, f.d, n, sp.csr_matrix(A))


def assemble_circulant(f: MatrixTrigPolynomial, n: int) -> BlockStructuredMatrix:
    """Block-circulant matrix of f with n blocks, by periodic band wrap.

    Coincides with the spectral definition through the Fourier matrix;
    the coefficient window must stay below n/2 so the wrapped band
    represents the symbol without aliasing.
    """
    if f.m != 1:
        raise ArgumentError("assemble_circulant needs a univariate symbol")
    w = _window_radius(f)
    if w >= n / 2:
        raise ArgumentError(f"coefficient window {w} must be below n/2 = {n / 2}")
    A = sum(sp.kron(_cyclic_shift_matrix(n, j), c) for (j,), c in f.coeffs.items())
    return BlockStructuredMatrix(CIRCULANT, f.d, n, sp.csr_matrix(A))


def circulant_eigenvalues(f: MatrixTrigPolynomial, n: int) -> np.ndarray:
    """Multiset of eigenvalues of the block circulant: values of f at the
    Fourier points 2*pi*i/n, concatenated."""
    grid = 2.0 * np.pi * np.arange(n) / n
    vals = f.evaluate_grid(grid)
    return np.concatenate([np.linalg.eigvalsh(v) for v in vals])


def cutting_matrix(n: int, parity: str) -> np.ndarray:
    """Row indices (0-based) kept by the downsampling matrix.

    ``odd`` keeps 1-based rows 1, 3, 5, ... and requires n even
    (k = n/2); ``even`` keeps 1-based rows 2, 4, ... and requires n odd
    (k = (n-1)/2).
    """
    if parity == ODD_ROWS:
        if n % 2 != 0:
            raise ArgumentError(f"odd-row cutting needs even n, got {n}")
        return np.arange(0, n, 2)
    if parity == EVEN_ROWS:
        if n % 2 != 1:
            raise ArgumentError(f"even-row cutting needs odd n, got {n}")
        return np.arange(1, n, 2)
    raise ArgumentError(f"unknown cutting parity {parity!r}")


def cutting_operator(n: int, parity: str) -> sp.csr_matrix:
    """The n-by-k 0/1 selection matrix for :func:`cutting_matrix`."""
    keep = cutting_matrix(n, parity)
    k = len(keep)
    return sp.csr_matrix((np.ones(k), (keep, np.arange(k))), shape=(n, k))


def _block_column_selector(n: int, d: int, parity: str) -> np.ndarray:
    keep = cutting_matrix(n, parity)
    return (keep[:, None] * d + np.arange(d)[None, :]).ravel()


def assemble_transfer(p: MatrixTrigPolynomial, n: int, structure: str) -> GridTransfer:
    """Prolongation: structured matrix of p times the cutting selector.

    Circulant structure takes n even with odd-row cutting; Toeplitz takes
    n odd with even-row cutting, matching the level-size recursions
    n = 2^t and n = 2^t - 1.
    """
    if structure == CIRCULANT:
        if n % 2 != 0:
            raise ArgumentError(f"circulant transfer needs even n, got {n}")
        S = assemble_circulant(p, n)
        parity = ODD_ROWS
    elif structure == TOEPLITZ:
        if n % 2 != 1:
            raise ArgumentError(f"toeplitz transfer needs odd n, got {n}")
        S = assemble_toeplitz(p, n)
        parity = EVEN_ROWS
    else:
        raise ArgumentError(f"unknown structure {structure!r}")
    cols = _block_column_selector(n, p.d, parity)
    P = S.matrix.tocsc()[:, cols].tocsr()
    return GridTransfer(p=p, parity=parity, fine_size=P.shape[0],
                        coarse_size=P.shape[1], matrix=P)


def transfer_from_matrix(P: sp.spmatrix, p: MatrixTrigPolynomial | None = None,
                         parity: str = EVEN_ROWS) -> GridTransfer:
    """Wrap an explicitly assembled prolongation matrix."""
    P = sp.csr_matrix(P)
    return GridTransfer(p=p, parity=parity, fine_size=P.shape[0],
                        coarse_size=P.shape[1], matrix=P)


def has_full_column_rank(P: GridTransfer, tol: float = 1e-10) -> bool:
    """Check full column rank through the Gram determinant (small sizes)."""
    G = (P.matrix.conj().T @ P.matrix).toarray()
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    return bool(w[0] > tol * max(w[-1], 1.0))


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


def toeplitz_coarse_defect(f: MatrixTrigPolynomial, p: MatrixTrigPolynomial,
                           n: int) -> float:
    """Frobenius distance between the Galerkin coarse matrix of T_n(f)
    and the block-Toeplitz matrix of the coarse symbol.

    The identity is exact for circulants; for Toeplitz matrices the
    deviation is a boundary effect that is measured, not asserted.
    """
    A = assemble_toeplitz(f, n)
    P = assemble_transfer(p, n, TOEPLITZ)
    coarse = galerkin(A, P)
    k = (n - 1) // 2
    T = assemble_toeplitz(coarse_symbol(f, p), k)
    return float(spla.norm(coarse.matrix - T.matrix))


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


def projector_idempotency_defect(A: BlockStructuredMatrix, P: GridTransfer) -> float:
    """||pi^2 - pi||_F / max(||pi||_F, 1) for the coarse-grid projector."""
    Ad = A.dense()
    Pd = P.matrix.toarray()
    G = Pd.conj().T @ Ad @ Pd
    pi = Pd @ smallmat.solve(G, Pd.conj().T @ Ad)
    return float(np.linalg.norm(pi @ pi - pi) / max(np.linalg.norm(pi), 1.0))


def fourier_matrix(n: int) -> np.ndarray:
    """F_n with entries e^(-i j theta_i)/sqrt(n), theta_i = 2 pi i / n."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * i * j / n) / np.sqrt(n)


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
        return sp.csr_matrix((vv, (ii, jj)), shape=(rows, cols))
    except ValueError as exc:
        raise ArgumentError(f"bad coordinate file {path}: {exc}") from exc
