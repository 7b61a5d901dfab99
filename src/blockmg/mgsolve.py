"""Smoothers, the two-grid step, the V-cycle recursion, hierarchy
construction and the convergence driver.

Each level of a hierarchy binds its kernels on first use: the product
x -> M x, the smoother's correction and, on the coarsest level, the
direct solver.  Every solve runs one recursion over the levels
(:func:`vcycle_step`), and a two-grid cycle is that recursion on a
two-level hierarchy.

Experiment conventions (the literature rarely pins them down): the right
hand side is b = A x* with x* drawn uniformly from [0,1) under a fixed
seed, the initial guess is zero, and iteration counts use the relative
residual ||b - A x|| / ||b||.

Every smoothing sweep on a level of matrix M is x <- x + correct(b - M x),
with the level's correction.  The first sweep of a cycle takes the
residual its caller already holds: on level 0 the one ``solve`` computed
for its stopping test, on a coarse level (started from x = 0) the
restricted residual itself.  Richardson's correction is omega r: a given
omega is checked once against M (below 2/C, or below 2/lambda_max with
lambda_max the largest eigenvalue of the Hermitian part of M, see
:func:`_lambda_max`), and without one each level takes omega = 1/C with
C the Gershgorin bound of its own matrix, inside (0, 2/C) by
construction.  Gauss-Seidel's is (D + L)^{-1} r, and its
backend follows from M alone: with lower bandwidth kd, when the band
storage (kd + 1) N is no larger than nnz(M) (every 1D FEM level), LAPACK
``tbtrs`` applies the banded lower triangle, stored in Fortran order so
that no call copies it; otherwise (2D levels) SuperLU's triangular
solver ``gstrs`` applies tril(M) as it stands, with no factorization
(see :func:`_lower_triangular_solve`).  On a real level, a complex
right-hand side is solved as its real and imaginary parts, by either
smoother backend and by the coarsest-level LU.

The cycle calls two private scipy entry points.  Every sparse product
in it (the residual b - M x of a level, the restriction P^H r and the
prolongation P y) is scipy's CSR kernel ``csr_matvec``
(``scipy.sparse._sparsetools``) bound once to the matrix's own arrays,
by :func:`~blockmg.structured.matvec_kernel`: a level binds its matrix on
first use, a :class:`GridTransfer` its P and P^H when it is built.  It
is the kernel ``M @ x`` runs after its dispatch, so every product is
bit-identical, while the dispatch, some 3 us a call, would be most of
a product's cost on the small levels.  A residual is formed in the
product's own output array, ``np.subtract(b, y, out=y)``, whenever b's
dtype fits it: the arithmetic of ``b - M @ x`` with one allocation
instead of two.  The other entry point is SuperLU's ``gstrs`` above,
called on arrays prepared once, since the public ``spsolve_triangular``
converts and checks its matrix on every call.

A hierarchy checks that its level matrices are finite, and that its
levels of size at most 512 are positive definite from the extreme
eigenvalues of their Hermitian parts, by the same rule: banded LAPACK
(``sbevx``/``hbevx``) on a level whose band storage fits in nnz(M), a
dense ``eigvalsh`` otherwise.  Here the band is max(kl, ku), the larger
of the lower and upper bandwidths, and it fits when
(max(kl, ku) + 1) N <= nnz(M).

The coarsest level (the coarse level of a two-grid cycle) is
solved by LU with partial pivoting, factored once, with the same band
rule: LAPACK ``gbtrf``/``gbtrs`` on a band level (every 1D FEM level),
SuperLU otherwise (2D levels).  Not a banded Cholesky: a level need
only have a positive definite Hermitian part, and a Cholesky of that
part would solve another system.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eig_banded, get_lapack_funcs
from scipy.sparse.linalg._dsolve import _superlu

from .errors import (ArgumentError, ConfigurationError, ConstructionError,
                     NumericalError, SingularMatrixError)
from .structured import (BlockStructuredMatrix, GridTransfer, galerkin,
                         matvec_kernel)

RICHARDSON = "richardson"
GAUSS_SEIDEL = "gauss_seidel"

DEFAULT_SEED = 20240101
DEFAULT_COARSEST = 64


@dataclass
class SmootherSpec:
    """Configuration of the pre/post smoother.

    Richardson damps by ``omega``, which must lie in (0, 2/C) where C
    bounds the spectrum of the level matrix; when it is None, each level
    uses 1/C with C its Gershgorin bound.  Gauss-Seidel is the forward
    lexicographic sweep and takes no parameter.
    """

    kind: str = GAUSS_SEIDEL
    omega: float | None = None
    sweeps_pre: int = 1
    sweeps_post: int = 1

    def __post_init__(self):
        if self.kind not in (RICHARDSON, GAUSS_SEIDEL):
            raise ConfigurationError(f"unknown smoother kind {self.kind!r}")
        if self.omega is not None and not (isinstance(self.omega, numbers.Real)
                                           and math.isfinite(self.omega)):
            raise ConfigurationError(
                f"omega must be a finite real number, got {self.omega!r}")
        for sweeps in (self.sweeps_pre, self.sweeps_post):
            if not (_is_integer(sweeps) and sweeps >= 0):
                raise ConfigurationError(
                    f"sweep counts must be nonnegative integers, got {sweeps!r}")


def _is_integer(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _csr(A):
    if isinstance(A, BlockStructuredMatrix):
        return A.matrix
    if isinstance(A, sp.csr_matrix):
        return A
    return sp.csr_matrix(A)


def gershgorin_bound(A) -> float:
    """Upper bound on the spectrum of a Hermitian matrix: max row abs sum."""
    M = _csr(A)
    return float(np.max(np.abs(M).sum(axis=1))) if M.nnz else 0.0


def _lambda_max(M: sp.csr_matrix) -> float:
    """Largest eigenvalue of the Hermitian part of M: exact from the band
    on a band level, or below size 3 (:func:`_extreme_eigenvalues`), by
    ARPACK ``eigsh`` to 1e-8 relative otherwise."""
    if M.shape[0] < 3 or _lower_band(M, hermitian=True) is not None:
        return float(_extreme_eigenvalues(M)[1])
    H = 0.5 * (M + M.conj().T)
    v0 = np.random.default_rng(7).standard_normal(M.shape[0])
    try:
        return float(spla.eigsh(H, k=1, which="LA", v0=v0, tol=1e-8,
                                return_eigenvectors=False)[0])
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"largest eigenvalue did not converge: {exc}") from exc


def _check_omega(M: sp.csr_matrix, omega: float) -> None:
    if omega <= 0:
        raise ConfigurationError(f"Richardson omega must be positive, got {omega}")
    bound = gershgorin_bound(M)
    if bound > 0 and omega < 2.0 / bound:
        return
    lam_max = _lambda_max(M)
    if 2.0 * omega - omega ** 2 * lam_max <= 0:
        raise ConfigurationError(
            f"omega={omega} outside (0, 2/lambda_max): lambda_max = {lam_max:.6g}")


def _real_split(solve, M):
    """``solve`` for M, extended when M is real to a complex right-hand
    side, whose real and imaginary parts it solves separately."""
    if np.iscomplexobj(M.data):
        return solve

    def split(r):
        if r.dtype.kind == "c":
            return solve(r.real) + 1j * solve(r.imag)
        return solve(r)

    return split


def _bandwidths(M: sp.csr_matrix):
    """The lower and upper bandwidths (kl, ku) of a square CSR M, read in
    O(N) off the first and last stored column of each row."""
    if not M.has_sorted_indices:
        M = M.sorted_indices()
    rows = np.flatnonzero(np.diff(M.indptr))
    kl = np.max(rows - M.indices[M.indptr[rows]], initial=0)
    ku = np.max(M.indices[M.indptr[rows + 1] - 1] - rows, initial=0)
    return int(kl), int(ku)


def _lower_band(M: sp.csr_matrix, hermitian: bool = False):
    """The lower band storage ab[k, j] = M[j + k, j], k = 0..kd, of a
    square M with lower bandwidth kd, when it holds no more than nnz(M)
    entries, (kd + 1) N <= nnz(M); None otherwise.

    With ``hermitian`` the storage is that of the Hermitian part
    (M + M^H)/2, and kd also covers the upper bandwidth of M."""
    n = M.shape[0]
    kl, ku = _bandwidths(M)
    kd = max(kl, ku) if hermitian else kl
    if (kd + 1) * n > M.nnz:
        return None
    # Fortran order: what LAPACK takes without a copy on every call
    ab = np.zeros((kd + 1, n), dtype=np.result_type(M.dtype, float), order="F")
    for k in range(kd + 1):
        ab[k, :n - k] = M.diagonal(-k)
        if hermitian:
            ab[k, :n - k] = 0.5 * (ab[k, :n - k] + np.conj(M.diagonal(k)))
    return ab


def _check_index_width(n: int, nnz: int) -> None:
    """SuperLU indexes with C ``int``: refuse a size or entry count that
    does not fit, rather than let the cast to it wrap."""
    limit = int(np.iinfo(np.intc).max)
    if n > limit or nnz > limit:
        raise ConstructionError(
            f"Gauss-Seidel level of size {n} with {nnz} strictly lower "
            f"entries exceeds SuperLU's index limit {limit}")


def _lower_triangular_solve(M: sp.csr_matrix, diag):
    """r -> tril(M)^{-1} r for a square CSR M with the nonzero diagonal
    ``diag``, by SuperLU's triangular solver on M's own arrays, with no
    factorization.

    SuperLU's L is unit lower triangular and keeps U's diagonal in its
    supernodes.  L passed as the diagonal of M alone and U as the strict
    upper triangle of tril(M)^T, whose CSC arrays are the strictly lower
    CSR arrays of M, give L U = tril(M)^T, and ``trans="T"`` (not "H",
    which would conjugate) solves tril(M) x = r.  A solve returns a new
    array and leaves r untouched."""
    n = M.shape[0]
    rows = np.repeat(np.arange(n, dtype=M.indices.dtype), np.diff(M.indptr))
    strict = M.indices < rows
    # _correction has refused a zero diagonal, so no row is empty
    counts = np.add.reduceat(strict, M.indptr[:-1], dtype=np.intp)
    _check_index_width(n, int(counts.sum()))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intc)
    indices = M.indices[strict].astype(np.intc, copy=False)
    # SuperLU takes floating arrays only: an integer or single-precision
    # level is solved in double precision, as on the band path
    dtype = np.result_type(M.dtype, float)
    data = M.data[strict].astype(dtype, copy=False)
    diag = diag.astype(dtype, copy=False)
    colptr = np.arange(n + 1, dtype=np.intc)
    rowind = colptr[:n]
    gstrs = _superlu.gstrs

    def solve_lower(r):
        x, info = gstrs("T", n, n, diag, rowind, colptr,
                        n, len(data), data, indices, indptr, r)
        if info != 0:
            raise SingularMatrixError(
                f"sparse Gauss-Seidel solve failed: info={info}")
        return x

    return solve_lower


def _correction(M: sp.csr_matrix, spec: SmootherSpec):
    """The map r -> x-correction of one sweep of ``spec`` on M, prepared
    once: omega r for Richardson, (D + L)^{-1} r for forward Gauss-Seidel
    (exact, no pivoting; banded LAPACK or SuperLU's triangular solver,
    see the module docstring)."""
    if spec.kind == RICHARDSON:
        if spec.omega is None:
            omega = richardson_omega_default(M)
        else:
            _check_omega(M, spec.omega)
            omega = spec.omega
        return lambda r: omega * r
    diag = M.diagonal()
    if np.any(diag == 0):
        raise ConfigurationError("Gauss-Seidel needs a nonzero diagonal")
    ab = _lower_band(M)
    if ab is None:
        solve_lower = _lower_triangular_solve(M, diag)
    else:
        tbtrs = get_lapack_funcs("tbtrs", (ab,))

        def solve_lower(r):
            # positional: parsing keywords makes this f2py call a third slower
            y, info = tbtrs(ab, r, "L", "N", "N", 1)
            if info != 0:
                raise SingularMatrixError(
                    f"banded Gauss-Seidel solve failed: info={info}")
            return y

    return _real_split(solve_lower, M)


def _residual_of(product, x, b):
    """b - M x with M x from ``product``, formed in the product's own
    array when b's dtype fits it: the arithmetic of ``b - M @ x`` with
    one allocation instead of two."""
    y = product(x)
    if b.dtype == y.dtype or np.can_cast(b.dtype, y.dtype):
        return np.subtract(b, y, out=y)
    return b - y


def _extreme_eigenvalues(M: sp.csr_matrix):
    """Smallest and largest eigenvalue of the Hermitian part of M: from
    its band (LAPACK ``sbevx``/``hbevx``) when :func:`_lower_band` gives
    one, from the dense matrix otherwise."""
    hb = _lower_band(M, hermitian=True)
    if hb is None:
        H = M.toarray()
        w = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        return w[0], w[-1]
    n = M.shape[0]
    lo, hi = (eig_banded(hb, lower=True, eigvals_only=True, select="i",
                         select_range=(k, k))[0] for k in (0, n - 1))
    return lo, hi


def _coarse_solver(M: sp.csr_matrix):
    """r -> M^{-1} r for the coarsest level M, by LU with partial pivoting:
    LAPACK ``gbtrf``/``gbtrs`` on a band level, whose band storage
    (max(kl, ku) + 1) N fits in nnz(M) (the rule of
    :func:`_extreme_eigenvalues`), SuperLU otherwise."""
    n = M.shape[0]
    kl, ku = _bandwidths(M)
    if (max(kl, ku) + 1) * n > M.nnz:
        try:
            lu = spla.splu(M.tocsc())
        except RuntimeError as exc:
            raise SingularMatrixError(
                f"coarsest-level matrix is singular: {exc}") from exc
        return _real_split(lu.solve, M)
    # ab[kl + ku + i - j, j] = M[i, j]; the top kl rows take the fill of
    # pivoting, and duplicate entries add up in order, as in M.diagonal().
    # bincount sums real weights, so a complex band is filled part by part
    ab = np.zeros((2 * kl + ku + 1, n), dtype=np.result_type(M.dtype, float),
                  order="F")
    flat = ab.reshape(-1, order="F")   # a view: ab is Fortran-ordered
    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    index = kl + ku + rows - M.indices + ab.shape[0] * M.indices
    flat.real = np.bincount(index, M.data.real, minlength=flat.size)
    if np.iscomplexobj(M.data):
        flat.imag = np.bincount(index, M.data.imag, minlength=flat.size)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise SingularMatrixError(
            f"coarsest-level matrix is singular: zero pivot in column {info}")

    def solve(r):
        return gbtrs(lu, kl, ku, r, piv)[0]

    return _real_split(solve, M)


@dataclass
class _Level:
    """A hierarchy level (its transfer None on the coarsest) and the
    kernels the cycle applies to it, each prepared on first use and kept."""

    matrix: BlockStructuredMatrix
    transfer: GridTransfer | None
    smoother: SmootherSpec

    @functools.cached_property
    def product(self):
        return matvec_kernel(self.matrix.matrix)

    @functools.cached_property
    def correct(self):
        return _correction(self.matrix.matrix, self.smoother)

    @functools.cached_property
    def coarse_solve(self):
        return _coarse_solver(self.matrix.matrix)


class MultigridHierarchy:
    """Ordered levels (matrix, transfer, smoother); coarsest solved directly.

    Construction checks the size chain, that every level matrix is
    finite and, on levels of size at most 512, positive definiteness of
    the (Hermitian) level matrices:
    lambda_min > 1e-12 lambda_max, with no floor, so the check does not
    move when a level is scaled; the extreme eigenvalues are
    taken from the band on band levels and from the dense matrix
    elsewhere, by the smoother's rule (see the module docstring).  Where
    coarsening stops is decided by the builders (``build_fem_hierarchy``,
    ``build_2d_hierarchy``); a hierarchy holds the levels it is given.
    """

    def __init__(self, matrices, transfers, smoother: SmootherSpec):
        if len(matrices) != len(transfers) + 1:
            raise ArgumentError("need exactly one transfer per non-coarsest level")
        if not transfers:
            raise ArgumentError("a hierarchy needs at least two levels")
        for ell, T in enumerate(transfers):
            if T.fine_size != matrices[ell].size:
                raise ArgumentError(f"level {ell}: transfer fine size "
                                    f"{T.fine_size} != {matrices[ell].size}")
            if T.coarse_size != matrices[ell + 1].size:
                raise ArgumentError(f"level {ell}: transfer coarse size "
                                    f"{T.coarse_size} != {matrices[ell + 1].size}")
        self.levels = [_Level(A, T, smoother)
                       for A, T in zip(matrices, [*transfers, None])]
        self._check_positive_definite()

    def _check_positive_definite(self):
        for ell, lvl in enumerate(self.levels):
            if not np.isfinite(lvl.matrix.matrix.data).all():
                raise ConfigurationError(f"level {ell} matrix has non-finite entries")
        for ell, lvl in enumerate(self.levels):
            if lvl.matrix.size > 512:
                continue
            lo, hi = _extreme_eigenvalues(lvl.matrix.matrix)
            if lo <= 1e-12 * hi:
                raise ConfigurationError(
                    f"level {ell} matrix is not positive definite "
                    f"(min eigenvalue {lo:.3e})")


def _vectors(lvl: _Level, x, b, name: str):
    """x and b as arrays, checked to be vectors of the level's size."""
    x, b = np.asarray(x), np.asarray(b)
    if x.shape != (lvl.matrix.size,) or b.shape != x.shape:
        raise ArgumentError(f"{name} of size {lvl.matrix.size} given "
                            f"x of shape {x.shape} and b of shape {b.shape}")
    return x, b


def smooth(level: _Level, x, b, sweeps: int, _residual=None):
    """Apply ``sweeps`` sweeps of the smoother of ``level``, one of a
    hierarchy's ``levels``, to M x = b, M the level matrix, from x: x <- x + omega (b - M x) for Richardson,
    x <- x + (D + L)^{-1} (b - M x) for forward Gauss-Seidel.  With no
    sweep the correction is not prepared.  Returns a new array; x and b
    are left untouched.

    ``_residual``, when given, is b - M x for the given x, which the
    first sweep then takes instead of computing it; the sweep may
    overwrite it, so it must be an array the caller gives up.
    """
    x, b = _vectors(level, x, b, "smoothed level")
    if sweeps == 0:
        return x.copy()
    correct, product = level.correct, level.product
    r = _residual if _residual is not None else _residual_of(product, x, b)
    x = x + correct(r)
    for _ in range(sweeps - 1):
        x += correct(_residual_of(product, x, b))
    return x


def vcycle_step(h: MultigridHierarchy, level: int, x, b, _residual=None):
    """One V-cycle starting at ``level``: smooth, restrict, recurse once,
    correct, smooth; the last level is solved directly, so on a
    two-level hierarchy this is the two-grid step.  ``_residual`` is
    b - A x when the caller has it (see :func:`smooth`).  x and b are
    left untouched."""
    lvl = h.levels[level]
    x, b = _vectors(lvl, x, b, f"level {level}")
    if lvl.transfer is None:
        return lvl.coarse_solve(b)
    x = smooth(lvl, x, b, lvl.smoother.sweeps_pre, _residual)
    rc = lvl.transfer.restrict(_residual_of(lvl.product, x, b))
    # from x = 0 the first coarse residual is rc; a copy, since the
    # sweep may overwrite it and rc is still the coarse right-hand side
    y = vcycle_step(h, level + 1, np.zeros(rc.shape, rc.dtype), rc, rc.copy())
    x = x + lvl.transfer.prolong(y)
    return smooth(lvl, x, b, lvl.smoother.sweeps_post)


def tgm_step(A: BlockStructuredMatrix, P: GridTransfer, x, b, spec: SmootherSpec):
    """One two-grid iteration: pre-smooth, exact coarse-grid correction
    through the Galerkin operator P^H A P, post-smooth.

    ``A`` is a :class:`BlockStructuredMatrix`.  The step is
    :func:`vcycle_step` on the two-level hierarchy (A, P^H A P), the
    same code that ``solve(cycle="tgm")`` iterates; the Galerkin product
    and the coarse factorization are rebuilt on every call.
    """
    return vcycle_step(MultigridHierarchy([A, galerkin(A, P)], [P], spec), 0, x, b)


TGM = "tgm"
VCYCLE = "vcycle"

# a solve stops as diverged once the residual grows by more than this
# factor in each of this many consecutive cycles
DIVERGENCE_RATIO = 1.5
DIVERGENCE_RUN = 5


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residuals: list
    converged: bool
    diverged: bool = False

    @property
    def flag(self) -> str:
        if self.diverged:
            return "diverged"
        return "" if self.converged else "noconv"


def detect_divergence(residuals) -> bool:
    """True when the last DIVERGENCE_RUN consecutive residual ratios
    exceed DIVERGENCE_RATIO: the residual grows geometrically."""
    if len(residuals) < DIVERGENCE_RUN + 1:
        return False
    tail = residuals[-(DIVERGENCE_RUN + 1):]
    return all(tail[k + 1] > DIVERGENCE_RATIO * tail[k] for k in range(DIVERGENCE_RUN))


def solve(h: MultigridHierarchy, b, tol: float = 1e-6, max_iter: int = 100,
          cycle: str = VCYCLE) -> SolveResult:
    """Iterate the chosen cycle from x0 = 0 until the relative residual
    drops to ``tol`` or ``max_iter`` is reached.  ``b`` must be a finite
    vector of the finest level's size.

    Both cycles are :func:`vcycle_step`: ``cycle="tgm"`` names the
    two-grid cycle, and needs a two-level hierarchy (built with
    ``two_level=True``).  A residual that is not finite (a cycle that
    overflowed) ends the solve with :class:`NumericalError`, naming the
    cycle."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ArgumentError("tol must be positive and finite")
    if not _is_integer(max_iter):
        raise ArgumentError(f"max_iter must be an integer, got {max_iter!r}")
    if not max_iter >= 1:
        raise ArgumentError("max_iter must be >= 1")
    if cycle not in (TGM, VCYCLE):
        raise ArgumentError(f"unknown cycle {cycle!r}")
    if cycle == TGM and len(h.levels) != 2:
        raise ArgumentError(f"the two-grid cycle needs a two-level hierarchy, "
                            f"got {len(h.levels)} levels")
    b = np.asarray(b)
    A = h.levels[0].matrix.matrix
    if b.shape != (A.shape[0],):
        raise ArgumentError(f"right-hand side of shape {b.shape} for a level of "
                            f"size {A.shape[0]}: need a vector of that size")
    if b.dtype.kind not in "biufc" or not np.isfinite(b).all():
        raise ArgumentError("right-hand side must be numeric and finite")
    # both norms of the stopping test are taken on vectors scaled by the
    # power of two that brings max|b| into [1/2, 1) (at most 2^1022, so
    # the factor is a double): the scaling is exact, and the sum of
    # squares in the norm can neither overflow nor underflow to zero
    scale = 2.0 ** -max(int(np.frexp(np.max(np.abs(b)))[1]), -1022)
    norm_b = float(np.linalg.norm(b * scale))
    x = np.zeros_like(b, dtype=A.dtype if np.iscomplexobj(A.data) else float)
    if norm_b == 0.0:
        return SolveResult(x=x, iterations=0, residuals=[], converged=True)
    residuals = []
    diverged = False
    # the residual of the stopping test starts the next cycle's first
    # sweep; the first is computed there, since b must stay untouched
    r = None
    for it in range(1, max_iter + 1):
        x = vcycle_step(h, 0, x, b, r)
        r = _residual_of(h.levels[0].product, x, b)
        res = float(np.linalg.norm(r * scale)) / norm_b
        if not math.isfinite(res):
            raise NumericalError(f"residual is not finite after cycle {it}")
        residuals.append(res)
        if res <= tol:
            return SolveResult(x=x, iterations=it, residuals=residuals, converged=True)
        if detect_divergence(residuals):
            diverged = True
            break
    return SolveResult(x=x, iterations=len(residuals), residuals=residuals,
                       converged=False, diverged=diverged)


def richardson_omega_default(A) -> float:
    """Default damping 1/C, with C the Gershgorin bound of the matrix A
    standing in for its spectral radius."""
    bound = gershgorin_bound(A)
    if bound <= 0:
        raise ArgumentError("cannot derive a damping parameter from a zero operator")
    return 1.0 / bound

