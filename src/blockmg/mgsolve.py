"""Smoothers, the two-grid step, the V-cycle recursion, hierarchy
construction and the convergence driver.

:func:`prepare` readies every level once, before the first cycle.
Every solve runs one recursion over the levels (:func:`vcycle_step`),
and a two-grid cycle is that recursion on a two-level hierarchy.

Experiment conventions (the literature rarely pins them down): the right
hand side is b = A x* with x* drawn uniformly from [0,1) under a fixed
seed, the initial guess is zero, and iteration counts use the relative
residual ||b - A x|| / ||b||.

Each smoothing sweep takes an input formed from the current x and b and
returns the next x.  Richardson's input is the residual r = b - M x and
its sweep x <- x + omega r: a given omega is checked once against M
(below 2/C, or below 2/lambda_max with lambda_max the largest eigenvalue
of the Hermitian part of M, see :func:`_lambda_max`), and without one
each level takes omega = 1/C with C the Gershgorin bound of its own
matrix, inside (0, 2/C) by construction.  Forward Gauss-Seidel runs in
splitting form on M = D + L + U (diagonal, strictly lower and strictly
upper triangles): its input is w = b - U x and its sweep
x <- (D + L)^{-1} w.  Since (D + L) x' = w, the residual after a sweep is
b - M x' = w' - w, where w' = b - U x' is the next sweep's input.  So
each residual the cycle needs after a sweep (the restricted one, and
the stopping test of ``solve``) costs one product with U, half of M, and
the stopping test's w' starts the next cycle.  On a coarse level,
started from x = 0, the first input of either smoother is the restricted
residual itself.  Only a residual with no sweep before it (a block of
zero sweeps) takes a product with M.

A Gauss-Seidel level is prepared from one pass over the column offsets
j - i of M's stored entries, which give the bandwidths kl and ku.  When
its band storage, (max(kl, ku) + 1) N entries, is no larger than nnz(M)
(every 1D FEM level), one ``bincount`` fills the lower band and the
upper diagonals, and LAPACK ``tbtrs`` applies the banded lower
triangle, stored in Fortran order so that no call copies it, with a
unit diagonal: D + L = (I + L D^{-1}) D, so the band's columns below the
diagonal are divided by D once, when the sweep is prepared, and each
sweep solves with I + L D^{-1} and divides the result by D.  This takes
the division by D[j] off the sequential chain of forward substitution,
where it bounded the sweep by division latency.  U is then the upper
diagonals in DIA storage.  Otherwise (2D levels) SuperLU's triangular
solver ``gstrs`` applies D + L from the strictly lower CSR arrays, with
no factorization (see :func:`_lower_triangular_solve`), and U is L^H,
applied by ``csc_matvec`` to those same arrays, on a level whose matrix
is known to be Hermitian bit for bit
(:attr:`~blockmg.structured.BlockStructuredMatrix.exactly_hermitian`,
recorded where it is formed); a level without that record keeps a copy
of its strict upper triangle.  Neither solve overwrites its input, which
the residual w' - w still reads.  On a real level, a complex right-hand
side is solved as its real and imaginary parts, by either smoother
backend and by the coarsest-level solver.

The cycle calls private scipy entry points.  Its sparse products (M x,
the restriction P^H r and the prolongation P y) are scipy's CSR kernel
``csr_matvec`` (``scipy.sparse._sparsetools``) bound once to the
matrix's own arrays, by :func:`~blockmg.structured.matvec_kernel`: a
level binds its matrix when it is prepared, a :class:`GridTransfer` its
P and P^H when it is built.  It is the kernel ``M @ x`` runs after its
dispatch, so those products are bit-identical, while the dispatch, some
3 us a call, would be most of a product's cost on the small levels.  The
Gauss-Seidel products with U are ``dia_matvec`` and ``csc_matvec`` from
the same module, bound the same way; on an exactly Hermitian level with
sorted indices, and on a band level, they add in the order of a CSR
product with the strict upper triangle, so they give its bits.  An input
b - K x is formed in the product's own output array,
``np.subtract(b, y, out=y)``, whenever b's dtype fits it: the arithmetic
of ``b - K @ x`` with one allocation instead of two; w' - w is formed in
the spent w.  The last entry point is SuperLU's ``gstrs`` above, called
on arrays prepared once, since the public ``spsolve_triangular``
converts and checks its matrix on every call.

A level is Hermitian to the paths below only by the record
``exactly_hermitian``, set where each level of a FEM hierarchy is formed;
no entry is compared.  A hierarchy checks that its level matrices are
finite, and that its levels of size at most 512 are positive definite
from the extreme eigenvalues of their Hermitian parts: banded LAPACK
(``sbevx``/``hbevx``) on the lower band storage of a recorded level
whose band fits in nnz(M), a dense ``eigvalsh`` of (M + M^H)/2
otherwise.  The largest eigenvalue that bounds a given Richardson omega
is taken from that band too, and by ARPACK elsewhere.

The coarsest level (the coarse level of a two-grid cycle) is factored
once and solved exactly: a recorded level whose band fits (every 1D FEM
level) by banded Cholesky, LAPACK ``pbtrf``/``pbtrs`` on that lower band
storage; every other level (2D levels, and any level without the
record), and a recorded band level on which ``pbtrf`` meets a
nonpositive pivot, by SuperLU's LU with partial pivoting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eig_banded, get_lapack_funcs
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, dia_matvec
from scipy.sparse.linalg._dsolve import _superlu

from .errors import (ArgumentError, ConfigurationError, ConstructionError,
                     NumericalError, SingularMatrixError)
from .structured import (BlockStructuredMatrix, GridTransfer, _bind_matvec,
                         _is_integer, galerkin, matvec_kernel)

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
    lexicographic sweep and refuses an ``omega``.
    """

    kind: str = GAUSS_SEIDEL
    omega: float | None = None
    sweeps_pre: int = 1
    sweeps_post: int = 1

    def __post_init__(self):
        if self.kind not in (RICHARDSON, GAUSS_SEIDEL):
            raise ConfigurationError(f"unknown smoother kind {self.kind!r}")
        if self.omega is not None and not (isinstance(self.omega, numbers.Real)
                                           and not isinstance(self.omega, bool)
                                           and math.isfinite(self.omega)):
            raise ConfigurationError(
                f"omega must be a finite real number, got {self.omega!r}")
        if self.omega is not None and self.kind != RICHARDSON:
            raise ConfigurationError(f"omega sets the richardson smoother, not {self.kind}")
        for sweeps in (self.sweeps_pre, self.sweeps_post):
            if not (_is_integer(sweeps) and sweeps >= 0):
                raise ConfigurationError(
                    f"sweep counts must be nonnegative integers, got {sweeps!r}")


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


def _lambda_max(M: sp.csr_matrix, exactly_hermitian: bool) -> float:
    """Largest eigenvalue of the Hermitian part of M: exact from the band
    of a Hermitian band level (:func:`_hermitian_band`), or below size 3
    (:func:`_extreme_eigenvalues`), by ARPACK ``eigsh`` to 1e-8 relative
    otherwise."""
    hb = _hermitian_band(M, exactly_hermitian)
    if M.shape[0] < 3 or hb is not None:
        return float(_extreme_eigenvalues(M, hb)[1])
    H = 0.5 * (M + M.conj().T)
    v0 = np.random.default_rng(7).standard_normal(M.shape[0])
    try:
        return float(spla.eigsh(H, k=1, which="LA", v0=v0, tol=1e-8,
                                return_eigenvectors=False)[0])
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"largest eigenvalue did not converge: {exc}") from exc


def _check_omega(M: sp.csr_matrix, omega: float, exactly_hermitian: bool) -> None:
    if omega <= 0:
        raise ConfigurationError(f"Richardson omega must be positive, got {omega}")
    bound = gershgorin_bound(M)
    if bound > 0 and omega < 2.0 / bound:
        return
    lam_max = _lambda_max(M, exactly_hermitian)
    # 2 omega - omega^2 lambda_max <= 0 for omega > 0, without the square,
    # which overflows for a large omega
    if omega * lam_max >= 2.0:
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


def _column_offsets(M: sp.csr_matrix):
    """The column offset j - i of every stored entry (i, j) of a square
    CSR M, with its lower and upper bandwidths (kl, ku): no sort, so a
    Galerkin level's unsorted rows cost no copy."""
    rows = np.repeat(np.arange(M.shape[0], dtype=M.indices.dtype), np.diff(M.indptr))
    offsets = np.subtract(M.indices, rows, out=rows)
    return offsets, int(-offsets.min(initial=0)), int(offsets.max(initial=0))


def _band(M: sp.csr_matrix, offsets, kl: int, ku: int):
    """The band of a square CSR M from its column offsets
    (:func:`_column_offsets`), when it holds no more entries than M,
    (max(kl, ku) + 1) N <= nnz(M); None otherwise.

    The band is (low, up): the lower band storage low[k, j] = M[j + k, j],
    k = 0..kl, in Fortran order (what LAPACK takes without a copy on
    every call), and the upper diagonals up[k - 1, j] = M[j - k, j],
    k = 1..ku, in the DIA storage of ``dia_matvec``.  Both are views of
    one array, which one ``bincount`` fills from the entries' positions
    in it, summing duplicate entries; the real and imaginary parts of a
    complex M are filled apart."""
    n = M.shape[0]
    if (max(kl, ku) + 1) * n > M.nnz:
        return None
    split = (kl + 1) * n
    size = split + ku * n
    # positions in M's index dtype when the band fits it: a cast to intp
    # makes the fill slower than kl + ku + 1 M.diagonal calls
    cols = (M.indices if size <= np.iinfo(M.indices.dtype).max
            else M.indices.astype(np.intp))
    offsets = offsets.astype(cols.dtype, copy=False)
    pos = np.where(offsets <= 0, cols * (kl + 1) - offsets,
                   offsets * n + (cols + (split - n)))
    if np.iscomplexobj(M.data):
        band = np.empty(size, dtype=np.result_type(M.data.dtype, float))
        band.real = np.bincount(pos, M.data.real, size)
        band.imag = np.bincount(pos, M.data.imag, size)
    else:
        band = np.bincount(pos, M.data, size)
    return band[:split].reshape((kl + 1, n), order="F"), band[split:].reshape(ku, n)


def _hermitian_band(M: sp.csr_matrix, exactly_hermitian: bool):
    """The lower band storage of M (:func:`_band`) on a level recorded
    ``exactly_hermitian``, when its band fits; None otherwise.  It is the
    band of M's Hermitian part, M itself."""
    if not exactly_hermitian:
        return None
    offsets, kl, ku = _column_offsets(M)
    parts = _band(M, offsets, kl, ku)
    return None if parts is None else parts[0]


def _check_index_width(n: int, nnz: int) -> None:
    """SuperLU indexes with C ``int``: refuse a size or entry count that
    does not fit, rather than let the cast to it wrap."""
    limit = int(np.iinfo(np.intc).max)
    if n > limit or nnz > limit:
        raise ConstructionError(
            f"Gauss-Seidel level of size {n} with {nnz} strictly lower "
            f"entries exceeds SuperLU's index limit {limit}")


def _lower_triangular_solve(n: int, indptr, indices, data, diag):
    """r -> (D + L)^{-1} r for the strictly lower triangle L of an n x n
    matrix, in CSR arrays (indptr, indices, data) of C ``int`` indices,
    and its nonzero diagonal ``diag`` of data's dtype, by SuperLU's
    triangular solver on those arrays, with no factorization.

    SuperLU's L is unit lower triangular and keeps U's diagonal in its
    supernodes.  L passed as the diagonal alone and U as the strict upper
    triangle of (D + L)^T, whose CSC arrays are the strictly lower CSR
    arrays, give L U = (D + L)^T, and ``trans="T"`` (not "H", which would
    conjugate) solves (D + L) x = r.  A solve returns a new array and
    leaves r untouched."""
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


def _triangle(M: sp.csr_matrix, keep, dtype):
    """The CSR arrays, with C ``int`` indices and data of ``dtype``, of
    the entries of M where the mask ``keep`` is set.  Every row of M
    holds an entry (its diagonal is nonzero), as ``reduceat`` needs."""
    counts = np.add.reduceat(keep, M.indptr[:-1], dtype=np.intp)
    _check_index_width(M.shape[0], int(counts.sum()))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intc)
    return (indptr, M.indices[keep].astype(np.intc, copy=False),
            M.data[keep].astype(dtype, copy=False))


def _gauss_seidel(M: sp.csr_matrix, exactly_hermitian: bool):
    """The kernels (upper, solve_lower) of forward Gauss-Seidel on a
    square M = D + L + U in splitting form: x -> U x and
    w -> (D + L)^{-1} w, prepared from one pass over M's column offsets
    (exact, no pivoting; see the module docstring).

    On a band level U is the band's upper diagonals, applied by
    ``dia_matvec``, and (D + L)^{-1} is banded LAPACK with a unit
    diagonal after a one-time column scaling of the band,
    D^{-1} (I + L D^{-1})^{-1} w.  Otherwise (D + L)^{-1} is SuperLU's
    triangular solver on the strictly lower CSR arrays, and U is L^H,
    ``csc_matvec`` on those same arrays, when M is ``exactly_hermitian``,
    else a copy of the strict upper triangle.  Neither solve overwrites
    w, which the residual w' - w still needs."""
    n = M.shape[0]
    offsets, kl, ku = _column_offsets(M)
    parts = _band(M, offsets, kl, ku)
    # LAPACK and SuperLU take floating arrays only: an integer or
    # single-precision level is solved in double precision, as the band is
    dtype = np.result_type(M.dtype, float)
    diag = M.diagonal().astype(dtype, copy=False) if parts is None else parts[0][0]
    if np.any(diag == 0):
        raise ConfigurationError("Gauss-Seidel needs a nonzero diagonal")
    if parts is None:
        lower = _triangle(M, offsets < 0, dtype)
        if exactly_hermitian:
            indptr, indices, data = lower
            upper = _bind_matvec(csc_matvec, M.shape, indptr, indices,
                                 np.conj(data) if data.dtype.kind == "c" else data)
        else:
            upper = _bind_matvec(csr_matvec, M.shape, *_triangle(M, offsets > 0, dtype))
        return upper, _real_split(_lower_triangular_solve(n, *lower, diag), M)
    ab, up = parts
    upper = _bind_matvec(dia_matvec, M.shape, ku, n,
                         np.arange(1, ku + 1, dtype=np.intc), up)
    # D + L = (I + L D^{-1}) D: the columns below the diagonal are
    # divided by it once (no reciprocal, which a subnormal D would
    # overflow), and each sweep solves with a unit diagonal, which
    # tbtrs never reads, then divides by D = ab[0] in one pass.  Row
    # by row: on the Fortran-ordered band, ab[1:] /= ab[0] runs an
    # inner loop of length kd per column, five times slower
    for k in range(1, ab.shape[0]):
        ab[k] /= ab[0]
    tbtrs = get_lapack_funcs("tbtrs", (ab,))

    def solve_lower(w):
        # positional: parsing keywords makes this f2py call a third
        # slower; the last 0 keeps w, which the residual w' - w reads
        y, info = tbtrs(ab, w, "L", "N", "U", 0)
        if info != 0:
            raise SingularMatrixError(
                f"banded Gauss-Seidel solve failed: info={info}")
        y /= ab[0]
        return y

    return upper, _real_split(solve_lower, M)


def _minus(b, product, x):
    """b - K x with K x from ``product``, formed in the product's own
    array when b's dtype fits it: the arithmetic of ``b - K @ x`` with
    one allocation instead of two."""
    y = product(x)
    if b.dtype == y.dtype or np.can_cast(b.dtype, y.dtype):
        return np.subtract(b, y, out=y)
    return b - y


class _Richardson:
    """x <- x + omega r, whose input r = b - M x is the residual."""

    def __init__(self, omega, product):
        self.omega, self.product = omega, product

    def input(self, x, b):
        return _minus(b, self.product, x)

    def sweep(self, x, r):
        return x + self.omega * r

    def residual(self, x, b, r):
        r = _minus(b, self.product, x)
        return r, r


class _GaussSeidel:
    """x <- (D + L)^{-1} w, whose input is w = b - U x: the residual
    after a sweep from w is b - M x' = w' - w, with w' = b - U x' the
    next sweep's input, since (D + L) x' = w."""

    def __init__(self, upper, solve_lower):
        self.upper, self.solve_lower = upper, solve_lower

    def input(self, x, b):
        return _minus(b, self.upper, x)

    def sweep(self, x, w):
        return self.solve_lower(w)

    def residual(self, x, b, w):
        # w is spent, so the difference is formed in its array, unless w
        # is b itself (a coarse level's first input, at x = 0).  Inputs
        # that overflowed give inf - inf = NaN, which solve reports as a
        # residual that is not finite, not as a floating-point warning
        w_next = _minus(b, self.upper, x)
        with np.errstate(invalid="ignore"):
            if w is not b and (w.dtype == w_next.dtype
                               or np.can_cast(w_next.dtype, w.dtype)):
                return np.subtract(w_next, w, out=w), w_next
            return w_next - w, w_next


def _extreme_eigenvalues(M: sp.csr_matrix, hb):
    """Smallest and largest eigenvalue of the Hermitian part of M: from
    the band hb of a Hermitian M (:func:`_hermitian_band`, LAPACK
    ``sbevx``/``hbevx``), from the dense (M + M^H)/2 when hb is None."""
    if hb is None:
        H = M.toarray()
        w = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        return w[0], w[-1]
    n = M.shape[0]
    lo, hi = (eig_banded(hb, lower=True, eigvals_only=True, select="i",
                         select_range=(k, k))[0] for k in (0, n - 1))
    return lo, hi


def _coarse_solver(M: sp.csr_matrix, exactly_hermitian: bool):
    """r -> M^{-1} r for the coarsest level M, factored once: by banded
    Cholesky (LAPACK ``pbtrf``/``pbtrs``) on a band level recorded
    ``exactly_hermitian`` (:func:`_hermitian_band`) that is positive
    definite, by SuperLU's LU with partial pivoting otherwise."""
    ab = _hermitian_band(M, exactly_hermitian)
    if ab is not None:
        pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        c, info = pbtrf(ab, lower=1, overwrite_ab=1)
        # info > 0: a nonpositive pivot, M is not positive definite
        if info == 0:
            # positional, as the band sweep of _gauss_seidel calls tbtrs
            return _real_split(lambda r: pbtrs(c, r, 1)[0], M)
    try:
        lu = spla.splu(M.tocsc())
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"coarsest-level matrix is singular: {exc}") from exc
    return _real_split(lu.solve, M)


@dataclass
class _Level:
    """A hierarchy level (its transfer None on the coarsest) and the
    kernels the cycle applies to it, None until :func:`prepare` sets
    them: the product x -> M x, the smoother and the direct solver."""

    matrix: BlockStructuredMatrix
    transfer: GridTransfer | None
    smoother: SmootherSpec
    product = sweeps = coarse_solve = None   # not fields: set on the instance

    def prepare_smoother(self):
        """Set the product with M where a residual needs it (Richardson,
        or a block of zero sweeps) and, with a sweep, the smoother."""
        M, spec = self.matrix.matrix, self.smoother
        if spec.kind == RICHARDSON or 0 in (spec.sweeps_pre, spec.sweeps_post):
            self.product = matvec_kernel(M)
        if not (spec.sweeps_pre or spec.sweeps_post):
            return
        if spec.kind == GAUSS_SEIDEL:
            self.sweeps = _GaussSeidel(*_gauss_seidel(M, self.matrix.exactly_hermitian))
        elif spec.omega is None:
            self.sweeps = _Richardson(richardson_omega_default(M), self.product)
        else:
            _check_omega(M, spec.omega, self.matrix.exactly_hermitian)
            self.sweeps = _Richardson(spec.omega, self.product)

    def residual(self, x, b, w):
        """b - M x and the input of a sweep from x, where w is the input
        of the sweep that gave x: one product (U for Gauss-Seidel, M for
        Richardson).  With w None (no sweep gave x) the residual takes
        the product with M, and Gauss-Seidel leaves the input to the
        sweep."""
        if w is None:
            r = _minus(b, self.product, x)
            return r, (r if self.smoother.kind == RICHARDSON else None)
        return self.sweeps.residual(x, b, w)


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
        self._prepared = False

    def _check_positive_definite(self):
        for ell, lvl in enumerate(self.levels):
            if not np.isfinite(lvl.matrix.matrix.data).all():
                raise ConfigurationError(f"level {ell} matrix has non-finite entries")
        for ell, lvl in enumerate(self.levels):
            if lvl.matrix.size > 512:
                continue
            M = lvl.matrix.matrix
            lo, hi = _extreme_eigenvalues(
                M, _hermitian_band(M, lvl.matrix.exactly_hermitian))
            if lo <= 1e-12 * hi:
                raise ConfigurationError(
                    f"level {ell} matrix is not positive definite "
                    f"(min eigenvalue {lo:.3e})")


def prepare(h: MultigridHierarchy) -> None:
    """Ready every level of ``h`` once: the smoother of each smoothed
    level (:meth:`_Level.prepare_smoother`) and the coarsest level's
    direct solver.  :func:`solve` and :func:`vcycle_step` call it."""
    if h._prepared:
        return
    for lvl in h.levels[:-1]:
        lvl.prepare_smoother()
    last = h.levels[-1]
    last.coarse_solve = _coarse_solver(last.matrix.matrix, last.matrix.exactly_hermitian)
    h._prepared = True


def _vectors(lvl: _Level, x, b, name: str):
    """x and b as arrays, checked to be vectors of the level's size."""
    x, b = np.asarray(x), np.asarray(b)
    if x.shape != (lvl.matrix.size,) or b.shape != x.shape:
        raise ArgumentError(f"{name} of size {lvl.matrix.size} given "
                            f"x of shape {x.shape} and b of shape {b.shape}")
    return x, b


def smooth(level: _Level, x, b, sweeps: int, _carry=None):
    """Apply ``sweeps`` sweeps of the smoother of ``level``, one of a
    hierarchy's ``levels``, to M x = b, M the level matrix, from x:
    x <- x + omega (b - M x) for Richardson, x <- (D + L)^{-1} (b - U x)
    for forward Gauss-Seidel, with the smoother :func:`prepare` set.
    Returns a new array; x and b are left untouched.

    ``_carry`` is the cycle's: a one-item list holding the first sweep's
    input, b - M x or b - U x, when the caller has it (None otherwise),
    in an array the caller gives up unless it is b itself.  The input of
    the last sweep is left in it (None if no sweep ran), from which the
    level forms the residual after this block, in that array for
    Gauss-Seidel.
    """
    x, b = _vectors(level, x, b, "smoothed level")
    carry = [None] if _carry is None else _carry
    if sweeps == 0:
        carry[0] = None
        return x.copy()
    kernels = level.sweeps
    if kernels is None:
        raise ArgumentError("smoother not prepared: call prepare on the hierarchy")
    w = carry[0] if carry[0] is not None else kernels.input(x, b)
    x = kernels.sweep(x, w)
    for _ in range(sweeps - 1):
        w = kernels.input(x, b)
        x = kernels.sweep(x, w)
    carry[0] = w
    return x


def vcycle_step(h: MultigridHierarchy, level: int, x, b, _carry=None):
    """One V-cycle starting at ``level``: smooth, restrict, recurse once,
    correct, smooth; the last level is solved directly, so on a
    two-level hierarchy this is the two-grid step.  ``_carry`` is the
    first pre-smoothing sweep's input and receives the last
    post-smoothing sweep's (see :func:`smooth`).  x and b are left
    untouched.  An unprepared hierarchy is prepared first."""
    if not h._prepared:
        prepare(h)
    lvl = h.levels[level]
    x, b = _vectors(lvl, x, b, f"level {level}")
    if lvl.transfer is None:
        return lvl.coarse_solve(b)
    carry = [None] if _carry is None else _carry
    x = smooth(lvl, x, b, lvl.smoother.sweeps_pre, carry)
    rc = lvl.transfer.restrict(lvl.residual(x, b, carry[0])[0])
    # from x = 0 the first sweep's input, b - M 0 or b - U 0, is rc
    y = vcycle_step(h, level + 1, np.zeros(rc.shape, rc.dtype), rc, [rc])
    x = x + lvl.transfer.prolong(y)
    carry[0] = None
    return smooth(lvl, x, b, lvl.smoother.sweeps_post, carry)


def tgm_step(A: BlockStructuredMatrix, P: GridTransfer, x, b, spec: SmootherSpec):
    """One two-grid iteration: pre-smooth, exact coarse-grid correction
    through the Galerkin operator P^H A P, post-smooth.

    ``A`` is a :class:`BlockStructuredMatrix`.  The step is
    :func:`vcycle_step` on the two-level hierarchy (A, P^H A P), the
    same code that ``solve(cycle="tgm")`` iterates; the Galerkin product
    and the level kernels are rebuilt on every call.
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


def _check_solve_args(tol, max_iter, cycle) -> None:
    """The scalar arguments of :func:`solve`."""
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise ArgumentError(f"tol must be a real number, got {tol!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ArgumentError("tol must be positive and finite")
    if not _is_integer(max_iter):
        raise ArgumentError(f"max_iter must be an integer, got {max_iter!r}")
    if not max_iter >= 1:
        raise ArgumentError("max_iter must be >= 1")
    if cycle not in (TGM, VCYCLE):
        raise ArgumentError(f"unknown cycle {cycle!r}")


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
    _check_solve_args(tol, max_iter, cycle)
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
    prepare(h)
    residuals = []
    # the product of the stopping test also gives the next cycle's first
    # sweep its input; the first cycle's is computed there
    finest, carry = h.levels[0], [None]
    for it in range(1, max_iter + 1):
        x = vcycle_step(h, 0, x, b, carry)
        r, carry[0] = finest.residual(x, b, carry[0])
        res = float(np.linalg.norm(r * scale)) / norm_b
        if not math.isfinite(res):
            raise NumericalError(f"residual is not finite after cycle {it}")
        residuals.append(res)
        if res <= tol:
            return SolveResult(x=x, iterations=it, residuals=residuals, converged=True)
        if detect_divergence(residuals):
            break
    return SolveResult(x=x, iterations=len(residuals), residuals=residuals,
                       converged=False, diverged=detect_divergence(residuals))


def richardson_omega_default(A) -> float:
    """Default damping 1/C, with C the Gershgorin bound of the matrix A
    standing in for its spectral radius.  Raises :class:`ArgumentError`
    when 1/C is not a positive finite number (C zero, below 1/DBL_MAX or
    infinite)."""
    bound = gershgorin_bound(A)
    if bound <= 0:
        raise ArgumentError("cannot derive a damping parameter from a zero operator")
    omega = 1.0 / bound
    if not 0.0 < omega < math.inf:
        raise ArgumentError(f"cannot derive a damping parameter from the "
                            f"Gershgorin bound C = {bound:.3g}: 1/C is {omega}")
    return omega

