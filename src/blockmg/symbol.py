"""Matrix-valued trigonometric polynomials.

A symbol is a d-by-d matrix-valued trigonometric polynomial in m angular
variables, stored as a window of Fourier coefficients.  This module
provides evaluation, coefficient algebra, eigenvalue branch tracking,
location of the (unique) zero of the minimal eigenvalue function, the
half-angle coarse-symbol map and the corner-sum symbol, tensor products
for the multilevel setting, and a plain-text exchange format.

Evaluation is batched: :meth:`MatrixTrigPolynomial.evaluate_grid` and
:func:`corner_sums` work on a stack of n points, and the one-point
:meth:`MatrixTrigPolynomial.evaluate` and :func:`corner_sum` are their
n = 1 cases; branch tracking likewise runs on a stack
(:func:`tracked_eigenpairs`; a single matrix is a stack of one), and
zero refinement samples each bracket in one batch (:func:`find_zero`).

The evaluation kernel forms the real phase j.t with a real matmul and
writes its cosine and sine into one complex array, which then multiplies
the stacked coefficients.  It does not take the complex exp of
``1j * t @ J``: that expression is a complex matmul (zgemm) followed by
numpy's complex exp, and the exp then ran at about a tenth of its usual
speed (20-25 ms against 2.2 ms on a 4096 x 9 phase, measured on an x86
host with OpenBLAS; the cause is not pinned down).

The spectral kernels compute only what their callers read: zero
refinement takes eigenvalues alone, the sup norm of a Hermitian symbol
is its largest |eigenvalue| (an SVD serves any other symbol), and a
corner sum is one stacked product E^H E of the corner values.
Condition (i) reads the same sum from :func:`corner_sum_symbol`
instead, exact on coefficients: a Hermitian, pi-periodic symbol,
evaluated once per point rather than p once per corner.  The
Hermitian test is relative to the largest coefficient, with no floor,
so it gives the same answer for f and for c f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentError, DimensionError, NumericalError,
                     SymbolZeroError, TrackingError)

TRIM_RTOL = 1e-14
HERMITIAN_RTOL = 1e-12
DEFAULT_GRID = 1024
OVERLAP_MIN = 0.6   # least eigenvector overlap |v^H q| that keeps a branch
MAX_VARIABLES = 4   # a grid holds at least 8^m points, a corner sum 16^m values


def _as_multi_index(j, m):
    if np.isscalar(j):
        idx = (int(j),)
    else:
        idx = tuple(int(v) for v in j)
    if len(idx) != m:
        raise ArgumentError(f"multi-index {idx} has length {len(idx)}, expected {m}")
    return idx


def _as_grid(thetas, m):
    """A stack of points as an (n, m) float array; (n,) is accepted for m=1."""
    ts = np.asarray(thetas, dtype=float)
    if ts.ndim == 1:
        if m != 1:
            raise ArgumentError("1-D grid given for a multivariate symbol")
        ts = ts[:, None]
    if ts.ndim != 2 or ts.shape[1] != m:
        raise ArgumentError(f"grid has shape {ts.shape}, expected (n, {m})")
    return ts


class MatrixTrigPolynomial:
    """d-by-d matrix trigonometric polynomial f(t) = sum_j c_j e^(i j.t).

    Parameters
    ----------
    coeffs : mapping
        Multi-index (int for m=1, tuple of m ints otherwise) -> (d, d)
        array-like Fourier coefficient.
    m : int, optional
        Number of angular variables; inferred from the keys when omitted.

    Coefficients with Frobenius norm below 1e-14 times the largest one
    are dropped, keeping the stored window minimal; a NaN or infinite
    entry raises ArgumentError, naming the first such coefficient in
    insertion order.  The coefficients are stacked once, and every check
    runs on the stack.  Instances are immutable by convention: no method
    mutates ``coeffs``, whose arrays are views of the evaluation stack
    ``_C``, so the evaluation arrays and the Hermitian flag are computed
    once here.
    """

    def __init__(self, coeffs, m=None):
        if not coeffs:
            raise ArgumentError("a symbol needs at least one coefficient")
        first = next(iter(coeffs))
        if m is None:
            m = 1 if np.isscalar(first) else len(first)
        if m < 1:
            raise ArgumentError(f"number of variables must be >= 1, got {m}")
        keys, mats, d = [], [], None
        try:
            for j, c in coeffs.items():
                idx = _as_multi_index(j, m)
                mat = np.asarray(c, dtype=complex)
                if mat.ndim == 0:
                    mat = mat.reshape(1, 1)
                if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                    raise DimensionError(f"coefficient {idx} is not square: {mat.shape}")
                if d is None:
                    d = mat.shape[0]
                elif mat.shape[0] != d:
                    raise DimensionError(
                        f"coefficient {idx} has order {mat.shape[0]}, expected {d}")
                keys.append(idx)
                mats.append(mat)
        except (TypeError, ValueError):
            # a non-finite coefficient before the malformed one is named first
            if mats:
                _check_finite(keys, np.array(mats))
            raise
        stack = np.array(mats)
        _check_finite(keys, stack)
        # the trim and Hermitian tests see every coefficient scaled by
        # 2**-e, exactly, so that the largest real or imaginary part lies
        # in [1/2, 1): the largest norm then neither overflows nor
        # underflows, and both tests are relative, so the scaling moves
        # no verdict
        e = int(np.frexp(np.abs(stack.view(float)).max())[1])
        scaled = np.ldexp(stack.view(float), -e).view(complex)
        norms = np.linalg.norm(scaled, axis=(1, 2))
        scale = norms.max()
        keep = (norms > TRIM_RTOL * scale) | (scale == 0)
        keys = [j for j, kept in zip(keys, keep) if kept]
        self.d = d
        self.m = m
        self._J = np.array(keys, dtype=float)                               # (nc, m)
        self._C = stack[keep].reshape(len(keys), d * d)
        self.coeffs = dict(zip(keys, self._C.reshape(len(keys), d, d)))
        self._hermitian = _is_hermitian(keys, scaled[keep], norms[keep])

    @classmethod
    def scalar(cls, coeffs, m=None):
        """Build a 1x1 symbol from a mapping of multi-index -> number."""
        return cls({j: np.array([[c]], dtype=complex) for j, c in coeffs.items()}, m=m)

    # -- basic queries ----------------------------------------------------

    def window(self):
        """Per-variable coefficient window radius, as a tuple."""
        return tuple(max(abs(j[ell]) for j in self.coeffs) for ell in range(self.m))

    @property
    def hermitian(self) -> bool:
        """True when c_{-j} = c_j^H for every stored index (1e-12 relative)."""
        return self._hermitian

    def _theta(self, theta):
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape != (self.m,):
            raise ArgumentError(f"evaluation point has shape {t.shape}, expected ({self.m},)")
        if not np.all(np.isfinite(t)):
            raise ArgumentError("evaluation point must be finite")
        return t

    def evaluate(self, theta) -> np.ndarray:
        """Value at a point of [0, 2pi)^m; the one-point case of
        :meth:`evaluate_grid`."""
        return self.evaluate_grid(self._theta(theta)[None])[0]

    def evaluate_grid(self, thetas) -> np.ndarray:
        """Values at a stack of points, shape (n, d, d); thetas has shape
        (n,) for m=1 or (n, m).  Hermitian output is symmetrized."""
        ts = _as_grid(thetas, self.m)
        # real phase, then cos and sin: exp(1j * ts @ J.T) is a zgemm + slow complex exp
        phase = ts @ self._J.T
        waves = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=waves.real)
        np.sin(phase, out=waves.imag)
        out = (waves @ self._C).reshape(len(ts), self.d, self.d)
        if self._hermitian:
            out = 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))
        return out

    # -- coefficient algebra ----------------------------------------------

    def __matmul__(self, other):
        """Pointwise matrix product (f g)(t) = f(t) g(t), by convolution."""
        if not isinstance(other, MatrixTrigPolynomial):
            raise ArgumentError("operand is not a symbol")
        _check_pair(self, other)
        out = {}
        for ja, ca in self.coeffs.items():
            for jb, cb in other.coeffs.items():
                k = tuple(a + b for a, b in zip(ja, jb))
                out[k] = out.get(k, 0) + ca @ cb
        return MatrixTrigPolynomial(out, m=self.m)

    def conj_transpose(self):
        """Symbol of t -> f(t)^H."""
        return MatrixTrigPolynomial(
            {tuple(-v for v in j): c.conj().T for j, c in self.coeffs.items()},
            m=self.m)

    def __repr__(self):
        return (f"MatrixTrigPolynomial(d={self.d}, m={self.m}, "
                f"window={self.window()}, ncoeff={len(self.coeffs)})")


def _check_pair(a: MatrixTrigPolynomial, b: MatrixTrigPolynomial) -> None:
    """Two symbols used together share their block order d, else
    :class:`DimensionError`, and their variable count m, else ArgumentError."""
    if a.d != b.d:
        raise DimensionError(f"block order mismatch: d = {a.d} and d = {b.d}")
    if a.m != b.m:
        raise ArgumentError(f"variable count mismatch: m = {a.m} and m = {b.m}")


def _check_finite(keys, stack) -> None:
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ArgumentError(f"coefficient {keys[int(np.argmin(finite))]} has a non-finite entry")


def _is_hermitian(keys, stack, norms) -> bool:
    """c_{-j} = c_j^H for every index of the (nc, d, d) coefficient stack,
    to HERMITIAN_RTOL relative to the largest coefficient norm, so the
    verdict does not move when every coefficient is scaled by the same
    constant."""
    tol = HERMITIAN_RTOL * norms.max()
    position = {j: i for i, j in enumerate(keys)}
    partner = np.array([position.get(tuple(-v for v in j), -1) for j in keys])
    paired = partner >= 0
    if np.any(norms[~paired] > tol):
        return False
    diff = stack[partner[paired]] - np.conj(np.swapaxes(stack[paired], 1, 2))
    return not np.any(np.abs(diff) > tol)


@dataclass(frozen=True, kw_only=True)
class SymbolZero:
    """Location and structure of the unique zero of the minimal eigenvalue,
    its fields in the order a certificate reports them."""

    theta0: tuple          # point in [0, 2pi)^m
    jbar: int              # 1-based index of the vanishing eigenvalue
    order: int             # even order of the zero
    q_jbar: np.ndarray     # unit eigenvector of f(theta0) for eigenvalue 0


def theta_grid(n: int = DEFAULT_GRID) -> np.ndarray:
    """Uniform grid on [0, 2pi), endpoint excluded."""
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def symbol_sup_norm(f: MatrixTrigPolynomial, npoints: int = DEFAULT_GRID) -> float:
    """Max over a uniform sample grid of the spectral norm of f(t).

    For m >= 2 the per-dimension resolution is reduced so the total
    sample count stays near ``npoints``.  The spectral norm of a
    Hermitian value is its largest |eigenvalue|, so a Hermitian symbol
    takes one batched ``eigvalsh`` where any other takes an SVD per
    point.
    """
    vals = f.evaluate_grid(sample_points(f.m, npoints))
    if f.hermitian:
        return float(np.max(np.abs(np.linalg.eigvalsh(vals))))
    return float(np.max(np.linalg.norm(vals, 2, axis=(1, 2))))


def sample_points(m, npoints):
    """About ``npoints`` grid points on [0, 2pi)^m, at least 8 per axis.
    Every sampled grid is decided here, so ArgumentError for m above
    MAX_VARIABLES refuses a symbol before any grid is allocated."""
    if m > MAX_VARIABLES:
        raise ArgumentError(f"symbols in {m} variables are not supported: grids "
                            f"are capped at m = {MAX_VARIABLES} (8^m points or more)")
    if m == 1:
        return theta_grid(npoints)
    per_dim = max(8, int(round(npoints ** (1.0 / m))))
    axes = [theta_grid(per_dim)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1)


# -- eigenvalue branch tracking ----------------------------------------------


def tracked_eigenpairs(mats, q: np.ndarray):
    """Eigenpairs of a stack of Hermitian matrices (n, d, d) on the branch
    closest to q, by one batched eigendecomposition.

    Each matrix is symmetrized as (M + M^H)/2 first.  Returns the
    eigenvalues (n,), eigenvectors (n, d) and overlaps |v^H q| (n,);
    raises TrackingError at the first matrix whose best overlap falls
    below OVERLAP_MIN, naming its position in a stack of several.
    """
    A = np.asarray(mats, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionError(f"expected a stack of square matrices, got shape {A.shape}")
    w, V = np.linalg.eigh(0.5 * (A + np.conj(np.swapaxes(A, 1, 2))))
    overlaps = np.abs(np.conj(np.swapaxes(V, 1, 2)) @ q)
    best = np.argmax(overlaps, axis=1)
    rows = np.arange(len(A))
    top = overlaps[rows, best]
    failed = np.flatnonzero(top < OVERLAP_MIN)
    if failed.size:
        k = failed[0]
        where = f" at matrix {k} of {len(A)}" if len(A) > 1 else ""
        raise TrackingError(
            f"eigenvector overlap {top[k]:.3f} below {OVERLAP_MIN}{where}; "
            "branch tracking is ambiguous")
    return w[rows, best], V[rows, :, best], top


# -- zero location -------------------------------------------------------

_SNAP_DENOM = 12      # candidate zeros at multiples of pi/12 (covers 0, pi/2, pi, ...)
_REFINE_POINTS = 33   # samples per bracket in one refinement step
_REFINE_WIDTH = 1e-9  # bracket width that ends the refinement (see find_zero)


def _refine_axis(f, theta0, ax, half_width):
    """The argmin of the minimal eigenvalue of f along axis ``ax`` through
    theta0, within half_width of theta0[ax].  Each step samples
    _REFINE_POINTS points of the bracket in one batch and keeps the two
    intervals around the sampled argmin."""
    line = np.tile(theta0, (_REFINE_POINTS, 1))
    a, b = theta0[ax] - half_width, theta0[ax] + half_width
    while b - a > _REFINE_WIDTH:
        line[:, ax] = np.linspace(a, b, _REFINE_POINTS)
        k = int(np.argmin(np.linalg.eigvalsh(f.evaluate_grid(line))[:, 0]))
        a, b = line[max(k - 1, 0), ax], line[min(k + 1, _REFINE_POINTS - 1), ax]
    return 0.5 * (a + b)


def find_zero(f: MatrixTrigPolynomial) -> SymbolZero:
    """Locate the unique zero of the minimal eigenvalue function of f >= 0.

    The argmin of the minimal eigenvalue over a uniform grid (DEFAULT_GRID
    points, four times as many for m >= 2) is refined axis by axis with
    batched bracket shrinking down to a width of 1e-9 (the curvature of
    a quadratic minimum limits direct localization to about 1e-8, so a
    narrower bracket only samples eigensolver noise), then snapped to a
    nearby multiple of pi/12 when that candidate is at least as small
    numerically.  The order of the zero is the nearest even integer to
    the log-log slope of the tracked eigenvalue over dyadic offsets,
    fitted on the smallest scales that stay above the eigensolver noise
    floor.
    """
    if not f.hermitian:
        raise ArgumentError("find_zero requires a Hermitian symbol")
    m = f.m
    pts = sample_points(m, DEFAULT_GRID if m == 1 else DEFAULT_GRID * 4)
    w = np.linalg.eigvalsh(f.evaluate_grid(pts))
    mins, maxs = w[:, 0], w[:, -1]
    scale = float(np.max(np.abs(maxs)))
    if scale == 0.0:
        raise ArgumentError("zero symbol has no isolated minimal-eigenvalue zero")
    if np.min(mins) < -1e-10 * scale:
        raise SymbolZeroError(
            f"symbol is not nonnegative: min eigenvalue {np.min(mins):.3e} "
            f"(scale {scale:.3e})")

    pts2 = pts if pts.ndim == 2 else pts[:, None]
    step = 2.0 * np.pi / round(len(pts) ** (1.0 / m))
    best = int(np.argmin(mins))
    # an off-grid zero still leaves a grid value ~ curvature * (step/2)^2
    if mins[best] > 1e-3 * scale:
        raise SymbolZeroError(
            f"minimal eigenvalue never vanishes (grid minimum {mins[best]:.3e}, "
            f"scale {scale:.3e})")
    low = np.nonzero(mins <= max(1e-10 * scale, mins[best] * 10 + 1e-13 * scale))[0]
    for idx in low:
        delta = np.abs(pts2[idx] - pts2[best])
        dist = np.max(np.minimum(delta, 2.0 * np.pi - delta))
        if dist > 2.5 * step:
            raise SymbolZeroError(
                "multiple isolated near-zero minima found "
                f"(grid points {pts2[best]} and {pts2[idx]})")

    theta0 = np.array(pts2[best], dtype=float)
    for _ in range(2 if m > 1 else 1):
        for ax in range(m):
            theta0[ax] = _refine_axis(f, theta0, ax, step)

    # snap to an exact rational multiple of pi when numerically justified
    snap = np.round(theta0 * _SNAP_DENOM / np.pi) * np.pi / _SNAP_DENOM
    snap = np.mod(snap, 2.0 * np.pi)
    if np.max(np.abs(snap - theta0)) < 1e-5:
        lam_snap, lam = np.linalg.eigvalsh(f.evaluate_grid(np.stack([snap, theta0])))[:, 0]
        if lam_snap <= lam + 100 * np.finfo(float).eps * scale:
            theta0 = snap

    w0, V0 = np.linalg.eigh(f.evaluate(theta0))
    small = np.nonzero(w0 < 1e-10 * scale)[0]
    if small.size != 1:
        raise SymbolZeroError(
            f"expected exactly one vanishing eigenvalue at {theta0}, found {small.size}")
    jbar = int(small[0])
    q = V0[:, jbar].copy()
    pivot = int(np.argmax(np.abs(q)))
    q *= np.conj(q[pivot]) / abs(q[pivot])
    q /= np.linalg.norm(q)

    order = _zero_order(f, theta0, q, scale)
    return SymbolZero(theta0=tuple(float(t) for t in theta0), jbar=jbar + 1,
                      order=order, q_jbar=q)


def _zero_order(f, theta0, q, scale):
    direction = np.ones(f.m) / np.sqrt(f.m)
    hs = 2.0 ** -np.arange(5, 21)
    lams, _, _ = tracked_eigenpairs(f.evaluate_grid(theta0 + hs[:, None] * direction), q)
    usable = lams > 1e4 * np.finfo(float).eps * scale
    hs, lams = hs[usable], lams[usable]
    if len(hs) < 3:
        raise NumericalError("too few usable scales to estimate the zero order")
    hs, lams = hs[-8:], lams[-8:]
    slope = np.polyfit(np.log(hs), np.log(lams), 1)[0]
    order = max(2, 2 * int(round(slope / 2.0)))
    if abs(slope - order) > 0.2:
        raise SymbolZeroError(
            f"zero order fit {slope:.3f} is not close to an even integer")
    return order


# -- coarse symbol, tensor products, corner sums --------------------------


def coarse_symbol(f: MatrixTrigPolynomial, p: MatrixTrigPolynomial) -> MatrixTrigPolynomial:
    """Symbol of the Galerkin-coarsened operator, for any number of
    variables.

    Computed exactly on coefficients: with g = p^H f p, the half-angle
    average of g over the corners t/2 + pi eta keeps only the harmonics
    that are even in every variable, so the coarse coefficient at j is
    the coefficient of g at 2j.
    """
    _check_pair(f, p)
    g = p.conj_transpose() @ f @ p
    out = {tuple(k // 2 for k in j): c for j, c in g.coeffs.items()
           if all(k % 2 == 0 for k in j)}
    if not out:
        out[(0,) * f.m] = np.zeros((f.d, f.d), dtype=complex)
    return MatrixTrigPolynomial(out, m=f.m)


def tensor_symbol(ps) -> MatrixTrigPolynomial:
    """Kronecker tensor product of univariate symbols, one per dimension."""
    ps = list(ps)
    if not ps:
        raise ArgumentError("tensor_symbol needs at least one factor")
    for p in ps:
        if p.m != 1:
            raise ArgumentError("tensor_symbol factors must be univariate")
    if len(ps) == 1:
        return ps[0]
    out = {(): np.array([[1.0 + 0.0j]])}
    for p in ps:
        nxt = {}
        for key, acc in out.items():
            for (j,), c in p.coeffs.items():
                nxt[key + (j,)] = np.kron(acc, c)
        out = nxt
    return MatrixTrigPolynomial(out, m=len(ps))


def _corner_offsets(m: int) -> np.ndarray:
    """The offsets pi eta, eta in {0,1}^m, that take a point to its 2^m
    aliasing corners, shape (2^m, m): row k has eta_l = bit l of k, so
    row 0 is the point itself."""
    return np.pi * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)


def corner_sums(p: MatrixTrigPolynomial, thetas) -> np.ndarray:
    """Corner sums at a stack of points, shape (n, d, d): for each point,
    the sum over its corner set of p(xi)^H p(xi), Hermitian PSD by
    construction.  All 2^m corners of every point go through one
    :meth:`~MatrixTrigPolynomial.evaluate_grid` call."""
    ts = _as_grid(thetas, p.m)
    offsets = _corner_offsets(p.m)
    E = p.evaluate_grid((ts[:, None, :] + offsets).reshape(-1, p.m))
    # the corner values stacked row-wise: E^H E is the sum over corners
    E = E.reshape(len(ts), len(offsets) * p.d, p.d)
    total = np.conj(np.swapaxes(E, 1, 2)) @ E
    return 0.5 * (total + np.conj(np.swapaxes(total, 1, 2)))


def corner_sum(p: MatrixTrigPolynomial, theta) -> np.ndarray:
    """Corner sum at one point; the one-point case of :func:`corner_sums`."""
    return corner_sums(p, p._theta(theta)[None])[0]


def corner_sum_symbol(p: MatrixTrigPolynomial) -> MatrixTrigPolynomial:
    """The corner sum as a Hermitian symbol, exact on coefficients.

    With g = p^H p, the sum of g over the corners t + pi eta keeps only
    the harmonics that are even in every variable, each 2^m times, as in
    :func:`coarse_symbol`: so the symbol is pi-periodic in every
    variable, and it agrees with :func:`corner_sums` up to rounding.
    """
    g = p.conj_transpose() @ p
    return MatrixTrigPolynomial({j: 2 ** p.m * c for j, c in g.coeffs.items()
                                 if all(k % 2 == 0 for k in j)}, m=p.m)


# -- exchange file format --------------------------------------------------
#
# Line-oriented text, whitespace-separated:
#
#   symbol v1
#   d <int>
#   m <int>
#   coeff <j1> ... <jm>
#   <d rows of d entries>          entry := <re><+|-><im>i, float repr
#   ... further coeff blocks ...
#   end
#
# Floats are written with Python repr and therefore round-trip
# bit-exactly for finite values.


def _format_entry(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "-" if np.signbit(im) else "+"   # keeps the sign of -0.0
    return f"{re!r}{sign}{abs(im)!r}i"


def _parse_entry(token: str) -> complex:
    if not token.endswith("i"):
        raise ArgumentError(f"bad symbol entry {token!r}: missing trailing 'i'")
    body = token[:-1]
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    if split <= 0:
        raise ArgumentError(f"bad symbol entry {token!r}: no imaginary part")
    try:
        return complex(float(body[:split]), float(body[split:]))
    except ValueError as exc:
        raise ArgumentError(f"bad symbol entry {token!r}") from exc


def write_symbol(path, f: MatrixTrigPolynomial) -> None:
    """Write a symbol in the exchange format (see module docstring)."""
    lines = ["symbol v1", f"d {f.d}", f"m {f.m}"]
    for j in sorted(f.coeffs):
        lines.append("coeff " + " ".join(str(v) for v in j))
        c = f.coeffs[j]
        for row in range(f.d):
            lines.append(" ".join(_format_entry(c[row, col]) for col in range(f.d)))
    lines.append("end")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ArgumentError(f"bad integer {token!r} in symbol file line {line!r}") from None


def read_symbol(path) -> MatrixTrigPolynomial:
    """Parse a symbol exchange file; inverse of :func:`write_symbol`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"cannot read symbol file {path}: {exc}") from exc
    if not lines or lines[0] != "symbol v1":
        raise ArgumentError("not a symbol exchange file (missing 'symbol v1' header)")
    if len(lines) < 3 or not lines[1].startswith("d ") or not lines[2].startswith("m "):
        raise ArgumentError("symbol file must declare d and m after the header")
    # the whole rest of the line is the one integer: "d 1 7" is refused
    d, m = (_parse_int(line[2:].strip(), line) for line in lines[1:3])
    if d < 1:
        raise ArgumentError(f"symbol file declares block size d = {d}, expected d >= 1")
    coeffs = {}
    pos = 3
    while pos < len(lines) and lines[pos] != "end":
        head = lines[pos].split()
        if head[0] != "coeff" or len(head) != m + 1:
            raise ArgumentError(f"expected 'coeff' with {m} indices, got {lines[pos]!r}")
        idx = tuple(_parse_int(v, lines[pos]) for v in head[1:])
        if idx in coeffs:
            raise ArgumentError(f"coefficient {idx} given twice")
        pos += 1
        if pos + d > len(lines):
            raise ArgumentError(f"truncated coefficient block for {idx}")
        mat = np.empty((d, d), dtype=complex)
        for row in range(d):
            entries = lines[pos + row].split()
            if len(entries) != d:
                raise ArgumentError(
                    f"coefficient {idx} row {row} has {len(entries)} entries, expected {d}")
            mat[row] = [_parse_entry(tok) for tok in entries]
        coeffs[idx] = mat
        pos += d
    if pos >= len(lines) or lines[pos] != "end":
        raise ArgumentError("symbol file missing 'end' terminator")
    if pos + 1 < len(lines):
        raise ArgumentError(f"content after 'end': {lines[pos + 1]!r}")
    if not coeffs:
        raise ArgumentError("symbol file declares no coefficients")
    return MatrixTrigPolynomial(coeffs, m=m)
