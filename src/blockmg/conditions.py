"""Numerical verification of the multigrid convergence conditions.

The checks certify, for a projector symbol p against a problem symbol f
in any number m of variables with a single zero t0 of its minimal
eigenvalue function:

  (i)   positivity of the corner sum of p^H p over the 2^m corners
        t + pi eta, eta in {0, 1}^m, on a grid,
  (ii)  the fixed-point property s(t0) q = q on the singular eigenvector,
  (iii) boundedness of (1 - lambda(s)) / lambda(f) at the zero,

plus the un-squared ratio max |lambda(p(. + pi eta))| / lambda(f) over
the 2^m - 1 shifted corners (eta != 0) controlling the V-cycle, and the
five structural properties of the coarse symbol.  For m = 1 the only
shifted corner is t + pi.

Analytic limits are certified by stabilization of dyadic-sample ratios,
never symbolically.  A check samples the numerator and the denominator
of a limit at every dyadic point of every direction, one stacked call
each (Gram quotients, tracked eigenpairs and shifted-projector
eigenvalues all work on stacks, and an error names the first failing
point of its stack), and :func:`dyadic_limit` judges the two value
arrays.  Two floating-point guards keep that criterion meaningful in
double precision: samples whose denominator falls below the eigensolver
noise floor are discarded, and numerator values indistinguishable from
zero are clamped to exactly zero.  Each limit has a natural scale, a
power of the sup norms of f and p: a ratio above RATIO_CAP times it
counts as divergent, and the tolerances of the stabilization and
agreement tests have a floor of 1e-6 times it, so no verdict or piece
of evidence moves under p -> c p or f -> c f.

The checks at the zero share one :class:`ZeroSamples`: the sample
points, sup norms, branches and hypotheses they have in common, each
computed once per report.

Every verdict, a dyadic limit's included, is one :class:`CheckResult`:
a pass/fail flag and the dict of its numeric evidence.  Every report is
a :class:`Report`, written to JSON by one rule (:func:`jsonable`): a
verdict as ``{passed, ...evidence}``, any other dataclass by its fields
in declaration order.  So the report of one (f, p) pair carries the
:class:`~blockmg.symbol.SymbolZero` of f as its ``zero``.

The shortcut hypotheses judge residuals and eigenvalues against the
largest ||p(t0 + pi eta)||_2 over the corners, with no floor of 1, which
would make them absolute for a small p.  The shifted projector branch
is matched for a whole stack at once by one rule, whether or not
p(theta + pi eta) has clusters of close eigenvalues there: the clusters
are formed for every point together, and the span overlaps of clusters
of one size come from one batched SVD.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (ArgumentError, BlockmgError, DimensionError,
                     SingularMatrixError, TrackingError)
from .symbol import (OVERLAP_MIN, MatrixTrigPolynomial, SymbolZero,
                     coarse_symbol, corner_set, corner_sums, find_zero,
                     sample_points, symbol_sup_norm, tracked_eigenpairs)

EPS = np.finfo(float).eps
DYADIC_K_MIN = 5
DYADIC_K_MAX = 25
TAIL = 5
REL_SPREAD = 1e-2
RATIO_CAP = 1e8
GRID_POINTS = 1024         # conditions (i) and the coarse-symbol grid
SMALL_GRID_POINTS = 256    # projector defect and sup norms


@dataclass
class CheckResult:
    """A verdict together with the numeric evidence that justified it."""

    passed: bool
    evidence: dict


def _error_result(exc: Exception) -> CheckResult:
    return CheckResult(False, {"error": f"{type(exc).__name__}: {exc}"})


# -- s(theta) --------------------------------------------------------------


def build_s_grid(p: MatrixTrigPolynomial, thetas) -> np.ndarray:
    """The Gram quotient s(t) = p(t) (corner sum)^-1 p(t)^H at a stack of
    points, shape (n, d, d); thetas has shape (n,) for m=1 or (n, m).

    Hermitian with spectrum inside [0, 1] whenever the corner sum is
    positive definite; a singular corner sum is a condition-(i)
    violation.  Raises SingularMatrixError at the first point where the
    corner sum is singular or the spectrum of s leaves [0, 1], naming
    that point.  Singular means an eigenvalue at most 1e-12 (sum_j
    ||c_j||_F)^2 over the coefficients c_j of p, a bound on the corner
    sum's scale that moves with p as |p|^2.
    """
    ts = np.asarray(thetas, dtype=float)
    c = corner_sums(p, ts)
    w, U = np.linalg.eigh(c)
    scale = sum(np.linalg.norm(cj) for cj in p.coeffs.values()) ** 2
    singular = np.flatnonzero(w[:, 0] <= 1e-12 * scale)
    # Only the points before the first singular corner sum can fail
    # earlier, so only they are formed, as s = G G^H with
    # G = p U diag(w)^(-1/2) from the decomposition c = U diag(w) U^H;
    # every w there is positive.
    n_ok = singular[0] if singular.size else len(ts)
    G = p.evaluate_grid(ts[:n_ok]) @ U[:n_ok] / np.sqrt(w[:n_ok, None, :])
    s = G @ np.conj(np.swapaxes(G, 1, 2))
    s = 0.5 * (s + np.conj(np.swapaxes(s, 1, 2)))
    ws = np.linalg.eigvalsh(s)
    escaped = np.flatnonzero((ws[:, 0] < -1e-9) | (ws[:, -1] > 1.0 + 1e-9))
    if escaped.size:
        k = escaped[0]
        raise SingularMatrixError(
            f"s(theta) spectrum [{ws[k, 0]:.3e}, {ws[k, -1]:.3e}] escapes [0, 1] "
            f"at theta={ts[k]}")
    if singular.size:
        k = singular[0]
        raise SingularMatrixError(
            f"corner sum singular at theta={ts[k]}: condition (i) violated "
            f"(min eigenvalue {w[k, 0]:.3e})")
    return s


def build_s(p: MatrixTrigPolynomial, theta) -> np.ndarray:
    """The Gram quotient s(t) at one point: the n = 1 case of the batched
    :func:`build_s_grid`, with the same checks and errors."""
    return build_s_grid(p, p._theta(theta)[None])[0]


# -- dyadic limit machinery -------------------------------------------------


def _dyadic_points(theta0, directions) -> np.ndarray:
    """The sample points theta0 + 2^-k d of :func:`dyadic_limit`, shape
    (n_dir * (DYADIC_K_MAX - DYADIC_K_MIN + 1), m): direction by
    direction, k ascending within each."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    dirs = np.array([np.atleast_1d(np.asarray(d, dtype=float)) for d in directions])
    steps = 2.0 ** -np.arange(DYADIC_K_MIN, DYADIC_K_MAX + 1)
    return (theta0 + dirs[:, None, :] * steps[:, None]).reshape(-1, len(theta0))


def dyadic_limit(numer, denom, directions, *, numer_floor: float,
                 denom_floor: float, cap: float) -> CheckResult:
    """Judge lim numer/denom along dyadic approaches to a point.

    ``numer`` and ``denom`` are the values at the points theta0 + 2^-k d
    that :func:`_dyadic_points` lists for ``directions``: direction by
    direction, k = DYADIC_K_MIN..DYADIC_K_MAX ascending.  Samples whose
    denominator does not clear ``denom_floor`` are discarded and
    numerator values below ``numer_floor`` count as zero.  The limit is
    accepted when the last TAIL usable ratios have spread below
    REL_SPREAD (relative to the estimate) in every direction, the
    directional estimates agree to REL_SPREAD, and no ratio exceeds
    ``cap``.  ``cap`` is RATIO_CAP times the ratio's natural scale, and
    both relative tests have a floor of 1e-6 times that scale.

    The evidence is the estimate ``c``, the largest tail ``spread``,
    whether the ratio ``diverged``, the ``reason`` of a failure (empty
    on success) and the ``per_direction`` estimates judged before the
    verdict was reached.
    """
    floor = 1e-6 * cap / RATIO_CAP
    directions = [np.atleast_1d(np.asarray(d, dtype=float)) for d in directions]
    num = np.asarray(numer, dtype=float)
    den = np.asarray(denom, dtype=float)
    usable = den > denom_floor
    ratio = np.where(num < numer_floor, 0.0, num)[usable] / den[usable]
    # the direction of each usable ratio
    owner = np.flatnonzero(usable) // (DYADIC_K_MAX - DYADIC_K_MIN + 1)

    per_direction = []
    estimates = []

    def verdict(passed, c, spread, reason="", diverged=False):
        return CheckResult(passed, {"c": c, "spread": spread, "diverged": diverged,
                                    "reason": reason, "per_direction": per_direction})

    for i, direction in enumerate(directions):
        ratios = ratio[owner == i]
        if len(ratios) < TAIL:
            return verdict(False, float("nan"), float("inf"),
                           "insufficient usable samples")
        if ratios.max() > cap:
            return verdict(False, float("inf"), float("inf"),
                           f"ratio exceeded cap {cap:g}", diverged=True)
        tail_vals = ratios[-TAIL:]
        c_dir = float(np.mean(tail_vals))
        spread = float(np.max(tail_vals) - np.min(tail_vals))
        ok = spread <= REL_SPREAD * max(abs(c_dir), floor)
        if (not ok and np.all(np.diff(ratios) > 0)
                and ratios[-1] > 100.0 * max(ratios[0], 1e-300)):
            # a power-law blow-up whose usable window (limited by the
            # denominator noise floor) ends before the cap is reached
            return verdict(False, float("inf"), float("inf"),
                           "monotone growth throughout the window", diverged=True)
        per_direction.append({"direction": [float(v) for v in direction],
                              "c": c_dir, "spread": spread, "stabilized": ok})
        estimates.append(c_dir)
    lo, hi = min(estimates), max(estimates)
    agree = (hi - lo) <= max(REL_SPREAD * max(abs(lo), abs(hi)), floor)
    passed = agree and all(d["stabilized"] for d in per_direction)
    c = float(np.mean(estimates))
    spread = max(d["spread"] for d in per_direction)
    reason = "" if passed else ("directional estimates disagree" if not agree
                                else "tail not stabilized")
    return verdict(passed, c, spread, reason)


def _axis_directions(m: int):
    """The directions of approach to a zero in m variables: every nonzero
    vector of {1, 0, -1}^m, normalized (+1 and -1 for m = 1, the eight
    compass directions for m = 2)."""
    steps = [np.array(v) for v in product((1.0, 0.0, -1.0), repeat=m) if any(v)]
    return [v / np.linalg.norm(v) for v in steps]


def _f_branch(f: MatrixTrigPolynomial, thetas, q: np.ndarray) -> np.ndarray:
    """The eigenvalue of f on the branch of q at a stack of points."""
    return tracked_eigenpairs(f.evaluate_grid(thetas), q)[0]


def _s_gap(p: MatrixTrigPolynomial, thetas, q: np.ndarray) -> np.ndarray:
    """1 - the eigenvalue of s on the branch of q at a stack of points."""
    return 1.0 - tracked_eigenpairs(build_s_grid(p, thetas), q)[0]


def shifted_branch_eigenvalue(p: MatrixTrigPolynomial, thetas,
                              q: np.ndarray) -> np.ndarray:
    """Eigenvalues of the (generally non-Hermitian) matrices
    p(theta + pi), pi added on every axis, at a stack of points, shape
    (n,) (thetas as for :meth:`~MatrixTrigPolynomial.evaluate_grid`),
    each on the branch whose right eigenvectors are closest to q.

    One batched evaluation and one batched eigendecomposition serve the
    whole stack.  A repeated eigenvalue (rank-deficient projector
    symbols have multidimensional kernels) splits numerically by
    sqrt(eps), and its individual eigenvectors are arbitrary within
    their span, so the eigenvalues are clustered: in order of increasing
    |w|, each joins the first earlier cluster leader within
    1e-6 ||p(theta + pi)||_2, or else leads a cluster of its own.  A
    one-member cluster overlaps q by |v^H q| / ||v||, a larger one by
    the norm of the projection of q onto its eigenvector span.  The
    branch is the first cluster of largest overlap in leader order, and
    its value the cluster mean, which cancels the splitting to first
    order.  Raises TrackingError at the first point whose best overlap
    falls below OVERLAP_MIN, naming it.
    """
    ts = np.asarray(thetas, dtype=float).reshape(-1, p.m)
    mats = p.evaluate_grid(ts + np.pi)
    ws, Vs = np.linalg.eig(mats)
    tol = 1e-6 * np.linalg.norm(mats, 2, axis=(1, 2))
    order = np.argsort(np.abs(ws), axis=1)
    ws = np.take_along_axis(ws, order, axis=1)
    Vs = np.take_along_axis(Vs, order[:, None, :], axis=2)
    # leader[n, j]: the position of the cluster leader of eigenvalue j
    leader = np.zeros(ws.shape, dtype=int)
    for j in range(1, p.d):
        joins = ((np.abs(ws[:, j, None] - ws[:, :j]) <= tol[:, None])
                 & (leader[:, :j] == np.arange(j)))
        leader[:, j] = np.where(joins.any(axis=1), joins.argmax(axis=1), j)
    size = np.count_nonzero(leader[:, None, :] == np.arange(p.d)[:, None], axis=2)
    # a position that leads no cluster (size 0) is never the branch
    overlap = np.where(size == 1, np.abs(np.conj(np.swapaxes(Vs, 1, 2)) @ q)
                       / np.linalg.norm(Vs, axis=1), -1.0)
    value = ws.copy()
    for k in np.unique(size[size > 1]):
        n, i = np.nonzero(size == k)
        members = np.nonzero(leader[n] == i[:, None])[1].reshape(-1, k)
        U, sv, _ = np.linalg.svd(np.take_along_axis(Vs[n], members[:, None, :], axis=2),
                                 full_matrices=False)
        span = np.where(sv > 1e-10 * sv[:, :1], np.conj(np.swapaxes(U, 1, 2)) @ q, 0.0)
        overlap[n, i] = np.linalg.norm(span, axis=1)
        value[n, i] = np.mean(np.take_along_axis(ws[n], members, axis=1), axis=1)
    rows = np.arange(len(ts))
    best = np.argmax(overlap, axis=1)
    top, out = overlap[rows, best], value[rows, best]
    failed = np.flatnonzero(top < OVERLAP_MIN)
    if failed.size:
        n = failed[0]
        raise TrackingError(
            f"overlap {top[n]:.3f} below {OVERLAP_MIN} while tracking "
            f"the shifted projector eigenvalue at theta={ts[n]}")
    return out


def _shifted_corners(m: int) -> np.ndarray:
    """The offsets pi eta of the 2^m - 1 shifted corners (eta != 0),
    shape (2^m - 1, m)."""
    return np.array(corner_set(np.zeros(m), m)[1:])


class ZeroSamples:
    """What the checks at the zero theta0 of f, with singular eigenvector
    q, share for one (f, p) pair: the points :func:`_dyadic_points` lists
    for :func:`_axis_directions`, and the quantities below, each computed
    on first use and then kept.  One that raises keeps nothing, so each
    check that reads it raises, and reports, that error itself."""

    def __init__(self, p: MatrixTrigPolynomial, f: MatrixTrigPolynomial, theta0, q):
        self.p, self.f, self.q = p, f, q
        self.theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        self.directions = _axis_directions(p.m)
        self.points = _dyadic_points(self.theta0, self.directions)

    @cached_property
    def fscale(self) -> float:
        return symbol_sup_norm(self.f, SMALL_GRID_POINTS)

    @cached_property
    def pscale(self) -> float:
        return symbol_sup_norm(self.p, SMALL_GRID_POINTS)

    @cached_property
    def f_branch(self) -> np.ndarray:
        return _f_branch(self.f, self.points, self.q)

    @cached_property
    def shifted_branch(self) -> np.ndarray:
        """max over the shifted corners of |lambda(p(theta + pi eta))| on
        the branch of q at each point, from one
        :func:`shifted_branch_eigenvalue` call for all corners."""
        m = self.p.m
        # shifted_branch_eigenvalue adds pi on every axis itself
        corners = (self.points[:, None, :] + (_shifted_corners(m) - np.pi)).reshape(-1, m)
        values = np.abs(shifted_branch_eigenvalue(self.p, corners, self.q))
        return values.reshape(len(self.points), -1).max(axis=1)

    @cached_property
    def hypotheses(self) -> dict:
        return fixed_point_shortcut_hypotheses(self.p, self.theta0, self.q)

    @cached_property
    def fixed_point_defect(self) -> float:
        """||s(theta0) q - q||."""
        return float(np.linalg.norm(build_s(self.p, self.theta0) @ self.q - self.q))


# -- conditions (i), (ii), (iii) -------------------------------------------


def check_condition_i(p: MatrixTrigPolynomial) -> CheckResult:
    """Grid minimum of the smallest corner-sum eigenvalue over
    GRID_POINTS samples; positive means s(theta) is well-defined
    everywhere."""
    eigs = np.linalg.eigvalsh(corner_sums(p, sample_points(p.m, GRID_POINTS)))
    min_eig = float(eigs[:, 0].min())
    max_eig = float(eigs[:, -1].max())
    passed = min_eig > 1e-10 * max_eig
    return CheckResult(passed, {"min_eig": min_eig, "max_eig": max_eig,
                                "npoints": GRID_POINTS})


def fixed_point_shortcut_hypotheses(p: MatrixTrigPolynomial, theta0,
                                    q: np.ndarray) -> dict:
    """The eigenvector hypotheses that shortcut condition (ii).

    Checks, at the symbol zero t0 with singular eigenvector q: q is an
    eigenvector of p(t0) (nonzero eigenvalue), q is killed by
    p(t0 + pi eta) at every shifted corner (the largest residual is
    reported), q is an eigenvector of p(t0)^H (nonzero eigenvalue), and
    p(t0) is nonsingular: its smallest singular value exceeds d EPS
    times its largest (numpy's ``matrix_rank`` tolerance), a ratio that
    does not move under p -> c p.
    """
    t0 = np.asarray(theta0, dtype=float)
    P0 = p.evaluate(t0)
    shifted = p.evaluate_grid(t0 + _shifted_corners(p.m))
    scale = max(float(np.linalg.norm(P, 2)) for P in (P0, *shifted))

    lam1 = complex(q.conj() @ (P0 @ q))
    res1 = float(np.linalg.norm(P0 @ q - lam1 * q))
    hyp1 = CheckResult(res1 <= 1e-9 * scale and abs(lam1) > 1e-9 * scale,
                       {"lambda": [lam1.real, lam1.imag], "residual": res1})

    res2 = max(float(np.linalg.norm(P @ q)) for P in shifted)
    hyp2 = CheckResult(res2 <= 1e-9 * scale, {"residual": res2})

    lam2 = complex(q.conj() @ (P0.conj().T @ q))
    res3 = float(np.linalg.norm(P0.conj().T @ q - lam2 * q))
    hyp3 = CheckResult(res3 <= 1e-9 * scale and abs(lam2) > 1e-9 * scale,
                       {"lambda": [lam2.real, lam2.imag], "residual": res3})

    sv = np.linalg.svd(P0, compute_uv=False)
    sigma_ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    hyp3bis = CheckResult(bool(sigma_ratio > len(sv) * EPS),
                          {"sigma_ratio": sigma_ratio})

    return {"q_eigvec_of_p0": hyp1, "q_kernel_of_p_shifted": hyp2,
            "q_eigvec_of_p0_adjoint": hyp3, "p0_nonsingular": hyp3bis}


def check_condition_ii(samples: ZeroSamples) -> CheckResult:
    """Fixed-point defect ||s(t0) q - q|| plus the shortcut route that
    certifies it (eigenvector route or nonsingular-p route)."""
    defect = samples.fixed_point_defect
    hyps = samples.hypotheses
    route = None
    if (hyps["q_eigvec_of_p0"].passed and hyps["q_kernel_of_p_shifted"].passed
            and hyps["q_eigvec_of_p0_adjoint"].passed):
        route = "eigenvector"
    elif (hyps["q_eigvec_of_p0"].passed and hyps["q_kernel_of_p_shifted"].passed
            and hyps["p0_nonsingular"].passed):
        route = "nonsingular"
    return CheckResult(defect <= 1e-9,
                       {"defect": defect, "route": route,
                        "hypotheses": {k: {"passed": v.passed, **v.evidence}
                                       for k, v in hyps.items()}})


def _projector_defect(p: MatrixTrigPolynomial) -> float:
    """max over a grid of SMALL_GRID_POINTS of ||s(t)^2 - s(t)||_F; zero
    identifies s as a projector, which settles condition (iii) with
    limit 0."""
    s = build_s_grid(p, sample_points(p.m, SMALL_GRID_POINTS))
    return float(np.max(np.linalg.norm(s @ s - s, axis=(1, 2))))


def condition_iii_verdict(samples: ZeroSamples) -> CheckResult:
    """The verdict of condition (iii) at the zero, in any number of
    variables.

    When s is a projector on a verification grid and the fixed point
    s(t0) q = q holds, the tracked eigenvalue is identically one and the
    limit is 0 without sampling (route "projector").  Otherwise
    (1 - lambda(s)) / lambda(f) is sampled at the dyadic points of
    ``samples`` (route "dyadic"); the sup norm of f scales the limit's
    noise floor and cap.
    """
    s0_defect = samples.fixed_point_defect
    idem = _projector_defect(samples.p)
    if idem <= 1e-9 and s0_defect <= 1e-9:
        return CheckResult(True, {"route": "projector", "c": 0.0, "spread": 0.0,
                                  "idempotency_defect": idem})
    fscale = samples.fscale
    direct = dyadic_limit(_s_gap(samples.p, samples.points, samples.q),
                          samples.f_branch, samples.directions,
                          numer_floor=100 * EPS, denom_floor=1e3 * EPS * fscale,
                          cap=RATIO_CAP / fscale)
    return CheckResult(direct.passed, {"route": "dyadic", "idempotency_defect": idem,
                                       **direct.evidence})


def check_condition_iii(samples: ZeroSamples) -> CheckResult:
    """Condition (iii) at the symbol zero: :func:`condition_iii_verdict`,
    with the simplified squared-shift ratio
    max |lambda(p(. + pi eta))|^2 / lambda(f) over the shifted corners
    measured and reported alongside as evidence."""
    fscale, pscale = samples.fscale, samples.pscale
    f_branch = samples.f_branch
    surrogate = dyadic_limit(
        samples.shifted_branch ** 2, f_branch, samples.directions,
        numer_floor=(100 * EPS * pscale) ** 2, denom_floor=1e3 * EPS * fscale,
        cap=RATIO_CAP * pscale ** 2 / fscale)
    verdict = condition_iii_verdict(samples)
    return CheckResult(verdict.passed, {
        **verdict.evidence,
        "surrogate_c": surrogate.evidence["c"], "surrogate_passed": surrogate.passed})


def check_vcycle_bound(samples: ZeroSamples) -> CheckResult:
    """The un-squared ratio max |lambda(p(. + pi eta))| / lambda(f) over
    the shifted corners that controls V-cycle optimality; the
    identically-vanishing branch is detected and reported explicitly.
    For m >= 2 one limit over every direction of approach is
    conservative: a bounded ratio whose limit depends on the direction
    fails with "directional estimates disagree"."""
    hyps = samples.hypotheses
    hypotheses_ok = (hyps["q_eigvec_of_p0"].passed
                     and hyps["q_kernel_of_p_shifted"].passed)
    fscale, pscale = samples.fscale, samples.pscale
    numer_floor = 100 * EPS * pscale
    branch = samples.shifted_branch
    if branch.max() < 10 * numer_floor:
        return CheckResult(hypotheses_ok, {
            "c": 0.0, "spread": 0.0, "vanishing_branch": True,
            "hypotheses_ok": hypotheses_ok,
            "max_branch_eigenvalue": float(branch.max())})

    est = dyadic_limit(branch, samples.f_branch, samples.directions,
                       numer_floor=numer_floor, denom_floor=1e3 * EPS * fscale,
                       cap=RATIO_CAP * pscale / fscale)
    return CheckResult(est.passed and hypotheses_ok, {
        "vanishing_branch": False, "hypotheses_ok": hypotheses_ok,
        **est.evidence})


def check_fhat_properties(samples: ZeroSamples) -> dict:
    """The five structural properties of the coarse symbol: Hermitian
    polynomial, nonnegative and positive elsewhere (outside an exclusion
    ball of max-norm radius 1e-3) on the GRID_POINTS samples of
    :func:`~blockmg.symbol.sample_points`, q in the kernel at the zero
    doubled on every axis, and the coarse/fine eigenvalue ratio tending
    to a nonzero constant (above 1e-8 sup|p|^2)."""
    p, t0, q = samples.p, samples.theta0, samples.q
    fhat = coarse_symbol(samples.f, p)
    out = {}

    out["hermitian"] = CheckResult(fhat.hermitian, {"window": max(fhat.window())})

    pts = sample_points(p.m, GRID_POINTS)
    eigs = np.linalg.eigvalsh(fhat.evaluate_grid(pts))
    scale = float(np.max(np.abs(eigs)))
    min_eig = float(eigs[:, 0].min())
    out["nonnegative"] = CheckResult(min_eig >= -1e-10 * scale,
                                     {"min_eig": min_eig, "scale": scale})

    kdef = float(np.linalg.norm(fhat.evaluate(2.0 * t0) @ q))
    out["kernel_at_doubled_zero"] = CheckResult(kdef <= 1e-10 * scale,
                                                {"defect": kdef})

    dist = np.abs(pts.reshape(len(pts), -1) - 2.0 * t0 % (2.0 * np.pi)) % (2.0 * np.pi)
    away = np.max(np.minimum(dist, 2.0 * np.pi - dist), axis=1) > 1e-3
    min_away = float(eigs[away, 0].min())
    out["positive_elsewhere"] = CheckResult(min_away > 1e-10 * scale,
                                            {"min_eig_outside_ball": min_away})

    fscale, pscale = samples.fscale, samples.pscale
    est = dyadic_limit(
        _f_branch(fhat, 2.0 * samples.points, q), samples.f_branch, samples.directions,
        numer_floor=1e3 * EPS * scale, denom_floor=1e3 * EPS * fscale,
        cap=RATIO_CAP * pscale ** 2)
    # the limit and its cap scale as |p|^2, as f_hat = p^H f p does
    # against f
    out["coarse_zero_same_order"] = CheckResult(
        est.passed and est.evidence["c"] > 1e-8 * pscale ** 2, est.evidence)
    return out


# -- aggregation -----------------------------------------------------------


def jsonable(obj):
    """Recursively convert report content to JSON-serializable values.

    A :class:`CheckResult` becomes ``{"passed": ..., **evidence}``, any
    other dataclass the dict of its fields in declaration order, a
    complex number the pair [real, imag] and a non-finite float its
    ``repr``."""
    if isinstance(obj, CheckResult):
        return {"passed": obj.passed, **jsonable(obj.evidence)}
    if is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return jsonable(obj.item())
    return obj


class Report:
    """A certificate, serialized field by field by :func:`jsonable`."""

    def to_dict(self) -> dict:
        return jsonable(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class ConditionReport(Report):
    """Aggregated verdicts and evidence for one (f, p) pair."""

    zero: SymbolZero
    condition_i: CheckResult
    condition_ii: CheckResult
    condition_iii: CheckResult
    vcycle_bound: CheckResult
    fhat_properties: dict
    shortcut_hypotheses: dict
    tgm_certified: bool
    vcycle_certified: bool


def _run_check(fn, *args) -> CheckResult:
    try:
        return fn(*args)
    except BlockmgError as exc:
        return _error_result(exc)


def full_report(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial) -> ConditionReport:
    """Run every check for the pair (f, p) and aggregate certification.

    Two-grid certification needs conditions (i)-(iii); V-cycle
    certification additionally needs the shifted-eigenvalue bound and
    all five coarse-symbol properties.  The pair may have any number m
    of variables.  Check failures are embedded per field, never raised,
    so the report always materializes.  A pair whose block orders differ
    (``DimensionError``) or whose variable counts differ
    (``ArgumentError``), and a malformed zero structure of f, raise
    before any check runs.  The checks at the zero share one
    :class:`ZeroSamples`, so each sample they have in common is computed
    once per report; a shared quantity that raises is recomputed, and
    its error reported, by each check that reads it.
    """
    if p.d != f.d:
        raise DimensionError(f"block order mismatch: p has d = {p.d}, f has d = {f.d}")
    if p.m != f.m:
        raise ArgumentError(
            f"variable count mismatch: p has m = {p.m}, f has m = {f.m}")
    zero = find_zero(f)
    samples = ZeroSamples(p, f, zero.theta0, zero.q_jbar)
    cond_i = _run_check(check_condition_i, p)
    cond_ii = _run_check(check_condition_ii, samples)
    cond_iii = _run_check(check_condition_iii, samples)
    vbound = _run_check(check_vcycle_bound, samples)
    try:
        fhat = check_fhat_properties(samples)
    except BlockmgError as exc:
        fhat = {name: _error_result(exc)
                for name in ("hermitian", "nonnegative", "kernel_at_doubled_zero",
                             "positive_elsewhere", "coarse_zero_same_order")}
    try:
        hyps = samples.hypotheses
    except BlockmgError as exc:
        hyps = {"error": _error_result(exc)}

    tgm = cond_i.passed and cond_ii.passed and cond_iii.passed
    vcyc = tgm and vbound.passed and all(r.passed for r in fhat.values())
    return ConditionReport(
        zero=zero, condition_i=cond_i, condition_ii=cond_ii,
        condition_iii=cond_iii, vcycle_bound=vbound, fhat_properties=fhat,
        shortcut_hypotheses=hyps, tgm_certified=tgm, vcycle_certified=vcyc)
