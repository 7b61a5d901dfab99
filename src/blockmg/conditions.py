"""Numerical verification of the multigrid convergence conditions.

The checks certify, for a projector symbol p against a problem symbol f
with a single zero of its minimal eigenvalue function:

  (i)   positivity of the corner sum p^H p + shifted p^H p on a grid,
  (ii)  the fixed-point property s(t0) q = q on the singular eigenvector,
  (iii) boundedness of (1 - lambda(s)) / lambda(f) at the zero,

plus the un-squared ratio |lambda(p(. + pi))| / lambda(f) controlling
the V-cycle, and the five structural properties of the coarse symbol.

Analytic limits are certified by stabilization of dyadic-sample ratios,
never symbolically.  Each limit is one stacked evaluation: the sample
points of all directions go through the denominator in one batched
call, and those it leaves usable through the numerator in one more
(Gram quotients, tracked eigenpairs and shifted-projector eigenvalues
all work on stacks).  Two floating-point guards keep that criterion
meaningful in double precision: samples whose denominator falls below
the eigensolver noise floor are discarded, and numerator values
indistinguishable from zero are clamped to exactly zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import smallmat
from .errors import (ArgumentError, BlockmgError, DimensionError,
                     SingularMatrixError, TrackingError)
from .symbol import (OVERLAP_MIN, MatrixTrigPolynomial, SymbolZero,
                     coarse_symbol, corner_sums, find_zero, sample_points,
                     symbol_sup_norm, theta_grid, tracked_eigenpairs)

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
    that point.
    """
    ts = np.asarray(thetas, dtype=float)
    c = corner_sums(p, ts)
    w, U = np.linalg.eigh(c)
    singular = np.flatnonzero(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 1.0))
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


@dataclass
class LimitEstimate:
    """Outcome of a stabilized dyadic-ratio limit check."""

    passed: bool
    c: float
    spread: float
    diverged: bool = False
    reason: str = ""
    per_direction: list = field(default_factory=list)

    def as_evidence(self) -> dict:
        return {"c": self.c, "spread": self.spread, "diverged": self.diverged,
                "reason": self.reason, "per_direction": self.per_direction}


def _dyadic_points(theta0, directions, k_min: int = DYADIC_K_MIN,
                   k_max: int = DYADIC_K_MAX) -> np.ndarray:
    """The sample points theta0 + 2^-k d of :func:`dyadic_limit`, shape
    (n_dir * (k_max - k_min + 1), m): direction by direction, k ascending
    within each."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    dirs = np.array([np.atleast_1d(np.asarray(d, dtype=float)) for d in directions])
    steps = 2.0 ** -np.arange(k_min, k_max + 1)
    return (theta0 + dirs[:, None, :] * steps[:, None]).reshape(-1, len(theta0))


def _values_until_error(fn, ts):
    """``fn`` on the stack ``ts`` as (values, error).  When the stacked call
    raises, the points are retried one at a time: ``values`` then covers
    the points before the first failing one and ``error`` is what that
    point raised."""
    try:
        return np.asarray(fn(ts), dtype=float), None
    except BlockmgError as stack_error:
        values = []
        for t in ts:
            try:
                values.extend(fn(t[None]))
            except BlockmgError as exc:
                return np.array(values, dtype=float), exc
        raise stack_error


def dyadic_limit(numer_fn, denom_fn, theta0, directions, *,
                 numer_floor: float, denom_floor: float,
                 k_min: int = DYADIC_K_MIN, k_max: int = DYADIC_K_MAX,
                 tail: int = TAIL, rel_spread: float = REL_SPREAD,
                 cap: float = RATIO_CAP) -> LimitEstimate:
    """Certify lim numer/denom along dyadic approaches to theta0.

    For each direction the points theta0 + 2^-k d are sampled for
    k = k_min..k_max; the limit is accepted when the last ``tail``
    usable ratios have spread below ``rel_spread`` (relative to the
    estimate) in every direction, the directional estimates agree, and
    no ratio exceeds ``cap``.

    ``denom_fn`` and ``numer_fn`` map a stack of points (n, m) to values
    (n,).  All points of all directions form one stack, direction by
    direction with k ascending: ``denom_fn`` runs once on it and
    ``numer_fn`` once on the points whose denominator clears
    ``denom_floor``.  ``numer_fn`` may instead be the numerator's values
    at every sample point, when the caller holds them already.  The
    directions are then judged in order, and an error raised by either
    function surfaces only if the judgement reaches its point, as if the
    points were evaluated one by one, direction by direction, the
    denominator before the numerator.
    """
    directions = [np.atleast_1d(np.asarray(d, dtype=float)) for d in directions]
    ts = _dyadic_points(theta0, directions, k_min, k_max)
    den, den_error = _values_until_error(denom_fn, ts)
    usable = np.flatnonzero(den > denom_floor)
    if callable(numer_fn):
        num, num_error = _values_until_error(numer_fn, ts[usable])
    else:
        num, num_error = np.asarray(numer_fn, dtype=float)[usable], None
    # every usable point precedes a denominator failure, so a numerator
    # failure is always the earlier one
    fail_at, error = ((usable[len(num)], num_error) if num_error is not None
                      else (len(den), den_error))
    done = usable[:len(num)]
    have = np.zeros(len(ts), dtype=bool)
    have[done] = True
    ratio = np.zeros(len(ts))
    ratio[done] = np.where(num < numer_floor, 0.0, num) / den[done]

    n_k = k_max - k_min + 1
    per_direction = []
    estimates = []
    for i, direction in enumerate(directions):
        if error is not None and fail_at < (i + 1) * n_k:
            raise error
        block = slice(i * n_k, (i + 1) * n_k)
        ratios = ratio[block][have[block]]
        if len(ratios) < tail:
            return LimitEstimate(False, float("nan"), float("inf"),
                                 reason="insufficient usable samples",
                                 per_direction=per_direction)
        if ratios.max() > cap:
            return LimitEstimate(False, float("inf"), float("inf"), diverged=True,
                                 reason=f"ratio exceeded cap {cap:g}",
                                 per_direction=per_direction)
        tail_vals = ratios[-tail:]
        c_dir = float(np.mean(tail_vals))
        spread = float(np.max(tail_vals) - np.min(tail_vals))
        ok = spread <= rel_spread * max(abs(c_dir), 1e-6)
        if (not ok and np.all(np.diff(ratios) > 0)
                and ratios[-1] > 100.0 * max(ratios[0], 1e-300)):
            # a power-law blow-up whose usable window (limited by the
            # denominator noise floor) ends before the cap is reached
            return LimitEstimate(False, float("inf"), float("inf"), diverged=True,
                                 reason="monotone growth throughout the window",
                                 per_direction=per_direction)
        per_direction.append({"direction": [float(v) for v in direction],
                              "c": c_dir, "spread": spread, "stabilized": ok})
        estimates.append(c_dir)
    lo, hi = min(estimates), max(estimates)
    agree = (hi - lo) <= max(rel_spread * max(abs(lo), abs(hi)), 1e-6)
    passed = agree and all(d["stabilized"] for d in per_direction)
    c = float(np.mean(estimates))
    spread = max(d["spread"] for d in per_direction)
    reason = "" if passed else ("directional estimates disagree" if not agree
                                else "tail not stabilized")
    return LimitEstimate(passed, c, spread, reason=reason,
                         per_direction=per_direction)


def _axis_directions(m: int):
    if m == 1:
        return [np.array([1.0]), np.array([-1.0])]
    dirs = []
    for k in range(8):
        a = 2.0 * np.pi * k / 8.0
        dirs.append(np.array([np.cos(a), np.sin(a)]))
    return dirs


def _f_branch_fn(f: MatrixTrigPolynomial, q: np.ndarray):
    def fn(ts):
        return tracked_eigenpairs(f.evaluate_grid(ts), q)[0]
    return fn


def _s_gap_fn(p: MatrixTrigPolynomial, q: np.ndarray):
    def fn(ts):
        return 1.0 - tracked_eigenpairs(build_s_grid(p, ts), q)[0]
    return fn


def shifted_branch_eigenvalue(p: MatrixTrigPolynomial, thetas,
                              q: np.ndarray) -> np.ndarray:
    """Eigenvalues of the (generally non-Hermitian) matrices
    p(theta + pi) at a stack of points, shape (n,) (thetas as for
    :meth:`~MatrixTrigPolynomial.evaluate_grid`), each on the branch
    whose right eigenvector is closest to q.

    One batched evaluation and one batched eigendecomposition serve the
    whole stack.  Nearby eigenvalues are treated as one cluster and
    matched through the overlap of q with the cluster's eigenvector
    span: a repeated eigenvalue (rank-deficient projector symbols have
    multidimensional kernels) splits numerically by sqrt(eps) and its
    individual eigenvectors are arbitrary within the span.  The returned
    value is the cluster mean, which cancels that splitting to first
    order.  Raises TrackingError at the first point whose best overlap
    falls below OVERLAP_MIN, naming it.
    """
    ts = np.asarray(thetas, dtype=float).reshape(-1, p.m)
    mats = p.evaluate_grid(ts + np.pi)
    ws, Vs = np.linalg.eig(mats)
    scales = np.maximum(np.linalg.norm(mats, 2, axis=(1, 2)), 1.0)
    out = np.empty(len(ts), dtype=complex)
    for n, (w, V, scale) in enumerate(zip(ws, Vs, scales)):
        clusters = []
        for idx in np.argsort(np.abs(w)):
            for cluster in clusters:
                if abs(w[idx] - w[cluster[0]]) <= 1e-6 * scale:
                    cluster.append(idx)
                    break
            else:
                clusters.append([idx])
        best_overlap, best_value = -1.0, 0.0j
        for cluster in clusters:
            if len(cluster) == 1:
                v = V[:, cluster[0]]
                overlap = abs(np.vdot(v, q)) / np.linalg.norm(v)
            else:
                U, sv, _ = np.linalg.svd(V[:, cluster], full_matrices=False)
                overlap = np.linalg.norm(U[:, sv > 1e-10 * sv[0]].conj().T @ q)
            if overlap > best_overlap:
                best_overlap = float(overlap)
                best_value = complex(np.mean(w[cluster]))
        if best_overlap < OVERLAP_MIN:
            raise TrackingError(
                f"overlap {best_overlap:.3f} below {OVERLAP_MIN} while tracking "
                f"the shifted projector eigenvalue at theta={ts[n]}")
        out[n] = best_value
    return out


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


def fixed_point_shortcut_hypotheses(p: MatrixTrigPolynomial, zero: SymbolZero) -> dict:
    """The eigenvector hypotheses that shortcut condition (ii).

    Checks, at the symbol zero t0 with singular eigenvector q: q is an
    eigenvector of p(t0) (nonzero eigenvalue), q is killed by
    p(t0 + pi), q is an eigenvector of p(t0)^H (nonzero eigenvalue),
    and p(t0) is nonsingular.
    """
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    P0 = p.evaluate(t0)
    Ppi = p.evaluate(t0 + np.pi)
    scale = max(smallmat.spectral_norm(P0), smallmat.spectral_norm(Ppi), 1.0)

    lam1 = complex(q.conj() @ (P0 @ q))
    res1 = float(np.linalg.norm(P0 @ q - lam1 * q))
    hyp1 = CheckResult(res1 <= 1e-9 * scale and abs(lam1) > 1e-9 * scale,
                       {"lambda": [lam1.real, lam1.imag], "residual": res1})

    res2 = float(np.linalg.norm(Ppi @ q))
    hyp2 = CheckResult(res2 <= 1e-9 * scale, {"residual": res2})

    lam2 = complex(q.conj() @ (P0.conj().T @ q))
    res3 = float(np.linalg.norm(P0.conj().T @ q - lam2 * q))
    hyp3 = CheckResult(res3 <= 1e-9 * scale and abs(lam2) > 1e-9 * scale,
                       {"lambda": [lam2.real, lam2.imag], "residual": res3})

    det0 = abs(smallmat.det(P0))
    hyp3bis = CheckResult(det0 > 1e-12, {"abs_det": det0})

    return {"q_eigvec_of_p0": hyp1, "q_kernel_of_p_shifted": hyp2,
            "q_eigvec_of_p0_adjoint": hyp3, "p0_nonsingular": hyp3bis}


def check_condition_ii(p: MatrixTrigPolynomial, zero: SymbolZero, *,
                       _hyps=None) -> CheckResult:
    """Fixed-point defect ||s(t0) q - q|| plus the shortcut route that
    certifies it (eigenvector route or nonsingular-p route).

    ``_hyps`` is :func:`fixed_point_shortcut_hypotheses` of (p, zero)
    when the caller has it already."""
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    s0 = build_s(p, t0)
    defect = float(np.linalg.norm(s0 @ q - q))
    hyps = _hyps or fixed_point_shortcut_hypotheses(p, zero)
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


def projector_defect(p: MatrixTrigPolynomial) -> float:
    """max over a grid of SMALL_GRID_POINTS of ||s(t)^2 - s(t)||_F; zero
    identifies s as a projector, which settles condition (iii) with
    limit 0."""
    s = build_s_grid(p, sample_points(p.m, SMALL_GRID_POINTS))
    return float(np.max(np.linalg.norm(s @ s - s, axis=(1, 2))))


def _sup_norms(f: MatrixTrigPolynomial, p: MatrixTrigPolynomial):
    """The sup norms of f and p that scale the noise floors of the limits."""
    return (symbol_sup_norm(f, SMALL_GRID_POINTS),
            symbol_sup_norm(p, SMALL_GRID_POINTS))


def check_condition_iii(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial,
                        zero: SymbolZero, *, _scales=None, _branch=None) -> CheckResult:
    """Stabilization of (1 - lambda(s)) / lambda(f) at the symbol zero.

    When s is a projector on a verification grid (and the fixed point
    holds) the tracked eigenvalue is identically one and the limit is 0
    without sampling.  The simplified squared-shift ratio
    |lambda(p(. + pi))|^2 / lambda(f) is measured and reported alongside
    either way.  ``_scales`` is ``_sup_norms(f, p)`` when the caller has
    it already, and ``_branch`` is ``|shifted_branch_eigenvalue|`` at the
    dyadic sample points of the limit (:func:`_dyadic_points` of t0 and
    the two axis directions).
    """
    if p.m != 1 or f.m != 1:
        raise ArgumentError("univariate checker; use the multilevel module for m > 1")
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    fscale, pscale = _scales or _sup_norms(f, p)
    denom_floor = 1e3 * EPS * fscale
    dirs = _axis_directions(1)

    surrogate = dyadic_limit(
        (lambda ts: np.abs(shifted_branch_eigenvalue(p, ts, q)) ** 2)
        if _branch is None else _branch ** 2,
        _f_branch_fn(f, q), t0, dirs,
        numer_floor=(100 * EPS * pscale) ** 2, denom_floor=denom_floor)

    s0_defect = float(np.linalg.norm(build_s(p, t0) @ q - q))
    idem = projector_defect(p)
    if idem <= 1e-9 and s0_defect <= 1e-9:
        return CheckResult(True, {
            "route": "projector", "c": 0.0, "spread": 0.0,
            "idempotency_defect": idem,
            "surrogate_c": surrogate.c, "surrogate_passed": surrogate.passed})

    direct = dyadic_limit(_s_gap_fn(p, q), _f_branch_fn(f, q), t0, dirs,
                          numer_floor=100 * EPS, denom_floor=denom_floor)
    return CheckResult(direct.passed, {
        "route": "dyadic", "idempotency_defect": idem,
        **direct.as_evidence(),
        "surrogate_c": surrogate.c, "surrogate_passed": surrogate.passed})


def check_vcycle_bound(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial,
                       zero: SymbolZero, *, _hyps=None, _scales=None,
                       _branch=None) -> CheckResult:
    """The un-squared ratio |lambda(p(. + pi))| / lambda(f) that controls
    V-cycle optimality; the identically-vanishing branch is detected and
    reported explicitly.  ``_hyps`` is as for :func:`check_condition_ii`,
    and ``_scales`` and ``_branch`` as for :func:`check_condition_iii`."""
    if p.m != 1 or f.m != 1:
        raise ArgumentError("univariate checker; use the multilevel module for m > 1")
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    hyps = _hyps or fixed_point_shortcut_hypotheses(p, zero)
    hypotheses_ok = (hyps["q_eigvec_of_p0"].passed
                     and hyps["q_kernel_of_p_shifted"].passed)
    fscale, pscale = _scales or _sup_norms(f, p)
    numer_floor = 100 * EPS * pscale

    # unless shared, the branch at every sample point of the limit,
    # evaluated k by k (both signs of each k in turn) so that an error
    # names the first failing point in that order
    dirs = _axis_directions(1)
    branch = _branch
    if branch is None:
        pts = _dyadic_points(t0, dirs)
        by_k = np.arange(len(pts)).reshape(len(dirs), -1).T.ravel()
        branch = np.empty(len(pts))
        branch[by_k] = np.abs(shifted_branch_eigenvalue(p, pts[by_k], q))
    if branch.max() < 10 * numer_floor:
        return CheckResult(hypotheses_ok, {
            "c": 0.0, "spread": 0.0, "vanishing_branch": True,
            "hypotheses_ok": hypotheses_ok,
            "max_branch_eigenvalue": float(branch.max())})

    est = dyadic_limit(branch, _f_branch_fn(f, q), t0, dirs,
                       numer_floor=numer_floor, denom_floor=1e3 * EPS * fscale)
    return CheckResult(est.passed and hypotheses_ok, {
        "vanishing_branch": False, "hypotheses_ok": hypotheses_ok,
        **est.as_evidence()})


def check_fhat_properties(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial,
                          zero: SymbolZero, *, _scales=None) -> dict:
    """The five structural properties of the coarse symbol: Hermitian
    polynomial, nonnegative and positive elsewhere (outside a 1e-3
    exclusion ball) on a grid of GRID_POINTS, q in the kernel at the
    doubled zero, and the coarse/fine eigenvalue ratio tending to a
    nonzero constant (above 1e-8 sup|p|^2).  ``_scales`` is as for
    :func:`check_condition_iii`."""
    fhat = coarse_symbol(f, p)
    t0 = float(zero.theta0[0])
    q = zero.q_jbar
    out = {}

    out["hermitian"] = CheckResult(fhat.hermitian, {"window": fhat.window()[0]})

    pts = theta_grid(GRID_POINTS)
    eigs = np.linalg.eigvalsh(fhat.evaluate_grid(pts))
    scale = float(np.max(np.abs(eigs)))
    min_eig = float(eigs[:, 0].min())
    out["nonnegative"] = CheckResult(min_eig >= -1e-10 * scale,
                                     {"min_eig": min_eig, "scale": scale})

    kdef = float(np.linalg.norm(fhat.evaluate(2.0 * t0) @ q))
    out["kernel_at_doubled_zero"] = CheckResult(kdef <= 1e-10 * max(scale, 1.0),
                                                {"defect": kdef})

    dist = np.abs(pts - 2.0 * t0 % (2.0 * np.pi)) % (2.0 * np.pi)
    away = np.minimum(dist, 2.0 * np.pi - dist) > 1e-3
    min_away = float(eigs[away, 0].min())
    out["positive_elsewhere"] = CheckResult(min_away > 1e-10 * scale,
                                            {"min_eig_outside_ball": min_away})

    fscale, pscale = _scales or _sup_norms(f, p)
    fhat_branch = _f_branch_fn(fhat, q)
    est = dyadic_limit(
        lambda ts: fhat_branch(2.0 * ts),
        _f_branch_fn(f, q), np.array([t0]), _axis_directions(1),
        numer_floor=1e3 * EPS * scale, denom_floor=1e3 * EPS * fscale)
    # the limit scales as |p|^2, as f_hat = p^H f p does against f
    out["coarse_zero_same_order"] = CheckResult(
        est.passed and est.c > 1e-8 * pscale ** 2, est.as_evidence())
    return out


# -- aggregation -----------------------------------------------------------


def jsonable(obj):
    """Recursively convert report content to JSON-serializable values."""
    if isinstance(obj, CheckResult):
        return {"passed": obj.passed,
                **{k: jsonable(v) for k, v in obj.evidence.items()}}
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


@dataclass
class ConditionReport:
    """Aggregated verdicts and evidence for one (f, p) pair."""

    symbol_zero: SymbolZero
    condition_i: CheckResult
    condition_ii: CheckResult
    condition_iii: CheckResult
    vcycle_bound: CheckResult
    fhat_properties: dict
    shortcut_hypotheses: dict
    tgm_certified: bool
    vcycle_certified: bool

    @property
    def zero(self) -> dict:
        """The zero of f as the report shows it."""
        z = self.symbol_zero
        return {
            "theta0": [float(v) for v in z.theta0],
            "jbar": z.jbar,
            "order": z.order,
            "q_jbar": [[v.real, v.imag] for v in z.q_jbar],
        }

    def to_dict(self) -> dict:
        return {
            "zero": jsonable(self.zero),
            "condition_i": jsonable(self.condition_i),
            "condition_ii": jsonable(self.condition_ii),
            "condition_iii": jsonable(self.condition_iii),
            "vcycle_bound": jsonable(self.vcycle_bound),
            "fhat_properties": jsonable(self.fhat_properties),
            "shortcut_hypotheses": jsonable(self.shortcut_hypotheses),
            "tgm_certified": self.tgm_certified,
            "vcycle_certified": self.vcycle_certified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _run_check(fn, *args, **kwargs) -> CheckResult:
    try:
        return fn(*args, **kwargs)
    except BlockmgError as exc:
        return _error_result(exc)


def full_report(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial) -> ConditionReport:
    """Run every check for the pair (f, p) and aggregate certification.

    Two-grid certification needs conditions (i)-(iii); V-cycle
    certification additionally needs the shifted-eigenvalue bound and
    all five coarse-symbol properties.  Check failures are embedded per
    field, never raised, so the report always materializes.  A pair
    whose block orders differ (``DimensionError``) or whose variable
    counts differ (``ArgumentError``), and a malformed zero structure of
    f, raise before any check runs, and so does a multivariate pair,
    which :func:`~blockmg.multilevel.check_multilevel_conditions`
    certifies.  The shortcut hypotheses, the sup norms of f and p and
    the shifted projector branch |lambda(p(. + pi))| at the dyadic sample
    points are computed once and shared by the checks; when the branch
    raises, each check tracks it, and reports the error, on its own.
    """
    if p.d != f.d:
        raise DimensionError(f"block order mismatch: p has d = {p.d}, f has d = {f.d}")
    if p.m != f.m:
        raise ArgumentError(
            f"variable count mismatch: p has m = {p.m}, f has m = {f.m}")
    if p.m != 1:
        raise ArgumentError(
            f"full_report certifies univariate pairs, got m = {p.m}; certify "
            f"multivariate pairs with multilevel.check_multilevel_conditions")
    zero = find_zero(f)
    scales = _sup_norms(f, p)
    try:
        hyps = shared = fixed_point_shortcut_hypotheses(p, zero)
    except BlockmgError as exc:
        # the checks that use the hypotheses then raise this themselves
        hyps, shared = {"error": _error_result(exc)}, None
    try:
        branch = np.abs(shifted_branch_eigenvalue(
            p, _dyadic_points(zero.theta0, _axis_directions(1)), zero.q_jbar))
    except BlockmgError:
        branch = None
    cond_i = _run_check(check_condition_i, p)
    cond_ii = _run_check(check_condition_ii, p, zero, _hyps=shared)
    cond_iii = _run_check(check_condition_iii, p, f, zero, _scales=scales,
                          _branch=branch)
    vbound = _run_check(check_vcycle_bound, p, f, zero, _hyps=shared,
                        _scales=scales, _branch=branch)
    try:
        fhat = check_fhat_properties(p, f, zero, _scales=scales)
    except BlockmgError as exc:
        fhat = {name: _error_result(exc)
                for name in ("hermitian", "nonnegative", "kernel_at_doubled_zero",
                             "positive_elsewhere", "coarse_zero_same_order")}

    tgm = cond_i.passed and cond_ii.passed and cond_iii.passed
    vcyc = tgm and vbound.passed and all(r.passed for r in fhat.values())
    return ConditionReport(
        symbol_zero=zero, condition_i=cond_i, condition_ii=cond_ii,
        condition_iii=cond_iii, vcycle_bound=vbound, fhat_properties=fhat,
        shortcut_hypotheses=hyps, tgm_certified=tgm, vcycle_certified=vcyc)
