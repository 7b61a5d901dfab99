"""Numerical verification of the multigrid convergence conditions.

The checks certify, for a projector symbol p against a problem symbol f
with a single zero of its minimal eigenvalue function:

  (i)   positivity of the corner sum p^H p + shifted p^H p on a grid,
  (ii)  the fixed-point property s(t0) q = q on the singular eigenvector,
  (iii) boundedness of (1 - lambda(s)) / lambda(f) at the zero,

plus the un-squared ratio |lambda(p(. + pi))| / lambda(f) controlling
the V-cycle, and the five structural properties of the coarse symbol.

Analytic limits are certified by stabilization of dyadic-sample ratios,
never symbolically.  Two floating-point guards keep that criterion
meaningful in double precision: samples whose denominator falls below
the eigensolver noise floor are discarded, and numerator values
indistinguishable from zero are clamped to exactly zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import smallmat
from .errors import (ArgumentError, BlockmgError, DimensionError,
                     SingularMatrixError, TrackingError)
from .symbol import (MatrixTrigPolynomial, SymbolZero, coarse_symbol,
                     corner_sums, find_zero, sample_points, symbol_sup_norm,
                     theta_grid, tracked_eigenpair)

EPS = np.finfo(float).eps
OVERLAP_MIN = 0.6
DYADIC_K_MIN = 5
DYADIC_K_MAX = 25
TAIL = 5
REL_SPREAD = 1e-2
RATIO_CAP = 1e8
GRID_POINTS = 1024


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
    corner sum is singular, a pivot fails or the spectrum of s leaves
    [0, 1], naming that point.
    """
    ts = np.asarray(thetas, dtype=float)
    c = corner_sums(p, ts)
    w = np.linalg.eigvalsh(c)
    singular = np.flatnonzero(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 1.0))
    # Only the points before the first singular corner sum can fail
    # earlier, so only they are solved.  The pivot check cannot fire on a
    # corner sum that passed for d <= 100: its LU pivots are at least
    # lambda_min / sqrt(d), above 1e-14 ||c||_inf.
    n_ok = singular[0] if singular.size else len(ts)
    E = p.evaluate_grid(ts[:n_ok])
    EH = np.conj(np.swapaxes(E, 1, 2))
    s = E @ smallmat.solve(c[:n_ok], EH)
    s = 0.5 * (s + np.conj(np.swapaxes(s, 1, 2)))
    ws = np.linalg.eigvalsh(s)
    escaped = np.flatnonzero((ws[:, 0] < -1e-9) | (ws[:, -1] > 1.0 + 1e-9))
    if escaped.size:
        k = escaped[0]
        raise SingularMatrixError(
            f"s(theta) spectrum [{ws[k, 0]:.3e}, {ws[k, -1]:.3e}] escapes [0, 1]")
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
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    per_direction = []
    estimates = []
    for direction in directions:
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        ratios = []
        for k in range(k_min, k_max + 1):
            t = theta0 + direction * 2.0 ** (-k)
            den = denom_fn(t)
            if den <= denom_floor:
                continue
            num = numer_fn(t)
            if num < numer_floor:
                num = 0.0
            ratios.append(num / den)
        if len(ratios) < tail:
            return LimitEstimate(False, float("nan"), float("inf"),
                                 reason="insufficient usable samples",
                                 per_direction=per_direction)
        if max(ratios) > cap:
            return LimitEstimate(False, float("inf"), float("inf"), diverged=True,
                                 reason=f"ratio exceeded cap {cap:g}",
                                 per_direction=per_direction)
        tail_vals = ratios[-tail:]
        c_dir = float(np.mean(tail_vals))
        spread = float(np.max(tail_vals) - np.min(tail_vals))
        ok = spread <= rel_spread * max(abs(c_dir), 1e-6)
        if (not ok and all(np.diff(ratios) > 0)
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
    def fn(theta):
        lam, _, _ = tracked_eigenpair(f.evaluate(theta), q, OVERLAP_MIN)
        return lam
    return fn


def _s_gap_fn(p: MatrixTrigPolynomial, q: np.ndarray):
    def fn(theta):
        lam, _, _ = tracked_eigenpair(build_s(p, theta), q, OVERLAP_MIN)
        return 1.0 - lam
    return fn


def shifted_branch_eigenvalue(p: MatrixTrigPolynomial, theta, q: np.ndarray) -> complex:
    """Eigenvalue of the (generally non-Hermitian) matrix p(theta + pi)
    on the branch whose right eigenvector is closest to q.

    Nearby eigenvalues are treated as one cluster and matched through
    the overlap of q with the cluster's eigenvector span: a repeated
    eigenvalue (rank-deficient projector symbols have multidimensional
    kernels) splits numerically by sqrt(eps) and its individual
    eigenvectors are arbitrary within the span.  The returned value is
    the cluster mean, which cancels that splitting to first order.
    """
    mat = p.evaluate(np.atleast_1d(np.asarray(theta, dtype=float)) + np.pi)
    w, V = scipy.linalg.eig(mat)
    scale = max(np.linalg.norm(mat, 2), 1.0)
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
        U, s, _ = np.linalg.svd(V[:, cluster], full_matrices=False)
        basis = U[:, s > 1e-10 * s[0]]
        overlap = float(np.linalg.norm(basis.conj().T @ q))
        if overlap > best_overlap:
            best_overlap = overlap
            best_value = complex(np.mean(w[cluster]))
    if best_overlap < OVERLAP_MIN:
        raise TrackingError(
            f"overlap {best_overlap:.3f} below {OVERLAP_MIN} while tracking "
            f"the shifted projector eigenvalue at theta={theta}")
    return best_value


# -- conditions (i), (ii), (iii) -------------------------------------------


def check_condition_i(p: MatrixTrigPolynomial,
                      npoints: int = GRID_POINTS) -> CheckResult:
    """Grid minimum of the smallest corner-sum eigenvalue; positive means
    s(theta) is well-defined everywhere."""
    eigs = np.linalg.eigvalsh(corner_sums(p, sample_points(p.m, npoints)))
    min_eig = float(eigs[:, 0].min())
    max_eig = float(eigs[:, -1].max())
    passed = min_eig > 1e-10 * max_eig
    return CheckResult(passed, {"min_eig": min_eig, "max_eig": max_eig,
                                "npoints": int(npoints)})


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


def check_condition_ii(p: MatrixTrigPolynomial, zero: SymbolZero) -> CheckResult:
    """Fixed-point defect ||s(t0) q - q|| plus the shortcut route that
    certifies it (eigenvector route or nonsingular-p route)."""
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    s0 = build_s(p, t0)
    defect = float(np.linalg.norm(s0 @ q - q))
    hyps = fixed_point_shortcut_hypotheses(p, zero)
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


def projector_defect(p: MatrixTrigPolynomial, npoints: int = 256) -> float:
    """max over a grid of ||s(t)^2 - s(t)||_F; zero identifies s as a
    projector, which settles condition (iii) with limit 0."""
    s = build_s_grid(p, sample_points(p.m, npoints))
    return float(np.max(np.linalg.norm(s @ s - s, axis=(1, 2))))


def check_condition_iii(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial,
                        zero: SymbolZero) -> CheckResult:
    """Stabilization of (1 - lambda(s)) / lambda(f) at the symbol zero.

    When s is a projector on a verification grid (and the fixed point
    holds) the tracked eigenvalue is identically one and the limit is 0
    without sampling.  The simplified squared-shift ratio
    |lambda(p(. + pi))|^2 / lambda(f) is measured and reported alongside
    either way.
    """
    if p.m != 1 or f.m != 1:
        raise ArgumentError("univariate checker; use the multilevel module for m > 1")
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    fscale = symbol_sup_norm(f, 256)
    pscale = symbol_sup_norm(p, 256)
    denom_floor = 1e3 * EPS * fscale
    dirs = _axis_directions(1)

    surrogate = dyadic_limit(
        lambda t: abs(shifted_branch_eigenvalue(p, t, q)) ** 2,
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
                       zero: SymbolZero) -> CheckResult:
    """The un-squared ratio |lambda(p(. + pi))| / lambda(f) that controls
    V-cycle optimality; the identically-vanishing branch is detected and
    reported explicitly."""
    if p.m != 1 or f.m != 1:
        raise ArgumentError("univariate checker; use the multilevel module for m > 1")
    t0 = np.asarray(zero.theta0, dtype=float)
    q = zero.q_jbar
    hyps = fixed_point_shortcut_hypotheses(p, zero)
    hypotheses_ok = (hyps["q_eigvec_of_p0"].passed
                     and hyps["q_kernel_of_p_shifted"].passed)
    pscale = symbol_sup_norm(p, 256)
    fscale = symbol_sup_norm(f, 256)
    numer_floor = 100 * EPS * pscale

    raw = []
    for k in range(DYADIC_K_MIN, DYADIC_K_MAX + 1):
        for sgn in (1.0, -1.0):
            raw.append(abs(shifted_branch_eigenvalue(p, t0 + sgn * 2.0 ** (-k), q)))
    vanishing = max(raw) < 10 * numer_floor
    if vanishing:
        return CheckResult(hypotheses_ok, {
            "c": 0.0, "spread": 0.0, "vanishing_branch": True,
            "hypotheses_ok": hypotheses_ok,
            "max_branch_eigenvalue": float(max(raw))})

    est = dyadic_limit(
        lambda t: abs(shifted_branch_eigenvalue(p, t, q)),
        _f_branch_fn(f, q), t0, _axis_directions(1),
        numer_floor=numer_floor, denom_floor=1e3 * EPS * fscale)
    return CheckResult(est.passed and hypotheses_ok, {
        "vanishing_branch": False, "hypotheses_ok": hypotheses_ok,
        **est.as_evidence()})


def _periodic_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def check_fhat_properties(p: MatrixTrigPolynomial, f: MatrixTrigPolynomial,
                          zero: SymbolZero,
                          npoints: int = GRID_POINTS) -> dict:
    """The five structural properties of the coarse symbol: Hermitian
    polynomial, nonnegative, q in the kernel at the doubled zero,
    positive elsewhere (outside a 1e-3 exclusion ball), and the
    coarse/fine eigenvalue ratio tending to a nonzero constant."""
    fhat = coarse_symbol(f, p)
    t0 = float(zero.theta0[0])
    q = zero.q_jbar
    out = {}

    out["hermitian"] = CheckResult(fhat.hermitian, {"window": fhat.window()[0]})

    pts = theta_grid(npoints)
    eigs = np.linalg.eigvalsh(fhat.evaluate_grid(pts))
    scale = float(np.max(np.abs(eigs)))
    min_eig = float(eigs[:, 0].min())
    out["nonnegative"] = CheckResult(min_eig >= -1e-10 * scale,
                                     {"min_eig": min_eig, "scale": scale})

    kdef = float(np.linalg.norm(fhat.evaluate(2.0 * t0) @ q))
    out["kernel_at_doubled_zero"] = CheckResult(kdef <= 1e-10 * max(scale, 1.0),
                                                {"defect": kdef})

    away = np.array([_periodic_distance(t, 2.0 * t0 % (2.0 * np.pi)) > 1e-3
                     for t in pts])
    min_away = float(eigs[away, 0].min())
    out["positive_elsewhere"] = CheckResult(min_away > 1e-10 * scale,
                                            {"min_eig_outside_ball": min_away})

    fscale = symbol_sup_norm(f, 256)
    fhat_branch = _f_branch_fn(fhat, q)
    est = dyadic_limit(
        lambda theta: fhat_branch(2.0 * theta),
        _f_branch_fn(f, q), np.array([t0]), _axis_directions(1),
        numer_floor=1e3 * EPS * scale, denom_floor=1e3 * EPS * fscale)
    out["coarse_zero_same_order"] = CheckResult(
        est.passed and est.c > 1e-8, est.as_evidence())
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

    zero: dict
    condition_i: CheckResult
    condition_ii: CheckResult
    condition_iii: CheckResult
    vcycle_bound: CheckResult
    fhat_properties: dict
    shortcut_hypotheses: dict
    tgm_certified: bool
    vcycle_certified: bool

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


def _run_check(fn, *args) -> CheckResult:
    try:
        return fn(*args)
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
    f, raise before any check runs.
    """
    if p.d != f.d:
        raise DimensionError(f"block order mismatch: p has d = {p.d}, f has d = {f.d}")
    if p.m != f.m:
        raise ArgumentError(
            f"variable count mismatch: p has m = {p.m}, f has m = {f.m}")
    zero = find_zero(f)
    cond_i = _run_check(check_condition_i, p)
    cond_ii = _run_check(check_condition_ii, p, zero)
    cond_iii = _run_check(check_condition_iii, p, f, zero)
    vbound = _run_check(check_vcycle_bound, p, f, zero)
    try:
        fhat = check_fhat_properties(p, f, zero)
    except BlockmgError as exc:
        fhat = {name: _error_result(exc)
                for name in ("hermitian", "nonnegative", "kernel_at_doubled_zero",
                             "positive_elsewhere", "coarse_zero_same_order")}
    try:
        hyps = fixed_point_shortcut_hypotheses(p, zero)
    except BlockmgError as exc:
        hyps = {"error": _error_result(exc)}

    tgm = cond_i.passed and cond_ii.passed and cond_iii.passed
    vcyc = tgm and vbound.passed and all(r.passed for r in fhat.values())
    zero_info = {
        "theta0": [float(v) for v in zero.theta0],
        "jbar": zero.jbar,
        "order": zero.order,
        "q_jbar": [[v.real, v.imag] for v in zero.q_jbar],
    }
    return ConditionReport(
        zero=zero_info, condition_i=cond_i, condition_ii=cond_ii,
        condition_iii=cond_iii, vcycle_bound=vbound, fhat_properties=fhat,
        shortcut_hypotheses=hyps, tgm_certified=tgm, vcycle_certified=vcyc)
