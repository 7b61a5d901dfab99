import json

import numpy as np
import pytest
import scipy.linalg

from blockmg import (MatrixTrigPolynomial, build_s, build_s_grid, conditions,
                     check_condition_i,
                     check_condition_ii, check_condition_iii,
                     check_fhat_properties, check_vcycle_bound, find_zero,
                     full_report)
from blockmg.conditions import (EPS, OVERLAP_MIN, _axis_directions, _f_branch_fn,
                                _s_gap_fn, dyadic_limit,
                                fixed_point_shortcut_hypotheses, jsonable,
                                projector_defect,
                                shifted_branch_eigenvalue)
from blockmg.errors import SingularMatrixError, TrackingError
from blockmg.femgen import (build_geometric_symbol, build_linear_interp_symbol,
                            stiffness_symbol)
from blockmg.symbol import (coarse_symbol, symbol_sup_norm, tensor_symbol, theta_grid,
                            tracked_eigenpairs)

LAPLACE = MatrixTrigPolynomial.scalar({0: 2.0, 1: -1.0, -1: -1.0})
INTERP = MatrixTrigPolynomial.scalar({0: 2.0, 1: 1.0, -1: 1.0})
HAT = MatrixTrigPolynomial.scalar({0: 1.0, 1: 0.5, -1: 0.5})      # 1 + cos
ONE = MatrixTrigPolynomial.scalar({0: 1.0})


class TestBuildS:
    def test_scalar_hat_at_zero(self):
        np.testing.assert_allclose(build_s(HAT, 0.0), [[1.0]], atol=1e-12)

    def test_p_l2_at_zero(self, p_l2):
        np.testing.assert_allclose(build_s(p_l2, 0.0),
                                   0.5 * np.ones((2, 2)), atol=1e-12)

    def test_fixed_point_on_singular_vector(self, p_l2):
        q = np.ones(2) / np.sqrt(2)
        s0 = build_s(p_l2, 0.0)
        np.testing.assert_allclose(s0 @ q, q, atol=1e-12)

    def test_singular_corner_sum_raises(self):
        # p vanishing at both theta and theta + pi
        p = MatrixTrigPolynomial.scalar({2: 0.5, -2: 0.5})  # cos(2 theta)
        with pytest.raises(SingularMatrixError):
            build_s(p, np.pi / 4)

    @pytest.mark.parametrize("m", [1, 2])
    def test_grid_rows_equal_one_point_calls(self, m, p_l2):
        p = p_l2 if m == 1 else tensor_symbol([p_l2, build_geometric_symbol(2)])
        ts = np.random.default_rng(7 + m).uniform(0, 2 * np.pi, size=(40, m))
        got = build_s_grid(p, ts)
        assert got.shape == (40, p.d, p.d)
        for k, t in enumerate(ts):
            # one row of a stacked product may be blocked differently by BLAS
            np.testing.assert_allclose(got[k], build_s(p, t), rtol=0, atol=1e-14)

    def test_grid_names_first_singular_point(self):
        p = MatrixTrigPolynomial.scalar({2: 0.5, -2: 0.5})  # cos(2 theta)
        ts = np.array([0.3, 3 * np.pi / 4, np.pi / 4, 1.0])
        with pytest.raises(SingularMatrixError) as err:
            build_s_grid(p, ts)
        assert f"theta={3 * np.pi / 4}" in str(err.value)
        assert "condition (i) violated" in str(err.value)

    def test_spectrum_in_unit_interval(self, p_l2):
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 2 * np.pi, size=50):
            w = np.linalg.eigvalsh(build_s(p_l2, t))
            assert w[0] >= -1e-10 and w[-1] <= 1 + 1e-10


class TestConditionI:
    def test_p_l2_minimum(self, p_l2):
        res = check_condition_i(p_l2)
        assert res.passed
        assert res.evidence["min_eig"] == pytest.approx(8.0, abs=1e-8)

    def test_scalar_hat_minimum(self):
        res = check_condition_i(HAT)
        assert res.passed
        assert res.evidence["min_eig"] == pytest.approx(2.0, abs=1e-8)

    def test_zero_projector_fails(self):
        res = check_condition_i(MatrixTrigPolynomial.scalar({0: 0.0}))
        assert not res.passed
        assert res.evidence["min_eig"] == 0.0


class TestConditionII:
    def test_p_l2_eigenvector_route(self, f_q2, p_l2):
        zero = find_zero(f_q2)
        res = check_condition_ii(p_l2, zero)
        assert res.passed
        assert res.evidence["defect"] <= 1e-12
        assert res.evidence["route"] == "eigenvector"
        hyp = res.evidence["hypotheses"]
        assert hyp["q_eigvec_of_p0"]["lambda"][0] == pytest.approx(4.0)
        assert hyp["q_kernel_of_p_shifted"]["passed"]
        assert hyp["q_eigvec_of_p0_adjoint"]["lambda"][0] == pytest.approx(4.0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_geometric_nonsingular_route(self, r):
        f = stiffness_symbol(r)
        p = build_geometric_symbol(r)
        res = check_condition_ii(p, find_zero(f))
        assert res.passed
        assert res.evidence["route"] in ("eigenvector", "nonsingular")
        assert res.evidence["hypotheses"]["p0_nonsingular"]["passed"]
        assert res.evidence["hypotheses"]["q_eigvec_of_p0"]["lambda"][0] == \
            pytest.approx(2.0, abs=1e-9)

    def test_identity_projector_fails(self, f_q2):
        p = MatrixTrigPolynomial({0: np.eye(2)})
        res = check_condition_ii(p, find_zero(f_q2))
        assert not res.passed
        assert res.evidence["defect"] == pytest.approx(0.5, abs=1e-10)


class TestConditionIII:
    def test_even_degree_projector_route(self, f_q2, p_l2):
        res = check_condition_iii(p_l2, f_q2, find_zero(f_q2))
        assert res.passed
        assert res.evidence["route"] == "projector"
        assert res.evidence["c"] == 0.0

    def test_idempotency_even_degrees(self, p_l2):
        assert projector_defect(p_l2) <= 1e-9
        assert projector_defect(build_linear_interp_symbol(4)) <= 1e-9

    def test_odd_degree_surrogate_route(self):
        # degree-1 interpolation: shifted eigenvalue has a 4th order zero,
        # squared ratio against the order-2 problem symbol tends to 0
        zero = find_zero(LAPLACE)
        res = check_condition_iii(INTERP, LAPLACE, zero)
        assert res.passed
        assert res.evidence["route"] == "dyadic"
        assert res.evidence["c"] == pytest.approx(0.0, abs=1e-6)
        assert res.evidence["surrogate_passed"]

    def test_odd_degree_block(self):
        f3 = stiffness_symbol(3)
        p3 = build_linear_interp_symbol(3)
        res = check_condition_iii(p3, f3, find_zero(f3))
        assert res.passed

    def test_injection_diverges(self):
        res = check_condition_iii(ONE, LAPLACE, find_zero(LAPLACE))
        assert not res.passed
        assert res.evidence["diverged"]


class TestVcycleBound:
    def test_p_l2_vanishing_branch(self, f_q2, p_l2):
        res = check_vcycle_bound(p_l2, f_q2, find_zero(f_q2))
        assert res.passed
        assert res.evidence["vanishing_branch"]
        assert res.evidence["c"] == 0.0

    def test_scalar_hat_limit_half(self):
        # (1 - cos) / (2 - 2cos) = 1/2 exactly
        res = check_vcycle_bound(HAT, LAPLACE, find_zero(LAPLACE))
        assert res.passed
        assert res.evidence["c"] == pytest.approx(0.5, abs=1e-4)

    def test_fourth_order_problem_diverges(self):
        f4 = MatrixTrigPolynomial.scalar({0: 6.0, 1: -4.0, -1: -4.0, 2: 1.0, -2: 1.0})
        res = check_vcycle_bound(INTERP, f4, find_zero(f4))
        assert not res.passed
        assert res.evidence["diverged"]


class TestFhatProperties:
    def test_scalar_interpolation_all_pass(self):
        zero = find_zero(LAPLACE)
        out = check_fhat_properties(INTERP, LAPLACE, zero)
        assert all(res.passed for res in out.values())
        assert out["coarse_zero_same_order"].evidence["c"] == \
            pytest.approx(8.0, rel=1e-3)

    def test_identity_projector_kernel_fails(self):
        zero = find_zero(LAPLACE)
        out = check_fhat_properties(ONE, LAPLACE, zero)
        assert out["hermitian"].passed
        assert out["nonnegative"].passed
        assert not out["kernel_at_doubled_zero"].passed
        assert not out["coarse_zero_same_order"].passed

    def test_block_pipeline(self, f_q2, p_l2):
        out = check_fhat_properties(p_l2, f_q2, find_zero(f_q2))
        assert all(res.passed for res in out.values())
        assert out["coarse_zero_same_order"].evidence["c"] > 1e-8


class TestShortcutHypotheses:
    def test_p_l2_all_three(self, f_q2, p_l2):
        hyps = fixed_point_shortcut_hypotheses(p_l2, find_zero(f_q2))
        assert hyps["q_eigvec_of_p0"].passed
        assert hyps["q_kernel_of_p_shifted"].passed
        assert hyps["q_eigvec_of_p0_adjoint"].passed
        # p_l2 is singular everywhere, so the 3-bis route is unavailable
        assert not hyps["p0_nonsingular"].passed


class TestFullReport:
    def test_certified_pair(self, f_q2, p_l2):
        rep = full_report(p_l2, f_q2)
        assert rep.tgm_certified and rep.vcycle_certified
        assert rep.zero["order"] == 2

    def test_negative_control(self):
        rep = full_report(ONE, LAPLACE)
        assert not rep.tgm_certified and not rep.vcycle_certified
        assert rep.condition_i.passed
        assert not rep.condition_ii.passed
        assert not rep.condition_iii.passed

    def test_report_deterministic(self, f_q2, p_l2):
        a = full_report(p_l2, f_q2).to_json()
        b = full_report(p_l2, f_q2).to_json()
        assert a == b

    def test_json_schema(self, f_q2, p_l2):
        doc = json.loads(full_report(p_l2, f_q2).to_json())
        for key in ("zero", "condition_i", "condition_ii", "condition_iii",
                    "vcycle_bound", "fhat_properties", "shortcut_hypotheses",
                    "tgm_certified", "vcycle_certified"):
            assert key in doc
        assert set(doc["fhat_properties"]) == {
            "hermitian", "nonnegative", "kernel_at_doubled_zero",
            "positive_elsewhere", "coarse_zero_same_order"}
        assert doc["condition_i"]["min_eig"] == pytest.approx(8.0)

    def test_errors_embedded_not_raised(self):
        # a projector vanishing on the corner set: condition (i) fails and
        # the dependent checks embed the violation instead of raising
        p = MatrixTrigPolynomial.scalar({2: 0.5, -2: 0.5})
        rep = full_report(p, LAPLACE)
        assert not rep.tgm_certified
        assert not rep.condition_i.passed
        assert "error" in rep.condition_iii.evidence


# -- batched limits against a per-point reference ----------------------------


def per_point_dyadic_limit(numer_fn, denom_fn, theta0, directions, *,
                           numer_floor, denom_floor, k_min=5, k_max=25,
                           tail=5, rel_spread=1e-2, cap=1e8):
    """The dyadic limit evaluated one point at a time with scalar
    closures, returning as soon as a direction settles the verdict."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    per_direction, estimates = [], []
    for direction in directions:
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        ratios = []
        for k in range(k_min, k_max + 1):
            t = theta0 + direction * 2.0 ** (-k)
            den = denom_fn(t)
            if den <= denom_floor:
                continue
            num = numer_fn(t)
            ratios.append((0.0 if num < numer_floor else num) / den)
        if len(ratios) < tail:
            return False, float("nan"), "insufficient usable samples"
        if max(ratios) > cap:
            return False, float("inf"), f"ratio exceeded cap {cap:g}"
        tail_vals = ratios[-tail:]
        c_dir = float(np.mean(tail_vals))
        spread = float(np.max(tail_vals) - np.min(tail_vals))
        ok = spread <= rel_spread * max(abs(c_dir), 1e-6)
        if (not ok and all(np.diff(ratios) > 0)
                and ratios[-1] > 100.0 * max(ratios[0], 1e-300)):
            return False, float("inf"), "monotone growth throughout the window"
        per_direction.append(ok)
        estimates.append(c_dir)
    lo, hi = min(estimates), max(estimates)
    agree = (hi - lo) <= max(rel_spread * max(abs(lo), abs(hi)), 1e-6)
    passed = agree and all(per_direction)
    reason = "" if passed else ("directional estimates disagree" if not agree
                                else "tail not stabilized")
    return passed, float(np.mean(estimates)), reason


def per_point_shifted_eigenvalue(p, theta, q):
    """The shifted-branch eigenvalue at one point: scipy's eig, and every
    cluster matched through an SVD of its eigenvectors."""
    mat = p.evaluate(np.atleast_1d(theta) + np.pi)
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
        overlap = float(np.linalg.norm(U[:, s > 1e-10 * s[0]].conj().T @ q))
        if overlap > best_overlap:
            best_overlap, best_value = overlap, complex(np.mean(w[cluster]))
    assert best_overlap >= OVERLAP_MIN
    return best_value, max(len(c) for c in clusters)


def report_limits(p, f):
    """(name, batched numerator, denominator, per-point numerator,
    denominator, floors, theta0) for every limit full_report takes."""
    zero = find_zero(f)
    t0, q = np.array(zero.theta0), zero.q_jbar
    fscale, pscale = symbol_sup_norm(f, 256), symbol_sup_norm(p, 256)
    fhat = coarse_symbol(f, p)
    hat_scale = float(np.max(np.abs(np.linalg.eigvalsh(fhat.evaluate_grid(theta_grid())))))
    den_floor = 1e3 * EPS * fscale

    def shifted(ts):
        return np.abs(shifted_branch_eigenvalue(p, ts, q))

    def f_branch(g):
        return lambda t: tracked_eigenpairs(g.evaluate(t)[None], q)[0][0]

    return [
        ("surrogate", lambda ts: shifted(ts) ** 2, _f_branch_fn(f, q),
         lambda t: abs(per_point_shifted_eigenvalue(p, t, q)[0]) ** 2, f_branch(f),
         (100 * EPS * pscale) ** 2, den_floor, t0),
        ("direct", _s_gap_fn(p, q), _f_branch_fn(f, q),
         lambda t: 1.0 - tracked_eigenpairs(build_s(p, t)[None], q)[0][0], f_branch(f),
         100 * EPS, den_floor, t0),
        ("vcycle", shifted, _f_branch_fn(f, q),
         lambda t: abs(per_point_shifted_eigenvalue(p, t, q)[0]), f_branch(f),
         100 * EPS * pscale, den_floor, t0),
        ("coarse", lambda ts: _f_branch_fn(fhat, q)(2.0 * ts), _f_branch_fn(f, q),
         lambda t: f_branch(fhat)(2.0 * t), f_branch(f),
         1e3 * EPS * hat_scale, den_floor, t0),
    ]


F4 = MatrixTrigPolynomial.scalar({0: 6.0, 1: -4.0, -1: -4.0, 2: 1.0, -2: 1.0})


@pytest.mark.parametrize("p, f", [
    *[(builder(r), stiffness_symbol(r)) for r in range(1, 9)
      for builder in (build_linear_interp_symbol, build_geometric_symbol)],
    (ONE, LAPLACE), (INTERP, F4), (HAT, LAPLACE)],
    ids=[*[f"r{r}-{kind}" for r in range(1, 9) for kind in ("linear", "geometric")],
         "injection", "fourth-order", "hat"])
def test_batched_limits_match_per_point_reference(p, f):
    for name, num, den, num1, den1, nfloor, dfloor, t0 in report_limits(p, f):
        est = dyadic_limit(num, den, t0, _axis_directions(1),
                           numer_floor=nfloor, denom_floor=dfloor)
        passed, c, reason = per_point_dyadic_limit(num1, den1, t0, _axis_directions(1),
                                                   numer_floor=nfloor, denom_floor=dfloor)
        assert (est.passed, est.reason) == (passed, reason), name
        if np.isfinite(c):
            assert est.c == pytest.approx(c, rel=1e-4, abs=1e-12), name
        else:
            assert repr(est.c) == repr(c), name


@pytest.mark.parametrize("p, zero_of, repeated", [
    (build_linear_interp_symbol(4), stiffness_symbol(4), True),
    (build_geometric_symbol(3), stiffness_symbol(3), False),
    (tensor_symbol([build_geometric_symbol(2)] * 2), stiffness_symbol(2), True),
], ids=["linear-r4", "geometric-r3", "geometric-r2-tensor"])
def test_stacked_shifted_eigenvalue_matches_per_point_eig(p, zero_of, repeated):
    zero = find_zero(zero_of)
    q = np.kron(*[zero.q_jbar] * p.m) if p.m > 1 else zero.q_jbar
    rng = np.random.default_rng(17)
    ts = np.concatenate([
        zero.theta0[0] + np.outer(2.0 ** -np.arange(5, 26), np.ones(p.m)),
        zero.theta0[0] + 1e-3 * rng.standard_normal((10, p.m))])
    got = shifted_branch_eigenvalue(p, ts, q)
    assert got.shape == (len(ts),)
    want = [per_point_shifted_eigenvalue(p, t, q) for t in ts]
    np.testing.assert_allclose(got, [w for w, _ in want], rtol=0, atol=1e-12)
    # a repeated eigenvalue is the case the cluster's span is matched for
    assert (max(size for _, size in want) > 1) == repeated


def test_shifted_eigenvalue_error_names_first_failing_point():
    # p(t + pi) = diag(1, 1 + cos t, 1 - cos t): q = (1, 1, 1)/sqrt(3)
    # overlaps each lone axis by 0.577, below the threshold, and passes
    # only where cos t = 0 makes the three eigenvalues one cluster
    p = MatrixTrigPolynomial({0: np.eye(3), 1: np.diag([0.0, -0.5, 0.5]),
                              -1: np.diag([0.0, -0.5, 0.5])})
    q = np.ones(3) / np.sqrt(3)
    ts = np.array([np.pi / 2, 0.1, 3 * np.pi / 2, 0.3])
    np.testing.assert_allclose(shifted_branch_eigenvalue(p, ts[[0, 2]], q), 1.0)
    with pytest.raises(TrackingError, match=r"theta=\[0\.1\]"):
        shifted_branch_eigenvalue(p, ts, q)


def test_tracked_stack_error_names_first_failing_matrix():
    q = np.ones(3) / np.sqrt(3)                      # 0.577 on every axis
    bad = np.diag([1.0, 2.0, 3.0])
    stack = np.stack([bad + 5 * np.ones((3, 3)), bad + np.ones((3, 3)), bad,
                      bad + np.ones((3, 3)), bad])
    with pytest.raises(TrackingError, match="at matrix 2 of 5"):
        tracked_eigenpairs(stack, q)
    w, V, overlaps = tracked_eigenpairs(stack[:2], q)
    for k in range(2):
        lam, v, overlap = (a[0] for a in tracked_eigenpairs(stack[k][None], q))
        assert (w[k], overlaps[k]) == (lam, overlap)
        np.testing.assert_array_equal(V[k], v)
        assert overlap > OVERLAP_MIN


def test_dyadic_limit_error_order_is_per_point_order():
    # an error surfaces where the point-by-point walk would meet it: the
    # first failing point, direction by direction, the denominator of a
    # point before its numerator, and never past a settled direction
    def failing(bad, value=1.0):
        def fn(ts):
            for t in ts:
                if any(abs(t[0] - b) < 1e-15 for b in bad):
                    raise TrackingError(f"fails at {t[0]!r}")
            return np.full(len(ts), value)
        return fn

    pts = [1.0 + s * 2.0 ** -k for s in (1.0, -1.0) for k in range(5, 26)]
    kw = dict(numer_floor=0.0, denom_floor=0.0)
    dirs = _axis_directions(1)

    with pytest.raises(TrackingError, match=repr(pts[3])):
        dyadic_limit(failing([pts[3], pts[30]]), failing([pts[7], pts[12]]),
                     1.0, dirs, **kw)
    with pytest.raises(TrackingError, match=repr(pts[7])):
        dyadic_limit(failing([pts[9]]), failing([pts[7], pts[12]]),
                     1.0, dirs, **kw)
    with pytest.raises(TrackingError, match=repr(pts[30])):
        dyadic_limit(failing([]), failing([pts[30], pts[35]]), 1.0, dirs, **kw)
    # the first direction already exceeds the cap: the failure beyond it
    # is never reached
    est = dyadic_limit(failing([], 1e9), failing([pts[30]]), 1.0, dirs, **kw)
    assert est.diverged and est.reason == "ratio exceeded cap 1e+08"


# -- the shifted projector branch, tracked once per report -------------------


FEM_PAIRS = [(builder(r), stiffness_symbol(r)) for r in range(1, 5)
             for builder in (build_linear_interp_symbol, build_geometric_symbol)]
FEM_IDS = [f"r{r}-{kind}" for r in range(1, 5) for kind in ("linear", "geometric")]

def _standalone(check, p, f):
    return jsonable(conditions._run_check(check, p, f, find_zero(f)))


@pytest.mark.parametrize("p, f", [*FEM_PAIRS, (ONE, LAPLACE)],
                         ids=[*FEM_IDS, "injection"])
def test_full_report_tracks_the_shifted_branch_once(monkeypatch, p, f):
    calls = []
    track = conditions.shifted_branch_eigenvalue
    monkeypatch.setattr(conditions, "shifted_branch_eigenvalue",
                        lambda *args: calls.append(args) or track(*args))
    rep = full_report(p, f)
    assert len(calls) == 1
    monkeypatch.undo()
    assert jsonable(rep.condition_iii) == _standalone(check_condition_iii, p, f)
    assert jsonable(rep.vcycle_bound) == _standalone(check_vcycle_bound, p, f)


def test_untrackable_branch_reports_each_checks_own_error():
    # p(t + pi) = diag(1, 1 + cos t, 1 - cos t) against an f whose zero
    # at 0 has q = (1, 1, 1)/sqrt(3): each lone eigenvector overlaps q by
    # 0.577, so tracking the shifted branch raises near the zero
    Q = np.full((3, 3), 1.0 / 3.0)
    p = MatrixTrigPolynomial({0: np.eye(3), 1: np.diag([0.0, -0.5, 0.5]),
                              -1: np.diag([0.0, -0.5, 0.5])})
    f = MatrixTrigPolynomial({0: np.eye(3) + Q, 1: -Q, -1: -Q})
    rep = full_report(p, f)
    for name, check in (("condition_iii", check_condition_iii),
                        ("vcycle_bound", check_vcycle_bound)):
        got = jsonable(getattr(rep, name))
        assert got["error"].startswith("TrackingError: overlap 0.577"), name
        assert got == _standalone(check, p, f), name


# -- verdicts under a scaled projector ----------------------------------------


def _check_verdicts(rep):
    """Every check's verdict in a report, the shortcut hypotheses aside."""
    return {"condition_i": rep.condition_i.passed,
            "condition_ii": rep.condition_ii.passed,
            "condition_iii": rep.condition_iii.passed,
            "vcycle_bound": rep.vcycle_bound.passed,
            **{k: v.passed for k, v in rep.fhat_properties.items()},
            "tgm": rep.tgm_certified, "vcycle": rep.vcycle_certified}


@pytest.mark.parametrize("p, f", [*FEM_PAIRS, (ONE, LAPLACE)],
                         ids=[*FEM_IDS, "injection"])
def test_verdicts_do_not_depend_on_projector_scale(p, f):
    # the coarse/fine eigenvalue ratio scales as |p|^2: at p * 1e-5 it
    # is near 1e-9, which a threshold not scaled with it would reject
    want = _check_verdicts(full_report(p, f))
    for c in (1e-5, 1e-3):
        pc = MatrixTrigPolynomial({j: c * v for j, v in p.coeffs.items()}, m=1)
        assert _check_verdicts(full_report(pc, f)) == want, c
