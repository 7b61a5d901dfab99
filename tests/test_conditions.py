import collections
import functools
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmg import (MatrixTrigPolynomial, ZeroSamples, build_s, build_s_grid,
                     conditions, check_condition_i,
                     check_condition_ii, check_condition_iii,
                     check_fhat_properties, check_vcycle_bound, find_zero,
                     full_report)
from blockmg.conditions import (EPS, GRID_POINTS, OVERLAP_MIN, RATIO_CAP,
                                _axis_directions,
                                _dyadic_points, _f_branch, _s_gap, dyadic_limit,
                                _projector_defect,
                                fixed_point_shortcut_hypotheses, jsonable,
                                shifted_branch_eigenvalue)
from blockmg.errors import (ArgumentError, DimensionError, NumericalError,
                            SingularMatrixError, TrackingError)
from blockmg.femgen import (build_geometric_symbol, build_linear_interp_symbol,
                            mass_symbol, stiffness_symbol)
from blockmg.multilevel import check_multilevel_conditions, tensor_sum_symbol
from blockmg.symbol import (coarse_symbol, corner_sum_symbol, sample_points,
                            symbol_sup_norm, tensor_symbol, theta_grid,
                            tracked_eigenpairs)

from conftest import FEM_PROJECTORS

LAPLACE = MatrixTrigPolynomial.scalar({0: 2.0, 1: -1.0, -1: -1.0})
INTERP = MatrixTrigPolynomial.scalar({0: 2.0, 1: 1.0, -1: 1.0})
HAT = MatrixTrigPolynomial.scalar({0: 1.0, 1: 0.5, -1: 0.5})      # 1 + cos
ONE = MatrixTrigPolynomial.scalar({0: 1.0})


def _samples(p, f, zero=None):
    """The ZeroSamples of the pair (f, p) at the zero of f."""
    if zero is None:
        zero = find_zero(f)
    return ZeroSamples(p, f, zero.theta0, zero.q_jbar)


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

    @pytest.mark.parametrize("m, per_axis", [(1, 1024), (2, 32), (3, 10), (4, 8)])
    def test_grid_has_an_even_count_per_axis(self, m, per_axis):
        # so its points in [0, pi)^m are a quarter grid that the pi-shifts
        # of the corner sum map onto the whole grid
        pts = np.asarray(sample_points(m, GRID_POINTS)).reshape(-1, m)
        assert per_axis % 2 == 0 and len(pts) == per_axis ** m
        for ax in range(m):
            np.testing.assert_array_equal(np.unique(pts[:, ax]), theta_grid(per_axis))

    @pytest.mark.parametrize("p", FEM_PROJECTORS.values(), ids=FEM_PROJECTORS.keys())
    def test_half_torus_gives_the_full_grid_extremes(self, p):
        res = check_condition_i(p)
        eigs = np.linalg.eigvalsh(
            corner_sum_symbol(p).evaluate_grid(sample_points(p.m, GRID_POINTS)))
        top = eigs[:, -1].max()
        assert res.evidence["npoints"] == GRID_POINTS
        assert abs(res.evidence["min_eig"] - eigs[:, 0].min()) <= 1e-14 * top
        assert abs(res.evidence["max_eig"] - top) <= 1e-14 * top


class TestConditionII:
    def test_p_l2_eigenvector_route(self, f_q2, p_l2):
        zero = find_zero(f_q2)
        res = check_condition_ii(_samples(p_l2, f_q2, zero))
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
        res = check_condition_ii(_samples(p, f))
        assert res.passed
        assert res.evidence["route"] in ("eigenvector", "nonsingular")
        assert res.evidence["hypotheses"]["p0_nonsingular"]["passed"]
        assert res.evidence["hypotheses"]["q_eigvec_of_p0"]["lambda"][0] == \
            pytest.approx(2.0, abs=1e-9)

    def test_identity_projector_fails(self, f_q2):
        p = MatrixTrigPolynomial({0: np.eye(2)})
        res = check_condition_ii(_samples(p, f_q2))
        assert not res.passed
        assert res.evidence["defect"] == pytest.approx(0.5, abs=1e-10)


class TestConditionIII:
    def test_even_degree_projector_route(self, f_q2, p_l2):
        res = check_condition_iii(_samples(p_l2, f_q2))
        assert res.passed
        assert res.evidence["route"] == "projector"
        assert res.evidence["c"] == 0.0

    def test_idempotency_even_degrees(self, p_l2):
        assert _projector_defect(p_l2) <= 1e-9
        assert _projector_defect(build_linear_interp_symbol(4)) <= 1e-9

    def test_odd_degree_surrogate_route(self):
        # degree-1 interpolation: shifted eigenvalue has a 4th order zero,
        # squared ratio against the order-2 problem symbol tends to 0
        zero = find_zero(LAPLACE)
        res = check_condition_iii(_samples(INTERP, LAPLACE, zero))
        assert res.passed
        assert res.evidence["route"] == "dyadic"
        assert res.evidence["c"] == pytest.approx(0.0, abs=1e-6)
        assert res.evidence["surrogate_passed"]

    def test_odd_degree_block(self):
        f3 = stiffness_symbol(3)
        p3 = build_linear_interp_symbol(3)
        res = check_condition_iii(_samples(p3, f3))
        assert res.passed

    def test_injection_diverges(self):
        res = check_condition_iii(_samples(ONE, LAPLACE))
        assert not res.passed
        assert res.evidence["diverged"]


class TestVcycleBound:
    def test_p_l2_vanishing_branch(self, f_q2, p_l2):
        res = check_vcycle_bound(_samples(p_l2, f_q2))
        assert res.passed
        assert res.evidence["vanishing_branch"]
        assert res.evidence["c"] == 0.0

    def test_scalar_hat_limit_half(self):
        # (1 - cos) / (2 - 2cos) = 1/2 exactly
        res = check_vcycle_bound(_samples(HAT, LAPLACE))
        assert res.passed
        assert res.evidence["c"] == pytest.approx(0.5, abs=1e-4)

    def test_fourth_order_problem_diverges(self):
        f4 = MatrixTrigPolynomial.scalar({0: 6.0, 1: -4.0, -1: -4.0, 2: 1.0, -2: 1.0})
        res = check_vcycle_bound(_samples(INTERP, f4))
        assert not res.passed
        assert res.evidence["diverged"]


class TestFhatProperties:
    def test_scalar_interpolation_all_pass(self):
        zero = find_zero(LAPLACE)
        out = check_fhat_properties(_samples(INTERP, LAPLACE, zero))
        assert all(res.passed for res in out.values())
        assert out["coarse_zero_same_order"].evidence["c"] == \
            pytest.approx(8.0, rel=1e-3)

    def test_identity_projector_kernel_fails(self):
        zero = find_zero(LAPLACE)
        out = check_fhat_properties(_samples(ONE, LAPLACE, zero))
        assert out["hermitian"].passed
        assert out["nonnegative"].passed
        assert not out["kernel_at_doubled_zero"].passed
        assert not out["coarse_zero_same_order"].passed

    def test_block_pipeline(self, f_q2, p_l2):
        out = check_fhat_properties(_samples(p_l2, f_q2))
        assert all(res.passed for res in out.values())
        assert out["coarse_zero_same_order"].evidence["c"] > 1e-8


class TestShortcutHypotheses:
    def test_p_l2_all_three(self, f_q2, p_l2):
        zero = find_zero(f_q2)
        hyps = fixed_point_shortcut_hypotheses(p_l2, zero.theta0, zero.q_jbar)
        assert hyps["q_eigvec_of_p0"].passed
        assert hyps["q_kernel_of_p_shifted"].passed
        assert hyps["q_eigvec_of_p0_adjoint"].passed
        # p_l2 is singular everywhere, so the 3-bis route is unavailable
        assert not hyps["p0_nonsingular"].passed


class TestFullReport:
    def test_certified_pair(self, f_q2, p_l2):
        rep = full_report(p_l2, f_q2)
        assert rep.tgm_certified and rep.vcycle_certified
        assert rep.zero.order == 2

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

    def test_coarse_symbol_error_fails_all_five_properties(self, f_q2, p_l2, monkeypatch):
        def broken(f, p):
            raise NumericalError("no coarse symbol")

        names = list(full_report(p_l2, f_q2).fhat_properties)
        assert len(names) == 5
        monkeypatch.setattr(conditions, "coarse_symbol", broken)
        rep = full_report(p_l2, f_q2)
        assert list(rep.fhat_properties) == names
        for result in rep.fhat_properties.values():
            assert not result.passed
            assert result.evidence == {"error": "NumericalError: no coarse symbol"}
        assert rep.tgm_certified and not rep.vcycle_certified

    @pytest.mark.parametrize("use", [full_report, coarse_symbol, lambda a, b: a @ b],
                             ids=["full_report", "coarse_symbol", "matmul"])
    def test_one_pair_rule(self, p_l2, use):
        # one rule for every pair of symbols: the block order first
        p2d = tensor_symbol([INTERP, INTERP])
        with pytest.raises(DimensionError, match="block order mismatch: d = 2 and d = 1"):
            use(p_l2, p2d)
        with pytest.raises(ArgumentError, match="variable count mismatch: m = 1 and m = 2"):
            use(LAPLACE, p2d)

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
    closures, returning as soon as a direction settles the verdict.  The
    relative tests have a floor of 1e-6 times the natural scale
    cap / 1e8."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    floor = 1e-6 * cap / 1e8
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
        ok = spread <= rel_spread * max(abs(c_dir), floor)
        if (not ok and all(np.diff(ratios) > 0)
                and ratios[-1] > 100.0 * max(ratios[0], 1e-300)):
            return False, float("inf"), "monotone growth throughout the window"
        per_direction.append(ok)
        estimates.append(c_dir)
    lo, hi = min(estimates), max(estimates)
    agree = (hi - lo) <= max(rel_spread * max(abs(lo), abs(hi)), floor)
    passed = agree and all(per_direction)
    reason = "" if passed else ("directional estimates disagree" if not agree
                                else "tail not stabilized")
    return passed, float(np.mean(estimates)), reason


def per_point_shifted_match(p, theta, q):
    """The shifted-branch match at one point, (best overlap, value,
    largest cluster size): scipy's eig, and every cluster matched
    through an SVD of its eigenvectors."""
    mat = p.evaluate(np.atleast_1d(theta) + np.pi)
    w, V = scipy.linalg.eig(mat)
    scale = np.linalg.norm(mat, 2)
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
    return best_overlap, best_value, max(len(c) for c in clusters)


def per_point_shifted_eigenvalue(p, theta, q):
    """The shifted-branch eigenvalue at one point and the largest cluster
    size there; the branch must be trackable."""
    overlap, value, size = per_point_shifted_match(p, theta, q)
    assert overlap >= OVERLAP_MIN
    return value, size


def report_limits(p, f):
    """(name, sampled numerator, denominator, per-point numerator,
    denominator, floors, cap, theta0) for every limit full_report takes;
    the samples are at the dyadic points of the two axis directions."""
    zero = find_zero(f)
    t0, q = np.array(zero.theta0), zero.q_jbar
    fscale, pscale = symbol_sup_norm(f, 256), symbol_sup_norm(p, 256)
    fhat = coarse_symbol(f, p)
    hat_scale = float(np.max(np.abs(np.linalg.eigvalsh(fhat.evaluate_grid(theta_grid())))))
    den_floor = 1e3 * EPS * fscale
    pts = _dyadic_points(t0, _axis_directions(1))
    shifted = np.abs(shifted_branch_eigenvalue(p, pts, q))
    f_values = _f_branch(f, pts, q)

    def f_branch(g):
        return lambda t: tracked_eigenpairs(g.evaluate(t)[None], q)[0][0]

    return [
        ("surrogate", shifted ** 2, f_values,
         lambda t: abs(per_point_shifted_eigenvalue(p, t, q)[0]) ** 2, f_branch(f),
         (100 * EPS * pscale) ** 2, den_floor, RATIO_CAP * pscale ** 2 / fscale, t0),
        ("direct", _s_gap(p, pts, q), f_values,
         lambda t: 1.0 - tracked_eigenpairs(build_s(p, t)[None], q)[0][0], f_branch(f),
         100 * EPS, den_floor, RATIO_CAP / fscale, t0),
        ("vcycle", shifted, f_values,
         lambda t: abs(per_point_shifted_eigenvalue(p, t, q)[0]), f_branch(f),
         100 * EPS * pscale, den_floor, RATIO_CAP * pscale / fscale, t0),
        ("coarse", _f_branch(fhat, 2.0 * pts, q), f_values,
         lambda t: f_branch(fhat)(2.0 * t), f_branch(f),
         1e3 * EPS * hat_scale, den_floor, RATIO_CAP * pscale ** 2, t0),
    ]


F4 = MatrixTrigPolynomial.scalar({0: 6.0, 1: -4.0, -1: -4.0, 2: 1.0, -2: 1.0})


@pytest.mark.parametrize("p, f", [
    *[(builder(r), stiffness_symbol(r)) for r in range(1, 9)
      for builder in (build_linear_interp_symbol, build_geometric_symbol)],
    (ONE, LAPLACE), (INTERP, F4), (HAT, LAPLACE)],
    ids=[*[f"r{r}-{kind}" for r in range(1, 9) for kind in ("linear", "geometric")],
         "injection", "fourth-order", "hat"])
def test_batched_limits_match_per_point_reference(p, f):
    for name, num, den, num1, den1, nfloor, dfloor, cap, t0 in report_limits(p, f):
        est = dyadic_limit(num, den, _axis_directions(1),
                           numer_floor=nfloor, denom_floor=dfloor, cap=cap)
        passed, c, reason = per_point_dyadic_limit(num1, den1, t0, _axis_directions(1),
                                                   numer_floor=nfloor, denom_floor=dfloor,
                                                   cap=cap)
        assert (est.passed, est.evidence["reason"]) == (passed, reason), name
        if np.isfinite(c):
            assert est.evidence["c"] == pytest.approx(c, rel=1e-4, abs=1e-12), name
        else:
            assert repr(est.evidence["c"]) == repr(c), name


# every eigenvalue of p(t + pi) near the zero is simple, except for the
# linear projectors of even r > 2, which are clustered at every point
OTHER_FEM_PAIRS = [(kind, r) for r in range(1, 9) for kind in ("linear", "geometric")
                   if (kind, r) not in (("linear", 4), ("geometric", 3))]


# the tensor projectors of r >= 2 are clustered at every point near the
# zero, because the Kronecker eigenvalues coincide there
TENSOR_PAIRS = [(kind, r) for r in range(1, 4) for kind in ("linear", "geometric")]


def _projector(kind, r):
    return (build_linear_interp_symbol if kind == "linear" else build_geometric_symbol)(r)


@pytest.mark.parametrize("p, zero_of, repeated", [
    (build_linear_interp_symbol(4), stiffness_symbol(4), True),
    (build_geometric_symbol(3), stiffness_symbol(3), False),
    *[(tensor_symbol([_projector(kind, r)] * 2), stiffness_symbol(r), r > 1)
      for kind, r in TENSOR_PAIRS],
    *[(_projector(kind, r), stiffness_symbol(r), kind == "linear" and r % 2 == 0 and r > 2)
      for kind, r in OTHER_FEM_PAIRS],
], ids=["linear-r4", "geometric-r3",
        *[f"{kind}-r{r}-tensor" for kind, r in TENSOR_PAIRS],
        *[f"{kind}-r{r}" for kind, r in OTHER_FEM_PAIRS]])
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


def test_shifted_eigenvalue_clusters_greedily_by_leader():
    # p(t + pi) has the eigenvalues 1, 1 + delta, 1 + 2 delta and 2 with
    # delta = 0.6 tol, tol = 1e-6 ||p||_2: the middle one joins the leader
    # 1, the third is 1.2 tol from that leader and leads its own cluster,
    # although it is within tol of the middle one (a neighbourhood rule
    # would make one cluster of all three)
    tol = 1e-6 * 2.0
    delta = 0.6 * tol
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    p = MatrixTrigPolynomial({0: Q @ np.diag([1.0, 1.0 + delta, 1.0 + 2 * delta, 2.0]) @ Q.T})
    # q lies in the span of the first two eigenvectors
    q = Q @ np.array([1.0, 2.0, 0.0, 0.0]) / np.sqrt(5.0)
    ts = np.array([0.0, 0.7, 2.0])
    want = [per_point_shifted_eigenvalue(p, t, q) for t in ts]
    assert [size for _, size in want] == [2, 2, 2]
    got = shifted_branch_eigenvalue(p, ts, q)
    np.testing.assert_allclose(got, [w for w, _ in want], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, 1.0 + 0.5 * delta, rtol=0, atol=1e-12)


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


def test_shifted_eigenvalue_error_names_first_failure_of_either_kind():
    # p(t + pi) = diag(1, 1 + cos t, 1 - cos t) + 2 (1 + sin t) q q^H with
    # q = (1, 1, 1)/sqrt(3): away from 3 pi/2 q is near a lone
    # eigenvector (at pi/2 beside a two-eigenvalue cluster), at 3 pi/2
    # all three eigenvalues are one cluster, and near 3 pi/2 the three
    # lone eigenvectors lie near the axes, each overlapping q by about 0.58
    Q = np.full((3, 3), 1.0 / 3.0)
    c1 = np.diag([0.0, -0.5, 0.5]) + 1j * Q
    p = MatrixTrigPolynomial({0: np.eye(3) + 2 * Q, 1: c1, -1: c1.conj().T})
    q = np.ones(3) / np.sqrt(3)
    good = np.array([0.4, 3 * np.pi / 2, np.pi / 2 + 0.1, np.pi / 2])
    sizes = [per_point_shifted_eigenvalue(p, t, q)[1] for t in good]
    assert sizes == [1, 3, 1, 2]
    np.testing.assert_allclose(
        shifted_branch_eigenvalue(p, good, q),
        [per_point_shifted_eigenvalue(p, t, q)[0] for t in good], rtol=0, atol=1e-12)
    bad = 3 * np.pi / 2 + 0.02
    overlap, _, size = per_point_shifted_match(p, bad, q)
    assert overlap < OVERLAP_MIN and size == 1
    ts = np.array([*good[:2], bad, good[2], bad + 0.03])
    with pytest.raises(TrackingError, match=f"overlap {overlap:.3f} below") as err:
        shifted_branch_eigenvalue(p, ts, q)
    assert str(err.value).endswith(f"at theta={ts[2:3]}")


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


# -- the shifted projector branch, tracked once per report -------------------


FEM_PAIRS = [(builder(r), stiffness_symbol(r)) for r in range(1, 5)
             for builder in (build_linear_interp_symbol, build_geometric_symbol)]
FEM_IDS = [f"r{r}-{kind}" for r in range(1, 5) for kind in ("linear", "geometric")]

def _standalone(check, p, f):
    return jsonable(conditions._run_check(check, _samples(p, f)))


@pytest.mark.parametrize("p, f", [*FEM_PAIRS, (ONE, LAPLACE)],
                         ids=[*FEM_IDS, "injection"])
def test_full_report_tracks_the_shifted_branch_once(monkeypatch, p, f):
    # one report samples each shared quantity once: the shifted branch,
    # the branch of f at the dyadic points (the coarse symbol's branch
    # is not counted) and s(t0)
    calls = collections.Counter()

    def counted(name):
        fn = getattr(conditions, name)

        def wrapper(g, *args):
            if name != "_f_branch" or g is f:
                calls[name] += 1
            return fn(g, *args)
        return wrapper

    for name in ("shifted_branch_eigenvalue", "_f_branch", "build_s"):
        monkeypatch.setattr(conditions, name, counted(name))
    rep = full_report(p, f)
    assert calls == {"shifted_branch_eigenvalue": 1, "_f_branch": 1, "build_s": 1}
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


# -- report layout -------------------------------------------------------------


LIMIT_KEYS = ["c", "spread", "diverged", "reason", "per_direction"]


def test_report_layout_is_pinned():
    # r = 3 geometric: every limit of the report is judged on the dyadic
    # route, so each carries its evidence
    f, p = stiffness_symbol(3), build_geometric_symbol(3)
    rep = json.loads(full_report(p, f).to_json())
    assert list(rep) == ["zero", "condition_i", "condition_ii", "condition_iii",
                         "vcycle_bound", "fhat_properties", "shortcut_hypotheses",
                         "tgm_certified", "vcycle_certified"]
    assert list(rep["zero"]) == ["theta0", "jbar", "order", "q_jbar"]
    assert list(rep["condition_iii"]) == ["passed", "route", "idempotency_defect",
                                          *LIMIT_KEYS, "surrogate_c", "surrogate_passed"]
    assert list(rep["vcycle_bound"]) == ["passed", "vanishing_branch", "hypotheses_ok",
                                         *LIMIT_KEYS]
    assert list(rep["fhat_properties"]["coarse_zero_same_order"]) == ["passed", *LIMIT_KEYS]
    ml = json.loads(check_multilevel_conditions(
        [p, p], tensor_sum_symbol(f, mass_symbol(3)), fs=[f, f]).to_json())
    assert list(ml) == ["theta0", "condition_i", "fixed_point",
                        "condition_iii_directional", "corner_factorization",
                        "s_factorization", "tensor_eigenvector", "factor_reports",
                        "tgm_certified", "vcycle_heuristic"]
    assert ml["factor_reports"] == [rep, rep]
    assert list(ml["condition_iii_directional"]) == ["passed", "route",
                                                     "idempotency_defect", *LIMIT_KEYS]
    est = dyadic_limit(np.ones(42), np.ones(42), _axis_directions(1),
                       numer_floor=0.0, denom_floor=0.0, cap=RATIO_CAP)
    assert est.passed and list(est.evidence) == LIMIT_KEYS


# -- verdicts under a scaled projector ----------------------------------------


def _check_verdicts(rep):
    """Every check's verdict in a report, with the condition (ii) route
    and the verdict of each shortcut hypothesis."""
    return {"condition_i": rep.condition_i.passed,
            "condition_ii": rep.condition_ii.passed,
            "route": rep.condition_ii.evidence.get("route"),
            **{f"hypothesis {k}": v.passed for k, v in rep.shortcut_hypotheses.items()},
            "condition_iii": rep.condition_iii.passed,
            "vcycle_bound": rep.vcycle_bound.passed,
            **{k: v.passed for k, v in rep.fhat_properties.items()},
            "tgm": rep.tgm_certified, "vcycle": rep.vcycle_certified}


@pytest.mark.parametrize("r", [3, 4, 5])
def test_condition_ii_route_does_not_depend_on_projector_scale(r):
    # det p(t0) scales as c^d: an absolute threshold turned the geometric
    # route "nonsingular" into None at p * 1e-5 for r >= 3
    p, f = build_geometric_symbol(r), stiffness_symbol(r)
    zero = find_zero(f)

    def route(p):
        ev = check_condition_ii(_samples(p, f, zero)).evidence
        return ev["route"], ev["hypotheses"]["p0_nonsingular"]["passed"]

    want = route(p)
    assert want == ("nonsingular", True)
    for c in (1e-5, 1e-3, 1e3):
        pc = MatrixTrigPolynomial({j: c * v for j, v in p.coeffs.items()}, m=1)
        assert route(pc) == want, c


@pytest.mark.parametrize("p, f", [*FEM_PAIRS, (ONE, LAPLACE)],
                         ids=[*FEM_IDS, "injection"])
def test_verdicts_do_not_depend_on_projector_scale(p, f):
    # the coarse/fine eigenvalue ratio scales as |p|^2: at p * 1e-5 it
    # is near 1e-9, which a threshold not scaled with it would reject;
    # the corner sum scales as |p|^2 too, and each limit's ratio and cap
    # as its own power of |p| and |f|
    want = _check_verdicts(full_report(p, f))
    for c in (1e-8, 1e-6, 1e-5, 1e-3, 1e4, 1e6):
        pc = MatrixTrigPolynomial({j: c * v for j, v in p.coeffs.items()}, m=1)
        assert _check_verdicts(full_report(pc, f)) == want, f"p * {c:g}"
    for c in (1e-8, 1e8):
        fc = MatrixTrigPolynomial({j: c * v for j, v in f.coeffs.items()}, m=1)
        assert _check_verdicts(full_report(p, fc)) == want, f"f * {c:g}"


@pytest.mark.parametrize("p, f", [*FEM_PAIRS, (ONE, LAPLACE)],
                         ids=[*FEM_IDS, "injection"])
def test_verdicts_do_not_depend_on_tiny_projector_scales(p, f):
    # a floor of 1 under the shortcut hypotheses' scale failed
    # q_eigvec_of_p0 once |lambda| < 1e-9, which turned vcycle_bound at
    # p * 1e-10; a floor under the Hermitian test's tolerance took the
    # r = 2 projectors at p * 1e-12 for Hermitian and symmetrized them
    want = _check_verdicts(full_report(p, f))
    for c in (1e-12, 1e-10):
        pc = MatrixTrigPolynomial({j: c * v for j, v in p.coeffs.items()}, m=1)
        assert pc.hermitian == p.hermitian, f"p * {c:g}"
        assert _check_verdicts(full_report(pc, f)) == want, f"p * {c:g}"


def _multilevel_verdicts(rep):
    """Every verdict of a multilevel report, its factor reports' included."""
    checks = ("condition_i", "fixed_point", "condition_iii_directional",
              "corner_factorization", "s_factorization", "tensor_eigenvector")
    return {**{name: getattr(rep, name).passed for name in checks},
            "tgm": rep.tgm_certified,
            "vcycle_factorwise": rep.vcycle_heuristic["passed_factorwise"],
            "factors": [_check_verdicts(r) for r in rep.factor_reports]}


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("build", [build_linear_interp_symbol, build_geometric_symbol],
                         ids=["linear", "geometric"])
def test_multilevel_verdicts_do_not_depend_on_projector_scale(r, build):
    # the tensor projector of p * 1e-8 has coefficients near 1e-16, which
    # a floor under the Hermitian test's tolerance took for Hermitian:
    # its symmetrized values failed the fixed point, the directional
    # limit and both tensor factorizations
    f = stiffness_symbol(r)
    f2d = tensor_sum_symbol(f, mass_symbol(r))
    p = build(r)
    rep = check_multilevel_conditions([p, p], f2d, fs=[f, f])
    want = _multilevel_verdicts(rep)
    assert want["tgm"]
    for c in (1e-8, 1e-5, 1e-3, 1e4):
        pc = MatrixTrigPolynomial({j: c * v for j, v in p.coeffs.items()}, m=1)
        got = _multilevel_verdicts(check_multilevel_conditions([pc, pc], f2d, fs=[f, f]))
        assert got == want, f"p * {c:g}"


@pytest.mark.parametrize("build, r, c", [
    (build_linear_interp_symbol, 1, 1e4), (build_geometric_symbol, 1, 1e4),
    (build_linear_interp_symbol, 3, 1e4), (build_linear_interp_symbol, 5, 1e-3),
    (build_linear_interp_symbol, 7, 1e-3)],
    ids=["linear-r1", "geometric-r1", "linear-r3", "linear-r5", "linear-r7"])
def test_surrogate_evidence_does_not_depend_on_projector_scale(build, r, c):
    # the surrogate ratio |lambda(p(. + pi))|^2 / lambda(f) scales as
    # |p|^2; an absolute 1e-6 floor under its stabilization and agreement
    # tests flipped surrogate_passed at these scales
    p, f = build(r), stiffness_symbol(r)
    zero = find_zero(f)
    want = check_condition_iii(_samples(p, f, zero)).evidence
    pc = MatrixTrigPolynomial({j: c * v for j, v in p.coeffs.items()}, m=1)
    got = check_condition_iii(_samples(pc, f, zero)).evidence
    assert (got["route"], got["surrogate_passed"]) == (want["route"], want["surrogate_passed"])


# -- verdicts under a change of basis ----------------------------------------


INVARIANCE = settings(derandomize=True, deadline=None, max_examples=30, database=None)
BASIS_PAIRS = [(builder(r), stiffness_symbol(r)) for r in range(2, 5)
               for builder in (build_linear_interp_symbol, build_geometric_symbol)]
BASIS_PAIRS.append((ONE, LAPLACE))


@functools.cache
def _base_report(k):
    return full_report(*BASIS_PAIRS[k])


def _basis(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return np.eye(d)[rng.permutation(d)]
    A = rng.standard_normal((d, d))
    if kind == "unitary":
        A = A + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(A)[0]


def _mapped(g, left, right):
    return MatrixTrigPolynomial({j: left @ c @ right for j, c in g.coeffs.items()}, m=g.m)


@INVARIANCE
@given(k=st.integers(0, len(BASIS_PAIRS) - 1),
       kind=st.sampled_from(["orthogonal", "unitary", "permutation"]),
       seed=st.integers(0, 2 ** 16))
def test_verdicts_do_not_depend_on_the_basis(k, kind, seed):
    # f -> U f U^H and p -> U p U^H move q to U q and change no eigenvalue
    p, f = BASIS_PAIRS[k]
    U = _basis(kind, p.d, seed)
    rep = full_report(_mapped(p, U, U.conj().T), _mapped(f, U, U.conj().T))
    assert _check_verdicts(rep) == _check_verdicts(_base_report(k))
    if p is ONE:
        assert not rep.tgm_certified


@INVARIANCE
@given(k=st.integers(0, len(BASIS_PAIRS) - 1), seed=st.integers(0, 2 ** 16))
def test_two_grid_verdicts_do_not_depend_on_the_coarse_basis(k, seed):
    # p -> p V leaves s = p (sum of corner p^H p)^-1 p^H unchanged; the
    # coarse symbol becomes V^H f_hat V, whose kernel at the doubled zero
    # is no longer q, so V-cycle verdicts may move and are not compared
    p, f = BASIS_PAIRS[k]
    V = np.random.default_rng(seed).standard_normal((p.d, p.d)) + 3.0 * np.eye(p.d)
    rep, base = full_report(_mapped(p, np.eye(p.d), V), f), _base_report(k)
    for name in ("condition_i", "condition_ii", "condition_iii"):
        assert getattr(rep, name).passed == getattr(base, name).passed, name
    assert rep.tgm_certified == base.tgm_certified
    if p is ONE:
        assert not rep.tgm_certified


def test_r2_linear_projector_is_singular_at_every_point_and_certifies():
    # the abstract's claim: the projector symbol may be singular at all
    # points.  The r = 2 linear FEM projector is (sigma_min / sigma_max
    # at most 2.2e-16 over these points), and its pair still certifies
    p = build_linear_interp_symbol(2)
    s = np.linalg.svd(p.evaluate_grid(sample_points(1, 64)), compute_uv=False)
    assert s.shape == (64, 2)
    assert np.all(s[:, -1] <= 1e-13 * s[:, 0])
    report = full_report(p, stiffness_symbol(2))
    assert report.tgm_certified and report.vcycle_certified
