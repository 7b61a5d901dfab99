import json

import numpy as np
import pytest

from blockmg import (MatrixTrigPolynomial, build_s, build_s_grid,
                     check_condition_i,
                     check_condition_ii, check_condition_iii,
                     check_fhat_properties, check_vcycle_bound, find_zero,
                     full_report)
from blockmg.conditions import fixed_point_shortcut_hypotheses, projector_defect
from blockmg.errors import SingularMatrixError
from blockmg.femgen import (build_geometric_symbol, build_linear_interp_symbol,
                            stiffness_symbol)
from blockmg.symbol import tensor_symbol

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
        assert projector_defect(p_l2, npoints=1024) <= 1e-9
        assert projector_defect(build_linear_interp_symbol(4), npoints=256) <= 1e-9

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
