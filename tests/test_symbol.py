import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmg import (MatrixTrigPolynomial, coarse_symbol, corner_sum,
                     corner_sums, find_zero, read_symbol, tensor_symbol,
                     write_symbol)
from blockmg.errors import (ArgumentError, DimensionError, SymbolZeroError,
                           TrackingError)
from blockmg.femgen import build_linear_interp_symbol, stiffness_symbol
from blockmg.symbol import (HERMITIAN_RTOL, sample_points, symbol_sup_norm,
                            tracked_eigenpairs)

from conftest import (max_coeff_difference, random_hermitian_symbol,
                      random_symbol, same_bits, symbols)


def scalar(coeffs):
    return MatrixTrigPolynomial.scalar(coeffs)


LAPLACE = {0: 2.0, 1: -1.0, -1: -1.0}          # 2 - 2cos
INTERP = {0: 2.0, 1: 1.0, -1: 1.0}             # 2 + 2cos


class TestEvaluate:
    def test_f_q2_at_zero(self, f_q2):
        want = np.array([[16.0, -16.0], [-16.0, 16.0]]) / 3.0
        np.testing.assert_allclose(f_q2.evaluate(0.0), want, atol=1e-12)

    def test_f_q2_at_pi(self, f_q2):
        want = np.array([[16.0, 0.0], [0.0, 12.0]]) / 3.0
        np.testing.assert_allclose(f_q2.evaluate(np.pi), want, atol=1e-12)

    def test_p_l2_at_pi(self, p_l2):
        want = np.array([[0.0, 0.0], [-2.0, 2.0]])
        np.testing.assert_allclose(p_l2.evaluate(np.pi), want, atol=1e-12)

    def test_hermitian_closure_many_points(self, f_q2):
        rng = np.random.default_rng(0)
        thetas = rng.uniform(0, 2 * np.pi, size=1_000_000)
        vals = f_q2.evaluate_grid(thetas)
        dev = np.max(np.abs(vals - np.conj(np.swapaxes(vals, 1, 2))))
        assert dev == 0.0  # symmetrized exactly

    def test_grid_matches_pointwise(self, p_l2):
        thetas = np.linspace(0, 2 * np.pi, 17)
        grid = p_l2.evaluate_grid(thetas)
        for k, t in enumerate(thetas):
            np.testing.assert_allclose(grid[k], p_l2.evaluate(t), atol=1e-14)

    def test_nonfinite_point_rejected(self, p_l2):
        with pytest.raises(ArgumentError):
            p_l2.evaluate(np.nan)


class TestCoefficients:
    def test_trim_drops_negligible(self):
        f = scalar({0: 1.0, 5: 1e-16})
        assert (5,) not in f.coeffs

    def test_hermitian_detection(self, f_q2, p_l2):
        assert f_q2.hermitian
        assert not p_l2.hermitian

    def test_trim_of_huge_entries_keeps_the_largest(self):
        # a Frobenius norm of such entries overflows unless scaled first
        f = MatrixTrigPolynomial({0: 1e200 * np.eye(2), 1: np.eye(2)})
        assert list(f.coeffs) == [(0,)]
        np.testing.assert_array_equal(f.coeffs[(0,)], 1e200 * np.eye(2))
        assert f.hermitian

    def test_near_max_entries_build_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = MatrixTrigPolynomial({0: 1.7e308 * np.eye(2), 1: -1.7e308 * np.eye(2)})
            g = MatrixTrigPolynomial({0: 1.7e308 * np.eye(2), 1: -1.7e308 * np.eye(2),
                                      -1: -1.7e308 * np.eye(2)})
        assert set(f.coeffs) == {(0,), (1,)} and not f.hermitian
        assert g.hermitian

    @pytest.mark.parametrize("c", [1e-16, 1e-12, 1e-8, 1.0, 1e8])
    def test_hermitian_flag_does_not_depend_on_scale(self, c):
        # a floor on the tolerance called every symbol with coefficients
        # below 1e-12 Hermitian, and evaluate_grid then symmetrized it
        f, p = stiffness_symbol(2), build_linear_interp_symbol(2)
        fc, pc = (MatrixTrigPolynomial({j: c * v for j, v in g.coeffs.items()}, m=1)
                  for g in (f, p))
        assert fc.hermitian and not pc.hermitian
        # the tensor projector the 2D report builds, with coefficients c^2
        assert not tensor_symbol([pc, pc]).hermitian

    def test_product_is_pointwise(self, f_q2, p_l2):
        g = p_l2.conj_transpose() @ f_q2 @ p_l2
        for t in (0.3, 1.7, 4.2):
            E = p_l2.evaluate(t)
            np.testing.assert_allclose(
                g.evaluate(t), E.conj().T @ f_q2.evaluate(t) @ E, atol=1e-12)


class TestFindZero:
    def test_scalar_laplacian(self):
        z = find_zero(scalar(LAPLACE))
        assert z.theta0[0] == pytest.approx(0.0, abs=1e-10)
        assert z.order == 2
        np.testing.assert_allclose(np.abs(z.q_jbar), [1.0])

    def test_f_q2(self, f_q2):
        z = find_zero(f_q2)
        assert z.theta0[0] == pytest.approx(0.0, abs=1e-10)
        assert z.jbar == 1
        assert z.order == 2
        np.testing.assert_allclose(z.q_jbar, np.ones(2) / np.sqrt(2), atol=1e-10)
        # the vanishing eigenvalue is unique and the kernel residual is tiny
        v = f_q2.evaluate(z.theta0[0])
        assert np.linalg.norm(v @ z.q_jbar) <= 1e-10 * np.linalg.norm(v, 2)

    def test_fourth_order_zero(self):
        # (2 - 2cos)^2 = 6 - 8cos + 2cos(2.)
        f = scalar({0: 6.0, 1: -4.0, -1: -4.0, 2: 1.0, -2: 1.0})
        z = find_zero(f)
        assert z.order == 4

    def test_not_nonnegative(self):
        with pytest.raises(SymbolZeroError):
            find_zero(scalar({0: 0.0, 1: 0.5, -1: 0.5}))  # cos dips negative

    def test_multiple_zeros(self):
        with pytest.raises(SymbolZeroError):
            find_zero(scalar({0: 2.0, 2: -1.0, -2: -1.0}))  # zeros at 0 and pi

    def test_zero_off_grid_points(self):
        # 2 - 2cos(theta - pi/3) has its zero at pi/3 (a snap candidate)
        shift = np.exp(-1j * np.pi / 3)
        z = find_zero(MatrixTrigPolynomial.scalar(
            {0: 2.0, 1: -shift, -1: -np.conj(shift)}))
        assert z.theta0[0] == pytest.approx(np.pi / 3, abs=1e-8)

    def test_zero_off_grid_and_off_snap(self):
        # 2 - 2cos(theta - t0) with t0 = 1 + pi/1024: on no grid point and
        # no multiple of pi/12, so only the refinement can locate it
        t0 = 1.0 + np.pi / 1024
        shift = np.exp(-1j * t0)
        z = find_zero(MatrixTrigPolynomial.scalar(
            {0: 2.0, 1: -shift, -1: -np.conj(shift)}))
        assert abs(z.theta0[0] - t0) <= 1e-7
        assert z.order == 2


class TestCoarseSymbol:
    def test_constant_result(self):
        fhat = coarse_symbol(scalar(LAPLACE), scalar({0: 1.0}))
        assert set(fhat.coeffs) == {(0,)}
        np.testing.assert_allclose(fhat.coeffs[(0,)], [[2.0]])

    def test_laplacian_with_interpolation(self):
        fhat = coarse_symbol(scalar(LAPLACE), scalar(INTERP))
        want = scalar({0: 4.0, 1: -2.0, -1: -2.0})
        assert max_coeff_difference(fhat, want) <= 1e-12

    def test_identity_projector_collapses(self, f_q2):
        p = MatrixTrigPolynomial({0: np.eye(2)})
        fhat = coarse_symbol(f_q2, p)
        for t in (0.0, 0.7, 2.9):
            want = 0.5 * (f_q2.evaluate(t / 2) + f_q2.evaluate(t / 2 + np.pi))
            np.testing.assert_allclose(fhat.evaluate(t), want, atol=1e-12)

    def test_halfangle_consistency_random(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            d = int(rng.integers(1, 4))
            f = random_hermitian_symbol(rng, d, 2, shift_to_psd=True)
            p = random_symbol(rng, d, 2)
            fhat = coarse_symbol(f, p)
            g = p.conj_transpose() @ f @ p
            for t in rng.uniform(0, 2 * np.pi, size=100):
                want = 0.5 * (g.evaluate(t) + g.evaluate(t + np.pi))
                got = fhat.evaluate(2 * t)
                assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.abs(want).max())

    def test_dimension_mismatch(self, f_q2):
        with pytest.raises(Exception):
            coarse_symbol(f_q2, scalar({0: 1.0}))


class TestTensorSymbol:
    def test_single_factor_unchanged(self, p_l2):
        assert tensor_symbol([p_l2]) is p_l2

    def test_scalar_product(self):
        p = scalar(INTERP)
        p2 = tensor_symbol([p, p])
        for t1, t2 in [(0.0, 1.0), (2.0, 0.5)]:
            want = (2 + 2 * np.cos(t1)) * (2 + 2 * np.cos(t2))
            assert p2.evaluate([t1, t2])[0, 0] == pytest.approx(want)

    def test_block_tensor_at_origin(self, p_l2):
        p2 = tensor_symbol([p_l2, p_l2])
        np.testing.assert_allclose(p2.evaluate([0.0, 0.0]),
                                   np.full((4, 4), 4.0), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            tensor_symbol([])


class TestCornerSum:
    def test_p_l2_at_zero(self, p_l2):
        want = np.array([[12.0, 4.0], [4.0, 12.0]])
        np.testing.assert_allclose(corner_sum(p_l2, 0.0), want, atol=1e-12)

    def test_scalar_hat(self):
        p = scalar({0: 1.0, 1: 0.5, -1: 0.5})   # 1 + cos
        for t in np.linspace(0, 2 * np.pi, 9):
            want = (1 + np.cos(t)) ** 2 + (1 - np.cos(t)) ** 2
            assert corner_sum(p, t)[0, 0] == pytest.approx(want)

    @pytest.mark.parametrize("m", [2, 3])
    def test_tensor_factorization(self, m):
        rng = np.random.default_rng(31 + m)
        ps = [random_symbol(rng, int(rng.integers(1, 3)), 1) for _ in range(m)]
        pm = tensor_symbol(ps)
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi, size=m)
            want = corner_sum(ps[0], t[:1])
            for ell in range(1, m):
                want = np.kron(want, corner_sum(ps[ell], t[ell:ell + 1]))
            got = corner_sum(pm, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.abs(want).max())


def corner_sum_reference(p, theta):
    """Per-corner loop: sum of p(xi)^H p(xi) over the 2^m corners."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    total = np.zeros((p.d, p.d), dtype=complex)
    for mask in range(2 ** p.m):
        eta = np.array([(mask >> ell) & 1 for ell in range(p.m)], dtype=float)
        E = p.evaluate(t + np.pi * eta)
        total += E.conj().T @ E
    return 0.5 * (total + total.conj().T)


def hermitian_reference(f):
    """Coefficient-wise check c_{-j} = c_j^H, written out independently."""
    scale = max(np.linalg.norm(c) for c in f.coeffs.values())
    tol = HERMITIAN_RTOL * scale
    zero = np.zeros((f.d, f.d), dtype=complex)
    return all(np.max(np.abs(f.coeffs.get(tuple(-v for v in j), zero) - c.conj().T)) <= tol
               for j, c in f.coeffs.items())


class TestBatchedEvaluation:
    @pytest.mark.parametrize("m", [1, 2])
    def test_evaluate_is_the_one_point_grid(self, m):
        rng = np.random.default_rng(40 + m)
        f = tensor_symbol([random_symbol(rng, 2, 2) for _ in range(m)])
        h = tensor_symbol([random_hermitian_symbol(rng, 2, 1) for _ in range(m)])
        ts = rng.uniform(0, 2 * np.pi, size=(20, m))
        for g in (f, h):
            grid = g.evaluate_grid(ts)
            for k, t in enumerate(ts):
                assert np.array_equal(g.evaluate(t), g.evaluate_grid(t[None])[0])
                np.testing.assert_allclose(g.evaluate(t), grid[k], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_corner_sums_match_per_corner_loop(self, m):
        rng = np.random.default_rng(50 + m)
        p = tensor_symbol([random_symbol(rng, 2, 2) for _ in range(m)])
        ts = rng.uniform(0, 2 * np.pi, size=(30, m))
        got = corner_sums(p, ts)
        assert got.shape == (30, p.d, p.d)
        for k, t in enumerate(ts):
            want = corner_sum_reference(p, t)
            assert np.max(np.abs(got[k] - want)) <= 1e-13 * max(1.0, np.abs(want).max())
            np.testing.assert_allclose(corner_sum(p, t), want, rtol=0,
                                       atol=1e-13 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_sup_norm_is_the_largest_spectral_norm(self, m, hermitian):
        # a Hermitian symbol takes max |eigenvalue|, any other an SVD
        rng = np.random.default_rng([60, m, hermitian])
        make = random_hermitian_symbol if hermitian else random_symbol
        f = tensor_symbol([make(rng, 2, 2) for _ in range(m)])
        assert f.hermitian == hermitian
        for npoints in (64, 256):
            want = max(np.linalg.svd(v, compute_uv=False)[0]
                       for v in f.evaluate_grid(sample_points(m, npoints)))
            assert symbol_sup_norm(f, npoints) == pytest.approx(want, rel=1e-14, abs=0)

    def test_grids_capped_at_four_variables(self):
        # 8 points per axis at least: 8^5 points, and a corner sum of
        # 16^5 values, would be the smallest five-variable grid
        assert sample_points(4, 256).shape == (8 ** 4, 4)
        f = MatrixTrigPolynomial.scalar({(0,) * 5: 1.0}, m=5)
        for sample in (lambda: sample_points(5, 256), lambda: symbol_sup_norm(f, 256),
                       lambda: find_zero(f)):
            with pytest.raises(ArgumentError, match="capped at m = 4"):
                sample()

    def test_corner_sums_accept_flat_univariate_grid(self, p_l2):
        ts = np.linspace(0, 2 * np.pi, 7)
        np.testing.assert_array_equal(corner_sums(p_l2, ts), corner_sums(p_l2, ts[:, None]))

    def test_grid_shape_mismatch_rejected(self, p_l2):
        p2 = tensor_symbol([p_l2, p_l2])
        with pytest.raises(ArgumentError):
            corner_sums(p2, np.zeros(4))
        with pytest.raises(ArgumentError):
            p2.evaluate_grid(np.zeros((4, 3)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3),
           degree=st.integers(0, 2), hermitian=st.booleans(),
           exponent=st.one_of(st.none(), st.integers(-16, 0)))
    def test_cached_hermitian_matches_coefficient_check(self, seed, d, degree,
                                                        hermitian, exponent):
        rng = np.random.default_rng(seed)
        f = (random_hermitian_symbol(rng, d, degree) if hermitian
             else random_symbol(rng, d, degree))
        coeffs = dict(f.coeffs)
        if exponent is not None:
            j = list(coeffs)[rng.integers(len(coeffs))]
            coeffs[j] = coeffs[j] + 10.0 ** exponent * rng.standard_normal((d, d))
        g = MatrixTrigPolynomial(coeffs, m=1)
        assert g.hermitian == hermitian_reference(g)


def evaluation_reference(f, ts):
    """sum_j c_j exp(i j.t) at each point, one coefficient at a time."""
    out = np.zeros((len(ts), f.d, f.d), dtype=complex)
    for j, c in f.coeffs.items():
        phase = sum(jk * ts[:, k] for k, jk in enumerate(j))
        out += np.exp(1j * phase)[:, None, None] * c
    return out


def window_symbol(rng, d, m, radius, hermitian):
    """Random symbol with every multi-index of [-radius, radius]^m."""
    keys = list(itertools.product(range(-radius, radius + 1), repeat=m))
    coeffs = {j: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for j in keys}
    if hermitian:
        coeffs = {j: 0.5 * (c + coeffs[tuple(-v for v in j)].conj().T)
                  for j, c in coeffs.items()}
    return MatrixTrigPolynomial(coeffs, m=m)


class TestEvaluationKernel:
    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("radius", [1, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_sum_of_coefficient_waves(self, m, radius, hermitian):
        rng = np.random.default_rng([m, radius, hermitian])
        f = window_symbol(rng, 2, m, radius, hermitian)
        assert f.hermitian == hermitian and f.window() == (radius,) * m
        # far points are multiples of 2^-20, so that every phase j.t is
        # exact and both sides take the cosine and sine of the same
        # numbers; near points are arbitrary doubles
        far = np.round(rng.uniform(-1e3, 1e3, size=(40, m)) * 2.0 ** 20) / 2.0 ** 20
        near = rng.uniform(-2 * np.pi, 2 * np.pi, size=(40, m))
        ts = np.concatenate([far, near, np.zeros((1, m))])
        got = f.evaluate_grid(ts)
        want = evaluation_reference(f, ts)
        scale = sum(np.linalg.norm(c) for c in f.coeffs.values())
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_naming_first_index(self, bad):
        c = np.eye(2, dtype=complex)
        c[1, 0] = bad
        with pytest.raises(ArgumentError, match=r"coefficient \(1,\) has a non-finite"):
            MatrixTrigPolynomial({0: np.eye(2), 1: c, 2: c})

    def test_complex_nan_in_imaginary_part(self):
        with pytest.raises(ArgumentError, match=r"\(-1,\)"):
            MatrixTrigPolynomial.scalar({0: 1.0, -1: complex(0.0, np.nan)})

    def test_named_before_a_later_malformed_coefficient(self):
        # coefficients are judged in insertion order, whichever check fails
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ArgumentError, match=r"coefficient \(0,\) has a non-finite"):
            MatrixTrigPolynomial({0: bad, 1: np.ones((2, 3))})
        with pytest.raises(DimensionError, match=r"coefficient \(0,\) is not square"):
            MatrixTrigPolynomial({0: np.ones((2, 3)), 1: bad})
        with pytest.raises(ArgumentError, match=r"coefficient \(1,\) has a non-finite"):
            MatrixTrigPolynomial({0: np.eye(2), 1: bad, 2: np.eye(3)})


def test_coefficients_stored_in_order_whatever_their_layout():
    # Fortran-ordered and strided inputs are stored row-major, in
    # insertion order, and the evaluation arrays hold the same values
    rng = np.random.default_rng(7)
    raw = {j: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
           for j in (2, -1, 0)}
    f = MatrixTrigPolynomial({j: c.T for j, c in raw.items()}
                             | {5: np.eye(6)[::2, ::2]})
    assert list(f.coeffs) == [(2,), (-1,), (0,), (5,)]
    for row, ((j,), c) in enumerate(f.coeffs.items()):
        want = raw[j].T if j != 5 else np.eye(3)
        np.testing.assert_array_equal(c, want)
        np.testing.assert_array_equal(f._C[row], want.ravel())
        assert c.flags.c_contiguous
    np.testing.assert_array_equal(f._J, [[2.0], [-1.0], [0.0], [5.0]])


class TestTrackedEigenpair:
    def test_ambiguity_raises(self):
        q = np.ones(3) / np.sqrt(3)  # overlap 0.577 with every axis vector
        with pytest.raises(TrackingError):
            tracked_eigenpairs(np.diag([1.0, 2.0, 3.0])[None], q)

    def test_follows_branch(self):
        lam, v, ov = tracked_eigenpairs(np.diag([1.0, 5.0])[None], np.array([0.1, 0.99]))
        assert lam[0] == pytest.approx(5.0)
        assert ov[0] > 0.9

    def test_tracking_through_crossing(self):
        # diagonal symbol with eigenvalue curves 2 -+ cos crossing at pi/2:
        # feeding back each eigenvector follows a branch through the
        # crossing, while ascending order swaps
        f = MatrixTrigPolynomial({
            0: np.diag([2.0, 2.0]),
            1: np.diag([0.5, -0.5]),
            -1: np.diag([0.5, -0.5])})
        grid = np.linspace(0, np.pi, 40)   # steps straddle the crossing
        for branch, want in ((0, 2.0 + np.cos(grid)), (1, 2.0 - np.cos(grid))):
            q = np.eye(2)[branch]
            got = []
            for v in f.evaluate_grid(grid):
                lam, V, _ = tracked_eigenpairs(v[None], q)
                q = V[0]
                got.append(lam[0])
            np.testing.assert_allclose(got, want, atol=1e-10)
        assert np.linalg.eigvalsh(f.evaluate(np.pi))[0] == pytest.approx(1.0)


class TestExchangeFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        f = random_symbol(rng, 3, 2)
        path = tmp_path / "sym.txt"
        write_symbol(path, f)
        g = read_symbol(path)
        assert g.d == f.d and g.m == f.m
        assert set(g.coeffs) == set(f.coeffs)
        for j in f.coeffs:
            assert np.array_equal(g.coeffs[j], f.coeffs[j])

    @settings(max_examples=100, deadline=None)
    @given(f=symbols())
    def test_roundtrip_bit_exact_random(self, tmp_path_factory, f):
        path = tmp_path_factory.mktemp("sym") / "f.sym"
        write_symbol(path, f)
        g = read_symbol(path)
        assert (g.d, g.m) == (f.d, f.m)
        assert set(g.coeffs) == set(f.coeffs)
        assert all(same_bits(g.coeffs[j], f.coeffs[j]) for j in f.coeffs)

    def test_roundtrip_multivariate(self, tmp_path, p_l2):
        f = tensor_symbol([p_l2, p_l2])
        path = tmp_path / "sym2.txt"
        write_symbol(path, f)
        assert max_coeff_difference(read_symbol(path), f) == 0.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a symbol\n")
        with pytest.raises(ArgumentError):
            read_symbol(path)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text("symbol v1\nd 2\nm 1\ncoeff 0\n1.0+0.0i 2.0+0.0i\nend\n")
        with pytest.raises(ArgumentError):
            read_symbol(path)

    def test_file_ends_inside_block(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("symbol v1\nd 2\nm 1\ncoeff 0\n1+0i 0+0i\n")
        with pytest.raises(ArgumentError, match="truncated coefficient block"):
            read_symbol(path)

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "entry.txt"
        path.write_text("symbol v1\nd 1\nm 1\ncoeff 0\nbogus\nend\n")
        with pytest.raises(ArgumentError):
            read_symbol(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArgumentError, match="cannot read symbol file"):
            read_symbol(tmp_path / "missing.sym")

    def test_nan_coefficient(self, tmp_path):
        path = tmp_path / "nan.sym"
        path.write_text("symbol v1\nd 1\nm 1\ncoeff 0\nnan+0.0i\nend\n")
        with pytest.raises(ArgumentError, match="non-finite"):
            read_symbol(path)


def test_find_zero_q_r_family():
    from blockmg.femgen import stiffness_symbol
    for r in range(1, 9):
        z = find_zero(stiffness_symbol(r))
        assert z.theta0[0] == pytest.approx(0.0, abs=1e-10)
        assert z.order == 2
        np.testing.assert_allclose(z.q_jbar, np.ones(r) / np.sqrt(r), atol=1e-8)
