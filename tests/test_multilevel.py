import json

import numpy as np
import pytest
import scipy.sparse as sp

from blockmg import (MatrixTrigPolynomial, assemble_toeplitz,
                     assemble_transfer, build_s, conditions, corner_sum,
                     full_report, multilevel, tensor_symbol)
from blockmg.errors import ArgumentError, ConstructionError, DimensionError
from blockmg.femgen import (FemProblem, _transfer_chain, assemble_mass, assemble_stiffness,
                            build_fem_hierarchy, build_geometric_symbol,
                            build_linear_interp_symbol, mass_symbol,
                            projector_symbol, stiffness_symbol)
from blockmg.mgsolve import DEFAULT_COARSEST, SmootherSpec, solve
from blockmg.multilevel import (_kron_csr, assemble_2d_problem, build_2d_hierarchy,
                                check_multilevel_conditions, kron_sum,
                                tensor_sum_symbol)
from blockmg.structured import BlockStructuredMatrix, GridTransfer, galerkin
from blockmg.symbol import coarse_symbol
from conftest import same_bits

LAPLACE = MatrixTrigPolynomial.scalar({0: 2.0, 1: -1.0, -1: -1.0})
INTERP = MatrixTrigPolynomial.scalar({0: 2.0, 1: 1.0, -1: 1.0})


class TestMultilevelToeplitz:
    def test_center_rows_match_coarse_symbol(self):
        # Galerkin through the 2D tensor transfer of the 2D scalar
        # Laplacian agrees with the coefficient-extracted coarse symbol
        # on rows away from the boundary.  The symbols are scalar and
        # separable, so their two-level Toeplitz matrices (row-major
        # grid order) are Kronecker products of the 1D ones.
        f2d = MatrixTrigPolynomial.scalar(
            {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0})
        p2d = tensor_symbol([INTERP, INTERP])
        T = assemble_toeplitz(LAPLACE, 15).matrix
        eye = sp.identity(15, format="csr")
        A = sp.kron(T, eye) + sp.kron(eye, T)
        P1 = assemble_transfer(INTERP, 16, "trimmed").matrix
        P = sp.kron(P1, P1)
        coarse = (P.conj().T @ A @ P).toarray().real
        g = p2d.conj_transpose() @ f2d @ p2d
        fhat = MatrixTrigPolynomial(
            {(j1 // 2, j2 // 2): c for (j1, j2), c in g.coeffs.items()
             if j1 % 2 == 0 and j2 % 2 == 0}, m=2)
        # center node of the 7x7 coarse grid
        center = 3 * 7 + 3
        for (j1, j2), c in fhat.coeffs.items():
            assert coarse[center, (3 + j1) * 7 + (3 + j2)] == pytest.approx(
                c[0, 0].real, abs=1e-10)
        # second-order zero at the origin, slope 2 per axis
        for axis in range(2):
            hs = 2.0 ** -np.arange(3, 9)
            lams = []
            for h in hs:
                t = np.zeros(2)
                t[axis] = h
                lams.append(np.linalg.eigvalsh(fhat.evaluate(t))[0])
            slope = np.polyfit(np.log(hs), np.log(lams), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.05)


class TestTensorSumSymbol:
    def test_matches_kron_sum_pointwise(self):
        f = stiffness_symbol(2)
        h = mass_symbol(2)
        f2d = tensor_sum_symbol(f, h)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
            want = (np.kron(f.evaluate(t1), h.evaluate(t2))
                    + np.kron(h.evaluate(t1), f.evaluate(t2)))
            np.testing.assert_allclose(f2d.evaluate([t1, t2]), want, atol=1e-12)

    @staticmethod
    def kron_loop(f, h):
        """f (x) h + h (x) f one coefficient pair at a time, over the
        union of the factors' indices in set order."""
        zero_f = np.zeros((f.d, f.d), dtype=complex)
        zero_h = np.zeros((h.d, h.d), dtype=complex)
        keys = set(j for (j,) in f.coeffs) | set(j for (j,) in h.coeffs)
        return MatrixTrigPolynomial(
            {(j1, j2): np.kron(f.coeffs.get((j1,), zero_f), h.coeffs.get((j2,), zero_h))
             + np.kron(h.coeffs.get((j1,), zero_h), f.coeffs.get((j2,), zero_f))
             for j1 in keys for j2 in keys}, m=2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_fem_pairs_match_kron_loop_bit_for_bit(self, r):
        f, h = stiffness_symbol(r), mass_symbol(r)
        got, want = tensor_sum_symbol(f, h), self.kron_loop(f, h)
        assert list(got.coeffs) == list(want.coeffs)
        assert got._C.tobytes() == want._C.tobytes()
        assert got.hermitian and want.hermitian

    def test_complex_factors_of_different_windows(self):
        rng = np.random.default_rng(3)

        def cplx():
            return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

        f = MatrixTrigPolynomial({0: cplx(), 1: cplx(), -2: cplx()})
        h = MatrixTrigPolynomial({0: cplx(), 3: cplx()})
        got, want = tensor_sum_symbol(f, h), self.kron_loop(f, h)
        assert got.d == 4 and list(got.coeffs) == list(want.coeffs)
        # real factors multiply exactly either way (the FEM test above);
        # complex ones are held to round-off, not to one multiply kernel
        np.testing.assert_allclose(got._C, want._C, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", ["stiffness first", "mass first"])
    def test_factors_of_different_block_orders_are_refused(self, order):
        # kron(f, h) and kron(h, f) would index their dofs differently
        pair = [stiffness_symbol(2), mass_symbol(3)]
        if order == "mass first":
            pair.reverse()
        with pytest.raises(DimensionError, match="one block order"):
            tensor_sum_symbol(*pair)


class TestAssemble2D:
    def test_nine_point_pattern(self):
        problem = assemble_2d_problem(1, 2)
        A = problem.matrix.dense().real
        K = (np.diag([2.0] * 3) + np.diag([-1.0] * 2, 1)
             + np.diag([-1.0] * 2, -1))
        M = (np.diag([4.0] * 3) + np.diag([1.0] * 2, 1)
             + np.diag([1.0] * 2, -1)) / 6.0
        np.testing.assert_allclose(A, np.kron(K, M) + np.kron(M, K), atol=1e-12)

    def test_spd_and_kernel_direction(self):
        problem = assemble_2d_problem(2, 2)
        assert np.linalg.eigvalsh(problem.matrix.dense().real)[0] > 0
        f2d = tensor_sum_symbol(stiffness_symbol(2), mass_symbol(2))
        q = np.kron(np.ones(2), np.ones(2)) / 2.0
        v = f2d.evaluate([0.0, 0.0])
        assert np.linalg.norm(v @ q) <= 1e-10
        assert sum(np.linalg.eigvalsh(v) < 1e-10) == 1

    def test_caps(self):
        with pytest.raises(ArgumentError):
            assemble_2d_problem(4, 3)
        with pytest.raises(ArgumentError):
            assemble_2d_problem(1, 8)


class TestHierarchy2D:
    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    def test_vcycle_converges(self, kind):
        problem = assemble_2d_problem(2, 3)
        h = build_2d_hierarchy(problem, kind, SmootherSpec())
        rng = np.random.default_rng(1)
        b = problem.matrix.matrix @ rng.uniform(size=problem.size)
        res = solve(h, b, tol=1e-6)
        assert res.converged and res.iterations <= 12

    def test_coarse_levels_spd(self):
        problem = assemble_2d_problem(1, 4)
        h = build_2d_hierarchy(problem, "linear")
        for lvl in h.levels:
            if lvl.matrix.size <= 512:
                assert np.linalg.eigvalsh(lvl.matrix.dense().real)[0] > 0

    @pytest.mark.parametrize("r, t, coarsest, two_level, sizes", [
        (2, 5, 64, False, [3969, 961, 225, 49]),
        (1, 5, 64, False, [961, 225, 49]),
        (2, 5, 1000, False, [3969, 961]),
        (2, 5, 64, True, [3969, 961]),
        (3, 4, 64, False, [2209, 529, 121, 25]),
    ])
    def test_level_sizes(self, r, t, coarsest, two_level, sizes):
        h = build_2d_hierarchy(assemble_2d_problem(r, t), "geometric",
                               coarsest_max_size=coarsest, two_level=two_level)
        assert [lvl.matrix.size for lvl in h.levels] == sizes

    def test_transfers_store_no_explicit_zero(self):
        # scipy's kron stores dense blocks here, 110 of 231 entries zero
        h = build_2d_hierarchy(assemble_2d_problem(2, 2), "geometric")
        (P,) = [lvl.transfer.matrix for lvl in h.levels[:-1]]
        assert P.nnz == np.count_nonzero(P.data) == 121

    def test_rejects_unknown_kind(self):
        with pytest.raises(ArgumentError, match="unknown transfer kind"):
            build_2d_hierarchy(assemble_2d_problem(1, 3), "algebraic")

    def test_rejects_problem_without_factors(self):
        with pytest.raises(ArgumentError, match="1D factors"):
            build_2d_hierarchy(assemble_stiffness(1, 8), "linear")

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_problem_records_hermiticity_where_it_is_formed(self, r):
        for t in range(2, 6):
            problem = assemble_2d_problem(r, t)
            for A in (problem.matrix, *problem.factors):
                assert A.exactly_hermitian, t
                assert (A.matrix != A.matrix.conj().T).nnz == 0, t

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_unrecorded_problem_builds_and_solves_unedited(self, r, kind):
        # a hand-built problem of unrecorded copies: the hierarchy leaves
        # its matrix unrecorded, and the solve, on the general path at
        # level 0, gives the recorded problem's bits
        recorded = assemble_2d_problem(r, 4)
        copies = FemProblem(r, recorded.n_elements,
                            BlockStructuredMatrix(recorded.matrix.matrix.copy()),
                            tuple(BlockStructuredMatrix(F.matrix.copy())
                                  for F in recorded.factors))
        results = []
        for problem in (recorded, copies):
            flag = problem.matrix.exactly_hermitian
            h = build_2d_hierarchy(problem, kind, SmootherSpec())
            assert h.levels[0].matrix is problem.matrix
            assert problem.matrix.exactly_hermitian == flag
            assert all(lvl.matrix.exactly_hermitian for lvl in h.levels[1:])
            b = problem.matrix.matrix @ np.random.default_rng(3).uniform(size=problem.size)
            results.append(solve(h, b))
        assert not copies.matrix.exactly_hermitian
        got, want = results[1], results[0]
        assert got.converged and got.residuals == want.residuals
        assert same_bits(got.x, want.x)


class TestTensorLevels:
    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_match_triple_product_hierarchy(self, r, t, kind):
        # oracle: the Galerkin chain of the full Kronecker matrix through
        # kron(P, P), which the tensor identity replaces
        n = 2 ** t
        K = assemble_stiffness(r, n).matrix.matrix
        M = assemble_mass(r, n).matrix
        fine = (sp.kron(K, M) + sp.kron(M, K)).tocsr()
        want = [BlockStructuredMatrix(fine)]
        for T in _transfer_chain(r, n, kind, 2, 64, False):
            want.append(galerkin(want[-1], GridTransfer(sp.kron(T.matrix, T.matrix))))
        problem = assemble_2d_problem(r, t)
        got = [lvl.matrix.matrix for lvl in build_2d_hierarchy(problem, kind).levels]
        assert [A.shape for A in got] == [B.matrix.shape for B in want]
        assert [A.nnz for A in got] == [B.matrix.nnz for B in want]
        for A, B in zip(got, want):
            assert abs(A - B.matrix).max() <= 1e-13 * abs(B.matrix).max()
        finest = got[0]
        assert finest is problem.matrix.matrix
        np.testing.assert_array_equal(finest.indptr, fine.indptr)
        np.testing.assert_array_equal(finest.indices, fine.indices)
        np.testing.assert_array_equal(finest.data, fine.data)

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_levels_are_the_kronecker_sum_of_the_1d_chains(self, r, kind):
        # level k is K_k (x) M_k + M_k (x) K_k, with K_k the levels of the
        # 1D hierarchy and M_k the mass chain through its transfers, and
        # so also with K_k, M_k the trimmed T_n of the coarse-symbol
        # chains.  Worst measured: 0 against the 1D hierarchy (t = 4..6),
        # 1.2e-13 against the symbol chains (t = 5..7; r = 3 linear,
        # level 6 of t = 7)
        t = 6
        n = 2 ** t
        h = build_2d_hierarchy(assemble_2d_problem(r, t), kind)
        h1 = build_fem_hierarchy(assemble_stiffness(r, n), kind, coarsest_max_size=1)
        assert len(h.levels) >= 4 and len(h1.levels) >= len(h.levels)
        p = projector_symbol(r, kind)
        f, m = stiffness_symbol(r), mass_symbol(r)
        mass = assemble_mass(r, n)
        for k, lvl in enumerate(h.levels):
            if k > 0:
                f, m = coarse_symbol(f, p), coarse_symbol(m, p)
                mass = galerkin(mass, h1.levels[k - 1].transfer)
            K, M = h1.levels[k].matrix.matrix, mass.matrix
            n_k = n // 2 ** k
            Kf, Mf = (assemble_toeplitz(g, n_k).matrix[:-1, :-1] for g in (f, m))
            for want in (sp.kron(K, M) + sp.kron(M, K), sp.kron(Kf, Mf) + sp.kron(Mf, Kf)):
                got = lvl.matrix.matrix
                assert got.shape == want.shape
                assert abs(got - want).max() <= 1e-12 * abs(want).max(), k

    def test_kron_sum_needs_one_pattern(self):
        K = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(5, 5)).tocsr()
        M = sp.diags([1.0, 4.0], [-1, 0], shape=(5, 5)).tocsr()
        with pytest.raises(ConstructionError, match="one sparsity pattern"):
            kron_sum(BlockStructuredMatrix(K), BlockStructuredMatrix(M))


def coo_kron_sum(K, M):
    """The COO construction of K (x) M + M (x) K: both products on one
    coordinate list, converted to CSR by scipy's sort."""
    K, M = (A if A.has_sorted_indices else A.sorted_indices() for A in (K, M))
    n = K.shape[0]
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    row = np.repeat(np.arange(n, dtype=index), np.diff(K.indptr))
    col = K.indices.astype(index, copy=False)
    rows = (row[:, None] * n + row).ravel()
    cols = (col[:, None] * n + col).ravel()
    data = (np.multiply.outer(K.data, M.data) + np.multiply.outer(M.data, K.data)).ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=(n * n, n * n)).tocsr()


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def with_index(A, index):
    """A with its index arrays stored as ``index``, which the CSR
    constructor would narrow."""
    A.indices, A.indptr = A.indices.astype(index), A.indptr.astype(index)
    return A


def shared_pattern_pair(rng, n, dtype):
    """Two CSR matrices of one random pattern with empty rows, their
    indices unsorted and int64."""
    pattern = sp.random(n, n, density=0.3, random_state=rng, format="csr")
    pattern.data[:] = 1.0
    empty = rng.choice(n, size=n // 4, replace=False)
    pattern = (sp.diags(np.isin(np.arange(n), empty, invert=True).astype(float))
               @ pattern).tocsr()
    pattern.eliminate_zeros()
    pattern.sort_indices()
    assert np.any(np.diff(pattern.indptr) == 0)
    order = np.concatenate([np.arange(pattern.indptr[i], pattern.indptr[i + 1])[::-1]
                            for i in range(n)]).astype(int)
    pair = []
    for _ in range(2):
        values = rng.standard_normal(pattern.nnz).astype(dtype)
        if dtype is complex:
            values += 1j * rng.standard_normal(pattern.nnz)
        pair.append(with_index(sp.csr_matrix((values[order], pattern.indices[order],
                                              pattern.indptr), shape=(n, n)), np.int64))
    assert not pair[0].has_sorted_indices
    return pair


class TestKronCSR:
    """The direct CSR build against scipy's COO route, bit for bit."""

    @pytest.mark.parametrize("coefficient", ["one", "xsq_plus_one"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    def test_kron_sum_of_fem_pairs(self, r, t, coefficient):
        K = assemble_stiffness(r, 2 ** t, coefficient).matrix
        M = assemble_mass(r, 2 ** t)
        got = kron_sum(K, M)
        assert got.exactly_hermitian
        assert_same_csr(got.matrix, coo_kron_sum(K.matrix, M.matrix))

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    def test_kron_sum_of_a_complex_pair(self, index):
        K = assemble_stiffness(2, 16).matrix.matrix
        M = assemble_mass(2, 16).matrix
        K, M = (with_index(A * z, index) for A, z in ((K, 1.0 + 0.5j), (M, 0.3 - 1.0j)))
        assert K.indices.dtype == M.indptr.dtype == index
        got = kron_sum(BlockStructuredMatrix(K), BlockStructuredMatrix(M)).matrix
        assert got.dtype == complex and got.indices.dtype == np.int32
        assert_same_csr(got, coo_kron_sum(K, M))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kron_sum_of_random_shared_patterns(self, seed, dtype):
        K, M = shared_pattern_pair(np.random.default_rng(seed), 12, dtype)
        got = kron_sum(BlockStructuredMatrix(K), BlockStructuredMatrix(M))
        # unrecorded factors give an unrecorded sum
        assert not got.exactly_hermitian
        got = got.matrix
        assert got.has_sorted_indices
        assert_same_csr(got, coo_kron_sum(K, M))

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    def test_transfers_match_scipy_kron(self, r, t, kind):
        for T in _transfer_chain(r, 2 ** t, kind, 2, DEFAULT_COARSEST, False):
            P = T.matrix
            want = sp.kron(P, P).tocsr()
            want.eliminate_zeros()
            assert_same_csr(_kron_csr(P, P, np.multiply.outer(P.data, P.data)), want)

    def test_wide_factors_take_int64_indices(self):
        # 50000^2 columns overflow int32; one entry each keeps it small
        n = 50_000
        A = sp.csr_matrix(([2.0], [n - 1], [0, 1]), shape=(1, n))
        B = sp.csr_matrix(([3.0], [n - 2], [0, 1]), shape=(1, n))
        got = _kron_csr(A, B, np.multiply.outer(A.data, B.data))
        assert got.indices.dtype == np.int64
        assert_same_csr(got, sp.kron(A, B).tocsr())


class TestMultilevelConditions:
    def test_tensor_factorizations_random_points(self, p_l2):
        pg2 = build_geometric_symbol(2)
        p2d = tensor_symbol([p_l2, pg2])
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = rng.uniform(0, 2 * np.pi, size=2)
            corner = corner_sum(p2d, t)
            kron_corner = np.kron(corner_sum(p_l2, t[:1]), corner_sum(pg2, t[1:]))
            assert np.max(np.abs(corner - kron_corner)) <= 1e-10 * (
                1 + np.abs(kron_corner).max())
            s = build_s(p2d, t)
            kron_s = np.kron(build_s(p_l2, t[:1]), build_s(pg2, t[1:]))
            assert np.max(np.abs(s - kron_s)) <= 1e-10

    def test_tensor_eigenvector_fixed_point(self, p_l2):
        p2d = tensor_symbol([p_l2, p_l2])
        q = np.kron(np.ones(2), np.ones(2)) / 2.0
        s0 = build_s(p2d, np.zeros(2))
        assert np.linalg.norm(s0 @ q - q) <= 1e-9

    def test_full_checker(self, p_l2):
        f = stiffness_symbol(2)
        f2d = tensor_sum_symbol(f, mass_symbol(2))
        report = check_multilevel_conditions([p_l2, p_l2], f2d, fs=[f, f])
        assert report.tgm_certified
        assert report.condition_i.passed
        assert report.fixed_point.passed
        assert report.condition_iii_directional.passed
        assert report.corner_factorization.passed
        assert report.s_factorization.passed
        assert report.tensor_eigenvector.passed
        assert report.vcycle_heuristic["label"] == "heuristic"
        doc = report.to_json()
        assert "heuristic" in doc

    def test_one_factor_report_per_distinct_pair(self, p_l2, monkeypatch):
        f = stiffness_symbol(2)
        f2d = tensor_sum_symbol(f, mass_symbol(2))
        twin = MatrixTrigPolynomial(p_l2.coeffs)  # equal but distinct: two reports
        separate = check_multilevel_conditions([p_l2, twin], f2d, fs=[f, f]).to_json()
        calls = []
        full_report = multilevel.full_report
        monkeypatch.setattr(multilevel, "full_report",
                            lambda p, g: calls.append(p) or full_report(p, g))
        shared = check_multilevel_conditions([p_l2, p_l2], f2d, fs=[f, f])
        assert len(calls) == 1
        assert len(shared.factor_reports) == 2
        assert shared.to_json() == separate

    @pytest.mark.parametrize("coeffs", [{0: 1.0}, {0: 0.0}, {0: 1.0, 2: -1.0}],
                             ids=["injection", "zero", "one-minus-e2it"])
    def test_degenerate_projector_fails_without_raising(self, coeffs):
        # the injection control settles condition (iii) as failed on its
        # first direction; the other two have a singular factor corner sum
        p = MatrixTrigPolynomial.scalar(coeffs)
        f = stiffness_symbol(1)
        f2d = tensor_sum_symbol(f, mass_symbol(1))
        report = check_multilevel_conditions([p, p], f2d, fs=[f, f])
        assert not report.tgm_certified
        assert not report.tensor_eigenvector.passed
        json.loads(report.to_json())

    def test_fs_required(self, p_l2):
        f = stiffness_symbol(2)
        f2d = tensor_sum_symbol(f, mass_symbol(2))
        with pytest.raises(TypeError):
            check_multilevel_conditions([p_l2, p_l2], f2d)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("build", [build_linear_interp_symbol, build_geometric_symbol],
                         ids=["linear", "geometric"])
def test_full_report_of_a_tensor_pair_agrees_with_the_multilevel_checker(r, build):
    f = stiffness_symbol(r)
    f2d = tensor_sum_symbol(f, mass_symbol(r))
    p = build(r)
    rep = full_report(tensor_symbol([p, p]), f2d)
    ml = check_multilevel_conditions([p, p], f2d, fs=[f, f])
    assert rep.tgm_certified and ml.tgm_certified
    assert (rep.zero.theta0, rep.zero.jbar, rep.zero.order) == \
        ((0.0, 0.0), 1, 2)
    assert rep.condition_iii.evidence["route"] == ml.condition_iii_directional.evidence["route"]
    # one bound over all eight directions is conservative in 2D: for these
    # pairs the ratio is bounded but its limit depends on the direction
    conservative = r == 1 or (r == 3 and build is build_linear_interp_symbol)
    assert rep.vcycle_bound.passed != conservative
    if conservative:
        assert rep.vcycle_bound.evidence["reason"] == "directional estimates disagree"


def test_multilevel_checker_locates_no_bivariate_zero_and_tracks_no_tensor_branch(
        p_l2, monkeypatch):
    # the tensor zero comes from the factor reports, and condition (iii)
    # skips the shifted-branch surrogate, the two costly steps of full_report
    f = stiffness_symbol(2)
    f2d = tensor_sum_symbol(f, mass_symbol(2))
    calls = []
    find_zero, track = conditions.find_zero, conditions.shifted_branch_eigenvalue
    monkeypatch.setattr(conditions, "find_zero",
                        lambda g: calls.append(("zero", g.m)) or find_zero(g))
    monkeypatch.setattr(conditions, "shifted_branch_eigenvalue",
                        lambda p, *args: calls.append(("branch", p.m)) or track(p, *args))
    report = check_multilevel_conditions([p_l2, p_l2], f2d, fs=[f, f])
    assert report.tgm_certified
    assert sorted(calls) == [("branch", 1), ("zero", 1)]
