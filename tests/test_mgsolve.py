import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

from blockmg import (MatrixTrigPolynomial, MultigridHierarchy, SmootherSpec,
                     assemble_toeplitz, assemble_transfer, mgsolve,
                     richardson_omega_default, smooth, solve, tgm_step,
                     vcycle_step)
from blockmg.errors import (ArgumentError, ConfigurationError, ConstructionError,
                            NumericalError, SingularMatrixError)
from blockmg.femgen import (COEFFICIENTS, FemProblem, assemble_stiffness,
                            build_fem_hierarchy, stiffness_symbol)
from blockmg.mgsolve import (GAUSS_SEIDEL, RICHARDSON, TGM, VCYCLE, _Level,
                             _check_index_width, _coarse_solver,
                             _lower_triangular_solve, detect_divergence,
                             gershgorin_bound)
from blockmg.multilevel import assemble_2d_problem, build_2d_hierarchy
from blockmg.structured import BlockStructuredMatrix, galerkin
from conftest import same_bits

LAPLACE = MatrixTrigPolynomial.scalar({0: 2.0, 1: -1.0, -1: -1.0})
INTERP = MatrixTrigPolynomial.scalar({0: 2.0, 1: 1.0, -1: 1.0})
GS = SmootherSpec()
_C1 = np.array([[-1.0 + 0.5j, 0.25j], [0.3, -1.0 - 0.2j]])
COMPLEX_HERMITIAN = MatrixTrigPolynomial(
    {0: np.array([[6.0, 1.0 - 1.0j], [1.0 + 1.0j, 6.0]]), 1: _C1, -1: _C1.conj().T})


def tridiag(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()


def lone(M, spec=GS):
    """The sparse matrix M as a level of its own, smoothed by ``spec``."""
    return _Level(BlockStructuredMatrix(M), None, spec)


def flagged(M) -> BlockStructuredMatrix:
    """M as a level whose Hermitian test has recorded
    ``exactly_hermitian``, as the builders record it on their levels.
    The test puts M in canonical form in place."""
    A = BlockStructuredMatrix(M)
    A.is_hermitian()
    return A


def banded(M) -> bool:
    """Whether the band of M fits in nnz(M) (:func:`mgsolve._band`)."""
    return mgsolve._band(M, *mgsolve._column_offsets(M)) is not None


class TestSmooth:
    def test_richardson_identity_exact(self):
        b = np.array([1.0, -2.0, 3.0])
        spec = SmootherSpec(kind="richardson", omega=1.0)
        x = smooth(lone(sp.eye(3).tocsr(), spec), np.zeros(3), b, 1)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_gauss_seidel_diagonal_exact(self):
        A = sp.diags([2.0, 4.0]).tocsr()
        x = smooth(lone(A), np.zeros(2), np.array([2.0, 4.0]), 1)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_gauss_seidel_forward_sweep(self):
        x = smooth(lone(tridiag(3)), np.zeros(3), np.ones(3), 1)
        np.testing.assert_allclose(x, [0.5, 0.75, 0.875], atol=1e-14)

    def test_zero_sweeps_is_identity(self):
        x0 = np.array([1.0, 2.0, 3.0])
        x = smooth(lone(tridiag(3)), x0, np.ones(3), 0)
        np.testing.assert_allclose(x, x0)

    @pytest.mark.parametrize("sweeps", [0, 2])
    @pytest.mark.parametrize("kind", [GAUSS_SEIDEL, RICHARDSON])
    def test_complex_start_on_a_real_system_keeps_its_imaginary_part(self, kind,
                                                                     sweeps):
        # the sweeps are linear in (x, b): the real and imaginary parts of
        # x are smoothed against b and against 0
        spec = SmootherSpec(kind=kind)
        A, b = tridiag(5), np.arange(1.0, 6.0)
        x = np.linspace(-1.0, 1.0, 5) + 1j * np.linspace(2.0, 3.0, 5)
        level = lone(A, spec)
        got = smooth(level, x, b, sweeps)
        want = (smooth(level, x.real, b, sweeps)
                + 1j * smooth(level, x.imag, np.zeros(5), sweeps))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_omega_out_of_range(self):
        spec = SmootherSpec(kind="richardson", omega=0.6)
        with pytest.raises(ConfigurationError):
            smooth(lone(sp.diags([2.0, 4.0]).tocsr(), spec), np.zeros(2), np.ones(2), 1)

    def test_omega_near_sharp_bound_accepted(self):
        # Gershgorin over-estimates; the sharp spectral check must accept
        A = tridiag(31)
        lam_max = max(np.linalg.eigvalsh(A.toarray()))
        spec = SmootherSpec(kind="richardson", omega=1.9 / lam_max)
        smooth(lone(A, spec), np.zeros(31), np.ones(31), 1)

    def test_omega_just_above_sharp_bound_rejected(self):
        # lambda_max = 3.99985 on 255 unknowns, so 2/lambda_max = 0.500019;
        # 2 omega - omega^2 lambda_max = -3.1e-3 at omega = 0.50156
        A = flagged(assemble_stiffness(1, 256).matrix.matrix)
        M = A.matrix
        assert 0.50156 >= 2.0 / gershgorin_bound(M) and A.exactly_hermitian
        with pytest.raises(ConfigurationError):
            mgsolve._check_omega(M, 0.50156, A.exactly_hermitian)
        mgsolve._check_omega(M, 0.50001, A.exactly_hermitian)

    def test_huge_omega_rejected_without_overflow(self):
        # omega^2 lambda_max would overflow a float at omega = 1e200
        A = flagged(assemble_stiffness(2, 16).matrix.matrix)
        with pytest.raises(ConfigurationError, match="outside"):
            mgsolve._check_omega(A.matrix, 1e200, A.exactly_hermitian)

    def test_lambda_max_off_the_band_matches_dense(self):
        # a 2D level is not banded, so ARPACK bounds it
        A = flagged(assemble_2d_problem(2, 4).matrix.matrix)
        M = A.matrix
        assert A.exactly_hermitian and mgsolve._hermitian_band(M, True) is None
        want = np.linalg.eigvalsh(M.toarray())[-1]
        assert mgsolve._lambda_max(M, True) == pytest.approx(want, rel=1e-8)
        with pytest.raises(ConfigurationError):
            mgsolve._check_omega(M, 2.0 / want * (1 + 1e-6), True)
        mgsolve._check_omega(M, 2.0 / want * (1 - 1e-6), True)

    def test_size_mismatch(self):
        with pytest.raises(ArgumentError):
            smooth(lone(tridiag(3)), np.zeros(3), np.ones(4), 1)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SmootherSpec(kind="sor")
        assert SmootherSpec(kind="richardson").omega is None   # per-level 1/C
        with pytest.raises(ConfigurationError):
            SmootherSpec(sweeps_pre=-1)
        for omega in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                SmootherSpec(kind="richardson", omega=omega)
        # a sweep count must be an integer, omega a real number, neither a bool
        for bad in ({"sweeps_pre": 1.5}, {"sweeps_post": 2.0}, {"sweeps_pre": "1"},
                    {"sweeps_post": True}, {"kind": "richardson", "omega": "0.1"},
                    {"kind": "richardson", "omega": 0.1 + 0j},
                    {"kind": "richardson", "omega": True},
                    # omega is a Richardson parameter only
                    {"omega": 0.3}, {"kind": "gauss_seidel", "omega": 0.3}):
            with pytest.raises(ConfigurationError):
                SmootherSpec(**bad)
        spec = SmootherSpec(kind="richardson", omega=np.float64(0.1),
                            sweeps_pre=np.int64(2), sweeps_post=0)
        assert (spec.sweeps_pre, spec.sweeps_post) == (2, 0)


def _backend(correct):
    """The kernel a prepared Gauss-Seidel solve or coarse solver
    applies: "gstrs" for SuperLU's sparse triangular solver, "tbtrs" or
    "pbtrs" for banded LAPACK, "splu" for a SuperLU factor, held in a
    closure directly or through the real/imaginary split of a real level;
    None for none of them."""
    pending = [correct]
    while pending:
        obj = pending.pop()
        if obj is _superlu.gstrs:
            return "gstrs"
        if isinstance(getattr(obj, "__self__", None), spla.SuperLU):
            return "splu"
        for kernel in ("tbtrs", "pbtrs"):
            if getattr(obj, "__name__", "").endswith(kernel):
                return kernel
        pending.extend(cell.cell_contents
                       for cell in getattr(obj, "__closure__", None) or ())
    return None


def _assert_gauss_seidel_oracle(M, seed=0, complex_rhs=None, scale=1.0):
    """One sweep through the prepared smoother against the dense
    x + solve(tril(A), b - A x); returns the prepared (D + L)^{-1}.  The start and
    right-hand side are complex with ``complex_rhs``, by default when M
    is; the right-hand side is multiplied by ``scale``."""
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    x, b = rng.standard_normal(n), rng.standard_normal(n)
    if complex_rhs is None:
        complex_rhs = np.iscomplexobj(M.data)
    if complex_rhs:
        x, b = x + 1j * rng.standard_normal(n), b + 1j * rng.standard_normal(n)
    b = b * scale
    Ad = M.toarray()
    expected = x + sla.solve_triangular(np.tril(Ad), b - Ad @ x, lower=True)
    level = lone(M)
    got = smooth(level, x, b, 1)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    return level.sweeps.solve_lower


class TestSmootherBackends:
    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_1d_levels_take_the_banded_path(self, r, kind):
        problem = assemble_stiffness(r, 32, "xsq_plus_one")
        h = build_fem_hierarchy(problem, kind, GS, coarsest_max_size=7)
        assert len(h.levels) >= 3
        for ell, lvl in enumerate(h.levels[:-1]):
            correct = _assert_gauss_seidel_oracle(lvl.matrix.matrix, seed=ell)
            assert _backend(correct) == "tbtrs", (r, kind, ell)

    def test_2d_levels_take_the_superlu_path(self):
        h = build_2d_hierarchy(assemble_2d_problem(2, 4), "linear", GS)
        assert [lvl.matrix.size for lvl in h.levels] == [961, 225, 49]
        for ell, lvl in enumerate(h.levels[:-1]):
            assert _backend(_assert_gauss_seidel_oracle(lvl.matrix.matrix, ell)) == "gstrs"

    def test_complex_hermitian_block_toeplitz_is_banded(self):
        assert COMPLEX_HERMITIAN.hermitian
        A = assemble_toeplitz(COMPLEX_HERMITIAN, 31)
        correct = _assert_gauss_seidel_oracle(A.matrix)
        assert _backend(correct) == "tbtrs"

    @pytest.mark.parametrize("complex_rhs", [False, True])
    def test_complex_hermitian_wide_band_takes_superlu(self, complex_rhs):
        # the Kronecker sum of a complex Hermitian block Toeplitz matrix
        # has lower bandwidth 48 on 256 unknowns, too wide for the band;
        # tril(M)^T must be solved with trans="T", not "H"
        H = assemble_toeplitz(COMPLEX_HERMITIAN, 8).matrix
        eye = sp.identity(H.shape[0], format="csr")
        M = (sp.kron(H, eye) + sp.kron(eye, H)).tocsr()
        assert np.iscomplexobj(M.data) and abs(M - M.conj().T).max() == 0
        assert not banded(M)
        correct = _assert_gauss_seidel_oracle(M, complex_rhs=complex_rhs)
        assert _backend(correct) == "gstrs"

    def test_row_scaled_band_spanning_300_decades(self):
        # the band sweep runs with a unit diagonal, on columns scaled by
        # the diagonal once: here D spans 1e150 down to 1e-150
        M = (sp.diags(np.logspace(150, -150, 31)) @ tridiag(31)).tocsr()
        assert _backend(_assert_gauss_seidel_oracle(M)) == "tbtrs"

    def test_complex_hermitian_band_with_a_varying_diagonal(self):
        # S A S with S real positive is Hermitian up to rounding, which
        # the mean with its adjoint removes; D spans 1e-8 to 1e8
        S = sp.diags(np.logspace(-4, 4, 62))
        H = S @ assemble_toeplitz(COMPLEX_HERMITIAN, 31).matrix @ S
        M = (0.5 * (H + H.conj().T)).tocsr()
        assert np.iscomplexobj(M.data) and abs(M - M.conj().T).max() == 0
        assert _backend(_assert_gauss_seidel_oracle(M)) == "tbtrs"

    @pytest.mark.parametrize("c", [2.0 ** -1000, 2.0 ** 1000], ids=["2^-1000", "2^1000"])
    def test_band_sweep_does_not_depend_on_a_power_of_two_scale(self, c):
        M = assemble_stiffness(2, 16, "xsq_plus_one").matrix.matrix
        correct = _assert_gauss_seidel_oracle(c * M, scale=c)
        assert _backend(correct) == "tbtrs"
        rng = np.random.default_rng(3)
        x, b = rng.standard_normal(M.shape[0]), rng.standard_normal(M.shape[0])
        assert same_bits(smooth(lone(c * M), x, c * b, 2), smooth(lone(M), x, b, 2))

    def test_band_sweep_on_a_subnormal_band(self):
        # every entry of c M is subnormal: the columns are divided by D,
        # since a reciprocal 1/D would overflow to inf
        c = 2.0 ** -1030
        for M in (tridiag(31), assemble_stiffness(2, 16, "xsq_plus_one").matrix.matrix):
            assert _backend(_assert_gauss_seidel_oracle(c * M, scale=c)) == "tbtrs"

    def test_real_matrix_complex_right_hand_side(self):
        M = assemble_stiffness(2, 16, "one").matrix.matrix
        assert _backend(_assert_gauss_seidel_oracle(M, complex_rhs=True)) == "tbtrs"
        M2 = assemble_2d_problem(2, 3).matrix.matrix
        assert _backend(_assert_gauss_seidel_oracle(M2, complex_rhs=True)) == "gstrs"

    def test_unsorted_column_indices(self):
        M = tridiag(9)
        rows = [np.arange(M.indptr[i], M.indptr[i + 1])[::-1] for i in range(9)]
        order = np.concatenate(rows)
        U = sp.csr_matrix((M.data[order], M.indices[order], M.indptr), shape=M.shape)
        assert not U.has_sorted_indices
        assert _backend(_assert_gauss_seidel_oracle(U)) == "tbtrs"

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_integer_and_single_precision_wide_band(self, dtype):
        M = tridiag(10).tolil()
        M[9, 0] = -0.5 if dtype is np.float32 else -1
        M = sp.csr_matrix(M, dtype=dtype)
        assert not banded(M)
        assert _backend(_assert_gauss_seidel_oracle(M)) == "gstrs"

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_band_is_solved_in_double(self, dtype):
        # a single-precision band would miss the 1e-12 oracle by far
        M = sp.diags([-1.0 + 0.5j, 4.0, -1.0 - 0.5j] if dtype is np.complex64
                     else [-1.0, 4.0, -1.0], [-1, 0, 1], shape=(31, 31), dtype=dtype)
        assert _backend(_assert_gauss_seidel_oracle(M.tocsr())) == "tbtrs"

    @pytest.mark.parametrize("banded", [True, False])
    def test_duplicate_entries_add_up(self, banded):
        # rows 0 and 1 store (0, 0) and (1, 0) a second time, at their ends
        M = tridiag(12).tolil()
        if not banded:
            M[11, 0] = -0.5  # lower bandwidth 11: (11 + 1) * 12 > nnz
        M = M.tocsr()
        ends = M.indptr[1:3]
        indptr = M.indptr + np.minimum(np.arange(13), 2)
        dup = sp.csr_matrix((np.insert(M.data, ends, [0.5, -0.25]),
                             np.insert(M.indices, ends, [0, 0]), indptr),
                            shape=M.shape)
        assert dup.nnz == M.nnz + 2 and not dup.has_canonical_format
        assert dup.toarray()[:2, 0].tolist() == [2.5, -1.25]
        want = "tbtrs" if banded else "gstrs"
        assert _backend(_assert_gauss_seidel_oracle(dup)) == want

    @pytest.mark.parametrize("banded", [True, False])
    def test_zero_diagonal_raises(self, banded):
        M = tridiag(10).tolil()
        if not banded:
            M[9, 0] = -0.5  # lower bandwidth 9: (9 + 1) * 10 > nnz
        M[4, 4] = 0.0
        M = M.tocsr()
        with pytest.raises(ConfigurationError, match="nonzero diagonal"):
            smooth(lone(M), np.zeros(10), np.ones(10), 1)


class TestSparseTriangularSolve:
    """The call into SuperLU's private ``gstrs`` against a dense
    triangular solve, so that a scipy release changing it fails here."""

    @staticmethod
    def _solve(M, r):
        dtype = np.result_type(M.dtype, float)
        lower = mgsolve._triangle(M, mgsolve._column_offsets(M)[0] < 0, dtype)
        try:
            return _lower_triangular_solve(M.shape[0], *lower,
                                           M.diagonal().astype(dtype))(r)
        except TypeError as exc:
            pytest.fail("scipy.sparse.linalg._dsolve._superlu.gstrs no longer "
                        f"takes (trans, L..., U..., b) as blockmg calls it: {exc}")

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("unsorted", [False, True])
    def test_matches_dense_solve_triangular(self, dtype, unsorted):
        rng = np.random.default_rng(3)
        n = 40
        M = sp.random(n, n, density=0.2, random_state=rng, format="csr")
        if dtype is complex:
            Mi = sp.random(n, n, density=0.2, random_state=rng, format="csr")
            M = M + 1j * Mi
        M = (M + sp.diags(rng.uniform(1.0, 2.0, n))).tocsr()
        if unsorted:
            order = np.concatenate([np.arange(M.indptr[i], M.indptr[i + 1])[::-1]
                                    for i in range(n)])
            M = sp.csr_matrix((M.data[order], M.indices[order], M.indptr),
                              shape=M.shape)
            assert not M.has_sorted_indices
        assert np.count_nonzero(np.tril(M.toarray(), -1)) > n
        assert np.count_nonzero(np.triu(M.toarray(), 1)) > n
        r = rng.standard_normal(n).astype(dtype)
        if dtype is complex:
            r += 1j * rng.standard_normal(n)
        r0 = r.copy()
        x = self._solve(M, r)
        want = sla.solve_triangular(np.tril(M.toarray()), r0, lower=True)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_array_equal(r, r0)
        assert x is not r

    def test_index_width_checked_on_sizes(self):
        limit = int(np.iinfo(np.intc).max)
        _check_index_width(limit, limit)
        for n, nnz in ((limit + 1, 0), (10, limit + 1)):
            with pytest.raises(ConstructionError, match="index limit"):
                _check_index_width(n, nnz)


def test_2d_hierarchy_factors_only_its_coarsest_level(monkeypatch):
    factored = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        factored.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(mgsolve.spla, "splu", counting_splu)
    problem = assemble_2d_problem(2, 4)
    h = build_2d_hierarchy(problem, "linear", GS)
    rng = np.random.default_rng(0)
    assert solve(h, problem.matrix.matrix @ rng.uniform(size=problem.matrix.size)).converged
    assert factored == [h.levels[-1].matrix.size]


def _assert_coarse_solver_matches_splu(M, hermitian, complex_rhs=False, seed=0):
    """The coarse solver prepared for M with the record ``hermitian``
    (``exactly_hermitian``) against SuperLU on M, to round-off; returns
    the solver.  A complex right-hand side on a real M is checked
    against SuperLU on its real and imaginary parts."""
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    b = rng.standard_normal(n)
    if complex_rhs or np.iscomplexobj(M.data):
        b = b + 1j * rng.standard_normal(n)
    lu = spla.splu(M.tocsc())
    if np.iscomplexobj(M.data) or not complex_rhs:
        want = lu.solve(b)
    else:
        want = lu.solve(b.real) + 1j * lu.solve(b.imag)
    b0 = b.copy()
    solver = _coarse_solver(M, hermitian)
    got = solver(b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert same_bits(b, b0)
    return solver


class TestCoarseSolver:
    """Band levels recorded ``exactly_hermitian`` that are positive
    definite are solved by LAPACK banded Cholesky (``pbtrf``/``pbtrs``),
    every other level by SuperLU."""

    @pytest.mark.parametrize("complex_rhs", [False, True])
    def test_real_fem_coarse_level(self, complex_rhs):
        problem = assemble_stiffness(3, 64, "exp_minus_2x")
        h = build_fem_hierarchy(problem, "geometric",
                                SmootherSpec(kind=RICHARDSON), two_level=True)
        coarse = h.levels[1].matrix
        assert coarse.exactly_hermitian
        solver = _assert_coarse_solver_matches_splu(coarse.matrix, True, complex_rhs)
        assert _backend(solver) == "pbtrs"

    def test_complex_hermitian_band_level(self):
        A = flagged(assemble_toeplitz(COMPLEX_HERMITIAN, 31).matrix)
        assert np.iscomplexobj(A.matrix.data) and A.exactly_hermitian
        assert _backend(_assert_coarse_solver_matches_splu(A.matrix, True)) == "pbtrs"

    def test_non_hermitian_level_is_solved_not_its_hermitian_part(self):
        # kl = 2, ku = 1; the Hermitian part (4 on the diagonal, -1.25
        # and 0.25 off it) is diagonally dominant, so the hierarchy takes
        # M, but a Cholesky of that part would solve another system
        n = 40
        M = sp.diags([0.5, -1.0, 4.0, -1.5], [-2, -1, 0, 1], shape=(n, n)).tocsr()
        assert banded(M) and not flagged(M).exactly_hermitian
        solver = _assert_coarse_solver_matches_splu(M, False)
        assert _backend(solver) == "splu"
        b = np.ones(n)
        H = 0.5 * (M + M.T).tocsc()
        assert np.linalg.norm(solver(b) - spla.spsolve(H, b)) > 0.1

    def test_hermitian_indefinite_band_falls_back_to_superlu(self):
        # eigenvalues 1 - 2 cos(k pi / 41), k = 1..40: both signs, none zero
        M = sp.diags([-1.0, 1.0, -1.0], [-1, 0, 1], shape=(40, 40)).tocsr()
        assert flagged(M).exactly_hermitian
        assert _backend(_assert_coarse_solver_matches_splu(M, True)) == "splu"

    def test_band_one_ulp_from_hermitian_goes_to_superlu(self):
        M = assemble_stiffness(2, 16, "xsq_plus_one").matrix.matrix.copy()
        assert flagged(M).exactly_hermitian
        assert _backend(_coarse_solver(M, True)) == "pbtrs"
        upper = np.flatnonzero(M.indices > np.repeat(np.arange(M.shape[0]),
                                                     np.diff(M.indptr)))
        M.data[upper[5]] = np.nextafter(M.data[upper[5]], np.inf)
        # Hermitian to the test's tolerance, which records it not exact
        level = BlockStructuredMatrix(M)
        assert level.is_hermitian() and not level.exactly_hermitian
        solver = _assert_coarse_solver_matches_splu(M, level.exactly_hermitian)
        assert _backend(solver) == "splu"

    def test_duplicate_entries_add_up(self):
        # rows 0 and 1 store (0, 0) and (1, 1) a second time, at their ends
        M = tridiag(12)
        ends = M.indptr[1:3]
        indptr = M.indptr + np.minimum(np.arange(13), 2)
        dup = sp.csr_matrix((np.insert(M.data, ends, [0.5, -0.25]),
                             np.insert(M.indices, ends, [0, 1]), indptr),
                            shape=M.shape)
        assert dup.nnz == M.nnz + 2 and not dup.has_canonical_format
        assert dup.diagonal()[:2].tolist() == [2.5, 1.75]
        # tested on a copy: the test puts its matrix in canonical form
        assert flagged(dup.copy()).exactly_hermitian
        assert _backend(_assert_coarse_solver_matches_splu(dup, True)) == "pbtrs"

    def test_wide_band_level_keeps_superlu(self):
        M = assemble_2d_problem(2, 4).matrix.matrix
        assert flagged(M).exactly_hermitian
        assert _backend(_assert_coarse_solver_matches_splu(M, True)) == "splu"

    @pytest.mark.parametrize("banded", [True, False])
    def test_singular_level_raises(self, banded):
        M = tridiag(10).tolil()
        if not banded:
            M[9, 0] = -0.5  # lower bandwidth 9: (9 + 1) * 10 > nnz
        M[:, 4] = 0.0
        M = M.tocsr()
        M.eliminate_zeros()
        with pytest.raises(SingularMatrixError, match="coarsest-level matrix is singular"):
            _coarse_solver(M, flagged(M).exactly_hermitian)

    def test_singular_hermitian_band_raises(self):
        # row and column 4 zero: pbtrf meets the zero pivot, and the
        # SuperLU fallback refuses the level
        M = tridiag(10).tolil()
        M[:, 4] = 0.0
        M[4, :] = 0.0
        M = M.tocsr()
        M.eliminate_zeros()
        assert flagged(M).exactly_hermitian
        assert mgsolve._hermitian_band(M, True) is not None
        with pytest.raises(SingularMatrixError, match="coarsest-level matrix is singular"):
            _coarse_solver(M, True)


@pytest.mark.parametrize("cycle", [TGM, VCYCLE])
@pytest.mark.parametrize("kind", ["linear", "geometric"])
def test_1d_hierarchy_factors_no_level_with_superlu(monkeypatch, kind, cycle):
    factored = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        factored.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(mgsolve.spla, "splu", counting_splu)
    problem = assemble_stiffness(3, 256, "exp_minus_2x")
    h = build_fem_hierarchy(problem, kind, SmootherSpec(kind=RICHARDSON),
                            two_level=cycle == TGM)
    rng = np.random.default_rng(0)
    b = problem.matrix.matrix @ rng.uniform(size=problem.size)
    assert solve(h, b, cycle=cycle).converged
    assert factored == []


def two_grid_pieces(n=31):
    A = assemble_toeplitz(LAPLACE, n)
    P = assemble_transfer(INTERP, n + 1, "trimmed")
    return A, P


class TestTgmStep:
    def test_exact_solution_fixed_point(self):
        A, P = two_grid_pieces()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(A.size)
        b = A.matrix @ x
        x1 = tgm_step(A, P, x, b, GS)
        assert np.linalg.norm(x1 - x) <= 1e-12 * np.linalg.norm(x)

    def test_iteration_matrix_oracle(self):
        # dense error propagation V [I - P (P^H A P)^-1 P^H A] V
        A, P = two_grid_pieces(63)
        Ad = A.dense().real
        Pd = P.matrix.toarray().real
        n = Ad.shape[0]
        V = np.eye(n) - np.linalg.solve(np.tril(Ad), Ad)
        CGC = np.eye(n) - Pd @ np.linalg.solve(Pd.T @ Ad @ Pd, Pd.T @ Ad)
        E = V @ CGC @ V
        rng = np.random.default_rng(2)
        for _ in range(3):
            e = rng.standard_normal(n)
            x_exact = rng.standard_normal(n)
            b = Ad @ x_exact
            x1 = tgm_step(A, P, x_exact - e, b, GS)
            np.testing.assert_allclose(x_exact - x1, E @ e, atol=1e-10)

    def test_no_smoothing_gives_a_orthogonal_error(self):
        A, P = two_grid_pieces()
        spec = SmootherSpec(sweeps_pre=0, sweeps_post=0)
        rng = np.random.default_rng(3)
        x_exact = rng.standard_normal(A.size)
        b = A.matrix @ x_exact
        x1 = tgm_step(A, P, np.zeros(A.size), b, spec)
        err = x_exact - x1
        resid = np.linalg.norm(P.matrix.conj().T @ (A.matrix @ err))
        assert resid <= 1e-10 * np.linalg.norm(A.dense(), 2) * np.linalg.norm(x_exact)

    def test_energy_norm_monotone(self):
        A, P = two_grid_pieces(63)
        Ad = A.dense().real
        rng = np.random.default_rng(4)
        x_exact = rng.standard_normal(A.size)
        b = Ad @ x_exact
        x = np.zeros(A.size)
        prev = np.inf
        for _ in range(6):
            x = tgm_step(A, P, x, b, GS).real
            e = x_exact - x
            energy = float(np.sqrt(e @ (Ad @ e)))
            assert energy <= prev * (1 + 1e-12)
            prev = energy

    def test_cgc_is_a_orthogonal_projector(self):
        A, P = two_grid_pieces()
        Ad = A.dense().real
        Pd = P.matrix.toarray().real
        C = np.eye(A.size) - Pd @ np.linalg.solve(Pd.T @ Ad @ Pd, Pd.T @ Ad)
        np.testing.assert_allclose(C @ C, C, atol=1e-9)
        np.testing.assert_allclose((Ad @ C).T, Ad @ C, atol=1e-9)


def fem_hierarchy(r=2, t=5, cycle=VCYCLE, smoother=GS):
    problem = assemble_stiffness(r, 2 ** t, "one")
    return problem, build_fem_hierarchy(problem, "linear", smoother,
                                        two_level=(cycle == TGM))


class TestHierarchy:
    def test_size_chain_validated(self):
        A, P = two_grid_pieces()
        wrong = assemble_toeplitz(LAPLACE, 9)
        with pytest.raises(ArgumentError):
            MultigridHierarchy([A, wrong], [P], GS)

    def test_positive_definiteness_checked(self):
        A, P = two_grid_pieces()
        k = P.coarse_size
        indef = BlockStructuredMatrix(sp.diags(np.linspace(-1, 1, k)).tocsr())
        with pytest.raises(ConfigurationError):
            MultigridHierarchy([A, indef], [P], GS)

    def test_positive_definite_check_is_scale_free(self):
        # the threshold moves with the level: a tiny coefficient scales
        # every level down and the solve is the same
        iterations = []
        for c in (1.0, 1e-9, 1e-11, 1e-14):
            problem = assemble_stiffness(2, 64, lambda x, c=c: c)
            h = build_fem_hierarchy(problem, "linear")
            rng = np.random.default_rng(31)
            b = problem.matrix.matrix @ rng.uniform(size=problem.size)
            result = solve(h, b)
            assert result.converged, c
            iterations.append(result.iterations)
        assert iterations == [iterations[0]] * 4
        # a zero or negative definite level is refused at any scale
        A, P = two_grid_pieces()
        k = P.coarse_size
        for scale in (1.0, 1e-14):
            for M in (sp.csr_matrix((k, k)), -scale * tridiag(k),
                      scale * sp.diags(np.linspace(-1, 1, k))):
                with pytest.raises(ConfigurationError, match="not positive definite"):
                    MultigridHierarchy([A, BlockStructuredMatrix(sp.csr_matrix(M))],
                                       [P], GS)
            MultigridHierarchy([A, BlockStructuredMatrix(scale * tridiag(k))], [P], GS)

    @staticmethod
    def _shifted_tridiag(n, lam_min, dense):
        """tridiag(-1, 2, -1) shifted by a diagonal so that its smallest
        eigenvalue is lam_min; ``dense`` stores explicit zeros in the two
        far corners, which leave the matrix unchanged but widen its band
        past nnz, so the check takes the dense path."""
        shift = lam_min - (2.0 - 2.0 * np.cos(np.pi / (n + 1)))
        M = sp.coo_matrix(tridiag(n) + shift * sp.eye(n))
        if dense:
            M = sp.coo_matrix((np.r_[M.data, 0.0, 0.0],
                               (np.r_[M.row, 0, n - 1], np.r_[M.col, n - 1, 0])),
                              shape=(n, n))
        return M.tocsr()

    @pytest.mark.parametrize("dense", [False, True])
    def test_positive_definite_threshold_on_both_paths(self, dense):
        A, P = two_grid_pieces(31)
        k = P.coarse_size
        lam_max = 4.0 - 2.0 * (2.0 - 2.0 * np.cos(np.pi / (k + 1)))
        threshold = 1e-12 * lam_max
        for factor, accepted in ((2.0, True), (0.5, False)):
            M = self._shifted_tridiag(k, factor * threshold, dense)
            # recorded, so the band decides the path, as on a built level
            coarse = flagged(M)
            assert coarse.exactly_hermitian
            hb = mgsolve._hermitian_band(M, True)
            assert (hb is None) == dense
            lo, hi = mgsolve._extreme_eigenvalues(M, hb)
            assert hi == pytest.approx(lam_max + factor * threshold, rel=1e-12)
            assert abs(lo - factor * threshold) <= 1e-3 * threshold
            if accepted:
                MultigridHierarchy([A, coarse], [P], GS)
            else:
                with pytest.raises(ConfigurationError, match="not positive definite"):
                    MultigridHierarchy([A, coarse], [P], GS)

    def test_complex_hermitian_band_level(self):
        level = flagged(assemble_toeplitz(COMPLEX_HERMITIAN, 31).matrix)
        M = level.matrix
        hb = mgsolve._hermitian_band(M, level.exactly_hermitian)
        assert hb is not None and np.iscomplexobj(hb)
        w = np.linalg.eigvalsh(M.toarray())
        lo, hi = mgsolve._extreme_eigenvalues(M, hb)
        assert lo == pytest.approx(w[0], rel=1e-12)
        assert hi == pytest.approx(w[-1], rel=1e-12)
        A, P = two_grid_pieces(125)
        MultigridHierarchy([A, level], [P], GS)
        # shifted to lambda_min = -1, the level is refused
        indef = flagged((M - (w[0] + 1.0) * sp.eye(M.shape[0])).tocsr())
        assert indef.exactly_hermitian
        with pytest.raises(ConfigurationError, match=r"min eigenvalue -1\.000e\+00"):
            MultigridHierarchy([A, indef], [P], GS)

    def test_non_hermitian_band_level_takes_its_dense_hermitian_part(self):
        # lower bandwidth 1, upper bandwidth 2: not Hermitian, so the
        # eigenvalues of (M + M^H)/2 are taken from the dense matrix
        n = 40
        M = (tridiag(n) + 4.0 * sp.eye(n) + sp.diags([0.7], [2], shape=(n, n))).tocsr()
        assert mgsolve._column_offsets(M)[1:] == (1, 2) and banded(M)
        level = flagged(M)
        assert not level.exactly_hermitian
        assert mgsolve._hermitian_band(M, level.exactly_hermitian) is None
        H = M.toarray()
        w = np.linalg.eigvalsh(0.5 * (H + H.T))
        np.testing.assert_allclose(mgsolve._extreme_eigenvalues(M, None), (w[0], w[-1]),
                                   rtol=1e-12)

    @staticmethod
    def _refused_before_eigenvalues(monkeypatch, matrices, transfers, ell):
        calls = []
        monkeypatch.setattr(mgsolve, "eig_banded", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: calls.append(a))
        with pytest.raises(ConfigurationError,
                           match=f"level {ell} matrix has non-finite entries"):
            MultigridHierarchy(matrices, transfers, GS)
        assert calls == []

    def test_non_finite_band_level(self, monkeypatch):
        A, P = two_grid_pieces(31)
        level = flagged(tridiag(P.coarse_size))
        M = level.matrix
        M.data[M.nnz // 2] = np.nan
        assert mgsolve._hermitian_band(M, level.exactly_hermitian) is not None
        self._refused_before_eigenvalues(monkeypatch, [A, level], [P], 1)

    def test_non_finite_dense_level(self, monkeypatch):
        h = build_2d_hierarchy(assemble_2d_problem(2, 3), "linear", GS)
        mats = [lvl.matrix for lvl in h.levels]
        M = mats[1].matrix.copy()
        M.data[0] = np.nan
        assert M.shape[0] <= 512 and mgsolve._hermitian_band(M, True) is None
        mats[1] = BlockStructuredMatrix(M)
        self._refused_before_eigenvalues(
            monkeypatch, mats, [lvl.transfer for lvl in h.levels[:-1]], 1)

    def test_level_check_paths(self, monkeypatch):
        # assembled first: the quadrature rule calls eigvalsh too
        problem_1d = assemble_stiffness(2, 2 ** 10, "xsq_plus_one")
        problem_2d = assemble_2d_problem(2, 7)
        band, dense = [], []
        eig_banded, eigvalsh = mgsolve.eig_banded, np.linalg.eigvalsh

        def count_band(a, **kw):
            band.append(a.shape[1])
            return eig_banded(a, **kw)

        def count_dense(a, *args, **kw):
            dense.append(a.shape[0])
            return eigvalsh(a, *args, **kw)

        monkeypatch.setattr(mgsolve, "eig_banded", count_band)
        monkeypatch.setattr(np.linalg, "eigvalsh", count_dense)
        build_fem_hierarchy(problem_1d, "linear")
        # two calls per band level: the smallest and the largest eigenvalue
        assert band == [511, 511, 255, 255, 127, 127, 63, 63] and dense == []
        band.clear()
        h = build_2d_hierarchy(problem_2d, "linear", GS)
        assert [lvl.matrix.size for lvl in h.levels][-2:] == [225, 49]
        assert dense == [225, 49] and band == []

    def test_richardson_interval_positive_definite(self):
        # with omega in (0, 2/C), 2 omega I - omega^2 A stays PD per level
        problem, h = fem_hierarchy(r=2, t=4)
        omega = richardson_omega_default(problem.matrix)
        for lvl in h.levels:
            Ad = lvl.matrix.dense().real
            w = np.linalg.eigvalsh(2 * omega * np.eye(Ad.shape[0]) - omega ** 2 * Ad)
            assert w[0] > 0

    def test_two_level_vcycle_equals_tgm(self):
        A, P = two_grid_pieces()
        h = MultigridHierarchy([A, galerkin(A, P)], [P], GS)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.size)
        x0 = rng.standard_normal(A.size)
        np.testing.assert_allclose(vcycle_step(h, 0, x0.copy(), b),
                                   tgm_step(A, P, x0.copy(), b, GS), atol=1e-12)

    def test_vcycle_fixed_point(self):
        problem, h = fem_hierarchy()
        rng = np.random.default_rng(6)
        x = rng.standard_normal(problem.size)
        b = problem.matrix.matrix @ x
        x1 = vcycle_step(h, 0, x.copy(), b)
        assert np.linalg.norm(x1 - x) <= 1e-12 * np.linalg.norm(x)

    def test_vcycle_iteration_matrix_contractive(self):
        # spectral radius of the dense V-cycle error propagator < 1
        f2 = stiffness_symbol(2)
        problem, h = fem_hierarchy(r=2, t=4)
        n = problem.size
        E = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            E[:, j] = -vcycle_step(h, 0, -e, np.zeros(n)).real
        rho = max(abs(np.linalg.eigvals(E)))
        assert rho < 1.0


class TestSolve:
    def test_zero_rhs(self):
        _, h = fem_hierarchy()
        res = solve(h, np.zeros(h.levels[0].matrix.size))
        assert res.iterations == 0 and res.converged
        np.testing.assert_array_equal(res.x, 0.0)

    def test_counts_size_independent(self):
        # degree 1..3, both cycles: counts vary by at most one across sizes
        for r in (1, 2, 3):
            for cycle in (TGM, VCYCLE):
                counts = []
                for t in (4, 5, 6, 7, 8, 9):
                    problem, h = fem_hierarchy(r=r, t=t, cycle=cycle)
                    rng = np.random.default_rng([20240101, t])
                    b = problem.matrix.matrix @ rng.uniform(size=problem.size)
                    res = solve(h, b, tol=1e-6, cycle=cycle)
                    assert res.converged
                    counts.append(res.iterations)
                assert max(counts) - min(counts) <= 1, (r, cycle, counts)

    def test_tgm_cycle_refuses_deep_hierarchy(self):
        # the two-grid cycle is the V-cycle on a two-level hierarchy
        problem, deep = fem_hierarchy(r=2, t=8, cycle=VCYCLE)
        _, shallow = fem_hierarchy(r=2, t=8, cycle=TGM)
        assert len(deep.levels) == 4 and len(shallow.levels) == 2
        rng = np.random.default_rng(10)
        b = problem.matrix.matrix @ rng.uniform(size=problem.size)
        with pytest.raises(ArgumentError, match="two-level hierarchy, got 4 levels"):
            solve(deep, b, cycle=TGM)
        assert solve(shallow, b, tol=1e-8, cycle=TGM).converged

    def test_nonconvergence_flagged(self):
        problem, h = fem_hierarchy(t=4)
        rng = np.random.default_rng(8)
        b = problem.matrix.matrix @ rng.uniform(size=problem.size)
        res = solve(h, b, tol=1e-14, max_iter=2)
        assert not res.converged and res.flag == "noconv"
        assert res.iterations == 2

    @pytest.mark.filterwarnings("error")
    def test_non_finite_residual_ends_the_solve(self):
        # b is finite, but the first cycle overflows it: the solve stops
        # there instead of running every cycle on NaN residuals
        h = build_fem_hierarchy(assemble_stiffness(1, 8), "linear")
        b = np.full(h.levels[0].matrix.size, 1.7e308)
        with pytest.raises(NumericalError, match="not finite after cycle 1$"):
            solve(h, b)

    def test_residuals_monotone_recorded(self):
        problem, h = fem_hierarchy(t=5)
        rng = np.random.default_rng(9)
        b = problem.matrix.matrix @ rng.uniform(size=problem.size)
        res = solve(h, b, tol=1e-6)
        assert res.residuals == sorted(res.residuals, reverse=True)
        assert res.residuals[-1] <= 1e-6

    @pytest.mark.parametrize("cycle", [TGM, VCYCLE])
    def test_richardson_omega_checked_once_per_level(self, monkeypatch, cycle):
        problem = assemble_stiffness(2, 2 ** 8, "one")
        levels = build_fem_hierarchy(problem, "linear", GS).levels
        assert len(levels) == 4
        omega = 1.0 / max(gershgorin_bound(lvl.matrix) for lvl in levels)
        spec = SmootherSpec(kind="richardson", omega=omega)
        h = build_fem_hierarchy(problem, "linear", spec, two_level=cycle == TGM)
        calls = []
        check = mgsolve._check_omega
        monkeypatch.setattr(mgsolve, "_check_omega",
                            lambda M, w, h: calls.append(M.shape[0]) or check(M, w, h))
        rng = np.random.default_rng(11)
        b = problem.matrix.matrix @ rng.uniform(size=problem.size)
        for _ in range(3):   # repeated solves reuse the prepared levels
            res = solve(h, b, max_iter=5, cycle=cycle)
            assert res.iterations == 5
        assert calls == [lvl.matrix.size for lvl in h.levels[:-1]]

    @pytest.mark.parametrize("coefficient", sorted(COEFFICIENTS))
    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_vcycle_richardson_default_omega_per_level(self, r, kind, coefficient):
        # without an omega each level damps by 1/C of its own matrix; the
        # finest level's 1/C is out of range on coarse levels, whose
        # spectra grow under the Galerkin products
        counts = []
        for t in (6, 7, 8, 9):
            problem = assemble_stiffness(r, 2 ** t, coefficient)
            h = build_fem_hierarchy(problem, kind, SmootherSpec(kind="richardson"))
            rng = np.random.default_rng([20240101, t])
            b = problem.matrix.matrix @ rng.uniform(size=problem.size)
            res = solve(h, b, tol=1e-6)
            assert res.converged, (t, res.flag)
            counts.append(res.iterations)
        assert max(counts) - min(counts) <= 1, counts

    @pytest.mark.parametrize("cycle", [TGM, VCYCLE])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_complex_right_hand_side_on_real_hierarchy(self, dim, cycle):
        # both smoother backends and the coarse LU solve the real and
        # imaginary parts of b separately
        if dim == 1:
            problem = assemble_stiffness(2, 32, "one")
            h = build_fem_hierarchy(problem, "linear", GS, coarsest_max_size=7,
                                    two_level=cycle == TGM)
        else:
            problem = assemble_2d_problem(2, 4)
            h = build_2d_hierarchy(problem, "linear", GS, two_level=cycle == TGM)
        assert cycle == TGM or len(h.levels) >= 3
        rng = np.random.default_rng(12)
        b = problem.matrix.matrix @ (rng.uniform(size=problem.size)
                                     + 1j * rng.uniform(size=problem.size))
        assert solve(h, b, cycle=cycle).converged
        x, x_re, x_im = (solve(h, v, tol=1e-14, max_iter=4, cycle=cycle).x
                         for v in (b, b.real, b.imag))
        np.testing.assert_array_equal(x, x_re + 1j * x_im)

    def test_bad_arguments(self):
        _, h = fem_hierarchy()
        with pytest.raises(ArgumentError):
            solve(h, np.ones(h.levels[0].matrix.size), tol=-1.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ArgumentError, match="tol must be positive and finite"):
                solve(h, np.ones(h.levels[0].matrix.size), tol=tol)
        # True would run as 1.0 and stop after one cycle
        for tol in (True, "1e-6", None, 1e-6 + 0j):
            with pytest.raises(ArgumentError, match="tol must be a real number"):
                solve(h, np.ones(h.levels[0].matrix.size), tol=tol)
        for max_iter in (0, -3):
            with pytest.raises(ArgumentError, match="max_iter must be >= 1"):
                solve(h, np.ones(h.levels[0].matrix.size), max_iter=max_iter)
        with pytest.raises(ArgumentError):
            solve(h, np.ones(3))
        with pytest.raises(ArgumentError):
            solve(h, np.ones(h.levels[0].matrix.size), cycle="wcycle")

    def test_malformed_inputs_rejected_before_the_first_cycle(self, monkeypatch):
        _, h = fem_hierarchy(t=3)
        n = h.levels[0].matrix.size
        monkeypatch.setattr(mgsolve, "vcycle_step", None)
        for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.nan)):
            b = np.ones(n, dtype=type(bad))
            b[n // 2] = bad
            with pytest.raises(ArgumentError, match="numeric and finite"):
                solve(h, b)
        with pytest.raises(ArgumentError, match="numeric and finite"):
            solve(h, np.array(["1"] * n))
        # a column would broadcast against every vector of the cycle
        for b in (np.ones((n, 1)), np.ones((1, n)), np.ones(()), np.ones(n)[None]):
            with pytest.raises(ArgumentError, match="need a vector of that size"):
                solve(h, b)
        for max_iter in (2.5, 3.0, "3", True, None):
            with pytest.raises(ArgumentError, match="max_iter must be an integer"):
                solve(h, np.ones(n), max_iter=max_iter)
        monkeypatch.undo()
        assert solve(h, np.ones(n), max_iter=np.int64(50)).converged

    def test_step_rejects_vectors_of_another_size(self):
        _, h = fem_hierarchy(t=3)
        n = h.levels[0].matrix.size
        for x, b in ((np.zeros(n), np.ones((n, 1))), (np.zeros(n - 1), np.ones(n)),
                     (np.zeros(n), np.ones(1))):
            with pytest.raises(ArgumentError, match="level 0 of size"):
                vcycle_step(h, 0, x, b)


def test_galerkin_chains_test_hermitian_once_per_finest_matrix(monkeypatch):
    """No FEM flow tests a matrix for Hermiticity: assembly, both
    builders and the solve read the records made where each matrix is
    formed.  Only a Galerkin product of an unrecorded matrix tests it."""
    tested = []
    is_hermitian = BlockStructuredMatrix.is_hermitian

    def counting(self, *args, **kwargs):
        tested.append(self.size)
        return is_hermitian(self, *args, **kwargs)

    monkeypatch.setattr(BlockStructuredMatrix, "is_hermitian", counting)
    hierarchies = []
    for assemble, build in ((lambda: assemble_stiffness(2, 64, "xsq_plus_one"),
                             build_fem_hierarchy),
                            (lambda: assemble_2d_problem(2, 4), build_2d_hierarchy)):
        problem = assemble()
        b = problem.matrix.matrix @ np.ones(problem.size)
        for spec in (GS, SmootherSpec(kind=RICHARDSON)):
            for cycle in (VCYCLE, TGM):
                h = build(problem, "linear", spec, coarsest_max_size=7,
                          two_level=cycle == TGM)
                assert solve(h, b, cycle=cycle).converged
                assert all(lvl.matrix.exactly_hermitian for lvl in h.levels)
                hierarchies.append(h)
    assert tested == []
    # the product of an unrecorded copy of each level tests it, and
    # builds the same chain
    h = hierarchies[0]
    assert len(h.levels) >= 4
    for fine, coarse in zip(h.levels, h.levels[1:]):
        want = galerkin(BlockStructuredMatrix(fine.matrix.matrix.copy()), fine.transfer)
        assert abs(coarse.matrix.matrix - want.matrix).max() == 0
    assert tested == [lvl.matrix.size for lvl in h.levels[:-1]]
    # a 2D problem of unrecorded factors: the first products test them,
    # and no product of them
    tested.clear()
    problem = assemble_2d_problem(2, 4)
    copies = FemProblem(2, 16, BlockStructuredMatrix(problem.matrix.matrix.copy()),
                        tuple(BlockStructuredMatrix(F.matrix.copy()) for F in problem.factors))
    h = build_2d_hierarchy(copies, "linear", GS)
    assert len(h.levels) == 3 and tested == [F.size for F in problem.factors]


def _reference_lower_solve(M):
    """w -> (D + L)^{-1} w as the library computes it, from scipy on M's
    diagonals and tril(M, -1): LAPACK ``tbtrs`` (``get_lapack_funcs``)
    with a unit diagonal on the band with its columns divided by D, then
    a division by D, when the band fits in nnz(M); SuperLU's private
    ``gstrs`` on the CSR arrays of tril(M, -1) otherwise, since the public
    ``spsolve_triangular`` rescales by the diagonal and rounds otherwise.
    A real M solves a complex w as its real and imaginary parts."""
    n = M.shape[0]
    coo = M.tocoo()
    offsets = coo.col.astype(np.int64) - coo.row
    kl, ku = int(-offsets.min()), int(offsets.max())
    if (max(kl, ku) + 1) * n <= M.nnz:
        ab = np.zeros((kl + 1, n), order="F")
        for k in range(kl + 1):
            ab[k, :n - k] = M.diagonal(-k)
        ab[1:] /= ab[0]
        tbtrs = sla.get_lapack_funcs("tbtrs", (ab,))

        def solve(w):
            return tbtrs(ab, w, "L", "N", "U")[0] / ab[0]
    else:
        L = sp.tril(M, -1, format="csr")
        diag = M.diagonal().astype(float)
        ptr = np.arange(n + 1, dtype=np.intc)

        def solve(w):
            return _superlu.gstrs("T", n, n, diag, ptr[:n], ptr, n, L.nnz,
                                  L.data.astype(float), L.indices.astype(np.intc),
                                  L.indptr.astype(np.intc), w)[0]

    if np.iscomplexobj(M.data):
        return solve
    return lambda w: (solve(w.real) + 1j * solve(w.imag) if w.dtype.kind == "c"
                      else solve(w))


def _reference_vcycle(h, level, x, b, form):
    """The V-cycle written with plain sparse products, every kernel
    prepared anew for its level; returns x and the input of the last
    post-smoothing sweep (None without one).

    ``form="splitting"`` is the library's cycle: Gauss-Seidel sweeps
    x <- (D + L)^{-1} w from w = b - triu(M, 1) @ x, each residual after
    a sweep (b - triu(M, 1) @ x) - w; Richardson sweeps x + omega (b - M @ x),
    as in either form.  ``form="correction"`` is the textbook
    x <- x + tril(M)^{-1} (b - M @ x), every residual b - M @ x."""
    lvl = h.levels[level]
    if lvl.transfer is None:
        return lvl.coarse_solve(b), None
    M, T, spec = lvl.matrix.matrix, lvl.transfer, lvl.smoother
    if spec.kind == RICHARDSON:
        omega = richardson_omega_default(M) if spec.omega is None else spec.omega
        sweep, upper = (lambda x: x + omega * (b - M @ x)), None
    elif form == "splitting":
        U, solve_lower = sp.triu(M, 1, format="csr"), _reference_lower_solve(M)
        sweep, upper = (lambda x: solve_lower(b - U @ x)), U
    else:
        D_L = sp.tril(M, format="csr")
        sweep = lambda x: x + spla.spsolve_triangular(D_L, b - M @ x, lower=True)
        upper = None

    def smooth_block(x, sweeps):
        w = None
        for _ in range(sweeps):
            if upper is not None:
                w = b - upper @ x
            x = sweep(x)
        return x, w

    def residual(x, w):
        return b - M @ x if w is None else (b - upper @ x) - w

    x, w = smooth_block(x, spec.sweeps_pre)
    rc = T.adjoint @ residual(x, w)
    x = x + T.matrix @ _reference_vcycle(h, level + 1, np.zeros_like(rc), rc, form)[0]
    return smooth_block(x, spec.sweeps_post)


def _reference_solve(h, b, iterations, form="splitting"):
    """``iterations`` reference cycles from x = 0, with the relative
    residual norm after each, taken as the cycle of that form takes it."""
    A = h.levels[0].matrix.matrix
    U = sp.triu(A, 1, format="csr")
    x, residuals = np.zeros(A.shape[0]), []
    for _ in range(iterations):
        x, w = _reference_vcycle(h, 0, x, b, form)
        r = b - A @ x if w is None else (b - U @ x) - w
        residuals.append(float(np.linalg.norm(r)) / float(np.linalg.norm(b)))
    return x, residuals


def _assert_matches_the_correction_form(res, h, b, tol=None):
    """The textbook correction form as an oracle of the splitting form:
    the same iterates up to rounding, so residuals within 1e-9 relative
    and, for a solve to ``tol``, the same iteration count."""
    _, residuals = _reference_solve(h, b, res.iterations, form="correction")
    np.testing.assert_allclose(res.residuals, residuals, rtol=1e-9, atol=0)
    if tol is not None:
        assert res.converged and residuals[-1] <= tol < min(residuals[:-1])


def _solve_case(dim, spec, cycle, projector="linear"):
    """A 1D hierarchy of band levels (127 down to 7) or a 2D hierarchy of
    SuperLU levels, with its right-hand side."""
    if dim == 1:
        problem = assemble_stiffness(2, 64, "xsq_plus_one")
        h = build_fem_hierarchy(problem, projector, spec, coarsest_max_size=7,
                                two_level=cycle == TGM)
    else:
        problem = assemble_2d_problem(2, 4)
        h = build_2d_hierarchy(problem, projector, spec, two_level=cycle == TGM)
    rng = np.random.default_rng(13)
    return h, problem.matrix.matrix @ rng.uniform(size=problem.size)


@pytest.mark.parametrize("cycle", [TGM, VCYCLE])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernels_bound_once_per_level(monkeypatch, dim, cycle):
    # repeated solves reuse every kernel a level bound on first use: the
    # Gauss-Seidel kernels of each smoothed level, the coarsest solver;
    # with a sweep before every residual no level takes a product with M
    h, b = _solve_case(dim, GS, cycle)
    calls = {name: [] for name in ("matvec_kernel", "_gauss_seidel", "_coarse_solver")}
    for name, log in calls.items():
        def counting(M, *args, _kernel=getattr(mgsolve, name), _log=log):
            _log.append(M.shape[0])
            return _kernel(M, *args)
        monkeypatch.setattr(mgsolve, name, counting)
    for _ in range(3):
        assert solve(h, b, cycle=cycle).converged
    smoothed = [lvl.matrix.size for lvl in h.levels[:-1]]
    assert (len(smoothed) == 1) == (cycle == TGM)
    assert calls == {"matvec_kernel": [], "_gauss_seidel": smoothed,
                     "_coarse_solver": [h.levels[-1].matrix.size]}


class TestCarriedResidual:
    """``solve`` hands the input its stopping test formed to the next
    cycle's first sweep, each coarse level starts from its restricted
    residual, and a Gauss-Seidel residual is the difference w' - w of
    two sweep inputs.  None of that, nor the bound product kernels or
    the in-place differences, changes a bit of x or of the residual
    history against the cycle written with plain ``@``; the textbook
    correction form of Gauss-Seidel agrees to rounding."""

    @pytest.mark.parametrize("cycle", [TGM, VCYCLE])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_solve_leaves_its_inputs_unchanged(self, dim, cycle):
        h, b = _solve_case(dim, GS, cycle)
        b0 = b.copy()
        first = solve(h, b, cycle=cycle)
        assert first.converged
        assert same_bits(b, b0)
        assert same_bits(solve(h, b, cycle=cycle).x, first.x)

    @pytest.mark.parametrize("sweeps", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("cycle", [TGM, VCYCLE])
    @pytest.mark.parametrize("kind", [GAUSS_SEIDEL, RICHARDSON])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_reference_vcycle(self, dim, kind, cycle, sweeps):
        spec = SmootherSpec(kind=kind, sweeps_pre=sweeps[0], sweeps_post=sweeps[1])
        h, b = _solve_case(dim, spec, cycle)
        res = solve(h, b, tol=1e-14, max_iter=4, cycle=cycle)
        assert res.iterations == 4
        x, residuals = _reference_solve(h, b, res.iterations)
        assert same_bits(res.x, x)
        assert res.residuals == residuals
        _assert_matches_the_correction_form(res, h, b)

    @pytest.mark.parametrize("dim, kind, cycle, projector, complex_rhs", [
        (1, RICHARDSON, TGM, "geometric", False),
        (1, GAUSS_SEIDEL, VCYCLE, "linear", True),
        (2, GAUSS_SEIDEL, TGM, "linear", True),
    ])
    def test_matches_reference_to_convergence(self, dim, kind, cycle, projector,
                                              complex_rhs):
        h, b = _solve_case(dim, SmootherSpec(kind=kind), cycle, projector)
        if complex_rhs:
            b = b + 1j * b[::-1]
        res = solve(h, b, cycle=cycle)
        assert res.converged and res.iterations >= 3
        x, residuals = _reference_solve(h, b, res.iterations)
        assert same_bits(res.x, x)
        assert res.residuals == residuals
        _assert_matches_the_correction_form(res, h, b, tol=1e-6)


class TestInputsUntouched:
    """No step writes into the caller's x or b, whatever the sweep counts
    (with no pre-smoothing the cycle holds the caller's x itself)."""

    @pytest.mark.parametrize("post", [0, 1])
    @pytest.mark.parametrize("pre", [0, 1, 2])
    @pytest.mark.parametrize("kind", [GAUSS_SEIDEL, RICHARDSON])
    def test_steps_leave_x_and_b_unchanged(self, kind, pre, post):
        spec = SmootherSpec(kind=kind, sweeps_pre=pre, sweeps_post=post)
        h, b = _solve_case(1, spec, VCYCLE)
        A, P = two_grid_pieces()
        rng = np.random.default_rng(14)
        calls = [
            lambda x, b: vcycle_step(h, 0, x, b),
            lambda x, b: vcycle_step(h, 1, x[:h.levels[1].matrix.size],
                                     b[:h.levels[1].matrix.size]),
            lambda x, b: tgm_step(A, P, x[:A.size], b[:A.size], spec),
            lambda x, b: smooth(lone(h.levels[0].matrix.matrix, spec), x, b, pre),
            lambda x, b: smooth(lone(h.levels[0].matrix.matrix, spec), x, b, post),
        ]
        for step in calls:
            x = rng.standard_normal(b.size)
            x0, b0 = x.copy(), b.copy()
            out = step(x, b)
            assert same_bits(x, x0) and same_bits(b, b0)
            assert not np.shares_memory(out, x) and not np.shares_memory(out, b)


@pytest.mark.parametrize("c", [2.0 ** -660, 2.0 ** 660], ids=["2^-660", "2^660"])
def test_solve_does_not_depend_on_the_coefficient_scale(c):
    # b = (c A) u: squared as they stand, the entries of b underflow to a
    # zero norm at c = 2^-660 and overflow to an infinite one at 2^660
    def run(c):
        problem = assemble_stiffness(2, 64, lambda x: c)
        h = build_fem_hierarchy(problem, "linear", GS)
        u = np.random.default_rng(8).uniform(size=problem.size)
        return solve(h, problem.matrix.matrix @ u)

    want, got = run(1.0), run(c)
    assert want.converged and want.iterations > 1
    assert got.residuals == want.residuals
    assert same_bits(got.x, want.x)


def test_gauss_seidel_vcycle_on_a_subnormal_problem():
    # every entry of A at 1e-310 is subnormal; the coarsest level's
    # Cholesky takes square roots of its pivots, which stay normal
    def run(c):
        problem = assemble_stiffness(2, 64, lambda x: c)
        h = build_fem_hierarchy(problem, "linear", GS)
        u = np.random.default_rng(8).uniform(size=problem.size)
        return solve(h, problem.matrix.matrix @ u)

    want, got = run(1e-300), run(1e-310)
    assert want.converged and got.converged
    assert got.iterations == want.iterations == 7


def test_detect_divergence():
    assert detect_divergence([1, 2, 4, 8, 16, 32])
    assert not detect_divergence([1.0, 0.5, 0.25, 0.12, 0.06, 0.03])
    assert not detect_divergence([1, 2, 4])


class TestOmegaDefault:
    def test_matrix_path_uses_gershgorin(self):
        A = assemble_toeplitz(LAPLACE, 16)
        assert richardson_omega_default(A) == pytest.approx(1.0 / gershgorin_bound(A))

    def test_zero_operator_rejected(self):
        with pytest.raises(ArgumentError):
            richardson_omega_default(sp.csr_matrix((4, 4)))

    def test_subnormal_bound_rejected(self):
        # C = 1.07e-309: 1/C overflows, at setup and per level alike
        problem = assemble_stiffness(2, 64, lambda x: 1e-310)
        with pytest.raises(ArgumentError, match=r"Gershgorin bound C = 1\.07e-309"):
            richardson_omega_default(problem.matrix)
        h = build_fem_hierarchy(problem, "linear", SmootherSpec(kind=RICHARDSON))
        b = problem.matrix.matrix @ np.ones(problem.size)
        with pytest.raises(ArgumentError, match=r"Gershgorin bound C = 1\.07e-309"):
            solve(h, b)



def _bitwise_hermitian(A) -> bool:
    return (A != A.conj().T).nnz == 0


class TestExactlyHermitian:
    """A level records ``exactly_hermitian`` exactly when A = A^H bit for
    bit, on every level the builders make; a Gauss-Seidel level applies
    U = L^H only then, and otherwise a copy of its strict upper triangle."""

    @pytest.mark.parametrize("coefficient", ["one", "xsq_plus_one", "exp_minus_2x"])
    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_1d_levels(self, r, kind, coefficient):
        problem = assemble_stiffness(r, 64, coefficient)
        h = build_fem_hierarchy(problem, kind, GS)
        for ell, lvl in enumerate(h.levels):
            A = lvl.matrix.matrix
            assert lvl.matrix.exactly_hermitian == _bitwise_hermitian(A), ell
        assert all(lvl.matrix.exactly_hermitian for lvl in h.levels[1:])

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_2d_levels(self, r, kind):
        h = build_2d_hierarchy(assemble_2d_problem(r, 4), kind, GS)
        for ell, lvl in enumerate(h.levels):
            A = lvl.matrix.matrix
            assert lvl.matrix.exactly_hermitian == _bitwise_hermitian(A), ell
        assert all(lvl.matrix.exactly_hermitian for lvl in h.levels)

    @pytest.mark.parametrize("symbol", [LAPLACE, COMPLEX_HERMITIAN],
                             ids=["real", "complex"])
    def test_galerkin_level_of_tgm_step(self, monkeypatch, symbol):
        levels = []
        hierarchy = MultigridHierarchy

        def recording(matrices, *args):
            levels.extend(matrices)
            return hierarchy(matrices, *args)

        monkeypatch.setattr(mgsolve, "MultigridHierarchy", recording)
        if symbol is LAPLACE:
            A, P = two_grid_pieces()
        else:
            A = assemble_toeplitz(symbol, 32)
            interp = {0: 2.0 * np.eye(2), 1: np.eye(2), -1: np.eye(2)}
            P = assemble_transfer(MatrixTrigPolynomial(interp), 32, "circulant")
        b = A.matrix @ np.linspace(0.0, 1.0, A.size)
        tgm_step(A, P, np.zeros(A.size), b, GS)
        assert [lvl.size for lvl in levels] == [A.size, P.coarse_size]
        for lvl in levels:
            assert lvl.exactly_hermitian == _bitwise_hermitian(lvl.matrix)
        assert levels[1].exactly_hermitian

    def test_product_of_a_non_hermitian_matrix_is_not_marked(self):
        A, P = two_grid_pieces()
        shift = sp.diags([0.5], [1], shape=A.matrix.shape)
        skew = BlockStructuredMatrix((A.matrix + shift).tocsr())
        C = galerkin(skew, P)
        assert not skew.exactly_hermitian and not C.exactly_hermitian
        assert not _bitwise_hermitian(C.matrix)

    @staticmethod
    def _one_ulp_off():
        """A 2D CSR level with one strictly upper entry moved by one ulp:
        Hermitian to the test's tolerance, not bit for bit."""
        h = build_2d_hierarchy(assemble_2d_problem(2, 3), "linear", GS, two_level=True)
        M = h.levels[0].matrix.matrix.copy()
        rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
        upper = np.flatnonzero(M.indices > rows)
        k = upper[len(upper) // 3]
        M.data[k] = np.nextafter(M.data[k], np.inf)
        return BlockStructuredMatrix(M), h.levels[0].transfer

    def test_one_ulp_off_level_takes_the_copy_path(self):
        fine, P = self._one_ulp_off()
        h = MultigridHierarchy([fine, galerkin(fine, P)], [P], GS)
        M = fine.matrix
        # galerkin tested it: Hermitian to tolerance, so the coarse level
        # is the symmetrized product, but the fine level is not exact
        assert not fine.exactly_hermitian and h.levels[1].matrix.exactly_hermitian
        assert not banded(M)
        x = np.random.default_rng(5).standard_normal(M.shape[0])
        assert same_bits(h.levels[0].sweeps.upper(x), sp.triu(M, 1, format="csr") @ x)
        b = M @ np.random.default_rng(6).uniform(size=M.shape[0])
        res = solve(h, b, tol=1e-12, cycle=TGM)
        assert res.converged
        want = np.linalg.solve(M.toarray(), b)
        assert np.linalg.norm(res.x - want) <= 1e-10 * np.linalg.norm(want)
        x_ref, residuals = _reference_solve(h, b, res.iterations)
        assert same_bits(res.x, x_ref) and res.residuals == residuals

    def test_complex_exactly_hermitian_level_applies_the_conjugate(self):
        H = assemble_toeplitz(COMPLEX_HERMITIAN, 8).matrix
        eye = sp.identity(H.shape[0], format="csr")
        level = BlockStructuredMatrix((sp.kron(H, eye) + sp.kron(eye, H)).tocsr())
        assert level.is_hermitian() and level.exactly_hermitian
        M = level.matrix
        assert not banded(M)
        lvl = _Level(level, None, GS)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
        assert same_bits(lvl.sweeps.upper(x), sp.triu(M, 1, format="csr") @ x)


    def test_solver_paths_follow_the_record_not_the_entries(self, monkeypatch):
        # a band level that is Hermitian bit for bit but not recorded
        # takes SuperLU and the dense positive-definite check; once its
        # Hermitian test records it, banded Cholesky and the band check
        A, P = two_grid_pieces(63)
        assert A.is_hermitian() and A.exactly_hermitian
        M = assemble_stiffness(2, 16, "xsq_plus_one").matrix.matrix
        assert M.shape[0] == P.coarse_size and banded(M) and _bitwise_hermitian(M)
        band, dense = [], []
        eig_banded, eigvalsh = mgsolve.eig_banded, np.linalg.eigvalsh

        def count_band(a, **kw):
            band.append(a.shape[1])
            return eig_banded(a, **kw)

        def count_dense(a, *args, **kw):
            dense.append(a.shape[0])
            return eigvalsh(a, *args, **kw)

        monkeypatch.setattr(mgsolve, "eig_banded", count_band)
        monkeypatch.setattr(np.linalg, "eigvalsh", count_dense)
        b = np.random.default_rng(8).standard_normal(M.shape[0])
        want = np.linalg.solve(M.toarray(), b)
        coarse = BlockStructuredMatrix(M)
        for backend, checks in (("splu", ([63, 63], [31])),
                                ("pbtrs", ([63, 63, 31, 31], []))):
            band.clear()
            dense.clear()
            lvl = MultigridHierarchy([A, coarse], [P], GS).levels[1]
            assert (band, dense) == checks, backend
            assert _backend(lvl.coarse_solve) == backend
            x = lvl.coarse_solve(b)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
            assert coarse.is_hermitian() and coarse.exactly_hermitian

    def test_galerkin_reads_the_record(self, monkeypatch):
        tested = []
        is_hermitian = BlockStructuredMatrix.is_hermitian

        def counting(self, *args, **kwargs):
            tested.append(self.size)
            return is_hermitian(self, *args, **kwargs)

        monkeypatch.setattr(BlockStructuredMatrix, "is_hermitian", counting)
        A, P = two_grid_pieces()
        coarse = galerkin(A, P)
        assert tested == [A.size] and coarse.exactly_hermitian
        P2 = assemble_transfer(INTERP, coarse.size + 1, "trimmed")
        tested.clear()
        C = galerkin(coarse, P2)
        assert tested == [] and C.exactly_hermitian
        # the same entries without the record are tested, to the same bits
        D = galerkin(BlockStructuredMatrix(coarse.matrix.copy()), P2)
        assert tested == [coarse.size] and D.exactly_hermitian
        assert all(same_bits(getattr(C.matrix, name), getattr(D.matrix, name))
                   for name in ("indptr", "indices", "data"))


class TestReportedResidual:
    """The last residual a solve reports, formed as w' - w for
    Gauss-Seidel, is the residual of the x it returns."""

    @pytest.mark.parametrize("complex_rhs", [False, True])
    @pytest.mark.parametrize("sweeps", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("cycle", [TGM, VCYCLE])
    @pytest.mark.parametrize("kind", [GAUSS_SEIDEL, RICHARDSON])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_last_residual_is_fresh(self, dim, kind, cycle, sweeps, complex_rhs):
        spec = SmootherSpec(kind=kind, sweeps_pre=sweeps[0], sweeps_post=sweeps[1])
        h, b = _solve_case(dim, spec, cycle)
        if complex_rhs:
            b = b + 1j * b[::-1]
        res = solve(h, b, tol=1e-8)
        assert res.converged
        A = h.levels[0].matrix.matrix
        fresh = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
        assert abs(res.residuals[-1] - fresh) <= 1e-12
