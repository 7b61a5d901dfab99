import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss

from blockmg import (MatrixTrigPolynomial, assemble_toeplitz, assemble_transfer,
                     coarse_symbol, femgen, galerkin, multilevel)
from blockmg.errors import ArgumentError, ConstructionError
from blockmg.femgen import (COEFFICIENTS, _reference_basis, assemble_mass,
                            assemble_stiffness, build_fem_hierarchy,
                            build_fem_transfer, build_geometric_symbol,
                            build_linear_interp_symbol, geometric_det_reference,
                            mass_symbol, projector_symbol, stiffness_symbol)

from conftest import has_full_column_rank, max_coeff_difference


def _basis_on_nodes(nodes, x):
    """Values and derivatives at the points x of the Lagrange basis on nodes."""
    m = len(nodes)
    val = np.ones((m, len(x)))
    der = np.zeros((m, len(x)))
    for i in range(m):
        for k in range(m):
            if k != i:
                val[i] *= (x - nodes[k]) / (nodes[i] - nodes[k])
        for mm in range(m):
            if mm == i:
                continue
            prod = np.full(len(x), 1.0 / (nodes[i] - nodes[mm]))
            for k in range(m):
                if k not in (i, mm):
                    prod *= (x - nodes[k]) / (nodes[i] - nodes[k])
            der[i] += prod
    return val, der


def _reference_assembly(r, n, fun):
    """Trimmed, normalized stiffness and mass matrices, one element at a time."""
    gx, gw = leggauss(r + 2)
    ndof = n * r + 1
    K = np.zeros((ndof, ndof))
    M = np.zeros((ndof, ndof))
    for e in range(n):
        dofs = e * r + np.arange(r + 1)
        xq = (e + 0.5 * (gx + 1.0)) / n
        wq = 0.5 * gw / n
        phi, dphi = _basis_on_nodes(dofs / (n * r), xq)
        K[np.ix_(dofs, dofs)] += (dphi * (fun(xq) * wq)) @ dphi.T
        M[np.ix_(dofs, dofs)] += (phi * wq) @ phi.T
    return K[1:-1, 1:-1] / n, M[1:-1, 1:-1] * n


def _coarse_basis_at_fine_knots(r, n_coarse):
    """Every interior coarse basis function at every interior fine knot:
    a sparse (2 r n_coarse - 1, r n_coarse - 1) matrix.  A fine knot that
    is a coarse knot takes the nodal delta; any other lies inside one
    coarse element, where the basis function of a coarse knot of that
    element is the polynomial with roots at the element's other nodes,
    normalized to 1 at its own (numpy.polynomial, at the reference
    coordinate s/(2r)), and every other one is 0."""
    nodes = np.arange(r + 1) / r
    basis = [Polynomial.fromroots(np.delete(nodes, ell), domain=[0, 1])
             for ell in range(r + 1)]
    at_knot = [[basis[ell](s / (2 * r)) / basis[ell](nodes[ell]) for ell in range(r + 1)]
               for s in range(2 * r)]
    nf, nc = 2 * r * n_coarse - 1, r * n_coarse - 1
    rows, cols, vals = [], [], []
    for i in range(1, nf + 1):
        if i % 2 == 0:
            rows.append(i - 1)
            cols.append(i // 2 - 1)
            vals.append(1.0)
            continue
        e, s = divmod(i, 2 * r)
        for ell in range(r + 1):
            j = r * e + ell
            if 1 <= j <= nc:
                rows.append(i - 1)
                cols.append(j - 1)
                vals.append(at_knot[s][ell])
    return sp.csr_matrix((vals, (rows, cols)), shape=(nf, nc))


def _wavy_coefficient(x):
    return 1.0 + np.sin(3.0 * x) ** 2


def _max_rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestBatchedAssembly:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_matches_element_loop(self, r, n):
        for coefficient in [*COEFFICIENTS, _wavy_coefficient]:
            fun = COEFFICIENTS.get(coefficient, coefficient)
            K_ref, M_ref = _reference_assembly(r, n, fun)
            K = assemble_stiffness(r, n, coefficient).matrix.dense().real
            assert _max_rel_diff(K, K_ref) <= 1e-12
        M = assemble_mass(r, n).matrix.toarray().real
        assert _max_rel_diff(M, M_ref) <= 1e-12


@pytest.mark.parametrize("r", range(1, 9))
def test_element_assembly_is_exactly_symmetric(r):
    # each element matrix is mirrored from its upper triangle, and two
    # distinct knots share at most one element: assembly records it
    for n in (8, 1024):
        for coefficient in COEFFICIENTS:
            K = assemble_stiffness(r, n, coefficient).matrix
            assert K.exactly_hermitian and (K.matrix != K.matrix.T).nnz == 0, (coefficient, n)
        M = assemble_mass(r, n)
        assert M.exactly_hermitian and (M.matrix != M.matrix.T).nnz == 0, n


class TestBasis:
    @pytest.mark.parametrize("r", range(1, 9))
    def test_nodal_property(self, r):
        # exact, so a basis function vanishes bit for bit at other nodes
        values, _ = _reference_basis(r, np.arange(r + 1) / r)
        np.testing.assert_array_equal(values, np.eye(r + 1))

    def test_hat_midpoint(self):
        values, derivs = _reference_basis(1, np.array([0.5]))
        np.testing.assert_allclose(values[:, 0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(derivs[:, 0], [-1.0, 1.0], atol=1e-15)

    def test_quadratic_quarter_point(self):
        # the element-interior node of a quadratic at reference t = 1/4
        assert _reference_basis(2, np.array([0.25]))[0][1, 0] == pytest.approx(0.75)

    def test_partition_of_unity(self):
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=300)
        for r in range(1, 9):
            values, derivs = _reference_basis(r, x)
            assert values.shape == derivs.shape == (r + 1, 300)
            np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-12)
            scale = np.abs(derivs).max()
            np.testing.assert_allclose(derivs.sum(axis=0), 0.0, atol=1e-12 * scale)


class TestStiffness:
    def test_hat_functions_give_laplacian(self):
        K = assemble_stiffness(1, 4, "one").matrix.dense().real
        want = np.diag([2.0] * 3) + np.diag([-1.0] * 2, 1) + np.diag([-1.0] * 2, -1)
        np.testing.assert_allclose(K, want, atol=1e-12)

    def test_quadratic_blocks(self):
        K = assemble_stiffness(2, 8, "one").matrix.dense().real
        a0 = np.array([[16.0, -8.0], [-8.0, 14.0]]) / 3.0
        a1 = np.array([[0.0, -8.0], [0.0, 1.0]]) / 3.0
        np.testing.assert_allclose(K[4:6, 4:6], a0, atol=1e-12)
        np.testing.assert_allclose(K[6:8, 4:6], a1, atol=1e-12)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_interior_matches_block_toeplitz(self, r):
        # bit for bit: stiffness and mass are T_n of their symbols with
        # the last scalar row and column removed, at every size
        for n in (4, 8, 16, 64, 256):
            for A, f in ((assemble_stiffness(r, n, "one").matrix.matrix, stiffness_symbol(r)),
                         (assemble_mass(r, n).matrix, mass_symbol(r))):
                T = assemble_toeplitz(f, n).matrix[:-1, :-1]
                assert not T.data.imag.any()
                assert (A != T.real).nnz == 0, n

    @pytest.mark.parametrize("name", ["xsq_plus_one", "exp_minus_2x"])
    def test_variable_coefficient(self, name):
        problem = assemble_stiffness(2, 8, name)
        K = problem.matrix.dense().real
        assert np.linalg.eigvalsh(K)[0] > 0
        # diagonal entries sit inside the coefficient envelope of the
        # constant-coefficient diagonal (the integrand is sign-definite)
        K1 = assemble_stiffness(2, 8, "one").matrix.dense().real
        d, d1 = np.diag(K), np.diag(K1)
        assert np.all(d >= 0.6 * d1 - 1e-12)
        assert np.all(d <= 2.0 * d1 + 1e-12)
        # variable coefficient breaks the block-Toeplitz structure
        assert abs(K[4, 5] - K[8, 9]) > 1e-6

    def test_custom_callable(self):
        problem = assemble_stiffness(1, 4, lambda x: 2.0 * np.ones_like(x))
        np.testing.assert_allclose(problem.matrix.dense().real,
                                   2.0 * assemble_stiffness(1, 4, "one").matrix.dense().real,
                                   atol=1e-12)

    def test_scalar_callable(self):
        problem = assemble_stiffness(2, 4, lambda x: 2.0)
        np.testing.assert_allclose(problem.matrix.dense().real,
                                   2.0 * assemble_stiffness(2, 4, "one").matrix.dense().real,
                                   atol=1e-12)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ArgumentError):
            assemble_stiffness(1, 4, lambda x: x - 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coefficient_rejected(self, bad):
        # first quadrature point past 0.5: 0.5 + (1 - sqrt(3/5)) / 8
        with pytest.raises(ArgumentError, match=r"x=0\.528175"):
            assemble_stiffness(1, 4, lambda x: np.where(x > 0.5, bad, 1.0))

    def test_size_validation(self):
        with pytest.raises(ArgumentError):
            assemble_stiffness(1, 12)
        with pytest.raises(ArgumentError):
            assemble_stiffness(0, 4)
        with pytest.raises(ArgumentError):
            assemble_stiffness(1, 4, "quadratic")


class TestMass:
    def test_hat_mass(self):
        M = assemble_mass(1, 4).matrix.toarray().real
        want = (np.diag([4.0] * 3) + np.diag([1.0] * 2, 1)
                + np.diag([1.0] * 2, -1)) / 6.0
        np.testing.assert_allclose(M, want, atol=1e-12)

    def test_size_validation(self):
        with pytest.raises(ArgumentError):
            assemble_mass(0, 4)
        with pytest.raises(ArgumentError):
            assemble_mass(2, 6)
        with pytest.raises(ArgumentError):
            assemble_mass(2, 1)

    def test_mass_symbol_scalar(self):
        h = mass_symbol(1)
        for t in (0.0, 1.0, np.pi):
            assert h.evaluate(t)[0, 0].real == pytest.approx(
                (4 + 2 * np.cos(t)) / 6.0, abs=1e-12)


def _block_column(mat, r, k, shift):
    """Blocks (i, k) of a dense matrix as {i - shift: block}, zero ones left out."""
    blocks = {}
    for i in range(mat.shape[0] // r):
        block = mat[i * r:(i + 1) * r, k * r:(k + 1) * r]
        if block.any():
            blocks[i - shift] = block
    return blocks


@pytest.mark.parametrize("r", range(1, 9))
def test_symbols_are_interior_block_columns_at_n32(r):
    """Each symbol equals an interior block column of the same-kind
    matrix assembled at n = 32, bit for bit."""
    k = 8
    cases = [
        (stiffness_symbol(r), assemble_stiffness(r, 32).matrix.dense(), k),
        (mass_symbol(r), assemble_mass(r, 32).matrix.toarray(), k),
        (build_linear_interp_symbol(r),
         build_fem_transfer(r, 32, "linear").matrix.toarray(), 2 * k + 1),
        (build_geometric_symbol(r),
         build_fem_transfer(r, 32, "geometric").matrix.toarray(), 2 * k + 1),
    ]
    for f, mat, shift in cases:
        want = _block_column(mat, r, k, shift)
        assert sorted(want) == [j for (j,) in sorted(f.coeffs)]
        for j, block in want.items():
            np.testing.assert_array_equal(f.coeffs[(j,)], block)


def _block_symbol(mat, r, stride):
    """The r-by-r block symbol of an assembled matrix, read off its middle
    complete block column k: block (i, k) holds c_{i-k} for stride 1
    (stiffness, mass) and c_{i-2k-1} for stride 2 (a prolongation).  The
    column must be interior: no band may reach its first or last complete
    block row."""
    k = mat.shape[1] // r // 2
    rows = mat.shape[0] // r
    col = mat[:rows * r, k * r:(k + 1) * r].toarray().reshape(rows, r, r)
    band = np.flatnonzero(col.any(axis=(1, 2)))
    if band.size == 0 or band[0] == 0 or band[-1] == rows - 1:
        raise ConstructionError(f"block column {k} is not interior to the reference matrix")
    shift = stride * k + stride - 1
    return MatrixTrigPolynomial({int(i) - shift: col[i] for i in band})


def _assert_same_symbol(got, want):
    """Same indices in the same order, and the same coefficient bytes
    (signed zeros included)."""
    assert list(got.coeffs) == list(want.coeffs)
    for j, c in want.coeffs.items():
        assert got.coeffs[j].tobytes() == c.tobytes(), j
    assert got._J.tobytes() == want._J.tobytes()
    assert got._C.tobytes() == want._C.tobytes()
    assert got.hermitian == want.hermitian


@pytest.mark.parametrize("r", range(1, 9))
def test_symbols_equal_the_assembled_block_column_read(r):
    # the symbols come from element matrices and the coarse-element
    # table; reading them off the assembled matrices (n = 16 for the
    # prolongations: at n = 8 and r = 1 no coarse block column holds its
    # whole band) gives the same bytes in the same order
    _assert_same_symbol(stiffness_symbol(r),
                        _block_symbol(assemble_stiffness(r, 8).matrix.matrix, r, 1))
    _assert_same_symbol(mass_symbol(r), _block_symbol(assemble_mass(r, 8).matrix, r, 1))
    for kind in ("linear", "geometric"):
        _assert_same_symbol(projector_symbol(r, kind),
                            _block_symbol(build_fem_transfer(r, 16, kind).matrix, r, 2))


def test_symbols_assemble_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a symbol builder assembled a matrix")

    for module, name in ((femgen, "assemble_stiffness"), (femgen, "assemble_mass"),
                         (femgen, "assemble_transfer"), (multilevel, "kron_sum")):
        monkeypatch.setattr(module, name, refuse)
    for r in range(1, 9):
        f, h = stiffness_symbol(r), mass_symbol(r)
        build_linear_interp_symbol(r)
        build_geometric_symbol(r)
        if r <= 3:
            multilevel.tensor_sum_symbol(f, h)


def linear_projector_symbol(r):
    return projector_symbol(r, "linear")


SYMBOL_BUILDERS = [stiffness_symbol, mass_symbol, build_linear_interp_symbol,
                   build_geometric_symbol, linear_projector_symbol]


@pytest.mark.parametrize("r", [0, 9, 2.0, True, "2"])
@pytest.mark.parametrize("builder", SYMBOL_BUILDERS)
def test_symbol_degree_is_an_integer_in_range(builder, r):
    with pytest.raises(ArgumentError, match=r"symbol degree must be an integer in 1\.\.8"):
        builder(r)


@pytest.mark.parametrize("builder", SYMBOL_BUILDERS)
def test_symbol_degree_accepts_numpy_integers(builder):
    _assert_same_symbol(builder(np.int64(3)), builder(3))


# the solve-path entry points, each reduced to the CSR matrix it builds
SOLVE_BUILDERS = {
    "assemble_stiffness": lambda r: assemble_stiffness(r, 8).matrix.matrix,
    "assemble_mass": lambda r: assemble_mass(r, 8).matrix,
    "build_fem_transfer": lambda r: build_fem_transfer(r, 8, "linear").matrix,
    "assemble_2d_problem": lambda r: multilevel.assemble_2d_problem(r, 4).matrix.matrix,
}


@pytest.mark.parametrize("r", [2.0, True, "2", 0])
@pytest.mark.parametrize("builder", SOLVE_BUILDERS.values(), ids=SOLVE_BUILDERS.keys())
def test_solve_degree_is_an_integer(builder, r):
    # no cap: the 2D problem caps its degree only after this check
    with pytest.raises(ArgumentError, match=r"degree must be an integer >= 1"):
        builder(r)


@pytest.mark.parametrize("builder", SOLVE_BUILDERS.values(), ids=SOLVE_BUILDERS.keys())
def test_solve_degree_accepts_numpy_integers(builder):
    got, want = builder(np.int64(2)), builder(2)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestStiffnessSymbol:
    def test_degree_one(self):
        f = stiffness_symbol(1)
        assert f.evaluate(0.0)[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert f.evaluate(np.pi)[0, 0].real == pytest.approx(4.0, abs=1e-12)

    def test_degree_two_printed_values(self, f_q2):
        assert max_coeff_difference(stiffness_symbol(2), f_q2) <= 1e-12

    def test_degree_three_kernel_and_gap(self):
        f = stiffness_symbol(3)
        ones = np.ones(3)
        assert np.linalg.norm(f.evaluate(0.0) @ ones) <= 1e-10
        grid = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        eigs = np.array([np.linalg.eigvalsh(v) for v in f.evaluate_grid(grid)])
        assert eigs[:, 1:].min() > 0.1

    def test_degree_cap(self):
        with pytest.raises(ArgumentError):
            stiffness_symbol(9)


class TestLinearInterpSymbol:
    def test_degree_one_is_scalar_stencil(self):
        p = build_linear_interp_symbol(1)
        assert p.evaluate(0.0)[0, 0].real == pytest.approx(4.0)
        assert p.evaluate(np.pi)[0, 0].real == pytest.approx(0.0, abs=1e-12)

    def test_degree_two_printed(self, p_l2):
        assert max_coeff_difference(build_linear_interp_symbol(2), p_l2) <= 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_row_sum_identities(self, r):
        p = build_linear_interp_symbol(r)
        e = np.ones(r)
        np.testing.assert_allclose(p.evaluate(0.0) @ e, 4.0 * e, atol=1e-10)
        np.testing.assert_allclose(p.evaluate(np.pi) @ e, np.zeros(r), atol=1e-10)
        np.testing.assert_allclose(p.evaluate(0.0).conj().T @ e, 4.0 * e, atol=1e-10)


class TestGeometricSymbol:
    def test_degree_one_is_hat(self):
        p = build_geometric_symbol(1)
        for t in (0.0, 0.7, np.pi):
            assert p.evaluate(t)[0, 0].real == pytest.approx(1 + np.cos(t), abs=1e-12)

    def test_degree_two_basis_values(self):
        p = build_geometric_symbol(2)
        np.testing.assert_allclose(p.coeffs[(-1,)],
                                   [[0.75, -0.125], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(p.coeffs[(0,)],
                                   [[0.75, 0.375], [0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(p.coeffs[(1,)],
                                   [[0.0, 0.375], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(p.coeffs[(2,)],
                                   [[0.0, -0.125], [0.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_row_sums_and_determinant(self, r):
        p = build_geometric_symbol(r)
        e = np.ones(r)
        np.testing.assert_allclose(p.evaluate(0.0) @ e, 2.0 * e, atol=1e-10)
        np.testing.assert_allclose(p.evaluate(np.pi) @ e, np.zeros(r), atol=1e-10)
        for t in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            got = np.linalg.det(p.evaluate(t))
            assert abs(got - geometric_det_reference(r, t)) <= 1e-10

    def test_determinant_vanishes_at_pi(self):
        p = build_geometric_symbol(2)
        assert abs(np.linalg.det(p.evaluate(np.pi))) <= 1e-12


class TestFemTransfer:
    def test_linear_hat_stencil(self):
        P = build_fem_transfer(1, 8, "linear").matrix.toarray().real
        assert P.shape == (7, 3)
        for j in range(3):
            center = 2 * j + 1
            np.testing.assert_allclose(P[center - 1:center + 2, j],
                                       [1.0, 2.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("r", [*range(1, 10), 12])
    def test_linear_matches_toeplitz_oracle(self, r):
        # bit for bit: the trimmed transfer of the scalar (1,2,1) stencil,
        # also past the symbol builders' degree cap
        stencil = MatrixTrigPolynomial.scalar({0: 2, 1: 1, -1: 1})
        for n in (4, 8, 16, 64, 1024):
            got = build_fem_transfer(r, n, "linear").matrix
            want = assemble_transfer(stencil, r * n, "trimmed").matrix
            assert got.dtype == want.dtype
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))

    def test_geometric_degree_one_is_half_linear(self):
        PL = build_fem_transfer(1, 8, "linear").matrix.toarray().real
        PG = build_fem_transfer(1, 8, "geometric").matrix.toarray()
        np.testing.assert_allclose(PG, 0.5 * PL, atol=1e-12)

    def test_geometric_columns_are_basis_evaluations(self):
        P = build_fem_transfer(2, 4, "geometric").matrix.toarray()
        want = _coarse_basis_at_fine_knots(2, 2).toarray()
        for j in range(1, 4):
            for i in range(1, 8):
                assert P[i - 1, j - 1] == pytest.approx(want[i - 1, j - 1], abs=1e-12)

    @pytest.mark.parametrize("r", [*range(1, 9), 9, 12])
    def test_geometric_entries_and_pattern(self, r):
        # n = 4 has only a first and a last coarse element, both of which
        # lose the entries of a Dirichlet coarse knot
        for n in (4, 8, 16, 64, 1024):
            P = build_fem_transfer(r, n, "geometric").matrix
            want = _coarse_basis_at_fine_knots(r, n // 2)
            assert P.shape == want.shape
            assert P.has_canonical_format
            assert np.count_nonzero(P.data) == P.nnz
            assert ((P != 0.0) != (want != 0.0)).nnz == 0, n
            assert abs(P - want).max() <= 1e-12 * abs(want).max(), n

    def test_shapes_and_rank(self):
        for r, n in ((1, 8), (2, 8), (3, 4)):
            for kind in ("linear", "geometric"):
                P = build_fem_transfer(r, n, kind)
                assert P.fine_size == r * n - 1
                assert P.coarse_size == r * n // 2 - 1
                assert has_full_column_rank(P)

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    def test_hierarchy_transfers_equal_build_fem_transfer(self, kind):
        h = build_fem_hierarchy(assemble_stiffness(2, 32), kind, coarsest_max_size=7)
        transfers = [lvl.transfer for lvl in h.levels if lvl.transfer is not None]
        assert len(transfers) >= 3
        n = 32
        for P in transfers:
            want = build_fem_transfer(2, n, kind)
            assert abs(P.matrix - want.matrix).max() == 0.0
            n //= 2

    def test_hierarchy_rejects_unknown_kind(self):
        with pytest.raises(ArgumentError, match="unknown transfer kind"):
            build_fem_hierarchy(assemble_stiffness(2, 8), "algebraic")

    @pytest.mark.parametrize("r, t, coarsest, two_level, sizes", [
        (2, 8, 64, False, [511, 255, 127, 63]),
        (2, 8, 7, False, [511, 255, 127, 63, 31, 15, 7]),
        (1, 4, 64, False, [15, 7]),
        (3, 6, 64, True, [191, 95]),
        (2, 2, 64, False, [7, 3]),
    ])
    def test_hierarchy_level_sizes(self, r, t, coarsest, two_level, sizes):
        # coarsening stops once a level has at most `coarsest` unknowns,
        # when fewer than 4 elements remain, or after one step for two_level
        h = build_fem_hierarchy(assemble_stiffness(r, 2 ** t), "linear",
                                coarsest_max_size=coarsest, two_level=two_level)
        assert [lvl.matrix.size for lvl in h.levels] == sizes

    def test_parity_validation(self):
        with pytest.raises(ArgumentError):
            build_fem_transfer(2, 7, "linear")
        with pytest.raises(ArgumentError):
            build_fem_transfer(2, 8, "algebraic")


@pytest.mark.parametrize("kind", ["linear", "geometric"])
@pytest.mark.parametrize("r", range(1, 9))
def test_galerkin_levels_are_the_coarse_symbol_chain(r, kind):
    # every level of a constant-coefficient hierarchy is the trimmed T_n
    # of the coarse-symbol chain f_k = coarse_symbol(f_{k-1}, p): the
    # trimmed pairs have no boundary terms.  The mass chain, through the
    # same transfers, matches too.
    n = 256
    h = build_fem_hierarchy(assemble_stiffness(r, n), kind)
    assert len(h.levels) >= 3
    p = projector_symbol(r, kind)
    f, m = stiffness_symbol(r), mass_symbol(r)
    M = assemble_mass(r, n)
    for k, lvl in enumerate(h.levels):
        if k > 0:
            f, m = coarse_symbol(f, p), coarse_symbol(m, p)
            M = galerkin(M, h.levels[k - 1].transfer)
        n_k = n // 2 ** k
        for got, symbol in ((lvl.matrix.matrix, f), (M.matrix, m)):
            want = assemble_toeplitz(symbol, n_k).matrix[:-1, :-1]
            assert got.shape == want.shape
            assert abs(got - want).max() <= 1e-12 * abs(want).max(), (k, symbol is m)
