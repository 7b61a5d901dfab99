import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from blockmg import (BlockStructuredMatrix, MatrixTrigPolynomial,
                     assemble_circulant, assemble_toeplitz, assemble_transfer,
                     coarse_projection_norm, coarse_symbol, galerkin)
from blockmg import structured
from blockmg.errors import ArgumentError, DimensionError
from blockmg.femgen import (DEFAULT_COARSEST, _transfer_chain, assemble_stiffness,
                            build_fem_hierarchy, build_fem_transfer)
from blockmg.multilevel import assemble_2d_problem, build_2d_hierarchy
from blockmg.structured import GridTransfer, matvec_kernel

from conftest import (has_full_column_rank, random_hermitian_symbol,
                      random_symbol, same_bits)

LAPLACE = MatrixTrigPolynomial.scalar({0: 2.0, 1: -1.0, -1: -1.0})
INTERP = MatrixTrigPolynomial.scalar({0: 2.0, 1: 1.0, -1: 1.0})
HAT = MatrixTrigPolynomial.scalar({0: 1.0, 1: 0.5, -1: 0.5})
IDENTITY2 = MatrixTrigPolynomial({0: np.eye(2)})
IDENTITY = MatrixTrigPolynomial.scalar({0: 1.0})


def circulant_eigenvalues(f, n):
    """Multiset of eigenvalues of the block circulant: values of f at the
    Fourier points 2*pi*i/n, concatenated."""
    vals = f.evaluate_grid(2.0 * np.pi * np.arange(n) / n)
    return np.concatenate([np.linalg.eigvalsh(v) for v in vals])


def kept_rows(P):
    """The rows that the columns of a 0/1 selection transfer keep."""
    return P.matrix.tocsc().indices


def fourier_matrix(n):
    """F_n with entries e^(-i j theta_i)/sqrt(n), theta_i = 2 pi i / n."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * i * j / n) / np.sqrt(n)


def trimmed_toeplitz(f, n):
    """T_n(f) with its last scalar row and column removed."""
    return BlockStructuredMatrix(assemble_toeplitz(f, n).matrix[:-1, :-1].tocsr())


def block_oracle(p, n, stride, offset, periodic):
    """The dense matrix with n block rows and n/stride block columns whose
    block (i, k) is the coefficient c_j of p with i - stride k - offset
    = j, or = j mod n when ``periodic``, by a loop over every block and
    coefficient."""
    d = p.d
    A = np.zeros((d * n, d * (n // stride)), dtype=complex)
    for i in range(n):
        for k in range(n // stride):
            for (j,), c in p.coeffs.items():
                delta = i - stride * k - offset - j
                if delta == 0 or (periodic and delta % n == 0):
                    A[d * i:d * (i + 1), d * k:d * (k + 1)] += c
    return A


def toeplitz_coarse_defect(f, p, n):
    """Frobenius distance between the Galerkin coarse matrix of the
    trimmed T_n(f) and the trimmed block-Toeplitz matrix of the coarse
    symbol."""
    coarse = galerkin(trimmed_toeplitz(f, n), assemble_transfer(p, n, "trimmed"))
    T = trimmed_toeplitz(coarse_symbol(f, p), n // 2)
    return float(spla.norm(coarse.matrix - T.matrix))


def projector_idempotency_defect(A, P):
    """||pi^2 - pi||_F / max(||pi||_F, 1) for the coarse-grid projector."""
    Ad = A.dense()
    Pd = P.matrix.toarray()
    pi = Pd @ np.linalg.solve(Pd.conj().T @ Ad @ Pd, Pd.conj().T @ Ad)
    return float(np.linalg.norm(pi @ pi - pi) / max(np.linalg.norm(pi), 1.0))


class TestToeplitz:
    def test_scalar_laplacian(self):
        A = assemble_toeplitz(LAPLACE, 4).dense().real
        want = np.diag([2.0] * 4) + np.diag([-1.0] * 3, 1) + np.diag([-1.0] * 3, -1)
        np.testing.assert_allclose(A, want, atol=1e-14)

    def test_block_band_orientation(self, f_q2):
        # coefficient at +1 sits on the block subdiagonal, per the
        # shift-matrix definition of the block Toeplitz matrix
        A = assemble_toeplitz(f_q2, 3).dense()
        a0 = np.array([[16.0, -8.0], [-8.0, 14.0]]) / 3.0
        a1 = np.array([[0.0, -8.0], [0.0, 1.0]]) / 3.0
        np.testing.assert_allclose(A[0:2, 0:2], a0, atol=1e-12)
        np.testing.assert_allclose(A[2:4, 0:2], a1, atol=1e-12)
        np.testing.assert_allclose(A[0:2, 2:4], a1.T, atol=1e-12)

    def test_constant_symbol(self):
        A = assemble_toeplitz(IDENTITY2, 5)
        np.testing.assert_allclose(A.dense(), np.eye(10), atol=1e-14)
        assert A.is_hermitian()

    def test_window_too_large(self):
        with pytest.raises(ArgumentError):
            assemble_toeplitz(MatrixTrigPolynomial.scalar({3: 1.0, -3: 1.0}), 3)

    def test_shift_invariance(self, f_q2):
        A = assemble_toeplitz(f_q2, 6).dense()
        d = 2
        for i in range(1, 5):
            np.testing.assert_allclose(
                A[i * d:(i + 1) * d, (i - 1) * d:i * d],
                A[d:2 * d, 0:d], atol=1e-14)


class TestCirculant:
    def test_scalar_wraparound(self):
        A = assemble_circulant(LAPLACE, 4).dense().real
        np.testing.assert_allclose(A[0], [2.0, -1.0, 0.0, -1.0], atol=1e-14)

    def test_eigenvalues_are_symbol_samples(self):
        got = np.sort(np.linalg.eigvalsh(assemble_circulant(LAPLACE, 4).dense()))
        want = np.sort([2 - 2 * np.cos(2 * np.pi * i / 4) for i in range(4)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_block_spectrum_matches_symbol(self, f_q2):
        for n in (8, 16):
            A = assemble_circulant(f_q2, n)
            got = np.sort(np.linalg.eigvalsh(A.dense()))
            want = np.sort(circulant_eigenvalues(f_q2, n))
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_constant_is_block_diagonal(self):
        C = np.array([[2.0, 1.0], [1.0, 3.0]])
        A = assemble_circulant(MatrixTrigPolynomial({0: C}), 3).dense()
        np.testing.assert_allclose(A, np.kron(np.eye(3), C), atol=1e-14)

    def test_window_cap(self):
        with pytest.raises(ArgumentError):
            assemble_circulant(LAPLACE, 2)


class TestCutting:
    """The transfers of the identity symbol are the cutting selectors."""

    def test_odd_rows(self):
        # circulant: 1-based rows 1, 3, ...
        np.testing.assert_array_equal(
            kept_rows(assemble_transfer(IDENTITY, 4, "circulant")), [0, 2])
        np.testing.assert_array_equal(
            kept_rows(assemble_transfer(IDENTITY, 2, "circulant")), [0])

    def test_even_rows(self):
        # trimmed: block (i, k) = c_{i-2k-1}, so 1-based rows 2, 4, ...
        np.testing.assert_array_equal(
            kept_rows(assemble_transfer(IDENTITY, 6, "trimmed")), [1, 3])

    def test_parity_mismatch(self):
        for structure in ("circulant", "trimmed"):
            for n in (5, 0):
                with pytest.raises(ArgumentError, match="needs an even n >= 2"):
                    assemble_transfer(IDENTITY, n, structure)
        with pytest.raises(ArgumentError, match="unknown structure"):
            assemble_transfer(IDENTITY, 4, "both")

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_fourier_packaging(self, n):
        # selecting odd rows of F_n folds it onto two copies of F_{n/2}
        k = n // 2
        K = assemble_transfer(IDENTITY, n, "circulant").matrix.toarray()
        got = K.T @ fourier_matrix(n)
        Fk = fourier_matrix(k)
        want = np.hstack([Fk, Fk]) / np.sqrt(2.0)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestTransfer:
    def test_scalar_interpolation_stencil(self):
        P = assemble_transfer(INTERP, 8, "trimmed").matrix.toarray()
        assert P.shape == (7, 3)
        want = np.zeros((7, 3))
        for j in range(3):
            center = 2 * j + 1
            want[center - 1:center + 2, j] = [1.0, 2.0, 1.0]
        np.testing.assert_allclose(P, want, atol=1e-14)

    def test_block_form_equals_scalar_path(self, p_l2):
        # the reblocked degree-2 symbol reproduces the scalar stencil
        # transfer of twice the size
        P_block = assemble_transfer(p_l2, 8, "trimmed").matrix.toarray()
        T = assemble_toeplitz(INTERP, 16).matrix.toarray().real
        cols = np.arange(1, 14, 2)  # even rows 2, 4, ..., 14, 1-based
        np.testing.assert_array_equal(P_block, T[:-1, cols])
        np.testing.assert_array_equal(
            P_block, assemble_transfer(INTERP, 16, "trimmed").matrix.toarray())

    @pytest.mark.parametrize("window", [(-1, 1), (-1, 2), (-2, 3), (-3, 0),
                                        (0, 3), (-3, 3), (2, 2)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trimmed_matches_dense_oracle(self, d, window):
        # every matrix tiled from a symbol, the trimmed transfer among
        # them, equals the dense loop over its block definition, entry for
        # entry, at each structure's smallest legal n and beyond, stored
        # as canonical CSR without explicit zeros, real for a real p
        lo, hi = window
        w = max(-lo, hi)
        # builder, then stride, offset, periodic and trim of the
        # definition, then the smallest legal n
        structures = {
            "toeplitz": (lambda p, n: assemble_toeplitz(p, n).matrix,
                         1, 0, False, False, w + 1),
            "circulant": (lambda p, n: assemble_circulant(p, n).matrix,
                          1, 0, True, False, 2 * w + 1),
            "circulant transfer": (
                lambda p, n: assemble_transfer(p, n, "circulant").matrix,
                2, 0, True, False, 2 * w + 2),
            "trimmed transfer": (
                lambda p, n: assemble_transfer(p, n, "trimmed").matrix,
                2, 1, False, True, 2),
        }
        rng = np.random.default_rng([d, lo + 3, hi + 3])
        for dtype in (np.float64, np.complex128):
            coeffs = {}
            for j in range(lo, hi + 1):
                c = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.6)
                c.flat[rng.integers(d * d)] = 1.0
                if dtype == np.complex128:
                    c = c + 1j * rng.standard_normal((d, d))
                coeffs[j] = c
            p = MatrixTrigPolynomial(coeffs)
            for name, (build, stride, offset, periodic, trim, smallest) in structures.items():
                for n in sorted({smallest, 4, 6, 8, 16, 32}):
                    if n < smallest or n % stride:
                        continue
                    want = block_oracle(p, n, stride, offset, periodic)
                    if trim:
                        want = want[:-1, :-1]
                    if dtype == np.float64:
                        assert not want.imag.any()
                        want = want.real
                    P = build(p, n)
                    assert P.dtype == dtype, (name, n)
                    assert P.has_canonical_format, (name, n)
                    assert np.count_nonzero(P.data) == P.nnz, (name, n)
                    np.testing.assert_array_equal(P.toarray(), want, err_msg=f"{name}, n={n}")

    def test_identity_symbol_injects(self):
        P = assemble_transfer(IDENTITY2, 4, "circulant").matrix.toarray().real
        want = np.zeros((8, 4))
        want[0:2, 0:2] = np.eye(2)   # block column 0
        want[4:6, 2:4] = np.eye(2)   # block column 2
        np.testing.assert_allclose(P, want, atol=1e-14)

    def test_bad_sizes(self, p_l2):
        with pytest.raises(ArgumentError):
            assemble_transfer(p_l2, 7, "trimmed")
        with pytest.raises(ArgumentError):
            assemble_transfer(p_l2, 7, "circulant")
        with pytest.raises(ArgumentError):
            assemble_transfer(p_l2, 8, "diagonal")
        with pytest.raises(ArgumentError, match="univariate"):
            assemble_transfer(MatrixTrigPolynomial.scalar({(0, 1): 1.0}), 8, "trimmed")

    def test_full_column_rank(self, p_l2):
        rng = np.random.default_rng(13)
        for n in (8, 16, 32):
            assert has_full_column_rank(assemble_transfer(p_l2, n, "trimmed"))
        for n in (8, 16):
            assert has_full_column_rank(assemble_transfer(p_l2, n, "circulant"))
        p = random_symbol(rng, 2, 1)
        assert has_full_column_rank(assemble_transfer(p, 16, "circulant"))


class TestBlockCount:
    """Every builder from a symbol refuses a block count that is not an
    integer, bools included, before any check compares or divides it."""

    BUILDERS = {
        "toeplitz": lambda n: assemble_toeplitz(LAPLACE, n),
        "circulant": lambda n: assemble_circulant(LAPLACE, n),
        "circulant transfer": lambda n: assemble_transfer(INTERP, n, "circulant"),
        "trimmed transfer": lambda n: assemble_transfer(INTERP, n, "trimmed"),
    }

    @pytest.mark.parametrize("n", [4.0, 4.5, "8", None, True])
    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_non_integer_refused(self, builder, n):
        with pytest.raises(ArgumentError, match="block count n must be an integer"):
            self.BUILDERS[builder](n)

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_numpy_integer_accepted(self, builder):
        np.testing.assert_array_equal(self.BUILDERS[builder](np.int64(8)).matrix.toarray(),
                                      self.BUILDERS[builder](8).matrix.toarray())


class TestGridTransfer:
    @pytest.mark.parametrize("build", [
        lambda: build_fem_hierarchy(assemble_stiffness(2, 64), "linear",
                                    coarsest_max_size=7),
        lambda: build_fem_hierarchy(assemble_stiffness(3, 32), "geometric",
                                    coarsest_max_size=7),
        lambda: build_2d_hierarchy(assemble_2d_problem(2, 4), "linear",
                                   coarsest_max_size=9),
    ], ids=["1d-linear", "1d-geometric", "2d-linear"])
    def test_restrict_uses_the_adjoint_bit_for_bit(self, build):
        h = build()
        rng = np.random.default_rng(17)
        transfers = [lvl.transfer for lvl in h.levels if lvl.transfer is not None]
        assert len(transfers) >= 2
        for T in transfers:
            assert (T.fine_size, T.coarse_size) == T.matrix.shape
            x = rng.standard_normal(T.fine_size)
            np.testing.assert_array_equal(T.restrict(x), T.matrix.conj().T @ x)


    def test_adjoint_is_a_new_conjugate_transpose(self):
        # the bound restriction reads the adjoint's arrays, so they must
        # be P^H's own, never views of P's
        rng = np.random.default_rng(25)
        for P in (assemble_transfer(INTERP, 32, "trimmed").matrix,
                  _random_csr(rng, (30, 11), np.float64),
                  _random_csr(rng, (30, 11), np.complex128)):
            adjoint = GridTransfer(P).adjoint
            want = P.conj().T.tocsr()
            for name in ("data", "indices", "indptr"):
                got = getattr(adjoint, name)
                assert same_bits(got, getattr(want, name)), name
                for source in (P.data, P.indices, P.indptr):
                    assert not np.shares_memory(got, source), name


def _random_csr(rng, shape, dtype, density=0.2):
    dense = rng.standard_normal(shape) * (rng.random(shape) < density)
    if np.dtype(dtype).kind == "c":
        dense = dense * (1.0 + 2.0j)
    return sp.csr_matrix(dense.astype(dtype))


class TestMatvecKernel:
    """The bound ``csr_matvec`` kernel equals ``A @ x`` bit for bit, dtype
    included.  The kernel and its dtype rule are private to scipy, so
    these cases pin them on every scipy the package admits."""

    X_DTYPES = (np.float64, np.complex128, np.float32, np.int64)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("matrix_dtype", [np.float64, np.complex128])
    def test_equals_scipy_product(self, matrix_dtype, index_dtype):
        rng = np.random.default_rng(21)
        A = _random_csr(rng, (40, 40), matrix_dtype)
        A.indices, A.indptr = (a.astype(index_dtype) for a in (A.indices, A.indptr))
        product = matvec_kernel(A)
        for x_dtype in self.X_DTYPES:
            x = (100 * rng.standard_normal(80)).astype(x_dtype)
            if x.dtype.kind == "c":
                x += 1j * rng.standard_normal(80)
            for v in (x[:40], x[::2], x[1::2]):
                assert same_bits(product(v), A @ v), (x_dtype, v.strides)

    def test_rectangular_transfer_and_adjoint(self):
        rng = np.random.default_rng(22)
        for P in (assemble_transfer(INTERP, 32, "trimmed").matrix,
                  _random_csr(rng, (30, 11), np.complex128)):
            T = GridTransfer(P)
            assert T.matrix.shape[0] != T.matrix.shape[1]
            for x_dtype in (np.float64, np.complex128):
                y = rng.standard_normal(T.coarse_size).astype(x_dtype)
                x = rng.standard_normal(2 * T.fine_size).astype(x_dtype)[::2]
                assert same_bits(T.prolong(y), T.matrix @ y)
                assert same_bits(T.restrict(x), T.adjoint @ x)
                assert same_bits(matvec_kernel(T.adjoint)(x), T.adjoint @ x)

    def test_other_formats_are_read_as_csr(self):
        rng = np.random.default_rng(24)
        A = _random_csr(rng, (20, 30), np.complex128)
        x = rng.standard_normal(30)
        for B in (A.tocsc(), A.tocoo(), sp.csr_array(A)):
            assert same_bits(matvec_kernel(B)(x), A @ x)

    def test_wrong_shape_rejected(self):
        product = matvec_kernel(_random_csr(np.random.default_rng(23), (6, 4),
                                            np.float64))
        for x in (np.ones(3), np.ones(6), np.ones((4, 1)), np.ones(())):
            with pytest.raises(ArgumentError, match="product of a 6 x 4 matrix"):
                product(x)


class TestGalerkin:
    def test_scalar_circulant_example(self):
        A = assemble_circulant(LAPLACE, 8)
        P = assemble_transfer(INTERP, 8, "circulant")
        C = galerkin(A, P)
        np.testing.assert_allclose(C.dense()[0].real, [4.0, -2.0, 0.0, -2.0],
                                   atol=1e-12)

    def test_orthonormal_columns_identity(self):
        A = assemble_circulant(IDENTITY2, 4)
        P = assemble_transfer(IDENTITY2, 4, "circulant")
        np.testing.assert_allclose(galerkin(A, P).dense(), np.eye(4), atol=1e-14)

    def test_scalar_toeplitz_coarse(self):
        A = assemble_toeplitz(LAPLACE, 7)
        P = assemble_transfer(INTERP, 8, "trimmed")
        C = galerkin(A, P).dense().real
        want = np.diag([4.0] * 3) + np.diag([-2.0] * 2, 1) + np.diag([-2.0] * 2, -1)
        np.testing.assert_allclose(C, want, atol=1e-12)

    def test_size_mismatch(self, f_q2, p_l2):
        A = assemble_toeplitz(f_q2, 9)
        P = assemble_transfer(p_l2, 8, "trimmed")
        with pytest.raises(ArgumentError):
            galerkin(A, P)

    def test_circulant_symbol_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            f = random_hermitian_symbol(rng, d, 1, shift_to_psd=True)
            p = random_symbol(rng, d, 1)
            for n in (8, 16):
                C = galerkin(assemble_circulant(f, n),
                             assemble_transfer(p, n, "circulant"))
                ref = assemble_circulant(coarse_symbol(f, p), n // 2)
                assert abs(C.matrix - ref.matrix).max() <= 1e-10

    def test_toeplitz_coarse_defect_is_boundary_sized(self):
        # the trimmed path only matches the coarse symbol up to a
        # boundary term; measured, not asserted to vanish
        defect = toeplitz_coarse_defect(LAPLACE, INTERP, 16)
        assert np.isfinite(defect)
        assert 0.0 <= defect < 10.0


class TestCoarseProjectionNorm:
    def test_identity_gives_one(self):
        A = assemble_circulant(IDENTITY2, 8)
        P = assemble_transfer(IDENTITY2, 8, "circulant")
        assert coarse_projection_norm(A, P) == pytest.approx(1.0, abs=1e-6)

    def test_projector_idempotent(self):
        A = assemble_toeplitz(LAPLACE, 15)
        P = assemble_transfer(INTERP, 16, "trimmed")
        assert projector_idempotency_defect(A, P) <= 1e-8

    def test_scalar_norm_stable_across_sizes(self):
        # geometric projector on the scalar Laplacian: bounded and stable
        vals = []
        for n in (15, 31, 63):
            A = assemble_toeplitz(LAPLACE, n)
            P = assemble_transfer(HAT, n + 1, "trimmed")
            vals.append(coarse_projection_norm(A, P))
        assert all(v >= 1.0 for v in vals)
        assert (max(vals) - min(vals)) / max(vals) <= 0.05

    def test_size_cap(self):
        A = assemble_toeplitz(LAPLACE, 2049)
        P = assemble_transfer(INTERP, 2050, "trimmed")
        with pytest.raises(ArgumentError):
            coarse_projection_norm(A, P)



def galerkin_oracle(A, P, hermitian):
    """P^H A P by scipy's public operators, symmetrized when asked."""
    C = (P.adjoint @ A.matrix @ P.matrix).tocsr()
    if hermitian:
        C = ((C + C.conj().T) * 0.5).tocsr()
    return C


def assert_same_csr(got, want):
    """Same shape, and the same indptr, indices and data bits and dtypes
    as ``want`` cut to its nnz; ``got`` holds no room past nnz.

    scipy's product and sum leave room past nnz, uninitialized, and its
    matrix constructor reads that room when it picks the index dtype of
    int64 input, so ``want`` is compared re-wrapped from its entries."""
    nnz = int(want.indptr[-1])
    want = sp.csr_matrix((want.data[:nnz], want.indices[:nnz], want.indptr),
                         shape=want.shape)
    assert got.shape == want.shape
    assert len(got.indices) == len(got.data) == int(got.indptr[-1])
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


def _with_index_dtype(M, index_dtype):
    M = M.copy()
    M.indices, M.indptr = (a.astype(index_dtype) for a in (M.indices, M.indptr))
    return M


def _shuffled(M, rng):
    """M with the entries of every row in a random order."""
    M = M.copy()
    for i in range(M.shape[0]):
        row = slice(M.indptr[i], M.indptr[i + 1])
        order = rng.permutation(row.stop - row.start)
        M.indices[row], M.data[row] = M.indices[row][order], M.data[row][order]
    return M


def _kernel_cases(rng):
    """(A, P) pairs: real and complex, Hermitian and not, Toeplitz with
    trimmed transfers and a circulant pair."""
    f = random_hermitian_symbol(rng, 2, 2, shift_to_psd=True)
    p = random_symbol(rng, 2, 1)
    return {
        "real-hermitian": (assemble_stiffness(3, 16).matrix.matrix,
                           build_fem_transfer(3, 16, "geometric").matrix),
        "real-general": (_random_csr(rng, (31, 31), np.float64),
                         assemble_transfer(INTERP, 32, "trimmed").matrix),
        "complex-hermitian": (trimmed_toeplitz(f, 16).matrix,
                              assemble_transfer(p, 16, "trimmed").matrix),
        "complex-general": (trimmed_toeplitz(random_symbol(rng, 2, 2), 16).matrix,
                            assemble_transfer(p, 16, "trimmed").matrix),
        "circulant": (assemble_circulant(f, 16).matrix,
                      assemble_transfer(p, 16, "circulant").matrix),
        "zero-product": (sp.csr_matrix((31, 31)),
                         assemble_transfer(INTERP, 32, "trimmed").matrix),
    }


class TestCsrKernels:
    """The setup's sparse algebra calls scipy's ``_sparsetools`` kernels
    on CSR arrays; each result equals scipy's public expression bit for
    bit, dtypes included.  The kernels are private to scipy, so these
    cases pin them on every scipy the package admits."""

    @pytest.mark.parametrize("unsorted", [False, True])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", ["real-hermitian", "real-general",
                                      "complex-hermitian", "complex-general",
                                      "circulant", "zero-product"])
    def test_matches_public_scipy(self, case, index_dtype, unsorted):
        rng = np.random.default_rng(41)
        A, P = _kernel_cases(rng)[case]
        A, P = (_with_index_dtype(M, index_dtype) for M in (A, P))
        if unsorted:
            A, P = _shuffled(A, rng), _shuffled(P, rng)
        T = GridTransfer(P)
        assert_same_csr(T.adjoint, P.conj().T.tocsr())

        A = BlockStructuredMatrix(A)
        deviation = A.matrix - A.matrix.conj().T
        got = structured._csr_binop(structured.csr_minus_csr, structured._csr(A.matrix),
                                    structured._csr_adjoint(structured._csr(A.matrix)))
        assert_same_csr(structured._csr_matrix(got), deviation)
        assert np.abs(got[2]).max(initial=0.0) == abs(deviation).max()

        verdict = BlockStructuredMatrix(A.matrix.copy()).is_hermitian()
        assert verdict == (case in ("real-hermitian", "complex-hermitian",
                                    "circulant", "zero-product"))
        want = galerkin_oracle(A, T, verdict)
        # last: the test puts A in canonical form in place
        C = galerkin(A, T)
        assert_same_csr(C.matrix, want)
        assert C.exactly_hermitian == verdict
        if case == "zero-product":
            assert C.matrix.nnz == 0

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_every_1d_chain(self, r, kind):
        for n in (4, 8, 64, 1024):
            A = assemble_stiffness(r, n, "xsq_plus_one").matrix
            assert A.is_hermitian()
            for T in _transfer_chain(r, n, kind, 1, DEFAULT_COARSEST, False):
                assert_same_csr(T.adjoint, T.matrix.conj().T.tocsr())
                want = galerkin_oracle(A, T, True)
                A = galerkin(A, T)
                assert_same_csr(A.matrix, want)

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_2d_factor_chain(self, r, kind):
        for t in range(2, 8):
            chain = _transfer_chain(r, 2 ** t, kind, 2, DEFAULT_COARSEST, False)
            for A in assemble_2d_problem(r, t).factors:
                # each factor records what the test of a copy finds
                copy = BlockStructuredMatrix(A.matrix.copy())
                hermitian = copy.is_hermitian()
                assert A.exactly_hermitian == copy.exactly_hermitian
                for T in chain:
                    want = galerkin_oracle(A, T, hermitian)
                    A = galerkin(A, T)
                    assert_same_csr(A.matrix, want)

    def test_shapes_checked_before_the_kernels(self):
        # the kernels read their inputs unchecked
        rng = np.random.default_rng(43)
        with pytest.raises(DimensionError, match="sum of a 30 x 11"):
            BlockStructuredMatrix(_random_csr(rng, (30, 11), np.float64)).is_hermitian()
        A = BlockStructuredMatrix(_random_csr(rng, (31, 20), np.float64))
        T = assemble_transfer(INTERP, 32, "trimmed")
        with pytest.raises(DimensionError, match="product of a 15 x 20 and a 31 x 15"):
            galerkin(A, T)

    def test_index_dtype_follows_scipy(self):
        from scipy.sparse._sputils import get_index_dtype
        dtypes = (np.int8, np.int16, np.int32, np.int64, np.uint16, np.uint32)
        for a in dtypes:
            for b in dtypes:
                arrays = (np.zeros(3, a), np.zeros(2, b))
                for count in (0, 5, 2 ** 31 - 1, 2 ** 31):
                    idx, cast = structured._index_cast(arrays, count)
                    assert idx == get_index_dtype(arrays, maxval=count), (a, b, count)
                    assert all(c.dtype == idx for c in cast)
        # an int64 input stays int64 at a small count: its values could
        # exceed int32
        big = np.array([0, 2 ** 40])
        assert structured._index_cast((big, np.zeros(2, np.int32)), 3)[0] == np.int64


class TestHermitianScale:
    """The Hermitian test is relative to max |a_ij| with no floor, so the
    verdict, and the Galerkin product up to the scale, do not move when
    A is scaled."""

    SCALES = 10.0 ** np.arange(-13, 7)

    def test_verdict_and_galerkin_do_not_move(self):
        K = assemble_stiffness(2, 16).matrix.matrix
        skewed = (sp.tril(K) + 1.1 * sp.triu(K, 1)).tocsr()
        T = build_fem_transfer(2, 16, "linear")
        for M, hermitian in ((K, True), (skewed, False)):
            exact = (T.matrix.T @ M @ T.matrix).toarray()
            for c in self.SCALES:
                A = BlockStructuredMatrix((c * M).tocsr())
                assert A.is_hermitian() == hermitian, c
                np.testing.assert_allclose(galerkin(A, T).dense() / c, exact,
                                           rtol=1e-12, atol=1e-12 * abs(exact).max())

    def test_zero_matrix_is_hermitian(self):
        assert BlockStructuredMatrix(sp.csr_matrix((5, 5))).is_hermitian()
