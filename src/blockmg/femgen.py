"""Degree-r Lagrangian finite elements on the unit interval: stiffness
and mass assembly, the two prolongation families (the scalar linear
interpolation stencil and coarse-basis evaluation), the Galerkin
hierarchy of a FEM problem, and the block symbols of all four matrices.

There is one assembly view: the solve-path matrices of size r*n - 1,
both Dirichlet ends removed, normalized by the element count.  Away from
the ends they are block-Toeplitz (stiffness, mass) or block-Toeplitz
times the cutting selector (prolongations), and each generating or
projector symbol is the interior block column of such a matrix.  The
symbols are built from the tables assembly itself sums or tiles (two
neighbouring element matrices, or the coarse-element table of a
prolongation), so they equal that block column bit for bit without a
matrix being assembled, and then they are checked against their known
identities.  A solve-view problem, 1D here or 2D in
:mod:`blockmg.multilevel`, is one :class:`FemProblem`; building it
builds no symbol.

The mesh is uniform, so one table of the degree-r Lagrange basis on the
reference element [0, 1] (:func:`_reference_basis`) serves every
element: stiffness and mass tabulate it at the quadrature points, and
every element matrix comes from one product of the quadrature weights
with the pairwise basis products (:func:`_element_matrices`).  Both
prolongations are built the same way: one (2r, r+1) reference table per
kind (for the geometric kind, the basis at the fine knots s/(2r)), the
weight of each coarse knot of a coarse element at each of its fine
knots.  Its nonzeros, in row-major order and tiled over the coarse
elements, are the CSR arrays of the prolongation; only the entries of
the two Dirichlet coarse knots are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .errors import ArgumentError, ConstructionError
from .mgsolve import DEFAULT_COARSEST, MultigridHierarchy, SmootherSpec
from .structured import BlockStructuredMatrix, GridTransfer, galerkin
from .symbol import MatrixTrigPolynomial

COEFFICIENTS = {
    "one": lambda x: np.ones_like(x),
    "xsq_plus_one": lambda x: x ** 2 + 1.0,
    "exp_minus_2x": lambda x: np.exp(x) - 2.0 * x,
}

MAX_DEGREE = 8

LINEAR = "linear"
GEOMETRIC = "geometric"


def _reference_basis(r: int, x) -> tuple:
    """Values and derivatives of the degree-r Lagrange basis on [0, 1]
    with nodes l/r, l = 0..r, at the points x: two (r+1, len(x)) arrays,
    row l for the basis function of node l."""
    nodes = np.arange(r + 1) / r
    x = np.asarray(x, dtype=float)
    other = ~np.eye(r + 1, dtype=bool)
    gap = np.where(other, nodes[:, None] - nodes, 1.0)
    # factor[l, k] = (x - x_k) / (x_l - x_k) for k != l, 1 for k = l
    factor = np.where(other[:, :, None], (x - nodes[:, None]) / gap[:, :, None], 1.0)
    values = factor.prod(axis=1)
    # phi_l' = sum over m != l of 1/(x_l - x_m) prod over k != l, m of factor[l, k]
    skip = np.where(np.eye(r + 1, dtype=bool)[:, :, None], 1.0, factor[:, None])
    derivs = np.einsum("lm,lmq->lq", np.where(other, 1.0 / gap, 0.0), skip.prod(axis=2))
    return values, derivs


def _coefficient_function(coefficient):
    if callable(coefficient):
        return coefficient
    try:
        return COEFFICIENTS[coefficient]
    except KeyError:
        raise ArgumentError(
            f"unknown coefficient {coefficient!r}; "
            f"choose one of {sorted(COEFFICIENTS)} or pass a callable") from None


@dataclass
class FemProblem:
    """A diffusion problem assembled with degree-r elements on a uniform
    mesh of ``n_elements`` elements per axis.

    ``matrix`` is the Dirichlet-trimmed, normalized system matrix: the
    stiffness matrix of size r*n_elements - 1 in 1D, or the tensor
    operator K (x) M + M (x) K of size (r*n_elements - 1)^2 in 2D.
    ``factors`` is the 1D pair (K, M) of CSR stiffness and mass matrices
    that the 2D operator is built from, and from which
    :func:`~blockmg.multilevel.build_2d_hierarchy` forms every coarse
    level; it is None in 1D.
    """

    r: int
    n_elements: int
    matrix: BlockStructuredMatrix
    factors: tuple | None = None

    @property
    def size(self) -> int:
        return self.matrix.size


def _is_integer(r) -> bool:
    return isinstance(r, (int, np.integer)) and not isinstance(r, bool)


def _check_degree(r) -> None:
    """The solve-path degree check: an integer r >= 1, with no cap."""
    if not _is_integer(r) or r < 1:
        raise ArgumentError(f"degree must be an integer >= 1, got {r!r}")


def _check_size(r: int, n_elements: int) -> None:
    _check_degree(r)
    if n_elements < 2 or n_elements & (n_elements - 1):
        raise ArgumentError(f"n_elements must be a power of two >= 2, got {n_elements}")


def _element_quadrature(r: int, n: int):
    gx, gw = leggauss(r + 2)
    h = 1.0 / n
    return 0.5 * h * (gx + 1.0), 0.5 * h * gw


def _element_matrices(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The element matrices sum over q of weights[..., q] table[i, q]
    table[j, q] for a (r+1, q) basis table: one matrix product with the
    (r+1)(r+2)/2 products of rows i <= j, mirrored into both triangles,
    so every element matrix is symmetric bit for bit."""
    i, j = np.triu_indices(table.shape[0])
    upper = weights @ (table[i] * table[j]).T
    loc = np.empty(upper.shape[:-1] + (table.shape[0],) * 2)
    loc[..., i, j] = upper
    loc[..., j, i] = upper
    return loc


def _assemble_trimmed(r: int, loc: np.ndarray, scale: float) -> sp.csr_matrix:
    """Sum the (n, r+1, r+1) element matrices ``loc`` into the global
    matrix, drop both Dirichlet ends and multiply by ``scale``."""
    n = loc.shape[0]
    dofs = r * np.arange(n)[:, None] + np.arange(r + 1)
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    ndof = n * r + 1
    A = sp.coo_matrix((loc.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(ndof, ndof)).tocsr()
    return (A[1:-1, 1:-1] * scale).tocsr()


def _stiffness_elements(r: int, n: int, fun) -> np.ndarray:
    """The (n, r+1, r+1) element stiffness matrices of coefficient ``fun``
    on a uniform mesh of n elements, from one batched product."""
    xq_ref, wq = _element_quadrature(r, n)
    xq = np.arange(n)[:, None] / n + xq_ref
    a = np.broadcast_to(np.asarray(fun(xq), dtype=float), xq.shape)
    ok = np.isfinite(a) & (a > 0.0)
    if not np.all(ok):
        raise ArgumentError(
            f"coefficient is not finite and positive at x={xq.flat[np.argmin(ok)]:.6f}")
    # the mesh is uniform: element 0's basis derivatives serve every element
    dphi = _reference_basis(r, xq_ref * n)[1] * n
    return _element_matrices(a * wq, dphi)


def _mass_element(r: int, n: int) -> np.ndarray:
    """The (r+1, r+1) element mass matrix of a uniform mesh of n elements."""
    xq_ref, wq = _element_quadrature(r, n)
    return _element_matrices(wq, _reference_basis(r, xq_ref * n)[0])


def assemble_stiffness(r: int, n_elements: int, coefficient="one") -> FemProblem:
    """Assemble the trimmed, normalized stiffness matrix.

    Element integrals use Gauss-Legendre quadrature with r + 2 points,
    exact for the constant-coefficient integrand.  The coefficient must
    be finite and positive on [0, 1] (checked at the quadrature points);
    a callable may return one value per point or a scalar.
    """
    _check_size(r, n_elements)
    fun = _coefficient_function(coefficient)
    n = n_elements
    K = _assemble_trimmed(r, _stiffness_elements(r, n, fun), 1.0 / n)
    return FemProblem(r=r, n_elements=n, matrix=BlockStructuredMatrix(K))


def assemble_mass(r: int, n_elements: int) -> BlockStructuredMatrix:
    """Trimmed mass matrix scaled by the element count (entries O(1))."""
    _check_size(r, n_elements)
    n = n_elements
    loc = np.broadcast_to(_mass_element(r, n), (n, r + 1, r + 1))
    return BlockStructuredMatrix(_assemble_trimmed(r, loc, n))


# the stiffness and mass symbols take the element matrices of this mesh
# size, so their blocks are those of the matrices assembled at this size
_SYMBOL_ELEMENTS = 8


def _check_symbol_degree(r) -> None:
    if not _is_integer(r) or not 1 <= r <= MAX_DEGREE:
        raise ArgumentError(f"symbol degree must be an integer in 1..{MAX_DEGREE}, got {r!r}")


def _check_band(f: MatrixTrigPolynomial) -> MatrixTrigPolynomial:
    if f.window()[0] > 1:
        raise ConstructionError(
            "band isolation failed: coupling beyond one block detected")
    if not f.hermitian:
        raise ConstructionError("band isolation failed: band is not Hermitian")
    return f


def _band_symbol(left: np.ndarray, right: np.ndarray, scale: float) -> MatrixTrigPolynomial:
    """The symbol c_{-1}, c_0, c_1 of a matrix assembled from element
    matrices and multiplied by ``scale``: its block column k, with
    ``left`` and ``right`` the (r+1, r+1) matrices of elements k and k+1.

    The column holds knots r k + 1 .. r (k+1): the interior knots of
    element k and the vertex it shares with element k+1.  So c_0 is
    left[1:, 1:] plus right[0, 0] at the vertex, the last row of c_{-1}
    is left[0, 1:] (knot r k against element k) and the last column of
    c_1 is right[1:, 0] (element k+1 against the vertex).  The vertex
    entry is the one sum of two element entries, and ``scale`` multiplies
    after the sum, as in the assembly, so each block is the assembled one
    bit for bit.
    """
    r = left.shape[0] - 1
    lower, diag, upper = np.zeros((3, r, r))
    lower[-1] = left[0, 1:]
    diag[:] = left[1:, 1:]
    diag[-1, -1] += right[0, 0]
    upper[:, -1] = right[1:, 0]
    return _check_band(MatrixTrigPolynomial(
        {-1: lower * scale, 0: diag * scale, 1: upper * scale}))


def stiffness_symbol(r: int) -> MatrixTrigPolynomial:
    """The r-by-r generating symbol of the normalized stiffness matrices.

    Built from two neighbouring element matrices of the 8-element
    assembly (:func:`_band_symbol`); verified to kill the all-ones vector
    at zero and to keep the non-minimal eigenvalues bounded away from
    zero.
    """
    _check_symbol_degree(r)
    n = _SYMBOL_ELEMENTS
    loc = _stiffness_elements(r, n, COEFFICIENTS["one"])
    f = _band_symbol(loc[n // 2 - 1], loc[n // 2], 1.0 / n)
    f0 = f.evaluate(0.0)
    if np.linalg.norm(f0 @ np.ones(r)) > 1e-10 * max(np.linalg.norm(f0, 2), 1.0):
        raise ConstructionError("stiffness symbol does not vanish on ones at 0")
    thetas = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    eigs = np.linalg.eigvalsh(f.evaluate_grid(thetas))
    if r >= 2 and np.min(eigs[:, 1:]) <= 1e-8:
        raise ConstructionError("non-minimal eigenvalues are not bounded away from 0")
    return f


def mass_symbol(r: int) -> MatrixTrigPolynomial:
    """The r-by-r generating symbol of the normalized mass matrices, built
    from the element mass matrix of the 8-element assembly."""
    _check_symbol_degree(r)
    loc = _mass_element(r, _SYMBOL_ELEMENTS)
    return _band_symbol(loc, loc, _SYMBOL_ELEMENTS)


def _coarse_element_table(r: int, kind: str) -> np.ndarray:
    """The (2r, r+1) prolongation weights of one coarse element: entry
    (s, l) is the weight of its coarse knot l at its fine knot s."""
    s = np.arange(2 * r)[:, None]
    ell = np.arange(r + 1)
    if kind == LINEAR:
        # the (1,2,1) stencil: fine knot k takes 2 - |k - 2c| of coarse knot c
        return np.clip(2.0 - np.abs(s - 2 * ell), 0.0, None)
    if kind == GEOMETRIC:
        # fine knot s of a coarse element sits at s/(2r) on the reference element
        return _reference_basis(r, np.arange(2 * r) / (2 * r))[0].T
    raise ArgumentError(f"unknown transfer kind {kind!r}")


def _table_symbol(r: int, kind: str) -> MatrixTrigPolynomial:
    """The projector symbol c_j = block (2k+1+j, k) of the prolongation
    tiled from :func:`_coarse_element_table`, for an interior k.

    Block column k holds coarse knots r k + 1 .. r (k+1): knots 1..r of
    coarse element k and knot 0 of element k+1, whose fine knots are
    2 r k + t for t = 0..2r-1 and t = 2r..4r-1.  Block row 2k+1+j holds
    t = r (j+1) + 1 .. r (j+2), so the column strip over t = 1..4r,
    split into r rows at a time, is c_{-1}, .., c_2.  Blocks that are
    zero are left out.
    """
    # a -0.0 of the table is no stored entry of the prolongation: it reads as 0.0
    table = _coarse_element_table(r, kind)
    table = np.where(table == 0.0, 0.0, table)
    strip = np.zeros((4 * r + 1, r))
    strip[:2 * r] = table[:, 1:]
    strip[2 * r:4 * r, -1] = table[:, 0]
    blocks = strip[1:].reshape(4, r, r)
    return MatrixTrigPolynomial({j: c for j, c in zip(range(-1, 3), blocks) if c.any()})


def build_linear_interp_symbol(r: int) -> MatrixTrigPolynomial:
    """Block symbol of the scalar linear-interpolation transfer.

    Built from the coarse-element table of the solve-path (1,2,1)
    prolongation (:func:`_table_symbol`); the row-sum signature of the
    three coefficients (first row 1/2/1, remaining rows 2/2/0 for offsets
    -1/0/+1) is verified as a post-check.
    """
    _check_symbol_degree(r)
    p = _table_symbol(r, LINEAR)
    first = np.eye(1, r)[0]
    for off, want in ((-1, 2.0 - first), (0, np.full(r, 2.0)), (1, first)):
        row_sums = p.coeffs.get((off,), np.zeros((r, r))).sum(axis=1)
        if not np.allclose(row_sums, want, atol=1e-12):
            raise ConstructionError(
                f"linear interpolation coefficient {off} has row sums "
                f"{row_sums}, expected {want}")
    return p


def geometric_det_reference(r: int, theta):
    """Determinant of the coarse-basis projector symbol in closed form,
    at an angle or elementwise over an array of angles."""
    return (np.exp(-1j * r * theta) * (np.exp(1j * theta) + 1.0) ** (r + 1)
            / 2.0 ** (r * (r + 1) / 2.0))


def build_geometric_symbol(r: int) -> MatrixTrigPolynomial:
    """Block symbol of the coarse-basis (finite element) prolongation.

    Built from the coarse-element table of the solve-path prolongation
    (:func:`_table_symbol`), whose entries are evaluations of the coarse
    basis at the fine knots; the coefficients sit at offsets -1..2.
    Construction is cross-checked against the closed-form determinant at
    64 angles and the row-sum identities.
    """
    _check_symbol_degree(r)
    p = _table_symbol(r, GEOMETRIC)
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    got = np.linalg.det(p.evaluate_grid(thetas))
    want = geometric_det_reference(r, thetas)
    bad = np.abs(got - want) > 1e-10 * np.maximum(1.0, np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConstructionError(
            f"determinant mismatch at theta={thetas[i]:.4f}: {got[i]} vs {want[i]}")
    ones = np.ones(r)
    if (np.linalg.norm(p.evaluate(0.0) @ ones - 2.0 * ones) > 1e-10
            or np.linalg.norm(p.evaluate(np.pi) @ ones) > 1e-10):
        raise ConstructionError("coarse-basis symbol fails its row-sum identities")
    return p


def projector_symbol(r: int, kind: str) -> MatrixTrigPolynomial:
    """The projector symbol of a transfer kind (``linear`` or ``geometric``)."""
    if kind == LINEAR:
        return build_linear_interp_symbol(r)
    if kind == GEOMETRIC:
        return build_geometric_symbol(r)
    raise ArgumentError(f"unknown transfer kind {kind!r}")


def _fem_transfer_matrix(r: int, n_elements: int, kind: str) -> sp.csr_matrix:
    """The prolongation matrix of :func:`build_fem_transfer`.

    Coarse element e holds fine knots 2 r e + s, s = 0..2r-1, and coarse
    knots r e + l, l = 0..r.  The mesh is uniform, so one
    :func:`_coarse_element_table` of the weights of coarse knot l at fine
    knot s serves every element.  Fine knot k is row k - 1 and coarse
    knot c column c - 1, and a row's columns r e + l - 1 increase with l,
    so the nonzeros of the table in row-major order, tiled over the
    coarse elements, are already the CSR arrays.  Only the Dirichlet
    coarse knots 0 and r n/2 fall outside: their entries are dropped from
    the first and the last coarse element, which leaves fine knot 0
    (touched by coarse knot 0 alone) empty, and it is no row either.
    """
    _check_degree(r)
    if n_elements % 2 != 0 or n_elements < 4:
        raise ArgumentError(
            f"n_elements must be even and >= 4 to coarsen, got {n_elements}")
    nce = n_elements // 2
    nf = r * n_elements - 1
    nc = r * nce - 1
    table = _coarse_element_table(r, kind)
    s_nz, l_nz = np.nonzero(table)
    first, last = l_nz == 0, l_nz == r
    drop = np.concatenate((np.flatnonzero(first),
                           (nce - 1) * l_nz.size + np.flatnonzero(last)))
    data = np.delete(np.tile(table[s_nz, l_nz], nce), drop)
    indices = np.delete((r * np.arange(nce)[:, None] + l_nz - 1).ravel(), drop)
    counts = np.tile(np.bincount(s_nz, minlength=2 * r), (nce, 1))
    counts[0] -= np.bincount(s_nz[first], minlength=2 * r)
    counts[-1] -= np.bincount(s_nz[last], minlength=2 * r)
    indptr = np.concatenate(([0], np.cumsum(counts.ravel()[1:])))
    return sp.csr_matrix((data, indices, indptr), shape=(nf, nc))


def build_fem_transfer(r: int, n_elements: int, kind: str) -> GridTransfer:
    """Solve-path prolongation at FEM sizes (r*n - 1 by r*n/2 - 1).

    ``linear`` is the scalar (1,2,1) stencil: the tridiagonal matrix of
    2 + 2cos times the even-row selector.  ``geometric`` holds the
    evaluations of the coarse basis functions at the fine knots.  Both
    come from one reference table of a coarse element, tiled over every
    coarse element.
    """
    return GridTransfer(_fem_transfer_matrix(r, n_elements, kind))


def _transfer_chain(r: int, n_elements: int, kind: str, dim: int,
                    coarsest_max_size: int, two_level: bool) -> list:
    """Per-dimension prolongation matrices of a coarsening chain.

    Halves the element count from ``n_elements`` until the coarse size
    (r n - 1)^dim is at most ``coarsest_max_size`` or n < 4; one step
    only for ``two_level``.  The coarse size is known before any
    Galerkin product is formed."""
    chain = []
    n = n_elements
    while True:
        chain.append(_fem_transfer_matrix(r, n, kind))
        n //= 2
        if two_level or (r * n - 1) ** dim <= coarsest_max_size or n < 4:
            return chain


def build_fem_hierarchy(problem: FemProblem, kind: str,
                        smoother: SmootherSpec | None = None,
                        coarsest_max_size: int = DEFAULT_COARSEST,
                        two_level: bool = False) -> MultigridHierarchy:
    """Galerkin hierarchy for a 1D problem: the same constant-coefficient
    transfer family at every level, coarse matrices by triple product."""
    chain = _transfer_chain(problem.r, problem.n_elements, kind, 1,
                            coarsest_max_size, two_level)
    transfers = [GridTransfer(P) for P in chain]
    mats = [problem.matrix]
    hermitian = problem.matrix.is_hermitian()   # once per chain (see galerkin)
    for T in transfers:
        mats.append(galerkin(mats[-1], T, _hermitian=hermitian))
    return MultigridHierarchy(mats, transfers, smoother or SmootherSpec())
