"""Two-dimensional extension: the tensor-factorization shortcuts of the
corner-set conditions, the bivariate symbol of the 2D tensor operator,
and 2D tensor FEM problems assembled as
stiffness (x) mass + mass (x) stiffness, with their hierarchies.

A 2D hierarchy uses the paper's tensor product argument.  With the same
1D prolongation P on both axes,

    (P (x) P)^H (K (x) M + M (x) K) (P (x) P) = K_c (x) M_c + M_c (x) K_c,

where K_c = P^H K P and M_c = P^H M P, so every level, the finest
included, is one Kronecker sum (:func:`kron_sum`) of the 1D pair that
the 1D Galerkin chain (:func:`~blockmg.structured.galerkin`) gives at
that level; no 2D triple product is formed, and each sum records
``exactly_hermitian`` from its recorded pair.  A 2D problem is a
:class:`~blockmg.femgen.FemProblem` like a 1D one that also carries its
1D pair, and builds no symbol; certification builds the symbols it
checks itself.  Every matrix comes from 1D factors by Kronecker
products, none from a symbol.

Every level and every transfer P (x) P is built straight into CSR order
by one builder, :func:`_kron_csr`: no COO matrix, no sort.  It copies
whole rows into place with scipy's CSR kernel ``csr_row_index``
(``scipy.sparse._sparsetools``), the one that row indexing ``A[rows]``
runs.  That entry point is private, like the ``csr_matvec`` and
``gstrs`` calls of :mod:`~blockmg.mgsolve`.

:func:`~blockmg.conditions.full_report` certifies a pair in any number
of variables.  :func:`check_multilevel_conditions` certifies the tensor
projector of two univariate factors without locating the zero of the
bivariate symbol: the zero and its eigenvector are the tensor products
of the factors' zeros, condition (iii) is judged by the code
``full_report`` runs (:func:`~blockmg.conditions.condition_iii_verdict`
on one :class:`~blockmg.conditions.ZeroSamples` of the tensor pair),
and what it adds are the checks that the tensor structure factors.  Its
report is a :class:`~blockmg.conditions.Report` like ``full_report``'s,
written by the same rule, with each factor's report nested in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .conditions import (CheckResult, Report, ZeroSamples, _error_result, _run_check,
                         build_s_grid, check_condition_i, condition_iii_verdict,
                         full_report)
from .errors import ArgumentError, BlockmgError, ConstructionError, DimensionError
from .femgen import (FemProblem, _check_degree, _transfer_chain, assemble_mass,
                     assemble_stiffness)
from .mgsolve import DEFAULT_COARSEST, MultigridHierarchy, SmootherSpec
from .structured import BlockStructuredMatrix, GridTransfer, galerkin
from .symbol import MatrixTrigPolynomial, corner_sums, tensor_symbol


def tensor_sum_symbol(f: MatrixTrigPolynomial, h: MatrixTrigPolynomial) -> MatrixTrigPolynomial:
    """Bivariate symbol f (x) h + h (x) f of the 2D tensor operator.

    Every coefficient pair (j1, j2) of the union of the factors' indices
    comes from one broadcast product over the stacked coefficients, with
    the elementwise products ``np.kron`` forms; an index a factor lacks
    contributes a zero coefficient."""
    if f.m != 1 or h.m != 1:
        raise ArgumentError("tensor_sum_symbol expects univariate factors")
    if f.d != h.d:
        # kron(f, h) and kron(h, f) index their dofs in different orders
        raise DimensionError(f"tensor_sum_symbol needs factors of one block order, "
                             f"got d = {f.d} and {h.d}")
    # set order, which fixes the coefficient order of the symbol
    keys1 = set(j for (j,) in f.coeffs) | set(j for (j,) in h.coeffs)
    zero_f = np.zeros((f.d, f.d), dtype=complex)
    zero_h = np.zeros((h.d, h.d), dtype=complex)
    F = np.array([f.coeffs.get((j,), zero_f) for j in keys1])
    H = np.array([h.coeffs.get((j,), zero_h) for j in keys1])

    def kron_pairs(A, B):
        # kron(A[j1], B[j2]) for every pair: (n, n, a b, a b)
        n, a, b = len(A), A.shape[1], B.shape[1]
        return (A[:, None, :, None, :, None] * B[None, :, None, :, None, :]).reshape(
            n, n, a * b, a * b)

    c = kron_pairs(F, H) + kron_pairs(H, F)
    return MatrixTrigPolynomial(
        {(j1, j2): c[a, b] for a, j1 in enumerate(keys1) for b, j2 in enumerate(keys1)},
        m=2)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products x_a y_b in (a, b) order, the values of
    ``np.multiply.outer`` bit for bit.  Real products come from
    ``einsum``, about twice as fast here; complex ones from the ufunc,
    since numpy's complex multiply rounds otherwise than einsum's."""
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        return np.multiply.outer(x, y)
    return np.einsum("a,b->ab", x, y)


def _kron_csr(A: sp.csr_matrix, B: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix with the pattern of kron(A, B), sorted indices, and
    the values ``data`` in (a, b) order: entry a of A against entry b of
    B.  A and B are CSR with sorted indices.

    The (a, b)-ordered values and columns are the rows (a, k) of an
    intermediate CSR matrix, entry a against row k of B.  Output row
    (i, k) is its rows (a, k) for a in row i of A, a ascending, so one
    row gather in the order (i, k, a) copies every entry into place: no
    COO matrix, no sort."""
    p, q = A.shape
    s, t = B.shape
    nnz_a, nnz_b = A.nnz, B.nnz
    # the intermediate matrix has nnz_a s rows and nnz_a nnz_b entries
    fits = max(p * s, q * t, nnz_a * max(nnz_b, s)) <= np.iinfo(np.int32).max
    index = np.int32 if fits else np.int64
    len_a, len_b = np.diff(A.indptr).astype(index), np.diff(B.indptr).astype(index)
    a, k = np.arange(nnz_a, dtype=index), np.arange(s, dtype=index)
    cols = np.add.outer(A.indices.astype(index) * t, B.indices.astype(index))
    mid_ptr = np.empty(nnz_a * s + 1, dtype=index)
    mid_ptr[:-1] = np.add.outer(a * nnz_b, B.indptr[:-1].astype(index)).ravel()
    mid_ptr[-1] = nnz_a * nnz_b
    # row i of A gathers s len_i rows, in (k, a) order, from position s ptr_i
    first = np.repeat(A.indptr[:-1].astype(index) * (s - 1), len_a) + a
    pos = first[:, None] + np.repeat(len_a, len_a)[:, None] * k
    order = np.empty(nnz_a * s, dtype=index)
    order[pos.ravel()] = np.add.outer(a * s, k).ravel()
    indptr = np.zeros(p * s + 1, dtype=index)
    np.cumsum(np.multiply.outer(len_a, len_b).ravel(), out=indptr[1:])
    indices = np.empty(nnz_a * nnz_b, dtype=index)
    values = np.empty(nnz_a * nnz_b, dtype=data.dtype)
    _sparsetools.csr_row_index(nnz_a * s, order, mid_ptr, cols.ravel(), data.ravel(),
                               indices, values)
    out = sp.csr_matrix((values, indices, indptr), shape=(p * s, q * t))
    out.has_sorted_indices = True
    return out


def kron_sum(K: BlockStructuredMatrix, M: BlockStructuredMatrix) -> BlockStructuredMatrix:
    """K (x) M + M (x) K of two square matrices with one sparsity
    pattern.

    Both Kronecker products then have the same coordinates, so their
    values are added in (a, b) order and the sum is built straight into
    CSR order by :func:`_kron_csr`.  Matrices with different patterns
    raise :class:`ConstructionError`.

    The sum records ``exactly_hermitian`` when both factors do: the
    entry a of K against b of M has its mirror in the conjugates of
    both, conj(k) conj(m) + conj(m') conj(k') = conj(k m + m' k'),
    exactly, in floating point as in exact arithmetic.
    """
    A, B = (C.matrix if C.matrix.has_sorted_indices else C.matrix.sorted_indices()
            for C in (K, M))
    if (A.shape != B.shape or not np.array_equal(A.indptr, B.indptr)
            or not np.array_equal(A.indices, B.indices)):
        raise ConstructionError("Kronecker sum needs two matrices with one sparsity pattern")
    # two single products, added: one fused kernel could round differently
    data = _outer(A.data, B.data)
    data += _outer(B.data, A.data)
    out = BlockStructuredMatrix(_kron_csr(A, B, data))
    out.exactly_hermitian = K.exactly_hermitian and M.exactly_hermitian
    return out


def assemble_2d_problem(r: int, t: int) -> FemProblem:
    """Assemble the desk-scale 2D problem of size (r 2^t - 1)^2: the
    operator stiffness (x) mass + mass (x) stiffness in the natural
    Kronecker dof ordering, block order r^2, with the 1D pair as its
    ``factors``."""
    _check_degree(r)
    if r > 3:
        raise ArgumentError(f"2D problems capped at degree 3, got {r}")
    if t > 7:
        raise ArgumentError(f"2D problems capped at t = 7, got {t}")
    n = 2 ** t
    K = assemble_stiffness(r, n).matrix
    M = assemble_mass(r, n)
    return FemProblem(r=r, n_elements=n, matrix=kron_sum(K, M), factors=(K, M))


def build_2d_hierarchy(problem: FemProblem, kind: str,
                       smoother: SmootherSpec | None = None,
                       coarsest_max_size: int = DEFAULT_COARSEST,
                       two_level: bool = False) -> MultigridHierarchy:
    """Galerkin hierarchy with per-level transfers kron(P_1d, P_1d).

    Each coarse level is the Kronecker sum K_c (x) M_c + M_c (x) K_c of
    the 1D Galerkin products K_c = P^H K P and M_c = P^H M P of the
    problem's ``factors``, which equals the triple product of the finer
    2D level with kron(P, P) (see the module docstring).  Each transfer
    kron(P, P) is built straight into CSR order, with no explicit zero
    (:func:`_kron_csr`)."""
    if problem.factors is None:
        raise ArgumentError("a 2D hierarchy needs the 1D factors of a 2D problem")
    chain = _transfer_chain(problem.r, problem.n_elements, kind, 2,
                            coarsest_max_size, two_level)
    K, M = problem.factors
    mats = [problem.matrix]
    for T in chain:
        K, M = galerkin(K, T), galerkin(M, T)
        mats.append(kron_sum(K, M))
    transfers = [GridTransfer(_kron_csr(P, P, _outer(P.data, P.data)))
                 for P in (T.matrix for T in chain)]
    return MultigridHierarchy(mats, transfers, smoother or SmootherSpec())


# -- multilevel condition verification --------------------------------------


@dataclass
class MultilevelConditionReport(Report):
    """2D condition checks of a tensor projector next to their
    tensor-factorization shortcuts.

    The V-cycle aggregate applies the one-dimensional bound factor-wise
    and is labeled heuristic: no multilevel analogue of that bound is
    available, so the verdict is indicative rather than certified.
    """

    theta0: list
    condition_i: CheckResult
    fixed_point: CheckResult
    condition_iii_directional: CheckResult
    corner_factorization: CheckResult
    s_factorization: CheckResult
    tensor_eigenvector: CheckResult
    factor_reports: list
    tgm_certified: bool
    vcycle_heuristic: dict


def _kron_stack(A, B) -> np.ndarray:
    """np.kron of matching matrices of two stacks, shape (n, ab, ab)."""
    n = len(A)
    return np.einsum("nij,nkl->nikjl", A, B).reshape(
        n, A.shape[1] * B.shape[1], A.shape[2] * B.shape[2])


def check_multilevel_conditions(ps, f2d: MatrixTrigPolynomial,
                                fs) -> MultilevelConditionReport:
    """Verify the multilevel conditions for the tensor projector of the
    univariate factors ``ps`` against the bivariate symbol ``f2d``.

    ``fs`` supplies the univariate problem symbols (one per dimension);
    each distinct factor pair (by identity) is run through
    :func:`~blockmg.conditions.full_report` once.  The zero of ``f2d``
    and its eigenvector are the tensor products of the factors' zeros,
    so ``f2d`` is never searched for its zero; the fixed point reports
    how far that eigenvector is from the kernel of ``f2d``.  The
    condition (iii) verdict is
    :func:`~blockmg.conditions.condition_iii_verdict`, without the
    shifted-branch surrogate that ``full_report`` adds as evidence.
    """
    ps = list(ps)
    if len(ps) != 2:
        raise ArgumentError("the end-to-end multilevel checker supports m = 2")
    fs = list(fs)
    if len(fs) != len(ps):
        raise ArgumentError("one univariate problem symbol per dimension required")

    reports = {}
    for p, f in zip(ps, fs):
        if (id(p), id(f)) not in reports:
            reports[id(p), id(f)] = full_report(p, f)
    factor_reports = [reports[id(p), id(f)] for p, f in zip(ps, fs)]
    zeros = [r.zero for r in factor_reports]
    theta0 = np.array([z.theta0[0] for z in zeros])
    q = np.kron(zeros[0].q_jbar, zeros[1].q_jbar)
    q /= np.linalg.norm(q)
    p2d = tensor_symbol(ps)
    samples = ZeroSamples(p2d, f2d, theta0, q)

    cond_i = check_condition_i(p2d)

    kernel_defect = float(np.linalg.norm(f2d.evaluate(theta0) @ q))
    try:
        fp_defect = samples.fixed_point_defect
        fixed_point = CheckResult(fp_defect <= 1e-9,
                                  {"defect": fp_defect,
                                   "f2d_kernel_defect": kernel_defect})
    except BlockmgError as exc:
        fixed_point = _error_result(exc)

    directional = _run_check(condition_iii_verdict, samples)

    ts = np.random.default_rng(20240101).uniform(0.0, 2.0 * np.pi, size=(100, 2))
    factored = _kron_stack(corner_sums(ps[0], ts[:, :1]), corner_sums(ps[1], ts[:, 1:]))
    corner_worst = float(np.max(np.abs(corner_sums(p2d, ts) - factored)))
    try:
        s_direct = build_s_grid(p2d, ts)
        s_fact = _kron_stack(build_s_grid(ps[0], ts[:, :1]),
                             build_s_grid(ps[1], ts[:, 1:]))
        s_worst = float(np.max(np.abs(s_direct - s_fact)))
        s_errors = []
    except BlockmgError as exc:
        s_worst = float("nan")
        s_errors = [str(exc)]
    cscale = samples.pscale ** 2
    corner_fact = CheckResult(corner_worst <= 1e-10 * cscale,
                              {"max_abs_difference": corner_worst, "scale": cscale})
    s_fact_res = CheckResult(not s_errors and s_worst <= 1e-10,
                             {"max_abs_difference": s_worst,
                              "errors": s_errors})

    # each factor's fixed-point defect is its own condition (ii) defect
    factor_ii = [r.condition_ii.evidence for r in factor_reports]
    errors = [e["error"] for e in factor_ii if "error" in e]
    if errors:
        tensor_eig = CheckResult(False, {"error": errors[0]})
    else:
        factor_defects = [e["defect"] for e in factor_ii]
        tensor_eig = CheckResult(
            fixed_point.passed and max(factor_defects) <= 1e-9,
            {"factor_defects": factor_defects,
             "tensor_defect": fixed_point.evidence.get("defect")})

    tgm = (cond_i.passed and fixed_point.passed and directional.passed
           and all(r.tgm_certified for r in factor_reports))
    vcycle = {
        "label": "heuristic",
        "passed_factorwise": all(r.vcycle_bound.passed for r in factor_reports),
        "note": "one-dimensional V-cycle bound applied factor-wise; "
                "no multilevel analogue is certified",
    }
    return MultilevelConditionReport(
        theta0=[float(v) for v in theta0], condition_i=cond_i,
        fixed_point=fixed_point, condition_iii_directional=directional,
        corner_factorization=corner_fact, s_factorization=s_fact_res,
        tensor_eigenvector=tensor_eig, factor_reports=factor_reports,
        tgm_certified=tgm, vcycle_heuristic=vcycle)
