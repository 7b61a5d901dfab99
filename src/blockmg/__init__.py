"""Symbol-based multigrid for block-Toeplitz and block-circulant linear
systems, with numerical verification of the two-grid and V-cycle
convergence conditions and degree-r Lagrangian FEM generators."""

from .errors import (ArgumentError, BlockmgError, ConfigurationError,
                     ConstructionError, DimensionError, NumericalError,
                     SingularMatrixError, SymbolZeroError, TrackingError)
from .symbol import (MatrixTrigPolynomial, SymbolZero, coarse_symbol,
                     corner_sum, corner_sum_symbol, corner_sums, find_zero,
                     read_symbol, symbol_sup_norm, tensor_symbol, theta_grid,
                     tracked_eigenpairs, write_symbol)
from .structured import (BlockStructuredMatrix, GridTransfer,
                         assemble_circulant, assemble_toeplitz,
                         assemble_transfer, coarse_projection_norm,
                         galerkin)
from .mgsolve import (MultigridHierarchy, SmootherSpec, SolveResult, prepare,
                      richardson_omega_default, smooth, solve, tgm_step,
                      vcycle_step)
from .conditions import (CheckResult, ConditionReport, ZeroSamples, build_s,
                         build_s_grid, check_condition_i, check_condition_ii,
                         check_condition_iii, check_fhat_properties,
                         check_vcycle_bound, full_report)
from .femgen import (FemProblem, assemble_mass, assemble_stiffness,
                     build_fem_hierarchy, build_fem_transfer,
                     build_geometric_symbol, build_linear_interp_symbol,
                     mass_symbol, stiffness_symbol)
from .multilevel import (assemble_2d_problem, build_2d_hierarchy,
                         check_multilevel_conditions, tensor_sum_symbol)

__version__ = "0.1.0"
