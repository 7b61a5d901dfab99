"""The benchmark's workloads and their correctness gates.

Each case makes the public calls of ``blockmg run`` (``cli._solve_one``
for solves, ``cli.run`` for certification) in the same order, with
library functions looked up through their modules at call time so the
traced run's wrappers see every call.  See WORKLOADS.md for why each
workload exists.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from blockmg import conditions, femgen, mgsolve, multilevel
from blockmg.femgen import GEOMETRIC, LINEAR
from blockmg.mgsolve import GAUSS_SEIDEL, RICHARDSON, TGM, VCYCLE

DEFAULT_SEED = 20240101
TOL = 1e-6
MAX_ITER = 100
REFERENCE = Path(__file__).with_name("certify_reference.json")


@dataclass(frozen=True)
class SolveCase:
    """One ``blockmg run`` solve; ``ref_iterations`` is the cycle count
    at DEFAULT_SEED, and other seeds stay within one cycle of it."""

    dim: int
    r: int
    t: int
    coefficient: str
    projector: str
    cycle: str
    smoother: str
    ref_iterations: int

    @property
    def key(self) -> str:
        return f"dim{self.dim}-r{self.r}-t{self.t}"


@dataclass(frozen=True)
class CertifyCase:
    """One ``blockmg run`` certification (mode = certify)."""

    dim: int
    r: int
    projector: str

    @property
    def key(self) -> str:
        return f"dim{self.dim}-r{self.r}-{self.projector}"


@dataclass
class CaseResult:
    key: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    compute_s: float = 0.0
    iterations: int = 0
    error: str = ""
    deviation: float = 0.0


WORKLOADS = {
    "solve-1d": [SolveCase(1, 2, t, "xsq_plus_one", LINEAR, VCYCLE,
                           GAUSS_SEIDEL, 8) for t in range(10, 15)],
    "solve-2d": [SolveCase(2, 2, 7, "one", LINEAR, VCYCLE, GAUSS_SEIDEL, 6),
                 SolveCase(2, 3, 6, "one", LINEAR, VCYCLE, GAUSS_SEIDEL, 7)],
    "tgm-geometric": [SolveCase(1, 3, t, "exp_minus_2x", GEOMETRIC, TGM,
                                RICHARDSON, ref)
                      for t, ref in ((10, 28), (11, 28), (12, 29))],
    "certify": [CertifyCase(1, r, proj) for r in (2, 4)
                for proj in (LINEAR, GEOMETRIC)] + [CertifyCase(2, 2, LINEAR)],
}


def run_solve(case: SolveCase, seed: int) -> CaseResult:
    out = CaseResult(case.key)
    start = perf_counter()
    if case.dim == 1:
        problem = femgen.assemble_stiffness(case.r, 2 ** case.t, case.coefficient)
        build = femgen.build_fem_hierarchy
    else:
        problem = multilevel.assemble_2d_problem(case.r, case.t)
        build = multilevel.build_2d_hierarchy
    matrix = problem.matrix
    omega = (mgsolve.richardson_omega_default(matrix)
             if case.smoother == RICHARDSON else None)
    spec = mgsolve.SmootherSpec(kind=case.smoother, omega=omega)
    hierarchy = build(problem, case.projector, spec, two_level=case.cycle == TGM)
    setup_end = perf_counter()
    rng = np.random.default_rng([seed, case.t])
    b = matrix.matrix @ rng.uniform(size=matrix.size)
    solve_start = perf_counter()
    result = mgsolve.solve(hierarchy, b, tol=TOL, max_iter=MAX_ITER,
                           cycle=case.cycle)
    end = perf_counter()
    out.wall_s = end - start
    out.setup_s = setup_end - start
    out.compute_s = end - solve_start
    out.iterations = result.iterations

    residual = float(np.linalg.norm(b - matrix.matrix @ result.x)
                     / np.linalg.norm(b))
    allowed = 0 if seed == DEFAULT_SEED else 1
    if not result.converged or residual > TOL:
        out.error = f"relative residual {residual:.3e} above {TOL:g}"
    elif abs(result.iterations - case.ref_iterations) > allowed:
        out.error = (f"{result.iterations} iterations, reference "
                     f"{case.ref_iterations} (allowed difference {allowed})")
    return out


def certify_report(case: CertifyCase):
    """Symbol construction then the report, exactly as ``cli.run``."""
    f = femgen.stiffness_symbol(case.r)
    builder = (femgen.build_linear_interp_symbol if case.projector == LINEAR
               else femgen.build_geometric_symbol)
    p = builder(case.r)
    if case.dim == 1:
        setup_end = perf_counter()
        return conditions.full_report(p, f), setup_end
    f2d = multilevel.tensor_sum_symbol(f, femgen.mass_symbol(case.r))
    setup_end = perf_counter()
    return multilevel.check_multilevel_conditions([p, p], f2d, fs=[f, f]), setup_end


def run_certify(case: CertifyCase):
    out = CaseResult(case.key)
    start = perf_counter()
    report, setup_end = certify_report(case)
    end = perf_counter()
    out.wall_s = end - start
    out.setup_s = setup_end - start
    out.compute_s = end - setup_end
    return out, report


def gate_certify(out: CaseResult, report, reference: dict) -> None:
    """Compare every verdict with the reference captured at the seed
    commit and record the largest deviation of the numeric evidence."""
    got = report.to_dict()
    want = reference[out.key]
    got_v, want_v = _verdicts(got), _verdicts(want)
    mismatched = sorted(path for path in got_v.keys() | want_v.keys()
                        if got_v.get(path) != want_v.get(path))
    if mismatched:
        out.error = f"verdicts differ from the reference at {mismatched[:5]}"
    out.deviation = _max_deviation(got, want)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


VERDICT_KEYS = ("passed", "tgm_certified", "vcycle_certified", "passed_factorwise")


def _verdicts(tree, path="") -> dict:
    """Every verdict in a report dict, keyed by its path."""
    out = {}
    if isinstance(tree, dict):
        for k, v in tree.items():
            if k in VERDICT_KEYS and isinstance(v, bool):
                out[f"{path}/{k}"] = v
            else:
                out.update(_verdicts(v, f"{path}/{k}"))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            out.update(_verdicts(v, f"{path}/{i}"))
    return out


def _max_deviation(got, want) -> float:
    """Largest |got - want| / max(|want|, 1) over numbers both reports
    hold at the same place: relative for values of size at least one,
    absolute below, so round-off on near-zero evidence stays small."""
    if isinstance(got, dict) and isinstance(want, dict):
        return max((_max_deviation(got[k], want[k]) for k in got.keys() & want.keys()),
                   default=0.0)
    if isinstance(got, list) and isinstance(want, list):
        return max((_max_deviation(a, b) for a, b in zip(got, want)), default=0.0)
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        if got == want:
            return 0.0
        return abs(got - want) / max(abs(want), 1.0)
    return 0.0


def run_pass(name: str, seed: int, reference: dict, tracer=None,
             cases=None, probe=None) -> list:
    """One sample: every case of the workload (or the first ``cases``),
    back to back, each after a call of ``probe`` (the host-speed probe,
    outside the timings).  The certification gate runs with ``tracer``
    paused, outside the timings."""
    results = []
    for case in WORKLOADS[name][:cases]:
        if probe is not None:
            probe()
        try:
            if isinstance(case, SolveCase):
                out = run_solve(case, seed)
            else:
                out, report = run_certify(case)
                with tracer.pause() if tracer else nullcontext():
                    gate_certify(out, report, reference)
        except Exception as exc:  # a failing case is counted, not fatal
            out = CaseResult(case.key, error=f"{type(exc).__name__}: {exc}")
        results.append(out)
    return results
