"""Which blockmg callables the traced run wraps, and the per-layer
metrics derived from the recorded spans.

Every public function of the seven library modules is wrapped, plus the
class methods that carry per-layer work (symbol evaluation, the
``hermitian`` property, grid transfers, hierarchy construction) and
``scipy.sparse.linalg.splu`` as seen from ``mgsolve``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types

from tracer import leftover_wrappers

MODULES = ("femgen", "structured", "mgsolve", "multilevel", "conditions",
           "symbol", "smallmat")

SYMBOL_BUILDERS = ("femgen.stiffness_symbol", "femgen.mass_symbol",
                   "femgen.build_linear_interp_symbol",
                   "femgen.build_geometric_symbol")

TRACED_LEVELS = (0, 1, 2)

# name -> unit, in the order the benchmark reports them
METRICS = {
    "femgen.assemble_stiffness.s": "s",
    "femgen.assemble_mass.s": "s",
    "femgen.build_fem_transfer.s": "s",
    "femgen.lagrange_eval.calls": "count",
    "femgen.build_fem_hierarchy.self_s": "s",
    "femgen.symbol_builders.s": "s",
    "structured.galerkin.s": "s",
    "structured.galerkin.calls": "count",
    "structured.restrict.s": "s",
    "structured.restrict.calls": "count",
    "structured.prolong.s": "s",
    "mgsolve.solve.s": "s",
    "mgsolve.iterations": "count",
    "mgsolve.vcycle_step.self_s": "s",
    "mgsolve.smooth.s": "s",
    "mgsolve.smooth.calls": "count",
    "mgsolve.splu.s": "s",
    "mgsolve.splu.calls": "count",
    "mgsolve.coarse_solve.s": "s",
    "mgsolve.hierarchy_init.s": "s",
    **{f"mgsolve.L{lv}.{phase}_s": "s" for lv in TRACED_LEVELS
       for phase in ("smooth", "restrict", "prolong")},
    "multilevel.assemble_2d_problem.self_s": "s",
    "multilevel.build_2d_hierarchy.self_s": "s",
    "multilevel.check_multilevel_conditions.self_s": "s",
    "conditions.check_condition_i.s": "s",
    "conditions.check_condition_ii.s": "s",
    "conditions.check_condition_iii.s": "s",
    "conditions.check_vcycle_bound.s": "s",
    "conditions.check_fhat_properties.s": "s",
    "conditions.build_s.calls": "count",
    "conditions.dyadic_limit.calls": "count",
    "conditions.shifted_branch_eigenvalue.calls": "count",
    "conditions.shifted_branch_eigenvalue.s": "s",
    "symbol.find_zero.s": "s",
    "symbol.evaluate.calls": "count",
    "symbol.evaluate.s": "s",
    "symbol.evaluate_grid.calls": "count",
    "symbol.hermitian.calls": "count",
    "symbol.hermitian.s": "s",
    "symbol.hermitian.per_instance": "calls/instance",
    "symbol.corner_sum.calls": "count",
    "symbol.tracked_eigenpair.calls": "count",
    "symbol.coarse_symbol.s": "s",
    "smallmat.solve.calls": "count",
    "smallmat.det.calls": "count",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
}


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _vcycle_namer(args, kwargs):
    h, level = args[0], (args[1] if len(args) > 1 else kwargs["level"])
    if h.levels[level].transfer is None:
        return "mgsolve.coarse_solve", None
    return f"mgsolve.vcycle_step.L{level}", level


def namespaces(extra=()):
    """Every namespace a blockmg caller can look a name up in."""
    mods = [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == "blockmg" or name.startswith("blockmg."))]
    return mods + list(extra)


def install(tracer, extra=()):
    """Wrap the library where its callers look names up.

    ``extra`` holds further namespaces (the benchmark's own modules)
    whose references to library functions must be wrapped too.
    """
    spaces = namespaces(extra)
    for short in MODULES:
        mod = importlib.import_module(f"blockmg.{short}")
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            namer = _vcycle_namer if name == "mgsolve.vcycle_step" else None
            wrapper = tracer.wrap(fn, name, namer=namer)
            for ns in spaces:
                for ns_attr, value in list(vars(ns).items()):
                    if value is fn:
                        tracer.patch(ns, ns_attr, wrapper)

    symbol = sys.modules["blockmg.symbol"]
    structured = sys.modules["blockmg.structured"]
    mgsolve = sys.modules["blockmg.mgsolve"]
    poly = symbol.MatrixTrigPolynomial
    for attr in ("evaluate", "evaluate_grid"):
        tracer.patch(poly, attr, tracer.wrap(vars(poly)[attr], f"symbol.{attr}"))
    hermitian = vars(poly)["hermitian"]
    tracer.patch(poly, "hermitian", property(
        tracer.wrap(hermitian.fget, "symbol.hermitian", track_instances=True),
        doc=hermitian.__doc__))
    for attr in ("restrict", "prolong"):
        tracer.patch(structured.GridTransfer, attr, tracer.wrap(
            vars(structured.GridTransfer)[attr], f"structured.{attr}"))
    tracer.patch(mgsolve.MultigridHierarchy, "__init__", tracer.wrap(
        vars(mgsolve.MultigridHierarchy)["__init__"], "mgsolve.hierarchy_init"))
    spla = mgsolve.spla
    tracer.patch(mgsolve, "spla", _ModuleProxy(
        spla, splu=tracer.wrap(spla.splu, "mgsolve.splu")))


def uninstall(tracer, extra=()):
    """Restore every patched attribute; return what is still wrong."""
    patched = tracer.patched()
    tracer.restore()
    problems = [f"{getattr(owner, '__name__', owner)}.{attr} not restored"
                for owner, attr, original in patched
                if (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr)) is not original]
    symbol = sys.modules["blockmg.symbol"]
    structured = sys.modules["blockmg.structured"]
    mgsolve = sys.modules["blockmg.mgsolve"]
    classes = [symbol.MatrixTrigPolynomial, structured.GridTransfer,
               mgsolve.MultigridHierarchy]
    problems += [f"{name} still wrapped"
                 for name in leftover_wrappers(namespaces(extra) + classes)]
    if isinstance(mgsolve.spla, _ModuleProxy):
        problems.append("blockmg.mgsolve.spla still proxied")
    return problems


def layer_metrics(tracer, wall_s, iterations):
    """Per-layer metrics of one traced pass (``trace.overhead_frac`` is
    filled in by the caller, which times untraced passes too)."""
    agg = tracer.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for metric in METRICS:
        base, _, key = metric.rpartition(".")
        if key in ("s", "calls", "self_s"):
            out[metric] = float(get(base, key))
    out["femgen.symbol_builders.s"] = tracer.group_seconds(SYMBOL_BUILDERS)
    out["mgsolve.iterations"] = float(iterations)
    out["mgsolve.vcycle_step.self_s"] = sum(
        entry["self_s"] for name, entry in agg.items()
        if name.startswith("mgsolve.vcycle_step.L"))
    for phase, span in (("smooth", "mgsolve.smooth"),
                        ("restrict", "structured.restrict"),
                        ("prolong", "structured.prolong")):
        per_level = tracer.by_level(span)
        for level in TRACED_LEVELS:
            out[f"mgsolve.L{level}.{phase}_s"] = per_level.get(level, 0.0)
    instances = len(tracer.instances.get("symbol.hermitian", ()))
    out["symbol.hermitian.per_instance"] = (
        get("symbol.hermitian", "calls") / instances if instances else 0.0)
    out["trace.coverage"] = tracer.self_total() / wall_s if wall_s > 0 else 0.0
    return out

