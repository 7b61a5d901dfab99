"""Configuration-driven experiment runner.

``blockmg run <config>`` reproduces the iteration-count experiments and
certification reports from a flat key=value config file, ``blockmg
table`` renders result CSVs as an aligned text table, and ``blockmg
certify`` checks a (problem, projector) symbol pair from exchange files.

A config is checked whole before anything is written: the CLI owns the
rules of ``mode``, ``dim``, ``t_range`` and ``seed``, the 1D size cap and
the constant coefficient in 2D, and every other key goes through the
check of the library function that consumes it.

Exit codes: 0 success, 2 when any solve failed to converge, 3 on
configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .conditions import full_report
from .errors import BlockmgError, ConfigurationError
from .femgen import (LINEAR, _check_degree, _check_symbol_degree, _check_transfer_kind,
                     _coefficient_function, assemble_stiffness, build_fem_hierarchy,
                     mass_symbol, projector_symbol, stiffness_symbol)
from .mgsolve import (DEFAULT_SEED, GAUSS_SEIDEL, TGM, VCYCLE, SmootherSpec,
                      _check_solve_args, solve)
from .multilevel import (_check_2d_size, assemble_2d_problem, build_2d_hierarchy,
                         check_multilevel_conditions, tensor_sum_symbol)
from .symbol import read_symbol

CSV_HEADER = ["t", "N", "cycle", "iterations", "final_residual", "flag"]

MODES = ("solve", "certify", "both")
MAX_T = 30   # a 1D problem of 2^30 elements is beyond any desk machine
# the largest 1D size r 2^t - 1: a solve there peaks near 2 GB for r = 8
MAX_1D_SIZE = 2 ** 22


@dataclass
class ExperimentConfig:
    """Validated experiment description; defaults reproduce the 1D
    degree-2 constant-coefficient V-cycle column."""

    mode: str = "solve"
    dim: int = 1
    r: int = 2
    t_range: tuple = (4, 5, 6, 7, 8, 9, 10)
    coefficient: str = "one"
    projector: str = LINEAR
    cycle: str = VCYCLE
    smoother: str = GAUSS_SEIDEL
    omega: float | None = None
    sweeps_pre: int = 1
    sweeps_post: int = 1
    tol: float = 1e-6
    max_iter: int = 100
    seed: int = DEFAULT_SEED
    output: str = "."

    def _smoother_spec(self) -> SmootherSpec:
        return SmootherSpec(kind=self.smoother, omega=self.omega,
                            sweeps_pre=self.sweeps_pre, sweeps_post=self.sweeps_post)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on the CLI's own rules, or
        with the message of the library check that refuses a key."""
        checks = [
            (self.mode in MODES, f"mode must be one of {MODES}"),
            (self.dim in (1, 2), "dim must be 1 or 2"),
            (len(self.t_range) > 0, "t_range must be nonempty"),
            (len(set(self.t_range)) == len(self.t_range), "t_range must not repeat a value"),
            (all(2 <= t <= MAX_T for t in self.t_range),
             f"every t must be in 2..{MAX_T}"),
            (self.seed >= 0, "seed must be nonnegative"),
            (self.dim != 2 or self.coefficient == "one",
             "2D experiments support only the constant coefficient"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigurationError(message)
        solves = self.mode != "certify"
        try:
            self._smoother_spec()
            _check_solve_args(self.tol, self.max_iter, self.cycle)
            _coefficient_function(self.coefficient)
            _check_transfer_kind(self.projector)
            _check_degree(self.r)
            if self.mode != "solve":
                _check_symbol_degree(self.r)
            if solves and self.dim == 2:
                _check_2d_size(self.r, max(self.t_range))
        except BlockmgError as exc:
            raise ConfigurationError(str(exc)) from exc
        size = self.r * 2 ** max(self.t_range) - 1
        if solves and self.dim == 1 and size > MAX_1D_SIZE:
            raise ConfigurationError(
                f"1D size r * 2^t - 1 = {size} exceeds the cap {MAX_1D_SIZE}")


def _parse_t_range(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        if hi - lo >= MAX_T:    # refused before the range is built
            raise ValueError(f"range {text} spans more than {MAX_T} values")
        return tuple(range(lo, hi + 1))
    return tuple(int(v) for v in text.split(","))


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key=value config file ('#' starts a comment, each key once)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    config = ExperimentConfig()
    valid = {f.name for f in fields(ExperimentConfig)}
    parsers = {
        "dim": int, "r": int, "sweeps_pre": int, "sweeps_post": int,
        "max_iter": int, "seed": int,
        "tol": float, "omega": float, "t_range": _parse_t_range,
    }
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: {key} already given on line {seen[key]}")
        seen[key] = lineno
        try:
            parsed = parsers.get(key, str)(value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}") from exc
        config = replace(config, **{key: parsed})
    config.validate()
    return config


def _solve_one(config: ExperimentConfig, t: int) -> dict:
    if config.dim == 1:
        problem = assemble_stiffness(config.r, 2 ** t, config.coefficient)
        build = build_fem_hierarchy
    else:
        problem = assemble_2d_problem(config.r, t)
        build = build_2d_hierarchy
    hierarchy = build(problem, config.projector, config._smoother_spec(),
                      two_level=config.cycle == TGM)
    matrix = problem.matrix
    rng = np.random.default_rng([config.seed, t])
    x_exact = rng.uniform(size=matrix.size)
    b = matrix.matrix @ x_exact
    result = solve(hierarchy, b, tol=config.tol, max_iter=config.max_iter,
                   cycle=config.cycle)
    final = result.residuals[-1] if result.residuals else 0.0
    return {"t": t, "N": matrix.size, "cycle": config.cycle,
            "iterations": result.iterations, "final_residual": final,
            "flag": result.flag}


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="ascii")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _solve_stem(config: ExperimentConfig) -> str:
    return (f"solve_dim{config.dim}_r{config.r}_{config.coefficient}"
            f"_{config.projector}_{config.cycle}")


def run(config: ExperimentConfig) -> int:
    """Execute the configured experiments; returns the process exit code."""
    out_dir = Path(config.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from exc
    code = 0
    if config.mode in ("solve", "both"):
        rows = [_solve_one(config, t) for t in config.t_range]
        lines = [",".join(CSV_HEADER)]
        for row in rows:
            lines.append(f"{row['t']},{row['N']},{row['cycle']},"
                         f"{row['iterations']},{float(row['final_residual'])!r},"
                         f"{row['flag']}")
        csv_path = out_dir / (_solve_stem(config) + ".csv")
        _atomic_write(csv_path, "\n".join(lines) + "\n")
        print(f"wrote {csv_path}")
        if any(row["flag"] for row in rows):
            code = 2
    if config.mode in ("certify", "both"):
        f = stiffness_symbol(config.r)
        p = projector_symbol(config.r, config.projector)
        if config.dim == 1:
            report = full_report(p, f)
        else:
            f2d = tensor_sum_symbol(f, mass_symbol(config.r))
            report = check_multilevel_conditions([p, p], f2d, fs=[f, f])
        json_path = out_dir / f"certify_dim{config.dim}_r{config.r}_{config.projector}.json"
        _atomic_write(json_path, report.to_json() + "\n")
        print(f"wrote {json_path}")
    return code


def _read_rows(path) -> list:
    """Data rows of a result CSV, each checked for six fields and an
    integer ``t``."""
    try:
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != CSV_HEADER:
        raise ConfigurationError(
            f"{path}: header {rows[0] if rows else '(empty)'} does not match "
            f"the schema {CSV_HEADER}")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise ConfigurationError(
                f"{path}: line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        try:
            int(row[0])
        except ValueError:
            raise ConfigurationError(
                f"{path}: line {lineno}: t must be an integer, got {row[0]!r}") from None
    return rows[1:]


def print_table(paths) -> int:
    """Render one or more result CSVs as an aligned text table, one
    column group per file, one subcolumn per cycle."""
    groups = []
    for path in paths:
        rows = _read_rows(path)
        label = Path(path).stem
        cycles = []
        values = {}
        for row in rows:
            t, cycle, iters, flag = int(row[0]), row[2], row[3], row[5]
            if cycle not in cycles:
                cycles.append(cycle)
            values[(t, cycle)] = iters + ("*" if flag else "")
        groups.append({"label": label, "cycles": cycles, "values": values})
    all_t = sorted({t for g in groups for (t, _) in g["values"]})
    if not all_t:
        print("no data")
        return 0
    header1 = ["t"]
    header2 = [""]
    for g in groups:
        for k, cyc in enumerate(g["cycles"]):
            header1.append(g["label"] if k == 0 else "")
            header2.append(cyc)
    table = [header1, header2]
    for t in all_t:
        row = [str(t)]
        for g in groups:
            for cyc in g["cycles"]:
                row.append(g["values"].get((t, cyc), "-"))
        table.append(row)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def certify_files(f_path, p_path, output=None) -> int:
    """Full condition report for symbols read from exchange files."""
    f = read_symbol(f_path)
    p = read_symbol(p_path)
    report = full_report(p, f)
    text = report.to_json()
    if output:
        _atomic_write(Path(output), text + "\n")
        print(f"wrote {output}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockmg",
        description="symbol-based multigrid experiments and certification")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_table = sub.add_parser("table", help="format result CSVs as a text table")
    p_table.add_argument("csv", nargs="+", help="result CSV paths")
    p_cert = sub.add_parser("certify", help="certify a symbol pair from files")
    p_cert.add_argument("f_symbol", help="problem symbol exchange file")
    p_cert.add_argument("p_symbol", help="projector symbol exchange file")
    p_cert.add_argument("--output", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(parse_config(args.config))
        if args.command == "table":
            return print_table(args.csv)
        return certify_files(args.f_symbol, args.p_symbol, args.output)
    except BlockmgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
