"""blockmg benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

A run repeats passes over the workload's cases until ``--seconds`` would
be exceeded; one pass is one sample and end-to-end timings are medians
over passes, scaled to the reference host speed (hostprobe.py).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead.  The last line of standard output
is the JSON result; the full record goes to perfbench/results/.  The
exit code is nonzero when any output fails its correctness gate.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy loads: one caller, no concurrency
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("solve-1d", "solve-2d", "tgm-geometric", "certify")
DEFAULT_SEED = 20240101
END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import blockmg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import blockmg
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import blockmg from {SRC}: {exc}")
    if Path(blockmg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: blockmg was imported from {blockmg.__file__}, "
                         f"not from {SRC}")


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _openblas_runtime() -> list:
    """Thread count and build string of each OpenBLAS loaded here."""
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = []
    for path in libs:
        entry = {"library": path}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def environment(args) -> dict:
    """What makes a parent run and a change run comparable."""
    import numpy
    import scipy

    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({k: _read(index / k) for k in ("level", "type", "size")})
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "blockmg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {k: blas.get(k) for k in ("name", "version",
                                                "openblas configuration")},
        "blas_runtime": _openblas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches, "platform": platform.platform(),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, sorted(values)[math.ceil(p / 100 * n) - 1]


def summarize_pass(results) -> dict:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "setup_s": sum(r.setup_s for r in results),
        "compute_s": sum(r.compute_s for r in results),
        "iterations": sum(r.iterations for r in results),
        "attempted": len(results),
        "errors": [f"{r.key}: {r.error}" for r in results if r.error],
        "deviation": max(r.deviation for r in results),
    }


def measure(args) -> dict:
    import hostprobe
    import layers
    import tracer as tracing
    import workloads

    reference = workloads.load_reference()
    probe = hostprobe.HostProbe()
    problems = tracing.self_check() if args.trace else []
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    spans = None
    # warm lazy imports and code paths on the smallest case, untimed
    workloads.run_pass(args.workload, args.seed, reference, cases=1)
    for _ in range(3):
        probe()
    probe.samples.clear()
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 4 in (1, 2)
        gc.collect()  # the previous pass's garbage is not this pass's cost
        first_probe = len(probe.samples)
        if traced:
            tracer.reset()
            layers.install(tracer, extra=[workloads])
        try:
            results = workloads.run_pass(args.workload, args.seed, reference,
                                         tracer if traced else None, probe=probe)
        finally:
            if traced:
                problems += layers.uninstall(tracer, extra=[workloads])
        record = summarize_pass(results)
        record["traced"] = traced
        record["probe_s"] = statistics.median(probe.samples[first_probe:])
        if traced:
            record["layers"] = layers.layer_metrics(tracer, record["wall_s"],
                                                    record["iterations"])
            spans = tracer.spans
        passes.append(record)
        elapsed = perf_counter() - start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    return {"passes": passes, "problems": problems, "spans": spans,
            "probe_s": probe.median_s(), "scale": probe.scale()}


def end_to_end(passes, scale) -> dict:
    """Medians over passes in reference seconds, and peak memory."""
    out = {}
    for name in ("wall_s", "setup_s", "compute_s"):
        out[name] = scale * statistics.median(p[name] for p in passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(passes) -> dict:
    import layers

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in layers.METRICS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                  / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return out


def print_report(args, env, run, metrics, units):
    passes, problems, scale = run["passes"], run["problems"], run["scale"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    phase = "certify_s" if args.workload == "certify" else "solve_s"
    print(f"perfbench {args.workload}: seed {args.seed}, {len(passes)} passes "
          f"({len(plain)} untraced), closed loop, one caller, jobs=1")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"host probe median {run['probe_s']:.6f} s; timings in reference "
          f"seconds are raw x {scale:.4f}")
    print(f"{'metric':<46} {'reference':>14} {'raw median':>14} {'raw tail':>22}  unit")
    for name, label in (("wall_s", "wall_s"), ("setup_s", "setup_s"),
                        ("compute_s", f"{phase} (compute_s)")):
        values = [p[name] for p in plain]
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]} {tail[1]:.6f}" if tail
                     else f"n={len(values)}, need 11")
        median = statistics.median(values)
        print(f"{label:<46} {scale * median:>14.6f} {median:>14.6f} "
              f"{tail_text:>22}  s")
    iterations = sorted({p["iterations"] for p in passes})
    print(f"{'iterations':<46} {','.join(map(str, iterations)):>14} {'':>37}  count")
    print(f"{'failed_frac':<46} {failed / attempted:>14.6f} {'':>14} "
          f"{f'{failed}/{attempted}':>22}  fraction")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<46} {peak:>14.1f} {'':>37}  MB")
    if args.workload == "certify":
        deviation = max(p["deviation"] for p in passes)
        print(f"{'evidence max deviation vs reference':<46} {deviation:>14.3e}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:<46} {value:>14.6g} {'':>37}  {units[name]}")
        coverage = metrics["trace.coverage"]
        print(f"{'remainder outside named layers':<46} {1.0 - coverage:>14.6f}"
              f" {'':>37}  fraction")
        print("time waited: 0 s in every layer by construction "
              "(no queue, no second thread)")
    for error in sorted({e for p in passes for e in p["errors"]}):
        print(f"FAILED {error}")
    for problem in problems:
        print(f"TRACER {problem}")


def write_record(args, env, run, metrics):
    RESULTS.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "problems": run["problems"],
              "probe_s": run["probe_s"], "scale": run["scale"],
              "passes": run["passes"]}
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if run["spans"] is not None:
        names = sorted({rec[0] for rec in run["spans"]})
        index = {name: i for i, name in enumerate(names)}
        (RESULTS / f"{args.workload}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "children_s",
                        "outermost", "level"],
             "names": names,
             "spans": [[index[rec[0]], *rec[1:]] for rec in run["spans"]]}),
            encoding="utf-8")


def run_workload(args) -> int:
    import layers

    env = environment(args)
    run = measure(args)
    passes = run["passes"]
    if args.trace:
        metrics = per_layer(passes)
        units = layers.METRICS
    else:
        metrics = end_to_end(passes, run["scale"])
        units = END_TO_END
    write_record(args, env, run, metrics)
    print_report(args, env, run, metrics, units)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    correct = failed == 0 and not run["problems"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak
    memory belongs to one workload and none warms another's caches."""
    code = 0
    rows = []
    for name in WORKLOAD_NAMES:
        record_path = RESULTS / f"{name}-trace{args.trace}.json"
        record_path.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not record_path.exists():
            rows.append((name, None))
            code = code or 1
            continue
        rows.append((name, json.loads(record_path.read_text(encoding="utf-8"))))
    print(f"\n{'workload':<14} {'wall_s':>10} {'setup_s':>10} {'solve_s':>10} "
          f"{'certify_s':>10} {'iterations':>10} {'failed_frac':>12} {'peak_rss_mb':>12}")
    for name, record in rows:
        if record is None:
            print(f"{name:<14} crashed")
            continue
        passes = [p for p in record["passes"] if not p["traced"]]
        med = {k: record["scale"] * statistics.median(p[k] for p in passes)
               for k in ("wall_s", "setup_s", "compute_s")}
        attempted = sum(p["attempted"] for p in record["passes"])
        failed = sum(len(p["errors"]) for p in record["passes"])
        solve_s, certify_s = ((f"{med['compute_s']:.4f}", "-") if name != "certify"
                              else ("-", f"{med['compute_s']:.4f}"))
        iterations = ",".join(str(v) for v in sorted({p["iterations"] for p in passes}))
        rss = record["metrics"].get("peak_rss_mb")
        print(f"{name:<14} {med['wall_s']:>10.4f} {med['setup_s']:>10.4f} "
              f"{solve_s:>10} {certify_s:>10} {iterations:>10} "
              f"{failed / attempted:>12.4f} "
              f"{(f'{rss:.1f}' if rss is not None else '-'):>12}")
    print("units: reference seconds (medians over passes, scaled by the host "
          "probe), count, fraction, MB")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
