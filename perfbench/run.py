"""rtgeo pipeline benchmark: one workload per process, results as JSON on stdout.

Run from the repository root:

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the tree this script sits in.  A
run times three fresh processes that import and set the workload up
(``setup_s`` is their median), sets up once itself, then repeats timed
passes until ``--seconds`` have passed, at least one (``wall_s`` is the
median pass).  ``--trace 1`` adds one traced set-up and pass after the
untraced ones and reports per-layer numbers instead of end-to-end ones.

stdout carries two JSON lines: a record (machine, seed, per-op details,
digests, layer table) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Progress goes to stderr.
Exit code 2 means the run could not start (no ``src/rtgeo`` or ``configs``).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cap_blas_threads(cores):
    """Hold every BLAS thread setting at or below the usable cores; before numpy loads."""
    for var in BLAS_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= cores
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(cores)
    return {var: os.environ[var] for var in BLAS_VARS}


def time_setup_process(args):
    """Seconds for a fresh interpreter to import everything and set the workload up."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - t0


def machine(cores, blas):
    import numpy
    import scipy

    from rtgeo import _kernels

    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
        "RTGEO_DISABLE_NUMBA": os.environ.get("RTGEO_DISABLE_NUMBA"),
        "blas_threads": blas,
        "platform": platform.platform(),
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def workload_detail(name, passes):
    """The workload's own end-to-end figures, from the untraced passes."""
    ops = [op for ops, _ in passes for op in ops]
    if name == "scenarios":
        names = dict.fromkeys(op.name for op in ops)
        return {f"{cfg}_s": statistics.median(op.seconds for op in ops if op.name == cfg) for cfg in names}
    if name == "geodesic_fan":
        rk4 = [op.seconds * 1e3 for op in ops if op.name == "rk4"]
        picard = [op.seconds * 1e3 for op in ops if op.name == "picard"]
        return {
            "curves_per_s": len(ops) / sum(wall for _, wall in passes),
            "rk4_p50_ms": statistics.median(rk4),
            "rk4_p90_ms": percentile(rk4, 90),
            "picard_p50_ms": statistics.median(picard),
            "samples": {"rk4": len(rk4), "picard": len(picard)},
        }
    return {"pipeline_s": statistics.median(wall for _, wall in passes)}


def layer_report(tracer, base_s):
    """Per-layer numbers from the traced set-up and pass; shares are of ``base_s``."""
    times = tracer.layer_times()
    counts = tracer.counts
    table = {name: dict(row) for name, row in sorted(times.items())}

    def row(name):
        return times.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def pct(seconds):
        return 100.0 * seconds / base_s

    rt = "rt_solver.solve_reduced_rt"
    iters = counts[rt + ".iters"]
    dsolve = "charts.Chart.dirichlet_solve"
    rk4, picard = "geodesics.solve_geodesic.rk4", "geodesics.solve_geodesic.picard"
    if iters:
        table[rt].update(
            iters=iters,
            s_per_iter=row(rt)["busy_s"] / iters,
            progress_ratio=counts[rt + ".records"] / iters,
            retries=counts[rt + ".retries"],
        )
    if tracer.holder_s_by_points:
        table["kernels.holder_pair_max"]["s_by_points"] = dict(tracer.holder_s_by_points)
    if dsolve in table:
        table[dsolve].update(first_call_s=tracer.first_call_s, unknowns=counts[dsolve + ".unknowns"])
    metrics = {
        "kernels.holder_pair_max.calls": (row("kernels.holder_pair_max")["calls"], "count"),
        "kernels.holder_pair_max.pairs": (counts["kernels.holder_pair_max.pairs"], "count"),
        "kernels.holder_pair_max.self_pct": (pct(row("kernels.holder_pair_max")["self_s"]), "%"),
        "calculus.norm_report.busy_pct": (pct(row("calculus.norm_report")["busy_s"]), "%"),
        "calculus.mollify.calls": (row("calculus.mollify")["calls"], "count"),
        "calculus.mollify.busy_pct": (pct(row("calculus.mollify")["busy_s"]), "%"),
        rt + ".busy_pct": (pct(row(rt)["busy_s"]), "%"),
        rt + ".self_pct": (pct(row(rt)["self_s"]), "%"),
        rt + ".iters": (iters, "count"),
        rt + ".progress_ratio": (counts[rt + ".records"] / iters if iters else 0.0, "1"),
        rt + ".retries": (counts[rt + ".retries"], "count"),
        dsolve + ".calls": (row(dsolve)["calls"], "count"),
        dsolve + ".busy_pct": (pct(row(dsolve)["busy_s"]), "%"),
        dsolve + ".first_call_pct": (pct(tracer.first_call_s), "%"),
        dsolve + ".unknowns": (counts[dsolve + ".unknowns"], "count"),
        "charts.Chart.deriv.calls": (row("charts.Chart.deriv")["calls"], "count"),
        "charts.Chart.deriv.busy_pct": (pct(row("charts.Chart.deriv")["busy_s"]), "%"),
        "charts.interpolate.calls": (row("charts.interpolate")["calls"], "count"),
        "charts.interpolate.points": (counts["charts.interpolate.points"], "count"),
        "charts.interpolate.busy_pct": (pct(row("charts.interpolate")["busy_s"]), "%"),
        rk4 + ".steps": (counts[rk4 + ".steps"], "count"),
        rk4 + ".busy_pct": (pct(row(rk4)["busy_s"]), "%"),
        picard + ".sweeps": (counts[picard + ".sweeps"], "count"),
        picard + ".busy_pct": (pct(row(picard)["busy_s"]), "%"),
        "geodesics.solve_geodesic.truncated": (counts["geodesics.solve_geodesic.truncated"], "count"),
        "transform.invert_map.calls": (row("transform.invert_map")["calls"], "count"),
        "transform.invert_map.targets": (counts["transform.invert_map.targets"], "count"),
        "transform.invert_map.busy_pct": (pct(row("transform.invert_map")["busy_s"]), "%"),
        "transform.invert_map.worst_residual": (tracer.worst_newton_residual, "1"),
    }
    for name in (
        "transform.integrate_jacobian",
        "transform.build_bundle",
        "rt_solver.optimal_connection",
        "harness.generate_scenario",
        "geodesics.mollified_family",
        "geodesics.solve_mollified",
        "geodesics.convergence_report",
        "curvature.lemma_b1_check",
        "curvature.represent_weak",
    ):
        metrics[name + ".busy_pct"] = (pct(row(name)["busy_s"]), "%")
    return metrics, table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "rtgeo" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            log(f"perfbench: {needed} not found; run from a full source tree")
            return 2
    cores = len(os.sched_getaffinity(0))
    blas = cap_blas_threads(cores)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, mark_nondeterministic  # imports numpy, scipy and rtgeo

    import rtgeo

    if Path(rtgeo.__file__).resolve().parent != ROOT / "src" / "rtgeo":
        log(f"perfbench: imported rtgeo from {rtgeo.__file__}, not from {ROOT / 'src'}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload '{args.workload}' (choose from {sorted(WORKLOADS)})")
        return 2
    import_s = time.perf_counter() - T_START
    work = WORKLOADS[args.workload]()
    if args.setup_only:
        work.setup(args.seed)
        return 0

    # imports cannot be repeated in one process, so setup_s times whole fresh
    # processes that import and set up; a traced run reports no setup_s
    setup_samples = [] if args.trace else [time_setup_process(args) for _ in range(SETUP_REPEATS)]
    for k, sample in enumerate(setup_samples):
        log(f"[{work.name}] set-up process {k + 1}/{SETUP_REPEATS}: {sample:.3f}s")
    state = work.setup(args.seed)

    passes = []
    t_timed = time.perf_counter()
    while not passes or time.perf_counter() - t_timed < args.seconds:
        t0 = time.perf_counter()
        ops = work.run_pass(state)
        passes.append((ops, time.perf_counter() - t0))
        log(f"[{work.name}] pass {len(passes)}: {passes[-1][1]:.3f}s, {sum(not op.ok for op in ops)} failed")

    traced = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            state_t = work.setup(args.seed)
            t1 = time.perf_counter()
            ops_t = work.run_pass(state_t)
            t2 = time.perf_counter()
        finally:
            tracer.uninstall()
        traced = (tracer, ops_t, t1 - t0, t2 - t1)
        log(f"[{work.name}] traced set-up {t1 - t0:.3f}s, pass {t2 - t1:.3f}s")

    all_passes = [ops for ops, _ in passes] + ([traced[1]] if traced else [])
    mark_nondeterministic(all_passes)
    ops = [op for ops_ in all_passes for op in ops_]
    failures = [f"{op.name}: {op.reason}" for op in ops if not op.ok]
    attempted = len(ops)
    failed = len(failures)
    c1s = [op.c1_error for op in ops if not math.isnan(op.c1_error)] or [float("nan")]

    wall_s = statistics.median(wall for _, wall in passes)
    record = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(cores, blas),
        "import_s": import_s,
        "setup_samples_s": setup_samples,
        "pass_walls_s": [wall for _, wall in passes],
        "failed_frac": failed / attempted,
        "c1_error_max": max(c1s),
        "failures": failures,
        "digests": sorted({(op.name, op.digest) for op in ops if op.digest}),
        "detail": workload_detail(work.name, passes),
    }
    if traced:
        tracer, _, setup_t, pass_t = traced
        metrics, table = layer_report(tracer, setup_t + pass_t)
        metrics["trace.wall_s"] = (setup_t + pass_t, "s")
        metrics["trace_overhead_frac"] = (pass_t / wall_s - 1.0, "1")
        record["layers"] = table
        record["traced"] = {"setup_s": setup_t, "pass_s": pass_t, "spans": len(tracer.names)}
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            log(f"  {name:38s} calls {row['calls']:8d}  busy {row['busy_s']:9.3f}s  self {row['self_s']:9.3f}s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "c1_error_mean": (statistics.fmean(c1s), "1"),
        }
    for line in failures:
        log(f"[{work.name}] FAILED {line}")
    print(json.dumps({"record": record}, default=float))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
