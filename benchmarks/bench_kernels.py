"""Benchmark the hot kernels.

Run:  python benchmarks/bench_kernels.py [--sizes 65 129]

The Hölder quotient has one implementation, the numpy offset sweep; its row
shows that time alone.  For mollification the table shows the jitted time
(after a warmup call that pays compilation), the numpy fallback time, and
the speedup. The env flag RTGEO_DISABLE_NUMBA=1 makes
the whole package use the numpy path; here both implementations are called
directly so one process covers both columns.  End-to-end numbers come from
``perfbench/``.
"""

import argparse
import time

import numpy as np

from rtgeo import _kernels
from rtgeo.calculus import bump_kernel
from rtgeo.charts import Chart


def timeit(fn, *args, repeat=3):
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_holder(m):
    chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
    coords = chart.nodes.reshape(-1, 2)
    vals = np.sqrt(np.abs(coords[:, :1] - 0.3)) + 0.2 * coords[:, 1:]
    floor = 4 * float(chart.h.max())
    t, _ = timeit(_kernels.holder_pair_max, coords, vals, 0.5, floor)
    return t


def bench_mollify(m, eps=1 / 8):
    chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
    rng = np.random.default_rng(1)
    field = np.ascontiguousarray(rng.standard_normal(chart.res + (8,)))
    kern = bump_kernel(chart, eps)
    if _kernels.HAVE_NUMBA:
        _kernels._mollify2_jit(field, kern)
        t_jit, a = timeit(_kernels._mollify2_jit, field, kern)
    else:
        t_jit, a = np.nan, None
    t_np, b = timeit(_kernels._mollify2_numpy, field, kern)
    if a is not None:
        assert np.abs(a - b).max() < 1e-10
    return t_jit, t_np


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[65, 129])
    args = ap.parse_args()
    print(f"numba available: {_kernels.HAVE_NUMBA}")
    header = f"{'kernel':<22}{'grid':>6}{'jit [s]':>12}{'numpy [s]':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for m in args.sizes:
        print(f"{'holder_pair_max':<22}{m:>4}^2{'':>12}{bench_holder(m):>12.4f}")
        t_jit, t_np = bench_mollify(m)
        speed = t_np / t_jit if t_jit and not np.isnan(t_jit) else float("nan")
        print(f"{'mollify2':<22}{m:>4}^2{t_jit:>12.4f}{t_np:>12.4f}{speed:>8.1f}x")


if __name__ == "__main__":
    main()
