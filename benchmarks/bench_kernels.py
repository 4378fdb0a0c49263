"""Benchmark the hot kernels.

Run:  python benchmarks/bench_kernels.py [--sizes 65 129]

The Hölder quotient has one implementation, the numpy offset sweep, and
mollification one numpy path, ``calculus.mollify``; each row shows the time
of one call.  With numba installed, ``calculus.mollify`` runs its jitted
n = 2 loop (timed after a warmup call that pays compilation); run with
RTGEO_DISABLE_NUMBA=1 to time the numpy path instead.  End-to-end numbers
come from ``perfbench/``.
"""

import argparse
import time

import numpy as np

from rtgeo import _kernels
from rtgeo.calculus import mollify
from rtgeo.charts import Chart, GridField


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
    fld = GridField(chart, rng.standard_normal(chart.res + (8,)))
    mollify(fld, eps)  # warmup: pays numba compilation when numba is installed
    t, _ = timeit(mollify, fld, eps)
    return t


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[65, 129])
    args = ap.parse_args()
    print(f"numba in use: {_kernels.HAVE_NUMBA}")
    header = f"{'kernel':<22}{'grid':>6}{'time [s]':>12}"
    print(header)
    print("-" * len(header))
    for m in args.sizes:
        print(f"{'holder_pair_max':<22}{m:>4}^2{bench_holder(m):>12.4f}")
        print(f"{'mollify':<22}{m:>4}^2{bench_mollify(m):>12.4f}")


if __name__ == "__main__":
    main()
