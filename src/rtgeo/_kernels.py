"""The Hölder quotient of a time series, ``holder_pair_max``.

Nothing in rtgeo calls it.  perfbench/spans.py traces ``holder_pair_max`` and
perfbench/run.py reads ``HAVE_NUMBA`` under these names, so both stay in this
module until the benchmark drops them (ROADMAP item 15).
"""

import importlib.util

import numpy as np

from .errors import SamplingError

# Read by perfbench only, which records in every benchmark record whether
# numba is installed; nothing in rtgeo branches on it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def holder_pair_max(times, vals, alpha, floor):
    """max over node pairs (s, t) with |s - t| >= floor of |f(s) - f(t)|_2 / |s - t|^alpha.

    ``times`` (N,) are the nodes and ``vals`` (N, C) the samples on them.
    Every pair is formed, one index offset k at a time: the pairs (p, p + k)
    for all p as one slice difference, so no temporary outgrows the series.
    """
    times = np.asarray(times, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=-1))
        raise SamplingError(f"non-finite values in Hölder samples (first bad node index {int(bad[0])})")
    f2, half = float(floor) * float(floor), 0.5 * float(alpha)
    best = 0.0
    for k in range(1, len(times)):
        d2 = (times[:-k] - times[k:]) ** 2
        dv = np.sqrt(((vals[:-k] - vals[k:]) ** 2).sum(-1))
        q = np.where(d2 >= f2, dv / np.maximum(d2, f2) ** half, 0.0)
        best = max(best, float(q.max()))
    return best
