"""Hot numeric kernels.

The Hölder quotient is one numpy offset sweep.  Mollification has one numpy
path, ``calculus.mollify``; the n = 2 loop below is its numba-jitted
alternative, which ``calculus.mollify`` calls when numba is installed (the
``jit`` extra).  Set RTGEO_DISABLE_NUMBA=1 to force the numpy path; the
choice is made once at import (``HAVE_NUMBA``).
"""

import os

import numpy as np

from .errors import ShapeError

_DISABLED = os.environ.get("RTGEO_DISABLE_NUMBA", "").strip() in ("1", "true", "yes")

try:
    if _DISABLED:
        raise ImportError("numba disabled by RTGEO_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(f):
            return f

        return deco


# ---------------------------------------------------------------------------
# pairwise Hölder quotient: max over node pairs with |u-v| >= floor of
# |f(u)-f(v)|_2 / |u-v|^alpha, on the nodes of a product grid.  All pairs
# with the same index offset share one slice difference, so the sweep runs
# over offsets, each bound tighter and dearer than the last: a leg bound
# from one table of axis-aligned differences, then the per-offset bound on
# the offsets the leg bound cannot rule out, then the exact pair arithmetic
# on the few offsets whose per-offset bound can still win.
# ---------------------------------------------------------------------------

# Relative slack between a bound and the exact pair quotients it bounds; it
# covers only the rounding of the differently ordered computations.
_BOUND_SLACK = 1e-9


def _grid_axes(coords):
    """Per-axis node arrays of the C-ordered product grid whose nodes are ``coords``."""
    n = coords.shape[1]
    axes = []
    sub = coords
    for k in range(n - 1, -1, -1):
        # axis k is the fastest one left: its run ends where a slower axis moves
        moved = np.flatnonzero((sub[1:, :k] != sub[:1, :k]).any(axis=1))
        r = int(moved[0]) + 1 if moved.size else len(sub)
        axes.insert(0, sub[:r, k].copy())
        sub = sub[::r]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    if not np.array_equal(grid, coords):
        raise ShapeError("holder_pair_max needs the nodes of a C-ordered product grid")
    return axes


def _half_space_offsets(res):
    """Index offsets d != 0 whose first nonzero entry is positive: one per pair."""
    span = np.asarray(res) - 1
    offs = np.indices(2 * span + 1).reshape(len(res), -1).T - span
    lead = offs[np.arange(len(offs)), (offs != 0).argmax(axis=1)]
    return offs[lead > 0]


def _pair_slices(d):
    """Index slices of the pair ends p + d and p, over all p with both on the grid."""
    far = tuple(slice(k, None) if k >= 0 else slice(None, k) for k in d)
    near = tuple(slice(None, -k) if k > 0 else slice(-k, None) for k in d)
    return far, near


def holder_pair_max(coords, vals, alpha, floor):
    """max over pairs (u, v) of grid nodes with |u-v| >= floor of |f(u)-f(v)| / |u-v|^alpha.

    ``coords`` (N, n) must be the nodes of a C-ordered product grid and
    ``vals`` (N, C) the samples on them; ``floor`` > 0.  The result equals the
    all-pairs maximum bit for bit: every pair that can hold the maximum is
    evaluated with the same arithmetic as the all-pairs loop.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    alpha, floor = float(alpha), float(floor)
    if len(coords) < 2:
        return 0.0
    axes = _grid_axes(coords)
    res = tuple(len(x) for x in axes)
    n = len(res)
    f2 = floor * floor
    offs = _half_space_offsets(res)
    # extreme per-axis squared separations at each |d_k|, summed in the pair
    # arithmetic's order: the offset's smallest and largest pair distances
    ext = []
    for x in axes:
        ends = np.add.outer(np.arange(len(x)), np.arange(len(x)))  # [|d_k|, p]: p + |d_k|
        sq = (x[np.minimum(ends, len(x) - 1)] - x) ** 2
        on = ends < len(x)
        ext.append((np.where(on, sq, np.inf).min(axis=1), np.where(on, sq, -np.inf).max(axis=1)))
    span = np.abs(offs)
    d2_lo = np.stack([lo[span[:, k]] for k, (lo, _) in enumerate(ext)], axis=-1).sum(-1)
    d2_hi = np.stack([hi[span[:, k]] for k, (_, hi) in enumerate(ext)], axis=-1).sum(-1)
    scale = np.maximum(d2_lo, f2) ** (0.5 * alpha)

    # legs: leg2[k][j] = max_p |F[p + j e_k] - F[p]|^2, on component-major
    # slices.  A staircase path from p to p + d inside their box gives
    # |F[p+d] - F[p]| <= sum_k leg(|d_k|), which bounds every offset at once.
    F = np.moveaxis(vals.reshape(res + (-1,)), -1, 0).copy()
    every = (slice(None),)

    def offset_max2(d):
        far, near = _pair_slices(d)
        diff = F[every + far] - F[every + near]
        # in place: a second slice-sized temporary costs more than the sum.
        # The squares are >= +0 (or NaN), so summing from the first row, not
        # from 0.0, leaves every bit as the zero-started sum has it
        np.square(diff, out=diff)
        return diff.sum(0).max()

    leg2 = [
        np.array([0.0] + [offset_max2((0,) * k + (j,) + (0,) * (n - 1 - k)) for j in range(1, r)])
        for k, r in enumerate(res)
    ]
    legs = [leg2[k][span[:, k]] for k in range(n)]
    leg_bound = sum(np.sqrt(g) for g in legs) / scale

    # pass 1: the per-offset bound max_p |F[p+d] - F[p]| / max(d2_lo, f2)^(a/2);
    # an axis-aligned offset's maximum is its leg.  An offset whose pairs all
    # clear the floor proves the result is at least its maximum over its
    # largest pair distance (``reach`` is that factor): ``low``.  The other
    # offsets go best leg bound first, until no leg bound reaches ``low``.
    aligned = (span != 0).sum(axis=1) == 1
    m2 = np.where(aligned, sum(legs), 0.0)
    reach = np.where(d2_lo >= f2, (1.0 - _BOUND_SLACK) / d2_hi ** (0.5 * alpha), 0.0)
    low = float((np.sqrt(m2) * reach).max())
    walk = np.flatnonzero(~aligned & (d2_hi >= f2))  # offsets with no pair above the floor add 0
    for i in walk[np.argsort(-leg_bound[walk], kind="stable")]:
        if leg_bound[i] == 0.0 or leg_bound[i] * (1.0 + _BOUND_SLACK) < low:
            break
        m2[i] = offset_max2(offs[i].tolist())
        low = max(low, float(np.sqrt(m2[i]) * reach[i]))
    bound = np.where(d2_hi >= f2, np.sqrt(m2) / scale, 0.0)

    # pass 2: exact pair quotients, best bound first, until no bound can win
    V = vals.reshape(res + (-1,))
    best = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] == 0.0 or bound[i] * (1.0 + _BOUND_SLACK) < best:
            break
        far, near = _pair_slices(offs[i])
        sep = [x[s] - x[f] for x, f, s in zip(axes, far, near)]
        d2 = (np.stack(np.meshgrid(*sep, indexing="ij"), axis=-1) ** 2).sum(-1)
        dv = np.sqrt(((V[near] - V[far]) ** 2).sum(-1))
        q = np.where(d2 >= f2, dv / np.maximum(d2, f2) ** (0.5 * alpha), 0.0)
        best = max(best, float(q.max()))
    return best


# ---------------------------------------------------------------------------
# compact-support bump convolution with boundary-truncated renormalization,
# n == 2: the normalized zero-fill convolution of calculus.mollify, jitted.
# ---------------------------------------------------------------------------


@njit(cache=True)
def _mollify2_jit(field, kern):
    r0, r1, ncmp = field.shape
    k0, k1 = kern.shape
    c0 = k0 // 2
    c1 = k1 // 2
    out = np.empty_like(field)
    for i in range(r0):
        for j in range(r1):
            wsum = 0.0
            acc = np.zeros(ncmp)
            for a in range(k0):
                ii = i + a - c0
                if ii < 0 or ii >= r0:
                    continue
                for b in range(k1):
                    jj = j + b - c1
                    if jj < 0 or jj >= r1:
                        continue
                    w = kern[a, b]
                    if w == 0.0:
                        continue
                    wsum += w
                    for c in range(ncmp):
                        acc[c] += w * field[ii, jj, c]
            for c in range(ncmp):
                out[i, j, c] = acc[c] / wsum
    return out
