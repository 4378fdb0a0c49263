"""The Hölder quotient's offset sweep, ``holder_pair_max``.

Mollification is ``calculus.mollify``: the tensor-product bump, one
row-normalized smoothing matrix per axis applied as one GEMM each.
"""

import functools
import importlib.util

import numpy as np

from .errors import SamplingError, ShapeError

# Read by perfbench only, which records in every benchmark record whether
# numba is installed; nothing in rtgeo branches on it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


# ---------------------------------------------------------------------------
# pairwise Hölder quotient: max over node pairs with |u-v| >= floor of
# |f(u)-f(v)|_2 / |u-v|^alpha, on the nodes of a product grid.  All pairs
# with the same index offset share one slice difference, so the sweep runs
# over offsets, each bound tighter and dearer than the last: a leg bound
# from one table of axis-aligned differences, then per-offset bounds a band
# at a time on the bands the leg bound cannot rule out, then the exact pair
# arithmetic on the few offsets whose per-offset bound can still win.  A
# band is every offset that shares its leading n-1 entries; one Gram
# product bounds the per-offset maxima of all its last-axis offsets at once,
# from above and from below.  The leg table is band 0 with each axis moved
# last.
# ---------------------------------------------------------------------------

# Relative slack between a bound and the exact pair quotients it bounds; it
# covers only the rounding of the differently ordered computations.
_BOUND_SLACK = 1e-9

# Gram entries formed per product: keeps a band's temporaries near 2 MB.
_GRAM_ENTRIES = 1 << 18


def _gram_margin(X):
    """Rounding margin of ``_band_bounds`` on the centred samples ``X`` (..., C).

    With u = eps/2, x = fl(v - c) the centred samples and P = |x_s|^2 + |x_t|^2
    <= S = 2 max |x|^2, a band's Gram entry for the pair (s, t) is off the
    pair arithmetic's fl(|v_s - v_t|^2) by at most
      - the centring: x = (v - c)(1 + d) with |d| <= u moves each component
        of the difference by <= u'(|x_s| + |x_t|), u' = u/(1 - u), and the
        squared distance by <= 4u'P + 2u'^2 P;
      - the Gram rounding: the squared norms, C-term sums within gamma_C =
        Cu/(1 - Cu) of their values, then the (C + 2)-term product of
        [-2x_s, |x_s|^2, 1] and [x_t, 1, |x_t|^2], within gamma_(C+2) of
        2|x_s.x_t| + P <= 2P in any order, BLAS blocking and FMA included:
        <= (3C + 4)u P to first order;
      - the pair arithmetic's own rounding, a C-term sum of rounded squares
        of rounded differences: <= gamma_(C+2) |v_s - v_t|^2 <= 2(C+2)u' P;
      - the rounding of the final +- margin: <= u(2S + margin).
    That is (2.5C + 7) eps S to first order; 3(C + 4) eps S leaves at least
    5 eps S for the second-order terms and the rounding of S itself.  A
    product that underflows adds an absolute error of up to half a
    subnormal, and an entry has 4C products (the doubling is exact), which
    3(C + 4) subnormals cover.  All-zero samples are exact, so their margin
    is 0 and a constant field forms no band.
    """
    if not X.any():
        return 0.0
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    S = 2.0 * float(np.square(X).sum(-1).max())
    return 3.0 * (X.shape[-1] + 4) * (eps * S + tiny)


def _diagonals(M, fill):
    """(R, 2R - 1) array whose column s - t + R - 1 holds M[s, t] of the square ``M``.

    Row s of M[:, ::-1], padded to length 2R with ``fill`` and read with row
    length 2R - 1, lands there; every other entry is ``fill``.
    """
    R = len(M)
    skew = np.full((R, 2 * R), fill)
    skew[:, :R] = M[:, ::-1]
    return skew.ravel()[: R * (2 * R - 1)].reshape(R, 2 * R - 1)


def _band_bounds(X, lead, margin):
    """Upper and lower bounds on max_p fl(|F[p+d] - F[p]|^2) for every d = lead + (j,).

    ``X`` holds the centred samples with the band's axis last (res + (C,)),
    ``lead`` the band's n-1 leading offset entries.  Both bounds come back
    indexed by j + R - 1, j = -(R-1) .. R-1.
    """
    far, near = _pair_slices(lead)
    R = X.shape[-2]
    A = X[far].reshape(-1, R, X.shape[-1])
    B = X[near].reshape(A.shape)
    one = np.ones(A.shape[:-1] + (1,))
    # [-2a, |a|^2, 1] . [b, 1, |b|^2] = |a - b|^2: one product per row forms
    # the whole Gram entry; M[s, t] is its max over rows, a block of rows at
    # a time.  The pair (s, t) has last-axis offset j = s - t
    Ga = np.concatenate([-2.0 * A, np.square(A).sum(-1, keepdims=True), one], axis=-1)
    Gb = np.concatenate([B, one, np.square(B).sum(-1, keepdims=True)], axis=-1).transpose(0, 2, 1)
    step = max(1, _GRAM_ENTRIES // (R * R))
    blocks = (np.matmul(Ga[r : r + step], Gb[r : r + step]).max(0) for r in range(0, len(A), step))
    M = functools.reduce(np.maximum, blocks)
    top = _diagonals(M, -np.inf).max(axis=0)
    return top + margin, np.maximum(top - margin, 0.0)


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
    if not np.all(np.isfinite(vals)):
        bad = np.flatnonzero(~np.isfinite(vals.reshape(len(vals), -1)).all(axis=-1))
        raise SamplingError(f"non-finite values in Hölder samples (first bad node index {int(bad[0])})")
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
        sq = np.square(np.subtract.outer(x, x))  # [p + j, p]: column j + R - 1
        at = _diagonals(sq, np.nan)[:, len(x) - 1 :]
        ext.append((np.fmin.reduce(at, axis=0), np.fmax.reduce(at, axis=0)))
    span = np.abs(offs)
    d2_lo = np.stack([lo[span[:, k]] for k, (lo, _) in enumerate(ext)], axis=-1).sum(-1)
    d2_hi = np.stack([hi[span[:, k]] for k, (_, hi) in enumerate(ext)], axis=-1).sum(-1)
    scale = np.maximum(d2_lo, f2) ** (0.5 * alpha)

    # legs: leg_hi[k] and leg_lo[k] bound max_p |F[p + j e_k] - F[p]|^2 at
    # each offset's j = |d_k|, from band 0 with axis k moved last, on samples
    # centred at their midrange.  A staircase path from p to p + d inside
    # their box gives |F[p+d] - F[p]| <= sum_k leg(|d_k|), which bounds every
    # offset at once.
    X = (vals - 0.5 * (vals.max(axis=0) + vals.min(axis=0))).reshape(res + (-1,))
    margin = _gram_margin(X)
    leg_hi, leg_lo = [], []
    for k, r in enumerate(res):
        hi, lo = _band_bounds(np.moveaxis(X, k, -2), (0,) * (n - 1), margin)
        leg_hi.append(np.concatenate([[0.0], hi[r:]])[span[:, k]])
        leg_lo.append(np.concatenate([[0.0], lo[r:]])[span[:, k]])
    leg_bound = sum(np.sqrt(g) for g in leg_hi) / scale

    # pass 1: the per-offset bound max_p |F[p+d] - F[p]| / max(d2_lo, f2)^(a/2);
    # an axis-aligned offset's maximum is its leg.  An offset whose pairs all
    # clear the floor proves the result is at least its maximum over its
    # largest pair distance (``reach`` is that factor): ``low``, from lower
    # bounds only.  The bands go best leg bound first, until no leg bound
    # reaches ``low``; a band's bounds replace its offsets' upper bounds.
    aligned = (span != 0).sum(axis=1) == 1
    m2 = np.where(aligned, sum(leg_hi), 0.0)
    reach = np.where(d2_lo >= f2, (1.0 - _BOUND_SLACK) / d2_hi ** (0.5 * alpha), 0.0)
    low = float((np.sqrt(np.where(aligned, sum(leg_lo), 0.0)) * reach).max())
    # offsets with no pair above the floor add 0; bands are runs of offs
    walk = ~aligned & (d2_hi >= f2)
    first = np.flatnonzero(np.r_[True, (offs[1:, :-1] != offs[:-1, :-1]).any(axis=1)])
    band_bound = np.maximum.reduceat(np.where(walk, leg_bound, 0.0), first)
    stops = np.r_[first[1:], len(offs)]
    R = res[-1]
    for b in np.argsort(-band_bound, kind="stable"):
        if band_bound[b] == 0.0 or band_bound[b] * (1.0 + _BOUND_SLACK) < low:
            break
        i = slice(first[b], stops[b])
        hi, lo = _band_bounds(X, offs[first[b], :-1].tolist(), margin)
        j = offs[i, -1] + R - 1
        m2[i] = hi[j]
        low = max(low, float((np.sqrt(lo[j]) * reach[i]).max()))
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

