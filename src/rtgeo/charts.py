"""Coordinate charts, uniform grids, sampled fields, interpolation, CSV I/O.

Index conventions used throughout the package:

* grid values are stored with the grid axes first, component axes last,
  shape ``(*res, *comp)``; flattening is C-order (point-major, components
  lexicographic) which fixes the CSV layout.
* a connection field ``G[mu, rho, nu]`` carries the derivative (form) index
  in the middle slot and the matrix column in the last slot, so the
  inhomogeneous transformation term reads ``Jinv[mu,a] @ D_rho J[a,nu]``.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigurationError,
    DomainExit,
    JacobianError,
    SamplingError,
    ShapeError,
    SolverError,
)

TAU_INV = 1e-9        # pointwise |J @ Jinv - I| bound
DET_FLOOR = 1e-6      # |det J| lower bound


def _d1(m, h):
    """1-D first derivative: centered interior, one-sided second order at ends."""
    inner = np.arange(1, m - 1, dtype=np.int32)
    indptr = np.concatenate([[0], 3 + 2 * np.arange(m - 1), [2 * m + 2]]).astype(np.int32)
    indices = np.concatenate([[0, 1, 2], np.stack([inner - 1, inner + 1], axis=1).ravel(), [m - 3, m - 2, m - 1]])
    data = np.concatenate([[-1.5 / h, 2.0 / h, -0.5 / h], np.tile([-0.5 / h, 0.5 / h], m - 2), [0.5 / h, -2.0 / h, 1.5 / h]])
    return sp.csr_matrix((data, indices.astype(np.int32), indptr), shape=(m, m))


class Chart:
    """Rectangular coordinate domain with a uniform tensor-product grid.

    Also owns the discrete differential operators (sparse axis derivatives,
    the Laplacian, and the per-axis eigenbases of the Dirichlet solve); these
    are cached lazily so that charts stay cheap to construct.
    """

    def __init__(self, lo, hi, res):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        res = tuple(int(r) for r in res)
        n = len(res)
        if n < 2:
            raise ConfigurationError(f"chart dimension must be >= 2, got {n}")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ConfigurationError("bounds do not match dimension")
        if any(r < 8 for r in res):
            raise ConfigurationError(f"resolutions must be >= 8, got {res}")
        if np.any(hi <= lo):
            raise ConfigurationError("empty interval in chart bounds")
        self.lo = lo
        self.hi = hi
        self.res = res
        self.n = n
        self.h = (hi - lo) / (np.asarray(res) - 1)
        self.npoints = int(np.prod(res))
        self.axes = tuple(np.linspace(lo[k], hi[k], res[k]) for k in range(n))

    @cached_property
    def nodes(self):
        """Node coordinates, shape (*res, n)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    @cached_property
    def interior_mask(self):
        m = np.zeros(self.res, dtype=bool)
        m[(slice(1, -1),) * self.n] = True
        return m

    @cached_property
    def quad_weights(self):
        """Trapezoidal quadrature weights (integrate constants exactly)."""
        w = np.ones(self.res)
        for ax in range(self.n):
            edge = [slice(None)] * self.n
            for end in (0, -1):
                edge[ax] = end
                w[tuple(edge)] *= 0.5
        return w * self.voxel()

    @cached_property
    def diff_ops(self):
        """Sparse first-derivative operator per axis on flattened grid values."""
        ops = []
        for ax in range(self.n):
            mats = [sp.identity(self.res[k], format="csr") for k in range(self.n)]
            mats[ax] = _d1(self.res[ax], self.h[ax])
            M = mats[0]
            for k in range(1, self.n):
                M = sp.kron(M, mats[k], format="csr")
            ops.append(M.tocsr())
        return tuple(ops)

    @cached_property
    def lap_op(self):
        """Delta = delta d + d delta collapses to -sum_j D_j^2 componentwise."""
        L = None
        for D in self.diff_ops:
            T = D @ D
            L = T if L is None else L + T
        return (-L).tocsr()

    @cached_property
    def _dirichlet_eig(self):
        """Per axis (V, V^-1) with (D @ D)[1:-1, 1:-1] = V diag(lam) V^-1, and
        the eigenvalues -sum_j lam_j of Delta's interior block, shape res - 2."""
        bases, denom = [], 0.0
        for ax, (m, h) in enumerate(zip(self.res, self.h)):
            D = _d1(m, h)
            lam, V = np.linalg.eig((D @ D)[1:-1, 1:-1].toarray())
            if np.iscomplexobj(lam):
                raise SolverError(f"axis {ax}, m = {m}: the interior block of D^2 has a non-real eigenpair")
            bases.append((V, np.linalg.inv(V)))
            denom = np.subtract.outer(denom, lam)
        return bases, denom

    # -- operator application on (*res, *comp) arrays --------------------

    def deriv(self, values, ax):
        shp = values.shape
        out = self.diff_ops[ax] @ values.reshape(self.npoints, -1)
        return out.reshape(shp)

    def grad(self, values):
        """Axis derivatives stacked last: (*res, *comp) -> (*res, *comp, n)."""
        return np.stack([self.deriv(values, ax) for ax in range(self.n)], axis=-1)

    def laplace(self, values):
        shp = values.shape
        out = self.lap_op @ values.reshape(self.npoints, -1)
        return out.reshape(shp)

    def dirichlet_solve(self, source, boundary):
        """Solve Delta u = source at interior nodes, u = boundary on the rim.

        Fast diagonalization (Lynch, Rice & Thomas 1964): on interior nodes
        Delta is the Kronecker sum of the axes' -D_j^2 blocks, and the rim
        values move into the right-hand side.  Each axis product is one GEMM
        that moves the axis from first to last (V^-1) or last to first (V).
        """
        inner = (slice(1, -1),) * self.n
        u = np.array(np.broadcast_to(boundary, source.shape), dtype=float)
        u[inner] = 0.0
        rhs = (source - self.laplace(u))[inner]
        bases, denom = self._dirichlet_eig
        x = rhs
        for (_, Vinv), p in zip(bases, denom.shape):
            x = x.reshape(p, -1).T @ Vinv.T
        x = x.reshape((-1,) + denom.shape) / denom
        for (V, _), p in zip(bases[::-1], denom.shape[::-1]):
            x = V @ x.reshape(-1, p).T
        u[inner] = x.reshape(rhs.shape)
        return u

    def voxel(self):
        return float(np.prod(self.h))

    def contains(self, points):
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def first_outside(self, points):
        """Index of the first point off the chart, or None; a NaN coordinate is off."""
        pts = np.atleast_2d(points)
        if ((pts >= self.lo) & (pts <= self.hi)).all():
            return None
        return int(self.contains(pts).argmin())

    @cached_property
    def corner_offsets(self):
        """C-order node strides, and each cell corner's flat offset from the
        cell's lower node in :func:`_corner_nodes` order."""
        strides = np.array([int(np.prod(self.res[k + 1 :])) for k in range(self.n)])
        return strides, [int(np.dot(c, strides)) for c in _corner_nodes((0,) * self.n)]

    def sub_chart(self):
        """Centered sub-chart at half the radius, grid-aligned."""
        cut = [int(round(r * 0.25)) for r in self.res]
        lo = self.lo + np.array([c * self.h[k] for k, c in enumerate(cut)])
        hi = self.hi - np.array([c * self.h[k] for k, c in enumerate(cut)])
        res = tuple(self.res[k] - 2 * cut[k] for k in range(self.n))
        return Chart(lo, hi, res), tuple(slice(c, self.res[k] - c) for k, c in enumerate(cut))

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.res == other.res
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self):
        b = "x".join(f"[{a:g},{b_:g}]" for a, b_ in zip(self.lo, self.hi))
        return f"Chart({b}, res={self.res})"


def make_chart(n, bounds, resolution):
    """Build a chart from per-axis (lo, hi) bounds and resolutions."""
    bounds = [tuple(b) for b in bounds]
    if len(bounds) != n or len(resolution) != n:
        raise ConfigurationError("bounds/resolution length does not match dimension")
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    return Chart(lo, hi, resolution)


@dataclass
class GridField:
    """Sampled field on a chart; values shape (*chart.res, *comp_shape).

    ``variance`` tags each component axis 'up' | 'down' | 'form'; purely
    metadata for dumps and shape checks.
    """

    chart: Chart
    values: np.ndarray
    variance: tuple = field(default=())

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[: self.chart.n] != self.chart.res:
            raise ShapeError(
                f"values grid shape {self.values.shape[:self.chart.n]} != chart res {self.chart.res}"
            )
        if len(self.variance) != self.values.ndim - self.chart.n:
            self.variance = tuple(["down"] * (self.values.ndim - self.chart.n))
        if not np.all(np.isfinite(self.values)):
            flat = self.values.reshape(self.chart.res + (-1,))
            bad = np.argwhere(~np.isfinite(flat).all(axis=-1))
            raise SamplingError(f"non-finite values in field (first bad node index {tuple(bad[0])})")

    @property
    def comp_shape(self):
        return self.values.shape[self.chart.n :]

    def copy(self, values=None):
        return GridField(self.chart, self.values.copy() if values is None else values, self.variance)


def sample_field(chart, evaluator, comp_shape):
    """Pointwise evaluation of a closed-form evaluator at grid nodes.

    ``evaluator(points)`` receives an (N, n) array and must return
    (N, *comp_shape) values.
    """
    pts = chart.nodes.reshape(-1, chart.n)
    vals = np.asarray(evaluator(pts), dtype=float)
    want = (pts.shape[0],) + tuple(comp_shape)
    if vals.shape != want:
        raise ShapeError(f"evaluator returned {vals.shape}, expected {want}")
    if not np.all(np.isfinite(vals)):
        bad = ~np.isfinite(vals.reshape(vals.shape[0], -1)).all(axis=-1)
        first_bad = int(np.where(bad)[0][0])
        raise SamplingError(f"evaluator produced non-finite value at node {pts[first_bad]}")
    return GridField(chart, vals.reshape(chart.res + tuple(comp_shape)))


def _corners(pairs, combine, start):
    """Fold one (lower, upper) pair per axis into one value per grid-cell corner.

    Corner c takes axis k's upper entry when bit k of c is set, so axis 0
    varies fastest, and its value is ``combine`` applied left to right over
    the axes from ``start``.
    """
    out = [start]
    for pair in pairs:
        out = [combine(p, e) for e in pair for p in out]
    return out


def _corner_nodes(i0):
    """Node index of each corner of the cell whose lower node is ``i0``."""
    return _corners([(i, i + 1) for i in i0], lambda idx, j: idx + (j,), ())


def _corner_weights(frac):
    """Multilinear weight of each corner at the offsets ``frac`` into the cell:
    a left-to-right product over the axes, started from the first factor."""
    return _corners([(1 - f, f) for f in frac], lambda p, e: e if p is None else p * e, None)


def interpolate(fld, points, clip=False):
    """Multilinear interpolation; exact on multilinear data.

    Raises :class:`DomainExit` for points outside the chart unless ``clip``
    (then coordinates are clamped to the boundary).  Each corner's rows are
    gathered by one ``take`` at the flat node index of the cell plus the
    corner's offset.  The sum starts from the first corner's term, so a -0.0
    survives: n = 2 reads (1-a)(1-b) v00 + a(1-b) v10 + (1-a)b v01 + ab v11.
    """
    chart = fld.chart
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    off = chart.first_outside(pts)
    if off is not None:
        if not clip:
            raise DomainExit(pts[off])
        pts = np.clip(pts, chart.lo, chart.hi)
    t = (pts - chart.lo) / chart.h
    i0 = np.minimum(t.astype(int), np.asarray(chart.res) - 2)
    frac = t - i0
    strides, offsets = chart.corner_offsets
    base = i0 @ strides
    flat = fld.values.reshape(chart.npoints, -1)
    (_, *offsets), (w, *weights) = offsets, _corner_weights(frac.T[:, :, None])
    out = w * flat.take(base, axis=0)  # the first corner is the cell's lower node
    for off, w in zip(offsets, weights):
        out += w * flat.take(base + off, axis=0)
    out = out.reshape(pts.shape[:1] + fld.comp_shape)
    return out[0] if single else out


# -- specialized field wrappers ----------------------------------------------


def connection_field(chart, values):
    """Connection components G[mu, rho, nu]; no symmetry assumed."""
    n = chart.n
    f = GridField(chart, values, ("up", "down", "down"))
    if f.comp_shape != (n, n, n):
        raise ShapeError(f"connection components must be (n,n,n), got {f.comp_shape}")
    return f


@dataclass
class JacobianField:
    """Forward Jacobian samples J[mu,nu] = dy^mu/dx^nu with inverse and det."""

    chart: Chart
    J: np.ndarray
    Jinv: np.ndarray = None
    det: np.ndarray = None

    def __post_init__(self):
        n = self.chart.n
        if self.J.shape != self.chart.res + (n, n):
            raise ShapeError("jacobian samples must be (*res, n, n)")
        self.det = np.linalg.det(self.J)
        if np.abs(self.det).min() < DET_FLOOR:
            raise JacobianError(
                f"|det J| fell below {DET_FLOOR:g} (min {np.abs(self.det).min():.3e})"
            )
        if self.Jinv is None:
            self.Jinv = np.linalg.inv(self.J)
        from .calculus import contract  # calculus imports this module

        eye = np.eye(n)
        err = np.abs(contract("...ij,...jk->...ik", self.J, self.Jinv) - eye).max()
        if err > TAU_INV:
            raise JacobianError(f"J @ Jinv deviates from identity by {err:.2e}")

    def at(self, pts, clip=False):
        """J interpolated at x-chart points, as :func:`interpolate` does it."""
        return interpolate(GridField(self.chart, self.J), pts, clip=clip)


@dataclass
class CoordinateMap:
    """Forward map samples y(x) on the x-chart plus inverse samples x(y)."""

    x_chart: Chart
    y_chart: Chart
    forward: np.ndarray       # (*x_res, n)
    inverse: np.ndarray       # (*y_res, n)
    roundtrip_error: float = 0.0

    def forward_at(self, pts, clip=False):
        return interpolate(GridField(self.x_chart, self.forward), pts, clip=clip)

    def inverse_at(self, pts, clip=False):
        return interpolate(GridField(self.y_chart, self.inverse), pts, clip=clip)


@dataclass
class ForceField:
    """Closed-form forcing term K(t, x, v) with a declared continuity class."""

    evaluator: callable
    continuity: str = "lipschitz"      # 'lipschitz' | 'hoelder'
    constant: float = 0.0
    alpha: float = 1.0
    notes: str = ""

    def __call__(self, t, x, v):
        out = np.asarray(self.evaluator(t, x, v), dtype=float)
        if not np.all(np.isfinite(out)):
            raise SamplingError(f"force evaluator non-finite at t={t}")
        return out


# -- CSV dumps ---------------------------------------------------------------


def _fmt(x):
    return np.format_float_scientific(x, precision=16, unique=False)


def dump_field(fld, path):
    """Write the documented CSV dump: header line, then coords + components."""
    chart = fld.chart
    bounds = ",".join(f"{float(lo)!r}:{float(hi)!r}" for lo, hi in zip(chart.lo, chart.hi))
    res = ",".join(str(r) for r in chart.res)
    shape = ",".join(f"{s}{v[0]}" for s, v in zip(fld.comp_shape, fld.variance))
    pts = chart.nodes.reshape(-1, chart.n)
    comps = fld.values.reshape(pts.shape[0], -1)
    with open(path, "w") as fh:
        fh.write(f"# chart n={chart.n} bounds={bounds} res={res} shape={shape}\n")
        for i in range(pts.shape[0]):
            row = [_fmt(v) for v in pts[i]] + [_fmt(v) for v in comps[i]]
            fh.write(",".join(row) + "\n")


def load_field(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# chart"):
            raise ConfigurationError(f"{path}: missing chart header")
        meta = dict(tok.split("=", 1) for tok in header[2:].split() if "=" in tok)
        n = int(meta["n"])
        bounds = [tuple(float(v) for v in b.split(":")) for b in meta["bounds"].split(",")]
        res = tuple(int(r) for r in meta["res"].split(","))
        shape_tokens = meta["shape"].split(",") if meta["shape"] else []
        comp_shape = tuple(int(t[:-1]) for t in shape_tokens)
        variance = tuple({"u": "up", "d": "down", "f": "form"}[t[-1]] for t in shape_tokens)
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    chart = make_chart(n, bounds, res)
    comps = rows[:, n:]
    return GridField(chart, comps.reshape(chart.res + comp_shape), variance)


def dump_map(cmap, path_forward, path_inverse):
    """Paired CSV dump of a coordinate map's forward and inverse samples."""
    dump_field(GridField(cmap.x_chart, cmap.forward, ("up",)), path_forward)
    dump_field(GridField(cmap.y_chart, cmap.inverse, ("up",)), path_inverse)


def dump_curve(curve, path):
    n = curve.positions.shape[1]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"gamma_{k+1}" for k in range(n)) + "," + ",".join(f"v_{k+1}" for k in range(n)) + "\n")
        for i in range(len(curve.times)):
            vals = [curve.times[i], *curve.positions[i], *curve.velocities[i]]
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
