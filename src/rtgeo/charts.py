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
from functools import cached_property, reduce

import numpy as np

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


def _stencil_tables(h):
    """:func:`_apply_rows` tables of D, one-sided second order at the ends and
    centered inside, and of -D @ D."""
    D = np.array([[[-1.5, 2.0, -0.5]], [[0.5, -2.0, 1.5]]]) / h, ((-1, 1), (-0.5 / h, 0.5 / h))
    L = -_apply_rows(_apply_rows(np.eye(8), D, 0), D, 0)
    return D, (np.stack([L[:2, :4], L[-2:, -4:]]), ((-2, 0, 2), L[2, [0, 2, 4]]))


def _apply_rows(x, rows, axis):
    """Apply a banded matrix along ``axis`` of ``x`` (shape (*res, *comp)).

    ``rows`` = (ends, (offsets, coefs)): ``ends`` holds the first and last r
    rows over the first and last w columns; row i between reads ``coefs`` at
    columns i + ``offsets``.  Each node sums as a CSR matvec does: from 0,
    its row's terms in column order.  The interior terms are contiguous
    shifted flat slices; the end rows (t and m - r + t of each line) then
    overwrite the nodes those got wrong."""
    ends, (offsets, coefs) = rows
    (_, r, w), shape, m = ends.shape, x.shape, x.shape[axis]
    x = np.ascontiguousarray(x).reshape(-1, m, int(np.prod(shape[axis + 1 :])))
    out, q, xf, tmp = np.zeros(x.shape), x.shape[2], x.reshape(-1), None
    inner = out.reshape(-1)[r * q : -r * q]
    for o, c in zip(offsets, coefs):
        tmp = np.multiply(xf[(r + o) * q : xf.size - (r - o) * q], c, out=tmp)
        inner += tmp
    s0, s1, s2 = out.strides
    both = np.ndarray((len(out), 2, r, q), float, out, 0, (s0, s1 * (m - r), s1, s2))
    both[...] = 0.0
    for j in range(w):  # x rows j and m - w + j
        both += ends[:, :, j, None] * x[:, j : m - w + j + 1 : m - w, None]
    return out.reshape(shape)


def axis_products(x, mats):
    """Apply ``mats[k]`` along axis k of ``x`` (shape (*res, *rest)), one GEMM per axis.

    Each product moves the axis it acts on from first to last, so the result
    is 2-D with the ``rest`` axes, flattened, leading the res axes in order.
    """
    for M in mats:
        x = x.reshape(M.shape[1], -1).T @ M.T
    return x


class Chart:
    """Rectangular coordinate domain with a uniform tensor-product grid.

    Also owns the discrete differential operators: stencil axis derivatives,
    the Laplacian, and the per-axis eigenbases of the Dirichlet solve, which
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
        self._stencils = [_stencil_tables(h) for h in self.h]

    @cached_property
    def nodes(self):
        """Node coordinates, shape (*res, n)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

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
    def _dirichlet_eig(self):
        """Per axis (V, V^-1) with (D @ D)[1:-1, 1:-1] = V diag(lam) V^-1, and
        the eigenvalues -sum_j lam_j of Delta's interior block, shape res - 2.
        Axes with the same (m, h) have the same D and share one decomposition."""
        bases, denom, done = [], 0.0, {}
        for ax, (m, h, (D, _)) in enumerate(zip(self.res, self.h, self._stencils)):
            if (m, h) not in done:
                lam, V = np.linalg.eig(_apply_rows(_apply_rows(np.eye(m), D, 0), D, 0)[1:-1, 1:-1])
                if np.iscomplexobj(lam):
                    raise SolverError(f"axis {ax}, m = {m}: the interior block of D^2 has a non-real eigenpair")
                done[m, h] = lam, (V, np.linalg.inv(V))
            lam, basis = done[m, h]
            bases.append(basis)
            denom = np.subtract.outer(denom, lam)
        return bases, denom

    # -- operator application on (*res, *comp) arrays --------------------

    def deriv(self, values, ax):
        return _apply_rows(values, self._stencils[ax][0], ax)

    def grad(self, values):
        """Axis derivatives stacked last: (*res, *comp) -> (*res, *comp, n)."""
        return np.stack([self.deriv(values, ax) for ax in range(self.n)], axis=-1)

    def laplace(self, values):
        """Delta = delta d + d delta collapses to -sum_j D_j^2 componentwise."""
        return reduce(np.add, [_apply_rows(values, L, ax) for ax, (_, L) in enumerate(self._stencils)])

    def dirichlet_solve(self, source, boundary):
        """Solve Delta u = source at interior nodes, u = boundary on the rim.

        Fast diagonalization (Lynch, Rice & Thomas 1964): on interior nodes
        Delta is the Kronecker sum of the axes' -D_j^2 blocks, and the rim
        values move into the right-hand side.  Each axis product is one GEMM
        that moves the axis from first to last (V^-1) or last to first (V).
        """
        inner = self.inset((1,) * self.n)
        u = np.array(np.broadcast_to(boundary, source.shape), dtype=float)
        u[inner] = 0.0
        rhs = source[inner] - self._rim_lift(u)
        bases, denom = self._dirichlet_eig
        x = axis_products(rhs, [Vinv for _, Vinv in bases])
        x = x.reshape((-1,) + denom.shape) / denom
        for (V, _), p in zip(bases[::-1], denom.shape[::-1]):
            x = V @ x.reshape(-1, p).T
        u[inner] = x.reshape(rhs.shape)
        return u

    def _rim_lift(self, u):
        """``laplace(u)[1:-1, ...]`` for u zero at interior nodes, bit for bit,
        read from the rim hyperplanes alone.

        Along an axis of m nodes, interior rows 1 and 2 read node 0 (an end row
        and the stencil's offset -2), rows m - 3 and m - 2 read node m - 1, and
        no row reads both (m >= 8).  So each interior node gets at most one
        nonzero term per axis, and adding those in axis order onto +0.0 sums
        as the stencil rows and ``laplace``'s axis sum do.
        """
        inner = self.inset((1,) * self.n)
        lift = np.zeros(tuple(r - 2 for r in self.res) + u.shape[self.n :])
        for ax, (m, (_, (ends, (_, coefs)))) in enumerate(zip(self.res, self._stencils)):
            reads = ((1, ends[0, 1, 0], 0), (2, coefs[0], 0), (m - 3, coefs[-1], -1), (m - 2, ends[1, 0, -1], -1))
            for row, c, rim in reads:
                at, src = [slice(None)] * self.n, list(inner)
                at[ax], src[ax] = row - 1, rim
                lift[tuple(at)] += c * u[tuple(src)]
        return lift

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

    def inset(self, cells):
        """Node slices that drop ``cells[k]`` nodes at each end of axis k."""
        return tuple(slice(c, m - c) for c, m in zip(cells, self.res))

    def window(self, sl):
        """The chart on the node slices ``sl``; its bounds are the parent's node coordinates."""
        axes = [ax[s] for ax, s in zip(self.axes, sl)]
        return Chart([a[0] for a in axes], [a[-1] for a in axes], [len(a) for a in axes])

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
            raise SamplingError(f"non-finite values in field (first bad node index {tuple(bad[0].tolist())})")

    @property
    def comp_shape(self):
        return self.values.shape[self.chart.n :]

    def copy(self, values):
        return GridField(self.chart, values, self.variance)


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

    ``fld`` needs only a ``chart`` and node-major ``values``: a
    :class:`GridField` or a :class:`JacobianField`.  Raises
    :class:`DomainExit` for points outside the chart unless ``clip``
    (then coordinates are clamped to the boundary); a point with a NaN
    coordinate has no clamp and raises either way.  Each corner's rows are
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
        nan = np.isnan(pts).any(axis=-1)
        if nan.any():
            raise DomainExit(pts[int(nan.argmax())])
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
    out = out.reshape(pts.shape[:1] + fld.values.shape[chart.n :])
    return out[0] if single else out


# -- specialized field wrappers ----------------------------------------------


def connection_field(chart, values):
    """Connection components G[mu, rho, nu]; no symmetry assumed."""
    n = chart.n
    f = GridField(chart, values, ("up", "down", "down"))
    if f.comp_shape != (n, n, n):
        raise ShapeError(f"connection components must be (n,n,n), got {f.comp_shape}")
    return f


def sub_connection(conn, sl):
    """``conn`` re-sliced at the node slices ``sl`` onto their window of its chart."""
    return connection_field(conn.chart.window(sl), np.ascontiguousarray(conn.values[sl]))


def _minor(J, rows, cols):
    """Determinant of J[..., rows, cols] by Laplace expansion along its first row."""
    if not rows:
        return np.ones(J.shape[:-2])
    if len(rows) == 1:
        return J[..., rows[0], cols[0]]
    out = None
    for k, c in enumerate(cols):
        term = J[..., rows[0], c] * _minor(J, rows[1:], cols[:k] + cols[k + 1 :])
        out = term if out is None else (out - term if k % 2 else out + term)
    return out


def det_inverse(J):
    """(det, inverse) of a node batch J of shape (*res, n, n), closed form.

    Both come from one set of cofactors C_ij = (-1)^(i+j) M_ij, each minor
    M_ij expanded over component slices: det = sum_j J_0j C_0j and
    inverse_ji = C_ij / det.  Raises :class:`JacobianError` naming the first
    node (C order) where det is 0 or not finite, before anything is divided.
    """
    idx = tuple(range(J.shape[-1]))
    adj = np.empty(J.shape)
    for i in idx:
        for j in idx:
            minor = _minor(J, idx[:i] + idx[i + 1 :], idx[:j] + idx[j + 1 :])
            adj[..., j, i] = -minor if (i + j) % 2 else minor
    det = J[..., 0, 0] * adj[..., 0, 0]
    for j in idx[1:]:
        det = det + J[..., 0, j] * adj[..., j, 0]
    bad = ~np.isfinite(det) | (det == 0)
    if bad.any():
        node = np.unravel_index(int(bad.argmax()), det.shape)
        raise JacobianError(f"det J = {det[node]} at node {tuple(int(i) for i in node)}")
    return det, np.divide(adj, det[..., None, None], out=adj)


@dataclass
class JacobianField:
    """Forward Jacobian samples J[mu,nu] = dy^mu/dx^nu with inverse and det."""

    chart: Chart
    J: np.ndarray
    Jinv: np.ndarray = field(init=False)
    det: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.chart.n
        if self.J.shape != self.chart.res + (n, n):
            raise ShapeError("jacobian samples must be (*res, n, n)")
        self.det, self.Jinv = det_inverse(self.J)
        if np.abs(self.det).min() < DET_FLOOR:
            raise JacobianError(
                f"|det J| fell below {DET_FLOOR:g} (min {np.abs(self.det).min():.3e})"
            )
        from .calculus import contract  # calculus imports this module

        eye = np.eye(n)
        err = np.abs(contract("...ij,...jk->...ik", self.J, self.Jinv) - eye).max()
        if err > TAU_INV:
            raise JacobianError(f"J @ Jinv deviates from identity by {err:.2e}")

    @property
    def values(self):
        """The J samples, which :func:`interpolate` reads in place as a field's values."""
        return self.J


@dataclass
class ForceField:
    """Closed-form forcing term K(t, x, v), checked finite at every call."""

    evaluator: callable

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
    """Read a :func:`dump_field` CSV.  A file that cannot be opened, a missing
    header key, a value that does not parse, a body without one row of
    n + prod(shape) columns per node, or a non-finite sample raises
    :class:`ConfigurationError` naming the file."""
    try:
        fh = open(path)
    except OSError as e:
        raise ConfigurationError(f"{path}: cannot read field file: {e.strerror}") from e
    with fh:
        header = fh.readline().strip()
        if not header.startswith("# chart"):
            raise ConfigurationError(f"{path}: missing chart header")
        meta = dict(tok.split("=", 1) for tok in header[2:].split() if "=" in tok)
        try:
            n = int(meta["n"])
            bounds = [(float(lo), float(hi)) for lo, hi in (b.split(":") for b in meta["bounds"].split(","))]
            res = tuple(int(r) for r in meta["res"].split(","))
            shape_tokens = meta["shape"].split(",") if meta["shape"] else []
            comp_shape = tuple(int(t[:-1]) for t in shape_tokens)
            variance = tuple(("up", "down", "form")["udf".index(t[-1])] for t in shape_tokens)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except KeyError as e:
            raise ConfigurationError(f"{path}: chart header has no {e.args[0]}=") from e
        except ValueError as e:
            raise ConfigurationError(f"{path}: does not parse: {e}") from e
    chart, columns = make_chart(n, bounds, res), n + int(np.prod(comp_shape))
    if rows.shape != (chart.npoints, columns):
        raise ConfigurationError(f"{path}: {rows.shape[0]} rows of {rows.shape[1]} columns, not {chart.npoints} of {columns}")
    try:
        return GridField(chart, rows[:, n:].reshape(chart.res + comp_shape), variance)
    except SamplingError as e:
        raise ConfigurationError(f"{path}: {e}") from e


def dump_curve(curve, path):
    n = curve.positions.shape[1]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"gamma_{k+1}" for k in range(n)) + "," + ",".join(f"v_{k+1}" for k in range(n)) + "\n")
        for i in range(len(curve.times)):
            vals = [curve.times[i], *curve.positions[i], *curve.velocities[i]]
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
