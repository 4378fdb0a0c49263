"""Riemann curvature of a connection, weak/distributional form, tensoriality.

Curvature storage: R[tau, mu, nu, rho] with tau the up index, antisymmetric
in (nu, rho).  The strong evaluation is R = d Gamma + Gamma ^ Gamma with the
1-form layout of the calculus module; the weak form moves the curl
derivatives onto a smooth compactly supported test function so no derivative
of Gamma is ever taken.
"""

from dataclasses import dataclass
import json

import numpy as np

from .calculus import (
    MatrixForm,
    connection_form,
    contract,
    exterior_derivative,
    full_antisymmetric,
    lp_norm,
    mollify,
    wedge,
)
from .charts import Chart, GridField, connection_field, interpolate
from .errors import FittingError, ShapeError, TestFunctionError


@dataclass
class CurvatureField:
    """Sampled R[tau, mu, nu, rho]; provenance in {'strong','weak','transformed'}."""

    chart: Chart
    values: np.ndarray
    provenance: str = "strong"

    def __post_init__(self):
        n = self.chart.n
        if self.values.shape != self.chart.res + (n, n, n, n):
            raise ShapeError("curvature components must be (*res, n, n, n, n)")

    def as_field(self):
        return GridField(self.chart, self.values, ("up", "down", "down", "down"))


@dataclass
class TestFunction:
    """Compactly supported bump in |x - center| < radius.

    profile 'exp' is the classic exp(-1/(1 - r^2)) mollifier shape; 'poly'
    is (1 - r^2)^4, whose tamer derivatives make grid quadrature of its
    functionals far more accurate (used by probe-style checks).
    """

    center: np.ndarray
    radius: float
    profile: str = "exp"

    __test__ = False  # keep pytest collection away

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)

    def check_support(self, chart):
        """The support ball must clear the chart boundary by one cell."""
        margin = chart.h.max()
        lo_ok = np.all(self.center - self.radius >= chart.lo + margin)
        hi_ok = np.all(self.center + self.radius <= chart.hi - margin)
        if not (lo_ok and hi_ok):
            raise TestFunctionError(
                f"support ball B({self.center}, {self.radius:g}) touches the chart boundary"
            )

    def __call__(self, pts):
        r2 = ((np.atleast_2d(pts) - self.center) ** 2).sum(axis=-1) / self.radius ** 2
        out = np.zeros(r2.shape)
        inside = r2 < 1.0
        if self.profile == "poly":
            out[inside] = (1.0 - r2[inside]) ** 4
        else:
            out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        diff = pts - self.center
        r2 = (diff ** 2).sum(axis=-1) / self.radius ** 2
        out = np.zeros(pts.shape)
        inside = r2 < 1.0
        if self.profile == "poly":
            factor = -8.0 * (1.0 - r2[inside]) ** 3 / self.radius ** 2
        else:
            psi = np.exp(-1.0 / (1.0 - r2[inside]))
            # d/dr2 [-1/(1-r2)] = -1/(1-r2)^2
            factor = psi * (-1.0 / (1.0 - r2[inside]) ** 2) * (2.0 / self.radius ** 2)
        out[inside] = factor[:, None] * diff[inside]
        return out


def bump_basis(chart, per_axis=5):
    """Grid of localized bumps covering the chart interior.

    Centers sit inside a 14% inset of each span and neighbouring supports
    overlap by 60%; the common radius is capped so every support ball clears
    the boundary by two cells regardless of resolution.
    """
    margin, overlap = 0.14, 1.6
    spans = chart.hi - chart.lo
    centers_1d = [
        np.linspace(chart.lo[k] + margin * spans[k], chart.hi[k] - margin * spans[k], per_axis)
        for k in range(chart.n)
    ]
    spacing = min(
        (c[1] - c[0]) if len(c) > 1 else spans[k] for k, c in enumerate(centers_1d)
    )
    cap = margin * float(spans.min()) - 2.5 * float(chart.h.max())
    radius = min(overlap * spacing / 2, cap)
    grids = np.meshgrid(*centers_1d, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)
    basis = [TestFunction(c, radius) for c in centers]
    for psi in basis:
        psi.check_support(chart)
    return basis


def riemann(conn):
    """Strong curvature: Riem = d Gamma + Gamma ^ Gamma (FD evaluation)."""
    w = connection_form(conn)
    two = exterior_derivative(w).values + wedge(w, w).values
    # axes already ordered [tau=row, mu=col, nu, rho]
    full = full_antisymmetric(MatrixForm(conn.chart, 2, two))
    return CurvatureField(conn.chart, full, "strong")


def weak_riemann(conn, psi):
    """Weak curvature functional: quadrature only, no derivatives of Gamma.

    Returns the n^4 array W[tau, mu, nu, rho] =
        -int (G[tau,mu,nu] d_rho psi - G[tau,mu,rho] d_nu psi) dx
        + int (Gamma ^ Gamma)[tau,mu,(nu,rho)] psi dx
    where G is the matrix-1-form layout of the connection.
    """
    w = connection_form(conn)
    wedge_full = full_antisymmetric(wedge(w, w))
    return _weak_functional(conn.chart, w.values, wedge_full, psi)


def _weak_functional(chart, wvals, wedge_full, psi):
    psi.check_support(chart)
    pts = chart.nodes.reshape(-1, chart.n)
    psi_vals = psi(pts)
    psi_grad = psi.gradient(pts)
    wv = wvals.reshape((chart.npoints,) + wvals.shape[chart.n :])
    wf = wedge_full.reshape((chart.npoints,) + wedge_full.shape[chart.n :])
    # A[t,m,nu,rho] = sum_N w[N,t,m,rho] dpsi[N,nu]
    A = np.einsum("Ntmr,Nv->tmvr", wv, psi_grad)
    curl_part = -(A - A.swapaxes(-1, -2))
    quad = np.einsum("Ntmij,N->tmij", wf, psi_vals)
    return chart.voxel() * (curl_part + quad)


def represent_weak(conn, basis):
    """Least-squares L^p representative of the weak curvature over a bump basis.

    The candidate field lives in the span of the basis; the Gram system is
    solved per component.  Residual is the largest mismatch between the
    fitted field's functionals (re-quadratured on the grid) and the weak
    functionals themselves.
    """
    chart = conn.chart
    if len(basis) < 16:
        raise FittingError(f"need at least 16 basis bumps, got {len(basis)}")
    pts = chart.nodes.reshape(-1, chart.n)
    psi_vals = np.stack([psi(pts) for psi in basis], axis=0)  # (k, N)
    vox = chart.voxel()
    gram = vox * psi_vals @ psi_vals.T
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        raise FittingError(f"bump basis Gram matrix is rank deficient (cond {cond:.1e})")
    n = chart.n
    w = connection_form(conn)
    wedge_full = full_antisymmetric(wedge(w, w))
    weak_vals = np.stack(
        [_weak_functional(chart, w.values, wedge_full, psi).ravel() for psi in basis], axis=0
    )  # (k, n^4)
    coef = np.linalg.solve(gram, weak_vals)  # (k, n^4)
    fitted = (psi_vals.T @ coef).reshape(chart.res + (n, n, n, n))
    refit = vox * psi_vals @ fitted.reshape(chart.npoints, -1)
    residual = float(np.abs(refit - weak_vals).max())
    return CurvatureField(chart, fitted, "weak"), residual


def transform_curvature(R, J):
    """Tensor transformation: contraction with undifferentiated Jacobians.

    R_x[t,m,n,r] = Jinv[t,d] J[a,m] J[b,n] J[c,r] R_y[d,a,b,c], pointwise on a
    shared grid (point correspondence is the caller's concern).
    """
    Jinv = np.linalg.inv(J)
    if J.shape[:-2] != R.values.shape[: R.chart.n] and J.ndim != 2:
        raise ShapeError("jacobian samples do not match the curvature grid")
    out = contract("...td,...am,...bn,...cr,...dabc->...tmnr", Jinv, J, J, J, R.values)
    return CurvatureField(R.chart, out, "transformed")


@dataclass
class LemmaReport:
    distance: float
    tolerance: float
    passed: bool
    grid: tuple
    epsilon_basis: float

    def to_json(self):
        return json.dumps(
            {
                "distance": self.distance,
                "tolerance": self.tolerance,
                "pass": self.passed,
                "grid": list(self.grid),
                "epsilon_basis": self.epsilon_basis,
            },
            sort_keys=True,
        )


def lemma_b1_check(conn_x, bundle, conn_y, p=4.0, drop_jacobian_factor=False):
    """Tensoriality of the weak curvature under the bundle's coordinate change.

    The x-side curvature is first represented over a bump basis (the
    representability credential of the underlying statement), then the check
    transports the strong components of an epsilon-mollified connection (the
    same object the statement's own argument transports), pushes them to
    y-components by the tensor law along the inverse map, and compares
    unit-mass quadrature functionals against the y-side weak functionals.
    Only component-transformation consistency is checked; absent a metric
    there is no invariant volume element and no functional equality.

    ``drop_jacobian_factor`` omits one contraction; the negative control.
    """
    chart_x = conn_x.chart
    chart_y = conn_y.chart
    basis_x = bump_basis(chart_x)
    _, res_x = represent_weak(conn_x, basis_x)
    hmax_x = float(chart_x.h.max())
    eps = max(2.05 * hmax_x, min(4.0 * hmax_x, 0.075))
    smoothed = mollify(conn_x, eps)
    Rx = riemann(connection_field(chart_x, smoothed.values))
    # blank the rim band where truncated kernels and one-sided stencils
    # corrupt the strong evaluation; probes are filtered to stay clear of it
    pad = [int(np.ceil((eps + 2 * chart_x.h[k]) / chart_x.h[k])) for k in range(chart_x.n)]
    clean = np.zeros(chart_x.res, dtype=bool)
    clean[tuple(slice(c, -c) for c in pad)] = True
    Rx.values[~clean] = 0.0
    # push to y-components at the y-nodes: x = inverse(y), contract with J(x)
    ypts = chart_y.nodes.reshape(-1, chart_y.n)
    xpts = bundle.map.inverse_at(ypts, clip=True)
    Rx_at = interpolate(Rx.as_field(), xpts, clip=True)
    J_at = bundle.jac.at(xpts, clip=True)
    Jinv_at = np.linalg.inv(J_at)
    # inverse of the x-law: R_y[d,a,b,c] = J[d,t] Jinv[m,a] Jinv[n,b] Jinv[r,c] R_x[t,m,n,r]
    if drop_jacobian_factor:
        pushed = contract("...dt,...ma,...rc,...tmbr->...dabc", J_at, Jinv_at, Jinv_at, Rx_at)
    else:
        pushed = contract(
            "...dt,...ma,...nb,...rc,...tmnr->...dabc", J_at, Jinv_at, Jinv_at, Jinv_at, Rx_at
        )
    pushed = pushed.reshape(chart_y.res + Rx_at.shape[1:])
    # functional-level comparison, unit-mass normalized so the mismatch reads
    # as a local average of curvature components; probes whose pulled-back
    # support leaves the mollifier-clean interior are skipped
    vox_y = chart_y.voxel()
    pushed_flat = pushed.reshape(chart_y.npoints, -1)
    w_y = connection_form(conn_y)
    wedge_y = full_antisymmetric(wedge(w_y, w_y))
    # wide polynomial probes: tame derivatives keep the functional quadrature
    # error far below the exp profile; fall back narrower if the pullback
    # filter starves on cramped image charts
    jinv_gain = min(float(np.abs(Jinv_at).max()), 1.5)
    pad_x = np.array([p * chart_x.h[k] for k, p in enumerate(pad)])
    spans_y = chart_y.hi - chart_y.lo
    kept = []
    for margin, rad_frac in ((0.3, 0.28), (0.32, 0.22), (0.36, 0.14)):
        centers_1d = [
            np.linspace(chart_y.lo[k] + margin * spans_y[k], chart_y.hi[k] - margin * spans_y[k], 3)
            for k in range(chart_y.n)
        ]
        radius = rad_frac * float(spans_y.min())
        grids = np.meshgrid(*centers_1d, indexing="ij")
        probes = [
            TestFunction(c, radius, profile="poly")
            for c in np.stack([g.ravel() for g in grids], axis=-1)
        ]
        kept = []
        for psi in probes:
            try:
                psi.check_support(chart_y)
            except TestFunctionError:
                continue
            xc = bundle.map.inverse_at(psi.center, clip=True)
            reach = psi.radius * 0.8 * jinv_gain + pad_x
            if np.all((xc - reach >= chart_x.lo) & (xc + reach <= chart_x.hi)):
                kept.append(psi)
        if len(kept) >= 4:
            break
    if len(kept) < 4:
        raise TestFunctionError("too few interior probes survive the pullback filter")
    mismatch = 0.0
    rhs_scale = 0.0
    for psi in kept:
        pv = psi(ypts)
        mass = float(vox_y * pv.sum())
        lhs = (vox_y * pv @ pushed_flat).reshape(pushed.shape[chart_y.n :]) / mass
        rhs = _weak_functional(chart_y, w_y.values, wedge_y, psi) / mass
        mismatch = max(mismatch, float(np.abs(lhs - rhs).max()))
        rhs_scale = max(rhs_scale, float(np.abs(rhs).max()))
    # tolerance: probe quadrature error O((h/r)^2) at the functional scale
    # plus the mollification transport bias
    hmax = float(max(chart_x.h.max(), chart_y.h.max()))
    c0y = lp_norm(conn_y, np.inf)
    scale = max(rhs_scale, c0y ** 2, 1.0)
    r_min = min(psi.radius for psi in kept)
    eps_basis = res_x + (hmax / r_min) ** 2 * scale
    tolerance = (hmax / r_min) ** 2 * scale + 0.25 * eps ** 2 * scale
    return LemmaReport(
        distance=float(mismatch),
        tolerance=float(tolerance),
        passed=bool(mismatch < tolerance),
        grid=chart_x.res,
        epsilon_basis=float(eps_basis),
    )
