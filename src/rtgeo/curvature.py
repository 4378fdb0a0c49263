"""Riemann curvature of a connection, weak/distributional form, tensoriality.

Curvature storage: R[tau, mu, nu, rho] with tau the up index, antisymmetric
in (nu, rho).  The strong evaluation is R = d Gamma + Gamma ^ Gamma with the
1-form layout of the calculus module; the weak form moves the curl
derivatives onto a smooth compactly supported test function so no derivative
of Gamma is ever taken.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import (
    connection_form,
    contract,
    d_one_form,
    full_antisymmetric,
    lp_norm,
    mollifier_band,
    mollify,
    wedge,
)
from .charts import GridField, det_inverse, interpolate
from .errors import FittingError, ShapeError, TestFunctionError


def curvature_field(chart, values):
    """Curvature components R[tau, mu, nu, rho]."""
    n = chart.n
    f = GridField(chart, values, ("up", "down", "down", "down"))
    if f.comp_shape != (n, n, n, n):
        raise ShapeError(f"curvature components must be (n,n,n,n), got {f.comp_shape}")
    return f


@dataclass
class TestFunction:
    """Compactly supported bump (1 - r^2)^4 with r = |x - center| / radius < 1;
    its tame derivatives keep grid quadrature of its functionals accurate."""

    center: np.ndarray
    radius: float

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
        out[inside] = (1.0 - r2[inside]) ** 4
        return out

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        diff = pts - self.center
        r2 = (diff ** 2).sum(axis=-1) / self.radius ** 2
        out = np.zeros(pts.shape)
        inside = r2 < 1.0
        factor = -8.0 * (1.0 - r2[inside]) ** 3 / self.radius ** 2
        out[inside] = factor[:, None] * diff[inside]
        return out


def _centre_grid(chart, margin, per_axis):
    """``per_axis`` evenly spaced centres per axis inside a ``margin`` inset of
    each span: the per-axis lines, and their tensor grid as (per_axis^n, n) points."""
    spans = chart.hi - chart.lo
    lines = [
        np.linspace(chart.lo[k] + margin * spans[k], chart.hi[k] - margin * spans[k], per_axis)
        for k in range(chart.n)
    ]
    grids = np.meshgrid(*lines, indexing="ij")
    return lines, np.stack([g.ravel() for g in grids], axis=-1)


def bump_basis(chart, per_axis=5):
    """Grid of localized bumps covering the chart interior.

    Centers sit inside a 14% inset of each span and neighbouring supports
    overlap by 60%; the common radius is capped so every support ball clears
    the boundary by two cells regardless of resolution.
    """
    margin, overlap = 0.14, 1.6
    spans = chart.hi - chart.lo
    lines, centers = _centre_grid(chart, margin, per_axis)
    spacing = min(
        (c[1] - c[0]) if len(c) > 1 else spans[k] for k, c in enumerate(lines)
    )
    cap = margin * float(spans.min()) - 2.5 * float(chart.h.max())
    radius = min(overlap * spacing / 2, cap)
    basis = [TestFunction(c, radius) for c in centers]
    for psi in basis:
        psi.check_support(chart)
    return basis


def riemann(conn):
    """Strong curvature: Riem = d Gamma + Gamma ^ Gamma (FD evaluation)."""
    w = connection_form(conn)
    two = d_one_form(conn.chart, w) + wedge(w, w)
    # axes already ordered [tau=row, mu=col, nu, rho]
    return curvature_field(conn.chart, full_antisymmetric(two, conn.chart.n))


def _weak_functional(chart, wvals, wedge_full, psi):
    psi.check_support(chart)
    pts = chart.nodes.reshape(-1, chart.n)
    psi_vals = psi(pts)
    psi_grad = psi.gradient(pts)
    # off the support of psi and its gradient the (finite) samples add only signed zeros
    sup = np.flatnonzero((psi_vals != 0) | (psi_grad != 0).any(axis=1))
    psi_vals, psi_grad = psi_vals[sup], psi_grad[sup]
    wv = wvals.reshape((chart.npoints,) + wvals.shape[chart.n :])[sup]
    wf = wedge_full.reshape((chart.npoints,) + wedge_full.shape[chart.n :])[sup]
    # A[t,m,nu,rho] = sum_N w[N,t,m,rho] dpsi[N,nu]
    A = np.einsum("Ntmr,Nv->tmvr", wv, psi_grad)
    curl_part = -(A - A.swapaxes(-1, -2))
    quad = np.einsum("Ntmij,N->tmij", wf, psi_vals)
    return chart.voxel() * (curl_part + quad)


def represent_weak(conn, basis):
    """Least-squares L^p representative of the weak curvature over a bump basis.

    The candidate field lives in the span of the basis; the Gram system is
    solved per component, so the fitted field's functionals reproduce the
    weak functionals up to round-off.
    """
    chart = conn.chart
    if len(basis) < 16:
        raise FittingError(f"need at least 16 basis bumps, got {len(basis)}")
    pts = chart.nodes.reshape(-1, chart.n)
    psi_vals = np.stack([psi(pts) for psi in basis], axis=0)  # (k, N)
    gram = chart.voxel() * psi_vals @ psi_vals.T
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        raise FittingError(f"bump basis Gram matrix is rank deficient (cond {cond:.1e})")
    n = chart.n
    w = connection_form(conn)
    wedge_full = full_antisymmetric(wedge(w, w), n)
    weak_vals = np.stack(
        [_weak_functional(chart, w, wedge_full, psi).ravel() for psi in basis], axis=0
    )  # (k, n^4)
    coef = np.linalg.solve(gram, weak_vals)  # (k, n^4)
    fitted = (psi_vals.T @ coef).reshape(chart.res + (n, n, n, n))
    return curvature_field(chart, fitted)


def transform_curvature(R, J):
    """Tensor transformation: contraction with undifferentiated Jacobians.

    R_x[t,m,n,r] = Jinv[t,d] J[a,m] J[b,n] J[c,r] R_y[d,a,b,c], pointwise on a
    shared grid (point correspondence is the caller's concern).
    """
    _, Jinv = det_inverse(J)
    if J.shape[:-2] != R.values.shape[: R.chart.n] and J.ndim != 2:
        raise ShapeError("jacobian samples do not match the curvature grid")
    out = contract("...td,...am,...bn,...cr,...dabc->...tmnr", Jinv, J, J, J, R.values)
    return curvature_field(R.chart, out)


def lemma_b1_check(conn_x, bundle, conn_y, p):
    """Tensoriality of the weak curvature under the bundle's coordinate change.

    The check transports the strong components of an epsilon-mollified
    connection (the same object the statement's own argument transports),
    pushes them to y-components by the tensor law along the inverse map, and
    compares unit-mass quadrature functionals against the y-side weak
    functionals; no x-side fit is made (:func:`represent_weak`'s Gram checks
    read only the basis, never Gamma_x).
    Only component-transformation consistency is checked; absent a metric
    there is no invariant volume element and no functional equality.

    Returns the report block: ``distance``, ``tolerance``, ``pass`` (distance
    below tolerance), ``grid`` and ``epsilon_basis``, the probe quadrature
    term (hmax / r_min)^2 * scale of the tolerance, which adds the transport
    bias.
    """
    chart_x = conn_x.chart
    chart_y = conn_y.chart
    hmax_x = float(chart_x.h.max())
    eps = max(2.05 * hmax_x, min(4.0 * hmax_x, 0.075))
    Rx = riemann(mollify(conn_x, eps))
    # blank the rim band where truncated kernels and one-sided stencils
    # corrupt the strong evaluation; probes are filtered to stay clear of it
    band = mollifier_band(chart_x, eps)
    clean = np.zeros(chart_x.res, dtype=bool)
    clean[chart_x.inset(band)] = True
    Rx.values[~clean] = 0.0
    # push to y-components at the y-nodes: x = inverse(y), contract with J(x)
    ypts = chart_y.nodes.reshape(-1, chart_y.n)
    xpts, J_at, Jinv_at = bundle.pull_back_at(ypts)
    Rx_at = interpolate(Rx, xpts, clip=True)
    del Rx, xpts  # full-grid arrays: each goes after its last reader
    # inverse of the x-law: R_y[d,a,b,c] = J[d,t] Jinv[m,a] Jinv[n,b] Jinv[r,c] R_x[t,m,n,r]
    pushed = contract("...dt,...ma,...nb,...rc,...tmnr->...dabc", J_at, Jinv_at, Jinv_at, Jinv_at, Rx_at)
    pushed = pushed.reshape(chart_y.res + Rx_at.shape[1:])
    del Rx_at, J_at
    # functional-level comparison, unit-mass normalized so the mismatch reads
    # as a local average of curvature components; probes whose pulled-back
    # support leaves the mollifier-clean interior are skipped
    vox_y = chart_y.voxel()
    pushed_flat = pushed.reshape(chart_y.npoints, -1)
    w_y = connection_form(conn_y)
    wedge_y = full_antisymmetric(wedge(w_y, w_y), chart_y.n)
    # wide probes keep the functional quadrature error small; fall back
    # narrower if the pullback filter starves on cramped image charts
    jinv_gain = min(float(np.abs(Jinv_at).max()), 1.5)
    pad_x = np.multiply(band, chart_x.h)
    spans_y = chart_y.hi - chart_y.lo
    kept = []
    for margin, rad_frac in ((0.3, 0.28), (0.32, 0.22), (0.36, 0.14)):
        radius = rad_frac * float(spans_y.min())
        _, centres = _centre_grid(chart_y, margin, 3)
        kept = []
        for psi in (TestFunction(c, radius) for c in centres):
            try:
                psi.check_support(chart_y)
            except TestFunctionError:
                continue
            xc = bundle.inverse_at(psi.center)
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
        rhs = _weak_functional(chart_y, w_y, wedge_y, psi) / mass
        mismatch = max(mismatch, float(np.abs(lhs - rhs).max()))
        rhs_scale = max(rhs_scale, float(np.abs(rhs).max()))
    # tolerance: probe quadrature error O((h/r)^2) at the functional scale
    # plus the mollification transport bias
    hmax = float(max(chart_x.h.max(), chart_y.h.max()))
    c0y = lp_norm(conn_y, np.inf)
    scale = max(rhs_scale, c0y ** 2, 1.0)
    r_min = min(psi.radius for psi in kept)
    eps_basis = (hmax / r_min) ** 2 * scale
    tolerance = eps_basis + 0.25 * eps ** 2 * scale
    return {
        "distance": float(mismatch),
        "tolerance": float(tolerance),
        "pass": bool(mismatch < tolerance),
        "grid": list(chart_x.res),
        "epsilon_basis": float(eps_basis),
    }
