"""Connection/vector transformation laws, Jacobian integration, map inversion.

The split Gamma_x = Gamma~ + Jinv dJ is the workhorse: both the identity
checks of the coderivative/curl structure and the optimal-regularity
assembly go through it.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import (
    connection_form,
    contract,
    d_one_form,
    delta_one_form,
    lp_norm,
    matrix_inner,
    matvec,
    wedge,
)
from .charts import (
    Chart,
    ForceField,
    GridField,
    JacobianField,
    connection_field,
    det_inverse,
    interpolate,
)
from .errors import InversionError, JacobianError, NonIntegrableError, ShapeError

TAU_CURL = 1e-6   # C0 bound on row curls for integrability
TAU_MAP = 1e-9    # Newton inversion residual
NEWTON_MAX_ITERS = 60  # Newton steps per map inversion


@dataclass
class TransformBundle:
    """The coordinate change x -> y as three sampled fields: y(x) on the
    x-chart, x(y) on the y-chart, and J = dy/dx on the x-chart."""

    forward: GridField
    inverse: GridField
    jac: JacobianField

    @property
    def x_chart(self):
        return self.forward.chart

    @property
    def y_chart(self):
        return self.inverse.chart

    def inverse_at(self, pts):
        """x(y) at y-points, clipped to the y-chart."""
        return interpolate(self.inverse, pts, clip=True)

    def pull_back_at(self, ypts):
        """x(y), J(x) and J(x)^-1 at y-chart points, both interpolations clipped."""
        x = self.inverse_at(ypts)
        J = interpolate(self.jac, x, clip=True)
        return x, J, det_inverse(J)[1]


def row_curl_residual(chart, J):
    """C0 norm of d(row) for each Jacobian row viewed as a 1-form."""
    return float(np.abs(d_one_form(chart, J)).max())


def inhomogeneous(Jinv, dJ):
    """The Jinv dJ term in connection storage [mu, rho, nu]: Jinv[m,a] D_rho J[a,nu],
    with dJ = ``chart.grad(J)`` stored [a, nu, rho]."""
    return contract("...ma,...anr->...mrn", Jinv, dJ)


def split_transform(conn, J, Jinv=None):
    """Gamma~ = Gamma_x - Jinv dJ, a connection on ``conn``'s chart."""
    if Jinv is None:
        _, Jinv = det_inverse(J)
    return connection_field(conn.chart, conn.values - inhomogeneous(Jinv, conn.chart.grad(J)))


def connection_law(Jinv, J, dJ, gy):
    """Gamma_x = Jinv J J Gamma_y + Jinv dJ per node, storage [mu, rho, nu]:
    Jinv[m,a] J[b,r] J[g,n] Gy[a,b,g] + :func:`inhomogeneous`.  Both terms are
    held until they are summed into a fresh array: an in-place sum, or freeing
    the second term before the first, changes the heap layout, which raised a
    geodesic_fan set-up's peak RSS by 1.3-1.5 MB."""
    hom = contract("...ma,...br,...gn,...abg->...mrn", Jinv, J, J, gy)
    inhom = inhomogeneous(Jinv, dJ)
    return hom + inhom


def transform_connection(conn_y, forward, jac):
    """Pull a y-connection back to the x-chart by the connection law.

    The law reads y(x) and J only, never x(y): ``forward`` holds the samples
    y(x) on the x-chart ``jac.chart``, where Gamma_y (on ``conn_y.chart``) is
    interpolated; the inhomogeneous term is the FD gradient of ``jac.J`` on
    the x-chart.  Raises :class:`ShapeError` when any y(x) leaves the y-chart.
    """
    chart_x, chart_y = jac.chart, conn_y.chart
    ypts = forward.reshape(-1, chart_x.n)
    inside = chart_y.contains(ypts)
    if not inside.all():
        raise ShapeError(
            f"forward map leaves the y-chart at {np.count_nonzero(~inside)} nodes "
            f"(coverage {inside.mean():.3f})"
        )
    gy = interpolate(conn_y, ypts).reshape(chart_x.res + conn_y.comp_shape)
    return connection_field(chart_x, connection_law(jac.Jinv, jac.J, chart_x.grad(jac.J), gy))


def integrate_jacobian(J_field):
    """Integrate J = dy/dx to the forward map y(x) by staircase trapezoid
    paths from the central node Q, axis 0 first, with y(Q) = Q.

    Raises NonIntegrableError when the row curl exceeds TAU_CURL (the field
    is not a gradient).
    """
    chart = J_field.chart
    J = J_field.values
    curl = row_curl_residual(chart, J)
    scale = max(float(np.abs(J).max()), 1.0)
    if curl > TAU_CURL * scale:
        raise NonIntegrableError(
            f"row curl residual {curl:.3e} exceeds tau_curl={TAU_CURL:g} (scale {scale:g})"
        )
    n = chart.n
    base = tuple(r // 2 for r in chart.res)
    y = np.broadcast_to(chart.nodes[base], chart.res + (n,))
    for ax in range(n):
        # the leg's integrand on the line where the not-yet-integrated axes
        # sit at Q, kept as unit axes; trapezoid sums outward from Q
        line = tuple(slice(b, b + 1) if a > ax else slice(None) for a, b in enumerate(base))
        f = np.moveaxis(J[line + (slice(None), ax)], ax, 0)
        trap = 0.5 * chart.h[ax] * (f[1:] + f[:-1])
        zero = np.zeros_like(f[:1])
        up = np.add.accumulate(np.concatenate([zero, trap[base[ax] :]]), axis=0)
        down = np.subtract.accumulate(np.concatenate([zero, trap[: base[ax]][::-1]]), axis=0)
        y = y + np.moveaxis(np.concatenate([down[::-1], up[1:]]), 0, ax)
    return y


def invert_map(forward_field, y_chart, J):
    """Per-node Newton solve of y(x) = target with multilinear interpolation,
    at most NEWTON_MAX_ITERS steps; returns (x at the y-chart's nodes, worst
    residual).

    A J that is singular where a step reads it raises :class:`JacobianError`
    naming the y-chart node; a residual above 100 TAU_MAP raises
    :class:`InversionError`.
    """
    chart_x = forward_field.chart
    J_field = GridField(chart_x, J)
    targets = y_chart.nodes.reshape(-1, chart_x.n)
    x = np.clip(targets, chart_x.lo, chart_x.hi)
    for _ in range(NEWTON_MAX_ITERS):
        F = interpolate(forward_field, x, clip=True) - targets
        if np.abs(F).max() < TAU_MAP:
            break
        Ji = interpolate(J_field, x, clip=True)
        _, Jinv = det_inverse(Ji.reshape(y_chart.res + Ji.shape[1:]))
        x = np.clip(x - matvec(Jinv.reshape(Ji.shape), F), chart_x.lo, chart_x.hi)
    resid = np.abs(interpolate(forward_field, x, clip=True) - targets)
    worst = float(resid.max())
    if not worst <= TAU_MAP * 100:
        node = targets[int(np.argmax(resid.max(axis=-1)))]
        raise InversionError(f"Newton stagnated at residual {worst:.2e} (worst node {node})")
    return x.reshape(y_chart.res + (chart_x.n,)), worst


def inscribed_inset(res):
    """Cells cut from each end of an axis of ``res`` nodes before the image
    rectangle is taken: an eighth of the span, never below 4 cells, so the
    working neighborhood does not drift with grid resolution."""
    return max(4, int(round(0.125 * (res - 1))))


# fewest nodes per axis that leave the inset chart at least 2 nodes wide
MIN_INSCRIBED_RES = next(r for r in range(2, 64) if r - 2 * inscribed_inset(r) >= 2)


def inscribed_y_chart(chart_x, forward):
    """Largest axis-aligned rectangle safely inside the image of the inset
    x-chart (:func:`inscribed_inset`), on a grid of the x-chart's resolution."""
    img = forward[chart_x.inset([inscribed_inset(r) for r in chart_x.res])]
    lo, hi = [], []
    for k in range(chart_x.n):
        low_face = np.take(img[..., k], 0, axis=k)
        high_face = np.take(img[..., k], -1, axis=k)
        lo.append(float(low_face.max()))
        hi.append(float(high_face.min()))
    if any(h <= l for l, h in zip(lo, hi)):
        raise JacobianError("image of the chart has empty inscribed rectangle")
    return Chart(lo, hi, chart_x.res)


def build_bundle(chart_x, J, forward=None):
    """Assemble a TransformBundle from J samples or a JacobianField, integrating
    J for y(x) when ``forward`` is not given; x(y) is Newton-inverted on the
    inscribed y-chart (:func:`inscribed_y_chart`), where it must converge."""
    jac = J if isinstance(J, JacobianField) else JacobianField(chart_x, J)
    if forward is None:
        forward = integrate_jacobian(jac)
    fwd = GridField(chart_x, forward, ("up",))
    y_chart = inscribed_y_chart(chart_x, forward)
    inverse, _ = invert_map(fwd, y_chart, jac.J)
    return TransformBundle(forward=fwd, inverse=GridField(y_chart, inverse, ("up",)), jac=jac)


# ---------------------------------------------------------------------------
# section-3 identity checks
# ---------------------------------------------------------------------------


def _interior_weights(chart):
    """Mask off 8% of each span at the rim (the identities are interior
    statements; composed one-sided closures lose an order there)."""
    w = np.zeros(chart.res)
    w[chart.inset([max(2, int(round(0.08 * (m - 1)))) for m in chart.res])] = 1.0
    return w


def _split_forms(conn, J):
    """The identities' shared preamble: Jinv, and the 1-forms of Gamma_x and Gamma~."""
    _, Jinv = det_inverse(J)
    return Jinv, connection_form(conn), connection_form(split_transform(conn, J, Jinv))


def coderivative_identity_residual(conn, J, p):
    """L^p residual of: delta Gamma_x = delta Gamma~ - <dJinv; dJ> + Jinv Delta J.

    The sign of the inner-product term is forced by the package's pinned
    conventions for delta, Delta and <.;.> (it differs from some statements
    that bind those symbols differently; only the combination is testable).
    Delta J is composed as delta dJ.  The norm restricts to a fixed interior
    region.
    """
    chart = conn.chart
    Jinv, w, wt = _split_forms(conn, J)
    dJ = chart.grad(J)
    lhs = delta_one_form(chart, w)
    rhs = (
        delta_one_form(chart, wt)
        - matrix_inner(chart.grad(Jinv), dJ)
        + contract("...ma,...an->...mn", Jinv, delta_one_form(chart, dJ))
    )
    return lp_norm(GridField(chart, lhs - rhs), p, _interior_weights(chart))


def dgamma_identity_residual(conn, J, p):
    """L^p residual of: d Gamma_x = d Gamma~ + dJinv ^ dJ  (exact since d dJ = 0)."""
    chart = conn.chart
    Jinv, w, wt = _split_forms(conn, J)
    lhs = d_one_form(chart, w)
    rhs = d_one_form(chart, wt) + wedge(chart.grad(Jinv), chart.grad(J))
    return lp_norm(GridField(chart, lhs - rhs), p, _interior_weights(chart))


def pull_back_curve(curve, bundle):
    """Map a y-curve pointwise to x = x(y), with velocities J(x)^-1 w."""
    from .geodesics import Curve

    pos, _, Jinv = bundle.pull_back_at(curve.positions)
    return Curve(
        times=curve.times.copy(),
        positions=pos,
        velocities=matvec(Jinv, curve.velocities),
        truncation=curve.truncation,
        dt=curve.dt,
    )


def transform_force(force, bundle):
    """Push a force evaluator to y-coordinates: K^i = J^i_mu K^mu at x(y),
    with the x-velocity v = J^-1 w."""

    def wrapped(t, y, w):
        x, Jx, Jinv = bundle.pull_back_at(np.asarray(y, dtype=float))
        return Jx @ force(t, x, matvec(Jinv, np.asarray(w, dtype=float)))

    return ForceField(wrapped)
