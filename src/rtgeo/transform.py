"""Connection/vector transformation laws, Jacobian integration, map inversion.

The split Gamma_x = Gamma~ + Jinv dJ is the workhorse: both the identity
checks of the coderivative/curl structure and the optimal-regularity
assembly go through it.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import (
    MatrixForm,
    coderivative,
    connection_form,
    contract,
    d_one_form,
    exterior_derivative,
    form_to_connection,
    laplacian,
    lp_norm,
    matmul,
    matrix_inner,
    wedge,
)
from .charts import (
    Chart,
    CoordinateMap,
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
    """Coordinate map plus Jacobian samples."""

    map: CoordinateMap
    jac: JacobianField

    @property
    def x_chart(self):
        return self.map.x_chart

    @property
    def y_chart(self):
        return self.map.y_chart


def row_curl_residual(chart, J):
    """C0 norm of d(row) for each Jacobian row viewed as a 1-form."""
    return float(np.abs(d_one_form(chart, J)).max())


def jacobian_grad(chart, J):
    """dJ as a matrix 1-form: (dJ)[a, nu, rho] = D_rho J[a, nu] (form index last)."""
    return MatrixForm(chart, 1, chart.grad(J))


def split_transform(conn, J, Jinv=None):
    """Gamma~ = Gamma_x - Jinv dJ; returns (Gamma~, inhomogeneous part)."""
    chart = conn.chart
    if Jinv is None:
        _, Jinv = det_inverse(J)
    dJ = jacobian_grad(chart, J)
    inhom = matmul(Jinv, dJ)
    tilde = connection_form(conn).values - inhom.values
    return form_to_connection(MatrixForm(chart, 1, tilde)), inhom


def transform_connection(conn_y, forward, jac, clip_tolerance=0.0):
    """Pull a y-connection back to the x-chart by the connection law.

    The law reads y(x) and J only, never x(y): ``forward`` holds the samples
    y(x) on the x-chart ``jac.chart``, where Gamma_y (on ``conn_y.chart``) is
    interpolated; the inhomogeneous term is the FD gradient of ``jac.J`` on
    the x-chart.  Returns (Gamma_x, share of y(x) inside the y-chart).
    """
    chart_x, chart_y = jac.chart, conn_y.chart
    ypts = forward.reshape(-1, chart_x.n)
    inside = chart_y.contains(ypts)
    coverage = float(inside.mean())
    if coverage < 1.0 - clip_tolerance:
        raise ShapeError(
            f"forward map leaves the y-chart at {np.count_nonzero(~inside)} nodes "
            f"(coverage {coverage:.3f})"
        )
    gy = interpolate(GridField(chart_y, conn_y.values), ypts, clip=True)
    gy = gy.reshape(chart_x.res + conn_y.values.shape[chart_x.n :])
    J, Jinv = jac.J, jac.Jinv
    dJ = jacobian_grad(chart_x, J)
    # homogeneous part: Jinv[m,a] J[b,r] J[g,n] Gy[a,b,g]  (storage [mu, rho, nu]);
    # inhomogeneous: Jinv[m,a] D_rho J[a,nu], dJ stored [a, nu, rho]
    hom = contract("...ma,...br,...gn,...abg->...mrn", Jinv, J, J, gy)
    inhom = contract("...ma,...anr->...mrn", Jinv, dJ.values)
    out = connection_field(chart_x, hom + inhom)
    return out, coverage


def integrate_jacobian(J_field):
    """Integrate J = dy/dx to a forward map by staircase trapezoid paths from
    the central node Q, with y(Q) = Q.

    Two axis orders are integrated; the first is kept, their discrepancy is
    the path-independence diagnostic.  Returns (forward, discrepancy).
    Raises NonIntegrableError when the row curl exceeds TAU_CURL (the field
    is not a gradient).
    """
    chart = J_field.chart
    J = J_field.J if isinstance(J_field, JacobianField) else J_field.values
    curl = row_curl_residual(chart, J)
    scale = max(float(np.abs(J).max()), 1.0)
    if curl > TAU_CURL * scale:
        raise NonIntegrableError(
            f"row curl residual {curl:.3e} exceeds tau_curl={TAU_CURL:g} (scale {scale:g})"
        )
    n = chart.n
    base = tuple(r // 2 for r in chart.res)
    yQ = chart.nodes[base]

    def staircase(order):
        y = np.broadcast_to(yQ, chart.res + (n,))
        for k, ax in enumerate(order):
            # the leg's integrand on the line where the not-yet-integrated
            # axes sit at Q, kept as unit axes; trapezoid sums outward from Q
            line = tuple(slice(b, b + 1) if a in order[k + 1 :] else slice(None) for a, b in enumerate(base))
            f = np.moveaxis(J[line + (slice(None), ax)], ax, 0)
            trap = 0.5 * chart.h[ax] * (f[1:] + f[:-1])
            zero = np.zeros_like(f[:1])
            up = np.add.accumulate(np.concatenate([zero, trap[base[ax] :]]), axis=0)
            down = np.subtract.accumulate(np.concatenate([zero, trap[: base[ax]][::-1]]), axis=0)
            y = y + np.moveaxis(np.concatenate([down[::-1], up[1:]]), 0, ax)
        return y

    fwd = staircase(list(range(n)))
    rev = staircase(list(range(n - 1, -1, -1)))
    discrepancy = float(np.abs(fwd - rev).max())
    return fwd, discrepancy


def invert_map(forward_field, y_chart, J, strict=True):
    """Per-node Newton solve of y(x) = target with multilinear interpolation,
    at most NEWTON_MAX_ITERS steps; returns (x at the y-chart's nodes, worst
    residual).

    A J that is singular where a step reads it raises :class:`JacobianError`
    naming the y-chart node.  ``strict=False`` tolerates unreachable targets
    (y-nodes outside the image of the x-chart); those entries are
    boundary-clamped and only usable when the caller never evaluates there.
    """
    chart_x = forward_field.chart
    targets = y_chart.nodes.reshape(-1, chart_x.n)
    x = np.clip(targets, chart_x.lo, chart_x.hi)
    for _ in range(NEWTON_MAX_ITERS):
        F = interpolate(forward_field, x, clip=True) - targets
        if np.abs(F).max() < TAU_MAP:
            break
        Ji = interpolate(GridField(chart_x, J), x, clip=True)
        _, Jinv = det_inverse(Ji.reshape(y_chart.res + Ji.shape[1:]))
        step = contract("...ij,...jk->...ik", Jinv.reshape(Ji.shape), F[..., None])[..., 0]
        x = np.clip(x - step, chart_x.lo, chart_x.hi)
    resid = np.abs(interpolate(forward_field, x, clip=True) - targets)
    worst = float(resid.max())
    if strict and not worst <= TAU_MAP * 100:
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
    n = chart_x.n
    cells = [inscribed_inset(r) for r in chart_x.res]
    sl = tuple(slice(c, -c) for c in cells)
    img = forward[sl]
    lo, hi = [], []
    for k in range(n):
        low_face = np.take(img[..., k], 0, axis=k)
        high_face = np.take(img[..., k], -1, axis=k)
        lo.append(float(low_face.max()))
        hi.append(float(high_face.min()))
    if any(h <= l for l, h in zip(lo, hi)):
        raise JacobianError("image of the chart has empty inscribed rectangle")
    return Chart(lo, hi, chart_x.res)


def build_bundle(chart_x, J, forward=None, y_chart=None):
    """Assemble a TransformBundle from J samples or a JacobianField (integrating if needed).

    With no ``y_chart`` an inscribed rectangle is used and the inverse must
    converge everywhere; an explicit (covering) chart tolerates unreachable
    nodes outside the image.
    """
    jac = J if isinstance(J, JacobianField) else JacobianField(chart_x, J)
    if forward is None:
        forward, _ = integrate_jacobian(jac)
    strict = y_chart is None
    if y_chart is None:
        y_chart = inscribed_y_chart(chart_x, forward)
    inverse, _ = invert_map(GridField(chart_x, forward), y_chart, jac.J, strict=strict)
    # round trip x(y(x)) on interior nodes
    interior = chart_x.nodes[(slice(4, -4),) * chart_x.n].reshape(-1, chart_x.n)
    ypts = interpolate(GridField(chart_x, forward), interior)
    ok = y_chart.contains(ypts)
    rt = 0.0
    if ok.any():
        back = interpolate(GridField(y_chart, inverse), ypts[ok], clip=True)
        rt = float(np.abs(back - interior[ok]).max())
    cmap = CoordinateMap(
        x_chart=chart_x,
        y_chart=y_chart,
        forward=forward,
        inverse=inverse,
        roundtrip_error=rt,
    )
    return TransformBundle(map=cmap, jac=jac)


# ---------------------------------------------------------------------------
# section-3 identity checks
# ---------------------------------------------------------------------------


def _interior_weights(chart):
    """Mask off 8% of each span at the rim (the identities are interior
    statements; composed one-sided closures lose an order there)."""
    w = np.zeros(chart.res)
    cells = [max(2, int(round(0.08 * (chart.res[k] - 1)))) for k in range(chart.n)]
    w[tuple(slice(c, -c) for c in cells)] = 1.0
    return w


def coderivative_identity_residual(conn, J, p=4.0):
    """L^p residual of: delta Gamma_x = delta Gamma~ - <dJinv; dJ> + Jinv Delta J.

    The sign of the inner-product term is forced by the package's pinned
    conventions for delta, Delta and <.;.> (it differs from some statements
    that bind those symbols differently; only the combination is testable).
    The norm restricts to a fixed interior region.
    """
    chart = conn.chart
    _, Jinv = det_inverse(J)
    tilde, _ = split_transform(conn, J, Jinv)
    w = connection_form(conn)
    wt = connection_form(tilde)
    dJ = jacobian_grad(chart, J)
    dJinv = jacobian_grad(chart, Jinv)
    lhs = coderivative(w).values
    rhs = (
        coderivative(wt).values
        - matrix_inner(dJinv, dJ).values
        + contract("...ma,...an->...mn", Jinv, laplacian(MatrixForm(chart, 0, J)).values)
    )
    return lp_norm(GridField(chart, lhs - rhs), p, _interior_weights(chart))


def dgamma_identity_residual(conn, J, p=4.0, drop_wedge=False):
    """L^p residual of: d Gamma_x = d Gamma~ + dJinv ^ dJ  (exact since d dJ = 0)."""
    chart = conn.chart
    _, Jinv = det_inverse(J)
    tilde, _ = split_transform(conn, J, Jinv)
    w = connection_form(conn)
    wt = connection_form(tilde)
    lhs = exterior_derivative(w).values
    rhs = exterior_derivative(wt).values
    if not drop_wedge:
        rhs = rhs + wedge(jacobian_grad(chart, Jinv), jacobian_grad(chart, J)).values
    return lp_norm(GridField(chart, lhs - rhs), p, _interior_weights(chart))


def pushforward_curve(curve, bundle, direction="forward"):
    """Map a curve pointwise; velocities contract with the interpolated Jacobian."""
    from .geodesics import Curve

    if direction == "forward":
        pos = bundle.map.forward_at(curve.positions, clip=True)
        Jc = bundle.jac.at(curve.positions, clip=True)
        vel = np.einsum("tmn,tn->tm", Jc, curve.velocities)
    else:
        pos = bundle.map.inverse_at(curve.positions, clip=True)
        Jc = bundle.jac.at(pos, clip=True)
        vel = contract("...ij,...jk->...ik", det_inverse(Jc)[1], curve.velocities[..., None])[..., 0]
    return Curve(
        times=curve.times.copy(),
        positions=pos,
        velocities=vel,
        truncation=curve.truncation,
        method=curve.method,
        dt=curve.dt,
    )


def transform_force(force, bundle):
    """Push a force evaluator to y-coordinates: K^i = J^i_mu K^mu at x(y),
    with the x-velocity v = J^-1 w."""

    def wrapped(t, y, w):
        x = bundle.map.inverse_at(np.asarray(y, dtype=float), clip=True)
        Jx = bundle.jac.at(x, clip=True)
        v = contract("...ij,...jk->...ik", det_inverse(Jx)[1], np.asarray(w, dtype=float)[..., None])[..., 0]
        return Jx @ force(t, x, v)

    return ForceField(wrapped)
