import numpy as np
import pytest

from rtgeo.charts import GridField, JacobianField, connection_field, interpolate
from rtgeo.curvature import riemann, transform_curvature
from rtgeo.errors import NonIntegrableError
from rtgeo.transform import (
    build_bundle,
    coderivative_identity_residual,
    dgamma_identity_residual,
    identity_bundle,
    integrate_jacobian,
    invert_map,
    pushforward_curve,
    row_curl_residual,
    split_transform,
    transform_connection,
    transform_force,
)

from conftest import (
    flat_disguise_connection,
    quadratic_jacobian,
    smooth_connection,
    trig_gradient_jacobian,
)


def quadratic_bundle(chart, cover=False):
    X = chart.nodes
    forward = X.copy()
    forward[..., 1] = X[..., 1] + 0.5 * X[..., 0] ** 2
    y_chart = None
    if cover:
        from rtgeo.charts import Chart

        m = 2 * float(chart.h.max())
        flat = forward.reshape(-1, 2)
        y_chart = Chart(flat.min(axis=0) - m, flat.max(axis=0) + m, chart.res)
    return build_bundle(chart, quadratic_jacobian(chart), forward=forward, y_chart=y_chart)


# -- transform_connection -----------------------------------------------------


def test_transform_identity_map(unit_chart_65):
    conn_y = smooth_connection(unit_chart_65)
    bundle = identity_bundle(unit_chart_65)
    out, coverage = transform_connection(conn_y, bundle.map.forward, bundle.jac)
    assert coverage == 1.0
    assert np.abs(out.values - conn_y.values).max() < 1e-10


def test_transform_zero_linear_map(unit_chart):
    chart = unit_chart
    A = np.array([[1.1, 0.2], [0.0, 0.9]])
    forward = np.einsum("ab,...b->...a", A, chart.nodes)
    from rtgeo.charts import Chart

    ylo = forward.reshape(-1, 2).min(axis=0) - 0.05
    yhi = forward.reshape(-1, 2).max(axis=0) + 0.05
    y_chart = Chart(ylo, yhi, chart.res)
    J = np.broadcast_to(A, chart.res + (2, 2)).copy()
    bundle = build_bundle(chart, J, forward=forward, y_chart=y_chart)
    conn_y = connection_field(y_chart, np.zeros(y_chart.res + (2, 2, 2)))
    out, _ = transform_connection(conn_y, bundle.map.forward, bundle.jac)
    assert np.abs(out.values).max() < 1e-12


def test_transform_quadratic_produces_flat_disguise(unit_chart_65):
    # Gamma_y = 0 through y1 = x1, y2 = x2 + x1^2/2 gives the single
    # constant component, exactly (FD is exact on the linear jacobian)
    bundle = quadratic_bundle(unit_chart_65, cover=True)
    conn_y = connection_field(bundle.y_chart, np.zeros(bundle.y_chart.res + (2, 2, 2)))
    out, _ = transform_connection(conn_y, bundle.map.forward, bundle.jac)
    want = flat_disguise_connection(unit_chart_65)
    assert np.abs(out.values - want.values).max() < 1e-11


# -- split --------------------------------------------------------------------


def test_split_identity_jacobian(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    eye = np.broadcast_to(np.eye(2), unit_chart_65.res + (2, 2)).copy()
    tilde, inhom = split_transform(conn, eye)
    assert np.abs(inhom.values).max() < 1e-12
    assert np.abs(tilde.values - conn.values).max() < 1e-12


def test_split_inverts_flat_disguise(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    tilde, inhom = split_transform(conn, quadratic_jacobian(unit_chart_65))
    assert np.abs(tilde.values).max() < 1e-11


def test_split_reassembly_machine_precision(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    J, _ = trig_gradient_jacobian(unit_chart_65)
    tilde, inhom = split_transform(conn, J)
    reassembled = tilde.values + inhom.values.swapaxes(-1, -2)
    assert np.abs(reassembled - conn.values).max() < 1e-14


# -- identity checks ----------------------------------------------------------


def test_identity_checks_quadratic_exact(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    J = quadratic_jacobian(unit_chart_65)
    assert coderivative_identity_residual(conn, J) < 1e-11
    assert dgamma_identity_residual(conn, J) < 1e-11


@pytest.mark.parametrize("fn", [coderivative_identity_residual, dgamma_identity_residual])
def test_identity_checks_trig_refinement(fn):
    from rtgeo.charts import Chart

    residuals = {}
    for m in (33, 65):
        chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
        J, _ = trig_gradient_jacobian(chart)
        residuals[m] = fn(smooth_connection(chart), J, p=4.0)
    ratio = residuals[33] / residuals[65]
    assert 3.0 <= ratio <= 5.0


def test_dgamma_negative_control(unit_chart_65):
    J, _ = trig_gradient_jacobian(unit_chart_65)
    conn = smooth_connection(unit_chart_65)
    with_term = dgamma_identity_residual(conn, J)
    dropped = dgamma_identity_residual(conn, J, drop_wedge=True)
    assert dropped > 100 * with_term


# -- jacobian integration -----------------------------------------------------


def test_integrate_identity(unit_chart):
    eye = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2)).copy()
    fwd, disc = integrate_jacobian(JacobianField(unit_chart, eye))
    assert np.abs(fwd - unit_chart.nodes).max() < 1e-12
    assert disc < 1e-12


def test_integrate_quadratic_exact(unit_chart_65):
    J = quadratic_jacobian(unit_chart_65)
    fwd, disc = integrate_jacobian(JacobianField(unit_chart_65, J))
    X = unit_chart_65.nodes
    want1 = X[..., 0]
    # basepoint-anchored antiderivative of x1 dx1 along the staircase
    want2 = X[..., 1] + 0.5 * X[..., 0] ** 2
    got2 = fwd[..., 1] - fwd[tuple(r // 2 for r in unit_chart_65.res)][1] + want2[tuple(r // 2 for r in unit_chart_65.res)]
    assert np.abs(fwd[..., 0] - want1).max() < 1e-12
    assert np.abs(got2 - want2).max() < 1e-12
    assert disc < 1e-12


def test_integrate_artificial_curl_errors(unit_chart):
    X = unit_chart.nodes
    J = np.zeros(unit_chart.res + (2, 2))
    J[..., 0, 0] = 1.0
    J[..., 1, 1] = 1.0
    J[..., 0, 1] = X[..., 0]  # row 1 = (1, x1): curl = 1
    with pytest.raises(NonIntegrableError):
        integrate_jacobian(JacobianField(unit_chart, J))


def test_row_curl_zero_for_gradients(unit_chart_65):
    J, _ = trig_gradient_jacobian(unit_chart_65)
    assert row_curl_residual(unit_chart_65, J) < 1e-11


# -- inversion ----------------------------------------------------------------


def test_invert_identity(unit_chart):
    fwd = GridField(unit_chart, unit_chart.nodes.copy())
    eye = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2))
    inv, resid = invert_map(fwd, unit_chart, eye)
    assert np.abs(inv - unit_chart.nodes).max() < 1e-9
    assert resid < 1e-9


def test_invert_quadratic_closed_form(unit_chart_65):
    bundle = quadratic_bundle(unit_chart_65)
    y = bundle.y_chart.nodes
    want = y.copy()
    want[..., 1] = y[..., 1] - 0.5 * y[..., 0] ** 2
    # newton hits the discrete map to tau_map; closeness to the closed form
    # is then limited by the bilinear interpolation bias h^2/8
    h2 = float(bundle.x_chart.h.max()) ** 2
    assert np.abs(bundle.map.inverse - want).max() < h2
    # double interpolation bias bounds the round trip
    assert bundle.map.roundtrip_error < 3 * h2


# -- curves and forces --------------------------------------------------------


def test_pushforward_identity(unit_chart_65):
    from rtgeo.geodesics import Curve

    bundle = identity_bundle(unit_chart_65)
    t = np.linspace(0, 0.5, 65)
    pos = np.stack([0.3 + 0.4 * t, 0.5 + 0.1 * t], axis=1)
    vel = np.tile([0.4, 0.1], (65, 1))
    c = Curve(times=t, positions=pos, velocities=vel)
    out = pushforward_curve(c, bundle)
    assert np.abs(out.positions - pos).max() < 1e-10
    assert np.abs(out.velocities - vel).max() < 1e-10


def test_pushforward_chain_rule(unit_chart_65):
    from rtgeo.geodesics import Curve

    bundle = quadratic_bundle(unit_chart_65)
    dt = 1 / 512
    t = np.arange(0, 0.5, dt)
    pos = np.stack([0.2 + 0.5 * t, 0.55 + 0.05 * t], axis=1)
    vel = np.tile([0.5, 0.05], (len(t), 1))
    out = pushforward_curve(Curve(times=t, positions=pos, velocities=vel), bundle)
    fd = np.gradient(out.positions, dt, axis=0)
    # the multilinear map's time derivative carries O(h)-scale kinks
    tol = float(bundle.x_chart.h.max()) * 0.5
    assert np.abs(fd[2:-2] - out.velocities[2:-2]).max() < tol


def test_pushforward_straight_line_is_parabola(unit_chart_65):
    from rtgeo.geodesics import Curve

    bundle = quadratic_bundle(unit_chart_65)
    dt = 1 / 256
    t = np.arange(0, 0.75 + dt / 2, dt)
    y0 = np.array([0.2, 0.57])
    w0 = np.array([0.6, 0.12])
    pos_y = y0 + t[:, None] * w0
    c = Curve(times=t, positions=pos_y, velocities=np.tile(w0, (len(t), 1)))
    back = pushforward_curve(c, bundle, direction="backward")
    want1 = pos_y[:, 0]
    want2 = pos_y[:, 1] - 0.5 * pos_y[:, 0] ** 2
    h2 = float(bundle.x_chart.h.max()) ** 2
    assert np.abs(back.positions[:, 0] - want1).max() < 2 * h2
    assert np.abs(back.positions[:, 1] - want2).max() < 2 * h2


def test_transform_force_constant_linear(unit_chart_65):
    from rtgeo.charts import ForceField

    bundle = identity_bundle(unit_chart_65)
    K = ForceField(evaluator=lambda t, x, v: np.array([0.3, -0.1]), continuity="lipschitz")
    Ky = transform_force(K, bundle)
    got = Ky(0.0, np.array([0.5, 0.5]), np.array([0.1, 0.0]))
    assert np.allclose(got, [0.3, -0.1], atol=1e-9)


def test_transform_force_quadratic_oracle(unit_chart_65):
    from rtgeo.charts import ForceField

    bundle = quadratic_bundle(unit_chart_65)
    K = ForceField(evaluator=lambda t, x, v: np.array([0.2 * x[0], 0.1]), continuity="lipschitz")
    Ky = transform_force(K, bundle)
    y = np.array([0.4, 0.6])
    x = np.array([0.4, 0.6 - 0.5 * 0.16])
    Jm = np.array([[1.0, 0.0], [x[0], 1.0]])
    want = Jm @ np.array([0.2 * x[0], 0.1])
    got = Ky(0.0, y, np.array([0.0, 0.0]))
    assert np.allclose(got, want, atol=1e-5)


# -- tensoriality invariant ---------------------------------------------------


def test_riemann_commutes_with_transform(unit_chart_65):
    # curvature of the pulled-back connection == tensor-transformed curvature
    bundle = quadratic_bundle(unit_chart_65, cover=True)
    conn_y = smooth_connection(bundle.y_chart, amp=0.2)
    conn_x, _ = transform_connection(conn_y, bundle.map.forward, bundle.jac)
    R_x = riemann(conn_x)
    R_y = riemann(conn_y)
    ypts = bundle.map.forward.reshape(-1, 2)
    Ry_at = interpolate(GridField(bundle.y_chart, R_y.values), ypts, clip=True).reshape(
        unit_chart_65.res + (2, 2, 2, 2)
    )
    from rtgeo.curvature import CurvatureField

    pushed = transform_curvature(CurvatureField(unit_chart_65, Ry_at), bundle.jac.J)
    inner = (slice(6, -6), slice(6, -6))
    gap = np.abs(R_x.values[inner] - pushed.values[inner]).max()
    assert gap < 30 * float(unit_chart_65.h.max()) ** 2


def test_transform_group_property(unit_chart_65):
    bundle = quadratic_bundle(unit_chart_65, cover=True)
    conn_y = smooth_connection(bundle.y_chart, amp=0.2)
    conn_x, _ = transform_connection(conn_y, bundle.map.forward, bundle.jac)
    # analytic inverse bundle on the y-chart (closed-form map and jacobian)
    Y = bundle.y_chart.nodes
    inv_fwd = Y.copy()
    inv_fwd[..., 1] = Y[..., 1] - 0.5 * Y[..., 0] ** 2
    Jy = np.zeros(bundle.y_chart.res + (2, 2))
    Jy[..., 0, 0] = 1.0
    Jy[..., 1, 1] = 1.0
    Jy[..., 1, 0] = -Y[..., 0]
    inv_bundle = build_bundle(bundle.y_chart, Jy, forward=inv_fwd, y_chart=bundle.x_chart)
    conn_back, coverage = transform_connection(
        conn_x, inv_bundle.map.forward, inv_bundle.jac, clip_tolerance=0.75
    )
    assert coverage > 0.5
    # compare only where the round trip stays inside the x-chart
    ok = bundle.x_chart.contains(inv_fwd.reshape(-1, 2), margin=0.05).reshape(bundle.y_chart.res)
    gap = np.abs(conn_back.values - conn_y.values).max(axis=(-1, -2, -3))
    assert gap[ok].max() < 5e-3
