import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtgeo import transform
from rtgeo.charts import Chart, GridField, JacobianField, connection_field, det_inverse, interpolate
from rtgeo.curvature import riemann, transform_curvature
from rtgeo.errors import DomainExit, InversionError, JacobianError, NonIntegrableError, ShapeError
from rtgeo.transform import (
    TransformBundle,
    build_bundle,
    coderivative_identity_residual,
    dgamma_identity_residual,
    inhomogeneous,
    integrate_jacobian,
    invert_map,
    pull_back_curve,
    row_curl_residual,
    split_transform,
    transform_connection,
    transform_force,
)

from conftest import (
    flat_disguise_connection,
    identity_bundle,
    quadratic_jacobian,
    smooth_connection,
    trig_gradient_jacobian,
)


def shear_map(pts, shear):
    """y = (x1, x2 + shear x1^2); ``-shear`` gives its inverse."""
    out = pts.copy()
    out[..., 1] = pts[..., 1] + shear * pts[..., 0] ** 2
    return out


def quadratic_bundle(chart, cover=False, shear=0.5):
    """The shear map's bundle: x(y) Newton-inverted on the inscribed y-chart,
    or with ``cover`` sampled in closed form on a y-chart covering the image."""
    forward = shear_map(chart.nodes, shear)
    J = quadratic_jacobian(chart, shear)
    if not cover:
        return build_bundle(chart, J, forward=forward)
    m = 2 * float(chart.h.max())
    flat = forward.reshape(-1, 2)
    y_chart = Chart(flat.min(axis=0) - m, flat.max(axis=0) + m, chart.res)
    return TransformBundle(
        forward=GridField(chart, forward, ("up",)),
        inverse=GridField(y_chart, shear_map(y_chart.nodes, -shear), ("up",)),
        jac=JacobianField(chart, J),
    )


# -- transform_connection -----------------------------------------------------


def test_transform_identity_map(unit_chart_65):
    conn_y = smooth_connection(unit_chart_65)
    bundle = identity_bundle(unit_chart_65)
    out = transform_connection(conn_y, bundle.forward.values, bundle.jac)
    assert np.abs(out.values - conn_y.values).max() < 1e-10


def test_transform_zero_linear_map(unit_chart):
    chart = unit_chart
    A = np.array([[1.1, 0.2], [0.0, 0.9]])
    forward = np.einsum("ab,...b->...a", A, chart.nodes)
    ylo = forward.reshape(-1, 2).min(axis=0) - 0.05
    yhi = forward.reshape(-1, 2).max(axis=0) + 0.05
    y_chart = Chart(ylo, yhi, chart.res)
    J = np.broadcast_to(A, chart.res + (2, 2)).copy()
    conn_y = connection_field(y_chart, np.zeros(y_chart.res + (2, 2, 2)))
    out = transform_connection(conn_y, forward, JacobianField(chart, J))
    assert np.abs(out.values).max() < 1e-12


def test_transform_quadratic_produces_flat_disguise(unit_chart_65):
    # Gamma_y = 0 through y1 = x1, y2 = x2 + x1^2/2 gives the single
    # constant component, exactly (FD is exact on the linear jacobian)
    bundle = quadratic_bundle(unit_chart_65, cover=True)
    conn_y = connection_field(bundle.y_chart, np.zeros(bundle.y_chart.res + (2, 2, 2)))
    out = transform_connection(conn_y, bundle.forward.values, bundle.jac)
    want = flat_disguise_connection(unit_chart_65)
    assert np.abs(out.values - want.values).max() < 1e-11


def test_transform_connection_refuses_a_forward_map_off_the_y_chart(unit_chart):
    # one node whose y(x) leaves the y-chart is enough to refuse the law
    forward = unit_chart.nodes.copy()
    forward[0, 0] = -0.01
    J = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2)).copy()
    conn_y = connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)))
    with pytest.raises(ShapeError, match="leaves the y-chart at 1 nodes"):
        transform_connection(conn_y, forward, JacobianField(unit_chart, J))


# -- split --------------------------------------------------------------------


def test_split_identity_jacobian(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    eye = np.broadcast_to(np.eye(2), unit_chart_65.res + (2, 2)).copy()
    tilde = split_transform(conn, eye)
    assert np.abs(inhomogeneous(eye, unit_chart_65.grad(eye))).max() < 1e-12
    assert np.abs(tilde.values - conn.values).max() < 1e-12


def test_split_inverts_flat_disguise(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    tilde = split_transform(conn, quadratic_jacobian(unit_chart_65))
    assert np.abs(tilde.values).max() < 1e-11


def test_split_reassembly_machine_precision(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    J, _ = trig_gradient_jacobian(unit_chart_65)
    tilde = split_transform(conn, J)
    reassembled = tilde.values + inhomogeneous(det_inverse(J)[1], unit_chart_65.grad(J))
    assert np.abs(reassembled - conn.values).max() < 1e-14


# -- identity checks ----------------------------------------------------------


def test_identity_checks_quadratic_exact(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    J = quadratic_jacobian(unit_chart_65)
    assert coderivative_identity_residual(conn, J, p=4.0) < 1e-11
    assert dgamma_identity_residual(conn, J, p=4.0) < 1e-11


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


def test_dgamma_negative_control(unit_chart_65, monkeypatch):
    # without the dJinv ^ dJ term the identity fails by three orders
    J, _ = trig_gradient_jacobian(unit_chart_65)
    conn = smooth_connection(unit_chart_65)
    with_term = dgamma_identity_residual(conn, J, p=4.0)
    monkeypatch.setattr(transform, "wedge", lambda a, b: 0.0)
    dropped = dgamma_identity_residual(conn, J, p=4.0)
    assert dropped > 100 * with_term


def test_coderivative_negative_control(unit_chart_65, monkeypatch):
    # without the <dJinv; dJ> term the identity fails by three orders
    J, _ = trig_gradient_jacobian(unit_chart_65)
    conn = smooth_connection(unit_chart_65)
    with_term = coderivative_identity_residual(conn, J, p=4.0)
    monkeypatch.setattr(transform, "matrix_inner", lambda a, b: np.zeros(a.shape[:-1]))
    dropped = coderivative_identity_residual(conn, J, p=4.0)
    assert dropped > 100 * with_term


# -- jacobian integration -----------------------------------------------------


def test_integrate_identity(unit_chart):
    eye = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2)).copy()
    fwd = integrate_jacobian(JacobianField(unit_chart, eye))
    assert np.abs(fwd - unit_chart.nodes).max() < 1e-12


def test_integrate_quadratic_exact(unit_chart_65):
    J = quadratic_jacobian(unit_chart_65)
    fwd = integrate_jacobian(JacobianField(unit_chart_65, J))
    X = unit_chart_65.nodes
    want1 = X[..., 0]
    # basepoint-anchored antiderivative of x1 dx1 along the staircase
    want2 = X[..., 1] + 0.5 * X[..., 0] ** 2
    got2 = fwd[..., 1] - fwd[tuple(r // 2 for r in unit_chart_65.res)][1] + want2[tuple(r // 2 for r in unit_chart_65.res)]
    assert np.abs(fwd[..., 0] - want1).max() < 1e-12
    assert np.abs(got2 - want2).max() < 1e-12


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


def test_invert_map_names_a_singular_node(unit_chart):
    # J vanishes for x2 >= 0.5; Newton first reads it there at y-node (0, 16)
    fwd = GridField(unit_chart, 0.25 + 0.5 * unit_chart.nodes)
    J = np.broadcast_to(0.5 * np.eye(2), unit_chart.res + (2, 2)).copy()
    J[:, 16:] = 0.0
    with pytest.raises(JacobianError, match=r"at node \(0, 16\)"):
        invert_map(fwd, unit_chart, J)


def test_invert_map_fails_on_a_nan_residual(unit_chart, monkeypatch):
    fwd = GridField(unit_chart, unit_chart.nodes + 0.01)
    fwd.values[10, 12, 0] = np.nan  # past GridField's own finiteness check
    eye = np.broadcast_to(np.eye(2), unit_chart.res + (2, 2))
    # a Newton step from a NaN residual is NaN: the next read names the point
    with pytest.raises(DomainExit, match="nan"):
        invert_map(fwd, unit_chart, eye)
    # with no step to take, the strict gate itself reads NaN as a failure
    monkeypatch.setattr(transform, "NEWTON_MAX_ITERS", 0)
    with pytest.raises(InversionError, match="residual nan"):
        invert_map(fwd, unit_chart, eye)


def test_invert_quadratic_closed_form(unit_chart_65):
    bundle = quadratic_bundle(unit_chart_65)
    y = bundle.y_chart.nodes
    want = y.copy()
    want[..., 1] = y[..., 1] - 0.5 * y[..., 0] ** 2
    # newton hits the discrete map to tau_map; closeness to the closed form
    # is then limited by the bilinear interpolation bias h^2/8
    h2 = float(bundle.x_chart.h.max()) ** 2
    assert np.abs(bundle.inverse.values - want).max() < h2
    # double interpolation bias bounds the round trip x(y(x)) on the interior
    # nodes whose image lies on the y-chart
    interior = bundle.x_chart.nodes[4:-4, 4:-4].reshape(-1, 2)
    ypts = interpolate(bundle.forward, interior)
    ok = bundle.y_chart.contains(ypts)
    assert ok.any()
    assert np.abs(bundle.inverse_at(ypts[ok]) - interior[ok]).max() < 3 * h2


# -- curves and forces --------------------------------------------------------


def test_pull_back_identity(unit_chart_65):
    from rtgeo.geodesics import Curve

    bundle = identity_bundle(unit_chart_65)
    t = np.linspace(0, 0.5, 65)
    pos = np.stack([0.3 + 0.4 * t, 0.5 + 0.1 * t], axis=1)
    vel = np.tile([0.4, 0.1], (65, 1))
    c = Curve(times=t, positions=pos, velocities=vel, truncation="velocity_ball")
    out = pull_back_curve(c, bundle)
    assert out.truncation == "velocity_ball" and out.truncated  # the cause is carried
    assert np.abs(out.positions - pos).max() < 1e-10
    assert np.abs(out.velocities - vel).max() < 1e-10


def test_pull_back_chain_rule(unit_chart_65):
    # the FD time derivative of the pulled-back positions x(y(t)) matches the
    # pulled-back velocities J(x)^-1 w
    from rtgeo.geodesics import Curve

    bundle = quadratic_bundle(unit_chart_65)
    dt = 1 / 512
    t = np.arange(0, 0.5, dt)
    pos = np.stack([0.2 + 0.5 * t, 0.55 + 0.05 * t], axis=1)
    assert bundle.y_chart.contains(pos).all()
    vel = np.tile([0.5, 0.05], (len(t), 1))
    out = pull_back_curve(Curve(times=t, positions=pos, velocities=vel), bundle)
    fd = np.gradient(out.positions, dt, axis=0)
    # the multilinear map's time derivative carries O(h)-scale kinks
    tol = float(bundle.x_chart.h.max()) * 0.5
    assert np.abs(fd[2:-2] - out.velocities[2:-2]).max() < tol


def test_pull_back_straight_line_is_parabola(unit_chart_65):
    from rtgeo.geodesics import Curve

    bundle = quadratic_bundle(unit_chart_65)
    dt = 1 / 256
    t = np.arange(0, 0.75 + dt / 2, dt)
    y0 = np.array([0.2, 0.57])
    w0 = np.array([0.6, 0.12])
    pos_y = y0 + t[:, None] * w0
    c = Curve(times=t, positions=pos_y, velocities=np.tile(w0, (len(t), 1)))
    back = pull_back_curve(c, bundle)
    want1 = pos_y[:, 0]
    want2 = pos_y[:, 1] - 0.5 * pos_y[:, 0] ** 2
    h2 = float(bundle.x_chart.h.max()) ** 2
    assert np.abs(back.positions[:, 0] - want1).max() < 2 * h2
    assert np.abs(back.positions[:, 1] - want2).max() < 2 * h2


def test_pull_back_at_is_the_spelled_out_sequence(rough_gen):
    # x(y), J(x) and J(x)^-1 bit for bit as clipped interpolation of x(y),
    # clipped interpolation of J at x and det_inverse give them, on a batch
    # that includes points off the y-chart and on one point
    bundle = rough_gen.hidden_bundle
    ypts = bundle.y_chart.nodes.reshape(-1, 2)
    batch = np.concatenate([ypts, ypts[:9] + 0.5, ypts[-9:] - 0.5])
    for pts in (batch, ypts[1234]):
        x = interpolate(GridField(bundle.y_chart, bundle.inverse.values), pts, clip=True)
        J = interpolate(GridField(bundle.x_chart, bundle.jac.J), x, clip=True)
        want = (x, J, det_inverse(J)[1])
        for got, w in zip(bundle.pull_back_at(pts), want):
            assert got.shape == w.shape and got.tobytes() == w.tobytes()


def test_transform_force_constant_linear(unit_chart_65):
    from rtgeo.charts import ForceField

    bundle = identity_bundle(unit_chart_65)
    K = ForceField(evaluator=lambda t, x, v: np.array([0.3, -0.1]))
    Ky = transform_force(K, bundle)
    got = Ky(0.0, np.array([0.5, 0.5]), np.array([0.1, 0.0]))
    assert np.allclose(got, [0.3, -0.1], atol=1e-9)


def test_transform_force_quadratic_oracle(unit_chart_65):
    from rtgeo.charts import ForceField

    bundle = quadratic_bundle(unit_chart_65)
    K = ForceField(evaluator=lambda t, x, v: np.array([0.2 * x[0], 0.1]))
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
    conn_x = transform_connection(conn_y, bundle.forward.values, bundle.jac)
    R_x = riemann(conn_x)
    R_y = riemann(conn_y)
    ypts = bundle.forward.values.reshape(-1, 2)
    Ry_at = interpolate(R_y, ypts, clip=True).reshape(
        unit_chart_65.res + (2, 2, 2, 2)
    )
    from rtgeo.curvature import curvature_field

    pushed = transform_curvature(curvature_field(unit_chart_65, Ry_at), bundle.jac.J)
    inner = (slice(6, -6), slice(6, -6))
    gap = np.abs(R_x.values[inner] - pushed.values[inner]).max()
    assert gap < 30 * float(unit_chart_65.h.max()) ** 2


@settings(max_examples=15, deadline=None)
@given(shear=st.floats(-0.75, 0.75), amp=st.floats(0.0, 0.5))
def test_transform_group_property(unit_chart_65, shear, amp):
    # x -> y -> x through the shear map and its closed-form inverse returns
    # Gamma_y: the inhomogeneous terms cancel to rounding, and the homogeneous
    # part's interpolation error is linear in amp (measured up to 1.1e-3 amp)
    bundle = quadratic_bundle(unit_chart_65, cover=True, shear=shear)
    conn_y = smooth_connection(bundle.y_chart, amp=amp)
    conn_x = transform_connection(conn_y, bundle.forward.values, bundle.jac)
    # back through the closed-form inverse map and jacobian, on the y-chart's
    # nodes whose image stays 0.05 inside the unit x-chart: y1 in [0.05, 0.95]
    # and y2 - shear y1^2 in [0.05, 0.95]
    def nodes_within(axis, a, b):
        i = np.flatnonzero((axis >= a) & (axis <= b))
        return slice(i[0], i[-1] + 1)

    lo, hi = 0.05, 0.95
    q = shear * np.array([lo, hi]) ** 2
    y1, y2 = bundle.y_chart.axes
    sl = (nodes_within(y1, lo, hi), nodes_within(y2, lo + q.max(), hi + q.min()))
    Y = bundle.y_chart.nodes[sl]
    sub = Chart(Y[0, 0], Y[-1, -1], Y.shape[:2])
    inv_jac = JacobianField(sub, quadratic_jacobian(sub, -shear))
    conn_back = transform_connection(conn_x, shear_map(Y, -shear), inv_jac)
    gap = np.abs(conn_back.values - conn_y.values[sl]).max()
    assert gap < 1.5e-3 * amp + 1e-13
