import json

import numpy as np
import pytest

from rtgeo.calculus import connection_form, full_antisymmetric, lp_norm, mollify, wedge
from rtgeo.charts import Chart, GridField, connection_field
from rtgeo.curvature import (
    TestFunction,
    _weak_functional,
    bump_basis,
    lemma_b1_check,
    represent_weak,
    riemann,
    transform_curvature,
)
from rtgeo.errors import FittingError, TestFunctionError
from rtgeo.harness import sphere_christoffel

from conftest import drop_jacobian_factor, flat_disguise_connection, smooth_connection, weak_riemann


def sphere_chart(m=65):
    return Chart((np.pi / 4, 0.0), (3 * np.pi / 4, 1.0), (m, m))


def sphere_connection(m=65):
    chart = sphere_chart(m)
    return connection_field(
        chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    )


# -- strong curvature ---------------------------------------------------------


def test_riemann_zero(unit_chart):
    conn = connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)))
    assert np.abs(riemann(conn).values).max() == 0


def test_riemann_flat_in_disguise(unit_chart):
    R = riemann(flat_disguise_connection(unit_chart))
    assert np.abs(R.values).max() < 1e-12


def test_riemann_sphere_component():
    conn = sphere_connection(65)
    R = riemann(conn)
    th = conn.chart.nodes[..., 0]
    want = np.sin(th) ** 2
    got = R.values[..., 0, 1, 0, 1]
    interior = (slice(4, -4), slice(4, -4))
    assert np.abs(got[interior] - want[interior]).max() < 2 * conn.chart.h.max() ** 2 * 20


def test_riemann_antisymmetry(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    R = riemann(conn).values
    assert np.abs(R + R.swapaxes(-1, -2)).max() < 1e-14


def test_first_order_cancellation_identity(unit_chart_65):
    # d Gamma_x = d Gamma~ + dJinv ^ dJ for Gamma built from a smooth J
    from conftest import trig_gradient_jacobian
    from rtgeo.transform import dgamma_identity_residual

    chart = unit_chart_65
    J, _ = trig_gradient_jacobian(chart)
    conn = smooth_connection(chart)
    assert dgamma_identity_residual(conn, J, p=4.0) < 5e-5


# -- weak curvature -----------------------------------------------------------


def test_weak_riemann_zero(unit_chart):
    conn = connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)))
    psi = TestFunction(np.array([0.5, 0.5]), 0.3)
    assert np.abs(weak_riemann(conn, psi)).max() == 0


def test_weak_riemann_matches_strong_quadrature():
    conn = sphere_connection(65)
    chart = conn.chart
    psi = TestFunction(np.array([np.pi / 2, 0.5]), 0.35)
    w = weak_riemann(conn, psi)
    R = riemann(conn)
    pv = psi(chart.nodes.reshape(-1, 2))
    strong = (chart.quad_weights.ravel() * pv @ R.values.reshape(chart.npoints, -1)).reshape(2, 2, 2, 2)
    assert np.abs(w - strong).max() < 5e-4


def test_weak_riemann_support_error(unit_chart):
    conn = connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)))
    with pytest.raises(TestFunctionError):
        weak_riemann(conn, TestFunction(np.array([0.9, 0.5]), 0.3))


def mollified_weak_riemann_gaps(conn, psi):
    """max |weak Riemann of the eps-mollified conn - that of conn| at eps = 1/8, 1/16, 1/32."""
    base = weak_riemann(conn, psi)
    gaps = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        sm = mollify(GridField(conn.chart, conn.values), eps)
        gaps.append(np.abs(weak_riemann(connection_field(conn.chart, sm.values), psi) - base).max())
    return gaps


def test_weak_riemann_stable_under_mollification(rough_gen, unit_chart_65):
    psi = TestFunction(np.array([0.5, 0.5]), 0.3)
    # the kink-disguised connection is flat: its weak Riemann is 4.4e-18 and
    # every mollified one stays at rounding level (measured <= 6.6e-18)
    assert max(mollified_weak_riemann_gaps(rough_gen.conn_x, psi)) < 1e-15
    # a curved smooth connection (weak Riemann up to 3.6e-3): the gaps
    # measured 1.2e-5, 3.1e-6, 8.1e-7, shrinking like eps^2
    gaps = mollified_weak_riemann_gaps(smooth_connection(unit_chart_65, amp=0.3), psi)
    assert gaps[0] < 2e-5
    assert gaps[0] > 2 * gaps[1] > 4 * gaps[2] > 0


def test_weak_riemann_linear_in_psi_and_continuous_in_gamma(unit_chart):
    rng = np.random.default_rng(12)
    chart = unit_chart
    conn_a = connection_field(chart, 0.4 * rng.standard_normal(chart.res + (2, 2, 2)))
    conn_b = connection_field(chart, conn_a.values + 0.05 * rng.standard_normal(chart.res + (2, 2, 2)))
    p1 = TestFunction(np.array([0.45, 0.5]), 0.25)
    p2 = TestFunction(np.array([0.6, 0.55]), 0.25)
    # linearity in psi is exact at quadrature level: evaluate with a stacked bump
    class Sum:
        center = p1.center
        radius = p1.radius

        def check_support(self, chart, margin_cells=1):
            p1.check_support(chart)
            p2.check_support(chart)

        def __call__(self, pts):
            return p1(pts) + p2(pts)

        def gradient(self, pts):
            return p1.gradient(pts) + p2.gradient(pts)

    lhs = weak_riemann(conn_a, Sum())
    rhs = weak_riemann(conn_a, p1) + weak_riemann(conn_a, p2)
    assert np.abs(lhs - rhs).max() < 1e-12
    # Hölder-inequality continuity in Gamma
    gap = np.abs(weak_riemann(conn_a, p1) - weak_riemann(conn_b, p1)).max()
    p = 4.0
    q = p / (p - 1)
    grad_norm = (chart.quad_weights.ravel() * (np.linalg.norm(p1.gradient(chart.nodes.reshape(-1, 2)), axis=1) ** q)).sum() ** (1 / q)
    psi_max = 1.0
    na = lp_norm(GridField(chart, conn_a.values), 2 * p)
    nb = lp_norm(GridField(chart, conn_b.values), 2 * p)
    nd = lp_norm(GridField(chart, conn_a.values - conn_b.values), 2 * p)
    bound = 2 * (grad_norm + psi_max) * (1 + na + nb) * nd
    assert gap <= bound


def full_sum_functional(chart, wvals, wedge_full, psi):
    """The weak functional with both sums over every chart node: the reference
    that the support-restricted sums of ``_weak_functional`` reproduce bit for bit."""
    pts = chart.nodes.reshape(-1, chart.n)
    wv = wvals.reshape((chart.npoints,) + wvals.shape[chart.n :])
    wf = wedge_full.reshape((chart.npoints,) + wedge_full.shape[chart.n :])
    A = np.einsum("Ntmr,Nv->tmvr", wv, psi.gradient(pts))
    return chart.voxel() * (-(A - A.swapaxes(-1, -2)) + np.einsum("Ntmij,N->tmij", wf, psi(pts)))


@pytest.mark.parametrize("m", [33, 65, 129])
def test_weak_functional_support_sums_match_full_sums(m):
    # every bump of the basis, on a unit-scale and a wide-magnitude random Gamma
    chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
    rng = np.random.default_rng(m)
    for scale in (1.0, 10.0 ** rng.uniform(-3, 3, chart.res + (2, 2, 2))):
        w = connection_form(connection_field(chart, scale * rng.standard_normal(chart.res + (2, 2, 2))))
        wedge_full = full_antisymmetric(wedge(w, w), chart.n)
        for psi in bump_basis(chart):
            got = _weak_functional(chart, w, wedge_full, psi)
            assert got.tobytes() == full_sum_functional(chart, w, wedge_full, psi).tobytes()


# -- representation -----------------------------------------------------------


def _refit_residual(conn, basis, fit):
    """Largest gap between the fitted field's functionals, re-quadratured on
    the grid, and the weak functionals the fit was solved for."""
    chart = conn.chart
    pts = chart.nodes.reshape(-1, chart.n)
    psi_vals = np.stack([psi(pts) for psi in basis])
    refit = chart.voxel() * psi_vals @ fit.values.reshape(chart.npoints, -1)
    weak = np.stack([weak_riemann(conn, psi).ravel() for psi in basis])
    return float(np.abs(refit - weak).max())


def test_represent_weak_zero(unit_chart):
    conn = connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)))
    basis = bump_basis(unit_chart, 5)
    R = represent_weak(conn, basis)
    assert np.abs(R.values).max() == 0
    assert _refit_residual(conn, basis, R) == 0


def test_represent_weak_needs_16(unit_chart):
    with pytest.raises(FittingError):
        represent_weak(flat_disguise_connection(unit_chart), bump_basis(unit_chart, 3))


def test_represent_weak_rank_deficient(unit_chart):
    basis = bump_basis(unit_chart, 4)
    with pytest.raises(FittingError):
        represent_weak(flat_disguise_connection(unit_chart), basis + basis)


def test_represent_weak_smooth_agrees_on_span():
    conn = sphere_connection(65)
    chart = conn.chart
    basis = bump_basis(chart, 5)
    fit = represent_weak(conn, basis)
    R = riemann(conn)
    pts = chart.nodes.reshape(-1, 2)
    w = chart.quad_weights.ravel()
    for psi in basis[:5]:
        pv = psi(pts)
        a = (w * pv) @ fit.values.reshape(chart.npoints, -1)
        b = (w * pv) @ R.values.reshape(chart.npoints, -1)
        assert np.abs(a - b).max() < 5e-3
    assert _refit_residual(conn, basis, fit) < 1e-6


def test_represent_weak_rough_matches_hidden_truth(rough_gen):
    # generator truth: flat, so the represented curvature must be noise level
    fit = represent_weak(rough_gen.conn_x, bump_basis(rough_gen.conn_x.chart, 5))
    assert lp_norm(GridField(rough_gen.conn_x.chart, fit.values), 2.2) < 0.05


# -- tensor transformation ----------------------------------------------------


def test_transform_curvature_identity(unit_chart_65):
    conn = smooth_connection(unit_chart_65)
    R = riemann(conn)
    eye = np.broadcast_to(np.eye(2), unit_chart_65.res + (2, 2)).copy()
    out = transform_curvature(R, eye)
    assert np.abs(out.values - R.values).max() < 1e-13


def test_transform_curvature_diagonal_brute_force(unit_chart):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(unit_chart.res + (2, 2, 2, 2))
    vals = vals - vals.swapaxes(-1, -2)  # enforce antisymmetry
    from rtgeo.curvature import curvature_field

    R = curvature_field(unit_chart, vals)
    J = np.broadcast_to(np.diag([2.0, 1.0]), unit_chart.res + (2, 2)).copy()
    got = transform_curvature(R, J).values
    Jm = np.diag([2.0, 1.0])
    Ji = np.linalg.inv(Jm)
    brute = np.zeros_like(vals)
    for t in range(2):
        for m in range(2):
            for nv in range(2):
                for r in range(2):
                    acc = 0.0
                    for d in range(2):
                        for a in range(2):
                            for b in range(2):
                                for c in range(2):
                                    acc += Ji[t, d] * Jm[a, m] * Jm[b, nv] * Jm[c, r] * vals[..., d, a, b, c]
                    brute[..., t, m, nv, r] = acc
    assert np.abs(got - brute).max() < 1e-12


def test_transform_curvature_round_trip_and_composition(unit_chart):
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(unit_chart.res + (2, 2, 2, 2))
    vals = vals - vals.swapaxes(-1, -2)
    from rtgeo.curvature import curvature_field

    R = curvature_field(unit_chart, vals)
    J1 = np.broadcast_to(np.array([[1.0, 0.3], [0.1, 0.9]]), unit_chart.res + (2, 2)).copy()
    J2 = np.broadcast_to(np.array([[1.2, -0.2], [0.0, 1.1]]), unit_chart.res + (2, 2)).copy()
    back = transform_curvature(transform_curvature(R, J1), np.linalg.inv(J1))
    assert np.abs(back.values - R.values).max() < 1e-12
    # T(K) after T(J) composes to T(J K) under this contraction layout
    chained = transform_curvature(transform_curvature(R, J1), J2).values
    combo = transform_curvature(R, np.einsum("...ab,...bc->...ac", J1, J2)).values
    assert np.abs(chained - combo).max() < 1e-11


# -- lemma --------------------------------------------------------------------


def test_lemma_b1_pass_all_scenarios(flat_gen, rough_gen, sphere_gen):
    for gen in (flat_gen, rough_gen, sphere_gen):
        rep = lemma_b1_check(gen.conn_x, gen.hidden_bundle, gen.conn_y_true, p=2.2)
        assert rep["pass"], rep


def test_lemma_b1_negative_control(control_gen, monkeypatch):
    good = lemma_b1_check(control_gen.conn_x, control_gen.hidden_bundle, control_gen.conn_y_true, p=2.2)
    drop_jacobian_factor(monkeypatch)
    bad = lemma_b1_check(control_gen.conn_x, control_gen.hidden_bundle, control_gen.conn_y_true, p=2.2)
    assert good["pass"]
    assert not bad["pass"]
    assert bad["distance"] > 5 * good["distance"]


def test_lemma_b1_json(flat_gen):
    rep = lemma_b1_check(flat_gen.conn_x, flat_gen.hidden_bundle, flat_gen.conn_y_true, p=2.2)
    # the dict is the report block as stored: it survives a JSON round trip unchanged
    assert json.loads(json.dumps(rep)) == rep
    assert set(rep) == {"distance", "tolerance", "pass", "grid", "epsilon_basis"}
    assert rep["pass"] == (rep["distance"] < rep["tolerance"])
