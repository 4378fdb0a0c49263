import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtgeo import cli, geodesics, rt_solver
from rtgeo.charts import Chart, ForceField, GridField, connection_field, dump_field, interpolate
from rtgeo.errors import DomainExit, RtgeoError, SolverError, StageError
from rtgeo.geodesics import (
    GeodesicProblem,
    convergence_report,
    gronwall_uniqueness_check,
    mollified_family,
    solve_forced,
    solve_geodesic,
    solve_mollified,
    uniform_bound_check,
    unit_ball_volume,
    weak_solution_pipeline,
)
from rtgeo.harness import load_config, sphere_christoffel, sphere_geodesic
from rtgeo.rt_solver import RTConfig
from rtgeo.transform import pushforward_curve

from conftest import flat_disguise_connection


def zero_connection(chart):
    return connection_field(chart, np.zeros(chart.res + (2, 2, 2)))


def flat_evaluator(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros(pts.shape[:-1] + (2, 2, 2))
    out[..., 1, 0, 0] = 1.0
    return out[0] if np.asarray(pts).ndim == 1 else out


def parabola_reference(x0, v0, t):
    pos = np.stack([x0[0] + v0[0] * t, x0[1] + v0[1] * t - 0.5 * v0[0] ** 2 * t ** 2], axis=1)
    vel = np.stack([np.full_like(t, v0[0]), v0[1] - v0[0] ** 2 * t], axis=1)
    return pos, vel


# -- basic solves -------------------------------------------------------------


@pytest.mark.parametrize("method", ["rk4", "picard"])
def test_straight_line_exact(unit_chart, method):
    prob = GeodesicProblem(zero_connection(unit_chart), 0.0, [0.2, 0.5], [0.5, 0.1], interval=0.9)
    c = solve_geodesic(prob, method)
    want = np.array([0.2, 0.5]) + np.outer(c.times, [0.5, 0.1])
    assert np.abs(c.positions - want).max() < 1e-12
    assert np.abs(c.velocities - [0.5, 0.1]).max() < 1e-12


def test_flat_disguise_parabola(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    x0, v0 = np.array([0.16, 0.55]), np.array([0.8, 0.0])
    prob = GeodesicProblem(conn, 0.0, x0, v0, interval=1.0)
    c = solve_geodesic(prob, "rk4", dt=1 / 256)
    pos, vel = parabola_reference(x0, v0, c.times)
    assert np.abs(c.positions - pos).max() < 1e-10
    assert np.abs(c.velocities - vel).max() < 1e-10


def test_sphere_equator_great_circle():
    chart = Chart((np.pi / 4, -0.15), (3 * np.pi / 4, 1.15), (65, 65))
    conn = connection_field(
        chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    )
    prob = GeodesicProblem(conn, 0.0, [np.pi / 2, 0.0], [0.0, 1.0], interval=1.0)
    c = solve_geodesic(prob, "rk4", dt=1 / 512)
    assert np.abs(c.positions[:, 0] - np.pi / 2).max() < 1e-6
    assert np.abs(c.positions[:, 1] - c.times).max() < 1e-6


def test_rk4_step_halving_ratio_closed_form():
    # tilted great circle with the closed-form coefficient evaluator isolates
    # the time discretization error
    x0 = np.array([np.pi / 2, 0.1])
    v0 = np.array([0.35, 0.55])
    errs = {}
    for dt in (1 / 256, 1 / 512):
        prob = GeodesicProblem(sphere_christoffel, 0.0, x0, v0, interval=1.0)
        c = solve_geodesic(prob, "rk4", dt=dt)
        pos, vel = sphere_geodesic(x0, v0, c.times)
        errs[dt] = np.abs(c.positions - pos).max() + np.abs(c.velocities - vel).max()
    ratio = errs[1 / 256] / errs[1 / 512]
    assert 12.0 <= ratio <= 20.0


def test_picard_rk4_agreement_contraction_regime():
    prob = GeodesicProblem(flat_evaluator, 0.0, np.array([0.0, 0.0]), np.array([0.6, 0.1]), interval=0.5)
    a = solve_geodesic(prob, "rk4", dt=1 / 2048)
    b = solve_geodesic(prob, "picard", dt=1 / 2048, tol_ode=1e-13)
    assert a.c1_distance(b) < 1e-6
    assert b.picard_sweeps < 200


def test_time_reversal_machine_precision(unit_chart_65):
    # the equation is quadratic in the velocity: flipping v0 traces the
    # backward extension gamma(-t); rk4 is exact on the quadratic solution,
    # so the closed form pins both branches at machine precision
    conn = flat_disguise_connection(unit_chart_65)
    x0, v0 = np.array([0.5, 0.5]), np.array([0.45, 0.1])
    fwd = solve_geodesic(GeodesicProblem(conn, 0.0, x0, v0, interval=0.5), "rk4", dt=1 / 128)
    rev = solve_geodesic(GeodesicProblem(conn, 0.0, x0, -v0, interval=0.5), "rk4", dt=1 / 128)
    pos_f, vel_f = parabola_reference(x0, v0, fwd.times)
    pos_r, vel_r = parabola_reference(x0, v0, -rev.times)
    assert np.abs(fwd.positions - pos_f).max() < 1e-13
    assert np.abs(rev.positions - pos_r).max() < 1e-13
    assert np.abs(rev.velocities + vel_r).max() < 1e-13


def test_domain_truncation_and_immediate_exit(unit_chart):
    conn = zero_connection(unit_chart)
    c = solve_geodesic(GeodesicProblem(conn, 0.0, [0.8, 0.5], [1.0, 0.0], interval=1.0), "rk4")
    assert c.truncated
    assert c.interval < 0.25
    with pytest.raises(DomainExit):
        GeodesicProblem(conn, 0.0, [1.2, 0.5], [1.0, 0.0])


def test_velocity_ball_truncation(unit_chart):
    # strong constant pull: |v - v0| reaches 1 before the chart edge
    def strong(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros(pts.shape[:-1] + (2, 2, 2))
        out[..., 1, 0, 0] = 30.0
        return out[0] if np.asarray(pts).ndim == 1 else out

    prob = GeodesicProblem(strong, 0.0, np.array([0.1, 0.9]), np.array([0.2, 0.0]), interval=1.0, chart=None)
    c = solve_geodesic(prob, "rk4", dt=1 / 256)
    assert c.truncated
    assert np.linalg.norm(c.velocities - c.velocities[0], axis=1).max() <= 1.0 + 1e-9


def test_curve_velocity_consistency(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    c = solve_geodesic(GeodesicProblem(conn, 0.0, [0.16, 0.55], [0.6, 0.0], interval=1.0), "rk4", dt=1 / 256)
    fd = np.gradient(c.positions, c.dt, axis=0)
    assert np.abs(fd[2:-2] - c.velocities[2:-2]).max() < 5 * c.dt ** 2 / c.dt * 0.1 + 5e-5


# -- forced -------------------------------------------------------------------


def test_forced_uniform_acceleration(unit_chart):
    conn = zero_connection(unit_chart)
    K = ForceField(evaluator=lambda t, x, v: np.array([0.0, 0.3]))
    prob = GeodesicProblem(conn, 0.0, [0.2, 0.2], [0.4, 0.0], force=K, interval=1.0)
    c = solve_forced(prob, "rk4", dt=1 / 256)
    t = c.times
    want = np.stack([0.2 + 0.4 * t, 0.2 + 0.15 * t ** 2], axis=1)
    assert np.abs(c.positions - want).max() < 1e-12


def test_forced_linear_drag(unit_chart):
    conn = zero_connection(unit_chart)
    K = ForceField(evaluator=lambda t, x, v: -np.asarray(v))
    prob = GeodesicProblem(conn, 0.0, [0.2, 0.5], [0.5, 0.0], force=K, interval=0.9)
    c = solve_forced(prob, "rk4", dt=1 / 256)
    want_v = 0.5 * np.exp(-c.times)
    assert np.abs(c.velocities[:, 0] - want_v).max() < 1e-8


def test_forced_requires_force(unit_chart):
    with pytest.raises(RtgeoError):
        solve_forced(GeodesicProblem(zero_connection(unit_chart), 0.0, [0.5, 0.5], [0.1, 0.0]))


def test_forced_transform_oracle(unit_chart_65):
    # constant y-force through the quadratic map matches the mapped closed form
    from rtgeo.transform import build_bundle
    from conftest import quadratic_jacobian

    chart = unit_chart_65
    X = chart.nodes
    fwd = X.copy()
    fwd[..., 1] = X[..., 1] + 0.5 * X[..., 0] ** 2
    flat = fwd.reshape(-1, 2)
    m = 2 * float(chart.h.max())
    y_chart = Chart(flat.min(axis=0) - m, flat.max(axis=0) + m, chart.res)
    bundle = build_bundle(chart, quadratic_jacobian(chart), forward=fwd, y_chart=y_chart)
    a = np.array([0.0, 0.25])
    # y-dynamics: straight + at^2/2; map back to x closed form
    Kx = ForceField(evaluator=lambda t, x, v: np.linalg.solve(
        np.array([[1.0, 0.0], [x[0], 1.0]]), a
    ) if np.asarray(x).ndim == 1 else None)
    # in x-coordinates the force is Jinv a (plus no fictitious term because
    # the connection term already carries the geometry)
    conn = flat_disguise_connection(chart)
    x0 = np.array([0.2, 0.4])
    v0 = np.array([0.5, 0.0])
    prob = GeodesicProblem(conn, 0.0, x0, v0, force=Kx, interval=0.8)
    c = solve_forced(prob, "rk4", dt=1 / 256)
    y0 = np.array([x0[0], x0[1] + 0.5 * x0[0] ** 2])
    w0 = np.array([[1.0, 0.0], [x0[0], 1.0]]) @ v0
    t = c.times
    ypos = y0 + t[:, None] * w0 + 0.5 * t[:, None] ** 2 * a
    want = ypos.copy()
    want[:, 1] = ypos[:, 1] - 0.5 * ypos[:, 0] ** 2
    assert np.abs(c.positions - want).max() < 1e-9


# -- pipeline -----------------------------------------------------------------


def test_pipeline_smooth_self_consistency(sphere_gen):
    scn = sphere_gen.scenario
    prob = GeodesicProblem(
        sphere_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    direct = solve_geodesic(prob, "rk4", dt=1 / 256)
    piped = weak_solution_pipeline(sphere_gen.conn_x, prob, dt=1 / 256)
    assert piped.curve.c1_distance(direct) < 5e-3


def test_pipeline_flat_matches_parabola(flat_gen):
    scn = flat_gen.scenario
    x0, v0 = np.asarray(scn.x0), np.asarray(scn.v0)
    prob = GeodesicProblem(flat_gen.conn_x, 0.0, x0, v0, interval=1.0)
    res = weak_solution_pipeline(flat_gen.conn_x, prob)
    pos, vel = parabola_reference(x0, v0, res.curve.times)
    err = np.abs(res.curve.positions - pos).max() + np.abs(res.curve.velocities - vel).max()
    assert err < 1e-4


def test_pipeline_rough_matches_hidden_truth(rough_gen):
    scn = rough_gen.scenario
    prob = GeodesicProblem(
        rough_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    res = weak_solution_pipeline(rough_gen.conn_x, prob)
    pos, vel = rough_gen.reference_curve(res.curve.times)
    err = np.abs(res.curve.positions - pos).max() + np.abs(res.curve.velocities - vel).max()
    assert err < 2e-2


def test_pipeline_uniqueness_mode(rough_gen):
    scn = rough_gen.scenario
    prob = GeodesicProblem(
        rough_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    res = weak_solution_pipeline(rough_gen.conn_x, prob, mode="uniqueness")
    assert res.second_pass is not None
    assert "picard_rk4_gap" in res.provenance
    pos, vel = rough_gen.reference_curve(res.curve.times)
    err = np.abs(res.curve.positions - pos).max()
    assert err < 5e-2


def test_pipeline_coordinate_invariance(flat_gen):
    # solve in x then push equals push data then solve in y (smooth case)
    scn = flat_gen.scenario
    x0, v0 = np.asarray(scn.x0), np.asarray(scn.v0)
    prob = GeodesicProblem(flat_gen.conn_x, 0.0, x0, v0, interval=0.8)
    res = weak_solution_pipeline(flat_gen.conn_x, prob)
    direct = solve_geodesic(prob, "rk4")
    assert res.curve.c1_distance(direct) < 1e-6


CONFIG_GENS = {"flat_disguise": "flat_gen", "sphere": "sphere_gen", "rough_beta06": "rough_gen"}


def force_subchart_retry(monkeypatch, full_chart):
    """Make the RT solve fail on the full chart, so the sub-chart retry runs."""
    real = rt_solver._solve_on_chart

    def solve(conn, *args, **kwargs):
        if conn.chart == full_chart:
            raise SolverError("forced failure on the full chart")
        return real(conn, *args, **kwargs)

    monkeypatch.setattr(rt_solver, "_solve_on_chart", solve)


@pytest.mark.parametrize("config", sorted(CONFIG_GENS))
def test_pipeline_names_initial_data_stage(config, request, monkeypatch):
    # after a sub-chart retry the config's x0 lies off the half-radius x-chart;
    # the push of the initial data must fail inside a named stage
    gen = request.getfixturevalue(CONFIG_GENS[config])
    scn = gen.scenario
    _, rt_kwargs = load_config(f"configs/{config}.cfg")
    force_subchart_retry(monkeypatch, gen.conn_x.chart)
    prob = GeodesicProblem(gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval)
    with pytest.raises(StageError) as err:
        weak_solution_pipeline(gen.conn_x, prob, rt_config=RTConfig(**rt_kwargs))
    assert err.value.stage == "initial_data"
    assert isinstance(err.value.cause, DomainExit)


@pytest.mark.parametrize("config", sorted(CONFIG_GENS))
def test_pipeline_subchart_retry_matches_hand_sliced_pass(config, request, monkeypatch, tmp_path, capsys):
    """Guard for the retry path: the pipeline and ``rtgeo rt-solve`` after a forced
    sub-chart retry are byte-equal to a pass written out on the hand-sliced sub-chart."""
    gen = request.getfixturevalue(CONFIG_GENS[config])
    scn, conn, full = gen.scenario, gen.conn_x, gen.conn_x.chart
    _, rt_kwargs = load_config(f"configs/{config}.cfg")
    cfg = RTConfig(**rt_kwargs)
    force_subchart_retry(monkeypatch, full)
    x0, v0 = 0.5 * (full.lo + full.hi), np.asarray(scn.v0)
    prob = GeodesicProblem(conn, scn.t0, x0, v0, interval=scn.interval)
    res = weak_solution_pipeline(conn, prob, rt_config=cfg)

    sub, slc = full.sub_chart()
    sub_conn = connection_field(sub, np.ascontiguousarray(conn.values[slc]))

    def hand_pass(rt_cfg):
        state = rt_solver.solve_reduced_rt(sub_conn, rt_cfg)  # the sub-chart is let through
        bundle = rt_solver.rt_bundle(state)
        tilde = rt_solver.assemble_gamma_tilde(sub_conn, state)
        return state, bundle, rt_solver.optimal_connection(tilde, bundle)

    state, bundle, conn_y = hand_pass(cfg)
    y0 = bundle.map.forward_at(x0)
    w0 = interpolate(GridField(bundle.x_chart, bundle.jac.J), x0) @ v0
    curve_y = solve_geodesic(GeodesicProblem(conn_y, scn.t0, y0, w0, interval=scn.interval), "rk4")
    curve = pushforward_curve(curve_y, bundle, direction="backward")

    assert res.provenance["rt"] == {**state.summary(), "used_subchart": True}
    assert res.bundle.x_chart == sub
    assert res.conn_y.chart == conn_y.chart
    assert res.conn_y.values.tobytes() == conn_y.values.tobytes()
    for name in ("times", "positions", "velocities"):
        assert getattr(res.curve, name).tobytes() == getattr(curve, name).tobytes()

    field = tmp_path / "gamma_x.csv"
    dump_field(conn, field)
    assert cli.main(["rt-solve", str(field)]) == 0
    state, _, _ = hand_pass(RTConfig())
    assert capsys.readouterr().out == json.dumps({**state.summary(), "used_subchart": True}, sort_keys=True) + "\n"


# -- mollified family ---------------------------------------------------------


@pytest.fixture(scope="module")
def rough_family(rough_gen):
    scn = rough_gen.scenario
    prob = GeodesicProblem(
        rough_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    pipe = weak_solution_pipeline(rough_gen.conn_x, prob)
    fam = mollified_family(pipe.conn_y, pipe.bundle, [1 / 8, 1 / 16, 1 / 32])
    curves = solve_mollified(fam, prob)
    return prob, pipe, fam, curves


def test_family_identity_zero(unit_chart_65):
    # identity bundle and zero connection: members vanish wherever the
    # mollifier kernel is untruncated (the rim carries renormalization bias)
    from rtgeo.transform import identity_bundle

    bundle = identity_bundle(unit_chart_65)
    conn_y = zero_connection(bundle.y_chart)
    fam = mollified_family(conn_y, bundle, [1 / 8, 1 / 16])
    for eps, conn_e in zip(fam.eps, fam.conn_eps):
        cells = int(np.ceil(eps / unit_chart_65.h.max())) + 2
        sl = (slice(cells, -cells), slice(cells, -cells))
        assert np.abs(conn_e.values[sl]).max() < 1e-10


def test_family_convergence_rough(rough_gen, rough_family):
    prob, pipe, fam, curves = rough_family
    rep = convergence_report(fam, curves, pipe.curve, rough_gen.conn_x, p=2.2)
    assert rep.monotone["conn"] and rep.monotone["riem"] and rep.monotone["curve"]
    assert rep.final_c1 < 1e-2
    assert rep.common_interval >= 0.5
    assert rep.rates["conn"] > 0.5


def test_family_w1p_divergence_witness(rough_gen, rough_family):
    # the mollified members converge in L^2p while their W^{1,p} norms grow
    prob, pipe, fam, curves = rough_family
    from rtgeo.calculus import gradient_field, lp_norm
    from rtgeo.charts import GridField

    w1 = []
    for conn_e in fam.conn_eps:
        f = GridField(conn_e.chart, conn_e.values)
        w1.append(lp_norm(f, 2.2) + lp_norm(gradient_field(f), 2.2))
    assert w1[-1] > w1[0]


def test_solve_mollified_common_interval(rough_family):
    prob, pipe, fam, curves = rough_family
    common = min(c.interval for c in curves)
    assert common >= 0.5
    for c in curves:
        assert c.times[0] == prob.t0


# -- appendix checks ----------------------------------------------------------


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)


def test_uniform_bound_zero_connection(unit_chart):
    conn = zero_connection(unit_chart)
    c = solve_geodesic(GeodesicProblem(conn, 0.0, [0.1, 0.5], [0.8, 0.0], interval=1.0), "rk4")
    rep = uniform_bound_check(c, gamma_c0=0.0, alpha=1 - 2 / 2.2, n=2)
    assert rep["holds"]
    assert rep["rhs"] >= np.pi ** 2


def test_uniform_bound_mollified_family(rough_family):
    prob, pipe, fam, curves = rough_family
    alpha = 1 - 2 / 2.2
    for conn_e, c in zip(fam.conn_eps, curves):
        c0 = float(np.sqrt((conn_e.values.reshape(conn_e.chart.npoints, -1) ** 2).sum(axis=1)).max())
        rep = uniform_bound_check(c, c0, alpha, 2)
        assert rep["holds"], rep


def test_uniform_bound_sphere():
    chart = Chart((np.pi / 4, -0.15), (3 * np.pi / 4, 1.15), (65, 65))
    conn = connection_field(
        chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    )
    c = solve_geodesic(GeodesicProblem(conn, 0.0, [np.pi / 2, 0.0], [0.0, 1.0], interval=1.0), "rk4")
    c0 = float(np.sqrt((conn.values.reshape(chart.npoints, -1) ** 2).sum(axis=1)).max())
    rep = uniform_bound_check(c, c0, 1 - 2 / 2.2, 2)
    assert rep["holds"]


def test_gronwall_zero_perturbation_coincides(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    prob = GeodesicProblem(conn, 0.0, [0.16, 0.55], [0.6, 0.0], interval=1.0)
    rep = gronwall_uniqueness_check(prob, 0.0)
    assert rep["within_envelope"]
    assert rep["separation_max"] < 1e-8


def test_gronwall_free_motion_linear_growth(unit_chart):
    conn = zero_connection(unit_chart)
    prob = GeodesicProblem(conn, 0.0, [0.1, 0.5], [0.5, 0.0], interval=1.0)
    rep = gronwall_uniqueness_check(prob, 1e-6)
    assert rep["within_envelope"]
    # free motion: separation grows linearly, well below the envelope
    assert rep["separation_max"] < 1e-6 * (1 + 1.0) * 1.001


def test_gronwall_flat_disguise_envelope(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    prob = GeodesicProblem(conn, 0.0, [0.16, 0.55], [0.6, 0.0], interval=1.0)
    rep = gronwall_uniqueness_check(prob, 1e-6)
    assert rep["within_envelope"]


# -- RK4 and Picard against the per-step reference ----------------------------


def rk4_reference(problem, dt):
    """The RK4 loop on arrays, with batch ``interpolate`` (or the closed form),
    ``einsum``, ``chart.contains`` and ``np.linalg.norm`` at every step;
    returns the curve arrays, the truncation flag and which rule stopped it."""
    conn, force = problem.connection, problem.force
    n = len(problem.x0)

    def F(t, x, v):
        G = conn(x) if callable(conn) else interpolate(conn, x)
        a = -np.einsum("mrn,r,n->m", np.reshape(G, (n, n, n)), v, v)
        return a if force is None else a + force(t, x, v)

    x, v = problem.x0.copy(), problem.v0.copy()
    ts, xs, vs = [problem.t0], [x.copy()], [v.copy()]
    t, cause = problem.t0, None
    for _ in range(int(round(problem.interval / dt))):
        try:
            k1x, k1v = v, F(t, x, v)
            k2x = v + 0.5 * dt * k1v
            k2v = F(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
            k3x = v + 0.5 * dt * k2v
            k3v = F(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
            k4x = v + dt * k3v
            k4v = F(t + dt, x + dt * k3x, k4x)
        except DomainExit:
            cause = "stage"
            break
        xn = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        vn = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not problem.chart.contains(xn)[0]:
            cause = "chart"
            break
        if np.linalg.norm(vn - problem.v0) > 1.0:
            cause = "ball"
            break
        t, x, v = t + dt, xn, vn
        ts.append(t)
        xs.append(x.copy())
        vs.append(v.copy())
    return np.asarray(ts), np.asarray(xs), np.asarray(vs), cause is not None, cause


def last_inside_reference(problem, pos, kmax, vel=None, v0=None):
    """Picard's truncation rule as two scans over the nodes."""
    ok = problem.chart.contains(pos)
    for k in range(kmax + 1):
        if not ok[k]:
            return max(k - 1, 0)
    if vel is not None:
        dev = np.linalg.norm(vel - v0, axis=1)
        for k in range(kmax + 1):
            if dev[k] > 1.0:
                return max(k - 1, 0)
    return kmax


# (x0, v0) on the sphere chart per stopping cause at dt = 1/32: "stage" is a
# DomainExit inside an RK stage, "chart" a step whose end leaves the chart
# while its stages stay on it.  That window is O(dt^3) wide; the coarse step
# puts this x0 some 3e-6 inside it rather than at its last bit.
SPHERE_IVPS = {
    None: ([2.151, 0.734], [-1.013, -0.268]),
    "stage": ([1.586, 0.968], [1.766, 2.252]),
    "chart": ([1.594091, 0.72], [-1.56, -0.65]),
    "ball": ([1.726, 0.788], [-2.106, -1.81]),
}


def reference_case(case):
    """The problem and its stopping cause: the sampled sphere per SPHERE_IVPS
    cause, or one more kind of right-hand side."""
    chart = Chart((np.pi / 4, -0.15), (3 * np.pi / 4, 1.15), (65, 65))
    conn = connection_field(
        chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    )
    if case in SPHERE_IVPS:
        return GeodesicProblem(conn, 0.0, *SPHERE_IVPS[case], interval=1.0), case
    if case == "closed_form":
        prob = GeodesicProblem(sphere_christoffel, 0.0, [1.726, 0.788], [-2.106, -1.81], chart=chart)
        return prob, "ball"
    if case == "forced":
        drag = ForceField(evaluator=lambda t, x, v: -np.asarray(v))
        return GeodesicProblem(conn, 0.0, [2.151, 0.734], [-0.6, -0.2], force=drag), None
    # n = 3: a smooth sampled field with every component nonzero, on uneven axes
    chart = Chart((-1.0, -0.5, -0.8), (1.0, 1.2, 0.9), (9, 10, 11))
    pts = chart.nodes.reshape(-1, 3)
    waves = np.random.default_rng(3).normal(size=(3, 27))
    vals = 0.8 * np.sin(pts @ waves + np.arange(27)).reshape(chart.res + (3, 3, 3))
    return GeodesicProblem(connection_field(chart, vals), 0.0, [0.1, 0.2, 0.0], [1.5, -0.9, 0.5]), "stage"


@pytest.mark.parametrize("case", [*SPHERE_IVPS, "n3", "closed_form", "forced"])
def test_rk4_and_picard_match_reference_on_sphere(case, monkeypatch):
    prob, cause = reference_case(case)
    ts, xs, vs, truncated, got_cause = rk4_reference(prob, 1 / 32)
    assert got_cause == cause
    c = solve_geodesic(prob, "rk4", dt=1 / 32)
    for a, b in ((c.times, ts), (c.positions, xs), (c.velocities, vs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert c.truncated == truncated

    p = solve_geodesic(prob, "picard", dt=1 / 32)
    monkeypatch.setattr(geodesics, "_last_inside", last_inside_reference)
    q = solve_geodesic(prob, "picard", dt=1 / 32)
    assert (p.picard_sweeps, len(p.times), p.truncated) == (q.picard_sweeps, len(q.times), q.truncated)
    for a, b in ((p.times, q.times), (p.positions, q.positions), (p.velocities, q.velocities)):
        assert a.tobytes() == b.tobytes()
    assert p.truncated == (cause is not None)


# -- the step's scalar pieces against their numpy definitions -----------------


def spread_floats():
    """Signed magnitudes spread over 1e-3 .. 1e3, zeros of either sign included."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1, 1), st.floats(-3, 3))


@st.composite
def contraction_inputs(draw):
    n = draw(st.integers(1, 4))
    G = draw(st.lists(spread_floats(), min_size=n ** 3, max_size=n ** 3))
    v = draw(st.lists(spread_floats(), min_size=n, max_size=n))
    return G, v


def matches_einsum(contract, G, v):
    n = len(v)
    want = -np.einsum("mrn,r,n->m", np.reshape(G, (n, n, n)), v, v)
    got = np.array(contract(G, v))
    return got.tobytes() == want.tobytes() and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=400, deadline=None)
@given(contraction_inputs())
def test_contract_matches_einsum(inputs):
    assert matches_einsum(geodesics._contract, *inputs)


def test_contract_check_rejects_other_order():
    """Negative control: the same sum with n outer and r inner fails the check."""

    def n_outer(G, v):
        n = len(v)
        out = []
        for m in range(n):
            s = 0.0
            for b in range(n):
                for a in range(n):
                    s = s + G[(m * n + a) * n + b] * v[a] * v[b]
            out.append(-s)
        return out

    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        draws = [
            [(rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3, k)).tolist() for k in (n ** 3, n)]
            for _ in range(50)
        ]
        assert all(matches_einsum(geodesics._contract, G, v) for G, v in draws)
        assert not all(matches_einsum(n_outer, G, v) for G, v in draws)


def test_velocity_ball_guard_matches_norm():
    """The step's ball test against ``np.linalg.norm(vn - v0) > 1`` where the
    two can part: |vn - v0| within a few ulps of 1, NaN and inf, and a spread
    of radii through the Python sum of squares' fast path."""
    rng = np.random.default_rng(9)
    ulp = np.finfo(float).eps
    cases = []
    for n in (1, 2, 3):
        radii = np.concatenate([1 + rng.integers(-4, 5, 4000) * ulp, rng.uniform(0, 1.5, 1000)])
        for radius in radii:
            v0 = rng.uniform(-2, 2, n)
            d = rng.standard_normal(n)
            cases.append((v0 + radius * (d / np.linalg.norm(d)), v0))
    cases += [(np.array([np.nan, 0.2]), np.zeros(2)), (np.array([0.1, np.inf]), np.zeros(2))]
    parted = 0
    for vn, v0 in cases:
        want = np.linalg.norm(vn - v0) > 1.0
        assert geodesics._outside_ball(vn.tolist(), v0.tolist()) == want
        parted += (sum((a - b) ** 2 for a, b in zip(vn, v0)) > 1.0) != want
    assert parted > 0  # the sum of squares alone would decide some of these wrongly
