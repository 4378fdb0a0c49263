import json
import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtgeo import cli, geodesics, rt_solver
from rtgeo.charts import Chart, ForceField, GridField, connection_field, dump_field, interpolate, sub_connection
from rtgeo.errors import DomainExit, RtgeoError, SolverError, StageError
from rtgeo.geodesics import (
    GeodesicProblem,
    convergence_report,
    default_dt,
    mollified_family,
    solve_geodesic,
    solve_mollified,
    weak_solution_pipeline,
)
from rtgeo.harness import _map_object, load_config, run_experiment, sphere_christoffel
from rtgeo.rt_solver import RTConfig
from rtgeo.transform import build_bundle, pull_back_curve, split_transform

from conftest import flat_disguise_connection, identity_bundle


def zero_connection(chart):
    return connection_field(chart, np.zeros(chart.res + (2, 2, 2)))


def constant_connection(chart, components):
    """The connection that is ``components[(m, r, n)]`` everywhere on
    ``chart`` at each listed component and zero elsewhere."""
    vals = np.zeros(chart.res + (2, 2, 2))
    for index, value in components.items():
        vals[(...,) + index] = value
    return connection_field(chart, vals)


def flat_constant():
    """Gamma^2_11 = 1 on a chart that holds every curve below."""
    return flat_disguise_connection(Chart((-1.0, -1.0), (1.0, 1.0), (17, 17)))


def strong_pull(chart):
    """A constant pull, Gamma^2_11 = 30, that takes |v - v0| to 1 before any
    chart edge from x0 = (0.1, 0.9), v0 = (0.2, 0)."""
    return constant_connection(chart, {(1, 0, 0): 30.0})


def bent_line(x0, v0, t):
    """The curve of Gamma^2_12 = Gamma^2_21 = 2: x1'' = 0 and
    x2'' = -4 v1 v2, so x1 = x1(0) + v1 t and x2' = v2(0) exp(-4 v1 t)."""
    rate = np.exp(-4 * v0[0] * t)
    pos = np.stack([x0[0] + v0[0] * t, x0[1] + v0[1] * (1 - rate) / (4 * v0[0])], axis=1)
    vel = np.stack([np.full_like(t, v0[0]), v0[1] * rate], axis=1)
    return pos, vel


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
    # a constant field, which multilinear interpolation reproduces, against
    # its closed-form curve isolates the time discretization error
    x0 = np.array([0.1, 0.2])
    v0 = np.array([0.8, 0.6])
    bent = constant_connection(Chart((0.0, 0.0), (1.0, 1.0), (17, 17)), {(1, 0, 1): 2.0, (1, 1, 0): 2.0})
    errs = {}
    for dt in (1 / 256, 1 / 512):
        prob = GeodesicProblem(bent, 0.0, x0, v0, interval=1.0)
        c = solve_geodesic(prob, "rk4", dt=dt)
        pos, vel = bent_line(x0, v0, c.times)
        errs[dt] = np.abs(c.positions - pos).max() + np.abs(c.velocities - vel).max()
    ratio = errs[1 / 256] / errs[1 / 512]
    assert 12.0 <= ratio <= 20.0


def test_picard_rk4_agreement_contraction_regime():
    prob = GeodesicProblem(flat_constant(), 0.0, np.array([0.0, 0.0]), np.array([0.6, 0.1]), interval=0.5)
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
    prob = GeodesicProblem(strong_pull(unit_chart), 0.0, np.array([0.1, 0.9]), np.array([0.2, 0.0]), interval=1.0)
    c = solve_geodesic(prob, "rk4", dt=1 / 256)
    assert c.truncation == "velocity_ball"
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
    c = solve_geodesic(prob, "rk4", dt=1 / 256)
    t = c.times
    want = np.stack([0.2 + 0.4 * t, 0.2 + 0.15 * t ** 2], axis=1)
    assert np.abs(c.positions - want).max() < 1e-12


def test_forced_linear_drag(unit_chart):
    conn = zero_connection(unit_chart)
    K = ForceField(evaluator=lambda t, x, v: -np.asarray(v))
    prob = GeodesicProblem(conn, 0.0, [0.2, 0.5], [0.5, 0.0], force=K, interval=0.9)
    c = solve_geodesic(prob, "rk4", dt=1 / 256)
    want_v = 0.5 * np.exp(-c.times)
    assert np.abs(c.velocities[:, 0] - want_v).max() < 1e-8


def test_forced_transform_oracle(unit_chart_65):
    # constant y-force through the quadratic map matches the mapped closed form
    chart = unit_chart_65
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
    c = solve_geodesic(prob, "rk4", dt=1 / 256)
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
    piped = weak_solution_pipeline(sphere_gen.conn_x, prob, RTConfig())
    assert piped.curve.c1_distance(direct) < 5e-3


def test_pipeline_flat_matches_parabola(flat_gen):
    scn = flat_gen.scenario
    x0, v0 = np.asarray(scn.x0), np.asarray(scn.v0)
    prob = GeodesicProblem(flat_gen.conn_x, 0.0, x0, v0, interval=1.0)
    res = weak_solution_pipeline(flat_gen.conn_x, prob, RTConfig())
    pos, vel = parabola_reference(x0, v0, res.curve.times)
    err = np.abs(res.curve.positions - pos).max() + np.abs(res.curve.velocities - vel).max()
    assert err < 1e-4


def test_pipeline_rough_matches_hidden_truth(rough_gen):
    scn = rough_gen.scenario
    prob = GeodesicProblem(
        rough_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    res = weak_solution_pipeline(rough_gen.conn_x, prob, RTConfig())
    pos, vel = rough_gen.reference_curve(res.curve.times)
    err = np.abs(res.curve.positions - pos).max() + np.abs(res.curve.velocities - vel).max()
    assert err < 2e-2


@pytest.mark.parametrize("mode", ["existence", "uniqueness"])
def test_pipeline_carries_a_force(rough_gen, mode):
    # the kink map leaves x2 alone, so the constant force a = (0, 0.5) is the
    # same vector in the hidden flat y: y(t) = y0 + w0 t + a t^2 / 2, pulled
    # back through the inverse map; without the force the curve misses it
    scn = rough_gen.scenario
    mp = _map_object(scn)
    x0, v0, a = np.asarray(scn.x0), np.asarray(scn.v0), np.array([0.0, 0.5])
    y0, w0 = mp.forward(x0[None])[0], mp.jacobian(x0[None])[0] @ v0

    def error(force):
        prob = GeodesicProblem(rough_gen.conn_x, scn.t0, x0, v0, force=force, interval=scn.interval)
        curve = weak_solution_pipeline(rough_gen.conn_x, prob, RTConfig(), mode=mode).curve
        t = (curve.times - scn.t0)[:, None]
        pos = mp.inverse(y0 + t * w0 + 0.5 * t ** 2 * a)
        vel = np.linalg.solve(mp.jacobian(pos), (w0 + t * a)[..., None])[..., 0]
        return np.abs(curve.positions - pos).max() + np.abs(curve.velocities - vel).max()

    assert error(ForceField(lambda t, x, v: a)) < float(scn.checks["curve_final_tol"])
    assert error(None) > 0.5


def test_pipeline_uniqueness_mode(rough_gen):
    scn = rough_gen.scenario
    prob = GeodesicProblem(
        rough_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    res = weak_solution_pipeline(rough_gen.conn_x, prob, RTConfig(), mode="uniqueness")
    assert "rt_second" in res.provenance
    assert "picard_rk4_gap" in res.provenance
    pos, vel = rough_gen.reference_curve(res.curve.times)
    err = np.abs(res.curve.positions - pos).max()
    assert err < 5e-2


def test_pipeline_coordinate_invariance(flat_gen):
    # solve in x then push equals push data then solve in y (smooth case)
    scn = flat_gen.scenario
    x0, v0 = np.asarray(scn.x0), np.asarray(scn.v0)
    prob = GeodesicProblem(flat_gen.conn_x, 0.0, x0, v0, interval=0.8)
    res = weak_solution_pipeline(flat_gen.conn_x, prob, RTConfig())
    direct = solve_geodesic(prob, "rk4")
    assert res.curve.c1_distance(direct) < 1e-6


def test_pipeline_steps_on_the_x_time_grid():
    # x-spacing 1/224 keeps the x-problem's step at 1/256, while the inscribed
    # y-chart's spacing (about 1/299) would give a y-chart step below it
    chart = Chart((0.0, 0.0), (0.25, 0.25), (57, 57))
    conn = flat_disguise_connection(chart)
    prob = GeodesicProblem(conn, 0.0, [0.1, 0.12], [0.05, 0.02], interval=1.0)
    res = weak_solution_pipeline(conn, prob, RTConfig())
    assert res.conn_y.chart.h.min() < 1 / 256 == geodesics.default_dt(prob)
    assert res.curve.dt == geodesics.default_dt(prob)
    direct = solve_geodesic(prob, "rk4")
    assert res.curve.times.tobytes() == direct.times.tobytes()
    assert res.curve.c1_distance(direct) < 1e-10


def test_c1_distance_refuses_different_time_grids():
    prob = GeodesicProblem(flat_constant(), 0.0, np.array([0.0, 0.0]), np.array([0.6, 0.1]), interval=0.5)
    coarse = solve_geodesic(prob, "rk4", dt=1 / 256)
    assert coarse.c1_distance(solve_geodesic(prob, "rk4", dt=1 / 256)) == 0.0
    with pytest.raises(RtgeoError, match="time grids differ"):
        coarse.c1_distance(solve_geodesic(prob, "rk4", dt=1 / 512))


CONFIG_GENS = {"flat_disguise": "flat_gen", "sphere": "sphere_gen", "rough_beta06": "rough_gen"}


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(name, marks=pytest.mark.xfail(
            name == "sphere", strict=True, reason="ROADMAP item 12: the equatorial IVP reads only zero coefficients"
        ))
        for name in sorted(CONFIG_GENS)
        if "reference_tol" in load_config(f"configs/{name}.cfg")[0].checks
    ],
)
def test_reference_tol_fails_with_the_connection_zeroed(config, request):
    """Negative control for each shipped ``reference_tol``: RK4 with Gamma_x
    zeroed must miss the hidden reference curve by at least the tolerance."""
    gen = request.getfixturevalue(CONFIG_GENS[config])
    scn = gen.scenario
    zero = connection_field(gen.conn_x.chart, np.zeros_like(gen.conn_x.values))
    curve = solve_geodesic(GeodesicProblem(zero, scn.t0, scn.x0, scn.v0, interval=scn.interval), "rk4")
    pos, vel = gen.reference_curve(curve.times)
    err = np.abs(curve.positions - pos).max() + np.abs(curve.velocities - vel).max()
    assert err >= float(scn.checks["reference_tol"])


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


def test_convergence_report_after_a_subchart_retry_names_both_charts(tmp_path, monkeypatch):
    # with x0 at the centre the pipeline survives the retry, so the mollified
    # family lives on the half-radius x-chart while the rough connection keeps
    # the full one: a stage error naming both, not a numpy broadcast error
    text = open("configs/flat_disguise.cfg").read().replace("x0 = 0.16, 0.55", "x0 = 0.5, 0.5")
    cfg = tmp_path / "centred.cfg"
    cfg.write_text(text)
    force_subchart_retry(monkeypatch, Chart((0.0, 0.0), (1.0, 1.0), (65, 65)))
    report, code = run_experiment(str(cfg))
    assert code == 1
    assert report.failed_stage == "convergence_report"
    error = report.stages["convergence_report"]["error"]
    assert "Chart([0.25,0.75]x[0.25,0.75], res=(33, 33))" in error
    assert "Chart([0,1]x[0,1], res=(65, 65))" in error


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

    half = full.inset([round(0.25 * r) for r in full.res])
    sub, sub_conn = full.window(half), sub_connection(conn, half)

    def hand_pass(rt_cfg):
        state = rt_solver.solve_reduced_rt(sub_conn, rt_cfg)  # the sub-chart is let through
        bundle = build_bundle(state.conn.chart, state.J)
        tilde = split_transform(sub_conn, state.J)
        return state, bundle, rt_solver.optimal_connection(tilde, bundle)

    state, bundle, conn_y = hand_pass(cfg)
    y0 = interpolate(bundle.forward, x0)
    w0 = interpolate(GridField(bundle.x_chart, bundle.jac.J), x0) @ v0
    curve_y = solve_geodesic(GeodesicProblem(conn_y, scn.t0, y0, w0, interval=scn.interval), "rk4")
    curve = pull_back_curve(curve_y, bundle)

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
    pipe = weak_solution_pipeline(rough_gen.conn_x, prob, RTConfig())
    fam = mollified_family(pipe.conn_y, pipe.bundle, [1 / 8, 1 / 16, 1 / 32])
    curves = solve_mollified(fam, prob)
    return prob, pipe, fam, curves


def test_family_identity_zero(unit_chart_65):
    # identity bundle and zero connection: members vanish wherever the
    # mollifier kernel is untruncated (the rim carries renormalization bias)
    bundle = identity_bundle(unit_chart_65)
    conn_y = zero_connection(bundle.y_chart)
    fam = mollified_family(conn_y, bundle, [1 / 8, 1 / 16])
    for eps, conn_e in zip(fam.eps, fam.conn_eps):
        cells = int(np.ceil(eps / unit_chart_65.h.max())) + 2
        sl = (slice(cells, -cells), slice(cells, -cells))
        assert np.abs(conn_e.values[sl]).max() < 1e-10


def test_masked_subchart_is_the_bounding_box():
    mask = np.zeros((33, 33), dtype=bool)
    mask[5:30, 10:20] = True
    assert geodesics._masked_subchart(mask) == (slice(5, 30), slice(10, 20))


@pytest.mark.parametrize(
    "true, false, message",
    [
        ((slice(0, 10), slice(None)), None, "does not cover the chart center"),
        ((slice(4, 29), slice(4, 29)), (4, 4), "is not rectangular"),
        ((slice(12, 20), slice(14, 21)), None, "covers too little"),
    ],
)
def test_masked_subchart_refusals(true, false, message):
    mask = np.zeros((33, 33), dtype=bool)
    mask[true] = True
    if false is not None:
        mask[false] = False
    with pytest.raises(RtgeoError, match=message):
        geodesics._masked_subchart(mask)


def test_family_convergence_rough(rough_gen, rough_family):
    prob, pipe, fam, curves = rough_family
    rep = convergence_report(fam, curves, pipe.curve, rough_gen.conn_x, p=2.2)
    assert rep["monotone"]["conn"] and rep["monotone"]["riem"] and rep["monotone"]["curve"]
    assert rep["final_c1"] < 1e-2
    assert rep["common_interval"] >= 0.5
    assert rep["rates"]["conn"] > 0.5


def test_family_w1p_divergence_witness(rough_gen, rough_family):
    # the mollified members converge in L^2p while their W^{1,p} norms grow
    prob, pipe, fam, curves = rough_family
    from rtgeo.calculus import w1p_norm
    from rtgeo.charts import GridField

    w1 = []
    for conn_e in fam.conn_eps:
        f = GridField(conn_e.chart, conn_e.values)
        w1.append(w1p_norm(f, 2.2))
    assert w1[-1] > w1[0]


def test_solve_mollified_common_interval(rough_family):
    prob, pipe, fam, curves = rough_family
    common = min(c.interval for c in curves)
    assert common >= 0.5
    for c in curves:
        assert c.times[0] == prob.t0


def test_geodesic_problem_refuses_a_closed_form_connection():
    # the solvers read a sampled connection on its own chart; a callable, or
    # bare samples with no chart, is refused by name when the problem is built
    samples = np.zeros((17, 17, 2, 2, 2))
    for conn in (sphere_christoffel, samples):
        with pytest.raises(RtgeoError, match="GridField"):
            GeodesicProblem(conn, 0.0, [np.pi / 2, 0.0], [0.0, 1.0], interval=0.3)


# -- RK4 and Picard against the per-step reference ----------------------------


def outside_ball(v, v0):
    """The velocity ball's one rule: sum((v - v0)^2) > 1, summed over the axes
    in order; NaN is not outside."""
    return sum(d * d for d in np.asarray(v - v0).T) > 1.0


def rk4_step(problem, t, x, v, dt):
    """One RK4 step on arrays, with batch ``interpolate`` and ``einsum``."""
    conn, force = problem.connection, problem.force
    n = len(problem.x0)

    def F(t, x, v):
        a = -np.einsum("mrn,r,n->m", np.reshape(interpolate(conn, x), (n, n, n)), v, v)
        return a if force is None else a + force(t, x, v)

    k1x, k1v = v, F(t, x, v)
    k2x = v + 0.5 * dt * k1v
    k2v = F(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
    k3x = v + 0.5 * dt * k2v
    k3v = F(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
    k4x = v + dt * k3v
    k4v = F(t + dt, x + dt * k3x, k4x)
    return x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x), v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)


def rk4_reference(problem, dt):
    """The RK4 loop on arrays, :func:`rk4_step`, ``chart.contains`` and
    :func:`outside_ball` at every step; returns the curve arrays, the
    truncation flag and which rule stopped it."""
    x, v = problem.x0.copy(), problem.v0.copy()
    ts, xs, vs = [problem.t0], [x.copy()], [v.copy()]
    t, cause = problem.t0, None
    for _ in range(int(round(problem.interval / dt))):
        try:
            xn, vn = rk4_step(problem, t, x, v, dt)
        except DomainExit:
            cause = "stage"
            break
        if not problem.chart.contains(xn)[0]:
            cause = "chart"
            break
        if outside_ball(vn, problem.v0):
            cause = "ball"
            break
        t, x, v = t + dt, xn, vn
        ts.append(t)
        xs.append(x.copy())
        vs.append(v.copy())
    return np.asarray(ts), np.asarray(xs), np.asarray(vs), cause is not None, cause


def last_inside_reference(problem, pos, kmax, vel, v0):
    """Picard's truncation rule as two scans over the nodes."""
    ok = problem.chart.contains(pos)
    for k in range(kmax + 1):
        if not ok[k]:
            return max(k - 1, 0)
    for k in range(kmax + 1):
        if outside_ball(vel[k], v0):
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


# Curve.truncation per reference stopping cause; Picard has no RK stages, so
# where RK4 leaves the chart inside a stage, Picard's cut is at a node off it
RK4_TRUNCATION = {None: "none", "stage": "domain_exit", "chart": "chart_exit", "ball": "velocity_ball"}
PICARD_TRUNCATION = {**RK4_TRUNCATION, "stage": "chart_exit"}


DRAG = ForceField(evaluator=lambda t, x, v: -np.asarray(v))


def reference_case(case):
    """The problem and its stopping cause: the sampled sphere per SPHERE_IVPS
    cause, with a drag force, or n = 3."""
    chart = Chart((np.pi / 4, -0.15), (3 * np.pi / 4, 1.15), (65, 65))
    conn = connection_field(
        chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    )
    if case in SPHERE_IVPS:
        return GeodesicProblem(conn, 0.0, *SPHERE_IVPS[case], interval=1.0), case
    if case == "forced":
        return GeodesicProblem(conn, 0.0, [2.151, 0.734], [-0.6, -0.2], force=DRAG), None
    return wavy_n3_problem((9, 10, 11)), "stage"


def wavy_n3_problem(res):
    """n = 3: a smooth sampled field with every component nonzero, on uneven
    axes of ``res`` nodes; the curve leaves the chart inside an RK stage."""
    chart = Chart((-1.0, -0.5, -0.8), (1.0, 1.2, 0.9), res)
    pts = chart.nodes.reshape(-1, 3)
    waves = np.random.default_rng(3).normal(size=(3, 27))
    vals = 0.8 * np.sin(pts @ waves + np.arange(27)).reshape(chart.res + (3, 3, 3))
    return GeodesicProblem(connection_field(chart, vals), 0.0, [0.1, 0.2, 0.0], [1.5, -0.9, 0.5])


@pytest.mark.parametrize("case", [*SPHERE_IVPS, "n3", "forced"])
def test_rk4_and_picard_match_reference_on_sphere(case, monkeypatch):
    prob, cause = reference_case(case)
    ts, xs, vs, truncated, got_cause = rk4_reference(prob, 1 / 32)
    assert got_cause == cause
    c = solve_geodesic(prob, "rk4", dt=1 / 32)
    for a, b in ((c.times, ts), (c.positions, xs), (c.velocities, vs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert c.truncated == truncated
    assert c.truncation == RK4_TRUNCATION[cause]

    p = solve_geodesic(prob, "picard", dt=1 / 32)
    monkeypatch.setattr(geodesics, "_last_inside", last_inside_reference)
    q = solve_geodesic(prob, "picard", dt=1 / 32)
    assert (p.picard_sweeps, len(p.times), p.truncation) == (q.picard_sweeps, len(q.times), q.truncation)
    for a, b in ((p.times, q.times), (p.positions, q.positions), (p.velocities, q.velocities)):
        assert a.tobytes() == b.tobytes()
    assert p.truncated == (cause is not None)
    assert p.truncation == PICARD_TRUNCATION[cause]


def check_rk4_bits(prob, dt, min_cells):
    """RK4 on ``prob`` at ``dt`` is :func:`rk4_reference`'s curve byte for
    byte and sign bit for sign bit, with its truncation, over ``min_cells``
    cells or more; returns the curve and the reference's stopping cause."""
    ts, xs, vs, truncated, cause = rk4_reference(prob, dt)
    chart = prob.chart
    cells = np.minimum(((xs - chart.lo) / chart.h).astype(int), np.array(chart.res) - 2)
    assert len(set(map(tuple, cells.tolist()))) >= min_cells
    c = solve_geodesic(prob, "rk4", dt=dt)
    for a, b in ((c.times, ts), (c.positions, xs), (c.velocities, vs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert c.truncation == RK4_TRUNCATION[cause]
    return c, cause


@pytest.mark.parametrize("case, cause", [(None, None), ("chart", "stage"), ("forced", None), ("n3", "stage")])
def test_fused_march_keeps_rk4_bits_at_the_default_step(case, cause):
    """Long curves at the default step, each crossing 20 or more cells, so the
    inline stages load and reuse many cells: sampled, sampled with a drag
    force, and n = 3, two of them ended by a stage point off the chart."""
    prob = wavy_n3_problem((25, 27, 29)) if case == "n3" else reference_case(case)[0]
    assert check_rk4_bits(prob, default_dt(prob), min_cells=20)[1] == cause


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_march_evaluates_its_stages_inline(n):
    """Guard: the march reads the field's rows itself and calls no right-hand
    side; only the forced march calls ``K``."""
    assert "rows[" in geodesics._march_source(n, False, ())
    assert "K(" not in geodesics._march_source(n, False, ())
    assert "K(" in geodesics._march_source(n, True, ())


def zero_pattern_problem(field, forced):
    """A problem per zero pattern, with the drag force when ``forced``: dense
    n = 3; the sampled sphere, five components zero at every node; the
    sphere with a nonzero column stored as -0.0; and the zero field."""
    prob = wavy_n3_problem((25, 27, 29)) if field == "dense" else reference_case(None)[0]
    vals = prob.connection.values.copy()
    if field == "signed_zero":
        vals[..., 0, 1, 1] = -0.0
    if field == "zero":
        vals[:] = 0.0
    return replace(prob, connection=connection_field(prob.chart, vals), force=DRAG if forced else None)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("field, zeros", [("dense", 0), ("sphere", 5), ("signed_zero", 6), ("zero", 8)])
def test_compiled_out_columns_keep_rk4_bits(field, zeros, forced):
    """The march without the components that are zero at every node (either
    sign) is the array loop's bit for bit at the default step, over 20 cells
    or more."""
    prob = zero_pattern_problem(field, forced)
    assert len(geodesics._zero_columns(prob.connection)) == zeros
    check_rk4_bits(prob, default_dt(prob), min_cells=20)


def test_march_starts_on_the_rim():
    """x0 on each lower and upper face and at both corners, where the hi
    corner's cell coordinate is top + 1 exactly and the clamp makes f = 1.0;
    an x0 moved off the chart after construction still raises DomainExit,
    so the test hoisted out of the first stage still runs."""
    chart = Chart((0.0, -0.5), (1.0, 1.5), (17, 33))
    assert ((chart.hi - chart.lo) / chart.h).tolist() == [16.0, 32.0]  # top + 1 on both axes
    pts = chart.nodes.reshape(-1, 2)
    vals = 0.5 * np.sin(pts @ np.random.default_rng(4).normal(size=(2, 8)) + np.arange(8))
    conn = connection_field(chart, vals.reshape(chart.res + (2, 2, 2)))
    starts = [
        ([0.0, 0.3], [0.6, 0.2]), ([1.0, 0.3], [-0.6, 0.2]),
        ([0.4, -0.5], [0.1, 0.7]), ([0.4, 1.5], [0.1, -0.7]),
        ([0.0, -0.5], [0.5, 0.5]), ([1.0, 1.5], [-0.5, -0.5]),
    ]
    for x0, v0 in starts:
        for force in (None, DRAG):
            prob = GeodesicProblem(conn, 0.0, x0, v0, force=force, interval=0.25)
            assert len(check_rk4_bits(prob, default_dt(prob), min_cells=1)[0].times) > 1
    # each velocity points back in, so every later stage point is on the chart
    for off, v0 in (([np.nextafter(1.0, 2.0), 0.3], [-0.6, 0.2]), ([0.4, np.nextafter(-0.5, -1.0)], [0.1, 0.7])):
        for force in (None, DRAG):
            prob = GeodesicProblem(conn, 0.0, [0.5, 0.5], v0, force=force)
            prob.x0 = np.array(off)
            with pytest.raises(DomainExit):
                solve_geodesic(prob, "rk4")


@pytest.mark.parametrize("n", [2, 3])
def test_march_source_is_float_only_without_dropped_columns(n):
    """Guard: outside the rows' indices no int literal appears in a march
    (the stage's ``1.0 - f`` and the update's ``2.0 * k``), and a component
    compiled out leaves no corner sum, no corner row name and no term."""
    full = tuple(range(n ** 3))
    for zero in ((), (1, 4), full[1::2], full):
        for forced in (False, True):
            src = geodesics._march_source(n, forced, zero)
            assert not re.findall(r"(?<![\w.])\d+(?![\w.])", re.sub(r"rows\[[^\]]*\]", "", src))
            assert "e0 = 1.0 - f0" in src
            assert "+ 2.0 * k2x_0" in src
            for j in full:
                assert (re.search(rf"\b(g{j}|r\d+_{j})\b", src) is None) == (j in zero)


def fan_problems(conn, scn, seed, count=512, directions=16):
    """The benchmark fan's stratified IVP draw on ``conn``'s chart: a jittered
    grid of directions x speeds in [0.3, 1], x0 a Latin hypercube over the
    middle half of the chart."""
    chart = conn.chart
    rng = np.random.default_rng(seed)
    cells = np.arange(count)
    angle = 2 * np.pi * (cells % directions + rng.random(count)) / directions
    speed = 0.3 + 0.7 * (cells // directions + rng.random(count)) / (count // directions)
    frac = (np.stack([rng.permutation(count), rng.permutation(count)], axis=1) + rng.random((count, 2))) / count
    x0s = chart.lo + (0.25 + 0.5 * frac) * (chart.hi - chart.lo)
    v0s = speed[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return [GeodesicProblem(conn, scn.t0, x0, v0, interval=scn.interval) for x0, v0 in zip(x0s, v0s)]


def test_picard_contraction_matches_three_operand_einsum(sphere_gen, monkeypatch):
    """Picard's two-operand contraction over v (x) v against the three-operand
    einsum on 32 seed-1 fan IVPs, one per direction and speed row: the same
    sweeps, lengths and cuts, positions within 1e-14."""
    problems = fan_problems(sphere_gen.conn_x, sphere_gen.scenario, seed=1)
    problems = [problems[16 * i + i % 16] for i in range(32)]
    new = [solve_geodesic(p, "picard") for p in problems]
    monkeypatch.setattr(geodesics, "_gamma_vv_nodes", lambda G, vel: -np.einsum("tmrn,tr,tn->tm", G, vel, vel))
    old = [solve_geodesic(p, "picard") for p in problems]
    for a, b in zip(new, old):
        assert (a.picard_sweeps, len(a.times), a.truncation) == (b.picard_sweeps, len(b.times), b.truncation)
        assert np.abs(a.positions - b.positions).max() <= 1e-14
    assert any(a.positions.tobytes() != b.positions.tobytes() for a, b in zip(new, old))  # the orders differ


def test_picard_estimates_lipschitz_once_per_field(monkeypatch):
    """Two Picard solves on one field differentiate it once per axis; a second
    field object is differentiated afresh, and the flag is a fresh estimate's."""
    calls = []
    deriv = Chart.deriv

    def counted(self, values, ax):
        calls.append(ax)
        return deriv(self, values, ax)

    monkeypatch.setattr(Chart, "deriv", counted)
    chart = Chart((0.0, 0.0), (1.0, 1.0), (17, 17))
    vals = 10.0 * np.random.default_rng(6).standard_normal(chart.res + (2, 2, 2))
    first, second = connection_field(chart, vals), connection_field(chart, vals.copy())
    curves = [solve_geodesic(GeodesicProblem(f, 0.0, [0.5, 0.5], [0.1, 0.0], interval=0.25), "picard")
              for f in (first, first)]
    assert len(calls) == 2
    curves.append(solve_geodesic(GeodesicProblem(second, 0.0, [0.5, 0.5], [0.1, 0.0], interval=0.25), "picard"))
    assert len(calls) == 4
    flag = geodesics._grad_max(connection_field(chart, vals)) * 0.25 > 50.0
    assert flag and all(c.non_uniqueness_candidate == flag for c in curves)


def test_last_inside_matches_reference_scans():
    """Picard's cut against the two scans: a NaN position is off the chart, a
    NaN velocity is not outside the ball (its sum of squares is NaN, and
    NaN > 1 is false) while an infinite one is, and the chart rule wins over
    the ball."""
    chart = Chart((0.0, -1.0), (1.0, 2.0), (17, 17))
    prob = GeodesicProblem(zero_connection(chart), 0.0, [0.5, 0.5], [0.3, -0.2])
    v0 = prob.v0
    rng = np.random.default_rng(4)
    seen = set()
    for trial in range(400):
        # straight runs from (x0, v0) that may cross the chart edge, the ball or both
        m = int(rng.integers(2, 40))
        s = np.linspace(0.0, 1.0, m)[:, None]
        pos = prob.x0 + s * rng.uniform(-2.0, 2.0, 2)
        vel = v0 + s * rng.uniform(-1.5, 1.5, 2)
        for arr, bad in ((pos, np.nan), (vel, np.nan), (vel, np.inf), (vel, -np.inf)):
            hit = rng.random((m, 2)) < 0.05
            hit[0] = False
            arr[hit] = bad
        kmax = int(rng.integers(0, m))
        want = last_inside_reference(prob, pos, kmax, vel=vel, v0=v0)
        assert geodesics._last_inside(prob, pos, kmax, vel=vel, v0=v0) == want
        seen.add(want < kmax)
    assert seen == {True, False}
    pos = np.tile(prob.x0, (6, 1))
    vel = np.tile(v0, (6, 1))
    vel[2, 0] = np.nan
    assert geodesics._last_inside(prob, pos, 5, vel=vel, v0=v0) == 5
    vel[3, 1] = np.inf
    assert geodesics._last_inside(prob, pos, 5, vel=vel, v0=v0) == 2
    pos[4, 0] = np.nan
    assert geodesics._last_inside(prob, pos, 5, vel=vel, v0=v0) == 3
    assert geodesics._last_inside(prob, pos, 3, vel=vel, v0=v0) == 2


@pytest.mark.parametrize("res", [(17, 23), (9, 10, 11)])
def test_grad_max_matches_stacked_gradient(res):
    rng = np.random.default_rng(len(res))
    n = len(res)
    chart = Chart(rng.uniform(-1, 0, n), rng.uniform(0.5, 2, n), res)
    conn = connection_field(chart, rng.standard_normal(chart.res + (n, n, n)) * 10.0 ** rng.uniform(-3, 3))
    assert geodesics._grad_max(conn) == float(np.abs(chart.grad(conn.values)).max())


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


@lru_cache(maxsize=None)
def compiled_contraction(n):
    """``contraction(G, v)`` on a flat component list, compiled from the
    march's :func:`geodesics._contraction_rows`."""
    gs, vs = geodesics._names("g", n ** 3), geodesics._names("v", n)
    src = [
        "def contraction(G, v):",
        f"    {', '.join(gs)}, = G",
        f"    {', '.join(vs)}, = v",
        f"    return {geodesics._tuple(geodesics._contraction_rows(gs, vs))}",
    ]
    ns = {}
    exec("\n".join(src), ns)
    return ns["contraction"]


def generated_contraction(G, v):
    return compiled_contraction(len(v))(G, v)


def matches_einsum(contract, G, v):
    n = len(v)
    want = -np.einsum("mrn,r,n->m", np.reshape(G, (n, n, n)), v, v)
    got = np.array(contract(G, v))
    return got.tobytes() == want.tobytes() and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=400, deadline=None)
@given(contraction_inputs())
def test_contract_matches_einsum(inputs):
    assert matches_einsum(generated_contraction, *inputs)


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
        assert all(matches_einsum(generated_contraction, G, v) for G, v in draws)
        assert not all(matches_einsum(n_outer, G, v) for G, v in draws)


def test_kernels_compile_once_per_dimension():
    """The march compiles once per (dimension, force, zero pattern): a field
    with the same zero components on another chart, stored as 0.0 or -0.0,
    shares it; a new pattern, a force and a new dimension each compile once."""
    kernels = geodesics._rk4_march
    kernels.cache_clear()

    def solve(lo, hi, res, zero, zero_value=0.0, force=None):
        chart = Chart(lo, hi, res)
        n = len(res)
        vals = np.full(chart.res + (n ** 3,), 0.1)
        vals[..., list(zero)] = zero_value
        conn = connection_field(chart, vals.reshape(chart.res + (n,) * 3))
        assert geodesics._zero_columns(conn) == tuple(zero)
        mid, v0 = 0.5 * (chart.lo + chart.hi), np.linspace(0.2, -0.1, n)
        solve_geodesic(GeodesicProblem(conn, 0.0, mid, v0, force=force, interval=0.25), "rk4")
        return kernels.cache_info().misses

    assert solve((0.0, 0.0), (1.0, 1.0), (17, 17), (1, 4)) == 1
    assert solve((0.0, 0.0), (1.0, 1.0), (33, 33), (1, 4)) == 1
    assert solve((-1.0, 0.5), (2.0, 1.5), (9, 12), (1, 4), zero_value=-0.0) == 1
    assert solve((0.0, 0.0), (1.0, 1.0), (17, 17), (0, 1, 4)) == 2
    assert solve((-1.0, 0.5), (2.0, 1.5), (9, 12), (0, 1, 4)) == 2
    assert solve((0.0, 0.0), (1.0, 1.0), (17, 17), tuple(range(8))) == 3
    assert solve((0.0, 0.0), (1.0, 1.0), (17, 17), (1, 4), force=DRAG) == 4
    assert solve((0.0,) * 3, (1.0,) * 3, (9, 9, 9), (1, 4)) == 5
    assert solve((0.0,) * 3, (2.0,) * 3, (8, 10, 12), (1, 4)) == 5


def test_velocity_ball_guard_matches_norm():
    """One ball rule, sum((v - v0)^2) > 1 summed over the axes in order, in the
    RK4 march and in Picard's cut, where it parts from ``np.linalg.norm(v -
    v0) > 1``: |v - v0| within a few ulps of 1, and NaN and inf in the cut."""
    rng = np.random.default_rng(9)
    ulp = np.finfo(float).eps
    dt = 0.25
    seen, parted = set(), 0
    for n in (2, 3):
        chart = Chart((-10.0,) * n, (10.0,) * n, (8,) * n)
        conn = connection_field(chart, np.zeros(chart.res + (n, n, n)))
        for k in rng.integers(-4, 5, 300):
            # two steps under the constant force a take v0 to radius 1 within
            # a few ulps; the first ends at radius 1/2
            v0, d = rng.uniform(-2, 2, n), rng.standard_normal(n)
            a = (1 + k * ulp) * d / np.linalg.norm(d) / (2 * dt)
            prob = GeodesicProblem(conn, 0.0, np.zeros(n), v0, force=ForceField(lambda t, x, v, a=a: a),
                                   interval=2 * dt)
            x1, v1 = rk4_step(prob, 0.0, prob.x0, v0, dt)
            v2 = rk4_step(prob, dt, x1, v1, dt)[1]
            out = outside_ball(v2, v0)
            c = solve_geodesic(prob, "rk4", dt=dt)
            assert c.truncation == ("velocity_ball" if out else "none")
            assert c.velocities[1].tobytes() == v1.tobytes() and len(c.times) == 2 + (not out)
            vel = np.stack([v0, v1, v2])
            assert geodesics._last_inside(prob, np.zeros((3, n)), 2, vel=vel, v0=v0) == 2 - out
            seen.add(out)
            parted += out != (np.linalg.norm(v2 - v0) > 1.0)
    assert seen == {True, False}
    assert parted > 0  # the norm would decide some of these the other way
    prob = GeodesicProblem(conn, 0.0, np.zeros(n), np.zeros(n))  # the n = 3 field
    for bad, want in ((np.nan, 2), (np.inf, 1), (-np.inf, 1)):
        vel = np.zeros((3, n))
        vel[2, 1] = bad
        assert geodesics._last_inside(prob, np.zeros((3, n)), 2, vel=vel, v0=prob.v0) == want
