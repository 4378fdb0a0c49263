from dataclasses import replace

import numpy as np
import pytest

from rtgeo.calculus import lp_norm, norm_report, w1p_norm
from rtgeo.charts import GridField, connection_field
from rtgeo.curvature import bump_basis, represent_weak, riemann
from rtgeo.errors import JacobianError, SolverError, StageError
from rtgeo.harness import _map_object, _pull_back, generate_scenario, load_config
from rtgeo.rt_solver import (
    RTConfig,
    _solve_on_chart,
    optimal_connection,
    regularity_report,
    regularize,
    solve_reduced_rt,
)
from rtgeo.transform import build_bundle, integrate_jacobian, split_transform

from conftest import flat_disguise_connection, identity_bundle


def test_rt_zero_connection_one_iteration(unit_chart):
    conn = connection_field(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)))
    state = solve_reduced_rt(conn, RTConfig())
    assert state.iterations == 1
    eye = np.eye(2)
    assert np.abs(state.J - eye).max() < 1e-10
    assert np.abs(state.B).max() < 1e-8
    assert state.curl_residual < 1e-10


def test_rt_config_validation():
    with pytest.raises(SolverError):
        RTConfig(fixed_point_tol=-1)
    with pytest.raises(SolverError):
        RTConfig(max_iters=0)


def test_rt_flat_disguise_bounded_norm(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    state = solve_reduced_rt(conn, RTConfig())
    tilde = split_transform(conn, state.J)
    bundle = build_bundle(state.conn.chart, state.J)
    conn_y = optimal_connection(tilde, bundle)
    p = 2.2
    ny = norm_report(GridField(conn_y.chart, conn_y.values), p)
    nx = norm_report(GridField(conn.chart, conn.values), p)
    # gauge freedom allows a nonzero but equally regular representative
    assert ny["w1p"] <= 2.0 * nx["w1p"]


def test_rt_eq12_and_orientation(rough_rt_state, rough_gen):
    state = rough_rt_state
    assert state.residuals["eq12"] < 1e-6
    assert state.det_min > 0.5


def test_rt_jacobian_integrable(rough_rt_state):
    # gradient-exact rows: curl at machine precision
    state = rough_rt_state
    assert state.curl_residual < 1e-9
    from rtgeo.charts import JacobianField

    fwd = integrate_jacobian(JacobianField(state.conn.chart, state.J))
    # staircase reintegration reproduces the solver's own potentials up to
    # an additive constant per row
    shift = fwd - state.potentials
    assert (shift - shift.reshape(-1, 2).mean(axis=0)).max() < 5e-3


def test_rt_regularity_gain_ladder(rough_gen):
    from rtgeo.harness import Scenario, generate_scenario
    from rtgeo.geodesics import GeodesicProblem, weak_solution_pipeline

    w1p_x, w1p_y = [], []
    for m in (33, 129):
        scn = Scenario(**{**rough_gen.scenario.__dict__, "resolution": (m, m), "checks": {}})
        gen = generate_scenario(scn)
        res = weak_solution_pipeline(
            gen.conn_x,
            GeodesicProblem(
                connection=gen.conn_x,
                t0=0.0,
                x0=np.asarray(scn.x0),
                v0=np.asarray(scn.v0),
                interval=1.0,
            ),
            RTConfig(),
        )
        w1p_x.append(w1p_norm(GridField(gen.conn_x.chart, gen.conn_x.values), scn.p))
        w1p_y.append(w1p_norm(GridField(res.conn_y.chart, res.conn_y.values), scn.p))
    assert w1p_x[1] / w1p_x[0] >= 2.0
    assert abs(w1p_y[1] / w1p_y[0] - 1) < 0.25


def test_rt_optimal_connection_identity_bundle(unit_chart_65):
    conn = flat_disguise_connection(unit_chart_65)
    bundle = identity_bundle(unit_chart_65)
    tilde = conn
    out = optimal_connection(tilde, bundle)
    assert np.abs(out.values - conn.values).max() < 1e-9


def test_rt_flat_disguise_pushes_to_near_zero(unit_chart_65):
    # the generating jacobian gauge sends the disguised connection to zero
    from conftest import quadratic_jacobian
    from rtgeo.transform import build_bundle, split_transform

    conn = flat_disguise_connection(unit_chart_65)
    J = quadratic_jacobian(unit_chart_65)
    tilde = split_transform(conn, J)
    X = unit_chart_65.nodes
    fwd = X.copy()
    fwd[..., 1] = X[..., 1] + 0.5 * X[..., 0] ** 2
    bundle = build_bundle(unit_chart_65, J, forward=fwd)
    conn_y = optimal_connection(tilde, bundle)
    assert np.abs(conn_y.values).max() < 1e-9


def test_rt_gauge_insensitive_curvature(rough_gen, rough_rt_state):
    # curvature computed from the regularized connection, pushed back by the
    # tensor law, matches the weakly represented curvature of the raw data
    state = rough_rt_state
    tilde = split_transform(rough_gen.conn_x, state.J)
    bundle = build_bundle(state.conn.chart, state.J)
    conn_y = optimal_connection(tilde, bundle)
    Ry = riemann(conn_y)
    inner = (slice(6, -6), slice(6, -6))
    assert np.abs(Ry.values[inner]).max() < 0.5
    fit = represent_weak(rough_gen.conn_x, bump_basis(rough_gen.conn_x.chart, 5))
    assert lp_norm(GridField(rough_gen.conn_x.chart, fit.values), 2.2) < 0.05


def test_regularity_report_fields(rough_gen, rough_rt_state):
    tilde = split_transform(rough_gen.conn_x, rough_rt_state.J)
    bundle = build_bundle(rough_rt_state.conn.chart, rough_rt_state.J)
    conn_y = optimal_connection(tilde, bundle)
    rep = regularity_report(rough_gen.conn_x, conn_y, 2.2)
    assert set(rep["x"]) == set(rep["y"]) == {"p", "lp", "w1p", "c0"}
    assert rep["x"]["p"] == rep["y"]["p"] == 2.2
    assert rep["w1p_ratio"] < 1.0
    assert rep["y"]["c0"] > 0


def test_rt_residual_history_nonincreasing_tail(rough_rt_state):
    inc = rough_rt_state.increments
    # after burn-in the fixed point contracts monotonically
    tail = inc[5:]
    assert all(b <= a * 1.05 for a, b in zip(tail, tail[1:]))


def test_rt_rough_257_stops_by_fixed_point_rule():
    # at 257^2 the increment must fall below fixed_point_tol itself
    scn, rtk = load_config("configs/rough_beta06.cfg")
    scn = replace(scn, resolution=(257, 257), seed=1)
    cfg = RTConfig(**rtk)
    state = solve_reduced_rt(generate_scenario(scn).conn_x, cfg)
    assert not state.used_subchart
    assert state.increments[-1] < cfg.fixed_point_tol
    assert state.iterations <= 10


def _folded_kink(m):
    """rough_beta06's Gamma_x with the kink at amplitude 0.5 and beta 0.2:
    the undamped fixed point lands on a folded J at 65^2 and diverges at 129^2."""
    scn, rtk = load_config("configs/rough_beta06.cfg")
    scn = replace(scn, resolution=(m, m), amplitude=0.5, beta=0.2)
    return _pull_back(scn, _map_object(scn))[0], RTConfig(**rtk)


def test_rt_folded_jacobian_is_refused_and_retried():
    # det J < 0 on 27 nodes while min |det J| is 0.0037: only the signed test sees the fold
    conn, cfg = _folded_kink(65)
    with pytest.raises(JacobianError, match=r"min det = -1\.67e-01"):
        _solve_on_chart(conn, cfg, used_subchart=False)
    state = solve_reduced_rt(conn, cfg)
    assert state.used_subchart
    assert state.det_min > 0.5
    assert state.increments[-1] < cfg.fixed_point_tol


def test_rt_diverging_fixed_point_raises_in_rt_solve():
    # negative control for the two-step contraction rule
    conn, cfg = _folded_kink(129)
    with pytest.raises(StageError, match="not contracting at iteration 4") as exc:
        regularize(conn, replace(cfg, retry_subchart=False))
    assert exc.value.stage == "rt_solve"
    assert isinstance(exc.value.cause, SolverError)
    hist = exc.value.cause.history
    assert len(hist) == 4 and hist[3] >= hist[1]
