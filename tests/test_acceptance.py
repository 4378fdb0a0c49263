"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured quantities at the pinned tolerances."""

import subprocess
import sys
import time

import numpy as np
import pytest

from rtgeo.calculus import w1p_norm
from rtgeo.charts import Chart, GridField, connection_field
from rtgeo.curvature import lemma_b1_check
from rtgeo.geodesics import (
    GeodesicProblem,
    convergence_report,
    mollified_family,
    solve_geodesic,
    solve_mollified,
    weak_solution_pipeline,
)
from rtgeo.harness import (
    Scenario,
    generate_scenario,
    load_config,
    sphere_christoffel,
)
from rtgeo.rt_solver import RTConfig
from rtgeo.transform import coderivative_identity_residual, dgamma_identity_residual

from conftest import drop_jacobian_factor, smooth_connection, trig_gradient_jacobian


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def rough_run():
    scn, rtk = load_config("configs/rough_beta06.cfg")
    gen = generate_scenario(scn)
    prob = GeodesicProblem(
        gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    pipe = weak_solution_pipeline(gen.conn_x, prob, rt_config=RTConfig(**rtk))
    fam = mollified_family(pipe.conn_y, pipe.bundle, list(scn.epsilons))
    curves = solve_mollified(fam, prob)
    conv = convergence_report(fam, curves, pipe.curve, gen.conn_x, p=scn.p)
    return scn, gen, prob, pipe, fam, curves, conv


def test_criterion_1_flat_oracle_pipeline():
    scn, rtk = load_config("configs/flat_disguise.cfg")
    gen = generate_scenario(scn)
    x0, v0 = np.asarray(scn.x0), np.asarray(scn.v0)
    prob = GeodesicProblem(gen.conn_x, 0.0, x0, v0, interval=1.0)
    t0 = time.perf_counter()
    res = weak_solution_pipeline(gen.conn_x, prob, rt_config=RTConfig(**rtk))
    elapsed = time.perf_counter() - t0
    t = res.curve.times
    pos = np.stack([x0[0] + v0[0] * t, x0[1] + v0[1] * t - 0.5 * v0[0] ** 2 * t ** 2], axis=1)
    vel = np.stack([np.full_like(t, v0[0]), v0[1] - v0[0] ** 2 * t], axis=1)
    err = float(np.abs(res.curve.positions - pos).max() + np.abs(res.curve.velocities - vel).max())
    report(
        1,
        err < 1e-4 and elapsed < 60.0,
        f"parabola C1 error {err:.3e} (< 1e-4), pipeline {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_mollified_convergence(rough_run):
    scn, gen, prob, pipe, fam, curves, conv = rough_run
    a_ok = conv["monotone"]["conn"]
    b_ok = conv["monotone"]["riem"]
    c_ok = conv["monotone"]["curve"] and conv["final_c1"] < 1e-2
    common = min(c.interval for c in curves)
    d_ok = common >= 0.5 and all(c.times[0] == prob.t0 for c in curves)
    report(
        2,
        a_ok and b_ok and c_ok and d_ok,
        f"conn {['%.3e' % v for v in conv['conn_l2p']]} monotone={a_ok}; "
        f"riem {['%.3e' % v for v in conv['riem_lp']]} monotone={b_ok}; "
        f"curve {['%.3e' % v for v in conv['curve_c1']]} final={conv['final_c1']:.2e} (< 1e-2); "
        f"common interval {common:.2f} (>= 0.5)",
    )


def test_criterion_3_regularity_gain():
    scn, rtk = load_config("configs/rough_beta06.cfg")
    w1p_x, w1p_y = [], []
    for m in (33, 65, 129):
        s = Scenario(**{**scn.__dict__, "resolution": (m, m), "checks": {}})
        gen = generate_scenario(s)
        prob = GeodesicProblem(
            gen.conn_x, s.t0, np.asarray(s.x0), np.asarray(s.v0), interval=s.interval
        )
        res = weak_solution_pipeline(gen.conn_x, prob, rt_config=RTConfig(**rtk))
        w1p_x.append(w1p_norm(GridField(gen.conn_x.chart, gen.conn_x.values), s.p))
        w1p_y.append(w1p_norm(GridField(res.conn_y.chart, res.conn_y.values), s.p))
    growth = w1p_x[-1] / w1p_x[0]
    variation = max(w1p_y) / min(w1p_y) - 1
    report(
        3,
        growth >= 2.0 and variation < 0.25,
        f"|Gx|W1p {['%.2f' % v for v in w1p_x]} growth {growth:.2f}x (>= 2); "
        f"|Gy|W1p {['%.3f' % v for v in w1p_y]} variation {variation:.1%} (< 25%)",
    )


def test_criterion_4_identity_suites():
    # O(h^2) halving ratios on the smooth gradient-jacobian case
    ratios = {}
    for name, fn in (("eq_coderivative", coderivative_identity_residual), ("eq_curl", dgamma_identity_residual)):
        residuals = []
        for m in (33, 65, 129):
            chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
            J, _ = trig_gradient_jacobian(chart)
            residuals.append(fn(smooth_connection(chart), J, 4.0))
        ratios[name] = tuple(a / b for a, b in zip(residuals, residuals[1:]))
    report(
        4,
        all(3.0 <= r <= 5.0 for rr in ratios.values() for r in rr),
        f"identity ratios {dict((k, tuple(round(x, 2) for x in v)) for k, v in ratios.items())} in [3,5]",
    )


def test_criterion_5_curvature_tensoriality(monkeypatch):
    distances = {}
    passed = True
    for cfg in ("configs/flat_disguise.cfg", "configs/rough_beta06.cfg", "configs/sphere.cfg"):
        per = []
        for m in (33, 65, 129):
            scn, _ = load_config(cfg)
            scn.resolution = (m, m)
            gen = generate_scenario(scn)
            rep = lemma_b1_check(gen.conn_x, gen.hidden_bundle, gen.conn_y_true, p=scn.p)
            per.append(rep["distance"])
            passed &= rep["pass"]
        passed &= per[0] >= per[1] >= per[2]
        distances[scn.name] = per
    ctl = Scenario(
        name="negctl",
        hidden="sphere",
        map_kind="quadratic",
        shear=0.2,
        chart_lo=(0.7853981633974483, -0.15),
        chart_hi=(2.356194490192345, 1.15),
    )
    gen = generate_scenario(ctl)
    drop_jacobian_factor(monkeypatch)
    bad = lemma_b1_check(gen.conn_x, gen.hidden_bundle, gen.conn_y_true, p=ctl.p)
    control_ok = (not bad["pass"]) and bad["distance"] > 0.1
    report(
        5,
        passed and control_ok,
        f"distances {({k: ['%.1e' % x for x in v]}) if False else {k: ['%.1e' % x for x in v] for k, v in distances.items()}} "
        f"all pass and decreasing; dropped-factor control distance {bad['distance']:.2f} (O(1)) fails",
    )


def test_criterion_7_solver_cross_checks():
    # a constant field, Gamma^2_12 = Gamma^2_21 = 2, which multilinear
    # interpolation reproduces, isolates the time discretization error:
    # x1 = 0.1 + 0.8 t and x2' = 0.6 exp(-3.2 t)
    vals = np.zeros((17, 17, 2, 2, 2))
    vals[..., 1, 0, 1] = vals[..., 1, 1, 0] = 2.0
    bent = connection_field(Chart((0.0, 0.0), (1.0, 1.0), (17, 17)), vals)
    errs = {}
    for dt in (1 / 256, 1 / 512):
        c = solve_geodesic(GeodesicProblem(bent, 0.0, [0.1, 0.2], [0.8, 0.6], interval=1.0), "rk4", dt=dt)
        rate = np.exp(-3.2 * c.times)
        pos = np.stack([0.1 + 0.8 * c.times, 0.2 + 0.1875 * (1 - rate)], axis=1)
        vel = np.stack([np.full_like(c.times, 0.8), 0.6 * rate], axis=1)
        errs[dt] = np.abs(c.positions - pos).max() + np.abs(c.velocities - vel).max()
    ratio = errs[1 / 256] / errs[1 / 512]

    # nontrivial contraction-regime case: short arc of a tilted great circle
    # on the sampled sphere
    chart = Chart((np.pi / 4, -0.15), (3 * np.pi / 4, 1.15), (65, 65))
    conn = connection_field(
        chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    )
    prob = GeodesicProblem(conn, 0.0, [np.pi / 2, 0.1], [0.35, 0.55], interval=0.3)
    rk = solve_geodesic(prob, "rk4", dt=1 / 2048)
    pc = solve_geodesic(prob, "picard", dt=1 / 2048, tol_ode=1e-13)
    gap = rk.c1_distance(pc)

    gc = solve_geodesic(
        GeodesicProblem(conn, 0.0, [np.pi / 2, 0.0], [0.0, 1.0], interval=1.0), "rk4", dt=1 / 512
    )
    gc_err = float(
        np.abs(gc.positions[:, 0] - np.pi / 2).max() + np.abs(gc.positions[:, 1] - gc.times).max()
    )
    report(
        7,
        12.0 <= ratio <= 20.0 and gap < 1e-6 and gc_err < 1e-6,
        f"step-halving ratio {ratio:.1f} in [12, 20]; picard/rk4 gap {gap:.2e} (< 1e-6); "
        f"great-circle error {gc_err:.2e} (< 1e-6 at dt=1/512)",
    )


def test_criterion_8_full_suite_cli():
    t0 = time.perf_counter()
    codes = {}
    for cfg in ("configs/flat_disguise.cfg", "configs/rough_beta06.cfg", "configs/sphere.cfg"):
        out = subprocess.run(
            [sys.executable, "-m", "rtgeo.cli", "--quiet", "run", cfg],
            capture_output=True,
            text=True,
        )
        codes[cfg.split("/")[-1]] = out.returncode
    elapsed = time.perf_counter() - t0
    report(
        8,
        all(c == 0 for c in codes.values()) and elapsed < 600.0,
        f"exit codes {codes}, wall time {elapsed:.0f}s (< 600s single-threaded)",
    )
