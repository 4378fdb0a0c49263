import json
import subprocess
import sys

import numpy as np
import pytest

from rtgeo.charts import GridField, dump_field
from rtgeo.errors import ConfigurationError
from rtgeo.harness import Scenario, generate_scenario, load_config, run_experiment
from rtgeo.rt_solver import RTConfig


def test_generate_flat_disguise_closed_form(flat_gen):
    vals = flat_gen.conn_x.values
    assert np.abs(vals[..., 1, 0, 0] - 1.0).max() < 1e-11
    zeroed = vals.copy()
    zeroed[..., 1, 0, 0] = 0
    assert np.abs(zeroed).max() < 1e-11


def test_generate_sphere_identity(sphere_gen):
    from rtgeo.harness import sphere_christoffel

    chart = sphere_gen.conn_x.chart
    want = sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2))
    assert np.abs(sphere_gen.conn_x.values - want).max() < 1e-10
    pos, vel = sphere_gen.reference_curve(np.array([0.0, 0.5]))
    assert np.allclose(pos[0], [np.pi / 2, 0.08])


def test_curved_mapped_reference_is_the_pulled_back_great_circle():
    # the sphere hidden behind the shear map: RK4 on the sampled Gamma_x
    # converges to the oracle at second order, and the unmapped great circle
    # (what the identity-map oracle would give) is far off
    from rtgeo.geodesics import GeodesicProblem, solve_geodesic
    from rtgeo.harness import sphere_geodesic

    scn, _ = load_config("configs/sphere.cfg")
    errs = []
    for m in (65, 129):
        s = Scenario(**{**scn.__dict__, "map_kind": "quadratic", "shear": 0.3, "x0": (1.3, 0.08),
                        "v0": (0.45, 0.8), "resolution": (m, m), "checks": {}})
        gen = generate_scenario(s)
        x0, v0 = np.array(s.x0), np.array(s.v0)
        curve = solve_geodesic(GeodesicProblem(connection=gen.conn_x, t0=0.0, x0=x0, v0=v0, interval=1.0), "rk4")
        assert curve.times[-1] == 1.0
        pos, vel = gen.reference_curve(curve.times)
        errs.append(np.abs(curve.positions - pos).max() + np.abs(curve.velocities - vel).max())
        pos, vel = sphere_geodesic(x0, v0, curve.times)
        assert np.abs(curve.positions - pos).max() + np.abs(curve.velocities - vel).max() > 0.1
    assert errs[0] < 1e-4  # 7.96e-5
    assert errs[0] / errs[1] > 3.5  # 1.95e-5 at 129^2: order 2


def test_generate_rough_finite_and_growing(rough_gen):
    assert np.all(np.isfinite(rough_gen.conn_x.values))
    from rtgeo.calculus import gradient_field, lp_norm
    from rtgeo.charts import GridField as GF
    from rtgeo.harness import generate_scenario

    small = Scenario(**{**rough_gen.scenario.__dict__, "resolution": (33, 33), "checks": {}})
    big = Scenario(**{**rough_gen.scenario.__dict__, "resolution": (129, 129), "checks": {}})
    norms = []
    for scn in (small, big):
        g = generate_scenario(scn)
        f = GF(g.conn_x.chart, g.conn_x.values)
        norms.append(lp_norm(f, 2.2) + lp_norm(gradient_field(f), 2.2))
    assert norms[1] / norms[0] >= 2.0


def test_config_parse_all_fields(tmp_path):
    scn, rtk = load_config("configs/rough_beta06.cfg")
    assert scn.name == "rough_beta06"
    assert scn.beta == 0.6
    assert scn.epsilons == (0.125, 0.0625, 0.03125)
    assert rtk["p"] == 2.2
    assert scn.checks.get("ladder") == "33, 65, 129"


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    minimal = tmp_path / "minimal.cfg"
    minimal.write_text("[scenario]\nname = bare\n[chart]\n[ivp]\n")
    scn, rtk = load_config(minimal)
    assert scn == Scenario(name="bare")
    assert RTConfig(**rtk) == RTConfig()
    only_p = tmp_path / "only_p.cfg"
    only_p.write_text("[scenario]\nname = bare\n[chart]\n[ivp]\n[rt]\np = 3.5\n")
    scn, rtk = load_config(only_p)
    assert scn.p == 3.5
    assert RTConfig(**rtk) == RTConfig(p=3.5)


def test_config_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario\nname = oops\n")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "missing.cfg")


def test_config_without_name_exits_2(tmp_path):
    # every artifact is named after the scenario, so a nameless one is refused
    # before any stage runs
    nameless = tmp_path / "nameless.cfg"
    nameless.write_text("[scenario]\nhidden = zero\n[chart]\n[ivp]\n")
    with pytest.raises(ConfigurationError, match=r"\[scenario\].*'name'"):
        load_config(nameless)
    out = _cli("--out", str(tmp_path / "out"), "run", str(nameless))
    assert out.returncode == 2
    assert "name" in out.stderr
    assert not list(tmp_path.rglob("*_report.json"))


def test_too_coarse_grid_exits_2_before_any_stage(monkeypatch):
    # at 9 nodes the 4-cell inset leaves 1 node per axis, so generate would
    # fail on an empty inscribed rectangle; the run is refused first
    from rtgeo import harness

    def no_stage(scn):
        raise AssertionError("generate ran")

    monkeypatch.setattr(harness, "generate_scenario", no_stage)
    with pytest.raises(ConfigurationError, match=r"chart axis 0 has resolution 9, below 10"):
        run_experiment("configs/flat_disguise.cfg", grid=9)
    out = _cli("--grid", "9", "run", "configs/flat_disguise.cfg")
    assert out.returncode == 2
    assert "resolution 9, below 10" in out.stderr


def test_too_coarse_ladder_rung_exits_2_before_any_stage(monkeypatch, tmp_path):
    # a rung below the limit would fail in regularity_ladder after every other
    # stage has run; the run is refused first, naming the rung
    from rtgeo import harness

    class Started(Exception):
        pass

    def no_stage(scn):
        raise Started

    monkeypatch.setattr(harness, "generate_scenario", no_stage)
    text = open("configs/rough_beta06.cfg").read()
    assert "ladder = 33, 65, 129" in text
    coarse, fine = tmp_path / "coarse.cfg", tmp_path / "fine.cfg"
    coarse.write_text(text.replace("ladder = 33, 65, 129", "ladder = 9, 33"))
    fine.write_text(text.replace("ladder = 33, 65, 129", "ladder = 33, 65"))
    with pytest.raises(ConfigurationError, match=r"ladder rung 9: chart axis 0 has resolution 9, below 10"):
        run_experiment(str(coarse))
    with pytest.raises(Started):  # control: rungs at or above the limit reach the first stage
        run_experiment(str(fine))
    out = _cli("run", str(coarse))
    assert out.returncode == 2
    assert "ladder rung 9" in out.stderr


@pytest.mark.parametrize("cfg, eps, limit", [
    ("flat_disguise", "0.03125", "0.0625"),
    ("sphere", "0.0625", "0.0981748"),
    ("rough_beta06", "0.03125", "0.0625"),
])
def test_short_mollifier_exits_2_before_any_stage(monkeypatch, cfg, eps, limit):
    # at 33 nodes the smallest epsilon spans fewer than 2 cells on axis 0, so
    # mollified_family would fail after every earlier stage had run; the run
    # is refused first, and at 65 nodes it reaches the first stage
    from rtgeo import harness

    class Started(Exception):
        pass

    def no_stage(scn):
        raise Started

    monkeypatch.setattr(harness, "generate_scenario", no_stage)
    message = f"chart axis 0: mollifier radius {eps} below 2h = {limit}"
    with pytest.raises(ConfigurationError, match=message):
        run_experiment(f"configs/{cfg}.cfg", grid=33)
    with pytest.raises(Started):
        run_experiment(f"configs/{cfg}.cfg", grid=65)
    out = _cli("--grid", "33", "run", f"configs/{cfg}.cfg")
    assert out.returncode == 2
    assert message in out.stderr


@pytest.mark.parametrize("old, new, key", [
    ("curve_final_tol = 1e-2", "curve_final_tol = 1e-2x", "curve_final_tol"),
    ("ladder = 33, 65, 129", "ladder = 33, 65x", "ladder"),
    ("ladder = 33, 65, 129", "ladder = 33, 65, 129\nreference_tl = 1e-4", "reference_tl"),
    ("enforce_convergence = yes", "enforce_convergence = Yes", "enforce_convergence"),
    ("fixed_point_tol = 1e-9", "fixed_point_tol = 1e-9\ndamping = 0.6", "damping"),
    ("max_iters = 250", "max_iter = 2", "max_iter"),
    ("beta = 0.6", "beta = 0.6x", "beta"),
])
def test_bad_checks_entry_exits_2_before_any_stage(monkeypatch, tmp_path, capsys, old, new, key):
    # a bad [checks] entry used to die mid-run with a traceback, or to drop its
    # gate silently, and an unknown key in another section was ignored; each is
    # refused on load, naming the section and the key
    from rtgeo import harness
    from rtgeo.cli import main

    def no_stage(scn):
        raise AssertionError("generate ran")

    monkeypatch.setattr(harness, "generate_scenario", no_stage)
    text = open("configs/rough_beta06.cfg").read()
    assert old in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    with pytest.raises(ConfigurationError, match=key):
        load_config(bad)
    assert main(["run", str(bad)]) == 2
    assert key in capsys.readouterr().err


def test_shipped_checks_parse():
    from rtgeo.harness import _CHECK_KEYS

    for cfg in ("flat_disguise", "rough_beta06", "sphere"):
        scn, _ = load_config(f"configs/{cfg}.cfg")
        assert scn.checks and set(scn.checks) <= set(_CHECK_KEYS), cfg
        assert all(isinstance(v, str) for v in scn.checks.values()), cfg


def test_inscribed_limit_is_the_inset_rule():
    from rtgeo.charts import Chart
    from rtgeo.errors import JacobianError
    from rtgeo.transform import MIN_INSCRIBED_RES, inscribed_inset, inscribed_y_chart

    assert MIN_INSCRIBED_RES == 10
    for r in range(2, 300):
        assert (r >= MIN_INSCRIBED_RES) == (r - 2 * inscribed_inset(r) >= 2), r
    coarse, fine = (Chart((0.0, 0.0), (1.0, 1.0), (r, r)) for r in (9, 10))
    with pytest.raises(JacobianError, match="empty inscribed rectangle"):
        inscribed_y_chart(coarse, coarse.nodes)
    assert inscribed_y_chart(fine, fine.nodes).res == (10, 10)


def test_generate_inverts_only_the_inscribed_chart(monkeypatch):
    # the pullback reads y(x) and J only: the one Newton inversion left is the
    # checker's strict inscribed y-chart, and it converges
    from rtgeo import transform

    residuals = []
    invert = transform.invert_map

    def counted(*args, **kwargs):
        out = invert(*args, **kwargs)
        residuals.append(out[1])
        return out

    for name, module in list(sys.modules.items()):  # wherever the name was bound
        if name.startswith("rtgeo") and getattr(module, "invert_map", None) is invert:
            monkeypatch.setattr(module, "invert_map", counted)
    for map_kind in ("quadratic", "kink", "identity"):
        residuals.clear()
        generate_scenario(Scenario(name=map_kind, map_kind=map_kind, resolution=(33, 33)))
        assert len(residuals) == 1, map_kind
        assert max(residuals) < 100 * transform.TAU_MAP, map_kind


def _rung_33():
    """rough_beta06 and its RT settings; the run grid is 65, so a 33 rung is not the run's own."""
    scn, rtk = load_config("configs/rough_beta06.cfg")
    return scn, RTConfig(**rtk)


def test_ladder_rung_builds_no_checker_bundle_or_geodesic(monkeypatch):
    # a rung reads W^{1,p} of Gamma_x and Gamma_y only: the one Newton
    # inversion left is the RT bundle's, and no IVP is solved
    from rtgeo import harness, transform
    from rtgeo.geodesics import solve_geodesic

    calls = {"invert_map": 0, "solve_geodesic": 0}
    for fn in (transform.invert_map, solve_geodesic):

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):  # wherever the name was bound
            if name.startswith("rtgeo") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    scn, rtcfg = _rung_33()
    lad = harness._regularity_ladder(scn, rtcfg, [33], own=None)
    assert lad["grids"] == [33] and len(lad["w1p_y"]) == 1
    assert calls == {"invert_map": 1, "solve_geodesic": 0}


def test_ladder_rung_fields_are_the_full_runs(monkeypatch):
    # the rung's Gamma_x and Gamma_y are, byte for byte, what a whole scenario
    # and pipeline run at 33 produce
    from rtgeo import harness
    from rtgeo.geodesics import GeodesicProblem, weak_solution_pipeline

    seen = []
    norm = harness.w1p_norm

    def recorded(field, p):
        seen.append(field)
        return norm(field, p)

    monkeypatch.setattr(harness, "w1p_norm", recorded)
    scn, rtcfg = _rung_33()
    harness._regularity_ladder(scn, rtcfg, [33], own=None)
    rung_x, rung_y = seen
    s = Scenario(**{**scn.__dict__, "resolution": (33, 33)})
    gen = generate_scenario(s)
    prob = GeodesicProblem(gen.conn_x, s.t0, np.asarray(s.x0), np.asarray(s.v0), interval=s.interval)
    conn_y = weak_solution_pipeline(gen.conn_x, prob, rt_config=rtcfg).conn_y
    for got, want in ((rung_x, gen.conn_x), (rung_y, conn_y)):
        assert repr(got.chart) == repr(want.chart)
        assert got.values.tobytes() == want.values.tobytes()


def test_failed_stage_is_the_innermost(tmp_path, capsys):
    # two RT iterations cannot converge: the pipeline stage fails inside its
    # rt_solve step, and the run names rt_solve, keeping the text under pipeline
    from rtgeo.cli import main

    text = open("configs/rough_beta06.cfg").read()
    assert "max_iters = 250" in text
    short = tmp_path / "short.cfg"
    short.write_text(text.replace("max_iters = 250", "max_iters = 2"))
    rep, code = run_experiment(str(short))
    assert code == 1
    assert rep.failed_stage == "rt_solve"
    assert rep.stages["pipeline"]["error"].startswith("stage 'rt_solve' failed")
    assert main(["--quiet", "run", str(short)]) == 1
    assert "short: FAIL (rt_solve)" in capsys.readouterr().out


def test_blinding_tamper(rough_gen):
    # the pipeline consumes only the sampled components; corrupting the
    # hidden bundle must not change its output
    from rtgeo.geodesics import GeodesicProblem, weak_solution_pipeline

    scn = rough_gen.scenario
    prob = GeodesicProblem(
        rough_gen.conn_x, scn.t0, np.asarray(scn.x0), np.asarray(scn.v0), interval=scn.interval
    )
    before = weak_solution_pipeline(rough_gen.conn_x, prob).curve
    rough_gen.hidden_bundle.jac.J[...] = 999.0
    after = weak_solution_pipeline(rough_gen.conn_x, prob).curve
    assert np.array_equal(before.positions, after.positions)
    # restore for other tests
    pts = rough_gen.conn_x.chart.nodes.reshape(-1, 2)
    rough_gen.hidden_bundle.jac.J[...] = rough_gen.map_obj.jacobian(pts).reshape(
        rough_gen.conn_x.chart.res + (2, 2)
    )


def test_run_experiment_determinism(tmp_path):
    rep1, code1 = run_experiment("configs/flat_disguise.cfg", quiet=True)
    rep2, code2 = run_experiment("configs/flat_disguise.cfg", quiet=True)
    assert code1 == code2 == 0
    assert rep1.to_json(include_timings=False) == rep2.to_json(include_timings=False)


def test_run_experiment_artifacts(tmp_path):
    rep, code = run_experiment("configs/flat_disguise.cfg", out_dir=tmp_path, quiet=True)
    assert code == 0
    assert (tmp_path / "flat_disguise_gamma_x.csv").exists()
    assert (tmp_path / "flat_disguise_gamma_y.csv").exists()
    assert (tmp_path / "flat_disguise_curve.csv").exists()
    text = (tmp_path / "flat_disguise_report.json").read_text()
    assert text == rep.to_json()
    payload = json.loads(text)
    assert payload["failed_stage"] == ""
    assert all(payload["flags"].values())


# -- CLI ----------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rtgeo.cli", *args], capture_output=True, text=True
    )


def test_cli_usage_exit_2():
    out = _cli("frobnicate")
    assert out.returncode == 2
    out = _cli()
    assert out.returncode == 2


def test_cli_run_stdout_is_json():
    # progress lines go to stderr, so the report on stdout parses
    out = _cli("run", "configs/sphere.cfg")
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert rep["scenario"]["name"] == "sphere"
    assert "[sphere] generate:" in out.stderr


def test_cli_run_two_configs_stdout_is_one_json_array():
    out = _cli("run", "configs/flat_disguise.cfg", "configs/sphere.cfg")
    assert out.returncode == 0, out.stderr
    reps = json.loads(out.stdout)
    assert [r["scenario"]["name"] for r in reps] == ["flat_disguise", "sphere"]
    assert all(set(r) == {"scenario", "stages", "flags", "failed_stage", "timings"} for r in reps)


def test_cli_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a config at all")
    out = _cli("run", str(bad))
    assert out.returncode == 2


def test_cli_geodesic_straight_line(tmp_path, unit_chart):
    field = tmp_path / "zero.csv"
    dump_field(
        GridField(unit_chart, np.zeros(unit_chart.res + (2, 2, 2)), ("up", "down", "down")),
        field,
    )
    out = _cli("--out", str(tmp_path), "geodesic", str(field), "--x0", "0.2,0.5", "--v0", "0.5,0")
    assert out.returncode == 0, out.stderr
    rows = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1)
    t = rows[:, 0]
    assert np.abs(rows[:, 1] - (0.2 + 0.5 * t)).max() < 1e-12
    assert np.abs(rows[:, 2] - 0.5).max() < 1e-12


def test_cli_norms(tmp_path, unit_chart):
    field = tmp_path / "f.csv"
    dump_field(GridField(unit_chart, unit_chart.nodes[..., :1].copy(), ("down",)), field)
    out = _cli("norms", str(field), "--p", "4", "--alpha", "0.5")
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert set(rep) == {"p", "alpha", "lp", "w1p", "c0", "c0alpha", "pair_floor"}
    assert rep["c0"] == pytest.approx(1.0)


def test_cli_rt_solve(tmp_path, unit_chart):
    from conftest import flat_disguise_connection

    conn = flat_disguise_connection(unit_chart)
    field = tmp_path / "gx.csv"
    dump_field(GridField(unit_chart, conn.values, ("up", "down", "down")), field)
    out = _cli("--out", str(tmp_path), "rt-solve", str(field))
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    assert summary["residuals"]["eq12"] < 1e-9
    assert (tmp_path / "gamma_y.csv").exists()


def test_cli_check_identities():
    out = _cli("check-identities", "configs/flat_disguise.cfg")
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    for suite in rep["suites"].values():
        assert suite["pass"]
        assert 2.5 <= suite["ratio"] <= 5.5
    # the quadratic-map scenario itself is identity-exact
    assert rep["scenario_residuals"]["coderivative_residual"] < 1e-10
    assert rep["scenario_residuals"]["dgamma_residual"] < 1e-10
