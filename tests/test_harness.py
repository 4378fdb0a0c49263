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
    assert summary["residuals"]["eq11"] < 1e-9
    assert (tmp_path / "gamma_y.csv").exists()


def test_cli_check_identities():
    out = _cli("check-identities", "configs/flat_disguise.cfg")
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    for suite in rep["suites"].values():
        assert suite["pass"]
        assert 2.5 <= suite["ratio"] <= 5.5
    # the quadratic-map scenario itself is identity-exact
    assert rep["scenario_residuals"]["coderivative"] < 1e-10
    assert rep["scenario_residuals"]["curl_split"] < 1e-10
