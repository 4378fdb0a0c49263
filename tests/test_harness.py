from dataclasses import replace
from itertools import product
import json
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from rtgeo.charts import GridField, dump_field
from rtgeo.errors import ConfigurationError
from rtgeo.harness import HIDDEN, MAPS, Scenario, _map_object, generate_scenario, load_config, run_experiment
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


# hidden connection -> the Scenario its oracle runs on: `zero` on the defaults'
# [0, 1]^2 and IVP, `sphere` on sphere.cfg's chart off the equator, where the
# curve reads every component
_ORACLE_SETUP = {
    "zero": dict(x0=(0.25, 0.35), v0=(0.55, 0.30)),
    "sphere": dict(chart_lo=(np.pi / 4, -0.15), chart_hi=(3 * np.pi / 4, 1.15), x0=(1.3, 0.08), v0=(0.45, 0.8),
                   shear=0.3, kink_position=47 * np.pi / 96),
}
# (hidden, map) -> how RK4 on the sampled Gamma_x meets the oracle from 65^2 to
# 129^2: "exact" to rounding, "order2", or "rough" (order beta = 0.6 behind the
# kink); measured errors in the comments
_ORACLE_ROWS = {
    ("zero", "identity"): "exact",      # 4.9e-15, 4.9e-15
    ("zero", "quadratic"): "exact",     # 5.7e-15, 5.7e-15
    ("zero", "kink"): "rough",          # 4.16e-3, 2.68e-3 (ratio 1.55)
    ("sphere", "identity"): "order2",   # 1.51e-5, 3.79e-6 (3.99)
    ("sphere", "quadratic"): "order2",  # 7.96e-5, 1.95e-5 (4.09)
    ("sphere", "kink"): "rough",        # 5.11e-3, 3.26e-3 (1.57)
}


def test_every_hidden_connection_and_map_has_an_oracle_row():
    assert set(_ORACLE_ROWS) == set(product(HIDDEN, MAPS))
    assert set(_ORACLE_SETUP) == set(HIDDEN)
    assert all(MAPS[m][1] == (kind == "rough") for (_, m), kind in _ORACLE_ROWS.items())


@pytest.mark.parametrize("hidden, map_kind", list(product(HIDDEN, MAPS)))
def test_oracle_meets_rk4_on_the_sampled_connection(hidden, map_kind):
    # the oracle is the hidden closed form pulled back through the map: RK4 on
    # the sampled Gamma_x meets it over the full interval at the rate the row
    # names, and the unmapped closed form is far off wherever the map moves
    # the curve
    from rtgeo.geodesics import GeodesicProblem, solve_geodesic

    errs = []
    for m in (65, 129):
        s = Scenario("oracle", hidden=hidden, map_kind=map_kind, resolution=(m, m), **_ORACLE_SETUP[hidden])
        gen = generate_scenario(s)
        x0, v0 = np.array(s.x0), np.array(s.v0)
        curve = solve_geodesic(GeodesicProblem(gen.conn_x, s.t0, x0, v0, interval=s.interval), "rk4")
        assert curve.interval == s.interval, curve.truncation
        pos, vel = gen.reference_curve(curve.times)
        errs.append(np.abs(curve.positions - pos).max() + np.abs(curve.velocities - vel).max())
        if np.abs(_map_object(s).forward(pos) - pos).max() > 0:
            upos, uvel = HIDDEN[hidden][1](x0, v0, curve.times - s.t0)
            assert np.abs(curve.positions - upos).max() + np.abs(curve.velocities - uvel).max() > 0.1
    kind = _ORACLE_ROWS[(hidden, map_kind)]
    if kind == "rough":
        assert errs[1] < 1e-2 and errs[0] / errs[1] > 1.3, errs  # 2^beta = 1.52
    else:
        assert errs[0] < 1e-4, errs
        assert max(errs) <= 1e-12 if kind == "exact" else errs[0] / errs[1] > 3.5, errs


def test_maps_and_the_zero_connection_work_in_three_dimensions():
    # central differences of the kink's |x1 - a|^1.6 hold to 1e-9 only a few
    # hundred steps off its singular line; these points keep 6.7e-3 from it
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (4, 5, 3))
    assert np.abs(pts[..., 0] - Scenario("n3").kink_position).min() > 5e-3
    assert HIDDEN["zero"][0](pts).shape == (4, 5, 3, 3, 3)
    h = 1e-6
    for name, (build, _) in MAPS.items():
        mp = build(Scenario("n3"))
        J = mp.jacobian(pts)
        assert J.shape == (4, 5, 3, 3), name
        step = h * np.eye(3)
        fd = np.stack([(mp.forward(pts + e) - mp.forward(pts - e)) / (2 * h) for e in step], axis=-1)
        assert np.abs(J - fd).max() < 1e-9, (name, np.abs(J - fd).max())
        assert np.abs(mp.inverse(mp.forward(pts)) - pts).max() < 1e-12, name


def test_generate_rough_finite_and_growing(rough_gen):
    assert np.all(np.isfinite(rough_gen.conn_x.values))
    from rtgeo.calculus import w1p_norm
    from rtgeo.charts import GridField as GF
    from rtgeo.harness import generate_scenario

    small = Scenario(**{**rough_gen.scenario.__dict__, "resolution": (33, 33), "checks": {}})
    big = Scenario(**{**rough_gen.scenario.__dict__, "resolution": (129, 129), "checks": {}})
    norms = []
    for scn in (small, big):
        g = generate_scenario(scn)
        f = GF(g.conn_x.chart, g.conn_x.values)
        norms.append(w1p_norm(f, 2.2))
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


def test_initial_point_off_the_y_chart_names_the_chart(tmp_path):
    # x0 = (0.06, 0.55) lies on the x-chart, but y(x0) falls in the 8-cell
    # rim the inscribed y-chart leaves out at 65 nodes; the message names the
    # y-side point, the y-chart and the inset, not the x-point alone
    text = open("configs/flat_disguise.cfg").read().replace("x0 = 0.16, 0.55", "x0 = 0.06, 0.55")
    cfg = tmp_path / "off_y_chart.cfg"
    cfg.write_text(text)
    report, code = run_experiment(str(cfg))
    assert code == 1
    assert report.failed_stage == "initial_data"
    error = report.stages["pipeline"]["error"]
    assert error.startswith("stage 'initial_data' failed: y(x0) = [0.06 0.55] left the inscribed y-chart ")
    assert "Chart([0.125,0.875]x[0.125,0.875], res=(65, 65))" in error
    assert error.endswith("inset [8, 8] cells per side")


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


BOUNDS = r"; the chart is \[0\.0, 1\.0\] x \[0\.0, 1\.0\]"


@pytest.mark.parametrize("old, new, message", [
    ("hidden = zero", "hidden = bogus", r"\[scenario\] hidden: expected one of zero, sphere, got 'bogus'"),
    ("map = quadratic", "map = bogus", r"\[scenario\] map: expected one of identity, quadratic, kink, got 'bogus'"),
    ("x0 = 0.16, 0.55", "x0 = 0.16", r"\[ivp\] x0 = 0\.16 needs 2 components, has 1" + BOUNDS),
    ("v0 = 0.80, 0.00", "v0 = 0.8, 0.0, 0.1", r"\[ivp\] v0 = 0\.8, 0\.0, 0\.1 needs 2 components, has 3" + BOUNDS),
    ("x0 = 0.16, 0.55", "x0 = 1.5, 0.55", r"\[ivp\] x0 = 1\.5, 0\.55 lies outside the chart" + BOUNDS),
    ("v0 = 0.80, 0.00", "v0 = nan, 0.0", r"\[ivp\] v0 = nan, 0\.0 is not finite" + BOUNDS),
])
def test_bad_scenario_or_ivp_value_exits_2_before_any_stage(monkeypatch, tmp_path, capsys, old, new, message):
    # an unknown hidden connection or map used to fail in generate, and a
    # malformed IVP in the pipeline or with a traceback; each is refused
    # before any stage runs, naming the section, the key and what is allowed
    from rtgeo import harness
    from rtgeo.cli import main

    def no_stage(scn):
        raise AssertionError("generate ran")

    monkeypatch.setattr(harness, "generate_scenario", no_stage)
    text = open("configs/flat_disguise.cfg").read()
    assert old in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new))
    with pytest.raises(ConfigurationError, match=message):
        run_experiment(str(bad))
    assert main(["run", str(bad)]) == 2
    assert new.split(" = ")[0] in capsys.readouterr().err


def test_shipped_checks_parse():
    from rtgeo.harness import _CHECK_KEYS

    for cfg in ("flat_disguise", "rough_beta06", "sphere"):
        scn, _ = load_config(f"configs/{cfg}.cfg")
        assert scn.checks and set(scn.checks) <= set(_CHECK_KEYS), cfg
        assert all(isinstance(v, str) for v in scn.checks.values()), cfg


def test_only_checks_and_load_config_read_scenario_checks():
    # the run reads [checks] through _checks, which parses each raw string by
    # _CHECK_KEYS and fills the defaults; any other reader would parse again
    import ast
    from pathlib import Path

    import rtgeo

    readers = set()

    def visit(node, owner):
        if isinstance(node, ast.Attribute) and node.attr == "checks":
            readers.add(owner)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in Path(rtgeo.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem} module")
    assert "_checks" in readers and readers <= {"_checks", "load_config"}, readers


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


def test_regularity_gain_fails_when_the_ladder_never_refines(monkeypatch):
    # negative control: with the rung's resolution dropped, every rung is the
    # run's own 65^2 chart, so W^{1,p} of Gamma_x cannot grow; the flag turns,
    # alone, and sets the exit code
    from rtgeo import harness

    def same_chart(scn, resolution, **changes):
        return replace(scn, **changes)

    monkeypatch.setattr(harness, "replace", same_chart)
    report, code = run_experiment("configs/rough_beta06.cfg")
    lad = report.stages["regularity_ladder"]
    assert (lad["x_growth"], lad["y_variation"]) == (1.0, 0.0)
    assert [k for k, ok in report.flags.items() if not ok] == ["regularity_gain"]
    assert code == 1


@pytest.mark.parametrize("edit, x_grows, y_steady", [
    ("beta = 0.6", True, True),      # x_growth 3.41, y_variation 0.044
    ("beta = 0.5", True, True),      # 3.99, 0.117
    ("beta = 0.4", True, False),     # y_variation 0.306: Gamma_x leaves L^2.2 below beta = 0.545
    ("swap", True, False),           # y_variation 2.49: w1p_y 5.95, 10.87, 20.76
    ("beta = 0.9", False, True),     # x_growth 1.75: too smooth to show a gain on 33/65/129
], ids=["beta06", "beta05", "beta04", "slot_swap", "beta09"])
def test_regularity_gain_outside_the_hypothesis(monkeypatch, tmp_path, edit, x_grows, y_steady):
    # the flag reads each input's ladder: the gain shows for a kink whose
    # Gamma_x is in L^p with bounded curvature and is lost outside that
    # hypothesis, either half of the flag deciding; the slot swap moves the
    # kink's Gamma^1_11 = f(x1) to Gamma^1_22, which keeps every norm of
    # Gamma_x and makes the curvature unbounded
    from rtgeo import harness
    from rtgeo.charts import connection_field

    if edit == "swap":
        pull_back = harness._pull_back

        def swapped(scn, mp):
            conn_x, forward, jac = pull_back(scn, mp)
            values = np.zeros_like(conn_x.values)
            values[..., 0, 1, 1] = conn_x.values[..., 0, 0, 0]
            return connection_field(conn_x.chart, values), forward, jac

        monkeypatch.setattr(harness, "_pull_back", swapped)
        edit = "beta = 0.6"
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(open("configs/rough_beta06.cfg").read().replace("beta = 0.6", edit))
    report, _ = run_experiment(str(cfg))
    lad = report.stages["regularity_ladder"]
    assert (lad["x_growth"] >= 2.0, lad["y_variation"] < 0.25) == (x_grows, y_steady), lad
    assert report.flags["regularity_gain"] == (x_grows and y_steady)


NO_CONTROL = "no control yet, ROADMAP item 17"

# every flag run_experiment can write -> the negative control that turns it
# false: ("test", "<file>::<test>"), ("golden", "<report>") for a golden report
# that exits 1 on it, or (None, reason)
FLAG_CONTROLS = {
    "reference": ("test", "test_geodesics.py::test_reference_tol_fails_with_the_connection_zeroed"),
    "lemma_b1": ("test", "test_curvature.py::test_lemma_b1_negative_control"),
    "regularity_gain": ("test", "test_harness.py::test_regularity_gain_fails_when_the_ladder_never_refines"),
    "riem_monotone": ("golden", "flat_disguise_129"),
    **dict.fromkeys(("conn_monotone", "curve_monotone", "curve_final", "common_interval"), (None, NO_CONTROL)),
}


def test_every_flag_has_a_negative_control_or_a_reason():
    # a flag no control can turn false shows nothing; the names are read from
    # the report.flags["..."] subscripts in harness.py
    import ast
    from pathlib import Path

    from rtgeo import harness

    def is_flags(node):
        return isinstance(node, ast.Attribute) and node.attr == "flags"

    written = {
        node.slice.value
        for node in ast.walk(ast.parse(Path(harness.__file__).read_text()))
        if isinstance(node, ast.Subscript) and is_flags(node.value) and isinstance(node.slice, ast.Constant)
    }
    assert written == set(FLAG_CONTROLS)
    tests = Path(__file__).parent
    golden = tests / "golden"
    codes = json.loads((golden / "exit_codes.json").read_text())
    for flag, (kind, control) in FLAG_CONTROLS.items():
        if kind == "test":
            file, name = control.split("::")
            defined = {node.name for node in ast.parse((tests / file).read_text()).body
                       if isinstance(node, ast.FunctionDef)}
            assert name in defined, (flag, control)
        elif kind == "golden":
            report = json.loads((golden / f"{control}.json").read_text())
            assert report["flags"][flag] is False and codes[control] == 1, (flag, control)
        else:
            assert control == NO_CONTROL, flag


def test_no_comparison_reads_a_hidden_connection_or_map_name():
    # which connections and maps exist, and what a stage asks of them, is
    # read from harness.HIDDEN and harness.MAPS, never by comparing a name
    import ast
    from pathlib import Path

    import rtgeo

    sites = []
    for path in Path(rtgeo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.Attribute) and operand.attr in ("hidden", "map_kind"):
                        sites.append(f"{path.name}:{node.lineno}")
    assert not sites, sites


def test_ladder_starts_after_the_run_drops_its_dead_results(stage_memory, monkeypatch):
    # the 129^2 rung sets the run's peak memory, so nothing the ladder does not
    # read may still be live when it starts: the mollified family, the
    # pipeline's bundle and the checker's hidden bundle are gone, and the traced
    # live set has grown by under 1.5 MB since the run began (1.0 MB measured;
    # 3.1 MB while the run held its stage results to the end)
    from rtgeo import harness

    refs, dead = {}, {}

    def keep(name, part):
        fn = getattr(harness, name)

        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            refs[name] = weakref.ref(part(out))
            return out

        monkeypatch.setattr(harness, name, kept)

    keep("generate_scenario", lambda gen: gen.hidden_bundle)
    keep("weak_solution_pipeline", lambda pipe: pipe.bundle)
    keep("mollified_family", lambda fam: fam)
    ladder = harness._regularity_ladder

    def entered(*args):
        dead.update({name: ref() is None for name, ref in refs.items()})
        return ladder(*args)

    monkeypatch.setattr(harness, "_regularity_ladder", entered)
    start = tracemalloc.get_traced_memory()[0]
    _, code = run_experiment("configs/rough_beta06.cfg")
    assert code == 0
    assert dead == dict.fromkeys(("generate_scenario", "weak_solution_pipeline", "mollified_family"), True)
    assert stage_memory["regularity_ladder"][0] - start < 1.5e6


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
    before = weak_solution_pipeline(rough_gen.conn_x, prob, RTConfig()).curve
    rough_gen.hidden_bundle.jac.J[...] = 999.0
    after = weak_solution_pipeline(rough_gen.conn_x, prob, RTConfig()).curve
    assert np.array_equal(before.positions, after.positions)
    # restore for other tests
    pts = rough_gen.conn_x.chart.nodes.reshape(-1, 2)
    rough_gen.hidden_bundle.jac.J[...] = _map_object(rough_gen.scenario).jacobian(pts).reshape(
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
    out = _cli("norms", str(field), "--p", "4")
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert set(rep) == {"p", "lp", "w1p", "c0"}
    assert rep["c0"] == pytest.approx(1.0)
    # the report forms no Hölder quotient, so there is no exponent to pass
    assert _cli("norms", str(field), "--alpha", "0.5").returncode == 2


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda head, body: (head.replace(" shape=1d", ""), body), "has no shape="),
        (lambda head, body: (head.replace("res=9,9", "res=9,x"), body), "does not parse: invalid literal for int() with base 10: 'x'"),
        (lambda head, body: (head, body[:1]), "1 rows of 3 columns, not 81 of 3"),
        (lambda head, body: (head, [row.rsplit(",", 1)[0] + "\n" for row in body]), "81 rows of 2 columns, not 81 of 3"),
        (lambda head, body: None, "cannot read field file: No such file or directory"),
        (lambda head, body: (head, [body[0].rsplit(",", 1)[0] + ",nan\n", *body[1:]]),
         "non-finite values in field (first bad node index (0, 0))"),
    ],
    ids=["missing_key", "unparsable_value", "row_count", "column_count", "missing_file", "nonfinite_sample"],
)
def test_cli_refuses_a_malformed_field_csv(tmp_path, capsys, edit, fault):
    # each used to escape cli.main as a KeyError, ValueError or FileNotFoundError
    # traceback, or to exit 1 as a stage failure; an edit of None removes the file
    from rtgeo.charts import Chart
    from rtgeo.cli import main

    chart = Chart((0.0, 0.0), (1.0, 1.0), (9, 9))
    field = tmp_path / "f.csv"
    dump_field(GridField(chart, chart.nodes[..., :1].copy(), ("down",)), field)
    head, *body = field.read_text().splitlines(keepends=True)
    edited = edit(head, body)
    if edited is None:
        field.unlink()
    else:
        field.write_text(edited[0] + "".join(edited[1]))
    assert main(["norms", str(field)]) == 2
    err = capsys.readouterr().err
    assert str(field) in err and fault in err


@pytest.mark.parametrize(
    "argv, fault",
    [
        (["geodesic", "{conn}", "--x0", "0.5,0.5,0.5", "--v0", "0.1,0"], "--x0 has 3 components; the chart has 2 axes"),
        (["geodesic", "{conn}", "--x0", "0.5,0.5", "--v0", "0.1,0,0"], "--v0 has 3 components; the chart has 2 axes"),
        (["geodesic", "{conn}", "--x0", "0.5,x", "--v0", "0.1,0"], "--x0 '0.5,x': could not convert string to float: 'x'"),
        (["geodesic", "{conn}", "--x0", "0.5,0.5", "--v0", ""], "--v0 '': could not convert string to float: ''"),
        (["geodesic", "{conn}", "--x0", "5,5", "--v0", "0.1,0"], "--x0 [5. 5.] lies outside the chart Chart([0,1]x[0,1]"),
        (["geodesic", "{conn}", "--x0", "0.5,0.5", "--v0", "nan,0"], "--v0 [nan  0.] is not finite"),
        (["geodesic", "{scalar}", "--x0", "0.5,0.5", "--v0", "0.1,0"], "{scalar}: connection components must be (n,n,n), got (1,)"),
        (["rt-solve", "{scalar}"], "{scalar}: connection components must be (n,n,n), got (1,)"),
    ],
    ids=[
        "x0_length", "v0_length", "x0_unparsable", "v0_empty", "x0_off_chart", "v0_not_finite",
        "geodesic_not_a_connection", "rt_solve_not_a_connection",
    ],
)
def test_cli_refuses_malformed_ivp_or_connection_input(tmp_path, capsys, argv, fault):
    # a wrong-length x0 or v0 used to escape cli.main as a numpy broadcast or
    # unpacking ValueError, an unparsable one as a float() ValueError, an
    # off-chart x0 or a non-finite v0 to exit 1 as a stage failure naming no
    # option, and a field CSV that is not a connection to exit 1 as a ShapeError
    from rtgeo.charts import Chart
    from rtgeo.cli import main

    chart = Chart((0.0, 0.0), (1.0, 1.0), (9, 9))
    files = {"conn": tmp_path / "conn.csv", "scalar": tmp_path / "scalar.csv"}
    dump_field(GridField(chart, np.zeros(chart.res + (2, 2, 2)), ("up", "down", "down")), files["conn"])
    dump_field(GridField(chart, chart.nodes[..., :1].copy(), ("down",)), files["scalar"])
    assert main(["--out", str(tmp_path), *(a.format(**files) for a in argv)]) == 2
    assert fault.format(**files) in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


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
    # at --grid 17 the pair once collapsed to [17], and the suites passed with
    # no ratio; coderivative 4.05 and curl_split 3.81 on 17 and 33
    for args, grids in (
        (("check-identities", "configs/flat_disguise.cfg"), [33, 65]),
        (("--grid", "17", "check-identities", "configs/sphere.cfg"), [17, 33]),
    ):
        out = _cli(*args)
        assert out.returncode == 0, out.stderr
        rep = json.loads(out.stdout)
        assert rep["grids"] == grids
        for suite in rep["suites"].values():
            assert suite["pass"]
            assert 2.5 <= suite["ratio"] <= 5.5
        # the quadratic-map and identity-map scenarios are identity-exact
        assert rep["scenario_residuals"]["coderivative_residual"] < 1e-10
        assert rep["scenario_residuals"]["dgamma_residual"] < 1e-10
