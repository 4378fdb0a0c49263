"""Scenario generation and experiment orchestration (the CLI backend).

A scenario hides a smooth connection behind a known-roughness coordinate
change: the pipeline under test sees only the pushed-forward components,
the checker also sees the generating bundle and closed forms.
"""

import configparser
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .calculus import lp_norm, mollifier_radius, mollify, w1p_norm
from .charts import Chart, GridField, JacobianField, connection_field, dump_curve, dump_field
from .curvature import lemma_b1_check
from .errors import ConfigurationError, ResolutionError, RtgeoError, StageError
from .geodesics import (
    GeodesicProblem,
    convergence_report,
    gronwall_uniqueness_check,
    mollified_family,
    solve_mollified,
    uniform_bound_check,
    weak_solution_pipeline,
)
from .rt_solver import RTConfig, regularity_report, regularize
from .transform import MIN_INSCRIBED_RES, TransformBundle, build_bundle, inscribed_inset, transform_connection
from .transform import coderivative_identity_residual, dgamma_identity_residual


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def sphere_christoffel(pts):
    """Unit-sphere coefficients on a (theta, phi) chart, batch evaluator."""
    pts = np.atleast_2d(pts)
    th = pts[..., 0]
    out = np.zeros(pts.shape[:-1] + (2, 2, 2))
    out[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
    cot = np.cos(th) / np.sin(th)
    out[..., 1, 0, 1] = cot
    out[..., 1, 1, 0] = cot
    return out


def sphere_geodesic(x0, v0, times):
    """Great-circle curve through the embedding, returned in chart coordinates."""
    th0, ph0 = x0
    p0 = np.array([np.sin(th0) * np.cos(ph0), np.sin(th0) * np.sin(ph0), np.cos(th0)])
    e_th = np.array([np.cos(th0) * np.cos(ph0), np.cos(th0) * np.sin(ph0), -np.sin(th0)])
    e_ph = np.array([-np.sin(th0) * np.sin(ph0), np.sin(th0) * np.cos(ph0), 0.0])
    V = v0[0] * e_th + v0[1] * e_ph
    w = np.linalg.norm(V)
    if w == 0:
        pos = np.tile(x0, (len(times), 1))
        vel = np.zeros_like(pos)
        return pos, vel
    q = V / w
    t = np.asarray(times)
    p = np.cos(w * t)[:, None] * p0 + np.sin(w * t)[:, None] * q
    dp = w * (-np.sin(w * t)[:, None] * p0 + np.cos(w * t)[:, None] * q)
    th = np.arccos(np.clip(p[:, 2], -1, 1))
    ph = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
    dth = -dp[:, 2] / np.sin(th)
    dph = (p[:, 0] * dp[:, 1] - p[:, 1] * dp[:, 0]) / (p[:, 0] ** 2 + p[:, 1] ** 2)
    return np.stack([th, ph], axis=1), np.stack([dth, dph], axis=1)


def trig_gradient_jacobian(chart):
    """Gradient rows of a trigonometric potential u (n = 2), exactly curl-free
    samples; returns (J, u)."""
    X = chart.nodes
    u = X.copy()
    u[..., 0] = X[..., 0] + 0.04 * np.sin(2.1 * X[..., 0] + 0.3) * np.cos(1.7 * X[..., 1])
    u[..., 1] = X[..., 1] + 0.05 * np.cos(1.3 * X[..., 0]) * np.sin(1.9 * X[..., 1] + 0.5)
    return chart.grad(u), u


def smooth_connection(chart, amp=0.3):
    """Smooth trigonometric connection with every component nonzero (n = 2)."""
    X = chart.nodes
    vals = np.zeros(chart.res + (2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                vals[..., a, b, c] = amp * np.sin((1 + a) * X[..., 0] + 0.5 * (1 + b) * X[..., 1] + 0.2 * c)
    return connection_field(chart, vals)


class KinkMap:
    """y1 = x1 + c |x1 - a|^(1+beta), y2 = x2; the derivative of the forward
    Jacobian is Hölder-beta, placing the Jacobian exactly at the curvature's
    regularity class."""

    def __init__(self, beta, amplitude, position):
        self.beta = beta
        self.c = amplitude
        self.a = position

    def forward(self, pts):
        pts = np.atleast_2d(pts)
        s = pts[..., 0] - self.a
        y = pts.copy()
        y[..., 0] = pts[..., 0] + self.c * np.abs(s) ** (1 + self.beta)
        return y

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        s = pts[..., 0] - self.a
        gp = self.c * (1 + self.beta) * np.abs(s) ** self.beta * np.sign(s)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = 1 + gp
        J[..., 1, 1] = 1
        return J

    def inverse(self, pts):
        """Newton on the first coordinate, 80 iterations."""
        pts = np.atleast_2d(pts)
        x1 = pts[..., 0].copy()
        for _ in range(80):
            s = x1 - self.a
            f = x1 + self.c * np.abs(s) ** (1 + self.beta) - pts[..., 0]
            df = 1 + self.c * (1 + self.beta) * np.abs(s) ** self.beta
            x1 = x1 - f / df
        out = pts.copy()
        out[..., 0] = x1
        return out


class QuadraticMap:
    """y1 = x1, y2 = x2 + s x1^2/2; pushes the flat connection to a single
    constant component of size s."""

    def __init__(self, shear=1.0):
        self.shear = shear

    def forward(self, pts):
        pts = np.atleast_2d(pts)
        y = pts.copy()
        y[..., 1] = pts[..., 1] + 0.5 * self.shear * pts[..., 0] ** 2
        return y

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = 1
        J[..., 1, 1] = 1
        J[..., 1, 0] = self.shear * pts[..., 0]
        return J

    def inverse(self, pts):
        pts = np.atleast_2d(pts)
        x = pts.copy()
        x[..., 1] = pts[..., 1] - 0.5 * self.shear * pts[..., 0] ** 2
        return x


class IdentityMap:
    def forward(self, pts):
        return np.atleast_2d(pts).copy()

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(pts.shape[-1]), pts.shape[:-1] + (pts.shape[-1],) * 2).copy()

    def inverse(self, pts):
        return np.atleast_2d(pts).copy()


# ---------------------------------------------------------------------------
# scenario spec and generation
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    hidden: str = "zero"             # zero | sphere | polynomial
    map_kind: str = "identity"       # identity | quadratic | kink
    beta: float = 0.6
    amplitude: float = 0.3
    shear: float = 1.0
    kink_position: float = 23.0 / 48.0
    chart_lo: tuple = (0.0, 0.0)
    chart_hi: tuple = (1.0, 1.0)
    resolution: tuple = (65, 65)
    p: float = 2.2
    epsilons: tuple = (0.125, 0.0625, 0.03125)
    t0: float = 0.0
    x0: tuple = (0.25, 0.35)
    v0: tuple = (0.55, 0.30)
    interval: float = 1.0
    seed: int = 7
    checks: dict = field(default_factory=dict)

    def chart(self):
        return Chart(self.chart_lo, self.chart_hi, self.resolution)


def _hidden_connection(scn, chart):
    if scn.hidden == "zero":
        return connection_field(chart, np.zeros(chart.res + (2, 2, 2)))
    if scn.hidden == "sphere":
        return connection_field(chart, sphere_christoffel(chart.nodes.reshape(-1, 2)).reshape(chart.res + (2, 2, 2)))
    if scn.hidden == "polynomial":
        rng = np.random.default_rng(scn.seed)
        coef = 0.2 * rng.standard_normal((2, 2, 2))
        pts = chart.nodes
        vals = coef[None, None] * (pts[..., 0:1, None, None] * pts[..., 1:2, None, None])
        return connection_field(chart, np.broadcast_to(vals, chart.res + (2, 2, 2)).copy())
    raise ConfigurationError(f"unknown hidden connection '{scn.hidden}'")


def _map_object(scn):
    if scn.map_kind == "identity":
        return IdentityMap()
    if scn.map_kind == "quadratic":
        return QuadraticMap(scn.shear)
    if scn.map_kind == "kink":
        return KinkMap(scn.beta, scn.amplitude, scn.kink_position)
    raise ConfigurationError(f"unknown map '{scn.map_kind}'")


@dataclass
class GeneratedScenario:
    scenario: Scenario
    conn_x: object
    hidden_bundle: TransformBundle       # inscribed y-chart, checker-only
    conn_y_true: object                  # on the inscribed y-chart
    reference: object                    # closed-form reference curve factory
    map_obj: object

    def reference_curve(self, times):
        return self.reference(times)


def _pull_back(scn, mp):
    """(Gamma_x, y(x) samples, JacobianField): the hidden connection pulled back
    through the sampled map by the connection law, which reads y(x) and J only."""
    chart = scn.chart()
    pts = chart.nodes.reshape(-1, chart.n)
    forward = mp.forward(pts).reshape(chart.res + (chart.n,))
    jac = JacobianField(chart, mp.jacobian(pts).reshape(chart.res + (chart.n, chart.n)))
    # covering y-chart; the identity map reuses the chart so interpolation lands on nodes
    cover_chart = chart
    if scn.map_kind != "identity":
        ys, margin = forward.reshape(-1, chart.n), 2 * float(chart.h.max())
        cover_chart = Chart(ys.min(axis=0) - margin, ys.max(axis=0) + margin, chart.res)
    conn_x, _ = transform_connection(_hidden_connection(scn, cover_chart), forward, jac)
    return conn_x, forward, jac


def generate_scenario(scn):
    """Sample the roughening map, push the hidden connection, build oracles."""
    mp = _map_object(scn)
    conn_x, forward, jac = _pull_back(scn, mp)
    # checker-facing bundle with an inscribed y-chart (for tensoriality checks)
    hidden_bundle = build_bundle(jac.chart, jac, forward=forward)
    conn_y_true = _hidden_connection(scn, hidden_bundle.y_chart)

    x0 = np.asarray(scn.x0, dtype=float)
    v0 = np.asarray(scn.v0, dtype=float)

    def reference(times):
        """The hidden geodesic in y from y(x0) with velocity J(x0) v0, pulled
        back through the inverse map with velocity J(x)^-1 w."""
        if scn.hidden == "polynomial":
            raise RtgeoError("no closed-form reference for a polynomial hidden connection")
        t = np.asarray(times) - scn.t0
        y0 = mp.forward(x0[None])[0]
        w0 = mp.jacobian(x0[None])[0] @ v0
        if scn.hidden == "sphere":
            ys, ws = sphere_geodesic(y0, w0, t)
        else:
            ys, ws = y0[None] + t[:, None] * w0[None], np.broadcast_to(w0, (len(t), len(w0)))
        pos = mp.inverse(ys)
        vel = np.linalg.solve(mp.jacobian(pos), ws[..., None])[..., 0]
        return pos, vel

    return GeneratedScenario(
        scenario=scn,
        conn_x=conn_x,
        hidden_bundle=hidden_bundle,
        conn_y_true=conn_y_true,
        reference=reference,
        map_obj=mp,
    )


# ---------------------------------------------------------------------------
# config file parsing (flat key = value with sections)
# ---------------------------------------------------------------------------


def _floats(s):
    return tuple(float(tok.strip()) for tok in s.split(",") if tok.strip())


def _ints(s):
    return tuple(int(tok.strip()) for tok in s.split(",") if tok.strip())


def _yes_no(s):
    if s not in ("yes", "no"):
        raise ValueError(f"expected yes or no, got {s!r}")


# [checks] key -> parser, run on load only to reject a bad entry: Scenario.checks
# keeps the raw strings, which the report's scenario block echoes
_CHECK_KEYS = {
    **dict.fromkeys(("enforce_convergence", "riem_monotone", "gronwall"), _yes_no),
    **dict.fromkeys(("reference_tol", "curve_final_tol", "interval_min"), float),
    "ladder": _ints,
}

# section -> key -> (Scenario field or None, parser); a key absent from the file
# keeps the dataclass default, and an unknown section or key is refused.  Every
# [rt] key is an RTConfig argument; [rt] p sets Scenario.p as well.
_CONFIG_KEYS = {
    "scenario": {
        "name": ("name", str),
        "hidden": ("hidden", str),
        "map": ("map_kind", str),
        "beta": ("beta", float),
        "amplitude": ("amplitude", float),
        "shear": ("shear", float),
        "kink_position": ("kink_position", float),
        "seed": ("seed", int),
    },
    "chart": {"lo": ("chart_lo", _floats), "hi": ("chart_hi", _floats), "resolution": ("resolution", _ints)},
    "rt": {"p": ("p", float), "max_iters": (None, int), "fixed_point_tol": (None, float)},
    "mollify": {"epsilons": ("epsilons", _floats)},
    "ivp": {"t0": ("t0", float), "x0": ("x0", _floats), "v0": ("v0", _floats), "interval": ("interval", float)},
    "checks": {key: (None, parse) for key, parse in _CHECK_KEYS.items()},
}


def load_config(path):
    """Read a scenario config; returns (Scenario, RTConfig keyword arguments)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as e:
        raise ConfigurationError(f"malformed config {path}: {e}") from e
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    missing = [s for s in ("scenario", "chart", "ivp") if not cp.has_section(s)]
    if missing:
        raise ConfigurationError(f"malformed config {path}: missing section(s) {missing}")
    if not cp["scenario"].get("name", "").strip():
        raise ConfigurationError(f"malformed config {path}: [scenario] has no 'name' (it names every artifact)")
    fields, rt_kwargs = {}, {}
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigurationError(f"malformed config {path}: unknown section [{section}]")
        for key in cp[section]:
            if key not in _CONFIG_KEYS[section]:
                raise ConfigurationError(f"malformed config {path}: unknown [{section}] key '{key}'")
            name, parse = _CONFIG_KEYS[section][key]
            try:
                value = parse(cp[section][key])
            except (ValueError, configparser.Error) as e:
                raise ConfigurationError(f"malformed config {path}: [{section}] {key}: {e}") from e
            if name:
                fields[name] = value
            if section == "rt":
                rt_kwargs[key] = value
    checks = dict(cp["checks"]) if cp.has_section("checks") else {}
    return Scenario(checks=checks, **fields), rt_kwargs


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    scenario: dict
    stages: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    failed_stage: str = ""

    def all_passed(self):
        return not self.failed_stage and all(self.flags.values())

    def to_json(self, include_timings=True):
        payload = {
            "scenario": self.scenario,
            "stages": self.stages,
            "flags": self.flags,
            "failed_stage": self.failed_stage,
        }
        if include_timings:
            payload["timings"] = self.timings
        return json.dumps(payload, sort_keys=True, indent=1, default=_jsonify)


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in obj.__dict__.items() if not k.startswith("_")}
    return str(obj)


def _identity_stage(gen, scn):
    """Coderivative/curl split identities on the generating jacobian.

    Rough (kink) inputs are first mollified at the largest ladder epsilon: the
    sampled connection, and the forward map, whose gradient is the new J, so
    it stays exactly curl-free and twice differenceable.
    """
    conn, J = gen.conn_x, gen.hidden_bundle.jac.J
    if scn.map_kind == "kink":
        chart, eps = conn.chart, max(scn.epsilons)
        conn = connection_field(chart, mollify(conn, eps).values)
        J = chart.grad(mollify(GridField(chart, gen.hidden_bundle.map.forward), eps).values)
    return {
        "coderivative_residual": coderivative_identity_residual(conn, J, p=scn.p),
        "dgamma_residual": dgamma_identity_residual(conn, J, p=scn.p),
        "grid": list(scn.resolution),
    }


def _regularity_ladder(scn, rtcfg, grids, own):
    """W^{1,p} of Gamma_x and Gamma_y across the grid ladder; ``own`` is the
    run's (Gamma_x, Gamma_y), which the rung at the run's resolution reads; any
    other rung builds just those two (pull-back, one regularizing pass)."""
    out = {"grids": list(grids), "w1p_x": [], "w1p_y": []}
    for m in grids:
        if (m, m) == tuple(scn.resolution):
            conn_x, conn_y = own
        else:
            s = replace(scn, resolution=(m, m))
            conn_x = _pull_back(s, _map_object(s))[0]
            conn_y = regularize(conn_x, rtcfg, f"_rung{m}")[2]
        out["w1p_x"].append(w1p_norm(conn_x, scn.p))
        out["w1p_y"].append(w1p_norm(conn_y, scn.p))
    out["x_growth"] = out["w1p_x"][-1] / out["w1p_x"][0]
    ys = out["w1p_y"]
    out["y_variation"] = max(ys) / min(ys) - 1.0
    return out


def run_experiment(config_path, out_dir=None, grid=None, seed=None, quiet=True):
    """Execute the full scenario pipeline; returns (report, exit_code)."""
    t_start = time.perf_counter()
    scn, rt_kwargs = load_config(config_path)
    if grid:
        scn.resolution = (grid, grid)
    if seed is not None:
        scn.seed = seed
    # the run's chart and every ladder rung's (m, m) chart, refused before any stage runs
    ladder = _ints(scn.checks.get("ladder", ""))
    for what, res in [("chart", scn.resolution), *((f"ladder rung {m}: chart", (m, m)) for m in ladder)]:
        for axis, r in enumerate(res):
            if r < MIN_INSCRIBED_RES:
                raise ConfigurationError(
                    f"{what} axis {axis} has resolution {r}, below {MIN_INSCRIBED_RES}: the inscribed "
                    f"y-chart insets {inscribed_inset(r)} cells per side and keeps fewer than 2 nodes"
                )
    # every mollifier on the run's chart; the y-chart exists only after the RT
    # solve, so mollified_family checks its radii there
    chart = scn.chart()
    for eps in scn.epsilons:
        try:
            mollifier_radius(chart, eps)
        except ResolutionError as e:
            raise ConfigurationError(f"chart {e}") from e
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(scenario=asdict(scn))
    rtcfg = RTConfig(**rt_kwargs)

    def log(msg):
        if not quiet:
            print(msg, file=sys.stderr)

    def timed(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except RtgeoError as e:  # a StageError names the innermost stage; its text stays under ``name``
            report.failed_stage = e.stage if isinstance(e, StageError) else name
            report.stages[name] = {"error": str(e)}
            raise StageError(name, e) from e
        finally:
            report.timings[name] = time.perf_counter() - t0
        log(f"[{scn.name}] {name}: {report.timings[name]:.2f}s")
        return result

    try:
        gen = timed("generate", lambda: generate_scenario(scn))
        problem = GeodesicProblem(
            connection=gen.conn_x,
            t0=scn.t0,
            x0=np.asarray(scn.x0),
            v0=np.asarray(scn.v0),
            interval=scn.interval,
        )
        pipe = timed(
            "pipeline", lambda: weak_solution_pipeline(gen.conn_x, problem, rt_config=rtcfg)
        )
        report.stages["rt"] = pipe.provenance.get("rt", {})
        report.stages["pipeline"] = {
            "interval": pipe.curve.interval,
            "y_chart": repr(pipe.conn_y.chart),
        }

        # reference comparison when a closed form exists
        try:
            ref_pos, ref_vel = gen.reference_curve(pipe.curve.times)
            err = float(
                np.abs(pipe.curve.positions - ref_pos).max()
                + np.abs(pipe.curve.velocities - ref_vel).max()
            )
            report.stages["reference"] = {"c1_error": err}
            if "reference_tol" in scn.checks:
                report.flags["reference"] = err < float(scn.checks["reference_tol"])
        except RtgeoError:
            report.stages["reference"] = {"c1_error": None}

        # section-3 identity residuals on the generating jacobian
        report.stages["identities"] = timed("identity_checks", lambda: _identity_stage(gen, scn))

        reg = timed("regularity", lambda: regularity_report(gen.conn_x, pipe.conn_y, scn.p))
        report.stages["regularity"] = {**reg, "x": asdict(reg["x"]), "y": asdict(reg["y"])}

        fam = timed(
            "mollified_family",
            lambda: mollified_family(pipe.conn_y, pipe.bundle, list(scn.epsilons)),
        )
        curves = timed("solve_mollified", lambda: solve_mollified(fam, problem))
        conv = timed(
            "convergence_report",
            lambda: convergence_report(fam, curves, pipe.curve, gen.conn_x, p=scn.p),
        )
        report.stages["convergence"] = conv.to_dict()
        if scn.checks.get("enforce_convergence", "yes") == "yes":
            report.flags["conn_monotone"] = conv.monotone["conn"]
            if scn.checks.get("riem_monotone", "yes") == "yes":
                report.flags["riem_monotone"] = conv.monotone["riem"]
            report.flags["curve_monotone"] = conv.monotone["curve"]
            report.flags["curve_final"] = conv.final_c1 < float(
                scn.checks.get("curve_final_tol", 1e-2)
            )
            report.flags["common_interval"] = conv.common_interval >= float(
                scn.checks.get("interval_min", 0.5)
            )

        # uniform a-priori bound for every mollified curve
        gb = []
        for conn_e, curve in zip(fam.conn_eps, curves):
            c0 = lp_norm(conn_e, np.inf)
            gb.append(uniform_bound_check(curve, c0, reg["x"].alpha, gen.conn_x.chart.n))
        report.stages["uniform_bound"] = gb
        report.flags["uniform_bound"] = all(g["holds"] for g in gb)

        rep = timed("lemma_b1", lambda: lemma_b1_check(gen.conn_x, gen.hidden_bundle, gen.conn_y_true, p=scn.p))
        report.stages["lemma_b1"] = json.loads(rep.to_json())
        report.flags["lemma_b1"] = rep.passed

        if ladder:
            lad = timed(
                "regularity_ladder",
                lambda: _regularity_ladder(scn, rtcfg, ladder, (gen.conn_x, pipe.conn_y)),
            )
            report.stages["regularity_ladder"] = lad
            report.flags["regularity_gain"] = (
                lad["x_growth"] >= 2.0 and lad["y_variation"] < 0.25
            )

        if scn.checks.get("gronwall", "no") == "yes":
            gw = timed(
                "gronwall",
                lambda: gronwall_uniqueness_check(problem, 1e-6),
            )
            report.stages["gronwall"] = gw
            report.flags["gronwall"] = gw["within_envelope"]

        if out:
            dump_field(gen.conn_x, out / f"{scn.name}_gamma_x.csv")
            dump_field(pipe.conn_y, out / f"{scn.name}_gamma_y.csv")
            dump_curve(pipe.curve, out / f"{scn.name}_curve.csv")
    except StageError:
        pass  # timed() recorded the failed stage, so all_passed() is False
    report.timings["total"] = time.perf_counter() - t_start
    if out:
        (out / f"{scn.name}_report.json").write_text(report.to_json())
    return report, 0 if report.all_passed() else 1
