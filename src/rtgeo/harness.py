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

from .calculus import matvec, mollifier_radius, mollify, w1p_norm
from .charts import Chart, JacobianField, connection_field, det_inverse, dump_curve, dump_field
from .curvature import lemma_b1_check
from .errors import ConfigurationError, ResolutionError, RtgeoError, StageError
from .geodesics import (
    GeodesicProblem,
    convergence_report,
    mollified_family,
    solve_mollified,
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


def straight_line(y0, w0, t):
    """The flat geodesic y0 + t w0, at constant velocity w0."""
    return y0[None] + t[:, None] * w0[None], np.broadcast_to(w0, (len(t), len(w0)))


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
        J = IdentityMap().jacobian(pts)
        J[..., 0, 0] = 1 + gp
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

    def __init__(self, shear):
        self.shear = shear

    def forward(self, pts):
        pts = np.atleast_2d(pts)
        y = pts.copy()
        y[..., 1] = pts[..., 1] + 0.5 * self.shear * pts[..., 0] ** 2
        return y

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        J = IdentityMap().jacobian(pts)
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


# hidden connection -> (Christoffel batch evaluator, closed-form geodesic (y0, w0, t) -> (y, w)),
# and map -> (map object built from the Scenario, whether its Jacobian is rough); the keys,
# in this order, are the config's allowed ``hidden`` and ``map`` values
HIDDEN = {"zero": (lambda pts: np.zeros(pts.shape[:-1] + (pts.shape[-1],) * 3), straight_line),
          "sphere": (sphere_christoffel, sphere_geodesic)}
MAPS = {"identity": (lambda scn: IdentityMap(), False),
        "quadratic": (lambda scn: QuadraticMap(scn.shear), False),
        "kink": (lambda scn: KinkMap(scn.beta, scn.amplitude, scn.kink_position), True)}


# ---------------------------------------------------------------------------
# scenario spec and generation
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    hidden: str = "zero"             # a key of HIDDEN
    map_kind: str = "identity"       # a key of MAPS
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
    seed: int = 7                    # echoed in the report only
    checks: dict = field(default_factory=dict)

    def chart(self):
        return Chart(self.chart_lo, self.chart_hi, self.resolution)


def _hidden_connection(scn, chart):
    values = HIDDEN[scn.hidden][0](chart.nodes.reshape(-1, chart.n))
    return connection_field(chart, values.reshape(chart.res + (chart.n,) * 3))


def _map_object(scn):
    return MAPS[scn.map_kind][0](scn)


@dataclass
class GeneratedScenario:
    scenario: Scenario
    conn_x: object
    hidden_bundle: TransformBundle       # inscribed y-chart, checker-only
    conn_y_true: object                  # on the inscribed y-chart
    reference: object                    # closed-form reference curve factory

    def reference_curve(self, times):
        return self.reference(times)


def _pull_back(scn, mp):
    """(Gamma_x, y(x) samples, JacobianField): the hidden connection pulled back
    through the sampled map by the connection law, which reads y(x) and J only."""
    chart = scn.chart()
    pts = chart.nodes.reshape(-1, chart.n)
    forward = mp.forward(pts).reshape(chart.res + (chart.n,))
    jac = JacobianField(chart, mp.jacobian(pts).reshape(chart.res + (chart.n, chart.n)))
    # a covering y-chart only when y(x)'s bounding box leaves the chart; else interpolation lands on nodes
    ys, margin = forward.reshape(-1, chart.n), 2 * float(chart.h.max())
    lo, hi = ys.min(axis=0), ys.max(axis=0)
    cover = chart if chart.contains(np.stack([lo, hi])).all() else Chart(lo - margin, hi + margin, chart.res)
    conn_x = transform_connection(_hidden_connection(scn, cover), forward, jac)
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
        t = np.asarray(times) - scn.t0
        y0 = mp.forward(x0[None])[0]
        w0 = mp.jacobian(x0[None])[0] @ v0
        ys, ws = HIDDEN[scn.hidden][1](y0, w0, t)
        pos = mp.inverse(ys)
        return pos, matvec(det_inverse(mp.jacobian(pos))[1], ws)

    return GeneratedScenario(
        scenario=scn,
        conn_x=conn_x,
        hidden_bundle=hidden_bundle,
        conn_y_true=conn_y_true,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# config file parsing (flat key = value with sections)
# ---------------------------------------------------------------------------


def _floats(s):
    return tuple(float(tok.strip()) for tok in s.split(",") if tok.strip())


def _ints(s):
    return tuple(int(tok.strip()) for tok in s.split(",") if tok.strip())


def _choice(*allowed):
    """Parser that keeps a string only when it is one of ``allowed``."""

    def parse(s):
        if s not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {s!r}")
        return s

    return parse


def _yes_no(s):
    return _choice("yes", "no")(s) == "yes"


# [checks] key -> (parser, default for an absent key).  Scenario.checks keeps
# the raw strings, which the report's scenario block echoes; load_config
# parses them to reject a bad entry, and _checks is what the run reads
_CHECK_KEYS = {
    **dict.fromkeys(("enforce_convergence", "riem_monotone"), (_yes_no, True)),
    "reference_tol": (float, None),
    "curve_final_tol": (float, 1e-2),
    "interval_min": (float, 0.5),
    "ladder": (_ints, ()),
}


def _checks(scn):
    """``scn``'s [checks] values parsed, each absent key at its default."""
    return {
        key: parse(scn.checks[key]) if key in scn.checks else default
        for key, (parse, default) in _CHECK_KEYS.items()
    }


# section -> key -> (Scenario field or None, parser); a key absent from the file
# keeps the dataclass default, and an unknown section or key is refused.  Every
# [rt] key is an RTConfig argument; [rt] p sets Scenario.p as well.
_CONFIG_KEYS = {
    "scenario": {
        "name": ("name", str),
        "hidden": ("hidden", _choice(*HIDDEN)),
        "map": ("map_kind", _choice(*MAPS)),
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
    "checks": {key: (None, parse) for key, (parse, _) in _CHECK_KEYS.items()},
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
        return json.dumps(payload, sort_keys=True, indent=1)


def _identity_stage(gen, scn):
    """Coderivative/curl split identities on the generating jacobian.

    Rough (kink) inputs are first mollified at the largest ladder epsilon: the
    sampled connection, and the forward map, whose gradient is the new J, so
    it stays exactly curl-free and twice differenceable.
    """
    conn, J = gen.conn_x, gen.hidden_bundle.jac.J
    if MAPS[scn.map_kind][1]:
        eps = max(scn.epsilons)
        conn = mollify(conn, eps)
        J = conn.chart.grad(mollify(gen.hidden_bundle.forward, eps).values)
    return {
        "coderivative_residual": coderivative_identity_residual(conn, J, p=scn.p),
        "dgamma_residual": dgamma_identity_residual(conn, J, p=scn.p),
        "grid": list(scn.resolution),
    }


def _regularity_ladder(scn, rtcfg, grids, own):
    """W^{1,p} of Gamma_x and Gamma_y across the grid ladder; the rung at the run's
    resolution reads ``own``, the two norms the regularity stage computed; any
    other rung builds its two fields (pull-back, one regularizing pass)."""
    out = {"grids": list(grids), "w1p_x": [], "w1p_y": []}
    for m in grids:
        if (m, m) == tuple(scn.resolution):
            w1p_x, w1p_y = own
        else:
            s = replace(scn, resolution=(m, m))
            conn_x = _pull_back(s, _map_object(s))[0]
            conn_y = regularize(conn_x, rtcfg, f"_rung{m}")[2]
            w1p_x, w1p_y = w1p_norm(conn_x, scn.p), w1p_norm(conn_y, scn.p)
        out["w1p_x"].append(w1p_x)
        out["w1p_y"].append(w1p_y)
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
    checks = _checks(scn)
    # the run's chart and every ladder rung's (m, m) chart, refused before any stage runs
    for what, res in [("chart", scn.resolution), *((f"ladder rung {m}: chart", (m, m)) for m in checks["ladder"])]:
        for axis, r in enumerate(res):
            if r < MIN_INSCRIBED_RES:
                raise ConfigurationError(
                    f"{what} axis {axis} has resolution {r}, below {MIN_INSCRIBED_RES}: the inscribed "
                    f"y-chart insets {inscribed_inset(r)} cells per side and keeps fewer than 2 nodes"
                )
    # the IVP: n-component x0 and v0, with x0 on the chart
    chart = scn.chart()
    bounds = " x ".join(f"[{lo!r}, {hi!r}]" for lo, hi in zip(chart.lo.tolist(), chart.hi.tolist()))
    for key in ("x0", "v0"):
        value = np.asarray(getattr(scn, key), dtype=float)
        if len(value) != chart.n:
            fault = f"needs {chart.n} components, has {len(value)}"
        elif key == "x0" and not chart.contains(value)[0]:
            fault = "lies outside the chart"
        elif not np.isfinite(value).all():
            fault = "is not finite"
        else:
            continue
        shown = ", ".join(map(repr, value.tolist()))
        raise ConfigurationError(f"[ivp] {key} = {shown} {fault}; the chart is {bounds}")
    # every mollifier on the run's chart; the y-chart exists only after the RT
    # solve, so mollified_family checks its radii there
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

    # each stage result is dropped after its last reader, so a refined grid's
    # peak is one stage's work over what later stages still read; the rough
    # connection (in ``problem``), the y-connection and the weak curve stay
    # for the --out dumps
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
        conn_y, curve, bundle = pipe.conn_y, pipe.curve, pipe.bundle
        del pipe

        # the pipeline's curve against the hidden closed form
        ref_pos, ref_vel = gen.reference_curve(curve.times)
        err = float(
            np.abs(curve.positions - ref_pos).max()
            + np.abs(curve.velocities - ref_vel).max()
        )
        report.stages["reference"] = {"c1_error": err}
        if checks["reference_tol"] is not None:
            report.flags["reference"] = err < checks["reference_tol"]

        # section-3 identity residuals on the generating jacobian
        report.stages["identities"] = timed("identity_checks", lambda: _identity_stage(gen, scn))

        reg = report.stages["regularity"] = timed("regularity", lambda: regularity_report(gen.conn_x, conn_y, scn.p))

        fam = timed(
            "mollified_family",
            lambda: mollified_family(conn_y, bundle, list(scn.epsilons)),
        )
        del bundle
        curves = timed("solve_mollified", lambda: solve_mollified(fam, problem))
        conv = report.stages["convergence"] = timed(
            "convergence_report",
            lambda: convergence_report(fam, curves, curve, gen.conn_x, p=scn.p),
        )
        del fam, curves
        if checks["enforce_convergence"]:
            monotone = conv["monotone"]
            report.flags["conn_monotone"] = monotone["conn"]
            if checks["riem_monotone"]:
                report.flags["riem_monotone"] = monotone["riem"]
            report.flags["curve_monotone"] = monotone["curve"]
            report.flags["curve_final"] = conv["final_c1"] < checks["curve_final_tol"]
            report.flags["common_interval"] = conv["common_interval"] >= checks["interval_min"]

        rep = report.stages["lemma_b1"] = timed(
            "lemma_b1", lambda: lemma_b1_check(gen.conn_x, gen.hidden_bundle, gen.conn_y_true, p=scn.p)
        )
        del gen
        report.flags["lemma_b1"] = rep["pass"]

        if checks["ladder"]:
            lad = report.stages["regularity_ladder"] = timed(
                "regularity_ladder",
                lambda: _regularity_ladder(scn, rtcfg, checks["ladder"], (reg["x"]["w1p"], reg["y"]["w1p"])),
            )
            report.flags["regularity_gain"] = lad["x_growth"] >= 2.0 and lad["y_variation"] < 0.25

        if out:
            dump_field(problem.connection, out / f"{scn.name}_gamma_x.csv")
            dump_field(conn_y, out / f"{scn.name}_gamma_y.csv")
            dump_curve(curve, out / f"{scn.name}_curve.csv")
    except StageError:
        pass  # timed() recorded the failed stage, so all_passed() is False
    report.timings["total"] = time.perf_counter() - t_start
    if out:
        (out / f"{scn.name}_report.json").write_text(report.to_json())
    return report, 0 if report.all_passed() else 1
