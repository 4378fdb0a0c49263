"""Geodesic IVP solvers, the weak-solution-by-coordinates pipeline, and the
mollified-family machinery whose smooth solutions converge to it.

A curve solves  gamma'' + Gamma(gamma) gamma' gamma' = K(t, gamma, gamma')
as the first-order system u = (gamma, v).  The connection is a sampled field
on its own chart, interpolated multilinearly along the curve; intervals
truncate at chart exit and at the velocity ball sum((v - v0)^2) <= 1, the
normalization of the local existence interval.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .calculus import lp_norm, mollifier_band, mollify
from .charts import GridField, _corner_nodes, _corners, connection_field, interpolate, sub_connection
from .curvature import bump_basis, represent_weak, riemann
from .errors import DomainExit, RtgeoError, ShapeError, SolverError, staged
from .rt_solver import regularize
from .transform import connection_law, inscribed_inset, pull_back_curve, transform_force

VELOCITY_BALL = 1.0
DEFAULT_INTERVAL = 1.0
PICARD_MAX_SWEEPS = 400


@dataclass
class GeodesicProblem:
    connection: GridField         # the sampled connection; its chart bounds the curve
    t0: float
    x0: np.ndarray
    v0: np.ndarray
    force: object = None          # optional ForceField
    interval: float = DEFAULT_INTERVAL

    def __post_init__(self):
        if not isinstance(self.connection, GridField):
            raise RtgeoError(f"the connection must be sampled on a chart (a GridField), "
                             f"not {type(self.connection).__name__}")
        self.x0 = np.asarray(self.x0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        for key, value in (("x0", self.x0), ("v0", self.v0)):
            if value.shape != (self.chart.n,):
                raise ShapeError(f"{key} has {value.size} components; the chart has {self.chart.n} axes")
        if not self.chart.contains(self.x0)[0]:
            raise DomainExit(self.x0, f"x0 {self.x0} lies outside the chart {self.chart!r}")
        if not np.all(np.isfinite(self.v0)):
            raise RtgeoError(f"v0 {self.v0} is not finite")

    @property
    def chart(self):
        return self.connection.chart


@dataclass
class Curve:
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    # the rule that ended the interval: "none" (full length), "chart_exit",
    # "velocity_ball", or "domain_exit" (an RK stage point left the chart)
    truncation: str = "none"
    dt: float = 0.0
    picard_sweeps: int = 0
    non_uniqueness_candidate: bool = False

    @property
    def truncated(self):
        return self.truncation != "none"

    @property
    def interval(self):
        return float(self.times[-1] - self.times[0])

    def c1_distance(self, other):
        """sup |dpos| + sup |dvel| over the shared prefix of time nodes; curves
        on different time grids are refused, not paired by index."""
        k = min(len(self.times), len(other.times))
        if np.abs(self.times[:k] - other.times[:k]).max() > 1e-12:
            raise RtgeoError(f"time grids differ (dt {self.dt} and {other.dt}); interpolate one onto the other")
        dp = np.linalg.norm(self.positions[:k] - other.positions[:k], axis=1).max()
        dv = np.linalg.norm(self.velocities[:k] - other.velocities[:k], axis=1).max()
        return float(dp + dv)


def _contraction_rows(G, v):
    """Source of ``-np.einsum("mrn,r,n->m", G, v, v)`` row by row, bit for bit.

    ``G`` names the n^3 components, None for one compiled out, and ``v`` the
    n velocity entries.  Each row is summed in einsum's own order: from 0.0,
    r outer and n inner, each term (G[m][r][n] * v[r]) * v[n].  A sum from
    +0.0 is never -0.0, and adding a +-0.0 term leaves it as it is, so a
    component that is zero while v is finite drops out exactly.
    """
    n = len(v)
    rows = []
    for m in range(n):
        terms = [f"{g} * {v[r]} * {v[q]}" for r in range(n) for q in range(n) if (g := G[(m * n + r) * n + q])]
        rows.append(f"-({' + '.join(['0.0', *terms])})")
    return rows


def _names(stem, count):
    return [f"{stem}{i}" for i in range(count)]


def _tuple(items):
    return f"({', '.join(items)},)"


def _inside(xs):
    """:meth:`Chart.contains`'s bounds test on the position names ``xs``."""
    return " and ".join(f"glo{k} <= {x} <= ghi{k}" for k, x in enumerate(xs))


def _stage_source(n, forced, zero, t, xs, vs, out):
    """Lines of one RK4 stage that set the names ``out`` to gamma'' at time
    ``t``, position names ``xs`` and velocity names ``vs``, a point that
    passed the march's bounds test.

    The stage is :func:`charts.interpolate`'s cell, fractions, weights and
    corner sum, term by term on Python floats, and the contraction.  The
    2^n corner rows of the last cell visited stay in the march's locals.  A
    force adds the components of ``K(t, x, v)``, called first.  Two rules
    keep the stage lean and its bits the array code's:

    - no int meets a float: the cell index stays a float, f = s % 1.0 and
      i = s - f, which for s >= 0 are the exact fraction and floor, clamped
      to a float ``top`` (on the upper face, f = s - top = 1.0); ``int`` is
      called only when a new cell's rows are loaded.  (s is -0.0 only for
      x = -0.0 on glo = +0.0; f is then +0.0, which can flip only the sign
      of a zero corner sum, and the contraction's +0.0 start hides that.)
    - the components listed in ``zero``, 0.0 or -0.0 at every node, have no
      corner sum and no term in the contraction, which is exact while the
      stage values are finite (see :func:`_contraction_rows`).
    """
    ax = range(n)
    lines = [f"{', '.join(_names('q', n))}, = K({t}, {_tuple(xs)}, {_tuple(vs)})"] if forced else []
    gs = [None if j in zero else f"g{j}" for j in range(n ** 3)]
    # corner order and weight products as the batch path states them; a
    # product starts from its first factor, which 1.0 times it is
    offsets = _corner_nodes((0,) * n)
    weights = _corners([(f"e{k}", f"f{k}") for k in ax], lambda p, e: f"{p} * {e}" if p else e, "")
    corners = [[f"r{c}_{j}" if g else "_" for j, g in enumerate(gs)] for c in range(len(offsets))]
    for k, x in zip(ax, xs):
        lines += [
            f"s{k} = ({x} - glo{k}) / gh{k}",
            f"f{k} = s{k} % 1.0",
            f"i{k} = s{k} - f{k}",
            f"if i{k} > top{k}:",
            f"    i{k} = top{k}",
            f"    f{k} = s{k} - i{k}",
        ]
    lines += [
        f"if {' or '.join(f'i{k} != c{k}' for k in ax)}:",
        f"    {', '.join(_names('c', n))}, = {_tuple(_names('i', n))}",
        f"    {', '.join(_names('j', n))}, = {_tuple(f'int(i{k})' for k in ax)}",
    ]
    for row, off in zip(corners, offsets):
        idx = ", ".join(f"j{k} + 1" if o else f"j{k}" for k, o in enumerate(off))
        lines.append(f"    {', '.join(row)}, = rows[{idx}].tolist()")
    lines += [f"e{k} = 1.0 - f{k}" for k in ax]
    lines += [f"w{c} = {w}" for c, w in enumerate(weights)]
    for j, g in enumerate(gs):
        if g:
            lines.append(f"{g} = {' + '.join(f'w{c} * {row[j]}' for c, row in enumerate(corners))}")
    exprs = _contraction_rows(gs, vs)
    return lines + [f"{o} = {e} + q{m}" if forced else f"{o} = {e}" for m, (o, e) in enumerate(zip(out, exprs))]


def _march_source(n, forced, zero):
    """``march(K, t, x, v, steps, half, dt, sixth, grid)``: the fixed-step
    RK4 loop on Python floats, returning the flat node lists and the
    truncation.

    ``grid`` is the field's ``(lo, h, hi, top, rows)``, ``top`` as floats,
    whose stages :func:`_stage_source` writes inline with the components
    ``zero`` compiled out; ``K`` is a force's ``(t, x, v) -> K``.  A step is
    straight-line code: the stages ``x + half*k`` and the update
    ``x + sixth*(((k1 + 2.0*k2) + 2.0*k3) + k4)`` element by element in the
    order numpy gives the array expressions, every literal a float.  A stage
    point off the chart (or a DomainExit from ``K``), a step that ends off
    the chart, or one that ends with sum((v - v0)^2) > VELOCITY_BALL^2 stops
    the loop before that step.  Besides :func:`_stage_source`'s two rules
    (float-only arithmetic, zero components compiled out), a third: the
    first stage's point is the step's start, which passed the same bounds
    test as the last step's end, so x0 is tested once, before the loop, and
    only stages 2 to 4 test their points.  The curve is the array loop's bit
    for bit while every stage value is finite.
    """
    ax = range(n)
    xs, vs, ys, us, bs, ds, ps = (_names(s, n) for s in ("x", "v", "y", "u", "b", "d", "p"))
    k1v, k2x, k2v, k3x, k3v, k4x, k4v = (
        _names(f"{k}_", n) for k in ("k1v", "k2x", "k2v", "k3x", "k3v", "k4x", "k4v")
    )

    def body(lines):
        return [f"            {line}" for line in lines]

    def axpy(y, a, z):
        return [f"{p} + {a} * {q}" for p, q in zip(y, z)]

    def assign(names, exprs, indent="            "):
        return [f"{indent}{a} = {e}" for a, e in zip(names, exprs)]

    def advance(y, k1, k2, k3, k4):
        return [f"{p} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})" for p, a, b, c, d in zip(y, k1, k2, k3, k4)]

    def stage(t, pos, vel, out):
        return body([
            f"if not ({_inside(pos)}):",
            '    return ts, xs, vs, "domain_exit"',
            *_stage_source(n, forced, zero, t, pos, vel, out),
        ])

    return "\n".join([
        "def march(K, t, x, v, steps, half, dt, sixth, grid):",
        f"    {', '.join(xs)}, = x",
        f"    {', '.join(vs)}, = v",
        f"    {', '.join(bs)}, = v",
        f"    {', '.join(_tuple(_names(a, n)) for a in ('glo', 'gh', 'ghi', 'top'))}, rows = grid",
        f"    {', '.join(_names('c', n))}, = {_tuple(['-1.0'] * n)}",
        "    ts, xs, vs = [t], list(x), list(v)",
        f"    if steps and not ({_inside(xs)}):",
        '        return ts, xs, vs, "domain_exit"',
        "    for _ in range(steps):",
        "        try:",
        *body(_stage_source(n, forced, zero, "t", xs, vs, k1v)),
        *assign(k2x, axpy(vs, "half", k1v)),
        *assign(ps, axpy(xs, "half", vs)),
        *stage("t + half", ps, k2x, k2v),
        *assign(k3x, axpy(vs, "half", k2v)),
        *assign(ps, axpy(xs, "half", k2x)),
        *stage("t + half", ps, k3x, k3v),
        *assign(k4x, axpy(vs, "dt", k3v)),
        *assign(ps, axpy(xs, "dt", k3x)),
        *stage("t + dt", ps, k4x, k4v),
        "        except DomainExit:",
        '            return ts, xs, vs, "domain_exit"',
        *assign(ys, advance(xs, vs, k2x, k3x, k4x), "        "),
        *assign(us, advance(vs, k1v, k2v, k3v, k4v), "        "),
        f"        if not ({_inside(ys)}):",
        '            return ts, xs, vs, "chart_exit"',
        *assign(ds, [f"u{k} - b{k}" for k in ax], "        "),
        f"        if {' + '.join(f'd{k} * d{k}' for k in ax)} > {VELOCITY_BALL ** 2!r}:",
        '            return ts, xs, vs, "velocity_ball"',
        "        t = t + dt",
        f"        {', '.join(xs + vs)} = {', '.join(ys + us)}",
        "        ts.append(t)",
        f"        xs += {_tuple(xs)}",
        f"        vs += {_tuple(vs)}",
        '    return ts, xs, vs, "none"',
    ]) + "\n"


@lru_cache(maxsize=None)
def _rk4_march(n, forced, zero):
    """The :func:`_march_source` march for dimension ``n``, with or without a
    force, with the components ``zero`` compiled out, compiled once."""
    ns = {"DomainExit": DomainExit}
    exec(compile(_march_source(n, forced, zero), f"<rk4 march n={n}>", "exec"), ns)
    return ns["march"]


def default_dt(problem):
    return min(1.0 / 256, float(problem.chart.h.min()))


def solve_geodesic(problem, method, dt=None, tol_ode=1e-12):
    if method == "rk4":
        return _solve_rk4(problem, dt)
    if method == "picard":
        return _solve_picard(problem, dt, tol_ode)
    raise RtgeoError(f"unknown method '{method}'")


def _solve_rk4(problem, dt):
    """Classical fixed-step RK4 on u = (gamma, v): the generated
    :func:`_march_source` loop on Python floats, element by element in the
    order numpy gives the array expressions, so the curve is bit for bit the
    array loop's.  The field's stages run inline, without the components that
    are zero at every node; a force is called on arrays and its output
    flattened."""
    dt = dt or default_dt(problem)
    conn, force, chart = problem.connection, problem.force, problem.chart
    n = len(problem.x0)
    K = None
    if force is not None:
        def K(t, x, v):
            return np.ravel(force(t, np.array(x), np.array(v))).tolist()
    top, rows = [float(r - 2) for r in chart.res], conn.values.reshape(chart.res + (-1,))
    grid = (chart.lo.tolist(), chart.h.tolist(), chart.hi.tolist(), top, rows)
    x0, v0, steps = tuple(problem.x0.tolist()), tuple(problem.v0.tolist()), int(round(problem.interval / dt))
    march = _rk4_march(n, force is not None, _zero_columns(conn))
    ts, xs, vs, truncation = march(K, problem.t0, x0, v0, steps, 0.5 * dt, dt, dt / 6, grid)
    if len(ts) == 1 and truncation != "none":
        raise DomainExit(problem.x0)
    return Curve(
        times=np.array(ts),
        positions=np.array(xs).reshape(-1, n),
        velocities=np.array(vs).reshape(-1, n),
        truncation=truncation,
        dt=dt,
    )


def _zero_columns(conn):
    """The components of a sampled connection that are 0.0 (of either sign)
    at every node, as a tuple of flat indices.  Made once per field object
    and kept on it, as :func:`_grad_max` is."""
    zero = vars(conn).get("_zero_columns")
    if zero is None:
        nonzero = conn.values.reshape(conn.chart.npoints, -1).any(axis=0)
        zero = conn._zero_columns = tuple(np.flatnonzero(~nonzero).tolist())
    return zero


def _grad_max(conn):
    """max |grad Gamma| over the nodes of a sampled connection (FD gradient),
    one axis derivative at a time.  A field's values are not changed after
    it is built, so the estimate is made once per field object and kept on it."""
    lip = vars(conn).get("_grad_max")
    if lip is None:
        chart = conn.chart
        lip = conn._grad_max = max(float(np.abs(chart.deriv(conn.values, ax)).max()) for ax in range(chart.n))
    return lip


def _gamma_vv_nodes(G, vel):
    """``-Gamma v v`` at each node: the (T, n, n, n) components ``G`` against
    the products v_r v_n, one two-operand contraction over the n^2 pairs."""
    T, n = vel.shape
    return -np.einsum("tmk,tk->tm", G.reshape(T, n, n * n), (vel[:, :, None] * vel[:, None, :]).reshape(T, n * n))


def _solve_picard(problem, dt, tol_ode):
    dt = dt or default_dt(problem)
    conn, force = problem.connection, problem.force
    x0, v0 = problem.x0, problem.v0
    K = int(round(problem.interval / dt))
    ts = problem.t0 + dt * np.arange(K + 1)
    pos = x0 + np.outer(ts - problem.t0, v0)
    vel = np.tile(v0, (K + 1, 1))
    truncation = "none"
    # clip the initial straight guess to the chart; its velocities are v0, inside the ball
    K = _last_inside(problem, pos, K, vel, v0)
    if K < len(ts) - 1:
        truncation = "chart_exit"
        ts, pos, vel = ts[: K + 1], pos[: K + 1], vel[: K + 1]
    h = 0.5 * dt  # 0.5 * dt * x evaluates as (0.5 * dt) * x
    inc_prev = np.inf
    grow = 0
    sweeps = 0
    for sweeps in range(1, PICARD_MAX_SWEEPS + 1):
        acc = _gamma_vv_nodes(interpolate(conn, pos), vel)
        if force is not None:
            acc = acc + np.stack([force(ts[i], pos[i], vel[i]) for i in range(len(ts))])
        # trapezoidal cumulative integrals, v0 and x0 at the first node
        new_vel, new_pos = np.empty_like(vel), np.empty_like(pos)
        new_vel[0], new_pos[0] = v0, x0
        for new, rate, start in ((new_vel, acc, v0), (new_pos, new_vel, x0)):
            step, tail = rate[1:] + rate[:-1], new[1:]
            step *= h
            np.cumsum(step, axis=0, out=tail)
            tail += start
        inc = max(np.abs(new_pos - pos).max(), np.abs(new_vel - vel).max())
        pos, vel = new_pos, new_vel
        k_in = _last_inside(problem, pos, len(ts) - 1, vel, v0)
        if k_in < len(ts) - 1:
            # the first node cut is the one the rule stopped at
            off_chart = problem.chart.first_outside(pos[k_in + 1]) is not None
            truncation = "chart_exit" if off_chart else "velocity_ball"
            ts, pos, vel = ts[: k_in + 1], pos[: k_in + 1], vel[: k_in + 1]
        if inc < tol_ode:
            break
        if inc > inc_prev:
            grow += 1
            if grow >= 3:
                raise SolverError(
                    f"picard increments growing for 3 sweeps (last {inc:.2e})",
                    [inc_prev, inc],
                )
        else:
            grow = 0
        inc_prev = inc
    flag = _grad_max(conn) * problem.interval > 50.0
    return Curve(
        times=ts,
        positions=pos,
        velocities=vel,
        truncation=truncation,
        dt=dt,
        picard_sweeps=sweeps,
        non_uniqueness_candidate=bool(flag),
    )


def _last_inside(problem, pos, kmax, vel, v0):
    """Last node index up to ``kmax`` before the first node off the chart, else
    before the first with sum((v - v0)^2) > VELOCITY_BALL^2; 0 at the earliest.

    The sum runs over the axes in order, as the RK4 march's does.  A NaN
    position is off the chart; a NaN velocity is not outside the ball (NaN > 1
    is false).  When every node is on the chart, one bounds test settles the
    chart rule.
    """
    first = problem.chart.first_outside(pos[: kmax + 1])
    if first is not None:
        return max(first - 1, 0)
    out = sum(d * d for d in (vel[: kmax + 1] - v0).T) > VELOCITY_BALL ** 2
    if out.any():
        return max(int(out.argmax()) - 1, 0)
    return kmax


# ---------------------------------------------------------------------------
# weak solution pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    curve: Curve
    bundle: object
    conn_y: object
    provenance: dict


def weak_solution_pipeline(conn, problem, rt_config, mode="existence"):
    """Regularize by coordinate change, solve classically there, pull back.

    existence: one elliptic pass; the transformed connection is Hölder
    continuous and the classical solve runs in the new coordinates.
    uniqueness: a second pass on the transformed connection reaches the
    Lipschitz class; a fixed-point cross-check runs alongside.
    The initial data and any force are pushed through every pass, and the
    y-curve is pulled back through them in reverse.  The y-curve steps with
    the x-problem's ``default_dt``, so it shares the time grid of x-side
    solves on the same chart.  ``bundle`` and ``conn_y`` are the first
    pass's.
    """
    if mode not in ("existence", "uniqueness"):
        raise RtgeoError(f"unknown mode '{mode}'")
    passes = [regularize(conn, rt_config)]
    if mode == "uniqueness":
        passes.append(regularize(passes[0][2], replace(rt_config, retry_subchart=False), "_second"))
    prov = {key: state.summary() for (state, _, _), key in zip(passes, ("rt", "rt_second"))}

    def initial_data():
        """The y-side problem: (x0, v0, force) pushed through each pass by y(x), J(x)
        and :func:`transform_force`."""
        y0, w0, force = problem.x0, problem.v0, problem.force
        for _, bundle, _ in passes:
            x0, y0 = y0, interpolate(bundle.forward, y0)
            if not bundle.y_chart.contains(y0)[0]:
                inset = [inscribed_inset(r) for r in bundle.x_chart.res]
                raise DomainExit(y0, f"y(x0) = {y0} left the inscribed y-chart {bundle.y_chart!r}, the image "
                                     f"of the x-chart {bundle.x_chart!r} inset {inset} cells per side")
            w0 = interpolate(bundle.jac, x0) @ w0
            if force is not None:
                force = transform_force(force, bundle)
        return replace(problem, connection=passes[-1][2], x0=y0, v0=w0, force=force)

    def pull_back(curve):
        for _, bundle, _ in reversed(passes):
            curve = pull_back_curve(curve, bundle)
        return curve

    prob_y = staged("initial_data", initial_data)
    dt = default_dt(problem)
    curve_y = staged("geodesic_y", lambda: solve_geodesic(prob_y, "rk4", dt=dt))
    if mode == "uniqueness":
        try:
            cross = solve_geodesic(prob_y, "picard", dt=dt)
            prov["picard_rk4_gap"] = curve_y.c1_distance(cross)
        except SolverError as e:
            prov["picard_rk4_gap"] = f"picard failed: {e}"
    curve_x = staged("pushforward_back", lambda: pull_back(curve_y))
    return PipelineResult(curve=curve_x, bundle=passes[0][1], conn_y=passes[0][2], provenance=prov)


# ---------------------------------------------------------------------------
# mollified family (the explicit mollification whose solutions converge)
# ---------------------------------------------------------------------------


@dataclass
class MollifiedFamily:
    eps: list
    conn_eps: list          # ConnectionField on the x-chart per epsilon
    masks: list             # bool mask of x-nodes with y_eps(x) inside the y-chart


def mollified_family(conn_y, bundle, eps_list):
    """Assemble the mollified connections in original coordinates.

    Per epsilon: mollify the y-connection and both map sample sets, rebuild
    Jacobians by differencing the mollified maps, and evaluate the
    connection law pointwise at the x-nodes whose mollified image stays on
    the y-chart.
    """
    chart_x = bundle.x_chart
    chart_y = bundle.y_chart
    n = chart_x.n
    out_eps, out_conn, out_masks = [], [], []
    # each full-grid intermediate goes after its last reader: at 513^2 the
    # family is a run's largest stage
    for eps in eps_list:
        u_e = mollify(bundle.forward, eps).values
        J_e = chart_x.grad(u_e)
        ypts = u_e.reshape(-1, n)
        mask = chart_y.contains(ypts).reshape(chart_x.res)
        dxdy_e = GridField(chart_y, chart_y.grad(mollify(bundle.inverse, eps).values))
        dxdy_at = interpolate(dxdy_e, ypts, clip=True).reshape(chart_x.res + (n, n))
        del dxdy_e
        gy_at = interpolate(mollify(conn_y, eps), ypts, clip=True).reshape(chart_x.res + (n, n, n))
        del u_e, ypts
        # connection law with mollified ingredients, dx/dy in Jinv's place
        vals = connection_law(dxdy_at, J_e, chart_x.grad(J_e), gy_at)
        del dxdy_at, J_e, gy_at
        out_eps.append(eps)
        out_conn.append(connection_field(chart_x, vals))
        out_masks.append(mask)
    return MollifiedFamily(
        eps=out_eps,
        conn_eps=out_conn,
        masks=out_masks,
    )


def solve_mollified(family, problem):
    """rk4 solve per family member; the realized intervals must share t0."""
    curves = []
    for eps, conn_e in zip(family.eps, family.conn_eps):
        curves.append(solve_geodesic(replace(problem, connection=conn_e), "rk4"))
    common = min(c.interval for c in curves)
    if common <= 0:
        worst = family.eps[int(np.argmin([c.interval for c in curves]))]
        raise SolverError(f"empty common interval (offending eps={worst})")
    return curves


def _monotone_decreasing(seq):
    """Non-increasing up to 2% slack and an absolute 1e-12."""
    return all(b <= a * 1.02 + 1e-12 for a, b in zip(seq, seq[1:]))


def _fit_rate(eps, vals):
    vals = np.maximum(np.asarray(vals, dtype=float), 1e-300)
    A = np.stack([np.log(eps), np.ones(len(eps))], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
    return float(coef[0])


def _masked_subchart(mask):
    """Node slices of ``mask``'s bounding box, which must hold the chart
    center, be all true, and span at least 8 nodes per axis."""
    if not mask[tuple(r // 2 for r in mask.shape)]:
        raise RtgeoError("mollified family does not cover the chart center")
    sl = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(mask))
    if not mask[sl].all():
        raise RtgeoError("mollified family mask is not rectangular around the center")
    if min(s.stop - s.start for s in sl) < 8:
        raise RtgeoError("mollified family covers too little of the chart")
    return sl


def convergence_report(family, curves, reference, conn_x, p):
    """Distances of the mollified family to the rough data and the weak curve.

    Metrics restrict to the common sub-chart where every family member is
    defined.  The curvature metric compares weak-represented curvatures over
    a shared bump basis (derivative free on both sides; the difference of
    fits is linear in the weak-functional mismatch, hence controlled by the
    connection's L^{2p} distance).
    """
    chart = conn_x.chart
    if family.conn_eps[0].chart != chart:
        raise RtgeoError(f"the mollified family lives on {family.conn_eps[0].chart!r}, the rough "
                         f"connection on {chart!r}; their masks cannot be combined")
    # keep only the nodes clear of the rim band where truncated mollifier
    # kernels (widest at the largest eps) bias the rebuilt maps, before fixing
    # the region
    mask_all = np.zeros(chart.res, dtype=bool)
    mask_all[chart.inset(mollifier_band(chart, max(family.eps)))] = True
    for m in family.masks:
        mask_all &= m
    sl = _masked_subchart(mask_all)
    conn_ref = sub_connection(conn_x, sl)
    sub = conn_ref.chart
    weak_reference = represent_weak(conn_ref, bump_basis(sub))
    conn_d, riem_d, curve_d = [], [], []
    for eps, conn_e, curve in zip(family.eps, family.conn_eps, curves):
        sub_e = sub_connection(conn_e, sl)
        conn_d.append(lp_norm(GridField(sub, sub_e.values - conn_ref.values), 2 * p))
        R_e = riemann(sub_e)
        riem_d.append(lp_norm(GridField(sub, R_e.values - weak_reference.values), p))
        curve_d.append(curve.c1_distance(reference))
    dists = {"conn": conn_d, "riem": riem_d, "curve": curve_d}
    return {
        "eps": list(family.eps),
        "conn_l2p": conn_d,
        "riem_lp": riem_d,
        "curve_c1": curve_d,
        "rates": {k: _fit_rate(family.eps, d) for k, d in dists.items()},
        "monotone": {k: _monotone_decreasing(d) for k, d in dists.items()},
        "final_c1": curve_d[-1],
        "common_interval": float(min(c.interval for c in curves)),
    }
