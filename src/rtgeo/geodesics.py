"""Geodesic IVP solvers, the weak-solution-by-coordinates pipeline, and the
mollified-family machinery whose smooth solutions converge to it.

A curve solves  gamma'' + Gamma(gamma) gamma' gamma' = K(t, gamma, gamma')
as the first-order system u = (gamma, v).  Connections are either sampled
fields (multilinear interpolation along the curve) or closed-form
evaluators; intervals truncate at chart exit and at the velocity ball
|v - v0| <= 1, the normalization under which the uniform bound holds.
"""

from dataclasses import asdict, dataclass, replace
from functools import partial
import math

import numpy as np

from . import _kernels
from .calculus import contract, gradient_field, lp_norm, mollify
from .charts import Chart, GridField, connection_field, interpolate, point_inside, point_interpolator
from .curvature import TestFunction, bump_basis, represent_weak, riemann
from .errors import DomainExit, RtgeoError, SolverError, staged
from .rt_solver import RTConfig, regularize
from .transform import pushforward_curve

VELOCITY_BALL = 1.0
_BALL_INSIDE = VELOCITY_BALL ** 2 * (1 - 1e-9)   # squared |v - v0| surely inside the ball
DEFAULT_INTERVAL = 1.0
PICARD_MAX_SWEEPS = 400


@dataclass
class GeodesicProblem:
    connection: object            # ConnectionField (GridField) or callable x -> (n,n,n)
    t0: float
    x0: np.ndarray
    v0: np.ndarray
    force: object = None          # optional ForceField
    interval: float = DEFAULT_INTERVAL
    chart: object = None          # required for domain truncation with callables

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        chart = self.chart or getattr(self.connection, "chart", None)
        self.chart = chart
        if chart is not None and not chart.contains(self.x0, margin=0.0)[0]:
            raise DomainExit(self.x0)
        if not np.all(np.isfinite(self.v0)):
            raise RtgeoError("non-finite initial velocity")


@dataclass
class Curve:
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    truncated: bool = False
    method: str = "rk4"
    dt: float = 0.0
    picard_sweeps: int = 0
    non_uniqueness_candidate: bool = False

    @property
    def interval(self):
        return float(self.times[-1] - self.times[0])

    def c1_distance(self, other):
        """sup |dpos| + sup |dvel| over the shared prefix of time nodes."""
        k = min(len(self.times), len(other.times))
        dp = np.linalg.norm(self.positions[:k] - other.positions[:k], axis=1).max()
        dv = np.linalg.norm(self.velocities[:k] - other.velocities[:k], axis=1).max()
        return float(dp + dv)


def _contract(G, v):
    """``-np.einsum("mrn,r,n->m", G, v, v)`` on Python floats, bit for bit.

    ``G`` is the flat list of the n^3 components and ``v`` a list of n.  Each
    row is summed in einsum's own order: from 0.0, r outer and n inner, each
    term (G[m][r][n] * v[r]) * v[n].
    """
    out = []
    i = 0
    for _ in v:
        s = 0.0
        for a in v:
            for b in v:
                s = s + G[i] * a * b
                i += 1
        out.append(-s)
    return out


def _rhs(problem):
    """(t, x, v) -> gamma'' on lists of floats.

    Gamma comes from the sampled field's point interpolator; a closed-form
    connection and a force are called on arrays and their outputs flattened.
    """
    conn, force = problem.connection, problem.force
    if callable(conn) and not isinstance(conn, GridField):
        def gamma_at(x):
            return np.ravel(conn(np.array(x))).tolist()
    else:
        gamma_at = point_interpolator(conn)
    if force is None:
        return lambda t, x, v: _contract(gamma_at(x), v)

    def F(t, x, v):
        K = np.ravel(force(t, np.array(x), np.array(v))).tolist()
        return [a + k for a, k in zip(_contract(gamma_at(x), v), K)]

    return F


def default_dt(problem):
    chart = problem.chart
    base = 1.0 / 256
    if chart is not None:
        base = min(base, float(chart.h.min()))
    return base


def solve_geodesic(problem, method="rk4", dt=None, tol_ode=1e-12):
    if method == "rk4":
        return _solve_rk4(problem, dt)
    if method == "picard":
        return _solve_picard(problem, dt, tol_ode)
    raise RtgeoError(f"unknown method '{method}'")


def solve_forced(problem, method="rk4", dt=None):
    if problem.force is None:
        raise RtgeoError("solve_forced needs a force field on the problem")
    return solve_geodesic(problem, method=method, dt=dt)


def _outside_ball(v, v0):
    """``np.linalg.norm(v - v0) > VELOCITY_BALL`` for lists of floats.

    A Python sum of squares settles the points clearly inside; the rest, and
    NaN, go to the norm itself, whose BLAS rounding draws the boundary.
    """
    d2 = sum((a - b) * (a - b) for a, b in zip(v, v0))
    if d2 <= _BALL_INSIDE:
        return False
    return bool(np.linalg.norm(np.array(v) - np.array(v0)) > VELOCITY_BALL)


def _solve_rk4(problem, dt):
    """Classical fixed-step RK4 on u = (gamma, v).

    The step runs on lists of Python floats, element by element in the
    order numpy gives the array expressions: stages ``x + (0.5*dt)*k`` and
    the update ``x + (dt/6) * (((k1 + 2k2) + 2k3) + k4)``, so the curve is
    bit for bit the array loop's.  A DomainExit in a stage, or a step that
    ends off the chart or outside the velocity ball, truncates the interval
    before that step.
    """
    dt = dt or default_dt(problem)
    F = _rhs(problem)
    inside = (lambda x: True) if problem.chart is None else point_inside(problem.chart)
    steps = int(round(problem.interval / dt))
    half, sixth = 0.5 * dt, dt / 6

    def axpy(x, a, y):
        return [p + a * q for p, q in zip(x, y)]

    def advance(x, k1, k2, k3, k4):
        return [p + sixth * (((a + 2 * b) + 2 * c) + d) for p, a, b, c, d in zip(x, k1, k2, k3, k4)]

    t = problem.t0
    x = problem.x0.tolist()
    v = v0 = problem.v0.tolist()
    ts, xs, vs = [t], [x], [v]
    truncated = False
    for _ in range(steps):
        try:
            k1v = F(t, x, v)
            k2x = axpy(v, half, k1v)
            k2v = F(t + half, axpy(x, half, v), k2x)
            k3x = axpy(v, half, k2v)
            k3v = F(t + half, axpy(x, half, k2x), k3x)
            k4x = axpy(v, dt, k3v)
            k4v = F(t + dt, axpy(x, dt, k3x), k4x)
        except DomainExit:
            truncated = True
            break
        xn = advance(x, v, k2x, k3x, k4x)
        vn = advance(v, k1v, k2v, k3v, k4v)
        if not inside(xn) or _outside_ball(vn, v0):
            truncated = True
            break
        t, x, v = t + dt, xn, vn
        ts.append(t)
        xs.append(x)
        vs.append(v)
    if len(ts) == 1 and truncated:
        raise DomainExit(problem.x0)
    return Curve(
        times=np.asarray(ts),
        positions=np.asarray(xs),
        velocities=np.asarray(vs),
        truncated=truncated,
        method="rk4",
        dt=dt,
    )


def _grad_max(conn):
    """max |grad Gamma| over the nodes of a sampled connection (FD gradient)."""
    return float(np.abs(gradient_field(conn).values).max())


def _solve_picard(problem, dt, tol_ode):
    dt = dt or default_dt(problem)
    conn = problem.connection
    closed_form = callable(conn) and not isinstance(conn, GridField)
    gamma_at = conn if closed_form else partial(interpolate, conn)
    force = problem.force
    K = int(round(problem.interval / dt))
    ts = problem.t0 + dt * np.arange(K + 1)
    pos = problem.x0 + np.outer(ts - problem.t0, problem.v0)
    vel = np.tile(problem.v0, (K + 1, 1))
    truncated = False
    # clip the initial straight guess to the chart
    K = _last_inside(problem, pos, K)
    if K < len(ts) - 1:
        truncated = True
        ts, pos, vel = ts[: K + 1], pos[: K + 1], vel[: K + 1]
    inc_prev = np.inf
    grow = 0
    sweeps = 0
    for sweeps in range(1, PICARD_MAX_SWEEPS + 1):
        G = gamma_at(pos)
        acc = -np.einsum("tmrn,tr,tn->tm", G, vel, vel)
        if force is not None:
            acc = acc + np.stack([force(ts[i], pos[i], vel[i]) for i in range(len(ts))])
        new_vel = vel.copy()
        new_pos = pos.copy()
        new_vel[0] = problem.v0
        new_pos[0] = problem.x0
        # trapezoidal cumulative integrals
        new_vel[1:] = problem.v0 + np.cumsum(0.5 * dt * (acc[1:] + acc[:-1]), axis=0)
        new_pos[1:] = problem.x0 + np.cumsum(0.5 * dt * (new_vel[1:] + new_vel[:-1]), axis=0)
        inc = max(np.abs(new_pos - pos).max(), np.abs(new_vel - vel).max())
        pos, vel = new_pos, new_vel
        k_in = _last_inside(problem, pos, len(ts) - 1, vel=vel, v0=problem.v0)
        if k_in < len(ts) - 1:
            truncated = True
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
    lip = 0.0 if closed_form else _grad_max(conn)
    flag = lip * problem.interval > 50.0
    return Curve(
        times=ts,
        positions=pos,
        velocities=vel,
        truncated=truncated,
        method="picard",
        dt=dt,
        picard_sweeps=sweeps,
        non_uniqueness_candidate=bool(flag),
    )


def _last_inside(problem, pos, kmax, vel=None, v0=None):
    """Last node index up to ``kmax`` before the first node off the chart, else
    before the first with |v - v0| > VELOCITY_BALL; 0 at the earliest."""
    if problem.chart is not None:
        out = np.flatnonzero(~problem.chart.contains(pos[: kmax + 1]))
        if out.size:
            return max(int(out[0]) - 1, 0)
    if vel is not None:
        out = np.flatnonzero(np.linalg.norm(vel[: kmax + 1] - v0, axis=1) > VELOCITY_BALL)
        if out.size:
            return max(int(out[0]) - 1, 0)
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
    second_pass: object = None


def weak_solution_pipeline(conn, problem, mode="existence", rt_config=None, dt=None):
    """Regularize by coordinate change, solve classically there, pull back.

    existence: one elliptic pass; the transformed connection is Hölder
    continuous and the classical solve runs in the new coordinates.
    uniqueness: a second pass on the transformed connection reaches the
    Lipschitz class; a fixed-point cross-check runs alongside.
    """
    if mode not in ("existence", "uniqueness"):
        raise RtgeoError(f"unknown mode '{mode}'")
    prov = {"mode": mode}
    cfg = rt_config or RTConfig()
    state, bundle, conn_y = regularize(conn, cfg)
    prov["rt"] = state.summary()
    prov["y_chart"] = repr(conn_y.chart)
    second = None
    if mode == "uniqueness":
        state2, bundle2, conn_yy = regularize(conn_y, replace(cfg, retry_subchart=False), "_second")
        second = {"state": state2, "bundle": bundle2, "conn": conn_yy}
        prov["rt_second"] = state2.summary()

    def initial_data():
        """The y-side problem: (x0, v0) pushed through each pass by y(x) and J(x)."""
        y0 = bundle.map.forward_at(problem.x0)
        w0 = bundle.jac.at(problem.x0) @ problem.v0
        target = conn_y
        if second is not None:  # the second pass acts at the first pass's y0
            b2, target = second["bundle"], second["conn"]
            w0 = b2.jac.at(y0, clip=True) @ w0
            y0 = b2.map.forward_at(y0, clip=True)
        return GeodesicProblem(
            connection=target, t0=problem.t0, x0=y0, v0=w0, interval=problem.interval
        )

    prob_y = staged("initial_data", initial_data)
    curve_y = staged("geodesic_y", lambda: solve_geodesic(prob_y, "rk4", dt=dt))
    prov["y_interval"] = curve_y.interval
    if mode == "uniqueness":
        try:
            cross = solve_geodesic(prob_y, "picard", dt=dt)
            prov["picard_rk4_gap"] = curve_y.c1_distance(cross)
        except SolverError as e:
            prov["picard_rk4_gap"] = f"picard failed: {e}"

    if second is not None:
        curve_mid = pushforward_curve(curve_y, second["bundle"], direction="backward")
    else:
        curve_mid = curve_y
    curve_x = staged(
        "pushforward_back", lambda: pushforward_curve(curve_mid, bundle, direction="backward")
    )
    prov["x_interval"] = curve_x.interval
    return PipelineResult(curve=curve_x, bundle=bundle, conn_y=conn_y, provenance=prov, second_pass=second)


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
    for eps in eps_list:
        gy_e = mollify(conn_y, eps)
        u_e = mollify(GridField(chart_x, bundle.map.forward), eps).values
        J_e = chart_x.grad(u_e)
        x_of_y_e = mollify(GridField(chart_y, bundle.map.inverse), eps).values
        dxdy_e = chart_y.grad(x_of_y_e)
        ypts = u_e.reshape(-1, n)
        mask = chart_y.contains(ypts).reshape(chart_x.res)
        dxdy_at = interpolate(GridField(chart_y, dxdy_e), ypts, clip=True).reshape(
            chart_x.res + (n, n)
        )
        gy_at = interpolate(gy_e, ypts, clip=True).reshape(chart_x.res + (n, n, n))
        dJ_e = chart_x.grad(J_e)
        # connection law with mollified ingredients; storage [mu, rho(form), nu(col)]
        vals = contract("...ma,...br,...gn,...abg->...mrn", dxdy_at, J_e, J_e, gy_at)
        vals += contract("...ma,...anr->...mrn", dxdy_at, dJ_e)
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
        p = GeodesicProblem(
            connection=conn_e,
            t0=problem.t0,
            x0=problem.x0,
            v0=problem.v0,
            force=problem.force,
            interval=problem.interval,
        )
        curves.append(solve_geodesic(p, "rk4"))
    common = min(c.interval for c in curves)
    if common <= 0:
        worst = family.eps[int(np.argmin([c.interval for c in curves]))]
        raise SolverError(f"empty common interval (offending eps={worst})")
    return curves


@dataclass
class ConvergenceReport:
    eps: list
    conn_l2p: list
    riem_lp: list
    curve_c1: list
    rates: dict
    monotone: dict
    final_c1: float
    common_interval: float

    def to_dict(self):
        return asdict(self)


def _monotone_decreasing(seq):
    """Non-increasing up to 2% slack and an absolute 1e-12."""
    return all(b <= a * 1.02 + 1e-12 for a, b in zip(seq, seq[1:]))


def _fit_rate(eps, vals):
    vals = np.maximum(np.asarray(vals, dtype=float), 1e-300)
    A = np.stack([np.log(eps), np.ones(len(eps))], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
    return float(coef[0])


def _masked_subchart(chart, mask):
    """Grid-aligned all-true rectangle around the chart center."""
    sl = [slice(0, chart.res[k]) for k in range(chart.n)]
    center = tuple(r // 2 for r in chart.res)
    if not mask[center]:
        raise RtgeoError("mollified family does not cover the chart center")
    for _ in range(3):
        for ax in range(chart.n):
            view = mask[tuple(sl[:ax] + [slice(None)] + sl[ax + 1 :])]
            other = tuple(k for k in range(chart.n) if k != ax)
            line = view.all(axis=other)
            i = center[ax]
            lo = i
            while lo > 0 and line[lo - 1]:
                lo -= 1
            hi = i
            while hi < chart.res[ax] - 1 and line[hi + 1]:
                hi += 1
            sl[ax] = slice(lo, hi + 1)
    sl = tuple(sl)
    if not mask[sl].all():
        raise RtgeoError("mollified family mask is not rectangular around the center")
    res = tuple(s.stop - s.start for s in sl)
    if min(res) < 8:
        raise RtgeoError("mollified family covers too little of the chart")
    lo = [chart.axes[k][sl[k].start] for k in range(chart.n)]
    hi = [chart.axes[k][sl[k].stop - 1] for k in range(chart.n)]
    return Chart(lo, hi, res), sl


def convergence_report(family, curves, reference, conn_x, p=2.2):
    """Distances of the mollified family to the rough data and the weak curve.

    Metrics restrict to the common sub-chart where every family member is
    defined.  The curvature metric compares weak-represented curvatures over
    a shared bump basis (derivative free on both sides; the difference of
    fits is linear in the weak-functional mismatch, hence controlled by the
    connection's L^{2p} distance).
    """
    chart = conn_x.chart
    mask_all = np.ones(chart.res, dtype=bool)
    for m in family.masks:
        mask_all &= m
    # exclude the band where truncated mollifier kernels bias the rebuilt
    # maps (within eps_max of the x-chart rim) before fixing the region
    eps_max = max(family.eps)
    for ax in range(chart.n):
        cells = int(np.ceil(eps_max / chart.h[ax])) + 2
        idx = [slice(None)] * chart.n
        idx[ax] = slice(0, cells)
        mask_all[tuple(idx)] = False
        idx[ax] = slice(chart.res[ax] - cells, chart.res[ax])
        mask_all[tuple(idx)] = False
    sub, sl = _masked_subchart(chart, mask_all)
    conn_ref = connection_field(sub, np.ascontiguousarray(conn_x.values[sl]))
    basis = [
        TestFunction(b.center, b.radius, profile="poly")
        for b in bump_basis(sub)
    ]
    weak_reference, _ = represent_weak(conn_ref, basis)
    conn_d, riem_d, curve_d = [], [], []
    for eps, conn_e, curve in zip(family.eps, family.conn_eps, curves):
        sub_e = connection_field(sub, np.ascontiguousarray(conn_e.values[sl]))
        conn_d.append(lp_norm(GridField(sub, sub_e.values - conn_ref.values), 2 * p))
        R_e = riemann(sub_e)
        riem_d.append(lp_norm(GridField(sub, R_e.values - weak_reference.values), p))
        curve_d.append(curve.c1_distance(reference))
    common = min(c.interval for c in curves)
    report = ConvergenceReport(
        eps=list(family.eps),
        conn_l2p=[float(v) for v in conn_d],
        riem_lp=[float(v) for v in riem_d],
        curve_c1=[float(v) for v in curve_d],
        rates={
            "conn": _fit_rate(family.eps, conn_d),
            "riem": _fit_rate(family.eps, riem_d),
            "curve": _fit_rate(family.eps, curve_d),
        },
        monotone={
            "conn": _monotone_decreasing(conn_d),
            "riem": _monotone_decreasing(riem_d),
            "curve": _monotone_decreasing(curve_d),
        },
        final_c1=float(curve_d[-1]),
        common_interval=float(common),
    )
    return report


# ---------------------------------------------------------------------------
# appendix-style runtime checks
# ---------------------------------------------------------------------------


def unit_ball_volume(n):
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def _time_holder_norm(times, values, alpha, dt):
    mag = np.linalg.norm(values, axis=1)
    c0 = float(mag.max())
    coords = times[:, None]
    quot = _kernels.holder_pair_max(coords, values, alpha, 4 * dt)
    return c0 + quot


def uniform_bound_check(curve, gamma_c0, alpha, n):
    """Both sides of the a-priori bound for curves with |I| <= 1, |v - v0| <= 1."""
    bn = unit_ball_volume(n)
    lhs = _time_holder_norm(curve.times, curve.positions, alpha, curve.dt) + _time_holder_norm(
        curve.times, curve.velocities, alpha, curve.dt
    )
    rhs = (
        bn * gamma_c0
        + bn ** 2
        + float(np.linalg.norm(curve.positions[0]))
        + float(np.linalg.norm(curve.velocities[0]))
    )
    return {"lhs": float(lhs), "rhs": float(rhs), "holds": bool(lhs <= rhs)}


def gronwall_uniqueness_check(problem, delta0):
    """Exponential-envelope separation test for a perturbation of size
    ``delta0`` of the first initial-velocity component.

    The Lipschitz constant of the first-order field is estimated from the
    connection's FD gradient and C0 norm over the velocity ball.
    """
    base = solve_geodesic(problem, "rk4")
    pert_dir = np.zeros_like(problem.v0)
    pert_dir[0] = 1.0
    p2 = GeodesicProblem(
        connection=problem.connection,
        t0=problem.t0,
        x0=problem.x0,
        v0=problem.v0 + delta0 * pert_dir,
        force=problem.force,
        interval=problem.interval,
        chart=problem.chart,
    )
    pert = solve_geodesic(p2, "rk4")
    k = min(len(base.times), len(pert.times))
    sep = np.sqrt(
        np.linalg.norm(base.positions[:k] - pert.positions[:k], axis=1) ** 2
        + np.linalg.norm(base.velocities[:k] - pert.velocities[:k], axis=1) ** 2
    )
    conn = problem.connection
    if callable(conn) and not isinstance(conn, GridField):
        pts = base.positions
        gvals = np.stack([conn(x) for x in pts])
        c0 = float(np.sqrt((gvals.reshape(len(pts), -1) ** 2).sum(axis=1)).max())
        lip_g = _fd_lipschitz_along(conn, pts)
    else:
        c0 = lp_norm(conn, np.inf)
        lip_g = _grad_max(conn)
    vmax = float(np.linalg.norm(problem.v0)) + VELOCITY_BALL
    C = 1.0 + 2.0 * c0 * vmax + lip_g * vmax ** 2
    envelope = max(delta0, 1e-300) * np.exp(C * (base.times[:k] - problem.t0))
    if delta0 == 0:
        within = bool(sep.max() <= 1e-8)
    else:
        within = bool(np.all(sep <= envelope * (1 + 1e-9) + 1e-14))
    return {
        "separation_max": float(sep.max()),
        "envelope_final": float(envelope[-1]),
        "lipschitz_estimate": float(C),
        "within_envelope": within,
    }


def _fd_lipschitz_along(ev, pts):
    h = 1e-4
    worst = 0.0
    for x in pts[:: max(1, len(pts) // 32)]:
        g0 = ev(x)
        for ax in range(len(x)):
            dx = np.zeros_like(x)
            dx[ax] = h
            worst = max(worst, float(np.abs(ev(x + dx) - g0).max() / h))
    return worst
