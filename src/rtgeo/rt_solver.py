"""Reduced elliptic system producing the regularizing Jacobian and the
optimal-regularity connection.

The unknown pair (J, B) satisfies, discretely and at convergence,

    Delta J = delta(J . Gamma) - B          (coupling equation)
    d(vec B) = d(vec(delta(J . Gamma)))     (curl of the auxiliary field)
    delta(vec B) = 0                        (free gauge function w = 0)

realized through the Hodge-style route: each iteration splits the row
1-forms of S = delta(J . Gamma) into a gradient part and a remainder, keeps
the gradient part as the Laplacian of coordinate potentials u, and sets
J = grad-rows(u).  Two consequences carry the whole pipeline:

* every iterate J is a discrete gradient, so its row curl is zero to
  machine precision and the field is always integrable to coordinates;
* products entering delta(J . Gamma) are expanded by the discrete Leibniz
  split  delta(J . Gamma) := J . delta(Gamma) - <dJ; Gamma>,  which makes
  the uncontrolled-derivative cancellation in the gauge-transformed
  equation for Gamma~ exact in floating point (see first_rt_residual).

One such step is an affine map T(J) = L J + c, iterated undamped: the loop
stops when successive iterates agree to ``fixed_point_tol`` and fails when
the increment has not shrunk over two steps, when ``max_iters`` runs out, or
when det J is not positive somewhere.

Boundary gauge: the potentials carry Dirichlet data u = x, i.e. the
coordinate change is pinned to the identity on the chart boundary.
"""

from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    MatrixForm,
    coderivative,
    connection_form,
    contract,
    d_one_form,
    delta_one_form,
    exterior_derivative,
    laplacian,
    lp_norm,
    matmul,
    matrix_inner,
    mollify,
    norm_report,
    wedge,
)
from .charts import GridField, connection_field, interpolate
from .errors import JacobianError, SolverError, staged
from .transform import build_bundle, jacobian_grad, row_curl_residual, split_transform


@dataclass
class RTConfig:
    max_iters: int = 200
    fixed_point_tol: float = 1e-9     # L^{2p} distance of successive J
    p: float = 2.2
    retry_subchart: bool = True

    def __post_init__(self):
        if self.fixed_point_tol <= 0 or self.max_iters < 1:
            raise SolverError("fixed_point_tol must be positive and max_iters at least 1")


@dataclass
class RTState:
    chart: object
    iterations: int
    J: np.ndarray
    B: np.ndarray
    potentials: np.ndarray
    increments: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    det_min: float = 0.0
    curl_residual: float = 0.0
    used_subchart: bool = False
    conn: object = None      # the connection solved on: the sub-chart slice after a retry

    def summary(self):
        return {
            "iters": self.iterations,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "det_min": float(self.det_min),
            "curl_residual": float(self.curl_residual),
            "used_subchart": self.used_subchart,
            "increments_tail": [float(v) for v in self.increments[-3:]],
        }


def _split_coderivative(chart, J, conn_form_vals, delta_gamma):
    """delta(J . Gamma) via the discrete Leibniz split J delta(G) - <dJ; G>."""
    dJ = chart.grad(J)
    S = contract("...ms,...sn->...mn", J, delta_gamma)
    for j in range(chart.n):
        S -= contract("...ms,...sn->...mn", dJ[..., j], conn_form_vals[..., j])
    return S


def solve_reduced_rt(conn, cfg=None):
    """Undamped fixed-point solve J <- T(J) for (J, B) on the connection's chart.

    Retries once on the half-radius centered sub-chart if the increments stop
    contracting, ``max_iters`` runs out, or the Jacobian folds (the
    underlying theory is local).
    """
    cfg = cfg or RTConfig()
    try:
        return _solve_on_chart(conn, cfg, used_subchart=False)
    except (SolverError, JacobianError):
        if not cfg.retry_subchart:
            raise
        sub, slc = conn.chart.sub_chart()
        sub_conn = connection_field(sub, np.ascontiguousarray(conn.values[slc]))
        return _solve_on_chart(sub_conn, cfg, used_subchart=True)


def _solve_on_chart(conn, cfg, used_subchart):
    chart = conn.chart
    n = chart.n
    w = connection_form(conn)
    delta_gamma = coderivative(w).values
    J = np.broadcast_to(np.eye(n), chart.res + (n, n)).copy()
    increments = []
    vox_p = 2 * cfg.p
    for it in range(1, cfg.max_iters + 1):
        S = _split_coderivative(chart, J, w.values, delta_gamma)
        phi = chart.dirichlet_solve(delta_one_form(chart, S), np.zeros(chart.res + (n,)))
        u = chart.dirichlet_solve(phi, chart.nodes)
        J_new = chart.grad(u)
        increments.append(lp_norm(GridField(chart, J_new - J), vox_p))
        J = J_new
        if increments[-1] < cfg.fixed_point_tol:
            break
        # undamped increments alternate, so contraction is judged over two steps
        if it > 2 and increments[-1] >= increments[-3]:
            raise SolverError(
                f"fixed point not contracting at iteration {it}: "
                f"two-step increment ratio {increments[-1] / increments[-3]:.2f}",
                increments,
            )
    else:
        raise SolverError(
            f"fixed point at increment {increments[-1]:.2e} after {cfg.max_iters} iterations, "
            f"above fixed_point_tol {cfg.fixed_point_tol:.0e}",
            increments,
        )
    det = np.linalg.det(J)
    # the rim data u = x fix the orientation at +1, so a fold shows as det < 0
    if det.min() < 1e-6:
        raise JacobianError(f"degenerate Jacobian: min det = {det.min():.2e}")
    S = _split_coderivative(chart, J, w.values, delta_gamma)
    B = S - chart.laplace(J)
    # the coupling equation holds by the choice of B; the residuals are those
    # of the other two, and the w = 0 gauge holds at interior rows only, so
    # its residual is interior-weighted
    interior = np.zeros(chart.res)
    interior[(slice(3, -3),) * n] = 1.0
    r12 = lp_norm(GridField(chart, d_one_form(chart, B) - d_one_form(chart, S)), cfg.p)
    r13 = lp_norm(GridField(chart, delta_one_form(chart, B)), cfg.p, interior)
    return RTState(
        chart=chart,
        iterations=len(increments),
        J=J,
        B=B,
        potentials=u,
        increments=increments,
        residuals={"eq12": r12, "eq13": r13, "fixed_point": increments[-1]},
        det_min=float(det.min()),
        curl_residual=row_curl_residual(chart, J),
        used_subchart=used_subchart,
        conn=conn,
    )


def assemble_gamma_tilde(conn, state):
    """Gamma~ = Gamma_x - Jinv dJ for the converged Jacobian."""
    tilde, _ = split_transform(conn, state.J)
    return tilde


def rt_bundle(state):
    """Coordinate bundle from the converged state (integrates the Jacobian)."""
    return build_bundle(state.chart, state.J)


def regularize(conn, cfg, suffix=""):
    """One regularizing pass, each step under its stage label (``suffix`` appended):
    RT solve, coordinate bundle, Gamma~ on the solved chart, Gamma_y on the y-chart."""
    state = staged("rt_solve" + suffix, lambda: solve_reduced_rt(conn, cfg))
    bundle = staged("integrate_jacobian" + suffix, lambda: rt_bundle(state))
    tilde = staged("gamma_tilde" + suffix, lambda: assemble_gamma_tilde(state.conn, state))
    conn_y = staged("optimal_connection" + suffix, lambda: optimal_connection(tilde, bundle))
    return state, bundle, conn_y


def optimal_connection(tilde, bundle):
    """Contract Gamma~ with (J, Jinv) and resample onto the y-chart (Eq. 16 push)."""
    chart_x = bundle.x_chart
    y_chart = bundle.y_chart
    ypts = y_chart.nodes.reshape(-1, chart_x.n)
    xpts = bundle.map.inverse_at(ypts, clip=True)
    Gt = interpolate(tilde, xpts, clip=True)
    J = bundle.jac.at(xpts, clip=True)
    Jinv = np.linalg.inv(J)
    # conn storage [k, i(form), j(col)] -> [g, a(form), b(col)]
    vals = contract("...gk,...ia,...jb,...kij->...gab", J, Jinv, Jinv, Gt)
    return connection_field(y_chart, vals.reshape(y_chart.res + Gt.shape[1:]))


def first_rt_residual(conn, J, B, eps_ladder=None, p=2.2):
    """Residual of the gauge-transformed equation for Gamma~ across a
    mollification ladder.

    Checks  Delta Gamma~ = delta d Gamma - delta(dJinv ^ dJ) + d(Jinv A)
    with A = B + <dJ; Gamma~> (the sign of A's inner-product term follows
    from the package's pinned conventions; it is the combination for which
    the delta-Gamma cancellation is exact).  On rough data the check runs on
    mollified connections; J and B stay fixed and B is shifted consistently
    with its defining relation, so the uncontrolled delta(Gamma^eps) content
    cancels in floating point and the residual must stay bounded while
    ``|delta Gamma^eps|`` grows.
    """
    chart = conn.chart
    n = chart.n
    Jinv = np.linalg.inv(J)
    w_raw = connection_form(conn)
    dg_raw = coderivative(w_raw).values
    dJ_form = jacobian_grad(chart, J)
    dJinv_form = jacobian_grad(chart, Jinv)
    lap_J_eff = _split_coderivative(chart, J, w_raw.values, dg_raw) - B
    rows = []
    for eps in eps_ladder or [None]:
        conn_e = mollify(conn, eps) if eps else conn
        w_e = connection_form(conn_e)
        delta_g_e = coderivative(w_e)
        B_e = _split_coderivative(chart, J, w_e.values, delta_g_e.values) - lap_J_eff
        tilde_e_vals = w_e.values - matmul(Jinv, dJ_form).values
        tilde_e = MatrixForm(chart, 1, tilde_e_vals)
        A = B_e + matrix_inner(dJ_form, tilde_e).values
        lhs = laplacian(tilde_e).values
        rhs = (
            coderivative(exterior_derivative(w_e)).values
            - coderivative(wedge(dJinv_form, dJ_form)).values
            + exterior_derivative(
                MatrixForm(chart, 0, contract("...ma,...an->...mn", Jinv, A))
            ).values
        )
        resid = lp_norm(GridField(chart, lhs - rhs), p)
        delta_norm = lp_norm(GridField(chart, delta_g_e.values), p)
        tilde_delta_norm = lp_norm(GridField(chart, coderivative(tilde_e).values), p)
        rows.append(
            {
                "eps": eps,
                "residual": float(resid),
                "delta_gamma_lp": float(delta_norm),
                "delta_tilde_lp": float(tilde_delta_norm),
            }
        )
    return rows


def regularity_report(conn_x, conn_y, p):
    """Norm reports of the incoming and regularized connections at the Morrey
    exponent alpha = 1 - n/p, and the ratio of their W^{1,p} norms."""
    n = conn_x.chart.n
    alpha = 1.0 - n / p
    rep_x = norm_report(conn_x, p, alpha)
    rep_y = norm_report(conn_y, p, alpha)
    return {"x": rep_x, "y": rep_y, "w1p_ratio": rep_y.w1p / max(rep_x.w1p, 1e-300)}
