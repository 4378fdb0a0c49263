import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from rtgeo import curvature, harness
from rtgeo.calculus import connection_form, full_antisymmetric, wedge
from rtgeo.charts import Chart, GridField, JacobianField, connection_field
from rtgeo.curvature import _weak_functional
from rtgeo.harness import Scenario, generate_scenario, load_config
from rtgeo.harness import smooth_connection, trig_gradient_jacobian  # noqa: F401  (tests import them from here)
from rtgeo.transform import TransformBundle

# property tests draw the same examples on every run; each keeps its own max_examples
settings.register_profile("rtgeo", derandomize=True, deadline=None)
settings.load_profile("rtgeo")


@pytest.fixture(scope="session")
def unit_chart():
    return Chart((0.0, 0.0), (1.0, 1.0), (33, 33))


@pytest.fixture(scope="session")
def unit_chart_65():
    return Chart((0.0, 0.0), (1.0, 1.0), (65, 65))


def interior_mask(chart):
    """True at every node off the chart's rim."""
    m = np.zeros(chart.res, dtype=bool)
    m[(slice(1, -1),) * chart.n] = True
    return m


def identity_bundle(chart):
    """The identity coordinate change on ``chart``: J = I, y = x, y-chart = x-chart."""
    J = np.broadcast_to(np.eye(chart.n), chart.res + (chart.n, chart.n)).copy()
    nodes = GridField(chart, chart.nodes.copy(), ("up",))
    return TransformBundle(forward=nodes, inverse=nodes.copy(chart.nodes.copy()), jac=JacobianField(chart, J))


def weak_riemann(conn, psi):
    """Weak curvature functional: quadrature only, no derivatives of Gamma.

    Returns the n^4 array W[tau, mu, nu, rho] =
        -int (G[tau,mu,nu] d_rho psi - G[tau,mu,rho] d_nu psi) dx
        + int (Gamma ^ Gamma)[tau,mu,(nu,rho)] psi dx
    where G is the matrix-1-form layout of the connection.
    """
    w = connection_form(conn)
    return _weak_functional(conn.chart, w, full_antisymmetric(wedge(w, w), conn.chart.n), psi)


def drop_jacobian_factor(monkeypatch):
    """Negative control for Lemma B.1: the push of R_x to y-components loses
    its Jinv factor on the second lower index, so R_x's third index lands
    there unmapped."""
    real = curvature.contract

    def contract(subscripts, *operands):
        if subscripts == "...dt,...ma,...nb,...rc,...tmnr->...dabc":
            J, Jinv, _, _, R = operands
            return real("...dt,...ma,...rc,...tmbr->...dabc", J, Jinv, Jinv, R)
        return real(subscripts, *operands)

    monkeypatch.setattr(curvature, "contract", contract)


# each timed stage of harness.run_experiment, by the harness function its lambda calls
RUN_STAGES = {
    "generate": "generate_scenario",
    "pipeline": "weak_solution_pipeline",
    "identity_checks": "_identity_stage",
    "regularity": "regularity_report",
    "mollified_family": "mollified_family",
    "solve_mollified": "solve_mollified",
    "convergence_report": "convergence_report",
    "lemma_b1": "lemma_b1_check",
    "regularity_ladder": "_regularity_ladder",
}


def trace_stages(monkeypatch):
    """Per-stage memory probe over :func:`rtgeo.harness.run_experiment`.

    Wraps the harness function behind each timed stage and returns a dict that
    fills, as the stages run, with stage name -> (tracemalloc live bytes at
    entry, traced peak bytes above that entry).  tracemalloc must be tracing;
    the stages do not nest, so each one resets the traced peak on entry.
    """
    stages = {}
    for stage, name in RUN_STAGES.items():

        def probe(*args, _stage=stage, _fn=getattr(harness, name), **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return _fn(*args, **kwargs)
            finally:
                stages[_stage] = (live, tracemalloc.get_traced_memory()[1] - live)

        monkeypatch.setattr(harness, name, probe)
    return stages


@pytest.fixture
def stage_memory(monkeypatch):
    """:func:`trace_stages` with tracemalloc tracing for the test's duration."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield trace_stages(monkeypatch)
    if started:
        tracemalloc.stop()


def quadratic_jacobian(chart, shear=0.5):
    """Jacobian of the shear map y = (x1, x2 + shear x1^2)."""
    X = chart.nodes
    J = np.zeros(chart.res + (2, 2))
    J[..., 0, 0] = 1.0
    J[..., 1, 1] = 1.0
    J[..., 1, 0] = 2.0 * shear * X[..., 0]
    return J


def flat_disguise_connection(chart):
    vals = np.zeros(chart.res + (2, 2, 2))
    vals[..., 1, 0, 0] = 1.0
    return connection_field(chart, vals)


@pytest.fixture(scope="session")
def flat_gen():
    scn, _ = load_config("configs/flat_disguise.cfg")
    return generate_scenario(scn)


@pytest.fixture(scope="session")
def rough_gen():
    scn, _ = load_config("configs/rough_beta06.cfg")
    return generate_scenario(scn)


@pytest.fixture(scope="session")
def sphere_gen():
    scn, _ = load_config("configs/sphere.cfg")
    return generate_scenario(scn)


@pytest.fixture(scope="session")
def rough_rt_state(rough_gen):
    from rtgeo.rt_solver import RTConfig, solve_reduced_rt

    return solve_reduced_rt(rough_gen.conn_x, RTConfig())


@pytest.fixture(scope="session")
def control_gen():
    scn = Scenario(
        name="negctl",
        hidden="sphere",
        map_kind="quadratic",
        shear=0.2,
        chart_lo=(0.7853981633974483, -0.15),
        chart_hi=(2.356194490192345, 1.15),
    )
    return generate_scenario(scn)
