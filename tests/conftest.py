import numpy as np
import pytest

from rtgeo.charts import Chart, connection_field
from rtgeo.harness import Scenario, generate_scenario, load_config
from rtgeo.harness import smooth_connection, trig_gradient_jacobian  # noqa: F401  (tests import them from here)


@pytest.fixture(scope="session")
def unit_chart():
    return Chart((0.0, 0.0), (1.0, 1.0), (33, 33))


@pytest.fixture(scope="session")
def unit_chart_65():
    return Chart((0.0, 0.0), (1.0, 1.0), (65, 65))


def quadratic_jacobian(chart):
    X = chart.nodes
    J = np.zeros(chart.res + (2, 2))
    J[..., 0, 0] = 1.0
    J[..., 1, 1] = 1.0
    J[..., 1, 0] = X[..., 0]
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
