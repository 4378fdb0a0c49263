"""Numerical toolkit for geodesics of low-regularity connections.

Builds the regularizing coordinate change from an elliptic system, solves
the geodesic equation classically in the good coordinates, and verifies
that smooth solutions of an explicitly mollified equation converge back to
the same curve in the original coordinates.
"""

# imported so that rtgeo._kernels is in sys.modules, where perfbench/spans.py looks it up by name
from . import _kernels
from .charts import (
    Chart,
    ForceField,
    GridField,
    JacobianField,
    connection_field,
    interpolate,
    make_chart,
)
from .calculus import (
    matrix_inner,
    mollify,
    norm_report,
    w1p_norm,
    wedge,
)
from .curvature import (
    TestFunction,
    curvature_field,
    lemma_b1_check,
    represent_weak,
    riemann,
    transform_curvature,
)
from .errors import RtgeoError
from .geodesics import (
    Curve,
    GeodesicProblem,
    MollifiedFamily,
    convergence_report,
    mollified_family,
    solve_geodesic,
    solve_mollified,
    weak_solution_pipeline,
)
from .harness import Scenario, generate_scenario, load_config, run_experiment
from .rt_solver import (
    RTConfig,
    RTState,
    optimal_connection,
    regularity_report,
    solve_reduced_rt,
)
from .transform import (
    TransformBundle,
    build_bundle,
    coderivative_identity_residual,
    dgamma_identity_residual,
    integrate_jacobian,
    invert_map,
    pull_back_curve,
    split_transform,
    transform_connection,
    transform_force,
)

__version__ = "0.1.0"
