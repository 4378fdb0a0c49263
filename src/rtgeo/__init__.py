"""Numerical toolkit for geodesics of low-regularity connections.

Builds the regularizing coordinate change from an elliptic system, solves
the geodesic equation classically in the good coordinates, and verifies
that smooth solutions of an explicitly mollified equation converge back to
the same curve in the original coordinates.
"""

from .charts import (
    Chart,
    CoordinateMap,
    ForceField,
    GridField,
    JacobianField,
    connection_field,
    interpolate,
    make_chart,
    sample_field,
)
from .calculus import (
    MatrixForm,
    NormReport,
    coderivative,
    exterior_derivative,
    form_divergence,
    laplacian,
    matrix_inner,
    mollify,
    norm_report,
    poisson_solve,
    w1p_norm,
    wedge,
)
from .curvature import (
    CurvatureField,
    TestFunction,
    lemma_b1_check,
    represent_weak,
    riemann,
    transform_curvature,
    weak_riemann,
)
from .errors import RtgeoError
from .geodesics import (
    Curve,
    GeodesicProblem,
    MollifiedFamily,
    convergence_report,
    gronwall_uniqueness_check,
    mollified_family,
    solve_forced,
    solve_geodesic,
    solve_mollified,
    uniform_bound_check,
    weak_solution_pipeline,
)
from .harness import Scenario, generate_scenario, load_config, run_experiment
from .rt_solver import (
    RTConfig,
    RTState,
    assemble_gamma_tilde,
    first_rt_residual,
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
    pushforward_curve,
    split_transform,
    transform_connection,
    transform_force,
)

__version__ = "0.1.0"
