"""Exception hierarchy."""


class RtgeoError(Exception):
    pass


class ConfigurationError(RtgeoError):
    """Bad chart/config/CLI input."""


class SamplingError(RtgeoError):
    """Evaluator produced non-finite values."""


class ShapeError(RtgeoError):
    """Component shape or chart mismatch."""


class ResolutionError(RtgeoError):
    """Kernel or stencil not resolvable on the grid."""


class DomainExit(RtgeoError):
    """Point left the chart; ODE loops consume this as interval truncation."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"point outside chart: {point}")


class JacobianError(RtgeoError):
    """Degenerate or inconsistent Jacobian samples."""


class NonIntegrableError(RtgeoError):
    """Row curl too large: the field is not a gradient within tolerance."""


class InversionError(RtgeoError):
    """Newton map inversion stagnated."""


class SolverError(RtgeoError):
    """Elliptic or fixed-point solver failure; carries residual history."""

    def __init__(self, msg, history=None):
        self.history = list(history or [])
        super().__init__(msg)


class TestFunctionError(RtgeoError):
    """Test-function support touches the chart boundary."""

    __test__ = False  # keep pytest collection away


class FittingError(RtgeoError):
    """Rank-deficient basis in a least-squares fit."""


class StageError(RtgeoError):
    """Pipeline stage failure with a stage label."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


def staged(name, fn):
    """Run ``fn()``; an RtgeoError raised inside becomes a StageError labelled ``name``."""
    try:
        return fn()
    except RtgeoError as e:
        raise StageError(name, e) from e
