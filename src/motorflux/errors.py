"""Exception types shared across the package.

Each type carries the exit code and the stderr label that the command line
reports it with: 2 for a config error, 3 for an invariant failure, 4 for a
solver failure (and for any other motorflux error).
"""


class MotorfluxError(Exception):
    """Base class for all motorflux errors.

    The evolver sets ``time`` on exceptions that surface mid-trajectory so
    callers can see when a run failed.
    """

    exit_code = 4
    label = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.time: float | None = None


class ConfigError(MotorfluxError):
    """Bad configuration: unparseable file, unknown key, or hypothesis violation."""

    exit_code = 2
    label = "config error"


class OutOfDomainError(MotorfluxError):
    """Evaluation requested outside the admissible domain of a function."""

    exit_code = 2
    label = "config error"


class UnsupportedConfigurationError(MotorfluxError):
    """The requested operation does not apply to this problem configuration."""

    exit_code = 2
    label = "config error"


class ScalingError(MotorfluxError):
    """A gauge factor exp(psi/sigma) or a Scharfetter-Gummel weight would
    overflow double precision, or a matrix that is nonsingular in exact
    arithmetic rounds to a singular one because its scales lie too far apart."""

    exit_code = 2
    label = "config error"


class StepSizeError(MotorfluxError):
    """Time step exceeds the positivity bound; carries the admissible dt_max."""

    exit_code = 2
    label = "config error"

    def __init__(self, message: str, dt_max: float):
        super().__init__(message)
        self.dt_max = dt_max


class SolverError(MotorfluxError):
    """Linear solve failed to reach its tolerance; carries the last residual."""

    exit_code = 4
    label = "solver failure"

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NonConvergenceError(SolverError):
    """A solver result missed its convergence criterion or residual bound."""


class IrreducibilityError(MotorfluxError):
    """Stationary problem is not irreducible: coupling graph not strongly
    connected, an operator that breaks mass conservation, or a null vector
    not strictly positive."""

    exit_code = 4
    label = "solver failure"


class DegenerateDataError(MotorfluxError):
    """Input data carries no information for the requested operation (e.g. zero mass)."""

    exit_code = 2
    label = "config error"


class OracleScopeError(MotorfluxError):
    """Problem exceeds the size cap of the dense reference computation, or
    its exp(t*A) u0 overflows double precision."""

    exit_code = 2
    label = "config error"


class InvariantViolationError(MotorfluxError):
    """Internal invariant broken; indicates a bug, not bad user data."""

    exit_code = 3
    label = "invariant failure"
