"""Exception types shared across the package.

The command line reports each error with the exit code and the stderr label
of its base class: 2 for a `ConfigError`, 3 for an `InvariantViolationError`,
4 for a `SolverError` (and for any other motorflux error).  Each code and
label is declared once, on that base class.
"""


class MotorfluxError(Exception):
    """Base class for all motorflux errors.

    The evolver sets ``time`` on exceptions that surface mid-trajectory so
    callers can see when a run failed; the command line prints it too.
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


class OutOfDomainError(ConfigError):
    """Evaluation requested outside the admissible domain of a function."""


class UnsupportedConfigurationError(ConfigError):
    """The requested operation does not apply to this problem configuration."""


class ScalingError(ConfigError):
    """A gauge factor exp(psi/sigma) or a Scharfetter-Gummel weight would
    overflow double precision, or a matrix that is nonsingular in exact
    arithmetic rounds to a singular one because its scales lie too far apart."""


class StepSizeError(ConfigError):
    """Time step exceeds the positivity bound; carries the admissible dt_max."""

    def __init__(self, message: str, dt_max: float):
        super().__init__(message)
        self.dt_max = dt_max


class DegenerateDataError(ConfigError):
    """Input data carries no information for the requested operation (e.g. zero mass)."""


class OracleScopeError(ConfigError):
    """Problem exceeds the size cap of the dense reference computation, or
    its exp(t*A) u0 overflows double precision."""


class SolverError(MotorfluxError):
    """A solver could not deliver a checked result; carries the last residual."""

    exit_code = 4
    label = "solver failure"

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NonConvergenceError(SolverError):
    """A solver result missed its convergence criterion or residual bound."""


class IrreducibilityError(SolverError):
    """Stationary problem is not irreducible: coupling graph not strongly
    connected, or an operator that breaks mass conservation."""


class InvariantViolationError(MotorfluxError):
    """Internal invariant broken; indicates a bug, not bad user data."""

    exit_code = 3
    label = "invariant failure"
