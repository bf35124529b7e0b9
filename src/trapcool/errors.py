"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(SimulationError, ValueError):
    """Operands live on incompatible Hilbert spaces."""


class DimensionOverflow(SimulationError, ValueError):
    """A tensor product would exceed the configured dimension cap."""


class TailTooHeavy(SimulationError):
    """Truncated state leaks more population past the cutoff than allowed.

    The offending tail mass is stored in ``tail``.
    """

    def __init__(self, message, tail=None):
        super().__init__(message)
        self.tail = tail


class StepTooLarge(SimulationError):
    """The time step is too coarse for the run.

    Raised when dt * max_rate exceeds the stiffness bound 0.1, when the
    trace drifts from one during a step, when an integrated state ends
    with a non-finite entry, and when a conditioned run would amplify its
    top coherence band past the band-gain limit.
    """


class NotUnique(SimulationError):
    """Liouvillian kernel is (numerically) degenerate; no unique steady state."""


class Unstable(SimulationError):
    """Dynamics has no stationary point: some mode grows instead of relaxing."""


class InvalidFeedbackPhase(SimulationError, ValueError):
    """Feedback construction needs g * sin(phi) != 0 and was given a degenerate value."""


class NonPositiveCovariance(SimulationError, ValueError):
    """A covariance matrix that must be positive definite is not."""


class ConfigError(SimulationError, ValueError):
    """Scenario file or CLI arguments are malformed."""
