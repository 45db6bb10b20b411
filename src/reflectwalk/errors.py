"""Exception types shared across the package."""


class ReflectWalkError(Exception):
    """Base class for all package errors."""


class InvalidLaw(ReflectWalkError):
    """Increment law violates a structural invariant."""


class NonPositiveArgument(ReflectWalkError):
    """A tilt/mgf argument r must be > 0."""


class ConvergenceFailure(ReflectWalkError):
    """An iterative solver exhausted its iteration budget."""


class HorizonTooLarge(ReflectWalkError):
    """A dynamic-programming table would exceed the memory cap."""


class RootClusterUnresolved(ReflectWalkError):
    """A factorization root sits too close to the unit circle to classify."""


class DegenerateLaw(ReflectWalkError):
    """The law is too close to a point mass for its ladder laws: its
    variance is below the floor the s = 1 factorization can resolve, or the
    weak ascent leaves no stay mass to renew from."""


class NotCentered(ReflectWalkError):
    """Operation requires a centered law (tilt first for drifted laws)."""


class NegativeDriftUnsupported(ReflectWalkError):
    """Negative-drift laws are outside the asymptotic machinery."""


class SlopeMismatch(ReflectWalkError):
    """Closed-form singularity slope disagrees with the Richardson oracle."""


class StationarityFailure(ReflectWalkError):
    """The closed-form stationary weights are not stationary for the reflection kernel."""


class SingularSystem(ReflectWalkError):
    """A resolvent system is numerically singular."""


class NotInvertibleCentered(ReflectWalkError):
    """Resolvent solve called on a stochastic (centered) reflection core."""


class InvalidInput(ReflectWalkError, ValueError):
    """A start state, target state, horizon, depth or tolerance given by the
    caller is out of range."""


class InvalidSimConfig(InvalidInput):
    """A Monte Carlo config field, checkpoint or thread setting is out of range."""


class NonFiniteOutput(ReflectWalkError):
    """A number to be printed is NaN or infinite; no emitter writes one."""


class NoReflectionsObserved(ReflectWalkError):
    """Simulation saw zero reflections; cannot estimate the reflection law."""
