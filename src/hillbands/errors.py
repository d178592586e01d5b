"""Exception types shared across the toolkit."""


class HillbandsError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HillbandsError):
    """Invalid or inconsistent run configuration."""


class ValidationFailed(HillbandsError):
    """Fourier coefficient data violates its contract.

    Carries the full violation list so callers can report every offender.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class NonRealValue(HillbandsError):
    """A quantity that must be real came out with a large imaginary part."""


class ScheduleInfeasible(HillbandsError):
    """Requested scale count overflows double precision.

    ``largest_feasible`` is the largest scale index that still fits.
    """

    def __init__(self, requested, largest_feasible):
        self.requested = requested
        self.largest_feasible = largest_feasible
        super().__init__(f"scale {requested} infeasible "
                         f"(largest feasible s={largest_feasible})")


class ExcludedK(HillbandsError):
    """Momentum falls inside an excluded resonance interval.

    Signals the caller to route this k to the resonant pipeline. Carries the
    blocking mode and interval.
    """

    def __init__(self, k, scale, blocker, interval):
        self.k = k
        self.scale = scale
        self.blocker = blocker
        self.interval = interval
        super().__init__(
            f"k={k} excluded at scale {scale} by mode {blocker} "
            f"interval ({interval[0]}, {interval[1]})"
        )


class NotProper(HillbandsError):
    """Subtraction system violates the proper-system conditions."""


class SingularBlock(HillbandsError):
    """A block that must be inverted is numerically singular.

    ``block`` names the offender and ``distance_to_singularity`` is
    1/||A^-1|| in the matrix norm ``norm`` ("1" or "2"), exact or estimated.
    """

    def __init__(self, block, distance_to_singularity, norm):
        self.block = block
        self.distance_to_singularity = distance_to_singularity
        self.norm = norm
        super().__init__(
            f"singular block {block}: distance to singularity "
            f"1/||A^-1||_{norm} = {distance_to_singularity:.3e}"
        )


class NoConvergence(HillbandsError):
    """A root refinement did not reach tolerance."""

    def __init__(self, iterations, last_residual):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last residual {last_residual:.3e})"
        )


class RootCountMismatch(HillbandsError):
    """Root finder saw a number of sign changes different from the expected two."""

    def __init__(self, expected, found, locations):
        self.expected = expected
        self.found = found
        self.locations = tuple(locations)
        super().__init__(f"expected {expected} roots, found {found} at {list(locations)}")


class OrderingFailed(HillbandsError):
    """The pair-resonance ordering hypothesis failed on the bracket grid."""


class AdmissibilityFailed(HillbandsError):
    """A continued-fraction-function admissibility condition failed.

    Names the violated condition and the grid point.
    """

    def __init__(self, condition, point):
        self.condition = condition
        self.point = point
        super().__init__(f"admissibility condition {condition} failed at {point}")


class HypothesisFailed(HillbandsError):
    """A named hypothesis of a multi-scale step or branch lemma failed."""

    def __init__(self, item, detail):
        self.item = item
        super().__init__(f"hypothesis ({item}) failed: {detail}")


class PreconditionFailed(HillbandsError):
    """An operation was called outside its stated precondition."""


class IntegratorFailure(HillbandsError):
    """The ODE integrator failed to meet its tolerance."""
