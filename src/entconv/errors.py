"""Exception types shared across the package."""


class EntconvError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(EntconvError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class OutOfRangeError(EntconvError, ValueError):
    """Scalar parameter, count, weight vector or array shape violates its documented range."""


class NotUnitaryError(EntconvError, ValueError):
    """Matrix is not unitary within tolerance."""


class NotSeparableError(EntconvError, ValueError):
    """State fails the positive-partial-transpose test and cannot be prepared locally."""


class NotProductDiagonalError(EntconvError, ValueError):
    """No product-state decomposition of the target could be constructed."""


class BadWeightsError(EntconvError, ValueError):
    """Mixture weights are negative, do not sum to one, or carry no success mass."""


class NotTracePreservingError(EntconvError, ValueError):
    """Kraus family fails the completeness (trace preservation) check."""


class InfeasibleError(EntconvError):
    """Protocol synthesis has no solution; the message names the violated bound."""


class NotEntangledError(EntconvError, ValueError):
    """Operation requires an entangled state but was given a separable one."""


class ResidualError(EntconvError, RuntimeError):
    """A constructive verdict's protocol missed its target beyond the run-time bound."""


class SamplingExhaustedError(EntconvError, RuntimeError):
    """Rejection sampling hit its attempt bound without an accept."""
