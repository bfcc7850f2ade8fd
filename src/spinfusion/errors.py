"""Exception types shared across the package."""


class SpinFusionError(Exception):
    """Base class for all package-specific errors."""


class InadmissibleTriple(SpinFusionError):
    """Spin triple violates the triangle or integrality (parity) rule."""


class SpinMismatch(SpinFusionError):
    """An irrep vector's spin does not match what an operation expects."""


class ChannelMismatch(SpinFusionError):
    """Channel counts of operands disagree."""


class EmptyDiagramSet(SpinFusionError):
    """A fusion block was configured with no diagrams."""


class ZeroVector(SpinFusionError):
    """A direction was requested for a (near-)zero 3-vector."""


class NonScalarSeed(SpinFusionError):
    """Backward pass was seeded with a node that is not a real scalar."""


class EmptySchedule(SpinFusionError):
    """A spin schedule contains no internal spins."""


class RejectionFailure(SpinFusionError):
    """Rejection sampling failed to place atoms within the retry budget."""


class ShapeMismatch(SpinFusionError):
    """Array shapes disagree where they must match."""


class NonFiniteLoss(SpinFusionError):
    """Training produced a NaN or infinite loss."""


class RecouplingError(SpinFusionError):
    """A recoupling matrix does not reproduce the diagrams it re-associates."""
