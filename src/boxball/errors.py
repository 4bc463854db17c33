"""Exception types raised by the boxball package."""


class BoxBallError(Exception):
    """Base class for all domain errors."""


class InvalidCell(BoxBallError):
    """Occupancy or load outside its capacity bound."""


class EitherCapacityInfinite(BoxBallError):
    """Operation requires both capacities finite."""


class RangeViolation(BoxBallError):
    """Reduction preconditions violated (floor too large or cell out of band)."""


class JInfinite(BoxBallError):
    """Path encodings are only defined for finite box capacity."""


class InvalidIncrement(BoxBallError):
    """Path increment incompatible with the box capacity."""


class ParityViolation(BoxBallError):
    """Carrier extraction from a path was non-integral."""


class FloorTooLarge(BoxBallError):
    """Detect floor r does not satisfy 0 <= 2r < min{J, K}."""


class Undetermined(BoxBallError):
    """The window admits no forced carrier value; it is consistent with an
    alternating/degenerate tail, so no canonical carrier can be reported."""


class BoundaryNotReversible(BoxBallError):
    """Backward evolution needs a boundary mode that is meaningful after
    spatial reversal."""


class OutOfWindow(BoxBallError):
    """Requested lattice site is not covered by the block."""


class TrackedBallAbsent(BoxBallError):
    """No ball available at the requested tracking position."""


class WindowExceeded(BoxBallError):
    """Tagged ball left the trusted part of the window."""


class InvalidParams(BoxBallError):
    """Distribution parameters outside their admissible range."""


class InvalidPmf(BoxBallError):
    """Weights are not a probability vector."""


class NotInMrev(BoxBallError):
    """Measure does not admit two-sided canonical dynamics."""


class StateSpaceTooLarge(BoxBallError):
    """Exact enumeration or a load chain would exceed its size budget."""
