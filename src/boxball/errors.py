"""Exception types raised by the boxball package."""


class BoxBallError(Exception):
    """Base class for all domain errors."""


class InvalidCell(BoxBallError):
    """Occupancy or load outside its capacity bound."""


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


class InvalidParams(BoxBallError):
    """Distribution parameters outside their admissible range."""


class InvalidPmf(BoxBallError):
    """Weights are not a probability vector."""


class NotInMrev(BoxBallError):
    """Measure does not admit two-sided canonical dynamics."""


class StateSpaceTooLarge(BoxBallError):
    """Exact enumeration or a load chain would exceed its size budget."""
