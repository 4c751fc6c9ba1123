"""Exception hierarchy shared across the package."""


class WeylstatError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSpecError(WeylstatError):
    """A system descriptor names a family/rank combination that does not exist."""


class StaleRootError(WeylstatError):
    """A root value does not belong to the catalog it was used with."""


class ComponentMismatchError(WeylstatError):
    """A group element and a root live in different systems or components."""


class TooLargeError(WeylstatError):
    """A request exceeds a size limit: the enumeration cap or the catalog limit."""

    def __init__(
        self, order: int, cap: int, what: str = "group order", limit: str = "enumeration cap"
    ):
        super().__init__(f"{what} {order} exceeds {limit} {cap}")
        self.order = order
        self.cap = cap


class RangeError(WeylstatError):
    """A height parameter lies outside the legal range of a closed formula."""


class PropertyViolationError(WeylstatError):
    """A structural bound that should hold unconditionally was violated."""


class InternalConsistencyError(WeylstatError):
    """Internal invariant broken; indicates a bug, not a usage error."""
