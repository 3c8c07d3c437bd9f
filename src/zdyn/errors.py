"""Exception types shared across the toolkit."""


class ZdynError(Exception):
    """Base class for all toolkit errors."""


class DomainMismatch(ZdynError):
    """Two covers were composed whose graphs do not line up."""


class HomomorphismViolation(ZdynError):
    """A cover's vertex/edge maps do not form a graph homomorphism."""


class CoverViolation(ZdynError):
    """A cover lacks a required property (directionality, surjectivity)."""


class DepthOutOfRange(ZdynError):
    """A level or depth beyond what the presentation can materialize."""


class UnknownName(ZdynError):
    """A vertex or edge id that the diagram does not have at that level."""


class NameCollision(ZdynError):
    """Two edges of one diagram level would get the same id."""


class InvalidParameter(ZdynError):
    """A numeric argument outside the range an operation accepts."""


class InvalidSequence(ZdynError):
    """A height sequence that is not strictly increasing and positive."""


class HorizonExceeded(ZdynError):
    """A set computation needed path information beyond the given horizon.

    Callers should retry with a larger horizon.
    """


class UnsettledResidual(HorizonExceeded):
    """A residual marker floor whose points the horizon cannot sort.

    ``edge`` and ``floor`` name the level-n cell; the message says why.
    """

    def __init__(self, edge: str, floor: int, reason: str):
        super().__init__(reason)
        self.edge = edge
        self.floor = floor


class NestingViolation(ZdynError):
    """A diagram-to-covering conversion was attempted without nesting."""


class UndefinedVershik(ZdynError):
    """Successor resolution is impossible at the probed prefixes."""


class NotStraight(ZdynError):
    """An operation required a straight mono-graph or self-cover."""


class EmptyGrowingSet(ZdynError):
    """A substitution with no letter of unbounded growth."""


class IllegalSeed(ZdynError):
    """An array seed row that is not a legal walk."""


class UnsupportedKind(ZdynError):
    """A document kind the requested operation cannot handle."""


class DocumentSyntaxError(ZdynError):
    """Malformed document text."""


class DocumentSemanticError(ZdynError):
    """Well-formed document violating a structural invariant."""
