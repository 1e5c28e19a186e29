"""Exception types shared across the package."""


class GhmError(Exception):
    """Base class for all library errors."""


class ParseError(GhmError):
    """Malformed expression text.  ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(GhmError):
    """Evaluation hit a singularity: log/sqrt out of domain, division by zero."""

    def __init__(self, message: str, node: str = ""):
        super().__init__(f"{message} at node {node}" if node else message)
        self.node = node


class ExprDepthError(GhmError):
    """An expression tree too deep for a recursive walk under Python's
    recursion limit; ``depth`` is its depth in nodes."""

    def __init__(self, message: str, depth: int):
        super().__init__(message)
        self.depth = depth


class DimensionError(GhmError):
    """Mismatched ambient dimension or tensor degree."""


class DualityError(GhmError):
    """A dual-frame precondition (iota_{n_i} dC^j = delta_i^j or kernel membership) failed."""


class ChartError(GhmError):
    """Level-set chart invariant violated or Newton solve failed to converge."""


class IntegrationError(GhmError):
    """Trajectory integration failed (evaluation error or step underflow)."""


class InputError(GhmError):
    """Bad user-facing input: unknown system, malformed config, invalid point."""
