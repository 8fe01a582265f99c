"""Exception types shared across the package."""


class LrcError(Exception):
    """Base class for all package errors."""


class InvalidParams(LrcError, ValueError):
    """Rejected (n, k, r) input.

    ``reason`` is ``"ordering"`` when 1 <= r <= k < n fails, and
    ``"locality"`` when the rate bound n - k >= ceil(k / r) fails.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class UnknownVertex(LrcError, ValueError):
    """A vertex index outside the graph's vertex range."""


class BadK(LrcError, ValueError):
    """Subgraph-order argument outside [1, order]."""


class BadArgs(LrcError, ValueError):
    """Malformed constructor arguments."""


class NotGraphic(LrcError, ValueError):
    """Degree sequence that no loopless multigraph realizes."""


class EnvelopeExceeded(LrcError, ValueError):
    """Exhaustive-search request outside the enforced size envelope."""


class UnboundedFamily(LrcError, ValueError):
    """Forbidden family that no multigraph can violate (maximum size is infinite)."""


class InvalidTanner(LrcError, ValueError):
    """Structure violating the full-Tanner-graph or pruned-graph invariants."""


class NothingToReduce(LrcError, ValueError):
    """Check-node reduction requested on a graph already at the minimum check count."""


class ShapeMismatch(LrcError, ValueError):
    """Multigraph whose order/size does not match the target code parameters."""


class DegenerateCode(LrcError, ValueError):
    """Parity-check matrix without full row rank; distance undefined for claimed dimension."""


class NotAchievable(LrcError, RuntimeError):
    """Optimal construction requested where the best distance falls short of the bound."""


class RetriesExhausted(LrcError, RuntimeError):
    """Randomized construction failed verification for every attempted seed."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class NoLocalCover(LrcError, RuntimeError):
    """No low-weight parity row covers the erased coordinate (impossible for verified codes)."""


class SelfCheckFailed(LrcError, RuntimeError):
    """A computed result failed the package's own check of it: a bug, never bad input."""
