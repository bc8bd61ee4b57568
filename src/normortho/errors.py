"""Exception types shared across the package."""

__all__ = [
    "ParseError",
    "DimensionMismatchError",
    "ZeroVectorError",
    "NonSmoothPointError",
    "EngineError",
]


class ParseError(ValueError):
    """Rejected norm-expression text.

    Covers syntax errors, arity/dimension mismatches, and parameter-domain
    violations (p <= 1, nonpositive weight or scale).  ``offset`` is the
    character offset into the input at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DimensionMismatchError(ValueError):
    """A vector's length does not match the norm's ambient dimension."""


class ZeroVectorError(ValueError):
    """An operation that requires a nonzero vector received zero."""


class NonSmoothPointError(ValueError):
    """Semi-inner-product evaluation at a point where the one-sided
    derivatives disagree."""


class EngineError(RuntimeError):
    """An internal consistency check failed (e.g. a cosine argument far
    outside [-1, 1], which the derivative bound rules out)."""
