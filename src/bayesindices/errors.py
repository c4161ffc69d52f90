"""Exception types shared across the package.

Zero reference/prior densities raise the built-in ZeroDivisionError rather
than a custom class.
"""


class BayesIndicesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(BayesIndicesError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateDataError(BayesIndicesError):
    """Observed data carry no usable variation (e.g. constant group)."""


class DegenerateDensityError(BayesIndicesError):
    """A density grid cannot be normalized (e.g. all zeros)."""


class MultimodalHpdError(BayesIndicesError):
    """The highest-density region on a grid is not a single interval.

    `segments` holds the disjoint (lower, upper) pieces found at the
    density threshold.
    """

    def __init__(self, message: str, segments: list[tuple[float, float]]):
        super().__init__(message)
        self.segments = segments


class ConvergenceError(BayesIndicesError):
    """A numerical iteration hit its cap before reaching tolerance."""


class OutOfSupportError(BayesIndicesError):
    """A requested evaluation point lies outside a grid's support."""


class TruncatedSupportError(BayesIndicesError):
    """A posterior grid's mass misses the evidence by a non-negligible share:
    its edges clip the posterior, or its points are too coarse for it."""


class InputError(BayesIndicesError):
    """Malformed input file, configuration, or command-line usage."""


class FloatRangeError(BayesIndicesError):
    """A result known in log space does not fit a double-precision float."""
