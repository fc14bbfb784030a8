"""Exception hierarchy shared across the package."""


class GreenP2Error(Exception):
    """Base class for all package errors."""


class ChartUndefined(GreenP2Error):
    """A point lies on the hyperplane at infinity of the requested chart."""


class OrderExceedsTruncation(GreenP2Error):
    """Every retained series coefficient is below tolerance; raise the truncation."""


class PositiveDimensional(GreenP2Error):
    """A polynomial system, or a pair of germs, has a curve of common zeros."""


class IllConditioned(GreenP2Error):
    """A numerical decision had no clear margin: a Macaulay matrix showed no gap
    between its kept and dropped singular values, a point read from its null
    space missed the equations, or a map's Macaulay matrix fell below the
    nondegeneracy floor with no common zero in its null space."""


class DegenerateMap(GreenP2Error):
    """Map components share a nontrivial common zero; ``point`` is one of them."""

    def __init__(self, message, point):
        super().__init__(message)
        self.point = point


class DegreeMismatch(GreenP2Error):
    """Map components do not share a common degree."""


class GenerationFailed(GreenP2Error):
    """Random map generation kept producing degenerate candidates."""


class FitUnstable(GreenP2Error):
    """A slope fit has residual above the acceptance threshold."""


class OnCurve(GreenP2Error):
    """A sample point landed on the pullback curve; caller should resample."""


class ParseError(GreenP2Error):
    """Malformed map file or polynomial expression."""
