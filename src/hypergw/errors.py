"""Exception types raised by the exact-series and residue machinery."""


class HypergwError(Exception):
    """Base class for all package-specific errors."""


class DivByNonUnit(HypergwError):
    """Series division by a series with zero constant term."""


class TruncationMismatch(HypergwError):
    """A coefficient or truncation beyond the stored order was requested."""


class BadConstantTerm(HypergwError):
    """exp/log/pow applied to a series with an inadmissible constant term."""

    def __init__(self, operation, value):
        self.operation = operation
        self.value = value
        super().__init__(f"{operation} requires an admissible constant term, got {value}")


class BadMirrorMap(HypergwError):
    """Change of exponential variable with a shift that has a constant term."""


class WindowTooSmall(HypergwError):
    """Requested Laurent window does not cover the pole order."""


class NonzeroConstant(HypergwError):
    """A series required to have no degree-zero term has one."""


class NotRegularizable(HypergwError):
    """Regularization data requested for a series that is not regularizable."""


class PoleTooHigh(HypergwError):
    """A rational function has a pole of higher order than the context allows."""


class RoutesDisagree(HypergwError):
    """Two independent computations of the same quantity disagree.

    Every route is exact, so this signals an internal arithmetic bug.
    """


class NotIntegral(HypergwError):
    """A coefficient that must be an integer is a fraction."""


class MissingColumn(HypergwError):
    """A table operation needs a column that has not been filled."""


class RegularityViolation(HypergwError):
    """A coefficient that must be holomorphic at the origin has a pole there."""

    def __init__(self, degree, order):
        self.degree = degree
        self.order = order
        super().__init__(f"coefficient of degree {degree} has a pole of order {order} at 0")
