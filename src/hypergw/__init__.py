"""Exact genus-0/1 Gromov-Witten invariants of Calabi-Yau hypersurfaces.

Everything reduces to exact arithmetic on truncated power series over the
rationals: a bigraded hypergeometric kernel generates a tower of
t-polynomials, the mirror map, and a family of series in an auxiliary
variable h, local to h = 0; residues, a regularization splitting, and a
handful of combinatorial identities assemble the invariants and the
verification suites.
"""

from .errors import (
    BadConstantTerm,
    BadMirrorMap,
    DivByNonUnit,
    HypergwError,
    MissingColumn,
    NonzeroConstant,
    NotIntegral,
    NotRegularizable,
    PoleTooHigh,
    RegularityViolation,
    RoutesDisagree,
    TruncationMismatch,
    WindowTooSmall,
)
from .hyper import HyperSpec
from .report import IdentityReport
from .residues import RatFunc, USeriesRF
from .series import QSeries, TPoly, WSeries, format_rational

__version__ = "0.1.0"

__all__ = [
    "BadConstantTerm",
    "BadMirrorMap",
    "DivByNonUnit",
    "HyperSpec",
    "HypergwError",
    "IdentityReport",
    "MissingColumn",
    "NonzeroConstant",
    "NotIntegral",
    "NotRegularizable",
    "PoleTooHigh",
    "QSeries",
    "RatFunc",
    "RegularityViolation",
    "RoutesDisagree",
    "TPoly",
    "TruncationMismatch",
    "USeriesRF",
    "WSeries",
    "WindowTooSmall",
    "format_rational",
    "__version__",
]
