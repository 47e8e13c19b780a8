"""Exact truncated power series in q = e^t, with t- and w-polynomial layers.

QSeries is the workhorse: a series in q truncated at an inclusive degree
bound, with Fraction coefficients and no rounding anywhere.  Mixing two
truncations always takes the minimum; nothing is ever zero-extended.
TPoly layers a finite polynomial in t on top (t is the logarithm of the
series variable, so d/dt acts as q*d/dq on coefficients), and WSeries
does the same for a formal variable w with its own truncation order.

Every bivariate series of the package (TPoly, WSeries, the window series
of residues.USeriesRF, the moment powers of a regularization) is a list of
rows, each a QSeries in the inner variable.  convolve_rows is their one
truncated product and log_one_plus_rows their one logarithm.
"""

from fractions import Fraction
from functools import lru_cache

from . import polys as P
from .errors import (
    BadConstantTerm,
    BadMirrorMap,
    DivByNonUnit,
    NotTFree,
    TruncationMismatch,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def format_rational(x) -> str:
    """Canonical "p/q" string, plain "p" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


class QSeries:
    """Power series in q truncated at inclusive degree `truncation`."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation=None):
        coeffs = [Fraction(c) for c in coeffs]
        if truncation is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation")
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if len(coeffs) > truncation + 1:
            raise TruncationMismatch(
                f"{len(coeffs)} coefficients exceed truncation {truncation}"
            )
        coeffs.extend([_ZERO] * (truncation + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs)
        self.truncation = truncation

    @classmethod
    def _of(cls, coeffs):
        """Internal: wrap Fraction coefficients that QSeries arithmetic made,
        without coercing them again; the truncation is len(coeffs) - 1."""
        self = object.__new__(cls)
        self.coeffs = tuple(coeffs)
        self.truncation = len(self.coeffs) - 1
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, truncation):
        return cls([], truncation)

    @classmethod
    def one(cls, truncation):
        return cls([_ONE], truncation)

    @classmethod
    def constant(cls, c, truncation):
        return cls([Fraction(c)], truncation)

    @classmethod
    def monomial(cls, d, truncation, c=1):
        if d > truncation:
            raise TruncationMismatch(f"monomial degree {d} exceeds truncation {truncation}")
        return cls([_ZERO] * d + [Fraction(c)], truncation)

    # -- access ----------------------------------------------------------

    def __getitem__(self, d):
        if not 0 <= d <= self.truncation:
            raise TruncationMismatch(
                f"coefficient q^{d} outside stored range 0..{self.truncation}"
            )
        return self.coeffs[d]

    @property
    def constant_term(self):
        return self.coeffs[0]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def truncate(self, truncation):
        if truncation > self.truncation:
            raise TruncationMismatch(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        return QSeries._of(self.coeffs[: truncation + 1])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.truncation))

    def __repr__(self):
        shown = ", ".join(format_rational(c) for c in self.coeffs[:6])
        more = ", ..." if self.truncation > 5 else ""
        return f"QSeries([{shown}{more}], D={self.truncation})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries.constant(other, self.truncation)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = min(self.truncation, other.truncation)
        return QSeries._of([self.coeffs[k] + other.coeffs[k] for k in range(d + 1)])

    __radd__ = __add__

    def __neg__(self):
        return QSeries._of([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return QSeries._of([c * r for c in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        d = min(self.truncation, other.truncation)
        return QSeries._of(P.series_mul(self.coeffs, other.coeffs, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            if r == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / r)
        if not isinstance(other, QSeries):
            return NotImplemented
        if other.constant_term == 0:
            raise DivByNonUnit("divisor has zero constant term")
        d = min(self.truncation, other.truncation)
        out = [_ZERO] * (d + 1)
        b0 = other.coeffs[0]
        for k in range(d + 1):
            s = self.coeffs[k]
            for j in range(1, min(k, other.truncation) + 1):
                s -= other.coeffs[j] * out[k - j]
            out[k] = s / b0
        return QSeries._of(out)

    def __rtruediv__(self, other):
        return QSeries.constant(other, self.truncation) / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("integer power must be a nonnegative int")
        out = QSeries.one(self.truncation)
        base = self
        while k:  # binary powering: O(log k) products
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- calculus ----------------------------------------------------------

    def derivative(self):
        """d/dt with q = e^t, i.e. q*d/dq; keeps the truncation."""
        return QSeries._of([d * c for d, c in enumerate(self.coeffs)])

    def exp(self):
        if self.constant_term != 0:
            raise BadConstantTerm("exp", self.constant_term)
        d = self.truncation
        out = [_ONE] + [_ZERO] * d
        for k in range(1, d + 1):
            s = _ZERO
            for j in range(1, k + 1):
                s += j * self.coeffs[j] * out[k - j]
            out[k] = s / k
        return QSeries._of(out)

    def log(self):
        if self.constant_term != 1:
            raise BadConstantTerm("log", self.constant_term)
        return QSeries._of(log_one_plus_rows(self.coeffs, _ZERO))

    def power(self, r):
        """f**r for rational r, via exp(r*log f); needs f(0) = 1."""
        if self.constant_term != 1:
            raise BadConstantTerm("pow", self.constant_term)
        return (self.log() * Fraction(r)).exp()

    def compose(self, inner):
        """self(inner(q)); inner must have zero constant term."""
        if inner.constant_term != 0:
            raise BadConstantTerm("compose", inner.constant_term)
        d = min(self.truncation, inner.truncation)
        acc = QSeries.constant(self.coeffs[d], d)
        for k in range(d - 1, -1, -1):
            acc = acc * inner.truncate(d) + self.coeffs[k]
        return acc


class TPoly:
    """Polynomial in t whose coefficients are QSeries (all one truncation).

    The zero polynomial is canonically the single zero entry, so t-freeness
    tests are deterministic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        d = min(c.truncation for c in coeffs)
        coeffs = [c.truncate(d) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, truncation):
        return cls([QSeries.zero(truncation)])

    @classmethod
    def from_qseries(cls, f):
        return cls([f])

    @classmethod
    def t_variable(cls, truncation):
        return cls([QSeries.zero(truncation), QSeries.one(truncation)])

    @property
    def truncation(self):
        return self.coeffs[0].truncation

    @property
    def t_degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if k >= len(self.coeffs):
            return QSeries.zero(self.truncation)
        return self.coeffs[k]

    def __eq__(self, other):
        if isinstance(other, QSeries):
            other = TPoly.from_qseries(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly(t-degree {self.t_degree}, D={self.truncation})"

    def _coerce(self, other):
        if isinstance(other, TPoly):
            return other
        if isinstance(other, QSeries):
            return TPoly.from_qseries(other)
        if isinstance(other, (int, Fraction)):
            return TPoly.from_qseries(QSeries.constant(other, self.truncation))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly([c * other for c in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TPoly(convolve_rows(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def div_qseries(self, g):
        """Divide every t-coefficient by the unit q-series g."""
        return TPoly([c / g for c in self.coeffs])

    def d_dt(self):
        """Total t-derivative: lowers t-powers and differentiates coefficients."""
        n = len(self.coeffs)
        out = []
        for k in range(n):
            term = self.coeffs[k].derivative()
            if k + 1 < n:
                term = term + (k + 1) * self.coeffs[k + 1]
            out.append(term)
        return TPoly(out)

    def is_t_free(self):
        return all(c.is_zero() for c in self.coeffs[1:])

    def t_free_part(self):
        """The t-power-0 coefficient, provided everything above vanishes."""
        for k, c in enumerate(self.coeffs[1:], start=1):
            for d, v in enumerate(c.coeffs):
                if v != 0:
                    raise NotTFree(k, d, v)
        return self.coeffs[0]


class WSeries:
    """Polynomial in w (truncated at worder) with QSeries coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        d = min(c.truncation for c in coeffs)
        self.coeffs = tuple(c.truncate(d) for c in coeffs)

    @classmethod
    def zero(cls, worder, truncation):
        return cls([QSeries.zero(truncation) for _ in range(worder + 1)])

    @classmethod
    def one(cls, worder, truncation):
        z = cls.zero(worder, truncation)
        return cls([QSeries.one(truncation)] + list(z.coeffs[1:]))

    @classmethod
    def from_w_poly(cls, poly_coeffs, worder, truncation):
        """Lift a plain polynomial in w (rational coefficients) to a WSeries."""
        out = [QSeries.zero(truncation) for _ in range(worder + 1)]
        for j, c in enumerate(poly_coeffs[: worder + 1]):
            out[j] = QSeries.constant(c, truncation)
        return cls(out)

    @property
    def worder(self):
        return len(self.coeffs) - 1

    @property
    def truncation(self):
        return self.coeffs[0].truncation

    def coeff(self, j):
        if not 0 <= j <= self.worder:
            raise TruncationMismatch(f"w^{j} outside stored range 0..{self.worder}")
        return self.coeffs[j]

    def __eq__(self, other):
        if not isinstance(other, WSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"WSeries(W={self.worder}, D={self.truncation})"

    def __add__(self, other):
        if not isinstance(other, WSeries):
            return NotImplemented
        w = min(self.worder, other.worder)
        return WSeries([self.coeffs[j] + other.coeffs[j] for j in range(w + 1)])

    def __neg__(self):
        return WSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QSeries)):
            return WSeries([c * other for c in self.coeffs])
        if not isinstance(other, WSeries):
            return NotImplemented
        w = min(self.worder, other.worder)
        return WSeries(convolve_rows(self.coeffs, other.coeffs, w + 1))

    __rmul__ = __mul__

    def div_qseries(self, g):
        return WSeries([c / g for c in self.coeffs])

    def log(self):
        """Bigraded logarithm; the (w^0, q^0) coefficient must be 1.

        With z = (f - f0)/f0 (no w^0 term), log f = log f0 + log(1 + z).
        """
        f0 = self.coeffs[0]
        if f0.constant_term != 1:
            raise BadConstantTerm("log", f0.constant_term)
        z = [None] + [c / f0 for c in self.coeffs[1:]]
        return WSeries(log_one_plus_rows(z, f0.log()))


def convolve_rows(a, b, length):
    """Rows 0..length-1 (length <= len(a) + len(b) - 1) of the product of
    two series of QSeries rows: row m is sum_{i+j=m} a[i] * b[j], at the
    smaller truncation of the two, as every QSeries product."""
    out = []
    for m in range(length):
        lo = max(0, m - len(b) + 1)
        acc = a[lo] * b[m - lo]
        for i in range(lo + 1, min(m, len(a) - 1) + 1):
            acc = acc + a[i] * b[m - i]
        out.append(acc)
    return out


def log_one_plus_rows(z, head):
    """Rows of log(1 + z), row 0 being head, for z with no row 0 (z[0] is
    not read); rows are QSeries, or scalars for QSeries.log.  Row k solves
    k L_k = k z_k - sum_{0<j<k} j L_j z_(k-j)."""
    out = [head]
    weighted = [None]  # j L_j
    for k in range(1, len(z)):
        row = z[k]
        if k > 1:
            acc = weighted[1] * z[k - 1]
            for j in range(2, k):
                acc = acc + weighted[j] * z[k - j]
            row = row - acc * Fraction(1, k)
        out.append(row)
        weighted.append(row * k)
    return out


def exp_coordinate_inverse(g):
    """Compositional inverse of the coordinate change Q = q*exp(g(q)).

    Returns q as a series in Q, by the degree-stabilizing fixed point
    x <- Q*exp(-g(x)), O(D^4).  g must vanish at the origin.  Composing
    with it is the reference route for change_exp_variable.
    """
    if g.constant_term != 0:
        raise BadMirrorMap("shift series must vanish at the origin")
    d = g.truncation
    x = QSeries.monomial(1, d) if d >= 1 else QSeries.zero(d)
    for _ in range(d):
        x = QSeries.monomial(1, d) * (-g.compose(x)).exp()
    return x


@lru_cache(maxsize=4)
def _lagrange_powers(g):
    """exp(-k g) for k = 1..D (D = g's truncation), the k-th as a coefficient
    tuple truncated at q^(k-1), which is all that [Q^k] reads.  Each comes from
    the exp recurrence m c_m = -k sum_j j g_j c_(m-j): O(D^3) in all.  Cached
    per shift, so the extractions of one table share them."""
    jg = [j * c for j, c in enumerate(g.coeffs)]
    out = []
    for k in range(1, g.truncation + 1):
        p = [_ONE] * k
        for m in range(1, k):
            s = _ZERO
            for j in range(1, m + 1):
                s += jg[j] * p[m - j]
            p[m] = s * Fraction(-k, m)
        out.append(tuple(p))
    return tuple(out)


def change_exp_variable(f, g):
    """Re-expand f(q) as a series in Q = q*exp(g(q)).

    By Lagrange-Buermann inversion, [Q^0] = f(0) and
        [Q^k] = (1/k) [q^(k-1)] f'(q) exp(-k g(q)) = (1/k) [q^k] (q f') exp(-k g),
    with no series reversion.  Equal to f composed with
    exp_coordinate_inverse(g), to the common truncation.
    """
    d = min(f.truncation, g.truncation)
    g = g.truncate(d)
    if g.constant_term != 0:
        raise BadMirrorMap("shift series must vanish at the origin")
    df = f.truncate(d).derivative().coeffs  # q f'(q)
    out = [f.coeffs[0]]
    for k, p in enumerate(_lagrange_powers(g), start=1):
        s = _ZERO
        for j in range(1, k + 1):
            s += df[j] * p[k - j]
        out.append(s / k)
    return QSeries(out)


def inverse_exp_shift(g):
    """The shift h with q = Q*exp(h(Q)) inverting Q = q*exp(g(q))."""
    inv = exp_coordinate_inverse(g)
    return -g.compose(inv)
