"""Exact residue calculus in one variable h, and series local to h = 0.

One representation per job.  RatFunc, a reduced fraction of polynomials
with a monic denominator, serves only where poles away from 0 matter:
residues at other points and at infinity (res_inf f = -res_0 { w^{-2}
f(1/w) }), as in the residue-theorem suite.  Everything local to h = 0
runs on exact Laurent windows at the origin, with no gcd: the window
h^-low .. h^high of f is the power series h^low f truncated at
h^(low + high), a QSeries.  USeriesRF is a power series in u whose u^k
coefficient has pole order at most k; under u = h s it is a list of such
QSeries rows h^k c_k(h), all truncated at one width, multiplied by the
truncated row convolution of the series module.  On it sit the
regularization splitting 1 + Z = exp(eta/h) * (1 + Zbar), Zbar
holomorphic at h = 0, and the residue-moment identities that characterize
when it exists.  A residue at 0, a weighted residue res{ h^p f } and the
iterated residue of the split kernel are each one index into a row.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, factorial, prod

from . import polys as P
from .errors import (
    NonzeroConstant,
    NotRegularizable,
    PoleTooHigh,
    RoutesDisagree,
    WindowTooSmall,
)
from .report import report_equality
from .series import QSeries, convolve_rows, log_one_plus_rows

_ONE = (Fraction(1),)
_ZERO = Fraction(0)


class RatFunc:
    """Reduced rational function in h over the rationals; den is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        num = P.norm(num)
        den = P.norm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), _ONE
            return
        g = P.gcd_poly(num, den)
        if P.degree(g) > 0:
            num = P.exact_div(num, g)
            den = P.exact_div(den, g)
        lc = den[-1]
        if lc != 1:
            num = P.scale(num, 1 / lc)
            den = P.scale(den, 1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num, den):
        """Internal: build from an already-coprime pair (den nonzero)."""
        self = object.__new__(cls)
        num = P.norm(num)
        den = P.norm(den)
        if not num:
            self.num, self.den = (), _ONE
            return self
        lc = den[-1]
        if lc != 1:
            num = P.scale(num, 1 / lc)
            den = P.scale(den, 1 / lc)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_scalar(cls, c):
        c = Fraction(c)
        return cls._reduced((c,) if c else (), _ONE)

    @classmethod
    def variable(cls):
        return cls._reduced((Fraction(0), Fraction(1)), _ONE)

    @classmethod
    def inv_power(cls, k):
        """1/h**k (k >= 0)."""
        return cls._reduced(_ONE, P.mul_xk(_ONE, k))

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.to_str()})"

    def to_str(self, var="h"):
        def poly_str(p):
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                if k == 0:
                    parts.append(f"{c}")
                elif k == 1:
                    parts.append(f"{c}*{var}" if c != 1 else var)
                else:
                    parts.append(f"{c}*{var}^{k}" if c != 1 else f"{var}^{k}")
            return " + ".join(parts).replace("+ -", "- ")

        if self.den == _ONE:
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        g = P.gcd_poly(self.den, other.den)
        if P.degree(g) == 0:
            num = P.add(P.mul(self.num, other.den), P.mul(other.num, self.den))
            return RatFunc._reduced(num, P.mul(self.den, other.den))
        da = P.exact_div(self.den, g)
        db = P.exact_div(other.den, g)
        num = P.add(P.mul(self.num, db), P.mul(other.num, da))
        den = P.mul(self.den, db)
        h = P.gcd_poly(num, g)
        if P.degree(h) > 0:
            num = P.exact_div(num, h)
            den = P.exact_div(den, h)
        return RatFunc._reduced(num, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(P.neg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc._reduced((), _ONE)
        g1 = P.gcd_poly(self.num, other.den)
        g2 = P.gcd_poly(other.num, self.den)
        n1 = self.num if P.degree(g1) == 0 else P.exact_div(self.num, g1)
        d2 = other.den if P.degree(g1) == 0 else P.exact_div(other.den, g1)
        n2 = other.num if P.degree(g2) == 0 else P.exact_div(other.num, g2)
        d1 = self.den if P.degree(g2) == 0 else P.exact_div(self.den, g2)
        return RatFunc._reduced(P.mul(n1, n2), P.mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return self * RatFunc._reduced(other.den, other.num)

    # -- analysis ---------------------------------------------------------

    def evaluate(self, a):
        a = Fraction(a)
        d = P.eval_poly(self.den, a)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {a}")
        return P.eval_poly(self.num, a) / d

    def shift(self, a):
        """The function h -> self(h + a)."""
        return RatFunc._reduced(P.shift(self.num, a), P.shift(self.den, a))

    def pole_order_at_zero(self):
        if self.is_zero():
            return 0
        k = 0
        while self.den[k] == 0:
            k += 1
        return k


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.from_scalar(x)
    return None


def _row(num, unit, shift, width):
    """h^shift * num / unit as a QSeries truncated at h^width, for
    polynomials num and unit with unit(0) != 0; shift < 0 is a pole that
    no power series holds."""
    if shift < 0:
        raise WindowTooSmall(f"pole order {-shift} exceeds the window depth")
    order = width - shift
    ser = P.series_mul(num, P.series_inv(unit, order), order) if order >= 0 else ()
    return QSeries._of(((_ZERO,) * shift + ser)[: width + 1])


def laurent_at_zero(f, low, high):
    """Exact Laurent window of f at h = 0 for powers -low..high, held as the
    power series h^low f truncated at h^(low + high): entry i is
    [h^(i - low)] f.

    low must cover the pole order; high >= -low.
    """
    if high < -low:
        raise ValueError("empty window")
    m = f.pole_order_at_zero()
    return _row(f.num, f.den[m:], low - m, low + high)


def residue_at(f, a):
    """Coefficient of (h - a)^{-1} in the expansion of f at a; 0 at non-poles."""
    if a:
        if P.eval_poly(f.den, a):
            return Fraction(0)
        f = f.shift(a)
    m = f.pole_order_at_zero()
    return laurent_at_zero(f, m, -1)[m - 1] if m else _ZERO


def residue_at_infinity(f):
    """-res_{w=0} { w^{-2} f(1/w) }, the sphere convention."""
    if f.is_zero():
        return Fraction(0)
    p = P.degree(f.num)
    q = P.degree(f.den)
    num_w = P.reverse(f.num, p)
    den_w = P.reverse(f.den, q)
    e = q - p - 2
    if e >= 0:
        g = RatFunc(P.mul_xk(num_w, e), den_w)
    else:
        g = RatFunc(num_w, P.mul_xk(den_w, -e))
    return -residue_at(g, 0)


def taylor_coeff_at_zero(f, k):
    """k-th Taylor coefficient at 0 of a function holomorphic there."""
    return laurent_at_zero(f, 0, k)[k]


class USeriesRF:
    """Power series in u, truncated at D, whose u^k coefficient c_k(h) has
    pole order at most k at h = 0.

    Under u = h s, h^k c_k(h) is a power series in h: row k holds it as a
    QSeries truncated at the width H (one for all rows), the window
    h^-k .. h^(H-k) of c_k.  The product is the row convolution, and each
    row product takes the smaller width, so a product is as narrow as its
    narrowest factor.  A read is one index: [h^p] c_k is row_k[k + p], 0
    below index 0; past the width it raises WindowTooSmall.

    Built from coefficients, H = 2D + 2, which regularize reads: the
    moments res{ h^-j z }, j <= D, need 2D - 1, the Taylor coefficients
    h^q, q <= D + 2, of the moment closed form 2D + 2.  The hyper stages
    read at most entry D + 1 of a row and run narrowed to H = D + 1.  A
    coefficient whose pole order exceeds its u-degree raises
    WindowTooSmall.  (The name dates from RatFunc coefficients.)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, truncation=None, no_constant=False):
        coeffs = list(coeffs)
        if truncation is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation")
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if len(coeffs) > truncation + 1:
            raise ValueError("more coefficients than the stated truncation")
        coeffs.extend([0] * (truncation + 1 - len(coeffs)))
        width = 2 * truncation + 2
        self.coeffs = tuple(
            laurent_at_zero(c, k, width - k)
            if isinstance(c, RatFunc)
            else QSeries.monomial(k, width, c)
            for k, c in enumerate(coeffs)
        )
        if no_constant and any(self.coeffs[0].coeffs):
            raise NonzeroConstant("series must have no degree-zero term")

    @classmethod
    def _of(cls, rows):
        """Internal: wrap rows that already have the shape of the class."""
        self = object.__new__(cls)
        self.coeffs = tuple(rows)
        return self

    @classmethod
    def from_quotients(cls, terms, truncation=None):
        """The u^k coefficient is h^s * num / unit for terms[k] = (s, num, unit),
        with polynomials num and unit, unit(0) != 0."""
        d = len(terms) - 1 if truncation is None else truncation
        terms = list(terms) + [(0, P.ZERO, P.ONE)] * (d + 1 - len(terms))
        return cls._of(
            _row(num, unit, k + s, 2 * d + 2) for k, (s, num, unit) in enumerate(terms)
        )

    @classmethod
    def zero(cls, truncation):
        return cls([], truncation)

    @classmethod
    def one(cls, truncation):
        return cls([1], truncation)

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def narrow(self, width):
        """The series with every row truncated at h^width: reads within the
        new width are unchanged, and products with it cost less."""
        return USeriesRF._of(row.truncate(width) for row in self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d]

    def coeff(self, k, p):
        """[u^k h^p] of the series: entry k + p of row k."""
        i = k + p
        row = self.coeffs[k]
        if i > row.truncation:
            raise WindowTooSmall(f"h^{p} of u^{k} lies past the width {row.truncation}")
        return row.coeffs[i] if i >= 0 else _ZERO

    def __eq__(self, other):
        if not isinstance(other, USeriesRF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"USeriesRF(D={self.truncation}, H={self.coeffs[0].truncation})"

    def _coerce(self, other):
        if isinstance(other, USeriesRF):
            return other
        if isinstance(other, (int, Fraction)):
            return USeriesRF([other], self.truncation)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return USeriesRF._of(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return USeriesRF._of(c * other for c in self.coeffs)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return USeriesRF._of(convolve_rows(a, b, min(len(a), len(b))))

    __rmul__ = __mul__

    def mul_inv_qseries(self, g):
        """Divide by a unit q-series (rational-scalar coefficients)."""
        # the h-free factor goes first: its rows are monomials, and a row
        # product skips the zero entries of its left factor
        return USeriesRF((QSeries.one(g.truncation) / g).coeffs) * self

    def h_euler(self):
        """h u d/du of the series: the u^k coefficient times k h, which is
        row k times k shifted up one place."""
        return USeriesRF._of(
            QSeries._of((_ZERO,) + tuple(x * k for x in row.coeffs[:-1]))
            for k, row in enumerate(self.coeffs)
        )

    def log_one_plus(self):
        """log(1 + self); self must have no degree-zero term."""
        z = self.coeffs
        if any(z[0].coeffs):
            raise NonzeroConstant("log expansion needs a vanishing constant term")
        return USeriesRF._of(log_one_plus_rows(z, z[0]))

    def weighted_residues(self, power=0):
        """QSeries of res_{h=0} { h^power * coeff_d } over u-degrees."""
        return self.taylor_coeff(-1 - power)

    def taylor_coeff(self, q):
        """QSeries of [h^q] coeff_d over u-degrees."""
        return QSeries._of(self.coeff(k, q) for k in range(len(self.coeffs)))

    def is_regular_at_zero(self):
        return not any(any(row.coeffs[:k]) for k, row in enumerate(self.coeffs))


def exp_over_hbar(eta, sign=1):
    """exp(sign * eta(u) / h) as a USeriesRF; eta must vanish at u = 0.

    The u^k coefficient is sum_{m<=k} ((sign eta)^m)_k / m! * h^-m, so row k
    is the polynomial whose h^j coefficient is ((sign eta)^(k-j))_k / (k-j)!.
    """
    if eta.constant_term != 0:
        raise NonzeroConstant("exponent series must have no degree-zero term")
    d = eta.truncation
    signed = eta * sign
    powers = [QSeries.one(d)]
    for _ in range(d):
        powers.append(powers[-1] * signed)
    return USeriesRF._of(
        QSeries([powers[m][k] / factorial(m) for m in range(k, -1, -1)], 2 * d + 2)
        for k in range(d + 1)
    )


@dataclass
class Regularization:
    """1 + z = exp(eta/h) * (1 + zbar), with the moments c_j = res{ h^-j z }."""

    eta: QSeries
    zbar: USeriesRF
    regular: bool
    z: USeriesRF
    moments: list

    @cached_property
    def moment_powers(self):
        """[g^m for m = 1..D] of g(s, u) = sum_j (-1)^j / j! c_j(u) s^j, each a
        polynomial in s truncated at s^D with QSeries coefficients.  They
        depend on the moments alone, so every moment check on this
        regularization shares them."""
        d = self.z.truncation
        g = [c * Fraction((-1) ** j, factorial(j)) for j, c in enumerate(self.moments)]
        power = [QSeries.one(d)]  # g^0
        out = []
        for _ in range(d):
            power = convolve_rows(power, g, d + 1)
            out.append(power)
        return out

    @cached_property
    def eta_powers(self):
        """[eta^p for p = 0..D], shared by the closed-form checks."""
        out = [QSeries.one(self.z.truncation)]
        for _ in range(self.z.truncation):
            out.append(out[-1] * self.eta)
        return out


def regularize(z):
    """Split 1 + z = exp(eta/h) * (1 + zbar) and test zbar for regularity.

    eta is produced by the degree-stabilizing fixed point
        eta_p = sum_{j<=p} (-eta_{p-1})^j / j! * res{ h^{-j} z }
    and cross-checked through log(1 + z) = eta/h + log(1 + zbar):
    eta = res_{h=0} log(1 + z) - res_{h=0} log(1 + zbar), where the last
    residue vanishes when zbar is regular.  A mismatch would be an internal
    arithmetic bug and raises immediately.  The moments res{ h^{-j} z },
    j = 0..D, are kept for the moment checks below.
    """
    if any(z[0].coeffs):
        raise NonzeroConstant("series must have no degree-zero term")
    d = z.truncation
    moments = [z.weighted_residues(-j) for j in range(d + 1)]
    eta = moments[0]
    for _ in range(d):
        neg = -eta
        power = QSeries.one(d)
        acc = QSeries.zero(d)
        for j in range(d + 1):
            acc = acc + power * Fraction(1, factorial(j)) * moments[j]
            power = power * neg
        eta = acc
    zbar = exp_over_hbar(eta, -1) * (USeriesRF.one(d) + z) - USeriesRF.one(d)
    regular = zbar.is_regular_at_zero()
    # the logs are read only at entry k - 1 of row k, so width D covers them
    eta_log = z.narrow(d).log_one_plus().weighted_residues(0)
    if not regular:
        eta_log = eta_log - zbar.narrow(d).log_one_plus().weighted_residues(0)
    if eta != eta_log:
        raise RoutesDisagree("exponent fixed point and log residue disagree")
    return Regularization(eta, zbar, regular, z, moments)


def moment_identity_check(reg, a, which):
    """The residue-moment identities tied to regularizability.

    reg is regularize(z) for the series z under test.
    which = "intrinsic": the criterion that holds exactly when the series
    is regularizable; both sides use only residues of h-powers of z.
    which = "regularized": the evaluation identity whose right side is
    eta^a / (1 + zbar(0, u)); requires a regularizable input.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if which not in ("intrinsic", "regularized"):
        raise ValueError(f"unknown identity kind {which!r}")
    d = reg.z.truncation
    lhs = QSeries.zero(d)
    for m, power in enumerate(reg.moment_powers, start=1):
        if which == "intrinsic":
            if m < 2 or m - 2 - a < 0:
                continue
            lhs = lhs + power[m - 2 - a] * Fraction(1, m * (m - 1))
        else:
            if m - a < 0:
                continue
            lhs = lhs + power[m - a]
    if which == "intrinsic":
        rhs = reg.z.weighted_residues(a + 1) * factorial(a)
        name = "moment-intrinsic"
    else:
        if a == 0:
            lhs = lhs + QSeries.one(d)  # empty-product term
        if not reg.regular:
            raise NotRegularizable("evaluation identity needs a regularizable series")
        denom = QSeries.one(d) + reg.zbar.taylor_coeff(0)
        rhs = reg.eta**a / denom
        name = "moment-regularized"
    pairs = [(f"u^{k}", lhs[k], rhs[k]) for k in range(d + 1)]
    return report_equality(name, {"a": a}, pairs, d)


def moment_closed_form_check(reg, a):
    """Closed form for res{ h^a z } from eta and the Taylor coefficients of zbar.

    reg is regularize(z) for the series z under test.
    """
    d = reg.z.truncation
    if not reg.regular:
        raise NotRegularizable("closed form needs a regularizable series")
    lhs = reg.moments[-a] if 0 <= -a <= d else reg.z.weighted_residues(a)
    rhs = QSeries.zero(d)
    eta_pow = reg.eta_powers
    for p in range(d + 1):
        q = p - 1 - a
        if q < 0:
            continue
        rhs = rhs + eta_pow[p] * Fraction(1, factorial(p)) * reg.zbar.taylor_coeff(q)
    if 0 <= a < d:
        # the lone eta-power term; for a + 1 > d it is zero to this order
        rhs = rhs + eta_pow[a + 1] * Fraction(1, factorial(a + 1))
    pairs = [(f"u^{k}", lhs[k], rhs[k]) for k in range(d + 1)]
    return report_equality("moment-closed-form", {"a": a}, pairs, d)


def residue_of_product_check(fs):
    """Residue of a product of at-most-simple-pole functions as a subset sum.

    The left side is the residue of the reduced global product.  The right
    side reads one window h^-1 .. h^(k-2) per factor (k factors): its h^-1
    entry is the residue r_i, the rest is the Taylor series of the regular
    part f_i - r_i/h.  Each subset S contributes prod_{i in S} r_i times the
    h^(|S|-1) Taylor coefficient of the product of the other regular parts;
    that order is at most k-2 whenever S leaves a factor out (for S = all,
    the product is 1).  The empty subset contributes nothing (its inner
    derivative order would be -1, which is vacuous).
    """
    fs = list(fs)
    for i, f in enumerate(fs):
        if f.pole_order_at_zero() > 1:
            raise PoleTooHigh(f"function {i} has a pole of order > 1 at 0")
    total = prod(fs, start=RatFunc.from_scalar(1))
    lhs = residue_at(total, 0)

    k = len(fs)
    windows = [laurent_at_zero(f, 1, k - 2).coeffs for f in fs]
    res = [w[0] for w in windows]
    rhs = Fraction(0)
    idx = range(k)
    for size in range(1, k + 1):
        for chosen in combinations(idx, size):
            r = prod(res[i] for i in chosen)
            if r == 0:
                continue
            rest = P.ONE
            for i in idx:
                if i not in chosen:
                    rest = P.series_mul(rest, windows[i][1:], size - 1)
            rhs += r * (rest[size - 1] if len(rest) >= size else 0)
    return report_equality(
        "product-residue-expansion",
        {"count": len(fs)},
        [("residue", lhs, rhs)],
        len(fs),
    )


def double_residue_split_kernel(a_series, b_series):
    """Iterated residue res_{h1=0} res_{h2=0} of A(h1) B(h2) / (h1 h2 (h1+h2)).

    The inner residue treats h1 as a nonzero parameter, so 1/(h1+h2) is
    expanded geometrically in h2/h1; the double residue is then
    sum_k (-1)^k [h^-k]B * [h^(k+1)]A, with k up to the pole order of B,
    which is at most its u-degree.
    """
    d = min(a_series.truncation, b_series.truncation)
    out = []
    for m in range(d + 1):
        val = Fraction(0)
        for d1 in range(m + 1):
            for k in range(m - d1 + 1):
                c = b_series.coeff(m - d1, -k)
                if c:
                    val += (-1) ** k * c * a_series.coeff(d1, k + 1)
        out.append(val)
    return QSeries(out)


# -- combinatorial identities -------------------------------------------


@lru_cache(maxsize=8)
def _split_sums(qs):
    """Coefficients of prod_i sum_j C(q_i, j) x^j for a tuple qs.

    Entry b is the sum over splits j_1 + ... + j_k = b of prod_i C(q_i, j_i),
    the left side of the Vandermonde identity.  It is built one binomial row
    at a time by convolution, the row of qs[0] with the sums of qs[1:], never
    from (1 + x)^(sum q), so it stays independent of the right side.  Cached
    because callers ask for every b of one tuple in a row, and tuples that
    differ in their first entry share the sums of the rest.
    """
    if not qs:
        return (1,)
    tail = _split_sums(qs[1:])
    q = qs[0]
    out = [0] * (len(tail) + q)
    for j in range(q + 1):
        c = comb(q, j)
        for i, s in enumerate(tail):
            out[i + j] += c * s
    return tuple(out)


def vandermonde_check(b, qs):
    """Sums of binomial products over split choices match one big binomial."""
    qs = tuple(qs)
    sums = _split_sums(qs)
    lhs = sums[b] if 0 <= b < len(sums) else 0
    rhs = comb(sum(qs), b) if b <= sum(qs) else 0
    return report_equality(
        "binomial-vandermonde", {"b": b, "qs": qs}, [("value", lhs, rhs)], b
    )


def reciprocal_sum_check(q, a):
    """Alternating binomial sum against reciprocals collapses to a beta value."""
    if a < 1:
        raise ValueError("a must be >= 1")
    lhs = sum(Fraction((-1) ** b * comb(q, b), a + b) for b in range(q + 1))
    rhs = Fraction(factorial(a - 1) * factorial(q), factorial(a + q))
    return report_equality(
        "alternating-reciprocal-sum", {"q": q, "a": a}, [("value", lhs, rhs)], q
    )


def rising_product_check(q, a, s):
    """Alternating binomial sum against shifted rising products."""
    if a < 0 or s < 0:
        raise ValueError("a and s must be nonnegative")
    # term b: (-1)^b C(q, b) prod_{a-s<r<=a} (r + b), all in integers
    lhs = Fraction(
        sum((-1) ** b * comb(q, b) * prod(range(a - s + 1 + b, a + 1 + b)) for b in range(q + 1))
    )
    k = s - q
    rhs = Fraction((-1) ** q * factorial(s) * (comb(a, k) if 0 <= k <= a else 0))
    return report_equality(
        "alternating-rising-product",
        {"q": q, "a": a, "s": s},
        [("value", lhs, rhs)],
        max(q, s),
    )
