"""Exact residue calculus in one variable h, and series local to h = 0.

One representation per job.  RatFunc, a reduced fraction of polynomials
with a monic denominator, serves only where poles away from 0 matter:
residues at other points and at infinity (res_inf f = -res_0 { w^{-2}
f(1/w) }), as in the residue-theorem suite.  Everything local to h = 0
runs on exact Laurent windows at the origin (HLaurent), with no gcd:
USeriesRF is a power series in u whose u^k coefficient is the window
h^-k .. h^(2D+2-k).  On it sit the regularization splitting
1 + Z = exp(eta/h) * (1 + Zbar), Zbar holomorphic at h = 0, and the
residue-moment identities that characterize when it exists.  A residue
at 0, a weighted residue res{ h^p f } and the iterated residue of the
split kernel are each one coefficient read off a window.
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
from .series import QSeries

_ONE = (Fraction(1),)


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


@dataclass(frozen=True)
class HLaurent:
    """Window of a Laurent expansion at h = 0: powers -low .. high.

    low covers the pole order, so every power below -low is 0.
    """

    low: int
    high: int
    coeffs: tuple

    def coeff(self, k):
        if k > self.high:
            raise WindowTooSmall(f"power {k} outside window -{self.low}..{self.high}")
        return self.coeffs[k + self.low] if k >= -self.low else Fraction(0)

    def pole_order_at_zero(self):
        for i, c in enumerate(self.coeffs[: self.low]):
            if c:
                return self.low - i
        return 0

    def __add__(self, other):
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        a = (Fraction(0),) * (low - self.low) + self.coeffs
        b = (Fraction(0),) * (low - other.low) + other.coeffs
        size = low + high + 1
        return HLaurent(low, high, tuple(x + y for x, y in zip(a[:size], b[:size])))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HLaurent(self.low, self.high, tuple(c * other for c in self.coeffs))
        # exact through min(top_a + floor_b, top_b + floor_a)
        lo = -self.low - other.low
        hi = min(self.high - other.low, other.high - self.low)
        size = hi - lo + 1
        out = [Fraction(0)] * size
        for i, x in enumerate(self.coeffs[:size]):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs[: size - i]):
                if y != 0:
                    out[i + j] += x * y
        return HLaurent(-lo, hi, tuple(out))

    __rmul__ = __mul__


def _quotient_window(num, unit, shift, low, high):
    """Window -low..high at h = 0 of h^shift * num / unit, where unit(0) != 0."""
    if shift < -low:
        raise WindowTooSmall(f"pole order {-shift} exceeds window depth {low}")
    order = high - shift
    ser = P.series_mul(num, P.series_inv(unit, order), order) if order >= 0 else ()
    return HLaurent(low, high, ((Fraction(0),) * (low + shift) + ser)[: low + high + 1])


def laurent_at_zero(f, low, high):
    """Exact Laurent window of f at h = 0 for powers -low..high.

    low must cover the pole order; high >= -low.
    """
    if high < -low:
        raise ValueError("empty window")
    m = f.pole_order_at_zero()
    return _quotient_window(f.num, f.den[m:], -m, low, high)


def residue_at(f, a):
    """Coefficient of (h - a)^{-1} in the expansion of f at a; 0 at non-poles."""
    if a:
        if P.eval_poly(f.den, a):
            return Fraction(0)
        f = f.shift(a)
    m = f.pole_order_at_zero()
    return laurent_at_zero(f, m, -1).coeff(-1) if m else Fraction(0)


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
    return laurent_at_zero(f, 0, k).coeff(k)


class USeriesRF:
    """Power series in u, truncated at D, of exact Laurent windows at h = 0.

    The u^k coefficient has pole order at most k and is held as the window
    h^-k .. h^(H-k), H = 2D + 2.  That shape is closed under + and x, and
    covers every read made of it: the moments res{ h^-j z }, j <= D, need
    H >= 2D - 1, the Taylor coefficients of the moment closed form H >= D + 2.
    A RatFunc or polynomial coefficient whose pole order exceeds its u-degree
    raises WindowTooSmall.  (The name dates from RatFunc coefficients.)
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
        top = 2 * truncation + 2
        self.coeffs = tuple(
            laurent_at_zero(c, k, top - k)
            if isinstance(c, RatFunc)
            else _quotient_window((Fraction(c),), P.ONE, 0, k, top - k)
            for k, c in enumerate(coeffs)
        )
        if no_constant and any(self.coeffs[0].coeffs):
            raise NonzeroConstant("series must have no degree-zero term")

    @classmethod
    def _of(cls, windows):
        """Internal: wrap windows that already have the shape of the class."""
        self = object.__new__(cls)
        self.coeffs = tuple(windows)
        return self

    @classmethod
    def from_quotients(cls, terms, truncation=None):
        """The u^k coefficient is h^s * num / unit for terms[k] = (s, num, unit),
        with polynomials num and unit, unit(0) != 0."""
        d = len(terms) - 1 if truncation is None else truncation
        terms = list(terms) + [(0, P.ZERO, P.ONE)] * (d + 1 - len(terms))
        return cls._of(
            _quotient_window(num, unit, s, k, 2 * d + 2 - k)
            for k, (s, num, unit) in enumerate(terms)
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

    def __getitem__(self, d):
        return self.coeffs[d]

    def __eq__(self, other):
        if not isinstance(other, USeriesRF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"USeriesRF(D={self.truncation})"

    def _coerce(self, other):
        if isinstance(other, USeriesRF):
            return other
        if isinstance(other, (int, Fraction)):
            return USeriesRF([other], self.truncation)
        if isinstance(other, QSeries):
            return USeriesRF(other.coeffs)
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
        out = []
        for m in range(min(len(a), len(b))):
            acc = a[0] * b[m]
            for i in range(1, m + 1):
                acc = acc + a[i] * b[m - i]
            out.append(acc)
        return USeriesRF._of(out)

    __rmul__ = __mul__

    def mul_inv_qseries(self, g):
        """Divide by a unit q-series (rational-scalar coefficients)."""
        return self * (QSeries.one(g.truncation) / g)

    def h_euler(self):
        """h u d/du of the series: the u^k coefficient times k h."""
        return USeriesRF._of(
            HLaurent(c.low, c.high, (Fraction(0),) + tuple(x * k for x in c.coeffs[:-1]))
            for k, c in enumerate(self.coeffs)
        )

    def log_one_plus(self):
        """log(1 + self) from k L_k = k z_k - sum_{0<j<k} j L_j z_(k-j);
        self must have no degree-zero term."""
        z = self.coeffs
        if any(z[0].coeffs):
            raise NonzeroConstant("log expansion needs a vanishing constant term")
        out = [z[0]]
        for k in range(1, len(z)):
            acc = z[k] * k
            for j in range(1, k):
                acc = acc + out[j] * z[k - j] * -j
            out.append(acc * Fraction(1, k))
        return USeriesRF._of(out)

    def weighted_residues(self, power=0):
        """QSeries of res_{h=0} { h^power * coeff_d } over u-degrees."""
        return QSeries([c.coeff(-1 - power) for c in self.coeffs])

    def taylor_coeff(self, k):
        return QSeries([c.coeff(k) for c in self.coeffs])

    def is_regular_at_zero(self):
        return all(c.pole_order_at_zero() == 0 for c in self.coeffs)


def exp_over_hbar(eta, sign=1):
    """exp(sign * eta(u) / h) as a USeriesRF; eta must vanish at u = 0.

    The u^k coefficient is sum_{m<=k} ((sign eta)^m)_k / m! * h^-m.
    """
    if eta.constant_term != 0:
        raise NonzeroConstant("exponent series must have no degree-zero term")
    d = eta.truncation
    signed = eta * sign
    powers = [QSeries.one(d)]
    for _ in range(d):
        powers.append(powers[-1] * signed)
    return USeriesRF.from_quotients(
        [(-k, [powers[m][k] / factorial(m) for m in range(k, -1, -1)], P.ONE) for k in range(d + 1)]
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
        power = [QSeries.one(d)] + [QSeries.zero(d)] * d  # g^0
        out = []
        for _ in range(d):
            power = _bivariate_mul(power, g, d, d)
            out.append(power)
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
    eta_log = z.log_one_plus().weighted_residues(0)
    if not regular:
        eta_log = eta_log - zbar.log_one_plus().weighted_residues(0)
    if eta != eta_log:
        raise RoutesDisagree("exponent fixed point and log residue disagree")
    return Regularization(eta, zbar, regular, z, moments)


def _bivariate_mul(a, b, s_order, u_trunc):
    """Product of polynomials in an auxiliary variable s with QSeries coeffs."""
    out = [QSeries.zero(u_trunc) for _ in range(s_order + 1)]
    for i, x in enumerate(a[: s_order + 1]):
        for j, y in enumerate(b[: s_order + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return out


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
    eta_pow = [QSeries.one(d)]
    for _ in range(d):
        eta_pow.append(eta_pow[-1] * reg.eta)
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
            a = a_series[d1]
            b = b_series[m - d1]
            for k in range(m - d1 + 1):
                c = b.coeff(-k)
                if c:
                    val += (-1) ** k * c * a.coeff(k + 1)
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
