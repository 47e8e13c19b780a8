"""Exact residue calculus on rational functions of one variable h.

RatFunc is a reduced fraction of Fraction-coefficient polynomials with a
monic denominator, so equality is structural.  On top of it sit Laurent
windows at the origin, the residue at infinity in the convention
res_inf f = -res_0 { w^{-2} f(1/w) }, power series in u with RatFunc
coefficients, and the regularization machinery: splitting 1 + Z as
exp(eta/h) * (1 + Zbar) with Zbar holomorphic at h = 0, together with the
residue-moment identities that characterize when such a splitting exists.

Every question local to h = 0 (a residue there, a weighted residue
res{ h^p f }, the iterated residue of the split kernel) is answered by
reading one coefficient off the Laurent window of f at 0, with no product,
shift or gcd.  Only residues at other points shift the function.
"""

from dataclasses import dataclass
from fractions import Fraction
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

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("power must be a nonnegative int")
        out = RatFunc.from_scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

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
    """Window of a Laurent expansion at h = 0: powers -low .. high."""

    low: int
    high: int
    coeffs: tuple

    def coeff(self, k):
        if not -self.low <= k <= self.high:
            raise WindowTooSmall(f"power {k} outside window -{self.low}..{self.high}")
        return self.coeffs[k + self.low]

    def __add__(self, other):
        lo = min(-self.low, -other.low)
        hi = min(self.high, other.high)
        return HLaurent(
            -lo,
            hi,
            tuple(
                (self.coeff(k) if -self.low <= k else Fraction(0))
                + (other.coeff(k) if -other.low <= k else Fraction(0))
                for k in range(lo, hi + 1)
            ),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HLaurent(self.low, self.high, tuple(c * other for c in self.coeffs))
        # exact through min(top_a + floor_b, top_b + floor_a)
        lo = -self.low - other.low
        hi = min(self.high - other.low, other.high - self.low)
        out = [Fraction(0)] * (hi - lo + 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                k = (i - self.low) + (j - other.low)
                if k > hi:
                    break
                if y != 0:
                    out[k - lo] += x * y
        return HLaurent(-lo, hi, tuple(out))

    __rmul__ = __mul__


def laurent_at_zero(f, low, high):
    """Exact Laurent window of f at h = 0 for powers -low..high.

    low must cover the pole order; high >= -low.
    """
    if high < -low:
        raise ValueError("empty window")
    m = f.pole_order_at_zero()
    if m > low:
        raise WindowTooSmall(f"pole order {m} exceeds window depth {low}")
    if f.is_zero():
        return HLaurent(low, high, (Fraction(0),) * (low + high + 1))
    unit = f.den[m:]
    order = high + m
    if order < 0:
        return HLaurent(low, high, (Fraction(0),) * (low + high + 1))
    ser = P.series_mul(f.num, P.series_inv(unit, order), order)
    out = []
    for k in range(-low, high + 1):
        idx = k + m
        out.append(ser[idx] if 0 <= idx <= order else Fraction(0))
    return HLaurent(low, high, tuple(out))


def laurent_coeff_at_zero(f, k):
    """Coefficient of h^k in the Laurent expansion of f at h = 0."""
    m = f.pole_order_at_zero()
    if k < -m:
        return Fraction(0)
    return laurent_at_zero(f, m, k).coeff(k)


def residue_at(f, a):
    """Coefficient of (h - a)^{-1} in the expansion of f at a; 0 at non-poles."""
    if not a:
        return laurent_coeff_at_zero(f, -1)
    if P.eval_poly(f.den, a):
        return Fraction(0)
    return laurent_coeff_at_zero(f.shift(a), -1)


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
    """Power series in u truncated at `truncation`, RatFunc coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, truncation=None, no_constant=False):
        coeffs = [c if isinstance(c, RatFunc) else RatFunc.from_scalar(c) for c in coeffs]
        if truncation is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation")
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if len(coeffs) > truncation + 1:
            raise ValueError("more coefficients than the stated truncation")
        coeffs.extend([RatFunc.from_scalar(0)] * (truncation + 1 - len(coeffs)))
        if no_constant and not coeffs[0].is_zero():
            raise NonzeroConstant("series must have no degree-zero term")
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, truncation):
        return cls([], truncation)

    @classmethod
    def one(cls, truncation):
        return cls([RatFunc.from_scalar(1)], truncation)

    @classmethod
    def from_qseries(cls, f):
        return cls([RatFunc.from_scalar(c) for c in f.coeffs])

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
        if isinstance(other, (int, Fraction, RatFunc)):
            out = [RatFunc.from_scalar(0)] * (self.truncation + 1)
            out[0] = other if isinstance(other, RatFunc) else RatFunc.from_scalar(other)
            return USeriesRF(out)
        if isinstance(other, QSeries):
            return USeriesRF.from_qseries(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = min(self.truncation, other.truncation)
        return USeriesRF([self.coeffs[k] + other.coeffs[k] for k in range(d + 1)])

    __radd__ = __add__

    def __neg__(self):
        return USeriesRF([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            r = other if isinstance(other, RatFunc) else RatFunc.from_scalar(other)
            return USeriesRF([c * r for c in self.coeffs])
        if isinstance(other, QSeries):
            other = USeriesRF.from_qseries(other)
        if not isinstance(other, USeriesRF):
            return NotImplemented
        d = min(self.truncation, other.truncation)
        out = [RatFunc.from_scalar(0) for _ in range(d + 1)]
        for i, x in enumerate(self.coeffs[: d + 1]):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs[: d + 1 - i]):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return USeriesRF(out)

    __rmul__ = __mul__

    def mul_inv_qseries(self, g):
        """Divide by a unit q-series (rational-scalar coefficients)."""
        return self * (QSeries.one(g.truncation) / g)

    def log_one_plus(self):
        """log(1 + self); self must have no degree-zero term."""
        if not self.coeffs[0].is_zero():
            raise NonzeroConstant("log expansion needs a vanishing constant term")
        d = self.truncation
        out = USeriesRF.zero(d)
        power = USeriesRF.one(d)
        sign = 1
        for m in range(1, d + 1):
            power = power * self
            out = out + power * Fraction(sign, m)
            sign = -sign
        return out

    def weighted_residues(self, power=0):
        """QSeries of res_{h=0} { h^power * coeff_d } over u-degrees."""
        return QSeries([laurent_coeff_at_zero(c, -1 - power) for c in self.coeffs])

    def taylor_coeff(self, k):
        return QSeries([taylor_coeff_at_zero(c, k) for c in self.coeffs])

    def is_regular_at_zero(self):
        return all(c.pole_order_at_zero() == 0 for c in self.coeffs)


def exp_over_hbar(eta, sign=1):
    """exp(sign * eta(u) / h) as a USeriesRF; eta must vanish at u = 0."""
    if eta.constant_term != 0:
        raise NonzeroConstant("exponent series must have no degree-zero term")
    d = eta.truncation
    signed = eta * sign
    powers = [QSeries.one(d)]
    for _ in range(d):
        powers.append(powers[-1] * signed)
    out = []
    for deg in range(d + 1):
        # coefficient of u^deg: sum_m (signed^m)_deg / m! * h^{-m}
        num = [Fraction(0)] * (deg + 1)
        for m in range(deg + 1):
            num[deg - m] = powers[m][deg] / factorial(m)
        out.append(RatFunc(num, P.mul_xk(_ONE, deg)))
    return USeriesRF(out)


@dataclass
class Regularization:
    """1 + z = exp(eta/h) * (1 + zbar), with the moments c_j = res{ h^-j z }."""

    eta: QSeries
    zbar: USeriesRF
    regular: bool
    z: USeriesRF
    moments: list


def regularize(z):
    """Split 1 + z = exp(eta/h) * (1 + zbar) and test zbar for regularity.

    eta is produced by the degree-stabilizing fixed point
        eta_p = sum_{j<=p} (-eta_{p-1})^j / j! * res{ h^{-j} z }
    and cross-checked against res_{h=0} log(1 + z); a mismatch would be an
    internal arithmetic bug and raises immediately.  The moments
    res{ h^{-j} z }, j = 0..D, are kept for the moment checks below.
    """
    if not z.coeffs[0].is_zero():
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
    eta_log = z.log_one_plus().weighted_residues(0)
    if eta != eta_log:
        raise RoutesDisagree("exponent fixed point and log residue disagree")
    zbar = exp_over_hbar(eta, -1) * (USeriesRF.one(d) + z) - USeriesRF.one(d)
    return Regularization(eta, zbar, zbar.is_regular_at_zero(), z, moments)


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
    # g(s, u) = sum_j (-1)^j / j! c_j(u) s^j
    g = [c * Fraction((-1) ** j, factorial(j)) for j, c in enumerate(reg.moments)]

    lhs = QSeries.zero(d)
    power = [QSeries.one(d)] + [QSeries.zero(d)] * d  # g^0
    for m in range(1, d + 1):
        power = _bivariate_mul(power, g, d, d)
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

    The empty subset contributes nothing (its inner derivative order would
    be -1, which is vacuous).
    """
    fs = list(fs)
    for i, f in enumerate(fs):
        if f.pole_order_at_zero() > 1:
            raise PoleTooHigh(f"function {i} has a pole of order > 1 at 0")
    total = prod(fs, start=RatFunc.from_scalar(1))
    lhs = residue_at(total, 0)

    res = [residue_at(f, 0) for f in fs]
    reg = [f - RatFunc.inv_power(1) * r for f, r in zip(fs, res)]
    rhs = Fraction(0)
    idx = range(len(fs))
    for size in range(1, len(fs) + 1):
        for chosen in combinations(idx, size):
            r = prod(res[i] for i in chosen)
            if r == 0:
                continue
            rest = prod(
                (reg[i] for i in idx if i not in chosen), start=RatFunc.from_scalar(1)
            )
            rhs += r * taylor_coeff_at_zero(rest, size - 1)
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
    sum_k (-1)^k [h^-k]B * [h^(k+1)]A, with k up to the pole order of B.
    """
    d = min(a_series.truncation, b_series.truncation)
    out = []
    for m in range(d + 1):
        val = Fraction(0)
        for d1 in range(m + 1):
            a = a_series[d1]
            b = b_series[m - d1]
            if a.is_zero():
                continue
            for k in range(b.pole_order_at_zero() + 1):
                c = laurent_coeff_at_zero(b, -k)
                if c:
                    val += (-1) ** k * c * laurent_coeff_at_zero(a, k + 1)
        out.append(val)
    return QSeries(out)


# -- combinatorial identities -------------------------------------------


def vandermonde_check(b, qs):
    """Sums of binomial products over split choices match one big binomial."""
    qs = list(qs)

    def split_sum(remaining, budget):
        if not remaining:
            return 1 if budget == 0 else 0
        q0 = remaining[0]
        return sum(
            comb(q0, j) * split_sum(remaining[1:], budget - j)
            for j in range(min(q0, budget) + 1)
        )

    lhs = split_sum(qs, b)
    rhs = comb(sum(qs), b) if b <= sum(qs) else 0
    return report_equality(
        "binomial-vandermonde", {"b": b, "qs": tuple(qs)}, [("value", lhs, rhs)], b
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
    lhs = Fraction(0)
    for b in range(q + 1):
        term = Fraction(1)
        for r in range(a - s + 1, a + 1):
            term *= r + b
        lhs += (-1) ** b * comb(q, b) * term
    k = s - q
    rhs = Fraction((-1) ** q * factorial(s) * (comb(a, k) if 0 <= k <= a else 0))
    return report_equality(
        "alternating-rising-product",
        {"q": q, "a": a, "s": s},
        [("value", lhs, rhs)],
        max(q, s),
    )
