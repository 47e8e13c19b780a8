"""Exact residue calculus in one variable h, and series local to h = 0.

One representation per job.  RatFunc, a reduced fraction of integer
polynomials, serves only where poles away from 0 matter: residues at
other points and at infinity (res_inf f = -res_0 { w^{-2} f(1/w) }).  Its
callers, the residue-theorem trials of the residues suite, the dump
--what Q pairs and the boundary weight of the locus split, build it with
from_coprime from a pair reduced by the factors they know
(polys._cancel_factors), with no gcd.  Its arithmetic stays in Z[h] and
reduces in one place (_lowest_terms: a primitive pseudo-remainder gcd,
divided out exactly by Gauss's lemma).  The residue kernels return
integer pairs (c, q) of the residue c / q.  A residue at s/t takes the
Taylor coefficients of the denominator there by the Taylor shift
(repeated synthetic division), one round per coefficient: its leading
zeros count the pole order m, and the quotient reads only the next m
coefficients of the unit and the first m of the numerator, so only those
rounds run; one fraction-free quotient (polys._quotient_head) reads them,
and no division is ever tried.
Everything local to h = 0 runs on exact Laurent windows at the origin,
all built by _row with no gcd: the window h^-low .. h^high of f is the
power series h^low f truncated at h^(low + high), a QSeries.  USeriesRF
is a power series in u whose u^k coefficient has pole order at most k;
under u = h s it is a list of such QSeries rows h^k c_k(h), all truncated
at one width, multiplied by the truncated row convolution of the series
module.  On it sit the regularization splitting
1 + Z = exp(eta/h) * (1 + Zbar), Zbar holomorphic at h = 0, and the
residue-moment identities that characterize when it exists.  A residue
at 0, a weighted residue res{ h^p f } and the iterated residue of the
split kernel are each one index into a row.  The residue-of-a-product
trials and the combinatorial identities run on plain integers: a factor
with at most a simple pole at 0 is the integer list of h f, its subset
sum grows each complement's product from its parent's, and the
Vandermonde left sides are built level by level, one big-integer product
per tuple.
"""

from fractions import Fraction
from functools import cached_property
from itertools import islice, product
from math import comb, factorial, perm, prod
from math import lcm as _lcm
from math import gcd as _int_gcd
from operator import mul

from . import polys as P
from .errors import (
    NonzeroConstant,
    NotRegularizable,
    RoutesDisagree,
    WindowTooSmall,
)
from .report import Record, equality_failure, series_failure
from .series import (
    QSeries,
    _scaled_rows,
    convolve_rows,
    format_rational,
    geometric_rows,
    log_one_plus_rows,
)

_ONE = (1,)


class RatFunc:
    """Reduced rational function in h over the rationals.

    Held as two integer coefficient tuples in one canonical form: numerator
    and denominator coprime over Q, joint integer content 1, and a positive
    leading coefficient of the denominator.  Each function has exactly one
    such form, so equality compares the tuples.  num and den are the
    boundary view, Fraction tuples with a monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=_ONE):
        n, dn = P._scaled([P._exact(c) for c in num])
        d, dd = P._scaled([P._exact(c) for c in den])
        P._strip(n)
        P._strip(d)
        if not d:
            raise ZeroDivisionError("zero denominator")
        if dn != dd:  # num/den = (n dd) / (d dn)
            n = [c * dd for c in n]
            d = [c * dn for c in d]
        self._num, self._den = _lowest_terms(n, d)

    @classmethod
    def from_coprime(cls, num, den):
        """num/den for integer sequences without trailing zeros, den nonzero,
        that the caller knows to be coprime over Q (as when every known
        irreducible factor of den has been divided out): no gcd runs, only
        the content and sign normalization of _canonical.  A pair with a
        common factor breaks the canonical form, and with it equality."""
        return cls._of(_canonical(num, den))

    @classmethod
    def _of(cls, pair):
        """Internal: wrap a pair of tuples already in the canonical form."""
        self = object.__new__(cls)
        self._num, self._den = pair
        return self

    @classmethod
    def from_scalar(cls, c):
        c = P._exact(c)
        return cls._of(_canonical([c.numerator] if c else [], [c.denominator]))

    @property
    def num(self):
        lc = self._den[-1]
        return tuple(Fraction(c, lc) for c in self._num)

    @property
    def den(self):
        lc = self._den[-1]
        return tuple(Fraction(c, lc) for c in self._den)

    def is_zero(self):
        return not self._num

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a constant hashes like the scalar it equals
        if len(self._den) == 1 and len(self._num) <= 1:
            return hash(Fraction(self._num[0], self._den[0]) if self._num else 0)
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RatFunc({self.to_str()})"

    def to_str(self, var="h"):
        lc = self._den[-1]

        def poly_str(p):  # the coefficients c / lc, as num and den give them
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                c = format_rational(c, lc)
                if k == 0:
                    parts.append(c)
                elif k == 1:
                    parts.append(f"{c}*{var}" if c != "1" else var)
                else:
                    parts.append(f"{c}*{var}^{k}" if c != "1" else f"{var}^{k}")
            return " + ".join(parts).replace("+ -", "- ")

        if len(self._den) == 1:
            return poly_str(self._num)
        return f"({poly_str(self._num)}) / ({poly_str(self._den)})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, self._den
        c, d = other._num, other._den
        if not a:
            return other
        if not c:
            return self
        num = _add(P._mul_ints(a, d), P._mul_ints(c, b))
        return RatFunc._of(_lowest_terms(num, P._mul_ints(b, d)))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._of((tuple(-c for c in self._num), self._den))

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
        num = P._mul_ints(self._num, other._num)
        return RatFunc._of(_lowest_terms(num, P._mul_ints(self._den, other._den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return self * RatFunc._of(_canonical(other._den, other._num))

    # -- analysis ---------------------------------------------------------

    def shift(self, a):
        """The function h -> self(h + a)."""
        return RatFunc(P.shift(self.num, a), P.shift(self.den, a))

    def pole_order_at_zero(self):
        if self.is_zero():
            return 0
        k = 0
        while self._den[k] == 0:
            k += 1
        return k


def _add(x, y):
    """Sum of two integer lists, without trailing zeros."""
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    P._strip(out)
    return out


def _lowest_terms(num, den):
    """The canonical tuples of num/den for integer lists without trailing
    zeros, den nonzero: their gcd divided out, then _canonical."""
    if num:
        g = P._gcd_ints(num, den)
        if len(g) > 1:
            num, den = P._div_exact(num, g), P._div_exact(den, g)
    return _canonical(num, den)


def _canonical(num, den):
    """The canonical tuples of num/den for coprime integer lists without
    trailing zeros: divided by their joint content, the sign moved so the
    leading coefficient of den is positive."""
    if not num:
        return (), (1,)
    g = _int_gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        return tuple(c // g for c in num), tuple(c // g for c in den)
    return tuple(num), tuple(den)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.from_scalar(x)
    return None


def _row(num, unit, shift, width):
    """h^shift * num / unit as a QSeries truncated at h^width, for integer
    lists num and unit with unit(0) != 0; shift < 0 is a pole that no power
    series holds.  The quotient is one integer recurrence
    (polys._recurrence), whose running denominator stays small:
    polys._quotient_head carries unit(0)^(order + 1), and on it the rows of
    verify --n 5 --order 24 (width 50) take about eight times as long."""
    if shift < 0:
        raise WindowTooSmall(f"pole order {-shift} exceeds the window depth")
    order = width - shift  # below 0 the recurrence solves no entry
    rhs, weights = (num[: order + 1], 1), (unit[: order + 1], 1)
    ints, den = P._recurrence(rhs, weights, lambda m: (1, unit[0]), order)
    return QSeries._of(([0] * shift + ints)[: width + 1], den)


def laurent_at_zero(f, low, high):
    """Exact Laurent window of f at h = 0 for powers -low..high, held as the
    power series h^low f truncated at h^(low + high): entry i is
    [h^(i - low)] f.

    low must cover the pole order; high >= -low.
    """
    if high < -low:
        raise ValueError("empty window")
    m = f.pole_order_at_zero()
    return _row(f._num, f._den[m:], low - m, low + high)


def residue_at(f, a):
    """Coefficient of (h - a)^{-1} in the expansion of f at a; 0 at non-poles."""
    a = P._exact(a)
    return Fraction(*residue_pair_at(f, a.numerator, a.denominator))


def residue_pair_at(f, s, t):
    """(c, q) of the residue c / q of f at s/t, t > 0; (0, 1) at non-poles.

    With x = t h - s, an integer list p of degree k has
    t^k p(h) = sum_j e_j x^j, read off by the Taylor shift one round per
    e_j.  The e_j of den vanish below the pole order m and the rest expand
    its unit, so the residue is t^(deg den - deg num - 1) times [x^(m-1)]
    of the fraction-free series quotient (polys._quotient_head)
    sum_j e_j(num) x^j / sum_j e_(m+j)(den) x^j, which reads e_0..e_(m-1)
    of num and e_m..e_(2m-1) of den: only those rounds of each shift run,
    and one round at a non-pole.
    """
    num, den = f._num, f._den
    rounds = P._taylor_rounds(den, s, t)
    m = 0
    while not (lead := next(rounds)):  # den has a nonzero e_(deg den)
        m += 1
    if not m:
        return 0, 1
    unit = [lead, *islice(rounds, m - 1)]
    ints, q = P._quotient_head(list(islice(P._taylor_rounds(num, s, t), m)), unit, m - 1)
    e = len(den) - len(num) - 1
    c = ints[m - 1]
    return (c * t**e, q) if e >= 0 else (c, q * t**-e)


def residue_pair_at_infinity(f):
    """(c, q) of c / q = -res_{w=0} { w^{-2} f(1/w) }, the sphere convention.

    With k = deg num - deg den + 1, w^{-2} f(1/w) = w^(-k-1) num_w / den_w
    for the reversals num_w, den_w, and den_w(0) != 0, so the residue is
    -[w^k] num_w / den_w, one fraction-free series quotient
    (polys._quotient_head).
    """
    k = len(f._num) - len(f._den) + 1
    if not f._num or k < 0:
        return 0, 1
    ints, den = P._quotient_head(f._num[::-1], f._den[::-1], k)
    return -ints[k], den


class USeriesRF:
    """Power series in u, truncated at D, whose u^k coefficient c_k(h) has
    pole order at most k at h = 0.

    Under u = h s, h^k c_k(h) is a power series in h: row k holds it as a
    QSeries truncated at the width H (one for all rows), the window
    h^-k .. h^(H-k) of c_k.  The product is the row convolution, and each
    row product takes the smaller width, so a product is as narrow as its
    narrowest factor.  A read is one index: [h^p] c_k is row_k[k + p], 0
    below index 0; past the width it raises WindowTooSmall.

    One builder, from_quotients, takes the u^k coefficients as quotients
    h^s num / unit at H = 2D + 2, for the moment closed form on the
    regularize suite's constructed series, the one reader past entry D + 1:
    it reads zbar up to h^(D + 2) of u^D, entry 2D + 2.  A coefficient
    whose pole order exceeds its u-degree raises WindowTooSmall there.  A
    scalar adds to entry 0 of row 0, with no window built for it.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def _of(cls, rows):
        """Internal: wrap rows that already have the shape of the class."""
        self = object.__new__(cls)
        self.coeffs = tuple(rows)
        return self

    @classmethod
    def from_quotients(cls, terms, truncation=None):
        """The u^k coefficient is h^s * num / unit for terms[k] = (s, num, unit),
        with integer lists num and unit, unit(0) != 0; rows past the terms are 0.
        Its one caller is the regularize suite's builder of u h^p."""
        d = len(terms) - 1 if truncation is None else truncation
        if d < 0:
            raise ValueError("truncation must be nonnegative")
        if d < len(terms) - 1:
            raise ValueError("more terms than the stated truncation")
        rows = [_row(num, unit, k + s, 2 * d + 2) for k, (s, num, unit) in enumerate(terms)]
        return cls._of(rows + [QSeries.zero(2 * d + 2)] * (d + 1 - len(terms)))

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def narrow(self, width):
        """The series with every row truncated at h^width: reads within the
        new width are unchanged, and products with it cost less."""
        return USeriesRF._of(row.truncate(width) for row in self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d]

    def _entry(self, k, p):
        """(numerator, denominator) of [u^k h^p]: entry k + p of row k."""
        i = k + p
        row = self.coeffs[k]
        if i > row.truncation:
            raise WindowTooSmall(f"h^{p} of u^{k} lies past the width {row.truncation}")
        return (row.ints[i] if i >= 0 else 0), row.den

    def __eq__(self, other):
        if not isinstance(other, USeriesRF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"USeriesRF(D={self.truncation}, H={self.coeffs[0].truncation})"

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar is entry 0 of row 0
            return USeriesRF._of((self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, USeriesRF):
            return NotImplemented
        return USeriesRF._of(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return USeriesRF._of(c * other for c in self.coeffs)
        if not isinstance(other, USeriesRF):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return USeriesRF._of(convolve_rows(a, b, min(len(a), len(b))))

    __rmul__ = __mul__

    def mul_qseries(self, g):
        """Multiply by an h-free q-series g: row m becomes
        sum_i g_i h^i row_(m-i)."""
        # the h-free factor goes first: its rows are monomials, and a row
        # product skips the zero entries of its left factor
        zeros = [0] * (2 * g.truncation + 2)
        rows = (QSeries._of(zeros[:k] + [c] + zeros[k:], g.den) for k, c in enumerate(g.ints))
        return USeriesRF._of(rows) * self

    def h_euler(self):
        """h u d/du of the series: the u^k coefficient times k h, which is
        row k times k shifted up one place."""
        return USeriesRF._of(
            QSeries._of([0] + [x * k for x in row.ints[:-1]], row.den)
            for k, row in enumerate(self.coeffs)
        )

    def log_one_plus(self):
        """log(1 + self); self must have no degree-zero term."""
        z = self.coeffs
        if any(z[0].ints):
            raise NonzeroConstant("log expansion needs a vanishing constant term")
        return USeriesRF._of(log_one_plus_rows(z, z[0]))

    def weighted_residues(self, power=0):
        """QSeries of res_{h=0} { h^power * coeff_d } over u-degrees."""
        return self.taylor_coeff(-1 - power)

    def taylor_coeff(self, q):
        """QSeries of [h^q] coeff_d over u-degrees."""
        return QSeries._ratios(*zip(*(self._entry(k, q) for k in range(len(self.coeffs)))))

    def first_pole(self):
        """(k, m) for the first u^k coefficient with a pole at h = 0, m its
        order, read off the nonzero entries of row k below index k; None
        when every coefficient is holomorphic there."""
        for k, row in enumerate(self.coeffs):
            if any(row.ints[:k]):
                return k, k - next(i for i, c in enumerate(row.ints) if c)
        return None


def exp_over_hbar(eta):
    """exp(eta(u) / h) as a USeriesRF; eta must vanish at u = 0.

    The u^k coefficient is sum_{m<=k} (eta^m)_k / m! * h^-m, so row k is the
    polynomial whose h^j coefficient is (eta^(k-j))_k / (k-j)!.
    """
    if eta.ints[0]:
        raise NonzeroConstant("exponent series must have no degree-zero term")
    d = eta.truncation
    powers = [QSeries.one(d)]
    for _ in range(d):
        powers.append(powers[-1] * eta)
    dens = [p.den * factorial(m) for m, p in enumerate(powers)]

    def row(k):  # entry j is powers[k - j][k] / (k - j)!, then zeros to 2D + 2
        den = _lcm(*dens[: k + 1])
        nums = [powers[m].ints[k] * (den // dens[m]) for m in range(k, -1, -1)]
        return QSeries._of(nums + [0] * (2 * d + 2 - k), den)

    return USeriesRF._of(row(k) for k in range(d + 1))


class Regularization(Record):
    """1 + z = exp(eta/h) * (1 + zbar), with exp(-eta/h), the moment window
    G (big_g) that eta was read off, and the sums of G the checks read."""

    _fields = ("eta", "zbar", "regular", "z", "exp_minus_eta", "big_g")

    @cached_property
    def moment_windows(self):
        """The sums sum_{m>=2} G^m / (m(m-1)) = (1 - G) log(1 - G) + G and
        sum_{m>=0} G^m = 1 / (1 - G) of the moment window G that regularize
        built, as USeriesRF windows in (u, s), each on the one row quotient
        of the series module (log_one_plus_rows, geometric_rows).  Row 0 of
        G is zero, since every c_j is O(u), so both sums are exact to u^D,
        and the checks read at most entry k of row k, so width D covers
        them.  Built once per regularization, on its first moment check."""
        big_g = self.big_g
        log = (-big_g).log_one_plus()
        return log + big_g - big_g * log, USeriesRF._of(geometric_rows(big_g.coeffs))

    @cached_property
    def eta_powers(self):
        """[eta^p for p = 0..D], shared by the closed-form checks, read off
        exp(-eta/h) with no product: its [h^-p] is (-eta)^p / p!."""
        back = self.exp_minus_eta
        scales = ((-1) ** p * factorial(p) for p in range(back.truncation + 1))
        return [back.taylor_coeff(-p) * c for p, c in enumerate(scales)]


def regularize(z):
    """Split 1 + z = exp(eta/h) * (1 + zbar) and test zbar for regularity.

    eta is the degree-stabilizing fixed point eta = sum_j (-eta)^j / j! c_j
    of the moments c_j = res{ h^-j z }, run on tau = eta / u as
    tau = sum_j b_j tau^j, b_j = u^(j-1) (-1)^j c_j / j! = O(u^j), each
    round one Horner pass at the u^(r-1) of tau it fixes.  The b_j are read
    off the moment window G = g/s, g(s, u) = sum_j (-1)^j / j! c_j(u) s^j,
    built once at width D and kept for the moment checks: its row k holds
    s^k [u^k] G, entry e being entry e of z's row k times (-1)^j / j! for
    j = e - k + 1, so no entry of z past D is read, and [u^k] b_j is entry
    k of row k - j + 1.  It is cross-checked through log(1 + z) = eta/h +
    log(1 + zbar): eta = res_{h=0} log(1 + z) - res_{h=0} log(1 + zbar),
    where the last residue vanishes when zbar is regular.  A mismatch would
    be an internal arithmetic bug and raises immediately.
    """
    if any(z[0].ints):
        raise NonzeroConstant("series must have no degree-zero term")
    d = z.truncation

    def row(k):  # entries k - 1 .. D hold j = 0 .. D - k + 1
        nums = [(-1) ** j * z[k].ints[k - 1 + j] for j in range(d - k + 2)]
        dens = [z[k].den * factorial(j) for j in range(d - k + 2)]
        return QSeries._ratios([0] * (k - 1) + nums, [1] * (k - 1) + dens)

    big_g = USeriesRF._of([QSeries.zero(d)] + [row(k) for k in range(1, d + 1)])
    b = []
    for j in range(d):  # entry m + j - 1 of rows m = 0..D - j, shifted to u^(m + j - 1)
        c = USeriesRF._of(big_g.coeffs[: d - j + 1]).taylor_coeff(j - 1)
        b.append(QSeries._of(((0,) * j + c.ints)[1:], c.den))
    tau = QSeries.zero(0)
    for r in range(1, d + 1):
        acc = b[r - 1].truncate(r - 1)
        for j in range(r - 1, 0, -1):
            acc = b[j - 1].truncate(r - 1) + tau * acc
        tau = QSeries._of(acc.ints + (0,), acc.den)  # tau_r, padded to u^r
    eta = QSeries._of((0,) + tau.ints[:-1], tau.den)
    back = exp_over_hbar(-eta)
    zbar = back * (z + 1) - 1
    regular = zbar.first_pole() is None
    # the logs are read only at entry k - 1 of row k, so width D covers them
    eta_log = z.narrow(d).log_one_plus().weighted_residues(0)
    if not regular:
        eta_log = eta_log - zbar.narrow(d).log_one_plus().weighted_residues(0)
    if eta != eta_log:
        raise RoutesDisagree("exponent fixed point and log residue disagree")
    return Regularization(eta, zbar, regular, z, back, big_g)


def moment_identity_check(reg, a):
    """The residue-moment criterion, which holds exactly when the series is
    regularizable: sum_{m>=2} [s^(m-2-a)] g^m / (m(m-1)), the [s^(-2-a)]
    entry of (1 - G) log(1 - G) + G, against a! res{ h^(a+1) z }.  reg is
    regularize(z) for the series z under test.  Returns the failure text,
    or None."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    lhs = reg.moment_windows[0].taylor_coeff(-2 - a)
    rhs = reg.z.weighted_residues(a + 1) * factorial(a)
    return series_failure(lhs, rhs, reg.z.truncation, "u")


def moment_regularized_check(reg, a):
    """The moment identity of a regularizable series: sum_{m>=0} [s^(m-a)] g^m,
    the [s^-a] entry of 1 / (1 - G), against eta^a / (1 + zbar(0, u)).
    Returns the failure text, or None."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    if not reg.regular:
        raise NotRegularizable("evaluation identity needs a regularizable series")
    d = reg.z.truncation
    lhs = reg.moment_windows[1].taylor_coeff(-a)
    rhs = reg.eta**a / (QSeries.one(d) + reg.zbar.taylor_coeff(0))
    return series_failure(lhs, rhs, d, "u")


def moment_closed_form_check(reg, a):
    """Closed form for res{ h^a z } from eta and the Taylor coefficients of zbar.

    reg is regularize(z) for the series z under test.  It reads z and zbar
    up to entry 2D + 2 of a row, so a regularization of a narrower z raises
    WindowTooSmall.  Returns the failure text, or None."""
    d = reg.z.truncation
    if not reg.regular:
        raise NotRegularizable("closed form needs a regularizable series")
    lhs = reg.z.weighted_residues(a)
    rhs = QSeries.zero(d)
    eta_pow = reg.eta_powers
    for p in range(max(a + 1, 0), d + 1):
        rhs = rhs + eta_pow[p] * Fraction(1, factorial(p)) * reg.zbar.taylor_coeff(p - 1 - a)
    if 0 <= a < d:
        # the lone eta-power term; for a + 1 > d it is zero to this order
        rhs = rhs + eta_pow[a + 1] * Fraction(1, factorial(a + 1))
    return series_failure(lhs, rhs, d, "u")


def residue_of_product_check(rows):
    """Residue at 0 of a product of k Laurent polynomials with at most simple
    poles at 0, each given as the integer list row_i of h f_i, as a subset
    sum.  res_0 prod f_i = [h^(k-1)] prod row_i: the left side reads the
    last entry of _product_head, the right side is the subset sum of
    product_subset_sum.  Returns the failure text, or None.
    """
    rows = list(rows)
    lhs = _product_head(rows)[-1] if rows else 0
    return equality_failure("residue", lhs, product_subset_sum(rows))


def _product_head(rows):
    """The first k entries of the product of the k integer lists rows."""
    out = [1] + [0] * (len(rows) - 1)
    for row in rows:
        out, prev = [0] * len(out), out
        P._accumulate(out, prev, row)
    return out


def product_subset_sum(rows):
    """res_0 of prod f_i for k functions with at most simple poles at 0,
    given as the nonempty integer lists row_i of h f_i, as a sum over
    subsets.

    Entry 0 of row_i is the residue r_i, the rest is the Taylor series of
    the regular part f_i - r_i/h.  Each subset S contributes
    prod_{i in S} r_i times the h^(|S|-1) Taylor coefficient of the
    product of the other regular parts; that order is at most k-2 whenever
    S leaves a factor out (for S = all, the product is 1).  The empty
    subset contributes nothing (its inner derivative order would be -1,
    which is vacuous).  A subset holding a factor with r_i = 0 adds 0, so
    only subsets of the poles are enumerated, and the factors without a
    pole sit in every complement.  The complements are grown one level at
    a time: a child adds one pole past its parent's last to the
    complement, so its product of regular parts is the parent's times one
    row, truncated at |S| entries, and its product of residues the
    parent's divided by that pole's.  Every product runs in int.
    """
    poles = [row for row in rows if row[0]]
    width = len(poles)
    base = [1] + [0] * (width - 1)
    for row in rows:
        if not row[0]:
            out = [0] * width
            P._accumulate(out, base, row[1:])
            base = out
    # (first pole a child may add, prod of r_i over S, regular product to |S| entries)
    level = [(0, prod(row[0] for row in poles), base)]
    acc = 0
    for size in range(width, 0, -1):
        grown = []
        for first, r, rest in level:
            acc += r * rest[size - 1]
            if size > 1:
                for i in range(first, width):
                    out = [0] * (size - 1)
                    P._accumulate(out, rest, poles[i][1:])
                    grown.append((i + 1, r // poles[i][0], out))
        level = grown
    return acc


def double_residue_split_kernel(a_series, b_series):
    """Iterated residue res_{h1=0} res_{h2=0} of A(h1) B(h2) / (h1 h2 (h1+h2)).

    The inner residue treats h1 as a nonzero parameter, so 1/(h1+h2) is
    expanded geometrically in h2/h1; the double residue is then
    sum_k (-1)^k [h^-k]B * [h^(k+1)]A, with k up to the pole order of B,
    which is at most its u-degree.  The rows of each series run in int
    over one denominator.
    """
    d = min(a_series.truncation, b_series.truncation)
    x, da = _scaled_rows(a_series.coeffs)
    y, db = _scaled_rows(b_series.coeffs)
    out = []
    for m in range(d + 1):
        val = 0
        for d1 in range(m + 1):
            a, b = x[d1], y[m - d1]
            for k in range(m - d1 + 1):
                c = b[m - d1 - k]  # [h^-k] of B's u^(m-d1) coefficient
                if c:
                    if d1 + k + 1 >= len(a):
                        raise WindowTooSmall(f"h^{k + 1} of u^{d1} lies past the width")
                    val += (-c if k & 1 else c) * a[d1 + k + 1]
        out.append(val)
    return QSeries._of(out, da * db)


# -- combinatorial identities -------------------------------------------


def _binomial_rows(slot, top):
    """sum_j C(q, j) 2^(slot j) for q = 0..top: the binomial row of each q,
    one slot per entry."""
    return [sum(comb(q, j) << slot * j for j in range(q + 1)) for q in range(top + 1)]


def _split_levels(rows, length):
    """(qs, sum qs, packed) for each tuple qs of length <= length over
    0..len(rows)-1, shorter tuples first, first entry fastest, with packed
    the product of rows[q] over qs.  For the binomial rows at x = 2^slot,
    slot b of packed is the Vandermonde left side, the sum over splits
    j_1 + ... + j_k = b of prod_i C(q_i, j_i); the entries are >= 0 and sum
    to 2^(sum q), so none carries out of a slot of sum q + 1 bits.  Level
    L + 1 puts each row in front of each level-L tuple, one product per
    tuple, so the sides are built row by row, never from (1 + x)^(sum q),
    and stay independent of the right side."""
    level = [((), 0, 1)]
    for size in range(length + 1):
        yield from level
        if size < length:
            level = [
                ((q, *qs), q + total, row * packed)
                for qs, total, packed in level
                for q, row in enumerate(rows)
            ]


def vandermonde_failures(bound):
    """The failure text of each failing b <= bound and tuple qs of length
    <= 4 over 0..5, first entry fastest, the left sides packed by
    _split_levels: slots 0..bound of each (21 bits hold totals to 20) meet
    comb(sum qs, b) at once, and a tuple that differs names each b whose
    slot differs."""
    slot = 4 * 5 + 1
    mask = (1 << slot * (bound + 1)) - 1
    rows = [sum(comb(total, b) << slot * b for b in range(bound + 1)) for total in range(21)]
    for qs, total, packed in _split_levels(_binomial_rows(slot, 5), 4):
        if packed & mask != rows[total]:
            for b in range(bound + 1):
                lhs, rhs = packed >> slot * b & (1 << slot) - 1, comb(total, b)
                if lhs != rhs:
                    yield _case_failure("binomial-vandermonde", {"b": b, "qs": qs}, lhs, rhs)


def reciprocal_failures(bound):
    """The failure text of each failing q <= bound and 1 <= a <= bound of
    sum_b (-1)^b C(q, b) / (a + b) = (a - 1)! q! / (a + q)!, in integers
    over a (a + 1) ... (a + q)."""
    for q, a in product(range(bound + 1), range(1, bound + 1)):
        den = perm(a + q, q + 1)
        lhs = sum((-1) ** b * comb(q, b) * (den // (a + b)) for b in range(q + 1))
        if lhs * factorial(a + q) != factorial(a - 1) * factorial(q) * den:
            rhs = Fraction(factorial(a - 1) * factorial(q), factorial(a + q))
            params = {"q": q, "a": a}
            yield _case_failure("alternating-reciprocal-sum", params, Fraction(lhs, den), rhs)


def rising_failures(bound):
    """The failure text of each failing q, a, s <= bound of
    sum_b (-1)^b C(q, b) prod_{a-s<r<=a} (r + b) = (-1)^q s! C(a, s - q):
    the signed row C(q, b) dotted with the rising products of (a, s)."""
    top = range(bound + 1)
    signed = [[(-1) ** b * comb(q, b) for b in range(q + 1)] for q in top]
    pairs = product(top, repeat=2)
    rungs = {(a, s): [prod(range(a - s + 1 + b, a + 1 + b)) for b in top] for a, s in pairs}
    for q, a, s in product(top, repeat=3):
        lhs = sum(map(mul, signed[q], rungs[a, s]))
        rhs = (-1) ** q * factorial(s) * (comb(a, s - q) if s >= q else 0)
        if lhs != rhs:
            params = {"q": q, "a": a, "s": s}
            yield _case_failure("alternating-rising-product", params, Fraction(lhs), Fraction(rhs))


def _case_failure(identity, parameters, lhs, rhs):
    """The text the appendixA suite prints for a failing case."""
    params = " ".join(f"{k}={v}" for k, v in parameters.items())
    return f"{identity} [{params}]: FAIL at value: {lhs!r} != {rhs!r}"
