"""Exact truncated power series in q = e^t, and the rows of bivariate series.

QSeries is the workhorse: a series in q truncated at an inclusive degree
bound, with rational coefficients and no rounding anywhere.  Mixing two
truncations always takes the minimum; nothing is ever zero-extended.  It
holds integer numerators over one denominator (ints, den) in one canonical
form, den > 0 and the content of ints coprime to den.  Each operation runs
in int (quotients, exp and log on polys._recurrence) and reduces its result
by one gcd; Fractions are built only for readers (coeffs, indexing).

Every bivariate series of the package is a list of QSeries rows: the
stages hand out the kernel, its normalized rows and its log in w as plain
tuples of rows, and the window series of residues.USeriesRF (the moment
sums of a regularization among them) wrap theirs.  The rows have one row
product (convolve_rows) and one row quotient A / (1 + B) (_quotient_rows),
read by log_one_plus_rows and geometric_rows.  TPoly, a polynomial in t
(the logarithm of the series variable, so d/dt acts as q*d/dq), holds a
tower entry for its structure report, and WSeries, rows in w, keeps the
reference route to the bigraded log.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _gcd
from math import lcm as _lcm
from operator import mul as _mul

from . import polys as P
from .errors import BadConstantTerm, BadMirrorMap, DivByNonUnit, TruncationMismatch


def format_rational(x, den=1) -> str:
    """Canonical "p/q" string of x / den for an int or Fraction x and an
    int den > 0, plain "p" for integers."""
    x, den = x.numerator, x.denominator * den
    g = _gcd(x, den)
    if g == den:
        return str(x // g)
    return f"{x // g}/{den // g}"


class QSeries:
    """Power series in q truncated at inclusive degree `truncation`, held as
    integer numerators `ints` over one denominator `den` (canonical form)."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs, truncation=None):
        coeffs = [c if isinstance(c, (int, Fraction)) else P._exact(c) for c in coeffs]
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
        # the lcm of reduced denominators leaves the numerators coprime to it
        ints, self.den = P._scaled(coeffs)
        self.ints = tuple(ints) + (0,) * (truncation + 1 - len(ints))

    @classmethod
    def _of(cls, ints, den=1):
        """Internal: the series ints / den (den > 0), reduced to canonical
        form by one gcd; the truncation is len(ints) - 1."""
        self = object.__new__(cls)
        g = _gcd(den, *ints)
        if g == 1:
            self.ints, self.den = tuple(ints), den
        else:
            self.ints, self.den = tuple([c // g for c in ints]), den // g
        return self

    @classmethod
    def _ratios(cls, nums, dens):
        """Internal: the series with coefficients nums[k] / dens[k] (dens > 0)."""
        den = _lcm(*dens)
        return cls._of([c * (den // d) for c, d in zip(nums, dens)], den)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, truncation):
        return cls([], truncation)

    @classmethod
    def one(cls, truncation):
        return cls([1], truncation)

    @classmethod
    def constant(cls, c, truncation):
        return cls([c], truncation)

    @classmethod
    def monomial(cls, d, truncation, c=1):
        if d < 0:
            raise ValueError(f"monomial degree {d} is negative")
        if d > truncation:
            raise TruncationMismatch(f"monomial degree {d} exceeds truncation {truncation}")
        return cls([0] * d + [c], truncation)

    # -- access ----------------------------------------------------------

    @property
    def truncation(self):
        return len(self.ints) - 1

    @property
    def coeffs(self):
        return tuple([Fraction(c, self.den) for c in self.ints])

    def __getitem__(self, d):
        if not 0 <= d <= self.truncation:
            raise TruncationMismatch(
                f"coefficient q^{d} outside stored range 0..{self.truncation}"
            )
        return Fraction(self.ints[d], self.den)

    @property
    def constant_term(self):
        return Fraction(self.ints[0], self.den)

    def is_zero(self):
        return not any(self.ints)

    def truncate(self, truncation):
        if truncation > self.truncation:
            raise TruncationMismatch(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        if truncation == self.truncation:
            return self
        return QSeries._of(self.ints[: truncation + 1], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        # a constant series equals its scalar, so it hashes like it
        if not any(self.ints[1:]):
            return hash(Fraction(self.ints[0], self.den))
        return hash((self.ints, self.den))

    def __repr__(self):
        shown = ", ".join(format_rational(c, self.den) for c in self.ints[:6])
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
        x, dx, y, dy = self.ints, self.den, other.ints, other.den
        if dx == dy:
            return QSeries._of([a + b for a, b in zip(x, y)], dx)
        g = _gcd(dx, dy)
        sx, sy = dy // g, dx // g
        return QSeries._of([a * sx + b * sy for a, b in zip(x, y)], dx * sx)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._of([-c for c in self.ints], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = other.numerator
            return QSeries._of([c * r for c in self.ints], self.den * other.denominator)
        if not isinstance(other, QSeries):
            return NotImplemented
        acc = [0] * min(len(self.ints), len(other.ints))
        P._accumulate(acc, self.ints, other.ints)
        return QSeries._of(acc, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division by zero scalar")
            if p < 0:
                p, q = -p, -q
            return QSeries._of([c * q for c in self.ints], self.den * p)
        if not isinstance(other, QSeries):
            return NotImplemented
        y, dy = other.ints, other.den
        if not y[0]:
            raise DivByNonUnit("divisor has zero constant term")
        d = min(self.truncation, other.truncation)
        # c_m = (dy / y_0) (a_m - sum_{0<j<=m} b_j c_(m-j))
        return QSeries._of(
            *P._recurrence((self.ints, self.den), (y, dy), lambda m: (dy, y[0]), d)
        )

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
        return QSeries._of([d * c for d, c in enumerate(self.ints)], self.den)

    def integral(self):
        """The inverse of derivative on series without a constant term:
        q^k c_k goes to q^k c_k / k, and the constant term to 0."""
        den = _lcm(*range(1, len(self.ints)))
        return QSeries._of(
            [0] + [c * (den // k) for k, c in enumerate(self.ints) if k], self.den * den
        )

    def exp(self):
        if self.ints[0]:
            raise BadConstantTerm("exp", self.constant_term)
        # c_0 = 1, c_m = (1/m) sum_{0<j<=m} j f_j c_(m-j) = (-1/m) (0 - sum ...)
        jf = ([j * c for j, c in enumerate(self.ints)], self.den)
        out = P._recurrence(([1], 1), jf, lambda m: (-1, m) if m else (1, 1), self.truncation)
        return QSeries._of(*out)

    def log(self):
        if self.ints[0] != self.den:
            raise BadConstantTerm("log", self.constant_term)
        # M_k = k L_k solves M_k = k f_k - sum_{0<j<k} f_j M_(k-j): the
        # quotient recurrence of (q f') / f, with f_0 = 1
        f = (self.ints, self.den)
        qdf = ([k * c for k, c in enumerate(self.ints)], self.den)
        return QSeries._of(*P._recurrence(qdf, f, lambda k: (1, 1), self.truncation)).integral()

    def power(self, r):
        """f**r for rational r, via exp(r*log f); needs f(0) = 1."""
        if self.ints[0] != self.den:
            raise BadConstantTerm("pow", self.constant_term)
        return (self.log() * P._exact(r)).exp()

    def compose(self, inner):
        """self(inner(q)); inner must have zero constant term."""
        if inner.ints[0]:
            raise BadConstantTerm("compose", inner.constant_term)
        d = min(self.truncation, inner.truncation)
        coeffs = self.coeffs
        acc = QSeries.constant(coeffs[d], d)
        for k in range(d - 1, -1, -1):
            acc = acc * inner.truncate(d) + coeffs[k]
        return acc


class TPoly:
    """Polynomial in t whose coefficients are QSeries (all one truncation):
    a tower entry as hyper.i_series builds it for tower_structure_check,
    which reads its t-degree and rows.  It has no sum or t-derivative; its
    product (a row convolution) is kept for the benchmark's layer list.

    The zero polynomial is canonically the single zero entry, so t-degrees
    and equality are deterministic.
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
    def from_qseries(cls, f):
        return cls([f])

    @property
    def t_degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if k >= len(self.coeffs):
            return QSeries.zero(self.coeffs[0].truncation)
        return self.coeffs[k]

    def __eq__(self, other):
        if isinstance(other, QSeries):
            other = TPoly([other])
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a t-free polynomial equals its QSeries, so it hashes like it
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly(t-degree {self.t_degree}, D={self.coeffs[0].truncation})"

    def _coerce(self, other):
        if isinstance(other, QSeries):
            return TPoly.from_qseries(other)
        return other if isinstance(other, TPoly) else None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly([c * other for c in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TPoly(convolve_rows(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__


class WSeries:
    """Polynomial in w with QSeries coefficients, the reference route to
    the bigraded log: the stages hand out plain tuples of QSeries rows."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        d = min(c.truncation for c in coeffs)
        self.coeffs = tuple(c.truncate(d) for c in coeffs)

    def __eq__(self, other):
        if not isinstance(other, WSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"WSeries(W={len(self.coeffs) - 1}, D={self.coeffs[0].truncation})"

    def log(self):
        """Bigraded logarithm; the (w^0, q^0) coefficient must be 1.

        With z = (f - f0)/f0 (no w^0 term), log f = log f0 + log(1 + z).
        No stage calls it: hyper.log_kernel_w runs log_one_plus_rows on rows
        already divided by f0.  The tests' oracle route to that log runs here.
        """
        f0 = self.coeffs[0]
        if f0.ints[0] != f0.den:
            raise BadConstantTerm("log", f0.constant_term)
        z = [None] + [c / f0 for c in self.coeffs[1:]]
        return WSeries(log_one_plus_rows(z, f0.log()))


def _scaled_rows(rows):
    """Integer numerator lists of QSeries rows over the lcm of their
    denominators."""
    den = _lcm(*(row.den for row in rows))
    return [row.ints if row.den == den else [c * (den // row.den) for c in row.ints]
            for row in rows], den


def convolve_rows(a, b, length):
    """Rows 0..length-1 (length <= len(a) + len(b) - 1) of the product of
    two series of QSeries rows: row m is sum_{i+j=m} a[i] * b[j], truncated
    at the smallest truncation of the rows it sums, as a sum of QSeries
    products would be.

    The rows of each operand are scaled to one denominator and each output
    row is accumulated in int over the product of the two."""
    x, da = _scaled_rows(a)
    y, db = _scaled_rows(b)
    den = da * db
    out = []
    for m in range(length):
        pairs = range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1)
        t = min(min(a[i].truncation, b[m - i].truncation) for i in pairs)
        acc = [0] * (t + 1)
        for i in pairs:
            P._accumulate(acc, x[i], y[m - i])
        out.append(QSeries._of(acc, den))
    return out


def _quotient_rows(a, b, den):
    """QSeries rows C_0..C_(len(b) - 1) of A / (1 + B), that is
        C_k = A_k - sum_{0<j<=k} B_j C_(k-j),
    for a and b equally many integer rows over the one denominator den, a
    row's truncation its length less one (b[0] is not read).  Each output
    row is truncated at the smallest truncation among the rows it sums; a
    zero C_0 bounds none.

    The row twin of polys._recurrence: the solved rows stay integer rows
    over one running denominator dc, and each term is one integer row
    product whose left factor is whichever of B_j and C_(k-j) has more
    zero entries, which _accumulate skips.  A_k meets the sum over den dc.
    Each row is reduced by one gcd, and dc becomes the lcm with the reduced
    denominator only when that does not divide it already."""
    out = [QSeries._of(a[0], den)]
    c, dc = [out[0].ints], out[0].den
    for k in range(1, len(b)):
        js = range(1, k + 1 if any(c[0]) else k)  # j = k is the term of C_0
        acc = [0] * min([len(a[k])] + [min(len(b[j]), len(c[k - j])) for j in js])
        for j in js:  # the row with more zeros goes left
            P._accumulate(acc, *sorted((b[j], c[k - j]), key=lambda r: -r.count(0)))
        row = QSeries._of([x * dc - y for x, y in zip(a[k], acc)], den * dc)
        out.append(row)
        if dc % row.den:
            grown = dc // _gcd(dc, row.den) * row.den
            c = [[x * (grown // dc) for x in r] for r in c]
            dc = grown
        c.append([x * (dc // row.den) for x in row.ints])
    return out


def log_one_plus_rows(z, head):
    """QSeries rows of log(1 + z), row 0 being head, for z a list of QSeries
    rows with no row 0 (z[0] is not read).

    Row k is M_k / k for the quotient M = (u d/du z) / (1 + z), that is
    M_k = k z_k - sum_{0<j<k} z_j M_(k-j) (M_0 = 0): one _quotient_rows,
    its numerator rows k z_k over the denominator of z's rows."""
    x, dz = _scaled_rows(z[1:])
    a = [[0]] + [[k * c for c in row] for k, row in enumerate(x, 1)]
    m = _quotient_rows(a, [None] + x, dz)
    return [head] + [QSeries._of(row.ints, row.den * k) for k, row in enumerate(m[1:], 1)]


def geometric_rows(g):
    """QSeries rows of 1 / (1 - g), for g a list of QSeries rows whose row 0
    is zero (only its truncation is read).

    W_0 = 1 and W_k = sum_{0<i<=k} g_i W_(k-i): one _quotient_rows, with
    numerator 1 (zero rows past row 0, which bound no more than g's rows
    do) and the rows of -g, all over the one denominator of g's rows."""
    x, dg = _scaled_rows(g[1:])
    a = [[dg] + [0] * g[0].truncation] + [[0] * len(row) for row in x]
    return _quotient_rows(a, [None] + [[-c for c in row] for row in x], dg)


def exp_coordinate_inverse(g):
    """Compositional inverse of the coordinate change Q = q*exp(g(q)).

    Returns q as a series in Q, by the degree-stabilizing fixed point
    x <- Q*exp(-g(x)), O(D^4).  g must vanish at the origin.  Composing
    with it is the reference route for change_exp_variable.
    """
    if g.ints[0]:
        raise BadMirrorMap("shift series must vanish at the origin")
    d = g.truncation
    x = QSeries.monomial(1, d) if d >= 1 else QSeries.zero(d)
    for _ in range(d):
        x = QSeries.monomial(1, d) * (-g.compose(x)).exp()
    return x


@lru_cache(maxsize=4)
def _lagrange_powers(g):
    """exp(-k g) for k = 1..D (D = g's truncation), the k-th truncated at
    q^(k-1), which is all that [Q^k] reads, as integer numerators over one
    denominator (ints, den).  Each comes from the exp recurrence
    m c_m = -k sum_j j g_j c_(m-j): O(D^3) integer operations in all.
    Cached per shift, so the extractions of one table share them."""
    jg = ([j * c for j, c in enumerate(g.ints)], g.den)
    return tuple(
        # c_0 = 1, c_m = (k/m) (0 - sum_{0<j<=m} j g_j c_(m-j))
        P._recurrence(([1], 1), jg, lambda m, k=k: (k, m) if m else (1, 1), k - 1)
        for k in range(1, g.truncation + 1)
    )


def change_exp_variable(f, g):
    """Re-expand f(q) as a series in Q = q*exp(g(q)).

    By Lagrange-Buermann inversion, [Q^0] = f(0) and
        [Q^k] = (1/k) [q^(k-1)] f'(q) exp(-k g(q)) = (1/k) [q^k] (q f') exp(-k g),
    with no series reversion.  Equal to f composed with
    exp_coordinate_inverse(g), to the common truncation.
    """
    d = min(f.truncation, g.truncation)
    g = g.truncate(d)
    if g.ints[0]:
        raise BadMirrorMap("shift series must vanish at the origin")
    x, dx = f.ints[: d + 1], f.den
    df = [j * c for j, c in enumerate(x)]  # q f'(q), over dx
    nums, dens = [x[0]], [dx]
    for k, (p, den) in enumerate(_lagrange_powers(g), start=1):
        # [q^k] (q f') exp(-k g): df_j against p_(k-j), j = 1..k
        nums.append(sum(map(_mul, df[1 : k + 1], reversed(p))))
        dens.append(dx * den * k)
    return QSeries._ratios(nums, dens)

