"""Hypergeometric series attached to a degree-n hypersurface in P^{n-1}.

Everything is generated by one bigraded kernel in (w, q): the q^d
coefficient is prod_{r<=nd}(nw+r) / prod_{r<=d}((w+r)^n - w^n).  Its
w-rows 0..max(n - 1, 1), all the stages read (dump --what F alone builds
rows 0..n + 2), seed the tower, one triangle of q-series rows whose
diagonals are unit q-series, each row built once (_tower_rows).  The
stages hand out bivariate series as plain tuples of QSeries rows: the
kernel, the tower's rows, the normalized rows and the kernel's log in w.
A tower entry, a polynomial in t, is a binomial sum of one row, built
only for the structure report (i_series).  The rows yield
the mirror map, the regularizing exponent mu, the h-regular kernel Q
obtained by stripping exp(mu/h), and the ladder series built by repeated
first-order descent operators.  Every reader of the kernel over its
w-constant part I_0 reads one set of normalized rows rho_i = F_i / I_0
(normalized_rows): the quartic's K3 checks, the quintic's genus-0 pass,
the mirror shift (rho_1 itself) and the bigraded log log_kernel_w.  Each
diagonal is inverted once (diagonal_inverse) and logged once
(diagonal_log), and 1 - n^n q is logged once (log_one_minus_nn_q): no
reader divides by a diagonal again or takes its own log of one.  The
kernel at w = 1/h enters the stages as one normalized window per spec,
K(1/h) / I_0 (ladder_series), and one log of it (ladder_log) serves both
residue routes: log I_0 is h-free, so the h^-1 entries that give mu are
those of log K(1/h).  The ladder is read only through exp(-mu/h), so its
rungs are descended there: rung 0 is the one window product per spec, and
each higher rung comes from the one below by the Leibniz rule for
theta = h q d/dq (_descended_regular).  The checker functions turn the
structural statements about these objects into exact pass/fail reports.

The kernel at w = 1/h is kept factored, h^-d rnum_d / V_d, and no RatFunc
is built here: its window series at h = 0 (USeriesRF) carries the residue
exponent, the ladder and the regular-kernel checks, regular_kernel forms
Q as N_d / (h^d V_d) over the known denominator for the dump only, reduced
by the known irreducible factors of V_d with no gcd, and the boundary
residue reads its value at h = -n.  The window series is built at width
D + 1, the largest entry of a row that any reader takes: ladder_series is
the regularize suite's bridge as well, and regularize reads up to entry D.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import polys as P
from .errors import PoleTooHigh, RegularityViolation
from .report import IdentityReport, Record, equality_failure, first_failure, merge_reports
from .report import integrality_failure, series_failure
from .residues import USeriesRF, _row, double_residue_split_kernel, exp_over_hbar
from .series import QSeries, TPoly, _scaled_rows, log_one_plus_rows


class HyperSpec(Record):
    """Problem size: hypersurface degree n and q-order.  Immutable and
    hashable, since the stage caches key on it."""

    _fields = ("n", "qorder")

    def __init__(self, n, qorder=8):
        if type(n) is not int or type(qorder) is not int:  # as 5.0 or True, equal to an int
            raise TypeError(f"n and qorder must be ints, got {n!r} and {qorder!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if qorder < 1:
            raise ValueError("qorder must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "qorder", qorder)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash((self.n, self.qorder))


def _v(n, r):
    """v_r = ((1 + r h)^n - 1) / h, the reversal of (w + r)^n - w^n."""
    return [comb(n, k) * r**k for k in range(1, n + 1)]


def _v_factors(n, r):
    """The irreducible factors of v_r over Q, each primitive: Phi_m(1 + r h)
    for m | n, m > 1, from the Taylor coefficients of Phi_m at 1 scaled by
    r^j.  As (1 + r h)^n - 1 is the product of the Phi_m(1 + r h) over m | n
    and Phi_1(1 + r h) = r h, v_r is an integer times their product."""
    out = []
    for m in range(2, n + 1):
        if n % m == 0:
            phi = P._cyclotomic(m)
            taylor = P._taylor_rounds(phi, 1, 1)
            out.append(P._primitive([e * r**j for j, e in enumerate(taylor)]))
    return out


def _kernel_rows(spec, rows):
    """The (w, q) kernel on w-rows 0..rows - 1 at width D, a tuple of
    QSeries rows; its (w^0, q^0) coefficient is 1.

    Column d comes from column d-1 by the ratio
        F_d / F_(d-1) = prod_{n(d-1)<r<=nd}(n w + r) / ((w + d)^n - w^n),
    every product truncated at w^(rows - 1).  Each column stays integer
    numerators over one denominator; the quotient is one recurrence.
    Rows are the leading rows of any longer build."""
    n, w = spec.n, rows - 1
    col, den = [1] + [0] * w, 1
    cols = [(col, den)]
    for d in range(1, spec.qorder + 1):
        for r in range(n * (d - 1) + 1, n * d + 1):
            col = [r * c + n * p for c, p in zip(col, [0] + col)]
        vd = [comb(n, k) * d ** (n - k) for k in range(n)]
        col, den = P._recurrence((col, den), (vd, 1), lambda m: (1, vd[0]), w)
        cols.append((col, den))
    dens = [den for _, den in cols]
    return tuple(QSeries._ratios([c[j] for c, _ in cols], dens) for j in range(w + 1))


@lru_cache(maxsize=None)
def kernel(spec):
    """The kernel on the w-rows its stages read, 0..max(n - 1, 1): the
    tower's rows R[0][m], m <= n - 1, and normalized_rows rows
    1..max(n - 1, 1), for the genus-0 and K3 checks, the n = 1 mirror
    shift and log_kernel_w.  dump --what F builds its own rows 0..n + 2
    with _kernel_rows."""
    return _kernel_rows(spec, max(spec.n, 2))


@lru_cache(maxsize=None)
def _inv_hbar_parts(spec):
    """Per q-degree d, (rnum_d, V_d) with the kernel at w = 1/h equal to
    h^-d rnum_d / V_d: rnum_d = prod_{r<=nd}(n + r h), V_d = prod_{r<=d} v_r,
    V_d(0) = d! n^d; integer tuples, built factor by factor by degree."""
    n = spec.n
    rnum, den = (1,), (1,)
    parts = [(rnum, den)]
    for d in range(1, spec.qorder + 1):
        for r in range(n * (d - 1) + 1, n * d + 1):
            rnum = P._mul_ints(rnum, [n, r])
        den = P._mul_ints(den, _v(n, d))
        parts.append((tuple(rnum), tuple(den)))
    return tuple(parts)


@lru_cache(maxsize=None)
def kernel_inv_hbar(spec):
    """The kernel at w = 1/h as a window u-series, expanded straight from
    the factored form h^-d rnum_d / V_d; the q^d coefficient has pole order
    exactly d at h = 0, so row d is rnum_d / V_d with shift 0.

    Built at rows u^0..u^D and width D + 1, the width its one reader,
    ladder_series, takes."""
    return USeriesRF._of(_row(num, den, 0, spec.qorder + 1) for num, den in _inv_hbar_parts(spec))


def kernel_value_at(spec, a):
    """The kernel at w = 1/h evaluated at h = a != 0, as a q-series.

    The factor t h - s (a = s/t) is divided out of rnum_d and V_d wherever
    it divides both (_cancel_factors, no gcd): at n = 2, a = -2, n + h
    divides both and the 0/0 is removable.  The division keeps the degree
    gap deg rnum_d = deg V_d + d, so the value is H(rnum_d) / (H(V_d) s^d)
    for the forms H(p) = t^deg(p) p(s/t) (_form_at).
    """
    a = P._exact(a)
    s, t = a.numerator, a.denominator
    out = []
    for d, pair in enumerate(_inv_hbar_parts(spec)):
        num, den = P._cancel_factors(*pair, [(-s, t)])
        if not (den := P._form_at(den, s, t) * s**d):  # h^-d: a pole of order d at 0
            raise PoleTooHigh(f"kernel coefficient of degree {d} has a pole at {a}")
        out.append(Fraction(P._form_at(num, s, t), den))
    return QSeries(out)


@lru_cache(maxsize=None)
def _tower_rows(spec, p, *, divided):
    """Row p of the tower's triangle at width D, indexed by m - p for
    p <= m: the rows R[p][m], or with divided S[p][m] = R[p][m] / I_p,
    where I_p = R[p][p].  R[0] is every row of kernel, and above it
        R[p][m] = theta S[p - 1][m] + S[p - 1][m - 1],    p <= m <= n - 1,
    theta = q d/dq: the t-derivative of sum_j S[p - 1][m - j] t^j / j!, the
    Zagier-Zinger D-operator tower.  Each row is built once, when read:
    invariants --n 5 builds R[0], S[0] (the normalized rows) and R[1]."""
    if divided:
        inv = diagonal_inverse(spec, p)
        rows = _tower_rows(spec, p, divided=False)
        return (QSeries.one(spec.qorder),) + tuple(c * inv for c in rows[1:])
    if p == 0:
        return kernel(spec)
    prev = _tower_rows(spec, p - 1, divided=True)
    return tuple(prev[i + 1].derivative() + prev[i] for i in range(spec.n - p))


def i_series(spec, p, k):
    """Tower entry (p, k), sum_j R[p][k - j] t^j / j!, of t-degree k - p;
    tower_structure_check reads every 0 <= p <= k <= n - 1.  The only
    builder of a TPoly: every other reader takes the rows."""
    _check_entry(spec, p, k)
    rows = _tower_rows(spec, p, divided=False)
    return TPoly([rows[k - p - j] * Fraction(1, factorial(j)) for j in range(k - p + 1)])


def _check_entry(spec, p, k):
    if not 0 <= p <= k <= spec.n - 1:
        raise ValueError("need 0 <= p <= k <= n-1")


def diagonal_series(spec, p):
    """The diagonal tower entry I_p = R[p][p], a unit q-series; I_0 is
    kernel row 0, with integer coefficients (nd)! / (d!)^n."""
    _check_entry(spec, p, p)
    return _tower_rows(spec, p, divided=False)[0]


@lru_cache(maxsize=None)
def diagonal_inverse(spec, p):
    """1 / I_p, the one division by diagonal p: the ratio rows (the
    normalized rows at p = 0), the normalized window and the descended
    rungs multiply by it."""
    return 1 / diagonal_series(spec, p)


@lru_cache(maxsize=None)
def diagonal_log(spec, p):
    """log I_p, the one log of diagonal p, for the genus-1 series and checks."""
    return diagonal_series(spec, p).log()


def normalized_rows(spec):
    """The kernel rows over I_0, the tower's S[0]: rho_0 = 1 and
    rho_i = F_i / I_0 for the rows 0..max(n - 1, 1) of kernel."""
    return _tower_rows(spec, 0, divided=True)


@lru_cache(maxsize=None)
def mirror_shift(spec):
    """T - t = F_1 / I_0: the mirror map minus the flat coordinate, a pure
    q-series, read as the normalized row rho_1 at every n (at n = 1 the
    tower has a single column, but the kernel still holds row 1)."""
    return normalized_rows(spec)[1]


@lru_cache(maxsize=None)
def mirror_coordinate(spec):
    """exp(T - t) = Q / q, the canonical coordinate over q: one exp per spec
    for the table's integrality guard, its quintic block sums and the
    ladder report, which check that its coefficients are integers."""
    return mirror_shift(spec).exp()


@lru_cache(maxsize=None)
def one_minus_nn_q(spec):
    d = spec.qorder
    return QSeries.one(d) - QSeries.monomial(1, d, Fraction(spec.n) ** spec.n)


@lru_cache(maxsize=None)
def log_one_minus_nn_q(spec):
    """log(1 - n^n q), taken once per spec: the genus-1 series and checks
    read it, and linear_factor L and kernel_value_at_zero 1/L are
    exp(+-log / n) of it, as QSeries.power would form them.
    diagonal_identities raises 1 - n^n q to (n - 1)/2 by QSeries.power, so
    both of its products read the one series they multiply."""
    return one_minus_nn_q(spec).log()


@lru_cache(maxsize=None)
def linear_factor(spec):
    """L = (1 - n^n q)^{1/n}."""
    return (log_one_minus_nn_q(spec) * Fraction(1, spec.n)).exp()


@lru_cache(maxsize=None)
def regularizing_exponent(spec):
    """mu, by termwise integration of the closed form of the regular kernel
    at h = 0; its agreement with exponent_by_residue is a verified identity."""
    return (kernel_value_at_zero(spec) - 1).integral()


def exponent_by_residue(spec):
    """mu as res_{h=0} log K(1/h): entry k - 1 of row k of ladder_log, which
    the h-free log I_0 (entry k) never reaches; exponent_methods_check
    alone reads it, uncached."""
    return ladder_log(spec).weighted_residues(0)


@lru_cache(maxsize=None)
def _exp_minus_mu(spec):
    """exp(-mu/h) as a window u-series, built once per spec for
    regular_kernel and the descended rung 0."""
    return exp_over_hbar(-regularizing_exponent(spec))


@lru_cache(maxsize=None)
def regular_kernel(spec):
    """Q = exp(-mu/h) K(1/h), holomorphic at h = 0, for dump --what Q.

    With e_i = h^i [u^i] exp(-mu/h), a polynomial in h and row i of the
    window series, Q_d = N_d / (h^d V_d), N_d by Horner's rule in the v_r:
        N_d = e_0 rnum_d + v_d (e_1 rnum_{d-1} + v_{d-1} (... + v_1 e_d)).
    Each step multiplies by the n small coefficients C(n, k) r^k of v_r and
    adds one e_i rnum_{d-i}: about n^2 d^2 / 2 small-by-big and n d^3 / 6
    big-by-big products per degree.  Since V_d(0) != 0, Q_d is regular
    exactly when h^d divides N_d; a pole contradicts the structure theory
    and raises.

    The pair is then reduced with no gcd.  The irreducible factors of V_d
    over Q are the Phi_m(1 + r h) of _v_factors, r <= d, and each occurs in
    V_d once: the roots (zeta - 1)/r, zeta a primitive m-th root of unity,
    zeta = e^(i theta) with 0 < theta < 2 pi, are 2 sin(theta/2)/r times
    e^(i (theta + pi)/2), so the argument fixes zeta and then the modulus
    fixes r, and no two coincide.  So V_d is squarefree, and dividing each
    factor out wherever it divides N_d (_cancel_factors) leaves a coprime
    pair.  Returns the coprime pairs of integer tuples (num, den), one per
    degree, for RatFunc.from_coprime; N_d / h^d and V_d are both scaled by
    the common denominator of the e_i before the division.
    """
    n = spec.n
    parts = _inv_hbar_parts(spec)
    # the rows e_i in int over one denominator e_den, so N_d is over it too
    e, e_den = _scaled_rows(_exp_minus_mu(spec).coeffs)
    factors = []  # the irreducible factors of V_d
    out = []
    for d, (_, den) in enumerate(parts):
        num = e[d][: d + 1]  # e_d rnum_0; deg N_d <= n d once all v_r are in
        for r in range(1, d + 1):  # num <- v_r num + e_(d-r) rnum_r
            num = P._mul_ints(num, _v(n, r))
            P._accumulate(num, e[d - r][: d - r + 1], parts[r][0])
        if any(num[:d]):
            raise RegularityViolation(d, d - next(k for k, c in enumerate(num) if c))
        if d:
            factors += _v_factors(n, d)
        num, den = P._cancel_factors(num[d:], [c * e_den for c in den], factors)
        out.append((tuple(num), tuple(den)))
    return tuple(out)


@lru_cache(maxsize=None)
def kernel_value_at_zero(spec):
    """Closed form for the regular kernel at h = 0: (1 - n^n q)^{-1/n}."""
    return (log_one_minus_nn_q(spec) * Fraction(-1, spec.n)).exp()


@lru_cache(maxsize=None)
def kernel_slope_at_zero(spec):
    """Closed form for the first h-derivative of the regular kernel at h = 0."""
    n = spec.n
    c = Fraction((n - 2) * (n + 1), 24 * n)
    return (kernel_value_at_zero(spec) - 1 / one_minus_nn_q(spec)) * c


@lru_cache(maxsize=None)
def log_kernel_w(spec):
    """Bigraded logarithm of the kernel divided by its w-constant part I_0,
    on w-rows 0..max(n - 2, 0) at width D: log(1 + sum_i rho_i w^i) on the
    normalized rows rho_1..rho_(n-2), with row 0, log rho_0 = 0, the zero
    series.  Those are all its readers take: the genus-1 log tail reads
    rows 2..n - 2 and the boundary residue at infinity rows 0..n - 2.  Row
    k of the log depends only on rows <= k, so no row is divided again and
    no log of I_0 is taken."""
    rows = normalized_rows(spec)[: max(spec.n - 1, 1)]  # row 0 is not read
    return tuple(log_one_plus_rows(rows, QSeries.zero(spec.qorder)))


def dw_kernel_coeffs(n, upto):
    """Taylor coefficients in w of (1+w)^n / (1+nw), up to w^upto: the
    integers sum_{k<=j} C(n, j-k) (-n)^k."""
    return [sum(comb(n, j - k) * (-n) ** k for k in range(j + 1)) for j in range(upto + 1)]


# -- ladder series -------------------------------------------------------


@lru_cache(maxsize=None)
def ladder_series(spec):
    """Rung 0 of the ladder, K(1/h) / I_0 at rows u^0..u^D: the one
    normalized window per spec and the only reader of kernel_inv_hbar; minus
    one, it is the regularize suite's bridge series.  Its width D + 1 is the
    largest entry read, at row D of the descended rungs, by the slope in
    regular_kernel_checks and ladder_residue at order 1."""
    return kernel_inv_hbar(spec).mul_qseries(diagonal_inverse(spec, 0))


@lru_cache(maxsize=None)
def ladder_log(spec):
    """log of the normalized window, read by exponent_by_residue at entry
    k - 1 of row k and by the boundary residue at the origin at entries <= k."""
    return (ladder_series(spec) - 1).log_one_plus()


@lru_cache(maxsize=None)
def _descended_regular(spec, p):
    """D_p = exp(-mu/h) L_p for the p-th ladder series
    L_p = (1 + h d/dt) L_(p-1) / I_p, L_0 = K(1/h) / I_0; holomorphic at
    h = 0, at rows u^0..u^D and width D + 1; 0 <= p <= n - 1.

    Rung 0 is the one window product, exp(-mu/h) times ladder_series.
    Since theta = h q d/dq (h_euler) is a derivation with
    theta exp(-mu/h) = -q mu' exp(-mu/h), the Leibniz rule gives
        D_p = (1 + theta + q mu') D_(p-1) / I_p,
    each step a shift, two products by h-free series and no window
    product.  ladder_residue at orders 0 and 1 reads entries k and k + 1 of
    row k, so entry D + 1 of row D, and theta keeps every entry exact."""
    if not 0 <= p < spec.n:
        raise ValueError("need 0 <= p <= n-1")
    if p == 0:
        return _exp_minus_mu(spec) * ladder_series(spec)
    prev = _descended_regular(spec, p - 1)
    prev = prev.mul_qseries(_descent_factor(spec)) + prev.h_euler()
    return prev.mul_qseries(diagonal_inverse(spec, p))


@lru_cache(maxsize=None)
def _descent_factor(spec):
    """1 + q mu', the h-free factor of every descent step, once per spec."""
    return regularizing_exponent(spec).derivative() + 1


def ladder_residue(spec, p, order):
    """res_{h=0} h^{-1-order} exp(-mu/h) L_p, as a q-series, read off the
    descended rung D_p."""
    return _descended_regular(spec, p).weighted_residues(-1 - order)


# -- identity suites ------------------------------------------------------


def diagonal_identities(spec):
    """Product, weighted-product, and symmetry identities of the diagonals."""
    n, d = spec.n, spec.qorder
    diags = [diagonal_series(spec, p) for p in range(n)]
    onemq = one_minus_nn_q(spec)
    one = QSeries.one(d)

    prefix = weighted = one
    for g in diags[:-1]:  # prod_p g_p^(n-1-p) = prod_(0<k<n) g_0..g_(k-1), with no powers
        prefix = prefix * g
        weighted = weighted * prefix
    plain = prefix * diags[-1] * onemq
    weighted = weighted * onemq.power(Fraction(n - 1, 2))

    symmetry = (series_failure(diags[p], diags[n - 1 - p], d, f"p={p} q") for p in range(n))
    parts = [
        ("diagonal-product", series_failure(plain, one, d)),
        ("diagonal-weighted-product", series_failure(weighted, one, d)),
        ("diagonal-symmetry", first_failure(symmetry)),
    ]
    return merge_reports("diagonal-identities", {"n": n, "order": d}, parts, d)


def tower_structure_check(spec):
    """Degrees and constant terms of the tower entries, and the consistency
    of the reduced coefficients across rows."""
    n, d = spec.n, spec.qorder

    def failures():
        seen = {}
        for p in range(n):
            for k in range(p, n):
                entry = i_series(spec, p, k)
                yield equality_failure(f"t-degree of ({p},{k})", entry.t_degree <= k - p, True)
                for r in range(p, k + 1):
                    reduced = entry.coeff(k - r) * factorial(k - r)
                    expect = Fraction(1) if r == p else Fraction(0)
                    yield equality_failure(
                        f"constant of reduced ({p},{r}) from k={k}", reduced[0], expect
                    )
                    if (p, r) in seen:
                        label = f"reduced ({p},{r}) consistent q"
                        yield series_failure(reduced, seen[p, r], d, label)
                    else:
                        seen[p, r] = reduced

    return IdentityReport("tower-structure", {"n": n, "order": d}, d, first_failure(failures()))


def exponent_methods_check(spec):
    """The two constructions of the regularizing exponent agree."""
    d = spec.qorder
    text = series_failure(regularizing_exponent(spec), exponent_by_residue(spec), d)
    return IdentityReport("exponent-methods-agree", {"n": spec.n, "order": d}, d, text)


def regular_kernel_checks(spec):
    """Regularity at h = 0 plus the closed forms of value and slope there,
    read off the descended rung 0, Q / I_0 with Q = exp(-mu/h) K(1/h): a
    pole raises; entries k, k + 1 of row k times I_0 are the value and
    slope.  I_0 is an h-free unit, so the first singular row and its pole
    order are Q's."""
    d = spec.qorder
    window, diag = _descended_regular(spec, 0), diagonal_series(spec, 0)
    pole = window.first_pole()
    if pole:
        raise RegularityViolation(*pole)
    value, slope = window.taylor_coeff(0) * diag, window.taylor_coeff(1) * diag
    parts = [
        ("regular-kernel-value", series_failure(value, kernel_value_at_zero(spec), d)),
        ("regular-kernel-slope", series_failure(slope, kernel_slope_at_zero(spec), d)),
    ]
    return merge_reports("regular-kernel", {"n": spec.n, "order": d}, parts, d)


def ladder_identities(spec):
    """Residues of the descended ladder series against their closed forms,
    and the iterated double residue against both of its closed forms."""
    n, d = spec.n, spec.qorder
    if n < 2:
        raise ValueError("ladder identities need n >= 2")
    one = QSeries.one(d)
    big_l = linear_factor(spec)
    inv_l = kernel_value_at_zero(spec)  # 1/L, the series mu integrates
    fs = [inv_l * diagonal_inverse(spec, p) for p in range(n)]
    # f_r'/f_r = -(1/n) (log(1 - n^n q))' - (log I_r)', read at r <= n - 2
    dlog_l = log_one_minus_nn_q(spec).derivative() * Fraction(1, n)
    flog_deriv = [-dlog_l - diagonal_log(spec, r).derivative() for r in range(n - 1)]
    phi1 = kernel_slope_at_zero(spec)

    theta0 = [ladder_residue(spec, p, 0) for p in range(n)]
    theta1 = [ladder_residue(spec, p, 1) for p in range(n)]

    fails0, fails1, inners = [], [], []
    closed0 = one
    for p in range(n):
        closed0 = closed0 * fs[p]
        inner = phi1
        for r in range(p):
            inner = inner + flog_deriv[r] * (p - r)
        inners.append(inner)
        closed1 = big_l * closed0 * inner
        fails0.append(series_failure(theta0[p], closed0, d, f"p={p} q"))
        fails1.append(series_failure(theta1[p], closed1, d, f"p={p} q"))

    # the first descent step agrees with the mirror-map route; it holds by
    # the recurrence, I_1 = R[1][1] = theta rho_1 + 1 with rho_1 the shift,
    # and only a perturbation of one side shows that it can fail
    step = one + mirror_shift(spec).derivative()
    parts = [
        ("ladder-first-residue", first_failure(fails0)),
        ("ladder-second-residue", first_failure(fails1)),
        ("ladder-step-matches-mirror", series_failure(diagonal_series(spec, 1), step, d)),
        # a bump shared by I_1 and the shift keeps the step, but not this
        ("mirror-map-integral", integrality_failure(mirror_coordinate(spec))),
    ]

    # double residue of the paired ladder series
    descended = [_descended_regular(spec, p) for p in range(n)]
    lhs = QSeries.zero(d)
    for p in range(n - 1):
        q_idx = n - 2 - p
        lhs = lhs + double_residue_split_kernel(descended[p], descended[q_idx])
    lhs = lhs + double_residue_split_kernel(descended[n - 1], descended[n - 1])

    mid = QSeries.zero(d)
    for p in range(n - 1):
        mid = mid + theta1[p] * theta0[n - 2 - p]
    mid = mid + theta1[n - 1] * theta0[n - 1]

    # the closed form L (n phi1 + sum_{p<=n-2} sum_{r<p} (p - r) f_r'/f_r), read off the inners
    rhs = big_l * sum(inners[: n - 1], phi1)

    paired = (series_failure(lhs, mid, d, "mid q"), series_failure(lhs, rhs, d, "closed q"))
    parts.append(("paired-ladder-double-residue", first_failure(paired)))
    return merge_reports("ladder-identities", {"n": n, "order": d}, parts, d)
