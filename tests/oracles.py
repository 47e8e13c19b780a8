"""Independent brute-force expansions used as oracles by the tests.

Everything here works on plain bivariate coefficient arrays with Fraction
entries, straight from the defining sums, sharing no code with the
package under test.  Ten references are routes rather than arithmetic
and run on the package's own objects, kept at the end: the product route
of the descended ladder, the full-precision fixed point of the
regularizing exponent and the column route to its b_j, the full-width
kernel at w = 1/h, bridge series, u/h counterexample and window series of
scalar coefficients, the q-side routes that divided by a diagonal and
took a log for each reader (with the mirror shift as J_1 - t), the tower
built entry by entry, the quintic's genus-0 pass and the quartic's K3
checks on its J-polynomials (with the reference t-polynomial arithmetic
and t-free part), the residue from full-length Taylor
shifts, the moment window 1 / (1 - G) by
QSeries products, the Yukawa route to the quintic's genus-0 numbers, and
the argparse parser of the command line.
"""

from fractions import Fraction as Fr
from itertools import combinations
from math import comb, factorial, lcm, prod


def _wpoly_mul(p, q, w_order):
    out = [Fr(0)] * (w_order + 1)
    for i, x in enumerate(p):
        if x == 0 or i > w_order:
            continue
        for j, y in enumerate(q):
            if i + j > w_order:
                break
            out[i + j] += x * y
    return out


def _wpoly_inv(p, w_order):
    out = [Fr(0)] * (w_order + 1)
    out[0] = 1 / p[0]
    for k in range(1, w_order + 1):
        s = sum(p[j] * out[k - j] for j in range(1, min(k, len(p) - 1) + 1))
        out[k] = -s / p[0]
    return out


def kernel_columns(n, q_order, w_order):
    """kernel[d][j]: coefficient of q^d w^j of the defining double sum."""
    cols = []
    for d in range(q_order + 1):
        num = [Fr(1)]
        for r in range(1, n * d + 1):
            num = _wpoly_mul(num, [Fr(r), Fr(n)], w_order)
        den = [Fr(1)]
        for r in range(1, d + 1):
            factor = [Fr(comb(n, k)) * Fr(r) ** (n - k) for k in range(n)]
            den = _wpoly_mul(den, factor, w_order)
        cols.append(_wpoly_mul(num, _wpoly_inv(den, w_order), w_order))
    return cols


def qmul(a, b):
    d = len(a) - 1
    out = [Fr(0)] * (d + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[: d + 1 - i]):
            out[i + j] += x * y
    return out


def qinv(a):
    out = [Fr(0)] * len(a)
    out[0] = 1 / a[0]
    for k in range(1, len(a)):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0]
    return out


def qlog(a):
    out = [Fr(0)] * len(a)
    for d in range(1, len(a)):
        s = d * a[d]
        for k in range(1, d):
            s -= k * out[k] * a[d - k]
        out[d] = s / d
    return out


def qexp(a):
    out = [Fr(0)] * len(a)
    out[0] = Fr(1)
    for d in range(1, len(a)):
        s = Fr(0)
        for k in range(1, d + 1):
            s += k * a[k] * out[d - k]
        out[d] = s / d
    return out


def split_sum(qs, b):
    """sum over j_1 + ... + j_k = b of prod_i C(q_i, j_i), by recursion on
    the first entry: the enumeration of every split."""
    if not qs:
        return 1 if b == 0 else 0
    q0 = qs[0]
    return sum(comb(q0, j) * split_sum(qs[1:], b - j) for j in range(min(q0, b) + 1))


def split_sums_by_rows(qs):
    """Every entry of prod_i sum_j C(q_i, j) x^j: the binomial row of qs[0]
    convolved into the sums of qs[1:], one Python double loop per row."""
    if not qs:
        return (1,)
    tail = split_sums_by_rows(qs[1:])
    out = [0] * (len(tail) + qs[0])
    for j in range(qs[0] + 1):
        c = comb(qs[0], j)
        for i, s in enumerate(tail):
            out[i + j] += c * s
    return tuple(out)


def case_failure(identity, parameters, lhs, rhs):
    """The text the appendixA suite prints for a failing case, else None."""
    if lhs == rhs:
        return None
    params = " ".join(f"{k}={v}" for k, v in parameters.items())
    return f"{identity} [{params}]: FAIL at value: {lhs!r} != {rhs!r}"


def vandermonde_check(b, qs):
    """One appendixA case: the split sums of qs at b against C(sum qs, b)."""
    qs = tuple(qs)
    if b < 0 or min(qs, default=0) < 0:
        raise ValueError("b and every q_i must be nonnegative")
    sums = split_sums_by_rows(qs)
    lhs = sums[b] if b < len(sums) else 0
    return case_failure("binomial-vandermonde", {"b": b, "qs": qs}, lhs, comb(sum(qs), b))


def reciprocal_sum_check(q, a):
    """One appendixA case: sum_b (-1)^b C(q, b) / (a + b) in Fractions
    against the beta value (a - 1)! q! / (a + q)!."""
    if q < 0 or a < 1:
        raise ValueError("q must be nonnegative and a >= 1")
    lhs = sum(Fr((-1) ** b * comb(q, b), a + b) for b in range(q + 1))
    rhs = Fr(factorial(a - 1) * factorial(q), factorial(a + q))
    return case_failure("alternating-reciprocal-sum", {"q": q, "a": a}, lhs, rhs)


def rising_product_check(q, a, s):
    """One appendixA case: sum_b (-1)^b C(q, b) prod_{a-s<r<=a} (r + b)
    against (-1)^q s! C(a, s - q)."""
    if min(q, a, s) < 0:
        raise ValueError("q, a and s must be nonnegative")
    lhs = sum((-1) ** b * comb(q, b) * prod(range(a - s + 1 + b, a + 1 + b)) for b in range(q + 1))
    rhs = (-1) ** q * factorial(s) * (comb(a, s - q) if s >= q else 0)
    params = {"q": q, "a": a, "s": s}
    return case_failure("alternating-rising-product", params, Fr(lhs), Fr(rhs))


def wlog(f):
    """Bigraded log of f[j][d] (coefficient of w^j q^d; f[0][0] = 1) by the
    power sum log f0 + sum_m (-1)^(m+1) rest^m / m, rest = (f - f0)/f0,
    with every power of rest a full product truncated at w^W."""
    w_order = len(f) - 1
    f0_inv = qinv(f[0])
    zero = [Fr(0)] * len(f[0])
    rest = [zero] + [qmul(c, f0_inv) for c in f[1:]]
    out = [qlog(f[0])] + [zero] * w_order
    power = [[Fr(1)] + zero[1:]] + [zero] * w_order
    for m in range(1, w_order + 1):
        nxt = [zero] * (w_order + 1)
        for i, x in enumerate(power):
            for j, y in enumerate(rest[: w_order + 1 - i]):
                nxt[i + j] = [a + b for a, b in zip(nxt[i + j], qmul(x, y))]
        power = nxt
        out = [[a + Fr((-1) ** (m + 1), m) * b for a, b in zip(o, p)] for o, p in zip(out, power)]
    return out


def quintic_tables(order):
    """(N0, N1, n0, n1, mirror_shift) for the quintic, degrees 1..order.

    Works in bivariate (q, t) arrays from the defining sums, checks the
    t-cancellation, and re-expands in Q = q*exp(shift) by back-substitution.
    """
    d_max = order
    t_max = 4
    cols = kernel_columns(5, d_max, 4)

    def zero():
        return [[Fr(0)] * (t_max + 1) for _ in range(d_max + 1)]

    def bmul(a, b):
        c = zero()
        for i1 in range(d_max + 1):
            for j1 in range(t_max + 1):
                if a[i1][j1] == 0:
                    continue
                for i2 in range(d_max + 1 - i1):
                    for j2 in range(t_max + 1 - j1):
                        if b[i2][j2] != 0:
                            c[i1 + i2][j1 + j2] += a[i1][j1] * b[i2][j2]
        return c

    def i_poly(k):
        a = zero()
        for r in range(k + 1):
            for d in range(d_max + 1):
                a[d][k - r] += cols[d][r] / factorial(k - r)
        return a

    i0 = i_poly(0)
    i0_inv_q = qinv([i0[d][0] for d in range(d_max + 1)])
    inv = zero()
    for d in range(d_max + 1):
        inv[d][0] = i0_inv_q[d]
    j1 = bmul(i_poly(1), inv)
    j2 = bmul(i_poly(2), inv)
    j3 = bmul(i_poly(3), inv)
    t3 = bmul(j1, bmul(j1, j1))
    h = zero()
    for d in range(d_max + 1):
        for j in range(t_max + 1):
            h[d][j] = Fr(5, 2) * (bmul(j1, j2)[d][j] - j3[d][j]) - Fr(5, 6) * t3[d][j]
    if any(h[d][j] != 0 for d in range(d_max + 1) for j in range(1, t_max + 1)):
        raise AssertionError("the genus-0 combination depends on t")
    hq = [h[d][0] for d in range(d_max + 1)]

    shift = [j1[d][0] for d in range(d_max + 1)]
    if j1[0][1] != 1 or shift[0] != 0:
        raise AssertionError("J_1 does not start t + O(q)")
    big_q = [Fr(0)] + qexp(shift)[:d_max]

    def extract(series):
        vals = {}
        rem = list(series)
        power = list(big_q)
        for d in range(1, d_max + 1):
            vals[d] = rem[d]
            rem = [rem[i] - vals[d] * power[i] for i in range(d_max + 1)]
            power = qmul(power, big_q)
        return vals

    n0_gw = extract(hq)

    i0_q = [i0[d][0] for d in range(d_max + 1)]
    j1_prime = [d * shift[d] for d in range(d_max + 1)]
    j1_prime[0] += 1
    log_pole = [Fr(0)] * (d_max + 1)
    for d in range(1, d_max + 1):
        log_pole[d] = -Fr(5**5) ** d / d
    rhs = [
        Fr(25, 6) * shift[i]
        - Fr(62, 3) * qlog(i0_q)[i]
        - Fr(1, 6) * log_pole[i]
        - qlog(j1_prime)[i]
        for i in range(d_max + 1)
    ]
    n1_gw = extract([x / 2 for x in rhs])

    def divisors(d):
        return [k for k in range(1, d + 1) if d % k == 0]

    def sigma(r):
        return sum(divisors(r))

    n0 = {}
    for d in range(1, d_max + 1):
        n0[d] = n0_gw[d] - sum(n0[d // k] / Fr(k) ** 3 for k in divisors(d) if k > 1)
    n1 = {}
    for d in range(1, d_max + 1):
        n1[d] = (
            n1_gw[d]
            - Fr(1, 12) * sum(n0[d // k] / Fr(k) for k in divisors(d))
            - sum(n1[d // k] * Fr(sigma(k), k) for k in divisors(d) if k > 1)
        )
    return n0_gw, n1_gw, n0, n1, shift


# -- the Fraction loops that the integer kernels of polys and series replaced.
# Rows and series are plain coefficient lists; a row of length t + 1 is a
# QSeries truncated at t.


def poly_mul(a, b):
    """Product of two polynomials without trailing zeros."""
    if not a or not b:
        return ()
    out = [Fr(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def series_mul(a, b, order):
    """Coefficients 0..order of a * b; a and b may be shorter."""
    out = [Fr(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if y != 0:
                out[i + j] += x * y
    return tuple(out)


def series_inv(p, order):
    """1/p to the given order; p[0] != 0."""
    out = [Fr(0)] * (order + 1)
    out[0] = 1 / p[0]
    for k in range(1, order + 1):
        s = Fr(0)
        for j in range(1, min(k, len(p) - 1) + 1):
            s += p[j] * out[k - j]
        out[k] = -s / p[0]
    return tuple(out)


def series_quotient(a, b):
    """a / b at the smaller truncation, b[0] != 0: the quotient loop of
    QSeries."""
    d = min(len(a), len(b)) - 1
    out = [Fr(0)] * (d + 1)
    for k in range(d + 1):
        s = a[k]
        for j in range(1, min(k, len(b) - 1) + 1):
            s -= b[j] * out[k - j]
        out[k] = s / b[0]
    return out


def _row_add(x, y):
    return [u + v for u, v in zip(x, y)]


def convolve_rows(a, b, length):
    """Rows 0..length-1 of the product of two lists of rows: row m is
    sum_{i+j=m} a[i] b[j], each product and each sum at the smaller length."""
    out = []
    for m in range(length):
        lo = max(0, m - len(b) + 1)
        acc = list(series_mul(a[lo], b[m - lo], min(len(a[lo]), len(b[m - lo])) - 1))
        for i in range(lo + 1, min(m, len(a) - 1) + 1):
            acc = _row_add(acc, series_mul(a[i], b[m - i], min(len(a[i]), len(b[m - i])) - 1))
        out.append(acc)
    return out


def log_one_plus_rows(z, head):
    """Rows of log(1 + z), row 0 being head, z[0] unread: row k solves
    k L_k = k z_k - sum_{0<j<k} j L_j z_(k-j)."""
    out = [head]
    weighted = [None]
    for k in range(1, len(z)):
        row = list(z[k])
        if k > 1:
            acc = list(series_mul(weighted[1], z[k - 1], min(len(weighted[1]), len(z[k - 1])) - 1))
            for j in range(2, k):
                prod = series_mul(weighted[j], z[k - j], min(len(weighted[j]), len(z[k - j])) - 1)
                acc = _row_add(acc, prod)
            row = [u - v / k for u, v in zip(row, acc)]
        out.append(row)
        weighted.append([c * k for c in row])
    return out


def lagrange_powers(g):
    """exp(-k g) truncated at q^(k-1), k = 1..len(g)-1, from the recurrence
    m c_m = -k sum_j j g_j c_(m-j)."""
    jg = [j * c for j, c in enumerate(g)]
    out = []
    for k in range(1, len(g)):
        p = [Fr(1)] * k
        for m in range(1, k):
            s = Fr(0)
            for j in range(1, m + 1):
                s += jg[j] * p[m - j]
            p[m] = s * Fr(-k, m)
        out.append(tuple(p))
    return out


def taylor_shift(p, a):
    """p(x + a) by Horner's rule on the shifted variable, with polynomial
    products."""
    acc = ()
    for c in reversed(p):
        acc = list(poly_mul(acc, (a, Fr(1))))
        if acc:
            acc[0] += c
        else:
            acc = [Fr(c)]
        while acc and acc[-1] == 0:
            acc.pop()
        acc = tuple(acc)
    return acc


def change_exp_variable(f, g):
    """f re-expanded in Q = q exp(g(q)) by Lagrange-Buermann, with the powers
    of lagrange_powers: [Q^0] = f_0, [Q^k] = (1/k) sum_j j f_j [q^(k-j)] exp(-k g)."""
    d = min(len(f), len(g)) - 1
    out = [f[0]]
    for k, p in enumerate(lagrange_powers(g[: d + 1]), start=1):
        s = Fr(0)
        for j in range(1, k + 1):
            s += j * f[j] * p[k - j]
        out.append(s / k)
    return out


def regularize_eta(moments):
    """The exponent of a regularization from its moments c_j = res{ h^-j z },
    j = 0..D (coefficient lists of length D + 1), by the degree-stabilizing
    fixed point eta <- sum_j (-eta)^j / j! c_j, D rounds from eta = c_0, each
    round forming every power of -eta anew."""
    d = len(moments) - 1
    eta = list(moments[0])
    for _ in range(d):
        neg = [-c for c in eta]
        power = [Fr(1)] + [Fr(0)] * d
        acc = [Fr(0)] * (d + 1)
        for j in range(d + 1):
            term = series_mul(power, moments[j], d)
            acc = [a + t / factorial(j) for a, t in zip(acc, term)]
            power = series_mul(power, neg, d)
        eta = acc
    return eta


def moment_sums(moments, a, which):
    """The left side of a moment identity from the power list of
    g(s, u) = sum_j (-1)^j / j! c_j(u) s^j, for the moments c_j, j = 0..D
    (coefficient lists of length D + 1): g^m for m = 1..D, each a list of
    u-coefficient lists over s^0..s^D, and then
        intrinsic:   sum_{m>=2} [s^(m-2-a)] g^m / (m(m-1)),
        regularized: sum_{m>=1} [s^(m-a)] g^m, plus 1 for a = 0."""
    d = len(moments) - 1
    g = [[c * Fr((-1) ** j, factorial(j)) for c in m] for j, m in enumerate(moments)]
    power = [[Fr(1)] + [Fr(0)] * d]  # g^0
    lhs = [Fr(1 if which == "regularized" and a == 0 else 0)] + [Fr(0)] * d
    for m in range(1, d + 1):
        power = convolve_rows(power, g, d + 1)
        if which == "intrinsic":
            if m < 2 or m - 2 - a < 0:
                continue
            lhs = _row_add(lhs, [c / (m * (m - 1)) for c in power[m - 2 - a]])
        else:
            if m - a < 0:
                continue
            lhs = _row_add(lhs, power[m - a])
    return lhs


# -- the Fraction RatFunc and the residue routes that the integer RatFunc
# replaced.  Polynomials are Fraction tuples without trailing zeros; the
# gcd is Euclid's over the rationals.


def _trim(p):
    p = [Fr(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _pdivmod(a, b):
    rem = list(a)
    quot = [Fr(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q = rem[i + len(b) - 1] / b[-1]
        quot[i] = q
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return _trim(quot), _trim(rem)


def _pmonic(p):
    return tuple(c / p[-1] for c in p)


def _pgcd(a, b):
    """Monic gcd by Euclid's algorithm; a and b not both zero."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


class RatFunc:
    """Reduced rational function in h with Fraction coefficients; den monic."""

    def __init__(self, num, den=(Fr(1),)):
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (Fr(1),)
            return
        g = _pgcd(num, den)
        num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
        lc = den[-1]
        self.num = tuple(c / lc for c in num)
        self.den = tuple(c / lc for c in den)

    @classmethod
    def from_scalar(cls, c):
        return cls((Fr(c),))

    @classmethod
    def variable(cls):
        return cls((Fr(0), Fr(1)))

    @classmethod
    def inv_power(cls, k):
        return cls((Fr(1),), (Fr(0),) * k + (Fr(1),))

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fr)):
            other = RatFunc.from_scalar(other)
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        if isinstance(other, (int, Fr)):
            other = RatFunc.from_scalar(other)
        num = _padd(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RatFunc(num, poly_mul(self.den, other.den))

    def __neg__(self):
        return RatFunc(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fr)):
            other = RatFunc.from_scalar(other)
        return RatFunc(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return self * RatFunc(other.den, other.num)

    def evaluate(self, a):
        a = Fr(a)
        d = sum(c * a**k for k, c in enumerate(self.den))
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {a}")
        return sum((c * a**k for k, c in enumerate(self.num)), Fr(0)) / d

    def shift(self, a):
        return RatFunc(taylor_shift(self.num, a), taylor_shift(self.den, a))

    def pole_order_at_zero(self):
        if self.is_zero():
            return 0
        return next(k for k, c in enumerate(self.den) if c != 0)

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

        if self.den == (Fr(1),):
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"


def laurent_at_zero(f, low, high):
    """Entries [h^-low] f .. [h^high] f of the Laurent expansion at 0."""
    m = f.pole_order_at_zero()
    unit = f.den[m:]
    taylor = series_mul(f.num, series_inv(unit, low + high + m), low + high + m) if f.num else ()
    # [h^j] f = [h^(j+m)] (num / unit)
    return [taylor[j + m] if 0 <= j + m < len(taylor) else Fr(0) for j in range(-low, high + 1)]


def residue_at(f, a):
    """Shift the pole to 0, then read the h^-1 entry of the window there."""
    g = f.shift(Fr(a)) if a else f
    m = g.pole_order_at_zero()
    return laurent_at_zero(g, m, -1)[m - 1] if m else Fr(0)


def _divide_linear(c, s, t):
    """c / (t h - s) for an integer list c by synthetic division from the
    top, or None when it does not divide.  t h - s is primitive, so by
    Gauss's lemma a quotient over Q has integer coefficients and every step
    of a division that works is exact."""
    rem = list(c)
    quot = [0] * (len(c) - 1)
    for i in range(len(c) - 1, 0, -1):
        q, r = divmod(rem[i], t)
        if r:
            return None
        quot[i - 1] = q
        rem[i - 1] += q * s
    return quot if rem[0] == 0 else None


def residue_at_by_division(f, a):
    """The residue at a = s/t by dividing the pole out: t h - s is divided
    out of the cleared denominator until it no longer divides, leaving
    (t h - s)^m u; then, with x = t h - s and t^k p(h) = sum_j e_j(p) x^j
    for p of degree k (the binomial expansion of p((x + s)/t)), the residue
    is t^(deg u - deg num - 1) [x^(m-1)] e(num) / e(u)."""
    a = Fr(a)
    s, t = a.numerator, a.denominator
    cleared = lcm(*(c.denominator for c in f.num + f.den))
    num, unit = ([c.numerator * (cleared // c.denominator) for c in p] for p in (f.num, f.den))
    m = 0
    while (quot := _divide_linear(unit, s, t)) is not None:
        unit, m = quot, m + 1
    if not m:
        return Fr(0)

    def expand(p):
        k = len(p) - 1
        return [
            Fr(sum(c * t ** (k - i) * comb(i, j) * s ** (i - j) for i, c in enumerate(p) if i >= j))
            for j in range(m)
        ]

    return series_quotient(expand(num), expand(unit))[m - 1] * Fr(t) ** (len(unit) - len(num) - 1)


def residue_at_infinity(f):
    """-res_0 { w^-2 f(1/w) }, with f(1/w) rebuilt from the reversals."""
    if f.is_zero():
        return Fr(0)
    p, q = len(f.num) - 1, len(f.den) - 1
    e = q - p - 2
    num_w, den_w = f.num[::-1], f.den[::-1]
    if e >= 0:
        g = RatFunc((Fr(0),) * e + num_w, den_w)
    else:
        g = RatFunc(num_w, (Fr(0),) * -e + den_w)
    return -residue_at(g, 0)


def product_residue_subsets(fs):
    """The subset sum of the product-residue check with Fraction windows:
    sum over nonempty subsets S of prod_{i in S} r_i times the h^(|S|-1)
    Taylor coefficient of the product of the other regular parts."""
    k = len(fs)
    windows = [laurent_at_zero(f, 1, k - 2) for f in fs]
    res = [w[0] for w in windows]
    rhs = Fr(0)
    for size in range(1, k + 1):
        for chosen in combinations(range(k), size):
            r = prod(res[i] for i in chosen)
            if r == 0:
                continue
            rest = (Fr(1),)
            for i in range(k):
                if i not in chosen:
                    rest = series_mul(rest, windows[i][1:], size - 1)
            rhs += r * (rest[size - 1] if len(rest) >= size else 0)
    return rhs


def _div_ints(a, b):
    """a / b for integer lists without trailing zeros, or None when b does
    not divide a in Z[h]: one full pass of long division."""
    rem = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q, r = divmod(rem[i + len(b) - 1], b[-1])
        if r:
            return None
        quot[i] = q
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return quot if not any(rem) else None


def cancel_factors_by_trial(num, den, factors):
    """The known-factor reduction by trial division, the route the root test
    replaced: each factor is tried by a full division pass of num and then
    of den, and divided out of both for as long as both passes are exact."""
    num, den = [int(c) for c in _trim(num)], [int(c) for c in _trim(den)]
    for f in factors:
        while (q := _div_ints(num, f)) is not None and (r := _div_ints(den, f)) is not None:
            num, den = q, r
    return num, den


def random_ratfunc(rng):
    """A residue-suite sum trial as the Fraction generator drew it: the
    function and its listed poles."""
    den = (Fr(1),)
    poles = set()
    for _ in range(rng.randint(1, 3)):
        a = Fr(rng.randint(-4, 4), rng.randint(1, 3))
        poles.add(a)
        for _ in range(rng.randint(1, 2)):
            den = poly_mul(den, (-a, Fr(1)))
    num = tuple(Fr(rng.randint(-6, 6)) for _ in range(rng.randint(1, len(den))))
    return RatFunc(num, den), poles


def random_factors(rng):
    """A residue-suite product trial as the Fraction generator drew it."""
    fs = []
    for _ in range(rng.randint(0, 5)):
        num = tuple(Fr(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3)))
        den = (Fr(0), Fr(1)) if rng.random() < 0.7 else (Fr(1),)
        fs.append(RatFunc(num, den) + Fr(rng.randint(-3, 3)))
    return fs


def block_sums(shift, values):
    """(sum2, sum3c) of the quintic block check by the q-series loop: the
    powers E_d = E_1^d of E_1 = q exp(shift) by full products, then
    sum2 = sum_d E_d N_d d/5 and sum3c = sum_d E_d N_d (-2/5)."""
    d = len(shift) - 1
    e_pows = [[Fr(0)] + qexp(shift)[:d]]
    for _ in range(1, d):
        e_pows.append(qmul(e_pows[-1], e_pows[0]))
    sum2 = [Fr(0)] * (d + 1)
    sum3c = [Fr(0)] * (d + 1)
    for deg, val in enumerate(values, start=1):
        sum2 = [a + b * (val * Fr(deg, 5)) for a, b in zip(sum2, e_pows[deg - 1])]
        sum3c = [a + b * (val * Fr(-2, 5)) for a, b in zip(sum3c, e_pows[deg - 1])]
    return sum2, sum3c


# -- Fraction helpers the package dropped once nothing in it called them -------


def mul_xk(p, k):
    """The Fraction polynomial p times x**k."""
    if not p:
        return ()
    return (Fr(0),) * k + tuple(p)


def reverse(p, deg):
    """x**deg * p(1/x) for a Fraction polynomial p; requires deg >= degree(p)."""
    if deg < len(p) - 1:
        raise ValueError("reversal degree below actual degree")
    return _trim([Fr(0)] * (deg - len(p) + 1) + list(p)[::-1])


def evaluate(f, a):
    """f(a) for a hypergw RatFunc, from its integer tuples: the homogeneous
    forms t^k p(s/t) of numerator and denominator by Horner's rule, a = s/t."""
    a = Fr(a)
    s, t = a.numerator, a.denominator

    def homogeneous(c):
        acc, tp = 0, 1
        for x in reversed(c):
            acc = acc * s + x * tp
            tp *= t
        return acc

    d = homogeneous(f._den)
    if d == 0:
        raise ZeroDivisionError(f"denominator vanishes at {a}")
    # num(a) / den(a) = (t^p num(a)) t^(q - p) / (t^q den(a))
    e = len(f._den) - len(f._num)
    n = homogeneous(f._num)
    return Fr(n * t**e, d) if e >= 0 else Fr(n, d * t**-e)


def series_pairs(lhs, rhs, max_order, var="q"):
    """The triples (var^k, lhs[k], rhs[k]) for k = 0..max_order: the loci of
    a coefficientwise comparison of two series, the reference of
    hypergw.report.series_failure."""
    return [(f"{var}^{k}", lhs[k], rhs[k]) for k in range(max_order + 1)]


def value_and_slope(pairs):
    """Value and slope at h = 0 of each quotient (num, den) of integer
    tuples, as two Fraction lists: (a + a' h + ..) / (b + b' h + ..)
    has value a/b and slope (a' b - a b') / b^2 there."""
    value, slope = [], []
    for num, den in pairs:
        (a, a1), (b, b1) = (*num, 0, 0)[:2], (*den, 0, 0)[:2]
        value.append(Fr(a, b))
        slope.append(Fr(a1 * b - a * b1, b * b))
    return value, slope


def unreduced_regular_kernel(n, e_rows):
    """The pairs (N_d / h^d, V_d) of the regular kernel Q = exp(-mu/h) K(1/h)
    straight from their defining products, unreduced, as Fraction tuples:
    N_d = sum_i e_i rnum_(d-i) prod_(d-i<r<=d) v_r for the rows e_i (e_i[j]
    the h^j coefficient of h^i [u^i] exp(-mu/h), read up to j = i),
    rnum_k = prod_(r<=nk) (n + r h), V_d = prod_(r<=d) v_r and
    v_r = ((1 + r h)^n - 1) / h.  One pair per row."""

    def v(r):
        return tuple(Fr(comb(n, k) * r**k) for k in range(1, n + 1))

    def products(factors):
        out = [(Fr(1),)]
        for f in factors:
            out.append(poly_mul(out[-1], f))
        return out

    top = len(e_rows) - 1
    rnum = products((Fr(n), Fr(r)) for r in range(1, n * top + 1))[::n]
    big_v = products(v(r) for r in range(1, top + 1))
    pairs = []
    for d in range(top + 1):
        acc = ()
        tail = (Fr(1),)
        for i in range(d + 1):
            if i:
                tail = poly_mul(tail, v(d - i + 1))
            term = poly_mul(poly_mul(tuple(e_rows[i][: i + 1]), rnum[d - i]), tail)
            acc = _padd(acc, term)
        if any(acc[:d]):
            raise ArithmeticError(f"h^{d} does not divide N_{d}")
        pairs.append((acc[d:], big_v[d]))
    return pairs


# -- the Fraction QSeries ---------------------------------------------------------


class QSeries:
    """The q-series type as it was before it held integer numerators over one
    denominator: a tuple of Fraction coefficients, every operation a loop of
    Fraction arithmetic (the loops above).  The differential reference of
    hypergw.series.QSeries."""

    def __init__(self, coeffs, truncation=None):
        coeffs = [Fr(c) for c in coeffs]
        if truncation is None:
            truncation = len(coeffs) - 1
        if truncation < 0 or len(coeffs) > truncation + 1:
            raise ValueError("bad truncation")
        self.coeffs = tuple(coeffs + [Fr(0)] * (truncation + 1 - len(coeffs)))
        self.truncation = truncation

    @classmethod
    def constant(cls, c, truncation):
        return cls([c], truncation)

    def __getitem__(self, d):
        if not 0 <= d <= self.truncation:
            raise IndexError(d)
        return self.coeffs[d]

    def truncate(self, truncation):
        return QSeries(self.coeffs[: truncation + 1])

    def _coerce(self, other):
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fr)):
            return QSeries.constant(other, self.truncation)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fr)):
            return QSeries([c * other for c in self.coeffs])
        d = min(self.truncation, other.truncation)
        return QSeries(series_mul(self.coeffs, other.coeffs, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fr)):
            return QSeries([c / other for c in self.coeffs])
        return QSeries(series_quotient(self.coeffs, other.coeffs))

    def __rtruediv__(self, other):
        return QSeries.constant(other, self.truncation) / self

    def __pow__(self, k):
        out = QSeries.constant(1, self.truncation)
        for _ in range(k):
            out = out * self
        return out

    def derivative(self):
        return QSeries([d * c for d, c in enumerate(self.coeffs)])

    def integral(self):
        return QSeries([Fr(0)] + [c / d for d, c in enumerate(self.coeffs) if d])

    def exp(self):
        return QSeries(qexp(self.coeffs))

    def log(self):
        return QSeries(qlog(self.coeffs))

    def power(self, r):
        return (self.log() * Fr(r)).exp()

    def compose(self, inner):
        d = min(self.truncation, inner.truncation)
        acc = QSeries.constant(self.coeffs[d], d)
        for k in range(d - 1, -1, -1):
            acc = acc * inner.truncate(d) + self.coeffs[k]
        return acc


# -- the product route of the descended ladder -----------------------------------
# These run on the package's window series: the reference is the route, one
# window product per rung, not the arithmetic under it.


def ladder_rungs(kernel, diagonals):
    """The singular ladder rungs L_0..L_(n-1) of the kernel at w = 1/h, a
    window u-series, and the diagonal q-series I_0..I_(n-1):
    L_0 = K(1/h) / I_0 and L_p = (1 + h u d/du) L_(p-1) / I_p."""
    rungs = [kernel.mul_qseries(1 / diagonals[0])]
    for g in diagonals[1:]:
        y = rungs[-1]
        rungs.append((y + y.h_euler()).mul_qseries(1 / g))
    return rungs


def descended_by_products(back, kernel, diagonals):
    """exp(-mu/h) L_p for every rung, as one window product per rung with
    back = exp(-mu/h): the route hypergw.hyper._descended_regular replaces
    by the Leibniz rule."""
    return [back * y for y in ladder_rungs(kernel, diagonals)]


# -- the full-precision fixed point of the regularizing exponent ----------------
# It runs on the package's moment series: every round at the full precision
# u^D.  regularize reads the same fixed point off log(1 - G) by Lagrange
# inversion, with no rounds.


def full_precision_eta(moments):
    """eta from the moments c_j = res{ h^-j z }, j = 0..D, q-series of the
    package truncated at u^D: D rounds from eta = c_0 of
    eta <- sum_{j<=D} (-eta)^j / j! c_j, each one Horner pass at u^D."""
    d = len(moments) - 1
    scaled = [c * Fr(1, factorial(j)) for j, c in enumerate(moments)]
    eta = moments[0]
    for _ in range(d):
        acc = scaled[d]
        for j in range(d, 0, -1):
            acc = scaled[j - 1] - eta * acc
        eta = acc
    return eta


def fixed_point_columns(z):
    """The columns b_j = u^(j-1) (-1)^j c_j / j!, j = 0..D-1, of the fixed
    point, as q-series of the package at u^0..u^(D-1), by the column route:
    c_j = res{ h^-j z } off rows 0..D - j of z by weighted_residues(-j),
    scaled by (-1)^j / j! and shifted by j - 1.  They are the columns of the
    moment window G that regularize builds from the rows of z in place."""
    from hypergw.residues import USeriesRF
    from hypergw.series import QSeries

    d = z.truncation
    out = []
    for j in range(d):
        c = USeriesRF._of(z[: d - j + 1]).weighted_residues(-j) * Fr((-1) ** j, factorial(j))
        out.append(QSeries._of(((0,) * j + c.ints)[1:], c.den))
    return out


# -- the full-width kernel at w = 1/h and bridge series --------------------------
# The kernel at w = 1/h held at the width 2D + 2 of a window series built from
# coefficients, from the package's factored pairs: the route that held the
# regularize suite's bridge series before regularize read its input's rows in
# place and the bridge became the ladder window, at width D + 1.


def wide_kernel_inv_hbar(spec):
    """The kernel at w = 1/h at rows u^0..u^D and width 2D + 2, whose q^d
    coefficient is h^-d rnum_d / V_d."""
    from hypergw import hyper
    from hypergw.residues import USeriesRF

    parts = hyper._inv_hbar_parts(spec)
    return USeriesRF.from_quotients([(-d, rnum, den) for d, (rnum, den) in enumerate(parts)])


def wide_bridge_series(spec):
    """The bridge series K(1/h) / I_0 - 1 at width 2D + 2."""
    from hypergw import hyper

    return wide_kernel_inv_hbar(spec).mul_qseries(1 / hyper.diagonal_series(spec, 0)) - 1


def wide_u_over_h(order):
    """The regularize suite's counterexample u/h at width 2D + 2, as the
    suite built it before it took the width D + 1 its readers need."""
    from hypergw.residues import USeriesRF

    return USeriesRF.from_quotients([(0, [], [1]), (-1, [1], [1])], order)


def scalar_window(coeffs, truncation):
    """The window series with the scalar u^k coefficients coeffs[k], zero
    past their end, as the package's constructor built it before
    from_quotients was its one builder: row k is the monomial c_k h^k at
    width 2D + 2."""
    from hypergw.residues import USeriesRF
    from hypergw.series import QSeries

    coeffs = list(coeffs) + [0] * (truncation + 1 - len(coeffs))
    width = 2 * truncation + 2
    return USeriesRF._of(QSeries.monomial(k, width, c) for k, c in enumerate(coeffs))


# -- the q-side routes before the normalized kernel ------------------------------
# The routes that divided by a diagonal and took a log wherever a reader needed
# one, kept on the package's tower: each J-polynomial and tower ratio divided
# by its diagonal coefficient by coefficient, the kernel log through
# WSeries.log, a fresh 1 / I_p per rung and each power of 1 - n^n q through
# its own log.


def tower_ratio_by_division(spec, p, k):
    """Tower entry (p, k) divided by diagonal p, one division per t-power."""
    from hypergw import hyper

    return TPoly(hyper.i_series(spec, p, k).coeffs).div_qseries(hyper.diagonal_series(spec, p))


def full_row_log(spec):
    """The bigraded log of K / K_0 on all n + 3 w-rows: every row divided by
    K_0, then the whole quotient logged by WSeries.log (which divides by its
    row 0, here 1, again and logs it)."""
    from hypergw import hyper
    from hypergw.series import WSeries

    f = hyper._kernel_rows(spec, spec.n + 3)
    return WSeries([c / f[0] for c in f]).log()


def mirror_shift_by_tower(spec):
    """T - t as the t-free part of J_1 - t on the per-entry tower, the
    t-linear part cancelling (n >= 2, where the tower holds J_1); the
    package reads the normalized row rho_1 at every n."""
    from hypergw.series import QSeries

    d = spec.qorder
    return t_free_part(tower_by_recursion(spec)[1][0, 1] - TPoly([QSeries.zero(d), QSeries.one(d)]))


def diagonal_inverse_by_division(spec, p):
    """A fresh 1 / I_p, as each rung and the normalized window took it."""
    from hypergw import hyper

    return 1 / hyper.diagonal_series(spec, p)


def nn_power_by_own_log(spec, r):
    """(1 - n^n q)^r by QSeries.power, through a log of its own."""
    from hypergw import hyper

    return hyper.one_minus_nn_q(spec).power(r)


# -- the t-polynomial routes before the triangle of rows --------------------------
# The tower built one entry at a time, each entry (p, k) the t-derivative of
# entry (p - 1, k) over diagonal p - 1 and each diagonal the t-free part of its
# entry, and the quintic's genus-0 pass and the quartic's K3 checks on the
# J-polynomials of that tower, which compared every t-row and refused a
# combination with a t-row left above t^0.  They run on TPoly below, the
# t-polynomial arithmetic the package dropped once its stages handed out rows:
# polynomials in t over the package's QSeries.


class TPoly:
    """Polynomial in t with QSeries coefficients, cut to their smallest
    truncation and trimmed of zero top rows; equal to the package's TPoly
    and QSeries of the same rows."""

    __slots__ = ("coeffs",)
    __hash__ = None

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        d = min(c.truncation for c in coeffs)
        coeffs = [c.truncate(d) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def t_degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else 0 * self.coeffs[0]

    def _coerce(self, other):
        from hypergw.series import QSeries

        return TPoly([other]) if isinstance(other, QSeries) else TPoly(other.coeffs)

    def __eq__(self, other):
        return self.coeffs == self._coerce(other).coeffs

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fr)):
            return TPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, self._coerce(other).coeffs
        out = [0 * a[0]] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return TPoly(out)

    __rmul__ = __mul__

    def div_qseries(self, g):
        """Every t-row divided by the unit q-series g."""
        return TPoly([c / g for c in self.coeffs])

    def d_dt(self):
        """The t-derivative: theta = q d/dq on each row, t^k to k t^(k-1)."""
        rows = self.coeffs
        return TPoly(
            [c.derivative() + (k + 1) * rows[k + 1] if k + 1 < len(rows) else c.derivative()
             for k, c in enumerate(rows)]
        )


def t_series_failure(lhs, rhs, max_order):
    """The package's series_failure row by row, the t^j row labelled `t^j q`."""
    from hypergw.report import first_failure, series_failure

    lhs, rhs = TPoly(lhs.coeffs), TPoly(rhs.coeffs)
    return first_failure(
        series_failure(lhs.coeff(j), rhs.coeff(j), max_order, f"t^{j} q")
        for j in range(max(lhs.t_degree, rhs.t_degree) + 1)
    )


class NotTFree(Exception):
    """A polynomial in t that should have collapsed to a pure q-series did
    not; carries the first offending (t_power, q_degree, value) triple."""

    def __init__(self, t_power, q_degree, value):
        self.t_power, self.q_degree, self.value = t_power, q_degree, value
        super().__init__(f"nonzero coefficient at t^{t_power} q^{q_degree}: {value}")


def t_free_part(poly):
    """The t^0 row of a TPoly, provided every row above it vanishes."""
    for k, row in enumerate(poly.coeffs[1:], start=1):
        for d, v in enumerate(row.coeffs):
            if v:
                raise NotTFree(k, d, v)
    return poly.coeffs[0]


def tower_by_recursion(spec):
    """(entries, ratios, diagonals) of the tower, entry by entry: entry
    (0, k) is sum_j F_(k-j) t^j / j! on the kernel rows F, entry (p, k) the
    t-derivative of ratio (p - 1, k), diagonal p the t-free part of entry
    (p, p) and ratio (p, k) entry (p, k) divided by it, for
    0 <= p <= k <= n - 1."""
    from hypergw import hyper

    f, n = hyper.kernel(spec), spec.n
    entries, ratios, diagonals = {}, {}, []
    for p in range(n):
        for k in range(p, n):
            if p == 0:
                entries[p, k] = TPoly([f[k - j] * Fr(1, factorial(j)) for j in range(k + 1)])
            else:
                entries[p, k] = ratios[p - 1, k].d_dt()
        diagonals.append(t_free_part(entries[p, p]))
        for k in range(p, n):
            ratios[p, k] = entries[p, k].div_qseries(diagonals[p])
    return entries, ratios, diagonals


def quintic_genus0_by_j_polys(order):
    """The quintic's genus-0 pass on the J-polynomials J_k (the ratios
    (0, k) of the per-entry tower): (values, merged block failure or None,
    t-polynomials that must be t-free).  The last are the combination
    (5/2)(J1 J2 - J3) - (5/6) J1^3, whose t-free part gives the values, and
    each block's lhs - rhs; the blocks are compared on every t-row, their
    failure labels `t^j q^k`."""
    from hypergw import hyper, invariants
    from hypergw.hyper import HyperSpec
    from hypergw.report import merged_failure
    from hypergw.series import QSeries

    spec = HyperSpec(5, order)
    ratios = tower_by_recursion(spec)[1]
    j0, j1, j2, j3 = (ratios[0, k] for k in range(4))
    h = (j1 * j2 - j3) * Fr(5, 2) - j1 * j1 * j1 * Fr(5, 6)
    values = invariants.extract_invariants(t_free_part(h), spec)
    sum2, sum3c = invariants._block_sums(hyper.mirror_coordinate(spec), values)
    weighted = TPoly([sum2])
    t_plus_shift = TPoly([hyper.mirror_shift(spec), QSeries.one(order)])
    sides = {
        "block-0": (j0, TPoly([QSeries.one(order)])),
        "block-1": (j1, t_plus_shift),
        "block-2": (j1 * j1 * Fr(1, 2) + weighted, j2),
        "block-3": (j1 * j1 * j1 * Fr(1, 6) + j1 * weighted + TPoly([sum3c]), j3),
    }
    failure = merged_failure(
        (name, t_series_failure(lhs, rhs, order)) for name, (lhs, rhs) in sides.items()
    )
    return values, failure, [h] + [lhs - rhs for lhs, rhs in sides.values()]


def quartic_k3_by_j_polys(order):
    """The quartic's K3 checks on the J-polynomials of the per-entry tower at
    n = 4: (gap, decomposition), the t-polynomials J2 - J1^2/2 and
    (J2'/I1 - J1)', ' = d/dt and I1 the tower's diagonal 1, as the package
    formed them before it read their t^0 rows off the normalized rows."""
    from hypergw.hyper import HyperSpec

    _, ratios, diagonals = tower_by_recursion(HyperSpec(4, order))
    j1, j2 = ratios[0, 1], ratios[0, 2]
    return j2 - j1 * j1 * Fr(1, 2), (j2.d_dt().div_qseries(diagonals[1]) - j1).d_dt()


# -- the full-length residue shift and the geometric sum by products -------------
# Two routes the package replaced, kept on its own kernels: the residue at s/t
# from every round of both Taylor shifts, and the moment window 1 / (1 - G) by
# one QSeries product and sum per term.


def _full_taylor_shift(c, s, t):
    """Every Taylor coefficient e_0..e_n of t^n c(y/t) at y = s, for an
    integer list c of degree n: all n rounds of synthetic division by
    y - s."""
    n = len(c) - 1
    r = [x * t ** (n - i) for i, x in enumerate(c)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            r[j] += s * r[j + 1]
    return r


def residue_pair_by_full_shift(f, s, t):
    """residue_pair_at's (c, q) from the full Taylor shifts of num and den
    at s/t: the pole order m is the index of den's first nonzero
    coefficient, and [x^(m-1)] of the fraction-free quotient of num's
    coefficients by den's from m on is scaled by t^(deg den - deg num - 1)."""
    from hypergw import polys as P

    num, den = f._num, f._den
    taylor = _full_taylor_shift(den, s, t)
    m = next(i for i, c in enumerate(taylor) if c)
    if not m:
        return 0, 1
    ints, q = P._quotient_head(_full_taylor_shift(num, s, t)[:m], taylor[m:], m - 1)
    e = len(den) - len(num) - 1
    c = ints[m - 1]
    return (c * t**e, q) if e >= 0 else (c, q * t**-e)


def geometric_rows_by_products(g):
    """The rows of 1 / (1 - g) for QSeries rows g with row 0 zero, by
    W_k = sum_{0<i<=k} g_i W_(k-i), one QSeries product and sum per term."""
    from hypergw.series import QSeries

    d = g[0].truncation
    w = [QSeries.one(d)]
    for k in range(1, len(g)):
        w.append(sum((g[i] * w[k - i] for i in range(1, k + 1)), QSeries.zero(d)))
    return w


# -- the Yukawa route to the quintic's genus-0 numbers ---------------------------
# It runs on the package's series as well, and reads only I_0 and the mirror
# shift, none of the J-polynomials J_2 and J_3 that quintic_genus0 combines.


def quintic_yukawa_genus0(order):
    """N_d for d = 1..order from the Yukawa coupling of the quintic,
    Y = 5 / ((1 - 5^5 q) I_0^2 (1 + theta shift)^3) with theta = q d/dq,
    which re-expanded in Q = q exp(shift) is 5 + sum_d d^3 N_d Q^d."""
    from hypergw import hyper
    from hypergw.hyper import HyperSpec
    from hypergw.series import QSeries, change_exp_variable

    spec = HyperSpec(5, order)
    shift, i0 = hyper.mirror_shift(spec), hyper.diagonal_series(spec, 0)
    one = QSeries.one(order)
    slope = one + shift.derivative()
    y = 5 / ((one - QSeries.monomial(1, order, 5**5)) * i0 * i0 * slope * slope * slope)
    big_y = change_exp_variable(y, shift)
    if big_y[0] != 5:
        raise AssertionError("the Yukawa coupling does not start at 5")
    return [big_y[d] / d**3 for d in range(1, order + 1)]


# -- the command line ---------------------------------------------------------


def cli_parser():
    """The command-line parser written out by hand in argparse, the
    reference for cli's plain path and for the parser it builds from its
    COMMANDS table; only the suite and series names come from the package."""
    import argparse

    from hypergw.cli import DUMPABLE, SUITES

    parser = argparse.ArgumentParser(
        prog="hypergw",
        description="Exact genus-0/1 Gromov-Witten invariants of Calabi-Yau "
        "hypersurfaces and their identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=5, help="hypersurface degree (>= 1)")
    common.add_argument("--order", type=int, default=6, help="q-truncation (>= 1)")
    common.add_argument("--output", default=None, help="output path (default stdout)")

    p_inv = sub.add_parser("invariants", parents=[common], help="emit the invariant table")
    p_inv.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_ver = sub.add_parser("verify", parents=[common], help="run identity suites")
    p_ver.add_argument(
        "--suite",
        default=",".join(SUITES),
        help="comma-separated subset of: " + ", ".join(SUITES),
    )
    p_ver.add_argument("--format", choices=("json", "text"), default="text")

    p_dump = sub.add_parser("dump", parents=[common], help="print one series")
    p_dump.add_argument("--what", required=True, help="one of: " + ", ".join(DUMPABLE))
    return parser
