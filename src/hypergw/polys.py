"""Exact integer kernels, and dense polynomials over the rationals.

The kernels work on integer lists.  A series or polynomial with rational
coefficients is a pair (ints, den): integer numerators over one
denominator, the form series.QSeries stores and its callers pass in and
get back.  The kernels are products (_mul_ints, _accumulate), the
recurrence behind series quotients, exp, log and the Lagrange powers
(_recurrence, whose solved coefficients stay over one running
denominator), the first coefficients of a quotient with no gcd
(_quotient_head, fraction-free), the primitive gcd (_gcd_ints, by
_pseudo_rem and _primitive), exact division by a primitive factor
(_div_exact, in the integers by Gauss's lemma; it raises ArithmeticError
when the division is not exact), the reduction of a fraction by factors
known in advance (_cancel_factors, by exact division after a root test of
each linear factor, so no gcd runs), the Taylor coefficients at a
rational point s/t (_taylor_rounds, one round of the Taylor shift of
t^n p(y/t) by s per coefficient, run as they are read), the value
t^n p(s/t) (_form_at, by Horner's rule) and the cyclotomic polynomials
(_cyclotomic, by exact division).

The public functions keep the Fraction interface: a polynomial is a tuple
of Fraction coefficients, lowest degree first, with no trailing zeros (the
zero polynomial is the empty tuple).  Each clears denominators once on
entry (_scaled), runs one kernel and builds one Fraction per output
coefficient (_fractions).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from math import lcm as _lcm
from operator import mul as _mul

ZERO = ()
ONE = (Fraction(1),)


def norm(coeffs):
    """Coerce ints to Fraction and strip trailing zeros; anything but an
    int or a Fraction raises TypeError (_exact)."""
    out = [c if type(c) is Fraction else Fraction(_exact(c)) for c in coeffs]
    _strip(out)
    return tuple(out)


def _exact(c):
    """c itself when it is an int or a Fraction.  Anything else, a float or
    a string say, raises TypeError: it would enter the exact arithmetic
    rounded or parsed."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"expected an int or a Fraction, got {c!r}")


def _scaled(p):
    """(ints, den): den is the lcm of the denominators of p's coefficients
    (Fractions or ints) and ints[i] = p[i] * den, with no Fraction
    arithmetic."""
    den = _lcm(*[c.denominator for c in p])
    return [c.numerator * (den // c.denominator) for c in p], den


def _fractions(ints, den):
    """The Fractions ints[i] / den, each reduced by its constructor."""
    return tuple([Fraction(c, den) for c in ints])


def _strip(c):
    """Drop the trailing zeros of the list c, in place."""
    while c and c[-1] == 0:
        c.pop()


def _accumulate(acc, x, y):
    """acc += x * y for integer lists, truncated at len(acc); zero entries
    of x are skipped."""
    t = len(acc)
    for i, u in enumerate(x[:t]):
        if u:
            for k, v in enumerate(y[: t - i], i):
                acc[k] += u * v


def _mul_ints(x, y):
    """Product of two integer lists; without trailing zeros when neither
    factor has any."""
    if not x or not y:
        return []
    out = [0] * (len(x) + len(y) - 1)
    _accumulate(out, x, y)
    return out


def mul(a, b):
    if not a or not b:
        return ZERO
    x, da = _scaled(a)
    y, db = _scaled(b)
    out = _mul_ints(x, y)
    _strip(out)
    return _fractions(out, da * db)


def divmod_poly(a, b):
    """Quotient and remainder with deg(rem) < deg(b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    quot = [Fraction(0)] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c / lb
        quot[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] -= q * b[j]
    return norm(quot), norm(rem)


def _div_exact(a, b):
    """a / b for integer lists without trailing zeros, b nonzero.  When b is
    primitive and divides a over the rationals, the quotient has integer
    coefficients (Gauss's lemma), so every step divides exactly; a step
    that does not, or a nonzero remainder, raises ArithmeticError."""
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    quot = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lb)
            if r:
                raise ArithmeticError("polynomial division was not exact")
            quot[i - db] = q
            for j in range(db):
                rem[i - db + j] -= q * b[j]
    if any(rem[:db]):
        raise ArithmeticError("polynomial division was not exact")
    return quot


def _form_at(p, s, t):
    """t^k p(s/t) for an integer list p of degree k, by Horner; 0 for []."""
    v, tp = 0, 1
    for c in reversed(p):
        v = v * s + c * tp
        tp *= t
    return v


def _cancel_factors(num, den, factors):
    """(num, den) without trailing zeros, with each nonconstant primitive
    factor divided out of both for as long as it divides both.  A linear
    c0 + c1 h divides p exactly when _form_at(p, -c0, c1) = 0 (Gauss's
    lemma), so it is divided (_div_exact) only when num and den pass that
    root test; any other factor is tried by _div_exact.  A constant factor
    raises ValueError.  When the factors hold every irreducible factor that
    num and den can share, the pair returned is coprime over Q, as
    RatFunc.from_coprime takes it.  Its callers: the residue-theorem draws
    (cli._random_ratfunc), hyper.kernel_value_at, the dump --what Q pairs
    (hyper.regular_kernel) and the boundary weight (invariants._residue_weight)."""
    num, den = list(num), list(den)
    _strip(num)
    _strip(den)
    for f in factors:
        if len(f) < 2 or not f[-1]:
            raise ValueError(f"factor {tuple(f)} is not a nonconstant polynomial")
        while len(f) > 2 or not (_form_at(num, -f[0], f[1]) or _form_at(den, -f[0], f[1])):
            try:  # neither is rebound unless both divisions are exact
                num, den = _div_exact(num, f), _div_exact(den, f)
            except ArithmeticError:
                break
    return num, den


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Phi_m as an integer tuple, lowest degree first: x^m - 1 divided
    exactly by Phi_k for each k | m with k < m, since x^m - 1 is the product
    of the Phi_k over all k | m."""
    p = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k == 0:
            p = _div_exact(p, _cyclotomic(k))
    return tuple(p)


def monic(p):
    if not p:
        return ZERO
    lc = p[-1]
    return p if lc == 1 else tuple(c / lc for c in p)


def _primitive(z):
    _strip(z)
    if not z:
        return z
    g = _int_gcd(*z)
    if z[-1] < 0:
        g = -g
    return [c // g for c in z]


def _pseudo_rem(a, b):
    """Remainder of lb^k * a modulo b over the integers (k as needed)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        c = r[-1]
        r = [lb * x for x in r]
        for j in range(db + 1):
            r[dr - db + j] -= c * b[j]
        r.pop()
        _strip(r)
    return r


def gcd_poly(a, b):
    """Monic gcd.  Uses a primitive pseudo-remainder sequence over the
    integers to keep coefficient growth in check."""
    if not a:
        return monic(b)
    if not b:
        return monic(a)
    return monic(tuple(Fraction(c) for c in _gcd_ints(_scaled(a)[0], _scaled(b)[0])))


def _gcd_ints(a, b):
    """The gcd of two nonzero integer lists without trailing zeros, primitive
    with a positive leading coefficient: a primitive pseudo-remainder
    sequence, so it stays in the integers."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    A = _primitive(list(a))
    B = _primitive(list(b))
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        A, B = B, _primitive(_pseudo_rem(A, B))
    return A if not B else [1]


def _taylor_rounds(c, s, t):
    """The Taylor coefficients e_0, .., e_n of r(y) = t^n c(y/t) at y = s,
    for an integer list c of degree n: r(y) = sum_j e_j (y - s)^j, so
    t^n c(x + s/t) = sum_j e_j t^j x^j.  Round j of the classical Taylor
    shift (repeated synthetic division by y - s, in place) fixes e_j, and
    each e_j is yielded as its round ends, so a reader that stops early
    runs only the rounds it reads.  Each round runs in int."""
    n = len(c) - 1
    r = list(c)
    if t != 1:
        tp = 1
        for i in range(n, -1, -1):
            r[i] *= tp
            tp *= t
    for i in range(n):
        if s:
            for j in range(n - 1, i - 1, -1):
                r[j] += s * r[j + 1]
        yield r[i]
    yield from r[n:]


def shift(p, a):
    """p(x + a), by the classical Taylor shift: repeated synthetic division
    by x - a, in place.  With a = s/t it runs in int: it shifts the integer
    polynomial t^(n-1) den p(y/t) (n = len(p), den clearing p) by the
    integer s and reads the result at y = t x."""
    a = _exact(a)
    s, t = a.numerator, a.denominator
    c, den = _scaled(p)
    n = len(c)
    e = _taylor_rounds(c, s, t)
    return norm([Fraction(x, t ** (n - 1 - i) * den) for i, x in enumerate(e)])


def _recurrence(rhs, weights, factor, order):
    """(ints, den) of the series c_0..c_order with
        c_m = f_m * (rhs_m - sum_{0<j<=m} weights_j c_(m-j)),
    where rhs and weights are (ints, den) pairs as _scaled gives them, zero
    past their ends (weights_0 is not read), and f_m = factor(m) is a pair
    of ints (num, den).

    The solved coefficients stay integer numerators over one running
    denominator, so each inner sum is one integer dot product.  Each new
    coefficient is reduced by one gcd, and the running denominator becomes
    the lcm with the reduced one only when that does not divide it already:
    it stays the lcm of the denominators solved so far."""
    (r, dr), (w, dw) = rhs, weights
    w = w[1 : order + 1]
    c, den = [], 1
    for m in range(order + 1):
        j = min(m, len(w))
        s = sum(map(_mul, w[:j], reversed(c[m - j :]))) * dr  # over dr dw den
        fn, fd = factor(m)
        num = ((r[m] * dw * den if m < len(r) else 0) - s) * fn
        d = dr * dw * den * fd
        g = _int_gcd(num, d)
        if d < 0:
            g = -g
        num, d = num // g, d // g
        if den % d:
            grown = den // _int_gcd(den, d) * d
            scale = grown // den
            c = [x * scale for x in c]
            den = grown
        c.append(num * (den // d))
    return c, den


def _quotient_head(a, b, k):
    """(ints, den) of a / b to h^k for integer lists, b0 = b[0] != 0, with
    no gcd: [h^m] a / b = C_m / b0^(m+1) for C_m = a_m b0^m - sum_{0<j<=m}
    b_j b0^(j-1) C_(m-j), so ints[m] = C_m b0^(k-m) over den = b0^(k+1)."""
    b0 = b[0]
    w = [c * b0**j for j, c in enumerate(b[1 : k + 1])]  # b_(j+1) b0^j
    out, pw = [], 1
    for m in range(k + 1):
        out.append((a[m] * pw if m < len(a) else 0) - sum(map(_mul, w, reversed(out))))
        pw *= b0
    return [c * b0 ** (k - m) for m, c in enumerate(out)], pw


def series_inv(p, order):
    """1/p as a power series to the given order; p[0] must be nonzero."""
    if not p or p[0] == 0:
        raise ZeroDivisionError("series inverse of a non-unit")
    p0 = p[0]
    return _fractions(
        *_recurrence(
            ([1], 1), _scaled(p[: order + 1]), lambda m: (p0.denominator, p0.numerator), order
        )
    )


def series_mul(a, b, order):
    x, da = _scaled(a[: order + 1])
    y, db = _scaled(b[: order + 1])
    out = [0] * (order + 1)
    _accumulate(out, x, y)
    return _fractions(out, da * db)
