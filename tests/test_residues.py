"""Rational functions, residues, regularization, and the moment identities."""

import random
from fractions import Fraction as Fr
from functools import cache, cached_property
from itertools import combinations, product
from math import factorial, perm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergw import cli, hyper, residues
from hypergw import polys as P
from hypergw.errors import NonzeroConstant, RoutesDisagree, WindowTooSmall
from hypergw.residues import (
    RatFunc,
    USeriesRF,
    double_residue_split_kernel,
    exp_over_hbar,
    laurent_at_zero,
    moment_closed_form_check,
    moment_identity_check,
    moment_regularized_check,
    product_subset_sum,
    regularize,
    residue_at,
    residue_of_product_check,
    residue_pair_at_infinity,
)
from hypergw.hyper import HyperSpec, regular_kernel, regularizing_exponent
from hypergw.invariants import bridge_series
from hypergw.report import first_failure
from hypergw.series import QSeries

import oracles
from test_kernels import _count_fractions

H = RatFunc([0, 1])
ONE = RatFunc.from_scalar(1)


def inv_power(k):
    """1/h**k."""
    return RatFunc([1], [0] * k + [1])


def rf(num, den=(1,)):
    return RatFunc([Fr(c) for c in num], [Fr(c) for c in den])


# -- residues ------------------------------------------------------------------


def test_simple_pole():
    f = ONE / (H - 3)
    assert residue_at(f, Fr(3)) == 1
    assert residue_at(f, Fr(0)) == 0


def test_two_pole_partial_fractions():
    f = ONE / ((H - 1) * (H - 2))
    # oracle: evaluate 1/(h-2) at h=1 and 1/(h-1) at h=2
    assert residue_at(f, Fr(1)) == Fr(1, 1 - 2)
    assert residue_at(f, Fr(2)) == Fr(1, 2 - 1)
    assert residue_pair_at_infinity(f) == (0, 1)


def test_residue_at_infinity_of_inverse():
    assert Fr(*residue_pair_at_infinity(ONE / H)) == -1
    assert residue_pair_at_infinity(RatFunc.from_scalar(7)) == (0, 1)


def test_laurent_windows():
    # the window -low..high is h^low f truncated at h^(low + high)
    f = (ONE + H) / H
    win = laurent_at_zero(f, 1, 1)
    assert [win[k + 1] for k in (-1, 0, 1)] == [1, 1, 0]

    g = ONE / (ONE - H)
    win = laurent_at_zero(g, 0, 3)
    assert [win[k] for k in range(4)] == [1, 1, 1, 1]

    h = H / (H - 2)
    win = laurent_at_zero(h, 0, 2)
    assert [win[k] for k in range(3)] == [0, Fr(-1, 2), Fr(-1, 4)]


def test_window_must_cover_pole():
    with pytest.raises(WindowTooSmall):
        laurent_at_zero(ONE / (H * H), 1, 3)


def test_normal_form_is_monic_and_reduced():
    f = rf([2, 2], [4, 4, 4])  # (2+2h)/(4+4h+4h^2) -> reduced, monic den
    assert f.den[-1] == 1
    assert len(P.gcd_poly(f.num, f.den)) == 1
    g = rf([1, 2, 1], [1, 1])  # (1+h)^2/(1+h) = 1+h
    assert g == rf([1, 1])


def test_arithmetic_matches_pointwise_evaluation():
    rng = random.Random(7)
    pts = [Fr(3), Fr(-2), Fr(5, 7), Fr(11)]
    for _ in range(60):
        a = rf(
            [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))],
            [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))],
        )
        b = rf(
            [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))],
            [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))],
        )
        for x in pts:
            try:
                av, bv = oracles.evaluate(a, x), oracles.evaluate(b, x)
            except ZeroDivisionError:
                continue
            assert oracles.evaluate(a + b, x) == av + bv
            assert oracles.evaluate(a * b, x) == av * bv
            assert oracles.evaluate(a - b, x) == av - bv


def test_residue_theorem_on_randomized_functions():
    rng = random.Random(20080915)
    for _ in range(200):
        poles = {}
        den = (Fr(1),)
        for _ in range(rng.randint(1, 3)):
            a = Fr(rng.randint(-4, 4), rng.randint(1, 3))
            m = rng.randint(1, 2)
            poles[a] = poles.get(a, 0) + m
            for _ in range(m):
                den = P.mul(den, (-a, Fr(1)))
        num = tuple(Fr(rng.randint(-6, 6)) for _ in range(rng.randint(1, len(den))))
        f = RatFunc(num, den)
        total = sum((residue_at(f, a) for a in poles), Fr(0))
        assert total + Fr(*residue_pair_at_infinity(f)) == 0


# -- regularization -------------------------------------------------------------


def windows(coeffs, truncation=None):
    """The window series whose u^k coefficient is the RatFunc or scalar
    coeffs[k]: one with pole order m at 0 is the quotient h^-m num / unit,
    unit the denominator without its factor h^m."""
    terms = []
    for c in coeffs:
        f = c if isinstance(c, RatFunc) else RatFunc.from_scalar(c)
        m = f.pole_order_at_zero()
        terms.append((-m, f._num, f._den[m:]))
    return USeriesRF.from_quotients(terms, truncation)


def u_series(*coeffs, trunc=None):
    return windows(coeffs, trunc)


def test_h_free_series_is_its_own_regular_part():
    z = u_series(0, 1, trunc=4)
    out = regularize(z)
    assert out.eta == QSeries.zero(4)
    assert out.zbar == z
    assert out.regular


def constructed_example(c, d):
    """exp(c u / h) (1 + u h) - 1: regularizable by construction."""
    growth = QSeries.monomial(1, d, c)
    linear = u_series(0, H, trunc=d)
    one = oracles.scalar_window([1], d)
    return exp_over_hbar(growth) * (one + linear) - one


def test_constructed_example_splits_exactly():
    c = Fr(5, 3)
    z = constructed_example(c, 5)
    out = regularize(z)
    assert out.eta == QSeries.monomial(1, 5, c)
    assert out.zbar == u_series(0, H, trunc=5)
    assert out.regular


def test_inverse_hbar_series_is_not_regularizable():
    z = u_series(0, inv_power(1), trunc=4)
    out = regularize(z)
    assert out.eta == QSeries.monomial(1, 4)
    assert not out.regular
    # the u^2 coefficient of the would-be regular part keeps a -h^{-2}/2 term
    assert out.zbar.taylor_coeff(-2)[2] == Fr(-1, 2)


def test_first_pole_names_the_row_and_its_order():
    # u h^-1 + u^2 h^-2 + u^3 h^-1: the first singular row is u^1, order 1
    z = USeriesRF.from_quotients([(0, [], [1]), (-1, [1], [1]), (-2, [1], [1]), (-1, [1], [1])])
    assert z.first_pole() == (1, 1)
    assert (z - USeriesRF.from_quotients([(0, [], [1]), (-1, [1], [1])], 3)).first_pole() == (2, 2)
    assert oracles.scalar_window([1], 3).first_pole() is None


def test_degree_zero_term_rejected():
    with pytest.raises(NonzeroConstant):
        regularize(u_series(1, 0, trunc=2))


def test_window_series_rejects_pole_above_u_degree():
    # u / h^2: a pole of order 2 in u-degree 1
    with pytest.raises(WindowTooSmall):
        USeriesRF.from_quotients([(0, [], [1]), (-2, [1], [1])])
    with pytest.raises(WindowTooSmall):
        USeriesRF.from_quotients([(-1, P.ONE, P.ONE)])
    assert USeriesRF.from_quotients([(0, [], [1]), (-1, [1], [1])], 3).taylor_coeff(-1)[1] == 1


def test_from_quotients_rejects_terms_past_the_truncation():
    # scalar terms give the rows of the scalar-coefficient window
    terms = [(0, [], [1]), (0, [1], [1]), (0, [2], [1]), (0, [3], [1])]
    with pytest.raises(ValueError):
        USeriesRF.from_quotients(terms, 1)
    # a window needs row 0: no terms at all, or a negative truncation, is refused
    for no_rows, d in (([], None), ([], -1), (terms, -2)):
        with pytest.raises(ValueError, match="nonnegative"):
            USeriesRF.from_quotients(no_rows, d)
    assert USeriesRF.from_quotients(terms, 3) == oracles.scalar_window([0, 1, 2, 3], 3)
    assert USeriesRF.from_quotients(terms[:2], 3) == oracles.scalar_window([0, 1], 3)


@pytest.mark.parametrize("d", range(7))
def test_scalar_adds_to_entry_zero_as_a_scalar_window_would(d):
    # rows with poles and denominators, at the width of the hyper stages and
    # at the width of from_quotients; the window sums bring the scalar's own
    # window, at width 2D + 2, as the package did
    terms = [(0, [3], [2])] + [(-1, [k, -2], [3, k, 1]) for k in range(1, d + 1)]
    wide = USeriesRF.from_quotients(terms, d)
    for z in (wide.narrow(d + 1), wide):
        for c in (1, -1, Fr(-2, 7), 0):
            window = oracles.scalar_window([c], d)
            assert z + c == c + z == z + window
            assert z - c == z - window
            assert c - z == window - z


def test_regularize_is_idempotent_on_reconstructed_series():
    rng = random.Random(3)
    d = 5
    for _ in range(10):
        eta = QSeries([0] + [Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        zbar = windows(
            [0]
            + [
                rf([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                for _ in range(d)
            ]
        )
        one = oracles.scalar_window([1], d)
        z = exp_over_hbar(eta) * (one + zbar) - one
        out = regularize(z)
        assert out.eta == eta
        assert out.zbar == zbar
        assert out.regular


def test_regularize_route_mismatch_is_typed(monkeypatch):
    # only the log cross-check reads weighted_residues: eta is read off
    # log(1 - G) by taylor_coeff, so this breaks one route alone
    monkeypatch.setattr(
        USeriesRF, "weighted_residues", lambda self, power=0: QSeries.zero(self.truncation)
    )
    with pytest.raises(RoutesDisagree):
        regularize(constructed_example(Fr(3, 2), 3))


def test_non_regularizable_series_passes_the_log_cross_check():
    # z = u h + u^2 / h^2: the Lagrange read gives eta = 0 while
    # res log(1 + z) = -u^3, the residue of log(1 + zbar) for zbar = z
    for d in (2, 3, 4):
        z = u_series(0, H, inv_power(2), trunc=d)
        reg = regularize(z)
        assert reg.eta == QSeries.zero(d)
        assert reg.zbar == z
        assert not reg.regular
        expect = QSeries.monomial(3, d, -1) if d >= 3 else QSeries.zero(d)
        assert z.log_one_plus().weighted_residues(0) == expect


def test_moment_identities_on_constructed_example():
    reg = regularize(constructed_example(Fr(3, 2), 5))
    for a in range(5):
        assert moment_identity_check(reg, a) is None
    for a in range(4):
        assert moment_regularized_check(reg, a) is None


def test_counterexample_fails_intrinsic_identity():
    reg = regularize(u_series(0, inv_power(1), trunc=4))
    assert not all(
        moment_identity_check(reg, a) is None for a in range(5)
    )


def test_moment_closed_form():
    reg = regularize(constructed_example(Fr(-2, 5), 5))
    for a in range(-3, 4):
        assert moment_closed_form_check(reg, a) is None


# -- residue of a product ---------------------------------------------------------


def test_single_function_case():
    f = rf([3, 1, 2], [0, 1])  # 3/h + 1 + 2h, the row h f = 3 + h + 2h^2
    assert residue_of_product_check([[3, 1, 2]]) is None
    assert residue_at(f, 0) == product_subset_sum([[3, 1, 2]]) == 3


def test_two_function_case_explicit():
    r1, a1, b1 = 2, 5, -1
    r2, a2, b2 = -3, 7, 4
    f1 = rf([r1, a1, b1], [0, 1])
    f2 = rf([r2, a2, b2], [0, 1])
    rows = [[r1, a1, b1], [r2, a2, b2]]
    assert residue_at(f1 * f2, 0) == product_subset_sum(rows) == r1 * a2 + r2 * a1
    assert residue_of_product_check(rows) is None


def test_empty_product():
    assert residue_of_product_check([]) is None
    assert product_subset_sum([]) == 0


def test_random_products():
    rng = random.Random(424242)
    for _ in range(200):
        assert residue_of_product_check(cli._random_factors(rng)) is None


# -- double residue ----------------------------------------------------------------


def test_double_residue_basic_case():
    # A = u*h, B = u: res res { h1 * 1 / (h1 h2 (h1 + h2)) } picks out 1 at u^2
    a = u_series(0, H, trunc=3)
    b = u_series(0, 1, trunc=3)
    got = double_residue_split_kernel(a, b)
    assert got == QSeries([0, 0, 1, 0])


def test_double_residue_regular_inner_vanishes():
    a = u_series(0, H, trunc=2)
    b = u_series(0, H, trunc=2)  # B/h regular at 0 -> inner residue 0
    assert double_residue_split_kernel(a, b) == QSeries.zero(2)


# -- differential: Laurent-coefficient reads against RatFunc-product routes --------
#
# The references below are the routes the package used before h = 0 questions
# were read straight off the Laurent window: multiply by a power of h or rebuild
# an inner function as a RatFunc, shift to the point, then take the window.


def ref_residue_at(f, a):
    g = f.shift(a)
    m = g.pole_order_at_zero()
    if m == 0:
        return Fr(0)
    return laurent_at_zero(g, m, -1)[m - 1]


def ref_weighted_residues(z, power):
    weight = RatFunc(oracles.mul_xk((Fr(1),), power)) if power >= 0 else inv_power(-power)
    return QSeries([ref_residue_at(c * weight, 0) for c in z.coeffs])


def ref_double_residue_split_kernel(a_series, b_series):
    d = min(a_series.truncation, b_series.truncation)
    inv_h = inv_power(1)
    out = []
    for m in range(d + 1):
        val = Fr(0)
        for d1 in range(m + 1):
            a = a_series[d1]
            b = b_series[m - d1]
            if a.is_zero() or b.is_zero():
                continue
            bh = b * inv_h
            depth = bh.pole_order_at_zero()
            if depth == 0:
                continue
            window = laurent_at_zero(bh, depth, -1)
            inner = RatFunc.from_scalar(0)
            for k in range(depth):
                c = window[depth - 1 - k]
                if c:
                    inner = inner + inv_power(k + 1) * ((-1) ** k * c)
            val += ref_residue_at(a * inv_h * inner, 0)
        out.append(val)
    return QSeries(out)


POLES = (Fr(0), Fr(0), Fr(1), Fr(-1), Fr(2), Fr(1, 2), Fr(-3, 2))
NONZERO_POLES = POLES[2:]


@st.composite
def ratfuncs(draw):
    """Small RatFuncs with poles (possibly repeated, possibly cancelled) at 0 and elsewhere."""
    num = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    den = (Fr(1),)
    for a in draw(st.lists(st.sampled_from(POLES), max_size=4)):
        den = P.mul(den, (-a, Fr(1)))
    return RatFunc([Fr(c) for c in num], den)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), st.sampled_from(POLES + (Fr(3), Fr(-1, 3))))
def test_residue_at_matches_shift_route(f, a):
    assert residue_at(f, a) == ref_residue_at(f, a)


# -- differential: window series against RatFunc-coefficient series --------------
#
# RefUSeries is the u-series with reduced RatFunc coefficients (a gcd per
# coefficient operation) that USeriesRF was before it held Laurent windows at
# h = 0.  Every series drawn below has pole order <= k at 0 in u-degree k, the
# domain of the window series, and arbitrary poles elsewhere.


class RefUSeries:
    """Power series in u with RatFunc coefficients."""

    def __init__(self, coeffs):
        self.coeffs = tuple(c if isinstance(c, RatFunc) else RatFunc.from_scalar(c) for c in coeffs)

    @classmethod
    def one(cls, truncation):
        return cls([1] + [0] * truncation)

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def __getitem__(self, d):
        return self.coeffs[d]

    def __add__(self, other):
        return RefUSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return RefUSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, RefUSeries):
            return RefUSeries([c * other for c in self.coeffs])
        d = min(self.truncation, other.truncation)
        out = [RatFunc.from_scalar(0) for _ in range(d + 1)]
        for i, x in enumerate(self.coeffs[: d + 1]):
            for j, y in enumerate(other.coeffs[: d + 1 - i]):
                out[i + j] = out[i + j] + x * y
        return RefUSeries(out)

    def log_one_plus(self):
        d = self.truncation
        out = RefUSeries([0] * (d + 1))
        power = RefUSeries.one(d)
        for m in range(1, d + 1):
            power = power * self
            out = out + power * Fr((-1) ** (m + 1), m)
        return out


def ref_exp_over_hbar(eta):
    d = eta.truncation
    powers = [QSeries.one(d)]
    for _ in range(d):
        powers.append(powers[-1] * eta)
    out = []
    for deg in range(d + 1):
        num = [powers[m][deg] / factorial(m) for m in range(deg, -1, -1)]
        out.append(RatFunc(num, oracles.mul_xk((Fr(1),), deg)))
    return RefUSeries(out)


def ref_regularize(z):
    """(eta, zbar, moments) by the fixed point on RatFunc moments."""
    d = z.truncation
    moments = [ref_weighted_residues(z, -j) for j in range(d + 1)]
    eta = QSeries(oracles.regularize_eta([m.coeffs for m in moments]))
    one = RefUSeries.one(d)
    return eta, ref_exp_over_hbar(-eta) * (one + z) - one, moments


@st.composite
def windowed_ratfuncs(draw, k, elsewhere=2):
    """A RatFunc with pole order <= k at 0 and up to `elsewhere` poles
    elsewhere."""
    num = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    den = oracles.mul_xk((Fr(1),), draw(st.integers(0, k)))
    for a in draw(st.lists(st.sampled_from(NONZERO_POLES), max_size=elsewhere)):
        den = P.mul(den, (-a, Fr(1)))
    return RatFunc([Fr(c) for c in num], den)


@st.composite
def ref_series(draw, no_constant=False):
    d = draw(st.integers(1 if no_constant else 0, 3))
    coeffs = [draw(windowed_ratfuncs(k)) for k in range(d + 1)]
    if no_constant:
        coeffs[0] = RatFunc.from_scalar(0)
    return RefUSeries(coeffs)


@st.composite
def exponents(draw, d):
    tail = draw(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=d, max_size=d))
    return QSeries([0] + tail)


@st.composite
def regularize_inputs(draw):
    """Series with no u^0 term; half of them regularizable by construction."""
    z = draw(ref_series(no_constant=True))
    if draw(st.booleans()):
        d = z.truncation
        holo = RefUSeries([0] + [draw(windowed_ratfuncs(0)) for _ in range(d)])
        one = RefUSeries.one(d)
        z = ref_exp_over_hbar(draw(exponents(d))) * (one + holo) - one
    return z


@settings(max_examples=60, deadline=None)
@given(ref_series(), st.integers(-3, 3))
def test_weighted_residues_match_product_route(z, power):
    assert windows(z.coeffs).weighted_residues(power) == ref_weighted_residues(z, power)


@settings(max_examples=60, deadline=None)
@given(ref_series(), ref_series())
def test_double_residue_matches_product_route(a, b):
    got = double_residue_split_kernel(windows(a.coeffs), windows(b.coeffs))
    assert got == ref_double_residue_split_kernel(a, b)


@settings(max_examples=60, deadline=None)
@given(ref_series(), ref_series())
def test_window_product_matches_ratfunc_product(a, b):
    assert windows(a.coeffs) * windows(b.coeffs) == windows((a * b).coeffs)


@settings(max_examples=40, deadline=None)
@given(ref_series(no_constant=True), st.integers(-3, 3))
def test_window_log_matches_ratfunc_log(z, power):
    got, ref = windows(z.coeffs).log_one_plus(), z.log_one_plus()
    assert got == windows(ref.coeffs)
    assert got.weighted_residues(power) == ref_weighted_residues(ref, power)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(exponents), st.sampled_from((1, -1)))
def test_exp_over_hbar_matches_ratfunc(eta, sign):
    assert exp_over_hbar(eta * sign) == windows(ref_exp_over_hbar(eta * sign).coeffs)


@settings(max_examples=40, deadline=None)
@given(regularize_inputs())
def test_regularize_matches_ratfunc_route(z):
    eta, zbar, moments = ref_regularize(z)
    # 1 + z = exp(eta/h) (1 + zbar) on the RatFunc route, regular or not
    log_residue = ref_weighted_residues(z.log_one_plus(), 0)
    assert eta == log_residue - ref_weighted_residues(zbar.log_one_plus(), 0)
    reg = regularize(windows(z.coeffs))
    assert reg.eta == eta
    # the moment windows, read off the rows of z in place, against the RatFunc moments
    assert_moment_windows_match_power_list(reg, moments)
    assert reg.zbar == windows(zbar.coeffs)
    assert reg.regular == all(c.pole_order_at_zero() == 0 for c in zbar.coeffs)
    if reg.regular:
        for k in range(z.truncation + 3):
            taylor = QSeries([laurent_at_zero(c, 0, k)[k] for c in zbar.coeffs])
            assert reg.zbar.taylor_coeff(k) == taylor


@st.composite
def regularizable_windows(draw):
    """(eta, exp(eta/h) (1 + y) - 1) on windows for a drawn exponent eta and
    a y holomorphic at h = 0, u-degree up to 6."""
    d = draw(st.integers(1, 6))
    eta = draw(exponents(d))
    y = windows([0] + [draw(windowed_ratfuncs(0)) for _ in range(d)])
    one = oracles.scalar_window([1], d)
    return eta, exp_over_hbar(eta) * (one + y) - one


@settings(max_examples=40, deadline=None)
@given(regularizable_windows())
def test_regularize_exponent_matches_power_sum_fixed_point(case):
    eta, z = case
    reg = regularize(z)
    assert reg.eta == eta
    assert list(reg.eta.coeffs) == oracles.regularize_eta([m.coeffs for m in moments_of(z)])


def moments_of(z):
    """The moments c_j = res{ h^-j z }, j = 0..D, of a series z at the full
    width 2D + 2, which they read up to entry 2D - 1."""
    return [z.weighted_residues(-j) for j in range(z.truncation + 1)]


def g_window(c):
    """G = g/s for g(s, u) = sum_j (-1)^j / j! c_j(u) s^j and the moments c,
    as a window series in (u, s) built from its u-coefficients, rational
    functions of s."""
    return windows(
        [
            RatFunc([Fr((-1) ** j, factorial(j)) * m[k] for j, m in enumerate(c)], [0, 1])
            for k in range(len(c))
        ]
    )


def assert_moment_windows_match_power_list(reg, c):
    """The moment windows of reg against the power list of
    oracles.moment_sums on the moments c of the series reg regularized,
    and the fixed-point eta against its Lagrange form -[s^-1] log(1 - G)."""
    intrinsic, geometric = reg.moment_windows
    lists = [m.coeffs for m in c]
    for a in range(5):
        want = oracles.moment_sums(lists, a, "intrinsic")
        assert list(intrinsic.taylor_coeff(-2 - a).coeffs) == want
    for a in range(4):
        want = oracles.moment_sums(lists, a, "regularized")
        assert list(geometric.taylor_coeff(-a).coeffs) == want
    assert reg.eta == -(-g_window(c)).log_one_plus().taylor_coeff(-1)


@pytest.mark.parametrize("order", range(1, 11))
def test_moment_windows_match_power_list_on_suite_series(order):
    for z in (cli._constructed_regularizable(order), cli._u_times_h_power(-1, order)):
        assert_moment_windows_match_power_list(regularize(z), moments_of(z))


@pytest.mark.parametrize("n", range(1, 9))
def test_moment_windows_match_power_list_on_bridge_series(n):
    for order in range(1, 9) if n != 5 else (*range(1, 9), 12):
        spec = HyperSpec(n, order)
        wide = oracles.wide_bridge_series(spec)
        assert_moment_windows_match_power_list(regularize(bridge_series(spec)), moments_of(wide))


@settings(max_examples=40, deadline=None)
@given(regularizable_windows())
def test_moment_windows_match_power_list_on_drawn_series(case):
    assert_moment_windows_match_power_list(regularize(case[1]), moments_of(case[1]))


def columns_of_moment_window(reg):
    """The columns b_j = u^(j-1) (-1)^j c_j / j!, j = 0..D-1, of the fixed
    point, read off the moment window G that regularize stores: read j at
    h^(j-1) of rows 0..D - j, whose u^m is [u^(m + j - 1)] b_j."""
    d = reg.z.truncation
    columns = []
    for j in range(d):
        c = USeriesRF._of(reg.big_g.coeffs[: d - j + 1]).taylor_coeff(j - 1)
        columns.append([c[k - j + 1] if k >= j - 1 else 0 for k in range(d)])
    return columns


def assert_columns_match_column_route(z):
    # G, built from the rows of z in place, against the moments read by
    # weighted_residues: eta and both moment windows are functions of G
    reg = regularize(z)
    assert columns_of_moment_window(reg) == [
        list(b.coeffs) for b in oracles.fixed_point_columns(z)
    ]
    # the moment checks read the stored G and its log, not z
    twin = regularize(z)
    twin.z = None
    assert twin.moment_windows == reg.moment_windows


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 9) for d in range(1, 13)] + [(5, 30)])
def test_fixed_point_columns_match_column_route_on_bridge_series(n, d):
    assert_columns_match_column_route(bridge_series(HyperSpec(n, d)))


@pytest.mark.parametrize("order", [*range(1, 13), 30])
def test_fixed_point_columns_match_column_route_on_suite_series(order):
    for z in (cli._constructed_regularizable(order), cli._u_times_h_power(-1, max(order, 2))):
        assert_columns_match_column_route(z)


@settings(max_examples=40, deadline=None)
@given(regularizable_windows())
def test_fixed_point_columns_match_column_route_on_drawn_series(case):
    assert_columns_match_column_route(case[1])


def test_regularize_takes_no_moment_column(monkeypatch):
    # eta is one diagonal of log(1 - G), G read off the rows of z in place:
    # the column route made one weighted_residues(-j) call per moment, D per
    # regularization; only the log cross-check's residues (power 0) remain
    powers = []
    real = USeriesRF.weighted_residues
    monkeypatch.setattr(
        USeriesRF, "weighted_residues", lambda w, power=0: powers.append(power) or real(w, power)
    )
    for z in (
        cli._constructed_regularizable(8),
        cli._u_times_h_power(-1, 8),
        bridge_series(HyperSpec(5, 8)),
    ):
        regularize(z)
    assert powers and min(powers) >= 0


def assert_eta_matches_full_precision_loop(z, wide):
    """eta read off log(1 - G) by Lagrange inversion is the eta of the
    fixed-point loop whose every round runs at u^D, on the moments of wide,
    z at the full width 2D + 2: the same numerators over the same
    denominator."""
    eta = regularize(z).eta
    want = oracles.full_precision_eta(moments_of(wide))
    assert (eta.ints, eta.den) == (want.ints, want.den)


@pytest.mark.parametrize("n", range(1, 9))
def test_fixed_point_by_precision_matches_full_precision_on_bridge_series(n):
    for order in range(1, 13):
        spec = HyperSpec(n, order)
        wide = oracles.wide_bridge_series(spec)
        assert_eta_matches_full_precision_loop(bridge_series(spec), wide)


@pytest.mark.parametrize("order", range(1, 13))
def test_fixed_point_by_precision_matches_full_precision_on_suite_series(order):
    for z in (cli._constructed_regularizable(order), cli._u_times_h_power(-1, max(order, 2))):
        assert_eta_matches_full_precision_loop(z, z)


# -- differential: regularize at the widths its readers take ---------------------

BRIDGE_POINTS = [(n, d) for n in range(1, 9) for d in range(1, 13)] + [(5, 30)]


@pytest.mark.parametrize("n, d", BRIDGE_POINTS)
def test_narrow_bridge_regularizes_as_the_full_width_one(n, d):
    # the ladder window minus one, at its width D + 1 and narrowed to D,
    # against the bridge at the full width 2D + 2 of the reference route
    spec = HyperSpec(n, d)
    wide = regularize(oracles.wide_bridge_series(spec))
    bridge = hyper.ladder_series(spec) - 1
    assert bridge == bridge_series(spec)
    for z in (bridge, bridge.narrow(d)):
        reg = regularize(z)
        assert (reg.eta, reg.regular) == (wide.eta, wide.regular)
        assert reg.zbar.taylor_coeff(0) == wide.zbar.taylor_coeff(0)
        # entry k + q of row k, q <= 0: every entry the moment checks read
        for got, want in zip(reg.moment_windows, wide.moment_windows):
            assert [got.taylor_coeff(q) for q in range(-d, 1)] == [
                want.taylor_coeff(q) for q in range(-d, 1)
            ]
        # the closed form reads entry D + 2 of z's row D, past the width
        with pytest.raises(WindowTooSmall):
            moment_closed_form_check(reg, -3)
    assert moment_closed_form_check(wide, -3) is None


def regularized_in_suite(monkeypatch, n, order):
    """The series the regularize suite at (n, order) regularizes, in order:
    the constructed series, the u/h counterexample and the bridge."""
    seen = []
    real = cli.regularize
    monkeypatch.setattr(cli, "regularize", lambda z: seen.append(z) or real(z))
    cli._suite_regularize(n, order)
    return seen


@pytest.mark.parametrize("order", [*range(1, 13), 40])
def test_counterexample_is_built_at_width_d_plus_1(monkeypatch, order):
    # its five criterion texts are those of the full-width build
    _, bad, _ = regularized_in_suite(monkeypatch, 1, order)
    d = bad.truncation
    assert d == max(order, 2)
    assert [row.truncation for row in bad.coeffs] == [d + 1] * (d + 1)
    narrow, wide = regularize(bad), regularize(oracles.wide_u_over_h(d))
    texts = [moment_identity_check(narrow, a) for a in range(5)]
    assert texts == [moment_identity_check(wide, a) for a in range(5)]
    assert any(texts)


@pytest.mark.parametrize("n", range(1, 9))
def test_geometric_window_matches_series_products(monkeypatch, n):
    # 1 / (1 - G) in int against one QSeries product and sum per term, on
    # the G of the constructed, u/h and bridge series of the suite
    inputs = []
    real = residues.geometric_rows
    monkeypatch.setattr(residues, "geometric_rows", lambda g: inputs.append(g) or real(g))
    for order in range(1, 13):
        inputs.clear()
        cli._suite_regularize(n, order)
        assert len(inputs) == 3
        for g in inputs:
            assert real(g) == oracles.geometric_rows_by_products(g)


def test_fixed_point_halves_series_products(monkeypatch):
    # the power-sum rounds made 140 QSeries.__mul__ calls here: per term of
    # each of the D rounds, a power of eta, its scaling and its moment product;
    # eta read off log(1 - G) makes none: of the 13 left, 7 negate the rows
    # of G and 6 are the powers of eta in exp(-eta/h)
    z = cli._constructed_regularizable(6)
    calls = []
    mul = QSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    monkeypatch.setattr(QSeries, "__rmul__", counted)
    regularize(z)
    assert len(calls) <= 140 // 2


def test_regularize_suite_product_count(monkeypatch, cold_stages):
    # the integer products the regularize suite forms at (5, 12): 39,399 when
    # eta came from D Horner rounds over the columns of G, 35,318 when it is
    # read off the log of 1 - G that the moment windows reuse
    products = []
    real = P._accumulate

    def counted(acc, x, y):
        t = len(acc)
        products.append(sum(len(y[: t - i]) for i, u in enumerate(x[:t]) if u))
        real(acc, x, y)

    monkeypatch.setattr(P, "_accumulate", counted)
    assert all(r.passed for r in cli._suite_regularize(5, 12))
    assert sum(products) <= 36_000


@pytest.mark.parametrize("n", range(1, 9))
def test_regular_kernel_matches_ratfunc_product(n):
    # the kernel at w = 1/h from its definition: prod_{r<=nd}(n + r h) over
    # h^d prod_{r<=d} v_r, with v_r = ((1 + r h)^n - 1) / h
    spec = HyperSpec(n, 4)
    coeffs = []
    for d in range(5):
        num = (Fr(1),)
        for r in range(1, n * d + 1):
            num = P.mul(num, (Fr(n), Fr(r)))
        den = oracles.mul_xk((Fr(1),), d)
        for r in range(1, d + 1):
            power = (Fr(1),)
            for _ in range(n):
                power = P.mul(power, (Fr(1), Fr(r)))
            den = P.mul(den, power[1:])  # ((1 + r h)^n - 1) / h
        coeffs.append(RatFunc(num, den))
    kernel = RefUSeries(coeffs)
    assert oracles.wide_kernel_inv_hbar(spec) == windows(kernel.coeffs)
    assert hyper.kernel_inv_hbar(spec) == windows(kernel.coeffs).narrow(5)  # width D + 1
    ref = ref_exp_over_hbar(-regularizing_exponent(spec)) * kernel
    assert [RatFunc(num, den) for num, den in regular_kernel(spec)] == list(ref.coeffs)


def test_h0_paths_call_no_gcd(monkeypatch, capsys, cold_stages):
    # the windows at h = 0 need no gcd, and every rational function a command
    # builds is reduced by the factors its denominator is known to have: those
    # of V_d for dump Q, h and n + h for the boundary weight, the drawn poles
    # and h in the residue suite.  So no command reaches the gcd, the
    # RatFunc constructor or RatFunc.shift (which runs the constructor);
    # quintic-verify made 881 and 697 calls before.
    calls = []
    for name in ("gcd_poly", "_gcd_ints"):
        gcd = getattr(P, name)
        monkeypatch.setattr(P, name, lambda a, b, gcd=gcd: calls.append(gcd) or gcd(a, b))
    init, shift = RatFunc.__init__, RatFunc.shift
    monkeypatch.setattr(RatFunc, "__init__", lambda f, *a: calls.append(init) or init(f, *a))
    monkeypatch.setattr(RatFunc, "shift", lambda f, a: calls.append(shift) or shift(f, a))
    jobs = [
        ["verify", "--n", "5", "--order", "6"],
        ["invariants", "--n", "5", "--order", "24", "--format", "json"],
    ]
    # the dim-sweep jobs of the benchmark
    for n in range(2, 9):
        args = ["--n", str(n), "--order", "4"]
        jobs += [["dump", "--what", what, *args] for what in cli.DUMPABLE]
        jobs.append(["verify", "--suite", "props31,props32,theorem3", *args])
        jobs.append(["invariants", "--n", str(n), "--order", "8", "--format", "json"])
    # the w-rows each job asks the kernel builder for
    built, build = [], hyper._kernel_rows
    for job in jobs:
        monkeypatch.setattr(
            hyper,
            "_kernel_rows",
            lambda spec, rows, job=job: built.append((job, spec.n, rows)) or build(spec, rows),
        )
        assert cli.main(job) == 0
    capsys.readouterr()
    assert calls == []
    # the shared kernel holds rows 0..max(n - 1, 1); the F dump alone asks for more
    dumps = [(n, rows) for job, n, rows in built if job[:3] == ["dump", "--what", "F"]]
    assert dumps == [(n, n + 3) for n in range(2, 9)]
    assert all(rows <= max(n, 2) for job, n, rows in built if job[:3] != ["dump", "--what", "F"])


def test_moment_windows_built_once_per_regularization(monkeypatch):
    built, checks = [], []
    build = residues.Regularization.__dict__["moment_windows"].func
    counted = cached_property(lambda reg: built.append(reg) or build(reg))
    counted.__set_name__(residues.Regularization, "moment_windows")
    monkeypatch.setattr(residues.Regularization, "moment_windows", counted)
    for name in ("moment_identity_check", "moment_regularized_check"):
        check = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, check=check: checks.append(1) or check(*a))
    assert all(r.passed for r in cli._suite_regularize(5, 6))
    # one build for each of the three regularizations, shared by the 16
    # moment checks (9 of the criterion, 7 of the regularized identity)
    assert len(checks) == 16
    assert len(built) == 3


def test_eta_powers_built_once_per_regularization(monkeypatch):
    built = []
    powers = residues.Regularization.__dict__["eta_powers"].func
    counted = cached_property(lambda reg: built.append(reg) or powers(reg))
    counted.__set_name__(residues.Regularization, "eta_powers")
    monkeypatch.setattr(residues.Regularization, "eta_powers", counted)
    assert all(r.passed for r in cli._suite_regularize(5, 6))
    # the seven closed-form checks of the constructed series share one list
    assert len(built) == 1
    assert built[0].eta_powers == [built[0].eta**p for p in range(7)]


# -- differential: subset products on Taylor windows against RatFunc products ------


def ref_product_residue_expansion(fs):
    """The subset sum of the product-residue check by reduced RatFunc
    products of the regular parts f - res(f)/h, one product per subset."""
    res = [residue_at(f, 0) for f in fs]
    reg = [f - inv_power(1) * r for f, r in zip(fs, res)]
    rhs = Fr(0)
    idx = range(len(fs))
    for size in range(1, len(fs) + 1):
        for chosen in combinations(idx, size):
            r = prod(res[i] for i in chosen)
            if r == 0:
                continue
            rest = prod((reg[i] for i in idx if i not in chosen), start=ONE)
            rhs += r * laurent_at_zero(rest, 0, size - 1)[size - 1]
    return rhs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=4), max_size=5))
@example([])
@example([[3, 1, 2]])
@example([[-2, -5, 1], [-3, 7]])
def test_product_residue_matches_ratfunc_subsets(rows):
    # the check passes exactly when its subset sum equals the residue of the
    # full row product; the RatFunc subset sum over the functions row / h
    # must equal both
    text = residue_of_product_check(rows)
    assert text is None, text
    fs = [rf(row, [0, 1]) for row in rows]
    assert ref_product_residue_expansion(fs) == residue_at(prod(fs, start=ONE), 0)
    assert residue_at(prod(fs, start=ONE), 0) == product_subset_sum(rows)


# -- combinatorial identities -------------------------------------------------------


@cache
def split_levels_to_5():
    """{qs: (sum qs, packed)} from the level builder over the binomial rows
    of 0..7 at tuple lengths <= 5, in its order; totals reach 35, so the
    packed slot grows past the suite's 21 bits."""
    levels = residues._split_levels(residues._binomial_rows(36, 7), 5)
    return {qs: (total, packed) for qs, total, packed in levels}


def test_split_levels_enumerate_first_entry_fastest():
    levels = split_levels_to_5()
    tuples = [r[::-1] for length in range(6) for r in product(range(8), repeat=length)]
    assert list(levels) == tuples
    assert [total for total, _ in levels.values()] == [sum(qs) for qs in tuples]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=5))
@example([])
@example([7, 7, 7, 7, 7])
def test_vandermonde_left_side_matches_split_enumeration(qs):
    slot, top = 36, sum(qs) + 2
    _, packed = split_levels_to_5()[tuple(qs)]
    sums = [packed >> slot * b & (1 << slot) - 1 for b in range(top + 1)]
    assert sums == [oracles.split_sum(qs, b) for b in range(top + 1)]
    assert tuple(sums[:-2]) == oracles.split_sums_by_rows(qs)
    assert all(oracles.vandermonde_check(b, qs) is None for b in range(top + 1))


def bumped_slot_1(monkeypatch, tuples):
    """Move slot 1 (the b = 1 left side) of the packed products of tuples by 1."""
    levels = residues._split_levels
    monkeypatch.setattr(
        residues, "_split_levels",
        lambda rows, length: (
            (qs, total, packed + (1 << 21 if qs in tuples else 0))
            for qs, total, packed in levels(rows, length)
        ),
    )


def test_appendix_a_vandermonde_can_fail(monkeypatch):
    def passed():
        reports = cli._suite_appendix_a(6)
        return next(r.passed for r in reports if r.identity == "binomial-vandermonde-exhaustive")

    assert passed()
    bumped_slot_1(monkeypatch, ((1, 2),))
    assert not passed()
    monkeypatch.undo()
    assert passed()


def test_appendix_a_reports_the_first_failure(monkeypatch):
    bumped_slot_1(monkeypatch, ((2, 1), (1, 2)))
    report = cli._suite_appendix_a(6)[0]
    assert report.identity == "binomial-vandermonde-exhaustive"
    # (2, 1) comes before (1, 2) in the enumeration
    assert report.first_failure == "binomial-vandermonde [b=1 qs=(2, 1)]: FAIL at value: 4 != 3"


def per_case(bound):
    """The three appendixA families as one oracle check per case, in suite
    order."""
    top = range(bound + 1)
    tuples = [r[::-1] for length in range(5) for r in product(range(6), repeat=length)]
    return (
        (oracles.vandermonde_check(b, qs) for qs in tuples for b in top),
        (oracles.reciprocal_sum_check(q, a) for q in top for a in range(1, bound + 1)),
        (oracles.rising_product_check(q, a, s) for q in top for a in top for s in top),
    )


FAMILIES = (residues.vandermonde_failures, residues.reciprocal_failures, residues.rising_failures)


@pytest.mark.parametrize("bound", range(1, 9))
def test_appendix_a_families_yield_nothing_on_a_pass(bound):
    for family in FAMILIES:
        assert next(family(bound), "none") == "none"


@pytest.mark.parametrize(
    "name, when", [("prod", lambda r: True), ("factorial", lambda m: m >= 7)], ids=["prod", "factorial"]
)
@pytest.mark.parametrize("bound", range(1, 9))
def test_appendix_a_families_fail_first_where_each_case_does(monkeypatch, name, when, bound):
    # every product moved by 1, or every factorial from 7! up, as the
    # rising and reciprocal entries of the perturbation table do, in the
    # families and in the oracle's checks alike
    for module in (residues, oracles):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda arg, real=real: real(arg) + (1 if when(arg) else 0)
        )
    firsts = [first_failure(family(bound)) for family in FAMILIES]
    assert firsts == [first_failure(cases) for cases in per_case(bound)]
    # a factorial reaches 7! once a + q can reach 7
    assert any(firsts) == (name == "prod" or bound >= 4)


@pytest.mark.parametrize("order", [6, 8])
def test_appendix_a_builds_no_fraction_and_checks_no_case_on_a_pass(monkeypatch, order):
    # 1,064 Fractions at order 6 and 2,250 at order 8 with a check per case;
    # a failure text is built only for a case its family's decision failed
    monkeypatch.setattr(residues, "_case_failure", lambda *args: pytest.fail(str(args)))
    assert _count_fractions(lambda: cli._suite_appendix_a(order)) == 0


def test_appendix_a_prints_the_case_its_decision_failed(monkeypatch):
    # only the reciprocal family reads perm: its common denominator
    # a (a + 1) ... (a + q) moved by 1.  The text is built from the integers
    # the decision compared, so no second route can clear the case.
    monkeypatch.setattr(residues, "perm", lambda n, k: perm(n, k) + 1)
    vandermonde, reciprocal, rising = cli._suite_appendix_a(6)
    assert vandermonde.passed and rising.passed
    assert reciprocal.first_failure == (
        "alternating-reciprocal-sum [q=0 a=2]: FAIL at value: Fraction(1, 3) != Fraction(1, 2)"
    )


@pytest.mark.parametrize(
    "check, args, named",
    [
        (oracles.vandermonde_check, (1, [-1]), "q_i"),
        (oracles.vandermonde_check, (0, [-2, 3]), "q_i"),
        (oracles.vandermonde_check, (-1, [2]), "b"),
        (oracles.reciprocal_sum_check, (-1, 2), "q"),
        (oracles.reciprocal_sum_check, (2, 0), "a"),
        (oracles.rising_product_check, (-1, 2, 2), "q"),
        (oracles.rising_product_check, (2, -1, 2), "a"),
        (oracles.rising_product_check, (2, 2, -1), "s"),
    ],
)
def test_appendix_a_checks_refuse_negative_arguments(check, args, named):
    # the per-case reference checks refuse a case outside the families' domain
    with pytest.raises(ValueError, match=rf"\b{named}\b"):
        check(*args)


def test_residue_suite_names_its_first_failing_trial(monkeypatch):
    # every total residue comes out 1; the product trials still run after it
    def plus_one(f):
        c, q = residue_pair_at_infinity(f)
        return c + q, q

    monkeypatch.setattr(cli, "residue_pair_at_infinity", plus_one)
    total, product = cli._suite_residues(5, 2)
    assert total.first_failure == "trial 0: total residue 1"
    assert product.passed


def test_vandermonde_examples():
    assert oracles.vandermonde_check(3, [2, 2]) is None
    assert oracles.vandermonde_check(0, []) is None
    assert oracles.vandermonde_check(5, [1, 2, 3]) is None


def test_reciprocal_sum_examples():
    assert oracles.reciprocal_sum_check(0, 5) is None  # both sides 1/5
    assert oracles.reciprocal_sum_check(1, 1) is None  # both sides 1/2


def test_rising_product_example():
    # q=1, a=2, s=1: terms 2 and -3 sum to -1; closed form -1 * C(2, 0)
    assert oracles.rising_product_check(1, 2, 1) is None


def test_combinatorial_spot_ranges():
    for q in range(5):
        for a in range(1, 5):
            assert oracles.reciprocal_sum_check(q, a) is None
    for q in range(4):
        for a in range(4):
            for s in range(4):
                assert oracles.rising_product_check(q, a, s) is None


# -- Laurent window arithmetic -------------------------------------------------------


def test_window_product_tracks_exactness():
    # windows -1..3 and 0..2 are QSeries truncated at h^4 and h^2; their
    # product holds h^1 (f g) through h^2, the exact window -1..1
    a = laurent_at_zero(ONE / H, 1, 3)
    b = laurent_at_zero(ONE / (ONE - H), 0, 2)
    prod = a * b
    full = laurent_at_zero(ONE / (H * (ONE - H)), 1, 1)
    assert prod.truncation == full.truncation == 2
    for k in range(-1, 2):
        assert prod[k + 1] == full[k + 1]


def test_taylor_coefficients():
    f = ONE / (ONE - H)
    assert [laurent_at_zero(f, 0, k)[k] for k in range(4)] == [1, 1, 1, 1]
