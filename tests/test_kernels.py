"""The integer kernels under the exact series, against the Fraction loops
they replaced (tests/oracles.py).

The public polys kernels and QSeries.coeffs hand out Fractions; an int
compares equal to a Fraction and would hide a leak, so each output
coefficient is checked for its type.  tests/test_qseries.py checks the
integer pairs a QSeries holds.
"""

import re
from fractions import Fraction as Fr
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergw import hyper, invariants, polys as P, residues
from hypergw.errors import DivByNonUnit
from hypergw.hyper import HyperSpec
from hypergw.residues import RatFunc, residue_at, residue_pair_at_infinity
from hypergw.series import (
    QSeries,
    _lagrange_powers,
    change_exp_variable,
    convolve_rows,
    geometric_rows,
    log_one_plus_rows,
)

import oracles

# large and pairwise coprime denominators, next to small ones
_BIG_DENS = [2**61 - 1, 10**18 + 9, 3**40, 7**25, 2**64]

scalars = st.one_of(
    st.just(Fr(0)),
    st.builds(Fr, st.integers(-30, 30), st.integers(1, 10)),
    st.builds(Fr, st.integers(-(10**30), 10**30), st.sampled_from(_BIG_DENS)),
)
units = scalars.filter(bool)  # nonzero: negative and non-unit leading terms included


def coeff_lists(min_size=0, max_size=9):
    return st.lists(scalars, min_size=min_size, max_size=max_size)


def _fractions_only(coeffs):
    return all(type(c) is Fr for c in coeffs)


def _rows(series):
    return [list(row.coeffs) for row in series]


# -- polynomial and series products ------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists())
@example([], [Fr(1)])
@example([Fr(0), Fr(0), Fr(3)], [Fr(-1, 7)])
def test_mul_matches_fraction_loop(a, b):
    a, b = P.norm(a), P.norm(b)
    got = P.mul(a, b)
    assert got == oracles.poly_mul(a, b)
    assert _fractions_only(got)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists(), st.integers(0, 8))
@example([], [], 0)
@example([Fr(2)], [Fr(0), Fr(5)], 1)
def test_series_mul_matches_fraction_loop(a, b, order):
    got = P.series_mul(tuple(a), tuple(b), order)
    assert got == oracles.series_mul(a, b, order)
    assert len(got) == order + 1 and _fractions_only(got)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(1, 9), coeff_lists(1, 9))
@example([Fr(3)], [Fr(-2)])  # D = 0
@example([Fr(1), Fr(0)], [Fr(-5, 3), Fr(1, 2**61 - 1)])  # D = 1
def test_qseries_mul_matches_fraction_loop(a, b):
    got = QSeries(a) * QSeries(b)
    d = min(len(a), len(b)) - 1
    assert list(got.coeffs) == list(oracles.series_mul(a, b, d))
    assert got.truncation == d and _fractions_only(got.coeffs)


# -- quotients ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(0, 9), units, coeff_lists(0, 8), st.integers(0, 8))
@example([], Fr(-1), [], 0)
@example([Fr(1)], Fr(-3, 10**18 + 9), [Fr(7, 3**40)], 1)
@example([Fr(5, 3)], Fr(2), [Fr(0), Fr(1)], 6)  # a shorter than order + 1
def test_series_div_matches_fraction_loop(a, b0, b_tail, order):
    # the quotient a / b is series_mul(a, series_inv(b))
    b = [b0] + b_tail
    got = P.series_mul(tuple(a), P.series_inv(tuple(b), order), order)
    pad = [Fr(0)] * (order + 1)
    a_full = (a + pad)[: order + 1]
    b_full = (b + pad)[: order + 1]
    assert list(got) == oracles.series_quotient(a_full, b_full)
    assert len(got) == order + 1 and _fractions_only(got)


@settings(max_examples=80, deadline=None)
@given(units, coeff_lists(0, 8), st.integers(0, 8))
@example(Fr(-7, 2), [], 0)
@example(Fr(-1), [], 0)
@example(Fr(3), [Fr(1, 2**64)], 1)
@example(Fr(-3, 10**18 + 9), [Fr(7, 3**40)], 1)
@example(Fr(2), [Fr(0), Fr(1)], 6)  # p shorter than order + 1
def test_series_inv_matches_fraction_loop(p0, tail, order):
    p = (p0, *tail)
    got = P.series_inv(p, order)
    assert got == oracles.series_inv(p, order)
    assert len(got) == order + 1 and _fractions_only(got)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(1, 9), units, coeff_lists(0, 8))
@example([Fr(4)], Fr(-1), [])  # D = 0
@example([Fr(0), Fr(1, 3)], Fr(6, 7), [Fr(-1, 7**25)])  # D = 1
def test_qseries_quotient_matches_fraction_loop(a, b0, b_tail):
    b = [b0] + b_tail
    got = QSeries(a) / QSeries(b)
    assert list(got.coeffs) == oracles.series_quotient(a, b)
    assert got.truncation == min(len(a), len(b)) - 1
    assert _fractions_only(got.coeffs)


def test_quotient_checks_are_unchanged():
    with pytest.raises(DivByNonUnit):
        QSeries([Fr(1), Fr(2)]) / QSeries([Fr(0), Fr(1)])
    with pytest.raises(ZeroDivisionError):
        P.series_inv((Fr(0), Fr(1)), 3)
    with pytest.raises(ZeroDivisionError):
        P.series_inv((), 3)


# -- row convolution and row logarithm ----------------------------------------


def row_lists(min_rows, max_rows):
    """Rows of mixed truncation 0..5."""
    return st.lists(
        st.integers(0, 5).flatmap(lambda t: coeff_lists(t + 1, t + 1)),
        min_size=min_rows,
        max_size=max_rows,
    )


@settings(max_examples=80, deadline=None)
@given(row_lists(1, 5), row_lists(1, 5), st.data())
@example([[Fr(2)]], [[Fr(-1, 3), Fr(1)]], None)  # D = 0 rows
@example([[Fr(0), Fr(1)], [Fr(5)]], [[Fr(1), Fr(0), Fr(7, 2**61 - 1)]], None)
def test_convolve_rows_matches_fraction_loop(a, b, data):
    top = len(a) + len(b) - 1
    length = top if data is None else data.draw(st.integers(1, top))
    got = convolve_rows([QSeries(r) for r in a], [QSeries(r) for r in b], length)
    assert _rows(got) == oracles.convolve_rows(a, b, length)
    assert all(_fractions_only(row.coeffs) for row in got)


@settings(max_examples=80, deadline=None)
@given(row_lists(1, 6))
@example([[Fr(0)]])
@example([[Fr(0)], [Fr(1), Fr(-2, 3**40)]])  # one row past the head
@example([[Fr(0)], [Fr(1), Fr(2)], [Fr(3)], [Fr(0), Fr(0), Fr(5, 7)]])
def test_log_rows_match_fraction_loop(z):
    head = QSeries(z[0])
    got = log_one_plus_rows([None] + [QSeries(r) for r in z[1:]], head)
    want = oracles.log_one_plus_rows([None] + z[1:], z[0])
    assert _rows(got) == want
    assert all(_fractions_only(row.coeffs) for row in got)


# rows of mixed truncation 0..5, zero rows among them
g_rows = st.lists(
    st.integers(0, 5).flatmap(
        lambda t: st.one_of(st.just([Fr(0)] * (t + 1)), coeff_lists(t + 1, t + 1))
    ),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), g_rows)
@example(2, [])  # row 0 alone
@example(4, [[Fr(0)] * 6, [Fr(1)], [Fr(0)] * 3])  # zero rows; truncations past row 0's
@example(0, [[Fr(1, 2**61 - 1), Fr(1)], [Fr(-3, 7**25), Fr(0), Fr(2)]])
def test_geometric_rows_match_series_products(t0, tail):
    # row 0 of g is zero at a truncation of its own; 1 / (1 - g) by the row
    # quotient against one QSeries product and sum per term
    g = [QSeries.zero(t0)] + [QSeries(r) for r in tail]
    got = geometric_rows(g)
    assert got == oracles.geometric_rows_by_products(g)  # truncations included
    assert all(_fractions_only(row.coeffs) for row in got)


# -- exp, log and the Lagrange powers -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(coeff_lists(0, 9))
@example([])  # D = 0
@example([Fr(-3, 2**64)])  # D = 1
def test_exp_and_log_match_fraction_loops(tail):
    f = [Fr(0)] + tail
    e = QSeries(f).exp()
    assert list(e.coeffs) == oracles.qexp(f)
    assert _fractions_only(e.coeffs)
    one_plus = [Fr(1)] + tail
    lg = QSeries(one_plus).log()
    assert list(lg.coeffs) == oracles.qlog(one_plus)
    assert _fractions_only(lg.coeffs)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(0, 9))
@example([])  # D = 0: no powers
@example([Fr(5, 3)])  # D = 1
def test_lagrange_powers_match_fraction_loop(tail):
    g = [Fr(0)] + tail
    got = _lagrange_powers(QSeries(g))
    want = oracles.lagrange_powers(g)
    assert len(got) == len(want)
    for (ints, den), p in zip(got, want):
        assert all(type(c) is int for c in ints) and type(den) is int and den > 0
        assert tuple(Fr(c, den) for c in ints) == p
        # the running denominator is the lcm of the reduced ones, no larger
        assert den == lcm(*(c.denominator for c in p))


@settings(max_examples=60, deadline=None)
@given(coeff_lists(1, 9), coeff_lists(0, 8))
@example([Fr(2)], [])  # D = 0
@example([Fr(1), Fr(-1, 2**64)], [Fr(3, 7)])  # D = 1
def test_change_variable_matches_fraction_loop(f, tail):
    g = [Fr(0)] + tail
    got = change_exp_variable(QSeries(f), QSeries(g))
    assert list(got.coeffs) == oracles.change_exp_variable(f, g)
    assert _fractions_only(got.coeffs)


# -- Taylor shift, residue at infinity, gcd shortcut --------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(0, 8), scalars)
@example([], Fr(3))
@example([Fr(1), Fr(2), Fr(1)], Fr(-1))
@example([Fr(0), Fr(0), Fr(0), Fr(1, 7)], Fr(5, 2**61 - 1))
def test_taylor_shift_matches_horner(p, a):
    p = P.norm(p)
    got = P.shift(p, a)
    assert got == oracles.taylor_shift(p, a)
    assert _fractions_only(got)


def _ref_residue_at_infinity(f):
    """The RatFunc route: -res_0 of w^(q-p-2) num_w / den_w, reduced."""
    if f.is_zero():
        return Fr(0)
    p, q = len(f.num) - 1, len(f.den) - 1
    num_w, den_w = oracles.reverse(f.num, p), oracles.reverse(f.den, q)
    e = q - p - 2
    if e >= 0:
        g = RatFunc(oracles.mul_xk(num_w, e), den_w)
    else:
        g = RatFunc(num_w, oracles.mul_xk(den_w, -e))
    return -residue_at(g, 0)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(0, 7), st.lists(st.integers(-4, 4), max_size=5), st.integers(0, 3))
@example([Fr(1)], [], 0)
@example([Fr(2), Fr(3), Fr(-1)], [1], 0)  # polynomial part
def test_residue_at_infinity_matches_ratfunc_route(num, roots, zero_pole):
    den = oracles.mul_xk(P.ONE, zero_pole)
    for a in roots:
        den = P.mul(den, (Fr(-a), Fr(1)))
    f = RatFunc(num, den)
    c, q = residue_pair_at_infinity(f)
    assert type(c) is int and type(q) is int and q
    assert Fr(c, q) == _ref_residue_at_infinity(f)


@pytest.mark.parametrize("coeffs, shown", [([0.1], "0.1"), ([Fr(1), "1/3"], "'1/3'")])
def test_norm_refuses_inexact_coefficients(coeffs, shown):
    with pytest.raises(TypeError, match=re.escape(shown)):
        P.norm(coeffs)


def test_gcd_with_a_nonzero_constant_is_one():
    assert P.gcd_poly((Fr(3),), (Fr(1), Fr(2), Fr(1))) == P.ONE
    assert P.gcd_poly((Fr(0), Fr(1)), (Fr(-2, 7),)) == P.ONE
    assert P.gcd_poly((), (Fr(2), Fr(4))) == (Fr(1, 2), Fr(1))


# -- construction-count guards ------------------------------------------------


def _count_fractions(fn):
    """Fraction constructions during fn()."""
    original = Fr.__dict__["__new__"]
    calls = [0]

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fr.__new__ = staticmethod(counted)
    try:
        fn()
    finally:
        Fr.__new__ = original
    return calls[0]


_A25 = tuple(Fr((-1) ** k * (k + 1), 3**k + 2 * k + 1) for k in range(25))
_B25 = (Fr(-7, 3),) + tuple(Fr(k * k - 5, 2**k + 5) for k in range(1, 25))


def test_series_mul_builds_one_fraction_per_coefficient():
    assert _count_fractions(lambda: P.series_mul(_A25, _B25, 24)) <= 25
    mixed = tuple(int(c) if k % 3 == 0 else c for k, c in enumerate(_A25))
    ints = sum(type(c) is not Fr for c in mixed)
    assert _count_fractions(lambda: P.series_mul(mixed, _B25, 24)) <= 25 + ints


def test_series_inv_builds_one_fraction_per_coefficient():
    assert _count_fractions(lambda: P.series_inv(_B25, 24)) <= 25
    mixed = tuple(int(c) if k % 3 == 0 else c for k, c in enumerate(_B25))
    ints = sum(type(c) is not Fr for c in mixed)
    assert _count_fractions(lambda: P.series_inv(mixed, 24)) <= 25 + ints


def test_exp_minus_mu_built_once_per_spec(monkeypatch, cold_stages):
    calls = []
    build = residues.exp_over_hbar
    monkeypatch.setattr(hyper, "exp_over_hbar", lambda *a: calls.append(a) or build(*a))
    spec = HyperSpec(5, 4)
    assert hyper.regular_kernel_checks(spec).passed
    assert hyper.ladder_identities(spec).passed
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 5, 8])
def test_one_window_product_per_spec(monkeypatch, cold_stages, n):
    # props32 and theorem3 share the one product exp(-mu/h) K(1/h) / I_0; the
    # rungs above it descend by the Leibniz rule.  The normalized window is
    # built once, and its one log serves both the residue route to mu and the
    # boundary residue at the origin.
    spec = HyperSpec(n, 4)
    back = hyper._exp_minus_mu(spec)
    with_back, logs = [], []
    mul, log = residues.USeriesRF.__mul__, residues.USeriesRF.log_one_plus

    def counted(a, b):
        with_back.append(a is back or b is back)
        return mul(a, b)

    monkeypatch.setattr(residues.USeriesRF, "__mul__", counted)
    monkeypatch.setattr(residues.USeriesRF, "log_one_plus", lambda z: logs.append(z) or log(z))
    assert hyper.regular_kernel_checks(spec).passed
    assert hyper.exponent_methods_check(spec).passed
    assert hyper.ladder_identities(spec).passed
    invariants.boundary_locus_by_residues(spec)
    assert with_back.count(True) == 1
    assert hyper.ladder_series.cache_info().misses == 1
    assert len(logs) == 1
