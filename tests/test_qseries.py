"""QSeries, integer numerators over one denominator, against the Fraction
QSeries it replaced (tests/oracles.py), operation by operation.

Every result is also checked to be in the one canonical form: a tuple of
int numerators, one per coefficient, over an int denominator den > 0 that
is coprime to them as a whole.  Equal series therefore hold equal pairs.
"""

import re
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergw.errors import BadConstantTerm, DivByNonUnit, TruncationMismatch
from hypergw.report import equality_failure, first_failure, series_failure
from hypergw.series import QSeries, format_rational

import oracles
from oracles import series_pairs

# large and pairwise coprime denominators, next to small ones
_BIG_DENS = [2**61 - 1, 10**18 + 9, 3**40, 7**25, 2**64]

scalars = st.one_of(
    st.just(0),
    st.integers(-30, 30),
    st.builds(Fr, st.integers(-30, 30), st.integers(1, 10)),
    st.builds(Fr, st.integers(-(10**30), 10**30), st.sampled_from(_BIG_DENS)),
)
nonzero = scalars.filter(bool)


def coeff_lists(min_size=1, max_size=8):
    return st.lists(scalars, min_size=min_size, max_size=max_size)


def both(coeffs):
    return QSeries(coeffs), oracles.QSeries(coeffs)


def canonical(f):
    assert type(f) is QSeries and type(f.ints) is tuple
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int for c in f.ints)
    assert gcd(f.den, *f.ints) == 1
    return f


def same(f, ref):
    """f is canonical and has the coefficients of the oracle series ref."""
    canonical(f)
    assert f.truncation == ref.truncation
    assert f.coeffs == ref.coeffs
    assert all(type(c) is Fr for c in f.coeffs)


# -- construction and reading ---------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(0, 8), st.integers(0, 3))
@example([], 0)
@example([0, 0], 0)  # the zero series is 0/1
@example([Fr(4, 6), 2], 1)  # reduced coefficients, one denominator
def test_construction_and_reading(coeffs, extra):
    truncation = max(len(coeffs) - 1, 0) + extra
    f = QSeries(coeffs, truncation)
    ref = oracles.QSeries(coeffs, truncation)
    same(f, ref)
    assert [f[k] for k in range(truncation + 1)] == list(ref.coeffs)
    assert f.constant_term == ref[0] and type(f.constant_term) is Fr
    assert f.is_zero() == (not any(ref.coeffs))
    shown = ", ".join(format_rational(c) for c in ref.coeffs[:6])
    more = ", ..." if truncation > 5 else ""
    assert repr(f) == f"QSeries([{shown}{more}], D={truncation})"
    with pytest.raises(TruncationMismatch):
        f[truncation + 1]
    for t in range(truncation + 1):
        same(f.truncate(t), ref.truncate(t))


def test_zero_and_constants_are_canonical():
    assert (QSeries.zero(3).ints, QSeries.zero(3).den) == ((0, 0, 0, 0), 1)
    half = QSeries.constant(Fr(-1, 2), 2)
    assert (half.ints, half.den) == ((-1, 0, 0), 2)
    assert (half + half).den == 1 and (half * 0).den == 1


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: QSeries([0.1, 1]), "0.1"),
        (lambda: QSeries(["1/3"]), "'1/3'"),
        (lambda: QSeries.constant(0.5, 2), "0.5"),
        (lambda: QSeries([1, 1]).power(0.1), "0.1"),
    ],
)
def test_inexact_input_is_refused(build, shown):
    # a float would enter rounded, a string parsed; the error names the value
    with pytest.raises(TypeError, match=re.escape(shown)):
        build()


# -- ring operations ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists(), scalars)
@example([Fr(1, 2)], [Fr(1, 2)], 0)  # a sum that reduces to an integer
@example([Fr(1, 2**64), 0, 3], [Fr(-1, 2**64)], Fr(-5, 3**40))  # mixed truncations
def test_sums_and_differences(a, b, c):
    (f, fr), (g, gr) = both(a), both(b)
    same(f + g, fr + gr)
    same(f - g, fr - gr)
    same(-f, -fr)
    # constants on either side
    same(f + c, fr + c)
    same(c + f, c + fr)
    same(f - c, fr - c)
    same(c - f, c - fr)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists(), scalars, st.integers(0, 4))
@example([Fr(2, 3), 1], [Fr(3, 2)], 0, 0)
@example([Fr(-7, 2**61 - 1)] * 4, [Fr(1, 10**18 + 9), Fr(-1, 2**64)], Fr(1, 3**40), 3)
def test_products_and_powers(a, b, c, k):
    (f, fr), (g, gr) = both(a), both(b)
    same(f * g, fr * gr)
    same(f * c, fr * c)
    same(c * f, c * fr)
    same(f**k, fr**k)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), nonzero, coeff_lists(0, 7), nonzero)
@example([1], -1, [], 1)
@example([0, Fr(1, 3)], Fr(6, 7), [Fr(-1, 7**25)], Fr(-2, 2**64))
def test_quotients(a, b0, b_tail, c):
    (f, fr), (g, gr) = both(a), both([b0] + b_tail)
    same(f / g, fr / gr)
    same(f / c, fr / c)
    same(c / g, c / gr)
    with pytest.raises(DivByNonUnit):
        f / QSeries([0] + b_tail)
    with pytest.raises(ZeroDivisionError):
        f / 0


# -- calculus ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(coeff_lists(0, 7), scalars)
@example([], 0)
@example([Fr(-3, 2**64), 5], Fr(7, 2))
def test_calculus(tail, r):
    (f, fr), (one_plus, ref_one_plus) = both([0] + tail), both([1] + tail)
    same(f.derivative(), fr.derivative())
    same(one_plus.integral(), ref_one_plus.integral())
    same(f.exp(), fr.exp())
    same(one_plus.log(), ref_one_plus.log())
    same(one_plus.power(r), ref_one_plus.power(r))
    with pytest.raises(BadConstantTerm):
        one_plus.exp()
    with pytest.raises(BadConstantTerm):
        (f + 2).log()


@settings(max_examples=60, deadline=None)
@given(coeff_lists(1, 6), coeff_lists(0, 5))
@example([Fr(1, 3), 2, 0], [Fr(-1, 2**61 - 1)])
def test_compose(outer, tail):
    (f, fr), (g, gr) = both(outer), both([0] + tail)
    same(f.compose(g), fr.compose(gr))


# -- equality and hashing -------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(coeff_lists(1, 4), coeff_lists(1, 4), scalars)
@example([Fr(1, 2)], [Fr(2, 4)], Fr(1, 2))
@example([3, 0, 0], [3, 0, 0], 3)
def test_equality_and_hash(a, b, c):
    (f, fr), (g, gr) = both(a), both(b)
    assert (f == g) == (fr == gr)
    assert (f == c) == (fr == c) == (c == f)
    if f == g:
        assert hash(f) == hash(g)
    if f == c:  # a constant series hashes like its scalar
        assert hash(f) == hash(c) == hash(Fr(c)) == hash(fr)


@settings(max_examples=100, deadline=None)
@given(coeff_lists(1, 6), coeff_lists(1, 6), st.data())
@example([1, 2, 3], [1, 2, 7], None)
@example([Fr(1, 2), 5], [Fr(2, 4), 5, 0], None)  # equal up to the shorter one
def test_series_reports_match_the_pair_loop(a, b, data):
    # the report reads the pairs; series_pairs, the Fraction triples, is the reference
    f, g = QSeries(a), QSeries(b)
    top = min(f.truncation, g.truncation)
    order = top if data is None else data.draw(st.integers(0, top))
    want = first_failure(equality_failure(*t) for t in series_pairs(f, g, order, "p=1 q"))
    assert series_failure(f, g, order, "p=1 q") == want


@settings(max_examples=100, deadline=None)
@given(st.integers(-(10**20), 10**20), st.integers(1, 2**64))
@example(0, 7)
@example(-6, 4)
def test_format_rational_reads_pairs(x, den):
    value = Fr(x, den)
    want = str(value.numerator) if value.denominator == 1 else str(value)
    assert format_rational(x, den) == want == format_rational(value)
