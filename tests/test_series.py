"""Truncated-series layer: arithmetic, transcendentals, t/w layers, reversion."""

from fractions import Fraction as Fr
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergw import polys as P
from hypergw.errors import (
    BadConstantTerm,
    BadMirrorMap,
    DivByNonUnit,
    NotTFree,
    TruncationMismatch,
)
from hypergw.hyper import HyperSpec, diagonal_series, mirror_shift
from hypergw.series import (
    QSeries,
    TPoly,
    WSeries,
    change_exp_variable,
    exp_coordinate_inverse,
    format_rational,
)

import oracles

rationals = st.builds(
    Fr, st.integers(-30, 30), st.integers(1, 10)
)


# -- arithmetic --------------------------------------------------------------


def test_difference_of_squares():
    a = QSeries([1, 1], 2)
    b = QSeries([1, -1], 2)
    assert a * b == QSeries([1, 0, -1])


def test_geometric_inverse():
    assert QSeries.one(5) / QSeries([1, -1], 5) == QSeries([1] * 6)


def test_long_division():
    # schoolbook long division as the oracle: c0 = 1, then
    # c_k = num_k - sum_{j>=1} den_j c_{k-j}
    num = [Fr(1), Fr(120), Fr(113400)]
    den = [Fr(1), Fr(120)]
    expect = []
    for k in range(3):
        c = num[k]
        for j in range(1, min(k, 1) + 1):
            c -= den[j] * expect[k - j]
        expect.append(c)
    assert expect == [1, 0, 113400]
    got = QSeries(num) / QSeries(den, 2)
    assert got == QSeries(expect)


@pytest.mark.parametrize("d", [-1, -3])
def test_monomial_of_negative_degree_is_refused(d):
    # [0] * d is empty for d < 0, which would give the constant c
    with pytest.raises(ValueError, match="negative"):
        QSeries.monomial(d, 3)


def test_division_by_non_unit_rejected():
    with pytest.raises(DivByNonUnit):
        QSeries.one(3) / QSeries.monomial(1, 3)


def test_truncation_takes_min_and_never_extends():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([1, 1], 1)
    assert (a + b).truncation == 1
    assert (a * b).truncation == 1
    with pytest.raises(TruncationMismatch):
        b.truncate(3)
    with pytest.raises(TruncationMismatch):
        a[7]
    with pytest.raises(TruncationMismatch):
        QSeries([1, 2, 3], truncation=1)


# -- transcendentals ----------------------------------------------------------


def test_log_of_geometric_is_harmonic():
    f = QSeries.one(5) / QSeries([1, -1], 5)
    assert f.log() == QSeries([Fr(0)] + [Fr(1, d) for d in range(1, 6)])


def test_binomial_power():
    # (1-4q)^(-1/2) = sum C(2d, d) q^d
    got = QSeries([1, -4], 3).power(Fr(-1, 2))
    assert got == QSeries([comb(2 * d, d) for d in range(4)])


def test_exp_of_zero():
    assert QSeries.zero(4).exp() == QSeries.one(4)


def test_transcend_constant_term_guards():
    with pytest.raises(BadConstantTerm):
        QSeries([1, 1], 3).exp()
    with pytest.raises(BadConstantTerm):
        QSeries([2, 1], 3).log()
    with pytest.raises(BadConstantTerm):
        QSeries([0, 1], 3).power(Fr(1, 2))


# -- derivative ----------------------------------------------------------------


def test_derivative_examples():
    assert QSeries.monomial(1, 3).derivative() == QSeries.monomial(1, 3)
    assert QSeries([1, 0, 3], 2).derivative() == QSeries([0, 0, 6])
    logs = QSeries([Fr(0)] + [Fr(1, d) for d in range(1, 5)])
    assert logs.derivative() == QSeries([0, 1, 1, 1, 1])


# -- t-polynomials --------------------------------------------------------------


def test_t_derivative_product_rule():
    tq = TPoly([QSeries.zero(3), QSeries.monomial(1, 3)])  # t*q
    got = tq.d_dt()
    assert got == TPoly([QSeries.monomial(1, 3), QSeries.monomial(1, 3)])


def test_t_square_derivative():
    t2 = TPoly([QSeries.zero(3), QSeries.zero(3), QSeries.one(3)])
    assert t2.d_dt() == TPoly([QSeries.zero(3), QSeries.constant(2, 3)])


def test_t_free_extraction():
    p = TPoly([QSeries([1, 1], 3), QSeries.zero(3)])
    assert p.t_degree == 0
    assert p.t_free_part() == QSeries([1, 1], 3)


def test_not_t_free_reports_locus():
    p = TPoly([QSeries.zero(3), QSeries([0, 0, Fr(7, 2)], 3)])
    with pytest.raises(NotTFree) as err:
        p.t_free_part()
    assert (err.value.t_power, err.value.q_degree, err.value.value) == (1, 2, Fr(7, 2))


def test_zero_tpoly_is_canonical():
    z = TPoly([QSeries.zero(4), QSeries.zero(4)])
    assert z.t_degree == 0
    assert z == TPoly.zero(4)


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
)
def test_t_derivative_is_a_derivation(a, b):
    x = TPoly([QSeries(a[:2], 2), QSeries(a[1:], 2)])
    y = TPoly([QSeries(b[:2], 2), QSeries(b[1:], 2)])
    lhs = (x * y).d_dt()
    rhs = x.d_dt() * y + x * y.d_dt()
    assert lhs == rhs


# -- w-series --------------------------------------------------------------------


def w_poly(coeffs, worder, truncation):
    """The polynomial in w with rational coefficients, as q-constant rows."""
    coeffs = list(coeffs) + [0] * (worder + 1 - len(coeffs))
    return WSeries([QSeries.constant(c, truncation) for c in coeffs[: worder + 1]])


def test_w_log_of_one_plus_w():
    f = w_poly([1, 1], 3, 2)
    expect = w_poly([0, 1, Fr(-1, 2), Fr(1, 3)], 3, 2)
    assert f.log() == expect


def test_w_log_of_one():
    assert w_poly([1], 2, 2).log() == w_poly([0], 2, 2)


def test_w_log_linear_coefficient_of_quintic_weight():
    # (1+w)^5 / (1+5w): the linear coefficients cancel in the log
    num = tuple(Fr(comb(5, k)) for k in range(6))
    ratio = P.series_mul(num, P.series_inv((Fr(1), Fr(5)), 4), 4)
    f = w_poly(ratio, 4, 2)
    assert f.log().coeff(1) == QSeries.zero(2)


@st.composite
def w_log_inputs(draw):
    """f[j][d], w-order 0..6 and q-truncation 0..6, with f[0][0] = 1."""
    w_order, d = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    f = [draw(st.lists(rationals, min_size=d + 1, max_size=d + 1)) for _ in range(w_order + 1)]
    f[0][0] = Fr(1)
    return f


@settings(max_examples=60, deadline=None)
@given(w_log_inputs())
def test_w_log_matches_power_sum(f):
    got = WSeries([QSeries(c) for c in f]).log()
    assert [list(c.coeffs) for c in got.coeffs] == oracles.wlog(f)


def test_w_truncation_mins():
    # rows of different q-truncations are cut to the smallest
    c = WSeries([QSeries.one(4), QSeries.zero(2), QSeries([1, 2, 3, 4])])
    assert c.worder == 2
    assert all(row.truncation == 2 for row in c.coeffs)
    assert c.coeff(2) == QSeries([1, 2, 3])


# -- change of exponential variable -----------------------------------------------


def test_change_variable_identity_shift():
    f = QSeries([Fr(2), Fr(-1), Fr(5, 3)])
    assert change_exp_variable(f, QSeries.zero(2)) == f


def test_change_variable_tree_numbers():
    # inverse of Q = q e^q: q = sum (-1)^(d-1) d^(d-1) Q^d / d!
    d_max = 6
    got = change_exp_variable(QSeries.monomial(1, d_max), QSeries.monomial(1, d_max))
    expect = QSeries(
        [Fr(0)]
        + [Fr((-1) ** (d - 1) * d ** (d - 1), factorial(d)) for d in range(1, d_max + 1)]
    )
    assert got == expect


def test_change_variable_fixes_constants():
    one = QSeries.one(4)
    assert change_exp_variable(one, QSeries.monomial(1, 4)) == one


def test_change_variable_needs_vanishing_shift():
    with pytest.raises(BadMirrorMap):
        change_exp_variable(QSeries.one(3), QSeries.one(3))


def inverse_exp_shift(g):
    """The shift h with q = Q*exp(h(Q)) inverting Q = q*exp(g(q))."""
    return -g.compose(exp_coordinate_inverse(g))


@given(st.lists(rationals, min_size=5, max_size=5), st.lists(rationals, min_size=4, max_size=4))
def test_change_variable_round_trip(fc, gc):
    f = QSeries(fc)
    g = QSeries([Fr(0)] + gc)
    back = change_exp_variable(change_exp_variable(f, g), inverse_exp_shift(g))
    assert back == f


@st.composite
def shift_pairs(draw):
    """f and a shift g (g(0) = 0) with independent truncations 0..6."""
    fc = draw(st.lists(rationals, min_size=1, max_size=7))
    gc = draw(st.lists(rationals, min_size=0, max_size=6))
    return QSeries(fc), QSeries([Fr(0)] + gc)


@settings(max_examples=100, deadline=None)
@given(shift_pairs())
@example((QSeries([Fr(3)]), QSeries([0, Fr(5, 2), 1])))  # D = 0
@example((QSeries([Fr(3), Fr(-2), 1]), QSeries([0, Fr(5, 2)])))  # D = 1
def test_change_variable_matches_reversion(pair):
    # Lagrange-Buermann extraction against composition with the fixed-point inverse
    f, g = pair
    d = min(f.truncation, g.truncation)
    expect = f.truncate(d).compose(exp_coordinate_inverse(g.truncate(d)))
    assert change_exp_variable(f, g) == expect


def test_change_variable_quintic_mirror_shift():
    spec = HyperSpec(5, 12)
    shift = mirror_shift(spec)
    inverse = exp_coordinate_inverse(shift)
    for f in (QSeries.monomial(1, 12), diagonal_series(spec, 0).log(), shift):
        assert change_exp_variable(f, shift) == f.compose(inverse)


def test_coordinate_inverse_solves_fixed_point():
    g = QSeries([0, 2, Fr(-1, 3), 1, 0], 4)
    x = exp_coordinate_inverse(g)
    # q*exp(g(q)) evaluated at q = x(Q) must return Q itself
    recomposed = x * g.compose(x).exp()
    assert recomposed == QSeries.monomial(1, 4)


# -- ring axioms (property-based) ---------------------------------------------------


@given(
    st.lists(rationals, min_size=5, max_size=5),
    st.lists(rationals, min_size=5, max_size=5),
    st.lists(rationals, min_size=5, max_size=5),
)
def test_ring_axioms(a, b, c):
    x, y, z = QSeries(a), QSeries(b), QSeries(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40)
@given(st.lists(rationals, min_size=1, max_size=6), st.integers(0, 9))
def test_power_matches_repeated_products(coeffs, k):
    f = QSeries(coeffs)
    expect = QSeries.one(f.truncation)
    for _ in range(k):
        expect = expect * f
    assert f**k == expect


@given(st.lists(rationals, min_size=5, max_size=5))
def test_exp_log_round_trip(coeffs):
    f = QSeries([Fr(1)] + coeffs[1:])
    assert f.log().exp() == f
    g = QSeries([Fr(0)] + coeffs[1:])
    assert g.exp().log() == g


@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.builds(Fr, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fr, st.integers(-6, 6), st.integers(1, 4)),
)
@settings(max_examples=40)
def test_power_additivity(coeffs, r, s):
    f = QSeries([Fr(1)] + coeffs[1:])
    assert f.power(r) * f.power(s) == f.power(r + s)


@given(
    st.lists(rationals, min_size=5, max_size=5),
    st.lists(rationals, min_size=5, max_size=5),
)
def test_derivative_leibniz(a, b):
    f, g = QSeries(a), QSeries(b)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


# -- serialization ------------------------------------------------------------------


def test_rational_round_trip():
    assert format_rational(Fr(-3, 7)) == "-3/7"
    assert format_rational(Fr(12)) == "12"
    assert Fr(format_rational(Fr(-3, 7))) == Fr(-3, 7)
    assert Fr(format_rational(Fr(12))) == Fr(12)


# -- equality and hashing agree ---------------------------------------------------


@st.composite
def views(draw):
    """One drawn value c + q-tail as every type that can equal it: int (when
    c is integral), Fraction, RatFunc, QSeries and TPoly, plus a RatFunc
    with poles and a TPoly in t, which equal none of them."""
    from hypergw.residues import RatFunc
    from hypergw.series import TPoly

    c = draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)))
    d = draw(st.integers(0, 3))
    tail = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
    series = QSeries([c] + tail)
    out = [Fr(c), RatFunc.from_scalar(c), series, TPoly.from_qseries(series)]
    out += [TPoly([series, QSeries.one(d)]), RatFunc((c, 1), tuple(tail) + (1,))]
    return out + [int(c)] if Fr(c).denominator == 1 else out


@settings(max_examples=200, deadline=None)
@given(views(), views())
def test_equal_values_hash_equally(a, b):
    values = a + b
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_constants_collapse_with_their_scalars_in_sets():
    from hypergw.residues import RatFunc
    from hypergw.series import TPoly

    assert len({RatFunc.from_scalar(3), 3}) == 1
    assert len({QSeries.constant(3, 0), 3}) == 1
    assert len({QSeries.constant(Fr(1, 2), 4), Fr(1, 2)}) == 1
    q = QSeries([1, 2, 3])
    assert len({TPoly.from_qseries(q), q}) == 1
