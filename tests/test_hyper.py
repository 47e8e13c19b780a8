"""The hypergeometric kernel, the tower, the mirror map, and their identities."""

import re
import sys
from fractions import Fraction as Fr
from math import comb, factorial, gcd

import pytest

from hypergw import cli, hyper, invariants
from hypergw import polys as P
from hypergw.errors import PoleTooHigh, RegularityViolation, WindowTooSmall
from hypergw.hyper import (
    HyperSpec,
    diagonal_identities,
    diagonal_series,
    dw_kernel_coeffs,
    exponent_by_residue,
    exponent_methods_check,
    i_series,
    kernel,
    kernel_inv_hbar,
    kernel_slope_at_zero,
    kernel_value_at_zero,
    ladder_identities,
    ladder_residue,
    ladder_series,
    linear_factor,
    log_kernel_w,
    mirror_shift,
    one_minus_nn_q,
    regular_kernel,
    regular_kernel_checks,
    regularizing_exponent,
    tower_structure_check,
)
from hypergw.residues import (
    RatFunc,
    double_residue_split_kernel,
    exp_over_hbar,
    laurent_at_zero,
)
from hypergw.series import QSeries, TPoly

import oracles


def test_spec_validation():
    with pytest.raises(ValueError):
        HyperSpec(0, 4)
    with pytest.raises(ValueError):
        HyperSpec(3, 0)
    # two fields
    assert HyperSpec._fields == ("n", "qorder")
    assert vars(HyperSpec(5, 4)) == {"n": 5, "qorder": 4}


@pytest.mark.parametrize("n, qorder", [(5.0, 3), (True, 2), (5, 3.0), ("5", 3)])
def test_spec_takes_only_ints(n, qorder):
    # 5.0 and True equal 5 and 1, and would share their stage-cache keys
    with pytest.raises(TypeError, match=re.escape(f"got {n!r} and {qorder!r}")):
        HyperSpec(n, qorder)


# -- kernel ------------------------------------------------------------------


def test_quintic_kernel_degrees():
    f = kernel(HyperSpec(5, 3))
    # oracle: (5d)! / (d!)^5
    for d in range(4):
        assert f[0][d] == Fr(factorial(5 * d), factorial(d) ** 5)


def test_kernel_constant_column():
    f = kernel(HyperSpec(4, 2))
    for j, row in enumerate(f):
        assert row[0] == (1 if j == 0 else 0)


def test_conic_kernel_is_central_binomial():
    f = kernel(HyperSpec(2, 4))
    for d in range(5):
        assert f[0][d] == comb(2 * d, d)


def test_kernel_matches_brute_force_columns():
    # n = 1 included: its mirror shift reads kernel row 1, which no tower
    # entry holds there; all n + 3 rows, as dump --what F prints them
    for n in range(1, 9):
        spec = HyperSpec(n, 6)
        cols = oracles.kernel_columns(n, 6, n + 2)
        f = hyper._kernel_rows(spec, n + 3)
        for d in range(7):
            for j in range(n + 3):
                assert f[j][d] == cols[d][j]


@pytest.mark.parametrize("order", [1, 6, 24])
@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_keeps_the_rows_its_stages_read(n, order):
    # tower entry (0, k) reads rows 0..n - 1, the n = 1 mirror shift row 1;
    # the rows kept are the leading rows of the dump's longer build
    spec = HyperSpec(n, order)
    kept, full = kernel(spec), hyper._kernel_rows(spec, n + 3)
    top = max(n - 1, 1)
    assert len(kept) == top + 1 and kept[0].truncation == order
    assert kept == full[: top + 1]


def test_inverse_hbar_kernel_pole_orders():
    # pole order exactly d: [h^-d] of the q^d coefficient, entry 0 of row d
    f = kernel_inv_hbar(HyperSpec(3, 4))
    for d in range(5):
        assert f.taylor_coeff(-d)[d] != 0


# -- tower --------------------------------------------------------------------


def test_first_column_entries():
    spec = HyperSpec(5, 2)
    row0 = i_series(spec, 0, 0)
    assert oracles.t_free_part(row0) == QSeries([1, 120, 113400])
    entry = i_series(spec, 0, 1)
    assert entry.coeff(1) == QSeries([1, 120, 113400])
    # oracle: 120 * sum_{r=2..5} 5/r
    expected = Fr(120) * sum(Fr(5, r) for r in range(2, 6))
    assert expected == 770
    assert entry.coeff(0)[1] == expected


def test_diagonals_are_unit_series():
    for n in (2, 3, 5, 7):
        spec = HyperSpec(n, 4)
        for p in range(n):
            assert diagonal_series(spec, p)[0] == 1


def test_tower_structure_small():
    for n in (2, 4, 6, 8):
        assert tower_structure_check(HyperSpec(n, 5)).passed


# -- mirror map -----------------------------------------------------------------


def test_mirror_shift_values():
    spec = HyperSpec(5, 2)
    shift = mirror_shift(spec)
    assert shift[0] == 0
    assert shift[1] == 770
    assert shift[2] == 717825  # brute-force oracle value


def test_mirror_shift_matches_oracle():
    *_, shift = oracles.quintic_tables(5)
    assert mirror_shift(HyperSpec(5, 5)) == QSeries(shift)


def test_line_mirror_shift_is_log_free_energy():
    # n = 1: direct expansion of the kernel columns gives
    # (T - t)_d = H_d - H_{d-1} = 1/d, the -log(1 - q) pattern
    shift = mirror_shift(HyperSpec(1, 5))
    assert shift == QSeries([Fr(0)] + [Fr(1, d) for d in range(1, 6)])


def test_mirror_map_and_i0_are_integral():
    # exp(T - t), the mirror map Q / q, and I_0 have integer coefficients
    # for every n, an oracle with no stored values; at n = 1 both are
    # 1 / (1 - q)
    for n in range(1, 9):
        spec = HyperSpec(n, 40)
        flat = mirror_shift(spec).exp()
        assert flat.den == 1 and diagonal_series(spec, 0).den == 1
        if n == 5:
            assert flat.ints[:4] == (1, 770, 1014275, 1703916750)


# -- regularizing exponent ---------------------------------------------------------


def test_exponent_leading_terms():
    for n in (2, 3, 5, 6):
        mu = regularizing_exponent(HyperSpec(n, 3))
        assert mu[0] == 0
        assert mu[1] == Fr(n) ** (n - 1)


def test_exponent_methods_agree_small():
    for n in range(2, 7):
        assert exponent_methods_check(HyperSpec(n, 8)).passed


# -- regular kernel -----------------------------------------------------------------


def test_regular_kernel_unit_start():
    q = regular_kernel(HyperSpec(5, 3))
    assert RatFunc(*q[0]) == 1


def test_quintic_kernel_value_and_slope():
    spec = HyperSpec(5, 2)
    q1 = RatFunc(*regular_kernel(spec)[1])
    # oracles: first-order binomial expansions
    assert laurent_at_zero(q1, 0, 0)[0] == Fr(1, 5) * 5**5  # 625
    phi0 = kernel_value_at_zero(spec)
    phi1 = kernel_slope_at_zero(spec)
    assert phi0[1] == 625
    assert phi1[1] == Fr(3, 20) * (625 - 3125)  # -375
    assert laurent_at_zero(q1, 0, 1)[1] == -375


def test_regular_kernel_detects_a_pole(monkeypatch, cold_stages):
    # a wrong exponent leaves exp(-u^3/h) uncancelled: h^3 no longer divides N_3
    spec = HyperSpec(5, 4)
    mu = regularizing_exponent(spec)
    regular_kernel.cache_clear()
    monkeypatch.setattr(hyper, "regularizing_exponent", lambda s: mu + QSeries.monomial(3, 4))
    with pytest.raises(RegularityViolation) as err:
        regular_kernel(spec)
    assert (err.value.degree, err.value.order) == (3, 1)
    # the checks read the same pole off the window product
    with pytest.raises(RegularityViolation) as err:
        regular_kernel_checks(spec)
    assert (err.value.degree, err.value.order) == (3, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_window_reads_match_the_factored_pairs(n):
    # value and slope at h = 0 read off the window product exp(-mu/h) K(1/h)
    # against the same values from the whole quotients N_d / (h^d V_d)
    for order in (1, 2, 5, 8):
        spec = HyperSpec(n, order)
        window = hyper._exp_minus_mu(spec) * kernel_inv_hbar(spec)
        value, slope = oracles.value_and_slope(regular_kernel(spec))
        assert list(window.taylor_coeff(0).coeffs) == value
        assert list(window.taylor_coeff(1).coeffs) == slope
        for k, row in enumerate(window.coeffs):
            assert row.ints[:k] == (0,) * k


# -- the regular kernel reduced by the factors of V_d, with no gcd -----------------


def _divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 31):
        product = [1]
        for m in _divisors(n):
            phi = P._cyclotomic(m)
            # monic, of degree Euler's totient of m
            assert phi[-1] == 1
            assert len(phi) - 1 == sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
            product = P._mul_ints(product, phi)
        assert product == [-1] + [0] * (n - 1) + [1]


def test_the_factors_of_v_r_multiply_back_to_v_r():
    for n in range(1, 13):
        for r in range(1, 7):
            v = hyper._v(n, r)
            factors = hyper._v_factors(n, r)
            assert len(factors) == len(_divisors(n)) - 1
            product = [1]
            for f in factors:
                assert gcd(*f) == 1 and f[-1] > 0
                product = P._mul_ints(product, f)
            k, rest = divmod(v[-1], product[-1])
            assert rest == 0
            assert [k * c for c in product] == v


def test_the_factors_of_V_d_are_pairwise_coprime():
    for n in range(1, 13):
        factors = [f for r in range(1, 7) for f in hyper._v_factors(n, r)]
        for i, f in enumerate(factors):
            for g in factors[:i]:
                assert P._gcd_ints(f, g) == [1]


@pytest.mark.parametrize(
    "n, order",
    [(n, order) for n in range(1, 9) for order in range(1, 7)] + [(9, 3), (10, 3), (12, 3)],
)
def test_regular_kernel_pairs_match_the_gcd_reduction(n, order):
    # the coprime pairs against RatFunc's gcd over the unreduced N_d / V_d;
    # RatFunc's form is canonical, so a common factor left over shows here
    spec = HyperSpec(n, order)
    rows = [row.coeffs for row in hyper._exp_minus_mu(spec).coeffs]
    unreduced = oracles.unreduced_regular_kernel(n, rows)
    reduced = regular_kernel(spec)
    assert len(reduced) == len(unreduced) == order + 1
    for (num, den), pair in zip(reduced, unreduced):
        assert RatFunc.from_coprime(num, den) == RatFunc(*pair)


@pytest.mark.parametrize(
    "n, order", [(n, order) for n in range(1, 4) for order in range(1, 13)] + [(5, 10), (8, 8)]
)
def test_regular_kernel_pairs_match_the_defining_products(n, order):
    # Horner's rule in the v_r against the term-by-term products of the
    # oracle, compared as num den' == num' den: no gcd
    spec = HyperSpec(n, order)
    rows = [row.coeffs for row in hyper._exp_minus_mu(spec).coeffs]
    unreduced = oracles.unreduced_regular_kernel(n, rows)
    reduced = regular_kernel(spec)
    assert len(reduced) == len(unreduced) == order + 1
    for (num, den), (num1, den1) in zip(reduced, unreduced):
        assert oracles.poly_mul(num, den1) == oracles.poly_mul(num1, den)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_value_at_matches_the_quotients(n):
    # h^-d rnum_d / V_d from its defining products, reduced and evaluated;
    # at n = 2, a = -2 the factor 2 + h cancels and the 0/0 is removable
    spec = HyperSpec(n, 4)
    for a in (Fr(-n), Fr(1, 2), Fr(-3, 2), Fr(3)):
        expect = []
        for d in range(spec.qorder + 1):
            rnum, den = (Fr(1),), (Fr(1),)
            for r in range(1, n * d + 1):
                rnum = oracles.poly_mul(rnum, (Fr(n), Fr(r)))
            for r in range(1, d + 1):
                v_r = tuple(Fr(comb(n, k) * r**k) for k in range(1, n + 1))
                den = oracles.poly_mul(den, v_r)
            expect.append(oracles.evaluate(RatFunc(rnum, (Fr(0),) * d + den), a))
        assert hyper.kernel_value_at(spec, a) == QSeries(expect), a


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_value_at_zero_is_a_pole(n):
    # the q^d coefficient h^-d rnum_d / V_d has a pole of order d at h = 0,
    # where V_d(0) = d! n^d, so degree 1 is the first to refuse
    with pytest.raises(PoleTooHigh, match="^kernel coefficient of degree 1 has a pole at 0$"):
        hyper.kernel_value_at(HyperSpec(n, 3), 0)


@pytest.mark.parametrize("a, shown", [(0.1, "0.1"), ("-2", "'-2'")])
def test_kernel_value_at_refuses_inexact_points(a, shown):
    # Fraction(0.1) is the float's binary value, 3602879701896397 / 2^55
    with pytest.raises(TypeError, match=re.escape(shown)):
        hyper.kernel_value_at(HyperSpec(5, 4), a)


def test_regular_kernel_checks_sampled():
    from hypergw.hyper import regular_kernel_checks

    for n in (2, 3, 4, 6):
        assert regular_kernel_checks(HyperSpec(n, 6)).passed


def test_forced_slope_failure_keeps_its_locus_text(monkeypatch):
    # the first failing coefficient is named as q^k (and p=k q^k on a ladder
    # rung), with the reprs of both sides
    slope = hyper.kernel_slope_at_zero
    monkeypatch.setattr(
        hyper, "kernel_slope_at_zero", lambda s: slope(s) + QSeries.monomial(1, s.qorder)
    )
    spec = HyperSpec(5, 3)
    rep = hyper.regular_kernel_checks(spec)
    assert rep.first_failure == (
        "regular-kernel-slope: q^1: Fraction(-375, 1) != Fraction(-374, 1)"
    )
    assert rep.describe() == (
        "regular-kernel [n=5 order=3]: FAIL at "
        "regular-kernel-slope: q^1: Fraction(-375, 1) != Fraction(-374, 1)"
    )
    rep = ladder_identities(spec)
    assert rep.first_failure == (
        "ladder-second-residue: p=0 q^1: Fraction(-375, 1) != Fraction(-374, 1)"
    )


# -- diagonal identities ---------------------------------------------------------------


def test_conic_diagonal_closed_form():
    spec = HyperSpec(2, 3)
    assert diagonal_series(spec, 0) == QSeries([comb(2 * d, d) for d in range(4)])
    assert diagonal_identities(spec).passed


def test_diagonal_symmetry_instances():
    spec5 = HyperSpec(5, 6)
    assert diagonal_series(spec5, 1) == diagonal_series(spec5, 3)
    spec4 = HyperSpec(4, 6)
    assert diagonal_series(spec4, 1) == diagonal_series(spec4, 2)


def test_diagonal_identities_range():
    for n in range(2, 8):
        assert diagonal_identities(HyperSpec(n, 6)).passed


def test_weighted_product_follows_from_product_and_symmetry():
    # without assuming either normalization, the squared weighted product
    # must equal the (n-1) power of the plain product once symmetry holds
    for n in (3, 4, 5, 6):
        spec = HyperSpec(n, 5)
        d = spec.qorder
        plain = one_minus_nn_q(spec)
        weighted_sq = one_minus_nn_q(spec).power(Fr(n - 1, 2)) ** 2
        for p in range(n):
            g = diagonal_series(spec, p)
            plain = plain * g
            weighted_sq = weighted_sq * g ** (n - 1 - p) * g**p
        assert weighted_sq == plain ** (n - 1)


# -- ladder series -----------------------------------------------------------------------


def test_ladder_base_case():
    y = ladder_series(HyperSpec(4, 3))  # at width D + 1 = 4
    assert y[0] == oracles.scalar_window([1], 3).narrow(4)[0]


def test_ladder_residues_match_closed_products():
    spec = HyperSpec(4, 5)
    big_l = linear_factor(spec)
    for p in range(4):
        got = ladder_residue(spec, p, 0)
        closed = QSeries.one(5)
        for r in range(p + 1):
            closed = closed / (big_l * diagonal_series(spec, r))
        assert got == closed


def test_top_ladder_residues():
    # at the top rung the first residue collapses to 1 and the second to
    # the linear factor times the kernel slope
    for n in (3, 5):
        spec = HyperSpec(n, 5)
        assert ladder_residue(spec, n - 1, 0) == QSeries.one(5)
        assert ladder_residue(spec, n - 1, 1) == linear_factor(spec) * kernel_slope_at_zero(spec)


def test_ladder_identities_range():
    for n in (2, 3, 4, 5):
        assert ladder_identities(HyperSpec(n, 5)).passed


def test_first_ladder_step_equals_mirror_route_operator():
    # the first descent step can also be written with the mirror-map
    # derivative in place of the first diagonal
    for n in (3, 5):
        spec = HyperSpec(n, 5)
        y = ladder_series(spec)
        slope = QSeries.one(5) + mirror_shift(spec).derivative()  # dT/dt
        alt = (y + y.h_euler()).mul_qseries(1 / slope)
        assert alt == narrow_ladder(spec)[1]
        assert hyper._exp_minus_mu(spec) * alt == hyper._descended_regular(spec, 1)


# -- window width: the hyper stages at D + 1 against the full width 2D + 2 -----------------


def diagonals(spec):
    return [diagonal_series(spec, p) for p in range(spec.n)]


def full_width_ladder(spec):
    """The ladder series p = 0..n-1 built on the kernel at w = 1/h at the
    full width 2D + 2."""
    return oracles.ladder_rungs(oracles.wide_kernel_inv_hbar(spec), diagonals(spec))


def narrow_ladder(spec):
    """The ladder series p = 0..n-1 at the width D + 1 of the hyper stages."""
    return oracles.ladder_rungs(kernel_inv_hbar(spec), diagonals(spec))


def row_read(series, k, p):
    """[u^k h^p] taken straight off row k = h^k c_k(h) of a full-width series."""
    assert series[k].truncation == 2 * series.truncation + 2
    return series[k].coeffs[k + p] if k + p >= 0 else 0


@pytest.mark.parametrize("n", range(2, 9))
def test_narrow_stages_match_full_width_reads(n):
    d = 6
    spec = HyperSpec(n, d)
    back = exp_over_hbar(-regularizing_exponent(spec))
    kernel_wide = oracles.wide_kernel_inv_hbar(spec)
    wide = oracles.descended_by_products(back, kernel_wide, diagonals(spec))
    assert kernel_inv_hbar(spec) == kernel_wide.narrow(d + 1)
    assert ladder_series(spec).truncation == d
    assert ladder_series(spec)[0].truncation == d + 1
    for p in range(n):
        assert hyper._descended_regular(spec, p).truncation == d
        assert hyper._descended_regular(spec, p)[0].truncation == d + 1
        for order in (0, 1):
            expect = QSeries([row_read(wide[p], k, order) for k in range(d + 1)])
            assert ladder_residue(spec, p, order) == expect

    # the split-kernel double residue sum_k (-1)^k [h^-k]B [h^(k+1)]A
    for p in range(n):
        q = n - 2 - p if p < n - 1 else n - 1
        expect = [
            sum(
                (-1) ** k * row_read(wide[q], m - i, -k) * row_read(wide[p], i, k + 1)
                for i in range(m + 1)
                for k in range(m - i + 1)
            )
            for m in range(d + 1)
        ]
        got = double_residue_split_kernel(
            hyper._descended_regular(spec, p), hyper._descended_regular(spec, q)
        )
        assert got == QSeries(expect)

    log = (kernel_wide - 1).log_one_plus()
    expect = QSeries([row_read(log, k, -1) for k in range(d + 1)])
    assert exponent_by_residue(spec) == expect

    # N_d / (h^d V_d) against the full-width window product exp(-mu/h) K(1/h):
    # regular, with the same Taylor coefficients through h^(D+2)
    full = back * kernel_wide
    for k, (num, den) in enumerate(regular_kernel(spec)):
        assert [row_read(full, k, -j) for j in range(1, k + 1)] == [0] * k
        taylor = P.series_mul(num, P.series_inv(den, d + 2), d + 2)
        assert list(taylor) == [row_read(full, k, j) for j in range(d + 3)]


def entry(series, k, p):
    """[u^k h^p] of a window series, one index into row k."""
    return Fr(*series._entry(k, p))


def test_reading_past_the_width_raises():
    spec = HyperSpec(5, 6)
    y = narrow_ladder(spec)[1]
    wide = full_width_ladder(spec)[1]
    for k in range(7):
        top = 7 - k  # entry D + 1 of row k, the last one kept
        assert entry(y, k, top) == entry(wide, k, top)
        with pytest.raises(WindowTooSmall):
            entry(y, k, top + 1)
        assert entry(y, k, -k - 1) == 0  # below the pole-order bound
    assert y.taylor_coeff(1) == wide.taylor_coeff(1)
    with pytest.raises(WindowTooSmall):
        y.taylor_coeff(2)  # needs entry D + 2 of row D
    descended = hyper._descended_regular(spec, 1)
    assert descended.weighted_residues(-2) == ladder_residue(spec, 1, 1)
    with pytest.raises(WindowTooSmall):
        descended.weighted_residues(-3)  # h^2 of the u^D coefficient


DESCENT_POINTS = [(n, d) for n in range(2, 9) for d in range(1, 11)] + [(5, 20), (8, 16)]


@pytest.mark.parametrize("n, d", DESCENT_POINTS)
def test_leibniz_descent_matches_window_products(n, d):
    # D_p = (1 + theta + q mu') D_(p-1) / I_p against exp(-mu/h) L_p, one
    # window product per rung, at the stages' width D + 1
    spec = HyperSpec(n, d)
    back = exp_over_hbar(-regularizing_exponent(spec))
    products = oracles.descended_by_products(back, kernel_inv_hbar(spec), diagonals(spec))
    assert [hyper._descended_regular(spec, p) for p in range(n)] == products


@pytest.mark.parametrize("n", [2, 5, 8])
def test_descended_rungs_outside_the_ladder_raise(monkeypatch, cold_stages, n):
    # p < 0 and p >= n raise before any rung is built and with no recursion
    spec = HyperSpec(n, 4)
    descend, calls = hyper._descended_regular, []
    monkeypatch.setattr(hyper, "_descended_regular", lambda *a: calls.append(a) or descend(*a))
    for p in (-1, n):
        with pytest.raises(ValueError):
            hyper._descended_regular(spec, p)
    assert calls == [(spec, -1), (spec, n)]
    assert hyper._exp_minus_mu.cache_info().misses == 0
    assert hyper.ladder_series.cache_info().misses == 0


# -- bigraded log -----------------------------------------------------------------------


@pytest.mark.parametrize("order", [*range(1, 13), 24])
@pytest.mark.parametrize("n", range(1, 9))
def test_log_kernel_keeps_the_rows_it_is_read_on(n, order):
    # against the old route, which divides every row by K_0 and logs it whole
    spec = HyperSpec(n, order)
    kept, full = log_kernel_w(spec), oracles.full_row_log(spec)
    top = max(n - 2, 0)  # the genus-1 series reads rows 0..n - 2
    assert len(kept) == top + 1 and kept[0].truncation == order
    assert kept == full.coeffs[: top + 1]
    with pytest.raises(IndexError):
        kept[max(n - 1, 1)]


def test_quintic_table_divides_once_and_takes_each_log_once(cold_stages, monkeypatch):
    calls, rows, tpolys = [], set(), []
    for name in ("__truediv__", "log"):
        real = getattr(QSeries, name)
        monkeypatch.setattr(
            QSeries, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    real_rows = hyper._tower_rows
    monkeypatch.setattr(
        hyper,
        "_tower_rows",
        lambda spec, p, *, divided: rows.add((spec, p, divided))
        or real_rows(spec, p, divided=divided),
    )
    real_poly = TPoly.__init__
    monkeypatch.setattr(TPoly, "__init__", lambda *args: tpolys.append(args) or real_poly(*args))
    invariants.assemble_table(5, 6)
    # 1 / I_0, and log I_0, log I_1, log(1 - 5^5 q): 13 divisions and 8 logs
    # when each reader divided by I_0 and took its own logs
    assert (calls.count("__truediv__"), calls.count("log")) == (1, 3)
    # the rows of the tower it reads, R[0], S[0] (the normalized rows) and
    # R[1] (for I_1), and no tower entry or other t-polynomial
    spec = HyperSpec(5, 6)
    assert rows == {(spec, 0, False), (spec, 0, True), (spec, 1, False)}
    assert tpolys == []


def test_only_the_tower_entries_build_t_polynomials(cold_stages, monkeypatch, capsys):
    # every other stage hands out rows; tower_structure_check reads entries
    callers, real = set(), TPoly.__init__

    def recorded(self, coeffs):
        frame = sys._getframe(1)
        callers.add(f"{frame.f_globals['__name__']}.{frame.f_code.co_qualname}")
        real(self, coeffs)

    monkeypatch.setattr(TPoly, "__init__", recorded)
    for n in range(2, 9):
        assert cli.main(["verify", "--n", str(n), "--order", "3"]) == 0
    assert cli.main(["invariants", "--n", "5", "--order", "6"]) == 0
    capsys.readouterr()
    assert callers == {"hypergw.hyper.i_series"}


def test_log_kernel_linear_coefficient_is_mirror_shift():
    # the log's row 1 by the old route, which does not read the normalized
    # rows that both log_kernel_w and the mirror shift read
    for n in (3, 4, 5):
        spec = HyperSpec(n, 5)
        assert oracles.full_row_log(spec).coeffs[1] == mirror_shift(spec)


# -- the normalized kernel against the routes it replaced ----------------------------

NORMALIZED_POINTS = [(n, d) for n in range(1, 9) for d in range(1, 13)] + [(5, 24)]


@pytest.mark.parametrize("n, d", NORMALIZED_POINTS)
def test_normalized_stages_match_the_routes_they_replaced(n, d):
    spec = HyperSpec(n, d)
    f = kernel(spec)
    assert hyper.normalized_rows(spec) == tuple(c / f[0] for c in f)
    # at n = 1 the tower has no J_1, and the shift was row 1 over row 0 there
    by_tower = oracles.mirror_shift_by_tower(spec) if n > 1 else f[1] / f[0]
    assert mirror_shift(spec) == by_tower
    for p in range(n):
        assert hyper.diagonal_inverse(spec, p) == oracles.diagonal_inverse_by_division(spec, p)
        assert hyper.diagonal_log(spec, p) == diagonal_series(spec, p).log()
        for k in range(p, n):
            assert _tower_ratio(spec, p, k) == oracles.tower_ratio_by_division(spec, p, k)
    assert hyper.log_one_minus_nn_q(spec) == one_minus_nn_q(spec).log()
    assert linear_factor(spec) == oracles.nn_power_by_own_log(spec, Fr(1, n))
    assert kernel_value_at_zero(spec) == oracles.nn_power_by_own_log(spec, Fr(-1, n))


def _tower_ratio(spec, p, k):
    """Entry (p, k) over diagonal p, sum_j S[p][k - j] t^j / j!, from the
    divided rows S[p]: the J-polynomial J_k at p = 0."""
    rows = hyper._tower_rows(spec, p, divided=True)
    return oracles.TPoly([rows[k - p - j] * Fr(1, factorial(j)) for j in range(k - p + 1)])


@pytest.mark.parametrize("n, p, k", [(1, 0, 1), (3, 0, 3), (3, 2, 1), (3, -1, 0)])
def test_tower_entry_outside_the_tower_raises(n, p, k):
    # at n = 1 the normalized rows hold a row 1 that is no tower entry
    with pytest.raises(ValueError):
        i_series(HyperSpec(n, 4), p, k)


TOWER_POINTS = [(n, d) for n in range(1, 9) for d in range(1, 13)] + [(5, 24), (8, 32)]


@pytest.mark.parametrize("n, d", TOWER_POINTS)
def test_tower_rows_match_the_per_entry_tower(n, d):
    # the binomial sums of the triangle against the tower built entry by
    # entry, each entry the t-derivative of the one above over its diagonal
    spec = HyperSpec(n, d)
    entries, ratios, diagonals = oracles.tower_by_recursion(spec)
    for p in range(n):
        assert diagonal_series(spec, p) == diagonals[p]
        for k in range(p, n):
            assert i_series(spec, p, k) == entries[p, k]
            assert _tower_ratio(spec, p, k) == ratios[p, k]
            assert i_series(spec, p, k).t_degree == k - p


def test_dw_kernel_linear_coefficient_vanishes_at_five():
    # the w-coefficient list of (1+w)^5/(1+5w) starts 1, 0, ...
    coeffs = dw_kernel_coeffs(5, 3)
    assert coeffs[0] == 1
    assert coeffs[1] == 0
