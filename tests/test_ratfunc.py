"""The integer RatFunc and its residue routes against the Fraction oracles."""

import random
import re
from fractions import Fraction as Fr
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergw import cli, hyper, polys, residues
from hypergw.hyper import HyperSpec, regular_kernel
from hypergw.residues import (
    RatFunc,
    laurent_at_zero,
    product_subset_sum,
    residue_at,
    residue_of_product_check,
    residue_pair_at_infinity,
)

import oracles
from test_kernels import _count_fractions

# rational points s/t with t <= 7
points = st.builds(Fr, st.integers(-7, 7), st.integers(1, 7))


@st.composite
def pairs(draw):
    """(num, den) Fraction tuples: den a nonzero multiple of prod (h - a)^m
    for up to three rational poles a of multiplicity m <= 4, num random or
    zero, times some of den's linear factors (which cancel)."""
    den = (draw(st.fractions(-3, 3, max_denominator=4).filter(bool)),)
    poles = draw(st.lists(st.tuples(points, st.integers(1, 4)), max_size=3))
    for a, m in poles:
        for _ in range(m):
            den = oracles.poly_mul(den, (-a, Fr(1)))
    num = tuple(draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=4)))
    if poles:
        for a in draw(st.lists(st.sampled_from([a for a, _ in poles]), max_size=3)):
            num = oracles.poly_mul(num, (-a, Fr(1)))
    return num, den


def both(pair):
    """The function of pair as the integer RatFunc and as the oracle."""
    return RatFunc(*pair), oracles.RatFunc(*pair)


def same(f, g):
    return f.num == g.num and f.den == g.den


def rational_roots(p):
    """The roots s/t of p with |s| <= 7 and 1 <= t <= 7."""
    grid = {Fr(s, t) for s in range(-7, 8) for t in range(1, 8)}
    return {a for a in grid if sum(c * a**k for k, c in enumerate(p)) == 0}


_X4 = (Fr(0),) * 4 + (Fr(1),)
ZERO = ((), (Fr(1),))
CONSTANT = ((Fr(-7, 3),), (Fr(2),))
# (h - 1/7)^4 / (3 (h - 1/7)^4) cancels to a constant
_QUARTIC = oracles.taylor_shift(_X4, Fr(-1, 7))
CANCELLED = (_QUARTIC, tuple(3 * c for c in _QUARTIC))
# a fourth-order pole at -5/7 and a double pole at 0
HIGH = ((Fr(1), Fr(2)), oracles.poly_mul(oracles.taylor_shift(_X4, Fr(5, 7)), (0, 0, Fr(2))))


@settings(max_examples=80, deadline=None)
@given(pairs())
@example(ZERO)
@example(CONSTANT)
@example(CANCELLED)
@example(HIGH)
def test_construction_matches_fraction_ratfunc(pair):
    f, g = both(pair)
    assert same(f, g)
    assert all(type(c) is Fr for c in f.num + f.den)
    # the canonical integer form: joint content 1, positive leading den
    assert gcd(*f._num, *f._den) == 1 and f._den[-1] > 0
    assert f.to_str() == g.to_str()


@settings(max_examples=80, deadline=None)
@given(pairs(), pairs())
@example(ZERO, CONSTANT)
@example(CANCELLED, HIGH)
@example(HIGH, HIGH)
def test_arithmetic_matches_fraction_ratfunc(p, q):
    (f, g), (u, v) = both(p), both(q)
    assert same(f + u, g + v)
    assert same(f - u, g - v)
    assert same(f * u, g * v)
    assert same(f + 3, g + 3) and same(f * Fr(-2, 5), g * Fr(-2, 5))
    if not u.is_zero():
        assert same(f / u, g / v)
    else:
        with pytest.raises(ZeroDivisionError):
            f / u


@settings(max_examples=80, deadline=None)
@given(pairs(), points)
@example(HIGH, Fr(-5, 7))
@example(ZERO, Fr(3))
def test_shift_and_evaluate_match_fraction_ratfunc(pair, a):
    f, g = both(pair)
    assert same(f.shift(a), g.shift(a))
    try:
        want = g.evaluate(a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            oracles.evaluate(f, a)
    else:
        got = oracles.evaluate(f, a)
        assert got == want and type(got) is Fr


@st.composite
def poles_at(draw):
    """(f, s, t), t in 1..3: f = num / ((t h - s)^m unit) with m up to the
    degree of its denominator, s = 0 among the draws, unit a random integer
    polynomial (a root at s/t deepens the pole) and num random."""
    s, t = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
    degree = draw(st.integers(0, 6))
    m = draw(st.integers(0, degree))
    size = degree - m + 1
    unit = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size).filter(lambda p: p[-1]))
    den = unit
    for _ in range(m):
        den = polys._mul_ints(den, [-s, t])
    num = draw(st.lists(st.integers(-6, 6), max_size=degree + 2))
    return RatFunc(num, den), s, t


@settings(max_examples=150, deadline=None)
@given(poles_at())
@example((RatFunc([1, 2], [0, 0, 0, 0, 27]), 0, 3))  # the pole order is deg den
@example((RatFunc([5], [-8, 12, -6, 1]), 2, 1))  # (h - 2)^3
@example((RatFunc([0, 0, 1], [0, 0, 0, 1, 1]), 0, 1))
def test_short_taylor_route_matches_the_full_shift(case):
    # residue_pair_at runs 2m rounds of den's shift and m of num's, at a
    # pole of order m; the oracle runs every round of both
    f, s, t = case
    assert residues.residue_pair_at(f, s, t) == oracles.residue_pair_by_full_shift(f, s, t)


@settings(max_examples=80, deadline=None)
@given(pairs(), points)
@example(HIGH, Fr(0))
@example(CANCELLED, Fr(1, 7))
@example(ZERO, Fr(1))
def test_residues_match_shift_route(pair, extra):
    f, g = both(pair)
    poles = rational_roots(pair[1]) | {Fr(0), extra}
    for a in poles:
        got = residue_at(f, a)
        assert got == oracles.residue_at(g, a) and type(got) is Fr
        assert got == oracles.residue_at_by_division(g, a)
    c, q = residue_pair_at_infinity(f)
    assert type(c) is int and type(q) is int and q
    assert Fr(c, q) == oracles.residue_at_infinity(g)


@settings(max_examples=80, deadline=None)
@given(pairs(), st.integers(0, 3), st.integers(-2, 5))
@example(HIGH, 0, 2)
@example(ZERO, 0, 0)
def test_laurent_window_matches_fraction_route(pair, extra, high):
    f, g = both(pair)
    low = f.pole_order_at_zero() + extra
    high = max(high, -low)
    win = laurent_at_zero(f, low, high)
    assert list(win.coeffs) == oracles.laurent_at_zero(g, low, high)
    assert all(type(c) is Fr for c in win.coeffs)


def h_times(g):
    """h g of an oracle function as an integer list, or None when it is not
    a polynomial with integer coefficients."""
    hg = g * oracles.RatFunc.variable()
    if hg.den != (1,) or any(c.denominator != 1 for c in hg.num):
        return None
    return [int(c) for c in hg.num]


def stripped(row):
    row = list(row)
    while row and not row[-1]:
        row.pop()
    return row


# a factor of the product check as the integer list h f, which is the
# function h f / h
factor_rows = st.lists(st.integers(-7, 7), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(factor_rows, max_size=5))
@example([])
@example([[0], [0, 1]])
@example([[0], [-7, 3, 0]])
@example([[1, 2], [3, -1], [-2, 5, 1], [4], [5, 0, 2]])  # five poles, every level
@example([[2, 1], [0, 3], [-1, 0, 4], [0, -2, 1], [7, 7]])  # poles among regular factors
def test_product_subset_sum_matches_fraction_loop(rows):
    gs = [oracles.RatFunc(tuple(map(Fr, row)), (Fr(0), Fr(1))) for row in rows]
    got = product_subset_sum(rows)
    assert got == oracles.product_residue_subsets(gs) and type(got) is int


def test_residue_trials_match_the_fraction_generators():
    new, old = random.Random(cli.RESIDUE_SEED), random.Random(cli.RESIDUE_SEED)
    for _ in range(cli.RESIDUE_SAMPLES):
        (f, poles), (g, want) = cli._random_ratfunc(new), oracles.random_ratfunc(old)
        assert same(f, g) and {Fr(s, t) for s, t in poles} == want
    for _ in range(cli.RESIDUE_SAMPLES):
        rows, gs = cli._random_factors(new), oracles.random_factors(old)
        assert [stripped(row) for row in rows] == [h_times(g) for g in gs]
    assert new.getstate() == old.getstate()


# every range the residue generators draw from, and the width-1 ranges
DRAW_RANGES = [(1, 3), (-4, 4), (1, 2), (-6, 6), (0, 5), (-5, 5), (-3, 3)]
DRAW_RANGES += [(1, k) for k in range(1, 8)] + [(0, 0), (-7, -7)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64), st.lists(st.sampled_from(DRAW_RANGES), max_size=30))
def test_draw_is_randint(seed, ranges):
    # the same values, and the rng left in the same state after every draw
    new, old = random.Random(seed), random.Random(seed)
    for a, b in DRAW_RANGES + ranges:
        assert cli._draw(new, a, b) == old.randint(a, b)
        assert new.getstate() == old.getstate()


def fraction_sum_failure(f, points, g):
    """The residue-sum failure text from Fractions: residue_at at the points
    s/t, and the oracle's residue at infinity of g, which is f as the oracle
    holds it."""
    total = sum((residue_at(f, Fr(s, t)) for s, t in points), oracles.residue_at_infinity(g))
    return None if total == 0 else f"total residue {total}"


def test_residue_sum_matches_fraction_sum_on_the_seeded_trials():
    # every subset of a trial's poles, so that most totals are not 0
    rng = random.Random(cli.RESIDUE_SEED)
    for _ in range(cli.RESIDUE_SAMPLES):
        f, poles = cli._random_ratfunc(rng)
        g = oracles.RatFunc(f.num, f.den)
        for size in range(len(poles) + 1):
            for points in combinations(sorted(poles), size):
                want = fraction_sum_failure(f, points, g)
                assert cli._residue_sum_check((f, points)) == want
        assert cli._residue_sum_check((f, poles)) is None


@settings(max_examples=80, deadline=None)
@given(pairs(), st.integers(0, 63))
@example(HIGH, 63)
@example(ZERO, 1)
def test_residue_sum_matches_fraction_sum_on_drawn_functions(pair, mask):
    # the points: the roots of den and 0, each kept when its bit of mask is set
    f, g = both(pair)
    roots = sorted(rational_roots(pair[1]) | {Fr(0)})
    points = [(a.numerator, a.denominator) for i, a in enumerate(roots) if mask >> i & 1]
    assert cli._residue_sum_check((f, points)) == fraction_sum_failure(f, points, g)


@pytest.mark.parametrize("seed", [0, 1, 7, 424242])
def test_product_rows_are_h_times_the_fraction_draws(seed):
    # each row is h f of the function the Fraction generator draws, from the
    # same draws: the rng ends in the same state after every trial
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(cli.RESIDUE_SAMPLES):
        rows, gs = cli._random_factors(new), oracles.random_factors(old)
        assert [stripped(row) for row in rows] == [h_times(g) for g in gs]
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: RatFunc([0.5]), "0.5"),
        (lambda: RatFunc([1], [Fr(1), 0.5]), "0.5"),
        (lambda: RatFunc.from_scalar(0.1), "0.1"),
        (lambda: RatFunc.from_scalar("1/3"), "'1/3'"),
    ],
)
def test_inexact_input_is_refused(build, shown):
    with pytest.raises(TypeError, match=re.escape(shown)):
        build()


def test_residue_suite_builds_few_fractions():
    # the Fraction RatFunc built 32,754 here; the integer one 1,692 while
    # the drawn poles, each residue and the sums were Fractions, and none
    # since they are integer pairs (the next test)
    assert _count_fractions(lambda: cli._suite_residues(5, 6)) <= 2500


def test_passing_residue_suite_builds_no_fraction():
    # the draws, poles, residues and their sums all stay in int: 1,692 were
    # built here while each residue was one Fraction
    reports = []
    assert _count_fractions(lambda: reports.extend(cli._suite_residues(5, 6))) == 0
    assert len(reports) == 2 and all(rep.passed for rep in reports)


def test_residue_suite_tries_no_failing_division_and_no_recurrence(monkeypatch):
    # every factor the trials divide out is linear, so a root test decides
    # it and a division runs only when it is exact (1,086 of 1,229 failed
    # under trial division); each residue reads its few coefficients from
    # the fraction-free quotient, never the series recurrence
    divisions, failed, recurrences = [], [], []
    real_div, real_rec = polys._div_exact, polys._recurrence

    def div_exact(a, b):
        divisions.append(b)
        try:
            return real_div(a, b)
        except ArithmeticError:
            failed.append((a, b))
            raise

    def recurrence(*args):
        recurrences.append(args)
        return real_rec(*args)

    monkeypatch.setattr(polys, "_div_exact", div_exact)
    monkeypatch.setattr(polys, "_recurrence", recurrence)
    assert all(rep.passed for rep in cli._suite_residues(5, 6))
    assert failed == [] and recurrences == []
    # 12 poles of the sum trials' draws divided out, from both sides; the
    # product trials build integer rows and divide nothing
    assert len(divisions) == 24


def test_product_check_reduces_nothing_and_residues_divide_nothing(monkeypatch):
    def counted(owner, name):
        calls, real = [], getattr(owner, name)

        def patched(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, patched)
        return calls

    rows = [[1 + i, 2, i] for i in range(5)]  # (1 + i)/h + 2 + i h
    pole = RatFunc([1, 1, 1], [-1, 6, -12, 8])  # (1 + h + h^2) / (2 h - 1)^3
    reduced, divided = counted(residues, "_lowest_terms"), counted(polys, "_div_exact")
    cancelled, heads = counted(polys, "_cancel_factors"), counted(polys, "_quotient_head")
    residues_at, built = counted(residues, "residue_at"), counted(RatFunc, "_of")
    # the product of the five factors is one integer product of their rows:
    # nothing is reduced, and no residue or quotient is taken
    assert residue_of_product_check(rows) is None
    assert reduced == cancelled == heads == residues_at == built == []
    # the pole order 3 is read off one Taylor shift: no division is tried
    assert residue_at(pole, Fr(1, 2)) == Fr(1, 8)
    assert divided == []


# irreducible primitive factors, either sign: the linear t h - s, and the
# Phi_m(1 + r h) that dump --what Q divides out of V_d
irreducible = st.tuples(
    st.one_of(
        st.tuples(st.integers(-4, 4), st.integers(1, 3))
        .filter(lambda pt: gcd(*pt) == 1)
        .map(lambda pt: (-pt[0], pt[1])),
        st.sampled_from(
            [tuple(f) for n in (2, 3, 4, 6) for r in (1, 2) for f in hyper._v_factors(n, r)]
        ),
    ),
    st.sampled_from((1, -1)),
).map(lambda fs: tuple(c * fs[1] for c in fs[0]))


@st.composite
def known_factor_pairs(draw):
    """(num, den, factors): num and den each an integer times the drawn
    factors with multiplicities 0..2, num possibly zero, both padded with
    trailing zeros."""
    factors = draw(st.lists(irreducible, max_size=3))

    def build(scale):
        p = [scale]
        for f in factors:
            for _ in range(draw(st.integers(0, 2))):
                p = polys._mul_ints(p, f)
        return p + [0] * draw(st.integers(0, 2))

    num = build(draw(st.integers(-6, 6)))
    den = build(draw(st.integers(-6, 6).filter(bool)))
    return num, den, factors


@settings(max_examples=100, deadline=None)
@given(known_factor_pairs())
@example(([0, 0], [0, 1, 0], [(0, 1)]))  # a zero numerator
@example(([0, 0, 2, 0], [0, 0, 0, 3], [(0, 1)]))  # h twice from both
@example(([2, 3, 1], [2, 1], [(2, 1), (1, 1)]))  # (h + 1)(h + 2) / (h + 2)
def test_cancel_factors_matches_gcd(case):
    # when the factors hold every common factor, dividing them out leaves the
    # coprime pair that the gcd route reduces to
    num, den, factors = case
    got = polys._cancel_factors(num, den, factors)
    assert all(p[-1] for p in got if p) and got[1]
    assert RatFunc.from_coprime(*got) == RatFunc(num, den)


@settings(max_examples=100, deadline=None)
@given(known_factor_pairs())
@example(([1, 2], [3, 4], [(0, 1)]))  # h divides neither side
@example(([0, 2], [3, 4], [(0, 1)]))  # the numerator only
@example(([3, 4], [0, 0, 2], [(0, 1)]))  # the denominator only
@example(([0, 0, 2], [0, 4], [(0, 1)]))  # both, once
@example(([3, 6, 4, 1], [3, 3, 1], [(3, 3, 1), (1, 1)]))  # Phi_3(1 + h) from both
@example(([3, 3, 1], [2, 1], [(3, 3, 1)]))  # Phi_3(1 + h) from the numerator only
@example(([0, 0], [4, -4, 0], [(-1, 2), (0, 1)]))  # a zero numerator
def test_cancel_factors_matches_trial_division(case):
    # the root test divides exactly where a full trial division would
    num, den, factors = case
    assert polys._cancel_factors(num, den, factors) == oracles.cancel_factors_by_trial(
        num, den, factors
    )


@pytest.mark.parametrize("factor", [(1,), (-3,), (0,), (2, 0), ()])
def test_cancel_factors_refuses_a_constant_factor(factor):
    # a unit would divide at every step, a zero at none
    with pytest.raises(ValueError, match="not a nonconstant polynomial"):
        polys._cancel_factors([1, 2], [3, 4], [(0, 1), factor])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-50, 50), max_size=8),
    st.integers(-12, 12).filter(bool),
    st.lists(st.integers(-50, 50), max_size=7),
    st.integers(-1, 6),
)
@example([1], 1, [], 0)
@example([4, 5], -3, [], -1)  # the empty head a one-entry window reads
@example([], -12, [5, 0, 7], 6)
@example([3, -1, 4, 1, -5], 7, [2, -1], 6)
def test_quotient_head_matches_the_recurrence(a, b0, b_tail, k):
    # the fraction-free kernel gives the series quotient's Fractions
    b = [b0] + b_tail
    ints, den = polys._quotient_head(a, b, k)
    want, want_den = residues._quotient(a, b, k)
    assert len(ints) == k + 1 and den == b0 ** (k + 1)
    assert [Fr(c, den) for c in ints] == [Fr(c, want_den) for c in want]


@pytest.mark.parametrize("n", range(1, 9))
def test_dump_q_text_matches_fraction_ratfunc(n):
    lines = [
        f"q^{d}: {oracles.RatFunc(num, den).to_str()}"
        for d, (num, den) in enumerate(regular_kernel(HyperSpec(n, 4)))
    ]
    assert cli.render_dump("Q", n, 4) == "\n".join(lines) + "\n"
