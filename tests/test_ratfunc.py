"""The integer RatFunc and its residue routes against the Fraction oracles."""

import random
import re
from fractions import Fraction as Fr
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
    residue_at_infinity,
    residue_of_product_check,
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
    got = residue_at_infinity(f)
    assert got == oracles.residue_at_infinity(g) and type(got) is Fr


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


@st.composite
def simple_pole_factors(draw):
    """Functions with at most a simple pole at 0 and poles elsewhere."""
    num, den = draw(pairs())
    zero_pole = draw(st.booleans())
    return num, oracles.poly_mul(den, (Fr(0), Fr(1)) if zero_pole else (Fr(1),))


@settings(max_examples=60, deadline=None)
@given(st.lists(simple_pole_factors(), max_size=5))
@example([])
@example([ZERO, CONSTANT])
def test_product_subset_sum_matches_fraction_loop(factor_pairs):
    fs, gs = zip(*map(both, factor_pairs)) if factor_pairs else ((), ())
    if any(f.pole_order_at_zero() > 1 for f in fs):
        return  # the cancelling factors can leave a double pole at 0
    got = product_subset_sum(fs)
    assert got == oracles.product_residue_subsets(gs) and type(got) is Fr


def test_residue_trials_match_the_fraction_generators():
    new, old = random.Random(cli.RESIDUE_SEED), random.Random(cli.RESIDUE_SEED)
    for _ in range(cli.RESIDUE_SAMPLES):
        (f, poles), (g, want) = cli._random_ratfunc(new), oracles.random_ratfunc(old)
        assert same(f, g) and poles == want
    for _ in range(cli.RESIDUE_SAMPLES):
        fs, gs = cli._random_factors(new), oracles.random_factors(old)
        assert len(fs) == len(gs) and all(same(f, g) for f, g in zip(fs, gs))
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
    # the Fraction RatFunc built 32,754 here; the integer one about 2,000:
    # the drawn poles, one per residue and the sums of the residue theorem
    assert _count_fractions(lambda: cli._suite_residues(5, 6)) <= 2500


def test_product_check_reduces_once_and_residues_divide_nothing(monkeypatch):
    def counted(owner, name):
        calls, real = [], getattr(owner, name)

        def patched(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, patched)
        return calls

    fs = [RatFunc([1 + i, 2, i], [0, 1]) for i in range(5)]
    pole = RatFunc([1, 1, 1], [-1, 6, -12, 8])  # (1 + h + h^2) / (2 h - 1)^3
    reduced, divided = counted(residues, "_lowest_terms"), counted(polys, "_div_exact")
    cancelled = counted(polys, "_cancel_factors")
    # the product of the five factors is reduced once, by h alone, with no gcd
    assert residue_of_product_check(fs) is None
    assert reduced == []
    assert [factors for _, _, factors in cancelled] == [[(0, 1)]]
    # the pole order 3 is read off one Taylor shift: no division is tried
    divided.clear()
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


@pytest.mark.parametrize("n", range(1, 9))
def test_dump_q_text_matches_fraction_ratfunc(n):
    lines = [
        f"q^{d}: {oracles.RatFunc(num, den).to_str()}"
        for d, (num, den) in enumerate(regular_kernel(HyperSpec(n, 4)))
    ]
    assert cli.render_dump("Q", n, 4) == "\n".join(lines) + "\n"
