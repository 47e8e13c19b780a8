"""Invariant extraction, conversions, inversions, and the locus split."""

import json
from fractions import Fraction as Fr
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergw import cli, hyper, invariants, series
from hypergw.errors import MissingColumn, RoutesDisagree
from hypergw.hyper import HyperSpec, mirror_shift, regularizing_exponent
from hypergw.invariants import (
    GWTable,
    assemble_table,
    boundary_locus_by_residues,
    boundary_locus_series,
    bridge_series,
    divisors,
    effective_locus_half_sum,
    effective_locus_parity,
    extract_invariants,
    instanton_inversion,
    locus_split_check,
    low_dimension_checks,
    quintic_genus0,
    quintic_genus1,
    reduced_genus1_series,
    sigma,
    torus_cover_series,
)
from hypergw.report import IdentityReport
from hypergw.residues import (
    RatFunc,
    moment_closed_form_check,
    moment_identity_check,
    moment_regularized_check,
    regularize,
)
from hypergw.series import QSeries

import oracles

D = 5
N0_ORACLE, N1_ORACLE, INST0_ORACLE, INST1_ORACLE, _ = oracles.quintic_tables(D)


# -- quintic genus 0 ----------------------------------------------------------


def test_quintic_genus0_first_degrees():
    values, report = quintic_genus0(3)
    assert values == [Fr(2875), Fr(4876875, 8), Fr(8564575000, 27)]
    assert report.passed


def test_quintic_genus0_against_brute_force():
    values, report = quintic_genus0(D)
    assert values == [N0_ORACLE[d] for d in range(1, D + 1)]
    assert report.passed


# -- quintic genus 1 ----------------------------------------------------------


def test_quintic_genus1_first_degree():
    values = quintic_genus1(2)
    assert values[0] == Fr(2875, 12)


def test_quintic_genus1_against_brute_force():
    assert quintic_genus1(D) == [N1_ORACLE[d] for d in range(1, D + 1)]


def test_genus1_routes_agree():
    spec = HyperSpec(5, D)
    reduced = extract_invariants(reduced_genus1_series(spec), spec)
    n0, _ = quintic_genus0(D)
    direct = quintic_genus1(D)
    for r, v, s in zip(reduced, n0, direct):
        assert s == r + v / 12


def test_cubic_term_identity():
    # (5/24)(J3 - J1 J2 + J1^3/3) = -(1/12) sum_d N0_d exp(dT)
    spec = HyperSpec(5, D)
    ratios = oracles.tower_by_recursion(spec)[1]
    j1, j2, j3 = (ratios[0, k] for k in (1, 2, 3))
    lhs = (j3 - j1 * j2 + j1 * j1 * j1 * Fr(1, 3)) * Fr(5, 24)
    n0, _ = quintic_genus0(D)
    shift = mirror_shift(spec)
    rhs = QSeries.zero(D)
    for d, v in enumerate(n0, start=1):
        rhs = rhs + QSeries.monomial(d, D) * (shift * d).exp() * (v * Fr(-1, 12))
    assert oracles.t_free_part(lhs) == rhs


# -- conversions and inversions --------------------------------------------------


def test_sigma_values():
    assert [sigma(r) for r in (1, 2, 4)] == [1, 3, 7]
    assert divisors(6) == [1, 2, 3, 6]


def test_reduced_standard_round_trip():
    tab = assemble_table(5, 4)
    columns = zip(tab.column("N1"), tab.column("N0"), tab.column("GW1_reduced"), strict=True)
    for big1, big0, reduced in columns:
        assert big1 - big0 / 12 == reduced


def test_text_table_approximates_past_float_range():
    column = [Fr(1, 3), Fr(10**400 + 1, 3), Fr(-(10**500), 7)]
    cells = [line.split()[-1] for line in GWTable(5, 3, {"N0": column}).to_text().splitlines()[2:]]
    assert cells == ["(~0.333333)", "(~3.33333e+399)", "(~-1.42857e+499)"]


def test_instanton_values():
    tab = assemble_table(5, D)
    assert tab.column("n0") == [INST0_ORACLE[d] for d in range(1, D + 1)]
    assert tab.column("n1") == [INST1_ORACLE[d] for d in range(1, D + 1)]
    assert tab.column("n1")[:2] == [0, 0]
    assert tab.column("n0")[:3] == [2875, 609250, 317206375]


def test_inversion_needs_columns():
    tab = assemble_table(4, 2)
    with pytest.raises(MissingColumn, match="column N0 is not filled"):
        instanton_inversion(tab.column("N0"), tab.column("N1"))
    with pytest.raises(MissingColumn):
        GWTable(n=5, truncation=2, columns={}).column("GW1_reduced")


# -- degenerate dimensions ---------------------------------------------------------


def test_line_and_conic_series_vanish():
    for n in (1, 2):
        spec = HyperSpec(n, 8)
        assert reduced_genus1_series(spec) == QSeries.zero(8)


def test_quartic_surface_invariants_vanish():
    spec = HyperSpec(4, 8)
    assert extract_invariants(reduced_genus1_series(spec), spec) == [0] * 8


def test_cubic_curve_cover_counts():
    spec = HyperSpec(3, 9)
    got = extract_invariants(reduced_genus1_series(spec), spec)
    covers = torus_cover_series(9)
    assert got == list(covers.coeffs[1:])
    # explicitly: zero unless 3 | d, and sigma_r / r at d = 3r
    assert got[2] == 1
    assert got[5] == Fr(3, 2)
    assert got[8] == Fr(4, 3)
    assert all(got[k] == 0 for k in (0, 1, 3, 4, 6, 7))


def test_low_dimension_checks():
    assert low_dimension_checks(7).passed


@pytest.mark.parametrize("order", [*range(1, 13), 24])
def test_k3_rows_match_the_j_polynomial_checks(order):
    # the gap and the decomposition on the normalized rows are the t^0 rows
    # of the J-polynomial forms, whose higher t-rows all vanish
    gap, decomposition = invariants._k3_series(HyperSpec(4, order))
    old_gap, old_decomposition = oracles.quartic_k3_by_j_polys(order)
    assert old_gap.t_degree == old_decomposition.t_degree == 0
    assert old_gap == gap and old_decomposition == decomposition
    assert gap == QSeries.zero(order)


# -- locus split --------------------------------------------------------------------


def test_effective_locus_forms_agree():
    for n in (2, 3, 4, 5):
        spec = HyperSpec(n, 5)
        assert effective_locus_half_sum(spec) == effective_locus_parity(spec)


def test_boundary_residue_route():
    # n = 1 and n = 2 are the edge cases of the evaluation at h = -n
    for n in range(1, 9):
        spec = HyperSpec(n, 4)
        total, parts = boundary_locus_by_residues(spec)
        assert total == boundary_locus_series(spec)
        assert parts["zero"] + parts["minus_n"] + parts["infinity"] == total


def test_residue_weight_matches_the_gcd_reduction():
    # the weight divided by its known factors h, h, n + h, against RatFunc's
    # gcd over ((1+h)^n - 1) / ((n+h) h^2); at n = 2 the factor 2 + h cancels
    for n in range(1, 13):
        num = [0] + [comb(n, k) for k in range(1, n + 1)]
        assert invariants._residue_weight(n) == RatFunc(num, [0, 0, n, 1])
    assert invariants._residue_weight(2) == RatFunc([1], [0, 1])


def test_locus_split_sums_to_series():
    for n in (2, 3, 4, 5, 6):
        spec = HyperSpec(n, 5)
        assert locus_split_check(spec).passed


def test_constant_term_of_minus_n_part_vanishes():
    spec = HyperSpec(5, 4)
    _, parts = boundary_locus_by_residues(spec)
    assert parts["minus_n"][0] == 0


# -- bridge -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def quintic_bridge():
    spec = HyperSpec(5, 5)
    return spec, regularize(bridge_series(spec))


def test_bridge_regularizes_with_exponent_mu(quintic_bridge):
    spec, out = quintic_bridge
    assert out.regular
    assert out.eta == regularizing_exponent(spec)


def test_bridge_regular_part_value(quintic_bridge):
    from hypergw.hyper import diagonal_series, kernel_value_at_zero

    spec, out = quintic_bridge
    value = QSeries.one(5) + out.zbar.taylor_coeff(0)
    assert value == kernel_value_at_zero(spec) / diagonal_series(spec, 0)


def test_bridge_moment_identities(quintic_bridge):
    _, reg = quintic_bridge
    for a in range(3):
        assert moment_identity_check(reg, a) is None
        assert moment_regularized_check(reg, a) is None


def test_bridge_moment_closed_form():
    # the closed form reads entry 2D + 2, past the bridge's width D + 1
    reg = regularize(oracles.wide_bridge_series(HyperSpec(4, 5)))
    for a in range(-2, 3):
        assert moment_closed_form_check(reg, a) is None


# -- tables ------------------------------------------------------------------------


def test_json_round_trip():
    tab = assemble_table(5, 3)
    obj = json.loads(json.dumps(tab.to_json_obj()))
    assert (obj["n"], obj["truncation"]) == (5, 3)
    for d, rec in enumerate(obj["rows"], start=1):
        assert rec["d"] == d
        for col in ("N0", "GW1_reduced", "N1", "n0", "n1"):
            assert Fr(rec[col]) == tab.column(col)[d - 1]
    assert len(obj["rows"]) == 3


def test_csv_columns():
    tab = assemble_table(3, 4)
    lines = tab.to_csv_text().strip().split("\n")
    assert lines[0] == "d,N0,GW1_reduced,N1,n0,n1"
    assert lines[3] == "3,,1,,,"


def test_non_quintic_table_has_reduced_only():
    tab = assemble_table(4, 3)
    assert tab.column("GW1_reduced") == [0, 0, 0]
    assert list(tab.columns) == ["GW1_reduced"] and tab.blocks is None
    with pytest.raises(MissingColumn):
        tab.column("N0")


# -- integrality and typed failures ----------------------------------------------


def test_quintic_instanton_numbers_are_integers():
    # Gopakumar-Vafa integrality: an oracle that needs no stored values
    table = assemble_table(5, 30)
    for name in ("n0", "n1"):
        column = table.column(name)
        assert len(column) == 30
        assert all(v.denominator == 1 for v in column), name


def test_table_needs_no_series_reversion(monkeypatch, cold_stages):
    # invariant extraction is Lagrange-Buermann: no fixed-point reversion
    # and no composition anywhere on the table's path
    def forbidden(*args):
        raise RuntimeError("series reversion on the table path")

    monkeypatch.setattr(series, "exp_coordinate_inverse", forbidden)
    monkeypatch.setattr(series.QSeries, "compose", forbidden)
    table = assemble_table(5, 8)
    assert table.column("n0")[:2] == [2875, 609250]


def test_block_reconstruction_failure_is_typed(monkeypatch):
    real = invariants.quintic_genus0

    def broken(order):
        values, _ = real(order)
        return values, IdentityReport("forced", {}, order, first_failure="q^1")

    monkeypatch.setattr(invariants, "quintic_genus0", broken)
    with pytest.raises(RoutesDisagree, match="block reconstruction"):
        assemble_table(5, 3)


def test_genus1_route_mismatch_is_typed(monkeypatch):
    real = invariants.quintic_genus1
    monkeypatch.setattr(invariants, "quintic_genus1", lambda order: [v + 1 for v in real(order)])
    with pytest.raises(RoutesDisagree, match="genus-1 routes"):
        assemble_table(5, 3)


@pytest.mark.parametrize("genus", [0, 1])
def test_instanton_round_trip_failure_is_typed(monkeypatch, genus):
    table = assemble_table(5, 3)
    if genus == 0:
        # dropping k = 1 from every divisor sum breaks both forward substitutions
        monkeypatch.setattr(invariants, "divisors", lambda d: divisors(d)[1:])
    else:
        # sigma(1) = 2 breaks only the genus-1 one, which is reached after genus 0
        monkeypatch.setattr(invariants, "sigma", lambda r: sigma(r) + (r == 1))
    with pytest.raises(RoutesDisagree, match=f"genus-{genus} multiple-cover"):
        instanton_inversion(table.column("N0"), table.column("N1"))


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("k", [1, 12])
def test_fractional_mirror_map_exits_1(monkeypatch, capsys, cold_stages, n, k):
    # exp(mirror shift) has integer coefficients; the table refuses a fraction
    # at the first degree that has one, with a typed error and no traceback
    shift = hyper.mirror_shift
    monkeypatch.setattr(
        hyper, "mirror_shift", lambda spec: shift(spec) + QSeries.monomial(k, spec.qorder, Fr(3, 7))
    )
    assert cli.main(["invariants", "--n", str(n), "--order", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"identity violation: NotIntegral: exp(mirror shift) at degree {k}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("k", [1, 6])
def test_fractional_mirror_map_fails_the_ladder_report(monkeypatch, capsys, cold_stages, n, k):
    # the same fraction in exp(mirror shift) alone fails verify's ladder
    # report; a bump shared by I_1 and the shift would keep its step part
    coordinate = hyper.mirror_coordinate
    monkeypatch.setattr(
        hyper,
        "mirror_coordinate",
        lambda spec: coordinate(spec) + QSeries.monomial(k, spec.qorder, Fr(3, 7)),
    )
    assert cli.main(["verify", "--suite", "theorem3", "--n", str(n), "--order", "6"]) == 1
    (failing,) = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    head = f"ladder-identities [n={n} order=6]: FAIL at mirror-map-integral: degree {k}: "
    assert failing.startswith(head) and failing.endswith("/7")


def test_fractional_instanton_number_exits_1(monkeypatch, capsys):
    invert = invariants.instanton_inversion

    def bumped(big0, big1):
        n0, n1 = invert(big0, big1)
        return n0, [n1[0] + Fr(3, 7)] + n1[1:]

    monkeypatch.setattr(invariants, "instanton_inversion", bumped)
    assert cli.main(["invariants", "--n", "5", "--order", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "identity violation: NotIntegral: instanton numbers at degree 1: n0 = 2875, n1 = 3/7\n"
    )


@pytest.mark.parametrize("order", [*range(1, 13), 24, 32])
def test_genus0_rows_match_the_j_polynomial_pass(order):
    # the pass on the normalized rows against the pass on the J-polynomials
    # of the per-entry tower: the same N_d and block verdict, and every t^j
    # row (j >= 1) of the combination and of each block's lhs - rhs is zero
    values, rep = quintic_genus0(order)
    old_values, old_failure, t_free = oracles.quintic_genus0_by_j_polys(order)
    assert values == old_values
    assert rep.passed and old_failure is None
    assert all(poly.t_degree == 0 for poly in t_free)


def _bumped(series):
    return series + QSeries.monomial(3, series.truncation, Fr(3, 7))


@pytest.mark.parametrize(
    "block, owner, name, change",
    [
        ("block-1", hyper, "mirror_shift", _bumped),
        ("block-2", invariants, "_block_sums", lambda sums: (_bumped(sums[0]), sums[1])),
        ("block-3", invariants, "_block_sums", lambda sums: (sums[0], _bumped(sums[1]))),
    ],
)
def test_genus0_rows_fail_where_the_j_polynomial_pass_fails(
    cold_stages, monkeypatch, block, owner, name, change
):
    # one side of a block moved: both passes fail at the same t^0 coefficient
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: change(real(*args)))
    _, rep = quintic_genus0(6)
    _, old_failure, _ = oracles.quintic_genus0_by_j_polys(6)
    assert rep.first_failure.startswith(f"{block}: q^3: ")
    assert old_failure == rep.first_failure.replace(": q^3", ": t^0 q^3", 1)


@pytest.mark.parametrize("order", range(1, 41))
def test_yukawa_route_matches_quintic_genus0(order):
    assert oracles.quintic_yukawa_genus0(order) == quintic_genus0(order)[0]


def _block_values(order):
    """Values with mixed signs, zeros and denominators."""
    return [
        Fr((-1) ** d * (d * d - 3), 7 * d + 1) if d % 4 else Fr(0) for d in range(1, order + 1)
    ]


@pytest.mark.parametrize("order", range(1, 31))
def test_block_sums_match_qseries_loop(order):
    # the block-check weights E_d = E_1^d as integer rows, against full
    # q-series products, on the quintic mirror shift (integral) ...
    shift = mirror_shift(HyperSpec(5, order))
    values = _block_values(order)
    sum2, sum3c = invariants._block_sums(shift.exp(), values)
    want2, want3c = oracles.block_sums(list(shift.coeffs), values)
    assert list(sum2.coeffs) == want2 and list(sum3c.coeffs) == want3c
    assert sum2.truncation == sum3c.truncation == order


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(-3, 3, max_denominator=5), min_size=1, max_size=8))
def test_block_sums_match_qseries_loop_on_rational_shifts(tail):
    # ... and on shifts with denominators, whose powers carry them
    shift = QSeries([0] + tail)
    values = _block_values(len(tail))
    sum2, sum3c = invariants._block_sums(shift.exp(), values)
    want2, want3c = oracles.block_sums(list(shift.coeffs), values)
    assert list(sum2.coeffs) == want2 and list(sum3c.coeffs) == want3c
