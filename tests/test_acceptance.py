"""Acceptance gate: headline values and identity suites at their stated orders.

Every comparison is exact (no tolerances anywhere).  One pass/fail line
per criterion is printed (run with `pytest -s` to see them live); each
criterion also enforces its runtime bound.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

from hypergw import cli
from hypergw.hyper import (
    HyperSpec,
    diagonal_identities,
    exponent_methods_check,
    ladder_identities,
    regular_kernel_checks,
    regularizing_exponent,
    tower_structure_check,
)
from hypergw.invariants import (
    assemble_table,
    extract_invariants,
    locus_split_check,
    quintic_genus0,
    quintic_genus1,
    reduced_genus1_series,
    torus_cover_series,
    bridge_series,
)
from hypergw.residues import (
    RatFunc,
    USeriesRF,
    moment_identity_check,
    moment_regularized_check,
    regularize,
    residue_at,
    reciprocal_failures,
    residue_of_product_check,
    residue_pair_at_infinity,
    rising_failures,
    vandermonde_failures,
)
from hypergw.series import QSeries


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(
            f"acceptance {number} ({name}): {status} "
            f"[{elapsed:.2f}s, limit {limit_seconds}s]"
        )
        sys.stdout.flush()
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over {limit_seconds}s"


def test_criterion_1_quintic_genus0_table():
    with criterion(1, "quintic genus-0 table", 5):
        values, report = quintic_genus0(10)
        assert values[0] == 2875
        assert values[1] == Fr(4876875, 8)
        assert values[2] == Fr(8564575000, 27)
        assert report.passed
        table = assemble_table(5, 10)
        assert table.column("n0")[:3] == [2875, 609250, 317206375]


def test_criterion_2_quintic_genus1():
    with criterion(2, "quintic genus-1", 10):
        order = 8
        standard = quintic_genus1(order)
        assert standard[0] == Fr(2875, 12)
        table = assemble_table(5, order)
        assert table.column("n1")[:2] == [0, 0]
        spec = HyperSpec(5, order)
        reduced = extract_invariants(reduced_genus1_series(spec), spec)
        n0 = table.column("N0")
        for s, r, v in zip(standard, reduced, n0):
            assert s == r + v / 12


def test_criterion_3_degenerate_dimensions():
    with criterion(3, "degenerate dimensions", 5):
        assert reduced_genus1_series(HyperSpec(2, 8)) == QSeries.zero(8)
        spec4 = HyperSpec(4, 8)
        assert extract_invariants(reduced_genus1_series(spec4), spec4) == [0] * 8
        spec3 = HyperSpec(3, 9)
        got = extract_invariants(reduced_genus1_series(spec3), spec3)
        assert got == list(torus_cover_series(9).coeffs[1:])


def test_criterion_4_diagonal_suite():
    with criterion(4, "diagonal-identity suite", 30):
        for n in range(2, 9):
            spec = HyperSpec(n, 10)
            assert diagonal_identities(spec).passed
            assert tower_structure_check(spec).passed


def test_criterion_5_regular_kernel_suite():
    with criterion(5, "exponent and regular-kernel suite", 30):
        for n in range(2, 9):
            spec = HyperSpec(n, 8)
            assert exponent_methods_check(spec).passed
            assert regular_kernel_checks(spec).passed


def test_criterion_6_regularization_suite():
    with criterion(6, "regularization suite", 20):
        order = 6
        reg = regularize(cli._constructed_regularizable(order))
        for a in range(5):
            assert moment_identity_check(reg, a) is None
        for a in range(4):
            assert moment_regularized_check(reg, a) is None

        bad = regularize(USeriesRF.from_quotients([(0, [], [1]), (-1, [1], [1])], order))
        assert not all(
            moment_identity_check(bad, a) is None for a in range(5)
        )

        spec = HyperSpec(5, order)
        out = regularize(bridge_series(spec))
        assert out.regular
        assert out.eta == regularizing_exponent(spec)
        for a in range(3):
            assert moment_identity_check(out, a) is None
            assert moment_regularized_check(out, a) is None


def test_criterion_7_residue_suite():
    with criterion(7, "residue suite", 10):
        import random

        from hypergw import polys as P

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

        for _ in range(200):
            rows = []
            for _ in range(rng.randint(0, 5)):
                num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
                pole = rng.random() < 0.7
                # h f for f = num / h + c, or for f = num + c
                row = num + [0] if pole else [0] + num
                row[1] += rng.randint(-3, 3)
                rows.append(row)
            assert residue_of_product_check(rows) is None

        for family in (vandermonde_failures, reciprocal_failures, rising_failures):
            assert next(family(8), None) is None


def test_criterion_8_locus_split_suite():
    with criterion(8, "locus-split suite", 60):
        for n in range(3, 7):
            spec = HyperSpec(n, 6)
            assert locus_split_check(spec).passed
            assert ladder_identities(spec).passed


def test_criterion_9_block_reconstruction():
    with criterion(9, "cohomology-block closure", 5):
        _, report = quintic_genus0(8)
        assert report.passed
