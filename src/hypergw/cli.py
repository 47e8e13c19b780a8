"""Command-line front end: invariant tables, verification suites, series dumps.

Output is deterministic and exact; rationals are printed as "p/q" and
never decimalized in machine formats.  Exit codes: 0 on success, 1 when
a verified identity fails (the suite is the acceptance harness), 2 on
bad arguments.
"""

import argparse
import json
import sys
from fractions import Fraction
from itertools import product, zip_longest
from math import comb

from . import hyper, invariants, residues
from . import polys as P
from .errors import HypergwError
from .hyper import HyperSpec
from .residues import (
    RatFunc,
    USeriesRF,
    exp_over_hbar,
    moment_closed_form_check,
    moment_identity_check,
    regularize,
    reciprocal_sum_check,
    residue_at,
    residue_at_infinity,
    residue_of_product_check,
    rising_product_check,
    vandermonde_check,
)
from .report import IdentityReport, report_equality, report_failures, report_series
from .series import QSeries, format_rational

# Each table entry looks its function up by name when it is called, so a
# wrapper bound over the module attribute (as a tracer binds one) is reached.

# suite name -> (runner(n, order) returning reports, least --n)
SUITES = {
    "props31": (lambda n, order: _suite_props31(n, order), 1),
    "props32": (lambda n, order: _suite_props32(n, order), 1),
    "regularize": (lambda n, order: _suite_regularize(n, order), 1),
    "residues": (lambda n, order: _suite_residues(n, order), 1),
    "appendixA": (lambda n, order: _suite_appendix_a(order), 1),
    "appendixB": (lambda n, order: _suite_appendix_b(order), 1),
    "theorem3": (lambda n, order: _suite_theorem3(n, order), 2),
    "special": (lambda n, order: _suite_special(order), 1),
}

# dump name -> renderer(spec) returning the output lines
DUMPABLE = {
    "I": lambda spec: _q_lines(hyper.diagonal_series(spec, 0), 0, spec.qorder),
    "mirror": lambda spec: _q_lines(hyper.mirror_shift(spec), 1, spec.qorder),
    "mu": lambda spec: _q_lines(hyper.regularizing_exponent(spec), 1, spec.qorder),
    "F": lambda spec: _kernel_lines(hyper.kernel(spec), spec.qorder),
    "Q": lambda spec: [
        f"q^{d}: {RatFunc(num, den).to_str()}"
        for d, (num, den) in enumerate(hyper.regular_kernel(spec))
    ],
    "theorem2_rhs": lambda spec: _q_lines(
        invariants.reduced_genus1_series(spec), 0, spec.qorder
    ),
}

RESIDUE_SAMPLES = 200
RESIDUE_SEED = 20080915


def _parser():
    parser = argparse.ArgumentParser(
        prog="hypergw",
        description="Exact genus-0/1 Gromov-Witten invariants of Calabi-Yau "
        "hypersurfaces and their identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=5, help="hypersurface degree (>= 1)")
    common.add_argument("--order", type=int, default=6, help="q-truncation (>= 1)")
    common.add_argument("--output", default=None, help="output path (default stdout)")

    p_inv = sub.add_parser("invariants", parents=[common], help="emit the invariant table")
    p_inv.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_ver = sub.add_parser("verify", parents=[common], help="run identity suites")
    p_ver.add_argument(
        "--suite",
        default=",".join(SUITES),
        help="comma-separated subset of: " + ", ".join(SUITES),
    )
    p_ver.add_argument("--format", choices=("json", "text"), default="text")

    p_dump = sub.add_parser("dump", parents=[common], help="print one series")
    p_dump.add_argument("--what", required=True, help="one of: " + ", ".join(DUMPABLE))
    return parser


# -- suites -----------------------------------------------------------------


def _suite_props31(n, order):
    spec = HyperSpec(n, order)
    return [
        hyper.diagonal_identities(spec),
        hyper.tower_structure_check(spec),
    ]


def _suite_props32(n, order):
    spec = HyperSpec(n, order)
    return [
        hyper.exponent_methods_check(spec),
        hyper.regular_kernel_checks(spec),
    ]


def _u_times_h_power(p, order):
    """The series u * h^p."""
    return USeriesRF.from_quotients([(0, [], [1]), (p, [1], [1])], order)


def _constructed_regularizable(order):
    """exp(3u/(2h)) (1 + u h) - 1: regularizable by construction."""
    growth = QSeries.monomial(1, order, Fraction(3, 2))
    return exp_over_hbar(growth, 1) * (_u_times_h_power(1, order) + 1) - 1


def _suite_regularize(n, order):
    reports = []
    reg = regularize(_constructed_regularizable(order))
    for a in range(5):
        reports.append(moment_identity_check(reg, a, "intrinsic"))
    for a in range(4):
        reports.append(moment_identity_check(reg, a, "regularized"))
    for a in range(-3, 4):
        reports.append(moment_closed_form_check(reg, a))

    # below u^2 every series is regularizable, so u/h is checked at order >= 2
    bad_order = max(order, 2)
    bad = regularize(_u_times_h_power(-1, bad_order))
    bad_fails = any(
        not moment_identity_check(bad, a, "intrinsic").passed for a in range(5)
    )
    reports.append(
        IdentityReport(
            "counterexample-detected",
            {"series": "u/h"},
            bad_order,
            passed=bad_fails,
            first_failure=None if bad_fails else "criterion did not fail",
        )
    )

    spec = HyperSpec(n, order)
    bridge = invariants.bridge_series(spec)
    reg = regularize(bridge)
    mu = hyper.regularizing_exponent(spec)
    reports.append(report_series("bridge-exponent-is-mu", {"n": n}, reg.eta, mu, order))
    for a in range(3):
        rep = moment_identity_check(reg, a, "intrinsic")
        rep.parameters["series"] = "bridge"
        reports.append(rep)
        rep = moment_identity_check(reg, a, "regularized")
        rep.parameters["series"] = "bridge"
        reports.append(rep)
    return reports


def _random_ratfunc(rng):
    """Rational function with a few small rational poles, and those poles.

    A pole that cancels against the numerator is still listed; its residue is 0.
    """
    den = [1]
    poles = set()
    for _ in range(rng.randint(1, 3)):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        poles.add(a)
        for _ in range(rng.randint(1, 2)):
            den = P._mul_ints(den, [-a.numerator, a.denominator])
    num = [rng.randint(-6, 6) for _ in range(rng.randint(1, len(den)))]
    # the denominator is the monic prod (h - a) times its leading coefficient
    return RatFunc([c * den[-1] for c in num], den), poles


def _random_factors(rng):
    """Up to five functions with at most a simple pole at 0."""
    fs = []
    for _ in range(rng.randint(0, 5)):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        den = [0, 1] if rng.random() < 0.7 else [1]
        c = rng.randint(-3, 3)  # the function num / den + c
        fs.append(RatFunc([x + c * y for x, y in zip_longest(num, den, fillvalue=0)], den))
    return fs


def _suite_residues(n, order):
    import random

    rng = random.Random(RESIDUE_SEED)

    def sum_failures():
        for trial in range(RESIDUE_SAMPLES):
            f, poles = _random_ratfunc(rng)
            finite = sum((residue_at(f, a) for a in poles), Fraction(0))
            total = finite + residue_at_infinity(f)
            if total != 0:
                yield f"trial {trial}: total residue {total}"

    def product_failures():
        for trial in range(RESIDUE_SAMPLES):
            sub = residue_of_product_check(_random_factors(rng))
            if not sub.passed:
                yield f"trial {trial}: {sub.first_failure}"

    # the product trials draw from the rng after the sum trials stop
    return [
        report_failures(
            "residue-sum-zero", {"samples": RESIDUE_SAMPLES}, sum_failures(), RESIDUE_SAMPLES
        ),
        report_failures(
            "product-residue-random",
            {"samples": RESIDUE_SAMPLES},
            product_failures(),
            RESIDUE_SAMPLES,
        ),
    ]


def _suite_appendix_a(order):
    bound = min(order, 8)
    top = range(bound + 1)
    vandermonde = _vandermonde_failures(bound)
    reciprocal = (reciprocal_sum_check(q, a) for q in top for a in range(1, bound + 1))
    rising = (rising_product_check(q, a, s) for q in top for a in top for s in top)
    return [
        report_failures(
            identity, {"bound": bound}, (c.describe() for c in subs if not c.passed), bound
        )
        for identity, subs in (
            ("binomial-vandermonde-exhaustive", vandermonde),
            ("alternating-reciprocal-exhaustive", reciprocal),
            ("alternating-rising-exhaustive", rising),
        )
    ]


def _vandermonde_failures(bound):
    """vandermonde_check(b, qs) for each failing b <= bound and tuple qs of
    length <= 4 over 0..5: sums compared at once, a report only on failure."""
    rows = [[comb(total, b) for b in range(bound + 1)] for total in range(4 * 5 + 1)]
    for length in range(5):
        for qs in _tuples(length, 5):
            sums = list(residues._split_sums(qs)[: bound + 1])
            sums += [0] * (bound + 1 - len(sums))
            row = rows[sum(qs)]
            if sums != row:
                yield from (vandermonde_check(b, qs) for b, x in enumerate(sums) if x != row[b])


def _tuples(length, top):
    """The tuples of `length` entries in 0..top, the first varying fastest."""
    return (p[::-1] for p in product(range(top + 1), repeat=length))


def _suite_appendix_b(order):
    _, rep = invariants.quintic_genus0(order)
    table = invariants.assemble_table(5, order)
    n0 = {d: v for d, v in enumerate(table.column("n0"), start=1)}
    n1 = {d: v for d, v in enumerate(table.column("n1"), start=1)}
    pairs = []
    for d in range(1, order + 1):
        row = table.rows[d - 1]
        pairs.append((f"genus-0 d={d}", invariants.genus0_cover_sum(n0, d), row.N0))
        pairs.append((f"genus-1 d={d}", invariants.genus1_cover_sum(n1, n0, d), row.N1))
    round_trip = report_equality(
        "instanton-round-trips", {"n": 5, "order": order}, pairs, order
    )
    return [rep, round_trip]


def _suite_theorem3(n, order):
    spec = HyperSpec(n, order)
    return [invariants.locus_split_check(spec), hyper.ladder_identities(spec)]


def _suite_special(order):
    return [invariants.low_dimension_checks(order)]


def run_suites(names, n, order):
    return [rep for name in names for rep in SUITES[name][0](n, order)]


# -- dumps -------------------------------------------------------------------


def _q_lines(series, start, order):
    x, den = series.ints, series.den
    return [f"q^{d}: {format_rational(x[d], den)}" for d in range(start, order + 1)]


def _kernel_lines(f, order):
    return [f"w^{j} {line}" for j, row in enumerate(f.coeffs) for line in _q_lines(row, 0, order)]


def render_dump(what, n, order):
    return "\n".join(DUMPABLE[what](HyperSpec(n, order))) + "\n"


# -- entry point --------------------------------------------------------------


def _write(parser, text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.exit(2, parser.format_usage() + f"error: cannot write {path}: {exc.strerror}\n")


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.n < 1 or args.order < 1:
        parser.exit(2, parser.format_usage() + "error: --n and --order must be >= 1\n")

    try:
        if args.command == "invariants":
            table = invariants.assemble_table(args.n, args.order)
            if args.format == "json":
                text = json.dumps(table.to_json_obj(), indent=2) + "\n"
            elif args.format == "csv":
                text = table.to_csv_text()
            else:
                text = table.to_text()
            _write(parser, text, args.output)
            return 0

        if args.command == "verify":
            names = [s for s in args.suite.split(",") if s]
            if not names:
                parser.exit(2, parser.format_usage() + "error: --suite names no suite\n")
            unknown = [s for s in names if s not in SUITES]
            if unknown:
                parser.exit(
                    2,
                    parser.format_usage()
                    + f"error: unknown suite name(s): {', '.join(unknown)}\n",
                )
            for name in names:
                least = SUITES[name][1]
                if args.n < least:
                    parser.exit(
                        2,
                        parser.format_usage() + f"error: suite {name} needs --n >= {least}\n",
                    )
            reports = run_suites(names, args.n, args.order)
            if args.format == "json":
                text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
            else:
                text = "\n".join(r.describe() for r in reports) + "\n"
            _write(parser, text, args.output)
            return 0 if all(r.passed for r in reports) else 1

        if args.command == "dump":
            if args.what not in DUMPABLE:
                parser.exit(
                    2,
                    parser.format_usage() + f"error: unknown series name {args.what!r}\n",
                )
            _write(parser, render_dump(args.what, args.n, args.order), args.output)
            return 0
    except HypergwError as exc:
        sys.stderr.write(f"identity violation: {type(exc).__name__}: {exc}\n")
        return 1
    parser.exit(2, parser.format_usage())


if __name__ == "__main__":
    sys.exit(main())
