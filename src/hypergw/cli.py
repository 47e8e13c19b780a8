"""Command-line front end: invariant tables, verification suites, series dumps.

Output is deterministic and exact; rationals are printed as "p/q" and
never decimalized in machine formats.  Exit codes: 0 on success, 1 when
a verified identity fails (the suite is the acceptance harness), 2 on
bad arguments, 141 when the reader of standard output has gone.
"""

import json
import os
import sys
from fractions import Fraction

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
    moment_regularized_check,
    regularize,
    residue_at,
    residue_at_infinity,
    residue_of_product_check,
)
from .report import IdentityReport, first_failure, series_failure
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
    "F": lambda spec: _kernel_lines(hyper._kernel_rows(spec, spec.n + 3), spec.qorder),
    "Q": lambda spec: [
        f"q^{d}: {RatFunc.from_coprime(num, den).to_str()}"
        for d, (num, den) in enumerate(hyper.regular_kernel(spec))
    ],
    "theorem2_rhs": lambda spec: _q_lines(
        invariants.reduced_genus1_series(spec), 0, spec.qorder
    ),
}

RESIDUE_SAMPLES = 200
RESIDUE_SEED = 20080915

# command -> (help, {option: (kind, default, required, help)}), kind being
# int, str or a tuple of choices.  Both readers of the command line, _plain
# and the argparse parser of _parser, are built from this one table.
_COMMON = {
    "n": (int, 5, False, "hypersurface degree (>= 1)"),
    "order": (int, 6, False, "q-truncation (>= 1)"),
    "output": (str, None, False, "output path (default stdout)"),
}
COMMANDS = {
    "invariants": (
        "emit the invariant table",
        {**_COMMON, "format": (("json", "csv", "text"), "text", False, None)},
    ),
    "verify": (
        "run identity suites",
        {
            **_COMMON,
            "suite": (
                str, ",".join(SUITES), False, "comma-separated subset of: " + ", ".join(SUITES)
            ),
            "format": (("json", "text"), "text", False, None),
        },
    ),
    "dump": (
        "print one series",
        {**_COMMON, "what": (str, None, True, "one of: " + ", ".join(DUMPABLE))},
    ),
}
PROG = "hypergw"
DESCRIPTION = (
    "Exact genus-0/1 Gromov-Witten invariants of Calabi-Yau hypersurfaces "
    "and their identity suites."
)
HELP_WIDTH = 78  # usage and help laid out for an 80-column terminal


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
    return exp_over_hbar(growth) * (_u_times_h_power(1, order) + 1) - 1


def _suite_regularize(n, order):
    def moment_reports(reg, rows, **params):
        return [
            IdentityReport(name, {"a": a, **params}, order, check(reg, a))
            for name, check, a in rows
        ]

    intrinsic = ("moment-intrinsic", moment_identity_check)
    regularized = ("moment-regularized", moment_regularized_check)
    rows = [(*intrinsic, a) for a in range(5)] + [(*regularized, a) for a in range(4)]
    rows += [("moment-closed-form", moment_closed_form_check, a) for a in range(-3, 4)]
    reports = moment_reports(regularize(_constructed_regularizable(order)), rows)

    # below u^2 every series is regularizable, so u/h is checked at order >= 2
    bad_order = max(order, 2)
    bad = regularize(_u_times_h_power(-1, bad_order))
    detected = any(moment_identity_check(bad, a) is not None for a in range(5))
    text = None if detected else "criterion did not fail"
    reports.append(IdentityReport("counterexample-detected", {"series": "u/h"}, bad_order, text))

    spec = HyperSpec(n, order)
    reg = regularize(invariants.bridge_series(spec))
    text = series_failure(reg.eta, hyper.regularizing_exponent(spec), order)
    reports.append(IdentityReport("bridge-exponent-is-mu", {"n": n}, order, text))
    rows = [(*pair, a) for a in range(3) for pair in (intrinsic, regularized)]
    return reports + moment_reports(reg, rows, series="bridge")


def _random_ratfunc(rng):
    """Rational function with a few small rational poles, and those poles.

    A pole that cancels against the numerator is still listed; its residue
    is 0.  The factors t h - s of the poles s/t, the only ones numerator
    and denominator can share, are divided out.
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
    factors = [(-a.numerator, a.denominator) for a in poles]
    num, den = P._cancel_factors([c * den[-1] for c in num], den, factors)
    return RatFunc.from_coprime(num, den), poles


def _random_factors(rng):
    """Up to five functions f = num / h + c or num + c, each as the integer
    list of h f."""
    rows = []
    for _ in range(rng.randint(0, 5)):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        # h f = num + c h for f = num / h + c, else h num + c h
        row = num + [0] if rng.random() * 10 < 7 else [0] + num
        row[1] += rng.randint(-3, 3)
        rows.append(row)
    return rows


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
            text = residue_of_product_check(_random_factors(rng))
            if text is not None:
                yield f"trial {trial}: {text}"

    # the product trials draw from the rng after the sum trials stop
    return [
        IdentityReport(name, {"samples": RESIDUE_SAMPLES}, RESIDUE_SAMPLES, first_failure(cases))
        for name, cases in (
            ("residue-sum-zero", sum_failures()),
            ("product-residue-random", product_failures()),
        )
    ]


def _suite_appendix_a(order):
    bound = min(order, 8)
    return [
        IdentityReport(identity, {"bound": bound}, bound, first_failure(cases(bound)))
        for identity, cases in (
            ("binomial-vandermonde-exhaustive", residues.vandermonde_failures),
            ("alternating-reciprocal-exhaustive", residues.reciprocal_failures),
            ("alternating-rising-exhaustive", residues.rising_failures),
        )
    ]


def _suite_appendix_b(order):
    # assemble_table checks both multiple-cover round trips in
    # instanton_inversion, which raises RoutesDisagree on a mismatch
    table = invariants.assemble_table(5, order)
    round_trip = IdentityReport("instanton-round-trips", {"n": 5, "order": order}, order)
    return [table.blocks, round_trip]


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


# -- command line -------------------------------------------------------------
#
# Two readers of the COMMANDS table.  _plain takes the line every job gives,
# a command and then exact `--opt value` or `--opt=value` pairs, which
# argparse would read the same way.  Every other line (-h, option prefixes,
# "--", negative values, every error) goes to argparse, imported only then:
# with the gettext and locale it loads, it is a large share of a short job.


def _plain(argv):
    """The fields of a plain command line: a command, then exact `--opt
    value` or `--opt=value` pairs whose values convert, a spaced value not
    starting with '-', and every required option given.  None for any
    other line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    table = COMMANDS[argv[0]][1]
    fields = {name: spec[1] for name, spec in table.items()}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        name = option[2:]
        if option[:2] != "--" or name not in table:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        kind = table[name][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        fields[name] = value
        given.add(name)
    if any(spec[2] and name not in given for name, spec in table.items()):
        return None
    return {"command": argv[0], **fields}


def _parser():
    """The argparse parser of the COMMANDS table, with three deviations:
    help is laid out at HELP_WIDTH whatever COLUMNS says, `--opt=--` is
    read as the string "--" (argparse drops it and stores an empty list),
    and text for stdout goes through _stdout, so that help to a closed
    pipe exits 141."""
    import argparse
    from functools import partial

    class Parser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            # an option's one value is "--" only when given as `--opt=--`
            if action.option_strings and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

        def _print_message(self, message, file=None):
            if file is sys.stdout:
                _stdout(message)
            else:
                super()._print_message(message, file)

    formatter = partial(argparse.HelpFormatter, width=HELP_WIDTH)
    parser = Parser(prog=PROG, description=DESCRIPTION, formatter_class=formatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        sub = commands.add_parser(command, help=text, formatter_class=formatter)
        for name, (kind, default, required, about) in options.items():
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument(f"--{name}", default=default, required=required, help=about, **typed)
    return parser


def _refuse(message):
    """An input the parser took but the program cannot run: exit 2."""
    sys.stderr.write(_parser().format_usage() + f"error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv):
    """{"command": ..., option name: value, ...} from argv (sys.argv[1:]
    when None); exits 0 after -h and 2 on an error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _plain(argv) or vars(_parser().parse_args(argv))


# -- entry point --------------------------------------------------------------


def _stdout(text):
    """Write to standard output.  If its reader has gone (`| head`), exit
    141, the shell's code for a SIGPIPE death, with no traceback."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141) from None


def _write(text, path):
    if path is None:
        _stdout(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _refuse(f"cannot write {path}: {exc.strerror}")


def main(argv=None):
    args = _parse_args(argv)
    n, order = args["n"], args["order"]
    if n < 1 or order < 1:
        _refuse("--n and --order must be >= 1")

    try:
        if args["command"] == "invariants":
            table = invariants.assemble_table(n, order)
            if args["format"] == "json":
                text = json.dumps(table.to_json_obj(), indent=2) + "\n"
            elif args["format"] == "csv":
                text = table.to_csv_text()
            else:
                text = table.to_text()
            _write(text, args["output"])
            return 0

        if args["command"] == "verify":
            names = [s for s in args["suite"].split(",") if s]
            if not names:
                _refuse("--suite names no suite")
            unknown = [s for s in names if s not in SUITES]
            if unknown:
                _refuse(f"unknown suite name(s): {', '.join(unknown)}")
            for name in names:
                least = SUITES[name][1]
                if n < least:
                    _refuse(f"suite {name} needs --n >= {least}")
            reports = run_suites(names, n, order)
            if args["format"] == "json":
                text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
            else:
                text = "\n".join(r.describe() for r in reports) + "\n"
            _write(text, args["output"])
            return 0 if all(r.passed for r in reports) else 1

        what = args["what"]
        if what not in DUMPABLE:
            _refuse(f"unknown series name {what!r}")
        _write(render_dump(what, n, order), args["output"])
        return 0
    except HypergwError as exc:
        sys.stderr.write(f"identity violation: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
