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
from itertools import zip_longest

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
# int, str or a tuple of choices.  The parser, the usage lines, the -h text
# and the error messages all read this one table.
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
    """Up to five functions with at most a simple pole at 0, which h, the
    one factor numerator and denominator can share, is divided out of."""
    fs = []
    for _ in range(rng.randint(0, 5)):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        den = [0, 1] if rng.random() * 10 < 7 else [1]
        c = rng.randint(-3, 3)  # the function num / den + c
        num = [x + c * y for x, y in zip_longest(num, den, fillvalue=0)]
        fs.append(RatFunc.from_coprime(*P._cancel_factors(num, den, [(0, 1)])))
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
# The grammar of the COMMANDS table, read straight from it, so that a
# short job pays next to nothing for parsing: `--opt value` and
# `--opt=value`, a unique prefix of a long option, the last value of a
# repeated option wins, and -h is honoured anywhere before the first error.
# The top level takes -h and the command; tokens the command does not take
# are reported after the command has parsed, under the top-level usage.

_HELP = ("-h", "--help")


def _prog(command):
    return PROG if command is None else f"{PROG} {command}"


def _invocation(name, kind):
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()
    return f"--{name} {metavar}"


def _wrap(text, width):
    """Greedy word wrap."""
    lines = []
    for word in text.split():
        if lines and len(lines[-1]) + 1 + len(word) <= width:
            lines[-1] += " " + word
        else:
            lines.append(word)
    return lines


def _usage(command):
    """The usage line of the top level (command None) or of a command,
    wrapped under the first option when it is too long."""
    if command is None:
        parts = ["[-h]", "{" + ",".join(COMMANDS) + "}", "..."]
    else:
        parts = ["[-h]"]
        for name, (kind, _, required, _) in COMMANDS[command][1].items():
            text = _invocation(name, kind)
            parts += text.split() if required else [f"[{text}]"]
    lines = ["usage: " + _prog(command)]
    indent = " " * (len(lines[0]) + 1)
    for part in parts:
        if len(lines[-1]) + 1 + len(part) <= HELP_WIDTH:
            lines[-1] += " " + part
        else:
            lines.append(indent + part)
    return "\n".join(lines) + "\n"


def _help(command):
    """The -h text of the top level or of a command."""
    options = [(2, "-h, --help", "show this help message and exit")]
    if command is None:
        names = [(2, "{" + ",".join(COMMANDS) + "}", None)]
        names += [(4, name, text) for name, (text, _) in COMMANDS.items()]
        sections = [("positional arguments", names), ("options", options)]
        blocks = [_usage(None), "\n".join(_wrap(DESCRIPTION, HELP_WIDTH))]
    else:
        options += [
            (2, _invocation(name, kind), text)
            for name, (kind, _, _, text) in COMMANDS[command][1].items()
        ]
        sections = [("options", options)]
        blocks = [_usage(command)]
    # help text starts two columns after the widest entry, at most column 24
    column = min(24, 2 + max(i + len(entry) for _, rows in sections for i, entry, _ in rows))
    for heading, rows in sections:
        lines = [heading + ":"]
        for indent, entry, text in rows:
            head = " " * indent + entry
            wrapped = _wrap(text, max(HELP_WIDTH - column, 11)) if text else []
            if wrapped and len(head) + 2 <= column:
                head = head.ljust(column) + wrapped.pop(0)
            lines += [head] + [" " * column + line for line in wrapped]
        blocks.append("\n".join(lines))
    return "\n\n".join(block.rstrip("\n") for block in blocks) + "\n"


def _error(command, message):
    """A parse error: the usage of the top level or of `command`, exit 2."""
    sys.stderr.write(_usage(command) + f"{_prog(command)}: error: {message}\n")
    raise SystemExit(2)


def _refuse(message):
    """An input the parser took but the program cannot run: exit 2."""
    sys.stderr.write(_usage(None) + f"error: {message}\n")
    raise SystemExit(2)


def _negative_number(token):
    """Whether a token starting with '-' is a negative number, and so an
    argument: '-' and digits, or '-', optional digits, '.' and digits, with
    one final newline allowed."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (not whole or whole.isdecimal())


def _classify(token, options, command):
    """How one token reads: None for an argument, else the pair
    (option string, or None for an option not in `options`; value after '='
    or attached to -h, else None)."""
    if not token.startswith("-"):
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        found = [(o, value if eq else None) for o in options if o.startswith(name)]
    else:  # -h is the one short option; -hVALUE carries VALUE
        found = [(o, token[2:]) for o in options if o == token[:2]]
    if len(found) > 1:
        matches = ", ".join(o for o, _ in found)
        _error(command, f"ambiguous option: {token} could match {matches}")
    if found:
        return found[0]
    if _negative_number(token) or " " in token:
        return None
    return None, None


def _help_exit(command, option, value):
    """-h: print the help, exit 0.  -hh is -h twice; any other value given
    to -h or --help is an error."""
    while value is not None:
        if option == "--help" or value[:1] != "h":
            _error(command, f"argument -h/--help: ignored explicit argument {value!r}")
        value = value[1:] or None
    _stdout(_help(command))
    raise SystemExit(0)


def _convert(command, option, kind, value):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _error(command, f"argument {option}: invalid int value: {value!r}")
    if isinstance(kind, tuple) and value not in kind:
        choices = ", ".join(map(repr, kind))
        _error(
            command, f"argument {option}: invalid choice: {value!r} (choose from {choices})"
        )
    return value


def _parse_command(command, argv):
    """The option values of `command` read from argv, and the tokens it
    does not take."""
    table = COMMANDS[command][1]
    options = _HELP + tuple("--" + name for name in table)
    kinds = []
    for i, token in enumerate(argv):
        if token == "--":  # takes no value; every token after it is an argument
            kinds += [(None, None)] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_classify(token, options, command))
    values = {name: spec[1] for name, spec in table.items()}
    seen, unknown = set(), []
    i = 0
    while i < len(argv):
        kind = kinds[i]
        if kind is None or kind[0] is None:
            unknown.append(argv[i])
        elif kind[0] in _HELP:
            _help_exit(command, *kind)
        else:
            option, value = kind
            if value is None:
                if i + 1 == len(argv) or kinds[i + 1] is not None:
                    _error(command, f"argument {option}: expected one argument")
                i += 1
                value = argv[i]
            name = option[2:]
            values[name] = _convert(command, option, table[name][0], value)
            seen.add(name)
        i += 1
    missing = [f"--{name}" for name, spec in table.items() if spec[2] and name not in seen]
    if missing:
        _error(command, "the following arguments are required: " + ", ".join(missing))
    return values, unknown


def _parse_args(argv):
    """{"command": ..., option name: value, ...} from argv (sys.argv[1:]
    when None); exits 0 after -h and 2 on an error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    unknown = []
    for i, token in enumerate(argv):
        kind = None if token == "--" else _classify(token, _HELP, None)
        if kind is None:
            break
        if kind[0] is None:
            unknown.append(token)
        else:
            _help_exit(None, *kind)
    else:
        i = len(argv)
    # the command is the first argument; a "--" before it is taken as the
    # command, provided some token follows it
    if argv[i:] in ([], ["--"]):
        _error(None, "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    values, rest = _parse_command(command, argv[i + 1 :])
    if unknown + rest:
        _error(None, "unrecognized arguments: " + " ".join(unknown + rest))
    return {"command": command, **values}


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
