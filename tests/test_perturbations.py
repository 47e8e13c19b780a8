"""Every reshaped identity can fail, and says where.

Each entry perturbs the route behind one side of one identity, after the
suite has run once unperturbed, so every cached stage is already built: only
the checks that read the patched name see the change.  The perturbation adds
C q^K (C t q^K for a t-polynomial), or for the diagonals multiplies them by
powers of 1 + C q^K chosen to keep the earlier parts of the merged report
true.  An entry may instead perturb a kernel that several identities read,
and then names each of them.  Exactly the named reports, each keyed by
identity and parameters, must then fail, each failure text must name the
first differing coefficient, and every other report of the suite must
still pass.

The mirror blocks are perturbed on their weighted-sum side (`_block_sums`)
and through the mirror shift: the J-polynomials also build the genus-0
series, whose t-freeness is a hard error, so no one-sided change of them
reaches the blocks.

A report whose identity is checked inside a stage that raises on a mismatch
cannot print FAIL; its entry in RAISING names the error the suite raises
instead.  Every identity that `verify` prints has an entry in one table.
"""

import json
from fractions import Fraction as Fr
from functools import cached_property

import pytest

from hypergw import cli, hyper, invariants, polys, report, residues
from hypergw.errors import RoutesDisagree, WindowTooSmall
from hypergw.hyper import HyperSpec
from hypergw.residues import USeriesRF, exp_over_hbar
from hypergw.series import QSeries, TPoly, WSeries

C, K = Fr(3, 7), 3
N, ORDER = 5, 6


def bump(series):
    """series + C q^K."""
    return series + QSeries.monomial(K, series.truncation, C)


def t_bump(poly):
    """poly + C t q^K."""
    d = poly.truncation
    return poly + TPoly([QSeries.zero(d), QSeries.monomial(K, d, C)])


def t0_bump(poly):
    """poly + C q^K."""
    return poly + TPoly.from_qseries(QSeries.monomial(K, poly.truncation, C))


def wrap(owner, name, change, when=None):
    """A patch: owner.name passes its result through change, for the calls
    whose arguments satisfy when (every call when it is None)."""

    def patch(monkeypatch):
        real = getattr(owner, name)

        def patched(*args):
            out = real(*args)
            return change(out) if when is None or when(*args) else out

        monkeypatch.setattr(owner, name, patched)

    return patch


def cached(name, change):
    """A patch: the cached property Regularization.name passes its value
    through change."""

    def patch(monkeypatch):
        real = residues.Regularization.__dict__[name].func
        prop = cached_property(lambda reg: change(real(reg)))
        prop.__set_name__(residues.Regularization, name)
        monkeypatch.setattr(residues.Regularization, name, prop)

    return patch


class BumpedWindow:
    """A moment window whose every Taylor coefficient is moved by C u^K."""

    def __init__(self, window):
        self.window = window

    def taylor_coeff(self, q):
        return bump(self.window.taylor_coeff(q))


def top_row_bumped(logw):
    """The kernel log with its last kept row, w^(n-2), moved by C q^K."""
    return WSeries(logw.coeffs[:-1] + (bump(logw.coeffs[-1]),))


def grown(z):
    """(1 + z) exp(C q^K / h) - 1: regularizable exactly when z is, with its
    exponent moved by C q^K and its regular part kept."""
    return exp_over_hbar(QSeries.monomial(K, z.truncation, C)) * (z + 1) - 1


def moved_moments(reg):
    """reg with its stored moments moved by C u^K after its moment windows
    were built from the true ones, so that only the closed form reads the
    moved ones."""
    reg.moment_windows
    reg.moments = [bump(c) for c in reg.moments]
    return reg


def diagonal_powers(exponents):
    """Multiply diagonal p of the quintic by (1 + C q^K)^exponents[p]."""

    def patch(monkeypatch):
        real = hyper.diagonal_series

        def patched(spec, p):
            power = exponents.get(p, 0) if spec.n == N else 0
            return real(spec, p) * bump(QSeries.one(spec.qorder)).power(power)

        monkeypatch.setattr(hyper, "diagonal_series", patched)

    return patch


def boundary_part(key):
    """Perturb one residue part of the boundary locus, or the total."""

    def change(result):
        total, parts = result
        if key == "total":
            return bump(total), parts
        return total, {**parts, key: bump(parts[key])}

    return wrap(invariants, "boundary_locus_by_residues", change)


def numerator_only_cancelled(monkeypatch):
    """A patch: polys._cancel_factors divides the known factors out of the
    numerator and leaves the denominator as it came."""
    real = polys._cancel_factors
    monkeypatch.setattr(
        polys, "_cancel_factors", lambda num, den, factors: (real(num, den, factors)[0], den)
    )


def last_numerator_bumped(pair):
    """(ints, den) of a quotient head with its last numerator moved by 1."""
    ints, den = pair
    return (ints[:-1] + [ints[-1] + 1] if ints else ints), den


def key(parameters):
    return tuple(sorted(parameters.items()))


def moment_reports(label, plain, bridge=()):
    """{parameters: label} for the regularize suite's moment reports at a in
    plain, and on the bridge series at a in bridge."""
    params = [{"a": a} for a in plain] + [{"a": a, "series": "bridge"} for a in bridge]
    return {key(p): label for p in params}


def suite(name):
    return lambda: cli.run_suites([name], N, ORDER)


def blocks():
    return [invariants.quintic_genus0(ORDER)[1]]


# (id, runner, failing identity, start of its failure text, patch); for an
# identity printed more than once, {parameters: start of the failure text}
# of exactly the reports that fail; for a patch that fails several
# identities, the tuple of them and the tuple of their texts
ENTRIES = [
    # diagonal identities: each part, the earlier parts kept true
    ("diagonal-product", suite("props31"), "diagonal-identities",
     "diagonal-product: q^3", wrap(hyper, "one_minus_nn_q", bump)),
    # prod (1 + e)^a_p = 1, prod (1 + e)^((n-1-p) a_p) != 1
    ("diagonal-weighted", suite("props31"), "diagonal-identities",
     "diagonal-weighted-product: q^3", diagonal_powers({0: 1, 1: -1})),
    # both products kept, diagonal 0 moved off diagonal 4
    ("diagonal-symmetry", suite("props31"), "diagonal-identities",
     "diagonal-symmetry: p=0 q^3", diagonal_powers({0: 1, 1: -2, 2: 1})),
    # the reduced (1,2) coefficient read from k = 3, and from k = 2
    ("tower-consistent-k3", suite("props31"), "tower-structure",
     "reduced (1,2) consistent q^3",
     wrap(hyper, "i_series", t_bump, lambda spec, p, k: (p, k) == (1, 3))),
    ("tower-consistent-k2", suite("props31"), "tower-structure",
     "reduced (1,2) consistent q^3",
     wrap(hyper, "i_series", t0_bump, lambda spec, p, k: (p, k) == (1, 2))),
    # the regularizing exponent: closed form against the residue route
    ("exponent-closed-form", suite("props32"), "exponent-methods-agree", "q^3",
     wrap(hyper, "regularizing_exponent", bump)),
    ("exponent-residue", suite("props32"), "exponent-methods-agree", "q^3",
     wrap(hyper, "exponent_by_residue", bump)),
    # regular kernel: the window side and the closed side of value and slope
    ("regular-value-window", suite("props32"), "regular-kernel",
     "regular-kernel-value: q^3",
     wrap(USeriesRF, "taylor_coeff", bump, lambda window, q: q == 0)),
    ("regular-value-closed", suite("props32"), "regular-kernel",
     "regular-kernel-value: q^3", wrap(hyper, "kernel_value_at_zero", bump)),
    ("regular-slope-window", suite("props32"), "regular-kernel",
     "regular-kernel-slope: q^3",
     wrap(USeriesRF, "taylor_coeff", bump, lambda window, q: q == 1)),
    ("regular-slope-closed", suite("props32"), "regular-kernel",
     "regular-kernel-slope: q^3", wrap(hyper, "kernel_slope_at_zero", bump)),
    # regularization: each side of each identity, the counterexample, the bridge
    ("moment-intrinsic-window", suite("regularize"), "moment-intrinsic",
     moment_reports("u^3", range(5), range(3)),
     cached("moment_windows", lambda windows: (BumpedWindow(windows[0]), windows[1]))),
    ("moment-intrinsic-residue", suite("regularize"), "moment-intrinsic",
     moment_reports("u^3", [4]),
     wrap(USeriesRF, "weighted_residues", bump, lambda z, p: p == 5)),
    ("moment-regularized-window", suite("regularize"), "moment-regularized",
     moment_reports("u^3", range(4), range(3)),
     cached("moment_windows", lambda windows: (windows[0], BumpedWindow(windows[1])))),
    ("moment-regularized-closed", suite("regularize"), "moment-regularized",
     moment_reports("u^3", [3]),
     wrap(QSeries, "__pow__", bump, lambda eta, a: a == 3)),
    ("moment-closed-form-moments", suite("regularize"), "moment-closed-form",
     moment_reports("u^3", range(-3, 1)),
     wrap(cli, "regularize", moved_moments)),
    # at a = -2 and -1 the first coefficient moved is u^4; a = -3 is untouched
    ("moment-closed-form-closed", suite("regularize"), "moment-closed-form",
     {**moment_reports("u^4", range(-2, 0)), **moment_reports("u^3", range(4))},
     cached("eta_powers", lambda powers: [bump(p) for p in powers])),
    ("counterexample", suite("regularize"), "counterexample-detected",
     "criterion did not fail",
     wrap(cli, "moment_identity_check", lambda text: None, lambda reg, a: not reg.regular)),
    ("bridge-exponent-eta", suite("regularize"), "bridge-exponent-is-mu", "q^3",
     wrap(invariants, "bridge_series", grown)),
    ("bridge-exponent-mu", suite("regularize"), "bridge-exponent-is-mu", "q^3",
     wrap(hyper, "regularizing_exponent", bump)),
    # ladder: residue side and closed side of both residues, the step, the pair
    ("ladder-first-residue", suite("theorem3"), "ladder-identities",
     "ladder-first-residue: p=2 q^3",
     wrap(hyper, "ladder_residue", bump, lambda spec, p, o: (p, o) == (2, 0))),
    ("ladder-first-closed", suite("theorem3"), "ladder-identities",
     "ladder-first-residue: p=0 q^3", wrap(hyper, "linear_factor", bump)),
    ("ladder-second-residue", suite("theorem3"), "ladder-identities",
     "ladder-second-residue: p=1 q^3",
     wrap(hyper, "ladder_residue", bump, lambda spec, p, o: (p, o) == (1, 1))),
    ("ladder-second-closed", suite("theorem3"), "ladder-identities",
     "ladder-second-residue: p=0 q^3", wrap(hyper, "kernel_slope_at_zero", bump)),
    # the step's side is 1 + the derivative of the mirror shift, which the
    # locus split reads as well, so the derivative is perturbed
    ("ladder-step", suite("theorem3"), "ladder-identities",
     "ladder-step-matches-mirror: q^3",
     wrap(QSeries, "derivative", bump, lambda f: f == hyper.mirror_shift(HyperSpec(N, ORDER)))),
    ("mirror-map-integral", suite("theorem3"), "ladder-identities",
     "mirror-map-integral: degree 3: ", wrap(hyper, "mirror_coordinate", bump)),
    ("ladder-double-residue", suite("theorem3"), "ladder-identities",
     "paired-ladder-double-residue: mid q^3",
     wrap(hyper, "double_residue_split_kernel", bump)),
    # locus split: each part, from each side where the sides are separate routes
    ("locus-effective-half", suite("theorem3"), "locus-split",
     "effective-locus-forms: q^3",
     wrap(invariants, "effective_locus_half_sum", bump)),
    ("locus-boundary-closed", suite("theorem3"), "locus-split",
     "boundary-residue-route: q^3", wrap(invariants, "boundary_locus_series", bump)),
    ("locus-boundary-residues", suite("theorem3"), "locus-split",
     "boundary-residue-route: q^3", boundary_part("total")),
    ("locus-origin", suite("theorem3"), "locus-split",
     "boundary-residue-at-origin: q^3", boundary_part("zero")),
    ("locus-minus-n", suite("theorem3"), "locus-split",
     "boundary-residue-at-minus-n: q^3", boundary_part("minus_n")),
    ("locus-sum", suite("theorem3"), "locus-split",
     "locus-sum-matches-series: q^3",
     wrap(invariants, "reduced_genus1_series", bump, lambda spec: spec.n == N)),
    # low dimensions, nested two deep
    ("cubic-closed-form", suite("special"), "low-dimensions",
     "torus-cover-match: cubic-closed-form: q^3",
     wrap(invariants, "reduced_genus1_series", bump, lambda spec: spec.n == 3)),
    ("cubic-cover-counts", suite("special"), "low-dimensions",
     "torus-cover-match: cubic-cover-counts: Q^3",
     wrap(invariants, "torus_cover_series", bump)),
    ("quartic-gap", suite("special"), "low-dimensions",
     "k3-vanishing: quartic-gap-vanishes: t^1 q^3",
     wrap(invariants, "_j_poly", t_bump, lambda spec, k: (spec.n, k) == (4, 2))),
    ("quartic-gap-derivative", suite("special"), "low-dimensions",
     "k3-vanishing: quartic-gap-derivative: t^0 q^3",
     wrap(hyper, "diagonal_series", bump, lambda spec, p: (spec.n, p) == (4, 2))),
    ("quartic-invariants", suite("special"), "low-dimensions",
     "k3-vanishing: quartic-invariants-vanish: Q^3",
     wrap(invariants, "extract_invariants", lambda vals: vals[:2] + [vals[2] + C] + vals[3:],
          lambda series, spec: spec.n == 4)),
    # the last kept row of the kernel log, w^(n-2): the quartic's genus-1
    # series reads it; locus-split reads it with one weight on both sides of
    # each part (the residue at infinity is _log_tail's sum), so no theorem3
    # report sees it
    ("log-kernel-top-row", suite("special"), "low-dimensions",
     "k3-vanishing: quartic-invariants-vanish: Q^3", wrap(hyper, "log_kernel_w", top_row_bumped)),
    # mirror blocks
    ("block-0", blocks, "mirror-block-reconstruction", "block-0: t^0 q^3",
     wrap(invariants, "_j_poly", t0_bump, lambda spec, k: k == 0)),
    ("block-1", blocks, "mirror-block-reconstruction", "block-1: t^0 q^3",
     wrap(hyper, "mirror_shift", bump)),
    ("block-2", blocks, "mirror-block-reconstruction", "block-2: t^0 q^3",
     wrap(invariants, "_block_sums", lambda sums: (bump(sums[0]), sums[1]))),
    ("block-3", blocks, "mirror-block-reconstruction", "block-3: t^0 q^3",
     wrap(invariants, "_block_sums", lambda sums: (sums[0], bump(sums[1])))),
    # Appendix A: the first failing case of each family; 1 << 21 is slot 1
    # (b = 1) of the 21-bit packing of the Vandermonde left sides
    ("vandermonde", suite("appendixA"), "binomial-vandermonde-exhaustive",
     "binomial-vandermonde [b=1 qs=(2, 1)]: FAIL at value: 4 != 3",
     wrap(residues, "_split_packed", lambda packed: packed + (1 << 21),
          lambda qs, slot: qs in ((2, 1), (1, 2)))),
    # the binomial row of q = 2 under the left sides: (2,) has left the
    # 512-entry cache of packed products by the end of the first run, so it
    # is the first tuple rebuilt from the moved row
    ("packed-row", suite("appendixA"), "binomial-vandermonde-exhaustive",
     "binomial-vandermonde [b=1 qs=(2,)]: FAIL at value: 3 != 2",
     wrap(residues, "_packed_row", lambda row: row + (1 << 21), lambda q, slot: q == 2)),
    ("reciprocal", suite("appendixA"), "alternating-reciprocal-exhaustive",
     "alternating-reciprocal-sum [q=1 a=6]: FAIL at value: ",
     wrap(residues, "factorial", lambda out: out + 1, lambda m: m >= 7)),
    ("rising", suite("appendixA"), "alternating-rising-exhaustive",
     "alternating-rising-product [q=0 a=0 s=0]: FAIL at value: Fraction(2, 1) != Fraction(1, 1)",
     wrap(residues, "prod", lambda out: out + 1)),
    # the common denominator a (a + 1) ... (a + q) of the reciprocal sums:
    # the text shows the values the family's decision compared
    ("perm", suite("appendixA"), "alternating-reciprocal-exhaustive",
     "alternating-reciprocal-sum [q=0 a=2]: FAIL at value: Fraction(1, 3) != Fraction(1, 2)",
     wrap(residues, "perm", lambda out: out + 1)),
    # the random residue trials, from each side
    ("residue-sum-finite", suite("residues"), "residue-sum-zero",
     "trial 0: total residue ", wrap(cli, "residue_at", lambda out: out + C)),
    ("residue-sum-infinity", suite("residues"), "residue-sum-zero",
     "trial 0: total residue ", wrap(cli, "residue_at_infinity", lambda out: out + C)),
    # the global side is one product of the rows h f_i, every entry moved by 1
    ("product-residue-global", suite("residues"), "product-residue-random",
     "trial 0: residue: ", wrap(residues, "reduce", lambda full: [c + 1 for c in full])),
    ("product-residue-subsets", suite("residues"), "product-residue-random",
     "trial 0: residue: ", wrap(residues, "product_subset_sum", lambda out: out + C)),
    # the fraction-free quotient kernel under every residue of the sum
    # trials; the product trials read integer rows and take no quotient
    ("quotient-head", suite("residues"), "residue-sum-zero",
     "trial 2: total residue -409/4050", wrap(polys, "_quotient_head", last_numerator_bumped)),
]

# (id, runner, report, error, start of its message, patch)
RAISING = [
    # assemble_table's instanton inversion checks both round trips
    ("instanton-round-trips", suite("appendixB"), "instanton-round-trips", RoutesDisagree,
     "genus-1 multiple-cover round trip failed",
     wrap(invariants, "genus1_cover_sum", lambda out: out + C)),
    # and, before it, that the quintic's two genus-1 routes agree
    ("log-kernel-top-row-quintic", suite("appendixB"), "instanton-round-trips", RoutesDisagree,
     "genus-1 routes disagree at degree 3", wrap(hyper, "log_kernel_w", top_row_bumped)),
    # the known-factor reduction, one-sidedly: the locus split's boundary
    # weight keeps h twice in its denominator, a pole deeper than its window
    # at 0.  The residue theorem holds for whatever function a sum trial's
    # draw becomes, and the product trials divide nothing, so the residues
    # suite cannot see it.
    ("cancel-numerator-only", suite("theorem3"), "locus-split", WindowTooSmall,
     "pole order 1 exceeds the window depth", numerator_only_cancelled),
]


def expected_failures(reports, target, label):
    """{(identity, parameters key): start of its failure text} for one entry;
    a tuple of identities pairs each with its own label."""
    if isinstance(target, tuple):
        return {
            report_key: start
            for one, text in zip(target, label, strict=True)
            for report_key, start in expected_failures(reports, one, text).items()
        }
    if isinstance(label, str):
        (params,) = [rep.parameters for rep in reports if rep.identity == target]
        label = {key(params): label}
    return {(target, params): start for params, start in label.items()}


@pytest.mark.parametrize(
    "run, target, label, patch", [entry[1:] for entry in ENTRIES], ids=[e[0] for e in ENTRIES]
)
def test_one_sided_perturbation_fails_its_report(
    cold_stages, monkeypatch, run, target, label, patch
):
    reports = run()
    assert all(rep.passed for rep in reports)  # and every cached stage is built
    want = expected_failures(reports, target, label)
    patch(monkeypatch)
    failing = {(rep.identity, key(rep.parameters)): rep.first_failure
               for rep in run() if not rep.passed}
    assert set(failing) == set(want)
    for report_key, start in want.items():
        text = failing[report_key]
        assert text.startswith(start) and "TPoly(" not in text, text


@pytest.mark.parametrize(
    "run, error, message, patch",
    [(run, error, message, patch) for _, run, _, error, message, patch in RAISING],
    ids=[e[0] for e in RAISING],
)
def test_one_sided_perturbation_raises_before_its_report(
    cold_stages, monkeypatch, run, error, message, patch
):
    assert all(rep.passed for rep in run())
    patch(monkeypatch)
    with pytest.raises(error, match=message):
        run()


def test_every_printed_identity_has_an_entry(capsys):
    assert cli.main(["verify", "--n", str(N), "--order", str(ORDER), "--format", "json"]) == 0
    printed = {rep["identity"] for rep in json.loads(capsys.readouterr().out)}
    named = {entry[2] for entry in ENTRIES + RAISING if isinstance(entry[2], str)}
    named |= {one for entry in ENTRIES if isinstance(entry[2], tuple) for one in entry[2]}
    assert printed - named == set()


def test_verify_builds_a_report_only_for_what_it_prints(monkeypatch, capsys):
    built = []
    real = report.IdentityReport.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(report.IdentityReport, "__init__", counted)
    assert cli.main(["verify", "--n", "5", "--order", "6"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 38
    assert len(built) == len(printed)  # 654 before sub-checks returned text


def test_passed_is_read_off_the_failure():
    rep = report.IdentityReport("x", {}, 2, "q^1: 1 != 2")
    assert not rep.passed and rep.to_dict()["pass"] is False
    assert report.IdentityReport("x", {}, 2).passed
    with pytest.raises(TypeError):
        report.IdentityReport("x", {}, 2, passed=False)
    with pytest.raises(AttributeError):
        rep.passed = True
