"""Genus-0 and genus-1 invariant extraction and the supporting identity checks.

The reduced genus-1 generating series of a degree-n hypersurface is an
explicit combination of the mirror shift, logarithms of the diagonal
tower entries, and a weighted tail of bigraded log coefficients; its
expansion in the exponential of the mirror coordinate yields the
invariants degree by degree.  For the quintic there are closed genus-0
and standard genus-1 forms as well, plus the conversions between
reduced/standard invariants and the multiple-cover inversions to
instanton numbers.  The split of the generating series into the
effective-locus and boundary-locus parts is verified against an
independent residue evaluation of the boundary part.
"""

from fractions import Fraction
from math import comb, lcm
from math import gcd as _int_gcd

from . import hyper
from . import polys as P
from .errors import MissingColumn, NotIntegral, RoutesDisagree
from .hyper import HyperSpec
from .report import Record, integrality_failure, merge_reports, merged_failure, series_failure
from .residues import RatFunc, laurent_at_zero, residue_at
from .series import QSeries, TPoly, change_exp_variable, format_rational


def divisors(d):
    return [k for k in range(1, d + 1) if d % k == 0]


def sigma(r):
    """Sum of the positive divisors of r."""
    return sum(divisors(r))


# -- generating series ----------------------------------------------------


def _first_line_coeffs(n):
    c_shift = Fraction((n - 2) * (n + 1), 48) + Fraction(1 - (1 - n) ** n, 24 * n**2)
    c_log = Fraction(n**2 - 1 + (1 - n) ** n, 24 * n)
    return c_shift, c_log


def _parity_block(spec, log_coeff_odd, log_coeff_even):
    """The parity-split middle block shared by the generating series and
    the effective-locus part; only the coefficient of the log differs."""
    n, d = spec.n, spec.qorder
    log_onemq = hyper.one_minus_nn_q(spec).log()
    out = QSeries.zero(d)
    if n % 2:
        out = out + log_onemq * log_coeff_odd
        for p in range((n - 3) // 2 + 1):
            out = out + hyper.diagonal_series(spec, p).log() * Fraction(
                (n - 1 - 2 * p) ** 2, 8
            )
    else:
        out = out + log_onemq * log_coeff_even
        for p in range((n - 4) // 2 + 1):
            out = out + hyper.diagonal_series(spec, p).log() * Fraction(
                (n - 2 * p) * (n - 2 - 2 * p), 8
            )
    return out


def _log_tail(spec):
    """(n/24) * sum_p (taylor of (1+w)^n/(1+nw)) x (bigraded log coefficients)."""
    n, d = spec.n, spec.qorder
    out = QSeries.zero(d)
    if n < 4:
        return out
    coeffs = hyper.dw_kernel_coeffs(n, n - 4)
    logw = hyper.log_kernel_w(spec)
    for p in range(2, n - 1):
        out = out + logw.coeff(p) * (coeffs[n - 2 - p] * Fraction(n, 24))
    return out


def reduced_genus1_series(spec):
    """The generating series of reduced genus-1 invariants as a q-series.

    Equal to sum_d exp(d T) GW_d once re-expanded through the mirror map.
    """
    n = spec.n
    c_shift, c_log = _first_line_coeffs(n)
    out = hyper.mirror_shift(spec) * c_shift
    out = out + hyper.diagonal_series(spec, 0).log() * c_log
    out = out - _parity_block(spec, Fraction(n - 1, 48), Fraction(n - 4, 48))
    out = out + _log_tail(spec)
    return out


def extract_invariants(series, spec):
    """Per-degree invariants: coefficients after the change to Q = exp(T)."""
    shifted = change_exp_variable(series, hyper.mirror_shift(spec))
    return list(shifted.coeffs[1:])


# -- quintic closed forms --------------------------------------------------


def _j_poly(spec, k):
    """J_k = (tower row 0 entry k) / (diagonal 0), a t-polynomial."""
    return hyper.tower_ratio(spec, 0, k)


def quintic_genus0(order):
    """Genus-0 invariants of the quintic threefold, with the block check.

    Returns (values for d = 1..order, report).  The defining combination
    of J-polynomials must be free of t; a leftover t term is a hard error.
    The report verifies that rebuilding the four cohomology blocks from
    the extracted values reproduces the J-polynomials exactly.
    """
    spec = HyperSpec(5, order)
    d = order
    j1 = _j_poly(spec, 1)
    j2 = _j_poly(spec, 2)
    j3 = _j_poly(spec, 3)
    h = (j1 * j2 - j3) * Fraction(5, 2) - j1 * j1 * j1 * Fraction(5, 6)
    series = h.t_free_part()
    values = extract_invariants(series, spec)

    # block reconstruction: with E_d = exp(d T) = q^d exp(d (T-t)) = E_1^d,
    #   H^2:  J1^2/2 + (1/5) sum_d N_d d E_d            == J2
    #   H^3:  J1^3/6 + (1/5) sum_d N_d (d J1 - 2) E_d   == J3
    shift = hyper.mirror_shift(spec)
    # the weight-d part of the H^3 sum is sum2 itself
    sum2, sum3c = _block_sums(hyper.mirror_coordinate(spec), values)
    weighted = TPoly.from_qseries(sum2)
    lhs2 = j1 * j1 * Fraction(1, 2) + weighted
    lhs3 = j1 * j1 * j1 * Fraction(1, 6) + j1 * weighted + TPoly.from_qseries(sum3c)
    one = TPoly.from_qseries(QSeries.one(d))
    t_plus_shift = TPoly.t_variable(d) + TPoly.from_qseries(shift)
    parts = [
        ("block-0", series_failure(_j_poly(spec, 0), one, d)),
        ("block-1", series_failure(j1, t_plus_shift, d)),
        ("block-2", series_failure(lhs2, j2, d)),
        ("block-3", series_failure(lhs3, j3, d)),
    ]
    return values, merge_reports("mirror-block-reconstruction", {"n": 5, "order": d}, parts, d)


def _block_sums(e, values):
    """(sum2, sum3c) = ((1/5) sum_d d N_d E_d, -(2/5) sum_d N_d E_d) for
    values N_1.., with E_d = q^d e^d = E_1^d truncated like e, the
    exponential of the mirror shift (mirror_coordinate).

    The powers stay integer rows: E_1 is cleared of denominators once and
    each power is one truncated integer product, reduced by its content.
    Both sums accumulate in int over one running denominator, and each
    QSeries is built once at the end."""
    d = e.truncation
    e1, den1 = (0,) + e.ints[:d], e.den
    power, den = e1, den1
    acc1, acc2, acc_den = [0] * (d + 1), [0] * (d + 1), 1  # sum N E, sum d N E
    for deg, val in enumerate(values, start=1):
        if deg > 1:
            out = [0] * (d + 1)
            P._accumulate(out, power, e1)
            den *= den1
            g = _int_gcd(den, *out)
            power, den = [c // g for c in out], den // g
        if not val:
            continue
        term_den = val.denominator * den
        grown = lcm(acc_den, term_den)
        if grown != acc_den:
            scale = grown // acc_den
            acc1 = [c * scale for c in acc1]
            acc2 = [c * scale for c in acc2]
            acc_den = grown
        f = val.numerator * (grown // term_den)
        for i, c in enumerate(power):
            if c:
                acc1[i] += f * c
                acc2[i] += deg * f * c
    return QSeries._of(acc2, 5 * acc_den), QSeries._of([-2 * c for c in acc1], 5 * acc_den)


def quintic_genus1(order):
    """Standard genus-1 invariants of the quintic from the closed form."""
    spec = HyperSpec(5, order)
    shift = hyper.mirror_shift(spec)
    log_i0 = hyper.diagonal_series(spec, 0).log()
    log_onemq = hyper.one_minus_nn_q(spec).log()
    log_i1 = hyper.diagonal_series(spec, 1).log()
    rhs = (
        shift * Fraction(25, 6)
        - log_i0 * Fraction(62, 3)
        - log_onemq * Fraction(1, 6)
        - log_i1
    )
    return extract_invariants(rhs * Fraction(1, 2), spec)


# -- tables ----------------------------------------------------------------

_COLUMNS = ("N0", "GW1_reduced", "N1", "n0", "n1")


class GWTable(Record):
    """The invariants for d = 1..truncation: `columns` maps each filled name
    of _COLUMNS to its values, lowest degree first, and `blocks` is the
    mirror-block report of the genus-0 pass that built N0 (None for n != 5)."""

    _fields = ("n", "truncation", "columns", "blocks")

    def __init__(self, n, truncation, columns, blocks=None):
        self.n = n
        self.truncation = truncation
        self.columns = columns
        self.blocks = blocks

    def column(self, name):
        if name not in self.columns:
            raise MissingColumn(f"column {name} is not filled")
        return self.columns[name]

    def to_json_obj(self):
        rows = [{"d": d} for d in range(1, self.truncation + 1)]
        for name in _COLUMNS:
            for rec, val in zip(rows, self.columns.get(name, ())):
                rec[name] = format_rational(val)
        return {"n": self.n, "truncation": self.truncation, "rows": rows}

    def to_csv_text(self):
        # every cell is an int, a p/q string or empty, so none needs quoting
        columns = [self.columns.get(name) for name in _COLUMNS]
        lines = [",".join(("d",) + _COLUMNS)]
        for i in range(self.truncation):
            cells = ["" if col is None else format_rational(col[i]) for col in columns]
            lines.append(",".join([str(i + 1)] + cells))
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = [f"degree-{self.n} hypersurface, orders 1..{self.truncation}"]
        header = ["d"] + [name for name in _COLUMNS if name in self.columns]
        columns = [self.column(name) for name in header[1:]]
        table = [header]
        for i in range(self.truncation):
            cells = [str(i + 1)]
            for col in columns:
                val = col[i]
                if val.denominator == 1:
                    cells.append(str(val.numerator))
                else:
                    cells.append(f"{format_rational(val)} (~{_approx(val)})")
            table.append(cells)
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for r in table:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


def _approx(x):
    """x in the shape of %.6g, for the text table only: through a float
    inside its range, and past it from the Fraction in integers, rounded
    half to even to six significant digits."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        e = len(str(abs(x.numerator) // x.denominator)) - 1  # the decimal exponent
        m = round(abs(x) / 10 ** (e - 5))
        if m == 10**6:
            m, e = 10**5, e + 1
        digits = str(m).rstrip("0")
        mantissa = digits[0] + ("." + digits[1:] if digits[1:] else "")
        return f"{'-' if x < 0 else ''}{mantissa}e+{e}"


def _weighted_sum(terms):
    """sum x * a / b over terms (x, a, b), x rational and a, b ints (b > 0),
    summed in int over one denominator: one Fraction."""
    dens = [x.denominator * b for x, _, b in terms]
    den = lcm(*dens)
    return Fraction(sum(x.numerator * a * (den // e) for (x, a, _), e in zip(terms, dens)), den)


def genus0_cover_sum(n0, d):
    """N0_d = sum_{k|d} n0_{d/k} / k^3, from instanton numbers by degree."""
    return _weighted_sum([(n0[d // k], 1, k**3) for k in divisors(d)])


def genus1_cover_sum(n1, n0, d):
    """N1_d = sum_{k|d} n1_{d/k} sigma_k / k + (1/12) sum_{k|d} n0_{d/k} / k."""
    return _weighted_sum(
        [(n1[d // k], sigma(k), k) for k in divisors(d)]
        + [(n0[d // k], 1, 12 * k) for k in divisors(d)]
    )


def instanton_inversion(big0, big1):
    """Strip multiple covers from the genus-0 and genus-1 numbers N0, N1
    (lowest degree first): solve the divisor-sum relations recursively,
    genus 0 and then genus 1, which reads the genus-0 numbers.  Returns the
    lists (n0, n1).

    The relations are `genus0_cover_sum` and `genus1_cover_sum`.  Forward
    substitution of the solved columns reproduces the inputs exactly; that
    round trip is checked here, for each genus.
    """
    n0 = {}
    for d, val in enumerate(big0, start=1):
        covers = [(n0[d // k], -1, k**3) for k in divisors(d) if k > 1]
        n0[d] = _weighted_sum([(val, 1, 1)] + covers)
    if [genus0_cover_sum(n0, d) for d in n0] != big0:
        raise RoutesDisagree("genus-0 multiple-cover round trip failed")
    n1 = {}
    for d, val in enumerate(big1, start=1):
        cover0 = [(n0[d // k], -1, 12 * k) for k in divisors(d)]
        cover1 = [(n1[d // k], -sigma(k), k) for k in divisors(d) if k > 1]
        n1[d] = _weighted_sum([(val, 1, 1)] + cover0 + cover1)
    if [genus1_cover_sum(n1, n0, d) for d in n1] != big1:
        raise RoutesDisagree("genus-1 multiple-cover round trip failed")
    return list(n0.values()), list(n1.values())


def assemble_table(n, order):
    """Full invariant table for the CLI; all columns for n = 5, the
    reduced genus-1 column otherwise.  The coefficients of exp of the mirror
    shift, and at n = 5 the instanton numbers, must be integers: the first
    fraction raises NotIntegral, naming its degree."""
    spec = HyperSpec(n, order)
    fraction = integrality_failure(hyper.mirror_coordinate(spec))
    if fraction:
        raise NotIntegral(f"exp(mirror shift) at {fraction}")
    reduced = extract_invariants(reduced_genus1_series(spec), spec)
    if n != 5:
        return GWTable(n, order, {"GW1_reduced": reduced})
    big0, blocks = quintic_genus0(order)
    if not blocks.passed:
        raise RoutesDisagree(f"block reconstruction failed: {blocks.first_failure}")
    big1 = [a + b / 12 for a, b in zip(reduced, big0)]
    # the closed genus-1 form must agree with reduced + N0/12
    for d, (a, b) in enumerate(zip(big1, quintic_genus1(order)), start=1):
        if a != b:
            raise RoutesDisagree(f"genus-1 routes disagree at degree {d}: {a} vs {b}")
    n0, n1 = instanton_inversion(big0, big1)
    for d, pair in enumerate(zip(n0, n1), start=1):
        if any(x.denominator != 1 for x in pair):
            raise NotIntegral(f"instanton numbers at degree {d}: n0 = {pair[0]}, n1 = {pair[1]}")
    columns = {"N0": big0, "GW1_reduced": reduced, "N1": big1, "n0": n0, "n1": n1}
    return GWTable(n, order, columns, blocks)


# -- locus split -----------------------------------------------------------


def effective_locus_half_sum(spec):
    """The effective-locus part of the generating series, half-sum shape; its
    agreement with effective_locus_parity is an instance of the diagonal
    identities."""
    n = spec.n
    out = hyper.regularizing_exponent(spec) * Fraction((n - 2) * (n + 1), 24)
    out = out - hyper.one_minus_nn_q(spec).log() * Fraction((n - 2) * (3 * n - 5), 24)
    for p in range(n - 2):
        binom2 = Fraction((n - 1 - p) * (n - 2 - p), 2)
        out = out - hyper.diagonal_series(spec, p).log() * binom2
    return out * Fraction(1, 2)


def effective_locus_parity(spec):
    """The effective-locus part in its parity shape."""
    n = spec.n
    out = hyper.regularizing_exponent(spec) * Fraction((n - 2) * (n + 1), 48)
    return out - _parity_block(spec, Fraction(n + 1, 48), Fraction(n - 2, 48))


def boundary_locus_series(spec):
    """The boundary-locus part in closed form."""
    n = spec.n
    c_shift, c_log = _first_line_coeffs(n)
    out = hyper.mirror_shift(spec) * c_shift
    out = out - hyper.regularizing_exponent(spec) * Fraction((n - 2) * (n + 1), 48)
    out = out + hyper.one_minus_nn_q(spec).log() * Fraction(1, 24)
    out = out + hyper.diagonal_series(spec, 0).log() * c_log
    return out + _log_tail(spec)


def _residue_weight(n):
    """((1+h)^n - 1) / ((n+h) h^2) as a rational function, reduced with no
    gcd by the irreducible factors h and n + h of its denominator (h once,
    since (1+h)^n - 1 has a simple zero at 0; n + h at n = 2 only)."""
    num = [0] + [comb(n, k) for k in range(1, n + 1)]
    return RatFunc.from_coprime(*P._cancel_factors(num, [0, 0, n, 1], [(0, 1), (n, 1)]))


def boundary_locus_by_residues(spec):
    """The boundary-locus part recomputed from its three residues.

    The three contributions: at h = 0 read off the windows of the log of
    the normalized kernel series; at h = -n the weight's residue times that
    log evaluated there; at infinity through the sphere convention, which
    lands on a pure w-series residue.  Returns (total, parts dict).
    """
    n, d = spec.n, spec.qorder
    weight = _residue_weight(n)
    shift_neg = -hyper.mirror_shift(spec)  # t - T
    log_y = hyper.ladder_log(spec)

    # residue at 0, read off the windows: weight has a simple pole there, so
    # res{ weight c_k } = sum_{i<=k} [h^(i-1)] weight * [h^-i] c_k
    win = laurent_at_zero(weight, 1, d)
    rows = log_y.coeffs  # [h^-i] c_k is entry k - i of row k
    res0 = QSeries._ratios(
        [sum(win.ints[i] * row.ints[k - i] for i in range(k + 1)) for k, row in enumerate(rows)],
        [win.den * row.den for row in rows],
    )
    res0 = res0 + shift_neg * win[1]
    part0 = res0 * Fraction(-n, 24)

    # residue at -n: the weight has at most a simple pole there and every
    # kernel coefficient is holomorphic there (n = 2: a removable 0/0), so
    # it is res_{-n}(weight) times log y + (t - T)/h evaluated at h = -n
    a = Fraction(-n)
    y_at = hyper.kernel_value_at(spec, a) / hyper.diagonal_series(spec, 0)
    partn = (y_at.log() + shift_neg / a) * (residue_at(weight, a) * Fraction(-n, 24))

    # residue at infinity: becomes a w-residue of the bigraded logarithm
    logw = hyper.log_kernel_w(spec)
    carriers = hyper.dw_kernel_coeffs(n, max(n - 2, 0))
    acc = QSeries.zero(d)
    for j in range(n - 1):
        k = n - 2 - j
        term = logw.coeff(k)
        if k == 1:
            term = term + shift_neg
        acc = acc + term * carriers[j]
    partinf = acc * Fraction(n, 24)

    total = part0 + partn + partinf
    return total, {"zero": part0, "minus_n": partn, "infinity": partinf}


def locus_split_check(spec):
    """Both shapes of the effective part agree; the residue route equals
    the closed boundary part (also piecewise); and the two parts sum to
    the full generating series."""
    n, d = spec.n, spec.qorder
    eff_half = effective_locus_half_sum(spec)
    eff_parity = effective_locus_parity(spec)
    boundary = boundary_locus_series(spec)
    by_res, parts = boundary_locus_by_residues(spec)
    total = reduced_genus1_series(spec)

    mu = hyper.regularizing_exponent(spec)
    shift_neg = -hyper.mirror_shift(spec)
    log_i0 = hyper.diagonal_series(spec, 0).log()
    closed_minus_n = (shift_neg * Fraction(-1, n) - log_i0) * Fraction(
        -((1 - n) ** n - 1), 24 * n
    )
    phi0_log = hyper.kernel_value_at_zero(spec).log()
    closed_zero = (
        (shift_neg + mu) * Fraction((n - 2) * (n + 1), 2 * n) + phi0_log - log_i0
    ) * Fraction(-n, 24)

    checks = [
        (name, series_failure(a, b, d))
        for name, a, b in (
            ("effective-locus-forms", eff_half, eff_parity),
            ("boundary-residue-route", by_res, boundary),
            ("boundary-residue-at-origin", parts["zero"], closed_zero),
            ("boundary-residue-at-minus-n", parts["minus_n"], closed_minus_n),
            ("locus-sum-matches-series", eff_parity + boundary, total),
        )
    ]
    return merge_reports("locus-split", {"n": n, "order": d}, checks, d)


# -- low dimensions ---------------------------------------------------------


def torus_cover_series(order):
    """Coefficients of -sum_d log(1 - Q^{3d}) up to Q^order."""
    out = [Fraction(0)] * (order + 1)
    for d in range(1, order // 3 + 1):
        for k in range(1, order // (3 * d) + 1):
            out[3 * d * k] += Fraction(1, k)
    return QSeries(out)


def low_dimension_checks(order):
    """The plane-cubic covering count and the quartic-surface vanishing."""
    d = order
    spec3 = HyperSpec(3, d)
    series3 = reduced_genus1_series(spec3)
    direct3 = (
        hyper.mirror_shift(spec3) * Fraction(1, 8)
        - hyper.one_minus_nn_q(spec3).log() * Fraction(1, 24)
        - hyper.diagonal_series(spec3, 0).log() * Fraction(1, 2)
    )
    extracted3 = QSeries([Fraction(0)] + extract_invariants(series3, spec3))
    torus = merged_failure(
        [
            ("cubic-closed-form", series_failure(series3, direct3, d)),
            ("cubic-cover-counts", series_failure(extracted3, torus_cover_series(d), d, "Q")),
        ]
    )

    spec4 = HyperSpec(4, d)
    j1 = _j_poly(spec4, 1)
    j2 = _j_poly(spec4, 2)
    gap = j2 - j1 * j1 * Fraction(1, 2)
    j2p = j2.d_dt()
    j1p = hyper.diagonal_series(spec4, 1)
    decomposition = (j2p.div_qseries(j1p) - j1).d_dt()
    diag_gap = TPoly.from_qseries(
        hyper.diagonal_series(spec4, 2) - hyper.diagonal_series(spec4, 1)
    )
    extracted4 = QSeries([Fraction(0)] + extract_invariants(reduced_genus1_series(spec4), spec4))
    k3 = merged_failure(
        [
            ("quartic-gap-vanishes", series_failure(gap, TPoly.zero(d), d)),
            ("quartic-gap-derivative", series_failure(decomposition, diag_gap, d)),
            ("quartic-invariants-vanish", series_failure(extracted4, QSeries.zero(d), d, "Q")),
        ]
    )
    parts = [("torus-cover-match", torus), ("k3-vanishing", k3)]
    return merge_reports("low-dimensions", {"order": d}, parts, d)


# -- bridge to the regularization machinery ---------------------------------


def bridge_series(spec):
    """The normalized kernel at w = 1/h minus one: the production input to
    the regularization machinery.  Its exponent is the regularizing
    exponent mu and its regular part evaluates at h = 0 to the kernel
    value over the w-constant diagonal.  It is the ladder series of rung 0
    at the full width 2D + 2 that regularize reads."""
    return hyper.kernel_inv_hbar(spec).mul_qseries(1 / hyper.diagonal_series(spec, 0)) - 1
