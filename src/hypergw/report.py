"""Structured pass/fail records for the identity suites.

Every check below the identity level returns its failure text, or None
when it passes; an IdentityReport stands for one identity a suite reports."""

from .series import TPoly, format_rational


class Record:
    """A plain record: a subclass names its attributes in _fields, and
    equality and repr go over them in that order.  Records of one class are
    equal when all their fields are, so they are not hashable."""

    _fields = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class IdentityReport(Record):
    """One identity as a suite prints it; it passes exactly when it has no
    failure text."""

    _fields = ("identity", "parameters", "max_order_checked", "passed", "first_failure")

    def __init__(self, identity, parameters=None, max_order_checked=0, first_failure=None):
        self.identity = identity
        self.parameters = {} if parameters is None else parameters
        self.max_order_checked = max_order_checked
        self.first_failure = first_failure

    @property
    def passed(self):
        return self.first_failure is None

    def to_dict(self):
        out = {
            "identity": self.identity,
            "parameters": dict(self.parameters),
            "max_order_checked": self.max_order_checked,
            "pass": self.passed,
        }
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out

    def describe(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        head = f"{self.identity}" + (f" [{params}]" if params else "")
        if self.passed:
            return f"{head}: pass (order {self.max_order_checked})"
        return f"{head}: FAIL at {self.first_failure}"


def first_failure(failures):
    """The first text that `failures` yields other than None, or None.  It
    is drawn only up to that text, so the checks after it do not run."""
    return next((text for text in failures if text is not None), None)


def equality_failure(locus, lhs, rhs):
    """`locus: lhs != rhs` when the two differ, else None."""
    return None if lhs == rhs else f"{locus}: {lhs!r} != {rhs!r}"


def series_failure(lhs, rhs, max_order, var="q"):
    """The first coefficient k <= max_order at which two series differ, as
    `var^k: lhs[k] != rhs[k]`, or None when they all agree.  The series are
    compared as integer numerators over their denominators; Fractions are
    built for the failing coefficient only.  t-polynomials are compared row
    by row, the t^j row labelled `t^j var`."""
    if isinstance(lhs, TPoly):
        rows = range(max(lhs.t_degree, rhs.t_degree) + 1)
        return first_failure(
            series_failure(lhs.coeff(j), rhs.coeff(j), max_order, f"t^{j} {var}") for j in rows
        )
    a, b = lhs.truncate(max_order), rhs.truncate(max_order)
    if a == b:
        return None
    k = next(k for k, (x, y) in enumerate(zip(a.ints, b.ints)) if x * b.den != y * a.den)
    return f"{var}^{k}: {lhs[k]!r} != {rhs[k]!r}"


def integrality_failure(series):
    """`degree d: c` for the first coefficient c of a q-series that is not
    an integer, or None when all are."""
    if series.den == 1:  # canonical, so otherwise some coefficient is a fraction
        return None
    d, c = next((d, c) for d, c in enumerate(series.ints) if c % series.den)
    return f"degree {d}: {format_rational(c, series.den)}"


def merged_failure(parts):
    """The first failing part of (name, failure text or None) pairs, as
    `name: text`, or None when every part passed."""
    return next((f"{name}: {text}" for name, text in parts if text is not None), None)


def merge_reports(identity, parameters, parts, max_order):
    """One report for (name, failure text or None) parts."""
    return IdentityReport(identity, parameters, max_order, merged_failure(parts))
