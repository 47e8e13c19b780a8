"""Structured pass/fail records for the identity suites."""


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
    _fields = ("identity", "parameters", "max_order_checked", "passed", "first_failure")

    def __init__(
        self, identity, parameters=None, max_order_checked=0, passed=True, first_failure=None
    ):
        self.identity = identity
        self.parameters = {} if parameters is None else parameters
        self.max_order_checked = max_order_checked
        self.passed = passed
        self.first_failure = first_failure

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


def report_equality(identity, parameters, pairs, max_order):
    """Build a report from (locus, lhs, rhs) triples compared exactly."""
    failures = (f"{locus}: {lhs!r} != {rhs!r}" for locus, lhs, rhs in pairs if lhs != rhs)
    return report_failures(identity, parameters, failures, max_order)


def series_failure(lhs, rhs, max_order, var="q"):
    """The failure text report_equality gives the triples (var^k, lhs[k],
    rhs[k]) for k = 0..max_order, or None when they all agree.  The series are
    compared as integer numerators over their denominators; Fractions are
    built for the first failing locus only."""
    a, b = lhs.truncate(max_order), rhs.truncate(max_order)
    if a == b:
        return None
    k = next(k for k, (x, y) in enumerate(zip(a.ints, b.ints)) if x * b.den != y * a.den)
    return f"{var}^{k}: {lhs[k]!r} != {rhs[k]!r}"


def report_failures(identity, parameters, failures, max_order):
    """One report for a family of checks.  `failures` yields the failure
    text of each check in order, None for a check that passed; it is drawn
    only up to the first text, so the checks after it do not run."""
    first = next((text for text in failures if text is not None), None)
    return IdentityReport(
        identity, parameters, max_order, passed=first is None, first_failure=first
    )


def report_series(identity, parameters, lhs, rhs, max_order, var="q"):
    """report_equality of two series, coefficient by coefficient."""
    return report_failures(
        identity, parameters, [series_failure(lhs, rhs, max_order, var)], max_order
    )


def merge_reports(identity, parameters, reports, max_order):
    """Collapse sub-reports into one, keeping the first failure."""
    failures = (f"{rep.identity}: {rep.first_failure}" for rep in reports if not rep.passed)
    return report_failures(identity, parameters, failures, max_order)
