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
    for locus, lhs, rhs in pairs:
        if lhs != rhs:
            return IdentityReport(
                identity,
                parameters,
                max_order,
                passed=False,
                first_failure=f"{locus}: {lhs!r} != {rhs!r}",
            )
    return IdentityReport(identity, parameters, max_order, passed=True)


def series_pairs(lhs, rhs, max_order, var="q"):
    """The triples (var^k, lhs[k], rhs[k]) for k = 0..max_order: the loci of
    a coefficientwise comparison of two series."""
    return [(f"{var}^{k}", lhs[k], rhs[k]) for k in range(max_order + 1)]


def report_series(identity, parameters, lhs, rhs, max_order, var="q"):
    """report_equality of two series, coefficient by coefficient."""
    return report_equality(
        identity, parameters, series_pairs(lhs, rhs, max_order, var), max_order
    )


def merge_reports(identity, parameters, reports, max_order):
    """Collapse sub-reports into one, keeping the first failure."""
    for rep in reports:
        if not rep.passed:
            return IdentityReport(
                identity,
                parameters,
                max_order,
                passed=False,
                first_failure=f"{rep.identity}: {rep.first_failure}",
            )
    return IdentityReport(identity, parameters, max_order, passed=True)
