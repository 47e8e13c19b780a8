"""Command-line behaviour: formats, exit codes, determinism."""

import ast
import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from hypergw import cli
from hypergw.invariants import assemble_table
from hypergw.report import IdentityReport, series_failure
from hypergw.series import QSeries

import oracles
from oracles import series_pairs


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse-style exits
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_invariants_json(capsys):
    code, out, _ = run(["invariants", "--n", "5", "--order", "3", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5 and obj["truncation"] == 3
    rows = {row["d"]: row for row in obj["rows"]}
    assert rows[1]["N0"] == "2875"
    assert rows[2]["N0"] == "4876875/8"
    assert rows[3]["N0"] == "8564575000/27"
    assert rows[1]["N1"] == "2875/12"
    assert rows[1]["n1"] == "0"


def test_invariants_json_round_trip(capsys):
    code, out, _ = run(["invariants", "--n", "5", "--order", "3", "--format", "json"], capsys)
    obj = json.loads(out)
    # every printed string parses back to the table's Fraction
    table = assemble_table(5, 3)
    assert len(obj["rows"]) == 3
    for d, rec in enumerate(obj["rows"], start=1):
        assert rec.pop("d") == d
        assert {col: Fr(v) for col, v in rec.items()} == {
            col: table.column(col)[d - 1] for col in ("N0", "GW1_reduced", "N1", "n0", "n1")
        }


def test_conic_table_vanishes(capsys):
    code, out, _ = run(["invariants", "--n", "2", "--order", "5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_cubic_table_pattern(capsys):
    code, out, _ = run(["invariants", "--n", "3", "--order", "6", "--format", "json"], capsys)
    assert code == 0
    rows = {row["d"]: row["GW1_reduced"] for row in json.loads(out)["rows"]}
    assert rows == {1: "0", 2: "0", 3: "1", 4: "0", 5: "0", 6: "3/2"}


# the benchmark's digests gate the json tables only; these outputs pin the
# csv and text formats, empty csv cells included
QUINTIC_CSV = """\
d,N0,GW1_reduced,N1,n0,n1
1,2875,0,2875/12,2875,0
2,4876875/8,2875/32,407125/8,609250,0
3,8564575000/27,49355000/81,243388750/9,317206375,609250
"""

QUINTIC_TEXT = """\
degree-5 hypersurface, orders 1..3
d                            N0            GW1_reduced                          N1         n0      n1
1                          2875                      0          2875/12 (~239.583)       2875       0
2           4876875/8 (~609609)     2875/32 (~89.8438)         407125/8 (~50890.6)     609250       0
3  8564575000/27 (~3.17206e+08)  49355000/81 (~609321)  243388750/9 (~2.70432e+07)  317206375  609250
"""

CUBIC_CSV = """\
d,N0,GW1_reduced,N1,n0,n1
1,,0,,,
2,,0,,,
3,,1,,,
4,,0,,,
"""


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--n", "5", "--order", "3", "--format", "csv"], QUINTIC_CSV),
        (["--n", "5", "--order", "3", "--format", "text"], QUINTIC_TEXT),
        (["--n", "3", "--order", "4", "--format", "csv"], CUBIC_CSV),
    ],
    ids=["quintic-csv", "quintic-text", "cubic-csv"],
)
def test_invariants_table_formats_are_pinned(args, expected, capsys):
    assert run(["invariants"] + args, capsys) == (0, expected, "")


def test_usage_error_on_bad_order(capsys):
    code, _, err = run(["invariants", "--order", "0"], capsys)
    assert code == 2
    assert "usage" in err


def test_usage_error_on_unknown_suite(capsys):
    code, _, err = run(["verify", "--suite", "nonsense"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_usage_error_on_empty_suite_list(capsys):
    for suites in (",", ""):
        code, out, err = run(["verify", "--suite", suites], capsys)
        assert code == 2 and out == ""
        assert "usage" in err and "no suite" in err


def test_usage_error_on_unwritable_output(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x")
    for argv in (
        ["invariants", "--order", "2"],
        ["verify", "--suite", "special", "--order", "2"],
        ["dump", "--what", "mu", "--order", "2"],
    ):
        code, out, err = run(argv + ["--output", missing], capsys)
        assert code == 2 and out == ""
        assert "usage" in err and missing in err


def test_usage_error_on_unknown_dump(capsys):
    code, _, err = run(["dump", "--what", "nonsense"], capsys)
    assert code == 2


def test_dump_mirror(capsys):
    code, out, _ = run(["dump", "--what", "mirror", "--n", "5", "--order", "1"], capsys)
    assert code == 0
    assert out == "q^1: 770\n"


def test_dump_mu(capsys):
    code, out, _ = run(["dump", "--what", "mu", "--n", "5", "--order", "2"], capsys)
    assert code == 0
    assert out == "q^1: 625\nq^2: 1171875/2\n"


def test_dump_diagonal(capsys):
    code, out, _ = run(["dump", "--what", "I", "--n", "5", "--order", "2"], capsys)
    assert code == 0
    assert out == "q^0: 1\nq^1: 120\nq^2: 113400\n"


def test_dump_generating_series(capsys):
    code, out, _ = run(["dump", "--what", "theorem2_rhs", "--n", "2", "--order", "3"], capsys)
    assert code == 0
    assert out == "q^0: 0\nq^1: 0\nq^2: 0\nq^3: 0\n"


def test_dump_kernel_is_bigraded(capsys):
    code, out, _ = run(["dump", "--what", "F", "--n", "2", "--order", "1"], capsys)
    assert code == 0
    assert "w^0 q^1: 2" in out.split("\n")


@pytest.mark.parametrize("n", range(1, 9))
def test_dump_kernel_prints_rows_up_to_n_plus_2(n, capsys):
    # built for the dump alone: at n = 1 the shared kernel holds 2 rows, the
    # dump prints 4
    cols = oracles.kernel_columns(n, 4, n + 2)
    want = [f"w^{j} q^{d}: {cols[d][j]}" for j in range(n + 3) for d in range(5)]
    code, out, _ = run(["dump", "--what", "F", "--n", str(n), "--order", "4"], capsys)
    assert code == 0
    assert out == "\n".join(want) + "\n"


def test_dump_regular_kernel(capsys):
    code, out, _ = run(["dump", "--what", "Q", "--n", "2", "--order", "1"], capsys)
    assert code == 0
    assert out.startswith("q^0: 1\n")


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(
        ["verify", "--suite", "props31", "--n", "5", "--order", "6"], capsys
    )
    assert code == 0
    assert "diagonal-identities" in out
    assert "FAIL" not in out


def test_verify_multiple_suites(capsys):
    code, out, _ = run(
        ["verify", "--suite", "props32,theorem3,special", "--n", "4", "--order", "4"],
        capsys,
    )
    assert code == 0
    for token in ("exponent-methods-agree", "locus-split", "ladder-identities", "low-dimensions"):
        assert token in out


def test_verify_json_format(capsys):
    code, out, _ = run(
        ["verify", "--suite", "appendixA", "--order", "4", "--format", "json"], capsys
    )
    assert code == 0
    recs = json.loads(out)
    assert all(rec["pass"] for rec in recs)


def test_appendix_b_runs_genus0_once(monkeypatch, capsys):
    # the suite prints the block report of the pass that built its table
    calls = []
    real = cli.invariants.quintic_genus0

    def counted(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(cli.invariants, "quintic_genus0", counted)
    code, out, _ = run(["verify", "--suite", "appendixB", "--order", "6"], capsys)
    assert code == 0 and calls == [6]
    assert out.splitlines()[0] == "mirror-block-reconstruction [n=5 order=6]: pass (order 6)"


def test_verify_builds_one_report_per_printed_line_but_one(monkeypatch, capsys):
    # 38 lines; the bound leaves room for one report built and not printed
    # (the regularize suite's counterexample built one before it read text).
    # test_perturbations.py asserts the exact count.
    built = []
    real = cli.IdentityReport.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli.IdentityReport, "__init__", counted)
    assert cli.main(["verify", "--n", "5", "--order", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 38
    assert len(built) <= 39  # 40 while appendixB ran the genus-0 pass twice


def test_verify_failure_exit_code(monkeypatch, capsys):
    def broken(names, n, order):
        return [
            IdentityReport("forced", {}, order, first_failure="q^0")
        ]

    monkeypatch.setattr(cli, "run_suites", broken)
    code, out, _ = run(["verify", "--suite", "props31"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_a_suite_named_twice_runs_once(monkeypatch, capsys):
    ran = []
    real = cli.run_suites
    monkeypatch.setattr(
        cli, "run_suites", lambda names, n, order: ran.append(names) or real(names, n, order)
    )
    once = run(["verify", "--suite", "props32,props31", "--n", "3", "--order", "3"], capsys)
    twice = run(
        ["verify", "--suite", "props32,props31,props32,,props31", "--n", "3", "--order", "3"],
        capsys,
    )
    assert twice == once and once[0] == 0
    assert ran == [["props32", "props31"]] * 2


def test_internal_violation_exit_code(monkeypatch, capsys):
    from hypergw.errors import RoutesDisagree

    def explode(n, order):
        raise RoutesDisagree("two routes to the table differ")

    monkeypatch.setattr(cli.invariants, "assemble_table", explode)
    code, _, err = run(["invariants", "--n", "5", "--order", "2"], capsys)
    assert code == 1
    assert "identity violation" in err


def test_theorem3_needs_n_at_least_2(capsys):
    code, out, err = run(["verify", "--suite", "theorem3", "--n", "1", "--order", "2"], capsys)
    assert code == 2 and out == ""
    assert "usage" in err and "--n >= 2" in err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("suite", cli.SUITES)
def test_every_suite_runs_or_is_refused(suite, n, capsys):
    # any exception other than argparse's SystemExit escapes run() and fails
    for order in ("1", "2"):
        code, out, err = run(["verify", "--suite", suite, "--n", str(n), "--order", order], capsys)
        assert code in (0, 2), (order, out, err)
        assert code == 0 or "usage" in err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("what", cli.DUMPABLE)
def test_every_dump_runs_or_is_refused(what, n, capsys):
    for order in ("1", "2"):
        code, _, err = run(["dump", "--what", what, "--n", str(n), "--order", order], capsys)
        assert code in (0, 2), (order, err)
        assert code == 0 or "usage" in err


def test_package_has_no_assert():
    # python -O strips assert statements; failures must be typed errors
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not isinstance(node, ast.Assert), where
            assert not (isinstance(node, ast.Name) and node.id == "AssertionError"), where


APPROX = ("invariants", "_approx")


def test_package_holds_no_float():
    # no float enters the exact arithmetic: no float literal and no use of the
    # name float, except in invariants._approx, the text table's approximation
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == APPROX
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if id(node) not in exempt:
                assert not (isinstance(node, ast.Constant) and type(node.value) is float), where
                assert not (isinstance(node, ast.Name) and node.id == "float"), where


def test_text_table_past_float_range(capsys):
    # values past 10^308 are approximated from the Fraction, with no traceback
    code, out, _ = run(["invariants", "--n", "8", "--order", "44"], capsys)
    assert code == 0
    assert "(~1.51082e+314)" in out


def test_package_imports_are_used():
    # a name imported into a module is read there or re-exported in __all__
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {elt.value for elt in node.value.elts}
        for name, line in imported.items():
            assert name in used, f"{path.name}:{line} imports {name} unused"


def test_package_functions_are_reached():
    # a function defined in the package is referenced by name in it,
    # exported in __all__, a dunder, or wrapped by the benchmark tracer; a
    # method (a function defined directly in a class body) counts only as
    # an attribute (obj.name), since a bare name of it is some other name
    package = Path(cli.__file__).parent
    job_path = package.parents[1] / "perfbench" / "job.py"
    job = {"__name__": "perfbench_job"}
    exec(compile(job_path.read_text(), str(job_path), "exec"), job)
    wrapped = {(module, qual) for module, qual, _ in job["LAYERS"]}
    wrapped |= {("hyper", stage) for stage in job["STAGES"]}
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    names, attributes, exported = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {elt.value for elt in node.value.elts}

    def defined(body, prefix="", in_class=False):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node, in_class
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                is_class = isinstance(node, ast.ClassDef)
                yield from defined(node.body, prefix + node.name + ".", is_class)

    for module, tree in sorted(trees.items()):
        for qual, node, method in defined(tree.body):
            name = node.name
            reached = (
                name in attributes
                or (name in names and not method)
                or name in exported
                or (name.startswith("__") and name.endswith("__"))
                or (module, qual) in wrapped
            )
            assert reached, f"{module}.py:{node.lineno} defines {qual}, which nothing reaches"


def test_counterexample_is_checked_from_order_2(capsys):
    # below u^2 every series is regularizable, so order 1 checks u/h at order 2
    for order, checked in (("1", 2), ("2", 2), ("3", 3)):
        code, out, _ = run(["verify", "--suite", "regularize", "--order", order], capsys)
        assert code == 0
        assert f"counterexample-detected [series=u/h]: pass (order {checked})" in out


# sha256 of the regularize suite's stdout, recorded before regularize read its
# input's rows in place and the bridge became the ladder window at width D + 1
REGULARIZE_SUITE_SHA256 = {
    (1, 12): "07bec60d2d1598a3a18f6c3eb3e3e2cb6bf32eece9bf33dc070ae00172226608",
    (5, 20): "ff4bab19a40ad97bebd5b397854e969d10a5c0362328d0d529f61bb9b92dd1d4",
    (8, 12): "98054b46618204ee7cf7afa4a4e7ebb87b667effd302212de1a3d9988ed25ef1",
}


@pytest.mark.parametrize("n, order", sorted(REGULARIZE_SUITE_SHA256))
def test_regularize_suite_output_is_pinned(n, order, capsys, cold_stages):
    argv = ["verify", "--suite", "regularize", "--n", str(n), "--order", str(order)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REGULARIZE_SUITE_SHA256[n, order]


# sha256 of the residues and appendixA suites' stdout, recorded before the
# Vandermonde left sides were built by levels and the residue trials ran only
# the Taylor rounds they read
RESIDUES_APPENDIX_A_SHA256 = {
    (1, 1, "text"): "4d30773a89b4df113d4cb6f6058ec72f470408cf9cb09aaf3a16048824d8aa3f",
    (1, 1, "json"): "87343f6249951a29686f0e85ba0cebecb53ab1d5396bea3900fad1c7d3d87d78",
    (5, 6, "text"): "99952f422749fc9e27ffbcfbaef2ae870df9c3e1f39aaedd9f8e345bc067b554",
    (5, 6, "json"): "0ddc0ef65b59a513a32a559667384e71273c7714256ba546d4cf7bca5e36f8d8",
    (8, 9, "text"): "b4175e1245202fce04c4ea4872ab9c128056ea94e6205fa35caa85034e789ec7",
    (8, 9, "json"): "67fc264459b41fee27a94e6cc58f85a563305b340b9b1b9f2b3ab58b22b22c11",
}


@pytest.mark.parametrize("n, order, fmt", sorted(RESIDUES_APPENDIX_A_SHA256))
def test_residues_and_appendix_a_output_is_pinned(n, order, fmt, capsys):
    argv = ["verify", "--suite", "residues,appendixA", "--n", str(n), "--order", str(order)]
    code, out, _ = run([*argv, "--format", fmt], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == RESIDUES_APPENDIX_A_SHA256[n, order, fmt]


def test_series_pairs_keep_every_locus_format():
    lhs, rhs = QSeries([1, 2, 3]), QSeries([4, 5, 6])
    # the labels the checkers printed, one per prefix in use
    for var, labels in (
        ("q", ["q^0", "q^1", "q^2"]),
        ("u", ["u^0", "u^1", "u^2"]),
        ("Q", ["Q^0", "Q^1", "Q^2"]),
        ("p=2 q", ["p=2 q^0", "p=2 q^1", "p=2 q^2"]),
        ("mid q", ["mid q^0", "mid q^1", "mid q^2"]),
        ("closed q", ["closed q^0", "closed q^1", "closed q^2"]),
    ):
        assert series_pairs(lhs, rhs, 2, var) == [
            (label, lhs[k], rhs[k]) for k, label in enumerate(labels)
        ]
    assert series_pairs(lhs, rhs, 1) == [("q^0", 1, 4), ("q^1", 2, 5)]
    text = series_failure(lhs, QSeries([1, 2, 7]), 2, "mid q")
    assert text == "mid q^2: Fraction(3, 1) != Fraction(7, 1)"
    assert series_failure(lhs, lhs, 2) is None
    assert IdentityReport("x", {}, 2, None).describe() == "x: pass (order 2)"
    assert IdentityReport("x", {"n": 3}, 2, text).describe() == f"x [n=3]: FAIL at {text}"


def test_random_ratfunc_lists_every_pole():
    rng = random.Random(20080915)
    for _ in range(100):
        f, poles = cli._random_ratfunc(rng)
        assert sum(f.shift(Fr(s, t)).pole_order_at_zero() for s, t in poles) == len(f.den) - 1


def test_byte_identical_output(capsys):
    args = ["invariants", "--n", "5", "--order", "4", "--format", "json"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second
    args = ["verify", "--suite", "residues", "--order", "4"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        ["invariants", "--n", "5", "--order", "2", "--format", "csv", "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("d,N0,GW1_reduced")


def test_cli_import_loads_no_dataclasses():
    # the records are plain classes: dataclasses (and the inspect, ast and
    # dis it pulls in) cost every process start several milliseconds; -S
    # keeps site hooks of the installation out of the list; argparse (with
    # the gettext and locale it loads) is as costly, and a short job must
    # not import it lazily either
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, hypergw.cli\n"
        "hypergw.cli.main(['dump', '--what', 'I', '--n', '2', '--order', '4'])\n"
        "hypergw.cli.main(['invariants', '--n', '5', '--order', '2', '--format', 'csv'])\n"
        "hypergw.cli.main(['verify', '--suite', 'appendixA', '--order', '1'])\n"
        "sys.stderr.write('modules: ' + ' '.join(sys.modules) + '\\n')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", code],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stderr.splitlines()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in lines}
    after_main = set(lines[-1].split()[1:])
    assert "hypergw.cli" in loaded and "hypergw.cli" in after_main
    forbidden = {"dataclasses", "inspect", "ast", "dis", "argparse", "gettext", "locale", "csv"}
    assert not loaded & forbidden
    assert not after_main & forbidden


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "5", "--order", "6"],
        ["invariants", "--n", "5", "--order", "24", "--format", "json"],
    ],
    ids=" ".join,
)
def test_optimized_interpreter_prints_the_same(argv):
    # checks raise typed errors, never a bare assert that -O would strip, so
    # python -O prints the same bytes and exits with the same code
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "hypergw.cli", *argv], env=env, capture_output=True
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout == optimized.stdout and plain.stdout


def test_records_keep_their_dataclass_behaviour():
    from hypergw.hyper import HyperSpec
    from hypergw.invariants import GWTable

    spec = HyperSpec(5, 4)
    assert repr(spec) == "HyperSpec(n=5, qorder=4)" and HyperSpec(5).qorder == 8
    assert spec == HyperSpec(5, 4) != HyperSpec(5, 5)
    assert hash(spec) == hash(HyperSpec(5, 4)) and len({spec, HyperSpec(5, 4)}) == 1
    with pytest.raises(AttributeError):
        spec.n = 6
    with pytest.raises(ValueError):
        HyperSpec(5, 0)
    rep = IdentityReport("x")
    assert repr(rep) == (
        "IdentityReport(identity='x', parameters={}, max_order_checked=0, "
        "passed=True, first_failure=None)"
    )
    assert rep == IdentityReport("x", {}, 0) != IdentityReport("x", first_failure="q^0")
    assert IdentityReport("y").parameters is not IdentityReport("y").parameters
    assert repr(GWTable(2, 1, {"GW1_reduced": [Fr(1)]})) == (
        "GWTable(n=2, truncation=1, columns={'GW1_reduced': [Fraction(1, 1)]}, blocks=None)"
    )
    assert GWTable(5, 1, {"N0": [Fr(1)]}) == GWTable(5, 1, {"N0": [Fr(1)]})
    assert GWTable(5, 1, {"N0": [Fr(1)]}) != GWTable(5, 1, {"N0": [Fr(1)]}, rep)
    with pytest.raises(TypeError):
        hash(rep)
