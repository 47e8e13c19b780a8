"""Command-line behaviour: formats, exit codes, determinism."""

import ast
import json
import random
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from hypergw import cli
from hypergw import polys as P
from hypergw.invariants import assemble_table
from hypergw.report import IdentityReport, report_series, series_pairs
from hypergw.series import QSeries


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
    for row, rec in zip(assemble_table(5, 3).rows, obj["rows"], strict=True):
        assert rec.pop("d") == row.d
        assert {col: Fr(v) for col, v in rec.items()} == {
            col: getattr(row, col) for col in ("N0", "GW1_reduced", "N1", "n0", "n1")
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


def test_verify_failure_exit_code(monkeypatch, capsys):
    def broken(names, n, order):
        return [
            IdentityReport("forced", {}, order, passed=False, first_failure="q^0")
        ]

    monkeypatch.setattr(cli, "run_suites", broken)
    code, out, _ = run(["verify", "--suite", "props31"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_internal_violation_exit_code(monkeypatch, capsys):
    from hypergw.errors import NotTFree

    def explode(n, order):
        raise NotTFree(1, 0, Fr(1))

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


def test_counterexample_is_checked_from_order_2(capsys):
    # below u^2 every series is regularizable, so order 1 checks u/h at order 2
    for order, checked in (("1", 2), ("2", 2), ("3", 3)):
        code, out, _ = run(["verify", "--suite", "regularize", "--order", order], capsys)
        assert code == 0
        assert f"counterexample-detected [series=u/h]: pass (order {checked})" in out


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
    rep = report_series("x", {"n": 3}, lhs, QSeries([1, 2, 7]), 2, "mid q")
    assert rep.first_failure == "mid q^2: Fraction(3, 1) != Fraction(7, 1)"
    assert report_series("x", {}, lhs, lhs, 2).describe() == "x: pass (order 2)"


def test_random_ratfunc_lists_every_pole():
    rng = random.Random(20080915)
    for _ in range(100):
        f, poles = cli._random_ratfunc(rng)
        assert sum(f.shift(a).pole_order_at_zero() for a in poles) == P.degree(f.den)


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
    # keeps site hooks of the installation out of the list
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import hypergw.cli"],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "hypergw.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}


def test_records_keep_their_dataclass_behaviour():
    from hypergw.hyper import HyperSpec
    from hypergw.invariants import GWRow, GWTable

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
    assert rep == IdentityReport("x", {}, 0) != IdentityReport("x", passed=False)
    assert IdentityReport("y").parameters is not IdentityReport("y").parameters
    assert repr(GWRow(2, n0=Fr(1))) == (
        "GWRow(d=2, N0=None, GW1_reduced=None, N1=None, n0=Fraction(1, 1), n1=None)"
    )
    assert GWTable(5, 1, [GWRow(1)]) == GWTable(5, 1, [GWRow(1)])
    with pytest.raises(TypeError):
        hash(rep)
