"""The command-line parser against the hand-built reference parser
(oracles.cli_parser): same exit code, output bytes and fields.  cli reads a
plain line itself (cli._plain) and hands every other line to argparse."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypergw import cli

from oracles import cli_parser

ROOT = Path(__file__).resolve().parents[1]
COMMAND_NAMES = ["invariants", "verify", "dump"]


def outcome(parse, argv):
    """(exit code or None, stdout, stderr, parsed fields or None)."""
    out, err = io.StringIO(), io.StringIO()
    fields = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), fields


def reference(argv):
    return vars(cli_parser().parse_args(argv))


def assert_same(argv):
    assert outcome(cli._parse_args, argv) == outcome(reference, argv), argv


BENCH_JOBS = [key.split() for key in json.loads((ROOT / "perfbench" / "digests.json").read_text())]

LISTED = [
    ["-h"],
    ["-h", "dump"],
    ["invariants", "-h"],
    ["verify", "-h"],
    ["dump", "-h"],
    ["dump", "--he"],
    [],
    ["inv"],
    ["dump"],
    ["dump", "--what"],
    ["--n", "x"],
    ["dump", "--n", "x"],
    ["--n="],
    ["dump", "--n="],
    ["verify", "--format", "xml"],
    ["--ord", "3"],
    ["dump", "--ord", "3"],
    ["--o", "3"],
    ["dump", "--o", "3"],
    ["--n=3", "--order=2"],
    ["invariants", "--n=3", "--order=2"],
    ["dump", "--what", "I", "x", "y"],
    ["dump", "--what", "I", "--", "x"],
    ["dump", "--", "--what", "I"],
    ["dump", "--what", "--", "I"],
    ["--output", "-x"],
    ["dump", "--output", "-x"],
    ["--n", "-3"],
    ["dump", "--what", "I", "--n", "-3"],
    ["-n", "3"],
    ["dump", "-n", "3"],
    ["dump", "--bogus"],
    ["dump", "--what", "I", "--bogus"],
    ["dump", "-h", "--n", "x"],
    ["dump", "--n", "x", "-h"],
    ["invariants", "--n", "2", "--n", "3"],
    ["invariants", "--order", " 2 "],
    ["dump", "--what", "I", "--n", "1_0"],
    ["--", "dump"],
    ["--"],
    ["--n=3", "invariants"],
    ["-hh"],
    ["-h="],
    ["dump", "-hx"],
    ["dump", "--help=3"],
    ["dump", "--=3"],
    ["-3"],
    ["dump", "--what", "-.5"],
    ["dump", "--what", "-3\n"],
    ["dump", "--what", "-x y"],
    ["dump", "--what", ""],
    ["verify", "--s", "x", "--f", "json"],
    ["verify", "--suite"],
]


@pytest.mark.parametrize("argv", BENCH_JOBS + LISTED, ids=repr)
def test_parser_matches_argparse(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert_same(argv)


@pytest.mark.parametrize("argv", BENCH_JOBS, ids=" ".join)
def test_plain_path_reads_every_job(argv):
    assert cli._plain(argv) == reference(argv)


@pytest.mark.parametrize("argv", LISTED, ids=repr)
def test_plain_path_leaves_help_and_errors_to_argparse(argv):
    if outcome(reference, argv)[0] is not None:
        assert cli._plain(argv) is None


_OPTIONS = ["--help", "--n", "--order", "--output", "--format", "--suite", "--what"]
_PREFIXES = sorted({o[:k] for o in _OPTIONS for k in range(3, len(o) + 1)})
_INTS = ["0", "1", "2", "-1", "-3", " 2 ", "1_0"]
_CHOICES = ["json", "csv", "text"]
ALPHABET = (
    COMMAND_NAMES
    + _PREFIXES
    + [f"{p}={v}" for p in _PREFIXES for v in ("3", "-3", "json", "x", "")]
    + ["-h", "--", "x"]
    + _INTS
    + _CHOICES
)
tokens = st.sampled_from(ALPHABET)
argvs = st.tuples(
    st.lists(tokens, max_size=2),
    st.sampled_from(COMMAND_NAMES + ["--", "x"]),
    st.lists(tokens, max_size=8),
).map(lambda parts: parts[0] + [parts[1]] + parts[2])


@settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argvs)
def test_parser_matches_argparse_on_random_argvs(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert_same(argv)


def test_value_after_equals_is_kept():
    # argparse drops a "--" given as `--opt=--` and stores an empty list,
    # which the program then fails on with a TypeError
    code, _, err, _ = outcome(cli._parse_args, ["dump", "--what=I", "--n=--"])
    assert code == 2 and err.endswith("error: argument --n: invalid int value: '--'\n")
    assert outcome(cli._parse_args, ["dump", "--what=--", "--output=--"])[3] == {
        "command": "dump", "n": 5, "order": 6, "output": "--", "what": "--",
    }


def test_help_ignores_terminal_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    wide = outcome(cli._parse_args, ["verify", "-h"])
    monkeypatch.setenv("COLUMNS", "40")
    assert outcome(cli._parse_args, ["verify", "-h"]) == wide


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv", [["dump", "--what", "I", "--n", "3", "--order", "4"], ["-h"]], ids=" ".join
)
def test_closed_stdout_exits_141(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hypergw.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
