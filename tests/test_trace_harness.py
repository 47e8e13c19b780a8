"""The benchmark's trace mode runs on the package as it stands.

perfbench/job.py wraps the layer functions and hyper stages it names by
looking each one up in its module or class; a rename in the package would
make `--trace 1` runs fail.  Each job here runs in a subprocess, as the
benchmark runs it.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hypergw import cli

ROOT = Path(__file__).resolve().parents[1]
JOB = ROOT / "perfbench" / "job.py"


def _job_module():
    # executed from source, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_job"}
    exec(compile(JOB.read_text(), str(JOB), "exec"), namespace)
    return SimpleNamespace(**namespace)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--order", "2"],
        ["invariants", "--n", "5", "--order", "4"],
        ["dump", "--what", "Q", "--n", "4", "--order", "3"],
    ],
)
def test_trace_mode_wraps_every_layer(argv, capsys):
    job = _job_module()
    done = subprocess.run(
        [sys.executable, str(JOB), "trace", str(ROOT / "src"), "--", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    marker = [line for line in done.stderr.splitlines() if line.startswith(job.MARKER)]
    assert len(marker) == 1, done.stderr
    trace = json.loads(marker[0][len(job.MARKER):])["trace"]
    expected = {name for _, _, name in job.LAYERS} | {"hyper." + s for s in job.STAGES}
    assert expected <= set(trace["names"])
    assert trace["spans"]
    # the CLI tables must reach the wrapped functions, not copies taken at import
    spanned = {trace["names"][span[0]] for span in trace["spans"]}
    if argv[0] == "verify":
        suites = {name for _, _, name in job.LAYERS if name.startswith("cli.suite.")}
        assert len(suites) == 8 and suites <= spanned
    if argv[0] == "dump":
        assert {"cli.render_dump", "hyper.regular_kernel"} <= spanned
    # the traced job prints what the CLI prints
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, most",
    [
        # the quintic table and the CI gate of the benchmark; before the series
        # held integer numerators over one denominator they built 8,882 and
        # 24,811 Fractions
        (["invariants", "--n", "5", "--order", "24", "--format", "json"], 1776),
        (["verify", "--n", "5", "--order", "6"], 4962),
    ],
)
def test_count_mode_bounds_fraction_constructions(argv, most):
    job = _job_module()
    done = subprocess.run(
        [sys.executable, str(JOB), "count", str(ROOT / "src"), "--", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    marker = [line for line in done.stderr.splitlines() if line.startswith(job.MARKER)]
    assert len(marker) == 1, done.stderr
    assert json.loads(marker[0][len(job.MARKER):])["fractions"] <= most
