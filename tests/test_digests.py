"""The benchmark's output gate, in process: every job recorded in
perfbench/digests.json exits with its recorded code and prints exactly the
recorded bytes (their sha256).  A changed byte fails here before any
benchmark run.  The digests are only read."""

import hashlib
import json
from pathlib import Path

import pytest

from hypergw import cli

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("job", sorted(DIGESTS))
def test_job_matches_its_digest(job, capsys, cold_stages):
    # from empty caches, as in the fresh process the benchmark runs each job in
    try:
        code = cli.main(job.split())
    except SystemExit as exc:  # as perfbench/job.py reads an exit
        code = exc.code
    out = capsys.readouterr().out.encode()
    want = DIGESTS[job]
    assert code == want["exit"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]
