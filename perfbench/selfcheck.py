"""Check that the benchmark reports broken jobs instead of crashing on them.

    python3 perfbench/selfcheck.py

Runs a three-job workload through run.main in both modes: one good job, one
whose expected digest is corrupted, and one that exits 1 with a traceback
(theorem3 needs n >= 2).  Both bad jobs must count as failed, the command
must exit 1 with a result line, and every emitted metric name must match
[A-Za-z0-9_.-]+.  Also feeds a tampered quintic table to the table check.
Exits 0 when all of this holds.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

GOOD = ("dump", "--what", "I", "--n", "3", "--order", "4")
CORRUPT = ("dump", "--what", "mirror", "--n", "3", "--order", "4")
CRASH = ("verify", "--suite", "theorem3", "--n", "1", "--order", "2")


def check(cond, what):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok: {what}")


def run_main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines


def main():
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    digests[run.job_key(CORRUPT)] = {"exit": 0, "sha256": "0" * 64}
    digests[run.job_key(CRASH)] = {"exit": 0, "sha256": "0" * 64}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    run.DIGESTS = os.path.join(run.OUT_DIR, "digests-selfcheck.json")
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh)
    run.WORKLOADS = {"selfcheck": [GOOD, CORRUPT, CRASH]}

    with open(run.SPEC) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result, lines = run_main(
            ["--workload", "selfcheck", "--seed", "1", "--seconds", "0",
             "--trace", str(trace)])
        runs = 3 if trace else run.MIN_ROUNDS  # plain, traced, counted
        check(code == 1, f"trace {trace}: exit code 1 on failed jobs")
        check(result["correct"] is False, f"trace {trace}: result is marked incorrect")
        check(result["attempted"] == 3 * runs, f"trace {trace}: every job attempted")
        check(result["failed"] == 2 * runs, f"trace {trace}: both bad jobs failed")
        check(any("traceback" in ln for ln in lines), f"trace {trace}: traceback reported")
        check(any("recorded digest" in ln for ln in lines),
              f"trace {trace}: digest mismatch reported")
        names = list(result["metrics"])
        check(names == [m["name"] for m in spec[section]],
              f"trace {trace}: every {section} metric emitted")
        check(all(run.NAME_RE.match(n) for n in names),
              f"trace {trace}: names match [A-Za-z0-9_.-]+")

    table = {"rows": [{"d": 1, "N0": "2875", "GW1_reduced": "0", "N1": "2875/12",
                       "n0": "2875", "n1": "1/2"}]}
    problems = run.quintic_table_problems(json.dumps(table))
    check(any("not an integer" in p for p in problems), "fractional n1 is caught")
    check(any("fewer than three rows" in p for p in problems), "short table is caught")
    check(any("row d=1" in p for p in problems), "wrong row 1 is caught")
    os.remove(run.DIGESTS)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
