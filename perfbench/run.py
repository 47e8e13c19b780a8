"""Cold-CLI benchmark of hypergw: fixed job lists, one fresh interpreter per job.

    python3 perfbench/run.py --workload quintic-table --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that holds `src/hypergw`; it imports the
package from there, never from an installed copy.  Jobs run one at a time.

--trace 0 repeats the workload's job list for about --seconds (at least
MIN_ROUNDS rounds) and reports the end-to-end metrics named in BENCHMARK.json:
  wall_s        sum over the jobs of the time inside hypergw.cli.main (per
                job, the median over rounds);
  cpu_s         the same sum for the user plus system CPU of each job process;
  setup_s       median over all spawns of the time from spawn to the point
                where cli.main is about to run (interpreter start, import
                hypergw);
  peak_rss_mib  the largest per-job median of the peak resident set.
The three times are in reference seconds: each is divided by how much slower
than CAL_REFERENCE_NS the speed probe (job.py) ran while its job ran, so that
the load of a shared machine cancels out.  The unscaled times are printed too.
fail_ratio (failed / attempted jobs) is printed before the result line and
is carried by its `failed` and `attempted` fields.

--trace 1 runs the job list once untraced, once traced and once counting
Fraction constructions (see job.py), and reports the per-layer metrics named
in BENCHMARK.json: <layer>.{calls,total_s,self_s,repeat_calls},
fractions.new.calls and trace.overhead_s.  The spans of the latest traced
run go to .perfbench_out/spans-<workload>.json.

Every job's exit code and standard-output sha256 must match digests.json;
invariant tables of the quintic must also have integral instanton numbers
and the paper's first three rows.  Any mismatch, traceback or unexpected exit
counts as a failed job and makes the command exit 1.

--record rewrites digests.json from the current program's output.
"""

import argparse
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from job import LAYERS, MARKER, STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_ROUNDS = 3
DEADLINE_S = 170  # every run ends, failed if need be, well inside 180 s
CAL_REFERENCE_NS = 850_000  # about a speed probe sample on an unloaded 2-vCPU VM
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

DUMPS = ("I", "mirror", "mu", "F", "Q", "theorem2_rhs")

# Quintic rows d = 1..3 (N0, reduced genus 1, N1, n0, n1), from the paper.
QUINTIC_ROWS = (
    ("2875", "0", "2875/12", "2875", "0"),
    ("4876875/8", "2875/32", "407125/8", "609250", "0"),
    ("8564575000/27", "49355000/81", "243388750/9", "317206375", "609250"),
)


def _dim_sweep():
    jobs = []
    for n in range(2, 9):
        jobs.append(("verify", "--suite", "props31,props32,theorem3",
                     "--n", str(n), "--order", "4"))
        jobs.append(("invariants", "--n", str(n), "--order", "8", "--format", "json"))
        jobs += [("dump", "--what", w, "--n", str(n), "--order", "4") for w in DUMPS]
    return jobs


WORKLOADS = {
    "quintic-table": [("invariants", "--n", "5", "--order", "24", "--format", "json")],
    "quintic-verify": [("verify", "--n", "5", "--order", "6")],
    "dim-sweep": _dim_sweep(),
}


def job_list(workload, seed):
    """The seed only permutes the order; each job's output is order-free."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def job_key(job):
    return " ".join(job)


# -- one job -------------------------------------------------------------------


def quintic_table_problems(stdout):
    """Instanton numbers of a quintic JSON table are integers (Gopakumar-Vafa
    integrality) and rows 1-3 are the paper's."""
    try:
        rows = json.loads(stdout)["rows"]
        problems = []
        for row in rows:
            for col in ("n0", "n1"):
                if Fraction(row[col]).denominator != 1:
                    problems.append(f"{col} at d={row['d']} is not an integer")
        for row, want in zip(rows, QUINTIC_ROWS):
            got = tuple(row[c] for c in ("N0", "GW1_reduced", "N1", "n0", "n1"))
            if got != want:
                problems.append(f"row d={row['d']} is {got}, expected {want}")
        if len(rows) < len(QUINTIC_ROWS):
            problems.append("table has fewer than three rows")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable quintic table: {exc!r}"]


def is_quintic_table(job):
    return job[0] == "invariants" and "json" in job and job[job.index("--n") + 1] == "5"


class Runner:
    """Spawns jobs one at a time and gates each against its expected output."""

    def __init__(self, digests, deadline):
        self.digests = digests
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def spawn(self, mode, job):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.monotonic_ns()
        cmd = [sys.executable, JOB, mode, SRC, "--", *job]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, b"", "timed out"
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        stderr = proc.stderr.decode("utf-8", "replace")
        head, sep, tail = stderr.rpartition(MARKER)
        report = json.loads(tail) if sep else None
        if report is not None:
            report["exit"] = proc.returncode
            probe = report["probe"] or {"inside_ns": 0, "cpu_ns": 0}
            report["setup_ns"] = report["ready_ns"] - spawned
            report["wall_ns"] = (report["leave_ns"] - report["enter_ns"]
                                 - probe["inside_ns"])
            report["cpu_s"] = (after.ru_utime - before.ru_utime
                               + after.ru_stime - before.ru_stime
                               - probe["cpu_ns"] / 1e9)
        return report, proc.stdout, head if sep else stderr

    def run(self, mode, job):
        """One gated job; returns its report, or None when it failed."""
        self.attempted += 1
        report, stdout, stderr = self.spawn(mode, job)
        key = job_key(job)
        expected = self.digests.get(key)
        problems = []
        if expected is None:
            problems.append("no recorded digest")
        if report is None:
            problems.append("no job report: " + stderr.strip()[-300:])
        elif expected is not None and report["exit"] != expected["exit"]:
            problems.append(f"exit {report['exit']}, expected {expected['exit']}")
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback")
        if expected is not None and hashlib.sha256(stdout).hexdigest() != expected["sha256"]:
            problems.append("stdout differs from the recorded digest")
        if is_quintic_table(job):
            problems += quintic_table_problems(stdout)
        if problems:
            self.failures.append(f"[{mode}] {key}: " + "; ".join(problems))
            return None
        return report


# -- metrics -------------------------------------------------------------------


def end_to_end(runner, jobs, seconds):
    reports = [[] for _ in jobs]
    start = time.monotonic()
    rounds = 0
    while True:
        began = time.monotonic()
        for i, job in enumerate(jobs):
            rep = runner.run("plain", job)
            if rep is not None:
                reports[i].append(rep)
        rounds += 1
        now = time.monotonic()
        if rounds >= MIN_ROUNDS and now - start + (now - began) > seconds:
            break
        if now + (now - began) > runner.deadline:
            break

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    # slowness of the machine against the reference while each job ran
    slowness = [[med(r["probe"]["samples"]) / CAL_REFERENCE_NS for r in reps]
                for reps in reports]

    def summary(scale):
        """Per job the median over its rounds, summed over the jobs; setup_s
        is the median over all spawns.  `scale` divides each time by the
        slowness of the machine while its job ran."""
        def times(key):
            return [[r[key] / (s if scale else 1) for r, s in zip(reps, slow)]
                    for reps, slow in zip(reports, slowness)]

        return {"wall_s": sum(med(w) for w in times("wall_ns")) / 1e9,
                "cpu_s": sum(med(c) for c in times("cpu_s")),
                "setup_s": med([x for xs in times("setup_ns") for x in xs]) / 1e9}

    values = summary(scale=True)
    values["peak_rss_mib"] = max(med([r["maxrss_kib"] / 1024 for r in reps])
                                 for reps in reports)
    unscaled = ", ".join(f"{k} {v:.4f} s" for k, v in summary(scale=False).items())
    speed = 1 / med([x for xs in slowness for x in xs] or [1.0])
    return values, (f"{rounds} rounds of {len(jobs)} jobs; machine at {speed:.2f}x "
                    f"reference speed; as measured: {unscaled}")


def per_layer(runner, jobs, spans_path):
    layers = [name for _, _, name in LAYERS] + ["hyper." + s for s in STAGES]
    calls, total, self_ns = ({name: 0 for name in layers} for _ in range(3))
    repeats = {"hyper." + s: 0 for s in STAGES}
    fractions = 0
    plain_ns = traced_ns = 0
    dumped = []
    for j, job in enumerate(jobs):
        plain = runner.run("plain", job)
        traced = runner.run("trace", job)
        counted = runner.run("count", job)
        if plain is None or traced is None or counted is None:
            continue
        plain_ns += plain["wall_ns"]
        traced_ns += traced["wall_ns"]
        fractions += counted["fractions"]
        trace = traced["trace"]
        names = trace["names"]
        spans = trace["spans"]
        covered = [0] * len(spans)
        for name_idx, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for sid, (name_idx, t0, t1, parent, outer) in enumerate(spans):
            name = names[name_idx]
            calls[name] += 1
            self_ns[name] += t1 - t0 - covered[sid]
            if outer:
                total[name] += t1 - t0
        for name, count in trace["repeats"].items():
            repeats[name] += count
        dumped.append({"job": j, "argv": list(job), **trace})
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"span_fields": ["name", "start_ns", "end_ns", "parent", "outermost"],
                   "jobs": dumped}, fh, separators=(",", ":"))

    values = {"fractions.new.calls": fractions,
              "trace.overhead_s": (traced_ns - plain_ns) / 1e9}
    stats = {"calls": calls, "total_s": total, "self_s": self_ns,
             "repeat_calls": repeats}
    for stat, table in stats.items():
        for layer, v in table.items():
            values[f"{layer}.{stat}"] = v / 1e9 if stat.endswith("_s") else v
    return values, f"{len(jobs)} jobs, spans in {os.path.relpath(spans_path, ROOT)}"


# -- entry point ---------------------------------------------------------------


def record():
    digests = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            runner = Runner({}, time.monotonic() + DEADLINE_S)
            report, stdout, _ = runner.spawn("plain", job)
            if report is None:
                sys.exit(f"job failed while recording: {job_key(job)}")
            digests[job_key(job)] = {"exit": report["exit"],
                                     "sha256": hashlib.sha256(stdout).hexdigest()}
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {os.path.relpath(DIGESTS, ROOT)}")


def pick(spec_metrics, values):
    """The metrics BENCHMARK.json names, each with its unit; all must exist."""
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if not NAME_RE.match(name):
            raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        if name not in values:
            raise KeyError(f"metric {name!r} was not measured")
        out[name] = {"value": values[name], "unit": m["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite digests.json from the current outputs")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypergw", "cli.py")):
        sys.stderr.write(f"no hypergw sources under {SRC}; run from a checkout\n")
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(SPEC) as fh:
        spec = json.load(fh)
    with open(DIGESTS) as fh:
        digests = json.load(fh)

    runner = Runner(digests, time.monotonic() + DEADLINE_S)
    warm, _, err = runner.spawn("warmup", ())
    if warm is None or warm["exit"] != 0:
        sys.stderr.write("cannot start a job: " + err)
        return 2
    jobs = job_list(args.workload, args.seed)
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.json")
        values, what = per_layer(runner, jobs, spans)
        metrics = pick(spec["per_layer"], values)
    else:
        values, what = end_to_end(runner, jobs, args.seconds)
        metrics = pick(spec["end_to_end"], values)

    for failure in runner.failures:
        print("FAILED " + failure)
    print(f"{args.workload} seed {args.seed}: {what}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6f} {m['unit']}")
    failed = len(runner.failures)
    print(f"  {'fail_ratio':48s} {failed / max(runner.attempted, 1):>16.6f} "
          f"({failed}/{runner.attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
