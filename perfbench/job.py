"""Run one hypergw CLI job in this fresh interpreter and report how it went.

Usage: python3 job.py MODE SRC_DIR -- CLI_ARGS...

MODE is one of
  plain   run the job, with the SpeedProbe sampling the machine's speed;
  trace   wrap the layer functions listed in LAYERS and record one span per
          call (name, start, end, parent span), kept in memory until the job
          ends;
  count   count Fraction constructions, the arithmetic kernel;
  warmup  import hypergw only (fills the bytecode cache), run nothing.

The CLI's standard output and exit code pass through unchanged.  After the
job, one line starting with MARKER goes to standard error, holding a JSON
object with the job's timings (monotonic nanoseconds, comparable with the
parent process), its peak resident set, and the spans or count of the mode.
"""

import functools
import json
import os
import resource
import signal
import sys
import time

MARKER = "@@perfbench@@"

# (module, qualified name, metric prefix); a qualified name "Class.method"
# wraps the method and every alias of it in the class, such as
# __rmul__ = __mul__.
LAYERS = (
    [("series", q, "series." + q) for q in (
        "change_exp_variable",
        "exp_coordinate_inverse",
        "QSeries.compose",
        "QSeries.__mul__",
        "QSeries.__truediv__",
        "QSeries.exp",
        "QSeries.log",
        "TPoly.__mul__",
        "WSeries.log",
    )]
    + [("residues", q, "residues." + q) for q in (
        "RatFunc.__init__",
        "RatFunc.__add__",
        "RatFunc.__mul__",
        "RatFunc.shift",
        "laurent_at_zero",
        "residue_at",
        "USeriesRF.__mul__",
        "USeriesRF.log_one_plus",
        "USeriesRF.weighted_residues",
        "exp_over_hbar",
        "regularize",
        "moment_identity_check",
        "double_residue_split_kernel",
    )]
    + [("polys", q, "polys." + q) for q in (
        "mul", "gcd_poly", "shift", "divmod_poly", "series_inv", "series_mul",
    )]
    + [("invariants", q, "invariants." + q) for q in (
        "reduced_genus1_series",
        "extract_invariants",
        "quintic_genus0",
        "quintic_genus1",
        "instanton_inversion",
        "locus_split_check",
        "boundary_locus_by_residues",
        "assemble_table",
    )]
    + [("cli", "_suite_" + fn, "cli.suite." + suite) for suite, fn in (
        ("props31", "props31"),
        ("props32", "props32"),
        ("regularize", "regularize"),
        ("residues", "residues"),
        ("appendixA", "appendix_a"),
        ("appendixB", "appendix_b"),
        ("theorem3", "theorem3"),
        ("special", "special"),
    )]
    + [("cli", "render_dump", "cli.render_dump"), ("cli", "main", "cli.main")]
)

# hyper stages also count calls whose arguments were already seen in the job
STAGES = (
    "kernel", "kernel_inv_hbar", "i_series", "diagonal_series", "mirror_shift",
    "regularizing_exponent", "regular_kernel", "ladder_series",
    "ladder_residue", "log_kernel_w",
)


class Tracer:
    """Spans in parallel lists; span i is a call of names[name_of[i]]."""

    def __init__(self):
        self.names = []
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.outer = []  # no enclosing span of the same name
        self.repeats = {}
        self._stack = [-1]
        self._depth = []

    def wrap(self, name, fn, keyed=False):
        idx = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        name_of, start, end, parent, outer = (
            self.name_of, self.start, self.end, self.parent, self.outer)
        stack, depth, clock = self._stack, self._depth, time.perf_counter_ns
        seen = set()
        if keyed:
            self.repeats[name] = 0
        repeats = self.repeats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    repeats[name] += 1
                else:
                    seen.add(key)
            sid = len(name_of)
            name_of.append(idx)
            parent.append(stack[-1])
            outer.append(depth[idx] == 0)
            end.append(0)
            depth[idx] += 1
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                depth[idx] -= 1

        return traced

    def to_json(self):
        t0 = self.start[0] if self.start else 0
        return {
            "names": self.names,
            "spans": [
                [n, s - t0, e - t0, p, int(o)]
                for n, s, e, p, o in zip(
                    self.name_of, self.start, self.end, self.parent, self.outer)
            ],
            "repeats": self.repeats,
        }


def _rebind(modules, old, new):
    """Point every module-level name bound to `old` at `new`, so that names
    taken with `from ... import` are traced as well."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install_tracer(tracer):
    import importlib

    modules = [importlib.import_module("hypergw." + m)
               for m in ("series", "polys", "residues", "hyper", "invariants", "cli")]
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    targets = [(m, q, name, False) for m, q, name in LAYERS]
    targets += [("hyper", s, "hyper." + s, True) for s in STAGES]
    for mod_name, qual, name, keyed in targets:
        mod = by_name[mod_name]
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            old = cls.__dict__[meth]
            new = tracer.wrap(name, old)
            for attr, val in list(vars(cls).items()):
                if val is old:
                    setattr(cls, attr, new)
        else:
            old = getattr(mod, qual)
            _rebind(modules, old, tracer.wrap(name, old, keyed))


def install_counter():
    from fractions import Fraction

    counter = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counter[0] += 1
        return original(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    return counter


PROBE_PERIOD_S = 0.25
PROBE_REPS = 5


def _calibration_work():
    """Fixed work in two parts of similar length: an integer loop, and
    building strings, a list and a dict.  Standard library only, so no
    change to hypergw changes its cost.  Of the loops tried on all three
    workloads, this pair tracked the slowdowns of hypergw jobs on a shared
    machine most closely; a loop of small Fractions over-reacts to them."""
    s = 0
    for i in range(6000):
        s += i * i % 7
    words = [str(i) * 3 for i in range(2000)]
    sizes = {w: len(w) for w in words}
    return s + len(sizes)


class SpeedProbe:
    """Times the calibration work before the job, every PROBE_PERIOD_S
    during it (from a SIGALRM handler, so on the job's own CPU and in its
    own phase of the machine's load) and after it.  The parent scales the
    job's times by these samples; the probe's own time is subtracted."""

    def __init__(self):
        self.samples = []  # ns, median of PROBE_REPS repetitions each
        self.inside_ns = 0  # probe wall time between start() and stop()
        self.cpu_ns = 0  # probe CPU time, all samples

    def sample(self):
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        reps = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter_ns()
            _calibration_work()
            reps.append(time.perf_counter_ns() - t0)
        self.samples.append(sorted(reps)[PROBE_REPS // 2])
        self.cpu_ns += time.process_time_ns() - cpu0
        return time.perf_counter_ns() - wall0

    def _on_alarm(self, signum, frame):
        self.inside_ns += self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv):
    mode, src = argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    sys.path.insert(0, src)
    import hypergw.cli

    here = os.path.realpath(hypergw.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"hypergw imported from {here}, not from {src}\n")
        return 2
    tracer = counter = None
    if mode == "trace":
        tracer = Tracer()
        install_tracer(tracer)
    elif mode == "count":
        counter = install_counter()
    elif mode not in ("plain", "warmup"):
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 2
    # read after install_tracer, which rebinds cli.main
    entry = hypergw.cli.main if mode != "warmup" else (lambda args: 0)
    probe = SpeedProbe() if mode == "plain" else None

    ready = time.monotonic_ns()
    if probe:
        probe.sample()
        probe.start()
    enter = time.monotonic_ns()
    try:
        code = entry(cli_args)
    except SystemExit as exc:
        code = exc.code
    if probe:
        probe.stop()  # before `leave`, so every alarm sample is inside the job
    leave = time.monotonic_ns()
    if probe:
        probe.sample()
    if code is None:
        code = 0
    elif not isinstance(code, int):
        code = 1
    count = counter[0] if counter else None
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready_ns": ready,
        "enter_ns": enter,
        "leave_ns": leave,
        "probe": vars(probe) if probe else None,
        "maxrss_kib": usage.ru_maxrss,
        "fractions": count,
        "trace": tracer.to_json() if tracer else None,
    }
    sys.stderr.write("\n" + MARKER + json.dumps(result, separators=(",", ":")) + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
