"""Every function of the package is entered by some command, or says why not.

A fixed list of commands runs in process under sys.setprofile, from cold
stage caches: verify at n = 1..8 and orders 1 and 4, text and JSON (theorem3
left out at n = 1, which refuses it); invariants at n = 1..8 in all three
formats; the six dumps; and the help and refusal lines.  Each `def` of
src/hypergw that none of them enters must be on UNENTERED with one of four
reasons, and each entry there must name a def that none of them enters.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from hypergw import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypergw"
JOB = ROOT / "perfbench" / "job.py"

# the four reasons a def may stay unentered
PINNED = "named in perfbench/job.py LAYERS"
CALLED_BY = "called only by"  # (CALLED_BY, callers), each of them on this list
FAILURE = "reached only on a failure"
ERROR = "an error constructor"
DUNDER = "a dunder"

# RatFunc's arithmetic and the gcd chain stay until ROADMAP item 8 deletes
# them with their LAYERS entries, once ROADMAP item 1 frees those
UNENTERED = {
    "errors.BadConstantTerm.__init__": ERROR,
    "errors.RegularityViolation.__init__": ERROR,
    "hyper.HyperSpec.__setattr__": DUNDER,
    "hyper.HyperSpec.__delattr__": DUNDER,
    "polys.norm": (CALLED_BY, ("polys.divmod_poly", "polys.shift")),
    "polys._fractions": (CALLED_BY, ("polys.mul", "polys.series_inv", "polys.series_mul")),
    "polys.mul": PINNED,
    "polys.divmod_poly": PINNED,
    "polys.monic": (CALLED_BY, ("polys.gcd_poly",)),
    "polys._pseudo_rem": (CALLED_BY, ("polys._gcd_ints",)),
    "polys.gcd_poly": PINNED,
    "polys._gcd_ints": (CALLED_BY, ("polys.gcd_poly", "residues._lowest_terms")),
    "polys.shift": PINNED,
    "polys.series_inv": PINNED,
    "polys.series_mul": PINNED,
    "report.Record.__repr__": DUNDER,
    "residues.RatFunc.__init__": PINNED,
    "residues.RatFunc.from_scalar": (CALLED_BY, ("residues._coerce",)),
    "residues.RatFunc.num": (CALLED_BY, ("residues.RatFunc.shift",)),
    "residues.RatFunc.den": (CALLED_BY, ("residues.RatFunc.shift",)),
    "residues.RatFunc.__eq__": DUNDER,
    "residues.RatFunc.__hash__": DUNDER,
    "residues.RatFunc.__repr__": DUNDER,
    "residues.RatFunc.__add__": PINNED,
    # kept beside the pinned __add__ and __mul__ until ROADMAP item 8
    "residues.RatFunc.__neg__": DUNDER,
    "residues.RatFunc.__sub__": DUNDER,
    "residues.RatFunc.__rsub__": DUNDER,
    "residues.RatFunc.__mul__": PINNED,
    "residues.RatFunc.__truediv__": DUNDER,
    "residues.RatFunc.shift": PINNED,
    "residues._add": (CALLED_BY, ("residues.RatFunc.__add__",)),
    "residues._lowest_terms": (
        CALLED_BY,
        ("residues.RatFunc.__init__", "residues.RatFunc.__add__", "residues.RatFunc.__mul__"),
    ),
    # and by the dunders kept beside them
    "residues._coerce": (CALLED_BY, ("residues.RatFunc.__add__", "residues.RatFunc.__mul__")),
    "residues.USeriesRF.__eq__": DUNDER,
    "residues.USeriesRF.__repr__": DUNDER,
    "residues.USeriesRF.__rsub__": DUNDER,
    "residues._case_failure": FAILURE,
    "series.QSeries.constant_term": FAILURE,
    "series.QSeries.__repr__": DUNDER,
    "series.QSeries.__rsub__": DUNDER,
    "series.QSeries.compose": PINNED,
    # the stages hand out rows: i_series builds the only TPoly, and
    # tests/oracles.py keeps the old routes on TPoly products and WSeries.log
    "series.TPoly.from_qseries": (CALLED_BY, ("series.TPoly._coerce",)),
    "series.TPoly.__eq__": DUNDER,
    "series.TPoly.__hash__": DUNDER,
    "series.TPoly.__repr__": DUNDER,
    "series.TPoly._coerce": (CALLED_BY, ("series.TPoly.__mul__",)),
    "series.TPoly.__mul__": PINNED,
    "series.WSeries.__init__": (CALLED_BY, ("series.WSeries.log",)),
    "series.WSeries.log": PINNED,
    "series.WSeries.__eq__": DUNDER,
    "series.WSeries.__repr__": DUNDER,
    "series.exp_coordinate_inverse": PINNED,
}

ALL_BUT_THEOREM3 = ",".join(name for name in cli.SUITES if name != "theorem3")


def commands():
    out = []
    for n in range(1, 9):
        suites = ["--suite", ALL_BUT_THEOREM3] if n == 1 else []
        for order in (1, 4):
            for fmt in ("text", "json"):
                out.append(["verify", "--n", n, "--order", order, "--format", fmt, *suites])
    out += [
        ["invariants", "--n", n, "--order", 4, "--format", fmt]
        for fmt in ("text", "json", "csv")
        for n in range(1, 9)
    ]
    out += [["dump", "--what", what, "--n", 5, "--order", 4] for what in cli.DUMPABLE]
    out += [
        ["--help"],
        ["verify", "--help"],
        ["verify", "--n", 0],
        ["verify", "--suite="],
        ["verify", "--suite", "nope"],
        ["verify", "--n", 1, "--suite", "theorem3"],
        ["dump", "--what", "nope"],
        ["dump", "--n=3", "--what", "I", "--order", -1],
        ["invariants", "--output", str(ROOT / "no such directory" / "table.txt")],
    ]
    return [[str(arg) for arg in argv] for argv in out]


def package_defs():
    """Every def of the package as module.qualname, the name its code
    object carries (co_qualname)."""
    out = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def entered_defs():
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in commands():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
    finally:
        sys.setprofile(previous)
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if Path(code.co_filename).parent == PACKAGE
    }


def layer_names():
    namespace = {"__name__": "perfbench_job"}
    exec(compile(JOB.read_text(), str(JOB), "exec"), namespace)
    return {f"{module}.{qual}" for module, qual, _ in namespace["LAYERS"]}


def test_every_def_is_entered_or_listed_with_its_reason(cold_stages):
    defs = package_defs()
    assert set(UNENTERED) <= defs, "listed names that are no def of the package"
    unentered = defs - entered_defs()
    assert sorted(unentered - set(UNENTERED)) == [], "entered by no command and not listed"
    assert sorted(set(UNENTERED) - unentered) == [], "listed but entered"


def test_each_reason_holds():
    layers = layer_names()

    def pinned(name):  # named in LAYERS, or called only by such names
        reason = UNENTERED.get(name)
        if reason == PINNED:
            return name in layers
        return isinstance(reason, tuple) and all(pinned(caller) for caller in reason[1])

    for name, reason in UNENTERED.items():
        if reason == DUNDER:
            assert name.rsplit(".", 1)[1].startswith("__"), name
        elif reason == ERROR:
            assert name.startswith("errors.") and name.endswith(".__init__"), name
        elif reason != FAILURE:
            assert reason == PINNED or reason[0] == CALLED_BY, name
            assert pinned(name), name
