"""Print what eval_I answers on the benchmark's seeded queries, one JSON line each.

    python3 scripts/route_outcomes.py SEED...
    python3 scripts/route_outcomes.py --grid SEED...
    python3 scripts/route_outcomes.py [--grid] --against FILE SEED...

For every draw of perfbench.workloads.draw_queries(SEED) with t > 0 the
script prints the outcome of method="descent" and of method="auto", so the
direct route (auto at a canonical shape |s| < 4, and auto's fallbacks) is
pinned as well as descent.  A line holds the query, the method and either
the exact repr of the value or the exception's type and message, so the
outputs of two checkouts can be compared with cmp.  There is no work
budget, unlike in the benchmark: every query runs to its end, the direct
contours of thousands of segments included (up to about 2 s of CPU for some
draws).  The package is imported from this checkout's src; perfbench is
only read.

With --grid the lines pin the grid (batch) path instead, where a
contour's rules carry one row per point: for every draw with t > 0,
eval_I_grid of the draw's symbol, m and t with method "auto" and "direct"
(lines "grid-auto" and "grid-direct") on the canonical shapes GRID_SHAPES,
placed at y as the draws place theirs, the value being the repr of the
list of values; then, once, the grids of FIXED_GRIDS at m = 0 and 1 (seed
"fixed"): k^5 with four direct points and a descent window that fails from
s = 34 on, under auto and descent, k^3 with one descent point under auto,
400 uniform points y in [298, 302] of k^3 with drift 300 under direct
(its shapes carry the rounding of y near 300 and still take blocks of
20 rows), and k^3 at y = 0.5, 6 and 1e300 under auto, whose scaled phase
at 1e300 overflows (NoConvergence on the direct route); then overshoot_table([3, 5, 9]) at sigma = 1, t = 1,
overshoot_table([2, 3, 4, 17, 33]) at sigma = -1, t = 1, whose -k^3 row
has its real-part maximum at the scan's end, and overshoot_table([63, 64])
at sigma = 1, t = 1, whose scans of 2,500 rows and more take the blocked
direct integrand, and overshoot_table([2, 4, 8]) at sigma = -1j, t = 1,
real dissipative profiles (four "gibbs" lines, index null, "edge", "high"
and "heat", the repr of the table); then one "cli" line for each run of
CLI_RUNS, the command line in-process with what it writes to stdout and
stderr and its exit code: the benchmark's solve workload (its CSV), eval
and kernel as CSV, gibbs-table as markdown and as JSON, one contour-dump,
and one usage error (exit 2).

With --against FILE the lines are not printed but compared with FILE, the
output of an earlier run on the same seeds and mode (say, of another
checkout), for changes that move values only in their last bits.  Every
line that differs in its outcome kind (value or exception type) or
exception message, or in how many numbers its value shows, or whose
numbers move by more than 1e-9 relative (far past the last bits), or has
no counterpart, is printed.  Then, for each method apart, the largest
|v - v0| / (1 + |v0|) over the numbers of its values (v0 from FILE) is
printed with the line where it occurs (seed, index, query).  The exit
code is 1 when any line differs.
"""

import argparse
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dispgibbs import asymptotic_I, cli, eval_I, eval_I_grid, gibbs, normalize, residue_part  # noqa: E402
from workloads import GIBBS_DEGREES, SOLVE_ARGS, draw_queries  # noqa: E402

GRID_SHAPES = np.linspace(-8.0, 8.0, 9)   # both routes under auto: |s| >= 4 is descent
FIXED_GRIDS = (   # (coeffs, ys at t = 1, methods)
    ({5: 1}, [-1.0, -0.5, 0.5, 1.0] + np.linspace(33.0, 36.0, 7).tolist(), ("auto", "descent")),
    ({3: 1}, [-2.0, -1.0, 0.0, 1.0, 2.0, 6.0], ("auto",)),
    ({3: 1, 1: 300.0}, np.linspace(298.0, 302.0, 400).tolist(), ("direct",)),
    ({3: 1}, [0.5, 6.0, 1e300], ("auto",)),
)
# (index, coeffs, given as a relation, m, y, t) of the plateau lines: the
# plateau reads the drift (its indicator is y - omega_1 t < 0) and the
# phase rate (a factor exp(-i omega_0 t)) as eval_I does
PLATEAUS = (
    *((f"k3-m{m}", {3: 1}, True, m, -6.0, 0.5) for m in range(4)),
    ("drift", {3: 1, 1: 40.0}, True, 0, 31.0, 1.0),
    ("phase-rate", {3: 1, 0: 1.0}, True, 0, -30.0, 1.0),
    ("mixed-dict", {3: 2, 2: -0.3j, 1: 5, 0: 0.7}, False, 2, -40.0, 0.7),
    ("mixed-relation", {3: 2, 2: -0.3j, 1: 5, 0: 0.7}, True, 2, -40.0, 0.7),
)
# (index, n_list, sigma) of the gibbs lines past the benchmark's table: the
# real-part maximum of -k^3 sits at the scan's right end, so its Chebyshev
# bracket is one shifted inward from the edge; n = 63 and 64 scan
# 2,500 rows and more; the dissipative -i k^n of even n are real profiles,
# whose +-Im targets see only rounding and take no bracket
TABLES = (("edge", [2, 3, 4, 17, 33], -1.0), ("high", [63, 64], 1.0),
          ("heat", [2, 4, 8], -1j))
# (index, arguments) of the cli lines: every command that writes, and a bad
# --t list, which is refused before any work
CLI_RUNS = (
    ("solve", SOLVE_ARGS),
    ("eval", ("eval", "--omega", "3:1,2:-0.5i", "--m", "1", "--t", "0.3", "--y-grid", "-6:6:25")),
    ("kernel", ("kernel", "--omega", "3:1", "--t", "0.5", "--x-grid", "-10:10:41")),
    ("gibbs-markdown", ("gibbs-table", "--n", "2,3", "--format", "markdown")),
    ("gibbs-json", ("gibbs-table", "--n", "2,3", "--sigma", "-1", "--format", "json")),
    ("contour-dump", ("contour-dump", "--omega", "3:1", "--y", "12", "--t", "1")),
    ("usage-error", ("solve", "--omega", "3:1", "--ic", "box", "--t", "0.1,x",
                     "--x-grid", "-1:1:3")),
)


def _outcome(line, value, show=repr):
    """line with the exact repr of value() (or another show of it), or the
    exception it raises."""
    try:
        line["value"] = show(value())
    except Exception as exc:   # every outcome is printed, failures too
        line["error"] = type(exc).__name__
        line["message"] = str(exc)
    return line


def outcomes(seed):
    for index, (_, coeffs, m, y, t) in enumerate(draw_queries(seed)):
        if t <= 0:
            continue
        for method in ("descent", "auto"):
            yield _outcome({"seed": seed, "index": index, "method": method,
                            "query": repr((coeffs, m, y, t))},
                           lambda: eval_I(coeffs, m, y, t, method=method))


def grid_outcomes(seed):
    for index, (_, coeffs, m, y, t) in enumerate(draw_queries(seed)):
        if t <= 0:
            continue
        # the shapes s = (y - drift t) / u, as workloads._query places them
        n = max(coeffs)
        u = (abs(complex(coeffs[n])) * t) ** (1.0 / n)
        ys = GRID_SHAPES * u + complex(coeffs.get(1, 0)).real * t
        for method in ("auto", "direct"):
            yield _outcome({"seed": seed, "index": index, "method": "grid-" + method,
                            "query": repr((coeffs, m, ys.tolist(), t))},
                           lambda: eval_I_grid(coeffs, m, ys, t, method=method).tolist())


def fixed_grid_outcomes():
    for index, (coeffs, ys, methods) in enumerate(FIXED_GRIDS):
        for m, method in itertools.product((0, 1), methods):
            yield _outcome({"seed": "fixed", "index": index, "method": f"grid-{method}-m{m}",
                            "query": repr((coeffs, m, ys, 1.0))},
                           lambda: eval_I_grid(coeffs, m, ys, 1.0, method=method).tolist())


def plateau_outcomes():
    for index, coeffs, relation, m, y, t in PLATEAUS:
        omega = normalize(coeffs) if relation else coeffs
        for name, f in (("residue_part", residue_part), ("asymptotic_I", asymptotic_I)):
            yield _outcome({"seed": "plateau", "index": index, "method": name,
                            "query": repr((coeffs, "relation" if relation else "dict", m, y, t))},
                           lambda: f(omega, m, y, t))


def _cli(args):
    """What `dispgibbs ARGS` writes to stdout, then to stderr, then its exit
    code; an exception that is not an exit is raised."""
    result = CliRunner().invoke(cli.main, list(args), prog_name="dispgibbs")
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return f"{result.stdout}{result.stderr}exit code {result.exit_code}\n"


def batch_products():
    """The benchmark's gibbs table, those of TABLES, and the runs of CLI_RUNS."""
    for index, n_list, sigma in ((None, list(GIBBS_DEGREES), 1.0), *TABLES):
        yield _outcome({"seed": None, "index": index, "method": "gibbs",
                        "query": repr((n_list, sigma, 1.0))},
                       lambda: gibbs.overshoot_table(n_list, sigma=sigma, t=1.0))
    for index, args in CLI_RUNS:
        yield _outcome({"seed": None, "index": index, "method": "cli",
                        "query": " ".join(args)}, lambda: _cli(args), show=str)


# complex reprs, bare or inside numpy's "np.complex128(...)", and real
# numbers standing alone (not parts of names such as inf_abs or float64)
_NUMBER = re.compile(r"\([^()]*j\)|(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)j?(?![\w.])")


def _numbers(text):
    """The numbers a value's repr shows: one complex value, the values of a
    list, the fields of a table or the cells of a CSV."""
    return [complex(token) for token in _NUMBER.findall(text)]


def compare(lines, against):
    """Print how `lines` differ from the saved outcomes `against`; returns
    the number of lines that differ in kind, message or length of value."""
    saved = {}
    for text in against:
        line = json.loads(text)
        saved[line["seed"], line["index"], line["method"]] = line
    differ = 0
    drift = {}   # method: (largest, its line)
    for line in lines:
        old = saved.pop((line["seed"], line["index"], line["method"]), None)
        largest = drift.setdefault(line["method"], (0.0, None))[0]
        same = old is not None and all(old.get(k, "") == line.get(k, "")
                                       for k in ("error", "message"))
        if same and "value" in line:
            v, v0 = _numbers(line["value"]), _numbers(old["value"])
            same = len(v) == len(v0)
            moved = max((abs(a - b) / (1.0 + abs(b)) for a, b in zip(v, v0)), default=0.0)
            if same and moved > largest:
                drift[line["method"]] = (moved, line)
            same = same and moved <= 1e-9
        if not same:
            differ += 1
            print(json.dumps({"now": line, "saved": old}))
    for old in saved.values():
        differ += 1
        print(json.dumps({"now": None, "saved": old}))
    print(f"{differ} lines differ in outcome, message or value")
    for method, (moved, line) in drift.items():
        where = (f" (seed {line['seed']}, index {line['index']}, {line['query']})"
                 if line else "")
        print(f"largest |v - v0| / (1 + |v0|) on {method} lines = {moved:.3g}{where}")
    return differ


def main(argv):
    parser = argparse.ArgumentParser(description="eval_I outcomes on the queries draws")
    parser.add_argument("--grid", action="store_true",
                        help="pin eval_I_grid, the plateau, the gibbs tables and the CLI's "
                             "outputs instead")
    parser.add_argument("--against", type=argparse.FileType(),
                        help="compare with this earlier output instead of printing")
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    if args.grid:
        lines = itertools.chain((line for seed in args.seeds for line in grid_outcomes(seed)),
                                fixed_grid_outcomes(), plateau_outcomes(), batch_products())
    else:
        lines = (line for seed in args.seeds for line in outcomes(seed))
    if args.against:
        sys.exit(1 if compare(lines, args.against) else 0)
    for line in lines:
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
