"""Print what eval_I answers on the benchmark's seeded queries, one JSON line each.

    python3 scripts/route_outcomes.py SEED...
    python3 scripts/route_outcomes.py --against FILE SEED...

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

With --against FILE the lines are not printed but compared with FILE, the
output of an earlier run on the same seeds (say, of another checkout), for
changes that move values only in their last bits.  Every line that differs
in its outcome kind (value or exception type) or exception message, or has
no counterpart, is printed.  Then, for the descent and the auto lines
apart, the largest |v - v0| / (1 + |v0|) over their values (v0 from FILE)
is printed with the line where it occurs (seed, index, query).  The exit
code is 1 when any line differs.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dispgibbs import eval_I  # noqa: E402
from workloads import draw_queries  # noqa: E402


def outcomes(seed):
    for index, (_, coeffs, m, y, t) in enumerate(draw_queries(seed)):
        if t <= 0:
            continue
        for method in ("descent", "auto"):
            line = {"seed": seed, "index": index, "method": method,
                    "query": repr((coeffs, m, y, t))}
            try:
                line["value"] = repr(eval_I(coeffs, m, y, t, method=method))
            except Exception as exc:   # every outcome is printed, failures too
                line["error"] = type(exc).__name__
                line["message"] = str(exc)
            yield line


def _number(text):
    """The complex number a value's repr shows, bare or numpy's
    "np.complex128(...)"."""
    return complex(re.sub(r"^[\w.]+\((.*)\)$", r"\1", text))


def compare(lines, against):
    """Print how `lines` differ from the saved outcomes `against`; returns
    the number of lines that differ in kind or message."""
    saved = {}
    for text in against:
        line = json.loads(text)
        saved[line["seed"], line["index"], line["method"]] = line
    differ = 0
    drift = {"descent": (0.0, None), "auto": (0.0, None)}   # method: (largest, its line)
    for line in lines:
        old = saved.pop((line["seed"], line["index"], line["method"]), None)
        if old is None or any(old.get(k, "") != line.get(k, "") for k in ("error", "message")):
            differ += 1
            print(json.dumps({"now": line, "saved": old}))
        elif "value" in line:
            v0, v = _number(old["value"]), _number(line["value"])
            moved = abs(v - v0) / (1.0 + abs(v0))
            if moved > drift[line["method"]][0]:
                drift[line["method"]] = (moved, line)
    for old in saved.values():
        differ += 1
        print(json.dumps({"now": None, "saved": old}))
    print(f"{differ} lines differ in outcome or message")
    for method, (moved, line) in drift.items():
        where = (f" (seed {line['seed']}, index {line['index']}, {line['query']})"
                 if line else "")
        print(f"largest |v - v0| / (1 + |v0|) on {method} lines = {moved:.3g}{where}")
    return differ


def main(argv):
    parser = argparse.ArgumentParser(description="eval_I outcomes on the queries draws")
    parser.add_argument("--against", type=argparse.FileType(),
                        help="compare with this earlier output instead of printing")
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    lines = (line for seed in args.seeds for line in outcomes(seed))
    if args.against:
        sys.exit(1 if compare(lines, args.against) else 0)
    for line in lines:
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
