"""Print what eval_I answers on the benchmark's seeded queries, one JSON line each.

    python3 scripts/route_outcomes.py SEED...

For every draw of perfbench.workloads.draw_queries(SEED) with t > 0 the
script prints the outcome of method="descent", and also of method="auto"
where the canonical shape |s| = |y - omega_1 t| / (|omega_n| t)^(1/n) is at
least 4 (where auto tries descent first).  A line holds the query, the
method and either the exact repr of the value or the exception's type and
message, so the outputs of two checkouts can be compared with cmp.  There
is no work budget: every query runs to its end.  The package is imported
from this checkout's src; perfbench is only read.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dispgibbs import eval_I, normalize  # noqa: E402
from workloads import draw_queries  # noqa: E402


def outcomes(seed):
    for index, (_, coeffs, m, y, t) in enumerate(draw_queries(seed)):
        if t <= 0:
            continue
        om = normalize(coeffs)
        s = (y - om.drift * t) / (abs(om.leading) * t) ** (1.0 / om.degree)
        for method in ("descent", "auto") if abs(s) >= 4.0 else ("descent",):
            line = {"seed": seed, "index": index, "method": method,
                    "query": repr((coeffs, m, y, t))}
            try:
                line["value"] = repr(eval_I(coeffs, m, y, t, method=method))
            except Exception as exc:   # every outcome is printed, failures too
                line["error"] = type(exc).__name__
                line["message"] = str(exc)
            yield line


def main(argv):
    if not argv:
        sys.exit("usage: route_outcomes.py SEED...")
    for seed in argv:
        for line in outcomes(int(seed)):
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
