"""Run the benchmark over workloads and seeds, summarise, optionally record.

    python3 perfbench/collect.py [--workloads gibbs,solve,queries] \
        [--seeds 1-10] [--trace] [--out perfbench/baseline/BENCH_<label>.json]

Run from the root of a source checkout.  Each run is a fresh
`perfbench/run.py` process with BENCHMARK.json's run_seconds.  For every
end-to-end metric and workload it prints the median, the quartiles and
their distance as a share of the median (the spread), next to the
metric's bound.  --trace adds one traced run per workload (its first
seed).  --out writes every run, the summary, the machine and the git
commit as JSON.  Exits 1 when a run failed its checks or exited non-zero.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "exit": proc.returncode, "elapsed_s": time.perf_counter() - t0,
        "report": lines[:-1], "result": result,
        "stderr": proc.stderr.strip().splitlines()[-5:],
    }


def spread(values):
    """(median, q1, q3, (q3 - q1)/median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for mod in ("numpy", "scipy", "click"):
        try:
            versions[mod] = version(mod)
        except PackageNotFoundError:
            versions[mod] = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
        "python": platform.python_version(), **versions,
    }


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    runs = []
    for name in names:
        for seed in seeds:
            run = run_once(root, name, seed, seconds, 0)
            runs.append(run)
            print("\n".join(run["report"]), flush=True)
        if args.trace:
            run = run_once(root, name, seeds[0], seconds, 1)
            runs.append(run)
            print("\n".join(run["report"]), flush=True)

    ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
    summary = {}
    print(f"\n{'workload':9s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}  n")
    for name in names:
        done = [r["result"] for r in runs
                if r["workload"] == name and not r["trace"] and r["result"]]
        for metric in spec["end_to_end"]:
            values = [d["metrics"][metric["name"]]["value"] for d in done]
            if not values:
                continue
            med, q1, q3, sp = spread(values)
            summary[f"{name}/{metric['name']}"] = {
                "median": med, "q1": q1, "q3": q3, "spread": sp,
                "bound": metric["bound"], "unit": metric["unit"], "runs": len(values)}
            print(f"{name:9s} {metric['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {sp:7.4f} {metric['bound']:6.3f}  {len(values)}")
    print("all runs correct" if ok else "SOME RUNS FAILED")

    if args.out:
        record = {
            "commit": git_commit(root),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": machine(), "run_seconds": seconds, "seeds": seeds,
            "summary": summary, "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
