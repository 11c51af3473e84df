"""Benchmark for dispgibbs: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload gibbs|solve|queries --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src and nowhere else.  It prints one line per metric (value, unit,
sample count) and, as its last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured with nothing
wrapped but the work budget of the queries workload; with --trace 1 they
are the per-layer ones, from a traced pass
whose spans are written to perfbench/out/.  The exit code is 0 when the
outputs passed their checks, 1 otherwise.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import PER_LAYER, Tracer

END_TO_END = (
    ("wall_s", "s"), ("ok_frac", "ratio"), ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# a fresh process imports dispgibbs.cli and answers its first query
SETUP_RUNS = 9
SETUP_ARGS = ("eval", "--omega", "3:1", "--t", "1", "--y-grid", "-1:1:3")
SETUP_CODE = "import sys\nfrom dispgibbs.cli import main\nmain(sys.argv[1:])\n"
RUN_ERRORS = (workloads.OpFailed, ArithmeticError, RuntimeError, ValueError)


def load_package(root):
    """Import dispgibbs from root/src; exit non-zero when it is not there."""
    src = root / "src"
    if not (src / "dispgibbs" / "__init__.py").is_file():
        sys.exit(f"no package source under {src}: run from the root of a checkout")
    sys.path.insert(0, str(src))
    import dispgibbs
    from dispgibbs import cli, contour, gibbs, ivp, quadrature, special  # noqa: F401
    if Path(dispgibbs.__file__).resolve().parent != (src / "dispgibbs").resolve():
        sys.exit(f"dispgibbs was imported from {dispgibbs.__file__}, not {src}")
    return dispgibbs


def warm_up(pkg):
    """Pay first-call costs before timing; setup_s measures them cold.

    Fills the Clenshaw-Curtis rule cache for every order the adaptive
    refinement reaches from the contours' starting orders.
    """
    pkg.special.eval_I({3: 1.0}, 0, 0.5, 1.0)
    for order in (8, 16, 32, 64, 96):
        while order <= 2048:
            pkg.quadrature.clenshaw_curtis_rule(order)
            order *= 2


def child_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(pkg, root):
    """CPU times of fresh CLI processes answering one query, and problems.

    CPU time (user + system) rather than wall time: the import and the first
    query are the same work either way, and CPU time does not grow when
    other processes on the machine take the cores.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("DISPGIBBS_THREADS", None)
    want = [pkg.special.eval_I({3: 1.0}, 0, float(y), 1.0)
            for y in np.linspace(-1.0, 1.0, 3)]
    times, problems = [], []
    for i in range(SETUP_RUNS + 1):
        cpu0 = child_cpu()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *SETUP_ARGS],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120)
        spent = child_cpu() - cpu0
        if proc.returncode != 0:
            problems.append(f"setup query exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        got = [complex(*map(float, line.split(",")[1:]))
               for line in proc.stdout.splitlines()[1:]]
        if got != want:
            problems.append(f"setup query printed {got}, in-process {want}")
        if i:   # the first process also writes bytecode caches
            times.append(spent)
    return times, problems


def quantile_ms(samples, q):
    """Inclusive quantile q (0..1) of latencies in seconds, in ms."""
    if len(samples) == 1:
        return samples[0] * 1e3
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] * 1e3


def run_reps(workload, seconds):
    """Repeat the workload's operation for about `seconds` (at least MIN_REPS)."""
    reps, outputs, errors = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            outputs.append(workload.op())
        except RUN_ERRORS as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
        reps.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(reps) >= workloads.MIN_REPS and spent + statistics.median(reps) > seconds:
            return reps, outputs, errors


def run_queries(workload, tracer=None):
    """One pass over the queries: (wall seconds, [(latency, value, error)])."""
    results = []
    start = time.perf_counter()
    for item in workload.items:
        res = workload.run_one(item)
        if tracer is not None and res[2] == "Deadline":
            tracer.close_open()
        results.append(res)
    return time.perf_counter() - start, results


def score_queries(workload, results):
    """(failed, problems, report lines) of one pass over the queries.

    A query fails when it raised, ran past its budget or got a wrong answer;
    the run is incorrect only when a frozen reference query failed.
    """
    table = {}
    failed = 0
    problems = []
    for item, (_, value, error) in zip(workload.items, results):
        verdict = error or workload.verdict(item, value)
        row = table.setdefault(item[0], {})
        row[verdict] = row.get(verdict, 0) + 1
        if verdict not in workloads.CORRECT_VERDICTS:
            failed += 1
            if item[0] == "anchor":
                problems.append(f"frozen query {item[1:5]} gave {value!r} ({verdict})")
    lines = [f"  {kind:7s} " + ", ".join(f"{k} {v}" for k, v in sorted(row.items()))
             for kind, row in sorted(table.items())]
    return failed, problems, lines


def end_to_end(workload, root, pkg, seconds):
    """Untraced run: (metrics, attempted, failed, correct, report lines)."""
    setup_times, problems = measure_setup(pkg, root)
    notes = []
    if workload.repeated:
        reps, outputs, errors = run_reps(workload, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = reps
        wall = statistics.median(reps)
        attempted = len(reps)
        problems += errors
        if outputs:
            problems += workload.check(outputs)
        failed = attempted if problems else len(errors)
    else:
        wall, results = run_queries(workload)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = [lat for lat, _, _ in results]
        attempted = len(results)
        failed, wrong, notes = score_queries(workload, results)
        problems += wrong
    reps_n = len(latencies) if workload.repeated else 1
    metrics = {
        "wall_s": (wall, reps_n),
        "ok_frac": ((attempted - failed) / attempted, attempted),
        "query_p50_ms": (quantile_ms(latencies, 0.5), len(latencies)),
        "query_p90_ms": (quantile_ms(latencies, 0.9), len(latencies)),
        "setup_s": (statistics.median(setup_times) if setup_times else float("nan"),
                    len(setup_times)),
        "peak_rss_mb": (rss, 1),
    }
    return metrics, attempted, failed, not problems, problems + notes


def traced(workload, pkg, seed):
    """Traced run: one untraced and one traced pass; per-layer metrics."""
    problems, notes = [], []
    if workload.repeated:
        t0 = time.perf_counter()
        outputs = [workload.op()]
        untraced = time.perf_counter() - t0
    else:
        untraced, _ = run_queries(workload)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        t0 = time.perf_counter()
        if workload.repeated:
            with tracer.span(workload.root_span) as sid:
                tracer.root = sid
                outputs.append(workload.op())
                tracer.root = None
        else:
            _, results = run_queries(workload, tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    values = tracer.metrics(wall, untraced)
    if workload.repeated:
        problems += workload.check(outputs)
        attempted, failed = 1, int(bool(problems))
        if workload.name == "solve":
            values["cli.output_bytes"] = len(outputs[-1].encode())
    else:
        attempted = len(results)
        failed, problems, notes = score_queries(workload, results)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    metrics = {name: (values[name], 1) for name, _ in PER_LAYER}
    return metrics, attempted, failed, not problems, problems + notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    pkg = load_package(root)
    os.environ.pop("DISPGIBBS_THREADS", None)   # the CLI's default pool, as users run it
    workload = workloads.WORKLOADS[args.workload](pkg, root, args.seed)
    warm_up(pkg)

    if args.trace:
        metrics, attempted, failed, correct, lines = traced(workload, pkg, args.seed)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failed, correct, lines = end_to_end(
            workload, root, pkg, args.seconds)
        units = dict(END_TO_END)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, "
          f"{'correct' if correct else 'CHECK FAILED'}")
    for line in lines:
        print(line)
    for name, (value, count) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:11s} n={count}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
