"""Spans and counters for the traced benchmark run.

The package is traced only from outside: each function is replaced, for the
length of the traced run, at the module attribute its caller looks it up in
(`dispgibbs.special.descent_system`, not `dispgibbs.contour.descent_system`).
A span records name, start, end, parent and thread; spans stay in memory
and are written out once the run ends.  A layer's self time is the time
its spans cover minus the union of their child spans, so the layers
partition the traced wall time of a single-threaded run.
"""

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# the exception types eval_I can end with, as counted by special.fail_*
FAILURE_KINDS = {
    "NoConvergence": "noconv",
    "DegeneratePhase": "degenerate",
    "NonFinite": "nonfinite",
    "Deadline": "deadline",
}

# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("contour.descent_s", "s"), ("contour.descent_calls", "count"),
    ("contour.descent_segments", "count"), ("contour.descent_raised", "count"),
    ("contour.direct_s", "s"), ("contour.direct_calls", "count"),
    ("contour.direct_segments", "count"),
    ("quadrature.contour_s", "s"), ("quadrature.rules", "count"),
    ("quadrature.evals", "count"), ("quadrature.max_order", "count"),
    ("quadrature.useful_frac", "ratio"),
    ("special.eval_calls", "count"), ("special.self_s", "s"),
    ("special.route_t0", "count"), ("special.route_direct", "count"),
    ("special.route_descent", "count"), ("special.fallbacks", "count"),
    ("special.fail_noconv", "count"), ("special.fail_degenerate", "count"),
    ("special.fail_nonfinite", "count"), ("special.fail_deadline", "count"),
    ("special.fail_other", "count"),
    ("dispersion.normalize_s", "s"), ("dispersion.stationary_s", "s"),
    ("dispersion.stationary_calls", "count"), ("dispersion.phase_s", "s"),
    ("ivp.self_s", "s"), ("ivp.eval_calls_per_point", "calls/point"),
    ("gibbs.self_s", "s"), ("gibbs.eval_calls", "count"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
)

# span name -> per-layer metric holding the self time of those spans
SELF_TIME = {
    "contour.descent": "contour.descent_s",
    "contour.direct": "contour.direct_s",
    "quadrature.contour": "quadrature.contour_s",
    "special.eval_I": "special.self_s",
    "dispersion.normalize": "dispersion.normalize_s",
    "dispersion.stationary": "dispersion.stationary_s",
    "dispersion.phase": "dispersion.phase_s",
    "ivp.solve": "ivp.self_s",
    "gibbs.overshoot_table": "gibbs.self_s",
    "cli.main": "cli.self_s",
}


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans = {}          # id -> [name, start, end, parent, thread, error]
        self.child_names = defaultdict(set)
        self.root = None         # parent for spans opened on worker threads
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self):
        """This thread's counters; merged in counters() so no update is lost."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(float)
            self._thread_counts.append(counts)
        return counts

    def counters(self):
        total = defaultdict(float)
        for counts in self._thread_counts:
            for key, val in counts.items():
                if key == "quadrature.max_order":
                    total[key] = max(total[key], val)
                else:
                    total[key] += val
        return total

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        self.spans[sid] = [name, time.perf_counter(), None, parent,
                           threading.get_ident(), None]
        if parent is not None:
            self.child_names[parent].add(name)
        stack.append(sid)
        return sid

    def end(self, sid, error=None):
        rec = self.spans[sid]
        rec[2] = time.perf_counter()
        rec[5] = error
        stack = self._stack()
        while stack and stack[-1] >= sid:
            stack.pop()

    def close_open(self):
        """End spans a deadline left open and clear this thread's stack."""
        now = time.perf_counter()
        for rec in self.spans.values():
            if rec[2] is None:
                rec[2] = now
                rec[5] = rec[5] or "Deadline"
        self._stack().clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened at the benchmark's own call site; yields its id."""
        sid = self.begin(name)
        try:
            yield sid
        except BaseException as exc:
            self.end(sid, type(exc).__name__)
            raise
        self.end(sid)

    def wrap(self, module, attr, name, before=None, after=None):
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            if before:
                before(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(sid, type(exc).__name__)
                if after:
                    after(sid, None, exc)
                raise
            tracer.end(sid)
            if after:
                after(sid, result, None)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def install(self, pkg):
        """Wrap every layer boundary of the dispgibbs modules in `pkg`."""
        special, contour, quadrature = pkg.special, pkg.contour, pkg.quadrature

        def eval_done(sid, result, exc):
            kids = self.child_names.get(sid, ())
            descent = "contour.descent" in kids
            direct = "contour.direct" in kids
            count = self._counts()
            count["special.eval_calls"] += 1
            if descent and direct:
                count["special.fallbacks"] += 1
            if exc is not None:
                kind = FAILURE_KINDS.get(type(exc).__name__, "other")
                count[f"special.fail_{kind}"] += 1
            elif direct:
                count["special.route_direct"] += 1
            elif descent:
                count["special.route_descent"] += 1
            else:
                count["special.route_t0"] += 1

        for mod in (special, pkg.ivp, pkg.gibbs, pkg.cli):
            self.wrap(mod, "eval_I", "special.eval_I", after=eval_done)

        def descent_done(sid, result, exc):
            count = self._counts()
            count["contour.descent_calls"] += 1
            if exc is not None:
                count["contour.descent_raised"] += 1
            else:
                count["contour.descent_segments"] += sum(
                    len(c.segments) for c in result.contours)

        def direct_done(sid, result, exc):
            count = self._counts()
            count["contour.direct_calls"] += 1
            if exc is None:
                count["contour.direct_segments"] += len(result.segments)

        self.wrap(special, "descent_system", "contour.descent", after=descent_done)
        self.wrap(special, "direct_contour", "contour.direct", after=direct_done)

        # a rule is accepted when it is the last one applied to its segment
        # in an integrate_contour call that returned
        def contour_start(sid):
            self._local.rules = {}

        def contour_done(sid, result, exc):
            rules = self._local.rules
            self._local.rules = None
            if exc is None:
                self._counts()["quadrature.accepted_evals"] += sum(rules.values())

        self.wrap(special, "integrate_contour", "quadrature.contour",
                  before=contour_start, after=contour_done)

        rule = quadrature.integrate_segment

        @functools.wraps(rule)
        def counted_rule(f, start, end, order):
            count = self._counts()
            count["quadrature.rules"] += 1
            count["quadrature.evals"] += order + 1
            if order > count["quadrature.max_order"]:
                count["quadrature.max_order"] = order
            rules = getattr(self._local, "rules", None)
            if rules is not None:
                rules[(start, end)] = order + 1
            return rule(f, start, end, order)

        quadrature.integrate_segment = counted_rule
        self._patches.append((quadrature, "integrate_segment", rule))

        for mod in (special, pkg.ivp):
            self.wrap(mod, "normalize", "dispersion.normalize")
        self.wrap(special, "scaled_phase", "dispersion.phase")

        def stationary_done(sid, result, exc):
            self._counts()["dispersion.stationary_calls"] += 1

        self.wrap(contour, "stationary_points", "dispersion.stationary",
                  after=stationary_done)
        self.wrap(pkg.cli, "solve", "ivp.solve")

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def self_times(self):
        """Self time of every span: its length minus the union of its children."""
        kids = defaultdict(list)
        for sid, rec in self.spans.items():
            if rec[3] is not None:
                kids[rec[3]].append(sid)
        out = {}
        for sid, (_, start, end, *_rest) in self.spans.items():
            covered = 0.0
            reach = start
            for a, b in sorted((self.spans[k][1], self.spans[k][2]) for k in kids[sid]):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out[sid] = end - start - covered
        return out

    def metrics(self, wall_s, untraced_s):
        """Per-layer metrics of everything recorded so far."""
        selfs = self.self_times()
        counters = self.counters()
        values = {name: 0.0 for name, _ in PER_LAYER}
        for key, val in counters.items():
            if key in values:
                values[key] = val
        evals_by_parent = defaultdict(int)
        for sid, rec in self.spans.items():
            key = SELF_TIME.get(rec[0])
            if key:
                values[key] += selfs[sid]
            if rec[0] == "special.eval_I" and rec[3] is not None:
                evals_by_parent[self.spans[rec[3]][0]] += 1
        solves = sum(1 for rec in self.spans.values() if rec[0] == "ivp.solve")
        if solves:
            values["ivp.eval_calls_per_point"] = evals_by_parent["ivp.solve"] / solves
        values["gibbs.eval_calls"] = evals_by_parent["gibbs.overshoot_table"]
        if counters["quadrature.evals"]:
            values["quadrature.useful_frac"] = (
                counters["quadrature.accepted_evals"] / counters["quadrature.evals"])
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = wall_s - untraced_s
        values["trace.coverage"] = sum(selfs.values()) / wall_s
        return values

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = min((rec[1] for rec in self.spans.values()), default=0.0)
        with open(path, "w") as fh:
            for sid in sorted(self.spans):
                name, start, end, parent, thread, error = self.spans[sid]
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "thread": thread, "error": error}) + "\n")
