"""The three benchmark workloads and the checks on their outputs.

All three are single-process closed loops: each operation starts when the
previous one returns.  The package is reached only through public names,
looked up on its modules at call time so that the traced run sees them.

gibbs    overshoot_table([3, 5, 9]) at sigma = 1, t = 1, repeated.  The
         paper's headline table: direct contours, descent attempts that
         fail and fall back, golden-section search.
solve    `dispgibbs solve` through dispgibbs.cli.main, repeated, with the
         default thread pool.  Successful descents, jump superposition, CSV.
queries  one pass over seeded independent eval_I queries across the
         well-posed input space, each under a fixed work budget.  Dispatch,
         normalization, and the slow and failing paths.
"""

import contextlib
import functools
import io
import math
import random
import signal
import time

import numpy as np
from scipy.stats import qmc

import references

GIBBS_DEGREES = (3, 5, 9)
SOLVE_ARGS = ("solve", "--omega", "3:1", "--ic", "smoothed-box:0.1",
              "--t", "1e-3,1e-1", "--x-grid", "-2:2:401")
SOLVE_CHECKED_POINTS = 12        # per time, re-evaluated on the direct route

# Per-query budget, in the timed pass and in the check alike.  It counts
# work, not time, so a query passes it or misses it the same way on every
# run and on every machine; the CPU-time cap only stops a contour builder
# that never returns, and any builder that runs that long is far past the
# segment budget anyway (queries within budget take under 0.1 s of CPU).
QUERY_SEGMENTS = 1000            # contour segments built
QUERY_EVALS = 100_000            # integrand evaluations (sum of order + 1)
RUNAWAY_CPU_S = 0.25             # process CPU time, ITIMER_PROF
SOBOL_QUERIES = 512              # a power of two keeps the Sobol net balanced
MONOMIAL_SHARE = 0.25            # monomials are what the tests cover already
RHO_RANGE = (1e-3, 3e2)          # canonical size of a lower-order term
S_RANGE = (1e-2, 1e2)            # canonical |s|
T_RANGE = (1e-4, 1e2)
K5_QUERIES = 16
T0_QUERIES = 8
MIN_REPS = 3


class Deadline(BaseException):
    """A query ran past its work budget.

    A BaseException, so that no handler inside the package can swallow it.
    """


class OpFailed(Exception):
    """An operation ended without a usable result (CLI exit code, ...)."""


class Budget:
    """The per-query work budget of the queries workload.

    Creating one wraps, for the rest of the process, the contour builders
    where eval_I looks them up and the Clenshaw-Curtis rule where the
    adaptive loop looks it up; limit() opens a fresh budget for one query.
    A builder whose contour takes the query past QUERY_SEGMENTS, or a rule
    that would take it past QUERY_EVALS, raises Deadline; so does
    RUNAWAY_CPU_S of process CPU time.
    """

    def __init__(self, pkg):
        self.segments = 0
        self.evals = 0
        special, quadrature = pkg.special, pkg.quadrature

        def counted_builder(build, segments_of):
            @functools.wraps(build)
            def counted(*args, **kwargs):
                result = build(*args, **kwargs)
                self.segments += segments_of(result)
                if self.segments > QUERY_SEGMENTS:
                    raise Deadline(f"past {QUERY_SEGMENTS} contour segments")
                return result
            return counted

        rule = quadrature.integrate_segment

        @functools.wraps(rule)
        def counted_rule(f, start, end, order):
            self.evals += order + 1
            if self.evals > QUERY_EVALS:
                raise Deadline(f"past {QUERY_EVALS} integrand evaluations")
            return rule(f, start, end, order)

        special.direct_contour = counted_builder(
            special.direct_contour, lambda c: len(c.segments))
        special.descent_system = counted_builder(
            special.descent_system, lambda s: sum(len(c.segments) for c in s.contours))
        quadrature.integrate_segment = counted_rule

    @contextlib.contextmanager
    def limit(self):
        """A fresh budget for the code in the block."""
        def runaway(signum, frame):
            raise Deadline(f"past {RUNAWAY_CPU_S} s of CPU time")

        self.segments = self.evals = 0
        previous = signal.signal(signal.SIGPROF, runaway)
        signal.setitimer(signal.ITIMER_PROF, RUNAWAY_CPU_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def canonical_scale(coeffs, m, t):
    """u^m with u = (|omega_n| t)^(1/n), the natural magnitude of I_m(., t)."""
    n = max(j for j, c in coeffs.items() if c != 0)
    return (abs(complex(coeffs[n])) * t) ** (m / n)


class Gibbs:
    """overshoot_table([3, 5, 9]) with sigma = 1 and t = 1, repeated.

    The seed changes nothing: the table is the paper's fixed computation.
    """

    name = "gibbs"
    repeated = True
    root_span = "gibbs.overshoot_table"

    def __init__(self, pkg, root, seed):
        self.pkg = pkg

    def op(self):
        return self.pkg.gibbs.overshoot_table(list(GIBBS_DEGREES), sigma=1.0, t=1.0)

    def check(self, outputs):
        """Problems with the tables; an empty list when they are right."""
        problems = []
        first = outputs[0]
        if any(out != first for out in outputs[1:]):
            problems.append("repeated tables differ")
        if [r.n for r in first] != list(GIBBS_DEGREES):
            return problems + ["wrong degrees in the table"]
        sup3, at3 = references.overshoot_n3()
        if not (abs(first[0].sup_re - sup3) < 1e-8 and abs(first[0].arg_sup_re - at3) < 1e-6):
            problems.append(f"n=3 sup_re {first[0].sup_re!r} at {first[0].arg_sup_re!r}, "
                            f"Airy closed form {sup3!r} at {at3!r}")
        for r in first:   # real odd monomials give real profiles
            if max(abs(r.sup_im), abs(r.inf_im)) > 1e-10:
                problems.append(f"n={r.n} profile not real: {r.sup_im!r}, {r.inf_im!r}")
        g = references.gibbs_constant()
        sups = [r.sup_re for r in first]
        if not sups[0] > sups[1] > sups[2] > 1.0 + g:
            problems.append(f"sup_re {sups} does not decrease towards 1 + g = {1 + g!r}")
        return problems


class Solve:
    """`dispgibbs solve` in-process through dispgibbs.cli.main, repeated.

    The seed picks which grid points the check re-evaluates.
    """

    name = "solve"
    repeated = True
    root_span = "cli.main"

    def __init__(self, pkg, root, seed):
        self.pkg = pkg
        self.rng = random.Random(seed)

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                self.pkg.cli.main.main(args=list(SOLVE_ARGS), standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    raise OpFailed(f"dispgibbs solve exited with {exc.code}") from None
        return buf.getvalue()

    def check(self, outputs):
        first = outputs[0]
        if any(out != first for out in outputs[1:]):
            return ["repeated runs printed different bytes"]
        lines = first.splitlines()
        if lines[0] != "t,x,re,im" or len(lines) != 1 + 2 * 401:
            return [f"unexpected CSV shape: {len(lines)} lines, header {lines[0]!r}"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        xs = np.linspace(-2.0, 2.0, 401)
        problems = []
        ic = self.pkg.ivp.smoothed_box(0.1)
        for block, t in enumerate((1e-3, 1e-1)):
            part = rows[401 * block: 401 * (block + 1)]
            if not (np.all(part[:, 0] == t) and np.all(part[:, 1] == xs)):
                return [f"wrong (t, x) columns for t = {t}"]
            for i in sorted(self.rng.sample(range(401), SOLVE_CHECKED_POINTS)):
                got = complex(part[i, 2], part[i, 3])
                ref = self.pkg.ivp.solve(ic, {3: 1.0}, float(xs[i]), t, method="direct")
                if not references.close(got, ref):
                    problems.append(f"t={t} x={xs[i]!r}: printed {got!r}, direct route {ref!r}")
        return problems


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _sign(u):
    return 1.0 if u < 0.5 else -1.0


def _lead(n, u_mag, u_arg):
    """Well-posed leading coefficient: real for odd n, Im <= 0 for even n."""
    mag = _log_uniform(u_mag, 0.5, 2.0)
    if n % 2:
        return _sign(u_arg) * mag
    return mag * complex(math.cos(math.pi * u_arg), -math.sin(math.pi * u_arg))


def _lower(j, rho, u_arg, u, t):
    """Coefficient of k^j whose canonical size c_j t / u^j is rho: real for
    odd j, dissipative (Im <= 0) for even j."""
    mag = rho * u ** j / t
    if j % 2:
        return _sign(u_arg) * mag
    return mag * complex(math.cos(math.pi * u_arg), -math.sin(math.pi * u_arg))


def _query(kind, coeffs, m, s, t):
    """Place the canonical shape s = (y - drift t)/u at a physical y."""
    n = max(coeffs)
    u = (abs(complex(coeffs[n])) * t) ** (1.0 / n)
    y = s * u + complex(coeffs.get(1, 0)).real * t
    return (kind, coeffs, m, y, t)


def draw_queries(seed):
    """Seeded eval_I queries; see perfbench/README.md for the design.

    eval_I rescales every query to t = 1 and a unit leading coefficient, and
    its cost depends on the canonical shape s = y/u, u = (|omega_n| t)^(1/n),
    and on the canonical sizes rho_j = |omega_j| t / u^j of the lower-order
    terms.  Those two come first in a scrambled Sobol sequence of 512 points
    in 15 dimensions, so every seed spreads them over the same strata and
    the share of slow and failing draws holds steady from seed to seed.
    The other dimensions choose the symbol (a quarter monomials, the rest
    one or two lower-order terms; degree 2..9), m in -1..2, the signs, and
    t in [1e-4, 1e2].  16 further draws are degree-5 monomials with |s|
    stratified over [4, 64], where the descent route has a known
    NoConvergence window, and 8 are at t = 0.
    """
    u_all = qmc.Sobol(15, scramble=True, rng=seed).random(SOBOL_QUERIES)
    out = []
    for u in u_all:
        rho = (_log_uniform(u[0], *RHO_RANGE), _log_uniform(u[12], *RHO_RANGE))
        s = _sign(u[6]) * _log_uniform(u[1], *S_RANGE)
        mono = u[2] < MONOMIAL_SHARE
        n = 2 + min(int(u[3] * 8), 7)
        m = -1 + min(int(u[4] * 4), 3)
        t = _log_uniform(u[5], *T_RANGE)
        lead = _lead(n, u[7], u[8])
        coeffs = {n: lead}
        scale = (abs(lead) * t) ** (1.0 / n)
        if mono:
            chosen = []
        elif n == 2:   # drift and phase rate, stripped by normalize
            chosen = [1, 0]
        else:
            lower = list(range(2, n))
            chosen = [lower.pop(min(int(u[10] * len(lower)), len(lower) - 1))]
            if lower and u[9] >= 0.5:
                chosen.append(lower[min(int(u[11] * len(lower)), len(lower) - 1)])
        for j, r, ua in zip(chosen, rho, (u[13], u[14])):
            coeffs[j] = _lower(j, r, ua, scale, t)
        out.append(_query("mono" if mono else "mixed", coeffs, m, s, t))
    rng = random.Random(seed)
    for i in range(K5_QUERIES):
        sigma = 1.0 if i % 2 == 0 else -1.0
        lead = sigma * _log_uniform(rng.random(), 0.5, 2.0)
        s = sigma * (4.0 + 60.0 * (i + rng.random()) / K5_QUERIES)
        out.append(_query("k5", {5: lead}, rng.choice((0, 1)), s,
                          10.0 ** rng.uniform(-6.0, 0.0)))
    for i in range(T0_QUERIES):   # t = 0: the exact closed form, no contour
        n = rng.randint(2, 9)
        y = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 1.5)
        out.append(("t0", {n: _lead(n, rng.random(), rng.random())},
                    rng.randint(0, 2), y, 0.0))
    return out


def frozen_queries(root):
    """The tests' frozen oracle points, the same in every run."""
    frozen = references.load_frozen(root)
    out = []
    for coeffs, m, y, t, re, im in frozen.FROZEN_I.values():
        out.append(("anchor", coeffs, m, y, t, complex(re, im)))
    for coeffs, x, t, val in frozen.FROZEN_KERNEL.values():
        out.append(("anchor", coeffs, -1, x, t, complex(val)))
    return out


class Queries:
    """One pass over independent eval_I queries, each with a work budget.

    Operations fail when they raise, run past the budget, or disagree with
    the reference; every draw is kept, failing or not.  The budget stays
    installed for the life of the process.
    """

    name = "queries"
    repeated = False
    root_span = None

    def __init__(self, pkg, root, seed):
        self.pkg = pkg
        self.items = frozen_queries(root) + [q + (None,) for q in draw_queries(seed)]
        self.budget = Budget(pkg)

    def run_one(self, item):
        """(latency s, value or None, exception name or None)."""
        _, coeffs, m, y, t, _ = item
        t0 = time.perf_counter()
        try:
            with self.budget.limit():
                value = self.pkg.special.eval_I(coeffs, m, y, t)
        except (Deadline, ArithmeticError, RuntimeError, ValueError) as exc:
            return time.perf_counter() - t0, None, type(exc).__name__
        return time.perf_counter() - t0, value, None

    def _alternatives(self, coeffs, m, y, t):
        """Values of the forced routes that answer within the budget."""
        for method in ("direct", "descent"):
            try:
                with self.budget.limit():
                    value = self.pkg.special.eval_I(coeffs, m, y, t, method=method)
            except (Deadline, ArithmeticError, RuntimeError, ValueError):
                continue
            yield value

    def verdict(self, item, value):
        """How an answered query checked out: one of CORRECT_VERDICTS, or 'wrong'."""
        _, coeffs, m, y, t, frozen = item
        if frozen is not None:
            ok = references.close(value, frozen, 1.0, references.FROZEN_TOL)
            return "frozen" if ok else "wrong"
        scale = canonical_scale(coeffs, m, t)
        ref = references.closed_form(coeffs, m, y, t)
        if ref is not None:
            return "closed" if references.close(value, ref, scale) else "wrong"
        others = [v for v in self._alternatives(coeffs, m, y, t) if v != value]
        if not others:
            return "unchecked"
        if all(references.close(value, v, scale) for v in others):
            return "routes"
        return "wrong"


CORRECT_VERDICTS = ("frozen", "closed", "routes", "unchecked")
WORKLOADS = {cls.name: cls for cls in (Gibbs, Solve, Queries)}
