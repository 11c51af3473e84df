"""Data-emitting command line for the dispersive Gibbs toolkit.

Six subcommands: eval (kernel integrals on a grid), solve (piecewise
polynomial evolution), gibbs-table (overshoot extrema per monomial degree),
kernel (fundamental solution), contour-dump (integration paths as JSON),
and verify (self-check suites).  Output is CSV/JSON/markdown written to
stdout or a file; identical invocations produce byte-identical bytes.

Exit codes: 0 success, 1 a verify check failed, 2 argument/validation
problems (every ValueError, and an IC file or --output path that cannot be
opened), 3 numerical failures (non-convergent
quadrature, a non-finite integrand, degenerate saddle geometry), with the
failing query echoed on stderr; _failures maps them in one place.

Each grid runs on one thread.  Only the times of one `solve` run side by
side, at most one per CPU the process may use; their rows and exit code
are those of taking the times one after another in --t order.
"""

import json
import math
import os
import sys
import threading
from contextlib import contextmanager

import click
import numpy as np

from .dispersion import DegeneratePhase, parse_omega
from .quadrature import NoConvergence, NonFinite
from .special import _evaluate, eval_I, eval_I_grid, ode_residual
from .contour import pole_avoiding_contour
from .ivp import PiecewisePolynomialIC, box, smoothed_box, solve, tent
from .gibbs import overshoot, overshoot_table, wilbraham_gibbs_constant

NUMERICAL_ERRORS = (NoConvergence, NonFinite, DegeneratePhase)
# a grid's quadrature rule is one (points x nodes) complex matrix: about
# 100 MB at this cap and order 64
MAX_GRID_POINTS = 100_000


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"grid must be a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.UsageError(f"grid must be a:b:n with numeric fields, got {text!r}")
    if n < 2:
        raise click.UsageError("grids need at least 2 points")
    if n > MAX_GRID_POINTS:
        raise click.UsageError(f"grids hold at most {MAX_GRID_POINTS} points, got {n}")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise click.UsageError("grid endpoints must be finite with a < b")
    return np.linspace(a, b, n)


def _parse_list(text, kind, option):
    """The comma-separated entries of text, each as kind; an entry kind
    refuses is a usage error of option."""
    try:
        return [kind(s) for s in text.split(",") if s]
    except ValueError:
        raise click.UsageError(f"bad {option} list {text!r}")


def _parse_omega_opt(text):
    try:
        return parse_omega(text)
    except ValueError as exc:
        raise click.UsageError(f"bad --omega {text!r}: {exc}")


def _parse_ic(text):
    if text == "box":
        return box()
    if text == "tent":
        return tent()
    if text.startswith("smoothed-box:"):
        try:
            return smoothed_box(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise click.UsageError(f"bad smoothed-box width: {exc}")
    if os.path.exists(text):
        try:   # malformed JSON is a ValueError too
            with open(text) as fh:
                data = json.load(fh)
            return PiecewisePolynomialIC(data["breakpoints"], data["pieces"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"bad IC file {text!r}: {exc}")
    raise click.UsageError(
        f"--ic must be box, tent, smoothed-box:<delta>, or a JSON file; got {text!r}")


def _emit(text, output):
    if output and output != "-":
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write --output {output!r}: {exc}")
    else:
        click.echo(text, nl=False)


def _table(header, rows, fmt):
    """rows as CSV, as a markdown table, or as a JSON list of {column: value}."""
    if fmt == "json":
        payload = [dict(zip(header, (float(v) for v in row))) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    if fmt == "markdown":   # the CSV's lines, whose cells hold no comma
        lines = ["| " + line.replace(",", " | ") + " |" for line in lines]
        lines.insert(1, "|" + "---|" * len(header))
    return "\n".join(lines) + "\n"


def _writes(*formats):
    """The options of a command that writes: --format, one of formats with
    the first the default (none when formats is empty), and --output."""
    def options(cmd):
        cmd = click.option("--output", default="-", show_default=True)(cmd)
        if formats:
            cmd = click.option("--format", "fmt", default=formats[0], show_default=True,
                               type=click.Choice(formats))(cmd)
        return cmd
    return options


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask where the
    platform has one, not the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Call(threading.Thread):
    """fn(*args) on its own thread; result() waits for it and returns its
    value or raises its exception in the caller's thread."""

    def __init__(self, fn, *args):
        super().__init__()
        self._fn, self._fn_args = fn, args
        self._value = self._error = None

    def run(self):
        try:
            self._value = self._fn(*self._fn_args)
        except BaseException as exc:
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


@contextmanager
def _failures(query):
    """The one map from failure to exit code: a numerical failure exits 3
    with the failing query on stderr; an invalid input (a ValueError) is a
    usage error, exit 2."""
    try:
        yield
    except NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        click.echo(f"failing query: {query}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Contour integrals, dispersive evolution, and Gibbs overshoot data."""


@main.command("eval")
@click.option("--omega", required=True, help="dispersion relation, e.g. 2:0-1i or 3:1,2:-0.5i")
@click.option("--m", default=0, show_default=True, help="pole order index (-1 to 9)")
@click.option("--t", required=True, type=float)
@click.option("--y-grid", "ygrid", required=True, help="a:b:n inclusive grid")
@click.option("--method", default="auto", show_default=True,
              type=click.Choice(["auto", "direct", "descent"]))
@_writes("csv", "json")
def eval_cmd(omega, m, t, ygrid, method, fmt, output):
    """Evaluate I_{omega,m}(y, t) over a y grid."""
    om = _parse_omega_opt(omega)
    ys = _parse_grid(ygrid)
    with _failures(f"eval --omega {omega} --m {m} --t {t} --y-grid {ygrid}"):
        vals = [eval_I(om, m, float(y), t, method=method) for y in ys]
    rows = [(y, v.real, v.imag) for y, v in zip(ys, vals)]
    _emit(_table(("y", "re", "im"), rows, fmt), output)


@main.command("solve")
@click.option("--omega", required=True)
@click.option("--ic", required=True,
              help="box | tent | smoothed-box:<delta> | IC JSON file")
@click.option("--t", "tlist", required=True,
              help="comma-separated times, e.g. 1e-6,1e-4")
@click.option("--x-grid", "xgrid", required=True)
@_writes("csv", "json")
def solve_cmd(omega, ic, tlist, xgrid, fmt, output):
    """Evolve a piecewise-polynomial IC and tabulate q(x, t)."""
    om = _parse_omega_opt(omega)
    data = _parse_ic(ic)
    xs = _parse_grid(xgrid)
    ts = _parse_list(tlist, float, "--t")
    if not ts or any(t < 0 or not math.isfinite(t) for t in ts):
        raise click.UsageError("--t needs finite times >= 0")

    # the times share nothing, and numpy releases the GIL inside its ufuncs,
    # so up to one time per usable CPU runs at once, each on its own thread.
    # The results are read in --t order, so the first failing time in the
    # list decides the exit.  A time starts only once the time `workers`
    # places before it has been read, so a failure or Ctrl-C waits for at
    # most workers - 1 running times and starts none
    calls = [_Call(solve, data, om, xs, t) for t in ts]
    workers = min(len(ts), _usable_cpus())
    for call in calls[:workers]:
        call.start()
    rows = []
    try:
        for i, (t, call) in enumerate(zip(ts, calls)):
            with _failures(f"solve --omega {omega} --ic {ic} --t {t} --x-grid {xgrid}"):
                vals = call.result()
            if i + workers < len(calls):
                calls[i + workers].start()
            rows += [(t, x, v.real, v.imag) for x, v in zip(xs, vals)]
    finally:
        for call in calls:
            if call.is_alive():
                call.join()
    _emit(_table(("t", "x", "re", "im"), rows, fmt), output)


@main.command("kernel")
@click.option("--omega", required=True)
@click.option("--t", required=True, type=float)
@click.option("--x-grid", "xgrid", required=True)
@_writes("csv", "json")
def kernel_cmd(omega, t, xgrid, fmt, output):
    """Fundamental solution K_t(x) = I_{omega,-1}(x, t)."""
    om = _parse_omega_opt(omega)
    xs = _parse_grid(xgrid)
    with _failures(f"kernel --omega {omega} --t {t} --x-grid {xgrid}"):
        vals = eval_I_grid(om, -1, xs, t, method="auto")
    rows = [(x, v.real, v.imag) for x, v in zip(xs, vals)]
    _emit(_table(("x", "re", "im"), rows, fmt), output)


GIBBS_COLUMNS = ("n", "sigma", "sup_re", "inf_re", "sup_im", "inf_im",
                 "sup_abs", "inf_abs", "arg_sup_re")


@main.command("gibbs-table")
@click.option("--n", "nlist", required=True, help="comma-separated degrees, e.g. 2,3,5")
@click.option("--sigma", default=1.0, show_default=True, type=float)
@_writes("csv", "json", "markdown")
def gibbs_cmd(nlist, sigma, fmt, output):
    """Overshoot extrema of the jump profile for monomial dispersion."""
    ns = _parse_list(nlist, int, "--n")
    if not ns or any(n < 2 for n in ns):
        raise click.UsageError("--n needs integers >= 2")
    with _failures(f"gibbs-table --n {nlist} --sigma {sigma}"):
        reports = overshoot_table(ns, sigma=sigma)
    rows = [(r.n, complex(r.sigma).real, r.sup_re, r.inf_re, r.sup_im,
             r.inf_im, r.sup_abs, r.inf_abs, r.arg_sup_re) for r in reports]
    _emit(_table(GIBBS_COLUMNS, rows, fmt), output)


@main.command("contour-dump")
@click.option("--omega", required=True)
@click.option("--m", default=0, show_default=True)
@click.option("--y", required=True, type=float)
@click.option("--t", required=True, type=float)
@click.option("--kind", default="auto", show_default=True,
              type=click.Choice(["auto", "direct", "descent", "detour"]))
@_writes()
def contour_cmd(omega, m, y, t, kind, output):
    """Integration-path segments as JSON [{re0, im0, re1, im1, order}].

    auto, direct and descent print the contours eval_I integrates for the
    query with that method; detour prints the undeformed defining path.
    """
    om = _parse_omega_opt(omega)
    if kind == "detour":
        contours = [pole_avoiding_contour()]
    else:
        if t <= 0:
            raise click.UsageError("contour construction needs t > 0")
        with _failures(f"contour-dump --omega {omega} --m {m} --y {y} --t {t}"):
            _, contours = _evaluate(om, m, [y], t, method=kind)
    segs = [
        {"re0": complex(sg.start).real, "im0": complex(sg.start).imag,
         "re1": complex(sg.end).real, "im1": complex(sg.end).imag,
         "order": sg.order}
        for c in contours for sg in c.segments
    ]
    _emit(json.dumps(segs, indent=2) + "\n", output)


def _suite_oracles():
    from scipy.special import airy, erf
    from .quadrature import integrate_segment

    lines = []
    s = np.linspace(-10.0, 10.0, 201)

    heat = np.array([eval_I({2: -1j}, 0, float(y), 1.0) for y in s])
    err = np.abs(heat - 0.5 * (erf(s / 2) - 1.0)).max()
    lines.append(("heat vs erf", err, 1e-8))

    sch = np.array([eval_I({2: 1.0}, 0, float(y), 1.0) for y in s])
    ref = 0.5 * (erf(np.exp(-1j * np.pi / 4) * s / 2) - 1.0)
    err = np.abs(sch - ref).max()
    lines.append(("schrodinger vs erf", err, 1e-8))

    def ai_cdf(v):
        # integral of Ai over (-inf, v] by spectral quadrature of the
        # (accurately tabulated) Airy function itself; Ai integrates to 2/3
        # over the left half-line and decays superexponentially past ~+15
        if v >= 0:
            tail, _ = integrate_segment(lambda z: airy(z)[0].real, v, v + 20.0, 192)
            return 1.0 - tail.real
        head, _ = integrate_segment(lambda z: airy(z)[0].real, v, 0.0, 256)
        return 2.0 / 3.0 - head.real

    stokes = np.array([eval_I({3: -1.0}, 0, float(y), 1.0) for y in s])
    ref = np.array([ai_cdf(v / 3.0 ** (1.0 / 3.0)) - 1.0 for v in s])
    err = np.abs(stokes - ref).max()
    lines.append(("stokes vs airy", err, 1e-6))
    return all(err < tol for _, err, tol in lines), lines


def _suite_ode():
    # the ODE identity at 20 fixed and 20 seeded samples, and the ladder
    # d/dy I_m = I_{m-1} by a fourth-order central difference
    worst = max(ode_residual(om, m, y, t)
                for om in ({2: -1j}, {2: 1.0}, {3: 1.0}, {3: -1.0}, {4: -1j})
                for m in (0, 1) for y, t in ((2.3, 0.7), (-5.1, 1.3)))
    lines = [("ode residual (20 samples)", worst, 1e-4)]

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([2, 3, 4]))
        sig = complex(rng.choice([1.0, -1.0])) if n % 2 else \
            complex(rng.choice([1.0 + 0j, -1j]))
        m = int(rng.choice([0, 1]))
        y = float(rng.uniform(0.5, 3.0) * rng.choice([-1, 1]))
        t = float(rng.uniform(0.3, 1.5))
        worst = max(worst, ode_residual({n: sig}, m, y, t, 1e-2))
    lines.append(("ode residual (20 seeded samples, h 1e-2)", worst, 1e-4))

    stencil = [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)]
    h = 1e-2
    worst = 0.0
    for om in ({2: -1j}, {3: 1}, {4: -1j}):
        for m in (0, 1):
            for y in (0.8, -1.7):
                fd = sum(w * eval_I(om, m, y + k * h, 0.7) for k, w in stencil) / h
                worst = max(worst, abs(fd - eval_I(om, m - 1, y, 0.7)))
    lines.append(("derivative ladder (12 samples)", worst, 1e-5))
    return all(err < tol for _, err, tol in lines), lines


def _suite_limits():
    checks = [
        ("heat left -> -1", {2: -1j}, -12.0, -1.0, 1e-3),
        ("heat right -> 0", {2: -1j}, 12.0, 0.0, 1e-3),
        ("stokes right -> 0", {3: -1.0}, 15.0, 0.0, 1e-3),
        ("stokes left -> -1", {3: -1.0}, -7000.0, -1.0, 1e-3),
        ("airy left -> -1", {3: 1.0}, -15.0, -1.0, 1e-3),
        ("schrodinger right -> 0", {2: 1.0}, 2000.0, 0.0, 1e-3),
        ("schrodinger left -> -1", {2: 1.0}, -2000.0, -1.0, 1e-3),
    ]
    lines = []
    for name, om, y, target, tol in checks:
        v = eval_I(om, 0, y, 1.0)
        lines.append((name, abs(v - target), tol))
    return all(err < tol for _, err, tol in lines), lines


def _suite_gibbs():
    # G_n = I_{k^n,0} + 1 tends to the classical overshoot 1 + g as n grows
    from scipy.special import erf, sici
    g = wilbraham_gibbs_constant()
    lines = [("gibbs constant vs Si(pi)", abs(g - (sici(math.pi)[0] / math.pi - 0.5)), 1e-12)]

    reports = overshoot_table([3, 5, 9, 17, 33])
    devs = [abs(r.sup_re - (1.0 + g)) for r in reports]
    ratio = max(b / a for a, b in zip(devs, devs[1:]))
    lines.append(("overshoot |sup_re-(1+g)| over n=3,5,9,17,33 = "
                  f"{', '.join(f'{d:.3e}' for d in devs)}: largest successive ratio",
                  ratio, 1.0))
    lines.append(("overshoot |sup_re-(1+g)| at n=33", devs[-1], 0.02))
    last = reports[-1]
    lines.append(("|sup_im|, |inf_im| at n=33", max(abs(last.sup_im), abs(last.inf_im)), 0.02))

    # the extrema do not depend on t
    spread = 0.0
    for r in reports[:2]:
        for t in (0.25, 4.0):
            o = overshoot(r.n, t=t)
            spread = max(spread, abs(o.sup_re - r.sup_re), abs(o.inf_re - r.inf_re))
    lines.append(("sup_re, inf_re at n=3,5: spread over t=0.25,1,4", spread, 1e-7))

    # Schrodinger (n = 2): G_2 = (erf(e^{-i pi/4} y/2) + 1)/2, peaked on [0, 10]
    y = np.linspace(0.0, 10.0, 50001)
    ref = (erf(np.exp(-1j * np.pi / 4) * y / 2).real.max() + 1.0) / 2
    lines.append(("overshoot n=2 sup_re vs Fresnel closed form",
                  abs(overshoot(2).sup_re - ref), 1e-6))
    return all(err < tol for _, err, tol in lines), lines


SUITES = {
    "oracles": _suite_oracles,
    "ode": _suite_ode,
    "limits": _suite_limits,
    "gibbs": _suite_gibbs,
}


@main.command("verify")
@click.argument("suite", required=False,
                type=click.Choice(sorted(SUITES) + ["all"]))
def verify_cmd(suite):
    """Run a self-check suite (oracles, ode, limits, gibbs; default all)."""
    names = sorted(SUITES) if suite in (None, "all") else [suite]
    all_ok = True
    for name in names:
        with _failures(f"verify {name}"):
            ok, lines = SUITES[name]()
        for label, err, tol in lines:
            status = "ok  " if err < tol else "FAIL"
            click.echo(f"{status} [{name}] {label}: err {err:.3e} (tol {tol:g})")
        all_ok &= ok
    if not all_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
