"""End-to-end acceptance checks.

One test per shipped acceptance criterion, each printing a single
PASS/FAIL line with the measured numbers (visible with -rA, or on failure).
Tolerances are stated inline next to each assertion.
"""

import math
import time

import numpy as np
from scipy.special import sici

from dispgibbs import (PiecewisePolynomialIC, asymptotic_I, box, eval_I,
                       normalize, overshoot,
                       rescaled_profile, residue_part, smoothed_box, solve,
                       wilbraham_gibbs_constant)
from dispgibbs.cli import SUITES

HEAT = normalize({2: -1j})
SCHRO = normalize({2: 1})
GIBBS = 0.089489872236083635


def _line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_gibbs_constant():
    t0 = time.perf_counter()
    g = wilbraham_gibbs_constant()
    dt = time.perf_counter() - t0
    err = abs(g - (sici(math.pi)[0] / math.pi - 0.5))
    ok = f"{g:.6f}" == "0.089490" and err < 1e-12 and dt < 1.0
    _line(1, ok, f"g printed {g:.6f}; |g - Si(pi)/pi + 1/2| = {err:.2e} "
                 f"(< 1e-12); {dt:.3f} s (< 1 s)")


def test_criterion_02_closed_form_oracles():
    # the `dispgibbs verify oracles` suite: heat and Schrodinger against
    # erf, the Airy primitive against quadrature of Ai, 201 points each
    t0 = time.perf_counter()
    ok, lines = SUITES["oracles"]()
    dt = time.perf_counter() - t0
    errs = ", ".join(f"{label} {err:.2e} (< {tol:g})" for label, err, tol in lines)
    _line(2, ok and dt < 30.0, f"201-pt max errs: {errs}; {dt:.1f} s (< 30 s)")


def test_criterion_03_values_at_zero():
    worst_val = 0.0
    worst_t = 0.0
    for n, sgn in [(2, 1), (4, 1), (6, 1),
                   (3, 1), (3, -1), (5, 1), (5, -1), (7, 1), (7, -1)]:
        om = normalize({n: float(sgn)})
        want = -0.5 if n % 2 == 0 else -0.5 * (1 + sgn / n)
        vals = [eval_I(om, 0, 0.0, t) for t in (1e-3, 1.0, 10.0)]
        worst_val = max(worst_val, max(abs(v - want) for v in vals))
        worst_t = max(worst_t, max(abs(v - vals[1]) for v in vals))
    ok = worst_val < 1e-9 and worst_t < 1e-10
    _line(3, ok, f"value-at-zero err {worst_val:.2e} (< 1e-9); "
                 f"t-spread {worst_t:.2e} (< 1e-10) over t in {{1e-3,1,10}}")


def test_criterion_04_overshoot_convergence():
    # the `dispgibbs verify gibbs` suite: |sup_re-(1+g)| strictly decreasing
    # over n=3,5,9,17,33 and below 0.02 at 33, |im| of the n=33 extrema, the
    # t-spread of n=3,5 over t in {0.25,4}, n=2 against its closed form
    t0 = time.perf_counter()
    ok, lines = SUITES["gibbs"]()
    dt = time.perf_counter() - t0
    errs = "; ".join(f"{label} {err:.3e} (< {tol:g})" for label, err, tol in lines)
    _line(4, ok and dt < 300.0, f"{errs}; {dt:.0f} s (< 300 s)")


def test_criterion_05_limits_and_ladder():
    # the `dispgibbs verify limits` table of far-end values, and the
    # derivative ladder and seeded ODE residuals of `dispgibbs verify ode`
    _, ends = SUITES["limits"]()
    e_end = max(err for _, err, _ in ends)
    ode = {label: err for label, err, _ in SUITES["ode"]()[1]}
    e_lad = ode["derivative ladder (12 samples)"]
    e_ode = ode["ode residual (20 seeded samples, h 1e-2)"]

    ok = e_end < 1e-3 and e_lad < 1e-5 and e_ode < 1e-4
    _line(5, ok, f"endpoint err {e_end:.2e} (< 1e-3, {len(ends)} ends); "
                 f"ladder err {e_lad:.2e} (< 1e-5); ode residual {e_ode:.2e} "
                 f"(< 1e-4, 20 samples)")


def test_criterion_06_asymptotics():
    om3 = normalize({3: 1})
    r10 = abs(eval_I(om3, 0, -10.0, 1.0) - residue_part(om3, 0, -10.0, 1.0))
    r100 = abs(eval_I(om3, 0, -100.0, 1.0) - residue_part(om3, 0, -100.0, 1.0))
    superpoly = r100 < r10 * 10.0 ** (-8)

    rel = []
    for s in (20.0, 40.0):
        ev = eval_I(HEAT, 0, s, 1.0)
        rel.append(abs(asymptotic_I(HEAT, 0, s, 1.0).total - ev) / abs(ev))
    heat_ok = rel[0] < 0.05 and rel[1] < 0.5 * rel[0]

    ok = superpoly and heat_ok
    _line(6, ok, f"plateau residual {r10:.1e} -> {r100:.1e} over y=-10 -> -100 "
                 f"(beats |y|^-8); heat rel err {rel[0]:.2e} @ s=20 (< 5%), "
                 f"x{rel[1] / rel[0]:.2f} at s=40 (< 0.5)")


def test_criterion_07_universality():
    t0 = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 21)
    target = np.array([eval_I(SCHRO, 0, float(x), 1.0) for x in grid])
    devs = []
    for t in (1e-6, 1e-8):
        prof = rescaled_profile(box(), SCHRO, -1.0, grid, t)
        devs.append(float(np.max(np.abs(prof - target))))
    dt = time.perf_counter() - t0
    ok = devs[0] < 0.01 and devs[1] < devs[0] and dt < 60.0
    _line(7, ok, f"sup dev {devs[0]:.2e} @ t=1e-6 (< 0.01), {devs[1]:.2e} "
                 f"@ t=1e-8 (decreasing); {dt:.1f} s (< 60 s)")


def test_criterion_08_gibbs_on_line():
    om = normalize({5: 1})
    t = 1e-6
    xs = np.linspace(-1.5, -0.5, 251)
    qmax = max(solve(box(), om, float(x), t).real for x in xs)
    want = overshoot(5).sup_re
    ok = abs(qmax - want) < 0.01
    _line(8, ok, f"max Re q near the jump {qmax:.6f} vs overshoot(5).sup_re "
                 f"{want:.6f}; |diff| {abs(qmax - want):.2e} (< 0.01)")


def _mirrored_smoothed_box(delta):
    # smoothed_box(delta) reflected through x = 0: the ramp replaces the
    # step-down edge at +1, and the unit jump stays at -1
    d = float(delta)
    return PiecewisePolynomialIC((-1, 1, 1 + d), ((1,), ((1 + d) / d, -1 / d)))


def _solve_window(ic, om, xs, t):
    # the array solve over a window, checked against the scalar solve at its
    # ends, its middle and two points between
    q = solve(ic, om, xs, t)
    for i in np.linspace(0, len(xs) - 1, 5).astype(int):
        ref = solve(ic, om, float(xs[i]), t)
        assert abs(q[i] - ref) <= 1e-12 * (1 + abs(ref)), (float(xs[i]), q[i], ref)
    return q


def test_criterion_09_smoothed_ics():
    # For omega = -k^3 the level-one oscillation of a unit jump sits at the
    # step-down edge, inside the support (the jump profile is the Airy
    # primitive of criterion 02, with G(0) = 2/3 as in criterion 03), so the
    # smoothed edge is the one at x = +1.
    om = normalize({3: -1})
    t = 1e-7
    xs = np.linspace(0.88, 1.12, 601)
    peaks = {}
    for d in (0.01, 0.1):
        peaks[d] = float(_solve_window(_mirrored_smoothed_box(d), om, xs, t).real.max())

    xs2 = np.linspace(0.8, 1.2, 161)
    qb = _solve_window(box(), om, xs2, t)
    sups = []
    for d in (0.1, 0.01, 0.001):
        qd = _solve_window(_mirrored_smoothed_box(d), om, xs2, t)
        sups.append(float(np.abs(qb - qd).max()))

    sharp = peaks[0.01] > 1 + GIBBS / 2
    smoothed = peaks[0.1] < 1.02
    approx = sups[0] > sups[1] > sups[2]
    ok = sharp and smoothed and approx
    _line(9, ok, f"max Re near smoothed edge: {peaks[0.01]:.5f} @ d=0.01 "
                 f"(needs > {1 + GIBBS / 2:.5f}), {peaks[0.1]:.5f} @ d=0.1 "
                 f"(needs < 1.02); sup|q-q_d| {sups[0]:.3f} -> {sups[1]:.3f} "
                 f"-> {sups[2]:.3f} (decreasing)")


def test_smoothed_edge_oscillation_suppression_both_orientations():
    # smoothing an edge suppresses its jump-local oscillation once delta
    # passes the dispersive length t^(1/3), in both orientations of the
    # symbol and with the statistic that matches each; the reflection
    # x -> -x (omega(k) -> omega(-k)) ties the +k^3 case here to the
    # mirrored -k^3 edge of criterion 09
    t = 1e-7
    xs = np.linspace(-1.12, -0.88, 601)

    # +k^3: oscillation inside the support, around level one
    om_p = normalize({3: 1})
    hi = {d: float(_solve_window(smoothed_box(d), om_p, xs, t).real.max())
          for d in (0.01, 0.1)}
    assert hi[0.01] > 1 + GIBBS / 2
    assert hi[0.1] < 1.02

    # -k^3: oscillation outside the support, around level zero
    om_m = normalize({3: -1})
    lo = {d: float(_solve_window(smoothed_box(d), om_m, xs, t).real.min())
          for d in (0.01, 0.1)}
    assert lo[0.01] < -GIBBS / 2
    assert lo[0.1] > -0.03

    for d in (0.01, 0.1):
        for x in (0.9, 0.99, 1.0, 1.005, 1.05):
            q = solve(_mirrored_smoothed_box(d), om_m, x, t)
            assert abs(q - solve(smoothed_box(d), om_p, -x, t)) \
                <= 1e-12 * (1 + abs(q))


def test_criterion_10_cross_method_consistency():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        n = int(rng.choice([2, 3, 4, 5]))
        if n % 2 == 0:
            sig = complex(rng.choice([1.0 + 0j, -1.0 + 0j, -1j, 0.5 - 0.5j]))
        else:
            sig = complex(rng.choice([1.0, -1.0, 0.8, -0.8]))
        om = normalize({n: sig})
        m = int(rng.choice([-1, 0, 1]))
        t = float(rng.uniform(0.1, 2.0))
        s = float(rng.uniform(5.0, 15.0) * rng.choice([-1, 1]))
        y = s * (abs(sig) * t) ** (1.0 / n)
        vd = eval_I(om, m, y, t, method="descent")
        vr = eval_I(om, m, y, t, method="direct")
        worst = max(worst, abs(vd - vr) / (1 + abs(vr)))
    ok = worst < 1e-8
    _line(10, ok, f"descent vs direct over 50 seeded queries "
                  f"(n in 2..5, m in -1..1): worst {worst:.2e} (< 1e-8)")
