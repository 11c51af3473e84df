import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.special import erf

from dispgibbs import (NoConvergence, NotAJump, PiecewisePolynomialIC, PieceTooShallow,
                       box, eval_I, jump_decomposition, normalize, quadrature,
                       rescaled_profile, smoothed_box, solve, special,
                       taylor_away, tent)

HEAT = normalize({2: -1j})
SCHRO = normalize({2: 1})


def test_box_jumps():
    assert list(jump_decomposition(box()).items()) == [((-1.0, 0), 1.0), ((1.0, 0), -1.0)]


def test_tent_jumps():
    # continuous, so only first-derivative jumps survive
    assert list(jump_decomposition(tent()).items()) == [
        ((-1.0, 1), 1.0), ((0.0, 1), -2.0), ((1.0, 1), 1.0)]


def test_smoothed_box_jumps():
    d = 0.1
    jd = jump_decomposition(smoothed_box(d))
    assert len(jd) == 3
    assert jd.get((-1.0 - d, 1), 0j) == pytest.approx(1 / d)
    assert jd.get((-1.0, 1), 0j) == pytest.approx(-1 / d)
    assert jd.get((1.0, 0), 0j) == -1.0
    assert jd.get((-1.0, 0), 0j) == 0j  # ramp meets the plateau continuously


def test_smoothed_box_mass():
    d = 0.4
    ic = smoothed_box(d)
    total = 0.0
    for a, b, p in zip(ic.breakpoints, ic.breakpoints[1:], ic.pieces):
        total += Polynomial(p).integ()(b) - Polynomial(p).integ()(a)
    assert total == pytest.approx(2 + d / 2, abs=1e-13)


def test_jump_closure():
    # sum_c [q^(m)](c) = -integral of q^(m+1) for compact support
    ic = PiecewisePolynomialIC((-1.0, 0.0, 1.0), ((0.0, 0.0, 1.0), (1.0, -1.0)))
    jd = jump_decomposition(ic)
    for m in range(3):
        total = sum(j for (c, mi), j in jd.items() if mi == m)
        integral = 0.0
        for a, b, p in zip(ic.breakpoints, ic.breakpoints[1:], ic.pieces):
            dp = Polynomial(p).deriv(m) if len(p) > m else Polynomial([0.0])
            integral += dp(b) - dp(a)
        assert total == pytest.approx(-integral, abs=1e-12), m


def test_ic_algebra():
    ic = 2.0 * box() + (-0.5) * tent()
    assert ic(0.3) == pytest.approx(2.0 - 0.5 * 0.7)
    assert ic(-2.0) == 0
    assert ic.derivative_jump(-1.0, 0) == pytest.approx(2.0)
    assert ic.derivative_jump(0.0, 1) == pytest.approx(1.0)


@pytest.mark.parametrize("breakpoints, pieces, message", [
    ((0.0,), (), "need at least two breakpoints"),
    ((0.0, math.inf), ((1.0,),), "breakpoints must be finite"),
    ((math.nan, 1.0), ((1.0,),), "breakpoints must be finite"),
    ((-1.0, 0.0, 1.0), ((1.0,),), "3 breakpoints need 2 pieces, got 1"),
])
def test_ic_refuses_bad_breakpoints_and_piece_counts(breakpoints, pieces, message):
    with pytest.raises(ValueError, match=message):
        PiecewisePolynomialIC(breakpoints, pieces)


def test_ic_repr_and_sum_with_a_number():
    assert repr(tent()) == ("PiecewisePolynomialIC(breakpoints=(-1.0, 0.0, 1.0), "
                            "pieces=(((1+0j), (1+0j)), ((1+0j), (-1+0j))))")
    with pytest.raises(TypeError):
        box() + 3


def test_degree_cap():
    with pytest.raises(ValueError):
        PiecewisePolynomialIC((0.0, 1.0), ((1.0,) * 12,))
    with pytest.raises(ValueError):
        PiecewisePolynomialIC((1.0, 0.0), ((1.0,),))


@pytest.mark.parametrize("breakpoints, pieces", [
    ([-1, 1], [[math.inf]]),
    ([-1, 0, 1], [[math.nan], [1.0]]),
    ([-1, 1], [[1.0, complex(0.0, -math.inf)]]),
    ([-1, 0, 1], [[1.0], [0.5, complex(math.nan, 1.0)]]),
])
def test_non_finite_coefficients_are_refused(breakpoints, pieces):
    # jump_decomposition drops nan and inf jumps, so they must not get in
    with pytest.raises(ValueError, match="must be finite"):
        PiecewisePolynomialIC(breakpoints, pieces)


def test_heat_box_matches_error_function():
    # box under the heat flow: (erf((x+1)/2 sqrt t) - erf((x-1)/2 sqrt t)) / 2
    ic = box()
    for t in (0.01, 0.25):
        for x in np.linspace(-3.0, 3.0, 13):
            got = solve(ic, HEAT, float(x), t)
            want = (erf((x + 1) / (2 * math.sqrt(t)))
                    - erf((x - 1) / (2 * math.sqrt(t)))) / 2
            assert abs(got - want) < 1e-10, (x, t)


def test_solve_reproduces_ic_at_t0():
    for ic in (box(), tent(), smoothed_box(0.2)):
        for x in (-1.7, -0.4, 0.0, 0.3, 0.9, 1.05, 2.5):
            if x in ic.breakpoints:
                continue
            assert abs(solve(ic, normalize({3: 1, 2: 1}), x, 0.0) - ic(x)) < 1e-12


def test_solve_linearity():
    a, b = 1.5, -0.6
    ic = a * box() + b * tent()
    for x, t in [(0.4, 0.2), (-1.2, 0.05)]:
        lhs = solve(ic, SCHRO, x, t)
        rhs = a * solve(box(), SCHRO, x, t) + b * solve(tent(), SCHRO, x, t)
        assert abs(lhs - rhs) < 1e-10


def test_mirror_symmetry():
    # even data: flipping the sign of an odd symbol mirrors the solution
    for x, t in [(0.5, 0.3), (1.0, 0.02), (-2.2, 0.05)]:
        lhs = solve(box(), normalize({3: -1}), -x, t)
        rhs = solve(box(), normalize({3: 1}), x, t)
        assert abs(lhs - rhs) < 1e-10


def test_drift_and_phase_strip():
    # omega = k^2 + k transports at unit speed; a constant spins the phase
    x, t = 0.7, 0.15
    assert abs(solve(box(), normalize({2: 1, 1: 1}), x, t)
               - solve(box(), SCHRO, x - t, t)) < 1e-12
    assert abs(solve(box(), normalize({2: 1, 0: 5}), x, t)
               - np.exp(-5j * t) * solve(box(), SCHRO, x, t)) < 1e-12


def test_short_time_approach():
    # distance to the data away from the edges shrinks like the jump wake
    xs = [-0.6, -0.2, 0.3, 0.7, 1.4]
    errs = []
    for t in (1e-1, 1e-3, 1e-5):
        errs.append(max(abs(solve(box(), SCHRO, x, t) - box()(x)) for x in xs))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_taylor_exact_for_quadratic():
    # omega = k^2 on an x^2 piece: the series terminates, q = x^2 + 2 i t
    ic = PiecewisePolynomialIC((-1.0, 1.0), ((0.0, 0.0, 1.0),))
    got = taylor_away(ic, SCHRO, 0.4, 0.3, 1)
    assert got == pytest.approx(0.16 + 0.6j, abs=1e-14)


def test_taylor_guards():
    ic = PiecewisePolynomialIC((-1.0, 1.0), ((0.0, 0.0, 1.0),))
    with pytest.raises(PieceTooShallow):
        taylor_away(ic, SCHRO, 0.4, 0.3, 2)
    with pytest.raises(ValueError):
        taylor_away(box(), HEAT, 1.0, 0.3, 0)
    assert taylor_away(box(), HEAT, 5.0, 0.3, 3) == 0j
    assert taylor_away(box(), HEAT, 0.2, 0.0, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("order", [1.5, True, "1", -1])
def test_taylor_refuses_an_order_that_is_not_an_integer(order):
    # 1.5 and True gave the order-1 value
    with pytest.raises(ValueError, match="order must be an integer >= 0"):
        taylor_away(box(), HEAT, 0.2, 0.3, order)
    assert taylor_away(box(), HEAT, 0.2, 0.3, np.int64(0)) == 1.0


@pytest.mark.parametrize("x, t", [(0.2, math.nan), (0.2, math.inf), (math.nan, 0.3),
                                  (-math.inf, 0.3)])
def test_taylor_refuses_a_point_or_time_that_is_not_finite(x, t):
    # a time that is not finite gave nan, and x = nan gave 0j
    with pytest.raises(ValueError, match="a finite x and t"):
        taylor_away(box(), HEAT, x, t, 0)


@pytest.mark.parametrize("order,ts", [
    (1, (1e-3, 3e-4, 1e-4)),
    (2, (1e-2, 3e-3, 1e-3)),
    (3, (4e-2, 2e-2, 1e-2)),
])
def test_taylor_error_order(order, ts):
    # x^8 piece: repeated second derivatives survive past every tested order,
    # so the truncation error scales like t^(order+1); the heat symbol keeps
    # the breakpoint wake exponentially small inside these windows
    ic = PiecewisePolynomialIC((-2.0, 2.0), ((0.0,) * 8 + (1.0,),))
    x = 0.3
    errs = [abs(taylor_away(ic, HEAT, x, t, order) - solve(ic, HEAT, x, t))
            for t in ts]
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert order + 0.9 < slope < order + 1.1, (order, slope, errs)


def test_rescaled_profile_guards():
    grid = [0.0, 1.0]
    with pytest.raises(NotAJump):
        rescaled_profile(tent(), normalize({3: 1}), -1.0, grid, 0.01)
    with pytest.raises(ValueError):
        rescaled_profile(box(), normalize({3: 1, 2: 1}), 1.0, grid, 0.01)
    with pytest.raises(ValueError):
        rescaled_profile(box(), normalize({3: 1}), 1.0, grid, 0.0)


def test_rescaled_profile_converges_to_canonical():
    # zoomed at the left edge of the box the solution collapses onto
    # I_0(x, 1) for the governing monomial as t -> 0
    grid = np.linspace(-3.0, 3.0, 13)
    target = np.array([eval_I(SCHRO, 0, float(x), 1.0) for x in grid])
    devs = []
    for t in (1e-4, 1e-6):
        prof = rescaled_profile(box(), SCHRO, -1.0, grid, t)
        devs.append(np.max(np.abs(prof - target)))
    assert devs[0] < 5e-2
    assert devs[1] < 0.3 * devs[0]
    assert devs[1] < 5e-3


@pytest.mark.parametrize("ic", [box(), tent(), smoothed_box(0.1)],
                         ids=["box", "tent", "smoothed_box"])
def test_array_solve_matches_scalar_solve(ic):
    # one eval_I_grid per jump against one eval_I per jump and point; the
    # grid stays off every breakpoint, where t = 0 has no value
    xs = np.linspace(-2.05, 2.05, 42)
    for omega in ({3: 1}, {2: -1j}):
        for t in (0.0, 1e-3, 0.1, 1.0):
            got = solve(ic, omega, xs, t)
            want = np.array([solve(ic, omega, float(x), t) for x in xs])
            assert got.shape == xs.shape
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))), (omega, t)
    with pytest.raises(ValueError):
        solve(box(), {3: 1}, np.zeros((2, 2)), 0.1)


def test_grid_solve_goes_through_the_module_hooks(spy):
    # profilers and work budgets wrap these names where the package looks
    # them up; a grid solve must build and integrate through them, with one
    # batched descent build per jump instead of a descent system per point,
    # and one contour integral per saddle of each batch
    spy(special, "descent_system", fail=AssertionError("a grid solve built a lone descent system"))
    batches = spy(special, "descent_batches")
    builds = spy(special, "direct_contour")
    sums = spy(special, "integrate_contour")
    rules = spy(quadrature, "integrate_segment")
    xs = np.linspace(-2.0, 2.0, 41)
    solve(smoothed_box(0.1), {3: 1}, xs, 1e-3)
    jumps = len(jump_decomposition(smoothed_box(0.1)))
    saddles = sum(len(system.points) for _, built in batches for _, system in built)
    assert 0 < len(builds) <= jumps
    assert 0 < len(batches) <= jumps
    assert len(sums) <= saddles + len(builds)
    contours = [args[1] for args, _ in sums]
    assert {args[1:3] for args, _ in rules} == {(sg.start, sg.end) for c in contours
                                               for sg in c.segments}


@pytest.mark.parametrize("x, t, method, message", [
    (0.5, -1.0, "auto", "t must be finite and >= 0"),
    (0.5, math.inf, "auto", "t must be finite and >= 0"),
    ([0.0, math.nan], 1.0, "auto", "y must be finite"),
    (0.5, 1.0, "bogus", "unknown method 'bogus'"),
], ids=["negative-t", "infinite-t", "nan-x", "bogus-method"])
def test_solve_refuses_what_eval_I_grid_refuses_without_jumps(x, t, method, message):
    # an IC without jumps gave 0 for each of these; one with jumps raised
    zero = PiecewisePolynomialIC((-1.0, 1.0), ((0.0,),))
    assert jump_decomposition(zero) == {}
    for ic in (zero, box()):
        with pytest.raises(ValueError, match=message):
            solve(ic, HEAT, x, t, method=method)


def test_solve_past_the_float_range_is_a_numerical_failure():
    # the scaled phase overflows at x = 1e300: was numpy's LinAlgError, a
    # ValueError; now the descent point falls back to direct, whose
    # contour would need inf segments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="direct contour needs inf segments"):
            solve(box(), {3: 1}, [1e300], 1.0)


def test_concurrent_solves_match_serial_solves():
    # the CLI runs the times of one solve on threads; at both times the
    # grid takes the descent and the direct route, through the shared
    # Clenshaw-Curtis rule cache and numpy's per-context error state.
    # Each time runs twice, so there are more threads than on a 2-core
    # machine, and a short switch interval makes them interleave often
    ic, xs = smoothed_box(0.1), np.linspace(-2.0, 2.0, 41)
    ts = (1e-3, 0.1) * 2
    serial = [solve(ic, {3: 1}, xs, t) for t in ts]
    start = threading.Barrier(len(ts))
    results = [None] * len(ts)

    def worker(i):
        start.wait(timeout=60)
        results[i] = solve(ic, {3: 1}, xs, ts[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(ts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)
