import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import cumulative_trapezoid
from scipy.special import airy, erf, sici

from dispgibbs import (eval_I_grid, fourier_gibbs_reference, gibbs, overshoot,
                       overshoot_table, quadrature, special,
                       wilbraham_gibbs_constant)

from _frozen import GIBBS_CONSTANT


@pytest.fixture(scope="module")
def report3():
    return overshoot(3)


def test_gibbs_constant():
    g = wilbraham_gibbs_constant()
    assert abs(g - GIBBS_CONSTANT) < 1e-15
    assert abs(g - (sici(math.pi)[0] / math.pi - 0.5)) < 1e-13
    assert f"{g:.6f}" == "0.089490"


def test_overshoot_schrodinger_against_closed_form():
    # brute-force the dispersive step 1/2 + (erf(e^{-i pi/4} y/2))/2 on a
    # dense grid and compare with the refined report
    y = np.linspace(0.0, 10.0, 50001)
    g = erf(np.exp(-1j * np.pi / 4) * y / 2).real.max() / 2 + 0.5
    rep = overshoot(2)
    assert abs(rep.sup_re - g) < 1e-6
    assert rep.arg_sup_re > 0


def test_overshoot_airy_against_primitive(report3):
    # independent n = 3 anchor: G(y) = 1/3 + int_{-3^{-1/3} y}^0 Ai, maximized
    # over the oscillatory side via a dense cumulative trapezoid of scipy's Ai
    u = np.linspace(-20.0, 0.0, 400001)
    ai = airy(u)[0]
    cum = cumulative_trapezoid(ai, u, initial=0.0)   # int_{-20}^{u} Ai
    g = 1.0 / 3.0 + (cum[-1] - cum)                  # int_u^0 Ai
    assert abs(report3.sup_re - g.max()) < 1e-6


def test_overshoot_bounds(report3):
    g = wilbraham_gibbs_constant()
    for rep in [overshoot(2), report3, overshoot(4)]:
        assert 1.0 < rep.sup_re < 1.0 + 4 * g
        # the low side can graze zero from above (no undershoot for n = 3)
        assert -0.5 < rep.inf_re <= 1e-6
        assert rep.sup_abs >= rep.sup_re - 1e-12
        assert abs(rep.sup_im) < 0.5 and abs(rep.inf_im) < 0.5


def test_overshoot_schrodinger_symmetry():
    # even real kernel: G(y) + G(-y) = 1, so inf_re = 1 - sup_re
    rep = overshoot(2)
    assert abs(rep.inf_re - (1.0 - rep.sup_re)) < 1e-6
    assert abs(rep.sup_im + rep.inf_im) < 1e-6


def test_overshoot_imaginary_part_vanishes_for_airy(report3):
    # sigma real and odd power: the kernel is real, so G is real
    assert abs(report3.sup_im) < 1e-7
    assert abs(report3.inf_im) < 1e-7


def test_overshoot_determinism(report3):
    assert overshoot(3) == report3


def test_overshoot_t_independent(report3):
    for t in (0.25, 4.0):
        rep = overshoot(3, t=t)
        assert abs(rep.sup_re - report3.sup_re) < 1e-7
        assert abs(rep.inf_re - report3.inf_re) < 1e-7
        # the location scales with the similarity length t^{1/3}
        assert abs(rep.arg_sup_re * t ** (-1 / 3) - report3.arg_sup_re) < 1e-6


def test_overshoot_monotone_in_n(report3):
    # |sup_re - (1+g)| shrinks with n within each parity family; even symbols
    # start much closer than odd ones, so the families are compared separately
    g = wilbraham_gibbs_constant()
    dev = {n: abs(overshoot(n).sup_re - (1 + g)) for n in (2, 4, 5)}
    dev[3] = abs(report3.sup_re - (1 + g))
    assert dev[3] > dev[5]
    assert dev[2] > dev[4]
    assert dev[2] < dev[3]


def test_overshoot_validation():
    with pytest.raises(ValueError):
        overshoot(1)


@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
def test_overshoot_refuses_a_time_that_is_not_finite_and_positive(t):
    # checked before the similarity length (|sigma| t)^(1/n) is taken, which
    # is complex for t < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overshoot needs a finite t > 0"):
            overshoot(3, t=t)


def test_overshoot_refuses_a_large_degree_before_its_scan():
    # the scan over [-2n, 2n] would take 32 MB at n = 10^5
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="beyond supported maximum"):
            overshoot(10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_overshoot_table(report3):
    rows = overshoot_table([2, 3])
    assert [r.n for r in rows] == [2, 3]
    assert rows[1] == report3


def test_fourier_reference():
    g = wilbraham_gibbs_constant()
    x = np.linspace(0.9, 1.1, 8001)
    s = fourier_gibbs_reference(400, x)
    assert np.isrealobj(s)
    assert abs(s.max() - (1 + g)) < 2e-3
    assert abs(fourier_gibbs_reference(400, [0.0])[0] - 1.0) < 2e-3
    left = fourier_gibbs_reference(50, -x)
    assert np.max(np.abs(left - fourier_gibbs_reference(50, x))) == 0.0
    with pytest.raises(ValueError):
        fourier_gibbs_reference(0, [0.0])


@pytest.mark.parametrize("n", [3, 5, 9])
def test_overshoot_refinement_never_loses_to_the_grid(n, report3):
    rep = report3 if n == 3 else overshoot(n)
    L = max(10.0, 2.0 * n)
    vals = eval_I_grid({n: 1.0}, 0, np.arange(-L, L + 1e-12, 0.1), 1.0) + 1.0
    assert rep.sup_re >= vals.real.max() and rep.inf_re <= vals.real.min()
    assert rep.sup_im >= vals.imag.max() and rep.inf_im <= vals.imag.min()
    assert rep.sup_abs >= np.abs(vals).max() and rep.inf_abs <= np.abs(vals).min()
    if n == 3:
        # G_3 stays positive: its smallest modulus is the smallest real part,
        # at the decaying end of the grid
        assert rep.inf_abs == rep.inf_re > 0
    else:
        # the profile crosses zero; refining |G|^2 (smooth there, unlike |G|)
        # lands on the zero
        assert rep.inf_abs < 1e-10


def test_batched_work_goes_through_the_module_hooks(spy):
    # profilers and work budgets wrap these three names where the package
    # looks them up; batched evaluation must build and integrate through them
    builds = spy(special, "direct_contour")
    sums = spy(special, "integrate_contour")
    spy(special, "descent_system", fail=AssertionError("batched evaluation built a descent contour"))
    rules = spy(quadrature, "integrate_segment")

    eval_I_grid({3: 1.0}, 0, np.linspace(-8.0, 8.0, 33), 1.0)
    overshoot(3)
    contours = [c for _, c in builds]
    assert len(contours) == 1 + 2    # the grid; the scan and the brackets
    assert [args[1] for args, _ in sums] == contours
    segments = {(sg.start, sg.end) for c in contours for sg in c.segments}
    assert {args[1:3] for args, _ in rules} == segments


def test_overshoot_evaluates_each_shared_bracket_once(spy):
    # the six targets of the real, positive G_3 share grid extrema (sup |G|^2
    # with sup Re G, inf |G|^2 with inf Re G): each shared bracket's
    # Chebyshev points are evaluated once
    batches = spy(gibbs, "eval_I_grid")
    overshoot(3)
    sizes = [len(ys) for (_, _, ys, _), _ in batches]
    assert len(sizes) == 2    # the scan and the brackets
    assert sizes[1] % gibbs.CHEB_POINTS == 0
    assert sizes[1] < 6 * gibbs.CHEB_POINTS


def _reference_argmax(values):
    """The least-squares chebfit, chebder, chebroots and chebval argmax that
    _cheb_argmax's precomputed maps replace."""
    x = quadrature.clenshaw_curtis_rule(len(values) - 1)[0]
    coef = chebyshev.chebfit(x, values, len(values) - 1)
    crit = chebyshev.chebroots(chebyshev.chebder(coef)).real
    cand = np.concatenate(([-1.0, 1.0], crit[np.abs(crit) <= 1.0]))
    return float(cand[np.argmax(chebyshev.chebval(cand, coef))])


def _reference_at(x, g):
    """The chebfit and chebval interpolant through g at x."""
    nodes = quadrature.clenshaw_curtis_rule(len(g) - 1)[0]
    return chebyshev.chebval(x, chebyshev.chebfit(nodes, g, len(g) - 1))


def test_cheb_argmax_matches_the_reference_on_the_table_brackets(spy):
    seen = spy(gibbs, "_cheb_argmax")
    overshoot_table([3, 5, 9])
    # 4 targets each: the +-Im targets of the real profiles see only rounding
    assert len(seen) == 12
    for (values, g), (got, at) in seen:
        assert abs(got - _reference_argmax(values)) <= 1e-9
        assert abs(at - _reference_at(got, g)) <= 1e-14


@pytest.mark.parametrize("f, where", [
    (np.exp, 1.0),
    (lambda x: -np.exp(2.0 * x), -1.0),
    (lambda x: np.cos(3.0 * x - 0.5), 0.5 / 3.0),
    (lambda x: np.exp(-4.0 * (x - 0.4) ** 2), 0.4),
    # nearly double critical points (two close real roots of f', then a
    # complex pair) below an endpoint maximum
    (lambda x: (x - 0.3) ** 3 - 1e-8 * (x - 0.3), 1.0),
    (lambda x: (x - 0.3) ** 3 + 1e-14 * (x - 0.3), 1.0),
])
def test_cheb_argmax_matches_the_reference_on_entire_functions(f, where):
    x = quadrature.clenshaw_curtis_rule(gibbs.CHEB_POINTS - 1)[0]
    values = f(x)
    got, at = gibbs._cheb_argmax(values, np.exp(1j * x))
    assert abs(got - _reference_argmax(values)) <= 1e-9
    assert abs(got - where) <= 1e-9
    assert abs(at - np.exp(1j * got)) <= 1e-14


_PARTS = {"re": lambda g: g.real, "im": lambda g: g.imag, "abs": abs}
_KEYS = ("sup_re", "inf_re", "sup_im", "inf_im", "sup_abs", "inf_abs")


def _recorded_overshoot(spy, n, sigma):
    """overshoot(n, sigma), its two eval_I_grid batches as (ys, G) and its
    _cheb_argmax calls as (y, G there) on the bracket's y axis."""
    grids, calls = spy(gibbs, "eval_I_grid"), spy(gibbs, "_cheb_argmax")
    rep = overshoot(n, sigma)
    batches = [(np.array(ys), values + 1.0) for (_, _, ys, _), values in grids]
    assert len(batches) == 2    # the scan and the brackets
    near_ys, near = (a.reshape(-1, gibbs.CHEB_POINTS) for a in batches[1])
    located = []
    for (_, g), (x, at) in calls:
        # the bracket whose Chebyshev values g are; its points descend from hi to lo
        k = next(k for k, row in enumerate(near) if np.array_equal(row, g))
        hi, lo = near_ys[k, 0], near_ys[k, -1]
        located.append((0.5 * (lo + hi) + 0.5 * (hi - lo) * x, at))
    return rep, batches[0], located


@pytest.mark.parametrize("n, sigma", [(n, s) for s in (1.0, -1.0) for n in (2, 3, 4, 5, 9, 17, 33, 64)]
                         + [(n, -1j) for n in (2, 4, 16, 64)])
def test_every_extremum_is_g_at_its_location(spy, n, sigma):
    # each reported value is a part of G at a point the scan or an
    # interpolant located; G there, integrated afresh, agrees to rounding
    rep, (ys, scan), located = _recorded_overshoot(spy, n, sigma)
    candidates = located + list(zip(ys, scan))
    where = [rep.arg_sup_re] + [
        next(y for y, g in candidates if _PARTS[key[4:]](g) == getattr(rep, key))
        for key in _KEYS[1:]]
    want = eval_I_grid({n: sigma}, 0, np.array(where), 1.0, method="direct") + 1.0
    for key, g in zip(_KEYS, want):
        assert abs(getattr(rep, key) - _PARTS[key[4:]](g)) <= 1e-14 * (1 + abs(g)), key


@pytest.mark.parametrize("n, sigma, real", [
    (3, 1.0, True), (5, 1.0, True), (9, -1.0, True), (2, -1j, True), (4, -1j, True),
    (2, 1.0, False), (4, 1.0, False), (4, -1.0, False),
])
def test_targets_that_see_only_rounding_take_no_bracket(spy, n, sigma, real):
    # Im G of a real profile (odd n at real sigma, even n at sigma = -i) is
    # rounding noise: its targets keep the scan's extremes and no bracket
    rep, (ys, scan), located = _recorded_overshoot(spy, n, sigma)
    assert len(located) == (4 if real else 6)
    if real:
        assert rep.sup_im == scan.imag.max() and rep.inf_im == scan.imag.min()
        assert rep.sup_im - rep.inf_im <= 64 * np.finfo(float).eps * np.abs(scan).max()


def test_overshoot_refuses_a_degree_or_term_count_that_is_not_an_integer(report3):
    for n in (2.9, 3.0, "3", True, None):
        with pytest.raises(ValueError, match="an integer n >= 2"):
            overshoot(n)
    for n_terms in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="an integer count of Fourier terms"):
            fourier_gibbs_reference(n_terms, [0.0, 0.5])
    # any integer type is taken, as its int
    rep = overshoot(np.int64(3))
    assert rep == report3 and type(rep.n) is int
    x = np.linspace(0.0, 2.0, 9)
    assert fourier_gibbs_reference(np.int64(7), x).tobytes() == fourier_gibbs_reference(7, x).tobytes()
