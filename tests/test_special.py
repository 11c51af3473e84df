import cmath
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import airy, erf, erfc

from dispgibbs import (DegeneratePhase, NoConvergence, NonFinite, asymptotic_I,
                       eval_E, eval_I, eval_I_grid, eval_kernel, gibbs, normalize,
                       ode_residual, quadrature, residue_part, special)
from dispgibbs.contour import Contour, Segment, descent_batches, descent_system, direct_contour
from dispgibbs.dispersion import scaled_phase, scaled_phase_rows

from _frozen import E_HEAT_M0_S2, FROZEN_I, FROZEN_KERNEL, FROZEN_MIXED

HEAT = normalize({2: -1j})
SCHRO = normalize({2: 1})


def _close(got, re, im, tol=5e-13):
    # mixed absolute/relative: deep-decay values carry relative accuracy,
    # O(1) values absolute
    return abs(got - complex(re, im)) <= tol * (1 + abs(complex(re, im)))


@pytest.mark.parametrize("name", sorted(FROZEN_I))
def test_frozen_values(name):
    coeffs, m, y, t, re, im = FROZEN_I[name]
    got = eval_I(normalize(coeffs), m, y, t)
    assert _close(got, re, im), (name, got, (re, im))


@pytest.mark.parametrize("name", sorted(FROZEN_KERNEL))
def test_frozen_kernels(name):
    coeffs, x, t, val = FROZEN_KERNEL[name]
    got = eval_kernel(normalize(coeffs), x, t)
    assert abs(got - val) < 5e-13
    assert abs(got.imag) < 5e-13


def test_heat_closed_form_grid():
    ss = np.linspace(-10, 10, 201)
    worst = max(abs(eval_I(HEAT, 0, float(s), 1.0) - (erf(s / 2) - 1) / 2)
                for s in ss)
    assert worst < 1e-10


def test_heat_kernel_gaussian():
    assert eval_kernel(HEAT, 0.0, 1.0) == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=1e-13)
    x, t = 1.5, 0.3
    assert eval_kernel(HEAT, x, t) == pytest.approx(
        math.exp(-x * x / (4 * t)) / math.sqrt(4 * math.pi * t), abs=1e-13)
    # the direct route at t = 1 (I_{heat,-1}, no detour over the pole) cuts
    # its ends against the integrand's value 1 at the pole, so far out it
    # answers its absolute floor
    for s in (-3e4, -1e3, -100.0, -60.0):
        assert abs(eval_I(HEAT, -1, s, 1.0, method="direct")) <= 1e-15, s
    for s in (-10.0, -4.0, 0.5, 5.0):
        want = math.exp(-s * s / 4) / math.sqrt(4 * math.pi)
        got = eval_I(HEAT, -1, s, 1.0, method="direct")
        assert abs(got - want) <= 1e-14 * (1 + want), s


def test_airy_kernel():
    # omega = k^3: K_t(x) = (3t)^{-1/3} Ai(-x (3t)^{-1/3})
    om = normalize({3: 1})
    for x, t in [(0.5, 1.0), (-1.2, 0.4), (2.0, 2.0)]:
        scale = (3 * t) ** (-1 / 3)
        want = scale * airy(-x * scale)[0]
        assert eval_kernel(om, x, t) == pytest.approx(want, abs=1e-12)


def test_values_at_zero():
    # even n: -1/2; odd n: -(1 + sgn(omega_n)/n)/2
    for n in (2, 4, 6):
        got = eval_I(normalize({n: 1}), 0, 0.0, 1.0)
        assert abs(got - (-0.5)) < 1e-9, n
    for n in (3, 5, 7):
        for sgn in (1.0, -1.0):
            got = eval_I(normalize({n: sgn}), 0, 0.0, 1.0)
            want = -0.5 * (1 + sgn / n)
            assert abs(got - want) < 1e-9, (n, sgn)
    # a subnormal damping term is well posed: its real-axis cut would divide
    # by it, and both paths answer k^3's value without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        om = normalize({3: 1, 2: -2.225073858507203e-309j})
        for got in (eval_I(om, 0, 0.0, 1.0), eval_I_grid(om, 0, [-1.0, 0.0, 1.0], 1.0)[1]):
            assert abs(got - (-2.0 / 3.0)) < 1e-9


def test_zero_value_time_independence():
    for n, sgn in [(2, 1.0), (3, 1.0), (3, -1.0), (5, 1.0)]:
        om = normalize({n: sgn})
        vals = [eval_I(om, 0, 0.0, t) for t in (1e-3, 1.0, 10.0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-10


def test_t0_closed_form():
    # I_m(y, 0) = -(y^m / m!) for y < 0, 0 for y > 0
    om = normalize({3: 1, 2: 1})
    for m in (0, 1, 2, 3):
        for y in (0.7, 3.2):
            assert eval_I(om, m, y, 0.0) == 0
            want = -((-y) ** m) / math.factorial(m)
            assert eval_I(om, m, -y, 0.0) == pytest.approx(want, abs=1e-14)


def test_eval_I_refuses_a_negative_or_infinite_time_and_an_unknown_method():
    for t in (-1.0, math.inf):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            eval_I(HEAT, 0, 1.0, t)
    with pytest.raises(ValueError, match="unknown method 'steepest'"):
        eval_I(HEAT, 0, 1.0, 1.0, method="steepest")


def test_t0_kernel_rejected():
    with pytest.raises(ValueError):
        eval_kernel(HEAT, 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_I(HEAT, -1, 1.0, 0.0)


def test_limits_decaying_sides():
    # exponentially-reached limits: I_0 -> 0 (y -> +inf), -1 (y -> -inf)
    assert abs(eval_I(HEAT, 0, 12.0, 1.0)) < 1e-6
    assert abs(eval_I(HEAT, 0, -12.0, 1.0) + 1.0) < 1e-6
    # omega = -k^3 decays to the right; omega = +k^3 plateaus to the left
    assert abs(eval_I(normalize({3: -1}), 0, 15.0, 1.0)) < 1e-6
    assert abs(eval_I(normalize({3: 1}), 0, -15.0, 1.0) + 1.0) < 1e-6


def test_limits_oscillatory_sides():
    # purely oscillatory tails approach the limit with an algebraic envelope:
    # Schrodinger ~ 1/s, Airy side ~ s^(-3/4); check magnitude and trend
    a40 = abs(eval_I(SCHRO, 0, 40.0, 1.0))
    a80 = abs(eval_I(SCHRO, 0, 80.0, 1.0))
    assert a40 < 1.2 / (40.0 * math.sqrt(math.pi))
    assert a80 < 0.7 * a40
    b = [abs(eval_I(normalize({3: 1}), 0, s, 1.0)) for s in (40.0, 160.0)]
    assert b[0] < 0.05
    assert b[1] < 0.5 * b[0]


def test_derivative_ladder():
    # d/dy I_m = I_{m-1} via 4th-order central differences
    h = 1e-2
    stencil = [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)]
    for coeffs in ({2: -1j}, {2: 1}, {3: 1}, {4: 1}):
        om = normalize(coeffs)
        for m in (0, 1):
            for y in (0.8, -1.7):
                fd = sum(w * eval_I(om, m, y + k * h, 0.7)
                         for k, w in stencil) / h
                want = eval_I(om, m - 1, y, 0.7)
                assert abs(fd - want) < 1e-5, (coeffs, m, y)


def test_ode_identity_sample():
    # t * omega'(-i d/dy) I_m = y I_m - (m+1) I_{m+1}, normalized residual
    rng = np.random.default_rng(41)
    worst = 0.0
    for coeffs in ({2: -1j}, {2: 1}, {3: 1}, {4: -1j}, {3: 1, 2: -0.5j}):
        for m in (0, 1):
            for _ in range(2):
                y = float(rng.uniform(0.5, 3.0) * rng.choice([-1, 1]))
                t = float(rng.uniform(0.3, 1.5))
                worst = max(worst, ode_residual(normalize(coeffs), m, y, t, 1e-2))
    assert worst < 1e-4


def test_ode_y0_right_side():
    # at y = 0 the right side is -(m+1) I_{m+1}(0,t)/t, not zero
    assert ode_residual(HEAT, 0, 0.0, 1.0, 1e-2) < 1e-5


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_ode_residual_refuses_a_time_that_is_not_positive(t):
    with pytest.raises(ValueError, match="ode residual needs t > 0"):
        ode_residual(HEAT, 0, 1.0, t)


@pytest.mark.parametrize("h", [0.0, math.inf, -math.inf, math.nan])
def test_ode_residual_refuses_a_step_that_is_zero_or_not_finite(h):
    # h = 0 gave nan after a divide-by-zero warning, and h = inf raised
    # "y must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite step h != 0"):
            ode_residual(HEAT, 0, 1.0, 1.0, h)


def test_eval_E_heat():
    got = eval_E(2, 0, -1j, 2.0)
    assert abs(got - E_HEAT_M0_S2) < 1e-12


def test_eval_E_derivative_ladder():
    # d/ds E_{n,m} = E_{n,m-1}
    h = 1e-2
    stencil = [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)]
    for n, sig in [(2, -1j), (3, 1.0)]:
        for m in (0, 1):
            s = 0.9
            fd = sum(w * eval_E(n, m, sig, s + k * h) for k, w in stencil) / h
            assert abs(fd - eval_E(n, m - 1, sig, s)) < 1e-6


def test_heat_profile_derivative():
    # d/ds I_{heat,0}(s,1) = (1/(2 sqrt(pi))) e^{-s^2/4}
    s, h = 1.0, 1e-3
    fd = (eval_I(HEAT, 0, s + h, 1.0) - eval_I(HEAT, 0, s - h, 1.0)) / (2 * h)
    want = math.exp(-s * s / 4) / (2 * math.sqrt(math.pi))
    assert abs(fd - want) < 1e-6


def test_schrodinger_closed_form_spot():
    # 1/2 (erf(e^{-i pi/4} s / 2) - 1)
    for s in (-6.3, -1.0, 0.4, 5.5):
        want = (erf(np.exp(-1j * np.pi / 4) * s / 2) - 1) / 2
        assert abs(eval_I(SCHRO, 0, float(s), 1.0) - want) < 1e-10


def test_descent_vs_direct():
    rng = np.random.default_rng(99)
    for coeffs in ({2: 1}, {3: 1}, {3: -1}, {4: -1j}, {5: 1}):
        om = normalize(coeffs)
        for m in (-1, 0, 1):
            s = float(rng.uniform(5.0, 15.0) * rng.choice([-1, 1]))
            vd = eval_I(om, m, s, 1.0, method="descent")
            vr = eval_I(om, m, s, 1.0, method="direct")
            assert abs(vd - vr) <= 1e-9 * (1 + abs(vr)), (coeffs, m, s)


def test_deep_decay_relative_accuracy():
    # descent keeps relative accuracy where the integrand is 1e-45 small
    got = eval_I(HEAT, 0, 20.0, 1.0)
    want = FROZEN_I["heat_I0_y20_t1"][4]
    assert abs(got - want) < 1e-12 * abs(want)


def test_asymptotic_superpolynomial_residue_decay():
    # n = 3, omega_3 y < 0: no real saddles, I - residue decays faster than y^-8
    om = normalize({3: 1})
    errs = [abs(eval_I(om, 0, y, 1.0) - residue_part(om, 0, y, 1.0))
            for y in (-10.0, -30.0)]
    assert errs[1] < errs[0] * (10 / 30) ** 8


def test_asymptotic_heat():
    rels = []
    for s in (20.0, 40.0):
        av = asymptotic_I(HEAT, 0, s, 1.0)
        ev = eval_I(HEAT, 0, s, 1.0)
        rels.append(abs(av.total - ev) / abs(ev))
    assert rels[0] < 0.05
    assert rels[1] < 0.6 * rels[0]


@pytest.mark.parametrize("n, s", [(9, 40.0), (17, 60.0)])
def test_asymptotic_needs_only_the_saddles(n, s):
    # the descent contours cross a growth ridge here, but the
    # stationary-phase sum reads only the saddles; its error is of the size
    # of its first neglected term
    with pytest.raises(DegeneratePhase, match="growth ridge"):
        descent_system(scaled_phase(normalize({n: 1}), s, 1.0), -1, False)
    for m in (-1, 0):
        av = asymptotic_I({n: 1}, m, s, 1.0)
        err = abs(av.total - eval_I({n: 1}, m, s, 1.0))
        assert err < 5.0 * av.order_estimate * abs(av.oscillatory_part)


def test_asymptotic_refuses_what_eval_I_refuses():
    # m = -2 gave a number, m = True was taken as 1, m = 2.5 raised
    # TypeError, and a t or y that is not finite raised numpy's LinAlgError
    for m in (-2, True, 2.5, "1"):
        with pytest.raises(ValueError, match="m must be an integer >= -1"):
            asymptotic_I({3: 1}, m, 10.0, 1.0)
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="asymptotics need a finite t > 0"):
            asymptotic_I({3: 1}, 0, 10.0, t)
    for y in (math.nan, math.inf):
        with pytest.raises(ValueError, match="y must be finite"):
            asymptotic_I({3: 1}, 0, y, 1.0)
    # no cap on m: eval_I's comes from its quadrature, and there is none here
    assert asymptotic_I({3: 1}, np.int64(12), 10.0, 1.0) == asymptotic_I({3: 1}, 12, 10.0, 1.0)


def test_asymptotic_refuses_y_zero():
    with pytest.raises(ValueError, match="asymptotics need y != 0"):
        asymptotic_I({3: 1}, 0, 0.0, 1.0)


def test_residue_part_refuses_an_m_that_eval_I_refuses():
    # m = True gave the array [[1j, 1+0j]], m = 1.5 numpy's TypeError, and
    # m = -2 the value 0
    om = normalize({3: 1})
    for m in (True, 1.5, -2):
        with pytest.raises(ValueError, match="m must be an integer >= -1"):
            residue_part(om, m, -1.0, 1.0)
    # no cap on m, as for asymptotic_I: there is no quadrature here
    assert residue_part(om, np.int64(12), -1.0, 1.0) == residue_part(om, 12, -1.0, 1.0)


def test_residue_part_refuses_a_y_that_is_not_finite():
    # y = nan at m = 0 gave -1
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="y must be finite"):
            residue_part(normalize({3: 1}), 0, y, 1.0)


def test_residue_part_refuses_a_time_that_is_not_finite_and_non_negative():
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            residue_part(normalize({3: 1}), 0, -1.0, t)
    # at t = 0 the plateau is the data's own, -(y^m / m!) for y < 0
    assert residue_part(normalize({3: 1}), 2, -1.0, 0.0) == -0.5


def test_residue_part_reads_the_drift_and_the_phase_rate():
    # the plateau ignored both: 0j where eval_I gives -0.999998 (its shape
    # y - 40 t is -9), and -1 where eval_I gives -exp(-i)
    assert residue_part(normalize({3: 1, 1: 40.0}), 0, 31.0, 1.0) == -1
    assert abs(residue_part(normalize({3: 1, 0: 1.0}), 0, -30.0, 1.0) + cmath.exp(-1j)) <= 1e-15


def test_residue_part_takes_a_dict():
    # it raised AttributeError: it read .coeffs without normalizing
    assert residue_part({3: 1}, 0, -1.0, 1.0) == -1
    assert residue_part({3: 2, 1: 5, 0: 0.7}, 2, -40.0, 0.7) == residue_part(
        normalize({3: 2, 1: 5, 0: 0.7}), 2, -40.0, 0.7)


@pytest.mark.parametrize("coeffs, y, t", [
    ({3: 2, 2: -0.3j, 1: 5, 0: 0.7}, -40.0, 0.7),
    ({4: -1j, 1: -3.0, 0: 0.2 - 0.1j}, -30.0, 0.5),
    ({3: 1, 1: 40.0}, 31.0, 1.0),
    ({5: 1, 3: 0.5, 0: 1.0}, -30.0, 1.0),
    ({3: -1, 2: 0.2, 1: 3, 0: -2 + 0.5j}, -20.0, 2.0),
])
def test_residue_part_is_the_plateau_of_the_asymptotics(coeffs, y, t):
    # asymptotic_I takes its plateau at the canonical shape and scales it
    # back; residue_part reads the relation's full symbol at (y, t)
    for m in range(5):
        v = residue_part(normalize(coeffs), m, y, t)
        assert abs(v - asymptotic_I(coeffs, m, y, t).residue_part) <= 1e-14 * (1 + abs(v))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_drifted_residue_decay(m):
    # I - residue decays faster than any power of y - omega_1 t -> -inf,
    # with a drift that carries y = 32 and 24 to the plateau's side
    om = normalize({3: 1, 1: 40.0, 0: 0.5})
    errs = [abs(eval_I(om, m, 40.0 + d, 1.0) - residue_part(om, m, 40.0 + d, 1.0))
            for d in (-8.0, -16.0)]
    assert errs[1] < errs[0] * 2.0 ** -8 and errs[1] < 1e-11


def test_a_saddle_past_the_float_range_is_a_numerical_failure():
    # Im omega_2 > 0 makes this integrand grow without bound along the real
    # axis (normalize checks only the leading coefficient): the saddle of
    # the descent system sits past exp's range above the pole's value.
    # Where the growth is bounded (an even top term with Im < 0) and still
    # passes e^700, the ridge guard has refused every descent build tried
    with pytest.raises(NonFinite, match="descent saddle magnitude overflows"):
        eval_I({3: 1, 2: 20 + 20j}, 0, -2.0, 1.0, method="descent")


def test_a_phase_past_the_float_range_fails_as_a_numerical_error(spy):
    # at y = 1e300 the scaled phase of k^3 overflows (was numpy's
    # LinAlgError, a ValueError: CLI exit 2). The lone build and the
    # asymptotics raise DegeneratePhase; under auto the point takes the
    # direct route, which cannot cover it, as at {2: -1j}, y = 1e150
    om = normalize({3: 1})
    want = [eval_I(om, 0, y, 1.0) for y in (0.5, 6.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePhase, match="scaled phase is not finite"):
            eval_I(om, 0, 1e300, 1.0, method="descent")
        with pytest.raises(DegeneratePhase, match="scaled phase is not finite"):
            asymptotic_I(om, 0, 1e300, 1.0)
        for omega, y in ((om, 1e300), ({2: -1j}, -1e160), ({2: -1j}, 1e150)):
            with pytest.raises(NoConvergence, match="direct contour needs"):
                eval_I(omega, 0, y, 1.0)
        ones = spy(special, "_one")
        with pytest.raises(NoConvergence, match="direct contour needs inf segments"):
            eval_I_grid(om, 0, [0.5, 6.0, 1e300], 1.0, method="auto")
    # the grid failed and went point by point: its first two points answer
    # as they do alone, and the third raises
    assert [vals[0] for _, (vals, _) in ones] == want


def test_asymptotic_parts_consistent():
    av = asymptotic_I(normalize({3: 1}), 0, -12.0, 1.0)
    assert av.total == av.residue_part + av.oscillatory_part
    assert av.residue_part == pytest.approx(-1.0)  # plateau on y<0
    assert av.order_estimate > 0


def test_rescale_consistency():
    # I(y,t) = (|w_n| t)^{m/n} I_canonical(y (|w_n| t)^{-1/n}, 1) is internal;
    # externally: same value from the (y,t) query directly and via t=1 rescale
    om = normalize({3: 1, 2: 1})
    from dispgibbs import rescaled
    y, t = 0.9, 0.3
    lhs = eval_I(om, 1, y, t)
    rhs = t ** (1 / 3) * eval_I(rescaled(om, t), 1, y * t ** (-1 / 3), 1.0)
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("name", sorted(FROZEN_MIXED))
def test_frozen_mixed_values(name):
    # mixed symbols whose real axis dies long before the old bend radius
    coeffs, m, y, t, re, im = FROZEN_MIXED[name]
    got = eval_I(normalize(coeffs), m, y, t)
    assert _close(got, re, im), (name, got, (re, im))


def test_direct_cubic_at_large_negative_s(monkeypatch):
    # the detour over the pole shrinks with s < 0, so it carries no e^33
    # of cancellation at s = -66
    assert abs(eval_I({3: 1}, 0, -66.0, 1.0, method="direct") + 1.0) <= 1e-12
    # past s = -45,000 a reference level probed 0.001 above the pole would
    # sit TAIL_DROP above the real axis, and the axis would start on the
    # pole; the ends are cut against the value at the pole, and no warning
    # leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-5e4, -1e5):
            want = -0.5 * erfc(s / 2.0)      # heat, m = 0
            assert abs(eval_I(HEAT, 0, s, 1.0, method="direct") - want) <= 1e-14 * (1 + abs(want))
            for coeffs in (HEAT, {3: 1, 2: -0.5j}):
                want = eval_I(coeffs, 1, s, 1.0)
                got = eval_I(coeffs, 1, s, 1.0, method="direct")
                assert abs(got - want) <= 1e-14 * (1 + abs(want)), (coeffs, s)
        with pytest.raises(NoConvergence, match="direct contour needs"):
            eval_I(HEAT, 0, -1e6, 1.0)
        # a node on the pole is a NonFinite failure, and only that
        monkeypatch.setattr(special, "direct_contour",
                            lambda *args: Contour((Segment(0j, 1 + 0j),)))
        with pytest.raises(NonFinite):
            eval_I(HEAT, 0, 0.5, 1.0)


def test_direct_matches_descent_at_negative_s_with_a_quadratic_term():
    coeffs, m, y, t = {3: -1, 2: -1.46}, 1, -23.32, 0.00197
    want = eval_I(coeffs, m, y, t, method="descent")
    got = eval_I(coeffs, m, y, t, method="direct")
    assert abs(got - want) <= 1e-10 * (1 + abs(want))


@pytest.mark.parametrize("name", ["mixed32_I0_y0_t83", "mixed32_I0_y5_t83"])
def test_dominant_quadratic_is_cheap(name):
    # the direct contour ends on the real axis where exp(-1.40 x^2) has
    # died, not at the old bend radius 599
    coeffs, m, y, t, re, im = FROZEN_MIXED[name]
    cpu = time.process_time()
    got = eval_I(coeffs, m, y, t)
    assert time.process_time() - cpu < 1.0
    assert _close(got, re, im, tol=1e-12), (got, (re, im))


def test_direct_matches_descent_both_signs_of_s():
    # wherever descent answers, n <= 5, |s| in [4, 66], m in -1..2
    s_abs = np.geomspace(4.0, 66.0, 12)
    pairs = 0
    for coeffs in ({2: 1}, {2: -1j}, {3: 1}, {3: -1}, {4: 1}, {4: -1j}, {5: 1}, {5: -1},
                   {3: 1, 2: 1}, {3: -1, 2: -1.46}, {4: -1j, 3: 0.5}, {5: 1, 2: -0.5j}):
        om = normalize(coeffs)
        for m in (-1, 0, 1, 2):
            for s in np.concatenate([-s_abs, s_abs]).tolist():
                try:
                    want = eval_I(om, m, s, 1.0, method="descent")
                except (DegeneratePhase, NoConvergence):
                    continue
                got = eval_I(om, m, s, 1.0, method="direct")
                assert abs(got - want) <= 1e-10 * (1 + abs(want)), (coeffs, m, s)
                pairs += 1
    assert pairs >= 1000


def test_direct_contour_cap_raises_fast():
    # a dominant real k^7 term at degree 9 would need about 4e7 segments
    cpu = time.process_time()
    with pytest.raises(NoConvergence, match="direct contour needs"):
        eval_I({9: 1, 7: 27.1}, 0, 0.5, 1)
    assert time.process_time() - cpu < 0.05


def test_auto_falls_back_to_direct_when_descent_does_not_converge():
    # for k^5 the descent route does not converge near s = 34.5; auto must
    # answer with the direct value, which satisfies the ODE identity
    om = normalize({5: 1})
    for m in (0, 1):
        assert eval_I(om, m, 34.5, 1.0) == eval_I(om, m, 34.5, 1.0, method="direct")
        assert ode_residual(om, m, 34.5, 1.0, h=1e-2) < 1e-5


def test_eval_I_grid_one_point_is_direct():
    for coeffs, m, y, t in [({3: 1}, 0, 2.5, 1.0), ({2: -1j}, 1, -3.0, 0.4),
                            ({4: 1, 1: 0.5, 0: 0.2}, -1, 0.7, 2.0),
                            ({3: -1, 2: -0.5j}, 2, -6.0, 1e-3)]:
        om = normalize(coeffs)
        got = eval_I_grid(om, m, [y], t)
        assert got.shape == (1,)
        assert got[0] == eval_I(om, m, y, t, method="direct"), (coeffs, m, y, t)


GRID_SYMBOLS = {"schro": {2: 1}, "heat": {2: -1j}, "airyP": {3: 1},
                "airyM": {3: -1}, "damped3": {3: 1, 2: -0.5j},
                "drift3": {3: 1, 1: 0.8, 0: 0.3 - 0.2j}}


@pytest.mark.parametrize("coeffs", GRID_SYMBOLS.values(), ids=GRID_SYMBOLS.keys())
def test_eval_I_grid_matches_pointwise_direct(coeffs):
    # the grids span both signs of s = (y - drift t)/u, so one shared contour
    # has to serve both ends (for k^2 at s = +-10 a contour built for one end
    # leaves the other end's tail far from decayed)
    om = normalize(coeffs)
    for t in (1e-3, 1.0, 4.0):
        u = (abs(om.leading) * t) ** (1.0 / om.degree)
        ys = np.linspace(-10.0, 10.0, 9) * u + om.drift * t
        for m in (-1, 0, 1, 2):
            got = eval_I_grid(om, m, ys, t)
            want = np.array([eval_I(om, m, float(y), t, method="direct") for y in ys])
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))), (coeffs, t, m)


def test_eval_I_grid_validation():
    with pytest.raises(ValueError):
        eval_I_grid(HEAT, 0, [], 1.0)
    with pytest.raises(ValueError):
        eval_I_grid(HEAT, 0, [[0.0, 1.0]], 1.0)
    with pytest.raises(ValueError):
        eval_I_grid(HEAT, -2, [1.0], 1.0)
    with pytest.raises(ValueError):
        eval_I_grid(HEAT, -1, [-1.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        eval_I_grid(HEAT, 0, [0.0, np.inf], 1.0)
    # t = 0 is the closed form, point by point
    want = [eval_I(HEAT, 0, y, 0.0) for y in (-1.0, 1.0)]
    assert want == [-1.0, 0.0]
    assert list(eval_I_grid(HEAT, 0, [-1.0, 1.0], 0.0)) == want


def test_m_takes_any_integer_type_but_bool():
    om = normalize({3: 1, 2: -0.5j})
    for y in (0.5, 9.0):                       # the direct and the descent route
        for m in (0, 1):
            assert eval_I(om, np.int64(m), y, 1.0) == eval_I(om, m, y, 1.0)
    ys = np.linspace(-9.0, 9.0, 7)
    assert list(eval_I_grid(om, np.int64(1), ys, 1.0, method="auto")) == \
        list(eval_I_grid(om, 1, ys, 1.0, method="auto"))
    for bad in (True, False, np.True_, 1.0, -2):
        with pytest.raises(ValueError, match="m must be an integer"):
            eval_I(om, bad, 0.5, 1.0)
        with pytest.raises(ValueError, match="m must be an integer"):
            eval_I_grid(om, bad, ys, 1.0)


def test_m_is_refused_past_the_largest_pole_order_the_package_uses():
    # solve needs m up to the piece degree cap and ode_residual one more;
    # past that the direct route's pole factor cancels without warning
    # (heat, m = 20, y = 1, t = 1 was off by 157 times the value)
    from dispgibbs import ivp
    assert ivp.MAX_PIECE_DEGREE is special.MAX_PIECE_DEGREE
    top = special.MAX_PIECE_DEGREE + 1
    assert top == 9
    for m in (top + 1, np.int64(20), 200):
        with pytest.raises(ValueError, match=f"m must be at most {top}"):
            eval_I(HEAT, m, 1.0, 1.0)
        with pytest.raises(ValueError, match=f"m must be at most {top}"):
            eval_I_grid(HEAT, m, [-1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match=f"m must be at most {top}"):
            eval_I(HEAT, m, -1.0, 0.0)
    # m = 9 still answers, to 6.3e-10 relative: against
    # -(1/2) (-1)^m (2 sqrt t)^m i^m erfc(y / 2 sqrt t) (mpmath, 40 digits)
    want = 0.0009444541307506946
    assert abs(eval_I(HEAT, top, 1.0, 1.0) - want) <= 1e-9 * want


ROUTE_SYMBOLS = dict(GRID_SYMBOLS, quartic={4: -1j, 2: 0.3})


def _outcome(fn):
    try:
        return fn()
    except (DegeneratePhase, NoConvergence) as exc:
        return type(exc)


@pytest.mark.parametrize("method", ["descent", "auto"])
@pytest.mark.parametrize("coeffs", ROUTE_SYMBOLS.values(), ids=ROUTE_SYMBOLS.keys())
def test_eval_I_grid_one_point_is_eval_I(coeffs, method):
    # the descent route of eval_I is the one-row case of the batched code,
    # so a one-point grid gives the same bits, or raises the same error
    om = normalize(coeffs)
    t = 0.7
    u = (abs(om.leading) * t) ** (1.0 / om.degree)
    for s in (-17.0, -6.5, -4.0, -1.3, 2.5, 4.2, 9.0, 31.0):
        y = s * u + om.drift * t
        for m in (-1, 0, 1, 2):
            want = _outcome(lambda: eval_I(om, m, y, t, method=method))
            got = _outcome(lambda: eval_I_grid(om, m, [y], t, method=method))
            if isinstance(want, type):
                assert got is want, (coeffs, m, s)
            else:
                assert got.shape == (1,) and got[0] == want, (coeffs, m, s)


def _route(om, m, y, t):
    return special._evaluate(om, m, [y], t, "auto")[1][0].label


@pytest.mark.parametrize("coeffs", ROUTE_SYMBOLS.values(), ids=ROUTE_SYMBOLS.keys())
def test_eval_I_grid_auto_matches_pointwise(coeffs):
    # the grid straddles |s| = 4, so it holds a direct batch and descent
    # batches; descent keeps relative accuracy, direct mixed accuracy
    om = normalize(coeffs)
    for t in (1e-2, 1.0):
        u = (abs(om.leading) * t) ** (1.0 / om.degree)
        ys = np.linspace(-12.0, 12.0, 25) * u + om.drift * t
        for m in (-1, 0, 1, 2):
            got = eval_I_grid(om, m, ys, t, method="auto")
            for y, g in zip(ys, got):
                want = eval_I(om, m, float(y), t)
                if _route(om, m, float(y), t) == "direct":
                    assert abs(g - want) <= 1e-12 * (1 + abs(want)), (coeffs, t, m, y)
                else:
                    assert abs(g - want) <= 1e-12 * abs(want), (coeffs, t, m, y)


def _batched_matches_lone(om, m, ys, t, guarded):
    """Every row of one batched descent build against the lone build of the
    same shape: the same pass or fail, the same stationary points and
    segment ends within 1e-12 (1 + |z|); returns (passed, failed)."""
    can, s, _, _ = special._canonical(om, np.asarray(ys, dtype=float), t)
    live = np.flatnonzero(s != 0)       # descent refuses s = 0
    built = {}
    for rows, system in descent_batches(scaled_phase_rows(can, s[live]), m, guarded):
        for r, i in enumerate(live[rows].tolist()):
            built[i] = (r, system)

    def close(a, b):
        return abs(a - b) <= 1e-12 * (1 + abs(b))

    outcome = [0, 0]
    for i, si in enumerate(s.tolist()):
        try:
            lone = descent_system(scaled_phase(can, si, 1.0), m, guarded) if si else None
        except DegeneratePhase:
            lone = None
        assert (lone is None) == (i not in built), (si, m, guarded)
        outcome[lone is None] += 1
        if lone is None:
            continue
        r, system = built[i]
        assert len(system.points) == len(lone.points)
        assert all(close(z[r], w) for z, w in zip(system.points, lone.points)), si
        for cb, cl in zip(system.contours, lone.contours):
            for sb, sl in zip(cb.segments, cl.segments):
                assert sb.order == sl.order
                assert close(sb.start[r], sl.start) and close(sb.end[r], sl.end), (si, sl)
    return outcome


@pytest.mark.parametrize("coeffs", ROUTE_SYMBOLS.values(), ids=ROUTE_SYMBOLS.keys())
def test_batched_descent_build_matches_lone_builds(coeffs):
    # the grid straddles |s| = 4, holds s = 0, which descent refuses, and
    # shapes so close to 0 that the pole guard rejects some of them
    om = normalize(coeffs)
    outcome = np.zeros(2, dtype=int)
    shapes = np.concatenate([np.linspace(-12.0, 12.0, 49), [-0.1, 0.05, 0.1]])
    for t in (1e-2, 1.0):
        u = (abs(om.leading) * t) ** (1.0 / om.degree)
        ys = shapes * u + om.drift * t
        for m in (-1, 0, 1, 2):
            for guarded in (True, False):
                outcome += _batched_matches_lone(om, m, ys, t, guarded)
    assert outcome.min() > 0      # both outcomes occur


def test_batched_descent_build_matches_lone_builds_in_the_k5_window():
    # around |s| = 34 the k^5 tails cross growth ridges from s = 35.5 on
    om = normalize({5: 1})
    ys = np.concatenate([np.linspace(-36.0, -33.0, 13), np.linspace(33.0, 36.0, 13)])
    outcome = np.zeros(2, dtype=int)
    for m in (-1, 0, 1, 2):
        for guarded in (True, False):
            outcome += _batched_matches_lone(om, m, ys, 1.0, guarded)
    assert outcome.min() > 0


def test_eval_I_grid_auto_in_the_k5_fallback_window():
    # around |s| = 34.5 the k^5 descent does not converge and eval_I falls
    # back to direct; the grid's descent batch fails there, so the whole
    # grid, its direct points included, is evaluated again one by one
    om = normalize({5: 1})
    for ys in (np.concatenate([np.linspace(-36.0, -33.0, 7), np.linspace(33.0, 36.0, 7)]),
               np.concatenate([[-1.0, -0.5, 0.5, 1.0], np.linspace(33.0, 36.0, 7)])):
        routes = {_route(om, 0, float(y), 1.0) for y in ys}
        assert "direct" in routes and routes != {"direct"}
        for m in (0, 1):
            got = eval_I_grid(om, m, ys, 1.0, method="auto")
            assert list(got) == [eval_I(om, m, float(y), 1.0) for y in ys], m


def test_eval_I_grid_descent_in_the_k5_window_raises_as_its_first_failing_point():
    # descent has no fallback: a grid with a failing point is evaluated point
    # by point in grid order, so it raises what its first failing point
    # (quadrature at s = 34) raises alone, although the geometry of s >= 35.5
    # fails before any quadrature would run
    om = normalize({5: 1})
    ys = np.concatenate([np.linspace(-36.0, -33.0, 7), np.linspace(33.0, 36.0, 7)])
    for m in (0, 1):
        failures = []
        for y in ys:
            try:
                eval_I(om, m, float(y), 1.0, method="descent")
            except (NoConvergence, DegeneratePhase) as exc:
                failures.append(exc)
        assert [type(exc) for exc in failures] == [NoConvergence] * 3 + [DegeneratePhase] * 2
        with pytest.raises(NoConvergence) as got:
            eval_I_grid(om, m, ys, 1.0, method="descent")
        assert str(got.value) == str(failures[0])


def test_eval_I_grid_one_descent_point_is_batched(spy):
    # a grid's lone descent point takes the batched build like any other
    om = normalize({3: 1})
    ys = [-2.0, -1.0, 0.0, 1.0, 2.0, 6.0]
    assert [_route(om, 0, y, 1.0) for y in ys].count("direct") == 5
    want = {m: np.array([eval_I(om, m, y, 1.0) for y in ys]) for m in (0, 1)}
    spy(special, "descent_system", fail=AssertionError("a grid built a lone descent system"))
    built = spy(special, "descent_batches")
    for m in (0, 1):
        got = eval_I_grid(om, m, ys, 1.0, method="auto")
        assert np.all(np.abs(got - want[m]) <= 1e-12 * (1 + np.abs(want[m]))), m
    assert [[rows.tolist() for rows, _ in b] for _, b in built] == [[[0]], [[0]]]


@pytest.mark.parametrize("error", [NoConvergence, NonFinite])
def test_eval_I_grid_failed_batch_is_evaluated_point_by_point(monkeypatch, error):
    # a batch that fails is not the answer: its points go one at a time
    cores = {name: getattr(special, name) for name in ("_direct_core", "_descent_core")}

    def failing(name):
        def core(can, m, s, *rest):
            if np.size(s) > 1:
                raise error("forced batch failure")
            return cores[name](can, m, s, *rest)
        return core

    for name in cores:
        monkeypatch.setattr(special, name, failing(name))
    om = normalize({3: 1, 2: -0.5j})
    ys = np.linspace(-12.0, 12.0, 13)
    for m in (0, 1):
        got = eval_I_grid(om, m, ys, 1.0, method="auto")
        want = [eval_I(om, m, float(y), 1.0) for y in ys]
        assert list(got) == want


def test_unguarded_descent_fails_fast_by_the_pole():
    # the central segment of this saddle is 85 long and passes 0.35 from the
    # pole; no rule up to the order cap can resolve that
    spent = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(DegeneratePhase, match="distance to the pole"):
            eval_I(SCHRO, 0, 0.1, 1.0, method="descent")
        spent.append(time.perf_counter() - start)
    assert min(spent) < 5e-3
    eval_I(SCHRO, 0, 1.0, 1.0, method="descent")      # converges, so no guard


def test_descent_through_the_pole_is_refused_on_both_paths():
    # the lone and the grid build share the first guard and its message;
    # auto falls back to the direct route
    om = {3: -0.5423708680558151, 2: -38.702524019148846 - 90.18438959808397j}
    m, y, t = 2, 0.03436241182108733, 2.0085105193338184
    with pytest.raises(DegeneratePhase, match="^descent contour passes through the pole$"):
        eval_I(om, m, y, t, method="descent")
    with pytest.raises(DegeneratePhase, match="^descent contour passes through the pole$"):
        eval_I_grid(om, m, [y, 0.5, 1.0], t, method="descent")
    # I_real_axis_oracle gives -90.323269301989892821 + 38.808014960421696311j
    want = -90.32326930198988 + 38.808014960421694j
    assert eval_I(om, m, y, t) == want
    assert eval_I(om, m, y, t, method="direct") == want


def test_descent_at_shape_zero_is_refused_on_both_paths():
    # s = 0 has no saddle to descend from: a lone point, a grid holding
    # one, and a y that the drift shifts to s = 0 all raise
    with pytest.raises(DegeneratePhase, match="^descent evaluation needs y != 0$"):
        eval_I({3: 1}, 0, 0.0, 1.0, method="descent")
    with pytest.raises(DegeneratePhase, match="^descent evaluation needs y != 0$"):
        eval_I_grid({3: 1}, 0, [0.0, 1.0], 1.0, method="descent")
    with pytest.raises(DegeneratePhase, match="^descent evaluation needs y != 0$"):
        eval_I({3: 1, 1: 2.0}, 0, 2.0, 1.0, method="descent")


def test_lone_direct_query_shares_rules_through_the_hook(spy):
    # the segments of a lone contour are refined in lockstep: a handful of
    # rule calls (14, one segment each, when refined one by one), and every
    # segment still goes through the hook that profilers and budgets wrap
    builds = spy(special, "direct_contour")
    rules = spy(quadrature, "integrate_segment")
    eval_I({3: 1}, 0, 0.5, 1.0)
    ((_, contour),) = builds
    assert len(rules) <= 6 < len(contour.segments)
    seen = {pair for (_, start, end, _), _ in rules
            for pair in (zip(start, end) if isinstance(start, tuple) else [(start, end)])}
    assert seen == {(sg.start, sg.end) for sg in contour.segments}


def _shuffled_values(om, m, ys):
    """eval_I_grid's direct values at ys and at the same points shuffled
    (put back in grid order), with the contours each integrated, and
    _block_rows of both on their shared contour: a shuffled grid has the
    ordered one's range, so its contour, and is not uniform."""
    order = np.random.default_rng(len(ys)).permutation(len(ys))
    got, conts = special._evaluate(om, m, ys, 1.0, "direct")
    mixed, mixed_conts = special._evaluate(om, m, ys[order], 1.0, "direct")
    want = np.empty_like(mixed)
    want[order] = mixed
    om = normalize(om)
    can, s, u, _ = special._canonical(om, ys, 1.0)
    cont = direct_contour(can, m, float(s.min()), float(s.max()))
    blocks = (special._block_rows(s[:, None], cont, om.drift / u),
              special._block_rows(s[order][:, None], cont, om.drift / u))
    return got, want, len(conts), len(mixed_conts), blocks


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 9), lead=st.integers(0, 3),
       lower=st.lists(st.tuples(st.integers(0, 8), st.floats(-2.0, 0.7),
                                st.floats(-1.0, 1.0), st.floats(0.0, 1.0)), max_size=2),
       m=st.integers(-1, 2), rows=st.integers(8, 600), lo=st.floats(-12.0, 10.0),
       width=st.floats(0.5, 20.0), descending=st.booleans())
def test_blocked_direct_integrand_matches_the_unblocked_one(n, lead, lower, m, rows, lo,
                                                            width, descending):
    # a uniform grid factors its integrand into block starts and offsets;
    # the same points shuffled take one exp per value, on the same contour
    coeffs = {n: (1.0, -1.0, -1j, complex(math.cos(0.3), -math.sin(0.3)))[lead]
              if n % 2 == 0 else (-1.0) ** lead}
    for j, size, sgn, damp in lower:
        if j < n:
            size = 10.0 ** size
            coeffs[j] = size * sgn if j % 2 else size * complex(sgn, -damp)
    ys = np.linspace(lo, lo + width, rows)[::-1 if descending else 1]
    got, want, conts, mixed_conts, (block, mixed_block) = _shuffled_values(
        normalize(coeffs), m, ys)
    assert mixed_block == 1 < block <= math.isqrt(rows)
    assert conts == mixed_conts == 1
    assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want)))


@pytest.mark.parametrize("rows", [16, 25])
def test_blocked_direct_integrand_on_a_coarse_wide_grid(rows):
    # for k^2 over s in [-100, 100] the contour climbs to |Im z| = 1.39, so
    # isqrt(rows) rows a block would span more than TAIL_DROP e-folds: the
    # block shrinks, and the grid answers on its one contour
    for m in (0, 1):
        got, want, conts, mixed_conts, (block, mixed_block) = _shuffled_values(
            SCHRO, m, np.linspace(-100.0, 100.0, rows))
        assert mixed_block == 1 < block < math.isqrt(rows)
        assert conts == mixed_conts == 1
        assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want)))


@pytest.mark.parametrize("drift", [0.0, 3.0, 30.0, 300.0])
def test_drifted_uniform_grid_keeps_its_blocks(spy, drift):
    # the same shapes s = y - drift in [-2, 2]: at drift 300 they carry the
    # rounding of y near 300, far above eps |s|, and are still a uniform grid
    blocks = spy(special, "_block_rows")
    om, ys = {3: 1, 1: drift}, np.linspace(drift - 2.0, drift + 2.0, 400)
    got = eval_I_grid(om, 0, ys, 1.0)
    assert [block for _, block in blocks] == [20]
    want = np.array([eval_I(om, 0, y, 1.0, method="direct") for y in ys])
    assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


@pytest.mark.parametrize("m", range(-1, 10))
def test_pole_factor_matches_the_power_it_replaces(m):
    # at m = 0 the pole factor divides by iz without taking its first
    # power; every m gives the power's values bit for bit, inf and nan too
    rng = np.random.default_rng(m + 1)
    z = rng.normal(size=(7, 65)) + 1j * rng.normal(size=(7, 65))
    val = np.exp(rng.normal(size=z.shape) * 5 + 1j * rng.normal(size=z.shape))
    z[0, :4] = [0.0, np.inf, np.nan, complex(np.inf, np.nan)]
    val[1, :3] = [np.inf, np.nan, complex(0.0, np.inf)]
    want = val.copy()
    with np.errstate(all="ignore"):
        if m >= 0:
            want /= (1j * z) ** (m + 1)
        want *= special._INV_TWO_PI
        got = special._pole_factor(val.copy(), z, m)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("sigma", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 33])
def test_overshoot_brackets_take_the_blocked_direct_integrand(spy, n, sigma):
    # every bracket is two grid steps wide, at the scan's ends too, so the
    # batch repeats one block of CHEB_POINTS offsets; the same points
    # shuffled take one exp per value on the same contour
    batches = spy(gibbs, "eval_I_grid")
    gibbs.overshoot(n, sigma)
    ys = np.array(batches[1][0][2])    # the scan, then the brackets
    om = normalize({n: sigma})
    got, want, conts, mixed_conts, (block, mixed_block) = _shuffled_values(om, 0, ys)
    assert block == gibbs.CHEB_POINTS and mixed_block == 1
    assert conts == mixed_conts == 1
    # 1e-14, not 1e-13: offsets of at most 0.2 scaled by 1 + 1e-12 inside
    # the exp move the values by about 5e-14
    assert np.all(np.abs(got - want) <= 1e-14 * (1 + np.abs(want)))

    # one bracket 1e-9 wider repeats no offsets
    hi, lo = ys[-gibbs.CHEB_POINTS], ys[-1]
    cheb = quadrature.clenshaw_curtis_rule(gibbs.CHEB_POINTS - 1)[0]
    wider = ys.copy()
    wider[-gibbs.CHEB_POINTS:] = 0.5 * (lo + hi + 1e-9) + 0.5 * (hi + 1e-9 - lo) * cheb
    can, s, _, _ = special._canonical(om, wider, 1.0)
    cont = direct_contour(can, 0, float(s.min()), float(s.max()))
    assert special._block_rows(s[:, None], cont, 0.0) == 1
