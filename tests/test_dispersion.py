import cmath
import math
import warnings

import numpy as np
import pytest

from dispgibbs import (DegeneratePhase, IllPosed, InvalidDispersion, PiecewisePolynomialIC,
                       box, eval_I, format_omega, normalize, parse_omega, rescaled,
                       rescaled_profile, residue_part, scaled_phase, stationary_points,
                       taylor_away)
from dispgibbs.dispersion import polyder, polyval, scaled_phase_rows, stationary_point_rows


def test_normalize_strips_low_order_terms():
    om = normalize({0: 5, 1: 2, 2: 1})
    assert om.coeffs[0] == 0 and om.coeffs[1] == 0
    assert om.coeffs[2] == 1
    assert om.drift == 2
    assert om.phase_rate == 5


def test_normalize_takes_an_ascending_sequence():
    om = normalize([0.5, 2.0, -1j])
    assert om == normalize({0: 0.5, 1: 2.0, 2: -1j})
    assert om.coeffs == (0j, 0j, -1j) and om.drift == 2.0 and om.phase_rate == 0.5


def test_normalize_refuses_a_non_integer_degree_and_a_complex_drift():
    with pytest.raises(InvalidDispersion, match="non-integer degree 2.5"):
        normalize({2.5: 1.0, 3: 1.0})
    with pytest.raises(InvalidDispersion, match="complex drift"):
        normalize({1: 1j, 3: 1.0})


def test_normalize_idempotent():
    om = normalize({0: 1 + 2j, 1: -0.5, 3: 1, 2: 0.25j - 0.1})
    again = normalize(om)
    assert again.coeffs == om.coeffs
    assert again.drift == om.drift
    assert again.phase_rate == om.phase_rate


def test_well_posedness():
    normalize({2: -1j})            # heat: n even, Im <= 0
    normalize({2: 1})              # Schroedinger
    normalize({3: -2.5})           # odd n, real leading
    with pytest.raises(IllPosed):
        normalize({3: 1j})
    with pytest.raises(IllPosed):
        normalize({2: 1j})         # Im > 0: backwards heat
    with pytest.raises(InvalidDispersion):
        normalize({1: 3})
    with pytest.raises(InvalidDispersion):
        normalize({0: 1})
    for degree in (0, 1, 2, 3):       # the phase rate and the drift too
        with pytest.raises(InvalidDispersion, match=f"degree {degree} is not finite"):
            normalize({3: 1, degree: math.nan})
    with pytest.raises(InvalidDispersion, match="degree 2 is not finite"):
        eval_I({3: 1, 2: complex(0, math.inf)}, 0, 0.5, 1.0)   # was a LinAlgError


def test_polynomial_eval():
    assert normalize({3: 1})(2.0) == pytest.approx(8.0)
    assert normalize({4: 1, 3: 2})(1.0) == pytest.approx(3.0)
    # omega = -ik^2 at k = 1+i: -i * (1+i)^2 = -i*2i = 2
    assert normalize({2: -1j})(1 + 1j) == pytest.approx(2.0)


def test_rescaled_monomial_invariance():
    om = normalize({2: 1})
    assert rescaled(om, 4.0).coeffs == om.coeffs


def test_rescaled_coefficients():
    om_t = rescaled(normalize({4: 1, 3: 2}), 1e-4)
    assert om_t.coeffs[4] == pytest.approx(1.0)
    assert om_t.coeffs[3] == pytest.approx(0.2)
    om_t = rescaled(normalize({3: 1, 2: 1}), 1e-3)
    assert om_t.coeffs[2] == pytest.approx(0.1)


def test_rescaled_identity_random_k():
    # eval(omega_t, k) = t * eval(omega, k t^{-1/n})
    rng = np.random.default_rng(7)
    om = normalize({4: 1, 3: 2, 2: -0.3j})
    for t in (1e-4, 0.37, 12.0):
        om_t = rescaled(om, t)
        ks = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        for k in ks:
            lhs = om_t(k)
            rhs = t * om(k * t ** -0.25)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_rescaled_refuses_a_time_that_is_not_finite_and_positive(t):
    # nan and inf gave a relation with nan coefficients
    with pytest.raises(ValueError, match="t must be finite and positive"):
        rescaled(normalize({3: 1, 2: 1}), t)


def test_scaled_phase_refuses_a_shape_or_time_that_is_not_finite():
    # t = nan gave a nan phase, t = inf a ZeroDivisionError
    om = normalize({3: 1})
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and positive"):
            scaled_phase(om, 1.0, t)
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="y must be finite"):
            scaled_phase(om, y, 1.0)


def test_scaled_phase_refuses_y_zero():
    with pytest.raises(ValueError, match="scaled phase undefined at y = 0"):
        scaled_phase(normalize({3: 1}), 0.0, 1.0)


def test_scaled_phase_past_the_float_range_is_degenerate():
    # X = |y|^(n/(n-1)) overflows at y = 1e300 (was numpy's LinAlgError, or
    # an OverflowError for a Python float); the batched solver gives such a
    # row count 0 and leaves the other rows' bits alone
    om = normalize({3: 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (1e300, np.float64(1e300), -1e300, 1e-300):
            with pytest.raises(DegeneratePhase, match="scaled phase is not finite"):
                scaled_phase(om, y, 1.0)
        both = stationary_point_rows(scaled_phase_rows(om, np.array([6.0, 1e300, -9.0, -1e300])))
        fit = stationary_point_rows(scaled_phase_rows(om, np.array([6.0, -9.0])))
    assert both[1].tolist() == [fit[1][0], 0, fit[1][1], 0]
    assert np.array_equal(both[0][[0, 2]], fit[0])


def test_scaled_phase_heat_like():
    om = normalize({2: 1})
    ph = scaled_phase(om, 1.0, 1.0)
    assert ph.big_x == pytest.approx(1.0)
    z = 0.3 + 0.1j
    assert ph.phi(z) == pytest.approx(1j * z - 1j * z * z)


def test_scaled_phase_negative_x():
    # omega = k^3, x = -1: sigma = -1 so omega_n sigma^n = -1
    ph = scaled_phase(normalize({3: 1}), -1.0, 1.0)
    assert ph.sigma == -1
    z = 0.4 - 0.2j
    assert ph.phi(z) == pytest.approx(1j * z + 1j * z ** 3)


def test_scaled_phase_perturbation_scaling():
    # omega = k^3 + k^2, x=1, t=1e-2: X = 10, R coefficient 10^{-1}
    ph = scaled_phase(normalize({3: 1, 2: 1}), 1.0, 1e-2)
    assert ph.big_x == pytest.approx(10.0)
    z = 0.7 + 0.05j
    assert ph.phi(z) == pytest.approx(1j * z - 1j * z ** 3 - 1j * 0.1 * z * z)


def test_stationary_points_closed_forms():
    pts = stationary_points(scaled_phase(normalize({2: 1}), 1.0, 1.0))
    assert len(pts) == 1
    assert pts[0] == pytest.approx(0.5)

    pts = stationary_points(scaled_phase(normalize({3: 1}), 1.0, 1.0))
    assert len(pts) == 2
    assert sorted(p.real for p in pts) == pytest.approx(
        [-1 / np.sqrt(3), 1 / np.sqrt(3)])

    pts = stationary_points(scaled_phase(normalize({3: 1}), -1.0, 1.0))
    assert len(pts) == 1
    assert pts[0] == pytest.approx(1j / np.sqrt(3))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stationary_point_count_table(n, sign):
    # n even: 1 + (n-2)/2; n odd: 2 + (n-3)/2 if omega_n sigma^n > 0 else (n-1)/2
    om = normalize({n: sign if n % 2 else sign * 1.0})
    for x in (1.0, -1.0):
        ph = scaled_phase(om, x, 1.0)
        pts = stationary_points(ph)
        lead = complex(sign) * ph.sigma ** n
        if n % 2 == 0:
            expect = 1 + (n - 2) // 2
        elif lead.real > 0:
            expect = 2 + (n - 3) // 2
        else:
            expect = (n - 1) // 2
        assert len(pts) == expect
        # upper half plane, counterclockwise from the positive real axis
        assert all(p.imag >= -1e-12 for p in pts)
        args = [np.angle(complex(p)) % (2 * np.pi) for p in pts]
        assert args == sorted(args)
        # monomial stationary points satisfy n w sigma^n z^{n-1} = 1 exactly
        for p in pts:
            assert abs(n * lead * p ** (n - 1) - 1) < 1e-12


def test_degenerate_phase_on_collision():
    # omega = k^3/3 - k^2 has omega'(k) = k^2 - 2k with critical value -1
    # at k = 1, so x/t = -1 makes two stationary points coalesce there
    om = normalize({3: 1.0 / 3.0, 2: -1.0})
    with pytest.raises(DegeneratePhase):
        stationary_points(scaled_phase(om, -1.0, 1.0))


def test_parse_format_roundtrip():
    for text in ("3:1", "2:0-1i", "3:1,2:-0.5i", "5:2.5,3:0+1i,2:-1"):
        om = parse_omega(text)
        again = parse_omega(format_omega(om))
        assert again.coeffs == om.coeffs


def test_parse_format_roundtrip_keeps_the_phase_rate_and_the_drift():
    om = normalize({0: 0.5 - 2j, 1: -1.5, 2: 0.25 - 0.75j, 3: 2.0, 4: -1j})
    assert format_omega(om) == "0:0.5-2i,1:-1.5,2:0.25-0.75i,3:2,4:-1i"
    assert parse_omega(format_omega(om)) == om


def test_parse_format_roundtrip_is_exact():
    # format_omega printed 6 significant digits, so 1/3 and 0.1 came back moved
    om = normalize({0: 0.1 + 1j / 3, 1: 1 / 3, 2: 0.1 - 1j / 3, 3: 1 / 3, 5: 0.1})
    assert parse_omega(format_omega(om)) == om
    assert format_omega(normalize({3: 1, 1: 1 / 3})) == "1:0.3333333333333333,3:1"
    assert format_omega(normalize({2: 1e-20 - 2.5e16j})) == "2:1e-20-2.5e+16i"


def test_symbol_puts_back_the_phase_rate_and_the_drift_for_every_consumer():
    om = normalize({0: 0.5 - 2j, 1: -1.5, 3: 2.0, 4: -1j})
    w0, w1, _, w3, w4 = om.symbol
    assert om.symbol == (0.5 - 2j, -1.5, 0, 2.0, -1j)
    canonical = normalize({3: 1, 2: 0.5})
    assert canonical.symbol == canonical.coeffs
    # dispersion: normalize takes a relation through its symbol, format_omega prints it
    assert normalize(om.symbol) == om and normalize(om) == om
    assert format_omega(om) == "0:0.5-2i,1:-1.5,3:2,4:-1i"
    # ivp: one Taylor step of q = x^4 applies omega(-i d/dx) = w0 - i w1 d + i w3 d^3 + w4 d^4
    x, t = 0.3, 0.01
    ic = PiecewisePolynomialIC((-1.0, 1.0), ((0, 0, 0, 0, 1),))
    step = w0 * x ** 4 - 1j * w1 * 4 * x ** 3 + 1j * w3 * 24 * x + w4 * 24
    assert taylor_away(ic, om, x, t, 1) == pytest.approx(x ** 4 - 1j * t * step, rel=1e-15)
    for coeffs in ({2: -1j, 0: 0.5}, {2: -1j, 1: 0.5}, {3: 1, 2: 0.5}):
        with pytest.raises(ValueError, match="needs a monomial"):
            rescaled_profile(box(), coeffs, -1.0, [0.0], 0.1)
    # special: the plateau's indicator is y - w1 t < 0 and its factor exp(-i w0 t)
    assert residue_part(om, 0, -2.0, 1.0) == -cmath.exp(-1j * w0)
    assert residue_part(om, 0, -1.0, 1.0) == 0j


def test_an_even_leading_coefficient_loses_a_tiny_positive_imaginary_part():
    om = normalize({2: 1 + 1e-17j})     # within the 1e-14 relative slack
    assert om.leading == 1 and om.leading.imag == 0.0
    assert normalize({2: 1 - 1e-17j}).leading.imag == -1e-17   # a dissipative one stays


def test_stationary_points_refuse_a_count_off_the_expectation():
    # a large k^2 term at |y|/t = 1 leaves 2 points in the upper half plane
    # where the k^3 phase at y < 0 has 1
    with pytest.raises(DegeneratePhase, match="found 2 upper-half-plane stationary "
                                                "points, expected 1"):
        stationary_points(scaled_phase(normalize({3: 1, 2: 50}), -1.0, 1.0))


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_omega("-1:2")
    with pytest.raises(ValueError):
        parse_omega("2:1,2:3")      # duplicate degree
    with pytest.raises(ValueError):
        parse_omega("not a relation")
    with pytest.raises(InvalidDispersion, match="empty entry in '3:1,,2:1'"):
        parse_omega("3:1,,2:1")
    with pytest.raises(InvalidDispersion, match="bad degree 'x'"):
        parse_omega("x:1,3:1")


@pytest.mark.parametrize("degree", range(2, 34))
def test_polyval_and_polyder_match_numpy(degree):
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    coeffs[rng.random(degree + 1) < 0.3] = 0        # zero coefficients too
    coeffs[-1] = 1.0 + rng.random()
    coeffs = tuple(complex(c) for c in coeffs)
    z = rng.normal(size=65) + 1j * rng.normal(size=65)
    want = np.polyval(np.array(coeffs[::-1]), z)
    assert polyval(coeffs, z).tobytes() == want.tobytes()
    for order in (1, 2, 3):
        want = np.polyder(np.array(coeffs[::-1]), order)
        got = polyder(coeffs, order)
        assert isinstance(got, tuple)
        assert np.array_equal(np.array(got[::-1]), want)
