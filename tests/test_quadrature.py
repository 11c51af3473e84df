import numpy as np
import pytest

from dispgibbs import (Contour, NoConvergence, NonFinite, Segment,
                       clenshaw_curtis_rule, integrate_contour,
                       integrate_segment)


def test_rule_order2_is_simpson():
    nodes, weights = clenshaw_curtis_rule(2)
    order = np.argsort(nodes)
    assert np.allclose(nodes[order], [-1.0, 0.0, 1.0])
    assert np.allclose(weights[order], [1 / 3, 4 / 3, 1 / 3])


@pytest.mark.parametrize("order", [2, 4, 8, 16, 64, 256])
def test_rule_weight_sum_and_symmetry(order):
    nodes, weights = clenshaw_curtis_rule(order)
    assert abs(weights.sum() - 2.0) < 1e-14
    assert np.allclose(weights, weights[::-1])
    assert np.allclose(nodes, -nodes[::-1])


def test_polynomial_exactness():
    # CC with N+1 points integrates monomials of degree <= N exactly
    for order in (4, 8, 12):
        nodes, weights = clenshaw_curtis_rule(order)
        for deg in range(order + 1):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            got = float(weights @ nodes ** deg)
            assert abs(got - exact) < 1e-13, (order, deg)


def test_exponential_convergence():
    nodes, weights = clenshaw_curtis_rule(32)
    got = float(weights @ np.exp(nodes))
    assert abs(got - (np.e - 1 / np.e)) < 1e-14


def test_segment_constant_and_exponential():
    val, fmax = integrate_segment(lambda z: np.ones_like(z), 0.0, 1j, 16)
    assert val == pytest.approx(1j)
    assert fmax == pytest.approx(1.0)
    val, _ = integrate_segment(np.exp, 0.0, 1j, 32)
    assert abs(val - (np.exp(1j) - 1)) < 1e-14


def test_segment_affine_invariance():
    # integral of f(a z + b) over [0,1] equals integral of f over [b, a+b] / a
    a, b = 0.7 - 0.4j, 0.2 + 0.1j
    f = lambda z: np.cos(z) * np.exp(0.3 * z)
    lhs, _ = integrate_segment(lambda z: f(a * z + b), 0.0, 1.0, 48)
    rhs, _ = integrate_segment(f, b, a + b, 48)
    assert abs(lhs - rhs / a) < 1e-13


def test_segment_nonfinite():
    # the pole sits on a node on purpose, so its divide warnings are expected
    with pytest.raises(NonFinite), np.errstate(divide="ignore", invalid="ignore"):
        integrate_segment(lambda z: 1.0 / (z - 0.5), 0.0, 1.0, 16)


def test_nonfinite_is_a_numerical_failure_not_an_invalid_input():
    # ValueError means "the input is invalid"; NonFinite sits with
    # NoConvergence among the numerical failures (CLI exit 3)
    assert issubclass(NonFinite, RuntimeError)
    assert not issubclass(NonFinite, ValueError)


def test_contour_closed_polygon_of_analytic_function_is_zero():
    square = Contour((Segment(0, 1, 32), Segment(1, 1 + 1j, 32),
                      Segment(1 + 1j, 1j, 32), Segment(1j, 0, 32)),
                     label="test")
    val = integrate_contour(lambda z: np.exp(z) * z ** 3, square)
    assert abs(val) < 1e-12


def test_contour_adaptive_refines_coarse_segments():
    # a single segment with 40 radians of phase, seeded at order 8
    seg = Segment(-1.0, 1.0, 8)
    val = integrate_contour(lambda z: np.exp(20j * z), Contour((seg,), label="t"))
    exact = (np.exp(20j) - np.exp(-20j)) / 20j
    assert abs(val - exact) < 1e-10


def test_no_convergence_carries_estimates():
    # |z| is not analytic: CC refinement stalls at O(h^2) around the kink
    seg = Segment(-1.0, 1.0, 8)
    with pytest.raises(NoConvergence) as info:
        integrate_contour(lambda z: np.abs(z), Contour((seg,), label="t"),
                          tol=1e-14, max_order=64)
    assert info.value.last is not None
    assert info.value.previous is not None
    # the estimates are still decent approximations of the true value 1
    assert abs(info.value.last - 1.0) < 1e-2


def test_batched_rows_each_converge():
    # one row per point: an easy and a 60-radian integrand share every rule,
    # and the segment is only accepted once both rows have settled
    k = np.array([1.0, 60.0])
    seg = Segment(-1.0, 1.0, 8)
    val = integrate_contour(lambda z: np.exp(1j * k[:, None] * z), Contour((seg,), label="t"))
    assert val.shape == (2,)
    assert np.all(np.abs(val - 2.0 * np.sin(k) / k) < 1e-10)
    est, fmax = integrate_segment(lambda z: np.exp(1j * k[:, None] * z), -1.0, 1.0, 128)
    assert est.shape == fmax.shape == (2,)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NonFinite):
        integrate_segment(lambda z: np.stack([z, 1.0 / (z - 0.5)]), 0.0, 1.0, 16)
