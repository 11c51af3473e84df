import tracemalloc

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from dispgibbs import (Contour, NoConvergence, NonFinite, Segment,
                       clenshaw_curtis_rule, eval_I, eval_I_grid,
                       integrate_contour, integrate_segment, overshoot, overshoot_table,
                       quadrature, special)
from dispgibbs.cli import main


def test_rule_order2_is_simpson():
    nodes, weights = clenshaw_curtis_rule(2)
    order = np.argsort(nodes)
    assert np.allclose(nodes[order], [-1.0, 0.0, 1.0])
    assert np.allclose(weights[order], [1 / 3, 4 / 3, 1 / 3])


@pytest.mark.parametrize("order", [3, 1, 0])
def test_rule_refuses_an_odd_order_or_one_below_2(order):
    with pytest.raises(ValueError, match="order must be an even integer >= 2"):
        clenshaw_curtis_rule(order)


@pytest.mark.parametrize("order", [2, 4, 8, 16, 64, 256])
def test_rule_weight_sum_and_symmetry(order):
    nodes, weights = clenshaw_curtis_rule(order)
    assert abs(weights.sum() - 2.0) < 1e-14
    assert np.allclose(weights, weights[::-1])
    assert np.allclose(nodes, -nodes[::-1])


@pytest.mark.parametrize("order", [2, 4, 6, 16, 64, 256])
def test_rule_weights_match_exact_weights(order):
    # w_k = (c_k / n) (1 - sum_j b_j cos(2 j k pi / n) / (4 j^2 - 1)), with
    # c_k = 1 at the ends and 2 inside, b_j = 1 at j = n/2 and 2 below,
    # summed in 30-digit arithmetic
    with mpmath.workdps(30):
        exact = []
        for k in range(order + 1):
            tail = mpmath.fsum(mpmath.mpf(1 if 2 * j == order else 2) / (4 * j * j - 1)
                               * mpmath.cos(2 * j * k * mpmath.pi / order)
                               for j in range(1, order // 2 + 1))
            exact.append(float((1 if k in (0, order) else 2) * (1 - tail) / order))
    _, weights = clenshaw_curtis_rule(order)
    assert np.abs(weights - exact).max() <= 4e-16 * max(exact)


def test_rule_nodes_nest_exactly():
    # the even-indexed nodes of order 2N are those of order N, bit for bit:
    # a grid's doubled rule reuses their integrand values
    for order in range(2, quadrature.MAX_ORDER // 2 + 1, 2):
        fine, coarse = clenshaw_curtis_rule(2 * order)[0], clenshaw_curtis_rule(order)[0]
        assert fine[::2].tobytes() == coarse.tobytes(), order


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


def test_no_convergence_carries_estimates(monkeypatch):
    # |z| is not analytic: CC refinement stalls at O(h^2) around the kink
    monkeypatch.setattr(quadrature, "TOL", 1e-14)
    monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
    seg = Segment(-1.0, 1.0, 8)
    with pytest.raises(NoConvergence) as info:
        integrate_contour(lambda z: np.abs(z), Contour((seg,), label="t"))
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


def _reference_orders(rule, f, seg, tol=quadrature.TOL, max_order=quadrature.MAX_ORDER):
    """The orders a segment-by-segment loop applies to seg, every rule
    evaluating f on all its nodes: from half its own order (its own order at
    least 8, even, and a multiple of 4 from 16 on), doubling until two
    estimates agree.  Returns them and the last estimate."""
    order = max(8, seg.order)
    order += order % 2
    assert order % 4 == 0 and order >= 16
    order //= 2
    seglen = np.abs(np.subtract(seg.end, seg.start))
    orders, val, dprev = [], None, None
    while order <= max_order:
        orders.append(order)
        new, fmax = rule(f, seg.start, seg.end, order)
        prev, val = val, new
        if prev is not None:
            d = abs(val - prev)
            scale = tol * fmax * seglen
            done = d <= tol * abs(val) + 1e-3 * scale
            if dprev is not None:
                done |= (d >= 0.25 * dprev) & (d <= 100.0 * scale)
            if np.all(done):
                break
            dprev = d
        order *= 2
    return orders, val


def _ladders_seen(monkeypatch, evaluate):
    """Run evaluate() with the module hooks wrapped; returns the number of
    segments of each rule call and, per contour integral, its integrand,
    its contour, its value and, per segment, the orders of its rules and
    the node columns its integrand received (a call with a row per segment
    counts for each of them)."""
    integrals, segments, pairs = [], [], []
    integrate, rule = special.integrate_contour, quadrature.integrate_segment

    def hooked_integrate(f, contour):
        seen = {"f": f, "contour": contour, "orders": {}, "columns": {}}
        integrals.append(seen)

        def counted(z):
            for pair in pairs:
                seen["columns"][pair] = seen["columns"].get(pair, 0) + z.shape[-1]
            return f(z)

        seen["value"] = integrate(counted, contour)
        return seen["value"]

    def hooked_rule(f, start, end, order):
        seen = integrals[-1]
        if (start, end) in {(sg.start, sg.end) for sg in seen["contour"].segments}:
            pairs[:] = [(start, end)]
        else:
            pairs[:] = zip(start, end)
        segments.append(len(pairs))
        for pair in pairs:
            seen["orders"].setdefault(pair, []).append(order)
        return rule(f, start, end, order)

    monkeypatch.setattr(special, "integrate_contour", hooked_integrate)
    monkeypatch.setattr(quadrature, "integrate_segment", hooked_rule)
    evaluate()
    monkeypatch.undo()
    return segments, integrals


@pytest.mark.parametrize("evaluate, shared, reuse", [
    (lambda: eval_I({3: 1}, 0, 0.5, 1.0), True, False),
    (lambda: eval_I({4: -1j, 3: 0.5, 2: 0.3}, 1, 0.5, 1.0), True, False),
    (lambda: eval_I({3: 1}, 0, 12.0, 1.0), False, False),
    (lambda: eval_I({5: 1}, 0, 12.0, 1.0), True, False),
    (lambda: eval_I_grid({3: 1}, 0, np.linspace(-2.0, 2.0, 9), 1.0), False, True),
    (lambda: eval_I_grid({4: -1j, 3: 0.5}, 1, np.linspace(-9.0, 9.0, 7), 1.0,
                         method="auto"), False, True),
], ids=["lone-direct", "lone-direct-mixed", "lone-descent", "lone-descent-shared",
        "grid-rows", "grid-rows-auto"])
def test_lockstep_keeps_every_segments_order_ladder(monkeypatch, evaluate, shared, reuse):
    # each segment meets exactly the orders a segment-by-segment loop gives
    # it from half its own order, but the first: the segment's first rule
    # carries that estimate on its even-indexed nodes.  The contour's value
    # is that loop's sum, bit for bit.  Only an elementwise integrand shares
    # rules between segments (none in k^3's descent at s = 12: after the
    # first segment's lone rule, no two live segments are at one order),
    # and only a grid (refined segment by segment) evaluates each node of a
    # segment once: its doubled rule evaluates just the nodes at odd indices
    per_call, integrals = _ladders_seen(monkeypatch, evaluate)
    assert integrals
    for seen in integrals:
        segments = seen["contour"].segments
        assert len(segments) > 1
        reference = {(sg.start, sg.end): _reference_orders(integrate_segment, seen["f"], sg)
                     for sg in segments}
        assert seen["orders"] == {pair: orders[1:] for pair, (orders, _) in reference.items()}
        total = 0j
        for _, val in reference.values():
            total += val
        assert np.asarray(seen["value"]).tobytes() == np.asarray(total).tobytes()
        if reuse:
            nodes = {pair: orders[0] + 1 + sum(o // 2 for o in orders[1:])
                     for pair, orders in seen["orders"].items()}
        else:
            nodes = {pair: sum(o + 1 for o in orders) for pair, orders in seen["orders"].items()}
        assert seen["columns"] == nodes
    assert (max(per_call) > 1) == shared


@pytest.mark.parametrize("order", [16, 48, 128])
def test_embedded_estimate_is_the_half_order_rule(order):
    # the rule of order N holds, on its even-indexed nodes, the estimate of
    # order N/2 bit for bit: for scalar endpoints, a row per segment (tuple
    # endpoints) and a row per point of a batch
    k = np.array([1.0, 7.5, 30.0])
    cases = [
        (lambda z: np.exp(3j * z) / (z + 2.0), 0.1 - 0.2j, 1.3 + 0.4j),
        (lambda z: np.exp(3j * z) / (z + 2.0), (0.1 - 0.2j, -1.0 + 0j, 2.0j),
         (1.3 + 0.4j, -0.5 + 0.25j, 0.5 + 2.0j)),
        (lambda z: np.exp(1j * k[:, None] * z), -1.0 + 0j, 0.5 + 0.5j),
    ]
    # and a batch whose rows are factored into heads and tails
    heads, tails = np.array([0.5, -1.0, 2.0])[:, None], np.array([0.0, 0.25])[:, None]
    cases.append((lambda z: (np.exp(1j * heads * z), np.exp(1j * tails * z) / (z + 2.0), 5),
                  -1.0 + 0j, 0.5 + 0.5j))
    for f, start, end in cases:
        keeper = quadrature._Nested(f)
        integrate_segment(keeper, start, end, order)
        got = quadrature._embedded(keeper.last, start, end, order)
        want = integrate_segment(f, start, end, order // 2)[0]
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _rule_calls(spy, evaluate):
    """The number of integrate_segment calls that evaluate() makes."""
    calls = spy(quadrature, "integrate_segment")
    evaluate()
    return len(calls)


def test_one_rule_settles_a_resolved_segment(spy):
    # perfbench's solve and gibbs ops take 136 and 102 rule calls; a ladder
    # that confirms every segment's first rule with a second takes 252 on
    # solve and at least 168 (two on each of 84 segments) on gibbs
    def solve_op():
        result = CliRunner().invoke(main, ["solve", "--omega", "3:1", "--ic", "smoothed-box:0.1",
                                           "--t", "1e-3,1e-1", "--x-grid", "-2:2:401"])
        assert result.exit_code == 0, result.output

    assert 0 < _rule_calls(spy, solve_op) <= 140
    assert 0 < _rule_calls(spy, lambda: overshoot_table([3, 5, 9])) <= 110


def _three_segments(*order):
    # smooth on [0, 1]; a kink at 3, inside [2, 4], that Clenshaw-Curtis
    # cannot resolve to 1e-14 by order 64; nan on [5, 6]
    segs = {"good": Segment(0j, 1 + 0j, 8), "kink": Segment(2 + 0j, 4 + 0j, 8),
            "nan": Segment(5 + 0j, 6 + 0j, 8)}

    def f(z):
        return np.where(z.real < 4.5, np.exp(z) + np.abs(z.real - 3.0), np.nan)

    return f, Contour(tuple(segs[name] for name in order), label="t")


def test_lockstep_failure_is_the_first_failing_segment(monkeypatch):
    monkeypatch.setattr(quadrature, "TOL", 1e-14)
    monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
    f, contour = _three_segments("good", "kink", "nan")
    with pytest.raises(NoConvergence, match=r"segment \(2\+0j\) -> \(4\+0j\)") as info:
        integrate_contour(f, contour)
    assert info.value.last is not None
    assert info.value.previous is not None
    f, contour = _three_segments("good", "nan", "kink")
    with pytest.raises(NonFinite, match=r"segment \(5\+0j\) -> \(6\+0j\)"):
        integrate_contour(f, contour)


def test_lockstep_memory_is_bounded_by_the_node_cap():
    # 4000 segments at order 64: one uncapped rule would hold 260,000 nodes
    n = 4000
    contour = Contour(tuple(Segment(complex(k), complex(k + 1), 64) for k in range(n)),
                      label="t")
    f = lambda z: np.exp(0.01j * z)
    integrate_contour(f, contour)        # warm the rule cache
    tracemalloc.start()
    try:
        val = integrate_contour(f, contour)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(val - (np.exp(0.01j * n) - 1) / 0.01j) < 1e-9 * n
    assert peak < 8 * quadrature.NODE_CAP * 16


# a factored batch: 5 blocks of 4 rows, of which the last holds 3 (19 rows)
_STARTS = np.array([0.3, -1.2, 2.5, 0.9, -0.4])[:, None]
_OFFSETS = np.array([0.0, 0.15, 0.3, 0.45])[:, None]


def _factored(z):
    return np.exp(1j * _STARTS * z), np.exp(1j * _OFFSETS * z) / (z + 3.0), 19


def _product(z):
    heads, tails, rows = _factored(z)
    return (heads[:, None, :] * tails).reshape(-1, z.shape[-1])[:rows]


@pytest.mark.parametrize("order", [16, 64, 256])
def test_factored_integrand_sums_as_its_product(order):
    # row b B + j is heads[b] tails[j]; the factors' one matrix product
    # gives each row's estimate to rounding, and max|f| to a few ulps
    start, end = -1.0 + 0.2j, 1.5 - 0.3j
    est, fmax = integrate_segment(_factored, start, end, order)
    want, want_max = integrate_segment(_product, start, end, order)
    assert est.shape == fmax.shape == want.shape == (19,)
    nodes, weights = clenshaw_curtis_rule(order)
    z = 0.5 * (start + end) + 0.5 * (end - start) * nodes
    scale = abs(0.5 * (end - start)) * (np.abs(_product(z)) @ weights)
    assert np.all(np.abs(est - want) <= 1e-14 * scale)
    assert np.all(np.abs(fmax - want_max) <= 4 * np.spacing(want_max))


@pytest.mark.parametrize("factor, value", [(0, np.inf), (0, np.nan), (1, np.inf),
                                           (1, np.nan), ("inf*0", None)])
def test_factored_integrand_that_is_not_finite_raises(factor, value):
    # a head or a tail that holds inf or nan, and an inf head whose tails
    # are all 0 there (inf * 0 = nan, and no product is inf), is NonFinite
    # as its product would be
    def f(z):
        heads, tails, rows = _factored(z)
        if factor == "inf*0":
            heads[4, 3], tails[:, 3] = np.inf, 0.0
        else:
            (heads, tails)[factor][1, 5] = value
        return heads, tails, rows

    with pytest.raises(NonFinite), np.errstate(invalid="ignore"):
        integrate_segment(f, -1.0, 1.0, 16)


def test_factored_integrand_doubles_on_its_new_nodes():
    # the doubled rule passes only its odd-indexed node columns to f, and
    # interleaves both factors into the estimate of a fresh rule
    columns = []

    def f(z):
        columns.append(z.shape[-1])
        return _factored(z)

    keeper = quadrature._Nested(f)
    integrate_segment(keeper, -1.0, 1.0, 32)
    est, fmax = integrate_segment(keeper, -1.0, 1.0, 64)
    assert columns == [33, 32]
    want, want_max = integrate_segment(_factored, -1.0, 1.0, 64)
    assert est.tobytes() == want.tobytes() and fmax.tobytes() == want_max.tobytes()


def test_blocked_direct_scan_never_forms_its_product():
    # overshoot(64) scans 2,561 rows; with the rows x nodes product formed
    # it peaked at 32 MiB
    overshoot(64)   # warm the rule cache
    tracemalloc.start()
    try:
        overshoot(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20
