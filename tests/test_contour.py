import cmath
import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispgibbs import (DegeneratePhase, DispersionRelation, NoConvergence, contour,
                       decay_directions, descent_system, direct_contour, integrate_contour,
                       normalize, pole_avoiding_contour, scaled_phase, validate_descent)
from dispgibbs.contour import (MAX_SEGMENTS, PHASE_BUDGET, TAIL_DROP, TAIL_SLACK,
                               _phase_exponent, _phase_knots, descent_batches)
from dispgibbs.dispersion import scaled_phase_rows, stationary_point_rows
from dispgibbs.special import _canonical


def _connected(contour, tol=1e-12):
    segs = contour.segments
    return all(abs(a.end - b.start) <= tol for a, b in zip(segs, segs[1:]))


def test_pole_avoiding_shape():
    c = pole_avoiding_contour()
    assert len(c.segments) == 10          # 2 straight pieces + 8 arc chords
    assert c.segments[0].start == pytest.approx(-40.0)
    assert c.segments[-1].end == pytest.approx(40.0)
    assert _connected(c)
    for seg in c.segments:
        assert seg.start.imag >= -1e-15 and seg.end.imag >= -1e-15
    # coincides with the real axis outside the detour disk
    assert c.segments[0].end == pytest.approx(-0.5)
    assert c.segments[-1].start == pytest.approx(0.5)


def test_pole_avoiding_half_residue():
    # (1/2pi) int dk/(ik) over the detour contour picks up minus half the
    # residue: the detour passes clockwise over the pole
    c = pole_avoiding_contour()
    val = integrate_contour(lambda z: 1.0 / (1j * z) / (2 * np.pi), c)
    assert abs(val - (-0.5)) < 1e-12


def test_decay_directions_heat_is_real_axis():
    dirs = sorted(d % (2 * math.pi) for d in decay_directions(2, -1j))
    assert dirs == pytest.approx([0.0, math.pi])


def test_decay_directions_decay():
    # exp(-i w z^n) must actually decay along every reported direction
    for n, w in [(2, 1.0), (3, 1.0), (3, -1.0), (4, -1j), (5, 1.0), (4, 1.0)]:
        for th in decay_directions(n, w):
            z = 3.0 * cmath.exp(1j * th)
            assert (-1j * w * z ** n).real < -3.0, (n, w, th)


@pytest.mark.parametrize("coeffs,m,s", [
    ({2: 1}, 0, 1.7), ({2: -1j}, 1, -2.2), ({3: 1}, 0, 3.0),
    ({4: 1}, 0, -3.0), ({5: 1}, -1, 2.0), ({3: 1, 2: 1}, 0, 2.5),
])
def test_direct_contour_geometry(coeffs, m, s):
    om = normalize(coeffs)
    cont = direct_contour(om, m, s, s)
    assert _connected(cont)
    # endpoints sit deep in decay sectors: the integrand there is e^-45
    # below its value 1 at the pole
    for z in (cont.segments[0].start, cont.segments[-1].end):
        assert _phase_exponent(om, s, z) < -40.0


def _phase_bound(om, s, rho, r):
    # accumulated-phase bound along a straight piece that starts rho from 0
    return abs(s) * r + sum(abs(c) * ((rho + r) ** j - rho ** j)
                            for j, c in enumerate(om.coeffs) if j)


# dominant lower-order terms whose real axis dies before the bend radius:
# on both sides (the t = 83 cubic, a quintic), or on the right only
_CUT_83 = _canonical(normalize({3: -1, 2: 26.4 - 0.32j}), 0.0, 83.0)[0]
_CUT_CASES = [_CUT_83, {5: 1, 4: 20 - 3j}, {4: 1, 3: 2 - 1j}, {3: 1, 2: 30 - 2j}]


@pytest.mark.parametrize("m", [-1, 0])
@pytest.mark.parametrize("s", [-5.0, 2.5])
@pytest.mark.parametrize("coeffs", [
    {n: sig} for n in range(2, 10) for sig in ((1.0, -1.0) if n % 2 else (1.0, -1j))
] + [{3: 1, 2: 1}, {3: -1, 2: -1.46}, {4: -1j, 3: 0.5, 1: 0.3}, {5: 1, 2: -0.5j}] + _CUT_CASES)
def test_direct_contour_phase_budget(coeffs, m, s):
    om = normalize(coeffs)
    segs = direct_contour(om, m, s, s).segments
    # the real-axis pieces are the ones with exactly real ends; a side bent
    # off the axis leaves it at -a or +a along a ray of two or more pieces,
    # and a side cut on the axis has no ray
    on_axis = [sg.start.imag == 0 and sg.end.imag == 0 for sg in segs]
    first = on_axis.index(True)
    last = len(segs) - on_axis[::-1].index(True)
    left, right = segs[:first], segs[last:]
    axis = [sg for sg, real in zip(segs[first:last], on_axis[first:last]) if real]
    rays = [(ray, anchor) for ray, anchor in ((left, segs[first].start), (right, segs[last - 1].end))
            if ray]
    for ray, _ in rays:
        assert len(ray) >= 2
    slack = PHASE_BUDGET * (1 + 1e-9)
    for sg in axis:
        assert abs(_phase_bound(om, s, 0.0, abs(sg.end))
                   - _phase_bound(om, s, 0.0, abs(sg.start))) <= slack
    for ray, anchor in rays:
        for sg in ray:
            assert abs(_phase_bound(om, s, abs(anchor), abs(sg.end - anchor))
                       - _phase_bound(om, s, abs(anchor), abs(sg.start - anchor))) <= slack
    for z in (segs[0].start, segs[-1].end):
        assert _phase_exponent(om, s, z) <= -40.0


@pytest.mark.parametrize("coeffs", _CUT_CASES)
def test_direct_contour_cuts_where_the_real_axis_dies(coeffs):
    # a side whose real axis dies before the bend radius ends on the axis,
    # right where the integrand has fallen TAIL_DROP below its value 1 at
    # the pole, at every s; a side that does not die (the left of
    # k^4 + (2 - i) k^3) is bent
    om = normalize(coeffs)
    for s in (-5.0, 2.5):
        cont = direct_contour(om, 0, s, s)
        assert _connected(cont)
        ends = (cont.segments[0].start, cont.segments[-1].end)
        assert ends[1].imag == 0 and ends[1].real > 0
        assert (ends[0].imag == 0) == (om.coeffs[3].imag == 0)
        for z in ends:
            if z.imag == 0:
                assert abs(_phase_exponent(om, s, z) + TAIL_DROP) < 1e-6


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 7), lead=st.integers(0, 3),
       lower=st.lists(st.tuples(st.integers(2, 6), st.floats(-2.0, 2.0),
                                st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=2),
       m=st.integers(0, 2), s=st.floats(-66.0, 66.0))
def test_direct_contour_never_rises_above_the_pole(n, lead, lower, m, s):
    # on every direct contour of a mixed symbol whose real axis does not
    # grow (real odd terms, dissipative even ones), at both signs of s, the
    # integrand stays within a factor e of its value by the pole: the arc
    # cannot amplify, and the real axis and the rays only decay
    coeffs = {n: (1.0, -1.0, -1j, cmath.exp(-0.3j))[lead] if n % 2 == 0 else (-1.0) ** lead}
    for j, size, sgn, damp in lower:
        if j < n:
            size = 10.0 ** size
            coeffs[j] = size * sgn if j % 2 else size * complex(sgn, -damp)
    om = normalize(coeffs)
    try:
        segs = direct_contour(om, m, s, s).segments
    except NoConvergence:
        return
    u = np.linspace(0.0, 1.0, 17)
    for sg in segs:
        z = sg.start + (sg.end - sg.start) * u
        assert np.max(_phase_exponent(om, s, z)) <= 1.0 + 1e-9


def _exact_bound(om, s, rho, r):
    # _phase_bound in 60 digits: (rho + r)^j - rho^j cancels for short r
    with mpmath.workdps(60):
        r, rho = mpmath.mpf(r), mpmath.mpf(rho)
        return abs(s) * r + sum(abs(c) * ((rho + r) ** j - rho ** j)
                                for j, c in enumerate(om.coeffs) if j)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 9),
       lower=st.lists(st.tuples(st.integers(2, 8), st.floats(-2.0, math.log10(300.0)),
                                st.floats(-math.pi, math.pi)), max_size=3),
       rho=st.floats(0.0, 5.0), s=st.floats(-66.0, 66.0),
       length=st.floats(-20.0, math.log10(50.0)), pieces=st.sampled_from([1, 2]))
def test_phase_knots_equalise_the_phase_bound(n, lower, rho, s, length, pieces):
    # on mixed symbols whose lower-order terms may dominate, the knots of a
    # stretch [0, 10^length] follow today's count, keep both ends exact,
    # increase strictly, and sit where the bound reaches its equal-phase
    # targets, to 1e-12 of the stretch's phase
    coeffs = {n: 1.0}
    for j, size, arg in lower:
        if j < n:
            coeffs[j] = 10.0 ** size * cmath.exp(1j * arg)
    om = normalize(coeffs)
    hi = 10.0 ** length
    total = _exact_bound(om, s, rho, hi)
    need = total / PHASE_BUDGET
    if abs(need - mpmath.nint(need)) <= 1e-9 * need:
        return   # the count rounds either way at a whole number of budgets
    if need > MAX_SEGMENTS:
        with pytest.raises(NoConvergence, match="direct contour needs"):
            _phase_knots(om, s, rho, 0.0, hi, pieces)
        return
    knots = _phase_knots(om, s, rho, 0.0, hi, pieces)
    k = max(pieces, int(mpmath.ceil(need)))
    assert len(knots) == k + 1
    assert knots[0] == 0.0 and knots[-1] == hi
    assert all(a < b for a, b in zip(knots, knots[1:]))
    # every piece when there are few, a spread of them otherwise
    idx = sorted(set(np.linspace(0, k, min(k, 64) + 1).astype(int).tolist()))
    phase = {i: _exact_bound(om, s, rho, knots[i]) for i in idx}
    for i in idx:
        assert abs(phase[i] - total * i / k) <= 1e-12 * total, (i, k)
        if i + 1 in phase:
            assert phase[i + 1] - phase[i] <= PHASE_BUDGET * (1 + 1e-9)


def test_phase_knots_split_a_linear_stretch_by_width():
    # a 2e-20 ray bent at 2.40 (a queries draw): the bound is linear there in
    # floating point, so its one knot is the midpoint
    om = DispersionRelation((0j, 0j, 9.50050097801126 - 53.90093052270316j, 0j, 0j, 0j,
                             0.02201862743557172 - 0.0056452332578907135j, 0j, 0j,
                             -0.9999999999999998 + 0j))
    knots = _phase_knots(om, 2.005664839510857, 2.3993081062770045, 0.0,
                         1.9618675665407894e-20, 2)
    assert knots == [0.0, 9.809337832703947e-21, 1.9618675665407894e-20]


def test_large_direct_contour_builds_fast():
    # a dominant real k^3 term: 6,542 equal-phase pieces on the rays
    om = normalize({5: 1, 3: -28.118})
    cpu = time.process_time()
    cont = direct_contour(om, 2, -0.2278, -0.2278)
    assert time.process_time() - cpu < 0.15
    assert len(cont.segments) == 6542


def test_descent_heat_single_contour_at_quarter_angle():
    ph = scaled_phase(normalize({2: 1}), 1.0, 1.0)
    sysd = descent_system(ph, -1, False)
    assert len(sysd.contours) == 1
    assert sysd.points[0] == pytest.approx(0.5)
    central = sysd.contours[0].segments[1]
    angle = cmath.phase(central.end - central.start)
    assert angle % math.pi == pytest.approx(3 * math.pi / 4, abs=1e-12)
    # Re(Phi'' e^{2 i theta}) < 0 along the central segment
    phi2 = complex(ph.d2phi(sysd.points[0]))
    assert (phi2 * cmath.exp(2j * angle)).real < 0


def test_descent_stokes_tails_reach_admissible_angles():
    # omega = k^3, x < 0: one saddle at i/sqrt(3), tails toward pi/6, 5pi/6
    ph = scaled_phase(normalize({3: 1}), -1.0, 1.0)
    sysd = descent_system(ph, -1, False)
    assert len(sysd.contours) == 1
    zj = sysd.points[0]
    assert zj == pytest.approx(1j / math.sqrt(3))
    cont = sysd.contours[0]
    tips = [cont.segments[0].start, cont.segments[-1].end]
    angles = sorted(cmath.phase(z - zj) % (2 * math.pi) for z in tips)
    assert angles[0] == pytest.approx(math.pi / 6, abs=0.05)
    assert angles[1] == pytest.approx(5 * math.pi / 6, abs=0.05)


@pytest.mark.parametrize("coeffs,x,t", [
    ({2: 1}, 1.0, 1.0), ({2: -1j}, -3.0, 0.5), ({3: 1}, 2.0, 0.25),
    ({3: 1}, -2.0, 0.25), ({4: 1, 3: 2}, 1.0, 1e-3), ({5: 1}, 6.0, 1.0),
])
def test_validate_descent_passes(coeffs, x, t):
    sysd = descent_system(scaled_phase(normalize(coeffs), x, t), -1, False)
    report = validate_descent(sysd)
    assert report.ok
    # max Re X Phi along each contour is attained at the saddle
    assert report.max_uphill < 1e-10
    assert report.max_gradient < 1e-7


def test_saddle_angle_refuses_a_vanishing_second_derivative():
    # Phi'' of k^3 vanishes at 0, which is no stationary point: at one,
    # Phi'' = 0 makes a double root of W' = 1, which stationary_points
    # refuses as a collision before the saddle angle is taken
    with pytest.raises(DegeneratePhase, match="vanishing Phi'' at stationary point 0j"):
        contour._saddle_angle(scaled_phase(normalize({3: 1}), 1.0, 1.0), 0j)


def test_descent_refuses_a_central_direction_away_from_both_valleys():
    # the growing k^2 term turns a saddle's steepest direction away from
    # both valleys its position angle lies between
    om = normalize({6: -1j, 2: 1.3j})
    with pytest.raises(DegeneratePhase, match="central direction points away from both"):
        descent_system(scaled_phase(om, -2.5, 1.0), 0, False)
    # the batched builder rejects every such row, and with none left builds nothing
    rows = scaled_phase_rows(om, np.array([-2.5, -2.5]))
    roots, count = stationary_point_rows(rows)
    with np.errstate(all="ignore"):
        ok, system = contour._descent_rows(rows, roots[:, :count[0]], 0, False)
    assert count.tolist() == [3, 3] and not ok.any() and system is None
    assert descent_batches(rows, 0, False) == []


def test_arc_radius_rounds_a_root_down_onto_the_bound():
    # Newton's root of the bound of {6: 1, 3: 19} at 1 rounds up, where the
    # bound reads just above 1: the detour takes the float below it
    om = normalize({6: 1, 3: 19})
    b = contour._bound(om, 0.0)
    r = contour._convex_root(b, 1.0, 0.0, 0.5)
    assert contour._horner(b, r)[0] > 1.0
    r_arc = contour._arc_radius(om, 0.0, 10.0)
    assert r_arc == math.nextafter(r, 0.0) and contour._horner(b, r_arc)[0] <= 1.0


def test_validate_descent_flags_wrong_angle():
    ph = scaled_phase(normalize({2: 1}), 9.0, 1.0)
    sysd = descent_system(ph, -1, False)
    # rotate the central segment to the ascent direction; keep the tails
    from dispgibbs import Contour, Segment
    zj = sysd.points[0]
    good = sysd.contours[0]
    central = good.segments[1]
    th = cmath.phase(central.end - central.start) + math.pi / 2
    h = abs(good.segments[1].end - zj)
    bad_central = Segment(zj - h * cmath.exp(1j * th),
                          zj + h * cmath.exp(1j * th), 64)
    bad = dataclasses.replace(sysd, contours=(Contour(
        (good.segments[0], bad_central, good.segments[2]),
        label=good.label),))
    report = validate_descent(bad)
    assert not report.ok
    assert report.max_uphill > 1.0


def test_terminal_angles_admissible():
    # tail chords end within 0.05 rad of a decay direction, seen from the saddle
    for coeffs, x in [({2: 1}, 5.0), ({3: 1}, -7.0), ({5: 1}, 9.0),
                      ({4: -1j}, 6.0)]:
        om = normalize(coeffs)
        ph = scaled_phase(om, x, 1.0)
        sysd = descent_system(ph, -1, False)
        dirs = decay_directions(om.degree, om.leading * ph.sigma ** om.degree)
        for cont, zj in zip(sysd.contours, sysd.points):
            for tip in (cont.segments[0].start, cont.segments[-1].end):
                ang = cmath.phase(tip - zj)
                err = min(abs((ang - d + math.pi) % (2 * math.pi) - math.pi)
                          for d in dirs)
                assert err < 0.05


def test_doubling_order_saturates():
    om = normalize({3: 1})
    def f(z):
        return np.exp(1j * z * 2.0 - 1j * om(z)) / (1j * z) / (2 * np.pi)

    cont = direct_contour(om, 0, 2.0, 2.0)
    twin = dataclasses.replace(cont, segments=tuple(
        dataclasses.replace(sg, order=2 * sg.order) for sg in cont.segments))
    assert abs(integrate_contour(f, cont) - integrate_contour(f, twin)) < 1e-10


def _recorded_marches(monkeypatch):
    """Record every _march_out call of the lone builders as (the logmag
    values it asked for, in order; logmag at the end it returned)."""
    marches = []
    march_out = contour._march_out

    def recorded(logmag, anchor, theta, step0):
        vals = []

        def counted(z):
            vals.append(logmag(z))
            return vals[-1]

        L = march_out(counted, anchor, theta, step0)
        marches.append((vals, logmag(anchor + L * cmath.exp(1j * theta))))
        return L

    monkeypatch.setattr(contour, "_march_out", recorded)
    return marches


def _capped(vals):
    # 60 halvings after the doubling's first value at the drop
    first = next(i for i, v in enumerate(vals) if v <= -TAIL_DROP)
    return len(vals) - first - 1 == 60


def _within_the_slack(drop, tol=0.0):
    return TAIL_DROP - tol <= drop <= TAIL_DROP + TAIL_SLACK + tol


_TAIL_SYMBOLS = [{2: 1}, {2: -1j}, {3: 1}, {3: -1}, {3: 1, 2: -0.5j}, {4: 1, 3: 2},
                 {4: -1j}, {5: 1}, {5: -1}]


def _lone_descent(om, y, monkeypatch):
    """descent_system at (y, t = 1) with its marches recorded, or None
    when its geometry fails."""
    marches = _recorded_marches(monkeypatch)
    try:
        return descent_system(scaled_phase(om, y, 1.0), -1, False), marches
    except DegeneratePhase:
        return None, marches


@pytest.mark.parametrize("coeffs", _TAIL_SYMBOLS)
def test_descent_tail_ends_sit_within_the_slack_past_the_drop(coeffs, monkeypatch):
    om = normalize(coeffs)
    built = 0
    for y in (-12.0, -5.0, 5.0, 12.0):
        sysd, marches = _lone_descent(om, y, monkeypatch)
        if sysd is None:
            continue
        built += 1
        assert validate_descent(sysd).ok, (coeffs, y)
        assert len(marches) == 2 * len(sysd.points)
        capped = [_capped(vals) for vals, _ in marches]
        # each saddle marches its forward tail, then its backward one
        phase = sysd.phase
        for j, (zj, cont) in enumerate(zip(sysd.points, sysd.contours)):
            ref = complex(phase.phi(zj)).real
            for k, tip in enumerate((cont.segments[2].end, cont.segments[0].start)):
                drop = -phase.big_x * (complex(phase.phi(tip)).real - ref)
                assert capped[2 * j + k] or _within_the_slack(drop), (coeffs, y, drop)
    assert built


@pytest.mark.parametrize("s", [-5.0, 2.5, 12.0])
@pytest.mark.parametrize("coeffs", [{n: 1.0} for n in (3, 5, 7, 9)]
                         + [{3: 1, 2: 1}, {3: -1, 2: -1.46}, {5: 1, 2: -0.5j}])
def test_direct_ray_ends_sit_within_the_slack_past_the_drop(coeffs, s, monkeypatch):
    # odd real symbols never die on the real axis: both sides are bent
    marches = _recorded_marches(monkeypatch)
    direct_contour(normalize(coeffs), 0, s, s)
    assert len(marches) == 2
    for vals, end in marches:
        assert _capped(vals) or _within_the_slack(-end), (coeffs, s, end)


@pytest.mark.parametrize("coeffs", _TAIL_SYMBOLS)
def test_batched_tail_ends_sit_within_the_slack_past_the_drop(coeffs, monkeypatch):
    om = normalize(coeffs)
    ys = np.concatenate([np.linspace(-12.0, -4.0, 9), np.linspace(4.0, 12.0, 9)])
    rows = 0
    for idx, sysd in descent_batches(scaled_phase_rows(om, ys), 0, False):
        phase = sysd.phase
        X = np.asarray(phase.big_x)[:, None]
        for zj, cont in zip(sysd.points, sysd.contours):
            tips = np.array([cont.segments[2].end, cont.segments[0].start]).T
            ref = phase.phi_rows(zj[:, None]).real
            drops = -X * (phase.phi_rows(tips).real - ref)
            for r, y in enumerate(ys[idx].tolist()):
                if all(_within_the_slack(d, 1e-9) for d in drops[r]):
                    continue
                # a row stops where its lone march stops: at the cap here
                _, marches = _lone_descent(om, y, monkeypatch)
                assert any(_capped(vals) for vals, _ in marches), (coeffs, y, drops[r])
        rows += len(idx)
    assert rows


@pytest.mark.parametrize("build", [
    lambda: descent_system(scaled_phase(normalize({3: 1}), 12.0, 1.0), -1, False),
    lambda: direct_contour(normalize({5: 1}), 0, 2.5, 2.5),
    lambda: direct_contour(normalize({5: 1}), 1, -5.0, -5.0),
], ids=["k3-descent-s12", "k5-direct-s2.5", "k5-direct-s-5"])
def test_tail_march_evaluations_stay_few(build, monkeypatch):
    # the march stops one e-fold past the drop, not after 60 halvings
    marches = _recorded_marches(monkeypatch)
    build()
    assert marches
    assert max(len(vals) for vals, _ in marches) <= 20


def test_direct_side_already_below_the_drop_gets_no_ray(monkeypatch):
    # a draw whose bend points sit about 311 e-folds below the drop: each
    # side ends there, after one logmag evaluation, where its march took 61
    om = normalize({9: -0.7041283406966755, 6: 0.10023076338598298 - 0.025697607200356996j,
                    2: 520.8379198165233 - 2954.9650691679967j})
    can, s, _, _ = _canonical(om, 1.0766437849014334, 0.005256192527128444)
    sides = []
    ray_breaks = contour._ray_breaks

    def counted(omega, s, logmag, anchor, theta):
        levels = []

        def counting(z):
            levels.append(logmag(z))
            return levels[-1]

        radii = ray_breaks(omega, s, counting, anchor, theta)
        sides.append((anchor, levels, radii))
        return radii

    monkeypatch.setattr(contour, "_ray_breaks", counted)
    cont = direct_contour(can, 2, s, s)
    assert [anchor.real > 0 for anchor, _, _ in sides] == [False, True]
    for anchor, levels, radii in sides:
        assert len(levels) == 1 and levels[0] <= -TAIL_DROP
        assert radii == [0.0]
    assert (cont.segments[0].start, cont.segments[-1].end) == tuple(a for a, _, _ in sides)
    assert _connected(cont)
