"""Integration paths in the complex plane.

Three families:

* ``pole_avoiding_contour`` -- the defining path: the real axis with a small
  semicircular detour passing above k = 0 (the detour is what distinguishes
  the integral from a principal value when m >= 0).

* ``direct_contour`` -- the pole-avoiding path, each end cut TAIL_DROP
  below the integrand's value at the pole: either on the real axis where
  exp(-i omega(k) t) has already died there, or bent off it into a
  direction where it decays.  Odd-degree real relations never decay on the
  real axis, so they are always bent; the bend radius is chosen outside
  all saddles so the homotopy never changes the value.  The detour is
  small enough that the integrand keeps within a factor e of its value at
  the pole along it, and a contour that would need more than MAX_SEGMENTS
  pieces raises NoConvergence before it is built.

* ``descent_system`` -- one short three-segment path per stationary point
  z_j of the rescaled phase Phi: a central segment through z_j along the
  local steepest-descent direction, plus two rays out to where the integrand
  has died, aimed at the asymptotic decay directions of exp(X Phi).  The sum
  of the pieces is homotopic to the full path, but every segment now decays,
  which preserves *relative* accuracy even when exp(X Phi(z_j)) is 1e-100.
  ``descent_batches`` builds the same systems for a whole grid of shapes in
  one vectorised pass; a one-point query keeps ``descent_system``.  Both
  return only systems that pass four guards (their segments keep clear of
  the pole, none comes closer to it than 5% of the nearest saddle's
  distance to it, none is too long for its distance to the pole, and the
  saddles are far enough apart for the quadratic scaling), written once in
  ``_guards``: ``descent_batches`` applies them row by row, and
  ``descent_system`` to the system it has built.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (DegeneratePhase, polyder, polyval, stationary_point_rows,
                         stationary_points, take_rows)
from .quadrature import MAX_ORDER, NoConvergence

__all__ = [
    "Segment",
    "Contour",
    "pole_avoiding_contour",
    "direct_contour",
    "decay_directions",
    "DescentSystem",
    "descent_system",
    "descent_batches",
    "validate_descent",
    "ValidationReport",
]

# drop in exp(Re X Phi) from the saddle to the tail ends; e^-45 ~ 2.9e-20
TAIL_DROP = 45.0
TAIL_SLACK = 1.0        # a tail end may sit this far past the drop (see _march_out)
ARC_CHORDS = 8
ARC_ORDER = 32          # initial Clenshaw-Curtis order of each detour chord
BEND_PAD = 1.3          # direct bend radius over the saddle and dominance radii, at most 1 + 1/n
PHASE_BUDGET = 120.0    # radians of accumulated-phase bound per direct segment
MAX_SEGMENTS = 10_000   # pieces one stretch of a direct contour may be split into
JOINT_WIDTH = 6.0       # central half-width in 1/sqrt(X |Phi''|): joints sit e^-18 down
CENTRAL_ORDER = 96      # initial Clenshaw-Curtis orders of the descent segments
TAIL_ORDER = 64
_CREST_PROBES = np.linspace(0.0, 1.0, 33)   # where descent tails are probed for ridges
ZETA_MAX = 40.0         # max tolerated cubic phase (radians) on a central segment
POLE_TAIL = math.log(1e-4)  # log of the pole tail at order MAX_ORDER // 2 where descent gives up
GUARDS = (              # _guards' messages, in the order they are checked
    "descent contour passes through the pole",
    "descent contour crowds the pole",
    "descent segment too long for its distance to the pole",
    "saddles too close for quadratic descent scaling",
)


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex
    order: int = 64  # initial Clenshaw-Curtis order, adaptively doubled


@dataclass(frozen=True)
class Contour:
    segments: tuple
    label: str = ""


def _arc(radius):
    """Chords tracing the upper semicircle from -r to +r (above the pole)."""
    angles = np.linspace(np.pi, 0.0, ARC_CHORDS + 1)
    pts = radius * np.exp(1j * angles)
    return [Segment(complex(a), complex(b), ARC_ORDER) for a, b in zip(pts, pts[1:])]


def pole_avoiding_contour():
    """Real axis from -40 to 40 with an upper semicircular detour of radius
    0.5 around 0."""
    segs = [Segment(complex(-40.0), complex(-0.5))]
    segs += _arc(0.5)
    segs.append(Segment(complex(0.5), complex(40.0)))
    return Contour(tuple(segs), label="pole-avoiding")


def decay_directions(n, wlead):
    """Steepest decay directions of exp(-i * wlead * z^n) at infinity.

    Solve arg(-i wlead) + n*theta = pi (mod 2pi):
    theta_j = (3pi/2 - arg(wlead) + 2pi j)/n.  For real wlead these are the
    odd multiples of pi/(2n) on which wlead*sin(n theta) < 0; for the heat
    operator (wlead = -i) they collapse onto the real axis.  One wlead gives
    a list of floats, by cmath: a lone build calls this, and numpy on one
    value costs several times more.  An array of wlead gives one row of
    directions each, by numpy, whose arctan2 may differ from cmath's in the
    last bit.
    """
    if isinstance(wlead, np.ndarray):
        base = (1.5 * math.pi - np.angle(wlead)[..., None]) / n
        return (base + 2.0 * math.pi * np.arange(n) / n) % (2.0 * math.pi)
    base = (1.5 * math.pi - cmath.phase(complex(wlead))) / n
    return [(base + 2.0 * math.pi * j / n) % (2.0 * math.pi) for j in range(n)]


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _phase_exponent(omega, s, z):
    """Re(i z s - i omega(z)), the log-magnitude of the direct integrand."""
    return (1j * z * s - 1j * omega(z)).real


def _ray_for_end(omega, exponent, anchor, want_right):
    """Pick the decay direction giving the fastest kill past the bend point."""
    n = omega.degree
    best = None
    for th in decay_directions(n, omega.leading):
        c = math.cos(th)
        if want_right and c < 0.05:
            continue
        if not want_right and c > -0.05:
            continue
        probe = anchor + 3.0 * cmath.exp(1j * th)
        val = exponent(probe)
        if best is None or val < best[1]:
            best = (th, val)
    if best is None:
        raise DegeneratePhase("no usable decay direction for the contour end")
    return best[0]


def _march_out(logmag, anchor, theta, step0):
    """Distance L to the logmag = -TAIL_DROP crossing along anchor + L e^i theta.

    Doubles until the drop is met, then bisects back towards the crossing:
    for steep symbols the doubling overshoots by orders of magnitude and
    the overshot stretch carries integrand values below the subnormal
    floor, which quadrature sees as pure rounding noise.  The bisection
    stops as soon as the end it keeps has dropped by at most TAIL_DROP +
    TAIL_SLACK (the value there is already known), or after 60 halvings:
    the end always has logmag <= -TAIL_DROP, so the cut only moves
    outward, into integrand values e^-TAIL_DROP below the peak that the
    quadrature cannot see.  The stop is tied to the level, not to a count
    of halvings, because a bracket from 0 can hold the crossing anywhere.
    """
    e = cmath.exp(1j * theta)
    L = step0
    for _ in range(200):
        v = logmag(anchor + L * e)
        if v <= -TAIL_DROP:
            break
        L *= 2.0
    else:
        raise DegeneratePhase("integrand refuses to decay along chosen ray")
    lo, hi = (0.0 if L <= step0 else L / 2.0), L
    for _ in range(60):          # the halvings of _march_rows, one by one
        if v >= -TAIL_DROP - TAIL_SLACK:
            break
        mid = 0.5 * (lo + hi)
        w = logmag(anchor + mid * e)
        if w <= -TAIL_DROP:
            hi, v = mid, w
        else:
            lo = mid
    return hi


def _bound(omega, lin, rho=0.0):
    """Ascending coefficients of lin r + sum_j |omega_j| ((rho + r)^j - rho^j)
    in r: none is negative, so for r >= 0 the bound rises and is convex."""
    b = [0.0, lin + abs(omega.coeffs[1])] + [abs(c) for c in omega.coeffs[2:]]
    for i in range(len(b) - 1 if rho else 0):   # Taylor shift by rho
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += rho * b[j + 1]
    b[0] = 0.0
    return b


def _horner(b, r):
    """The value and the derivative at r of sum_j b_j r^j, in one pass."""
    v = d = 0.0
    for c in reversed(b):
        v, d = v * r + c, d * r + v
    return v, d


def _convex_root(b, target, r, top):
    """Where the convex bound b reaches target (or top), by Newton's method
    from r at or left of it: one step past the root, then down until it stops."""
    v, d = _horner(b, r)
    nxt, r = min(top, r - (v - target) / d) if d > 0 else top, math.inf
    while nxt < r:
        v, d = _horner(b, nxt)
        r, nxt = nxt, nxt - (v - target) / d
    return r


def _phase_knots(omega, s, rho, lo, hi, pieces):
    """Split [lo, hi], on a straight path starting rho from the origin, into
    at least `pieces` pieces of equal phase bound (_bound, lin = |s|), each
    within PHASE_BUDGET; raises NoConvergence, before any knot is placed,
    when that takes more than MAX_SEGMENTS pieces."""
    b = _bound(omega, abs(s), rho + lo)    # the bound from lo on
    width = hi - lo
    total = _horner(b, width)[0]
    need = total / PHASE_BUDGET
    if not need <= MAX_SEGMENTS:   # nan and inf included
        raise NoConvergence(f"direct contour needs {need:.3g} segments")
    k = max(pieces, int(math.ceil(need)))
    if not total > b[1] * width:   # linear in floating point: equal width
        return [lo + width * i / k for i in range(k)] + [hi]
    knots = [0.0]
    for i in range(1, k):
        knots.append(_convex_root(b, total * i / k, knots[-1], width))
    return [lo + r for r in knots] + [hi]


def _ray_breaks(omega, s, logmag, anchor, theta):
    """Truncation-ray split radii [0, ..., L] bounded by the phase budget,
    or [0] (no ray) when the anchor has already dropped TAIL_DROP (logmag
    is the log-magnitude relative to the value by the pole).

    The first march step is scaled to the local decay rate (for steep
    symbols the ray dies within a sliver, and a unit step would hand the
    quadrature thousands of radians).
    """
    start = logmag(anchor)
    if start <= -TAIL_DROP:
        return [0.0]
    e = cmath.exp(1j * theta)
    probe = 1e-3
    rate = (start - logmag(anchor + probe * e)) / probe
    step0 = min(1.0, max(1e-6, TAIL_DROP / max(rate, 1.0)))
    L = _march_out(logmag, anchor, theta, step0)
    return _phase_knots(omega, s, abs(anchor), 0.0, L, 2)


def _adjacent_valleys(alpha, dirs):
    """The two decay directions angularly bracketing the angle `alpha`.

    The steepest path through a stationary point at position angle alpha
    asymptotes to the decay sectors on either side of it; choosing any
    other pair breaks the telescoping of the contour union (two saddles
    can silently span the same homotopy class and double the integral).
    Returns (below, above) with below <= alpha < above, unwrapped so the
    bracket is contiguous even across the 0/2pi seam.
    """
    ds = sorted(d % (2.0 * math.pi) for d in dirs)
    a = alpha % (2.0 * math.pi)
    below = None
    for d in ds:
        if d <= a + 1e-12:
            below = d
    if below is None:
        return ds[-1] - 2.0 * math.pi, ds[0]
    i = ds.index(below)
    above = ds[i + 1] if i + 1 < len(ds) else ds[0] + 2.0 * math.pi
    return below, above


def _real_cut(omega, sign):
    """The distance X past which the real-axis log-magnitude
    P(x) = sum_j Im(omega_j) (sign x)^j of exp(-i omega) stays TAIL_DROP
    below its value 0 by the pole, or None when P has no negative leading
    term on that side or dividing by that term overflows (a subnormal
    damping term): a side without a cut is bent, which is always valid.

    X is the largest real part over the roots of P + TAIL_DROP: past it
    P + TAIL_DROP keeps the sign of its leading term.
    """
    p = [c.imag * sign ** j for j, c in enumerate(omega.coeffs)]
    while p and p[-1] == 0.0:
        p.pop()
    if not p or p[-1] > 0.0:
        return None
    p[0] += TAIL_DROP
    with np.errstate(all="ignore"):
        monic = np.divide(p[::-1], p[-1])
    return max(0.0, float(np.roots(monic).real.max())) if np.isfinite(monic).all() else None


def _arc_radius(omega, s_lo, a):
    """The largest r up to min(0.5, a/4) with
    max(0, -s_lo) r + sum_j |omega_j| r^j <= 1: along a detour of radius r
    the integrand stays within a factor e of its value by the pole."""
    b = _bound(omega, max(0.0, -s_lo))
    r = _convex_root(b, 1.0, 0.0, min(0.5, a / 4.0))
    while _horner(b, r)[0] > 1.0:   # a root rounded up
        r = math.nextafter(r, 0.0)
    return r


def direct_contour(omega, m, s_lo, s_hi):
    """Pole-avoiding contour for (1/2pi) int e^(izs - i omega(z)) / (iz)^(m+1) dz.

    omega must already have t folded in (t=1).  Each side ends where the
    integrand has fallen TAIL_DROP below its value 1 at the pole (log-
    magnitude 0): on the real axis itself when it dies there before the
    bend radius a (_real_cut), otherwise on a ray bent off the axis at a.
    The bend radius sits outside every saddle of the full phase and
    outside the region where lower-order terms compete with the leading
    one, so only decaying tails are cut.  The real axis is split so each
    segment holds a bounded number of radians of phase (PHASE_BUDGET), and
    so is each ray; a stretch that needs more than MAX_SEGMENTS pieces
    raises NoConvergence.  The detour over the pole is shrunk until the
    integrand keeps within a factor e of its value at the pole along it
    (_arc_radius), for either sign of s.

    One contour serves every s in [s_lo, s_hi]: the log-magnitude
    Re(izs - i omega(z)) is affine in s, so the rays and the tail march
    take its maximum over the two ends, the detour takes s_lo, and the
    bend radius and the phase knots take max |s|; the real-axis cut does
    not depend on s.
    """
    s_abs = max(abs(s_lo), abs(s_hi))
    n = omega.degree
    wn = abs(omega.leading)
    r_saddle = (s_abs / (n * wn)) ** (1.0 / (n - 1)) if s_abs else 0.0
    r_dom = 0.0
    for j, c in enumerate(omega.coeffs[:-1]):
        if c != 0:
            r_dom = max(r_dom, (4.0 * abs(c) / wn) ** (1.0 / (n - j)))
    a = min(BEND_PAD, 1.0 + 1.0 / n) * max(1.0, r_saddle, r_dom)

    def exponent(z):
        # the s-term -s Im(z) peaks over [s_lo, s_hi] at the end Im(z) selects
        return _phase_exponent(omega, s_lo if z.imag >= 0 else s_hi, z)

    # the real axis runs from the detour radius (from 0 with no pole) out
    radius = _arc_radius(omega, s_lo, a) if m >= 0 else 0.0
    paths = []   # each side's knots, outward from the pole
    for sign in (-1.0, 1.0):
        cut = _real_cut(omega, sign)
        bent = cut is None or cut >= a
        path = [complex(sign * u)
                for u in _phase_knots(omega, s_abs, 0.0, radius, a if bent else cut, 1)]
        if bent:
            th = _ray_for_end(omega, exponent, sign * a, sign > 0)
            path += [sign * a + r * cmath.exp(1j * th)
                     for r in _ray_breaks(omega, s_abs, exponent, sign * a, th)[1:]]
        paths.append(path)
    left, right = paths

    segs = [Segment(u, v) for u, v in zip(left[::-1], left[-2::-1])]
    if m >= 0:
        segs += _arc(radius)
    segs += [Segment(u, v) for u, v in zip(right, right[1:])]
    return Contour(tuple(segs), label="direct")


@dataclass(frozen=True)
class DescentSystem:
    phase: object            # the ScaledPhase driving everything
    points: tuple            # stationary points, counterclockwise
    contours: tuple          # one three-segment Contour per point
    # (in a system of descent_batches each entry holds one value per row)


def _central_angle(phi2):
    """Direction minimizing Re(phi2 e^{2 i theta}): theta = (pi - arg phi2)/2.

    Normalized so the segment is traversed with increasing real part
    (cos > 0); exactly vertical descent picks sin > 0.
    """
    th = 0.5 * (math.pi - cmath.phase(complex(phi2)))
    th = _wrap(th)
    if math.cos(th) < -1e-12 or (abs(math.cos(th)) <= 1e-12 and math.sin(th) < 0):
        th = _wrap(th + math.pi)
    return th


def _saddle_angle(phase, zj):
    """Phi''(zj) and the central angle at the stationary point zj; raises
    DegeneratePhase where Phi'' vanishes."""
    phi2 = complex(phase.d2phi(zj))
    if abs(phi2) < 1e-12:
        raise DegeneratePhase(f"vanishing Phi'' at stationary point {zj}")
    return phi2, _central_angle(phi2)


def descent_system(phase, m, guarded):
    """One contour per stationary point, central segment + two decay rays,
    for the integrand of pole order m + 1; raises DegeneratePhase with the
    first of the GUARDS the system fails (see _guards, where m and guarded
    select the guards that apply).

    Central half-width h_j = c0 / sqrt(X |Phi''(z_j)|), c0 = JOINT_WIDTH,
    makes the integrand drop by exp(-c0^2/2) by the joints; each tail runs from a joint to a
    point on the valley ray z_j + L e^{i theta}, where the two thetas are
    the decay directions bracketing the saddle's position angle (the pair
    its steepest path actually connects), and L is chosen so Re(X Phi) has
    fallen TAIL_DROP below the saddle value.
    """
    pts = stationary_points(phase)
    n = phase.degree
    X = phase.big_x
    dirs = decay_directions(n, phase.leading)

    contours = []
    for j, zj in enumerate(pts):
        phi2, th = _saddle_angle(phase, zj)
        h = JOINT_WIDTH / math.sqrt(X * abs(phi2))
        # keep the joints inside this saddle's own basin: past ~a third of
        # the separation the quadratic model (and the valley bookkeeping)
        # belongs to the neighbour
        sep = min((abs(zj - zk) for zk in pts if zk is not zj), default=math.inf)
        h = min(h, 0.35 * sep)
        e = cmath.exp(1j * th)
        p_minus = zj - h * e
        p_plus = zj + h * e

        ref = (complex(phase.phi(zj))).real

        def logmag(z, _ref=ref):
            return X * ((complex(phase.phi(z))).real - _ref)

        alpha = math.atan2(max(zj.imag, 0.0), zj.real)
        below, above = _adjacent_valleys(alpha, dirs)
        if math.cos(below - th) >= math.cos(above - th):
            fwd, bwd = below, above
        else:
            fwd, bwd = above, below
        if math.cos(fwd - th) <= 0.0:
            raise DegeneratePhase(
                "central direction points away from both adjacent valleys")
        L_f = _march_out(logmag, zj, fwd, max(h, 0.25))
        L_b = _march_out(logmag, zj, bwd, max(h, 0.25))
        q_plus = zj + L_f * cmath.exp(1j * fwd)
        q_minus = zj + L_b * cmath.exp(1j * bwd)
        for a, b in ((p_plus, q_plus), (q_minus, p_minus)):
            crest = X * (np.max(phase.phi(a + (b - a) * _CREST_PROBES).real) - ref)
            if crest > 2.0:
                raise DegeneratePhase("descent tail crosses a growth ridge")
        contours.append(Contour((
            Segment(q_minus, p_minus, TAIL_ORDER),
            Segment(p_minus, p_plus, CENTRAL_ORDER),
            Segment(p_plus, q_plus, TAIL_ORDER),
        ), label=f"descent-{j}"))
    ends = np.array([[[(sg.start, sg.end) for sg in c.segments] for c in contours]])
    with np.errstate(all="ignore"):
        first = _guards(phase.phi, np.asarray(X), phase.wcoeffs, np.array([pts]),
                        ends[..., 0], ends[..., 1], m, guarded)[0]
    if first >= 0:
        raise DegeneratePhase(GUARDS[first])
    return DescentSystem(phase, tuple(pts), tuple(contours))


def _march_rows(logmag, anchor, theta, step0):
    """_march_out for an array of tails in lockstep; nan where a tail's
    doubling does not reach the drop.  A tail stops moving once its end is
    within TAIL_SLACK of the drop, so each gets the halvings of its lone
    _march_out."""
    e = np.exp(1j * theta)
    L = step0.copy()
    for _ in range(200):
        v = logmag(anchor + L * e)
        grow = ~(v <= -TAIL_DROP)
        if not grow.any():
            break
        L = np.where(grow, 2.0 * L, L)
    else:
        L[grow] = np.nan
    lo = np.where(L <= step0, 0.0, L / 2.0)
    hi = L
    live = (v < -TAIL_DROP - TAIL_SLACK) & ~np.isnan(L)
    for _ in range(60):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        w = logmag(anchor + mid * e)
        down = live & (w <= -TAIL_DROP)
        hi = np.where(down, mid, hi)
        lo = np.where(live & ~down, mid, lo)
        live &= ~(down & (w >= -TAIL_DROP - TAIL_SLACK))
    return hi


def _guards(phi, X, W, P, a, b, m, guarded):
    """The first of the GUARDS each row of descent contours fails, as an
    index into GUARDS, or -1 when it passes them all.

    phi evaluates the phase row by row on (rows, ...) arrays, X is the
    (rows, 1) column of X and W holds the coefficients of W as (rows, 1)
    columns (a lone phase's own phi, X and W broadcast as one row); P holds
    the (rows, K) stationary points and a, b the (rows, K, 3) segment
    starts and ends.  The pole guards apply for m >= 0 only, and the
    crowding and saddle-separation guards only when guarded.
    """
    failed = np.zeros((len(GUARDS), len(P)), dtype=bool)
    if m >= 0:
        d = b - a                       # each segment's point nearest the pole
        L2 = np.abs(d) ** 2
        tt = np.clip(-(a.real * d.real + a.imag * d.imag) / L2, 0.0, 1.0)
        near = np.where(L2 == 0, a, a + tt * d)
        dmin = np.abs(near).min(axis=(1, 2))
        failed[0] = dmin < 1e-3
        if guarded:
            failed[1] = dmin < 0.05 * np.maximum(np.abs(P).min(axis=1), 1e-6)
        # a segment long against its distance to the pole cannot converge
        # by the order cap: the rules of order MAX_ORDER // 2 and MAX_ORDER
        # still differ by about rho^-(MAX_ORDER // 2) times the integrand
        # next to the pole (here relative to its saddle value), rho the
        # Bernstein-ellipse parameter of the pole for the segment
        w = -(a + b) / d
        r = np.sqrt(w * w - 1.0)
        rho = np.maximum(np.abs(w + r), np.abs(w - r))
        depth = X[..., None] * (phi(near).real - phi(P).real[:, :, None])
        failed[2] = (depth - (MAX_ORDER // 2) * np.log(rho) > POLE_TAIL).any(axis=(1, 2))
    if guarded:
        h = JOINT_WIDTH / np.sqrt(X * np.abs(polyval(polyder(W, 2), P)))
        zeta = X * np.abs(polyval(polyder(W, 3), P)) * h ** 3 / 6.0
        failed[3] = (zeta > ZETA_MAX).any(axis=1)
    return np.where(failed.any(axis=0), failed.argmax(axis=0), -1)


def descent_batches(phase, m, guarded):
    """descent_system for every row of a phase from scaled_phase_rows at
    once.

    Each row gets descent_system's geometry, checks and thresholds and the
    GUARDS, on arrays: one stacked solve for the stationary points, then
    every tail of every saddle of every row marched and bisected in
    lockstep.

    Returns [(rows, system)], one per saddle count K: rows indexes the
    phase rows that passed, and system's phase holds those rows, points[j]
    is an array over them, and contours[j] is saddle j's
    contour, each segment end a tuple with one complex per row (as
    integrate_contour takes a batch).  A row in no group failed a check.
    """
    roots, count = stationary_point_rows(phase)
    out = []
    for K in sorted(set(count[count > 0].tolist())):
        rows = np.flatnonzero(count == K)
        with np.errstate(all="ignore"):
            ok, system = _descent_rows(take_rows(phase, rows), roots[rows, :K], m, guarded)
        if ok.any():
            out.append((rows[ok], system))
    return out


def _descent_rows(phase, P, m, guarded):
    """descent_batches for rows with K saddles each, P (rows, K): returns
    (ok, system) with system built on the ok rows only."""
    K = P.shape[1]
    X = phase.big_x[:, None]
    phi2 = -1j * polyval(polyder(tuple(c[:, None] for c in phase.wcoeffs), 2), P)
    th = _wrap(0.5 * (math.pi - np.angle(phi2)))
    c = np.cos(th)
    th = np.where((c < -1e-12) | ((np.abs(c) <= 1e-12) & (np.sin(th) < 0)), _wrap(th + math.pi), th)
    h = JOINT_WIDTH / np.sqrt(X * np.abs(phi2))
    sep = np.abs(P[:, :, None] - P[:, None, :])
    sep[:, np.arange(K), np.arange(K)] = np.inf
    h = np.minimum(h, 0.35 * sep.min(axis=2))
    e = np.exp(1j * th)
    p_minus, p_plus = P - h * e, P + h * e
    ref = phase.phi_rows(P).real

    # the valleys bracketing each saddle's position angle (_adjacent_valleys)
    ds = np.sort(decay_directions(phase.degree, phase.leading), axis=1)
    ext = np.concatenate([ds[:, -1:] - 2.0 * math.pi, ds, ds[:, :1] + 2.0 * math.pi], axis=1)
    a = np.arctan2(P.imag, P.real) % (2.0 * math.pi)
    i = (ds[:, None, :] <= a[:, :, None] + 1e-12).sum(axis=2)
    below = np.take_along_axis(ext, i, axis=1)
    above = np.take_along_axis(ext, i + 1, axis=1)
    first = np.cos(below - th) >= np.cos(above - th)
    fwd, bwd = np.where(first, below, above), np.where(first, above, below)
    ok = (np.abs(phi2) >= 1e-12).all(axis=1) & (np.cos(fwd - th) > 0.0).all(axis=1)
    if not ok.any():
        return ok, None

    X, P, h, p_minus, p_plus, ref, fwd, bwd = (
        v[ok] for v in (X, P, h, p_minus, p_plus, ref, fwd, bwd))
    rows = np.flatnonzero(ok)
    sub = take_rows(phase, rows)
    lref = np.concatenate([ref, ref], axis=1)
    L = _march_rows(lambda z: X * (sub.phi_rows(z).real - lref), np.concatenate([P, P], axis=1),
                    np.concatenate([fwd, bwd], axis=1),
                    np.maximum(np.concatenate([h, h], axis=1), 0.25))
    q_plus = P + L[:, :K] * np.exp(1j * fwd)
    q_minus = P + L[:, K:] * np.exp(1j * bwd)
    starts = np.stack([q_minus, p_minus, p_plus], axis=2)
    ends = np.stack([p_minus, p_plus, q_plus], axis=2)
    # the tails are probed for ridges: (rows, K, tail, probe)
    a_, b_ = np.stack([p_plus, q_minus], axis=2), np.stack([q_plus, p_minus], axis=2)
    probes = a_[..., None] + (b_ - a_)[..., None] * _CREST_PROBES
    crest = X[:, :, None] * (np.max(sub.phi_rows(probes).real, axis=3) - ref[:, :, None])
    good = ~np.isnan(L).any(axis=1) & ~(crest > 2.0).any(axis=(1, 2))
    W = tuple(c[:, None] for c in sub.wcoeffs)
    good &= _guards(sub.phi_rows, X, W, P, starts, ends, m, guarded) < 0
    ok[rows] = good
    sub = take_rows(sub, good)
    P, starts, ends = P[good], starts[good], ends[good]
    orders = (TAIL_ORDER, CENTRAL_ORDER, TAIL_ORDER)
    contours = tuple(
        Contour(tuple(Segment(tuple(starts[:, j, k].tolist()), tuple(ends[:, j, k].tolist()), o)
                      for k, o in enumerate(orders)), label=f"descent-{j}")
        for j in range(K))
    return ok, DescentSystem(sub, tuple(P.T), contours)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_gradient: float        # |Phi'| at the stationary points
    max_uphill: float          # worst Re X Phi excess over the saddle value
    min_terminal_drop: float   # Re X Phi saddle-to-endpoint decrease
    max_angle_error: float     # tail angle distance to nearest admissible


def validate_descent(system):
    """Sample each descent segment at 64 points and check it actually descends.

    Valid systems satisfy: stationarity |Phi'(z_j)| ~ 0, the integrand never
    rises above its saddle value along the path (up to slack), tails end
    deep in decay, and terminal ray angles sit on admissible asymptotic
    directions.
    """
    phase = system.phase
    X = phase.big_x
    dirs = decay_directions(phase.degree, phase.leading)
    u = np.linspace(0.0, 1.0, 64)

    max_grad = 0.0
    max_uphill = -math.inf
    min_term = math.inf
    max_ang = 0.0
    for zj, cont in zip(system.points, system.contours):
        max_grad = max(max_grad, abs(complex(phase.dphi(zj))))
        ref = complex(phase.phi(zj)).real
        for seg in cont.segments:
            z = seg.start + (seg.end - seg.start) * u
            re = X * (np.real(phase.phi(z)) - ref)
            max_uphill = max(max_uphill, float(re.max()))
        for p in (cont.segments[0].start, cont.segments[2].end):
            min_term = min(min_term, -X * (complex(phase.phi(p)).real - ref))
            ang = cmath.phase(p - zj)
            err = min(abs(_wrap(ang - d)) for d in dirs)
            max_ang = max(max_ang, err)

    ok = (
        max_grad <= 1e-7
        and max_uphill <= 1e-6 * max(1.0, X)
        and min_term >= TAIL_DROP - 1.0
        and max_ang <= 0.05
    )
    return ValidationReport(ok, max_grad, max_uphill, min_term, max_ang)
