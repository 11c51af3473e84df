"""Evaluation of the kernel-family integrals

    I_m(y, t) = (1/2pi) int_C exp(iky - i omega(k) t) / (ik)^(m+1) dk,

where C is the real axis detouring above k = 0.  These are the building
blocks of every solution with piecewise-polynomial data: x-derivatives walk
down the ladder (d/dy I_m = I_{m-1}, I_{-1} is the fundamental solution) and
jump strengths of the data multiply shifted copies of I_m.

Evaluation strategy.  The substitution k = lambda (|omega_n| t)^(-1/n)
canonicalizes any query to t = 1 and a unit-modulus leading coefficient,

    I_m(y, t) = u^m * I_m[omega_can](y/u, 1),   u = (|omega_n| t)^(1/n),

so only the shape s = y/u matters.  Small |s| is handled on a bent version
of the defining contour ("direct"); large |s| through the saddle-point
system of the rescaled phase ("descent"), which keeps relative accuracy even
when the answer is 1e-100 of the integrand scale.  t = 0 is exact:
I_m(y, 0) = -(y^m / m!) for y < 0 and 0 for y > 0.  Every query goes
through one router, _evaluate, which takes a grid of y at one
(omega, m, t) down one of two paths.  One point (_one) builds its own
saddle geometry or direct contour and refines its segments in lockstep.
A grid (_grid) is always batched: one batched build of the descent
points' saddle geometry and one quadrature rule per saddle segment, and
one direct contour for the direct points, whose integrand returns two
factors, one exp per block start and one per offset (one block per row
and the one offset 0 unless the shapes are uniformly spaced or fall in
blocks of one set of offsets), that the quadrature sums without forming
their product.  One rule joins them: a grid that fails anywhere is
evaluated again point by point through _one.  eval_I is the one-point
case, eval_I_grid the grid case.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .contour import TAIL_DROP, _saddle_angle, descent_batches, descent_system, direct_contour
from .dispersion import (
    DegeneratePhase,
    DispersionRelation,
    normalize,
    polyval,
    scaled_phase,
    scaled_phase_rows,
    stationary_points,
)
from .quadrature import NoConvergence, NonFinite, integrate_contour

__all__ = [
    "eval_I",
    "eval_I_grid",
    "eval_E",
    "eval_kernel",
    "residue_part",
    "AsymptoticValue",
    "asymptotic_I",
    "ode_residual",
]

DESCENT_THRESHOLD = 4.0   # switch to saddle contours once |y|/u exceeds this
MAX_PIECE_DEGREE = 8      # of an ivp piece; solve needs m up to it, ode_residual one more
_INV_TWO_PI = 1.0 / (2.0 * math.pi)   # x * this is numpy's x / 2pi for complex x, bit for bit


def _index(value):
    """value as an int when it has an integer type other than bool (so 2.9
    and '3' are refused), else None."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _checked_m(m):
    """m as an int; m may be any integer type but bool, at least -1."""
    m_int = _index(m)
    if m_int is None or m_int < -1:
        raise ValueError(f"m must be an integer >= -1, got {m!r}")
    return m_int


def _validate(m, ys, t, method):
    """Check a query once for its whole grid ys; returns m as an int.

    m may be any integer type but bool, from -1 to MAX_PIECE_DEGREE + 1:
    past that the detour's pole factor 1/(iz)^(m+1) cancels in the sum and
    the values are wrong without warning.  Then ys, t and the method are
    checked as ivp.solve checks them (_check_query), and last the two
    queries that have no value at t = 0."""
    m_int = _checked_m(m)
    if m_int > MAX_PIECE_DEGREE + 1:
        raise ValueError(f"m must be at most {MAX_PIECE_DEGREE + 1}, got {m!r}")
    _check_query(ys, t, method)
    if t == 0 and m_int == -1:
        raise ValueError("the fundamental solution has no value at t = 0")
    if t == 0 and (ys == 0).any():
        raise ValueError("I_m(0, 0) is undefined (jump point of the data)")
    return m_int


def _check_query(ys, t, method):
    """Refuse a grid ys that is not finite, a t that is not finite and >= 0,
    and an unknown method."""
    if not np.isfinite(ys).all():
        raise ValueError("y must be finite")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and >= 0")
    if method not in ("auto", "direct", "descent"):
        raise ValueError(f"unknown method {method!r}")


def residue_part(omega, m, y, t):
    """-i * Res_{k=0}[exp(iky - i omega(k) t)/(ik)^(m+1)] * chi_(y - omega_1 t < 0),
    the exact plateau of I_m (see _plateau), for a (possibly unnormalized)
    dispersion relation.  m, y and t are checked as eval_I checks them,
    without the cap on m that eval_I's quadrature needs.
    """
    omega = normalize(omega)
    m = _checked_m(m)
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and >= 0")
    return _plateau(omega, m, y, t)


def _plateau(omega, m, y, t):
    """residue_part without its checks, for a DispersionRelation.

    The residue is the k^m Taylor coefficient e_m of exp(iky - i omega(k) t)
    divided by i^(m+1), omega read in full (its symbol, the drift and the
    phase rate included); exp-of-series gives e_m exactly in m steps, from
    e_0 = exp(-i omega_0 t).
    """
    w = omega.symbol
    if m < 0 or y - w[1].real * t >= 0:
        return 0j
    g = np.zeros(m + 1, dtype=complex)
    if m >= 1:
        g[1] = 1j * y
    for j, c in enumerate(w[1:m + 1], 1):
        if c != 0:
            g[j] += -1j * c * t
    e = np.zeros(m + 1, dtype=complex)
    e[0] = cmath.exp(-1j * w[0] * t) if w[0] else 1.0
    for r in range(1, m + 1):
        e[r] = sum(l * g[l] * e[r - l] for l in range(1, r + 1)) / r
    inv_i_m = (1, -1j, -1, 1j)[m % 4]  # i^(-m)
    return -inv_i_m * e[m]


def _canonical(omega, y, t):
    """Fold the drift, the phase rate, t and |omega_n| out of a query, t > 0.

    Returns (omega_can, s, u, factor) with
    I_m[omega](y, t) = factor * u^m * I_m[omega_can](s, 1), where
    u = (|omega_n| t)^(1/n), s = (y - omega_1 t)/u and
    factor = exp(-i omega_0 t); y may be an array.
    """
    factor = cmath.exp(-1j * omega.phase_rate * t) if omega.phase_rate else 1.0
    n = omega.degree
    u = (abs(omega.leading) * t) ** (1.0 / n)
    coeffs = tuple(c * t / u ** j for j, c in enumerate(omega.coeffs))
    return DispersionRelation(coeffs), (y - omega.drift * t) / u, u, factor


def _pole_factor(val, z, m):
    """val times 1/(iz)^(m+1) (for m >= 0) and 1/2pi, in place; returns val."""
    if m == 0:   # w ** 1 is w, bit for bit, but takes numpy's slow generic power
        val /= 1j * z
    elif m > 0:
        val /= (1j * z) ** (m + 1)
    val *= _INV_TWO_PI
    return val


def _block_rows(s, cont, shift):
    """Rows per block of _direct_core's integrand for the column s on cont:
    a B for which every block of B rows repeats block 0's offsets s_j - s_0
    (j < B) within 16 eps max(|y|, |drift t|)/u over the column, or 1 (under
    four rows, or no such B).  shift is drift t/u, so y/u = s + shift: the
    shapes s = (y - drift t)/u carry the rounding of y and of drift t, far
    above eps |s| when the drift moves large y to small shapes.

    A uniform grid, every row s_r within that slack of s_0 + r h with
    h = (s_last - s_0) / (rows - 1), takes B = isqrt(rows), lowered until
    (B - 1) |h| max|Im z| <= TAIL_DROP over the contour's segment ends (the
    segments are affine, so that is the maximum over the contour); its
    last block may be short.  Any other column takes the smallest divisor
    B of rows, 2 <= B <= rows/2, whose blocks repeat block 0's offsets (the
    brackets of gibbs.overshoot: CHEB_POINTS points each, all of one
    width), and B = 1 if max|s_j - s_0| max|Im z| exceeds TAIL_DROP.  A row
    is then within e^TAIL_DROP of its block's start, and no offset factor
    overflows."""
    rows = np.size(s)
    if rows < 4:
        return 1
    col = np.ravel(s)
    h = (col[-1] - col[0]) / (rows - 1)
    slack = 16 * np.finfo(float).eps * max(np.abs(col + shift).max(), abs(shift))
    uniform = np.abs(col[0] + h * np.arange(rows) - col).max() <= slack

    def repeats(block):
        blocks = col.reshape(-1, block)
        return np.abs(blocks - blocks[:, :1] - (blocks[0] - blocks[0, 0])).max() <= slack

    block = math.isqrt(rows) if uniform else next(
        (b for b in range(2, rows // 2 + 1) if rows % b == 0 and repeats(b)), 1)
    if block == 1:
        return 1
    top = max(abs(p.imag) for seg in cont.segments for p in (seg.start, seg.end))
    if not uniform:
        return block if np.abs(col[:block] - col[0]).max() * top <= TAIL_DROP else 1
    while block > 1 and (block - 1) * abs(h) * top > TAIL_DROP:
        block -= 1
    return block


def _direct_core(can, m, s, shift=None):
    """Direct-route value at the shape s, or one value per row of a (points, 1)
    column s of shapes, all on one contour built for the range of s; returns
    (value, contour).  A column comes with its shift, drift t/u (see
    _block_rows).

    The integrand is exp(izs - i omega(z)) / (iz)^(m+1) / 2pi.  A lone point
    takes it node by node: one exp of the combined phase, then the pole
    factor (_pole_factor).  A column is cut into blocks of B rows
    (_block_rows: a uniform grid, blocks that repeat one set of offsets such
    as overshoot's brackets, or else B = 1), and row s_b + d_j of block b,
    d_j the offsets of block 0, is the product of a head
    exp(izs_b - i omega(z)) and a tail exp(izd_j) / (iz)^(m+1) / 2pi (with
    B = 1 the one offset is 0, and the tail is the pole factor alone).  The
    integrand returns the two factors, and the quadrature never forms their
    product: R/B + B exps per node for R rows.  A tail scales a row by at
    most e^TAIL_DROP, so a row overflows where it would alone, up to
    rounding at the threshold.
    """
    cont = direct_contour(can, m, float(np.min(s)), float(np.max(s)))
    if np.ndim(s) == 0:
        starts, offsets = s, None
    else:
        block = _block_rows(s, cont, shift)
        starts, offsets = s[::block], s[:block] - s[0]

    def f(z):
        val = 1j * z * starts             # in place from here: the batch is large
        val -= 1j * can(z)
        np.exp(val, out=val)
        if offsets is None:
            return _pole_factor(val, z, m)
        # (blocks, nodes) heads and (B, nodes) tails
        return val, _pole_factor(np.exp(1j * z * offsets), z, m), len(s)

    with np.errstate(all="ignore"):
        return integrate_contour(f, cont), cont


def _descent_core(can, m, s, system):
    """Descent-route values at the shapes s: one shape with its own
    DescentSystem, or several with one system of descent_batches.

    Saddle j's segments are integrated for every point at once: one rule
    per segment serves all the points' copies of it, with the integrand
    exp(X_p Phi_p(z) - c_p) / (iz)^(m+1) carrying each point's X, reference
    level c and coefficients of W as one row of a (points, nodes) matrix;
    a segment is accepted when every row passes.  One point is eval_I:
    its X, W and c stay scalars, so its integrand gives one value per node
    and integrate_contour refines its segments in lockstep.
    """
    phase = system.phase

    def column(a):   # one row per point of a batch; a lone point's scalars stay
        return np.reshape(a, (-1, 1)) if np.ndim(a) else a

    X = column(phase.big_x)
    W = tuple(column(c) for c in phase.wcoeffs)
    total = 0j
    with np.errstate(all="ignore"):
        for zj, cont in zip(system.points, system.contours):
            c_ref = phase.big_x * np.real(phase.phi(zj))
            if np.max(c_ref) > 700.0:
                raise NonFinite("descent saddle magnitude overflows")

            def g(z, _c=column(c_ref)):
                # exp(X (i (z - W(z))) - c), operands in this order; the two
                # products write to another array than they read (see polyval)
                val = polyval(W, z)
                np.subtract(z, val, out=val)
                arg = np.multiply(1j, val)
                np.multiply(X, arg, out=val)
                val -= _c
                np.exp(val, out=val)
                return _pole_factor(val, z, m)

            total = total + integrate_contour(g, cont) * np.exp(c_ref)

    # sigma^(m+1) s_f^(-m) per point
    pref = np.array([(-1.0 if (sg < 0 and (m + 1) % 2 == 1) else 1.0) * sf ** (-m)
                     for sg, sf in zip(np.ravel(phase.sigma).tolist(),
                                       np.ravel(phase.scale).tolist())])
    residue = np.array([_plateau(can, m, float(si), 1.0) for si in s])
    return residue + pref * total


def _evaluate(omega, m, ys, t, method):
    """The one path from a query to its values: normalize, validate every
    point of the non-empty 1-D grid ys, then the exact t = 0 closed form or
    the canonical shapes s = y/u, evaluated by _one for one point and by
    _grid for a grid.

    The one rule between them: a grid that raises NoConvergence, NonFinite
    or DegeneratePhase anywhere is evaluated again point by point through
    _one, in grid order, so it answers or raises as its points would alone
    and its values are then those of eval_I bit for bit.

    Returns (values, contours integrated); the closed form integrates none.
    """
    omega = normalize(omega)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.size == 0:
        raise ValueError("ys must be a non-empty 1-D grid")
    t = float(t)
    m = _validate(m, ys, t, method)
    if t == 0.0:  # no drift, and exp(-i omega_0 t) = 1
        return np.array([0.0 if y > 0 else -((y ** m) / math.factorial(m))
                         for y in ys.tolist()], dtype=complex), []

    can, s, u, factor = _canonical(omega, ys, t)
    if len(s) == 1:
        vals, contours = _one(can, m, s[0], method)
    else:
        try:
            vals, contours = _grid(can, m, s, method, omega.drift * t / u)
        except (NoConvergence, NonFinite, DegeneratePhase):
            each = [_one(can, m, si, method) for si in s]
            vals = [v for vs, _ in each for v in vs]
            contours = [c for _, cs in each for c in cs]
    # scaled value by value, as a lone point is scaled: numpy multiplies
    # a complex array and a complex scalar differently
    scale = factor * u ** m
    return np.array([scale * v for v in vals], dtype=complex), contours


def _one(can, m, s, method):
    """Unscaled value at one shape s, as a 1-element array, and the
    contours integrated.

    The descent route builds the point's own saddle geometry, checked
    against the guards in the same call (descent_system), and integrates
    its segments in lockstep; under auto a point whose geometry fails its
    guards (DegeneratePhase) or whose descent quadrature does not converge
    (NoConvergence) takes the direct route instead.  NonFinite is raised.
    """
    if method == "descent" or (method == "auto" and abs(s) >= DESCENT_THRESHOLD):
        try:
            if s == 0:
                raise DegeneratePhase("descent evaluation needs y != 0")
            system = descent_system(scaled_phase(can, s, 1.0), m, method == "auto")
            return _descent_core(can, m, [s], system), list(system.contours)
        except (DegeneratePhase, NoConvergence):
            if method == "descent":
                raise
    value, cont = _direct_core(can, m, float(s))
    return np.atleast_1d(value), [cont]


def _grid(can, m, s, method, shift):
    """Unscaled values at two or more shapes s = y/u - shift, and the
    contours integrated.

    Every descent point goes through one batched build (descent_batches,
    contour's descent guards applied row by row), and the points with the
    same number of saddles share every quadrature rule (see _descent_core).
    All direct points share one direct contour, built for the range of
    their shapes.  Under auto the rows whose geometry fails join the direct
    batch; any other failure is raised, for _evaluate's rule.
    """
    guarded = method == "auto"
    if method == "descent" and not s.all():
        raise DegeneratePhase("descent evaluation needs y != 0")
    descent = np.flatnonzero(np.abs(s) >= DESCENT_THRESHOLD if guarded
                             else np.full(len(s), method == "descent"))
    batches = []   # (indices, the system of their descent contours)
    if len(descent):
        batches = [(descent[rows], system) for rows, system in
                   descent_batches(scaled_phase_rows(can, s[descent]), m, guarded)]
    direct = np.ones(len(s), dtype=bool)
    for idx, _ in batches:
        direct[idx] = False
    if method == "descent" and direct.any():
        raise DegeneratePhase("a descent point of the grid fails its checks")

    vals = np.empty(len(s), dtype=complex)
    contours = []
    for idx, system in batches:
        vals[idx] = _descent_core(can, m, s[idx], system)
        contours.extend(system.contours)
    if direct.any():
        vals[direct], cont = _direct_core(can, m, s[direct][:, None], shift)
        contours.append(cont)
    return vals, contours


def eval_I(omega, m, y, t, method="auto"):
    """Evaluate I_m(y, t) for a (possibly unnormalized) dispersion relation.

    method:
      auto    -- descent when |y|/(|omega_n| t)^(1/n) >= 4 and the saddle
                 geometry is healthy, otherwise direct; degenerate saddle
                 configurations and descent quadrature that does not
                 converge fall back to direct automatically.
      direct  -- bent defining contour only.
      descent -- saddle-point system only: raises DegeneratePhase when the
                 stationary points are unusable, and, for m >= 0, when a
                 contour passes within 1e-3 of the pole or a segment is too
                 long for its distance to the pole to converge by the order
                 cap (under auto these and two more guards of
                 contour.descent_system send the point to direct).

    This is the one-point case of eval_I_grid.
    """
    return _evaluate(omega, m, [y], t, method)[0][0]


def eval_I_grid(omega, m, ys, t, method="direct"):
    """Evaluate I_m(y, t) at every y of a non-empty 1-D grid, each point on
    the route eval_I(omega, m, y, t, method) would take, batched by route;
    a grid that raises NoConvergence, NonFinite or DegeneratePhase anywhere
    is evaluated again point by point, so it answers or raises as its
    points would alone (see _evaluate).  A one-point grid gives exactly
    eval_I with the same method (the defaults differ: "direct" here,
    "auto" for eval_I), and t = 0 gives the closed form point by point.
    """
    return _evaluate(omega, m, ys, t, method)[0]


def eval_E(n, m, sigma, s):
    """Canonical monomial family: I_m for omega = sigma * k^n at t = 1."""
    omega = normalize({n: sigma})
    return eval_I(omega, m, s, 1.0)


def eval_kernel(omega, x, t):
    """Fundamental solution (m = -1); heat gives exp(-x^2/4t)/sqrt(4 pi t)."""
    return eval_I(omega, -1, x, t)


@dataclass(frozen=True)
class AsymptoticValue:
    residue_part: complex     # exact jump plateau, -i Res * chi_(y<0)
    oscillatory_part: complex # leading saddle contributions
    order_estimate: float     # relative size of the first neglected term

    @property
    def total(self):
        return self.residue_part + self.oscillatory_part


def asymptotic_I(omega, m, y, t):
    """Leading large-|y| approximation sharing eval_I's conventions exactly.

    Each stationary point z_j contributes
    exp(X Phi(z_j) + i theta_j) / ((i z_j)^(m+1) sqrt(2 pi X |Phi''(z_j)|)),
    scaled by sigma^(m+1) s_f^(-m), with theta_j the central angle of the
    descent contour through z_j; the residue plateau is carried separately
    and exactly.  Only the saddles are needed: no descent contour is built,
    so a query whose contours would fail their guards still has its
    asymptotics.  m is checked as eval_I checks it, without the cap that
    eval_I's quadrature needs.
    """
    omega = normalize(omega)
    m = _checked_m(m)
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    if not (math.isfinite(t) and t > 0):
        raise ValueError("asymptotics need a finite t > 0")
    can, s, u, factor = _canonical(omega, float(y), t)
    if s == 0:
        raise ValueError("asymptotics need y != 0")
    phase = scaled_phase(can, s, 1.0)
    X = phase.big_x

    osc = 0j
    for zj in stationary_points(phase):
        phi2, th = _saddle_angle(phase, zj)
        term = cmath.exp(X * complex(phase.phi(zj)) + 1j * th)
        term /= math.sqrt(2.0 * math.pi * X * abs(phi2))
        if m >= 0:
            term /= (1j * zj) ** (m + 1)
        osc += term
    sign = -1.0 if (phase.sigma < 0 and (m + 1) % 2 == 1) else 1.0
    pref = factor * u ** m
    return AsymptoticValue(
        residue_part=pref * _plateau(can, m, s, 1.0),
        oscillatory_part=pref * sign * phase.scale ** (-m) * osc,
        order_estimate=1.0 / X,
    )


def _fornberg(offsets, max_order):
    """Finite-difference weights at 0 for derivative orders 0..max_order."""
    xs = np.asarray(offsets, dtype=float)
    n = len(xs)
    c = np.zeros((n, max_order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0]
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = xs[i]
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def ode_residual(omega, m, y, t, h=1e-3):
    """Residual of the exact identity t*omega'(-i d/dy) I_m = y I_m - (m+1) I_{m+1}.

    The y-derivatives (orders 0..n-1) are taken by central finite differences
    of eval_I samples, so the check is independent of the derivative ladder.
    Returns |lhs - rhs| / (|rhs| + 1) with both sides divided by t.
    """
    omega = normalize(omega)
    if t <= 0:
        raise ValueError("ode residual needs t > 0")
    if not (math.isfinite(h) and h != 0):
        raise ValueError(f"ode residual needs a finite step h != 0, got {h!r}")
    n = omega.degree
    dmax = n - 1
    half = (dmax + 5) // 2
    offsets = np.arange(-half, half + 1) * h
    vals = np.array(
        [eval_I(omega, m, y + d, t) for d in offsets], dtype=complex
    )
    weights = _fornberg(offsets, dmax)
    derivs = weights.T @ vals  # derivs[d] = d-th derivative at y

    lhs = 0j
    for j, c in enumerate(omega.coeffs):
        if c != 0 and j >= 2:
            lhs += j * c * (-1j) ** (j - 1) * derivs[j - 1]
    i_m = vals[half]
    i_m1 = eval_I(omega, m + 1, y, t)
    rhs = (y * i_m - (m + 1) * i_m1) / t
    return abs(lhs - rhs) / (abs(rhs) + 1.0)
