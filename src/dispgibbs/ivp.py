"""Exact dispersive evolution of compactly supported piecewise-polynomial data.

A piecewise-polynomial initial condition has an entire Fourier transform, so
the solution of i q_t - omega(-i d_x) q = 0 collapses to a finite sum of the
kernel integrals evaluated by :mod:`dispgibbs.special`: one term per
(breakpoint, derivative-jump) pair.  This module holds the data type, the
jumps (jump_decomposition: a plain dict {(c, m): J}), the exact solver, the
short-time Taylor expansion valid away from the breakpoints, and the
jump-local rescaling that exposes the universal Gibbs profile.
"""

import bisect
import cmath
import math

import numpy as np

from .dispersion import normalize, polyder, polyval
from .special import MAX_PIECE_DEGREE, _check_query, _index, eval_I, eval_I_grid


class NotAJump(ValueError):
    """The requested breakpoint carries no zeroth-order jump."""


class PieceTooShallow(ValueError):
    """A Taylor expansion was requested past the local polynomial degree."""


def _trimmed(coeffs):
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class PiecewisePolynomialIC:
    """Compactly supported piecewise polynomial q_o.

    breakpoints: strictly increasing reals c_1 < ... < c_N; pieces: N-1
    ascending tuples of finite coefficients, piece i living on
    (c_i, c_{i+1}); the function vanishes outside [c_1, c_N].  Evaluation
    uses the right-continuous convention at the breakpoints themselves (the
    evolution never looks at those single points).
    """

    def __init__(self, breakpoints, pieces):
        bps = tuple(float(c) for c in breakpoints)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if any(b >= a for a, b in zip(bps[1:], bps)):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(math.isfinite(c) for c in bps):
            raise ValueError("breakpoints must be finite")
        ps = tuple(_trimmed(p) for p in pieces)
        if len(ps) != len(bps) - 1:
            raise ValueError(
                f"{len(bps)} breakpoints need {len(bps) - 1} pieces, got {len(ps)}")
        for p in ps:
            if len(p) > MAX_PIECE_DEGREE + 1:
                raise ValueError(
                    f"piece degree {len(p) - 1} exceeds the cap {MAX_PIECE_DEGREE}")
            if not all(cmath.isfinite(c) for c in p):
                raise ValueError(f"piece coefficients must be finite, got {p}")
        self.breakpoints = bps
        self.pieces = ps

    def __repr__(self):
        return (f"PiecewisePolynomialIC(breakpoints={self.breakpoints!r}, "
                f"pieces={self.pieces!r})")

    def piece_at(self, x):
        """Coefficients in force at x (the zero tuple outside the support)."""
        i = bisect.bisect_right(self.breakpoints, x) - 1
        if i < 0 or i >= len(self.pieces):
            return ()
        return self.pieces[i]

    def __call__(self, x):
        x = float(x)
        return polyval(self.piece_at(x), x)

    def _sides(self, c, m):
        """m-th derivatives at breakpoint c of the pieces left and right of it
        (zero outside the support), from the coefficients."""
        i = self.breakpoints.index(c)
        left = self.pieces[i - 1] if i > 0 else ()
        right = self.pieces[i] if i < len(self.pieces) else ()
        return polyval(polyder(left, m), c), polyval(polyder(right, m), c)

    def derivative_jump(self, c, m):
        """[q_o^{(m)}(c)] = right minus left derivative, exactly from coefficients."""
        left, right = self._sides(c, m)
        return right - left

    def __add__(self, other):
        if not isinstance(other, PiecewisePolynomialIC):
            return NotImplemented
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = []
        for a, b in zip(bps, bps[1:]):
            mid = 0.5 * (a + b)
            pa, pb = self.piece_at(mid), other.piece_at(mid)
            width = max(len(pa), len(pb))
            pieces.append(tuple(
                (pa[k] if k < len(pa) else 0) + (pb[k] if k < len(pb) else 0)
                for k in range(width)))
        return PiecewisePolynomialIC(bps, pieces)

    def __mul__(self, scalar):
        s = complex(scalar)
        return PiecewisePolynomialIC(
            self.breakpoints, tuple(tuple(s * c for c in p) for p in self.pieces))

    __rmul__ = __mul__


def box():
    """The indicator of [-1, 1]."""
    return PiecewisePolynomialIC((-1.0, 1.0), ((1.0,),))


def tent():
    """The hat max(0, 1 - |x|)."""
    return PiecewisePolynomialIC((-1.0, 0.0, 1.0), ((1.0, 1.0), (1.0, -1.0)))


def smoothed_box(delta):
    """Box with the left edge replaced by a linear ramp of width delta.

    Continuous at -1 - delta and -1 (only derivative jumps there); the full
    unit jump survives at +1.  Integrates to 2 + delta/2.
    """
    d = float(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    ramp = ((1.0 + d) / d, 1.0 / d)
    return PiecewisePolynomialIC((-1.0 - d, -1.0, 1.0), (ramp, (1.0,)))


def jump_decomposition(ic):
    """All nonzero derivative jumps of ic, orders 0..max piece degree, as a
    dict {(c, m): [q_o^{(m)}(c)]} ordered by breakpoint, then by m.

    Jumps are differences of exact coefficient arithmetic; values that only
    differ by rounding in the piece coefficients (a smoothed ramp meeting its
    plateau, say) are dropped relative to the one-sided derivative sizes.
    """
    top = max((len(p) - 1 for p in ic.pieces), default=0)
    jumps = {}
    for c in ic.breakpoints:
        for m in range(top + 1):
            lv, rv = ic._sides(c, m)
            jump = rv - lv
            if abs(jump) > 1e-9 * (abs(lv) + abs(rv) + 1.0):
                jumps[c, m] = jump
    return jumps


def solve(ic, omega, x, t, method="auto"):
    """q(x, t) for i q_t - omega(-i d_x) q = 0 with q(x, 0) = ic(x).

    The solution is the exact finite superposition
    q(x,t) = sum_{(c,m): J} J * I_{omega,m}(x - c, t); constant and linear
    parts of omega enter through the phase/drift handling inside eval_I.
    At t = 0 the sum telescopes back to the piece value, so x must then
    stay off the breakpoints (no canonical value exists there).  x, t and
    method are refused as eval_I_grid refuses them, even by an IC without
    jumps.

    x may be a scalar or a 1-D array; each jump's shifted copies x - c are
    one eval_I_grid call, and the result is one value per x (a scalar x is
    a one-point grid, and gives one value).
    """
    om = normalize(omega)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("x must be a scalar or a 1-D grid")
    grid = xs.reshape(-1)
    _check_query(grid, t, method)
    total = np.zeros(grid.shape, dtype=complex)
    for (c, m), jump in jump_decomposition(ic).items():
        total += jump * eval_I_grid(om, m, grid - c, t, method=method)
    return total if xs.ndim else total[0]


def taylor_away(ic, omega, x, t, order):
    """Short-time expansion sum_{j<=order} ((-it)^j / j!) omega(-i d_x)^j q_o(x).

    Exact polynomial differentiation of the piece containing x, so the
    result is meaningful only at points a fixed distance from every
    breakpoint.  A zero piece returns 0 for every order; a nonzero piece
    must have degree >= n*order or the top term is pure truncation noise
    (PieceTooShallow).
    """
    om = normalize(omega)
    x = float(x)
    if not (math.isfinite(x) and math.isfinite(t)):
        raise ValueError("the expansion needs a finite x and t")
    if x in ic.breakpoints:
        raise ValueError("the expansion is not defined at a breakpoint")
    if _index(order) is None or order < 0:
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    order = _index(order)
    piece = ic.piece_at(x)
    if not piece:
        return 0j
    n = om.degree
    if len(piece) - 1 < n * order:
        raise PieceTooShallow(
            f"degree-{len(piece) - 1} piece cannot feed {order} powers of a "
            f"degree-{n} symbol")

    def apply_symbol(coeffs):
        out = [0j] * max(len(coeffs), 1)
        for r, w in enumerate(om.symbol):
            if w == 0:
                continue
            term = [w * (-1j) ** r * c for c in polyder(coeffs, r)]
            for k, c in enumerate(term):
                out[k] += c
        return _trimmed(out)

    total = polyval(piece, x)
    cur = piece
    fac = 1.0
    for j in range(1, order + 1):
        cur = apply_symbol(cur)
        fac *= j
        total += (-1j * t) ** j / fac * polyval(cur, x)
    return total


def rescaled_profile(ic, omega, c, x_grid, t):
    """Jump-local profile (q(c + x h, t) - q_c) / [q_o(c)], h = (|w_n| t)^{1/n}.

    omega must be a monomial w_n k^n; c must carry a zeroth-order jump of
    ic (NotAJump otherwise).  q_c collects everything at the breakpoint
    except its own leading kernel term: q_c = q(c,t) - [q_o(c)] I_{omega,0}(0,t).
    As t -> 0 the profile converges to I_{omega,0}(x, 1) uniformly on
    bounded x sets, whatever the rest of the IC does.
    """
    om = normalize(omega)
    if [j for j, w in enumerate(om.symbol) if w != 0] != [om.degree]:
        raise ValueError("the rescaled profile needs a monomial dispersion relation")
    if t <= 0:
        raise ValueError("the rescaled profile needs t > 0")
    c = float(c)
    jump = jump_decomposition(ic).get((c, 0), 0j)
    if jump == 0:
        raise NotAJump(f"no zeroth-order jump at {c!r}")
    n = om.degree
    h = (abs(om.leading) * t) ** (1.0 / n)
    q_c = solve(ic, om, c, t) - jump * eval_I(om, 0, 0.0, t)
    xs = c + np.asarray(x_grid, dtype=float).ravel() * h
    return (solve(ic, om, xs, t) - q_c) / jump
