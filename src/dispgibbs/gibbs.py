"""Extrema of the dispersive jump profile G_n(y) = I_{w k^n, 0}(y, 1) + 1.

Monomial similarity makes the overshoot of a unit jump a pure number for
each (n, sigma): the classical Fourier overshoot 1 + g appears in the
n -> infinity limit, with g the Wilbraham-Gibbs constant.  This module
computes g independently of :mod:`dispgibbs.special`, searches the jump
profiles for their extrema, and provides the classical partial-sum
reference for side-by-side plots.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .dispersion import normalize
from .quadrature import clenshaw_curtis_rule, integrate_segment
from .special import _index, eval_I, eval_I_grid  # noqa: F401  (perfbench/tracing.py wraps gibbs.eval_I)

CHEB_POINTS = 33   # interpolation points per refinement bracket


@lru_cache(maxsize=1)
def wilbraham_gibbs_constant():
    """(1/pi) * integral_0^pi sin(z)/z dz - 1/2, to near machine precision.

    The integrand is entire, so a modest Clenshaw-Curtis rule already
    converges to all digits; the order-doubling check guards against typos
    rather than analysis.
    """
    f = lambda z: np.sinc(z / np.pi)
    v1, _ = integrate_segment(f, 0.0, math.pi, 48)
    v2, _ = integrate_segment(f, 0.0, math.pi, 96)
    if abs(v1 - v2) > 1e-13:
        raise ArithmeticError("sinc quadrature failed to settle")
    return float(v2.real) / math.pi - 0.5


@dataclass(frozen=True)
class OvershootReport:
    n: int
    sigma: complex
    sup_re: float
    inf_re: float
    sup_im: float
    inf_im: float
    sup_abs: float
    inf_abs: float
    arg_sup_re: float    # y location of the real-part maximum


@lru_cache(maxsize=1)
def _cheb_maps(points):
    """The matrices that take values at the `points` descending Chebyshev
    points cos(pi k / N) to the Chebyshev coefficients of their
    interpolant (the inverse of chebvander) and of its derivative."""
    x = clenshaw_curtis_rule(points - 1)[0]
    to_coef = np.linalg.inv(chebyshev.chebvander(x, points - 1))
    return to_coef, chebyshev.chebder(np.eye(points)) @ to_coef


def _cheb_argmax(values, g):
    """Argmax on [-1, 1] of the Chebyshev interpolant through `values`, and
    the interpolant through `g` at that point.

    `values` and `g` sit at the descending Chebyshev points cos(pi k / N).
    The candidates are the two ends and the roots of the interpolant's
    derivative (colleague-matrix eigenvalues) whose real part lies in
    [-1, 1]; taking the real part of every root keeps a nearly double
    critical point, and the best candidate wins on the interpolant itself,
    sum_k c_k cos(k arccos x).  The same cosine row gives g's interpolant
    there.
    """
    to_coef, to_deriv = _cheb_maps(len(values))
    crit = chebyshev.chebroots(to_deriv @ values).real
    cand = np.concatenate(([-1.0, 1.0], crit[np.abs(crit) <= 1.0]))
    basis = np.cos(np.outer(np.arccos(cand), np.arange(len(values))))
    best = np.argmax(basis @ (to_coef @ values))
    return float(cand[best]), basis[best] @ (to_coef @ g)


def overshoot(n, sigma=1.0, t=1.0):
    """Extrema of G_n(y,t) = I_{sigma k^n, 0}(y, t) + 1 over y, finite t > 0.

    Coarse 0.1-step grid on [-L, L] (L = max(10, 2n), everything scaled by
    the similarity length (|sigma| t)^{1/n}).  Each of the six targets
    (+-Re G, +-Im G, +-|G|^2; |G| itself has a kink at a zero of G) is then
    interpolated on CHEB_POINTS Chebyshev points over a bracket of two grid
    steps around its grid extremum, shifted inward by one step at the
    scan's ends so that it stays inside [-L, L] (targets that share a
    bracket share its values).  Every bracket has the same width, so their
    points repeat one set of offsets and the batch takes the blocked direct
    integrand (special._block_rows).  The interpolant's maximum is located,
    and the interpolant of G gives G there, to the quadrature's rounding.
    A target that spreads over the scan by no more than rounding (Im G of
    a real profile) keeps its grid extremum and takes no bracket.  The
    scan and the brackets are one eval_I_grid batch each.  The six
    extremal values are t-independent; the reported location arg_sup_re
    scales with the query t.
    """
    if _index(n) is None or n < 2:
        raise ValueError(f"need a dispersive monomial, an integer n >= 2, got {n!r}")
    n = _index(n)
    if not (math.isfinite(t) and t > 0):
        raise ValueError("overshoot needs a finite t > 0")
    omega = normalize({n: sigma})   # refuses n > MAX_DEGREE before the scan is built
    u = (abs(sigma) * t) ** (1.0 / n)
    L = max(10.0, 2.0 * n)
    ys = np.arange(-L, L + 1e-12, 0.1) * u

    def profile(y):
        return eval_I_grid(omega, 0, y, t) + 1.0

    targets = {
        "sup_re": lambda g: g.real, "inf_re": lambda g: -g.real,
        "sup_im": lambda g: g.imag, "inf_im": lambda g: -g.imag,
        "sup_abs": lambda g: np.abs(g) ** 2, "inf_abs": lambda g: -np.abs(g) ** 2,
    }
    vals = profile(ys)
    best = [int(np.argmax(f(vals))) for f in targets.values()]
    # a target that spreads over the scan by at most 64 eps max|G| sees only
    # rounding (Im G of a real profile): it keeps its scan extremum, unbracketed
    noise = 64 * np.finfo(float).eps * np.abs(vals).max()
    brackets = [(ys[j - 1], ys[j + 1]) if np.ptp(f(vals)) > noise else None
                for j, f in zip(np.clip(best, 1, len(ys) - 2), targets.values())]

    def in_bracket(bracket, x):   # [-1, 1] -> bracket
        lo, hi = bracket
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x

    # targets often share a grid extremum: each bracket is evaluated once
    distinct = list(dict.fromkeys(filter(None, brackets)))
    cheb = clenshaw_curtis_rule(CHEB_POINTS - 1)[0]
    near = profile(np.concatenate([in_bracket(b, cheb) for b in distinct]))
    near = dict(zip(distinct, near.reshape(len(distinct), CHEB_POINTS)))

    out = {}
    for key, f, i, b in zip(targets, targets.values(), best, brackets):
        x, g = ys[i], vals[i]
        if b:
            c, at = _cheb_argmax(f(near[b]), near[b])
            if f(at) >= f(g):     # refinement must never lose to the grid
                x, g = in_bracket(b, c), at
        out[key] = float({"re": g.real, "im": g.imag, "abs": abs(g)}[key[4:]])
        if key == "sup_re":
            arg_sup_re = float(x)
    return OvershootReport(n=n, sigma=sigma, arg_sup_re=arg_sup_re, **out)


def overshoot_table(n_list, sigma=1.0, t=1.0):
    """One OvershootReport per n, same sigma; rows are independent."""
    return [overshoot(n, sigma=sigma, t=t) for n in n_list]


def fourier_gibbs_reference(n_terms, x_grid):
    """Partial Fourier sum of the unit box on the period-4 interval.

    S_N(x) = 1/2 + sum_{k=1}^{N} (2 sin(k pi/2)/(k pi)) cos(k pi x / 2):
    real, even, converging to the indicator of |x| < 1 with the classical
    overshoot 1 + g at the jumps.
    """
    if _index(n_terms) is None or n_terms < 1:
        raise ValueError(f"need an integer count of Fourier terms >= 1, got {n_terms!r}")
    n_terms = _index(n_terms)
    x = np.asarray(x_grid, dtype=float)
    s = np.full_like(x, 0.5)
    for k in range(1, n_terms + 1):
        a = 2.0 * math.sin(0.5 * math.pi * k) / (math.pi * k)
        if a:
            s = s + a * np.cos(0.5 * math.pi * k * x)
    return s
