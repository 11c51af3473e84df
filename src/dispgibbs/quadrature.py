"""Clenshaw-Curtis quadrature along piecewise-affine complex contours.

The integrands we care about (exp of a polynomial phase, divided by a power
of iz) are analytic along every contour the package builds, so spectral
convergence of Clenshaw-Curtis on each affine segment is the cheapest route
to 1e-10..1e-12 accuracy.  Segments are refined independently by doubling
the rule order until two successive estimates agree.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NoConvergence",
    "NonFinite",
    "clenshaw_curtis_rule",
    "integrate_segment",
    "integrate_contour",
]

TOL = 1e-10         # integrate_contour's relative tolerance per segment
MAX_ORDER = 2048    # the Clenshaw-Curtis order past which a segment raises NoConvergence


class NoConvergence(RuntimeError):
    """Adaptive refinement hit the order cap without the estimates settling.

    Carries the last two estimates so callers can judge how bad it is.
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class NonFinite(RuntimeError):
    """Integrand returned nan/inf on a quadrature node: a numerical failure
    (like NoConvergence), not an invalid input."""


@lru_cache(maxsize=None)
def clenshaw_curtis_rule(order):
    """Nodes and weights of the (order+1)-point Clenshaw-Curtis rule on [-1,1].

    Nodes are x_k = cos(pi k / order), k = 0..order (descending).  Weights
    come from integrating the Chebyshev interpolant term by term:
    int_-1^1 T_j = 2/(1-j^2) for even j, 0 for odd j.  order=2 gives the
    familiar {1/3, 4/3, 1/3}.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    k = np.arange(order + 1)
    theta = np.pi * k / order
    nodes = np.cos(theta)
    j = np.arange(0, order + 1, 2)
    moments = 2.0 / (1.0 - j.astype(float) ** 2)
    # halve the first/last terms of the DCT sum (trapezoid-in-j)
    scale = np.ones_like(moments)
    scale[0] = 0.5
    scale[-1] = 0.5
    cosmat = np.cos(np.outer(theta, j))
    weights = (2.0 / order) * (cosmat @ (moments * scale))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate_segment(f, start, end, order):
    """Fixed-order rule applied to one affine segment start -> end.

    f returns one value per node, or one row of node values per point of a
    batch; the estimate and the integrand scale max|f| then come per row.
    start and end may also be tuples with one endpoint per row (every row
    its own segment, one rule for all of them); f then receives the
    (rows, nodes) matrix of nodes.
    """
    nodes, weights = clenshaw_curtis_rule(order)
    per_row = isinstance(start, tuple)
    if per_row:
        start, end = np.array(start, dtype=complex), np.array(end, dtype=complex)
    else:
        start, end = complex(start), complex(end)
    mid = 0.5 * (start + end)
    half = 0.5 * (end - start)
    z = mid[:, None] + half[:, None] * nodes if per_row else mid + half * nodes
    fz = np.ascontiguousarray(f(z), dtype=complex)
    if not np.isfinite(fz).all():
        raise NonFinite(f"integrand not finite on segment {start} -> {end}")
    # real weights times the (re, im) pairs: complex-matrix @ real-vector
    # takes a slow path in numpy, milliseconds for a few hundred rows
    est = np.matmul(weights, fz.view(float).reshape(fz.shape + (2,)))
    return half * est.view(complex)[..., 0], np.abs(fz).max(axis=-1)


def _integrate_segment_adaptive(f, seg, tol, max_order):
    order = max(8, seg.order)
    if order % 2:
        order += 1
    seglen = np.abs(np.subtract(seg.end, seg.start))
    prev = None
    val = None
    dprev = None
    while order <= max_order:
        new, fmax = integrate_segment(f, seg.start, seg.end, order)
        prev, val = val, new
        if prev is not None:
            # relative test, with a floor tied to the integrand scale so that
            # segments whose value nearly cancels still converge once the
            # rule saturates
            d = abs(val - prev)
            scale = tol * fmax * seglen
            done = d <= tol * abs(val) + 1e-3 * scale
            # roundoff plateau: when the integrand carries a huge absolute
            # phase, node values are only good to eps*phase and doubling the
            # order stops helping; accept once the stall is negligible
            # against the integrand scale
            if dprev is not None:
                done |= (d >= 0.25 * dprev) & (d <= 100.0 * scale)
            if done.all():   # every point of a batch must pass
                return val
            dprev = d
        order *= 2
    raise NoConvergence(
        f"segment {seg.start} -> {seg.end} did not converge by order {max_order}",
        last=val, previous=prev,
    )


def integrate_contour(f, contour, tol=TOL, max_order=MAX_ORDER):
    """Adaptively integrate f along every segment of a contour and sum.

    f must accept a complex ndarray of nodes and return complex values
    elementwise, or a (points, nodes) array for a batch of integrands, in
    which case the result is one value per point.  A batch may also give
    every point its own segments: segment endpoints are then tuples with
    one complex per point (tuples, so that a rule's endpoints stay
    hashable for whoever wraps integrate_segment).  Raises NoConvergence
    (with the last two estimates attached) if some segment refuses to
    settle by max_order, NonFinite on nan/inf.
    """
    total = 0j
    for seg in contour.segments:
        total += _integrate_segment_adaptive(f, seg, tol, max_order)
    return total
