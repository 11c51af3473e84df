"""Clenshaw-Curtis quadrature along piecewise-affine complex contours.

The integrands we care about (exp of a polynomial phase, divided by a power
of iz) are analytic along every contour the package builds, so spectral
convergence of Clenshaw-Curtis on each affine segment is the cheapest route
to 1e-10..1e-12 accuracy.  Each segment doubles its own rule order until
two successive estimates agree.  The nodes of order 2N at even indices are
those of order N, bit for bit, which serves twice: a segment's first rule,
of order N, also gives the estimate of order N/2, so a segment that is
already resolved settles after one rule; and a batch of integrands (a
grid), which climbs one segment at a time, evaluates only the new nodes
at each doubling.  The segments of one contour climb their ladders
together when the integrand is elementwise, so that one rule call serves
every segment at the same order (numpy's fixed cost per call is tens of
microseconds, more than a rule of 33..129 nodes costs to apply).

A batch integrand may also return its (rows, nodes) values factored, as
(heads, tails, rows) with heads (blocks, nodes) and tails (B, nodes): row
b B + j of the batch is heads[b] * tails[j], node by node, and the batch
is the first `rows` of those blocks * B rows (its last block may be
short).  The direct route of a grid does so, one block start per head and
one offset per tail.  The product is never formed: a rule's estimates are
one small complex matrix product, its max|f| the row maximum of a real
one, and a doubled rule interleaves the two factors alone.
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
NODE_CAP = 2 ** 15  # node values one lockstep rule call holds at most


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

    Nodes are x_k = cos(pi k / order), k = 0..order (descending).  The
    weights come from one inverse FFT of length order, in Waldvogel's
    construction (BIT 46, 2006), which costs O(order log order) where
    integrating the Chebyshev interpolant term by term takes a dense
    (order+1) x (order/2+1) cosine matrix.  order=2 gives the familiar
    {1/3, 4/3, 1/3}.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    nodes = np.cos(np.pi * np.arange(order + 1) / order)
    # Fejer's second-rule moment vector, made symmetric, plus the
    # correction that turns Fejer's rule into Clenshaw-Curtis
    odd = np.arange(1, order, 2)
    v = np.concatenate([2.0 / odd / (odd - 2), [1.0 / odd[-1]], np.zeros(order // 2)])
    g = np.full(order, -1.0)
    g[order // 2] += 2 * order
    w = np.fft.ifft(-v[:-1] - v[:0:-1] + g / (order * order - 1.0)).real
    weights = np.append(w, w[0])   # x_order = -1 mirrors x_0 = 1
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _endpoints(start, end):
    """start and end as complex numbers, or as complex arrays when they are
    tuples (one segment per row)."""
    if isinstance(start, tuple):
        return np.array(start, dtype=complex), np.array(end, dtype=complex)
    return complex(start), complex(end)


def _rule_sum(weights, fz):
    """sum_k weights[k] fz[..., k], one value per row of fz: a contiguous
    array, or a factored (heads, tails, rows)."""
    if isinstance(fz, tuple):
        heads, tails, rows = fz
        return ((heads * weights) @ tails.T).reshape(-1)[:rows]
    # real weights times the (re, im) pairs: complex-matrix @ real-vector
    # takes a slow path in numpy, milliseconds for a few hundred rows
    est = np.matmul(weights, fz.view(float).reshape(fz.shape + (2,)))
    return est.view(complex)[..., 0]


def _max_abs(fz):
    """max_k |fz[..., k]|, one value per row of fz, factored or not: nan or
    inf unless every value is finite (inf times a zero factor is nan)."""
    if isinstance(fz, tuple):
        heads, tails, rows = fz
        return (np.abs(heads)[:, None, :] * np.abs(tails)).max(axis=-1).reshape(-1)[:rows]
    return np.abs(fz).max(axis=-1)


def _values(fz):
    """An integrand's node values as _rule_sum and _max_abs take them."""
    return fz if isinstance(fz, tuple) else np.ascontiguousarray(fz, dtype=complex)


def integrate_segment(f, start, end, order):
    """Fixed-order rule applied to one affine segment start -> end.

    f returns one value per node, or one row of node values per point of a
    batch, or a batch's rows factored as (heads, tails, rows) (see the
    module docstring); the estimate and the integrand scale max|f| then
    come per row.  start and end may also be tuples with one endpoint per
    row (every row its own segment, one rule for all of them); f then
    receives the (rows, nodes) matrix of nodes.  integrate_contour calls it
    by this module's name, so a wrapper put here sees every rule applied.
    """
    nodes, weights = clenshaw_curtis_rule(order)
    per_row = isinstance(start, tuple)
    start, end = _endpoints(start, end)
    mid = 0.5 * (start + end)
    half = 0.5 * (end - start)
    z = mid[:, None] + half[:, None] * nodes if per_row else mid + half * nodes
    fz = _values(f(z))
    fmax = _max_abs(fz)
    if not np.isfinite(fmax).all():   # max|f| is finite only when every value is
        raise NonFinite(f"integrand not finite on segment {start} -> {end}")
    return half * _rule_sum(weights, fz), fmax


def _embedded(fz, start, end, order):
    """The estimate of the rule of half the order on start -> end, from the
    node values fz of the rule of this order: the nodes of order/2 are the
    even-indexed nodes of order, bit for bit, so this is the estimate of
    integrate_segment(f, start, end, order // 2), bit for bit."""
    start, end = _endpoints(start, end)
    weights = clenshaw_curtis_rule(order // 2)[1]
    if isinstance(fz, tuple):
        even = (fz[0][:, ::2], fz[1][:, ::2], fz[2])
    else:
        even = np.ascontiguousarray(fz[..., ::2])
    return 0.5 * (end - start) * _rule_sum(weights, even)


def _interleave(even, odd):
    """The node values whose even-indexed columns are even and odd-indexed
    ones odd, in a new array."""
    fz = np.empty(np.shape(odd)[:-1] + (even.shape[-1] + odd.shape[-1],), dtype=complex)
    fz[..., ::2] = even
    fz[..., 1::2] = odd
    return fz


class _Nested:
    """The integrand f on one segment, keeping the node values of its last
    rule (from which a first rule's half-order estimate is taken): when the
    next rule has twice the order, its even-indexed nodes are the last
    rule's nodes, bit for bit, so only the odd-indexed ones go to f.  f
    must treat the nodes (its last axis) independently and return new
    arrays on every call; factored values (heads, tails, rows) are kept,
    and interleaved, factor by factor."""

    __slots__ = ("f", "last")

    def __init__(self, f):
        self.f, self.last = f, None

    def __call__(self, z):
        last = self.last
        even = last[0] if isinstance(last, tuple) else last
        if even is None or z.shape[-1] != 2 * even.shape[-1] - 1:
            fz = _values(self.f(z))
        else:
            # f first: allocating fz before f's temporaries made a grid solve
            # take about 1.6 times the page faults (glibc returns more to the OS)
            new = self.f(np.ascontiguousarray(z[..., 1::2]))
            if isinstance(new, tuple):
                fz = (_interleave(last[0], new[0]), _interleave(last[1], new[1]), new[2])
            else:
                fz = _interleave(last, new)
        self.last = fz
        return fz


class _Ladder:
    """One segment's refinement to the tolerance TOL: its current order, its
    last estimates and, once decided, whether it settled or the error it
    raises (NoConvergence past MAX_ORDER, or NonFinite).  Its first rule,
    of order N, may bring the estimate of order N/2 along (see take): the
    ladder then runs as if it had started at N/2, one rule call fewer."""

    __slots__ = ("seg", "order", "seglen", "val", "prev", "dprev", "done", "error")

    def __init__(self, seg):
        self.seg = seg
        if isinstance(seg.start, tuple):   # one segment per point of a batch
            self.seglen = np.abs(np.subtract(seg.end, seg.start))
        else:
            self.seglen = abs(seg.end - seg.start)
        self.val = self.prev = self.dprev = self.error = None
        self.done = False
        order = max(8, seg.order)
        self._climb_to(order + order % 2)

    def _climb_to(self, order):
        self.order = order
        if order > MAX_ORDER:
            self.error = NoConvergence(
                f"segment {self.seg.start} -> {self.seg.end} did not converge "
                f"by order {MAX_ORDER}", last=self.val, previous=self.prev)

    def take(self, val, fmax, half=None):
        """Record the estimate at the current order; the segment is done once
        two successive estimates agree, else it moves up to twice the order.
        half, given with the segment's first rule, is the estimate of half
        the order that the rule's even-indexed nodes make: it comes first,
        as if the ladder had started at half the order."""
        if self.val is None:
            self.val = half
        self.prev, self.val = self.val, val
        if self.prev is not None:
            # relative test, with a floor tied to the integrand scale so that
            # segments whose value nearly cancels still converge once the
            # rule saturates
            d = abs(val - self.prev)
            scale = TOL * fmax * self.seglen
            done = d <= TOL * abs(val) + 1e-3 * scale
            # roundoff plateau: when the integrand carries a huge absolute
            # phase, node values are only good to eps*phase and doubling the
            # order stops helping; accept once the stall is negligible
            # against the integrand scale
            if self.dprev is not None:
                done |= (d >= 0.25 * self.dprev) & (d <= 100.0 * scale)
            # every point of a batch must pass
            if done if isinstance(done, bool) else done.all():
                self.done = True
                return
            self.dprev = d
        self._climb_to(2 * self.order)


def _refine(f, group):
    """Apply one rule, at the order the segments of group are at, to each of
    them: to a lone segment with its own endpoints, to two or more (whose
    integrand is elementwise) in one call with a row per segment.  A
    segment taking its first rule also takes the estimate of half the order
    from the rule's even-indexed nodes, when that order is even and at
    least 8.  A segment whose rule is not finite records NonFinite, and the
    segments after it in the group are left as they were."""
    order = group[0].order
    embed = order % 4 == 0 and order >= 16 and any(g.val is None for g in group)
    keeper = _Nested(f) if embed and not isinstance(f, _Nested) else f   # holds the node values
    if len(group) == 1:
        (ladder,) = group
        start, end = ladder.seg.start, ladder.seg.end
        try:
            est, fmax = integrate_segment(keeper, start, end, order)
        except NonFinite as exc:
            ladder.error = exc
        else:
            ladder.take(est, fmax, _embedded(keeper.last, start, end, order) if embed else None)
        return
    start, end = tuple(g.seg.start for g in group), tuple(g.seg.end for g in group)
    try:
        est, fmax = integrate_segment(keeper, start, end, order)
    except NonFinite:
        # find the failing segment, and name its endpoints, one at a time
        for ladder in group:
            _refine(f, [ladder])
            if ladder.error is not None:
                break
        return
    halves = _embedded(keeper.last, start, end, order).tolist() if embed else [None] * len(group)
    for ladder, val, top, half in zip(group, est.tolist(), fmax.tolist(), halves):
        ladder.take(val, top, half)


def _lockstep(f, ladders):
    """Refine the segments of ladders together until each is done or comes
    after a segment that failed.  Each round applies the lowest order a
    live segment is at, to every live segment at that order, so that the
    order is applied once for all of them (in calls of at most NODE_CAP
    node values)."""
    live = ladders
    while True:
        # a failure stops every segment after it; one before it may still fail
        stop = next((k for k, ladder in enumerate(live) if ladder.error is not None),
                    len(live))
        live = [ladder for ladder in live[:stop] if not ladder.done]
        if not live:
            return
        order = min(ladder.order for ladder in live)
        group = [ladder for ladder in live if ladder.order == order]
        rows = max(1, NODE_CAP // (order + 1))
        for k in range(0, len(group), rows):
            _refine(f, group[k:k + rows])


def integrate_contour(f, contour):
    """Adaptively integrate f along every segment of a contour and sum.

    f must accept a complex ndarray of nodes and return complex values
    elementwise, or a (points, nodes) array for a batch of integrands, in
    which case the result is one value per point; a batch may return its
    rows factored instead, as (heads, tails, rows) (see the module
    docstring), summed without forming their product.  A batch may also give
    every point its own segments: segment endpoints are then tuples with
    one complex per point (tuples, so that a rule's endpoints stay
    hashable for whoever wraps integrate_segment).

    Every segment climbs its own ladder of doubling orders until two
    successive estimates agree.  Its first rule, of order N, counts twice
    when N/2 is even and at least 8: its even-indexed nodes make the rule
    of order N/2, whose estimate comes first, so one rule settles a
    segment whose estimates of orders N/2 and N agree, with the values
    (bit for bit) of a ladder that starts at N/2.  When f is elementwise,
    as the first rule (on the first segment alone) shows, the segments
    climb in lockstep: each round applies the lowest order a live segment
    is at, in one integrate_segment call with a row per segment at that
    order (more calls only past NODE_CAP node values).  A batch of integrands refines
    one segment at a time, as its rule already carries every point, and
    each doubling evaluates f only on the nodes the last rule did not have
    (f must treat its nodes independently).  The lockstep rounds evaluate
    every node: keeping each segment's values between rounds would break
    the NODE_CAP bound on memory.
    Either way each segment meets the same orders, and the first segment
    in contour order that fails decides what is raised: NoConvergence
    (with the last two estimates attached) if it does not settle by
    MAX_ORDER, NonFinite on nan/inf.
    """
    ladders = [_Ladder(seg) for seg in contour.segments]
    first = _Nested(f)   # the first segment's integrand, should it climb alone
    if ladders and ladders[0].error is None:
        _refine(first, ladders[:1])
        if np.ndim(ladders[0].val) == 0:
            _lockstep(f, ladders)
    # a batch of integrands is refined here, segment by segment, each rule
    # evaluating only the nodes its segment's last rule did not; after the
    # lockstep rounds every segment is done up to the first that failed
    total = 0j
    for k, ladder in enumerate(ladders):
        nested = first if k == 0 else _Nested(f)
        while not ladder.done and ladder.error is None:
            _refine(nested, [ladder])
        if ladder.error is not None:
            raise ladder.error
        total += ladder.val
    return total
