"""Polynomial dispersion relations and the rescaled saddle-point phase.

A relation omega(k) = sum_j omega_j k^j (complex coefficients, degree n >= 2)
drives the evolution i q_t - omega(-i d/dx) q = 0.  Degree-0 and degree-1
terms carry no dispersion: normalization strips them into a phase rate and a
drift that the solution layer reapplies as exp(-i omega_0 t) and x -> x -
omega_1 t; a relation's symbol puts them back where the full symbol is read.
Well-posedness on the line requires Im(omega_n) <= 0 for even n and real
omega_n for odd n, otherwise the propagator blows up at one of the ends of
the k-axis.

For |y| large the integral I(y,t) = (1/2pi) int exp(iky - i omega(k) t) /
(ik)^(m+1) dk is dominated by saddles.  Substituting k = sigma * s_f * z with
sigma = sign(y) and s_f = (|y|/t)^(1/(n-1)) turns the exponent into
X * Phi(z) with X = |y| s_f and

    Phi(z) = i z - i W(z),     W(z) = (t/X) * omega(sigma s_f z),

whose leading coefficient is always omega_n sigma^n.  Stationary points solve
W'(z) = 1; the ones in the closed upper half plane carry the asymptotics.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidDispersion",
    "IllPosed",
    "DegeneratePhase",
    "DispersionRelation",
    "polyval",
    "polyder",
    "normalize",
    "parse_omega",
    "format_omega",
    "rescaled",
    "ScaledPhase",
    "scaled_phase",
    "scaled_phase_rows",
    "take_rows",
    "stationary_points",
    "stationary_point_rows",
    "expected_stationary_count",
]

MAX_DEGREE = 64
COLLISION_TOL = 1e-6   # relative distance below which two stationary points collide


class InvalidDispersion(ValueError):
    """Coefficients do not describe a usable dispersion relation."""


class IllPosed(InvalidDispersion):
    """The leading coefficient makes the line problem ill-posed."""


class DegeneratePhase(RuntimeError):
    """Stationary-point structure unusable (collisions, wrong count, ...)."""


def polyval(coeffs, z):
    """sum_j coeffs[j] z^j by Horner's rule, ascending coefficients; z may be
    a scalar or an array (on arrays, the same arithmetic as numpy's polyval).

    On an array z the steps after the first take turns writing into two
    arrays of the result's shape, so that they allocate nothing, and skip
    the + 0 of a zero coefficient (a scalar 0 or an all-zero array) before
    the constant term.  That add only turns -0.0 parts into +0.0, the later
    products carry such a sign only into zero parts, and the constant term
    is always added: the result is plain Horner's, bit for bit, unless the
    constant term itself has a -0.0 part.  Every coefficient must broadcast
    to the shape of z * coeffs[-1].  Each product goes to the other array,
    never in place: numpy may round an in-place complex product
    differently (it does for one-element arrays).
    """
    acc = 0j
    if not isinstance(z, np.ndarray) or not z.ndim or len(coeffs) < 2:
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc
    acc = acc * z + coeffs[-1]
    spare = np.empty_like(acc)
    for j in range(len(coeffs) - 2, -1, -1):
        c = coeffs[j]
        np.multiply(acc, z, out=spare)
        if j == 0 or (c.any() if isinstance(c, np.ndarray) else c != 0):
            np.add(spare, c, out=acc)
        else:
            acc, spare = spare, acc
    return acc


def polyder(coeffs, order=1):
    """Ascending coefficients of the order-th derivative, as a tuple."""
    cs = tuple(coeffs)
    for _ in range(order):
        cs = tuple(j * c for j, c in enumerate(cs))[1:]
    return cs


@dataclass(frozen=True)
class DispersionRelation:
    """Normalized dispersion relation: coeffs[j] = omega_j, coeffs[0:2] == 0."""

    coeffs: tuple          # ascending powers, length degree+1
    drift: float = 0.0     # stripped omega_1 (must be real)
    phase_rate: complex = 0j  # stripped omega_0

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    @property
    def symbol(self):
        """All ascending coefficients omega_0..omega_n, with the phase rate
        and the drift put back."""
        return (self.coeffs[0] + self.phase_rate, self.coeffs[1] + self.drift) + self.coeffs[2:]

    def __call__(self, k):
        """omega(k) without the stripped drift/phase terms; k may be an array."""
        return polyval(self.coeffs, k)


def _as_coeff_dict(coeffs):
    if isinstance(coeffs, DispersionRelation):
        coeffs = coeffs.symbol
    if isinstance(coeffs, dict):
        items = coeffs.items()
    else:
        items = enumerate(coeffs)
    out = {}
    for j, c in items:
        if not float(j).is_integer():
            raise InvalidDispersion(f"non-integer degree {j!r}")
        j = int(j)
        if j < 0:
            raise InvalidDispersion(f"negative degree {j}")
        if j > MAX_DEGREE:
            raise InvalidDispersion(f"degree {j} beyond supported maximum {MAX_DEGREE}")
        c = complex(c)
        if c != 0:
            out[j] = out.get(j, 0j) + c
    return out


def normalize(coeffs):
    """Build a DispersionRelation, stripping drift/phase and validating.

    Accepts a dict {degree: coefficient}, a sequence of ascending
    coefficients, or an existing relation.  Raises InvalidDispersion when a
    coefficient is not finite or no term of degree >= 2 survives, IllPosed
    when the leading coefficient violates Im(omega_n) <= 0 (n even) /
    omega_n real (n odd).
    """
    d = _as_coeff_dict(coeffs)
    for j, c in d.items():
        if not cmath.isfinite(c):
            raise InvalidDispersion(f"coefficient of degree {j} is not finite: {c}")
    phase_rate = d.pop(0, 0j)
    drift = d.pop(1, 0j)
    if abs(drift.imag) > 1e-14 * max(1.0, abs(drift)):
        raise InvalidDispersion("complex drift (Im omega_1 != 0) is not supported")
    drift = drift.real
    if not d:
        raise InvalidDispersion("dispersion relation needs a term of degree >= 2")
    n = max(d)
    wn = d[n]
    if n % 2 == 0:
        if wn.imag > 1e-14 * abs(wn):
            raise IllPosed(f"even degree {n} needs Im(omega_n) <= 0, got {wn}")
        if 0 < wn.imag:
            wn = complex(wn.real, 0.0)
    else:
        if abs(wn.imag) > 1e-14 * abs(wn):
            raise IllPosed(f"odd degree {n} needs real omega_n, got {wn}")
        wn = complex(wn.real, 0.0)
    d[n] = wn
    dense = [0j] * (n + 1)
    for j, c in d.items():
        dense[j] = c
    return DispersionRelation(tuple(dense), drift=drift, phase_rate=phase_rate)


def parse_omega(text):
    """Parse 'j:coeff' entries, e.g. '3:1' or '2:0-1i,3:0.5' ('i' notation).

    Degrees must be distinct non-negative integers; at least one entry of
    degree >= 2 must be present after normalization.
    """
    d = {}
    for raw in str(text).split(","):
        entry = raw.strip()
        if not entry:
            raise InvalidDispersion(f"empty entry in {text!r}")
        if ":" not in entry:
            raise InvalidDispersion(f"entry {entry!r} is not of the form degree:coeff")
        js, cs = entry.split(":", 1)
        try:
            j = int(js.strip())
        except ValueError:
            raise InvalidDispersion(f"bad degree {js!r}") from None
        if j in d:
            raise InvalidDispersion(f"duplicate degree {j}")
        try:
            c = complex(cs.strip().replace(" ", "").replace("i", "j"))
        except ValueError:
            raise InvalidDispersion(f"bad coefficient {cs!r}") from None
        d[j] = c
    return normalize(d)


def _fmt_c(c):
    """c in 'i' notation, each part the shortest string that parses back to
    it exactly, without a trailing '.0'."""
    re, im = (repr(float(x)).removesuffix(".0") for x in (c.real, c.imag))
    if c.imag == 0:
        return re
    if c.real == 0:
        return f"{im}i"
    return f"{re}{'+' if c.imag > 0 else ''}{im}i"


def format_omega(omega):
    """Inverse of parse_omega, exactly (drift/phase re-emitted as degrees 1/0)."""
    return ",".join(f"{j}:{_fmt_c(c)}" for j, c in enumerate(omega.symbol) if c != 0)


def rescaled(omega, t):
    """Relation omega_t with omega_t(k) = t * omega(k t^(-1/n)).

    Satisfies I_m(y, t) = t^(m/n) * I_m[omega_t](y t^(-1/n), 1); coefficient
    j picks up the factor t^(1 - j/n).
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be finite and positive")
    n = omega.degree
    coeffs = tuple(c * t ** (1.0 - j / n) for j, c in enumerate(omega.coeffs))
    return DispersionRelation(coeffs, drift=omega.drift, phase_rate=omega.phase_rate)


@dataclass(frozen=True)
class ScaledPhase:
    """Phi(z) = i(z - W(z)) with X factored out of the exponent."""

    sigma: float
    big_x: float            # X = |y| * s_f
    scale: float            # s_f = (|y|/t)^(1/(n-1))
    wcoeffs: tuple          # ascending coefficients of W

    @property
    def degree(self):
        return len(self.wcoeffs) - 1

    @property
    def leading(self):
        # equals omega_n sigma^n for any y, t
        return self.wcoeffs[-1]

    def phi(self, z):
        return 1j * (z - polyval(self.wcoeffs, z))

    def phi_rows(self, z):
        """phi row by row on a phase from scaled_phase_rows: row r of the
        (rows, ...) array z is taken at the phase's row r."""
        flat = z.reshape(len(z), -1)
        w = tuple(c[:, None] for c in self.wcoeffs)
        return (1j * (flat - polyval(w, flat))).reshape(z.shape)

    def dphi(self, z):
        return 1j * (1.0 - polyval(polyder(self.wcoeffs), z))

    def d2phi(self, z):
        return -1j * polyval(polyder(self.wcoeffs, 2), z)


def scaled_phase(omega, y, t):
    """ScaledPhase for the query (y, t); requires a finite y != 0 and a
    finite t > 0.  Raises DegeneratePhase when X or a coefficient of W is
    not finite (|y|/t past what the float range holds at this degree)."""
    if y == 0:
        raise ValueError("scaled phase undefined at y = 0")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be finite and positive")
    n = omega.degree
    sigma = 1.0 if y > 0 else -1.0
    w = [0j] * (n + 1)
    with np.errstate(all="ignore"):
        rho = abs(y) / t
        s_f = rho ** (1.0 / (n - 1))
        big_x = abs(y) * s_f
        try:
            for j, c in enumerate(omega.coeffs):
                if c != 0:
                    w[j] = (t / big_x) * c * (sigma * s_f) ** j
        except (OverflowError, ZeroDivisionError):    # numpy scalars give inf
            big_x = math.inf
    if not (math.isfinite(big_x) and all(map(cmath.isfinite, w))):
        raise DegeneratePhase(f"the scaled phase is not finite at |y|/t = {rho:.3g}")
    return ScaledPhase(sigma, big_x, s_f, tuple(w))


def scaled_phase_rows(omega, ys):
    """scaled_phase(omega, y, 1) for every y of a 1-D array of nonzero shapes
    at once: a ScaledPhase whose sigma, big_x, scale and coefficients of W
    are arrays with one entry per y, each as scaled_phase computes it.  A
    row where scaled_phase overflows keeps its non-finite entries, and
    stationary_point_rows gives it count 0."""
    n = omega.degree
    sigma = np.where(ys > 0, 1.0, -1.0)
    s_f = np.abs(ys) ** (1.0 / (n - 1))
    with np.errstate(all="ignore"):
        big_x = np.abs(ys) * s_f
        w = tuple((1.0 / big_x) * c * (sigma * s_f) ** j if c != 0 else np.zeros(len(ys), complex)
                  for j, c in enumerate(omega.coeffs))
    return ScaledPhase(sigma, big_x, s_f, w)


def take_rows(phase, rows):
    """The rows `rows` (an index array) of a ScaledPhase from scaled_phase_rows."""
    return ScaledPhase(phase.sigma[rows], phase.big_x[rows], phase.scale[rows],
                       tuple(c[rows] for c in phase.wcoeffs))


def expected_stationary_count(n, wlead):
    """Number of stationary points of Phi in the closed upper half plane.

    The n-1 roots of n*w*z^(n-1) = 1 sit on a circle; well-posedness pins how
    many land in Im z >= 0: n/2 for even n, (n +/- 1)/2 for odd n with
    sign(w) = +/- 1.  Lower-order terms perturb but cannot change the count
    while the phase is non-degenerate.
    """
    if n % 2 == 0:
        return n // 2
    return (n + 1) // 2 if wlead.real > 0 else (n - 1) // 2


def _polish(f, roots):
    """roots after two Newton steps on the polynomial f (ascending, scalar or
    column coefficients), skipping the roots where |f'| <= 1e-30; in place."""
    df = polyder(f)
    for _ in range(2):
        fz = polyval(f, roots)
        dfz = polyval(df, roots)
        ok = np.abs(dfz) > 1e-30
        roots[ok] -= fz[ok] / dfz[ok]
    return roots


def stationary_points(phase):
    """Stationary points of Phi in the closed UHP, counterclockwise from 0+.

    Solves W'(z) = 1 by companion matrix plus a couple of Newton polish
    steps.  Raises DegeneratePhase when two roots nearly collide or when the
    UHP count differs from the non-degenerate expectation (the usual cause:
    |y|/t too small for the scaling to separate the saddles).
    """
    dw = polyder(phase.wcoeffs)
    f = (dw[0] - 1.0,) + dw[1:]  # W'(z) - 1, ascending
    roots = _polish(f, np.roots(np.array(f[::-1], dtype=complex)))

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < COLLISION_TOL * max(1.0, abs(roots[i])):
                raise DegeneratePhase(
                    f"stationary points collide: {roots[i]} ~ {roots[j]}"
                )

    keep = [z for z in roots if z.imag >= -1e-12]
    want = expected_stationary_count(phase.degree, phase.leading)
    if len(keep) != want:
        raise DegeneratePhase(
            f"found {len(keep)} upper-half-plane stationary points, expected {want}"
        )
    keep = [complex(z.real, max(z.imag, 0.0)) for z in keep]
    keep.sort(key=lambda z: (math.atan2(z.imag, z.real), abs(z)))
    return keep


def stationary_point_rows(phase):
    """stationary_points for every row of a phase from scaled_phase_rows.

    One stacked eigenvalue call solves the companion matrices np.roots
    would build, then every row gets the same polish, collision check, count
    check and order.  Returns (points, count): points is (rows, n - 1), each
    row's count upper-half-plane points first, in stationary_points' order;
    count is 0 on the rows stationary_points would reject, and on the rows
    whose phase overflowed (scaled_phase raises there), whose points are
    those of a placeholder polynomial.
    """
    dw = polyder(phase.wcoeffs)
    f = tuple(c[:, None] for c in (dw[0] - 1.0,) + dw[1:])
    finite = np.isfinite(phase.big_x) & np.isfinite(np.concatenate(f, axis=1)).all(axis=1)
    f = tuple(np.where(finite[:, None], c, 1.0) for c in f)   # keeps eigvals off the overflow
    p = np.concatenate(f[::-1], axis=1)    # descending, as np.roots takes them
    rows, deg = p.shape[0], p.shape[1] - 1
    comp = np.zeros((rows, deg, deg), dtype=complex)
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, 0, :] = -p[:, 1:] / p[:, :1]
    roots = _polish(f, np.linalg.eigvals(comp))

    gap = np.abs(roots[:, :, None] - roots[:, None, :])
    near = gap < COLLISION_TOL * np.maximum(1.0, np.abs(roots))[:, :, None]
    collide = np.triu(near, 1).any(axis=(1, 2))
    keep = roots.imag >= -1e-12
    want = np.array([expected_stationary_count(phase.degree, w) for w in phase.leading.tolist()])
    count = np.where(finite & ~collide & (keep.sum(axis=1) == want), want, 0)
    roots.imag[roots.imag < 0.0] = 0.0    # max(imag, 0.0), which keeps -0.0
    angle = np.where(keep, np.arctan2(roots.imag, roots.real), np.inf)
    order = np.lexsort((np.abs(roots), angle), axis=1)
    return np.take_along_axis(roots, order, axis=1), count
