"""Reference values the benchmark checks the package against.

Nothing here calls the package.  Closed forms cover the quadratic symbols
(error function) and the cubic monomials (Airy function and its integral);
`tests/_frozen.py` holds the 30-digit mpmath oracles the test suite uses.
"""

import cmath
import importlib.util
import math
from pathlib import Path

from scipy.integrate import quad
from scipy.special import airy, wofz

SQRT_PI = math.sqrt(math.pi)

# |got - ref| <= tol * (scale + |ref|), scale = u^m the canonical magnitude
# of I_m; 1e-8 is criterion 10's route-agreement tolerance and criterion 02's
# closed-form tolerance, 5e-13 is the frozen-value tolerance of the tests.
AGREE_TOL = 1e-8
FROZEN_TOL = 5e-13


def close(got, ref, scale=1.0, tol=AGREE_TOL):
    return abs(got - ref) <= tol * (scale + abs(ref))


def load_frozen(root):
    """FROZEN_I and FROZEN_KERNEL from tests/_frozen.py under the checkout."""
    path = Path(root) / "tests" / "_frozen.py"
    spec = importlib.util.spec_from_file_location("_bench_frozen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _erfc(z):
    """Complex erfc, accurate for |arg z| <= pi/4 (where exp(-z^2) is bounded)."""
    if z.real < 0:
        return 2.0 - _erfc(-z)
    return cmath.exp(-z * z) * complex(wofz(1j * z))


def quadratic(coeffs, m, y, t):
    """I_m for omega = c2 k^2 + c1 k + c0 and m in {-1, 0, 1}; None otherwise.

    With a = 1/(2 sqrt(i c2 t)): I_{-1} = a exp(-a^2 y^2)/sqrt(pi),
    I_0 = -erfc(a y)/2 and I_1 = (exp(-a^2 y^2)/(a sqrt(pi)) - y erfc(a y))/2,
    after the drift shift y -> y - c1 t and the phase factor exp(-i c0 t).
    """
    if max(coeffs) != 2 or m > 1:
        return None
    c2 = complex(coeffs[2])
    y = y - complex(coeffs.get(1, 0)).real * t
    phase = cmath.exp(-1j * complex(coeffs.get(0, 0)) * t)
    a = 1.0 / (2.0 * cmath.sqrt(1j * c2 * t))
    z = a * y
    if m == -1:
        val = a * cmath.exp(-z * z) / SQRT_PI
    elif m == 0:
        val = -0.5 * _erfc(z)
    else:
        val = 0.5 * (cmath.exp(-z * z) / (a * SQRT_PI) - y * _erfc(z))
    return phase * val


def _ai(x):
    return float(airy(x)[0])


def _airy_cdf(v):
    """F(v) = int_{-inf}^v Ai, using int_{-inf}^0 Ai = 2/3.

    Ai has fallen below 1e-40 thirty units right of the origin, so the
    right tail is a finite integral.
    """
    if v >= 0:
        return 1.0 - quad(_ai, v, v + 30.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return 2.0 / 3.0 - quad(_ai, v, 0.0, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def cubic(coeffs, m, y, t, vmax=20.0):
    """I_m for the monomial omega = c k^3 (c real) and m in {-1, 0}; else None.

    With b = (3|c|t)^(1/3) and v = -sign(c) y / b: I_{-1} = Ai(v)/b, and
    I_0 = F(v) - 1 for c < 0, -F(v) for c > 0.  Left out past |v| = vmax,
    where the oscillatory left tail makes quad slow.
    """
    if set(coeffs) != {3} or m > 0 or complex(coeffs[3]).imag != 0:
        return None
    c = complex(coeffs[3]).real
    b = (3.0 * abs(c) * t) ** (1.0 / 3.0)
    v = -math.copysign(1.0, c) * y / b
    if abs(v) > vmax:
        return None
    if m == -1:
        return complex(float(airy(v)[0]) / b)
    return complex(_airy_cdf(v) - 1.0 if c < 0 else -_airy_cdf(v))


def closed_form(coeffs, m, y, t):
    """Closed-form I_m where one is known for this query, else None."""
    if t == 0:   # the jump data itself: -y^m/m! left of the jump, 0 right
        return 0j if y > 0 else complex(-(y ** m) / math.factorial(m))
    ref = quadratic(coeffs, m, y, t)
    return cubic(coeffs, m, y, t) if ref is None else ref


def gibbs_constant():
    """g = Si(pi)/pi - 1/2."""
    from scipy.special import sici
    return float(sici(math.pi)[0]) / math.pi - 0.5


def overshoot_n3():
    """sup_re and its location for G_3 = I_{k^3,0}(y,1) + 1.

    G_3(y) = 1 - F(-y/3^(1/3)) peaks where Ai vanishes first, v = a_1:
    sup_re = 1 - F(a_1), at y = -a_1 3^(1/3).
    """
    from scipy.special import ai_zeros
    a1 = float(ai_zeros(1)[0][0])
    return 1.0 - _airy_cdf(a1), -a1 * 3.0 ** (1.0 / 3.0)
