"""Dispersive Gibbs toolkit.

Evaluates the jump-response contour integrals I_{omega,m}(y,t) of linear
dispersive equations i q_t - omega(-i d_x) q = 0, solves them exactly for
compactly supported piecewise-polynomial initial data, and quantifies the
dispersive Gibbs overshoot next to the classical Fourier one.
"""

from .dispersion import (DegeneratePhase, DispersionRelation, IllPosed,
                         InvalidDispersion, ScaledPhase, format_omega,
                         normalize, parse_omega, rescaled, scaled_phase,
                         stationary_points)
from .quadrature import (NoConvergence, NonFinite, clenshaw_curtis_rule,
                         integrate_contour, integrate_segment)
from .contour import (Contour, Segment, decay_directions, descent_system,
                      direct_contour, pole_avoiding_contour, validate_descent)
from .special import (AsymptoticValue, asymptotic_I, eval_E, eval_I,
                      eval_I_grid, eval_kernel, ode_residual, residue_part)
from .ivp import (NotAJump, PiecewisePolynomialIC, PieceTooShallow, box,
                  jump_decomposition, rescaled_profile, smoothed_box, solve,
                  taylor_away, tent)
from .gibbs import (OvershootReport, fourier_gibbs_reference, overshoot,
                    overshoot_table, wilbraham_gibbs_constant)

__version__ = "0.1.0"

__all__ = [
    "DispersionRelation", "InvalidDispersion", "IllPosed", "DegeneratePhase",
    "normalize", "parse_omega", "format_omega", "rescaled",
    "ScaledPhase", "scaled_phase", "stationary_points",
    "NoConvergence", "NonFinite", "integrate_contour", "integrate_segment",
    "clenshaw_curtis_rule",
    "Segment", "Contour", "pole_avoiding_contour", "direct_contour",
    "descent_system", "validate_descent", "decay_directions",
    "eval_I", "eval_I_grid", "eval_E", "eval_kernel", "residue_part",
    "asymptotic_I", "AsymptoticValue", "ode_residual",
    "PiecewisePolynomialIC", "NotAJump", "PieceTooShallow", "box", "tent",
    "smoothed_box", "jump_decomposition",
    "solve", "taylor_away", "rescaled_profile",
    "OvershootReport", "overshoot", "overshoot_table",
    "wilbraham_gibbs_constant", "fourier_gibbs_reference",
    "__version__",
]
