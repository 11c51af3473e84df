"""The benchmark's tracer wraps package functions by module attribute name.

These checks keep those names honest: every hook must exist, must be what
the package actually calls (so the tracer sees the routes), and must come
back untouched when the tracer is removed.
"""

import importlib.util
from pathlib import Path

import dispgibbs
import dispgibbs.cli  # noqa: F401  (the tracer wraps cli.eval_I and cli.solve)

HOOKS = {
    "special": ("eval_I", "normalize", "scaled_phase", "descent_system",
                "direct_contour", "integrate_contour"),
    "ivp": ("eval_I", "normalize"),
    "gibbs": ("eval_I",),
    "cli": ("eval_I", "solve"),
    "contour": ("stationary_points",),
    "quadrature": ("integrate_segment",),
}


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_both_routes_and_restores_every_hook():
    originals = {(mod, name): getattr(getattr(dispgibbs, mod), name)
                 for mod, names in HOOKS.items() for name in names}
    tracer = _tracer_module().Tracer()
    tracer.install(dispgibbs)
    try:
        for (mod, name), fn in originals.items():
            assert getattr(getattr(dispgibbs, mod), name) is not fn, (mod, name)
        dispgibbs.special.eval_I({2: 1}, 0, 1.0, 1.0)     # |s| = 1: direct
        dispgibbs.special.eval_I({2: 1}, 0, 8.0, 1.0)     # |s| = 8: descent
    finally:
        tracer.uninstall()
    counts = tracer.counters()
    assert counts["special.route_direct"] == 1
    assert counts["special.route_descent"] == 1
    assert counts["contour.direct_calls"] >= 1
    for (mod, name), fn in originals.items():
        assert getattr(getattr(dispgibbs, mod), name) is fn, (mod, name)
