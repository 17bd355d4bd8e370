"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py wraps package functions and methods by name from
outside; a renamed or inlined name would silently read 0 in its metric.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

from quasimap import expansion, reflection
from quasimap.exponents import parse_exponent
from quasimap.scmap import model_corner_germ, solve_sc
from quasimap.series import zpow
from quasimap.surface import LPoint, QuadraticDomain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        ext = reflection.build_extension(model_corner_germ(parse_exponent("1/2")), K=3)
        t3 = ext.positive.levels[3].t
        for phi in (6.5 * math.pi, 3.0 * math.pi, -5.0 * math.pi):
            ext.evaluate(LPoint(0.3 * t3, phi))
        alpha = parse_exponent("1/2")
        model = expansion.ExpansionModel(alpha, R=2.0 * alpha.value())
        plan = expansion.SamplingPlan(rho0=0.2, n_shells=4, points_per_shell=12)
        f = lambda pts: [zpow(p.log(), 0.5) for p in pts]
        expansion.fit_expansion(f, model, plan, domain=QuadraticDomain(0.5, 0.5))
        solve_sc([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], [Fraction(1, 2)] * 4)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for key in ("reflection.levels", "reflection.evaluate_calls", "surface.sector_calls", "surface.lpoints",
                "powerseries.newton_calls", "powerseries.reversion_calls", "expansion.samples", "scmap.quad_rules",
                "scmap.quad_nodes"):
        assert counts[key] > 0, key
