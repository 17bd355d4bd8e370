"""Riemann-map germs continued onto the log surface, with corner asymptotics.

The package realizes conformal-map germs at corners as holomorphic functions
on quadratic domains of the Riemann surface of the logarithm: it builds the
Schwarz-reflection continuation tower with explicit certified constants,
extracts generalized log-power expansions at the corner, verifies them as
numerical asymptotic certificates beside the remainder-constant ladder of the
proof, and validates everything against closed-form sector models and a
Schwarz-Christoffel polygon solver.

The names below are the ones the command line (``quasimap.cli``), the
benchmark and the README's contracts use; everything else is internal to its
module.
"""

__version__ = "0.1.0"

from .exponents import Exponent, parse_exponent, rationality_class
from .series import LogPowerSeries, zpow
from .surface import LPoint, QuadraticDomain
from .corners import CornerSpec, DomainSpec, PuiseuxArc, normalize_corner, singular_points
from .powerseries import AnalyticFunc, PowerSeries, series_power
from .reflection import (
    Extension,
    MapGerm,
    ReflectionTower,
    build_extension,
    build_tower,
    certify_quadratic_domain,
    sample_quadratic_domain,
)
from .expansion import (
    ExpansionModel,
    SamplingPlan,
    dichotomy_check,
    error_tower_constants,
    fit_expansion,
    verify_asymptotic,
)
from .scmap import MobiusTransform, model_corner_germ, sc_corner_germ, sc_evaluate, solve_sc
