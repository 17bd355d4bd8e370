"""Riemann-map germs continued onto the log surface, with corner asymptotics.

The package realizes conformal-map germs at corners as holomorphic functions
on quadratic domains of the Riemann surface of the logarithm: it builds the
Schwarz-reflection continuation tower with explicit certified constants,
extracts generalized log-power expansions at the corner, verifies them as
numerical asymptotic certificates, and validates everything against
closed-form sector models and a Schwarz-Christoffel polygon solver.
"""

__version__ = "0.1.0"

from .exponents import Exponent, declare_generator, parse_exponent, rationality_class
from .series import LogPolynomial, LogPowerSeries, PURE_POWER, LOG_POWER, series_class
from .surface import (
    LPoint,
    QuadraticDomain,
    Sector,
    embed,
    log_L,
    mul_map,
    pow_L,
    pow_map,
    project,
    quad_contains,
    quad_intersect,
    reflect_tau,
)
from .corners import (
    AnalyticCorner,
    CornerSpec,
    DomainSpec,
    PuiseuxArc,
    TransformChain,
    corner_angle,
    invert_at_infinity,
    normalize_corner,
    singular_points,
)
from .powerseries import AnalyticFunc, PowerSeries
from .reflection import (
    CertifiedExtension,
    Extension,
    MapGerm,
    ReflectionTower,
    Reflector,
    build_chi,
    build_extension,
    build_tower,
    certify_quadratic_domain,
    schwarz_reflect,
)
from .expansion import (
    AsymptoticCertificate,
    ExpansionModel,
    SamplingPlan,
    dichotomy_check,
    error_tower_constants,
    fit_expansion,
    verify_asymptotic,
)
from .scmap import (
    MobiusTransform,
    SCPolygon,
    disk_automorphism,
    mobius_H_to_disk,
    model_corner_germ,
    normalize_at,
    sc_corner_germ,
    sc_evaluate,
    solve_sc,
)
