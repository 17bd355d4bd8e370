"""Semianalytic boundary model: Puiseux arcs, corners, and their normalization.

An arc germ at a vertex is a convergent parametrization

    phi(t) = sum_{j >= m}  c_j t^j,        c_m != 0,  t in [0, rho),

optionally coming from the graph form (t^d, chi(t)) of a one-variable Puiseux
branch.  The discrete invariants (multiplicity m, ramification d) are exact on
the supplied jets; coefficient values are complex doubles.

A corner is two arc germs at a common vertex together with an exact interior
angle (a rational or declared-irrational multiple of pi) measured
counterclockwise from arc1 to arc2 through the interior.  The normalization
pipeline reduces any such corner to an analytic corner (both arcs regular,
first arc a piece of the negative real axis) through

    step 0   reparametrize arc2 by t -> t^(m1) so m1 divides its multiplicity,
    step 1   take the m1-th root (angle divides by m1),
    step 2   postcompose with -(arc1 chart)^(-1) (straightens arc1 into R<=0),
    step 3   take the remaining m2-th root and rotate back onto R<=0.

The returned :class:`TransformChain` records the elementary maps (the root
orders, the chart of the first arc and its reversion, the final rotation) and
keeps the exact angle ledger final_angle * m1 * m2 = original_angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import CuspAngleZero, InversionFailure, malformed
from .exponents import Exponent, declare_generator, exact_or_float, value_of
from .powerseries import AnalyticFunc, PowerSeries, series_power


class PuiseuxArc:
    """Arc germ phi(t) = sum c_j t^j at a vertex, with exact m and d."""

    rho = 1.0  # every arc is parametrized on t in [0, 1)

    def __init__(self, coeffs, d: int = 1, vertex: complex = 0j):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs or all(c == 0 for c in cs):
            raise ValueError("arc parametrization must be nonzero")
        if cs[0] != 0:
            raise ValueError("arc must pass through its vertex: phi(0) = 0 locally")
        self.coeffs = cs
        self.d = int(d)
        self.vertex = complex(vertex)

    @property
    def multiplicity(self) -> int:
        for j, c in enumerate(self.coeffs):
            if c != 0:
                return j
        raise ValueError("zero arc")

    @property
    def leading(self) -> complex:
        return self.coeffs[self.multiplicity]

    def tangent_arg(self) -> float:
        """Direction in which the arc leaves the vertex."""
        return cmath.phase(self.leading)

    def eval(self, t):
        return PowerSeries(self.coeffs)(t) + self.vertex

    def reparametrized_power(self, p: int) -> "PuiseuxArc":
        """Same arc set, parametrized by t -> t^p."""
        cs = [0j] * ((len(self.coeffs) - 1) * p + 1)
        for j, c in enumerate(self.coeffs):
            cs[j * p] = c
        return PuiseuxArc(cs, d=self.d, vertex=self.vertex)

    def same_germ(self, other: "PuiseuxArc") -> bool:
        """Same arc set with the same jet, to 1e-12, after leading-coefficient normalization."""
        if self.d != other.d or self.multiplicity != other.multiplicity:
            return False
        a, b = np.array(self.coeffs), np.array(other.coeffs)
        m = self.multiplicity
        # scale parameters so the leading coefficients agree in modulus
        lam = (abs(other.leading) / abs(self.leading)) ** (1.0 / m)
        a = a * lam ** np.arange(len(a))
        n = max(len(a), len(b))
        a = np.pad(a, (0, n - len(a)))
        b = np.pad(b, (0, n - len(b)))
        return bool(np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b))))

    def __repr__(self):
        return f"PuiseuxArc(m={self.multiplicity}, d={self.d}, coeffs={self.coeffs!r})"


@dataclass
class CornerSpec:
    """Two arc germs at a vertex with their interior angle.

    ``interior_angle`` is angle/pi.  A declared angle, an :class:`Exponent` (or
    a bare float for numeric-only corners), is kept as given.  Left out, it is
    measured from the tangents and snapped to the rational p/q with q <= 720
    within 1e-12, where one lies that close, else kept as the measured float.
    The angle is measured counterclockwise from arc1 to arc2 through the
    interior, from arc1's tangent at its principal argument.
    """

    arc1: PuiseuxArc
    arc2: PuiseuxArc
    vertex: complex = 0j
    interior_angle: object = None  # Exponent | float; None is measured

    def __post_init__(self):
        if self.interior_angle is None:
            self.interior_angle = _snap_rational_angle(measured_angle_over_pi(self.arc1, self.arc2))


def angle_json(angle) -> object:
    """An angle/pi for JSON: an Exponent's own form, else the float."""
    return angle.to_json() if isinstance(angle, Exponent) else float(angle)


def _tangent_gap(arc1: PuiseuxArc, arc2: PuiseuxArc) -> float:
    """Raw ccw tangent gap from arc1 to arc2 in [0, 2), as a multiple of pi."""
    gap = (arc2.tangent_arg() - arc1.tangent_arg()) / math.pi
    gap %= 2.0
    if min(gap, 2.0 - gap) < 1e-12:
        gap = 0.0
    return gap


def measured_angle_over_pi(arc1: PuiseuxArc, arc2: PuiseuxArc) -> float:
    """Tangent gap with tangential pairs resolved: coinciding germs wrap to 2."""
    gap = _tangent_gap(arc1, arc2)
    if gap == 0.0:
        gap = 2.0 if arc1.same_germ(arc2) else 0.0
    return gap


# -- domains ---------------------------------------------------------------------


def _snap_rational_angle(gap: float):
    """Snap a measured angle/pi to a rational with denominator <= 720 within 1e-12, else keep the float."""
    fr = Fraction(gap).limit_denominator(720)
    if abs(float(fr) - gap) < 1e-12:
        return Exponent(fr)
    return gap


@dataclass
class CornerSite:
    """All germ components of a domain at one boundary point."""

    vertex: complex
    components: list  # list[CornerSpec]


@dataclass
class DomainSpec:
    """Boundary model of a bounded domain: corner sites carrying explicit germ components."""

    sites: list = field(default_factory=list)

    @classmethod
    def from_polygon(cls, vertices) -> "DomainSpec":
        """Polygon, vertices in counterclockwise order, read as the flat arc list of its edges.

        Vertices in clockwise order (signed area not positive) raise ValueError.
        """
        vs = [v if isinstance(v, complex) else complex(v[0], v[1]) for v in vertices]
        require_counterclockwise(vs)
        arcs = [
            {"vertex": [w.real, w.imag], "coeffs": [[0.0, 0.0], [(to - w).real, (to - w).imag]]}
            for k, w in enumerate(vs)
            for to in (vs[(k + 1) % len(vs)], vs[k - 1])
        ]
        return cls._from_flat_arcs(arcs)

    def to_json(self) -> dict:
        sites = []
        for s in self.sites:
            comps = []
            for c in s.components:
                comps.append(
                    {
                        "arc1": {"d": c.arc1.d, "coeffs": [[z.real, z.imag] for z in c.arc1.coeffs]},
                        "arc2": {"d": c.arc2.d, "coeffs": [[z.real, z.imag] for z in c.arc2.coeffs]},
                        "angle_over_pi": angle_json(c.interior_angle),
                    }
                )
            sites.append({"vertex": [s.vertex.real, s.vertex.imag], "components": comps})
        return {"sites": sites}

    @classmethod
    def from_json(cls, data: dict) -> "DomainSpec":
        """Domain from decoded JSON; a malformed section, or one that makes the
        domain unbounded, raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"domain JSON must be an object, got {type(data).__name__}")
        _require_bounded(data, "bounded", True)
        with malformed("irrational_generators"):
            for name, value in data.get("irrational_generators", {}).items():
                declare_generator(name, value)
        if "polygon" in data:
            with malformed("polygon"):
                return cls.from_polygon(data["polygon"])
        if "arcs" in data:
            with malformed("arcs"):
                return cls._from_flat_arcs(data["arcs"])
        sites = []
        with malformed("sites"):
            for s in data["sites"]:
                _require_bounded(s, "at_infinity", False)
                vertex = _point(s["vertex"])
                comps = [
                    CornerSpec(_arc(c["arc1"], vertex), _arc(c["arc2"], vertex), vertex, _angle(c.get("angle_over_pi")))
                    for c in s["components"]
                ]
                sites.append(CornerSite(vertex, comps))
        return cls(sites)

    @classmethod
    def _from_flat_arcs(cls, arcs) -> "DomainSpec":
        """Flat schema: arcs listed with their vertex; consecutive arcs at the
        same vertex pair up into germ components in listed order, each taking
        the angle of its first arc."""
        listed = []
        for a in arcs:
            vertex = _point(a["vertex"])
            listed.append((vertex, _arc(a, vertex), _angle(a.get("angle_over_pi"))))
        sites = []
        for vertex, group in groupby(listed, key=itemgetter(0)):
            group = list(group)
            if len(group) % 2:
                raise ValueError(f"odd number of arcs at vertex {vertex}")
            comps = [CornerSpec(a1, a2, vertex, angle) for (_, a1, angle), (_, a2, _) in zip(group[::2], group[1::2])]
            sites.append(CornerSite(vertex, comps))
        return cls(sites)


def require_counterclockwise(vertices: list) -> None:
    """Raise ValueError unless the polygon's signed (shoelace) area is positive, i.e. its vertices run counterclockwise."""
    area = 0.5 * sum((a.conjugate() * b).imag for a, b in zip(vertices, vertices[1:] + vertices[:1]))
    if not area > 0:
        raise ValueError(f"polygon vertices must run counterclockwise, but their signed area is {area:.6g}")


def _require_bounded(data: dict, key: str, value: bool) -> None:
    """Refuse a key that would make the domain unbounded: it may be absent or hold ``value``."""
    if data.get(key, value) is not value:
        raise ValueError(f"{key!r} must be {str(value).lower()} (the domain must be bounded), got {data[key]!r}")


def _point(xy) -> complex:
    return complex(xy[0], xy[1])


def _arc(data: dict, vertex: complex) -> PuiseuxArc:
    """One arc germ of domain JSON: its coeffs as [re, im] pairs, d (default 1),
    and an optional multiplicity m that must match the jet's."""
    arc = PuiseuxArc([_point(c) for c in data["coeffs"]], d=data.get("d", 1), vertex=vertex)
    if "m" in data and arc.multiplicity != data["m"]:
        raise ValueError(f"declared multiplicity {data['m']} != jet multiplicity {arc.multiplicity}")
    return arc


def _angle(data):
    """A declared angle/pi of domain JSON: an Exponent object, a number, or None to measure it."""
    if data is None:
        return None
    return Exponent.from_json(data) if isinstance(data, dict) else float(data)


def singular_points(domain: DomainSpec):
    """Boundary points where the boundary fails to be an analytic manifold.

    Returns [(vertex, [angle of each singular germ component])].  A component
    is smooth exactly when its angle is pi and the two arcs glue to one
    analytic arc through the vertex.
    """
    out = []
    for site in domain.sites:
        angles = []
        for comp in site.components:
            gap = measured_angle_over_pi(comp.arc1, comp.arc2)
            declared = comp.interior_angle
            if abs(gap - 1.0) < 1e-9 and abs(value_of(declared) - 1.0) < 1e-9:
                if _arcs_glue_analytically(comp.arc1, comp.arc2):
                    continue
            angles.append(declared)
        if angles:
            out.append((site.vertex, angles))
    return out


def _arcs_glue_analytically(arc1: PuiseuxArc, arc2: PuiseuxArc) -> bool:
    """Do the two regular arcs form one analytic curve through the vertex?

    Rotate arc1's tangent onto the positive real axis; each arc becomes a graph
    y = h(x) on its side of 0.  The curve is analytic iff the h-jets agree, to
    order 8 and within 1e-9.
    """
    order = 8
    if arc1.multiplicity != 1 or arc2.multiplicity != 1:
        return False
    rot = cmath.exp(-1j * arc1.tangent_arg())
    jets = []
    for arc in (arc1, arc2):
        w = np.zeros(order + 1, dtype=complex)
        cs = np.array(arc.coeffs[: order + 1], dtype=complex) * rot
        w[: len(cs)] = cs
        x = PowerSeries(np.real(w), 1.0)
        y = PowerSeries(np.imag(w) + 0j, 1.0)
        try:
            t_of_x = x.reversion(order=order, out_scale=1.0)
        except InversionFailure:
            return False
        h = y.compose(t_of_x, order=order)
        jets.append(np.pad(h.unscaled(), (0, order - h.order)))
    scale = max(1.0, float(np.max(np.abs(jets[0]))), float(np.max(np.abs(jets[1]))))
    return bool(np.max(np.abs(jets[0] - jets[1])) <= 1e-9 * scale)


# -- corner normalization -------------------------------------------------------------


@dataclass
class AnalyticCorner:
    """Regular-arc corner: arc1 inside R_{<=0}, exact angle."""

    arc1: AnalyticFunc
    arc2: AnalyticFunc
    angle: object  # Exponent | float


class TransformChain:
    """The elementary maps of the corner normalization, with exact bookkeeping.

    forward:  w  ->  rho * ( -(phi1_root)^(-1)( w^(1/m1) ) )^(1/m2)
    inverse:  w3 ->  ( phi1_root( -(rho^(-1) w3)^(m2) ) )^(m1)
    """

    def __init__(self, m1: int, m2: int, phi1_root: PowerSeries, rev1: PowerSeries, rho: complex, original_angle):
        self.m1 = int(m1)
        self.m2 = int(m2)
        self.phi1_root = phi1_root
        self.rev1 = rev1
        self.rho = complex(rho)
        self.original_angle = exact_or_float(original_angle)

    @property
    def final_angle(self):
        return self.original_angle / (self.m1 * self.m2)

    def angle_ledger_exact(self) -> bool:
        return self.final_angle * (self.m1 * self.m2) == self.original_angle


# order of the root, reversion and composition series of the normalization
NORMALIZE_ORDER = 30


def normalize_corner(corner: CornerSpec) -> tuple[AnalyticCorner, TransformChain]:
    """Reduce a Puiseux corner to an analytic corner (Definition-style regular arcs).

    Returns the normalized corner and the transform chain realizing it.  The
    exact ledger final_angle * m1 * m2 = original_angle holds by construction.
    """
    angle = corner.interior_angle
    if value_of(angle) <= 0:
        raise CuspAngleZero("cannot normalize a cusp")
    m1 = corner.arc1.multiplicity
    arc2 = corner.arc2.reparametrized_power(m1) if m1 > 1 else corner.arc2
    m2 = arc2.multiplicity // m1 if m1 > 1 else arc2.multiplicity
    theta1 = corner.arc1.tangent_arg()
    theta2 = theta1 + value_of(angle) * math.pi

    # step 1: m1-th root of both arcs
    phi1_root = _arc_root(corner.arc1, m1, theta1, NORMALIZE_ORDER)
    phi2_root = _arc_root(arc2, m1, theta2, NORMALIZE_ORDER)  # multiplicity m2 now

    # step 2: straighten arc1 with the inverse chart of phi1_root.  The chain trusts it on its Koebe disk, but
    # arc2 reaches past that disk, so the inverse is made and cut on the disk of arc2's reach, |phi2_root| < reach
    koebe = abs(phi1_root.coeffs[1]) / 4.0
    reach = float(np.sum(np.abs(phi2_root.coeffs[: NORMALIZE_ORDER + 1])))
    inv1 = phi1_root.reversion(order=NORMALIZE_ORDER, out_scale=max(koebe, reach))
    rev1 = PowerSeries(inv1.coeffs, inv1.scale, koebe)
    _check_reversion_converges(rev1)
    arc2_straight = inv1.compose(phi2_root, order=NORMALIZE_ORDER).scaled_by(-1.0)

    # step 3: m2-th root and rotation back onto R_{<=0}
    theta2_here = theta2 / m1 - theta1 / m1 + math.pi  # lifted tangent of arc2_straight
    arc2_series = _series_root(arc2_straight, m2, theta2_here, NORMALIZE_ORDER)
    rho = cmath.exp(1j * math.pi * (1.0 - 1.0 / m2)) if m2 > 1 else 1.0 + 0j
    arc2_series = arc2_series.scaled_by(rho)

    chain = TransformChain(m1, m2, phi1_root, rev1, rho, angle)
    arc1_norm = AnalyticFunc(PowerSeries.linear(-1.0, radius=rev1.radius))
    normalized = AnalyticCorner(arc1_norm, AnalyticFunc(arc2_series), chain.final_angle)
    return normalized, chain


def _arc_root(arc: PuiseuxArc, m: int, theta_lift: float, order: int) -> PowerSeries:
    """(arc parametrization)^(1/m) as a power series, branch fixed by the lifted tangent."""
    mult = arc.multiplicity
    if mult % m != 0:
        raise ValueError("root does not divide the arc multiplicity")
    ps = PowerSeries.from_unscaled(arc.coeffs, scale=1.0, radius=arc.rho)
    return _series_root(ps, m, theta_lift, order)


def _series_root(ps: PowerSeries, m: int, theta_lift: float, order: int) -> PowerSeries:
    """m-th root of z^mult * unit(z) with mult divisible by m; branch from theta_lift."""
    u = ps.unscaled()
    mult = 0
    while mult < len(u) and u[mult] == 0:
        mult += 1
    if mult % m != 0:
        raise ValueError("multiplicity not divisible by the root order")
    unit = u[mult:]
    c0 = unit[0]
    out = series_power(unit / c0, 1.0 / m, order)
    lead = abs(c0) ** (1.0 / m) * cmath.exp(1j * theta_lift / m)
    root = out * lead
    full = np.zeros(mult // m + order + 1, dtype=complex)
    full[mult // m : mult // m + order + 1] = root
    return PowerSeries.from_unscaled(full, scale=1.0, radius=ps.radius)


def _check_reversion_converges(rev: PowerSeries) -> None:
    cs = np.abs(rev.coeffs) * (rev.radius / rev.scale) ** np.arange(len(rev.coeffs))
    if len(cs) > 8 and np.max(cs[-4:]) > 1e6 * max(1.0, np.max(cs[:4])):
        raise InversionFailure("inverse chart series diverges at working precision")
