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

The returned :class:`TransformChain` applies the same elementary maps to
points and to generalized log-power series, and keeps the exact angle ledger
final_angle * m1 * m2 = original_angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CuspAngleZero, InversionFailure, RequiresTranslation, malformed
from .exponents import Exponent
from .powerseries import AnalyticFunc, PowerSeries, series_power
from .series import LogPowerSeries, LogPolynomial


class PuiseuxArc:
    """Arc germ phi(t) = sum c_j t^j at a vertex, with exact m and d."""

    def __init__(self, coeffs, d: int = 1, vertex: complex = 0j, rho: float = 1.0):
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
        self.rho = float(rho)

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
        return PuiseuxArc(cs, d=self.d, vertex=self.vertex, rho=self.rho ** (1.0 / p))

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
    """Two arc germs at a vertex with an exact interior angle.

    ``interior_angle`` is angle/pi as an :class:`Exponent` (or a bare float for
    numeric-only corners).  The angle is measured counterclockwise from arc1 to
    arc2 through the interior; ``tangent_lift`` optionally pins the lifted
    direction of arc1 (defaults to its principal argument).
    """

    arc1: PuiseuxArc
    arc2: PuiseuxArc
    vertex: complex = 0j
    interior_angle: object = None  # Exponent | float | None
    tangent_lift: float | None = None

    def __post_init__(self):
        if self.interior_angle is None:
            self.interior_angle = measured_angle_over_pi(self.arc1, self.arc2)

    @property
    def theta1(self) -> float:
        return self.arc1.tangent_arg() if self.tangent_lift is None else self.tangent_lift

    @property
    def theta2(self) -> float:
        return self.theta1 + _angle_value(self.interior_angle) * math.pi


def _angle_value(angle) -> float:
    if isinstance(angle, Exponent):
        return angle.value()
    return float(angle)


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


def corner_angle(corner: CornerSpec):
    """Exact interior angle of the corner (angle/pi); cusps raise.

    The declared exact angle is validated against the measured tangent gap.
    Tangential arc pairs carry either the full wrap (2 pi, e.g. a slit tip) or
    a cusp; cusps are excluded everywhere downstream and raise.
    """
    declared = corner.interior_angle
    dv = _angle_value(declared)
    if dv <= 0.0:
        raise CuspAngleZero("interior angle 0 at the corner")
    gap = _tangent_gap(corner.arc1, corner.arc2)
    if gap == 0.0:
        if abs(dv - 2.0) <= 1e-9:
            return declared
        raise CuspAngleZero("arcs mutually tangent with declared angle below 2*pi (cusp)")
    if min(abs(gap - dv) % 2.0, 2.0 - abs(gap - dv) % 2.0) > 1e-9:
        raise ValueError(f"declared angle {dv}*pi inconsistent with measured {gap}*pi")
    return declared


# -- domains ---------------------------------------------------------------------


@dataclass
class CornerSite:
    """All germ components of a domain at one boundary point."""

    vertex: complex
    components: list  # list[CornerSpec]
    at_infinity: bool = False


@dataclass
class DomainSpec:
    """Boundary model: corner sites carrying explicit germ components."""

    bounded: bool
    sites: list = field(default_factory=list)

    @classmethod
    def from_polygon(cls, vertices) -> "DomainSpec":
        """Bounded polygon, vertices in counterclockwise order."""
        vs = [complex(v[0], v[1]) if not isinstance(v, complex) else v for v in vertices]
        n = len(vs)
        sites = []
        for k, w in enumerate(vs):
            nxt, prv = vs[(k + 1) % n], vs[(k - 1) % n]
            arc1 = PuiseuxArc([0, nxt - w], vertex=w)
            arc2 = PuiseuxArc([0, prv - w], vertex=w)
            gap = measured_angle_over_pi(arc1, arc2)
            angle = _snap_rational_angle(gap)
            sites.append(CornerSite(w, [CornerSpec(arc1, arc2, w, angle)]))
        return cls(bounded=True, sites=sites)

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
            sites.append(
                {
                    "vertex": [s.vertex.real, s.vertex.imag],
                    "at_infinity": s.at_infinity,
                    "components": comps,
                }
            )
        return {"bounded": self.bounded, "sites": sites}

    @classmethod
    def from_json(cls, data: dict) -> "DomainSpec":
        """Domain from decoded JSON; a malformed section raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"domain JSON must be an object, got {type(data).__name__}")
        if "polygon" in data:
            with malformed("polygon"):
                return cls.from_polygon(data["polygon"])
        if "arcs" in data:
            with malformed("arcs"):
                return cls._from_flat_arcs(data)
        sites = []
        with malformed("sites"):
            for s in data["sites"]:
                vertex = complex(s["vertex"][0], s["vertex"][1])
                comps = []
                for c in s["components"]:
                    arc1 = PuiseuxArc([complex(re, im) for re, im in c["arc1"]["coeffs"]], d=c["arc1"].get("d", 1), vertex=vertex)
                    arc2 = PuiseuxArc([complex(re, im) for re, im in c["arc2"]["coeffs"]], d=c["arc2"].get("d", 1), vertex=vertex)
                    ang = c.get("angle_over_pi")
                    if isinstance(ang, dict):
                        ang = Exponent.from_json(ang)
                    comps.append(CornerSpec(arc1, arc2, vertex, ang))
                sites.append(CornerSite(vertex, comps, at_infinity=s.get("at_infinity", False)))
        return cls(bounded=data.get("bounded", True), sites=sites)

    @classmethod
    def _from_flat_arcs(cls, data: dict) -> "DomainSpec":
        """Flat schema: arcs listed with their vertex; consecutive arcs at the
        same vertex pair up into germ components in listed order."""
        from .exponents import declare_generator

        for name, value in data.get("irrational_generators", {}).items():
            declare_generator(name, value)
        arcs = []
        for a in data["arcs"]:
            vertex = complex(a["vertex"][0], a["vertex"][1])
            coeffs = [complex(re, im) for re, im in a["coeffs"]]
            arc = PuiseuxArc(coeffs, d=a.get("d", 1), vertex=vertex)
            if "m" in a and arc.multiplicity != a["m"]:
                raise ValueError(f"declared multiplicity {a['m']} != jet multiplicity {arc.multiplicity}")
            ang = a.get("angle_over_pi")
            arcs.append((vertex, arc, Exponent.from_json(ang) if isinstance(ang, dict) else ang))
        sites = []
        i = 0
        while i < len(arcs):
            vertex = arcs[i][0]
            group = []
            while i < len(arcs) and arcs[i][0] == vertex:
                group.append(arcs[i])
                i += 1
            if len(group) % 2:
                raise ValueError(f"odd number of arcs at vertex {vertex}")
            comps = []
            for j in range(0, len(group), 2):
                _, a1, ang = group[j]
                _, a2, _ = group[j + 1]
                if ang is None:
                    ang = _snap_rational_angle(measured_angle_over_pi(a1, a2))
                comps.append(CornerSpec(a1, a2, vertex, ang))
            sites.append(CornerSite(vertex, comps))
        return cls(bounded=data.get("bounded", True), sites=sites)


def _snap_rational_angle(gap: float):
    """Snap a measured angle/pi to a rational with denominator <= 720 within 1e-12, else keep the float."""
    fr = Fraction(gap).limit_denominator(720)
    if abs(float(fr) - gap) < 1e-12:
        return Exponent(fr)
    return gap


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
            if abs(gap - 1.0) < 1e-9 and abs(_angle_value(declared) - 1.0) < 1e-9:
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
        jets.append(h.unscaled())
    scale = max(1.0, float(np.max(np.abs(jets[0]))), float(np.max(np.abs(jets[1]))))
    return bool(np.max(np.abs(jets[0] - jets[1])) <= 1e-9 * scale)


# -- inversion at infinity ----------------------------------------------------------

# series order of every arc germ that z -> 1/z re-expands
_INVERSION_ORDER = 12


class ArcToInfinity:
    """Arc escaping to infinity: phi(t) = t^(-p) * (c_0 + c_1 t + ...), t -> 0+."""

    def __init__(self, pole_order: int, coeffs):
        self.pole_order = int(pole_order)
        self.coeffs = [complex(c) for c in coeffs]
        if self.pole_order < 1 or self.coeffs[0] == 0:
            raise ValueError("need a genuine pole: p >= 1 and c_0 != 0")

    def inverted(self) -> PuiseuxArc:
        """Re-expansion of 1/phi as a Puiseux arc at 0."""
        order = _INVERSION_ORDER
        denom = np.zeros(order + 1, dtype=complex)
        cs = np.array(self.coeffs[: order + 1], dtype=complex)
        denom[: len(cs)] = cs
        inv = series_power(denom, -1.0, order)
        out = np.zeros(order + 1 + self.pole_order, dtype=complex)
        out[self.pole_order : self.pole_order + order + 1] = inv
        return PuiseuxArc(out, d=1, vertex=0j)


def _invert_finite_arc(arc: PuiseuxArc) -> PuiseuxArc:
    """Arc germ of 1/Omega at 1/v from the germ phi(t) = v + ... at v != 0.

    1/(v + psi(t)) - 1/v = -psi(t) / (v (v + psi(t))), a series division.
    """
    order = _INVERSION_ORDER
    v = arc.vertex
    if v == 0:
        raise RequiresTranslation("vertex at 0 cannot be inverted; translate first")
    psi = np.zeros(order + 1, dtype=complex)
    cs = np.array(arc.coeffs[: order + 1], dtype=complex)
    psi[: len(cs)] = cs
    denom = psi.copy()
    denom[0] = v * v  # v (v + psi) = v^2 + v psi
    denom[1:] *= v
    new = -np.convolve(psi, series_power(denom, -1.0, order))[: order + 1]
    return PuiseuxArc(new, d=arc.d, vertex=1.0 / v)


def invert_at_infinity(domain: DomainSpec, infinity_arcs, min_boundary_distance: float | None = None) -> DomainSpec:
    """Boundary model of 1/Omega: the germ at 0 realizes the angle at infinity.

    ``infinity_arcs`` lists (arc_out, arc_in) pairs of :class:`ArcToInfinity`
    for each germ component at infinity, ordered so the interior sits
    counterclockwise from the first inverted arc.  Finite corner sites map to
    sites at the inverted vertices; inversion is conformal away from 0, so
    their angle sets carry over unchanged.
    """
    if domain.bounded:
        raise ValueError("domain is bounded; nothing at infinity")
    if min_boundary_distance is not None and min_boundary_distance <= 0:
        raise RequiresTranslation("0 lies in the closure; translate the domain first")
    comps = []
    for arc_a, arc_b in infinity_arcs:
        inv_a, inv_b = arc_a.inverted(), arc_b.inverted()
        gap = measured_angle_over_pi(inv_a, inv_b)
        comps.append(CornerSpec(inv_a, inv_b, 0j, _snap_rational_angle(gap)))
    sites = [CornerSite(0j, comps)]
    for site in domain.sites:
        if site.at_infinity:
            continue
        mapped = []
        for c in site.components:
            a1 = _invert_finite_arc(c.arc1)
            a2 = _invert_finite_arc(c.arc2)
            mapped.append(CornerSpec(a1, a2, a1.vertex, c.interior_angle))
        sites.append(CornerSite(1.0 / site.vertex, mapped))
    return DomainSpec(bounded=True, sites=sites)


# -- corner normalization -------------------------------------------------------------


@dataclass
class AnalyticCorner:
    """Regular-arc corner: arc1 inside R_{<=0}, exact angle, lifted tangents."""

    arc1: AnalyticFunc
    arc2: AnalyticFunc
    angle: object  # Exponent | float
    theta1: float
    theta2: float

    @property
    def angle_radians(self) -> float:
        return _angle_value(self.angle) * math.pi


class TransformChain:
    """The elementary maps of the corner normalization, with exact bookkeeping.

    forward:  w  ->  rho * ( -(phi1_root)^(-1)( w^(1/m1) ) )^(1/m2)
    inverse:  w3 ->  ( phi1_root( -(rho^(-1) w3)^(m2) ) )^(m1)
    """

    def __init__(self, m1: int, m2: int, phi1_root: PowerSeries, rev1: PowerSeries, rho: complex, theta1: float, original_angle):
        self.m1 = int(m1)
        self.m2 = int(m2)
        self.phi1_root = phi1_root
        self.rev1 = rev1
        self.rho = complex(rho)
        self.theta1 = float(theta1)
        self.original_angle = original_angle

    # exact ledger ------------------------------------------------------------

    @property
    def final_angle(self):
        a = self.original_angle
        if isinstance(a, Exponent):
            return a / (self.m1 * self.m2)
        return float(a) / (self.m1 * self.m2)

    def angle_ledger_exact(self) -> bool:
        a = self.final_angle
        if isinstance(a, Exponent):
            return a * (self.m1 * self.m2) == self.original_angle
        return a * self.m1 * self.m2 == float(_angle_value(self.original_angle))

    # points --------------------------------------------------------------------

    def forward_point(self, w: complex, lift: float) -> complex:
        """Map a point of the original corner germ; ``lift`` is the lifted arg of w."""
        v, lift = _lifted_root(w, lift, self.m1)
        u = self.rev1(v)
        if v != 0:
            lift = lift + cmath.phase(u / v)
        u, lift = -u, lift + math.pi
        out, _ = _lifted_root(u, lift, self.m2)
        return self.rho * out

    def inverse_point(self, w3: complex) -> complex:
        return self.inverse_point_with_lift(w3, 0.0)[0]

    def inverse_point_with_lift(self, w3: complex, lift3: float) -> tuple[complex, float]:
        u2 = (w3 / self.rho) ** self.m2
        lift = (lift3 - cmath.phase(self.rho)) * self.m2
        # undo the forward chain's negation: back from the straightened wedge
        # [pi, pi + angle] into the chart wedge [0, angle]
        u = -u2
        lift -= math.pi
        v = self.phi1_root(u)
        if u != 0:
            lift += cmath.phase(v / u)
        return v**self.m1, lift * self.m1

    # series --------------------------------------------------------------------

    def inverse_series(self, g3: LogPowerSeries) -> LogPowerSeries:
        h = g3.scale(1.0 / self.rho).power(self.m2).scale(-1.0)
        outer = _integer_series(self.phi1_root)
        return outer.compose_power_substitute(h).power(self.m1)


def _lifted_root(w: complex, lift: float, m: int) -> tuple[complex, float]:
    if m == 1:
        return w, lift
    if w == 0:
        return 0j, lift / m
    mod = abs(w) ** (1.0 / m)
    arg = lift / m
    return cmath.rect(mod, arg), arg


def _integer_series(ps: PowerSeries) -> LogPowerSeries:
    terms = {}
    for n, a in enumerate(ps.unscaled()):
        if a != 0:
            terms[Exponent(n)] = LogPolynomial.constant(a)
    return LogPowerSeries(terms, r_max=ps.order)


def normalize_corner(corner: CornerSpec, order: int = 30) -> tuple[AnalyticCorner, TransformChain]:
    """Reduce a Puiseux corner to an analytic corner (Definition-style regular arcs).

    Returns the normalized corner and the transform chain realizing it.  The
    exact ledger final_angle * m1 * m2 = original_angle holds by construction.
    """
    angle = corner.interior_angle
    if _angle_value(angle) <= 0:
        raise CuspAngleZero("cannot normalize a cusp")
    m1 = corner.arc1.multiplicity
    arc2 = corner.arc2.reparametrized_power(m1) if m1 > 1 else corner.arc2
    m2 = arc2.multiplicity // m1 if m1 > 1 else arc2.multiplicity
    theta1 = corner.theta1
    theta2 = corner.theta2

    # step 1: m1-th root of both arcs
    phi1_root = _arc_root(corner.arc1, m1, theta1, order)
    phi2_root = _arc_root(arc2, m1, theta2, order)  # multiplicity m2 now

    # step 2: straighten arc1 with the inverse chart of phi1_root
    rev1 = phi1_root.reversion(order=order, out_scale=None)
    _check_reversion_converges(rev1)
    arc2_straight = rev1.compose(phi2_root, order=order).scaled_by(-1.0)

    # step 3: m2-th root and rotation back onto R_{<=0}
    theta2_here = theta2 / m1 - theta1 / m1 + math.pi  # lifted tangent of arc2_straight
    arc2_series = _series_root(arc2_straight, m2, theta2_here, order)
    rho = cmath.exp(1j * math.pi * (1.0 - 1.0 / m2)) if m2 > 1 else 1.0 + 0j
    arc2_series = arc2_series.scaled_by(rho)

    chain = TransformChain(m1, m2, phi1_root, rev1, rho, theta1, angle)
    final_angle = chain.final_angle
    theta2_final = math.pi + _angle_value(final_angle) * math.pi
    arc1_norm = AnalyticFunc(PowerSeries.linear(-1.0, scale=1.0, radius=rev1.radius), exact=lambda z: -np.asarray(z, dtype=complex))
    arc2_norm = AnalyticFunc(arc2_series)
    normalized = AnalyticCorner(arc1_norm, arc2_norm, final_angle, math.pi, theta2_final)
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
    cs = np.abs(rev.coeffs)
    if len(cs) > 8 and np.max(cs[-4:]) > 1e6 * max(1.0, np.max(cs[:4])):
        raise InversionFailure("inverse chart series diverges at working precision")
