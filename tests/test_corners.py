"""Boundary arcs, corner angles, singular points, and the normalization chain."""

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasimap.corners import (
    AnalyticCorner,
    CornerSite,
    CornerSpec,
    DomainSpec,
    PuiseuxArc,
    TransformChain,
    measured_angle_over_pi,
    normalize_corner,
    singular_points,
)
from quasimap.errors import CuspAngleZero, UnknownClass
from quasimap.exponents import (
    Exponent,
    IRRATIONAL_PI_MULTIPLE,
    RATIONAL_PI_MULTIPLE,
    rationality_class,
)
from quasimap.powerseries import PowerSeries
from quasimap.series import LogPolynomial, LogPowerSeries
from quasimap.surface import LPoint

from conftest import EXPONENT_POOL
from references import compose_untrimmed


# -- the normalization chain applied to points and series: the round-trip
# oracle for normalize_corner
#
#   forward:  w  ->  rho * ( -(phi1_root)^(-1)( w^(1/m1) ) )^(1/m2)
#   inverse:  w3 ->  ( phi1_root( -(rho^(-1) w3)^(m2) ) )^(m1)


def _lifted_root(w: complex, lift: float, m: int) -> tuple[complex, float]:
    if m == 1:
        return w, lift
    if w == 0:
        return 0j, lift / m
    mod = abs(w) ** (1.0 / m)
    arg = lift / m
    return cmath.rect(mod, arg), arg


def forward_point(chain: TransformChain, w: complex, lift: float) -> complex:
    """Map a point of the original corner germ; ``lift`` is the lifted arg of w."""
    v, lift = _lifted_root(w, lift, chain.m1)
    u = chain.rev1(v)
    if v != 0:
        lift = lift + cmath.phase(u / v)
    u, lift = -u, lift + math.pi
    out, _ = _lifted_root(u, lift, chain.m2)
    return chain.rho * out


def inverse_point_with_lift(chain: TransformChain, w3: complex, lift3: float) -> tuple[complex, float]:
    u2 = (w3 / chain.rho) ** chain.m2
    lift = (lift3 - cmath.phase(chain.rho)) * chain.m2
    # undo the forward chain's negation: back from the straightened wedge
    # [pi, pi + angle] into the chart wedge [0, angle]
    u = -u2
    lift -= math.pi
    v = chain.phi1_root(u)
    if u != 0:
        lift += cmath.phase(v / u)
    return v**chain.m1, lift * chain.m1


def inverse_point(chain: TransformChain, w3: complex) -> complex:
    return inverse_point_with_lift(chain, w3, 0.0)[0]


def _integer_series(ps: PowerSeries) -> LogPowerSeries:
    terms = {}
    for n, a in enumerate(ps.unscaled()):
        if a != 0:
            terms[Exponent(n)] = LogPolynomial.constant(a)
    return LogPowerSeries(terms, r_max=ps.order)


def inverse_series(chain: TransformChain, g3: LogPowerSeries) -> LogPowerSeries:
    h = g3.scale(1.0 / chain.rho).power(chain.m2).scale(-1.0)
    outer = _integer_series(chain.phi1_root)
    return outer.compose_power_substitute(h).power(chain.m1)


def segment_arc(direction: complex, vertex=0j) -> PuiseuxArc:
    return PuiseuxArc([0, direction], vertex=vertex)


def circle_arc_through_origin(center: complex, sign: int, n: int = 10) -> PuiseuxArc:
    """Arc of the circle |z - center| = |center| leaving 0, parametrized by angle."""
    coeffs = [0j]
    rho = abs(center)
    u = center / rho
    # z(t) = center - center * e^(i sign t) = -center * sum_(n>=1) (i sign t)^n / n!
    fact = 1.0
    for n_ in range(1, n + 1):
        fact *= n_
        coeffs.append(-center * (1j * sign) ** n_ / fact)
    return PuiseuxArc(coeffs)


class TestCornerAngle:
    """The pipeline measures a corner's angle from its tangents; a tangential pair
    is the full wrap when the germs coincide and a cusp (0) otherwise."""

    def test_slit_tip_wraps_to_two_pi(self):
        seg = segment_arc(-1.0, vertex=0.5)
        assert measured_angle_over_pi(seg, segment_arc(-1.0, vertex=0.5)) == 2.0
        assert CornerSpec(seg, segment_arc(-1.0, vertex=0.5), 0.5).interior_angle == Exponent(2)

    def test_tangent_circles_cusp(self):
        outer = circle_arc_through_origin(1.0, +1)
        inner = circle_arc_through_origin(0.5, +1)
        assert measured_angle_over_pi(outer, inner) == 0.0
        with pytest.raises(CuspAngleZero):
            normalize_corner(CornerSpec(outer, inner, 0j))

    def test_straight_quarter_corner(self):
        assert measured_angle_over_pi(segment_arc(1.0), segment_arc(1j)) == 0.5


class TestRationality:
    def test_rational(self):
        assert rationality_class(Exponent(Fraction(1, 2))) == RATIONAL_PI_MULTIPLE

    def test_declared_irrational(self):
        assert rationality_class(Exponent.generator("sqrt2")) == IRRATIONAL_PI_MULTIPLE

    def test_bare_float_is_unknown(self):
        with pytest.raises(UnknownClass):
            rationality_class(0.7071)


def slit_disk_domain() -> DomainSpec:
    """Unit disk with the segment [-1/2, 1/2] removed."""
    sites = []
    for tip, inward in ((0.5 + 0j, -1.0), (-0.5 + 0j, 1.0)):
        seg = segment_arc(inward, vertex=tip)
        sites.append(CornerSite(tip, [CornerSpec(seg, segment_arc(inward, vertex=tip), tip, Exponent(2))]))
    # a marked point on the circle, where the two circle halves meet smoothly
    up = PuiseuxArc([0] + [-((1j) ** n) / math.factorial(n) for n in range(1, 9)], vertex=1.0)
    down = PuiseuxArc([0] + [-((-1j) ** n) / math.factorial(n) for n in range(1, 9)], vertex=1.0)
    sites.append(CornerSite(1.0 + 0j, [CornerSpec(up, down, 1.0, Exponent(1))]))
    return DomainSpec(sites=sites)


class TestSingularPoints:
    def test_square_has_four_right_angles(self):
        square = DomainSpec.from_polygon([(1, 1), (-1, 1), (-1, -1), (1, -1)])
        got = singular_points(square)
        assert len(got) == 4
        for _, angles in got:
            assert angles == [Exponent(Fraction(1, 2))]

    def test_flat_vertex_is_not_singular(self):
        # collinear vertex in the middle of the bottom edge
        poly = DomainSpec.from_polygon([(1, 1), (-1, 1), (-1, -1), (0, -1), (1, -1)])
        got = singular_points(poly)
        assert len(got) == 4
        assert all(abs(p - 0 + 1j) != 0 for p, _ in got)
        assert (0 - 1j) not in [p for p, _ in got]

    def test_slit_disk(self):
        got = singular_points(slit_disk_domain())
        points = sorted(p.real for p, _ in got)
        assert points == [-0.5, 0.5]
        for _, angles in got:
            assert angles == [Exponent(2)]

    def test_smooth_disk_is_empty(self):
        up = PuiseuxArc([0] + [-((1j) ** n) / math.factorial(n) for n in range(1, 9)], vertex=1.0)
        down = PuiseuxArc([0] + [-((-1j) ** n) / math.factorial(n) for n in range(1, 9)], vertex=1.0)
        disk = DomainSpec(sites=[CornerSite(1.0 + 0j, [CornerSpec(up, down, 1.0, Exponent(1))])])
        assert singular_points(disk) == []

    def test_json_roundtrip(self):
        d = slit_disk_domain()
        d2 = DomainSpec.from_json(d.to_json())
        assert singular_points(d2) == singular_points(d)

    def test_polygon_shorthand(self):
        d = DomainSpec.from_json({"polygon": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})
        assert len(singular_points(d)) == 4

    @pytest.mark.parametrize(
        "vertices",
        [[(1, -1), (-1, -1), (-1, 1), (1, 1)], [(0, 0), (1, 0), (2, 0)]],
        ids=["clockwise square", "no area"],
    )
    def test_polygon_must_run_counterclockwise(self, vertices):
        # read as given, these would be the square's exterior (four 3/2 angles) or no domain at all
        with pytest.raises(ValueError, match="counterclockwise"):
            DomainSpec.from_polygon(vertices)


coordinates = st.floats(min_value=-10.0, max_value=10.0)
points = st.builds(complex, coordinates, coordinates)
angles = st.one_of(st.none(), st.sampled_from(EXPONENT_POOL), st.floats(min_value=0.01, max_value=2.0))


@st.composite
def arcs_at(draw, vertex: complex) -> PuiseuxArc:
    coeffs = draw(st.lists(points, min_size=1, max_size=4).filter(lambda cs: any(c != 0 for c in cs)))
    return PuiseuxArc([0j] + coeffs, d=draw(st.integers(min_value=1, max_value=3)), vertex=vertex)


def signed_area(vs: list) -> float:
    return 0.5 * sum((a.conjugate() * b).imag for a, b in zip(vs, vs[1:] + vs[:1]))


@st.composite
def domains(draw) -> DomainSpec:
    if draw(st.booleans()):
        # the polygon shorthand takes counterclockwise vertices: a clockwise draw is reversed
        polygon = st.lists(points, min_size=3, max_size=6).filter(
            lambda vs: all(v != vs[k - 1] for k, v in enumerate(vs)) and signed_area(vs) != 0
        )
        vs = draw(polygon)
        return DomainSpec.from_polygon(vs if signed_area(vs) > 0 else vs[::-1])
    sites = []
    for vertex in draw(st.lists(points, max_size=3)):
        comps = [
            CornerSpec(draw(arcs_at(vertex)), draw(arcs_at(vertex)), vertex, draw(angles))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ]
        sites.append(CornerSite(vertex, comps))
    return DomainSpec(sites=sites)


@given(domains())
def test_domain_json_roundtrip(domain):
    data = domain.to_json()
    assert DomainSpec.from_json(json.loads(json.dumps(data))).to_json() == data


class TestNormalizeCorner:
    def test_regular_straight_corner_is_near_fixed_point(self):
        corner = CornerSpec(segment_arc(-1.0), segment_arc(-1j), 0j, Exponent(Fraction(1, 2)), tangent_lift=math.pi)
        norm, chain = normalize_corner(corner)
        assert chain.m1 == 1 and chain.m2 == 1
        assert norm.angle == Exponent(Fraction(1, 2))
        # arc1 stays the negative real axis; chain is the identity up to sign
        z = 0.01 + 0.02j
        assert abs(inverse_point(chain, forward_point(chain, z, cmath.phase(z))) - z) < 1e-12

    def test_curved_arc2_is_straightened_by_every_term_that_counts(self):
        # arc1's inverse chart is trusted on |c_1|/4 = 0.25 only, and arc2 maps its unit disk past that, so the
        # composition must keep the inverse chart's terms that count at arc2's reach, not only those on its own disk
        arc1, arc2 = PuiseuxArc([0, -1, 0.3j, 0.1]), PuiseuxArc([0, -1j, 0.2, 0.05j])
        norm, chain = normalize_corner(CornerSpec(arc1, arc2, 0j, Exponent(Fraction(1, 2)), tangent_lift=math.pi))
        assert chain.m1 == 1 and chain.m2 == 1
        phi2 = PowerSeries.from_unscaled(arc2.coeffs, radius=arc2.rho)
        assert float(np.sum(np.abs(phi2.coeffs))) > chain.rev1.radius
        # m1 = m2 = 1: arc2 is straightened by -rev1 alone, composed to the default order 30
        ref = -compose_untrimmed(chain.rev1, phi2, 30)
        got = norm.arc2.series
        assert got.scale == phi2.scale and got.radius == arc2.rho
        assert np.max(np.abs(got.coeffs[:31] - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cusp_arc_multiplicity_divides_angle(self):
        cusp = PuiseuxArc([0, 0, 1, 1j])  # (t^2, t^3) graph as t^2 + i t^3
        corner = CornerSpec(cusp, segment_arc(-1.0), 0j, Exponent(1))
        norm, chain = normalize_corner(corner)
        assert chain.m1 == 2 and chain.m2 == 1
        assert norm.angle == Exponent(Fraction(1, 2))

    def test_angle_ledger_exact_through_chain(self):
        s2 = Exponent.generator("sqrt2")
        cusp = PuiseuxArc([0, 0, 1, 1j])
        theta2 = s2.value() * math.pi
        arc2 = segment_arc(cmath.exp(1j * theta2))
        corner = CornerSpec(cusp, arc2, 0j, s2)
        norm, chain = normalize_corner(corner)
        assert chain.angle_ledger_exact()
        assert norm.angle * (chain.m1 * chain.m2) == s2
        # rationality class is invariant under the chain
        assert rationality_class(norm.angle) == rationality_class(s2)

    def test_normalized_arcs_are_regular(self):
        cusp = PuiseuxArc([0, 0, 1, 1j])
        corner = CornerSpec(cusp, segment_arc(-1.0), 0j, Exponent(1))
        norm, _ = normalize_corner(corner)
        lead1 = norm.arc1.series.unscaled()
        lead2 = norm.arc2.series.unscaled()
        assert abs(lead1[1]) > 0 and np.allclose(lead1[0], 0)
        assert abs(lead2[1]) > 0 and abs(lead2[0]) < 1e-14

    def test_forward_inverse_roundtrip_near_vertex(self, rng):
        cusp = PuiseuxArc([0, 0, 1, 1j])
        corner = CornerSpec(cusp, segment_arc(-1.0), 0j, Exponent(1))
        norm, chain = normalize_corner(corner)
        worst = 0.0
        for _ in range(100):
            rr = 10 ** rng.uniform(-5, -1.5)
            th = rng.uniform(math.pi + 0.05, math.pi + norm.angle_radians - 0.05)
            w3 = cmath.rect(rr, th)
            w, lift = inverse_point_with_lift(chain, w3, th)
            back = forward_point(chain, w, lift)
            worst = max(worst, abs(back - w3))
        assert worst < 1e-10

    def test_cusp_rejected(self):
        outer = circle_arc_through_origin(1.0, +1)
        inner = circle_arc_through_origin(0.5, +1)
        with pytest.raises(CuspAngleZero):
            normalize_corner(CornerSpec(outer, inner, 0j, Exponent(0)))

    def test_series_transport_matches_pointwise_chain(self):
        cusp = PuiseuxArc([0, 0, 1, 1j])
        corner = CornerSpec(cusp, segment_arc(-1.0), 0j, Exponent(1))
        _, chain = normalize_corner(corner)
        g3 = LogPowerSeries.monomial(-0.09, Fraction(1, 2)) + LogPowerSeries.monomial(
            0.02j, Fraction(3, 2)
        )
        g = inverse_series(chain, g3.truncate(3.0))
        # transporting the series and transporting values must agree:
        # g(z) = chain^(-1)(g3(z)) up to the truncation order
        for rr, th in ((1e-3, 0.3), (3e-3, 1.1), (1e-4, 2.4)):
            z = LPoint(rr, th)
            unwound = inverse_point(chain, g3.eval_finite(z))
            assert abs(g.eval_finite(z) - unwound) < 1e-8 * max(1e-12, abs(unwound))


class TestFlatArcSchema:
    def test_square_as_flat_arcs(self):
        arcs = []
        vs = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
        for k, w in enumerate(vs):
            for to in (vs[(k + 1) % 4], vs[(k - 1) % 4]):
                d = to - w
                arcs.append(
                    {
                        "d": 1,
                        "m": 1,
                        "vertex": [w.real, w.imag],
                        "coeffs": [[0.0, 0.0], [d.real, d.imag]],
                    }
                )
        spec = DomainSpec.from_json({"bounded": True, "arcs": arcs})
        got = singular_points(spec)
        assert len(got) == 4
        for _, angles in got:
            assert angles == [Exponent(Fraction(1, 2))]

    def test_multiplicity_declaration_validated(self):
        arcs = [
            {"d": 1, "m": 2, "vertex": [0, 0], "coeffs": [[0, 0], [1, 0]]},
            {"d": 1, "m": 1, "vertex": [0, 0], "coeffs": [[0, 0], [0, 1]]},
        ]
        with pytest.raises(ValueError):
            DomainSpec.from_json({"bounded": True, "arcs": arcs})


class TestRootOnSecondArc:
    def test_cusp_on_the_second_arc(self):
        # straight first arc, multiplicity-2 second arc: the root lands on
        # step 3 and the rotation returns arc1 to the negative reals
        theta = 0.75 * math.pi
        rot = cmath.exp(1j * theta)
        cusp2 = PuiseuxArc([0, 0, rot, rot * 1j])
        corner = CornerSpec(segment_arc(1.0), cusp2, 0j, Exponent(Fraction(3, 4)))
        norm, chain = normalize_corner(corner)
        assert chain.m1 == 1 and chain.m2 == 2
        assert norm.angle == Exponent(Fraction(3, 8))
        assert chain.angle_ledger_exact()
        # normalized first arc sits in the negative reals
        lead2 = norm.arc2.series.unscaled()
        assert abs(cmath.phase(lead2[1]) - (math.pi + float(norm.angle.rational) * math.pi)) % (2 * math.pi) < 1e-9
        # chain point transport round trip
        rng = np.random.default_rng(9)
        for _ in range(40):
            rr = 10 ** rng.uniform(-6, -2)
            th = rng.uniform(math.pi + 0.05, math.pi + norm.angle_radians - 0.05)
            w3 = cmath.rect(rr, th)
            w, lift = inverse_point_with_lift(chain, w3, th)
            assert abs(forward_point(chain, w, lift) - w3) < 1e-10
