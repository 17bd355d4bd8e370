"""Log-surface points, sectors, reflections, quadratic domains."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from quasimap.errors import OutOfSector, ProjectionError
from quasimap.surface import (
    LPoint,
    QuadraticDomain,
    Sector,
    embed,
    in_T,
    in_Tp,
    log_L,
    mul_map,
    pow_L,
    pow_map,
    project,
    quad_contains,
    quad_intersect,
    reflect_tau,
    sector_index_point,
    tau_log_identity,
    tau_pow_identity,
)


class TestPointValidation:
    @pytest.mark.parametrize("r, phi", [(1e-4, math.nan), (1.0, math.inf), (math.inf, 0.0), (math.nan, 0.0)])
    def test_rejects_non_finite(self, r, phi):
        with pytest.raises(ValueError, match="0 < r < inf and a finite argument"):
            LPoint(r, phi)


class TestLog:
    def test_unit_point(self):
        assert log_L(LPoint(1.0, phi_pi=0)) == 0

    def test_sheets_are_separated(self):
        z4 = LPoint(1.0, phi_pi=4)
        assert log_L(z4) == 4j * math.pi
        assert log_L(z4) != log_L(LPoint(1.0, phi_pi=0))

    def test_negative_argument(self):
        z = LPoint(math.e**2, phi_pi=-1)
        assert abs(log_L(z) - (2 - 1j * math.pi)) < 1e-15


class TestPowers:
    def test_pow_map_keeps_surface_coordinates(self):
        z = pow_map(LPoint(4.0, phi_pi=2), Fraction(1, 2))
        assert z.r == 2.0 and z.phi_pi == 1 and z.phi_rem == 0.0

    def test_pow_value_on_second_sheet(self):
        assert abs(pow_L(LPoint(4.0, phi_pi=2), 0.5) - (-2.0)) < 1e-14

    def test_mul_map(self):
        z = mul_map(LPoint(2.0, phi_pi=1), LPoint(3.0, phi_pi=1))
        assert z.r == 6.0 and z.phi_pi == 2

    def test_pow_roundtrip(self, rng):
        for _ in range(200):
            z = LPoint(rng.uniform(0.1, 5.0), phi_pi=Fraction(int(rng.integers(-8, 9)), 4), phi_rem=rng.uniform(-0.5, 0.5))
            rho = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            back = pow_map(pow_map(z, rho), 1 / rho)
            assert back.phi_pi == z.phi_pi and back.phi_rem == pytest.approx(z.phi_rem, abs=1e-15)
            assert back.r == pytest.approx(z.r, rel=5e-16)


class TestReflections:
    def test_full_turn_comes_back(self):
        z = reflect_tau(0, LPoint(0.7, phi_pi=2))
        assert z.r == 0.7 and z.phi_pi == 0 and z.phi_rem == 0.0

    def test_fixed_ray(self):
        z = reflect_tau(0, LPoint(0.7, phi_pi=1))
        assert z.phi_pi == 1 and z.phi_rem == 0.0

    def test_tau1_of_3pi(self):
        z = reflect_tau(1, LPoint(1.0, phi_pi=3))
        assert z.phi_pi == 1

    def test_out_of_sector(self):
        with pytest.raises(OutOfSector):
            reflect_tau(1, LPoint(1.0, phi_pi=Fraction(1, 2)))

    def test_involution_through_the_formula(self, rng):
        # tau_k is an involution of the strip interior when applied via its formula
        for _ in range(100):
            k = int(rng.integers(0, 6))
            phi = rng.uniform(2**k * math.pi, 2 ** (k + 1) * math.pi)
            z = LPoint(rng.uniform(0.1, 1.0), phi)
            once = reflect_tau(k, z)
            twice = LPoint(once.r, phi_pi=2 ** (k + 1) - once.phi_pi, phi_rem=-once.phi_rem)
            assert twice.phi == pytest.approx(z.phi, abs=1e-12)


class TestTauIdentities:
    def test_log_identity_full_turn(self):
        lhs, rhs = tau_log_identity(0, LPoint(1.0, phi_pi=2))
        assert lhs == rhs == 0

    def test_log_identity_interior_point(self):
        lhs, rhs = tau_log_identity(0, LPoint(math.e, phi_pi=Fraction(3, 2)))
        assert abs(lhs - (1 - 1j * math.pi / 2)) < 1e-15
        assert abs(rhs - (1 - 1j * math.pi / 2)) < 1e-15

    def test_pow_identity(self, rng):
        for _ in range(200):
            k = int(rng.integers(0, 6))
            alpha = rng.uniform(0.05, 2.0)
            phi = rng.uniform(2**k * math.pi, 2 ** (k + 1) * math.pi)
            z = LPoint(rng.uniform(0.1, 1.0), phi)
            lhs, rhs = tau_pow_identity(k, alpha, z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_unimodular_factor(self):
        z = LPoint(0.5, phi_pi=Fraction(7, 4))
        lhs, rhs = tau_pow_identity(0, 0.37, z)
        a = cmath.exp(-1j * 0.37 * 2 * math.pi)
        assert abs(abs(a) - 1) < 1e-15
        assert abs(lhs - a * pow_L(z, 0.37)) < 1e-13


class TestSectors:
    def test_nesting_exact(self):
        for k in range(5):
            z_top = LPoint(1.0, phi_pi=2**k)
            assert in_T(k, z_top) and in_T(k + 1, z_top)
            assert in_Tp(k + 1, LPoint(1.0, phi_pi=2**k))

    def test_union_decomposition(self, rng):
        # T_(k+1) = T_k union T'_(k+1), membership equivalence on samples
        for _ in range(300):
            k = int(rng.integers(0, 8))
            z = LPoint(1.0, rng.uniform(-1.0, 2 ** (k + 1) * math.pi + 1.0))
            assert in_T(k + 1, z) == (in_T(k, z) or in_Tp(k + 1, z))

    def test_boundary_membership_is_exact(self):
        z = LPoint(1.0, phi_pi=4)
        assert in_T(2, z) and not in_T(1, z)
        assert in_Tp(2, z)
        assert not in_Tp(2, LPoint(1.0, phi_pi=4, phi_rem=1e-300))

    def test_sector_validation(self):
        with pytest.raises(ValueError):
            Sector("Tp", 0)

    def test_multiples_without_a_float_compare_by_sign(self):
        # 2^1100 - 2^k has no float for k < 1100; its sign alone orders the argument
        for sign in (1, -1):
            z = LPoint(1.0, phi_pi=sign * 2**1100, phi_rem=-sign * 1e300)
            assert z._phi_cmp_pi(0) == sign
            assert in_T(1101, z) == (sign > 0) and not in_T(1099, z)
        assert sector_index_point(LPoint(1.0, phi_pi=2**1100)) == 1100
        assert sector_index_point(LPoint(1.0, phi_pi=2**1100 + 1)) == 1101


class TestQuadraticDomains:
    def test_contains(self):
        w = QuadraticDomain(1.0, 1.0)
        assert quad_contains(w, LPoint(math.exp(-3), 4.0))
        assert not quad_contains(w, LPoint(math.exp(-2), 4.0))  # boundary excluded

    @pytest.mark.parametrize("multiple", [2**1023, 2**1100, Fraction(2**1100 + 1, 3)], ids=["2^1023", "2^1100", "frac"])
    def test_arguments_without_a_float_are_outside(self, multiple):
        # phi_pi * pi has no float here; such a point lies beyond every radius c exp(-C sqrt|phi|)
        for sign in (1, -1):
            z = LPoint(1e-300, phi_pi=sign * multiple)
            assert z.phi == sign * math.inf
            assert not QuadraticDomain(0.1, 1.0).contains(z)
            assert not QuadraticDomain(0.1, 1.0, mirrored=False).contains(z)

    def test_json_of_an_argument_without_a_float_names_the_multiple(self):
        z = LPoint(1e-300, phi_pi=-(2**1100))
        with pytest.raises(ValueError, match=f"phi={-(2**1100)}\\*pi"):
            z.to_json()
        assert LPoint(0.5, phi_pi=3, phi_rem=0.25).to_json() == {"r": 0.5, "arg": 3 * math.pi + 0.25}

    def test_constructive_member(self):
        w = QuadraticDomain(0.7, 2.3)
        for phi in np.linspace(-50.0, 50.0, 31):
            r = min(w.c, 1.0) / 2 * math.exp(-w.C * math.sqrt(abs(phi)))
            assert quad_contains(w, LPoint(r, phi))

    def test_intersect_idempotent(self):
        w = QuadraticDomain(1.0, 1.0)
        got = quad_intersect(w, w)
        assert got.c == w.c and got.C == w.C

    def test_intersect_componentwise(self):
        got = quad_intersect(QuadraticDomain(1, 1), QuadraticDomain(2, 3))
        assert got.c == 1 and got.C == 3

    def test_intersect_membership_oracle(self, rng):
        w1 = QuadraticDomain(0.8, 1.5)
        w2 = QuadraticDomain(1.3, 2.2)
        w = quad_intersect(w1, w2)
        for _ in range(300):
            phi = rng.uniform(-30, 30)
            r = rng.uniform(0.0, 1.0) * w.radius_at(phi)
            if r <= 0:
                continue
            z = LPoint(r, phi)
            if quad_contains(w, z):
                assert quad_contains(w1, z) and quad_contains(w2, z)

    def test_monotone_in_parameters(self, rng):
        w = QuadraticDomain(1.0, 1.0)
        smaller_c = QuadraticDomain(0.5, 1.0)
        bigger_C = QuadraticDomain(1.0, 2.0)
        for _ in range(200):
            z = LPoint(rng.uniform(0.001, 1.0), rng.uniform(-20, 20))
            if quad_contains(smaller_c, z):
                assert quad_contains(w, z)
            if quad_contains(bigger_C, z):
                assert quad_contains(w, z)


class TestEmbedProject:
    def test_embed_positive_real_is_exact(self):
        z = embed(2.0)
        assert z.phi_pi == 0 and z.phi_rem == 0.0

    def test_embed_imaginary_axis_is_exact(self):
        assert embed(3j).phi_pi == Fraction(1, 2)
        assert embed(-3j).phi_pi == Fraction(-1, 2)

    def test_embed_rejects_cut(self):
        with pytest.raises(ProjectionError):
            embed(-1.0)

    def test_project_roundtrip(self, rng):
        for _ in range(100):
            w = complex(rng.normal(), rng.normal())
            if w == 0 or (w.imag == 0 and w.real < 0):
                continue
            assert abs(project(embed(w)) - w) < 1e-14 * abs(w)

    def test_project_rejects_other_sheets(self):
        with pytest.raises(ProjectionError):
            project(LPoint(1.0, phi_pi=1))
        with pytest.raises(ProjectionError):
            project(LPoint(1.0, phi_pi=3))
