"""Log-surface points, sectors, reflections, quadratic domains."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasimap.errors import OutOfSector
from quasimap.series import zpow
from quasimap.surface import (
    ARRAY_MULTIPLE_LIMIT,
    LPoint,
    LPointArray,
    QuadraticDomain,
    Sector,
    in_Tp,
    quad_intersect,
    reflect_tau,
    sector_index_point,
)


def tau_log_identity(k: int, z: LPoint) -> tuple[complex, complex]:
    """Both sides of conj(log o tau_k) = log - i 2^(k+1) pi at z."""
    lhs = reflect_tau(k, z).log().conjugate()
    rhs = z.log() - 1j * (2 ** (k + 1)) * math.pi
    return lhs, rhs


def tau_pow_identity(k: int, alpha: float, z: LPoint) -> tuple[complex, complex]:
    """Both sides of conj(z^alpha o tau_k) = exp(-i alpha 2^(k+1) pi) z^alpha."""
    lhs = zpow(reflect_tau(k, z).log(), alpha).conjugate()
    rhs = cmath.exp(-1j * alpha * (2 ** (k + 1)) * math.pi) * zpow(z.log(), alpha)
    return lhs, rhs


levels = st.integers(min_value=0, max_value=10)
radii = st.floats(min_value=0.05, max_value=2.0)


@st.composite
def strip_points(draw, k_max: int = 10):
    """(k, z) with z in T'_(k+1): a multiple n/8 of pi in [2^k, 2^(k+1)], carried as
    (n // 8) pi + (n % 8) pi/8, plus a remainder that is 0 (the multiple itself, rays
    included) or keeps z inside the strip."""
    k = draw(st.integers(min_value=0, max_value=k_max))
    n = draw(st.integers(min_value=2**k * 8, max_value=2 ** (k + 1) * 8))
    rem = draw(st.one_of(st.just(0.0), st.floats(min_value=-0.3, max_value=0.3)))
    if n == 2**k * 8:
        rem = abs(rem)
    elif n == 2 ** (k + 1) * 8:
        rem = -abs(rem)
    return k, LPoint(draw(radii), phi_pi=n // 8, phi_rem=(n % 8) * math.pi / 8 + rem)


class TestPointValidation:
    @pytest.mark.parametrize("multiple", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0])
    def test_non_integer_multiples_raise(self, multiple):
        with pytest.raises(TypeError, match=re.escape(f"integer multiple of pi, got {multiple!r}")):
            LPoint(1.0, phi_pi=multiple)

    @pytest.mark.parametrize("r, phi", [(1e-4, math.nan), (1.0, math.inf), (math.inf, 0.0), (math.nan, 0.0)])
    def test_rejects_non_finite(self, r, phi):
        with pytest.raises(ValueError, match="0 < r < inf and a finite argument"):
            LPoint(r, phi)

    @pytest.mark.parametrize(
        "r, n, rem",
        [(0.0, 0, 0.0), (math.inf, 0, 0.0), (math.nan, 0, 0.0), (1.0, 0, math.nan), (1.0, 0, -math.inf),
         (1.0, ARRAY_MULTIPLE_LIMIT, 0.0), (1.0, -ARRAY_MULTIPLE_LIMIT, 0.0)],
    )
    def test_point_arrays_reject_what_points_and_the_int64_walk_do(self, r, n, rem):
        with pytest.raises(ValueError, match=r"\|phi_pi\| < 2\^60; point 2 has"):
            LPointArray([0.5, 0.5, r, 0.5], [0, 1, n, 2], [0.0, 0.0, rem, 0.0])

    def test_point_arrays_need_arrays_of_one_length(self):
        with pytest.raises(ValueError, match="three 1-d arrays of one length"):
            LPointArray([0.5, 0.5], [0], [0.0, 0.0])


class TestLog:
    def test_unit_point(self):
        assert LPoint(1.0, phi_pi=0).log() == 0

    def test_sheets_are_separated(self):
        z4 = LPoint(1.0, phi_pi=4)
        assert z4.log() == 4j * math.pi
        assert z4.log() != LPoint(1.0, phi_pi=0).log()

    def test_negative_argument(self):
        z = LPoint(math.e**2, phi_pi=-1)
        assert abs(z.log() - (2 - 1j * math.pi)) < 1e-15


class TestPowers:
    def test_pow_value_on_second_sheet(self):
        assert abs(zpow(LPoint(4.0, phi_pi=2).log(), 0.5) - (-2.0)) < 1e-14


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
            reflect_tau(1, LPoint(1.0, phi_pi=0, phi_rem=math.pi / 2))

    def test_the_mirror_is_exact_on_the_multiple(self):
        # (r, n pi + rem) -> (r, (1 - n) pi - rem), an involution, with no float formed past 2^1024
        for n in (0, 1, -3, 2**70, -(2**1100)):
            z = LPoint(0.7, phi_pi=n, phi_rem=0.25)
            m = z.mirrored()
            assert (m.r, m.phi_pi, m.phi_rem) == (0.7, 1 - n, -0.25) and type(m.phi_pi) is int
            assert m.mirrored() == z
        arr = LPointArray([0.1, 0.2, 0.3], [0, 5, -(2**59)], [0.5, -1.0, 0.0])
        assert list(arr.mirrored()) == [p.mirrored() for p in arr]
        # 1 - n leaves the arrays' range at n = 1 - 2^60
        with pytest.raises(ValueError, match="2\\^60"):
            LPointArray([0.1], [1 - ARRAY_MULTIPLE_LIMIT], [0.0]).mirrored()

    @given(strip_points())
    def test_involution_through_the_formula(self, kz):
        # tau_k maps T'_(k+1) into T_k; its formula applied to the image returns z exactly
        k, z = kz
        once = reflect_tau(k, z)
        assert Sector("T", k).contains(once)
        twice = LPoint(once.r, phi_pi=2 ** (k + 1) - once.phi_pi, phi_rem=-once.phi_rem)
        assert twice == z and type(twice.phi_pi) is int
        assert twice.phi == pytest.approx(z.phi, abs=1e-12)


class TestTauIdentities:
    @given(k=levels, r=radii)
    @example(k=0, r=1.0)
    def test_log_identity_full_turn(self, k, r):
        # the full turn phi = 2^(k+1) pi reflects onto phi = 0 exactly
        lhs, rhs = tau_log_identity(k, LPoint(r, phi_pi=2 ** (k + 1)))
        assert lhs == rhs == math.log(r)

    def test_log_identity_interior_point(self):
        lhs, rhs = tau_log_identity(0, LPoint(math.e, phi_pi=1, phi_rem=math.pi / 2))
        assert abs(lhs - (1 - 1j * math.pi / 2)) < 1e-15
        assert abs(rhs - (1 - 1j * math.pi / 2)) < 1e-15

    @given(strip_points())
    def test_log_identity_on_the_strip(self, kz):
        # both sides equal log r + i (phi - 2^(k+1) pi), each within two ulps of 2^(k+1) pi
        k, z = kz
        lhs, rhs = tau_log_identity(k, z)
        want = complex(math.log(z.r), float(z.phi_pi - 2 ** (k + 1)) * math.pi + z.phi_rem)
        tol = 2 * math.ulp(2.0 ** (k + 1) * math.pi)
        assert abs(lhs - want) <= tol and abs(rhs - want) <= tol

    @given(strip_points(k_max=5), st.floats(min_value=0.05, max_value=2.0))
    def test_pow_identity(self, kz, alpha):
        k, z = kz
        lhs, rhs = tau_pow_identity(k, alpha, z)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_unimodular_factor(self):
        z = LPoint(0.5, phi_pi=1, phi_rem=3 * math.pi / 4)
        lhs, rhs = tau_pow_identity(0, 0.37, z)
        a = cmath.exp(-1j * 0.37 * 2 * math.pi)
        assert abs(abs(a) - 1) < 1e-15
        assert abs(lhs - a * zpow(z.log(), 0.37)) < 1e-13


class TestSectors:
    def test_nesting_exact(self):
        for k in range(5):
            z_top = LPoint(1.0, phi_pi=2**k)
            assert Sector("T", k).contains(z_top) and Sector("T", k + 1).contains(z_top)
            assert in_Tp(k + 1, LPoint(1.0, phi_pi=2**k))

    def test_union_decomposition(self, rng):
        # T_(k+1) = T_k union T'_(k+1), membership equivalence on samples
        for _ in range(300):
            k = int(rng.integers(0, 8))
            z = LPoint(1.0, rng.uniform(-1.0, 2 ** (k + 1) * math.pi + 1.0))
            assert Sector("T", k + 1).contains(z) == (Sector("T", k).contains(z) or in_Tp(k + 1, z))

    def test_boundary_membership_is_exact(self):
        z = LPoint(1.0, phi_pi=4)
        assert Sector("T", 2).contains(z) and not Sector("T", 1).contains(z)
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
            assert Sector("T", 1101).contains(z) == (sign > 0) and not Sector("T", 1099).contains(z)
        assert sector_index_point(LPoint(1.0, phi_pi=2**1100)) == 1100
        assert sector_index_point(LPoint(1.0, phi_pi=2**1100 + 1)) == 1101


class TestQuadraticDomains:
    def test_contains(self):
        w = QuadraticDomain(1.0, 1.0)
        assert w.contains(LPoint(math.exp(-3), 4.0))
        assert not w.contains(LPoint(math.exp(-2), 4.0))  # boundary excluded

    @pytest.mark.parametrize(
        "multiple, rem",
        # (2^1100 + 1)/3 pi carried as its integer part and 2 pi/3
        [(2**1023, 0.0), (2**1100, 0.0), ((2**1100 + 1) // 3, 2 * math.pi / 3)],
        ids=["2^1023", "2^1100", "frac"],
    )
    def test_arguments_without_a_float_are_outside(self, multiple, rem):
        # phi_pi * pi has no float here; such a point lies beyond every radius c exp(-C sqrt|phi|)
        for sign in (1, -1):
            z = LPoint(1e-300, phi_pi=sign * multiple, phi_rem=sign * rem)
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
            assert w.contains(LPoint(r, phi))

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
            if w.contains(z):
                assert w1.contains(z) and w2.contains(z)

    def test_monotone_in_parameters(self, rng):
        w = QuadraticDomain(1.0, 1.0)
        smaller_c = QuadraticDomain(0.5, 1.0)
        bigger_C = QuadraticDomain(1.0, 2.0)
        for _ in range(200):
            z = LPoint(rng.uniform(0.001, 1.0), rng.uniform(-20, 20))
            if smaller_c.contains(z):
                assert w.contains(z)
            if bigger_C.contains(z):
                assert w.contains(z)
