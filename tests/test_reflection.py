"""Reflection tower: single reflections, reflectors, towers, certification."""

import cmath
import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasimap.errors import NormalizationError, OutsideExtensionDomain
from quasimap.expansion import SamplingPlan
from quasimap.exponents import Exponent, parse_exponent
from quasimap.powerseries import AnalyticFunc, PowerSeries
from quasimap.reflection import (
    Extension,
    MapGerm,
    build_chi,
    build_extension,
    build_tower,
    certify_quadratic_domain,
    sample_quadratic_domain,
)
from quasimap.scmap import model_corner_germ, sc_corner_germ, solve_sc
from quasimap.series import LogPowerSeries
from quasimap.surface import LPoint, LPointArray

from references import reflect_across

L_HEXAGON = ([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], [Fraction(1, 2)] * 3 + [Fraction(3, 2)] + [Fraction(1, 2)] * 2)
# the L-hexagon's reflex 3/2 vertex and one of its 1/2 vertices, on the array walk through their series
SC_VERTICES = {"hexagon-3/2": 3, "hexagon-1/2": 0}


def schwarz_reflect(f, chart: AnalyticFunc):
    """Holomorphic extension of f below the axis across the arc chart([0,1)).

    Returns the piecewise map equal to f for Im z >= 0 and to the reflected
    values chart(conj(chart^(-1)(f(conj z)))) for Im z < 0; f must send [0, r)
    into the arc for the two halves to glue.
    """
    lower = reflect_across(chart, f)

    def extended(z: complex) -> complex:
        z = complex(z)
        if z.imag >= 0:
            return complex(f(z))
        return lower(z)

    return extended


def validate_koebe(tower) -> dict:
    """Sampling validation of the univalent-chart bounds behind every level.

    For each stored chart phi_k on B(0, r_k), at 16 angles: the inverse must
    reach the quarter disk of the image and |phi_k(z)| <= 4|z| must hold on
    the half disk; the reflector chi_k obeys the same growth on its half disk.
    Returns the worst measured ratios, passed within 1e-9.
    """
    worst_roundtrip = 0.0
    worst_growth = 0.0
    worst_chi_growth = 0.0
    for lv in tower.levels:
        ser, rev = lv.chi.chart, lv.chi.inverse
        for j in range(16):
            w = 0.9 * lv.r / 4.0 * cmath.exp(2j * math.pi * j / 16)
            pre = ser.newton_inverse(w, z0=rev(w))
            worst_roundtrip = max(worst_roundtrip, abs(ser(pre) - w) / max(abs(w), 1e-300))
            z = 0.5 * lv.r * cmath.exp(2j * math.pi * j / 16)
            worst_growth = max(worst_growth, abs(complex(ser(z))) / (4.0 * abs(z)))
            zc = 0.5 * (lv.r / 8.0) * cmath.exp(2j * math.pi * j / 16)
            worst_chi_growth = max(worst_chi_growth, abs(complex(lv.chi.series(zc))) / (4.0 * abs(zc)))
    return {
        "inverse_roundtrip": worst_roundtrip,
        "growth_ratio": worst_growth,
        "chi_growth_ratio": worst_chi_growth,
        "passed": bool(worst_roundtrip < 1e-9 and worst_growth <= 1.0 + 1e-9 and worst_chi_growth <= 1.0 + 1e-9),
    }


def analytic_polynomial(coeffs, radius=1.0, scale=1.0):
    arr = np.asarray(coeffs, dtype=complex)
    return AnalyticFunc(
        PowerSeries.from_unscaled(arr, scale=scale, radius=radius),
        exact=lambda z, a=arr: sum(c * np.asarray(z, dtype=complex) ** n for n, c in enumerate(a)),
    )


def random_chart(rng, n_extra=4, size=0.08):
    """Random polynomial chart z + small higher terms, injective on B(0,1)."""
    c = np.zeros(n_extra + 2, dtype=complex)
    c[1] = 1.0
    tail = size * (rng.normal(size=n_extra) + 1j * rng.normal(size=n_extra))
    tail /= max(1.0, 2.0 * np.sum(np.arange(2, n_extra + 2) * np.abs(tail)))
    c[2:] = tail
    return analytic_polynomial(c)


def random_boundary_matched_f(rng, chart, n=3):
    """f = chart(p(z)) with p a nonnegative-coefficient real polynomial: f([0,r)) lies on the arc."""
    p = rng.uniform(0.0, 0.25, size=n + 1)
    p /= max(1.0, p.sum() / 0.8)

    def f(z):
        z = np.asarray(z, dtype=complex)
        return chart.exact(sum(c * z**k for k, c in enumerate(p)))

    return f


class TestSchwarzReflect:
    def test_real_chart_polynomial_reflects_to_itself(self):
        chart = analytic_polynomial([0, 1])
        f = lambda z: np.asarray(z, dtype=complex) ** 2
        refl = schwarz_reflect(f, chart)
        for z in (0.1 - 0.2j, -0.05 - 0.01j):
            assert abs(refl(z) - z**2) < 1e-12

    def test_branch_tracking_square_root(self):
        chart = analytic_polynomial([0, 1])
        f = lambda z: np.exp(0.5 * np.log(np.asarray(z, dtype=complex)))
        refl = schwarz_reflect(f, chart)
        z = 0.09 - 0.02j
        want = np.conj(np.exp(0.5 * np.log(np.conj(z))))
        assert abs(refl(z) - want) < 1e-12

    def test_double_reflection_is_identity(self, rng):
        for _ in range(12):
            chart = random_chart(rng)
            f = random_boundary_matched_f(rng, chart)
            twice = reflect_across(chart, reflect_across(chart, f))
            for _ in range(5):
                z = complex(rng.uniform(-0.05, 0.05), rng.uniform(0.005, 0.05))
                assert abs(twice(z) - f(z)) < 1e-12

    @given(
        tail=st.lists(st.complex_numbers(max_magnitude=0.3, allow_nan=False), min_size=1, max_size=4),
        p=st.lists(st.floats(min_value=0.0, max_value=0.25), min_size=4, max_size=4),
        x=st.floats(min_value=-0.05, max_value=0.05),
        y=st.floats(min_value=0.005, max_value=0.05),
    )
    def test_double_reflection_is_identity_property(self, tail, p, x, y):
        # the chart and f of random_chart and random_boundary_matched_f, drawn by hypothesis
        tail = np.array(tail) / max(1.0, 2.0 * sum(k * abs(c) for k, c in enumerate(tail, start=2)))
        chart = analytic_polynomial(np.concatenate(([0.0, 1.0], tail)))
        p = np.array(p) / max(1.0, sum(p) / 0.8)

        def f(z):
            return chart.exact(sum(c * np.asarray(z, dtype=complex) ** k for k, c in enumerate(p)))

        z = complex(x, y)
        assert abs(reflect_across(chart, reflect_across(chart, f))(z) - f(z)) < 1e-12


class TestBuildChi:
    def test_identity_chart(self):
        chi = build_chi(analytic_polynomial([0, 1]), r=1.0)
        u = chi.series.unscaled()
        assert abs(u[1] - 1) < 1e-14
        assert np.max(np.abs(u[2:]), initial=0.0) < 1e-14

    def test_real_chart_gives_identity_reflector(self):
        chart = AnalyticFunc.from_callable(lambda z: z / (1 - z), radius=0.9, order=40)
        chi = build_chi(chart, r=0.8)
        z = 0.01 + 0.003j
        assert abs(chi.series(z) - z) < 1e-12
        # growth bound |chi(z)| <= 4 |z| on the half-radius disk
        for t in np.linspace(0, 2 * math.pi, 17):
            w = 0.05 * cmath.exp(1j * t)
            assert abs(chi.series(w)) <= 4 * abs(w) * (1 + 1e-9)

    def test_moebius_chart_closed_form(self):
        a = 0.3 + 0.4j
        chart = AnalyticFunc.from_callable(lambda z: z / (1 - a * z), radius=0.9, order=40)
        chi = build_chi(chart, r=0.8)
        # chi(w) = w / (1 + (a - conj(a)) w) in closed form
        for w in (0.01, 0.02 - 0.01j, -0.015j):
            want = w / (1 + (a - np.conj(a)) * w)
            assert abs(chi.series(w) - want) < 1e-11

    def test_coefficient_bound(self):
        a = 0.3 + 0.4j
        chart = AnalyticFunc.from_callable(lambda z: z / (1 - a * z), radius=0.9, order=40)
        r = 0.8
        chi = build_chi(chart, r=r)
        unscaled = chi.series.unscaled()
        for ell in range(1, min(20, len(unscaled))):
            bound = 4.0 * (16.0 / r) ** (ell - 1)
            assert abs(unscaled[ell]) <= bound * (1 + 1e-9)

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            build_chi(analytic_polynomial([0, 2.0]), r=1.0)


@pytest.fixture(scope="module")
def sqrt2_ext():
    return build_extension(model_corner_germ(Exponent.generator("sqrt2")), K=8)


class TestSectorTower:

    def test_reflectors_are_unimodular_rotations(self, sqrt2_ext):
        for lv in sqrt2_ext.positive.levels:
            lead = lv.chi.series.deriv0()
            assert abs(abs(lead) - 1) < 1e-12
            tail = lv.chi.series.coeffs[2:8]
            assert np.max(np.abs(tail), initial=0.0) < 1e-10

    def test_constant_ladder(self, sqrt2_ext):
        tw = sqrt2_ext.positive
        E = tw.germ.growth
        alpha = tw.alpha
        for k, lv in enumerate(tw.levels):
            assert lv.r == tw.r0 / 32.0**k or lv.r == tw.levels[k - 1].r / 32.0
            assert lv.E == E * 4.0**k
            assert lv.t == (lv.r / (16.0 * lv.E)) ** (1.0 / alpha)
            assert lv.s == min(lv.t, lv.E ** (-2.0 / alpha))

    def test_growth_bound_on_samples(self, sqrt2_ext, rng):
        tw = sqrt2_ext.positive
        alpha = tw.alpha
        for k in (0, 2, 5, 8):
            lv = tw.levels[k]
            for _ in range(40):
                phi = rng.uniform(0, 2**k * math.pi)
                r = rng.uniform(0.05, 0.95) * lv.t
                val = sqrt2_ext.evaluate(LPoint(r, phi))
                assert abs(val) <= lv.E * r**alpha * (1 + 1e-9)

    def test_extension_consistency_between_levels(self, sqrt2_ext, rng):
        # Phi_(k+1) restricted to T_k equals Phi_k
        tw = sqrt2_ext.positive
        for _ in range(50):
            k = int(rng.integers(1, 8))
            phi = rng.uniform(0, 2 ** (k - 1) * math.pi)
            r = rng.uniform(0.05, 0.5) * tw.levels[k].t
            z = LPoint(r, phi)
            assert abs(tw._unwind_point(z, k, z) - tw._unwind_point(z, k - 1, z)) < 1e-12

    def test_fixed_ray_well_defined(self, sqrt2_ext):
        # on the ray phi = 2^k pi the reflector fixes the values: conj(chi_k(w)) = w
        tw = sqrt2_ext.positive
        for k in range(0, 6):
            z = LPoint(0.3 * tw.levels[k + 1].t, phi_pi=2**k)
            w = sqrt2_ext.evaluate(z)
            again = complex(tw.levels[k].chi.series(w)).conjugate()
            assert abs(again - w) < 1e-12 * max(1.0, abs(w))

    def test_closed_form_agreement(self, sqrt2_ext, rng):
        alpha = math.sqrt(2)
        cert = certify_quadratic_domain(sqrt2_ext)
        for p in sample_quadratic_domain(cert.quad, 400, 7, max_abs_arg=60 * math.pi):
            got = sqrt2_ext.evaluate(p)
            want = cmath.exp(alpha * complex(math.log(p.r), p.phi))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_series_path_matches_exact_path(self, sqrt2_ext, rng):
        # each level's chi series agrees with the closed-form descent on B(0, r_j/8),
        # for straight and for curved reflectors
        curved_ext = build_extension(TestCurvedArcTower._germ(), K=8)
        for tw in (sqrt2_ext.positive, sqrt2_ext.negative, curved_ext.positive, curved_ext.negative):
            for j, lv in enumerate(tw.levels):
                for _ in range(8):
                    w = cmath.rect(rng.uniform(0.05, 0.95) * lv.r / 8.0, rng.uniform(-math.pi, math.pi))
                    assert abs(lv.chi.series(w) - tw.chi(j, w)) <= 1e-12 * abs(w)

    def test_outside_domain_raises(self, sqrt2_ext):
        with pytest.raises(OutsideExtensionDomain):
            sqrt2_ext.evaluate(LPoint(0.9, phi_pi=4))
        with pytest.raises(OutsideExtensionDomain):
            sqrt2_ext.evaluate(LPoint(1e-6, phi_pi=2**12))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_arguments_past_the_doubles_raise_outside_domain(self, sign):
        # multiples of pi with no float (2^1100) or whose product with pi overflows (2^1023)
        ext = build_extension(model_corner_germ(Fraction(1, 2)), 8)
        for multiple in (2**1023, 2**1100):
            with pytest.raises(OutsideExtensionDomain) as info:
                ext.evaluate(LPoint(1e-300, phi_pi=sign * multiple))
            # the message names the caller's point, also where the mirrored tower sees 1 - phi_pi
            assert f"phi={sign * multiple}*pi" in str(info.value)
            assert "inf" not in str(info.value)


class TestDeepSectorIndex:
    """Sector indices past 64 on a K = 70 tower, the deepest sqrt2 depths admit."""

    @pytest.fixture(scope="class")
    def deep(self):
        germ = model_corner_germ(Exponent.generator("sqrt2"))
        seen = []
        exact = germ.eval_lpoint

        def recording(z):
            seen.append(z)
            return exact(z)

        return build_extension(dataclasses.replace(germ, eval_lpoint=recording), K=70), seen

    def test_beyond_the_built_sheets_raises(self, deep):
        ext, _ = deep
        with pytest.raises(OutsideExtensionDomain):
            ext.evaluate(LPoint(1e-300, phi_pi=2**90 - 1, phi_rem=0.25))

    def test_deep_point_unwinds_to_the_germ_sheet(self, deep):
        ext, seen = deep
        seen.clear()
        ext.evaluate(LPoint(0.5 * ext.positive.levels[68].t, phi_pi=2**68 - 1, phi_rem=0.25))
        assert seen
        assert all(z._phi_cmp_pi(0) >= 0 and z._phi_cmp_pi(1) <= 0 for z in seen)


class TestCertification:
    def test_certified_points_all_evaluable_and_members(self, rng):
        germ = model_corner_germ(Fraction(1, 2))
        ext = build_extension(germ, K=7)
        cert = certify_quadratic_domain(ext)
        for p in sample_quadratic_domain(cert.quad, 300, 3, max_abs_arg=(2**7 - 1) * math.pi):
            assert cert.quad.contains(p)
            ext.evaluate(p)  # must not raise

    def test_tk_vs_kgrowth(self):
        germ = model_corner_germ(Fraction(1, 2))
        ext = build_extension(germ, K=12)
        cert = certify_quadratic_domain(ext)
        tw = ext.positive
        for k in range(1, 13):
            assert tw.levels[k].t >= cert.K_growth ** (-k) * (1 - 1e-12)

    def test_level_ratio_is_exact_rate(self):
        germ = model_corner_germ(Fraction(1, 3))
        tower = build_tower(germ, K=6)
        rate = 128.0 ** (1.0 / tower.alpha)
        for k in range(6):
            assert tower.levels[k].t / tower.levels[k + 1].t == pytest.approx(rate, rel=1e-12)

    def test_deeper_towers_never_shrink_certified_domain(self):
        germ = model_corner_germ(Fraction(1, 2))
        c4 = certify_quadratic_domain(build_extension(germ, K=4))
        c8 = certify_quadratic_domain(build_extension(germ, K=8))
        assert c8.quad.c >= c4.quad.c * (1 - 1e-13)
        assert c8.quad.C <= c4.quad.C * (1 + 1e-13)

    @staticmethod
    def _certify_by_loop(ext):
        """The per-level loop over k = 1..400 that the array form replaces: the reference."""
        pos, neg = ext.positive, ext.negative
        rate = 128.0 ** (1.0 / pos.alpha)
        t0_pos, t0_neg = pos.levels[0].t, neg.levels[0].t
        c = min(t0_pos, t0_neg / rate) * (1.0 - 1e-12)
        log_rate = math.log(rate)
        C = 1e-9
        for k in range(1, 401):
            C = max(C, (math.log(c / t0_pos) + k * log_rate) / math.sqrt(2 ** (k - 1) * math.pi))
            if k >= 2:
                C = max(C, (math.log(c / t0_neg) + k * log_rate) / math.sqrt((2 ** (k - 1) - 1) * math.pi))
        K_growth = rate
        for k in range(1, pos.K + 1):
            K_growth = max(K_growth, pos.levels[k].t ** (-1.0 / k))
        return c, C, K_growth, rate

    @staticmethod
    def _cusp_germ():
        """-z^(1/2) (1/2 + 0.15 z) on the normalized cusp (t^2, t^3) against a ray."""
        from quasimap.corners import CornerSpec, PuiseuxArc, normalize_corner
        from quasimap.series import zpow

        norm, _ = normalize_corner(CornerSpec(PuiseuxArc([0, 0, 1, 1j]), PuiseuxArc([0, -1]), 0j, Exponent(1)))
        return MapGerm(
            eval_complex=None,
            t_bar=0.15,
            alpha=norm.angle,
            growth=0.65,
            arc1=norm.arc1,
            arc2=norm.arc2,
            eval_lpoint=lambda p: -zpow(p.log(), 0.5) * (0.5 + 0.15 * zpow(p.log(), 1.0)),
        )

    @pytest.mark.parametrize("germ", ["1/3", "1/2", "2/3", "3/4", "3/2", "sqrt2", "golden", "curved", "cusp"])
    def test_certificate_matches_the_level_loop_bit_for_bit(self, germ):
        if germ == "curved":
            ext = build_extension(TestCurvedArcTower._germ(), K=8)
        elif germ == "cusp":
            ext = build_extension(self._cusp_germ(), K=6)
        else:
            ext = build_extension(model_corner_germ(Exponent.coerce(germ)), K=8)
        cert = certify_quadratic_domain(ext)
        got = (cert.quad.c, cert.quad.C, cert.K_growth, cert.rate)
        assert all(type(x) is float for x in got)
        assert got == self._certify_by_loop(ext)

    def test_report_shape(self):
        germ = model_corner_germ(Fraction(1, 2))
        cert = certify_quadratic_domain(build_extension(germ, K=3))
        rep = cert.report()
        assert {"levels", "quad", "K_growth", "level_ratio"} <= set(rep)
        assert len(rep["levels"]) == 4


class TestMirroredSide:
    def test_mirror_agrees_with_direct_on_upper_half(self, rng):
        germ = model_corner_germ(Fraction(2, 3))
        ext = build_extension(germ, K=4)
        # the mirrored germ evaluated through the flip reproduces the original on [0, pi]
        for _ in range(40):
            z = LPoint(rng.uniform(0.01, 0.3) * ext.positive.levels[0].t, rng.uniform(0.0, math.pi))
            direct = ext.evaluate(z)
            flipped = LPoint(z.r, phi_pi=1 - z.phi_pi, phi_rem=-z.phi_rem)
            # the twin tower as the positive side of a swapped extension, so flipped (arg in [0, pi]) unwinds on it
            via_mirror = Extension(ext.negative, ext.positive).evaluate(flipped).conjugate()
            assert abs(direct - via_mirror) < 1e-12 * max(1.0, abs(direct))

    def test_negative_arguments_match_closed_form(self, rng):
        alpha = 2.0 / 3.0
        ext = build_extension(model_corner_germ(Fraction(2, 3)), K=6)
        cert = certify_quadratic_domain(ext)
        for _ in range(100):
            phi = rng.uniform(-30 * math.pi, 0)
            r = rng.uniform(0.05, 0.95) * cert.quad.radius_at(phi)
            got = ext.evaluate(LPoint(r, phi))
            want = cmath.exp(alpha * complex(math.log(r), phi))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


class TestKoebeCertificates:
    def test_inverse_on_quarter_disk_and_growth_on_half_disk(self, rng):
        # sampling validation of the univalent-chart guarantees backing the
        # reflector construction: the inverse reaches the quarter disk and
        # |phi(z)| <= 4|z| holds on the half disk
        for _ in range(8):
            chart = random_chart(rng)
            r = 1.0
            d0 = abs(chart.deriv0())
            rev = chart.series.reversion(order=30, out_scale=d0 * r / 4.0)
            for t in np.linspace(0, 2 * math.pi, 13):
                w = 0.95 * d0 * r / 4.0 * cmath.exp(1j * t)
                pre = chart.series.newton_inverse(w, z0=rev(w))
                assert abs(chart.series(pre) - w) < 1e-12
                assert abs(pre) < r
                z = 0.5 * r * cmath.exp(1j * t)
                assert abs(chart.series(z)) <= 4.0 * abs(z) * (1 + 1e-9)

    def test_sector_evaluation_on_third_sheet(self, sqrt2_ext):
        # explicit spot check at arg 3 pi against the exponential closed form
        r = 0.4 * sqrt2_ext.positive.levels[2].t
        z = LPoint(r, phi_pi=3)
        want = cmath.exp(math.sqrt(2.0) * complex(math.log(r), 3 * math.pi))
        assert abs(sqrt2_ext.evaluate(z) - want) < 1e-10 * max(1.0, abs(want))

    def test_top_level_exact_ray_is_in_domain(self):
        # the domain check must use the exact sector index: the float arg of
        # the ray phi = 2^K pi can round a level up and spuriously reject
        ext = build_extension(model_corner_germ(Fraction(1, 2)), K=8)
        z = LPoint(0.4 * ext.positive.levels[8].t, phi_pi=2**8)
        want = cmath.exp(0.5 * complex(math.log(z.r), z.phi))
        assert abs(ext.evaluate(z) - want) <= 1e-10 * max(1.0, abs(want))


class TestTowerKoebeValidation:
    def test_every_stored_chart_obeys_the_bounds(self):
        sector = build_tower(model_corner_germ(Exponent.generator("sqrt2")), K=6)
        out = validate_koebe(sector)
        assert out["passed"], out
        # a tower with a genuinely curved reflector chart
        from quasimap.corners import CornerSpec, PuiseuxArc, normalize_corner
        from quasimap.series import zpow

        cusp = PuiseuxArc([0, 0, 1, 1j])
        norm, _ = normalize_corner(CornerSpec(cusp, PuiseuxArc([0, -1]), 0j, Exponent(1)))
        germ = MapGerm(
            eval_complex=None,
            t_bar=0.15,
            alpha=norm.angle,
            growth=0.51,
            arc1=norm.arc1,
            arc2=norm.arc2,
            eval_lpoint=lambda p: -0.5 * zpow(p.log(), 0.5),
        )
        curved = build_tower(germ, K=5)
        out = validate_koebe(curved)
        assert out["passed"], out


class TestCurvedArcTower:
    """Sector composed with a Moebius map: curved second arc, curved
    reflectors, and still a closed-form continuation to check against."""

    @staticmethod
    def _germ(alpha=Fraction(2, 3), order=40):
        import cmath as _cm
        from quasimap.series import zpow

        av = float(alpha)
        rot = _cm.exp(1j * av * math.pi)

        def on_L(p):
            w = zpow(p.log(), av)
            return w / (1 - w)

        t_bar = 0.25
        arc1 = AnalyticFunc(
            PowerSeries.from_unscaled([0, 1], radius=0.8),
            exact=lambda z: np.asarray(z, dtype=complex) + 0j,
        )
        arc2 = AnalyticFunc.from_callable(
            lambda z, r=rot: r * np.asarray(z, dtype=complex) / (1 - r * np.asarray(z, dtype=complex)),
            radius=0.8,
            order=order,
        )
        return MapGerm(
            eval_complex=None,
            t_bar=t_bar,
            alpha=Exponent(alpha),
            growth=1.0 / (1.0 - t_bar**av),
            arc1=arc1,
            arc2=arc2,
            eval_lpoint=on_L,
        )

    def test_matches_closed_form_on_certified_domain(self):
        from quasimap.series import zpow

        germ = self._germ()
        av = germ.alpha_value
        ext = build_extension(germ, K=6)
        cert = certify_quadratic_domain(ext)
        worst = 0.0
        for p in sample_quadratic_domain(cert.quad, 500, 17, max_abs_arg=40 * math.pi):
            w = zpow(p.log(), av)
            want = w / (1 - w)
            worst = max(worst, abs(ext.evaluate(p) - want) / max(1.0, abs(want)))
        assert worst < 1e-10

    def test_reflectors_are_genuinely_curved(self):
        germ = self._germ()
        tower = build_tower(germ, K=3)
        quad_term = tower.levels[0].chi.series.coeffs[2]
        assert abs(quad_term) > 1e-6  # not a pure rotation

    def test_orders_40_and_80_store_the_same_lengths(self):
        # each level's disk is 32 times smaller, so its series need ever fewer terms, and none needs 40;
        # level 0's chart is the germ's own arc, stored as given
        towers = [build_tower(self._germ(order=order), K=8, order=order) for order in (40, 80)]
        built = [[s for lv in t.levels for s in (lv.chi.chart, lv.chi.inverse, lv.chi.series)][1:] for t in towers]
        assert [s.order for s in built[0]] == [s.order for s in built[1]]
        assert all(s.top() == s.order == s.conjugated().top() for s in built[0] + built[1])
        lengths = [max(lv.chi.chart.top(), lv.chi.inverse.order, lv.chi.series.order) for lv in towers[0].levels]
        assert lengths == sorted(lengths, reverse=True) and lengths[0] < 40

    def test_the_mirrored_germ_takes_point_arrays(self, rng):
        # a hand-built germ through p.log() takes an LPointArray; so does its mirror, on the exact flip 1 - n
        germ = self._germ()
        mirror = germ.mirrored()
        arr = LPointArray(rng.uniform(1e-4, 0.2, 50), rng.integers(0, 2, 50), rng.uniform(-0.5, 0.5, 50))
        got = mirror.eval_lpoint(arr)
        assert got.shape == (50,) and got.dtype == complex
        assert got.tobytes() == np.conj(germ.eval_lpoint(arr.mirrored())).tobytes()
        for p, v in zip(arr, got):
            one = mirror.eval_lpoint(p)
            assert type(one) is complex and abs(v - one) <= 4e-15 * abs(one), p

    def test_expansion_is_the_geometric_lattice(self):
        germ = self._germ()
        av = germ.alpha_value
        ext = build_extension(germ, K=5)
        from quasimap.expansion import ExpansionModel, SamplingPlan, fit_expansion

        model = ExpansionModel(Exponent(Fraction(2, 3)), R=3.5 * av, guard_terms=4)
        plan = SamplingPlan(rho0=0.4 * ext.positive.levels[0].t, n_shells=12, one_sided=True)
        fit = fit_expansion(ext.evaluate, model, plan, domain=None)
        a = Exponent(Fraction(2, 3))
        assert abs(fit.coefficient(a) - 1.0) < 1e-10
        assert abs(fit.coefficient(a * 2) - 1.0) < 1e-7
        assert abs(fit.coefficient(a * 3) - 1.0) < 1e-4
        assert abs(fit.coefficient(a + 1)) < 1e-5


class TestFromSeries:
    """MapGerm.from_series: the germ given by its series, evaluated through eval_finite."""

    RAYS = tuple(AnalyticFunc(PowerSeries.linear(c, radius=np.inf)) for c in (1.0, 1j))

    def test_fields_come_from_the_series(self):
        half = Exponent(Fraction(1, 2))
        series = LogPowerSeries({half: 2.0, half + 1: -1j}, r_max=half + 2)
        germ = MapGerm.from_series(series, *self.RAYS, t_bar=0.5, label="two-term")
        assert germ.alpha is half and germ.series is series and germ.eval_complex is None
        assert germ.eval_lpoint == series.eval_finite
        arr = LPointArray([0.1, 0.3, 0.45], [0, 1, 0], [0.5, -0.25, 0.0])
        assert germ.eval_lpoint(arr).tobytes() == series.eval_finite(arr).tobytes()
        # 1.05 (|2| + |-1j| 0.5 + 0 0.5^2) over the dense coefficients up to r_max
        assert germ.growth == (2.0 + 0.5 + 0.0) * 1.05
        with pytest.raises(ValueError, match="nonzero term"):
            MapGerm.from_series(LogPowerSeries.zero(), *self.RAYS, t_bar=0.5, growth=1.0)

    def test_growth_is_required_off_a_pure_power_ladder(self):
        half = Exponent(Fraction(1, 2))
        logged = LogPowerSeries.monomial(1.0, half, r_max=half + 2) + LogPowerSeries.monomial(0.1, half + 1, log_degree=1)
        unbounded = LogPowerSeries.monomial(1.0, half)
        off_ladder = LogPowerSeries({half: 1.0, Exponent.generator("sqrt2"): 1.0}, r_max=half + 2)
        for series in (logged, unbounded, off_ladder):
            with pytest.raises(ValueError, match="give this series its growth"):
                MapGerm.from_series(series, *self.RAYS, t_bar=0.5)
        assert MapGerm.from_series(logged, *self.RAYS, t_bar=0.5, growth=3.0).growth == 3.0

    def test_sc_germs_walk_lists_as_arrays(self):
        germ = sc_corner_germ(l_hexagon(), 3)
        arr = LPointArray([0.01, 0.02, 0.03], [0, 1, 0], [0.5, -0.25, 0.0])
        assert germ.eval_lpoint(arr).tobytes() == germ.series.eval_finite(arr).tobytes()
        flipped = LPointArray(arr.r, 1 - arr.phi_pi, -arr.phi_rem)
        assert germ.mirrored().eval_lpoint(arr).tobytes() == np.conj(germ.series.eval_finite(flipped)).tobytes()


SC_POLYGONS = {
    "square": ([0, 1, 1 + 1j, 1j], [Fraction(1, 2)] * 4),
    "rectangle-2x1": ([0, 2, 2 + 1j, 1j], [Fraction(1, 2)] * 4),
    "L-hexagon": L_HEXAGON,  # its vertex 3 is the reflex 3/2 corner
}


class TestSCTowers:
    """An SC corner germ's arcs carry no closed form: its tower applies each chi_k by its series."""

    @pytest.mark.parametrize("name", SC_POLYGONS)
    def test_tower_matches_the_germ_series_on_both_signs(self, name):
        # the germ's series converges on |z| < t_bar of every sheet, so the continuation is the series itself
        poly = solve_sc(*SC_POLYGONS[name])
        for k in range(len(poly.vertices)):
            germ = sc_corner_germ(poly, k)
            ext = build_extension(germ, K=8)
            assert ext.positive.arc1.exact is None and ext.positive.arc2.exact is None
            quad = certify_quadratic_domain(ext).quad
            pts = sample_quadratic_domain(quad, 400, k, max_abs_arg=0.98 * (2**8 - 1) * math.pi)
            assert any(p.phi < 0 for p in pts) and any(p.phi > math.pi for p in pts)
            got = np.array(ext.evaluate(pts))
            want = np.array([germ.series.eval_finite(p) for p in pts])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, (name, k)


class TestChiRules:
    """chi_k by the closed-form descent only when both normalized arcs have a closed form."""

    @staticmethod
    def _count_newton_solves(monkeypatch, ext):
        calls = []
        solve = PowerSeries.newton_inverse

        def counted(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(PowerSeries, "newton_inverse", counted)
        pts = sample_quadratic_domain(certify_quadratic_domain(ext).quad, 200, 5, max_abs_arg=0.98 * (2**ext.positive.K - 1) * math.pi)
        ext.evaluate(pts)
        for p in pts:
            ext.evaluate(p)
        return len(calls)

    def test_an_arc_without_a_closed_form_means_no_newton_solve(self, monkeypatch):
        # the normalized cusp: its straight arc1 and its arc2 carry only their series; neither twin descends
        ext = build_extension(TestCertification._cusp_germ(), K=6)
        assert self._count_newton_solves(monkeypatch, ext) == 0

    def test_two_closed_forms_descend_by_newton_solves(self, monkeypatch):
        ext = build_extension(TestCurvedArcTower._germ(), K=6)
        assert self._count_newton_solves(monkeypatch, ext) > 0


class TestErrorPaths:
    def test_germ_too_small(self):
        from quasimap.errors import GermTooSmall

        germ = model_corner_germ(Fraction(1, 2))
        germ.t_bar = 0.0
        with pytest.raises(GermTooSmall):
            build_tower(germ, K=2)

    def test_image_escapes_chart(self):
        from quasimap.errors import ImageEscapesChart

        chart = analytic_polynomial([0, 1])
        runaway = reflect_across(chart, lambda z: 10.0 + 0j)
        with pytest.raises(ImageEscapesChart):
            runaway(0.01 - 0.01j)


@functools.lru_cache(maxsize=None)
def l_hexagon():
    return solve_sc(*L_HEXAGON)


def extension_of(name: str) -> Extension:
    """K = 8 extension of a named germ: a model angle, the curved or cusp germ, or an L-hexagon SC vertex."""
    if name == "curved":
        return build_extension(TestCurvedArcTower._germ(), K=8)
    if name == "cusp":
        return build_extension(TestCertification._cusp_germ(), K=8)
    if name in SC_VERTICES:
        return build_extension(sc_corner_germ(l_hexagon(), SC_VERTICES[name]), K=8)
    return build_extension(model_corner_germ(parse_exponent(name)), K=8)


class TestBatchEvaluation:
    """A list of points unwinds in one walk, each level's chi applied to its group at once."""

    @pytest.fixture(scope="class", params=["sqrt2", "golden", "curved", "cusp", *SC_VERTICES])
    def ext(self, request):
        return extension_of(request.param)

    def test_batch_matches_per_point_calls(self, ext):
        cert = certify_quadratic_domain(ext)
        pts = sample_quadratic_domain(cert.quad, 600, 11, max_abs_arg=0.98 * (2**8 - 1) * math.pi)
        batch = ext.evaluate(pts)
        assert isinstance(batch, list) and len(batch) == len(pts)
        for p, got in zip(pts, batch):
            want = ext.evaluate(p)
            assert abs(got - want) <= 4e-15 * abs(want), p
        # a list on the positive tower alone gives the same values as within the mixed batch
        upper = [p for p in pts if p._phi_cmp_pi(0) >= 0]
        assert ext.evaluate(upper) == [v for p, v in zip(pts, batch) if p._phi_cmp_pi(0) >= 0]
        assert ext.evaluate([]) == []

    def test_a_point_beyond_the_built_sheets_is_named(self, ext):
        inside = sample_quadratic_domain(certify_quadratic_domain(ext).quad, 4, 5, max_abs_arg=10 * math.pi)
        ext.evaluate(inside)  # must not raise
        for beyond in (LPoint(1e-300, phi_pi=2**8 + 1, phi_rem=0.5), LPoint(1e-300, phi_pi=-300)):
            with pytest.raises(OutsideExtensionDomain, match=re.escape(repr(beyond))):
                ext.evaluate(inside + [beyond] + inside)

    def test_negative_argument_error_names_the_callers_point(self, ext):
        # the mirrored tower sees phi = 301 pi; the message names the point as given
        z = LPoint(1e-3, phi_pi=-300)
        with pytest.raises(OutsideExtensionDomain) as info:
            ext.evaluate(z)
        assert repr(z) in str(info.value) and "301" not in str(info.value)
        far = LPoint(0.9, phi_pi=-2)
        with pytest.raises(OutsideExtensionDomain, match=re.escape(repr(far))):
            ext.evaluate(far)

    def test_inputs_the_array_walk_cannot_take_go_point_by_point(self, ext):
        # 7/2 pi + 0.125 on level 2, carried as 3 pi + (pi/2 + 0.125), takes the array walk with the rest
        cert = certify_quadratic_domain(ext)
        pts = sample_quadratic_domain(cert.quad, 40, 3, max_abs_arg=0.98 * (2**8 - 1) * math.pi)
        odd = LPoint(0.5 * ext.positive.levels[2].t, phi_pi=3, phi_rem=math.pi / 2 + 0.125)
        mixed = pts[:20] + [odd] + pts[20:]
        for got, p in zip(ext.evaluate(mixed), mixed):
            want = ext.evaluate(p)
            assert abs(got - want) <= 4e-15 * abs(want), p
        # a multiple of 2^60 leaves the int64 walk: the whole list takes the single-point path
        beyond = LPoint(1e-300, phi_pi=2**60)
        assert LPointArray.from_points(mixed + [beyond]) is None
        with pytest.raises(OutsideExtensionDomain, match=re.escape(repr(beyond))):
            ext.evaluate(mixed + [beyond, LPoint(1e-300, phi_pi=-300)])


class TestPointArrays:
    """An LPointArray unwinds exactly as the list of the same points does."""

    @pytest.fixture(
        scope="class", params=["1/3", "1/2", "2/3", "3/4", "3/2", "sqrt2", "golden", "curved", "cusp", *SC_VERTICES]
    )
    def ext(self, request):
        return extension_of(request.param)

    def test_array_and_list_give_the_same_bits(self, ext):
        quad = certify_quadratic_domain(ext).quad
        fit_samples = SamplingPlan(rho0=0.5 * quad.c).samples(quad)[0]
        deep_points = sample_quadratic_domain(quad, 300, 7, max_abs_arg=0.98 * (2**8 - 1) * math.pi)
        deep = LPointArray.from_points(deep_points)
        for arr in (fit_samples, deep):
            got = ext.evaluate(arr)
            assert isinstance(got, list) and len(got) == len(arr)
            assert np.array(got).tobytes() == np.array(ext.evaluate(list(arr))).tobytes()
        half = len(fit_samples) // 2
        upper = LPointArray(fit_samples.r[half:], fit_samples.phi_pi[half:], fit_samples.phi_rem[half:])
        assert np.array(ext.evaluate(upper)).tobytes() == np.array(ext.evaluate(list(upper))).tobytes()

    def test_a_point_outside_is_named(self, ext):
        inside = sample_quadratic_domain(certify_quadratic_domain(ext).quad, 4, 5, max_abs_arg=10 * math.pi)
        outside = (LPoint(1e-300, phi_pi=2**8 + 1, phi_rem=0.5), LPoint(1e-300, phi_pi=-300), LPoint(0.9, phi_pi=-2))
        for beyond in outside:
            with pytest.raises(OutsideExtensionDomain, match=re.escape(repr(beyond))):
                ext.evaluate(LPointArray.from_points(inside + [beyond] + inside))


class TestDeepBatch:
    """Sector indices above 61 leave int64 on a K = 72 tower: such lists go point by point."""

    @pytest.fixture(scope="class")
    def ext(self):
        return build_extension(model_corner_germ(Fraction(1, 2)), K=72)

    def test_a_point_above_sector_61_sends_the_list_point_by_point(self, ext):
        deep = LPoint(0.5 * ext.positive.levels[65].t, phi_pi=2**64 + 3, phi_rem=0.25)
        mirrored = LPoint(0.5 * ext.negative.levels[63].t, phi_pi=-(2**62) - 5, phi_rem=-0.5)
        shallow = [LPoint(0.5 * ext.positive.levels[k].t, phi_pi=2**k - 1, phi_rem=0.5) for k in range(1, 9)]
        for points in (shallow + [deep] + shallow, shallow + [mirrored]):
            assert ext.evaluate(points) == [ext.evaluate(p) for p in points]

    def test_the_first_point_outside_is_named(self, ext):
        inside = [LPoint(0.5 * ext.positive.levels[k].t, phi_pi=2**k - 1, phi_rem=0.5) for k in (3, 64)]
        for beyond in (LPoint(1e-300, phi_pi=2**80), LPoint(0.9, phi_pi=2**62 + 1), LPoint(1e-300, phi_pi=-(2**75))):
            with pytest.raises(OutsideExtensionDomain, match=re.escape(repr(beyond))):
                ext.evaluate(inside + [beyond, LPoint(1e-300, phi_pi=2**90)])

    def test_a_point_array_above_sector_61_goes_point_by_point(self, ext):
        # a multiple below 2^60 reaches past sector 61 only through its float remainder
        deep = LPoint(0.5 * ext.positive.levels[65].t, phi_pi=3, phi_rem=2.0**64 * math.pi)
        shallow = [LPoint(0.5 * ext.positive.levels[k].t, phi_pi=2**k - 1, phi_rem=0.5) for k in range(1, 9)]
        points = shallow + [deep] + shallow
        assert ext.evaluate(LPointArray.from_points(points)) == [ext.evaluate(p) for p in points]

    def test_shallow_lists_keep_the_array_walk(self, ext):
        # every index at most 61 on the deep tower: the array walk, within the batch tolerance
        pts = [
            LPoint(0.5 * ext.positive.levels[k].t, phi_pi=sign * (2**k - 1), phi_rem=0.5)
            for k in range(1, 61)
            for sign in (1, -1)
        ]
        for p, v in zip(pts, ext.evaluate(pts)):
            want = ext.evaluate(p)
            assert abs(v - want) <= 4e-15 * abs(want)

