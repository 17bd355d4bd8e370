"""Scaled numeric power series: composition, reversion, Newton inversion."""

import numpy as np
import pytest

from quasimap.errors import InversionFailure
from quasimap.powerseries import AnalyticFunc, PowerSeries


class TestBasics:
    def test_eval_matches_unscaled_polynomial(self, rng):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = PowerSeries.from_unscaled(a, scale=0.3, radius=1.0)
        z = 0.17 - 0.05j
        want = sum(c * z**n for n, c in enumerate(a))
        assert abs(f(z) - want) < 1e-14 * max(1, abs(want))

    def test_rescale_preserves_function(self, rng):
        a = rng.normal(size=5)
        f = PowerSeries.from_unscaled(a, scale=1.0)
        g = f.rescaled(0.25)
        z = 0.1 + 0.2j
        assert abs(f(z) - g(z)) < 1e-14

    def test_conjugated_series(self):
        f = PowerSeries.from_unscaled([0, 1j, 2.0])
        g = f.conjugated()
        z = 0.3 + 0.1j
        assert abs(g(z) - np.conj(f(np.conj(z)))) < 1e-15

    def test_derivative(self):
        f = PowerSeries.from_unscaled([1, 2, 3], scale=0.5)
        assert abs(f.eval_deriv(0.2) - (2 + 6 * 0.2)) < 1e-14
        assert abs(f.deriv0() - 2) < 1e-15


class TestComposeRevert:
    def test_compose(self):
        outer = PowerSeries.from_unscaled([0, 1, 1])  # w + w^2
        inner = PowerSeries.from_unscaled([0, 2, 0, -1], scale=0.5)
        got = outer.compose(inner, order=6)
        z = 0.07 + 0.03j
        w = inner(z)
        assert abs(got(z) - (w + w * w)) < 1e-13

    def test_reversion_identity(self, rng):
        for _ in range(10):
            c = 0.2 * (rng.normal(size=8) + 1j * rng.normal(size=8))
            c[0] = 0.0
            c[1] = 1.0 + 0.1 * c[1]
            f = PowerSeries.from_unscaled(c, scale=1.0, radius=1.0)
            g = f.reversion(order=25)
            for w in (0.01 + 0.005j, -0.02j, 0.03):
                assert abs(f(g(w)) - w) < 1e-12

    def test_a_linear_chart_reverts_to_two_coefficients_at_any_order(self):
        for c in ([0, 0.6 - 0.8j], [0, 2.0, 0, 0, 0]):
            f = PowerSeries.from_unscaled(c, scale=0.5, radius=1.0)
            for order in (1, 2, 40, 80):
                g = f.reversion(order=order)
                assert g.order == g.top() == 1
                assert abs(f(g(0.01j)) - 0.01j) < 1e-17

    def test_a_chart_with_three_significant_terms_reverts_far_short_of_order_80(self):
        # order only caps the length: the loop stops where the rest of the series is insignificant on its disk
        f = PowerSeries.from_unscaled([0, 1, 0.1, 0.01])
        g = f.reversion(order=80)
        assert g.order == g.top() < 20
        assert g.coeffs.tobytes() == f.reversion(order=40).coeffs.tobytes()
        for w in (0.1, -0.2j, 0.15 + 0.1j):
            assert abs(f(g(w)) - w) < 1e-15

    def test_reversion_requires_simple_zero(self):
        with pytest.raises(ValueError):
            PowerSeries.from_unscaled([1, 1]).reversion()
        with pytest.raises(InversionFailure):
            PowerSeries.from_unscaled([0, 0, 1]).reversion()

    def test_reversion_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order >= 1"):
            PowerSeries([0.0]).reversion()
        with pytest.raises(ValueError, match="order >= 1"):
            PowerSeries.from_unscaled([0, 1, 0.5]).reversion(order=0)

    def test_newton_inverse(self):
        f = PowerSeries.from_unscaled([0, 1, 0.3j, -0.05], radius=1.0)
        w = 0.1 - 0.04j
        z = f.newton_inverse(w)
        assert abs(f(z) - w) < 1e-13

    def test_newton_inverse_reports_failure(self):
        f = PowerSeries.from_unscaled([0, 1], radius=1.0)
        # force an unreachable target for the linear map restricted to tiny steps
        with pytest.raises(InversionFailure):
            PowerSeries.from_unscaled([0, 1e-30, 1]).newton_inverse(1.0, z0=0.0)


class TestAnalyticFunc:
    def test_exact_preferred(self):
        ser = PowerSeries.from_unscaled([0, 1])
        f = AnalyticFunc(ser, exact=lambda z: 2 * np.asarray(z, dtype=complex))
        assert f(1.0) == 2.0
        assert f.series(1.0) == 1.0

    def test_from_callable_fft(self):
        f = AnalyticFunc.from_callable(lambda z: z / (1 - z), radius=0.9, order=20)
        got = f.series.unscaled()[:5]
        assert np.allclose(got, [0, 1, 1, 1, 1], atol=1e-10)
