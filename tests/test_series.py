"""Algebra of generalized log-power series."""

import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quasimap.errors import NonPositiveValuation
from quasimap.exponents import Exponent
from quasimap.series import LOG_POWER, PURE_POWER, LogPolynomial, LogPowerSeries

from conftest import EXPONENT_POOL, random_series, random_lpoint, series_close
from quasimap.surface import LPoint
from references import filtered_truncate, merged_add, merged_mul


def mono(c, alpha, deg=0):
    return LogPowerSeries.monomial(c, alpha, log_degree=deg)


class TestAdd:
    def test_additive_inverse(self):
        f = mono(1, Fraction(1, 2))
        assert (f + mono(-1, Fraction(1, 2))).terms == {}

    def test_like_term_collection(self):
        s2 = Exponent.generator("sqrt2")
        f = mono(1, s2) + mono(1, s2, deg=1)
        q = f.terms[s2]
        assert q.coeffs == (1 + 0j, 1 + 0j)  # l + 1 at z^sqrt2

    def test_additive_identity(self):
        f = mono(2.5, Fraction(1, 2)) + mono(1j, Fraction(3, 2))
        assert (f + LogPowerSeries.zero()) == f

    def test_truncation_bound_is_min(self):
        f = LogPowerSeries({Exponent(1): LogPolynomial([1])}, r_max=2.0)
        g = LogPowerSeries({Exponent(2): LogPolynomial([1])}, r_max=3.0)
        assert (f + g).r_max == 2.0


class TestMul:
    def test_exponent_addition(self):
        f = mono(1, Fraction(1, 2))
        assert (f * f) == mono(1, 1)

    def test_log_poly_product(self):
        f = mono(1, 1, deg=1)  # l * z
        p = (f * f).terms[Exponent(2)]
        assert p.coeffs == (0j, 0j, 1 + 0j)  # l^2 z^2

    def test_square_of_two_roots(self):
        # brute-force oracle: enumerate cross terms in a plain dict
        f = mono(1, Fraction(1, 3)) + mono(1, Fraction(2, 3))
        expect = {}
        for a in (Fraction(1, 3), Fraction(2, 3)):
            for b in (Fraction(1, 3), Fraction(2, 3)):
                expect[a + b] = expect.get(a + b, 0) + 1
        got = f * f
        assert {e.rational: q.coeffs[0] for e, q in got.terms.items()} == {
            k: complex(v) for k, v in expect.items()
        }
        assert got == mono(1, Fraction(2, 3)) + mono(2, 1) + mono(1, Fraction(4, 3))

    def test_product_truncation_every_kept_term_exact(self):
        # f known to 2, g known to 3; first unknown product exponent is min(2+1, 3+1/2)
        f = LogPowerSeries({Exponent(Fraction(1, 2)): LogPolynomial([1])}, r_max=2.0)
        g = LogPowerSeries({Exponent(1): LogPolynomial([1])}, r_max=3.0)
        assert (f * g).r_max == 3.0
        assert (g * f).r_max == 3.0

    def test_valuation_additivity_structural(self):
        f = mono(2, Fraction(1, 2)) + mono(1, 2)
        g = mono(3j, Fraction(1, 3))
        assert (f * g).valuation() == Exponent(Fraction(5, 6))


class TestCompose:
    def test_square_outer(self):
        outer = mono(1, 2)
        inner = mono(1, Fraction(1, 2)) + mono(1, 1)
        got = outer.compose_power_substitute(inner)
        want = mono(1, 1) + mono(2, Fraction(3, 2)) + mono(1, 2)
        assert series_close(got, want)

    def test_identity_outer(self):
        inner = mono(1.5, Fraction(1, 2)) + mono(2j, Fraction(7, 3))
        got = mono(1, 1).compose_power_substitute(inner)
        assert series_close(got, inner)

    def test_affine_outer(self):
        s2 = Exponent.generator("sqrt2")
        outer = mono(1, 0) + mono(1, 1)
        got = outer.compose_power_substitute(mono(1, s2))
        assert series_close(got, mono(1, 0) + mono(1, s2))

    def test_zero_valuation_rejected(self):
        inner = mono(1, 0) + mono(1, 1)
        with pytest.raises((NonPositiveValuation, ValueError)):
            mono(1, 2).compose_power_substitute(inner)

    def test_fractional_outer_goes_through_pow_rational(self):
        inner = mono(4, 1) + mono(1, 2)
        got = inner.pow_rational(Fraction(1, 2))
        # sqrt(4z + z^2) = 2 z^(1/2) (1 + z/4)^(1/2) = 2 z^(1/2) + z^(3/2)/4 - ...
        assert abs(got.terms[Exponent(Fraction(1, 2))].coeffs[0] - 2) < 1e-14
        assert abs(got.terms[Exponent(Fraction(3, 2))].coeffs[0] - 0.25) < 1e-14


class TestTruncate:
    def test_filter_by_exponent(self):
        f = mono(1, Fraction(1, 2)) + mono(1, 1) + mono(1, Fraction(3, 2))
        got = f.truncate(1)
        assert set(got.terms) == {Exponent(Fraction(1, 2)), Exponent(1)}
        assert got.r_max == 1

    def test_truncate_to_zero(self):
        f = mono(3, 0) + mono(1, Fraction(1, 2))
        got = f.truncate(0)
        assert set(got.terms) == {Exponent(0)}
        assert f.truncate(0).terms[Exponent(0)].coeffs == (3 + 0j,)

    def test_truncate_composition_law(self, rng):
        for _ in range(30):
            f = random_series(rng)
            r1, r2 = sorted(rng.uniform(0.2, 3.0, size=2))
            a = f.truncate(r1).truncate(r2)
            b = f.truncate(min(r1, r2))
            assert a == b


def _bits(f: LogPowerSeries):
    """The terms in their order, every coefficient as its exact bits, and the bound."""
    return [(a, [(c.real.hex(), c.imag.hex()) for c in q.coeffs]) for a, q in f.terms.items()], f.r_max


# coefficients that cancel often, so that merged sums vanish and their exponents leave and re-enter the order
_coeff = st.sampled_from([1.0, -1.0, 0.5, 1j, -1j, 0.25 - 2j])
_terms = st.lists(st.tuples(st.sampled_from(EXPONENT_POOL), st.lists(_coeff, min_size=1, max_size=3)), max_size=6)
# float bounds at an exponent, and 2e-12 or more off it on either side
_offsets = st.sampled_from([0.0, 2e-12, -2e-12, 1e-9, 0.3])
_near = st.builds(lambda e, d: e.value() + d, st.sampled_from(EXPONENT_POOL), _offsets)
_bound = st.one_of(st.just(math.inf), st.sampled_from(EXPONENT_POOL), _near)


class TestOneMerge:
    """The constructor's one merge and bound against the merging algebra it replaced (tests/references.py)."""

    @given(_terms, _bound, _terms, _bound, _bound)
    def test_add_mul_truncate_match_the_merging_algebra_bit_for_bit(self, tf, rf, tg, rg, r):
        f, g = LogPowerSeries(tf, rf), LogPowerSeries(tg, rg)
        results = [(f + g, merged_add(f, g)), (f * g, merged_mul(f, g)), (f.truncate(r), filtered_truncate(f, r))]
        # the two differ only on an exponent within 1e-12 above a float bound, which the horizon slack now keeps
        exps = set(f.terms) | set(g.terms) | {a + b for a in f.terms for b in g.terms}
        floats = [b for s, _ in results for b in (s.r_max, r) if isinstance(b, float)]
        assume(not any(0 < e.value() - b <= 1e-12 for e in exps for b in floats))
        for new, old in results:
            assert _bits(new) == _bits(old)

    def test_an_exponent_within_the_slack_of_a_float_bound_is_kept(self):
        one = Exponent(1)
        assert set(mono(1, 1).truncate(1.0 - 5e-13).terms) == {one}
        assert mono(1, 1).truncate(1.0 - 2e-12).terms == {}
        assert set((mono(1, Fraction(1, 2)) * mono(1, Fraction(1, 2))).truncate(1.0 - 5e-13).terms) == {one}


class TestEvalFinite:
    def test_half_power_on_second_sheet(self):
        f = mono(1, Fraction(1, 2))
        z = LPoint(4.0, phi_pi=2)  # (4, 2pi)
        assert abs(f.eval_finite(z) - (-2.0)) < 1e-14

    def test_log_term(self):
        f = mono(1, 0, deg=1)  # log z
        z = LPoint(math.e, phi_pi=0, phi_rem=math.pi / 2)
        assert abs(f.eval_finite(z) - (1 + 1j * math.pi / 2)) < 1e-14

    def test_irrational_power_vs_exponential_oracle(self, rng):
        s2 = Exponent.generator("sqrt2")
        f = mono(1, s2)
        for _ in range(50):
            z = random_lpoint(rng)
            oracle = cmath.exp(math.sqrt(2) * (math.log(z.r) + 1j * z.phi))
            assert abs(f.eval_finite(z) - oracle) < 1e-14 * max(1.0, abs(oracle))


class TestSeriesClass:
    def test_pure_power(self):
        s2 = Exponent.generator("sqrt2")
        assert (mono(1, s2) + mono(1, s2 * 2)).series_class() == PURE_POWER

    def test_log_power(self):
        assert (mono(1, 1) + mono(1, 2, deg=1)).series_class() == LOG_POWER

    def test_empty_is_pure(self):
        assert LogPowerSeries.zero().series_class() == PURE_POWER


class TestRingProperties:
    def test_ring_axioms_random(self, rng):
        for _ in range(60):
            f, g, h = (random_series(rng) for _ in range(3))
            assert series_close((f + g) + h, f + (g + h), 1e-12)
            assert series_close(f + g, g + f, 0.0)
            assert series_close(f * g, g * f, 1e-12)
            assert series_close((f * g) * h, f * (g * h), 1e-11)
            assert series_close(f * (g + h), f * g + f * h, 1e-11)

    def test_valuation_additive(self, rng):
        for _ in range(60):
            f, g = random_series(rng), random_series(rng)
            assert (f * g).valuation() == f.valuation() + g.valuation()

    def test_eval_is_homomorphism(self, rng):
        for _ in range(40):
            f, g = random_series(rng), random_series(rng)
            z = random_lpoint(rng)
            fa, ga = f.eval_finite(z), g.eval_finite(z)
            sa = (f + g).eval_finite(z)
            pa = (f * g).eval_finite(z)
            assert abs(sa - (fa + ga)) < 1e-12 * max(1.0, abs(fa) + abs(ga))
            assert abs(pa - fa * ga) < 1e-12 * max(1.0, abs(fa * ga))

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(EXPONENT_POOL),
                st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False), min_size=1, max_size=3),
                max_size=5,
            ),
            min_size=2,
            max_size=2,
        ),
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=-4 * math.pi, max_value=4 * math.pi),
    )
    def test_eval_is_homomorphism_property(self, terms, r, arg):
        f, g = (LogPowerSeries({a: LogPolynomial(cs) for a, cs in t.items()}) for t in terms)
        z = LPoint(r, arg)
        fa, ga = f.eval_finite(z), g.eval_finite(z)
        # rounding is relative to the terms' magnitudes, which cancelling coefficients can leave far above |f(z)|
        mf, mg = _magnitude(f, z), _magnitude(g, z)
        assert abs((f + g).eval_finite(z) - (fa + ga)) <= 1e-12 * max(1.0, mf + mg)
        assert abs((f * g).eval_finite(z) - fa * ga) <= 1e-12 * max(1.0, mf * mg)


def _magnitude(f: LogPowerSeries, z: LPoint) -> float:
    """sum |c| |log z|^d |z|^a over the terms c (log z)^d z^a of f."""
    log_abs = abs(z.log())
    return sum(abs(c) * log_abs**d * z.r ** a.value() for a, q in f.terms.items() for d, c in enumerate(q.coeffs))


class TestSerialization:
    def test_json_roundtrip(self, rng):
        for _ in range(10):
            f = random_series(rng)
            g = LogPowerSeries.from_json(f.to_json())
            assert f == g

    @given(
        st.dictionaries(
            st.sampled_from(EXPONENT_POOL),
            st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
            max_size=5,
        ),
        st.one_of(st.just(math.inf), st.sampled_from(EXPONENT_POOL), st.floats(min_value=0.0, max_value=10.0)),
    )
    def test_json_text_roundtrip(self, terms, r_max):
        # through JSON text: every coefficient, the exact exponents and the bound come back
        f = LogPowerSeries({a: LogPolynomial(cs) for a, cs in terms.items()}, r_max)
        assert LogPowerSeries.from_json(json.loads(json.dumps(f.to_json()))) == f

    def test_truncation_bound_survives(self):
        f = LogPowerSeries({Exponent(1): LogPolynomial([1j])}, r_max=2.5)
        assert LogPowerSeries.from_json(f.to_json()).r_max == 2.5

    def test_a_term_above_the_files_own_bound_is_refused(self):
        # the constructor drops such a term for arithmetic; a file that holds one contradicts itself
        data = {"terms": [{"exponent": Exponent(Fraction(1, 2)).to_json(), "log_poly": [[1.0, 0.0]]}],
                "truncation_bound": 0.3}
        with pytest.raises(ValueError, match=r"z\^\(1/2\).*truncation_bound 0\.3"):
            LogPowerSeries.from_json(data)
        data["truncation_bound"] = 0.5
        assert LogPowerSeries.from_json(data).support() == [Exponent(Fraction(1, 2))]
