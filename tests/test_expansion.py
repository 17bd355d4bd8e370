"""Expansion fitting, asymptotic certificates, dichotomy, error ladder."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from quasimap.errors import DichotomyViolation, FailedCertificate, IllConditioned
from quasimap.expansion import (
    ExpansionModel,
    SamplingPlan,
    dichotomy_check,
    error_tower_constants,
    fit_expansion,
    verify_asymptotic,
)
from quasimap.exponents import (
    Exponent,
    IRRATIONAL_PI_MULTIPLE,
    RATIONAL_PI_MULTIPLE,
    declare_generator,
)
from quasimap.reflection import build_extension, certify_quadratic_domain
from quasimap.scmap import model_corner_germ, sc_corner_germ, solve_sc
from quasimap.series import LogPowerSeries, zpow
from quasimap.surface import LPoint, QuadraticDomain

from references import check_recurrences, reference_basis, reference_plan_points

SQRT2 = Exponent.generator("sqrt2")
WIDE = QuadraticDomain(0.5, 0.5)


def pointwise(fn):
    """The list callable that fit_expansion and verify_asymptotic sample: fn at each point."""
    return lambda pts: [fn(p) for p in pts]


def lattice_values(model):
    return [e.value() for e in model.basis_exponents()[0]]


class TestModel:
    def test_lattice_contents(self):
        m = ExpansionModel(Exponent(Fraction(1, 2)), R=2.0)
        assert lattice_values(m) == [0.5, 1.0, 1.5, 2.0]

    def test_irrational_lattice(self):
        m = ExpansionModel(SQRT2, R=4.5)
        vals = lattice_values(m)
        s = math.sqrt(2)
        for v in (s, s + 1, s + 2, s + 3, 2 * s, 2 * s + 1, 3 * s):
            assert any(abs(v - x) < 1e-12 for x in vals)

    def test_guard_band_is_beyond_R(self):
        m = ExpansionModel(Exponent(Fraction(1, 2)), R=1.0, guard_terms=3)
        guard = m.basis_exponents()[1]
        assert all(e.value() > 1.0 for e in guard)
        assert len(guard) == 3

    @pytest.mark.parametrize("alpha", [Exponent(Fraction(1, 3)), Exponent(Fraction(3, 2)), SQRT2])
    def test_a_fit_scans_the_lattice_once(self, alpha, monkeypatch):
        model = ExpansionModel(alpha, R=3 * alpha.value())
        # the basis from the one scan: the lattice up to R and the first exponents past it of a full exact scan
        assert model.basis_exponents() == reference_basis(model)
        wide = ExpansionModel(alpha, R=model.R + model.guard_terms * max(alpha.value(), 1.0) + 2.0).basis_exponents()[0]
        assert model.basis_exponents()[1] == [e for e in wide if e.value() > model.R + 1e-12][:3]
        scans = []
        scan = ExpansionModel._scan
        monkeypatch.setattr(ExpansionModel, "_scan", lambda self, *limits: scans.append(limits) or scan(self, *limits))
        fit_expansion(pointwise(lambda p: zpow(p.log(), alpha.value())), model, SamplingPlan(rho0=0.1, n_shells=8))
        assert len(scans) == 1


GRID_ANGLES = [Exponent(Fraction(p, q)) for p, q in [(1, 3), (1, 2), (2, 3), (3, 4), (1, 1), (3, 2), (2, 1), (2, 5)]]
GRID_ANGLES += [SQRT2, Exponent.generator("golden"), Exponent.generator("sqrt3")]


class TestSamplingPlan:
    @pytest.mark.parametrize(
        "plan, domain",
        [
            (SamplingPlan(rho0=0.1, n_shells=8), WIDE),
            (SamplingPlan(rho0=0.2, n_shells=5, points_per_shell=7), QuadraticDomain(0.5, 0.5, mirrored=False)),
            (SamplingPlan(rho0=0.3, n_shells=4, one_sided=True), WIDE),
            (SamplingPlan(rho0=0.02, n_shells=6, points_per_shell=40), None),
            (SamplingPlan(rho0=0.05, n_shells=3, one_sided=True), None),
            (SamplingPlan(rho0=0.9, n_shells=6), QuadraticDomain(0.3, 0.5)),  # the outer shells admit no argument
        ],
    )
    def test_samples_are_the_points_one_at_a_time(self, plan, domain):
        pts, shells = plan.samples(domain)
        want = reference_plan_points(plan, domain)
        assert list(pts) == want and [pts[i] for i in range(len(pts))] == want
        assert [repr(p) for p in pts] == [repr(p) for p in want]
        assert pts.log().tobytes() == np.array([p.log() for p in want]).tobytes()
        # each shell's slice holds its radius, and the slices tile the samples in order
        assert [sl.start for _, sl in shells] == list(range(0, len(pts), plan.points_per_shell))
        for rho, sl in shells:
            assert (pts.r[sl] == rho).all() and sl.stop - sl.start == plan.points_per_shell


class TestFloatFirstScan:
    """The float lattice scan keeps exactly the exponents of the full exact scan (tests/references.py)."""

    @pytest.mark.parametrize("alpha", GRID_ANGLES, ids=str)
    def test_matches_the_full_scan_on_the_grid(self, alpha):
        av = alpha.value()
        # R on lattice points, between them, and within 1e-13 of an integer
        horizons = [f * av for f in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0)] + [n + d for n in (1, 2) for d in (-1e-13, 1e-13)]
        for R in horizons:
            for guard_terms in (1, 2, 3, 4):
                model = ExpansionModel(alpha, R, guard_terms=guard_terms)
                want = reference_basis(model)
                assert model.basis_exponents() == want, (R, guard_terms)

    def test_irrational_near_ties(self):
        # float values that coincide for distinct exponents, and horizons at a lattice float
        declare_generator("near_half", "0.50000000000000001")
        near_half = Exponent.generator("near_half")
        assert near_half.value() == 0.5
        cases = [(near_half, R) for R in (1.0, 1.5, 2.0, 2.5 + 1e-13)]
        cases += [(SQRT2, 1.0 + SQRT2.value()), (SQRT2, 2 * SQRT2.value() - 1e-13), (SQRT2, 2 * SQRT2.value() + 1e-12)]
        golden = Exponent.generator("golden")
        cases += [(golden, 2 * golden.value() - 1.0), (golden, golden.value() + 3.0)]
        # R + 1e-12 equal to the float 1 + 2 (1/3), one ulp below 5/3's value(): the float test keeps 5/3 in the
        # lattice and its value() puts it in the guard band too
        third = Exponent(Fraction(1, 3))
        for R in (1.6666666666656664, 3.333333333332333):
            assert R + 1e-12 in (1 + 2 * third.value(), 2 + 4 * third.value())
            assert (third * round(3 * R)).value() > R + 1e-12
            cases.append((third, R))
        for alpha, R in cases:
            for guard_terms in (1, 3, 6):
                model = ExpansionModel(alpha, R, guard_terms=guard_terms)
                assert model.basis_exponents() == reference_basis(model), (alpha, R, guard_terms)


class TestFit:
    def test_single_term_target(self):
        f = lambda p: zpow(p.log(), SQRT2.value())
        model = ExpansionModel(SQRT2, R=3 * SQRT2.value())
        plan = SamplingPlan(rho0=0.2, n_shells=10, points_per_shell=40)
        fit = fit_expansion(pointwise(f), model, plan, domain=WIDE)
        assert abs(fit.coefficient(SQRT2) - 1.0) < 1e-8
        for e in fit.series.support():
            if e != SQRT2:
                assert abs(fit.series.terms[e].leading) < 1e-8

    def test_synthetic_log_mixture_roundtrip(self):
        def f(p):
            lz = p.log()
            return zpow(lz, 0.5) + 0.3 * lz * zpow(lz, 1.0) + zpow(lz, 1.5)

        model = ExpansionModel(Exponent(Fraction(1, 2)), R=1.6, max_log_degree=1)
        plan = SamplingPlan(rho0=0.2, n_shells=12, points_per_shell=48)
        fit = fit_expansion(pointwise(f), model, plan, domain=WIDE)
        assert abs(fit.coefficient(Fraction(1, 2)) - 1.0) < 1e-8
        assert abs(fit.coefficient(Fraction(1, 1), log_degree=1) - 0.3) < 1e-8
        assert abs(fit.coefficient(Fraction(3, 2)) - 1.0) < 1e-8
        assert abs(fit.coefficient(Fraction(1, 2), log_degree=1)) < 1e-8

    def test_fit_recovers_random_finite_series(self, rng):
        # round trip: fit(eval(g)) == g for well separated exponents
        exps = [Exponent(Fraction(1, 2)), Exponent(1), Exponent(Fraction(3, 2)), Exponent(2)]
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = LogPowerSeries({e: [c] for e, c in zip(exps, coeffs)})
        model = ExpansionModel(Exponent(Fraction(1, 2)), R=2.0)
        plan = SamplingPlan(rho0=0.2, n_shells=10, points_per_shell=40)
        fit = fit_expansion(pointwise(g.eval_finite), model, plan, domain=WIDE)
        for e, c in zip(exps, coeffs):
            assert abs(fit.coefficient(e) - c) < 1e-8

    def test_sc_rectangle_corner_lattice_and_coefficients(self):
        poly = solve_sc([0, 2, 2 + 1j, 1j], [Fraction(1, 2)] * 4)
        germ = sc_corner_germ(poly, 0)
        # exponents lie in (1/2) N, no log terms
        for e in germ.series.support():
            assert (e * 2).is_integer()
        assert germ.series.series_class() == "PURE_POWER"
        model = ExpansionModel(Exponent(Fraction(1, 2)), R=1.5, guard_terms=6)
        plan = SamplingPlan(rho0=0.02 * germ.t_bar, n_shells=10, points_per_shell=40)
        fit = fit_expansion(pointwise(germ.series.eval_finite), model, plan, domain=None)
        for e in model.basis_exponents()[0]:
            want = germ.series.terms.get(e)
            got = fit.coefficient(e)
            if want is None:
                assert abs(got) < 1e-8
            else:
                assert abs(got - want.leading) < 1e-8 * max(1.0, abs(want.leading))

    def test_two_fits_agree_termwise(self):
        # uniqueness surrogate: the same f fitted twice on different plans
        f = pointwise(lambda p: zpow(p.log(), SQRT2.value()) + 0.25j * zpow(p.log(), SQRT2.value() + 1))
        model = ExpansionModel(SQRT2, R=3.2)
        fit1 = fit_expansion(f, model, SamplingPlan(rho0=0.2, n_shells=10, points_per_shell=40), domain=WIDE)
        fit2 = fit_expansion(f, model, SamplingPlan(rho0=0.13, n_shells=11, points_per_shell=52), domain=WIDE)
        for e in fit1.series.support():
            assert abs(fit1.coefficient(e) - fit2.coefficient(e)) < 1e-8

    def test_ill_conditioned_guard(self):
        declare_generator("near_one", "1.0000000000001")
        # 1 + alpha and 2 alpha nearly coincide
        model = ExpansionModel(Exponent.generator("near_one"), R=2.2)
        plan = SamplingPlan(rho0=0.2, n_shells=8, points_per_shell=24)
        with pytest.raises(IllConditioned) as err:
            fit_expansion(pointwise(lambda p: zpow(p.log(), 1.0)), model, plan, domain=WIDE)
        assert err.value.cond > 1e12

    def test_zero_singular_value_is_ill_conditioned(self, monkeypatch):
        # the condition number comes from lstsq's singular values; a zero one raises without a division warning
        lstsq = np.linalg.lstsq

        def singular(a, b, rcond=None):
            sol, res, rank, sv = lstsq(a, b, rcond=rcond)
            return sol, res, rank, np.append(sv[:-1], 0.0)

        monkeypatch.setattr(np.linalg, "lstsq", singular)
        plan = SamplingPlan(rho0=0.2, n_shells=8, points_per_shell=24)
        with pytest.raises(IllConditioned) as err:
            fit_expansion(pointwise(lambda p: zpow(p.log(), 0.5)), ExpansionModel(Exponent(Fraction(1, 2)), R=1.2), plan)
        assert err.value.cond == math.inf


class TestVerify:
    def test_exact_model_remainder_is_identically_zero(self):
        germ = model_corner_germ(SQRT2)
        g = LogPowerSeries.monomial(1.0, SQRT2)
        plan = SamplingPlan(rho0=0.05, n_shells=8)
        for R in (SQRT2.value(), 2 * SQRT2.value(), 3 * SQRT2.value()):
            cert = verify_asymptotic(pointwise(germ.eval_lpoint), g, R, WIDE, plan=plan, tol=1e-10)
            assert cert.passed
            assert max(cert.ratios) == 0.0

    def test_wrong_leading_exponent_fails_with_witness(self):
        f = lambda p: zpow(p.log(), 0.5)
        g = LogPowerSeries.monomial(1.0, Fraction(1, 3))
        with pytest.raises(FailedCertificate) as err:
            verify_asymptotic(pointwise(f), g, 1.0 / 3.0, WIDE, tol=1e-6)
        cert = err.value.certificate
        w = cert.witness()
        assert w is not None and w.ratio > 1e-6
        assert not cert.passed

    def test_tower_extension_passes_against_one_term_series(self):
        ext = build_extension(model_corner_germ(SQRT2), K=6)
        cert_q = certify_quadratic_domain(ext)
        g = LogPowerSeries.monomial(1.0, SQRT2)
        plan = SamplingPlan(rho0=0.3 * cert_q.quad.c, n_shells=8)
        cert = verify_asymptotic(ext.evaluate, g, 2 * SQRT2.value(), cert_q.quad, plan=plan, tol=1e-6)
        assert cert.passed

    @pytest.mark.parametrize("alpha", [Exponent(Fraction(1, 2)), SQRT2, Exponent.generator("golden")])
    def test_unreflected_tower_samples_cancel_exactly(self, alpha):
        # the array germ and the series share one log and one power path: on T_0 the remainder is 0
        ext = build_extension(model_corner_germ(alpha), K=8)
        quad = certify_quadratic_domain(ext).quad
        calls = []

        def f(pts):
            calls.append(len(pts))
            return ext.evaluate(pts)

        plan = SamplingPlan(rho0=0.25 * quad.c)
        try:
            cert = verify_asymptotic(f, LogPowerSeries.monomial(1.0, alpha), 2 * alpha.value(), quad, plan=plan)
        except FailedCertificate as failed:
            # sqrt2 and golden fail on the rounding of their reflected samples (ROADMAP item 4)
            cert = failed.certificate
        assert calls == [len(cert.samples)] == [plan.n_shells * plan.points_per_shell]
        unreflected = [rem for p, rem in cert.samples if p._phi_cmp_pi(0) >= 0 and p._phi_cmp_pi(1) <= 0]
        assert len(unreflected) > 100 and all(rem == 0.0 for rem in unreflected)

    def test_monotone_in_R(self):
        f = lambda p: zpow(p.log(), 0.5) + 0.5 * zpow(p.log(), 3.0)
        g = LogPowerSeries.monomial(1.0, Fraction(1, 2)) + LogPowerSeries.monomial(0.5, 3)
        plan = SamplingPlan(rho0=0.1, n_shells=10)
        passed_at = {}
        for R in (1.4, 1.0, 0.6):
            cert = verify_asymptotic(pointwise(f), g, R, WIDE, plan=plan, tol=1e-6)
            passed_at[R] = cert.passed
        assert passed_at[1.4]
        assert passed_at[1.0] and passed_at[0.6]  # PASS propagates downward
        # far beyond the next support point the contract honestly fails
        with pytest.raises(FailedCertificate) as failed:
            verify_asymptotic(pointwise(f), g, 2.95, WIDE, plan=plan, tol=1e-6)
        assert not failed.value.certificate.passed

    def test_certificate_json(self):
        f = lambda p: zpow(p.log(), 0.5)
        g = LogPowerSeries.monomial(1.0, Fraction(1, 2))
        cert = verify_asymptotic(pointwise(f), g, 1.0, WIDE, tol=1e-8)
        blob = cert.to_json()
        assert blob["passed"] and len(blob["shells"]) > 0


class TestNonFiniteSamples:
    """A sample that is not finite stops a fit or a certificate with a ValueError naming it."""

    PLAN = SamplingPlan(rho0=0.1, n_shells=8)

    @staticmethod
    def planted(bad, where):
        """sqrt z, with the value ``bad`` at every point ``where`` accepts; records the points sampled."""
        seen = []

        def f(pts):
            seen.extend(pts)
            return [bad if where(p) else zpow(p.log(), 0.5) for p in pts]

        return f, seen

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_fit_names_the_sample(self, bad):
        target = self.PLAN.samples(WIDE)[0][100]
        f, _ = self.planted(bad, lambda p: p == target)
        model = ExpansionModel(Exponent(Fraction(1, 2)), R=1.5)
        with pytest.raises(ValueError, match=re.escape(f"the sampled function f is {bad} at sample 100, {target!r}")):
            fit_expansion(f, model, self.PLAN, domain=WIDE)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_verify_names_the_sample_of_f(self, bad):
        g = LogPowerSeries.monomial(1.0, Fraction(1, 2))
        f, seen = self.planted(bad, lambda p: p.r == self.PLAN.rho0 / 8 and p.phi > 0)
        with pytest.raises(ValueError, match="the sampled function f is") as info:
            verify_asymptotic(f, g, 1.0, WIDE, plan=self.PLAN)
        i = next(i for i, p in enumerate(seen) if p.r == self.PLAN.rho0 / 8 and p.phi > 0)
        assert f"at sample {i}, {seen[i]!r};" in str(info.value)

    def test_verify_refuses_a_whole_nan_shell(self):
        # NaN ratios compare False against every bound: without the check this shell would drop out and pass
        g = LogPowerSeries.monomial(1.0, Fraction(1, 2))
        rho = self.PLAN.rho0 / 2**5
        f, seen = self.planted(complex(math.nan, math.nan), lambda p: p.r == rho)
        with pytest.raises(ValueError) as info:
            verify_asymptotic(f, g, 1.0, WIDE, plan=self.PLAN)
        i = next(i for i, p in enumerate(seen) if p.r == rho)
        assert i > 0 and f"the sampled function f is (nan+nanj) at sample {i}, {seen[i]!r};" in str(info.value)

    def test_verify_names_the_series_when_g_R_gives_it(self):
        f = pointwise(lambda p: zpow(p.log(), 0.5))
        g = LogPowerSeries.monomial(complex(math.nan, 0.0), Fraction(1, 2))
        with pytest.raises(ValueError, match=r"the truncated series g_R is \(nan\+nanj\) at sample 0, LPoint\("):
            verify_asymptotic(f, g, 1.0, WIDE, plan=self.PLAN)


class TestDichotomy:
    def test_irrational_clean_passes(self):
        g = LogPowerSeries.monomial(1.0, SQRT2) + LogPowerSeries.monomial(1e-9, SQRT2 * 2, log_degree=1)
        verdict = dichotomy_check(g, IRRATIONAL_PI_MULTIPLE, tol=1e-8)
        assert verdict["passed"]
        assert verdict["max_log_coefficient"] < 1e-8

    def test_rational_is_unconstrained(self):
        g = LogPowerSeries.monomial(1.0, Fraction(1, 2)) + LogPowerSeries.monomial(0.4, 1, log_degree=1)
        verdict = dichotomy_check(g, RATIONAL_PI_MULTIPLE, tol=1e-8)
        assert verdict["passed"]

    def test_an_unknown_angle_class_is_refused(self):
        # a class string that is not one of the two constants used to pass any log term unjudged
        g = LogPowerSeries.monomial(1.0, SQRT2) + LogPowerSeries.monomial(160.0, SQRT2 * 2, log_degree=1)
        for klass in ("irrational", "rational", "", None):
            with pytest.raises(ValueError, match="RATIONAL_PI_MULTIPLE.*IRRATIONAL_PI_MULTIPLE"):
                dichotomy_check(g, klass, tol=1e-8)

    def test_planted_violation(self):
        g = LogPowerSeries.monomial(1.0, SQRT2) + LogPowerSeries.monomial(1e-3, SQRT2 * 2, log_degree=1)
        with pytest.raises(DichotomyViolation) as err:
            dichotomy_check(g, IRRATIONAL_PI_MULTIPLE, tol=1e-8)
        terms = err.value.offending_terms
        assert len(terms) == 1 and terms[0][1] == 1 and abs(terms[0][2]) == pytest.approx(1e-3)


@pytest.fixture(scope="module")
def sched():
    ext = build_extension(model_corner_germ(SQRT2), K=8)
    g = LogPowerSeries.monomial(1.0, SQRT2)
    return ext, error_tower_constants(ext.positive, R=2.0, alpha=SQRT2, series=g)


class TestErrorLadder:

    def test_structural_recurrences_exact(self, sched):
        _, s = sched
        assert check_recurrences(s)

    def test_T_exceeds_R(self, sched):
        _, s = sched
        assert s.T > s.R
        assert s.R < s.S
        assert s.m * SQRT2.value() / 2.0 > s.R

    def test_q_below_p(self, sched):
        _, s = sched
        for row in s.levels[1:]:
            assert row["log_q"] <= row["log_p"] + 1e-12

    def test_final_domain_parameters(self, sched):
        ext, s = sched
        # c_R = exp(log_c_R) > 0: its log is finite, and at most log s_0
        assert math.isfinite(s.log_c_R) and s.log_c_R <= math.log(ext.positive.levels[0].s) and s.C_R > 0
        assert s.M_bar_log > 0

    def test_measured_remainder_below_ladder_bound(self, sched):
        # the sector model has remainder at rounding level; the ladder bound
        # M^(k^2) |z|^T dominates it comfortably on sampled balls (k small
        # enough that q_k is representable)
        ext, s = sched
        g = LogPowerSeries.monomial(1.0, SQRT2)
        gR = g.truncate(s.R)
        for k in (1, 2):
            log_q = s.levels[k]["log_q"]
            if log_q < math.log(1e-300):
                continue
            r = 0.5 * math.exp(log_q)
            for phi_frac in (0.2, 0.9):
                z = LPoint(r, phi_frac * (2**k) * math.pi)
                eps = abs(ext.evaluate(z) - gR.eval_finite(z))
                bound_log = (k**2) * s.M_log + s.T * math.log(r)
                assert eps == 0.0 or math.log(eps) <= bound_log

    def test_sharper_gap_with_series(self):
        tower = build_extension(model_corner_germ(SQRT2), K=4).positive
        g = LogPowerSeries.monomial(1.0, SQRT2)
        with_series = error_tower_constants(tower, R=2.0, alpha=SQRT2, series=g)
        lattice_only = error_tower_constants(tower, R=2.0, alpha=SQRT2)
        assert with_series.S >= lattice_only.S - 1e-12
