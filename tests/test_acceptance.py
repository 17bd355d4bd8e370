"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the summary lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from quasimap.corners import CornerSpec, PuiseuxArc, normalize_corner
from quasimap.errors import DichotomyViolation, FailedCertificate
from quasimap.expansion import (
    ExpansionModel,
    SamplingPlan,
    dichotomy_check,
    error_tower_constants,
    fit_expansion,
    verify_asymptotic,
)
from quasimap.exponents import Exponent, IRRATIONAL_PI_MULTIPLE
from quasimap.powerseries import AnalyticFunc, PowerSeries
from quasimap.reflection import (
    MapGerm,
    build_extension,
    certify_quadratic_domain,
    sample_quadratic_domain,
)
from quasimap.scmap import (
    MobiusTransform,
    model_corner_germ,
    sc_corner_germ,
    sc_evaluate,
    solve_sc,
)
from quasimap.series import LogPowerSeries, zpow
from quasimap.surface import LPoint, Sector, in_Tp, reflect_tau

from conftest import random_series, random_lpoint, series_close
from references import check_recurrences, cross_ratio, reflect_across

SQRT2 = Exponent.generator("sqrt2")
GOLDEN = Exponent.generator("golden")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def test_criterion_1_series_algebra():
    """Ring axioms, valuation additivity, eval homomorphism on 1000 random series."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    pool = [random_series(rng) for _ in range(1000)]
    worst_eval = 0.0
    for i in range(0, 999, 3):
        f, g, h = pool[i], pool[i + 1], pool[(i + 2) % 1000]
        assert series_close((f + g) + h, f + (g + h), 1e-12)
        assert series_close(f * g, g * f, 1e-12)
        assert series_close((f * g) * h, f * (g * h), 1e-12)
        assert series_close(f * (g + h), f * g + f * h, 1e-12)
        assert (f * g).valuation() == f.valuation() + g.valuation()
        z = random_lpoint(rng)
        fa, ga = f.eval_finite(z), g.eval_finite(z)
        duo = abs((f + g).eval_finite(z) - (fa + ga)) / max(1.0, abs(fa) + abs(ga))
        prod = abs((f * g).eval_finite(z) - fa * ga) / max(1.0, abs(fa * ga))
        worst_eval = max(worst_eval, duo, prod)
        assert worst_eval < 1e-12
    elapsed = time.time() - t0
    report(
        "1 series-algebra",
        elapsed < 10.0,
        f"1000 series, worst homomorphism defect {worst_eval:.2e}, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_surface_geometry():
    """Reflection identities at 1e6 points; fixed-ray and nesting exact."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    n = 10**6
    k = rng.integers(0, 11, size=n)
    phi = rng.uniform(2.0**k * math.pi, 2.0 ** (k + 1) * math.pi)
    r = rng.uniform(0.05, 1.0, size=n)
    alpha = rng.uniform(0.05, 2.0, size=n)

    # identity a): conj(log o tau_k) = log - i 2^(k+1) pi.  The imaginary
    # parts are IEEE negations of each other, so the defect is exactly 0.
    c = (2.0 ** (k + 1)) * math.pi
    defect_a = np.max(np.abs((-(c - phi)) - (phi - c)))

    # identity b): conj(z^alpha o tau_k) = exp(-i alpha 2^(k+1) pi) z^alpha,
    # both sides by their own formula; 80-bit intermediates keep the check
    # about the identity rather than about ulps of huge angle products.
    cL = (2.0 ** (k + 1)).astype(np.longdouble) * np.longdouble(math.pi)
    phiL = phi.astype(np.longdouble)
    aL = alpha.astype(np.longdouble)
    mag = np.exp(aL * np.log(r.astype(np.longdouble)))
    th_l = -aL * (cL - phiL)
    lhs = (mag * np.cos(th_l)).astype(float) + 1j * (mag * np.sin(th_l)).astype(float)
    th_a, th_z = -aL * cL, aL * phiL
    re = np.cos(th_a) * np.cos(th_z) - np.sin(th_a) * np.sin(th_z)
    im = np.sin(th_a) * np.cos(th_z) + np.cos(th_a) * np.sin(th_z)
    rhs = (mag * re).astype(float) + 1j * (mag * im).astype(float)
    defect_b = np.max(np.abs(lhs - rhs))
    assert defect_a == 0.0
    assert defect_b < 1e-12

    # fixed ray and full turn, exact in the pi-multiple representation
    for kk in range(0, 11):
        ray = LPoint(0.7, phi_pi=2**kk)
        assert reflect_tau(kk, ray) == ray
        turn = reflect_tau(kk, LPoint(0.7, phi_pi=2 ** (kk + 1)))
        assert turn.phi_pi == 0 and turn.phi_rem == 0.0
        assert Sector("T", kk).contains(ray) and Sector("T", kk + 1).contains(ray) and in_Tp(kk + 1, ray)
    # nesting: T_k inside T_k', and T_(k+1) = T_k union T'_(k+1) on a grid
    for kk in range(0, 8):
        for m8 in range(0, 2 ** (kk + 1) * 8 + 1):
            z = LPoint(1.0, phi_pi=Fraction(m8, 8))
            if Sector("T", kk).contains(z):
                assert Sector("T", kk + 1).contains(z)
            assert Sector("T", kk + 1).contains(z) == (Sector("T", kk).contains(z) or in_Tp(kk + 1, z))
    elapsed = time.time() - t0
    report(
        "2 surface-geometry",
        elapsed < 30.0,
        f"1e6 points, defects a) {defect_a:.1e} b) {defect_b:.2e}, exact ray/nesting, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_constant_tower():
    """Exact constant ladder for several germs, 12 levels, plus growth rate."""
    poly = solve_sc([0, 2, 2 + 1j, 1j], [Fraction(1, 2)] * 4)
    germs = [
        model_corner_germ(Fraction(1, 2)),
        model_corner_germ(SQRT2),
        sc_corner_germ(poly, 0),
    ]
    for germ in germs:
        ext = build_extension(germ, K=12)
        tower = ext.positive
        alpha = tower.alpha
        E = germ.growth
        for kk, lv in enumerate(tower.levels):
            if kk:
                assert lv.r * 32.0 == tower.levels[kk - 1].r  # power-of-two ladder is exact
            assert lv.E == E * 4.0**kk
            assert lv.t == (lv.r / (16.0 * lv.E)) ** (1.0 / alpha)
            assert lv.s == min(lv.t, lv.E ** (-2.0 / alpha))
        cert = certify_quadratic_domain(ext)
        rate = 128.0 ** (1.0 / alpha)
        assert cert.rate == rate
        for kk in range(12):
            ratio = tower.levels[kk].t / tower.levels[kk + 1].t
            assert abs(ratio - rate) <= 1e-12 * rate
        t0 = tower.levels[0].t
        for kk in range(1, 13):
            # the certified growth constant, and the exact-rate bound scaled by t_0
            assert tower.levels[kk].t >= cert.K_growth ** (-kk) * (1 - 1e-12)
            assert tower.levels[kk].t >= t0 * rate ** (-kk) * (1 - 1e-12)
        sched = error_tower_constants(tower, R=2.0 * alpha, alpha=germ.alpha)
        assert check_recurrences(sched)
        logM = sched.M_log
        for row in sched.levels:
            assert row["log_q"] == -(row["k"] ** 2) * logM
    report(
        "3 constant-tower",
        True,
        "r/32, E*4^k, t_k, s_k, D_(k+1)=3L^kD_k, q_k=M^(-k^2) exact; t_k >= K_growth^(-k), ratio 128^(1/alpha), K=12",
    )


def test_criterion_4_sector_continuation():
    """Extension equals exp(alpha log z) to 1e-10 on 1e4 certified points per angle."""
    t0 = time.time()
    worst_all = 0.0
    for alpha in (Fraction(1, 3), Fraction(1, 2), SQRT2, GOLDEN):
        germ = model_corner_germ(alpha)
        ext = build_extension(germ, K=8)
        cert = certify_quadratic_domain(ext)
        av = germ.alpha_value
        pts = sample_quadratic_domain(cert.quad, 10_000, 4040, max_abs_arg=64 * math.pi)
        worst = 0.0
        for p in pts:
            got = ext.evaluate(p)
            want = cmath.exp(av * complex(math.log(p.r), p.phi))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst < 1e-10
        worst_all = max(worst_all, worst)
    elapsed = time.time() - t0
    report(
        "4 sector-continuation",
        elapsed < 60.0,
        f"4 angles x 1e4 points, |arg| <= 64 pi, worst {worst_all:.2e} < 1e-10, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_asymptotic_certificates():
    """Exact-model certificates at R <= 3 alpha; planted failures detected."""
    worst_ratio = 0.0
    for alpha in (Fraction(1, 3), Fraction(1, 2), SQRT2, GOLDEN):
        germ = model_corner_germ(alpha)
        av = germ.alpha_value
        g = LogPowerSeries.monomial(1.0, germ.alpha)
        domain = certify_quadratic_domain(build_extension(germ, K=4)).quad
        plan = SamplingPlan(rho0=0.3 * domain.c, n_shells=8)
        for R in (av, 2 * av, 3 * av):
            cert = verify_asymptotic(
                lambda pts: [germ.eval_lpoint(p) for p in pts], g, R, domain, plan=plan, tol=1e-10
            )
            assert cert.passed
            worst_ratio = max(worst_ratio, max(cert.ratios))
    assert worst_ratio < 1e-10

    # planted wrong leading exponent fails, with a witness point
    with pytest.raises(FailedCertificate) as err:
        verify_asymptotic(
            lambda pts: [model_corner_germ(Fraction(1, 2)).eval_lpoint(p) for p in pts],
            LogPowerSeries.monomial(1.0, Fraction(1, 3)),
            1.0 / 3.0,
            certify_quadratic_domain(build_extension(model_corner_germ(Fraction(1, 2)), K=4)).quad,
            tol=1e-6,
        )
    witness = err.value.certificate.witness()
    assert witness is not None and witness.ratio > 1e-6

    # dichotomy: clean irrational fit (at germ scale, where log columns are
    # resolvable), then a planted log term
    ext = build_extension(model_corner_germ(SQRT2), K=6)
    model = ExpansionModel(SQRT2, R=2 * SQRT2.value(), max_log_degree=1)
    plan = SamplingPlan(rho0=0.5 * ext.positive.levels[0].t, n_shells=14, one_sided=True)
    fit = fit_expansion(ext.evaluate, model, plan, domain=None)
    verdict = dichotomy_check(fit.series, IRRATIONAL_PI_MULTIPLE, tol=1e-8)
    assert verdict["passed"] and verdict["max_log_coefficient"] < 1e-8
    planted = fit.series + LogPowerSeries.monomial(1e-3, SQRT2 * 2, log_degree=1)
    with pytest.raises(DichotomyViolation) as err2:
        dichotomy_check(planted, IRRATIONAL_PI_MULTIPLE, tol=1e-8)
    assert any(abs(t[2]) >= 1e-3 * 0.999 for t in err2.value.offending_terms)
    report(
        "5 asymptotic-certificates",
        True,
        f"sector ratios max {worst_ratio:.1e} < 1e-10 up to R=3a; planted exponent and 1e-3 log term both flagged",
    )


def test_criterion_6_sc_oracle():
    """Rectangle vs elliptic integral, square symmetry, germ series, solver speed."""
    from scipy.integrate import quad as scipy_quad
    from scipy.special import ellipk

    m = 0.5
    kmod = math.sqrt(m)
    K, Kp = ellipk(m), ellipk(1 - m)
    t0 = time.time()
    rect = solve_sc([-K, K, K + 1j * Kp, -K + 1j * Kp], [Fraction(1, 2)] * 4)
    rect_time = time.time() - t0

    def oracle(zeta: complex) -> complex:
        def ig(s, part):
            t = zeta * s
            w = -0.5 * (np.log(1 - t) + np.log(1 + t) + np.log(1 - kmod * t) + np.log(1 + kmod * t))
            v = zeta * np.exp(w)
            return v.real if part == 0 else v.imag

        re, _ = scipy_quad(lambda s: ig(s, 0), 0, 1, limit=400)
        im, _ = scipy_quad(lambda s: ig(s, 1), 0, 1, limit=400)
        return complex(re, im)

    M = MobiusTransform.from_triple((-1.0, 0.0, 1.0), (-1.0, 1.0, -1.0 / kmod))
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
        worst = max(worst, abs(sc_evaluate(rect, z) - oracle(complex(M(z)))))
    assert worst < 1e-8

    t0 = time.time()
    square = solve_sc([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], [Fraction(1, 2)] * 4)
    square_time = time.time() - t0
    x = list(square.prevertices)
    sym = abs(cross_ratio(x[0], x[1], x[2], x[3]) - cross_ratio(x[1], x[2], x[3], x[0]))
    assert sym < 1e-9

    germ = sc_corner_germ(rect, 0)
    gap = min(abs(rect.prevertices[j] - rect.prevertices[0]) for j in range(1, 4))
    worst_germ = 0.0
    for theta in (0.3, 1.0, 1.7, 2.5):
        for rr in (0.005 * gap, 0.03 * gap, 0.099 * gap):
            z = cmath.rect(rr, theta)
            ser = germ.series.eval_finite(LPoint(rr, theta))
            quadr = sc_evaluate(rect, rect.prevertices[0] + z) - rect.vertices[0]
            worst_germ = max(worst_germ, abs(ser - quadr) / max(1.0, abs(quadr)))
    assert worst_germ < 1e-8

    # 12-vertex cross, mixed convex/reflex right angles
    cross = [(3, 1), (1, 1), (1, 3), (-1, 3), (-1, 1), (-3, 1), (-3, -1), (-1, -1), (-1, -3), (1, -3), (1, -1), (3, -1)]
    angles = [Fraction(3, 2) if abs(x_) == 1 and abs(y_) == 1 else Fraction(1, 2) for x_, y_ in cross]
    t0 = time.time()
    twelve = solve_sc(cross, angles)
    twelve_time = time.time() - t0
    assert twelve.residual < 1e-10
    assert max(rect_time, square_time, twelve_time) < 10.0
    report(
        "6 sc-oracle",
        True,
        f"elliptic worst {worst:.1e} < 1e-8 (100 pts); square symmetry {sym:.1e} < 1e-9; "
        f"germ vs quadrature {worst_germ:.1e} < 1e-8; 12-gon solve {twelve_time:.1f}s < 10s",
    )


def test_criterion_7_end_to_end_pipeline():
    """Cusp corner normalized exactly, then continued, expanded, certified."""
    t0 = time.time()
    cusp = PuiseuxArc([0, 0, 1, 1j])  # graph of (t^2, t^3)
    ray = PuiseuxArc([0, -1])
    corner = CornerSpec(cusp, ray, 0j, Exponent(1))
    norm, chain = normalize_corner(corner)
    assert chain.m1 == 2 and chain.m2 == 1
    assert norm.angle * (chain.m1 * chain.m2) == Exponent(1)  # exact ledger
    assert chain.angle_ledger_exact()

    # germ on the normalized corner: Psi(z) = -z^(1/2) (a + b z), boundary-matched
    # to arc1 (negative reals) and arc2 (the straightened cusp image)
    a, b = 0.5, 0.15
    phi1_root, rev1 = chain.phi1_root, chain.rev1

    def psi_lpoint(p: LPoint) -> complex:
        rt = zpow(p.log(), 0.5)
        z = zpow(p.log(), 1.0)
        return -rt * (a + b * z)

    def psi_complex(z):
        z = np.asarray(z, dtype=complex)
        return -np.exp(0.5 * np.log(z)) * (a + b * z)

    t_bar = 0.15
    worst_growth = max(
        abs(psi_lpoint(LPoint(rr, ph))) / rr**0.5
        for rr in np.geomspace(1e-6, t_bar, 20)
        for ph in np.linspace(0.0, math.pi, 9)
    )
    germ = MapGerm(
        eval_complex=psi_complex,
        t_bar=t_bar,
        alpha=norm.angle,
        growth=worst_growth * 1.25,
        arc1=norm.arc1,
        arc2=norm.arc2,
        eval_lpoint=psi_lpoint,
        label="cusp-pipeline",
    )
    ext = build_extension(germ, K=6)
    cert = certify_quadratic_domain(ext)

    # the same closed form is single-valued on the log surface: oracle
    worst = 0.0
    for p in sample_quadratic_domain(cert.quad, 500, 707, max_abs_arg=30 * math.pi):
        got = ext.evaluate(p)
        want = psi_lpoint(p)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-10

    # expand the continuation: once at germ scale (tight), once deep inside
    # the certified quadratic domain (noise floor ~ 1e-16 / rho0 there)
    model = ExpansionModel(Exponent(Fraction(1, 2)), R=1.6, guard_terms=5)
    plan_germ = SamplingPlan(rho0=0.3 * ext.positive.levels[0].t, n_shells=10, points_per_shell=48, one_sided=True)
    fit = fit_expansion(ext.evaluate, model, plan_germ, domain=None)
    assert abs(fit.coefficient(Fraction(1, 2)) - (-a)) < 1e-8
    assert abs(fit.coefficient(Fraction(3, 2)) - (-b)) < 1e-8
    assert abs(fit.coefficient(Fraction(1, 1))) < 1e-8
    plan_deep = SamplingPlan(rho0=0.35 * cert.quad.c, n_shells=10, points_per_shell=48)
    fit_deep = fit_expansion(ext.evaluate, model, plan_deep, domain=cert.quad)
    assert abs(fit_deep.coefficient(Fraction(1, 2)) - (-a)) < 1e-8
    assert abs(fit_deep.coefficient(Fraction(3, 2)) - (-b)) < 1e-5

    # certify the expansion on the certified domain
    # certify at R = 1: the remainder is the true z^(3/2) term, so the ratios
    # decrease like |z|^(1/2); the tolerance sits above the ratio floor that
    # the certified-domain depth allows (0.15 * sqrt(rho_min) ~ 1e-6)
    vcert = verify_asymptotic(
        ext.evaluate,
        fit.series,
        1.0,
        cert.quad,
        plan=SamplingPlan(rho0=0.3 * cert.quad.c, n_shells=8),
        tol=1e-5,
    )
    assert vcert.passed
    ratios = vcert.ratios
    assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    sched = error_tower_constants(ext.positive, R=1.0, alpha=Exponent(Fraction(1, 2)), series=fit.series)
    assert check_recurrences(sched) and sched.T > 1.0
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        "7 end-to-end",
        True,
        f"angle ledger exact (1/2 * 2 * 1 = 1), oracle defect {worst:.1e}, "
        f"coefficients recovered, certificate passed, {elapsed:.1f}s < 300s",
    )


def test_criterion_8_reflection_involution():
    """Double reflection returns the original for 50 random chart/function pairs."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        n_extra = int(rng.integers(2, 6))
        c = np.zeros(n_extra + 2, dtype=complex)
        c[1] = 1.0
        tail = 0.08 * (rng.normal(size=n_extra) + 1j * rng.normal(size=n_extra))
        tail /= max(1.0, 2.0 * np.sum(np.arange(2, n_extra + 2) * np.abs(tail)))
        c[2:] = tail
        chart = AnalyticFunc(
            PowerSeries.from_unscaled(c, scale=1.0, radius=1.0),
            exact=lambda z, cs=c: sum(ci * np.asarray(z, dtype=complex) ** i for i, ci in enumerate(cs)),
        )
        p = rng.uniform(0.0, 0.25, size=4)
        p /= max(1.0, p.sum() / 0.8)

        def f(z, cs=c, ps=p):
            z = np.asarray(z, dtype=complex)
            w = sum(pi * z**i for i, pi in enumerate(ps))
            return sum(ci * w**i for i, ci in enumerate(cs))

        twice = reflect_across(chart, reflect_across(chart, f))
        for _ in range(4):
            z = complex(rng.uniform(-0.05, 0.05), rng.uniform(0.002, 0.05))
            worst = max(worst, abs(twice(z) - f(z)))
    assert worst < 1e-12
    report("8 reflection-involution", True, f"50 chart/function pairs, worst defect {worst:.2e} < 1e-12")
