"""Schwarz-reflection continuation onto the log surface.

Given a germ on the closed upper half plane that sends the positive direction
into the arc Gamma_1 and the negative direction into Gamma_2 (both regular
analytic arcs through 0 of an analytic corner), the continuation is built as a
tower of reflections across the successive image arcs:

    level charts    phi_0 = phi_(2),   phi_(k+1)(z) = conj(chi_k(phi_(1)(conj z)))
    reflectors      chi_k(z) = conj(phi_k(conj(phi_k^(-1)(z))))     on B(0, r_k/8)
    extension       Phi_(k+1)(z) = conj(chi_k(Phi_k(tau_k z)))      on T'_(k+1)

with the explicit constant ladder

    r_(k+1) = r_k / 32,   E_k = E 4^k,   t_k = (r_k / (16 E_k))^(1/alpha),
    s_k = min(t_k, E_k^(-2/alpha)),

under which |Phi_k| <= E_k |z|^alpha on T_k within |z| < t_k.  The chart
inverses exist on quarter disks and the reflectors obey |chi_k(z)| <= 4|z| by
the Koebe quarter theorem and the growth theorem for normalized univalent
functions; the Cauchy consequence |c_(k,l)| <= 4 (16/r_k)^(l-1) bounds the
reflector coefficients.

Each level is plain data: the chart series phi_k, its reversion and the series
of chi_k.  Where both arcs have closed forms, chi_k is evaluated by one
explicit descent instead of its series: unfolding the definitions gives
chi_k = chi_(k-1) . arc1 . phi_k^(-1) for k >= 1 and
chi_0 = conj . arc2 . conj . phi_0^(-1), one Newton solve per level.

Negative arguments are reached by running the same construction on the
mirrored germ  z -> conj(Phi(-conj z))  with the two arcs swapped and
conjugated, gluing along (r, phi) -> (r, pi - phi).

Since t_k decays at the exact geometric rate (32*4)^(1/alpha) per level, the
union of the sector balls contains a region r < c exp(-C sqrt|phi|): a
quadratic domain, whose constants are certified from the ladder.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    GermTooSmall,
    ImageEscapesChart,
    InversionFailure,
    NormalizationError,
    OutsideExtensionDomain,
)
from .exponents import Exponent
from .powerseries import AnalyticFunc, PowerSeries, require_in_disk
from .surface import LPoint, QuadraticDomain, sector_index_point, sheet_walk

DEFAULT_ORDER = 40


@dataclass
class MapGerm:
    """Boundary-matched germ on the closed upper half plane near 0.

    ``eval_complex`` acts on points of H-bar as complex numbers; an optional
    ``eval_lpoint`` takes log-surface points with arg in [0, pi] directly (used
    to keep closed-form models branch-exact).  ``growth`` is E in the certified
    bound |Phi(z)| <= E |z|^alpha for |z| < t_bar.
    """

    eval_complex: object
    t_bar: float
    alpha: object  # Exponent | float
    growth: float
    arc1: AnalyticFunc
    arc2: AnalyticFunc
    eval_lpoint: object = None
    label: str = ""

    @property
    def alpha_value(self) -> float:
        return self.alpha.value() if isinstance(self.alpha, Exponent) else float(self.alpha)

    def at(self, z: LPoint) -> complex:
        if self.eval_lpoint is not None:
            return self.eval_lpoint(z)
        return complex(self.eval_complex(cmath.rect(z.r, z.phi)))

    def mirrored(self) -> "MapGerm":
        """Germ z -> conj(Phi(-conj z)) with swapped, conjugated arcs."""
        inner_c = self.eval_complex
        mirror_c = lambda z: np.conj(inner_c(-np.conj(z)))
        mirror_l = None
        if self.eval_lpoint is not None:
            inner_l = self.eval_lpoint

            def mirror_l(z: LPoint) -> complex:
                flipped = LPoint(z.r, phi_pi=1 - z.phi_pi, phi_rem=-z.phi_rem)
                return complex(inner_l(flipped)).conjugate()

        return MapGerm(
            eval_complex=mirror_c,
            t_bar=self.t_bar,
            alpha=self.alpha,
            growth=self.growth,
            arc1=self.arc2.conjugated(),
            arc2=self.arc1.conjugated(),
            eval_lpoint=mirror_l,
            label=self.label + "*",
        )


def reflect_across(chart: AnalyticFunc, F):
    """The reflection operator  F  ->  chart o conj o chart^(-1) o F o conj.

    Applied twice it is the identity wherever the compositions stay inside the
    chart's invertibility disk; values escaping that disk raise
    :class:`ImageEscapesChart`.
    """
    rev = chart.series.reversion(order=chart.series.order)

    def reflected(z: complex) -> complex:
        z = complex(z)
        w = complex(F(z.conjugate()))
        seed = rev(w) if abs(w) < rev.radius else None
        try:
            pre = chart.series.newton_inverse(w, z0=seed)
        except InversionFailure as exc:
            raise ImageEscapesChart(f"no chart preimage for |w| = {abs(w):.3e}") from exc
        require_in_disk(pre, chart.radius, "chart preimage")
        return complex(chart(pre.conjugate()))

    return reflected


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


@dataclass(frozen=True)
class Reflector:
    """chi = conj . phi . conj . phi^(-1) as plain data.

    ``chart`` is phi on B(0, r), the target of the Newton solves for
    phi^(-1); ``inverse`` is its reversion on B(0, r/4), their seed; and
    ``series`` is chi itself on B(0, r/8).
    """

    chart: PowerSeries
    inverse: PowerSeries
    series: PowerSeries


def build_chi(phi: AnalyticFunc, r: float, order: int = DEFAULT_ORDER) -> Reflector:
    """Reflector chi = conj . phi . conj . phi^(-1) on B(0, r/8).

    phi must be injective on B(0, r) with phi(0) = 0 and |phi'(0)| = 1; the
    chart inverse exists on B(0, r/4) and |phi^(-1)| <= 4|.| keeps the
    composition inside the chart.
    """
    d0 = phi.deriv0()
    if abs(abs(d0) - 1.0) > 1e-9:
        raise NormalizationError(f"|phi'(0)| = {abs(d0):.12f}, rescale the chart first")
    ser = phi.series
    if ser.scale > r:
        ser = ser.rescaled(r / 2.0)
    rev = ser.reversion(order=order, out_scale=r / 4.0)
    chi_series = ser.conjugated().compose(rev, order=order).rescaled(r / 8.0)
    chi_series.radius = r / 8.0
    return Reflector(ser, rev, chi_series)


@dataclass
class TowerLevel:
    k: int
    r: float
    E: float
    t: float
    s: float
    chi: Reflector


@dataclass
class ReflectionTower:
    """Positive-direction reflection ladder for one germ.

    ``arc1`` and ``arc2`` are the germ's arcs normalized to unimodular
    derivative; their closed forms, when present, drive :meth:`chi`.
    """

    germ: MapGerm
    levels: list  # list[TowerLevel]
    r0: float
    alpha: float
    order: int
    arc1: AnalyticFunc
    arc2: AnalyticFunc

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    def evaluate(self, z: LPoint) -> complex:
        """Unwind Phi_k at z = (r, phi) with 0 <= phi <= 2^K pi, r < t_(k(phi))."""
        k = sector_index_point(z)
        if k > self.K:
            raise OutsideExtensionDomain(f"arg {z.phi:.3f} needs level {k} > built {self.K}")
        if z.r >= self.levels[k].t:
            raise OutsideExtensionDomain(f"|z| = {z.r:.3e} >= t_{k} = {self.levels[k].t:.3e}")
        return self._unwind(z, k)

    def _unwind(self, z: LPoint, k: int) -> complex:
        """Phi_k(z): walk the argument down to T_0, evaluate the germ, apply each chi back up."""
        reflected, n, rem = sheet_walk(z, k)
        w = self.germ.at(LPoint(z.r, phi_pi=n, phi_rem=rem) if reflected else z)
        for j in reversed(reflected):
            require_in_disk(w, self.levels[j].r / 8.0, f"chi_{j} argument")
            w = self.chi(j, w).conjugate()
        return w

    def chi(self, j: int, w: complex) -> complex:
        """chi_j(w) for w in B(0, r_j/8).

        When both normalized arcs have a closed form, walk down the levels:
        chi_i = chi_(i-1) . arc1 . phi_i^(-1) for i >= 1 and
        chi_0 = conj . arc2 . conj . phi_0^(-1), each phi_i^(-1) one Newton
        solve seeded by the stored inverse series; w = 0 is fixed by every
        chi_i.  Otherwise chi_j's series, except that chi_0 keeps arc2's
        closed form whenever arc2 has one.
        """
        arc1, arc2 = self.arc1.exact, self.arc2.exact
        if arc2 is None or (j > 0 and arc1 is None):
            return self.levels[j].chi.series(w)
        for i in range(j, -1, -1):
            if w == 0:
                return 0j
            ref = self.levels[i].chi
            pre = ref.chart.newton_inverse(w, z0=ref.inverse(w))
            if i == 0:
                return complex(arc2(pre.conjugate())).conjugate()
            w = complex(arc1(pre))


def build_tower(germ: MapGerm, K: int, order: int = DEFAULT_ORDER) -> ReflectionTower:
    """Build the reflection ladder to depth K for a boundary-matched germ.

    The arcs are renormalized to unimodular derivative in-place (chart z ->
    phi(z / |phi'(0)|)); r0 is the largest admissible seed radius: at most 1
    and both arc radii, and small enough that t_0 = (r0/(16E))^(1/alpha) <= t_bar.
    """
    alpha = germ.alpha_value
    E = germ.growth
    arc1 = _normalize_chart(germ.arc1)
    arc2 = _normalize_chart(germ.arc2)
    if not (germ.t_bar > 0):
        raise GermTooSmall("germ has empty radius of validity")
    r0 = min(1.0, arc1.radius, arc2.radius, 16.0 * E * germ.t_bar**alpha)
    if r0 <= 0:
        raise GermTooSmall("no admissible seed radius r0")
    k_max = _max_tower_depth(r0, E, alpha)
    if k_max < 0:
        raise GermTooSmall(f"t_0 of this germ is not a positive normal double (r0 = {r0!r})")
    if K > k_max:
        raise ValueError(
            f"K = {K} is too deep for this germ: its ladder r_K, t_K = t_0 128^(-K/alpha) leaves the "
            f"positive normal doubles; the largest admissible K is {k_max}"
        )

    levels = []
    phi_k = arc2
    r_k = r0
    for k in range(K + 1):
        E_k = E * 4.0**k
        t_k = (r_k / (16.0 * E_k)) ** (1.0 / alpha)
        s_k = min(t_k, E_k ** (-2.0 / alpha))
        chi_k = build_chi(phi_k, r_k, order=order)
        levels.append(TowerLevel(k, r_k, E_k, t_k, s_k, chi_k))
        if k < K:
            r_next = r_k / 32.0
            phi_next_series = chi_k.series.conjugated().compose(
                arc1.series.conjugated().rescaled(min(arc1.series.scale, r_next)), order=order
            )
            phi_next_series.radius = r_next
            phi_k = AnalyticFunc(phi_next_series)
            r_k = r_next
    return ReflectionTower(germ=germ, levels=levels, r0=r0, alpha=alpha, order=order, arc1=arc1, arc2=arc2)


def _max_tower_depth(r0: float, E: float, alpha: float) -> int:
    """Largest K whose closed-form ladder stays in the positive normal doubles.

    In logs: r_K = r0 32^(-K), x_K = r_K / (16 E_K) = x_0 128^(-K) and
    t_K = x_K^(1/alpha) must all stay at or above the smallest normal double.
    """
    floor = math.log(sys.float_info.min)
    log_x0 = math.log(r0 / (16.0 * E))
    depth = min(
        (math.log(r0) - floor) / math.log(32.0),
        (log_x0 - min(1.0, alpha) * floor) / math.log(128.0),
    )
    return math.floor(depth)


def _normalize_chart(arc: AnalyticFunc) -> AnalyticFunc:
    d0 = arc.deriv0()
    lam = abs(d0)
    if abs(lam - 1.0) <= 1e-14:
        return arc
    if lam == 0:
        raise NormalizationError("arc chart is singular at 0")
    ser = arc.series
    scaled = PowerSeries(ser.coeffs.copy(), ser.scale * lam, ser.radius * lam)
    exact = None
    if arc.exact is not None:
        inner = arc.exact
        exact = lambda z: inner(np.asarray(z, dtype=complex) / lam)
    return AnalyticFunc(scaled, exact=exact)


# -- two-sided extension -----------------------------------------------------------


@dataclass
class Extension:
    """Two-sided extension: positive tower plus mirrored twin."""

    positive: ReflectionTower
    negative: ReflectionTower

    @property
    def alpha(self) -> float:
        return self.positive.alpha

    def evaluate(self, z: LPoint) -> complex:
        if z._phi_cmp_pi(0) >= 0:
            return self.positive.evaluate(z)
        mirrored = LPoint(z.r, phi_pi=1 - z.phi_pi, phi_rem=-z.phi_rem)
        return self.negative.evaluate(mirrored).conjugate()


def build_extension(germ: MapGerm, K: int, order: int = DEFAULT_ORDER) -> Extension:
    return Extension(build_tower(germ, K, order), build_tower(germ.mirrored(), K, order))


def validate_koebe(tower: ReflectionTower) -> dict:
    """Sampling validation of the univalent-chart bounds behind every level.

    For each stored chart phi_k on B(0, r_k), at 16 angles: the inverse must
    reach the quarter disk of the image and |phi_k(z)| <= 4|z| must hold on
    the half disk; the reflector chi_k obeys the same growth on its half disk.
    Returns the worst measured ratios, passed within 1e-9; raises nothing,
    callers assert.
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


# -- certification -------------------------------------------------------------------


@dataclass
class CertifiedExtension:
    extension: object  # Extension | ReflectionTower
    quad: QuadraticDomain
    K_growth: float
    rate: float  # exact level ratio t_k / t_(k+1) = 128^(1/alpha)

    def report(self) -> dict:
        tower = self.extension.positive if isinstance(self.extension, Extension) else self.extension
        E = tower.germ.growth
        checks = {
            "r_ladder_exact": all(
                tower.levels[k].r * 32.0 == tower.levels[k - 1].r for k in range(1, tower.K + 1)
            ),
            "E_ladder_exact": all(lv.E == E * 4.0**lv.k for lv in tower.levels),
            "t_from_ladder_exact": all(
                lv.t == (lv.r / (16.0 * lv.E)) ** (1.0 / tower.alpha) for lv in tower.levels
            ),
            "t_above_growth_bound": all(
                tower.levels[k].t >= self.K_growth ** (-k) * (1 - 1e-12) for k in range(1, tower.K + 1)
            ),
        }
        return {
            "levels": [
                {"k": lv.k, "r_k": lv.r, "E_k": lv.E, "t_k": lv.t, "s_k": lv.s}
                for lv in tower.levels
            ],
            "quad": self.quad.to_json(),
            "K_growth": self.K_growth,
            "level_ratio": self.rate,
            "checks": checks,
        }


def certify_quadratic_domain(ext) -> CertifiedExtension:
    """Constants (c, C) with {r < c exp(-C sqrt|phi|)} inside the sector-ball union.

    The ladder is exact (t_k = t_0 * 128^(-k/alpha)), so the containment is
    checked against the closed-form schedule for every k up to 400, not only
    the built levels; evaluation remains limited to |phi| <= 2^K pi of the
    built tower.
    """
    pos = ext.positive if isinstance(ext, Extension) else ext
    neg = ext.negative if isinstance(ext, Extension) else ext
    alpha = pos.alpha
    rate = 128.0 ** (1.0 / alpha)

    t0_pos, t0_neg = pos.levels[0].t, neg.levels[0].t
    t1_neg = t0_neg / rate
    c = min(t0_pos, t1_neg) * (1.0 - 1e-12)
    log_rate = math.log(rate)

    C = 1e-9
    for k in range(1, 401):
        # positive side: phi in [2^(k-1) pi, 2^k pi] needs c e^(-C sqrt(2^(k-1) pi)) <= t_k,
        # with the exact schedule t_k = t_0 rate^(-k) (in logs to dodge underflow)
        need = (math.log(c / t0_pos) + k * log_rate) / math.sqrt(2 ** (k - 1) * math.pi)
        C = max(C, need)
        # negative side: |phi| in [(2^(k-1) - 1) pi, ...] maps to level k of the twin
        if k >= 2:
            need = (math.log(c / t0_neg) + k * log_rate) / math.sqrt((2 ** (k - 1) - 1) * math.pi)
            C = max(C, need)
    K_growth = rate
    for k in range(1, pos.K + 1):
        K_growth = max(K_growth, pos.levels[k].t ** (-1.0 / k))
    quad = QuadraticDomain(c, C, mirrored=isinstance(ext, Extension))
    return CertifiedExtension(ext, quad, K_growth, rate)


# radii of sample_quadratic_domain, as fractions of c exp(-C sqrt|phi|)
_SAMPLE_R_FRAC = (0.05, 0.95)


def max_sample_arg(quad: QuadraticDomain) -> float:
    """Largest |arg| at which the radii 0.05 c exp(-C sqrt|arg|) stay positive normal doubles."""
    return quad.max_arg_at(sys.float_info.min / _SAMPLE_R_FRAC[0])


def sample_quadratic_domain(quad: QuadraticDomain, n: int, seed: int, max_abs_arg: float):
    """Deterministic member sample of the quadratic domain up to |arg| <= cap.

    Radii are fractions 0.05 to 0.95 of c exp(-C sqrt|phi|); a cap above
    :func:`max_sample_arg`, where the smallest of them leaves the positive
    normal doubles, raises ValueError.
    """
    arg_limit = max_sample_arg(quad)
    if max_abs_arg > arg_limit:
        raise ValueError(
            f"sampling to |arg| = {max_abs_arg:.6g} is too wide: radii c exp(-C sqrt|arg|) underflow; "
            f"the largest admissible |arg| is {arg_limit:.6g}"
        )
    rng = np.random.default_rng(seed)
    phis = rng.uniform(-max_abs_arg if quad.mirrored else 0.0, max_abs_arg, size=n)
    fracs = rng.uniform(*_SAMPLE_R_FRAC, size=n)
    pts = []
    for phi, u in zip(phis, fracs):
        pts.append(LPoint(u * quad.radius_at(phi), phi))
    return pts
