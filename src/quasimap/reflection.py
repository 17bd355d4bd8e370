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
of chi_k.  Where both normalized arcs have closed forms, chi_k is evaluated
by one explicit descent instead of its series: unfolding the definitions
gives chi_k = chi_(k-1) . arc1 . phi_k^(-1) for k >= 1 and
chi_0 = conj . arc2 . conj . phi_0^(-1), one Newton solve per level.  Where
either arc has none, every chi_k is its series.

Negative arguments are reached by running the same construction on the
mirrored germ  z -> conj(Phi(-conj z))  with the two arcs swapped and
conjugated, gluing along (r, phi) -> (r, pi - phi), which ``LPoint.mirrored``
and ``LPointArray.mirrored`` form on the exact multiple of pi.

``Extension.evaluate`` is the one evaluator.  It unwinds a point on the tower
of its argument's sign: the argument phi = n pi + rem is walked down the
levels by the tau_k, the germ is evaluated on T_0 and the recorded chi_k are
applied on the way back up.  One point is walked on exact Python ints.  An
``LPointArray``, or a list of points made into one, is walked as arrays, one
int64 walk per tower, with one germ call on all the walked points and each
chi_k applied to all the points it reflects at once; a list whose multiples
or sector indices leave what int64 holds exactly goes point by point instead.

Since t_k decays at the exact geometric rate (32*4)^(1/alpha) per level, the
union of the sector balls contains a region r < c exp(-C sqrt|phi|): a
quadratic domain, whose constants are certified from the ladder.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GermTooSmall, NormalizationError, OutsideExtensionDomain
from .exponents import Exponent, value_of
from .powerseries import AnalyticFunc, PowerSeries, require_in_disk
from .series import PURE_POWER, LogPowerSeries
from .surface import (
    ARRAY_LEVEL_LIMIT,
    LPoint,
    LPointArray,
    QuadraticDomain,
    cmp_pi_array,
    sector_index_array,
    sector_index_point,
    sheet_walk,
    sheet_walk_array,
)

# the most coefficients a level's series may keep; each ends at its last significant one before that
DEFAULT_ORDER = 40


@dataclass
class MapGerm:
    """Boundary-matched germ on the closed upper half plane near 0.

    ``eval_lpoint`` is the one germ evaluator: it takes an ``LPoint`` with arg
    in [0, pi] to a complex value, and an ``LPointArray`` of such points to a
    complex array (through ``p.log()``, which both have, closed-form models
    stay branch-exact on either).  ``growth`` is E in the certified bound
    |Phi(z)| <= E |z|^alpha for |z| < t_bar.  ``series`` is the germ's
    generalized power series when it was built by :meth:`from_series`.  ``eval_complex`` is read by nothing
    and may be None.
    """

    eval_complex: object
    t_bar: float
    alpha: object  # Exponent | float
    growth: float
    arc1: AnalyticFunc
    arc2: AnalyticFunc
    eval_lpoint: object
    label: str = ""
    series: LogPowerSeries | None = None

    @classmethod
    def from_series(cls, series: LogPowerSeries, arc1, arc2, t_bar: float, growth=None, label: str = "") -> "MapGerm":
        """The germ given by its series on |z| < t_bar, evaluated by ``series.eval_finite``.

        alpha is the series' valuation.  Without a growth, a pure-power series
        on the ladder alpha + m, m = 0..M, with M = r_max - alpha, is bounded
        by E = 1.05 sum |c_m| t_bar^m over its dense coefficient vector; a
        series with log terms, or off that ladder, must be given its growth.
        """
        alpha = series.valuation()
        if alpha is None:
            raise ValueError("a germ needs a series with a nonzero term")
        if growth is None:
            growth = _ladder_growth(series, alpha, t_bar)
        return cls(eval_complex=None, t_bar=t_bar, alpha=alpha, growth=growth, arc1=arc1, arc2=arc2,
                   eval_lpoint=series.eval_finite, label=label, series=series)

    @property
    def alpha_value(self) -> float:
        return value_of(self.alpha)

    def mirrored(self) -> "MapGerm":
        """Germ z -> conj(Phi(-conj z)) with swapped, conjugated arcs, on points and arrays alike."""
        inner = self.eval_lpoint

        def mirror(z):
            value = inner(z.mirrored())
            return complex(value).conjugate() if isinstance(z, LPoint) else np.conj(value)

        return MapGerm(
            eval_complex=None,
            t_bar=self.t_bar,
            alpha=self.alpha,
            growth=self.growth,
            arc1=self.arc2.conjugated(),
            arc2=self.arc1.conjugated(),
            eval_lpoint=mirror,
            label=self.label + "*",
        )


def _ladder_growth(series: LogPowerSeries, alpha, t_bar: float) -> float:
    """1.05 sum_m |c_m| t_bar^m over the dense coefficients c_m of z^(alpha + m), m = 0..r_max - alpha."""
    steps = [e - alpha for e in (series.r_max, *series.terms)] if isinstance(series.r_max, Exponent) else []
    if series.series_class() != PURE_POWER or not steps or not all(m.is_integer() for m in steps):
        raise ValueError(
            "growth=None bounds only a pure-power series on the ladder alpha + m up to an exact bound r_max; "
            "give this series its growth"
        )
    dense = np.zeros(int(steps[0].rational) + 1, dtype=complex)
    dense[[int(m.rational) for m in steps[1:]]] = [q.leading for q in series.terms.values()]
    return float(np.sum(np.abs(dense) * t_bar ** np.arange(len(dense)))) * 1.05


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
    chi_series = ser.conjugated().compose(rev.rescaled(r / 8.0), order=order, radius=r / 8.0)
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
    derivative; when both carry a closed form, :meth:`chi` descends through them.
    """

    germ: MapGerm
    levels: list  # list[TowerLevel]
    r0: float
    alpha: float
    arc1: AnalyticFunc
    arc2: AnalyticFunc

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    def _level(self, z: LPoint, caller: LPoint) -> int:
        """Sector index of z, which must lie in a built sector ball; errors name the caller's point."""
        k = sector_index_point(z)
        tower = "" if z is caller else " of the mirrored tower"
        if k > self.K:
            raise OutsideExtensionDomain(f"the argument of {caller!r} needs level {k}{tower} > built {self.K}")
        if z.r >= self.levels[k].t:
            raise OutsideExtensionDomain(f"{caller!r}: |z| = {z.r:.3e} >= t_{k}{tower} = {self.levels[k].t:.3e}")
        return k

    def _unwind_point(self, z: LPoint, k: int, caller: LPoint):
        """Phi_k at one point of level k: walk its argument down to T_0, evaluate
        the germ there and apply the recorded chi_j on the way back up."""
        reflected, n, rem = sheet_walk(z, k)
        value = self.germ.eval_lpoint(LPoint(z.r, phi_pi=n, phi_rem=rem) if reflected else z)
        for j in reversed(reflected):
            radius = self.levels[j].r / 8.0
            if abs(value) >= radius:
                require_in_disk(value, radius, f"chi_{j} argument at {caller!r}")
            value = complex(self.chi(j, value)).conjugate()
        return value

    def _unwind_arrays(self, r, n, rem, k, callers, side) -> np.ndarray:
        """Phi_k at points (r, n pi + rem) of levels k, as arrays, in one walk.

        Every argument is walked down to T_0 at once and the germ evaluated
        there in one call on the walked LPointArray; then the recorded chi_j
        are applied level by level, j = 0, 1, ..., each to all the points it
        reflects in one call.  A point's reflecting levels rise on the way up,
        so this keeps each point's order.  ``callers[side[i]]`` is point i as
        the caller gave it, for errors.
        """
        reflected, n, rem = sheet_walk_array(n, rem, k)
        values = np.asarray(self.germ.eval_lpoint(LPointArray(r, n, rem)), dtype=complex)
        for j, idx in reversed(reflected):
            w = values[idx]
            radius = self.levels[j].r / 8.0
            escaped = np.flatnonzero(np.abs(w) >= radius)
            if len(escaped):
                caller = callers[int(side[idx[escaped[0]]])]
                require_in_disk(complex(w[escaped[0]]), radius, f"chi_{j} argument at {caller!r}")
            values[idx] = np.conj(self.chi(j, w))
        return values

    def chi(self, j: int, w):
        """chi_j(w) for w in B(0, r_j/8), a complex number or an array of them.

        When both normalized arcs have a closed form, walk down the levels:
        chi_i = chi_(i-1) . arc1 . phi_i^(-1) for i >= 1 and
        chi_0 = conj . arc2 . conj . phi_0^(-1), each phi_i^(-1) one Newton
        solve seeded by the stored inverse series; w = 0 is fixed by every
        chi_i, with +0 parts.  Otherwise chi_j's series, at every level.
        """
        arc1, arc2 = self.arc1.exact, self.arc2.exact
        if arc1 is None or arc2 is None:
            return self.levels[j].chi.series(w)
        for i in range(j, 0, -1):
            ref = self.levels[i].chi
            w = arc1(ref.chart.newton_inverse(w, z0=ref.inverse(w)))
        ref = self.levels[0].chi
        # conj leaves -0 parts on an exact 0; + 0 makes them +0
        return np.conj(arc2(np.conj(ref.chart.newton_inverse(w, z0=ref.inverse(w))))) + 0


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
                arc1.series.conjugated().rescaled(min(arc1.series.scale, r_next)), order=order, radius=r_next
            )
            phi_k = AnalyticFunc(phi_next_series)
            r_k = r_next
    return ReflectionTower(germ=germ, levels=levels, r0=r0, alpha=alpha, arc1=arc1, arc2=arc2)


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
    return AnalyticFunc(PowerSeries(ser.coeffs.copy(), ser.scale * lam, ser.radius * lam))


# -- two-sided extension -----------------------------------------------------------


@dataclass
class Extension:
    """Two-sided extension: positive tower plus mirrored twin."""

    positive: ReflectionTower
    negative: ReflectionTower

    def evaluate(self, z):
        """Phi at one LPoint, or the list of its values at a list of points or an LPointArray.

        A negative argument is mirrored, phi -> pi - phi, onto the twin tower
        and its value conjugated back.  Every point is checked before any is
        unwound; an error names the first point, as the caller gave it, that
        lies outside the built sector balls.
        """
        if isinstance(z, LPoint):
            return self._value(z, *self._place(z))
        return self._evaluate_list(z)

    def _place(self, p: LPoint):
        """The tower that evaluates p, the point it sees there and its level; raises for a point outside."""
        if p._phi_cmp_pi(0) < 0:
            q = p.mirrored()
            return self.negative, q, self.negative._level(q, p)
        return self.positive, p, self.positive._level(p, p)

    def _value(self, p: LPoint, tower: ReflectionTower, q: LPoint, k: int) -> complex:
        """Phi at p, placed as q on level k of tower."""
        v = tower._unwind_point(q, k, p)
        return v if tower is self.positive else v.conjugate()

    def _evaluate_list(self, points) -> list:
        """Phi at each of many points.

        The points are unwound as arrays, one exact int64 walk per tower, when
        they make an LPointArray (every multiple of pi below
        ARRAY_MULTIPLE_LIMIT in magnitude) and no sector index on a tower deeper
        than ARRAY_LEVEL_LIMIT exceeds it.  Any other points are all placed,
        then unwound one by one, as single points are.
        """
        if isinstance(points, LPointArray):
            arr = points
        else:
            points = list(points)
            arr = LPointArray.from_points(points)
        sides = None if arr is None else self._walk_input(arr)
        if sides is None:
            placed = [self._place(p) for p in points]
            return [self._value(p, *where) for p, where in zip(points, placed)]
        r = arr.r
        outside = [idx[r[idx] >= t[k]] for tower, idx, n, rem, k, t in sides]
        first = min((int(o[0]) for o in outside if len(o)), default=None)
        if first is not None:
            self._place(points[first])  # raises, naming the point as the caller gave it
        values = np.empty(len(points), dtype=complex)
        for tower, idx, n, rem, k, t in sides:
            v = tower._unwind_arrays(r[idx], n, rem, k, points, idx)
            values[idx] = v if tower is self.positive else np.conj(v)
        return values.tolist()

    def _walk_input(self, points: LPointArray):
        """Per tower, (tower, indices, n, rem, levels, t by level) for the array walk; None if it is not exact.

        A level above a tower's K reads t = 0, so the point is outside there.
        """
        n, rem = points.phi_pi, points.phi_rem
        mirrored = cmp_pi_array(n, rem, 0) < 0
        sides = []
        for tower, on_side in ((self.positive, ~mirrored), (self.negative, mirrored)):
            idx = np.flatnonzero(on_side)
            if not len(idx):
                continue
            # the mirror on the int64 slices: LPointArray.mirrored would refuse 1 - n = 2^60
            n_side, rem_side = (1 - n[idx], -rem[idx]) if tower is self.negative else (n[idx], rem[idx])
            k = sector_index_array(n_side, rem_side, min(tower.K, ARRAY_LEVEL_LIMIT))
            if tower.K > ARRAY_LEVEL_LIMIT and (k > ARRAY_LEVEL_LIMIT).any():
                return None
            t = np.array([lv.t for lv in tower.levels] + [0.0])
            sides.append((tower, idx, n_side, rem_side, k, t))
        return sides


def build_extension(germ: MapGerm, K: int, order: int = DEFAULT_ORDER) -> Extension:
    return Extension(build_tower(germ, K, order), build_tower(germ.mirrored(), K, order))


# -- certification -------------------------------------------------------------------


@dataclass
class CertifiedExtension:
    extension: Extension
    quad: QuadraticDomain
    K_growth: float
    rate: float  # exact level ratio t_k / t_(k+1) = 128^(1/alpha)

    def report(self) -> dict:
        tower = self.extension.positive
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


def certify_quadratic_domain(ext: Extension) -> CertifiedExtension:
    """Constants (c, C) with {r < c exp(-C sqrt|phi|)} inside the sector-ball union.

    The ladder is exact (t_k = t_0 * 128^(-k/alpha)), so the containment is
    checked against the closed-form schedule for every k up to 400, not only
    the built levels; evaluation remains limited to |phi| <= 2^K pi of the
    built tower.
    """
    pos, neg = ext.positive, ext.negative
    alpha = pos.alpha
    rate = 128.0 ** (1.0 / alpha)

    t0_pos, t0_neg = pos.levels[0].t, neg.levels[0].t
    t1_neg = t0_neg / rate
    c = min(t0_pos, t1_neg) * (1.0 - 1e-12)
    log_rate = math.log(rate)

    k = np.arange(1, 401)
    span = 2.0 ** (k - 1)
    # positive side: phi in [2^(k-1) pi, 2^k pi] needs c e^(-C sqrt(2^(k-1) pi)) <= t_k,
    # with the exact schedule t_k = t_0 rate^(-k) (in logs to dodge underflow)
    need_pos = (math.log(c / t0_pos) + k * log_rate) / np.sqrt(span * math.pi)
    # negative side, k >= 2: |phi| in [(2^(k-1) - 1) pi, ...] maps to level k of the twin
    need_neg = (math.log(c / t0_neg) + k[1:] * log_rate) / np.sqrt((span[1:] - 1.0) * math.pi)
    C = max(1e-9, float(need_pos.max()), float(need_neg.max()))
    K_growth = rate
    for k in range(1, pos.K + 1):
        K_growth = max(K_growth, pos.levels[k].t ** (-1.0 / k))
    quad = QuadraticDomain(c, C)
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
