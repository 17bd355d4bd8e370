"""Reference implementations that the tests check the package against.

None of them runs in the pipeline: each states a paper identity or an oracle
directly, so that the pipeline's own, faster or more general, code can be
compared with it.
"""

import math

import numpy as np

from quasimap.errors import ImageEscapesChart, InversionFailure
from quasimap.exponents import Exponent, value_of
from quasimap.powerseries import AnalyticFunc, PowerSeries, require_in_disk
from quasimap.series import LogPowerSeries, _product_bound, zpow
from quasimap.surface import LPoint


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


def horner_full(f: PowerSeries, z: complex) -> complex:
    """f(z) by Horner's rule over every stored coefficient, the insignificant tail included."""
    u = complex(z) / f.scale
    acc = 0j
    for c in f.coeffs[::-1]:
        acc = acc * u + complex(c)
    return acc


def compose_untrimmed(outer: PowerSeries, inner: PowerSeries, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) to z^order on inner's scale, by Horner over every stored coefficient of ``outer``, zeros included."""
    w = np.zeros(order + 1, dtype=complex)
    m = min(len(inner.coeffs) - 1, order)
    w[1 : m + 1] = inner.coeffs[1 : m + 1] / outer.scale
    acc = np.zeros(order + 1, dtype=complex)
    for c in outer.coeffs[::-1]:
        acc = np.convolve(acc, w)[: order + 1]
        acc[0] += c
    return acc


def reversion_by_sweep(f: PowerSeries, order: int, out_scale: float | None = None) -> PowerSeries:
    """f's reversion to v^order on out_abs (Koebe's |c_1|/4 by default), every coefficient kept.

    The fixed point c1 G + sum_(n>=2) c_n G^n = out_abs v, one order per sweep.
    """
    c1 = complex(f.coeffs[1])
    out_abs = abs(c1) / 4.0 if out_scale is None else float(out_scale)
    rhs = np.zeros(order + 1, dtype=complex)
    rhs[1] = out_abs
    g = np.zeros(order + 1, dtype=complex)
    g[1] = out_abs / c1
    head = f.coeffs[2 : order + 1]
    for _ in range(order):
        inner = np.zeros(order + 1, dtype=complex)
        for c in head[::-1]:
            inner = np.convolve(inner, g)[: order + 1]
            inner[0] += c
        tail = np.convolve(np.convolve(inner, g)[: order + 1], g)[: order + 1]
        g_new = (rhs - tail) / c1
        g_new[0] = 0.0
        if np.array_equal(g_new, g):
            break
        g = g_new
    return PowerSeries(g * f.scale, out_abs, out_abs)


def absolute(f: PowerSeries) -> PowerSeries:
    """The series of the coefficients' magnitudes, on the same scale and radius."""
    return PowerSeries(np.abs(f.coeffs), f.scale, f.radius)


def cross_ratio(z1, z2, z3, z4) -> complex:
    z1, z2, z3, z4 = (complex(z) for z in (z1, z2, z3, z4))
    return ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))


def check_recurrences(schedule) -> bool:
    """The ladder's defining recurrences, exact in log space:
    log D_k = log D_(k-1) + log 3 + (k - 1) log L and log q_k = -k^2 log M."""
    log3 = math.log(3.0)
    for row in schedule.levels[1:]:
        k = row["k"]
        prev = schedule.levels[k - 1]
        if row["log_D"] != prev["log_D"] + log3 + (k - 1) * schedule.log_L:
            return False
        if row["log_q"] != -(k**2) * schedule.M_log:
            return False
    return True


def reference_basis(model) -> tuple[list, list]:
    """The lattice up to R and the guard band of an ExpansionModel by a full exact scan.

    Every lattice point up to a horizon past the guard band is made as an
    Exponent; the lattice keeps those with value() <= R + 1e-12, and the
    guard band is the first guard_terms of the others, exactly sorted.
    """
    av = model.alpha.value()
    R = model.R
    horizon = R + model.guard_terms * max(av, 1.0) + 2.0
    low, every = set(), set()
    j = 1
    while j * av <= horizon + 1e-12:
        i = 0
        while i + j * av <= horizon + 1e-12:
            e = Exponent(i) + model.alpha * j
            every.add(e)
            if e.value() <= R + 1e-12:
                low.add(e)
            i += 1
        j += 1
    return sorted(low), [e for e in sorted(every) if e.value() > R + 1e-12][: model.guard_terms]


def reference_plan_points(plan, domain) -> list:
    """The samples of a SamplingPlan made one LPoint(rho_j, arg) at a time, shell by shell."""
    pts = []
    for rho in plan.shells():
        if domain is not None:
            cap = domain.max_arg_at(rho) * 0.95
            lo = -cap if (domain.mirrored and not plan.one_sided) else 0.0
        else:
            cap = math.pi
            lo = 0.0 if plan.one_sided else -cap
        if cap > 0:
            pts += [LPoint(rho, a) for a in np.linspace(lo, cap, plan.points_per_shell)]
    return pts


def sector_model(z, alpha: float):
    """z^alpha in closed form, zpow(log z, alpha), at an LPoint or, as one array, at an LPointArray.

    The sector model germ is the one-term series {alpha: 1}; this is the
    closed form it was evaluated by before.
    """
    return zpow(z.log(), alpha)


def _le_bound_before_slack(a: Exponent, r: float) -> bool:
    """The bound test of the series algebra that merged its own terms: value() <= r + 1e-15."""
    return a.value() <= r + 1e-15


def merged_add(f: LogPowerSeries, g: LogPowerSeries) -> LogPowerSeries:
    """f + g by merging g's terms into a copy of f's, one at a time, a sum that cancels deleted."""
    r = min(f.r_max, g.r_max)
    terms = dict(f.terms)
    for a, q in g.terms.items():
        if a in terms:
            s = terms[a] + q
            if s.is_zero():
                del terms[a]
            else:
                terms[a] = s
        else:
            terms[a] = q
    return LogPowerSeries(terms, r)


def merged_mul(f: LogPowerSeries, g: LogPowerSeries) -> LogPowerSeries:
    """f * g by merging every product of terms within the product bound, one at a time, a sum that cancels deleted."""
    r = _product_bound(f, g)
    terms = {}
    for a, qa in f.terms.items():
        for b, qb in g.terms.items():
            e = a + b
            if not _le_bound_before_slack(e, r):
                continue
            prod = qa * qb
            if e in terms:
                s = terms[e] + prod
                if s.is_zero():
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = prod
    return LogPowerSeries(terms, r)


def filtered_truncate(f: LogPowerSeries, r) -> LogPowerSeries:
    """f truncated at min(r, r_max) by filtering its terms against the new bound."""
    new_r = min(f.r_max, value_of(r))
    return LogPowerSeries({a: q for a, q in f.terms.items() if _le_bound_before_slack(a, new_r)}, new_r)
