"""Reference implementations that more than one test module checks the package against.

None of them runs in the pipeline: each states a paper identity or an oracle
directly, so that the pipeline's own, faster or more general, code can be
compared with it.
"""

import math

from quasimap.errors import ImageEscapesChart, InversionFailure
from quasimap.powerseries import AnalyticFunc, require_in_disk


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
