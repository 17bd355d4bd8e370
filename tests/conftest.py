"""Shared builders for randomized series and points."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from quasimap.exponents import Exponent
from quasimap.series import LogPolynomial, LogPowerSeries
from quasimap.surface import LPoint

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

EXPONENT_POOL = [
    Exponent(Fraction(p, q)) for p, q in [(0, 1), (1, 2), (1, 3), (2, 3), (1, 1), (3, 2), (2, 1), (5, 2)]
] + [
    Exponent.generator("sqrt2"),
    Exponent.generator("sqrt2") + 1,
    Exponent.generator("golden"),
]


def random_series(rng: np.random.Generator, max_terms: int = 5, max_log_degree: int = 2) -> LogPowerSeries:
    n = rng.integers(1, max_terms + 1)
    idx = rng.choice(len(EXPONENT_POOL), size=n, replace=False)
    terms = {}
    for i in idx:
        deg = int(rng.integers(0, max_log_degree + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] += 1.0
        terms[EXPONENT_POOL[i]] = LogPolynomial(coeffs)
    return LogPowerSeries(terms)


def random_lpoint(rng: np.random.Generator, r_range=(0.3, 2.0), arg_range=(-4 * np.pi, 4 * np.pi)) -> LPoint:
    return LPoint(rng.uniform(*r_range), rng.uniform(*arg_range))


def series_close(f: LogPowerSeries, g: LogPowerSeries, tol: float = 1e-12) -> bool:
    """Same support and log degrees; coefficients within tol (scaled)."""
    if set(f.terms) != set(g.terms):
        return False
    for a, qf in f.terms.items():
        qg = g.terms[a]
        if qf.degree != qg.degree:
            return False
        scale = max(1.0, max(abs(c) for c in qf.coeffs), max(abs(c) for c in qg.coeffs))
        if max(abs(x - y) for x, y in zip(qf.coeffs, qg.coeffs)) > tol * scale:
            return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
