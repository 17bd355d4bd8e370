"""Property tests for the reflector descent of ReflectionTower.chi.

The reference is the chain of nested closures that tower levels used to
carry: chi_k called phi_k's closed form, which called chi_(k-1)'s, and so on
down to arc2.  It is rebuilt here from a tower's stored data, and the explicit
descent must reproduce it bit for bit.  A tower with an arc that has no closed
form applies chi_k's series at every level.
"""

import cmath
import functools
import math
import struct
from dataclasses import fields
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from quasimap.exponents import Exponent
from quasimap.powerseries import AnalyticFunc, PowerSeries
from quasimap.reflection import MapGerm, Reflector, build_extension
from quasimap.scmap import model_corner_germ
from quasimap.series import zpow

K = 8


def closure_chain(tower) -> list:
    """chi_k as the nested closures of the levels' closed forms, or every chi_k's series when an arc has none."""
    arc1, arc2 = tower.arc1.exact, tower.arc2.exact
    if arc1 is None or arc2 is None:
        return [lv.chi.series for lv in tower.levels]
    chain = []
    phi_exact = arc2
    for lv in tower.levels:

        def chi(z, _ser=lv.chi.chart, _rev=lv.chi.inverse, _phi=phi_exact):
            z = complex(z)
            if z == 0:
                return 0j
            pre = _ser.newton_inverse(z, z0=_rev(z))
            return complex(_phi(complex(pre).conjugate())).conjugate()

        def phi_exact(z, _c=chi, _a=arc1):
            return complex(_c(complex(_a(complex(z).conjugate())))).conjugate()

        chain.append(chi)
    return chain


def curved_germ(arc1_closed_form: bool = True) -> MapGerm:
    """w / (1 - w) with w = z^(2/3): the second arc is a Moebius image of a ray."""
    av = 2.0 / 3.0
    rot = cmath.exp(1j * av * math.pi)

    def on_L(p):
        w = zpow(p.log(), av)
        return w / (1 - w)

    t_bar = 0.25
    arc1 = AnalyticFunc(
        PowerSeries.from_unscaled([0, 1], radius=0.8),
        exact=(lambda z: np.asarray(z, dtype=complex) + 0j) if arc1_closed_form else None,
    )
    arc2 = AnalyticFunc.from_callable(
        lambda z: rot * np.asarray(z, dtype=complex) / (1 - rot * np.asarray(z, dtype=complex)),
        radius=0.8,
        order=40,
    )
    return MapGerm(None, t_bar, Exponent(Fraction(2, 3)), 1.0 / (1.0 - t_bar**av), arc1, arc2, on_L)


@functools.cache
def tower_and_chain(case: str):
    if case == "sqrt2":
        tower = build_extension(model_corner_germ(Exponent.generator("sqrt2")), K).positive
    elif case == "curved":
        tower = build_extension(curved_germ(), K).positive
    elif case == "curved-twin":
        tower = build_extension(curved_germ(), K).negative
    else:  # arc1 without a closed form: every chi_k is its series, chi_0 too
        tower = build_extension(curved_germ(arc1_closed_form=False), K).positive
    return tower, closure_chain(tower)


CASES = ("sqrt2", "curved", "curved-twin", "arc1-series")


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


@given(u=st.floats(0.0, 0.999), theta=st.floats(-math.pi, math.pi))
def test_descent_matches_the_closure_chain_bit_for_bit(u, theta):
    for case in CASES:
        tower, chain = tower_and_chain(case)
        for j, lv in enumerate(tower.levels):
            w = cmath.rect(u * lv.r / 8.0, theta)
            assert bits(tower.chi(j, w)) == bits(complex(chain[j](w))), (case, j, w)


def test_cases_cover_the_descent_and_the_series():
    assert not any(isinstance(c, PowerSeries) for c in tower_and_chain("curved")[1])
    tower, chain = tower_and_chain("arc1-series")
    # arc2 keeps its closed form, yet chi_0 is its series like every other level
    assert tower.arc2.exact is not None
    assert all(isinstance(c, PowerSeries) for c in chain)


def test_zero_is_fixed_at_every_level():
    tower, _ = tower_and_chain("curved")
    assert all(tower.chi(j, 0j) == 0 for j in range(K + 1))


def test_zero_array_is_fixed_with_positive_zero_bits_at_every_level():
    zeros = np.zeros(5, dtype=complex)
    for case in ("sqrt2", "curved"):
        tower, _ = tower_and_chain(case)
        for j in range(K + 1):
            assert tower.chi(j, zeros).tobytes() == zeros.tobytes(), (case, j)


def test_levels_are_plain_data():
    for case in CASES:
        for lv in tower_and_chain(case)[0].levels:
            assert [type(getattr(lv, f.name)) for f in fields(lv)] == [int, float, float, float, float, Reflector]
            assert all(type(getattr(lv.chi, f.name)) is PowerSeries for f in fields(lv.chi))
