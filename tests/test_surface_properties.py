"""Property tests for the exact argument representation and the sheet walk.

The reference for ``sheet_walk`` is the chain of public sector operations it
replaces in the tower: ``sector_index_point`` for the start level, then
``in_Tp`` and ``reflect_tau`` level by level.
"""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from quasimap.surface import LPoint, in_Tp, reflect_tau, sector_index_point, sheet_walk

K_MAX = 12

remainders = st.one_of(
    st.sampled_from([0.0, 1e-300, -1e-300]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
multiples = st.one_of(
    st.integers(min_value=-8, max_value=2**K_MAX),
    st.builds(Fraction, st.integers(min_value=-16, max_value=2 ** (K_MAX + 1)), st.just(2)),
    st.builds(Fraction, st.integers(min_value=-64, max_value=2 ** (K_MAX + 3)), st.just(8)),
)
dyadic_rays = st.builds(lambda k, rem: LPoint(0.5, phi_pi=2**k, phi_rem=rem),
                        st.integers(min_value=0, max_value=K_MAX), st.sampled_from([0.0, 1e-300, -1e-300]))
points = st.one_of(
    st.builds(lambda n, rem: LPoint(0.5, phi_pi=n, phi_rem=rem), multiples, remainders),
    dyadic_rays,
)


def reference_walk(z: LPoint, k: int):
    reflected = []
    for j in range(k, 0, -1):
        if in_Tp(j, z):
            reflected.append(j - 1)
            z = reflect_tau(j - 1, z)
    return reflected, z


@given(points)
def test_walk_matches_sector_chain(z):
    k = sector_index_point(z)
    reflected, n, rem = sheet_walk(z, k)
    want_levels, end = reference_walk(z, k)
    assert reflected == want_levels
    assert n == end.phi_pi and type(n) is type(end.phi_pi)
    assert rem == end.phi_rem and str(rem) == str(end.phi_rem)


@given(points, st.integers(min_value=0, max_value=K_MAX))
def test_walk_from_any_start_level(z, k):
    reflected, n, rem = sheet_walk(z, k)
    want_levels, end = reference_walk(z, k)
    assert (reflected, n, rem) == (want_levels, end.phi_pi, end.phi_rem)


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=8), remainders)
def test_integral_multiples_are_ints(num, den, rem):
    z = LPoint(1.0, phi_pi=Fraction(num, den), phi_rem=rem)
    if Fraction(num, den).denominator == 1:
        assert type(z.phi_pi) is int
    else:
        assert isinstance(z.phi_pi, Fraction)
    assert z.phi_pi == Fraction(num, den)


def test_integral_fraction_becomes_int():
    z = LPoint(1.0, phi_pi=Fraction(4, 2))
    assert type(z.phi_pi) is int and z.phi_pi == 2 and z.phi_pi == Fraction(2)
    assert type(LPoint(1.0, 0.25).phi_pi) is int


@given(multiples, remainders)
def test_repr_and_json_unchanged(n, rem):
    # the same point with its multiple kept as a Fraction, as before ints were stored
    z = LPoint(0.5, phi_pi=n, phi_rem=rem)
    q = Fraction(n)
    old_repr = f"LPoint(r=0.5, phi={q}*pi)" if rem == 0.0 else f"LPoint(r=0.5, phi={q}*pi + {rem!r})"
    assert repr(z) == old_repr
    assert z.to_json() == {"r": 0.5, "arg": float(q) * math.pi + rem}
