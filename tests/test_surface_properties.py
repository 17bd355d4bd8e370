"""Property tests for the exact argument representation and the sheet walk.

The reference for ``sheet_walk`` is the chain of public sector operations it
replaces in the tower: ``sector_index_point`` for the start level, then
``in_Tp`` and ``reflect_tau`` level by level.  ``sector_index_point`` itself
is checked against the definition of the index on integral multiples, and
the int64 array forms, ``LPointArray`` among them, against the one-point
forms, point by point.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from quasimap.surface import (
    ARRAY_LEVEL_LIMIT,
    ARRAY_MULTIPLE_LIMIT,
    LPoint,
    LPointArray,
    _cmp_pi,
    cmp_pi_array,
    in_Tp,
    reflect_tau,
    sector_index_array,
    sector_index_point,
    sheet_walk,
    sheet_walk_array,
)

K_MAX = 12

remainders = st.one_of(
    st.sampled_from([0.0, 1e-300, -1e-300]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
multiples = st.integers(min_value=-8, max_value=2**K_MAX)


def carried(d: int):
    """Points at n/d pi + rem for n in [-8 d, 2^K_MAX d], carried as (n // d) pi + ((n % d) pi/d + rem)."""
    return st.builds(lambda n, rem: LPoint(0.5, phi_pi=n // d, phi_rem=(n % d) * math.pi / d + rem),
                     st.integers(min_value=-8 * d, max_value=2**K_MAX * d), remainders)


dyadic_rays = st.builds(lambda k, rem: LPoint(0.5, phi_pi=2**k, phi_rem=rem),
                        st.integers(min_value=0, max_value=K_MAX), st.sampled_from([0.0, 1e-300, -1e-300]))
points = st.one_of(
    st.builds(lambda n, rem: LPoint(0.5, phi_pi=n, phi_rem=rem), multiples, remainders),
    carried(2),
    carried(8),
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


@given(st.integers(min_value=-50, max_value=50), st.sampled_from([int, np.int8, np.int64]), remainders)
def test_integral_multiples_are_ints(n, kind, rem):
    # a numpy integer multiple is stored as the Python int of its value
    z = LPoint(1.0, phi_pi=kind(n), phi_rem=rem)
    assert type(z.phi_pi) is int and z.phi_pi == n
    assert type(LPoint(1.0, 0.25).phi_pi) is int


@given(multiples, remainders)
def test_repr_and_json_unchanged(n, rem):
    z = LPoint(0.5, phi_pi=n, phi_rem=rem)
    want = f"LPoint(r=0.5, phi={n}*pi)" if rem == 0.0 else f"LPoint(r=0.5, phi={n}*pi + {rem!r})"
    assert repr(z) == want
    assert z.to_json() == {"r": 0.5, "arg": float(n) * math.pi + rem}


def reference_index(n: int, rem: float) -> int:
    """Smallest k >= 0 with n pi + rem <= 2^k pi, for integral n and |rem| < pi.

    With |rem| < pi the inequality holds exactly when n < 2^k, or n = 2^k and
    rem <= 0.
    """
    k = 0
    while not (n < 2**k or (n == 2**k and rem <= 0)):
        k += 1
    return k


huge_multiples = st.one_of(
    st.integers(min_value=-8, max_value=2**200),
    st.builds(lambda j, d: 2**j + d, st.integers(min_value=0, max_value=200), st.integers(min_value=-2, max_value=2)),
)


@given(huge_multiples, st.one_of(st.sampled_from([0.0, 1e-300, -1e-300]), st.floats(min_value=-3.0, max_value=3.0)))
def test_sector_index_is_exact_without_a_cap(n, rem):
    assert sector_index_point(LPoint(0.5, phi_pi=n, phi_rem=rem)) == reference_index(n, rem)


# -- the int64 array forms ------------------------------------------------------------

array_multiples = st.one_of(
    st.integers(min_value=-(2**12), max_value=2**12),
    st.integers(min_value=-(2**59), max_value=2**59),
    st.builds(lambda j, d: 2**j + d, st.integers(min_value=0, max_value=58), st.integers(min_value=-2, max_value=2)),
)
array_remainders = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
ray_points = st.tuples(
    st.builds(lambda j, sign: sign * 2**j, st.integers(min_value=0, max_value=58), st.sampled_from([1, -1])),
    st.sampled_from([0.0, -0.0]),
)
array_points = st.lists(st.one_of(st.tuples(array_multiples, array_remainders), ray_points), min_size=1, max_size=40)


@given(array_points)
def test_array_sector_index_and_walk_match_the_point_forms(pairs):
    n = np.array([m for m, _ in pairs], dtype=np.int64)
    rem = np.array([x for _, x in pairs], dtype=float)
    limit = ARRAY_LEVEL_LIMIT
    k = sector_index_array(n, rem, limit)
    # every level, not only the point's own: a walk may start at any level up to its index
    start = np.minimum(k, limit)
    reflected, n_end, rem_end = sheet_walk_array(n, rem, start)
    levels = [[] for _ in pairs]
    for level, idx in reflected:
        for i in idx:
            levels[i].append(level)
    for i, (m, x) in enumerate(pairs):
        z = LPoint(0.5, phi_pi=m, phi_rem=x)
        want_k = sector_index_point(z)
        assert k[i] == (want_k if want_k <= limit else limit + 1)
        want_levels, want_n, want_rem = sheet_walk(z, int(start[i]))
        assert levels[i] == want_levels
        assert int(n_end[i]) == want_n
        # the same float, sign of zero included
        assert math.copysign(1.0, rem_end[i]) == math.copysign(1.0, want_rem) and rem_end[i] == want_rem
    # the inputs are left as they were
    assert n.tolist() == [m for m, _ in pairs] and rem.tolist() == [x for _, x in pairs]


@given(array_points)
def test_array_comparison_matches_the_exact_one(pairs):
    n = np.array([m for m, _ in pairs], dtype=np.int64)
    rem = np.array([x for _, x in pairs], dtype=float)
    for q in (0, 1, 2**30, -(2**30)):
        got = cmp_pi_array(n, rem, q)
        assert [int(g) for g in got] == [_cmp_pi(m, x, q) for m, x in pairs]


# -- LPointArray --------------------------------------------------------------------

point_multiples = st.one_of(
    array_multiples,
    st.builds(lambda d, sign: sign * (ARRAY_MULTIPLE_LIMIT + d), st.integers(min_value=-2, max_value=2),
              st.sampled_from([1, -1])),
    st.integers(min_value=2**63 - 2, max_value=2**70),
)
list_points = st.lists(
    st.builds(lambda r, n, rem: LPoint(r, phi_pi=n, phi_rem=rem),
              st.floats(min_value=1e-300, max_value=1e300), point_multiples, array_remainders),
    max_size=30,
)


@given(list_points)
def test_point_arrays_hold_exactly_the_lists_the_int64_walk_takes(points):
    arr = LPointArray.from_points(points)
    exact = all(abs(p.phi_pi) < ARRAY_MULTIPLE_LIMIT for p in points)
    assert (arr is not None) == exact
    if arr is None:
        return
    # indexing and iterating give the points back, with the same types and reprs
    assert len(arr) == len(points)
    for got in (list(arr), [arr[i] for i in range(len(arr))]):
        assert got == points and [repr(p) for p in got] == [repr(p) for p in points]
        assert all(type(p.r) is float and type(p.phi_pi) is int and type(p.phi_rem) is float for p in got)
    # the float arguments and logs are the bits LPoint forms
    assert arr.phi.tobytes() == np.array([p.phi for p in points], dtype=float).tobytes()
    assert arr.log().tobytes() == np.array([p.log() for p in points], dtype=complex).tobytes()
