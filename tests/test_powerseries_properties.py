"""Property tests for series reversion, composition and powers.

The fixed-point sweep that reversion used before Lagrange inversion is the
reference for ``reversion``, and composition by Horner's rule over every
stored coefficient the one for ``compose`` (both in tests/references.py).  Both store
their results only to the last significant coefficient, so they are compared
with the references' full-length arrays zero-padded (``padded``).  Evaluation
stops at the last significant coefficient: a zero-tailed series must evaluate exactly like the same series without its
tail, and on a chart of finite radius the cut must stay within its bound of
full-length Horner (tests/references.py) on the trusted disk.  The plain
reciprocal recurrence is the reference for series_power at p = -1, and exact
binomial coefficients for the powers of b + u.
"""

import cmath
import math
import struct
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from references import absolute, compose_untrimmed, horner_full, reversion_by_sweep

from quasimap.powerseries import TAIL_TOL, PowerSeries, series_power


def padded(f: PowerSeries, order: int) -> np.ndarray:
    """f's coefficients to z^order, zero past its stored end."""
    return np.pad(f.coeffs, (0, order + 1 - len(f.coeffs)))


small = st.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False)


@st.composite
def charts(draw, kind=None):
    """Charts c_1 x + ... with |c_1| in [0.5, 2] and |c_n| <= 0.3 above it.

    ``kind`` is 'linear' (no higher term), 'nonlinear' (no zero tail) or
    'zero-tailed' (exact zeros above the last nonzero term).
    """
    kind = draw(st.sampled_from(["linear", "nonlinear", "zero-tailed"])) if kind is None else kind
    head = [] if kind == "linear" else draw(st.lists(small, min_size=1, max_size=24))
    if head and kind == "nonlinear" and head[-1] == 0:
        head[-1] = 0.1
    zeros = draw(st.integers(1, 12)) if kind != "nonlinear" else 0
    c1 = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    scale = draw(st.floats(0.01, 100.0))
    return PowerSeries([0.0, c1] + head + [0.0] * zeros, scale=scale)


kinds = st.sampled_from(["linear", "nonlinear", "zero-tailed"])


@given(kind=kinds, data=st.data(), order=st.integers(1, 36))
def test_reversion_roundtrip(kind, data, order):
    f = data.draw(charts(kind))
    g = f.reversion(order=order)
    fg = f.compose(g, order=order)
    want = np.zeros(order + 1, dtype=complex)
    want[1] = g.scale  # w on g's scale
    assert np.max(np.abs(padded(fg, order) - want)) <= 1e-13 * g.scale


@given(kind=kinds, data=st.data(), order=st.integers(1, 30), koebe=st.booleans())
def test_reversion_matches_fixed_point_sweep(kind, data, order, koebe):
    f = data.draw(charts(kind))
    out_scale = None if koebe else abs(f.coeffs[1]) / 2.0
    got = f.reversion(order=order, out_scale=out_scale)
    ref = reversion_by_sweep(f, order, out_scale)
    assert (got.scale, got.radius) == (ref.scale, ref.radius)
    assert np.max(np.abs(padded(got, order) - ref.coeffs)) <= 1e-14 * np.max(np.abs(ref.coeffs))


@given(outer=charts(), inner=charts(), order=st.integers(1, 36), zeros=st.integers(0, 8))
def test_compose_ignores_zero_top_coefficients(outer, inner, order, zeros):
    long = PowerSeries(np.concatenate([outer.coeffs, np.zeros(zeros)]), outer.scale)
    got = long.compose(inner, order=order)
    assert padded(got, order).tobytes() == compose_untrimmed(long, inner, order).tobytes()
    assert got.coeffs.tobytes() == outer.compose(inner, order=order).coeffs.tobytes()


@st.composite
def disk_charts(draw):
    """Charts c_1 x + sum_(n>=2) a_n q^(n-1) x^n, |a_n| <= 1, trusted on rho * scale.

    |c_1| is in [0.5, 2], q in [0.01, 0.6] and rho in [0.25, 1], so the
    scaled coefficients fall off geometrically on the disk and the
    significance cut drops a tail of most of them.
    """
    c1 = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    a = draw(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=10, max_size=60))
    q = draw(st.floats(0.01, 0.6))
    scale = draw(st.floats(0.01, 100.0))
    rho = draw(st.floats(0.25, 1.0))
    head = [c * q ** (n + 1) for n, c in enumerate(a)]
    return PowerSeries([0.0, c1] + head, scale=scale, radius=rho * scale)


def dropped_tail(f: PowerSeries, m: int) -> float:
    """sum_(n>m) |c_n| rho^(n-1) over every stored coefficient, rho = radius/scale."""
    rho = f.radius / f.scale
    return math.fsum(abs(c) * rho ** (n - 1) for n, c in enumerate(f.coeffs) if n > m)


@given(f=disk_charts(), us=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4), theta=st.floats(-math.pi, math.pi))
def test_cut_is_within_its_bound_of_full_length_horner_on_the_disk(f, us, theta):
    t = f.top()
    c1 = abs(f.coeffs[1])
    # the smallest index whose dropped tail is below TAIL_TOL |c_1| on the disk
    assert dropped_tail(f, t) <= TAIL_TOL * c1 * (1 + 1e-12)
    assert t == 1 or dropped_tail(f, t - 1) > TAIL_TOL * c1 * (1 - 1e-12)
    rho = f.radius / f.scale
    for u in us:
        z = cmath.rect(u * f.radius, theta)
        size = math.fsum(abs(c) * (u * rho) ** n for n, c in enumerate(f.coeffs))
        # the tail bound, plus the rounding of two Horner runs over at most 62 terms
        assert abs(f(z) - horner_full(f, z)) <= TAIL_TOL * c1 * rho + 1e-14 * size


@given(f=disk_charts(), pad=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), u=st.floats(0.0, 0.999),
       theta=st.floats(-math.pi, math.pi))
def test_tail_padded_below_the_cut_changes_nothing(f, pad, u, theta):
    t = f.top()
    rho = f.radius / f.scale
    # appended terms whose weighted sum is below 1e-30 |c_1|: the cut cannot move
    tail = [1e-30 * x * abs(f.coeffs[1]) / len(pad) / rho ** (len(f.coeffs) + i - 1) for i, x in enumerate(pad)]
    padded = PowerSeries(np.concatenate([f.coeffs, tail]), f.scale, f.radius)
    assert padded.top() == t
    z = cmath.rect(u * f.radius, theta)
    for x in (z, np.array([z, 0.5 * z, -z, 0j])):
        assert bits(padded(x)) == bits(f(x))
        assert bits(padded.eval_deriv(x)) == bits(f.eval_deriv(x))
    # an inner series that maps its disk into half of f's, where f's cut holds
    inner = PowerSeries([0.0, 0.4 * f.radius, 0.1j * f.radius], scale=f.radius, radius=f.radius)
    assert padded.compose(inner, order=12).coeffs.tobytes() == f.compose(inner, order=12).coeffs.tobytes()


@given(outer=disk_charts(), inner=charts(), order=st.integers(1, 40))
def test_compose_of_a_cut_series_matches_untrimmed_horner(outer, inner, order):
    # on |z| < inner.scale the inner series reaches inside the outer's disk or past it, and the cut must hold either way
    got = padded(outer.compose(inner, order=order, radius=inner.scale), order)
    size = compose_untrimmed(absolute(outer), absolute(inner), order).real
    assert np.max(np.abs(got - compose_untrimmed(outer, inner, order))) <= 1e-14 * np.max(size)


@given(f=disk_charts(), order=st.integers(1, 40))
def test_reversion_of_a_cut_chart_matches_the_untrimmed_sweep(f, order):
    got = f.reversion(order=order)
    ref = reversion_by_sweep(f, order)
    assert (got.scale, got.radius) == (ref.scale, ref.radius)
    assert np.max(np.abs(padded(got, order) - ref.coeffs)) <= 1e-14 * np.max(np.abs(ref.coeffs))


def bits(values) -> bytes:
    return b"".join(struct.pack("<dd", v.real, v.imag) for v in np.atleast_1d(values))


@given(f=charts("nonlinear"), zeros=st.integers(1, 16), u=st.floats(0.0, 0.99), theta=st.floats(-math.pi, math.pi))
def test_exact_zero_tail_evaluates_bit_for_bit_like_no_tail(f, zeros, u, theta):
    padded = PowerSeries(np.concatenate([f.coeffs, np.zeros(zeros)]), f.scale)
    assert padded.top() == f.top() == f.order
    z = cmath.rect(u * f.scale, theta)
    for x in (z, np.array([z, 0.5 * z, -z, 0j])):
        assert bits(padded(x)) == bits(f(x))
        assert bits(padded.eval_deriv(x)) == bits(f.eval_deriv(x))


@given(f=charts(), u=st.floats(0.0, 0.1), thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=6))
def test_newton_on_an_array_matches_each_element(f, u, thetas):
    # seeded by w / f'(0): elements off the linear part take the damped iteration
    w = np.array([f(cmath.rect(u * f.scale, t)) for t in thetas])
    got = f.newton_inverse(w)
    assert got.shape == w.shape
    for wi, zi in zip(w, got):
        want = f.newton_inverse(complex(wi))
        assert abs(zi - want) <= 1e-12 * max(abs(want), 1e-300)


def reciprocal_recurrence(c, order: int) -> np.ndarray:
    """Taylor coefficients of 1/c(x): c_0 b_n = -sum_(k=1..n) c_k b_(n-k)."""
    c = np.asarray(c, dtype=complex)
    inv = np.zeros(order + 1, dtype=complex)
    inv[0] = 1.0 / c[0]
    for n in range(1, order + 1):
        j = min(n, len(c) - 1)
        inv[n] = -np.dot(c[1 : j + 1], inv[n - 1 :: -1][:j]) / c[0]
    return inv


def binomial_series(b: complex, e: float, order: int) -> np.ndarray:
    """Taylor coefficients C(e, n) b^(e - n) of (b + u)^e: C(e, n) exact, the principal power at 40 digits."""
    out, binom = [], Fraction(1)
    with mpmath.workdps(40):
        for n in range(order + 1):
            power = mpmath.mpc(b) ** (mpmath.mpf(e) - n)
            out.append(complex(mpmath.mpf(binom.numerator) / binom.denominator * power))
            binom *= (Fraction(e) - n) / (n + 1)
    return np.array(out)


@st.composite
def units(draw, max_len=24):
    """c_0 + c_1 x + ... with |c_0| in [0.5, 2] and |c_n| <= 0.3 above it."""
    c0 = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return [c0] + draw(st.lists(small, max_size=max_len - 1))


def scaled_gap(got, want) -> float:
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


@given(c=units(), order=st.integers(0, 36))
def test_power_minus_one_is_the_reciprocal_recurrence_bit_for_bit(c, order):
    assert series_power(c, -1.0, order).tobytes() == reciprocal_recurrence(c, order).tobytes()


@given(c=units(8), p=st.floats(-3.0, 3.0), q=st.floats(-3.0, 3.0), order=st.integers(0, 24))
def test_powers_multiply(c, p, q, order):
    prod = np.convolve(series_power(c, p, order), series_power(c, q, order))[: order + 1]
    assert scaled_gap(prod, series_power(c, p + q, order)) <= 1e-12


@given(c=units(8), m=st.integers(1, 6), order=st.integers(0, 24))
def test_mth_root_to_the_mth_power_is_the_series(c, m, order):
    root = series_power(c, 1.0 / m, order)
    power = np.ones(1, dtype=complex)
    for _ in range(m):
        power = np.convolve(power, root)[: order + 1]
    want = np.zeros(order + 1, dtype=complex)
    want[: min(len(c), order + 1)] = c[: order + 1]
    assert scaled_gap(power, want) <= 1e-12


@given(
    b=st.floats(0.1, 10.0),
    theta=st.floats(-math.pi, math.pi),
    e=st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3).map(float), st.integers(-3, 3).map(lambda i: i + 1e-9)),
    order=st.integers(0, 24),
)
def test_powers_of_a_linear_factor_are_binomial(b, theta, e, order):
    base = cmath.rect(b, theta)
    got = series_power([base, 1.0], e, order)
    want = binomial_series(base, e, order)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
