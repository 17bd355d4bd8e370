"""Property tests for exact exponents: numeric order, symbolic equality, JSON."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasimap.errors import AmbiguousExponentOrder
from quasimap.exponents import _GENERATOR_MP, _GENERATORS, Exponent, parse_exponent

# 1, sqrt2, sqrt3 and golden are linearly independent over Q, so two of these
# exponents have equal values exactly when they are symbolically equal
GENERATORS = ("sqrt2", "sqrt3", "golden")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
multiples = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12))
exponents = st.builds(
    lambda q, cs: Exponent(q, dict(zip(GENERATORS, cs))),
    rationals,
    st.tuples(multiples, multiples, multiples),
)
irrational_exponents = exponents.filter(lambda e: not e.is_rational())


def mp_order(a: Exponent, b: Exponent) -> int:
    am, bm = a.value_mp(), b.value_mp()
    return (am > bm) - (am < bm)


@given(exponents, exponents)
def test_order_agrees_with_the_50_digit_values(a, b):
    want = mp_order(a, b)
    assert (a < b) == (want < 0)
    assert (a > b) == (want > 0)
    assert (a <= b) == (want <= 0)
    assert (a >= b) == (want >= 0)
    assert (a == b) == (want == 0)


@given(irrational_exponents, st.integers(min_value=10, max_value=16), st.integers(min_value=-1, max_value=2))
def test_near_ties_escalate_to_the_50_digit_values(e, digits, offset):
    # a decimal within 10^-digits of e: doubles cannot separate the two
    with mpmath.workdps(50):
        q = Fraction(int(mpmath.floor(e.value_mp() * 10**digits)) + offset, 10**digits)
    d = Exponent(q)
    assert abs(d.value() - e.value()) <= 1e-9 * max(1.0, abs(e.value()))
    want = mp_order(d, e)
    assert want != 0
    assert (d < e) == (want < 0) and (e < d) == (want > 0)


def test_sqrt2_against_its_16_digit_truncation():
    sqrt2 = Exponent.generator("sqrt2")
    below = Exponent(Fraction(1414213562373095, 10**15))
    above = Exponent(Fraction(1414213562373096, 10**15))
    assert abs(below.value() - sqrt2.value()) < 1e-15
    assert below < sqrt2 < above
    assert not sqrt2 < below and not above < sqrt2
    assert sorted([above, sqrt2, below]) == [below, sqrt2, above]


@given(exponents, exponents)
def test_equality_is_symbolic(a, b):
    reordered = Exponent(a.rational, dict(reversed(a.irrational.items())))
    assert reordered == a and reordered.value() == a.value()
    assert (a + b) - b == a
    assert a * 2 == a + a and (a * 3) / 3 == a
    assert (a == b) == (a.rational == b.rational and a.irrational == b.irrational)
    if a == b:
        assert hash(a) == hash(b) and a.value() == b.value()
    if a.is_rational():
        assert a == a.rational


def test_sqrt5_has_one_representation_through_golden():
    # sqrt5 = 2 golden - 1: every way of writing it gives the same exponent
    other = Exponent.generator("golden", 2) - 1
    forms = [
        parse_exponent("sqrt5"),
        Exponent.generator("sqrt5"),
        Exponent(0, {"sqrt5": 1}),
        Exponent.from_json({"rational": [0, 1], "irrational_multiples": {"sqrt5": [1, 1]}}),
    ]
    for sqrt5 in forms:
        assert sqrt5 == other and hash(sqrt5) == hash(other) and sqrt5.value() == other.value()
        assert not sqrt5 < other and not other < sqrt5 and sqrt5 <= other
        assert sqrt5.to_json() == other.to_json()
    assert parse_exponent("1/2*sqrt5+1/2") == Exponent.generator("golden")
    assert parse_exponent("3*sqrt5+sqrt2") - parse_exponent("6*golden+sqrt2") == -3
    assert Exponent(0, {"sqrt5": 1, "golden": -2}) == -1


def test_a_distinct_value_within_double_rounding_still_raises():
    # the 50-digit tie-break runs out of digits on values equal past 40 digits
    golden = Exponent.generator("golden")
    with mpmath.workdps(60):
        digits = Fraction(mpmath.nstr(golden.value_mp(), 45))
    with pytest.raises(AmbiguousExponentOrder):
        golden < Exponent(digits)


def test_builtin_generators_keep_their_50_digit_and_double_values():
    with mpmath.workdps(50):
        computed = {
            "sqrt2": mpmath.sqrt(2),
            "sqrt3": mpmath.sqrt(3),
            "sqrt5": mpmath.sqrt(5),
            "golden": (1 + mpmath.sqrt(5)) / 2,
        }
        for name, want in computed.items():
            assert len(_GENERATOR_MP[name].replace(".", "")) >= 50
            assert mpmath.mpf(_GENERATOR_MP[name]) == want
            assert _GENERATORS[name] == float(want) == float(_GENERATOR_MP[name])
    assert _GENERATORS["sqrt2"] == math.sqrt(2) and _GENERATORS["sqrt5"] == math.sqrt(5)


@given(exponents)
def test_json_roundtrip(e):
    back = Exponent.from_json(e.to_json())
    assert back == e and hash(back) == hash(e)
    assert back.value() == e.value()
    assert back.to_json() == e.to_json()
