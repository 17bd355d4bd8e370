"""Property tests for exact exponents: exact order, symbolic equality, JSON."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimap.errors import AmbiguousExponentOrder
from quasimap.exponents import _GENERATOR_DECIMALS, _GENERATORS, Exponent, declare_generator, parse_exponent

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


def mp_value(e: Exponent):
    """e's value to 60 significant digits, summed from its parts with 30 digits to spare for their cancellation."""
    with mpmath.workdps(90):
        generators = {"sqrt2": mpmath.sqrt(2), "sqrt3": mpmath.sqrt(3), "golden": (1 + mpmath.sqrt(5)) / 2}
        v = mpmath.mpf(e.rational.numerator) / e.rational.denominator
        for name, c in e.irrational.items():
            v += mpmath.mpf(c.numerator) / c.denominator * generators[name]
    with mpmath.workdps(60):
        return +v


def mp_order(a: Exponent, b: Exponent) -> int:
    am, bm = mp_value(a), mp_value(b)
    return (am > bm) - (am < bm)


@given(exponents, exponents)
def test_order_agrees_with_the_60_digit_values(a, b):
    want = mp_order(a, b)
    assert (a < b) == (want < 0)
    assert (a > b) == (want > 0)
    assert (a <= b) == (want <= 0)
    assert (a >= b) == (want >= 0)
    assert (a == b) == (want == 0)


big = st.integers(min_value=-(10**8), max_value=10**8)


@settings(max_examples=2000)
@given(st.tuples(big, big, big).filter(any), st.integers(min_value=5, max_value=58), st.sampled_from([-1, 2]))
def test_near_ties_order_exactly(cs, digits, offset):
    # terms up to 10^8 that cancel to below 1, whose doubles are off by up to 1e-7, against the value cut to
    # `digits` significant digits and moved by -1 or +2 in its last digit, so that 60-digit values separate them
    e = Exponent(0, dict(zip(GENERATORS, cs)))
    e = e - round(e.value())
    with mpmath.workdps(90):
        v = mp_value(e)
        shift = digits - 1 - int(mpmath.floor(mpmath.log10(abs(v))))
        d = Exponent(Fraction(int(mpmath.floor(v * mpmath.mpf(10) ** shift)) + offset, 10**shift))
    want = mp_order(d, e)
    assert want != 0
    assert (d < e) == (want < 0) and (e < d) == (want > 0)


def test_orders_that_doubles_miss():
    # 10^8 sqrt2 - 141421356 lies 5.1e-9 below 0.23730951, but its double is 1.1e-8 off
    assert Exponent(-141421356, {"sqrt2": 10**8}) < Exponent(Fraction(23730951, 10**8))
    assert Exponent(0) < Exponent(Fraction(1, 10**60)) and not Exponent(Fraction(1, 10**60)) < 0
    assert Exponent(0).sign() == 0 and Exponent(-141421356, {"sqrt2": 10**8}).sign() == 1


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


def test_only_a_declared_generator_of_rational_value_raises():
    # golden and its 45-digit decimal, which lies above it by 1.9e-46, order exactly
    golden = Exponent.generator("golden")
    digits = Exponent(Fraction("1.61803398874989484820458683436563811772030918"))
    assert golden < digits and not digits < golden and golden != digits
    # a generator declared as 1.5 has the value of 3/2: the one kind of tie left, and it raises
    declare_generator("tie_three_halves", "1.5")
    with pytest.raises(AmbiguousExponentOrder):
        Exponent.generator("tie_three_halves") < Exponent(Fraction(3, 2))
    assert Exponent.generator("tie_three_halves") < Exponent(Fraction(3, 2)) + Fraction(1, 10**80)


def test_a_declared_generator_orders_as_its_exact_decimal():
    declare_generator("near_sqrt2", "1.4142135623730950488016887242096980785696718753769480731766797379907")
    near = Exponent.generator("near_sqrt2")
    sqrt2 = Exponent.generator("sqrt2")
    # the decimal lies 3.2e-68 below sqrt2: past the doubles and past 50 digits
    assert near < sqrt2 and not sqrt2 < near
    assert near > Exponent(Fraction("1.4142135623730950488016887242096980785696718753769480731766797379906"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", float("nan"), float("inf"), "1e400", None])
def test_a_generator_that_is_not_finite_is_refused(value):
    with pytest.raises(ValueError, match="'not_finite'"):
        declare_generator("not_finite", value)
    assert "not_finite" not in _GENERATORS and "not_finite" not in _GENERATOR_DECIMALS


def test_builtin_generators_keep_their_50_digit_and_double_values():
    with mpmath.workdps(60):
        computed = {
            "sqrt2": mpmath.sqrt(2),
            "sqrt3": mpmath.sqrt(3),
            "sqrt5": mpmath.sqrt(5),
            "golden": (1 + mpmath.sqrt(5)) / 2,
        }
        for name, want in computed.items():
            digits = _GENERATOR_DECIMALS[name]
            assert abs(mpmath.mpf(digits.numerator) / digits.denominator - want) < mpmath.mpf(10) ** -57
            assert _GENERATORS[name] == float(want) == float(digits)
    assert _GENERATORS["sqrt2"] == math.sqrt(2) and _GENERATORS["sqrt5"] == math.sqrt(5)


@given(exponents)
def test_json_roundtrip(e):
    back = Exponent.from_json(e.to_json())
    assert back == e and hash(back) == hash(e)
    assert back.value() == e.value()
    assert back.to_json() == e.to_json()
