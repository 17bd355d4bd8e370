"""Exact arithmetic for real exponents and angles.

Exponents of the generalized series (and interior angles divided by pi) are
represented as

    q + sum_g  c_g * value(g)

with ``q`` and the ``c_g`` exact rationals and ``g`` drawn from a registry of
declared irrational generators (sqrt2, golden, ...); the builtin sqrt5 is
stored as 2 golden - 1, so that each value has one representation.  Equality
is decided symbolically on this representation.  The total order is decided
by doubles where their gap exceeds a bound on their own rounding, and exactly
otherwise: in Q(sqrt2, sqrt3, sqrt5) for the builtins, with each declared
generator taken as the exact value of its declared decimal or float.
"""

from __future__ import annotations

import math
from decimal import Context
from fractions import Fraction

from .errors import AmbiguousExponentOrder, UnknownClass

# name -> declared value as an exact Fraction, and name -> float value.  The
# builtins are given to 60 significant digits (their order is decided on
# their radical forms below); golden = (1 + sqrt5) / 2.
_GENERATOR_DECIMALS: dict[str, Fraction] = {
    "sqrt2": Fraction("1.41421356237309504880168872420969807856967187537694807317668"),
    "sqrt3": Fraction("1.73205080756887729352744634150587236694280525381038062805581"),
    "sqrt5": Fraction("2.2360679774997896964091736687312762354406183596115257242709"),
    "golden": Fraction("1.61803398874989484820458683436563811772030917980576286213545"),
}
_GENERATORS: dict[str, float] = {name: float(x) for name, x in _GENERATOR_DECIMALS.items()}

# the builtins that an exponent holds, as {squarefree k: coefficient of sqrt(k)}
_RADICAL_FORMS = {
    "sqrt2": {2: Fraction(1)},
    "sqrt3": {3: Fraction(1)},
    "golden": {1: Fraction(1, 2), 5: Fraction(1, 2)},
}


def declare_generator(name: str, value) -> None:
    """Register an irrational generator by name.

    ``value`` is a decimal string or a number, kept as its exact Fraction for
    ordering; one that is not finite, or has no double, raises ValueError.
    Declaring a name again with the same 50-digit value changes nothing; a
    different value raises ValueError, since exponents already built on the
    name would change meaning.
    """
    try:
        exact = Fraction(value)
        approx = float(exact)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"irrational generator {name!r} needs a finite decimal or number within the doubles' range, not {value!r}"
        ) from None
    if name in _GENERATOR_DECIMALS:
        fifty = Context(prec=50)  # both values rounded to 50 significant digits
        old, new = (fifty.divide(x.numerator, x.denominator) for x in (_GENERATOR_DECIMALS[name], exact))
        if new != old:
            raise ValueError(f"irrational generator {name!r} is already declared as {old}, not {new}")
        return
    _GENERATORS[name] = approx
    _GENERATOR_DECIMALS[name] = exact


def _radical_sign(x: dict, primes=(5, 3, 2)) -> int:
    """Sign of sum_k x[k] sqrt(k), over squarefree k whose prime factors are among ``primes``.

    Written as a + b sqrt(p) for the first prime p, the sum has the sign of a
    and b when they agree, and otherwise that of a times a^2 - p b^2, the
    product of the sum and its conjugate a - b sqrt(p).
    """
    if not primes:
        r = x.get(1, 0)
        return (r > 0) - (r < 0)
    p, rest = primes[0], primes[1:]
    a = {k: c for k, c in x.items() if k % p}
    b = {k // p: c for k, c in x.items() if k % p == 0}
    sa, sb = _radical_sign(a, rest), _radical_sign(b, rest)
    if sa * sb >= 0:
        return sa or sb
    conjugate = {k: -c if k % p == 0 else c for k, c in x.items()}
    return sa * _radical_sign(_radical_product(x, conjugate), rest)


def _radical_product(x: dict, y: dict) -> dict:
    """(sum_m x[m] sqrt(m)) (sum_n y[n] sqrt(n)), with sqrt(m) sqrt(n) = g sqrt(mn / g^2), g = gcd(m, n)."""
    out = {}
    for m, a in x.items():
        for n, b in y.items():
            g = math.gcd(m, n)
            k = m * n // (g * g)
            out[k] = out.get(k, 0) + a * b * g
    return out


class Exponent:
    """Exact real number q + sum c_g * g over the declared generators.

    Immutable.  Supports +, -, scalar multiplication by rationals, division by
    integers, exact equality and an exact total order.
    """

    __slots__ = ("rational", "irrational", "_value", "_error", "_key_cache", "_hash")

    def __init__(self, rational=0, irrational=None):
        irr = {}
        if irrational and "sqrt5" in irrational:
            # sqrt5 = 2 golden - 1 is kept on golden, so that a value has one form
            irrational = dict(irrational)
            c = Fraction(irrational.pop("sqrt5"))
            rational = Fraction(rational) - c
            irrational["golden"] = Fraction(irrational.get("golden", 0)) + 2 * c
        self.rational = Fraction(rational)
        if irrational:
            # in name order, so that value() sums equal exponents alike
            for name, coeff in sorted(irrational.items()):
                if name not in _GENERATORS:
                    raise KeyError(f"undeclared irrational generator {name!r}")
                c = Fraction(coeff)
                if c != 0:
                    irr[name] = c
        self.irrational = irr
        self._value = None
        self._error = None
        self._key_cache = None
        self._hash = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "Exponent":
        if isinstance(x, Exponent):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        if isinstance(x, str):
            return parse_exponent(x)
        raise TypeError(f"cannot coerce {x!r} to an exact exponent (floats are not exact)")

    @classmethod
    def generator(cls, name: str, coeff=1) -> "Exponent":
        return cls(0, {name: coeff})

    # -- numerics --------------------------------------------------------------

    def value(self) -> float:
        """The double value; it also sets ``_error``, a bound on its distance from the exact value."""
        if self._value is None:
            v = float(self.rational)
            size = abs(v)
            for name, c in self.irrational.items():
                term = float(c) * _GENERATORS[name]
                v += term
                size += abs(term)
            self._value = v
            # each conversion, product and sum rounds by at most a unit in the last place of the terms' size (or of
            # the smallest normal double), and there are at most 3n + 1 of them for n generators: 4 ulps per n + 2
            self._error = (len(self.irrational) + 2) * 2.0**-50 * (size + 2.0**-1022)
        return self._value

    def sign(self) -> int:
        """The exact sign: declared generators are their exact Fractions, the builtins their radical forms."""
        x = {1: self.rational}
        for name, c in self.irrational.items():
            for k, r in _RADICAL_FORMS.get(name, {1: _GENERATOR_DECIMALS[name]}).items():
                x[k] = x.get(k, 0) + c * r
        return _radical_sign(x)

    # -- predicates ------------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.irrational

    def is_integer(self) -> bool:
        return not self.irrational and self.rational.denominator == 1

    def is_zero(self) -> bool:
        return not self.irrational and self.rational == 0

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = Exponent.coerce(other)
        irr = dict(self.irrational)
        for name, c in other.irrational.items():
            irr[name] = irr.get(name, Fraction(0)) + c
        return Exponent(self.rational + other.rational, irr)

    __radd__ = __add__

    def __neg__(self):
        return Exponent(-self.rational, {n: -c for n, c in self.irrational.items()})

    def __sub__(self, other):
        return self + (-Exponent.coerce(other))

    def __rsub__(self, other):
        return Exponent.coerce(other) + (-self)

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return Exponent(self.rational * s, {n: c * s for n, c in self.irrational.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = Fraction(scalar)
        return self * (1 / s)

    # -- comparisons -----------------------------------------------------------

    def _key(self):
        """(rational, generator terms in name order), made once with its hash: the exponent is immutable."""
        if self._key_cache is None:
            self._key_cache = (self.rational, tuple(self.irrational.items()))
            self._hash = hash(self._key_cache)
        return self._key_cache

    def __eq__(self, other):
        if not isinstance(other, (Exponent, int, Fraction)):
            return NotImplemented
        return self._key() == Exponent.coerce(other)._key()

    def __hash__(self):
        if self._hash is None:
            self._key()
        return self._hash

    def __lt__(self, other):
        other = Exponent.coerce(other)
        if self._key() == other._key():
            return False
        a, b = self.value(), other.value()
        if abs(a - b) > self._error + other._error:
            return a < b
        # within the doubles' rounding: the exact difference decides
        s = (self - other).sign()
        if s == 0:
            raise AmbiguousExponentOrder(f"{self} and {other} are distinct exponents of equal value")
        return s < 0

    def __le__(self, other):
        other = Exponent.coerce(other)
        return self == other or self < other

    def __gt__(self, other):
        return Exponent.coerce(other) < self

    def __ge__(self, other):
        other = Exponent.coerce(other)
        return self == other or other < self

    # -- io ----------------------------------------------------------------------

    def __repr__(self):
        parts = []
        if self.rational != 0 or not self.irrational:
            parts.append(str(self.rational))
        for name, c in sorted(self.irrational.items()):
            parts.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "rational": [self.rational.numerator, self.rational.denominator],
            "irrational_multiples": {
                n: [c.numerator, c.denominator] for n, c in sorted(self.irrational.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Exponent":
        p, q = data["rational"]
        irr = {n: Fraction(c[0], c[1]) for n, c in data.get("irrational_multiples", {}).items()}
        return cls(Fraction(p, q), irr)


def parse_exponent(text: str) -> Exponent:
    """Parse '1/2', '3', 'sqrt2', 'golden', '2*sqrt2', '1/2+sqrt2'.

    A zero denominator raises ValueError, as any other malformed text does.
    """
    total = Exponent(0)
    try:
        for raw in text.replace(" ", "").split("+"):
            if not raw:
                continue
            if "*" in raw:
                coeff, name = raw.split("*", 1)
                total = total + Exponent.generator(name, Fraction(coeff))
            elif raw in _GENERATORS:
                total = total + Exponent.generator(raw)
            else:
                total = total + Exponent(Fraction(raw))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in exponent {text!r}") from exc
    return total


ZERO = Exponent(0)


# -- angles ----------------------------------------------------------------------
#
# Interior angles are carried as (angle / pi), so the same exact representation
# serves both exponents and angles.  A plain float means "numeric angle of
# undeclared rationality".

RATIONAL_PI_MULTIPLE = "RATIONAL_PI_MULTIPLE"
IRRATIONAL_PI_MULTIPLE = "IRRATIONAL_PI_MULTIPLE"


def exact_or_float(x):
    """An Exponent or a float kept as given; any other real (int, Fraction, str) made an exact Exponent."""
    return x if isinstance(x, (Exponent, float)) else Exponent.coerce(x)


def value_of(x) -> float:
    """The double value of an Exponent or of a plain real number."""
    return x.value() if isinstance(x, Exponent) else float(x)


def rationality_class(angle_over_pi) -> str:
    """Decide rationality of angle/pi symbolically; floats raise UnknownClass."""
    if isinstance(angle_over_pi, float):
        raise UnknownClass("angle given as a bare float; declare it exactly")
    a = Exponent.coerce(angle_over_pi)
    if a.is_rational():
        return RATIONAL_PI_MULTIPLE
    # A nonzero combination of declared irrational generators with at most a
    # rational offset is taken as irrational; generators are declared as such.
    return IRRATIONAL_PI_MULTIPLE
