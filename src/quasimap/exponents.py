"""Exact arithmetic for real exponents and angles.

Exponents of the generalized series (and interior angles divided by pi) are
represented as

    q + sum_g  c_g * value(g)

with ``q`` and the ``c_g`` exact rationals and ``g`` drawn from a registry of
declared irrational generators (sqrt2, golden, ...); the builtin sqrt5 is
stored as 2 golden - 1, so that each value has one representation.  Equality
is decided symbolically on this representation; the total order falls back to
numerics, escalating to 50-digit arithmetic when double precision cannot
separate two symbolically distinct values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbiguousExponentOrder, UnknownClass

# mpmath is imported only where 50-digit values are needed: in value_mp, in a
# comparison that doubles cannot decide, and in declare_generator.
_MP_DPS = 50

# name -> 50-digit value (a decimal string, or an mpmath number for a generator
# declared as one), and name -> float value.  The builtins are given to 60
# significant digits; golden = (1 + sqrt5) / 2.
_GENERATOR_MP: dict[str, object] = {
    "sqrt2": "1.41421356237309504880168872420969807856967187537694807317668",
    "sqrt3": "1.73205080756887729352744634150587236694280525381038062805581",
    "sqrt5": "2.2360679774997896964091736687312762354406183596115257242709",
    "golden": "1.61803398874989484820458683436563811772030917980576286213545",
}
_GENERATORS: dict[str, float] = {name: float(digits) for name, digits in _GENERATOR_MP.items()}


def declare_generator(name: str, value) -> None:
    """Register an irrational generator by name.

    ``value`` may be a float, an mpmath number, or a decimal string.  Strings
    and mpmath values are kept at 50 digits for tie-breaking comparisons.
    Declaring a name again with the same 50-digit value changes nothing; a
    different value raises ValueError, since exponents already built on the
    name would change meaning.
    """
    import mpmath

    with mpmath.workdps(_MP_DPS):
        mpval = mpmath.mpf(value)
        if name in _GENERATOR_MP:
            old = mpmath.nstr(mpmath.mpf(_GENERATOR_MP[name]), _MP_DPS)
            new = mpmath.nstr(mpval, _MP_DPS)
            if new != old:
                raise ValueError(f"irrational generator {name!r} is already declared as {old}, not {new}")
            return
    _GENERATORS[name] = float(mpval)
    _GENERATOR_MP[name] = mpval


class Exponent:
    """Exact real number q + sum c_g * g over the declared generators.

    Immutable.  Supports +, -, scalar multiplication by rationals, division by
    integers, exact equality and a numeric total order.
    """

    __slots__ = ("rational", "irrational", "_value")

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
        if self._value is None:
            v = float(self.rational)
            for name, c in self.irrational.items():
                v += float(c) * _GENERATORS[name]
            self._value = v
        return self._value

    def value_mp(self):
        import mpmath

        with mpmath.workdps(_MP_DPS):
            v = mpmath.mpf(self.rational.numerator) / self.rational.denominator
            for name, c in self.irrational.items():
                v += (mpmath.mpf(c.numerator) / c.denominator) * mpmath.mpf(_GENERATOR_MP[name])
            return v

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
        return (self.rational, tuple(sorted(self.irrational.items())))

    def __eq__(self, other):
        if not isinstance(other, (Exponent, int, Fraction)):
            return NotImplemented
        return self._key() == Exponent.coerce(other)._key()

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        other = Exponent.coerce(other)
        if self == other:
            return False
        a, b = self.value(), other.value()
        if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
            return a < b
        # escalate: symbolically distinct but numerically close in doubles
        import mpmath

        am, bm = self.value_mp(), other.value_mp()
        if abs(am - bm) < mpmath.mpf(10) ** (-_MP_DPS + 10):
            raise AmbiguousExponentOrder(f"cannot order {self} vs {other}")
        return am < bm

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
ONE = Exponent(1)


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
