"""Generalized log-power series.

A series is a finite (per bounded exponent window) sum

    g(z) = sum_alpha  Q_alpha(log z) * z^alpha,        alpha >= 0 real,

with ``Q_alpha`` a complex polynomial in the indeterminate standing for
``log z``.  The monic/leading-coefficient view ``Q_alpha = a_alpha * P_alpha``
is derived on demand.  Exponents use :class:`~quasimap.exponents.Exponent`, so
structural questions (support, equality of exponents, the pure-power /
log-power dichotomy) are exact; coefficient values are complex doubles.

Every series carries a truncation bound ``r_max``, a float (``INF`` for
none): exponents above it are *unrepresented* rather than zero, which is what
makes "asymptotic expansion up to order R" statements meaningful.  An exponent
lies within it when its value is at most ``r_max + HORIZON_SLACK``.
Arithmetic propagates the bound so that every retained term of a sum or
product is exact.  The constructor alone decides which terms a series holds:
sums, products, truncation and the JSON reader hand it (exponent, polynomial)
pairs, and it sums repeated exponents, drops zero polynomials and keeps the
exponents within the bound.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import NonPositiveValuation
from .exponents import ZERO, Exponent, value_of
from .surface import LPoint

INF = math.inf
# an exponent lies within a float bound R when its value is at most R + HORIZON_SLACK: far above the rounding
# of Exponent.value() and of a lattice float i + j alpha, far below any gap between distinct exponents a series holds
HORIZON_SLACK = 1e-12

PURE_POWER = "PURE_POWER"
LOG_POWER = "LOG_POWER"


class LogPolynomial:
    """Polynomial in the log indeterminate, coefficients low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "LogPolynomial":
        return cls([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> complex:
        return self.coeffs[-1] if self.coeffs else 0j

    def monic(self) -> "LogPolynomial":
        a = self.leading
        return LogPolynomial([c / a for c in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0j] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return LogPolynomial(out)

    def __neg__(self):
        return LogPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, LogPolynomial):
            if self.is_zero() or other.is_zero():
                return LogPolynomial([])
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return LogPolynomial(out)
        return LogPolynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def conjugate(self) -> "LogPolynomial":
        return LogPolynomial([c.conjugate() for c in self.coeffs])

    def __call__(self, ell: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * ell + c
        return acc

    def __eq__(self, other):
        return isinstance(other, LogPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LogPolynomial({list(self.coeffs)})"


class LogPowerSeries:
    """Truncatable generalized log-power series with exact support structure."""

    __slots__ = ("terms", "r_max")

    def __init__(self, terms=None, r_max=INF):
        """``terms`` is a dict or an iterable of (exponent, polynomial) pairs, each
        polynomial a LogPolynomial, a coefficient list or a scalar; a repeated
        exponent has its polynomials summed in the order given, and the bound
        test is :func:`_le_bound`.  An exact bound is taken at its value."""
        tmap: dict[Exponent, LogPolynomial] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for alpha, poly in items:
                alpha = Exponent.coerce(alpha)
                if alpha < ZERO:
                    raise ValueError("exponents must be >= 0")
                if not isinstance(poly, LogPolynomial):
                    poly = LogPolynomial.constant(poly) if not isinstance(poly, (list, tuple)) else LogPolynomial(poly)
                if poly.is_zero():
                    continue
                if alpha in tmap:
                    poly = tmap[alpha] + poly
                    if poly.is_zero():
                        del tmap[alpha]
                        continue
                tmap[alpha] = poly
        self.r_max = value_of(r_max)
        self.terms = {a: p for a, p in tmap.items() if _le_bound(a, self.r_max)}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, r_max=INF) -> "LogPowerSeries":
        return cls({}, r_max)

    @classmethod
    def monomial(cls, coeff, alpha, log_degree: int = 0, r_max=INF) -> "LogPowerSeries":
        poly = [0j] * log_degree + [complex(coeff)]
        return cls({Exponent.coerce(alpha): LogPolynomial(poly)}, r_max)

    # -- structure ------------------------------------------------------------

    def support(self):
        return sorted(self.terms.keys())

    def valuation(self):
        """min supp(g), or None for the structurally zero series."""
        if not self.terms:
            return None
        return min(self.terms.keys())

    def leading_data(self):
        """(nu, a_nu, P_nu) with P monic; None for the zero series."""
        nu = self.valuation()
        if nu is None:
            return None
        q = self.terms[nu]
        return nu, q.leading, q.monic()

    def series_class(self) -> str:
        for q in self.terms.values():
            if q.degree > 0:
                return LOG_POWER
        return PURE_POWER

    def __eq__(self, other):
        return (
            isinstance(other, LogPowerSeries)
            and self.terms == other.terms
            and self.r_max == other.r_max
        )

    def __repr__(self):
        bits = []
        for a in self.support():
            bits.append(f"({self.terms[a]!r})*z^({a})")
        return " + ".join(bits or ["0"]) + f"  [r_max={self.r_max}]"

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        return LogPowerSeries([*self.terms.items(), *other.terms.items()], min(self.r_max, other.r_max))

    def __neg__(self):
        return LogPowerSeries({a: -q for a, q in self.terms.items()}, self.r_max)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LogPowerSeries":
        c = complex(c)
        if c == 0:
            return LogPowerSeries.zero(self.r_max)
        return LogPowerSeries({a: q * c for a, q in self.terms.items()}, self.r_max)

    def __mul__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        if not isinstance(other, LogPowerSeries):
            return self.scale(other)
        products = ((a + b, qa * qb) for a, qa in self.terms.items() for b, qb in other.terms.items())
        return LogPowerSeries(products, _product_bound(self, other))

    __rmul__ = __mul__

    def power(self, n: int) -> "LogPowerSeries":
        if n < 0:
            raise ValueError("nonnegative integer powers only")
        out = LogPowerSeries({ZERO: LogPolynomial.constant(1)}, self.r_max if n == 0 else INF)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def truncate(self, r) -> "LogPowerSeries":
        """Keep exponents <= min(r, r_max); the bound shrinks accordingly."""
        return LogPowerSeries(self.terms, min(self.r_max, value_of(r)))

    # -- composition -----------------------------------------------------------

    def compose_power_substitute(self, inner: "LogPowerSeries") -> "LogPowerSeries":
        """Substitute ``inner`` (valuation > 0) into an integer power series.

        The outer series must be an ordinary power series: integer exponents,
        no log terms.  Fractional-power outer monomials go through
        :func:`pow_rational` instead.
        """
        for a, q in self.terms.items():
            if not a.is_integer() or q.degree > 0:
                raise ValueError("outer series must have integer exponents and no log terms")
        nu = inner.valuation()
        if nu is None:
            # inner is 0 up to its bound; f(0) = constant term
            c = self.terms.get(ZERO)
            out = LogPowerSeries({ZERO: c} if c else {}, _compose_bound(self, inner))
            return out
        if not (nu > ZERO):
            raise NonPositiveValuation("inner series must have valuation > 0")
        bound = _compose_bound(self, inner)
        result = LogPowerSeries.zero(bound)
        # Horner over descending integer exponents keeps the work truncated.
        exps = sorted((a for a in self.terms), key=lambda a: a.rational, reverse=True)
        if not exps:
            return result
        top = int(exps[0].rational)
        acc = LogPowerSeries.zero(INF)
        for n in range(top, -1, -1):
            acc = (acc * inner).truncate(bound)
            coeff = self.terms.get(Exponent(n))
            if coeff is not None:
                acc = acc + LogPowerSeries({ZERO: coeff}, INF)
        return acc.truncate(bound)

    def pow_rational(self, p: Fraction) -> "LogPowerSeries":
        """(c * z^a * (1 + h))^p via the binomial series; needs a nonzero leading term.

        c^p takes the principal argument of the leading coefficient c.
        """
        p = Fraction(p)
        lead = self.leading_data()
        if lead is None:
            raise NonPositiveValuation("cannot take a rational power of the zero series")
        nu, a_nu, p_nu = lead
        if p_nu.degree > 0:
            raise ValueError("rational powers require a log-free leading term")
        # unit part u = g / (a z^nu): valuation > 0 tail
        tail = LogPowerSeries(
            {a - nu: q * (1 / a_nu) for a, q in self.terms.items() if a != nu},
            self.r_max - nu.value(),
        )
        bound = tail.r_max
        out = LogPowerSeries({ZERO: LogPolynomial.constant(1)}, bound)
        term = LogPowerSeries({ZERO: LogPolynomial.constant(1)}, INF)
        # number of binomial terms needed: nu(tail) * n <= bound
        nt = tail.valuation()
        if nt is not None and bound < INF:
            nmax = int(bound / nt.value()) + 1
        else:
            nmax = 0 if nt is None else 1
        coeff = 1.0
        for n in range(1, nmax + 1):
            coeff *= (float(p) - (n - 1)) / n
            term = (term * tail).truncate(bound)
            out = out + term.scale(coeff)
        mod = abs(a_nu) ** float(p)
        c_p = mod * cmath.exp(1j * cmath.phase(a_nu) * float(p))
        return LogPowerSeries(
            {a + nu * p: q * c_p for a, q in out.terms.items()},
            out.r_max + (nu * p).value(),
        )

    # -- evaluation --------------------------------------------------------------

    def eval_finite(self, z):
        """Evaluate at a log-surface point, or at an LPointArray as one complex array; exact branch tracking via arg.

        An LPointArray's logs come from :func:`~quasimap.surface.log_array`.  A
        germ built by ``MapGerm.from_series`` is evaluated by this method, on
        points and arrays alike, so exact model remainders cancel to the bit.
        """
        if isinstance(z, LPoint):
            logz, total = z.log(), 0j
        else:
            logz = z.log()
            total = np.zeros(len(logz), dtype=complex)
        for a, q in self.terms.items():
            total += q(logz) * zpow(logz, a.value())
        return total

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for a in self.support():
            q = self.terms[a]
            terms.append(
                {
                    "exponent": a.to_json(),
                    "log_poly": [[c.real, c.imag] for c in q.coeffs],
                }
            )
        return {"terms": terms, "truncation_bound": None if self.r_max == INF else self.r_max}

    @classmethod
    def from_json(cls, data: dict) -> "LogPowerSeries":
        """The series of :meth:`to_json`'s form; a repeated exponent has its polynomials summed.

        A term above the form's own ``truncation_bound`` raises ValueError
        naming its exponent and the bound.
        """
        terms = [
            (Exponent.from_json(t["exponent"]), [complex(re, im) for re, im in t["log_poly"]]) for t in data["terms"]
        ]
        r = data.get("truncation_bound")
        r = INF if r is None else float(r)
        for e, _ in terms:
            if not _le_bound(e, r):
                raise ValueError(f"the term z^({e}) lies above the series' truncation_bound {r:g}")
        return cls(terms, r)


def zpow(logz, alpha: float):
    """exp(alpha * log z) for a complex log z or an array of them; the one shared
    power path, so exact-model remainders cancel to the bit."""
    if isinstance(logz, np.ndarray):
        return np.exp(alpha * logz)
    return cmath.exp(alpha * logz)


# -- truncation-bound arithmetic ----------------------------------------------------


def _le_bound(a: Exponent, r: float) -> bool:
    """Whether the exponent a lies within the float bound r: a.value() <= r + HORIZON_SLACK."""
    return a.value() <= r + HORIZON_SLACK


def _product_bound(f: LogPowerSeries, g: LogPowerSeries) -> float:
    """min over unknown-tail entry points of f*g (see module docstring)."""
    nf, ng = f.valuation(), g.valuation()
    if nf is None and ng is None:
        return f.r_max + g.r_max
    candidates = []
    if ng is not None:
        candidates.append(f.r_max + ng.value())
    if nf is not None:
        candidates.append(g.r_max + nf.value())
    return min(candidates)


def _compose_bound(f: LogPowerSeries, inner: LogPowerSeries) -> float:
    """Truncation bound for f(inner): min of inner's own bound and the first
    exponent contributed by f's unrepresented tail."""
    nu = inner.valuation()
    if f.r_max == INF or nu is None:
        return inner.r_max
    return min(inner.r_max, (nu * (math.floor(f.r_max + HORIZON_SLACK) + 1)).value())
