"""Generalized log-power series.

A series is a finite (per bounded exponent window) sum

    g(z) = sum_alpha  Q_alpha(log z) * z^alpha,        alpha >= 0 real,

with ``Q_alpha`` a complex polynomial in the indeterminate standing for
``log z``.  The monic/leading-coefficient view ``Q_alpha = a_alpha * P_alpha``
is derived on demand.  Exponents use :class:`~quasimap.exponents.Exponent`, so
structural questions (support, equality of exponents, the pure-power /
log-power dichotomy) are exact; coefficient values are complex doubles.

Every series carries a truncation bound ``r_max``: exponents above it are
*unrepresented* rather than zero, which is what makes "asymptotic expansion up
to order R" statements meaningful.  Arithmetic propagates the bound so that
every retained term of a sum or product is exact.
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
        self.terms = {a: p for a, p in tmap.items() if _le_bound(a, r_max)}
        self.r_max = r_max

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

    def max_log_degree(self) -> int:
        return max((q.degree for q in self.terms.values()), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, LogPowerSeries)
            and self.terms == other.terms
            and value_of(self.r_max) == value_of(other.r_max)
        )

    def __repr__(self):
        bits = []
        for a in self.support():
            bits.append(f"({self.terms[a]!r})*z^({a})")
        r = "inf" if value_of(self.r_max) == INF else str(self.r_max)
        return " + ".join(bits or ["0"]) + f"  [r_max={r}]"

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        r = _min_bound(self.r_max, other.r_max)
        terms = dict(self.terms)
        for a, q in other.terms.items():
            if a in terms:
                s = terms[a] + q
                if s.is_zero():
                    del terms[a]
                else:
                    terms[a] = s
            else:
                terms[a] = q
        return LogPowerSeries(terms, r)

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
        r = _product_bound(self, other)
        terms: dict[Exponent, LogPolynomial] = {}
        for a, qa in self.terms.items():
            for b, qb in other.terms.items():
                e = a + b
                if not _le_bound(e, r):
                    continue
                prod = qa * qb
                if e in terms:
                    s = terms[e] + prod
                    if s.is_zero():
                        del terms[e]
                    else:
                        terms[e] = s
                else:
                    terms[e] = prod
        return LogPowerSeries(terms, r)

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
        new_r = _min_bound(self.r_max, r)
        terms = {a: q for a, q in self.terms.items() if _le_bound(a, new_r)}
        return LogPowerSeries(terms, new_r)

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
            _sub_bound(self.r_max, nu),
        )
        bound = tail.r_max
        out = LogPowerSeries({ZERO: LogPolynomial.constant(1)}, bound)
        term = LogPowerSeries({ZERO: LogPolynomial.constant(1)}, INF)
        # number of binomial terms needed: nu(tail) * n <= bound
        nt = tail.valuation()
        if nt is not None and value_of(bound) < INF:
            nmax = int(value_of(bound) / nt.value()) + 1
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
            _add_bound(out.r_max, nu * p),
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
        r = value_of(self.r_max)
        return {"terms": terms, "truncation_bound": None if r == INF else r}

    @classmethod
    def from_json(cls, data: dict) -> "LogPowerSeries":
        terms = {}
        for t in data["terms"]:
            a = Exponent.from_json(t["exponent"])
            terms[a] = LogPolynomial([complex(re, im) for re, im in t["log_poly"]])
        r = data.get("truncation_bound")
        return cls(terms, INF if r is None else r)


def zpow(logz, alpha: float):
    """exp(alpha * log z) for a complex log z or an array of them; the one shared
    power path, so exact-model remainders cancel to the bit."""
    if isinstance(logz, np.ndarray):
        return np.exp(alpha * logz)
    return cmath.exp(alpha * logz)


# -- truncation-bound arithmetic ----------------------------------------------------


def _le_bound(a: Exponent, r) -> bool:
    if r is INF or value_of(r) == INF:
        return True
    if isinstance(r, Exponent):
        return a <= r
    return a.value() <= float(r) + 1e-15


def _min_bound(r1, r2):
    v1, v2 = value_of(r1), value_of(r2)
    if v1 <= v2:
        return r1
    return r2


def _add_bound(r, e: Exponent):
    if value_of(r) == INF:
        return INF
    if isinstance(r, Exponent):
        return r + e
    return float(r) + e.value()


def _sub_bound(r, e: Exponent):
    if value_of(r) == INF:
        return INF
    if isinstance(r, Exponent):
        return r - e
    return float(r) - e.value()


def _product_bound(f: LogPowerSeries, g: LogPowerSeries):
    """min over unknown-tail entry points of f*g (see module docstring)."""
    nf, ng = f.valuation(), g.valuation()
    candidates = []
    if ng is not None:
        candidates.append(_add_bound(f.r_max, ng))
    if nf is not None:
        candidates.append(_add_bound(g.r_max, nf))
    if nf is None and ng is None:
        vf, vg = value_of(f.r_max), value_of(g.r_max)
        return INF if vf == INF or vg == INF else vf + vg
    out = candidates[0]
    for c in candidates[1:]:
        out = _min_bound(out, c)
    return out


def _compose_bound(f: LogPowerSeries, inner: LogPowerSeries):
    """Truncation bound for f(inner): min of inner's own bound and the first
    exponent contributed by f's unrepresented tail."""
    bound = inner.r_max
    if value_of(f.r_max) != INF:
        nu = inner.valuation()
        if nu is not None:
            n_known = math.floor(value_of(f.r_max) + 1e-12)
            bound = _min_bound(bound, nu * (n_known + 1))
    return bound
