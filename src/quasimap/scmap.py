"""Ground-truth conformal maps: Moebius transforms, model corners, and a
Schwarz-Christoffel solver for bounded polygons.

The SC map from the upper half plane onto a polygon with interior angles
alpha_k pi is

    Phi(z) = B + A * integral from x_1 to z of  prod_k (t - x_k)^(alpha_k - 1) dt,

with real prevertices x_1 < ... < x_n and the closure constraint
sum (1 - alpha_k) = 2.  Three prevertices are fixed at -1, 0, 1; the remaining
gaps are solved in a log-transformed unconstrained parameterization by damped
Newton on side-length ratios.  Integrals use Gauss-Jacobi rules that absorb
the endpoint singularities, with adaptive node doubling.  One ``solve_sc``
call computes each rule (node count, exponent) once and reuses it in every
residual, Jacobian column, the constant A and the closure check;
``sc_evaluate`` computes its own rules on each call.  No rule is cached
between calls.  ``sc_evaluate`` raises ValueError for a point that is not
finite or lies below the real axis.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .corners import require_counterclockwise
from .errors import DegenerateTransform, InvalidAngles, NonConvergence
from .exponents import Exponent
from .powerseries import AnalyticFunc, PowerSeries
from .reflection import MapGerm
from .series import LogPowerSeries


# -- Moebius transforms ----------------------------------------------------------


class MobiusTransform:
    """w = (a z + b) / (c z + d), ad - bc != 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (complex(a), complex(b), complex(c), complex(d))
        if self.a * self.d - self.b * self.c == 0:
            raise DegenerateTransform("ad - bc = 0")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = (self.a * z + self.b) / (self.c * z + self.d)
        return out if out.shape else complex(out)

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    @classmethod
    def from_triple(cls, src, dst) -> "MobiusTransform":
        """Unique transform sending three distinct points to three others."""
        return cls._to_standard(dst).inverse().compose(cls._to_standard(src))

    @classmethod
    def _to_standard(cls, pts) -> "MobiusTransform":
        # sends (p1, p2, p3) to (0, 1, inf)
        p1, p2, p3 = (complex(p) for p in pts)
        return cls(p2 - p3, -p1 * (p2 - p3), p2 - p1, -p3 * (p2 - p1))

    def __repr__(self):
        return f"MobiusTransform({self.a}, {self.b}, {self.c}, {self.d})"


# -- model corner germs ------------------------------------------------------------


def model_corner_germ(alpha) -> MapGerm:
    """The sector model z -> z^alpha on H-bar, the one-term series {alpha: 1}: arcs are the two bounding rays.

    alpha is exact (an Exponent, int, Fraction or str); a bare float raises ValueError.
    """
    if isinstance(alpha, float):
        raise ValueError(f"model corner needs an exact alpha, not the float {alpha!r}")
    a = Exponent.coerce(alpha)
    av = a.value()
    if not (0 < av <= 2):
        raise ValueError("model corner needs 0 < alpha <= 2")
    rot = cmath.exp(1j * math.pi * av)
    arc1 = AnalyticFunc(PowerSeries.linear(1.0, radius=np.inf), exact=lambda z: np.asarray(z, dtype=complex) + 0j)
    arc2 = AnalyticFunc(PowerSeries.linear(rot, radius=np.inf), exact=lambda z, r=rot: r * np.asarray(z, dtype=complex))
    return MapGerm.from_series(LogPowerSeries({a: 1}), arc1, arc2, t_bar=1.0, growth=1.0, label=f"sector[{a}]")


# -- Schwarz-Christoffel -------------------------------------------------------------


@dataclass
class SCPolygon:
    """Solved parameter problem: prevertices, angles, and the affine constants."""

    vertices: list
    angles: list  # Exponents alpha_k with angle alpha_k * pi
    prevertices: np.ndarray
    A: complex
    B: complex
    residual: float

    def exponents(self) -> np.ndarray:
        return np.array([a.value() - 1.0 for a in self.angles])


def roots_jacobi(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and weights, from scipy.special, imported on first use.

    Only the SC integrals need scipy, so a process that never solves or
    evaluates an SC map does not load it.
    """
    from scipy.special import roots_jacobi as rule

    return rule(n, alpha, beta)


def _jacobi_integral(a, b, e_a: float, xs, es, n0: int, nmax: int, rules: dict) -> complex:
    """Integral of the SC integrand over the segment [a, b] (principal branches).

    The factor (t - a)^e_a, e_a > -1, is pulled out of the integrand and
    absorbed by the Gauss-Jacobi weight.  The node count doubles from n0
    until two successive rules agree to 1e-13 relative; past nmax the last
    rule stands.  ``rules`` maps (n, e_a) to a rule already computed by the
    caller and receives the ones computed here.
    """
    h = (b - a) / 2.0
    prev = None
    n = n0
    while n <= nmax:
        rule = rules.get((n, e_a))
        if rule is None:
            rule = rules[n, e_a] = roots_jacobi(n, 0.0, e_a)
        nodes, weights = rule
        t = (a + h * (nodes + 1.0)).astype(complex)
        # factor (t - a)^e = h^e (1+s)^e; the (1+s)^e part sits in the weight
        vals = np.ones_like(t)
        for x, e in zip(xs, es):
            if x != a and e != 0.0:
                vals = vals * (t - x) ** e
        cur = complex(h) ** (e_a + 1.0) * np.dot(weights, vals)
        if prev is not None and abs(cur - prev) <= 1e-13 * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    return prev


def _side_integral_complex(xs, es, j: int, rules: dict) -> complex:
    """Oriented integral over the real segment [x_j, x_(j+1)], split at its midpoint."""
    a, b = xs[j], xs[j + 1]
    mid = 0.5 * (a + b)
    left = _jacobi_integral(a, mid, es[j], xs, es, 24, 384, rules)
    return left - _jacobi_integral(b, mid, es[j + 1], xs, es, 24, 384, rules)


def solve_sc(vertices, angles, tol: float = 1e-10) -> SCPolygon:
    """Solve the SC parameter problem for a bounded polygon.

    ``angles`` are the interior angles divided by pi, exact (Exponents, ints,
    Fractions or their text) in (0, 2]; they must satisfy the closure rule
    sum(1 - alpha_k) = 2 exactly, and a float raises InvalidAngles, as does an
    angle whose weight exponent alpha_k - 1 is -1 or below as a double.  Vertices
    are in counterclockwise order; clockwise ones raise InvalidAngles.  A
    residual above ``tol`` after 60 Newton steps raises NonConvergence.
    """
    vs = [complex(v[0], v[1]) if isinstance(v, (tuple, list)) else complex(v) for v in vertices]
    try:
        als = [Exponent.coerce(a) for a in angles]
        in_range = all(0 < a <= 2 for a in als)
    except (TypeError, OverflowError) as exc:  # a float, or a rational beyond the doubles
        raise InvalidAngles(str(exc)) from None
    n = len(vs)
    if n < 3 or len(als) != n:
        raise InvalidAngles("need n >= 3 vertices with one angle each")
    if not in_range:
        raise InvalidAngles("angles must lie in (0, 2] (as multiples of pi)")
    if sum(1 - a for a in als) != 2:
        raise InvalidAngles("angle sum rule sum(1 - alpha_k) = 2 violated")
    if any(vs[j] == vs[j - 1] for j in range(n)):
        raise InvalidAngles("consecutive vertices must be distinct")
    try:
        require_counterclockwise(vs)
    except ValueError as exc:
        raise InvalidAngles(str(exc)) from None
    exponents = np.array([a.value() - 1.0 for a in als])
    for k, e in enumerate(exponents):
        if e <= -1.0:
            raise InvalidAngles(
                f"vertex {k} at {vs[k]}: angle {als[k]} pi has the weight exponent alpha - 1 = {e} as a double,"
                " and Gauss-Jacobi rules need one above -1"
            )
    # every side integral of this solve draws its Gauss-Jacobi rules from one table
    rules = {}

    if n == 3:
        prev = np.array([-1.0, 0.0, 1.0])
        residual = 0.0
    else:
        target = np.log(
            np.array([abs(vs[j + 1] - vs[j]) for j in range(1, n - 2)]) / abs(vs[1] - vs[0])
        )

        def prevertices_from(u: np.ndarray) -> np.ndarray:
            # gaps that overflow give NaN prevertices and a NaN residual, which
            # the line search rejects like any other step that does not improve
            with np.errstate(over="ignore", invalid="ignore"):
                gaps = np.exp(np.concatenate([[0.0], np.cumsum(u)]))
                gaps = gaps / gaps.sum()
            xs = np.empty(n)
            xs[0] = -1.0
            xs[1] = 0.0
            xs[2:] = np.cumsum(gaps)
            return xs

        def residual_of(u: np.ndarray) -> np.ndarray:
            xs = prevertices_from(u)
            base = abs(_side_integral_complex(xs, exponents, 0, rules))
            res = np.empty(n - 3)
            for j in range(1, n - 2):
                res[j - 1] = math.log(abs(_side_integral_complex(xs, exponents, j, rules)) / base) - target[j - 1]
            return res

        u = np.zeros(n - 3)
        res = residual_of(u)
        norm = np.linalg.norm(res, np.inf)
        it = 0
        while norm > tol and it < 60:
            jac = np.empty((n - 3, n - 3))
            h = 1e-6
            for i in range(n - 3):
                up = u.copy()
                up[i] += h
                jac[:, i] = (residual_of(up) - res) / h
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, res, rcond=None)
            lam = 1.0
            while lam > 1e-6:
                u_new = u - lam * step
                res_new = residual_of(u_new)
                if np.linalg.norm(res_new, np.inf) < norm:
                    u, res = u_new, res_new
                    norm = np.linalg.norm(res, np.inf)
                    break
                lam /= 2.0
            else:
                break
            it += 1
        if not norm <= tol:  # a NaN residual fails too
            raise NonConvergence(norm)
        prev = prevertices_from(u)
        residual = float(norm)

    # affine constants from the first side
    i1 = _side_integral_complex(prev, exponents, 0, rules)
    A = (vs[1] - vs[0]) / i1
    B = vs[0]
    poly = SCPolygon(vs, als, prev, A, B, residual)

    # closure: chain the oriented side integrals from x_1 and compare vertices
    worst = 0.0
    w_hat = vs[0]
    for j in range(n - 1):
        w_hat = w_hat + A * _side_integral_complex(prev, exponents, j, rules)
        worst = max(worst, abs(w_hat - vs[j + 1]))
    scale = max(abs(v) for v in vs)
    if not worst <= 1e4 * tol * max(1.0, scale):
        raise NonConvergence(worst, f"vertex placement error {worst:.3e}")
    poly.residual = max(poly.residual, worst)
    return poly


def sc_evaluate(poly: SCPolygon, z) -> complex:
    """Phi(z) for z in the closed upper half plane, anchored at the nearest prevertex.

    Raises ValueError naming z when z is not finite or Im z < 0.  Its
    Gauss-Jacobi rules are computed afresh on each call.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag >= 0):
        raise ValueError(f"z = {z} is not a finite point of the closed upper half plane")
    xs = poly.prevertices
    es = poly.exponents()
    k = int(np.argmin(np.abs(xs - z)))
    anchor = xs[k]
    # image of the anchor prevertex, plus the integral from it straight to z
    w_anchor = poly.vertices[k]
    val = 0j if z == anchor else _jacobi_integral(anchor, z, es[k], xs, es, 48, 768, {})
    return w_anchor + poly.A * val


@functools.lru_cache(maxsize=64)
def _exponent_ladder(alpha: Exponent, order: int) -> tuple:
    """The exponents alpha + m, m = 0..order, shared by every SC germ at the angle alpha pi."""
    return tuple(alpha + m for m in range(order + 1))


def sc_corner_germ(poly: SCPolygon, k: int) -> MapGerm:
    """Germ of the SC map at vertex k: Phi(x_k + z) - w_k on H-bar.

    The expansion has pure powers z^(alpha_k + j), j <= 24: the integrand
    splits as (t - x_k)^(alpha_k - 1) times a factor analytic near x_k, and
    termwise integration never hits a log (alpha_k + j > 0 throughout).  The
    germ is valid out to half the distance to the nearest other prevertex.
    """
    order = 24
    xs = poly.prevertices
    es = poly.exponents()
    n = len(xs)
    x_k = xs[k]
    alpha_k = poly.angles[k]
    a_val = alpha_k.value()
    gap = min(abs(xs[j] - x_k) for j in range(n) if j != k)
    t_bar = 0.5 * gap

    # Taylor coefficients of G(u) = prod_{j != k} (d_j + u)^(e_j), d_j = x_k - x_j real: the principal
    # d_j^(e_j) times the real ratios a_m / a_(m-1) = (e_j - m + 1) / (m d_j), multiplied out
    m = np.arange(1, order + 1)
    g = np.zeros(order + 1, dtype=complex)
    g[0] = 1.0
    for j in range(n):
        if j == k:
            continue
        d, e = x_k - xs[j], es[j]
        fac = np.complex128(d) ** e * np.cumprod(np.concatenate(([1.0], (e - m + 1) / (m * d))))
        g = np.convolve(g, fac)[: order + 1]

    # term integrals: Phi(x_k + z) - w_k = A sum_m g_m z^(alpha_k + m) / (alpha_k + m)
    coeffs = poly.A * g / (a_val + np.arange(order + 1))
    ladder = _exponent_ladder(alpha_k, order)
    series = LogPowerSeries({ladder[m]: c for m, c in enumerate(coeffs) if c != 0}, r_max=ladder[order])

    vs = poly.vertices
    w_k = vs[k]
    d1 = vs[(k + 1) % n] - w_k
    d2 = vs[(k - 1) % n] - w_k
    arc1 = AnalyticFunc(PowerSeries.linear(d1 / abs(d1), radius=abs(d1)))
    arc2 = AnalyticFunc(PowerSeries.linear(d2 / abs(d2), radius=abs(d2)))
    return MapGerm.from_series(series, arc1, arc2, t_bar, label=f"sc-vertex-{k}")
