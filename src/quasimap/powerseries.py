"""Truncated numeric power series with a certified radius.

The reflection tower multiplies radii down by 32 per level, so raw Taylor
coefficients would overflow doubles after a few levels.  Series are therefore
stored in scaled form

    f(z) = sum_n  c_n (z / scale)^n,

with ``scale`` chosen near the working radius so the stored coefficients stay
O(1).  ``radius`` records where the representation is trusted; evaluation
outside raises.  Evaluation stops at the last nonzero coefficient, found once
per series, so exact-zero top coefficients cost nothing.

An :class:`AnalyticFunc` bundles the series with an optional exact evaluator
(closed form) used preferentially when present.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageEscapesChart, InversionFailure


class PowerSeries:
    """f(z) = sum c_n (z/scale)^n, trusted on |z| < radius."""

    __slots__ = ("coeffs", "scale", "radius", "_top")

    def __init__(self, coeffs, scale: float = 1.0, radius: float = np.inf):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        self.scale = float(scale)
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        self.radius = float(radius)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_unscaled(cls, unscaled, scale: float = 1.0, radius: float = np.inf) -> "PowerSeries":
        """Build from plain Taylor coefficients a_n (of z^n)."""
        a = np.asarray(unscaled, dtype=complex)
        n = np.arange(len(a))
        return cls(a * (float(scale) ** n), scale, radius)

    @classmethod
    def linear(cls, c1: complex, scale: float = 1.0, radius: float = np.inf) -> "PowerSeries":
        return cls([0.0, c1 * scale], scale, radius)

    # -- basics -------------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def unscaled(self) -> np.ndarray:
        n = np.arange(len(self.coeffs))
        return self.coeffs / (self.scale**n)

    def deriv0(self) -> complex:
        """f'(0)."""
        return complex(self.coeffs[1] / self.scale) if self.order >= 1 else 0j

    def rescaled(self, new_scale: float) -> "PowerSeries":
        ratio = float(new_scale) / self.scale
        n = np.arange(len(self.coeffs))
        return PowerSeries(self.coeffs * ratio**n, new_scale, self.radius)

    def conjugated(self) -> "PowerSeries":
        """Series of z -> conj(f(conj z)): conjugate coefficients."""
        return PowerSeries(np.conj(self.coeffs), self.scale, self.radius)

    def top(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero series), found on first use."""
        try:
            return self._top
        except AttributeError:
            self._top = _last_nonzero(self.coeffs)
            return self._top

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        u = z / self.scale
        acc = np.zeros_like(u)
        for c in self.coeffs[self.top() :: -1]:
            acc = acc * u + c
        return acc if acc.shape else complex(acc)

    def eval_deriv(self, z):
        z = np.asarray(z, dtype=complex)
        u = z / self.scale
        acc = np.zeros_like(u)
        for n in range(self.top(), 0, -1):
            acc = acc * u + n * self.coeffs[n]
        acc = acc / self.scale
        return acc if acc.shape else complex(acc)

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        o = other.rescaled(self.scale) if other.scale != self.scale else other
        n = max(len(self.coeffs), len(o.coeffs))
        a = np.zeros(n, dtype=complex)
        a[: len(self.coeffs)] += self.coeffs
        a[: len(o.coeffs)] += o.coeffs
        return PowerSeries(a, self.scale, min(self.radius, o.radius))

    def __neg__(self):
        return PowerSeries(-self.coeffs, self.scale, self.radius)

    def __sub__(self, other):
        return self + (-other)

    def scaled_by(self, c: complex) -> "PowerSeries":
        return PowerSeries(self.coeffs * c, self.scale, self.radius)

    def compose(self, inner: "PowerSeries", order: int | None = None) -> "PowerSeries":
        """self(inner(z)); inner(0) must be 0.  Result lives on inner's scale."""
        if abs(inner.coeffs[0]) != 0:
            raise ValueError("inner series must vanish at 0")
        order = inner.order if order is None else order
        # w/self.scale expressed in inner's variable u = z/inner.scale
        w = np.zeros(order + 1, dtype=complex)
        m = min(len(inner.coeffs) - 1, order)
        w[1 : m + 1] = inner.coeffs[1 : m + 1] / self.scale
        acc = np.zeros(order + 1, dtype=complex)
        # exact-zero top coefficients would only convolve zeros
        for c in self.coeffs[self.top() :: -1]:
            acc = np.convolve(acc, w)[: order + 1]
            acc[0] += c
        return PowerSeries(acc, inner.scale, inner.radius)

    def reversion(self, order: int | None = None, out_scale: float | None = None) -> "PowerSeries":
        """Series g with f(g(w)) = w + O(w^(order+1)); needs f(0)=0, f'(0) != 0.

        Lagrange inversion (Henrici, Applied and Computational Complex
        Analysis I, 1.9) on the normalized chart F(x) = f(scale lam x)/out_abs
        = x + ..., lam = out_abs/c_1: with h = x/F(x), the reversion has
        coefficients lam [x^(n-1)] h^n / n.  One triangular recurrence gives
        h and one running product gives its powers, so the cost is about
        ``order`` convolutions of length ``order``.  Exact-zero top
        coefficients up to ``order`` are sliced off first, so a linear chart
        skips the recurrence.

        ``out_scale`` defaults to |f'(0)| * scale / 4, the Koebe-guaranteed
        image radius for normalized univalent charts.
        """
        order = self.order if order is None else order
        if min(self.order, order) < 1:
            raise ValueError("reversion requires a series and an output of order >= 1")
        if abs(self.coeffs[0]) > 0:
            raise ValueError("reversion requires f(0) = 0")
        c1 = complex(self.coeffs[1])
        if c1 == 0:
            raise InversionFailure("reversion requires f'(0) != 0")
        out_abs = abs(c1) / 4.0 if out_scale is None else float(out_scale)
        # numpy's complex division, so that lam matches array arithmetic bit for bit
        lam = np.complex128(out_abs) / c1
        # F(x)/x = 1 + sum_j b_j x^j with b_j = (c_(j+1)/c_1) lam^j, up to the last nonzero c_(j+1), j < order
        top = self.top() if self.top() <= order else _last_nonzero(self.coeffs[: order + 1])
        b = self.coeffs[2 : top + 1] / c1
        b *= lam ** np.arange(1, len(b) + 1)
        # h = 1/(F(x)/x) to order x^(order-1); it stays a constant for linear charts
        h = series_power(np.concatenate(([1.0], b)), -1.0, order - 1 if len(b) else 0)
        # G(v) = g(w)/scale in v = w/out_abs; p runs through h^n
        g = np.zeros(order + 1, dtype=complex)
        p = h
        for n in range(1, len(h) + 1):
            g[n] = lam * p[n - 1] / n
            p = np.convolve(p, h)[: len(h)]
        return PowerSeries(g * self.scale, out_abs, out_abs)

    def newton_inverse(self, w, z0=None):
        """Solve f(z) = w near 0 by at most 60 damped Newton steps to 1e-14 relative, seeded by w / f'(0) if no z0.

        ``w`` and ``z0`` are complex numbers or arrays of one shape.  A number
        is solved in Python complex arithmetic.  For an array the seeds are
        checked at once and only the elements that miss the tolerance are
        iterated, one by one.
        """
        if z0 is None:
            z0 = w / self.deriv0()
        if not isinstance(w, np.ndarray):
            w, z = complex(w), complex(z0)
            return self._damped_newton(w, z, self(z) - w)
        z = np.array(z0, dtype=complex)
        fz = self(z) - w
        target = 1e-14 * np.maximum(np.abs(w), abs(self.coeffs[1]))
        for i in np.flatnonzero(~(np.abs(fz) <= target)):
            z[i] = self._damped_newton(complex(w[i]), complex(z[i]), complex(fz[i]))
        return z

    def _damped_newton(self, w: complex, z: complex, fz: complex) -> complex:
        target = 1e-14 * max(abs(w), abs(self.coeffs[1]))
        for _ in range(60):
            if abs(fz) <= target:
                return z
            d = self.eval_deriv(z)
            if d == 0:
                break
            step = fz / d
            lam = 1.0
            for _ in range(40):
                z_new = z - lam * step
                f_new = self(z_new) - w
                if abs(f_new) < abs(fz):
                    z, fz = z_new, f_new
                    break
                lam /= 2
            else:
                break
        if abs(fz) > 100 * target + 1e-300:
            raise InversionFailure(f"Newton inversion stalled at |f - w| = {abs(fz):.3e}")
        return z


class AnalyticFunc:
    """Analytic function data: certified series plus optional exact evaluator."""

    __slots__ = ("series", "exact")

    def __init__(self, series: PowerSeries, exact=None):
        self.series = series
        self.exact = exact

    @classmethod
    def from_callable(cls, fn, radius: float, order: int = 40) -> "AnalyticFunc":
        """Sample Taylor coefficients of ``fn`` on the circle of radius/2 by FFT."""
        m = max(4 * (order + 1), 256)
        rho = radius * 0.5
        theta = 2 * np.pi * np.arange(m) / m
        vals = fn(rho * np.exp(1j * theta))
        coeffs = np.fft.fft(vals) / m
        coeffs = coeffs[: order + 1]
        # snap sampling noise to structural zeros (e.g. fn(0) = 0 exactly)
        floor = 1e-14 * np.max(np.abs(coeffs))
        coeffs[np.abs(coeffs) < floor] = 0.0
        return cls(PowerSeries(coeffs, rho, radius), exact=fn)

    @property
    def radius(self) -> float:
        return self.series.radius

    def deriv0(self) -> complex:
        return self.series.deriv0()

    def __call__(self, z):
        if self.exact is not None:
            return self.exact(z)
        return self.series(z)

    def conjugated(self) -> "AnalyticFunc":
        ex = None
        if self.exact is not None:
            inner = self.exact
            ex = lambda z: np.conj(inner(np.conj(z)))
        return AnalyticFunc(self.series.conjugated(), ex)


def series_power(c, p: float, order: int) -> np.ndarray:
    """Taylor coefficients of c(x)^p to x^order, for c[0] != 0 and the principal c[0]^p; c past its end is zero.

    J.C.P. Miller's recurrence (Henrici, Applied and Computational Complex
    Analysis I, 1.6): b_0 = c_0^p and
    b_n = -(1/c_0) sum_(k=1..n) w_k c_k b_(n-k),  w_k = (n - k - p k)/n.
    Forming n - k exactly first keeps w_k accurate for p near an integer;
    for p = -1 every w_k is exactly 1, the reciprocal recurrence.
    """
    c = np.asarray(c, dtype=complex)
    b = np.zeros(order + 1, dtype=complex)
    b[0] = c[0] ** p
    k = np.arange(1, len(c))
    for n in range(1, order + 1):
        j = min(n, len(c) - 1)
        w = (n - k[:j] - p * k[:j]) / n
        b[n] = -np.dot(w * c[1 : j + 1], b[n - 1 :: -1][:j]) / c[0]
    return b


def require_in_disk(value: complex, radius: float, what: str) -> None:
    if abs(value) >= radius:
        raise ImageEscapesChart(f"{what}: |{abs(value):.3e}| >= chart radius {radius:.3e}")


def _last_nonzero(c: np.ndarray) -> int:
    """Index of the last nonzero entry of c, 0 if there is none."""
    nonzero = np.flatnonzero(c)
    return int(nonzero[-1]) if len(nonzero) else 0
