"""Truncated numeric power series with a certified radius.

The reflection tower multiplies radii down by 32 per level, so raw Taylor
coefficients would overflow doubles after a few levels.  Series are therefore
stored in scaled form

    f(z) = sum_n  c_n (z / scale)^n,

with ``scale`` chosen near the working radius so the stored coefficients stay
O(1).  ``radius`` records where the representation is trusted and is fixed at
construction; evaluation does not check it, so callers guard their arguments
with :func:`require_in_disk`.

Evaluation, composition and reversion stop at the last *significant*
coefficient, found once per series: with rho = radius/scale and c_v the first
nonzero coefficient, the smallest m with

    sum_(n>m) |c_n| rho^(n-v) <= TAIL_TOL |c_v|,

so on the trusted disk the dropped tail is below TAIL_TOL times the leading
term's size there, under a rounding unit (the cut of Aurentz & Trefethen,
"Chopping a Chebyshev series", ACM TOMS 43(4), 2017, for a Taylor series on
its disk).  A series trusted everywhere (infinite radius) stops at its last
nonzero coefficient.  The bound holds only on the trusted disk, so a
composition whose inner series reaches past the outer series' disk cuts the
outer series for that reach instead.  Reversion takes its Lagrange powers
in about 2 sqrt(n) convolutions at order n (baby and giant steps, as in Brent
& Kung, "Fast algorithms for manipulating formal power series", J. ACM 25(4),
1978).

An :class:`AnalyticFunc` bundles the series with an optional exact evaluator
(closed form) used preferentially when present.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageEscapesChart, InversionFailure

# a dropped tail is at most this fraction of the leading term on the trusted disk
TAIL_TOL = 1e-17


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
        """Index of the last significant coefficient (0 for the zero series), found on first use.

        See the module docstring for the cut; an infinite radius keeps every
        coefficient up to the last nonzero one.
        """
        try:
            return self._top
        except AttributeError:
            self._top = _significant_top(self.coeffs, self.radius / self.scale)
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

    def compose(self, inner: "PowerSeries", order: int | None = None, radius: float | None = None) -> "PowerSeries":
        """self(inner(z)) to z^order; inner(0) must be 0.  Result lives on inner's scale, trusted on ``radius`` (inner's by default).

        Horner's rule over the significant terms c_0..c_t of self.  Self's
        cut, top(), holds on its trusted disk; where the bound
        sum_n |inner_n| (R/inner.scale)^n on |inner| over the result's disk
        |z| < R reaches past that disk and the cut dropped terms, t is the
        cut for a disk of that reach instead (every nonzero term when the
        reach is not finite).
        """
        if abs(inner.coeffs[0]) != 0:
            raise ValueError("inner series must vanish at 0")
        order = inner.order if order is None else order
        radius = inner.radius if radius is None else radius
        m = min(inner.order, order)
        t = self.top()
        if self.coeffs[t + 1 :].any():
            with np.errstate(over="ignore", invalid="ignore"):
                reach = np.sum(np.abs(inner.coeffs[1 : m + 1]) * (radius / inner.scale) ** np.arange(1, m + 1))
            if not reach <= self.radius:
                t = _significant_top(self.coeffs, reach / self.scale)
        # w/self.scale expressed in inner's variable u = z/inner.scale
        w = np.zeros(order + 1, dtype=complex)
        w[1 : m + 1] = inner.coeffs[1 : m + 1] / self.scale
        acc = np.zeros(order + 1, dtype=complex)
        for c in self.coeffs[t::-1]:
            acc = np.convolve(acc, w)[: order + 1]
            acc[0] += c
        return PowerSeries(acc, inner.scale, radius)

    def reversion(self, order: int | None = None, out_scale: float | None = None) -> "PowerSeries":
        """Series g with f(g(w)) = w + O(w^(order+1)); needs f(0)=0, f'(0) != 0.

        Lagrange inversion (Henrici, Applied and Computational Complex
        Analysis I, 1.9) on the normalized chart F(x) = f(scale lam x)/out_abs
        = x + ..., lam = out_abs/c_1: with h = x/F(x), the reversion has
        coefficients lam [x^(n-1)] h^n / n.  One triangular recurrence gives
        h over the chart's significant terms up to ``order``, and
        :func:`_lagrange_coefficients` the [x^(n-1)] h^n in about
        2 sqrt(order) convolutions.  A linear chart has h = 1 and skips both.

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
        # F(x)/x = 1 + sum_j b_j x^j with b_j = (c_(j+1)/c_1) lam^j, up to the last significant c_(j+1), j < order
        top = self.top() if self.top() <= order else _last_nonzero(self.coeffs[: order + 1])
        # G(v) = g(w)/scale in v = w/out_abs
        g = np.zeros(order + 1, dtype=complex)
        if top < 2:
            g[1] = lam
        else:
            b = self.coeffs[2 : top + 1] / c1
            b *= lam ** np.arange(1, len(b) + 1)
            h = series_power(np.concatenate(([1.0], b)), -1.0, order - 1)
            g[1:] = lam * _lagrange_coefficients(h) / np.arange(1, order + 1)
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


def _lagrange_coefficients(h: np.ndarray) -> np.ndarray:
    """[x^(n-1)] h^n for n = 1..L, L = len(h), from h to x^(L-1).

    Baby steps H_i = h^i, i < s = floor(sqrt L) + 1, and giant steps
    G_j = h^(js): then [x^(n-1)] h^(js+i) = sum_k G_j[k] H_i[js+i-1-k], and
    with p = js + s - 1 - k every one of these sums is entry (j, i) of one
    matrix product A B^T, A[j, p] = G_j[js+s-1-p] and B[i, p] = H_i[p-s+i]
    (zero off the coefficients).  Both are windows of zero-padded flat
    arrays, read without copying.
    """
    L = len(h)
    s = int(L**0.5) + 1
    blocks = L // s + 1
    width = blocks * s
    H = np.zeros((s, L), dtype=complex)
    H[0, 0] = 1.0
    H[1] = h
    for i in range(2, s):
        H[i] = np.convolve(H[i - 1], h)[:L]
    G = np.zeros((blocks, L), dtype=complex)
    G[0, 0] = 1.0
    if blocks > 1:
        G[1] = np.convolve(H[s - 1], h)[:L]
    for j in range(2, blocks):
        G[j] = np.convolve(G[j - 1], G[1])[:L]
    windows = np.lib.stride_tricks.sliding_window_view
    # A: each G_j reversed behind width - L zeros; row j's window starts j s before row 0's
    pad = width - L
    row = pad + L + width
    flat = np.zeros((blocks, row), dtype=complex)
    flat[:, pad : pad + L] = G[:, ::-1]
    A = windows(flat.ravel(), width)[pad + L - s :: row - s][:blocks]
    # B: each H_i behind s zeros; row i's window starts i after row 0's
    row = s + L + width
    flat = np.zeros((s, row), dtype=complex)
    flat[:, s : s + L] = H
    B = windows(flat.ravel(), width)[:: row + 1][:s]
    return (A @ B.T).ravel()[1 : L + 1]


def require_in_disk(value: complex, radius: float, what: str) -> None:
    if abs(value) >= radius:
        raise ImageEscapesChart(f"{what}: |{abs(value):.3e}| >= chart radius {radius:.3e}")


def _last_nonzero(c: np.ndarray) -> int:
    """Index of the last nonzero entry of c, 0 if there is none."""
    nonzero = np.flatnonzero(c)
    return int(nonzero[-1]) if len(nonzero) else 0


def _significant_top(c: np.ndarray, rho: float) -> int:
    """Smallest m >= v with sum_(n>m) |c_n| rho^(n-v) <= TAIL_TOL |c_v|, c_v the first nonzero entry.

    Without a finite rho (inf or nan), or with one nonzero entry, the last
    nonzero index.  An overflowing weight gives inf or nan, which never passes
    the test.
    """
    nonzero = np.flatnonzero(c)
    if len(nonzero) < 2 or not rho < np.inf:
        return int(nonzero[-1]) if len(nonzero) else 0
    v, last = int(nonzero[0]), int(nonzero[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.abs(c[v : last + 1]) * rho ** np.arange(last - v + 1)
        # tail[i] = sum_(n > v+i) of the weighted terms, i < last - v
        tail = np.cumsum(weighted[:0:-1])[::-1]
        cut = np.flatnonzero(tail <= TAIL_TOL * weighted[0])
    return v + int(cut[0]) if len(cut) else last
