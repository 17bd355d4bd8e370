"""Geometry of the Riemann surface of the logarithm.

Points are (r, phi) with r > 0 and unbounded real argument phi.  To keep
sector membership and the dyadic reflections exact on the rays where they are
decided, arguments are stored as an exact integer multiple of pi plus a float
remainder: phi = phi_pi * pi + phi_rem, with phi_pi a Python int.  Every
float input has multiple 0, and the reflections map integer multiples to
integer multiples.  The reflections and sector tests only ever touch the
exact part.

Sectors follow the dyadic ladder: T_k = {0 <= phi <= 2^k pi}, and for k >= 1
T'_k = {2^(k-1) pi <= phi <= 2^k pi}.  The reflection tau_k maps T'_(k+1) onto
T_k by phi -> -phi + 2^(k+1) pi, fixing the ray phi = 2^k pi.

The sector index and the sheet walk also run on arrays, int64 multiples n
beside float64 remainders: ``sector_index_array`` and ``sheet_walk_array``
make the same float comparisons as their one-point forms, so they decide
every ray alike.  They are exact while |n| < 2^60 and the sector index stays
at most 61 (``ARRAY_MULTIPLE_LIMIT``, ``ARRAY_LEVEL_LIMIT``), where every
n - 2^k and 2^j - n they form stays inside int64.  A set of such points is
held as one ``LPointArray``, which makes an ``LPoint`` only when indexed or
iterated.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import OutOfSector

ARRAY_MULTIPLE_LIMIT = 2**60
ARRAY_LEVEL_LIMIT = 61


def _cmp_pi(n, rem: float, q) -> int:
    """Sign of (n pi + rem) - q pi for exact n, q; on the ray itself the remainder decides.

    A difference of 2^1024 or more has no float; no finite remainder outweighs
    it, so its sign alone decides.
    """
    d = n - q
    if d == 0:
        return (rem > 0) - (rem < 0)
    try:
        approx = float(d) * math.pi + rem
    except OverflowError:
        return 1 if d > 0 else -1
    return (approx > 0) - (approx < 0)


def cmp_pi_array(n: np.ndarray, rem: np.ndarray, q: int) -> np.ndarray:
    """:func:`_cmp_pi` elementwise on int64 n and float64 rem, by the same float operations."""
    d = n - q
    return np.where(d == 0, np.sign(rem), np.sign(d * math.pi + rem))


class LPoint:
    """Point (r, phi) on the log surface; phi = phi_pi*pi + phi_rem exactly, phi_pi any integer, stored as an int."""

    __slots__ = ("r", "phi_pi", "phi_rem")

    def __init__(self, r: float, phi=None, *, phi_pi=None, phi_rem=0.0):
        r = float(r)
        if phi_pi is None:
            self.phi_pi = 0
            phi_rem = phi
        else:
            try:
                self.phi_pi = operator.index(phi_pi)
            except TypeError:
                raise TypeError(f"phi_pi must be an integer multiple of pi, got {phi_pi!r}") from None
        phi_rem = float(phi_rem)
        if not (0 < r < math.inf and -math.inf < phi_rem < math.inf):
            raise ValueError(
                f"log-surface points need 0 < r < inf and a finite argument, got r = {r}, phi = {phi_rem}"
            )
        self.r = r
        self.phi_rem = phi_rem

    @property
    def phi(self) -> float:
        """The argument as a float: +-inf once phi_pi * pi has no float (|phi_pi| >= 2^1024 included)."""
        try:
            return float(self.phi_pi) * math.pi + self.phi_rem
        except OverflowError:
            return math.inf if self.phi_pi > 0 else -math.inf

    def log(self) -> complex:
        return complex(math.log(self.r), self.phi)

    def mirrored(self) -> "LPoint":
        """The point (r, pi - phi), formed on the exact multiple: n pi + rem -> (1 - n) pi - rem."""
        return LPoint(self.r, phi_pi=1 - self.phi_pi, phi_rem=-self.phi_rem)

    def __repr__(self):
        if self.phi_rem == 0.0:
            return f"LPoint(r={self.r!r}, phi={self.phi_pi}*pi)"
        return f"LPoint(r={self.r!r}, phi={self.phi_pi}*pi + {self.phi_rem!r})"

    def to_json(self) -> dict:
        phi = self.phi
        if not math.isfinite(phi):
            raise ValueError(f"the argument of {self!r} has no finite float for JSON")
        return {"r": self.r, "arg": phi}

    def __eq__(self, other):
        return (
            isinstance(other, LPoint)
            and self.r == other.r
            and self.phi_pi == other.phi_pi
            and self.phi_rem == other.phi_rem
        )

    def _phi_cmp_pi(self, q) -> int:
        return _cmp_pi(self.phi_pi, self.phi_rem, q)


class LPointArray:
    """Points (r, phi_pi * pi + phi_rem) as arrays: float64 r and phi_rem, int64 phi_pi.

    A sequence of :class:`LPoint`: indexing or iterating makes them one at a
    time, equal to the points the arrays were made from.  Every multiple is
    below ARRAY_MULTIPLE_LIMIT in magnitude, so the int64 sheet walk takes
    the arrays as they are.
    """

    __slots__ = ("r", "phi_pi", "phi_rem")

    def __init__(self, r, phi_pi, phi_rem):
        self.r = np.asarray(r, dtype=float)
        self.phi_pi = np.asarray(phi_pi, dtype=np.int64)
        self.phi_rem = np.asarray(phi_rem, dtype=float)
        if not self.r.ndim == 1 or not self.r.shape == self.phi_pi.shape == self.phi_rem.shape:
            raise ValueError("an LPointArray needs three 1-d arrays of one length")
        bad = np.flatnonzero(
            ~((self.r > 0) & (self.r < math.inf) & np.isfinite(self.phi_rem))
            | (self.phi_pi <= -ARRAY_MULTIPLE_LIMIT)
            | (self.phi_pi >= ARRAY_MULTIPLE_LIMIT)
        )
        if len(bad):
            i = int(bad[0])
            raise ValueError(
                f"log-surface point arrays need 0 < r < inf, a finite remainder and |phi_pi| < 2^60; point {i} has "
                f"r = {self.r[i]}, phi = {self.phi_pi[i]}*pi + {self.phi_rem[i]}"
            )

    @classmethod
    def from_points(cls, points: list) -> "LPointArray | None":
        """The points of a list as arrays; None if some multiple is at least 2^60 in magnitude."""
        try:
            n = np.array([p.phi_pi for p in points], dtype=np.int64)
        except OverflowError:
            return None
        if not ((n > -ARRAY_MULTIPLE_LIMIT) & (n < ARRAY_MULTIPLE_LIMIT)).all():
            return None
        return cls([p.r for p in points], n, [p.phi_rem for p in points])

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, i: int) -> LPoint:
        return LPoint(float(self.r[i]), phi_pi=int(self.phi_pi[i]), phi_rem=float(self.phi_rem[i]))

    def __iter__(self):
        for r, n, rem in zip(self.r.tolist(), self.phi_pi.tolist(), self.phi_rem.tolist()):
            yield LPoint(r, phi_pi=n, phi_rem=rem)

    @property
    def phi(self) -> np.ndarray:
        """The arguments as floats, by LPoint.phi's operations: float(n) pi + rem."""
        return self.phi_pi * math.pi + self.phi_rem

    def log(self) -> np.ndarray:
        """log z of every point, as :func:`log_array` forms it."""
        return log_array(self.r, self.phi)

    def mirrored(self) -> "LPointArray":
        """:meth:`LPoint.mirrored` of every point; a multiple 1 - n of 2^60 is refused as any other."""
        return LPointArray(self.r, 1 - self.phi_pi, -self.phi_rem)


# -- sectors ---------------------------------------------------------------------


class Sector:
    """T_k (kind 'T') or T'_k (kind 'Tp') of the dyadic ladder."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int):
        if kind not in ("T", "Tp"):
            raise ValueError("kind must be 'T' or 'Tp'")
        if k < 0 or (kind == "Tp" and k < 1):
            raise ValueError("T_k needs k >= 0; T'_k needs k >= 1")
        self.kind = kind
        self.k = int(k)

    def contains(self, z: LPoint) -> bool:
        lo = 0 if self.kind == "T" else 2 ** (self.k - 1)
        return z._phi_cmp_pi(lo) >= 0 and z._phi_cmp_pi(2**self.k) <= 0

    def __repr__(self):
        tag = "T" if self.kind == "T" else "T'"
        return f"{tag}_{self.k}"


def in_Tp(k: int, z: LPoint) -> bool:
    return Sector("Tp", k).contains(z)


def sector_index_point(z: LPoint) -> int:
    """Exact sector index: the smallest k >= 0 with phi <= 2^k pi."""
    n, rem = z.phi_pi, z.phi_rem
    k = 0
    while _cmp_pi(n, rem, 2**k) > 0:
        k += 1
    return k


def reflect_tau(k: int, z: LPoint) -> LPoint:
    """tau_k: T'_(k+1) -> T_k, (r, phi) -> (r, -phi + 2^(k+1) pi)."""
    if not in_Tp(k + 1, z):
        raise OutOfSector(f"{z!r} is not in T'_{k + 1}")
    return LPoint(z.r, phi_pi=2 ** (k + 1) - z.phi_pi, phi_rem=-z.phi_rem)


def sheet_walk(z: LPoint, k: int) -> tuple[list, object, float]:
    """Walk phi = n pi + rem down the ladder from level k to level 0.

    At each level j = k, ..., 1 a point in T'_j is reflected by tau_(j-1)
    (n -> 2^j - n, rem -> -rem), as ``reflect_tau`` would.  Returns the
    levels j - 1 of the reflections made, from the top down, and the final
    (n, rem).
    """
    n, rem = z.phi_pi, z.phi_rem
    reflected = []
    for j in range(k, 0, -1):
        top = 2**j
        if _cmp_pi(n, rem, top >> 1) >= 0 and _cmp_pi(n, rem, top) <= 0:
            reflected.append(j - 1)
            n, rem = top - n, -rem
    return reflected, n, rem


def sector_index_array(n: np.ndarray, rem: np.ndarray, limit: int) -> np.ndarray:
    """:func:`sector_index_point` of each phi = n pi + rem, for limit <= ARRAY_LEVEL_LIMIT;
    limit + 1 where phi lies above 2^limit pi."""
    k = np.full(len(n), limit + 1)
    above = np.ones(len(n), dtype=bool)
    for j in range(limit + 1):
        if not above.any():
            break
        below = above & (cmp_pi_array(n, rem, 1 << j) <= 0)
        k[below] = j
        above &= ~below
    return k


def sheet_walk_array(n: np.ndarray, rem: np.ndarray, k: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """:func:`sheet_walk` of every point from its own level k.

    Returns, from the top down, (j - 1, indices of the points tau_(j-1)
    reflects) for each level j at which some point is reflected, and the
    final (n, rem) as new arrays.
    """
    n, rem = n.copy(), rem.copy()
    reflected = []
    for j in range(int(k.max(initial=0)), 0, -1):
        top = 1 << j
        hit = np.flatnonzero((k >= j) & (cmp_pi_array(n, rem, top >> 1) >= 0) & (cmp_pi_array(n, rem, top) <= 0))
        if len(hit):
            n[hit] = top - n[hit]
            rem[hit] = -rem[hit]
            reflected.append((j - 1, hit))
    return reflected, n, rem


def log_array(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """log z = log r + i phi elementwise, as one complex array.

    log r is taken by ``math.log``, as ``LPoint.log`` takes it (numpy's log
    differs from it in the last bit now and then), so a point's log is the
    same bits in a list as alone.
    """
    out = np.empty(len(r), dtype=complex)
    out.real = list(map(math.log, r.tolist()))
    out.imag = phi
    return out


# -- quadratic domains -------------------------------------------------------------


class QuadraticDomain:
    """Region 0 < r < c * exp(-C sqrt(|phi|)); `mirrored` includes phi < 0."""

    __slots__ = ("c", "C", "mirrored")

    def __init__(self, c: float, C: float, mirrored: bool = True):
        if not (c > 0 and C > 0):
            raise ValueError("quadratic domain needs c, C > 0")
        self.c = float(c)
        self.C = float(C)
        self.mirrored = bool(mirrored)

    def radius_at(self, phi: float) -> float:
        return self.c * math.exp(-self.C * math.sqrt(abs(phi)))

    def contains(self, z: LPoint) -> bool:
        phi = z.phi
        if phi < 0 and not self.mirrored:
            return False
        return 0 < z.r < self.radius_at(phi)

    def max_arg_at(self, r: float) -> float:
        """Largest |phi| admitted at radius r (0 if r >= c)."""
        if r >= self.c:
            return 0.0
        return (math.log(self.c / r) / self.C) ** 2

    def to_json(self) -> dict:
        return {"c": self.c, "C": self.C, "mirrored": self.mirrored}

    def __repr__(self):
        return f"QuadraticDomain(c={self.c!r}, C={self.C!r}, mirrored={self.mirrored})"


def quad_intersect(w1: QuadraticDomain, w2: QuadraticDomain) -> QuadraticDomain:
    return QuadraticDomain(
        min(w1.c, w2.c), max(w1.C, w2.C), mirrored=w1.mirrored and w2.mirrored
    )
