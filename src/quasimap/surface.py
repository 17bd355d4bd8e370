"""Geometry of the Riemann surface of the logarithm.

Points are (r, phi) with r > 0 and unbounded real argument phi.  To keep
sector membership and the dyadic reflections exact on the rays where they are
decided, arguments are stored as an exact rational multiple of pi plus a float
remainder: phi = phi_pi * pi + phi_rem.  The multiple is a Python int whenever
it is integral (every float input and everything the reflections make of it)
and a Fraction otherwise.  The reflections and sector tests only ever touch
the exact part.

Sectors follow the dyadic ladder: T_k = {0 <= phi <= 2^k pi}, and for k >= 1
T'_k = {2^(k-1) pi <= phi <= 2^k pi}.  The reflection tau_k maps T'_(k+1) onto
T_k by phi -> -phi + 2^(k+1) pi, fixing the ray phi = 2^k pi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutOfSector


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


class LPoint:
    """Point (r, phi) on the log surface; phi = phi_pi*pi + phi_rem exactly."""

    __slots__ = ("r", "phi_pi", "phi_rem")

    def __init__(self, r: float, phi=None, *, phi_pi=None, phi_rem=0.0):
        r = float(r)
        if phi_pi is None:
            self.phi_pi = 0
            phi_rem = phi
        elif type(phi_pi) is int:
            self.phi_pi = phi_pi
        else:
            q = Fraction(phi_pi)
            self.phi_pi = int(q.numerator) if q.denominator == 1 else q
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

    def conj(self) -> "LPoint":
        return LPoint(self.r, phi_pi=-self.phi_pi, phi_rem=-self.phi_rem)

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
