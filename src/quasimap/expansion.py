"""Extraction and verification of corner asymptotic expansions.

Coefficients are recovered by weighted least squares over geometrically
shrinking shells of a quadratic domain, against the basis

    (log z)^d * z^beta,      beta in the exponent lattice  N0 + N*alpha,

with a guard band of exponents beyond the fitting horizon absorbing the tail.
Verification renders the little-o statement numerically: on shells rho_j
decreasing to 0 inside a shrunken quadratic domain, the ratios

    sup |f - (expansion truncated at R)| / rho_j^R

must end below tolerance and either decrease monotonically over the last
shells or sit entirely at the rounding floor.  Both the fit and the
verification sample their function once, on the points of all shells
together, so a tower unwinds them as one list; verification evaluates the
truncated expansion once on the same list.

The error-tracking ladder mirrors the remainder bookkeeping of the tower
construction: with S_R strictly inside the support gap past R, m minimal with
m*alpha/2 > R, and T = min(alpha(m+1)/2, S_R) > R, the per-level remainder
constants obey

    D_0 = L,  D_(k+1) = 3 L^k D_k,    p_k = min(s_k, D_(k-1)^(-T)),
    q_k = M^(-k^2) <= p_k,            |eps_k| <= D_k |z|^T  on  T_k within p_k,

which collapse onto a quadratic domain c_R exp(-C_R sqrt(phi)) since
(log phi)^2 <= sqrt(phi) eventually.  Every constant is kept in log space,
where the recurrences are exact and no constant leaves the doubles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DichotomyViolation, FailedCertificate, IllConditioned
from .exponents import IRRATIONAL_PI_MULTIPLE, RATIONAL_PI_MULTIPLE, Exponent, value_of
from .series import HORIZON_SLACK, LogPowerSeries, _le_bound
from .surface import LPoint, LPointArray, QuadraticDomain, quad_intersect


# -- models and sampling -----------------------------------------------------------


@dataclass
class ExpansionModel:
    """Exponent lattice N0 + N*alpha up to the horizon R, with log degrees."""

    alpha: Exponent
    R: float
    max_log_degree: int = 0
    guard_terms: int = 3

    def basis_exponents(self) -> tuple[list[Exponent], list[Exponent]]:
        """The lattice up to R and its guard band, the first ``guard_terms`` exponents past R.

        One exact scan of i + j alpha (j >= 1, i >= 0), sorted once and split
        by the horizon rule ``_le_bound``.  The scan runs to max(R, alpha) +
        guard_terms * min(alpha, 1): the guard band lies within it, on the
        points j alpha or on the points i + alpha.
        """
        av = self.alpha.value()
        limit = max(self.R, av) + self.guard_terms * min(av, 1.0) + HORIZON_SLACK
        every, j = set(), 1
        while (row := self.alpha * j).value() <= limit:
            i = 0
            while (e := row + i).value() <= limit:
                every.add(e)
                i += 1
            j += 1
        ordered = sorted(every)
        lattice = [e for e in ordered if _le_bound(e, self.R)]
        return lattice, [e for e in ordered if not _le_bound(e, self.R)][: self.guard_terms]


@dataclass
class SamplingPlan:
    """Geometric shells rho_j = rho0 * 2^(-j) with an argument sweep per shell."""

    rho0: float
    n_shells: int = 12
    points_per_shell: int = 64
    one_sided: bool = False

    def __post_init__(self):
        if not sys.float_info.min <= self.rho0 * 2.0 ** (1 - self.n_shells) < math.inf:
            raise ValueError(
                f"{self.n_shells} shells from rho0 = {self.rho0:g} take the innermost radius "
                f"rho0 * 2^-{self.n_shells - 1} out of the positive normal doubles"
            )

    def shells(self) -> np.ndarray:
        return self.rho0 * 2.0 ** (-np.arange(self.n_shells, dtype=float))

    def samples(self, domain: QuadraticDomain | None) -> tuple[LPointArray, list[tuple[float, slice]]]:
        """The samples of every shell as one LPointArray, and (rho_j, its slice
        of them) per shell.  Each shell's arguments sweep the widest admissible
        sector, or 95% of it inside a quadratic domain; without a domain they
        sweep [0, pi] one-sided, or [-pi, pi].  A shell that admits no argument
        is left out."""
        radii, args, shells = [], [], []
        for rho in self.shells():
            if domain is not None:
                cap = domain.max_arg_at(rho) * 0.95
                lo = -cap if (domain.mirrored and not self.one_sided) else 0.0
            else:
                cap = math.pi
                lo = 0.0 if self.one_sided else -cap
            if cap <= 0:
                continue
            shells.append((rho, slice(len(radii), len(radii) + self.points_per_shell)))
            radii += [rho] * self.points_per_shell
            args.append(np.linspace(lo, cap, self.points_per_shell))
        phi_rem = np.concatenate(args) if args else np.empty(0)
        return LPointArray(radii, np.zeros(len(radii), dtype=np.int64), phi_rem), shells


# -- fitting ---------------------------------------------------------------------


@dataclass
class FitResult:
    series: LogPowerSeries
    condition: float
    residual: float
    drift: float
    method: ClassVar[str] = "shell least squares (numerical fit, not a closed-form recursion)"

    def coefficient(self, alpha, log_degree: int = 0) -> complex:
        q = self.series.terms.get(Exponent.coerce(alpha))
        if q is None or log_degree > q.degree:
            return 0j
        return q.coeffs[log_degree]


def fit_expansion(
    f,
    model: ExpansionModel,
    plan: SamplingPlan,
    domain: QuadraticDomain | None = None,
) -> FitResult:
    """Least-squares fit of the expansion coefficients on shrinking shells.

    ``f`` maps an :class:`LPointArray` to the list of its values; it is
    called once, on the samples of every shell, and a value that is not
    finite raises ValueError naming its sample.  The basis is the model lattice up
    to R plus a guard band past R (absorbing the first tail terms); only the
    terms up to R are reported.  Rows are weighted by |z|^(-nu) with nu the
    smallest basis exponent, columns are normalized, and a condition number
    of the scaled system above 1e12 raises :class:`IllConditioned`.  Columns
    whose weighted norm falls below 1e-13 times the largest are numerically
    invisible at the sampled radii (as are the matching tail terms) and are
    excluded rather than left to amplify rounding noise.
    """
    # the lattice holds at least floor(R/alpha) exponents, j alpha for j = 1, 2, ...;
    # checked before enumerating it, which takes that long (forever for R = inf)
    n_samples = plan.n_shells * plan.points_per_shell
    if not model.R / model.alpha.value() < n_samples + 1:
        raise ValueError(
            f"horizon R = {model.R:g} needs more than R/alpha = {model.R / model.alpha.value():.6g} lattice "
            f"exponents; the sampling plan's {n_samples} samples cannot determine them"
        )
    lattice, guard = model.basis_exponents()
    if not lattice:
        raise ValueError(
            f"horizon R = {model.R:g} is below alpha = {model.alpha.value():g}: the lattice has no exponent up to R"
        )
    basis = [(e, d) for e in lattice + guard for d in range(model.max_log_degree + 1)]
    pts = plan.samples(domain)[0]
    # the drift refit below solves on the deeper half of the samples alone
    half = len(pts) // 2
    if len(pts) - half < len(basis):
        raise ValueError(f"the deeper half of {len(pts)} samples cannot determine {len(basis)} coefficients")
    logs = pts.log()
    b = _values(f, pts)
    nu = min(e.value() for e, _ in basis)
    weights = np.exp(-nu * logs.real)
    A = np.empty((len(pts), len(basis)), dtype=complex)
    for i, (e, d) in enumerate(basis):
        A[:, i] = logs**d * np.exp(e.value() * logs)
    A = A * weights[:, None]
    rhs = b * weights
    col = np.linalg.norm(A, axis=0)
    keep = col > 1e-13 * np.max(col)
    basis = [bd for bd, k in zip(basis, keep) if k]
    A = A[:, keep]
    col = col[keep]
    As = A / col
    sol, _, _, sv = np.linalg.lstsq(As, rhs, rcond=None)
    # the condition number from the singular values lstsq computed anyway; a zero one is unbounded
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if cond > 1e12:
        raise IllConditioned(cond)
    coeffs = sol / col

    # stability diagnostic: refit on the deeper half of the shells and track
    # the movement of the reported (below-R) coefficients only
    sol2, *_ = np.linalg.lstsq(As[half:], rhs[half:], rcond=None)
    reported = np.array([_le_bound(e, model.R) for e, _ in basis])
    drift = float(np.max(np.abs((sol2 / col - coeffs)[reported]), initial=0.0))

    # the bound R leaves the guard band out of the reported series
    series = LogPowerSeries(((e, [0j] * d + [c]) for (e, d), c in zip(basis, coeffs)), r_max=model.R)
    resid = float(np.linalg.norm(As @ sol - rhs) / max(1e-300, np.linalg.norm(rhs)))
    return FitResult(series, float(cond), resid, drift)


def _values(f, pts: LPointArray) -> np.ndarray:
    """f on the sample points, as a complex array of one finite value per point."""
    vals = np.array(f(pts), dtype=complex)
    if vals.shape != (len(pts),):
        raise ValueError(f"the sampled function returned shape {vals.shape} for {len(pts)} points")
    return _finite(vals, pts, "the sampled function f")


def _finite(vals: np.ndarray, pts: LPointArray, source: str) -> np.ndarray:
    """vals, if every one is finite; else ValueError naming the first sample that is not."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{source} is {complex(vals[i])} at sample {i}, {pts[i]!r}; every sample needs a finite value")
    return vals


# -- verification -------------------------------------------------------------------


@dataclass
class ShellRecord:
    rho: float
    ratio: float
    witness: LPoint
    remainder: float


@dataclass
class AsymptoticCertificate:
    """Per-shell remainder ratios sup |f - g_R| / rho^R on a shrunken domain.

    ``points`` holds every sample and ``remainders`` its |f - g_R|, in
    sampling order; ``to_json`` leaves both out.
    """

    R: float
    tol: float
    domain: QuadraticDomain
    points: LPointArray
    remainders: np.ndarray
    shells: list = field(default_factory=list)
    passed: bool = False

    @property
    def samples(self) -> list[tuple[LPoint, float]]:
        """Every sample as (point, |f - g_R|), in sampling order."""
        return list(zip(self.points, self.remainders.tolist()))

    @property
    def ratios(self) -> list[float]:
        return [s.ratio for s in self.shells]

    def witness(self) -> ShellRecord | None:
        bad = [s for s in self.shells if s.ratio >= self.tol]
        return max(bad, key=lambda s: s.ratio) if bad else None

    def to_json(self) -> dict:
        w = self.witness()
        return {
            "R": self.R,
            "tol": self.tol,
            "domain": self.domain.to_json(),
            "passed": self.passed,
            "shells": [
                {"rho": s.rho, "ratio": s.ratio, "witness_r": s.witness.r, "witness_arg": s.witness.phi}
                for s in self.shells
            ],
            "witness": None
            if w is None
            else {"rho": w.rho, "ratio": w.ratio, "r": w.witness.r, "arg": w.witness.phi},
        }


def verify_asymptotic(
    f,
    g: LogPowerSeries,
    R: float,
    domain: QuadraticDomain,
    plan: SamplingPlan | None = None,
    tol: float = 1e-6,
) -> AsymptoticCertificate:
    """Certify f(z) - sum_(alpha <= R) = o(|z|^R) on a quadratic subdomain.

    PASS requires the last-shell ratio below ``tol`` and the ratios either
    monotonically decreasing over the last four shells or all below ``tol`` there
    (the latter covers exact remainders sitting at the rounding floor).
    Failure raises :class:`FailedCertificate`, which carries the certificate
    and its witness.  ``f`` maps an :class:`LPointArray` to the list of its
    values; it is called once, on the samples of every shell, and the
    truncated series is evaluated once on the same points.  A value of
    either that is not finite raises ValueError naming its sample, and a
    series whose truncation bound lies below R one naming both bounds.
    """
    if value_of(g.r_max) + HORIZON_SLACK < value_of(R):
        raise ValueError(
            f"the series' truncation bound {value_of(g.r_max):g} lies below the horizon R = {value_of(R):g}: "
            "the series says nothing about its exponents between them"
        )
    if plan is None:
        plan = SamplingPlan(rho0=min(0.5 * domain.c, 0.1))
    rho_min = plan.shells()[-1]
    if rho_min ** float(R) < sys.float_info.min:
        raise ValueError(
            f"horizon R = {R:g} is too large for the sampling plan: rho^R underflows at its innermost shell "
            f"rho = {rho_min:.3e}"
        )
    sub = quad_intersect(domain, QuadraticDomain(min(domain.c, 2.0 * plan.rho0), domain.C, domain.mirrored))
    pts, shells = plan.samples(sub)
    if not len(pts):
        raise ValueError("sampling plan produced no shells inside the domain")
    diff = _values(f, pts) - _finite(g.truncate(R).eval_finite(pts), pts, "the truncated series g_R")
    # Python's abs (hypot): numpy's complex abs differs from it in the last bit
    remainders = np.fromiter(map(abs, diff.tolist()), dtype=float, count=len(diff))
    cert = AsymptoticCertificate(R=float(R), tol=tol, domain=sub, points=pts, remainders=remainders)
    for rho, sl in shells:
        # the first sample of the shell's largest ratio
        ratios = remainders[sl] / rho ** float(R)
        i = int(np.argmax(ratios))
        j = sl.start + i
        cert.shells.append(ShellRecord(float(rho), float(ratios[i]), pts[j], float(remainders[j])))
    ratios = cert.ratios
    tail = ratios[-4:]
    monotone = all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))
    floor = max(tail) < tol
    cert.passed = bool(ratios[-1] < tol) and bool(monotone or floor)
    if not cert.passed:
        raise FailedCertificate(cert)
    return cert


def dichotomy_check(g: LogPowerSeries, angle_class: str, tol: float = 1e-8) -> dict:
    """Irrational angles admit no log terms; rational ones are unconstrained; any other class raises ValueError."""
    if angle_class not in (RATIONAL_PI_MULTIPLE, IRRATIONAL_PI_MULTIPLE):
        raise ValueError(f"angle_class must be {RATIONAL_PI_MULTIPLE!r} or {IRRATIONAL_PI_MULTIPLE!r}, not {angle_class!r}")
    offenders = []
    worst = 0.0
    for e, q in g.terms.items():
        for d, c in enumerate(q.coeffs[1:], start=1):
            worst = max(worst, abs(c))
            if abs(c) >= tol:
                offenders.append((e, d, c))
    if angle_class == IRRATIONAL_PI_MULTIPLE and offenders:
        raise DichotomyViolation(offenders)
    return {"angle_class": angle_class, "max_log_coefficient": worst, "tol": tol, "passed": True}


# -- error-tracking ladder ------------------------------------------------------------


@dataclass
class ErrorSchedule:
    """Remainder-constant ladder with every constant in natural-log space.

    L, D_k, q_k and c_R leave the doubles on towers the CLI builds (c_R
    underflows to 0 at K = 8 for alpha = 3/4; L_hat overflows for alpha = 1/2
    from K = 51), so only their logs are kept.
    """

    R: float
    S: float
    m: int
    T: float
    T_bar: float
    log_L: float
    M_log: float
    levels: list  # rows: dict(k, s, log_D, log_p, log_q)
    log_c_R: float
    C_R: float
    M_bar_log: float

    def to_json(self) -> dict:
        """The scalar constants of the ladder; the per-level rows are left out."""
        names = ("R", "S", "m", "T", "T_bar", "log_L", "M_log", "log_c_R", "C_R", "M_bar_log")
        return {name: getattr(self, name) for name in names}


def _log_sum(logs) -> float:
    """log(sum(exp(x))) over an iterable of logs, kept inside the doubles; -inf for none."""
    logs = list(logs)
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def error_tower_constants(tower, R: float, alpha, series: LogPowerSeries | None = None) -> ErrorSchedule:
    """Concrete remainder ladder for a built tower at horizon R.

    ``series`` (the candidate expansion) sharpens the gap constant S_R; absent
    it, the gap is taken in the full lattice N0 + N*alpha.  Every constant is
    computed as its log; the defining recurrences are exact there.
    """
    a = Exponent.coerce(alpha)
    av = a.value()
    beyond = [] if series is None else [e.value() for e in series.terms if not _le_bound(e, R)]
    nxt = min(beyond) if beyond else ExpansionModel(a, R, guard_terms=1).basis_exponents()[1][0].value()
    S = 0.5 * (R + nxt)
    m = int(math.floor(2.0 * R / av)) + 1
    while m * av / 2.0 <= R:
        m += 1
    T = min(av * (m + 1) / 2.0, S)

    K = tower.K
    r0 = tower.levels[0].r
    # h_k tail constant 4(m+1)(16/r_k)^m = A * 32^(km), with L >= 2 A 32^m =
    # 8(m+1)(512/r_0)^m, and the log-polynomial norm constant from the
    # transported series (or a floor of 2): L_hat^k >= sum_(l <= m) 4 (16/r_k)^(l-1) norm_k^l
    log_L_hat = math.log(2.0)
    if series is not None:
        for k in range(1, K + 1):
            s_k = tower.levels[k].s
            log_lam = math.log(abs(math.log(s_k)) + (2.0**k) * math.pi)  # |log z| cap on T_k within s_k
            log_norm = _log_sum(
                math.log(abs(c)) + d * log_lam + max(0.0, e.value() - S) * math.log(s_k)
                for e, q in series.terms.items()
                if _le_bound(e, R)
                for d, c in enumerate(q.coeffs)
                if c != 0
            )
            if log_norm > -math.inf:
                log_step = math.log(16.0 / tower.levels[k].r)
                log_total = _log_sum(math.log(4.0) + (l - 1) * log_step + l * log_norm for l in range(1, m + 1))
                log_L_hat = max(log_L_hat, log_total / k)
    log_L = max(log_L_hat, math.log(8.0 * (m + 1)) + m * math.log(512.0 / r0))

    log3 = math.log(3.0)
    rows = [{"k": 0, "s": tower.levels[0].s, "log_D": log_L, "log_p": math.log(tower.levels[0].s)}]
    for k in range(1, K + 1):
        log_D = rows[k - 1]["log_D"] + log3 + (k - 1) * log_L
        log_p = min(math.log(tower.levels[k].s), -T * rows[k - 1]["log_D"])
        rows.append({"k": k, "s": tower.levels[k].s, "log_D": log_D, "log_p": log_p})

    # M with q_k = M^(-k^2) <= p_k and D_k <= M^(k^2)
    M_log = math.log(2.0)
    for k in range(1, K + 1):
        M_log = max(M_log, rows[k]["log_D"] / k**2, -rows[k]["log_p"] / k**2)
    for row in rows:
        row["log_q"] = -(row["k"] ** 2) * M_log

    T_bar = max(0.5 * (R + T), T - 1.0)

    # final quadratic domain: c_R e^(-C_R sqrt(phi)) <= q_bar_(k(phi)) for all
    # phi (levels up to 200), assembled in log space since q_bar underflows
    # doubles quickly
    log_c_R = min(math.log(tower.levels[0].s), -M_log / (T - T_bar))
    C_R = 1e-9
    M_bar_log = 0.0
    for k in range(1, 201):
        log_q_bar_k = -(k**2) * M_log / (T - T_bar)
        phi_lo = (2 ** (k - 1)) * math.pi
        C_R = max(C_R, (log_c_R - log_q_bar_k) / math.sqrt(phi_lo))
        lg = max(1.0, math.log(phi_lo))
        M_bar_log = max(M_bar_log, -log_q_bar_k / lg**2)
    return ErrorSchedule(R, S, m, T, T_bar, log_L, M_log, rows, log_c_R, C_R, M_bar_log)
