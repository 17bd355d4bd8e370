"""Extraction and verification of corner asymptotic expansions.

Coefficients are recovered by weighted least squares over geometrically
shrinking shells of a quadratic domain, against the basis

    (log z)^d * z^beta,      beta in the exponent lattice  N0 + N*alpha,

with a guard band of exponents beyond the fitting horizon absorbing the tail.
Verification renders the little-o statement numerically: on shells rho_j
decreasing to 0 inside a shrunken quadratic domain, the ratios

    sup |f - (expansion truncated at R)| / rho_j^R

must end below tolerance and either decrease monotonically over the last
shells or sit entirely at the rounding floor.

The error-tracking ladder mirrors the remainder bookkeeping of the tower
construction: with S_R strictly inside the support gap past R, m minimal with
m*alpha/2 > R, and T = min(alpha(m+1)/2, S_R) > R, the per-level remainder
constants obey

    D_0 = L,  D_(k+1) = 3 L^k D_k,    p_k = min(s_k, D_(k-1)^(-T)),
    q_k = M^(-k^2) <= p_k,            |eps_k| <= D_k |z|^T  on  T_k within p_k,

which collapse onto a quadratic domain since (log phi)^2 <= sqrt(phi)
eventually.  D and q are kept in log space; the recurrences are exact there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DichotomyViolation, FailedCertificate, IllConditioned
from .exponents import Exponent, IRRATIONAL_PI_MULTIPLE
from .series import LogPolynomial, LogPowerSeries
from .surface import LPoint, QuadraticDomain, quad_intersect


# -- models and sampling -----------------------------------------------------------


@dataclass
class ExpansionModel:
    """Exponent lattice N0 + N*alpha up to the horizon R, with log degrees."""

    alpha: Exponent
    R: float
    max_log_degree: int = 0
    include_integer_axis: bool = False
    guard_terms: int = 3

    def lattice(self, upto: float | None = None) -> list[Exponent]:
        limit = self.R if upto is None else upto
        av = self.alpha.value()
        out = set()
        j = 1
        while j * av <= limit + 1e-12:
            i = 0
            while i + j * av <= limit + 1e-12:
                out.add(Exponent(i) + self.alpha * j)
                i += 1
            j += 1
        if self.include_integer_axis:
            for i in range(1, int(limit) + 1):
                out.add(Exponent(i))
        return sorted(out)

    def guard_band(self) -> list[Exponent]:
        """First few lattice points beyond R (tail absorbers for the fit)."""
        return self.lattice_beyond(self.R, self.guard_terms)

    def next_exponent_after(self, R: float) -> Exponent:
        return self.lattice_beyond(R, 1)[0]

    def lattice_beyond(self, bound: float, n: int) -> list[Exponent]:
        """The first n lattice exponents above bound.

        They lie within n * max(alpha, 1) of it (the points i + alpha past it),
        so the lattice is scanned to that horizon with a margin.
        """
        horizon = bound + n * max(self.alpha.value(), 1.0) + 2.0
        return [e for e in self.lattice(upto=horizon) if e.value() > bound + 1e-12][:n]


@dataclass
class SamplingPlan:
    """Geometric shells rho_j = rho0 * 2^(-j) with an argument sweep per shell."""

    rho0: float
    n_shells: int = 12
    points_per_shell: int = 64
    arg_cap: float | None = None
    one_sided: bool = False

    def shells(self) -> np.ndarray:
        return self.rho0 * 2.0 ** (-np.arange(self.n_shells, dtype=float))

    def points(self, domain: QuadraticDomain | None):
        """Yield (rho_j, [LPoint...]) per shell, swept across the widest
        admissible sector, or 95% of it inside a quadratic domain."""
        for rho in self.shells():
            if domain is not None:
                cap = domain.max_arg_at(rho) * 0.95
                lo = -cap if (domain.mirrored and not self.one_sided) else 0.0
            else:
                cap = self.arg_cap if self.arg_cap is not None else math.pi
                lo = 0.0 if self.one_sided else -cap
            if self.arg_cap is not None:
                cap = min(cap, self.arg_cap)
                lo = max(lo, -self.arg_cap) if not self.one_sided else 0.0
            if cap <= 0:
                continue
            args = np.linspace(lo, cap, self.points_per_shell)
            yield rho, [LPoint(rho, a) for a in args]


# -- fitting ---------------------------------------------------------------------


@dataclass
class FitResult:
    series: LogPowerSeries
    condition: float
    residual: float
    drift: float
    basis: list  # [(Exponent, degree)]
    method: str = "shell least squares (numerical fit, not a closed-form recursion)"

    def coefficient(self, alpha, log_degree: int = 0) -> complex:
        a = Exponent.coerce(alpha) if not isinstance(alpha, Exponent) else alpha
        q = self.series.terms.get(a)
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

    ``f`` maps a list of :class:`LPoint` to the list of their values; it is
    called once, on the samples of every shell.  The basis is the model lattice up
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
    exps = model.lattice() + model.guard_band()
    basis = []
    for e in exps:
        for d in range(model.max_log_degree + 1):
            basis.append((e, d))
    pts = [p for _, shell_pts in plan.points(domain) for p in shell_pts]
    if len(pts) < len(basis):
        raise ValueError(f"{len(pts)} samples cannot determine {len(basis)} coefficients")
    logs = np.array([p.log() for p in pts])
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
    col[col == 0] = 1.0
    As = A / col
    cond = np.linalg.cond(As)
    if cond > 1e12:
        raise IllConditioned(cond)
    sol, res, *_ = np.linalg.lstsq(As, rhs, rcond=None)
    coeffs = sol / col

    # stability diagnostic: refit on the deeper half of the shells and track
    # the movement of the reported (below-R) coefficients only
    half = len(pts) // 2
    drift = math.nan
    if len(pts) - half >= len(basis):
        sol2, *_ = np.linalg.lstsq(As[half:], rhs[half:], rcond=None)
        reported = np.array([e.value() <= model.R + 1e-12 for e, _ in basis])
        if reported.any():
            drift = float(np.max(np.abs((sol2 / col - coeffs)[reported])))

    terms: dict[Exponent, list] = {}
    for (e, d), c in zip(basis, coeffs):
        if e.value() > model.R + 1e-12:
            continue  # guard band is not reported
        poly = terms.setdefault(e, [0j] * (model.max_log_degree + 1))
        poly[d] = complex(c)
    series = LogPowerSeries({e: LogPolynomial(cs) for e, cs in terms.items()}, r_max=model.R)
    resid = float(np.linalg.norm(As @ sol - rhs) / max(1e-300, np.linalg.norm(rhs)))
    return FitResult(series, float(cond), resid, drift, basis)


def _values(f, pts: list) -> np.ndarray:
    """f on a list of sample points, as a complex array of one value per point."""
    vals = np.array(f(pts), dtype=complex)
    if vals.shape != (len(pts),):
        raise ValueError(f"the sampled function returned shape {vals.shape} for {len(pts)} points")
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
    """Per-shell remainder ratios sup |f - g_R| / rho^R on a shrunken domain."""

    R: float
    tol: float
    domain: QuadraticDomain
    shells: list = field(default_factory=list)
    passed: bool = False

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
    strict: bool = True,
) -> AsymptoticCertificate:
    """Certify f(z) - sum_(alpha <= R) = o(|z|^R) on a quadratic subdomain.

    PASS requires the last-shell ratio below ``tol`` and the ratios either
    monotonically decreasing over the last four shells or all below ``tol`` there
    (the latter covers exact remainders sitting at the rounding floor).
    Failure raises :class:`FailedCertificate` carrying the witness unless
    ``strict=False``.  ``f`` maps a list of :class:`LPoint` to the list of
    their values; it is called once per shell.
    """
    if plan is None:
        plan = SamplingPlan(rho0=min(0.5 * domain.c, 0.1))
    rho_min = plan.shells()[-1]
    if rho_min ** float(R) < sys.float_info.min:
        raise ValueError(
            f"horizon R = {R:g} is too large for the sampling plan: rho^R underflows at its innermost shell "
            f"rho = {rho_min:.3e}"
        )
    sub = quad_intersect(domain, QuadraticDomain(min(domain.c, 2.0 * plan.rho0), domain.C, domain.mirrored))
    g_R = g.truncate(R)
    cert = AsymptoticCertificate(R=float(R), tol=tol, domain=sub)
    for rho, pts in plan.points(sub):
        worst, wit, rem = -1.0, None, 0.0
        for p, v in zip(pts, _values(f, pts).tolist()):
            r = abs(v - g_R.eval_finite(p))
            ratio = r / rho ** float(R)
            if ratio > worst:
                worst, wit, rem = ratio, p, r
        if wit is not None:
            cert.shells.append(ShellRecord(float(rho), float(worst), wit, float(rem)))
    if not cert.shells:
        raise ValueError("sampling plan produced no shells inside the domain")
    ratios = cert.ratios
    tail = ratios[-4:]
    monotone = all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))
    floor = max(tail) < tol
    cert.passed = bool(ratios[-1] < tol) and bool(monotone or floor)
    if strict and not cert.passed:
        raise FailedCertificate(cert)
    return cert


def dichotomy_check(g: LogPowerSeries, angle_class: str, tol: float = 1e-8) -> dict:
    """Irrational angles admit no log terms; rational ones are unconstrained."""
    offenders = []
    worst = 0.0
    for e, q in g.terms.items():
        for d, c in enumerate(q.coeffs[1:], start=1):
            worst = max(worst, abs(c))
            if abs(c) >= tol:
                offenders.append((e, d, c))
    verdict = {
        "angle_class": angle_class,
        "max_log_coefficient": worst,
        "tol": tol,
        "passed": True,
    }
    if angle_class == IRRATIONAL_PI_MULTIPLE and offenders:
        verdict["passed"] = False
        raise DichotomyViolation(offenders)
    return verdict


# -- error-tracking ladder ------------------------------------------------------------


@dataclass
class ErrorSchedule:
    """Remainder-constant ladder; D and q live in natural-log space."""

    R: float
    S: float
    m: int
    T: float
    T_bar: float
    L: float
    M_log: float
    levels: list  # rows: dict(k, s_k, log_D, log_p, log_q, log_q_bar)
    c_R: float
    C_R: float
    M_bar_log: float
    log_c_R: float = 0.0

    def check_recurrences(self) -> bool:
        logL, log3 = math.log(self.L), math.log(3.0)
        for row in self.levels[1:]:
            k = row["k"]
            prev = self.levels[k - 1]
            if row["log_D"] != prev["log_D"] + log3 + (k - 1) * logL:
                return False
            if row["log_q"] != -(k**2) * self.M_log:
                return False
        return True


def error_tower_constants(tower, R: float, alpha, series: LogPowerSeries | None = None) -> ErrorSchedule:
    """Concrete remainder ladder for a built tower at horizon R.

    ``series`` (the candidate expansion) sharpens the gap constant S_R; absent
    it, the gap is taken in the full lattice N0 + N*alpha.  All level
    quantities ride in log space; the defining recurrences are exact there.
    """
    a = alpha if isinstance(alpha, Exponent) else Exponent.coerce(alpha)
    av = a.value()
    model = ExpansionModel(a, R)
    if series is not None and series.terms:
        beyond = [e.value() for e in series.terms if e.value() > R + 1e-12]
        nxt = min(beyond) if beyond else model.next_exponent_after(R).value()
    else:
        nxt = model.next_exponent_after(R).value()
    S = 0.5 * (R + nxt)
    m = int(math.floor(2.0 * R / av)) + 1
    while m * av / 2.0 <= R:
        m += 1
    T = min(av * (m + 1) / 2.0, S)

    r0 = tower.levels[0].r
    # h_k tail constant 4(m+1)(16/r_k)^m = A * 32^(km) and the log-polynomial
    # norm constant from the transported series (or a floor of 2)
    A_const = 4.0 * (m + 1) * (16.0 / r0) ** m
    L_hat = 2.0
    if series is not None:
        K = tower.K
        for k in range(1, K + 1):
            s_k = tower.levels[k].s
            lam = abs(math.log(s_k)) + (2.0**k) * math.pi  # |log z| cap on T_k within s_k
            norm = 0.0
            for e, q in series.terms.items():
                if e.value() <= R + 1e-12:
                    norm += sum(abs(c) * lam**d for d, c in enumerate(q.coeffs)) * s_k ** max(0.0, e.value() - S)
            total = sum(
                4.0 * (16.0 / tower.levels[k].r) ** (l - 1) * norm**l for l in range(1, m + 1)
            )
            if total > 0:
                L_hat = max(L_hat, total ** (1.0 / k))
    L = max(L_hat, 2.0 * A_const * 32.0**m)

    logL = math.log(L)
    log3 = math.log(3.0)
    rows = [{"k": 0, "s": tower.levels[0].s, "log_D": logL, "log_p": math.log(tower.levels[0].s)}]
    K = tower.K
    for k in range(1, K + 1):
        log_D = rows[k - 1]["log_D"] + log3 + (k - 1) * logL
        log_p = min(math.log(tower.levels[k].s), -T * rows[k - 1]["log_D"])
        rows.append({"k": k, "s": tower.levels[k].s, "log_D": log_D, "log_p": log_p})

    # M with q_k = M^(-k^2) <= p_k and D_k <= M^(k^2)
    M_log = math.log(2.0)
    for k in range(1, K + 1):
        M_log = max(M_log, rows[k]["log_D"] / k**2, -rows[k]["log_p"] / k**2)
    for row in rows:
        row["log_q"] = -(row["k"] ** 2) * M_log

    T_bar = max(0.5 * (R + T), T - 1.0)
    for row in rows:
        row["log_q_bar"] = -(row["k"] ** 2) * M_log / (T - T_bar)

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
    return ErrorSchedule(R, S, m, T, T_bar, L, M_log, rows, math.exp(log_c_R), C_R, M_bar_log, log_c_R)
