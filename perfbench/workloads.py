"""The three benchmark workloads.

Each workload is built from a seed (input generation only: random draws,
input files and temporary directories, no quasimap computation), runs one
timed pass over all of its requests through the public API, and checks the
outputs of the passes against oracles afterwards, outside the timed phase.

Package functions are looked up through their modules at call time
(``reflection.build_extension``, ``cli.run``, ...), so a tracer that wraps
them sees every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import ellipk

from quasimap import cli, corners, expansion, reflection, scmap
from quasimap.exponents import Exponent, parse_exponent
from quasimap.powerseries import AnalyticFunc, PowerSeries
from quasimap.series import LogPowerSeries, zpow
from quasimap.surface import LPoint

CLOSED_FORM_TOL = 1e-10
LEADING_TOL = 1e-8
SC_TOL = 1e-8
CROSS_RESIDUAL_TOL = 1e-10


class Outcome:
    """One attempted request: id, kind, latency in seconds, error or None, output."""

    __slots__ = ("rid", "kind", "latency", "error", "output")

    def __init__(self, rid, kind, latency, error, output):
        self.rid, self.kind, self.latency, self.error, self.output = rid, kind, latency, error, output


class Recorder:
    """Serves requests of one pass, timing each and recording failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outcomes = []

    def serve(self, rid, kind, fn, *args):
        span = self.tracer.span(kind, rid) if self.tracer is not None else contextlib.nullcontext()
        error = output = None
        t0 = time.perf_counter()
        try:
            with span:
                output = fn(*args)
        except Exception as exc:  # a failed request is recorded and the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        self.outcomes.append(Outcome(rid, kind, latency, error, output))
        return output

    def skip(self, rid, kind, reason):
        """A request that could not be sent because the one it needs failed."""
        self.outcomes.append(Outcome(rid, kind, None, f"not attempted: {reason}", None))


class Oracle:
    """Worst error per check kind, and the requests that missed their tolerance."""

    def __init__(self):
        self.worst = {}  # kind -> (error, tol)
        self.misses = {}  # rid -> reason

    def compare(self, kind, rid, err, tol):
        err = float(err)
        if kind not in self.worst or not err <= self.worst[kind][0]:
            self.worst[kind] = (err, tol)
        if not err < tol:
            self.misses.setdefault(rid, f"{kind}: error {err:.3e} not below {tol:.0e}")

    def require(self, kind, rid, ok, detail):
        if not ok:
            self.misses.setdefault(rid, f"{kind}: {detail}")

    def worst_error(self) -> float:
        errs = [e for e, _ in self.worst.values()]
        return max(errs) if errs else 0.0


def rel_err(got, want) -> float:
    return abs(complex(got) - complex(want)) / abs(complex(want))


def lpoints(quad, draws):
    """Seeded members of a certified quadratic domain, as in sample_quadratic_domain."""
    phis, fracs = draws
    return [LPoint(u * quad.radius_at(phi), phi) for phi, u in zip(phis, fracs)]


def domain_draws(rng, n, cap):
    """Arguments on both signs up to cap, and radius fractions of the domain."""
    return rng.uniform(-cap, cap, n).tolist(), rng.uniform(0.05, 0.95, n).tolist()


# -- germs rebuilt from the public API -------------------------------------------

CURVED_ALPHA = Fraction(2, 3)


def curved_germ(order: int = 40):
    """w / (1 - w) with w = z^(2/3): a sector composed with a Moebius map.

    Its second boundary arc is curved, so the reflectors are genuinely
    curved, and the continuation still has a closed form.
    """
    av = float(CURVED_ALPHA)
    rot = cmath.exp(1j * av * math.pi)

    def on_L(p):
        w = zpow(p.log(), av)
        return w / (1 - w)

    def on_H(z):
        w = np.exp(av * np.log(np.asarray(z, dtype=complex)))
        return w / (1 - w)

    t_bar = 0.25
    arc1 = AnalyticFunc(
        PowerSeries.from_unscaled([0, 1], radius=0.8),
        exact=lambda z: np.asarray(z, dtype=complex) + 0j,
    )
    arc2 = AnalyticFunc.from_callable(
        lambda z: rot * np.asarray(z, dtype=complex) / (1 - rot * np.asarray(z, dtype=complex)),
        radius=0.8,
        order=order,
    )
    return reflection.MapGerm(
        eval_complex=on_H,
        t_bar=t_bar,
        alpha=Exponent(CURVED_ALPHA),
        growth=1.0 / (1.0 - t_bar**av),
        arc1=arc1,
        arc2=arc2,
        eval_lpoint=on_L,
        label="curved",
    )


def curved_closed_form(p: LPoint) -> complex:
    w = zpow(p.log(), float(CURVED_ALPHA))
    return w / (1 - w)


CUSP_A, CUSP_B = 0.5, 0.15


def cusp_closed_form(p: LPoint) -> complex:
    """Psi(z) = -z^(1/2) (a + b z) on the normalized cusp corner."""
    return -zpow(p.log(), 0.5) * (CUSP_A + CUSP_B * zpow(p.log(), 1.0))


def cusp_germ():
    """Normalize the cusp (t^2, t^3) against a ray and build its model germ."""
    cusp = corners.PuiseuxArc([0, 0, 1, 1j])
    ray = corners.PuiseuxArc([0, -1])
    norm, chain = corners.normalize_corner(corners.CornerSpec(cusp, ray, 0j, Exponent(1)))

    def on_H(z):
        z = np.asarray(z, dtype=complex)
        return -np.exp(0.5 * np.log(z)) * (CUSP_A + CUSP_B * z)

    t_bar = 0.15
    growth = max(
        abs(cusp_closed_form(LPoint(rr, ph))) / rr**0.5
        for rr in np.geomspace(1e-6, t_bar, 20)
        for ph in np.linspace(0.0, math.pi, 9)
    )
    germ = reflection.MapGerm(
        eval_complex=on_H,
        t_bar=t_bar,
        alpha=norm.angle,
        growth=growth * 1.25,
        arc1=norm.arc1,
        arc2=norm.arc2,
        eval_lpoint=cusp_closed_form,
        label="cusp",
    )
    ledger = chain.angle_ledger_exact() and norm.angle * (chain.m1 * chain.m2) == Exponent(1)
    return germ, (chain.m1, chain.m2), ledger


# -- deep-sheets ---------------------------------------------------------------------


class DeepSheets:
    """Deep-sheet queries: one request is one ``Extension.evaluate`` call."""

    name = "deep-sheets"
    K = 8
    GERMS = ("1/3", "1/2", "sqrt2", "golden", "curved")
    SIZES = {"full": 800, "smoke": 8}

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = np.random.default_rng(seed)
        cap = 0.98 * (2**self.K - 1) * math.pi
        self.draws = {g: domain_draws(rng, self.SIZES[size], cap) for g in self.GERMS}
        self.points = {}

    def requests_per_pass(self) -> int:
        return sum(len(d[0]) for d in self.draws.values())

    def run_pass(self, index: int, rec: Recorder) -> None:
        for label in self.GERMS:
            germ = curved_germ() if label == "curved" else scmap.model_corner_germ(parse_exponent(label))
            ext = reflection.build_extension(germ, K=self.K)
            quad = reflection.certify_quadratic_domain(ext).quad
            pts = lpoints(quad, self.draws[label])
            self.points[label] = pts
            evaluate = ext.evaluate
            for i, p in enumerate(pts):
                rec.serve((label, i), "evaluate", evaluate, p)

    def fingerprint(self, index, outcome):
        return outcome.error, outcome.output

    def check(self, passes, report) -> Oracle:
        oracle = Oracle()
        alphas = {g: parse_exponent(g).value() for g in self.GERMS if g != "curved"}
        for o in passes[0]:
            if o.error is not None:
                report(f"FAILED {o.rid}: {o.error[:200]}")
                continue
            label, i = o.rid
            p = self.points[label][i]
            want = curved_closed_form(p) if label == "curved" else zpow(p.log(), alphas[label])
            oracle.compare(f"closed form {label}", o.rid, rel_err(o.output, want), CLOSED_FORM_TOL)
        return oracle


# -- certify-jobs ----------------------------------------------------------------------


class ExitStatus(Exception):
    """A CLI job that returned a nonzero exit code."""


CLI_KINDS = ("expand", "verify", "dichotomy", "analyze")
CLI_ALPHAS = ("1/3", "1/2", "2/3", "3/4", "3/2", "sqrt2", "golden")
SQUARE = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
CROSS = [[3, 1], [1, 1], [1, 3], [-1, 3], [-1, 1], [-3, 1], [-3, -1], [-1, -1], [-1, -3], [1, -3], [1, -1], [3, -1]]


def cross_angles(vertices):
    """Right angles: reflex (3/2) at the inner corners |x| = |y| = 1."""
    return [Fraction(3, 2) if abs(x) == 1 and abs(y) == 1 else Fraction(1, 2) for x, y in vertices]


class CertifyJobs:
    """Batch certification jobs: one request is one job."""

    name = "certify-jobs"
    K = 8
    CURVED_ORDERS = (40, 80)
    CURVED_POINTS = 100
    CUSP_K = 6
    CUSP_POINTS = 500

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        polygons = {"square": (SQUARE, [Fraction(1, 2)] * 4), "cross": (CROSS, cross_angles(CROSS))}
        alphas = CLI_ALPHAS
        orders = self.CURVED_ORDERS
        cusp_points, curved_points = self.CUSP_POINTS, self.CURVED_POINTS
        if size == "smoke":
            alphas, orders, polygons = ("1/2", "sqrt2"), (40,), {"square": polygons["square"]}
            cusp_points, curved_points = 10, 10
        jobs = []
        for command in ("expand", "verify", "dichotomy"):
            for a in alphas:
                jobs.append((f"{command}[{a}]", self._cli_job, {"command": command, "alpha": a}))
        for name, (vertices, _) in polygons.items():
            path = inputs / f"{name}.json"
            path.write_text(json.dumps({"polygon": vertices}))
            jobs.append((f"analyze[{name}]", self._cli_job, {"command": "analyze", "input": str(path)}))
        curved_cap = 0.98 * (2**self.K - 1) * math.pi
        for order in orders:
            jobs.append((f"curved[p{order}]", self._curved_job, {"order": order,
                         "draws": domain_draws(rng, curved_points, curved_cap)}))
        cusp_cap = 0.98 * (2**self.CUSP_K - 1) * math.pi
        jobs.append(("cusp[K6]", self._cusp_job, {"draws": domain_draws(rng, cusp_points, cusp_cap)}))
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        self.polygons = polygons

    def requests_per_pass(self) -> int:
        return len(self.jobs)

    def run_pass(self, index: int, rec: Recorder) -> None:
        out_root = self.workdir / f"pass{index:03d}"
        for rid, job, params in self.jobs:
            rec.serve(rid, "job", job, out_root / _dirname(rid), params)

    @staticmethod
    def _cli_job(out_dir: Path, params: dict):
        config = cli.JobConfig(out=str(out_dir), **params)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.run(config)
        if code != 0:
            raise ExitStatus(f"exit {code}")
        return code

    def _curved_job(self, out_dir: Path, params: dict):
        order = params["order"]
        germ = curved_germ(order)
        ext = reflection.build_extension(germ, K=self.K, order=order)
        cert = reflection.certify_quadratic_domain(ext)
        av = germ.alpha_value
        a = Exponent(CURVED_ALPHA)
        model = expansion.ExpansionModel(a, R=3.5 * av, guard_terms=4)
        plan = expansion.SamplingPlan(rho0=0.4 * ext.positive.levels[0].t, n_shells=12, one_sided=True)
        fit = expansion.fit_expansion(ext.evaluate, model, plan, domain=None)
        # leading-order certificate: the remainder is the z^(4/3) term, so the
        # shell ratios fall like rho^(2/3)
        shells = expansion.SamplingPlan(rho0=0.3 * cert.quad.c, n_shells=12)
        vc = expansion.verify_asymptotic(ext.evaluate, fit.series, av, cert.quad, plan=shells, tol=1e-5)
        pts = lpoints(cert.quad, params["draws"])
        return {
            "leading": fit.coefficient(a),
            "verified": vc.passed,
            "points": [(p.r, p.phi) for p in pts],
            "values": [ext.evaluate(p) for p in pts],
        }

    def _cusp_job(self, out_dir: Path, params: dict):
        germ, multiplicities, ledger = cusp_germ()
        ext = reflection.build_extension(germ, K=self.CUSP_K)
        cert = reflection.certify_quadratic_domain(ext)
        pts = lpoints(cert.quad, params["draws"])
        return {
            "multiplicities": multiplicities,
            "ledger": ledger,
            "points": [(p.r, p.phi) for p in pts],
            "values": [ext.evaluate(p) for p in pts],
        }

    def fingerprint(self, index, outcome):
        if outcome.rid.split("[")[0] in CLI_KINDS:
            return outcome.error, _cli_report(self.workdir / f"pass{index:03d}" / _dirname(outcome.rid))
        return outcome.error, outcome.output

    def check(self, passes, report) -> Oracle:
        oracle = Oracle()
        first_out = self.workdir / "pass000"
        for o in passes[0]:
            kind = o.rid.split("[")[0]
            arg = o.rid[len(kind) + 1 : -1]
            if kind in CLI_KINDS:
                rep = _cli_report(first_out / _dirname(o.rid))
                if o.error is not None:
                    report(f"FAILED {o.rid}: {o.error}, {_witness(rep)}")
                    continue
                if kind == "expand":
                    series = LogPowerSeries.from_json(rep["series"])
                    q = series.terms.get(parse_exponent(arg))
                    lead = q.coeffs[0] if q is not None and q.coeffs else 0j
                    oracle.compare("expand leading coefficient", o.rid, abs(lead - 1.0), LEADING_TOL)
                elif kind == "verify":
                    oracle.require("verify", o.rid, rep["certificate"]["passed"], "certificate not passed")
                elif kind == "dichotomy":
                    oracle.require("dichotomy", o.rid, rep["verdict"]["passed"], "verdict not passed")
                else:
                    vertices, angles = self.polygons[arg]
                    want = {(x, y): [Exponent(a)] for (x, y), a in zip(vertices, angles)}
                    got = {tuple(sp["point"]): [Exponent.from_json(a) for a in sp["angles_over_pi"]]
                           for sp in rep["singular_points"]}
                    oracle.require("analyze", o.rid, got == want, "singular points or angles differ from the polygon")
                continue
            if o.error is not None:
                report(f"FAILED {o.rid}: {o.error[:200]}")
                continue
            out = o.output
            if kind == "curved":
                oracle.compare("curved fit leading coefficient", o.rid, abs(out["leading"] - 1.0), LEADING_TOL)
                oracle.require("curved verify", o.rid, out["verified"], "certificate not passed")
                closed = curved_closed_form
            else:
                oracle.require("cusp ledger", o.rid, out["multiplicities"] == (2, 1) and out["ledger"],
                               f"multiplicities {out['multiplicities']}, ledger {out['ledger']}")
                closed = cusp_closed_form
            worst = max(
                (rel_err(v, closed(LPoint(r, phi))) for (r, phi), v in zip(out["points"], out["values"])),
                default=0.0,
            )
            oracle.compare(f"closed form {kind}", o.rid, worst, CLOSED_FORM_TOL)
        return oracle


def _dirname(rid: str) -> str:
    return rid.replace("/", "_")


def _cli_report(out_dir: Path):
    """A job's report.json without its config, which names the pass's output directory."""
    path = out_dir / "report.json"
    if not path.is_file():
        return None
    rep = json.loads(path.read_text())
    rep.pop("config", None)
    rep.pop("config_hash", None)
    return rep


def _witness(rep) -> str:
    if rep is None:
        return "no report"
    if rep.get("status") == "certificate-failed":
        cert = rep["certificate"]
        w = cert["witness"]
        return (f"certificate failed, witness rho={w['rho']:.3e} arg={w['arg']:.3f}: "
                f"ratio {w['ratio']:.3e} >= tol {cert['tol']:.0e}")
    if rep.get("status") == "dichotomy-violation":
        terms = rep["offending_terms"]
        worst = max(terms, key=lambda t: math.hypot(*t["coeff"]))
        e = Exponent.from_json(worst["exponent"])
        return (f"dichotomy violation, {len(terms)} log terms, largest |coeff| {math.hypot(*worst['coeff']):.3e} "
                f"at z^({e}) log^{worst['log_degree']}")
    return f"status {rep.get('status')}"


# -- sc-polygons ------------------------------------------------------------------------


L_HEXAGON = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]


def rectangle(m: float):
    """Rectangle [-K, K] x [0, K'] whose SC map is the elliptic integral of modulus m."""
    K, Kp = float(ellipk(m)), float(ellipk(1 - m))
    return [[-K, 0.0], [K, 0.0], [K, Kp], [-K, Kp]], [Fraction(1, 2)] * 4


class ScPolygons:
    """Schwarz-Christoffel maps: one request is one solve or one evaluate.

    A solve request also builds the corner germ at every vertex.
    """

    name = "sc-polygons"
    SIZES = {"full": 8, "smoke": 2}

    def __init__(self, seed: int, size: str, workdir: Path):
        rng = np.random.default_rng(seed)
        polys = [(f"rect-m{m}", *rectangle(m), m) for m in (0.1, 0.5, 0.9)]
        polys += [
            ("square", SQUARE, [Fraction(1, 2)] * 4, None),
            ("L-hexagon", L_HEXAGON, [Fraction(1, 2)] * 3 + [Fraction(3, 2)] + [Fraction(1, 2)] * 2, None),
            ("cross", CROSS, cross_angles(CROSS), None),
        ]
        if size == "smoke":
            polys = [polys[1], polys[3]]
        n = self.SIZES[size]
        self.polys = polys
        self.points = {
            label: [complex(x, y) for x, y in zip(rng.uniform(-2, 2, n), rng.uniform(0.05, 2, n))]
            for label, *_ in polys
        }
        # one germ probe per vertex: radius as a fraction of the prevertex gap, and an angle
        self.germ_probes = {
            label: list(zip(rng.uniform(0.005, 0.099, len(vs)), rng.uniform(0.3, 2.8, len(vs))))
            for label, vs, *_ in polys
        }

    def requests_per_pass(self) -> int:
        return sum(1 + len(self.points[label]) for label, *_ in self.polys)

    def run_pass(self, index: int, rec: Recorder) -> None:
        for label, vertices, angles, _ in self.polys:
            solved = rec.serve((label, "solve"), "solve", self._solve, vertices, angles)
            for i, z in enumerate(self.points[label]):
                if solved is None:
                    rec.skip((label, i), "evaluate", "solve failed")
                else:
                    rec.serve((label, i), "evaluate", scmap.sc_evaluate, solved[0], z)

    @staticmethod
    def _solve(vertices, angles):
        poly = scmap.solve_sc([complex(x, y) for x, y in vertices], angles)
        return poly, [scmap.sc_corner_germ(poly, k) for k in range(len(vertices))]

    def fingerprint(self, index, outcome):
        if outcome.kind == "solve" and outcome.output is not None:
            poly = outcome.output[0]
            return (tuple(poly.prevertices.tolist()), poly.A, poly.B, poly.residual)
        return outcome.error, outcome.output

    def check(self, passes, report) -> Oracle:
        from scipy.integrate import quad

        oracle = Oracle()
        solved = {o.rid[0]: o.output for o in passes[0] if o.kind == "solve" and o.error is None}
        for o in passes[0]:
            if o.error is not None:
                report(f"FAILED {o.rid[0]} {o.rid[1]}: {o.error[:200]}")
        for label, vertices, angles, m in self.polys:
            if label not in solved:
                continue
            poly, germs = solved[label]
            rid = (label, "solve")
            if label == "cross":
                oracle.compare("cross residual", rid, poly.residual, CROSS_RESIDUAL_TOL)
            _check_closure(oracle, rid, poly)
            xs = poly.prevertices
            for k, (frac, theta) in enumerate(self.germ_probes[label]):
                gap = min(abs(xs[j] - xs[k]) for j in range(len(xs)) if j != k)
                rr = frac * gap
                ser = germs[k].series.eval_finite(LPoint(rr, theta))
                quadr = scmap.sc_evaluate(poly, xs[k] + cmath.rect(rr, theta)) - poly.vertices[k]
                oracle.compare("germ series vs quadrature", rid, abs(ser - quadr) / max(1.0, abs(quadr)), SC_TOL)
            if m is None:
                continue
            kmod = math.sqrt(m)
            M = scmap.MobiusTransform.from_triple((-1.0, 0.0, 1.0), (-1.0, 1.0, -1.0 / kmod))
            for o in passes[0]:
                if o.rid[0] == label and o.kind == "evaluate" and o.error is None:
                    want = _elliptic_integral(complex(M(self.points[label][o.rid[1]])), kmod, quad)
                    oracle.compare("elliptic integral", o.rid, rel_err(o.output, want), SC_TOL)
            # a fixed grid as well, so that the worst error does not depend on where the seed put the requests
            for z in ELLIPTIC_GRID:
                want = _elliptic_integral(complex(M(z)), kmod, quad)
                oracle.compare("elliptic integral", rid, rel_err(scmap.sc_evaluate(poly, z), want), SC_TOL)
        return oracle


ELLIPTIC_GRID = [complex(x, y) for x in (-1.9, -1.0, 0.0, 1.0, 1.9) for y in (0.05, 0.5, 1.9)]


def _check_closure(oracle: Oracle, rid, poly) -> None:
    """Boundary images of the prevertex gaps land on the matching polygon sides."""
    xs = list(poly.prevertices)
    vs = poly.vertices
    n = len(xs)
    scale = max(1.0, max(abs(v) for v in vs))
    probes = [(0.5 * (xs[j] + xs[j + 1]), j) for j in range(n - 1)]
    probes += [(xs[-1] + 1.0, n - 1), (xs[0] - 1.0, n - 1)]  # the side through infinity
    for x, j in probes:
        a, b = vs[j], vs[(j + 1) % n]
        w = scmap.sc_evaluate(poly, complex(x, 0.0))
        t = min(1.0, max(0.0, ((w - a) * (b - a).conjugate()).real / abs(b - a) ** 2))
        oracle.compare("prevertex-to-vertex closure", rid, abs(a + t * (b - a) - w) / scale, SC_TOL)


def _elliptic_integral(zeta: complex, kmod: float, quad) -> complex:
    """Integral from 0 to zeta of dt / sqrt((1 - t^2)(1 - k^2 t^2)), along the segment."""

    def integrand(s, part):
        t = zeta * s
        w = -0.5 * (np.log(1 - t) + np.log(1 + t) + np.log(1 - kmod * t) + np.log(1 + kmod * t))
        v = zeta * np.exp(w)
        return v.real if part == 0 else v.imag

    # quad's default absolute tolerance (1.5e-8) is too loose for a 1e-8 check
    # when zeta passes close to a branch point at +-1 or +-1/k
    re, _ = quad(lambda s: integrand(s, 0), 0, 1, limit=400, epsabs=1e-14, epsrel=1e-13)
    im, _ = quad(lambda s: integrand(s, 1), 0, 1, limit=400, epsabs=1e-14, epsrel=1e-13)
    return complex(re, im)


WORKLOADS = {w.name: w for w in (DeepSheets, CertifyJobs, ScPolygons)}
