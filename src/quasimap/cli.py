"""Batch front end: analyze / sc-solve / continue / expand / verify / dichotomy.

Each run writes report.json (sorted keys, embedded config hash and package
version), samples.csv, and plot.svg into the output directory and returns a
conventional exit code: 0 pass, 2 certificate failure or dichotomy violation,
3 solver nonconvergence, 4 bad input (a refused flag too).  Every exit but a
missing command writes a report.json whose status names the outcome (bad
input: "bad-input" with the reason), as long as the output directory is writable.

Outputs are byte-identical across repeated runs with the same config: all
sampling is seeded, keys are sorted, and the SVG emitter is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DichotomyViolation,
    FailedCertificate,
    InvalidAngles,
    NonConvergence,
    QuasimapError,
    malformed,
)
from .corners import DomainSpec, angle_json, singular_points
from .expansion import (
    ExpansionModel,
    SamplingPlan,
    dichotomy_check,
    error_tower_constants,
    fit_expansion,
    verify_asymptotic,
)
from .exponents import IRRATIONAL_PI_MULTIPLE, RATIONAL_PI_MULTIPLE, parse_exponent, rationality_class
from .reflection import build_extension, certify_quadratic_domain, max_sample_arg, sample_quadratic_domain
from .scmap import model_corner_germ, solve_sc
from .series import LogPowerSeries
from .svg import svg_plot

EXIT_OK = 0
EXIT_CERTIFICATE = 2
EXIT_NONCONVERGENCE = 3
EXIT_BAD_INPUT = 4

ANGLE_CLASSES = {"rational": RATIONAL_PI_MULTIPLE, "irrational": IRRATIONAL_PI_MULTIPLE}


@dataclass
class JobConfig:
    """One job: the command and every flag, with the defaults the command line uses."""

    command: str
    input: str | None = None
    out: str = "out"
    K: int = 8
    R: float | None = None
    shells: int = 12
    tol: float = 1e-6
    seed: int = 0
    alpha: str | None = None
    series: str | None = None
    angle_class: str | None = None

    def validate(self) -> None:
        """Raise ValueError naming the limit a field breaks."""
        if self.K < 0:
            raise ValueError(f"--K must be >= 0, got {self.K}")
        if self.shells < 1:
            raise ValueError(f"--shells must be >= 1, got {self.shells}")
        if self.R is not None and not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"--R must be finite and > 0, got {self.R}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"--tol must be finite and > 0, got {self.tol}")
        if self.angle_class is not None and self.angle_class not in ANGLE_CLASSES:
            raise ValueError(f"--angle-class must be rational or irrational, got {self.angle_class!r}")

    def hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _emit(config: JobConfig, report: dict, samples: list | None = None, plot: str | None = None) -> None:
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = dict(report)
    # a bad-input config may hold a non-finite flag, which strict JSON has no number for
    report["config"] = {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in asdict(config).items()
    }
    report["config_hash"] = config.hash()
    report["version"] = __version__
    (outdir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    if samples is not None:
        with open(outdir / "samples.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(samples)
    if plot is not None:
        (outdir / "plot.svg").write_text(plot)


def run(config: JobConfig) -> int:
    """Execute one job; deterministic outputs for identical configs."""
    handler = {
        "analyze": _run_analyze,
        "sc-solve": _run_sc_solve,
        "continue": _run_continue,
        "expand": _run_expand,
        "verify": _run_verify,
        "dichotomy": _run_dichotomy,
    }.get(config.command)
    try:
        if handler is None:
            raise ValueError(f"unknown command {config.command!r}")
        config.validate()
        _emit(config, *handler(config))
        return EXIT_OK
    except FailedCertificate as exc:
        _emit(config, {"status": "certificate-failed", "certificate": exc.certificate.to_json()})
        print(f"certificate failed: witness at {exc.certificate.witness()}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except DichotomyViolation as exc:
        _emit(
            config,
            {
                "status": "dichotomy-violation",
                "offending_terms": [
                    {"exponent": e.to_json(), "log_degree": d, "coeff": [c.real, c.imag]}
                    for e, d, c in exc.offending_terms
                ],
            },
        )
        print(f"dichotomy violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except NonConvergence as exc:
        _emit(config, {"status": "nonconvergence", "residual": exc.residual})
        print(f"solver nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (OSError, ValueError, KeyError, json.JSONDecodeError, InvalidAngles, QuasimapError) as exc:
        return _bad_input(config, exc)


def _bad_input(config: JobConfig, exc: Exception) -> int:
    print(f"bad input: {exc}", file=sys.stderr)
    try:
        _emit(config, {"status": "bad-input", "reason": str(exc)})
    except OSError as write_error:
        print(f"no report written: {write_error}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _load_json(path: str | None) -> dict:
    if path is None:
        raise ValueError("--input is required for this command")
    return json.loads(Path(path).read_text(), parse_constant=_finite_float, parse_float=_finite_float)


def _load_series(path: str) -> LogPowerSeries:
    """The series of a --series file; ValueError names the series when its terms are malformed."""
    data = _load_json(path)
    with malformed("series"):
        return LogPowerSeries.from_json(data)


def _finite_float(text: str) -> float:
    """A JSON number, or NaN / Infinity, that must be a finite double."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"JSON input holds {text}, which is not a finite double")
    return value


def _polygon_input(data) -> tuple[list, list]:
    """Vertices and exact angles/pi of an sc-solve input; ValueError names a malformed field."""
    if not isinstance(data, dict):
        raise ValueError(f"polygon JSON must be an object, got {type(data).__name__}")
    key = "polygon" if "polygon" in data else "vertices"
    with malformed(key):
        vertices = [complex(x, y) for x, y in data[key]]
    angles = data.get("angles_over_pi")
    if angles is None:
        raise ValueError("polygon input needs angles_over_pi")
    with malformed("angles_over_pi"):
        angles = [Fraction(a) if not isinstance(a, list) else Fraction(a[0], a[1]) for a in angles]
    return vertices, angles


def _run_analyze(config: JobConfig) -> tuple[dict, list, str]:
    domain = DomainSpec.from_json(_load_json(config.input))
    sing = singular_points(domain)
    report = {
        "status": "ok",
        "singular_points": [
            {"point": [p.real, p.imag], "angles_over_pi": [angle_json(a) for a in angles]}
            for p, angles in sing
        ],
    }
    samples = [["site_re", "site_im", "n_components"]]
    curves = []
    for site in domain.sites:
        samples.append([site.vertex.real, site.vertex.imag, len(site.components)])
        ts = np.linspace(0.0, 0.5, 32)
        for comp in site.components:
            for arc in (comp.arc1, comp.arc2):
                zs = arc.eval(ts)
                curves.append(("", np.real(zs), np.imag(zs)))
    plot = svg_plot(curves, title="boundary arc germs", xlabel="Re", ylabel="Im")
    return report, samples, plot


def _run_sc_solve(config: JobConfig) -> tuple[dict, list, str]:
    vertices, angles = _polygon_input(_load_json(config.input))
    poly = solve_sc(vertices, angles)
    report = {
        "status": "ok",
        "prevertices": list(map(float, poly.prevertices)),
        "A": [poly.A.real, poly.A.imag],
        "B": [poly.B.real, poly.B.imag],
        "residual": poly.residual,
        "angles_over_pi": [[a.numerator, a.denominator] for a in poly.angles],
    }
    samples = [["k", "prevertex", "vertex_re", "vertex_im"]]
    for k, (x, w) in enumerate(zip(poly.prevertices, poly.vertices)):
        samples.append([k, float(x), w.real, w.imag])
    vs = poly.vertices + poly.vertices[:1]
    plot = svg_plot(
        [("polygon", [v.real for v in vs], [v.imag for v in vs])],
        title="target polygon",
        xlabel="Re",
        ylabel="Im",
    )
    return report, samples, plot


def _model_setup(config: JobConfig):
    if config.alpha is None:
        raise ValueError("--alpha is required (e.g. 1/2, sqrt2, golden)")
    alpha = parse_exponent(config.alpha)
    ext = build_extension(model_corner_germ(alpha), K=config.K)
    return alpha, ext, certify_quadratic_domain(ext)


def _fit(config: JobConfig, max_log_degree: int):
    """Horizon R (default 3 alpha) and the model germ's expansion fitted up to it."""
    alpha, ext, cert = _model_setup(config)
    R = config.R if config.R is not None else 3.0 * alpha.value()
    model = ExpansionModel(alpha, R, max_log_degree=max_log_degree)
    plan = SamplingPlan(rho0=0.5 * cert.quad.c, n_shells=config.shells)
    return R, fit_expansion(ext.evaluate, model, plan, domain=cert.quad)


def _run_continue(config: JobConfig) -> tuple[dict, list, str]:
    alpha, ext, cert = _model_setup(config)
    av = alpha.value()
    # the built sheets, but no wider than the sample radii stay normal doubles
    cap = min((2**config.K - 1) * math.pi * 0.98, max_sample_arg(cert.quad))
    pts = sample_quadratic_domain(cert.quad, 512, config.seed, max_abs_arg=cap)
    samples = [["r", "arg", "abs_error_vs_closed_form"]]
    worst = 0.0
    for p, got in zip(pts, ext.evaluate(pts)):
        want = np.exp(av * complex(math.log(p.r), p.phi))
        err = abs(got - want)
        worst = max(worst, err)
        samples.append([p.r, p.phi, err])
    report = {
        "status": "ok",
        "alpha_over_pi_of_angle": alpha.to_json(),
        "tower": cert.report(),
        "closed_form_check": {"points": len(pts), "max_abs_error": worst},
    }
    ks = [lv.k for lv in ext.positive.levels]
    plot = svg_plot(
        [
            ("t_k", ks, [lv.t for lv in ext.positive.levels]),
            ("s_k", ks, [lv.s for lv in ext.positive.levels]),
        ],
        title="sector-ball ladder",
        xlabel="level k",
        ylabel="radius",
        logy=True,
    )
    return report, samples, plot


def _run_expand(config: JobConfig) -> tuple[dict, list, str]:
    R, fit = _fit(config, max_log_degree=0)
    report = {
        "status": "ok",
        "R": R,
        "coefficient_source": fit.method,
        "condition": fit.condition,
        "drift": fit.drift,
        "series": fit.series.to_json(),
    }
    samples = [["exponent", "log_degree", "coeff_re", "coeff_im"]]
    for e in fit.series.support():
        q = fit.series.terms[e]
        for d, c in enumerate(q.coeffs):
            samples.append([e.value(), d, c.real, c.imag])
    mags = sorted(((e.value(), abs(q.leading)) for e, q in fit.series.terms.items()))
    plot = svg_plot(
        [("|coeff|", [m[0] for m in mags], [m[1] for m in mags])],
        title="fitted coefficient magnitudes",
        xlabel="exponent",
        ylabel="|a|",
        logy=True,
    )
    return report, samples, plot


def _run_verify(config: JobConfig) -> tuple[dict, list, str]:
    alpha, ext, cert = _model_setup(config)
    R = config.R if config.R is not None else 2.0 * alpha.value()
    g = _load_series(config.series) if config.series is not None else LogPowerSeries.monomial(1.0, alpha)
    plan = SamplingPlan(rho0=0.25 * cert.quad.c, n_shells=config.shells)
    cert_a = verify_asymptotic(ext.evaluate, g, R, cert.quad, plan=plan, tol=config.tol)
    report = {
        "status": "ok",
        "certificate": cert_a.to_json(),
        "remainder_ladder": error_tower_constants(ext.positive, R, alpha, series=g).to_json(),
    }
    samples = [["abs_z", "arg_z", "remainder_over_absz_R"]]
    pts = cert_a.points
    for r, phi, rem in zip(pts.r.tolist(), pts.phi.tolist(), cert_a.remainders.tolist()):
        samples.append([r, phi, rem / r ** float(R)])
    plot = svg_plot(
        [("remainder ratio", [s.rho for s in cert_a.shells], [max(s.ratio, 1e-300) for s in cert_a.shells])],
        title="remainder ratios per shell",
        xlabel="shell radius",
        ylabel="sup |f - g_R| / rho^R",
        logy=True,
    )
    return report, samples, plot


def _run_dichotomy(config: JobConfig) -> tuple[dict, list, str]:
    if config.series is not None:
        g = _load_series(config.series)
    elif config.alpha is not None:
        g = _fit(config, max_log_degree=1)[1].series
    else:
        raise ValueError("need --series or --alpha")
    if config.angle_class is not None:
        klass = ANGLE_CLASSES[config.angle_class]
    else:
        if config.alpha is None:
            raise ValueError("need --angle-class when only --series is given")
        klass = rationality_class(parse_exponent(config.alpha))
    verdict = dichotomy_check(g, klass, tol=max(config.tol, 1e-12))
    report = {"status": "ok", "verdict": verdict}
    samples = [["exponent", "log_degree", "abs_coeff"]]
    for e in g.support():
        for d, c in enumerate(g.terms[e].coeffs):
            samples.append([e.value(), d, abs(c)])
    return report, samples, svg_plot([], title="dichotomy check")


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError, naming the flag, where argparse exits 2, the certificate-failure code."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    """Flags named after the JobConfig fields; a flag left out keeps the field's default."""
    ap = _Parser(prog="quasimap", description=__doc__, argument_default=argparse.SUPPRESS)
    ap.add_argument("command", nargs="?", help="analyze | sc-solve | continue | expand | verify | dichotomy")
    ap.add_argument("--input", help="input JSON path")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--K", type=int, help="tower depth")
    ap.add_argument("--R", type=float, help="fitting/verification horizon")
    ap.add_argument("--shells", type=int, help="number of sampling shells")
    ap.add_argument("--tol", type=float, help="certificate tolerance")
    ap.add_argument("--seed", type=int, help="sampling seed")
    ap.add_argument("--alpha", help="angle/pi, e.g. 1/2, sqrt2, golden")
    ap.add_argument("--series", help="series JSON path (verify/dichotomy)")
    ap.add_argument("--angle-class", help="rational | irrational")
    return ap


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except argparse.ArgumentError as exc:
        return _bad_input(_report_config(argv), exc)
    if "command" not in args:
        print("missing command", file=sys.stderr)
        return EXIT_BAD_INPUT
    return run(JobConfig(**args))


def _report_config(argv) -> JobConfig:
    """The command and --out of a refused command line, every flag read as plain text, for its bad-input report."""
    ap = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    ap.add_argument("command", nargs="?")
    for field in fields(JobConfig)[1:]:
        ap.add_argument("--" + field.name.replace("_", "-"))
    try:
        args = vars(ap.parse_known_args(argv)[0])
    except argparse.ArgumentError:  # a flag without its value
        args = {}
    return JobConfig(command=args.get("command"), out=args.get("out", JobConfig.out))


if __name__ == "__main__":
    raise SystemExit(main())
