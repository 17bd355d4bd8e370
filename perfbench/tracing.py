"""Per-layer tracing for the quasimap benchmark.

The tracer wraps public functions and methods of the package from outside,
then restores them; the package itself is not modified.  Each wrapper calls
the original with the same arguments and returns its result unchanged.

Two kinds of records are kept:

* coarse spans (pass, job, build, certify, fit, verify, solve, evaluate, ...)
  with an id, a parent, the request they serve, a start, an end and their
  self time, kept in memory and written out at exit;
* hot leaf calls (``PowerSeries.__call__``, ``LPoint.__init__``,
  ``Extension.evaluate``, ...), aggregated per pass as a call count plus busy
  time instead of one span per call.

Self time is a call's duration minus the time of the traced calls directly
inside it.  Busy time of a group (for example all sector operations) counts
only the outermost call of the group, so nested calls are not counted twice.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path

# Counts that depend only on the code and the inputs.  They must repeat
# exactly across passes of one run and across runs with the same seed.
EXACT_COUNTS = (
    "scmap.quad_rules",
    "scmap.quad_nodes",
    "powerseries.newton_calls",
    "surface.lpoints",
    "expansion.samples",
    "reflection.levels",
)


class Tracer:
    """Installs counting and timing wrappers; collects spans and per-pass stats."""

    def __init__(self):
        self.counts = Counter()
        self.busy = Counter()
        self.peak = {}
        self.spans = []
        self.request = None
        self._stack = []  # open traced calls: [child seconds]
        self._span_stack = []  # ids of open spans
        self._depth = Counter()
        self._next_id = 1
        self._patches = []
        self._clock = time.perf_counter
        self._origin = self._clock()

    # -- collection --------------------------------------------------------------

    def take(self) -> dict:
        """Per-pass statistics since the last call; resets the counters."""
        snap = {"counts": dict(self.counts), "busy": dict(self.busy), "peak": dict(self.peak)}
        self.counts.clear()
        self.busy.clear()
        self.peak.clear()
        return snap

    def span(self, name: str, request=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, request)

    def _open(self, name: str) -> dict:
        rec = {
            "id": self._next_id,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "request": None if self.request is None else str(self.request),
            "name": name,
            "start": self._clock() - self._origin,
        }
        self._next_id += 1
        self._span_stack.append(rec["id"])
        return rec

    def _close(self, rec: dict, duration: float, child: float) -> None:
        self._span_stack.pop()
        rec["end"] = rec["start"] + duration
        rec["self"] = duration - child
        self.spans.append(rec)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")

    # -- wrapping ----------------------------------------------------------------

    def _wrapper(self, fn, *, count=None, busy=None, self_key=None, span=None, errors=(), before=None, after=None):
        tracer = self
        stack = self._stack
        depth = self._depth
        counts = self.counts
        busy_acc = self.busy
        clock = self._clock

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [0.0]
            rec = tracer._open(span) if span is not None else None
            outer = False
            if busy is not None:
                outer = depth[busy] == 0
                depth[busy] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for etype, key in errors:
                    if isinstance(exc, etype):
                        counts[key] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if busy is not None:
                    depth[busy] -= 1
                    if outer:
                        busy_acc[busy] += dt
                if count is not None:
                    counts[count] += 1
                if self_key is not None:
                    busy_acc[self_key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if rec is not None:
                    tracer._close(rec, dt, frame[0])
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(self, cls, name: str, **how) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrapper(original, **how))
        self._patches.append((cls, name, original))

    def wrap_function(self, modules, owner, name: str, **how) -> None:
        """Replace ``owner.name`` in every module namespace that holds it."""
        original = getattr(owner, name)
        wrapper = self._wrapper(original, **how)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the layer boundaries of the quasimap package."""
        import quasimap
        from quasimap import cli, corners, expansion, exponents, powerseries, reflection, scmap, series, surface
        from quasimap.errors import (
            DichotomyViolation,
            FailedCertificate,
            ImageEscapesChart,
            InversionFailure,
            NonConvergence,
            OutsideExtensionDomain,
        )

        mods = (quasimap, cli, corners, expansion, exponents, powerseries, reflection, scmap, series, surface)
        counts = self.counts

        def bump(key, amount=1):
            counts[key] += amount

        def raise_peak(key, value):
            self.peak[key] = max(self.peak.get(key, value), value)

        # exponents
        self.wrap_method(exponents.Exponent, "value", count="exponents.value_calls")

        # series
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "power", "truncate",
                     "compose_power_substitute", "pow_rational"):
            self.wrap_method(series.LogPowerSeries, name, busy="series.algebra_s")
        self.wrap_method(series.LogPowerSeries, "eval_finite", count="series.eval_finite_calls",
                         busy="series.eval_finite_s")

        # surface: exact-argument points and sector operations
        self.wrap_method(surface.LPoint, "__init__", count="surface.lpoints")
        self.wrap_method(surface.Sector, "contains", count="surface.sector_calls", busy="surface.sector_s")
        self.wrap_function(mods, surface, "reflect_tau", count="surface.sector_calls", busy="surface.sector_s")
        self.wrap_function(mods, surface, "sector_index_point", count="surface.sector_calls",
                           busy="surface.sector_s", after=lambda a, k, level: bump("reflection.levels", level))

        # powerseries
        ps = powerseries.PowerSeries
        for name in ("__call__", "eval_deriv"):
            self.wrap_method(ps, name, count="powerseries.eval_calls", busy="powerseries.eval_s")
        inversion = ((InversionFailure, "powerseries.inversion_failures"),)
        self.wrap_method(ps, "newton_inverse", count="powerseries.newton_calls", busy="powerseries.newton_s",
                         errors=inversion)
        self.wrap_method(ps, "reversion", count="powerseries.reversion_calls", busy="powerseries.reversion_s",
                         errors=inversion)
        self.wrap_method(ps, "compose", busy="powerseries.compose_s")

        # reflection
        self.wrap_function(mods, reflection, "build_extension", span="build", count="reflection.build_calls",
                           busy="reflection.build_s")
        self.wrap_function(mods, reflection, "certify_quadratic_domain", span="certify",
                           busy="reflection.certify_s")
        domain = ((OutsideExtensionDomain, "reflection.domain_errors"), (ImageEscapesChart, "reflection.domain_errors"))
        self.wrap_method(reflection.Extension, "evaluate", count="reflection.evaluate_calls",
                         busy="reflection.evaluate_s", self_key="reflection.evaluate_self_s", errors=domain)

        # expansion: every call of the sampled function is one sample
        def count_samples(args, kwargs):
            f = args[0]

            def sampled(p):
                counts["expansion.samples"] += 1
                return f(p)

            return (sampled,) + tuple(args[1:]), kwargs

        self.wrap_function(mods, expansion, "fit_expansion", span="fit", count="expansion.fit_calls",
                           busy="expansion.fit_s", self_key="expansion.fit_self_s", before=count_samples,
                           after=lambda a, k, fit: raise_peak("expansion.max_condition", fit.condition))
        cert_failed = ((FailedCertificate, "expansion.cert_failed"), (DichotomyViolation, "expansion.cert_failed"))
        self.wrap_function(mods, expansion, "verify_asymptotic", span="verify", busy="expansion.verify_s",
                           self_key="expansion.verify_self_s", before=count_samples, errors=cert_failed)
        self.wrap_function(mods, expansion, "dichotomy_check", errors=cert_failed)

        # corners
        self.wrap_function(mods, corners, "normalize_corner", span="normalize", busy="corners.normalize_s")
        self.wrap_function(mods, corners, "singular_points", span="singular_points",
                           busy="corners.singular_points_s")

        # scmap; roots_jacobi is scipy's, wrapped only where scmap looks it up
        self.wrap_function(mods, scmap, "solve_sc", span="solve", count="scmap.solve_calls", busy="scmap.solve_s",
                           errors=((NonConvergence, "scmap.nonconvergence"),))
        self.wrap_function(mods, scmap, "sc_evaluate", span="evaluate", count="scmap.evaluate_calls",
                           busy="scmap.evaluate_s")
        self.wrap_function((scmap,), scmap, "roots_jacobi", count="scmap.quad_rules", busy="scmap.quad_rule_s",
                           after=lambda a, k, rule: bump("scmap.quad_nodes", int(a[0])))

        # cli
        def job_done(args, kwargs, code):
            if code != 0:
                bump("cli.exit_nonzero")
            out = Path(args[0].out)
            if out.is_dir():
                bump("cli.bytes_written", sum(p.stat().st_size for p in out.iterdir() if p.is_file()))

        self.wrap_function(mods, cli, "run", span="cli.run", count="cli.jobs", busy="cli.run_s",
                           self_key="cli.self_s", after=job_done)


class _Span:
    __slots__ = ("tracer", "name", "request", "rec", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str, request):
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self):
        tr = self.tracer
        if self.request is not None:
            tr.request = self.request
        self.rec = tr._open(self.name)
        self.frame = [0.0]
        tr._stack.append(self.frame)
        self.t0 = tr._clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        dt = tr._clock() - self.t0
        tr._stack.pop()
        if tr._stack:
            tr._stack[-1][0] += dt
        tr._close(self.rec, dt, self.frame[0])
        if self.request is not None:
            tr.request = None
        return False


def layer_metrics(snaps: list) -> dict:
    """Per-layer metrics from the per-pass snapshots of a traced run.

    Counts come from the first pass (the exact ones are checked to repeat);
    times are medians over the passes.
    """
    first = snaps[0]

    def count(key):
        return first["counts"].get(key, 0)

    def seconds(key):
        return statistics.median(s["busy"].get(key, 0.0) for s in snaps)

    evals = count("reflection.evaluate_calls")
    out = {
        "exponents.value_calls": count("exponents.value_calls"),
        "series.eval_finite_calls": count("series.eval_finite_calls"),
        "series.eval_finite_s": seconds("series.eval_finite_s"),
        "series.algebra_s": seconds("series.algebra_s"),
        "surface.lpoints": count("surface.lpoints"),
        "surface.sector_calls": count("surface.sector_calls"),
        "surface.sector_s": seconds("surface.sector_s"),
        "powerseries.eval_calls": count("powerseries.eval_calls"),
        "powerseries.eval_s": seconds("powerseries.eval_s"),
        "powerseries.newton_calls": count("powerseries.newton_calls"),
        "powerseries.newton_s": seconds("powerseries.newton_s"),
        "powerseries.newton_per_eval": count("powerseries.newton_calls") / evals if evals else 0.0,
        "powerseries.reversion_calls": count("powerseries.reversion_calls"),
        "powerseries.reversion_s": seconds("powerseries.reversion_s"),
        "powerseries.compose_s": seconds("powerseries.compose_s"),
        "powerseries.inversion_failures": count("powerseries.inversion_failures"),
        "reflection.build_calls": count("reflection.build_calls"),
        "reflection.build_s": seconds("reflection.build_s"),
        "reflection.certify_s": seconds("reflection.certify_s"),
        "reflection.evaluate_calls": evals,
        "reflection.evaluate_s": seconds("reflection.evaluate_s"),
        "reflection.evaluate_self_s": seconds("reflection.evaluate_self_s"),
        "reflection.levels_per_eval": count("reflection.levels") / evals if evals else 0.0,
        "reflection.domain_errors": count("reflection.domain_errors"),
        "expansion.fit_calls": count("expansion.fit_calls"),
        "expansion.fit_s": seconds("expansion.fit_s"),
        "expansion.fit_self_s": seconds("expansion.fit_self_s"),
        "expansion.verify_s": seconds("expansion.verify_s"),
        "expansion.verify_self_s": seconds("expansion.verify_self_s"),
        "expansion.samples": count("expansion.samples"),
        "expansion.max_condition": first["peak"].get("expansion.max_condition", 0.0),
        "expansion.cert_failed": count("expansion.cert_failed"),
        "corners.normalize_s": seconds("corners.normalize_s"),
        "corners.singular_points_s": seconds("corners.singular_points_s"),
        "scmap.solve_calls": count("scmap.solve_calls"),
        "scmap.solve_s": seconds("scmap.solve_s"),
        "scmap.evaluate_calls": count("scmap.evaluate_calls"),
        "scmap.evaluate_s": seconds("scmap.evaluate_s"),
        "scmap.quad_rules": count("scmap.quad_rules"),
        "scmap.quad_nodes": count("scmap.quad_nodes"),
        "scmap.quad_rule_s": seconds("scmap.quad_rule_s"),
        "scmap.nonconvergence": count("scmap.nonconvergence"),
        "cli.jobs": count("cli.jobs"),
        "cli.run_s": seconds("cli.run_s"),
        "cli.self_s": seconds("cli.self_s"),
        "cli.bytes_written": count("cli.bytes_written"),
        "cli.exit_nonzero": count("cli.exit_nonzero"),
    }
    return out


def unsteady_counts(snaps: list) -> list:
    """Exact counts that differ between passes (should be empty)."""
    bad = []
    for key in EXACT_COUNTS:
        values = {s["counts"].get(key, 0) for s in snaps}
        if len(values) > 1:
            bad.append(f"{key}: {sorted(values)}")
    return bad
