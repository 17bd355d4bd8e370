#!/usr/bin/env python3
"""quasimap benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload deep-sheets --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run sets up the workload from the seed, makes one untimed warm-up pass and
then repeats timed passes over all of its requests (a closed loop with one
client: the next request is sent when the previous one returns) until
``--seconds`` are used, warm-up included, checks the outputs
against oracles after the timed phase, and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced phase plus ``trace.overhead`` against an
untraced phase of the same run.  ``--smoke`` runs every workload at a tiny
size in both modes and checks that every metric in BENCHMARK.json is printed.

Metric definitions, the workloads' reasons and which end-to-end metric each
per-layer metric should move are in ``perfbench/spec.json``.
"""

import os
import sys

# Hash randomisation changes the iteration order of sets of exponents, and
# with it how many comparisons a sort makes; a fixed seed makes every
# per-layer count repeat exactly from run to run.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

# One BLAS/OpenMP thread, fixed before numpy is imported: the runs are
# single-process and single-threaded so that repeats are comparable.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_PASSES = 3  # repeats of every request in a run
REPEAT_QUANTILE = 80  # of a request's repeats, see repeat_level
TAIL_BEYOND = 10  # samples the tail percentile leaves beyond it
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, for the untraced baseline
ERROR_FLOOR = 1e-17  # below double resolution; caps accuracy_digits at 17


def tail_percentile(requests_per_pass: int) -> float:
    """Highest percentile, to 0.1, leaving TAIL_BEYOND samples beyond it at MIN_PASSES repeats.

    It depends on the workload only, not on how many passes fit in a run.
    """
    n = requests_per_pass * MIN_PASSES
    return max(50.0, math.floor(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0)


def repeat_level(samples: list) -> float:
    """A request's latency from its repeats: their REPEAT_QUANTILE-th percentile.

    The CPUs of small shared machines run at a sustained speed and, in
    stretches of seconds to minutes that come and go with the load of other
    tenants, up to about 1.5 times faster.  How much of a run falls in fast
    stretches varies from run to run, so a statistic that follows the mix
    (a median, a mean) drifts with it.  An upper quantile stays at the
    sustained speed whenever a run has some of it; only a run that falls
    wholly in a fast stretch reads fast.  It is not the maximum, which
    single pauses (an interrupt, another tenant's burst) would set.
    """
    return float(np.percentile(samples, REPEAT_QUANTILE))


def request_latencies(passes: list) -> list:
    """Latency of each request: repeat_level over the passes that repeated it."""
    per_request = {}
    for p in passes:
        for o in p["outcomes"]:
            if o.latency is not None:
                per_request.setdefault(o.rid, []).append(o.latency)
    return [repeat_level(v) for v in per_request.values()]


def pass_time(passes: list) -> float:
    """Time of one pass: each request at its latency, plus the time a pass
    spends outside requests (germ construction, point set-up), also taken
    as repeat_level over the passes."""
    outside = repeat_level(
        [p["wall"] - sum(o.latency for o in p["outcomes"] if o.latency is not None) for p in passes]
    )
    return sum(request_latencies(passes)) + outside


def measure(workload, budget: float, min_passes: int, tracer=None, first_index: int = 0, between=None) -> list:
    """Timed passes until the next one would overrun the budget.

    ``between`` runs before each pass, outside its timing.
    """
    from workloads import Recorder

    passes = []
    t_start = time.perf_counter()
    while True:
        if between is not None:
            between()
        # Outcomes kept from earlier passes for the checks would otherwise be
        # rescanned by every full collection and slow the later passes.
        gc.collect()
        gc.freeze()
        rec = Recorder(tracer)
        index = first_index + len(passes)
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("pass", None):
                workload.run_pass(index, rec)
        else:
            workload.run_pass(index, rec)
        wall = time.perf_counter() - t0
        passes.append({"wall": wall, "outcomes": rec.outcomes, "trace": tracer.take() if tracer else None})
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed + wall > budget:
            return passes


class StartupTimer:
    """Seconds from process start until the benchmark's imports are done.

    Import is most of set-up and a process pays it once, so it is timed in
    fresh interpreters that import exactly what a run imports.  One is timed
    before each pass, so that the SETUP_REPEATS samples are spread over the
    run as the passes are.
    """

    def __init__(self):
        self.code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
                     "import workloads, tracing")
        self.times = []

    def sample(self) -> None:
        if len(self.times) < SETUP_REPEATS:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, check=True, timeout=120)
            self.times.append(time.perf_counter() - t0)

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def check_repeats(workload, passes: list) -> list:
    """Outputs and failures that differ between passes (should be empty)."""
    bad = []
    first = [workload.fingerprint(0, o) for o in passes[0]["outcomes"]]
    for i, p in enumerate(passes[1:], start=1):
        for o, ref in zip(p["outcomes"], first):
            if workload.fingerprint(i, o) != ref:
                bad.append(f"pass {i} {o.rid}")
        if len(p["outcomes"]) != len(first):
            bad.append(f"pass {i}: {len(p['outcomes'])} requests, pass 0 had {len(first)}")
    return bad


def run(args) -> int:
    os.chdir(ROOT)
    if not (ROOT / "src" / "quasimap" / "__init__.py").is_file():
        print(f"quasimap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    # relative, so that paths written into reports do not depend on where the checkout is
    tmp = Path(".perfbench_tmp") / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(tmp, ignore_errors=True)  # left by an interrupted run
    try:
        gen = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = cls(args.seed, args.size, tmp / f"setup{i}")
            gen.append(time.perf_counter() - t0)
        n_req = workload.requests_per_pass()
        startup = StartupTimer()

        # One untimed pass first, so that lazy imports and first-call set-up in
        # the libraries are not charged to the first timed repeat; its outputs
        # are checked with the others.
        warmup = measure(workload, 0.0, 1)
        seconds = max(0.0, args.seconds - warmup[0]["wall"])
        tracer = None
        if args.trace:
            untraced = measure(workload, UNTRACED_SHARE * seconds, 1, first_index=1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes = measure(workload, (1.0 - UNTRACED_SHARE) * seconds, 2, tracer, 1 + len(untraced))
            finally:
                tracer.uninstall()
            all_passes = warmup + untraced + passes
        else:
            passes = measure(workload, seconds, MIN_PASSES, first_index=1, between=startup.sample)
            all_passes = warmup + passes
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # -- checks, after the timed phase ---------------------------------------------
        oracle = workload.check([p["outcomes"] for p in all_passes], print)
        unsteady = check_repeats(workload, all_passes)
        if tracer is not None:
            unsteady += tracing.unsteady_counts([p["trace"] for p in passes])
        attempted = failed = 0
        failed_ids = set()
        for p in all_passes:
            for o in p["outcomes"]:
                attempted += 1
                if o.error is not None or o.rid in oracle.misses:
                    failed += 1
                    failed_ids.add(o.rid)
        for rid, why in oracle.misses.items():
            print(f"ORACLE MISS {rid}: {why}")
        for line in unsteady:
            print(f"NOT REPEATED {line}")
        correct = not oracle.misses and not unsteady
        for kind, (err, tol) in sorted(oracle.worst.items()):
            print(f"oracle {kind}: worst error {err:.3e} (tol {tol:.0e})")

        spec = json.loads((HERE / "spec.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        print(f"workload {args.workload} seed {args.seed} size {args.size}: {len(passes)} passes of "
              f"{n_req} requests; PYTHONHASHSEED={os.environ['PYTHONHASHSEED']}; threads: "
              + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
        print(f"ops_failed: {failed}/{attempted} requests ({len(failed_ids)} distinct: "
              f"{', '.join(map(str, sorted(failed_ids, key=str))) or 'none'})")
        if args.trace:
            metrics = tracing.layer_metrics([p["trace"] for p in passes])
            metrics["trace.overhead"] = pass_time(passes) / pass_time(untraced)
            tracer.write_spans(Path(".perfbench_out") / f"spans-{args.workload}-seed{args.seed}.json")
            print(f"spans: {len(tracer.spans)} written to .perfbench_out/")
        else:
            lat = request_latencies(passes)
            q = tail_percentile(n_req)
            tail = float(np.percentile(lat, q))
            print(f"req_tail_ms is p{q} of {len(lat)} request latencies, each the p{REPEAT_QUANTILE} of its "
                  f"{len(passes)} repeats; p{q} leaves {TAIL_BEYOND} of the {n_req * MIN_PASSES} samples "
                  f"of {MIN_PASSES} repeats beyond it")
            worst = oracle.worst_error()
            metrics = {
                "setup_s": startup.median() + statistics.median(gen),
                "wall_s": pass_time(passes),
                "req_p50_ms": 1e3 * float(np.percentile(lat, 50.0)),
                "req_tail_ms": 1e3 * tail,
                "peak_rss_mb": peak_rss_mb,
                "accuracy_digits": -math.log10(max(worst, ERROR_FLOOR)) if math.isfinite(worst) else 0.0,
                "ops_succeeded": 1.0 - failed / attempted,
            }
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        result = {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def smoke() -> int:
    """Every workload at a tiny size, both modes: all metrics of BENCHMARK.json printed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    problems = []
    for group in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")} for m in spec[group]]
        listed = [{k: m[k] for k in ("name", "unit", "better")} for m in bench[group]]
        if declared != listed:
            problems.append(f"{group} in spec.json and BENCHMARK.json differ")
    if [w["name"] for w in bench["workloads"]] != list(spec["workloads"]):
        problems.append("workloads in spec.json and BENCHMARK.json differ")
    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            if trace and "trace.overhead" not in result["metrics"]:
                problems.append(f"{tag}: trace.overhead not reported")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            print(f"smoke {tag}: {len(got)} metrics, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}")
    for p in problems:
        print(f"SMOKE PROBLEM {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("deep-sheets", "certify-jobs", "sc-polygons"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--smoke", action="store_true", help="run every workload at a tiny size and check the output")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
