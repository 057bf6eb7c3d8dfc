#!/usr/bin/env python3
"""Layered benchmark of gpas: one closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload ising-4x4 --seed 1 --seconds 25 --trace 0

One client in one process starts solution i + 1 when solution i ends, for
``--seconds`` seconds (at least one solution).  Solution i is addressed by
``(seed, i)``, so a seed fixes every input.  Every output is checked against
an exact oracle (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` prints the per-layer metrics: it runs the solutions untraced
for half the time, then from index 0 again traced (see ``tracing.py``) for the
other half, and reconciles the two (identical estimates and counts) and the
layers' counters with each other.

Set-up is timed in this process from just before ``gpas`` is imported until
the first solution could start, and again in fresh processes; ``setup_s`` is
the median.  The program is imported from ``src/`` of the checkout and
nowhere else.

Every reported time is scaled by the host's speed, measured with a reference
kernel during the run (see ``REFERENCE_MS``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  A fuller record, with every solution and, when
traced, its per-layer span, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("ising-4x4", "synthetic-r15", "calibrate-ci", "ising-24v")
SETUP_SAMPLES = 3  # this process plus two fresh ones
PROBE_TIMEOUT_S = 120

# The host's speed drifts: on the 2-core VM this benchmark was tuned on, a
# fixed piece of Python ran up to 1.5x slower, in spells from a fraction of a
# second to tens of seconds, because of other tenants.  Every timing is
# therefore scaled by a reference kernel timed alongside it:
# reported = measured * REFERENCE_MS / kernel time.  A solution is scaled by
# the kernels timed on either side of it, set-up by the mean kernel time of
# the run.  REFERENCE_MS is about the kernel's time on that VM, so scaled
# figures read as times there.  Raw times are kept in the results record.
REFERENCE_MS = 3.0
# Spells change within tens of milliseconds, so a sample must average many
# kernels to estimate the speed a solution saw: samples are taken between
# solutions at least REFERENCE_INTERVAL_S apart, and each lasts
# REFERENCE_SHARE of the time since the previous one (at least one kernel).
REFERENCE_INTERVAL_S = 0.2
REFERENCE_SHARE = 0.05

# (name, unit); BENCHMARK.json lists the same names with their direction.
END_TO_END = (
    ("setup_s", "s"),
    ("solutions_per_s", "1/s"),
    ("solution_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of the per-layer metrics; "calls" are per solution.
PER_LAYER = (
    ("ising.sample_hamiltonian.calls", "count"),
    ("ising.sample_hamiltonian.us_per_call", "us"),
    ("ising.sample_hamiltonian.self_frac", "frac"),
    ("ising.build_histogram.s", "s"),
    ("tpa.tpa_run.calls", "count"),
    ("tpa.tpa_run.us_per_call", "us"),
    ("tpa.tpa_run.self_frac", "frac"),
    ("tpa.steps_per_descent", "count"),
    ("tpa.phase1.calls", "count"),
    ("tpa.phase2.calls", "count"),
    ("tpa.phase2.k_mean", "count"),
    ("tpa.tie_break_frac", "frac"),
    ("core.calibrate.calls", "count"),
    ("core.calibrate.us_per_call", "us"),
    ("core.calibrate.probes_per_call", "count"),
    ("core.confidence_interval.us_per_call", "us"),
    ("numerics.gamma_quantile.calls", "count"),
    ("numerics.gamma_quantile.us_per_call", "us"),
    ("numerics.gamma_quantile.cache_hit_frac", "frac"),
    ("numerics.reg_lower_gamma.calls", "count"),
    ("numerics.reg_lower_gamma.us_per_call", "us"),
    ("core.gpas.self_us", "us"),
    ("core.gpas.counts_per_run", "count"),
    ("numerics.sample_poisson.calls", "count"),
    ("numerics.sample_poisson.us_per_call", "us"),
    ("numerics.sample_beta.calls", "count"),
    ("numerics.sample_beta.us_per_call", "us"),
    ("numerics.uniforms_per_solution", "count"),
    ("validation.replicate_two_phase.self_frac", "frac"),
    ("import.s", "s"),
    ("trace.overhead_frac", "frac"),
    ("calls_per_solution", "count"),
    ("solution_ms_p90", "ms"),
    ("oracle.within_eps_frac", "frac"),
    ("oracle.max_rel_err", "frac"),
    ("oracle.nonminimal_k_frac", "frac"),
    ("failed_frac", "frac"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (as opposed to a failed solution)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload_name: str, seed: int):
    """Import gpas and build the workload's state; returns (workload, state, timings)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        raise BenchmarkError(f"cannot import gpas from {SRC}: {exc}") from exc
    import_s = time.perf_counter() - start
    import gpas

    if Path(gpas.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchmarkError(f"gpas was imported from {gpas.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[workload_name]
    state = workload.setup(seed)
    timings = {
        "setup_s": time.perf_counter() - start,
        "import_s": import_s,
        "build_histogram_s": state["build_histogram_s"],
    }
    return workload, state, timings


def _reference_kernel() -> float:
    # The mix gpas spends its time on: small numpy calls (as in
    # sample_hamiltonian) and scalar float loops (as in reg_lower_gamma).
    import numpy as np

    levels = np.linspace(0.0, 1.0, 25)
    total = 0.0
    for i in range(200):
        cumulative = np.cumsum(np.exp(levels * (i * 1e-3)))
        total += float(np.searchsorted(cumulative, cumulative[-1] * 0.5))
    x = 1.0
    for i in range(1, 20000):
        x = x * 0.999 + 1.0 / i
    return total + x


def reference_sample_ms(budget_s: float) -> float:
    """Mean wall time of reference kernels run for about ``budget_s``, in ms."""
    times = []
    deadline = time.perf_counter() + budget_s
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        _reference_kernel()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.mean(times)


def probe_setups(args, count: int) -> list[dict]:
    """Set-up timings from ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_one(workload, state, index: int, tracer=None) -> dict:
    """Solve, time and check solution ``index``."""
    inp = workload.make_input(state, index)
    record = {"index": index, "failed": False}
    try:
        if tracer is None:
            record["start"] = time.perf_counter()
            solution = workload.solve(state, inp)
            record["end"] = time.perf_counter()
        else:
            before = tracer.snapshot()
            with tracer.installed():
                record["start"] = time.perf_counter()
                solution = workload.solve(state, inp)
                record["end"] = time.perf_counter()
            record["phases"] = tracer.phases[before["phases"]:]
            record["span"] = tracer.span_since(before)
        check = workload.check(state, inp, solution)
    except Exception:  # a failed solution is counted, and the loop goes on
        record.setdefault("end", time.perf_counter())
        record.update(failed=True, reason=traceback.format_exc())
        print(f"solution {index} raised:\n{record['reason']}", file=sys.stderr)
        return record
    record.update(
        outputs=list(solution.outputs),
        calls=solution.calls,
        failed=check.failed,
        reason=check.reason,
        within_eps=check.within_eps,
        max_rel_err=check.max_rel_err,
        calibrations=check.calibrations,
        nonminimal_k=check.nonminimal_k,
    )
    if check.failed:
        print(f"solution {index} failed its oracle check: {check.reason}", file=sys.stderr)
    return record


def run_loop(workload, state, seconds: float, tracer=None) -> tuple[list[dict], list]:
    """Solutions 0, 1, 2, ... until ``seconds`` have passed (at least one).

    Returns the records and the reference samples ``(taken_at, ms)``, taken
    before the first solution, between solutions at least
    ``REFERENCE_INTERVAL_S`` apart, and after the last.
    """
    def sample():
        now = time.perf_counter()
        since = now - samples[-1][0] if samples else REFERENCE_INTERVAL_S
        samples.append((now, reference_sample_ms(REFERENCE_SHARE * since)))

    records = []
    samples = []
    sample()
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        if time.perf_counter() - samples[-1][0] >= REFERENCE_INTERVAL_S:
            sample()
        records.append(run_one(workload, state, len(records), tracer))
    sample()
    taken_at = [t for t, _ in samples]
    for r in records:
        before = samples[bisect.bisect_right(taken_at, r["start"]) - 1][1]
        after = samples[bisect.bisect_left(taken_at, r["end"])][1]
        r["raw_ms"] = 1e3 * (r["end"] - r["start"])
        r["reference_ms"] = 0.5 * (before + after)
        r["ms"] = r["raw_ms"] * REFERENCE_MS / r["reference_ms"]
    return records, samples


def clear_quantile_cache() -> None:
    # Each traced/untraced pass starts cold, as a fresh process would.
    from gpas import numerics

    if hasattr(numerics.gamma_quantile, "cache_clear"):
        numerics.gamma_quantile.cache_clear()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end_metrics(records: list[dict], setup: dict) -> dict:
    ms = [r["ms"] for r in records]
    values = {
        "setup_s": setup["setup_s"],
        "solutions_per_s": len(ms) / (sum(ms) / 1e3),
        "solution_ms_p50": statistics.median(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def quality(records: list[dict]) -> dict:
    """Oracle and cost summaries over checked solutions."""
    ok = [r for r in records if "calls" in r]
    estimates = [r["within_eps"] for r in ok if r["within_eps"] is not None]
    calibrations = sum(r["calibrations"] for r in ok)
    return {
        "calls_per_solution": _mean(r["calls"] for r in ok),
        "oracle.within_eps_frac": _mean(estimates),
        "oracle.max_rel_err": max((r["max_rel_err"] for r in ok), default=0.0),
        "oracle.nonminimal_k_frac": (
            sum(r["nonminimal_k"] for r in ok) / calibrations if calibrations else 0.0
        ),
        "failed_frac": sum(r["failed"] for r in records) / len(records),
        "estimates": len(estimates),
        "misses": estimates.count(False),
    }


def per_layer_metrics(traced, untraced, setup: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass, plus reconciliation problems."""
    n = len(traced)
    wall_s = sum(r["raw_ms"] for r in traced) / 1e3  # layer times are raw too
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    uniforms = cache_hits = descent_count_sum = 0
    for r in traced:
        span = r.get("span")
        if span is None:
            continue
        for name, (calls, incl, child) in span["layers"].items():
            t = totals[name]
            t[0] += calls
            t[1] += incl
            t[2] += child
        uniforms += span["uniforms"]
        cache_hits += span["cache_hits"]
        descent_count_sum += span["descent_count_sum"]

    def calls(layer):
        return totals[layer][0]

    def per_solution(layer):
        return calls(layer) / n

    def us_per_call(layer):
        return 1e6 * totals[layer][1] / calls(layer) if calls(layer) else 0.0

    def self_frac(layer):
        return (totals[layer][1] - totals[layer][2]) / wall_s

    def ratio(a, b):
        return a / b if b else 0.0

    two_phase = [r["phases"] for r in traced if len(r.get("phases", ())) == 2]
    phases = [p for pair in two_phase for p in pair]
    charged = sum(r["calls"] for r in traced if "calls" in r)

    # overhead on the solutions both passes ran, so the work is identical
    common = min(len(traced), len(untraced))
    overhead = ratio(
        sum(r["ms"] for r in traced[:common]), sum(r["ms"] for r in untraced[:common])
    ) - 1.0
    q = quality(untraced + traced)
    values = {
        "ising.sample_hamiltonian.calls": per_solution("ising.sample_hamiltonian"),
        "ising.sample_hamiltonian.us_per_call": us_per_call("ising.sample_hamiltonian"),
        "ising.sample_hamiltonian.self_frac": self_frac("ising.sample_hamiltonian"),
        "ising.build_histogram.s": setup["build_histogram_s"],
        "tpa.tpa_run.calls": per_solution("tpa.tpa_run"),
        "tpa.tpa_run.us_per_call": us_per_call("tpa.tpa_run"),
        "tpa.tpa_run.self_frac": self_frac("tpa.tpa_run"),
        "tpa.steps_per_descent": ratio(calls("ising.sample_hamiltonian"), calls("tpa.tpa_run")),
        "tpa.phase1.calls": _mean(pair[0][2] for pair in two_phase),
        "tpa.phase2.calls": _mean(pair[1][2] for pair in two_phase),
        "tpa.phase2.k_mean": _mean(pair[1][1] for pair in two_phase),
        "tpa.tie_break_frac": _mean(k_used == k_cal - 1 for k_cal, k_used, _ in phases),
        "core.calibrate.calls": per_solution("core.calibrate"),
        "core.calibrate.us_per_call": us_per_call("core.calibrate"),
        "core.calibrate.probes_per_call": ratio(
            calls("core.failure_probability"), calls("core.calibrate")
        ),
        "core.confidence_interval.us_per_call": us_per_call("core.confidence_interval"),
        "numerics.gamma_quantile.calls": per_solution("numerics.gamma_quantile"),
        "numerics.gamma_quantile.us_per_call": us_per_call("numerics.gamma_quantile"),
        "numerics.gamma_quantile.cache_hit_frac": ratio(
            cache_hits, calls("numerics.gamma_quantile")
        ),
        "numerics.reg_lower_gamma.calls": per_solution("numerics.reg_lower_gamma"),
        "numerics.reg_lower_gamma.us_per_call": us_per_call("numerics.reg_lower_gamma"),
        "core.gpas.self_us": ratio(
            1e6 * (totals["core.gpas"][1] - totals["core.gpas"][2]), calls("core.gpas")
        ),
        "core.gpas.counts_per_run": ratio(sum(p[2] for p in phases), calls("core.gpas")),
        "numerics.sample_poisson.calls": per_solution("numerics.sample_poisson"),
        "numerics.sample_poisson.us_per_call": us_per_call("numerics.sample_poisson"),
        "numerics.sample_beta.calls": per_solution("numerics.sample_beta"),
        "numerics.sample_beta.us_per_call": us_per_call("numerics.sample_beta"),
        "numerics.uniforms_per_solution": uniforms / n,
        "validation.replicate_two_phase.self_frac": self_frac("validation.replicate_two_phase"),
        "import.s": setup["import_s"],
        "trace.overhead_frac": overhead,
        "calls_per_solution": q["calls_per_solution"],
        "solution_ms_p90": _p90([r["ms"] for r in untraced]),
        "oracle.within_eps_frac": q["oracle.within_eps_frac"],
        "oracle.max_rel_err": q["oracle.max_rel_err"],
        "oracle.nonminimal_k_frac": q["oracle.nonminimal_k_frac"],
        "failed_frac": q["failed_frac"],
    }

    problems = []
    for r_u, r_t in zip(untraced[:common], traced[:common]):
        if (r_u.get("outputs"), r_u.get("calls")) != (r_t.get("outputs"), r_t.get("calls")):
            problems.append(f"solution {r_u['index']}: traced and untraced results differ")
    if calls("tpa.tpa_run") + calls("numerics.sample_poisson") != charged:
        problems.append(
            f"{calls('tpa.tpa_run')} descents + {calls('numerics.sample_poisson')} Poisson "
            f"draws != {charged} counts charged"
        )
    if sum(p[2] for p in phases) != charged:
        problems.append(f"phase call counts do not add up to {charged} counts charged")
    if calls("ising.sample_hamiltonian") != descent_count_sum + calls("tpa.tpa_run"):
        problems.append(
            f"{calls('ising.sample_hamiltonian')} Hamiltonian draws != "
            f"{descent_count_sum + calls('tpa.tpa_run')} descent steps"
        )
    return values, problems


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # The benchmark may run in an exported tree without .git: say so.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time set-up in this fresh process, print it, and exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error(f"--seed must lie in [0, 2**32), got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, state, timings = set_up(args.workload, args.seed)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(timings))
        return 0
    import tracing
    import workloads

    if args.trace:
        untraced, samples = run_loop(workload, state, args.seconds / 2)
        clear_quantile_cache()
        traced, traced_samples = run_loop(workload, state, args.seconds / 2, tracing.Tracer())
        records = untraced + traced
        samples += traced_samples
    else:
        records, samples = run_loop(workload, state, args.seconds)
    try:
        setup_samples = [timings] + probe_setups(args, SETUP_SAMPLES - 1)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # raw set-up times are medians over processes, scaled by the run's kernels
    setup_scale = REFERENCE_MS / statistics.mean(ms for _, ms in samples)
    setup = {
        key: setup_scale * statistics.median(s[key] for s in setup_samples)
        for key in timings
    }

    q = quality(records)
    problems = []
    if not workloads.misses_plausible(q["estimates"], q["misses"]):
        problems.append(f"{q['misses']} of {q['estimates']} estimates miss epsilon: too many for delta")
    if args.trace:
        values, layer_problems = per_layer_metrics(traced, untraced, setup)
        problems += layer_problems
        units = dict(PER_LAYER)
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(records, setup)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {"environment": env, "result": result, "problems": problems,
             "setup_scale": setup_scale, "raw_setup_samples": setup_samples,
             "reference_samples": samples, "solutions": records},
            default=str,
        ),
        encoding="utf-8",
    )
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
