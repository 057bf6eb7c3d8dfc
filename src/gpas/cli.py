"""Command-line front end.

Five subcommands wire the library into reproducible experiments:

* ``calibrate``  exact (epsilon, delta) calibration of the arrival index;
* ``estimate``   one calibrated run against a synthetic Poisson source;
* ``validate``   the statistical property suite with pass/fail reporting;
* ``tpa-ising``  the end-to-end two-phase ratio experiment on a small grid;
* ``bench``      call-count statistics of the two-phase scheme.

Standard output carries exclusively the machine-readable payload (JSON by
default, CSV on request); progress and warnings go to standard error.  Every
command is deterministic under fixed flags and seed.  Exit codes: 0 success,
1 validation failure, 2 usage or domain error, 3 runtime error (a draw
budget, calibration cap or descent step cap exhausted).  The default seed
can be overridden with the GPAS_SEED environment variable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict

import click
import numpy as np

from .core import (
    SyntheticPoissonSource,
    calibrate,
    confidence_interval,
    exact_gpas,
)
from .errors import (
    BudgetExceededError,
    CalibrationError,
    IterationCapError,
    SizeExceededError,
)
from .ising import (
    LatticeGraph,
    build_histogram,
    IsingGibbsFamily,
    log_partition_function,
    partition_function,
)
from .numerics import RngStream
from .tpa import two_phase_scheme
from .validation import replicate, replicate_two_phase, run_all

SEED_ENV_VAR = "GPAS_SEED"

EXIT_VALIDATION_FAILURE = 1
EXIT_BUDGET = 3


def _unit_interval(name: str):
    def callback(ctx, param, value):
        if value is not None and not 0.0 < value < 1.0:
            raise click.BadParameter(
                f"{name} must lie strictly inside (0, 1), got {value}"
            )
        return value

    return callback


def _finite_mean(positive: bool):
    def callback(ctx, param, value):
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            sign = "positive" if positive else "nonnegative"
            raise click.BadParameter(f"mu must be a {sign} finite real, got {value}")
        return value

    return callback


_epsilon_option = click.option(
    "--epsilon", type=float, required=True, callback=_unit_interval("epsilon"),
    help="Target relative error, in (0, 1).",
)
_delta_option = click.option(
    "--delta", type=float, required=True, callback=_unit_interval("delta"),
    help="Target failure probability, in (0, 1).",
)
_seed_option = click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True,
    envvar=SEED_ENV_VAR,
    help=f"Base RNG seed (env override: {SEED_ENV_VAR}).",
)
_format_option = click.option(
    "--output-format", "output_format", type=click.Choice(["json", "csv"]),
    default="json", show_default=True, help="Payload format on stdout.",
)
_output_option = click.option(
    "--output", "output_path", type=click.Path(dir_okay=False, writable=True),
    default=None, help="Write the payload to this file instead of stdout.",
)


def _flatten(payload: dict) -> dict:
    flat: dict = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub_key, sub_value in _flatten(value).items():
                flat[f"{key}_{sub_key}"] = sub_value
        else:
            flat[key] = value
    return flat


def _emit(payload: dict, rows: list[dict], output_format: str, output_path) -> None:
    if output_format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    if output_path is None:
        click.echo(text, nl=False)
    else:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)


class _RuntimeErrorExit(click.Group):
    """Every runtime error, in any command, is one stderr line and exit 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BudgetExceededError, CalibrationError, IterationCapError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_BUDGET)


@click.group(cls=_RuntimeErrorExit)
def main() -> None:
    """Exact Poisson-mean estimation and normalizing-constant ratios."""


@main.command("calibrate")
@_epsilon_option
@_delta_option
@click.option(
    "--k-cap", type=click.IntRange(min=3), default=10_000_000, show_default=True,
    help="Abort the index search above this k.",
)
@_format_option
@_output_option
def cmd_calibrate(epsilon, delta, k_cap, output_format, output_path) -> None:
    """Calibrate the arrival index for an exact failure probability."""
    cal = calibrate(epsilon, delta, k_cap=k_cap)
    payload = {
        "command": "calibrate",
        "epsilon": epsilon,
        "delta": delta,
        "k_cap": k_cap,
        "k": cal.k,
        "p": cal.p,
        "f_k": cal.f_k,
        "f_km1": cal.f_km1,
    }
    _emit(payload, [_flatten(payload)], output_format, output_path)


@main.command("estimate")
@click.option(
    "--mu", type=float, required=True, callback=_finite_mean(positive=False),
    help="Mean of the synthetic Poisson source.",
)
@_epsilon_option
@_delta_option
@_seed_option
@click.option(
    "--max-calls", type=click.IntRange(min=1), default=1_000_000, show_default=True,
    help="Draw budget of the synthetic source.",
)
@_format_option
@_output_option
def cmd_estimate(mu, epsilon, delta, seed, max_calls, output_format, output_path) -> None:
    """Run one calibrated estimate against a synthetic Poisson source."""
    rng = RngStream(seed)
    source = SyntheticPoissonSource(mu, rng, max_calls=max_calls)
    result = exact_gpas(source, epsilon, delta, rng)
    ci = confidence_interval(result, 1.0 - delta)
    payload = {
        "command": "estimate",
        "mu": mu,
        "epsilon": epsilon,
        "delta": delta,
        "seed": seed,
        "max_calls": max_calls,
        "k": result.k,
        "t_prime": result.t_prime,
        "mu_hat": result.mu_hat,
        "draws_used": result.draws_used,
        "ci": asdict(ci),
    }
    _emit(payload, [_flatten(payload)], output_format, output_path)


@main.command("validate")
@click.option(
    "--replicates", type=click.IntRange(min=1), default=1000, show_default=True,
    help="Replicates per stochastic property.",
)
@_seed_option
@_format_option
@_output_option
def cmd_validate(replicates, seed, output_format, output_path) -> None:
    """Run the statistical property suite; exit 1 on any failure."""
    click.echo(
        f"running property suite with {replicates} replicates, seed {seed}", err=True
    )
    results = run_all(replicates, seed)
    for res in results:
        status = "SKIP" if res.skipped else ("PASS" if res.passed else "FAIL")
        click.echo(f"  [{status}] {res.name}: {res.detail}", err=True)
        if res.skipped:
            click.echo(f"  warning: {res.name} skipped ({res.detail})", err=True)
    all_pass = all(res.passed for res in results)
    payload = {
        "command": "validate",
        "replicates": replicates,
        "seed": seed,
        "all_pass": all_pass,
        "properties": [asdict(res) for res in results],
    }
    rows = [asdict(res) for res in results]
    _emit(payload, rows, output_format, output_path)
    if not all_pass:
        sys.exit(EXIT_VALIDATION_FAILURE)


def _single_run_fields(report, z_inner: float, delta: float) -> dict:
    if report is None:  # degenerate: no edges, so Z(beta) is constant
        return {
            "degenerate": True,
            "diagnostic": (
                "the graph has no edges: Z(beta) is constant, so the ratio "
                "is exactly 1 and no descent was run"
            ),
            "ratio_estimate": 1.0,
            "z_outer_estimate": z_inner,
            "r_hat1": None,
            "r_hat2": None,
            "epsilon2": None,
            "ci": {"lower": 1.0, "upper": 1.0, "coverage": 1.0 - delta},
            "total_tpa_calls": 0,
        }
    return {
        "degenerate": False,
        "diagnostic": None,
        "ratio_estimate": report.ratio_estimate,
        "z_outer_estimate": report.ratio_estimate * z_inner,
        "r_hat1": report.r_hat1,
        "r_hat2": report.r_hat2,
        "epsilon2": report.epsilon2,
        "ci": asdict(report.ci),
        "total_tpa_calls": report.total_tpa_calls,
    }


@main.command("tpa-ising")
@click.option("--width", type=click.IntRange(min=1), default=None, help="Grid width.")
@click.option("--height", type=click.IntRange(min=1), default=None, help="Grid height.")
@click.option(
    "--edge-file", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Edge list file ('u v' per line, 0-indexed) instead of a grid.",
)
@_epsilon_option
@_delta_option
@_seed_option
@click.option(
    "--replicates", type=click.IntRange(min=1), default=1, show_default=True,
    help="Independent repetitions of the whole scheme.",
)
@click.option(
    "--max-tpa-calls", type=click.IntRange(min=1), default=1_000_000,
    show_default=True, help="Per-phase descent budget.",
)
@_format_option
@_output_option
def cmd_tpa_ising(
    width, height, edge_file, epsilon, delta, seed, replicates,
    max_tpa_calls, output_format, output_path,
) -> None:
    """Estimate Z(1)/Z(0) for the Ising model on a small graph."""
    if edge_file is not None:
        if width is not None or height is not None:
            raise click.UsageError("--edge-file excludes --width/--height")
        try:
            graph = LatticeGraph.from_edge_file(edge_file)
        except (SizeExceededError, ValueError) as exc:
            raise click.UsageError(str(exc)) from exc
    else:
        if width is None or height is None:
            raise click.UsageError("either --width and --height or --edge-file is required")
        try:
            graph = LatticeGraph.grid(width, height)
        except SizeExceededError as exc:
            raise click.UsageError(str(exc)) from exc

    hist = build_histogram(graph)
    family = IsingGibbsFamily(hist)
    z_inner = partition_function(hist, family.beta_inner)
    oracle = {
        "beta_outer": family.beta_outer,
        "beta_inner": family.beta_inner,
        "z_outer": partition_function(hist, family.beta_outer),
        "z_inner": z_inner,
        "log_ratio": log_partition_function(hist, family.beta_outer)
        - log_partition_function(hist, family.beta_inner),
    }

    click.echo(
        f"running {replicates} two-phase replicate(s) on {graph.vertex_count} "
        f"vertices, seed {seed}",
        err=True,
    )

    def run(rng: RngStream) -> dict:
        report = None if hist.edge_count == 0 else two_phase_scheme(
            family, epsilon, delta, rng, max_calls=max_tpa_calls
        )
        return _single_run_fields(report, z_inner, delta)

    runs = list(replicate(run, replicates, seed))

    payload = {
        "command": "tpa-ising",
        "width": graph.width,
        "height": graph.height,
        "edge_file": edge_file,
        "vertex_count": graph.vertex_count,
        "epsilon": epsilon,
        "delta": delta,
        "seed": seed,
        "replicates": replicates,
        "max_tpa_calls": max_tpa_calls,
        "oracle": oracle,
        **runs[0],
    }
    if replicates > 1:
        totals = np.array([run["total_tpa_calls"] for run in runs], dtype=np.float64)
        within = sum(
            abs(run["ratio_estimate"] / math.exp(oracle["log_ratio"]) - 1.0) <= epsilon
            for run in runs
        )
        payload["aggregate"] = {
            "replicates": replicates,
            "mean_total_tpa_calls": float(totals.mean()),
            "stddev_total_tpa_calls": float(totals.std(ddof=1)),
            "within_epsilon_of_oracle": within,
        }
        payload["runs"] = runs
    else:
        payload["aggregate"] = None
        payload["runs"] = None

    rows = [_flatten({**{"replicate": i}, **run}) for i, run in enumerate(runs)]
    _emit(payload, rows, output_format, output_path)


@main.command("bench")
@_epsilon_option
@_delta_option
@click.option(
    "--mu", type=float, required=True, callback=_finite_mean(positive=True),
    help="Synthetic Poisson mean standing in for the descent (recorded in the output).",
)
@click.option(
    "--replicates", type=click.IntRange(min=1), default=1000, show_default=True,
    help="Independent repetitions of the two-phase scheme.",
)
@_seed_option
@_format_option
@_output_option
def cmd_bench(epsilon, delta, mu, replicates, seed, output_format, output_path) -> None:
    """Mean and stddev of total calls of the two-phase scheme at a given mu."""
    click.echo(
        f"benchmarking {replicates} replicate(s) at mu={mu}, "
        f"(epsilon, delta)=({epsilon}, {delta}), seed {seed}",
        err=True,
    )
    _, totals = replicate_two_phase(mu, epsilon, delta, replicates, seed)
    single = replicates == 1
    payload = {
        "command": "bench",
        "epsilon": epsilon,
        "delta": delta,
        "mu": mu,
        "replicates": replicates,
        "seed": seed,
        "mean_total_calls": float(totals.mean()),
        "stddev_total_calls": None if single else float(totals.std(ddof=1)),
        "stddev_note": "not applicable for a single replicate" if single else None,
    }
    _emit(payload, [_flatten(payload)], output_format, output_path)


if __name__ == "__main__":
    main()
