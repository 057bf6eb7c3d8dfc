"""Command-line front end.

Five subcommands wire the library into reproducible experiments:

* ``calibrate``  exact (epsilon, delta) calibration of the arrival index;
* ``estimate``   one calibrated run against a synthetic Poisson source;
* ``validate``   the statistical property suite with pass/fail reporting;
* ``tpa-ising``  the end-to-end two-phase ratio experiment on a small grid;
* ``bench``      call-count statistics of the two-phase scheme.

Standard output carries exclusively the machine-readable payload (JSON by
default, CSV on request); progress and warnings go to standard error.  A
payload is the command's name, then every input option in the order the
command declares them, then the command's results; one CSV row holds the
flattened payload, unless the command gives its own rows: ``validate``
gives one per property, and ``tpa-ising`` one per replicate, its index
then the run's fields.  Every command is deterministic under fixed flags
and seed.  Exit codes: 0 success, 1 validation failure, 2 usage or domain
error, 3 runtime error (a draw budget, calibration cap or descent step cap
exhausted).  The default seed can be overridden with the GPAS_SEED
environment variable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from .core import (
    DEFAULT_K_CAP,
    DEFAULT_SOURCE_BUDGET,
    ConfidenceInterval,
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
    _check_coverage_delta,
    _check_poisson_mean,
    _check_positive_finite,
    _check_unit_interval,
)
from .ising import (
    LatticeGraph,
    build_histogram,
    IsingGibbsFamily,
    log_partition_function,
    partition_function,
)
from .numerics import RngStream
from .tpa import TpaReport, two_phase_scheme
from .validation import replicate, replicate_two_phase, run_all

SEED_ENV_VAR = "GPAS_SEED"

EXIT_VALIDATION_FAILURE = 1
EXIT_BUDGET = 3


def _rules(*checks):
    """Option callback applying the library's domain rules to the value.

    Each check is a rule of :mod:`gpas.errors`, called with the option's
    name; its ValueError becomes a usage error carrying the same message.
    """

    def callback(ctx, param, value):
        try:
            for check in checks:
                check(param.name, value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None
        return value

    return callback


_epsilon_option = click.option(
    "--epsilon", type=float, required=True, callback=_rules(_check_unit_interval),
    help="Target relative error, in (0, 1).",
)
_delta_option = click.option(
    "--delta", type=float, required=True, callback=_rules(_check_unit_interval),
    help="Target failure probability, in (0, 1).",
)
# estimate, tpa-ising and bench compute an interval at coverage 1 - delta
_coverage_delta_option = click.option(
    "--delta", type=float, required=True, callback=_rules(_check_coverage_delta),
    help="Target failure probability, in (2^-54, 1): the coverage 1 - delta is below 1.",
)
_seed_option = click.option(
    "--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True,
    envvar=SEED_ENV_VAR,
    help=f"Base RNG seed (env override: {SEED_ENV_VAR}).",
)


def _store_output(ctx, param, value):
    """Keep an output option out of the command's inputs, for :func:`_emit`.

    An output file must go into an existing directory, checked before the
    command computes anything.
    """
    if param.name == "output_path" and value is not None:
        parent = os.path.dirname(value) or os.curdir
        if not os.path.isdir(parent):
            raise click.BadParameter(f"directory {parent!r} does not exist.")
    ctx.meta[param.name] = value


def _output_options(command):
    """End a command with the two options that choose where its payload goes."""
    command = click.option(
        "--output", "output_path", type=click.Path(dir_okay=False, writable=True),
        default=None, expose_value=False, callback=_store_output,
        help="Write the payload to this file instead of stdout.",
    )(command)
    return click.option(
        "--output-format", "output_format", type=click.Choice(["json", "csv"]),
        default="json", show_default=True, expose_value=False, callback=_store_output,
        help="Payload format on stdout.",
    )(command)


def _flatten(payload: dict) -> dict:
    flat: dict = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub_key, sub_value in _flatten(value).items():
                flat[f"{key}_{sub_key}"] = sub_value
        else:
            flat[key] = value
    return flat


def _emit(results: dict, rows: list[dict] | None = None) -> None:
    """Write the current command's payload: its name, inputs and results.

    The inputs follow the order in which the command declares its options,
    not the order they were given in, so CSV columns do not depend on the
    command line.  ``rows`` default to the one flattened payload.
    """
    ctx = click.get_current_context()
    payload = {"command": ctx.command.name}
    payload.update(
        (param.name, ctx.params[param.name])
        for param in ctx.command.params if param.expose_value
    )
    payload.update(results)
    if ctx.meta["output_format"] == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        rows = [_flatten(payload)] if rows is None else rows
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    if ctx.meta["output_path"] is None:
        click.echo(text, nl=False)
    else:
        with open(ctx.meta["output_path"], "w", encoding="utf-8") as handle:
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
    "--k-cap", type=click.IntRange(min=3), default=DEFAULT_K_CAP, show_default=True,
    help="Abort the index search above this k.",
)
@_output_options
def cmd_calibrate(epsilon, delta, k_cap) -> None:
    """Calibrate the arrival index for an exact failure probability."""
    cal = calibrate(epsilon, delta, k_cap=k_cap)
    _emit({"k": cal.k, "p": cal.p, "f_k": cal.f_k, "f_km1": cal.f_km1})


@main.command("estimate")
@click.option(
    "--mu", type=float, required=True, callback=_rules(_check_poisson_mean),
    help="Mean of the synthetic Poisson source.",
)
@_epsilon_option
@_coverage_delta_option
@_seed_option
@click.option(
    "--max-calls", type=click.IntRange(min=1), default=DEFAULT_SOURCE_BUDGET,
    show_default=True,
    help="Draw budget of the synthetic source.",
)
@_output_options
def cmd_estimate(mu, epsilon, delta, seed, max_calls) -> None:
    """Run one calibrated estimate against a synthetic Poisson source."""
    rng = RngStream(seed)
    source = SyntheticPoissonSource(mu, rng, max_calls=max_calls)
    result = exact_gpas(source, epsilon, delta, rng)
    ci = confidence_interval(result, 1.0 - delta)
    _emit({**asdict(result), "ci": asdict(ci)})


@main.command("validate")
@click.option(
    "--replicates", type=click.IntRange(min=1), default=1000, show_default=True,
    help="Replicates per stochastic property.",
)
@_seed_option
@_output_options
def cmd_validate(replicates, seed) -> None:
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
    properties = [asdict(res) for res in results]
    _emit({"all_pass": all_pass, "properties": properties}, rows=properties)
    if not all_pass:
        sys.exit(EXIT_VALIDATION_FAILURE)


def _single_run_fields(report, z_inner: float, delta: float) -> dict:
    """One run of ``tpa-ising`` as payload fields, from one report.

    A graph with no edges has a constant Z(beta), so ``report`` is None:
    the run is then the exact ratio 1, with the interval [1, 1] at
    coverage 1 - delta, no phase estimates and no descent.  Any edge makes
    the log-ratio at least #E/2 >= 0.5 (Jensen), so a budget hit on such a
    graph is a budget error (exit 3), never a ratio of 1.  Both kinds of
    run list the same fields in the same order: the flags, the ratio and
    Z(1), then the report's other fields in their declared order.
    """
    degenerate = report is None
    if degenerate:
        report = TpaReport(None, None, None, 1.0, ConfidenceInterval(1.0, 1.0, 1.0 - delta), 0)
    return {
        "degenerate": degenerate,
        "diagnostic": (
            "the graph has no edges: Z(beta) is constant, so the ratio "
            "is exactly 1 and no descent was run"
        ) if degenerate else None,
        "ratio_estimate": report.ratio_estimate,
        "z_outer_estimate": report.ratio_estimate * z_inner,
        # a key already listed keeps its place, so ratio_estimate stays third
        **asdict(report),
    }


@main.command("tpa-ising")
@click.option("--width", type=click.IntRange(min=1), default=None, help="Grid width.")
@click.option("--height", type=click.IntRange(min=1), default=None, help="Grid height.")
@click.option(
    "--edge-file", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Edge list file ('u v' per line, 0-indexed) instead of a grid.",
)
@_epsilon_option
@_coverage_delta_option
@_seed_option
@click.option(
    "--replicates", type=click.IntRange(min=1), default=1, show_default=True,
    help="Independent repetitions of the whole scheme.",
)
@click.option(
    "--max-tpa-calls", type=click.IntRange(min=1), default=DEFAULT_SOURCE_BUDGET,
    show_default=True, help="Per-phase descent budget.",
)
@_output_options
def cmd_tpa_ising(
    width, height, edge_file, epsilon, delta, seed, replicates, max_tpa_calls
) -> None:
    """Estimate Z(1)/Z(0) for the Ising model on a small graph."""
    if edge_file is not None and (width is not None or height is not None):
        raise click.UsageError("--edge-file excludes --width/--height")
    if edge_file is None and (width is None or height is None):
        raise click.UsageError("either --width and --height or --edge-file is required")
    try:
        if edge_file is None:
            graph = LatticeGraph.grid(width, height)
        else:
            graph = LatticeGraph.from_edge_file(edge_file)
    except (SizeExceededError, ValueError) as exc:
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
    aggregate = None
    if replicates > 1:
        totals = np.array([run["total_tpa_calls"] for run in runs], dtype=np.float64)
        within = sum(
            abs(run["ratio_estimate"] / math.exp(oracle["log_ratio"]) - 1.0) <= epsilon
            for run in runs
        )
        aggregate = {
            "replicates": replicates,
            "mean_total_tpa_calls": float(totals.mean()),
            "stddev_total_tpa_calls": float(totals.std(ddof=1)),
            "within_epsilon_of_oracle": within,
        }
    _emit(
        {
            "vertex_count": graph.vertex_count,
            "oracle": oracle,
            **runs[0],
            "aggregate": aggregate,
            "runs": runs if replicates > 1 else None,
        },
        rows=[_flatten({"replicate": i, **run}) for i, run in enumerate(runs)],
    )


@main.command("bench")
@_epsilon_option
@_coverage_delta_option
@click.option(
    "--mu", type=float, required=True, callback=_rules(_check_positive_finite, _check_poisson_mean),
    help="Synthetic Poisson mean standing in for the descent (recorded in the output).",
)
@click.option(
    "--replicates", type=click.IntRange(min=1), default=1000, show_default=True,
    help="Independent repetitions of the two-phase scheme.",
)
@_seed_option
@_output_options
def cmd_bench(epsilon, delta, mu, replicates, seed) -> None:
    """Mean and stddev of total calls of the two-phase scheme at a given mu."""
    click.echo(
        f"benchmarking {replicates} replicate(s) at mu={mu}, "
        f"(epsilon, delta)=({epsilon}, {delta}), seed {seed}",
        err=True,
    )
    _, totals = replicate_two_phase(mu, epsilon, delta, replicates, seed)
    single = replicates == 1
    _emit({
        "mean_total_calls": float(totals.mean()),
        "stddev_total_calls": None if single else float(totals.std(ddof=1)),
        "stddev_note": "not applicable for a single replicate" if single else None,
    })


if __name__ == "__main__":
    main()
