"""Command-line front end: run, probe, converge, sweep.

Exit codes: 0 for Completed runs and passing probes, 2 when a run ends in
BlowUpSuspected, 3 for a failing probe or study, 1 for operational errors
(bad config, unwritable output, non-finite runs).
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict

import click

from .config import (
    RunConfig,
    build_coefficients,  # noqa: F401 -- perfbench/tracing.py traces cli.build_*
    build_initial_field,  # noqa: F401
    load_json,
    parse_converge_spec,
    parse_probe_spec,
    parse_sweep_spec,
    resolve_out_dir,
)
from .errors import LaswError
from .evolve import RunStatus, integrate
from .io import (
    snapshot_filename,
    write_coefficients_csv,
    write_diagnostics_csv,
    write_json,
    write_snapshot_csv,
)


def run_command(config: RunConfig, quiet: bool = False) -> int:
    """Integrate per config and write diagnostics.csv, snapshots, run.json."""
    out = resolve_out_dir(config.out_dir)
    started = time.perf_counter()
    result = integrate(config.initial_field, config.coefficients, config.t_end, config.controls)
    wall = time.perf_counter() - started

    write_diagnostics_csv(out / "diagnostics.csv", result.records)
    for t_snap, field in result.snapshots:
        write_snapshot_csv(out / snapshot_filename(t_snap), field)
        if config.dump_coefficients:
            write_coefficients_csv(out / snapshot_filename(t_snap, "_coef"), field)
    blowup = None
    if result.blowup is not None:
        blowup = {
            "trigger": result.blowup.trigger,
            "value": result.blowup.value,
            "t": result.blowup.t,
        }
    write_json(out / "run.json", {
        "status": result.state.status.value,
        "t_final": result.state.t,
        "blowup": blowup,
        "config": config.to_dict(),
        "timings": {"wall_seconds": wall},
    })
    if not quiet:
        click.echo(
            f"{result.state.status.value} at t={result.state.t:.6g} "
            f"({len(result.records)} samples) -> {out}"
        )
    status = result.state.status
    if status is RunStatus.COMPLETED:
        return 0
    if status is RunStatus.BLOWUP_SUSPECTED:
        return 2
    return 1


def probe_command(spec: dict, quiet: bool = False) -> int:
    """Dispatch a probe spec and write report.json."""
    return _report_command(*parse_probe_spec(spec), quiet)


def converge_command(spec: dict, quiet: bool = False) -> int:
    """Convergence study spec -> report.json."""
    return _report_command(*parse_converge_spec(spec), quiet)


def _report_command(fn, kwargs: dict, out_dir: str, quiet: bool) -> int:
    out = resolve_out_dir(out_dir)
    report = fn(**kwargs)
    write_json(out / "report.json", asdict(report))
    if not quiet:
        verdict = "pass" if report.passed else "FAIL"
        if report.name == "convergence":
            order = report.details["temporal_order"]
            line = f"convergence: {verdict} (order={order if order is None else f'{order:.3f}'})"
        else:
            line = f"probe {report.name}: {verdict} (max={report.max_value:.6g})"
        click.echo(f"{line} -> {out}")
    return 0 if report.passed else 3


def sweep_command(spec: dict, quiet: bool = False) -> int:
    """Cross-product sweep of run configs; one subdirectory per case.

    Every case is validated before the first one runs.
    """
    out_root, cases = parse_sweep_spec(spec)
    summary = []
    for idx, (overrides, config) in enumerate(cases):
        code = run_command(config, quiet=True)
        summary.append({
            "case": idx,
            "overrides": overrides,
            "out_dir": config.out_dir,
            "exit_code": code,
        })
        if not quiet:
            click.echo(f"case {idx:03d} {overrides} -> exit {code}")
    write_json(resolve_out_dir(out_root) / "sweep.json", {"cases": summary})
    codes = {case["exit_code"] for case in summary}
    return 1 if 1 in codes else 2 if 2 in codes else 0


_COMMANDS = {
    "run": lambda raw, quiet: run_command(RunConfig.from_dict(raw), quiet),
    "probe": probe_command,
    "converge": converge_command,
    "sweep": sweep_command,
}


def _dispatch(command, config_path, out, seed, grid, quiet):
    """Load the spec, apply the command-line overrides and run; any LaswError exits 1."""
    try:
        raw = load_json(config_path)
        # a sweep overrides its base config; a study carries its own grid list
        target = raw.get("base") if command == "sweep" else raw
        if command == "converge":
            grid = None
        if isinstance(target, dict):
            target.update({k: v for k, v in (("seed", seed), ("grid", grid)) if v is not None})
        if out is not None:
            raw["out_dir"] = out
        code = _COMMANDS[command](raw, quiet)
    except LaswError as err:
        click.echo(f"error: {type(err).__name__}: {err}", err=True)
        sys.exit(1)
    sys.exit(code)


def _common_options(f):
    f = click.option("--config", "config_path", required=True, help="path to the JSON spec")(f)
    f = click.option("--out", default=None, help="override out_dir")(f)
    f = click.option("--seed", type=int, default=None, help="override seed")(f)
    f = click.option("--grid", type=int, default=None, help="override grid size")(f)
    f = click.option("--quiet", is_flag=True, default=False)(f)
    return f


@click.group()
def main():
    """Pseudospectral solver and operator probes for periodic shallow-water models."""


@main.command()
@_common_options
def run(**options):
    """Integrate one configured run."""
    _dispatch("run", **options)


@main.command()
@_common_options
def probe(**options):
    """Run one operator/solution-map probe."""
    _dispatch("probe", **options)


@main.command()
@_common_options
def converge(**options):
    """Run a convergence study."""
    _dispatch("converge", **options)


@main.command()
@_common_options
def sweep(**options):
    """Run a cross-product sweep of configurations."""
    _dispatch("sweep", **options)


if __name__ == "__main__":
    main()
