"""Command-line front end: run, probe, converge, sweep.

Exit codes: 0 for Completed runs and passing probes, 2 when a run ends in
BlowUpSuspected, 3 for a failing probe or study, 1 for operational errors
(a malformed command line or config, unwritable output, non-finite runs).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

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
    stop = result.blowup
    blowup = None if stop is None else {"trigger": stop.trigger, "value": stop.value, "t": stop.t}
    write_json(out / "run.json", {
        "status": result.state.status.value,
        "t_final": result.state.t,
        "blowup": blowup,
        "config": config.to_dict(),
        "timings": {"wall_seconds": wall},
    })
    if not quiet:
        print(
            f"{result.state.status.value} at t={result.state.t:.6g} "
            f"({len(result.records)} samples) -> {out}"
        )
    return {RunStatus.COMPLETED: 0, RunStatus.BLOWUP_SUSPECTED: 2}.get(result.state.status, 1)


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
        print(f"{line} -> {out}")
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
            print(f"case {idx:03d} {overrides} -> exit {code}")
    write_json(resolve_out_dir(out_root) / "sweep.json", {"cases": summary})
    codes = {case["exit_code"] for case in summary}
    return 1 if 1 in codes else 2 if 2 in codes else 0


_COMMANDS = {
    "run": (lambda raw, quiet: run_command(RunConfig.from_dict(raw), quiet), "Integrate one configured run."),
    "probe": (probe_command, "Run one operator/solution-map probe."),
    "converge": (converge_command, "Run a convergence study."),
    "sweep": (sweep_command, "Run a cross-product sweep of configurations."),
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
        code = _COMMANDS[command][0](raw, quiet)
    except LaswError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """A malformed command line exits 1 with one error line, as a malformed spec does."""

    def error(self, message):
        print(f"error: ConfigInvalid: {message}", file=sys.stderr)
        sys.exit(1)


def main(argv=None):
    """Pseudospectral solver and operator probes for periodic shallow-water models."""
    parser = _Parser(prog="lasw", description=main.__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.add_argument("--config", dest="config_path", metavar="PATH", required=True,
                         help="path to the JSON spec")
        sub.add_argument("--out", help="override out_dir")
        sub.add_argument("--seed", type=int, help="override seed")
        sub.add_argument("--grid", type=int, help="override grid size")
        sub.add_argument("--quiet", action="store_true")
    _dispatch(**vars(parser.parse_args(argv)))


if __name__ == "__main__":
    main()
