"""Bit-stable writers for diagnostics, snapshots and reports.

Numeric fields use 17 significant digits, enough to round-trip any
double, so identical runs produce byte-identical files.  Timings live in
their own run.json field and never touch the comparable artifacts.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .errors import IoError
from .evolve import DiagnosticsRecord
from .spectral import SpectralField, to_physical

_DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))
DIAGNOSTICS_HEADER = ",".join(_DIAGNOSTICS_COLUMNS)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def write_diagnostics_csv(path, records: list[DiagnosticsRecord]) -> None:
    lines = [DIAGNOSTICS_HEADER]
    for r in records:
        lines.append(",".join(fmt(getattr(r, name)) for name in _DIAGNOSTICS_COLUMNS))
    _write_text(Path(path), "\n".join(lines) + "\n")


def snapshot_filename(t: float, suffix: str = "") -> str:
    return f"snapshot_{t:.12g}{suffix}.csv"


def write_snapshot_csv(path, field: SpectralField) -> None:
    x = field.grid.x
    u = to_physical(field)
    lines = ["x,u"]
    lines.extend(f"{fmt(xi)},{fmt(ui)}" for xi, ui in zip(x, u))
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_coefficients_csv(path, field: SpectralField) -> None:
    """Exact-restart dump: one n,re,im row per stored coefficient.

    The rows are modes 0 .. n/2-1 and then the Nyquist mode -n/2, the
    rows that an ``initial_data`` coefficient list accepts.
    """
    modes = field.grid.modes[: field.coef.shape[0]]
    lines = ["n,re,im"]
    lines.extend(
        f"{int(n)},{fmt(c.real)},{fmt(c.imag)}"
        for n, c in zip(modes, field.coef)
    )
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    _write_text(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")
