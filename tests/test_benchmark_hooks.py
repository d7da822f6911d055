"""The benchmark's tracer rebinds package functions by name; they must exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _, _ in tracing.TARGETS
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing, f"traced names not found: {missing}"
