"""tools/digest.py, the byte-identity digest that two trees' outputs are compared by."""

import importlib.util
import time
from pathlib import Path


def load_digest():
    path = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rhs_digest_repeats_within_a_second():
    digest = load_digest()
    started = time.perf_counter()
    first, second = digest.digest("rhs"), digest.digest("rhs")
    assert time.perf_counter() - started < 1.0
    assert first == second and len(first) == 64
