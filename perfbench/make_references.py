"""Write perfbench/references.json: terminal states the benchmark checks ops against.

For every pool profile of `run-n128` and `kdv-n64`, at both shapes, this
integrates the op's problem at a quarter of the op's CFL number (so with
4x finer steps under the same step rule) and stores the terminal state on
the collocation points.  It also runs the op's own step and stores the
worst distance to the reference; the stated tolerance is ten times that,
rounded up to 1, 2 or 5 times a power of ten.  An op whose terminal state
is farther from the reference than the tolerance counts as failed.

Run it from the root of the checkout, at the commit whose behaviour the
benchmark should hold later commits to:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import math

from workloads import (
    KDV_MODEL,
    POOL,
    RANDOM_PROFILE,
    REFERENCES,
    RUN_MODEL,
    SHAPES,
    config,
    evolve,
    source_digest,
    spectral,
    state_error,
)

REFINE = 4
OP_CFL = 0.5


def round_up_125(x: float) -> float:
    exp = math.floor(math.log10(x))
    for mant in (1.0, 2.0, 5.0, 10.0):
        if mant * 10.0**exp >= x:
            return mant * 10.0**exp
    raise AssertionError(x)


def terminal(u0, coeffs, shape, cfl):
    t_end = shape["t_end"]
    controls = evolve.IntegrationControls(
        cfl=cfl,
        sample_interval=shape.get("sample_interval", t_end),
        snapshot_times=tuple(shape.get("snapshot_times", ())),
    )
    result = evolve.integrate(u0, coeffs, t_end, controls)
    assert result.state.status is evolve.RunStatus.COMPLETED, result.state.status
    return spectral.to_physical(result.state.u)


def references_for(model: dict, shape: dict, pool: int) -> dict:
    grid = spectral.Grid(shape["grid"])
    coeffs = config.build_coefficients(model)
    states, worst = [], 0.0
    for key in range(pool):
        u0 = config.build_initial_field(RANDOM_PROFILE, grid, key)
        ref = terminal(u0, coeffs, shape, OP_CFL / REFINE)
        worst = max(worst, state_error(terminal(u0, coeffs, shape, OP_CFL), ref))
        states.append([float(v) for v in ref])
    return {
        "tolerance": round_up_125(10.0 * worst),
        "worst_op_error": worst,
        "reference_cfl": OP_CFL / REFINE,
        "states": states,
    }


def main() -> None:
    out = {"lasw_source_digest": source_digest()}
    for name, model in (("run-n128", RUN_MODEL), ("kdv-n64", KDV_MODEL)):
        out[name] = {}
        for size, pool in POOL.items():
            out[name][size] = refs = references_for(model, SHAPES[name][size], pool)
            print(f"{name} {size}: {pool} profiles, worst op error "
                  f"{refs['worst_op_error']:.3e}, tolerance {refs['tolerance']:g}")
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
