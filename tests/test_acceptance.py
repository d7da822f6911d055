"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (run with -s to see
them all); tolerances are pinned here, not configurable.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from lasw.cli import run_command
from lasw.config import RunConfig
from lasw.errors import GammaRelationViolated, InvalidMu
from lasw.evolve import IntegrationControls, RunStatus, integrate
from lasw.models import (
    ModelCoefficients,
    RegimeParameters,
    preset_large_amplitude,
    preset_normalized,
    preset_survey,
    tendency,
    tendency_direct,
    validate,
)
from lasw.probes import (
    commutator_probe,
    continuous_dependence_experiment,
    dispersion_probe,
    phase_speed,
    semigroup_probe,
)
from lasw.spectral import (
    Grid,
    constant,
    dealiased_product,
    from_physical,
    l2_norm,
    lambda_pow,
    random_trig_polynomial,
    resample,
    sobolev_norm,
)

from test_probes import sine_flow_ratios

TWO_PI = 2.0 * math.pi


def report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def cosine(grid, amplitude, mode=1):
    return from_physical(amplitude * np.cos(TWO_PI * mode * grid.x), grid)


def test_01_reformulation_equivalence():
    grid = Grid(128)
    worst = 0.0
    for eps, delta in [(1.0, 1.0), (0.3, 0.1), (0.05, 0.2)]:
        coeffs = preset_large_amplitude(RegimeParameters(eps=eps, delta=delta))
        for k in range(20):
            u = random_trig_polynomial(grid, k, 20, 2.0)
            t_nl = tendency(u, coeffs)
            t_loc = tendency_direct(u, coeffs)
            worst = max(worst, l2_norm(t_nl - t_loc) / (1.0 + l2_norm(t_loc)))
    report(1, worst <= 1e-10, f"reformulation equivalence, worst rel diff {worst:.3e} <= 1e-10")


def test_02_gamma_relation():
    rng = np.random.default_rng(1234)
    exact = True
    for _ in range(100):
        eps, delta = rng.uniform(0.01, 2.0, size=2)
        c = preset_large_amplitude(RegimeParameters(eps=eps, delta=delta))
        exact = exact and (c.gamma1 == 2.0 * (c.gamma2 + c.gamma3))
    rejects = False
    try:
        validate(ModelCoefficients(mu=1.0, gamma1=1.0, gamma2=0.0, gamma3=0.0))
    except GammaRelationViolated:
        try:
            validate(ModelCoefficients(mu=0.0))
        except InvalidMu:
            rejects = True
    report(2, exact and rejects,
           "gamma1 == 2*(gamma2+gamma3) bitwise for 100 regimes; violations rejected")


def test_03_mean_conservation():
    grid = Grid(128)
    result = integrate(
        cosine(grid, 0.05), preset_normalized(), 2.0,
        IntegrationControls(sample_interval=0.1),
    )
    drift = abs(result.records[-1].mean - result.records[0].mean)
    ok = result.state.status is RunStatus.COMPLETED and drift <= 1e-12
    report(3, ok, f"mean drift {drift:.3e} <= 1e-12 over t in [0, 2]")


def test_04_constant_steady_states():
    grid = Grid(64)
    presets = {
        "normalized": preset_normalized(),
        "large_amplitude": preset_large_amplitude(RegimeParameters(eps=0.5, delta=0.3)),
        "ch": preset_survey("ch", RegimeParameters(kappa=1.0)),
        "dp": preset_survey("dp", RegimeParameters(kappa=1.0)),
        "bbm": preset_survey("bbm", RegimeParameters(eps=0.5, delta=0.5, beta=-0.2)),
        "moderate": preset_survey(
            "moderate", RegimeParameters(eps=0.3, delta=0.3, p=0.0, z0=0.5)
        ),
        "se": preset_survey("se", RegimeParameters(eps=0.3, delta=0.3)),
        "kdv": preset_survey("kdv", RegimeParameters(eps=0.5, delta=0.5)),
    }
    u0 = constant(grid, 0.7)
    worst = 0.0
    for name, coeffs in presets.items():
        # kdv's stability bound is pointless on an exactly steady field;
        # a fixed step keeps its run at t_end = 1 affordable
        controls = IntegrationControls(dt=1e-3) if name == "kdv" else None
        res = integrate(u0, coeffs, 1.0, controls)
        assert res.state.status is RunStatus.COMPLETED, name
        worst = max(worst, l2_norm(res.state.u - u0))
    report(4, worst <= 1e-12,
           f"constant data stays fixed for all {len(presets)} presets, worst deviation {worst:.3e} <= 1e-12")


def test_05_temporal_order():
    grid = Grid(64)
    coeffs = preset_normalized()
    u0 = cosine(grid, 0.05)

    def terminal(dt):
        controls = IntegrationControls(dt=dt, sample_interval=0.5)
        return integrate(u0, coeffs, 0.5, controls).state.u

    e1 = l2_norm(terminal(0.005) - terminal(0.0025))
    e2 = l2_norm(terminal(0.0025) - terminal(0.00125))
    order = math.log2(e1 / e2)
    report(5, 3.8 <= order <= 4.2, f"temporal order {order:.3f} in [3.8, 4.2]")


def test_06_spatial_spectral_accuracy():
    coeffs = preset_normalized()
    controls = IntegrationControls(dt=1e-3, sample_interval=1.0)
    coarse = integrate(cosine(Grid(64), 0.05), coeffs, 1.0, controls)
    fine = integrate(cosine(Grid(128), 0.05), coeffs, 1.0, controls)
    diff = l2_norm(resample(coarse.state.u, 128) - fine.state.u)
    report(6, diff <= 1e-9, f"terminal L2 difference 64 vs 128 grid: {diff:.3e} <= 1e-9")


def test_07_semigroup_bound():
    # gradients of the frozen flow steepen like exp(2*pi*t): a single-mode
    # w0 on 4096 points stays resolved through t = 1 under the tail guard.
    # The max ratio is the t = 0 sample, 1.0, so the ratios are also held to
    # the exact flow: their worst relative gap, 4.6e-7, is the grid's (it is
    # the same at cfl 0.25), and the bound leaves a margin of 2.2x
    grid = Grid(4096)
    a = from_physical(np.sin(TWO_PI * grid.x), grid)
    worst = gap = 0.0
    for seed in range(10):
        w0 = random_trig_polynomial(grid, seed, 1, 1.0)
        rep = semigroup_probe(a, w0, 1.0, cfl=0.5)
        assert rep.details["omega"] == pytest.approx(math.pi, rel=1e-10)
        worst = max(worst, rep.max_value)
        exact = sine_flow_ratios(w0.coef[1], 1.0)
        gap = max(gap, float(np.max(np.abs(np.array(rep.values) - exact) / exact)))
    report(7, worst <= 1.0 + 1e-6 and gap <= 1e-6,
           f"||w(t)|| / (e^(pi t) ||w0||) max {worst:.9f} <= 1+1e-6 for 10 draws, t in [0,1]; "
           f"relative gap to the exact flow {gap:.2e} <= 1e-6")


def test_08_commutator_estimate():
    ok = True
    growths = []
    for r_exp, t_exp in [(2.0, 1.0), (1.0, 1.5), (2.0, 3.0)]:
        rep = commutator_probe(t_exp, r_exp, 100, seed=7, n_points=128)
        growths.append(rep.details["refinement_growth"])
        ok = ok and rep.passed
    # constant g: commutator vanishes at machine precision
    grid = Grid(128)
    g_const = constant(grid, 1.1)
    h = random_trig_polynomial(grid, 3, 20, 1.0)
    comm = lambda_pow(dealiased_product(g_const, h), 1.0, 1.0) - dealiased_product(
        g_const, lambda_pow(h, 1.0, 1.0)
    )
    zero_ratio = l2_norm(comm) / (sobolev_norm(g_const, 3.0) * sobolev_norm(h, 0.0))
    ok = ok and zero_ratio <= 1e-12
    report(8, ok,
           "commutator ratios grid-stable (growth "
           + ", ".join(f"{g:.2f}" for g in growths)
           + f" all within factor 2); constant-g ratio {zero_ratio:.1e} <= 1e-12")


def test_09_continuous_dependence():
    grid = Grid(128)
    u0 = cosine(grid, 0.05)
    etas = [1e-2, 1e-3, 1e-4]
    rep = continuous_dependence_experiment(
        u0, etas, 1.0, 2.0, preset_normalized(), seed=11
    )
    d = list(rep.values)
    strict = d[0] > d[1] > d[2]
    bound = d[2] <= 10.0 * (d[0] / etas[0]) * etas[2]
    report(9, strict and bound,
           f"distances {d[0]:.3e} > {d[1]:.3e} > {d[2]:.3e}, d3 <= 10*(d1/eta1)*eta3")


def test_10_dispersion_relation():
    worst = 0.0
    for mode in (1, 2, 3, 4):
        rep = dispersion_probe(mode, 1.0, 0.1, 1e-8, n_points=64)
        k = TWO_PI * mode
        assert rep.details["c_exact"] == pytest.approx(phase_speed(k, 0.1), rel=1e-15)
        worst = max(worst, rep.details["rel_error"])
    report(10, worst <= 1e-6,
           f"phase speed matches (1+(2d^2/9)k^2)/(1+(7d^2/18)k^2), worst rel err {worst:.2e} <= 1e-6")


def test_11_blowup_plumbing(tmp_path):
    times = {}
    codes = {}
    for n in (128, 256):
        out = tmp_path / f"blow{n}"
        config = RunConfig.from_dict({
            "model": {"preset": "large_amplitude", "eps": 1.0, "delta": 0.5},
            "grid": n,
            "initial_data": {"profile": "sine", "amplitude": -0.8, "mode": 1},
            "t_end": 1.0,
            "sample_interval": 0.02,
            "thresholds": {"sup_ux_max": 20.0},
            "out_dir": str(out),
        })
        codes[n] = run_command(config, quiet=True)
        info = json.loads((out / "run.json").read_text())
        assert info["blowup"]["trigger"] == "sup_ux"
        times[n] = info["blowup"]["t"]
    stable = abs(times[256] - times[128]) <= 0.1 * times[128]
    ok = codes == {128: 2, 256: 2} and stable
    report(11, ok,
           f"steep run exits 2; detection t*={times[128]:.4f} vs {times[256]:.4f} within 10%")


def test_12_determinism(tmp_path):
    digests = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        config = RunConfig.from_dict({
            "model": {"preset": "normalized"},
            "grid": 128,
            "initial_data": {"profile": "random", "max_mode": 10, "decay_exponent": 2.0},
            "t_end": 0.5,
            "sample_interval": 0.05,
            "seed": 42,
            "out_dir": str(out),
        })
        assert run_command(config, quiet=True) == 0
        digests.append(hashlib.sha256((out / "diagnostics.csv").read_bytes()).hexdigest())
    report(12, digests[0] == digests[1], "repeated runs produce byte-identical diagnostics.csv")
