"""The coefficient family, its presets, and the nonlocal reformulation.

The same evolution has two faces: the local form (third-order derivatives,
inverted elliptic operator) and the nonlocal first-order form
u_t = -a(u) u_x + f(u).  They must agree wherever the cubic coefficients
satisfy gamma1 = 2*(gamma2 + gamma3) -- comparing them is a free
correctness oracle for all the sign conventions.

Run:  python3 demos/02_model_family.py
"""

import numpy as np

from lasw import (
    Grid,
    RegimeParameters,
    derivative,
    flux,
    l2_norm,
    mean,
    preset_large_amplitude,
    preset_normalized,
    preset_survey,
    random_trig_polynomial,
    tendency,
    tendency_direct,
)

print("presets mapped into the family (mu, a1, a2, a3, b1, b2, g1, g2, g3):")
rows = {
    "large_amplitude(1,1)": preset_large_amplitude(RegimeParameters(eps=1, delta=1)),
    "normalized": preset_normalized(),
    "ch(kappa=1)": preset_survey("ch", RegimeParameters(kappa=1.0)),
    "dp(kappa=1)": preset_survey("dp", RegimeParameters(kappa=1.0)),
    "moderate(p=0,z0=.577)": preset_survey(
        "moderate", RegimeParameters(eps=1, delta=1, p=0.0, z0=(1.0 / 3.0) ** 0.5)
    ),
    "kdv": preset_survey("kdv", RegimeParameters(eps=1, delta=1)),
    "se(.5,.4)": preset_survey("se", RegimeParameters(eps=0.5, delta=0.4)),
}
for name, c in rows.items():
    vals = (c.mu, c.alpha1, c.alpha2, c.alpha3, c.beta1, c.beta2, c.gamma1, c.gamma2, c.gamma3)
    print(f"  {name:24s}" + " ".join(f"{v:8.4f}" for v in vals)
          + ("   [conservative]" if c.conservative else "   [needs direct form]"))

grid = Grid(128)
u = random_trig_polynomial(grid, seed=4, max_mode=20, decay_exponent=2.0)

print("\nreformulation agreement on a random band-limited field:")
for name in ("large_amplitude(1,1)", "normalized", "ch(kappa=1)", "se(.5,.4)"):
    c = rows[name]
    difference = l2_norm(tendency(u, c) - tendency_direct(u, c))
    print(f"  {name:24s} ||nonlocal - local||_0 = {difference:.3e}")

print("\nconservation-law structure (normalized preset):")
c = preset_normalized()
du = tendency(u, c)
print(f"  mean of du/dt                 {abs(mean(du)):.3e}  (a perfect x-derivative)")
residual = du + derivative(flux(u, c), 1)
print(f"  ||du/dt + d/dx flux(u)||_0    {l2_norm(residual):.3e}")

print("\nbreaking the cubic relation (gamma1=1, gamma2=gamma3=0) loses the structure:")
from lasw import ModelCoefficients
broken = ModelCoefficients(mu=1.0, alpha2=1.0, gamma1=1.0)
print(f"  mean of du/dt (direct form)   {abs(mean(tendency_direct(u, broken))):.3e}")
