"""Tour of the spectral toolbox: transforms, multipliers, dealiasing, mollifiers.

Run:  python3 demos/01_spectral_calculus.py
"""

import math

import numpy as np

from lasw import (
    Grid,
    dealiased_product,
    derivative,
    from_physical,
    l2_norm,
    lambda_pow,
    mollify,
    random_trig_polynomial,
    sobolev_norm,
    sup_norm_dx,
    to_physical,
)

TWO_PI = 2.0 * math.pi

# --- fields live on the unit circle with period-1 collocation points -------
grid = Grid(64)
u = from_physical(np.sin(TWO_PI * grid.x), grid)
print("field: sin(2 pi x) on", grid.n_points, "points")
print(f"  L2 norm          {l2_norm(u):.12f}   (exact 1/sqrt(2) = {1/math.sqrt(2):.12f})")
print(f"  H^2 norm         {sobolev_norm(u, 2.0):.12f}")
print(f"  sup |u_x|        {sup_norm_dx(u):.12f}   (exact 2 pi = {TWO_PI:.12f})")

# --- derivatives and the smoothing scale are diagonal in mode space --------
du = derivative(u, 1)
print(f"  max |u_x - 2 pi cos|   {np.max(np.abs(to_physical(du) - TWO_PI*np.cos(TWO_PI*grid.x))):.2e}")
smooth = lambda_pow(u, -2.0, 1.0)
print(f"  (1 - d^2/dx^2)^-1 u scales mode 1 by {1/(1+4*math.pi**2):.6f}: "
      f"err {np.max(np.abs(to_physical(smooth) - np.sin(TWO_PI*grid.x)/(1+4*math.pi**2))):.2e}")

# --- dealiasing: the padded product has no spurious modes ------------------
coarse = Grid(8)
f = from_physical(np.cos(3 * TWO_PI * coarse.x), coarse)
clean = dealiased_product(f, f)
naive = from_physical(np.cos(3 * TWO_PI * coarse.x) ** 2, coarse)
print("\ncos(6 pi x)^2 on 8 points: the true mode 6 is unrepresentable")
print(f"  naive pointwise product puts {abs(naive.mode(-2)):.3f} onto mode -2 (alias)")
print(f"  dealiased product leaves    {abs(clean.mode(-2)):.1e} there and keeps the mean {clean.mode(0).real:.3f}")

# --- mollification converges in L2 and never pumps energy ------------------
rough = random_trig_polynomial(Grid(128), seed=8, max_mode=50, decay_exponent=1.2)
print("\nmollifying a rough field (coefficient decay ~ n^-1.2) with the bump kernel:")
for n in (2, 4, 8, 16, 32):
    smoothed = mollify(rough, n)
    print(f"  n = {n:3d}: ||rho_n * u - u||_0 = {l2_norm(smoothed - rough):.6f}"
          f"   ||rho_n * u||_0 / ||u||_0 = {l2_norm(smoothed)/l2_norm(rough):.6f}")
