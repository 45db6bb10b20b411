"""The punchline: closed-form constants for the n -> infinity return laws.

Centered increments give P_x[X_n = y] ~ C_y / sqrt(n) with C_y independent of
the start; positive drift gives P_x[X_n = y] ~ C_{x,y} rho^n / n^(3/2). Both
constants are assembled exactly from the ladder machinery and then confronted
with extrapolated exact dynamic programming.
"""

import numpy as np

from reflectwalk import (
    centered_constant,
    drifted_constant,
    law_from_masses,
    n_step_series,
    oracle_constant_centered,
    oracle_constant_drifted,
    predict,
)

law_a = law_from_masses({-1: 1 / 3, 0: 1 / 3, 1: 1 / 3})
law_b = law_from_masses({-1: 0.2, 0: 0.3, 1: 0.5})

print("== centered case: C_y / sqrt(n) ==")
for y in (0, 1, 2):
    asym = centered_constant(law_a, y)
    oracle = oracle_constant_centered(law_a, y, n_max=4000)
    print(f"  y={y}: C = {asym.C:.6f}, DP extrapolation {oracle:.6f}, "
          f"gap {abs(asym.C - oracle)/asym.C:.2%}")

print("\nsqrt(n) P_0[X_n = 0] marching toward C_0:")
column = n_step_series(law_a, 0, [0], 4000)[0]  # P_0[X_n = 0] at index n
asym0 = centered_constant(law_a, 0)
for n in (50, 200, 1000, 4000):
    val = column[n] * np.sqrt(n)
    bar = "#" * int(round(60 * val / asym0.C))
    print(f"  n={n:5d}: {val:.5f} |{bar}")
print(f"  C_0    : {asym0.C:.5f} |" + "#" * 60)

print("\n== drifted case: C_xy rho^n / n^(3/2) ==")
asym = drifted_constant(law_b, 0, 0)
print(f"rho = {asym.rho:.12f} (exact 0.3 + 2 sqrt(0.1))")
print(f"C_00 = {asym.C:.6f}")
for n_max in (400, 800, 1600):
    oracle = oracle_constant_drifted(law_b, 0, 0, asym.rho, n_max=n_max)
    print(f"  DP extrapolation with horizon {n_max:4d}: {oracle:.6f} "
          f"(gap {abs(asym.C - oracle)/asym.C:.2%})")

print("\nexact vs predicted, side by side:")
column_b = n_step_series(law_b, 0, [0], 512)[0]
for n in (16, 64, 256, 512):
    exact = column_b[n]
    pred = predict(asym, n)
    print(f"  n={n:3d}: exact {exact:.6e}  predicted {pred:.6e}  "
          f"ratio {pred/exact:.4f}")

print("\nthe same machinery covers every entry, e.g. starting off the wall:")
asym12 = drifted_constant(law_b, 1, 2)
oracle12 = oracle_constant_drifted(law_b, 1, 2, asym12.rho, n_max=800)
print(f"  C_12 = {asym12.C:.6f}, DP says {oracle12:.6f}")
