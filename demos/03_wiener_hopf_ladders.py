"""Ladder structure by polynomial factorization, checked against the slow DP.

For a centered law, z^a (1 - s mgf(z)) factors over the unit circle into the
strict-descent and weak-ascent ladder transforms. At s = 1 this produces the
exact ladder-height laws in one shot, where the DP's partial sums crawl at
rate n^(-1/2); the DP is kept as the independent oracle.
"""

import numpy as np

from reflectwalk import (
    descent_joint_table,
    factorize_at,
    ladder_laws,
    law_from_masses,
    richardson_slope,
    roots_z_pm,
    slopes,
)

law = law_from_masses({k: 0.2 for k in range(-2, 3)})  # symmetric five-point
print("law:", law.as_dict())

print("\n== factorization at s = 1 ==")
ladder = ladder_laws(law)
print("descent ladder law mu^-:", {-w: round(float(m), 9) for w, m in
      enumerate(ladder.mu_minus, start=1)})
print("ascent ladder law mu^+: ", {j: round(float(m), 9) for j, m in
      enumerate(ladder.mu_plus)})
print(f"factorization residual on the unit circle: {ladder.residual:.2e}")
print("note mu^-(-1) is the golden ratio conjugate:", (np.sqrt(5) - 1) / 2)

print("\n== renewal potentials ==")
print("U^-(-k), k=0..6:", np.round(ladder.U_minus[:7], 6))
print("U^+(m),  m=0..6:", np.round(ladder.U_plus[:7], 6))
limit = 1.0 / (-ladder.mean_ladder_minus)
print(f"renewal theorem: U^-(-k) -> 1/E[-ladder step] = {limit:.6f}; "
      f"at depth {ladder.depth}: {ladder.U_minus[-1]:.6f}")

print("\n== DP oracle closes in on the exact ladder law ==")
series = descent_joint_table(law, 8000)
for n in (100, 800, 8000):
    partial = [round(float(s[: n + 1].sum()), 6) for s in series]
    print(f"  partial sums through n={n:5d}: {partial}")
print(f"  exact values:                  {[round(float(m), 6) for m in ladder.mu_minus]}")

print("\n== sqrt(1-s) slopes, closed form vs Richardson ==")
table = slopes(law, ladder)
print(f"validation: {table.method}, worst relative gap {table.max_rel_err:.2e}")
print("descent transform slopes:", np.round(table.slope_T_minus, 6))
fp_fn = lambda s: factorize_at(law, s).phi_minus[0]
print("  e.g. Richardson on the first mass:",
      round(richardson_slope(fp_fn, float(ladder.mu_minus[0])), 6))

print("\n== the real roots z_-(s) < 1 < z_+(s) of mgf(z) = 1/s ==")
for s in (0.9, 0.99, 0.9999):
    z_minus, z_plus = roots_z_pm(law, s)
    rate = (1 - z_minus) / np.sqrt(1 - s)
    print(f"  s={s}: z- = {z_minus:.6f}, z+ = {z_plus:.6f}, "
          f"(1-z-)/sqrt(1-s) = {rate:.4f}")
sigma = np.sqrt(2.0)  # variance of the five-point law is 2
print(f"  limit sqrt(2)/sigma = {np.sqrt(2)/sigma:.4f}")
