"""The process of reflections: its kernel, stationary law, and spectral gap.

Watching the chain only at its reflection times gives a Markov chain on the
overshoot window [1, a]. Its kernel has a closed form in the ladder
quantities; its stationary law drives the centered asymptotics; the Doeblin
minorization gives the spectral gap that makes everything work.
"""

import numpy as np

from reflectwalk import (
    SimConfig,
    build_reflection_core,
    dominant_eigenvalue,
    estimate_nu,
    ladder_laws,
    law_from_masses,
    r_row_at_s,
    slopes,
)
from reflectwalk.reflection import NU_CONVENTION, doeblin_gap

law = law_from_masses({k: 0.2 for k in range(-2, 3)})
ladder = ladder_laws(law)
table = slopes(law, ladder)
core = build_reflection_core(ladder, table)  # start states x = 0..8

print("== kernel rows R(x, .) on the overshoot window [1, 2] ==")
for x in (0, 1, 2, 5, 8):
    print(f"  x={x}: {np.round(core.rows[x], 6)}  (sum {core.rows[x].sum():.12f})")

print("\n== stationary law of the reflection targets ==")
print(f"nu = {np.round(core.nu, 9)}  (convention: {NU_CONVENTION})")
residual = float(np.sum(np.abs(core.nu @ core.core - core.nu)))
print(f"stationarity residual |nu R - nu|_1 = {residual:.2e}")

est = estimate_nu(SimConfig(law, 0, 20_000, 200, 7), burnin=100)
for w in (1, 2):
    print(f"  Monte Carlo occupation of {w}: {est[w].point:.4f} "
          f"+- {est[w].stderr:.4f} (closed form {core.nu[w-1]:.4f})")

print("\n== Doeblin minorization ==")
print(f"kappa = inf_k U^-(-k) = {core.kappa:.9f}")
print(f"worst violation of R(x, y) >= kappa mu^-(-y) on x <= 8: "
      f"{doeblin_gap(ladder, core.rows):.2e} (>= 0 up to rounding)")

print("\n== the sqrt(1-s) slope of the kernel and the eigenvalue expansion ==")
print("slope rows (all entries <= 0):")
for x in (1, 2):
    print(f"  x={x}: {np.round(core.tilde_rows[x], 6)}")
nu_rt = core.nu_weighted_tilde_mass()
print(f"nu-weighted total slope nu(Rtilde h) = {nu_rt:.6f} (< 0)")
for eps in (1e-3, 1e-4, 1e-5):
    lam = dominant_eigenvalue(
        np.array([r_row_at_s(law, 1.0 - eps, x) for x in (1, 2)])
    )
    print(f"  s = 1 - {eps:.0e}: (1 - lambda_s)/sqrt(1-s) = "
          f"{(1 - lam)/np.sqrt(eps):.5f}  ->  {-nu_rt:.5f}")
