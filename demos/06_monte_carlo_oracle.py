"""Reproducible Monte Carlo as the statistical oracle.

Path i draws from the Philox4x32-10 substream keyed by (seed, i), so a config
pins the result bit for bit no matter how work is scheduled. The estimates
then cross-check the exact DP and the closed-form stationary law.
"""

import os

import numpy as np

from reflectwalk import (
    SimConfig,
    law_from_masses,
    n_step_table,
    simulate,
)

law = law_from_masses({-1: 0.2, 0: 0.3, 1: 0.5})
config = SimConfig(law, start=0, horizon=40, paths=100_000, seed=20240612)

print("== bit-reproducibility ==")
first = simulate(config)
os.environ["REFLECTWALK_THREADS"] = "3"
second = simulate(config)
del os.environ["REFLECTWALK_THREADS"]
print("identical terminal histograms under different thread caps:",
      np.array_equal(first.terminal, second.terminal))

print("\n== estimates vs exact DP ==")
final = n_step_table(law, 0, 40)[40]  # P_0[X_40 = y] at index y
print("   y   exact        MC estimate  z-score")
for y in (8, 10, 12, 14, 16):
    est = first.estimate(y)
    exact = final[y]
    z = (est.point - exact) / est.stderr if est.stderr else 0.0
    print(f"  {y:2d}   {exact:.6f}     {est.point:.6f}     {z:+.2f}")

print("\n== reflection statistics ==")
reflected = config.paths - int(first.first_reflection_time[0])
print(f"paths that reflected within the horizon: {reflected} "
      f"({reflected / config.paths:.1%})")
times = first.first_reflection_time
mean_time = float(np.arange(len(times)) @ times) / max(reflected, 1)
print(f"mean first-reflection time among those: {mean_time:.2f} steps")
print("first-reflection landing counts (overshoot bound a = 1):",
      dict(enumerate(first.first_reflection_target.tolist(), start=1)))
