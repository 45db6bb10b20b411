"""Exact evolution of the reflected chain and its first-reflection bookkeeping.

The chain X_{n+1} = |X_n + Y_{n+1}| splits at its first reflection time into
an excursion piece (the walk before ever crossing 0) and a relaunch from the
reflection landing point. Both pieces are exact dynamic programs here, and
the strong-Markov decomposition ties them back to the full law.
"""

from reflectwalk import (
    excursion_table,
    law_from_masses,
    n_step_table,
    reflection_time_table,
    step_row,
    verify_first_reflection_identity,
)

law = law_from_masses({-1: 0.2, 0: 0.3, 1: 0.5})

print("== one-step kernel rows ==")
for x in (0, 1, 3):
    row = step_row(law, x)
    print(f"  q({x}, .) =", {y: round(p, 4) for y, p in row.entries.items()})

print("\n== exact n-step laws from x = 2 ==")
rows = n_step_table(law, 2, 12)  # row n holds P_2[X_n = y] at index y
for n in (0, 1, 4, 12):
    row = {y: round(float(p), 4) for y, p in enumerate(rows[n][:8]) if p > 5e-4}
    print(f"  n={n:2d}: {row}  (row sum {rows[n].sum():.12f})")

print("\n== excursion vs reflection bookkeeping ==")
exc = excursion_table(law, 2, 12)
refl = reflection_time_table(law, 2, 12)  # [w-1, n]: first reflection at n lands on w
for n in (1, 2, 4, 8, 12):
    cum = sum(refl[:, : n + 1].sum(axis=0).tolist())
    stay = exc[n].sum()
    print(f"  n={n:2d}: P[no reflection yet] = {stay:.6f}, "
          f"P[reflected by n] = {cum:.6f}, total = {stay + cum:.12f}")

print("\n== strong-Markov split of P_x[X_n = y] ==")
for x, y in ((0, 1), (2, 0), (3, 2)):
    res = verify_first_reflection_identity(law, [x], [y], 60)
    print(f"  x={x} y={y}: max residual over n <= 60 is {res:.2e}")
