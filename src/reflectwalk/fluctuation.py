"""Exact dynamic-programming oracles for ladder epochs of the free walk.

These tables are the ground truth that the closed-form machinery is checked
against. They converge slowly (the centered first-passage tail decays like
n^(-1/2)), so they are oracles, not the production path for ladder laws.

Each step is a fixed-order shift-and-add (`_shift_add`) that accumulates the
kernel taps last-first, the opposite tap order from `chain._spread`. So the
rows are the same bits on every IEEE-754 build (no library routine picks the
summation order), and the two DP modules still round along different paths,
which keeps the identity checks between them from being vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import _check_budget, _trim_tail
from .errors import HorizonTooLarge, InvalidInput
from .laws import LatticeLaw
from .series import TruncatedSeries

MEMORY_CAP_FLOATS = 50_000_000


def _shift_add(row: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full linear convolution, out[t] = sum_k kernel[k] * row[t - k].

    The taps are accumulated last-first: out[t] starts as the product with
    kernel[K-1], then adds the products with kernel[K-2], ..., kernel[0] in
    that order (zero taps are skipped). Fixing the order fixes the bits.
    """
    taps = kernel.tolist()
    length = row.shape[0]
    last = len(taps) - 1
    full = np.empty(length + last)
    np.multiply(row, taps[last], out=full[last:])
    full[:last] = 0.0
    product = np.empty(length)
    for k in range(last - 1, -1, -1):
        if taps[k] != 0.0:
            seg = full[k : k + length]
            np.add(seg, np.multiply(row, taps[k], out=product), out=seg)
    return full


def _halfline_step(row: np.ndarray, law: LatticeLaw) -> tuple[np.ndarray, np.ndarray]:
    """One step of the walk killed below 0.

    Returns (next row over y >= 0, dropped masses indexed by w - 1 for the
    mass landing on -w, w = 1..a).
    """
    full = _shift_add(row, law.masses)
    a = law.a
    dropped = full[:a][::-1]  # index w-1 <- landing point -w
    return full[a:], dropped


@dataclass(frozen=True, eq=False)
class HalfLineTable:
    """Rows n = 0..n_max of P[tau_strict_descent > n, S_n = y], y in [0, b*n]."""

    law: LatticeLaw
    n_max: int
    rows: tuple  # row n is an ndarray of length b*n + 1
    descent_mass: np.ndarray  # [n, w-1] = P[tau = n, S_n = -w]

    def prob(self, n: int, y: int) -> float:
        row = self.rows[n]
        if 0 <= y < row.shape[0]:
            return float(row[y])
        return 0.0

    def row_total(self, n: int) -> float:
        return float(np.sum(self.rows[n]))


def _check_table_budget(law: LatticeLaw, n_max: int, cap: int):
    estimate = law.b * n_max * (n_max + 1) // 2 + n_max + 1
    if estimate > cap:
        raise HorizonTooLarge(
            f"table would hold ~{estimate} floats, cap is {cap}; "
            "use the streaming series builders instead"
        )


def stay_nonneg_table(
    law: LatticeLaw, n_max: int, memory_cap: int = MEMORY_CAP_FLOATS
) -> HalfLineTable:
    """Joint law of staying nonnegative: row n maps y to P[tau > n, S_n = y]."""
    if n_max < 0:
        raise InvalidInput(f"horizon n_max must be >= 0, got {n_max}")
    _check_table_budget(law, n_max, memory_cap)
    rows = [np.array([1.0])]
    descent = np.zeros((n_max + 1, law.a))
    row = rows[0]
    for n in range(1, n_max + 1):
        row, dropped = _halfline_step(row, law)
        rows.append(row)
        descent[n] = dropped
    for r in rows:
        r.flags.writeable = False
    descent.flags.writeable = False
    return HalfLineTable(law, n_max, tuple(rows), descent)


def descent_joint_table(law: LatticeLaw, n_max: int) -> list[TruncatedSeries]:
    """Series for (tau_strict_descent, landing point): entry w-1 of the list is
    the series of P[tau = n, S_n = -w], w = 1..a. Streams the DP, so large
    horizons are fine."""
    if n_max < 1:
        raise InvalidInput(f"horizon n_max must be >= 1, got {n_max}")
    _check_budget(law, 0, n_max, MEMORY_CAP_FLOATS, full_rows=False)
    coeffs = np.zeros((law.a, n_max + 1))
    row = np.array([1.0])
    for n in range(1, n_max + 1):
        row, dropped = _halfline_step(row, law)
        row = _trim_tail(row)
        coeffs[:, n] = dropped
    return [TruncatedSeries(coeffs[w - 1]) for w in range(1, law.a + 1)]


def stay_series(law: LatticeLaw, ys, n_max: int) -> dict[int, TruncatedSeries]:
    """Columns of the stay-nonnegative table as series, streamed (row storage free).

    Coefficient n of series y is P[tau_strict_descent > n, S_n = y].
    """
    _check_budget(law, 0, n_max, MEMORY_CAP_FLOATS, full_rows=False)
    ys = sorted(set(int(y) for y in ys))
    out = np.zeros((len(ys), n_max + 1))
    row = np.array([1.0])
    for i, y in enumerate(ys):
        if y == 0:
            out[i, 0] = 1.0
    for n in range(1, n_max + 1):
        row = _trim_tail(_halfline_step(row, law)[0])
        for i, y in enumerate(ys):
            if 0 <= y < row.shape[0]:
                out[i, n] = row[y]
    return {y: TruncatedSeries(out[i]) for i, y in enumerate(ys)}


def _negative_step(h: np.ndarray, law: LatticeLaw) -> tuple[np.ndarray, np.ndarray]:
    """One step of the walk killed at re-entry into [0, inf).

    h[i] carries the mass at y = -1 - i. Returns (next h, exit masses
    indexed by landing point j = 0..b-1).
    """
    b = law.b
    full = _shift_add(h, law.masses[::-1])
    exits = full[b - 1 :: -1][:b]  # full[b-1-j] lands at j
    return full[b:], exits


def ascent_joint_table(law: LatticeLaw, n_max: int) -> list[TruncatedSeries]:
    """Series for (tau_weak_ascent, landing point): entry j of the list is the
    series of P[tau+ = n, S_n = j], j = 0..b."""
    if n_max < 1:
        raise InvalidInput(f"horizon n_max must be >= 1, got {n_max}")
    _check_budget(law, 0, n_max, MEMORY_CAP_FLOATS, full_rows=False)
    coeffs = np.zeros((law.b + 1, n_max + 1))
    # first step leaves the origin: landing >= 0 means tau+ = 1
    for j in range(0, law.b + 1):
        coeffs[j, 1] = law.mass(j)
    h = np.array([law.mass(-1 - i) for i in range(law.a)])
    for n in range(2, n_max + 1):
        h, exits = _negative_step(h, law)
        h = _trim_tail(h)
        coeffs[: law.b, n] = exits
    return [TruncatedSeries(coeffs[j]) for j in range(law.b + 1)]
