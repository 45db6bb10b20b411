"""Exact finite-horizon evolution of the reflected chain X_{n+1} = |X_n + Y|.

Three tables share one stepping core: the full reflected law, the excursion
(walk killed when it would go below 0), and the first-reflection law (time
and landing point of the kill). The stepping here is a fixed-order
shift-and-add that accumulates the kernel taps first-last. The DP in
`fluctuation` is a fixed-order shift-and-add too, but with the opposite tap
order, so the two modules round along different paths and the identity
checks between them are not vacuous. Both are elementwise, so their rows are
the same bits on every IEEE-754 build.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import HorizonTooLarge, InvalidInput
from .laws import LatticeLaw
from .series import TruncatedSeries

MEMORY_CAP_FLOATS = 50_000_000
DEFAULT_N_MAX_CAP = 10_000


class TableKind(Enum):
    FULL = "full"
    EXCURSION = "excursion"
    REFLECTION_TIME = "reflection_time"


@dataclass(frozen=True)
class StepRow:
    """One row of the transition kernel q(x, .)."""

    x: int
    entries: dict  # y -> q(x, y), positive entries only

    def total(self) -> float:
        return float(np.sum(np.fromiter(self.entries.values(), dtype=float)))


def step_row(law: LatticeLaw, x: int) -> StepRow:
    """Transition row of the reflected chain.

    q(x, y) = mu(y - x) + mu(-y - x) for y >= 1 (direct landing or landing on
    -y and reflecting), q(x, 0) = mu(-x).
    """
    if x < 0:
        raise ValueError("states are nonnegative")
    entries = {}
    q0 = law.mass(-x)
    if q0 > 0:
        entries[0] = q0
    for y in range(1, max(x + law.hi, law.a) + 1):
        q = law.mass(y - x) + law.mass(-y - x)
        if q > 0:
            entries[y] = q
    return StepRow(x, entries)


def _spread(row: np.ndarray, law: LatticeLaw) -> np.ndarray:
    """Free-walk landings of one step: output index t holds the mass at t - a.

    Taps are added first-last (mu(lo) first); `fluctuation._shift_add` adds
    them in the opposite order.
    """
    length = row.shape[0]
    full = np.zeros(length + law.a + law.b)
    for idx, mk in enumerate(law.masses):
        if mk != 0.0:
            full[idx : idx + length] += mk * row
    return full


def _trim_tail(row: np.ndarray) -> np.ndarray:
    """Drop the trailing exact zeros of a row (keeping one entry).

    The far tail of a DP row underflows to 0.0 long before the row stops
    growing. A zero adds nothing to any later sum, so the streaming builders
    trim it without changing a single bit of what they return.
    """
    end = row.shape[0]
    while end > 1 and row[end - 1] == 0.0:
        end -= 1
    return row[:end]


def _fold_step(row: np.ndarray, law: LatticeLaw) -> np.ndarray:
    """One reflected step: negative landings fold onto their absolute value."""
    a = law.a
    full = _spread(row, law)
    width = max(full.shape[0] - a, a + 1)
    out = np.zeros(width)
    out[: full.shape[0] - a] = full[a:]
    out[1 : a + 1] += full[:a][::-1]
    return out


def _kill_step(row: np.ndarray, law: LatticeLaw) -> tuple[np.ndarray, np.ndarray]:
    """One killed step: returns (surviving row, kill masses at w = 1..a)."""
    a = law.a
    full = _spread(row, law)
    return full[a:], full[:a][::-1]


@dataclass(frozen=True, eq=False)
class EvolutionTable:
    """Rows n = 0..n_max of exact state laws for one start point."""

    kind: TableKind
    law: LatticeLaw
    start: int
    rows: tuple  # FULL/EXCURSION: array over y = 0..width(n); REFLECTION_TIME: array over w-1

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def prob(self, n: int, y: int) -> float:
        row = self.rows[n]
        if self.kind is TableKind.REFLECTION_TIME:
            idx = y - 1
            if 0 <= idx < row.shape[0]:
                return float(row[idx])
            return 0.0
        if 0 <= y < row.shape[0]:
            return float(row[y])
        return 0.0

    def row_total(self, n: int) -> float:
        return float(np.sum(self.rows[n]))

    def column(self, y: int) -> TruncatedSeries:
        """Series in s whose coefficient n is prob(n, y)."""
        return TruncatedSeries(np.array([self.prob(n, y) for n in range(len(self.rows))]))


STREAMING_N_MAX_CAP = 50_000


def _check_budget(
    law: LatticeLaw, x: int, n_max: int, memory_cap: int, full_rows: bool = True
):
    """The one input check of every DP builder: x and n_max nonnegative, n_max
    under its cap (DEFAULT_N_MAX_CAP for stored tables, STREAMING_N_MAX_CAP for
    streamed rows) and the float estimate under memory_cap."""
    if x < 0:
        raise InvalidInput(f"start state must be >= 0, got {x}")
    if n_max < 0:
        raise InvalidInput(f"horizon n_max must be >= 0, got {n_max}")
    n_cap = DEFAULT_N_MAX_CAP if full_rows else STREAMING_N_MAX_CAP
    if n_max > n_cap:
        raise HorizonTooLarge(f"n_max {n_max} exceeds cap {n_cap}")
    if full_rows:
        estimate = (x + 1) * (n_max + 1) + law.b * n_max * (n_max + 1) // 2
    else:  # only a fixed-width slice is retained per step
        estimate = (law.a + 1) * (n_max + 1) + x + law.b * n_max
    if estimate > memory_cap:
        raise HorizonTooLarge(f"table would hold ~{estimate} floats, cap {memory_cap}")


def _freeze(rows: list[np.ndarray]) -> tuple:
    for r in rows:
        r.flags.writeable = False
    return tuple(rows)


def n_step_table(
    law: LatticeLaw, x: int, n_max: int, memory_cap: int = MEMORY_CAP_FLOATS
) -> EvolutionTable:
    """Exact laws of X_0..X_{n_max} started at x."""
    _check_budget(law, x, n_max, memory_cap)
    row = np.zeros(x + 1)
    row[x] = 1.0
    rows = [row]
    for _ in range(n_max):
        row = _fold_step(row, law)
        rows.append(row)
    return EvolutionTable(TableKind.FULL, law, x, _freeze(rows))


def excursion_table(
    law: LatticeLaw, x: int, n_max: int, memory_cap: int = MEMORY_CAP_FLOATS
) -> EvolutionTable:
    """Laws of the walk killed when it would step below 0 (pre-reflection piece)."""
    _check_budget(law, x, n_max, memory_cap)
    row = np.zeros(x + 1)
    row[x] = 1.0
    rows = [row]
    for _ in range(n_max):
        row, _ = _kill_step(row, law)
        rows.append(row)
    return EvolutionTable(TableKind.EXCURSION, law, x, _freeze(rows))


def reflection_time_table(
    law: LatticeLaw, x: int, n_max: int, memory_cap: int = MEMORY_CAP_FLOATS
) -> EvolutionTable:
    """Joint law of (first reflection time, landing point w in [1, a])."""
    _check_budget(law, x, n_max, memory_cap, full_rows=False)
    row = np.zeros(x + 1)
    row[x] = 1.0
    rows = [np.zeros(law.a)]
    for _ in range(n_max):
        row, killed = _kill_step(row, law)
        rows.append(killed)
    return EvolutionTable(TableKind.REFLECTION_TIME, law, x, _freeze(rows))


def n_step_series(
    law: LatticeLaw, x: int, ys, n_max: int, memory_cap: int = MEMORY_CAP_FLOATS
) -> dict[int, TruncatedSeries]:
    """Columns of the reflected n-step table as series, streamed row by row.

    Holds only the current row, so horizons beyond the full-table memory cap
    are fine (the asymptotics oracles need them for laws with rho near 1).
    """
    _check_budget(law, x, n_max, memory_cap, full_rows=False)
    ys = sorted(set(int(y) for y in ys))
    out = np.zeros((len(ys), n_max + 1))
    row = np.zeros(x + 1)
    row[x] = 1.0
    for i, y in enumerate(ys):
        if y == x:
            out[i, 0] = 1.0
    for n in range(1, n_max + 1):
        row = _trim_tail(_fold_step(row, law))
        for i, y in enumerate(ys):
            if 0 <= y < row.shape[0]:
                out[i, n] = row[y]
    return {y: TruncatedSeries(out[i]) for i, y in enumerate(ys)}


def excursion_series(
    law: LatticeLaw, x: int, ys, n_max: int
) -> dict[int, TruncatedSeries]:
    """Columns of the excursion table as series, streamed without row storage."""
    _check_budget(law, x, n_max, MEMORY_CAP_FLOATS, full_rows=False)
    ys = sorted(set(int(y) for y in ys))
    out = np.zeros((len(ys), n_max + 1))
    row = np.zeros(x + 1)
    row[x] = 1.0
    for i, y in enumerate(ys):
        if y == x:
            out[i, 0] = 1.0
    for n in range(1, n_max + 1):
        row = _trim_tail(_kill_step(row, law)[0])
        for i, y in enumerate(ys):
            if 0 <= y < row.shape[0]:
                out[i, n] = row[y]
    return {y: TruncatedSeries(out[i]) for i, y in enumerate(ys)}


def verify_first_reflection_identity(
    law: LatticeLaw, x: int, y: int, n_max: int
) -> float:
    """Residual of the strong-Markov split of P_x[X_n = y] over the first reflection.

    Checks, for every n <= n_max,
        P_x[X_n = y] = P_x[X_n = y, no reflection yet]
                       + sum_{k<=n} sum_w P_x[first reflection at k lands on w] P_w[X_{n-k} = y].
    """
    full_x = n_step_table(law, x, n_max).column(y).coeffs
    exc_x = excursion_table(law, x, n_max).column(y).coeffs
    refl = reflection_time_table(law, x, n_max)
    rhs = exc_x.copy()
    for w in range(1, law.a + 1):
        refl_col = refl.column(w).coeffs
        if not np.any(refl_col):
            continue
        full_w = n_step_table(law, w, n_max).column(y).coeffs
        rhs += np.convolve(refl_col, full_w)[: n_max + 1]
    return float(np.max(np.abs(full_x - rhs)))


def verify_ladder_factorizations(
    law: LatticeLaw, x: int, y: int, n_max: int
) -> tuple[float, float]:
    """Coefficient-level residuals of the ladder-epoch recursions.

    Excursion side:  E(s|x,y) = U+(s|y-x) + sum_{w<x} T(s|w-x) E(s|w,y)
    Reflection side: N(s|x,y) = T(s|-x-y) + sum_{w<x} T(s|w-x) N(s|w,y)  (y >= 1)

    E and N come from this module's chain DP; U+ and T come from the
    independent half-line DP in `fluctuation`.
    """
    from .fluctuation import descent_joint_table, stay_series

    descent = descent_joint_table(law, n_max)  # index w-1: series of T(s|-w)

    def t_series(v: int) -> np.ndarray:
        # coefficients of T(s| v) for v <= -1
        if -law.a <= v <= -1:
            return descent[-v - 1].coeffs
        return np.zeros(n_max + 1)

    exc_cols = [excursion_table(law, w, n_max).column(y).coeffs for w in range(x + 1)]
    if y - x >= 0:
        u_plus = stay_series(law, [y - x], n_max)[y - x].coeffs
    else:
        u_plus = np.zeros(n_max + 1)
    rhs_e = u_plus.copy()
    for w in range(x):
        rhs_e += np.convolve(t_series(w - x), exc_cols[w])[: n_max + 1]
    residual_e = float(np.max(np.abs(exc_cols[x] - rhs_e)))

    if y < 1:
        return residual_e, 0.0

    refl_cols = [
        reflection_time_table(law, w, n_max).column(y).coeffs for w in range(x + 1)
    ]
    rhs_r = t_series(-x - y).copy()
    for w in range(x):
        rhs_r += np.convolve(t_series(w - x), refl_cols[w])[: n_max + 1]
    residual_r = float(np.max(np.abs(refl_cols[x] - rhs_r)))
    return residual_e, residual_r
