"""Exact finite-horizon evolution of the reflected chain X_{n+1} = |X_n + Y|.

Every exact law in the package comes from one DP engine: the step kernel
`_shift_add` and the stepping generator `_evolve`. A walk steps a row of
masses over the states 0, 1, ... by one increment; landings below 0 either
fold onto their absolute value (the reflected chain) or are killed and
reported (the excursion, the first reflection, the ladder epochs). The
builders here and in `fluctuation` only pick the walk and read it: a stored
table keeps its rows, and everything else goes through `_columns`, the one
reader, which turns a walk into its entry columns and its killed masses.
A series in s is held as its coefficients: a read-only float64 array whose
entry n is the coefficient of s^n, n = 0..n_max. A stored table is a tuple
of read-only rows, row n over the states 0, 1, ..., its zero tail trimmed.

The kernel is a fixed-order shift-and-add: it is elementwise, so its rows
are the same bits on every IEEE-754 build. The builders of this module sum
the taps first-last, those of `fluctuation` last-first. So the two modules
round along different paths and the identity checks between them are not
vacuous. `_evolve` checks the start, horizon and size of every walk in
`_check_budget`, the one place that holds the caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooLarge, InvalidInput
from .laws import LatticeLaw

MEMORY_CAP_FLOATS = 50_000_000
DEFAULT_N_MAX_CAP = 10_000  # stored tables
STREAMING_N_MAX_CAP = 50_000  # streamed walks


@dataclass(frozen=True)
class StepRow:
    """One row of the transition kernel q(x, .)."""

    x: int
    entries: dict  # y -> q(x, y), positive entries only


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


def _shift_add(row: np.ndarray, taps: list, order: range) -> np.ndarray:
    """Full linear convolution, out[t] = sum_k taps[k] * row[t - k].

    The taps are summed in `order`: the first writes its products, each later
    nonzero tap adds its own. Fixing the order fixes the bits. A law's outer
    masses are positive, so the first tap of either order is never skipped.
    """
    length = row.shape[0]
    out = np.zeros(length + len(taps) - 1)
    k = order[0]
    np.multiply(row, taps[k], out=out[k : k + length])
    product = np.empty(length)
    for k in order[1:]:
        if taps[k] != 0.0:
            seg = out[k : k + length]
            np.add(seg, np.multiply(row, taps[k], out=product), out=seg)
    return out


def _trim_tail(row: np.ndarray) -> np.ndarray:
    """Drop the trailing exact zeros of a row (keeping one entry).

    The far tail of a DP row underflows to 0.0 long before the row stops
    growing. A zero adds nothing to any later sum, so every walk trims it
    without changing a single bit of what it returns.
    """
    end = row.shape[0]
    while end > 1 and row[end - 1] == 0.0:
        end -= 1
    return row[:end]


def _check_budget(x: int, n_max: int, a: int, b: int, stored: bool):
    """The one input check of every DP walk: x and n_max nonnegative, n_max
    under its cap (DEFAULT_N_MAX_CAP for stored rows, STREAMING_N_MAX_CAP for
    streamed ones) and the float estimate under MEMORY_CAP_FLOATS."""
    if x < 0:
        raise InvalidInput(f"start state must be >= 0, got {x}")
    if n_max < 0:
        raise InvalidInput(f"horizon n_max must be >= 0, got {n_max}")
    n_cap = DEFAULT_N_MAX_CAP if stored else STREAMING_N_MAX_CAP
    if n_max > n_cap:
        raise HorizonTooLarge(f"n_max {n_max} exceeds cap {n_cap}")
    if stored:
        estimate = (x + 1) * (n_max + 1) + b * n_max * (n_max + 1) // 2
    else:  # only a fixed-width slice is retained per step
        estimate = (a + 1) * (n_max + 1) + x + b * n_max
    if estimate > MEMORY_CAP_FLOATS:
        raise HorizonTooLarge(f"table would hold ~{estimate} floats, cap {MEMORY_CAP_FLOATS}")


def _evolve(start, taps: np.ndarray, offset: int, n_max: int, *,
            fold: bool = False, last_first: bool = False, stored: bool = False):
    """The one DP stepping loop: an iterator of (row, killed) for n = 0..n_max.

    `start` is a start state x or a start row. Tap k of `taps` moves mass by
    k - offset, so a step lands below 0 at up to `offset` = a states. With
    `fold` those landings add onto their absolute value and killed is None;
    otherwise killed[w - 1] is the mass landing on -w (zeros at n = 0), a view
    into the step. The taps are summed last-first if `last_first`, else
    first-last. Every row has its zero tail trimmed; `stored` selects the caps
    of a walk whose every row is kept. The budget is checked here, at the
    call, so callers may allocate for n_max before the first step.
    """
    if isinstance(start, np.ndarray):
        row, x = start, start.shape[0] - 1
    else:
        row, x = None, start
    a = offset
    _check_budget(x, n_max, a, len(taps) - 1 - a, stored)
    if row is None:
        row = np.zeros(x + 1)
        row[x] = 1.0
    order = range(len(taps) - 1, -1, -1) if last_first else range(len(taps))
    taps = taps.tolist()

    def steps(row):
        yield row, None if fold else np.zeros(a)
        for _ in range(n_max):
            out = _shift_add(row, taps, order)
            row, killed = out[a:], out[:a][::-1]
            if fold:
                if row.shape[0] <= a:
                    row = np.concatenate((row, np.zeros(a + 1 - row.shape[0])))
                row[1 : a + 1] += killed
                killed = None
            row = _trim_tail(row)
            yield row, killed

    return steps(row)


def _columns(walk, ys, n_max: int):
    """The one reader of a walk: rows 0..n_max, read as series in n.

    Returns ({y: series}, killed). Series y holds entry y of row n at index n
    (0 where that row is too short); killed[w - 1] holds, at index n, the
    mass step n killed on -w, and is None for a fold walk. All are read-only
    float64 arrays. The walk is never stepped past row n_max.
    """
    ys = sorted(set(int(y) for y in ys))
    out = np.zeros((len(ys), n_max + 1))
    killed = None
    for n, (row, lost) in zip(range(n_max + 1), walk):
        for i, y in enumerate(ys):
            if 0 <= y < row.shape[0]:
                out[i, n] = row[y]
        if lost is not None:
            if killed is None:
                killed = np.zeros((lost.shape[0], n_max + 1))
            killed[:, n] = lost
    for array in (out, killed):
        if array is not None:
            array.flags.writeable = False
    return dict(zip(ys, out)), killed


def _read_only(row: np.ndarray) -> np.ndarray:
    row.flags.writeable = False
    return row


def n_step_rows(law: LatticeLaw, x: int, n_max: int):
    """Exact laws of X_0..X_{n_max} started at x, streamed: an iterator of
    read-only rows, row n holding P_x[X_n = y] at index y. The stored caps
    apply, since a caller may keep every row."""
    walk = _evolve(x, law.masses, law.a, n_max, fold=True, stored=True)
    return (_read_only(row) for row, _ in walk)


def n_step_table(law: LatticeLaw, x: int, n_max: int) -> tuple:
    """Exact laws of X_0..X_{n_max} started at x: the rows of `n_step_rows`."""
    return tuple(n_step_rows(law, x, n_max))


def excursion_table(law: LatticeLaw, x: int, n_max: int) -> tuple:
    """Laws of the walk killed when it would step below 0 (pre-reflection
    piece): row n holds P_x[X_n = y, no reflection yet] at index y."""
    walk = _evolve(x, law.masses, law.a, n_max, stored=True)
    return tuple(_read_only(row) for row, _ in walk)


def reflection_time_table(law: LatticeLaw, x: int, n_max: int) -> np.ndarray:
    """Joint law of (first reflection time, landing point w in [1, a]): a
    read-only (a, n_max + 1) array whose row w-1 holds, at index n, the
    probability that the first reflection happens at n and lands on w."""
    return _columns(_evolve(x, law.masses, law.a, n_max), (), n_max)[1]


def n_step_series(law: LatticeLaw, x: int, ys, n_max: int) -> dict[int, np.ndarray]:
    """Columns of the reflected n-step table as series, streamed row by row:
    series y holds P_x[X_n = y] at index n = 0..n_max.

    Holds only the current row, so horizons beyond the full-table memory cap
    are fine (the asymptotics oracles need them for laws with rho near 1).
    """
    return _columns(_evolve(x, law.masses, law.a, n_max, fold=True), ys, n_max)[0]


def excursion_series(law: LatticeLaw, x: int, ys, n_max: int) -> dict[int, np.ndarray]:
    """Columns of the excursion table as series, streamed without row storage."""
    return _columns(_evolve(x, law.masses, law.a, n_max), ys, n_max)[0]


def verify_first_reflection_identity(law: LatticeLaw, xs, ys, n_max: int) -> float:
    """Worst residual, over every start x in xs and target y in ys, of the
    strong-Markov split of P_x[X_n = y] over the first reflection.

    Checks, for every n <= n_max,
        P_x[X_n = y] = P_x[X_n = y, no reflection yet]
                       + sum_{k<=n} sum_w P_x[first reflection at k lands on w] P_w[X_{n-k} = y].

    Each start is walked once killed and once folded, and each landing point
    w once folded; every y is read from those walks. So the grid result is
    the max of the one-pair results, bit for bit.
    """
    killed = {x: _columns(_evolve(x, law.masses, law.a, n_max), ys, n_max) for x in sorted(set(xs))}
    landings = {w for w in range(1, law.a + 1) if any(np.any(r[w - 1]) for _, r in killed.values())}
    full = {x: n_step_series(law, x, ys, n_max) for x in sorted(set(killed) | landings)}
    worst = 0.0
    for x, (exc, refl) in killed.items():
        for y, column in exc.items():
            rhs = column.copy()
            for w in range(1, law.a + 1):
                if np.any(refl[w - 1]):
                    rhs += np.convolve(refl[w - 1], full[w][y])[: n_max + 1]
            worst = max(worst, float(np.max(np.abs(full[x][y] - rhs))))
    return worst


def verify_ladder_factorizations(law: LatticeLaw, xs, ys, n_max: int) -> tuple[float, float]:
    """Worst coefficient-level residuals, over every start x in xs and target
    y in ys, of the ladder-epoch recursions.

    Excursion side:  E(s|x,y) = U+(s|y-x) + sum_{w<x} T(s|w-x) E(s|w,y)
    Reflection side: N(s|x,y) = T(s|-x-y) + sum_{w<x} T(s|w-x) N(s|w,y)  (y >= 1)

    E and N come from this module's killed walks, one from each w in
    0..max(xs); U+ and T are the columns and the killed masses of one walk of
    the independent half-line DP in `fluctuation`. Every y is read from those
    walks, so the grid results are the max of the one-pair results, bit for bit.
    """
    from .fluctuation import _descent_walk

    xs, ys = sorted(set(int(x) for x in xs)), sorted(set(int(y) for y in ys))
    if xs and xs[0] < 0:
        raise InvalidInput(f"start state must be >= 0, got {xs[0]}")
    ups = {y - x for x in xs for y in ys if y >= x}
    u_plus, descent = _columns(_descent_walk(law, n_max), ups, n_max)
    zero = np.zeros(n_max + 1)

    def t_series(v: int) -> np.ndarray:
        # coefficients of T(s| v) for v <= -1; row w-1 of descent is T(s|-w)
        return descent[-v - 1] if -law.a <= v <= -1 else zero

    starts = range(max(xs, default=-1) + 1)
    walks = [_columns(_evolve(w, law.masses, law.a, n_max), ys, n_max) for w in starts]
    worst_e = worst_r = 0.0
    for x in xs:
        for y in ys:
            rhs_e = u_plus[y - x].copy() if y >= x else zero.copy()
            for w in range(x):
                rhs_e += np.convolve(t_series(w - x), walks[w][0][y])[: n_max + 1]
            worst_e = max(worst_e, float(np.max(np.abs(walks[x][0][y] - rhs_e))))
            if y < 1:
                continue
            # landings lie in [1, a]: a column beyond a is zero
            refl_cols = [refl[y - 1] if y <= law.a else zero for _, refl in walks[: x + 1]]
            rhs_r = t_series(-x - y).copy()
            for w in range(x):
                rhs_r += np.convolve(t_series(w - x), refl_cols[w])[: n_max + 1]
            worst_r = max(worst_r, float(np.max(np.abs(refl_cols[x] - rhs_r))))
    return worst_e, worst_r
