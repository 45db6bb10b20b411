"""Exact finite-horizon evolution of the reflected chain X_{n+1} = |X_n + Y|.

Every exact law in the package comes from one DP engine, the stepping
generator `_evolve`. A walk steps a row of masses over the states 0, 1, ...
by one increment; landings below 0 either fold onto their absolute value
(the reflected chain) or are killed and reported (the excursion, the first
reflection, the ladder epochs). The builders here and in `fluctuation` only
pick the walk and read it: a stored table keeps its rows, and everything
else goes through `_columns`, the one reader, which makes its walk and turns
it into entry columns and killed masses.
A series in s is held as its coefficients: a read-only float64 array whose
entry n is the coefficient of s^n, n = 0..n_max. A stored table is a tuple
of read-only rows, row n over the states 0, 1, ..., its sub-TINY tail cut.

A walk steps inside two zero-padded buffers, allocated once and grown
geometrically: each step writes the next row into the other buffer, so a
row the walk yields lives until its next step, and a stored table keeps a
copy. The kernel is a fixed-order shift-and-add: it is elementwise, so its
rows are the same bits on every IEEE-754 build. The builders of this module
sum the taps first-last, those of `fluctuation` last-first. So the two
modules round along different paths and the identity checks between them
are not vacuous. `_columns` steps only the dependency cone of what it reads:
mass moves down at most a states a step, so an entry of row n past R +
a (n_max - n), R the deepest entry read, cannot reach one by n_max. The cone
differs from the uncut walk only through the sub-TINY trim at its edge,
which moves the same class of entries as the trim of every row: none of at
least 1e-280, none by more than 1e-300. `_evolve` checks the start, horizon
and size of every walk in `_check_budget`, the one place that holds the caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooLarge, InvalidInput
from .laws import LatticeLaw

MEMORY_CAP_FLOATS = 50_000_000
DEFAULT_N_MAX_CAP = 10_000  # stored tables
STREAMING_N_MAX_CAP = 50_000  # streamed walks
TINY = np.finfo(float).tiny  # smallest normal float, 2.2e-308: no row ends below it


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


def _evolve(start, taps: np.ndarray, offset: int, n_max: int, *, fold: bool = False,
            last_first: bool = False, stored: bool = False, reach: int | None = None):
    """The one DP stepping loop: an iterator of (row, killed) for n = 0..n_max.

    `start` is a start state x or a start row. Tap k of `taps` moves mass by
    k - offset, so a step lands below 0 at up to `offset` = a states. With
    `fold` those landings add onto their absolute value and killed is None;
    otherwise killed[w - 1] is the mass landing on -w (zeros at n = 0). The
    taps are summed last-first if `last_first`, else first-last. Every row has
    its sub-TINY tail trimmed; with `reach`, row n is first cut after entry
    reach + a (n_max - n), since no entry past it can reach an entry <= reach
    by step n_max. Row and killed are views of the walk's buffers, live until
    the next step. `stored` selects the caps of a walk whose every row is
    kept. The budget is checked here, at the call, so callers may allocate
    for n_max before the first step.
    """
    if isinstance(start, np.ndarray):
        row, x = start, start.shape[0] - 1
    else:
        row, x = None, start
    a, pad = offset, len(taps) - 1  # state j of a row sits at buffer index pad + j
    b = pad - a
    _check_budget(x, n_max, a, b, stored)
    order = range(pad, -1, -1) if last_first else range(pad + 1)
    taps = taps.tolist()
    terms = [(pad - k, taps[k]) for k in order if taps[k] != 0.0]  # (read offset, tap)
    mul, add = np.multiply, np.add

    def buffer(size: int):
        # a zero buffer, its a landing slots read as killed, and its fold targets
        buf = np.zeros(size)
        return buf, buf[pad - a : pad][::-1], buf[pad + 1 : pad + a + 1]

    def steps():
        length, prev = x + 1, 0  # the row lengths that the two buffers hold
        (cur, landed, mirror), other = buffer(4 * (pad + length)), buffer(4 * (pad + length))
        product = np.empty(cur.size)
        if row is None:
            cur[pad + x] = 1.0
        else:
            cur[pad : pad + length] = row
        cover, views = 0, {}
        for n in range(n_max + 1):
            if n:
                landed.fill(0.0)  # read by now
                width = max(length + b, a + 1) if fold else length + b
                if reach is not None:
                    width = min(width, reach + a * (n_max - n) + 1)
                # the step computes `cover` states, up to 128 spare, through views sliced only
                # when `cover` moves: spare entries cost less than slicing every step
                if not width <= cover < width + 128:
                    cover, views = width + 64, {}
                    if pad + a + cover > cur.size:  # grow both buffers geometrically
                        (grown, landed, mirror), other = buffer(2 * (pad + a + cover)), buffer(2 * (pad + a + cover))
                        grown[: pad + length] = cur[: pad + length]
                        cur, prev, product = grown, 0, np.empty(grown.size)
                nxt, next_landed, next_mirror = other
                if n % 2 not in views:  # the step computes entries -a .. cover - 1
                    span = a + cover
                    views[n % 2] = nxt[pad - a : pad + cover], product[:span], [(cur[s : s + span], t) for s, t in terms]
                out, scratch, ((head, t), *rest) = views[n % 2]
                mul(head, t, out)
                for src, t in rest:
                    add(out, mul(src, t, scratch), out)
                if fold and width > a:
                    add(next_mirror, next_landed, next_mirror)
                elif fold:  # the cone cuts the fold targets too
                    out[a + 1 : a + width] += out[a + 1 - width : a][::-1]
                end = width
                while end > 1 and out[a + end - 1] < TINY:
                    end -= 1
                nxt[pad + end : pad + max(cover, prev)] = 0.0  # the cut tail, and what row n - 1 left
                other, (cur, landed, mirror) = (cur, landed, mirror), other
                length, prev = end, length
            yield cur[pad : pad + length], None if fold else landed

    return steps()


def _columns(start, taps: np.ndarray, offset: int, ys, n_max: int, *,
             fold: bool = False, last_first: bool = False):
    """The one reader of a walk: the walk `_evolve` makes of these arguments,
    rows 0..n_max read as series in n.

    Returns ({y: series}, killed). Series y holds entry y of row n at index n
    (0 where that row is too short); killed[w - 1] holds, at index n, the
    mass step n killed on -w, and is None for a fold walk. All are read-only
    float64 arrays. The walk is stepped only in the cone of the deepest y; the
    mass step n kills comes from states below a of row n - 1, inside any cone.
    """
    ys = sorted(set(int(y) for y in ys))
    walk = _evolve(start, taps, offset, n_max, fold=fold, last_first=last_first, reach=max([0, *ys]))
    out = np.zeros((len(ys), n_max + 1))
    killed = None if fold else np.zeros((offset, n_max + 1))
    for n, (row, lost) in enumerate(walk):
        for i, y in enumerate(ys):
            if 0 <= y < row.shape[0]:
                out[i, n] = row[y]
        if killed is not None:
            killed[:, n] = lost
    for array in (out, killed):
        if array is not None:
            array.flags.writeable = False
    return dict(zip(ys, out)), killed


def _read_only(row: np.ndarray) -> np.ndarray:
    """A read-only copy of a live row, for a caller that keeps it."""
    row = row.copy()
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
    return _columns(x, law.masses, law.a, (), n_max)[1]


def n_step_series(law: LatticeLaw, x: int, ys, n_max: int) -> dict[int, np.ndarray]:
    """Columns of the reflected n-step table as series, streamed row by row:
    series y holds P_x[X_n = y] at index n = 0..n_max.

    Holds only the current row, so horizons beyond the full-table memory cap
    are fine (the asymptotics oracles need them for laws with rho near 1).
    """
    return _columns(x, law.masses, law.a, ys, n_max, fold=True)[0]


def excursion_series(law: LatticeLaw, x: int, ys, n_max: int) -> dict[int, np.ndarray]:
    """Columns of the excursion table as series, streamed without row storage."""
    return _columns(x, law.masses, law.a, ys, n_max)[0]


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
    killed = {x: _columns(x, law.masses, law.a, ys, n_max) for x in sorted(set(xs))}
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
    from .fluctuation import stay_series

    xs, ys = sorted(set(int(x) for x in xs)), sorted(set(int(y) for y in ys))
    if xs and xs[0] < 0:
        raise InvalidInput(f"start state must be >= 0, got {xs[0]}")
    ups = {y - x for x in xs for y in ys if y >= x}
    u_plus, descent = stay_series(law, ups, n_max)
    zero = np.zeros(n_max + 1)

    def t_series(v: int) -> np.ndarray:
        # coefficients of T(s| v) for v <= -1; row w-1 of descent is T(s|-w)
        return descent[-v - 1] if -law.a <= v <= -1 else zero

    starts = range(max(xs, default=-1) + 1)
    walks = [_columns(w, law.masses, law.a, ys, n_max) for w in starts]
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
