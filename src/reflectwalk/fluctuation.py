"""Exact dynamic-programming oracles for ladder epochs of the free walk.

These tables are the ground truth that the closed-form machinery is checked
against. They converge slowly (the centered first-passage tail decays like
n^(-1/2)), so they are oracles, not the production path for ladder laws.

Every builder here is a killed walk of the one DP engine in `chain`
(`_evolve`), with the taps summed last-first, the opposite order from the
builders of `chain`. So the rows are the same bits on every IEEE-754 build,
and the two modules still round along different paths, which keeps the
identity checks between them from being vacuous. The weak ascent is the
strict descent of the mirrored walk: kernel reversed, offset b. Each series
is a read-only float64 array indexed by n, as in `chain`; the joint tables
are 2-D, one row per landing point.
"""

from __future__ import annotations

import numpy as np

from .chain import _columns, _evolve, _read_only
from .errors import InvalidInput
from .laws import LatticeLaw


def _descent_walk(law: LatticeLaw, n_max: int, stored: bool = False):
    """The free walk from 0, killed at its first strict descent."""
    return _evolve(0, law.masses, law.a, n_max, last_first=True, stored=stored)


def stay_nonneg_table(law: LatticeLaw, n_max: int) -> tuple:
    """Joint law of staying nonnegative: read-only row n holds
    P[tau_strict_descent > n, S_n = y] at index y."""
    return tuple(_read_only(row) for row, _ in _descent_walk(law, n_max, stored=True))


def stay_series(law: LatticeLaw, ys, n_max: int) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """({y: series}, descent) of one streamed stay-nonnegative walk: entry n
    of series y is P[tau_strict_descent > n, S_n = y], and descent is the
    array of `descent_joint_table`."""
    return _columns(_descent_walk(law, n_max), ys, n_max)


def descent_joint_table(law: LatticeLaw, n_max: int) -> np.ndarray:
    """Series for (tau_strict_descent, landing point): a read-only (a, n_max + 1)
    array whose row w-1 holds P[tau = n, S_n = -w] at index n, w = 1..a.
    Streams the DP, so large horizons are fine."""
    if n_max < 1:
        raise InvalidInput(f"horizon n_max must be >= 1, got {n_max}")
    return stay_series(law, (), n_max)[1]


def ascent_joint_table(law: LatticeLaw, n_max: int) -> np.ndarray:
    """Series for (tau_weak_ascent, landing point): a read-only (b + 1, n_max + 1)
    array whose row j holds P[tau+ = n, S_n = j] at index n, j = 0..b."""
    if n_max < 1:
        raise InvalidInput(f"horizon n_max must be >= 1, got {n_max}")
    # After the first step, h[i] holds the mass at -1 - i that has not yet
    # ascended. Mirrored (z = -1 - y) it is a walk with reversed taps, killed
    # at re-entry into [0, inf): its killed[j] lands on j. Walk step k is time
    # n = k + 1: the walk keeps the caps of horizon n_max, but only its rows
    # 0..n_max - 1 are read, so its last step never runs.
    h = np.array([law.mass(-1 - i) for i in range(law.a)])
    walk = _evolve(h, law.masses[::-1], law.b, n_max, last_first=True)
    coeffs = np.zeros((law.b + 1, n_max + 1))
    coeffs[: law.b, 1:] = _columns(walk, (), n_max - 1)[1]
    # first step leaves the origin: landing >= 0 means tau+ = 1
    coeffs[:, 1] = [law.mass(j) for j in range(law.b + 1)]
    coeffs.flags.writeable = False
    return coeffs
