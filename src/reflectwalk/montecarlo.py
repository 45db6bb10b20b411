"""Seeded simulation of the reflected walk, the statistical oracle.

Path i draws its increments from the Philox substream keyed by (seed, i), so
results are bit-reproducible for a fixed config no matter how paths are
partitioned into blocks, tiles or threads, or draws into chunks. Aggregation is
plain counting. Draw j of a path depends only on (seed, path, j), so the
first n steps of a run to horizon N are a run to horizon n: one pass records
the terminal counts of every checkpoint horizon.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .chain import MEMORY_CAP_FLOATS, STREAMING_N_MAX_CAP
from .errors import HorizonTooLarge, InvalidInput, InvalidSimConfig, NoReflectionsObserved
from .laws import LatticeLaw
from .philox import _TILE_INVOCATIONS, words

THREADS_ENV = "REFLECTWALK_THREADS"
_BLOCK_PATHS = 16_384
# Steps per chunk; must stay 4-aligned for the substream layout. A block holds
# one int32 row of its paths per step: the increments, then the raw positions.
_CHUNK_DRAWS = 64
# Paths per draw tile, so that one words call of a full chunk is one Philox
# tile. A tile's lanes, buckets and increments (2.5 MB) are reused per tile.
_TILE_PATHS = _TILE_INVOCATIONS * 4 // _CHUNK_DRAWS

# Caps on a config. States are held as int32, which STATE_CAP keeps safe.
PATH_STEPS_CAP = 1_000_000_000  # paths * horizon
STATE_CAP = 5_000_000  # start + b * horizon bounds every state; counts are dense in it

_GUIDE_BITS = 16
_MIXED = np.iinfo(np.int32).min  # guide entry of a bucket that holds a cdf threshold


@dataclass(frozen=True, eq=False)
class SimConfig:
    law: LatticeLaw
    start: int
    horizon: int
    paths: int
    seed: int

    def __post_init__(self):
        if self.start < 0:
            raise InvalidSimConfig(f"start must be >= 0, got {self.start}")
        if self.horizon < 0:
            raise InvalidSimConfig(f"horizon must be >= 0, got {self.horizon}")
        if self.paths < 1:
            raise InvalidSimConfig(f"paths must be >= 1, got {self.paths}")
        if self.horizon > STREAMING_N_MAX_CAP:
            raise HorizonTooLarge(f"horizon {self.horizon} exceeds cap {STREAMING_N_MAX_CAP}")
        if self.paths * self.horizon > PATH_STEPS_CAP:
            raise HorizonTooLarge(
                f"paths * horizon = {self.paths * self.horizon} exceeds cap {PATH_STEPS_CAP}"
            )
        reach = self.start + self.law.b * self.horizon
        if reach > STATE_CAP:
            raise HorizonTooLarge(f"start + b * horizon = {reach} exceeds cap {STATE_CAP}")


@dataclass(frozen=True)
class Estimate:
    point: float
    stderr: float
    count: int


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregated path statistics for one config.

    terminal[y]: paths ending at y after `horizon` steps.
    first_reflection_time[t]: paths whose first reflection happens at step t
        (index 0 counts paths that never reflect).
    first_reflection_target[w-1]: landing state of those first reflections.
    reflection_target[w-1]: landing counts over all reflections, all paths.
    terminal_at[n][y]: paths at y after n steps, for each checkpoint n.
    """

    config: SimConfig
    terminal: np.ndarray
    first_reflection_time: np.ndarray
    first_reflection_target: np.ndarray
    reflection_target: np.ndarray
    terminal_at: dict = field(default_factory=dict)

    def estimate(self, y: int, n: int | None = None) -> Estimate:
        """Empirical P[X_n = y] with its binomial standard error; n defaults
        to the horizon, else it must be a checkpoint."""
        if n is not None and n not in self.terminal_at:
            raise InvalidInput(f"n = {n} is not a checkpoint; recorded: {list(self.terminal_at)}")
        counts = self.terminal if n is None else self.terminal_at[n]
        hits = int(counts[y]) if 0 <= y < counts.shape[0] else 0
        p = hits / self.config.paths
        return Estimate(p, math.sqrt(p * (1.0 - p) / self.config.paths), hits)


def _max_workers() -> int:
    cap = os.environ.get(THREADS_ENV)
    if cap is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(cap))
    except ValueError:
        raise InvalidSimConfig(f"{THREADS_ENV} must be an integer, got {cap!r}") from None


def _path_blocks(paths: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, paths) into near-equal blocks of at most _BLOCK_PATHS paths.

    Paths that fit one block stay in one. Otherwise the block count is rounded
    up to a multiple of the threads it can use, min(workers, count), so that no
    pool thread idles; this at most doubles the count, and never makes more
    blocks than paths.
    """
    count = -(-paths // _BLOCK_PATHS)
    threads = min(workers, count)
    count = -(-count // threads) * threads
    return [(paths * i // count, paths * (i + 1) // count) for i in range(count)]


class _IncrementMap:
    """Maps 32-bit words w to the increments searchsorted(cdf, w * 2^-32,
    side="right") + lo of their draws, bit for bit, through a guide table
    (Chen & Asau 1974).

    Bucket w >> 16 = floor(w * 2^-32 * 2^16) holds the draws k * 2^-16 ..
    (k + 1) * 2^-16 - 2^-32. Where searchsorted agrees at both ends, it is
    constant on the bucket (it is monotone), and the table holds its value.
    Words in the other buckets, at most one per cdf threshold, fall back to
    searchsorted on their draws.
    """

    def __init__(self, law: LatticeLaw):
        self.cdf = np.cumsum(law.masses)
        self.lo = law.lo
        edges = np.arange(2**_GUIDE_BITS + 1, dtype=np.float64) * 2.0**-_GUIDE_BITS
        first = np.searchsorted(self.cdf, edges[:-1], side="right")
        last = np.searchsorted(self.cdf, edges[1:] - 2.0**-32, side="right")
        self.table = np.where(first == last, first + law.lo, _MIXED).astype(np.int32)

    def __call__(self, words: np.ndarray, bucket: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Returns the increments of an array of unsigned words, in its shape,
        C-ordered in the first words.size entries of the flat int32 scratch
        out. bucket is flat intp scratch at least as long; a block reuses both
        for each of its path tiles."""
        out = out[: words.size].reshape(words.shape)
        bucket = bucket[: words.size].reshape(words.shape)
        np.right_shift(words, 32 - _GUIDE_BITS, out=bucket, casting="unsafe")
        self.table.take(bucket, out=out, mode="clip")
        mixed = np.flatnonzero(out == _MIXED)
        if mixed.size:
            draws = words[np.unravel_index(mixed, words.shape)] * 2.0**-32
            out.flat[mixed] = np.searchsorted(self.cdf, draws, side="right") + self.lo
        return out


def _walk(config: SimConfig, increments: _IncrementMap, lo: int, hi: int, observe) -> np.ndarray:
    """Step paths [lo, hi) to the horizon and return their final states.

    After each chunk of steps t+1 .. t+m, calls observe(t, raw), where raw[j]
    holds X_{t+j} + Y_{t+j+1} for every path, the position before the fold:
    X_{t+j+1} = |raw[j]|, and raw[j] < 0 marks a reflection at step t+j+1.
    A chunk's increments are drawn one path tile at a time, through
    tile-sized Philox lanes, buckets and int32 scratch, into the tile's
    columns of raw; each step then adds the states to its row in place.
    """
    n = config.horizon
    paths = hi - lo
    ids = np.arange(lo, hi, dtype=np.uint64)
    states = np.full(paths, config.start, dtype=np.int32)
    raw = np.empty((min(_CHUNK_DRAWS, (n + 3) // 4 * 4), paths), np.int32)
    tile = min(_TILE_PATHS, paths)
    size = raw.shape[0] * tile
    lanes, bucket, scratch = np.empty(size, np.uint64), np.empty(size, np.intp), np.empty(size, np.int32)
    for t in range(0, n, _CHUNK_DRAWS):
        m = min(_CHUNK_DRAWS, n - t)
        draws = (m + 3) // 4 * 4
        for p in range(0, paths, tile):
            q = min(p + tile, paths)
            tiled = increments(words(config.seed, ids[p:q], t, draws, lanes), bucket, scratch)
            raw[:draws, p:q] = tiled.reshape(draws, q - p)
        for j in range(m):
            np.add(states, raw[j], out=raw[j])
            np.abs(raw[j], out=states)
        observe(t, raw[:m])
    return states


def _state_counts(states: np.ndarray, a: int) -> np.ndarray:
    return np.bincount(states, minlength=max(int(states.max(initial=0)), a) + 1)


def _simulate_block(config, increments, checkpoints, lo, hi):
    a = config.law.a
    first_time = np.zeros(hi - lo, dtype=np.int64)  # 0 = not yet reflected
    first_target = np.zeros(hi - lo, dtype=np.int64)
    target_counts = np.zeros(a, dtype=np.int64)
    at = {}
    if 0 in checkpoints:
        at[0] = _state_counts(np.full(hi - lo, config.start), a)

    def observe(t, raw):
        reflected = raw < 0
        target_counts[:] += np.bincount(-1 - raw[reflected], minlength=a)
        newly = np.flatnonzero(reflected.any(axis=0) & (first_time == 0))
        if newly.size:
            step = reflected[:, newly].argmax(axis=0)
            first_time[newly] = t + step + 1
            first_target[newly] = -raw[step, newly]
        for c in checkpoints:
            if t < c <= t + raw.shape[0]:
                at[c] = _state_counts(np.abs(raw[c - t - 1]), a)

    states = _walk(config, increments, lo, hi, observe)
    terminal = _state_counts(states, a)
    time_counts = np.bincount(first_time, minlength=config.horizon + 1)
    first_target_counts = np.bincount(first_target[first_target > 0] - 1, minlength=a)
    return terminal, time_counts, first_target_counts, target_counts, at


def _run_blocks(config: SimConfig, block_fn, *args) -> list:
    """block_fn(config, increments, *args, lo, hi) for every path block, on a
    thread pool; the results come back in block order."""
    # imported here: only the Monte Carlo commands pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    increments = _IncrementMap(config.law)
    workers = _max_workers()
    blocks = _path_blocks(config.paths, workers)
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        return list(pool.map(lambda b: block_fn(config, increments, *args, *b), blocks))


def _sum_counts(arrays) -> np.ndarray:
    total = np.zeros(max(x.shape[0] for x in arrays), dtype=np.int64)
    for x in arrays:
        total[: x.shape[0]] += x
    return total


def simulate(config: SimConfig, checkpoints=()) -> SimResult:
    """Run all paths and aggregate terminal and reflection statistics.

    For each checkpoint n in [0, horizon], result.terminal_at[n] holds the
    terminal counts after n steps, bit-identical to those of a run to horizon n.
    """
    checkpoints = sorted(set(checkpoints))
    for c in checkpoints:
        if not (isinstance(c, (int, np.integer)) and 0 <= c <= config.horizon):
            raise InvalidSimConfig(f"checkpoint {c} is not an integer in [0, horizon {config.horizon}]")
    parts = _run_blocks(config, _simulate_block, checkpoints)
    return SimResult(
        config,
        _sum_counts([p[0] for p in parts]),
        sum(p[1] for p in parts),
        sum(p[2] for p in parts),
        sum(p[3] for p in parts),
        {c: _sum_counts([p[4][c] for p in parts]) for c in checkpoints},
    )


def estimate_pxy(config: SimConfig, y: int) -> Estimate:
    """Empirical P[X_horizon = y] with its binomial standard error.

    Runs the whole simulation; for several y, call `simulate` once and read
    each from `SimResult.estimate`."""
    return simulate(config).estimate(y)


def _landing_block(config, increments, burnin, lo, hi):
    """Per-path landing counts on [1, a] of the reflections past the first `burnin`."""
    a = config.law.a
    seen = np.zeros(hi - lo, dtype=np.int64)
    counts = np.zeros((hi - lo) * a, dtype=np.int64)

    def observe(t, raw):
        reflected = raw < 0
        keep = reflected & (seen + np.cumsum(reflected, axis=0) > burnin)
        _, path = np.nonzero(keep)
        counts[:] += np.bincount(path * a - 1 - raw[keep], minlength=counts.size)
        seen[:] += reflected.sum(axis=0)

    _walk(config, increments, lo, hi, observe)
    return counts.reshape(hi - lo, a)


def estimate_nu(config: SimConfig, burnin: int = 100) -> dict[int, Estimate]:
    """Occupation law of the reflection targets on [1, a], after burn-in.

    Discards the first `burnin` reflections of every path, then pools the
    remaining landings. The standard error treats each path as one cluster
    (landings within a path are dependent), via the ratio-estimator form.
    """
    a = config.law.a
    if config.paths * a > MEMORY_CAP_FLOATS:
        raise HorizonTooLarge(f"paths * a = {config.paths * a} exceeds cap {MEMORY_CAP_FLOATS}")
    counts = np.concatenate(_run_blocks(config, _landing_block, burnin))

    per_path = counts.sum(axis=1)
    total = int(per_path.sum())
    if total == 0:
        raise NoReflectionsObserved(
            f"no reflections past burn-in {burnin} over {config.paths} paths "
            f"of length {config.horizon}"
        )
    out = {}
    for w in range(1, a + 1):
        c_w = counts[:, w - 1]
        p = float(c_w.sum()) / total
        resid = c_w - p * per_path
        stderr = math.sqrt(float(np.sum(resid * resid.astype(float)))) / total
        out[w] = Estimate(p, stderr, int(c_w.sum()))
    return out
