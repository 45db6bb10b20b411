"""Vectorized Philox4x32-10 counter-based generator.

One invocation maps a 128-bit counter and 64-bit key to four 32-bit words
through 10 rounds of multiply-high/low mixing; the published constants are
below. Streams are pure functions of (key, counter), so any draw can be
reproduced in isolation and path substreams are independent of scheduling.
Outputs match the Random123 known-answer vectors (see tests).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

MULT_0 = np.uint64(0xD2511F53)
MULT_1 = np.uint64(0xCD9E8D57)
WEYL_0 = np.uint64(0x9E3779B9)
WEYL_1 = np.uint64(0xBB67AE85)
MASK32 = np.uint64(0xFFFFFFFF)
SHIFT32 = np.uint64(32)
ROUNDS = 10
_TILE_INVOCATIONS = 32_768  # invocations per pass of the rounds: 256 KiB per uint64 lane array

_INV_2_32 = float(2.0**-32)


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Apply Philox4x32-10 to broadcastable uint64 arrays of 32-bit values.

    Returns the four output lanes as uint64 arrays holding 32-bit words.
    """
    # C-ordered copies, which the rounds update in place
    c0, c1, c2, c3 = (
        np.array(c, dtype=np.uint64, order="C") for c in np.broadcast_arrays(c0, c1, c2, c3)
    )
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    prod0 = np.empty_like(c0)
    prod1 = np.empty_like(c0)
    for _ in range(ROUNDS):
        np.multiply(MULT_0, c0, out=prod0)
        np.multiply(MULT_1, c2, out=prod1)
        np.right_shift(prod1, SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(prod1, MASK32, out=c1)
        np.right_shift(prod0, SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(prod0, MASK32, out=c3)
        k0 = (k0 + WEYL_0) & MASK32
        k1 = (k1 + WEYL_1) & MASK32
    return c0, c1, c2, c3


def uniforms(seed: int, path_ids: np.ndarray, first_draw: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws for each path id and draw index.

    Draw j of path p is lane j mod 4 of the invocation with counter
    (j // 4, low32(p), high32(p), 0) and key (low32(seed), high32(seed)).
    Requires first_draw to be a multiple of 4. Returns shape
    (len(path_ids), count), as the transpose of a draw-major array, so that
    the draws with one index sit in one contiguous row.
    """
    if first_draw % 4 != 0:
        raise InvalidInput("first_draw must be 4-aligned")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    k0, k1 = seed & 0xFFFFFFFF, seed >> 32
    path_ids = np.asarray(path_ids, dtype=np.uint64)
    paths = path_ids.shape[0]
    blocks = (count + 3) // 4
    c0 = (np.uint64(first_draw // 4) + np.arange(blocks, dtype=np.uint64))[:, None]
    out = np.empty((blocks, 4, paths), dtype=np.float64)
    # path tiles of at most _TILE_INVOCATIONS invocations bound the round temporaries
    tile = max(1, _TILE_INVOCATIONS // max(blocks, 1))
    for lo in range(0, paths, tile):
        ids = path_ids[None, lo : lo + tile]
        lanes = philox4x32(c0, ids & MASK32, ids >> SHIFT32, 0, k0, k1)
        for i, lane in enumerate(lanes):
            np.multiply(lane, _INV_2_32, out=out[:, i, lo : lo + tile])
    return out.reshape(4 * blocks, paths)[:count].T
