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


def philox4x32(c0, c1, c2, c3, k0, k1, out=None):
    """Apply Philox4x32-10 to broadcastable uint64 arrays of 32-bit values.

    Returns the four output lanes, uint64 arrays of the inputs' broadcast
    shape holding 32-bit words. The inputs are copied, broadcast, into the
    four lanes of `out`, writable uint64 arrays of that shape (allocated if
    None), and every round runs in place there, with one spare array for
    the second product; the inputs are never written.
    """
    c = [np.asarray(x, dtype=np.uint64) for x in (c0, c1, c2, c3)]
    if out is None:
        out = np.empty((4, *np.broadcast_shapes(*(x.shape for x in c))), np.uint64)
    c0, c1, c2, c3 = lanes = [out[i, ...] for i in range(4)]  # views, 0-d at shape ()
    for lane, x in zip(lanes, c):
        np.copyto(lane, x)
    spare = np.empty_like(c0)
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    for _ in range(ROUNDS):
        # A lane is overwritten only after the last read of its old value:
        # c2 goes into spare, c0 becomes its product, which c2 and c3 read,
        # and c1 is read by the new c0.
        np.multiply(MULT_1, c2, out=spare)
        np.multiply(MULT_0, c0, out=c0)
        np.right_shift(c0, SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(c0, MASK32, out=c3)
        np.right_shift(spare, SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(spare, MASK32, out=c1)
        k0 = (k0 + WEYL_0) & MASK32
        k1 = (k1 + WEYL_1) & MASK32
    return c0, c1, c2, c3  # every lane depends on every input word after three rounds


def words(seed: int, path_ids: np.ndarray, first_draw: int, count: int, out: np.ndarray) -> np.ndarray:
    """The 32-bit words, as uint64, of draws first_draw .. first_draw + 4 B - 1
    of each path id, B = ceil(count / 4): the word of draw first_draw + 4 b + i
    of path p is at [b, i, p] of the returned (B, 4, len(path_ids)) view.

    Draw j of path p is lane j mod 4 of the invocation with counter
    (j // 4, low32(p), high32(p), 0) and key (low32(seed), high32(seed)).
    Requires first_draw to be a multiple of 4. The rounds run in place in the
    first 4 B len(path_ids) entries of `out`, a flat uint64 array, one
    contiguous lane after another.
    """
    if first_draw % 4 != 0:
        raise InvalidInput("first_draw must be 4-aligned")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    path_ids = np.asarray(path_ids, dtype=np.uint64)
    paths = path_ids.shape[0]
    blocks = (count + 3) // 4
    lanes = out[: 4 * blocks * paths].reshape(4, blocks, paths)
    counter = (np.uint64(first_draw // 4) + np.arange(blocks, dtype=np.uint64))[:, None]
    philox4x32(counter, path_ids & MASK32, path_ids >> SHIFT32, 0, seed & 0xFFFFFFFF, seed >> 32, out=lanes)
    return lanes.transpose(1, 0, 2)


def uniforms(seed: int, path_ids: np.ndarray, first_draw: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws w * 2^-32 of the words w of `words`.

    Returns shape (len(path_ids), count), as the transpose of a draw-major
    array, so that the draws with one index sit in one contiguous row.
    """
    if first_draw % 4 != 0:
        raise InvalidInput("first_draw must be 4-aligned")
    path_ids = np.asarray(path_ids, dtype=np.uint64)
    paths = path_ids.shape[0]
    blocks = (count + 3) // 4
    out = np.empty((blocks, 4, paths), dtype=np.float64)
    # path tiles of at most _TILE_INVOCATIONS invocations bound the lanes
    tile = max(1, _TILE_INVOCATIONS // max(blocks, 1))
    lanes = np.empty(4 * blocks * min(tile, paths), np.uint64)
    for lo in range(0, paths, tile):
        ids = path_ids[lo : lo + tile]
        np.multiply(words(seed, ids, first_draw, count, lanes), _INV_2_32, out=out[:, :, lo : lo + tile])
    return out.reshape(4 * blocks, paths)[:count].T
