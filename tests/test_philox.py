import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectwalk.philox import philox4x32, uniforms, words

M32 = 0xFFFFFFFF
WORD = st.integers(0, M32)


def as_hex(words):
    return [f"{int(w):08x}" for w in words]


def reference(counter, key):
    """Philox4x32-10 in Python ints, from the README's recipe alone."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & M32, (p0 >> 32) ^ c3 ^ k1, p0 & M32
        k0, k1 = (k0 + 0x9E3779B9) & M32, (k1 + 0xBB67AE85) & M32
    return [c0, c1, c2, c3]


class TestKnownAnswers:
    """Random123 reference vectors for philox4x32-10."""

    def test_zero_vector(self):
        assert as_hex(philox4x32(0, 0, 0, 0, 0, 0)) == [
            "6627e8d5", "e169c58d", "bc57ac4c", "9b00dbd8",
        ]

    def test_ones_vector(self):
        f = 0xFFFFFFFF
        assert as_hex(philox4x32(f, f, f, f, f, f)) == [
            "408f276d", "41c83b0e", "a20bc7c6", "6d5451fd",
        ]

    def test_pi_digits_vector(self):
        out = philox4x32(
            0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822, 0x299F31D0
        )
        assert as_hex(out) == ["d16cfe09", "94fdcceb", "5001e420", "24126ea1"]

    def test_vectorized_matches_scalar(self):
        c0 = np.arange(5, dtype=np.uint64)
        vec = philox4x32(c0, 1, 2, 3, 7, 9)
        for i in range(5):
            scalar = philox4x32(i, 1, 2, 3, 7, 9)
            assert all(int(v[i]) == int(s) for v, s in zip(vec, scalar))

    def test_reference_known_answers(self):
        f = 0xFFFFFFFF
        pi = ([0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344], [0xA4093822, 0x299F31D0])
        assert as_hex(reference([0] * 4, [0] * 2)) == ["6627e8d5", "e169c58d", "bc57ac4c", "9b00dbd8"]
        assert as_hex(reference([f] * 4, [f] * 2)) == ["408f276d", "41c83b0e", "a20bc7c6", "6d5451fd"]
        assert as_hex(reference(*pi)) == ["d16cfe09", "94fdcceb", "5001e420", "24126ea1"]

    def test_rounds_in_caller_scratch(self):
        # a (B, 1) counter, (1, P) path words, a nonzero c3 and a key with both
        # halves set: the inputs are broadcast into the scratch lanes, and
        # every round runs in place there
        c3, k0, k1 = 0x0BADF00D, 0x9E3779B9, 0xDEADBEEF
        ids = (np.arange(5, dtype=np.uint64) * 0x1F2E3D4C5 + 7)[None, :]
        lo, hi = ids & 0xFFFFFFFF, ids >> 32
        assert hi.min() < hi.max() and hi.max() > 0
        scratch = np.empty((4, 3, 5), dtype=np.uint64)
        for first in (0, 0xFFFFFFFD):
            counter = np.arange(first, first + 3, dtype=np.uint64)[:, None]
            inputs = [x.copy() for x in (counter, lo, hi)]
            lanes = philox4x32(counter, lo, hi, c3, k0, k1, out=scratch)
            assert all(lane.shape == (3, 5) and np.shares_memory(lane, scratch) for lane in lanes)
            assert all(np.array_equal(x, y) for x, y in zip(inputs, (counter, lo, hi)))
            for b in range(3):
                for p in range(5):
                    scalar = philox4x32(int(counter[b, 0]), int(lo[0, p]), int(hi[0, p]), c3, k0, k1)
                    assert [int(lane[b, p]) for lane in lanes] == [int(s) for s in scalar]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_matches_reference(data):
    """philox4x32 lane by lane at shapes (), (n,) and (B, 1) x (P,), with and
    without `out`; and words() puts draw 4 b + i of path p at [b, i, p]."""
    key = [data.draw(WORD), data.draw(WORD)]
    shapes = data.draw(st.sampled_from([[()] * 4, [(3,)] * 4, [(2, 1), (4,), (4,), ()]]))
    counter = [
        np.array(data.draw(st.lists(WORD, min_size=math.prod(s), max_size=math.prod(s))), np.uint64).reshape(s)
        for s in shapes
    ]
    shape = np.broadcast_shapes(*shapes)
    out = np.empty((4, *shape), np.uint64) if data.draw(st.booleans()) else None
    lanes = philox4x32(*counter, *key, out=out)
    for index in np.ndindex(shape):
        words_in = [int(np.broadcast_to(c, shape)[index]) for c in counter]
        assert [int(lane[index]) for lane in lanes] == reference(words_in, key)

    # seed and ids span 64 bits, so the layout's high words are pinned; the
    # counter word stays far below 2^32 (horizons are capped at 50,000
    # draws), so the reference never has to wrap it
    seed = data.draw(st.integers(0, 2**64 - 1))
    ids = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3))
    first = 4 * data.draw(st.integers(0, 2**18 - 1))
    count = data.draw(st.integers(1, 9))
    got = words(seed, np.array(ids, np.uint64), first, count, np.empty(4 * 3 * len(ids), np.uint64))
    for b in range(got.shape[0]):
        for p, path in enumerate(ids):
            expect = reference([first // 4 + b, path & M32, path >> 32, 0], [seed & M32, seed >> 32])
            assert [int(got[b, i, p]) for i in range(4)] == expect


def test_rounds_hold_one_spare_lane():
    # a warm words() call on one Monte Carlo tile (2,048 paths, 64 draws):
    # the rounds run in the caller's lanes, and only one spare lane of
    # 256 KiB is allocated, plus the path words and the counter
    ids = np.arange(2048, dtype=np.uint64) * 0x1F2E3D4C5
    lanes = np.empty(4 * 16 * 2048, np.uint64)
    words(7, ids, 0, 64, lanes)
    tracemalloc.start()
    try:
        words(7, ids, 64, 64, lanes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 256 * 1024


class TestUniforms:
    def test_deterministic(self):
        a = uniforms(99, np.arange(10), 0, 33)
        b = uniforms(99, np.arange(10), 0, 33)
        assert np.array_equal(a, b)

    def test_chunking_invariance(self):
        whole = uniforms(5, np.array([3, 8]), 0, 24)
        parts = np.concatenate(
            [uniforms(5, np.array([3, 8]), 0, 12), uniforms(5, np.array([3, 8]), 12, 12)],
            axis=1,
        )
        assert np.array_equal(whole, parts)

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            uniforms(5, np.array([0]), 2, 8)

    def test_substreams_differ(self):
        u = uniforms(1, np.arange(4), 0, 16)
        assert len({tuple(row) for row in u}) == 4

    def test_seed_sensitivity(self):
        a = uniforms(1, np.array([0]), 0, 8)
        b = uniforms(2, np.array([0]), 0, 8)
        assert not np.array_equal(a, b)

    def test_range_and_moments(self):
        u = uniforms(7, np.arange(200), 0, 500)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.005
