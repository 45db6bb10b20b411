import numpy as np
import pytest

from reflectwalk.philox import philox4x32, uniforms


def as_hex(words):
    return [f"{int(w):08x}" for w in words]


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

    def test_broadcast_rounds_in_caller_scratch(self):
        # a (B, 1) counter, (1, P) path words, a nonzero c3 and a key with both
        # halves set: rounds run small until they mix, then in the scratch lanes
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
