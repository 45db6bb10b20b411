import math

import numpy as np
import pytest

from reflectwalk import (
    HorizonTooLarge,
    ascent_joint_table,
    descent_joint_table,
    ladder_laws,
    law_from_masses,
    n_step_table,
    stay_nonneg_table,
    stay_series,
)
import reflectwalk.chain as chain
import reflectwalk.fluctuation as fluctuation
from reflectwalk.chain import TINY, _evolve
from conftest import assert_matches_untrimmed, assert_trimmed, random_laws, shift_add, untrimmed_walk


def _reference_shift_add(row, kernel, last_first=True):
    """Plain-Python convolution; out[t] adds the taps from the last to the
    first, or from the first to the last."""
    order = range(len(kernel) - 1, -1, -1) if last_first else range(len(kernel))
    out = []
    for t in range(len(row) + len(kernel) - 1):
        acc = 0.0
        for k in order:
            if 0 <= t - k < len(row) and kernel[k] != 0.0:
                acc += kernel[k] * row[t - k]
        out.append(acc)
    return out


class TestStepKernel:
    """The DP steps sum in one fixed order, so their bits do not depend on the
    numpy build; a change of tap order fails here rather than in a golden."""

    LAW = law_from_masses({-2: 0.13, -1: 0.21, 0: 0.17, 1: 0.34, 2: 0.0, 3: 0.15})
    STEPS = 40

    def test_kernel_both_tap_orders(self):
        taps = self.LAW.masses.tolist()
        rng = np.random.default_rng(3)
        for length in (1, 2, 7, 30):
            row = rng.random(length)
            for last_first in (True, False):
                order = range(len(taps) - 1, -1, -1) if last_first else range(len(taps))
                got = shift_add(row, taps, order).tolist()
                assert got == _reference_shift_add(row.tolist(), taps, last_first)

    def test_halfline_step_fixed_order(self):
        law, a = self.LAW, self.LAW.a
        masses = law.masses.tolist()
        walk = _evolve(0, law.masses, a, self.STEPS, last_first=True, stored=True)
        row, _ = next(walk)
        for nxt, dropped in walk:
            full = _reference_shift_add(row.tolist(), masses)
            assert nxt.tolist() == full[a:]
            assert dropped.tolist() == full[:a][::-1]
            conv = np.convolve(row, law.masses)
            np.testing.assert_allclose(nxt, conv[a:], rtol=1e-15, atol=0)
            np.testing.assert_allclose(dropped, conv[:a][::-1], rtol=1e-15, atol=0)
            row = nxt

    def test_negative_step_fixed_order(self):
        law, b = self.LAW, self.LAW.b
        flipped = law.masses[::-1].tolist()
        h = np.array([law.mass(-1 - i) for i in range(law.a)])
        walk = _evolve(h, law.masses[::-1], b, self.STEPS, last_first=True, stored=True)
        next(walk)
        for nxt, exits in walk:
            full = _reference_shift_add(h.tolist(), flipped)
            assert nxt.tolist() == full[b:]
            assert exits.tolist() == full[b - 1 :: -1][:b]
            conv = np.convolve(h, law.masses[::-1])
            np.testing.assert_allclose(nxt, conv[b:], rtol=1e-15, atol=0)
            np.testing.assert_allclose(exits, conv[b - 1 :: -1][:b], rtol=1e-15, atol=0)
            h = nxt

    def test_fold_step_fixed_order(self):
        law, a = self.LAW, self.LAW.a
        masses = law.masses.tolist()
        rows, _ = untrimmed_walk(law, 2, self.STEPS, fold=True)
        for row, nxt in zip(rows, rows[1:]):
            full = _reference_shift_add(row.tolist(), masses, last_first=False)
            folded = full[a:] + [0.0] * (a + 1 - len(full[a:]))
            for y in range(1, a + 1):
                folded[y] += full[a - y]
            assert nxt.tolist() == folded
        assert_trimmed(n_step_table(law, 2, self.STEPS), rows, law, fold=True)

    def test_ascent_is_mirrored_descent(self, law_p5):
        # the negative side of the weak ascent, stepped in plain Python
        n_max, b = 120, law_p5.b
        flipped = law_p5.masses[::-1].tolist()
        series = ascent_joint_table(law_p5, n_max)
        assert [series[j][1] for j in range(b + 1)] == [law_p5.mass(j) for j in range(b + 1)]
        h = [law_p5.mass(-1 - i) for i in range(law_p5.a)]
        for n in range(2, n_max + 1):
            full = _reference_shift_add(h, flipped)
            h, exits = full[b:], full[b - 1 :: -1]
            assert [series[j][n] for j in range(b + 1)] == exits + [0.0]


class TestStreamingTrim:
    """The streaming builders drop the tail of each row that has fallen below
    the smallest normal float; no entry of at least 1e-280 may change a bit."""

    N = 1500  # the far tail falls below TINY from about n = 645 (lawA), 450 (p5)

    def test_descent_and_stay_series_match_full_rows(self, law_a):
        full, killed = untrimmed_walk(law_a, 0, self.N, last_first=True)
        assert np.any((full[self.N] > 0.0) & (full[self.N] < TINY))  # a subnormal tail
        assert_trimmed(stay_nonneg_table(law_a, self.N), full, law_a, last_first=True)
        assert np.array_equal(descent_joint_table(law_a, self.N), killed.T)
        ys = [0, 3, 900, 1400]
        columns, descent = stay_series(law_a, ys, self.N)
        assert np.array_equal(descent, killed.T)
        for y in ys:
            assert_matches_untrimmed(columns[y], [row[y] if y < row.size else 0.0 for row in full])

    def test_ascent_matches_untrimmed_recursion(self, law_p5):
        series = ascent_joint_table(law_p5, self.N)
        b = law_p5.b
        flipped = law_p5.masses[::-1].tolist()
        order = range(len(flipped) - 1, -1, -1)
        h = np.array([law_p5.mass(-1 - i) for i in range(law_p5.a)])
        for n in range(2, self.N + 1):
            full = shift_add(h, flipped, order)
            h, exits = full[b:], full[:b][::-1]
            assert exits.tolist() == [series[j][n] for j in range(b)]
        assert h[-1] == 0.0


class TestStayTable:
    def test_row_zero_is_point_mass(self, law_a, law_b):
        for law in (law_a, law_b):
            (row,) = stay_nonneg_table(law, 0)
            assert np.array_equal(row, [1.0])

    def test_law_a_first_rows(self, law_a):
        table = stay_nonneg_table(law_a, 2)
        assert table[1][0] == pytest.approx(1 / 3, abs=1e-16)
        assert table[1][1] == pytest.approx(1 / 3, abs=1e-16)
        # two surviving two-step paths end at 0: increments (0,0) and (+1,-1)
        assert table[2][0] == pytest.approx(2 / 9, abs=1e-16)

    def test_row_sums_non_increasing(self, law_p5):
        totals = [row.sum() for row in stay_nonneg_table(law_p5, 60)]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_mass_conservation_every_step(self, law_a, law_b, law_p5):
        # the mass a step drops from the stay table is the descent table's
        for law in (law_a, law_b, law_p5):
            table = stay_nonneg_table(law, 200)
            descent = descent_joint_table(law, 200)
            for n in range(1, 201):
                dropped = math.fsum(descent[:, n].tolist())
                assert table[n].sum() + dropped == pytest.approx(table[n - 1].sum(), abs=1e-14)

    def test_memory_guard(self, law_a, monkeypatch):
        monkeypatch.setattr(chain, "MEMORY_CAP_FLOATS", 1000)
        with pytest.raises(HorizonTooLarge):
            stay_nonneg_table(law_a, 200)

    def test_horizon_cap_before_any_step(self, law_a, monkeypatch):
        # the stored tables share one horizon cap, checked when the walk is
        # made: a walk that passed the check is never stepped here
        evolve = chain._evolve

        def no_step(*args, **kwargs):
            evolve(*args, **kwargs)
            raise AssertionError("the walk passed its budget check")

        monkeypatch.setattr(fluctuation, "_evolve", no_step)
        with pytest.raises(HorizonTooLarge, match="n_max 10001 exceeds cap 10000"):
            stay_nonneg_table(law_a, 10_001)

    def test_stay_series_matches_table(self, law_asym):
        table = stay_nonneg_table(law_asym, 40)
        series, _ = stay_series(law_asym, [0, 1, 5], 40)
        for y in (0, 1, 5):
            expected = [row[y] if y < row.size else 0.0 for row in table]
            assert np.array_equal(series[y], expected)


class TestDescentTable:
    def test_law_a_values(self, law_a):
        series = descent_joint_table(law_a, 5)
        assert len(series) == 1  # down-jumps bounded by 1: no landing at -2
        w1 = series[0]
        assert w1[1] == pytest.approx(1 / 3, abs=1e-16)
        assert w1[2] == pytest.approx(1 / 9, abs=1e-16)

    def test_matches_stay_table_drops(self, law_p5):
        # the masses the whole half-line walk drops below 0, bit for bit
        _, killed = untrimmed_walk(law_p5, 0, 50, last_first=True)
        series = descent_joint_table(law_p5, 50)
        for w in (1, 2):
            assert np.array_equal(series[w - 1], killed[:, w - 1])

    def test_completeness_centered(self, law_a, law_p5):
        # total descent mass reaches 1 for centered laws, gap ~ 1/sqrt(N)
        for law in (law_a, law_p5):
            series = descent_joint_table(law, 4000)
            total = series.sum(axis=0).cumsum()
            gap_1000 = 1.0 - total[1000]
            gap_4000 = 1.0 - total[4000]
            assert 0 < gap_4000 < gap_1000
            assert gap_4000 == pytest.approx(gap_1000 / 2, rel=0.15)

    def test_duality_partial_sums_approach_ascent_potential(self, law_a, law_p5):
        # cumulative stay-column sums increase to U+(y) from below, with the
        # n^(-1/2) tail shrinking at the expected rate
        for law in (law_a, law_p5):
            ladder = ladder_laws(law)
            series, _ = stay_series(law, [0, 1, 2], 4000)
            for y in (0, 1, 2):
                sums = np.cumsum(series[y])
                assert np.all(np.diff(sums) >= -1e-16)
                assert sums[-1] <= ladder.U_plus[y] + 1e-12
                gap_early = ladder.U_plus[y] - sums[1000]
                gap_late = ladder.U_plus[y] - sums[4000]
                assert 0 < gap_late < gap_early
                assert gap_late == pytest.approx(gap_early / 2, rel=0.15)
                assert gap_late < 0.1 * ladder.U_plus[y]


class TestAscentTable:
    def test_law_a_first_step(self, law_a):
        series = ascent_joint_table(law_a, 6)
        assert series[0][1] == pytest.approx(1 / 3, abs=1e-16)
        assert series[1][1] == pytest.approx(1 / 3, abs=1e-16)

    def test_law_a_no_late_overshoot(self, law_a):
        # re-entry from -1 with max up-step 1 lands exactly at 0
        series = ascent_joint_table(law_a, 40)
        assert np.all(series[1][2:] == 0.0)

    def test_total_mass_bounded(self):
        for law in random_laws(4, seed=13, centered=False):
            series = ascent_joint_table(law, 300)
            total = math.fsum(float(s.sum()) for s in series)
            assert total <= 1.0 + 1e-12

    def test_ascent_law_matches_factorization(self, law_p5):
        # partial sums of P[tau+ = n, S = j] converge to the weak-ascent law
        ladder = ladder_laws(law_p5)
        series = ascent_joint_table(law_p5, 4000)
        for j in range(0, 3):
            partial = float(series[j].sum())
            assert partial <= ladder.mu_plus[j] + 1e-12
            assert partial == pytest.approx(ladder.mu_plus[j], rel=0.05)
