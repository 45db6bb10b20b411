import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflectwalk.montecarlo as montecarlo
from reflectwalk import (
    HorizonTooLarge,
    InvalidInput,
    InvalidSimConfig,
    NoReflectionsObserved,
    ReflectWalkError,
    SimConfig,
    estimate_nu,
    law_from_masses,
    ladder_laws,
    n_step_table,
    simulate,
)
from reflectwalk.montecarlo import estimate_pxy
from reflectwalk.reflection import r_core, stationary_nu
from reflectwalk.chain import DEFAULT_N_MAX_CAP, MEMORY_CAP_FLOATS, STREAMING_N_MAX_CAP
from reflectwalk.philox import uniforms


def reference_walk(config, burnin=0, checkpoints=()):
    """The stream contract stepped one draw at a time: inverse CDF by
    searchsorted, then X <- |X + Y|. Returns the SimResult arrays, the
    terminal counts at each checkpoint and the pooled landing counts past
    `burnin` reflections per path."""
    law, n = config.law, config.horizon
    counts = lambda states: np.bincount(states, minlength=max(int(states.max()), law.a) + 1)
    u = uniforms(config.seed, np.arange(config.paths), 0, (n + 3) // 4 * 4)
    inc = np.searchsorted(np.cumsum(law.masses), u, side="right") + law.lo
    states = np.full(config.paths, config.start, dtype=np.int64)
    first_time = np.zeros(config.paths, dtype=np.int64)
    first_target = np.zeros(config.paths, dtype=np.int64)
    seen = np.zeros(config.paths, dtype=np.int64)
    targets = np.zeros(law.a, dtype=np.int64)
    kept = np.zeros(law.a, dtype=np.int64)
    at = {0: counts(states)} if 0 in checkpoints else {}
    for j in range(n):
        raw = states + inc[:, j]
        reflected = raw < 0
        states = np.abs(raw)
        targets += np.bincount(states[reflected] - 1, minlength=law.a)
        newly = reflected & (first_time == 0)
        first_time[newly] = j + 1
        first_target[newly] = states[newly]
        seen += reflected
        kept += np.bincount(states[reflected & (seen > burnin)] - 1, minlength=law.a)
        if j + 1 in checkpoints:
            at[j + 1] = counts(states)
    ft = first_target[first_target > 0]
    return {
        "terminal": counts(states),
        "first_reflection_time": np.bincount(first_time, minlength=n + 1),
        "first_reflection_target": np.bincount(ft - 1, minlength=law.a),
        "reflection_target": targets,
        "terminal_at": at,
        "kept": kept,
    }


RESULT_FIELDS = ("terminal", "first_reflection_time", "first_reflection_target", "reflection_target")


def assert_same_result(a, b):
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.terminal_at.keys() == b.terminal_at.keys()
    for n in a.terminal_at:
        assert np.array_equal(a.terminal_at[n], b.terminal_at[n]), n


class TestSimulate:
    def test_one_step_law(self, law_a):
        config = SimConfig(law_a, 0, 1, 100_000, 42)
        result = simulate(config)
        p1 = result.terminal[1] / config.paths
        stderr = np.sqrt((2 / 3) * (1 / 3) / config.paths)
        assert abs(p1 - 2 / 3) < 4 * stderr

    def test_reflection_targets_law_a(self, law_a):
        # overshoot bound a = 1: every reflection lands on 1
        result = simulate(SimConfig(law_a, 0, 40, 5000, 9))
        assert result.reflection_target.shape == (1,)
        assert result.reflection_target[0] > 0

    def test_deterministic_replay(self, law_b):
        config = SimConfig(law_b, 2, 25, 1000, 77)
        a = simulate(config)
        b = simulate(config)
        assert np.array_equal(a.terminal, b.terminal)
        assert np.array_equal(a.first_reflection_time, b.first_reflection_time)
        assert np.array_equal(a.reflection_target, b.reflection_target)

    def test_single_path(self, law_a):
        result = simulate(SimConfig(law_a, 0, 10, 1, 5))
        assert result.terminal.sum() == 1

    def test_thread_count_does_not_change_results(self, law_a, monkeypatch):
        config = SimConfig(law_a, 0, 70, 40_000, 11)
        runs = []
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("REFLECTWALK_THREADS", threads)
            runs.append(simulate(config, checkpoints=[0, 16, 64, 70]))
        for other in runs[1:]:
            assert_same_result(runs[0], other)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_checkpoints_match_separate_runs(self, law_b, monkeypatch, threads):
        monkeypatch.setenv("REFLECTWALK_THREADS", threads)
        checkpoints = [0, 1, 16, 63, 64, 65, 70]
        result = simulate(SimConfig(law_b, 2, 70, 20_001, 5), checkpoints=checkpoints)
        assert sorted(result.terminal_at) == checkpoints
        for n in checkpoints:
            alone = simulate(SimConfig(law_b, 2, n, 20_001, 5))
            assert np.array_equal(result.terminal_at[n], alone.terminal)
            for y in (0, 2, 30, 10_000):
                assert result.estimate(y, n) == alone.estimate(y)
        assert np.array_equal(result.terminal_at[70], result.terminal)

    def test_checkpoint_outside_horizon_rejected(self, law_a):
        with pytest.raises(InvalidSimConfig, match="checkpoint"):
            simulate(SimConfig(law_a, 0, 10, 10, 0), checkpoints=[11])

    def test_checkpoint_that_is_not_an_integer_rejected(self, law_a):
        with pytest.raises(InvalidSimConfig, match="checkpoint 2.5 is not an integer"):
            simulate(SimConfig(law_a, 0, 10, 10, 0), checkpoints=[2.5])

    def test_estimate_off_the_checkpoints_is_typed(self, law_a):
        result = simulate(SimConfig(law_a, 0, 10, 10, 0), checkpoints=[4, 2])
        assert result.estimate(0, 4).count == int(result.terminal_at[4][0])
        with pytest.raises(InvalidInput, match=r"n = 3 is not a checkpoint; recorded: \[2, 4\]"):
            result.estimate(0, 3)

    @pytest.mark.parametrize("chunk", [4, 64, 4096])
    def test_chunk_width_does_not_change_results(self, law_p5, monkeypatch, chunk):
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", chunk)
        config = SimConfig(law_p5, 1, 130, 3000, 17)
        reference = reference_walk(config, burnin=3)
        result = simulate(config)
        for name in RESULT_FIELDS:
            assert np.array_equal(getattr(result, name), reference[name]), name
        nu = estimate_nu(config, burnin=3)
        assert [nu[w].count for w in (1, 2)] == reference["kept"].tolist()

    @pytest.mark.parametrize("tile", [1, 7, None, 5000], ids=["1", "7", "default", "5000"])
    def test_tile_width_does_not_change_results(self, law_p5, monkeypatch, tile):
        # 1,201 paths in blocks of at most 600: three blocks of 400 paths at one
        # thread, four of 300 at two; tiles of 7 leave a short last tile
        monkeypatch.setattr(montecarlo, "_BLOCK_PATHS", 600)
        if tile is not None:
            monkeypatch.setattr(montecarlo, "_TILE_PATHS", tile)
        config = SimConfig(law_p5, 1, 70, 1201, 17)
        checkpoints = [0, 5, 64, 70]
        reference = reference_walk(config, burnin=3, checkpoints=checkpoints)
        for threads in ("1", "2"):
            monkeypatch.setenv("REFLECTWALK_THREADS", threads)
            result = simulate(config, checkpoints=checkpoints)
            for name in RESULT_FIELDS:
                assert np.array_equal(getattr(result, name), reference[name]), name
            for n in checkpoints:
                assert np.array_equal(result.terminal_at[n], reference["terminal_at"][n]), n
            nu = estimate_nu(config, burnin=3)
            assert [nu[w].count for w in (1, 2)] == reference["kept"].tolist()

    def test_simulate_memory_is_one_block_and_one_tile(self, law_b, monkeypatch):
        """At one thread a run holds one block at a time: its states and one
        int32 row of its paths per step, which holds a step's increments until
        the step adds the states to it in place (4 MB at 16,384 paths and 64
        steps). Each tile draws into tile-sized Philox lanes, bucket indices
        and int32 increments (2.5 MB), allocated once per block, and a chunk
        adds its counting temporaries: 8.7 MB in all. The bound leaves 25%
        headroom; a second block-wide int32 array would add 4 MB."""
        monkeypatch.setenv("REFLECTWALK_THREADS", "1")
        simulate(SimConfig(law_b, 0, 4, 10, 1))  # the pool's first-use imports
        tracemalloc.start()
        try:
            simulate(SimConfig(law_b, 0, 128, 32_768, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20

    def test_path_blocks_are_balanced(self):
        cap = montecarlo._BLOCK_PATHS
        for paths in (1, 2, 3, 5, 20_000, 40_000, 131_072, 3 * cap + 1):
            for workers in (1, 2, 3, 4, 64):
                blocks = montecarlo._path_blocks(paths, workers)
                sizes = [hi - lo for lo, hi in blocks]
                assert blocks[0][0] == 0 and blocks[-1][1] == paths
                assert all(b[1] == c[0] for b, c in zip(blocks, blocks[1:]))
                assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
                least = -(-paths // cap)
                assert len(blocks) % min(workers, least) == 0
                assert least <= len(blocks) < 2 * least
        assert [hi - lo for lo, hi in montecarlo._path_blocks(20_000, 2)] == [10_000, 10_000]
        assert [hi - lo for lo, hi in montecarlo._path_blocks(40_000, 2)] == [10_000] * 4

    def test_small_runs_stay_in_one_block(self):
        # Many threads must not cut a long, narrow run into tiny blocks.
        cap = montecarlo._BLOCK_PATHS
        for workers in (1, 2, 64, 1000):
            assert montecarlo._path_blocks(300, workers) == [(0, 300)]
            assert montecarlo._path_blocks(cap, workers) == [(0, cap)]
            assert len(montecarlo._path_blocks(20_000, workers)) == 2

    def test_bad_config_rejected(self, law_a):
        with pytest.raises(ValueError):
            SimConfig(law_a, -1, 5, 10, 0)
        with pytest.raises(ValueError):
            SimConfig(law_a, 0, 5, 0, 0)

    @pytest.mark.parametrize(
        "start,horizon,paths,field", [(-1, 5, 10, "start"), (0, -1, 10, "horizon"), (0, 5, 0, "paths")]
    )
    def test_bad_config_error_is_typed(self, law_a, start, horizon, paths, field):
        with pytest.raises(InvalidSimConfig, match=field) as info:
            SimConfig(law_a, start, horizon, paths, 0)
        assert isinstance(info.value, ReflectWalkError)

    @pytest.mark.parametrize("setting,workers", [("-3", 1), ("0", 1), ("3", 3), ("1000", 1000)])
    def test_thread_setting_is_read(self, monkeypatch, setting, workers):
        monkeypatch.setenv("REFLECTWALK_THREADS", setting)
        assert montecarlo._max_workers() == workers

    def test_bad_thread_setting_rejected(self, law_a, monkeypatch):
        monkeypatch.setenv("REFLECTWALK_THREADS", "two")
        with pytest.raises(InvalidSimConfig, match="REFLECTWALK_THREADS"):
            simulate(SimConfig(law_a, 0, 5, 10, 0))


class TestCaps:
    """Each cap admits its limit and rejects one more; nothing is simulated."""

    def test_horizon_cap(self, law_a):
        SimConfig(law_a, 0, STREAMING_N_MAX_CAP, 1, 0)
        with pytest.raises(HorizonTooLarge, match="horizon"):
            SimConfig(law_a, 0, STREAMING_N_MAX_CAP + 1, 1, 0)

    def test_path_steps_cap(self, law_a):
        # the README's 10^9, as a literal so that moving the cap fails here
        SimConfig(law_a, 0, 1, 10**9, 0)
        with pytest.raises(HorizonTooLarge, match="paths"):
            SimConfig(law_a, 0, 1, 10**9 + 1, 0)

    def test_path_steps_cap_on_a_long_horizon(self, law_a):
        # paths * horizon exactly at the cap with both factors large, then one more path
        horizon = STREAMING_N_MAX_CAP
        paths = montecarlo.PATH_STEPS_CAP // horizon
        assert paths * horizon == montecarlo.PATH_STEPS_CAP
        SimConfig(law_a, 0, horizon, paths, 0)
        with pytest.raises(HorizonTooLarge, match="paths"):
            SimConfig(law_a, 0, horizon, paths + 1, 0)

    def test_caps_are_the_readme_values(self):
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        caps = [
            (MEMORY_CAP_FLOATS, 50_000_000, "an estimated 5·10^7 floats at most"),
            (DEFAULT_N_MAX_CAP, 10_000, "and a horizon of at most 10,000"),
            (STREAMING_N_MAX_CAP, 50_000, "takes at most 50,000 steps"),
            (montecarlo.PATH_STEPS_CAP, 1_000_000_000, "`paths * horizon` at most 10^9"),
            (montecarlo.STATE_CAP, 5_000_000, "`start + b * horizon` at most 5,000,000"),
        ]
        for cap, value, stated in caps:
            assert cap == value and stated in readme

    def test_state_cap(self, law_p5):
        reach = montecarlo.STATE_CAP - law_p5.b * 10
        SimConfig(law_p5, reach, 10, 1, 0)
        with pytest.raises(HorizonTooLarge, match="start"):
            SimConfig(law_p5, reach + 1, 10, 1, 0)

    def test_landing_table_cap(self, law_p5):
        paths = montecarlo.MEMORY_CAP_FLOATS // law_p5.a + 1
        with pytest.raises(HorizonTooLarge, match="paths"):
            estimate_nu(SimConfig(law_p5, 0, 1, paths, 0))


def edge_draws(law, words=()):
    """Words at the guide-bucket edges around each cdf threshold, next to each
    threshold, and `words`, as uint32 of shape (n, 4)."""
    words = set(words)
    for c in np.cumsum(law.masses):
        w = int(c * 2**32)
        words.update({w - 1, w, w + 1})
        k = w >> 16
        words.update({(k << 16) - 1, k << 16, ((k + 1) << 16) - 1, (k + 1) << 16})
    words = sorted(w for w in words if 0 <= w < 2**32)
    words += [0] * (-len(words) % 4)
    return np.array(words, dtype=np.uint32).reshape(-1, 4)


@st.composite
def laws_and_draws(draw):
    """A law whose masses may fall below 2^-16, which puts several cdf
    thresholds in one guide bucket, with draws at its bucket edges."""
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 6))
    weights = draw(
        st.lists(st.one_of(st.floats(1e-12, 2.0**-16), st.floats(1e-3, 1.0)), min_size=a + b + 1, max_size=a + b + 1)
    )
    weights = np.array(weights) / math.fsum(weights)
    law = law_from_masses({k - a: float(m) for k, m in enumerate(weights)})
    return law, edge_draws(law, draw(st.lists(st.integers(0, 2**32 - 1), max_size=20)))


# four cdf thresholds between 0.3 and 0.3 + 6e-9, all in one guide bucket
CLUSTERED = law_from_masses({-2: 0.3, -1: 1e-9, 0: 2e-9, 1: 3e-9, 2: 0.7 - 6e-9})


@settings(max_examples=200, deadline=None)
@given(laws_and_draws())
@example((CLUSTERED, edge_draws(CLUSTERED)))
def test_guide_table_matches_searchsorted(case):
    law, w = case
    expected = np.searchsorted(np.cumsum(law.masses), w * 2.0**-32, side="right") + law.lo
    got = montecarlo._IncrementMap(law)(w, np.empty(w.size, np.intp), np.empty(w.size + 5, np.int32))
    assert np.array_equal(got, expected)


class TestEstimatePxy:
    def test_time_zero_indicator(self, law_a):
        result = simulate(SimConfig(law_a, 3, 0, 500, 1))
        est = result.estimate(3)
        assert est.point == 1.0 and est.stderr == 0.0
        est = result.estimate(2)
        assert est.point == 0.0 and est.stderr == 0.0

    def test_matches_dp_law_a(self, law_a):
        result = simulate(SimConfig(law_a, 0, 50, 200_000, 7))
        exact = n_step_table(law_a, 0, 50)[50]
        for y in (0, 1, 2):
            est = result.estimate(y)
            assert abs(est.point - exact[y]) < 4 * max(est.stderr, 1e-9)

    def test_matches_dp_law_b(self, law_b):
        result = simulate(SimConfig(law_b, 0, 30, 200_000, 13))
        exact = n_step_table(law_b, 0, 30)[30]
        for y in (5, 9, 12):
            est = result.estimate(y)
            assert abs(est.point - exact[y]) < 4 * max(est.stderr, 1e-9)

    def test_stderr_formula(self, law_a):
        est = estimate_pxy(SimConfig(law_a, 0, 10, 4000, 3), 1)
        assert est.stderr == pytest.approx(
            np.sqrt(est.point * (1 - est.point) / 4000), rel=1e-12
        )

    def test_coverage_calibration(self, law_a):
        # ~95% of 2-stderr intervals should cover the exact value
        exact = n_step_table(law_a, 0, 20)[20][1]
        hits = 0
        for seed in range(200):
            est = estimate_pxy(SimConfig(law_a, 0, 20, 4000, 1000 + seed), 1)
            if abs(est.point - exact) <= 2 * est.stderr:
                hits += 1
        assert 180 <= hits <= 200


class TestEstimateNu:
    def test_law_a_is_exactly_delta(self, law_a):
        est = estimate_nu(SimConfig(law_a, 0, 2000, 100, 21), burnin=10)
        assert est[1].point == 1.0

    def test_five_point_matches_closed_form(self, law_p5):
        ladder = ladder_laws(law_p5)
        nu = stationary_nu(ladder, r_core(ladder))
        est = estimate_nu(SimConfig(law_p5, 0, 20_000, 300, 2024), burnin=100)
        for w in (1, 2):
            assert abs(est[w].point - nu[w - 1]) < 3 * est[w].stderr

    def test_burnin_insensitive(self, law_p5):
        config = SimConfig(law_p5, 0, 8000, 200, 5)
        a = estimate_nu(config, burnin=0)
        b = estimate_nu(config, burnin=100)
        for w in (1, 2):
            assert abs(a[w].point - b[w].point) < 3 * max(a[w].stderr, b[w].stderr)

    def test_many_blocks_match_reference(self, law_p5, monkeypatch):
        # five blocks of 90 paths at one thread, six of 75 at two
        config = SimConfig(law_p5, 0, 300, 450, 8)
        whole = estimate_nu(config, burnin=2)
        monkeypatch.setattr(montecarlo, "_BLOCK_PATHS", 100)
        assert len(montecarlo._path_blocks(config.paths, 1)) == 5
        reference = reference_walk(config, burnin=2)
        for threads in ("1", "2"):
            monkeypatch.setenv("REFLECTWALK_THREADS", threads)
            est = estimate_nu(config, burnin=2)
            assert [est[w].count for w in (1, 2)] == reference["kept"].tolist()
            assert est == whole

    def test_no_reflections_raises(self, law_b):
        # positive drift from far out: no reflection in a short horizon
        with pytest.raises(NoReflectionsObserved):
            estimate_nu(SimConfig(law_b, 500, 10, 50, 3), burnin=0)


def test_cli_import_leaves_the_thread_pool_out():
    # the pool module is imported by the first Monte Carlo run, not by every command
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, reflectwalk.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
