import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectwalk import (
    HorizonTooLarge,
    InvalidInput,
    ascent_joint_table,
    descent_joint_table,
    excursion_series,
    excursion_table,
    law_from_masses,
    n_step_rows,
    n_step_series,
    n_step_table,
    reflection_time_table,
    stay_nonneg_table,
    stay_series,
    step_row,
    verify_first_reflection_identity,
    verify_ladder_factorizations,
)
from reflectwalk.chain import DEFAULT_N_MAX_CAP, STREAMING_N_MAX_CAP, TINY, _columns, _evolve
from conftest import assert_matches_untrimmed, assert_trimmed, dp_step, random_laws, untrimmed_walk


class TestStepRow:
    def test_law_a_at_origin(self, law_a):
        assert step_row(law_a, 0).entries == pytest.approx({0: 1 / 3, 1: 2 / 3})

    def test_law_a_interior(self, law_a):
        assert step_row(law_a, 5).entries == pytest.approx(
            {4: 1 / 3, 5: 1 / 3, 6: 1 / 3}
        )

    def test_law_b_at_origin(self, law_b):
        # folding: mu(1) + mu(-1) = 0.7
        assert step_row(law_b, 0).entries == pytest.approx({0: 0.3, 1: 0.7})

    def test_rows_are_stochastic(self):
        for law in random_laws(5, seed=2, centered=False):
            for x in range(0, 6):
                total = math.fsum(step_row(law, x).entries.values())
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_one_step_table(self, law_p5):
        for x in (0, 1, 3):
            row = step_row(law_p5, x)
            step = n_step_table(law_p5, x, 1)[1]
            assert np.flatnonzero(step).tolist() == sorted(row.entries)
            for y, q in row.entries.items():
                assert step[y] == pytest.approx(q, abs=1e-16)


class TestNStepTable:
    def test_time_zero(self, law_b):
        (row,) = n_step_table(law_b, 3, 0)
        assert row.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_law_a_two_steps(self, law_a):
        # 1/3*1/3 (stay twice) + 2/3*1/3 (out and back)
        assert n_step_table(law_a, 0, 2)[2][0] == pytest.approx(1 / 3, abs=1e-15)

    def test_stochastic_to_1000(self, law_a, law_b):
        for law in (law_a, law_b):
            table = n_step_table(law, 0, 1000)
            assert len(table) == 1001
            totals = np.array([row.sum() for row in table])
            assert np.max(np.abs(totals - 1.0)) < 1e-12

    def test_rows_stream_in_table_order(self, law_p5):
        rows = n_step_rows(law_p5, 1, 30)
        assert iter(rows) is rows  # a generator, not a stored table
        for streamed, stored in zip(rows, n_step_table(law_p5, 1, 30), strict=True):
            assert np.array_equal(streamed, stored) and not streamed.flags.writeable

    def test_rows_check_their_budget_at_the_call(self, law_a):
        # `exact` writes its CSV header only after this call returns
        with pytest.raises(HorizonTooLarge):
            n_step_rows(law_a, 0, DEFAULT_N_MAX_CAP + 1)
        with pytest.raises(InvalidInput):
            n_step_rows(law_a, -1, 5)

    def test_horizon_guard(self, law_a):
        with pytest.raises(HorizonTooLarge):
            n_step_table(law_a, 0, 20_000)

    def test_float_estimate_refuses_before_the_horizon_cap(self, law_a):
        # (n + 1) + n (n + 1) / 2 floats passes 5e7 at n = 9,999 on lawA, so
        # the estimate, not DEFAULT_N_MAX_CAP, is the stored horizon limit;
        # the budget is checked at the call, so no step runs here
        n_step_rows(law_a, 0, 9_998)
        with pytest.raises(HorizonTooLarge, match="floats"):
            n_step_rows(law_a, 0, 9_999)

    def test_a_shrinking_row_leaves_nothing_behind(self):
        # a row can end well short of the row before it: with a 1e-9 up-move
        # the far tail falls below TINY from n = 35 on, and a start row whose
        # last entry steps below TINY loses about 100 states at once. What the
        # longer row left in a reused buffer is zeroed: no buffer holds
        # anything past the row it yields, and every row is the trimmed step
        law = law_from_masses({-3: 0.5, -2: 0.5 - 1e-9, 1: 1e-9})
        whole, _ = untrimmed_walk(law, 6, 40, fold=True)
        assert_trimmed(n_step_table(law, 6, 40), whole, law, fold=True)
        start = np.zeros(101)
        start[[0, 100]] = 0.5, 3e-308
        for row, _ in _evolve(start, law_from_masses({-1: 0.5, 1: 0.5}).masses, 1, 40, stored=True):
            begin = (row.ctypes.data - row.base.ctypes.data) // row.itemsize
            assert not row.base[begin + row.size :].any()


class TestExcursionAndReflection:
    def test_excursion_one_step(self, law_a):
        row = excursion_table(law_a, 0, 1)[1]
        assert row[0] == pytest.approx(1 / 3, abs=1e-16)
        assert row[1] == pytest.approx(1 / 3, abs=1e-16)
        assert row.sum() == pytest.approx(2 / 3, abs=1e-16)

    def test_far_from_wall_matches_free_walk(self, law_p5):
        # no boundary interaction: excursion from large x is the unrestricted walk
        x, n = 30, 10
        exc = excursion_table(law_p5, x, n)
        free = np.array([1.0])
        for m in range(1, n + 1):
            free = np.convolve(free, law_p5.masses)
            for i, p in enumerate(free):
                dy = i - law_p5.a * m
                assert exc[m][x + dy] == pytest.approx(p, abs=1e-15)

    def test_row_sums_decrease(self, law_b):
        totals = [row.sum() for row in excursion_table(law_b, 1, 80)]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_reflection_entries_law_a(self, law_a):
        refl = reflection_time_table(law_a, 0, 10)
        assert refl.shape == (1, 11)  # landings lie in [1, a], a = 1
        assert refl[0, 1] == pytest.approx(1 / 3, abs=1e-16)
        assert refl[0, 2] == pytest.approx(1 / 9, abs=1e-16)
        assert refl[0, 0] == 0.0  # no reflection at time 0

    def test_bookkeeping_identity(self, law_a, law_b, law_p5):
        # excursion mass + cumulative reflection mass = 1 at every horizon
        for law in (law_a, law_b, law_p5):
            exc = excursion_table(law, 2, 120)
            refl = reflection_time_table(law, 2, 120)
            cum = 0.0
            for n in range(121):
                cum += refl[:, n].sum()
                assert exc[n].sum() + cum == pytest.approx(1.0, abs=1e-12)

    def test_excursion_series_matches_table(self, law_b):
        table = excursion_table(law_b, 2, 50)
        series = excursion_series(law_b, 2, [0, 3], 50)
        for y in (0, 3):
            assert np.array_equal(series[y], [row[y] if y < row.size else 0.0 for row in table])

    def test_streamed_series_match_tables_past_underflow(self, law_a):
        # every walk cuts the tail that 3^-n leaves below TINY from n ~ 645 on;
        # the streamed columns are the stored table's, bit for bit, and both
        # keep every bit of the untrimmed recursion down to 1e-280
        n, ys = 1500, [0, 2, 700, 1400]
        fold, _ = untrimmed_walk(law_a, 2, n, fold=True)
        kill, _ = untrimmed_walk(law_a, 2, n)
        for table, series, full, walk in (
            (n_step_table(law_a, 2, n), n_step_series(law_a, 2, ys, n), fold, {"fold": True}),
            (excursion_table(law_a, 2, n), excursion_series(law_a, 2, ys, n), kill, {}),
        ):
            assert full[n][-1] == 0.0 and table[n].size < full[n].size
            assert_trimmed(table, full, law_a, **walk)
            for y in ys:
                assert np.array_equal(series[y], [row[y] if y < row.size else 0.0 for row in table])
                assert_matches_untrimmed(series[y], [row[y] if y < row.size else 0.0 for row in full])


class TestIdentities:
    def test_hand_case(self, law_a):
        # n=1, x=0, y=1: 2/3 = 1/3 (no reflection) + 1/3 * 1 (reflect to 1)
        assert verify_first_reflection_identity(law_a, [0], [1], 1) == pytest.approx(
            0.0, abs=1e-16
        )

    def test_first_reflection_grid(self, law_a, law_b):
        for law in (law_a, law_b):
            assert verify_first_reflection_identity(law, (0, 1, 3), (0, 1, 2), 60) < 1e-12

    def test_ladder_factorizations_grid(self, law_a, law_b, law_p5):
        for law in (law_a, law_b, law_p5):
            res_e, res_r = verify_ladder_factorizations(law, (0, 1, 3), (0, 1, 2), 60)
            assert res_e < 1e-12 and res_r < 1e-12

    def test_random_laws_identities(self):
        for law in random_laws(3, seed=17, centered=False):
            assert verify_first_reflection_identity(law, [2], [1], 40) < 1e-12
            res_e, res_r = verify_ladder_factorizations(law, [2], [1], 40)
            assert res_e < 1e-12 and res_r < 1e-12

    @pytest.mark.parametrize("name", ["law_a", "law_b", "law_p5", "random"])
    def test_grid_is_max_of_one_pair_checks(self, name, request):
        # each start is walked once for the whole grid; every y reads that walk
        if name == "random":
            law = random_laws(1, seed=23, centered=False)[0]
        else:
            law = request.getfixturevalue(name)
        xs, ys, n = (0, 1, 3), (0, 1, 2, 4), 50
        pairs = [(x, y) for x in xs for y in ys]
        first = max(verify_first_reflection_identity(law, [x], [y], n) for x, y in pairs)
        assert verify_first_reflection_identity(law, xs, ys, n) == first
        singles = [verify_ladder_factorizations(law, [x], [y], n) for x, y in pairs]
        ladder = verify_ladder_factorizations(law, xs, ys, n)
        assert ladder == (max(e for e, _ in singles), max(r for _, r in singles))

    def test_negative_start_is_rejected(self, law_a):
        # the ladder check walks 0..max(xs); a negative x must not index that list
        with pytest.raises(InvalidInput):
            verify_ladder_factorizations(law_a, [-1, 2], [1], 5)
        with pytest.raises(InvalidInput):
            verify_first_reflection_identity(law_a, [-1, 2], [1], 5)

    def test_identities_stream_past_the_stored_cap(self, law_a):
        # the checks read streamed walks, so only the streamed cap applies
        n = DEFAULT_N_MAX_CAP + 1
        assert verify_first_reflection_identity(law_a, [2], [1], n) < 1e-12
        res_e, res_r = verify_ladder_factorizations(law_a, [2], [1], n)
        assert res_e < 1e-12 and res_r < 1e-12


# every streamed builder, as (law, start, horizon) -> result
STREAMED = {
    "n_step_series": lambda law, x, n: n_step_series(law, x, [0], n),
    "excursion_series": lambda law, x, n: excursion_series(law, x, [0], n),
    "stay_series": lambda law, x, n: stay_series(law, [0], n)[0],
    "descent_joint_table": lambda law, x, n: descent_joint_table(law, n),
    "ascent_joint_table": lambda law, x, n: ascent_joint_table(law, n),
}


class TestStreamedInputChecks:
    """The streamed builders share `_check_budget`: a bad start or horizon
    raises a typed error before any step runs."""

    @pytest.mark.parametrize("name", sorted(STREAMED))
    def test_horizon_cap(self, name, law_a):
        with pytest.raises(HorizonTooLarge):
            STREAMED[name](law_a, 0, STREAMING_N_MAX_CAP + 1)

    @pytest.mark.parametrize("name", sorted(STREAMED))
    def test_negative_horizon(self, name, law_a):
        with pytest.raises(InvalidInput):
            STREAMED[name](law_a, 0, -1)

    @pytest.mark.parametrize("name", ["n_step_series", "excursion_series"])
    def test_negative_start(self, name, law_a):
        with pytest.raises(InvalidInput):
            STREAMED[name](law_a, -1, 5)


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_series_are_read_only_float64(name, law_p5):
    # a series is its coefficient array; a 2-D table is one series per row
    result = STREAMED[name](law_p5, 1, 12)
    tables = list(result.values()) if isinstance(result, dict) else [result, result[0]]
    for series in tables:
        assert series.dtype == np.float64
        assert series.shape[-1] == 13
        with pytest.raises(ValueError):
            series[..., 0] = 1.0


# every table builder, as (law, start, horizon) -> tuple of rows
TABLES = {
    "n_step_table": n_step_table,
    "excursion_table": excursion_table,
    "stay_nonneg_table": lambda law, x, n: stay_nonneg_table(law, n),
}
# tiny and zero weights make rows underflow, or hold zeros, within a few steps
WEIGHTS = st.one_of(st.sampled_from([0.0, 1e-300, 1e-160, 1e-9]), st.floats(0.01, 1.0))


@st.composite
def lattice_laws(draw):
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    inner = draw(st.lists(WEIGHTS, min_size=a + b - 1, max_size=a + b - 1))
    ends = draw(st.lists(st.one_of(st.sampled_from([1e-300, 1e-160]), st.floats(0.01, 1.0)),
                         min_size=2, max_size=2))
    weights = np.array([ends[0], *inner, ends[1]])
    return law_from_masses({k - a: float(w) for k, w in enumerate(weights / weights.sum())})


@pytest.mark.parametrize("name", sorted(TABLES))
@given(law=lattice_laws(), x=st.integers(0, 5), n=st.integers(0, 40))
def test_stored_rows_are_trimmed_and_read_only(name, law, x, n):
    table = TABLES[name](law, x, n)
    assert isinstance(table, tuple) and len(table) == n + 1
    for row in table:
        assert row.size == 1 or row[-1] >= TINY
        assert row.dtype == np.float64 and not row.flags.writeable


# every odd state of the walk from an even start holds exactly 0
PERIODIC = law_from_masses({-2: 0.5, 2: 0.5})


@settings(max_examples=120, deadline=None)
@given(law=st.one_of(lattice_laws(), st.just(PERIODIC)), x=st.integers(0, 5),
       ys=st.sets(st.integers(0, 6), max_size=3), n=st.integers(0, 300), fold=st.booleans(),
       last_first=st.booleans())
# the cone of y = 1 cuts the last row before the fold target 2
@example(law=law_from_masses({k: 0.2 for k in range(-2, 3)}), x=0, ys={1}, n=5, fold=True, last_first=False)
@example(law=PERIODIC, x=1, ys={1}, n=3, fold=True, last_first=True)
# the cone's edge trim drops a subnormal entry that the uncut walk keeps
@example(law=law_from_masses({-2: 1e-300, -1: 0.0625, 1: 1.0 - 0.0625 - 2e-300, 2: 1e-300}), x=0, ys={1},
         n=30, fold=False, last_first=False)
def test_cone_columns_match_the_uncut_walk(law, x, ys, n, fold, last_first):
    """`_columns` steps row n only up to entry R + a (n_max - n), R the deepest
    entry it reads. The cone can differ from the uncut walk only through the
    sub-TINY trim at its edge, the same class of entries that the trim of
    every row moves. So each series and the killed array match the untrimmed
    walk as `assert_matches_untrimmed` states; and where the uncut walk that
    the stored tables keep holds no subnormal entry, the edge trim cuts only
    zeros, so they equal its columns bit for bit."""
    columns, killed = _columns(x, law.masses, law.a, ys, n, fold=fold, last_first=last_first)
    walk = _evolve(x, law.masses, law.a, n, fold=fold, last_first=last_first, stored=True)
    table, lost = zip(*((row.copy(), None if k is None else k.copy()) for row, k in walk))
    exact = not any(np.any((row > 0.0) & (row < TINY)) for row in table)
    whole, whole_killed = untrimmed_walk(law, x, n, fold, last_first)
    assert sorted(columns) == sorted(ys)
    for y, series in columns.items():
        assert_matches_untrimmed(series, [row[y] if y < row.size else 0.0 for row in whole])
        assert not exact or np.array_equal(series, [row[y] if y < row.size else 0.0 for row in table])
    if fold:
        assert killed is None
    else:
        for w in range(law.a):
            assert_matches_untrimmed(killed[w], whole_killed[:, w])
        assert not exact or np.array_equal(killed, np.array(lost).T)


# a stored walk's rows, as (law, horizon) -> iterator, with its fold and tap order
KEPT = {
    "n_step_rows": (lambda law, n: n_step_rows(law, 2, n), True, False),
    "excursion_table": (lambda law, n: excursion_table(law, 2, n), False, False),
    "stay_nonneg_table": (lambda law, n: stay_nonneg_table(law, n), False, True),
}


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_rows_outlive_the_walk(name, law_asym):
    # the walk steps in two reused buffers; each row it hands out is a copy,
    # so after the walk has ended every kept row is still read-only and still
    # the trimmed step of the row before it (the tail falls below TINY and
    # the buffers grow on the way)
    rows_of, fold, last_first = KEPT[name]
    kept = list(rows_of(law_asym, 800))
    for before, row in zip(kept, kept[1:]):
        assert not row.flags.writeable
        assert row.size == 1 or row[-1] >= TINY
        step, _ = dp_step(before, law_asym, fold, last_first)
        assert np.array_equal(row, step[: row.size]) and np.all(step[row.size :] < TINY)
    assert not kept[0].flags.writeable
