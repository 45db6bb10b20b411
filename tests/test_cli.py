import contextlib
import io
import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reflectwalk import (
    chain,
    descent_joint_table,
    excursion_series,
    factorize_at,
    fluctuation,
    ladder_laws,
    load_law,
    n_step_table,
    reflection,
    wiener_hopf,
)
from reflectwalk.cli import _centered_base, _emit_csv, _exact_block, main
from reflectwalk.reflection import e_value
from conftest import golden_mismatch

LAWS = Path(__file__).parent / "laws"
GOLDEN = Path(__file__).parent / "golden"
LAW_A = str(LAWS / "lawA.json")
LAW_B = str(LAWS / "lawB.json")

GOLDEN_CASES = [
    ("analyze_lawA", ["analyze", "--law", LAW_A]),
    ("analyze_lawB", ["analyze", "--law", LAW_B]),
    ("ladder_lawA", ["ladder", "--law", LAW_A, "--emit-depth", "8"]),
    ("ladder_lawB", ["ladder", "--law", LAW_B, "--emit-depth", "8"]),
    ("constants_lawA", ["constants", "--law", LAW_A, "--y", "0", "--oracle-n", "2000"]),
    ("constants_lawB", ["constants", "--law", LAW_B, "--y", "0"]),
    ("validate_lawA", ["validate", "--law", LAW_A]),
    ("validate_lawB", ["validate", "--law", LAW_B]),
    ("simulate_lawB", ["simulate", "--law", LAW_B, "--start", "0", "--n", "50",
                       "--paths", "40000", "--seed", "7"]),
    ("compare_lawA", ["compare", "--law", LAW_A, "--y", "1", "--n-max", "256",
                      "--paths", "20000", "--seed", "3"]),
    ("constants_internals_lawA", ["constants", "--law", LAW_A, "--x", "1", "--y", "1",
                                  "--no-oracle", "--dump-internals"]),
    ("constants_internals_lawB", ["constants", "--law", LAW_B, "--x", "1", "--y", "1",
                                  "--no-oracle", "--dump-internals"]),
    ("exact_lawA", ["exact", "--law", LAW_A, "--start", "2", "--n", "60"]),
    ("exact_lawB", ["exact", "--law", LAW_B, "--start", "3", "--n", "40"]),
    ("ladder_oracle_lawA", ["ladder", "--law", LAW_A, "--oracle", "64"]),
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenFiles:
    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_golden(self, name, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        path = GOLDEN / f"{name}.out"
        if os.environ.get("REFLECTWALK_REGEN_GOLDEN"):
            path.write_text(out)
        golden = path.read_text()
        assert out == golden, golden_mismatch(name, out, golden)


def exact_gap(target, coeffs):
    """target - sum(coeffs) in exact rational arithmetic, rounded once."""
    return float(Fraction(target) - sum(map(Fraction, coeffs.tolist())))


class TestValidatePartialSums:
    """The four DP partial-sum checks report the exact difference between the
    closed form and the DP coefficients, correctly rounded."""

    ORACLE_N = 2000

    @pytest.mark.parametrize("law_path", [LAW_A, LAW_B], ids=["lawA", "lawB"])
    def test_checks_are_exact_gaps(self, law_path, capsys):
        code, out, _ = run(
            ["validate", "--law", law_path, "--oracle-n", str(self.ORACLE_N)], capsys
        )
        assert code == 0
        values = {c["name"]: c["value"] for c in json.loads(out)["checks"]}

        base, _, _ = _centered_base(load_law(law_path))
        ladder = ladder_laws(base)
        descent = [
            exact_gap(ladder.mu_minus[w - 1], s)
            for w, s in enumerate(descent_joint_table(base, self.ORACLE_N), start=1)
        ]
        assert values["descent_partial_sums_gap"] == max(descent)
        assert values["descent_partial_sums_below_target"] == max(-g for g in descent)

        exc = excursion_series(base, 0, [0], 10_000)[0]
        gap = exact_gap(e_value(ladder, 0, 0), exc)
        assert values["excursion_partial_gap"] == gap
        assert values["excursion_partial_below_closed"] == -gap


@pytest.mark.parametrize("law_path", [LAW_A, LAW_B], ids=["lawA", "lawB"])
def test_validate_factorizes_seven_times(law_path, monkeypatch, capsys):
    # the s = 1 pair, s = 0.5, 0.9, 0.99, the two Richardson pairs and the
    # eigenvalue pair at 1 - 1e-4: the constant reuses validate's objects
    calls = []

    def counting(law, s):
        calls.append(s)
        return factorize_at(law, s)

    monkeypatch.setattr(wiener_hopf, "factorize_at", counting)
    monkeypatch.setattr(reflection, "factorize_at", counting)
    code, _, _ = run(["validate", "--law", law_path, "--oracle-n", "400"], capsys)
    assert code == 0
    assert len(calls) == 7, calls


@pytest.mark.parametrize("law_path", [LAW_A, LAW_B], ids=["lawA", "lawB"])
def test_validate_walks_each_identity_start_once(law_path, monkeypatch, capsys):
    # the n = 60 identity grid: starts 0, 1, 3 killed and folded (the landing
    # point 1 is one of them), the killed starts 0..3 of the ladder check and
    # one half-line walk for both U+ and T
    horizons = []
    evolve = chain._evolve

    def counting(start, taps, offset, n_max, **kwargs):
        horizons.append(n_max)
        return evolve(start, taps, offset, n_max, **kwargs)

    monkeypatch.setattr(chain, "_evolve", counting)
    monkeypatch.setattr(fluctuation, "_evolve", counting)
    code, _, _ = run(["validate", "--law", law_path, "--oracle-n", "400"], capsys)
    assert code == 0
    assert horizons.count(60) == 11, horizons


def test_dump_internals_builds_each_kernel_row_once(monkeypatch, capsys):
    # one row and one slope row per window state, plus the a core rows that
    # stationary_nu reads; the kernel oracle reads the core's rows
    calls = {"r_row": 0, "r_tilde_row": 0}
    for name in calls:
        fn = getattr(reflection, name)

        def counting(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(reflection, name, counting)
    argv = ["constants", "--law", LAW_A, "--x", "1", "--y", "1", "--no-oracle", "--dump-internals"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    window = len(json.loads(out)["internals"]["R_rows"])
    assert calls == {"r_row": window + 1, "r_tilde_row": window}


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["analyze"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_one(self, capsys):
        assert main(["frobnicate", "--law", LAW_A]) == 1

    def test_missing_law_file_is_one(self, capsys):
        assert main(["analyze", "--law", "/nonexistent.json"]) == 1
        assert "law file error" in capsys.readouterr().err

    def test_malformed_law_reports_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"masses": {"x": 1.0}}')
        assert main(["analyze", "--law", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.json" in err and '"x"' in err

    def test_validate_success_is_zero(self, capsys):
        assert main(["validate", "--law", LAW_A, "--oracle-n", "4000"]) == 0

    def test_validation_failure_is_two(self, tmp_path, capsys):
        # a periodic law breaks the hypotheses: constants cannot be assembled
        law = tmp_path / "periodic.json"
        law.write_text('{"masses": {"-1": 0.5, "1": 0.5}}')
        assert main(["constants", "--law", str(law), "--y", "0"]) == 2

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["exact", "--law", LAW_A, "--start", "-1", "--n", "5"], "start"),
            (["exact", "--law", LAW_A, "--start", "0", "--n", "-1"], "horizon"),
            (["compare", "--law", LAW_A, "--x", "-1", "--y", "0", "--n-max", "32"], "x"),
            (["compare", "--law", LAW_A, "--y", "-1", "--n-max", "32"], "y"),
            (["constants", "--law", LAW_B, "--y", "-2", "--no-oracle"], "y"),
            (["ladder", "--law", LAW_A, "--oracle", "0"], "horizon"),
            (["validate", "--law", LAW_A, "--y", "-1", "--oracle-n", "400"], "y"),
        ],
        ids=["exact_start", "exact_n", "compare_x", "compare_y", "constants_y", "ladder_oracle",
             "validate_y"],
    )
    def test_bad_state_or_horizon_is_one_line(self, argv, field, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("input error:")
        assert f"{field} " in err and "Traceback" not in err


class TestManifest:
    def test_manifest_on_stderr(self, capsys):
        code, out, err = run(["analyze", "--law", LAW_A], capsys)
        assert code == 0
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["command"] == "analyze"
        assert len(manifest["law_digest"]) == 64
        assert manifest["version"]
        assert "wall_time_s" in manifest

    def test_same_invocation_same_digest(self, capsys):
        _, _, err1 = run(["analyze", "--law", LAW_A], capsys)
        _, _, err2 = run(["analyze", "--law", LAW_A], capsys)
        d1 = json.loads(err1.strip().splitlines()[-1])["law_digest"]
        d2 = json.loads(err2.strip().splitlines()[-1])["law_digest"]
        assert d1 == d2


class TestExact:
    def test_time_zero_single_row(self, capsys):
        code, out, _ = run(["exact", "--law", LAW_A, "--start", "0", "--n", "0"], capsys)
        assert code == 0
        assert out.splitlines() == ["n,y,probability", "0,0,1"]

    def test_rows_are_probabilities(self, capsys):
        code, out, _ = run(["exact", "--law", LAW_B, "--start", "2", "--n", "6"], capsys)
        lines = out.splitlines()[1:]
        by_n = {}
        for line in lines:
            n, y, p = line.split(",")
            by_n.setdefault(int(n), 0.0)
            by_n[int(n)] += float(p)
        assert all(abs(total - 1.0) < 1e-11 for total in by_n.values())


class TestSimulateAndCompare:
    def test_simulate_reproducible(self, capsys):
        argv = ["simulate", "--law", LAW_A, "--start", "0", "--n", "8",
                "--paths", "20000", "--seed", "99"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2
        payload = json.loads(out1)
        total = sum(v["point"] for v in payload["terminal"].values())
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["simulate", "--law", LAW_A, "--start", "0", "--n", "8", "--paths", "0", "--seed", "1"], "paths"),
            (["simulate", "--law", LAW_A, "--start", "-1", "--n", "8", "--paths", "9", "--seed", "1"], "start"),
            (["simulate", "--law", LAW_A, "--start", "0", "--n", "-1", "--paths", "9", "--seed", "1"], "horizon"),
            (["compare", "--law", LAW_A, "--y", "0", "--n-max", "32", "--paths", "0"], "paths"),
        ],
        ids=["simulate_paths", "simulate_start", "simulate_n", "compare_paths"],
    )
    def test_bad_monte_carlo_input_is_one_line(self, argv, field, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and field in err and "Traceback" not in err

    def test_bad_thread_setting_is_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv("REFLECTWALK_THREADS", "two")
        argv = ["simulate", "--law", LAW_A, "--start", "0", "--n", "8", "--paths", "9", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "REFLECTWALK_THREADS" in err

    def test_simulate_cap_is_one_line(self, capsys):
        argv = ["simulate", "--law", LAW_A, "--start", "0", "--n", "50001", "--paths", "1", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cap" in err

    def test_ladder_oracle_cap_is_one_line(self, capsys):
        code, out, err = run(["ladder", "--law", LAW_A, "--oracle", "50001"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cap" in err

    def test_compare_table(self, capsys):
        argv = ["compare", "--law", LAW_A, "--y", "0", "--n-max", "512",
                "--paths", "20000", "--seed", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact,predicted,mc,mc_stderr"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [16, 32, 64, 128, 256, 512]
        # predicted relative gap shrinks along the tail of the grid
        gaps = [abs(float(r[1]) - float(r[2])) / float(r[1]) for r in rows]
        assert gaps[-1] < gaps[-2] < gaps[-3]
        # MC column sits within 4 stderr of exact
        for r in rows:
            assert abs(float(r[3]) - float(r[1])) < 4 * max(float(r[4]), 1e-9)


def reference_line(row) -> str:
    """The CSV line of one row as the per-value formatter wrote it: floats
    with 12 significant digits, everything else through str."""
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"


def write_csv(blocks) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_csv("h", blocks)
    return buf.getvalue()


def reference_exact(table) -> str:
    lines = ["n,y,probability\n"]
    for n, row in enumerate(table):
        lines += [reference_line((n, y, float(row[y]))) for y in range(row.shape[0]) if row[y] != 0.0]
    return "".join(lines)


# %g switches notation at exponents -5 and 12; 12 digits round some values across
SWITCH_POINTS = [
    1e-5, 1e-4, 9.99999999999e-5, 9.999999999995e-5, 0.5e-4,
    1e12, 999999999999.5, 999999999999.0, 1e11, 5e-324, 2.2250738585072014e-308,
]
SWITCH_POINTS += [math.nextafter(v, d) for v in (1e-5, 1e-4, 1e12) for d in (0.0, math.inf)]
CELLS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SWITCH_POINTS),
)


class TestCsvWriter:
    """`_emit_csv` writes the bytes the per-value formatter wrote."""

    @given(st.lists(CELLS, min_size=1, max_size=8))
    def test_row_template_matches_per_value_line(self, row):
        template = ",".join("%.12g" if isinstance(v, float) else "%d" for v in row) + "\n"
        assert write_csv([(template, tuple(row))]) == "h\n" + reference_line(row)

    @given(
        st.integers(0, 10**6),
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 1.0, allow_subnormal=True),
                st.sampled_from(SWITCH_POINTS),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @example(7, [0.0, 5e-324, 1e-5, 0.0, 1.0])
    def test_exact_block_matches_per_value_lines(self, n, values):
        row = np.array(values)
        expected = "".join(
            reference_line((n, y, v)) for y, v in enumerate(row.tolist()) if v != 0.0
        )
        assert write_csv([_exact_block(n, row)]) == "h\n" + expected

    def test_exact_on_random_law_matches_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        masses = rng.dirichlet(np.ones(17))
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"masses": {str(k - 8): float(m) for k, m in enumerate(masses)}}))
        code, out, _ = run(["exact", "--law", str(path), "--start", "3", "--n", "30"], capsys)
        assert code == 0
        assert out == reference_exact(n_step_table(load_law(str(path)), 3, 30))


def test_exact_memory_stays_near_the_stored_table(tmp_path, monkeypatch):
    """`exact` streams the DP: it holds a row and that row's text, far less
    than the stored table."""
    table_bytes = sum(row.nbytes for row in n_step_table(load_law(LAW_A), 0, 400))
    with open(tmp_path / "exact.csv", "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            assert main(["exact", "--law", LAW_A, "--start", "0", "--n", "400"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * table_bytes
