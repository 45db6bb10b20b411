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
    asymptotics,
    chain,
    cli,
    descent_joint_table,
    factorize_at,
    fluctuation,
    ladder_laws,
    load_law,
    minimize_mgf,
    n_step_table,
    reflection,
    stay_series,
    tilt,
    wiener_hopf,
)
from reflectwalk.cli import (
    _BLOCK, _HALF, _MID, _P10, _centered_base, _emit_csv, _emit_json, _exact_blocks, main,
)
from reflectwalk.errors import NonFiniteOutput
from reflectwalk.reflection import e_value
from conftest import dense_law, golden_mismatch, record_kernel_rows, rows_built, wide_drifted_law

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

        # entry 0 of the half-line walk from 0 is the excursion column at (0, 0)
        stay, _ = stay_series(base, [0], 10_000)
        gap = exact_gap(e_value(ladder, 0, 0), stay[0])
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
    # one half-line walk for both U+ and T; past it, one killed walk from 0 on
    # the base law serves both the descent sums and the excursion sum
    walks = []
    evolve = chain._evolve

    def counting(start, taps, offset, n_max, **kwargs):
        walks.append((start, taps, n_max, kwargs.get("fold", False)))
        return evolve(start, taps, offset, n_max, **kwargs)

    monkeypatch.setattr(chain, "_evolve", counting)
    monkeypatch.setattr(fluctuation, "_evolve", counting)
    code, _, _ = run(["validate", "--law", law_path, "--oracle-n", "400"], capsys)
    assert code == 0
    assert [n for _, _, n, _ in walks].count(60) == 11, walks
    base, _, _ = _centered_base(load_law(law_path))
    long_killed = [
        n for start, taps, n, fold in walks
        if n > 60 and not fold and isinstance(start, int) and start == 0 and np.array_equal(taps, base.masses)
    ]
    assert long_killed == [10_000]


def test_validate_passes_on_a_wide_drifted_law(tmp_path, capsys):
    # 21 support points: the tilting check convolves twice instead of listing 21^6 paths
    path = tmp_path / "d8.json"
    path.write_text(json.dumps({"masses": {str(k): v for k, v in wide_drifted_law().as_dict().items()}}))
    code, out, _ = run(["validate", "--law", str(path), "--oracle-n", "400"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["tilting_identity_residual"]["pass"]
    assert all(c["pass"] for c in checks.values())


def test_dump_internals_builds_each_kernel_row_once(monkeypatch, capsys):
    # one row and one slope row per window state: the stationarity solve, the
    # kernel oracle and (for the drifted lawB) the conjugation read the core's
    calls, cores = record_kernel_rows(monkeypatch), []
    build = asymptotics.build_reflection_core

    def recording(ladder, table):
        cores.append((ladder, table))
        return build(ladder, table)

    monkeypatch.setattr(asymptotics, "build_reflection_core", recording)
    for law_path in (LAW_A, LAW_B):
        calls.clear()
        cores.clear()
        argv = ["constants", "--law", law_path, "--x", "1", "--y", "1", "--no-oracle", "--dump-internals"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        window = list(range(len(json.loads(out)["internals"]["R_rows"])))
        [(ladder, table)] = cores
        assert rows_built(calls, ladder, table) == [window] * 3, law_path


def test_dump_internals_builds_each_excursion_value_once(tmp_path, monkeypatch, capsys):
    # the dump's excursion column on the window 0..max(2a, 8) also serves the
    # constant's entries on [1, a]: on a = b = 20, 41 values and 41 slopes, not 61
    wide = dense_law(20, 20, 1)
    wide = tilt(wide, minimize_mgf(wide).r0)
    path = tmp_path / "c20.json"
    path.write_text(json.dumps({"masses": {str(k): v for k, v in wide.as_dict().items()}}))
    calls = {"e_value": 0, "e_tilde_value": 0}
    for name in calls:
        fn = getattr(reflection, name)

        def counting(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(reflection, name, counting)
    for law_path, window in ((str(path), 41), (LAW_A, 9)):
        calls.update(e_value=0, e_tilde_value=0)
        argv = ["constants", "--law", law_path, "--x", "1", "--y", "1", "--no-oracle", "--dump-internals"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert len(json.loads(out)["internals"]["E_column"]) == window
        assert calls == {"e_value": window, "e_tilde_value": window}, law_path


def test_analyze_law_with_minimum_far_below_one(tmp_path, capsys):
    # mgf(r0) is about 2e-5, far below the terms mgf' cancels at r0
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"masses": {"-1": 2e-10, "1": 0.5 - 2e-10, "8": 0.5}}))
    code, out, _ = run(["analyze", "--law", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["tilt"]["r0"] == pytest.approx(2.0000000004e-05, rel=1e-9)


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

    @pytest.mark.parametrize(
        "argv", [["analyze"], ["exact", "--start", "0", "--n", "2"], ["ladder"], ["constants", "--y", "0"]]
    )
    def test_nan_mass_is_a_law_file_error(self, tmp_path, capsys, argv):
        # Python's json reads NaN; such a law once printed "drift": NaN with exit 0
        law = tmp_path / "nan.json"
        law.write_text('{"masses": {"-1": NaN, "0": 0.5, "1": 0.5}}')
        code, out, err = run([argv[0], "--law", str(law), *argv[1:]], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "law file error" in err and "non-finite mass at k=-1" in err

    def test_validate_success_is_zero(self, capsys):
        assert main(["validate", "--law", LAW_A, "--oracle-n", "4000"]) == 0

    def test_validation_failure_is_two(self, tmp_path, capsys):
        # a periodic law breaks the hypotheses: constants cannot be assembled
        law = tmp_path / "periodic.json"
        law.write_text('{"masses": {"-1": 0.5, "1": 0.5}}')
        assert main(["constants", "--law", str(law), "--y", "0"]) == 2

    @pytest.mark.parametrize(
        "e,argv",
        [
            (1e-17, ["ladder"]),
            (1e-17, ["constants", "--y", "1", "--no-oracle"]),
            (1e-18, ["validate", "--oracle-n", "100"]),
        ],
        ids=["ladder", "constants", "validate"],
    )
    def test_near_point_mass_is_two(self, e, argv, tmp_path, capsys):
        # masses (e, 1, e) / (1 + 2e) pass every law check, but the weak ascent
        # leaves no stay mass: a typed error, one line, nothing on stdout
        law = tmp_path / "lazy.json"
        law.write_text(json.dumps({"masses": {"-1": e / (1 + 2 * e), "0": 1 / (1 + 2 * e), "1": e / (1 + 2 * e)}}))
        code, out, err = run([argv[0], "--law", str(law), *argv[1:]], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "stay mass" in err and "variance" in err

    @pytest.mark.parametrize("argv", [["ladder"], ["constants", "--y", "0", "--no-oracle"]], ids=["ladder", "constants"])
    def test_variance_below_the_floor_is_two(self, argv, tmp_path, capsys):
        # masses (e, 1, e) / (1 + 2e) on {-2, 0, 1} at e = 1e-17: the error
        # names the variance, not the count of factorization roots
        e = 1e-17
        law = tmp_path / "lazy.json"
        law.write_text(json.dumps({"masses": {"-2": e / (1 + 2 * e), "0": 1 / (1 + 2 * e), "1": e / (1 + 2 * e)}}))
        code, out, err = run([argv[0], "--law", str(law), *argv[1:]], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "variance 5.000e-17 is below the floor" in err and "roots" not in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_output_is_two(self, bad, monkeypatch, capsys):
        # a non-finite number reaches neither the CSV nor the JSON emitter's stdout
        def rows(law, start, n):
            yield np.array([0.5, bad, 0.25])

        monkeypatch.setattr(cli, "n_step_rows", rows)
        monkeypatch.setattr(cli, "moments", lambda law: (bad, 1.0))
        for argv in (["exact", "--law", LAW_A, "--start", "0", "--n", "1"], ["analyze", "--law", LAW_A]):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error:") and "not finite" in err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["exact", "--law", LAW_A, "--start", "-1", "--n", "5"], "start"),
            (["exact", "--law", LAW_A, "--start", "0", "--n", "-1"], "horizon"),
            (["compare", "--law", LAW_A, "--x", "-1", "--y", "0", "--n-max", "32"], "x"),
            (["compare", "--law", LAW_A, "--y", "-1", "--n-max", "32"], "y"),
            (["compare", "--law", LAW_A, "--y", "0", "--n-max", "8"], "horizon"),
            (["constants", "--law", LAW_B, "--y", "-2", "--no-oracle"], "y"),
            (["ladder", "--law", LAW_A, "--oracle", "0"], "horizon"),
            (["validate", "--law", LAW_A, "--y", "-1", "--oracle-n", "400"], "y"),
            (["validate", "--law", LAW_A, "--oracle-n", "0"], "horizon"),
            (["constants", "--law", LAW_A, "--y", "0", "--oracle-n", "0"], "horizon"),
            (["constants", "--law", LAW_A, "--y", "0", "--oracle-n", "1"], "horizon"),
            (["constants", "--law", LAW_B, "--y", "0", "--oracle-n", "1"], "horizon"),
            (["validate", "--law", LAW_A, "--oracle-n", "400", "--constant-n", "1"], "horizon"),
            (["ladder", "--law", LAW_A, "--depth", "-3"], "depth"),
            (["ladder", "--law", LAW_A, "--emit-depth", "-5"], "emit depth"),
            (["analyze", "--law", LAW_A, "--drift-tol", "-1"], "drift tolerance"),
        ],
        ids=["exact_start", "exact_n", "compare_x", "compare_y", "compare_n_max", "constants_y",
             "ladder_oracle", "validate_y", "validate_oracle_n", "constants_oracle_n_0", "constants_oracle_n_1",
             "constants_drifted_oracle_n_1", "validate_constant_n_1", "ladder_depth",
             "ladder_emit_depth", "analyze_drift_tol"],
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

    def test_one_parser_serves_every_call(self, capsys):
        # each manifest holds only its own call's options, and a usage error
        # leaves the parser as it was
        cli._build_parser.cache_clear()
        calls = [
            (["analyze", "--law", LAW_A], 0, {"law": LAW_A, "drift_tol": 1e-9}),
            (["exact", "--law", LAW_B, "--start", "1", "--n", "5"], 0, {"law": LAW_B, "start": 1, "n": 5}),
            (["exact", "--law", LAW_A, "--n", "5"], 1, None),
            (["analyze", "--law", LAW_B, "--drift-tol", "0.5"], 0, {"law": LAW_B, "drift_tol": 0.5}),
        ]
        for argv, want_code, want_parameters in calls:
            code, out, err = run(argv, capsys)
            assert code == want_code
            if want_parameters is None:
                assert out == "" and err.startswith("usage error:")
            else:
                manifest = json.loads(err.strip().splitlines()[-1])
                assert manifest["command"] == argv[0]
                assert manifest["parameters"] == want_parameters
        assert cli._build_parser.cache_info().misses == 1


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

    def test_potential_depth_cap(self, capsys):
        # lawA has one tap a side, so the potentials at the cap are fast
        code, out, _ = run(["ladder", "--law", LAW_A, "--depth", str(wiener_hopf.POTENTIAL_DEPTH_CAP)], capsys)
        assert code == 0 and len(json.loads(out)["U_plus"]) == 13  # --emit-depth 12
        past = str(wiener_hopf.POTENTIAL_DEPTH_CAP + 1)
        for argv in (["ladder", "--law", LAW_A, "--depth", past], ["constants", "--law", LAW_A, "--y", past]):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "exceeds cap" in err

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

    @pytest.mark.parametrize("law_path,x,y", [(LAW_A, 0, 1), (LAW_B, 3, 2)], ids=["lawA", "lawB"])
    def test_compare_walks_only_to_the_last_grid_point(self, law_path, x, y, monkeypatch, capsys):
        # the grid stops at 512 for both horizons, and so do the DP walk and the paths
        horizons = []

        def recording(law, start, ys, n_max):
            horizons.append(n_max)
            return chain.n_step_series(law, start, ys, n_max)

        monkeypatch.setattr(cli, "n_step_series", recording)
        outs = []
        for n_max in ("1000", "512"):
            argv = ["compare", "--law", law_path, "--x", str(x), "--y", str(y), "--n-max", n_max,
                    "--paths", "2000", "--seed", "5"]
            code, out, _ = run(argv, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert horizons == [512, 512]


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
        lines += ["%d,%d,%.12g\n" % (n, y, p) for y, p in enumerate(row.tolist()) if p != 0.0]
    return "".join(lines)


def int_column(values) -> np.ndarray:
    """Python ints as the commands hand them over: int64, or objects past it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


# %g switches notation at exponents -5 and 12; 12 digits round some values across
SWITCH_POINTS = [
    1e-5, 1e-4, 9.99999999999e-5, 9.999999999995e-5, 0.5e-4,
    1e12, 999999999999.5, 999999999999.0, 1e11, 5e-324, 2.2250738585072014e-308,
]
SWITCH_POINTS += [math.nextafter(v, d) for v in (1e-5, 1e-4, 1e12) for d in (0.0, math.inf)]


def near_tie(d: int, x: int, step: int) -> float:
    """The float nearest (d + 0.5) 10^(x - 11), a tie of 12-digit rounding for
    a 12-digit d, or (step -1 or 1) its neighbour below or above."""
    tie = float(f"{2 * d + 1}e{x - 12}")
    return tie if step == 0 else math.nextafter(tie, step * math.inf)


NEAR_TIES = st.builds(
    near_tie, st.integers(10**11, 10**12 - 1), st.integers(-308, 11), st.sampled_from([-1, 0, 1])
)
FLOATS = st.one_of(st.floats(), st.sampled_from(SWITCH_POINTS), NEAR_TIES, NEAR_TIES.map(lambda v: -v))
CELL_KINDS = {"int": st.integers(), "float": FLOATS}


@st.composite
def csv_blocks(draw):
    """A block of columns, each of ints or of floats, and its rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(CELL_KINDS[k] for k in kinds)), min_size=1, max_size=4))
    columns = [
        int_column(col) if kind == "int" else np.array(col, dtype=np.float64)
        for kind, col in zip(kinds, zip(*rows))
    ]
    return columns, rows


class TestCsvWriter:
    """`_emit_csv` writes the bytes the per-value formatter wrote."""

    @given(csv_blocks())
    @example(([np.array([7]), np.array([5e-324]), np.array([-0.0])], [(7, 5e-324, -0.0)]))
    def test_columns_match_per_value_lines(self, block):
        # a block holding NaN or an infinity is refused whole, with nothing written
        columns, rows = block
        if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), pytest.raises(NonFiniteOutput):
                _emit_csv("h", [columns])
            assert buf.getvalue() == ""
        else:
            assert write_csv([columns]) == "h\n" + "".join(map(reference_line, rows))

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.floats(0.0, 1.0, allow_subnormal=True),
                    st.sampled_from(SWITCH_POINTS),
                    NEAR_TIES.filter(lambda v: 0.0 <= v <= 1.0),
                ),
                max_size=15,
            ),
            min_size=1,
            max_size=3,
        )
    )
    @example([[0.0, 5e-324, 1e-5, 0.0, 1.0]])
    def test_exact_blocks_match_per_value_lines(self, values):
        rows = [np.array(row, dtype=np.float64) for row in values]
        expected = "".join(
            reference_line((n, y, v))
            for n, row in enumerate(values)
            for y, v in enumerate(row)
            if v != 0.0
        )
        assert write_csv(_exact_blocks(rows)) == "h\n" + expected

    def test_near_ties_match_per_value_lines(self):
        # about 4% of these round the wrong way without the tie guard
        rng = np.random.default_rng(14)
        ds, xs = rng.integers(10**11, 10**12, 10_000), rng.integers(-308, 12, 10_000)
        values = [near_tie(d, x, step) for d, x in zip(ds.tolist(), xs.tolist()) for step in (-1, 0, 1)]
        expected = "".join(reference_line((v,)) for v in values)
        assert write_csv([[np.array(values)]]) == "h\n" + expected

    def test_guard_constants_are_exact(self):
        # the error bound of the fast path counts 10^j as one rounding
        assert all(p == float(Fraction(10) ** j) for j, p in enumerate(_P10.tolist()))
        assert (_MID - _HALF, _MID + _HALF) == (1e11, 999999999999.5)

    def test_exact_blocks_hold_block_size_entries(self):
        widths = [0, 3 * _BLOCK // 2, 3, _BLOCK - 5, 2 * _BLOCK, 1]
        rows = [np.arange(1.0, w + 1.0) for w in widths]
        blocks = list(_exact_blocks(rows))
        assert [b[0].size for b in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
        assert 0 < blocks[-1][0].size <= _BLOCK
        ns, ys, ps = (np.concatenate(c) for c in zip(*blocks))
        assert ns.tolist() == [n for n, w in enumerate(widths) for _ in range(w)]
        assert ys.tolist() == [y for w in widths for y in range(w)]
        assert ps.tolist() == [y + 1.0 for w in widths for y in range(w)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_float_raises_before_its_block_is_written(self, bad):
        # the first block is written; the second, with its one bad entry, is not
        first = [np.arange(3), np.array([0.5, 0.25, 1e-300])]
        second = [np.arange(3, 6), np.array([0.125, bad, 0.0])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(NonFiniteOutput, match="not finite"):
            _emit_csv("h", [first, second])
        assert buf.getvalue() == "h\n0,0.5\n1,0.25\n2,1e-300\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_json_value_raises_before_writing(self, bad):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(NonFiniteOutput, match="not finite"):
            _emit_json({"checks": [{"value": 1.0}, {"value": bad}]})
        assert buf.getvalue() == ""

    def test_periodic_law_across_blocks_matches_reference(self, tmp_path, capsys):
        # rows of {-1, 1} hold a zero between every two entries, which exact omits
        path = tmp_path / "periodic.json"
        path.write_text('{"masses": {"-1": 0.5, "1": 0.5}}')
        code, out, _ = run(["exact", "--law", str(path), "--start", "0", "--n", "180"], capsys)
        assert code == 0
        table = n_step_table(load_law(str(path)), 0, 180)
        assert sum(np.count_nonzero(row) for row in table) > 2 * _BLOCK
        assert out == reference_exact(table)

    def test_two_group_states_across_a_block_edge_match_reference(self, capsys):
        # y runs from 940 to 1040: the block that holds entry _BLOCK prints both
        # one and two 3-digit groups in its y column
        code, out, _ = run(["exact", "--law", LAW_A, "--start", "990", "--n", "50"], capsys)
        assert code == 0
        table = n_step_table(load_law(LAW_A), 990, 50)
        ys = np.concatenate([np.flatnonzero(row) for row in table])
        assert ys.size > _BLOCK and ys[_BLOCK - 1] < 1000 <= ys[_BLOCK:].max()
        assert out == reference_exact(table)

    def test_guarded_entries_on_both_sides_of_a_block_edge(self):
        # entries _BLOCK - 2 .. _BLOCK + 1 take their text from Python: a near
        # tie, 1.0 (m = 1e11), a subnormal and a value that rounds up to 10^-4
        values = np.linspace(0.01, 0.9, 2 * _BLOCK + 7)
        values[_BLOCK - 2 : _BLOCK + 2] = [0.1234567890125, 1.0, 5e-324, 9.9999999999995e-05]
        rows = [values[:100], values[100:]]
        guard = cli._mantissas(values[100:])[3] + 100
        assert {_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1} <= set(guard.tolist())
        assert write_csv(_exact_blocks(rows)) == "h\n" + reference_exact(rows).split("\n", 1)[1]

    def test_row_wider_than_a_block_matches_reference(self, tmp_path, capsys):
        # steps up to +30: row 100 holds about 3,000 entries, split over two blocks
        path = tmp_path / "wide.json"
        masses = {"-1": 0.5, **{str(k): 0.5 / 30 for k in range(1, 31)}}
        path.write_text(json.dumps({"masses": masses}))
        code, out, _ = run(["exact", "--law", str(path), "--start", "0", "--n", "100"], capsys)
        assert code == 0
        table = n_step_table(load_law(str(path)), 0, 100)
        assert np.count_nonzero(table[-1]) > _BLOCK
        assert out == reference_exact(table)

    def test_exact_on_random_law_matches_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        masses = rng.dirichlet(np.ones(17))
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"masses": {str(k - 8): float(m) for k, m in enumerate(masses)}}))
        code, out, _ = run(["exact", "--law", str(path), "--start", "3", "--n", "30"], capsys)
        assert code == 0
        assert out == reference_exact(n_step_table(load_law(str(path)), 3, 30))

    def test_exact_at_a_long_horizon_matches_reference(self, capsys):
        # values reach 1e-308, and 670 of the 318,816 entries are guarded:
        # their text comes from Python
        code, out, _ = run(["exact", "--law", LAW_A, "--start", "1", "--n", "800"], capsys)
        assert code == 0
        assert out == reference_exact(n_step_table(load_law(LAW_A), 1, 800))


def test_exact_memory_stays_near_the_stored_table(tmp_path, monkeypatch):
    """`exact` streams the DP: it holds a row and that row's text, far less
    than the stored table. A warm call first builds the cached parser, so
    only the streaming is measured, whatever ran before."""
    table_bytes = sum(row.nbytes for row in n_step_table(load_law(LAW_A), 0, 400))
    argv = ["exact", "--law", LAW_A, "--start", "0", "--n", "400"]
    with open(tmp_path / "exact.csv", "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * table_bytes
