"""Acceptance suite: one test per criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion with its measured runtime.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from reflectwalk import (
    SimConfig,
    build_reflection_core,
    centered_constant,
    descent_joint_table,
    drifted_constant,
    dominant_eigenvalue,
    estimate_nu,
    factorize_at,
    ladder_laws,
    law_from_masses,
    minimize_mgf,
    n_step_table,
    oracle_constant_drifted,
    r_core,
    r_row_at_s,
    roots_z_pm,
    simulate,
    slopes,
    stationary_nu,
    tilt,
    tilting_identity_check,
    verify_first_reflection_identity,
    verify_ladder_factorizations,
)
from reflectwalk.reflection import (
    doeblin_gap,
    excursion_slope_oracle_error,
    kernel_slope_oracle_error,
    r_rows,
    r_tilde_row,
    r_tilde_rows,
)
from reflectwalk.cli import main
from conftest import golden_mismatch

SQRT3 = math.sqrt(3.0)

LAW_A = law_from_masses({-1: 1 / 3, 0: 1 / 3, 1: 1 / 3})
LAW_B = law_from_masses({-1: 0.2, 0: 0.3, 1: 0.5})
LAW_P5 = law_from_masses({k: 0.2 for k in range(-2, 3)})
TILTED_B = tilt(LAW_B, minimize_mgf(LAW_B).r0)


@contextmanager
def criterion(number: int, name: str, budget_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    budget = f"{elapsed:.2f}s < {budget_s:g}s" if budget_s else f"{elapsed:.2f}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({budget})")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime budget exceeded: {elapsed:.2f}s"


def test_01_wiener_hopf_identity():
    with criterion(1, "wiener_hopf_identity", 1.0):
        for law in (LAW_A, TILTED_B):
            for s in (0.5, 0.9, 0.99, 1.0):
                assert factorize_at(law, s).residual < 1e-10


def test_02_first_reflection_identity():
    with criterion(2, "first_reflection_identity", 1.0):
        for law in (LAW_A, LAW_B):
            assert verify_first_reflection_identity(law, (0, 1, 3), (0, 1, 2), 60) < 1e-12


def test_03_ladder_factorization_identities():
    with criterion(3, "ladder_factorization_identities", 1.0):
        for law in (LAW_A, LAW_B):
            res_e, res_r = verify_ladder_factorizations(law, (0, 1, 3), (0, 1, 2), 60)
            assert res_e < 1e-12 and res_r < 1e-12


def test_04_ladder_laws_vs_dp_oracle():
    with criterion(4, "ladder_laws_vs_dp_oracle", 5.0):
        series = descent_joint_table(LAW_A, 20_000)[0]
        partial = np.cumsum(series)
        target = 1.0  # mu^-(-1) for Law A
        assert np.all(np.diff(partial) >= 0)
        assert partial[-1] <= target + 1e-12
        assert target - partial[-1] < 0.01


def test_05_stationarity_and_mc_occupation():
    with criterion(5, "stationarity_and_mc_occupation", 20.0):
        cases = ((LAW_A, 2000, 100, 11, 10), (LAW_P5, 20_000, 300, 2024, 100))
        for law, horizon, paths, seed, burnin in cases:
            ladder = ladder_laws(law)
            nu, _ = stationary_nu(ladder)
            assert float(np.sum(np.abs(nu @ r_core(ladder) - nu))) < 1e-10
            est = estimate_nu(SimConfig(law, 0, horizon, paths, seed), burnin=burnin)
            for w in range(1, law.a + 1):
                tol = 3 * max(est[w].stderr, 1e-12)
                assert abs(est[w].point - nu[w - 1]) <= tol


def test_06_doeblin_bound():
    with criterion(6, "doeblin_bound", None):
        for law in (LAW_A, TILTED_B, LAW_P5):
            ladder = ladder_laws(law, depth=60)
            rows = r_rows(ladder, range(0, 51))
            assert doeblin_gap(ladder, rows) >= -1e-14


def test_07_slope_convention_oracle():
    with criterion(7, "slope_convention_oracle", None):
        for law in (LAW_A, TILTED_B, LAW_P5):
            ladder = ladder_laws(law)
            table = slopes(law, ladder)
            xs = range(0, 8)
            rows, tilde_rows = r_rows(ladder, xs), r_tilde_rows(ladder, table, xs)
            assert kernel_slope_oracle_error(ladder, rows, tilde_rows) < 1e-3
            for y in (0, 1):
                assert excursion_slope_oracle_error(ladder, table, y, range(0, 8)) < 1e-3
        ladder_a = ladder_laws(LAW_A)
        table_a = slopes(LAW_A, ladder_a)
        assert abs(r_tilde_row(ladder_a, table_a, 1)[0] - (-2 * SQRT3)) < 1e-3


def test_08_roots_expansion():
    with criterion(8, "roots_expansion", None):
        eps = 1e-4
        z_minus, _ = roots_z_pm(LAW_A, 1.0 - eps)
        target = SQRT3  # sqrt(2) / sigma for Law A
        assert abs((1.0 - z_minus) / math.sqrt(eps) - target) < 0.03 * target


def test_09_eigenvalue_expansion():
    with criterion(9, "eigenvalue_expansion", None):
        eps = 1e-4
        lam = dominant_eigenvalue(np.array([[r_row_at_s(LAW_A, 1.0 - eps, 1)[0]]]))
        ladder = ladder_laws(LAW_A)
        table = slopes(LAW_A, ladder)
        core = build_reflection_core(ladder, table)
        nu_rt = core.nu_weighted_tilde_mass()
        assert abs((1.0 - lam) / math.sqrt(eps) + nu_rt) < 0.05 * abs(nu_rt)


def test_10_centered_end_to_end():
    with criterion(10, "centered_end_to_end", 30.0):
        expected = {0: 0.48860, 1: 0.97721, 2: 0.97721}
        table = n_step_table(LAW_A, 0, 4000)  # row n holds P_0[X_n = y] at index y
        ns = np.arange(2000, 4001)
        design = np.column_stack([np.ones_like(ns, dtype=float), 1.0 / np.sqrt(ns)])
        for y in (0, 1, 2):
            asym = centered_constant(LAW_A, y)
            assert asym.C == pytest.approx(expected[y], abs=5e-6)
            values = np.array([table[n][y] for n in ns]) * np.sqrt(ns)
            coef, *_ = np.linalg.lstsq(design, values, rcond=None)
            extrapolated = float(coef[0])
            assert abs(extrapolated - asym.C) < 0.02 * asym.C


def test_11_drifted_end_to_end():
    with criterion(11, "drifted_end_to_end", 10.0):
        asym = drifted_constant(LAW_B, 0, 0)
        assert asym.rho == pytest.approx(0.3 + 2 * math.sqrt(0.1), abs=1e-12)
        extrapolated = oracle_constant_drifted(LAW_B, 0, 0, asym.rho, n_max=400)
        assert abs(extrapolated - asym.C) < 0.05 * asym.C


def test_12_tilting_identity():
    with criterion(12, "tilting_identity", 5.0):
        assert tilting_identity_check(LAW_B, 6) < 1e-14


def test_13_mc_exact_calibration():
    with criterion(13, "mc_exact_calibration", 60.0):
        pairs_a = [(n, y) for n in (10, 25, 40, 50) for y in range(5)]
        pairs_b = [(n, round(0.3 * n) + d) for n in (10, 20, 30, 40)
                   for d in (-2, -1, 0, 1, 2)]
        for law, pairs, seed in ((LAW_A, pairs_a, 501), (LAW_B, pairs_b, 502)):
            assert len(pairs) == 20
            horizons = {p[0] for p in pairs}
            tables = {n: n_step_table(law, 0, n) for n in horizons}
            runs = {n: simulate(SimConfig(law, 0, n, 200_000, seed)) for n in horizons}
            for n, y in pairs:
                est = runs[n].estimate(y)
                exact = tables[n][n][y]
                assert abs(est.point - exact) <= 4 * max(est.stderr, 1e-9)


def test_14_cli_golden_files(capsys):
    with criterion(14, "cli_golden_files", None):
        laws = Path(__file__).parent / "laws"
        golden = Path(__file__).parent / "golden"
        cases = [
            ("analyze_lawA", ["analyze", "--law", str(laws / "lawA.json")]),
            ("analyze_lawB", ["analyze", "--law", str(laws / "lawB.json")]),
            ("ladder_lawA", ["ladder", "--law", str(laws / "lawA.json"), "--emit-depth", "8"]),
            ("ladder_lawB", ["ladder", "--law", str(laws / "lawB.json"), "--emit-depth", "8"]),
            ("constants_lawA", ["constants", "--law", str(laws / "lawA.json"),
                                "--y", "0", "--oracle-n", "2000"]),
            ("constants_lawB", ["constants", "--law", str(laws / "lawB.json"), "--y", "0"]),
            ("validate_lawA", ["validate", "--law", str(laws / "lawA.json")]),
            ("validate_lawB", ["validate", "--law", str(laws / "lawB.json")]),
        ]
        for name, argv in cases:
            assert main(argv) == 0
            out = capsys.readouterr().out
            expected = (golden / f"{name}.out").read_text()
            assert out == expected, golden_mismatch(name, out, expected)
