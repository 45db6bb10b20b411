import json
import math
import sys

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from reflectwalk import (
    InvalidInput,
    NotInvertibleCentered,
    SingularSystem,
    build_reflection_core,
    doeblin_kappa,
    dominant_eigenvalue,
    e_column,
    e_value,
    factorize_at,
    ladder_laws,
    law_from_masses,
    minimize_mgf,
    r_core,
    r_row,
    r_row_at_s,
    reflection_time_table,
    resolvent_apply,
    slopes,
    stationary_nu,
    tilt,
)
from reflectwalk import reflection, wiener_hopf
from reflectwalk.cli import main
from reflectwalk.reflection import (
    doeblin_gap,
    e_tilde_value,
    e_value_at_s,
    excursion_slope_oracle_error,
    kernel_slope_oracle_error,
    r_rows,
    r_tilde_row,
    r_tilde_rows,
)
from reflectwalk.wiener_hopf import richardson_slope, u_minus_at, u_plus_at
from conftest import random_laws

SQRT3 = math.sqrt(3.0)


def quadratic_z_minus(s: float) -> float:
    p = 3.0 / s - 1.0
    return (p - math.sqrt(p * p - 4.0)) / 2.0


@pytest.fixture(scope="module")
def ladders(law_a, law_p5, law_asym):
    return {name: ladder_laws(law) for name, law in
            [("a", law_a), ("p5", law_p5), ("asym", law_asym)]}


class TestKernel:
    def test_law_a_rows_are_point_mass(self, ladders):
        for x in (0, 1, 5, 20):
            assert r_row(ladders["a"], x) == pytest.approx([1.0], abs=1e-12)

    def test_rows_are_stochastic(self, ladders):
        for ladder in ladders.values():
            for x in range(0, 30):
                assert math.fsum(r_row(ladder, x).tolist()) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_matches_reflection_time_dp(self, law_p5, ladders):
        # summing the first-reflection table over time approaches R(x, w)
        # from below at the n^(-1/2) first-passage rate
        ladder = ladders["p5"]
        for x in (0, 1, 3):
            early = reflection_time_table(law_p5, x, 2500).sum(axis=1)
            late = reflection_time_table(law_p5, x, 10_000).sum(axis=1)
            row = r_row(ladder, x)
            assert np.all(late <= row + 1e-12)
            assert np.all(row - late < 0.02)
            assert np.allclose(row - late, (row - early) / 2, rtol=0.1)

    def test_s_weighted_kernel_at_one(self, law_p5, ladders):
        for x in (0, 2, 5):
            assert r_row_at_s(law_p5, 1.0, x) == pytest.approx(
                r_row(ladders["p5"], x), abs=1e-10
            )

    def test_law_a_squared_transform(self, law_a):
        # descending from 1 needs two ladder epochs: R_s(1,1) = phi(s)^2
        for s in (0.9, 0.99):
            phi = quadratic_z_minus(s)
            assert r_row_at_s(law_a, s, 1)[0] == pytest.approx(phi * phi, abs=1e-12)

    def test_s_weighted_kernel_matches_dp_series(self, law_p5):
        # R_s(x, y) evaluated at s equals the reflection-time series there
        for x in (0, 1, 3):
            refl = reflection_time_table(law_p5, x, 200)
            for s in (0.3, 0.5, 0.8):
                row = r_row_at_s(law_p5, s, x)
                for w in (1, 2):
                    dp = polyval(s, refl[w - 1])
                    assert row[w - 1] == pytest.approx(dp, abs=1e-12)


class TestStationaryLaw:
    def test_law_a_is_delta(self, ladders):
        nu, convention = stationary_nu(ladders["a"])
        assert nu == pytest.approx([1.0])
        assert "1-x-y" in convention

    def test_any_unit_overshoot_law_is_delta(self, law_b):
        from reflectwalk import minimize_mgf, tilt

        tilted = tilt(law_b, minimize_mgf(law_b).r0)
        nu, _ = stationary_nu(ladder_laws(tilted))
        assert nu == pytest.approx([1.0])

    def test_stationarity_residual(self, ladders):
        for ladder in ladders.values():
            nu, _ = stationary_nu(ladder)
            core = r_core(ladder)
            assert float(np.sum(np.abs(nu @ core - nu))) < 1e-10

    def test_matches_eigenvector(self, ladders):
        for ladder in ladders.values():
            nu, _ = stationary_nu(ladder)
            core = r_core(ladder)
            w, V = np.linalg.eig(core.T)
            lead = np.real(V[:, np.argmin(np.abs(w - 1.0))])
            lead = lead / lead.sum()
            assert nu == pytest.approx(lead, abs=1e-12)

    def test_random_centered_laws(self):
        for law in random_laws(5, seed=59, centered=True):
            ladder = ladder_laws(law)
            nu, _ = stationary_nu(ladder)
            assert float(np.sum(np.abs(nu @ r_core(ladder) - nu))) < 1e-10


class TestDoeblin:
    def test_law_a_kappa_is_one(self, ladders):
        assert doeblin_kappa(ladders["a"]) == pytest.approx(1.0, abs=1e-12)

    def test_kappa_bounded_by_first_potential(self, ladders):
        for ladder in ladders.values():
            assert doeblin_kappa(ladder) <= ladder.U_minus[1] + 1e-15

    def test_minorization_on_window(self, ladders):
        for ladder in ladders.values():
            rows = r_rows(ladder, range(0, 51))
            assert doeblin_gap(ladder, rows) >= -1e-14


class TestSlopeMatrix:
    def test_law_a_corner_value(self, law_a, ladders):
        from reflectwalk.reflection import r_tilde_row

        table = slopes(law_a, ladders["a"])
        tilde = r_tilde_row(ladders["a"], table, 1)
        assert tilde[0] == pytest.approx(-2 * SQRT3, abs=1e-12)

    def test_entries_nonpositive(self, law_p5, ladders):
        table = slopes(law_p5, ladders["p5"])
        rows = r_tilde_rows(ladders["p5"], table, range(0, 12))
        for row in rows.values():
            assert np.all(row <= 0.0)

    def test_two_path_agreement(self, law_a, law_p5, law_asym, ladders):
        for name, law in [("a", law_a), ("p5", law_p5), ("asym", law_asym)]:
            ladder = ladders[name]
            table = slopes(law, ladder)
            xs = range(0, 9)
            rows, tilde_rows = r_rows(ladder, xs), r_tilde_rows(ladder, table, xs)
            assert kernel_slope_oracle_error(ladder, rows, tilde_rows) < 1e-3


class TestExcursion:
    def test_law_a_closed_form(self, ladders):
        # U^- constant 1 and U^+ constant 3 make E(x, y) = 3 (min(x,y) + 1)
        ladder = ladders["a"]
        for x in (0, 1, 2, 5):
            for y in (0, 1, 3):
                assert e_value(ladder, x, y) == pytest.approx(
                    3.0 * (min(x, y) + 1), rel=1e-12
                )

    def test_start_at_origin_is_ascent_potential(self, ladders):
        for ladder in ladders.values():
            for y in (0, 1, 4):
                assert e_value(ladder, 0, y) == pytest.approx(
                    ladder.U_plus[y], rel=1e-14
                )

    def test_column_object(self, law_a, ladders):
        table = slopes(law_a, ladders["a"])
        col = e_column(ladders["a"], table, 1, range(0, 5))
        assert col.values[0] == pytest.approx(3.0, rel=1e-12)
        assert col.tilde[1] == pytest.approx(-12 * SQRT3, abs=1e-9)
        assert all(v <= 0 for v in col.tilde.values())

    def test_slope_oracle(self, law_p5, law_asym, ladders):
        for name, law in [("p5", law_p5), ("asym", law_asym)]:
            table = slopes(law, ladders[name])
            for y in (0, 2):
                err = excursion_slope_oracle_error(
                    ladders[name], table, y, range(0, 7)
                )
                assert err < 1e-3

    def test_dp_partial_sums_approach_from_below(self, law_a, ladders):
        from reflectwalk import excursion_series

        closed = e_value(ladders["a"], 0, 0)
        partial = float(excursion_series(law_a, 0, [0], 10_000)[0].sum())
        gap = closed - partial
        assert 0 < gap < 0.05
        earlier = float(excursion_series(law_a, 0, [0], 2_500)[0].sum())
        assert gap == pytest.approx((closed - earlier) / 2, rel=0.1)


class TestEigenvalueAndResolvent:
    def test_stochastic_core_has_unit_eigenvalue(self, ladders):
        for ladder in ladders.values():
            assert dominant_eigenvalue(r_core(ladder)) == pytest.approx(1.0, abs=1e-12)

    def test_law_a_scalar_core(self, law_a):
        lam = dominant_eigenvalue(np.array([[r_row_at_s(law_a, 0.99, 1)[0]]]))
        assert lam == pytest.approx(quadratic_z_minus(0.99) ** 2, abs=1e-12)

    def test_matches_numpy_eig(self, law_p5):
        core = np.array([r_row_at_s(law_p5, 0.9, x) for x in (1, 2)])
        lam = dominant_eigenvalue(core)
        assert lam == pytest.approx(np.max(np.abs(np.linalg.eigvals(core))), abs=1e-12)

    def test_eigenvalue_expansion(self, law_a, ladders):
        eps = 1e-4
        lam = dominant_eigenvalue(np.array([[r_row_at_s(law_a, 1 - eps, 1)[0]]]))
        table = slopes(law_a, ladders["a"])
        core = build_reflection_core(ladders["a"], table)
        nu_rt = core.nu_weighted_tilde_mass()
        assert nu_rt == pytest.approx(-2 * SQRT3, abs=1e-12)
        assert abs((1.0 - lam) / math.sqrt(eps) + nu_rt) < 0.05 * abs(nu_rt)

    def test_resolvent_identity_kernel(self):
        g, ext = resolvent_apply(np.zeros((2, 2)), np.array([1.0, 2.0]))
        assert g == pytest.approx([1.0, 2.0])
        assert ext == []

    def test_resolvent_geometric(self):
        g, ext = resolvent_apply(
            np.array([[0.5]]), np.array([1.0]), [(1.0, np.array([0.25]))]
        )
        assert g == pytest.approx([2.0])
        assert ext == pytest.approx([1.5])

    def test_resolvent_solve_and_check(self):
        rng = np.random.default_rng(4)
        core = rng.random((4, 4)) * 0.2
        f = rng.random(4)
        g, _ = resolvent_apply(core, f)
        assert np.max(np.abs((np.eye(4) - core) @ g - f)) < 1e-12

    def test_resolvent_rejects_stochastic_core(self, ladders):
        with pytest.raises(NotInvertibleCentered):
            resolvent_apply(r_core(ladders["p5"]), np.ones(2))

    def test_resolvent_rejects_ill_conditioned(self):
        core = np.array([[0.5, 1e7], [0.0, 0.5]])
        with pytest.raises(SingularSystem):
            resolvent_apply(core, np.ones(2))


class TestCoreBundle:
    def test_builds_each_slope_row_once(self, law_p5, ladders, monkeypatch):
        # the core's own slope check reads the rows it has just built
        built = []

        def counting(ladder, table, x):
            built.append(x)
            return r_tilde_row(ladder, table, x)

        table = slopes(law_p5, ladders["p5"])
        monkeypatch.setattr(reflection, "r_tilde_row", counting)
        core = build_reflection_core(ladders["p5"], table)
        assert sorted(built) == list(core.x_window)
        xs = core.x_window
        assert core.slope_rel_err == reference_kernel_error(ladders["p5"], table, xs)

    def test_build_and_invariants(self, law_p5, ladders):
        table = slopes(law_p5, ladders["p5"])
        core = build_reflection_core(ladders["p5"], table)
        assert core.x_window == tuple(range(0, 9))  # x = 0..max(2a, 8)
        assert core.nu == pytest.approx([0.75, 0.25], abs=1e-12)
        assert core.kappa == pytest.approx(ladders["p5"].U_minus[1], abs=1e-12)
        assert core.nu_weighted_tilde_mass() < 0
        for x, row in core.rows.items():
            assert math.fsum(row.tolist()) == pytest.approx(1.0, abs=1e-12)
        for row in core.tilde_rows.values():
            assert np.all(row <= 0.0)


def centered_random_law(a: int, b: int, seed: int):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(a + b + 1)) + 0.02
    masses /= masses.sum()
    law = law_from_masses({k - a: float(m) for k, m in enumerate(masses)})
    return tilt(law, minimize_mgf(law).r0)


def reference_kernel_error(ladder, table, xs):
    """kernel_slope_oracle_error with a fresh factorization and a fresh
    s-weighted row for every (x, y, s)."""
    law = ladder.law
    rows = {x: r_tilde_row(ladder, table, x) for x in xs}
    scale = max(max(np.max(np.abs(r)) for r in rows.values()), 1.0)
    worst = 0.0
    for x, closed in rows.items():
        base = r_row(ladder, x)
        oracle = np.array([
            richardson_slope(
                lambda s, y=y: r_row_at_s(law, s, x, factorize_at(law, s))[y - 1],
                base[y - 1],
            )
            for y in range(1, ladder.a + 1)
        ])
        err = np.max(np.abs(closed - oracle) / np.maximum(np.abs(closed), 1e-6 * scale))
        worst = max(worst, float(err))
    return worst


def reference_excursion_error(ladder, table, y, xs):
    """excursion_slope_oracle_error with a fresh factorization per (x, s)."""
    law = ladder.law
    worst = 0.0
    for x in xs:
        closed = e_tilde_value(ladder, table, x, y)
        oracle = richardson_slope(
            lambda s: e_value_at_s(law, s, x, y, factorize_at(law, s)),
            e_value(ladder, x, y),
        )
        worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-6))
    return worst


class TestSharedOracleWork:
    """The slope oracles share one factorization per (ladder, s) and one
    s-weighted kernel row per (x, s); their results keep every bit."""

    @pytest.fixture(scope="class")
    def systems(self, law_p5, law_asym):
        laws = {"p5": law_p5, "asym": law_asym, "random8": centered_random_law(8, 8, 17)}
        out = {}
        for name, law in laws.items():
            ladder = ladder_laws(law)
            out[name] = (ladder, slopes(law, ladder))
        return out

    @pytest.mark.parametrize("name", ["p5", "asym", "random8"])
    def test_kernel_oracle_matches_fresh_reference(self, systems, name):
        ladder, table = systems[name]
        xs = range(0, 2 * ladder.a + 1)
        rows, tilde_rows = r_rows(ladder, xs), r_tilde_rows(ladder, table, xs)
        assert kernel_slope_oracle_error(ladder, rows, tilde_rows) == reference_kernel_error(
            ladder, table, xs
        )

    @pytest.mark.parametrize("name", ["p5", "asym", "random8"])
    def test_excursion_oracle_matches_fresh_reference(self, systems, name):
        ladder, table = systems[name]
        xs = range(0, 2 * ladder.a + 1)
        for y in (0, 1, 3):
            assert excursion_slope_oracle_error(
                ladder, table, y, xs
            ) == reference_excursion_error(ladder, table, y, xs)

    @pytest.mark.parametrize("name", ["p5", "asym", "random8"])
    def test_excursion_oracle_builds_each_potential_once_per_s(self, systems, name, monkeypatch):
        ladder, table = systems[name]
        xs = [2 * ladder.a + 3, 0, ladder.a, 1]
        builds = []
        for fn in (u_minus_at, u_plus_at):
            def counted(fp, depth, fn=fn):
                builds.append((fn.__name__, depth))
                return fn(fp, depth)
            monkeypatch.setattr(reflection, fn.__name__, counted)
        got = {}
        for y in (0, 2, 5):
            builds.clear()
            got[y] = excursion_slope_oracle_error(ladder, table, y, xs)
            assert sorted(builds) == [("u_minus_at", max(xs))] * 2 + [("u_plus_at", y)] * 2
        monkeypatch.undo()
        # the reference builds both potentials afresh for each x, to depths x and y
        for y, err in got.items():
            assert err == reference_excursion_error(ladder, table, y, xs)

    def test_excursion_oracle_rejects_a_negative_start(self, systems):
        ladder, table = systems["p5"]
        with pytest.raises(InvalidInput):
            excursion_slope_oracle_error(ladder, table, 0, [2, -1])

    def test_ladder_keeps_its_s1_pair(self, systems):
        ladder, _ = systems["asym"]
        fp = ladder.factor_pair(1.0)
        assert fp.phi_minus is ladder.mu_minus and fp.phi_plus is ladder.mu_plus
        assert ladder.factor_pair(0.5) is ladder.factor_pair(0.5)


def count_factorizations(monkeypatch) -> list:
    """Replace every module binding of factorize_at with a counting wrapper."""
    calls = []
    original = wiener_hopf.factorize_at

    def counted(law, s):
        calls.append(s)
        return original(law, s)

    for name, module in list(sys.modules.items()):
        if name == "reflectwalk" or name.startswith("reflectwalk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("fixture", ["law_asym", "law_b"], ids=["centered", "drifted"])
def test_constants_dump_factorizes_once_per_s(fixture, request, tmp_path, monkeypatch, capsys):
    law = request.getfixturevalue(fixture)
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"masses": {str(k): v for k, v in law.as_dict().items()}}))
    argv = ["constants", "--law", str(path), "--x", "1", "--y", "1", "--no-oracle", "--dump-internals"]
    calls = count_factorizations(monkeypatch)
    assert main(argv) == 0
    first = list(calls)
    assert len(first) <= 3
    assert main(argv) == 0
    # nothing outlives a main call: the second run factorizes just as often
    assert calls[len(first):] == first
    capsys.readouterr()
