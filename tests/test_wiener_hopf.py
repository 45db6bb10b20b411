import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from reflectwalk import (
    NotCentered,
    SlopeMismatch,
    descent_joint_table,
    factorize_at,
    ladder_laws,
    richardson_slope,
    roots_z_pm,
    slopes,
)
from reflectwalk.wiener_hopf import SLOPE_REL_TOL, u_minus_at, u_plus_at
from conftest import random_laws

SQRT3 = math.sqrt(3.0)


def quadratic_z_minus(s: float) -> float:
    """Exact small root of z^2 - (3/s - 1) z + 1 = 0 (Law A oracle)."""
    p = 3.0 / s - 1.0
    return (p - math.sqrt(p * p - 4.0)) / 2.0


class TestFactorization:
    def test_law_a_at_one(self, law_a):
        fp = factorize_at(law_a, 1.0)
        assert fp.phi_minus == pytest.approx([1.0], abs=1e-12)
        assert fp.phi_plus == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert fp.residual < 1e-10

    def test_law_a_near_one(self, law_a):
        fp = factorize_at(law_a, 0.99)
        assert fp.phi_minus[0] == pytest.approx(quadratic_z_minus(0.99), abs=1e-12)

    def test_vanishing_at_small_s(self, law_a, law_p5):
        for law in (law_a, law_p5):
            fp = factorize_at(law, 1e-6)
            assert np.all(fp.phi_minus < 1e-5)
            assert np.all(fp.phi_plus < 1e-5)

    def test_defective_below_one(self, law_p5):
        for s in (0.5, 0.9, 0.999):
            fp = factorize_at(law_p5, s)
            assert fp.phi_minus.sum() < 1.0
            assert fp.phi_plus.sum() < 1.0

    def test_circle_residual_random_laws(self):
        for law in random_laws(6, seed=101, centered=True):
            for s in (0.5, 0.9, 0.99, 1.0):
                assert factorize_at(law, s).residual < 1e-10

    def test_rejects_drifted(self, law_b):
        with pytest.raises(NotCentered):
            factorize_at(law_b, 1.0)

    def test_rejects_bad_s(self, law_a):
        with pytest.raises(ValueError):
            factorize_at(law_a, 0.0)
        with pytest.raises(ValueError):
            factorize_at(law_a, 1.5)


class TestLadderLaws:
    def test_law_a_closed_forms(self, law_a):
        ladder = ladder_laws(law_a)
        assert ladder.mu_minus == pytest.approx([1.0], abs=1e-12)
        assert ladder.mu_plus == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert np.allclose(ladder.U_minus, 1.0, atol=1e-10)
        assert np.allclose(ladder.U_plus, 3.0, atol=1e-9)
        assert ladder.mean_ladder_minus == pytest.approx(-1.0, abs=1e-12)

    def test_ladder_laws_are_probabilities(self, law_p5, law_asym):
        for law in (law_p5, law_asym):
            ladder = ladder_laws(law)
            assert math.fsum(ladder.mu_minus.tolist()) == pytest.approx(1.0, abs=1e-10)
            assert math.fsum(ladder.mu_plus.tolist()) == pytest.approx(1.0, abs=1e-10)
            assert ladder.U_plus[0] == pytest.approx(
                1.0 / (1.0 - ladder.mu_plus[0]), rel=1e-12
            )
            assert ladder.U_minus[0] == 1.0

    def test_renewal_theorem_limit(self, law_a, law_p5, law_asym):
        for law in (law_a, law_p5, law_asym):
            ladder = ladder_laws(law, depth=50 * law.a)
            limit = 1.0 / (-ladder.mean_ladder_minus)
            assert ladder.U_minus[-1] == pytest.approx(limit, rel=0.01)

    def test_descent_dp_converges_to_mu_minus(self, law_a):
        ladder = ladder_laws(law_a)
        partial = float(descent_joint_table(law_a, 2000)[0].sum())
        assert partial <= ladder.mu_minus[0] + 1e-12
        assert ladder.mu_minus[0] - partial < 0.05

    def test_transform_at_z_one_matches_dp_series(self, law_p5):
        # sum of c_w(s) is the transform of the descent time; the DP series
        # evaluated at s must agree within its geometric tail bound
        series = descent_joint_table(law_p5, 400)
        for s in (0.5, 0.9):
            fp = factorize_at(law_p5, s)
            closed = math.fsum(fp.phi_minus.tolist())
            dp = math.fsum(polyval(s, c) for c in series)
            tail = sum(abs(c[-1]) * s ** len(c) / (1 - s) for c in series) + 400 * 1e-16
            assert abs(closed - dp) <= tail + 1e-12


class TestSlopes:
    def test_law_a_values(self, law_a):
        ladder = ladder_laws(law_a)
        table = slopes(law_a, ladder)
        assert table.slope_T_minus[0] == pytest.approx(-SQRT3, abs=1e-12)
        assert table.slope_T_plus[0] == pytest.approx(-SQRT3 / 3, abs=1e-12)
        assert table.slope_T_plus[1] == 0.0
        assert table.slope_U_minus[1] == pytest.approx(-SQRT3, abs=1e-12)
        assert table.slope_U_minus[3] == pytest.approx(-3 * SQRT3, abs=1e-11)
        assert table.slope_U_plus[0] == pytest.approx(-3 * SQRT3, abs=1e-9)
        assert table.method == "closed-form+richardson"
        assert table.max_rel_err < 1e-3

    def test_out_of_support_slopes_are_zero(self, law_a):
        ladder = ladder_laws(law_a)
        table = slopes(law_a, ladder)
        assert table.t_minus(2) == 0.0  # no descent landing below -a
        assert table.t_minus(0) == 0.0

    def test_oracle_passes_on_wider_laws(self, law_p5, law_asym):
        for law in (law_p5, law_asym):
            ladder = ladder_laws(law)
            table = slopes(law, ladder)
            assert table.max_rel_err < 1e-3

    def test_wrong_convention_is_rejected(self, law_asym, monkeypatch):
        # shifting the descent-potential window to [-k, -1] must trip the oracle
        from dataclasses import replace

        from reflectwalk import asymptotics
        from reflectwalk.reflection import build_reflection_core

        def wrong_slopes(law, ladder):
            coef = math.sqrt(2.0) / ladder.sigma
            wrong = -coef * (np.cumsum(ladder.U_minus) - 1.0)  # sums U^-(-1..-k)
            return replace(slopes(law, ladder), slope_U_minus=wrong)

        ladder = ladder_laws(law_asym)
        core = build_reflection_core(ladder, wrong_slopes(law_asym, ladder))
        assert core.slope_rel_err > SLOPE_REL_TOL
        monkeypatch.setattr(asymptotics, "slopes", wrong_slopes)
        with pytest.raises(SlopeMismatch):
            asymptotics.centered_objects(law_asym)

    def test_richardson_helper_exact_on_sqrt(self):
        # fn(s) = 4 - 2.5 sqrt(1-s) + (1-s) has slope exactly -2.5
        fn = lambda s: 4.0 - 2.5 * math.sqrt(1.0 - s) + (1.0 - s)
        assert richardson_slope(fn, 4.0) == pytest.approx(-2.5, abs=1e-9)

    def test_potential_series_recursions(self, law_p5):
        # the s-weighted potentials solve their renewal recursions
        fp = factorize_at(law_p5, 0.9)
        u = u_minus_at(fp, 8)
        for k in range(1, 9):
            expect = sum(fp.phi_minus[w - 1] * u[k - w] for w in range(1, min(k, 2) + 1))
            assert u[k] == pytest.approx(expect, rel=1e-14)
        up = u_plus_at(fp, 8)
        stay = 1.0 - fp.phi_plus[0]
        for m in range(1, 9):
            expect = (
                sum(fp.phi_plus[j] * up[m - j] for j in range(1, min(m, 2) + 1)) / stay
            )
            assert up[m] == pytest.approx(expect, rel=1e-14)


class TestRoots:
    def test_law_a_at_099(self, law_a):
        z_minus, z_plus = roots_z_pm(law_a, 0.99)
        assert z_minus == pytest.approx(quadratic_z_minus(0.99), abs=1e-12)
        assert z_plus == pytest.approx(1.0 / quadratic_z_minus(0.99), rel=1e-12)

    def test_vieta_product_for_unit_step_laws(self, law_a):
        # symmetric unit-step laws have z- z+ = 1
        for s in (0.5, 0.9, 0.999):
            z_minus, z_plus = roots_z_pm(law_a, s)
            assert z_minus * z_plus == pytest.approx(1.0, rel=1e-12)

    def test_expansion_rate(self, law_a):
        eps = 1e-4
        z_minus, _ = roots_z_pm(law_a, 1.0 - eps)
        target = SQRT3  # sqrt(2)/sigma
        assert abs((1.0 - z_minus) / math.sqrt(eps) - target) < 0.03 * target

    def test_ordering(self, law_p5):
        z_minus, z_plus = roots_z_pm(law_p5, 0.7)
        assert 0.0 < z_minus < 1.0 < z_plus

    def test_domain_errors(self, law_a, law_b):
        with pytest.raises(ValueError):
            roots_z_pm(law_a, 1.0)
        with pytest.raises(NotCentered):
            roots_z_pm(law_b, 0.9)
