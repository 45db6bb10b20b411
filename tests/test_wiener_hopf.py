import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from reflectwalk import (
    DegenerateLaw,
    HorizonTooLarge,
    LatticeLaw,
    NotCentered,
    RootClusterUnresolved,
    SlopeMismatch,
    descent_joint_table,
    factorize_at,
    ladder_laws,
    law_from_masses,
    richardson_slope,
    roots_z_pm,
    slopes,
)
from reflectwalk import wiener_hopf
from reflectwalk.laws import moments
from reflectwalk.wiener_hopf import POTENTIAL_DEPTH_CAP, SLOPE_REL_TOL, _potential, u_minus_at, u_plus_at
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

    @pytest.mark.parametrize("s", [1.0, 0.9])
    def test_stray_imaginary_part_is_rejected(self, s, monkeypatch):
        # uniform on [-3, 3] has a conjugate pair of roots inside the circle;
        # moving one of the two by 1e-7 leaves ~1e-8 imaginary in A(z)
        law = LatticeLaw(-3, 3, np.full(7, 1 / 7))
        assert factorize_at(law, s).residual < 1e-10
        polish = wiener_hopf._polish_roots

        def nudged(coeffs, roots):
            out = polish(coeffs, roots)
            k = next(k for k, z in enumerate(out) if abs(z) < 1.0 and abs(z.imag) > 1e-3)
            out[k] *= 1.0 - 1e-7
            return out

        monkeypatch.setattr(wiener_hopf, "_polish_roots", nudged)
        with pytest.raises(RootClusterUnresolved, match="stray imaginary part"):
            factorize_at(law, s)

    def test_double_root_remainder_gate(self):
        # a law inside both the mass-sum and the drift tolerance can still
        # leave Q'(1) = a (1 - sum m) - drift just past 1e-9 at a = 5
        masses = np.full(11, 1 / 11)
        masses[5] += 1.0 - masses.sum() - 0.9e-12
        drift, _ = moments(LatticeLaw(-5, 5, masses.copy()))
        shift = (-0.999e-9 - drift) / 10
        masses[0] -= shift
        masses[-1] += shift
        law = LatticeLaw(-5, 5, masses.copy())
        with pytest.raises(RootClusterUnresolved, match="not structural") as caught:
            factorize_at(law, 1.0)
        # the message names the law's mass-sum deficit and drift, which set the remainders
        deficit = 1.0 - math.fsum(law.masses.tolist())
        assert deficit == pytest.approx(0.9e-12, rel=1e-3)
        assert f"masses sum to 1 - {deficit:.3e} and its drift is {moments(law)[0]:.3e}" in str(caught.value)
        # the same drift on masses that sum to 1 passes the gate
        masses[5] += 0.9e-12
        assert factorize_at(LatticeLaw(-5, 5, masses), 1.0).residual < 1e-8


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

    @pytest.mark.parametrize("e", [1e-17, 1e-18, 1e-30])
    def test_near_point_mass_names_stay_mass_and_variance(self, e):
        # (e, 1, e) / (1 + 2e) is a valid centered law, but its s = 1 factorization
        # puts all the weak ascent's mass at height 0: U+(0) = 1 / stay has no value.
        # Its variance is below the floor, which names the cause before factorizing.
        law = law_from_masses({-1: e / (1 + 2 * e), 0: 1 / (1 + 2 * e), 1: e / (1 + 2 * e)})
        assert factorize_at(law, 1.0).phi_plus[0] == 1.0
        floor = r"variance .* below the floor 1e-12, where the stay mass"
        with pytest.raises(DegenerateLaw, match=floor) as info:
            ladder_laws(law)
        assert f"{moments(law)[1]:.3e}" in str(info.value)

    @pytest.mark.parametrize("e", [1e-13, 1e-17])
    @pytest.mark.parametrize(
        "support", [(-1, 0, 1), (-2, 0, 1), (-1, 0, 2)], ids=["-1,0,1", "-2,0,1", "-1,0,2"]
    )
    def test_variance_below_the_floor_is_degenerate(self, support, e):
        # masses (e, 1, e) / (1 + 2e): on {-2, 0, 1} at e = 1e-17 the root count
        # failed first, and at e = 1e-13 the ladder laws were built from noise
        law = law_from_masses({k: m / (1 + 2 * e) for k, m in zip(support, (e, 1.0, e))})
        variance = moments(law)[1]
        assert variance < wiener_hopf.VARIANCE_FLOOR
        with pytest.raises(DegenerateLaw, match=f"variance {variance:.3e} is below the floor"):
            ladder_laws(law)

    def test_no_stay_mass_above_the_floor_is_degenerate(self, law_a, monkeypatch):
        # a factorization that leaves no stay mass still gets the typed error
        fp = factorize_at(law_a, 1.0)
        flat = dataclasses.replace(fp, phi_plus=np.array([1.0, 0.0]))
        monkeypatch.setattr(wiener_hopf, "factorize_at", lambda law, s: flat)
        with pytest.raises(DegenerateLaw, match=r"stay mass .*= 0\.000e\+00 at variance 6\.667e-01"):
            ladder_laws(law_a)

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

    def test_potential_depth_cap_at_its_value(self, law_a):
        # one tap of mass 1 settles at once, so the potential at the cap is fast
        u = _potential(np.array([1.0]), POTENTIAL_DEPTH_CAP)
        assert u.shape == (POTENTIAL_DEPTH_CAP + 1,) and np.all(u == 1.0)
        with pytest.raises(HorizonTooLarge, match="exceeds cap"):
            _potential(np.array([1.0]), POTENTIAL_DEPTH_CAP + 1)
        with pytest.raises(HorizonTooLarge, match="exceeds cap"):
            ladder_laws(law_a, depth=POTENTIAL_DEPTH_CAP + 1)


class TestSlopes:
    def test_slope_gate_at_its_value(self):
        # an error of exactly SLOPE_REL_TOL passes the gate; the next float above fails it
        wiener_hopf._require_slopes(SLOPE_REL_TOL, "slopes")
        with pytest.raises(SlopeMismatch, match="slopes deviate"):
            wiener_hopf._require_slopes(float(np.nextafter(SLOPE_REL_TOL, 1.0)), "slopes")

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

    @pytest.mark.parametrize("law_name", ["law_a", "law_p5", "law_asym"])
    def test_sigma_off_by_two_per_mille_is_rejected(self, law_name, request):
        # the closed forms scale with 1/sigma: 0.05% off passes the 1e-3 gate
        law = request.getfixturevalue(law_name)
        ladder = ladder_laws(law)
        assert slopes(law, dataclasses.replace(ladder, sigma=1.0005 * ladder.sigma)).max_rel_err < SLOPE_REL_TOL
        with pytest.raises(SlopeMismatch):
            slopes(law, dataclasses.replace(ladder, sigma=1.002 * ladder.sigma))

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
