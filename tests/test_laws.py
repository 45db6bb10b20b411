import math

import numpy as np
import pytest

from reflectwalk import (
    InvalidLaw,
    NonPositiveArgument,
    Regime,
    check_hypotheses,
    law_from_masses,
    mgf,
    minimize_mgf,
    moments,
    tilt,
)
from reflectwalk.laws import law_from_json
from conftest import random_laws


class TestConstruction:
    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidLaw, match="negative"):
            law_from_masses({-1: -0.1, 0: 0.6, 1: 0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(InvalidLaw, match="non-finite mass at k=0"):
            law_from_masses({-1: 0.5, 0: bad, 1: 0.5})

    def test_rejects_bad_sum(self):
        # the masses must sum to 1 within 1e-12
        for masses in ({-1: 0.5, 1: 0.6}, {-1: 0.5, 1: 0.5 + 1e-10}):
            with pytest.raises(InvalidLaw, match="sum"):
                law_from_masses(masses)
        assert law_from_masses({-1: 0.5, 1: 0.5 + 1e-14}).masses[-1] == 0.5 + 1e-14

    def test_rejects_loose_window(self):
        with pytest.raises(InvalidLaw):
            law_from_masses({-2: 0.0, -1: 0.5, 1: 0.5})

    def test_rejects_one_sided(self):
        # point mass at 1 violates a >= 1
        with pytest.raises(InvalidLaw):
            law_from_masses({1: 1.0})
        with pytest.raises(InvalidLaw):
            law_from_masses({-1: 0.5, 0: 0.5})

    def test_json_round_trip(self, law_b):
        text = '{"masses": {"-1": 0.2, "0": 0.3, "1": 0.5}}'
        law = law_from_json(text)
        assert law.as_dict() == law_b.as_dict()

    def test_json_errors_carry_context(self):
        with pytest.raises(InvalidLaw, match='"x"'):
            law_from_json('{"masses": {"x": 1.0}}')
        with pytest.raises(InvalidLaw, match="masses"):
            law_from_json('{"weights": {}}')
        with pytest.raises(InvalidLaw, match="JSON"):
            law_from_json("{nope")


class TestMgfAndMoments:
    def test_mgf_is_total_mass_at_one(self, law_a, law_b):
        assert mgf(law_a, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert mgf(law_b, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_mgf_law_a_at_two(self, law_a):
        # direct three-term sum: (1/2 + 1 + 2) / 3
        assert mgf(law_a, 2.0) == pytest.approx(7 / 6, abs=1e-15)

    def test_mgf_rejects_nonpositive(self, law_a):
        with pytest.raises(NonPositiveArgument):
            mgf(law_a, 0.0)
        with pytest.raises(NonPositiveArgument):
            mgf(law_a, -1.0)

    def test_moments(self, law_a, law_b):
        assert moments(law_a) == pytest.approx((0.0, 2 / 3), abs=1e-15)
        assert moments(law_b) == pytest.approx((0.3, 0.61), abs=1e-15)

    def test_mgf_strictly_convex_on_grid(self):
        for law in random_laws(5, seed=11, centered=False):
            grid = np.geomspace(0.2, 5.0, 9)
            for lo, hi in zip(grid[:-2], grid[2:]):
                mid = 0.5 * (lo + hi)
                assert mgf(law, mid) < 0.5 * (mgf(law, lo) + mgf(law, hi))


class TestHypotheses:
    def test_law_a(self, law_a):
        rep = check_hypotheses(law_a)
        assert rep.adapted and rep.aperiodic
        assert rep.regime is Regime.CENTERED

    def test_simple_walk_is_periodic(self):
        rep = check_hypotheses(law_from_masses({-1: 0.5, 1: 0.5}))
        assert rep.adapted and not rep.aperiodic

    def test_span_two_not_adapted(self):
        rep = check_hypotheses(law_from_masses({-2: 0.5, 2: 0.5}))
        assert not rep.adapted and not rep.aperiodic

    def test_law_b_drifts(self, law_b):
        rep = check_hypotheses(law_b)
        assert rep.adapted and rep.aperiodic
        assert rep.regime is Regime.POSITIVE_DRIFT
        assert rep.drift == pytest.approx(0.3)

    def test_negative_drift_classified(self):
        rep = check_hypotheses(law_from_masses({-1: 0.5, 0: 0.3, 1: 0.2}))
        assert rep.regime is Regime.NEGATIVE_DRIFT


class TestTilt:
    def test_identity_tilt(self, law_b):
        tilted = tilt(law_b, 1.0)
        assert np.allclose(tilted.masses, law_b.masses, rtol=0, atol=1e-15)

    def test_tilt_normalizes(self):
        for law in random_laws(5, seed=7, centered=False):
            for r in (0.3, 0.9, 2.5):
                assert math.fsum(tilt(law, r).masses.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_law_b_centering_tilt(self, law_b):
        r0 = math.sqrt(0.4)
        tilted = tilt(law_b, r0)
        # closed form: masses 0.2/r0, 0.3, 0.5 r0, normalized by 0.3 + 2 sqrt(0.1)
        rho0 = 0.3 + 2 * math.sqrt(0.1)
        assert tilted.mass(-1) == pytest.approx(0.2 / r0 / rho0, abs=1e-12)
        assert tilted.mass(0) == pytest.approx(0.3 / rho0, abs=1e-12)
        assert tilted.mass(1) == pytest.approx(0.5 * r0 / rho0, abs=1e-12)
        assert moments(tilted)[0] == pytest.approx(0.0, abs=1e-12)

    def test_tilt_rejects_nonpositive(self, law_a):
        with pytest.raises(NonPositiveArgument):
            tilt(law_a, 0.0)

    def test_mgf_of_tilt_identity(self):
        # mgf_r(z) = mgf(r z) / mgf(r) on a grid of z
        for law in random_laws(4, seed=3, centered=False):
            for r in (0.5, 1.3):
                tilted = tilt(law, r)
                for z in (0.4, 0.8, 1.0, 1.7):
                    assert mgf(tilted, z) == pytest.approx(
                        mgf(law, r * z) / mgf(law, r), rel=1e-13
                    )


class TestMinimizeMgf:
    def test_centered_law_fixed_point(self, law_a):
        info = minimize_mgf(law_a)
        assert info.r0 == 1.0
        assert info.rho0 == pytest.approx(1.0, abs=1e-12)

    def test_law_b_closed_form(self, law_b):
        info = minimize_mgf(law_b)
        assert info.r0 == pytest.approx(math.sqrt(0.4), abs=1e-12)
        assert info.rho0 == pytest.approx(0.3 + 2 * math.sqrt(0.1), abs=1e-12)
        assert info.R0 == pytest.approx(1.0 / info.rho0, rel=1e-15)

    def test_tilted_law_is_centered(self, law_b):
        info = minimize_mgf(law_b)
        tilted = tilt(law_b, info.r0)
        assert moments(tilted)[0] == pytest.approx(0.0, abs=1e-12)
        assert minimize_mgf(tilted).r0 == pytest.approx(1.0, abs=1e-9)

    def test_rho0_at_most_one(self):
        for law in random_laws(8, seed=23, centered=False):
            info = minimize_mgf(law)
            drift = moments(law)[0]
            assert info.rho0 <= 1.0 + 1e-12
            if abs(drift) > 1e-6:
                assert info.rho0 < 1.0
        for law in random_laws(4, seed=29, centered=True):
            assert minimize_mgf(law).rho0 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "masses,r0",
        [
            ({-1: 2e-10, 1: 0.5 - 2e-10, 8: 0.5}, 2.0000000004e-05),
            ({-1: 1e-9, **{k: (1 - 1e-9) / 8 for k in range(1, 9)}}, 8.943e-05),
        ],
        ids=["three_point", "uniform_1_8"],
    )
    def test_minimum_far_below_one(self, masses, r0):
        # mgf(r0) is far below the size of the terms mgf' cancels, so the
        # stop test is relative to those terms, not to mgf(r0)
        from reflectwalk.laws import mgf_derivative

        law = law_from_masses(masses)
        info = minimize_mgf(law)
        assert info.r0 == pytest.approx(r0, rel=1e-4)
        assert mgf_derivative(law, info.r0 * (1 - 1e-9)) < 0 < mgf_derivative(law, info.r0 * (1 + 1e-9))

    def test_stationarity_of_minimizer(self):
        from reflectwalk.laws import mgf_derivative

        for law in random_laws(6, seed=41, centered=False):
            info = minimize_mgf(law)
            assert abs(mgf_derivative(law, info.r0)) <= 1e-10
