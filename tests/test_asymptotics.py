import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from reflectwalk import (
    NegativeDriftUnsupported,
    NotCentered,
    Regime,
    ReflectWalkError,
    centered_constant,
    constant_report,
    drifted_constant,
    excursion_series,
    law_from_masses,
    minimize_mgf,
    oracle_constant_centered,
    oracle_constant_drifted,
    predict,
    tilt,
    tilting_identity_check,
)
from reflectwalk.asymptotics import drifted_objects
from reflectwalk.reflection import e_value_at_s
from conftest import random_laws

SQRT3 = math.sqrt(3.0)
SQRT_PI = math.sqrt(math.pi)


class TestCenteredConstants:
    def test_law_a_values(self, law_a):
        # nu = delta_1, E(1, 0) = 3, nu(Rtilde h) = -2 sqrt(3)
        asym = centered_constant(law_a, 0)
        assert asym.C == pytest.approx(3.0 / (2 * SQRT3 * SQRT_PI), rel=1e-12)
        assert asym.regime is Regime.CENTERED
        assert asym.rho == 1.0 and asym.beta == 0.5
        for y in (1, 2, 5):
            asym_y = centered_constant(law_a, y)
            assert asym_y.C == pytest.approx(6.0 / (2 * SQRT3 * SQRT_PI), rel=1e-12)

    def test_law_a_against_dp(self, law_a):
        for y in (0, 1, 2):
            closed = centered_constant(law_a, y).C
            oracle = oracle_constant_centered(law_a, y, n_max=4000)
            assert abs(closed - oracle) / closed < 0.02

    def test_oracle_start_point_free(self, law_a):
        # the centered constant does not depend on the starting state
        closed = centered_constant(law_a, 1).C
        for x in (0, 3):
            oracle = oracle_constant_centered(law_a, 1, x=x, n_max=3000)
            assert abs(closed - oracle) / closed < 0.02

    def test_wider_law_against_dp(self, law_p5):
        for y in (0, 2):
            closed = centered_constant(law_p5, y).C
            oracle = oracle_constant_centered(law_p5, y, n_max=2500)
            assert abs(closed - oracle) / closed < 0.02

    def test_three_state_window_against_dp(self):
        # a = 3: the stationary law really spreads over [1, 3]
        law = law_from_masses(
            {-3: 0.08, -2: 0.1, -1: 0.12, 0: 0.32, 1: 0.2, 2: 0.18}
        )
        asym = centered_constant(law, 1)
        assert len(asym.provenance["nu"]) == 3
        assert min(asym.provenance["nu"]) > 0
        for y in (0, 1, 3):
            closed = centered_constant(law, y).C
            oracle = oracle_constant_centered(law, y, n_max=3000)
            assert abs(closed - oracle) / closed < 0.02

    def test_provenance_signs(self, law_p5):
        asym = centered_constant(law_p5, 1)
        assert asym.provenance["nu_Rtilde_h"] < 0
        assert asym.provenance["nu_E"] > 0
        assert asym.C > 0

    def test_support_holes(self):
        # zero masses inside the window must flow through every stage
        law = law_from_masses({-2: 0.5, 1: 0.25, 3: 0.25})
        for y in (0, 2):
            closed = centered_constant(law, y).C
            oracle = oracle_constant_centered(law, y, n_max=3000)
            assert abs(closed - oracle) / closed < 0.02

    def test_rejects_drifted(self, law_b):
        with pytest.raises(NotCentered):
            centered_constant(law_b, 0)

    def test_rejects_periodic(self):
        with pytest.raises(ReflectWalkError, match="aperiodic"):
            centered_constant(law_from_masses({-1: 0.5, 1: 0.5}), 0)


class TestDriftedConstants:
    def test_law_b_rho(self, law_b):
        asym = drifted_constant(law_b, 0, 0)
        assert asym.rho == pytest.approx(0.3 + 2 * math.sqrt(0.1), abs=1e-12)
        assert asym.beta == 1.5 and asym.regime is Regime.POSITIVE_DRIFT
        assert asym.C > 0

    def test_law_b_against_dp(self, law_b):
        asym = drifted_constant(law_b, 0, 0)
        oracle = oracle_constant_drifted(law_b, 0, 0, asym.rho, n_max=400)
        assert abs(asym.C - oracle) / asym.C < 0.05
        finer = oracle_constant_drifted(law_b, 0, 0, asym.rho, n_max=1600)
        assert abs(asym.C - finer) / asym.C < 0.005

    def test_other_entry_against_dp(self, law_b):
        asym = drifted_constant(law_b, 1, 2)
        oracle = oracle_constant_drifted(law_b, 1, 2, asym.rho, n_max=800)
        assert abs(asym.C - oracle) / asym.C < 0.02

    def test_core_spectral_radius_bound(self, law_b):
        # conjugated kernel contracts at least as fast as r0
        obj = drifted_objects(law_b, 0, 0)
        assert obj.core[0, 0] <= obj.r0 + 1e-12
        asym = drifted_constant(law_b, 0, 0)
        assert asym.provenance["core_spectral_radius"] < 1.0

    def test_conjugation_identity_against_dp(self, law_b):
        # E_s(x, y) = r0^(x-y) E^tilted_(rho0 s)(x, y): left side from the
        # drifted chain's own DP series, right side from the factorization
        info = minimize_mgf(law_b)
        tilted = tilt(law_b, info.r0)
        for x, y, s in [(0, 0, 1.0), (2, 1, 1.0), (1, 3, 0.8)]:
            dp = polyval(s, excursion_series(law_b, x, [y], 600)[y])
            closed = info.r0 ** (x - y) * e_value_at_s(tilted, info.rho0 * s, x, y)
            assert dp == pytest.approx(closed, rel=1e-12)

    def test_wide_core_against_dp(self):
        # a = 2 makes the resolvent a genuine 2x2 solve rather than a scalar
        law = law_from_masses({-2: 0.1, -1: 0.15, 0: 0.3, 1: 0.3, 2: 0.15})
        for x, y in ((0, 0), (1, 2), (3, 1)):
            asym = drifted_constant(law, x, y)
            oracle = oracle_constant_drifted(law, x, y, asym.rho)
            assert abs(asym.C - oracle) / asym.C < 0.05
            assert asym.provenance["core_spectral_radius"] < 1.0

    def test_no_lazy_mass(self):
        # mu(0) = 0: the chain cannot sit still, but the weak-ascent law
        # still has an atom at 0 and the pipeline is unchanged
        law = law_from_masses({-1: 0.4, 1: 0.3, 2: 0.3})
        asym = drifted_constant(law, 0, 1)
        oracle = oracle_constant_drifted(law, 0, 1, asym.rho)
        assert abs(asym.C - oracle) / asym.C < 0.05

    def test_conjugated_matrices_match_drifted_dp(self, law_b):
        # the pipeline's kernel and excursion entries are the s = R0 values of
        # the drifted chain's own transforms; the weighted DP partial sums
        # must approach them from below at the n^(-1/2) rate
        from reflectwalk import ladder_laws, reflection_time_table
        from reflectwalk.reflection import e_value, r_row

        info = minimize_mgf(law_b)
        r0, big_r = info.r0, 1.0 / info.rho0
        ladder = ladder_laws(tilt(law_b, r0), depth=60)

        def weighted_reflection_sum(x, n_max):
            refl = reflection_time_table(law_b, x, n_max)
            w = big_r ** np.arange(n_max + 1)
            return float(np.sum(refl[0] * w))

        for x in (0, 1, 3):
            closed = r0 ** (x + 1) * r_row(ladder, x)[0]
            late = weighted_reflection_sum(x, 10_000)
            early = weighted_reflection_sum(x, 2_500)
            assert early < late <= closed + 1e-12
            assert closed - late == pytest.approx((closed - early) / 2, rel=0.1)

        for x, y in ((0, 0), (2, 1)):
            closed = r0 ** (x - y) * e_value(ladder, x, y)
            col = excursion_series(law_b, x, [y], 10_000)[y]
            dp = float(np.sum(col * big_r ** np.arange(10_001)))
            assert dp <= closed + 1e-12
            assert closed - dp < 0.04 * closed

    def test_negative_drift_rejected(self):
        law = law_from_masses({-1: 0.5, 0: 0.3, 1: 0.2})
        with pytest.raises(NegativeDriftUnsupported):
            drifted_constant(law, 0, 0)

    def test_centered_rejected(self, law_a):
        with pytest.raises(NotCentered):
            drifted_constant(law_a, 0, 0)


class TestRandomLawsEndToEnd:
    def test_centered_pipeline(self):
        for law in random_laws(4, seed=71, centered=True):
            closed = centered_constant(law, 1).C
            oracle = oracle_constant_centered(law, 1, n_max=2500)
            assert abs(closed - oracle) / closed < 0.03

    def test_drifted_pipeline(self):
        from reflectwalk import moments

        rng_laws = [
            law for law in random_laws(12, seed=73, centered=False)
            if moments(law)[0] > 0.15
        ][:3]
        assert len(rng_laws) == 3
        for law in rng_laws:
            asym = drifted_constant(law, 0, 1)
            oracle = oracle_constant_drifted(law, 0, 1, asym.rho)
            assert abs(asym.C - oracle) / asym.C < 0.05


class TestPredict:
    def test_centered_form(self):
        from reflectwalk.asymptotics import AsymptoticLaw

        asym = AsymptoticLaw(Regime.CENTERED, 1.0, 0.5, 1.0, {})
        assert predict(asym, 100) == pytest.approx(0.1, rel=1e-15)

    def test_drifted_form(self):
        from reflectwalk.asymptotics import AsymptoticLaw

        asym = AsymptoticLaw(Regime.POSITIVE_DRIFT, 0.5, 1.5, 1.0, {})
        assert predict(asym, 2) == pytest.approx(0.25 * 2**-1.5, rel=1e-15)

    def test_ratio_property(self, law_b):
        asym = drifted_constant(law_b, 0, 0)
        for n in (10, 50):
            ratio = predict(asym, n + 1) / predict(asym, n)
            assert ratio == pytest.approx(asym.rho * (n / (n + 1)) ** asym.beta, rel=1e-12)

    def test_rejects_n_zero(self, law_a):
        with pytest.raises(ValueError):
            predict(centered_constant(law_a, 0), 0)


class TestTiltingIdentity:
    def test_trivial_event(self, law_b):
        # Phi == 1 at n = 1 is forced by the tilt normalization
        assert tilting_identity_check(law_b, 1) < 1e-15

    def test_law_b_exhaustive(self, law_b):
        assert tilting_identity_check(law_b, 6) < 1e-14

    def test_centered_degenerates(self, law_a):
        assert tilting_identity_check(law_a, 4) < 1e-14

    def test_depth_cap(self, law_b):
        with pytest.raises(ValueError):
            tilting_identity_check(law_b, 9)


class TestReports:
    def test_centered_report(self, law_a):
        rep = constant_report(law_a, 0, 0, oracle_n=2000)
        assert rep["regime"] == "centered"
        assert rep["rel_gap"] < 0.02

    def test_drifted_report(self, law_b):
        rep = constant_report(law_b, 0, 0)
        assert rep["regime"] == "positive_drift"
        assert rep["rel_gap"] < 0.05

    def test_report_fails_loudly(self, law_a, monkeypatch):
        import reflectwalk.asymptotics as asym_mod

        monkeypatch.setattr(
            asym_mod, "oracle_constant_centered", lambda *a, **k: 1e9
        )
        with pytest.raises(ReflectWalkError, match="disagree"):
            asym_mod.constant_report(law_a, 0, 0, oracle_n=500)
