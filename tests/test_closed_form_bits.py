"""The closed-form kernels run on Python floats and whole arrays; each value
must keep the bits of the term-by-term numpy-scalar reference in conftest.

Laws up to a = b = 20 make the potentials add up to 20 terms per entry, so a
change of summation order shows (the negative controls check that it does).
Factor pairs at s < 1 and the ascent potential cover stay != 1; validate's
s = 0.99 and a law with a = 1 cover the circle residual's lhs at z^-1.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectwalk import (
    ReflectWalkError,
    asymptotic_law,
    build_reflection_core,
    factorize_at,
    ladder_laws,
    law_from_masses,
    minimize_mgf,
    slopes,
    tilt,
)
from reflectwalk import wiener_hopf
from reflectwalk.laws import MASS_SUM_TOL
from reflectwalk.reflection import _kernel_rows, _renewal_sum, _stationary_weights
from reflectwalk.wiener_hopf import (
    RICHARDSON_S,
    _circle_gaps,
    _deflate_root_one,
    _polish_roots,
    _polydiv,
    _polyval,
    _potential,
    default_depth,
    u_minus_at,
)
from conftest import (
    circle_gaps_reference,
    circle_residual_reference,
    deflate_root_one_reference,
    kernel_row_reference,
    polish_roots_reference,
    polyval_reference,
    potential_reference,
    random_laws,
    renewal_sum_reference,
    stationary_weights_reference,
)

S_VALUES = (1.0, *RICHARDSON_S, 0.99, 0.9, 0.5)


def wide_law(a: int, b: int, seed: int):
    """A centered law on [-a, b], drawn as the benchmark draws its laws."""
    masses = np.random.default_rng(seed).dirichlet(np.ones(a + b + 1)) + 0.02
    masses /= masses.sum()
    law = law_from_masses({k - a: float(m) for k, m in enumerate(masses)})
    return tilt(law, minimize_mgf(law).r0)


@pytest.fixture(scope="module")
def laws():
    wide = [wide_law(20, 20, 1), wide_law(12, 3, 2), wide_law(3, 12, 3), wide_law(1, 6, 4)]
    return [*wide, *random_laws(5, 15, True, width=20)]


@pytest.fixture(scope="module")
def pairs(laws):
    return [(law, factorize_at(law, s)) for law in laws for s in S_VALUES]


@pytest.fixture(scope="module")
def systems(laws):
    out = []
    for law in laws:
        ladder = ladder_laws(law)
        out.append((law, ladder, slopes(law, ladder)))
    return out


def same_bits(got, want) -> bool:
    """Equal to the last bit, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_laws_reach_the_widest_window(laws, pairs):
    assert max(law.a for law in laws) == 20 and max(law.b for law in laws) == 20
    assert any(1.0 - fp.phi_plus[0] != 1.0 for _, fp in pairs if fp.s < 1.0)


def settles_at(u: np.ndarray, m: int):
    """The first k whose u[k - m..k] are one positive value, or None."""
    for k in range(m, u.shape[0]):
        if u[k] > 0.0 and np.all(u[k - m : k + 1] == u[k]):
            return k
    return None


class TestPotential:
    def test_descent_and_ascent_potentials(self, pairs):
        # four times the default depth, past the fixed point of most of them
        for law, fp in pairs:
            depth = 4 * default_depth(law)
            assert same_bits(_potential(fp.phi_minus, depth), potential_reference(fp.phi_minus, depth))
            stay = 1.0 - fp.phi_plus[0]
            want = potential_reference(fp.phi_plus[1:], depth, stay)
            assert same_bits(_potential(fp.phi_plus[1:], depth, stay), want), (law.a, law.b, fp.s)

    def test_some_potentials_settle_before_the_default_depth(self, pairs):
        # the reference reaches an exact fixed point, so the stop fires; not
        # every potential gets there, so the loop to full depth runs too
        settled = []
        for law, fp in pairs:
            if fp.s == 1.0:
                depth = default_depth(law)
                settled.append(settles_at(potential_reference(fp.phi_minus, depth), law.a))
                u_plus = potential_reference(fp.phi_plus[1:], depth, 1.0 - fp.phi_plus[0])
                settled.append(settles_at(u_plus, law.b))
        assert any(k is not None for k in settled) and None in settled

    def test_reversed_order_is_told_apart(self, pairs):
        # negative control: summing the taps last-first changes some bit
        differs = 0
        for law, fp in pairs:
            got = _potential(fp.phi_minus, 4 * law.a)
            differs += not same_bits(got, potential_reference(fp.phi_minus, 4 * law.a, reverse=True))
        assert differs > 0


class TestRenewalSums:
    def test_renewal_sums(self, systems):
        for law, ladder, table in systems:
            operands = [
                (ladder.U_minus, ladder.U_plus),
                (table.slope_U_minus, ladder.U_plus),
                (ladder.U_minus, table.slope_U_plus),
            ]
            for u_minus, u_plus in operands:
                for x in (-1, 0, 1, 2, law.a, 2 * law.a + 1):
                    for y in (-1, 0, 1, law.b, 3 * law.b):
                        got = _renewal_sum(u_minus, u_plus, x, y)
                        assert same_bits(got, renewal_sum_reference(u_minus, u_plus, x, y)), (x, y)

    def test_kernel_rows(self, systems):
        # one product table per window; the slope operands hold negative entries
        assert any(law.a == 1 for law, _, _ in systems)
        for law, ladder, table in systems:
            xs = range(0, max(2 * law.a, 8) + 1)
            operands = [
                (ladder.U_minus, ladder.mu_minus),
                (table.slope_U_minus, ladder.mu_minus),
                (ladder.U_minus, table.slope_T_minus),
            ]
            for s in RICHARDSON_S:
                fp = ladder.factor_pair(s)
                operands.append((u_minus_at(fp, xs[-1]), fp.phi_minus))
            for u_minus, phi_minus in operands:
                rows = _kernel_rows(u_minus, phi_minus, xs)
                assert list(rows) == list(xs)
                for x in xs:
                    want = kernel_row_reference(u_minus, phi_minus, x)
                    assert same_bits(rows[x], want), (law.a, x)
                    assert same_bits(_kernel_rows(u_minus, phi_minus, [x])[x], want), (law.a, x)


class TestFactorization:
    def test_polyval(self, pairs):
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        for law, fp in pairs:
            q = -fp.s * law.masses.copy()
            q[law.a] += 1.0
            deriv = q[1:] * np.arange(1, q.shape[0])
            points = [*np.roots(q[::-1]), *circle]
            for coeffs in (law.masses, q, deriv):
                for z in points:
                    assert same_bits(_polyval(coeffs.tolist(), z), polyval_reference(coeffs, z))

    def test_polished_roots(self, pairs):
        for law, fp in pairs:
            q = -fp.s * law.masses.copy()
            q[law.a] += 1.0
            if fp.s == 1.0:
                q, _ = deflate_root_one_reference(q)
                q, _ = deflate_root_one_reference(q)
            roots = np.roots(q[::-1])
            # the perturbed starts take full Newton steps, whose rounding shows
            for starts in (roots, roots * (1.0 + 1e-6), roots + 1e-7j):
                want = polish_roots_reference(q, starts)
                assert same_bits(_polish_roots(q, starts), want), (law.a, law.b, fp.s)

    def test_deflation(self, laws):
        for law in laws:
            q = -law.masses.copy()
            q[law.a] += 1.0
            for _ in range(2):
                quo, rem = _deflate_root_one(q)
                want_quo, want_rem = deflate_root_one_reference(q)
                assert same_bits(quo, want_quo) and same_bits(float(rem), float(want_rem))
                q = quo

    def test_circle_gaps(self, pairs):
        for law, fp in pairs:
            want = circle_gaps_reference(law, fp.s, fp.phi_minus, fp.phi_plus)
            assert same_bits(_circle_gaps(law, fp.s, fp.phi_minus, fp.phi_plus), want), (law.a, law.b, fp.s)

    def test_other_power_or_sum_order_is_told_apart(self, pairs):
        # negative control: `**` in place of np.power, or each factor summed
        # along the contiguous axis (pairwise), moves some per-point gap
        for variant in ({}, {"power": operator.pow}, {"axis": 1}):
            differs = 0
            for law, fp in pairs:
                want = circle_gaps_reference(law, fp.s, fp.phi_minus, fp.phi_plus)
                differs += not same_bits(circle_gaps_variant(law, fp, **variant), want)
            assert (differs > 0) == bool(variant), variant

    def test_quotient_and_residual(self, pairs, monkeypatch):
        divisions = []

        def recorded(u, v):
            divisions.append((u, v))
            return _polydiv(u, v)

        monkeypatch.setattr(wiener_hopf, "_polydiv", recorded)
        for law, fp in pairs:
            assert same_bits(factorize_at(law, fp.s).residual, fp.residual)
            u, v = divisions[-1]
            want_q, want_r = np.polydiv(u, v)
            got_q, got_r = _polydiv(u, v)
            assert same_bits(got_q, want_q) and same_bits(got_r, want_r), (law.a, law.b, fp.s)
            circle = circle_residual_reference(law, fp.s, fp.phi_minus, fp.phi_plus)
            assert same_bits(fp.residual, max(float(np.max(np.abs(want_r))), circle)), (law.a, law.b, fp.s)

    def test_quotient_of_inexact_divisions(self, pairs):
        cases = []
        for law, fp in pairs:
            u = (-fp.s * law.masses)[::-1].copy()
            u[law.b] += 1.0
            v = np.concatenate(([1.0], -fp.phi_minus))
            cases += [(u, v), (u, 3.0 * v), (u, v + 1e-3), (u[:-2], v), (u[: law.a], v)]
        # by z^3 the remainder is the last three entries exactly, so these
        # leading entries sit on either side of the 1e-8 strip bound
        leads = (0.0, 1e-12, 1e-8, -1e-8, np.nextafter(1e-8, 1.0), 1e-3, np.nan, np.inf)
        for lead in leads:
            for tail in ([1e-9, 0.5], [lead, 0.0], [0.0, 0.0]):
                cases.append((np.array([2.0, -1.0, lead, *tail]), np.array([1.0, 0.0, 0.0, 0.0])))
        cases += [(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])), (np.array([4.0]), np.array([2.0]))]
        stopped_early = 0
        for u, v in cases:
            want_q, want_r = np.polydiv(u, v)
            got_q, got_r = _polydiv(u, v)
            assert same_bits(got_q, want_q) and same_bits(got_r, want_r), (u, v)
            stopped_early += want_r.size > 1
        assert stopped_early > 0


def circle_gaps_variant(law, fp, power=np.power, axis=0):
    """`_circle_gaps` written out again, with its power taken per exponent by
    `power` and each factor reduced along `axis` of a (power, point) table
    (axis=1 reduces a transposed, contiguous copy, which numpy sums pairwise)."""
    circle = np.exp(2j * np.pi * np.arange(64) / 64)

    def one_minus(coeffs, exps):
        terms = coeffs[:, None] * np.array([power(circle, int(k)) for k in exps])
        return 1.0 - np.add.reduce(terms if axis == 0 else np.ascontiguousarray(terms.T), axis=axis)

    descent = one_minus(fp.phi_minus, range(-1, -law.a - 1, -1))
    ascent = one_minus(fp.phi_plus, range(law.b + 1))
    z_lo, masses = power(circle, law.lo), law.masses.tolist()
    return [abs(1.0 - fp.s * _polyval(masses, circle[k]) * z_lo[k] - descent[k] * ascent[k]) for k in range(64)]


def test_stationary_weights(systems):
    for law, ladder, _ in systems:
        assert same_bits(_stationary_weights(ladder.mu_minus), stationary_weights_reference(ladder.mu_minus))
    # the core build keeps these weights for the widest law
    law, ladder, table = systems[0]
    core = build_reflection_core(ladder, table)
    assert same_bits(core.nu, stationary_weights_reference(ladder.mu_minus))


# A mass near MASS_SUM_TOL, the scale the law checks resolve; lazy laws put
# most of their mass at 0.
TINY_MASS = st.floats(MASS_SUM_TOL / 10, MASS_SUM_TOL * 10)
OUTER_MASS = st.one_of(st.floats(0.01, 1.0), TINY_MASS)
INNER_MASS = st.one_of(st.floats(0.01, 1.0), st.just(0.0), TINY_MASS)


@st.composite
def centered_draws(draw):
    """Weights on [-a, b], a, b <= 8, with extra weight at 0, and a state pair."""
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    weights = [draw(OUTER_MASS), *(draw(INNER_MASS) for _ in range(a + b - 1)), draw(OUTER_MASS)]
    weights[a] += draw(st.sampled_from([0.0, 1.0, 100.0, 1e6]))
    return a, weights, draw(st.integers(0, a)), draw(st.integers(0, a))


def finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


@settings(max_examples=30, deadline=None)
@given(centered_draws())
def test_closed_forms_are_finite_or_typed_errors(draw):
    """On a centered law (tilted to r0), each closed-form layer returns finite
    values or raises a ReflectWalkError; where the ladder laws exist, the
    potentials and the kernel rows keep the bits of the conftest references."""
    a, weights, x, y = draw
    total = math.fsum(weights)
    try:
        law = law_from_masses({k - a: w / total for k, w in enumerate(weights)})
        law = tilt(law, minimize_mgf(law).r0)
        ladder = ladder_laws(law)
    except ReflectWalkError:
        return
    assert finite(ladder.mu_minus, ladder.mu_plus, ladder.U_minus, ladder.U_plus)
    assert finite(ladder.sigma, ladder.mean_ladder_minus, ladder.residual)
    fp, depth = ladder.factor_pair(1.0), ladder.depth
    assert same_bits(ladder.U_minus, potential_reference(fp.phi_minus, depth))
    assert same_bits(ladder.U_plus, potential_reference(fp.phi_plus[1:], depth, 1.0 - fp.phi_plus[0]))
    xs = range(0, max(2 * law.a, 8) + 1)
    operands = [(ladder.U_minus, ladder.mu_minus)]
    try:
        table = slopes(law, ladder)
        assert finite(table.slope_T_minus, table.slope_T_plus, table.slope_U_minus, table.slope_U_plus)
        operands += [(table.slope_U_minus, ladder.mu_minus), (ladder.U_minus, table.slope_T_minus)]
        core = build_reflection_core(ladder, table)
        assert finite(core.core, core.nu, core.kappa, core.slope_rel_err)
        assert finite(list(core.rows.values()), list(core.tilde_rows.values()))
    except ReflectWalkError:
        pass
    for u_minus, phi_minus in operands:
        rows = _kernel_rows(u_minus, phi_minus, xs)
        for x_row in xs:
            assert same_bits(rows[x_row], kernel_row_reference(u_minus, phi_minus, x_row)), x_row
    try:
        result = asymptotic_law(law, x, y)
    except ReflectWalkError:
        return
    assert finite(result.rho, result.beta, result.C)
