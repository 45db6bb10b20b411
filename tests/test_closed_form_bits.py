"""The closed-form kernels run on Python floats and whole arrays; each value
must keep the bits of the term-by-term numpy-scalar reference in conftest.

Laws up to a = b = 20 make the potentials add up to 20 terms per entry, so a
change of summation order shows (the negative control checks that it does).
Factor pairs at s < 1 and the ascent potential cover stay != 1.
"""

import numpy as np
import pytest

from reflectwalk import build_reflection_core, factorize_at, ladder_laws, law_from_masses, minimize_mgf, slopes, tilt
from reflectwalk.reflection import _kernel_row, _renewal_sum, _stationary_weights
from reflectwalk.wiener_hopf import (
    RICHARDSON_S,
    _deflate_root_one,
    _polish_roots,
    _polyval,
    _potential,
    default_depth,
    u_minus_at,
)
from conftest import (
    deflate_root_one_reference,
    kernel_row_reference,
    polish_roots_reference,
    polyval_reference,
    potential_reference,
    random_laws,
    renewal_sum_reference,
    stationary_weights_reference,
)

S_VALUES = (1.0, *RICHARDSON_S, 0.9, 0.5)


def wide_law(a: int, b: int, seed: int):
    """A centered law on [-a, b], drawn as the benchmark draws its laws."""
    masses = np.random.default_rng(seed).dirichlet(np.ones(a + b + 1)) + 0.02
    masses /= masses.sum()
    law = law_from_masses({k - a: float(m) for k, m in enumerate(masses)})
    return tilt(law, minimize_mgf(law).r0)


@pytest.fixture(scope="module")
def laws():
    return [wide_law(20, 20, 1), wide_law(12, 3, 2), wide_law(3, 12, 3), *random_laws(5, 15, True, width=20)]


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


class TestPotential:
    def test_descent_and_ascent_potentials(self, pairs):
        for law, fp in pairs:
            depth = default_depth(law)
            assert same_bits(_potential(fp.phi_minus, depth), potential_reference(fp.phi_minus, depth))
            stay = 1.0 - fp.phi_plus[0]
            want = potential_reference(fp.phi_plus[1:], depth, stay)
            assert same_bits(_potential(fp.phi_plus[1:], depth, stay), want), (law.a, law.b, fp.s)

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
                for x in xs:
                    want = kernel_row_reference(u_minus, phi_minus, x)
                    assert same_bits(_kernel_row(u_minus, phi_minus, x), want), (law.a, x)


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


def test_stationary_weights(systems):
    for law, ladder, _ in systems:
        assert same_bits(_stationary_weights(ladder.mu_minus), stationary_weights_reference(ladder.mu_minus))
    # the core build keeps these weights for the widest law
    law, ladder, table = systems[0]
    core = build_reflection_core(ladder, table)
    assert same_bits(core.nu, stationary_weights_reference(ladder.mu_minus))
