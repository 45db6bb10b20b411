import difflib
import math

import numpy as np
import pytest

from reflectwalk import LatticeLaw, factorize_at, law_from_masses, minimize_mgf, reflection, tilt
from reflectwalk.chain import TINY
from reflectwalk.reflection import _renewal_sum
from reflectwalk.wiener_hopf import u_minus_at, u_plus_at


@pytest.fixture(scope="session")
def law_a() -> LatticeLaw:
    """Centered three-point law, uniform on {-1, 0, 1}."""
    return law_from_masses({-1: 1 / 3, 0: 1 / 3, 1: 1 / 3})


@pytest.fixture(scope="session")
def law_b() -> LatticeLaw:
    """Drifted three-point law, drift +0.3."""
    return law_from_masses({-1: 0.2, 0: 0.3, 1: 0.5})


@pytest.fixture(scope="session")
def law_p5() -> LatticeLaw:
    """Symmetric five-point law on {-2..2}; the smallest a = 2 fixture."""
    return law_from_masses({k: 0.2 for k in range(-2, 3)})


@pytest.fixture(scope="session")
def law_asym() -> LatticeLaw:
    """Centered but asymmetric law with a = 2 (separates interval conventions)."""
    return law_from_masses({-2: 0.1, -1: 0.2, 0: 0.3, 1: 0.4})


def random_laws(count: int, seed: int, centered: bool, width: int = 3):
    """Seeded sample of valid laws with a, b in 1..width; centered ones are
    produced by tilting."""
    rng = np.random.default_rng(seed)
    laws = []
    while len(laws) < count:
        a = int(rng.integers(1, width + 1))
        b = int(rng.integers(1, width + 1))
        masses = rng.dirichlet(np.ones(a + b + 1)) + 0.02
        masses /= masses.sum()
        law = law_from_masses({k - a: m for k, m in enumerate(masses)})
        if centered:
            law = tilt(law, minimize_mgf(law).r0)
        laws.append(law)
    return laws


def dense_law(a: int, b: int, seed: int) -> LatticeLaw:
    """Seeded law on [-a, b] with every mass positive: Dirichlet masses plus a
    0.02 floor, as the benchmark draws its wide laws."""
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(a + b + 1)) + 0.02
    return law_from_masses({k - a: float(m) for k, m in enumerate(masses / masses.sum())})


def wide_drifted_law(seed: int = 8) -> LatticeLaw:
    """A 21-point drifted law drawn as the benchmark draws its d8 law: a dense
    law on [-8, 12], tilted to zero drift, then tilted by r = 1.15."""
    law = dense_law(8, 12, seed)
    return tilt(tilt(law, minimize_mgf(law).r0), 1.15)


def shift_add(row: np.ndarray, taps: list, order: range) -> np.ndarray:
    """Full linear convolution, out[t] = sum_k taps[k] * row[t - k], in a
    fresh array: the reference kernel that `dp_step` steps with.

    The taps are summed in `order`: the first writes its products, each later
    nonzero tap adds its own, as in `chain._evolve`. A law's outer masses are
    positive, so the first tap of either order is never skipped.
    """
    length = row.shape[0]
    out = np.zeros(length + len(taps) - 1)
    k = order[0]
    np.multiply(row, taps[k], out=out[k : k + length])
    product = np.empty(length)
    for k in order[1:]:
        if taps[k] != 0.0:
            seg = out[k : k + length]
            np.add(seg, np.multiply(row, taps[k], out=product), out=seg)
    return out


def dp_step(row: np.ndarray, law: LatticeLaw, fold=False, last_first=False):
    """One step of the DP walk by `shift_add` alone: the whole next row (no
    tail cut) and the killed masses, entry w-1 the mass landing on -w (zero
    with `fold`, where it lands on w instead)."""
    a, taps = law.a, law.masses.tolist()
    order = range(len(taps) - 1, -1, -1) if last_first else range(len(taps))
    out = shift_add(row, taps, order)
    row, dropped = out[a:], out[:a][::-1]
    if fold:
        row = np.concatenate((row, np.zeros(max(0, a + 1 - row.size))))
        row[1 : a + 1] += dropped
        dropped = np.zeros(a)
    return row, dropped


def untrimmed_walk(law: LatticeLaw, x: int, n_max: int, fold=False, last_first=False):
    """Rows 0..n_max of the DP walk from x, stepped by `dp_step` with every row
    kept whole (subnormal and zero tail included), and the killed masses:
    entry [n, w-1] is the mass landing on -w at step n. The reference that the
    trimmed walks must match (see `assert_matches_untrimmed`)."""
    row = np.zeros(x + 1)
    row[x] = 1.0
    rows, killed = [row], [np.zeros(law.a)]
    for _ in range(n_max):
        row, dropped = dp_step(row, law, fold, last_first)
        rows.append(row)
        killed.append(dropped)
    return rows, np.array(killed)


def assert_matches_untrimmed(values, reference):
    """`values`, zero-padded to the length of `reference`, match the untrimmed
    recursion: bit for bit wherever either side is at least 1e-280, and within
    1e-300 everywhere else. A tail cut below TINY moves only entries that small."""
    values, reference = np.asarray(values, dtype=float), np.asarray(reference, dtype=float)
    assert values.size <= reference.size
    padded = np.zeros(reference.size)
    padded[: values.size] = values
    large = (np.abs(padded) >= 1e-280) | (np.abs(reference) >= 1e-280)
    assert np.array_equal(padded[large], reference[large])
    assert np.all(np.abs(padded - reference) <= 1e-300)


def assert_trimmed(table, whole_rows, law: LatticeLaw, fold=False, last_first=False):
    """Each row of `table` is the step of the row before it with exactly its
    tail below TINY cut: it ends in an entry of at least TINY (or has length
    1), and every entry cut is below TINY. Each row also matches its whole row
    of the untrimmed walk, as `assert_matches_untrimmed` states."""
    assert len(table) == len(whole_rows)
    for n, (row, whole) in enumerate(zip(table, whole_rows)):
        assert row.size == 1 or row[-1] >= TINY
        if n:
            step, _ = dp_step(table[n - 1], law, fold, last_first)
            assert np.array_equal(row, step[: row.size]) and np.all(step[row.size :] < TINY)
        assert_matches_untrimmed(row, whole)


def e_value_at_s(law: LatticeLaw, s: float, x: int, y: int) -> float:
    """E_s(x, y) = sum_k U_s^-(k - x) U_s^+(y - k), from a fresh factorization
    of `law` at s: the s-weighted excursion value that slope oracles and the
    tilt conjugation are checked against."""
    fp = factorize_at(law, s)
    return _renewal_sum(u_minus_at(fp, x), u_plus_at(fp, y), x, y)


def record_kernel_rows(monkeypatch) -> list:
    """Patch `reflection._kernel_rows` to record (u_minus, phi_minus, xs) of every call."""
    calls, build = [], reflection._kernel_rows

    def recording(u_minus, phi_minus, xs):
        calls.append((u_minus, phi_minus, list(xs)))
        return build(u_minus, phi_minus, xs)

    monkeypatch.setattr(reflection, "_kernel_rows", recording)
    return calls


def rows_built(calls: list, ladder, table) -> list:
    """The x of every recorded row, per operand pair: kernel rows, then the
    renewal and the overshoot term of the slope rows."""
    pairs = [(ladder.U_minus, ladder.mu_minus), (table.slope_U_minus, ladder.mu_minus),
             (ladder.U_minus, table.slope_T_minus)]
    return [[x for u, phi, xs in calls if u is want_u and phi is want_phi for x in xs] for want_u, want_phi in pairs]


def golden_mismatch(name: str, out: str, golden: str, limit: int = 40) -> str:
    """Failure message for a golden comparison: the lines that differ, as a
    short unified diff (golden first, then the output)."""
    diff = difflib.unified_diff(
        golden.splitlines(), out.splitlines(),
        f"golden/{name}.out", "stdout", n=1, lineterm="",
    )
    lines = list(diff)
    more = [f"... {len(lines) - limit} more diff lines"] if len(lines) > limit else []
    return "\n".join([f"golden mismatch for {name}:", *lines[:limit], *more])


# ------------------------------------------------------------------ reference
# The closed-form kernels as first written, one numpy scalar at a time. The
# library computes them on Python floats and whole arrays; each value must
# come out with the same bits (see tests/test_closed_form_bits.py).


def polyval_reference(coeffs_low_first: np.ndarray, z: complex) -> complex:
    """Horner's rule on numpy scalars."""
    acc = 0.0 + 0.0j
    for c in coeffs_low_first[::-1]:
        acc = acc * z + c
    return acc


def polish_roots_reference(coeffs_low_first: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Newton corrections per root, on numpy scalars throughout."""
    deriv = coeffs_low_first[1:] * np.arange(1, coeffs_low_first.shape[0])
    out = []
    for z in roots:
        for _ in range(6):
            p = polyval_reference(coeffs_low_first, z)
            dp = polyval_reference(deriv, z)
            if dp == 0:
                break
            step = p / dp
            z = z - step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        out.append(z)
    return np.array(out)


def deflate_root_one_reference(coeffs_low_first: np.ndarray) -> tuple[np.ndarray, float]:
    """Synthetic division by (z - 1), indexing the array term by term."""
    n = coeffs_low_first.shape[0] - 1
    quo = np.zeros(n)
    acc = 0.0
    for j in range(n, 0, -1):
        acc += coeffs_low_first[j]
        quo[j - 1] = acc
    rem = acc + coeffs_low_first[0]
    return quo, rem


def circle_gaps_reference(law: LatticeLaw, s: float, phi_minus: np.ndarray, phi_plus: np.ndarray) -> list:
    """|1 - s mgf(z) - (1 - phi-(z))(1 - phi+(z))| at z = exp(2 pi i k / 64),
    one point at a time: each factor sum()s its terms c * z ** k, lowest
    power first, on numpy scalars."""
    gaps = []
    for k in range(64):
        z = np.exp(2j * np.pi * k / 64)
        lhs = 1.0 - s * polyval_reference(law.masses, z) * z**law.lo
        minus = sum(c * z ** -(w + 1) for w, c in enumerate(phi_minus))
        plus = sum(d * z**j for j, d in enumerate(phi_plus))
        gaps.append(abs(lhs - (1.0 - minus) * (1.0 - plus)))
    return gaps


def circle_residual_reference(law: LatticeLaw, s: float, phi_minus: np.ndarray, phi_plus: np.ndarray):
    """The largest of `circle_gaps_reference`, folded from 0.0 by max()."""
    residual = 0.0
    for gap in circle_gaps_reference(law, s, phi_minus, phi_plus):
        residual = max(residual, gap)
    return residual


def potential_reference(taps: np.ndarray, depth: int, stay: float = 1.0, reverse: bool = False) -> np.ndarray:
    """u[0] = 1 / stay, u[k] = sum_j taps[j-1] u[k-j] / stay with sum() over
    numpy scalars, j = 1 first (or last, with `reverse`: a wrong order that
    the bit tests must be able to tell apart)."""
    u = np.zeros(depth + 1)
    u[0] = 1.0 / stay
    for k in range(1, depth + 1):
        js = range(1, min(k, taps.shape[0]) + 1)
        u[k] = sum(taps[j - 1] * u[k - j] for j in (reversed(js) if reverse else js)) / stay
    return u


def renewal_sum_reference(u_minus, u_plus, x: int, y: int) -> float:
    """fsum of u_minus[x - k] u_plus[y - k] over k = 0..min(x, y), term by term."""
    return math.fsum(u_minus[x - k] * u_plus[y - k] for k in range(0, min(x, y) + 1))


def kernel_row_reference(u_minus, phi_minus, x: int) -> np.ndarray:
    """One `renewal_sum_reference` per y = 1..a against phi_minus read backwards."""
    a, backwards = phi_minus.shape[0], phi_minus[::-1]
    return np.array([renewal_sum_reference(u_minus, backwards, x, a - y) for y in range(1, a + 1)])


def stationary_weights_reference(mu: np.ndarray) -> np.ndarray:
    """The normalized closed-form stationary weights, on numpy scalars."""
    a = mu.shape[0]
    nu = np.zeros(a)
    for x in range(1, a + 1):
        total = 0.0
        for y in range(1, a + 1):
            mid = math.fsum(mu[v - 1] for v in range(x + 1, min(x + y - 1, a) + 1))
            term = 0.5 * mu[x - 1] + mid
            if x + y <= a:
                term += 0.5 * mu[x + y - 1]
            total += term * mu[y - 1]
        nu[x - 1] = total
    return nu / math.fsum(nu.tolist())
