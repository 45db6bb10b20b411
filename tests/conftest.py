import difflib

import numpy as np
import pytest

from reflectwalk import LatticeLaw, factorize_at, law_from_masses, minimize_mgf, tilt
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


def random_laws(count: int, seed: int, centered: bool):
    """Seeded sample of valid laws; centered ones are produced by tilting."""
    rng = np.random.default_rng(seed)
    laws = []
    while len(laws) < count:
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        masses = rng.dirichlet(np.ones(a + b + 1)) + 0.02
        masses /= masses.sum()
        law = law_from_masses({k - a: m for k, m in enumerate(masses)})
        if centered:
            law = tilt(law, minimize_mgf(law).r0)
        laws.append(law)
    return laws


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
