import difflib

import numpy as np
import pytest

from reflectwalk import LatticeLaw, law_from_masses, minimize_mgf, tilt
from reflectwalk.chain import _shift_add


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


def untrimmed_walk(law: LatticeLaw, x: int, n_max: int, fold=False, last_first=False):
    """Rows 0..n_max of the DP walk from x, stepped by `_shift_add` alone with
    every row kept whole (zero tail included), and the killed masses: entry
    [n, w-1] is the mass landing on -w at step n (zero with `fold`, where it
    lands on w instead). The reference the trimmed walks must match bit for bit."""
    a, taps = law.a, law.masses.tolist()
    order = range(len(taps) - 1, -1, -1) if last_first else range(len(taps))
    row = np.zeros(x + 1)
    row[x] = 1.0
    rows, killed = [row], [np.zeros(a)]
    for _ in range(n_max):
        out = _shift_add(row, taps, order)
        row, dropped = out[a:], out[:a][::-1]
        if fold:
            row = np.concatenate((row, np.zeros(max(0, a + 1 - row.size))))
            row[1 : a + 1] += dropped
            dropped = np.zeros(a)
        rows.append(row)
        killed.append(dropped)
    return rows, np.array(killed)


def assert_trimmed(table, whole_rows):
    """Each row of `table` is its whole row with the zero tail cut, bit for bit."""
    assert len(table) == len(whole_rows)
    for row, whole in zip(table, whole_rows):
        assert np.array_equal(row, whole[: row.size]) and not whole[row.size :].any()


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
