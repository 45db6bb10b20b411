"""Mutation check for the numerical gates and the bit-exact kernels.

Each entry names a file, an exact text `old` that must occur in it exactly
once, the text `new` that replaces it, and the reason the mutant should die.
For each entry the repository (bench/ included, .git excluded) is copied to a
temporary directory, the one edit is made there, and the tier-1 suite runs
in the copy; the mutant is "killed" if the suite fails. The working tree is
never edited.

Usage (stdlib only; one tier-1 run per entry, stopped at the first failure):

    python tools/mutants.py            # every entry
    python tools/mutants.py 0 3        # entries 0 and 3
    python tools/mutants.py survivors  # the known survivors, each expected to survive
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WH = "src/reflectwalk/wiener_hopf.py"
REFL = "src/reflectwalk/reflection.py"
ASYM = "src/reflectwalk/asymptotics.py"
LAWS = "src/reflectwalk/laws.py"
CHAIN = "src/reflectwalk/chain.py"
MC = "src/reflectwalk/montecarlo.py"
CLI = "src/reflectwalk/cli.py"
PHILOX = "src/reflectwalk/philox.py"

MUTANTS = [
    (WH, "SLOPE_REL_TOL = 1e-3", "SLOPE_REL_TOL = 1e-1",
     "a sigma 0.2% off must still fail the Richardson slope gate"),
    (WH, "if err > SLOPE_REL_TOL:", "if err > 100 * SLOPE_REL_TOL:",
     "the one slope gate: slopes 0.2% off must fail at every site that reads them"),
    (ASYM, "CENTERED_GAP_TOL = 0.02", "CENTERED_GAP_TOL = 0.2",
     "a centered constant 3% off its DP extrapolation must be rejected"),
    (ASYM, "DRIFTED_GAP_TOL = 0.05", "DRIFTED_GAP_TOL = 0.5",
     "a drifted constant 8% off its DP extrapolation must be rejected"),
    (REFL, "lam >= 1.0 - 1e-12", "lam >= 1.0 - 1e-3",
     "a core of spectral radius 1 - 1e-6 still has a resolvent"),
    (WH, "np.max(np.abs(A_high.imag)) > 1e-10", "np.max(np.abs(A_high.imag)) > 1e-4",
     "an unpaired complex root inside the circle must be rejected"),
    (WH, "max(abs(rem1), abs(rem2)) > 1e-9", "max(abs(rem1), abs(rem2)) > 1e-3",
     "a non-structural double root at z = 1 must be rejected"),
    (WH, "CIRCLE_TOL = 1e-8", "CIRCLE_TOL = 1e-4",
     "roots within 1e-8 of the circle cannot be classified (x 1e4)"),
    (WH, "np.power(circle, law.lo)", "circle ** law.lo",
     "ndarray ** -1 is np.reciprocal, which rounds unlike the scalar z ** -1"),
    (WH, "np.add.reduce(terms, axis=0)", "np.add.reduce(np.ascontiguousarray(terms.T), axis=1)",
     "a reduce along the contiguous axis sums pairwise, not low power first"),
    (ASYM, "column = objects.excursion_column(y, states)",
     'column = objects.excursion_column.__globals__["_excursion"](ladder, slope_table, y, states)',
     "a drifted constant must pass the excursion gate even when a core is passed in"),
    (REFL, "STATIONARY_TOL = 1e-8", "STATIONARY_TOL = 1e-4",
     "weights 1.2e-8 off stationarity in total variation must be rejected"),
    (LAWS, "MASS_SUM_TOL = 1e-12", "MASS_SUM_TOL = 1e-6",
     "masses summing to 1 + 1e-10 must be rejected"),
    (MC, "PATH_STEPS_CAP = 1_000_000_000", "PATH_STEPS_CAP = 10_000_000_000",
     "the Monte Carlo work cap is the README's 10^9 path-steps"),
    (REFL, "EIGEN_TOL = 1e-13", "EIGEN_TOL = 1e-8",
     "power iteration must settle within 1e-12 of the eigenvalue, not stop early"),
    (CHAIN, "MEMORY_CAP_FLOATS = 50_000_000", "MEMORY_CAP_FLOATS = 500_000_000",
     "the DP table cap is the README's 5*10^7 floats"),
    (MC, "counts = np.zeros((hi - lo) * a, dtype=np.int64)", "counts = np.zeros((hi + lo) * a, dtype=np.int64)",
     "estimate_nu over several path blocks: each block's landing table has one row per path of the block"),
    (MC, "q = min(p + tile, paths)", "q = min(p + tile, paths - 1)",
     "the last path tile of a block must draw the block's last path"),
    (CHAIN, "if n_max > n_cap:", "if n_max >= n_cap:",
     "a streamed walk of exactly STREAMING_N_MAX_CAP steps is accepted"),
    (CHAIN, "column = np.array(taps)[list(order), None] if fused else None",
     "column = np.array(taps)[list(order)[::-1], None] if fused else None",
     "the fused step multiplies each window row by its own tap, in the order the reduce adds them"),
    (CHAIN, "series[n] = dest[j]", "series[n] = dest[j - 1]",
     "a streamed walk reads each entry and landing slot at its own buffer index"),
    (ASYM, "if n > 8:", "if n >= 8:",
     "the tilting check convolves up to its cap, n = 8"),
    (ASYM, "info.r0 ** (-ks)", "info.r0 ** ks",
     "the tilted law of S_n is weighted by r0^(-k), the inverse of the tilt"),
    (ASYM, "info.rho0**n", "info.rho0**(n - 1)",
     "each of the n steps of the tilted law carries one factor rho0"),
    (ASYM, "np.convolve(p_tilt, tilted.masses)", "np.convolve(p_tilt, law.masses)",
     "the right side of the identity is built from the tilted law, not the law itself"),
    (REFL, "lam >= 1.0 - 1e-12", "lam > 1.0 - 1e-12",
     "a core of spectral radius exactly 1 - 1e-12 has no resolvent"),
    (WH, "if err > SLOPE_REL_TOL:", "if err >= SLOPE_REL_TOL:",
     "a slope error of exactly SLOPE_REL_TOL passes the gate"),
    (REFL, "abs(lam_new - lam) <= EIGEN_TOL * scale", "abs(lam_new - lam) < EIGEN_TOL * scale",
     "power iteration stops once the eigenvalue moves by at most EIGEN_TOL"),
    (CLI, "if not all(map(math.isfinite, values)):", "if False:",
     "a NaN or infinite CSV value raises instead of printing"),
    (CLI, "hi = m.astype(np.int32)", "hi = m.astype(np.int8)",
     "the array that holds the digit groups g0 g1, then g1 and g2, must hold 0..999"),
    (WH, "if run > m and v > 0.0:", "if run >= m and v > 0.0:",
     "a potential stops only after len(taps) + 1 equal values, when the step that made the last read only them"),
    (REFL, "max(a - 1, 1)", "max(a, 1)",
     "a kernel entry sums one anti-diagonal of the product table, a - 1 flat items apart"),
    (WH, "if depth > POTENTIAL_DEPTH_CAP:", "if depth >= POTENTIAL_DEPTH_CAP:",
     "a potential of exactly POTENTIAL_DEPTH_CAP entries past 0 is accepted"),
    (MC, "np.right_shift(words, 32 - _GUIDE_BITS,", "np.right_shift(words, 31 - _GUIDE_BITS,",
     "a word's guide bucket is its top 16 bits, floor(w * 2^-32 * 2^16)"),
    (MC, "np.add(states, raw[j], out=raw[j])", "np.add(states, raw[j - 1], out=raw[j])",
     "each step adds the states to its own row of increments"),
    (PHILOX, "path_ids >> SHIFT32", "path_ids >> np.uint64(33)",
     "counter word 2 of a draw is the high 32 bits of its path id"),
    (PHILOX, "seed >> 32", "seed >> 33",
     "key word 1 is the high 32 bits of the seed"),
    (PHILOX, "np.bitwise_and(c0, MASK32, out=c3)", "np.bitwise_and(spare, MASK32, out=c3)",
     "c3 is the low word of the first product, M0 c0"),
    (PHILOX, "c2 ^= k1", "c2 ^= k0",
     "the first product's high word is mixed with key word 1"),
]

# Mutants that tier-1 cannot kill, each with its class in the reason:
# equivalent (the same output) or performance-only (the same output after
# more work). `python tools/mutants.py survivors` runs them and expects each
# to survive; one that dies belongs in MUTANTS.
SURVIVORS = [
    (WH, "if run > m and v > 0.0:", "if False:",
     "performance-only: without the stop the loop runs to full depth and gives the same bits"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".work")


def check_entries(entries) -> None:
    """Refuse any entry whose `old` does not occur exactly once."""
    for path, old, _, _ in entries:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            sys.exit(f"mutants: {old!r} occurs {count} times in {path}, expected exactly once")


def run_one(path: str, old: str, new: str) -> tuple[bool, float, str]:
    """Tier-1 on a mutated copy; returns (killed, seconds, last output line)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode != 0, time.perf_counter() - start, lines[-1] if lines else proc.stderr.strip()


def main(argv: list[str]) -> int:
    expect_survivors = argv == ["survivors"]
    if expect_survivors:
        picked = SURVIVORS
    else:
        picked = [MUTANTS[int(i)] for i in argv] if argv else MUTANTS
    check_entries(picked)
    survived = 0
    for path, old, new, reason in picked:
        killed, seconds, last = run_one(path, old, new)
        survived += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {path}: {old!r} -> {new!r} ({seconds:.0f} s; {last})")
        print(f"         {reason}")
    print(f"{len(picked) - survived} killed, {survived} survived")
    return 1 if survived != (len(picked) if expect_survivors else 0) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
