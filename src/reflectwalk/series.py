"""Truncated power series in the time variable s, the carrier for all transforms.

Coefficients are held for exponents 0..n_max; nothing reads beyond the
horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    coeffs: np.ndarray  # coefficient of s^n at index n, length n_max + 1

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_max(self) -> int:
        return self.coeffs.shape[0] - 1

    def __getitem__(self, n: int) -> float:
        return float(self.coeffs[n])

    def evaluate(self, s: float) -> float:
        """Horner evaluation of the truncated polynomial at s."""
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * s + c
        return acc

    def tail_bound(self, s: float) -> float:
        """Geometric bound on the discarded tail, |c_nmax| s^(nmax+1) / (1-s).

        Valid as a crude error indicator when the coefficients are
        probabilities of disjoint events (so they are bounded by the last
        retained coefficient's scale); only defined for 0 <= s < 1.
        """
        if not 0.0 <= s < 1.0:
            raise ValueError(f"tail bound needs 0 <= s < 1, got {s}")
        return abs(float(self.coeffs[-1])) * s ** (self.n_max + 1) / (1.0 - s)

    def partial_sums(self) -> np.ndarray:
        """Cumulative sums of the coefficients (evaluation at s = 1, by stage)."""
        return np.cumsum(self.coeffs)

