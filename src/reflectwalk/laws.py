"""Finitely supported integer increment laws: hypotheses, moments, exponential tilting.

A law assigns probability masses to the integer window [lo, hi] with lo <= -1
and hi >= 1. Everything downstream (ladder laws, reflection kernels) relies on
the support being tight at both ends, so the constructor enforces it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, InvalidLaw, NonPositiveArgument

MASS_SUM_TOL = 1e-12
DRIFT_TOL = 1e-9
MGF_MAX_ITER = 200  # Newton steps of the mgf minimizer


class Regime(Enum):
    CENTERED = "centered"
    POSITIVE_DRIFT = "positive_drift"
    NEGATIVE_DRIFT = "negative_drift"


@dataclass(frozen=True, eq=False)
class LatticeLaw:
    """Probability law of the i.i.d. increments, supported on [lo, hi]."""

    lo: int
    hi: int
    masses: np.ndarray  # index i holds the mass of lo + i

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        if self.lo > -1:
            raise InvalidLaw(f"lo must be <= -1, got {self.lo}")
        if self.hi < 1:
            raise InvalidLaw(f"hi must be >= 1, got {self.hi}")
        if masses.shape != (self.hi - self.lo + 1,):
            raise InvalidLaw(
                f"expected {self.hi - self.lo + 1} masses for window "
                f"[{self.lo}, {self.hi}], got {masses.shape[0]}"
            )
        if not np.all(np.isfinite(masses)):  # NaN passes both the sign and the sum check
            k = self.lo + int(np.argmin(np.isfinite(masses)))
            raise InvalidLaw(f"non-finite mass at k={k}")
        if np.any(masses < 0):
            k = self.lo + int(np.argmin(masses))
            raise InvalidLaw(f"negative mass at k={k}")
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise InvalidLaw(f"masses sum to {total!r}, not 1")
        if masses[0] <= 0 or masses[-1] <= 0:
            raise InvalidLaw("support window is not tight (endpoint mass is 0)")

    @property
    def a(self) -> int:
        """Magnitude of the largest down-jump."""
        return -self.lo

    @property
    def b(self) -> int:
        """Largest up-jump."""
        return self.hi

    def mass(self, k: int) -> float:
        """Mass of the integer k (0 outside the window)."""
        if self.lo <= k <= self.hi:
            return float(self.masses[k - self.lo])
        return 0.0

    def support(self) -> list[int]:
        """Integers carrying positive mass."""
        return [self.lo + i for i, m in enumerate(self.masses) if m > 0]

    def as_dict(self) -> dict[int, float]:
        return {self.lo + i: float(m) for i, m in enumerate(self.masses) if m != 0}

    def __repr__(self):
        inner = ", ".join(f"{k}: {m!r}" for k, m in self.as_dict().items())
        return f"LatticeLaw({{{inner}}})"


def law_from_masses(masses: dict[int, float]) -> LatticeLaw:
    """Build a law from a {integer: probability} mapping."""
    if not masses:
        raise InvalidLaw("empty mass map")
    lo = min(masses)
    hi = max(masses)
    arr = np.zeros(hi - lo + 1)
    for k, m in masses.items():
        arr[k - lo] = m
    return LatticeLaw(lo, hi, arr)


def law_from_json(text: str) -> LatticeLaw:
    """Parse the law file format: {"masses": {"-1": 0.2, "0": 0.3, "1": 0.5}}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidLaw(f"law file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "masses" not in doc:
        raise InvalidLaw('law file must be an object with a "masses" key')
    raw = doc["masses"]
    if not isinstance(raw, dict):
        raise InvalidLaw('"masses" must map integer strings to probabilities')
    masses: dict[int, float] = {}
    for key, value in raw.items():
        try:
            k = int(key)
        except ValueError as exc:
            raise InvalidLaw(f'mass key "{key}" is not a decimal integer') from exc
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidLaw(f'mass for key "{key}" is not a number: {value!r}')
        masses[k] = float(value)
    return law_from_masses(masses)


def load_law(path) -> LatticeLaw:
    with open(path, "r", encoding="utf-8") as fh:
        return law_from_json(fh.read())


def mgf(law: LatticeLaw, r: float) -> float:
    """Moment generating function sum_k r^k mu(k), for r > 0."""
    if r <= 0:
        raise NonPositiveArgument(f"mgf needs r > 0, got {r}")
    return math.fsum(m * r**k for k, m in zip(range(law.lo, law.hi + 1), law.masses))


def mgf_derivative(law: LatticeLaw, r: float, order: int = 1) -> float:
    """Derivative of the mgf in r (order 1 or 2)."""
    if r <= 0:
        raise NonPositiveArgument(f"mgf derivative needs r > 0, got {r}")
    if order == 1:
        return math.fsum(
            k * m * r ** (k - 1)
            for k, m in zip(range(law.lo, law.hi + 1), law.masses)
        )
    if order == 2:
        return math.fsum(
            k * (k - 1) * m * r ** (k - 2)
            for k, m in zip(range(law.lo, law.hi + 1), law.masses)
        )
    raise InvalidInput(f"unsupported derivative order {order}")


def moments(law: LatticeLaw) -> tuple[float, float]:
    """Mean and central variance of the increment law."""
    ks = range(law.lo, law.hi + 1)
    drift = math.fsum(k * m for k, m in zip(ks, law.masses))
    second = math.fsum(k * k * m for k, m in zip(ks, law.masses))
    return drift, second - drift * drift


@dataclass(frozen=True)
class HypothesisReport:
    adapted: bool
    aperiodic: bool
    drift: float
    regime: Regime


def check_hypotheses(law: LatticeLaw, drift_tol: float = DRIFT_TOL) -> HypothesisReport:
    """Check adaptedness/aperiodicity (gcd tests) and classify the drift regime.

    Adapted: the support generates all of Z, i.e. gcd of |support| is 1.
    Aperiodic: the support differences generate Z, i.e. gcd of the gaps
    between support points is 1.
    """
    if not drift_tol >= 0:
        raise InvalidInput(f"drift tolerance must be >= 0, got {drift_tol}")
    support = law.support()
    adapted = math.gcd(*(abs(k) for k in support)) == 1
    gaps = [k - support[0] for k in support[1:]]
    aperiodic = bool(gaps) and math.gcd(*gaps) == 1
    drift, _ = moments(law)
    if drift > drift_tol:
        regime = Regime.POSITIVE_DRIFT
    elif drift < -drift_tol:
        regime = Regime.NEGATIVE_DRIFT
    else:
        regime = Regime.CENTERED
    return HypothesisReport(adapted, aperiodic, drift, regime)


def tilt(law: LatticeLaw, r: float) -> LatticeLaw:
    """Exponential tilt: mass k becomes r^k mu(k) / mgf(r)."""
    if r <= 0:
        raise NonPositiveArgument(f"tilt needs r > 0, got {r}")
    norm = mgf(law, r)
    ks = np.arange(law.lo, law.hi + 1, dtype=float)
    tilted = law.masses * r**ks / norm
    # renormalize the tail of rounding error so the constructor's sum check holds
    tilted = tilted / math.fsum(tilted.tolist())
    return LatticeLaw(law.lo, law.hi, tilted)


@dataclass(frozen=True)
class TiltInfo:
    """Minimizer of the mgf on (0, infinity) and the decay rate it induces."""

    r0: float
    rho0: float  # mgf(r0), equals 1 iff the law is centered
    R0: float  # 1 / rho0, radius of convergence in the drifted case


def minimize_mgf(law: LatticeLaw) -> TiltInfo:
    """Locate the unique stationary point r0 of the mgf by bracketed Newton.

    The mgf is strictly convex on (0, inf) and blows up at both ends because
    the law charges both signs, so mgf' has exactly one zero. A doubling
    search from r = 1 brackets the sign change; Newton runs from the
    geometric midpoint with a bisection safeguard.
    """
    f = lambda r: mgf_derivative(law, r, 1)
    scale = lambda r: mgf(law, r)

    f1 = f(1.0)
    if abs(f1) <= 1e-12 * scale(1.0):
        rho0 = mgf(law, 1.0)
        return TiltInfo(1.0, rho0, 1.0 / rho0)

    if f1 > 0:  # minimizer below 1
        r_hi, r_lo = 1.0, 0.5
        while f(r_lo) > 0:
            r_lo *= 0.5
            if r_lo < 1e-300:
                raise ConvergenceFailure("mgf' bracket search underflowed")
    else:
        r_lo, r_hi = 1.0, 2.0
        while f(r_hi) < 0:
            r_hi *= 2.0
            if r_hi > 1e300:
                raise ConvergenceFailure("mgf' bracket search overflowed")

    r = math.sqrt(r_lo * r_hi)
    best = None
    for _ in range(MGF_MAX_ITER):
        fr = f(r)
        if best is None or abs(fr) < abs(best[1]):
            best = (r, fr)
        if abs(fr) <= 1e-15 * scale(r):
            break
        if fr > 0:
            r_hi = r
        else:
            r_lo = r
        step = fr / mgf_derivative(law, r, 2)
        candidate = r - step
        if not (r_lo < candidate < r_hi):
            candidate = 0.5 * (r_lo + r_hi)
        if candidate == r:  # bracket collapsed to machine resolution
            break
        r = candidate
    r, fr = best
    # mgf' cancels terms of total size `cancelled`, which bounds its rounding
    cancelled = math.fsum(abs(k) * m * r ** (k - 1) for k, m in zip(range(law.lo, law.hi + 1), law.masses))
    if abs(fr) > 1e-12 * max(scale(r), cancelled):
        raise ConvergenceFailure(
            f"mgf minimizer stalled at r={r!r} with mgf'={fr!r}"
        )
    rho0 = mgf(law, r)
    return TiltInfo(r, rho0, 1.0 / rho0)
