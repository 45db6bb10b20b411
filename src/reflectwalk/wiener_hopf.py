"""Ladder-epoch transforms via polynomial factorization of 1 - s * mgf(z).

For a centered law with window [-a, b], the function z^a (1 - s mgf(z)) is a
degree a+b polynomial. Its roots split across the unit circle: the a roots
inside give the strict-descent transform, the b roots outside the weak-ascent
one. At s = 1 the split degenerates into a structural double root at z = 1,
one copy of which is deflated into each factor.

This is the production path for ladder laws; the DP in `fluctuation` only
reaches them at rate n^(-1/2) and serves as the oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateLaw,
    HorizonTooLarge,
    InvalidInput,
    NotCentered,
    RootClusterUnresolved,
    SlopeMismatch,
)
from .laws import DRIFT_TOL, MASS_SUM_TOL, LatticeLaw, mgf, moments

CIRCLE_TOL = 1e-8  # roots this close to |z| = 1 cannot be classified
# two-point Richardson at these distances from s = 1 leaves truncation error
# around eps[0] times the (1-s)^(3/2) coefficient of the quantity, which grows
# with the depth of the entry being checked; these eps keep the 1e-3 relative
# gate satisfied with orders of margin for windows into the several tens,
# while the sqrt(eps)-scale differences stay 10 orders above rounding noise
RICHARDSON_EPS = (1e-7, 2.5e-8)
RICHARDSON_S = tuple(1.0 - eps for eps in RICHARDSON_EPS)  # where the oracles factorize
SLOPE_REL_TOL = 1e-3
# A centered law's mass off 0 is at most its variance, since every step off
# 0 has |k| >= 1. Below the mass-sum tolerance that mass is inside the error
# the masses may carry, and the s = 1 factorization cannot resolve the
# ladder laws.
VARIANCE_FLOOR = MASS_SUM_TOL
POTENTIAL_DEPTH_CAP = 1_000_000  # entries past 0 of one renewal potential


def _require_centered(law: LatticeLaw):
    drift, _ = moments(law)
    if abs(drift) > DRIFT_TOL:
        raise NotCentered(f"law has drift {drift}; tilt to the centered law first")


@dataclass(frozen=True, eq=False)
class FactorPair:
    """One-point Wiener-Hopf split 1 - s mgf(z) = (1 - phi-)(1 - phi+).

    phi_minus[w-1] is the z^(-w) mass of the descent factor (w = 1..a);
    phi_plus[j] the z^j mass of the ascent factor (j = 0..b). residual is the
    worst of the polynomial-division remainder and the factorization error
    sampled on 64 unit-circle points.
    """

    s: float
    phi_minus: np.ndarray
    phi_plus: np.ndarray
    residual: float


def _polyval(coeffs_low_first: list, z: complex) -> complex:
    """Horner's rule on Python complex numbers; coeffs_low_first is a list of
    floats. Complex products and sums round as numpy's scalar ones do."""
    acc, z = 0.0 + 0.0j, complex(z)
    for c in reversed(coeffs_low_first):
        acc = acc * z + c
    return acc


def _polish_roots(coeffs_low_first: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """A few Newton corrections per root against the full polynomial."""
    deriv = (coeffs_low_first[1:] * np.arange(1, coeffs_low_first.shape[0])).tolist()
    coeffs = coeffs_low_first.tolist()
    out = []
    for z in roots:
        for _ in range(6):
            p = _polyval(coeffs, z)
            dp = _polyval(deriv, z)
            if dp == 0:
                break
            # numpy's complex division, not Python's: the two round differently
            step = np.complex128(p) / dp
            z = z - step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        out.append(z)
    return np.array(out)


def _deflate_root_one(coeffs_low_first: np.ndarray) -> tuple[np.ndarray, float]:
    """Synthetic division by (z - 1); returns (quotient, remainder)."""
    coeffs = coeffs_low_first.tolist()
    quo = []
    acc = 0.0
    for c in reversed(coeffs[1:]):
        acc += c
        quo.append(acc)
    return np.array(quo[::-1]), acc + coeffs[0]


def _polydiv(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.polydiv(u, v) for real coefficients, highest degree first: the same
    operations in the same order, on Python floats. The remainder loses its
    leading entries while abs(r[0]) <= 1e-8, which is np.polydiv's
    allclose(r[0], 0, rtol=1e-14) test (false on NaN)."""
    r, v = u.tolist(), v.tolist()
    n = len(v) - 1
    scale = 1.0 / v[0]
    q = []
    for k in range(len(r) - n):
        d = scale * r[k]
        q.append(d)
        for i, c in enumerate(v):
            r[k + i] -= d * c
    start = 0
    while start < len(r) - 1 and abs(r[start]) <= 1e-8:
        start += 1
    return np.array(q or [0.0]), np.array(r[start:])


def _circle_gaps(law: LatticeLaw, s: float, phi_minus: np.ndarray, phi_plus: np.ndarray) -> list:
    """|1 - s mgf(z) - (1 - phi-(z))(1 - phi+(z))| at the 64 points
    z = exp(2 pi i k / 64), as numpy scalars.

    Each factor is summed over its powers one after another, lowest power
    first, by a reduce along the outer axis; np.power over the whole circle
    rounds as the scalar z ** k does (`**` on an array would not: it turns
    an exponent of -1 into np.reciprocal). The lhs and the product of the
    two factors stay on scalars: numpy's complex-by-complex array loop may
    fuse a multiply with an add.
    """
    circle = np.exp(2j * np.pi * np.arange(64) / 64)

    def one_minus(coeffs: np.ndarray, exps: np.ndarray) -> np.ndarray:
        terms = coeffs[:, None] * np.power(circle, exps[:, None])
        return 1.0 - np.add.reduce(terms, axis=0)

    descent = one_minus(phi_minus, -np.arange(1, law.a + 1))
    ascent = one_minus(phi_plus, np.arange(law.b + 1))
    z_lo, masses = np.power(circle, law.lo), law.masses.tolist()
    return [abs(1.0 - s * _polyval(masses, circle[k]) * z_lo[k] - descent[k] * ascent[k]) for k in range(64)]


def factorize_at(law: LatticeLaw, s: float) -> FactorPair:
    """Split 1 - s mgf(z) into ladder factors at a single real s in (0, 1]."""
    _require_centered(law)
    if not 0.0 < s <= 1.0:
        raise InvalidInput(f"s must lie in (0, 1], got {s}")
    a, b = law.a, law.b

    # Q(z) = z^a (1 - s mgf(z)), coefficients of z^0 .. z^(a+b)
    q = -s * law.masses.copy()
    q[a] += 1.0

    structural_ones = 0
    work = q
    if s == 1.0:
        # centered double root at z = 1: peel both copies off before np.roots
        work, rem1 = _deflate_root_one(q)
        work, rem2 = _deflate_root_one(work)
        if max(abs(rem1), abs(rem2)) > 1e-9:
            raise RootClusterUnresolved(
                f"double root at z=1 not structural (remainders {rem1}, {rem2}); they are 1 - sum m and "
                f"a (1 - sum m) - drift, set by the law: its masses sum to 1 - "
                f"{1.0 - math.fsum(law.masses.tolist()):.3e} and its drift is {moments(law)[0]:.3e}"
            )
        structural_ones = 2

    roots = np.roots(work[::-1]) if work.shape[0] > 1 else np.array([])
    roots = _polish_roots(work, roots)

    inside, outside = [], []
    for z in roots:
        m = abs(z)
        if m < 1.0 - CIRCLE_TOL:
            inside.append(z)
        elif m > 1.0 + CIRCLE_TOL:
            outside.append(z)
        else:
            raise RootClusterUnresolved(
                f"root {z} sits within {CIRCLE_TOL} of the unit circle"
            )
    if structural_ones:
        inside.append(1.0 + 0.0j)
        outside.append(1.0 + 0.0j)
    if len(inside) != a or len(outside) != b:
        raise RootClusterUnresolved(
            f"expected {a} roots inside and {b} outside, found "
            f"{len(inside)} / {len(outside)}"
        )

    # monic descent factor A(z); 1 - phi-(s, z) = A(z) / z^a
    A_high = np.poly(np.array(inside)) if inside else np.array([1.0])
    if np.max(np.abs(A_high.imag)) > 1e-10:
        raise RootClusterUnresolved("descent factor has a stray imaginary part")
    A_high = A_high.real
    phi_minus = np.array([-A_high[w] for w in range(1, a + 1)])  # c_w = -[z^(a-w)] A

    # ascent factor by exact polynomial division B = Q / A
    B_high, rem = _polydiv(q[::-1], A_high)
    division_residual = float(np.max(np.abs(rem)))
    B_low = B_high[::-1]
    phi_plus = np.empty(b + 1)
    phi_plus[0] = 1.0 - B_low[0]
    phi_plus[1:] = -B_low[1 : b + 1]

    # tidy rounding fuzz on structurally zero masses, then sanity-check ranges
    phi_minus[np.abs(phi_minus) < 1e-13] = 0.0
    phi_plus[np.abs(phi_plus) < 1e-13] = 0.0
    # builtin max skips a NaN gap, as the residual always has
    residual = max(division_residual, 0.0, *_circle_gaps(law, s, phi_minus, phi_plus))

    phi_minus.flags.writeable = False
    phi_plus.flags.writeable = False
    return FactorPair(s, phi_minus, phi_plus, residual)


@dataclass(frozen=True, eq=False)
class LadderSystem:
    """Ladder-height laws of a centered walk and their renewal potentials.

    mu_minus[w-1] = P[S at first strict descent = -w], w = 1..a
    mu_plus[j]    = P[S at first weak ascent = j],     j = 0..b
    U_minus[k]    = potential U^-(-k) of the descent renewal, k = 0..depth
    U_plus[m]     = potential U^+(m) of the ascent renewal,   m = 0..depth

    pairs holds the factorizations of the law made so far, keyed by s; it
    starts with the s = 1 pair the ladder laws come from. Every oracle that
    works from the same ladder shares them through factor_pair.
    """

    law: LatticeLaw
    mu_minus: np.ndarray
    mu_plus: np.ndarray
    U_minus: np.ndarray
    U_plus: np.ndarray
    sigma: float
    mean_ladder_minus: float
    residual: float
    pairs: dict = field(default_factory=dict, repr=False)

    @property
    def a(self) -> int:
        return self.law.a

    @property
    def b(self) -> int:
        return self.law.b

    @property
    def depth(self) -> int:
        return self.U_minus.shape[0] - 1

    def factor_pair(self, s: float) -> FactorPair:
        """The factorization of the law at s, made once per ladder system."""
        fp = self.pairs.get(s)
        if fp is None:
            fp = self.pairs[s] = factorize_at(self.law, s)
        return fp


def default_depth(law: LatticeLaw, window: int = 0) -> int:
    return max(50 * law.a, 2 * law.a + 2 * law.b + window)


def ladder_laws(law: LatticeLaw, depth: int | None = None) -> LadderSystem:
    """Exact ladder laws from the s = 1 factorization, plus renewal potentials."""
    if depth is None:
        depth = default_depth(law)
    if depth < 0:
        raise InvalidInput(f"potential depth must be >= 0, got {depth}")
    _, variance = moments(law)
    if variance < VARIANCE_FLOOR:
        raise DegenerateLaw(
            f"the law is too close to a point mass for its ladder laws: variance {variance:.3e} is "
            f"below the floor {VARIANCE_FLOOR:.0e}, where the stay mass 1 - P[weak ascent height 0] "
            f"cannot be resolved"
        )
    fp = factorize_at(law, 1.0)
    mu_minus, mu_plus = fp.phi_minus, fp.phi_plus
    stay = 1.0 - mu_plus[0]  # the ascent potential renews from it: U+(0) = 1 / stay
    if not stay > 0.0:
        raise DegenerateLaw(
            f"the law is too close to a point mass for its ladder laws: stay mass 1 - P[weak ascent "
            f"height 0] = {stay:.3e} at variance {variance:.3e}"
        )
    U_minus, U_plus = u_minus_at(fp, depth), u_plus_at(fp, depth)

    mean_ladder_minus = -math.fsum(
        w * mu_minus[w - 1] for w in range(1, law.a + 1)
    )
    U_minus.flags.writeable = False
    U_plus.flags.writeable = False
    return LadderSystem(
        law,
        mu_minus,
        mu_plus,
        U_minus,
        U_plus,
        math.sqrt(variance),
        mean_ladder_minus,
        fp.residual,
        {1.0: fp},
    )


def _potential(taps: np.ndarray, depth: int, stay: float = 1.0) -> np.ndarray:
    """Renewal potential u, k = 0..depth: u[0] = 1 / stay and
    u[k] = sum_j taps[j-1] u[k-j] / stay over j = 1..min(k, len(taps)).

    Once the newest len(taps) + 1 values are one positive c, the step that
    made the last c read len(taps) copies of c, as every later step would:
    the rest of u is c, with the bits the loop would give it."""
    if depth > POTENTIAL_DEPTH_CAP:
        raise HorizonTooLarge(f"potential depth {depth} exceeds cap {POTENTIAL_DEPTH_CAP}")
    # Python floats, summed j = 1 first; not sum(), which compensates on 3.12+
    t, stay = taps.tolist(), float(stay)
    m = len(t)
    u = [1.0 / stay]
    window, run = deque(u, maxlen=m), 1  # newest first; run: equal values at the end
    for k in range(1, depth + 1):
        acc = 0.0
        for tap, v in zip(t, window):
            acc += tap * v
        v = acc / stay
        run = run + 1 if v == u[-1] else 1
        u.append(v)
        if run > m and v > 0.0:
            u += [v] * (depth - k)
            break
        window.appendleft(v)
    return np.array(u)


def u_minus_at(fp: FactorPair, depth: int) -> np.ndarray:
    """Values of the s-weighted descent potential at -k, k = 0..depth."""
    return _potential(fp.phi_minus, depth)


def u_plus_at(fp: FactorPair, depth: int) -> np.ndarray:
    """Values of the s-weighted ascent potential at m = 0..depth."""
    return _potential(fp.phi_plus[1:], depth, stay=1.0 - fp.phi_plus[0])


def richardson_slope(fn, value_at_1: float) -> float:
    """Two-point Richardson estimate of the sqrt(1-s) coefficient of fn at s = 1.

    fn is evaluated at s = 1 - eps for the two RICHARDSON_EPS; the secant
    slopes (fn(1-eps) - fn(1)) / sqrt(eps) are extrapolated to eps = 0,
    cancelling the next term of the expansion. fn(s) and value_at_1 may be
    numpy arrays of one shape: the estimate is then made entry by entry, each
    entry with the same IEEE operations as a scalar call.
    """
    s1_val, s2_val = RICHARDSON_S
    # use the representable offsets, not the nominal eps: 1 - (1 - e) != e
    t1, t2 = math.sqrt(1.0 - s1_val), math.sqrt(1.0 - s2_val)
    g1 = (fn(s1_val) - value_at_1) / t1
    g2 = (fn(s2_val) - value_at_1) / t2
    return (g2 * t1 - g1 * t2) / (t1 - t2)


def _slope_gap(ladder: LadderSystem, closed, at_1, at_pair, floor: float = 1e-6) -> float:
    """Worst relative gap, 0.0 over no entries, between closed-form slopes and
    the Richardson slope of at_pair(ladder.factor_pair(s)) from its values at_1
    at s = 1. floor keeps structurally zero entries from amplifying fp noise."""
    oracle = richardson_slope(lambda s: at_pair(ladder.factor_pair(s)), at_1)
    return float(np.max(np.abs(closed - oracle) / np.maximum(np.abs(closed), floor), initial=0.0))


def _require_slopes(err: float, what: str) -> None:
    """The slope gate: SlopeMismatch when `what` miss the Richardson oracle by more than SLOPE_REL_TOL."""
    if err > SLOPE_REL_TOL:
        raise SlopeMismatch(
            f"{what} deviate from the Richardson oracle by {err:.3e} (tolerance {SLOPE_REL_TOL:.1e})"
        )


@dataclass(frozen=True, eq=False)
class SlopeTable:
    """sqrt(1-s) coefficients of the ladder transforms at s = 1.

    slope_T_minus[w-1]: slope of the descent transform at -w
    slope_T_plus[j]:    slope of the ascent transform at j
    slope_U_minus[k]:   slope of the descent potential transform at -k
    slope_U_plus[m]:    slope of the ascent potential transform at m
    """

    slope_T_minus: np.ndarray
    slope_T_plus: np.ndarray
    slope_U_minus: np.ndarray
    slope_U_plus: np.ndarray
    method: str
    max_rel_err: float


def slopes(law: LatticeLaw, ladder: LadderSystem) -> SlopeTable:
    """Closed-form singularity slopes, cross-validated against Richardson.

    Closed forms (coef = sqrt(2)/sigma):
      T-minus at -w: -coef * (descent-law mass at or below -w)
      T-plus  at  j: -coef * (ascent-law mass strictly above j)
      U-minus at -k: -coef * sum of U^-(m) over the window -k < m <= 0
      U-plus  at  m: -coef * sum of U^+(j) over 0 <= j <= m

    The interval conventions are the ones that survive the oracle check
    (they also drop out of expanding the generating functions by hand): the
    descent tail closes at -w, the ascent tail is strictly above j, and the
    descent-potential window excludes -k itself but includes 0.
    """
    a, b = law.a, law.b
    depth = ladder.depth
    coef = math.sqrt(2.0) / ladder.sigma

    tail_minus = np.cumsum(ladder.mu_minus[::-1])[::-1]  # index w-1: mass <= -w
    slope_T_minus = -coef * tail_minus
    tail_above = np.zeros(b + 1)  # index j: mass strictly above j
    tail_above[:b] = np.cumsum(ladder.mu_plus[::-1])[::-1][1:]
    slope_T_plus = -coef * tail_above

    # windows: descent k -> U^-(0..k-1) summed; ascent m -> U^+(0..m) summed
    slope_U_minus = np.zeros(depth + 1)
    slope_U_minus[1:] = -coef * np.cumsum(ladder.U_minus[:-1])
    slope_U_plus = -coef * np.cumsum(ladder.U_plus)

    # the oracle checks every T entry, and U^-, U^+ at 0..check_depth
    check_depth = min(depth, 2 * (a + b) + 2)

    def at_pair(fp: FactorPair) -> np.ndarray:
        potentials = u_minus_at(fp, check_depth), u_plus_at(fp, check_depth)
        return np.concatenate((fp.phi_minus, fp.phi_plus, *potentials))

    head = slice(0, check_depth + 1)
    closed = np.concatenate((slope_T_minus, slope_T_plus, slope_U_minus[head], slope_U_plus[head]))
    at_1 = np.concatenate((ladder.mu_minus, ladder.mu_plus, ladder.U_minus[head], ladder.U_plus[head]))
    max_rel_err = _slope_gap(ladder, closed, at_1, at_pair)
    _require_slopes(max_rel_err, "closed-form slopes")

    for arr in (slope_T_minus, slope_T_plus, slope_U_minus, slope_U_plus):
        arr.flags.writeable = False
    return SlopeTable(
        slope_T_minus,
        slope_T_plus,
        slope_U_minus,
        slope_U_plus,
        "closed-form+richardson",
        max_rel_err,
    )


def roots_z_pm(law: LatticeLaw, s: float) -> tuple[float, float]:
    """Real solutions z- in (0,1) and z+ in (1,inf) of mgf(z) = 1/s."""
    _require_centered(law)
    if not 0.0 < s < 1.0:
        raise InvalidInput(f"s must lie in (0, 1), got {s}")
    target = 1.0 / s

    def bisect(lo: float, hi: float) -> float:
        flo = mgf(law, lo) - target
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            fmid = mgf(law, mid) - target
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        raise ConvergenceFailure("bisection for z roots stalled")

    lo = 1.0
    while mgf(law, lo) < target:
        lo *= 0.5
        if lo < 1e-300:
            raise ConvergenceFailure("no bracket for z- (law degenerate?)")
    z_minus = bisect(lo, 1.0)

    hi = 1.0
    while mgf(law, hi) < target:
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceFailure("no bracket for z+ (law degenerate?)")
    z_plus = bisect(1.0, hi)
    return z_minus, z_plus
