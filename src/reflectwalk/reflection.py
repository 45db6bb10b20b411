"""Closed-form objects of the reflection process: kernel, stationary law, slopes.

Increments bounded below by -a force every reflection to land in [1, a], so
the kernel's columns vanish outside that window and every "infinite matrix"
here reduces to an a x a core plus explicitly computed boundary rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NotInvertibleCentered,
    SingularSystem,
    SlopeMismatch,
    StationarityFailure,
)
from .laws import LatticeLaw
from .wiener_hopf import (
    RICHARDSON_S,
    SLOPE_REL_TOL,
    FactorPair,
    LadderSystem,
    SlopeTable,
    factorize_at,
    richardson_slope,
    u_minus_at,
    u_plus_at,
)

STATIONARY_TOL = 1e-8  # total variation of nu R - nu
EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 10_000


def r_row(ladder: LadderSystem, x: int) -> np.ndarray:
    """Row x of the reflection kernel; entry y-1 is the hit mass at y in [1, a].

    R(x, y) = sum_{w=0..x} U^-(-w) mu^-(w - x - y): the descent renewal from x
    visits the level x - w, then a single ladder step carries it below 0,
    landing on -y (which reflects to y).
    """
    a = ladder.a
    if x > ladder.depth:
        raise ValueError(
            f"kernel row at x={x} needs potential depth >= {x}, have {ladder.depth}"
        )
    row = np.zeros(a)
    for y in range(1, a + 1):
        lo_w = max(0, x + y - a)
        row[y - 1] = math.fsum(
            ladder.U_minus[w] * ladder.mu_minus[x + y - w - 1]
            for w in range(lo_w, x + 1)
        )
    return row


def r_rows(ladder: LadderSystem, xs) -> dict[int, np.ndarray]:
    return {int(x): r_row(ladder, int(x)) for x in xs}


def r_core(ladder: LadderSystem) -> np.ndarray:
    """The a x a block of the kernel on states [1, a]."""
    return np.array([r_row(ladder, x) for x in range(1, ladder.a + 1)])


def r_row_at_s(
    law: LatticeLaw, s: float, x: int, fp: FactorPair | None = None
) -> np.ndarray:
    """Row x of the s-weighted reflection kernel R_s, from the factorization at s."""
    if fp is None:
        fp = factorize_at(law, s)
    a = law.a
    u = u_minus_at(fp, x)
    row = np.zeros(a)
    for y in range(1, a + 1):
        row[y - 1] = math.fsum(
            u[x - w] * fp.phi_minus[w + y - 1] for w in range(0, min(x, a - y) + 1)
        )
    return row


def stationary_nu(ladder: LadderSystem) -> tuple[np.ndarray, str]:
    """Stationary probability of the reflection-target chain on [1, a].

    Evaluates the closed-form stationary weights and normalizes. The middle
    term's interval typography is ambiguous in the source, so both readings
    are tried and the one that is actually stationary for the kernel core is
    kept (they coincide for a = 1). Raises StationarityFailure if neither
    reading is stationary within STATIONARY_TOL (total variation).
    """
    a = ladder.a
    mu = ladder.mu_minus  # mu[v-1] = mass of a ladder step of size -v
    core = r_core(ladder)

    def weights(include_left: bool) -> np.ndarray:
        nu = np.zeros(a)
        for x in range(1, a + 1):
            total = 0.0
            for y in range(1, a + 1):
                lo_v = x if include_left else x + 1
                mid = math.fsum(mu[v - 1] for v in range(lo_v, min(x + y - 1, a) + 1))
                term = 0.5 * mu[x - 1] + mid
                if x + y <= a:
                    term += 0.5 * mu[x + y - 1]
                total += term * mu[y - 1]
            nu[x - 1] = total
        return nu / math.fsum(nu.tolist())

    best = None
    for include_left, name in ((False, "halfopen[1-x-y,-x)"), (True, "closed[1-x-y,-x]")):
        nu = weights(include_left)
        residual = float(np.sum(np.abs(nu @ core - nu)))
        if best is None or residual < best[2]:
            best = (nu, name, residual)
        if residual < STATIONARY_TOL:
            nu.flags.writeable = False
            return nu, name
    raise StationarityFailure(
        f"no bracket convention is stationary: best {best[1]} "
        f"has TV residual {best[2]:.3e} (tolerance {STATIONARY_TOL:.1e})"
    )


def doeblin_kappa(ladder: LadderSystem) -> float:
    """Uniform minorization constant: the infimum of the descent potential."""
    return float(np.min(ladder.U_minus[1:]))


def doeblin_gap(ladder: LadderSystem, rows: dict[int, np.ndarray]) -> float:
    """Worst violation of R(x, y) >= kappa mu^-(-y) over the computed rows."""
    kappa = doeblin_kappa(ladder)
    gap = math.inf
    for row in rows.values():
        gap = min(gap, float(np.min(row - kappa * ladder.mu_minus)))
    return gap


def r_tilde_row(ladder: LadderSystem, slope_table: SlopeTable, x: int) -> np.ndarray:
    """Row x of the sqrt(1-s) slope of the reflection kernel at s = 1.

    Two terms: the slope can sit in the renewal part (descent potential) or
    in the final overshoot step.
    """
    a = ladder.a
    row = np.zeros(a)
    for y in range(1, a + 1):
        renewal = math.fsum(
            slope_table.slope_U_minus[x - k] * ladder.mu_minus[k + y - 1]
            for k in range(0, min(x - 1, a - y) + 1)
        )
        overshoot = math.fsum(
            ladder.U_minus[x - k] * slope_table.t_minus(k + y) for k in range(0, x + 1)
        )
        row[y - 1] = renewal + overshoot
    return row


def kernel_slope_oracle_error(ladder: LadderSystem, rows: dict, tilde_rows: dict) -> float:
    """Worst relative gap between closed-form kernel slope rows and the
    Richardson slope of the s-weighted kernel (two independent routes).

    rows and tilde_rows map each x to its kernel row and its closed-form
    slope row, as `r_rows` and `r_tilde_rows` build them. Each s-weighted
    row is built once per (x, s); the Richardson estimate for each y reads
    its entry from that row.
    """
    law = ladder.law
    fps = {s: ladder.factor_pair(s) for s in RICHARDSON_S}
    worst = 0.0
    scale = max(max(np.max(np.abs(r)) for r in tilde_rows.values()), 1.0)
    for x, closed in tilde_rows.items():
        base = rows[x]
        rows_at_s = {s: r_row_at_s(law, s, x, fp) for s, fp in fps.items()}
        oracle = np.array(
            [
                richardson_slope(lambda s, y=y: rows_at_s[s][y - 1], base[y - 1])
                for y in range(1, ladder.a + 1)
            ]
        )
        err = np.max(np.abs(closed - oracle) / np.maximum(np.abs(closed), 1e-6 * scale))
        worst = max(worst, float(err))
    return worst


def r_tilde_rows(ladder: LadderSystem, slope_table: SlopeTable, xs) -> dict[int, np.ndarray]:
    """Slope rows for each x."""
    return {int(x): r_tilde_row(ladder, slope_table, int(x)) for x in xs}


@dataclass(frozen=True, eq=False)
class ReflectionCore:
    """Reflection kernel data on a window of starting states.

    rows/tilde_rows map x to the kernel row (R(x, y))_{y=1..a} and its
    sqrt(1-s) slope; core is the a x a block on [1, a]; nu the stationary
    probability of the target chain; kappa the Doeblin constant;
    slope_rel_err the kernel slope oracle's error on tilde_rows.
    """

    ladder: LadderSystem
    x_window: tuple
    rows: dict
    core: np.ndarray
    nu: np.ndarray
    nu_convention: str
    kappa: float
    tilde_rows: dict
    slope_rel_err: float

    @property
    def a(self) -> int:
        return self.ladder.a

    def nu_weighted_tilde_mass(self) -> float:
        """nu-average of the total slope mass, the denominator of the
        centered return-probability constant. Strictly negative."""
        return math.fsum(
            float(self.nu[x - 1] * np.sum(self.tilde_rows[x]))
            for x in range(1, self.a + 1)
        )


def build_reflection_core(ladder: LadderSystem, slope_table: SlopeTable) -> ReflectionCore:
    """Assemble kernel rows, stationary law, Doeblin constant, and slope rows
    on the start states x = 0..max(2a, 8), and check the slope rows against
    the Richardson slope of the s-weighted kernel (two independent routes to
    the same matrix). The check reads the rows just built; its error is
    `slope_rel_err`, and the caller decides whether it is too large."""
    a = ladder.a
    xs = list(range(0, max(2 * a, 8) + 1))
    rows = r_rows(ladder, xs)
    core = np.array([rows[x] for x in range(1, a + 1)])
    nu, convention = stationary_nu(ladder)
    kappa = doeblin_kappa(ladder)
    tilde = r_tilde_rows(ladder, slope_table, xs)
    err = kernel_slope_oracle_error(ladder, rows, tilde)
    core.flags.writeable = False
    return ReflectionCore(
        ladder, tuple(xs), rows, core, nu, convention, kappa, tilde, err
    )


@dataclass(frozen=True, eq=False)
class ExcursionColumn:
    """Column y of the excursion matrix and its sqrt(1-s) slope."""

    y: int
    values: dict  # x -> E(x, y)
    tilde: dict  # x -> slope of E_s(x, y)


def _require_states(**states: int):
    # a negative state would index the potentials from their far end
    for name, value in states.items():
        if value < 0:
            raise InvalidInput(f"{name} must be a state >= 0, got {value}")


def _renewal_sum(u_minus, u_plus, x: int, y: int) -> float:
    """sum_k u_minus[x - k] u_plus[y - k] over k = 0..min(x, y), correctly rounded."""
    return math.fsum(u_minus[x - k] * u_plus[y - k] for k in range(0, min(x, y) + 1))


def e_value(ladder: LadderSystem, x: int, y: int) -> float:
    """E(x, y) = sum_k U^-(k - x) U^+(y - k): expected visits to y before the
    first reflection, started at x, split over the last descent-renewal level."""
    return _renewal_sum(ladder.U_minus, ladder.U_plus, x, y)


def e_tilde_value(ladder: LadderSystem, slope_table: SlopeTable, x: int, y: int) -> float:
    renewal = math.fsum(
        slope_table.slope_U_minus[x - k] * ladder.U_plus[y - k]
        for k in range(0, min(x - 1, y) + 1)
    )
    ascent = math.fsum(
        ladder.U_minus[x - k] * slope_table.slope_U_plus[y - k]
        for k in range(0, min(x, y) + 1)
    )
    return renewal + ascent


def e_value_at_s(law: LatticeLaw, s: float, x: int, y: int, fp: FactorPair | None = None) -> float:
    if fp is None:
        fp = factorize_at(law, s)
    return _renewal_sum(u_minus_at(fp, x), u_plus_at(fp, y), x, y)


def excursion_slope_oracle_error(
    ladder: LadderSystem, slope_table: SlopeTable, y: int, xs
) -> float:
    """Worst relative gap between closed-form excursion slopes and the
    Richardson slope of the s-weighted excursion values.

    The s-weighted potentials are prefix-stable, so each is built once per s
    (the descent one up to max(xs), the ascent one up to y) and serves every x.
    """
    xs = [int(x) for x in xs]
    _require_states(y=y, x=min(xs, default=0))
    potentials = {}
    for s in RICHARDSON_S:
        fp = ladder.factor_pair(s)
        potentials[s] = (u_minus_at(fp, max(xs, default=0)), u_plus_at(fp, y))
    worst = 0.0
    for x in xs:
        closed = e_tilde_value(ladder, slope_table, x, y)
        oracle = richardson_slope(
            lambda s, x=x: _renewal_sum(*potentials[s], x, y), e_value(ladder, x, y)
        )
        worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-6))
    return worst


def e_column(ladder: LadderSystem, slope_table: SlopeTable, y: int, xs) -> ExcursionColumn:
    """Excursion values and slopes for one arrival state, Richardson-checked."""
    _require_states(y=y)
    values = {int(x): e_value(ladder, int(x), y) for x in xs}
    tilde = {int(x): e_tilde_value(ladder, slope_table, int(x), y) for x in xs}
    err = excursion_slope_oracle_error(ladder, slope_table, y, list(values))
    if err > SLOPE_REL_TOL:
        raise SlopeMismatch(
            f"excursion slopes at y={y} deviate from the Richardson "
            f"oracle by {err:.3e} (tolerance {SLOPE_REL_TOL:.1e})"
        )
    return ExcursionColumn(y, values, tilde)


def dominant_eigenvalue(core: np.ndarray) -> float:
    """Dominant eigenvalue of a nonnegative core by power iteration.

    The Doeblin minorization gives the core a spectral gap, so plain power
    iteration with a positive start vector converges geometrically; it
    stops at relative change EIGEN_TOL, or fails after EIGEN_MAX_ITER steps.
    """
    core = np.asarray(core, dtype=float)
    n = core.shape[0]
    if n == 1:
        return float(core[0, 0])
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(EIGEN_MAX_ITER):
        w = core @ v
        norm = float(np.sum(np.abs(w)))
        if norm == 0.0:
            return 0.0
        lam_new = float(v @ w / (v @ v))
        w = w / norm
        scale = max(1.0, abs(lam_new))
        if abs(lam_new - lam) <= EIGEN_TOL * scale and np.max(
            np.abs(core @ w - lam_new * w)
        ) <= 10 * EIGEN_TOL * scale:
            return lam_new
        v, lam = w, lam_new
    raise ConvergenceFailure(f"power iteration did not settle in {EIGEN_MAX_ITER} steps")


def resolvent_apply(
    core: np.ndarray,
    f_core: np.ndarray,
    boundary: list[tuple[float, np.ndarray]] | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Solve g = f + R g on [1, a] and extend to boundary rows.

    core is the a x a kernel block, f_core the values of f on [1, a];
    boundary holds (f(x), kernel row of x) pairs for states outside the core.
    Only valid when the core is strictly substochastic (drifted / tilt-
    conjugated case): a stochastic core has no resolvent.
    """
    core = np.asarray(core, dtype=float)
    lam = float(np.max(np.abs(np.linalg.eigvals(core)))) if core.size else 0.0
    if lam >= 1.0 - 1e-12:
        raise NotInvertibleCentered(
            f"core spectral radius {lam} is not < 1; resolvent undefined"
        )
    system = np.eye(core.shape[0]) - core
    if np.linalg.cond(system) > 1e12:
        raise SingularSystem("I - R is ill-conditioned beyond 1e12")
    g_core = np.linalg.solve(system, np.asarray(f_core, dtype=float))
    extended = []
    for f_x, row in boundary or []:
        extended.append(float(f_x + row @ g_core))
    return g_core, extended
