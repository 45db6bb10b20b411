"""Closed-form objects of the reflection process: kernel, stationary law, slopes.

Increments bounded below by -a force every reflection to land in [1, a], so
the kernel's columns vanish outside that window and every "infinite matrix"
here reduces to an a x a core plus explicitly computed boundary rows. The
rows of a window, and their slopes, come from one product table per operand
pair (`_kernel_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NotInvertibleCentered,
    SingularSystem,
    StationarityFailure,
)
from .laws import LatticeLaw
from .wiener_hopf import (
    FactorPair,
    LadderSystem,
    SlopeTable,
    _require_slopes,
    _slope_gap,
    factorize_at,
    u_minus_at,
    u_plus_at,
)

STATIONARY_TOL = 1e-8  # total variation of nu R - nu
# The reading of the stationary weights' middle interval; the closed reading
# [1-x-y, -x] is not stationary on random laws with a > 1 (TV 0.03-0.23).
NU_CONVENTION = "halfopen[1-x-y,-x)"
EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 10_000


def _renewal_sum(u_minus: np.ndarray, u_plus: np.ndarray, x: int, y: int) -> float:
    """sum_k u_minus[x - k] u_plus[y - k] over k = 0..min(x, y), correctly rounded
    (so the order of the products does not matter)."""
    n = min(x, y) + 1
    if n <= 0:
        return 0.0
    return math.fsum((u_minus[x - n + 1 : x + 1] * u_plus[y - n + 1 : y + 1]).tolist())


def _kernel_rows(u_minus: np.ndarray, phi_minus: np.ndarray, xs) -> dict[int, np.ndarray]:
    """For each x of xs, sum_k u_minus[x - k] phi_minus[k + y - 1] over
    k = 0..min(x, a - y), for y = 1..a (a = len(phi_minus)): the renewal sum
    against phi_minus read backwards, at a - y. Fed a potential and a descent
    law at one s, or one of them and the other's slope. Each entry is the fsum
    of one anti-diagonal of one product table, so its bits do not depend on
    which rows are built together."""
    xs = [int(x) for x in xs]
    _require_states(x=min(xs, default=0))
    top, a = max(xs, default=0), phi_minus.shape[0]
    if top >= u_minus.shape[0]:
        raise InvalidInput(f"kernel row at x={top} needs potential depth >= {top}, have {u_minus.shape[0] - 1}")
    lo = max(min(xs, default=0) - a + 1, 0)  # no anti-diagonal reaches below row lo
    # table[i - lo][j] = u_minus[i] phi_minus[j], flattened: entry (x, y) sums the
    # min(x, a - y) + 1 items up to (x - lo) a + y - 1, a - 1 apart (a = 1: one item)
    flat, step = np.multiply.outer(u_minus[lo : top + 1], phi_minus).ravel().tolist(), max(a - 1, 1)
    return {
        x: np.array([
            math.fsum(flat[(x - lo) * a + y - 1 - min(x, a - y) * step : (x - lo) * a + y : step])
            for y in range(1, a + 1)
        ])
        for x in xs
    }


def r_row(ladder: LadderSystem, x: int) -> np.ndarray:
    """Row x of the reflection kernel; entry y-1 is the hit mass at y in [1, a].

    R(x, y) = sum_{w=0..x} U^-(-w) mu^-(w - x - y): the descent renewal from x
    visits the level x - w, then a single ladder step carries it below 0,
    landing on -y (which reflects to y).
    """
    return r_rows(ladder, [x])[int(x)]


def r_rows(ladder: LadderSystem, xs) -> dict[int, np.ndarray]:
    """`r_row` for each x, from one product table."""
    return _kernel_rows(ladder.U_minus, ladder.mu_minus, xs)


def r_core(ladder: LadderSystem) -> np.ndarray:
    """The a x a block of the kernel on states [1, a]."""
    return np.array(list(r_rows(ladder, range(1, ladder.a + 1)).values()))


def r_row_at_s(law: LatticeLaw, s: float, x: int, fp: FactorPair | None = None) -> np.ndarray:
    """Row x of the s-weighted reflection kernel R_s, from the factorization at s."""
    if fp is None:
        fp = factorize_at(law, s)
    return _kernel_rows(u_minus_at(fp, x), fp.phi_minus, [x])[int(x)]


def _stationary_weights(mu_minus: np.ndarray) -> np.ndarray:
    """The closed-form stationary weights on [1, a], normalized; the middle
    sum over v runs from x + 1 up to min(x + y - 1, a), the half-open reading
    NU_CONVENTION of the source's interval."""
    a = mu_minus.shape[0]
    mu = mu_minus.tolist()  # mu[v-1] = mass of a ladder step of size -v
    nu = np.zeros(a)
    for x in range(1, a + 1):
        total = 0.0
        for y in range(1, a + 1):
            term = 0.5 * mu[x - 1] + math.fsum(mu[x : min(x + y - 1, a)])
            if x + y <= a:
                term += 0.5 * mu[x + y - 1]
            total += term * mu[y - 1]
        nu[x - 1] = total
    return nu / math.fsum(nu.tolist())


def stationary_nu(ladder: LadderSystem, core: np.ndarray) -> np.ndarray:
    """Stationary probability of the reflection-target chain on [1, a].

    Evaluates the closed-form stationary weights and checks them against
    `core`, the kernel's a x a block that `build_reflection_core` hands
    over. Raises StationarityFailure if nu core - nu exceeds STATIONARY_TOL
    in total variation.
    """
    nu = _stationary_weights(ladder.mu_minus)
    residual = float(np.sum(np.abs(nu @ core - nu)))
    if not residual < STATIONARY_TOL:
        raise StationarityFailure(
            f"stationary weights ({NU_CONVENTION}) are not stationary: TV residual "
            f"{residual:.3e} (tolerance {STATIONARY_TOL:.1e})"
        )
    nu.flags.writeable = False
    return nu


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
    """Row x of the sqrt(1-s) slope of the reflection kernel at s = 1."""
    return r_tilde_rows(ladder, slope_table, [x])[int(x)]


def kernel_slope_oracle_error(ladder: LadderSystem, rows: dict, tilde_rows: dict) -> float:
    """Worst relative gap between closed-form kernel slope rows and the
    Richardson slope of the s-weighted kernel (two independent routes).

    rows and tilde_rows map each x to its kernel row and its closed-form
    slope row, as `r_rows` and `r_tilde_rows` build them. The s-weighted
    descent potential is prefix-stable, so it is built once per s, up to the
    largest x, and serves every row of the s-weighted table.
    """
    def table(fp: FactorPair) -> np.ndarray:
        u = u_minus_at(fp, max(tilde_rows))
        return np.array(list(_kernel_rows(u, fp.phi_minus, tilde_rows).values()))

    closed = np.array(list(tilde_rows.values()))
    scale = max(float(np.max(np.abs(closed))), 1.0)
    return _slope_gap(ladder, closed, np.array([rows[x] for x in tilde_rows]), table, floor=1e-6 * scale)


def r_tilde_rows(ladder: LadderSystem, slope_table: SlopeTable, xs) -> dict[int, np.ndarray]:
    """Slope rows for each x. Two terms: the slope can sit in the renewal
    part (descent potential) or in the final overshoot step."""
    renewal = _kernel_rows(slope_table.slope_U_minus, ladder.mu_minus, xs)
    overshoot = _kernel_rows(ladder.U_minus, slope_table.slope_T_minus, xs)
    return {x: renewal[x] + overshoot[x] for x in renewal}


@dataclass(frozen=True, eq=False)
class ReflectionCore:
    """Reflection kernel data on a window of starting states.

    ladder and slope_table are what the core is built from; rows/tilde_rows
    map x to the kernel row (R(x, y))_{y=1..a} and its sqrt(1-s) slope; core
    is the a x a block on [1, a]; nu the stationary probability of the target
    chain; kappa the Doeblin constant; slope_rel_err the kernel slope
    oracle's error on tilde_rows. columns holds the excursion columns made
    from the core so far, keyed by y (see `excursion_column`).
    """

    ladder: LadderSystem
    slope_table: SlopeTable
    x_window: tuple
    rows: dict
    core: np.ndarray
    nu: np.ndarray
    kappa: float
    tilde_rows: dict
    slope_rel_err: float
    columns: dict = field(default_factory=dict, repr=False)

    @property
    def a(self) -> int:
        return self.ladder.a

    def excursion_column(self, y: int, xs) -> ExcursionColumn:
        """`e_column` of the core's ladder and slopes at y, over xs or over
        every x of a column made from the core before. Each value is computed
        per x and the gate's error is the worst over its xs, so a column made
        on more states serves fewer with the same bits, behind its gate."""
        col = self.columns.get(y)
        if col is None or not set(xs) <= col.values.keys():
            col = self.columns[y] = e_column(self.ladder, self.slope_table, y, xs)
        return col

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
    nu = stationary_nu(ladder, core)
    kappa = doeblin_kappa(ladder)
    tilde = r_tilde_rows(ladder, slope_table, xs)
    err = kernel_slope_oracle_error(ladder, rows, tilde)
    core.flags.writeable = False
    return ReflectionCore(ladder, slope_table, tuple(xs), rows, core, nu, kappa, tilde, err)


@dataclass(frozen=True, eq=False)
class ExcursionColumn:
    """Column y of the excursion matrix and its sqrt(1-s) slope."""

    y: int
    values: dict  # x -> E(x, y)
    tilde: dict  # x -> slope of E_s(x, y)
    slope_rel_err: float  # the excursion slope oracle's error on tilde


def _require_states(**states: int):
    # a negative state would index the potentials from their far end
    for name, value in states.items():
        if value < 0:
            raise InvalidInput(f"{name} must be a state >= 0, got {value}")


def e_value(ladder: LadderSystem, x: int, y: int) -> float:
    """E(x, y) = sum_k U^-(k - x) U^+(y - k): expected visits to y before the
    first reflection, started at x, split over the last descent-renewal level."""
    return _renewal_sum(ladder.U_minus, ladder.U_plus, x, y)


def e_tilde_value(ladder: LadderSystem, slope_table: SlopeTable, x: int, y: int) -> float:
    """sqrt(1-s) slope of E_s(x, y) at s = 1: the slope sits in the descent or
    in the ascent potential."""
    renewal = _renewal_sum(slope_table.slope_U_minus, ladder.U_plus, x, y)
    return renewal + _renewal_sum(ladder.U_minus, slope_table.slope_U_plus, x, y)


def _excursion(ladder: LadderSystem, slope_table: SlopeTable, y: int, xs) -> ExcursionColumn:
    """Excursion values and closed-form slopes for one arrival state, each
    built once per distinct x, with the worst relative gap between the slopes
    and the Richardson slope of the s-weighted values.

    The s-weighted potentials are prefix-stable, so each is built once per s
    (the descent one up to max(xs), the ascent one up to y) and serves every x.
    """
    xs = list(dict.fromkeys(int(x) for x in xs))
    _require_states(y=y, x=min(xs, default=0))
    values = {x: e_value(ladder, x, y) for x in xs}
    tilde = {x: e_tilde_value(ladder, slope_table, x, y) for x in xs}

    def column(fp: FactorPair) -> np.ndarray:
        u_minus, u_plus = u_minus_at(fp, max(xs, default=0)), u_plus_at(fp, y)
        return np.array([_renewal_sum(u_minus, u_plus, x, y) for x in xs])

    err = _slope_gap(ladder, np.array(list(tilde.values())), np.array(list(values.values())), column)
    return ExcursionColumn(y, values, tilde, err)


def excursion_slope_oracle_error(
    ladder: LadderSystem, slope_table: SlopeTable, y: int, xs
) -> float:
    """Worst relative gap between closed-form excursion slopes and the
    Richardson slope of the s-weighted excursion values."""
    return _excursion(ladder, slope_table, y, xs).slope_rel_err


def e_column(ladder: LadderSystem, slope_table: SlopeTable, y: int, xs) -> ExcursionColumn:
    """Excursion values and slopes for one arrival state, Richardson-checked."""
    col = _excursion(ladder, slope_table, y, xs)
    _require_slopes(col.slope_rel_err, f"excursion slopes at y={y}")
    return col


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
