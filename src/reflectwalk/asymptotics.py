"""Asymptotic laws for the return probabilities of the reflected chain.

Centered increments: P_x[X_n = y] ~ C_y / sqrt(n), with C_y assembled from
the stationary reflection law, the excursion column, and the kernel slope.
Positive drift: P_x[X_n = y] ~ C_{x,y} rho^n / n^(3/2), obtained by tilting
to the centered case and conjugating the centered objects back.

Every constant can be cross-checked against a dynamic-programming
extrapolation oracle; the report helpers publish both and their gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import n_step_series
from .errors import NegativeDriftUnsupported, NotCentered, ReflectWalkError, SlopeMismatch
from .laws import LatticeLaw, Regime, check_hypotheses, minimize_mgf, tilt
from .reflection import (
    ReflectionCore,
    _require_states,
    build_reflection_core,
    dominant_eigenvalue,
    e_column,
    e_value,
    e_tilde_value,
    r_row,
    r_tilde_row,
    resolvent_apply,
)
from .wiener_hopf import SLOPE_REL_TOL, LadderSystem, SlopeTable, default_depth, ladder_laws, slopes

SQRT_PI = math.sqrt(math.pi)
# relative gap allowed between a closed-form constant and its DP extrapolation
CENTERED_GAP_TOL = 0.02
DRIFTED_GAP_TOL = 0.05
DRIFTED_ORACLE_CAP = 20_000  # longest default horizon of the drifted oracle
TILTING_EVENTS = 100  # random path events per tilting identity check
TILTING_SEED = 90714


@dataclass(frozen=True)
class AsymptoticLaw:
    """Predicted law C * rho^n * n^(-beta) with its assembly provenance."""

    regime: Regime
    rho: float
    beta: float
    C: float
    provenance: dict


def predict(asym: AsymptoticLaw, n: int) -> float:
    """Evaluate the predicted law at time n >= 1."""
    if n < 1:
        raise ValueError("prediction needs n >= 1")
    return asym.C * asym.rho**n * n ** (-asym.beta)


def _require_hypotheses(law: LatticeLaw):
    report = check_hypotheses(law)
    if not (report.adapted and report.aperiodic):
        raise ReflectWalkError(
            f"law fails the lattice hypotheses (adapted={report.adapted}, "
            f"aperiodic={report.aperiodic})"
        )
    return report


@dataclass(frozen=True, eq=False)
class CenteredObjects:
    """Shared centered machinery: ladder system, slopes, reflection core."""

    ladder: LadderSystem
    slope_table: SlopeTable
    core: ReflectionCore


def centered_objects(law: LatticeLaw, window: int = 0) -> CenteredObjects:
    ladder = ladder_laws(law, depth=default_depth(law, window))
    slope_table = slopes(law, ladder)
    core = build_reflection_core(ladder, slope_table)
    if core.slope_rel_err > SLOPE_REL_TOL:
        raise SlopeMismatch(
            f"reflection slope rows deviate from the Richardson oracle "
            f"by {core.slope_rel_err:.3e} (tolerance {SLOPE_REL_TOL:.1e})"
        )
    return CenteredObjects(ladder, slope_table, core)


def centered_constant(
    law: LatticeLaw, y: int, objects: CenteredObjects | None = None
) -> AsymptoticLaw:
    """The constant of P_x[X_n = y] ~ C_y / sqrt(n) (independent of x)."""
    _require_states(y=y)
    report = _require_hypotheses(law)
    if report.regime is not Regime.CENTERED:
        raise NotCentered(f"centered constant needs drift 0, got {report.drift}")
    if objects is None:
        objects = centered_objects(law, window=y)
    ladder, slope_table, core = objects.ladder, objects.slope_table, objects.core

    a = ladder.a
    column = e_column(ladder, slope_table, y, range(1, a + 1))
    nu_e = math.fsum(core.nu[x - 1] * column.values[x] for x in range(1, a + 1))
    nu_rt = core.nu_weighted_tilde_mass()
    if not nu_rt < 0:
        raise ReflectWalkError(
            f"nu-weighted kernel slope is {nu_rt}, expected strictly negative"
        )
    c = -(1.0 / SQRT_PI) * nu_e / nu_rt
    return AsymptoticLaw(
        Regime.CENTERED,
        1.0,
        0.5,
        c,
        {"nu_E": nu_e, "nu_Rtilde_h": nu_rt, "nu": core.nu.tolist()},
    )


@dataclass(frozen=True, eq=False)
class DriftedObjects:
    """Tilt-conjugated matrices on the core window plus one boundary state."""

    r0: float
    rho0: float
    x: int
    y: int
    core: np.ndarray  # conjugated kernel block on [1, a]
    core_tilde: np.ndarray
    row_x: np.ndarray  # conjugated kernel row at the boundary state
    row_x_tilde: np.ndarray
    e_core: np.ndarray  # conjugated excursion column at [1, a]
    e_x: float
    e_tilde_core: np.ndarray
    e_tilde_x: float


def drifted_objects(
    law: LatticeLaw, x: int, y: int, objects: CenteredObjects | None = None
) -> DriftedObjects:
    """Conjugate the centering tilt's kernel and excursion data back to law.

    objects, when given, are the centered objects of that tilt, built with a
    window of at least max(x, y); their ladder and slopes are used as they are.
    """
    info = minimize_mgf(law)
    r0, rho0 = info.r0, info.rho0
    if objects is None:
        tilted = tilt(law, r0)
        ladder = ladder_laws(tilted, depth=default_depth(tilted, max(x, y)))
        slope_table = slopes(tilted, ladder)
    else:
        ladder, slope_table = objects.ladder, objects.slope_table

    a = ladder.a
    states = list(range(1, a + 1))
    scale = math.sqrt(rho0)

    def conj_row(state: int, row: np.ndarray, tilde: bool) -> np.ndarray:
        factors = np.array([r0 ** (state + w) for w in range(1, a + 1)])
        out = row * factors
        return out * scale if tilde else out

    core = np.array([conj_row(s, r_row(ladder, s), False) for s in states])
    core_tilde = np.array(
        [conj_row(s, r_tilde_row(ladder, slope_table, s), True) for s in states]
    )
    row_x = conj_row(x, r_row(ladder, x), False)
    row_x_tilde = conj_row(x, r_tilde_row(ladder, slope_table, x), True)

    e_core = np.array(
        [r0 ** (s - y) * e_value(ladder, s, y) for s in states]
    )
    e_x = r0 ** (x - y) * e_value(ladder, x, y)
    e_tilde_core = np.array(
        [scale * r0 ** (s - y) * e_tilde_value(ladder, slope_table, s, y) for s in states]
    )
    e_tilde_x = scale * r0 ** (x - y) * e_tilde_value(ladder, slope_table, x, y)

    return DriftedObjects(
        r0, rho0, x, y, core, core_tilde, row_x, row_x_tilde,
        e_core, e_x, e_tilde_core, e_tilde_x,
    )


def drifted_constant(
    law: LatticeLaw, x: int, y: int, objects: CenteredObjects | None = None
) -> AsymptoticLaw:
    """The constant of P_x[X_n = y] ~ C_{x,y} rho^n / n^(3/2) for drift > 0.

    objects: centered objects of the law's centering tilt to reuse, built
    with a window of at least max(x, y).
    """
    _require_states(x=x, y=y)
    report = _require_hypotheses(law)
    if report.regime is Regime.NEGATIVE_DRIFT:
        raise NegativeDriftUnsupported(
            "negative drift is positively recurrent; no decay constant here"
        )
    if report.regime is Regime.CENTERED:
        raise NotCentered("drift is 0; use centered_constant")

    obj = drifted_objects(law, x, y, objects=objects)
    radius = dominant_eigenvalue(obj.core)
    if radius >= 1.0:
        raise ReflectWalkError(f"conjugated core spectral radius {radius} >= 1")

    # (I - R)^-1 E(., y), on the core and at the boundary state
    v1_core, (v1_x,) = resolvent_apply(obj.core, obj.e_core, [(obj.e_x, obj.row_x)])
    # Rtilde (I - R)^-1 E(., y)
    w_core = obj.core_tilde @ v1_core
    w_x = float(obj.row_x_tilde @ v1_core)
    # (I - R)^-1 Rtilde (I - R)^-1 E(., y)
    _, (term1_x,) = resolvent_apply(obj.core, w_core, [(w_x, obj.row_x)])
    # (I - R)^-1 Etilde(., y)
    _, (term2_x,) = resolvent_apply(
        obj.core, obj.e_tilde_core, [(obj.e_tilde_x, obj.row_x)]
    )

    bracket = term1_x + term2_x
    if not bracket < 0:
        raise ReflectWalkError(
            f"drifted singular amplitude is {bracket}, expected strictly negative"
        )
    # C = A(R0) R0^(1/2) / Gamma(-1/2): the (R0 - s)^(1/2) singular factor is
    # R0^(1/2) (1 - s/R0)^(1/2), and the sqrt(R0) must ride along. The DP
    # extrapolation oracle confirms this power and rejects R0^1.
    c = -bracket / (2.0 * math.sqrt(obj.rho0) * SQRT_PI)
    return AsymptoticLaw(
        Regime.POSITIVE_DRIFT,
        obj.rho0,
        1.5,
        c,
        {
            "r0": obj.r0,
            "core_spectral_radius": radius,
            "resolvent_term": term1_x,
            "slope_term": term2_x,
        },
    )


def asymptotic_law(
    law: LatticeLaw, x: int, y: int, objects: CenteredObjects | None = None
) -> AsymptoticLaw:
    """Dispatch on the drift regime (x only matters in the drifted case).

    objects: centered objects of the law, or of its centering tilt if it
    drifts, to reuse; built with a window of at least max(x, y).
    """
    _require_states(x=x, y=y)
    report = check_hypotheses(law)
    if report.regime is Regime.CENTERED:
        return centered_constant(law, y, objects)
    return drifted_constant(law, x, y, objects)


def oracle_constant_centered(
    law: LatticeLaw, y: int, x: int = 0, n_max: int = 4000
) -> float:
    """DP extrapolation of sqrt(n) P_x[X_n = y] against c0 + c1/sqrt(n)."""
    column = n_step_series(law, x, [y], n_max)[y]
    ns = np.arange(n_max // 2, n_max + 1)
    values = column[ns] * np.sqrt(ns)
    design = np.column_stack([np.ones_like(ns, dtype=float), 1.0 / np.sqrt(ns)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(coef[0])


def drifted_oracle_horizon(rho: float) -> int:
    """Default DP horizon for the drifted extrapolation.

    The rho^n n^(-3/2) regime only sets in past the crossover 1/(1 - rho),
    so near-critical laws need proportionally longer horizons; 400 is ample
    for comfortably drifted laws; DRIFTED_ORACLE_CAP bounds it.
    """
    crossover = 1.0 / max(1.0 - rho, 1e-6)
    return int(max(400, min(16 * crossover, DRIFTED_ORACLE_CAP)))


def oracle_constant_drifted(
    law: LatticeLaw, x: int, y: int, rho: float, n_max: int | None = None
) -> float:
    """DP extrapolation of log P_x[X_n = y] - n log rho + 1.5 log n against c + d/n."""
    if n_max is None:
        n_max = drifted_oracle_horizon(rho)
    column = n_step_series(law, x, [y], n_max)[y]
    ns = np.arange(n_max // 2, n_max + 1)
    probs = column[ns]
    if np.any(probs <= 0):
        raise ReflectWalkError("DP probabilities vanish on the fit window")
    g = np.log(probs) - ns * math.log(rho) + 1.5 * np.log(ns)
    design = np.column_stack([np.ones_like(ns, dtype=float), 1.0 / ns])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    return float(math.exp(coef[0]))


def constant_report(
    law: LatticeLaw,
    x: int,
    y: int,
    oracle_n: int | None = None,
    objects: CenteredObjects | None = None,
) -> dict:
    """Closed-form constant next to its DP-extrapolated counterpart.

    Fails loudly (raises) when the two disagree beyond tolerance: the DP is
    ground truth and a silent preference for the closed form would hide an
    assembly error. objects are passed on to asymptotic_law.
    """
    asym = asymptotic_law(law, x, y, objects)
    if asym.regime is Regime.CENTERED:
        n_max = oracle_n or 4000
        tol = CENTERED_GAP_TOL
        oracle = oracle_constant_centered(law, y, x=x, n_max=n_max)
    else:
        n_max = oracle_n or drifted_oracle_horizon(asym.rho)
        tol = DRIFTED_GAP_TOL
        oracle = oracle_constant_drifted(law, x, y, asym.rho, n_max=n_max)
    gap = abs(asym.C - oracle) / abs(asym.C)
    report = {
        "regime": asym.regime.value,
        "rho": asym.rho,
        "beta": asym.beta,
        "C": asym.C,
        "oracle_estimate": oracle,
        "rel_gap": gap,
        "oracle_n": n_max,
    }
    if gap > tol:
        raise ReflectWalkError(
            f"closed-form constant {asym.C} and DP extrapolation {oracle} "
            f"disagree by {gap:.2%} (tolerance {tol:.0%})"
        )
    return report


def tilting_identity_check(law: LatticeLaw, n: int) -> float:
    """Exhaustive check of the change-of-measure identity on length-n paths.

    For indicator functionals Phi of random path events,
        E[Phi] = rho0^n E_tilted[Phi * r0^(-S_n)]
    must hold exactly; returns the worst residual over TILTING_EVENTS random
    events (each path in with probability 1/2), drawn from TILTING_SEED.
    """
    if n > 8:
        raise ValueError("exhaustive enumeration is capped at n = 8")
    info = minimize_mgf(law)
    tilted = tilt(law, info.r0)
    support = law.support()

    paths = [[]]
    for _ in range(n):
        paths = [p + [k] for p in paths for k in support]

    p_orig = np.empty(len(paths))
    p_tilt = np.empty(len(paths))
    endpoints = np.empty(len(paths))
    for i, p in enumerate(paths):
        p_orig[i] = math.prod(law.mass(k) for k in p)
        p_tilt[i] = math.prod(tilted.mass(k) for k in p)
        endpoints[i] = sum(p)
    weight = p_tilt * info.rho0**n * info.r0 ** (-endpoints)

    rng = np.random.default_rng(TILTING_SEED)
    worst = 0.0
    for _ in range(TILTING_EVENTS):
        mask = rng.random(len(paths)) < 0.5
        lhs = math.fsum(p_orig[mask].tolist())
        rhs = math.fsum(weight[mask].tolist())
        worst = max(worst, abs(lhs - rhs))
    return worst
