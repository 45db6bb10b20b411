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
from .errors import InvalidInput, NegativeDriftUnsupported, NotCentered, ReflectWalkError
from .laws import LatticeLaw, Regime, check_hypotheses, minimize_mgf, tilt
from .reflection import (
    ReflectionCore,
    _require_states,
    build_reflection_core,
    dominant_eigenvalue,
    e_tilde_value,
    r_row,
    r_tilde_row,
    resolvent_apply,
)
from .wiener_hopf import _require_slopes, default_depth, ladder_laws, slopes

SQRT_PI = math.sqrt(math.pi)
# relative gap allowed between a closed-form constant and its DP extrapolation
CENTERED_GAP_TOL = 0.02
DRIFTED_GAP_TOL = 0.05
CENTERED_ORACLE_N = 4000  # default horizon of the centered oracle
DRIFTED_ORACLE_CAP = 20_000  # longest default horizon of the drifted oracle


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
        raise InvalidInput("prediction needs n >= 1")
    return asym.C * asym.rho**n * n ** (-asym.beta)


def _require_hypotheses(law: LatticeLaw):
    report = check_hypotheses(law)
    if not (report.adapted and report.aperiodic):
        raise ReflectWalkError(
            f"law fails the lattice hypotheses (adapted={report.adapted}, "
            f"aperiodic={report.aperiodic})"
        )
    return report


def centered_objects(law: LatticeLaw, window: int = 0) -> ReflectionCore:
    """The gated reflection core of a centered law, with the ladder system and
    slope table it is built from, on potentials deep enough for targets up to
    window. Raises SlopeMismatch if the slope table or the kernel slope rows
    miss the Richardson oracle, and StationarityFailure if nu is not
    stationary."""
    ladder = ladder_laws(law, depth=default_depth(law, window))
    core = build_reflection_core(ladder, slopes(law, ladder))
    _require_slopes(core.slope_rel_err, "reflection slope rows")
    return core


def centered_constant(
    law: LatticeLaw, y: int, objects: ReflectionCore | None = None
) -> AsymptoticLaw:
    """The constant of P_x[X_n = y] ~ C_y / sqrt(n) (independent of x)."""
    _require_states(y=y)
    report = _require_hypotheses(law)
    if report.regime is not Regime.CENTERED:
        raise NotCentered(f"centered constant needs drift 0, got {report.drift}")
    if objects is None:
        objects = centered_objects(law, window=y)

    a = objects.a
    column = objects.excursion_column(y, range(1, a + 1))
    nu_e = math.fsum(objects.nu[x - 1] * column.values[x] for x in range(1, a + 1))
    nu_rt = objects.nu_weighted_tilde_mass()
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
        {"nu_E": nu_e, "nu_Rtilde_h": nu_rt, "nu": objects.nu.tolist()},
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
    e_tilde_core: np.ndarray
    e_tilde_x: float


def drifted_objects(
    law: LatticeLaw, x: int, y: int, objects: ReflectionCore | None = None
) -> DriftedObjects:
    """Conjugate the centering tilt's kernel and excursion data back to law.

    objects is the reflection core of that tilt, built with a window of at
    least max(x, y); when none is given, `centered_objects` builds it, with
    its checks. Its ladder, slopes and rows are reused. The excursion column
    on [1, a] passes the same slope gate as the centered constant's; the
    boundary state x may lie past the Richardson oracle's reach, so its
    slope is read directly.
    """
    info = minimize_mgf(law)
    r0, rho0 = info.r0, info.rho0
    if objects is None:
        objects = centered_objects(tilt(law, r0), window=max(x, y))
    ladder, slope_table, rows = objects.ladder, objects.slope_table, objects.rows

    a = ladder.a
    states = list(range(1, a + 1))
    scale = math.sqrt(rho0)

    def conj_rows(state: int) -> tuple[np.ndarray, np.ndarray]:
        # the conjugated kernel row of `state` and its conjugated slope row
        if state in rows:
            row, tilde = rows[state], objects.tilde_rows[state]
        else:
            row, tilde = r_row(ladder, state), r_tilde_row(ladder, slope_table, state)
        factors = np.array([r0 ** (state + w) for w in range(1, a + 1)])
        return row * factors, tilde * factors * scale

    pairs = [conj_rows(s) for s in states]
    core = np.array([row for row, _ in pairs])
    core_tilde = np.array([tilde for _, tilde in pairs])
    row_x, row_x_tilde = conj_rows(x)

    column = objects.excursion_column(y, states)
    e_core = np.array([r0 ** (s - y) * column.values[s] for s in states])
    e_tilde_core = np.array([scale * r0 ** (s - y) * column.tilde[s] for s in states])
    e_tilde_x = scale * r0 ** (x - y) * e_tilde_value(ladder, slope_table, x, y)

    return DriftedObjects(
        r0, rho0, x, y, core, core_tilde, row_x, row_x_tilde,
        e_core, e_tilde_core, e_tilde_x,
    )


def drifted_constant(
    law: LatticeLaw, x: int, y: int, objects: ReflectionCore | None = None
) -> AsymptoticLaw:
    """The constant of P_x[X_n = y] ~ C_{x,y} rho^n / n^(3/2) for drift > 0.

    objects: reflection core of the law's centering tilt to reuse, built
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

    # (I - R)^-1 E(., y) on the core
    v1_core, _ = resolvent_apply(obj.core, obj.e_core)
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
    law: LatticeLaw, x: int, y: int, objects: ReflectionCore | None = None
) -> AsymptoticLaw:
    """Dispatch on the drift regime (x only matters in the drifted case).

    objects: reflection core of the law, or of its centering tilt if it
    drifts, to reuse; built with a window of at least max(x, y).
    """
    _require_states(x=x, y=y)
    report = check_hypotheses(law)
    if report.regime is Regime.CENTERED:
        return centered_constant(law, y, objects)
    return drifted_constant(law, x, y, objects)


def oracle_constant_centered(
    law: LatticeLaw, y: int, x: int = 0, n_max: int = CENTERED_ORACLE_N
) -> float:
    """DP extrapolation of sqrt(n) P_x[X_n = y] against c0 + c1/sqrt(n)."""
    if n_max < 2:  # the fit window n_max // 2 .. n_max must leave out n = 0
        raise InvalidInput(f"horizon n_max must be >= 2, got {n_max}")
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
    if n_max < 2:  # the fit window n_max // 2 .. n_max must leave out n = 0
        raise InvalidInput(f"horizon n_max must be >= 2, got {n_max}")
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
    objects: ReflectionCore | None = None,
) -> dict:
    """Closed-form constant next to its DP-extrapolated counterpart.

    Fails loudly (raises) when the two disagree beyond tolerance: the DP is
    ground truth and a silent preference for the closed form would hide an
    assembly error. objects are passed on to asymptotic_law.
    """
    asym = asymptotic_law(law, x, y, objects)
    if asym.regime is Regime.CENTERED:
        n_max = CENTERED_ORACLE_N if oracle_n is None else oracle_n
        tol = CENTERED_GAP_TOL
        oracle = oracle_constant_centered(law, y, x=x, n_max=n_max)
    else:
        n_max = drifted_oracle_horizon(asym.rho) if oracle_n is None else oracle_n
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
    """Check of the change-of-measure identity on the law of S_n.

        P[S_n = k] = rho0^n r0^(-k) P_tilted[S_n = k]
    must hold exactly at every k; returns the worst residual. Both laws of S_n
    are n-fold convolutions. For any one n >= 1 the identity holds iff the
    per-step one does, which gives it on every path event of every length.
    """
    if n > 8:
        raise InvalidInput("the tilting check is capped at n = 8")
    if n < 0:
        raise InvalidInput(f"the tilting check needs n >= 0, got {n}")
    info = minimize_mgf(law)
    tilted = tilt(law, info.r0)
    p_orig = p_tilt = np.ones(1)
    for _ in range(n):
        p_orig = np.convolve(p_orig, law.masses)
        p_tilt = np.convolve(p_tilt, tilted.masses)
    ks = np.arange(n * law.lo, n * law.hi + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is raised below
        weight = p_tilt * info.rho0**n * info.r0 ** (-ks)
        residual = float(np.max(np.abs(p_orig - weight)))
    if not math.isfinite(residual):
        raise InvalidInput(f"r0^(-k) leaves the float range on S_{n} (r0 = {info.r0!r}); take a smaller n")
    return residual
