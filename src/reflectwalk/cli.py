"""Command-line surface: reproducible experiments with machine-readable output.

Data goes to stdout (JSON with sorted keys, or CSV with 12-significant-digit
floats, so canonical invocations are byte-stable); a one-line run manifest
goes to stderr. Exit codes: 0 success, 1 usage/input error, 2 validation
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    CenteredObjects,
    asymptotic_law,
    centered_objects,
    constant_report,
    predict,
    tilting_identity_check,
)
from .chain import (
    excursion_series,
    n_step_rows,
    n_step_series,
    verify_first_reflection_identity,
    verify_ladder_factorizations,
)
from .errors import InvalidInput, ReflectWalkError, SlopeMismatch
from .fluctuation import descent_joint_table
from .laws import Regime, check_hypotheses, load_law, minimize_mgf, moments, tilt
from .montecarlo import SimConfig, simulate
from .reflection import (
    build_reflection_core,
    doeblin_gap,
    dominant_eigenvalue,
    e_column,
    e_value,
    excursion_slope_oracle_error,
    r_row_at_s,
)
from .wiener_hopf import default_depth, ladder_laws, roots_z_pm, slopes


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_json(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(header: str, blocks):
    """Write `header`, then `template % values` for each (template, values) block;
    %.12g prints a float as f"{x:.12g}" does, and one block may hold many rows."""
    sys.stdout.write(header + "\n")
    for template, values in blocks:
        sys.stdout.write(template % values)


def _law_digest(law) -> str:
    doc = json.dumps({"masses": {str(k): v for k, v in law.as_dict().items()}}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _centered_base(law):
    """The law itself if centered, else its centering tilt (with r0)."""
    report = check_hypotheses(law)
    if report.regime is Regime.CENTERED:
        return law, 1.0, False
    info = minimize_mgf(law)
    return tilt(law, info.r0), info.r0, True


# ---------------------------------------------------------------- commands


def _cmd_analyze(args) -> int:
    law = load_law(args.law)
    report = check_hypotheses(law, args.drift_tol)
    info = minimize_mgf(law)
    drift, variance = moments(law)
    _emit_json(
        {
            "hypotheses": {
                "adapted": report.adapted,
                "aperiodic": report.aperiodic,
                "drift": report.drift,
                "regime": report.regime.value,
            },
            "moments": {"drift": drift, "variance": variance},
            "tilt": {"r0": info.r0, "rho0": info.rho0, "R0": info.R0},
        }
    )
    return 0


def _cmd_ladder(args) -> int:
    law = load_law(args.law)
    base, r0, tilted = _centered_base(law)

    if args.oracle is not None:
        n = args.oracle
        table = descent_joint_table(base, n)
        mu = ladder_laws(base).mu_minus
        rows = []
        checkpoints = sorted({min(2**k, n) for k in range(0, 40) if 2**k <= n} | {n})
        partials = np.cumsum(table, axis=1)
        for cp in checkpoints:
            for w in range(1, base.a + 1):
                p = float(partials[w - 1, cp])
                rows.append((cp, w, p, float(mu[w - 1]), float(mu[w - 1]) - p))
        _emit_csv("n,w,partial_sum,target,gap", (("%d,%d,%.12g,%.12g,%.12g\n", r) for r in rows))
        return 0

    ladder = ladder_laws(base, depth=args.depth)
    table = slopes(base, ladder)
    emit = min(ladder.depth, args.emit_depth)
    _emit_json(
        {
            "tilted": tilted,
            "r0": r0,
            "mu_minus": {str(-w): float(ladder.mu_minus[w - 1]) for w in range(1, base.a + 1)},
            "mu_plus": {str(j): float(ladder.mu_plus[j]) for j in range(0, base.b + 1)},
            "U_minus": [float(v) for v in ladder.U_minus[: emit + 1]],
            "U_plus": [float(v) for v in ladder.U_plus[: emit + 1]],
            "sigma": ladder.sigma,
            "mean_ladder_minus": ladder.mean_ladder_minus,
            "factorization_residual": ladder.residual,
            "slopes": {
                "T_minus": [float(v) for v in table.slope_T_minus],
                "T_plus": [float(v) for v in table.slope_T_plus],
                "U_minus": [float(v) for v in table.slope_U_minus[: emit + 1]],
                "U_plus": [float(v) for v in table.slope_U_plus[: emit + 1]],
                "method": table.method,
                "max_rel_err": table.max_rel_err,
            },
        }
    )
    return 0


def _cmd_exact(args) -> int:
    rows = n_step_rows(load_law(args.law), args.start, args.n)
    _emit_csv("n,y,probability", map(_exact_block, range(args.n + 1), rows))
    return 0


def _exact_block(n: int, row: np.ndarray):
    """DP row n as one CSV block: its nonzero entries (y, P), y ascending."""
    ys = np.flatnonzero(row)
    cells = [0] * (2 * ys.size)
    cells[0::2], cells[1::2] = ys.tolist(), row[ys].tolist()
    return f"{n},%d,%.12g\n" * ys.size, tuple(cells)


def _cmd_constants(args) -> int:
    law = load_law(args.law)
    objects = None
    if args.dump_internals:
        # one build serves both the constant and the dump; deeper potentials
        # leave every entry the constant reads unchanged
        base, r0, tilted = _centered_base(law)
        objects = centered_objects(base, window=max(args.x, args.y, 10))
    if args.no_oracle:
        asym = asymptotic_law(law, args.x, args.y, objects)
        payload = {
            "regime": asym.regime.value,
            "rho": asym.rho,
            "beta": asym.beta,
            "C": asym.C,
            "oracle_estimate": None,
            "rel_gap": None,
        }
    else:
        payload = constant_report(law, args.x, args.y, oracle_n=args.oracle_n, objects=objects)
    if objects is not None:
        ladder, table, core = objects.ladder, objects.slope_table, objects.core
        col = e_column(ladder, table, args.y, core.x_window)
        payload["internals"] = {
            "tilted": tilted,
            "r0": r0,
            "nu": {str(x): float(core.nu[x - 1]) for x in range(1, base.a + 1)},
            "nu_convention": core.nu_convention,
            "kappa": core.kappa,
            "R_rows": {str(x): [float(v) for v in core.rows[x]] for x in core.x_window},
            "R_tilde_rows": {str(x): [float(v) for v in core.tilde_rows[x]] for x in core.x_window},
            "E_column": {str(x): col.values[x] for x in core.x_window},
            "E_tilde_column": {str(x): col.tilde[x] for x in core.x_window},
        }
    _emit_json(payload)
    return 0


def _cmd_compare(args) -> int:
    law = load_law(args.law)
    asym = asymptotic_law(law, args.x, args.y)
    column = n_step_series(law, args.x, [args.y], args.n_max)[args.y]
    grid = [n for n in (2**k for k in range(4, 40)) if n <= args.n_max]
    config = SimConfig(law, args.x, max(grid, default=0), args.paths, args.seed)
    result = simulate(config, checkpoints=grid)
    rows = []
    for n in grid:
        est = result.estimate(args.y, n)
        rows.append((n, column[n], predict(asym, n), est.point, est.stderr))
    _emit_csv("n,exact,predicted,mc,mc_stderr", (("%d,%.12g,%.12g,%.12g,%.12g\n", r) for r in rows))
    return 0


def _cmd_simulate(args) -> int:
    law = load_law(args.law)
    config = SimConfig(law, args.start, args.n, args.paths, args.seed)
    result = simulate(config)
    paths = float(config.paths)
    terminal = {}
    for y in np.nonzero(result.terminal)[0]:
        p = result.terminal[y] / paths
        terminal[str(int(y))] = {
            "point": float(p),
            "stderr": math.sqrt(p * (1 - p) / paths),
            "count": int(result.terminal[y]),
        }
    reflected = int(config.paths - result.first_reflection_time[0])
    targets = {}
    for w in range(1, law.a + 1):
        count = int(result.first_reflection_target[w - 1])
        if reflected:
            p = count / reflected
            targets[str(w)] = {
                "point": p,
                "stderr": math.sqrt(p * (1 - p) / reflected),
                "count": count,
            }
    _emit_json(
        {
            "terminal": terminal,
            "first_reflection": {
                "fraction_reflected": reflected / paths,
                "targets_given_reflected": targets,
            },
            "total_reflections": int(result.reflection_target.sum()),
        }
    )
    return 0


def _exact_gap(target: float, coeffs: np.ndarray) -> float:
    """target - sum(coeffs), correctly rounded: the same bits on any IEEE-754
    build, whatever order a library would have summed the coefficients in."""
    return math.fsum([target, *(-coeffs).tolist()])


def _cmd_validate(args) -> int:
    law = load_law(args.law)
    report = check_hypotheses(law)
    base, r0, tilted = _centered_base(law)
    checks = []

    def add(name, value, threshold):
        checks.append(
            {"name": name, "value": value, "threshold": threshold, "pass": bool(value < threshold)}
        )

    # the s = 1 pair is the one the ladder laws come from; the depth is the
    # one the constant's own build would use, so its objects are these
    ladder = ladder_laws(base, depth=default_depth(base, args.y))
    res = max(ladder.factor_pair(s).residual for s in (0.5, 0.9, 0.99, 1.0))
    add("wiener_hopf_residual", res, 1e-10)

    # every start is walked once; each check is its worst (x, y) residual
    xs, ys = (0, 1, 3), (0, 1, 2)
    add("first_reflection_identity", verify_first_reflection_identity(law, xs, ys, 60), 1e-12)
    res_e, res_r = verify_ladder_factorizations(law, xs, ys, 60)
    add("ladder_factorization_excursion", res_e, 1e-12)
    add("ladder_factorization_reflection", res_r, 1e-12)

    descent = descent_joint_table(base, args.oracle_n)
    gaps = [
        _exact_gap(float(ladder.mu_minus[w - 1]), series)
        for w, series in enumerate(descent, start=1)
    ]
    overshoot = max(-g for g in gaps)
    gap = max(gaps)
    add("descent_partial_sums_below_target", overshoot, 1e-12)
    # the DP gap closes like 1/sqrt(N); 0.01 is the budget at N = 20000
    add("descent_partial_sums_gap", gap, 0.01 * math.sqrt(20_000 / args.oracle_n))

    try:
        table = slopes(base, ladder)
        add("slope_convention_max_rel_err", table.max_rel_err, 1e-3)
        # the core checks its own slope rows; a large error is reported here
        core = build_reflection_core(ladder, table)
        add("kernel_slope_oracle_rel_err", core.slope_rel_err, 1e-3)
        add(
            "excursion_slope_oracle_rel_err",
            excursion_slope_oracle_error(ladder, table, args.y, core.x_window),
            1e-3,
        )
    except SlopeMismatch as exc:
        checks.append(
            {"name": "slope_convention", "value": str(exc), "threshold": 1e-3, "pass": False}
        )
        _emit_json({"checks": checks, "passed": False})
        return 2

    nu_res = float(np.sum(np.abs(core.nu @ core.core - core.nu)))
    add("stationarity_residual", nu_res, 1e-10)
    add("doeblin_gap", -doeblin_gap(ladder, core.rows), 1e-14)

    sigma = ladder.sigma
    eps = 1e-4
    z_minus, _ = roots_z_pm(base, 1.0 - eps)
    target = math.sqrt(2.0) / sigma
    add(
        "root_expansion_rel_err",
        abs((1.0 - z_minus) / math.sqrt(eps) - target) / target,
        0.03,
    )

    fp = ladder.factor_pair(1.0 - eps)
    lam = dominant_eigenvalue(
        np.array(
            [r_row_at_s(base, 1.0 - eps, x, fp) for x in range(1, base.a + 1)]
        )
    )
    nu_rt = core.nu_weighted_tilde_mass()
    add(
        "eigenvalue_expansion_rel_err",
        abs((1.0 - lam) / math.sqrt(eps) + nu_rt) / abs(nu_rt),
        0.05,
    )

    # the tail of the excursion series decays like n^(-3/2), so the partial
    # sum at N sits ~ c/sqrt(N) below the closed form
    exc = excursion_series(base, 0, [0], 10_000)[0]
    exc_gap = _exact_gap(e_value(ladder, 0, 0), exc)
    add("excursion_partial_below_closed", -exc_gap, 1e-12)
    add("excursion_partial_gap", exc_gap, 0.05)

    try:
        objects = CenteredObjects(ladder, table, core)
        rep = constant_report(law, 0, args.y, oracle_n=args.constant_n, objects=objects)
        add("constant_vs_dp_rel_gap", rep["rel_gap"], 0.02 if not tilted else 0.05)
    except ReflectWalkError as exc2:
        checks.append(
            {"name": "constant_vs_dp", "value": str(exc2), "threshold": None, "pass": False}
        )

    if tilted:
        add("tilting_identity_residual", tilting_identity_check(law, 6), 1e-14)

    passed = all(c["pass"] for c in checks)
    _emit_json(
        {
            "law_regime": report.regime.value,
            "tilted_for_centered_checks": tilted,
            "checks": checks,
            "passed": passed,
        }
    )
    return 0 if passed else 2


# ---------------------------------------------------------------- wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="reflectwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="hypothesis report and mgf minimizer")
    p.add_argument("--law", required=True)
    p.add_argument("--drift-tol", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("ladder", help="ladder laws, potentials, and slopes")
    p.add_argument("--law", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--emit-depth", type=int, default=12)
    p.add_argument("--oracle", type=int, default=None, metavar="N",
                   help="emit DP partial sums up to horizon N as CSV instead")
    p.set_defaults(fn=_cmd_ladder)

    p = sub.add_parser("exact", help="exact n-step laws of the reflected chain")
    p.add_argument("--law", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("constants", help="asymptotic return-probability constant")
    p.add_argument("--law", required=True)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--oracle-n", type=int, default=None)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--dump-internals", action="store_true")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("compare", help="exact vs predicted vs Monte Carlo table")
    p.add_argument("--law", required=True)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n-max", type=int, default=1024)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    p.add_argument("--law", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("validate", help="identity and oracle suite")
    p.add_argument("--law", required=True)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--oracle-n", type=int, default=20000)
    p.add_argument("--constant-n", type=int, default=None)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        law = load_law(args.law)  # early validation for uniform error reporting
    except (OSError, ReflectWalkError) as exc:
        sys.stderr.write(f"law file error ({args.law}): {exc}\n")
        return 1
    try:
        code = args.fn(args)
    except InvalidInput as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except ReflectWalkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    manifest = {
        "command": args.command,
        "law_digest": _law_digest(law),
        "parameters": {
            k: v for k, v in vars(args).items() if k not in ("fn", "command") and v is not None
        },
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "outputs": "stdout",
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
