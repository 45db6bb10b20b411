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
from functools import cache, partial

import numpy as np

from . import __version__
from .asymptotics import (
    CENTERED_GAP_TOL,
    DRIFTED_GAP_TOL,
    asymptotic_law,
    centered_objects,
    constant_report,
    predict,
    tilting_identity_check,
)
from .chain import (
    n_step_rows,
    n_step_series,
    verify_first_reflection_identity,
    verify_ladder_factorizations,
)
from .errors import InvalidInput, NonFiniteOutput, ReflectWalkError, SlopeMismatch
from .fluctuation import descent_joint_table, stay_series
from .laws import Regime, check_hypotheses, load_law, minimize_mgf, moments, tilt
from .montecarlo import SimConfig, simulate
from .reflection import (
    NU_CONVENTION,
    build_reflection_core,
    doeblin_gap,
    dominant_eigenvalue,
    e_value,
    excursion_slope_oracle_error,
    r_row_at_s,
)
from .wiener_hopf import SLOPE_REL_TOL, default_depth, ladder_laws, roots_z_pm, slopes


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_json(payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # allow_nan=False refuses NaN and +-inf
        raise NonFiniteOutput(f"a JSON value is not finite ({exc})") from None
    sys.stdout.write(text + "\n")


def _emit_csv(header: str, blocks):
    """Write `header`, then each block, a list of columns of one length (at
    least 1), as CSV rows with one `write` per block. The header waits for
    the first block's text, so a first block that fails writes nothing.

    Each int prints as "%d" and each float as "%.12g" would print it, byte for
    byte: `_put_floats` says how the digits are found, and when Python's own
    formatting gives them instead. A NaN or infinite float raises
    NonFiniteOutput before its block is written.
    """
    head = header + "\n"
    for columns in blocks:
        text = _csv_text([np.asarray(c) for c in columns])
        sys.stdout.write(head)
        sys.stdout.write(text)
        head = text = ""  # no text is held while the next block is formatted
    sys.stdout.write(head)


# Entries per `exact` block. A larger block spends less per entry on numpy
# calls, but while it is formatted it holds about 85 bytes an entry (its
# columns, its padded text, 35 bytes a line on `exact lawA --n 400`, and the
# float path's scratch), which must stay far below the stored table that
# streaming the DP avoids. 3,072 entries would save another 9% of the time
# at 1.4 times the peak memory.
_BLOCK = 2048


def _words(raw: np.ndarray) -> np.ndarray:
    """The little-endian words whose bytes are raw[..., :], in a flat table."""
    return raw.view(f"<u{raw.shape[-1]}").ravel()


# Lookup tables of text pieces, built at import. A 0 byte pads a piece and is
# dropped from the text.
_G = np.arange(1000)
# the ASCII digits (hundreds, tens, ones) of each g in 0..999
_DIGITS = (np.indices((10, 10, 10)).reshape(3, 1000).T + ord("0")).astype(np.uint8)
# a 3-digit group g of mantissa digits: [g] without trailing zeros, [1000 + g] whole
_NOT_TRAILING = np.logical_or.accumulate(_DIGITS[:, ::-1] != ord("0"), axis=1)[:, ::-1]
_MANTISSA = np.stack([_DIGITS * _NOT_TRAILING, _DIGITS])
_raw = np.zeros((2, 1000, 4), np.uint8)
_raw[..., :3] = _MANTISSA
_GROUP = _words(_raw)
# the first group (g >= 100) as "d.dd", at [g] and [1000 + g] as in _GROUP, its
# point dropped with the digits after it; at [2000 k + ...], 1 <= k <= 4,
# after "0." and k - 1 zeros, with no point
_raw = np.zeros((5, 2, 1000, 8), np.uint8)
_raw[0, ..., 0], _raw[0, ..., 2:4] = _MANTISSA[..., 0], _MANTISSA[..., 1:]
_raw[0, ..., 1] = ord(".") * (_MANTISSA[..., 1] != 0)
for _k in range(1, 5):
    _raw[_k, ..., : _k + 1] = np.frombuffer(b"0." + b"0" * (_k - 1), np.uint8)
    _raw[_k, ..., _k + 1 : _k + 4] = _MANTISSA
_LEAD_GROUP = _words(_raw)
# a 3-digit group g of an int: [g] the leading group, no leading zeros;
# [1000 + g] the same after "-"; [2000 + g] whole; [3000] blank
_raw = np.zeros((4, 1000, 4), np.uint8)
_raw[:3, :, 1:] = _DIGITS
_raw[:2, :, 1] *= _G >= 100
_raw[:2, :, 2] *= _G >= 10
_raw[1, :, 0] = ord("-")
_INT_GROUP = _words(_raw)
# for a decimal exponent X = -j, 0 <= j <= 308: the exponent %g prints below
# 1e-4, "e-XX" or "e-XXX"; the offset of the "0." forms into _LEAD_GROUP from
# 1e-4 to 1; and 10^j, correctly rounded (as Python converts an int)
_J = np.arange(309)
_raw = np.zeros((309, 8), np.uint8)
_raw[:, :2] = np.frombuffer(b"e-", np.uint8)
_raw[:, 2:5] = _DIGITS[_J]
_raw[:, 2] *= _J >= 100
_raw[:5] = 0
_EXP = _words(_raw)
_LEAD_AT = np.where(_J > 4, 0, 2000 * _J).astype(np.int32)
_P10 = np.cumprod([1] + [10] * 308, dtype=object).astype(np.float64)
del _raw, _k
_NORMAL_MIN = sys.float_info.min  # the smallest normal float
# m is off (1e11, 1e12 - 0.5) when |m - _MID| >= _HALF; both are exact, and a
# rounded m - _MID keeps the side of the bound an exact one is on
_MID, _HALF = (1e11 + 999999999999.5) / 2, (999999999999.5 - 1e11) / 2
_FLOAT_WIDTH = 25  # the cell of `_put_floats`, with its separator


def _put(buf, at: int, line: int, table: np.ndarray, index: np.ndarray):
    """Write table[index[r]] at byte at + r * line of buf, for each row r.

    An index off the table (a guarded float's, whose text is replaced) clips.
    `take` into the strided view itself would copy it out and back."""
    np.ndarray(index.shape, table.dtype, buf, at, (line,))[...] = table.take(index, mode="clip")


def _csv_text(columns) -> str:
    """The CSV rows of one block. Each cell has fixed byte offsets in a line
    of `line` bytes; the pad bytes (0) are dropped at the end."""
    cells = []
    for col in columns:
        if col.dtype.kind == "f":
            cells.append((partial(_put_floats, col), _FLOAT_WIDTH))
        else:
            cells.append(_int_cell(col))
    n, line = columns[0].size, sum(width for _, width in cells)
    text = bytearray(n * line)
    buf = np.frombuffer(text, np.uint8)
    at = 0
    for put, width in cells:
        put(buf, at, line)
        buf[at + width - 1 :: line] = 44  # ","
        at += width
    buf[line - 1 :: line] = 10  # "\n"
    del buf  # the padded text goes before the decoded one is made
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def _int_cell(col: np.ndarray):
    """The writer of an int column and its cell width, separator included:
    3-digit groups from numpy, or Python's text for ints beyond 64 bits."""
    if col.dtype.kind in "iu":
        lo, hi = int(col.min()), int(col.max())
        if -(2**63) < lo and hi < 2**63:
            groups = (len(str(max(-lo, hi))) + 2) // 3
            # int32 holds the values, and every group's scale, below 10^9
            ints = col.astype(np.int32 if groups <= 3 else np.int64, copy=False)
            return partial(_put_ints, ints, groups, lo < 0), 4 * groups + 1
    text = np.array([b"%d" % x for x in col.tolist()], "S")
    return partial(_put_text, text), text.itemsize + 1


def _put_text(text: np.ndarray, buf, at: int, line: int):
    """Write text[r], NUL-padded bytes, at byte at + r * line of buf."""
    rows = text.view(np.uint8).reshape(text.size, text.itemsize)
    np.ndarray(rows.shape, np.uint8, buf, at, (line, 1))[...] = rows


def _put_ints(v: np.ndarray, groups: int, negative: bool, buf, at: int, line: int):
    """Write "%d" % x for each x of v as `groups` 3-digit groups, 4 bytes each."""
    if groups == 1 and not negative:  # each x is the index of its own text
        _put(buf, at, line, _INT_GROUP, v)
        return
    mag = np.abs(v) if negative else v
    sign = 1000 * (v < 0) if negative else 0
    for i in range(groups):
        scale = 1000 ** (groups - 1 - i)
        # blank above the leading group (the last group leads for 0 too), whole below it
        kind = sign if scale == 1 else np.where(mag >= scale, sign, 3000)
        if i:
            kind = np.where(mag >= 1000 * scale, 2000, kind)
        g = mag // scale % 1000 if i else mag // scale
        _put(buf, at + 4 * i, line, _INT_GROUP, g + kind)


def _put_floats(v: np.ndarray, buf, at: int, line: int):
    """Write "%.12g" % x for each x of v, in the 24 bytes from `at`.

    The fast path takes a normal x in (0, 9.5), clear of the rounding up to
    10: its decimal exponent is X = -j, j = -floor(log10 x) in [0, 308], and
    its 12 correctly rounded digits are rint(x 10^(11+j)). The path computes
    m = x 1e11 10^j with three roundings (10^j is correctly rounded), so m is
    within 3.5e-4 of x 10^(11+j), and takes mi = rint(m) unless
      - m lies within 1e-3 of a tie (|frac(m) - 0.5| <= 1e-3), or
      - m lies off (1e11, 1e12 - 0.5): log10 put j off by one, or the digits
        would round up to 1e12.
    Then mi holds the correctly rounded digits. Those guarded entries, and
    every x off the fast path (zeros, subnormals, negative, large or
    non-finite values), take their text from Python's "%.12g" % x; a
    non-finite one raises NonFiniteOutput instead.

    The bytes hold "0." and up to 3 zeros, or nothing; d0, ".", d1 .. d11 in
    3-digit groups, trailing zeros (and a bare point) dropped; "e-XX",
    "e-XXX" or nothing.
    """
    j, hi, lo, guard = _mantissas(v)
    if guard.size:
        values = v[guard].tolist()
        if not all(map(math.isfinite, values)):
            bad = next(x for x in values if not math.isfinite(x))
            raise NonFiniteOutput(f"a CSV value is not finite ({bad})")
    # the groups g0 g1 g2 g3 of the digits are made one at a time, g1 and g3
    # in place of hi and lo, and each index in one int32 array; a group
    # keeps its trailing zeros while a later group is nonzero. The pieces
    # are written left to right: each overwrites the pad of the one before.
    index = _LEAD_AT.take(j)
    g = hi // 1000
    index += g
    hi -= g * 1000
    later = lo > 0
    np.add(index, 1000, out=index, where=later | (hi > 0))
    _put(buf, at, line, _LEAD_GROUP, index)
    index[...] = hi
    np.add(index, 1000, out=index, where=later)
    _put(buf, at + 8, line, _GROUP, index)
    np.floor_divide(lo, 1000, out=hi)
    index[...] = hi
    lo -= hi * 1000
    np.add(index, 1000, out=index, where=lo > 0)
    _put(buf, at + 11, line, _GROUP, index)
    _put(buf, at + 14, line, _GROUP, lo)
    _put(buf, at + 17, line, _EXP, j)
    if guard.size:
        text = np.array([b"%.12g" % x for x in values], "S24")
        cells = np.ndarray((v.size, 24), np.uint8, buf, at, (line, 1))
        cells[guard] = text.view(np.uint8).reshape(guard.size, 24)


def _mantissas(v: np.ndarray):
    """(j, hi, lo, guard) of `_put_floats`: j as int16, the digits mi as
    hi, lo = divmod(mi, 10^6) in int32, and guard as row indices. The float
    scratch is reused in place, so a block holds few bytes an entry."""
    # an x off the fast path stands in as 1.0, whose m = 1e11 is guarded
    m = np.where((v >= _NORMAL_MIN) & (v < 9.5), v, 1.0)
    scratch = np.log10(m)
    np.floor(scratch, out=scratch)
    np.negative(scratch, out=scratch)
    j = scratch.astype(np.int16)
    m *= 1e11
    m *= _P10.take(j, mode="clip", out=scratch)  # "raise" would copy out
    np.subtract(m, _MID, out=scratch)
    np.abs(scratch, out=scratch)
    guard = scratch >= _HALF
    mi = np.rint(m, out=scratch)
    np.subtract(m, mi, out=m)
    np.abs(m, out=m)
    guard |= m >= 0.499
    # hi = floor(mi 1e-6 + 5e-7) exactly: the product's error, under 3e-10,
    # cannot carry it across an integer
    np.multiply(mi, 1e-6, out=m)
    m += 5e-7
    np.floor(m, out=m)
    hi = m.astype(np.int32)
    m *= 1e6
    mi -= m
    del m
    return j, hi, mi.astype(np.int32), np.flatnonzero(guard)


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


def _cmd_analyze(args, law) -> int:
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


def _cmd_ladder(args, law) -> int:
    base, r0, tilted = _centered_base(law)

    if args.oracle is not None:
        n = args.oracle
        table = descent_joint_table(base, n)
        mu = ladder_laws(base).mu_minus
        checkpoints = sorted({min(2**k, n) for k in range(0, 40) if 2**k <= n} | {n})
        partials = np.cumsum(table, axis=1)[:, checkpoints].T.ravel()  # checkpoint-major
        targets = np.tile(mu, len(checkpoints))
        ws = np.tile(np.arange(1, base.a + 1), len(checkpoints))
        columns = [np.repeat(checkpoints, base.a), ws, partials, targets, targets - partials]
        _emit_csv("n,w,partial_sum,target,gap", [columns])
        return 0

    if args.emit_depth < 0:
        raise InvalidInput(f"emit depth must be >= 0, got {args.emit_depth}")
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


def _cmd_exact(args, law) -> int:
    _emit_csv("n,y,probability", _exact_blocks(n_step_rows(law, args.start, args.n)))
    return 0


def _exact_blocks(rows):
    """Columns (n, y, P) of the nonzero entries of DP rows n = 0, 1, ..., y
    ascending, in blocks of _BLOCK entries (the last one may be shorter).
    Each row is copied straight into its block; n and y are int32, since a
    stored table (MEMORY_CAP_FLOATS) has fewer than 2^31 rows and columns."""
    size = 0
    for n, row in enumerate(rows):
        ys = np.flatnonzero(row)
        done = 0
        while done < ys.size:
            if size == 0:
                block = [np.empty(_BLOCK, np.int32), np.empty(_BLOCK, np.int32), np.empty(_BLOCK)]
            k = min(ys.size - done, _BLOCK - size)
            part = ys[done : done + k]
            block[0][size : size + k] = n
            block[1][size : size + k] = part
            row.take(part, mode="clip", out=block[2][size : size + k])  # "raise" would copy out
            size, done = size + k, done + k
            if size == _BLOCK:
                yield block
                size = 0
    if size:
        yield [c[:size] for c in block]


def _cmd_constants(args, law) -> int:
    core = None
    if args.dump_internals:
        # one build serves both the constant and the dump; deeper potentials
        # leave every entry the constant reads unchanged
        base, r0, tilted = _centered_base(law)
        core = centered_objects(base, window=max(args.x, args.y, 10))
        # made first on the whole window, the column serves the constant's [1, a] too
        col = core.excursion_column(args.y, core.x_window)
    if args.no_oracle:
        asym = asymptotic_law(law, args.x, args.y, core)
        payload = {
            "regime": asym.regime.value,
            "rho": asym.rho,
            "beta": asym.beta,
            "C": asym.C,
            "oracle_estimate": None,
            "rel_gap": None,
        }
    else:
        payload = constant_report(law, args.x, args.y, oracle_n=args.oracle_n, objects=core)
    if core is not None:
        payload["internals"] = {
            "tilted": tilted,
            "r0": r0,
            "nu": {str(x): float(core.nu[x - 1]) for x in range(1, base.a + 1)},
            "nu_convention": NU_CONVENTION,
            "kappa": core.kappa,
            "R_rows": {str(x): [float(v) for v in core.rows[x]] for x in core.x_window},
            "R_tilde_rows": {str(x): [float(v) for v in core.tilde_rows[x]] for x in core.x_window},
            "E_column": {str(x): col.values[x] for x in core.x_window},
            "E_tilde_column": {str(x): col.tilde[x] for x in core.x_window},
        }
    _emit_json(payload)
    return 0


def _cmd_compare(args, law) -> int:
    grid = [n for n in (2**k for k in range(4, 40)) if n <= args.n_max]
    if not grid:
        raise InvalidInput(f"horizon n_max must be >= 16, the first grid point, got {args.n_max}")
    asym = asymptotic_law(law, args.x, args.y)
    column = n_step_series(law, args.x, [args.y], grid[-1])[args.y]
    config = SimConfig(law, args.x, grid[-1], args.paths, args.seed)
    result = simulate(config, checkpoints=grid)
    estimates = [result.estimate(args.y, n) for n in grid]
    columns = [
        grid,
        column[grid],
        [predict(asym, n) for n in grid],
        [est.point for est in estimates],
        [est.stderr for est in estimates],
    ]
    _emit_csv("n,exact,predicted,mc,mc_stderr", [columns])
    return 0


def _cmd_simulate(args, law) -> int:
    config = SimConfig(law, args.start, args.n, args.paths, args.seed)
    result = simulate(config)
    terminal = {}
    for y in np.nonzero(result.terminal)[0].tolist():
        est = result.estimate(y)
        terminal[str(y)] = {"point": est.point, "stderr": est.stderr, "count": est.count}
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
                "fraction_reflected": reflected / config.paths,
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


# validate's own gates; DRIFTED_GAP_TOL shares their value, not their meaning
EIGEN_EXPANSION_TOL = 0.05
EXCURSION_PARTIAL_TOL = 0.05


def _cmd_validate(args, law) -> int:
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

    # one walk from 0: descent sums over rows 0..oracle_n, excursion over 0..10,000
    if args.oracle_n < 1:
        raise InvalidInput(f"horizon n_max must be >= 1, got {args.oracle_n}")
    stay, killed = stay_series(base, [0], max(args.oracle_n, 10_000))
    descent = killed[:, : args.oracle_n + 1]
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
        add("slope_convention_max_rel_err", table.max_rel_err, SLOPE_REL_TOL)
        # the core checks its own slope rows; a large error is reported here
        core = build_reflection_core(ladder, table)
        add("kernel_slope_oracle_rel_err", core.slope_rel_err, SLOPE_REL_TOL)
        add(
            "excursion_slope_oracle_rel_err",
            excursion_slope_oracle_error(ladder, table, args.y, core.x_window),
            SLOPE_REL_TOL,
        )
    except SlopeMismatch as exc:
        checks.append(
            {"name": "slope_convention", "value": str(exc), "threshold": SLOPE_REL_TOL, "pass": False}
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
        EIGEN_EXPANSION_TOL,
    )

    # the tail of the excursion series decays like n^(-3/2), so the partial
    # sum at N sits ~ c/sqrt(N) below the closed form
    exc_gap = _exact_gap(e_value(ladder, 0, 0), stay[0][: 10_001])
    add("excursion_partial_below_closed", -exc_gap, 1e-12)
    add("excursion_partial_gap", exc_gap, EXCURSION_PARTIAL_TOL)

    try:
        rep = constant_report(law, 0, args.y, oracle_n=args.constant_n, objects=core)
        add("constant_vs_dp_rel_gap", rep["rel_gap"], DRIFTED_GAP_TOL if tilted else CENTERED_GAP_TOL)
    except InvalidInput:  # a bad --constant-n is an input error, not a failed check
        raise
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


@cache  # built on the first `main` call and kept: parsing leaves it unchanged
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
        law = load_law(args.law)  # parsed once, before any command runs
    except (OSError, ReflectWalkError) as exc:
        sys.stderr.write(f"law file error ({args.law}): {exc}\n")
        return 1
    try:
        code = args.fn(args, law)
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
