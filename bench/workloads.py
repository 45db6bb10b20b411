"""Workloads of the reflectwalk benchmark: law files, CLI commands and output checks.

Every input has a fixed cost. The DP-heavy workloads always use the same law
masses (drawn from DP_LAW_SEED); the workload seed only picks a target state
Y in {0, 1, 2} and a start state X in {0..3}, which leave the cost unchanged.
`closed_form` draws its masses from the workload seed at fixed shapes, because
its cost depends only on the support width (a, b). Monte Carlo seeds come
from (seed, pass), so `montecarlo._sim_cache` never answers a repeated config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

DP_LAW_SEED = 20120629
WORKLOADS = ("oracle_dp", "mc_sim", "exact_emit", "closed_form")

# name -> (a, b); centered laws follow tests/conftest.py::random_laws (Dirichlet
# masses plus a 0.02 floor, tilted to zero drift). d8 is that law tilted by r = 1.15.
# a = b = 20 is the widest centered law: about 5% of a = b = 30 draws fail the
# 1e-10 factorization residual of `ladder` (a known envelope limit).
LAW_SHAPES = {"c8": (8, 8), "c12": (12, 12), "c20": (20, 20), "a3_12": (3, 12), "a12_3": (12, 3), "d8": (8, 12)}
D8_TILT = 1.15
CANONICAL_LAWS = {
    "lawA": {"-1": 1 / 3, "0": 1 / 3, "1": 1 / 3},  # centered
    "lawB": {"-1": 0.2, "0": 0.3, "1": 0.5},  # drift +0.3
}


def draw_laws(rng_seed: int) -> dict:
    """Mass maps {str(k): p} for the LAW_SHAPES laws, in a fixed draw order."""
    from reflectwalk import law_from_masses, minimize_mgf, tilt

    rng = np.random.default_rng(rng_seed)
    out = {}
    for name, (a, b) in LAW_SHAPES.items():
        masses = rng.dirichlet(np.ones(a + b + 1)) + 0.02
        masses /= masses.sum()
        law = law_from_masses({k - a: float(m) for k, m in enumerate(masses)})
        law = tilt(law, minimize_mgf(law).r0)
        if name == "d8":
            law = tilt(law, D8_TILT)
        out[name] = {str(k): v for k, v in law.as_dict().items()}
    return out


def write_laws(directory, seed: int) -> dict:
    """Write every law file the workloads use; returns name -> path."""
    laws = dict(CANONICAL_LAWS)
    laws.update({f"fixed_{k}": v for k, v in draw_laws(DP_LAW_SEED).items()})
    laws.update({f"seeded_{k}": v for k, v in draw_laws(seed).items()})
    paths = {}
    for name, masses in laws.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"masses": masses}, sort_keys=True))
        paths[name] = str(path)
    return paths


@dataclass(frozen=True)
class Command:
    """One CLI call. `name` is stable across passes; `argv` may carry a pass-dependent seed."""

    name: str
    argv: tuple
    check: str  # key of CHECKS
    deterministic: bool
    expect: dict  # parameters the check needs


def mc_seed(seed: int, pass_index: int) -> int:
    return seed * 100_000 + pass_index + 1


# Input sizes. "small" keeps every command and check but shrinks horizons and
# path counts so the self-test runs in seconds.
SIZES = {
    "full": dict(oracle_n=10_000, c8_oracle_n=3000, ladder_oracle=10_000, compare_n=256, compare_paths=20_000,
                 d8_n=128, d8_paths=32_768, lawB_n=50, lawB_paths=131_072, exact_lawA_n=800, exact_c8_n=240,
                 closed_form_laws=("c20", "c12", "a3_12", "a12_3", "d8"), ladder_laws=("c20", "d8", "lawB")),
    "small": dict(oracle_n=400, c8_oracle_n=400, ladder_oracle=300, compare_n=32, compare_paths=2000,
                  d8_n=16, d8_paths=2000, lawB_n=10, lawB_paths=4000, exact_lawA_n=40, exact_c8_n=10,
                  closed_form_laws=("a3_12", "d8"), ladder_laws=("d8", "lawB")),
}


def commands(workload: str, seed: int, pass_index: int, laws: dict, size: str = "full") -> list:
    """The commands of one pass, in canonical order (the caller rotates them)."""
    pick = random.Random(seed)
    y, x = pick.randrange(3), pick.randrange(4)
    z = SIZES[size]
    ms = str(mc_seed(seed, pass_index))

    def cmd(name, check, *argv, deterministic=True, **expect):
        return Command(name, tuple(str(v) for v in argv), check, deterministic, expect)

    if workload == "oracle_dp":
        return [
            cmd("validate_lawA", "validate", "validate", "--law", laws["lawA"], "--oracle-n", z["oracle_n"]),
            cmd("validate_lawB", "validate", "validate", "--law", laws["lawB"], "--oracle-n", z["oracle_n"]),
            cmd("constants_c8", "constants", "constants", "--law", laws["fixed_c8"], "--y", y,
                "--oracle-n", z["c8_oracle_n"]),
            cmd("ladder_oracle_lawA", "ladder_oracle", "ladder", "--law", laws["lawA"], "--oracle", z["ladder_oracle"]),
        ]
    if workload == "mc_sim":
        return [
            cmd("compare_lawA", "compare", "compare", "--law", laws["lawA"], "--y", y, "--n-max", z["compare_n"],
                "--paths", z["compare_paths"], "--seed", ms, deterministic=False),
            cmd("simulate_d8", "simulate", "simulate", "--law", laws["fixed_d8"], "--start", 0, "--n", z["d8_n"],
                "--paths", z["d8_paths"], "--seed", ms, deterministic=False, paths=z["d8_paths"]),
            cmd("simulate_lawB", "simulate", "simulate", "--law", laws["lawB"], "--start", 0, "--n", z["lawB_n"],
                "--paths", z["lawB_paths"], "--seed", ms, deterministic=False, paths=z["lawB_paths"]),
        ]
    if workload == "exact_emit":
        return [
            cmd("exact_lawA", "exact", "exact", "--law", laws["lawA"], "--start", x, "--n", z["exact_lawA_n"],
                n=z["exact_lawA_n"]),
            cmd("exact_c8", "exact", "exact", "--law", laws["fixed_c8"], "--start", 3, "--n", z["exact_c8_n"],
                n=z["exact_c8_n"]),
        ]
    if workload == "closed_form":
        out = []
        for law in z["closed_form_laws"]:
            out.append(cmd(f"constants_{law}", "constants", "constants", "--law", laws[f"seeded_{law}"],
                           "--x", x, "--y", y, "--no-oracle", "--dump-internals", internals=True))
        for law in z["ladder_laws"]:
            out.append(cmd(f"ladder_{law}", "ladder", "ladder", "--law", laws.get(f"seeded_{law}", laws.get(law))))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- output checks
# Each check takes (stdout text, Command.expect) and returns None when the
# output is correct, else a one-line reason.


def _csv_rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows:
        raise ValueError("no CSV rows")
    return rows


def check_validate(text, expect):
    return None if json.loads(text).get("passed") is True else '"passed" is not true'


def check_constants(text, expect):
    doc = json.loads(text)
    c = doc.get("C")
    if not (isinstance(c, float) and math.isfinite(c) and c > 0):
        return f"C = {c!r} is not finite and positive"
    if expect.get("internals"):
        total = math.fsum(doc["internals"]["nu"].values())
        if abs(total - 1.0) > 1e-12:
            return f"nu sums to {total!r}"
    return None


def check_ladder(text, expect):
    doc = json.loads(text)
    if not doc["factorization_residual"] < 1e-10:
        return f"factorization residual {doc['factorization_residual']!r}"
    if not doc["slopes"]["max_rel_err"] < 1e-3:
        return f"slope max_rel_err {doc['slopes']['max_rel_err']!r}"
    return None


def check_ladder_oracle(text, expect):
    for n, w, partial, target, _ in _csv_rows(text, "n,w,partial_sum,target,gap"):
        if not float(partial) <= float(target) + 1e-12:
            return f"partial sum {partial} above target {target} at n={n}, w={w}"
    return None


def check_exact(text, expect):
    totals: dict = {}
    for n, _, p in _csv_rows(text, "n,y,probability"):
        totals.setdefault(int(n), []).append(float(p))
    if sorted(totals) != list(range(expect["n"] + 1)):
        return "rows do not cover n = 0..N"
    for n, probs in totals.items():
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            return f"probabilities at n={n} sum to {total!r}"
    return None


def check_compare(text, expect):
    for n, exact, _, mc, stderr in _csv_rows(text, "n,exact,predicted,mc,mc_stderr"):
        if not abs(float(mc) - float(exact)) <= 5 * float(stderr):
            return f"mc {mc} is more than 5 stderr ({stderr}) from exact {exact} at n={n}"
    return None


def check_simulate(text, expect):
    total = sum(v["count"] for v in json.loads(text)["terminal"].values())
    return None if total == expect["paths"] else f"terminal counts sum to {total}, not {expect['paths']}"


CHECKS = {
    "validate": check_validate,
    "constants": check_constants,
    "ladder": check_ladder,
    "ladder_oracle": check_ladder_oracle,
    "exact": check_exact,
    "compare": check_compare,
    "simulate": check_simulate,
}


def check_output(command: Command, text: str):
    """None if `text` is a correct stdout for `command`, else the reason."""
    try:
        return CHECKS[command.check](text, command.expect)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
