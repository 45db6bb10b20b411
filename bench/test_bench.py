"""Self-test of the benchmark at its smallest size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        assert any(re.fullmatch(rf"{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}", line) for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_units_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


def _set_csv_field(text, column, value_of_row):
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    fields[header.index(column)] = value_of_row(dict(zip(header, fields)))
    return "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"


def _bump_terminal_count(text):
    doc = json.loads(text)
    next(iter(doc["terminal"].values()))["count"] += 1
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


CORRUPT = {
    "validate": lambda t: t.replace('"passed": true', '"passed": false'),
    "constants": lambda t: t.replace('"C": ', '"C": -', 1),
    "ladder": lambda t: re.sub(r'"factorization_residual": [^,\n]+', '"factorization_residual": 0.5', t),
    "ladder_oracle": lambda t: _set_csv_field(t, "partial_sum", lambda r: repr(float(r["target"]) + 1e-6)),
    "exact": lambda t: _set_csv_field(t, "probability", lambda r: "0.5"),
    "compare": lambda t: _set_csv_field(t, "mc", lambda r: repr(float(r["exact"]) + 0.01 + 10 * float(r["mc_stderr"]))),
    "simulate": _bump_terminal_count,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_stdout_fails_its_check(workload, tmp_path):
    bench_run = run.Run(workload, 3, "small", tmp_path)
    for cmd in bench_run.commands_for(1):
        assert bench_run.execute("test", cmd) is not None
        assert not bench_run.failures, bench_run.failures
        text = (tmp_path / f"{cmd.name}.out").read_text()
        corrupted = CORRUPT[cmd.check](text)
        assert corrupted != text
        assert workloads.check_output(cmd, corrupted) is not None, cmd.name


def test_changed_bytes_fail_a_deterministic_command(tmp_path):
    bench_run = run.Run("closed_form", 3, "small", tmp_path)
    cmd = bench_run.commands_for(1)[0]
    assert cmd.deterministic
    bench_run.execute("warm-up", cmd)
    out = tmp_path / f"{cmd.name}.out"
    out.write_text(out.read_text().replace("0", "1", 1))
    bench_run.verify("pass 1", cmd, 0, out)
    assert bench_run.failures == [("pass 1", cmd.name, "stdout differs from the warm-up pass")]


def test_consecutive_mc_passes_use_different_seeds(tmp_path):
    laws = workloads.write_laws(tmp_path, 3)

    def seeds(pass_index):
        return [cmd.argv[cmd.argv.index("--seed") + 1] for cmd in workloads.commands("mc_sim", 3, pass_index, laws)]

    first, second = seeds(1), seeds(2)
    assert len(first) == 3
    assert all(a != b for a, b in zip(first, second))

