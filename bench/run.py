"""Benchmark of the reflectwalk CLI: end-to-end times, set-up, memory and per-layer spans.

    python3 bench/run.py --workload oracle_dp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One process runs the workload's commands in-process through
`reflectwalk.cli.main(argv)`, in passes with the command order rotated from
pass to pass. Set-up time and peak memory are measured on their own, in fresh
child interpreters. With `--trace 1` a separate run wraps each module's public
functions and reports per-layer numbers. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from spans import SPANNED, Tracer
from workloads import SIZES, WORKLOADS, check_output, commands, write_laws

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 15  # fresh `import reflectwalk.cli` children per run
MIN_PASSES = 3  # timed passes, even when --seconds is too short for them
UNTRACED_PASSES = 3  # untimed-baseline passes of a --trace 1 run
IMPORTTIME_PROBES = 3

# Linux counts the spawning process's resident set into a child's ru_maxrss
# (exec records the high-water mark of the address space it replaces), so a
# child spawned by this process, after the warm-up, would report at least this
# process's RSS. A small fresh interpreter spawns the measured child instead.
# argv: stdout file, then the child's command; prints "exit_code maxrss_kb".
RSS_LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    child = subprocess.Popen(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.emit_s": "s", "cli.emit_rows_per_s": "rows/s", "cli.emit_peak_alloc_mb": "MB", "cli.stdout_bytes": "B",
    "chain.n_step_table_s": "s", "chain.table_floats": "count", "chain.n_step_series_s": "s",
    "chain.excursion_series_s": "s", "chain.identity_checks_s": "s",
    "fluctuation.descent_joint_table_s": "s", "fluctuation.stay_series_s": "s",
    "asymptotics.oracle_fit_s": "s", "asymptotics.tilting_check_s": "s", "asymptotics.asymptotic_law_s": "s",
    "wiener_hopf.factorize_at_s": "s", "wiener_hopf.factorize_calls": "count", "wiener_hopf.ladder_laws_s": "s",
    "wiener_hopf.slopes_s": "s",
    "reflection.build_core_s": "s", "reflection.kernel_slope_oracle_s": "s", "reflection.r_row_at_s_calls": "count",
    "reflection.e_column_s": "s",
    "laws.minimize_mgf_s": "s",
    "montecarlo.simulate_s": "s", "montecarlo.path_steps": "count", "montecarlo.path_steps_per_s": "1/s",
    "montecarlo.peak_alloc_mb": "MB",
    "philox.uniforms_s": "s", "philox.draws_per_s": "1/s", "philox.peak_alloc_mb": "MB",
    "import.numpy_s": "s", "import.reflectwalk_s": "s",
    "trace.coverage": "ratio", "trace.overhead_ratio": "ratio",
}


class Run:
    """State of one benchmark run: inputs, scratch files, operation tally."""

    def __init__(self, workload, seed, size, workdir):
        self.workdir = workdir
        laws = write_laws(workdir, seed)
        self.commands_for = lambda pass_index: commands(workload, seed, pass_index, laws, size)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failures = []  # (pass label, command name, reason)
        self.reference = {}  # command name -> sha256 of a stdout that passed its check
        self.stdout_bytes = 0
        self.stdout_sizes = {}  # command name -> bytes of its latest stdout
        self.stdout_lines = 0

    # ------------------------------------------------------------ operations

    def verify(self, label, cmd, code, out_path):
        """Check one command's exit code and stdout; deterministic commands must repeat bytes."""
        self.attempted += 1
        data = out_path.read_bytes()
        self.stdout_bytes += len(data)
        self.stdout_sizes[cmd.name] = len(data)
        self.stdout_lines += data.count(b"\n")
        digest = hashlib.sha256(data).digest()
        if code != 0:
            reason = f"exit code {code}"
        elif cmd.deterministic and cmd.name in self.reference:
            reason = None if digest == self.reference[cmd.name] else "stdout differs from the warm-up pass"
        else:
            reason = check_output(cmd, data.decode())
            if reason is None and cmd.deterministic:
                self.reference[cmd.name] = digest
        if reason is not None:
            self.failures.append((label, cmd.name, reason))

    def execute(self, label, cmd):
        """Run one command in-process, stdout to a file; returns (wall s, cpu s) or None on failure."""
        import reflectwalk.cli as cli

        out_path = self.workdir / f"{cmd.name}.out"
        gc.collect()
        with open(out_path, "w") as out, open(self.workdir / f"{cmd.name}.err", "w") as err:
            saved = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            try:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                code = cli.main(list(cmd.argv))
                out.flush()
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            except Exception as exc:  # a crash is a failed operation, not a failed run
                code, wall, cpu = f"{type(exc).__name__}: {exc}", None, None
            finally:
                sys.stdout, sys.stderr = saved
        self.verify(label, cmd, code, out_path)
        return None if wall is None else (wall, cpu)

    def run_pass(self, pass_index):
        """One pass over the workload's commands, rotated by pass index; returns name -> (wall, cpu)."""
        cmds = self.commands_for(pass_index)
        k = pass_index % len(cmds)
        times = {}
        for cmd in cmds[k:] + cmds[:k]:
            measured = self.execute(f"pass {pass_index}", cmd)
            if measured is not None:
                times[cmd.name] = measured
        return times

    # ------------------------------------------------------------ child processes

    def _spawn(self, argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        return subprocess.Popen([sys.executable, *argv], env=self.env, cwd=ROOT, stdout=stdout, stderr=stderr)

    def setup_probe(self):
        """Wall time of a fresh interpreter that imports the CLI, as every CLI call pays."""
        start = time.perf_counter()
        code = self._spawn(["-c", "import reflectwalk.cli"]).wait()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        return elapsed

    def warm_up(self):
        """Untimed pass 0 in-process, while one fresh `python -m reflectwalk.cli` child per
        command runs alongside; returns the largest child ru_maxrss in MB.

        Nothing is timed here, so the children may share the CPUs: each child's
        own peak RSS does not depend on it. The in-process outputs are checked
        first and become the byte references the children must repeat.
        """
        children = []
        for cmd in self.commands_for(0):
            out_path = self.workdir / f"{cmd.name}.child.out"
            argv = ["-c", RSS_LAUNCHER, str(out_path), sys.executable, "-m", "reflectwalk.cli", *cmd.argv]
            children.append((cmd, out_path, self._spawn(argv, stdout=subprocess.PIPE)))
        self.run_pass(0)
        peak = 0.0
        for cmd, out_path, proc in children:
            report, _ = proc.communicate()
            code, maxrss_kb = (int(v) for v in report.split())
            self.verify("rss child", cmd, code, out_path)
            peak = max(peak, maxrss_kb / 1024.0)
        return peak

    def import_times(self):
        """Median (numpy, reflectwalk-without-numpy) import seconds from `-X importtime`."""
        numpy_s, own_s = [], []
        for _ in range(IMPORTTIME_PROBES):
            proc = self._spawn(["-X", "importtime", "-c", "import reflectwalk.cli"], stderr=subprocess.PIPE)
            _, err = proc.communicate()
            cumulative = {}
            for line in err.decode().splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            numpy_s.append(cumulative["numpy"])
            own_s.append(cumulative["reflectwalk.cli"] - cumulative["numpy"])
        return statistics.median(numpy_s), statistics.median(own_s)


def log(line):
    print(line, flush=True)


def log_pass(label, times):
    log(f"{label}: " + " ".join(f"{n}={w:.4f}s/{c:.4f}cpu" for n, (w, c) in times.items()))


def sum_of_medians(passes, index):
    """For each command, its median over the passes; then the sum of those medians."""
    names = {name for times in passes for name in times}
    return math.fsum(statistics.median(t[name][index] for t in passes if name in t) for name in names)


# ---------------------------------------------------------------- run facts


def _steal_seconds():
    """Host steal time so far, from the aggregate cpu line of /proc/stat (0 where absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout from .git, if the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def facts(args):
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    threads = os.environ.get("REFLECTWALK_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "reflectwalk_threads": threads if threads is not None else f"unset (cpu_count = {os.cpu_count()})",
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- the two kinds of run


def measure_end_to_end(run, deadline):
    """Warm-up with peak-RSS children, then timed passes with set-up probes spread between them."""
    rss = run.warm_up()
    probes, passes = [run.setup_probe()], []
    while True:
        started = time.perf_counter()
        passes.append(run.run_pass(len(passes) + 1))
        pass_estimate = time.perf_counter() - started
        log_pass(f"pass {len(passes)}", passes[-1])
        left = SETUP_PROBES - len(probes)
        fit = int((deadline - time.perf_counter() - left * statistics.median(probes)) // pass_estimate)
        more = max(fit, MIN_PASSES - len(passes))
        for _ in range(left if more <= 0 else math.ceil(left / (more + 1))):
            probes.append(run.setup_probe())
        if more <= 0:
            break
    log("setup probes: " + " ".join(f"{t:.4f}" for t in probes))
    log(f"samples: {len(passes)} timed passes per command, {len(probes)} set-up probes, {len(run.commands_for(0))} commands")
    if not any(passes):
        return {}
    return {
        "wall_s": sum_of_medians(passes, 0),
        "cpu_s": sum_of_medians(passes, 1),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": rss,
    }


def _peak_alloc_mb(fn, *args):
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def measure_layers(run):
    """Untraced passes for the baseline, one traced pass, then untimed allocation probes."""
    import reflectwalk.montecarlo as montecarlo
    import reflectwalk.philox as philox

    run.run_pass(0)
    untraced = [run.run_pass(i) for i in range(1, UNTRACED_PASSES + 1)]
    for i, times in enumerate(untraced, start=1):
        log_pass(f"untraced pass {i}", times)
    baseline = sum_of_medians(untraced, 0)

    tracer = Tracer()
    run.stdout_bytes = run.stdout_lines = 0
    tracer.install()
    try:
        traced = run.run_pass(UNTRACED_PASSES + 1)
    finally:
        tracer.uninstall()
    stdout_bytes, stdout_lines = run.stdout_bytes, run.stdout_lines
    pass_time = math.fsum(w for w, _ in traced.values())
    log_pass("traced pass", traced)

    # One untimed call under tracemalloc: the command with the largest stdout, at a
    # fresh pass index so no Monte Carlo config is answered from montecarlo._sim_cache.
    emitter = max(run.commands_for(UNTRACED_PASSES + 2), key=lambda c: run.stdout_sizes.get(c.name, 0))
    emit_peak = _peak_alloc_mb(run.execute, "tracemalloc", emitter)
    sim_peak = max((_peak_alloc_mb(montecarlo.simulate, c) for c in tracer.sim_configs), default=0.0)
    draw_peak = _peak_alloc_mb(philox.uniforms, *tracer.largest_draw) if tracer.largest_draw else 0.0
    numpy_s, own_s = run.import_times()

    t = tracer
    emit_s = t.self_time("cli", "main")
    simulate_s = t.busy_time("montecarlo", "simulate")
    uniforms_s = t.busy_time("philox", "uniforms")
    ratio = lambda num, den: num / den if den > 0 else 0.0
    metrics = {
        "cli.emit_s": emit_s,
        "cli.emit_rows_per_s": ratio(stdout_lines, emit_s),
        "cli.emit_peak_alloc_mb": emit_peak,
        "cli.stdout_bytes": stdout_bytes,
        "chain.n_step_table_s": t.self_time("chain", "n_step_table"),
        "chain.table_floats": t.table_floats,
        "chain.n_step_series_s": t.self_time("chain", "n_step_series"),
        "chain.excursion_series_s": t.self_time("chain", "excursion_series"),
        "chain.identity_checks_s": t.self_time(
            "chain", "verify_first_reflection_identity", "verify_ladder_factorizations"),
        "fluctuation.descent_joint_table_s": t.self_time("fluctuation", "descent_joint_table"),
        "fluctuation.stay_series_s": t.self_time("fluctuation", "stay_series"),
        "asymptotics.oracle_fit_s": t.self_time("asymptotics", "oracle_constant_centered", "oracle_constant_drifted"),
        "asymptotics.tilting_check_s": t.self_time("asymptotics", "tilting_identity_check"),
        "asymptotics.asymptotic_law_s": t.self_time(
            "asymptotics", "asymptotic_law", "centered_constant", "drifted_constant", "centered_objects",
            "drifted_objects"),
        "wiener_hopf.factorize_at_s": t.self_time("wiener_hopf", "factorize_at"),
        "wiener_hopf.factorize_calls": t.calls.get("wiener_hopf.factorize_at", 0),
        "wiener_hopf.ladder_laws_s": t.self_time("wiener_hopf", "ladder_laws"),
        "wiener_hopf.slopes_s": t.self_time("wiener_hopf", "slopes"),
        "reflection.build_core_s": t.self_time(
            "reflection", "build_reflection_core", "r_rows", "r_core", "r_tilde_rows", "stationary_nu",
            "doeblin_kappa"),
        "reflection.kernel_slope_oracle_s": t.self_time("reflection", "kernel_slope_oracle_error"),
        "reflection.r_row_at_s_calls": t.calls.get("reflection.r_row_at_s", 0),
        "reflection.e_column_s": t.self_time("reflection", "e_column", "excursion_slope_oracle_error"),
        "laws.minimize_mgf_s": t.self_time("laws", "minimize_mgf"),
        "montecarlo.simulate_s": simulate_s,
        "montecarlo.path_steps": t.path_steps,
        "montecarlo.path_steps_per_s": ratio(t.path_steps, simulate_s),
        "montecarlo.peak_alloc_mb": sim_peak,
        "philox.uniforms_s": uniforms_s,
        "philox.draws_per_s": ratio(t.draws, uniforms_s),
        "philox.peak_alloc_mb": draw_peak,
        "import.numpy_s": numpy_s,
        "import.reflectwalk_s": own_s,
        "trace.coverage": ratio(t.self_time(), pass_time),
        "trace.overhead_ratio": ratio(pass_time, baseline),
    }
    log("layer self times: " + " ".join(f"{layer}={t.self_time(layer):.4f}s" for layer in SPANNED))
    log(f"spans: {len(t.spans)}, calls: " + json.dumps(t.calls, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the whole run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="'small' is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "reflectwalk" / "cli.py").is_file():
        sys.stderr.write(f"no reflectwalk sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import reflectwalk.cli  # noqa: F401  (fail here, before any output, if the package is broken)

    started = time.perf_counter()
    deadline = started + args.seconds
    steal0, load0 = _steal_seconds(), os.getloadavg()
    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run_facts = facts(args)
        run = Run(args.workload, args.seed, args.size, workdir)
        log("facts: " + json.dumps(run_facts, sort_keys=True))
        if args.trace:
            values, units = measure_layers(run), PER_LAYER
        else:
            values, units = measure_end_to_end(run, deadline), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log(f"noise: steal_s={_steal_seconds() - steal0:.3f} load_start={load0[0]:.2f} "
        f"load_end={os.getloadavg()[0]:.2f} run_s={time.perf_counter() - started:.2f}")
    for label, name, reason in run.failures:
        log(f"FAILED {label} {name}: {reason}")
    log(f"operations: {run.attempted} attempted, {len(run.failures)} failed")
    for name in units:
        log(f"{name} = {values.get(name, float('nan'))} {units[name]}")
    correct = not run.failures and set(values) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
