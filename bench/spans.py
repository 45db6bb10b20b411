"""Span tracing for the benchmark's traced pass, installed from outside the program.

`Tracer.install()` replaces every module binding of the functions in SPANNED
and COUNTED with wrappers (modules import names directly, so `cli` and
`asymptotics` each hold their own `n_step_series`), and `uninstall()` puts the
originals back. A span records layer, function, start, end, parent span and
thread id; spans stay in memory until the run ends. A span's self time is its
duration minus the time its same-thread children cover. Spans opened in a pool
thread take the innermost open main-thread span as parent, but their time is
not subtracted from it (it runs in parallel).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

# layer -> public functions that get a span
SPANNED = {
    "cli": ("main",),
    "chain": ("n_step_table", "excursion_table", "reflection_time_table", "n_step_series", "excursion_series",
              "verify_first_reflection_identity", "verify_ladder_factorizations"),
    "fluctuation": ("stay_nonneg_table", "descent_joint_table", "stay_series", "ascent_joint_table"),
    "asymptotics": ("asymptotic_law", "centered_constant", "drifted_constant", "centered_objects",
                    "drifted_objects", "oracle_constant_centered", "oracle_constant_drifted", "constant_report",
                    "tilting_identity_check"),
    "wiener_hopf": ("factorize_at", "ladder_laws", "slopes", "roots_z_pm"),
    "reflection": ("build_reflection_core", "r_rows", "r_core", "r_tilde_rows", "stationary_nu", "doeblin_kappa",
                   "doeblin_gap", "kernel_slope_oracle_error", "excursion_slope_oracle_error", "e_column",
                   "dominant_eigenvalue", "resolvent_apply"),
    "laws": ("load_law", "check_hypotheses", "minimize_mgf", "tilt", "moments"),
    "montecarlo": ("simulate", "estimate_pxy", "estimate_nu"),
    "philox": ("uniforms",),
}
# Called thousands of times per pass: counted only, their time stays in the caller.
COUNTED = {"reflection": ("r_row_at_s",)}


@dataclass
class Span:
    layer: str
    function: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    thread: int
    child_time: float = 0.0  # covered by same-thread children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)  # "layer.function" -> call count
    path_steps: int = 0  # sum of paths * horizon over SimConfigs passed to simulate
    draws: int = 0  # Philox uniforms produced
    table_floats: int = 0  # floats in the rows n_step_table returned
    sim_configs: list = field(default_factory=list)  # SimConfigs passed to simulate
    largest_draw: tuple | None = None  # uniforms arguments of the call with the most draws
    _patched: list = field(default_factory=list)
    _stacks: dict = field(default_factory=dict)  # thread id -> open span indices
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _observe(self, layer, name, args, result):
        if (layer, name) == ("montecarlo", "simulate"):
            self.path_steps += args[0].paths * args[0].horizon
            self.sim_configs.append(args[0])
        elif (layer, name) == ("philox", "uniforms"):
            draws = len(args[1]) * args[3]
            with self._lock:
                self.draws += draws
                if self.largest_draw is None or draws > len(self.largest_draw[1]) * self.largest_draw[3]:
                    self.largest_draw = args
        elif (layer, name) == ("chain", "n_step_table"):
            self.table_floats += sum(row.size for row in result.rows)

    def _span_wrapper(self, layer, name, fn):
        main_id = threading.main_thread().ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
                if stack:
                    parent = stack[-1]
                else:
                    main_stack = self._stacks.get(main_id) or [None]
                    parent = main_stack[-1]
                index = len(self.spans)
                span = Span(layer, name, 0.0, 0.0, parent, tid)
                self.spans.append(span)
                stack.append(index)
                key = f"{layer}.{name}"
                self.calls[key] = self.calls.get(key, 0) + 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                with self._lock:
                    stack.pop()
                    if parent is not None and self.spans[parent].thread == tid:
                        self.spans[parent].child_time += span.duration
            self._observe(layer, name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, layer, name, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the listed functions in every reflectwalk module that binds them."""
        modules = [m for n, m in list(sys.modules.items()) if n == "reflectwalk" or n.startswith("reflectwalk.")]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for layer, names in table.items():
                home = sys.modules[f"reflectwalk.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    wrapped = make(layer, name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapped)
                                self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_time(self, layer: str | None = None, *functions: str) -> float:
        """Summed self time of main-thread spans of `layer` (all layers if None)."""
        main_id = threading.main_thread().ident
        return sum(
            s.self_time for s in self.spans
            if s.thread == main_id and layer in (None, s.layer) and (not functions or s.function in functions)
        )

    def busy_time(self, layer: str, function: str) -> float:
        """Summed span durations over all threads (pool threads included)."""
        return sum(s.duration for s in self.spans if s.layer == layer and s.function == function)
