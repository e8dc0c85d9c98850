"""Spans around the calls into each subdiff module, recorded from outside.

Each wrapped name is patched where its caller looks it up: a method on
its class, or a function in the global namespace of the calling module.
Nothing inside the package changes.  A span's self time is its duration
minus the durations of its direct child spans, so the self times of all
spans under an entry call add up to that call's wall time.

Calls made hundreds of thousands of times per solve (weights, expansion
coefficients, frees) are folded into per-name totals; the others are
also kept as individual spans, which are written out after the solve.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from pathlib import Path

from workloads import CLI, FAST, LONG, SLOW, WORKLOADS

ALL = WORKLOADS

# (span name, module the caller looks it up in, owning class or None,
#  attribute, keep individual spans, workloads that must reach it)
TARGETS = [
    ("frac_weights.offdiag", "subdiff.frac_weights", "WeightEngine", "offdiag", False, ALL),
    ("frac_weights.beta_offdiag", "subdiff.frac_weights", None, "beta_offdiag", False, ALL),
    ("taylor_expansion.phi_coeffs", "subdiff.history_engine", None, "phi_coeffs", False, FAST),
    ("taylor_expansion.psi_coeffs", "subdiff.history_engine", None, "psi_coeffs", False, FAST),
    ("clustering.minimal_cover", "subdiff.clustering", "ClusterTree", "minimal_cover", True, FAST),
    ("history_engine.history_sum", "subdiff.history_engine", "HistoryEngine", "history_sum",
     True, FAST),
    ("history_engine.commit_step", "subdiff.history_engine", "HistoryEngine", "commit_step",
     True, FAST),
    ("history_engine.free_cluster", "subdiff.history_engine", "HistoryEngine", "free_cluster",
     False, FAST),
    ("spatial_fem.solve", "subdiff.spatial_fem", "EllipticSolver", "solve", True, ALL),
    ("spatial_fem.load_average", "subdiff.dg_stepper", None, "load_average", True, ALL),
    ("reference_solution.u11", "subdiff.cli", None, "u11", True, (CLI,)),
    ("cli.sink_write", "subdiff.history_engine", "SolutionSink", "write", True, (CLI,)),
    ("cli.sink_close", "subdiff.history_engine", "SolutionSink", "close", True, (CLI,)),
    ("dg_stepper.fast_run", "subdiff.cli", None, "fast_run", True, (CLI,)),
]
# Spans made by install() itself or around the benchmark's own entry call.
SCHEDULE, STEP = "history_engine.run_schedule", "dg_stepper.step"
ENTRY = {CLI: "cli.main", SLOW: "dg_stepper.slow_run", LONG: "dg_stepper.fast_run"}


class Tracer:
    """Span stack plus per-name totals: calls, total, self and least self time."""

    def __init__(self, solve_id: str):
        self.solve_id = solve_id
        # every name is listed, so a layer a workload never reaches reads 0
        names = [t[0] for t in TARGETS] + [SCHEDULE, STEP, *ENTRY.values()]
        self.stats: dict[str, list] = {n: [0, 0.0, 0.0, math.inf] for n in names}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.engine = None  # the HistoryEngine of the traced solve, if any
        self._stack: list[list] = []  # [span id or None, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, keep: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, math.inf])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = None
            if keep:
                sid = self._next_id
                self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                if own < stats[3]:
                    stats[3] = own
                if keep:
                    parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                    spans.append((sid, parent, name, start, end))

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every target; raise if one no longer exists under its name."""
        for name, module, cls, attr, keep, _ in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                raise LookupError(f"traced name {module}.{cls + '.' if cls else ''}{attr} "
                                  "no longer exists")
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr], keep))

        engine_cls = importlib.import_module("subdiff.history_engine").HistoryEngine
        run_schedule = engine_cls.run_schedule

        def schedule(engine, step_callback):
            # the stepper's per-step callback is dg_stepper code run by the engine
            self.engine = engine
            return run_schedule(engine, self.wrap(STEP, step_callback, True))

        self._patch(engine_cls, "run_schedule", self.wrap(SCHEDULE, schedule, True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def missing(self, workload: str) -> list[str]:
        """Wrapped names this workload should reach but never called."""
        expected = [t[0] for t in TARGETS if workload in t[5]]
        if workload in FAST:
            expected += [SCHEDULE, STEP]
        return [n for n in expected if self.stats[n][0] == 0]

    def summary(self) -> dict:
        return {name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                       "min_self_s": s[3] if s[0] else 0.0}
                for name, s in self.stats.items()}

    def write_spans(self, path: Path) -> None:
        with path.open("a") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"solve": self.solve_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
