"""Per-layer timing from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
``gapsched`` module that holds it (solvers import each other's functions
by name), and ``uninstall`` puts the originals back.  A wrapper keeps a
span: the call's wall time, less the time of traced calls made inside
it, is that function's self time, so the self times of one round add up
to the time spent in traced functions.  A recursive call of a function
already on the stack gets no span of its own.  ``settle`` scales the self
times of one round call by that call's calibration factor, so that they
read in the same reference seconds as the round's own times.
"""

from __future__ import annotations

import sys
import tracemalloc
from time import perf_counter

from gapsched import core, hitting, max_gaps, min_gaps, min_max_gap, throughput, xy_select

# (owner, attribute, metric prefix).  The owner is a module or a class.
TARGETS = [
    (core, "normalize_distinct", "core.normalize_distinct"),
    (core, "check_feasible", "core.check_feasible"),
    (core, "validate", "core.validate"),
    (core, "gap_stats", "core.gap_stats"),
    (core, "edf_schedule_busy_set", "core.edf_schedule_busy_set"),
    (min_gaps, "min_gaps", "min_gaps.self"),
    (min_gaps, "min_gaps_tables", "min_gaps.fill"),
    (min_gaps.MinGapsTables, "reconstruct_busy", "min_gaps.reconstruct"),
    (max_gaps, "max_gaps", "max_gaps.self"),
    (min_max_gap, "min_max_gap", "min_max_gap.self"),
    (min_max_gap, "separation_schedule", "min_max_gap.separation_schedule"),
    (hitting, "viable", "hitting.viable"),
    (hitting, "min_max_gap_cont", "hitting.min_max_gap_cont"),
    (hitting, "max_hit_budget", "hitting.max_hit_budget"),
    (hitting, "min_max_flow_cont", "hitting.min_max_flow_cont"),
    (xy_select, "select_kth", "xy_select.select_kth"),
    (throughput, "max_throughput", "throughput.max_throughput"),
    (throughput, "min_gaps_for_throughput", "throughput.min_gaps_for_throughput"),
    (throughput, "edf_max_throughput", "throughput.edf_max_throughput"),
]

# Metric prefixes whose call counts are reported.
COUNTED = ("core.check_feasible", "core.validate", "min_max_gap.separation_schedule",
           "hitting.viable", "xy_select.select_kth")

# Round groups whose calls get a tracemalloc peak, and the metric it feeds.
PEAK_GROUPS = {
    "min_gaps_s": "min_gaps.peak_bytes",
    "max_gaps_s": "max_gaps.peak_bytes",
    "max_throughput_s": "throughput.peak_bytes",
    "min_gaps_for_throughput_s": "throughput.peak_bytes",
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.table_bytes = 0
        self._open: dict[str, float] = {}     # raw self times of the current call
        self._stack: list[list[float]] = []   # child time of each open span
        self._active: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self):
        self.self_s = {}
        self._open = {}
        self.calls = {}
        self.table_bytes = 0

    def _add(self, name: str, seconds: float):
        self._open[name] = self._open.get(name, 0.0) + seconds

    def settle(self, scale: float):
        """A Round hook: the finished call's self times, in reference seconds."""
        for name, seconds in self._open.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds * scale
        self._open = {}

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._active.discard(name)
                if self._stack:
                    self._stack[-1][0] += dt
                self._add(name, dt - frame[0])
                self.calls[name] = self.calls.get(name, 0) + 1
            self._observe(name, out, dt - frame[0])
            return out
        return traced

    def _observe(self, name: str, out, self_time: float):
        if name == "core.check_feasible" and not out.feasible:
            self._add("core.check_feasible_infeasible", self_time)
        elif name == "min_gaps.fill":
            size = out.gaps.nbytes + out.stretch.nbytes + out.choice.nbytes
            self.table_bytes = max(self.table_bytes, size)

    def install(self):
        holders = [m for name, m in sys.modules.items() if name.startswith("gapsched")]
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            for holder in [owner] + [m for m in holders if m is not owner]:
                if getattr(holder, attr, None) is fn:
                    self._undo.append((holder, attr, fn))
                    setattr(holder, attr, wrapped)

    def uninstall(self):
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    def metrics(self) -> dict[str, float]:
        """This round's per-layer numbers by metric name."""
        out = {f"{name}_s": self.self_s.get(name, 0.0) for _, _, name in TARGETS}
        out["core.check_feasible_infeasible_s"] = self.self_s.get(
            "core.check_feasible_infeasible", 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out["min_gaps.table_bytes"] = self.table_bytes
        return out


class PeakMemory:
    """A Round hook that records the tracemalloc peak of selected calls."""

    def __init__(self):
        self.peaks = {name: 0 for name in PEAK_GROUPS.values()}

    def __call__(self, group: str, fn, *args):
        metric = PEAK_GROUPS.get(group)
        if metric is None:
            return fn(*args)
        tracemalloc.start()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[metric] = max(self.peaks[metric], peak)
