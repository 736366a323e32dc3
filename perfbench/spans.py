"""In-memory span tracer that times wlvmser from outside the package.

Nothing under ``src/`` knows about it: ``instrument`` replaces module
attributes with timing wrappers, under the name each caller looks the
function up by (``pipeline.sample_array`` is the reference
``simulate_parts`` calls, ``sram.sample_array`` the one the benchmark
calls), and ``Tracer.unwrap`` puts the originals back.  Every span keeps
its name, start, end and parent until the run ends; a span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, metric: str, count=None):
        """Replace ``module.attr`` by a wrapper recording a span named
        ``metric``; ``count(result)`` returns counter increments."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(metric):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(result))
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def unwrap(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def adopt(self, spans: list[list], parent: int):
        """Graft ``[name, start, end, parent]`` records from a child
        process below span ``parent``; only durations are compared."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append(Span(name, start, end, parent if p < 0 else base + p))

    def to_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out = Counter()
        for s, c in zip(self.spans, covered):
            out[s.name] += (s.end - s.start) - c
        return out


def _sweep_steps(result) -> dict:
    """Voltage steps a sweep visited, from its failure histogram."""
    lowest = min(result.histogram)
    return {"protocols.sweep_steps": -(-(result.v_nominal - lowest) // result.delta_v)}


_COUNTS = {
    "sram.sample": lambda r: {"sram.cells": r.n_cells},
    "radiation.generate": lambda r: {"radiation.events": len(r)},
    "kernels.window_flips": lambda r: {"kernels.observed": int(r[0].sum())},
    "protocols.wlvm_sweep": _sweep_steps,
    "protocols.hold_sweep": _sweep_steps,
    "protocols.read_sweep": _sweep_steps,
    "calibration.fit": lambda r: {"calibration.points": r.n_points},
}

# (module, attribute its caller looks up, span/metric name)
WRAPS = [
    ("sram", "sample_array", "sram.sample"),
    ("pipeline", "sample_array", "sram.sample"),
    ("cli", "sample_array", "sram.sample"),
    ("protocols", "generate_events", "radiation.generate"),
    ("kernels", "window_observed_flips", "kernels.window_flips"),
    ("kernels", "sweep_registration", "kernels.sweep_registration"),
    ("protocols", "run_ser_test", "protocols.ser_test"),
    ("pipeline", "run_ser_test", "protocols.ser_test"),
    ("cli", "run_ser_test", "protocols.ser_test"),
    ("pipeline", "run_wlvm_sweep", "protocols.wlvm_sweep"),
    ("cli", "run_wlvm_sweep", "protocols.wlvm_sweep"),
    ("pipeline", "run_hold_sweep", "protocols.hold_sweep"),
    ("cli", "run_hold_sweep", "protocols.hold_sweep"),
    ("pipeline", "run_read_sweep", "protocols.read_sweep"),
    ("cli", "run_read_sweep", "protocols.read_sweep"),
    ("pipeline", "weighted_linfit", "calibration.fit"),
    ("pipeline", "simulate_parts", "pipeline.simulate"),
    ("cli", "simulate_parts", "pipeline.simulate"),
    ("pipeline", "simulate_supply_sweeps", "pipeline.simulate"),
    ("pipeline", "calibrate_datasets", "pipeline.calibrate"),
    ("cli", "calibrate_datasets", "pipeline.calibrate"),
    ("pipeline", "build_report_bundle", "pipeline.report_bundle"),
    ("cli", "build_report_bundle", "pipeline.report_bundle"),
    ("io", "emit_measurements_csv", "io.emit_csv"),
    ("io", "ingest_measurements_csv", "io.ingest_csv"),
    ("io", "emit_report", "io.emit_report"),
]

SPAN_METRICS = sorted({metric for _, _, metric in WRAPS})


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every function in ``WRAPS``; names that no longer exist are
    listed in ``tracer.missing`` instead of failing the run."""
    for module_name, attr, metric in WRAPS:
        try:
            module = importlib.import_module(f"wlvmser.{module_name}")
        except ImportError:
            tracer.missing.append(f"wlvmser.{module_name}")
            continue
        tracer.wrap(module, attr, metric, _COUNTS.get(metric))
    return tracer
