"""End-to-end orchestration: virtual parts, measurements, reports.

``simulate_parts`` builds a batch of virtual parts from a variation model
and a ground-truth rate law, runs the accelerated SER test and the margin
sweep on every block, and returns the same per-part datasets an ingested
measurement file would produce.  The ground-truth law maps each block's
true mean margin to its upset rate, which makes the whole chain testable:
calibrating the simulated measurements must recover the law.

Both batches, ``simulate_parts`` and the control experiment's
``simulate_supply_sweeps``, check the inputs every block shares (model,
cell types, supply, step, geometry and, for the SER test, the schedule)
once, before any draw (``_checked``), and draw and measure their blocks
in one loop (``_measured``).  Each block is drawn and makes its own
checks and draws in the serial order; the blocks of a group, up to
``_PREFETCH_CELLS`` cells and events, are then measured at once: one flip
count and one sweep-kernel call per group (``protocols``).  A block of
``_PREFETCH_CELLS`` cells or more is a group of one, drawn one ahead: on
a host that lets the process run on more than one CPU, one helper
thread draws block k + 1 while the caller measures block k.  Every block
draws from its own ``SeedSequence`` child, so the results are the same
bit for bit whatever the CPU count and however the blocks are grouped.

Calibration, report assembly and the variation model need no numpy; the
simulator's names (``sample_array``, ``run_*``, ``AlphaSource``) are
bound from ``sram``, ``radiation`` and ``protocols`` when a simulation
starts, or when looked up on this module (see ``lazy``).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os

from . import lazy
from .calibration import (DEFAULT_WEIGHT_MODE, CalibrationFit, build_weighted_points,
                          weighted_linfit)
from .errors import ConfigurationError, DegenerateFitError
from .io import PartDataset, ReportBundle
from .records import (DEFAULT_COLS, DEFAULT_DELTA_V_MV, DEFAULT_DURATION_S,
                      DEFAULT_ROWS, DEFAULT_TS_S, MAX_EXPECTED_EVENTS, VariationModel)
from .refdata import CELL_TYPE_ORDER

# bound on first use, so that calibrating and reporting need no numpy
__getattr__ = lazy.module_getattr(globals())

# Besides its window counts, a simulated block keeps about 1 kB of SER and
# sweep records plus 72 B per bin of its sweep histogram (tracemalloc over
# simulate_parts(n_parts=100) at delta_v = 1, 10 and 50 mV: 17.4, 3.1 and
# 1.5 kB per block at 229, 29 and 7 bins).  The batch budget charges them
# as window counts of 8 B: 128 per block and 10 per bin the histogram can
# have, the fewer of the cell count and ``sweep_bins``.
_BLOCK_RECORDS_AS_WINDOWS = 128
_BIN_AS_WINDOWS = 10

# Smallest block drawn on the helper thread.  Below it the handoff costs
# more than the overlap saves: perfbench's large-block batch at 4 kbit ran
# 2.3x slower drawn ahead, broke even at 25 600 cells and ran 21 % faster
# at 2^16 (2-core host).  It also bounds a measuring group's cells and
# events: 16 blocks of 4 kbit, whose arrays took simulate_parts(n_parts=100)
# from 0.12 to 2.6 MB traced beyond the records it keeps.
_PREFETCH_CELLS = 1 << 16


class LinearSerLaw:
    """Ground-truth upset-rate law: rate = m * margin + b, clamped at 0.

    Margin in volts, rate in µSEU per bit-second.  Defaults reproduce the
    published regression of the bundled reference dataset.
    """

    def __init__(self, m: float = 4.32, b: float = -0.25):
        for option, name, value in (("--law-m", "m", m), ("--law-b", "b", b)):
            if not math.isfinite(value):
                raise ConfigurationError(f"{option} ({name}) must be finite, got {value}")
        self.m = m
        self.b = b

    def rate(self, margin_v: float) -> float:
        return max(self.m * margin_v + self.b, 0.0)


def _checked(model, cell_types, v_dd, delta_v, rows, cols):
    """The pre-draw refusals both batches share; binds the simulator's names.

    Refuses ``cell_types`` unless it names each type of ``CELL_TYPE_ORDER``
    at most once, each in ``model`` (None: the bundled model), a bad supply
    ``v_dd`` (``model.supply``), a bad sweep step ``delta_v``
    (``sweep_bins``) and a bad block geometry (``sram._block_cells``).
    Returns the model, the supply, the most bins a sweep's histogram can
    have and the cells of a block.
    """
    model = model if model is not None else VariationModel.default()
    for i, cell_type in enumerate(cell_types):
        if cell_type not in CELL_TYPE_ORDER:
            raise ConfigurationError(
                f"--types (cell_types) names unknown cell type {cell_type!r}; "
                f"known: {', '.join(CELL_TYPE_ORDER)}")
        if cell_type in cell_types[:i]:
            raise ConfigurationError(
                f"--types (cell_types) names {cell_type!r} twice")
        model.for_type(cell_type)
    v_dd = model.supply(v_dd)
    from .protocols import sweep_bins
    from .sram import _block_cells
    lazy.bind(globals())
    return model, v_dd, sweep_bins(v_dd, delta_v), _block_cells(rows, cols)


def _measured(blocks, n_cells: int, step, finish) -> list:
    """Draw the block ``sram._sampled(**kwargs)`` of each ``(context,
    kwargs)`` of ``blocks``, in order, and measure it: ``step(context,
    array)`` makes the block's own checks and draws, in the serial order,
    and returns its state and event count; ``finish`` measures the states
    of a group of consecutive blocks at once and returns their results,
    which this returns in order.

    A group holds at most ``_PREFETCH_CELLS`` cells, and the block that
    takes its events to ``_PREFETCH_CELLS`` or more closes it, so a block
    of ``_PREFETCH_CELLS`` cells or more is a group of one.  Such blocks
    are drawn one ahead when the host lets this process run on more than
    one CPU: one helper thread draws block k + 1 while the caller measures
    block k.  ``blocks`` is always advanced on the caller's thread, in
    order; a draw's error is raised when its block is due, before the
    next block is drawn; no group is finished before each of its blocks
    passed its step; and the helper is joined before this returns or
    raises, so the results and the first error are those of the serial
    loop.
    """
    from . import sram
    ahead = (n_cells >= _PREFETCH_CELLS and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) > 1)
    if ahead:
        from concurrent.futures import ThreadPoolExecutor
    results, group, events = [], [], 0
    with ThreadPoolExecutor(max_workers=1) if ahead else contextlib.nullcontext() as helper:
        def draw_next():  # the next block's context and its draw; None past the last
            for context, kwargs in blocks:
                # looked up now, so that a wrapper put on the name runs
                if helper is None:
                    return context, functools.partial(sram._sampled, **kwargs)
                return context, helper.submit(sram._sampled, **kwargs).result

        due = draw_next()
        while due is not None:
            context, array = due[0], due[1]()
            due = draw_next()
            state, block_events = step(context, array)
            group.append(state)
            del state  # the group alone holds the block's arrays, so finishing frees them
            events += block_events
            if (due is None or (len(group) + 1) * n_cells > _PREFETCH_CELLS
                    or events >= _PREFETCH_CELLS):
                results += finish(group)
                group, events = [], 0
    return results


def simulate_parts(
    model: VariationModel | None = None,
    law: LinearSerLaw | None = None,
    n_parts: int = 5,
    cell_types=CELL_TYPE_ORDER,
    duration: float = DEFAULT_DURATION_S,
    ts: float = DEFAULT_TS_S,
    delta_v: int = DEFAULT_DELTA_V_MV,
    seed=0,
    v_dd: int | None = None,
    geom_spread: float = 0.03,
    rows: int = DEFAULT_ROWS,
    cols: int = DEFAULT_COLS,
) -> list[PartDataset]:
    """Simulate ``n_parts`` virtual parts and measure each block.

    Per part, one Gaussian offset (sigma ``model.sigma_part``) shifts all
    threshold means and one flux factor is drawn uniformly within
    ``+-geom_spread``.  Per block the ground-truth rate is the law applied
    to the part's true mean margin at ``v_dd``.  Deterministic under a
    fixed seed, whatever the CPU count: blocks are measured in groups,
    and large blocks drawn one ahead on a helper thread (``_measured``),
    each from its own seed.
    ``n_parts`` is a positive integer, not a bool, ``cell_types`` names
    each type of ``CELL_TYPE_ORDER`` at most once, and ``geom_spread``
    lies in [0, 0.1] so every flux factor stays within the source's range.
    A bad schedule (``schedule_windows``) or a batch keeping more than
    ``MAX_EXPECTED_EVENTS`` window counts, a block's
    records counted as ``_BLOCK_RECORDS_AS_WINDOWS`` more and its sweep
    histogram as ``_BIN_AS_WINDOWS`` per bin it can have, is refused
    before any draw, and so is a bad supply, sweep step or geometry or a
    cell type the model lacks (``_checked``).  An inoperable block aborts
    the batch with a ``ProtocolError``, and a block whose rate expects
    more than ``MAX_EXPECTED_EVENTS`` events with a ``ConfigurationError``,
    each naming its part and cell type.
    """
    import numpy as np
    if isinstance(n_parts, bool) or not isinstance(n_parts, (int, np.integer)):
        raise ConfigurationError(f"--parts (n_parts) must be an integer, got {n_parts!r}")
    if n_parts < 1:
        raise ConfigurationError(f"--parts: n_parts must be >= 1, got {n_parts}")
    if not 0 <= geom_spread <= 0.1:
        raise ConfigurationError(
            f"--geom-spread (geom_spread) must be finite and within [0, 0.1], "
            f"got {geom_spread:g}")
    model, v_dd, bins, n_cells = _checked(model, cell_types, v_dd, delta_v, rows, cols)
    from . import protocols
    from .sram import seed_sequence
    windows = protocols.schedule_windows(ts, duration)
    law = law if law is not None else LinearSerLaw()
    records = _BLOCK_RECORDS_AS_WINDOWS + _BIN_AS_WINDOWS * min(n_cells, bins)
    if n_parts * len(cell_types) * (windows + records) > MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"--parts (n_parts) {n_parts} x {len(cell_types)} cell types x {windows} "
            f"windows keep more than the budget of {MAX_EXPECTED_EVENTS} window counts, "
            f"each block's records counting as {records} more")
    root = seed_sequence(seed)
    datasets = []

    def blocks():
        for p in range(n_parts):
            part_id = str(p + 1)
            # one child at a time, the same children as root.spawn(n_parts)
            part_seq = root.spawn(1)[0]
            prng = np.random.default_rng(part_seq)
            offset = prng.normal(0.0, model.sigma_part)
            source = AlphaSource(geom_factor=1.0 + prng.uniform(-geom_spread, geom_spread))
            ds = PartDataset(part_id=part_id, v_dd=v_dd)
            datasets.append(ds)
            block_seqs = part_seq.spawn(2 * len(cell_types))
            for i, cell_type in enumerate(cell_types):
                rate = law.rate((v_dd - (model.for_type(cell_type).mu_vwlmin + offset)) / 1000.0)
                yield (ds, source, block_seqs[2 * i + 1]), dict(
                    cell_type=cell_type, model=model, part_offset=offset,
                    seed=block_seqs[2 * i], n=n_cells, true_seu_rate=rate,
                    part_id=part_id, v_dd=int(v_dd))

    def step(context, array):
        ds, source, ser_seed = context
        ser = protocols._ser_block(array, source, ts, windows, ser_seed,
                                   rate_set_by="--law-m (m) or --law-b (b)")
        return (ds, ser, protocols._sweep_block(array, "word_line")), ser[2].size

    def finish(group):
        sers = protocols._ser_group([ser for _, ser, _ in group], ts, windows)
        sweeps = protocols._sweep_group([sweep for _, _, sweep in group], delta_v, "word_line")
        for (ds, _, _), ser, sweep in zip(group, sers, sweeps):
            ds.ser[ser.cell_type] = ser
            ds.sweeps[sweep.cell_type] = sweep
        return ()

    _measured(blocks(), n_cells, step, finish)
    return datasets


def simulate_supply_sweeps(
    model: VariationModel | None = None,
    cell_types=CELL_TYPE_ORDER,
    kind: str = "hold",
    delta_v: int = DEFAULT_DELTA_V_MV,
    seed=0,
    rows: int = DEFAULT_ROWS,
    cols: int = DEFAULT_COLS,
):
    """Control-experiment supply sweeps (hold or read) for one part.

    The kind, ``cell_types`` (as ``simulate_parts`` takes them, each in
    the model), the step and the geometry are refused before any draw.
    Deterministic under a fixed seed, whatever the CPU count (see
    ``_measured``).
    """
    model, v_dd, _, n_cells = _checked(model, cell_types, None, delta_v, rows, cols)
    quantity = {"hold": "vdd_hold", "read": "vdd_read"}.get(kind)
    if quantity is None:
        raise ValueError(f"kind must be 'hold' or 'read', got {kind!r}")
    from . import protocols
    from .sram import seed_sequence
    seqs = seed_sequence(seed).spawn(len(cell_types))
    return _measured(
        (((), dict(cell_type=cell_type, model=model, part_offset=0.0, seed=seq, n=n_cells,
                   true_seu_rate=0.0, part_id="1", v_dd=int(v_dd)))
         for cell_type, seq in zip(cell_types, seqs)), n_cells,
        lambda _, array: (protocols._sweep_block(array, quantity), 0),
        lambda group: protocols._sweep_group(group, delta_v, quantity))


def zero_count_blocks(datasets) -> list[str]:
    """``part <id> <type>`` of each SER point the fit leaves out because
    its block counted no upset (see ``build_weighted_points``)."""
    return [f"part {ds.part_id} {meas.cell_type}"
            for ds in datasets for meas, _ in ds.pairs() if meas.zero_count]


def calibrate_datasets(datasets, weight_mode: str = DEFAULT_WEIGHT_MODE) -> CalibrationFit:
    """Fit over all parts, each margin taken at its sweep's own supply
    (``SweepResult.margin``).

    Zero-count SER points are left out; when fewer than two points
    remain, the ``DegenerateFitError`` says how many were left out.
    """
    points = []
    for ds in datasets:
        points.extend(build_weighted_points(ds.pairs(), weight_mode))
    left_out = zero_count_blocks(datasets) if len(points) < 2 else []
    if left_out:
        raise DegenerateFitError(
            f"need at least 2 points, got {len(points)} after leaving out "
            f"{len(left_out)} zero-count SER points")
    fit = weighted_linfit(points)
    fit.weight_mode = weight_mode
    return fit


def build_report_bundle(datasets, weight_mode: str = DEFAULT_WEIGHT_MODE) -> ReportBundle:
    """Calibrate the datasets and pack the fit with them for ``emit_report``."""
    return ReportBundle(calibrate_datasets(datasets, weight_mode), datasets)
