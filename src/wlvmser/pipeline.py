"""End-to-end orchestration: virtual parts, measurements, reports.

``simulate_parts`` builds a batch of virtual parts from a variation model
and a ground-truth rate law, runs the accelerated SER test and the margin
sweep on every block, and returns the same per-part datasets an ingested
measurement file would produce.  The ground-truth law maps each block's
true mean margin to its upset rate, which makes the whole chain testable:
calibrating the simulated measurements must recover the law.

Both batches, ``simulate_parts`` and the control experiment's
``simulate_supply_sweeps``, make their shared refusals in one check
before any draw (``_checked``), and draw and measure their blocks in one
loop (``_measured``).  Blocks of at least ``_PREFETCH_CELLS`` cells are
drawn one ahead there: on a host that lets the process run on more than
one CPU, one helper thread draws block k + 1 while the caller measures
block k.  Every block draws from its own ``SeedSequence`` child, so the
results are the same bit for bit whatever the CPU count.

Calibration, report assembly and the variation model need no numpy; the
simulator's names (``sample_array``, ``run_*``, ``AlphaSource``) are
bound from ``sram``, ``radiation`` and ``protocols`` when a simulation
starts, or when looked up on this module (see ``lazy``).
"""

from __future__ import annotations

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
# at 2^16 (2-core host).
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


def _checked(model, cell_types, v_dd, delta_v):
    """The pre-draw refusals both batches share; binds the simulator's names.

    Refuses ``cell_types`` unless it names each type of ``CELL_TYPE_ORDER``
    at most once, each in ``model`` (None: the bundled model), a bad supply
    ``v_dd`` (``model.supply``) and a bad sweep step ``delta_v``
    (``sweep_bins``).  Returns the model, the supply and the most bins a
    sweep's histogram can have.
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
    lazy.bind(globals())
    return model, v_dd, sweep_bins(v_dd, delta_v)


def _measured(blocks, n_cells: int) -> list:
    """``measure(sample_array(**kwargs))`` for each ``(measure, kwargs)`` of
    ``blocks``, in order.

    When each block has ``n_cells`` of at least ``_PREFETCH_CELLS`` and the
    host lets this process run on more than one CPU, one helper thread
    draws block k + 1 while the caller measures block k.  ``blocks`` is
    always advanced on the caller's thread, in order; a draw's error is
    raised when its block is due, before the next block is drawn; and the
    helper is joined before this returns or raises, so the results and the
    first error are those of the serial loop.
    """
    if (n_cells < _PREFETCH_CELLS or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return [measure(sample_array(**kwargs)) for measure, kwargs in blocks]
    from concurrent.futures import ThreadPoolExecutor
    blocks, results = iter(blocks), []
    with ThreadPoolExecutor(max_workers=1) as helper:
        def draw_next():  # submit the next block's draw; None past the last
            for measure, kwargs in blocks:
                # looked up now, so that a wrapper put on this module's name runs
                return measure, helper.submit(sample_array, **kwargs)

        due = draw_next()
        while due is not None:
            measure, array = due[0], due[1].result()
            due = draw_next()
            results.append(measure(array))
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
    fixed seed, whatever the CPU count: large blocks are drawn one ahead
    on a helper thread (``_measured``), each from its own seed.
    ``n_parts`` is a positive integer, not a bool, ``cell_types`` names
    each type of ``CELL_TYPE_ORDER`` at most once, and ``geom_spread``
    lies in [0, 0.1] so every flux factor stays within the source's range.
    A bad schedule (``schedule_windows``) or a batch keeping more than
    ``MAX_EXPECTED_EVENTS`` window counts, a block's
    records counted as ``_BLOCK_RECORDS_AS_WINDOWS`` more and its sweep
    histogram as ``_BIN_AS_WINDOWS`` per bin it can have, is refused
    before any draw, and so is a bad supply or sweep step or a cell type
    the model lacks (``_checked``).  An inoperable block aborts the batch
    with a ``ProtocolError`` that names its part and cell type.
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
    model, v_dd, bins = _checked(model, cell_types, v_dd, delta_v)
    from .protocols import schedule_windows
    from .sram import seed_sequence
    windows = schedule_windows(ts, duration)
    law = law if law is not None else LinearSerLaw()
    records = _BLOCK_RECORDS_AS_WINDOWS + _BIN_AS_WINDOWS * min(rows * cols, bins)
    if n_parts * len(cell_types) * (windows + records) > MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"--parts (n_parts) {n_parts} x {len(cell_types)} cell types x {windows} "
            f"windows keep more than the budget of {MAX_EXPECTED_EVENTS} window counts, "
            f"each block's records counting as {records} more")
    root = seed_sequence(seed)
    datasets = []

    def measure(ds, source, ser_seed, array):
        ds.ser[array.cell_type] = run_ser_test(array, source, ts, duration, seed=ser_seed)
        ds.sweeps[array.cell_type] = run_wlvm_sweep(array, delta_v)

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
                yield functools.partial(measure, ds, source, block_seqs[2 * i + 1]), dict(
                    cell_type=cell_type, model=model, part_offset=offset,
                    seed=block_seqs[2 * i], rows=rows, cols=cols, true_seu_rate=rate,
                    part_id=part_id, v_dd=v_dd)

    _measured(blocks(), rows * cols)
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
    the model) and the step are refused before any draw.  Deterministic
    under a fixed seed, whatever the CPU count (see ``_measured``).
    """
    model = _checked(model, cell_types, None, delta_v)[0]
    runner = {"hold": run_hold_sweep, "read": run_read_sweep}.get(kind)
    if runner is None:
        raise ValueError(f"kind must be 'hold' or 'read', got {kind!r}")
    from .sram import seed_sequence
    measure = functools.partial(runner, delta_v=delta_v)
    seqs = seed_sequence(seed).spawn(len(cell_types))
    return _measured(((measure, dict(cell_type=cell_type, model=model, seed=seq, rows=rows,
                                     cols=cols, part_id="1"))
                      for cell_type, seq in zip(cell_types, seqs)), rows * cols)


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
