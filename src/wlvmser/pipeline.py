"""End-to-end orchestration: virtual parts, measurements, reports.

``simulate_parts`` builds a batch of virtual parts from a variation model
and a ground-truth rate law, runs the accelerated SER test and the margin
sweep on every block, and returns the same per-part datasets an ingested
measurement file would produce.  The ground-truth law maps each block's
true mean margin to its upset rate, which makes the whole chain testable:
calibrating the simulated measurements must recover the law.

Calibration and report assembly need no numpy; the simulator's names
(``sample_array``, ``run_*``, ``AlphaSource``, ``VariationModel``) are
bound from ``sram``, ``radiation`` and ``protocols`` when a simulation
starts, or when looked up on this module (see ``lazy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import lazy
from .calibration import (DEFAULT_WEIGHT_MODE, CalibrationFit, build_weighted_points,
                          weighted_linfit)
from .errors import ConfigurationError, DegenerateFitError
from .io import PartDataset, ReportBundle
from .records import (DEFAULT_COLS, DEFAULT_DELTA_V_MV, DEFAULT_DURATION_S,
                      DEFAULT_ROWS, DEFAULT_TS_S, MAX_EXPECTED_EVENTS)
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


@dataclass(frozen=True)
class LinearSerLaw:
    """Ground-truth upset-rate law: rate = m * margin + b, clamped at 0.

    Margin in volts, rate in µSEU per bit-second.  Defaults reproduce the
    published regression of the bundled reference dataset.
    """

    m: float = 4.32
    b: float = -0.25

    def __post_init__(self):
        for option, name in (("--law-m", "m"), ("--law-b", "b")):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{option} ({name}) must be finite, got {value}")

    def rate(self, margin_v: float) -> float:
        return max(self.m * margin_v + self.b, 0.0)


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
    fixed seed.  ``cell_types`` names each type of ``CELL_TYPE_ORDER`` at
    most once, and ``geom_spread`` lies in [0, 0.1] so every flux factor
    stays within the source's range.  A bad schedule (``schedule_windows``)
    or a batch keeping more than ``MAX_EXPECTED_EVENTS`` window counts, a
    block's records counted as ``_BLOCK_RECORDS_AS_WINDOWS`` more and its
    sweep histogram as ``_BIN_AS_WINDOWS`` per bin it can have, is refused
    before any draw, and so is a bad supply or sweep step.  An inoperable
    block aborts the batch with a ``ProtocolError`` that names its part and
    cell type.
    """
    if n_parts < 1:
        raise ConfigurationError(f"--parts: n_parts must be >= 1, got {n_parts}")
    for i, cell_type in enumerate(cell_types):
        if cell_type not in CELL_TYPE_ORDER:
            raise ConfigurationError(
                f"--types (cell_types) names unknown cell type {cell_type!r}; "
                f"known: {', '.join(CELL_TYPE_ORDER)}")
        if cell_type in cell_types[:i]:
            raise ConfigurationError(
                f"--types (cell_types) names {cell_type!r} twice")
    if not 0 <= geom_spread <= 0.1:
        raise ConfigurationError(
            f"--geom-spread (geom_spread) must be finite and within [0, 0.1], "
            f"got {geom_spread:g}")
    import numpy as np
    from .protocols import schedule_windows, sweep_bins
    from .sram import seed_sequence
    windows = schedule_windows(ts, duration)
    lazy.bind(globals())
    model = model if model is not None else VariationModel.default()
    law = law if law is not None else LinearSerLaw()
    v_dd = model.supply(v_dd)
    records = (_BLOCK_RECORDS_AS_WINDOWS
               + _BIN_AS_WINDOWS * min(rows * cols, sweep_bins(v_dd, delta_v)))
    if n_parts * len(cell_types) * (windows + records) > MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"--parts (n_parts) {n_parts} x {len(cell_types)} cell types x {windows} "
            f"windows keep more than the budget of {MAX_EXPECTED_EVENTS} window counts, "
            f"each block's records counting as {records} more")
    root = seed_sequence(seed)

    datasets = []
    for p in range(n_parts):
        part_id = str(p + 1)
        # one child at a time, the same children as root.spawn(n_parts)
        part_seq = root.spawn(1)[0]
        prng = np.random.default_rng(part_seq)
        offset = prng.normal(0.0, model.sigma_part)
        source = AlphaSource(geom_factor=1.0 + prng.uniform(-geom_spread, geom_spread))
        ds = PartDataset(part_id=part_id, v_dd=v_dd)
        block_seqs = part_seq.spawn(2 * len(cell_types))
        for i, cell_type in enumerate(cell_types):
            margin_v = (v_dd - (model.for_type(cell_type).mu_vwlmin + offset)) / 1000.0
            rate = law.rate(margin_v)
            array = sample_array(
                cell_type, model, part_offset=offset, seed=block_seqs[2 * i],
                rows=rows, cols=cols, true_seu_rate=rate, part_id=part_id,
                v_dd=v_dd)
            ds.ser[cell_type] = run_ser_test(
                array, source, ts, duration, seed=block_seqs[2 * i + 1])
            ds.sweeps[cell_type] = run_wlvm_sweep(array, delta_v)
        datasets.append(ds)
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
    """Control-experiment supply sweeps (hold or read) for one part."""
    from .sram import seed_sequence
    lazy.bind(globals())
    model = model if model is not None else VariationModel.default()
    runner = {"hold": run_hold_sweep, "read": run_read_sweep}.get(kind)
    if runner is None:
        raise ValueError(f"kind must be 'hold' or 'read', got {kind!r}")
    seqs = seed_sequence(seed).spawn(len(cell_types))
    results = []
    for cell_type, seq in zip(cell_types, seqs):
        array = sample_array(cell_type, model, seed=seq, rows=rows, cols=cols,
                             part_id="1")
        results.append(runner(array, delta_v))
    return results


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
    return replace(fit, weight_mode=weight_mode)


def build_report_bundle(datasets, weight_mode: str = DEFAULT_WEIGHT_MODE) -> ReportBundle:
    """Calibrate the datasets and pack the fit with them for ``emit_report``."""
    return ReportBundle(calibrate_datasets(datasets, weight_mode), datasets)
