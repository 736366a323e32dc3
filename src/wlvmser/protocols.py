"""Executors for the measurement procedures of the virtual test chip.

Four procedures are implemented:

* accelerated SER test — write and verify the whole memory, then
  repeatedly wait one sampling period, read it back and count the cells
  whose read-back changed since the previous read;
* word-line margin sweep — lower the word-line voltage step by step and
  register each cell at the first voltage where its write no longer
  takes;
* hold sweep / read sweep — the same descending-voltage loop applied to
  the core supply during retention or read.

Every procedure is computed from the block's thresholds alone.  The
write/verify step refuses a block with cells that cannot be written or
read at its supply, and each sweep one whose swept threshold already
fails there; the block counts those cells itself
(``MemoryArray.inoperable_cells``).  All three sweeps follow one
step-down rule on a different per-cell threshold, which
``kernels.sweep_registration`` evaluates in closed form.  Sweeps
estimate each cell's threshold as its first failing voltage plus half a
step (midpoint correction), which removes the quantization bias of the
voltage grid.

The SER test counts observed flips: a cell hit an even number of times
within one sampling period reads back unchanged and those upsets are
missed, exactly as on the bench.

The records the procedures return, ``SerMeasurement`` and
``SweepResult``, live in ``records``, which a measurement file ingests
into without the simulator.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ConfigurationError, ProtocolError
from .radiation import MAX_EXPECTED_EVENTS, AlphaSource, generate_events
from .records import DEFAULT_GEOM_UNC, SerMeasurement, SweepResult
from .sram import MemoryArray


def run_ser_test(array: MemoryArray, source: AlphaSource, ts: float,
                 duration: float, seed=0) -> SerMeasurement:
    """Accelerated SER test: irradiate and read every ``ts`` seconds.

    The whole memory is written and verified first, which fails for a
    cell whose write or read threshold lies above ``array.v_dd``.  Then
    per sampling window the injected upsets are counted as the cells
    whose read-back changed since the previous window.  Window reads
    happen at nominal supply and are non-destructive; irradiation
    continues through them (reads are instantaneous in simulation time).
    A window count above ``MAX_EXPECTED_EVENTS`` is refused before
    anything is allocated.
    """
    if not ts > 0:
        raise ConfigurationError("ts must be positive")
    if not ts <= duration < math.inf:
        raise ConfigurationError(
            "duration must be finite and cover at least one sampling period")
    n_windows = duration // ts
    if n_windows > MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"{n_windows:.3g} sampling windows of {ts:g} s over {duration:g} s, "
            f"more than the budget of {MAX_EXPECTED_EVENTS} windows; raise ts or "
            f"shorten the duration")
    n_windows = int(n_windows)
    t_exp = n_windows * ts

    if n_bad := array.inoperable_cells():
        raise ProtocolError(
            f"part {array.part_id} {array.cell_type}: initial write/verify failed for "
            f"{n_bad} cells at v_dd={array.v_dd} mV; the part is not operable at this supply")

    events = generate_events(array, source, t_exp, seed)
    windows = (events.times / ts).astype(np.int64)
    np.minimum(windows, n_windows - 1, out=windows)
    counts, _ = kernels.window_observed_flips(
        windows, events.cells, n_windows, array.n_cells)

    return SerMeasurement.from_windows(array.part_id, array.cell_type, ts, counts,
                                       array.n_cells, DEFAULT_GEOM_UNC)


def _run_sweep(array: MemoryArray, delta_v: int, quantity: str,
               thresholds: np.ndarray) -> SweepResult:
    """Step the swept voltage down from ``array.v_dd`` by ``delta_v`` and
    register each cell at the first grid voltage below its threshold.

    Every step rewrites the background at nominal supply, so a cell that
    cannot be written at ``v_dd``, or whose swept threshold already lies
    above it, would be registered at a voltage unrelated to the threshold
    being measured; such a part is rejected instead.
    """
    if not 0 < delta_v <= array.v_dd:
        raise ConfigurationError(f"delta_v={delta_v} outside (0, {array.v_dd}]")
    if n_bad := array.inoperable_cells(thresholds):
        raise ProtocolError(
            f"part {array.part_id} {array.cell_type}: {n_bad} of {array.n_cells} cells "
            f"cannot be written or already fail the {quantity} sweep at v_dd={array.v_dd} "
            f"mV; the part is not operable at this supply")
    fail_v = kernels.sweep_registration(thresholds, array.v_dd, delta_v)
    return SweepResult.from_registration(
        array.part_id, array.cell_type, quantity, delta_v, fail_v,
        array.v_dd)


def run_wlvm_sweep(array: MemoryArray, delta_v: int = 10) -> SweepResult:
    """Word-line margin sweep over one block.

    Each step writes the array at nominal, lowers the word-line supply by
    one more step, writes the opposite value and reads back at nominal;
    cells are registered at the first voltage whose write did not take.
    The modeled write threshold is polarity-independent, so the outcome is
    computed in closed form from ``v_wl_min``.
    """
    return _run_sweep(array, delta_v, "word_line", array.v_wl_min)


def run_hold_sweep(array: MemoryArray, delta_v: int = 10) -> SweepResult:
    """Retention sweep: lower the core supply and register bit corruption.

    On the bench the sweep runs twice with opposite background values, so
    every cell shows its corruption in one of the two runs, at the first
    grid voltage below its hold threshold.  The outcome is computed in
    closed form from ``v_dd_min_hold``.
    """
    return _run_sweep(array, delta_v, "vdd_hold", array.v_dd_min_hold)


def run_read_sweep(array: MemoryArray, delta_v: int = 10) -> SweepResult:
    """Read-voltage sweep: lower the core supply during reads only.

    The word line stays at nominal; cells are registered at the first
    supply voltage producing a read failure.  Reads are non-destructive so
    a single polarity covers every cell.  The outcome is computed in
    closed form from ``v_dd_min_read``.
    """
    return _run_sweep(array, delta_v, "vdd_read", array.v_dd_min_read)
