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
step-down rule on a different per-cell threshold;
``kernels.sweep_registration`` evaluates it in closed form and returns
the sweep's failure histogram and the mean and spread of the
midpoint-corrected thresholds.

The SER test counts observed flips: a cell hit an even number of times
within one sampling period reads back unchanged and those upsets are
missed, exactly as on the bench.  Its schedule, ``duration // ts``
windows, is checked by ``schedule_windows``, and a sweep's step (a whole
number of mV) and its histogram's bin bound by ``sweep_bins``, before a
sweep reads its thresholds; ``simulate_parts`` calls both before it draws
a part.  An event at time ``t`` falls in window
``min(int(t / ts), n_windows - 1)``.  The test bins the sorted event
times by one binary search per window, against the exact first double of
each window (searched once per schedule and cached), not by a division
per event; the counts are the same bit for bit.

The records the procedures return, ``SerMeasurement`` and
``SweepResult``, live in ``records``, which a measurement file ingests
into without the simulator.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import kernels
from .errors import ConfigurationError, ProtocolError
from .radiation import AlphaSource, generate_events
from .records import (DEFAULT_DELTA_V_MV, DEFAULT_DURATION_S, DEFAULT_TS_S,
                      MAX_EXPECTED_EVENTS, SerMeasurement, SweepResult)
from .sram import MemoryArray


def schedule_windows(ts: float, duration: float) -> int:
    """``duration // ts``, the windows of a SER test read every ``ts`` s; a
    schedule of no window, more than ``MAX_EXPECTED_EVENTS`` windows or a
    time that is not positive and finite raises ``ConfigurationError``."""
    if not ts > 0:
        raise ConfigurationError(f"--ts (ts) must be positive, got {ts:g}")
    if not ts <= duration < math.inf:
        raise ConfigurationError(
            f"--duration (duration) must be finite and cover at least one sampling "
            f"period of {ts:g} s, got {duration:g}")
    n_windows = duration // ts
    if n_windows > MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"{n_windows:.3g} sampling windows of {ts:g} s over {duration:g} s, "
            f"more than the budget of {MAX_EXPECTED_EVENTS} windows; raise --ts or "
            f"shorten --duration")
    return int(n_windows)


def sweep_bins(v_dd: int, delta_v: int) -> int:
    """``v_dd // delta_v + 1``, the most grid voltages a sweep down from
    ``v_dd`` in ``delta_v`` steps registers cells at, so the most bins of
    its histogram; a step that is not a whole number of mV (a Python or
    numpy integer, not a bool) or lies outside ``(0, v_dd]`` raises
    ``ConfigurationError``.  It is the one check of every sweep's step."""
    if isinstance(delta_v, bool) or not isinstance(delta_v, (int, np.integer)):
        raise ConfigurationError(
            f"--delta-v (delta_v) must be a whole number of mV, got {delta_v!r}")
    if not 0 < delta_v <= v_dd:
        raise ConfigurationError(
            f"--delta-v (delta_v) must be within (0, {v_dd}], got {delta_v}")
    return v_dd // delta_v + 1


@functools.lru_cache(maxsize=1)
def _window_starts(ts: float, n_windows: int) -> np.ndarray:
    """``-inf``, the first time of each window 1 .. ``n_windows - 1`` and
    ``+inf``: window ``i`` starts at the smallest double ``b`` with
    ``fl(b / ts) >= i``.  ``fl(i * ts)`` lies within an ulp or two of it,
    so it is stepped up until it reaches window ``i`` and then down while
    the double below it still does."""
    i = np.arange(1, n_windows, dtype=np.float64)
    b = i * ts
    while (low := b / ts < i).any():
        b[low] = np.nextafter(b[low], np.inf)
    while (high := (below := np.nextafter(b, -np.inf)) / ts >= i).any():
        b[high] = below[high]
    starts = np.concatenate(([-np.inf], b, [np.inf]))
    starts.flags.writeable = False
    return starts


def _event_windows(times: np.ndarray, ts: float, n_windows: int) -> np.ndarray:
    """``min(int(t / ts), n_windows - 1)`` for each of the sorted event
    times ``t >= 0``, as ``int32``; unsorted times raise ``ValueError``.

    Correctly rounded division is monotone in ``t``, so a window's events
    are the times from its exact start (``_window_starts``) to the next
    one, found by one binary search per window instead of a division per
    event.  Times past the last start fall in the last window.
    """
    if (times[1:] < times[:-1]).any():
        raise ValueError("event times must be sorted")
    edges = np.searchsorted(times, _window_starts(ts, n_windows))
    return np.repeat(np.arange(n_windows, dtype=np.int32), edges[1:] - edges[:-1])


def run_ser_test(array: MemoryArray, source: AlphaSource, ts: float = DEFAULT_TS_S,
                 duration: float = DEFAULT_DURATION_S, seed=0) -> SerMeasurement:
    """Accelerated SER test: irradiate and read every ``ts`` seconds.

    The whole memory is written and verified first, which fails for a
    cell whose write or read threshold lies above ``array.v_dd``.  Then
    per sampling window the injected upsets are counted as the cells
    whose read-back changed since the previous window.  Window reads
    happen at nominal supply and are non-destructive; irradiation
    continues through them (reads are instantaneous in simulation time).
    The schedule is checked first (``schedule_windows``).
    """
    n_windows = schedule_windows(ts, duration)
    t_exp = n_windows * ts

    if n_bad := array.inoperable_cells():
        raise ProtocolError(
            f"part {array.part_id} {array.cell_type}: initial write/verify failed for "
            f"{n_bad} cells at v_dd={array.v_dd} mV; the part is not operable at this supply")

    events = generate_events(array, source, t_exp, seed)
    counts, _ = kernels.window_observed_flips(
        _event_windows(events.times, ts, n_windows), events.cells, n_windows,
        array.n_cells)

    return SerMeasurement.from_windows(array.part_id, array.cell_type, ts, counts, array.n_cells)


# the block's per-cell thresholds that each sweep steps past
_SWEPT = {"word_line": "v_wl_min", "vdd_hold": "v_dd_min_hold", "vdd_read": "v_dd_min_read"}


def _run_sweep(array: MemoryArray, delta_v: int, quantity: str) -> SweepResult:
    """Step the swept voltage down from ``array.v_dd`` by ``delta_v`` and
    register each cell at the first grid voltage below its threshold.

    Every step rewrites the background at nominal supply, so a cell that
    cannot be written at ``v_dd``, or whose swept threshold already lies
    above it, would be registered at a voltage unrelated to the threshold
    being measured; such a part is rejected instead.  A refused step reads
    no threshold, so it draws none; an accepted one is recorded as an
    ``int``, a numpy integer step too.
    """
    sweep_bins(array.v_dd, delta_v)
    thresholds = getattr(array, _SWEPT[quantity])
    if n_bad := array.inoperable_cells(thresholds):
        raise ProtocolError(
            f"part {array.part_id} {array.cell_type}: {n_bad} of {array.n_cells} cells "
            f"cannot be written or already fail the {quantity} sweep at v_dd={array.v_dd} "
            f"mV; the part is not operable at this supply")
    histogram, mu, sigma = kernels.sweep_registration(thresholds, array.v_dd, delta_v)
    return SweepResult(part_id=array.part_id, cell_type=array.cell_type,
                       swept_quantity=quantity, delta_v=operator.index(delta_v), mu=mu,
                       sigma=sigma, n_cells=array.n_cells, v_nominal=array.v_dd,
                       histogram=histogram)


def run_wlvm_sweep(array: MemoryArray, delta_v: int = DEFAULT_DELTA_V_MV) -> SweepResult:
    """Word-line margin sweep over one block.

    Each step writes the array at nominal, lowers the word-line supply by
    one more step, writes the opposite value and reads back at nominal;
    cells are registered at the first voltage whose write did not take.
    The modeled write threshold is polarity-independent, so the outcome is
    computed in closed form from ``v_wl_min``.
    """
    return _run_sweep(array, delta_v, "word_line")


def run_hold_sweep(array: MemoryArray, delta_v: int = DEFAULT_DELTA_V_MV) -> SweepResult:
    """Retention sweep: lower the core supply and register bit corruption.

    On the bench the sweep runs twice with opposite background values, so
    every cell shows its corruption in one of the two runs, at the first
    grid voltage below its hold threshold.  The outcome is computed in
    closed form from ``v_dd_min_hold``.
    """
    return _run_sweep(array, delta_v, "vdd_hold")


def run_read_sweep(array: MemoryArray, delta_v: int = DEFAULT_DELTA_V_MV) -> SweepResult:
    """Read-voltage sweep: lower the core supply during reads only.

    The word line stays at nominal; cells are registered at the first
    supply voltage producing a read failure.  Reads are non-destructive so
    a single polarity covers every cell.  The outcome is computed in
    closed form from ``v_dd_min_read``.
    """
    return _run_sweep(array, delta_v, "vdd_read")
