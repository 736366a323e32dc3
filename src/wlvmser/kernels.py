"""Numeric inner loops of the simulator, in numpy.

The hot paths are small operations over cell arrays: counting observed
per-window bit flips (a sort of per-event keys, then hits minus the
pairs of repeated hits), registering sweep failures (a closed form,
evaluated once per voltage up to the block's top threshold and gathered
per cell, or per cell when that voltage is not below the cell count)
and Monte-Carlo sampling of masked upsets.  ``window_observed_flips``
and ``sweep_registration`` are deterministic; ``masked_upsets_mc`` is
deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_MC_CHUNK = 4_000_000  # bounds the Monte-Carlo working set


def window_observed_flips(windows, cells, n_windows, n_cells):
    """Per-window observed flip counts plus the total flip parity per cell.

    ``windows`` must be non-decreasing (events sorted by time), every
    entry must lie in ``[0, n_windows)`` and every cell in ``[0, n_cells)``.
    Returns ``(counts, parity)`` where ``counts[i]`` is the number of cells
    whose read-back changed in window ``i`` and ``parity`` is the
    cumulative XOR mask over all events.

    Each event becomes the key ``window * n_cells + cell``, as ``int32``
    when every key fits and ``int64`` otherwise, and the keys are sorted in
    place.  A cell hit ``L`` times within one window forms a run of ``L``
    equal keys and reads back changed iff ``L`` is odd, so ``L // 2`` pairs
    of hits go unseen: each window's count is its hits minus twice the
    pairs of its runs.
    """
    windows = np.asarray(windows)
    cells = np.asarray(cells, dtype=np.int64)
    if windows.size != cells.size:
        raise ValueError("windows and cells must have the same length")
    n_windows, n_cells = int(n_windows), int(n_cells)
    if not cells.size:
        return np.zeros(n_windows, dtype=np.int64), np.zeros(n_cells, dtype=np.uint8)
    if windows[0] < 0 or windows[-1] >= n_windows:
        raise ValueError("window index out of range")
    if (windows[1:] < windows[:-1]).any():
        raise ValueError("windows must be sorted")
    if cells.min() < 0 or cells.max() >= n_cells:
        raise ValueError("cell index out of range")
    key = windows.astype(np.int32 if n_windows * n_cells < 2**31 else np.int64)
    key *= n_cells
    np.add(key, cells, out=key)
    key.sort()
    # a run of L equal keys shows as L - 1 consecutive repeat positions
    repeat = np.flatnonzero(key[1:] == key[:-1])
    edge = np.empty(repeat.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(repeat[1:], repeat[:-1] + 1, out=edge[1:-1])
    heads = np.flatnonzero(edge)  # first repeat of each run, then repeat.size
    pairs = (np.diff(heads) + 1) // 2
    # sorting keeps each window's events at the positions they had
    masked = np.bincount(windows[repeat[heads[:-1]]], weights=pairs,
                         minlength=n_windows).astype(np.int64)
    hits = np.diff(np.searchsorted(windows, np.arange(n_windows + 1)))
    counts = hits - 2 * masked
    total_parity = (np.bincount(cells, minlength=n_cells) & 1).astype(np.uint8)
    return counts, total_parity


def _step_down(thresholds, v_start, delta_v):
    """The step-down rule in closed form, for an int64 array of thresholds."""
    steps = np.maximum((v_start - thresholds) // delta_v + 1, 1)
    return np.maximum(v_start - delta_v * steps, 0)


def sweep_registration(thresholds, v_start, delta_v):
    """First grid voltage at which each cell fails, sweeping down from
    ``v_start`` in ``delta_v`` steps (clamped at 0).

    A cell with threshold ``t`` passes at voltages ``>= t`` and fails
    below; the returned value per cell is the first visited voltage
    strictly below its threshold.  The first visited voltage is
    ``v_start - delta_v``, so a threshold above ``v_start`` registers
    there.

    A block's thresholds are integers below a supply of a few thousand mV
    and it has thousands of cells, so the rule is evaluated once per
    integer voltage from 0 up to ``min(max, v_start)`` and gathered per
    cell, with no per-cell division; a threshold above ``v_start`` shares
    ``v_start``'s entry.  When that top voltage is not below the cell
    count the rule is evaluated per cell instead, so no allocation is
    larger than the cell count, whatever the thresholds or supply.
    """
    thresholds = np.ascontiguousarray(thresholds, dtype=np.int64)
    if delta_v <= 0:
        raise ConfigurationError("delta_v must be positive")
    v_start, delta_v = int(v_start), int(delta_v)
    if not thresholds.size:
        return thresholds.copy()
    if thresholds.min() <= 0:
        raise ConfigurationError("sweep requires strictly positive thresholds")
    top = min(int(thresholds.max()), max(v_start, 0))
    if top >= thresholds.size:
        return _step_down(thresholds, v_start, delta_v)
    table = _step_down(np.arange(top + 1, dtype=np.int64), v_start, delta_v)
    return table.take(thresholds, mode="clip")


def masked_upsets_mc(lam_ts, n_cell_windows, seed):
    """Monte-Carlo count of upsets masked by even multi-flips.

    Draws ``n_cell_windows`` Poisson(``lam_ts``) flip counts and returns
    ``(masked, total)`` where ``masked`` sums the even part of each count.
    """
    if lam_ts < 0:
        raise ValueError("lam_ts must be non-negative")
    rng = np.random.default_rng(int(seed))
    masked = 0
    total = 0
    left = int(n_cell_windows)
    while left > 0:
        m = min(left, _MC_CHUNK)
        k = rng.poisson(float(lam_ts), m)
        total += int(k.sum())
        masked += int((k - (k & 1)).sum())
        left -= m
    return masked, total
