"""Numeric inner loops of the simulator, in numpy.

The hot paths are small operations over cell arrays: counting observed
per-window bit flips, registering sweep failures and Monte-Carlo sampling
of masked upsets.  ``window_observed_flips`` and ``sweep_registration``
are deterministic; ``masked_upsets_mc`` is deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_MC_CHUNK = 4_000_000  # bounds the Monte-Carlo working set


def window_observed_flips(windows, cells, n_windows, n_cells):
    """Per-window observed flip counts plus the total flip parity per cell.

    ``windows`` must be non-decreasing (events sorted by time) and every
    entry must lie in ``[0, n_windows)``.  Returns ``(counts, parity)``
    where ``counts[i]`` is the number of cells whose read-back changed in
    window ``i`` and ``parity`` is the cumulative XOR mask over all events.
    """
    windows = np.ascontiguousarray(windows, dtype=np.int64)
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if windows.size != cells.size:
        raise ValueError("windows and cells must have the same length")
    if windows.size:
        if windows[0] < 0 or windows[-1] >= n_windows:
            raise ValueError("window index out of range")
        if np.any(np.diff(windows) < 0):
            raise ValueError("windows must be sorted")
    n_windows, n_cells = int(n_windows), int(n_cells)
    counts = np.zeros(n_windows, dtype=np.int64)
    if cells.size:
        # a cell reads back differently from the previous window iff it was
        # hit an odd number of times inside the window
        composite = windows * np.int64(n_cells) + cells
        uniq, multiplicity = np.unique(composite, return_counts=True)
        odd = uniq[(multiplicity & 1) == 1]
        counts = np.bincount(odd // n_cells, minlength=n_windows).astype(np.int64)
    total_parity = (np.bincount(cells, minlength=n_cells) & 1).astype(np.uint8)
    return counts, total_parity


def sweep_registration(thresholds, v_start, delta_v):
    """First grid voltage at which each cell fails, sweeping down from
    ``v_start`` in ``delta_v`` steps (clamped at 0).

    A cell with threshold ``t`` passes at voltages ``>= t`` and fails
    below; the returned value per cell is the first visited voltage
    strictly below its threshold.  The first visited voltage is
    ``v_start - delta_v``, so a threshold above ``v_start`` registers
    there.
    """
    thresholds = np.ascontiguousarray(thresholds, dtype=np.int64)
    if delta_v <= 0:
        raise ConfigurationError("delta_v must be positive")
    if np.any(thresholds <= 0):
        raise ConfigurationError("sweep requires strictly positive thresholds")
    v_start, delta_v = int(v_start), int(delta_v)
    steps = np.maximum((v_start - thresholds) // delta_v + 1, 1)
    return np.maximum(v_start - delta_v * steps, 0)


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
