"""Numeric inner loops of the simulator, in numpy.

The hot paths are small operations over cell arrays: counting observed
per-window bit flips (a sort of per-event keys, then each window's hits
minus twice its pairs of repeated hits: one ``reduceat`` sum of the
repeats per window, less a correction for the rare runs of three or more
hits), registering sweep failures (a closed form evaluated once per
distinct threshold: per integer voltage up to the block's top threshold
when that is below the cell count, else per value ``np.unique`` finds)
and Monte-Carlo sampling of masked upsets.  ``window_observed_flips``
and ``sweep_registration`` are deterministic; ``masked_upsets_mc`` is
deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_MC_CHUNK = 4_000_000  # bounds the Monte-Carlo working set


def window_observed_flips(windows, cells, n_windows, n_cells):
    """Per-window observed flip counts plus the events hitting each window.

    ``windows`` must be non-decreasing (events sorted by time), every
    entry must lie in ``[0, n_windows)`` and every cell in ``[0, n_cells)``.
    Returns ``(counts, hits)`` where ``counts[i]`` is the number of cells
    whose read-back changed in window ``i`` and ``hits[i]`` the number of
    events in it; ``hits - counts`` is the even number of upsets masked.

    Each event becomes the key ``window * n_cells + cell``, as ``int32``
    when every key fits and ``int64`` otherwise, and the keys are sorted in
    place.  A cell hit ``L`` times within one window forms a run of ``L``
    equal keys and reads back changed iff ``L`` is odd, so ``L // 2`` pairs
    of hits go unseen.  Sorting keeps each window's events at the positions
    they had, so one ``np.add.reduceat`` of the repeat flags over the
    window starts gives each window's ``sum(L - 1)``; the pairs are that
    less ``sum((L - 1) // 2)``, which only the rare runs of three or more
    keys add to, found among the positions that repeat twice in a row.
    """
    windows = np.asarray(windows)
    cells = np.asarray(cells, dtype=np.int64)
    if windows.size != cells.size:
        raise ValueError("windows and cells must have the same length")
    n_windows, n_cells = int(n_windows), int(n_cells)
    if not cells.size:
        return np.zeros(n_windows, dtype=np.int64), np.zeros(n_windows, dtype=np.int64)
    if windows[0] < 0 or windows[-1] >= n_windows:
        raise ValueError("window index out of range")
    if (windows[1:] < windows[:-1]).any():
        raise ValueError("windows must be sorted")
    if cells.min() < 0 or cells.max() >= n_cells:
        raise ValueError("cell index out of range")
    key = windows.astype(np.int32 if n_windows * n_cells < 2**31 else np.int64)
    starts = np.searchsorted(key, np.arange(n_windows + 1, dtype=key.dtype))
    hits = starts[1:] - starts[:-1]
    key *= n_cells
    np.add(key, cells, out=key)
    key.sort()
    # repeat[j]: event j has the key of event j - 1; False at both ends, so
    # an empty window's reduceat term, repeat at the next window's start, is
    # 0.  reduceat first casts all of repeat to its dtype: int32 unless one
    # window could hold 2**31 events
    repeat = np.empty(key.size + 1, dtype=bool)
    repeat[0] = repeat[-1] = False
    np.equal(key[1:], key[:-1], out=repeat[1:-1])
    pairs = np.add.reduceat(repeat, starts[:-1],
                            dtype=np.int32 if key.size < 2**31 else np.int64)
    # a run of L >= 3 keys repeats twice in a row at L - 2 consecutive
    # positions; runs are at least three positions apart
    twice = np.flatnonzero(repeat[1:-2] & repeat[2:-1])
    if twice.size:
        edge = np.empty(twice.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(twice[1:], twice[:-1] + 1, out=edge[1:-1])
        heads = np.flatnonzero(edge)  # first position of each run, then twice.size
        np.subtract.at(pairs, windows[twice[heads[:-1]]], (np.diff(heads) + 1) // 2)
    counts = hits - 2 * pairs
    return counts, hits


def _step_down(thresholds, v_start, delta_v):
    """The step-down rule in closed form, for an int64 array of thresholds."""
    steps = np.maximum((v_start - thresholds) // delta_v + 1, 1)
    return np.maximum(v_start - delta_v * steps, 0)


def sweep_registration(thresholds, v_start, delta_v):
    """First grid voltage at which each cell fails, sweeping down from
    ``v_start`` in ``delta_v`` steps (clamped at 0), per distinct threshold.

    A cell with threshold ``t`` passes at voltages ``>= t`` and fails
    below; it registers at the first visited voltage strictly below its
    threshold.  The first visited voltage is ``v_start - delta_v``, so a
    threshold above ``v_start`` registers there.

    Returns ``(levels, counts, index)``: ``levels[k]`` is where the
    ``k``-th threshold value registers and ``counts[k]`` how many cells
    have that value, and cell ``i`` registers at ``levels[index[i]]``.  ``levels`` never
    decreases as the threshold rises.  A block's thresholds are integers
    below a supply of a few thousand mV and it has thousands of cells, so
    while the top threshold is below the cell count the values are every
    integer from 0 up to it: ``counts`` is a ``bincount`` and ``index``
    the thresholds themselves, not a copy.  Otherwise they are the
    distinct thresholds ``np.unique`` finds, so no allocation is larger
    than the cell count, whatever the thresholds or supply.
    """
    thresholds = np.ascontiguousarray(thresholds, dtype=np.int64)
    if delta_v <= 0:
        raise ConfigurationError("delta_v must be positive")
    v_start, delta_v = int(v_start), int(delta_v)
    if not thresholds.size:
        return thresholds.copy(), thresholds.copy(), thresholds
    if thresholds.min() <= 0:
        raise ConfigurationError("sweep requires strictly positive thresholds")
    top = int(thresholds.max())
    if top >= thresholds.size:
        values, index, counts = np.unique(thresholds, return_inverse=True,
                                          return_counts=True)
        return _step_down(values, v_start, delta_v), counts, index
    levels = _step_down(np.arange(top + 1, dtype=np.int64), v_start, delta_v)
    return levels, np.bincount(thresholds), thresholds


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
