"""Numeric inner loops of the simulator, in numpy.

The hot paths are small operations over cell arrays: counting observed
per-window bit flips (a sort of per-event keys, then each window's hits
minus twice its pairs of repeated hits: one ``reduceat`` sum of the
repeats over the window offsets, less a correction for the rare runs of
three or more hits), reducing a voltage sweep to its failure histogram
and threshold mean and spread (a closed form evaluated once per distinct
threshold, its level table built in place; the mean exact from the
per-threshold counts, one per-cell gather for the spread) and
Monte-Carlo sampling of masked upsets.  ``observed_flips`` counts from
each window's offset among the events, as the SER test finds them;
``window_observed_flips`` takes each event's window index, checks the
indices and counts through the same offsets.  ``window_observed_flips``
and ``sweep_registration`` are deterministic and refuse indices,
thresholds, start voltages or steps that are not integers; the flip count
refuses a cell out of range and adds the event cells in its key's dtype,
so the ``int32`` cells that ``generate_events`` draws for blocks of up to
``2**31`` cells are never widened.  ``masked_upsets_mc`` is deterministic
for a fixed seed.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ConfigurationError

_MC_CHUNK = 4_000_000  # bounds the Monte-Carlo working set
_NOT_POSITIVE = "sweep requires strictly positive thresholds"


def window_observed_flips(windows, cells, n_windows, n_cells):
    """Per-window observed flip counts plus the events hitting each window.

    ``windows`` and ``cells`` must be integer arrays (any other dtype
    raises ``ValueError`` naming the argument), ``windows`` non-decreasing
    (events sorted by time), every entry in ``[0, n_windows)`` and every
    cell in ``[0, n_cells)``.
    Returns ``(counts, hits)`` where ``counts[i]`` is the number of cells
    whose read-back changed in window ``i`` and ``hits[i]`` the number of
    events in it; ``hits - counts`` is the even number of upsets masked.

    The window indices are checked and turned into each window's offset,
    one binary search per window, and ``observed_flips`` counts from those.
    """
    windows, cells = np.asarray(windows), np.asarray(cells)
    for name, values in (("windows", windows), ("cells", cells)):
        if values.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integer indices, got dtype {values.dtype}")
    if windows.size != cells.size:
        raise ValueError("windows and cells must have the same length")
    n_windows, n_cells = int(n_windows), int(n_cells)
    if not cells.size:
        return np.zeros(n_windows, dtype=np.int64), np.zeros(n_windows, dtype=np.int64)
    if windows[0] < 0 or windows[-1] >= n_windows:
        raise ValueError("window index out of range")
    if (windows[1:] < windows[:-1]).any():
        raise ValueError("windows must be sorted")
    return observed_flips(np.searchsorted(windows, np.arange(n_windows + 1)), cells, n_cells)


def observed_flips(offsets, cells, n_cells):
    """``(counts, hits)`` of ``window_observed_flips`` for events sorted by
    window, window ``i`` holding events ``offsets[i]`` to ``offsets[i + 1]``.

    ``offsets`` is a non-decreasing ``int64`` array from 0 to ``cells.size``,
    one entry more than there are windows, and ``cells`` an integer array;
    a cell outside ``[0, n_cells)`` raises ``ValueError``.

    Each event becomes the key ``window * n_cells + cell``, as ``int32``
    when every key fits and ``int64`` otherwise: each window's base
    repeated over its events, plus the cells, added in the key's dtype, so
    ``int32`` cells (as ``generate_events`` draws them) take a one-dtype
    loop and no copy.  The keys are sorted in place.  A cell hit ``L``
    times within one window forms a run of ``L`` equal keys and reads back
    changed iff ``L`` is odd, so ``L // 2`` pairs of hits go unseen.
    Sorting keeps each window's events at the offsets they had, so one
    ``np.add.reduceat`` of the repeat flags over the offsets gives each
    window's ``sum(L - 1)``; the pairs are that less ``sum((L - 1) // 2)``,
    which only the rare runs of three or more keys add to, found among the
    positions that repeat twice in a row.
    """
    hits = offsets[1:] - offsets[:-1]
    if cells.size and (cells.min() < 0 or cells.max() >= n_cells):
        raise ValueError("cell index out of range")
    n_windows = hits.size
    dtype = np.int32 if n_windows * n_cells < 2**31 else np.int64
    key = np.repeat(np.arange(0, n_windows * n_cells, n_cells, dtype=dtype), hits)
    np.add(key, cells, out=key, dtype=dtype)
    key.sort()
    # repeat[j]: event j has the key of event j - 1; False at both ends, so
    # an empty window's reduceat term, repeat at the next window's start, is
    # 0.  reduceat first casts all of repeat to its dtype: int32 unless one
    # window could hold 2**31 events
    repeat = np.empty(key.size + 1, dtype=bool)
    repeat[0] = repeat[-1] = False
    np.equal(key[1:], key[:-1], out=repeat[1:-1])
    pairs = np.add.reduceat(repeat, offsets[:-1],
                            dtype=np.int32 if key.size < 2**31 else np.int64)
    # a run of L >= 3 keys repeats twice in a row at L - 2 consecutive
    # positions; runs are at least three positions apart
    twice = (repeat[1:-2] & repeat[2:-1]).nonzero()[0]
    if twice.size:
        edge = np.empty(twice.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(twice[1:], twice[:-1] + 1, out=edge[1:-1])
        heads = np.flatnonzero(edge)  # first position of each run, then twice.size
        np.subtract.at(pairs, key[twice[heads[:-1]]] // n_cells,
                       (np.diff(heads) + 1) // 2)
    counts = hits - 2 * pairs
    return counts, hits


def sweep_registration(thresholds, v_start, delta_v):
    """Failure histogram, ``mu`` and ``sigma`` of a sweep down from
    ``v_start`` in ``delta_v`` steps (clamped at 0) over cells with the
    given integer thresholds.

    A cell with threshold ``t`` passes at voltages ``>= t`` and registers
    at the first visited voltage below it, ``max(v_start - delta_v * k, 0)``
    with ``k = max((v_start - t) // delta_v + 1, 1)``; a threshold above
    ``v_start`` registers at the first step.  Its threshold is estimated
    as that voltage plus half a step (midpoint correction), which removes
    the quantization bias of the grid.  Returns ``(histogram, mu,
    sigma)``: cells per registration voltage, ascending, and the mean and
    sample standard deviation of the per-cell midpoints.

    The closed form is evaluated once per distinct threshold: while the
    top threshold is below the cell count (integers below a supply of a
    few thousand mV, thousands of cells), per integer up to it, counted
    by one ``bincount``; otherwise per value ``np.unique`` finds, so no
    allocation is larger than the cell count.  The registration never
    falls as the threshold rises, so one ``np.add.reduceat`` sums the
    histogram over runs of equal voltages.  Every midpoint is a multiple
    of 0.5, so while ``n_cells * (max(v_start, 0) + delta_v) < 2**52``
    every partial sum of the midpoints, in any order and with any
    multiplicity, is exact in a double, and the per-cell mean is the
    correctly rounded exact mean: ``mu`` is the dot product of the
    per-threshold counts and midpoints over the cell count, with no pass
    over the cells.  Above that bound (a start above about 1.7e10 mV at
    262 144 cells) ``mu`` is the mean of the midpoints gathered per cell.
    ``sigma`` is reduced over the squared deviations gathered per cell, one
    gather, not over the histogram: its last bits follow numpy's pairwise
    summation over the cells, and the fixed-seed outputs pin them.  An
    empty block, a threshold, ``v_start`` or ``delta_v`` that is not an
    integer (a bool is not), or a threshold or step that is not positive,
    raises ``ConfigurationError``; the thresholds' sign is checked on the
    distinct values, with no pass of its own.
    """
    thresholds = np.asarray(thresholds)
    if thresholds.dtype.kind not in "iu":
        raise ConfigurationError(
            f"sweep thresholds must be integers, got dtype {thresholds.dtype}")
    thresholds = np.ascontiguousarray(thresholds, dtype=np.int64)
    for name, value in (("v_start", v_start), ("delta_v", delta_v)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(f"sweep {name} must be an integer, got {value!r}")
    # by value: a numpy uint64 would turn the int64 grid arithmetic into floats
    v_start, delta_v = operator.index(v_start), operator.index(delta_v)
    if delta_v <= 0:
        raise ConfigurationError("delta_v must be positive")
    if not thresholds.size:
        raise ConfigurationError("sweep requires at least one cell")
    if thresholds.max() >= thresholds.size:
        values, index, counts = np.unique(thresholds, return_inverse=True,
                                          return_counts=True)
        if values[0] <= 0:
            raise ConfigurationError(_NOT_POSITIVE)
    else:
        try:
            counts = np.bincount(thresholds)
        except ValueError:  # bincount refuses a negative value
            raise ConfigurationError(_NOT_POSITIVE) from None
        if counts[0]:
            raise ConfigurationError(_NOT_POSITIVE)
        values, index = np.arange(counts.size, dtype=np.int64), thresholds
    # levels = max(v_start - delta_v * k, 0) with k - 1 = max((v_start - t) // delta_v, 0)
    levels = v_start - values
    levels //= delta_v
    np.maximum(levels, 0, out=levels)
    levels *= -delta_v
    levels += v_start - delta_v
    np.maximum(levels, 0, out=levels)
    seen = counts.nonzero()[0]
    seen_levels = levels[seen]
    change = np.empty(seen_levels.size, dtype=bool)
    change[0] = True
    np.not_equal(seen_levels[1:], seen_levels[:-1], out=change[1:])
    starts = change.nonzero()[0]
    histogram = dict(zip(seen_levels[starts].tolist(),
                         np.add.reduceat(counts[seen], starts).tolist()))
    mid = levels + delta_v / 2.0
    n = index.size
    # every index is in range: mode "clip" gathers without a bounds pass
    if n * (max(v_start, 0) + delta_v) < 2**52:
        mu = float(counts @ mid) / n
    else:
        mu = float(mid.take(index, mode="clip").mean())
    sigma = 0.0
    if n > 1:
        mid -= mu
        mid *= mid
        sigma = math.sqrt(float(mid.take(index, mode="clip").sum()) / (n - 1))
    return histogram, mu, sigma


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
