"""Behavioral model of the virtual test chip's memory blocks.

A block is a set of six-transistor cells, each described only by three
sampled electrical thresholds, all in integer millivolts:

* ``v_wl_min`` — minimum word-line voltage for a successful write,
* ``v_dd_min_hold`` — minimum core supply at which the stored bit survives,
* ``v_dd_min_read`` — minimum core supply for a successful read.

The stored bits themselves are not modeled: no output depends on them.

Thresholds are drawn per cell from Gaussian distributions whose means and
spreads depend on the cell type; a common per-part offset shifts all
means of one die together.  Those parameters are a ``VariationModel``,
a record that ``records`` reads from a model file without numpy; this
module names it too, as ``sram.VariationModel`` (its per-type
``TypeVariation`` only ``records`` names).  Out-of-range draws are
rejected and redrawn rather than clamped so the threshold histograms
carry no boundary spikes; a set that could not be drawn within
``MAX_REDRAWS`` redraws, because a part offset moved its mean out of
reach, is refused before it is drawn.  A block has at most
``MAX_EXPECTED_EVENTS`` (4096 x 4096) cells.
Each draw is numpy's ``standard_normal`` fill scaled and shifted in
place, which gives the doubles of ``Generator.normal`` for less work,
then rounded in the same buffer and, once in range, cast to ``int64`` in
place: a draw of ``n`` cells allocates one buffer of ``n`` doubles.

``sample_array`` draws ``v_wl_min`` at once: the SER test at nominal
supply and the word-line sweep need nothing else.  The block keeps the
callable that draws the hold and read thresholds from its own generator
and calls it for each set only when the set is first read, always in the
order hold, read: reading the read thresholds first draws the hold ones
before them, so a seed gives the same values whichever is read first,
and a hold sweep never draws the read thresholds.  The block itself
counts the cells inoperable at its supply (``inoperable_cells``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from typing import Callable

import numpy as np

from .errors import ConfigurationError
# ``VariationModel`` lives in ``records`` and stays a name of this module too
from .records import (DEFAULT_COLS, DEFAULT_ROWS, DEFAULT_VDD_MV,  # noqa: F401
                      MAX_EXPECTED_EVENTS, MAX_REDRAWS, VariationModel, _check_convergence)
from .refdata import CELL_TYPE_ORDER


# glibc raises its mmap and trim thresholds as large blocks are freed, so
# whether a block's arrays reuse the memory of the one before or are
# faulted in afresh depends on all the process allocated earlier; at the
# dynamic rule's ceiling freed blocks are kept.  Without it perfbench's
# large-block wall_s read about 9 % more (4 of 4 pairs on a 2-core host);
# high-flux was unchanged.  One arena: the thread that draws large blocks
# ahead (``pipeline._measured``) would otherwise get an arena of its own,
# whose freed blocks the main thread cannot reuse; large-block peak RSS
# read 56.6 and 58.8 MB that way against 52.8 MB with one arena.
if sys.platform.startswith("linux") and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    _libc.mallopt(-8, 1)  # M_ARENA_MAX


class MemoryArray:
    """One memory block: per-cell thresholds and its true upset rate.

    ``v_wl_min`` is given; the hold and read thresholds come from
    ``draw``, called with ``"hold"`` or ``"read"`` when that set is first
    read, each at most once and the hold set always first.
    ``threshold_ceiling`` bounds every threshold of the block: at or
    above it no cell is inoperable, and ``inoperable_cells`` draws and
    compares nothing.
    """

    def __init__(self, part_id: str, cell_type: str, v_wl_min: np.ndarray,
                 true_seu_rate: float, v_dd: int = DEFAULT_VDD_MV, *,
                 draw: Callable[[str], np.ndarray],
                 threshold_ceiling: float = math.inf):
        self.part_id = part_id
        self.cell_type = cell_type
        self.v_wl_min = v_wl_min
        self.n_cells = np.size(v_wl_min)
        if np.ndim(true_seu_rate) != 0 or not true_seu_rate >= 0:  # also rejects nan
            raise ConfigurationError("--rate (true_seu_rate) must be one number >= 0")
        self.true_seu_rate = float(true_seu_rate)
        self.v_dd = v_dd
        self.threshold_ceiling = threshold_ceiling
        self._draw = draw

    def _drawn(self, label: str) -> np.ndarray:
        values = self._draw(label)
        if np.shape(values) != (self.n_cells,):
            raise ConfigurationError(f"v_dd_min_{label} must have {self.n_cells} entries")
        return values

    @functools.cached_property
    def v_dd_min_hold(self) -> np.ndarray:
        return self._drawn("hold")

    @functools.cached_property
    def v_dd_min_read(self) -> np.ndarray:
        self.v_dd_min_hold  # drawn first, from the same generator
        return self._drawn("read")

    def inoperable_cells(self, thresholds: np.ndarray | None = None) -> int:
        """Cells that cannot be written at ``v_dd`` or whose ``thresholds``
        (by default the read thresholds) lie above it."""
        if self.v_dd >= self.threshold_ceiling:
            return 0
        bad = self.v_wl_min > self.v_dd
        bad |= (self.v_dd_min_read if thresholds is None else thresholds) > self.v_dd
        return int(np.count_nonzero(bad))


def seed_sequence(seed) -> np.random.SeedSequence:
    """``seed``, a non-negative int (a numpy integer, not a bool) or a
    ``SeedSequence``, as a ``SeedSequence``; any other seed, a generator
    among them, raises ``ConfigurationError`` naming ``--seed``.  Every
    seeded draw of the simulator takes its seed through here."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigurationError(
            f"--seed (seed) must be a non-negative integer or a SeedSequence, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"--seed (seed) must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(seed)


def _normal(rng, mu, sigma, n):
    """``rng.normal(mu, sigma, n)``, the same doubles: numpy computes each as
    ``mu + sigma * z`` from the ``standard_normal`` stream, and the fill loop
    plus an in-place scale and shift costs less than the per-element call.
    A huge ``sigma`` overflows to infinity, which the caller redraws."""
    z = rng.standard_normal(n)
    with np.errstate(over="ignore"):
        z *= sigma
        z += mu
    return z


def _sample_thresholds(rng, mu, sigma, n, v_dd_nominal):
    """Integer-mV Gaussian draws, redrawn until inside [1, v_dd_nominal].

    The draw is filled, scaled, shifted and rounded in one float64 buffer,
    and its range is checked by ``min`` and ``max`` (a NaN fails both);
    only a draw with a value out of range builds the mask of the values to
    redraw.  The range is checked as floats, so a draw beyond ``int64`` is
    redrawn, never cast.  The accepted buffer is cast to ``int64`` in
    place, each element at its own address, so the draw allocates one
    buffer of ``n`` doubles and no copy of it."""
    out = _normal(rng, mu, sigma, n)
    np.rint(out, out=out)
    for _ in range(MAX_REDRAWS):
        if out.min() >= 1 and out.max() <= v_dd_nominal:
            ints = out.view(np.int64)
            np.copyto(ints, out, casting="unsafe")
            return ints
        bad = ~((out >= 1) & (out <= v_dd_nominal))
        redraw = _normal(rng, mu, sigma, np.count_nonzero(bad))
        out[bad] = np.rint(redraw, out=redraw)
    raise ConfigurationError(
        f"threshold sampling did not converge for mu={mu}, sigma={sigma}"
    )


def sample_array(
    cell_type: str,
    model: VariationModel,
    part_offset: float = 0.0,
    seed=0,
    rows: int = DEFAULT_ROWS,
    cols: int = DEFAULT_COLS,
    true_seu_rate: float = 0.0,
    part_id: str = "0",
    v_dd: int | None = None,
) -> MemoryArray:
    """Build a block of ``rows * cols`` cells with thresholds drawn from
    the model.

    ``cell_type`` is one of ``CELL_TYPE_ORDER``.  ``part_offset`` (mV)
    shifts all three means of this part.  The draw is deterministic for a
    fixed ``seed`` (see ``seed_sequence``): the write thresholds
    are drawn now, the hold and read thresholds later, in that order, from
    the same generator, each when a protocol first reads it (see the
    module docstring).  Every threshold lies in
    ``[1, model.v_dd_nominal]``.  ``true_seu_rate`` (µSEU per bit-second)
    is the ground-truth upset rate handed to the radiation simulator, one
    scalar shared by every cell of the block.  ``v_dd`` (default: the
    nominal supply) is a whole number of mV up to twice the nominal.
    ``rows`` and ``cols`` are positive integers, not bools, whose product
    is at most ``MAX_EXPECTED_EVENTS``.  A threshold set whose cells the
    ``part_offset`` leaves a chance below 1e-9 to all land within
    ``MAX_REDRAWS`` redraws is refused before it is drawn, naming the
    option, the type and the key (``records._check_convergence``).
    """
    v_dd = model.supply(v_dd)
    if not math.isfinite(part_offset):
        raise ConfigurationError(
            f"--part-offset (part_offset) must be finite, got {part_offset}")
    n = _block_cells(rows, cols)
    if cell_type not in CELL_TYPE_ORDER:
        raise ConfigurationError(
            f"unknown cell type {cell_type!r}; known: {', '.join(CELL_TYPE_ORDER)}")
    return _sampled(cell_type, model, part_offset, seed, n, true_seu_rate, str(part_id),
                    int(v_dd))


def _block_cells(rows, cols) -> int:
    """``rows * cols``, the cells of a block; ``rows`` and ``cols`` must be
    positive integers, not bools, whose product is at most
    ``MAX_EXPECTED_EVENTS``, or ``ConfigurationError`` is raised."""
    if (isinstance(rows, bool) or not isinstance(rows, (int, np.integer)) or rows < 1
            or isinstance(cols, bool) or not isinstance(cols, (int, np.integer)) or cols < 1
            or int(rows) * int(cols) > MAX_EXPECTED_EVENTS):
        raise ConfigurationError(
            f"rows and cols must be positive integers whose product is at most "
            f"{MAX_EXPECTED_EVENTS} (4096 x 4096), got {rows!r} x {cols!r}")
    return int(rows) * int(cols)


def _sampled(cell_type: str, model: VariationModel, part_offset: float, seed, n: int,
             true_seu_rate: float, part_id: str, v_dd: int) -> MemoryArray:
    """The block of ``n`` cells that ``sample_array`` builds once it has
    checked the inputs a batch shares (supply, part offset, geometry and
    cell type), which a batch checks once (``pipeline._checked``).  The
    model's entry for the type, the seed, the rate and the landing of each
    threshold set under the part offset are checked here, per block."""
    tv = model.for_type(cell_type)
    vnom = model.v_dd_nominal
    rng = np.random.default_rng(seed_sequence(seed))

    def draw(label):
        mu, sigma = getattr(tv, f"mu_{label}"), getattr(tv, f"sigma_{label}")
        _check_convergence(
            lambda: f"--part-offset (part_offset) {part_offset:g} moves type {cell_type}'s "
                    f"mu_{label}_mV {mu:g} to {mu + part_offset:g} mV, where sigma_{label}_mV "
                    f"{sigma:g}", mu + part_offset, sigma, vnom, n)
        return _sample_thresholds(rng, mu + part_offset, sigma, n, vnom)

    return MemoryArray(
        part_id=part_id,
        cell_type=cell_type,
        v_wl_min=draw("vwlmin"),
        true_seu_rate=true_seu_rate,
        v_dd=v_dd,
        draw=draw,
        threshold_ceiling=vnom,
    )
