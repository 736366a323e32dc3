"""Behavioral model of the virtual test chip's memory blocks.

A block is a set of six-transistor cells, each described only by three
sampled electrical thresholds, all in integer millivolts:

* ``v_wl_min`` — minimum word-line voltage for a successful write,
* ``v_dd_min_hold`` — minimum core supply at which the stored bit survives,
* ``v_dd_min_read`` — minimum core supply for a successful read.

The stored bits themselves are not modeled: no output depends on them.

Thresholds are drawn per cell from Gaussian distributions whose means and
spreads depend on the cell type; a common per-part offset shifts all
means of one die together.  Out-of-range draws are rejected and redrawn
rather than clamped so the threshold histograms carry no boundary spikes.
Each draw is numpy's ``standard_normal`` fill scaled and shifted in
place, which gives the doubles of ``Generator.normal`` for less work.

``sample_array`` draws ``v_wl_min`` at once: the SER test at nominal
supply and the word-line sweep need nothing else.  The hold and read
thresholds are pending draws from the block's own generator, each run
only when it is first read, always in the order hold, read: reading the
read thresholds first draws the hold ones before them, so a seed gives
the same values whichever is read first, and a hold sweep never draws
the read thresholds.  The block itself counts the cells inoperable at
its supply (``inoperable_cells``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigurationError
from .records import (DEFAULT_COLS, DEFAULT_ROWS, DEFAULT_VDD_MV, json_number,
                      read_json)
from .refdata import CELL_TYPE_ORDER

_MAX_REDRAWS = 1000
# Largest nominal supply: a block's supply, up to twice the nominal, plus
# one sweep step of at most that supply stays within int64 (about 9.2e18).
_MAX_VDD_NOMINAL_MV = 10**18


# glibc raises its mmap and trim thresholds as large blocks are freed, so
# whether a block's arrays reuse the memory of the one before or are
# faulted in afresh depends on all the process allocated earlier; at the
# dynamic rule's ceiling freed blocks are kept.  Without it perfbench's
# large-block wall_s read about 9 % more (4 of 4 pairs on a 2-core host);
# high-flux was unchanged.
if sys.platform.startswith("linux") and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _check_sigma(key: str, sigma: float):
    if not 0 <= sigma < math.inf:  # also rejects nan
        raise ConfigurationError(f"{key} must be finite and >= 0, got {sigma:g}")


@dataclass(frozen=True)
class TypeVariation:
    """Threshold distribution parameters for one cell type (all in mV)."""

    mu_vwlmin: float
    sigma_vwlmin: float
    mu_hold: float
    sigma_hold: float
    mu_read: float
    sigma_read: float

    def __post_init__(self):
        for label in ("vwlmin", "hold", "read"):
            _check_sigma(f"sigma_{label}_mV", getattr(self, f"sigma_{label}"))


@dataclass
class VariationModel:
    """Per-type threshold distributions plus the part-level common offset.

    ``sigma_part`` is the standard deviation of a Gaussian offset added to
    every mean of one part: the distributions of a die shift together while
    their spreads stay put.
    """

    types: dict[str, TypeVariation]
    sigma_part: float = 8.0
    v_dd_nominal: int = DEFAULT_VDD_MV

    def __post_init__(self):
        self.sigma_part = json_number("sigma_part_mV", self.sigma_part)
        _check_sigma("sigma_part_mV", self.sigma_part)
        if not (type(v := self.v_dd_nominal) in (int, float) and v > 0 and v % 1 == 0):
            raise ConfigurationError(
                f"v_dd_nominal_mV must be a positive whole number of mV, got {v!r}")
        if v > _MAX_VDD_NOMINAL_MV:
            raise ConfigurationError(
                f"v_dd_nominal_mV must be at most {_MAX_VDD_NOMINAL_MV:.0e} mV, "
                f"got {json_number('v_dd_nominal_mV', v):g}")
        self.v_dd_nominal = int(v)
        for name, tv in self.types.items():
            if name not in CELL_TYPE_ORDER:
                raise ConfigurationError(
                    f"unknown cell type {name!r}; known: {', '.join(CELL_TYPE_ORDER)}")
            for label in ("vwlmin", "hold", "read"):
                mu = getattr(tv, f"mu_{label}")
                if not 0 < mu <= self.v_dd_nominal:
                    raise ConfigurationError(
                        f"{name}: mu_{label}={mu} outside (0, {self.v_dd_nominal}]"
                    )

    def supply(self, v_dd=None):
        """``v_dd``, or the nominal supply when it is None; a supply that is
        not a whole number of mV within (0, twice the nominal] raises
        ``ConfigurationError``."""
        v_dd = self.v_dd_nominal if v_dd is None else v_dd
        if not (0 < v_dd <= 2 * self.v_dd_nominal and v_dd == int(v_dd)):
            raise ConfigurationError(
                f"--vdd (v_dd) must be a whole number of mV within "
                f"(0, {2 * self.v_dd_nominal}], got {v_dd}")
        return v_dd

    def for_type(self, name: str) -> TypeVariation:
        try:
            return self.types[name]
        except KeyError:
            raise ConfigurationError(f"no variation parameters for cell type {name!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "VariationModel":
        """Model of a parsed model file; each number (``json_number``) is keyed
        by its field's name plus ``_mV``, and a key left out takes the default."""
        types = {name: TypeVariation(**{f.name: json_number(f"{f.name}_mV", p[f"{f.name}_mV"])
                                        for f in fields(TypeVariation)})
                 for name, p in raw["cell_types"].items()}
        return cls(types=types, **{f: raw[f"{f}_mV"] for f in ("sigma_part", "v_dd_nominal")
                                   if f"{f}_mV" in raw})

    @classmethod
    def from_json(cls, path) -> "VariationModel":
        """Load a model file; a malformed one raises ``ConfigurationError``
        naming the file."""
        return read_json(path, cls.from_dict, ConfigurationError)

    @classmethod
    def default(cls) -> "VariationModel":
        """Bundled model transcribed from the reference measurements."""
        bundled = Path(__file__).parent / "data" / "variation_model.json"
        return cls.from_json(bundled)


class MemoryArray:
    """One memory block: per-cell thresholds and its true upset rate.

    ``v_wl_min`` is given; the hold and read thresholds come from
    ``draw_pending``, a callable returning an iterable of the two, in that
    order.  It is called on first access of either, and each item is taken
    only when it is first read, the hold thresholds always before the read
    ones.  ``threshold_ceiling`` bounds every threshold of the block: at or
    above it no cell is inoperable, and ``inoperable_cells`` draws and
    compares nothing.
    """

    def __init__(self, part_id: str, cell_type: str, v_wl_min: np.ndarray,
                 true_seu_rate: float, v_dd: int = DEFAULT_VDD_MV, *,
                 draw_pending: Callable[[], Iterable[np.ndarray]],
                 threshold_ceiling: float = math.inf):
        self.part_id = part_id
        self.cell_type = cell_type
        self.v_wl_min = v_wl_min
        if np.ndim(true_seu_rate) != 0 or not true_seu_rate >= 0:  # also rejects nan
            raise ConfigurationError("--rate (true_seu_rate) must be one number >= 0")
        self.true_seu_rate = float(true_seu_rate)
        self.v_dd = v_dd
        self.threshold_ceiling = threshold_ceiling
        self._draw_pending = draw_pending

    @functools.cached_property
    def _pending(self):
        return iter(self._draw_pending())

    def _next_pending(self, name: str) -> np.ndarray:
        values = next(self._pending)
        if np.shape(values) != (self.n_cells,):
            raise ConfigurationError(f"{name} must have {self.n_cells} entries")
        return values

    @functools.cached_property
    def v_dd_min_hold(self) -> np.ndarray:
        return self._next_pending("v_dd_min_hold")

    @functools.cached_property
    def v_dd_min_read(self) -> np.ndarray:
        self.v_dd_min_hold  # drawn first, from the same generator
        return self._next_pending("v_dd_min_read")

    @property
    def n_cells(self) -> int:
        return np.size(self.v_wl_min)

    def inoperable_cells(self, thresholds: np.ndarray | None = None) -> int:
        """Cells that cannot be written at ``v_dd`` or whose ``thresholds``
        (by default the read thresholds) lie above it."""
        if self.v_dd >= self.threshold_ceiling:
            return 0
        bad = self.v_wl_min > self.v_dd
        bad |= (self.v_dd_min_read if thresholds is None else thresholds) > self.v_dd
        return int(np.count_nonzero(bad))


def seed_sequence(seed) -> np.random.SeedSequence:
    """``seed``, an int or a ``SeedSequence``, as a ``SeedSequence``; a
    negative int raises ``ConfigurationError`` naming ``--seed``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
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
    """Integer-mV Gaussian draws, redrawn until inside (0, v_dd_nominal];
    checked as floats, so a draw beyond ``int64`` is redrawn, never cast."""
    out = np.rint(_normal(rng, mu, sigma, n))
    for _ in range(_MAX_REDRAWS):
        bad = (out < 1) | (out > v_dd_nominal)
        n_bad = np.count_nonzero(bad)
        if n_bad == 0:
            return out.astype(np.int64)
        out[bad] = np.rint(_normal(rng, mu, sigma, n_bad))
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
    fixed ``seed`` (an int or a ``SeedSequence``): the write thresholds
    are drawn now, the hold and read thresholds later, in that order, from
    the same generator, each when a protocol first reads it (see the
    module docstring).  Every threshold lies in
    ``[1, model.v_dd_nominal]``.  ``true_seu_rate`` (µSEU per bit-second)
    is the ground-truth upset rate handed to the radiation simulator, one
    scalar shared by every cell of the block.  ``v_dd`` (default: the
    nominal supply) is a whole number of mV up to twice the nominal.
    """
    vnom = model.v_dd_nominal
    v_dd = model.supply(v_dd)
    if not math.isfinite(part_offset):
        raise ConfigurationError(
            f"--part-offset (part_offset) must be finite, got {part_offset}")
    if rows <= 0 or cols <= 0:
        raise ConfigurationError("geometry must be positive")
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise ConfigurationError(
            "seed must be an int or a SeedSequence: the pending draw needs a "
            "generator of the block's own")
    if cell_type not in CELL_TYPE_ORDER:
        raise ConfigurationError(
            f"unknown cell type {cell_type!r}; known: {', '.join(CELL_TYPE_ORDER)}")
    tv = model.for_type(cell_type)
    n = rows * cols
    rng = np.random.default_rng(seed_sequence(seed))
    v_wl_min = _sample_thresholds(rng, tv.mu_vwlmin + part_offset, tv.sigma_vwlmin, n, vnom)

    def draw_pending():
        yield _sample_thresholds(rng, tv.mu_hold + part_offset, tv.sigma_hold, n, vnom)
        yield _sample_thresholds(rng, tv.mu_read + part_offset, tv.sigma_read, n, vnom)

    return MemoryArray(
        part_id=str(part_id),
        cell_type=cell_type,
        v_wl_min=v_wl_min,
        true_seu_rate=true_seu_rate,
        v_dd=int(v_dd),
        draw_pending=draw_pending,
        threshold_ceiling=vnom,
    )
