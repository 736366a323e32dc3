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

``sample_array`` draws ``v_wl_min`` at once: the SER test at nominal
supply and the word-line sweep need nothing else.  The hold and read
thresholds are one pending draw from the block's own generator, run on
first access of either, in the fixed order hold, read, so a seed gives
the same values whichever of them is read first.
"""

from __future__ import annotations

import ctypes
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .records import DEFAULT_COLS, DEFAULT_ROWS, DEFAULT_VDD_MV
from .refdata import CELL_TYPE_ORDER

_MAX_REDRAWS = 1000


# glibc raises its mmap and trim thresholds as large blocks are freed, so
# whether a SER test reuses the memory of the one before or faults it in
# afresh depends on all the process allocated earlier (3.6k or 60k faults
# per high-flux pass); at the dynamic rule's ceiling freed blocks are kept
if sys.platform.startswith("linux") and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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
            if getattr(self, f"sigma_{label}") < 0:
                raise ConfigurationError(f"sigma_{label} must be >= 0")


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
        if self.sigma_part < 0:
            raise ConfigurationError("sigma_part must be >= 0")
        if self.v_dd_nominal <= 0:
            raise ConfigurationError("v_dd_nominal must be positive")
        for name, tv in self.types.items():
            for label in ("vwlmin", "hold", "read"):
                mu = getattr(tv, f"mu_{label}")
                if not 0 < mu <= self.v_dd_nominal:
                    raise ConfigurationError(
                        f"{name}: mu_{label}={mu} outside (0, {self.v_dd_nominal}]"
                    )

    def for_type(self, name: str) -> TypeVariation:
        try:
            return self.types[name]
        except KeyError:
            raise ConfigurationError(f"no variation parameters for cell type {name!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "VariationModel":
        types = {}
        for name, p in raw["cell_types"].items():
            types[name] = TypeVariation(
                mu_vwlmin=float(p["mu_vwlmin_mV"]),
                sigma_vwlmin=float(p["sigma_vwlmin_mV"]),
                mu_hold=float(p["mu_hold_mV"]),
                sigma_hold=float(p["sigma_hold_mV"]),
                mu_read=float(p["mu_read_mV"]),
                sigma_read=float(p["sigma_read_mV"]),
            )
        return cls(
            types=types,
            sigma_part=float(raw.get("sigma_part_mV", 8.0)),
            v_dd_nominal=int(raw.get("v_dd_nominal_mV", DEFAULT_VDD_MV)),
        )

    @classmethod
    def from_json(cls, path) -> "VariationModel":
        """Load a model file; a malformed one raises ``ConfigurationError``
        naming the file."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except KeyError as exc:
                raise ConfigurationError(f"{path}: missing key {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"{path}: {exc}") from None

    @classmethod
    def default(cls) -> "VariationModel":
        """Bundled model transcribed from the reference measurements."""
        bundled = Path(__file__).parent / "data" / "variation_model.json"
        return cls.from_json(bundled)


class MemoryArray:
    """One memory block: per-cell thresholds and its true upset rate.

    ``v_dd_min_hold`` and ``v_dd_min_read`` are given either as arrays or
    as ``draw_pending``, a callable returning both that runs once, on
    first access of either.  ``threshold_ceiling`` bounds every threshold
    of the block, so a protocol at or above it can skip the draw.
    """

    def __init__(self, part_id: str, cell_type: str, v_wl_min: np.ndarray,
                 true_seu_rate: float, v_dd: int = DEFAULT_VDD_MV, *,
                 v_dd_min_hold: np.ndarray | None = None,
                 v_dd_min_read: np.ndarray | None = None,
                 draw_pending: Callable[[], tuple] | None = None,
                 threshold_ceiling: float = math.inf):
        self.part_id = part_id
        self.cell_type = cell_type
        self.v_wl_min = v_wl_min
        if np.ndim(true_seu_rate) != 0 or not true_seu_rate >= 0:  # also rejects nan
            raise ConfigurationError("true_seu_rate must be one number >= 0")
        self.true_seu_rate = float(true_seu_rate)
        self.v_dd = v_dd
        self.threshold_ceiling = threshold_ceiling
        self._check_shapes(v_wl_min=v_wl_min)
        self._draw_pending = draw_pending
        self._drawn = None
        if draw_pending is None:
            self._set_drawn((v_dd_min_hold, v_dd_min_read))

    def _check_shapes(self, **arrays):
        n = self.n_cells
        for name, values in arrays.items():
            if np.shape(values) != (n,):
                raise ConfigurationError(f"{name} must have {n} entries")

    def _set_drawn(self, arrays):
        hold, read = arrays
        self._check_shapes(v_dd_min_hold=hold, v_dd_min_read=read)
        self._drawn = arrays

    def _drawn_arrays(self):
        if self._drawn is None:
            self._set_drawn(self._draw_pending())
            self._draw_pending = None
        return self._drawn

    @property
    def v_dd_min_hold(self) -> np.ndarray:
        return self._drawn_arrays()[0]

    @property
    def v_dd_min_read(self) -> np.ndarray:
        return self._drawn_arrays()[1]

    @property
    def n_cells(self) -> int:
        return np.size(self.v_wl_min)


def _sample_thresholds(rng, mu, sigma, n, v_dd_nominal):
    """Integer-mV Gaussian draws, redrawn until inside (0, v_dd_nominal]."""
    if sigma < 0:
        raise ConfigurationError("sigma must be >= 0")
    out = np.rint(rng.normal(mu, sigma, n)).astype(np.int64)
    for _ in range(_MAX_REDRAWS):
        bad = (out < 1) | (out > v_dd_nominal)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out
        out[bad] = np.rint(rng.normal(mu, sigma, n_bad)).astype(np.int64)
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
    the same generator, when a protocol first reads one of them (see the
    module docstring).  Every threshold lies in
    ``[1, model.v_dd_nominal]``.  ``true_seu_rate`` (µSEU per bit-second)
    is the ground-truth upset rate handed to the radiation simulator, one
    scalar shared by every cell of the block.
    """
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
    rng = np.random.default_rng(seed)
    vnom = model.v_dd_nominal
    v_wl_min = _sample_thresholds(rng, tv.mu_vwlmin + part_offset, tv.sigma_vwlmin, n, vnom)

    def draw_pending():
        v_hold = _sample_thresholds(rng, tv.mu_hold + part_offset, tv.sigma_hold, n, vnom)
        v_read = _sample_thresholds(rng, tv.mu_read + part_offset, tv.sigma_read, n, vnom)
        return v_hold, v_read

    return MemoryArray(
        part_id=str(part_id),
        cell_type=cell_type,
        v_wl_min=v_wl_min,
        true_seu_rate=true_seu_rate,
        v_dd=int(v_dd if v_dd is not None else vnom),
        draw_pending=draw_pending,
        threshold_ceiling=vnom,
    )
