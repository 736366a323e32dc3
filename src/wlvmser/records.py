"""Measurement records and the chip constants they default to.

``SerMeasurement`` and ``SweepResult`` are what the procedures produce and
what a measurement file ingests into; the fit reads nothing else.  A
sweep holds its supply, so ``SweepResult.margin``, V_WLVM, is read off
the record (``word_line_voltage_margin``, the one margin rule).  Fit
and model files are read by ``read_json``, whose numbers follow
``json_number``.  This module imports no numpy, so the commands that only
ingest, fit and predict start without it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# nominal core supply of the test chip, mV
DEFAULT_VDD_MV = 1200
# block geometry of the test chip: 64 x 64 cells
DEFAULT_ROWS = 64
DEFAULT_COLS = 64

# relative systematic uncertainty of the source-to-sample flux positioning
DEFAULT_GEOM_UNC = 0.03

# SER test schedule, a read every 30 min over 120 h (s), and sweep step (mV)
DEFAULT_TS_S = 1800.0
DEFAULT_DURATION_S = 432_000.0
DEFAULT_DELTA_V_MV = 10

# Largest expected event count one draw may ask for.  A SER test holds
# about 40 bytes per event at its peak, so this caps it near 0.7 GB.  It
# also bounds the windows of a schedule, a batch's kept window counts and
# the rows of a sweep log.
MAX_EXPECTED_EVENTS = 2**24


@dataclass
class SerMeasurement:
    """Outcome of one accelerated SER test (or an ingested summary).

    ``ser`` is in µSEU per bit-second.  Protocol-produced records carry
    the full window history; records ingested from a measurement file are
    summary-only (``window_counts`` is None).
    """

    part_id: str
    cell_type: str
    ser: float
    rel_stat_unc: float
    rel_geom_unc: float = DEFAULT_GEOM_UNC
    ts: float | None = None
    window_counts: np.ndarray | None = None
    n_windows: int = 0
    n_tot: int = 0
    t_exp: float = 0.0
    n_bits: int = 0

    @property
    def zero_count(self) -> bool:
        """True for a test that counted no upset, whose SER reads 0."""
        return self.ser == 0

    @classmethod
    def from_windows(cls, part_id, cell_type, ts, window_counts, n_bits) -> "SerMeasurement":
        """Record of a SER test from its per-window counts, an int64
        array, which the record keeps as given."""
        n_windows = window_counts.size
        n_tot = int(window_counts.sum())
        t_exp = n_windows * ts
        ser = 1e6 * n_tot / (t_exp * n_bits)
        rel_stat = 1.0 / math.sqrt(n_tot) if n_tot > 0 else math.inf
        return cls(
            part_id=str(part_id),
            cell_type=str(cell_type),
            ser=ser,
            rel_stat_unc=rel_stat,
            ts=float(ts),
            window_counts=window_counts,
            n_windows=n_windows,
            n_tot=n_tot,
            t_exp=float(t_exp),
            n_bits=int(n_bits),
        )


@dataclass
class SweepResult:
    """Threshold mean, spread and failure histogram of one voltage sweep.

    A record ingested from a measurement file gives ``mu``, perhaps
    ``sigma``, and its part's supply; the rest default to a word-line
    sweep of the chip's step over one block, with no histogram."""

    part_id: str
    cell_type: str
    mu: float
    sigma: float = math.nan
    v_nominal: int = DEFAULT_VDD_MV
    swept_quantity: str = "word_line"
    delta_v: int = DEFAULT_DELTA_V_MV
    n_cells: int = DEFAULT_ROWS * DEFAULT_COLS
    histogram: dict[int, int] | None = None

    @property
    def se_mean(self) -> float:
        """Standard error of ``mu``."""
        return self.sigma / math.sqrt(self.n_cells)

    @property
    def margin(self) -> float:
        """The sweep's supply less ``mu``, in mV (``word_line_voltage_margin``):
        V_WLVM for a word-line sweep."""
        return word_line_voltage_margin(self.v_nominal, self.mu)


def json_number(key: str, value) -> float:
    """The number of ``key`` in a fit or model file as a float, infinite past
    the float range; any other value, a bool or a string too, raises
    ``ValueError`` naming the key."""
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if abs(value) > sys.float_info.max:
        return math.inf if value > 0 else -math.inf
    return float(value)


def read_json(path, parse, error):
    """``parse`` of the JSON in the UTF-8 file ``path``.  A key it misses
    raises ``error`` as ``path: missing key 'k'``, and a malformed file or
    value (``AttributeError``, ``TypeError``, ``ValueError``) as ``path: …``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except KeyError as exc:
            raise error(f"{path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise error(f"{path}: {exc}") from None


def word_line_voltage_margin(v_dd, v_mewlvm):
    """Margin between the supply and the mean effective write voltage.

    Higher margin means the population can be written at lower word-line
    voltages, i.e. weaker cells.
    """
    if not 0 <= v_mewlvm <= v_dd:
        raise ValueError(f"v_mewlvm={v_mewlvm} outside [0, {v_dd}]")
    return v_dd - v_mewlvm
