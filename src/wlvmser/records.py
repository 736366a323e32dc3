"""Measurement records and the chip constants they default to.

``SerMeasurement`` and ``SweepResult`` are what the procedures produce and
what a measurement file ingests into; the fit reads nothing else.  This
module imports no numpy, so the commands that only ingest, fit and
predict start without it: the two constructors that take arrays import
numpy when they are called.
"""

from __future__ import annotations

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
    rel_geom_unc: float
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
    def from_windows(cls, part_id, cell_type, ts, window_counts, n_bits,
                     rel_geom_unc) -> "SerMeasurement":
        import numpy as np
        counts = np.asarray(window_counts, dtype=np.int64)
        n_windows = counts.size
        n_tot = int(counts.sum())
        t_exp = n_windows * ts
        ser = 1e6 * n_tot / (t_exp * n_bits)
        rel_stat = 1.0 / math.sqrt(n_tot) if n_tot > 0 else math.inf
        return cls(
            part_id=str(part_id),
            cell_type=str(cell_type),
            ser=ser,
            rel_stat_unc=rel_stat,
            rel_geom_unc=float(rel_geom_unc),
            ts=float(ts),
            window_counts=counts,
            n_windows=n_windows,
            n_tot=n_tot,
            t_exp=float(t_exp),
            n_bits=int(n_bits),
        )

    @classmethod
    def summary(cls, part_id, cell_type, ser, rel_stat_unc,
                rel_geom_unc=DEFAULT_GEOM_UNC) -> "SerMeasurement":
        """Summary-only record as ingested from a measurement file."""
        return cls(
            part_id=str(part_id),
            cell_type=str(cell_type),
            ser=float(ser),
            rel_stat_unc=float(rel_stat_unc),
            rel_geom_unc=float(rel_geom_unc),
        )


@dataclass
class SweepResult:
    """Threshold mean, spread and failure histogram of one voltage sweep."""

    part_id: str
    cell_type: str
    swept_quantity: str
    delta_v: int
    mu: float
    sigma: float
    se_mean: float
    n_cells: int
    v_nominal: int
    histogram: dict[int, int] | None = None

    @classmethod
    def from_registration(cls, part_id, cell_type, quantity, delta_v, registration,
                          v_nominal) -> "SweepResult":
        """Record of a sweep from ``kernels.sweep_registration``'s
        ``(levels, counts, index)``: cell ``i`` first fails at
        ``levels[index[i]]``, and ``counts`` cells share each level entry.

        ``levels`` never decreases, so the histogram sums ``counts`` over
        each run of equal levels (one ``np.add.reduceat``).  ``mu`` and
        ``sigma`` are reduced over the per-cell midpoints and their squared
        deviations, each gathered from the per-level values into one
        per-cell buffer: each gathered array is, element for element, the
        one ``per_cell.mean()`` and ``per_cell.std(ddof=1)`` reduce, so the
        pairwise sums, and ``sigma``'s last bits, which the fixed-seed
        outputs pin, stay the same.
        """
        import numpy as np
        levels, counts, index = registration
        seen = np.flatnonzero(counts)
        seen_levels = levels[seen]
        starts = np.flatnonzero(np.diff(seen_levels, prepend=-1))
        hist = dict(zip(seen_levels[starts].tolist(),
                        np.add.reduceat(counts[seen], starts).tolist()))
        n_cells = index.size
        mid = levels + delta_v / 2.0
        # one per-cell buffer serves both gathers; every index is in range,
        # and mode "clip" writes into ``out`` without a temporary copy
        per_cell = mid.take(index, mode="clip")
        mu = float(per_cell.mean())
        sq = (mid - mu) ** 2
        sigma = 0.0
        if n_cells > 1:
            per_cell = sq.take(index, out=per_cell, mode="clip")
            sigma = math.sqrt(float(per_cell.sum()) / (n_cells - 1))
        return cls(
            part_id=str(part_id),
            cell_type=str(cell_type),
            swept_quantity=quantity,
            delta_v=int(delta_v),
            mu=mu,
            sigma=sigma,
            se_mean=sigma / math.sqrt(n_cells),
            n_cells=int(n_cells),
            v_nominal=int(v_nominal),
            histogram=hist,
        )

    @classmethod
    def summary(cls, part_id, cell_type, mu, sigma=float("nan"),
                v_nominal=DEFAULT_VDD_MV) -> "SweepResult":
        """Summary-only word-line sweep as ingested from a measurement file."""
        n_cells = DEFAULT_ROWS * DEFAULT_COLS
        return cls(
            part_id=str(part_id),
            cell_type=str(cell_type),
            swept_quantity="word_line",
            delta_v=DEFAULT_DELTA_V_MV,
            mu=float(mu),
            sigma=float(sigma),
            se_mean=float(sigma) / math.sqrt(n_cells),
            n_cells=n_cells,
            v_nominal=int(v_nominal),
        )


def json_number(key: str, value) -> float:
    """The number of ``key`` in a fit or model file as a float, infinite past
    the float range; any other value, a bool or a string too, raises
    ``ValueError`` naming the key."""
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if abs(value) > sys.float_info.max:
        return math.inf if value > 0 else -math.inf
    return float(value)


def word_line_voltage_margin(v_dd, v_mewlvm):
    """Margin between the supply and the mean effective write voltage.

    Higher margin means the population can be written at lower word-line
    voltages, i.e. weaker cells.
    """
    if not 0 <= v_mewlvm <= v_dd:
        raise ValueError(f"v_mewlvm={v_mewlvm} outside [0, {v_dd}]")
    return v_dd - v_mewlvm
