"""Homogeneous Poisson model of alpha-induced upsets.

Upset instants form a Poisson process.  Events are generated with
exponential inter-arrival times at the aggregate array rate and assigned
to cells uniformly: every cell of a block has the same rate, so each is
equally likely to take the next event.  The gaps are drawn by numpy's
``standard_exponential`` fill and scaled in place, which gives the
doubles of ``Generator.exponential``, and the cells as ``int32`` up to
``2**31`` cells.  Arrival times are running sums of the gaps, cut at the
horizon by a binary search, and a draw whose expected count exceeds
``MAX_EXPECTED_EVENTS`` is refused before anything is allocated.  The
per-cell rate is

    lambda_c = true_seu_rate * geom_factor * 1e-6   [per second]

with ``true_seu_rate`` in µSEU per bit-second and ``geom_factor`` the
dimensionless source-positioning flux factor of the part.

The flux is spatially uniform over the block; angular and energy
dependence, charge collection and multi-cell upsets are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .records import MAX_EXPECTED_EVENTS
from .sram import MemoryArray


@dataclass(frozen=True)
class AlphaSource:
    """Alpha source seen by one part.

    ``rate_per_bit`` (µSEU per bit-second) is only validated: event
    generation reads the block's own rate, and only perfbench sets it.
    ``geom_factor`` scales the flux for source-to-sample positioning.
    """

    rate_per_bit: float = 0.0
    geom_factor: float = 1.0

    def __post_init__(self):
        if not self.rate_per_bit >= 0:  # also rejects nan
            raise ConfigurationError("rate_per_bit must be >= 0")
        if not 0.9 <= self.geom_factor <= 1.1:
            raise ConfigurationError("geom_factor must lie in [0.9, 1.1]")


@dataclass
class EventLog:
    """Time-ordered upset events for one array."""

    times: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return self.times.size


def _arrival_times(rng, lam_total, duration):
    """Exponential inter-arrival draw until the horizon is crossed.

    Each chunk's gaps are ``rng.exponential(mean_gap, chunk)``, the same
    doubles drawn as ``standard_exponential`` scaled in place (numpy
    computes each as ``mean_gap * z``).  Their running sum is taken in
    place and cut at the first arrival at or past ``duration``; arrival
    times increase, so that cut keeps exactly the arrivals inside the
    horizon.  The chunk sizes fix where the cell draw starts in the stream.
    """
    mean_gap = 1.0 / lam_total
    expect = lam_total * duration
    chunk = max(int(expect + 10.0 * math.sqrt(expect)) + 16, 64)
    pieces = []
    t = 0.0
    while True:
        gaps = rng.standard_exponential(chunk)
        gaps *= mean_gap
        times = np.cumsum(gaps, out=gaps)
        if pieces:
            times += t
        k = int(np.searchsorted(times, duration, side="left"))
        pieces.append(times[:k])
        if k < times.size:
            break
        t = float(times[-1])
        chunk = max(chunk // 4, 64)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def generate_events(array: MemoryArray, source: AlphaSource, duration: float, seed=0) -> EventLog:
    """Draw the upset events hitting ``array`` over ``duration`` seconds.

    Deterministic for a fixed seed.  Events come out sorted by time.  Cells
    are ``int32`` up to ``2**31`` cells, ``int64`` above: below ``2**32``
    values ``Generator.integers`` draws the same numbers for either dtype.
    Raises ``ConfigurationError`` before drawing anything when the expected
    event count exceeds ``MAX_EXPECTED_EVENTS``.
    """
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    lam_total = array.true_seu_rate * (source.geom_factor * 1e-6) * array.n_cells
    rng = np.random.default_rng(seed)
    cell_dtype = np.int32 if array.n_cells <= 2**31 else np.int64
    if lam_total <= 0.0:
        return EventLog(np.empty(0), np.empty(0, dtype=cell_dtype))
    expected = lam_total * duration
    if not expected <= MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"expected {expected:.3g} events over {duration:g} s, more than the "
            f"budget of {MAX_EXPECTED_EVENTS} events; lower the rate, the block "
            f"size or the duration")
    times = _arrival_times(rng, lam_total, duration)
    cells = rng.integers(0, array.n_cells, times.size, dtype=cell_dtype)
    return EventLog(times, cells)


def undetected_fraction(lambda_cell: float, ts: float) -> float:
    """Expected fraction of upsets masked by even multi-flips per window.

    A cell hit k times within one sampling period shows at most one
    observable change, so ``k - (k mod 2)`` upsets go unseen.  For Poisson
    flips at rate ``lambda_cell`` over a window ``ts`` the masked fraction
    is ``1 - (1 - exp(-2*lam*ts)) / (2*lam*ts)``, continuously extended to
    0 at ``lam*ts -> 0``.
    """
    if lambda_cell < 0:
        raise ValueError("lambda_cell must be >= 0")
    if ts <= 0:
        raise ValueError("ts must be positive")
    x = 2.0 * lambda_cell * ts
    if x == 0.0:
        return 0.0
    return float(1.0 + math.expm1(-x) / x)
