"""Measurement records, the variation model and the chip constants they
default to.

``SerMeasurement`` and ``SweepResult`` are what the procedures produce and
what a measurement file ingests into; the fit reads nothing else.  A
sweep holds its supply, so ``SweepResult.margin``, V_WLVM, is read off
the record (``word_line_voltage_margin``, the one margin rule).
``VariationModel`` and its per-type ``TypeVariation`` are the threshold
distributions the simulator draws from, read from a model file and
checked as they are built, down to a spread too wide for any draw to
finish (``MAX_REDRAWS``); ``sram`` applies the same closed form
(``_check_convergence``) to each threshold set a part offset moves.
Fit and model files are read by
``read_json``, whose numbers follow ``json_number``.  This module imports
no numpy, and its records are plain classes, which need no ``inspect``,
so the commands that only ingest, fit and predict start without either,
and a simulating command reads and checks its model before it imports
numpy.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Callable

from .errors import ConfigurationError
from .refdata import CELL_TYPE_ORDER, DATA_DIR

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

# Rounds in which a block's threshold draw may redraw its values outside
# [1, v_dd_nominal] before the draw is refused.
MAX_REDRAWS = 1000

# Largest nominal supply: a block's supply, up to twice the nominal, plus
# one sweep step of at most that supply stays within int64 (about 9.2e18).
_MAX_VDD_NOMINAL_MV = 10**18


class SerMeasurement:
    """Outcome of one accelerated SER test (or an ingested summary).

    ``ser`` is in µSEU per bit-second.  Protocol-produced records carry
    the full window history; records ingested from a measurement file are
    summary-only (``window_counts`` is None).
    """

    def __init__(self, part_id: str, cell_type: str, ser: float, rel_stat_unc: float,
                 rel_geom_unc: float = DEFAULT_GEOM_UNC, ts: float | None = None,
                 window_counts: np.ndarray | None = None, n_windows: int = 0,
                 n_tot: int = 0, t_exp: float = 0.0, n_bits: int = 0):
        self.part_id = part_id
        self.cell_type = cell_type
        self.ser = ser
        self.rel_stat_unc = rel_stat_unc
        self.rel_geom_unc = rel_geom_unc
        self.ts = ts
        self.window_counts = window_counts
        self.n_windows = n_windows
        self.n_tot = n_tot
        self.t_exp = t_exp
        self.n_bits = n_bits

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


class SweepResult:
    """Threshold mean, spread and failure histogram of one voltage sweep.

    A record ingested from a measurement file gives ``mu``, perhaps
    ``sigma``, and its part's supply; the rest default to a word-line
    sweep of the chip's step over one block, with no histogram."""

    def __init__(self, part_id: str, cell_type: str, mu: float, sigma: float = math.nan,
                 v_nominal: int = DEFAULT_VDD_MV, swept_quantity: str = "word_line",
                 delta_v: int = DEFAULT_DELTA_V_MV, n_cells: int = DEFAULT_ROWS * DEFAULT_COLS,
                 histogram: dict[int, int] | None = None):
        self.part_id = part_id
        self.cell_type = cell_type
        self.mu = mu
        self.sigma = sigma
        self.v_nominal = v_nominal
        self.swept_quantity = swept_quantity
        self.delta_v = delta_v
        self.n_cells = n_cells
        self.histogram = histogram

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
    value (``AttributeError``, ``TypeError``, ``ValueError``, or a
    ``RecursionError`` from nesting too deep to decode) as ``path: …``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except KeyError as exc:
            raise error(f"{path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from None


def word_line_voltage_margin(v_dd, v_mewlvm):
    """Margin between the supply and the mean effective write voltage.

    Higher margin means the population can be written at lower word-line
    voltages, i.e. weaker cells.
    """
    if not 0 <= v_mewlvm <= v_dd:
        raise ValueError(f"v_mewlvm={v_mewlvm} outside [0, {v_dd}]")
    return v_dd - v_mewlvm


def _check_sigma(key: str, sigma: float):
    if not 0 <= sigma < math.inf:  # also rejects nan
        raise ConfigurationError(f"{key} must be finite and >= 0, got {sigma:g}")


def _check_convergence(what: Callable[[], str], mu: float, sigma: float, v_dd_nominal: int,
                       n: int = 1):
    """Refuse a draw of ``n`` thresholds of mean ``mu`` and spread ``sigma``
    when the chance that all of them land in [1, ``v_dd_nominal``] within
    ``MAX_REDRAWS`` redraws is below 1e-9; ``what()``, called only then,
    begins the message.

    A draw rounds ``mu + sigma * z`` and keeps it in [1, ``v_dd_nominal``],
    so it lands with probability Φ((v_nom + ½ − μ)/σ) − Φ((½ − μ)/σ),
    taken from ``erf`` or, in a tail, from ``erfc``, so that a small chance
    keeps its digits.  A cell gets ``MAX_REDRAWS + 1`` draws, and all ``n``
    land with the chance (1 − (1 − p)^(MAX_REDRAWS + 1))^n."""
    if sigma == 0:
        p = float(1 <= round(mu) <= v_dd_nominal)
    else:
        a = (v_dd_nominal + 0.5 - mu) / sigma / math.sqrt(2.0)
        b = (0.5 - mu) / sigma / math.sqrt(2.0)
        if a < 0:  # the range lies left of the mean: take its mirror image
            a, b = -b, -a
        p = (math.erfc(b) - math.erfc(a)) / 2 if b > 0 else (math.erf(a) - math.erf(b)) / 2
    lands = -math.expm1((MAX_REDRAWS + 1) * math.log1p(-p)) if p < 1 else 1.0
    if lands ** n < 1e-9:
        raise ConfigurationError(
            f"{what()} lands a draw in [1, {v_dd_nominal}] mV with a chance of at most "
            f"{p:.2g}; the thresholds could not be drawn within {MAX_REDRAWS} redraws")


# the parameters of ``TypeVariation`` in declaration order, each keyed by
# its name plus ``_mV`` in a model file
_TYPE_PARAMETERS = ("mu_vwlmin", "sigma_vwlmin", "mu_hold", "sigma_hold", "mu_read",
                    "sigma_read")


class TypeVariation:
    """Threshold distribution parameters for one cell type (all in mV).
    Two are equal when every parameter is."""

    def __init__(self, mu_vwlmin: float, sigma_vwlmin: float, mu_hold: float,
                 sigma_hold: float, mu_read: float, sigma_read: float):
        self.mu_vwlmin = mu_vwlmin
        self.sigma_vwlmin = sigma_vwlmin
        self.mu_hold = mu_hold
        self.sigma_hold = sigma_hold
        self.mu_read = mu_read
        self.sigma_read = sigma_read
        for label in ("vwlmin", "hold", "read"):
            _check_sigma(f"sigma_{label}_mV", getattr(self, f"sigma_{label}"))

    def __eq__(self, other):
        return type(other) is TypeVariation and vars(other) == vars(self)


class VariationModel:
    """Per-type threshold distributions plus the part-level common offset.

    ``sigma_part`` is the standard deviation of a Gaussian offset added to
    every mean of one part: the distributions of a die shift together while
    their spreads stay put.  Two models are equal when their parameters are.
    """

    def __init__(self, types: dict[str, TypeVariation], sigma_part: float = 8.0,
                 v_dd_nominal: int = DEFAULT_VDD_MV):
        self.types = types
        self.sigma_part = json_number("sigma_part_mV", sigma_part)
        _check_sigma("sigma_part_mV", self.sigma_part)
        if not (type(v := v_dd_nominal) in (int, float) and v > 0 and v % 1 == 0):
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
                # a part offset can move the mean anywhere, and one cell
                # lands most often with the mean in the middle of the range
                sigma = getattr(tv, f"sigma_{label}")
                _check_convergence(lambda: f"type {name}: sigma_{label}_mV {sigma:g}",
                                   (self.v_dd_nominal + 1) / 2, sigma, self.v_dd_nominal)

    def __eq__(self, other):
        return type(other) is VariationModel and vars(other) == vars(self)

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
        by its parameter's name plus ``_mV``, and a key left out takes the default."""
        types = {name: TypeVariation(*[json_number(f"{key}_mV", p[f"{key}_mV"])
                                       for key in _TYPE_PARAMETERS])
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
        return cls.from_json(DATA_DIR / "variation_model.json")
