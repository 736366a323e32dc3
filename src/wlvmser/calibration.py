"""Uncertainty models and the weighted-regression calibration core.

The calibration fits a straight line SER = m * margin + b through the
(margin, SER) pairs of the irradiated parts, weighting each point by its
inverse variance, and then predicts the SER of non-irradiated parts from
their electrically measured margins alone.

Closed-form estimators for the weighted line fit (slope, intercept, their
variances and covariance) follow the standard least-squares sums; the
goodness of fit is reported as chi-squared per degree of freedom together
with a weighted R².  The fit runs on Python floats and imports no numpy:
a fit has some 25 points, and numpy's import would cost a command more
than the fit.  Its records are plain classes: generating them with a
decorator would import ``inspect`` and cost such a command about a fifth
of its time.  Its sums follow numpy's pairwise order (``pairwise_sum``),
so every figure has the bits a float64 array computation gives.

Point uncertainties combine a statistical term (Poisson counting,
1/sqrt(N)) with the systematic flux-positioning term.  Three combination
recipes are provided because the reference study does not disclose its
own:

* ``combined`` — quadrature sum (library default),
* ``stat-only`` — statistical term alone,
* ``linear-sum`` — arithmetic sum; this is the recipe that reproduces the
  published fit (chi2 22.6 vs published 22.3 with matching parameter
  uncertainties), so it is what the reproduction command uses.

The low margin-measurement error is neglected in the fit, and a block
that counted no upset is left out of it (``build_weighted_points``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DegenerateFitError
from .records import SerMeasurement, SweepResult, json_number

WEIGHT_MODES = ("combined", "stat-only", "linear-sum")
DEFAULT_WEIGHT_MODE = "combined"

# relative |determinant| below which the design matrix is unusable
_DEGENERATE_RTOL = 1e-12


# the figures of a fit file, in the order ``CalibrationFit.from_dict`` checks
# them: nu comes before chi2_red
_FIT_FIGURES = ("m", "b", "sigma_m", "sigma_b", "cov_mb", "chi2", "nu", "chi2_red", "r2",
                "n_points")


class WeightedPoint:
    """One calibration point: margin (V), SER and its absolute 1-sigma."""

    def __init__(self, x: float, y: float, sigma_y: float):
        if not sigma_y > 0:
            raise ValueError(f"sigma_y must be > 0, got {sigma_y}")
        self.x = x
        self.y = y
        self.sigma_y = sigma_y


class CalibrationFit:
    """Weighted straight-line fit with goodness-of-fit figures.

    Units follow the calibration inputs: slope in µSEU/(bit·s·V),
    intercept in µSEU/(bit·s).  Two fits are equal when all their
    attributes are.
    """

    def __init__(self, m: float, b: float, sigma_m: float, sigma_b: float, cov_mb: float,
                 chi2: float, nu: int, chi2_red: float, r2: float, n_points: int,
                 weight_mode: str | None = None):
        self.m = m
        self.b = b
        self.sigma_m = sigma_m
        self.sigma_b = sigma_b
        self.cov_mb = cov_mb
        self.chi2 = chi2
        self.nu = nu
        self.chi2_red = chi2_red
        self.r2 = r2
        self.n_points = n_points
        self.weight_mode = weight_mode

    def __eq__(self, other):
        return type(other) is CalibrationFit and vars(other) == vars(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "CalibrationFit":
        """Fit of a parsed fit file, the attribute dict ``write_fit_json``
        dumps.  Each figure must be a number of its attribute's type (not a
        bool or string) and finite, the sigmas >= 0 and of a finite square,
        which ``predict_ser`` takes; ``chi2_red`` may be NaN where ``nu`` is
        0, as for two points.  A bad figure raises ``ValueError`` naming its
        key."""
        values = {}
        for name in _FIT_FIGURES:
            values[name] = value = raw[name]
            if name in ("nu", "n_points"):
                if type(value) is not int:
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                continue
            values[name] = number = json_number(name, value)
            if name == "chi2_red" and values["nu"] == 0 and number != number:
                pass  # NaN: two points leave no degree of freedom
            elif not math.isfinite(number):
                raise ValueError(f"{name} must be finite, got {value!r}")
            elif name in ("sigma_m", "sigma_b") and number < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            elif name in ("sigma_m", "sigma_b") and number * number == math.inf:
                raise ValueError(f"{name} must have a finite square, got {value!r}")
        return cls(**values, weight_mode=raw.get("weight_mode"))


class Prediction:
    """Predicted SER with the fit-parameter uncertainty propagated."""

    def __init__(self, ser: float, sigma: float):
        self.ser = ser
        self.sigma = sigma

    @property
    def below_physical_floor(self) -> bool:
        return self.ser < 0


def _rel_uncertainty(stat: float, geom: float, weight_mode: str) -> float:
    if weight_mode == "combined":
        return math.hypot(stat, geom)
    if weight_mode == "stat-only":
        return stat
    if weight_mode == "linear-sum":
        return stat + geom
    raise ValueError(f"unknown weight mode {weight_mode!r}; pick from {WEIGHT_MODES}")


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum of ``values`` with the rounding of numpy's float64 ``sum``.

    numpy adds a run of up to 128 numbers into eight interleaved partial
    sums, combines them as a tree and then adds the remainder that is not
    a multiple of eight; a longer run is split in two halves, the first a
    multiple of eight long, and their sums are added.  The same order
    gives the same bits.  The result is added to 0.0, as numpy adds it
    to the sum's identity (which turns a -0.0 into 0.0).
    """
    def run(lo: int, n: int) -> float:
        if n < 8:
            total = 0.0
            for i in range(lo, lo + n):
                total += values[i]
            return total
        if n <= 128:
            r = list(values[lo:lo + 8])
            stop = lo + n - n % 8
            for i in range(lo + 8, stop, 8):
                for j in range(8):
                    r[j] += values[i + j]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for i in range(stop, lo + n):
                total += values[i]
            return total
        half = n // 2
        half -= half % 8
        return run(lo, half) + run(lo + half, n - half)

    return 0.0 + run(0, len(values))


def weighted_linfit(points: Sequence[WeightedPoint]) -> CalibrationFit:
    """Minimize sum(((y - m*x - b)/sigma)^2) over (m, b), closed form.

    Needs at least two points with distinct x.  Returns the optimum, the
    parameter variances/covariance from the inverse normal matrix, the
    chi-squared at the optimum with nu = n - 2, and the weighted R²
    against the weighted-mean-only null model.  The sums run on Python
    floats in numpy's order (``pairwise_sum``), so the figures are the
    bits a float64 array computation gives.
    """
    points = list(points)
    n = len(points)
    if n < 2:
        raise DegenerateFitError(f"need at least 2 points, got {n}")
    x = [p.x for p in points]
    y = [p.y for p in points]
    # a variance that underflows to 0 weighs the point infinitely, as in
    # float64 array division
    w = [1.0 / (p.sigma_y * p.sigma_y) if p.sigma_y * p.sigma_y else math.inf
         for p in points]

    s = pairwise_sum(w)
    sx = pairwise_sum([wi * xi for wi, xi in zip(w, x)])
    sy = pairwise_sum([wi * yi for wi, yi in zip(w, y)])
    sxx = pairwise_sum([wi * xi * xi for wi, xi in zip(w, x)])
    sxy = pairwise_sum([wi * xi * yi for wi, xi, yi in zip(w, x, y)])
    det = s * sxx - sx * sx
    if not math.isfinite(det):
        raise DegenerateFitError(
            f"the fit's weighted sums overflow (largest |margin| {max(map(abs, x)):g} V, "
            f"largest weight {max(w):g}); slope is undetermined")
    if det <= _DEGENERATE_RTOL * s * sxx:
        raise DegenerateFitError("all x values coincide; slope is undetermined")

    m = (s * sxy - sx * sy) / det
    b = (sxx * sy - sx * sxy) / det
    resid = [yi - (m * xi + b) for xi, yi in zip(x, y)]
    chi2 = pairwise_sum([wi * d * d for wi, d in zip(w, resid)])
    nu = n - 2
    chi2_red = chi2 / nu if nu > 0 else math.nan
    ybar = sy / s
    dev = [yi - ybar for yi in y]
    chi2_null = pairwise_sum([wi * (d * d) for wi, d in zip(w, dev)])
    if chi2_null > 0:
        r2 = 1.0 - chi2 / chi2_null
    else:
        r2 = 1.0  # all y identical and fit exact
    return CalibrationFit(
        m=m,
        b=b,
        sigma_m=math.sqrt(s / det),
        sigma_b=math.sqrt(sxx / det),
        cov_mb=-sx / det,
        chi2=chi2,
        nu=nu,
        chi2_red=chi2_red,
        r2=r2,
        n_points=n,
    )


def predict_ser(fit: CalibrationFit, v_wlvm: float) -> Prediction:
    """Evaluate the fitted line at ``v_wlvm`` (volts) with propagated
    fit-parameter uncertainty.

    A negative predicted SER is physically impossible; the value is still
    returned and flagged via ``Prediction.below_physical_floor``.  A margin
    that is not finite, or one so large that the prediction or its sigma
    overflows, raises ``ValueError``, and so does a fit built in code
    whose sigma squares past the float range.
    """
    if not math.isfinite(v_wlvm):
        raise ValueError(f"v_wlvm must be a finite margin in volts, got {v_wlvm}")
    ser = float(fit.m * v_wlvm + fit.b)
    try:
        var = (v_wlvm * v_wlvm * fit.sigma_m ** 2
               + fit.sigma_b ** 2
               + 2.0 * v_wlvm * fit.cov_mb)
    except OverflowError:  # a sigma squared past the float range
        var = math.inf
    sigma = math.sqrt(max(var, 0.0))
    if not (math.isfinite(ser) and math.isfinite(sigma)):
        raise ValueError(f"the prediction at v_wlvm = {v_wlvm} V is not finite: "
                         f"ser = {ser}, sigma = {sigma}")
    return Prediction(ser=ser, sigma=sigma)


def build_weighted_points(
    pairs: Iterable[tuple[SerMeasurement, SweepResult]],
    weight_mode: str = DEFAULT_WEIGHT_MODE,
) -> list[WeightedPoint]:
    """Turn (SER measurement, margin sweep) pairs into fit points.

    x is the word-line voltage margin in volts, each sweep's
    ``SweepResult.margin`` at its own supply, y the SER in µSEU per
    bit-second, sigma_y the SER scaled by the selected relative
    uncertainty recipe.  Margin uncertainty is neglected.

    A block that counted no upset (SER 0) is left out: its counting
    uncertainty is unbounded, and where the rate itself is 0 (a law
    clamped at zero) no straight line holds the point anyway.  Leaving it
    out biases the fit upwards where a positive rate happened to count
    zero, so such blocks should be rare in the input.

    Any other block must have a weight ``1 / sigma_y**2`` that is finite
    and positive; one whose ``sigma_y`` is 0, or whose square underflows to
    0 or overflows, raises ``ValueError`` naming it.
    """
    points = []
    for meas, sweep in pairs:
        if meas.zero_count:
            continue
        rel = _rel_uncertainty(meas.rel_stat_unc, meas.rel_geom_unc, weight_mode)
        sigma_y = meas.ser * rel
        if not 0 < sigma_y * sigma_y < math.inf:
            raise ValueError(
                f"part {meas.part_id} {meas.cell_type}: SER {meas.ser:g} with relative "
                f"uncertainty {rel:g} ({weight_mode} weights) gives sigma {sigma_y:g} and "
                f"no finite positive fit weight")
        points.append(WeightedPoint(x=sweep.margin / 1000.0, y=meas.ser, sigma_y=sigma_y))
    return points
