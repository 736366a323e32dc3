"""Regression core: closed-form fit vs. brute-force oracle, invariances."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlvmser.calibration import (CalibrationFit, WeightedPoint,
                                 build_weighted_points, pairwise_sum,
                                 predict_ser, weighted_linfit)
from wlvmser.errors import DegenerateFitError
from wlvmser.io import PartDataset
from wlvmser.pipeline import calibrate_datasets, zero_count_blocks
from wlvmser.records import SerMeasurement, SweepResult
from wlvmser.refdata import PUBLISHED_FIT, load_reference_dataset


def lstsq_oracle(points):
    """Brute-force normal equations via the weighted design matrix."""
    x = np.array([p.x for p in points])
    y = np.array([p.y for p in points])
    s = np.array([p.sigma_y for p in points])
    design = np.column_stack([x / s, 1.0 / s])
    coef, *_ = np.linalg.lstsq(design, y / s, rcond=None)
    cov = np.linalg.inv(design.T @ design)
    return coef[0], coef[1], math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1]), cov[0, 1]


def random_points(rng, n):
    x = rng.uniform(-5, 5, n)
    x[1] = x[0] + rng.uniform(0.5, 2.0)  # guarantee distinct abscissas
    y = rng.uniform(-10, 10, n)
    s = rng.uniform(0.1, 3.0, n)
    return [WeightedPoint(float(a), float(b), float(c)) for a, b, c in zip(x, y, s)]


# --- point uncertainties ------------------------------------------------------

def _rel_stat(n_tot):
    counts = np.array([n_tot // 2, n_tot - n_tot // 2], dtype=np.int64)
    return SerMeasurement.from_windows("1", "SS", 1800.0, counts, 4096).rel_stat_unc


def test_poisson_rel_uncertainty_values():
    assert _rel_stat(10_000) == 0.01
    assert _rel_stat(1) == 1.0
    assert _rel_stat(2583) == pytest.approx(0.0197, abs=2e-4)
    assert _rel_stat(0) == math.inf


def _sigma_rel(stat, geom, weight_mode):
    meas = SerMeasurement("1", "SS", 2.0, stat, geom)
    sweep = SweepResult("1", "SS", 800.0)
    [point] = build_weighted_points([(meas, sweep)], weight_mode)
    return point.sigma_y / meas.ser


def test_combine_rel_uncertainties():
    assert _sigma_rel(0.02, 0.0, "combined") == 0.02
    assert _sigma_rel(0.03, 0.04, "combined") == pytest.approx(0.05)
    assert _sigma_rel(0.020, 0.03, "combined") == pytest.approx(0.0361, abs=1e-4)
    assert _sigma_rel(0.02, 0.03, "linear-sum") == pytest.approx(0.05)
    assert _sigma_rel(0.02, 0.03, "stat-only") == 0.02


# --- weighted line fit ---------------------------------------------------------

def test_exact_line_fits_exactly():
    pts = [WeightedPoint(x, 2.0 * x + 1.0, 0.5) for x in (-2.0, 0.0, 1.0, 3.0)]
    fit = weighted_linfit(pts)
    assert fit.m == pytest.approx(2.0, abs=1e-12)
    assert fit.b == pytest.approx(1.0, abs=1e-12)
    assert fit.chi2 == pytest.approx(0.0, abs=1e-20)
    assert fit.r2 == pytest.approx(1.0)


def test_two_points_interpolate():
    fit = weighted_linfit([WeightedPoint(0.0, 1.0, 0.2), WeightedPoint(2.0, 5.0, 0.4)])
    assert fit.m == pytest.approx(2.0)
    assert fit.b == pytest.approx(1.0)
    assert fit.nu == 0
    assert fit.chi2 == pytest.approx(0.0, abs=1e-20)
    assert math.isnan(fit.chi2_red)


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateFitError, match="^need at least 2 points, got 1$"):
        weighted_linfit([WeightedPoint(1.0, 1.0, 0.1)])
    with pytest.raises(DegenerateFitError,
                       match="^all x values coincide; slope is undetermined$"):
        weighted_linfit([WeightedPoint(1.0, 1.0, 0.1),
                         WeightedPoint(1.0, 2.0, 0.1),
                         WeightedPoint(1.0, 3.0, 0.1)])
    # x * x overflows although the margins differ
    with pytest.raises(DegenerateFitError, match=re.escape(
            "the fit's weighted sums overflow (largest |margin| 1e+305 V, largest weight "
            "100); slope is undetermined")):
        weighted_linfit([WeightedPoint(1e305, 1.0, 0.1), WeightedPoint(0.3, 2.0, 0.1),
                         WeightedPoint(0.4, 3.0, 0.1)])
    with pytest.raises(ValueError, match="^sigma_y must be > 0, got 0.0$"):
        WeightedPoint(0.0, 1.0, 0.0)


def test_fit_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = random_points(rng, rng.integers(2, 21))
        fit = weighted_linfit(pts)
        m, b, sm, sb, cov = lstsq_oracle(pts)
        assert fit.m == pytest.approx(m, rel=1e-10, abs=1e-12)
        assert fit.b == pytest.approx(b, rel=1e-10, abs=1e-12)
        assert fit.sigma_m == pytest.approx(sm, rel=1e-8)
        assert fit.sigma_b == pytest.approx(sb, rel=1e-8)
        assert fit.cov_mb == pytest.approx(cov, rel=1e-8, abs=1e-14)


# Invariances of the fit on random points with distinct abscissas.  The
# closed form sums raw moments, so float64 rounding in its sums grows with
# the condition number sum(w x^2) / sum(w (x - xbar)^2) of the normal
# equations: 1 for centred abscissas, about 1e8 for two close points far
# from 0.  Each comparison allows a relative error of 1e-12 times that
# number, and a figure near 0 is compared on the scale of its own sigma.

@st.composite
def distinct_x_points(draw):
    """2 to 30 points, abscissas distinct multiples of 0.01 within [-3, 3]."""
    ks = draw(st.lists(st.integers(-300, 300), min_size=2, max_size=30, unique=True))
    return [WeightedPoint(k / 100, draw(st.floats(-10, 10)), draw(st.floats(0.1, 3.0)))
            for k in ks]


def rounding_rel(*point_sets):
    def condition(pts):
        w = [1.0 / p.sigma_y**2 for p in pts]
        xbar = sum(wi * p.x for wi, p in zip(w, pts)) / sum(w)
        return (sum(wi * p.x**2 for wi, p in zip(w, pts))
                / sum(wi * (p.x - xbar) ** 2 for wi, p in zip(w, pts)))
    return 1e-12 * max(condition(pts) for pts in point_sets)


def close(got, want, rel, scale=0.0):
    return got == pytest.approx(want, rel=rel, abs=rel * scale)


@settings(max_examples=200, deadline=None)
@given(distinct_x_points(), st.floats(1e-3, 1e3))
def test_sigma_scaling_invariance(pts, k):
    fit = weighted_linfit(pts)
    scaled = weighted_linfit([WeightedPoint(p.x, p.y, k * p.sigma_y) for p in pts])
    rel = rounding_rel(pts)
    assert close(scaled.m, fit.m, rel, fit.sigma_m)
    assert close(scaled.b, fit.b, rel, fit.sigma_b)
    assert close(scaled.sigma_m, k * fit.sigma_m, rel)
    assert close(scaled.sigma_b, k * fit.sigma_b, rel)
    assert close(scaled.chi2, fit.chi2 / k**2, rel, fit.n_points / k**2)


@settings(max_examples=200, deadline=None)
@given(distinct_x_points(), st.floats(-10, 10))
def test_y_shift_moves_intercept_only(pts, c):
    fit = weighted_linfit(pts)
    shifted = weighted_linfit([WeightedPoint(p.x, p.y + c, p.sigma_y) for p in pts])
    rel = rounding_rel(pts)
    assert close(shifted.m, fit.m, rel, fit.sigma_m)
    assert close(shifted.b, fit.b + c, rel, fit.sigma_b)
    assert close(shifted.chi2, fit.chi2, rel, fit.n_points)


@settings(max_examples=200, deadline=None)
@given(distinct_x_points(),
       st.floats(0.5, 4.0) | st.floats(-4.0, -0.5), st.floats(-2.0, 2.0))
def test_x_affine_rescaling_maps_parameters(pts, a, c):
    fit = weighted_linfit(pts)
    mapped_pts = [WeightedPoint(a * p.x + c, p.y, p.sigma_y) for p in pts]
    mapped = weighted_linfit(mapped_pts)
    rel = rounding_rel(pts, mapped_pts)
    assert close(mapped.m, fit.m / a, rel, mapped.sigma_m)
    assert close(mapped.b, fit.b - fit.m * c / a, rel, mapped.sigma_b)


def test_fit_is_local_chi2_minimum():
    rng = np.random.default_rng(4)
    pts = random_points(rng, 15)
    fit = weighted_linfit(pts)

    def chi2(m, b):
        return sum(((p.y - m * p.x - b) / p.sigma_y) ** 2 for p in pts)

    base = chi2(fit.m, fit.b)
    eps = 1e-4
    for dm in (-eps, 0, eps):
        for db in (-eps, 0, eps):
            assert chi2(fit.m + dm, fit.b + db) >= base - 1e-12


# --- prediction -----------------------------------------------------------------

def _published_fit_like():
    """A fit carrying the published parameters, for arithmetic checks."""
    from wlvmser.calibration import CalibrationFit
    return CalibrationFit(m=4.32, b=-0.25, sigma_m=0.20, sigma_b=0.06,
                          cov_mb=-0.011, chi2=22.3, nu=23, chi2_red=0.97,
                          r2=0.96, n_points=25)


def test_predict_reference_margin():
    pred = predict_ser(_published_fit_like(), 0.409)
    assert pred.ser == pytest.approx(1.517, abs=5e-4)
    assert not pred.below_physical_floor


def test_predict_at_zero_and_root():
    fit = _published_fit_like()
    assert predict_ser(fit, 0.0).ser == pytest.approx(fit.b)
    root = -fit.b / fit.m
    assert predict_ser(fit, root).ser == pytest.approx(0.0, abs=1e-15)
    assert predict_ser(fit, root - 0.05).below_physical_floor


@pytest.mark.parametrize("sigmas", [dict(sigma_m=0.2, sigma_b=1e308),
                                    dict(sigma_m=1e308, sigma_b=0.05)], ids=repr)
def test_a_sigma_squared_past_the_float_range_is_a_value_error(sigmas):
    """A fit built in code, which no fit file's check has seen, whose sigma
    squares past the float range gives the promised ``ValueError``."""
    fit = CalibrationFit(m=4.3, b=-0.25, **sigmas, cov_mb=0.0, chi2=1.0, nu=1,
                         chi2_red=1.0, r2=0.9, n_points=3)
    with pytest.raises(ValueError, match=r"^the prediction at v_wlvm = 0.3 V is not finite: "
                                         r"ser = 1.03\d*, sigma = inf$"):
        predict_ser(fit, 0.3)


def test_prediction_sigma_minimized_at_weighted_centroid():
    rng = np.random.default_rng(5)
    pts = random_points(rng, 20)
    fit = weighted_linfit(pts)
    w = np.array([1 / p.sigma_y ** 2 for p in pts])
    x = np.array([p.x for p in pts])
    centroid = float((w * x).sum() / w.sum())
    offsets = np.linspace(0, 5, 12)
    sig_right = [predict_ser(fit, centroid + o).sigma for o in offsets]
    sig_left = [predict_ser(fit, centroid - o).sigma for o in offsets]
    assert all(np.diff(sig_right) > 0)
    assert all(np.diff(sig_left) > 0)
    assert predict_ser(fit, centroid).sigma <= min(sig_right[1], sig_left[1])


# --- calibration over datasets ----------------------------------------------------

def test_calibrate_datasets_matches_direct_fit():
    datasets = load_reference_dataset()
    pairs = [pair for ds in datasets for pair in ds.pairs()]
    fit = calibrate_datasets(datasets, weight_mode="combined")
    direct = weighted_linfit(build_weighted_points(pairs, "combined"))
    assert fit.m == direct.m and fit.b == direct.b and fit.chi2 == direct.chi2
    assert fit.weight_mode == "combined"
    assert fit.n_points == 25


def test_reference_dataset_fit_windows():
    datasets = load_reference_dataset()
    linear = calibrate_datasets(datasets, weight_mode="linear-sum")
    assert 4.12 <= linear.m <= 4.52
    assert -0.31 <= linear.b <= -0.19
    assert linear.nu == 23
    assert 0.7 <= linear.chi2_red <= 1.3
    assert linear.r2 >= 0.94
    assert abs(linear.m - PUBLISHED_FIT["m"]) <= PUBLISHED_FIT["sigma_m"]
    # quadrature weights land the same line but understate the scatter
    quad = calibrate_datasets(datasets, weight_mode="combined")
    assert 4.12 <= quad.m <= 4.52
    assert -0.31 <= quad.b <= -0.19
    assert quad.chi2_red > 1.3


def test_single_part_fit_is_strongly_linear():
    [part1] = [ds for ds in load_reference_dataset() if ds.part_id == "1"]
    fit = calibrate_datasets([part1], weight_mode="combined")
    assert fit.m > 0
    assert fit.r2 > 0.9


def test_unknown_weight_mode_rejected():
    datasets = load_reference_dataset()
    with pytest.raises(ValueError):
        calibrate_datasets(datasets[:1], weight_mode="nope")


def test_zero_count_points_are_left_out():
    sweep = SweepResult("1", "SS", 800.0)
    counted = SerMeasurement("1", "SS", 2.0, 0.02)
    zero = SerMeasurement("1", "SS", 0.0, math.inf)
    assert zero.zero_count and not counted.zero_count
    for mode in ("combined", "stat-only", "linear-sum"):
        assert build_weighted_points([(zero, sweep)], mode) == []
        assert len(build_weighted_points([(counted, sweep), (zero, sweep)],
                                         mode)) == 1


def test_calibrate_datasets_counts_left_out_points():
    datasets = load_reference_dataset()
    ds = datasets[0]
    for cell_type in ("SM", "SL"):
        ds.ser[cell_type] = SerMeasurement("1", cell_type, 0.0, math.inf)
    assert zero_count_blocks(datasets) == ["part 1 SM", "part 1 SL"]
    assert calibrate_datasets(datasets).n_points == 23
    for cell_type in ("MM", "LS"):
        ds.ser[cell_type] = SerMeasurement("1", cell_type, 0.0, math.inf)
    with pytest.raises(DegenerateFitError, match=r"need at least 2 points, got 1 "
                                                  r"after leaving out 4 zero-count"):
        calibrate_datasets([ds])
    empty = PartDataset("9", ser={"SS": SerMeasurement("9", "SS", 0.0, math.inf)},
                        sweeps={"SS": SweepResult("9", "SS", 800.0)})
    with pytest.raises(DegenerateFitError, match="got 0 after leaving out 1 "):
        calibrate_datasets([empty])


# --- bit identity with float64 arrays ------------------------------------------


def numpy_weighted_linfit(points):
    """The array implementation ``weighted_linfit`` replaced, kept verbatim
    as the oracle for its bits, its degenerate-fit messages aside."""
    points = list(points)
    n = len(points)
    if n < 2:
        raise DegenerateFitError(f"need at least 2 points, got {n}")
    x = np.array([p.x for p in points], dtype=np.float64)
    y = np.array([p.y for p in points], dtype=np.float64)
    sig = np.array([p.sigma_y for p in points], dtype=np.float64)
    w = 1.0 / (sig * sig)

    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    det = s * sxx - sx * sx
    if not np.isfinite(det):
        raise DegenerateFitError(
            f"the fit's weighted sums overflow (largest |margin| {np.abs(x).max():g} V, "
            f"largest weight {w.max():g}); slope is undetermined")
    if det <= 1e-12 * s * sxx:
        raise DegenerateFitError("all x values coincide; slope is undetermined")

    m = (s * sxy - sx * sy) / det
    b = (sxx * sy - sx * sxy) / det
    resid = y - (m * x + b)
    chi2 = float((w * resid * resid).sum())
    nu = n - 2
    chi2_red = chi2 / nu if nu > 0 else math.nan
    ybar = sy / s
    chi2_null = float((w * (y - ybar) ** 2).sum())
    if chi2_null > 0:
        r2 = 1.0 - chi2 / chi2_null
    else:
        r2 = 1.0  # all y identical and fit exact
    return CalibrationFit(
        m=float(m),
        b=float(b),
        sigma_m=math.sqrt(s / det),
        sigma_b=math.sqrt(sxx / det),
        cov_mb=float(-sx / det),
        chi2=chi2,
        nu=nu,
        chi2_red=chi2_red,
        r2=r2,
        n_points=n,
    )


def field_reprs(fit):
    return {name: repr(value) for name, value in vars(fit).items()}


def assert_same_bits(points):
    try:
        with np.errstate(all="ignore"):
            want = numpy_weighted_linfit(points)
    except DegenerateFitError as exc:
        with pytest.raises(DegenerateFitError, match=re.escape(str(exc))):
            weighted_linfit(points)
        return
    assert field_reprs(weighted_linfit(points)) == field_reprs(want)


def random_array(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "decades":  # magnitudes over 40 decades, mixed signs
        return rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    return rng.standard_normal(n) * 1e8 + 1e-3  # large terms around a small offset


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 1100), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "decades", "offset"]))
def test_pairwise_sum_matches_numpy_sum(n, seed, kind):
    values = random_array(seed, n, kind)
    assert repr(pairwise_sum(values.tolist())) == repr(float(values.sum()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), max_size=300))
@example([-0.0] * 9)
def test_pairwise_sum_matches_numpy_sum_on_any_floats(values):
    with np.errstate(all="ignore"):
        want = float(np.array(values).sum())
    assert repr(pairwise_sum(values)) == repr(want)


@pytest.mark.parametrize("n", [8191, 8192, 8193, 16_389, 65_537])
def test_pairwise_sum_matches_numpy_sum_long(n):
    for seed, kind in enumerate(["normal", "decades", "offset"]):
        values = random_array(seed, n, kind)
        assert repr(pairwise_sum(values.tolist())) == repr(float(values.sum()))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 600), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([1e-6, 1.0, 1e6]))
def test_fit_bits_match_array_oracle(n, seed, spread):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 0.5, n)
    y = 4.32 * x - 0.25 + rng.normal(0.0, 0.05, n)
    sig = rng.uniform(0.01, 0.1, n) * spread
    assert_same_bits([WeightedPoint(float(a), float(b), float(c))
                      for a, b, c in zip(x, y, sig)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                          st.floats(1e-200, 1e200)),
                min_size=2, max_size=40))
def test_fit_bits_match_array_oracle_on_any_points(triples):
    assert_same_bits([WeightedPoint(*t) for t in triples])


@pytest.mark.parametrize("weight_mode", ["combined", "stat-only", "linear-sum"])
def test_reference_fit_bits_match_array_oracle(weight_mode):
    datasets = load_reference_dataset()
    points = [pt for ds in datasets
              for pt in build_weighted_points(ds.pairs(), weight_mode)]
    want = numpy_weighted_linfit(points)
    want.weight_mode = weight_mode
    assert field_reprs(calibrate_datasets(datasets, weight_mode)) == field_reprs(want)
