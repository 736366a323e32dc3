"""Poisson event generation, window flips, and the multi-flip masking model."""

import math

import numpy as np
import pytest
from scipy import stats

from wlvmser import kernels, radiation
from wlvmser.errors import ConfigurationError
from wlvmser.radiation import (MAX_EXPECTED_EVENTS, AlphaSource, generate_events,
                               undetected_fraction)
from wlvmser.sram import sample_array


def _uniform_rate_array(model, rate, seed=0, rows=64, cols=64):
    return sample_array("SS", model, seed=seed, rows=rows, cols=cols,
                        true_seu_rate=rate)


def test_zero_rate_generates_nothing(ss_model):
    array = _uniform_rate_array(ss_model, 0.0)
    events = generate_events(array, AlphaSource(), 1000.0, seed=1)
    assert len(events) == 0


@pytest.mark.parametrize("kwargs, message", [
    ({"rate_per_bit": -1e-3}, "rate_per_bit must be >= 0"),
    ({"rate_per_bit": math.nan}, "rate_per_bit must be >= 0"),
    ({"geom_factor": 1.2}, r"geom_factor must lie in \[0.9, 1.1\]"),
    ({"geom_factor": math.nan}, r"geom_factor must lie in \[0.9, 1.1\]"),
])
def test_alpha_source_refuses_bad_parameters(kwargs, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        AlphaSource(**kwargs)


@pytest.mark.parametrize("rate", [0.0, 1.46, 100.0])
def test_event_cells_are_int32_and_the_int64_draw(ss_model, rate):
    """Below 2**32 values ``Generator.integers`` draws the same cells as
    ``int32`` as it does as ``int64``."""
    array = _uniform_rate_array(ss_model, rate)
    events = generate_events(array, AlphaSource(), 3600.0, seed=11)
    assert events.cells.dtype == np.int32
    rng = np.random.default_rng(11)
    if rate:
        times = radiation._arrival_times(rng, rate * 1e-6 * array.n_cells, 3600.0)
        assert times.tobytes() == events.times.tobytes()
    want = rng.integers(0, array.n_cells, len(events), dtype=np.int64)
    assert np.array_equal(events.cells, want)


def test_event_count_near_reference_conditions(ss_model):
    # 1.46 uSEU/(bit*s) over 4096 bits for 120 h -> about 2583 events
    array = _uniform_rate_array(ss_model, 1.46)
    events = generate_events(array, AlphaSource(rate_per_bit=1.46), 432_000.0, seed=3)
    expected = 1.46e-6 * 4096 * 432_000
    assert abs(len(events) - expected) < 4 * math.sqrt(expected)
    assert np.all(np.diff(events.times) >= 0)
    assert events.times.min() >= 0 and events.times.max() < 432_000.0
    assert events.cells.min() >= 0 and events.cells.max() < 4096


def test_event_budget_rejects_before_drawing(ss_model):
    """1e9 uSEU/(bit*s) over 4096 bits for 120 h would be 1.8e12 events."""
    array = _uniform_rate_array(ss_model, 1e9)
    with pytest.raises(ConfigurationError, match=rf"1\.77e\+12 events .* {MAX_EXPECTED_EVENTS}"):
        generate_events(array, AlphaSource(rate_per_bit=1e9), 432_000.0, seed=1)


def test_event_budget_bounds_the_expected_count(ss_model, monkeypatch):
    monkeypatch.setattr(radiation, "MAX_EXPECTED_EVENTS", 1000)
    array = _uniform_rate_array(ss_model, 1.0)  # 4.096e-3 events/s
    assert len(generate_events(array, AlphaSource(), 1000 / 4.096e-3 * 0.9, seed=1)) > 0
    with pytest.raises(ConfigurationError, match="budget of 1000 events"):
        generate_events(array, AlphaSource(), 1000 / 4.096e-3 * 1.1, seed=1)


def test_mean_count_over_seeds_matches_poisson(ss_model):
    array = _uniform_rate_array(ss_model, 2.0, rows=16, cols=16)
    source = AlphaSource()
    duration = 1.0e6
    expected = 2.0e-6 * array.n_cells * duration
    counts = [len(generate_events(array, source, duration, seed=s))
              for s in range(100)]
    assert abs(np.mean(counts) - expected) < 4 * math.sqrt(expected)
    # dispersion sanity: variance of a Poisson count equals its mean
    assert 0.5 * expected < np.var(counts) < 2.0 * expected


def test_interarrival_times_exponential(ss_model):
    # single-cell array so the per-cell process is directly observable
    array = _uniform_rate_array(ss_model, 1.0e6, rows=1, cols=1)
    lam = 1.0  # events per second
    passed = 0
    n_seeds = 40
    for seed in range(n_seeds):
        events = generate_events(array, AlphaSource(), 400.0, seed=seed)
        gaps = np.diff(events.times)
        p = stats.kstest(gaps, "expon", args=(0, 1 / lam)).pvalue
        passed += p > 0.01
    assert passed >= 38  # >= 95% of seeds


def test_window_counts_poisson_dispersion(ss_model):
    array = _uniform_rate_array(ss_model, 1.46)
    events = generate_events(array, AlphaSource(), 432_000.0, seed=8)
    counts, _ = np.histogram(events.times, bins=200, range=(0, 432_000.0))
    n = counts.size
    dispersion = (n - 1) * counts.var(ddof=1) / counts.mean()
    lo = stats.chi2.ppf(0.005, n - 1)
    hi = stats.chi2.ppf(0.995, n - 1)
    assert lo < dispersion < hi


def test_geom_factor_scales_expected_count_linearly(ss_model):
    array = _uniform_rate_array(ss_model, 1.0, rows=32, cols=32)
    duration = 2.0e6
    low = AlphaSource(geom_factor=0.9)
    high = AlphaSource(geom_factor=1.08)
    mean_low = np.mean([len(generate_events(array, low, duration, seed=s))
                        for s in range(40)])
    mean_high = np.mean([len(generate_events(array, high, duration, seed=s + 100))
                         for s in range(40)])
    assert mean_high / mean_low == pytest.approx(1.2, rel=0.03)


def test_alpha_source_validation():
    with pytest.raises(ConfigurationError):
        AlphaSource(rate_per_bit=-1.0)
    with pytest.raises(ConfigurationError):
        AlphaSource(rate_per_bit=float("nan"))
    with pytest.raises(ConfigurationError):
        AlphaSource(geom_factor=1.2)


# --- window flips -------------------------------------------------------------

def test_double_hit_cancels():
    counts, hits = kernels.window_observed_flips(
        np.array([0, 0]), np.array([3, 3]), 1, 4)
    assert counts.tolist() == [0]
    assert hits.tolist() == [2]


def test_disjoint_windows_apply_every_event_once(ss_model):
    array = _uniform_rate_array(ss_model, 2.0, rows=8, cols=8)
    events = generate_events(array, AlphaSource(), 4.0e5, seed=13)
    windows = (events.times // 5.0e4).astype(np.int64)  # 8 windows
    counts, hits = kernels.window_observed_flips(windows, events.cells, 8,
                                                 array.n_cells)
    assert np.array_equal(hits, np.bincount(windows, minlength=8))
    masked = hits - counts
    assert np.all(masked >= 0) and np.all(masked % 2 == 0)
    assert 0 < counts.sum() <= len(events)


# --- masking model ----------------------------------------------------------

def test_undetected_fraction_limit_and_example():
    assert undetected_fraction(0.0, 1800.0) == 0.0
    # about one event per minute spread over 20480 bits, read every 30 min
    lam_cell = (1 / 60) / 20480
    f = undetected_fraction(lam_cell, 1800.0)
    assert f == pytest.approx(1.46e-3, rel=0.01)
    assert f < 0.01


def test_undetected_fraction_monotone_and_bounded():
    xs = np.logspace(-6, 3, 60)
    values = [undetected_fraction(x, 1.0) for x in xs]
    assert all(0 <= v < 1 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_undetected_fraction_validation():
    with pytest.raises(ValueError):
        undetected_fraction(-1.0, 10.0)
    with pytest.raises(ValueError):
        undetected_fraction(1.0, 0.0)


def test_masked_fraction_monte_carlo_small():
    from wlvmser.kernels import masked_upsets_mc
    lam_ts = 5e-3
    masked, total = masked_upsets_mc(lam_ts, 2_000_000, seed=77)
    f = undetected_fraction(lam_ts, 1.0)
    assert abs(masked / total - f) <= 3 * math.sqrt(f * (1 - f) / total)
