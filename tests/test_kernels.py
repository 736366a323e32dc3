"""Independent oracles for the numeric kernels."""

import math

import numpy as np
import pytest

from wlvmser import kernels
from wlvmser.errors import ConfigurationError
from wlvmser.radiation import undetected_fraction

def _random_events(rng, n_events, n_windows, n_cells):
    windows = np.sort(rng.integers(0, n_windows, n_events)).astype(np.int64)
    cells = rng.integers(0, n_cells, n_events).astype(np.int64)
    return windows, cells


def window_flips_oracle(windows, cells, n_windows, n_cells):
    """Explicit read-compare-update loop, the way the bench sees flips."""
    state = np.zeros(n_cells, dtype=np.uint8)
    reference = state.copy()
    counts = np.zeros(n_windows, dtype=np.int64)
    for w in range(n_windows):
        for c in cells[windows == w]:
            state[c] ^= 1
        counts[w] = int(np.count_nonzero(state != reference))
        reference = state.copy()
    return counts, state


def sweep_oracle(thresholds, v_start, delta_v):
    """Explicit step-down loop: lower the voltage one step at a time and
    register each cell at the first visited voltage below its threshold."""
    t = np.asarray(thresholds, dtype=np.int64)
    fail_v = np.full(t.size, -1, dtype=np.int64)
    v = v_start
    while (fail_v < 0).any():
        v = max(v - delta_v, 0)
        newly = (fail_v < 0) & (v < t)
        fail_v[newly] = v
        if v == 0:
            break
    return fail_v


@pytest.mark.parametrize("n_events", [0, 1, 40, 2600])
def test_window_flips_matches_oracle(n_events):
    rng = np.random.default_rng(n_events)
    n_windows, n_cells = 12, 64
    windows, cells = _random_events(rng, n_events, n_windows, n_cells)
    counts, parity = kernels.window_observed_flips(windows, cells, n_windows, n_cells)
    oracle_counts, oracle_state = window_flips_oracle(windows, cells, n_windows, n_cells)
    assert np.array_equal(counts, oracle_counts)
    assert np.array_equal(parity, oracle_state)


def test_window_flips_validation():
    with pytest.raises(ValueError):
        kernels.window_observed_flips(np.array([1, 0]), np.array([0, 0]), 2, 4)
    with pytest.raises(ValueError):
        kernels.window_observed_flips(np.array([2]), np.array([0]), 2, 4)
    with pytest.raises(ValueError):
        kernels.window_observed_flips(np.array([0, 1]), np.array([0]), 2, 4)


@pytest.mark.parametrize("delta_v", [1, 7, 10, 50])
def test_sweep_registration_matches_oracle(delta_v):
    rng = np.random.default_rng(delta_v)
    thresholds = np.clip(np.rint(rng.normal(800, 150, 2000)), 1, 1200).astype(np.int64)
    fail_v = kernels.sweep_registration(thresholds, 1200, delta_v)
    assert np.array_equal(fail_v, sweep_oracle(thresholds, 1200, delta_v))
    # every registered voltage passes at one step above and fails where registered
    assert np.all(fail_v < thresholds)
    assert np.all(fail_v + delta_v >= thresholds)


@pytest.mark.parametrize("delta_v", [1, 7, 10, 50])
def test_sweep_registration_thresholds_above_start(delta_v):
    rng = np.random.default_rng(100 + delta_v)
    thresholds = rng.integers(1, 1500, 3000)
    fail_v = kernels.sweep_registration(thresholds, 1000, delta_v)
    assert np.array_equal(fail_v, sweep_oracle(thresholds, 1000, delta_v))
    # cells already failing at the start register at the first visited step
    assert np.all(fail_v[thresholds > 1000] == 1000 - delta_v)


def test_sweep_registration_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        kernels.sweep_registration(np.array([0, 100]), 1200, 10)
    with pytest.raises(ConfigurationError):
        kernels.sweep_registration(np.array([100]), 1200, 0)


def test_masked_mc_agrees_with_analytic():
    lam_ts = 0.02
    n = 2_000_000
    masked, total = kernels.masked_upsets_mc(lam_ts, n, 12345)
    f = undetected_fraction(lam_ts / 2, 2.0)  # lambda*ts = 0.02
    tol = 4.0 * math.sqrt(f * (1 - f) / total)
    assert abs(masked / total - f) <= tol


def test_masked_mc_deterministic():
    assert (kernels.masked_upsets_mc(1.5e-3, 100_000, 7)
            == kernels.masked_upsets_mc(1.5e-3, 100_000, 7))


def test_masked_mc_rejects_negative_rate():
    with pytest.raises(ValueError):
        kernels.masked_upsets_mc(-1.0, 10, 0)
