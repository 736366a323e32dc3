"""Measurement procedure executors: SER test and sweeps."""

import math
import re

import numpy as np
import pytest

from conftest import manual_array, single_type_model
from wlvmser import io, protocols
from wlvmser.errors import ConfigurationError, ProtocolError
from wlvmser.io import write_ser_log, write_sweep_log
from wlvmser.protocols import (run_hold_sweep, run_read_sweep, run_ser_test,
                               run_wlvm_sweep)
from wlvmser.radiation import AlphaSource, generate_events, undetected_fraction
from wlvmser.records import word_line_voltage_margin
from wlvmser.sram import VariationModel, sample_array


def _block(model, rate=0.0, seed=0, **kw):
    return sample_array("SS", model, seed=seed, true_seu_rate=rate, **kw)


# --- SER test ---------------------------------------------------------------

def test_ser_test_zero_rate(ss_model):
    meas = run_ser_test(_block(ss_model), AlphaSource(), ts=1800, duration=36_000, seed=0)
    assert meas.ser == 0.0
    assert meas.n_tot == 0
    assert np.all(meas.window_counts == 0)
    assert meas.n_windows == 20
    assert math.isinf(meas.rel_stat_unc)


def test_ser_test_recovers_reference_rate(ss_model):
    meas = run_ser_test(_block(ss_model, rate=1.46, seed=1),
                        AlphaSource(rate_per_bit=1.46), ts=1800,
                        duration=432_000, seed=2)
    assert meas.n_windows == 240
    assert meas.t_exp == 432_000
    # statistical recovery within 4 sigma of the injected rate
    assert abs(meas.ser - 1.46) <= 4 * meas.rel_stat_unc * 1.46
    assert meas.rel_stat_unc == pytest.approx(1 / math.sqrt(meas.n_tot))


def test_ser_identity_fields(ss_model):
    meas = run_ser_test(_block(ss_model, rate=1.0, seed=3), AlphaSource(),
                        ts=600, duration=120_000, seed=4)
    assert meas.n_tot == int(meas.window_counts.sum())
    assert meas.t_exp == meas.n_windows * meas.ts
    assert meas.ser == 1e6 * meas.n_tot / (meas.t_exp * meas.n_bits)


def test_ser_test_matches_explicit_replay(ss_model):
    """Window counts equal an explicit inject-read-compare replay."""
    kw = dict(rate=2.0, seed=5, rows=16, cols=16)
    source = AlphaSource()
    ts, duration, seed = 500.0, 20_000.0, 6
    meas = run_ser_test(_block(ss_model, **kw), source, ts, duration, seed=seed)

    array = _block(ss_model, **kw)
    n_windows = int(duration // ts)
    events = generate_events(array, source, n_windows * ts, seed=seed)
    state = np.zeros(array.n_cells, dtype=np.uint8)
    reference = state.copy()
    counts = []
    for w in range(n_windows):
        in_window = (events.times >= w * ts) & (events.times < (w + 1) * ts)
        for cell in events.cells[in_window]:
            state[cell] ^= 1
        counts.append(int(np.count_nonzero(state != reference)))
        reference = state.copy()
    assert np.array_equal(meas.window_counts, np.array(counts))


def test_ser_test_underestimates_at_large_lambda_ts(ss_model):
    # crank the rate until multi-flip masking is a ~20% effect
    rate = 200.0  # uSEU/(bit*s)
    ts = 1800.0
    lam_cell = rate * 1e-6
    f = undetected_fraction(lam_cell, ts)
    assert f > 0.15
    meas = run_ser_test(_block(ss_model, rate=rate, seed=7), AlphaSource(),
                        ts=ts, duration=180_000, seed=8)
    observed_ratio = meas.ser / rate
    assert observed_ratio == pytest.approx(1 - f, rel=0.02)


def test_ser_cumulative_count_is_linear(ss_model):
    meas = run_ser_test(_block(ss_model, rate=1.46, seed=11), AlphaSource(),
                        ts=1800, duration=432_000, seed=12)
    cumulative = np.cumsum(meas.window_counts)
    t = (np.arange(meas.n_windows) + 1) * meas.ts
    slope = np.polyfit(t, cumulative, 1)[0]
    rate = meas.n_tot / meas.t_exp
    assert abs(slope - rate) <= 4 * math.sqrt(meas.n_tot) / meas.t_exp


def test_ser_test_inoperable_count_is_per_cell(ss_model):
    """A cell that fails both the write and the read counts once."""
    array = _block(ss_model, v_dd=700)
    with pytest.raises(ProtocolError, match="not operable") as info:
        run_ser_test(array, AlphaSource(), ts=1800, duration=3600, seed=0)
    assert str(info.value).startswith("part 0 SS: ")
    n_bad = int(re.search(r"failed for (\d+) cells", str(info.value)).group(1))
    expected = (array.v_wl_min > 700) | (array.v_dd_min_read > 700)
    assert n_bad == int(expected.sum()) <= array.n_cells


def test_ser_test_duration_validation(ss_model):
    with pytest.raises(ConfigurationError):
        run_ser_test(_block(ss_model), AlphaSource(), ts=1800, duration=900, seed=0)
    with pytest.raises(ConfigurationError):
        run_ser_test(_block(ss_model), AlphaSource(), ts=0, duration=900, seed=0)
    for ts, duration in ((math.nan, 900), (1800, math.nan), (1800, math.inf)):
        with pytest.raises(ConfigurationError, match="must be"):
            run_ser_test(_block(ss_model), AlphaSource(), ts=ts, duration=duration)


def test_ser_test_window_budget(ss_model, monkeypatch):
    """More windows than ``MAX_EXPECTED_EVENTS`` are refused up front."""
    monkeypatch.setattr(protocols, "MAX_EXPECTED_EVENTS", 20)
    meas = run_ser_test(_block(ss_model), AlphaSource(), ts=1800, duration=20 * 1800)
    assert meas.n_windows == 20
    with pytest.raises(ConfigurationError, match="21 sampling windows .* budget of 20"):
        run_ser_test(_block(ss_model), AlphaSource(), ts=1800, duration=21 * 1800)


@pytest.mark.parametrize("ts", [1800.0, 0.1, 1 / 3, 0.7, 7.3, 1e-3])
def test_event_windows_match_the_division(ts):
    """Each ``i * ts``, the doubles on either side of it, 0, the horizon
    ``n * ts`` and times past it fall in ``min(int(t / ts), n - 1)``, and
    each searched window start is the first double of its window."""
    n_windows = 5000
    grid = np.arange(n_windows + 1) * ts
    times = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                            np.random.default_rng(1).uniform(0, 2 * n_windows * ts, 5000)])
    times = np.sort(times[times >= 0])
    assert times[0] == 0.0
    windows = protocols._event_windows(times, ts, n_windows)
    assert windows.dtype == np.int32
    assert np.array_equal(
        windows, np.minimum((times / ts).astype(np.int64), n_windows - 1))
    starts, i = protocols._window_starts(ts, n_windows)[1:-1], np.arange(1, n_windows)
    assert np.all(starts / ts >= i) and np.all(np.nextafter(starts, -np.inf) / ts < i)


def test_event_windows_need_sorted_times():
    assert protocols._event_windows(np.empty(0), 1800.0, 240).size == 0
    assert protocols._event_windows(np.array([5.0, 5.0]), 1.0, 3).tolist() == [2, 2]
    with pytest.raises(ValueError, match="event times must be sorted"):
        protocols._event_windows(np.array([2.0, 1.0]), 1.0, 3)


@pytest.mark.parametrize("lam_ts, n_windows", [(0.18, 9600), (0.0026, 48_000),
                                               (0.24, 6000)])
def test_ser_test_window_counts_follow_the_exact_law(ss_model, lam_ts, n_windows):
    """Within one window each cell takes Poisson(lam * ts) hits and reads
    back changed iff their count is odd, so the window counts of the real
    SER path are iid Binomial(n_cells, (1 - exp(-2 lam ts)) / 2).  Their
    mean and variance must match it within 4 standard errors."""
    ts = 1800.0
    array = sample_array("SS", ss_model, seed=21, rows=32, cols=32,
                         true_seu_rate=lam_ts / ts * 1e6)
    counts = run_ser_test(array, AlphaSource(), ts=ts, duration=n_windows * ts,
                          seed=22).window_counts
    assert counts.size == n_windows
    p = -math.expm1(-2 * lam_ts) / 2
    mean, var = array.n_cells * p, array.n_cells * p * (1 - p)
    z = (counts.mean() - mean) / math.sqrt(var / n_windows)
    assert abs(z) <= 4
    # standard error of a sample variance: 2 / (W - 1) plus the excess
    # kurtosis of the binomial over W, relative to the variance squared
    kurtosis = (1 - 6 * p * (1 - p)) / var
    se_ratio = math.sqrt(2 / (n_windows - 1) + kurtosis / n_windows)
    assert abs(counts.var(ddof=1) / var - 1) <= 4 * se_ratio


def test_ser_log_csv(ss_model, tmp_path):
    meas = run_ser_test(_block(ss_model, rate=1.0, seed=13), AlphaSource(),
                        ts=600, duration=6_000, seed=14)
    path = write_ser_log(meas, tmp_path / "ser.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "window_index,t_start_s,n_i,cumulative"
    assert len(lines) == meas.n_windows + 1
    last = lines[-1].split(",")
    assert int(last[3]) == meas.n_tot


# --- word-line margin sweep ---------------------------------------------------

def assert_registration(result, fail_v):
    """The sweep's histogram, ``mu`` and ``sigma`` are those of the bench
    oracle's registrations ``fail_v`` (midpoint corrected), bit for bit,
    and ``se_mean`` is ``sigma`` over the root of the cell count."""
    voltages, counts = np.unique(fail_v, return_counts=True)
    assert result.histogram == dict(zip(voltages.tolist(), counts.tolist()))
    per_cell = fail_v + result.delta_v / 2
    assert result.mu.hex() == float(per_cell.mean()).hex()
    sigma = float(per_cell.std(ddof=1)) if per_cell.size > 1 else 0.0
    assert result.sigma.hex() == sigma.hex()
    assert result.n_cells == fail_v.size
    assert result.se_mean == sigma / math.sqrt(fail_v.size)


def wlvm_sweep_oracle(array, delta_v):
    """Bench procedure: write a background at nominal, write the opposite
    value with the word line lowered one more step and read back at
    nominal; register each cell at its first write that did not take."""
    fail_v = np.full(array.n_cells, -1, dtype=np.int64)
    v = array.v_dd
    while v > 0 and (fail_v < 0).any():
        v = max(v - delta_v, 0)
        missed = array.v_wl_min > v
        fail_v[missed & (fail_v < 0)] = v
    return fail_v


def test_wlvm_sweep_recovers_distribution(ss_model):
    for seed in (1, 2, 3):
        array = _block(ss_model, seed=seed)
        result = run_wlvm_sweep(array, delta_v=10)
        assert abs(result.mu - 791.0) <= 3 * result.se_mean + 2.0
        assert abs(result.sigma - 44.0) <= 0.08 * 44.0
        assert result.se_mean < 1.0
        assert sum(result.histogram.values()) == array.n_cells
        assert_registration(result, wlvm_sweep_oracle(array, 10))


def test_wlvm_sweep_degenerate_distribution():
    model = single_type_model(mu_vwlmin=792.0, sigma_vwlmin=0.0)
    result = run_wlvm_sweep(sample_array("SS", model, seed=0), delta_v=10)
    assert len(result.histogram) == 1
    assert result.histogram == {790: 4096}
    assert result.sigma == 0.0


def test_wlvm_sweep_cumulative_monotone(ss_model):
    result = run_wlvm_sweep(_block(ss_model, seed=4), delta_v=10)
    voltages = sorted(result.histogram, reverse=True)  # sweep order
    counts = np.array([result.histogram[v] for v in voltages])
    cumulative = np.cumsum(counts)
    assert np.all(np.diff(cumulative) >= 0)
    assert cumulative[-1] == result.n_cells


def test_wlvm_sweep_margin_identity(ss_model):
    array = _block(ss_model, seed=5)
    result = run_wlvm_sweep(array, delta_v=10)
    margin = word_line_voltage_margin(array.v_dd, result.mu)
    assert margin + result.mu == array.v_dd  # exact: dyadic mean over 4096 cells


def test_wlvm_sweep_deterministic(ss_model):
    a = run_wlvm_sweep(_block(ss_model, seed=6), delta_v=10)
    b = run_wlvm_sweep(_block(ss_model, seed=6), delta_v=10)
    assert a.mu == b.mu and a.histogram == b.histogram


def test_wlvm_sweep_delta_validation(ss_model):
    with pytest.raises(ConfigurationError):
        run_wlvm_sweep(_block(ss_model), delta_v=0)
    with pytest.raises(ConfigurationError):
        run_wlvm_sweep(_block(ss_model), delta_v=1300)


def test_sweep_log_csv(ss_model, tmp_path):
    result = run_wlvm_sweep(_block(ss_model, seed=7), delta_v=10)
    path = write_sweep_log(result, tmp_path / "sweep.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,v_mV,new_failures,cumulative_failures"
    *_, last = lines
    step, v, new, cum = last.split(",")
    assert int(cum) == result.n_cells
    assert int(v) == min(result.histogram)
    # steps descend the grid one delta_v at a time
    second = lines[1].split(",")
    assert int(second[1]) == result.v_nominal - result.delta_v


def _sweep_log_rows_by_loop(result):
    """The step loop ``write_sweep_log`` once ran, kept as its oracle."""
    lowest = min(result.histogram)
    rows, cumulative, step, v = [], 0, 0, result.v_nominal
    while v > lowest:
        step += 1
        v = max(result.v_nominal - result.delta_v * step, 0)
        new = result.histogram.get(v, 0)
        cumulative += new
        rows.append(f"{step},{v},{new},{cumulative}")
    return rows


def test_sweep_log_clamped_at_zero(tmp_path):
    """A cell writable at 3 mV fails only at the 0 V step, 1200/7 steps down."""
    result = run_wlvm_sweep(manual_array([3, 900]), delta_v=7)
    lines = write_sweep_log(result, tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 172
    assert lines[-1] == "172,0,1,2"
    assert lines[1:] == _sweep_log_rows_by_loop(result)


def test_sweep_log_matches_step_loop(tmp_path):
    rng = np.random.default_rng(23)
    for _ in range(20):
        v_dd = int(rng.integers(500, 1400))
        n = int(rng.integers(1, 50))
        array = manual_array(rng.integers(1, v_dd + 1, n), v_dd=v_dd)
        result = run_wlvm_sweep(array, delta_v=int(rng.integers(1, 40)))
        lines = write_sweep_log(result, tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1:] == _sweep_log_rows_by_loop(result)


@pytest.mark.parametrize("step", [np.uint64(10), np.int64(10)])
def test_a_numpy_step_is_recorded_as_an_int(step, tmp_path):
    """A numpy step is recorded by value, so the sweep log of a uint64 step
    is that of ``delta_v=10`` instead of an overflow in its step count."""
    array = sample_array("SS", VariationModel.default(), seed=1, rows=8, cols=8)
    result = run_wlvm_sweep(array, step)
    assert type(result.delta_v) is int and result.delta_v == 10
    log = write_sweep_log(result, tmp_path / "numpy.csv").read_bytes()
    assert log == write_sweep_log(run_wlvm_sweep(array, 10), tmp_path / "int.csv").read_bytes()


def test_a_sweep_log_over_budget_is_refused_before_any_row(ss_model, tmp_path, monkeypatch):
    """The log's row count is checked against ``MAX_EXPECTED_EVENTS`` before
    a row is built, and a refused log leaves no file."""
    result = run_hold_sweep(_block(ss_model, seed=7))
    n_steps = -(-(result.v_nominal - min(result.histogram)) // result.delta_v)
    assert 80 <= n_steps <= 100
    monkeypatch.setattr(io, "MAX_EXPECTED_EVENTS", 20)
    path = tmp_path / "sweep.csv"
    with pytest.raises(ConfigurationError, match=re.escape(
            f"a sweep log of {n_steps} steps of 10 mV down from a supply of 1200 mV is "
            f"more than the budget of 20 rows; raise --delta-v or lower the supply")):
        write_sweep_log(result, path)
    assert not path.exists()
    monkeypatch.setattr(io, "MAX_EXPECTED_EVENTS", n_steps)
    assert len(write_sweep_log(result, path).read_text().splitlines()) == 1 + n_steps


# --- margin arithmetic --------------------------------------------------------

def test_margin_reference_values():
    assert word_line_voltage_margin(1200, 791) == 409  # measured part 1
    assert word_line_voltage_margin(1200, 792) == 408  # simulated threshold
    assert word_line_voltage_margin(850, 850) == 0


def test_margin_domain_error():
    with pytest.raises(ValueError):
        word_line_voltage_margin(1200, 1250)
    with pytest.raises(ValueError):
        word_line_voltage_margin(1200, -5)


# --- hold sweep ----------------------------------------------------------------

def hold_sweep_oracle(array, delta_v, preferred=None):
    """Bench procedure: for each background polarity, write at nominal,
    drop the supply one more step, restore it and read back; register each
    cell at its first corruption over both polarities.  Below its hold
    threshold a cell collapses to its ``preferred`` state (random unless
    given), which the closed form never sees."""
    if preferred is None:
        preferred = np.random.default_rng(array.n_cells).integers(0, 2, array.n_cells)
    preferred = np.asarray(preferred)
    fail_v = np.full(array.n_cells, -1, dtype=np.int64)
    for written in (0, 1):
        can_corrupt = preferred != written
        v = array.v_dd
        while v > 0 and (can_corrupt & (fail_v < 0)).any():
            v = max(v - delta_v, 0)
            bits = np.where(array.v_dd_min_hold > v, preferred, written)
            fail_v[(bits != written) & (fail_v < 0)] = v
    return fail_v


def read_sweep_oracle(array, delta_v):
    """Bench procedure: write a background at nominal, read it back at a
    supply lowered one more step; register each cell at its first read
    failure."""
    fail_v = np.full(array.n_cells, -1, dtype=np.int64)
    v = array.v_dd
    while v > 0 and (fail_v < 0).any():
        v = max(v - delta_v, 0)
        failed = array.v_dd_min_read > v
        fail_v[failed & (fail_v < 0)] = v
    return fail_v


@pytest.mark.parametrize("runner, oracle", [(run_hold_sweep, hold_sweep_oracle),
                                            (run_read_sweep, read_sweep_oracle)])
def test_supply_sweeps_match_bench_procedure(runner, oracle):
    rng = np.random.default_rng(2024)
    blocks = []
    for _ in range(60):
        n = int(rng.integers(1, 80))
        v_dd = int(rng.choice([600, 1000, 1200]))
        delta_v = int(rng.choice([1, 7, 10, 50]))
        blocks.append((v_dd, delta_v, rng.integers(1, v_dd + 1, n),
                       rng.integers(1, v_dd + 1, n), rng.integers(1, v_dd + 1, n)))
    # 200 cells below one step register at 0 V, through the per-voltage table;
    # 3 cells reach 1200 mV, above their count, and register per cell
    low, wide = np.arange(200) % 49 + 1, np.array([1, 600, 1200])
    blocks += [(1200, 50, low, low, low), (1200, 7, wide, wide, wide)]
    for v_dd, delta_v, v_wl_min, hold, read in blocks:
        array = manual_array(v_wl_min, v_dd_min_hold=hold, v_dd_min_read=read, v_dd=v_dd)
        result = runner(array, delta_v=delta_v)
        assert_registration(result, oracle(array, delta_v))


def test_hold_sweep_registers_every_cell(ss_model):
    array = _block(ss_model, seed=8)
    result = run_hold_sweep(array, delta_v=10)
    assert result.swept_quantity == "vdd_hold"
    assert sum(result.histogram.values()) == array.n_cells
    assert abs(result.mu - 450.0) <= 3 * result.se_mean + 10 / 2 + 1


def test_hold_sweep_two_threshold_order():
    array = manual_array([900, 900], v_dd_min_hold=[300, 500])
    result = run_hold_sweep(array, delta_v=10)
    fail_v = hold_sweep_oracle(array, 10)
    # the weaker-hold cell (500 mV) must register first, i.e. at higher v_dd
    assert fail_v.tolist() == [290, 490]
    assert_registration(result, fail_v)
    assert result.mu == pytest.approx(395.0)


def test_hold_sweep_polarity_merge_covers_both_preferred_states():
    array = manual_array([900, 900, 900, 900], v_dd_min_hold=[400, 400, 600, 600])
    result = run_hold_sweep(array, delta_v=10)
    fail_v = hold_sweep_oracle(array, 10, preferred=[0, 1, 0, 1])
    assert fail_v.tolist() == [390, 390, 590, 590]
    assert_registration(result, fail_v)
    assert result.histogram == {390: 2, 590: 2}


# --- read sweep -----------------------------------------------------------------

def test_read_sweep_recovers_distribution(ss_model):
    result = run_read_sweep(_block(ss_model, seed=9), delta_v=10)
    assert result.swept_quantity == "vdd_read"
    assert abs(result.mu - 650.0) <= 3 * result.se_mean + 10 / 2 + 1
    assert sum(result.histogram.values()) == 4096


def test_read_sweep_degenerate_distribution():
    model = single_type_model(sigma_read=0.0)
    result = run_read_sweep(sample_array("SS", model, seed=0), delta_v=10)
    assert len(result.histogram) == 1
    assert result.histogram == {640: 4096}


# --- supply preconditions ---------------------------------------------------------

@pytest.mark.parametrize("runner, field", [(run_wlvm_sweep, "v_wl_min"),
                                           (run_hold_sweep, "v_dd_min_hold"),
                                           (run_read_sweep, "v_dd_min_read")])
def test_sweep_rejects_threshold_above_supply(runner, field):
    kw = dict(v_wl_min=[900] * 3, v_dd_min_hold=[450] * 3, v_dd_min_read=[650] * 3)
    kw[field] = [kw[field][0], 1201, 1300]
    with pytest.raises(ProtocolError, match=r"2 of 3 cells .* v_dd=1200 mV"):
        runner(manual_array(**kw), delta_v=10)


@pytest.mark.parametrize("runner, field", [(run_hold_sweep, "v_dd_min_hold"),
                                           (run_read_sweep, "v_dd_min_read")])
def test_supply_sweeps_reject_unwritable_cells(runner, field, ss_model):
    """At 700 mV many write thresholds exceed the supply: the background
    cannot be written, so the part is flagged rather than mis-measured."""
    array = _block(ss_model, v_dd=700)
    unwritable = array.v_wl_min > 700
    assert 0 < unwritable.sum() < array.n_cells
    n_bad = int((unwritable | (getattr(array, field) > 700)).sum())
    with pytest.raises(ProtocolError, match=f"{n_bad} of 4096 cells .* not operable"):
        runner(array, delta_v=10)
