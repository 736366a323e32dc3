"""Cell/array model: sampling statistics, voltage semantics, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import manual_array, single_type_model
from wlvmser import radiation, records, sram
from wlvmser.errors import ConfigurationError, ProtocolError
from wlvmser.pipeline import simulate_parts, simulate_supply_sweeps
from wlvmser.protocols import (run_hold_sweep, run_read_sweep, run_ser_test,
                               run_wlvm_sweep)
from wlvmser.radiation import AlphaSource
from wlvmser.records import TypeVariation, VariationModel
from wlvmser.refdata import CELL_TYPE_ORDER, DATA_DIR
from wlvmser.sram import sample_array

SRC = str(Path(sram.__file__).resolve().parents[1])


def test_sample_mean_tracks_model_mean(ss_model):
    array = sample_array("SS", ss_model, seed=42)
    se = 44.0 / np.sqrt(4096)
    assert abs(array.v_wl_min.mean() - 791.0) <= 3 * se


def test_zero_sigma_is_degenerate():
    model = single_type_model(mu_vwlmin=792.0, sigma_vwlmin=0.0)
    array = sample_array("SS", model, seed=1)
    assert np.all(array.v_wl_min == 792)


def test_same_seed_identical_arrays(ss_model):
    a = sample_array("SS", ss_model, part_offset=5.0, seed=123)
    b = sample_array("SS", ss_model, part_offset=5.0, seed=123)
    for name in ("v_wl_min", "v_dd_min_hold", "v_dd_min_read"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = sample_array("SS", ss_model, part_offset=5.0, seed=124)
    assert not np.array_equal(a.v_wl_min, c.v_wl_min)


def test_part_offset_shifts_all_means(ss_model):
    base = sample_array("SS", ss_model, seed=5)
    shifted = sample_array("SS", ss_model, part_offset=40.0, seed=5)
    for name in ("v_wl_min", "v_dd_min_hold", "v_dd_min_read"):
        delta = getattr(shifted, name).mean() - getattr(base, name).mean()
        assert abs(delta - 40.0) < 5.0


def test_rejection_sampling_keeps_thresholds_in_range():
    model = single_type_model(mu_vwlmin=30.0, sigma_vwlmin=200.0,
                              mu_hold=1150.0, sigma_hold=200.0)
    array = sample_array("SS", model, seed=9)
    for name in ("v_wl_min", "v_dd_min_hold", "v_dd_min_read"):
        values = getattr(array, name)
        assert values.min() >= 1
        assert values.max() <= 1200


def test_sample_mean_convergence_across_seeds(ss_model):
    # |mean - mu| <= 4 sigma / sqrt(N) should hold in >= 99% of seeds
    bound = 4 * 44.0 / np.sqrt(4096)
    hits = sum(
        abs(sample_array("SS", ss_model, seed=s).v_wl_min.mean() - 791.0) <= bound
        for s in range(50))
    assert hits >= 49


def test_invalid_model_parameters_rejected():
    with pytest.raises(ConfigurationError,
                       match="^sigma_vwlmin_mV must be finite and >= 0, got -1$"):
        TypeVariation(791, -1.0, 450, 30, 650, 30)
    with pytest.raises(ConfigurationError, match=r"^SS: mu_vwlmin=1500 outside \(0, 1200\]$"):
        VariationModel(types={"SS": TypeVariation(1500, 44, 450, 30, 650, 30)})
    with pytest.raises(ConfigurationError, match="unknown cell type 'XX'"):
        sample_array("XX", single_type_model(name="XX"))
    with pytest.raises(ConfigurationError):
        single_type_model().for_type("nope")


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_sigmas_must_be_finite_and_non_negative(sigma):
    with pytest.raises(ConfigurationError,
                       match=f"^sigma_hold_mV must be finite and >= 0, got {sigma:g}$"):
        TypeVariation(791, 44, 450, sigma, 650, 30)
    with pytest.raises(ConfigurationError,
                       match=f"^sigma_part_mV must be finite and >= 0, got {sigma:g}$"):
        single_type_model(sigma_part=sigma)


@pytest.mark.parametrize("mu, sigma, n, redraws_expected", [
    (791.0, 44.0, 4096, False), (2.0, 40.0, 4096, True), (1195.0, 30.0, 4096, True),
    (600.0, 0.0, 4096, False), (791.0, 44.0, 512 * 512, False),
], ids=["nominal", "near-1-mV", "near-nominal", "zero-sigma", "256-kbit"])
def test_sample_thresholds_equal_rounded_generator_normal(mu, sigma, n, redraws_expected):
    """The ``standard_normal`` fill scaled and shifted in place gives the
    doubles of ``Generator.normal``: the draw, every redraw and the stream
    position after it are those of ``np.rint(rng.normal(mu, sigma, n))``,
    and the in-place cast gives its ``int64`` values."""
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sram._sample_thresholds(rng, mu, sigma, n, 1200)
        want = np.rint(ref.normal(mu, sigma, n))
        redraws = 0
        while (bad := (want < 1) | (want > 1200)).any():
            redraws += 1
            want[bad] = np.rint(ref.normal(mu, sigma, np.count_nonzero(bad)))
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes(), seed
        assert (redraws > 0) == redraws_expected
        assert rng.random() == ref.random()


@pytest.mark.parametrize("mu, sigma, mask_bytes", [(791.0, 44.0, 0), (1100.0, 30.0, 2)],
                         ids=["nominal", "redrawn"])
def test_a_threshold_draw_allocates_one_buffer(mu, sigma, mask_bytes):
    """One draw of n cells peaks at its one buffer of n doubles plus small
    change: rounding, the range check and the ``int64`` cast make no copy
    of it.  Only a draw with values to redraw (here about 0.04 %) adds
    their mask, two comparisons of n bools."""
    n = 512 * 512
    rng = np.random.default_rng(1)
    sram._sample_thresholds(rng, mu, sigma, 4096, 1200)  # numpy's first-call setup
    tracemalloc.start()
    try:
        sram._sample_thresholds(rng, mu, sigma, n, 1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * 8 <= peak < n * (8 + mask_bytes) + 2**16


def test_draws_far_outside_int64_are_redrawn_not_cast():
    """A finite but huge sigma ends in one error, with no numpy warning
    about casting a draw beyond ``int64`` (warnings fail this suite).  A
    model of that sigma is refused as it is built (next test), so the
    draw is made directly."""
    with pytest.raises(ConfigurationError, match="did not converge"):
        sram._sample_thresholds(np.random.default_rng(1), 791.0, 1e308, 4, 1200)


@pytest.mark.parametrize("label", ["vwlmin", "hold", "read"])
def test_a_spread_that_cannot_be_drawn_is_refused_as_the_model_is_built(label):
    """A sigma under which even one cell would land in [1, v_dd_nominal]
    within ``MAX_REDRAWS`` redraws with a chance below 1e-9, whatever the
    part offset, is refused as the model is built, naming the type and
    key; a sigma just inside that bound still loads."""
    params = dict(mu_vwlmin=791.0, sigma_vwlmin=44.0, mu_hold=450.0, sigma_hold=30.0,
                  mu_read=650.0, sigma_read=30.0)
    with pytest.raises(ConfigurationError) as refused:
        VariationModel({"SM": TypeVariation(**{**params, f"sigma_{label}": 1e308})})
    assert str(refused.value) == (
        f"type SM: sigma_{label}_mV 1e+308 lands a draw in [1, 1200] mV with a chance "
        f"of at most 4.8e-306; the thresholds could not be drawn within 1000 redraws")
    # erf(600 / (sqrt(2) sigma)) * 1001 = 1e-9 at sigma = 4.79e14 mV
    VariationModel({"SM": TypeVariation(**{**params, f"sigma_{label}": 4.7e14})})
    with pytest.raises(ConfigurationError, match=f"^type SM: sigma_{label}_mV 4.9e"):
        VariationModel({"SM": TypeVariation(**{**params, f"sigma_{label}": 4.9e14})})


@pytest.mark.parametrize("mu", [1313.8, -112.8])
def test_a_draw_is_refused_where_its_cells_could_not_all_land(mu):
    """All ``n`` cells land within ``MAX_REDRAWS`` redraws with the chance
    (1 - (1 - p)^1001)^n, ``p`` the chance that one draw lands (here from
    scipy, with the mean above and below the range); the draw is refused
    just where that chance falls below 1e-9, at 3158 cells for p = 0.005."""
    from scipy.stats import norm
    p = norm.cdf((1200.5 - mu) / 44.0) - norm.cdf((0.5 - mu) / 44.0)
    n = math.floor(math.log(1e-9) / math.log(1 - (1 - p) ** 1001))
    assert n == 3157
    records._check_convergence(lambda: "a mean", mu, 44.0, 1200, n)
    with pytest.raises(ConfigurationError) as refused:
        records._check_convergence(lambda: "a mean", mu, 44.0, 1200, n + 1)
    assert str(refused.value) == (
        "a mean lands a draw in [1, 1200] mV with a chance of at most 0.005; the "
        "thresholds could not be drawn within 1000 redraws")


def test_a_part_offset_no_set_can_reach_is_refused_before_its_draw(ss_model, monkeypatch):
    """A part offset that moves a threshold set out of reach is refused
    before that set is drawn, naming the option, the type and the key: the
    write thresholds before any draw, the hold ones when a sweep first
    reads them."""
    calls = _count_threshold_draws(monkeypatch)
    with pytest.raises(ConfigurationError) as refused:
        sample_array("SS", ss_model, seed=1, part_offset=1e6)
    assert str(refused.value) == (
        "--part-offset (part_offset) 1e+06 moves type SS's mu_vwlmin_mV 791 to "
        "1.00079e+06 mV, where sigma_vwlmin_mV 44 lands a draw in [1, 1200] mV with a "
        "chance of at most 0; the thresholds could not be drawn within 1000 redraws")
    assert calls == []
    array = sample_array("SS", ss_model, seed=1, part_offset=-650.0)
    assert calls == [141.0]
    with pytest.raises(ConfigurationError, match=(
            r"^--part-offset \(part_offset\) -650 moves type SS's mu_hold_mV 450 to "
            r"-200 mV, where sigma_hold_mV 30 lands a draw in \[1, 1200\] mV with a "
            r"chance of at most 1.2e-11; ")):
        run_hold_sweep(array)
    assert calls == [141.0]
    # with no spread a set lands wherever its mean rounds to, or never
    fixed = single_type_model(sigma_vwlmin=0.0)
    assert set(sample_array("SS", fixed, seed=1, part_offset=409.4).v_wl_min) == {1200}
    with pytest.raises(ConfigurationError, match=r"^--part-offset \(part_offset\) 409.6 moves "
                                                 r".* with a chance of at most 0; "):
        sample_array("SS", fixed, seed=1, part_offset=409.6)
    assert calls == [141.0, 1200.4]


@pytest.mark.parametrize("v_dd", [0, -5, 2401, 10**20, 1199.5, math.nan, math.inf])
def test_sample_array_bounds_the_supply(ss_model, v_dd):
    with pytest.raises(ConfigurationError,
                       match=r"^--vdd \(v_dd\) must be a whole number of mV within \(0, 2400\]"):
        sample_array("SS", ss_model, seed=1, v_dd=v_dd)


@pytest.mark.parametrize("part_offset", [math.nan, math.inf, -math.inf])
def test_sample_array_refuses_a_non_finite_part_offset(ss_model, part_offset):
    with pytest.raises(ConfigurationError, match=r"^--part-offset \(part_offset\) must be finite"):
        sample_array("SS", ss_model, seed=1, part_offset=part_offset)


def test_geometry_must_be_positive(ss_model):
    with pytest.raises(ConfigurationError):
        sample_array("SS", ss_model, rows=0, cols=64)


def test_a_block_geometry_is_bounded_before_any_draw(ss_model, monkeypatch):
    """``rows`` and ``cols`` are positive integers, not bools, whose product
    is at most ``MAX_EXPECTED_EVENTS``; a bad pair is refused before any
    draw.  No case allocates: 2^64 cells are past what numpy can allocate
    at all, and the largest block allowed is stopped as its draw starts."""
    calls = _count_threshold_draws(monkeypatch)
    for rows, cols in [(2.5, 64), (64, 0), (-1, 64), (True, 64), (64, np.float64(64.0)),
                       (2**32, 2**32)]:
        with pytest.raises(ConfigurationError) as refused:
            sample_array("SS", ss_model, seed=1, rows=rows, cols=cols)
        assert str(refused.value) == (
            "rows and cols must be positive integers whose product is at most 16777216 "
            f"(4096 x 4096), got {rows!r} x {cols!r}")
    assert calls == []

    class Drawn(Exception):
        pass

    def stop(rng, mu, sigma, n, v_dd_nominal):
        raise Drawn(n)

    monkeypatch.setattr(sram, "_sample_thresholds", stop)
    for rows, cols in [(4096, 4096), (np.int64(1), np.int64(2**24))]:
        with pytest.raises(Drawn) as drawn:
            sample_array("SS", ss_model, seed=1, rows=rows, cols=cols)
        assert drawn.value.args == (2**24,)


# --- pending hold/read draw ---------------------------------------------------

def eager_oracle(model, part_offset, seed, n):
    """The draws of ``sample_array`` made all at once, in the order write,
    hold, read; returns them and the redraw count."""
    rng = np.random.default_rng(seed)
    tv = model.for_type("SS")
    redraws = 0

    def thresholds(mu, sigma):
        nonlocal redraws
        out = np.rint(rng.normal(mu + part_offset, sigma, n)).astype(np.int64)
        while True:
            bad = (out < 1) | (out > model.v_dd_nominal)
            if not bad.any():
                return out
            redraws += 1
            out[bad] = np.rint(rng.normal(mu + part_offset, sigma, int(bad.sum())))

    drawn = {"v_wl_min": thresholds(tv.mu_vwlmin, tv.sigma_vwlmin),
             "v_dd_min_hold": thresholds(tv.mu_hold, tv.sigma_hold),
             "v_dd_min_read": thresholds(tv.mu_read, tv.sigma_read)}
    return drawn, redraws


FIRST_ACCESS = {
    "hold": lambda a: a.v_dd_min_hold,
    "read": lambda a: a.v_dd_min_read,
    "hold_sweep": run_hold_sweep,
    "read_sweep": run_read_sweep,
}

ORACLE_MODELS = {
    "default": single_type_model(),
    "near_1_mV": single_type_model(mu_vwlmin=2.0, mu_hold=1.0, sigma_hold=40.0,
                                   mu_read=3.0, sigma_read=25.0),
    "near_nominal": single_type_model(mu_vwlmin=1195.0, mu_hold=1200.0,
                                      mu_read=1190.0),
}


@pytest.mark.parametrize("model_name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize("access", sorted(FIRST_ACCESS))
def test_pending_draw_matches_eager_oracle(model_name, access):
    model = ORACLE_MODELS[model_name]
    n_redraws = 0
    for seed in (0, 7, np.random.SeedSequence(2024)):
        for part_offset in (0.0, -12.5, 9.0):
            expected, redraws = eager_oracle(model, part_offset, seed, 32 * 32)
            n_redraws += redraws
            array = sample_array("SS", model, part_offset=part_offset, seed=seed,
                                 rows=32, cols=32)
            FIRST_ACCESS[access](array)
            for name, values in expected.items():
                got = getattr(array, name)
                assert got.dtype == values.dtype, name
                assert got.tobytes() == values.tobytes(), name
    # the models near the bounds exercise the rejection redraws
    assert (n_redraws > 0) == (model_name != "default")


def _count_threshold_draws(monkeypatch):
    calls = []
    real = sram._sample_thresholds
    monkeypatch.setattr(sram, "_sample_thresholds",
                        lambda *a: calls.append(a[1]) or real(*a))
    return calls


def test_pending_draw_runs_once_and_is_shared(ss_model, monkeypatch):
    calls = _count_threshold_draws(monkeypatch)
    array = sample_array("SS", ss_model, seed=4, rows=8, cols=8)
    assert len(calls) == 1
    # at the ceiling no read can fail: the SER test's verify draws nothing
    run_ser_test(array, AlphaSource(), ts=1800, duration=1800)
    assert len(calls) == 1
    hold = array.v_dd_min_hold
    assert len(calls) == 2
    assert array.v_dd_min_hold is hold
    read = array.v_dd_min_read
    assert len(calls) == 3
    run_read_sweep(array)
    run_hold_sweep(array)
    assert array.v_dd_min_read is read
    assert len(calls) == 3


@pytest.mark.parametrize("first", ["hold_sweep", "read_sweep"])
def test_a_sweep_draws_only_the_thresholds_it_reads(ss_model, monkeypatch, first):
    """The threshold draws are told apart by their means (791 write, 450
    hold, 650 read mV): a hold sweep never draws the read thresholds, and
    a read sweep draws the hold ones first."""
    calls = _count_threshold_draws(monkeypatch)
    array = sample_array("SS", ss_model, seed=4, rows=8, cols=8)
    FIRST_ACCESS[first](array)
    assert calls == [791.0, 450.0] if first == "hold_sweep" else [791.0, 450.0, 650.0]
    run_read_sweep(array)
    run_hold_sweep(array)
    assert calls == [791.0, 450.0, 650.0]


BAD_STEPS = [0, -10, 1300, 2.5, True, np.float64(10.0)]


def _step_refusal(delta_v):
    if isinstance(delta_v, (int, np.integer)) and not isinstance(delta_v, bool):
        return f"--delta-v (delta_v) must be within (0, 1200], got {delta_v}"
    return f"--delta-v (delta_v) must be a whole number of mV, got {delta_v!r}"


@pytest.mark.parametrize("delta_v", BAD_STEPS, ids=repr)
@pytest.mark.parametrize("sweep", [run_wlvm_sweep, run_hold_sweep, run_read_sweep],
                         ids=lambda f: f.__name__)
def test_a_refused_step_draws_no_pending_threshold(ss_model, monkeypatch, sweep, delta_v):
    """Every sweep checks its step before it reads the thresholds it
    sweeps, so a refused request draws only the write thresholds that
    ``sample_array`` draws."""
    calls = _count_threshold_draws(monkeypatch)
    array = sample_array("SS", ss_model, seed=4, rows=8, cols=8)
    with pytest.raises(ConfigurationError) as info:
        sweep(array, delta_v)
    assert str(info.value) == _step_refusal(delta_v)
    assert calls == [791.0]


def test_read_first_gives_the_values_of_hold_then_read(ss_model):
    for seed in (0, 1, 7, 12345, np.random.SeedSequence(99)):
        for part_offset in (0.0, -9.0):
            a = sample_array("SS", ss_model, part_offset=part_offset, seed=seed,
                             rows=16, cols=16)
            b = sample_array("SS", ss_model, part_offset=part_offset, seed=seed,
                             rows=16, cols=16)
            hold_a, read_a = a.v_dd_min_hold, a.v_dd_min_read
            read_b, hold_b = b.v_dd_min_read, b.v_dd_min_hold
            assert hold_a.tobytes() == hold_b.tobytes()
            assert read_a.tobytes() == read_b.tobytes()
            assert not np.array_equal(hold_a, read_a)


def test_each_pending_draw_runs_at_most_once():
    drawn = []

    def draw(label):
        drawn.append(label)
        return np.full(4, {"hold": 450, "read": 650}[label])

    for order in (("v_dd_min_hold", "v_dd_min_read"), ("v_dd_min_read", "v_dd_min_hold")):
        drawn.clear()
        array = sram.MemoryArray("x", "SS", v_wl_min=np.full(4, 800), true_seu_rate=0.0,
                                 draw=draw)
        assert drawn == []
        for _ in range(3):
            for name in order:
                assert getattr(array, name).tolist() == [450 if "hold" in name else 650] * 4
        assert drawn == ["hold", "read"]
    drawn.clear()
    array = sram.MemoryArray("x", "SS", v_wl_min=np.full(4, 800), true_seu_rate=0.0,
                             draw=draw)
    for _ in range(3):
        array.v_dd_min_hold
    assert drawn == ["hold"]


def test_pending_draw_checks_shapes():
    def block(hold_size, read_size):
        sizes = {"hold": hold_size, "read": read_size}
        return sram.MemoryArray(
            "x", "SS", v_wl_min=np.full(4, 800), true_seu_rate=0.0,
            draw=lambda label: np.full(sizes[label], {"hold": 450, "read": 650}[label]))

    array = block(4, 3)
    assert array.v_dd_min_hold.tolist() == [450] * 4
    with pytest.raises(ConfigurationError, match="^v_dd_min_read must have 4 entries$"):
        array.v_dd_min_read
    for first in ("v_dd_min_hold", "v_dd_min_read"):
        with pytest.raises(ConfigurationError, match="^v_dd_min_hold must have 4 entries$"):
            getattr(block(5, 4), first)


@pytest.mark.parametrize("rate", [np.full(4096, 1.5), [1.0, 3.0], -1.0, float("nan")])
def test_sample_array_refuses_a_rate_that_is_not_one_number_ge_0(ss_model, rate):
    """A block has one upset rate: a per-cell array, a negative or a NaN
    rate is one error naming ``--rate (true_seu_rate)``."""
    with pytest.raises(ConfigurationError,
                       match=r"^--rate \(true_seu_rate\) must be one number >= 0$"):
        sample_array("SS", ss_model, seed=1, true_seu_rate=rate)


def test_generator_seed_is_rejected(ss_model):
    with pytest.raises(ConfigurationError, match="SeedSequence"):
        sample_array("SS", ss_model, seed=np.random.default_rng(1))


BAD_SEEDS = [np.random.default_rng(1), np.random.PCG64(1), 1.5, np.float64(2.0), "1", True,
             -1, np.int64(-5)]
BAD_SEED_IDS = ["Generator", "PCG64", "1.5", "float64", "str", "True", "-1", "int64(-5)"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_SEED_IDS)
def test_every_seeded_entry_point_refuses_a_bad_seed_before_any_draw(ss_model, monkeypatch,
                                                                     seed):
    """A seed that is not a non-negative integer or a ``SeedSequence`` is
    one ``ConfigurationError`` naming ``--seed (seed)``, raised by
    ``seed_sequence`` before a threshold or an event is drawn.  The SER
    test's block is below nominal supply, where its write/read verify
    would draw the hold and read thresholds."""
    array = sample_array("SS", ss_model, seed=1, rows=8, cols=8, v_dd=1100,
                         true_seu_rate=100.0)
    calls = _count_threshold_draws(monkeypatch)
    monkeypatch.setattr(radiation, "_arrival_times", lambda *a: calls.append("events"))
    negative = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    message = (f"--seed (seed) must be a non-negative integer, got {seed}" if negative else
               f"--seed (seed) must be a non-negative integer or a SeedSequence, got {seed!r}")
    for call in (
            lambda: sample_array("SS", ss_model, seed=seed, rows=8, cols=8),
            lambda: simulate_parts(ss_model, n_parts=1, cell_types=("SS",), duration=3600,
                                   rows=8, cols=8, seed=seed),
            lambda: simulate_supply_sweeps(ss_model, cell_types=("SS",), rows=8, cols=8,
                                           seed=seed),
            lambda: run_ser_test(array, AlphaSource(), ts=1800, duration=3600, seed=seed)):
        with pytest.raises(ConfigurationError) as refused:
            call()
        assert str(refused.value) == message
    assert calls == []


@pytest.mark.parametrize("seed", [0, 1, 2**70, np.int64(5), np.random.SeedSequence(5)],
                         ids=["0", "1", "2**70", "int64(5)", "SeedSequence(5)"])
def test_events_draw_the_stream_of_their_seed(ss_model, seed):
    """``generate_events`` seeds through ``seed_sequence``: an int gives the
    stream ``default_rng`` gives the int itself."""
    array = sample_array("SS", ss_model, seed=1, rows=8, cols=8, true_seu_rate=100.0)
    events = radiation.generate_events(array, AlphaSource(), 3600.0, seed=seed)
    rng = np.random.default_rng(seed)
    times = radiation._arrival_times(rng, 100e-6 * array.n_cells, 3600.0)
    assert times.size > 0 and times.tobytes() == events.times.tobytes()
    assert np.array_equal(events.cells, rng.integers(0, array.n_cells, times.size))
    for bad in BAD_SEEDS:
        with pytest.raises(ConfigurationError, match=r"^--seed \(seed\) must be a non-neg"):
            radiation.generate_events(array, AlphaSource(), 3600.0, seed=bad)


@pytest.mark.parametrize("n_parts", [2.5, 2.0, np.float64(3.0), True, False, "2", None],
                         ids=["2.5", "2.0", "float64", "True", "False", "str", "None"])
def test_simulate_parts_refuses_a_part_count_that_is_not_an_integer(monkeypatch, n_parts):
    calls = _count_threshold_draws(monkeypatch)
    with pytest.raises(ConfigurationError) as refused:
        simulate_parts(n_parts=n_parts, cell_types=("SS",), duration=3600, rows=8, cols=8)
    assert str(refused.value) == f"--parts (n_parts) must be an integer, got {n_parts!r}"
    assert calls == []
    assert len(simulate_parts(n_parts=np.int64(2), cell_types=("SS",), duration=3600,
                              rows=8, cols=8)) == 2


def test_simulate_parts_at_nominal_draws_write_thresholds_only(monkeypatch):
    calls = _count_threshold_draws(monkeypatch)
    datasets = simulate_parts(n_parts=2, duration=3600, rows=16, cols=16, seed=5)
    assert len(calls) == 2 * 5 == sum(len(ds.ser) for ds in datasets)


@pytest.mark.parametrize("delta_v", BAD_STEPS, ids=repr)
def test_simulate_parts_refuses_a_bad_step_before_any_draw(monkeypatch, delta_v):
    calls = _count_threshold_draws(monkeypatch)
    with pytest.raises(ConfigurationError) as info:
        simulate_parts(n_parts=1, cell_types=("SS",), duration=3600, delta_v=delta_v)
    assert str(info.value) == _step_refusal(delta_v)
    assert calls == []


@pytest.mark.parametrize("delta_v", BAD_STEPS, ids=repr)
@pytest.mark.parametrize("kind", ["hold", "read"])
def test_supply_sweeps_refuse_a_bad_step_before_any_draw(monkeypatch, kind, delta_v):
    calls = _count_threshold_draws(monkeypatch)
    with pytest.raises(ConfigurationError) as info:
        simulate_supply_sweeps(kind=kind, delta_v=delta_v, rows=256, cols=256)
    assert str(info.value) == _step_refusal(delta_v)
    assert calls == []


TWICE = "--types (cell_types) names 'SS' twice"
UNKNOWN = "--types (cell_types) names unknown cell type 'XX'; known: SS, SM, SL, MM, LS"


@pytest.mark.parametrize("simulate,kwargs,error,message", [
    (simulate_parts, dict(cell_types=("SS", "SS")), ConfigurationError, TWICE),
    (simulate_supply_sweeps, dict(cell_types=("SS", "SS")), ConfigurationError, TWICE),
    (simulate_parts, dict(cell_types=("SS", "XX")), ConfigurationError, UNKNOWN),
    (simulate_supply_sweeps, dict(cell_types=("SS", "XX")), ConfigurationError, UNKNOWN),
    (simulate_parts, dict(model=single_type_model(), cell_types=("SS", "SM")),
     ConfigurationError, "no variation parameters for cell type 'SM'"),
    (simulate_supply_sweeps, dict(model=single_type_model(), cell_types=("SS", "SM")),
     ConfigurationError, "no variation parameters for cell type 'SM'"),
    (simulate_supply_sweeps, dict(kind="write"), ValueError,
     "kind must be 'hold' or 'read', got 'write'"),
], ids=["parts-type-twice", "sweeps-type-twice", "parts-unknown-type",
        "sweeps-unknown-type", "parts-type-not-in-model", "sweeps-type-not-in-model",
        "sweeps-bad-kind"])
def test_a_refused_batch_draws_no_block(monkeypatch, simulate, kwargs, error, message):
    """Each refusal comes before the first block is drawn, for the large
    blocks that are drawn one ahead too."""
    calls = _count_threshold_draws(monkeypatch)
    with pytest.raises(error) as info:
        simulate(rows=256, cols=256, **kwargs)
    assert str(info.value) == message
    assert calls == []


def test_simulate_parts_below_nominal_draws_all_thresholds(monkeypatch):
    calls = _count_threshold_draws(monkeypatch)
    simulate_parts(n_parts=2, duration=3600, rows=16, cols=16, seed=5, v_dd=1199)
    assert len(calls) == 3 * 2 * 5
    calls.clear()
    with pytest.raises(ProtocolError) as info:
        simulate_parts(n_parts=2, duration=3600, seed=0, v_dd=1080)
    assert str(info.value) == (
        "part 1 SL: initial write/verify failed for 8 cells at v_dd=1080 mV; "
        "the part is not operable at this supply")
    assert len(calls) == 3 * 3  # SS and SM pass, SL fails


# --- write/verify: writes need v_dd >= v_wl_min, reads v_dd >= v_dd_min_read

def failed_verify_cells(array):
    """Cells the SER test's initial write/verify reports as failed."""
    try:
        run_ser_test(array, AlphaSource(), ts=1800, duration=1800)
    except ProtocolError as exc:
        return int(re.search(r"failed for (\d+) cells", str(exc)).group(1))
    return 0


def test_write_above_threshold_succeeds():
    assert failed_verify_cells(manual_array([792])) == 0


def test_write_below_threshold_fails():
    assert failed_verify_cells(manual_array([792], v_dd=791)) == 1


def test_write_at_exact_threshold_succeeds():
    assert failed_verify_cells(manual_array([792], v_dd=792)) == 0


def test_write_monotone_in_voltage():
    rng = np.random.default_rng(3)
    thresholds = rng.integers(200, 1200, 50)
    failed = [failed_verify_cells(manual_array(thresholds, v_dd_min_read=np.ones(50),
                                               v_dd=v))
              for v in range(0, 1201, 37)]
    assert failed == [int((thresholds > v).sum()) for v in range(0, 1201, 37)]
    # once a write succeeds, it succeeds at every higher voltage
    assert failed == sorted(failed, reverse=True)


def test_read_at_supply_threshold_succeeds():
    assert failed_verify_cells(manual_array([500, 700],
                                            v_dd_min_read=[1200, 650])) == 0


def test_read_below_threshold_fails():
    assert failed_verify_cells(manual_array([500], v_dd_min_read=[650], v_dd=649)) == 1
    assert failed_verify_cells(manual_array([500], v_dd_min_read=[650], v_dd=650)) == 0


def test_inoperable_cells_matches_brute_force():
    """Random hand-built blocks whose thresholds lie under a finite
    ceiling, at supplies below, at and above it: the count is the cells
    whose write threshold or given threshold (by default the read one)
    lies above ``v_dd``, and from the ceiling up it is 0 with nothing
    drawn."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        ceiling = int(rng.integers(2, 1300))
        wl, hold, read = (rng.integers(1, ceiling + 1, n) for _ in range(3))
        for v_dd in (int(rng.integers(1, ceiling)), ceiling - 1, ceiling, ceiling + 1,
                     int(rng.integers(ceiling, 2 * ceiling + 1))):
            draws = []
            array = sram.MemoryArray(
                "x", "SS", v_wl_min=wl, true_seu_rate=0.0, v_dd=v_dd,
                draw=lambda label: draws.append(label) or {"hold": hold, "read": read}[label],
                threshold_ceiling=ceiling)
            for given, other in ((wl, wl), (hold, hold), (None, read)):
                expected = sum(int(w > v_dd or t > v_dd) for w, t in zip(wl, other))
                assert array.inoperable_cells(given) == expected
                if v_dd >= ceiling:
                    assert expected == 0
            assert draws == (["hold", "read"] if v_dd < ceiling else [])


# --- model loading ----------------------------------------------------------

def test_default_model_covers_all_types():
    model = VariationModel.default()
    for name in CELL_TYPE_ORDER:
        tv = model.for_type(name)
        assert 0 < tv.mu_vwlmin <= model.v_dd_nominal
    assert model.v_dd_nominal == 1200
    assert model.sigma_part == 8.0


def test_model_json_roundtrip(tmp_path):
    model = VariationModel.default()
    path = tmp_path / "model.json"
    payload = {
        "v_dd_nominal_mV": model.v_dd_nominal,
        "sigma_part_mV": model.sigma_part,
        "cell_types": {
            name: {
                "mu_vwlmin_mV": tv.mu_vwlmin, "sigma_vwlmin_mV": tv.sigma_vwlmin,
                "mu_hold_mV": tv.mu_hold, "sigma_hold_mV": tv.sigma_hold,
                "mu_read_mV": tv.mu_read, "sigma_read_mV": tv.sigma_read,
            } for name, tv in model.types.items()
        },
    }
    path.write_text(json.dumps(payload))
    reloaded = VariationModel.from_json(path)
    assert reloaded == model
    assert VariationModel.from_dict({**payload, "sigma_part_mV": 9.0}) != model


def test_model_keys_left_out_take_the_field_defaults():
    """Only the keys a model file has reach ``VariationModel``, so its field
    defaults are the only ones."""
    tv = VariationModel.default().for_type("SS")
    params = {f"{name}_mV": getattr(tv, name) for name in
              ("mu_vwlmin", "sigma_vwlmin", "mu_hold", "sigma_hold", "mu_read", "sigma_read")}
    model = VariationModel.from_dict({"cell_types": {"SS": params}})
    assert model == VariationModel(types={"SS": tv})
    assert (model.sigma_part, model.v_dd_nominal) == (8.0, 1200)


def test_model_file_with_an_infinite_nominal_supply_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"v_dd_nominal_mV": 1e400, "cell_types": {}}')
    with pytest.raises(ConfigurationError, match="model.json: v_dd_nominal_mV must be "
                                                 "a positive whole number of mV, got inf"):
        VariationModel.from_json(path)


def test_the_simulator_names_the_model_classes():
    """``sram`` names the model class of ``records``, its callers' way to
    build what ``sample_array`` takes."""
    assert sram.VariationModel is VariationModel


BUNDLED_MODEL = json.loads((DATA_DIR / "variation_model.json").read_text())
# each key of the bundled model file, as its path of keys
MODEL_KEYS = [(key,) for key in BUNDLED_MODEL] + [
    ("cell_types", name, *param) for name, params in BUNDLED_MODEL["cell_types"].items()
    for param in [(), *((key,) for key in params)]]
ODD_VALUES = [math.nan, math.inf, -math.inf, 1e308, 10**30, -1, 0, 0.5, "791", None,
              True, False, [791], {"mu_vwlmin_mV": 791}]


@settings(derandomize=True, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.sampled_from(MODEL_KEYS), st.sampled_from(ODD_VALUES),
                       min_size=1, max_size=3))
def test_model_file_loads_or_is_one_configuration_error(tmp_path, edits):
    """A model file with odd values at some of its keys loads into a model
    of finite parameters or raises one ``ConfigurationError`` line naming
    the file; no other exception escapes."""
    payload = json.loads(json.dumps(BUNDLED_MODEL))
    for keys in sorted(edits, key=len, reverse=True):  # a key before its parent
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = edits[keys]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    try:
        model = VariationModel.from_json(path)
    except ConfigurationError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") and "\n" not in message
        return
    assert math.isfinite(model.sigma_part) and model.v_dd_nominal > 0
    assert all(math.isfinite(value) for tv in model.types.values() for value in vars(tv).values())


# --- heap reuse ----------------------------------------------------------------

HEAP_CHILD = """\
import resource
import numpy as np
import wlvmser.sram

def three_blocks():
    blocks = [np.ones(5 << 17) for _ in range(3)]  # 5 MB each
    del blocks

for _ in range(2):
    three_blocks()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    three_blocks()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap only")
def test_simulator_reuses_freed_arrays():
    # with glibc's dynamic thresholds part of the freed 15 MB goes back to
    # the system on each round and is faulted in again: about 5000 minor
    # faults over the five rounds, against none with the thresholds fixed
    env = {**os.environ, "PYTHONPATH": SRC}
    res = subprocess.run([sys.executable, "-c", HEAP_CHILD], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 500
