"""Cell/array model: sampling statistics, voltage semantics, determinism."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import manual_array, single_type_model
from wlvmser import sram
from wlvmser.errors import ConfigurationError, ProtocolError
from wlvmser.pipeline import simulate_parts
from wlvmser.protocols import run_hold_sweep, run_read_sweep, run_ser_test
from wlvmser.radiation import AlphaSource
from wlvmser.refdata import CELL_TYPE_ORDER
from wlvmser.sram import TypeVariation, VariationModel, sample_array

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
    with pytest.raises(ConfigurationError):
        TypeVariation(791, -1.0, 450, 30, 650, 30)
    with pytest.raises(ConfigurationError):
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


def test_draws_far_outside_int64_are_redrawn_not_cast():
    """A finite but huge sigma ends in one error, with no numpy warning
    about casting a draw beyond ``int64`` (warnings fail this suite)."""
    model = single_type_model(sigma_vwlmin=1e308)
    with pytest.raises(ConfigurationError, match="did not converge"):
        sample_array("SS", model, seed=1, rows=2, cols=2)


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
    assert len(calls) == 3
    assert array.v_dd_min_hold is hold
    array.v_dd_min_read
    run_read_sweep(array)
    assert len(calls) == 3


def test_pending_draw_checks_shapes():
    array = sram.MemoryArray(
        "x", "SS", v_wl_min=np.full(4, 800), true_seu_rate=0.0,
        draw_pending=lambda: (np.full(4, 450), np.full(3, 650)))
    with pytest.raises(ConfigurationError, match="v_dd_min_read must have 4 entries"):
        array.v_dd_min_hold


@pytest.mark.parametrize("rate", [np.full(4096, 1.5), [1.0, 3.0], -1.0, float("nan")])
def test_sample_array_refuses_a_rate_that_is_not_one_number_ge_0(ss_model, rate):
    """A block has one upset rate: a per-cell array, a negative or a NaN
    rate is one error naming ``true_seu_rate``."""
    with pytest.raises(ConfigurationError, match="^true_seu_rate must be one number >= 0$"):
        sample_array("SS", ss_model, seed=1, true_seu_rate=rate)


def test_generator_seed_is_rejected(ss_model):
    with pytest.raises(ConfigurationError, match="SeedSequence"):
        sample_array("SS", ss_model, seed=np.random.default_rng(1))


def test_simulate_parts_at_nominal_draws_write_thresholds_only(monkeypatch):
    calls = _count_threshold_draws(monkeypatch)
    datasets = simulate_parts(n_parts=2, duration=3600, rows=16, cols=16, seed=5)
    assert len(calls) == 2 * 5 == sum(len(ds.ser) for ds in datasets)


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
                draw_pending=lambda: draws.append(v_dd) or (hold, read),
                threshold_ceiling=ceiling)
            for given, other in ((wl, wl), (hold, hold), (None, read)):
                expected = sum(int(w > v_dd or t > v_dd) for w, t in zip(wl, other))
                assert array.inoperable_cells(given) == expected
                if v_dd >= ceiling:
                    assert expected == 0
            assert len(draws) == (v_dd < ceiling)


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
    import json
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


def test_model_file_with_an_infinite_nominal_supply_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"v_dd_nominal_mV": 1e400, "cell_types": {}}')
    with pytest.raises(ConfigurationError,
                       match="model.json: cannot convert float infinity to integer"):
        VariationModel.from_json(path)


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
