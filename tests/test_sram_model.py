"""Cell/array model: sampling statistics, voltage semantics, determinism."""

import numpy as np
import pytest

from conftest import manual_array, single_type_model
from wlvmser import sram
from wlvmser.errors import ConfigurationError, ProtocolError
from wlvmser.pipeline import simulate_parts
from wlvmser.protocols import make_pattern, run_ser_test
from wlvmser.radiation import AlphaSource, generate_events
from wlvmser.refdata import CELL_TYPES
from wlvmser.sram import CellType, TypeVariation, VariationModel, sample_array


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
    for name in ("v_wl_min", "v_dd_min_hold", "v_dd_min_read",
                 "preferred_state", "state"):
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
    with pytest.raises(ConfigurationError):
        CellType("XX", 0.5, 1.0)
    with pytest.raises(ConfigurationError):
        single_type_model().for_type("nope")


def test_geometry_must_be_positive(ss_model):
    with pytest.raises(ConfigurationError):
        sample_array("SS", ss_model, rows=0, cols=64)


# --- pending hold/read/preferred draw -----------------------------------------

def eager_oracle(model, part_offset, seed, n):
    """The draws of ``sample_array`` made all at once, in the order write,
    hold, read, preferred states; returns them and the redraw count."""
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
             "v_dd_min_read": thresholds(tv.mu_read, tv.sigma_read),
             "preferred_state": rng.integers(0, 2, n, dtype=np.uint8)}
    return drawn, redraws


FIRST_ACCESS = {
    "hold": lambda a: a.v_dd_min_hold,
    "read": lambda a: a.v_dd_min_read,
    "preferred_state": lambda a: a.preferred_state,
    "read_all": lambda a: a.read_all(600),
    "apply_hold_voltage": lambda a: a.apply_hold_voltage(500),
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
    _, failed = array.read_all()  # at the ceiling: nothing to draw
    assert len(calls) == 1 and not failed.any()
    hold = array.v_dd_min_hold
    assert len(calls) == 3
    assert array.v_dd_min_hold is hold
    array.read_all(600)
    array.preferred_state
    assert len(calls) == 3


def test_pending_draw_checks_shapes():
    array = sram.MemoryArray(
        "x", CELL_TYPES["SS"], 1, 4, v_wl_min=np.full(4, 800),
        true_seu_rate=np.zeros(4), state=np.zeros(4, dtype=np.uint8),
        draw_pending=lambda: (np.full(4, 450), np.full(3, 650),
                              np.zeros(4, dtype=np.uint8)))
    with pytest.raises(ConfigurationError, match="v_dd_min_read must have 4 entries"):
        array.preferred_state


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


# --- write semantics: a write takes iff v_dd >= v_wl_min ----------------------

ONE = np.ones(1, dtype=np.uint8)


def test_write_above_threshold_succeeds():
    array = manual_array([792])
    assert array.write_all(ONE).tolist() == [True]
    assert array.state[0] == 1


def test_write_below_threshold_fails_and_keeps_state():
    array = manual_array([792], v_dd=791)
    assert array.write_all(ONE).tolist() == [False]
    assert array.state[0] == 0


def test_write_at_exact_threshold_succeeds():
    array = manual_array([792], v_dd=792)
    assert array.write_all(ONE).tolist() == [True]


def test_write_monotone_in_voltage():
    rng = np.random.default_rng(3)
    array = manual_array(rng.integers(200, 1200, 50))
    outcomes = []
    for v in range(0, 1201, 37):
        array.v_dd = v
        outcomes.append(array.write_all(np.ones(50, dtype=np.uint8)))
    # once a write succeeds, it succeeds at every higher voltage
    assert np.all(np.diff(np.array(outcomes, dtype=np.int8), axis=0) >= 0)


# --- read semantics ---------------------------------------------------------

def test_read_nominal_returns_last_written():
    array = manual_array([500, 700])
    array.write_all(np.array([1, 0], dtype=np.uint8))
    bits, failed = array.read_all()
    assert bits.tolist() == [1, 0] and not failed.any()
    # reads are idempotent and non-destructive
    assert array.read_all()[0].tolist() == [1, 0]
    assert array.state.tolist() == [1, 0]


def test_read_below_threshold_fails_without_corruption():
    array = manual_array([500], v_dd_min_read=[650])
    array.write_all(ONE)
    assert array.read_all(640)[1].tolist() == [True]
    bits, failed = array.read_all(650)
    assert bits.tolist() == [1] and failed.tolist() == [False]


# --- hold semantics ---------------------------------------------------------

def test_hold_at_nominal_never_corrupts(ss_model):
    array = sample_array("SS", ss_model, seed=11)
    assert array.apply_hold_voltage(array.v_dd) == 0


def test_hold_at_zero_collapses_to_preferred(ss_model):
    array = sample_array("SS", ss_model, seed=12)
    array.apply_hold_voltage(0)
    assert np.array_equal(array.state, array.preferred_state)


@pytest.mark.parametrize("preferred,stored,expected_changed", [
    ((0, 0), (0, 0), 0),   # at-risk cell already holds its preferred value
    ((0, 1), (0, 0), 1),   # at-risk cell flips to preferred 1
    ((1, 0), (0, 0), 0),   # only the 500 mV cell is at risk at 400 mV
    ((1, 1), (0, 1), 0),
])
def test_hold_two_cell_enumeration(preferred, stored, expected_changed):
    # thresholds {300, 500}, v_dd = 400: exactly the 500 mV cell is at risk,
    # and it corrupts iff its preferred state differs from the stored bit
    array = manual_array([900, 900], v_dd_min_hold=[300, 500],
                         preferred=preferred, state=stored)
    changed = array.apply_hold_voltage(400)
    assert changed == expected_changed
    assert array.state[0] == stored[0]
    expect_cell1 = preferred[1]
    assert array.state[1] == expect_cell1


# --- flip semantics ---------------------------------------------------------

def test_random_flips_match_xor_bookkeeping(ss_model):
    """After a SER test the block holds its pattern with every cell hit an
    odd number of times flipped."""
    kw = dict(seed=21, rows=16, cols=16, true_seu_rate=50.0)
    array = sample_array("SS", ss_model, **kw)
    run_ser_test(array, AlphaSource(), ts=600, duration=60_000, seed=22,
                 pattern="random")
    events = generate_events(sample_array("SS", ss_model, **kw), AlphaSource(),
                             60_000, seed=22)
    assert len(events) > 2 * array.n_cells  # many cells are hit repeatedly
    mask = np.zeros(array.n_cells, dtype=np.uint8)
    for cell in events.cells:
        mask[cell] ^= 1
    assert np.array_equal(array.state, make_pattern("random", 16, 16, 22) ^ mask)


# --- model loading ----------------------------------------------------------

def test_default_model_covers_all_types():
    model = VariationModel.default()
    for name in CELL_TYPES:
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
