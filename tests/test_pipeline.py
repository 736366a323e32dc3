"""End-to-end pipeline behavior beyond the acceptance gates."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from wlvmser import pipeline
from wlvmser.errors import ConfigurationError, ProtocolError
from wlvmser.io import emit_report
from wlvmser.pipeline import (LinearSerLaw, build_report_bundle,
                              calibrate_datasets, simulate_parts,
                              simulate_supply_sweeps)
from wlvmser.protocols import (run_hold_sweep, run_read_sweep, run_ser_test,
                               run_wlvm_sweep)
from wlvmser.radiation import AlphaSource
from wlvmser.records import TypeVariation, VariationModel
from wlvmser.sram import sample_array, seed_sequence


def test_linear_law_clamps_at_zero():
    law = LinearSerLaw(m=4.32, b=-0.25)
    assert law.rate(0.409) == pytest.approx(1.51688)
    assert law.rate(0.0) == 0.0  # would be negative, clamped


def test_simulate_rejects_zero_parts():
    with pytest.raises(ConfigurationError, match="n_parts"):
        simulate_parts(n_parts=0)


def test_datasets_hold_less_than_a_byte_per_cell():
    """A simulated run's records keep each block's summaries, window
    counts and histogram, never an array with one entry per cell."""
    tracemalloc.start()
    try:
        datasets = simulate_parts(n_parts=1, rows=256, cols=256, duration=36_000.0,
                                  seed=1)
        held = tracemalloc.get_traced_memory()[0]
        del datasets
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 5 * 256 * 256


def test_inoperable_block_names_part_and_cell_type():
    """At -10% supply part 1's SL block has write thresholds above v_dd."""
    with pytest.raises(ProtocolError, match=r"^part 1 SL: .*not operable"):
        simulate_parts(n_parts=2, v_dd=1080, duration=3600.0)


def test_supply_variation_keeps_fit_linear():
    """Pooling runs at nominal supply +-10% must stay on one line.

    The slow-to-write sizings sit out the -10% corner (see the regime test
    below), so the scenario runs the three types writable at every supply.
    """
    model = VariationModel.default()
    law = LinearSerLaw()
    datasets = []
    for i, v_dd in enumerate((1080, 1200, 1320)):
        datasets.extend(simulate_parts(
            model=model, law=law, n_parts=2, cell_types=("SS", "MM", "LS"),
            duration=108_000, ts=1800, seed=500 + i, v_dd=v_dd))
    fit = calibrate_datasets(datasets, "combined")
    assert fit.m > 0
    assert fit.r2 > 0.9
    # margins at the three supplies span a wider range than at one supply
    margins = [(ds.v_dd - ds.sweeps[t].mu) / 1000.0
               for ds in datasets for t in ds.sweeps]
    assert max(margins) - min(margins) > 0.3


def test_reduced_supply_write_failure_regime():
    """At -10% supply the strongest write thresholds exceed the word line:
    the verify step must flag the part as inoperable, not mis-measure it."""
    from wlvmser.errors import ProtocolError
    from wlvmser.protocols import run_ser_test
    from wlvmser.radiation import AlphaSource
    from wlvmser.sram import sample_array
    array = sample_array("SL", VariationModel.default(), seed=1, v_dd=1080)
    assert (array.v_wl_min > array.v_dd).any()
    with pytest.raises(ProtocolError, match="not operable"):
        run_ser_test(array, AlphaSource(), 1800, 36_000, seed=1)


def test_hold_read_sweeps_do_not_separate_cell_types():
    """Control experiment: supply thresholds barely depend on sizing,
    unlike the write-margin distributions."""
    model = VariationModel.default()
    hold = simulate_supply_sweeps(model=model, kind="hold", seed=1,
                                  rows=32, cols=32)
    read = simulate_supply_sweeps(model=model, kind="read", seed=2,
                                  rows=32, cols=32)
    for results in (hold, read):
        mus = np.array([r.mu for r in results])
        sigma = np.mean([r.sigma for r in results])
        assert mus.max() - mus.min() < sigma  # distributions overlap strongly
    from wlvmser.protocols import run_wlvm_sweep
    from wlvmser.sram import sample_array
    wlvm_mus = []
    wlvm_sigmas = []
    for cell_type in ("SS", "SM", "SL", "MM", "LS"):
        result = run_wlvm_sweep(sample_array(cell_type, model, seed=3,
                                             rows=32, cols=32))
        wlvm_mus.append(result.mu)
        wlvm_sigmas.append(result.sigma)
    spread = max(wlvm_mus) - min(wlvm_mus)
    assert spread > 3 * np.mean(wlvm_sigmas)  # sizing separates write margins


def test_supply_sweep_kind_validation():
    with pytest.raises(ValueError):
        simulate_supply_sweeps(kind="write")


def test_simulated_geom_spread_stays_in_source_range():
    datasets = simulate_parts(n_parts=5, cell_types=("SS",), duration=3600,
                              ts=1800, seed=9, rows=8, cols=8,
                              geom_spread=0.03)
    assert len(datasets) == 5  # sources built without range violations


def test_report_bundle_traceability(tmp_path):
    """Every plotted point traces back to an ingested or simulated record."""
    datasets = simulate_parts(n_parts=2, cell_types=("SS", "LS"),
                              duration=36_000, ts=1800, seed=12,
                              rows=16, cols=16)
    manifest = emit_report(build_report_bundle(datasets, "combined"), tmp_path)
    keys = {(ds.part_id, t) for ds in datasets for t in ds.cell_types()}

    def rows(name, sep):
        header, *body = (tmp_path / name).read_text().splitlines()
        return [dict(zip(header.split(sep), line.split(sep))) for line in body]

    predictions = rows("predictions.csv", ",")
    assert {(r["part_id"], r["cell_type"]) for r in predictions} == keys
    assert len(predictions) == len(keys)
    for part_id, cell_type in keys:
        assert f"hist_wlvm_{part_id}_{cell_type}.tsv" in manifest
        assert f"cumulative_seu_{part_id}_{cell_type}.tsv" in manifest
    scatter = rows("scatter_fit.tsv", "\t")
    assert {(r["part_id"], r["cell_type"]) for r in scatter} == keys
    for r in scatter:
        ds = next(d for d in datasets if d.part_id == r["part_id"])
        assert float(r["y"]) == ds.ser[r["cell_type"]].ser


# --- large blocks are drawn one ahead on a helper thread

PREFETCHED = dict(rows=256, cols=256)  # 2^16 cells, the smallest block drawn ahead
SCHEDULE = dict(duration=7200.0, ts=1800.0)


def _fields(record):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(record).items()}


def _serial_parts(model, n_parts, cell_types, seed, v_dd=None):
    """``simulate_parts`` as one loop over the blocks, each drawn when due:
    ``(part_id, cell_type, SER record, sweep record)`` per block, in order,
    or the ``ProtocolError`` of the first inoperable block."""
    law, v_dd = LinearSerLaw(), model.supply(v_dd)
    out = []
    for p, part_seq in enumerate(seed_sequence(seed).spawn(n_parts)):
        prng = np.random.default_rng(part_seq)
        offset = prng.normal(0.0, model.sigma_part)
        source = AlphaSource(geom_factor=1.0 + prng.uniform(-0.03, 0.03))
        seqs = part_seq.spawn(2 * len(cell_types))
        for i, cell_type in enumerate(cell_types):
            rate = law.rate((v_dd - (model.for_type(cell_type).mu_vwlmin + offset)) / 1000.0)
            array = sample_array(cell_type, model, part_offset=offset, seed=seqs[2 * i],
                                 true_seu_rate=rate, part_id=str(p + 1), v_dd=v_dd,
                                 **PREFETCHED)
            try:
                ser = run_ser_test(array, source, seed=seqs[2 * i + 1], **SCHEDULE)
            except ProtocolError as exc:
                return exc
            out.append((str(p + 1), cell_type, _fields(ser), _fields(run_wlvm_sweep(array))))
    return out


@pytest.fixture
def helper_draws(monkeypatch):
    """Run ``_measured``'s helper branch whatever this host's CPU count, and
    list each block ``pipeline.sample_array`` draws as ``(part, type,
    drawn on a helper thread)``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    draws = []
    real = pipeline.sample_array

    def wrapper(cell_type, model, **kwargs):
        draws.append((kwargs["part_id"], cell_type,
                      threading.current_thread() is not threading.main_thread()))
        return real(cell_type, model, **kwargs)

    monkeypatch.setattr(pipeline, "sample_array", wrapper)
    return draws


def test_prefetched_parts_equal_the_serial_loop(helper_draws):
    model = VariationModel.default()
    threads = threading.active_count()
    datasets = simulate_parts(model=model, n_parts=2, cell_types=("SS", "LS"), seed=23,
                              **PREFETCHED, **SCHEDULE)
    assert threading.active_count() == threads
    assert [(ds.part_id, t, _fields(ds.ser[t]), _fields(ds.sweeps[t]))
            for ds in datasets for t in ds.cell_types()] == _serial_parts(
        model, 2, ("SS", "LS"), seed=23)
    assert helper_draws == [(p, t, True) for p in "12" for t in ("SS", "LS")]


@pytest.mark.parametrize("kind,runner", [("hold", run_hold_sweep), ("read", run_read_sweep)])
def test_prefetched_supply_sweeps_equal_the_serial_loop(helper_draws, kind, runner):
    model = VariationModel.default()
    threads = threading.active_count()
    results = simulate_supply_sweeps(model=model, kind=kind, seed=7, **PREFETCHED)
    assert threading.active_count() == threads
    serial = [runner(sample_array(t, model, seed=seq, part_id="1", **PREFETCHED))
              for t, seq in zip(model.types, seed_sequence(7).spawn(len(model.types)))]
    assert list(map(_fields, results)) == list(map(_fields, serial))
    assert all(on_helper for _, _, on_helper in helper_draws)


def test_prefetched_inoperable_block_raises_the_serial_error(helper_draws):
    """Only the LS blocks are unwritable at 1190 mV, so the first error
    comes from part 1's second block while part 2's first is drawn ahead."""
    default = VariationModel.default()
    model = VariationModel({
        "SS": default.types["SS"],
        "LS": TypeVariation(**{**vars(default.types["LS"]), "mu_vwlmin": 1150.0})},
        default.sigma_part, default.v_dd_nominal)
    expected = _serial_parts(model, 2, ("SS", "LS"), seed=3, v_dd=1190)
    assert isinstance(expected, ProtocolError)
    assert str(expected).startswith("part 1 LS: ")
    threads = threading.active_count()
    with pytest.raises(ProtocolError) as info:
        simulate_parts(model=model, n_parts=2, cell_types=("SS", "LS"), seed=3, v_dd=1190,
                       **PREFETCHED, **SCHEDULE)
    assert str(info.value) == str(expected)
    assert threading.active_count() == threads
    assert helper_draws == [("1", "SS", True), ("1", "LS", True), ("2", "SS", True)]


def test_a_failed_draw_ahead_is_raised_when_its_block_is_due(helper_draws, monkeypatch):
    """A draw that fails on the helper thread is raised after the blocks
    before it are measured, as in the serial loop, and none after it is."""
    measured = []
    draw = pipeline.sample_array

    def failing(cell_type, model, **kwargs):
        if (kwargs["part_id"], cell_type) == ("2", "SS"):
            raise ConfigurationError("no draw for part 2 SS")
        return draw(cell_type, model, **kwargs)

    def ser_test(array, *args, **kwargs):
        measured.append((array.part_id, array.cell_type))
        return run_ser_test(array, *args, **kwargs)

    monkeypatch.setattr(pipeline, "sample_array", failing)
    monkeypatch.setattr(pipeline, "run_ser_test", ser_test)
    threads = threading.active_count()
    with pytest.raises(ConfigurationError, match="^no draw for part 2 SS$"):
        simulate_parts(n_parts=3, cell_types=("SS", "LS"), seed=3, **PREFETCHED, **SCHEDULE)
    assert threading.active_count() == threads
    assert measured == [("1", "SS"), ("1", "LS")]
