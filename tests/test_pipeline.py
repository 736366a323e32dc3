"""End-to-end pipeline behavior beyond the acceptance gates."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlvmser import kernels, protocols, sram
from wlvmser.errors import ConfigurationError, ProtocolError
from wlvmser.io import emit_report
from wlvmser.pipeline import (LinearSerLaw, build_report_bundle,
                              calibrate_datasets, simulate_parts,
                              simulate_supply_sweeps)
from wlvmser.protocols import (run_hold_sweep, run_read_sweep, run_ser_test,
                               run_wlvm_sweep)
from wlvmser.radiation import AlphaSource
from wlvmser.records import TypeVariation, VariationModel
from wlvmser.refdata import CELL_TYPE_ORDER
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


# --- blocks are measured in groups; large blocks are drawn one ahead on a helper thread

PREFETCHED = dict(rows=256, cols=256)  # 2^16 cells, the smallest block drawn ahead
SCHEDULE = dict(duration=7200.0, ts=1800.0)


def _fields(record):
    """A record's fields, each float by its bits."""
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: bits(v) for k, v in value.items()}
        return value
    return {k: bits(v) for k, v in vars(record).items()}


def _serial_parts(model, n_parts, cell_types, seed, v_dd=None, law=None, **batch):
    """``simulate_parts`` as one loop over the blocks, each drawn and
    measured when due by ``sample_array``, ``run_ser_test`` and
    ``run_wlvm_sweep``: ``(part_id, cell_type, SER record, sweep record)``
    per block, in order, or the error of the first block that fails.
    ``batch`` overrides the geometry and schedule of ``PREFETCHED`` and
    ``SCHEDULE``."""
    batch = {**PREFETCHED, **SCHEDULE, **batch}
    law = law if law is not None else LinearSerLaw()
    v_dd = model.supply(v_dd)
    out = []
    for p, part_seq in enumerate(seed_sequence(seed).spawn(n_parts)):
        prng = np.random.default_rng(part_seq)
        offset = prng.normal(0.0, model.sigma_part)
        source = AlphaSource(geom_factor=1.0 + prng.uniform(-0.03, 0.03))
        seqs = part_seq.spawn(2 * len(cell_types))
        for i, cell_type in enumerate(cell_types):
            rate = law.rate((v_dd - (model.for_type(cell_type).mu_vwlmin + offset)) / 1000.0)
            try:
                array = sample_array(cell_type, model, part_offset=offset, seed=seqs[2 * i],
                                     true_seu_rate=rate, part_id=str(p + 1), v_dd=v_dd,
                                     rows=batch["rows"], cols=batch["cols"])
                ser = run_ser_test(array, source, batch["ts"], batch["duration"],
                                   seed=seqs[2 * i + 1])
                sweep = run_wlvm_sweep(array)
            except (ProtocolError, ConfigurationError) as exc:
                return exc
            out.append((str(p + 1), cell_type, _fields(ser), _fields(sweep)))
    return out


def _batch_parts(model, n_parts, cell_types, seed, v_dd=None, law=None, **batch):
    """``simulate_parts`` in the form of ``_serial_parts``."""
    batch = {**PREFETCHED, **SCHEDULE, **batch}
    try:
        datasets = simulate_parts(model=model, law=law, n_parts=n_parts,
                                  cell_types=cell_types, seed=seed, v_dd=v_dd, **batch)
    except (ProtocolError, ConfigurationError) as exc:
        return exc
    return [(ds.part_id, t, _fields(ds.ser[t]), _fields(ds.sweeps[t]))
            for ds in datasets for t in ds.cell_types()]


def _serial_sweeps(model, runner, cell_types, seed, **geometry):
    """``simulate_supply_sweeps`` as one ``runner`` call per block."""
    return [_fields(runner(sample_array(t, model, seed=seq, part_id="1", **geometry)))
            for t, seq in zip(cell_types, seed_sequence(seed).spawn(len(cell_types)))]


def _same(got, expected):
    """Equal results, or errors of the same type and message."""
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return got == expected


@pytest.fixture
def helper_draws(monkeypatch):
    """Run ``_measured``'s helper branch whatever this host's CPU count, and
    list each block a batch draws (``sram._sampled``) as ``(part, type,
    drawn on a helper thread)``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    draws = []
    real = sram._sampled

    def wrapper(cell_type, model, part_offset, seed, n, true_seu_rate, part_id, v_dd):
        draws.append((part_id, cell_type,
                      threading.current_thread() is not threading.main_thread()))
        return real(cell_type, model, part_offset, seed, n, true_seu_rate, part_id, v_dd)

    monkeypatch.setattr(sram, "_sampled", wrapper)
    return draws


def test_prefetched_parts_equal_the_serial_loop(helper_draws):
    model = VariationModel.default()
    threads = threading.active_count()
    got = _batch_parts(model, 2, ("SS", "LS"), seed=23)
    assert threading.active_count() == threads
    assert helper_draws == [(p, t, True) for p in "12" for t in ("SS", "LS")]
    assert got == _serial_parts(model, 2, ("SS", "LS"), seed=23)


@pytest.mark.parametrize("kind,runner", [("hold", run_hold_sweep), ("read", run_read_sweep)])
def test_prefetched_supply_sweeps_equal_the_serial_loop(helper_draws, kind, runner):
    model = VariationModel.default()
    threads = threading.active_count()
    results = simulate_supply_sweeps(model=model, kind=kind, seed=7, **PREFETCHED)
    assert threading.active_count() == threads
    assert all(on_helper for _, _, on_helper in helper_draws)
    assert list(map(_fields, results)) == _serial_sweeps(model, runner, model.types, 7,
                                                         **PREFETCHED)


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
    helper_draws.clear()
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
    draw, ser_block = sram._sampled, protocols._ser_block

    def failing(cell_type, model, part_offset, seed, n, true_seu_rate, part_id, v_dd):
        if (part_id, cell_type) == ("2", "SS"):
            raise ConfigurationError("no draw for part 2 SS")
        return draw(cell_type, model, part_offset, seed, n, true_seu_rate, part_id, v_dd)

    def measuring(array, *args, **kwargs):
        measured.append((array.part_id, array.cell_type))
        return ser_block(array, *args, **kwargs)

    monkeypatch.setattr(sram, "_sampled", failing)
    monkeypatch.setattr(protocols, "_ser_block", measuring)
    threads = threading.active_count()
    with pytest.raises(ConfigurationError, match="^no draw for part 2 SS$"):
        simulate_parts(n_parts=3, cell_types=("SS", "LS"), seed=3, **PREFETCHED, **SCHEDULE)
    assert threading.active_count() == threads
    assert measured == [("1", "SS"), ("1", "LS")]


LAWS = {"default": LinearSerLaw(), "zero": LinearSerLaw(m=0.0, b=0.0),
        "high": LinearSerLaw(m=0.0, b=2000.0)}


@settings(max_examples=40, deadline=None)
@given(side=st.sampled_from([8, 64, 100, 200]), n_parts=st.integers(1, 4),
       types=st.sets(st.sampled_from(CELL_TYPE_ORDER), min_size=1),
       v_dd=st.sampled_from([1200, 1190, 1150, 1100]), law=st.sampled_from(sorted(LAWS)),
       seed=st.integers(0, 2**32))
@example(side=64, n_parts=4, types=set(CELL_TYPE_ORDER), v_dd=1190, law="high", seed=5)
@example(side=64, n_parts=4, types=set(CELL_TYPE_ORDER), v_dd=1200, law="default", seed=6)
@example(side=8, n_parts=4, types=set(CELL_TYPE_ORDER), v_dd=1150, law="zero", seed=7)
@example(side=100, n_parts=3, types=set(CELL_TYPE_ORDER), v_dd=1100, law="default", seed=3)
def test_grouped_batches_equal_the_serial_loop(side, n_parts, types, v_dd, law, seed):
    """Both batches give the per-block loop's records bit for bit, or its
    first error, for blocks on either side of the group bound (64 x 64
    blocks fill a group of 2^16 cells, 200 x 200 are a group of one),
    below nominal supply, where the verify draws the hold and read
    thresholds, with no events, or so many that the event bound closes
    the groups."""
    model = VariationModel.default()
    cell_types = tuple(t for t in CELL_TYPE_ORDER if t in types)
    batch = dict(rows=side, cols=side, duration=3600.0, ts=1800.0)
    assert _same(_batch_parts(model, n_parts, cell_types, seed, v_dd, LAWS[law], **batch),
                 _serial_parts(model, n_parts, cell_types, seed, v_dd, LAWS[law], **batch))
    kind, runner = (("hold", run_hold_sweep), ("read", run_read_sweep))[seed % 2]
    assert list(map(_fields, simulate_supply_sweeps(
        model, cell_types, kind, seed=seed, rows=side, cols=side))) == _serial_sweeps(
        model, runner, cell_types, seed, rows=side, cols=side)


def _count_draws(monkeypatch):
    """The mean of each threshold set drawn, in order."""
    calls = []
    real = sram._sample_thresholds
    monkeypatch.setattr(sram, "_sample_thresholds", lambda *a: calls.append(a[1]) or real(*a))
    return calls


def _serial_and_batch(monkeypatch, model, n_parts, seed, v_dd=None):
    """The serial loop's and the batch's result over 64 x 64 blocks, each
    with the threshold sets it drew."""
    calls = _count_draws(monkeypatch)
    out = []
    for run in (_serial_parts, _batch_parts):
        calls.clear()
        out.append((run(model, n_parts, CELL_TYPE_ORDER, seed, v_dd, rows=64, cols=64),
                    list(calls)))
    return out


def test_a_block_failing_mid_group_raises_the_serial_error(monkeypatch):
    """Part 2's SL block, the eighth of the first group of 16, cannot be
    written at 1100 mV: the batch raises the serial loop's error after the
    same draws, the hold and read sets of every block before it (drawn for
    the verify) and of the failing one, and draws no later block."""
    (serial, serial_draws), (batch, batch_draws) = _serial_and_batch(
        monkeypatch, VariationModel.default(), 3, seed=3, v_dd=1100)
    assert isinstance(serial, ProtocolError)
    assert str(serial).startswith("part 2 SL: initial write/verify failed for ")
    assert _same(batch, serial)
    assert batch_draws == serial_draws and len(serial_draws) == 3 * 8


@pytest.mark.parametrize("v_dd, seed, key, means", [
    (None, 1, "vwlmin", dict(mu_vwlmin=1180.0)),
    (1199, 3, "hold", dict(mu_hold=60.0, sigma_hold=5.0))])
def test_a_landing_refusal_mid_group_raises_the_serial_error(monkeypatch, v_dd, seed, key,
                                                             means):
    """With a wide part spread (80 mV), part 2's offset moves an SL set out
    of reach in the middle of the first group: the write set as the block
    is drawn, or, below nominal, the hold set as the verify draws it.  The
    refused set is not drawn."""
    default = VariationModel.default()
    sl = TypeVariation(**{**vars(default.types["SL"]), **means})
    model = VariationModel({**default.types, "SL": sl}, 80.0, default.v_dd_nominal)
    (serial, serial_draws), (batch, batch_draws) = _serial_and_batch(
        monkeypatch, model, 4, seed=seed, v_dd=v_dd)
    assert isinstance(serial, ConfigurationError)
    assert str(serial).startswith("--part-offset (part_offset) ")
    assert f"moves type SL's mu_{key}_mV" in str(serial)
    assert _same(batch, serial)
    assert batch_draws == serial_draws
    per_block = 1 if v_dd is None else 3  # below nominal the verify draws hold and read
    assert len(serial_draws) == 7 * per_block + (key == "hold")


def test_groups_close_at_the_event_bound(monkeypatch):
    """Under a high rate the block that takes a group's events to 2^16 or
    more closes it: no flip count holds 2^16 events besides its last
    block's, and some group closes before it holds 2^16 cells."""
    groups = []
    count = kernels.observed_flips

    def recording(offsets, cells, n_cells):
        n_windows = 2  # 3600 s read every 1800 s
        groups.append(((offsets.size - 1) // n_windows, cells.size,
                       int(offsets[-1] - offsets[-1 - n_windows])))
        return count(offsets, cells, n_cells)

    monkeypatch.setattr(kernels, "observed_flips", recording)
    simulate_parts(law=LinearSerLaw(m=0.0, b=2000.0), n_parts=8, duration=3600.0,
                   ts=1800.0, rows=64, cols=64, seed=4)
    assert sum(blocks for blocks, _, _ in groups) == 40
    assert all(blocks <= 16 and events - last < 2**16 for blocks, events, last in groups)
    assert any(blocks < 16 for blocks, _, _ in groups[:-1])


def test_a_block_over_the_event_budget_names_itself_and_the_law():
    with pytest.raises(ConfigurationError) as refused:
        simulate_parts(law=LinearSerLaw(m=1e308), n_parts=2, rows=8, cols=8)
    assert str(refused.value) == (
        "part 1 SS: expected inf events over 432000 s, more than the budget of 16777216 "
        "events; lower --law-m (m) or --law-b (b), the block size or the duration")
