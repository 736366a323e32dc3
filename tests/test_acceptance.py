"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s``) carrying
the measured values; a failing criterion fails its test.
"""

import math
import time

import numpy as np
import pytest

from wlvmser import cli, kernels
from wlvmser.calibration import WEIGHT_MODES, WeightedPoint, predict_ser, weighted_linfit
from wlvmser.io import PartDataset
from wlvmser.pipeline import LinearSerLaw, calibrate_datasets, simulate_parts
from wlvmser.protocols import (run_hold_sweep, run_read_sweep, run_ser_test,
                               run_wlvm_sweep)
from wlvmser.radiation import AlphaSource, undetected_fraction
from wlvmser.records import TypeVariation, VariationModel, word_line_voltage_margin
from wlvmser.refdata import (CELL_TYPE_ORDER, PAPER_MATCHING_WEIGHT_MODE, REPRO_WINDOWS,
                             load_reference_dataset)
from wlvmser.sram import sample_array, seed_sequence

from conftest import single_type_model


def _report(name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_reference_regression_reproduction(capsys):
    t0 = time.perf_counter()
    datasets = load_reference_dataset()
    fit = calibrate_datasets(datasets, PAPER_MATCHING_WEIGHT_MODE)
    elapsed = time.perf_counter() - t0

    checks = {
        "m": REPRO_WINDOWS["m"][0] <= fit.m <= REPRO_WINDOWS["m"][1],
        "b": REPRO_WINDOWS["b"][0] <= fit.b <= REPRO_WINDOWS["b"][1],
        "nu": fit.nu == 23,
        "chi2_red": REPRO_WINDOWS["chi2_red"][0] <= fit.chi2_red <= REPRO_WINDOWS["chi2_red"][1],
        "r2": fit.r2 >= REPRO_WINDOWS["r2"][0],
    }
    ok = all(checks.values()) and elapsed < 1.0
    with capsys.disabled():
        _report("1 regression-reproduction", ok,
                f"mode={PAPER_MATCHING_WEIGHT_MODE}, m={fit.m:.3f}, b={fit.b:.3f}, "
                f"nu={fit.nu}, chi2_red={fit.chi2_red:.3f}, R2={fit.r2:.3f}",
                elapsed, 1.0)
    assert checks == {k: True for k in checks}
    assert elapsed < 1.0
    # the CLI command wrapping the same computation must PASS (exit 0)
    assert cli.main(["paper-repro"]) == 0


def test_criterion_2_poisson_uncertainty_crosscheck(capsys):
    t0 = time.perf_counter()
    datasets = load_reference_dataset()
    worst = 0.0
    n_checked = 0
    for ds in datasets:
        for meas in ds.ser.values():
            n_tot = meas.ser * 1e-6 * 4096 * 432_000
            pct = 100.0 / math.sqrt(n_tot)
            stated_pct = meas.rel_stat_unc * 100.0
            worst = max(worst, abs(pct - stated_pct))
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = n_checked == 25 and worst <= 0.15 and elapsed < 1.0
    with capsys.disabled():
        _report("2 poisson-uncertainty", ok,
                f"25 entries, worst |delta| = {worst:.3f} pp", elapsed, 1.0)
    assert n_checked == 25
    assert worst <= 0.15
    assert elapsed < 1.0
    # spot value: the strongest-signal entry implies ~2583 events -> 1.97%
    ss1 = datasets[0].ser["SS"]
    n_ss1 = ss1.ser * 1e-6 * 4096 * 432_000
    assert n_ss1 == pytest.approx(2583, abs=1)
    assert 100 / math.sqrt(n_ss1) == pytest.approx(1.97, abs=0.01)


def test_criterion_3_sweep_recovery(capsys):
    model = single_type_model(mu_vwlmin=791.0, sigma_vwlmin=44.0)
    t0 = time.perf_counter()
    mu_hits = 0
    sigma_ok = True
    se_ok = True
    for seed in range(20):
        array = sample_array("SS", model, seed=seed)
        result = run_wlvm_sweep(array, delta_v=10)
        mu_hits += abs(result.mu - 791.0) <= 4.0
        sigma_ok &= abs(result.sigma - 44.0) <= 0.08 * 44.0
        se_ok &= result.se_mean < 1.0
    elapsed = time.perf_counter() - t0
    ok = mu_hits >= 19 and sigma_ok and se_ok and elapsed < 10.0
    with capsys.disabled():
        _report("3 sweep-recovery", ok,
                f"mu within +-4 mV in {mu_hits}/20 seeds, sigma within 8%, "
                f"se_mean < 1 mV", elapsed, 10.0)
    assert mu_hits >= 19
    assert sigma_ok and se_ok
    assert elapsed < 10.0


def test_criterion_4_multi_flip_masking(capsys):
    t0 = time.perf_counter()
    lam_cell = (1.0 / 60.0) / 20480.0  # one upset per minute memory-wide
    ts = 1800.0
    f = undetected_fraction(lam_cell, ts)
    n_cell_windows = 10_000_000
    masked, total = kernels.masked_upsets_mc(lam_cell * ts, n_cell_windows, seed=2024)
    mc = masked / total
    tol = 3.0 * math.sqrt(f * (1.0 - f) / total)
    elapsed = time.perf_counter() - t0
    ok = f < 0.01 and abs(mc - f) <= tol and elapsed < 60.0
    with capsys.disabled():
        _report("4 multi-flip-masking", ok,
                f"analytic f = {f:.3e} < 1%, MC = {mc:.3e} over {total} events, "
                f"|delta| = {abs(mc - f):.2e} <= {tol:.2e}", elapsed, 60.0)
    assert f == pytest.approx(1.5e-3, rel=0.05)
    assert f < 0.01
    assert abs(mc - f) <= tol
    assert elapsed < 60.0


def test_criterion_5_closed_loop_recovery(capsys):
    model = VariationModel.default()
    law = LinearSerLaw(m=4.32, b=-0.25)
    t0 = time.perf_counter()
    hits = 0
    for trial in range(50):
        datasets = simulate_parts(model=model, law=law, n_parts=5,
                                  duration=432_000, ts=1800, delta_v=10,
                                  seed=1000 + trial, geom_spread=0.03)
        fit = calibrate_datasets(datasets, "combined")
        hits += abs(fit.m - law.m) <= 2.0 * fit.sigma_m
    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and elapsed < 300.0
    with capsys.disabled():
        _report("5 closed-loop-recovery", ok,
                f"m* within 2 sigma_m in {hits}/50 trials", elapsed, 300.0)
    assert hits >= 45
    assert elapsed < 300.0


def test_criterion_6_identities(capsys):
    t0 = time.perf_counter()
    # exact count/rate identity on protocol-produced measurements
    model = single_type_model()
    measurements = []
    for seed, rate, ts, duration in [(0, 1.46, 1800.0, 432_000.0),
                                     (1, 0.4, 600.0, 60_000.0),
                                     (2, 5.0, 300.0, 12_300.0)]:
        array = sample_array("SS", model, seed=seed, true_seu_rate=rate)
        measurements.append(run_ser_test(array, AlphaSource(), ts, duration,
                                         seed=seed + 10))
    datasets = simulate_parts(n_parts=2, cell_types=("SS", "LS"),
                              duration=36_000, ts=1800, seed=3)
    measurements += [m for ds in datasets for m in ds.ser.values()]
    for meas in measurements:
        assert meas.n_tot == int(meas.window_counts.sum())
        assert meas.t_exp == meas.n_windows * meas.ts
        assert meas.ser == 1e6 * meas.n_tot / (meas.t_exp * meas.n_bits)
        # float round trip of the rate identity
        assert meas.ser * 1e-6 * meas.t_exp * meas.n_bits == pytest.approx(
            meas.n_tot, rel=1e-12)

    # margin arithmetic is exact on the reference data
    part1 = load_reference_dataset()[0]
    expected = {"SS": 409, "SM": 330, "SL": 269, "MM": 383, "LS": 485}
    margins = {}
    for cell_type, sweep in part1.sweeps.items():
        margin = word_line_voltage_margin(1200, sweep.mu)
        assert margin + sweep.mu == 1200
        margins[cell_type] = margin
    elapsed = time.perf_counter() - t0
    ok = margins == expected
    with capsys.disabled():
        _report("6 identities", ok,
                f"{len(measurements)} measurements exact, margins {sorted(margins.values())}",
                elapsed, 60.0)
    assert margins == expected


def test_criterion_7_regression_oracle_equivalence(capsys):
    def oracle(points):
        x = np.array([p.x for p in points])
        y = np.array([p.y for p in points])
        s = np.array([p.sigma_y for p in points])
        design = np.column_stack([x / s, 1.0 / s])
        coef, *_ = np.linalg.lstsq(design, y / s, rcond=None)
        return coef

    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        x = rng.uniform(-10, 10, n)
        x[1] = x[0] + rng.uniform(0.5, 3.0)
        y = rng.uniform(-20, 20, n)
        s = rng.uniform(0.05, 5.0, n)
        pts = [WeightedPoint(float(a), float(b), float(c))
               for a, b, c in zip(x, y, s)]
        fit = weighted_linfit(pts)
        m_ref, b_ref = oracle(pts)
        worst = max(worst,
                    abs(fit.m - m_ref) / max(abs(m_ref), 1e-30),
                    abs(fit.b - b_ref) / max(abs(b_ref), 1e-30))
    assert worst <= 1e-10

    # stated invariances: sigma scaling, y shift, x affine map
    pts = [WeightedPoint(float(a), float(b), float(c))
           for a, b, c in zip(rng.uniform(-5, 5, 12),
                              rng.uniform(-5, 5, 12),
                              rng.uniform(0.2, 2.0, 12))]
    base = weighted_linfit(pts)
    scaled = weighted_linfit([WeightedPoint(p.x, p.y, 2.0 * p.sigma_y) for p in pts])
    assert (scaled.m, scaled.b) == pytest.approx((base.m, base.b), rel=1e-12)
    assert scaled.sigma_m == pytest.approx(2 * base.sigma_m, rel=1e-12)
    assert scaled.chi2 == pytest.approx(base.chi2 / 4, rel=1e-12)
    shifted = weighted_linfit([WeightedPoint(p.x, p.y + 3.0, p.sigma_y) for p in pts])
    assert shifted.m == pytest.approx(base.m, rel=1e-10)
    assert shifted.b == pytest.approx(base.b + 3.0, rel=1e-10)
    a, d = -1.5, 0.75
    mapped = weighted_linfit([WeightedPoint(a * p.x + d, p.y, p.sigma_y) for p in pts])
    assert mapped.m == pytest.approx(base.m / a, rel=1e-10)
    assert mapped.b == pytest.approx(base.b - base.m * d / a, rel=1e-10)

    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report("7 regression-oracle", True,
                f"1000 datasets, worst relative delta = {worst:.2e}",
                elapsed, 60.0)


# Pearson |r| below which 25 uncorrelated points pass a two-sided 5 % test
R_CRIT_25 = 0.396
CONTROL_SWEEPS = (run_hold_sweep, run_read_sweep)


def _control_campaign(model, seed):
    """The datasets of one default campaign (5 parts x 5 types), built as
    ``simulate_parts`` builds them: per part one offset and one flux
    factor, per block the default law's rate at the block's true margin.
    Keyed by sweep, each pairs the blocks' SER with that sweep of the same
    blocks."""
    law, v_dd = LinearSerLaw(), model.v_dd_nominal
    root = seed_sequence(seed)
    campaign = {sweep: [] for sweep in (run_wlvm_sweep,) + CONTROL_SWEEPS}
    for p in range(5):
        part_id = str(p + 1)
        part_seq = root.spawn(1)[0]
        prng = np.random.default_rng(part_seq)
        offset = prng.normal(0.0, model.sigma_part)
        source = AlphaSource(geom_factor=1.0 + prng.uniform(-0.03, 0.03))
        block_seqs = part_seq.spawn(2 * len(CELL_TYPE_ORDER))
        parts = {sweep: PartDataset(part_id, v_dd) for sweep in campaign}
        for i, cell_type in enumerate(CELL_TYPE_ORDER):
            margin_v = (v_dd - (model.for_type(cell_type).mu_vwlmin + offset)) / 1000.0
            array = sample_array(cell_type, model, part_offset=offset,
                                 seed=block_seqs[2 * i], true_seu_rate=law.rate(margin_v),
                                 part_id=part_id, v_dd=v_dd)
            meas = run_ser_test(array, source, seed=block_seqs[2 * i + 1])
            for sweep, ds in parts.items():
                ds.ser[cell_type] = meas
                ds.sweeps[cell_type] = sweep(array)
        for sweep, ds in parts.items():
            campaign[sweep].append(ds)
    return campaign


def _flat_control_means():
    """The bundled model with hold and read means of 450 and 650 mV for
    every type, so they carry no trace of the write strength."""
    bundled = VariationModel.default()
    return VariationModel(
        {name: TypeVariation(**{**vars(tv), "mu_hold": 450.0, "mu_read": 650.0})
         for name, tv in bundled.types.items()},
        bundled.sigma_part, bundled.v_dd_nominal)


@pytest.mark.parametrize("model_name", [
    pytest.param("bundled", marks=pytest.mark.xfail(strict=True, reason=(
        "the placeholder hold and read means of data/variation_model.json fall "
        "as the write means rise, so those margins track SER"))),
    "flat-means",
])
def test_criterion_9_control_margins_do_not_predict_ser(model_name, capsys):
    """The paper's control claim: over 100 default campaigns (seeds 0-99)
    the word-line margin fits SER with R2 >= 0.95 in every one, while the
    hold and the read margin are each uncorrelated with SER at the 5 %
    level (|r| < 0.396 over 25 blocks) in at least 90."""
    model = VariationModel.default() if model_name == "bundled" else _flat_control_means()
    t0 = time.perf_counter()
    # the local loop builds the blocks simulate_parts builds
    reference = simulate_parts(model=model, seed=0)
    first = _control_campaign(model, 0)[run_wlvm_sweep]
    assert [(m.ser, s.mu) for ds in first for m, s in ds.pairs()] == [
        (m.ser, s.mu) for ds in reference for m, s in ds.pairs()]

    r2_min = math.inf
    passes = {sweep: 0 for sweep in CONTROL_SWEEPS}
    control_r2_max = {sweep: 0.0 for sweep in CONTROL_SWEEPS}
    for seed in range(100):
        campaign = _control_campaign(model, seed)
        r2_min = min(r2_min, calibrate_datasets(campaign[run_wlvm_sweep], "combined").r2)
        for sweep in CONTROL_SWEEPS:
            pairs = [pair for ds in campaign[sweep] for pair in ds.pairs()]
            ser = [meas.ser for meas, _ in pairs]
            margin = [word_line_voltage_margin(model.v_dd_nominal, s.mu) for _, s in pairs]
            passes[sweep] += abs(np.corrcoef(margin, ser)[0, 1]) < R_CRIT_25
            control_r2_max[sweep] = max(
                control_r2_max[sweep], calibrate_datasets(campaign[sweep], "combined").r2)
    elapsed = time.perf_counter() - t0
    hold, read = (passes[sweep] for sweep in CONTROL_SWEEPS)
    ok = r2_min >= 0.95 and hold >= 90 and read >= 90 and elapsed < 60.0
    with capsys.disabled():
        _report(f"9 control-margins ({model_name})", ok,
                f"word-line R2 >= {r2_min:.3f} in 100/100; |r| < {R_CRIT_25} in "
                f"{hold}/100 hold and {read}/100 read, their R2 <= "
                f"{control_r2_max[run_hold_sweep]:.3f} and "
                f"{control_r2_max[run_read_sweep]:.3f}", elapsed, 60.0)
    assert r2_min >= 0.95
    assert hold >= 90 and read >= 90
    assert elapsed < 60.0


# irradiated parts of criterion 10's campaigns: the rest are predicted
HELD_IN_PARTS = (1, 2, 3, 5)
# two-sided 2-sigma coverage of a unit normal, and the median of its |value|
NORMAL_2SIGMA = math.erf(2 / math.sqrt(2))
NORMAL_MEDIAN_ABS = 0.6745


def _held_out_errors(fit_parts, held_out, weight_mode):
    """``(relative error, pull)`` of each block of ``held_out``, its SER
    predicted from its own margin by the line fitted to ``fit_parts``; the
    pull charges the prediction's sigma and the measurement's own
    ``combined`` sigma."""
    fit = calibrate_datasets(fit_parts, weight_mode)
    errors = []
    for ds in held_out:
        for meas, sweep in ds.pairs():
            pred = predict_ser(fit, sweep.margin / 1000.0)
            sigma = math.hypot(pred.sigma, meas.ser * math.hypot(meas.rel_stat_unc,
                                                                 meas.rel_geom_unc))
            errors.append(((pred.ser - meas.ser) / meas.ser, (meas.ser - pred.ser) / sigma))
    return errors


def test_criterion_10_predicts_the_ser_of_parts_left_out_of_the_fit(capsys):
    """The paper's method: fit the line on the first k of 10 parts and take
    every other block's SER from its margin alone.  Over 200 default
    campaigns (seeds 70000-70199), for each k, the measured SER lies within
    2 sigma of the prediction as often as a normal pull would, and the
    median |pull| is no larger than a normal's.  Both gates allow 3 standard
    errors with the campaign, whose blocks share one fit, as the sample
    unit: binomial for the coverage, the sample median's for the median."""
    n_campaigns = 200
    cover_gate = NORMAL_2SIGMA - 3 * math.sqrt(
        NORMAL_2SIGMA * (1 - NORMAL_2SIGMA) / n_campaigns)
    # the density of |Z| at its median is 2 phi(0.6745)
    median_se = 0.5 / math.sqrt(n_campaigns) / (
        2 * math.exp(-NORMAL_MEDIAN_ABS ** 2 / 2) / math.sqrt(2 * math.pi))
    median_gate = NORMAL_MEDIAN_ABS + 3 * median_se
    t0 = time.perf_counter()
    errors = {k: [] for k in HELD_IN_PARTS}
    for seed in range(70000, 70000 + n_campaigns):
        datasets = simulate_parts(n_parts=10, seed=seed)
        for k in HELD_IN_PARTS:
            errors[k] += _held_out_errors(datasets[:k], datasets[k:], "combined")
    elapsed = time.perf_counter() - t0

    rel = {k: np.abs([r for r, _ in errors[k]]) for k in HELD_IN_PARTS}
    pulls = {k: np.array([p for _, p in errors[k]]) for k in HELD_IN_PARTS}
    coverage = {k: float(np.mean(np.abs(pulls[k]) < 2)) for k in HELD_IN_PARTS}
    median_pull = {k: float(np.median(np.abs(pulls[k]))) for k in HELD_IN_PARTS}
    ok = (min(coverage.values()) >= cover_gate
          and max(median_pull.values()) <= median_gate and elapsed < 60.0)

    # the bundled reference data, each part left out in turn: not gated
    reference = load_reference_dataset()
    lopo = {}
    for mode in WEIGHT_MODES:
        lopo[mode] = np.abs([r for i in range(len(reference))
                             for r, _ in _held_out_errors(reference[:i] + reference[i + 1:],
                                                          [reference[i]], mode)])
    with capsys.disabled():
        _report("10 held-out-parts", ok,
                "k = " + ", ".join(
                    f"{k}: median |rel err| {100 * np.median(rel[k]):.1f} %, "
                    f"p95 {100 * np.percentile(rel[k], 95):.1f} %, "
                    f"2-sigma coverage {coverage[k]:.3f} >= {cover_gate:.3f}, "
                    f"median |pull| {median_pull[k]:.3f} <= {median_gate:.3f}"
                    for k in HELD_IN_PARTS)
                + "; reference data, each part left out: " + ", ".join(
                    f"{mode} median {100 * np.median(lopo[mode]):.1f} % "
                    f"max {100 * lopo[mode].max():.1f} %" for mode in WEIGHT_MODES),
                elapsed, 60.0)
    assert all(coverage[k] >= cover_gate for k in HELD_IN_PARTS), coverage
    assert all(median_pull[k] <= median_gate for k in HELD_IN_PARTS), median_pull
    assert elapsed < 60.0
