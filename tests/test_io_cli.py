"""Measurement file ingestion, report emission, and the CLI surface."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlvmser
from wlvmser import cli, pipeline
from wlvmser.calibration import CalibrationFit, predict_ser, weighted_linfit
from wlvmser.errors import IngestError
from wlvmser.io import (PartDataset, ReportBundle, emit_measurements_csv,
                        emit_report, ingest_measurements_csv, read_fit_json,
                        write_fit_json)
from wlvmser.pipeline import build_report_bundle, calibrate_datasets, simulate_parts
from wlvmser.records import SerMeasurement, SweepResult
from wlvmser.refdata import CELL_TYPE_ORDER, REFERENCE_CSV, load_reference_dataset

HEADER = "part_id,cell_type,quantity,value\n"


# --- ingestion ----------------------------------------------------------------

def test_bundled_dataset_shape_and_values():
    datasets = load_reference_dataset()
    assert len(datasets) == 5
    assert sum(len(ds.ser) for ds in datasets) == 25
    assert sum(len(ds.sweeps) for ds in datasets) == 25
    part1 = datasets[0]
    assert part1.part_id == "1"
    assert part1.v_dd == 1200
    assert part1.ser["SS"].ser == 1.46
    assert part1.ser["SS"].rel_stat_unc == 0.02
    assert part1.sweeps["SS"].mu == 791
    assert part1.sweeps["SS"].sigma == 44
    assert part1.v_dd - part1.sweeps["SS"].mu == 409
    part5 = datasets[-1]
    assert part5.ser["LS"].ser == 1.86
    assert part5.sweeps["LS"].mu == 730
    assert part5.sweeps["LS"].sigma == 35


def test_ingest_empty_data_section(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER)
    assert ingest_measurements_csv(path) == []


def test_ingest_unknown_cell_type_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,SS,ser_uSEU_per_bit_s,1.0\n"
                             "1,SS,rel_stat_unc,0.02\n"
                             "1,QQ,v_mewlvm_mV,800\n")
    with pytest.raises(IngestError, match=r":4:.*QQ"):
        ingest_measurements_csv(path)


def test_ingest_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(HEADER + "1,SS,v_mewlvm_mV,800\n1,SS,v_mewlvm_mV,801\n")
    with pytest.raises(IngestError, match="duplicate"):
        ingest_measurements_csv(path)


def test_ingest_rejects_non_numeric(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(HEADER + "1,SS,v_mewlvm_mV,eight-hundred\n")
    with pytest.raises(IngestError, match=r":2:.*non-numeric"):
        ingest_measurements_csv(path)


def test_ingest_rejects_unknown_quantity_and_header(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text(HEADER + "1,SS,volts,1.0\n")
    with pytest.raises(IngestError, match="unknown quantity"):
        ingest_measurements_csv(path)
    path2 = tmp_path / "h.csv"
    path2.write_text("a,b,c\n")
    with pytest.raises(IngestError, match="header"):
        ingest_measurements_csv(path2)


def test_ingest_requires_paired_ser_and_stat(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text(HEADER + "1,SS,ser_uSEU_per_bit_s,1.0\n")
    with pytest.raises(IngestError, match="must come together"):
        ingest_measurements_csv(path)


@pytest.mark.parametrize("text, cause", [
    ("", ": empty file, expected header ['part_id', 'cell_type', 'quantity', 'value']"),
    (HEADER + "1,SS,v_mewlvm_mV\n", ":2: expected 4 fields, got 3"),
    (HEADER + ",SS,v_mewlvm_mV,800\n", ":2: missing part_id"),
    (HEADER + "1,SS,vdd_mV,1200\n", ":2: vdd_mV rows must leave cell_type empty"),
    (HEADER + "1,,vdd_mV,1200\n1,SS,v_mewlvm_mV,800\n1,,vdd_mV,1100\n",
     ":4: duplicate vdd_mV for part 1"),
    (HEADER + "1,SS,v_mewlvm_mV,800\n1,SM,sigma_wlvm_mV,44\n",
     ": part 1 type SM: sigma_wlvm_mV without v_mewlvm_mV"),
    (HEADER + "x\ty,SS,v_mewlvm_mV,800\n", ":2: part_id 'x\\ty' holds a tab or line break"),
    (HEADER + '"x\ny",SS,v_mewlvm_mV,800\n', ":2: part_id 'x\\ny' holds a tab or line break"),
    (HEADER + '"x\ry",SS,v_mewlvm_mV,800\n', ":2: part_id 'x\\ry' holds a tab or line break"),
    (HEADER + '1,SS,sigma_wlvm_mV,44\n1,SS,v_mewlvm_mV,"\n791"\n',
     ":3: a quoted field holds a line break"),
    (HEADER + '1,"SS\r\n",v_mewlvm_mV,791\n', ":2: a quoted field holds a line break"),
    (HEADER + '"\n",,,\n1,QQ,v_mewlvm_mV,800\n', ":4: unknown cell type 'QQ'"),
    ('"part_id\n",cell_type,quantity,value\n', ": header ['part_id\\n', 'cell_type', "
     "'quantity', 'value'] does not match ['part_id', 'cell_type', 'quantity', 'value']"),
], ids=["empty", "field-count", "part-id", "vdd-cell-type", "vdd-twice", "sigma-alone",
        "part-id-tab", "part-id-lf", "part-id-cr", "value-lf", "cell-type-crlf",
        "blank-record-lf", "header-lf"])
def test_cli_malformed_measurement_file_is_one_error_line(text, cause, tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert cli.main(["calibrate", "--input", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}{cause}"]


GOOD_ROWS = ["1,SS,ser_uSEU_per_bit_s,1.46", "1,SS,rel_stat_unc,0.02",
             "1,SS,v_mewlvm_mV,791", "1,SS,sigma_wlvm_mV,44", "1,,vdd_mV,1200"]


def _measurement_file(tmp_path, **values_by_line):
    """``GOOD_ROWS`` as a file, with the value on line ``l<N>`` replaced."""
    rows = list(GOOD_ROWS)
    for key, value in values_by_line.items():
        i = int(key[1:]) - 2
        rows[i] = rows[i].rsplit(",", 1)[0] + "," + value
    path = tmp_path / "m.csv"
    path.write_text(HEADER + "".join(row + "\n" for row in rows), encoding="utf-8")
    return path


def test_ingest_accepts_zero_count_block(tmp_path):
    """The simulator writes ser=0, rel_stat_unc=inf for a block with no
    observed upset; ingestion keeps them."""
    [ds] = ingest_measurements_csv(_measurement_file(tmp_path, l2="0", l3="inf"))
    assert ds.ser["SS"].ser == 0 and ds.ser["SS"].rel_stat_unc == math.inf


@pytest.mark.parametrize("line, value, cause", [
    (2, "nan", "ser_uSEU_per_bit_s must be a finite value >= 0, got 'nan'"),
    (2, "-0.036", "ser_uSEU_per_bit_s must be a finite value >= 0, got '-0.036'"),
    (3, "-0.02", "rel_stat_unc must be a value >= 0, got '-0.02'"),
    (3, "inf", "rel_stat_unc may be inf only with ser_uSEU_per_bit_s 0 "
               "(no observed upset), got ser_uSEU_per_bit_s=1.46"),
    (4, "1300", "v_mewlvm_mV=1300 above the supply of part 1 (1200 mV)"),
    (6, "1200.7", "vdd_mV must be a positive whole number of mV, got '1200.7'"),
    (4, "7_91", "non-numeric value '7_91'"),
    (4, "\u0667\u0669\u0661", "non-numeric value '\u0667\u0669\u0661'"),
])
def test_cli_bad_measurement_value_is_one_error_line(line, value, cause, tmp_path,
                                                     capsys):
    path = _measurement_file(tmp_path, **{f"l{line}": value})
    assert cli.main(["calibrate", "--input", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {path}:{line}: {cause}"]


def test_roundtrip_bundled_dataset(tmp_path):
    original = load_reference_dataset()
    out = tmp_path / "copy.csv"
    emit_measurements_csv(original, out)
    reloaded = ingest_measurements_csv(out)
    assert len(reloaded) == len(original)
    for a, b in zip(original, reloaded):
        assert a.part_id == b.part_id and a.v_dd == b.v_dd
        assert set(a.ser) == set(b.ser) and set(a.sweeps) == set(b.sweeps)
        for t in a.ser:
            assert a.ser[t].ser == b.ser[t].ser
            assert a.ser[t].rel_stat_unc == b.ser[t].rel_stat_unc
        for t in a.sweeps:
            assert a.sweeps[t].mu == b.sweeps[t].mu
            assert a.sweeps[t].sigma == b.sweeps[t].sigma


def test_roundtrip_simulated_dataset(tmp_path):
    datasets = simulate_parts(n_parts=1, cell_types=("SS",), duration=7200,
                              ts=1800, seed=3, rows=16, cols=16)
    out = tmp_path / "sim.csv"
    emit_measurements_csv(datasets, out)
    reloaded = ingest_measurements_csv(out)
    assert reloaded[0].ser["SS"].ser == datasets[0].ser["SS"].ser
    assert reloaded[0].sweeps["SS"].mu == datasets[0].sweeps["SS"].mu


def test_emitters_refuse_repeated_part_ids(tmp_path):
    """Pooled runs that repeat a part id would share measurement keys and
    report file names: both emitters refuse them before writing a file."""
    pooled = [ds for seed in (1, 2) for ds in simulate_parts(
        n_parts=1, duration=7200, ts=1800, seed=seed, rows=16, cols=16)]
    bundle = build_report_bundle(pooled)
    with pytest.raises(ValueError, match="^part id '1' names more than one dataset$"):
        emit_measurements_csv(pooled, tmp_path / "measurements.csv")
    with pytest.raises(ValueError, match="^part id '1' names more than one dataset$"):
        emit_report(bundle, tmp_path / "report")
    assert list(tmp_path.iterdir()) == []


_values = st.floats(min_value=0, allow_nan=False, allow_infinity=False)


@st.composite
def _part_datasets(draw):
    """Random parts with any mix of SER and sweep records per cell type,
    zero-count blocks (ser 0, rel_stat_unc inf) and missing sigmas
    included."""
    part_ids = draw(st.lists(st.text("0123456789abcXYZ_-", min_size=1, max_size=4),
                             max_size=4, unique=True))
    datasets = []
    for part_id in part_ids:
        v_dd = draw(st.integers(1, 2000))
        ds = PartDataset(part_id=part_id, v_dd=v_dd)
        for cell_type in CELL_TYPE_ORDER:
            if draw(st.booleans()):
                zero = draw(st.booleans())
                ds.ser[cell_type] = SerMeasurement(
                    part_id, cell_type, 0.0 if zero else draw(_values),
                    math.inf if zero else draw(_values))
            if draw(st.booleans()):
                sigma = draw(_values | st.just(math.nan))
                ds.sweeps[cell_type] = SweepResult(
                    part_id, cell_type, draw(st.floats(0, v_dd)), sigma)
        datasets.append(ds)
    return datasets


def _summary(datasets):
    """Every value a measurement file carries, as comparable text."""
    return [(ds.part_id, ds.v_dd,
             {t: (repr(m.ser), repr(m.rel_stat_unc)) for t, m in ds.ser.items()},
             {t: (repr(s.mu), repr(s.sigma)) for t, s in ds.sweeps.items()})
            for ds in datasets]


@settings(max_examples=150, deadline=None)
@given(_part_datasets())
def test_emit_ingest_emit_is_byte_identical(tmp_path_factory, datasets):
    tmp = tmp_path_factory.mktemp("roundtrip")
    first = emit_measurements_csv(datasets, tmp / "first.csv")
    ingested = ingest_measurements_csv(first)
    assert _summary(ingested) == _summary(datasets)
    second = emit_measurements_csv(ingested, tmp / "second.csv")
    assert second.read_bytes() == first.read_bytes()
    with_bom = tmp / "bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + first.read_bytes())
    assert _summary(ingest_measurements_csv(with_bom)) == _summary(ingested)


def test_partial_dataset_supported(tmp_path):
    # a part awaiting prediction has margins but no irradiation data
    path = tmp_path / "partial.csv"
    path.write_text(HEADER + "9,SS,v_mewlvm_mV,805\n9,SS,sigma_wlvm_mV,44\n"
                             "9,,vdd_mV,1200\n")
    [ds] = ingest_measurements_csv(path)
    assert ds.pairs() == []
    assert ds.sweeps["SS"].mu == 805
    assert math.isnan(ds.sweeps["SS"].sigma) is False


def test_an_ingested_sweep_takes_the_chip_defaults(tmp_path):
    """A sweep record given only its part, type and mean is a word-line
    sweep in 10 mV steps over one 64 x 64 block at 1200 mV, with no spread
    and no histogram; ingest gives it its part's supply."""
    sweep = SweepResult("1", "SS", 800.0)
    assert math.isnan(sweep.sigma)
    assert (sweep.part_id, sweep.cell_type, sweep.mu, sweep.v_nominal,
            sweep.swept_quantity, sweep.delta_v, sweep.n_cells, sweep.histogram) == (
        "1", "SS", 800.0, 1200, "word_line", 10, 4096, None)
    path = tmp_path / "m.csv"
    path.write_text(HEADER + "9,SS,v_mewlvm_mV,805\n9,,vdd_mV,1100\n")
    [ds] = ingest_measurements_csv(path)
    ingested = ds.sweeps["SS"]
    assert math.isnan(ingested.sigma)
    assert (ingested.part_id, ingested.cell_type, ingested.mu, ingested.v_nominal,
            ingested.swept_quantity, ingested.delta_v, ingested.n_cells,
            ingested.histogram) == ("9", "SS", 805.0, 1100, "word_line", 10, 4096, None)


# --- fit serialization -----------------------------------------------------------

def test_fit_json_roundtrip(tmp_path):
    fit = calibrate_datasets(load_reference_dataset(), "linear-sum")
    path = write_fit_json(fit, tmp_path / "fit.json")
    reloaded = read_fit_json(path)
    assert reloaded == fit
    payload = json.loads(path.read_text())
    assert set(payload) == {"m", "b", "sigma_m", "sigma_b", "cov_mb", "chi2",
                            "nu", "chi2_red", "r2", "n_points", "weight_mode"}


# --- report emission --------------------------------------------------------------

def test_emit_report_manifest_and_determinism(tmp_path):
    bundle = build_report_bundle(load_reference_dataset(), "combined")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    manifest1 = emit_report(bundle, out1)
    manifest2 = emit_report(bundle, out2)
    assert manifest1 == manifest2
    assert {"fit.json", "predictions.csv", "scatter_fit.tsv"} <= set(manifest1)
    for name in manifest1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # a rerun over longer stale files replaces each with the new bytes
    for name in manifest1:
        with open(out1 / name, "ab") as fh:
            fh.write(b"stale bytes\n" * 50)
    assert emit_report(bundle, out1) == manifest1
    for name in manifest1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    scatter = (out1 / "scatter_fit.tsv").read_text().strip().splitlines()
    assert len(scatter) == 26  # header + 25 points
    predictions = (out1 / "predictions.csv").read_text().strip().splitlines()
    assert len(predictions) == 26


def test_emit_report_with_simulated_series(tmp_path):
    datasets = simulate_parts(n_parts=1, cell_types=("SS", "LS"), duration=7200,
                              ts=1800, seed=4, rows=16, cols=16)
    bundle = build_report_bundle(datasets, "combined")
    manifest = emit_report(bundle, tmp_path / "rep")
    assert "hist_wlvm_1_SS.tsv" in manifest
    assert "hist_wlvm_1_LS.tsv" in manifest
    assert "cumulative_seu_1_SS.tsv" in manifest
    hist_lines = (tmp_path / "rep" / "hist_wlvm_1_SS.tsv").read_text().splitlines()
    counts = sum(int(line.split("\t")[1]) for line in hist_lines[1:])
    assert counts == 256


def test_emit_report_empty_predictions(tmp_path):
    fit = calibrate_datasets(load_reference_dataset())
    manifest = emit_report(ReportBundle(fit), tmp_path / "rep")
    lines = (tmp_path / "rep" / "predictions.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    assert manifest == ["fit.json", "predictions.csv", "scatter_fit.tsv"]


# --- CLI ---------------------------------------------------------------------------

def test_cli_no_arguments_prints_usage(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_paper_repro_passes(capsys):
    assert cli.main(["paper-repro"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "linear-sum" in out
    # simulated-vs-measured margin comparison: SS row is 408 vs 409 mV
    ss_row = next(line for line in out.splitlines() if line.strip().startswith("SS"))
    assert "408" in ss_row and "409" in ss_row


@pytest.mark.parametrize("argv, mode, code", [
    ([], "linear-sum", 0),
    (["--weight-mode", "combined"], "combined", 1),
])
def test_cli_paper_repro_out_writes_the_fit_it_checks(argv, mode, code, tmp_path, capsys):
    """``paper-repro --out`` writes the fit of the mode it checks, the bytes
    ``calibrate`` writes for the bundled data, and writes it also when the
    checks fail."""
    repro, fit = tmp_path / "repro.json", tmp_path / "fit.json"
    assert cli.main(["paper-repro", *argv, "--out", str(repro)]) == code
    assert capsys.readouterr().out.endswith(f"wrote {repro}\n")
    assert cli.main(["calibrate", "--input", "bundled", "--weight-mode", mode,
                     "--out", str(fit)]) == 0
    assert repro.read_bytes() == fit.read_bytes()


def test_cli_calibrate_matches_library(tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    assert cli.main(["calibrate", "--input", str(REFERENCE_CSV),
                     "--weight-mode", "linear-sum",
                     "--out", str(fit_path)]) == 0
    from wlvmser.calibration import build_weighted_points
    pairs = [p for ds in load_reference_dataset() for p in ds.pairs()]
    direct = weighted_linfit(build_weighted_points(pairs, "linear-sum"))
    stored = read_fit_json(fit_path)
    assert stored.m == direct.m
    assert stored.b == direct.b
    assert stored.chi2 == direct.chi2


def test_cli_predict_reference_value(tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    from wlvmser.calibration import CalibrationFit
    write_fit_json(CalibrationFit(m=4.32, b=-0.25, sigma_m=0.20, sigma_b=0.06,
                                  cov_mb=-0.011, chi2=22.3, nu=23,
                                  chi2_red=0.97, r2=0.96, n_points=25,
                                  weight_mode="linear-sum"), fit_path)
    assert cli.main(["predict", "--fit", str(fit_path), "--v-wlvm", "0.409"]) == 0
    out = capsys.readouterr().out
    assert "1.5169" in out
    assert cli.main(["predict", "--fit", str(fit_path), "--v-wlvm", "-1e-3"]) == 0
    assert "   -         -   -0.0010   -0.2543" in capsys.readouterr().out


def test_cli_predict_two_point_fit(tmp_path, capsys):
    """A two-point fit leaves chi2_red NaN in its file and still predicts."""
    csv_path = tmp_path / "two.csv"
    csv_path.write_text(HEADER + "".join(
        f"1,{t},ser_uSEU_per_bit_s,{ser}\n1,{t},rel_stat_unc,0.02\n1,{t},v_mewlvm_mV,{mu}\n"
        for t, ser, mu in [("SS", 1.46, 791), ("LS", 2.0, 730)]))
    fit_path = tmp_path / "fit.json"
    assert cli.main(["calibrate", "--input", str(csv_path), "--out", str(fit_path)]) == 0
    assert '"chi2_red": NaN' in fit_path.read_text()
    assert cli.main(["predict", "--fit", str(fit_path), "--v-wlvm", "0.4",
                     "--out", str(tmp_path)]) == 0
    pred = predict_ser(calibrate_datasets(ingest_measurements_csv(csv_path)), 0.4)
    rows = (tmp_path / "predictions.csv").read_text().splitlines()
    assert rows[1] == f"-,-,0.4,{pred.ser!r},{pred.sigma!r},0"


def test_cli_predict_from_margins_csv(tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    cli.main(["calibrate", "--input", "bundled", "--out", str(fit_path)])
    capsys.readouterr()
    margins = tmp_path / "margins.csv"
    margins.write_text(HEADER + "7,SS,v_mewlvm_mV,800\n7,,vdd_mV,1200\n")
    assert cli.main(["predict", "--fit", str(fit_path),
                     "--margins", str(margins), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "predictions.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("7,SS,0.4,")


def test_cli_simulate_reproducible(tmp_path, capsys):
    args = ["simulate", "--parts", "1", "--types", "SS", "--duration", "7200",
            "--ts", "1800", "--seed", "11"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    # -2.5e-1 is the default intercept, read as a number and not as an option
    assert cli.main(args + ["--law-b", "-2.5e-1", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "measurements.csv").read_bytes()
    b = (tmp_path / "b" / "measurements.csv").read_bytes()
    assert a == b


def test_cli_sweep_and_ser_test_smoke(tmp_path, capsys):
    assert cli.main(["sweep", "--kind", "wlvm", "--cell-type", "LS",
                     "--seed", "2", "--out", str(tmp_path / "sweep.csv")]) == 0
    out = capsys.readouterr().out
    assert "word_line sweep" in out
    assert cli.main(["sweep", "--part-offset", "-1e-3"]) == 0
    assert "margin = 399.46 mV" in capsys.readouterr().out
    assert (tmp_path / "sweep.csv").exists()
    assert cli.main(["ser-test", "--rate", "1.46", "--duration", "7200",
                     "--seed", "2", "--out", str(tmp_path / "ser.csv")]) == 0
    assert (tmp_path / "ser.csv").exists()


def test_cli_shared_seed_keeps_each_commands_default(capsys):
    """``--seed`` is one option shared by four commands: ser-test's default of
    0 stays its own, and the others still forward only a seed given."""
    parser = cli.build_parser()
    for command in ("simulate", "sweep", "report"):
        assert "seed" not in parser.parse_args([command])
    assert cli.main(["ser-test", "--duration", "7200"]) == 0
    left_out = capsys.readouterr().out
    assert cli.main(["ser-test", "--duration", "7200", "--seed", "0"]) == 0
    assert capsys.readouterr().out == left_out


def test_cli_sweep_of_a_supply_far_above_its_cells(tmp_path, capsys):
    """A supply of 10**12 mV and thresholds spread over about 10**12 mV
    are swept per cell: nothing is sized by a voltage."""
    model = json.loads((Path(wlvmser.__file__).parent / "data" /
                        "variation_model.json").read_text())
    model["v_dd_nominal_mV"] = 10**12
    for params in model["cell_types"].values():
        params.update(mu_vwlmin_mV=5 * 10**11, sigma_vwlmin_mV=10**11)
    (tmp_path / "wide.json").write_text(json.dumps(model))
    assert cli.main(["sweep", "--kind", "wlvm", "--model", str(tmp_path / "wide.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "word_line sweep, 4096 cells, delta_v = 10 mV:",
        "  mu = 498387094548.40 mV, sigma = 99767762503.59 mV, se_mean = 1558871289.119 mV",
        "  margin = 501612905451.60 mV at v_dd = 1000000000000 mV"]


@pytest.mark.parametrize("argv", [["ser-test", "--vdd", "700", "--duration", "3600"],
                                  ["simulate", "--vdd", "1080", "--parts", "1",
                                   "--duration", "3600"],
                                  ["sweep", "--kind", "read", "--vdd", "700"]])
def test_cli_inoperable_supply_is_one_error_line(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "not operable" in err[0]


@pytest.mark.parametrize("argv, cause", [
    (["ser-test", "--rate", "1e9"], "budget of"),
    (["ser-test", "--rate", "nan"], "true_seu_rate"),
    (["simulate", "--parts", "0"], "n_parts must be >= 1"),
    (["simulate", "--vdd", "1080", "--parts", "2", "--duration", "3600"], "part 1 SL: "),
    (["ser-test", "--ts", "1e-9", "--rate", "1"], "4.32e+14 sampling windows"),
    (["ser-test", "--ts", "0.01"], "4.32e+07 sampling windows"),
    (["calibrate", "--input", "{tmp}"], "Is a directory"),
    (["predict", "--fit", "{tmp}", "--v-wlvm", "0.4"], "Is a directory"),
    (["calibrate", "--out", "{tmp}"], "Is a directory"),
    (["predict", "--fit", "{tmp}/fit.json", "--v-wlvm", "nan"],
     "v_wlvm must be a finite margin in volts, got nan"),
    (["predict", "--fit", "{tmp}/fit.json", "--v-wlvm", "inf"],
     "v_wlvm must be a finite margin in volts, got inf"),
    (["calibrate", "--geom-unc", "nan"], "--geom-unc (rel_geom_unc) must be finite and >= 0, got nan"),
    (["calibrate", "--geom-unc", "inf"], "--geom-unc (rel_geom_unc) must be finite and >= 0, got inf"),
    (["calibrate", "--geom-unc", "-0.001", "--weight-mode", "linear-sum"],
     "--geom-unc (rel_geom_unc) must be finite and >= 0, got -0.001"),
    (["predict", "--fit", "{tmp}/no-b.json", "--v-wlvm", "0.4"], "no-b.json: missing key 'b'"),
    (["simulate", "--model", "{tmp}/no-sigma.json"],
     "no-sigma.json: missing key 'sigma_vwlmin_mV'"),
    (["simulate", "--model", "{tmp}/list.json"], "list.json: list indices must be"),
    (["simulate", "--types", "SS,SS"], "--types (cell_types) names 'SS' twice"),
    (["simulate", "--types", "SS,XX"],
     "--types (cell_types) names unknown cell type 'XX'; known: SS, SM, SL, MM, LS"),
    (["simulate", "--geom-spread", "nan"],
     "--geom-spread (geom_spread) must be finite and within [0, 0.1], got nan"),
    (["simulate", "--geom-spread", "5"],
     "--geom-spread (geom_spread) must be finite and within [0, 0.1], got 5"),
    (["report", "--simulate", "--geom-unc", "nan", "--input", "nosuch.csv"],
     "report --simulate ignores --input"),
    (["report", "--simulate", "--geom-unc", "0.03"], "report --simulate ignores --geom-unc"),
    (["report", "--seed", "0"], "report without --simulate ignores --seed"),
    (["report", "--input", "bundled", "--model", "{tmp}/list.json"],
     "report without --simulate ignores --model"),
    (["calibrate", "--input", "{tmp}/zero.csv"],
     "need at least 2 points, got 1 after leaving out 2 zero-count SER points"),
    (["report", "--input", "{tmp}/zero.csv"],
     "need at least 2 points, got 1 after leaving out 2 zero-count SER points"),
    (["predict", "--fit", "{tmp}/bad-m-nan.json", "--v-wlvm", "0.4"],
     "bad-m-nan.json: m must be finite, got nan"),
    (["predict", "--fit", "{tmp}/bad-cov_mb-inf.json", "--v-wlvm", "0.4"],
     "bad-cov_mb-inf.json: cov_mb must be finite, got inf"),
    (["predict", "--fit", "{tmp}/bad-chi2_red-nan.json", "--v-wlvm", "0.4"],
     "bad-chi2_red-nan.json: chi2_red must be finite, got nan"),
    (["predict", "--fit", "{tmp}/bad-sigma_m--1.json", "--v-wlvm", "0.4"],
     "bad-sigma_m--1.json: sigma_m must be >= 0, got -1"),
    (["predict", "--fit", "{tmp}/bad-m-True.json", "--v-wlvm", "0.4"],
     "bad-m-True.json: m must be a number, got True"),
    (["predict", "--fit", "{tmp}/bad-b-0.25.json", "--v-wlvm", "0.4"],
     "bad-b-0.25.json: b must be a number, got '0.25'"),
    (["predict", "--fit", "{tmp}/bad-n_points-2.7.json", "--v-wlvm", "0.4"],
     "bad-n_points-2.7.json: n_points must be an integer, got 2.7"),
    (["predict", "--fit", "{tmp}/list.json", "--v-wlvm", "0.4"], "list.json: list indices must be"),
    (["predict", "--fit", "{tmp}/fit.json", "--v-wlvm", "1e308"],
     "the prediction at v_wlvm = 1e+308 V is not finite"),
    (["sweep", "--vdd", "100000000000000000000"],
     "--vdd (v_dd) must be a whole number of mV within (0, 2400], "
     "got 100000000000000000000"),
    (["sweep", "--vdd", "0"], "--vdd (v_dd) must be a whole number of mV within (0, 2400], got 0"),
    (["sweep", "--vdd", "2401"],
     "--vdd (v_dd) must be a whole number of mV within (0, 2400], got 2401"),
    (["sweep", "--part-offset", "nan"], "--part-offset (part_offset) must be finite, got nan"),
    (["simulate", "--model", "{tmp}/nan-sigma-part.json"],
     "nan-sigma-part.json: sigma_part_mV must be finite and >= 0, got nan"),
    (["simulate", "--law-m", "nan"], "--law-m (m) must be finite, got nan"),
    (["simulate", "--law-m=-inf"], "--law-m (m) must be finite, got -inf"),
    (["simulate", "--law-b", "nan"], "--law-b (b) must be finite, got nan"),
    (["simulate", "--law-b", "inf"], "--law-b (b) must be finite, got inf"),
    (["sweep", "--part-offset", "-1e400"], "--part-offset (part_offset) must be finite, got -inf"),
    (["simulate", "--law-b", "-1e400"], "--law-b (b) must be finite, got -inf"),
    (["predict", "--fit", "{tmp}/fit.json", "--v-wlvm", "-1e400"],
     "v_wlvm must be a finite margin in volts, got -inf"),
    (["ser-test", "--rate", "-1e-3"], "--rate (true_seu_rate) must be one number >= 0"),
    (["simulate", "--parts", "100000000000"],
     "--parts (n_parts) 100000000000 x 5 cell types x 240 windows keep more than the "
     "budget of 16777216 window counts"),
    (["simulate", "--model", "{tmp}/vdd-1200.7.json"],
     "vdd-1200.7.json: v_dd_nominal_mV must be a positive whole number of mV, got 1200.7"),
    (["simulate", "--model", "{tmp}/vdd-'1200'.json"],
     "vdd-'1200'.json: v_dd_nominal_mV must be a positive whole number of mV, got '1200'"),
    (["simulate", "--model", "{tmp}/vdd-0.5.json"],
     "vdd-0.5.json: v_dd_nominal_mV must be a positive whole number of mV, got 0.5"),
    (["predict", "--fit", "{tmp}/fit.json"],
     "predict needs --v-wlvm, --margins with margin rows, or both"),
    (["simulate", "--model", "{tmp}/mu-'791'.json"],
     "mu-'791'.json: mu_vwlmin_mV must be a number, got '791'"),
    (["simulate", "--model", "{tmp}/sigma-part-True.json"],
     "sigma-part-True.json: sigma_part_mV must be a number, got True"),
    (["simulate", "--model", "{tmp}/type-XX.json"],
     "type-XX.json: unknown cell type 'XX'; known: SS, SM, SL, MM, LS"),
    (["simulate", "--ts", "0.01", "--parts", "1", "--types", "SS"],
     "4.32e+07 sampling windows of 0.01 s over 432000 s, more than the budget of "
     "16777216 windows; raise --ts or shorten --duration"),
    (["ser-test", "--ts", "0"], "--ts (ts) must be positive, got 0"),
    (["simulate", "--duration", "600"],
     "--duration (duration) must be finite and cover at least one sampling period "
     "of 1800 s, got 600"),
    (["sweep", "--delta-v", "0"], "--delta-v (delta_v) must be within (0, 1200], got 0"),
    (["simulate", "--parts", "-1"], "--parts: n_parts must be >= 1, got -1"),
    (["sweep", "--model", "{tmp}/vdd-10**30.json"],
     "vdd-10**30.json: v_dd_nominal_mV must be at most 1e+18 mV, got 1e+30"),
    (["simulate", "--model", "{tmp}/vdd-10**400.json"],
     "vdd-10**400.json: v_dd_nominal_mV must be at most 1e+18 mV, got inf"),
    (["simulate", "--vdd", "0"],
     "--vdd (v_dd) must be a whole number of mV within (0, 2400], got 0"),
    (["simulate", "--seed", "-1"], "--seed (seed) must be a non-negative integer, got -1"),
    (["ser-test", "--seed", "-2"], "--seed (seed) must be a non-negative integer, got -2"),
    (["sweep", "--kind", "hold", "--seed", "-3"],
     "--seed (seed) must be a non-negative integer, got -3"),
    (["report", "--simulate", "--seed", "-4"],
     "--seed (seed) must be a non-negative integer, got -4"),
    (["calibrate", "--input", "{tmp}/weight-rel-0.csv", "--weight-mode", "stat-only"],
     "part 1 SS: SER 1.46 with relative uncertainty 0 (stat-only weights) gives sigma 0 "
     "and no finite positive fit weight"),
    (["calibrate", "--input", "{tmp}/weight-rel-0.csv", "--geom-unc", "0"],
     "part 1 SS: SER 1.46 with relative uncertainty 0 (combined weights) gives sigma 0 "),
    (["report", "--input", "{tmp}/weight-ser-1e-200.csv"],
     "part 1 SS: SER 1e-200 with relative uncertainty 0.0360555 (combined weights) "
     "gives sigma 3.60555e-202 "),
    (["calibrate", "--input", "{tmp}/weight-ser-1e308.csv", "--weight-mode", "linear-sum"],
     "part 1 SS: SER 1e+308 with relative uncertainty 2.03 (linear-sum weights) "
     "gives sigma inf "),
    (["calibrate", "--input", "{tmp}/utf-16.csv"],
     "/utf-16.csv: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["predict", "--fit", "{tmp}/utf-16.json", "--v-wlvm", "0.4"],
     "/utf-16.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["simulate", "--model", "{tmp}/utf-16.json"],
     "/utf-16.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_cli_bad_input_is_one_error_line(argv, cause, tmp_path, capsys):
    fit = calibrate_datasets(load_reference_dataset())
    write_fit_json(fit, tmp_path / "fit.json")
    payload = json.loads((tmp_path / "fit.json").read_text())
    for key, value in [("m", math.nan), ("cov_mb", math.inf), ("chi2_red", math.nan),
                       ("sigma_m", -1), ("m", True), ("b", "0.25"), ("n_points", 2.7)]:
        (tmp_path / f"bad-{key}-{value}.json").write_text(json.dumps({**payload, key: value}))
    del payload["b"]
    (tmp_path / "no-b.json").write_text(json.dumps(payload))
    model = {"cell_types": {"SS": {"mu_vwlmin_mV": 791, "mu_hold_mV": 450,
                                   "sigma_hold_mV": 30, "mu_read_mV": 650,
                                   "sigma_read_mV": 30}}}
    (tmp_path / "no-sigma.json").write_text(json.dumps(model))
    model["cell_types"]["SS"]["sigma_vwlmin_mV"] = 44
    model["sigma_part_mV"] = math.nan
    (tmp_path / "nan-sigma-part.json").write_text(json.dumps(model))
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "utf-16.csv").write_text(HEADER, encoding="utf-16")
    (tmp_path / "utf-16.json").write_text("{}", encoding="utf-16")
    bundled = json.loads((Path(wlvmser.__file__).parent / "data" /
                          "variation_model.json").read_text())
    for value in (1200.7, "1200", 0.5):
        (tmp_path / f"vdd-{value!r}.json").write_text(json.dumps(
            {**bundled, "v_dd_nominal_mV": value}))
    for power in (30, 400):
        (tmp_path / f"vdd-10**{power}.json").write_text(json.dumps(
            {**bundled, "v_dd_nominal_mV": 10**power}))
    types = bundled["cell_types"]
    for name, payload in [
            ("mu-'791'", {**bundled, "cell_types": {
                **types, "SS": {**types["SS"], "mu_vwlmin_mV": "791"}}}),
            ("sigma-part-True", {**bundled, "sigma_part_mV": True}),
            ("type-XX", {**bundled, "cell_types": {**types, "XX": types["SS"]}})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    (tmp_path / "zero.csv").write_text(HEADER + "".join(
        f"1,{t},ser_uSEU_per_bit_s,{ser}\n1,{t},rel_stat_unc,{rel}\n1,{t},v_mewlvm_mV,{mu}\n"
        for t, ser, rel, mu in [("SS", 0, "inf", 791), ("SM", 1.2, 0.02, 850),
                                ("LS", 0, "inf", 730)]))
    for name, ser, rel in [("rel-0", 1.46, 0), ("ser-1e-200", "1e-200", 0.02),
                           ("ser-1e308", "1e308", 2)]:
        (tmp_path / f"weight-{name}.csv").write_text(HEADER + "".join(
            f"1,{t},ser_uSEU_per_bit_s,{s}\n1,{t},rel_stat_unc,{r}\n1,{t},v_mewlvm_mV,{mu}\n"
            for t, s, r, mu in [("SS", ser, rel, 791), ("SM", 1.2, 0.02, 850),
                                ("LS", 1.1, 0.02, 730)]))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert cause in err[0]
    if argv[0] == "predict":
        assert captured.out == ""


def test_cli_simulate_budget_counts_each_blocks_records(tmp_path, capsys, monkeypatch):
    """Three million parts of one window each keep about 47 GB of records
    besides their 15 M window counts, and are refused before any draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("simulate_parts drew a block of a batch over its budget")
    monkeypatch.setattr(pipeline, "sample_array", no_draw)
    argv = ["simulate", "--duration", "1800", "--parts", "3000000", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --parts (n_parts) 3000000 x 5 cell types x 1 windows keep more than the "
        "budget of 16777216 window counts, each block's records counting as 1338 more"]


def test_cli_simulate_budget_counts_the_sweep_histogram(tmp_path, capsys, monkeypatch):
    """At a 1 mV step a block's histogram can have 1201 bins, so it is charged
    10 window counts a bin: a thousand parts, which a flat charge per block
    admitted, are refused before any draw; a step of 0 mV is refused there
    too, not after the first block's SER test."""
    def no_draw(*args, **kwargs):
        raise AssertionError("simulate_parts drew a block of a batch it refuses")
    monkeypatch.setattr(pipeline, "sample_array", no_draw)
    for delta_v, message in [
            ("1", "error: --parts (n_parts) 1000 x 5 cell types x 1 windows keep more "
                  "than the budget of 16777216 window counts, each block's records "
                  "counting as 12138 more"),
            ("0", "error: --delta-v (delta_v) must be within (0, 1200], got 0")]:
        argv = ["simulate", "--duration", "1800", "--parts", "1000", "--delta-v", delta_v,
                "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [message]


def test_cli_predict_margins_writes_the_rows_of_report(tmp_path, capsys):
    """``predict --margins`` and ``report`` list the same blocks in the same
    order, the parts' and then ``CELL_TYPE_ORDER``, with the same bytes."""
    fit = tmp_path / "fit.json"
    assert cli.main(["calibrate", "--input", "bundled", "--out", str(fit)]) == 0
    assert cli.main(["predict", "--fit", str(fit), "--margins", str(REFERENCE_CSV),
                     "--out", str(tmp_path / "d")]) == 0
    assert cli.main(["report", "--input", "bundled", "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    predicted = (tmp_path / "d" / "predictions.csv").read_bytes()
    assert predicted == (tmp_path / "r" / "predictions.csv").read_bytes()
    assert [row.split(",")[1] for row in predicted.decode().splitlines()[1:6]] == list(
        CELL_TYPE_ORDER)


def test_cli_fits_what_simulate_writes_with_zero_counts(tmp_path, capsys):
    """A simulated block that counted no upset is left out of the fit with
    one note naming it; with no point left the fit is one error line."""
    sim = ["simulate", "--parts", "2", "--duration", "36000"]
    assert cli.main(sim + ["--law-b", "-3", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert cli.main(["calibrate", "--input", str(tmp_path / "a" / "measurements.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: need at least 2 points, got 0 after leaving out 10 zero-count SER points"]

    assert cli.main(sim + ["--law-b", "-1.6", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "b" / "measurements.csv"
    left_out = "part 1 SM, part 1 SL, part 1 MM, part 2 SM, part 2 SL, part 2 MM"
    note = f"note: the fit leaves out 6 zero-count SER points: {left_out}"
    assert cli.main(["calibrate", "--input", str(csv_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [note]
    assert "points   = 4, weights = combined" in captured.out
    assert cli.main(["report", "--input", str(csv_path), "--out", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().err.splitlines() == [note]
    scatter = (tmp_path / "r" / "scatter_fit.tsv").read_text().splitlines()
    assert [row.split("\t")[:2] for row in scatter[1:]] == [
        ["1", "SS"], ["1", "LS"], ["2", "SS"], ["2", "LS"]]
    predictions = (tmp_path / "r" / "predictions.csv").read_text().splitlines()
    assert len(predictions) == 1 + 10


def test_cli_report_bundled(tmp_path, capsys):
    assert cli.main(["report", "--input", "bundled",
                     "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "scatter_fit.tsv" in out
    assert (tmp_path / "rep" / "fit.json").exists()


def _run_cli_process(argv, **kw):
    """Run ``python -m wlvmser argv`` in a child process on this source tree."""
    src = str(Path(wlvmser.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "wlvmser", *argv], text=True,
                          env=env, check=False, **kw)


def test_cli_sweep_log_over_budget_is_one_error_line(tmp_path, monkeypatch):
    """A hold sweep down from a supply of 10**18 mV in 10 mV steps would log
    about 10**17 rows.  The log is refused before a row is built: a child
    capped at 3 GB of address space ends in one error line and no file."""
    model = json.loads((Path(wlvmser.__file__).parent / "data" /
                        "variation_model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps({**model, "v_dd_nominal_mV": 1e18}))
    out = tmp_path / "sweep.csv"

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    proc = _run_cli_process(["sweep", "--kind", "hold", "--model", str(tmp_path / "model.json"),
                             "--out", str(out)], capture_output=True,
                            preexec_fn=cap_address_space)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a sweep log of ")
    assert err[0].endswith(" steps of 10 mV down from a supply of 1000000000000000000 mV "
                           "is more than the budget of 16777216 rows; raise --delta-v or "
                           "lower the supply")
    assert not out.exists()


def test_cli_calibrate_out_dev_stdout_through_a_pipe():
    """``--out /dev/stdout`` writes the fit to a pipe that the caller reads."""
    proc = _run_cli_process(["calibrate", "--input", "bundled", "--out", "/dev/stdout"],
                            capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    payload, _ = json.JSONDecoder().raw_decode(proc.stdout, proc.stdout.index("{"))
    assert CalibrationFit.from_dict(payload) == calibrate_datasets(load_reference_dataset())


@pytest.mark.parametrize("argv, out", [
    (["calibrate", "--input", "bundled"], "/dev/stdout"),
    (["paper-repro"], "/dev/stdout"),
    (["ser-test", "--duration", "3600"], "{file}"),
    (["sweep"], "{file}"),
])
def test_cli_out_naming_redirected_stdout_is_one_error_line(argv, out, tmp_path):
    """An ``--out`` that is the regular file stdout is redirected to would
    be written over the summary through a second open at offset 0: it is
    refused before anything is printed."""
    path = tmp_path / "stdout.txt"
    out = out.format(file=path)
    with open(path, "w") as stdout:
        proc = _run_cli_process(argv + ["--out", out], stdout=stdout,
                                stderr=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: --out {out} is the file stdout is redirected to"]
    assert path.read_text() == ""


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["calibrate", "--input", str(tmp_path / "missing.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    assert cli.main(["calibrate", "--input", str(bad)]) == 1
    assert cli.main(["predict", "--fit", str(tmp_path / "nofit.json")]) == 1
