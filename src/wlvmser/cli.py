"""Command-line interface.

Subcommands:

* ``simulate``    build virtual parts, run SER tests + margin sweeps,
                  write a measurement CSV
* ``ser-test``    one accelerated SER test on one block
* ``sweep``       one margin/hold/read sweep on one block
* ``calibrate``   measurement CSV -> weighted line fit (JSON)
* ``predict``     fit JSON + margins -> predicted SER, the rows of
                  ``report``'s predictions.csv for a measurement file
* ``paper-repro`` re-fit the bundled reference dataset and check the
                  result against its published regression values
* ``report``      full report bundle (fit, predictions, plot series)

All randomized subcommands accept ``--seed`` and are reproducible.  An
option left out takes the library default: handlers forward only the
options given (``_given``).  ``-1e-3`` is read as a number.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import io as wio
from . import lazy
from .calibration import WEIGHT_MODES, predict_ser
from .errors import ConfigurationError, ProtocolError
from .pipeline import (LinearSerLaw, build_report_bundle, calibrate_datasets,
                       simulate_parts, zero_count_blocks)
from .records import word_line_voltage_margin
from .refdata import (CELL_TYPE_ORDER, PAPER_MATCHING_WEIGHT_MODE,
                      PUBLISHED_FIT, REFERENCE_CSV, REPRO_WINDOWS,
                      SIMULATED_VWL_MIN_MV, load_reference_dataset)

# bound by ``_load_model``, which every simulating command calls first, so
# that the commands that fit and predict start without numpy
__getattr__ = lazy.module_getattr(globals())


def _given(args, *names) -> dict:
    """The options among ``names`` that the user gave, by parameter name."""
    return {name: getattr(args, name) for name in names if name in args}


def _load_model(args) -> VariationModel:
    lazy.bind(globals())
    return VariationModel.from_json(args.model) if "model" in args else VariationModel.default()


def _load_datasets(args):
    source = getattr(args, "input", "bundled")
    return wio.ingest_measurements_csv(REFERENCE_CSV if source == "bundled" else source,
                                       **_given(args, "rel_geom_unc"))


def _note_left_out(datasets):
    """Name on stderr the zero-count SER points the fit left out."""
    left_out = zero_count_blocks(datasets)
    if left_out:
        print(f"note: the fit leaves out {len(left_out)} zero-count SER "
              f"points: {', '.join(left_out)}", file=sys.stderr)


def _print_fit(fit, indent: str = "  "):
    print(f"{indent}m        = {fit.m:.4f} +- {fit.sigma_m:.4f}  uSEU/(bit*s*V)")
    print(f"{indent}b        = {fit.b:+.4f} +- {fit.sigma_b:.4f}  uSEU/(bit*s)")
    print(f"{indent}chi2     = {fit.chi2:.3f}  (nu = {fit.nu}, chi2_red = {fit.chi2_red:.3f})")
    print(f"{indent}R2       = {fit.r2:.4f}")
    print(f"{indent}points   = {fit.n_points}, weights = {fit.weight_mode}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    datasets = simulate_parts(
        model=_load_model(args), law=LinearSerLaw(**_given(args, "m", "b")),
        **_given(args, "n_parts", "cell_types", "duration", "ts", "delta_v", "seed",
                 "v_dd", "geom_spread"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = wio.emit_measurements_csv(datasets, out_dir / "measurements.csv")
    print(f"simulated {len(datasets)} parts x {len(datasets[0].cell_types())} blocks")
    for ds in datasets:
        for cell_type in ds.cell_types():
            meas = ds.ser[cell_type]
            sweep = ds.sweeps[cell_type]
            print(f"  part {ds.part_id} {cell_type}: ser = {meas.ser:.3f} "
                  f"(n_tot = {meas.n_tot}), mu = {sweep.mu:.1f} mV, "
                  f"sigma = {sweep.sigma:.1f} mV")
    if "emit_logs" in args:
        for ds in datasets:
            for cell_type in ds.cell_types():
                wio.write_ser_log(ds.ser[cell_type],
                                  out_dir / f"ser_log_{ds.part_id}_{cell_type}.csv")
                wio.write_sweep_log(ds.sweeps[cell_type],
                                    out_dir / f"sweep_log_{ds.part_id}_{cell_type}.csv")
    print(f"wrote {csv_path}")
    return 0


def _cmd_ser_test(args) -> int:
    model = _load_model(args)
    array = sample_array(args.cell_type, model, seed=args.seed,
                         true_seu_rate=args.rate, **_given(args, "v_dd"))
    meas = run_ser_test(array, AlphaSource(), seed=args.seed + 1,
                        **_given(args, "ts", "duration"))
    print(f"part {meas.part_id} {meas.cell_type}: "
          f"ser = {meas.ser:.4f} uSEU/(bit*s), n_tot = {meas.n_tot}, "
          f"windows = {meas.n_windows} x {meas.ts:.0f} s, "
          f"rel_stat = {meas.rel_stat_unc:.4f}")
    if "out" in args:
        wio.write_ser_log(meas, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    model = _load_model(args)
    array = sample_array(args.cell_type, model, **_given(args, "part_offset", "seed", "v_dd"))
    runner = {"wlvm": run_wlvm_sweep, "hold": run_hold_sweep,
              "read": run_read_sweep}[args.kind]
    result = runner(array, **_given(args, "delta_v"))
    print(f"{result.swept_quantity} sweep, {result.n_cells} cells, "
          f"delta_v = {result.delta_v} mV:")
    print(f"  mu = {result.mu:.2f} mV, sigma = {result.sigma:.2f} mV, "
          f"se_mean = {result.se_mean:.3f} mV")
    if args.kind == "wlvm":
        margin = word_line_voltage_margin(array.v_dd, result.mu)
        print(f"  margin = {margin:.2f} mV at v_dd = {array.v_dd} mV")
    if "out" in args:
        wio.write_sweep_log(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    datasets = _load_datasets(args)
    fit = calibrate_datasets(datasets, **_given(args, "weight_mode"))
    _note_left_out(datasets)
    n_pairs = sum(len(ds.pairs()) for ds in datasets)
    print(f"calibrated {n_pairs} (margin, SER) pairs from {len(datasets)} parts:")
    _print_fit(fit)
    if "out" in args:
        wio.write_fit_json(fit, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    fit = wio.read_fit_json(args.fit)
    predictions = []
    if "v_wlvm" in args:
        predictions.append(("-", "-", args.v_wlvm, predict_ser(fit, args.v_wlvm)))
    if "margins" in args:
        predictions += wio.prediction_rows(fit, wio.ingest_measurements_csv(args.margins))
    if not predictions:
        raise ConfigurationError("predict needs --v-wlvm, --margins with margin rows, or both")
    print("part cell_type  v_wlvm_V  ser_pred  sigma")
    for part_id, cell_type, margin_v, pred in predictions:
        flag = "  (below physical floor)" if pred.below_physical_floor else ""
        print(f"{part_id:>4} {cell_type:>9}  {margin_v:8.4f}  "
              f"{pred.ser:8.4f}  {pred.sigma:.4f}{flag}")
    if "out" in args:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        wio.write_predictions_csv(predictions, out_dir / "predictions.csv")
        print(f"wrote {out_dir / 'predictions.csv'}")
    return 0


def _cmd_paper_repro(args) -> int:
    datasets = load_reference_dataset()
    part1 = datasets[0]
    print("margins at nominal supply, simulated thresholds vs part 1 measurements:")
    print("  type   simulated (mV)   measured (mV)")
    for cell_type in CELL_TYPE_ORDER:
        simulated = part1.v_dd - SIMULATED_VWL_MIN_MV[cell_type]
        measured = word_line_voltage_margin(part1.v_dd, part1.sweeps[cell_type].mu)
        print(f"  {cell_type:<4} {simulated:>11} {measured:>15.0f}")
    print()
    print("weighted line fits of the bundled reference dataset "
          f"({sum(len(d.pairs()) for d in datasets)} points):")
    fits = {}
    for mode in WEIGHT_MODES:
        fits[mode] = calibrate_datasets(datasets, mode)
        f = fits[mode]
        print(f"  {mode:<10}  m = {f.m:.4f} +- {f.sigma_m:.4f}   "
              f"b = {f.b:+.4f} +- {f.sigma_b:.4f}   chi2 = {f.chi2:7.2f}   "
              f"chi2_red = {f.chi2_red:.3f}   R2 = {f.r2:.4f}")
    _note_left_out(datasets)
    pub = PUBLISHED_FIT
    print(f"  published   m = {pub['m']:.4f} +- {pub['sigma_m']:.4f}   "
          f"b = {pub['b']:+.4f} +- {pub['sigma_b']:.4f}   "
          f"chi2 = {pub['chi2']:7.2f}   chi2_red = {pub['chi2_red']:.3f}   "
          f"R2 = {pub['r2']:.4f}")

    mode = args.weight_mode
    fit = fits[mode]
    print(f"\nchecks ({mode} weights):")
    checks = [
        ("m", fit.m, REPRO_WINDOWS["m"]),
        ("b", fit.b, REPRO_WINDOWS["b"]),
        ("nu", fit.nu, REPRO_WINDOWS["nu"]),
        ("chi2_red", fit.chi2_red, REPRO_WINDOWS["chi2_red"]),
        ("R2", fit.r2, REPRO_WINDOWS["r2"]),
    ]
    all_ok = True
    for name, value, (lo, hi) in checks:
        ok = lo <= value <= hi
        all_ok &= ok
        target = f"[{lo:g}, {hi:g}]" if hi != float("inf") else f">= {lo:g}"
        delta = value - pub[name.lower()]
        print(f"  {name:<8} = {value:8.4f}  target {target:<16} "
              f"delta vs published = {delta:+.4f}  {'PASS' if ok else 'FAIL'}")
    print(f"\noverall: {'PASS' if all_ok else 'FAIL'}")
    if "out" in args:
        wio.write_fit_json(fit, args.out)
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


def _refuse_stdout_file(out: str):
    """Reject an ``--out`` naming the regular file stdout is redirected to,
    which a second open at offset 0 would write over."""
    try:
        target, stdout = os.stat(out), os.fstat(sys.stdout.fileno())
    except OSError:  # no such file yet, or stdout has no descriptor
        return
    if os.path.samestat(target, stdout) and os.path.isfile(out):
        raise ConfigurationError(f"--out {out} is the file stdout is redirected to")


def _refuse_options(args, mode: str, options: dict):
    """Reject the ``options`` (option: dest) given that ``mode`` does not read."""
    for option, dest in options.items():
        if dest in args:
            raise ConfigurationError(f"{mode} ignores {option}; leave it out")


def _cmd_report(args) -> int:
    if "simulate" in args:
        _refuse_options(args, "report --simulate",
                        {"--input": "input", "--geom-unc": "rel_geom_unc"})
        datasets = simulate_parts(model=_load_model(args), **_given(args, "seed"))
    else:
        _refuse_options(args, "report without --simulate",
                        {"--seed": "seed", "--model": "model"})
        datasets = _load_datasets(args)
    bundle = build_report_bundle(datasets, **_given(args, "weight_mode"))
    _note_left_out(datasets)
    manifest = wio.emit_report(bundle, args.out)
    print(f"fit ({bundle.fit.weight_mode} weights):")
    _print_fit(bundle.fit)
    print(f"report written to {args.out}:")
    for name in manifest:
        print(f"  {name}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Options are absent unless given or defaulted, and ``-1e-3`` is a number,
    as in Python 3.13's argparse (3.11 takes it for an option)."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wlvmser",
        description="Virtual SRAM test chip: estimate alpha-SER from "
                    "word-line voltage-margin measurements.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_model(p):
        p.add_argument("--model", help="variation-model JSON (default: bundled)")

    p = sub.add_parser("simulate", help="simulate parts and measure them")
    add_model(p)
    p.add_argument("--parts", dest="n_parts", type=int)
    p.add_argument("--types", dest="cell_types", type=lambda text: text.split(","),
                   help="comma-separated cell types")
    p.add_argument("--law-m", dest="m", type=float, help="ground-truth slope, uSEU/(bit*s*V)")
    p.add_argument("--law-b", dest="b", type=float, help="ground-truth intercept, uSEU/(bit*s)")
    p.add_argument("--duration", type=float, help="irradiation time per block, s")
    p.add_argument("--ts", type=float, help="sampling period, s")
    p.add_argument("--delta-v", type=int, help="sweep step, mV")
    p.add_argument("--vdd", dest="v_dd", type=int, help="supply, mV")
    p.add_argument("--geom-spread", type=float,
                   help="half-width of the per-part flux factor spread")
    p.add_argument("--seed", type=int)
    p.add_argument("--emit-logs", action="store_true")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ser-test", help="one accelerated SER test")
    add_model(p)
    p.add_argument("--cell-type", default="SS", choices=list(CELL_TYPE_ORDER))
    p.add_argument("--rate", type=float, default=1.46, help="true upset rate, uSEU/(bit*s)")
    p.add_argument("--ts", type=float, help="sampling period, s")
    p.add_argument("--duration", type=float, help="irradiation time, s")
    p.add_argument("--vdd", dest="v_dd", type=int, help="supply, mV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="window log CSV")
    p.set_defaults(func=_cmd_ser_test)

    p = sub.add_parser("sweep", help="one voltage sweep")
    add_model(p)
    p.add_argument("--kind", default="wlvm", choices=["wlvm", "hold", "read"])
    p.add_argument("--cell-type", default="SS", choices=list(CELL_TYPE_ORDER))
    p.add_argument("--delta-v", type=int, help="sweep step, mV")
    p.add_argument("--part-offset", type=float, help="part-level mean shift, mV")
    p.add_argument("--vdd", dest="v_dd", type=int, help="supply, mV")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="sweep log CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="fit a measurement CSV")
    p.add_argument("--input", help="measurement CSV path, or 'bundled' (default)")
    p.add_argument("--weight-mode", choices=list(WEIGHT_MODES))
    p.add_argument("--geom-unc", dest="rel_geom_unc", type=float)
    p.add_argument("--out", help="fit JSON path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("predict", help="predict SER from margins")
    p.add_argument("--fit", required=True, help="fit JSON path")
    p.add_argument("--v-wlvm", type=float, help="single margin value, volts")
    p.add_argument("--margins", help="measurement CSV with margin rows")
    p.add_argument("--out", help="directory for predictions.csv")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("paper-repro", help="reproduce the published reference regression")
    p.add_argument("--weight-mode", choices=list(WEIGHT_MODES), default=PAPER_MATCHING_WEIGHT_MODE,
                   help="mode to check")
    p.add_argument("--out", help="fit JSON path")
    p.set_defaults(func=_cmd_paper_repro)

    # --input and --geom-unc serve only a measurement file, --model and
    # --seed only --simulate
    p = sub.add_parser("report", help="emit fit + predictions + plot data")
    add_model(p)
    p.add_argument("--input", help="measurement CSV path, or 'bundled' (default)")
    p.add_argument("--simulate", action="store_true",
                   help="build the report from a fresh simulation instead")
    p.add_argument("--weight-mode", choices=list(WEIGHT_MODES))
    p.add_argument("--geom-unc", dest="rel_geom_unc", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="report")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if "out" in args:
            _refuse_stdout_file(args.out)
        return args.func(args)
    except (ValueError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
