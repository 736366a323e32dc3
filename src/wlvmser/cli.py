"""Command-line interface.

Subcommands:

* ``simulate``    build virtual parts, run SER tests + margin sweeps,
                  write a measurement CSV that ``calibrate`` can fit
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
options given (``_given``).  ``-1e-3`` is read as a number.  An option
that several commands share is defined once, in a parent parser, and a
command line builds only its own subcommand's parser (``build_parser``).
A simulating command reads and checks its model before it binds the
simulator, so a bad ``--model`` file is refused without importing numpy.
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
from .errors import ConfigurationError, DegenerateFitError, ProtocolError
from .pipeline import (LinearSerLaw, build_report_bundle, calibrate_datasets,
                       simulate_parts, zero_count_blocks)
from .records import VariationModel
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
    """The ``--model`` file, or the bundled model, read and checked before
    the simulator's names, and numpy with them, are bound."""
    model = VariationModel.from_json(args.model) if "model" in args else VariationModel.default()
    lazy.bind(globals())
    return model


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


def _write_out(args, write, record):
    """``write`` ``record`` to the ``--out`` file, if one was given, and name it."""
    if "out" in args:
        write(record, args.out)
        print(f"wrote {args.out}")


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
    try:  # write no batch that calibrate refuses, bar one short of points it left out
        calibrate_datasets(datasets)
    except DegenerateFitError as exc:
        if "zero-count SER points" not in str(exc):
            raise
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = wio.emit_measurements_csv(datasets, out_dir / "measurements.csv")
    print(f"simulated {len(datasets)} parts x {len(datasets[0].cell_types())} blocks")
    for ds in datasets:
        for cell_type in ds.cell_types():
            meas, sweep = ds.ser[cell_type], ds.sweeps[cell_type]
            print(f"  part {ds.part_id} {cell_type}: ser = {meas.ser:.3f} "
                  f"(n_tot = {meas.n_tot}), mu = {sweep.mu:.1f} mV, "
                  f"sigma = {sweep.sigma:.1f} mV")
            if "emit_logs" in args:
                wio.write_ser_log(meas, out_dir / f"ser_log_{ds.part_id}_{cell_type}.csv")
                wio.write_sweep_log(sweep, out_dir / f"sweep_log_{ds.part_id}_{cell_type}.csv")
    print(f"wrote {csv_path}")
    return 0


def _cmd_ser_test(args) -> int:
    model = _load_model(args)
    seed = getattr(args, "seed", 0)  # set_defaults would reach the --seed others share
    array = sample_array(args.cell_type, model, seed=seed,
                         true_seu_rate=args.rate, **_given(args, "v_dd"))
    meas = run_ser_test(array, AlphaSource(), seed=seed + 1,
                        **_given(args, "ts", "duration"))
    print(f"part {meas.part_id} {meas.cell_type}: "
          f"ser = {meas.ser:.4f} uSEU/(bit*s), n_tot = {meas.n_tot}, "
          f"windows = {meas.n_windows} x {meas.ts:.0f} s, "
          f"rel_stat = {meas.rel_stat_unc:.4f}")
    _write_out(args, wio.write_ser_log, meas)
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
        print(f"  margin = {result.margin:.2f} mV at v_dd = {result.v_nominal} mV")
    _write_out(args, wio.write_sweep_log, result)
    return 0


def _cmd_calibrate(args) -> int:
    datasets = _load_datasets(args)
    fit = calibrate_datasets(datasets, **_given(args, "weight_mode"))
    _note_left_out(datasets)
    n_pairs = sum(len(ds.pairs()) for ds in datasets)
    print(f"calibrated {n_pairs} (margin, SER) pairs from {len(datasets)} parts:")
    _print_fit(fit)
    _write_out(args, wio.write_fit_json, fit)
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
        measured = part1.sweeps[cell_type].margin
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
    all_ok = True
    for key, (lo, hi) in REPRO_WINDOWS.items():
        value = getattr(fit, key)
        ok = lo <= value <= hi
        all_ok &= ok
        target = f"[{lo:g}, {hi:g}]" if hi != float("inf") else f">= {lo:g}"
        label = key.upper() if key[-1].isdigit() else key  # R2, as _print_fit has it
        print(f"  {label:<8} = {value:8.4f}  target {target:<16} "
              f"delta vs published = {value - pub[key]:+.4f}  {'PASS' if ok else 'FAIL'}")
    print(f"\noverall: {'PASS' if all_ok else 'FAIL'}")
    _write_out(args, wio.write_fit_json, fit)
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


# the options several commands share, one parent parser per group:
# group -> (flag, keyword arguments) of each option
_SHARED_OPTIONS = {
    "seeded": [("--model", dict(help="variation-model JSON (default: bundled)")),
               ("--seed", dict(type=int))],
    "supply": [("--vdd", dict(dest="v_dd", type=int, help="supply, mV"))],
    "schedule": [("--ts", dict(type=float, help="sampling period, s")),
                 ("--duration", dict(type=float, help="irradiation time per block, s"))],
    "step": [("--delta-v", dict(type=int, help="sweep step, mV"))],
    "cell": [("--cell-type", dict(default="SS", choices=list(CELL_TYPE_ORDER)))],
    "measured": [("--input", dict(help="measurement CSV path, or 'bundled' (default)")),
                 ("--weight-mode", dict(choices=list(WEIGHT_MODES))),
                 ("--geom-unc", dict(dest="rel_geom_unc", type=float))],
}

# subcommand -> (handler, help, shared option groups, its own options)
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate parts and measure them",
                 ("seeded", "supply", "schedule", "step"), [
        ("--parts", dict(dest="n_parts", type=int)),
        ("--types", dict(dest="cell_types", type=lambda text: text.split(","),
                         help="comma-separated cell types")),
        ("--law-m", dict(dest="m", type=float, help="ground-truth slope, uSEU/(bit*s*V)")),
        ("--law-b", dict(dest="b", type=float, help="ground-truth intercept, uSEU/(bit*s)")),
        ("--geom-spread", dict(type=float,
                               help="half-width of the per-part flux factor spread")),
        ("--emit-logs", dict(action="store_true")),
        ("--out", dict(default="out"))]),
    "ser-test": (_cmd_ser_test, "one accelerated SER test",
                 ("seeded", "supply", "schedule", "cell"), [
        ("--rate", dict(type=float, default=1.46, help="true upset rate, uSEU/(bit*s)")),
        ("--out", dict(help="window log CSV"))]),
    "sweep": (_cmd_sweep, "one voltage sweep", ("seeded", "supply", "step", "cell"), [
        ("--kind", dict(default="wlvm", choices=["wlvm", "hold", "read"])),
        ("--part-offset", dict(type=float, help="part-level mean shift, mV")),
        ("--out", dict(help="sweep log CSV"))]),
    "calibrate": (_cmd_calibrate, "fit a measurement CSV", ("measured",), [
        ("--out", dict(help="fit JSON path"))]),
    "predict": (_cmd_predict, "predict SER from margins", (), [
        ("--fit", dict(required=True, help="fit JSON path")),
        ("--v-wlvm", dict(type=float, help="single margin value, volts")),
        ("--margins", dict(help="measurement CSV with margin rows")),
        ("--out", dict(help="directory for predictions.csv"))]),
    "paper-repro": (_cmd_paper_repro, "reproduce the published reference regression", (), [
        ("--weight-mode", dict(choices=list(WEIGHT_MODES), default=PAPER_MATCHING_WEIGHT_MODE,
                               help="mode to check")),
        ("--out", dict(help="fit JSON path"))]),
    # --input and --geom-unc serve only a measurement file, --model and
    # --seed only --simulate
    "report": (_cmd_report, "emit fit + predictions + plot data", ("seeded", "measured"), [
        ("--simulate", dict(action="store_true",
                            help="build the report from a fresh simulation instead")),
        ("--out", dict(default="report"))]),
}


def _with_options(parser: argparse.ArgumentParser, options) -> argparse.ArgumentParser:
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser, with every subcommand, or with only
    ``command`` and the parents it takes, which parses that subcommand's
    lines alike.  The main help and the invalid-choice error name every
    subcommand, so ``main`` passes a name only for a line that starts
    with one."""
    parser = _Parser(
        prog="wlvmser",
        description="Virtual SRAM test chip: estimate alpha-SER from "
                    "word-line voltage-margin measurements.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    shared = {}
    for name, (handler, help_text, groups, options) in _COMMANDS.items():
        if command not in (None, name):
            continue
        for group in groups:
            if group not in shared:
                shared[group] = _with_options(_Parser(add_help=False), _SHARED_OPTIONS[group])
        p = sub.add_parser(name, parents=[shared[g] for g in groups], help=help_text)
        _with_options(p, options).set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
