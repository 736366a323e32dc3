"""Dataset ingestion and report emission.

Measurement files use a long CSV schema, one quantity per row:

    part_id,cell_type,quantity,value

with ``quantity`` one of ``ser_uSEU_per_bit_s``, ``rel_stat_unc``,
``v_mewlvm_mV``, ``sigma_wlvm_mV`` or ``vdd_mV`` (the supply row carries
an empty cell_type since it belongs to the whole part).  The long format
survives partial datasets: parts awaiting prediction carry margin rows
only.

Reports are plot-ready text files: the fit as JSON, predictions as CSV
and scatter/histogram/cumulative series as TSV.  A ``ReportBundle`` is
the fit plus the datasets it reports on; ``emit_report`` derives every
row from them, formats every file and then writes them.  Its prediction
rows come from ``prediction_rows``, which ``predict --margins`` uses too.
Serialization is deterministic so reruns over identical inputs are
byte-identical.  Both emitters raise ``ValueError`` on datasets that
repeat a part id.  The JSON and TSV files are formatted into one string
and written whole by ``_write_text``, encoded once and written as bytes;
the CSV files (measurements, predictions and the protocol logs) are
streamed row by row into the open text file by ``_write_csv``, so a
log's text is never held whole.  Both open their file through
``_rewritten``, which writes over an existing file's bytes in place,
without ``O_TRUNC``, and cuts what is left of the old file on close, so
a rerun into the same directory leaves the same bytes as a fresh one:
on ext4 mounted with ``discard``, freeing a file's blocks as it opens
and allocating them again took several times the write itself.  A write
that fails (a row generator that raises, a full disk) is cut the same
way, leaving only the bytes that reached the file.  A rewrite is no more
atomic than one through ``O_TRUNC``: a process killed mid-write can leave
new bytes followed by old ones, where ``O_TRUNC`` left a short file.

Ingested rows become the summary records of ``records``; this module
imports neither the simulator, numpy nor ``inspect``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path

from .calibration import CalibrationFit, build_weighted_points, predict_ser
from .errors import ConfigurationError, IngestError
from .records import (DEFAULT_GEOM_UNC, DEFAULT_VDD_MV, MAX_EXPECTED_EVENTS,
                      SerMeasurement, SweepResult, read_json)
from .refdata import CELL_TYPE_ORDER

QUANTITY_SER = "ser_uSEU_per_bit_s"
QUANTITY_REL_STAT = "rel_stat_unc"
QUANTITY_MARGIN_MU = "v_mewlvm_mV"
QUANTITY_MARGIN_SIGMA = "sigma_wlvm_mV"
QUANTITY_VDD = "vdd_mV"

QUANTITIES = (QUANTITY_SER, QUANTITY_REL_STAT, QUANTITY_MARGIN_MU,
              QUANTITY_MARGIN_SIGMA, QUANTITY_VDD)

_HEADER = ["part_id", "cell_type", "quantity", "value"]


class PartDataset:
    """Measurements of one part, keyed by cell type.

    Either record may be missing for a type; calibration uses only the
    types carrying both the SER measurement and the margin sweep.  A
    dataset made without ``ser`` or ``sweeps`` starts with an empty dict
    of its own.
    """

    def __init__(self, part_id: str, v_dd: int = DEFAULT_VDD_MV,
                 ser: dict[str, SerMeasurement] | None = None,
                 sweeps: dict[str, SweepResult] | None = None):
        self.part_id = part_id
        self.v_dd = v_dd
        self.ser = {} if ser is None else ser
        self.sweeps = {} if sweeps is None else sweeps

    def cell_types(self) -> list[str]:
        """Types present in either record, in canonical order."""
        return [t for t in CELL_TYPE_ORDER if t in self.ser or t in self.sweeps]

    def pairs(self) -> list[tuple[SerMeasurement, SweepResult]]:
        """(SER, sweep) pairs for the types measured both ways."""
        return [(self.ser[t], self.sweeps[t]) for t in self.cell_types()
                if t in self.ser and t in self.sweeps]


# ---------------------------------------------------------------------------
# measurement CSV
# ---------------------------------------------------------------------------

def _rows(path, reader):
    """The records of the ``csv`` ``reader``; one it cannot split, such as
    a field over ``csv``'s size limit, raises ``IngestError`` at the
    record's first file line."""
    while True:
        line = reader.line_num + 1
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise IngestError(f"{path}:{line}: {exc}") from None


def ingest_measurements_csv(path, rel_geom_unc: float = DEFAULT_GEOM_UNC) -> list[PartDataset]:
    """Parse a measurement file into per-part datasets.

    The file is UTF-8 and may open with a byte-order mark.  Malformed rows
    are rejected with the first file line of their record, and so is a
    record that spans lines, since no field may hold a line break, or
    that holds a field over ``csv``'s limit of 131 072 characters.  Duplicate
    (part, type, quantity) keys are errors, and so is a part id that holds
    a tab or line break.  A value is read by ``float`` but must be ASCII
    and free of ``_``.  Every value must be finite and >= 0, except
    ``rel_stat_unc``, which may be ``inf`` for a block
    with no observed upset (SER 0) and only there: a counted point of
    infinite sigma would weigh nothing in the fit yet count in its
    ``n_points`` and ``nu``.  ``vdd_mV`` must be a positive whole number and
    ``v_mewlvm_mV`` must not exceed its part's supply.  ``rel_geom_unc``,
    the flux-positioning uncertainty given to every SER row, must be
    finite and >= 0.
    """
    if not 0 <= rel_geom_unc < math.inf:
        raise ConfigurationError(
            f"--geom-unc (rel_geom_unc) must be finite and >= 0, got {rel_geom_unc:g}")
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh.readlines())
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: {exc}") from None
    rows = _rows(path, reader)
    header = next(rows, None)
    if header is None:
        raise IngestError(f"{path}: empty file, expected header {_HEADER}")
    if [h.strip() for h in header] != _HEADER or reader.line_num > 1:
        raise IngestError(f"{path}: header {header} does not match {_HEADER}")
    # by part id in file order: (cell_type, quantity) -> (value, line), the
    # supply under ("", "vdd_mV")
    tables: dict[str, dict[tuple[str, str], tuple[float, int]]] = {}
    end = reader.line_num
    for row in rows:
        line, end = end + 1, reader.line_num  # the record's first and last file line
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != 4:
            raise IngestError(f"{path}:{line}: expected 4 fields, got {len(row)}")
        part_id, cell_type, quantity, value = (f.strip() for f in row)
        if not part_id:
            raise IngestError(f"{path}:{line}: missing part_id")
        if any(c in part_id for c in "\t\r\n"):
            raise IngestError(
                f"{path}:{line}: part_id {part_id!r} holds a tab or line break")
        if end != line:
            raise IngestError(f"{path}:{line}: a quoted field holds a line break")
        if quantity not in QUANTITIES:
            raise IngestError(f"{path}:{line}: unknown quantity {quantity!r}")
        if quantity == QUANTITY_VDD:
            if cell_type:
                raise IngestError(f"{path}:{line}: vdd_mV rows must leave cell_type empty")
        elif cell_type not in CELL_TYPE_ORDER:
            raise IngestError(f"{path}:{line}: unknown cell type {cell_type!r}")
        try:
            if "_" in value or not value.isascii():
                raise ValueError  # float() reads 1_4 and non-ASCII digits too
            num = float(value)
        except ValueError:
            raise IngestError(f"{path}:{line}: non-numeric value {value!r}")
        if not (num >= 0 and (math.isfinite(num) or quantity == QUANTITY_REL_STAT)):
            kind = "a value" if quantity == QUANTITY_REL_STAT else "a finite value"
            raise IngestError(f"{path}:{line}: {quantity} must be {kind} >= 0, got {value!r}")
        if quantity == QUANTITY_VDD and not (num > 0 and num.is_integer()):
            raise IngestError(
                f"{path}:{line}: vdd_mV must be a positive whole number of mV, got {value!r}")
        table = tables.setdefault(part_id, {})
        if (cell_type, quantity) in table:
            of_type = f" type {cell_type}" if cell_type else ""
            raise IngestError(
                f"{path}:{line}: duplicate {quantity} for part {part_id}{of_type}")
        table[cell_type, quantity] = (num, line)

    datasets = []
    for part_id, table in tables.items():
        v_dd = int(table.get(("", QUANTITY_VDD), (DEFAULT_VDD_MV,))[0])
        ds = PartDataset(part_id=part_id, v_dd=v_dd)
        for cell_type in dict.fromkeys(t for t, _ in table if t):
            ser, rel, mu, sigma = (table.get((cell_type, q)) for q in QUANTITIES
                                   if q != QUANTITY_VDD)
            if (ser is None) != (rel is None):
                raise IngestError(
                    f"{path}: part {part_id} type {cell_type}: "
                    f"{QUANTITY_SER} and {QUANTITY_REL_STAT} must come together")
            if ser is not None:
                if rel[0] == math.inf and ser[0] > 0:
                    raise IngestError(
                        f"{path}:{rel[1]}: {QUANTITY_REL_STAT} may be inf only "
                        f"with {QUANTITY_SER} 0 (no observed upset), got "
                        f"{QUANTITY_SER}={_fmt(ser[0])}")
                ds.ser[cell_type] = SerMeasurement(part_id, cell_type, ser[0], rel[0],
                                                   rel_geom_unc)
            if mu is not None:
                if mu[0] > v_dd:
                    raise IngestError(
                        f"{path}:{mu[1]}: {QUANTITY_MARGIN_MU}={_fmt(mu[0])} above "
                        f"the supply of part {part_id} ({v_dd} mV)")
                ds.sweeps[cell_type] = SweepResult(
                    part_id, cell_type, mu[0], sigma[0] if sigma else math.nan, v_dd)
            elif sigma is not None:
                raise IngestError(
                    f"{path}: part {part_id} type {cell_type}: "
                    f"{QUANTITY_MARGIN_SIGMA} without {QUANTITY_MARGIN_MU}")
        datasets.append(ds)
    return datasets


def _fmt(value: float) -> str:
    """Shortest exact decimal form; integers lose the trailing .0"""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# written over in place: no O_TRUNC, and no newline translation on Windows
_REWRITE = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextmanager
def _rewritten(path):
    """A descriptor of ``path`` opened to write over its old bytes in place.

    The file is opened without ``O_TRUNC``.  On exit, and as well when the
    block raises, a regular file longer than the descriptor's offset is
    cut there, so it holds exactly the bytes that reached it; a pipe or a
    device, such as ``/dev/stdout`` or ``/dev/null``, is never cut.  A
    process killed mid-write can leave new bytes followed by old ones."""
    fd = os.open(path, _REWRITE, 0o666)
    try:
        yield fd
    finally:
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > (
                    end := os.lseek(fd, 0, os.SEEK_CUR)):
                os.ftruncate(fd, end)
        finally:
            os.close(fd)


def _write_text(path, text: str) -> None:
    """Write ``text``, one whole file built in memory, to ``path`` as UTF-8
    through ``_rewritten``: encoded once and written straight to the
    descriptor, without a file object per file."""
    with _rewritten(path) as fd:
        data = memoryview(text.encode("utf-8"))
        while data:
            data = data[os.write(fd, data):]


def _write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` to ``path`` as one UTF-8 CSV file
    through ``_rewritten``, streaming each row into the open file: ``rows``
    may be a generator, and the text is never held whole.  A generator
    that raises leaves the rows written before it, and no byte more."""
    with (_rewritten(path) as fd,
          open(fd, "w", encoding="utf-8", newline="", closefd=False) as fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def _check_unique_part_ids(datasets):
    """Refuse datasets that repeat a part id, whose rows and files would clash."""
    seen = set()
    for ds in datasets:
        if ds.part_id in seen:
            raise ValueError(f"part id {ds.part_id!r} names more than one dataset")
        seen.add(ds.part_id)


def emit_measurements_csv(datasets, path) -> Path:
    """Write datasets back out in the ingestion schema (round-trip safe)."""
    _check_unique_part_ids(datasets)
    rows = []
    for ds in datasets:
        for cell_type in ds.cell_types():
            meas = ds.ser.get(cell_type)
            if meas is not None:
                rows.append([ds.part_id, cell_type, QUANTITY_SER, _fmt(meas.ser)])
                rows.append([ds.part_id, cell_type, QUANTITY_REL_STAT,
                             _fmt(meas.rel_stat_unc)])
            sweep = ds.sweeps.get(cell_type)
            if sweep is not None:
                rows.append([ds.part_id, cell_type, QUANTITY_MARGIN_MU, _fmt(sweep.mu)])
                if not math.isnan(sweep.sigma):
                    rows.append([ds.part_id, cell_type, QUANTITY_MARGIN_SIGMA,
                                 _fmt(sweep.sigma)])
        rows.append([ds.part_id, "", QUANTITY_VDD, _fmt(ds.v_dd)])
    return _write_csv(path, _HEADER, rows)


# ---------------------------------------------------------------------------
# fit JSON, protocol logs
# ---------------------------------------------------------------------------

def write_fit_json(fit: CalibrationFit, path) -> Path:
    _write_text(path, json.dumps(vars(fit), indent=2, sort_keys=True) + "\n")
    return Path(path)


def read_fit_json(path) -> CalibrationFit:
    """Load a fit file; a malformed one raises ``IngestError`` naming it."""
    return read_json(path, CalibrationFit.from_dict, IngestError)


def write_ser_log(meas: SerMeasurement, path) -> Path:
    """Window-by-window SEU log of one SER test."""
    if meas.window_counts is None:
        raise ValueError("summary-only measurement has no window history")
    counts = meas.window_counts.tolist()
    return _write_csv(
        path, ["window_index", "t_start_s", "n_i", "cumulative"],
        ([i, _fmt(i * meas.ts), n_i, cumulative]
         for i, (n_i, cumulative) in enumerate(zip(counts, accumulate(counts)))))


def write_sweep_log(result: SweepResult, path) -> Path:
    """Step-by-step failure log of one voltage sweep.  A log of more than
    ``MAX_EXPECTED_EVENTS`` rows raises ``ConfigurationError`` before any
    row is built."""
    if result.histogram is None:
        raise ValueError("summary-only sweep has no step history")
    # steps of delta_v down from v_nominal, clamped at 0 V, until the
    # lowest failure: a ceiling division
    n_steps = -(-(result.v_nominal - min(result.histogram)) // result.delta_v)
    if n_steps > MAX_EXPECTED_EVENTS:
        raise ConfigurationError(
            f"a sweep log of {n_steps} steps of {result.delta_v} mV down from a supply "
            f"of {result.v_nominal} mV is more than the budget of {MAX_EXPECTED_EVENTS} "
            f"rows; raise --delta-v or lower the supply")

    def rows():
        cumulative = 0
        for step in range(1, n_steps + 1):
            v = max(result.v_nominal - result.delta_v * step, 0)
            new = result.histogram.get(v, 0)
            cumulative += new
            yield step, v, new, cumulative

    return _write_csv(path, ["step", "v_mV", "new_failures", "cumulative_failures"], rows())


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

class ReportBundle:
    """The fit and the datasets it reports on, from which ``emit_report``
    derives every row; made without ``datasets``, a bundle starts with an
    empty list of its own."""

    def __init__(self, fit: CalibrationFit, datasets: list[PartDataset] | None = None):
        self.fit = fit
        self.datasets = [] if datasets is None else datasets


def prediction_rows(fit: CalibrationFit, datasets) -> list[tuple]:
    """``(part_id, cell_type, v_wlvm_V, Prediction)`` of every swept block,
    in the parts' order and, within a part, ``CELL_TYPE_ORDER``.  A block
    ``predict_ser`` refuses raises its ``ValueError`` as ``part <id>
    <type>: …``."""
    def row(part_id, cell_type, v_wlvm):
        try:
            return part_id, cell_type, v_wlvm, predict_ser(fit, v_wlvm)
        except ValueError as exc:
            raise ValueError(f"part {part_id} {cell_type}: {exc}") from None

    return [row(ds.part_id, t, ds.sweeps[t].margin / 1000.0)
            for ds in datasets for t in ds.cell_types() if t in ds.sweeps]


def write_predictions_csv(predictions, path) -> Path:
    """Write ``(part_id, cell_type, v_wlvm_V, Prediction)`` rows."""
    return _write_csv(
        path, ["part_id", "cell_type", "v_wlvm_V", "ser_uSEU_per_bit_s",
               "sigma_uSEU_per_bit_s", "below_floor"],
        ([part_id, cell_type, _fmt(v_wlvm), _fmt(pred.ser), _fmt(pred.sigma),
          int(pred.below_physical_floor)]
         for part_id, cell_type, v_wlvm, pred in predictions))


def emit_report(bundle: ReportBundle, out_dir) -> list[str]:
    """Write the report files; returns the manifest (sorted file names).

    Scatter rows leave out the zero-count SER points the fit left out.
    Every TSV file is formatted before the first is written, so those
    writes run back to back: on ext4 that took less time, and varied less
    from one call to the next, than formatting each file between two
    writes.  The fit JSON and the predictions CSV are written after them.
    """
    _check_unique_part_ids(bundle.datasets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fit = bundle.fit
    predictions = prediction_rows(fit, bundle.datasets)
    files = {}  # name -> text
    scatter = ["part_id\tcell_type\tx_V\ty\tsigma_y\ty_fit\n"]
    # the blocks of a run share their windows: one template per window
    # length and count holds the index and start-time columns
    templates = {}

    for ds in bundle.datasets:
        for cell_type in ds.cell_types():
            meas, sweep = ds.ser.get(cell_type), ds.sweeps.get(cell_type)
            if sweep is not None:
                if sweep.histogram:
                    files[f"hist_wlvm_{ds.part_id}_{cell_type}.tsv"] = (
                        "v_mV\tcount\n" + "".join(
                            [f"{v}\t{sweep.histogram[v]}\n" for v in sorted(sweep.histogram)]))
                if meas is not None:
                    scatter.extend(
                        f"{ds.part_id}\t{cell_type}\t{_fmt(p.x)}\t{_fmt(p.y)}"
                        f"\t{_fmt(p.sigma_y)}\t{_fmt(fit.m * p.x + fit.b)}\n"
                        for p in build_weighted_points([(meas, sweep)], fit.weight_mode))
            if meas is not None and meas.window_counts is not None:
                key = (meas.ts, len(meas.window_counts))
                if key not in templates:
                    templates[key] = "window_index\tt_start_s\tcumulative\n" + "".join(
                        [f"{i}\t{_fmt(i * meas.ts)}\t%d\n" for i in range(key[1])])
                files[f"cumulative_seu_{ds.part_id}_{cell_type}.tsv"] = (
                    templates[key] % tuple(meas.window_counts.cumsum().tolist()))

    files["scatter_fit.tsv"] = "".join(scatter)
    out = os.path.join(out, "")  # joined as str: no Path per file
    for name, text in files.items():
        _write_text(out + name, text)
    write_fit_json(fit, out + "fit.json")
    write_predictions_csv(predictions, out + "predictions.csv")
    return sorted([*files, "fit.json", "predictions.csv"])
