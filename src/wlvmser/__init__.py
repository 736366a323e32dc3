"""Virtual SRAM test chip and alpha-SER estimation toolkit.

Simulates memory blocks with per-cell threshold variation, runs the
accelerated-irradiation and voltage-sweep measurement procedures against
them, calibrates the linear relation between word-line voltage margin and
soft-error rate, and predicts the SER of non-irradiated parts with
propagated uncertainties.
"""

from . import lazy
from .calibration import (CalibrationFit, Prediction, WeightedPoint,
                          build_weighted_points, predict_ser, weighted_linfit)
from .errors import ConfigurationError, DegenerateFitError, IngestError, ProtocolError
from .io import (PartDataset, ReportBundle, emit_measurements_csv, emit_report,
                 ingest_measurements_csv, read_fit_json, write_fit_json)
from .pipeline import (LinearSerLaw, build_report_bundle, calibrate_datasets,
                       simulate_parts)
from .records import (SerMeasurement, SweepResult, TypeVariation, VariationModel,
                      word_line_voltage_margin)
from .refdata import (CELL_TYPE_ORDER, PUBLISHED_FIT, SIMULATED_VWL_MIN_MV,
                      load_reference_dataset)

# the simulator's names import numpy, so they are bound on first lookup
__getattr__ = lazy.module_getattr(globals())

__version__ = "0.1.0"

__all__ = [
    "AlphaSource", "CELL_TYPE_ORDER", "CalibrationFit",
    "ConfigurationError", "DegenerateFitError", "EventLog", "IngestError",
    "LinearSerLaw", "MemoryArray", "PUBLISHED_FIT", "PartDataset",
    "Prediction", "ProtocolError", "ReportBundle", "SIMULATED_VWL_MIN_MV",
    "SerMeasurement", "SweepResult", "TypeVariation",
    "VariationModel", "WeightedPoint", "build_report_bundle",
    "build_weighted_points", "calibrate_datasets",
    "emit_measurements_csv", "emit_report", "generate_events",
    "ingest_measurements_csv", "load_reference_dataset", "predict_ser",
    "read_fit_json", "run_hold_sweep", "run_read_sweep", "run_ser_test",
    "run_wlvm_sweep", "sample_array", "simulate_parts",
    "undetected_fraction", "weighted_linfit", "word_line_voltage_margin",
    "write_fit_json",
]
