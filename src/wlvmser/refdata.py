"""Bundled reference data from the published 65 nm test-chip study.

The package ships the measured dataset of that study — SER and word-line
margin for five parts times five cell sizings — as a measurement CSV in
the normal ingestion schema, plus the study's simulated write thresholds
and its published regression outcome for comparison runs.
"""

from __future__ import annotations

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

REFERENCE_CSV = DATA_DIR / "reference_measurements.csv"

# first letter sizes the nMOS pair, second the pMOS pair (S/M/L = 1/1.5/2 x)
CELL_TYPE_ORDER = ("SS", "SM", "SL", "MM", "LS")

# electrically simulated minimum write voltages (typical corner), mV
SIMULATED_VWL_MIN_MV = {
    "SS": 792,
    "SM": 853,
    "SL": 897,
    "MM": 803,
    "LS": 726,
}

# regression outcome published for the reference dataset
PUBLISHED_FIT = {
    "m": 4.32,
    "sigma_m": 0.20,
    "b": -0.25,
    "sigma_b": 0.06,
    "chi2": 22.3,
    "nu": 23,
    "chi2_red": 0.97,
    "r2": 0.96,
}

# acceptance windows for reproducing the published regression
REPRO_WINDOWS = {
    "m": (4.12, 4.52),
    "b": (-0.31, -0.19),
    "nu": (23, 23),
    "chi2_red": (0.7, 1.3),
    "r2": (0.94, float("inf")),
}

# uncertainty recipe that reproduces the published chi2/parameter errors
PAPER_MATCHING_WEIGHT_MODE = "linear-sum"


def load_reference_dataset():
    """Parts of the bundled reference study, as ingested datasets."""
    from .io import ingest_measurements_csv
    return ingest_measurements_csv(REFERENCE_CSV)
