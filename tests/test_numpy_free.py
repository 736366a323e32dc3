"""The commands that ingest, fit and predict start without numpy, and so
does loading a variation model.

numpy's import is most of a cold command's time, and these commands need
no array.  Nor do they import ``dataclasses``, whose import pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``: about a fifth of such a
command.  Each case runs in a fresh interpreter and reports which of
these modules ended up in ``sys.modules``.  The simulator's names, bound
late for this, must keep a wrapper set on them before their first use.
The simulating commands import numpy, and numpy ``inspect``, but not
``dataclasses``; at the default block size they draw in line and never
import ``concurrent.futures``, which only large blocks need.  They read
and check their model first, so a bad model file is refused before numpy
is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wlvmser
from wlvmser.io import write_fit_json
from wlvmser.pipeline import calibrate_datasets
from wlvmser.refdata import REFERENCE_CSV, load_reference_dataset

SRC = str(Path(wlvmser.__file__).resolve().parents[1])

CHILD = """\
import sys
import wlvmser
if sys.argv[1:]:
    from wlvmser import cli
    if cli.main(sys.argv[1:]) != 0:
        sys.exit("command failed")
print(*[name in sys.modules for name in ("numpy", "concurrent.futures", "dataclasses",
                                         "inspect")])
"""

# wraps late-bound names before their first use, as perfbench/spans.py
# does; a call on another thread than the main one is tagged "@helper"
WRAPPING_CHILD = """\
import sys
import threading
from wlvmser import cli, pipeline, protocols, sram
calls = []
for module, name in [(cli, "sample_array"), (cli, "run_ser_test"),
                     (sram, "_sampled"), (protocols, "_sweep_group")]:
    fn = getattr(module, name)
    def wrapper(*args, _fn=fn, _tag=f"{module.__name__}.{name}", **kwargs):
        main = threading.current_thread() is threading.main_thread()
        calls.append(_tag if main else _tag + "@helper")
        return _fn(*args, **kwargs)
    setattr(module, name, wrapper)
cli.main(["ser-test", "--duration", "3600"])
pipeline.simulate_parts(n_parts=1, cell_types=("SS",), duration=3600)
pipeline.simulate_parts(n_parts=1, cell_types=("SS",), duration=3600, rows=256, cols=256)
print(*calls)
"""


# loads the bundled model and the file it is given, which must be equal
MODEL_CHILD = """\
import sys
import wlvmser
assert wlvmser.VariationModel.default() == wlvmser.VariationModel.from_json(sys.argv[1])
print("numpy" in sys.modules)
"""

# runs a command that must fail, and reports its exit code and whether
# numpy was imported
FAILING_CHILD = """\
import sys
from wlvmser import cli
print(cli.main(sys.argv[1:]), "numpy" in sys.modules)
"""


def child(code, argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_child(code, argv, cwd) -> str:
    return child(code, argv, cwd).stdout.splitlines()[-1]


def imported(argv, cwd) -> tuple[bool, bool, bool, bool]:
    """Whether numpy, ``concurrent.futures``, ``dataclasses`` and ``inspect``
    were imported."""
    return tuple(flag == "True" for flag in run_child(CHILD, argv, cwd).split())


@pytest.mark.parametrize("argv", [
    [],
    ["paper-repro"],
    ["calibrate", "--input", "bundled"],
    ["predict", "--fit", "fit.json", "--v-wlvm", "0.4"],
    ["predict", "--fit", "fit.json", "--margins", str(REFERENCE_CSV)],
    ["report", "--input", "bundled", "--out", "report"],
], ids=["import", "paper-repro", "calibrate", "predict", "predict-margins", "report"])
def test_fit_commands_do_not_import_numpy(argv, tmp_path):
    write_fit_json(calibrate_datasets(load_reference_dataset()), tmp_path / "fit.json")
    assert imported(argv, tmp_path) == (False, False, False, False)


def test_loading_a_model_does_not_import_numpy(tmp_path):
    bundled = Path(wlvmser.__file__).parent / "data" / "variation_model.json"
    (tmp_path / "model.json").write_bytes(bundled.read_bytes())
    assert run_child(MODEL_CHILD, ["model.json"], tmp_path) == "False"


def test_a_bad_model_is_refused_before_numpy(tmp_path):
    bundled = Path(wlvmser.__file__).parent / "data" / "variation_model.json"
    payload = json.loads(bundled.read_text())
    (tmp_path / "bad.json").write_text(json.dumps({**payload, "sigma_part_mV": -1}))
    proc = child(FAILING_CHILD, ["simulate", "--model", "bad.json"], tmp_path)
    assert proc.stdout.splitlines() == ["1 False"]
    assert proc.stderr.splitlines() == [
        "error: bad.json: sigma_part_mV must be finite and >= 0, got -1"]


def test_a_model_that_cannot_be_drawn_is_refused_before_numpy(tmp_path):
    """A spread too wide for any threshold draw to finish is refused with
    the file, type and key before numpy is imported, so before any draw."""
    bundled = Path(wlvmser.__file__).parent / "data" / "variation_model.json"
    payload = json.loads(bundled.read_text())
    payload["cell_types"]["SS"]["sigma_vwlmin_mV"] = 1e308
    (tmp_path / "wide.json").write_text(json.dumps(payload))
    proc = child(FAILING_CHILD, ["simulate", "--model", "wide.json"], tmp_path)
    assert proc.stdout.splitlines() == ["1 False"]
    assert proc.stderr.splitlines() == [
        "error: wide.json: type SS: sigma_vwlmin_mV 1e+308 lands a draw in [1, 1200] mV "
        "with a chance of at most 4.8e-306; the thresholds could not be drawn within "
        "1000 redraws"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--parts", "2", "--types", "SS", "--duration", "3600", "--out", "sim"],
    ["ser-test", "--duration", "3600"],
    ["sweep", "--kind", "hold"],
    ["report", "--simulate", "--out", "report"],
], ids=["simulate", "ser-test", "sweep", "report-simulate"])
def test_simulate_imports_numpy(argv, tmp_path):
    """Each simulating command runs in a fresh interpreter, where a handler
    that names a simulator function before ``_load_model`` binds it fails.
    At 4 kbit no block is drawn ahead, so no thread pool is imported.
    Whether ``inspect`` is imported is up to numpy."""
    assert imported(argv, tmp_path)[:3] == (True, False, False)


def test_late_bound_names_keep_a_wrapper(tmp_path):
    """The CLI's late-bound names keep a wrapper, and so do the per-block
    draw and the group sweep that a batch looks up when it calls them: a
    2^16-cell block is drawn on the helper thread, when the host lets this
    process run on more than one CPU, through the wrapper."""
    several = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    ahead = "@helper" if several else ""
    assert run_child(WRAPPING_CHILD, [], tmp_path).split() == [
        "wlvmser.cli.sample_array", "wlvmser.sram._sampled", "wlvmser.cli.run_ser_test",
        "wlvmser.sram._sampled", "wlvmser.protocols._sweep_group",
        "wlvmser.sram._sampled" + ahead, "wlvmser.protocols._sweep_group"]
