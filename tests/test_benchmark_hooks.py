"""The benchmark in ``perfbench/`` still finds every name it hooks.

``perfbench`` looks functions up by name and reports a name it cannot
find as a metric of 0 rather than failing, so a rename or deletion in
``src/`` would otherwise pass unnoticed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import wlvmser
from wlvmser import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans
    yield run, spans
    for name in ("run", "spans", "workloads"):
        sys.modules.pop(name, None)


def test_span_wraps_resolve(perfbench_modules):
    _, spans = perfbench_modules
    tracer = spans.instrument(spans.Tracer())
    try:
        assert tracer.missing == []
    finally:
        tracer.unwrap()


def test_kernel_cases_resolve(perfbench_modules):
    run, _ = perfbench_modules
    assert [kernel for kernel, _, _ in run.KERNEL_CASES
            if not callable(getattr(kernels, kernel, None))] == []


def test_window_flip_counts_come_first(perfbench_modules):
    """``spans._COUNTS`` reads a window-flip result's counts as ``r[0]``, and
    ``run.kernel_cases`` calls the kernel with sorted ``int64`` windows of
    the sizes in ``KERNEL_CASES``: 240 windows over 4096 cells."""
    run, spans = perfbench_modules
    observed = spans._COUNTS["kernels.window_flips"]
    rng = np.random.default_rng(0)
    sizes = [size for kernel, _, size in run.KERNEL_CASES
             if kernel == "window_observed_flips"]
    assert sizes
    for size in sizes:
        windows = np.sort(rng.integers(0, 240, size))
        assert windows.dtype == np.int64
        cells = rng.integers(0, 4096, size)
        result = kernels.window_observed_flips(windows, cells, 240, 4096)
        keys, hits = np.unique(windows * 4096 + cells, return_counts=True)
        counts = np.bincount(keys[hits % 2 == 1] // 4096, minlength=240)
        assert np.array_equal(result[0], counts)
        assert observed(result) == {"kernels.observed": int(counts.sum())}


def test_sweep_registration_cases_register_every_cell(perfbench_modules):
    """``run.kernel_cases`` times ``sweep_registration`` on clipped normal
    thresholds (800 +- 44 mV) of the sizes in ``KERNEL_CASES``, from 1200 mV
    in 10 mV steps: the call it times gives each cell its registration by
    the per-cell closed form: its histogram, ``mu`` and ``sigma`` are those
    of the per-cell registrations, bit for bit."""
    run, _ = perfbench_modules
    rng = np.random.default_rng(0)
    sizes = [size for kernel, _, size in run.KERNEL_CASES
             if kernel == "sweep_registration"]
    assert sizes
    for size in sizes:
        thresholds = np.clip(np.rint(rng.normal(800, 44, size)), 1, 1200).astype(np.int64)
        histogram, mu, sigma = kernels.sweep_registration(thresholds, 1200, 10)
        steps = np.maximum((1200 - thresholds) // 10 + 1, 1)
        fail_v = np.maximum(1200 - 10 * steps, 0)
        voltages, counts = np.unique(fail_v, return_counts=True)
        assert histogram == dict(zip(voltages.tolist(), counts.tolist()))
        assert sum(histogram.values()) == size
        per_cell = fail_v + 10 / 2
        assert mu.hex() == float(per_cell.mean()).hex()
        assert sigma.hex() == float(per_cell.std(ddof=1)).hex()


def test_public_names_resolve():
    assert [name for name in wlvmser.__all__ if not hasattr(wlvmser, name)] == []


@pytest.mark.parametrize("name", ["campaign", "large-block", "high-flux"])
def test_workload_smoke_passes_agree(name, perfbench_modules, tmp_path):
    """Two in-process smoke passes of a workload check clean and agree.

    ``cli`` is left out: it starts a child interpreter per command.
    """
    run, _ = perfbench_modules
    import workloads
    wl = workloads.WORKLOADS[name](seed=3, work=tmp_path, smoke=True)
    checks = workloads.Checks()
    _, first = run.one_pass(wl, checks, None)
    _, second = run.one_pass(wl, checks, first)
    assert checks.failures == [] and checks.failed == 0
    assert first is not None and first == second
