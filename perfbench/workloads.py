"""The four benchmark workloads, their inputs, output checks and digests.

Every workload is a closed loop with one caller: a pass runs to the end
before the next one starts.  Inputs come only from the seed, so every pass
of a run must reproduce the first pass's output digest.  Why each workload
exists is written down in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from wlvmser import calibration, io, pipeline, protocols, radiation, refdata, sram

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"  # scratch space; a run removes its own files

DURATION_S = 432_000.0  # 120 h of irradiation per block
TS_S = 1800.0
PULL_LIMIT = 5.0  # "a few sigma" for the slope and Poisson checks


class Checks:
    """Operations attempted and failed: blocks, commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    def blocks(self, n: int, failed: int = 0, what: str = ""):
        self.attempted += n
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# cold CLI commands
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """Children import wlvmser from ``src/`` with bytecode caching on, as an
    installed package would, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")
    return env


class CmdResult(NamedTuple):
    args: list[str]
    rc: int
    stdout: str
    stderr: str
    wall: float


def timed_run(cmd: list[str], limit_s: float = 150.0):
    """Run ``cmd`` from the checkout root; returns (rc, stdout, stderr,
    wall seconds).  The watchdog thread stands in for a timeout because
    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    quantize the measured time."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            watchdog.cancel()
    return proc.returncode, stdout, stderr, time.perf_counter() - t0


def run_cli(args: list[str], walls: list[float], tracer=None, spans_file=None) -> CmdResult:
    """One ``python -m wlvmser ARGS`` in a fresh interpreter, import
    included.  With a tracer the command runs under ``cli_child.py`` and
    its spans are grafted below a ``cli.process`` span."""
    if tracer is None:
        rc, stdout, stderr, wall = timed_run([sys.executable, "-m", "wlvmser", *args])
    else:
        with tracer.span("cli.process") as idx:
            rc, stdout, stderr, wall = timed_run(
                [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *args])
        if rc == 0:
            with open(spans_file, encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.adopt(child["spans"], idx)
            tracer.counts.update(child["counts"])
            tracer.missing.extend(m for m in child["missing"] if m not in tracer.missing)
    walls.append(wall)
    return CmdResult(args, rc, stdout, stderr, wall)


# ---------------------------------------------------------------------------
# shared output checks and digests
# ---------------------------------------------------------------------------

def ser_summary(m) -> str:
    counts = ",".join(str(int(c)) for c in m.window_counts)
    return (f"ser {m.part_id} {m.cell_type} {m.ser!r} {m.rel_stat_unc!r} "
            f"{m.n_tot} {m.n_windows} {m.t_exp!r} {m.n_bits} [{counts}]")


def sweep_summary(s) -> str:
    hist = ",".join(f"{v}:{c}" for v, c in sorted(s.histogram.items()))
    return (f"sweep {s.part_id} {s.cell_type} {s.swept_quantity} {s.delta_v} "
            f"{s.mu!r} {s.sigma!r} {s.se_mean!r} {s.n_cells} [{hist}]")


def digest(out_dir: Path | None, summaries) -> str:
    """SHA-256 of every file under ``out_dir`` (name and bytes) and of the
    SerMeasurement/SweepResult summary lines."""
    h = hashlib.sha256()
    if out_dir is not None:
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    for line in summaries:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def dataset_summaries(datasets):
    for ds in datasets:
        for cell_type in ds.cell_types():
            yield ser_summary(ds.ser[cell_type])
            yield sweep_summary(ds.sweeps[cell_type])


def check_ser(m, checks: Checks):
    """Exact count/rate identities of one protocol-produced measurement."""
    checks.expect(
        m.n_tot == int(m.window_counts.sum())
        and m.t_exp == m.n_windows * m.ts
        and m.ser == 1e6 * m.n_tot / (m.t_exp * m.n_bits),
        f"SER identities broken for part {m.part_id} {m.cell_type}")


def check_sweep(s, n_cells: int, checks: Checks):
    """Every cell registered once, at a voltage on the sweep grid."""
    on_grid = all(v == 0 or (0 < v < s.v_nominal and (s.v_nominal - v) % s.delta_v == 0)
                  for v in s.histogram)
    checks.expect(on_grid and sum(s.histogram.values()) == n_cells == s.n_cells,
                  f"{s.swept_quantity} sweep of part {s.part_id} {s.cell_type} "
                  f"registers cells off the grid or more than once")


def check_slope(m, sigma_m, chi2_red, law_m, what: str, checks: Checks):
    """Calibrated slope within PULL_LIMIT sigma of the ground-truth law,
    sigma scaled up by sqrt(chi2_red) when the fit is under-dispersed."""
    sigma = sigma_m * math.sqrt(max(1.0, chi2_red))
    pull = (m - law_m) / sigma
    checks.expect(abs(pull) <= PULL_LIMIT,
                  f"{what}: slope {m:.4f} is {pull:+.1f} sigma from the law's {law_m}")


def check_round_trip(datasets, csv_path: Path, scratch: Path, checks: Checks):
    """emit -> ingest -> emit reproduces the bytes and every value exactly."""
    ingested = {ds.part_id: ds for ds in io.ingest_measurements_csv(csv_path)}
    again = io.emit_measurements_csv(list(ingested.values()), scratch / "roundtrip.csv")
    checks.expect(again.read_bytes() == csv_path.read_bytes(),
                  "re-emitting the ingested CSV changes its bytes")
    for ds in datasets:
        back = ingested.get(ds.part_id)
        for cell_type in ds.cell_types():
            meas, sweep = ds.ser[cell_type], ds.sweeps[cell_type]
            got_m = back.ser.get(cell_type) if back else None
            got_s = back.sweeps.get(cell_type) if back else None
            checks.expect(
                back is not None and back.v_dd == ds.v_dd
                and got_m is not None and got_s is not None
                and (got_m.ser, got_m.rel_stat_unc) == (meas.ser, meas.rel_stat_unc)
                and (got_s.mu, got_s.sigma) == (sweep.mu, sweep.sigma),
                f"round trip changed part {ds.part_id} {cell_type}")


def dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    blocks = 0  # blocks measured per pass
    out: Path | None = None  # directory a pass writes into

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.cmd_walls: list[float] = []
        (work / "checks").mkdir(parents=True, exist_ok=True)

    def run(self, tracer=None):
        raise NotImplementedError

    def check(self, out, checks: Checks) -> str:
        """Record the output checks of one pass; return its digest."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        """Cold CLI commands that stand for this workload in ``cli_cmd_s``,
        run in turn, each of them at least once."""
        raise NotImplementedError


class Campaign(Workload):
    name = "campaign"

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.parts = 5 if smoke else 100
        self.blocks = 5 * self.parts
        self.out = work / "campaign"
        self.out.mkdir(parents=True, exist_ok=True)

    def run(self, tracer=None):
        datasets = pipeline.simulate_parts(n_parts=self.parts, seed=self.seed,
                                           duration=DURATION_S, ts=TS_S)
        csv_path = io.emit_measurements_csv(datasets, self.out / "measurements.csv")
        ingested = io.ingest_measurements_csv(csv_path)
        fits = {mode: pipeline.calibrate_datasets(ingested, mode)
                for mode in calibration.WEIGHT_MODES}
        bundle = pipeline.build_report_bundle(datasets)
        io.emit_report(bundle, self.out / "report")
        return datasets, fits

    def check(self, out, checks):
        datasets, fits = out
        for ds in datasets:
            for cell_type in ds.cell_types():
                check_ser(ds.ser[cell_type], checks)
                check_sweep(ds.sweeps[cell_type], 64 * 64, checks)
        check_round_trip(datasets, self.out / "measurements.csv", self.work / "checks", checks)
        law_m = pipeline.LinearSerLaw().m
        for mode, fit in fits.items():
            check_slope(fit.m, fit.sigma_m, fit.chi2_red, law_m, f"{mode} fit", checks)
        return digest(self.out, dataset_summaries(datasets))

    def commands(self):
        report = ["report", "--simulate", "--seed", str(self.seed),
                  "--out", str(self.work / "cmd-report")]
        return [report] * (2 if self.smoke else 11)


class LargeBlock(Workload):
    name = "large-block"

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.parts = 1 if smoke else 5
        self.side = 128 if smoke else 512
        n_types = len(refdata.CELL_TYPE_ORDER)
        self.blocks = self.parts * n_types + 2 * n_types

    def run(self, tracer=None):
        datasets = pipeline.simulate_parts(n_parts=self.parts, seed=self.seed,
                                           duration=DURATION_S, ts=TS_S,
                                           rows=self.side, cols=self.side)
        supply = [s for kind in ("hold", "read")
                  for s in pipeline.simulate_supply_sweeps(
                      kind=kind, seed=self.seed, rows=self.side, cols=self.side)]
        return datasets, supply

    def check(self, out, checks):
        datasets, supply = out
        n_cells = self.side * self.side
        for ds in datasets:
            for cell_type in ds.cell_types():
                check_ser(ds.ser[cell_type], checks)
                check_sweep(ds.sweeps[cell_type], n_cells, checks)
        for s in supply:
            check_sweep(s, n_cells, checks)
        return digest(None, [*dataset_summaries(datasets), *map(sweep_summary, supply)])

    def commands(self):
        # one kind only: a mix of two command times makes an unsteady median
        return [["sweep", "--kind", "hold", "--seed", str(self.seed)]] * (2 if self.smoke else 11)


class HighFlux(Workload):
    name = "high-flux"
    RATE = 100.0  # µSEU/(bit*s); lambda*ts = 0.18 masks about 16% of upsets

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.blocks = 4 if smoke else 60
        self.model = sram.VariationModel.default()

    def run(self, tracer=None):
        seqs = np.random.SeedSequence(self.seed).spawn(2 * self.blocks)
        source = radiation.AlphaSource(rate_per_bit=self.RATE)
        out = []
        for i in range(self.blocks):
            array = sram.sample_array("SS", self.model, seed=seqs[2 * i],
                                      true_seu_rate=self.RATE, part_id=str(i + 1))
            out.append(protocols.run_ser_test(array, source, TS_S, DURATION_S,
                                              seed=seqs[2 * i + 1]))
        return out

    def check(self, out, checks):
        lam = self.RATE * 1e-6
        seen = 1.0 - radiation.undetected_fraction(lam, TS_S)
        for m in out:
            check_ser(m, checks)
            expected = m.n_bits * m.t_exp * lam * seen
            checks.expect(abs(m.n_tot - expected) <= PULL_LIMIT * math.sqrt(expected),
                          f"block {m.part_id}: {m.n_tot} observed flips, "
                          f"{expected:.0f} expected")
        return digest(None, map(ser_summary, out))

    def commands(self):
        return [["ser-test", "--cell-type", "SS", "--rate", str(self.RATE),
                 "--ts", str(TS_S), "--duration", str(DURATION_S),
                 "--seed", str(self.seed)]] * (2 if self.smoke else 11)


_FIT_LINE = re.compile(r"m\s+=\s+(\S+) \+- (\S+).*\n.*\n\s+chi2\s+=.*chi2_red = (\S+)\)")


class Cli(Workload):
    name = "cli"
    LABELS = ["paper_repro", "report_bundled", "simulate", "calibrate", "report_simulate"]

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.out = work / "cli"
        self.out.mkdir(parents=True, exist_ok=True)
        self.blocks = 2 * 5 * len(refdata.CELL_TYPE_ORDER)  # simulate + report --simulate

    def commands(self):
        s, out = str(self.seed), self.out
        return [
            ["paper-repro", "--out", str(out / "paper-repro-fit.json")],
            ["report", "--input", "bundled", "--out", str(out / "report-bundled")],
            ["simulate", "--seed", s, "--out", str(out / "sim")],
            ["calibrate", "--input", str(out / "sim" / "measurements.csv"),
             "--out", str(out / "calibrated-fit.json")],
            ["report", "--simulate", "--seed", s, "--out", str(out / "report-sim")],
        ]

    def run(self, tracer=None):
        spans_file = self.work / "child-spans.json"
        return [run_cli(args, self.cmd_walls, tracer, spans_file) for args in self.commands()]

    def check(self, out, checks):
        for res in out:
            checks.expect(res.rc == 0, f"`wlvmser {' '.join(res.args[:2])}` exited "
                                       f"{res.rc}: {res.stderr.strip()[-200:]}")
        repro, _, _, calibrate, _ = out
        checks.expect("overall: PASS" in repro.stdout, "paper-repro did not print overall: PASS")
        fit = _FIT_LINE.search(calibrate.stdout)
        if checks.expect(fit is not None, "calibrate printed no fit"):
            m, sigma_m, chi2_red = map(float, fit.groups())
            check_slope(m, sigma_m, chi2_red, pipeline.LinearSerLaw().m,
                        "calibrate command", checks)
        csv_path = self.out / "sim" / "measurements.csv"
        if checks.expect(csv_path.exists(), "simulate wrote no measurements.csv"):
            ingested = io.ingest_measurements_csv(csv_path)
            again = io.emit_measurements_csv(ingested, self.work / "checks" / "roundtrip.csv")
            checks.expect(again.read_bytes() == csv_path.read_bytes(),
                          "re-emitting the simulated CSV changes its bytes")
        return digest(self.out, [])


WORKLOADS = {w.name: w for w in (Campaign, LargeBlock, HighFlux, Cli)}
