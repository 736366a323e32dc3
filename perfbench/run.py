"""Pipeline benchmark for wlvmser: four workloads, end-to-end and
per-layer metrics, output checks and an output-identity digest.

One workload, one seed (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, traced and untraced, with a summary and a results file:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out BENCH.json

``--smoke`` shrinks every workload so that a run takes seconds.  The
program under test is always the ``src/`` tree beside this directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ["campaign", "large-block", "high-flux", "cli"]
MIN_PASSES = 3
SETUP_CODE = "import wlvmser; wlvmser.VariationModel.default()"
PROBE_NOMINAL_S = 0.025  # the speed probe's time on the reference machine (see Speed)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "blocks_per_s": "1/s",
    "cli_cmd_s": "s",
    "peak_rss_mb": "MB",
}

# the five cases of benchmarks/bench_kernels.py: (kernel, case, size)
KERNEL_CASES = [
    ("window_observed_flips", "window_flips_2600ev", 2600),
    ("window_observed_flips", "window_flips_1000000ev", 1_000_000),
    ("sweep_registration", "sweep_registration_4096c", 4096),
    ("sweep_registration", "sweep_registration_262144c", 262_144),
    ("masked_upsets_mc", "masked_upsets_mc_1e7", 10_000_000),
]
CLI_SPANS = ["cli.process", "cli.import_numpy", "cli.import_wlvmser", "cli.command"]


def per_layer_units(span_metrics) -> dict:
    units = {f"{name}_pct": "%" for name in [*span_metrics, *CLI_SPANS]}
    units.update({
        "trace.pass_s": "s", "trace.overhead_s": "s", "trace.coverage_pct": "%",
        "sram.cells": "count", "sram.ns_per_cell": "ns",
        "radiation.events": "count", "radiation.ns_per_event": "ns",
        "kernels.observed_ratio": "1", "protocols.sweep_steps": "count",
        "calibration.points": "count", "io.bytes_written": "B",
        "cli.import_numpy_s": "s", "cli.import_wlvmser_s": "s", "cli.command_s": "s",
    })
    units.update({f"kernels.case_{case}_s": "s" for _, case, _ in KERNEL_CASES})
    return units


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def provenance(args) -> dict:
    import numpy
    import wlvmser
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "wlvmser": wlvmser.__version__,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def paper_repro_context() -> dict:
    """The simulator-independent error against the published regression:
    paper-repro's fit of the bundled reference data minus PUBLISHED_FIT."""
    from wlvmser import pipeline, refdata
    fit = pipeline.calibrate_datasets(refdata.load_reference_dataset(),
                                      refdata.PAPER_MATCHING_WEIGHT_MODE)
    pub = refdata.PUBLISHED_FIT
    return {"weight_mode": fit.weight_mode, "m_delta": fit.m - pub["m"],
            "b_delta": fit.b - pub["b"], "chi2_delta": fit.chi2 - pub["chi2"]}


def setup_interpreter() -> float:
    """One fresh interpreter that imports wlvmser and loads the default model."""
    from workloads import timed_run
    rc, _, stderr, wall = timed_run([sys.executable, "-c", SETUP_CODE], 60.0)
    if rc != 0:
        raise RuntimeError(f"set-up interpreter failed: {stderr.strip()}")
    return wall


class Speed:
    """Scales host times to the reference speed of the machine.

    The machine this benchmark was written on is a 2-vCPU VM whose speed
    drifts by up to +-25 % over tens of seconds, for every kind of code
    alike (CPU time equals wall time; no steal).  A probe of fixed work
    that does not involve wlvmser runs between timed items, and each item
    is scaled by PROBE_NOMINAL_S over the mean of the probes just before
    and after it: host seconds at the speed at which the probe takes
    PROBE_NOMINAL_S.
    """

    def __init__(self):
        self.probes = [probe()]

    def scale(self, walls: list[float]) -> list[float]:
        """Scale the items timed since the previous call."""
        self.probes.append(probe())
        factor = PROBE_NOMINAL_S / (0.5 * (self.probes[-2] + self.probes[-1]))
        return [w * factor for w in walls]


def probe() -> float:
    """Host time of a fixed mix of small-array numpy and interpreted
    Python, the two kinds of work the workloads do."""
    import numpy as np
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    for _ in range(40):
        cells = rng.integers(0, 4096, 20_000)
        np.unique(cells, return_counts=True)
        np.bincount(cells, minlength=4096)
        np.sort(rng.normal(800.0, 44.0, 4096))
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def one_pass(wl, checks, reference, tracer=None):
    """Run and check one pass; returns (wall seconds or None, digest)."""
    from spans import instrument
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run()
        else:
            instrument(tracer)
            try:
                with tracer.span("pass"):
                    out = wl.run(tracer)
            finally:
                tracer.unwrap()
    except Exception as exc:  # a broken program is reported, not crashed on
        checks.blocks(wl.blocks, wl.blocks, f"pass raised {type(exc).__name__}: {exc}")
        return None, None
    wall = time.perf_counter() - t0
    checks.blocks(wl.blocks)
    got = wl.check(out, checks)
    if reference is not None:
        checks.expect(got == reference, "pass output differs from the first pass")
    return wall, got


def kernel_cases() -> tuple[dict, list]:
    """Each bench_kernels.py case timed on its own (median call)."""
    import numpy as np
    from wlvmser import kernels
    rng = np.random.default_rng(0)
    out, missing = {}, []
    for kernel, case, size in KERNEL_CASES:
        fn = getattr(kernels, kernel, None)
        if fn is None:
            missing.append(f"wlvmser.kernels.{kernel}")
            out[f"kernels.case_{case}_s"] = 0.0
            continue
        if kernel == "window_observed_flips":
            call_args = (np.sort(rng.integers(0, 240, size)), rng.integers(0, 4096, size), 240, 4096)
        elif kernel == "sweep_registration":
            call_args = (np.clip(np.rint(rng.normal(800, 44, size)), 1, 1200).astype(np.int64), 1200, 10)
        else:
            call_args = (1.5e-3, size, 123)
        fn(*call_args)
        times, t_end = [], time.perf_counter() + 0.2
        while len(times) < 3 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            fn(*call_args)
            times.append(time.perf_counter() - t0)
        out[f"kernels.case_{case}_s"] = statistics.median(times)
    return out, missing


def span_durations(tracer, name) -> list[float]:
    return [s.end - s.start for s in tracer.spans if s.name == name]


def measure_end_to_end(wl, args, checks, details) -> dict:
    from workloads import run_cli
    speed = Speed()
    raw = {"setup_s": [], "wall_s": [], "cli_cmd_s": []}
    scaled = {name: [] for name in raw}

    def record(name, walls):
        raw[name] += walls
        scaled[name] += speed.scale(walls)

    def counterpart(i):
        cmd = counterparts[i % len(counterparts)]
        res = run_cli(cmd, [])
        checks.expect(res.rc == 0, f"`wlvmser {' '.join(cmd[:3])}` exited {res.rc}")
        record("cli_cmd_s", [res.wall])

    setup_interpreter()  # writes the bytecode caches
    for _ in range(2 if args.smoke else 11):
        record("setup_s", [setup_interpreter()])
    # cli measures its pass's own commands; the other workloads run one cold
    # counterpart command after each pass, so both sample the whole run
    counterparts = [] if wl.name == "cli" else wl.commands()
    _, reference = one_pass(wl, checks, None)
    speed.scale([])
    t_end = time.perf_counter() + args.seconds
    while len(raw["wall_s"]) < MIN_PASSES or time.perf_counter() < t_end:
        n_cmds = len(wl.cmd_walls)
        wall, _ = one_pass(wl, checks, reference)
        if wall is None:
            break
        record("wall_s", [wall])
        raw["cli_cmd_s"] += wl.cmd_walls[n_cmds:]  # they share the pass's probes
        scaled["cli_cmd_s"] += [w * scaled["wall_s"][-1] / wall for w in wl.cmd_walls[n_cmds:]]
        if counterparts:
            counterpart(len(raw["wall_s"]) - 1)
    if not raw["wall_s"]:
        raise RuntimeError("no pass completed: " + "; ".join(checks.failures))
    for i in range(len(raw["cli_cmd_s"]), len(counterparts)):
        counterpart(i)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    details["digest"] = reference
    details["samples"] = {name: summarize(v) for name, v in scaled.items()}
    details["samples"].update({f"host {name}": summarize(v) for name, v in raw.items()})
    details["samples"]["host probe_s"] = summarize(speed.probes)
    wall = statistics.median(scaled["wall_s"])
    return {
        "setup_s": statistics.median(scaled["setup_s"]),
        "wall_s": wall,
        "blocks_per_s": wl.blocks / wall,
        "cli_cmd_s": statistics.median(scaled["cli_cmd_s"]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def measure_per_layer(wl, args, checks, details) -> dict:
    from spans import SPAN_METRICS, Tracer
    from workloads import dir_bytes, run_cli
    tracer = Tracer()
    _, reference = one_pass(wl, checks, None)
    untraced, traced, t_end = [], [], time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < t_end:
        wall, _ = one_pass(wl, checks, reference)
        n_spans = len(tracer.spans)
        traced_wall, _ = one_pass(wl, checks, reference, tracer)
        if wall is None or traced_wall is None:
            break
        untraced.append(wall)
        traced.append(tracer.spans[n_spans].end - tracer.spans[n_spans].start)
    if not traced:
        raise RuntimeError("no pass completed: " + "; ".join(checks.failures))
    n = len(traced)
    total = sum(traced)
    self_s = tracer.self_times()
    counts = {k: v / n for k, v in tracer.counts.items()}
    metrics = {f"{name}_pct": 100.0 * self_s.get(name, 0.0) / total
               for name in [*SPAN_METRICS, *CLI_SPANS]}
    metrics["trace.coverage_pct"] = 100.0 - 100.0 * self_s.get("pass", 0.0) / total
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    cells, events = counts.get("sram.cells", 0), counts.get("radiation.events", 0)
    metrics["sram.cells"] = cells
    metrics["sram.ns_per_cell"] = 1e9 * self_s.get("sram.sample", 0.0) / n / cells if cells else 0.0
    metrics["radiation.events"] = events
    metrics["radiation.ns_per_event"] = (
        1e9 * self_s.get("radiation.generate", 0.0) / n / events if events else 0.0)
    metrics["kernels.observed_ratio"] = counts.get("kernels.observed", 0) / events if events else 0.0
    metrics["protocols.sweep_steps"] = counts.get("protocols.sweep_steps", 0)
    metrics["calibration.points"] = counts.get("calibration.points", 0)
    metrics["io.bytes_written"] = dir_bytes(wl.out)
    # the cli layer: the workload's own commands, or its cold counterparts
    cmd_tracer = tracer
    if wl.name != "cli":
        cmd_tracer = Tracer()
        for cmd in wl.commands():
            res = run_cli(cmd, [], cmd_tracer, wl.work / "child-spans.json")
            checks.expect(res.rc == 0, f"traced `wlvmser {' '.join(cmd[:3])}` exited {res.rc}")
    for name in ("cli.import_numpy", "cli.import_wlvmser", "cli.command"):
        durations = span_durations(cmd_tracer, name)
        metrics[f"{name}_s"] = statistics.median(durations) if durations else 0.0
    cases, missing = kernel_cases()
    metrics.update(cases)
    details["missing"] = sorted({*tracer.missing, *cmd_tracer.missing, *missing})
    details["digest"] = reference
    details["samples"] = {"untraced_wall_s": summarize(untraced),
                          "traced_wall_s": summarize(traced)}
    details["counts_per_pass"] = counts
    if wl.name == "cli":  # main() time of each command, in pass order
        per_cmd = span_durations(tracer, "cli.command")
        details["commands"] = {f"cli.{label}_s": statistics.median(per_cmd[i::len(wl.LABELS)])
                               for i, label in enumerate(wl.LABELS)}
    return metrics


def run_one(args) -> int:
    from spans import SPAN_METRICS
    from workloads import WORK_ROOT, WORKLOADS, Checks
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    checks = Checks()
    details = {"provenance": provenance(args)}
    try:
        wl = WORKLOADS[args.workload](args.seed, work, args.smoke)
        if args.trace:
            values = measure_per_layer(wl, args, checks, details)
            units = per_layer_units(SPAN_METRICS)
        else:
            values = measure_end_to_end(wl, args, checks, details)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["context_paper_repro"] = paper_repro_context()
    details["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                         "failed_ratio": checks.failed / max(checks.attempted, 1),
                         "failures": checks.failures}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    details["metrics"] = metrics
    print_details(details)
    if args.report:
        Path(args.report).write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def print_details(details):
    p = details["provenance"]
    print(f"# wlvmser perfbench  workload={p['workload']}  seed={p['seed']}  "
          f"seconds={p['seconds']}  trace={p['trace']}  smoke={p['smoke']}")
    print(f"# machine: nproc={p['nproc']}  python={p['python']}  numpy={p['numpy']}  "
          f"numba_importable={p['numba_importable']}  commit={p['commit']}  {p['platform']}")
    samples = details.get("samples", {})
    for name, m in details["metrics"].items():
        line = f"{name:<44} {m['value']:>14.6g} {m['unit']}"
        s = samples.get(name)
        if s:
            line += f"   (median of n={s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    for name, s in samples.items():
        if name not in details["metrics"]:
            print(f"# {name}: median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, n={s['n']}")
    for name, value in details.get("commands", {}).items():
        print(f"# {name:<42} {value:>14.6g} s (median in-process command time)")
    for name, value in details.get("counts_per_pass", {}).items():
        print(f"# count per pass {name}: {value:g}")
    if details.get("missing"):
        print(f"# missing (reported as 0): {', '.join(details['missing'])}")
    c = details["checks"]
    print(f"# failed_ratio: {c['failed_ratio']:.6g} 1  "
          f"({c['failed']} of {c['attempted']} operations failed)")
    for failure in c["failures"]:
        print(f"#   FAILED: {failure}")
    ctx = details["context_paper_repro"]
    print(f"# context, not gated: paper-repro ({ctx['weight_mode']}) minus published: "
          f"m {ctx['m_delta']:+.4f}, b {ctx['b_delta']:+.4f}, chi2 {ctx['chi2_delta']:+.3f}")
    print(f"# output digest (sha256): {details.get('digest')}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORK_ROOT
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        results[name] = {}
        for trace in (0, 1):
            with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK_ROOT, delete=False) as fh:
                report = Path(fh.name)
            try:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--report", str(report)]
                proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT)
                if proc.returncode != 0:
                    return proc.returncode
                details = json.loads(report.read_text(encoding="utf-8"))
            finally:
                report.unlink(missing_ok=True)
            ok &= details["checks"]["failed"] == 0
            results[name]["per_layer" if trace else "end_to_end"] = details
    print("\n# summary (end to end, tracing off; failed_ratio over every operation)")
    print(f"# {'workload':<12}" + "".join(f"{m:>14}" for m in [*END_TO_END, "failed_ratio",
                                                                "trace_ovh_s"]))
    for name, r in results.items():
        e2e, pl = r["end_to_end"], r["per_layer"]
        row = [e2e["metrics"][m]["value"] for m in END_TO_END]
        row += [e2e["checks"]["failed_ratio"], pl["metrics"]["trace.overhead_s"]["value"]]
        print(f"# {name:<12}" + "".join(f"{v:>14.5g}" for v in row))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"# wrote {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run (passes run at least 3 times)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, for the test")
    parser.add_argument("--report", default=None, help="write the run's full details here")
    parser.add_argument("--out", default=None, help="with --workload all: results file")
    args = parser.parse_args(argv)

    if not (SRC / "wlvmser" / "__init__.py").is_file():
        print(f"perfbench: no wlvmser sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wlvmser
    if SRC.resolve() not in Path(wlvmser.__file__).resolve().parents:
        print(f"perfbench: imported wlvmser from {wlvmser.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORK_ROOT
    WORK_ROOT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
