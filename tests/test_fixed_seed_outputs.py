"""Fixed-seed CLI runs write the same bytes as the recorded digests.

A refactor or speed-up must not change any output byte of a fixed-seed
run.  Each digest is the SHA-256 of the lines ``<file sha256> <path>``,
sorted by path, over every file the command writes.  The digests were
recorded with numpy 2.4 on x86-64 Linux; if a change alters them on
purpose, record the new ones and say why in CHANGES.md.
"""

import hashlib

import pytest

from wlvmser import cli

EXPECTED = {
    "simulate": "192e32fc962b5f08d823fede76a8f76aeaa1f86660933d602dc62e0e5617188e",
    "report": "b3cc8fcf6e801312a3849cf91ed7643a7e04c93edaed05f55705309118e1f7e3",
    "ser-test": "2f2b07a099dcab5f1bdc2bbc79e666d9b2003cbe1ff6dd80fe5828f933e48d8e",
    "sweep-hold": "d9c0a9d42283bd92bdb21acec0fcbff77e8a65b74df35ca4efdbfb93f6e48419",
    "sweep-read": "f632ebcae78c66535007352956eabc9a94ca85892d1e26c1ff0d0a3ae3fee07c",
    "sweep-hold-1000": "66fbd169adce3b6b1707a0788dc68146ea33a6283f922f7df51caab658104e76",
}

COMMANDS = {
    "simulate": ["simulate", "--seed", "1", "--emit-logs", "--out", "{out}"],
    "report": ["report", "--simulate", "--seed", "1", "--out", "{out}"],
    "ser-test": ["ser-test", "--rate", "100", "--seed", "1", "--out", "{out}/ser.csv"],
    "sweep-hold": ["sweep", "--kind", "hold", "--seed", "3", "--out", "{out}/sweep.csv"],
    "sweep-read": ["sweep", "--kind", "read", "--seed", "3", "--out", "{out}/sweep.csv"],
    "sweep-hold-1000": ["sweep", "--kind", "hold", "--vdd", "1000", "--seed", "3",
                        "--out", "{out}/sweep.csv"],
}


def tree_digest(root):
    lines = sorted(f"{hashlib.sha256(p.read_bytes()).hexdigest()} "
                   f"{p.relative_to(root).as_posix()}\n"
                   for p in root.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fixed_seed_output_bytes(name, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = [arg.format(out=out) for arg in COMMANDS[name]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert tree_digest(out) == EXPECTED[name]


@pytest.mark.parametrize("name", ["report", "simulate"])
def test_rerun_over_stale_files_bytes(name, tmp_path, capsys):
    """A run into a directory that holds another seed's files of the same
    names leaves the bytes of a fresh directory, whether each old file was
    longer or shorter than the new one."""
    out = tmp_path / "out"
    out.mkdir()
    sizes = {}
    for seed in ("2", "1"):
        argv = [arg.format(out=out) for arg in COMMANDS[name]]
        argv[argv.index("--seed") + 1] = seed
        assert cli.main(argv) == 0
        sizes[seed] = {p.name: p.stat().st_size for p in out.iterdir()}
    capsys.readouterr()
    assert sizes["2"].keys() == sizes["1"].keys()
    assert any(sizes["2"][f] > sizes["1"][f] for f in sizes["1"])
    assert any(sizes["2"][f] < sizes["1"][f] for f in sizes["1"])
    assert tree_digest(out) == EXPECTED[name]


# Standard output of fixed-seed and bundled-data commands, run from a
# scratch directory so that every printed path is relative.  These guard
# the CLI defaults (law, uncertainty, simulation settings) against drifting.
STDOUT_EXPECTED = {
    "calibrate-bundled": "19ea138e4a195d0fd4211ac29766a633e78b766a29c0df7957a7161165384bd8",
    "paper-repro": "4364ba5284183229524d6ba81fbc7a0f075ce4ca49443c37656c7886dc28dfa7",
    "predict": "4369662179bda64e6b852de9fac0059d42f36b0cae70878faa174ff1f6a7f970",
    "simulate": "64df898f29a0ac95cf29acb6928be7ab4f458bb40d8b5259ab2b01969cf158e3",
}

STDOUT_COMMANDS = {
    "calibrate-bundled": ["calibrate", "--input", "bundled", "--out", "fit.json"],
    "paper-repro": ["paper-repro"],
    "predict": ["predict", "--fit", "fit.json", "--v-wlvm", "0.409"],
    "simulate": ["simulate", "--seed", "1", "--out", "sim"],
}


@pytest.mark.parametrize("name", sorted(STDOUT_COMMANDS))
def test_fixed_seed_stdout(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if name == "predict":
        assert cli.main(STDOUT_COMMANDS["calibrate-bundled"]) == 0
        capsys.readouterr()
    assert cli.main(STDOUT_COMMANDS[name]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_EXPECTED[name]


# Files the fit commands write from measurement files: the bundled data
# and a 200-point simulated CSV, more points than one 128-element leaf of
# the pairwise sums in ``weighted_linfit``.
FIT_EXPECTED = {
    "calibrate-sim40-combined": "fc168ee6a11a18429b4503b676e60b72a5599c5ff3cb606b91715bbd666046e6",
    "calibrate-sim40-linear-sum": "99f99bf998f09df20c30ea8dbbac034b07f1b676c700e118ec830b24baf5e96e",
    "calibrate-sim40-stat-only": "76035d4b67cca1ac003578ad00cb53765eb5dfaa582e877220b1b6ba6740c8b4",
    "report-bundled": "8a8bb5e404cc59ba177cf7bba00f15acef1b3c73e3f2ac9c56977d1786ab0be6",
    "report-sim40-combined": "8207b0a030173e8c248d50c26322092a3af0e0695c0b65923f3106aa361653ae",
    "report-sim40-linear-sum": "ff7eee7c8b90d941599f008019e7ff9b188eec7626fe36ce254a5fe1d6d8e56a",
    "report-sim40-stat-only": "50888e7d620df3b5af26ace9c7dc25cd24e2166eeaeb047202694c4b7f6492e4",
}

FIT_COMMANDS = {
    "report-bundled": ["report", "--input", "bundled", "--out", "{out}"],
    **{f"calibrate-sim40-{mode}": ["calibrate", "--input", "{sim40}", "--weight-mode",
                                   mode, "--out", "{out}/fit.json"]
       for mode in ("combined", "linear-sum", "stat-only")},
    **{f"report-sim40-{mode}": ["report", "--input", "{sim40}", "--weight-mode",
                                mode, "--out", "{out}"]
       for mode in ("combined", "linear-sum", "stat-only")},
}


@pytest.fixture(scope="module")
def sim40_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim40")
    assert cli.main(["simulate", "--seed", "2", "--parts", "40", "--out", str(out)]) == 0
    return out / "measurements.csv"


@pytest.mark.parametrize("name", sorted(FIT_COMMANDS))
def test_fit_output_bytes(name, sim40_csv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = [arg.format(out=out, sim40=sim40_csv) for arg in FIT_COMMANDS[name]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert tree_digest(out) == FIT_EXPECTED[name]
