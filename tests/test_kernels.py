"""Independent oracles for the numeric kernels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlvmser import kernels
from wlvmser.errors import ConfigurationError
from wlvmser.radiation import _arrival_times, undetected_fraction


def _random_events(rng, n_events, n_windows, n_cells):
    windows = np.sort(rng.integers(0, n_windows, n_events)).astype(np.int64)
    cells = rng.integers(0, n_cells, n_events).astype(np.int64)
    return windows, cells


def window_flips_oracle(windows, cells, n_windows, n_cells):
    """Explicit read-compare-update loop, the way the bench sees flips."""
    state = np.zeros(n_cells, dtype=np.uint8)
    reference = state.copy()
    counts = np.zeros(n_windows, dtype=np.int64)
    for w in range(n_windows):
        for c in cells[windows == w]:
            state[c] ^= 1
        counts[w] = int(np.count_nonzero(state != reference))
        reference = state.copy()
    return counts


def window_flips_unique(windows, cells, n_windows, n_cells):
    """The earlier formulation: ``np.unique`` counts over int64 keys."""
    composite = windows.astype(np.int64) * n_cells + cells
    uniq, multiplicity = np.unique(composite, return_counts=True)
    odd = uniq[(multiplicity & 1) == 1]
    return np.bincount(odd // n_cells, minlength=n_windows)


def check_window_flips(windows, cells, n_windows, n_cells, oracle=window_flips_oracle):
    """The kernel's counts equal the oracle's, and its hits are the events
    per window, of which an even number, never negative, went unseen."""
    counts, hits = kernels.window_observed_flips(windows, cells, n_windows, n_cells)
    assert counts.dtype == hits.dtype == np.int64
    assert np.array_equal(counts, oracle(windows, cells, n_windows, n_cells))
    assert np.array_equal(hits, np.bincount(windows, minlength=n_windows))
    masked = hits - counts
    assert np.all(masked >= 0) and np.all(masked % 2 == 0)
    return counts


def arrival_times_oracle(rng, lam_total, duration):
    """The earlier formulation: fresh running sums, mask-and-copy cut."""
    mean_gap = 1.0 / lam_total
    expect = lam_total * duration
    chunk = max(int(expect + 10.0 * math.sqrt(expect)) + 16, 64)
    pieces = []
    t = 0.0
    while True:
        gaps = rng.exponential(mean_gap, chunk)
        times = t + np.cumsum(gaps)
        inside = times[times < duration]
        pieces.append(inside)
        if inside.size < times.size:
            break
        t = float(times[-1])
        chunk = max(chunk // 4, 64)
    return np.concatenate(pieces)


class ShortGapRng:
    """Generator stand-in whose gaps are 1e-3 of the requested mean, so the
    first chunk ends long before the horizon and continuation chunks run.
    ``exponential`` is ``scale * standard_exponential``, numpy's own
    identity, so ``_arrival_times`` and its oracle see the same gaps."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_exponential(self, size):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("arrival times do not advance")
        return self.rng.standard_exponential(size) * 1e-3

    def exponential(self, scale, size):
        return scale * self.standard_exponential(size)


def sweep_oracle(thresholds, v_start, delta_v):
    """Explicit step-down loop: lower the voltage one step at a time and
    register each cell at the first visited voltage below its threshold."""
    t = np.asarray(thresholds, dtype=np.int64)
    fail_v = np.full(t.size, -1, dtype=np.int64)
    v = v_start
    while (fail_v < 0).any():
        v = max(v - delta_v, 0)
        newly = (fail_v < 0) & (v < t)
        fail_v[newly] = v
        if v == 0:
            break
    return fail_v


@pytest.mark.parametrize("n_events", [0, 1, 40, 2600, 20_000])
def test_window_flips_matches_oracle(n_events):
    """20k events over 12 x 64 cell windows is about 26 hits per cell and
    window, so many cells are hit an even number of times."""
    rng = np.random.default_rng(n_events)
    n_windows, n_cells = 12, 64
    windows, cells = _random_events(rng, n_events, n_windows, n_cells)
    check_window_flips(windows, cells, n_windows, n_cells)


@pytest.mark.parametrize("empty", [(0,), (5,), (11,), (0, 1, 5, 6, 10, 11), tuple(range(12))])
def test_window_flips_with_empty_windows(empty):
    """Windows with no event, first, in the middle and last, count and hit
    nothing and leave their neighbours' counts as the oracle's."""
    rng = np.random.default_rng(len(empty))
    n_windows, n_cells = 12, 16
    windows, cells = _random_events(rng, 3000, n_windows, n_cells)
    keep = ~np.isin(windows, empty)
    counts = check_window_flips(windows[keep], cells[keep], n_windows, n_cells)
    assert not counts[list(empty)].any()


@pytest.mark.parametrize("window_dtype", [np.int32, np.int64])
def test_window_flips_runs_of_two_to_seven_hits(window_dtype):
    """Cells hit 1 to 7 times within a window, in shuffled order; the
    highest cell takes 2 to 7 hits in every window, so after the key sort
    runs end on a window's last event and on the last event of all."""
    rng = np.random.default_rng(7)
    n_windows, n_cells = 9, 32
    windows, cells = [], []
    for w in range(n_windows):
        hit = rng.choice(n_cells - 1, 12, replace=False)
        runs = np.append(np.repeat(hit, rng.integers(1, 8, hit.size)),
                         np.full(2 + w % 6, n_cells - 1))
        windows.append(np.full(runs.size, w))
        cells.append(rng.permutation(runs))
    windows = np.concatenate(windows).astype(window_dtype)
    cells = np.concatenate(cells)
    counts = check_window_flips(windows, cells, n_windows, n_cells)
    assert np.bincount(windows, minlength=n_windows).sum() - counts.sum() > 0


def test_window_flips_int64_keys_match_unique():
    """4096 windows x 2**20 cells do not fit an int32 key; events crowd
    onto 300 cells, the highest cell among them, so runs are long."""
    n_windows, n_cells = 4096, 2**20
    assert n_windows * n_cells >= 2**31
    rng = np.random.default_rng(5)
    hot = np.append(rng.choice(n_cells, 299, replace=False), n_cells - 1)
    windows = np.sort(rng.integers(0, n_windows, 400_000))
    windows[-50:] = n_windows - 1
    cells = rng.choice(hot, windows.size)
    counts = check_window_flips(windows, cells, n_windows, n_cells, window_flips_unique)
    assert counts.sum() < windows.size  # some hits were masked


@pytest.mark.parametrize("windows, cells", [
    ([0.0, 0.5], [0, 1]),  # read as window 0
    ([0.0, 0.0, 0.0], [2, 2, 2]),  # a run of three: an IndexError
    ([False, True], [0, 1]),
], ids=["fractional", "float-run-of-three", "bool"])
def test_window_flips_refuse_windows_that_are_not_integers(windows, cells):
    with pytest.raises(ValueError, match="^windows must be integer indices"):
        kernels.window_observed_flips(np.array(windows), np.array(cells), 2, 4)


@pytest.mark.parametrize("cells", [[3.7, 3.2], [True, False]], ids=["fractional", "bool"])
def test_window_flips_refuse_cells_that_are_not_integers(cells):
    with pytest.raises(ValueError, match="^cells must be integer indices"):
        kernels.window_observed_flips(np.array([0, 1]), np.array(cells), 2, 4)


@pytest.mark.parametrize("cell_dtype", [np.int32, np.uint16])
@pytest.mark.parametrize("n_cells", [64, 2**28])
def test_window_flips_take_cells_of_any_integer_dtype(cell_dtype, n_cells):
    """``int32`` cells, as ``generate_events`` draws them, and narrower ones
    give the counts of ``int64`` cells, with an ``int32`` key (12 windows
    of 64 cells) and an ``int64`` one (12 windows of 2**28 cells)."""
    windows, cells = _random_events(np.random.default_rng(3), 20_000, 12, 64)
    want = kernels.window_observed_flips(windows, cells, 12, n_cells)
    got = kernels.window_observed_flips(windows, cells.astype(cell_dtype), 12, n_cells)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(want[0], window_flips_unique(windows, cells, 12, n_cells))


def test_window_flips_validation():
    with pytest.raises(ValueError):
        kernels.window_observed_flips(np.array([1, 0]), np.array([0, 0]), 2, 4)
    with pytest.raises(ValueError):
        kernels.window_observed_flips(np.array([2]), np.array([0]), 2, 4)
    with pytest.raises(ValueError):
        kernels.window_observed_flips(np.array([0, 1]), np.array([0]), 2, 4)
    with pytest.raises(ValueError, match="cell index"):
        kernels.window_observed_flips(np.array([0, 1]), np.array([0, 4]), 2, 4)
    with pytest.raises(ValueError, match="cell index"):
        kernels.window_observed_flips(np.array([0, 1]), np.array([-1, 0]), 2, 4)


def test_arrival_times_match_mask_and_copy():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        lam_total = float(rng.uniform(1e-4, 2.0))
        duration = float(rng.uniform(1.0, 2e4))
        got = _arrival_times(np.random.default_rng(seed), lam_total, duration)
        want = arrival_times_oracle(np.random.default_rng(seed), lam_total, duration)
        assert got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("lam_total, duration", [
    (1e-3, 5e4),  # about 50 arrivals: the 64-gap floor of the chunk
    (0.41, 432_000.0),  # a 4096-cell block at 100 uSEU/(bit*s): 177k
    (3.7, 1e4),
    (250.0, 7.5),
])
def test_arrival_times_equal_generator_exponential_draws(lam_total, duration):
    """The ``standard_exponential`` fill scaled in place gives the doubles
    of ``Generator.exponential``, and the cell draw starts where it did."""
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _arrival_times(rng, lam_total, duration)
        want = arrival_times_oracle(ref, lam_total, duration)
        assert got.tobytes() == want.tobytes(), seed
        assert rng.integers(2**62) == ref.integers(2**62)


def test_arrival_times_continuation_chunks():
    for seed in range(5):
        stub = ShortGapRng(seed)
        got = _arrival_times(stub, 0.5, 100.0)
        want = arrival_times_oracle(ShortGapRng(seed), 0.5, 100.0)
        assert stub.calls > 3
        assert got.tobytes() == want.tobytes(), seed
        assert np.all(np.diff(got) >= 0) and got[-1] < 100.0


def check_sweep(thresholds, v_start, delta_v, fail_v):
    """The kernel's histogram, ``mu`` and ``sigma`` are those of the
    per-cell registrations ``fail_v``, bit for bit: equal bits in a
    pairwise sum pin the per-cell midpoints in their order."""
    histogram, mu, sigma = kernels.sweep_registration(thresholds, v_start, delta_v)
    voltages, counts = np.unique(fail_v, return_counts=True)
    assert list(histogram.items()) == list(zip(voltages.tolist(), counts.tolist()))
    per_cell = fail_v + delta_v / 2
    assert mu.hex() == float(per_cell.mean()).hex()
    want = float(per_cell.std(ddof=1)) if per_cell.size > 1 else 0.0
    assert sigma.hex() == want.hex()


@pytest.mark.parametrize("delta_v", [1, 7, 10, 50])
def test_sweep_registration_matches_oracle(delta_v):
    rng = np.random.default_rng(delta_v)
    thresholds = np.clip(np.rint(rng.normal(800, 150, 2000)), 1, 1200).astype(np.int64)
    fail_v = sweep_oracle(thresholds, 1200, delta_v)
    # every registered voltage passes at one step above and fails where registered
    assert np.all(fail_v < thresholds)
    assert np.all(fail_v + delta_v >= thresholds)
    check_sweep(thresholds, 1200, delta_v, fail_v)


def check_sweep_statistics(thresholds, v_start, delta_v):
    """The sweep is that of the per-cell closed form, which is the
    step-down rule's; returns the per-cell registrations."""
    steps = np.maximum((v_start - thresholds) // delta_v + 1, 1)
    fail_v = np.maximum(v_start - delta_v * steps, 0)
    if v_start <= 1200:
        assert np.array_equal(fail_v, sweep_oracle(thresholds, v_start, delta_v))
    check_sweep(thresholds, v_start, delta_v, fail_v)
    return fail_v


@pytest.mark.parametrize("delta_v", [1, 7, 10, 50, 3, 1000])
def test_sweep_registration_thresholds_above_start(delta_v):
    """Thresholds up to 2**62 register as the per-cell closed form says,
    whether the span up to ``v_start`` is narrower than the cell count or,
    from ``v_start`` = 10**12, far wider; the step-down loop would take
    10**12 steps from there, so it checks only the lower starts."""
    rng = np.random.default_rng(100 + delta_v)
    thresholds = np.append(rng.integers(1, 1500, 3000), [2**62, 10**15])
    for v_start in (-50, 0, 1, 1000, 1200, 10**12):
        fail_v = check_sweep_statistics(thresholds, v_start, delta_v)
        # cells already failing at the start register at the first visited step
        assert np.all(fail_v[thresholds > v_start] == max(v_start - delta_v, 0))


@pytest.mark.parametrize("delta_v", [1, 3, 7, 10, 50, 1000])
def test_sweep_statistics_are_those_of_the_cells(delta_v, monkeypatch):
    """3000 thresholds up to 1499 take the per-voltage table; a block of
    40 cells, or the same 3000 with 2**62 and 10**15 among them, takes
    ``np.unique``; so does a block of one cell."""
    rng = np.random.default_rng(200 + delta_v)
    table = rng.integers(1, 1500, 3000)
    blocks = {"table": table, "unique": np.append(table, [2**62, 10**15]),
              "small": rng.integers(1, 1500, 40), "one": np.array([791])}
    unique, calls = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    for name, thresholds in blocks.items():
        calls.clear()
        kernels.sweep_registration(thresholds, 1200, delta_v)
        assert len(calls) == (name != "table")
        for v_start in (-50, 0, 1, 1200, 10**12):
            check_sweep_statistics(thresholds, v_start, delta_v)


def per_cell_mean(thresholds, v_start, delta_v):
    """The mean of the per-cell midpoints, gathered and summed pairwise."""
    steps = np.maximum((v_start - thresholds) // delta_v + 1, 1)
    return float((np.maximum(v_start - delta_v * steps, 0) + delta_v / 2.0).mean())


@st.composite
def sweeps(draw):
    """Odd and even steps, start voltages on either side of the ``2**52``
    bound of the exact mean, and thresholds either below the cell count
    (the per-voltage table) or near the start (``np.unique``)."""
    delta_v = draw(st.integers(1, 20) | st.integers(1, 2**20))
    n = draw(st.integers(1, 80))
    edge = 2**52 // n - delta_v  # within a step of the bound
    v_start = draw(st.integers(-50, 1500) | st.integers(edge - 3, edge + 3)
                   | st.integers(1, 2**62))
    if draw(st.booleans()):
        values = st.integers(1, max(n - 1, 1))
    else:
        values = st.integers(-3 * delta_v, 40 * delta_v).map(lambda o: max(v_start - o, 1))
    thresholds = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(thresholds, dtype=np.int64), v_start, delta_v


@settings(derandomize=True, max_examples=400, deadline=None)
@given(sweeps())
@example((np.arange(1, 41), 1200, 10))
@example((np.array([2**51 - 9, 5]), 2**51 - 2, 1))  # the top start of the exact mean
@example((np.array([2**51 - 9, 5]), 2**51 - 1, 1))  # one above: the per-cell mean
@example((126657711563980698 - np.array([8, 13, 1, 23, -5, 8]), 126657711563980698, 8))
def test_sweep_mean_is_the_per_cell_mean(sweep):
    """``mu`` from the counts is the per-cell mean, bit for bit, below the
    bound; above it the kernel takes the per-cell mean itself."""
    thresholds, v_start, delta_v = sweep
    _, mu, _ = kernels.sweep_registration(thresholds, v_start, delta_v)
    assert mu.hex() == per_cell_mean(thresholds, v_start, delta_v).hex()


def test_sweep_mean_above_the_bound_is_the_per_cell_mean():
    """Above the bound the midpoints and their sums round, and the per-cell
    mean, whose bits the fixed-seed outputs pin, differs from the dot
    product of the per-threshold counts and midpoints."""
    v_start, delta_v = 126657711563980698, 8
    thresholds = v_start - np.array([8, 13, 1, 23, -5, 8])
    _, mu, _ = kernels.sweep_registration(thresholds, v_start, delta_v)
    values, counts = np.unique(thresholds, return_counts=True)
    mid = v_start - delta_v * ((v_start - values) // delta_v + 1) + delta_v / 2.0
    assert mu == per_cell_mean(thresholds, v_start, delta_v) != float(counts @ mid) / 6


@pytest.mark.parametrize("thresholds", [
    [0, 1, 2, 3],  # the table branch: top below the cell count
    [-1, 1, 2, 3],
    [-5, -4],
    [0, 100],  # the np.unique branch
    [-5, 100],
])
def test_sweep_registration_refuses_thresholds_not_positive(thresholds):
    with pytest.raises(ConfigurationError, match="^sweep requires strictly positive thresholds$"):
        kernels.sweep_registration(np.array(thresholds), 1200, 10)


@pytest.mark.parametrize("thresholds", [[5.9, 7.2], [True, True]], ids=["fractional", "bool"])
def test_sweep_registration_refuses_thresholds_that_are_not_integers(thresholds):
    with pytest.raises(ConfigurationError, match="^sweep thresholds must be integers"):
        kernels.sweep_registration(np.array(thresholds), 1200, 10)


@pytest.mark.parametrize("v_start, delta_v, name", [
    (1200.0, 10, "v_start"), (True, 10, "v_start"), (1200, 2.5, "delta_v"),
    (1200, True, "delta_v"), (1200, np.float64(10.0), "delta_v")],
    ids=["float-start", "bool-start", "fractional-step", "bool-step", "numpy-float-step"])
def test_sweep_registration_refuses_a_start_or_step_that_is_not_an_integer(
        v_start, delta_v, name):
    with pytest.raises(ConfigurationError, match=f"^sweep {name} must be an integer"):
        kernels.sweep_registration(np.array([700, 800]), v_start, delta_v)


def test_sweep_registration_takes_numpy_integers_by_value():
    """A numpy ``uint64`` start or step keeps the grid in integers."""
    thresholds = np.array([700, 800, 900])
    expected = kernels.sweep_registration(thresholds, 1200, 10)
    for v_start, delta_v in [(np.uint64(1200), 10), (1200, np.uint64(10)),
                             (np.int32(1200), np.int8(10))]:
        histogram, mu, sigma = kernels.sweep_registration(thresholds, v_start, delta_v)
        assert (histogram, mu, sigma) == expected
        assert all(type(v) is int for v in histogram)


def test_sweep_registration_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        kernels.sweep_registration(np.array([0, 100]), 1200, 10)
    with pytest.raises(ConfigurationError):
        kernels.sweep_registration(np.array([100]), 1200, 0)
    with pytest.raises(ConfigurationError, match="at least one cell"):
        kernels.sweep_registration(np.array([], dtype=np.int64), 1200, 10)


def test_masked_mc_agrees_with_analytic():
    lam_ts = 0.02
    n = 2_000_000
    masked, total = kernels.masked_upsets_mc(lam_ts, n, 12345)
    f = undetected_fraction(lam_ts / 2, 2.0)  # lambda*ts = 0.02
    tol = 4.0 * math.sqrt(f * (1 - f) / total)
    assert abs(masked / total - f) <= tol


def test_masked_mc_deterministic():
    assert (kernels.masked_upsets_mc(1.5e-3, 100_000, 7)
            == kernels.masked_upsets_mc(1.5e-3, 100_000, 7))


def test_masked_mc_rejects_negative_rate():
    with pytest.raises(ValueError):
        kernels.masked_upsets_mc(-1.0, 10, 0)
