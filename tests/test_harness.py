"""Experiment-harness tests: scans, power, interpolation, TTE comparisons."""

from __future__ import annotations

import multiprocessing
import os
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cwtasim import (
    METHODS,
    Arm,
    ExperimentGrid,
    ReplicateScans,
    Trial,
    TransitionModel,
    compare_tte,
    estimate_power,
    interpolate_sample_size,
    load_profile,
    run_replicates,
    scan_trial,
    simulate_trial,
    summarize_tte,
)
from cwtasim import harness, trajectories
from cwtasim.harness import plan_blocks, plan_grid_blocks, replicate_seed
from cwtasim.statistics import Endpoint, count_tests, endpoint_arrays, endpoint_counts, monthly_counts, monthly_terms, scipy_special
from cwtasim.trajectories import simulate_trials

from oracles import (
    Record,
    naive_endpoint,
    naive_logrank_sums,
    norm_two_sided_p,
    run_replicates_one_by_one,
    scan_one_trial,
    welch_t_df,
)

TOL = 1e-12

MODEL = TransitionModel(
    improve_prob=(0.0, 0.05, 0.03, 0.0, 0.0),
    worsen_prob=(0.03, 0.1, 0.06, 0.12, 0.0),
    improve_decay=0.95,
    horizon_months=24,
)


def small_trial(seed=11, ss=40, hr=0.6):
    return simulate_trial(MODEL, hr, ss, seed)


# ------------------------------------------------------------ trial scans


def truncate(trial, month):
    """The trial as seen at month: everyone still under observation is censored there."""
    return Trial(
        states=trial.states[:, : month + 1].copy(),
        censor=np.minimum(trial.censor, month),
        arms=trial.arms,
        dropped=trial.dropped & (trial.censor <= month),
    )


def test_scan_prefix_sums_equal_truncated_recomputation():
    """The monthly scan must equal analyzing truncated data from scratch.

    Cumulative per-month terms at month m are compared against rebuilding
    the weighted event sums from trajectories administratively censored at m.
    This is the dual route that justifies computing scans as prefix sums.
    """
    trial = small_trial()
    horizon = MODEL.horizon_months
    (ome,), (v,) = monthly_terms(*monthly_counts(trial)["CWTA"])
    for month in (1, 3, 7, 12, 24):
        (t_ome,), (t_v,) = monthly_terms(*monthly_counts(truncate(trial, month))["CWTA"])
        assert float(t_ome.sum()) == pytest.approx(float(ome[:month].sum()), abs=TOL)
        assert float(t_v.sum()) == pytest.approx(float(v[:month].sum()), abs=TOL)


def test_scan_logrank_prefix_sums_equal_truncated_recomputation():
    trial = small_trial(seed=5)
    horizon = MODEL.horizon_months
    times, events = endpoint_arrays(trial.states, trial.censor, 3)
    (ome,), (v,) = monthly_terms(*endpoint_counts(times, events, trial.arms, horizon, np.zeros_like(times)))
    for month in (2, 5, 9, 16, 24):
        truncated = truncate(trial, month)
        t_times, t_events = endpoint_arrays(truncated.states, truncated.censor, 3)
        (t_ome,), (t_v,) = monthly_terms(
            *endpoint_counts(t_times, t_events, truncated.arms, month, np.zeros_like(t_times))
        )
        assert float(t_ome.sum()) == pytest.approx(float(ome[:month].sum()), abs=TOL)
        assert float(t_v.sum()) == pytest.approx(float(v[:month].sum()), abs=TOL)


def test_scan_trial_final_p_matches_direct_tests():
    trial = small_trial(seed=21)
    (final_p,), (first_month,) = scan_trial(trial, alpha=0.05)
    assert final_p.shape == first_month.shape == (len(METHODS),)
    direct = count_tests(monthly_counts(trial))
    for method in METHODS:
        assert final_p[METHODS.index(method)] == pytest.approx(direct[method].p_value, abs=TOL)
    for kind in Endpoint:  # analyze's KM tests against per-event-time logrank sums
        records = []
        for states, last, arm in zip(trial.states, trial.censor, trial.arms):
            time, event = naive_endpoint(states[: last + 1].tolist(), kind)
            records.append(Record(time=time, event=event, arm=Arm(arm)))
        o_minus_e, variance = naive_logrank_sums(records)
        z = o_minus_e / np.sqrt(variance)
        result = direct[kind.name]
        assert result.observed_minus_expected == pytest.approx(o_minus_e, abs=TOL)
        assert result.variance == pytest.approx(variance, abs=TOL)
        assert result.z == pytest.approx(z, abs=TOL)
        assert result.p_value == pytest.approx(norm_two_sided_p(z), abs=TOL)
    # first significant month: 0 (never) or a month of the horizon
    for first in first_month:
        assert first == 0 or 1 <= first <= MODEL.horizon_months


def test_scan_first_month_is_earliest_significant():
    trial = small_trial(seed=33, ss=120, hr=0.4)
    alpha = 0.05
    _, (first_month,) = scan_trial(trial, alpha)
    (ome,), (v,) = monthly_terms(*monthly_counts(trial)["CWTA"])
    cum_o, cum_v = np.cumsum(ome), np.cumsum(v)
    sig_months = [
        m + 1
        for m in range(len(cum_o))
        if cum_v[m] > 0 and 2 * stats.norm.sf(abs(cum_o[m] / np.sqrt(cum_v[m]))) < alpha
    ]
    expected = sig_months[0] if sig_months else 0
    assert first_month[METHODS.index("CWTA")] == expected


def test_scan_of_a_block_is_the_scan_of_each_trial():
    """Row r of a block's scan equals the R = 1 scan and the one-trial oracle."""
    seeds = np.array([3, 4, 2**64 - 1], dtype=np.uint64)
    block = simulate_trials(MODEL, ((0.6, 30, seeds),))
    final_p, first_month = scan_trial(block, 0.05)
    assert final_p.shape == first_month.shape == (3, len(METHODS))
    for r, seed in enumerate(seeds):
        one = small_trial(seed=int(seed), ss=30)
        (p_one,), (first_one,) = scan_trial(one, 0.05)
        assert np.array_equal(final_p[r], p_one, equal_nan=True)
        assert np.array_equal(first_month[r], first_one)
        oracle = scan_one_trial(one, 0.05)
        assert np.array_equal(p_one, [oracle[m].final_p for m in METHODS], equal_nan=True)
        assert first_one.tolist() == [oracle[m].first_significant_month or 0 for m in METHODS]


# ------------------------------------------------------------- replicates


def test_replicate_seed_depends_on_all_coordinates():
    base = replicate_seed(1, 0.5, 100, 0)
    assert replicate_seed(1, 0.5, 100, 1) != base
    assert replicate_seed(1, 0.5, 102, 0) != base
    assert replicate_seed(1, 0.7, 100, 0) != base
    assert replicate_seed(2, 0.5, 100, 0) != base
    assert replicate_seed(1, 0.5, 100, 0) == base


def assert_same_scans(a, b):
    assert a.final_p.shape == b.final_p.shape == b.first_month.shape
    assert np.array_equal(a.final_p, b.final_p, equal_nan=True)
    assert np.array_equal(a.first_month, b.first_month)


def test_run_replicates_deterministic_and_worker_invariant():
    kwargs = dict(hr=0.6, ss=30, replicates=12, profile=MODEL, master_seed=7)
    serial = run_replicates(**kwargs, workers=1)
    assert serial.final_p.shape == serial.first_month.shape == (12, len(METHODS))
    assert_same_scans(serial, run_replicates(**kwargs, workers=1))
    assert_same_scans(serial, run_replicates(**kwargs, workers=3))


@pytest.mark.parametrize("block_rows", [1, 10**6])
@pytest.mark.parametrize("workers", [1, 2])
def test_output_is_invariant_to_block_split_and_worker_count(monkeypatch, block_rows, workers):
    """One replicate per block, or every replicate in one block, on one or two
    processes: the same rows as the default split."""
    kwargs = dict(hr=0.7, ss=20, replicates=9, profile=load_profile("moderate"), master_seed=5)
    expected = run_replicates(**kwargs)
    monkeypatch.setattr(harness, "BLOCK_ROWS", block_rows)
    assert_same_scans(expected, run_replicates(**kwargs, workers=workers))


# (sample size, replicates): small blocks at every size, and blocks of just
# under and just over BLOCK_ROWS subject rows (one block, then two)
ORACLE_CASES = [(n, r) for n in (2, 4, 20, 62, 800) for r in (1, 3)] + [
    (n, r) for n in (20, 62, 800) for r in ((harness.BLOCK_ROWS - 1) // n, harness.BLOCK_ROWS // n + 1)
]


@settings(max_examples=25, deadline=None)
@given(
    master_seed=st.one_of(st.sampled_from([0, 101, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    hr=st.floats(0.5, 1.0),
    case=st.sampled_from(ORACLE_CASES),
    profile=st.sampled_from(["moderate", "high"]),
    alpha=st.sampled_from([0.01, 0.05]),
)
def test_run_replicates_matches_one_by_one_oracle(master_seed, hr, case, profile, alpha):
    """The block engine reproduces the per-replicate reference bit for bit:
    final p-values (NaN where degenerate) and first significant months."""
    n, replicates = case
    model = load_profile(profile)
    got = run_replicates(hr, n, replicates, model, master_seed, alpha)
    final_p, first_month = run_replicates_one_by_one(hr, n, replicates, model, master_seed, alpha)
    assert_same_scans(got, ReplicateScans(final_p, first_month))


@settings(max_examples=12, deadline=None)
@given(
    master_seed=st.one_of(st.sampled_from([0, 101, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    profile=st.sampled_from(["moderate", "high"]),
    hrs=st.lists(st.floats(0.5, 1.0), min_size=2, max_size=3, unique=True),
    counts=st.lists(st.integers(1, 7), min_size=3, max_size=3),
    block_rows=st.sampled_from([6, 16, 30]),
    more_sizes=st.lists(st.sampled_from([4, 6, 10, 20]), max_size=2, unique=True),
    alpha=st.sampled_from([0.01, 0.05]),
)
def test_grid_blocks_spanning_points_match_one_by_one_oracle(
    master_seed, profile, hrs, counts, block_rows, more_sizes, alpha
):
    """With a small row budget, blocks span hazard ratios and sample sizes;
    every point of the grid still equals the per-replicate reference bit for
    bit, in grid order, on one process and on two."""
    sizes = tuple(dict.fromkeys([2, block_rows + 2, *more_sizes]))  # 2, and one trial above the budget
    replicates = dict(zip(hrs, counts))
    model = load_profile(profile)
    grid = ExperimentGrid(tuple(hrs), sizes, replicates, alpha, model, master_seed)
    expected = {
        (hr, ss): ReplicateScans(*run_replicates_one_by_one(hr, ss, replicates[hr], model, master_seed, alpha))
        for hr in hrs
        for ss in sizes
    }
    with mock.patch.object(harness, "BLOCK_ROWS", block_rows):
        for workers in (1, 2):
            points = list(harness.run_grid(grid, workers))
            assert [(hr, ss) for hr, ss, _ in points] == list(expected)
            for hr, ss, scans in points:
                assert_same_scans(scans, expected[hr, ss])


def test_plan_blocks_cover_replicates_within_the_row_budget(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK_ROWS", 100)
    for replicates in (1, 2, 7, 50, 101):
        for ss in (2, 30, 100, 150):
            for workers in (1, 2, 3, 8):
                blocks = list(plan_blocks(replicates, ss, workers))
                covered = [r for start, stop in blocks for r in range(start, stop)]
                assert covered == list(range(replicates))  # each once, in order
                for start, stop in blocks:
                    assert (stop - start) * ss <= 100 or stop - start == 1
                if workers > 1:
                    assert len(blocks) >= min(workers, replicates)
    assert list(plan_blocks(3, 150)) == [(0, 1), (1, 2), (2, 3)]  # a trial above the budget alone
    assert list(plan_blocks(7, 30)) == [(0, 2), (2, 4), (4, 7)]  # 3 per block at most, sizes even
    assert list(plan_blocks(7, 30, workers=2)) == [(0, 1), (1, 3), (3, 5), (5, 7)]  # 2 per worker


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(1, 9), st.sampled_from([2, 4, 30, 100, 150])), min_size=1, max_size=6),
    workers=st.integers(1, 4),
)
def test_plan_grid_blocks_cover_the_replicate_sequence_within_the_row_budget(points, workers):
    """Blocks are consecutive runs of the grid's replicate sequence, each
    within the row budget or a single replicate, and cover every replicate
    once, in order; every point keeps plan_blocks' split, so a one-point
    grid is exactly that split."""
    with mock.patch.object(harness, "BLOCK_ROWS", 100):
        blocks = list(plan_grid_blocks(points, workers))
        sequence = [(point, r) for block in blocks for point, start, stop in block for r in range(start, stop)]
        assert sequence == [(point, r) for point, (replicates, _) in enumerate(points) for r in range(replicates)]
        for block in blocks:
            assert all(start < stop for _, start, stop in block)
            # runs within a block follow each other: a run starts a point only where the one before ended it
            for (p0, _, stop0), (p1, start1, _) in zip(block, block[1:]):
                assert p1 == p0 + 1 and stop0 == points[p0][0] and start1 == 0
            rows = sum((stop - start) * points[point][1] for point, start, stop in block)
            assert rows <= 100 or (len(block) == 1 and block[0][2] - block[0][1] == 1)
        for point, (replicates, ss) in enumerate(points):
            runs = [(start, stop) for block in blocks for p, start, stop in block if p == point]
            assert runs == list(plan_blocks(replicates, ss, workers))


def test_plan_grid_blocks_pack_small_points_together(monkeypatch):
    """Small points share blocks up to the row budget; a trial above the
    budget is a block on its own, and the point after it starts a new
    block. On a pooled run each point keeps its worker-balanced split."""
    monkeypatch.setattr(harness, "BLOCK_ROWS", 100)
    assert list(plan_grid_blocks([(3, 20), (2, 10), (2, 150), (1, 30)])) == [
        ((0, 0, 3), (1, 0, 2)),
        ((2, 0, 1),),
        ((2, 1, 2),),
        ((3, 0, 1),),
    ]
    assert list(plan_grid_blocks([(4, 10), (4, 10), (4, 10)], workers=2)) == [
        ((0, 0, 2),),
        ((0, 2, 4), (1, 0, 2)),
        ((1, 2, 4), (2, 0, 2)),
        ((2, 2, 4),),
    ]


def test_grid_small_n_shape_runs_as_two_blocks():
    """HR 0.5 and 0.7 x n 20, 40, 60 x 30 replicates: 7 200 subject rows run as
    two kernel passes at workers 1, not one per grid point, and give the
    rows of each point run on its own."""
    calls = []
    kernel = trajectories._simulate_state_matrix

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return kernel(*args, **kwargs)

    model = load_profile("moderate")
    grid = ExperimentGrid(hazard_ratios=(0.5, 0.7), sample_sizes=(20, 40, 60), replicates=30, profile=model, master_seed=3)
    with mock.patch.object(trajectories, "_simulate_state_matrix", counted):
        points = list(harness.run_grid(grid, workers=1))
    assert len(calls) == 2 and sum(calls) == 7200, calls
    for hr, ss, scans in points:
        assert_same_scans(scans, run_replicates(hr, ss, 30, model, 3))


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the machine has, so that a grid at workers 2
    starts a worker even on a one-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture()
def process_starts(monkeypatch):
    """The names of the worker processes started while the test runs."""
    starts = []

    class SpyProcess(multiprocessing.Process):
        def start(self):
            starts.append(self.name)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", SpyProcess)
    return starts


@pytest.mark.parametrize(
    "sizes, replicates",
    [((2,), 12), ((2, 4, 6), 2)],  # one point of 12 blocks; three points of 2 blocks each
    ids=["one_point", "three_points"],
)
def test_interrupt_cancels_queued_blocks(tmp_path, monkeypatch, sizes, replicates, two_cpus):
    """A KeyboardInterrupt from the caller's block propagates through
    run_grid at once, the worker stuck in its first block is killed, and
    the blocks still owed by either process never run, whichever grid point
    they belong to. No process is left behind. Each block marks its start
    with a file, which a forked worker can write too; no signal is sent."""
    caller = os.getpid()

    def run_block(grid, runs):
        [(_, ss, start, stop)] = runs  # one replicate per block
        (tmp_path / f"{ss}-{start}").touch()
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # outlasts the test unless the worker is killed
        return np.zeros((stop - start, 3)), np.zeros((stop - start, 3), dtype=np.int64)

    monkeypatch.setattr(harness, "_run_block", run_block)
    monkeypatch.setattr(harness, "BLOCK_ROWS", 2)  # one replicate per block
    grid = ExperimentGrid(hazard_ratios=(0.7,), sample_sizes=sizes, replicates=replicates, profile=MODEL)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        list(harness.run_grid(grid, workers=2))
    assert time.perf_counter() - began < 30
    assert multiprocessing.active_children() == []
    # block 0 in the caller, and block 1 if the worker took it up before it was killed;
    # the other blocks, of every point of the three-point grid, must never run
    order = [f"{ss}-{start}" for ss in sizes for start in range(replicates)]
    ran = sorted(path.name for path in tmp_path.iterdir())
    assert ran in ([order[0]], sorted(order[:2])), ran


def test_worker_failure_is_raised_by_the_caller(monkeypatch, two_cpus):
    """An exception raised in a worker's block reaches the caller as itself,
    and no process is left behind."""
    caller, run_block = os.getpid(), harness._run_block

    def failing(grid, runs):
        if os.getpid() != caller:
            raise ArithmeticError(f"block {runs} failed")
        return run_block(grid, runs)

    monkeypatch.setattr(harness, "_run_block", failing)
    grid = ExperimentGrid(hazard_ratios=(0.7,), sample_sizes=(20, 40), replicates=3, profile=MODEL)
    # three blocks: the worker owes block 1, replicates 1..2 of n 20 and 0 of n 40
    with pytest.raises(ArithmeticError, match=re.escape("block ((0.7, 20, 1, 3), (0.7, 40, 0, 1)) failed")):
        list(harness.run_grid(grid, workers=2))
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_child_process_error(monkeypatch, two_cpus):
    """A worker that dies without sending its block ends the run with one
    ChildProcessError naming its exit code and the block it owed: no hang,
    no process left behind."""
    caller, run_block = os.getpid(), harness._run_block

    def dying(grid, runs):
        if os.getpid() != caller:
            os._exit(7)
        return run_block(grid, runs)

    monkeypatch.setattr(harness, "_run_block", dying)
    grid = ExperimentGrid(hazard_ratios=(0.7,), sample_sizes=(20, 40), replicates=3, profile=MODEL)
    began = time.perf_counter()
    owed = "block 1 (HR 0.7 n 20 replicates 1..2, HR 0.7 n 40 replicates 0..0)"
    with pytest.raises(ChildProcessError, match=re.escape(f"worker process 1 exited with code 7 before returning {owed}")):
        list(harness.run_grid(grid, workers=2))
    assert time.perf_counter() - began < 30
    assert multiprocessing.active_children() == []


def test_run_grid_runs_one_pool_in_grid_order(monkeypatch, two_cpus, process_starts):
    """A multi-point grid at workers 2 starts exactly one worker process,
    yields its points in grid order, and gives each point the rows of
    run_replicates at workers 1; at workers 1 no process is started, and
    none is started beyond the block count."""
    starts = process_starts
    monkeypatch.setattr(harness, "BLOCK_ROWS", 60)  # several blocks per point
    grid = ExperimentGrid(
        hazard_ratios=(0.5, 0.7), sample_sizes=(20, 40, 62), replicates={0.5: 9, 0.7: 5}, profile=MODEL, master_seed=11
    )
    points = list(harness.run_grid(grid, workers=2))
    assert len(starts) == 1
    assert [(hr, ss) for hr, ss, _ in points] == [(hr, ss) for hr in (0.5, 0.7) for ss in (20, 40, 62)]
    for hr, ss, scans in points:
        assert_same_scans(scans, run_replicates(hr, ss, grid.replicates_for(hr), MODEL, 11, workers=1))
    assert len(starts) == 1
    # at workers 3: two blocks start one worker, one block none
    for replicates, started in ((2, 1), (1, 0)):
        starts.clear()
        [(_, _, scans)] = harness.run_grid(ExperimentGrid((0.7,), (62,), replicates, profile=MODEL, master_seed=11), workers=3)
        assert len(starts) == started
        assert_same_scans(scans, run_replicates(0.7, 62, replicates, MODEL, 11))
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
        next(harness.run_grid(grid, workers=0))


def test_library_grid_is_capped_at_the_usable_cpus(monkeypatch, two_cpus, process_starts):
    """run_grid at workers 5 on a grid of 12 blocks, with two usable CPUs,
    starts one worker, not four, and gives each point the rows of workers 1."""
    monkeypatch.setattr(harness, "BLOCK_ROWS", 60)  # 3 blocks at n 20, 9 at n 40
    grid = ExperimentGrid(hazard_ratios=(0.7,), sample_sizes=(20, 40), replicates=9, profile=MODEL, master_seed=11)
    points = list(harness.run_grid(grid, workers=5))
    assert len(process_starts) == 1
    for (hr, ss, scans), (_, _, serial) in zip(points, harness.run_grid(grid, workers=1), strict=True):
        assert_same_scans(scans, serial)
    assert multiprocessing.active_children() == []


def test_pooled_grid_in_a_daemonic_process_runs_in_process(two_cpus):
    """A multiprocessing.Pool worker is daemonic and may start no process:
    run_replicates at workers 2 there runs both its blocks in process and
    gives the rows of workers 1, and no process is left behind."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        scans = pool.apply(run_replicates, (0.7, 60, 30, MODEL, 0), {"workers": 2})
    assert_same_scans(scans, run_replicates(0.7, 60, 30, MODEL, 0))
    assert multiprocessing.active_children() == []


def test_closed_grid_kills_its_worker(two_cpus):
    """A pooled grid closed after its first point leaves no process behind."""
    grid = ExperimentGrid(hazard_ratios=(0.5, 0.7), sample_sizes=(20, 40), replicates=300, profile=MODEL, master_seed=3)
    points = harness.run_grid(grid, workers=2)
    assert next(points)[:2] == (0.5, 20)
    assert len(multiprocessing.active_children()) == 1
    points.close()
    assert multiprocessing.active_children() == []


def test_run_grid_is_lazy():
    """The first point of a grid whose second point is 10**7 replicates at
    n 500, 1.25 M blocks, comes back without its plan or its scans being
    held: a plan held whole takes about 230 MB, its first block under 1 MB."""
    grid = ExperimentGrid(hazard_ratios=(0.5, 0.7), sample_sizes=(500,), replicates={0.5: 2, 0.7: 10**7}, profile=MODEL)
    scipy_special()  # loaded before tracing: module import is not the grid's memory
    tracemalloc.start()
    try:
        points = harness.run_grid(grid)
        hr, ss, scans = next(points)
        peak = tracemalloc.get_traced_memory()[1]
        points.close()
    finally:
        tracemalloc.stop()
    assert (hr, ss, len(scans.final_p)) == (0.5, 500, 2)
    assert peak < 50 * 2**20, peak


def test_plan_blocks_is_lazy():
    blocks = plan_blocks(10**12, 2)
    assert next(blocks) == (0, harness.BLOCK_ROWS // 2)


def test_estimate_power_recounts_final_p():
    results = run_replicates(hr=0.4, ss=60, replicates=40, profile=MODEL, master_seed=3)
    for k, method in enumerate(METHODS):
        est = estimate_power(results, method, 0.05, hr=0.4, ss=60)
        manual = sum(1 for p in results.final_p[:, k] if p < 0.05) / 40
        assert est.power == pytest.approx(manual, abs=TOL)
        assert est.replicates == 40
    with pytest.raises(ValueError):
        estimate_power(ReplicateScans(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)), "CWTA", 0.05, 0.4, 60)


# ---------------------------------------------------------- interpolation


def test_interpolation_linear_segment():
    points = [(20, 0.3), (40, 0.55), (60, 0.72), (80, 0.86), (100, 0.93)]
    got = interpolate_sample_size(points, target=0.8)
    assert got == pytest.approx(60 + 20 * (0.8 - 0.72) / (0.86 - 0.72), abs=TOL)


def test_interpolation_pools_monotonicity_violations():
    """Noisy dip between 40 and 60 is pooled to their mean before interpolating."""
    points = [(20, 0.3), (40, 0.62), (60, 0.55), (80, 0.86)]
    pooled = (0.62 + 0.55) / 2
    got = interpolate_sample_size(points, target=0.8)
    assert got == pytest.approx(60 + 20 * (0.8 - pooled) / (0.86 - pooled), abs=TOL)


def test_interpolation_boundary_hits():
    assert interpolate_sample_size([(50, 0.5), (100, 0.8)], target=0.8) == pytest.approx(100.0)
    # smallest grid point already past target: returned as-is
    assert interpolate_sample_size([(50, 0.85), (100, 0.9)], target=0.8) == pytest.approx(50.0)


def test_interpolation_errors_name_the_max_power():
    with pytest.raises(ValueError, match="0.7000"):
        interpolate_sample_size([(50, 0.5), (100, 0.7)], target=0.8)
    with pytest.raises(ValueError):
        interpolate_sample_size([], target=0.8)
    with pytest.raises(ValueError):
        interpolate_sample_size([(50, 0.5), (50, 0.6)], target=0.8)
    with pytest.raises(ValueError):
        interpolate_sample_size([(50, 0.5)], target=1.5)


def test_interpolation_unsorted_input_is_sorted():
    points = [(80, 0.86), (20, 0.3), (60, 0.72), (40, 0.55)]
    got = interpolate_sample_size(points, target=0.8)
    assert got == pytest.approx(60 + 20 * (0.8 - 0.72) / (0.86 - 0.72), abs=TOL)


# ------------------------------------------------------------------- TTE


def test_summarize_tte_mean_and_sd():
    def results(*cwta_firsts):
        """Scans whose CWTA column holds the given first months (0 = never)."""
        first_month = np.zeros((len(cwta_firsts), len(METHODS)), dtype=np.int64)
        first_month[:, METHODS.index("CWTA")] = cwta_firsts
        return ReplicateScans(np.full(first_month.shape, 0.5), first_month)

    s = summarize_tte(results(10, 20, 0), "CWTA", hr=0.5, ss=100)
    assert s.mean_months == pytest.approx(15.0, abs=TOL)
    assert s.sd_months == pytest.approx(np.sqrt(50.0), abs=TOL)
    assert (s.n_included, s.n_omitted) == (2, 1)

    none_at_all = summarize_tte(results(0), "CWTA", hr=0.5, ss=100)
    assert none_at_all.mean_months is None
    assert none_at_all.sd_months is None
    assert (none_at_all.n_included, none_at_all.n_omitted) == (0, 1)

    single = summarize_tte(results(8), "CWTA", hr=0.5, ss=100)
    assert single.mean_months == pytest.approx(8.0)
    assert single.sd_months is None


def test_compare_tte_matches_hand_welch_and_scipy():
    a = [4.0, 6.0, 7.0, 9.0, 12.0]
    b = [10.0, 15.0, 18.0, 22.0]
    got = compare_tte(a, b)
    t_hand, df_hand = welch_t_df(a, b)
    assert got.t_statistic == pytest.approx(t_hand, abs=1e-10)
    assert got.df == pytest.approx(df_hand, abs=1e-10)
    ref = stats.ttest_ind(a, b, equal_var=False)
    assert got.t_statistic == pytest.approx(float(ref.statistic), abs=1e-10)
    assert got.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)
    assert got.pct_delta == pytest.approx((np.mean(b) - np.mean(a)) / np.mean(b), abs=TOL)
    assert not got.zero_variance


def test_compare_tte_p_value_is_scipy_t_sf_bit_for_bit():
    rng = np.random.default_rng(1301)
    samples = [
        ([1.0, 2.0, 3.0], [0.0, 2.0, 4.0]),  # t = 0
        ([0.0, 1000.0], [5.0, 5.001]),  # df near 1
        (rng.normal(12.0, 3.0, 60_000), rng.normal(12.02, 4.0, 70_000)),  # df above 1e5
    ]
    sizes = rng.integers(2, 300, (300, 2))
    samples += [(rng.integers(1, 61, na), rng.integers(1, 61, nb)) for na, nb in sizes[:150]]
    samples += [(rng.gamma(2.0, 6.0, na), rng.gamma(2.0, 6.5, nb)) for na, nb in sizes[150:]]
    got = [compare_tte(a, b) for a, b in samples]
    assert got[0].t_statistic == 0.0 and got[0].p_value == 1.0
    assert 1.0 < got[1].df < 1.0001
    assert got[2].df > 1e5 and got[2].p_value < 0.9
    for g in got:
        assert g.p_value == 2.0 * stats.t.sf(abs(g.t_statistic), g.df)


def test_compare_tte_identical_samples():
    got = compare_tte([5.0, 7.0, 9.0], [5.0, 7.0, 9.0])
    assert got.pct_delta == pytest.approx(0.0, abs=TOL)
    assert got.p_value == pytest.approx(1.0, abs=1e-12)


def test_compare_tte_degenerate_cases():
    with pytest.raises(ValueError):
        compare_tte([], [1.0])
    single = compare_tte([5.0], [7.0, 9.0])
    assert single.p_value is None and single.t_statistic is None
    zero_var_equal = compare_tte([3.0, 3.0], [3.0, 3.0])
    assert zero_var_equal.zero_variance and zero_var_equal.p_value == 1.0
    zero_var_apart = compare_tte([3.0, 3.0], [4.0, 4.0])
    assert zero_var_apart.zero_variance and zero_var_apart.p_value == 0.0


def test_compare_tte_direction():
    earlier = compare_tte([4.0, 5.0, 6.0], [10.0, 11.0, 12.0])
    assert earlier.pct_delta > 0  # sample A signals earlier
    assert earlier.t_statistic < 0
    later = compare_tte([10.0, 11.0, 12.0], [4.0, 5.0, 6.0])
    assert later.pct_delta < 0


# ------------------------------------------------------------------- grid


def test_experiment_grid_validation():
    with pytest.raises(ValueError):
        ExperimentGrid(hazard_ratios=(), sample_sizes=(100,), replicates=10)
    with pytest.raises(ValueError):
        ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(101,), replicates=10)
    with pytest.raises(ValueError):
        ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(100,), replicates=0)
    with pytest.raises(ValueError):
        ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(100,), replicates=10, alpha=1.5)
    with pytest.raises(ValueError):
        ExperimentGrid(hazard_ratios=(-0.5,), sample_sizes=(100,), replicates=10)
    with pytest.raises(ValueError):
        ExperimentGrid(hazard_ratios=(0.5, 0.7), sample_sizes=(100,), replicates={0.5: 100})
    for replicates in (10**7 + 1, {0.5: 10**15}):
        with pytest.raises(ValueError, match="replicates must lie in 1..10000000"):
            ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(100,), replicates=replicates)
    # the profile's own rules: a model, a hazard ratio it can take, and trials small enough to draw
    with pytest.raises(ValueError, match="^profile: must be a TransitionModel, got 'moderate'$"):
        ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(100,), replicates=10, profile="moderate")
    message = "hazard ratio 100.0 does not fit the profile: improve_prob[1] + worsen_prob[1] exceeds 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentGrid(hazard_ratios=(0.5, 100), sample_sizes=(100,), replicates=10)
    with pytest.raises(ValueError, match="^sample size 2000000000 at a 60-month horizon needs 124000000000 uniforms"):
        ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(20, 2_000_000_000), replicates=10)
    assert ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(100,), replicates=10).profile == load_profile("moderate")
    grid = ExperimentGrid(hazard_ratios=(0.5, 0.7), sample_sizes=(100,), replicates={0.5: 100, 0.7: 200})
    assert grid.replicates_for(0.5) == 100
    assert grid.replicates_for(0.7) == 200
    flat = ExperimentGrid(hazard_ratios=(0.5,), sample_sizes=(100,), replicates=25)
    assert flat.replicates_for(0.5) == 25


# ------------------------------------------------- published-table pins


def test_power_at_published_sample_size_row():
    """Power at the published 80%-power sample size (HR 0.7, CWTA SS 130).

    The source table was produced with unpublished baseline probabilities;
    under this package's exact-discrete proportional-hazards transform the
    interpolated CWTA requirement at HR 0.7 sits far above 130, so the
    +/-0.08 band on 0.80 is not attainable.  The pin is kept as written
    and allowed to fail rather than loosened (see the decisions ledger).
    """
    results = run_replicates(0.7, 130, 1000, load_profile("moderate"), master_seed=0)
    power = estimate_power(results, "CWTA", 0.05, hr=0.7, ss=130).power
    print(f"\nCWTA power at HR 0.7 / SS 130: {power:.4f} (published row implies ~0.80)")
    assert abs(power - 0.80) <= 0.08


def test_tte_means_against_published_row():
    """Mean first-significance months vs the published HR 0.5 / SS 150 row
    (12.4 / 22.6 / 33.1 for CWTA / PFS / OS, each +/-35%, ordered).

    Geometric monthly transitions concentrate first crossings much earlier
    than the published PFS and OS means, so the +/-35% bands on those two
    are not attainable; kept as written (see the decisions ledger).
    """
    results = run_replicates(0.5, 150, 100, load_profile("moderate"), master_seed=0)
    published = {"CWTA": 12.4, "PFS": 22.6, "OS": 33.1}
    means = {m: summarize_tte(results, m, 0.5, 150).mean_months for m in METHODS}
    print("\nmean first-significance months: "
          + ", ".join(f"{m} {means[m]:.2f} (published {published[m]})" for m in METHODS))
    assert means["CWTA"] < means["PFS"] < means["OS"]
    for m, target in published.items():
        assert abs(means[m] - target) <= 0.35 * target
