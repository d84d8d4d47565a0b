"""Monte Carlo experiment harness: power, 80%-power sample size, and
time-to-first-efficacy-signal scans.

Each replicate simulates one trial and evaluates KM-PFS, KM-OS and the
weighted trajectory test on the data truncated at every month 1..horizon:
statistics.scan_trial, whose monthly statistics are exact prefix sums of
per-month terms computed once (see statistics._scan).

A grid's replicates form one sequence: its points in grid order and,
within a point, replicates in index order. The sequence runs in blocks of
consecutive replicates, at most BLOCK_ROWS subject rows each (a larger
trial is a block on its own), and a block may span points of different
hazard ratio and sample size. A block runs as flat subject rows: its
streams are drawn in one pass and its trials simulated in one kernel pass
(trajectories.simulate_trials), then scanned together (scan_trial) from
one monthly_counts pass keyed by the trial boundaries, every per-month
array carrying a leading trial axis. Results are columns, one row per
replicate and one column per method. Every grid command runs through
run_grid, which takes the grid alone: profile, alpha and seed included.
Its blocks run through pool.in_order, the process map that calibration's
per-process passes share, on the processes that pool.process_limit
allows of workers: block i runs in process i % that count, the calling
process being process 0, and the results come back in block order. On
one process the caller runs every block and never imports
multiprocessing.

Replicate seeds are mixed from (master_seed, hazard-ratio bits, sample
size, replicate index), and every step treats trials independently, so
every grid point is reproducible in isolation and results are the same
for any block split, worker count and execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import sqrt
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .config import ExperimentGrid
from .pool import in_order, process_limit
from .seeds import float_bits, mix64_array
from .statistics import METHODS, scan_trial, scipy_special
from .trajectories import TransitionModel, simulate_trials


class ReplicateScans(NamedTuple):
    """Scans of R replicates: row r is replicate r, columns follow METHODS.

    final_p is the p-value at the horizon, NaN when the test is degenerate
    even on the full data; first_month is the first significant month,
    0 when no month reaches significance.
    """

    final_p: np.ndarray
    first_month: np.ndarray


@dataclass(frozen=True)
class PowerEstimate:
    method: str
    hr: float
    ss: int
    power: float
    replicates: int


@dataclass(frozen=True)
class SampleSizeEstimate:
    """sample_size is None when the grid does not reach the target power;
    unreached then gives the peak smoothed power."""

    method: str
    hr: float
    sample_size: float | None
    unreached: str | None = None


class TargetNotReachedError(ValueError):
    """No sample size of a power curve's grid reaches the target power."""


@dataclass(frozen=True)
class TTESummary:
    """First-significance months across replicates for one method.

    Replicates that never reach significance are omitted from the mean/sd
    but counted in n_omitted. mean_months is None when nothing is included;
    sd_months additionally needs at least two values.
    """

    method: str
    hr: float
    ss: int
    mean_months: float | None
    sd_months: float | None
    n_included: int
    n_omitted: int


@dataclass(frozen=True)
class TTEComparison:
    """Welch comparison of two first-significance samples (A vs B, A = CWTA).

    pct_delta = (mean_B - mean_A) / mean_B: positive when A signals earlier.
    p_value is None when either sample has a single value; zero_variance
    flags the degenerate Welch case (p forced to 0 or 1 by the means).
    """

    pct_delta: float
    t_statistic: float | None
    df: float | None
    p_value: float | None
    zero_variance: bool


def replicate_seed(master_seed: int, hr: float, ss: int, replicate):
    """Trial seed of a replicate index, or uint64 seeds of an array of indices."""
    return mix64_array((master_seed, float_bits(hr), ss), replicate)


BLOCK_ROWS = 4096  # subject rows simulated and scanned in one pass; bounds a block's arrays to a few MB


def plan_blocks(replicates: int, ss: int, workers: int = 1) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) replicate ranges covering 0..replicates-1 in
    order: the blocks of a one-point grid.

    Blocks are as few as the row budget allows -- at most BLOCK_ROWS subject
    rows each, or one replicate when a single trial is larger -- and their
    sizes differ by at most one. A pooled run rounds the count up to a
    multiple of workers (at most one block per replicate), the calling
    process counting as one of them, so every process gets an equal share.
    """
    count = -(-replicates // max(1, BLOCK_ROWS // ss))
    if workers > 1:
        count = min(replicates, -(-count // workers) * workers)
    for k in range(count):
        yield k * replicates // count, (k + 1) * replicates // count


def plan_grid_blocks(
    points: Sequence[tuple[int, int]], workers: int = 1
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """The blocks of a grid's replicate sequence, each a tuple of (point, start, stop) runs.

    points lists (replicates, sample size) of every grid point in grid
    order; a run is replicates start..stop-1 of point `point`. Each point
    is split as plan_blocks splits it alone, and consecutive pieces of
    different points then share a block while their rows fit in
    BLOCK_ROWS. So small points run together, a point of several blocks
    keeps its own balanced split (blocks filled to the full budget ran
    slower per row), and a one-point grid is plan_blocks' split. Blocks
    are consecutive and cover the sequence once, in order.
    """
    block, rows = [], 0
    for point, (replicates, ss) in enumerate(points):
        for start, stop in plan_blocks(replicates, ss, workers):
            size = (stop - start) * ss
            if block and (block[-1][0] == point or rows + size > BLOCK_ROWS):
                yield tuple(block)
                block, rows = [], 0
            block.append((point, start, stop))
            rows += size
    if block:
        yield tuple(block)


def _grid_blocks(grid: ExperimentGrid, workers: int) -> Iterator[tuple]:
    """The runs (hr, ss, start, stop) of each block of the grid, in order."""
    points = [(hr, ss) for hr in grid.hazard_ratios for ss in grid.sample_sizes]
    return (
        tuple((*points[point], start, stop) for point, start, stop in block)
        for block in plan_grid_blocks([(grid.replicates_for(hr), ss) for hr, ss in points], workers)
    )


def _run_block(grid: ExperimentGrid, runs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Scans of one block: its runs (hr, ss, start, stop) simulated as one block of trials."""
    designs = [
        (hr, ss, replicate_seed(grid.master_seed, hr, ss, np.arange(start, stop, dtype=np.uint64)))
        for hr, ss, start, stop in runs
    ]
    return scan_trial(simulate_trials(grid.profile, designs), grid.alpha)


def _owed(i: int, runs: tuple) -> str:
    """Block i's runs, as a worker that died before sending it owed them."""
    owed = ", ".join(f"HR {hr} n {ss} replicates {start}..{stop - 1}" for hr, ss, start, stop in runs)
    return f"block {i} ({owed})"


def _gather(grid: ExperimentGrid, done: Iterator[tuple]) -> Iterator[tuple[float, int, ReplicateScans]]:
    """(hr, ss, scans) of each point, once the result of its last replicate is stored.
    Blocks arrive in order, so a point's buffer, allocated when its first run
    arrives, is the only one being filled."""
    for runs, (final_p, first_month) in done:
        row = 0
        for hr, ss, start, stop in runs:
            if start == 0:  # else the run continues the point of the run before it
                replicates = grid.replicates_for(hr)
                scans = ReplicateScans(
                    final_p=np.empty((replicates, len(METHODS))),
                    first_month=np.empty((replicates, len(METHODS)), dtype=np.int64),
                )
            rows = slice(row, row + stop - start)
            scans.final_p[start:stop], scans.first_month[start:stop] = final_p[rows], first_month[rows]
            row = rows.stop
            if stop == replicates:
                yield hr, ss, scans


def run_grid(grid: ExperimentGrid, workers: int = 1) -> Iterator[tuple[float, int, ReplicateScans]]:
    """Simulate and scan every grid point; yields (hr, ss, scans) in grid order.

    The points run under grid.profile at grid.alpha. The grid's replicates
    run in blocks that may span points (plan_grid_blocks), planned for
    pool.process_limit(workers) processes (a count below 1 raises
    ValueError), and run through pool.in_order: block i runs in process
    i % that count, this process being process 0, so at workers 1 no
    process starts. Row r of a point's scans is replicate r, and it is the
    same for any block split, worker count and grid, because each
    replicate's seed depends only on (master_seed, hr, ss, replicate
    index). A worker's failed block is raised here, and one that dies
    without sending its block raises ChildProcessError. Whenever the
    generator ends -- done, failed, interrupted or closed -- the workers
    still running are killed and joined, so the blocks they owe never run.
    """
    if workers < 1:  # block i runs in process i % workers
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = process_limit(workers)
    # before the first block: forked workers inherit the module, and
    # imported among a block's live arrays it raises peak RSS by about 0.5 MB
    scipy_special()
    yield from _gather(
        grid,
        in_order(lambda runs: (runs, _run_block(grid, runs)), partial(_grid_blocks, grid, workers), workers, _owed),
    )


def run_replicates(
    hr: float,
    ss: int,
    replicates: int,
    profile: TransitionModel,
    master_seed: int,
    alpha: float = 0.05,
    workers: int = 1,
) -> ReplicateScans:
    """Simulate and scan `replicates` independent trials at one grid point:
    run_grid on the one-point grid (hr, ss)."""
    grid = ExperimentGrid((hr,), (ss,), replicates, alpha, profile, master_seed)
    [(_, _, scans)] = run_grid(grid, workers)
    return scans


def estimate_power(
    results: ReplicateScans, method: str, alpha: float, hr: float, ss: int
) -> PowerEstimate:
    """Fraction of replicates whose month-60 p-value is below alpha.

    Degenerate replicates (NaN p) count as not significant.
    """
    final_p = results.final_p[:, METHODS.index(method)]
    if final_p.size == 0:
        raise ValueError("no replicate results")
    hits = int(np.count_nonzero(final_p < alpha))
    return PowerEstimate(method=method, hr=hr, ss=ss, power=hits / final_p.size, replicates=final_p.size)


def _pav_nondecreasing(values: Sequence[float]) -> list[float]:
    """Pool-adjacent-violators fit (equal weights, non-decreasing)."""
    level: list[float] = []
    count: list[int] = []
    for v in values:
        level.append(float(v))
        count.append(1)
        while len(level) > 1 and level[-2] > level[-1]:
            merged = (level[-2] * count[-2] + level[-1] * count[-1]) / (count[-2] + count[-1])
            level[-2:] = [merged]
            count[-2:] = [count[-2] + count[-1]]
    out: list[float] = []
    for v, c in zip(level, count):
        out.extend([v] * c)
    return out


def check_target(target: float) -> None:
    """Reject a target power outside the open interval (0, 1), NaN included."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target power must lie in (0, 1), got {target}")


def interpolate_sample_size(points: Sequence[tuple[float, float]], target: float = 0.8) -> float:
    """Smallest sample size reaching the target power, by interpolation.

    Points are (sample size, power) on an increasing grid. Powers are
    first smoothed to be non-decreasing (pool-adjacent-violators), then
    linearly interpolated at the target. If the smallest grid point
    already meets the target it is returned as-is (no extrapolation
    below the grid); if no point reaches the target a ValueError names
    the maximum smoothed power achieved.
    """
    if not points:
        raise ValueError("no power points supplied")
    check_target(target)
    pts = sorted((float(ss), float(p)) for ss, p in points)
    sizes = [ss for ss, _ in pts]
    if len(set(sizes)) != len(sizes):
        raise ValueError("duplicate sample sizes in power points")
    smooth = _pav_nondecreasing([p for _, p in pts])
    reached = [i for i, p in enumerate(smooth) if p >= target]
    if not reached:
        peak = max(range(len(smooth)), key=smooth.__getitem__)
        raise TargetNotReachedError(
            f"target power {target} not reached on the grid "
            f"(max smoothed power {smooth[peak]:.4f} at sample size {sizes[peak]:.0f})"
        )
    i = reached[0]
    if i == 0:
        return sizes[0]
    x0, y0 = sizes[i - 1], smooth[i - 1]
    x1, y1 = sizes[i], smooth[i]
    return x0 + (target - y0) * (x1 - x0) / (y1 - y0)


def first_months(results: ReplicateScans, method: str) -> np.ndarray:
    """First significant months of the replicates that reached significance."""
    months = results.first_month[:, METHODS.index(method)]
    return months[months > 0]


def summarize_tte(results: ReplicateScans, method: str, hr: float, ss: int) -> TTESummary:
    """Mean and sample SD of first-significance months for one method."""
    firsts = first_months(results, method)
    n = len(firsts)
    mean = float(np.mean(firsts)) if n else None
    sd = float(np.std(firsts, ddof=1)) if n >= 2 else None
    return TTESummary(
        method=method,
        hr=hr,
        ss=ss,
        mean_months=mean,
        sd_months=sd,
        n_included=n,
        n_omitted=len(results.first_month) - n,
    )


def compare_tte(sample_a: Sequence[float], sample_b: Sequence[float]) -> TTEComparison:
    """Welch unequal-variance comparison of first-significance months.

    sample_a is the reference (CWTA); pct_delta = (mean_B - mean_A) / mean_B.
    Uses the Welch-Satterthwaite degrees of freedom and the two-sided t
    p-value 2 * scipy.special.stdtr(df, -|t|): scipy.stats.t.sf(x, df) is
    stdtr(df, -x), so this is its value bit for bit without loading
    scipy.stats. With one observation on either side the p-value is
    undefined (None); with zero pooled variance p collapses to 0 or 1 by
    the means and zero_variance is flagged.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    mean_a, mean_b = float(a.mean()), float(b.mean())
    pct = (mean_b - mean_a) / mean_b
    if a.size < 2 or b.size < 2:
        return TTEComparison(pct_delta=pct, t_statistic=None, df=None, p_value=None, zero_variance=False)
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    se2 = var_a / a.size + var_b / b.size
    if se2 == 0.0:
        p = 1.0 if mean_a == mean_b else 0.0
        return TTEComparison(pct_delta=pct, t_statistic=0.0 if mean_a == mean_b else None, df=None, p_value=p, zero_variance=True)
    t = (mean_a - mean_b) / sqrt(se2)
    df = se2**2 / (
        (var_a / a.size) ** 2 / (a.size - 1) + (var_b / b.size) ** 2 / (b.size - 1)
    )
    p = 2.0 * float(scipy_special().stdtr(df, -abs(t)))
    return TTEComparison(pct_delta=pct, t_statistic=t, df=df, p_value=p, zero_variance=False)


def power_rows(grid: ExperimentGrid, workers: int = 1) -> list[PowerEstimate]:
    """Power of every method at every (hr, ss) grid point."""
    return [
        estimate_power(results, method, grid.alpha, hr=hr, ss=ss)
        for hr, ss, results in run_grid(grid, workers)
        for method in METHODS
    ]


def sample_size_rows(
    power_estimates: Sequence[PowerEstimate], target: float = 0.8
) -> list[SampleSizeEstimate]:
    """Interpolated target-power sample size per (method, hr).

    A pair whose grid never reaches the target gets a row without a sample
    size that says why; a ValueError naming every pair is raised only when
    no pair reaches it.
    """
    rows: list[SampleSizeEstimate] = []
    for hr, method in dict.fromkeys((e.hr, e.method) for e in power_estimates):
        points = [(e.ss, e.power) for e in power_estimates if e.hr == hr and e.method == method]
        try:
            rows.append(SampleSizeEstimate(method, hr, interpolate_sample_size(points, target)))
        except TargetNotReachedError as exc:
            rows.append(SampleSizeEstimate(method, hr, None, unreached=str(exc)))
    if rows and all(row.sample_size is None for row in rows):
        raise ValueError("; ".join(f"{row.method} at HR {row.hr}: {row.unreached}" for row in rows))
    return rows


def tte_rows(
    grid: ExperimentGrid, workers: int = 1
) -> list[tuple[TTESummary, TTEComparison | None]]:
    """TTE summaries per grid point, each KM method compared against CWTA."""
    rows: list[tuple[TTESummary, TTEComparison | None]] = []
    for hr, ss, results in run_grid(grid, workers):
        firsts = {m: first_months(results, m) for m in METHODS}
        for method in METHODS:
            summary = summarize_tte(results, method, hr=hr, ss=ss)
            comparison = None
            if method != "CWTA" and firsts["CWTA"].size and firsts[method].size:
                comparison = compare_tte(firsts["CWTA"], firsts[method])
            rows.append((summary, comparison))
    return rows
