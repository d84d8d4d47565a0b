"""Monte Carlo experiment harness: power, 80%-power sample size, and
time-to-first-efficacy-signal scans.

Each replicate simulates one trial and evaluates KM-PFS, KM-OS and the
weighted trajectory test on the data truncated at every month 1..horizon.
Truncating at month m administratively censors everyone still under
observation at m; because subjects censored at m remain at risk through
m, the risk sets at months <= m are identical to the full data's, so the
monthly statistics are exact prefix sums of per-month terms computed
once. A test with zero cumulative variance at month m is treated as not
significant there.

Replicates run in blocks of consecutive indices, at most BLOCK_ROWS
subject rows each: a block's trials are simulated together
(trajectories.simulate_block) and scanned together (scan_trial), every
per-month array carrying a leading replicate axis. Results are columns,
one row per replicate and one column per method.

Replicate seeds are mixed from (master_seed, hazard-ratio bits, sample
size, replicate index), and every step treats replicates independently,
so every grid point is reproducible in isolation and results are the
same for any block split, worker count and execution order.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import stats

from .kaplan_meier import Endpoint, endpoint_arrays, monthly_logrank_terms, two_sided_p
from .seeds import float_bits, mix64_array
from .trajectories import TransitionModel, Trial, simulate_block
from .weighted import monthly_weighted_terms, trial_event_sums

METHODS = ("CWTA", "PFS", "OS")


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
    method: str
    hr: float
    sample_size: float


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


@dataclass(frozen=True)
class ExperimentGrid:
    """A power/TTE experiment: HR x sample-size grid plus run parameters.

    replicates is either one count for every grid point or a mapping from
    hazard ratio to count (every listed HR must then be present).
    """

    hazard_ratios: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    replicates: int | Mapping[float, int]
    alpha: float = 0.05
    profile: str = "moderate"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.hazard_ratios:
            raise ValueError("hazard_ratios must not be empty")
        for hr in self.hazard_ratios:
            if not hr > 0:
                raise ValueError(f"hazard ratio must be positive, got {hr}")
        if not self.sample_sizes:
            raise ValueError("sample_sizes must not be empty")
        for ss in self.sample_sizes:
            if ss < 2 or ss % 2 != 0:
                raise ValueError(f"sample size {ss} is not even (subjects are allocated 1:1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if isinstance(self.replicates, int):
            if self.replicates < 1:
                raise ValueError("replicates must be >= 1")
        else:
            missing = [hr for hr in self.hazard_ratios if hr not in self.replicates]
            if missing:
                raise ValueError(f"replicates mapping lacks hazard ratio(s): {missing}")
            if any(int(r) < 1 for r in self.replicates.values()):
                raise ValueError("replicates must be >= 1")

    def replicates_for(self, hr: float) -> int:
        if isinstance(self.replicates, int):
            return self.replicates
        return int(self.replicates[hr])


def _scan(ome: np.ndarray, v: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(final p, first significant month or 0) from per-month terms on the last axis."""
    cum_o = np.cumsum(ome, axis=-1)
    cum_v = np.cumsum(v, axis=-1)
    defined = cum_v > 0.0
    z = np.zeros_like(cum_o)
    np.divide(cum_o, np.sqrt(cum_v, where=defined, out=np.ones_like(cum_v)), where=defined, out=z)
    p = np.where(defined, two_sided_p(z), np.nan)
    significant = defined & (p < alpha)
    first = np.where(significant.any(axis=-1), significant.argmax(axis=-1) + 1, 0)
    return p[..., -1], first


def scan_trial(trial: Trial, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Monthly significance scans of a trial, or a block of trials, for all three methods.

    Returns (final_p, first_month) with a last axis in METHODS order:
    (3,) arrays for one trial, (R, 3) for a block.
    """
    terms = {"CWTA": monthly_weighted_terms(*trial_event_sums(trial))}
    for kind in Endpoint:
        times, events = endpoint_arrays(trial.states, trial.censor, kind)
        terms[kind.name] = monthly_logrank_terms(times, events, trial.arms, trial.horizon)
    scans = [_scan(*terms[method], alpha) for method in METHODS]
    return np.stack([p for p, _ in scans], axis=-1), np.stack([f for _, f in scans], axis=-1)


def replicate_seed(master_seed: int, hr: float, ss: int, replicate):
    """Trial seed of a replicate index, or uint64 seeds of an array of indices."""
    return mix64_array((master_seed, float_bits(hr), ss), replicate)


BLOCK_ROWS = 4096  # subject rows simulated and scanned in one pass; bounds a block's arrays to a few MB


def plan_blocks(replicates: int, ss: int, workers: int = 1) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) replicate ranges covering 0..replicates-1 in order.

    Blocks are as few as the row budget allows -- at most BLOCK_ROWS subject
    rows each, or one replicate when a single trial is larger -- and their
    sizes differ by at most one. A pooled run rounds the count up to a
    multiple of workers (at most one block per replicate), so every worker
    gets an equal share.
    """
    count = -(-replicates // max(1, BLOCK_ROWS // ss))
    if workers > 1:
        count = min(replicates, -(-count // workers) * workers)
    for k in range(count):
        yield k * replicates // count, (k + 1) * replicates // count


def _run_block(point: tuple, block: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    master_seed, hr, ss, alpha, model = point
    seeds = replicate_seed(master_seed, hr, ss, np.arange(*block, dtype=np.uint64))
    return scan_trial(simulate_block(model, hr, ss, seeds), alpha)


def run_replicates(
    hr: float,
    ss: int,
    replicates: int,
    profile: TransitionModel,
    master_seed: int,
    alpha: float = 0.05,
    workers: int = 1,
) -> ReplicateScans:
    """Simulate and scan `replicates` independent trials at one grid point.

    Replicates run in blocks (plan_blocks), a block at a time in this
    process or spread over a pool of `workers` processes. Row r of the
    result is replicate r, and it is the same for any block split and any
    worker count, because each replicate's seed depends only on
    (master_seed, hr, ss, replicate index).
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    point = (master_seed, float(hr), int(ss), float(alpha), profile)
    final_p = np.empty((replicates, len(METHODS)))
    first_month = np.empty((replicates, len(METHODS)), dtype=np.int64)

    def store(block, scans):
        final_p[slice(*block)], first_month[slice(*block)] = scans

    blocks = plan_blocks(replicates, int(ss), workers)
    if workers <= 1:
        for block in blocks:
            store(block, _run_block(point, block))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending: deque = deque()
            for block in blocks:  # about two blocks per worker in flight, not all of them
                pending.append((block, pool.submit(_run_block, point, block)))
                if len(pending) > 2 * workers:
                    block, future = pending.popleft()
                    store(block, future.result())
            for block, future in pending:
                store(block, future.result())
    return ReplicateScans(final_p=final_p, first_month=first_month)


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
    if not 0.0 < target < 1.0:
        raise ValueError(f"target power must lie in (0, 1), got {target}")
    pts = sorted((float(ss), float(p)) for ss, p in points)
    sizes = [ss for ss, _ in pts]
    if len(set(sizes)) != len(sizes):
        raise ValueError("duplicate sample sizes in power points")
    smooth = _pav_nondecreasing([p for _, p in pts])
    reached = [i for i, p in enumerate(smooth) if p >= target]
    if not reached:
        peak = max(range(len(smooth)), key=smooth.__getitem__)
        raise ValueError(
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
    Uses the Welch-Satterthwaite degrees of freedom and a two-sided t
    p-value. With one observation on either side the p-value is undefined
    (None); with zero pooled variance p collapses to 0 or 1 by the means
    and zero_variance is flagged.
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
    p = 2.0 * float(stats.t.sf(abs(t), df))
    return TTEComparison(pct_delta=pct, t_statistic=t, df=df, p_value=p, zero_variance=False)


def _resolve_profile(profile: str) -> TransitionModel:
    from .serialize import load_profile

    return load_profile(profile)


def power_rows(grid: ExperimentGrid, workers: int = 1) -> list[PowerEstimate]:
    """Power of every method at every (hr, ss) grid point."""
    model = _resolve_profile(grid.profile)
    rows: list[PowerEstimate] = []
    for hr in grid.hazard_ratios:
        for ss in grid.sample_sizes:
            results = run_replicates(
                hr, ss, grid.replicates_for(hr), model, grid.master_seed, grid.alpha, workers
            )
            rows.extend(estimate_power(results, m, grid.alpha, hr=hr, ss=ss) for m in METHODS)
    return rows


def sample_size_rows(
    power_estimates: Sequence[PowerEstimate], target: float = 0.8
) -> list[SampleSizeEstimate]:
    """Interpolated target-power sample size per (method, hr)."""
    rows: list[SampleSizeEstimate] = []
    seen: list[tuple[float, str]] = []
    for est in power_estimates:
        key = (est.hr, est.method)
        if key not in seen:
            seen.append(key)
    for hr, method in seen:
        points = [(e.ss, e.power) for e in power_estimates if e.hr == hr and e.method == method]
        rows.append(
            SampleSizeEstimate(method=method, hr=hr, sample_size=interpolate_sample_size(points, target))
        )
    return rows


def tte_rows(
    grid: ExperimentGrid, workers: int = 1
) -> list[tuple[TTESummary, TTEComparison | None]]:
    """TTE summaries per grid point, each KM method compared against CWTA."""
    model = _resolve_profile(grid.profile)
    rows: list[tuple[TTESummary, TTEComparison | None]] = []
    for hr in grid.hazard_ratios:
        for ss in grid.sample_sizes:
            results = run_replicates(
                hr, ss, grid.replicates_for(hr), model, grid.master_seed, grid.alpha, workers
            )
            firsts = {m: first_months(results, m) for m in METHODS}
            for method in METHODS:
                summary = summarize_tte(results, method, hr=hr, ss=ss)
                comparison = None
                if method != "CWTA" and firsts["CWTA"].size and firsts[method].size:
                    comparison = compare_tte(firsts["CWTA"], firsts[method])
                rows.append((summary, comparison))
    return rows
