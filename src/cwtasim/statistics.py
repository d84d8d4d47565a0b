"""The statistics of all three methods: monthly counts, the one kernel of
per-month terms, the tests, the monthly significance scans and the curves.

KM-PFS and KM-OS are Kaplan-Meier analyses of one endpoint each, derived
from a trial's padded state matrix: PFS is the first month at PD or
worse, OS the first month at death; otherwise the subject is censored at
its last observed month. Ties follow the standard convention that a
subject censored at t is still at risk for events at t.

CWTA, the weighted trajectory analysis, counts every one-level
health-state change in month j as an event of weight
(state_after - state_before) / 4: worsening positive, improvement
negative. Subjects stay in the risk set through non-fatal events and
leave it only at death or censoring, so a trajectory can contribute many
events over time.

For month j let n_j subjects be at risk (n1_j in the control arm) and
let W_j and Q_j be the sums of that month's event weights and squared
weights. The control arm's observed weighted sum O1_j has, under random
arm labels, the exact without-replacement moments

    E1_j = W_j * p_j,
    V_j  = p_j * (1 - p_j) * (n_j * Q_j - W_j**2) / (n_j - 1),

with p_j = n1_j / n_j and V_j = 0 when n_j <= 1. With all weights equal
to 1 (d_j events) these are the logrank terms, since
n_j * Q_j - W_j**2 = d_j * (n_j - d_j); monthly_terms computes both. The
test statistic is z = sum_j (O1_j - E1_j) / sqrt(sum_j V_j), squared
against a chi-square with one degree of freedom (equivalently,
two-sided normal on z).

One route leads from a Trial to every result: monthly_counts reads the
state matrix once into each method's monthly counts, the arguments of
monthly_terms, for every trial of a block (a single trial is a block of
one). CWTA's risk set is OS's, as a subject leaves both at death or
censoring. count_tests turns one trial's counts into a TestResult per
method, scan_trial a block's into monthly significance scans, and
arm_counts with product_limit into per-arm curves: prod (1 - d_j / n_j)
is both the Kaplan-Meier survival curve and, with weighted events in
place of unit ones, the CWTA trajectory curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import sqrt

import numpy as np

from .trajectories import DEATH, MAX_STATE, PD, Arm, Trial

METHODS = ("CWTA", "PFS", "OS")


class Endpoint(IntEnum):
    """A time-to-event endpoint; its value is the first state that counts as the event."""

    PFS = PD
    OS = DEATH


@dataclass(frozen=True)
class TestResult:
    statistic: float
    z: float
    p_value: float
    observed_minus_expected: float
    variance: float


def first_true(reached: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of the first True along the last axis, whether any is True) of
    a boolean array whose last axis is not empty; the index is the axis
    length where none is.

    With j the first True, reached * (width, width - 1, ..., 1) peaks at
    width - j, and is 0 where no entry is True: one product and one max in
    the narrowest integer type that holds width. That is several times
    faster than argmax and any, above all along a strided axis (a state
    matrix is month-major).
    """
    width = reached.shape[-1]
    peak = (reached * np.arange(width, 0, -1, dtype=np.min_scalar_type(width))).max(axis=-1)
    return np.subtract(width, peak, dtype=np.int64), peak > 0


def endpoint_arrays(states: np.ndarray, censor: np.ndarray, threshold: int):
    """(times, events) of every subject row from a padded state matrix.

    The time is the first month at state >= threshold, else the censor
    month. Padding of -1 never crosses a threshold, so unobserved months
    cannot fire events.
    """
    first, has_event = first_true(states >= int(threshold))  # an IntEnum operand takes numpy's slow generic path
    times = np.where(has_event, first, censor)
    return times.astype(np.int64), has_event


def month_counts(months: np.ndarray, horizon: int, where: np.ndarray, trial: np.ndarray) -> np.ndarray:
    """counts[k, m] = number of entries of trial k equal to m where true, for m = 0..horizon.

    trial is each entry's trial index in a block of trials, in nondecreasing
    order from 0. All trials are counted with one bincount, trial k offset
    by k * (horizon + 1) slots; counts is (trials, horizon + 1).
    """
    width = horizon + 1
    trials = int(trial[-1]) + 1
    counts = np.bincount((months + width * trial)[where], minlength=trials * width)
    return counts.reshape(trials, width)


def at_risk_counts(last_month: np.ndarray, horizon: int, where: np.ndarray, trial: np.ndarray) -> np.ndarray:
    """counts[k, m] = number of entries of trial k with last_month >= m where true, for m = 0..horizon."""
    return np.cumsum(month_counts(last_month, horizon, where, trial)[:, ::-1], axis=-1)[:, ::-1]


def endpoint_counts(
    times: np.ndarray, events: np.ndarray, arms: np.ndarray, horizon: int, trial: np.ndarray
) -> tuple:
    """monthly_terms' arguments (d1, d, d, n - d, n1, n) of one endpoint, months 0..horizon.

    At each month m with d_m events out of n_m at risk (n1_m and d1_m in
    control), the control arm's observed events d1_m are compared with the
    hypergeometric mean E1_m = d_m * p_m and variance

        V_m = d_m * p_m * (1 - p_m) * (n_m - d_m) / (n_m - 1),

    p_m = n1_m / n_m. trial is each row's trial index in a block (see
    month_counts); the counts are (trials, horizon + 1).
    """
    control = arms == int(Arm.CONTROL)
    n1 = at_risk_counts(times, horizon, control, trial)
    n = n1 + at_risk_counts(times, horizon, ~control, trial)
    d = month_counts(times, horizon, events, trial)
    d1 = month_counts(times, horizon, events & control, trial)
    return d1, d, d, n - d, n1, n


def weighted_counts(o1, w_sum, q_sum, n1, n) -> tuple:
    """monthly_terms' arguments (O1, W, 1.0, n * Q - W**2, n1, n) of weighted events.

    o1, w_sum and q_sum sum the control-arm weights, all weights and all
    squared weights of each month; n1 and n count the control arm's and
    all subjects at risk.
    """
    return o1, w_sum, 1.0, n * q_sum - w_sum**2, n1, n


def monthly_counts(trial: Trial) -> dict[str, tuple]:
    """Each method's monthly_terms arguments over months 0..horizon, keyed by METHODS.

    Any observed one-level change into month m is a CWTA event of weight
    (new - old) / 4; month m is observed where its state is not the -1
    padding. Every weight is a multiple of 1/4, so summing the integer
    moves per month and dividing by 4 (and their squares by 16) is exact,
    whatever the order of the events. The sums fit int32: a simulated or
    read trial moves at most one level a month and has fewer than 2**27
    rows (trajectories.MAX_DRAWS, serialize.MAX_CELLS). A subject
    stays at risk for OS and CWTA through its death or censor month, the
    OS time, and for PFS through its PFS time. Counts have shape
    (trials, horizon + 1), all trials of the block in one pass: moves are
    summed between the trial boundaries (Trial.starts) and the endpoint
    counts are keyed by each row's trial index.
    """
    states, horizon, starts = trial.states, trial.horizon, trial.starts
    moves = np.zeros(states.shape[::-1], dtype=np.int8).T  # moves[:, m]: the level change into month m, month-major
    np.subtract(states[:, 1:], states[:, :-1], out=moves[:, 1:])
    moves[:, 1:] *= states[:, 1:] >= 0
    control = (trial.arms == int(Arm.CONTROL)).astype(np.int8)
    w_sum = np.add.reduceat(moves, starts, dtype=np.int32) / MAX_STATE  # integer sums of each trial's rows
    q_sum = np.add.reduceat(moves * moves, starts, dtype=np.int32) / MAX_STATE**2
    o1 = np.add.reduceat(moves * control[:, None], starts, dtype=np.int32) / MAX_STATE
    row_trial = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(states)))
    pfs, os_ = (
        endpoint_counts(*endpoint_arrays(states, trial.censor, kind), trial.arms, horizon, row_trial)
        for kind in Endpoint
    )
    n1, n = os_[4], os_[5]
    return {"CWTA": weighted_counts(o1, w_sum, q_sum, n1, n), "PFS": pfs, "OS": os_}


def arm_counts(counts: tuple) -> dict[Arm, tuple[np.ndarray, np.ndarray]]:
    """(events, at risk) by month of each arm, from one method's counts of one trial.

    The experimental arm's events are all events less the control arm's:
    exact, as every weight is a multiple of 1/4. The counts of a block of
    several trials do not unpack: ValueError.
    """
    (observed,), (w,), _, _, (n1,), (n,) = counts
    return {Arm.CONTROL: (observed, n1), Arm.EXPERIMENTAL: (w - observed, n - n1)}


def product_limit(w_sum: np.ndarray, n: np.ndarray) -> np.ndarray:
    """prod_{j <= t} (1 - w_sum[j] / n[j]) for t = 0..horizon.

    Month 0 and months with an empty risk set contribute a factor of 1.
    """
    factors = 1.0 - np.where(n > 0, w_sum / np.maximum(n, 1.0), 0.0)
    factors[0] = 1.0
    return np.cumprod(factors)


def monthly_terms(observed, w, a, b, n1, n) -> tuple[np.ndarray, np.ndarray]:
    """(observed - w * p, a * p * (1 - p) * b / max(n - 1, 1)) for months 1..horizon.

    p = n1 / n is the control arm's share of the risk set, 0 where n = 0;
    the variance is 0 where n <= 1. Arrays hold months 0..horizon on the
    last axis; a leading trial axis broadcasts.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, n1 / np.maximum(n, 1), 0.0)
        e = w * p
        v = np.where(n > 1, a * p * (1.0 - p) * b / np.maximum(n - 1, 1), 0.0)
    return (observed - e)[..., 1:], v[..., 1:]


def scipy_special():
    """scipy.special, imported on first use: the one import of scipy in the package.

    Importing it loads about 300 modules, so calibrate, simulate and plot,
    which compute no p-value, never import it. A grid calls this before its
    first block, so a pool's forked workers inherit the module.
    """
    import scipy.special

    return scipy.special


def two_sided_p(z):
    """Two-sided normal p-value 2 * Phi(-|z|); scipy's norm.sf(x) is ndtr(-x), so
    this equals 2 * norm.sf(|z|) bit for bit without its per-call overhead."""
    return 2.0 * scipy_special().ndtr(-np.abs(z))


def result_from_terms(ome: np.ndarray, v: np.ndarray) -> TestResult | None:
    """The test over all months of per-month (O - E, V) terms: z = sum(O - E) / sqrt(sum(V)).

    None when the total variance is zero, as the statistic is then
    undefined: there are no events, or every event month has a one-sided
    risk set.
    """
    observed_minus_expected, variance = float(ome.sum()), float(v.sum())
    if variance <= 0.0:
        return None
    z = observed_minus_expected / sqrt(variance)
    return TestResult(
        statistic=z * z,
        z=z,
        p_value=float(two_sided_p(z)),
        observed_minus_expected=observed_minus_expected,
        variance=variance,
    )


def count_tests(counts: dict[str, tuple]) -> dict[str, TestResult | None]:
    """Each method's test over one trial's monthly_counts; None where it is
    degenerate (zero variance: no events, or only one-sided risk sets). The
    counts of a block of several trials do not unpack: ValueError.

    z > 0 means the control arm accumulated more events, or more net
    worsening, than expected under exchangeable arm labels. CWTA sums
    months 1..horizon; PFS and OS sum months 1..their last event or censor
    time. The months between add zero terms, but numpy's pairwise sum
    rounds differently with more terms, and tests.csv and the golden
    digests hold the sums over the shorter span.
    """
    results: dict[str, TestResult | None] = {}
    for method in METHODS:
        (ome,), (v,) = monthly_terms(*counts[method])
        if method != "CWTA":
            last = int(np.flatnonzero(counts[method][-1])[-1])
            ome, v = ome[:last], v[:last]
        results[method] = result_from_terms(ome, v)
    return results


def _scan(ome: np.ndarray, v: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(final p, first significant month or 0) from per-month terms on the last axis.

    Truncating a trial at month m administratively censors everyone still
    under observation at m; because subjects censored at m remain at risk
    through m, the risk sets at months <= m are the full data's, so the
    statistics of every truncation are exact prefix sums of the per-month
    terms. A month with zero cumulative variance is not significant.
    """
    cum_o = np.cumsum(ome, axis=-1)
    cum_v = np.cumsum(v, axis=-1)
    defined = cum_v > 0.0
    z = np.zeros_like(cum_o)
    np.divide(cum_o, np.sqrt(cum_v, where=defined, out=np.ones_like(cum_v)), where=defined, out=z)
    p = np.where(defined, two_sided_p(z), np.nan)
    significant = defined & (p < alpha)
    first, reached = first_true(significant)
    first = np.where(reached, first + 1, 0)
    return p[..., -1], first


def scan_trial(trial: Trial, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Monthly significance scans of a block of trials for all three methods.

    Returns (final_p, first_month), each (trials, 3) with its last axis in
    METHODS order; a single trial is a block of one. Every method sums
    months 1..horizon of the one monthly_counts pass.
    """
    counts = monthly_counts(trial)
    scans = [_scan(*monthly_terms(*counts[method]), alpha) for method in METHODS]
    return np.stack([p for p, _ in scans], axis=-1), np.stack([f for _, f in scans], axis=-1)
