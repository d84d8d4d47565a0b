"""Kaplan-Meier estimation, the two-sample logrank test on monthly data,
and the statistics kernel that the weighted test shares.

Endpoints are derived from a trial's padded state matrix: PFS is the first
month at PD or worse, OS the first month at death; otherwise the subject
is censored at its last observed month. endpoint_arrays gives these
columns (times, events); endpoint_counts counts them by month and arm,
for one trial or for a block of trials' rows, keyed by each row's trial
index, every trial in the same bincount.
Ties follow the standard convention that a subject censored at t is
still at risk for events at t.

endpoint_counts turns an endpoint's columns into monthly counts: the
arguments of monthly_terms, the one kernel that gives every month's
(O - E, V) for all three methods, and result_from_terms turns those terms
into a TestResult. weighted.monthly_counts builds the counts of all three
methods from one trial. product_limit, prod (1 - d_j / n_j), is both the
Kaplan-Meier survival curve and the CWTA trajectory curve, over one arm's
unit or weighted events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import sqrt

import numpy as np
from scipy.special import ndtr

from .trajectories import DEATH, PD, Arm


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


class DegenerateTestError(RuntimeError):
    """No events, or zero variance: the test statistic is undefined."""


def endpoint_arrays(states: np.ndarray, censor: np.ndarray, threshold: int):
    """(times, events) of every subject row from a padded state matrix.

    The time is the first month at state >= threshold, else the censor
    month. Padding of -1 never crosses a threshold, so unobserved months
    cannot fire events.
    """
    reached = states >= int(threshold)  # an IntEnum operand takes numpy's slow generic path
    has_event = reached.any(axis=-1)
    first = reached.argmax(axis=-1)
    times = np.where(has_event, first, censor)
    return times.astype(np.int64), has_event


def month_counts(
    months: np.ndarray, horizon: int, where: np.ndarray | None = None, trial: np.ndarray | None = None
) -> np.ndarray:
    """counts[m] = number of entries equal to m (and where true), for m = 0..horizon.

    trial, when given, is each entry's trial index in a block of trials, in
    nondecreasing order from 0; counts is then (trials, horizon + 1), all
    trials counted with one bincount, trial k offset by k * (horizon + 1)
    slots.
    """
    width = horizon + 1
    if trial is None:
        slots, trials = months, 1
    else:
        slots, trials = months + width * trial, int(trial[-1]) + 1
    if where is not None:
        slots = slots[where]
    counts = np.bincount(slots, minlength=trials * width)
    return counts if trial is None else counts.reshape(trials, width)


def at_risk_counts(
    last_month: np.ndarray, horizon: int, where: np.ndarray | None = None, trial: np.ndarray | None = None
) -> np.ndarray:
    """counts[m] = number of entries with last_month >= m, for m = 0..horizon (per trial, as month_counts)."""
    return np.cumsum(month_counts(last_month, horizon, where, trial)[..., ::-1], axis=-1)[..., ::-1]


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


def endpoint_counts(
    times: np.ndarray, events: np.ndarray, arms: np.ndarray, horizon: int, trial: np.ndarray | None = None
) -> tuple:
    """monthly_terms' arguments (d1, d, d, n - d, n1, n) of one endpoint, months 0..horizon.

    At each month m with d_m events out of n_m at risk (n1_m and d1_m in
    control), the control arm's observed events d1_m are compared with the
    hypergeometric mean E1_m = d_m * p_m and variance

        V_m = d_m * p_m * (1 - p_m) * (n_m - d_m) / (n_m - 1),

    p_m = n1_m / n_m. With trial, each row's trial index in a block (see
    month_counts), the counts are (trials, horizon + 1).
    """
    control = arms == int(Arm.CONTROL)
    n1 = at_risk_counts(times, horizon, control, trial)
    n = n1 + at_risk_counts(times, horizon, ~control, trial)
    d = month_counts(times, horizon, events, trial)
    d1 = month_counts(times, horizon, events & control, trial)
    return d1, d, d, n - d, n1, n


def two_sided_p(z):
    """Two-sided normal p-value 2 * Phi(-|z|); scipy's norm.sf(x) is ndtr(-x), so
    this equals 2 * norm.sf(|z|) bit for bit without its per-call overhead."""
    return 2.0 * ndtr(-np.abs(z))


def result_from_terms(ome: np.ndarray, v: np.ndarray) -> TestResult:
    """The test over all months of per-month (O - E, V) terms: z = sum(O - E) / sqrt(sum(V)).

    Raises DegenerateTestError when the total variance is zero: there are
    no events, or every event month has a one-sided risk set.
    """
    observed_minus_expected, variance = float(ome.sum()), float(v.sum())
    if variance <= 0.0:
        raise DegenerateTestError("zero variance: no events, or every event month has a one-sided risk set")
    z = observed_minus_expected / sqrt(variance)
    return TestResult(
        statistic=z * z,
        z=z,
        p_value=float(two_sided_p(z)),
        observed_minus_expected=observed_minus_expected,
        variance=variance,
    )
