"""Kaplan-Meier estimation and the two-sample logrank test on monthly data.

Endpoints are derived from a trial's padded state matrix: PFS is the first
month at PD or worse, OS the first month at death; otherwise the subject
is censored at its last observed month. Every routine takes these
columns (times, events, arms) as arrays; endpoint_arrays and
monthly_logrank_terms also take a block of trials on a leading replicate
axis. Ties follow the standard convention that a subject censored at t is
still at risk for events at t.

The survival curve is the product limit prod (1 - d_j / n_j), computed by
product_limit, the same cumulative product that weighted.cwta_curve takes
over weighted events.
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
class KMStep:
    time: int
    survival: float
    at_risk: int
    events: int


@dataclass(frozen=True)
class KMCurve:
    steps: tuple[KMStep, ...]


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
    """(times, events) of every subject from a padded state matrix.

    The time is the first month at state >= threshold, else the censor
    month. Padding of -1 never crosses a threshold, so unobserved months
    cannot fire events. A block of trials, (R, n, horizon + 1) states,
    gives (R, n) arrays.
    """
    reached = states >= int(threshold)  # an IntEnum operand takes numpy's slow generic path
    has_event = reached.any(axis=-1)
    first = reached.argmax(axis=-1)
    times = np.where(has_event, first, censor)
    return times.astype(np.int64), has_event


def month_counts(months: np.ndarray, horizon: int, where: np.ndarray | None = None) -> np.ndarray:
    """counts[..., m] = number of entries along the last axis equal to m (and where true).

    Leading axes index separate trials; all of them are counted with one
    bincount, each trial offset by horizon + 1 slots.
    """
    width = horizon + 1
    lead = months.shape[:-1]
    trials = int(np.prod(lead))
    slots = months + width * np.arange(trials).reshape(lead + (1,))
    if where is not None:
        slots = slots[where]
    return np.bincount(slots.ravel(), minlength=trials * width).reshape(lead + (width,))


def at_risk_counts(last_month: np.ndarray, horizon: int) -> np.ndarray:
    """counts[..., m] = number of entries with last_month >= m, for m = 0..horizon."""
    return np.cumsum(month_counts(last_month, horizon)[..., ::-1], axis=-1)[..., ::-1]


def product_limit(w_sum: np.ndarray, n: np.ndarray) -> np.ndarray:
    """prod_{j <= t} (1 - w_sum[j] / n[j]) for t = 0..horizon.

    Month 0 and months with an empty risk set contribute a factor of 1.
    """
    factors = 1.0 - np.where(n > 0, w_sum / np.maximum(n, 1.0), 0.0)
    factors[0] = 1.0
    return np.cumprod(factors)


def _time_to_event(times, events, caller: str) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=np.int64)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise ValueError(f"{caller} requires at least one record")
    if times.min() < 1:
        raise ValueError(f"event/censor time must be >= 1, got {times.min()}")
    return times, events


def km_estimate(times, events) -> KMCurve:
    """Product-limit survival estimate.

    S(t) = prod_{t_j <= t} (1 - d_j / n_j) over distinct event times t_j,
    with n_j counting every subject whose time is >= t_j (so subjects
    censored exactly at t_j remain at risk there).
    """
    times, events = _time_to_event(times, events, "km_estimate")
    horizon = int(times.max())
    n = at_risk_counts(times, horizon)
    d = month_counts(times, horizon, events)
    survival = product_limit(d, n)
    return KMCurve(
        steps=tuple(
            KMStep(time=int(t), survival=float(survival[t]), at_risk=int(n[t]), events=int(d[t]))
            for t in np.flatnonzero(d)
        )
    )


def monthly_logrank_terms(
    times: np.ndarray, events: np.ndarray, arms: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-month logrank contributions for the control arm.

    At each month m with d_m events out of n_m at risk (n1_m in control),
    the control arm's observed events d1_m are compared with the
    hypergeometric mean E1_m = d_m * n1_m / n_m and variance

        V_m = d_m * p_m * (1 - p_m) * (n_m - d_m) / (n_m - 1),

    p_m = n1_m / n_m, V_m = 0 when n_m <= 1. Returns arrays indexed by
    month 1..horizon of (d1_m - E1_m) and V_m; months without events
    contribute zero, so prefix sums give the statistic of the data
    truncated at any month. times and events may carry a leading
    replicate axis, (R, n) with arms (n,) shared; the terms are then
    (R, horizon).
    """
    is_control = arms == int(Arm.CONTROL)
    n = at_risk_counts(times, horizon)
    n1 = at_risk_counts(times[..., is_control], horizon)
    d = month_counts(times, horizon, events)
    d1 = month_counts(times, horizon, events & is_control)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, n1 / np.maximum(n, 1), 0.0)
        e1 = d * p
        v = np.where(n > 1, d * p * (1.0 - p) * (n - d) / np.maximum(n - 1, 1), 0.0)
    return (d1 - e1)[..., 1:], v[..., 1:]


def two_sided_p(z):
    """Two-sided normal p-value 2 * Phi(-|z|); scipy's norm.sf(x) is ndtr(-x), so
    this equals 2 * norm.sf(|z|) bit for bit without its per-call overhead."""
    return 2.0 * ndtr(-np.abs(z))


def test_from_sums(observed_minus_expected: float, variance: float) -> TestResult:
    z = observed_minus_expected / sqrt(variance)
    p = float(two_sided_p(z))
    return TestResult(
        statistic=z * z,
        z=z,
        p_value=p,
        observed_minus_expected=observed_minus_expected,
        variance=variance,
    )


def logrank_test(times, events, arms) -> TestResult:
    """Two-sample logrank test; z = (O1 - E1) / sqrt(V) with arm 1 = control.

    z > 0 means the control arm accumulated more events than expected
    under the null. The statistic is z**2 with a two-sided normal p-value.
    Raises DegenerateTestError when there are no events or V = 0.
    """
    times, events = _time_to_event(times, events, "logrank_test")
    arms = np.asarray(arms, dtype=np.int8)
    if np.unique(arms).size < 2:
        raise ValueError("logrank_test requires records from both arms")
    ome, v = monthly_logrank_terms(times, events, arms, int(times.max()))
    total_v = float(v.sum())
    if not events.any():
        raise DegenerateTestError("no events in either arm")
    if total_v <= 0.0:
        raise DegenerateTestError("zero variance: every event month has a one-sided risk set")
    return test_from_sums(float(ome.sum()), total_v)
