"""Weighted trajectory analysis (CWTA): bidirectional ordinal events,
the trajectory curve, and the weighted logrank test.

Every one-level health-state change in month j is an event of weight
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
to 1 these reduce algebraically to the standard logrank terms, since
n_j * Q_j - W_j**2 = d_j * (n_j - d_j); both are computed by the one
kernel, kaplan_meier.monthly_terms. The test statistic is
z = sum_j (O1_j - E1_j) / sqrt(sum_j V_j), squared against a chi-square
with one degree of freedom (equivalently, two-sided normal on z).

One route leads from a Trial to these statistics: trial_event_sums reads
the state matrix straight into an EventSums, the monthly W, Q and O1 and
the per-arm risk counts, which monthly_weighted_terms,
weighted_logrank_test and cwta_curve take. The trajectory curve
prod (1 - W_j / n_j) is the Kaplan-Meier product limit
(kaplan_meier.product_limit) with weighted events in place of unit ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kaplan_meier import (
    DegenerateTestError,
    TestResult,
    at_risk_counts,
    monthly_terms,
    product_limit,
    result_from_terms,
)
from .trajectories import DEATH, MAX_STATE, Arm, Trial


class EventSums(NamedTuple):
    """A trial's weighted events summed by month, with its risk counts.

    w_sum, q_sum and o1 sum the event weights, squared weights and
    control-arm weights of months 0..horizon (last axis); at_risk[..., arm,
    month] counts that arm's subjects alive and under observation.
    """

    w_sum: np.ndarray
    q_sum: np.ndarray
    o1: np.ndarray
    at_risk: np.ndarray


@dataclass(frozen=True)
class TrajectoryStep:
    month: int
    value: float
    at_risk_control: int
    at_risk_experimental: int


@dataclass(frozen=True)
class TrajectoryCurve:
    arm: Arm
    steps: tuple[TrajectoryStep, ...]


def trial_event_sums(trial: Trial) -> EventSums:
    """The EventSums of a trial, straight from its state matrix.

    Any observed one-level change into month m is an event of weight
    (new - old) / 4. Death events keep the subject at risk in the death
    month itself; censoring keeps it at risk through the censor month.
    Every weight is a multiple of 1/4, so summing the integer moves per
    month and dividing by 4 (and their squares by 16) is exact, whatever
    the order of the events. A block of trials gives sums with a leading
    replicate axis.
    """
    states, horizon = trial.states, trial.horizon
    moves = np.zeros(states.shape, dtype=np.int16)  # moves[..., m]: the level change into month m
    np.subtract(states[..., 1:], states[..., :-1], out=moves[..., 1:], dtype=np.int16)
    moves *= np.arange(horizon + 1) <= trial.censor[..., None]
    control = trial.arms == int(Arm.CONTROL)
    w_sum = moves.sum(axis=-2) / MAX_STATE
    q_sum = (moves * moves).sum(axis=-2) / MAX_STATE**2
    o1 = moves[..., control, :].sum(axis=-2) / MAX_STATE
    dead = states == DEATH
    risk_end = np.where(dead.any(axis=-1), dead.argmax(axis=-1), trial.censor)
    at_risk = np.stack([at_risk_counts(risk_end[..., arm], horizon) for arm in (control, ~control)], axis=-2)
    return EventSums(w_sum, q_sum, o1, at_risk)


def monthly_weighted_terms(
    w_sum: np.ndarray, q_sum: np.ndarray, o1: np.ndarray, at_risk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-month (O1_j - E1_j, V_j) arrays for months 1..horizon.

    Takes the fields of an EventSums, so monthly_weighted_terms(*sums);
    any leading replicate axis is kept. It is kaplan_meier.monthly_terms
    with (observed, w, a, b) = (O1, W, 1.0, n * Q - W**2). Months with no
    events contribute zero, so prefix sums equal the statistic of the data
    truncated at any month.
    """
    n1 = at_risk[..., int(Arm.CONTROL), :].astype(np.float64)
    n = at_risk.sum(axis=-2).astype(np.float64)
    return monthly_terms(o1, w_sum, 1.0, n * q_sum - w_sum**2, n1, n)


def weighted_logrank_test(sums: EventSums) -> TestResult:
    """Weighted logrank test over one trial's event sums (arm 1 = control).

    z > 0 means the control arm accumulated more net worsening than
    expected under exchangeable arm labels. Raises DegenerateTestError
    when there are no events or zero total variance.
    """
    if sums.at_risk[0, 0] < 1 or sums.at_risk[1, 0] < 1:
        raise ValueError("weighted_logrank_test requires subjects in both arms")
    if not sums.q_sum.any():
        raise DegenerateTestError("no weighted events")
    return result_from_terms(*monthly_weighted_terms(*sums), "all event months have one-sided risk sets")


def cwta_curve(sums: EventSums, arm: Arm) -> TrajectoryCurve:
    """Product-limit trajectory curve for one arm of one trial.

    value(t) = prod_{j <= t} (1 - W_j / n_j) over that arm's own weighted
    events and risk counts: O1 for the control arm, W - O1 for the
    experimental one (exact, as every weight is a multiple of 1/4). Months
    of net worsening push the curve down, months of net improvement push
    it up (it may exceed 1). Presentational: inference comes from
    weighted_logrank_test.
    """
    a = int(arm)
    if sums.at_risk[a, 0] < 1:
        raise ValueError(f"no subjects in arm {Arm(a).label}")
    w_sum = sums.o1 if arm == Arm.CONTROL else sums.w_sum - sums.o1
    n = sums.at_risk[a].astype(np.float64)
    if np.any((n == 0) & (w_sum != 0)):
        raise RuntimeError("internal consistency: weighted events in a month with an empty risk set")
    values = product_limit(w_sum, n)
    steps = tuple(
        TrajectoryStep(
            month=m,
            value=float(values[m]),
            at_risk_control=int(sums.at_risk[0, m]),
            at_risk_experimental=int(sums.at_risk[1, m]),
        )
        for m in range(len(values))
    )
    return TrajectoryCurve(arm=Arm(a), steps=steps)
