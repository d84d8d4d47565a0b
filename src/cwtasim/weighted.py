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
n_j * Q_j - W_j**2 = d_j * (n_j - d_j). The test statistic is
z = sum_j (O1_j - E1_j) / sqrt(sum_j V_j), squared against a chi-square
with one degree of freedom (equivalently, two-sided normal on z).

Events are read straight from a Trial's padded state matrix, into an
event table (extract_weighted_events) or, for the replicate scans, straight
into the monthly sums (trial_event_sums); monthly_weighted_terms takes
either's sums, with or without a leading replicate axis. The trajectory
curve prod (1 - W_j / n_j) is the Kaplan-Meier product limit
(kaplan_meier.product_limit) with weighted events in place of unit ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kaplan_meier import (
    DegenerateTestError,
    TestResult,
    at_risk_counts,
    product_limit,
    test_from_sums,
)
from .trajectories import DEATH, MAX_STATE, Arm, Trial


@dataclass(frozen=True)
class WeightedEvent:
    month: int
    subject: int
    arm: Arm
    weight: float

    def __post_init__(self) -> None:
        if self.month < 1:
            raise ValueError(f"event month must be >= 1, got {self.month}")
        if self.weight == 0.0 or abs(self.weight) > 1.0:
            raise ValueError(f"event weight must be non-zero with |w| <= 1, got {self.weight}")


@dataclass(frozen=True, eq=False)
class WeightedEventTable:
    """Columnar store of weighted events plus per-month, per-arm risk counts.

    at_risk has shape (2, horizon + 1); at_risk[a, m] counts arm-a subjects
    still under observation and alive in month m. Events are kept sorted by
    (month, subject).
    """

    months: np.ndarray
    subjects: np.ndarray
    arms: np.ndarray
    weights: np.ndarray
    at_risk: np.ndarray
    horizon: int

    @property
    def events(self) -> tuple[WeightedEvent, ...]:
        return tuple(
            WeightedEvent(month=int(m), subject=int(s), arm=Arm(int(a)), weight=float(w))
            for m, s, a, w in zip(self.months, self.subjects, self.arms, self.weights)
        )

    @property
    def n_events(self) -> int:
        return int(self.months.size)

    @classmethod
    def from_events(
        cls, events: Sequence[WeightedEvent], at_risk: np.ndarray, horizon: int
    ) -> "WeightedEventTable":
        """Build and validate a table from explicit events and risk counts."""
        at_risk = np.asarray(at_risk, dtype=np.int64)
        if at_risk.shape != (2, horizon + 1):
            raise ValueError(f"at_risk must have shape (2, {horizon + 1})")
        if np.any(at_risk < 0) or np.any(np.diff(at_risk, axis=1) > 0):
            raise ValueError("at_risk counts must be non-negative and non-increasing over months")
        months = np.array([e.month for e in events], dtype=np.int64)
        if months.size and months.max() > horizon:
            raise ValueError("event month beyond horizon")
        subjects = np.array([e.subject for e in events], dtype=np.int64)
        arms = np.array([int(e.arm) for e in events], dtype=np.int8)
        weights = np.array([e.weight for e in events], dtype=np.float64)
        pairs = set(zip(months.tolist(), subjects.tolist()))
        if len(pairs) != months.size:
            raise ValueError("a subject may contribute at most one event per month")
        for m, a in zip(months.tolist(), arms.tolist()):
            if at_risk[a, m] < 1:
                raise ValueError(f"event in month {m} for arm {a} with empty risk set")
        order = np.lexsort((subjects, months))
        return cls(
            months=months[order],
            subjects=subjects[order],
            arms=arms[order],
            weights=weights[order],
            at_risk=at_risk,
            horizon=int(horizon),
        )

    def event_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(W, Q, O1, at_risk) by month: the arguments of monthly_weighted_terms."""
        width = self.horizon + 1
        is_control = self.arms == int(Arm.CONTROL)
        w_sum = np.bincount(self.months, weights=self.weights, minlength=width)
        q_sum = np.bincount(self.months, weights=self.weights**2, minlength=width)
        o1 = np.bincount(self.months[is_control], weights=self.weights[is_control], minlength=width)
        return w_sum, q_sum, o1, self.at_risk


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


def extract_weighted_events(trial: Trial, worsening_only: bool = False) -> WeightedEventTable:
    """Turn a trial's trajectories into the weighted event table.

    Any observed one-level change in month m becomes an event of weight
    (new - old) / 4. Death events keep the subject at risk in the death
    month itself; censoring keeps it at risk through the censor month.
    worsening_only drops improvement events, for sensitivity checks.
    """
    states, censor, arms, horizon = trial.states, trial.censor, trial.arms, trial.horizon
    diffs = states[:, 1:].astype(np.int16) - states[:, :-1].astype(np.int16)
    observed = np.arange(1, horizon + 1)[None, :] <= censor[:, None]
    mask = observed & (diffs != 0)
    if worsening_only:
        mask &= diffs > 0
    rows, cols = np.nonzero(mask)
    months = (cols + 1).astype(np.int64)
    order = np.lexsort((rows, months))
    rows, months = rows[order], months[order]
    weights = diffs[rows, cols[order]].astype(np.float64) / MAX_STATE
    return WeightedEventTable(
        months=months,
        subjects=rows.astype(np.int64),
        arms=arms[rows],
        weights=weights,
        at_risk=_at_risk_by_arm(trial),
        horizon=horizon,
    )


def _at_risk_by_arm(trial: Trial) -> np.ndarray:
    """(..., 2, horizon + 1) counts of each arm's subjects alive and under observation.

    A subject stays at risk in its death month and through its censor month.
    """
    dead = trial.states == DEATH
    risk_end = np.where(dead.any(axis=-1), dead.argmax(axis=-1), trial.censor)
    arms = (int(Arm.CONTROL), int(Arm.EXPERIMENTAL))
    return np.stack([at_risk_counts(risk_end[..., trial.arms == a], trial.horizon) for a in arms], axis=-2)


def trial_event_sums(trial: Trial) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(W, Q, O1, at_risk) by month straight from the state matrix, without an event table.

    Equal to extract_weighted_events(trial).event_sums() bit for bit: every
    weight is a multiple of 1/4, so summing the integer moves per month and
    dividing by 4 (and their squares by 16) is exact. A block of trials
    gives sums with a leading replicate axis.
    """
    states, horizon = trial.states, trial.horizon
    moves = np.zeros(states.shape, dtype=np.int16)  # moves[..., m]: the level change into month m
    np.subtract(states[..., 1:], states[..., :-1], out=moves[..., 1:], dtype=np.int16)
    moves *= np.arange(horizon + 1) <= trial.censor[..., None]
    control = trial.arms == int(Arm.CONTROL)
    w_sum = moves.sum(axis=-2) / MAX_STATE
    q_sum = (moves * moves).sum(axis=-2) / MAX_STATE**2
    o1 = moves[..., control, :].sum(axis=-2) / MAX_STATE
    return w_sum, q_sum, o1, _at_risk_by_arm(trial)


def monthly_weighted_terms(
    w_sum: np.ndarray, q_sum: np.ndarray, o1: np.ndarray, at_risk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-month (O1_j - E1_j, V_j) arrays for months 1..horizon.

    Takes the sums by month of event weights W_j, squared weights Q_j and
    control-arm weights O1_j, and at_risk[..., arm, month]; any leading
    replicate axis is kept. Months with no events contribute zero, so
    prefix sums equal the statistic of the data truncated at any month.
    """
    n1 = at_risk[..., int(Arm.CONTROL), :].astype(np.float64)
    n = at_risk.sum(axis=-2).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, n1 / np.maximum(n, 1.0), 0.0)
        e1 = w_sum * p
        v = np.where(
            n > 1, p * (1.0 - p) * (n * q_sum - w_sum**2) / np.maximum(n - 1.0, 1.0), 0.0
        )
    return (o1 - e1)[..., 1:], v[..., 1:]


def weighted_logrank_test(table: WeightedEventTable) -> TestResult:
    """Weighted logrank test over the event table (arm 1 = control).

    z > 0 means the control arm accumulated more net worsening than
    expected under exchangeable arm labels. Raises DegenerateTestError
    when the table has no events or zero total variance.
    """
    if table.at_risk[0, 0] < 1 or table.at_risk[1, 0] < 1:
        raise ValueError("weighted_logrank_test requires subjects in both arms")
    if table.n_events == 0:
        raise DegenerateTestError("no weighted events")
    ome, v = monthly_weighted_terms(*table.event_sums())
    total_v = float(v.sum())
    if total_v <= 0.0:
        raise DegenerateTestError("zero variance: all event months have one-sided risk sets")
    return test_from_sums(float(ome.sum()), total_v)


def cwta_curve(table: WeightedEventTable, arm: Arm) -> TrajectoryCurve:
    """Product-limit trajectory curve for one arm.

    value(t) = prod_{j <= t} (1 - W_j / n_j) over that arm's own weighted
    events and risk counts. Months of net worsening push the curve down,
    months of net improvement push it up (it may exceed 1). Presentational:
    inference comes from weighted_logrank_test.
    """
    a = int(arm)
    if table.at_risk[a, 0] < 1:
        raise ValueError(f"no subjects in arm {Arm(a).label}")
    width = table.horizon + 1
    sel = table.arms == a
    w_sum = np.bincount(table.months[sel], weights=table.weights[sel], minlength=width)
    n = table.at_risk[a].astype(np.float64)
    if np.any((n == 0) & (w_sum != 0)):
        raise RuntimeError("internal consistency: weighted events in a month with an empty risk set")
    values = product_limit(w_sum, n)
    steps = tuple(
        TrajectoryStep(
            month=m,
            value=float(values[m]),
            at_risk_control=int(table.at_risk[0, m]),
            at_risk_experimental=int(table.at_risk[1, m]),
        )
        for m in range(width)
    )
    return TrajectoryCurve(arm=Arm(a), steps=steps)
