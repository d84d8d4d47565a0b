"""Weighted trajectory analysis (CWTA), and the one monthly-counts pass of
a trial that feeds all three methods.

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

One route leads from a Trial to the statistics of all three methods:
monthly_counts reads the state matrix once into each method's monthly
counts, the arguments of monthly_terms, for every trial of a block (a
single trial is a block of one), whose rows it sums between the trial
boundaries (Trial.starts) into one row of counts per trial. KM-PFS and
KM-OS are unit-weight counts of one endpoint (kaplan_meier.endpoint_counts);
CWTA's risk set is OS's, as a subject leaves both at death or censoring.
The grid scans, count_tests and every per-arm curve (arm_counts and
kaplan_meier.product_limit) read those counts; the trajectory curve
prod (1 - W_j / n_j) is the Kaplan-Meier product limit with weighted
events in place of unit ones.
"""

from __future__ import annotations

import numpy as np

from .kaplan_meier import (
    DegenerateTestError,
    Endpoint,
    TestResult,
    endpoint_arrays,
    endpoint_counts,
    monthly_terms,
    result_from_terms,
)
from .trajectories import MAX_STATE, Arm, Trial

METHODS = ("CWTA", "PFS", "OS")


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
    whatever the order of the events. A subject stays at risk for
    OS and CWTA through its death or censor month, the OS time, and for
    PFS through its PFS time. Counts have shape (trials, horizon + 1), all
    trials of the block in one pass: moves are summed between the trial
    boundaries and the endpoint counts are keyed by each row's trial index.
    """
    states, horizon, starts = trial.states, trial.horizon, trial.starts
    moves = np.zeros(states.shape[::-1], dtype=np.int8).T  # moves[:, m]: the level change into month m, month-major
    np.subtract(states[:, 1:], states[:, :-1], out=moves[:, 1:])
    moves[:, 1:] *= states[:, 1:] >= 0
    control = (trial.arms == int(Arm.CONTROL)).astype(np.int8)
    w_sum = np.add.reduceat(moves, starts, dtype=np.int64) / MAX_STATE  # integer sums of each trial's rows
    q_sum = np.add.reduceat(moves * moves, starts, dtype=np.int64) / MAX_STATE**2
    o1 = np.add.reduceat(moves * control[:, None], starts, dtype=np.int64) / MAX_STATE
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
        try:
            results[method] = result_from_terms(ome, v)
        except DegenerateTestError:
            results[method] = None
    return results
