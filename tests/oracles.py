"""Independent reference implementations used as test oracles.

Everything here is deliberately naive pure Python: dictionary loops,
itertools enumeration, no shared code with the package internals. When a
package routine and an oracle disagree, the oracle wins. The subject
stream oracle builds one np.random.default_rng per subject, the stream
that the package's vectorized generator must reproduce bit for bit.
"""

from __future__ import annotations

from itertools import combinations
from math import erf, sqrt

import numpy as np

from cwtasim import Arm, SubjectTrajectory, TransitionModel, apply_hazard_ratio
from cwtasim.seeds import mix64


def subject_rng(trial_seed: int, subject_index: int) -> np.random.Generator:
    """The reference stream of subject_index within a trial: one generator per subject."""
    return np.random.default_rng(mix64(trial_seed, subject_index))


def _trajectory_from_block(model: TransitionModel, block, arm: Arm) -> SubjectTrajectory:
    """One subject's trajectory from its horizon + 2 uniforms, month by month."""
    state = 2  # SD baseline
    states = [state]
    for month in range(1, model.horizon_months + 1):
        u = block[month + 1]
        p_improve = model.improve_prob[state] * model.improve_decay ** (month - 1)
        state += int(u >= 1.0 - model.worsen_prob[state]) - int(u < p_improve)
        states.append(state)
    dropout = None
    if block[0] < model.dropout_rate:
        dropout = 1 + int(block[1] * model.horizon_months)
        states = states[: dropout + 1]
    return SubjectTrajectory(states=np.array(states, dtype=np.int8), dropout_month=dropout, arm=arm)


def simulate_subject(
    control_model: TransitionModel, arm: Arm, hr: float, rng: np.random.Generator
) -> SubjectTrajectory:
    """Simulate one subject, consuming horizon + 2 uniforms from rng."""
    model = control_model
    if arm == Arm.EXPERIMENTAL:
        model = apply_hazard_ratio(control_model, hr)
    block = rng.random(control_model.horizon_months + 2)
    return _trajectory_from_block(model, block, arm)


def norm_two_sided_p(z: float) -> float:
    """Two-sided normal p-value via the error function."""
    return 2.0 * 0.5 * (1.0 - erf(abs(z) / sqrt(2.0)))


def naive_km(records) -> list[tuple[int, float, int, int]]:
    """Product-limit estimate as (time, survival, at_risk, events) rows."""
    rows = []
    survival = 1.0
    for t in sorted({r.time for r in records if r.event}):
        n = sum(1 for r in records if r.time >= t)
        d = sum(1 for r in records if r.event and r.time == t)
        survival *= 1.0 - d / n
        rows.append((t, survival, n, d))
    return rows


def naive_logrank_sums(records) -> tuple[float, float]:
    """(O1 - E1, V) summed over event times, arm 1 = control."""
    o_minus_e = 0.0
    variance = 0.0
    for t in sorted({r.time for r in records if r.event}):
        n = sum(1 for r in records if r.time >= t)
        n1 = sum(1 for r in records if r.time >= t and r.arm == Arm.CONTROL)
        d = sum(1 for r in records if r.event and r.time == t)
        d1 = sum(1 for r in records if r.event and r.time == t and r.arm == Arm.CONTROL)
        p = n1 / n
        o_minus_e += d1 - d * p
        if n > 1:
            variance += d * p * (1.0 - p) * (n - d) / (n - 1)
    return o_minus_e, variance


def naive_logrank_z(records) -> float | None:
    """z = (O1 - E1) / sqrt(V), or None when the statistic is undefined."""
    o_minus_e, variance = naive_logrank_sums(records)
    if variance <= 0.0:
        return None
    return o_minus_e / sqrt(variance)


def exact_logrank_permutation_p(records) -> float:
    """Exact two-sided permutation p-value of the logrank z statistic.

    Enumerates every assignment of the observed control-arm count to
    subjects, recomputing the full statistic per labeling. Labelings with
    zero variance are excluded from the reference distribution. Only
    feasible for small fixtures (C(n, n1) labelings).
    """
    z_obs = naive_logrank_z(records)
    if z_obs is None:
        raise ValueError("observed statistic is degenerate")
    n1 = sum(1 for r in records if r.arm == Arm.CONTROL)
    hits = 0
    total = 0
    for control_idx in combinations(range(len(records)), n1):
        chosen = set(control_idx)
        relabeled = [
            type(r)(time=r.time, event=r.event, arm=Arm.CONTROL if i in chosen else Arm.EXPERIMENTAL)
            for i, r in enumerate(records)
        ]
        z = naive_logrank_z(relabeled)
        if z is None:
            continue
        total += 1
        if abs(z) >= abs(z_obs) - 1e-12:
            hits += 1
    return hits / total


def naive_weighted_sums(
    months: list[int], arms: list[Arm], weights: list[float], at_risk_by_arm: list[list[int]]
) -> tuple[float, float]:
    """(O1 - E1, V) for the weighted test from explicit per-month counts.

    at_risk_by_arm[a][m] counts arm-a subjects at risk in month m.
    """
    horizon = len(at_risk_by_arm[0]) - 1
    o_minus_e = 0.0
    variance = 0.0
    for month in range(1, horizon + 1):
        w_here = [w for m, w in zip(months, weights) if m == month]
        if not w_here:
            continue
        w_sum = sum(w_here)
        q_sum = sum(w * w for w in w_here)
        o1 = sum(
            w for m, a, w in zip(months, arms, weights) if m == month and a == Arm.CONTROL
        )
        n1 = at_risk_by_arm[int(Arm.CONTROL)][month]
        n = n1 + at_risk_by_arm[int(Arm.EXPERIMENTAL)][month]
        p = n1 / n
        o_minus_e += o1 - w_sum * p
        if n > 1:
            variance += p * (1.0 - p) * (n * q_sum - w_sum**2) / (n - 1)
    return o_minus_e, variance


def exact_label_moments(weights: list[float], n_control: int) -> tuple[float, float]:
    """Exact mean and variance of a control-arm weighted sum over labelings.

    One month, every subject at risk, subject i carrying total weight
    weights[i] (0.0 for subjects with no event). Enumerates all
    C(n, n_control) assignments and returns the population moments of
    O1 = sum of control-subject weights.
    """
    sums = [
        sum(weights[i] for i in control_idx)
        for control_idx in combinations(range(len(weights)), n_control)
    ]
    mean = sum(sums) / len(sums)
    var = sum((s - mean) ** 2 for s in sums) / len(sums)
    return mean, var


def welch_t_df(sample_a, sample_b) -> tuple[float, float]:
    """Welch t statistic and Welch-Satterthwaite degrees of freedom."""
    na, nb = len(sample_a), len(sample_b)
    ma = sum(sample_a) / na
    mb = sum(sample_b) / nb
    va = sum((x - ma) ** 2 for x in sample_a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in sample_b) / (nb - 1)
    se2 = va / na + vb / nb
    t = (ma - mb) / sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df
