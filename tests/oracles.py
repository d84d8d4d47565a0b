"""Independent reference implementations used as test oracles.

Everything here is deliberately naive pure Python: dictionary loops,
itertools enumeration, no shared code with the package internals. When a
package routine and an oracle disagree, the oracle wins. The subject
stream oracle builds one np.random.default_rng per subject, the stream
that the package's vectorized generator must reproduce bit for bit. The
replicate oracle is the exception to "no shared code": it is the package's
former one-replicate-at-a-time path -- simulate_trial, then a per-trial
scan through the event table with scipy's norm.sf -- kept as the
reference that the replicate-batched engine must reproduce bit for bit.
"""

from __future__ import annotations

from itertools import combinations
from math import erf, sqrt
from typing import NamedTuple

import numpy as np

from scipy import stats

from cwtasim import (
    METHODS,
    Arm,
    Endpoint,
    TransitionModel,
    TrialConfig,
    apply_hazard_ratio,
    endpoint_arrays,
    extract_weighted_events,
    simulate_trial,
)
from cwtasim.kaplan_meier import monthly_logrank_terms
from cwtasim.seeds import float_bits, mix64
from cwtasim.weighted import monthly_weighted_terms


class Record(NamedTuple):
    """One subject's time-to-event outcome, the unit the naive oracles loop over."""

    time: int
    event: bool
    arm: Arm


def columns(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, events, arms) arrays of a record list: the package's input form."""
    return (
        np.array([r.time for r in records], dtype=np.int64),
        np.array([r.event for r in records], dtype=bool),
        np.array([int(r.arm) for r in records], dtype=np.int8),
    )


def subject_rng(trial_seed: int, subject_index: int) -> np.random.Generator:
    """The reference stream of subject_index within a trial: one generator per subject."""
    return np.random.default_rng(mix64(trial_seed, subject_index))


def _trajectory_from_block(model: TransitionModel, block) -> tuple[np.ndarray, int | None]:
    """(observed states, dropout month or None) from one subject's horizon + 2 uniforms."""
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
    return np.array(states, dtype=np.int8), dropout


def simulate_subject(
    control_model: TransitionModel, arm: Arm, hr: float, rng: np.random.Generator
) -> tuple[np.ndarray, int | None]:
    """Simulate one subject, consuming horizon + 2 uniforms from rng.

    Returns the states of months 0..last observed month and the dropout
    month (None when the subject is followed to the horizon).
    """
    model = control_model
    if arm == Arm.EXPERIMENTAL:
        model = apply_hazard_ratio(control_model, hr)
    block = rng.random(control_model.horizon_months + 2)
    return _trajectory_from_block(model, block)


def naive_endpoint(states, threshold: int) -> tuple[int, bool]:
    """(time, event) from one subject's observed states: the first month at
    threshold or worse, else censored at the last observed month."""
    for month, state in enumerate(states):
        if state >= threshold:
            return month, True
    return len(states) - 1, False


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


class MethodScan(NamedTuple):
    """Horizon p-value (NaN when degenerate) and first significant month (None if never)."""

    final_p: float
    first_significant_month: int | None


def scan_from_terms(ome: np.ndarray, v: np.ndarray, alpha: float) -> MethodScan:
    cum_o = np.cumsum(ome)
    cum_v = np.cumsum(v)
    defined = cum_v > 0.0
    z = np.zeros_like(cum_o)
    np.divide(cum_o, np.sqrt(cum_v, where=defined, out=np.ones_like(cum_v)), where=defined, out=z)
    p = np.full_like(cum_o, np.nan)
    p[defined] = 2.0 * stats.norm.sf(np.abs(z[defined]))
    significant = np.zeros(p.shape, dtype=bool)
    significant[defined] = p[defined] < alpha
    first = int(significant.argmax()) + 1 if significant.any() else None
    return MethodScan(final_p=float(p[-1]), first_significant_month=first)


def scan_one_trial(trial, alpha: float) -> dict[str, MethodScan]:
    """Monthly significance scans of one trial, one method at a time."""
    scans: dict[str, MethodScan] = {}
    for kind in Endpoint:
        times, events = endpoint_arrays(trial.states, trial.censor, kind)
        ome, v = monthly_logrank_terms(times, events, trial.arms, trial.horizon)
        scans[kind.name] = scan_from_terms(ome, v, alpha)
    table = extract_weighted_events(trial)
    ome, v = monthly_weighted_terms(*table.event_sums())
    scans["CWTA"] = scan_from_terms(ome, v, alpha)
    return scans


def run_replicates_one_by_one(hr, ss, replicates, profile, master_seed, alpha=0.05):
    """(final_p, first_month) columns in METHODS order, built one replicate at a time."""
    final_p = np.empty((replicates, len(METHODS)))
    first_month = np.zeros((replicates, len(METHODS)), dtype=np.int64)
    for r in range(replicates):
        seed = mix64(master_seed, float_bits(hr), ss, r)
        trial = simulate_trial(TrialConfig(sample_size=ss, hazard_ratio=hr, control_model=profile, seed=seed))
        scans = scan_one_trial(trial, alpha)
        for k, method in enumerate(METHODS):
            final_p[r, k] = scans[method].final_p
            first_month[r, k] = scans[method].first_significant_month or 0
    return final_p, first_month
