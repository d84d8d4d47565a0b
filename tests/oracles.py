"""Independent reference implementations used as test oracles.

Everything here is deliberately naive pure Python: dictionary loops,
itertools enumeration, no shared code with the package internals. When a
package routine and an oracle disagree, the oracle wins. The subject
stream oracle builds one np.random.default_rng per subject, the stream
that the package's vectorized generator must reproduce bit for bit. The
replicate oracle is the exception to "no shared code": it is the package's
former one-replicate-at-a-time path -- simulate_trial, then a per-trial
scan through the per-event extraction and per-endpoint logrank terms with
scipy's norm.sf -- kept as the reference that the replicate-batched engine
must reproduce bit for bit; it shares the kernel monthly_terms, but counts
its own risk sets and events month by month. extract_weighted_events is
that former extraction: one WeightedEvent per observed move, which
event_sums_from validates and sums into EventSums, whose counts() are the
CWTA counts that the package's monthly_counts computes from the state
matrix directly, for one trial without the leading trial axis.
read_trajectories_rowwise is the former row-by-row CSV reader (one dict
per row, per-subject checks in a loop), the reference for the columnar
read_trajectories_csv; trial_state_matrix packs per-subject rows the way
it did. write_trajectories_rowwise is the former writer (one tuple per
row, each value formatted on its own through the csv module), the
reference for the chunked write_trajectories_csv.
"""

from __future__ import annotations

import csv
import sys
from itertools import combinations
from math import erf, sqrt
from typing import NamedTuple

import numpy as np

from scipy import stats

from cwtasim import (
    DEATH,
    MAX_STATE,
    METHODS,
    Arm,
    Endpoint,
    SD,
    TransitionModel,
    Trial,
    apply_hazard_ratio,
    endpoint_arrays,
    simulate_trial,
)
from cwtasim.seeds import float_bits, mix64
from cwtasim.statistics import monthly_terms, weighted_counts


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
    control_model: TransitionModel,
    arm: Arm,
    hr: float,
    rng: np.random.Generator,
    improvement_hr: float | None = None,
) -> tuple[np.ndarray, int | None]:
    """Simulate one subject, consuming horizon + 2 uniforms from rng.

    Returns the states of months 0..last observed month and the dropout
    month (None when the subject is followed to the horizon).
    """
    model = control_model
    if arm == Arm.EXPERIMENTAL:
        model = apply_hazard_ratio(control_model, hr, improvement_hr)
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


class WeightedEvent(NamedTuple):
    """One weighted event: a subject's level change into month, weight (new - old) / 4."""

    month: int
    subject: int
    arm: Arm
    weight: float


class EventSums(NamedTuple):
    """A table's weighted events summed by month, with its risk counts.

    w_sum, q_sum and o1 sum the event weights, squared weights and
    control-arm weights of months 0..horizon; at_risk[arm, month] counts
    that arm's subjects at risk.
    """

    w_sum: np.ndarray
    q_sum: np.ndarray
    o1: np.ndarray
    at_risk: np.ndarray

    def counts(self) -> tuple:
        """The package's CWTA counts of these sums: monthly_terms' arguments."""
        n1 = self.at_risk[int(Arm.CONTROL)]
        return weighted_counts(self.o1, self.w_sum, self.q_sum, n1, self.at_risk.sum(axis=0))


def event_sums_from(events, at_risk, horizon: int) -> EventSums:
    """Validate explicit weighted events and risk counts, and sum them by month.

    at_risk[a][m] counts arm-a subjects at risk in month m. Rejects an
    event month outside 1..horizon, a weight that is zero or beyond the
    ordinal span (|w| > 1), risk counts of the wrong shape or that are
    negative or rise over months, two events of one subject in one month,
    and an event in an empty risk set. Events are summed in (month,
    subject) order.
    """
    at_risk = np.asarray(at_risk, dtype=np.int64)
    if at_risk.shape != (2, horizon + 1):
        raise ValueError(f"at_risk must have shape (2, {horizon + 1})")
    if np.any(at_risk < 0) or np.any(np.diff(at_risk, axis=1) > 0):
        raise ValueError("at_risk counts must be non-negative and non-increasing over months")
    events = sorted(events, key=lambda e: (e.month, e.subject))
    for e in events:
        if not 1 <= e.month <= horizon:
            raise ValueError(f"event month must lie in 1..{horizon}, got {e.month}")
        if e.weight == 0.0 or abs(e.weight) > 1.0:
            raise ValueError(f"event weight must be non-zero with |w| <= 1, got {e.weight}")
        if at_risk[int(e.arm), e.month] < 1:
            raise ValueError(f"event in month {e.month} for arm {int(e.arm)} with empty risk set")
    if len({(e.month, e.subject) for e in events}) != len(events):
        raise ValueError("a subject may contribute at most one event per month")
    width = horizon + 1
    months = np.array([e.month for e in events], dtype=np.int64)
    weights = np.array([e.weight for e in events], dtype=np.float64)
    control = np.array([e.arm == Arm.CONTROL for e in events], dtype=bool)
    return EventSums(
        w_sum=np.bincount(months, weights=weights, minlength=width),
        q_sum=np.bincount(months, weights=weights**2, minlength=width),
        o1=np.bincount(months[control], weights=weights[control], minlength=width),
        at_risk=at_risk,
    )


def extract_weighted_events(trial: Trial) -> tuple[list[WeightedEvent], np.ndarray]:
    """The former per-event extraction: (events, at_risk) of one trial.

    Any observed one-level change in month m becomes an event of weight
    (new - old) / 4, listed in (month, subject) order. A subject stays at
    risk in its death month and through its censor month; at_risk is
    (2, horizon + 1).
    """
    states, censor, arms, horizon = trial.states, trial.censor, trial.arms, trial.horizon
    diffs = states[:, 1:].astype(np.int16) - states[:, :-1].astype(np.int16)
    observed = np.arange(1, horizon + 1)[None, :] <= censor[:, None]
    rows, cols = np.nonzero(observed & (diffs != 0))
    events = [
        WeightedEvent(int(c) + 1, int(r), Arm(int(arms[r])), float(diffs[r, c]) / MAX_STATE)
        for r, c in zip(rows, cols)
    ]
    dead = states == DEATH
    risk_end = np.where(dead.any(axis=1), dead.argmax(axis=1), censor)
    months = np.arange(horizon + 1)
    at_risk = np.array([(risk_end[arms == a, None] >= months).sum(axis=0) for a in (0, 1)], dtype=np.int64)
    return sorted(events, key=lambda e: (e.month, e.subject)), at_risk


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


def logrank_terms(times, events, arms, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The former per-endpoint logrank terms of months 1..horizon: monthly_terms
    of (d1, d, d, n - d, n1, n), each risk set and event count taken month by
    month with plain comparisons."""
    is_control = arms == int(Arm.CONTROL)
    months = range(horizon + 1)
    n = np.array([np.count_nonzero(times >= m) for m in months])
    n1 = np.array([np.count_nonzero(is_control & (times >= m)) for m in months])
    d = np.array([np.count_nonzero(events & (times == m)) for m in months])
    d1 = np.array([np.count_nonzero(events & is_control & (times == m)) for m in months])
    return monthly_terms(d1, d, d, n - d, n1, n)


def weighted_terms(sums: EventSums) -> tuple[np.ndarray, np.ndarray]:
    """The former weighted terms of months 1..horizon, from float risk counts."""
    n1 = sums.at_risk[int(Arm.CONTROL)].astype(np.float64)
    n = sums.at_risk.sum(axis=0).astype(np.float64)
    return monthly_terms(sums.o1, sums.w_sum, 1.0, n * sums.q_sum - sums.w_sum**2, n1, n)


def scan_one_trial(trial, alpha: float) -> dict[str, MethodScan]:
    """Monthly significance scans of one trial, one method at a time."""
    scans: dict[str, MethodScan] = {}
    for kind in Endpoint:
        times, events = endpoint_arrays(trial.states, trial.censor, kind)
        scans[kind.name] = scan_from_terms(*logrank_terms(times, events, trial.arms, trial.horizon), alpha)
    sums = event_sums_from(*extract_weighted_events(trial), trial.horizon)
    scans["CWTA"] = scan_from_terms(*weighted_terms(sums), alpha)
    return scans


def run_replicates_one_by_one(hr, ss, replicates, profile, master_seed, alpha=0.05):
    """(final_p, first_month) columns in METHODS order, built one replicate at a time."""
    final_p = np.empty((replicates, len(METHODS)))
    first_month = np.zeros((replicates, len(METHODS)), dtype=np.int64)
    for r in range(replicates):
        seed = mix64(master_seed, float_bits(hr), ss, r)
        trial = simulate_trial(profile, hr, ss, seed)
        scans = scan_one_trial(trial, alpha)
        for k, method in enumerate(METHODS):
            final_p[r, k] = scans[method].final_p
            first_month[r, k] = scans[method].first_significant_month or 0
    return final_p, first_month


def trial_state_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-subject observed states into (states, censor).

    Row i holds subject i's states for months 0..k_i. states is
    (n, max k_i + 1) int8 with -1 after each row's end, and censor[i] = k_i.
    """
    if not rows:
        raise ValueError("no trajectories supplied")
    censor = np.array([len(r) - 1 for r in rows], dtype=np.int64)
    states = np.full((len(rows), int(censor.max()) + 1), -1, dtype=np.int8)
    for i, r in enumerate(rows):
        states[i, : len(r)] = r
    return states, censor


_ARM_BY_LABEL = {arm.label: arm for arm in Arm}


def _int_field(path, row: dict, field: str) -> int:
    try:
        return int(row[field])
    except ValueError:
        pass
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # an integer that parses without the limit failed on its length
    try:
        int(row[field])
        fault = f"a {field} of more than {limit} digits"
    except ValueError:
        fault = f"a non-integer {field} '{row[field]}'"
    finally:
        sys.set_int_max_str_digits(limit)
    raise ValueError(f"{path}: subject {row['subject']} has {fault}")


def read_trajectories_rowwise(path) -> Trial:
    """The former row-by-row trajectory CSV reader: one dict per row.

    Reads long-format trajectories; dropout_month column is optional.

    Subjects keep the order in which they first appear. Validates the
    structural invariants analyses rely on: months form a contiguous 0..k
    run per subject, the baseline state is SD, moves are single-level,
    progression is irreversible and death absorbing.
    """
    required = ("subject", "month", "state", "arm")
    by_subject: dict[str, dict] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:  # UTF-8, less a leading byte-order mark
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty trajectory file")
        if not set(required) <= set(reader.fieldnames):
            raise ValueError(f"{path}: trajectory CSV needs columns {sorted(required)}")
        # a short row fills its trailing fields with None
        last_required = max(required, key=reader.fieldnames.index)
        for row in reader:
            if row[last_required] is None:
                raise ValueError(
                    f"{path}: subject {row['subject']} has a truncated row (needs {', '.join(required)})"
                )
            entry = by_subject.setdefault(
                row["subject"], {"months": [], "states": [], "arm": None, "dropout": None}
            )
            try:
                month, state = int(row["month"]), int(row["state"])
            except ValueError:  # raise the error that names the field
                month, state = _int_field(path, row, "month"), _int_field(path, row, "state")
            entry["months"].append(month)
            entry["states"].append(state)
            arm_label = row["arm"].strip().lower()
            if arm_label not in _ARM_BY_LABEL:
                raise ValueError(f"{path}: unknown arm '{row['arm']}'")
            arm = _ARM_BY_LABEL[arm_label]
            if entry["arm"] is None:
                entry["arm"] = arm
            elif entry["arm"] != arm:
                raise ValueError(f"{path}: subject {row['subject']} changes arm")
            if (row.get("dropout_month") or "").strip():
                d = _int_field(path, row, "dropout_month")
                if entry["dropout"] is not None and entry["dropout"] != d:
                    raise ValueError(f"{path}: subject {row['subject']} has conflicting dropout months")
                entry["dropout"] = d
    if not by_subject:
        raise ValueError(f"{path}: no trajectory rows")

    rows = []
    for key, entry in by_subject.items():
        order = np.argsort(entry["months"])
        months = np.asarray(entry["months"])[order]
        states = np.asarray(entry["states"])[order]
        if months[0] != 0 or not np.array_equal(months, np.arange(len(months))):
            raise ValueError(f"{path}: subject {key} months must run 0..k without gaps")
        if states[0] != SD:
            raise ValueError(f"{path}: subject {key} must start at state {SD} (stable disease)")
        if states.min() < 0 or states.max() > 4:
            raise ValueError(f"{path}: subject {key} has states outside 0..4")
        diffs = np.diff(states)
        if diffs.size and np.abs(diffs).max() > 1:
            raise ValueError(f"{path}: subject {key} moves more than one level in a month")
        # progression irreversible, death absorbing
        if np.any((states[:-1] == 3) & (diffs < 0)) or np.any((states[:-1] == 4) & (diffs != 0)):
            raise ValueError(f"{path}: subject {key} violates irreversibility")
        dropout = entry["dropout"]
        if dropout is not None and dropout != len(states) - 1:
            raise ValueError(
                f"{path}: subject {key} dropout_month {dropout} does not match last observed month"
            )
        rows.append(states.astype(np.int8))
    states, censor = trial_state_matrix(rows)
    subjects = by_subject.values()
    return Trial(
        states=states,
        censor=censor,
        arms=np.array([e["arm"] for e in subjects], dtype=np.int8),
        dropped=np.array([e["dropout"] is not None for e in subjects], dtype=bool),
    )


def write_trajectories_rowwise(trial: Trial, path) -> None:
    """The former trajectory CSV writer: one tuple per row through csv.writer."""
    labels = [Arm(a).label for a in trial.arms.tolist()]
    rows = []
    for i, (states, last, dropped) in enumerate(
        zip(trial.states.tolist(), trial.censor.tolist(), trial.dropped.tolist())
    ):
        d = last if dropped else None
        rows.extend((i, month, states[month], labels[i], d) for month in range(last + 1))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("subject", "month", "state", "arm", "dropout_month"))
        for row in rows:
            writer.writerow(["" if v is None else str(v) for v in row])
