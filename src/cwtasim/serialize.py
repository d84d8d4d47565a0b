"""CSV and JSON wire formats.

Floats are written with repr (shortest round-trip form) and rows in a
fixed order, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .trajectories import SD, Arm, TransitionModel, Trial, trial_state_matrix

BUILTIN_PROFILES = ("moderate", "high")

_ARM_BY_LABEL = {arm.label: arm for arm in Arm}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def save_profile(model: TransitionModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(name_or_path: str) -> TransitionModel:
    """Load a transition model: a built-in profile name or a JSON path."""
    if name_or_path in BUILTIN_PROFILES:
        text = (
            resources.files("cwtasim").joinpath("profiles", f"{name_or_path}.json").read_text()
        )
    else:
        if not os.path.exists(name_or_path):
            raise FileNotFoundError(
                f"profile '{name_or_path}' is neither a built-in name {BUILTIN_PROFILES} nor a file"
            )
        with open(name_or_path) as fh:
            text = fh.read()
    return TransitionModel.from_json_dict(json.loads(text))


def write_trajectories_csv(trial: Trial, path) -> None:
    """Long-format trajectory CSV: subject,month,state,arm,dropout_month."""
    labels = [Arm(a).label for a in trial.arms.tolist()]
    rows = []
    for i, (states, last, dropped) in enumerate(
        zip(trial.states.tolist(), trial.censor.tolist(), trial.dropped.tolist())
    ):
        d = last if dropped else None
        rows.extend((i, month, states[month], labels[i], d) for month in range(last + 1))
    _write_rows(path, ("subject", "month", "state", "arm", "dropout_month"), rows)


def _int_field(path, row: dict, field: str) -> int:
    try:
        return int(row[field])
    except ValueError:
        raise ValueError(f"{path}: subject {row['subject']} has a non-integer {field} '{row[field]}'") from None


def read_trajectories_csv(path) -> Trial:
    """Read long-format trajectories; dropout_month column is optional.

    Subjects keep the order in which they first appear. Validates the
    structural invariants analyses rely on: months form a contiguous 0..k
    run per subject, the baseline state is SD, moves are single-level,
    progression is irreversible and death absorbing.
    """
    required = ("subject", "month", "state", "arm")
    by_subject: dict[str, dict] = {}
    with open(path, newline="") as fh:
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


def write_km_curve_csv(curve, path) -> None:
    _write_rows(
        path,
        ("time", "survival", "at_risk", "events"),
        [(s.time, s.survival, s.at_risk, s.events) for s in curve.steps],
    )


def write_trajectory_curve_csv(curve, path) -> None:
    _write_rows(
        path,
        ("month", "value", "at_risk_arm1", "at_risk_arm2"),
        [(s.month, s.value, s.at_risk_control, s.at_risk_experimental) for s in curve.steps],
    )


def write_km_curves_by_arm_csv(curves: dict, path) -> None:
    """Both arms' KM curves in one file, an arm column ahead of the schema."""
    rows = []
    for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
        for s in curves[arm].steps:
            rows.append((arm.label, s.time, s.survival, s.at_risk, s.events))
    _write_rows(path, ("arm", "time", "survival", "at_risk", "events"), rows)


def write_trajectory_curves_by_arm_csv(curves: dict, path) -> None:
    rows = []
    for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
        for s in curves[arm].steps:
            rows.append((arm.label, s.month, s.value, s.at_risk_control, s.at_risk_experimental))
    _write_rows(path, ("arm", "month", "value", "at_risk_arm1", "at_risk_arm2"), rows)


def write_tests_csv(results: dict, path) -> None:
    """Three-method test summary; degenerate tests leave numeric fields blank."""
    rows = []
    for method in ("CWTA", "PFS", "OS"):
        r = results.get(method)
        if r is None:
            rows.append((method, None, None, None, None, None))
        else:
            rows.append((method, r.statistic, r.z, r.p_value, r.observed_minus_expected, r.variance))
    _write_rows(
        path,
        ("method", "statistic", "z", "p_value", "observed_minus_expected", "variance"),
        rows,
    )


def write_power_csv(rows, path) -> None:
    _write_rows(
        path,
        ("method", "hr", "ss", "replicates", "power"),
        [(r.method, r.hr, r.ss, r.replicates, r.power) for r in rows],
    )


def write_sample_size_csv(rows, path) -> None:
    _write_rows(
        path,
        ("method", "hr", "sample_size_80"),
        [(r.method, r.hr, r.sample_size) for r in rows],
    )


def write_tte_csv(rows, path) -> None:
    """rows: (TTESummary, TTEComparison | None) pairs."""
    out = []
    for summary, comparison in rows:
        out.append(
            (
                summary.method,
                summary.hr,
                summary.ss,
                summary.mean_months,
                summary.sd_months,
                summary.n_included,
                summary.n_omitted,
                None if comparison is None else comparison.pct_delta,
                None if comparison is None else comparison.p_value,
            )
        )
    _write_rows(
        path,
        ("method", "hr", "ss", "mean", "sd", "n_included", "n_omitted", "pct_delta_vs_cwta", "p_value"),
        out,
    )


def read_curves_csv(path) -> list[tuple[str, list[tuple[float, float]]]]:
    """Read step curves for plotting from any of the curve CSV layouts.

    Returns (label, points) pairs: one per arm for arm-stacked files,
    otherwise a single unnamed curve. KM curves get a (0, 1) anchor so
    the plotted step starts at full survival.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty curve file") from None
        rows = [row for row in reader if row]
    header = [h.strip() for h in header]
    has_arm = header and header[0] == "arm"
    cols = header[1:] if has_arm else header
    if cols[:2] == ["time", "survival"]:
        x_col, y_col, anchor = 0, 1, (0.0, 1.0)
    elif cols[:2] == ["month", "value"]:
        x_col, y_col, anchor = 0, 1, None
    else:
        raise ValueError(f"{path}: unrecognized curve columns {header}")
    groups: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label = row[0] if has_arm else ""
        payload = row[1:] if has_arm else row
        groups.setdefault(label, []).append((float(payload[x_col]), float(payload[y_col])))
    if not groups:
        raise ValueError(f"{path}: curve file has a header but no data rows")
    out = []
    for label, points in groups.items():
        points.sort()
        if anchor is not None and (not points or points[0][0] > 0):
            points.insert(0, anchor)
        out.append((label, points))
    return out
