"""CSV and JSON wire formats.

Floats are written with repr (shortest round-trip form) and rows in a
fixed order, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from importlib import resources
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .trajectories import DEATH, N_STATES, PD, SD, Arm, TransitionModel, Trial
from .weighted import METHODS

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
    """Load a transition model: a built-in profile name or a JSON path.

    A profile that cannot be decoded, parsed or validated raises ValueError
    with a message that starts with its name or path.
    """
    if name_or_path in BUILTIN_PROFILES:
        raw = resources.files("cwtasim").joinpath("profiles", f"{name_or_path}.json").read_bytes()
    elif not os.path.exists(name_or_path):
        raise FileNotFoundError(
            f"profile '{name_or_path}' is neither a built-in name {BUILTIN_PROFILES} nor a file"
        )
    else:
        with open(name_or_path, "rb") as fh:
            raw = fh.read()
    try:
        return TransitionModel.from_json_dict(json.loads(raw.decode()))
    except (ValueError, RecursionError) as exc:  # a decode, JSON or schema error
        raise ValueError(f"{name_or_path}: {exc}") from None


WRITE_SUBJECTS = 1_024  # subjects formatted per write: bounds the text alive at once


def write_trajectories_csv(trial: Trial, path) -> None:
    """Long-format trajectory CSV: subject,month,state,arm,dropout_month.

    Rows are written WRITE_SUBJECTS subjects at a time, straight from the
    state matrix. A subject's rows differ only in month and state, so they
    are one join of "month,state" texts, looked up by month * N_STATES +
    state, between the subject's own "subject," prefix and
    ",arm,dropout_month" line ending. Observed states are 0..4, as in any
    Trial.
    """
    cells = [f"{m},{s}" for m in range(trial.horizon + 1) for s in range(N_STATES)]
    codes = N_STATES * np.arange(trial.horizon + 1)
    labels = [Arm(a).label for a in trial.arms.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("subject,month,state,arm,dropout_month\n")
        for start in range(0, len(labels), WRITE_SUBJECTS):
            stop = min(start + WRITE_SUBJECTS, len(labels))
            text = []
            for i, row, last, dropped in zip(
                range(start, stop),
                (trial.states[start:stop] + codes).tolist(),
                trial.censor[start:stop].tolist(),
                trial.dropped[start:stop].tolist(),
            ):
                head, tail = f"{i},", f",{labels[i]},{last if dropped else ''}\n"
                text.append(head + (tail + head).join(map(cells.__getitem__, row[: last + 1])) + tail)
            fh.write("".join(text))


_REQUIRED = ("subject", "month", "state", "arm")
CHUNK_ROWS = 8_000  # rows tokenized at a time: bounds the strings alive at once


def _columns(path, header: list[str] | None) -> tuple[dict[str, int], int]:
    """Column index by name (a repeated name reads its last column) and dropout_month's."""
    if header is None:
        raise ValueError(f"{path}: empty trajectory file")
    col = {name: i for i, name in enumerate(header)}
    if not set(_REQUIRED) <= col.keys():
        raise ValueError(f"{path}: trajectory CSV needs columns {sorted(_REQUIRED)}")
    return col, col.get("dropout_month", sys.maxsize)  # absent, or past a short row's end: blank


def _first_row_fault(path) -> str:
    """The message of the earliest row-level fault, from a row-by-row rescan."""
    arms: dict[str, Arm] = {}
    dropouts: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            col, d = _columns(path, next(reader, None))
            for row in filter(None, reader):  # csv.reader yields [] for a blank line
                key = row[col["subject"]] if col["subject"] < len(row) else None
                if len(row) <= max(col[name] for name in _REQUIRED):
                    return f"{path}: subject {key} has a truncated row (needs {', '.join(_REQUIRED)})"
                try:
                    for name in ("month", "state"):
                        int(row[col[name]])
                except ValueError:
                    return f"{path}: subject {key} has a non-integer {name} '{row[col[name]]}'"
                arm = _ARM_BY_LABEL.get(row[col["arm"]].strip().lower())
                if arm is None:
                    return f"{path}: unknown arm '{row[col['arm']]}'"
                if arms.setdefault(key, arm) != arm:
                    return f"{path}: subject {key} changes arm"
                if (raw := row[d] if d < len(row) else "").strip():
                    try:
                        dropout = int(raw)
                    except ValueError:
                        return f"{path}: subject {key} has a non-integer dropout_month '{raw}'"
                    if dropouts.setdefault(key, dropout) != dropout:
                        return f"{path}: subject {key} has conflicting dropout months"
        except csv.Error as exc:
            return f"{path}: line {reader.line_num}: {exc}"
        except UnicodeDecodeError as exc:
            return f"{path}: {exc}"


def _narrow(texts: list[str], convert, dtype) -> np.ndarray:
    """convert(text) for each text, called once per distinct text."""
    table = {text: convert(text) for text in set(texts)}
    return np.fromiter(map(table.__getitem__, texts), dtype, len(texts))


def read_trajectories_csv(path) -> Trial:
    """Read long-format trajectories; the dropout_month column is optional.

    Subjects keep the order in which they first appear; rows may come in
    any order. CHUNK_ROWS rows at a time become narrow integer columns,
    scattered into the padded state matrix and checked with whole-array
    operations. A row fault names the earliest offending row, a structural
    fault the first offending subject (rules in the README).
    """
    index: dict[str, int] = {}  # subject key -> code, in first-appearance order
    dropout_code: dict[int, int] = {}  # dropout month -> code, exact for any integer
    parts = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # a truncated row raises IndexError, an unknown arm KeyError, a non-integer field
        # ValueError; the rescan then reports the earliest fault, or the header's
        try:
            col, d = _columns(path, next(reader, None))
            while rows := list(islice(reader, CHUNK_ROWS)):
                rows = [row for row in rows if row]
                keys = [row[col["subject"]] for row in rows]
                for key in dict.fromkeys(keys):
                    index.setdefault(key, len(index))
                parts.append((
                    np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)),
                    # out-of-range months and states stay out of range
                    _narrow([row[col["month"]] for row in rows], lambda t: min(max(int(t), -1), 2**31 - 1), np.int32),
                    _narrow([row[col["state"]] for row in rows], lambda t: min(max(int(t), -1), 5), np.int8),
                    _narrow([row[col["arm"]] for row in rows], lambda t: _ARM_BY_LABEL[t.strip().lower()], np.int8),
                    _narrow(
                        [row[d] if d < len(row) else "" for row in rows],
                        lambda t: dropout_code.setdefault(int(t), len(dropout_code)) if t.strip() else -1,
                        np.int32,
                    ),
                ))
                del rows, keys  # free this chunk's strings before the next is read
        except (LookupError, ValueError, csv.Error):
            raise ValueError(_first_row_fault(path)) from None
    if not index:
        raise ValueError(f"{path}: no trajectory rows")
    n = len(index)
    arms, dropouts = np.full(n, -1, dtype=np.int8), np.full(n, -1, dtype=np.int32)
    for codes, _, _, arm, drops in parts:  # some row's value; then every row must agree
        arms[codes] = arm
        dropouts[codes[drops >= 0]] = drops[drops >= 0]
    if any((arms[c] != a).any() or (dropouts[c[k >= 0]] != k[k >= 0]).any() for c, _, _, a, k in parts):
        raise ValueError(_first_row_fault(path))
    count = sum(np.bincount(codes, minlength=n) for codes, *_ in parts)
    states = np.full((n, int(count.max())), -1, dtype=np.int8)
    seen = np.zeros(states.shape, dtype=bool)
    for codes, months, values, *_ in parts:
        inside = (months >= 0) & (months < count[codes])
        states[codes[inside], months[inside]] = values[inside]
        seen[codes[inside], months[inside]] = True
    observed = np.arange(states.shape[1]) < count[:, None]
    moves, before, step = np.diff(states, axis=1), states[:, :-1], observed[:, 1:]
    reverses = ((before == PD) & (moves < 0)) | ((before == DEATH) & (moves != 0))  # PD, death are final
    ends = np.array([m if 0 <= m < states.shape[1] else -1 for m in dropout_code] + [-1])  # by code; -1 unset
    checks = [
        (seen.sum(axis=1) != count, "months must run 0..k without gaps"),
        (states[:, 0] != SD, f"must start at state {SD} (stable disease)"),
        ((observed & ((states < 0) | (states > 4))).any(axis=1), "has states outside 0..4"),
        ((step & (np.abs(moves) > 1)).any(axis=1), "moves more than one level in a month"),
        ((step & reverses).any(axis=1), "violates irreversibility"),
        ((dropouts >= 0) & (ends[dropouts] != count - 1), "dropout_month {} does not match last observed month"),
    ]
    for group in (checks, [(count == 1, "has no follow-up after month 0")]):
        if (bad := np.logical_or.reduce([fault for fault, _ in group])).any():
            s = int(bad.argmax())
            message = next(text for fault, text in group if fault[s])
            dropout = list(dropout_code)[dropouts[s]] if dropouts[s] >= 0 else None
            raise ValueError(f"{path}: subject {list(index)[s]} " + message.format(dropout))
    return Trial(states=states, censor=count - 1, arms=arms, dropped=dropouts >= 0)


def write_km_curves_by_arm_csv(curves: dict, path) -> None:
    """Both arms' KM curves in one file, an arm column ahead of the schema."""
    rows = []
    for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
        for s in curves[arm].steps:
            rows.append((arm.label, s.time, s.survival, s.at_risk, s.events))
    _write_rows(path, ("arm", "time", "survival", "at_risk", "events"), rows)


def write_trajectory_curves_by_arm_csv(curves: dict, path, at_risk) -> None:
    """Both arms' trajectory curves in one file, a row per arm and month.

    curves[arm][m] is the arm's value in month m; at_risk[a][m] counts the
    subjects of arm a at risk then.
    """
    rows = []
    for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
        for m, value in enumerate(curves[arm].tolist()):
            rows.append((arm.label, m, value, at_risk[0][m], at_risk[1][m]))
    _write_rows(path, ("arm", "month", "value", "at_risk_arm1", "at_risk_arm2"), rows)


def write_tests_csv(results: dict, path) -> None:
    """Three-method test summary; degenerate tests leave numeric fields blank."""
    rows = []
    for method in METHODS:
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
