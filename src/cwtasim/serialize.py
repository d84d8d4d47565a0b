"""CSV and JSON wire formats.

Floats are written with repr (shortest round-trip form) and rows in a
fixed order, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from importlib import resources
from itertools import islice
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from .statistics import METHODS, product_limit
from .trajectories import DEATH, MAX_HORIZON, N_STATES, PD, SD, Arm, TransitionModel, Trial, json_object

BUILTIN_PROFILES = ("moderate", "high")

_ARM_BY_LABEL = {arm.label: arm for arm in Arm}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
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


def load_profile(name_or_path: str | os.PathLike) -> TransitionModel:
    """Load a transition model: a built-in profile name or a JSON path.

    A profile that cannot be decoded, parsed or validated raises ValueError
    with a message that starts with its name or path. Any other value, such
    as an int that open() would take as a file descriptor, raises TypeError.
    """
    if not isinstance(name_or_path, (str, os.PathLike)):
        raise TypeError(f"profile must be a name or a path, not {name_or_path!r}")
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
        return TransitionModel.from_json_dict(json.loads(raw.decode(), object_pairs_hook=json_object))
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
CHUNK_BYTES = 1 << 18  # plain bytes tokenized at a time, cut at a line end: bounds the arrays alive at once
CHUNK_ROWS = 8_000  # rows of quoted or CR input tokenized at a time: bounds the strings alive at once
# state cells (subjects x longest subject's rows) a read Trial may hold, 128 MiB of int8;
# no less than any trial simulate writes (subjects x (horizon + 2) <= MAX_DRAWS)
MAX_CELLS = 2**27


def _columns(path, header: list[str] | None) -> tuple[dict[str, int], int]:
    """Column index by name (a repeated name reads its last column) and dropout_month's."""
    if header is None:
        raise ValueError(f"{path}: empty trajectory file")
    col = {name: i for i, name in enumerate(header)}
    if not set(_REQUIRED) <= col.keys():
        raise ValueError(f"{path}: trajectory CSV needs columns {sorted(_REQUIRED)}")
    return col, col.get("dropout_month", sys.maxsize)  # absent, or past a short row's end: blank


_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")  # the texts int() parses, its digit limit aside


def _int_fault(name: str, text: str) -> str:
    """Why int(text) raised: past Python's integer digit limit, or not an integer."""
    limit = sys.get_int_max_str_digits()
    if limit and _INTEGER.fullmatch(text) and sum(map(str.isdecimal, text)) > limit:
        return f"has a {name} of more than {limit} digits"
    return f"has a non-integer {name} '{text}'"


def _first_row_fault(path) -> str | None:
    """The message of the earliest row-level fault, from a row-by-row rescan;
    None if the rescan finds none."""
    arms: dict[str, Arm] = {}
    dropouts: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is no text
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
                    return f"{path}: subject {key} {_int_fault(name, row[col[name]])}"
                arm = _ARM_BY_LABEL.get(row[col["arm"]].strip().lower())
                if arm is None:
                    return f"{path}: unknown arm '{row[col['arm']]}'"
                if arms.setdefault(key, arm) != arm:
                    return f"{path}: subject {key} changes arm"
                if (raw := row[d] if d < len(row) else "").strip():
                    try:
                        dropout = int(raw)
                    except ValueError:
                        return f"{path}: subject {key} {_int_fault('dropout_month', raw)}"
                    if dropouts.setdefault(key, dropout) != dropout:
                        return f"{path}: subject {key} has conflicting dropout months"
        except csv.Error as exc:
            return f"{path}: line {reader.line_num}: {exc}"
        except UnicodeDecodeError as exc:
            return f"{path}: {exc}"


def _part(texts, index: dict[str, int], dropout_code: dict[int, int]) -> tuple:
    """One chunk's narrow integer columns from its subject, month, state, arm and dropout texts.

    A month column of 8-byte words that all hold 1 to 7 ASCII digits is
    folded to its values in place (_digit_words); any other month column,
    whose spellings int() may still accept, goes through _narrow.
    """
    keys, months, states, arms, drops = texts
    if (folded := _digit_words(months)) is None:
        # out-of-range months and states stay out of range
        folded = _narrow(months, lambda t: min(max(int(t), -1), 2**31 - 1), np.int32)
    return (
        _narrow(keys, lambda t: index.setdefault(t, len(index)), np.int32),  # codes follow first appearance
        folded,
        _narrow(states, lambda t: min(max(int(t), -1), 5), np.int8),
        _narrow(arms, lambda t: _ARM_BY_LABEL[t.strip().lower()], np.int8),
        _narrow(drops, lambda t: dropout_code.setdefault(int(t), len(dropout_code)) if t.strip() else -1, np.int32),
    )


def _narrow(texts, convert, dtype) -> np.ndarray:
    """convert(text) for each text, called once per distinct text in first-appearance order.

    texts is a list of str, or an array of UTF-8 fields each padded with at
    least one "," (which no field holds): fixed-width bytes, or 8-byte words.
    An array is narrowed run by run: runs of equal consecutive texts collapse
    to their heads before np.unique, and the converted heads are repeated
    back. A text's first appearance heads a run, so the order is the same.
    """
    if isinstance(texts, list):
        table = {text: convert(text) for text in dict.fromkeys(texts)}
        return np.fromiter(map(table.__getitem__, texts), dtype, len(texts))
    head = np.ones(len(texts), bool)  # sized by texts: an empty column has no run
    head[1:] = texts[1:] != texts[:-1]
    starts = np.flatnonzero(head)
    distinct, first, inverse = np.unique(texts[starts], return_index=True, return_inverse=True)
    order = np.argsort(first)
    table = np.empty(len(distinct), dtype)
    padded = distinct[order].view(f"S{distinct.itemsize}").tolist()
    table[order] = [convert(t.rstrip(b",").decode()) for t in padded]
    return np.repeat(table[inverse], np.diff(starts, append=len(texts)))


# by the field's bytes n <= 8 in a word: the mask of the word's first n bytes, and "," in the rest
_WORD_KEEP = np.frombuffer(b"".join(b"\xff" * n + bytes(8 - n) for n in range(9)), "<u8")
_WORD_PAD = np.frombuffer(b"".join(bytes(n) + b"," * (8 - n) for n in range(9)), "<u8")


# bytes repeated across an 8-byte word
_COMMAS, _ZEROS = np.uint64(0x2C2C2C2C2C2C2C2C), np.uint64(0x3030303030303030)
_LOW7, _HIGH1 = np.uint64(0x7F7F7F7F7F7F7F7F), np.uint64(0x8080808080808080)
_HIGH4, _SIXES = np.uint64(0xF0F0F0F0F0F0F0F0), np.uint64(0x0606060606060606)


def _digit_words(words) -> np.ndarray | None:
    """Each word's value as int32 when every word is 1 to 7 ASCII digits padded
    with ","; None for any other column.

    A word's first byte is its field's first. A field holds no ",", so the
    bytes that differ from "," are the field's n bytes. Shifted up by the
    8 - n padding bytes, with "0" filled in below, the word is eight digits,
    most significant first, which three multiply-add-mask steps (x10, x100,
    x10 000) fold to one number.
    """
    if getattr(words, "dtype", None) != np.uint64:  # a list of str, or fields wider than a word
        return None
    z = words ^ _COMMAS  # a field byte keeps some bit; a padding byte is 0
    n = np.bitwise_count(((z & _LOW7) + _LOW7 | z) & _HIGH1)  # one high bit per field byte
    digits = words << (64 - 8 * n) | _ZEROS >> (8 * n)
    # every byte 0x30..0x39: high nibble 3, and 3 still after adding 6 (no byte carries then)
    if not n.all() or ((digits & _HIGH4) != _ZEROS).any() or ((digits + _SIXES & _HIGH4) != _ZEROS).any():
        return None
    v = digits - _ZEROS
    v = v * np.uint64(10 << 8 | 1) >> np.uint64(8) & np.uint64(0x00FF00FF00FF00FF)  # 2-digit lanes
    v = v * np.uint64(100 << 16 | 1) >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)  # 4-digit lanes
    return (v * np.uint64(10_000 << 32 | 1) >> np.uint64(32)).astype(np.int32)


def _plain_fields(chunk, col: dict[str, int], d: int) -> list | None:
    """The subject, month, state, arm and dropout texts of a chunk as simulate
    writes it; None for any other chunk, which csv.reader reads instead.

    chunk is whole lines, each ending in "\n", with no '"' and no "\r": every
    "," and "\n" ends a field. It is read here when every line holds the same
    number of fields c, more than the last required column's index (so no
    line is blank); every column read, padded, takes at most twice the
    chunk's bytes; and no field's bytes exceed csv.field_size_limit(). Its
    field bounds are then reshaped to (lines, c), and a dropout column at or
    past c reads as blank. A column becomes an array of 8-byte words or
    fixed-width bytes, read from one ","-padded copy of the chunk through an
    unaligned 8-byte word view of it: a field of up to 7 bytes is one word,
    masked past the field's end, and a longer one the consecutive words that
    cover it.
    """
    buf = np.frombuffer(chunk, np.uint8)
    # field i spans bounds[i] + 1 .. bounds[i + 1], which is a "," or "\n"
    bounds = np.concatenate(([-1], np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))))
    lines = int(np.count_nonzero(buf == ord("\n")))
    c, ragged = divmod(len(bounds) - 1, lines)
    ks = [col[name] for name in _REQUIRED] + [d]
    # as many field ends as lines x c, and every c-th a line end: every line has c fields
    if ragged or c <= max(ks[:-1]) or (buf[bounds[c::c]] != ord("\n")).any():
        return None
    longest = int(np.diff(bounds).max())  # a field and its end
    # field k of line i spans bounds[i * c + k] + 1 .. bounds[i * c + k + 1]
    starts, ends = bounds[:-1].reshape(lines, c) + 1, bounds[1:].reshape(lines, c)
    spans = [
        (starts[:, k], ends[:, k] - starts[:, k]) if k < c else (starts[:, 0], np.zeros(lines, np.intp)) for k in ks
    ]
    widths = [max(int(size.max()) + 1, 8) for _, size in spans]
    if longest - 1 > csv.field_size_limit() or lines * max(widths) > 2 * len(buf):
        return None
    str(chunk, "utf-8")  # UTF-8, as csv.reader's text stream must be
    padded = np.concatenate((buf, np.full(longest + 8, ord(","), np.uint8)))  # the words of any field start
    words = np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))
    columns = []
    for (at, size), w in zip(spans, widths):
        if w == 8:  # a field of up to 7 bytes and its padding as one word, which sorts fast
            columns.append(words[at] & _WORD_KEEP[size] | _WORD_PAD[size])
        else:  # a field's words, each masked by the bytes of the field it holds, cut to w bytes
            j = np.arange(0, w, 8)
            rest = (size[:, None] - j).clip(0, 8).ravel()
            cells = words[(at[:, None] + j).ravel()] & _WORD_KEEP[rest] | _WORD_PAD[rest]
            columns.append(cells.view(f"S{8 * len(j)}").astype(f"S{w}"))
    return columns


def _csv_parts(fh, path, col, d, index, dropout_code):
    """Each CHUNK_ROWS rows' parts tuple, tokenized by csv.reader from fh (a text stream)."""
    reader = csv.reader(fh)
    if col is None:
        col, d = _columns(path, next(reader, None))
    while rows := list(islice(reader, CHUNK_ROWS)):
        rows = [row for row in rows if row]
        texts = [[row[col[name]] for row in rows] for name in _REQUIRED]
        yield _part(texts + [[row[d] if d < len(row) else "" for row in rows]], index, dropout_code)
        del rows, texts  # free this chunk's strings before the next is read


def _parts(fh, path, index, dropout_code):
    """Each chunk's parts tuple, read from fh (a binary stream).

    Plain bytes, with no '"' and no "\r", are tokenized CHUNK_BYTES at a time
    with array operations; a chunk unlike those simulate writes (a short,
    long or blank line, or a long field) is read alone by csv.reader. From
    the first chunk holding '"' or "\r" on, csv.reader, the one exact
    tokenizer of quoted input, reads the rest: before any quote, every "\n"
    ends a record, so that chunk starts one. Text is UTF-8 whatever the
    locale; a byte-order mark at byte 0 is skipped, by either tokenizer.
    """
    col = d = None
    done, pending = 0, b""  # bytes tokenized so far; a line begun but not ended
    while True:
        data = fh.read(CHUNK_BYTES)
        end, data = not data, pending + data
        if b'"' in data or b"\r" in data:
            fh.seek(done)
            text = io.TextIOWrapper(fh, "utf-8-sig" if done == 0 else "utf-8", newline="")
            yield from _csv_parts(text, path, col, d, index, dropout_code)
            return
        if end and data and not data.endswith(b"\n"):
            data += b"\n"  # the last line needs no line end
        cut = data.rfind(b"\n") + 1
        chunk, pending = memoryview(data)[:cut], data[cut:]
        done += cut
        if col is None and cut:
            header = data[: data.index(b"\n")]
            col, d = _columns(path, str(header, "utf-8-sig").split(","))  # less a leading byte-order mark
            chunk = chunk[len(header) + 1 :]
        if chunk and (fields := _plain_fields(chunk, col, d)) is None:
            yield from _csv_parts(io.StringIO(str(chunk, "utf-8"), newline=""), path, col, d, index, dropout_code)
        elif chunk:
            part, fields = _part(fields, index, dropout_code), None  # the texts are freed before the yield
            yield part
        if end:
            if col is None:
                _columns(path, None)  # an empty file: raises
            return


def read_trajectories_csv(path) -> Trial:
    """Read long-format trajectories; the dropout_month column is optional.

    Subjects keep the order in which they first appear; rows may come in
    any order. The file is read CHUNK_BYTES at a time, and each chunk's
    fields become narrow integer columns, converting each distinct text
    once; csv.reader tokenizes a chunk unlike those simulate writes, and
    a file holding '"' or "\r" from the first chunk holding one. The columns are scattered into the padded
    state matrix and checked with whole-array operations. A row fault
    names the earliest offending row, a structural fault the first
    offending subject (rules in the README).
    """
    index: dict[str, int] = {}  # subject key -> code, in first-appearance order
    dropout_code: dict[int, int] = {}  # dropout month -> code, exact for any integer
    with open(path, "rb") as fh:
        # a truncated row raises IndexError, an unknown arm KeyError, a non-integer field
        # ValueError; the rescan then reports the earliest fault, or the header's
        try:
            parts = list(_parts(fh, path, index, dropout_code))
        except (LookupError, ValueError, csv.Error) as exc:
            raise ValueError(_first_row_fault(path) or f"{path}: {type(exc).__name__}: {exc}") from None
    if not index:
        raise ValueError(f"{path}: no trajectory rows")
    n = len(index)
    arms, dropouts = np.full(n, -1, dtype=np.int8), np.full(n, -1, dtype=np.int32)
    for codes, _, _, arm, drops in parts:  # some row's value; then every row must agree
        arms[codes] = arm
        dropouts[codes[drops >= 0]] = drops[drops >= 0]
    if any((arms[c] != a).any() or (dropouts[c[k >= 0]] != k[k >= 0]).any() for c, _, _, a, k in parts):
        raise ValueError(_first_row_fault(path) or f"{path}: a subject's rows disagree on its arm or dropout month")
    count = sum(np.bincount(codes, minlength=n) for codes, *_ in parts)
    if (long := count > MAX_HORIZON + 1).any():  # refused before the matrix is allocated
        s = int(long.argmax())
        raise ValueError(f"{path}: subject {list(index)[s]} has {count[s]} rows, more than months 0..{MAX_HORIZON}")
    if n * (rows := int(count.max())) > MAX_CELLS:  # also refused before the matrix is allocated
        key = list(index)[int(count.argmax())]
        raise ValueError(
            f"{path}: {n} subjects, the longest (subject {key}) of {rows} rows, "
            f"need {n * rows} state cells, more than the {MAX_CELLS} a trial may hold"
        )
    cells = np.zeros((n, rows), dtype=np.int8)  # state + 2 where a row sets the cell, 0 where none does
    for codes, months, values, *_ in parts:
        inside = (months >= 0) & (months < count[codes])
        cells.ravel()[codes[inside] * rows + months[inside]] = values[inside] + 2  # < MAX_CELLS: no int32 overflow
    set_cells = np.count_nonzero(cells, axis=1)
    cells -= 2
    states = np.maximum(cells, -1, out=cells)  # an unset cell reads -1, as padding does
    observed = np.arange(states.shape[1]) < count[:, None]
    moves, before, step = np.diff(states, axis=1), states[:, :-1], observed[:, 1:]
    reverses = ((before == PD) & (moves < 0)) | ((before == DEATH) & (moves != 0))  # PD, death are final
    ends = np.array([m if 0 <= m < states.shape[1] else -1 for m in dropout_code] + [-1])  # by code; -1 unset
    checks = [
        (set_cells != count, "months must run 0..k without gaps"),
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


def write_km_curves_by_arm_csv(arms: dict, path) -> None:
    """Both arms' KM curves in one file, an arm column ahead of the schema.

    arms[arm] is the arm's monthly (events, at risk), as statistics.arm_counts
    gives them; a row is written at each month with events.
    """
    rows = []
    for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
        events, at_risk = arms[arm]
        survival = product_limit(events, at_risk)
        for t in np.flatnonzero(events).tolist():
            rows.append((arm.label, t, float(survival[t]), int(at_risk[t]), int(events[t])))
    _write_rows(path, ("arm", "time", "survival", "at_risk", "events"), rows)


def write_trajectory_curves_by_arm_csv(arms: dict, path) -> None:
    """Both arms' trajectory curves in one file, a row per arm and month.

    arms[arm] is the arm's monthly (weighted events, at risk), as
    statistics.arm_counts gives them; the value is their product limit.
    """
    n1, n2 = (arms[arm][1] for arm in (Arm.CONTROL, Arm.EXPERIMENTAL))
    rows = []
    for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
        for m, value in enumerate(product_limit(*arms[arm]).tolist()):
            rows.append((arm.label, m, value, n1[m], n2[m]))
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
    groups: dict[str, list[tuple[float, float]]] = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1  # the line that holds the undecodable byte
        raise ValueError(f"{path}: line {line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty curve file")
        header = [h.strip() for h in header]
        has_arm = header[:1] == ["arm"]
        cols = header[1:] if has_arm else header
        if cols[:2] == ["time", "survival"]:
            anchor = (0.0, 1.0)
        elif cols[:2] == ["month", "value"]:
            anchor = None
        else:
            raise ValueError(f"{path}: unrecognized curve columns {header}")
        for row in filter(None, reader):  # csv.reader yields [] for a blank line
            label, payload = (row[0], row[1:]) if has_arm else ("", row)
            try:
                point = (float(payload[0]), float(payload[1]))
                if not all(map(isfinite, point)):
                    raise ValueError
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}: line {reader.line_num}: needs numeric {cols[0]} and {cols[1]}, got {row}"
                ) from None
            groups.setdefault(label, []).append(point)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not groups:
        raise ValueError(f"{path}: curve file has a header but no data rows")
    out = []
    for label, points in groups.items():
        points.sort()
        if anchor is not None and (not points or points[0][0] > 0):
            points.insert(0, anchor)
        out.append((label, points))
    return out
