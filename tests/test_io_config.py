"""Configuration parsing and CSV/JSON wire-format tests."""

from __future__ import annotations

import codecs
import csv
import json
import os
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cwtasim import (
    ConfigError,
    TransitionModel,
    Trial,
    load_profile,
    parse_config,
    read_trajectories_csv,
    save_profile,
    simulate_trial,
    write_trajectories_csv,
)
from cwtasim import serialize
from cwtasim.cli import run_cli
from cwtasim.config import DEFAULT_HAZARD_RATIOS, DEFAULT_POWER_SIZES, DEFAULT_TTE_SIZES
from cwtasim.serialize import (
    read_curves_csv,
    write_km_curves_by_arm_csv,
    write_power_csv,
    write_sample_size_csv,
    write_tests_csv,
    write_trajectory_curves_by_arm_csv,
    write_tte_csv,
)
from cwtasim.statistics import arm_counts, count_tests, monthly_counts, product_limit
from cwtasim.trajectories import MAX_DRAWS

from oracles import read_trajectories_rowwise, write_trajectories_rowwise

MODEL = TransitionModel(
    improve_prob=(0.0, 0.05, 0.03, 0.0, 0.0),
    worsen_prob=(0.03, 0.1, 0.06, 0.12, 0.0),
    improve_decay=0.95,
    horizon_months=18,
)


# ------------------------------------------------------------------ config


def test_parse_config_defaults():
    grid, output_dir = parse_config("{}", "power")
    assert grid.profile == load_profile("moderate")
    assert grid.hazard_ratios == DEFAULT_HAZARD_RATIOS
    assert grid.sample_sizes == DEFAULT_POWER_SIZES
    assert grid.replicates == 1000
    assert grid.alpha == 0.05
    assert grid.master_seed == 0
    assert output_dir == "."
    assert parse_config("{}", "samplesize") == (grid, ".")


def test_parse_config_full_document():
    grid, output_dir = parse_config(
        json.dumps(
            {
                "profile": "high",
                "hazard_ratios": [0.5, 0.7],
                "sample_sizes": [40, 80],
                "replicates": {"0.5": 200, "0.7": 100},
                "alpha": 0.01,
                "master_seed": 42,
                "output_dir": "out",
            }
        ),
        "tte",
    )
    assert grid.profile == load_profile("high")
    assert grid.hazard_ratios == (0.5, 0.7)
    assert grid.sample_sizes == (40, 80)
    assert grid.replicates == {0.5: 200, 0.7: 100}
    assert grid.alpha == 0.01
    assert grid.master_seed == 42
    assert output_dir == "out"


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="sample_size_list"):
        parse_config('{"sample_size_list": [10]}', "power")


def test_parse_config_rejects_bad_alpha():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config('{"alpha": 1.5}', "power")
    with pytest.raises(ConfigError, match="alpha"):
        parse_config('{"alpha": "big"}', "power")


def test_parse_config_odd_sample_size_names_allocation():
    with pytest.raises(ConfigError, match="1:1"):
        parse_config('{"sample_sizes": [101]}', "power")
    with pytest.raises(ConfigError, match="1:1"):
        parse_config('{"sample_sizes": [0]}', "tte")


def test_parse_config_rejects_bad_values():
    for doc in (
        "[]",
        "not json",
        '{"hazard_ratios": []}',
        '{"hazard_ratios": [0]}',
        '{"hazard_ratios": ["x"]}',
        '{"replicates": 0}',
        '{"replicates": {"x": 100}}',
        '{"replicates": {"0.5": "many"}}',
        '{"profile": ""}',
        '{"master_seed": 1.5}',
        '{"output_dir": ""}',
        '{"sample_sizes": [40.0]}',
        '{"hazard_ratios": [0.5, 0.5]}',
        '{"hazard_ratios": [0.5, 0.50]}',
        '{"sample_sizes": [20, 40, 20]}',
    ):
        for command in ("power", "tte"):
            with pytest.raises(ConfigError):
                parse_config(doc, command)


def test_parse_config_rejects_two_keys_naming_one_hazard_ratio():
    message = r"replicates: keys '0\.5' and '0\.50' name one hazard ratio, 0\.5$"
    for command in ("power", "tte"):
        with pytest.raises(ConfigError, match=message):
            parse_config('{"hazard_ratios": [0.5], "replicates": {"0.5": 100, "0.50": 7}}', command)
    grid, _ = parse_config('{"hazard_ratios": [0.5, 0.7], "replicates": {"0.5": 100, "0.70": 7}}', "power")
    assert grid.replicates == {0.5: 100, 0.7: 7}


def test_parse_config_rejects_replicates_for_a_hazard_ratio_off_the_grid():
    """A replicates key naming a hazard ratio not on the grid is refused with
    one message naming every such key, never ignored."""
    message = r"^replicates mapping names hazard ratio\(s\) not on the grid: \[0\.7, 0\.9\]$"
    for command in ("power", "tte"):
        with pytest.raises(ConfigError, match=message):
            parse_config('{"hazard_ratios": [0.5], "replicates": {"0.5": 2, "0.7": 1, "0.9": 3}}', command)
    grid, _ = parse_config('{"hazard_ratios": [0.5], "replicates": {"0.5": 2}}', "power")
    assert grid.replicates == {0.5: 2}


@pytest.mark.parametrize(
    "doc, name",
    [
        ('{"alpha": 0.01, "hazard_ratios": [0.5], "alpha": 0.05}', "alpha"),
        ('{"hazard_ratios": [0.5], "replicates": {"0.5": 100, "0.5": 7}}', "0.5"),
    ],
)
def test_a_config_field_named_twice_is_refused(tmp_path, capsys, doc, name):
    """json.loads would keep the last of two same-named fields; a config
    refuses them, at the top level and in replicates, and the CLI says so in
    one line that starts with the file."""
    message = f"field '{name}' is named twice in one object"
    with pytest.raises(ConfigError, match=message):
        parse_config(doc, "power")
    config = tmp_path / "config.json"
    config.write_text(doc)
    assert run_cli(["power", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {config}: ") and message in err, err


def test_default_tte_replicates_rule():
    grid, _ = parse_config('{"hazard_ratios": [0.5, 0.7, 0.8]}', "tte")
    assert grid.replicates == {0.5: 100, 0.7: 100, 0.8: 1000}
    assert grid.sample_sizes == DEFAULT_TTE_SIZES
    grid, _ = parse_config('{"hazard_ratios": [0.5, 0.8], "replicates": 7}', "tte")
    assert grid.replicates == 7  # a count in the config overrides the rule


# ---------------------------------------------------------------- profiles


def test_profile_round_trip(tmp_path):
    path = tmp_path / "custom.json"
    save_profile(MODEL, path)
    again = load_profile(str(path))
    assert again == MODEL


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda text: text[:-1] + ', "dropout_rate": 0.5}', "dropout_rate"),
        (lambda text: text.replace('"improve_prob": {', '"improve_prob": {"2": 0.5, '), "2"),
    ],
)
def test_a_profile_field_named_twice_is_refused(tmp_path, edit, name):
    """A profile naming a field twice, at the top level or in improve_prob,
    raises ValueError starting with its path; without the repeat it loads."""
    text = json.dumps(MODEL.to_json_dict())
    path = tmp_path / "profile.json"
    path.write_text(edit(text))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field '{name}' is named twice in one object$"):
        load_profile(str(path))
    path.write_text(text)
    assert load_profile(str(path)) == MODEL


def test_builtin_profiles_load_and_differ():
    moderate = load_profile("moderate")
    high = load_profile("high")
    assert isinstance(moderate, TransitionModel)
    assert moderate != high


def test_load_profile_unknown_name():
    with pytest.raises(FileNotFoundError, match="moderate"):
        load_profile("nonexistent-profile")


def test_load_profile_refuses_a_file_descriptor(tmp_path):
    """An int is not a profile: load_profile names it and neither reads nor
    closes the descriptor it would be to open()."""
    path = tmp_path / "profile.json"
    save_profile(MODEL, path)
    assert load_profile(path) == MODEL
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(TypeError, match=f"not {fd}$"):
            load_profile(fd)
        assert os.fstat(fd).st_size == path.stat().st_size
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
    finally:
        os.close(fd)


# ------------------------------------------------------- trajectories CSV


def test_trajectories_csv_round_trip(tmp_path):
    trial = simulate_trial(MODEL, 0.6, 30, 8)
    path = tmp_path / "subjects.csv"
    write_trajectories_csv(trial, path)
    again = read_trajectories_csv(path)
    assert len(again.arms) == 30
    for name in ("states", "censor", "arms", "dropped"):
        assert np.array_equal(getattr(trial, name), getattr(again, name)), name


def test_trajectories_csv_is_byte_stable(tmp_path):
    trial = simulate_trial(MODEL, 0.6, 10, 8)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectories_csv(trial, a)
    write_trajectories_csv(trial, b)
    assert a.read_bytes() == b.read_bytes()


def test_trajectories_csv_matches_rowwise_writer(tmp_path):
    """The chunked writer writes the former row-by-row writer's bytes: across
    chunk boundaries, for dropped subjects, for a dropout at the horizon
    month (dropout_month filled although the subject is followed to the
    end) and for a trial of one subject."""
    model = TransitionModel(MODEL.improve_prob, MODEL.worsen_prob, 0.95, 18, dropout_rate=0.4)
    trial = simulate_trial(model, 0.6, 2 * serialize.WRITE_SUBJECTS + 6, 8)
    assert trial.dropped.any() and (~trial.dropped).any()
    followed = np.flatnonzero(trial.censor == trial.horizon)
    dropped = trial.dropped.copy()
    dropped[followed[:3]] = True
    at_horizon = replace(trial, dropped=dropped)
    i = followed[-1]
    one = Trial(trial.states[i : i + 1], np.array([18]), trial.arms[i : i + 1], np.array([True]))
    for k, case in enumerate((trial, at_horizon, one, replace(one, dropped=np.array([False])))):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write_trajectories_csv(case, got)
        write_trajectories_rowwise(case, want)
        assert got.read_bytes() == want.read_bytes(), k


def bad_csv(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("subject,month,state,arm,dropout_month\n" + body)
    return path


def test_read_trajectories_rejects_structural_violations(tmp_path):
    with pytest.raises(ValueError, match="start at state 2"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,1,control,\n"))
    with pytest.raises(ValueError, match="one level"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,4,control,\n"))
    with pytest.raises(ValueError, match="irreversibility"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,3,control,\n0,2,2,control,\n"))
    with pytest.raises(ValueError, match="without gaps"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,2,2,control,\n"))
    with pytest.raises(ValueError, match="changes arm"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,2,experimental,\n"))
    with pytest.raises(ValueError, match="unknown arm"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,placebo,\n"))
    with pytest.raises(ValueError, match="dropout_month"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,5\n0,1,2,control,5\n"))
    with pytest.raises(ValueError, match="no trajectory rows"):
        read_trajectories_csv(bad_csv(tmp_path, ""))
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has a truncated row"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1\n"))  # no state or arm
    with pytest.raises(ValueError, match=r"bad\.csv: subject 1 has a truncated row"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n1,0,2\n"))  # no arm
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has a non-integer month 'x'"):
        read_trajectories_csv(bad_csv(tmp_path, "0,x,2,control,\n"))
    with pytest.raises(ValueError, match=r"bad\.csv: subject 3 has a non-integer state '2\.5'"):
        read_trajectories_csv(bad_csv(tmp_path, "3,0,2.5,control,\n"))
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has a non-integer dropout_month 'z'"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,z\n"))
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has a month of more than 4300 digits$"):
        read_trajectories_csv(bad_csv(tmp_path, f"0,0,2,control,\n0,{'1'.zfill(5_000)},2,control,\n"))
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has states outside 0\.\.4"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,300,control,\n"))  # not an int8
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has states outside 0\.\.4"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,1,control,\n0,2,-1,control,\n"))
    missing = tmp_path / "missing_cols.csv"
    missing.write_text("subject,month\n0,0\n")
    with pytest.raises(ValueError, match="needs columns"):
        read_trajectories_csv(missing)
    # a month-0 row alone gives no time at risk; reported after every other subject check
    with pytest.raises(ValueError, match=r"bad\.csv: subject 1 has no follow-up after month 0"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,2,control,\n1,0,2,control,\n"))
    with pytest.raises(ValueError, match="subject 2 months must run"):
        read_trajectories_csv(bad_csv(tmp_path, "1,0,2,control,\n2,1,2,control,\n"))
    # more rows than months 0..MAX_HORIZON: refused before the state matrix is allocated
    body = "".join(f"{s},{m},2,control,\n" for s, rows in ((1, 2), (7, 1202), (4, 1300)) for m in range(rows))
    with pytest.raises(ValueError, match=r"bad\.csv: subject 7 has 1202 rows, more than months 0\.\.1200"):
        read_trajectories_csv(bad_csv(tmp_path, body))


READER_MODEL = TransitionModel(
    improve_prob=(0.0, 0.2, 0.15, 0.0, 0.0),
    worsen_prob=(0.1, 0.2, 0.25, 0.35, 0.0),
    improve_decay=0.9,
    horizon_months=5,
    dropout_rate=0.4,
)
HEADER = ["subject", "month", "state", "arm", "dropout_month"]
# values a mutation writes into one field: valid, out of range and not integers
FIELD_VALUES = {
    "subject": ["0", "1", "9", " 0", ""],
    "month": ["0", "1", "2", "3", "6", "9", "-1", " 2", "x", "1.5", "", "١", "007", "0_1"],
    "state": ["0", "1", "2", "3", "4", "5", "-1", "300", "+2", "x", "", "١", "007", "0_1"],
    "arm": ["control", "experimental", " Experimental ", "CONTROL", "placebo", ""],
    "dropout_month": ["", " ", "1", "2", "3", "5", "9", "-1", "z"],
}


def reader_outcome(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(path, subject_order):
    """The columnar reader agrees with the row-by-row reference, Trial or message.

    The one difference: the reference accepts a subject with only a month-0
    row, which the columnar reader rejects once every other check passes.
    """
    got, want = reader_outcome(read_trajectories_csv, path), reader_outcome(read_trajectories_rowwise, path)
    if isinstance(want, Trial) and (want.censor == 0).any():
        key = subject_order[int(np.argmax(want.censor == 0))]
        assert got == f"{path}: subject {key} has no follow-up after month 0"
    elif isinstance(want, str):
        assert got == want
    else:
        for name in ("states", "censor", "arms", "dropped"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def mutated_trajectory_file(draw, path) -> list[str]:
    """Rewrite a simulated trial's CSV at path: re-laid-out, with at most one fault.

    Returns the subject keys in first-appearance order.
    """
    n = draw(st.integers(1, 5)) * 2
    seed = draw(st.integers(0, 2**32))
    write_trajectories_csv(simulate_trial(READER_MODEL, 0.7, n, seed), path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    if long_key := draw(st.sampled_from(["", "", "", "k" * 300, "é" * 300])):  # its padded column may outgrow the chunk
        key = draw(st.sampled_from(sorted({r[0] for r in rows})))
        rows = [[long_key if r[0] == key else r[0], *r[1:]] for r in rows]
    if draw(st.booleans()):  # subjects' rows shuffled and interleaved
        rows = draw(st.permutations(rows))
    fault = draw(st.sampled_from(["none", "field", "delete", "duplicate", "truncate", "baseline-only"]))
    if fault == "field":
        i, field = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(HEADER))
        rows[i][HEADER.index(field)] = draw(st.sampled_from(FIELD_VALUES[field]))
    elif fault == "delete":
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif fault == "duplicate":
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    elif fault == "truncate":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][: draw(st.integers(1, 3))]
    elif fault == "baseline-only":
        key = draw(st.sampled_from(sorted({r[0] for r in rows})))
        rows = [r for r in rows if r[0] != key or r[1] == "0"]
    if draw(st.booleans()):  # without the dropout_month column
        header, rows = header[:4], [r[:4] for r in rows]
    if draw(st.booleans()):  # an extra column
        header, rows = header + ["note"], [r + [draw(st.sampled_from(["", "a,b", 'say "hi"']))] for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])  # blank lines
    with open(path, "w", newline="", encoding="utf-8") as fh:
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        terminator = draw(st.sampled_from(["\n", "\r\n"]))
        csv.writer(fh, quoting=quoting, lineterminator=terminator).writerows([header, *rows])
    return list(dict.fromkeys(r[0] for r in rows if r))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    chunk_rows=st.sampled_from([1, 2, 3, 7, serialize.CHUNK_ROWS]),
    chunk_bytes=st.sampled_from([1, 5, 16, 40, 100, serialize.CHUNK_BYTES]),  # a line is about 15 bytes
)
def test_columnar_reader_matches_rowwise_reference(tmp_path, data, chunk_rows, chunk_bytes):
    path = tmp_path / "trial.csv"
    order = mutated_trajectory_file(data.draw, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "CHUNK_ROWS", chunk_rows)
        mp.setattr(serialize, "CHUNK_BYTES", chunk_bytes)
        assert_same_outcome(path, order)


@pytest.mark.parametrize(
    "edit",
    [
        lambda f: f[:3] + [f'"{f[3]}"'] + f[4:],  # a quoted arm
        lambda f: [f'"{f[0]}\n{f[0]}"'] + f[1:],  # a quoted subject holding a line break
        lambda f: f[:-1] + [f[-1] + "\r"],  # a CRLF line end
    ],
)
def test_plain_file_turning_quoted_past_its_first_chunk(tmp_path, monkeypatch, edit):
    """The rows after a chunk holding '"' or CR are read by csv.reader, as the reference reads them."""
    monkeypatch.setattr(serialize, "CHUNK_BYTES", 64)
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    header, *rows = path.read_text().splitlines()
    k = len(rows) - 3
    rows[k] = ",".join(edit(rows[k].split(",")))
    path.write_text("\n".join([header, *rows]) + "\n")
    assert len(header) + sum(len(r) + 1 for r in rows[:k]) > 3 * serialize.CHUNK_BYTES
    order = list(dict.fromkeys(r.split(",")[0] for r in rows))
    assert_same_outcome(path, order)


def test_one_long_field_among_short_ones(tmp_path):
    """A month padded to thousands of characters reads as the reference reads it."""
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    header, *rows = path.read_text().splitlines()
    fields = rows[-1].split(",")
    rows[-1] = ",".join([fields[0], fields[1].rjust(5_000), *fields[2:]])
    path.write_text("\n".join([header, *rows]) + "\n")
    assert_same_outcome(path, [str(i) for i in range(6)])
    assert isinstance(read_trajectories_csv(path), Trial)


def test_the_field_size_limit_counts_characters(tmp_path, capsys):
    """csv.field_size_limit() counts characters, not bytes: a subject key of
    70 000 two-byte characters reads, and one of 131 073 characters exits 2
    with one line naming its line."""
    key = "é" * 70_000
    assert len(key) <= csv.field_size_limit() < len(key.encode())
    rows = "".join(f"{s},{m},2,{arm},\n" for s, arm in ((key, "control"), ("1", "experimental")) for m in range(2))
    path = tmp_path / "trial.csv"
    path.write_text(",".join(HEADER) + "\n" + rows, encoding="utf-8")
    assert_same_outcome(path, [key, "1"])
    assert read_trajectories_csv(path).states.tolist() == [[2, 2], [2, 2]]
    path.write_text(",".join(HEADER) + "\n" + rows.replace(key, "k" * (csv.field_size_limit() + 1)))
    assert run_cli(["analyze", "--trial", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 2: field larger than field limit ({csv.field_size_limit()})\n", err


@pytest.mark.parametrize("field", [1, 2, 4])
def test_integer_past_the_digit_limit(tmp_path, field):
    """A zero-padded month, state or dropout_month past int()'s digit limit is named as such."""
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    header, *rows = path.read_text().splitlines()
    fields = rows[-1].split(",")
    fields[field] = (fields[field] or "1").zfill(sys.get_int_max_str_digits() + 1)
    rows[-1] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")
    assert_same_outcome(path, [str(i) for i in range(6)])
    name = HEADER[field]
    with pytest.raises(ValueError, match=f"subject 5 has a {name} of more than {sys.get_int_max_str_digits()} digits$"):
        read_trajectories_csv(path)


@pytest.mark.parametrize(
    "month", ["007", "0000001", "00000001", "9999999", "١", "２", "0_1", "\t1", "\xa01", "+1", "", "1?"]
)
def test_month_spellings_read_as_the_reference_reads_them(tmp_path, month):
    """A month of 1 to 7 ASCII digits is folded from its word; every other
    spelling, which int() may still accept, reads as the reference reads it.
    A spelling of 1 gives the file's Trial back."""
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    header, *rows = path.read_text().splitlines()
    k = next(i for i, row in enumerate(rows) if row.split(",")[1] == "1")
    fields = rows[k].split(",")
    rows[k] = ",".join([fields[0], month, *fields[2:]])
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert_same_outcome(path, [str(i) for i in range(6)])
    if month in ("0000001", "00000001", "١", "0_1", "\t1", "\xa01", "+1"):
        got = read_trajectories_csv(path)
        for name in ("states", "censor", "arms", "dropped"):
            assert np.array_equal(getattr(got, name), getattr(trial, name)), name


def test_uniform_pieces_reshape_and_ragged_ones_take_the_general_route(tmp_path, monkeypatch):
    """A chunk whose lines all hold the same number of fields, as simulate
    writes them, is read with array operations. A short row, a blank line,
    an extra field or a long field sends its own chunk, and only that one,
    through csv.reader; each edit reads to the file's Trial."""
    monkeypatch.setattr(serialize, "CHUNK_BYTES", 64)
    texts = []
    general = serialize._csv_parts
    monkeypatch.setattr(serialize, "_csv_parts", lambda fh, *args: texts.append(fh.getvalue()) or general(fh, *args))
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    header, *lines = path.read_text().splitlines(keepends=True)
    k = next(i for i in range(len(lines) // 2, len(lines)) if lines[i].endswith(",\n"))  # a blank dropout
    fields = lines[k].split(",")
    for new in (
        [lines[k][:-2] + "\n"],  # a short row: the row without its dropout
        ["\n", lines[k]],  # a blank line
        [lines[k][:-1] + ",extra\n"],  # an extra field
        [",".join([fields[0], fields[1].rjust(5_000), *fields[2:]])],  # a long field
    ):
        path.write_text(header + "".join(lines[:k] + new + lines[k + 1 :]))
        texts.clear()
        got = read_trajectories_csv(path)
        [text] = texts
        assert set(new) - set(lines) <= set(text.splitlines(keepends=True))
        assert len(text) <= max(map(len, new)) + 2 * serialize.CHUNK_BYTES < len(path.read_text())
        for name in ("states", "censor", "arms", "dropped"):
            assert np.array_equal(getattr(got, name), getattr(trial, name)), name
    path.write_text(header + "".join(lines))
    texts.clear()
    read_trajectories_csv(path)
    assert texts == []


@pytest.mark.parametrize("chunk_bytes", [1, 40, serialize.CHUNK_BYTES])
@pytest.mark.parametrize("quoted", [False, True])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, monkeypatch, chunk_bytes, quoted):
    """A file starting with a UTF-8 byte-order mark reads to the Trial of the
    file without it, plain or quoted, and a fault in it is still placed by row."""
    monkeypatch.setattr(serialize, "CHUNK_BYTES", chunk_bytes)
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    text = path.read_bytes().replace(b",control,", b',"control",' if quoted else b",control,")
    path.write_bytes(codecs.BOM_UTF8 + text)
    assert_same_outcome(path, [str(i) for i in range(6)])
    got = read_trajectories_csv(path)
    for name in ("states", "censor", "arms", "dropped"):
        assert np.array_equal(getattr(got, name), getattr(trial, name)), name
    path.write_bytes(codecs.BOM_UTF8 + text.replace(b"\n5,1,", b"\n5,x,", 1))
    assert_same_outcome(path, [str(i) for i in range(6)])
    with pytest.raises(ValueError, match="subject 5 has a non-integer month 'x'"):
        read_trajectories_csv(path)


def test_subject_rows_straddling_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize, "CHUNK_ROWS", 4)
    monkeypatch.setattr(serialize, "CHUNK_BYTES", 64)
    trial = simulate_trial(READER_MODEL, 0.7, 6, 3)
    path = tmp_path / "trial.csv"
    write_trajectories_csv(trial, path)
    header, *rows = path.read_text().splitlines()
    assert any(len({r.split(",")[0] for r in rows[k : k + 2]}) == 1 for k in range(3, len(rows), 4))
    assert_same_outcome(path, [str(i) for i in range(6)])
    # faults whose two rows sit in different chunks
    for body in ("0,0,2,control,\n1,0,2,control,\n1,1,2,control,\n1,2,2,control,\n0,1,2,experimental,\n",
                 "0,0,2,control,1\n1,0,2,control,\n1,1,2,control,\n1,2,2,control,\n0,1,2,control,2\n"):
        path.write_text(header + "\n" + body)
        assert_same_outcome(path, ["0", "1"])
        assert "subject 0" in reader_outcome(read_trajectories_csv, path)


def test_columnar_reader_peak_memory_is_bounded_by_the_reference(tmp_path):
    path = tmp_path / "trial.csv"
    write_trajectories_csv(simulate_trial(load_profile("moderate"), 0.7, 2000, 0), path)
    peaks = {}
    for reader in (read_trajectories_rowwise, read_trajectories_csv):
        tracemalloc.start()
        try:
            reader(path)
            peaks[reader] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[read_trajectories_csv] <= 1.5 * peaks[read_trajectories_rowwise], peaks


def test_reader_refuses_a_trial_over_the_cell_cap(tmp_path, monkeypatch, capsys):
    """subjects x longest subject's rows above MAX_CELLS is refused with one line
    naming the file, the subject count and the longest subject."""
    assert serialize.MAX_CELLS >= MAX_DRAWS  # every trial simulate can write reads back
    body = "".join(f"{s},{m},2,control,\n" for s, rows in ((0, 2), (5, 4), (9, 3)) for m in range(rows))
    path = bad_csv(tmp_path, body)
    monkeypatch.setattr(serialize, "MAX_CELLS", 12)
    assert read_trajectories_csv(path).states.shape == (3, 4)
    monkeypatch.setattr(serialize, "MAX_CELLS", 11)
    message = r"bad\.csv: 3 subjects, the longest \(subject 5\) of 4 rows, need 12 state cells, more than the 11 "
    with pytest.raises(ValueError, match=message):
        read_trajectories_csv(path)
    assert run_cli(["analyze", "--trial", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "3 subjects" in err, err


def narrow_by_unique(texts, convert, dtype):
    """_narrow's reference: one np.unique over the whole column, no runs."""
    distinct, first, inverse = np.unique(texts, return_index=True, return_inverse=True)
    order = np.argsort(first)
    table = np.empty(len(distinct), dtype)
    padded = distinct[order].view(f"S{distinct.itemsize}").tolist()
    table[order] = [convert(t.rstrip(b",").decode()) for t in padded]
    return table[inverse]


def padded_words(texts):
    """Each text padded with "," to 8 bytes, one word each, or to one more than the longest."""
    fields = [t.encode() for t in texts]
    w = max(max(map(len, fields), default=0) + 1, 8)
    padded = [f.ljust(w, b",") for f in fields]
    return np.frombuffer(b"".join(padded), "<u8") if w == 8 else np.array(padded, f"S{w}")


@pytest.mark.parametrize(
    "texts",
    [
        ["7"] * 50 + ["3"] * 40 + ["7"] * 30 + ["12"] * 2,  # long runs, one value back after another
        ["a", "b"] * 25,  # alternating: no run longer than one
        ["x"],  # one row
        ["experimental", "control", "control", "experimental", "experimental"],  # wider than a word
        [""] * 3 + ["5"] + [""] * 2,  # blank dropouts
    ],
)
def test_narrow_runs_match_one_unique_over_the_column(texts):
    """Run-length narrowing gives the codes, and calls convert in the order,
    of a np.unique over the whole column."""
    got_calls, want_calls = [], []
    got = serialize._narrow(padded_words(texts), lambda t: got_calls.append(t) or len(got_calls), np.int32)
    want = narrow_by_unique(padded_words(texts), lambda t: want_calls.append(t) or len(want_calls), np.int32)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_calls == want_calls == list(dict.fromkeys(texts))


def test_a_chunk_of_blank_lines_narrows_to_empty_columns(tmp_path, monkeypatch):
    """A run of blank lines a chunk long, between two subjects, gives chunks of empty columns."""
    parts = []
    part = serialize._part
    monkeypatch.setattr(serialize, "_part", lambda *args: parts.append(part(*args)) or parts[-1])
    monkeypatch.setattr(serialize, "CHUNK_BYTES", 8)
    path = bad_csv(tmp_path, "0,0,2,control,\n0,1,2,control,\n" + "\n" * 40 + "1,0,2,control,\n1,1,3,control,\n")
    assert_same_outcome(path, ["0", "1"])
    parts.clear()
    assert read_trajectories_csv(path).states.tolist() == [[2, 2], [2, 3]]
    assert [0] * 5 in [[len(c) for c in columns] for columns in parts]


@pytest.mark.parametrize(
    "lines",
    [
        ["12,3,2,control,1234567"],  # a 7-byte last field, ending at the buffer's end
        ["0,0,2,control,", "0,1,2,experimental,"],  # a blank last field; a wide arm
        ["3,0,2,control", "3,1,2,control"],  # lines too short to hold a dropout
        ["4,0,2,control,,extra", "4,1,2,control,1,extra"],  # an extra last field
    ],
)
def test_word_gather_reads_each_field_to_the_buffer_end(lines):
    """_plain_fields' words equal each field padded with ",", also for the
    chunk's last field, and read nothing past the chunk it is given."""
    text = "\n".join(lines).encode() + b"\n"
    chunk = memoryview(text + b"99999999")[: len(text)]  # bytes past the chunk that are not ","
    rows = [line.split(",") for line in lines]
    columns = serialize._plain_fields(chunk, {name: i for i, name in enumerate(HEADER)}, 4)
    for k, column in enumerate(columns):
        want = padded_words([row[k] if k < len(row) else "" for row in rows])
        assert column.dtype == want.dtype and np.array_equal(column, want), HEADER[k]


# -------------------------------------------------------------- curve CSVs


def test_km_curve_csv_and_read_back(tmp_path):
    trial = simulate_trial(MODEL, 0.5, 40, 4)
    arms = arm_counts(monthly_counts(trial)["PFS"])
    path = tmp_path / "curve.csv"
    write_km_curves_by_arm_csv(arms, path)
    read = read_curves_csv(path)
    assert [label for label, _ in read] == ["control", "experimental"]
    for (_, points), (events, at_risk) in zip(read, arms.values()):
        assert points[0] == (0.0, 1.0)  # anchor
        assert [t for t, _ in points[1:]] == np.flatnonzero(events).tolist()  # a step at each event month
        survival = product_limit(events, at_risk)
        assert [s for _, s in points[1:]] == survival[events > 0].tolist()


def test_km_curves_by_arm_csv(tmp_path):
    trial = simulate_trial(MODEL, 0.5, 40, 4)
    path = tmp_path / "by_arm.csv"
    write_km_curves_by_arm_csv(arm_counts(monthly_counts(trial)["OS"]), path)
    out = dict(read_curves_csv(path))
    assert set(out) == {"control", "experimental"}


def test_trajectory_curve_csv(tmp_path):
    trial = simulate_trial(MODEL, 0.5, 40, 4)
    arms = arm_counts(monthly_counts(trial)["CWTA"])
    path = tmp_path / "cwta.csv"
    write_trajectory_curves_by_arm_csv(arms, path)
    read = read_curves_csv(path)
    assert [label for label, _ in read] == ["control", "experimental"]
    for (_, points), counts in zip(read, arms.values()):
        curve = product_limit(*counts)
        assert len(points) == len(curve) == trial.horizon + 1
        assert points[0] == (0.0, 1.0)  # month-0 value is 1, no synthetic anchor
        values = [v for _, v in points]
        assert values == pytest.approx(curve.tolist())


def test_read_curves_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_curves_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("time,survival,at_risk,events\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_curves_csv(header_only)
    odd = tmp_path / "odd.csv"
    odd.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="unrecognized"):
        read_curves_csv(odd)
    # a short row or a non-numeric cell: one message naming the file and the line
    short = tmp_path / "short.csv"
    short.write_text("arm,time,survival,at_risk,events\ncontrol,0,1.0,5,0\ncontrol,1\n")
    with pytest.raises(ValueError, match=r"short\.csv: line 3: needs numeric time and survival"):
        read_curves_csv(short)
    word = tmp_path / "word.csv"
    word.write_text("month,value,at_risk_arm1,at_risk_arm2\n0,1.0,5,5\n\n1,high,4,5\n")
    with pytest.raises(ValueError, match=r"word\.csv: line 4: needs numeric month and value"):
        read_curves_csv(word)


# ------------------------------------------------------------ result CSVs


def test_tests_csv_blank_for_degenerate(tmp_path):
    trial = simulate_trial(MODEL, 0.5, 60, 4)
    results = {**count_tests(monthly_counts(trial)), "OS": None}  # degenerate -> blank numeric fields
    path = tmp_path / "tests.csv"
    write_tests_csv(results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,statistic,z,p_value,observed_minus_expected,variance"
    assert len(lines) == 4
    assert lines[3] == "OS,,,,,"
    cwta_fields = lines[1].split(",")
    assert cwta_fields[0] == "CWTA"
    assert float(cwta_fields[2]) == pytest.approx(results["CWTA"].z)


def test_power_and_sample_size_and_tte_csv_layouts(tmp_path):
    from cwtasim import PowerEstimate, SampleSizeEstimate, TTEComparison, TTESummary

    power_path = tmp_path / "power.csv"
    write_power_csv(
        [PowerEstimate(method="CWTA", hr=0.5, ss=100, power=0.815, replicates=1000)], power_path
    )
    assert power_path.read_text() == (
        "method,hr,ss,replicates,power\nCWTA,0.5,100,1000,0.815\n"
    )

    ss_path = tmp_path / "ss.csv"
    write_sample_size_csv([SampleSizeEstimate(method="OS", hr=0.7, sample_size=162.5)], ss_path)
    assert ss_path.read_text() == "method,hr,sample_size_80\nOS,0.7,162.5\n"

    tte_path = tmp_path / "tte.csv"
    summary = TTESummary(
        method="PFS", hr=0.5, ss=150, mean_months=22.6, sd_months=10.0, n_included=98, n_omitted=2
    )
    comparison = TTEComparison(
        pct_delta=0.45, t_statistic=-8.0, df=150.0, p_value=1e-12, zero_variance=False
    )
    write_tte_csv([(summary, comparison)], tte_path)
    text = tte_path.read_text().splitlines()
    assert text[0] == "method,hr,ss,mean,sd,n_included,n_omitted,pct_delta_vs_cwta,p_value"
    assert text[1].startswith("PFS,0.5,150,22.6,10.0,98,2,0.45,")

    none_path = tmp_path / "tte_none.csv"
    empty = TTESummary(
        method="OS", hr=0.5, ss=150, mean_months=None, sd_months=None, n_included=0, n_omitted=100
    )
    write_tte_csv([(empty, None)], none_path)
    assert none_path.read_text().splitlines()[1] == "OS,0.5,150,,,0,100,,"
