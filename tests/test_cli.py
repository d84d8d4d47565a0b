"""End-to-end CLI tests driving run_cli() in-process, and two checks of what importing the package gives."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cwtasim
from cwtasim import calibration, harness, load_profile, read_trajectories_csv, save_profile, serialize
from cwtasim.cli import resolve_workers, run_cli
from cwtasim.seeds import CHUNK
from cwtasim.trajectories import TransitionModel

FAST = TransitionModel(
    improve_prob=(0.0, 0.05, 0.03, 0.0, 0.0),
    worsen_prob=(0.03, 0.1, 0.06, 0.12, 0.0),
    improve_decay=0.95,
    horizon_months=18,
)


@pytest.fixture()
def fast_profile(tmp_path):
    path = tmp_path / "fast.json"
    save_profile(FAST, path)
    return str(path)


def small_config(tmp_path, **overrides):
    doc = {
        "profile": overrides.pop("profile"),
        "hazard_ratios": [0.5],
        "sample_sizes": [20, 40],
        "replicates": 12,
        "master_seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_then_analyze_round_trip(tmp_path, fast_profile, capsys):
    trial_csv = str(tmp_path / "trial.csv")
    assert run_cli([
        "simulate", "--profile", fast_profile, "--sample-size", "40",
        "--hr", "0.5", "--seed", "3", "--out", trial_csv,
    ]) == 0
    trial = read_trajectories_csv(trial_csv)
    assert len(trial.arms) == 40 and trial.starts.tolist() == [0]

    out_dir = tmp_path / "analysis"
    assert run_cli(["analyze", "--trial", trial_csv, "--out-dir", str(out_dir)]) == 0
    for name in ("curve_pfs.csv", "curve_os.csv", "curve_cwta.csv", "tests.csv"):
        assert (out_dir / name).exists(), name
    printed = capsys.readouterr().out
    assert "CWTA" in printed and "PFS" in printed and "OS" in printed

    # plot the produced curves
    svg_path = tmp_path / "plot.svg"
    assert run_cli([
        "plot", str(out_dir / "curve_pfs.csv"), str(out_dir / "curve_cwta.csv"),
        "--out", str(svg_path), "--title", "demo",
    ]) == 0
    assert svg_path.read_text().startswith("<svg ")


def test_analyze_reports_a_degenerate_method(tmp_path, capsys):
    """No subject dies when PD never worsens: OS has no events, so analyze
    prints it as degenerate, leaves its tests.csv fields blank and exits 0."""
    profile = tmp_path / "no_death.json"
    save_profile(replace(FAST, worsen_prob=(0.03, 0.1, 0.06, 0.0, 0.0)), profile)
    trial_csv = str(tmp_path / "trial.csv")
    assert run_cli([
        "simulate", "--profile", str(profile), "--sample-size", "40",
        "--hr", "0.5", "--seed", "3", "--out", trial_csv,
    ]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "analysis"
    assert run_cli(["analyze", "--trial", trial_csv, "--out-dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if "degenerate" in line] == ["OS: degenerate (no usable events)"]
    assert "OS,,,,," in (out_dir / "tests.csv").read_text().splitlines()


def test_simulate_is_deterministic(tmp_path, fast_profile):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run_cli([
            "simulate", "--profile", fast_profile, "--sample-size", "20",
            "--hr", "0.7", "--seed", "11", "--out", out,
        ]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_calibrate_writes_profile(tmp_path, fast_profile, capsys, monkeypatch):
    """One calibrate run makes three settled passes (the two tables of the
    search and the fresh-seed check's best response) and one rate evaluation
    per search step (16 here) plus one for the fresh-seed check. The
    benchmark finds calibration._response_rates by name and divides its
    calibrate rate by this count."""
    calls = {"_settled_pass": 0, "_response_rates": 0}
    for name in calls:
        original = getattr(calibration, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(calibration, name, counted)
    out = str(tmp_path / "calibrated.json")
    code = run_cli([
        "calibrate", "--cr", "0.05", "--pr", "0.30", "--template", fast_profile,
        "--subjects", "4000", "--tolerance", "0.01", "--out", out,
    ])
    assert code == 0
    model = load_profile(out)
    assert model.improve_prob[2] > 0.0
    assert "fresh-seed check" in capsys.readouterr().out
    assert calls == {"_settled_pass": 3, "_response_rates": 16 + 1}


def test_power_and_samplesize_and_tte_commands(tmp_path, fast_profile):
    cfg = small_config(tmp_path, profile=fast_profile)
    assert run_cli(["power", "--config", cfg]) == 0
    power_csv = tmp_path / "out" / "power.csv"
    lines = power_csv.read_text().splitlines()
    assert lines[0] == "method,hr,ss,replicates,power"
    assert len(lines) == 1 + 3 * 2  # three methods x two sizes

    # the 12-replicate toy grid cannot reach 80% power -> clean exit code 2
    assert run_cli(["samplesize", "--config", cfg, "--target", "0.8"]) == 2
    assert run_cli(["samplesize", "--config", cfg, "--target", "0.3"]) == 0
    ss_lines = (tmp_path / "out" / "sample_size.csv").read_text().splitlines()
    assert ss_lines[0] == "method,hr,sample_size_80"

    assert run_cli(["tte", "--config", cfg]) == 0
    tte_lines = (tmp_path / "out" / "tte.csv").read_text().splitlines()
    assert tte_lines[0] == "method,hr,ss,mean,sd,n_included,n_omitted,pct_delta_vs_cwta,p_value"
    assert len(tte_lines) == 1 + 3 * 2


def test_samplesize_writes_reached_pairs_and_names_the_rest(tmp_path, fast_profile, capsys):
    """On the toy grid only CWTA reaches 45 % power: its row has a sample
    size, PFS's and OS's are blank and named on stderr with their peaks."""
    cfg = small_config(tmp_path, profile=fast_profile)
    assert run_cli(["power", "--config", cfg]) == 0
    power_csv = (tmp_path / "out" / "power.csv").read_bytes()
    capsys.readouterr()
    assert run_cli(["samplesize", "--config", cfg, "--target", "0.45"]) == 0
    assert (tmp_path / "out" / "power.csv").read_bytes() == power_csv
    rows = (tmp_path / "out" / "sample_size.csv").read_text().splitlines()
    assert rows[0] == "method,hr,sample_size_80"
    assert rows[1].startswith("CWTA,0.5,") and 20 < float(rows[1].split(",")[2]) < 40
    assert rows[2:] == ["PFS,0.5,", "OS,0.5,"]
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {method} at HR 0.5: target power 0.45 not reached on the grid "
        f"(max smoothed power {peak} at sample size 20)"
        for method, peak in (("PFS", "0.3333"), ("OS", "0.3750"))
    ]


def test_samplesize_exits_2_with_one_line_when_no_pair_is_reached(tmp_path, fast_profile, capsys):
    cfg = small_config(tmp_path, profile=fast_profile)
    assert run_cli(["samplesize", "--config", cfg, "--target", "0.8"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: CWTA at HR 0.5: target power 0.8 not reached")
    assert "; PFS at HR 0.5: " in err and "; OS at HR 0.5: " in err
    assert not (tmp_path / "out" / "sample_size.csv").exists()


def test_worker_count_does_not_change_output(tmp_path, fast_profile):
    cfg1 = small_config(tmp_path, profile=fast_profile)
    assert run_cli(["power", "--config", cfg1, "--workers", "1"]) == 0
    single = (tmp_path / "out" / "power.csv").read_bytes()
    assert run_cli(["power", "--config", cfg1, "--workers", "3"]) == 0
    multi = (tmp_path / "out" / "power.csv").read_bytes()
    assert single == multi


def test_workers_capped_at_the_affinity_set(tmp_path, fast_profile, monkeypatch, capsys):
    cfg = small_config(tmp_path, profile=fast_profile)
    assert run_cli(["power", "--config", cfg, "--workers", "1"]) == 0
    single = (tmp_path / "out" / "power.csv").read_bytes()
    capsys.readouterr()
    pools = []
    power_rows = harness.power_rows
    monkeypatch.setattr(harness, "power_rows", lambda grid, workers: pools.append(workers) or power_rows(grid, workers))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_cli(["power", "--config", cfg, "--workers", "2"]) == 0
    assert pools == [1]
    assert "warning: --workers 2 exceeds the 1 available CPUs; using 1" in capsys.readouterr().err
    assert (tmp_path / "out" / "power.csv").read_bytes() == single


@pytest.fixture()
def thread_starts(monkeypatch):
    """The threads started while the test runs, with two usable CPUs."""
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread) or start(thread))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return starts


@pytest.mark.parametrize("workers", ["1", "2"])
def test_grid_starts_no_thread_in_the_calling_process(tmp_path, fast_profile, thread_starts, workers):
    """Every grid block is at most harness.BLOCK_ROWS <= seeds.CHUNK rows, one
    chunk of streams; no stream pass starts a thread, so a pooled grid forks
    with only the main thread alive."""
    assert harness.BLOCK_ROWS <= CHUNK
    cfg = small_config(tmp_path, profile=fast_profile, sample_sizes=[20, harness.BLOCK_ROWS], replicates=3)
    assert run_cli(["power", "--config", cfg, "--workers", workers]) == 0
    assert (tmp_path / "out" / "power.csv").exists()
    assert thread_starts == []


@pytest.mark.parametrize(
    "command, options",
    [
        ("calibrate", ["--cr", "0.05", "--pr", "0.30", "--subjects", str(2 * CHUNK + 37), "--template"]),
        ("simulate", ["--sample-size", str(CHUNK + 2), "--hr", "0.7", "--profile"]),
    ],
    ids=["calibrate", "simulate"],
)
def test_passes_of_several_chunks_start_no_thread(tmp_path, fast_profile, thread_starts, command, options):
    """A calibration cohort or a trial of more than CHUNK subjects starts no
    thread, even with two usable CPUs: a trial steps its chunks of streams
    on the calling thread, and calibration's passes run on per-process
    shares, each stepped on its process's one thread."""
    out = tmp_path / "out"
    assert run_cli([command, *options, fast_profile, "--out", str(out)]) == 0
    assert out.exists()
    assert thread_starts == []


def calibrate_argv(profile, out, subjects=2 * CHUNK + 37):
    return ["calibrate", "--cr", "0.05", "--pr", "0.30", "--subjects", str(subjects), "--template", profile, "--out", str(out)]


def test_calibrate_output_is_the_same_at_any_cpu_count(tmp_path, fast_profile, monkeypatch, capsys):
    """profile.json and the fresh-seed line are byte-identical at 1, 2 and 3
    usable CPUs. A cohort of three chunks starts one worker per pass at two
    CPUs and two at three, for the responder table and the fresh-seed check;
    the CR table, under CHUNK responders, is one share. No process is left
    behind."""
    starts = []

    class SpyProcess(multiprocessing.Process):
        def start(self):
            starts[-1] += 1
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", SpyProcess)
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
        out = tmp_path / f"profile_{cpus}.json"
        starts.append(0)
        assert run_cli(calibrate_argv(fast_profile, out)) == 0
        fresh = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fresh-seed check: ")]
        outputs.append((out.read_bytes(), fresh))
        assert multiprocessing.active_children() == []
    assert len(outputs[0][1]) == 1 and outputs[0] == outputs[1] == outputs[2]
    assert starts == [0, 2, 4]


def test_dead_calibration_worker_exits_2_with_one_line(tmp_path, fast_profile, monkeypatch, capsys):
    """A worker that dies in a pass ends calibrate with exit 2 and one error
    line naming its exit code and the subjects whose values it owed."""
    caller, share = os.getpid(), calibration._critical_share

    def dying(*args):
        if os.getpid() != caller:
            os._exit(7)
        return share(*args)

    monkeypatch.setattr(calibration, "_critical_share", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "profile.json"
    assert run_cli(calibrate_argv(fast_profile, out)) == 2
    owed = f"the critical values of subjects {CHUNK}..{2 * CHUNK + 36}"
    assert capsys.readouterr().err == f"error: worker process 1 exited with code 7 before returning {owed}\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_grid_command_loads_its_profile_once(tmp_path, fast_profile, monkeypatch):
    """power resolves the config's profile to a model once, while the config
    is parsed; every block then reads the model from the grid."""
    loads, load = [], serialize.load_profile

    def counted(name):
        loads.append(name)
        return load(name)

    for module in (serialize, cwtasim.config, cwtasim.cli, harness):  # every module that holds the function
        if getattr(module, "load_profile", None) is load:
            monkeypatch.setattr(module, "load_profile", counted)
    cfg = small_config(tmp_path, profile=fast_profile)
    assert run_cli(["power", "--config", cfg]) == 0
    assert loads == [fast_profile]
    assert (tmp_path / "out" / "power.csv").exists()


def test_dead_worker_exits_2_with_one_line(tmp_path, fast_profile, monkeypatch, capsys):
    """A worker process that dies mid-grid ends a pooled command with exit 2
    and one error line naming its exit code, not a traceback."""
    cfg = small_config(tmp_path, profile=fast_profile)
    caller, run_block = os.getpid(), harness._run_block

    def dying(grid, runs):
        if os.getpid() != caller:
            os._exit(9)
        return run_block(grid, runs)

    monkeypatch.setattr(harness, "_run_block", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run_cli(["power", "--config", cfg, "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: worker process 1 exited with code 9 before returning block 1 ("), err
    assert not (tmp_path / "out" / "power.csv").exists()


def test_resolve_workers_bounds(capsys):
    assert resolve_workers(1, 4) == 1
    assert resolve_workers(4, 4) == 4
    assert resolve_workers(3, None) == 3
    assert capsys.readouterr().err == ""

    assert resolve_workers(64, 2) == 2
    warning = capsys.readouterr().err
    assert warning.count("\n") == 1 and "64" in warning and "2" in warning

    for bad in (0, -3):
        with pytest.raises(ValueError, match="--workers"):
            resolve_workers(bad, 4)


@pytest.mark.parametrize("command", ["power", "samplesize", "tte"])
def test_workers_below_one_exits_2_before_the_grid(tmp_path, fast_profile, capsys, command):
    cfg = small_config(tmp_path, profile=fast_profile)
    assert run_cli([command, "--config", cfg, "--workers", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--workers" in captured.err
    assert not (tmp_path / "out").exists()


def test_error_paths_exit_2(tmp_path, fast_profile, capsys, monkeypatch):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"alpha": 2.0}')
    assert run_cli(["power", "--config", str(bad_cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_cfg}: ") and "alpha" in err

    # a malformed profile: one line that names the file and the field, never a traceback
    for name, text, expected in (
        ("null_prob.json", '{"improve_prob": {"0": null}, "worsen_prob": {}}', "improve_prob['0'] must be a number"),
        ("list_horizon.json", '{"improve_prob": {}, "worsen_prob": {}, "horizon_months": [1]}', "horizon_months"),
        ("truncated.json", '{"improve_prob": {"0": 0.0}, "wor', "Unterminated string"),
        ("deep.json", "[" * 100_000, "recursion"),
        ("long_horizon.json", '{"improve_prob": {}, "worsen_prob": {}, "horizon_months": 1000000000}',
         "horizon_months must lie in 1..1200"),
    ):
        profile = tmp_path / name
        profile.write_text(text)
        assert run_cli([
            "simulate", "--profile", str(profile), "--sample-size", "4",
            "--hr", "0.7", "--out", str(tmp_path / "never.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {profile}: ") and expected in err, err

    # a malformed config, or one naming a malformed profile: the line starts with the config's path
    for name, text, expected in (
        ("truncated_cfg.json", '{"alpha": 0.0', "config is not valid JSON"),
        ("deep_cfg.json", "[" * 100_000, "recursion"),
        ("binary_cfg.json", "\udcff", "'utf-8' codec can't decode"),
        ("unmapped_hr.json", '{"hazard_ratios": [0.5], "replicates": {"0.6": 3}}', "lacks hazard ratio"),
        ("off_grid_hr.json", '{"hazard_ratios": [0.5], "replicates": {"0.5": 2, "0.7": 1}}',
         "replicates mapping names hazard ratio(s) not on the grid: [0.7]"),
        ("bad_profile_cfg.json", json.dumps({"profile": str(tmp_path / "null_prob.json")}), "null_prob.json: "),
        ("no_profile_cfg.json", '{"profile": "no-such-profile"}', "neither a built-in name"),
        ("many_reps_cfg.json", '{"replicates": 1000000000000000}', "replicates must lie in 1..10000000"),
        ("many_reps_map_cfg.json", '{"hazard_ratios": [0.5], "replicates": {"0.5": 1000000000000000}}',
         "replicates must lie in 1..10000000"),
    ):
        config = tmp_path / name
        config.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert run_cli(["power", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {config}: ") and expected in err, err

    # a sample too large to draw: one line naming the sample size, before anything is allocated;
    # in a grid config the line starts with the config's path, and no block of the grid runs.
    # Likewise a hazard ratio the profile cannot take, and a samplesize target outside (0, 1).
    huge = "sample size 2000000000000 at a 18-month"
    blocks_run, evaluations = [], []
    monkeypatch.setattr(harness, "_run_block", lambda *args: blocks_run.append(args))
    evaluate = calibration._response_rates

    def recorded(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(calibration, "_response_rates", recorded)
    cfgs = []
    for name, fields in (
        ("huge_n_cfg.json", {"profile": fast_profile, "sample_sizes": [2_000_000_000_000]}),
        ("late_huge_n_cfg.json", {"profile": fast_profile, "sample_sizes": [400, 2_000_000_000_000]}),
        ("late_bad_hr_cfg.json", {"profile": "moderate", "hazard_ratios": [0.5, 100]}),
        ("valid_cfg.json", {"profile": fast_profile, "sample_sizes": [20, 40]}),
    ):
        cfgs.append(tmp_path / name)
        cfgs[-1].write_text(json.dumps({**fields, "replicates": 200, "output_dir": str(tmp_path / "huge_out")}))
    for argv, start in (
        (["simulate", "--profile", fast_profile, "--sample-size", "2000000000000",
          "--hr", "0.7", "--out", str(tmp_path / "never.csv")], f"error: {huge}"),
        (["power", "--config", str(cfgs[0])], f"error: {cfgs[0]}: {huge}"),
        (["power", "--config", str(cfgs[1])], f"error: {cfgs[1]}: {huge}"),
        (["tte", "--config", str(cfgs[1])], f"error: {cfgs[1]}: {huge}"),
        (["power", "--config", str(cfgs[2])],
         f"error: {cfgs[2]}: hazard ratio 100.0 does not fit the profile: improve_prob[1] + worsen_prob[1] exceeds 1"),
        (["simulate", "--sample-size", "4", "--hr", "100", "--out", str(tmp_path / "never.csv")],
         "error: hazard ratio 100.0 does not fit the profile: improve_prob[1] + worsen_prob[1] exceeds 1"),
        (["simulate", "--sample-size", "4", "--hr", "0.7", "--improvement-hr", "100", "--out", str(tmp_path / "never.csv")],
         "error: improvement hazard ratio 100.0 does not fit the profile: improve_prob[1] + worsen_prob[1] exceeds 1"),
        (["samplesize", "--config", str(cfgs[3]), "--target", "1.5"], "error: target power must lie in (0, 1), got 1.5"),
        (["samplesize", "--config", str(cfgs[3]), "--target", "nan"], "error: target power must lie in (0, 1), got nan"),
        # a cohort above the draw bound or below one is refused before any evaluation, naming its flag
        (["calibrate", "--cr", "0.05", "--pr", "0.30", "--template", fast_profile,
          "--subjects", "2000000000000", "--out", str(tmp_path / "never.json")],
         "error: --subjects 2000000000000 at a 18-month horizon needs 40000000000000 uniforms"),
        (["calibrate", "--cr", "0.05", "--pr", "0.30", "--template", fast_profile,
          "--subjects", "0", "--out", str(tmp_path / "never.json")], "error: --subjects must be at least 1, got 0"),
        # an infinite tolerance would accept the first evaluation's rates
        (["calibrate", "--cr", "0.05", "--pr", "0.30", "--template", fast_profile,
          "--tolerance", "inf", "--out", str(tmp_path / "never.json")],
         "error: tolerance must be positive and finite, got inf"),
    ):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(start), err
    assert blocks_run == [] and evaluations == [] and not (tmp_path / "huge_out").exists()
    assert not (tmp_path / "never.csv").exists() and not (tmp_path / "never.json").exists()

    assert run_cli(["analyze", "--trial", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err

    # analyze on a single-arm file
    single = tmp_path / "single_arm.csv"
    single.write_text("subject,month,state,arm,dropout_month\n0,0,2,control,\n0,1,2,control,\n")
    assert run_cli(["analyze", "--trial", str(single), "--out-dir", str(tmp_path / "x")]) == 2
    assert "both arms" in capsys.readouterr().err

    # a truncated row: one message naming the file and the subject, no traceback
    short = tmp_path / "short_row.csv"
    short.write_text("subject,month,state,arm,dropout_month\n0,0,2,control,\n0,1\n")
    assert run_cli(["analyze", "--trial", str(short), "--out-dir", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "short_row.csv: subject 0" in err

    # a field that is not an integer: the same one-line message, naming the field
    bad_field = tmp_path / "bad_field.csv"
    bad_field.write_text("subject,month,state,arm,dropout_month\n0,x,2,control,\n")
    assert run_cli(["analyze", "--trial", str(bad_field), "--out-dir", str(tmp_path / "z")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad_field.csv: subject 0 has a non-integer month 'x'" in err

    # a field beyond the csv module's size limit: the file and the line, not a traceback
    huge = tmp_path / "huge_field.csv"
    huge.write_text("subject,month,state,arm,dropout_month\n0,0,2,control,\n0,1," + "2" * 131_073 + ",control,\n")
    assert run_cli(["analyze", "--trial", str(huge), "--out-dir", str(tmp_path / "h")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "huge_field.csv: line 3: field larger than field limit" in err

    # bytes that are not UTF-8: the message names the file
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00subject")
    assert run_cli(["analyze", "--trial", str(binary), "--out-dir", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {binary}: 'utf-8' codec can't decode")

    # a curve file with a short row: plot names the file and the line
    curve = tmp_path / "short_curve.csv"
    curve.write_text("arm,time,survival,at_risk,events\ncontrol,1\n")
    assert run_cli(["plot", str(curve), "--out", str(tmp_path / "never.svg")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {curve}: line 2: "), err

    # a curve file that is not UTF-8: plot names the file and a line, and the decode error
    latin = tmp_path / "latin1_curve.csv"
    latin.write_bytes("arm,time,survival,at_risk,events\ncontrôl,1,1.0,4,0\n".encode("latin-1"))
    assert run_cli(["plot", str(latin), "--out", str(tmp_path / "never.svg")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert re.match(rf"error: {re.escape(str(latin))}: line 2: 'utf-8' codec can't decode byte 0xf4", err), err

    # a subject with more rows than months 0..1200: named before the state matrix is allocated
    many = tmp_path / "many_rows.csv"
    many.write_text("subject,month,state,arm\n" + "".join(f"{s},{m},2,control\n" for s in (0, 1) for m in range(2000)))
    assert run_cli(["analyze", "--trial", str(many), "--out-dir", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == f"error: {many}: subject 0 has 2000 rows, more than months 0..1200\n"

    # a subject with only its month-0 row, named before any analysis runs
    baseline = tmp_path / "baseline_only.csv"
    baseline.write_text("subject,month,state,arm\n0,0,2,control\n0,1,2,control\n1,0,2,experimental\n")
    assert run_cli(["analyze", "--trial", str(baseline), "--out-dir", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == f"error: {baseline}: subject 1 has no follow-up after month 0\n"

    # unreachable calibration target
    assert run_cli([
        "calibrate", "--cr", "0.9", "--pr", "0.09", "--template", fast_profile,
        "--subjects", "2000", "--out", str(tmp_path / "c.json"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("hr", ["-0.5", "nan"])
def test_simulate_refuses_a_nonpositive_hazard_ratio_with_one_line(tmp_path, fast_profile, capsys, hr):
    out = tmp_path / "never.csv"
    argv = ["simulate", "--profile", fast_profile, "--sample-size", "4", "--hr", hr, "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: hazard ratio must be positive, got {float(hr)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1\n1,inf\n", ": line 3: needs numeric month and value, got ['1', 'inf']"),
        ("0,1\n1,nan\n", ": line 3: needs numeric month and value, got ['1', 'nan']"),
        ("0,1\n1,1e400\n", ": line 3: needs numeric month and value, got ['1', '1e400']"),
        ("-1e308,0.5\n1e308,0.4\n", "error: axis ranges must span a finite width"),
    ],
)
def test_plot_refuses_values_it_cannot_draw_with_one_line(tmp_path, capsys, rows, message):
    """A value that is not a finite number, or an axis span past the largest
    double, exits 2 with one line, never an OverflowError or a NaN plot."""
    curve = tmp_path / "curve.csv"
    curve.write_text("month,value\n" + rows)
    svg = tmp_path / "never.svg"
    assert run_cli(["plot", str(curve), "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not svg.exists()


def test_reader_fault_the_rescan_cannot_place_names_the_file_and_the_exception(tmp_path, monkeypatch, capsys):
    """Should the row rescan find no faulty row, the reader's message still starts
    with the file, naming the exception's type and text, in one line."""
    path = tmp_path / "trial.csv"
    path.write_text("subject,month,state,arm\n0,0,2,control\n0,1,2,control\n1,0,2,experimental\n1,1,3,experimental\n")

    def broken(*args):
        raise IndexError("injected")

    monkeypatch.setattr(serialize, "_narrow", broken)
    with pytest.raises(ValueError) as info:
        read_trajectories_csv(path)
    assert str(info.value) == f"{path}: IndexError: injected"
    assert run_cli(["analyze", "--trial", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: IndexError: injected\n"

    monkeypatch.undo()
    monkeypatch.setattr(serialize, "_first_row_fault", lambda path: None)
    path.write_text("subject,month,state,arm\n0,0,2,control\n0,1,2,experimental\n1,0,2,experimental\n1,1,3,experimental\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: a subject's rows disagree on its arm or dropout month$"):
        read_trajectories_csv(path)


def test_usage_errors_return_argparse_code():
    assert run_cli([]) == 2
    assert run_cli(["simulate", "--sample-size", "nope"]) == 2
    assert run_cli(["unknown-command"]) == 2
    assert run_cli(["calibrate", "--cr", "0.05", "--pr", "0.30", "--budget", "5", "--out", "never.json"]) == 2


HEADERS = [
    "subject,month,state,arm,dropout_month",
    "subject,month,state,arm",
    "arm,state,month,subject",
    "subject,month,state,arm,month",
    "subject,month",
    "\ufeffsubject,month,state,arm",
    "",
]
# no field value names the experimental arm, so a file the reader accepts still
# fails analyze (one arm): every input below must exit 2
FIELDS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "-1", "7", "300", "9" * 25, "x", "", " "]),
    st.sampled_from(["control", " CONTROL", "placebo"]),
    st.text(alphabet=',"\r\n 0123-+_.\x00\ufeff\xe9', max_size=6),
    st.text(alphabet="\r\n 02x", max_size=4).map(lambda s: f'"{s}"'),  # quoted, may hold line breaks
)
MALFORMED_CSV = st.builds(
    lambda header, rows, end: header + end + end.join(",".join(r) for r in rows),
    st.sampled_from(HEADERS),
    st.lists(st.lists(FIELDS, max_size=6), max_size=12),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda text: text.encode("utf-8"))
RANDOM_BYTES = st.one_of(
    st.binary(max_size=200), st.binary(max_size=200).map(lambda b: HEADERS[0].encode() + b"\n" + b)
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.one_of(MALFORMED_CSV, RANDOM_BYTES))
@example(content=b'subject,month,state,arm\n"a\nb",0\n')  # a line break inside the echoed subject
def test_analyze_rejects_malformed_input_with_one_line(tmp_path, capsys, content):
    trial = tmp_path / "trial.csv"
    trial.write_bytes(content)
    assert run_cli(["analyze", "--trial", str(trial), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err


def _is_json_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw), dict)
    except (ValueError, RecursionError):
        return False


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def malformed_documents(valid: dict, bad_values: dict, required=()):
    """JSON texts that break a valid document: one field set to a value it
    rejects, an unknown field, a required field dropped, a strict prefix of
    the text, a top-level value that is not an object, or random bytes."""
    text = json.dumps(valid)
    edits = [
        st.sampled_from([(f, v) for f, values in bad_values.items() for v in values]).map(
            lambda fv: json.dumps({**valid, fv[0]: fv[1]})
        ),
        st.builds(
            lambda key, value: json.dumps({**valid, key: value}),
            st.text(max_size=8).filter(lambda key: key not in valid and key not in bad_values),
            JSON_VALUES,
        ),
        st.integers(0, len(text) - 1).map(lambda i: text[:i]),
        st.lists(JSON_VALUES, max_size=3).map(json.dumps),
    ]
    if required:
        edits.append(st.sampled_from(required).map(lambda f: json.dumps({k: v for k, v in valid.items() if k != f})))
    random_bytes = st.one_of(st.binary(max_size=200), st.binary(max_size=40).map(lambda b: text.encode() + b))
    return st.one_of(st.one_of(edits).map(str.encode), random_bytes.filter(lambda b: not _is_json_object(b)))


VALID_CONFIG = {"profile": "moderate", "hazard_ratios": [0.5], "sample_sizes": [20], "replicates": 2, "master_seed": 0}
BAD_CONFIG_VALUES = {  # values each config field rejects
    "profile": [None, True, 3, [], {}, "", "no-such-profile"],
    "hazard_ratios": [None, 0.5, "0.5", [], [0], [-0.5], [True], ["x"], [None], [float("nan")], [0.5, 0.5]],
    "sample_sizes": [None, 20, "20", [], [3], [0], [-2], [2.5], [True], [20, 20]],
    "replicates": [None, 0, -1, True, 2.5, "3", [2], {"0.6": 2}, {"0.5": 0}, {"x": 2}, 10**15, {"0.5": 10**7 + 1}],
    "alpha": [None, 0, 1, 1.5, -0.1, True, "0.05", [0.05], float("nan")],
    "master_seed": [None, 1.5, True, "0", [0], {}],
    "output_dir": [None, "", 3, True, []],
}
BAD_PROFILE_VALUES = {  # values each profile field rejects
    "improve_prob": [None, 0.1, [], "x", {"5": 0.1}, {"0": 0.1}, {"1": None}, {"1": True}, {"1": [0.1]},
                     {"1": "0.1"}, {"1": 1.5}, {"1": -0.1}, {"1": 10**400}, {"1": float("inf")}],
    "worsen_prob": [None, [], {"4": 0.1}, {"1": None}, {"1": False}, {"1": {}}, {"1": 2}, {"2": float("nan")}],
    "improve_decay": [None, True, "0.9", [0.9], 0, 1.5, -1, float("nan")],
    "horizon_months": [None, True, [1], "60", 60.5, 1.0, 0, -3, 1201, 10**9],
    "dropout_rate": [None, False, "0.1", [], -0.1, 1.5, float("nan")],
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=malformed_documents(VALID_CONFIG, BAD_CONFIG_VALUES))
def test_malformed_config_exits_2_naming_the_file(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert run_cli(["power", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {config}: "), err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=malformed_documents(FAST.to_json_dict(), BAD_PROFILE_VALUES, required=("improve_prob", "worsen_prob")))
def test_malformed_profile_exits_2_naming_the_file(tmp_path, capsys, content):
    profile = tmp_path / "profile.json"
    profile.write_bytes(content)
    out = tmp_path / "trial.csv"
    assert run_cli(["simulate", "--profile", str(profile), "--sample-size", "4", "--hr", "0.7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {profile}: "), err
    assert not out.exists()


def test_import_loads_no_scipy_stats(tmp_path):
    """Only a p-value needs scipy (scipy.special, about 300 modules): the
    import and the commands that compute none load no scipy module at all,
    and a pooled grid loads scipy.special before its first worker starts,
    so its workers inherit it rather than each importing it again. Nor do
    they load concurrent.futures or multiprocessing, which only a pooled
    grid or a calibration pass of several chunks imports, where it starts
    its workers: a grid at --workers 1 and a 2 000-subject cohort (one
    chunk) load no multiprocessing."""
    (tmp_path / "curve.csv").write_text("arm,time,survival\ncontrol,1,0.5\ncontrol,2,0.25\n")
    (tmp_path / "grid.json").write_text('{"hazard_ratios": [0.7], "sample_sizes": [20], "replicates": 4}')
    code = (
        "import sys, cwtasim, cwtasim.cli\n"
        "from cwtasim import ExperimentGrid, harness\n"
        "def loaded(): return sorted(k for k in sys.modules if k.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing'))\n"
        "print('import', loaded())\n"
        "for argv in (\n"
        "    ['calibrate', '--cr', '0.05', '--pr', '0.30', '--subjects', '2000', '--out', 'profile.json'],\n"
        "    ['simulate', '--sample-size', '20', '--hr', '0.7', '--out', 'trial.csv'],\n"
        "    ['plot', 'curve.csv', '--out', 'plot.svg'],\n"
        "):\n"
        "    assert cwtasim.cli.run_cli(argv) == 0, argv\n"
        "    print(argv[0], loaded())\n"
        "assert cwtasim.cli.run_cli(['power', '--config', 'grid.json', '--workers', '1']) == 0\n"
        "print('power', 'multiprocessing' in sys.modules)\n"
        "import multiprocessing\n"
        "class SpyProcess(multiprocessing.Process):\n"
        "    def start(self):\n"
        "        print('worker', 'scipy.special' in sys.modules)\n"
        "        super().start()\n"
        "multiprocessing.Process = SpyProcess\n"
        "grid = ExperimentGrid(hazard_ratios=(0.7,), sample_sizes=(20,), replicates=4)\n"
        "print('points', len(list(harness.run_grid(grid, workers=2))))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    lines = [line for line in out.stdout.splitlines() if not line.startswith(("wrote ", "fresh-seed check: "))]
    assert lines == [
        "import []", "calibrate []", "simulate []", "plot []", "power False", "worker True", "points 1"
    ]


def test_text_is_utf8_whatever_the_locale(tmp_path):
    """Under the C locale, analyze reads a UTF-8 trial holding a quoted field,
    and plot reads a UTF-8 curve label and writes a non-ASCII title as UTF-8."""
    trial = tmp_path / "trial.csv"
    rows = '"é1",0,2,control\né1,1,2,control\nb,0,2,experimental\nb,1,3,experimental\n'
    trial.write_text("subject,month,state,arm\n" + rows, encoding="utf-8")
    curve = tmp_path / "curve.csv"
    curve.write_text("arm,time,survival\nbras é,1,0.5\nbras é,2,0.25\n", encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "cwtasim.cli", *argv], env=env, capture_output=True, text=True)

    done = cli("analyze", "--trial", str(trial), "--out-dir", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    svg = tmp_path / "plot.svg"
    done = cli("plot", str(curve), "--title", "Überleben β", "--out", str(svg))
    assert done.returncode == 0, done.stderr
    text = svg.read_text(encoding="utf-8")
    assert "Überleben β" in text and "bras é" in text


def test_public_names_resolve():
    assert len(cwtasim.__all__) == len(set(cwtasim.__all__))
    assert [name for name in cwtasim.__all__ if not hasattr(cwtasim, name)] == []
