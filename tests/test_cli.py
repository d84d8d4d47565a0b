"""End-to-end CLI tests driving run_cli() in-process."""

from __future__ import annotations

import json

import pytest

from cwtasim import load_profile, read_trajectories_csv, save_profile
from cwtasim.cli import resolve_workers, run_cli
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
    subjects = read_trajectories_csv(trial_csv)
    assert len(subjects) == 40

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


def test_simulate_is_deterministic(tmp_path, fast_profile):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run_cli([
            "simulate", "--profile", fast_profile, "--sample-size", "20",
            "--hr", "0.7", "--seed", "11", "--out", out,
        ]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_calibrate_writes_profile(tmp_path, fast_profile, capsys):
    out = str(tmp_path / "calibrated.json")
    code = run_cli([
        "calibrate", "--cr", "0.05", "--pr", "0.30", "--template", fast_profile,
        "--subjects", "4000", "--tolerance", "0.01", "--out", out,
    ])
    assert code == 0
    model = load_profile(out)
    assert model.improve_prob[2] > 0.0
    assert "fresh-seed check" in capsys.readouterr().out


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


def test_worker_count_does_not_change_output(tmp_path, fast_profile):
    cfg1 = small_config(tmp_path / "one" if False else tmp_path, profile=fast_profile)
    assert run_cli(["power", "--config", cfg1, "--workers", "1"]) == 0
    single = (tmp_path / "out" / "power.csv").read_bytes()
    assert run_cli(["power", "--config", cfg1, "--workers", "3"]) == 0
    multi = (tmp_path / "out" / "power.csv").read_bytes()
    assert single == multi


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


def test_error_paths_exit_2(tmp_path, fast_profile, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"alpha": 2.0}')
    assert run_cli(["power", "--config", str(bad_cfg)]) == 2
    assert "alpha" in capsys.readouterr().err

    assert run_cli(["analyze", "--trial", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err

    # analyze on a single-arm file
    single = tmp_path / "single_arm.csv"
    single.write_text("subject,month,state,arm,dropout_month\n0,0,2,control,\n")
    assert run_cli(["analyze", "--trial", str(single), "--out-dir", str(tmp_path / "x")]) == 2
    assert "both arms" in capsys.readouterr().err

    # unreachable calibration target
    assert run_cli([
        "calibrate", "--cr", "0.9", "--pr", "0.09", "--template", fast_profile,
        "--subjects", "2000", "--out", str(tmp_path / "c.json"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_return_argparse_code():
    assert run_cli([]) == 2
    assert run_cli(["simulate", "--sample-size", "nope"]) == 2
    assert run_cli(["unknown-command"]) == 2
