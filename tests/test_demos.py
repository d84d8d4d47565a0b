"""The demos run as written against the package API."""

from __future__ import annotations

import json
import runpy
import shutil
from pathlib import Path

from cwtasim import METHODS

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_power_and_sample_size_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "power_and_sample_size.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["size", *METHODS]
    assert [line.split()[0] for line in lines[1:7]] == ["30", "44", "58", "72", "86", "100"]
    assert lines[8] == "sample size for 80% power (interpolated):"
    assert [line.split(":")[0].strip() for line in lines[9:]] == list(METHODS)


def test_time_to_first_signal_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "time_to_first_signal.py"), run_name="__main__")
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert [line.split(":")[0].strip() for line in lines[:3]] == list(METHODS)
    assert all("/100 replicates" in line for line in lines[:3])
    assert [line.split(":")[0] for line in lines[3:]] == ["CWTA vs PFS", "CWTA vs OS"]


def test_single_trial_demo_reproduces_its_committed_outputs(tmp_path, capsys):
    """The demo writes next to itself, so a copy in tmp_path leaves demos/output as it is."""
    shutil.copy(DEMOS / "single_trial_three_ways.py", tmp_path)
    runpy.run_path(str(tmp_path / "single_trial_three_ways.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "simulated 200 subjects over 60 months"
    assert [line.split(":")[0] for line in lines[1:4]] == list(METHODS)
    for name in ("curve_cwta.csv", "curve_os.csv", "curve_pfs.csv", "single_trial.svg"):
        assert (tmp_path / "output" / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name


def test_calibrate_a_profile_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "calibrate_a_profile.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "calibrated improvement probabilities:"
    assert [line.split(":")[0] for line in lines[1:3]] == ["  PR -> CR per month", "  SD -> PR per month"]
    assert lines[3].startswith("fresh-seed control rates: CR ")
    assert lines[5] == "profile JSON:"
    profile = json.loads("\n".join(lines[6:]))
    printed = [float(line.split(":")[1]) for line in lines[1:3]]
    assert printed == [round(profile["improve_prob"][state], 5) for state in ("1", "2")]
