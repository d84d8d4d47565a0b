"""The replicate-grid demos run as written against the package API."""

from __future__ import annotations

import runpy
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
