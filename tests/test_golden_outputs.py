"""Byte-identity of the CLI's deterministic outputs.

The SHA-256 digests below are those of files written by the package before
the statistics kernel and the CWTA event path were unified; the digests of
the trial whose endpoints end before the horizon were recorded before the
three methods shared one monthly-counts pass; the calibration digests were
recorded before scipy.special became an on-first-use import. A refactor
that changes any byte of a simulated trial, of analyze's tests and curves,
of a grid's power and time-to-signal tables, or of a calibrated profile and
its fresh-seed check fails here. When an output changes
on purpose, the digests are re-recorded in the same change and the reason
is given in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from cwtasim.cli import run_cli

ANALYZE_DIGESTS = {
    0: {
        "trajectories.csv": "52278f4009f862b42b4221363cb79a4e7f44f4a8e2b9c7d50ef799100554afc4",
        "tests.csv": "adc2b8bc95548076e332dc14a7f586cc7d9d4d815575107406464622c39a1c9a",
        "curve_pfs.csv": "d00d94216f08e46e51afc858f20955a847f5aca5ad795e041fa745698625b535",
        "curve_os.csv": "760e869a0a6b7413708442ff9ff4d4fb684b3450b8ebe8501f9a397503a52036",
        "curve_cwta.csv": "8fd5a65c79b108923341735d432decfd950cf6eb4dfa7546f2ee916e1c8aba27",
    },
    101: {
        "trajectories.csv": "9c3c50d986ade36e0681d02f10b38c9db7423c25f387d9dd565a4f39845139d5",
        "tests.csv": "2b832313e9d9a82dfb84a4efe15a72b15a89f477c6fd004f07dc4639c39bd79b",
        "curve_pfs.csv": "ebbc027ef8994f4eb825b98e767c2a96b6eac752a9d7f66576b3d3c7b4fc5c23",
        "curve_os.csv": "d739bbbf59b75a3204c6a336a595804c5cd34ea2a29622511a916b1626696ed8",
        "curve_cwta.csv": "b61f7af3b3d91069e3a7a1a9d5d63dcb3702dfc7964f6528d3fed50e331d2380",
    },
}
# Sixteen subjects, arms alternating from control, one state per month. Every
# subject observed to month 24 has died by month 23, so PFS and OS end before
# the horizon: their logrank sums run over fewer months than CWTA's, and
# numpy's pairwise sum rounds a zero-padded sum differently.
TRAILING_PATHS = (
    "2222222222222222222344444",
    "2222212221110012333344444",
    "2122121112122212222223344",
    "2112100001000123333333344",
    "2222222222222112222",
    "2112210123333333333334444",
    "2100001234444444444444444",
    "2222112221123334444444444",
    "2100012333333333333333444",
    "2221112222233333333333344",
    "2222112112112222222333444",
    "2101001122222212212344444",
    "2222223344444444444444444",
    "2221112221123333333334444",
    "2111221123333444444444444",
    "222212222210011",
)
TRAILING_DIGESTS = {
    "tests.csv": "517c886ce9ec06d530647c7f75894900259feeffb697f1925801661e54d1345f",
    "curve_pfs.csv": "afbaaa9f34260b6f30734e0b51107e96884e0dd44f647c2e127695fb1cb87046",
    "curve_os.csv": "ba21a1711fcc9e27a1324109df63e8e4284dfe9c80e11eb609f23badfa23ca12",
    "curve_cwta.csv": "78c4e792fcaae749c7c8ead74a78636ae3f200d0295d78ac5a0e099b5f323bbe",
}
GRID_DIGESTS = {
    "power.csv": "943990d4e121ea49dc697a4730864ad09af8439b4dd155ba0043e1c45422cced",
    "tte.csv": "535cf000ba1b374f49f8341ff48af6305f7397d03c0b7b7b438cfb4ec401a6a5",
}

CALIBRATE_DIGESTS = {
    "profile.json": "4c8993894b7e5706d1c72983531ec320214b74e32ed174fd8f75afee9aeef5f2",
    "fresh-seed line": "fb4c0c030c7c565f3f6680d0493fdb495a5923446684a0bf6d88481ff2fffad3",
}


def _digests(directory, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("seed", sorted(ANALYZE_DIGESTS))
def test_simulate_and_analyze_outputs_are_byte_identical(tmp_path, seed):
    trial = tmp_path / "trajectories.csv"
    assert run_cli([
        "simulate", "--profile", "moderate", "--sample-size", "200",
        "--hr", "0.7", "--seed", str(seed), "--out", str(trial),
    ]) == 0
    assert run_cli(["analyze", "--trial", str(trial), "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path, ANALYZE_DIGESTS[seed]) == ANALYZE_DIGESTS[seed]


def test_analyze_of_endpoints_ending_before_the_horizon_is_byte_identical(tmp_path):
    horizon = max(map(len, TRAILING_PATHS)) - 1
    rows = ["subject,month,state,arm,dropout_month"]
    for i, path in enumerate(TRAILING_PATHS):
        arm, dropout = ("control", "experimental")[i % 2], len(path) - 1 if len(path) <= horizon else ""
        rows += [f"{i},{month},{state},{arm},{dropout}" for month, state in enumerate(path)]
    trial = tmp_path / "trajectories.csv"
    trial.write_text("\n".join(rows) + "\n")
    assert run_cli(["analyze", "--trial", str(trial), "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path, TRAILING_DIGESTS) == TRAILING_DIGESTS


def test_grid_outputs_are_byte_identical(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "profile": "moderate",
        "hazard_ratios": [0.5, 0.8],
        "sample_sizes": [40, 100],
        "replicates": 20,
        "master_seed": 7,
        "output_dir": str(tmp_path),
    }))
    assert run_cli(["power", "--config", str(config)]) == 0
    assert run_cli(["tte", "--config", str(config)]) == 0
    assert _digests(tmp_path, GRID_DIGESTS) == GRID_DIGESTS


def test_calibrate_profile_and_fresh_seed_line_are_byte_identical(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    assert run_cli([
        "calibrate", "--cr", "0.05", "--pr", "0.30", "--subjects", "20000", "--out", str(profile),
    ]) == 0
    wrote, line = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote {profile}"
    assert {
        "profile.json": hashlib.sha256(profile.read_bytes()).hexdigest(),
        "fresh-seed line": hashlib.sha256(line.encode()).hexdigest(),
    } == CALIBRATE_DIGESTS
