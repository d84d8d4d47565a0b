"""Configuration parsing and CSV/JSON wire-format tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cwtasim import (
    Arm,
    ConfigError,
    TransitionModel,
    TrialConfig,
    default_replicates_for_tte,
    load_profile,
    parse_config,
    read_trajectories_csv,
    save_profile,
    simulate_trial,
    write_trajectories_csv,
)
from cwtasim.config import DEFAULT_HAZARD_RATIOS
from cwtasim.kaplan_meier import Endpoint, endpoint_arrays, km_estimate, logrank_test
from cwtasim.serialize import (
    read_curves_csv,
    write_km_curve_csv,
    write_km_curves_by_arm_csv,
    write_power_csv,
    write_sample_size_csv,
    write_tests_csv,
    write_trajectory_curve_csv,
    write_tte_csv,
)
from cwtasim.weighted import cwta_curve, extract_weighted_events, weighted_logrank_test

MODEL = TransitionModel(
    improve_prob=(0.0, 0.05, 0.03, 0.0, 0.0),
    worsen_prob=(0.03, 0.1, 0.06, 0.12, 0.0),
    improve_decay=0.95,
    horizon_months=18,
)


# ------------------------------------------------------------------ config


def test_parse_config_defaults():
    cfg = parse_config("{}")
    assert cfg.profile == "moderate"
    assert cfg.hazard_ratios == DEFAULT_HAZARD_RATIOS
    assert cfg.sample_sizes is None
    assert cfg.alpha == 0.05


def test_parse_config_full_document():
    cfg = parse_config(
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
        )
    )
    assert cfg.profile == "high"
    assert cfg.hazard_ratios == (0.5, 0.7)
    assert cfg.sample_sizes == (40, 80)
    assert cfg.replicates == {0.5: 200, 0.7: 100}
    assert cfg.alpha == 0.01
    assert cfg.master_seed == 42
    assert cfg.output_dir == "out"


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="sample_size_list"):
        parse_config('{"sample_size_list": [10]}')


def test_parse_config_rejects_bad_alpha():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config('{"alpha": 1.5}')
    with pytest.raises(ConfigError, match="alpha"):
        parse_config('{"alpha": "big"}')


def test_parse_config_odd_sample_size_names_allocation():
    with pytest.raises(ConfigError, match="1:1"):
        parse_config('{"sample_sizes": [101]}')
    with pytest.raises(ConfigError, match="1:1"):
        parse_config('{"sample_sizes": [0]}')


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
    ):
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_default_tte_replicates_rule():
    reps = default_replicates_for_tte((0.5, 0.7, 0.8))
    assert reps == {0.5: 100, 0.7: 100, 0.8: 1000}


# ---------------------------------------------------------------- profiles


def test_profile_round_trip(tmp_path):
    path = tmp_path / "custom.json"
    save_profile(MODEL, path)
    again = load_profile(str(path))
    assert again == MODEL


def test_builtin_profiles_load_and_differ():
    moderate = load_profile("moderate")
    high = load_profile("high")
    assert isinstance(moderate, TransitionModel)
    assert moderate != high


def test_load_profile_unknown_name():
    with pytest.raises(FileNotFoundError, match="moderate"):
        load_profile("nonexistent-profile")


# ------------------------------------------------------- trajectories CSV


def test_trajectories_csv_round_trip(tmp_path):
    trial = simulate_trial(TrialConfig(sample_size=30, hazard_ratio=0.6, control_model=MODEL, seed=8))
    path = tmp_path / "subjects.csv"
    write_trajectories_csv(trial, path)
    again = read_trajectories_csv(path)
    assert len(again.arms) == 30
    for name in ("states", "censor", "arms", "dropped"):
        assert np.array_equal(getattr(trial, name), getattr(again, name)), name


def test_trajectories_csv_is_byte_stable(tmp_path):
    trial = simulate_trial(TrialConfig(sample_size=10, hazard_ratio=0.6, control_model=MODEL, seed=8))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectories_csv(trial, a)
    write_trajectories_csv(trial, b)
    assert a.read_bytes() == b.read_bytes()


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
    with pytest.raises(ValueError, match=r"bad\.csv: subject 0 has states outside 0\.\.4"):
        read_trajectories_csv(bad_csv(tmp_path, "0,0,2,control,\n0,1,300,control,\n"))  # not an int8
    missing = tmp_path / "missing_cols.csv"
    missing.write_text("subject,month\n0,0\n")
    with pytest.raises(ValueError, match="needs columns"):
        read_trajectories_csv(missing)


# -------------------------------------------------------------- curve CSVs


def endpoints(trial, kind):
    return endpoint_arrays(trial.states, trial.censor, kind)


def test_km_curve_csv_and_read_back(tmp_path):
    trial = simulate_trial(TrialConfig(sample_size=40, hazard_ratio=0.5, control_model=MODEL, seed=4))
    curve = km_estimate(*endpoints(trial, Endpoint.PFS))
    path = tmp_path / "curve.csv"
    write_km_curve_csv(curve, path)
    curves = read_curves_csv(path)
    assert len(curves) == 1
    label, points = curves[0]
    assert points[0] == (0.0, 1.0)  # anchor
    assert len(points) == len(curve.steps) + 1


def test_km_curves_by_arm_csv(tmp_path):
    trial = simulate_trial(TrialConfig(sample_size=40, hazard_ratio=0.5, control_model=MODEL, seed=4))
    times, events = endpoints(trial, Endpoint.OS)
    curves = {
        arm: km_estimate(times[trial.arms == arm], events[trial.arms == arm])
        for arm in (Arm.CONTROL, Arm.EXPERIMENTAL)
    }
    path = tmp_path / "by_arm.csv"
    write_km_curves_by_arm_csv(curves, path)
    out = dict(read_curves_csv(path))
    assert set(out) == {"control", "experimental"}


def test_trajectory_curve_csv(tmp_path):
    trial = simulate_trial(TrialConfig(sample_size=40, hazard_ratio=0.5, control_model=MODEL, seed=4))
    table = extract_weighted_events(trial)
    curve = cwta_curve(table, Arm.CONTROL)
    path = tmp_path / "cwta.csv"
    write_trajectory_curve_csv(curve, path)
    label, points = read_curves_csv(path)[0]
    assert len(points) == len(curve.steps)
    assert points[0] == (0.0, 1.0)  # month-0 value is 1, no synthetic anchor
    values = [v for _, v in points]
    assert values == pytest.approx([s.value for s in curve.steps])


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


# ------------------------------------------------------------ result CSVs


def test_tests_csv_blank_for_degenerate(tmp_path):
    trial = simulate_trial(TrialConfig(sample_size=60, hazard_ratio=0.5, control_model=MODEL, seed=4))
    table = extract_weighted_events(trial)
    results = {
        "CWTA": weighted_logrank_test(table),
        "PFS": logrank_test(*endpoints(trial, Endpoint.PFS), trial.arms),
        "OS": None,  # degenerate -> blank numeric fields
    }
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
