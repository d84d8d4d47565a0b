"""Calibration search tests."""

from __future__ import annotations

import pytest

from cwtasim.calibration import (
    CALIBRATION_SEED,
    CalibrationError,
    CalibrationTarget,
    calibrate_transition_model,
    control_response_rates,
)
from cwtasim.trajectories import CR, PR, Arm, TransitionModel
from oracles import simulate_subject, subject_rng

TEMPLATE = TransitionModel(
    improve_prob=(0.0, 0.0, 0.0, 0.0, 0.0),
    worsen_prob=(0.03, 0.1, 0.06, 0.12, 0.0),
    improve_decay=0.95,
    horizon_months=24,
)


def test_target_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CalibrationTarget(cr_rate=-0.1, pr_rate=0.3)
    with pytest.raises(ValueError, match="exceed 1"):
        CalibrationTarget(cr_rate=0.6, pr_rate=0.5)
    with pytest.raises(ValueError, match="tolerance"):
        CalibrationTarget(cr_rate=0.05, pr_rate=0.3, tolerance=0.0)


def test_target_json_round_trip():
    t = CalibrationTarget(cr_rate=0.05, pr_rate=0.30, tolerance=0.01)
    assert CalibrationTarget.from_json_dict(t.to_json_dict()) == t
    with pytest.raises(ValueError, match="unknown fields"):
        CalibrationTarget.from_json_dict({"cr_rate": 0.05, "pr_rate": 0.3, "bonus": 1})


def test_response_rates_match_per_subject_oracle():
    """Best overall response over each subject's observed months, one subject
    at a time; half the subjects drop out, so the observed mask matters."""
    model = TransitionModel(
        improve_prob=(0.0, 0.12, 0.1, 0.0, 0.0),
        worsen_prob=TEMPLATE.worsen_prob,
        improve_decay=0.9,
        horizon_months=24,
        dropout_rate=0.5,
    )
    n = 300
    best = [
        int(simulate_subject(model, Arm.CONTROL, 1.0, subject_rng(CALIBRATION_SEED, i))[0].min())
        for i in range(n)
    ]
    expected = (best.count(CR) / n, best.count(PR) / n)
    assert 0.0 < expected[0] and 0.0 < expected[1]
    assert control_response_rates(model, n_subjects=n) == expected


def test_zero_targets_leave_improvement_at_zero():
    model = calibrate_transition_model(
        CalibrationTarget(cr_rate=0.0, pr_rate=0.0, tolerance=0.005),
        template=TEMPLATE,
        n_subjects=5_000,
    )
    assert model.improve_prob == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_calibration_hits_targets_on_a_fresh_seed():
    target = CalibrationTarget(cr_rate=0.05, pr_rate=0.30, tolerance=0.005)
    model = calibrate_transition_model(target, template=TEMPLATE, n_subjects=40_000)
    # template fields untouched, improvement filled in
    assert model.worsen_prob == TEMPLATE.worsen_prob
    assert model.improve_prob[2] > 0.0 and model.improve_prob[1] > 0.0
    assert model.improve_prob[0] == model.improve_prob[3] == model.improve_prob[4] == 0.0
    cr, pr = control_response_rates(model, n_subjects=40_000, seed=31337)
    # fresh-seed Monte Carlo: allow tolerance + ~4 sd of binomial noise
    assert cr == pytest.approx(0.05, abs=0.01)
    assert pr == pytest.approx(0.30, abs=0.015)


def test_calibration_is_deterministic():
    target = CalibrationTarget(cr_rate=0.08, pr_rate=0.25, tolerance=0.01)
    m1 = calibrate_transition_model(target, template=TEMPLATE, n_subjects=5_000)
    m2 = calibrate_transition_model(target, template=TEMPLATE, n_subjects=5_000)
    assert m1 == m2


def test_unreachable_target_raises():
    # With heavy worsening from SD, ~90% of subjects cannot all reach CR.
    with pytest.raises(CalibrationError, match="unreachable"):
        calibrate_transition_model(
            CalibrationTarget(cr_rate=0.9, pr_rate=0.05),
            template=TEMPLATE,
            n_subjects=2_000,
        )


def test_budget_exhaustion_reports_best_model():
    with pytest.raises(CalibrationError, match="budget") as err:
        calibrate_transition_model(
            CalibrationTarget(cr_rate=0.05, pr_rate=0.30, tolerance=0.0001),
            template=TEMPLATE,
            n_subjects=2_000,
            budget=5,
        )
    assert err.value.model is not None
    assert err.value.achieved_cr is not None


def test_bad_subject_count():
    with pytest.raises(ValueError, match="n_subjects"):
        calibrate_transition_model(
            CalibrationTarget(cr_rate=0.05, pr_rate=0.30), template=TEMPLATE, n_subjects=0
        )
