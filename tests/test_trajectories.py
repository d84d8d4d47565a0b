"""Simulation-core tests: model validation, hazard-ratio transform, and
the randomness contract (fixed draw layout, scalar == vectorized)."""

from __future__ import annotations

from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwtasim import (
    CR,
    DEATH,
    PD,
    PR,
    SD,
    Arm,
    TransitionModel,
    TrialConfig,
    apply_hazard_ratio,
    simulate_trial,
)
from cwtasim.seeds import CHUNK, pcg64_uniforms
from cwtasim.trajectories import (
    _simulate_state_matrix,
    simulate_block,
    subject_uniforms,
    trial_state_matrix,
)
from oracles import simulate_subject, subject_rng

TOL = 1e-12


def model(improve=(0.0, 0.05, 0.03, 0.0, 0.0), worsen=(0.02, 0.08, 0.07, 0.12, 0.0), **kw):
    return TransitionModel(improve_prob=improve, worsen_prob=worsen, **kw)


# ------------------------------------------------------------- validation


def test_structural_zeros_enforced():
    with pytest.raises(ValueError):
        model(improve=(0.1, 0.05, 0.03, 0.0, 0.0))  # CR cannot improve
    with pytest.raises(ValueError):
        model(improve=(0.0, 0.05, 0.03, 0.1, 0.0))  # PD is irreversible
    with pytest.raises(ValueError):
        model(improve=(0.0, 0.05, 0.03, 0.0, 0.1))  # death is absorbing
    with pytest.raises(ValueError):
        model(worsen=(0.02, 0.08, 0.07, 0.12, 0.1))  # no transition out of death


def test_probability_bounds_checked():
    with pytest.raises(ValueError):
        model(worsen=(0.02, 0.08, 1.07, 0.12, 0.0))
    with pytest.raises(ValueError):
        model(improve=(0.0, 0.6, 0.03, 0.0, 0.0), worsen=(0.02, 0.5, 0.07, 0.12, 0.0))
    with pytest.raises(ValueError):
        model(improve_decay=0.0)
    with pytest.raises(ValueError):
        model(improve_decay=1.5)
    with pytest.raises(ValueError):
        model(dropout_rate=-0.1)
    with pytest.raises(ValueError):
        model(horizon_months=0)


def test_trial_config_requires_even_positive_sample():
    with pytest.raises(ValueError):
        TrialConfig(sample_size=101, hazard_ratio=0.5, control_model=model(), seed=1)
    with pytest.raises(ValueError):
        TrialConfig(sample_size=0, hazard_ratio=0.5, control_model=model(), seed=1)
    with pytest.raises(ValueError):
        TrialConfig(sample_size=100, hazard_ratio=-0.5, control_model=model(), seed=1)


def test_json_round_trip():
    m = model(improve_decay=0.95, horizon_months=48, dropout_rate=0.08)
    again = TransitionModel.from_json_dict(m.to_json_dict())
    assert again == m
    with pytest.raises(ValueError):
        TransitionModel.from_json_dict({"improve_prob": {}})
    with pytest.raises(ValueError):
        TransitionModel.from_json_dict({**m.to_json_dict(), "bogus": 1})


# -------------------------------------------------- hazard-ratio transform


def test_hazard_ratio_halves_log_survival_fraction():
    """b' = 1 - (1 - b)^hr: for b = 0.05, hr = 0.5 this is 0.02532057...."""
    m = apply_hazard_ratio(model(worsen=(0.0, 0.0, 0.05, 0.0, 0.0)), 0.5)
    assert m.worsen_prob[SD] == pytest.approx(1.0 - 0.95**0.5, abs=TOL)
    assert m.worsen_prob[SD] == pytest.approx(0.025320565519104, abs=1e-12)


def test_hazard_ratio_identity_and_edges():
    base = model()
    assert apply_hazard_ratio(base, 1.0) == base
    doubled = apply_hazard_ratio(base, 2.0)
    for b, b2 in zip(base.worsen_prob, doubled.worsen_prob):
        assert b2 == pytest.approx(1.0 - (1.0 - b) ** 2, abs=TOL)
    assert apply_hazard_ratio(model(worsen=(1.0, 0.0, 0.0, 0.0, 0.0)), 0.5).worsen_prob[0] == 1.0
    with pytest.raises(ValueError):
        apply_hazard_ratio(base, 0.0)
    with pytest.raises(ValueError):
        apply_hazard_ratio(base, 1.0, improvement_hr=-1.0)


def test_hazard_ratio_leaves_improvements_alone_by_default():
    base = model()
    assert apply_hazard_ratio(base, 0.5).improve_prob == base.improve_prob
    treated = apply_hazard_ratio(base, 0.5, improvement_hr=2.0)
    assert treated.improve_prob[SD] == pytest.approx(1.0 - 0.97**2, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(
    b=st.floats(min_value=1e-6, max_value=0.99),
    hr=st.floats(min_value=0.05, max_value=3.0),
)
def test_hazard_ratio_is_exact_on_log_scale(b, hr):
    """log(1 - b') / log(1 - b) = hr. Tolerance reflects that 1 - b' is
    recovered from a float near 1, which caps relative accuracy around
    eps / (1 - b') -- at most ~2e-10 on this domain."""
    pure = TransitionModel(improve_prob=(0.0,) * 5, worsen_prob=(0.0, 0.0, b, 0.0, 0.0))
    m = apply_hazard_ratio(pure, hr)
    b_prime = m.worsen_prob[SD]
    assert log(1.0 - b_prime) / log(1.0 - b) == pytest.approx(hr, rel=1e-8)


# ----------------------------------------------------------- forced paths


def forced_trajectory(worsen_sd=1.0, worsen_pd=1.0, horizon=6):
    m = TransitionModel(
        improve_prob=(0.0,) * 5,
        worsen_prob=(0.0, 0.0, worsen_sd, worsen_pd, 0.0),
        horizon_months=horizon,
        dropout_rate=0.0,
    )
    return simulate_subject(m, Arm.CONTROL, 1.0, subject_rng(3, 0))


def test_certain_worsening_marches_to_death_and_stays():
    states, _ = forced_trajectory()
    assert states.tolist() == [2, 3, 4, 4, 4, 4, 4]


def test_zero_probabilities_stay_at_baseline():
    m = TransitionModel(improve_prob=(0.0,) * 5, worsen_prob=(0.0,) * 5, horizon_months=8, dropout_rate=0.0)
    states, _ = simulate_subject(m, Arm.CONTROL, 1.0, subject_rng(3, 0))
    assert states.tolist() == [2] * 9


def test_pd_without_death_is_not_absorbing_state_math():
    states, _ = forced_trajectory(worsen_pd=0.0)
    assert states.tolist() == [2, 3, 3, 3, 3, 3, 3]


def test_moves_are_single_level():
    m = model(improve=(0.0, 0.3, 0.3, 0.0, 0.0), worsen=(0.3, 0.3, 0.3, 0.3, 0.0), dropout_rate=0.0)
    trial = simulate_trial(TrialConfig(sample_size=200, hazard_ratio=0.7, control_model=m, seed=5))
    for states, last in zip(trial.states, trial.censor):
        diffs = np.diff(states[: last + 1].astype(int))
        assert set(diffs.tolist()) <= {-1, 0, 1}


# ------------------------------------------------------- geometric oracle


def test_progression_time_is_geometric():
    """With a single live transition SD -> PD at rate b, P(progressed by
    month m) = 1 - (1-b)^m; at b = 0.05, m = 60 that is 0.9539....
    """
    b = 0.05
    m = TransitionModel(
        improve_prob=(0.0,) * 5,
        worsen_prob=(0.0, 0.0, b, 0.0, 0.0),
        horizon_months=60,
        dropout_rate=0.0,
    )
    trial = simulate_trial(TrialConfig(sample_size=20_000, hazard_ratio=1.0, control_model=m, seed=17))
    states = trial.states
    progressed = (states >= PD).any(axis=1).mean()
    expected = 1.0 - (1.0 - b) ** 60
    assert progressed == pytest.approx(expected, abs=0.01)
    # month-by-month: first-passage times follow the geometric CDF
    first = np.argmax(states >= PD, axis=1).astype(float)
    first[~(states >= PD).any(axis=1)] = np.inf
    for month in (6, 12, 24, 48):
        assert (first <= month).mean() == pytest.approx(1.0 - (1.0 - b) ** month, abs=0.015)


def test_hazard_ratio_halves_cumulative_incidence_on_log_scale():
    b = 0.06
    m = TransitionModel(
        improve_prob=(0.0,) * 5,
        worsen_prob=(0.0, 0.0, b, 0.0, 0.0),
        horizon_months=40,
        dropout_rate=0.0,
    )
    trial = simulate_trial(TrialConfig(sample_size=40_000, hazard_ratio=0.5, control_model=m, seed=23))
    states, arms = trial.states, trial.arms
    progressed = (states >= PD).any(axis=1)
    control_rate = progressed[arms == 0].mean()
    experimental_rate = progressed[arms == 1].mean()
    # survival fractions obey S_e = S_c^hr
    assert log(1.0 - experimental_rate) / log(1.0 - control_rate) == pytest.approx(0.5, abs=0.03)


# ------------------------------------------- randomness contract / layout


def test_trial_is_deterministic():
    config = TrialConfig(sample_size=60, hazard_ratio=0.6, control_model=model(), seed=99)
    a = simulate_trial(config)
    b = simulate_trial(config)
    for name in ("states", "censor", "arms", "dropped"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_scalar_and_vectorized_paths_agree():
    """simulate_subject(subject_rng(seed, i)) reproduces simulate_trial row i."""
    m = model(improve_decay=0.9)
    config = TrialConfig(sample_size=30, hazard_ratio=0.5, control_model=m, seed=41)
    trial = simulate_trial(config)
    half = config.sample_size // 2
    for i in range(config.sample_size):
        arm = Arm.CONTROL if i < half else Arm.EXPERIMENTAL
        states, dropout = simulate_subject(m, arm, 0.5, subject_rng(41, i))
        last = int(trial.censor[i])
        assert np.array_equal(states, trial.states[i, : last + 1])
        assert (trial.states[i, last + 1 :] == -1).all()
        assert dropout == (last if trial.dropped[i] else None)


def test_subject_uniform_layout_is_fixed():
    """Every subject consumes horizon + 2 draws regardless of outcome."""
    blocks = subject_uniforms(7, 5, horizon=12)
    assert blocks.shape == (5, 14)
    for i in range(5):
        expected = subject_rng(7, i).random(14)
        assert np.array_equal(blocks[i], expected)


# -------------------------------- vectorized streams against the oracle

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
# empty, single, either side of one chunk, and several chunks with a ragged tail
SUBJECT_COUNTS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37)


def test_pcg64_uniforms_edge_seeds_at_every_width():
    seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
    for width in range(1, 71):
        got = pcg64_uniforms(seeds, width)
        for j, seed in enumerate(EDGE_SEEDS):
            assert np.array_equal(got[:, j], np.random.default_rng(seed).random(width)), (seed, width)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(SEEDS, max_size=40), width=st.integers(1, 70))
def test_pcg64_uniforms_match_default_rng(seeds, width):
    got = pcg64_uniforms(np.array(seeds, dtype=np.uint64), width)
    assert got.shape == (width, len(seeds)) and got.flags.c_contiguous
    for j, seed in enumerate(seeds):
        assert np.array_equal(got[:, j], np.random.default_rng(int(seed)).random(width))


@settings(max_examples=40, deadline=None)
@given(base_seed=SEEDS, n=st.sampled_from(SUBJECT_COUNTS), horizon=st.integers(0, 68))
def test_subject_uniforms_match_per_subject_generators(base_seed, n, horizon):
    blocks = subject_uniforms(base_seed, n, horizon)
    assert blocks.shape == (n, horizon + 2) and blocks.flags.f_contiguous
    for i in range(n):
        assert np.array_equal(blocks[i], subject_rng(base_seed, i).random(horizon + 2))


@settings(max_examples=30, deadline=None)
@given(
    seed=SEEDS,
    n=st.sampled_from(SUBJECT_COUNTS[1:]),
    sd_improve=st.floats(0.0, 0.4),
    pr_improve=st.floats(0.0, 0.4),
    decay=st.floats(0.5, 1.0),
)
def test_state_evolution_is_layout_independent(seed, n, sd_improve, pr_improve, decay):
    m = model(improve=(0.0, pr_improve, sd_improve, 0.0, 0.0), improve_decay=decay, horizon_months=24)
    monthly = subject_uniforms(seed, n, 24)[:, 2:]
    from_f = _simulate_state_matrix(m, np.asfortranarray(monthly))
    from_c = _simulate_state_matrix(m, np.ascontiguousarray(monthly))
    assert from_f.shape == (n, 25)
    assert np.array_equal(from_f, from_c)


def test_dropout_month_uses_second_draw():
    m = model(dropout_rate=1.0, horizon_months=10)
    config = TrialConfig(sample_size=4, hazard_ratio=1.0, control_model=m, seed=13)
    trial = simulate_trial(config)
    blocks = subject_uniforms(13, 4, horizon=10)
    assert trial.dropped.all()
    for i in range(4):
        assert trial.censor[i] == 1 + int(blocks[i, 1] * 10)
        assert (trial.states[i, : trial.censor[i] + 1] >= 0).all()
        assert (trial.states[i, trial.censor[i] + 1 :] == -1).all()


def test_arm_split_is_first_half_control():
    trial = simulate_trial(TrialConfig(sample_size=8, hazard_ratio=0.5, control_model=model(), seed=3))
    assert trial.arms.tolist() == [Arm.CONTROL] * 4 + [Arm.EXPERIMENTAL] * 4


def test_block_rows_equal_single_trials():
    """A block of trials is the trials simulated one at a time, row for row,
    down to the uniform streams; an odd sample size is refused either way."""
    m = model(dropout_rate=0.3, horizon_months=18)
    seeds = np.array([0, 7, 2**32, 2**64 - 1], dtype=np.uint64)
    block = simulate_block(m, 0.6, 10, seeds, improvement_hr=0.8)
    draws = subject_uniforms(seeds, 10, 18)
    assert block.states.shape == (4, 10, 19) and block.censor.shape == block.dropped.shape == (4, 10)
    for r, seed in enumerate(seeds):
        one = simulate_trial(TrialConfig(10, 0.6, m, int(seed), improvement_hr=0.8))
        assert np.array_equal(block.states[r], one.states)
        assert np.array_equal(block.censor[r], one.censor) and np.array_equal(block.dropped[r], one.dropped)
        assert np.array_equal(block.arms, one.arms)
        assert np.array_equal(draws[r], subject_uniforms(int(seed), 10, 18))
    with pytest.raises(ValueError, match="even"):
        simulate_block(m, 0.6, 9, seeds)


def test_seed_changes_trajectories():
    base = simulate_trial(TrialConfig(sample_size=40, hazard_ratio=1.0, control_model=model(), seed=1))
    other = simulate_trial(TrialConfig(sample_size=40, hazard_ratio=1.0, control_model=model(), seed=2))
    assert not np.array_equal(base.states, other.states)


# ------------------------------------------------------------------ misc


def test_trial_state_matrix_pads_with_minus_one():
    rows = [np.array([2, 3], dtype=np.int8), np.array([2, 2, 2, 2], dtype=np.int8)]
    states, censor = trial_state_matrix(rows)
    assert states.shape == (2, 4)
    assert states[0].tolist() == [2, 3, -1, -1]
    assert censor.tolist() == [1, 3]
    with pytest.raises(ValueError):
        trial_state_matrix([])


def test_state_constants():
    assert (CR, PR, SD, PD, DEATH) == (0, 1, 2, 3, 4)
