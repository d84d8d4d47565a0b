"""Simulation-core tests: model validation, hazard-ratio transform, and
the randomness contract (fixed draw layout, scalar == vectorized)."""

from __future__ import annotations

from dataclasses import replace
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
    apply_hazard_ratio,
    load_profile,
    simulate_trial,
)
from cwtasim.seeds import CHUNK, LANES, pcg64_uniforms
from cwtasim.trajectories import (
    MAX_DRAWS,
    _simulate_state_matrix,
    simulate_trials,
    trial_uniforms,
)
from oracles import simulate_subject, subject_rng, trial_state_matrix

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
    with pytest.raises(ValueError, match="horizon_months must lie in 1..1200"):
        model(horizon_months=1201)
    with pytest.raises(ValueError, match=r"^improve_prob must list one probability per state \(got 4\)$"):
        model(improve=(0.0, 0.05, 0.03, 0.0))


@pytest.mark.parametrize(
    "sample_size, hazard_ratio, improvement_hr, message",
    [
        (101, 0.5, None, "^sample_size must be an even integer >= 2 for 1:1 allocation, got 101$"),
        (0, 0.5, None, "^sample_size must be an even integer >= 2 for 1:1 allocation, got 0$"),
        (100, -0.5, None, "^hazard ratio must be positive, got -0.5$"),
        (100, float("nan"), None, "^hazard ratio must be positive, got nan$"),
        (100, 0.5, 0.0, "^improvement hazard ratio must be positive, got 0.0$"),
    ],
    ids=["odd n", "n 0", "hr -0.5", "hr nan", "improvement_hr 0"],
)
def test_simulate_trial_requires_even_positive_sample_and_positive_ratios(
    sample_size, hazard_ratio, improvement_hr, message
):
    with pytest.raises(ValueError, match=message):
        simulate_trial(model(), hazard_ratio, sample_size, 1, improvement_hr)


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
    trial = simulate_trial(m, 0.7, 200, 5)
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
    trial = simulate_trial(m, 1.0, 20_000, 17)
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
    trial = simulate_trial(m, 0.5, 40_000, 23)
    states, arms = trial.states, trial.arms
    progressed = (states >= PD).any(axis=1)
    control_rate = progressed[arms == 0].mean()
    experimental_rate = progressed[arms == 1].mean()
    # survival fractions obey S_e = S_c^hr
    assert log(1.0 - experimental_rate) / log(1.0 - control_rate) == pytest.approx(0.5, abs=0.03)


# ------------------------------------------- randomness contract / layout


def test_trial_is_deterministic():
    a = simulate_trial(model(), 0.6, 60, 99)
    b = simulate_trial(model(), 0.6, 60, 99)
    for name in ("states", "censor", "arms", "dropped"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_scalar_and_vectorized_paths_agree():
    """simulate_subject(subject_rng(seed, i)) reproduces simulate_trial row i."""
    m = model(improve_decay=0.9)
    trial = simulate_trial(m, 0.5, 30, 41)
    for i in range(30):
        arm = Arm.CONTROL if i < 15 else Arm.EXPERIMENTAL
        states, dropout = simulate_subject(m, arm, 0.5, subject_rng(41, i))
        last = int(trial.censor[i])
        assert np.array_equal(states, trial.states[i, : last + 1])
        assert (trial.states[i, last + 1 :] == -1).all()
        assert dropout == (last if trial.dropped[i] else None)


def test_subject_uniform_layout_is_fixed():
    """Every subject consumes horizon + 2 draws regardless of outcome."""
    blocks = trial_uniforms(7, (5,), 12)
    assert blocks.shape == (5, 14)
    for i in range(5):
        expected = subject_rng(7, i).random(14)
        assert np.array_equal(blocks[i], expected)


def test_trial_uniforms_counts_every_trial_of_a_block_against_the_cap():
    """Each trial alone would fit; the block of three would not, so nothing is drawn."""
    assert 2**20 * 64 <= MAX_DRAWS < 3 * 2**20 * 64
    with pytest.raises(ValueError, match="sample size 1048576 at a 62-month horizon needs 201326592"):
        trial_uniforms(np.zeros(3, dtype=np.uint64), [2**20] * 3, 62)


# -------------------------------- vectorized streams against the oracle

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
# empty, single, either side of one chunk, and several chunks with a ragged tail
SUBJECT_COUNTS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37)
# widths inside, at and past one and two rounds of LANES draws, and past a 60-month block's 62
MAX_WIDTH = max(70, 2 * LANES + 1)


def test_pcg64_uniforms_edge_seeds_at_every_width():
    seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
    for width in range(1, MAX_WIDTH + 1):
        got = pcg64_uniforms(seeds, width)
        for j, seed in enumerate(EDGE_SEEDS):
            assert np.array_equal(got[:, j], np.random.default_rng(seed).random(width)), (seed, width)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(SEEDS, max_size=40), width=st.integers(1, MAX_WIDTH))
def test_pcg64_uniforms_match_default_rng(seeds, width):
    got = pcg64_uniforms(np.array(seeds, dtype=np.uint64), width)
    assert got.shape == (width, len(seeds)) and got.flags.c_contiguous
    for j, seed in enumerate(seeds):
        assert np.array_equal(got[:, j], np.random.default_rng(int(seed)).random(width))


@settings(max_examples=40, deadline=None)
@given(base_seed=SEEDS, n=st.sampled_from(SUBJECT_COUNTS), horizon=st.integers(0, 68))
def test_trial_uniforms_match_per_subject_generators(base_seed, n, horizon):
    blocks = trial_uniforms(base_seed, (n,), horizon)
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
    monthly = trial_uniforms(seed, (n,), 24)[:, 2:]
    from_f = _simulate_state_matrix((m,), np.asfortranarray(monthly))
    from_c = _simulate_state_matrix((m,), np.ascontiguousarray(monthly))
    assert from_f.shape == (n, 25)
    assert np.array_equal(from_f, from_c)


@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from(("moderate", "high")),
    hr=st.floats(0.5, 1.0),
    improvement_hr=st.one_of(st.none(), st.floats(0.5, 2.0)),
    decay=st.floats(0.5, 1.0),
    replicates=st.sampled_from((1, 3)),
    half=st.integers(1, 8),
    seed=SEEDS,
)
def test_block_rows_match_per_subject_oracle(profile, hr, improvement_hr, decay, replicates, half, seed):
    """Both arms of a block, evolved in one pass, are the per-subject rule row by row.

    A drawn improvement_hr is the one case where the stacked arm tables
    also differ in their improvement probabilities."""
    m = replace(load_profile(profile), improve_decay=decay)
    seeds = np.array([seed ^ r for r in range(replicates)], dtype=np.uint64)
    block = simulate_trials(m, ((hr, 2 * half, seeds),), improvement_hr)
    assert block.starts.tolist() == [2 * half * r for r in range(replicates)]
    for r, trial_seed in enumerate(seeds.tolist()):
        for i in range(2 * half):
            arm = Arm.CONTROL if i < half else Arm.EXPERIMENTAL
            states, dropout = simulate_subject(m, arm, hr, subject_rng(trial_seed, i), improvement_hr)
            row = block.starts[r] + i
            last = int(block.censor[row])
            assert np.array_equal(block.states[row, : last + 1], states), (r, i)
            assert (block.states[row, last + 1 :] == -1).all()
            assert dropout == (last if block.dropped[row] else None)


@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from(("moderate", "high")),
    hrs=st.lists(st.floats(0.3, 1.5), min_size=1, max_size=4),
    improvement_hr=st.one_of(st.none(), st.floats(0.5, 2.0)),
    designs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6), st.integers(1, 3)), min_size=1, max_size=6),
    seed=SEEDS,
)
def test_trials_of_several_designs_match_per_subject_oracle(profile, hrs, improvement_hr, designs, seed):
    """One block of several hazard ratios and sample sizes, evolved in one
    kernel pass from stacked per-(HR, arm) tables, is the per-subject rule
    row by row, trial by trial; a drawn improvement_hr also makes the
    experimental tables differ in their improvement probabilities."""
    m = load_profile(profile)
    runs = [(hrs[k % len(hrs)], 2 * half, [seed ^ (7 * j + k) for j in range(count)]) for k, half, count in designs]
    block = simulate_trials(m, [(hr, n, np.array(seeds, dtype=np.uint64)) for hr, n, seeds in runs], improvement_hr)
    trials = [(hr, n, s) for hr, n, seeds in runs for s in seeds]
    assert block.starts.tolist() == np.cumsum([0] + [n for _, n, _ in trials])[:-1].tolist()
    for (hr, n, trial_seed), start in zip(trials, block.starts):
        for i in range(n):
            arm = Arm.CONTROL if i < n // 2 else Arm.EXPERIMENTAL
            states, dropout = simulate_subject(m, arm, hr, subject_rng(trial_seed, i), improvement_hr)
            row = start + i
            last = int(block.censor[row])
            assert block.arms[row] == arm
            assert np.array_equal(block.states[row, : last + 1], states), (hr, n, trial_seed, i)
            assert (block.states[row, last + 1 :] == -1).all()
            assert dropout == (last if block.dropped[row] else None)


def test_many_hazard_ratios_in_one_block_match_single_trials():
    """30 hazard ratios stack 31 tables, more state offsets than int8 holds:
    every trial still equals its one-trial simulation."""
    m = load_profile("moderate")
    hrs = [0.4 + 0.02 * k for k in range(30)]
    block = simulate_trials(m, [(hr, 4, np.array([k, k + 100], dtype=np.uint64)) for k, hr in enumerate(hrs)])
    assert block.states.dtype == np.int8 and len(block.starts) == 60
    for t, start in enumerate(block.starts):
        hr, seed = hrs[t // 2], t // 2 + 100 * (t % 2)
        one = simulate_trial(m, hr, 4, seed)
        assert np.array_equal(block.states[start : start + 4], one.states), t
        assert np.array_equal(block.censor[start : start + 4], one.censor)


def test_dropout_month_uses_second_draw():
    m = model(dropout_rate=1.0, horizon_months=10)
    trial = simulate_trial(m, 1.0, 4, 13)
    blocks = trial_uniforms(13, (4,), 10)
    assert trial.dropped.all()
    for i in range(4):
        assert trial.censor[i] == 1 + int(blocks[i, 1] * 10)
        assert (trial.states[i, : trial.censor[i] + 1] >= 0).all()
        assert (trial.states[i, trial.censor[i] + 1 :] == -1).all()


def test_arm_split_is_first_half_control():
    trial = simulate_trial(model(), 0.5, 8, 3)
    assert trial.arms.tolist() == [Arm.CONTROL] * 4 + [Arm.EXPERIMENTAL] * 4
    assert trial.starts.tolist() == [0]  # a single trial is a one-trial block


def test_block_rows_equal_single_trials():
    """A block of trials is the trials simulated one at a time, row for row,
    down to the uniform streams; an odd sample size is refused either way."""
    m = model(dropout_rate=0.3, horizon_months=18)
    seeds = np.array([0, 7, 2**32, 2**64 - 1], dtype=np.uint64)
    block = simulate_trials(m, ((0.6, 10, seeds),), improvement_hr=0.8)
    draws = trial_uniforms(seeds, [10] * 4, 18)
    assert block.states.shape == (40, 19) and block.censor.shape == block.dropped.shape == (40,)
    assert block.starts.tolist() == [0, 10, 20, 30]
    for r, seed in enumerate(seeds):
        one = simulate_trial(m, 0.6, 10, int(seed), improvement_hr=0.8)
        rows = slice(10 * r, 10 * r + 10)
        assert np.array_equal(block.states[rows], one.states)
        assert np.array_equal(block.censor[rows], one.censor) and np.array_equal(block.dropped[rows], one.dropped)
        assert np.array_equal(block.arms[rows], one.arms)
        assert np.array_equal(draws[rows], trial_uniforms(int(seed), (10,), 18))
    with pytest.raises(ValueError, match="even"):
        simulate_trials(m, ((0.6, 9, seeds),))


def test_seed_changes_trajectories():
    base = simulate_trial(model(), 1.0, 40, 1)
    other = simulate_trial(model(), 1.0, 40, 2)
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
