"""Weighted trajectory test against enumerated and hand-worked oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwtasim import (
    Arm,
    Trial,
    arm_counts,
    load_profile,
    monthly_counts,
    simulate_trial,
)
from cwtasim.statistics import monthly_terms, product_limit, result_from_terms
from cwtasim.trajectories import simulate_trials

from oracles import (
    Record,
    WeightedEvent,
    event_sums_from,
    exact_label_moments,
    extract_weighted_events,
    naive_logrank_sums,
    naive_weighted_sums,
    norm_two_sided_p,
    trial_state_matrix,
)

TOL = 1e-12


def ev(month, subject, arm, weight):
    return WeightedEvent(month=month, subject=subject, arm=arm, weight=weight)


def cwta_test(sums):
    """The CWTA test of an event table, as count_tests takes it from a trial's counts."""
    return result_from_terms(*monthly_terms(*sums.counts()))


def trial(*subjects):
    """Trial from (observed states, arm) pairs, as the CSV reader packs one."""
    states, censor = trial_state_matrix([np.array(s, dtype=np.int8) for s, _ in subjects])
    arms = np.array([a for _, a in subjects], dtype=np.int8)
    return Trial(states=states, censor=censor, arms=arms, dropped=np.zeros(len(subjects), dtype=bool))


# ----------------------------------------------------------- hand fixtures


def test_single_event_table_hand_fixture():
    """One control worsening of one level among two subjects at risk.

    W = 0.25, Q = 0.0625, p = 1/2: E1 = 0.125 and
    V = (1/2)(1/2)(2 * 0.0625 - 0.0625) / 1 = 0.015625, so z = 1.
    """
    sums = event_sums_from(
        [ev(1, 0, Arm.CONTROL, 0.25)],
        [[1, 1], [1, 1]],
        horizon=1,
    )
    result = cwta_test(sums)
    assert result.observed_minus_expected == pytest.approx(0.125, abs=TOL)
    assert result.variance == pytest.approx(0.015625, abs=TOL)
    assert result.z == pytest.approx(1.0, abs=TOL)
    assert result.p_value == pytest.approx(0.317310507863, abs=1e-9)


def test_weighted_terms_match_naive_on_mixed_table():
    events = [
        ev(1, 0, Arm.CONTROL, 0.25),
        ev(1, 2, Arm.EXPERIMENTAL, -0.25),
        ev(2, 1, Arm.CONTROL, 0.25),
        ev(2, 3, Arm.EXPERIMENTAL, 0.25),
        ev(3, 0, Arm.CONTROL, 0.5),
    ]
    at_risk = [[2, 2, 2, 1], [2, 2, 2, 2]]
    got = cwta_test(event_sums_from(events, at_risk, horizon=3))
    o_minus_e, variance = naive_weighted_sums(
        [e.month for e in events],
        [e.arm for e in events],
        [e.weight for e in events],
        at_risk,
    )
    assert got.observed_minus_expected == pytest.approx(o_minus_e, abs=TOL)
    assert got.variance == pytest.approx(variance, abs=TOL)


def test_monthly_moments_match_exact_label_enumeration():
    """E1_j and V_j equal the exact moments of O1_j over arm labelings.

    Six subjects all at risk in one month, three labeled control. The
    formula's mean W*p and variance p(1-p)(nQ - W^2)/(n-1) must match
    brute-force enumeration of all C(6, 3) labelings to machine precision.
    """
    weights = [0.25, -0.25, 0.5, 0.0, 0.25, 0.0]
    mean_exact, var_exact = exact_label_moments(weights, n_control=3)
    events = [
        ev(1, i, Arm.CONTROL if i < 3 else Arm.EXPERIMENTAL, w)
        for i, w in enumerate(weights)
        if w != 0.0
    ]
    ome, v = monthly_terms(*event_sums_from(events, [[3, 3], [3, 3]], horizon=1).counts())
    observed = sum(e.weight for e in events if e.arm == Arm.CONTROL)
    assert observed - ome[0] == pytest.approx(mean_exact, abs=TOL)
    assert v[0] == pytest.approx(var_exact, abs=TOL)


def test_exact_moments_hold_for_unbalanced_arms():
    weights = [0.25, 0.25, -0.5, 0.75, 0.0]
    mean_exact, var_exact = exact_label_moments(weights, n_control=2)
    events = [
        ev(1, i, Arm.CONTROL if i < 2 else Arm.EXPERIMENTAL, w)
        for i, w in enumerate(weights)
        if w != 0.0
    ]
    ome, v = monthly_terms(*event_sums_from(events, [[2, 2], [3, 3]], horizon=1).counts())
    observed = sum(e.weight for e in events if e.arm == Arm.CONTROL)
    assert observed - ome[0] == pytest.approx(mean_exact, abs=TOL)
    assert v[0] == pytest.approx(var_exact, abs=TOL)


def test_degenerate_no_events():
    sums = event_sums_from([], [[2, 2], [2, 2]], horizon=1)
    assert cwta_test(sums) is None


def test_degenerate_one_sided_risk_set():
    sums = event_sums_from([ev(2, 0, Arm.CONTROL, 0.25)], [[1, 1, 1], [1, 0, 0]], horizon=2)
    assert cwta_test(sums) is None


def test_requires_both_arms_populated():
    """With one arm empty every risk set is one-sided, so the variance is zero."""
    sums = event_sums_from([ev(1, 0, Arm.CONTROL, 0.25)], [[1, 1], [0, 0]], horizon=1)
    assert cwta_test(sums) is None


def test_event_validation():
    both = [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        event_sums_from([ev(0, 0, Arm.CONTROL, 0.25)], both, horizon=1)  # month must be >= 1
    with pytest.raises(ValueError):
        event_sums_from([ev(2, 0, Arm.CONTROL, 0.25)], both, horizon=1)  # beyond the horizon
    with pytest.raises(ValueError):
        event_sums_from([ev(1, 0, Arm.CONTROL, 0.0)], both, horizon=1)  # zero weight is not an event
    with pytest.raises(ValueError):
        event_sums_from([ev(1, 0, Arm.CONTROL, 1.25)], both, horizon=1)  # beyond the ordinal span
    with pytest.raises(ValueError):
        event_sums_from(
            [ev(1, 0, Arm.CONTROL, 0.25), ev(1, 0, Arm.CONTROL, 0.25)],
            both,
            horizon=1,
        )  # one event per subject-month
    with pytest.raises(ValueError):
        event_sums_from([ev(1, 0, Arm.CONTROL, 0.25)], [[1, 0], [1, 1]], horizon=1)
    for at_risk in ([[1, 1]], [[1, 2], [1, 1]], [[1, 1], [-1, -1]]):  # shape, rising, negative
        with pytest.raises(ValueError):
            event_sums_from([], at_risk, horizon=1)


# --------------------------------------------- reduction to plain logrank


def km_records_as_event_sums(records):
    """Unit-weight event sums equivalent to a list of time-to-event records."""
    events = [
        ev(r.time, i, r.arm, 1.0) for i, r in enumerate(records) if r.event
    ]
    horizon = max(r.time for r in records)
    at_risk = np.zeros((2, horizon + 1), dtype=np.int64)
    for r in records:
        at_risk[int(r.arm), : r.time + 1] += 1
    return event_sums_from(events, at_risk, horizon)


def test_unit_weights_reduce_to_logrank_on_random_datasets():
    """With every weight 1 the weighted test IS the logrank test.

    nQ - W^2 = d(n - d) when all monthly weights are 1, so O - E, V, z
    and p must agree to 1e-12 with the per-event-time logrank sums of
    oracles.naive_logrank_sums across random two-arm datasets.
    """
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(6, 40))
        times = rng.integers(1, 13, size=n)
        has_event = rng.random(n) < 0.7
        arms = [Arm.CONTROL] * (n // 2) + [Arm.EXPERIMENTAL] * (n - n // 2)
        records = [
            Record(time=int(t), event=bool(e), arm=a)
            for t, e, a in zip(times, has_event, arms)
        ]
        o_minus_e, variance = naive_logrank_sums(records)
        if variance <= 0.0:
            continue
        z = o_minus_e / np.sqrt(variance)
        weighted_result = cwta_test(km_records_as_event_sums(records))
        assert weighted_result.observed_minus_expected == pytest.approx(o_minus_e, abs=TOL)
        assert weighted_result.variance == pytest.approx(variance, abs=TOL)
        assert weighted_result.z == pytest.approx(z, abs=TOL)
        assert weighted_result.p_value == pytest.approx(norm_two_sided_p(z), abs=TOL)
        checked += 1
    assert checked == 100


# ------------------------------------------------------- event extraction


def test_extract_events_from_worsening_trajectory():
    events, at_risk = extract_weighted_events(trial(([2, 3, 4], Arm.CONTROL), ([2, 2, 2], Arm.EXPERIMENTAL)))
    assert len(events) == 2
    first, second = events
    assert (first.month, first.weight) == (1, 0.25)
    assert (second.month, second.weight) == (2, 0.25)
    # the dying subject stays at risk through its death month
    assert at_risk[int(Arm.CONTROL)].tolist() == [1, 1, 1]
    assert at_risk[int(Arm.EXPERIMENTAL)].tolist() == [1, 1, 1]


def test_extract_events_improvement_and_relapse():
    events, _ = extract_weighted_events(trial(([2, 1, 1, 2], Arm.CONTROL), ([2, 2, 2, 2], Arm.EXPERIMENTAL)))
    weights = [(e.month, e.weight) for e in events]
    assert weights == [(1, -0.25), (3, 0.25)]


def test_extract_events_censoring_truncates_observation():
    # dropout at month 2: the month-3 move is never observed
    events, at_risk = extract_weighted_events(trial(([2, 2, 3], Arm.CONTROL), ([2, 2, 2, 2], Arm.EXPERIMENTAL)))
    assert [(e.month, e.weight) for e in events] == [(2, 0.25)]
    assert at_risk[int(Arm.CONTROL)].tolist() == [1, 1, 1, 0]


@pytest.mark.parametrize("profile", ["moderate", "high"])
def test_monthly_counts_equal_event_table_sums(profile):
    """monthly_counts' CWTA counts equal those of the per-event extraction's
    bincounts bit for bit, for one trial and for every row of a block."""
    def row(counts, r):
        return [x if np.isscalar(x) else x[r] for x in counts]

    model = load_profile(profile)
    seeds = np.array([0, 9, 2**64 - 1], dtype=np.uint64)
    block = monthly_counts(simulate_trials(model, ((0.6, 40, seeds),)))["CWTA"]
    for r, seed in enumerate(seeds):
        one = simulate_trial(model, 0.6, 40, int(seed))
        expected = event_sums_from(*extract_weighted_events(one), one.horizon).counts()
        for got in (row(monthly_counts(one)["CWTA"], 0), row(block, r)):
            for a, b in zip(got, expected):
                assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)
    with pytest.raises(ValueError):  # the counts of a block of several trials are not one trial's
        arm_counts(block)
    # a dropout, an improvement and a relapse before censoring
    handmade = trial(([2, 1, 2, 3], Arm.CONTROL), ([2, 3, 4], Arm.EXPERIMENTAL), ([2, 2], Arm.CONTROL))
    expected = event_sums_from(*extract_weighted_events(handmade), handmade.horizon).counts()
    for a, b in zip(row(monthly_counts(handmade)["CWTA"], 0), expected):
        assert np.array_equal(a, b)
    # more than 2**15 subjects, half in control, all worsening in month 1: the
    # per-month sums overflow an int16 accumulator
    n = 2**15 + 2
    big = Trial(
        states=np.tile(np.array([2, 3], dtype=np.int8), (n, 1)),
        censor=np.ones(n, dtype=np.int64),
        arms=np.arange(n, dtype=np.int8) % 2,
        dropped=np.zeros(n, dtype=bool),
    )
    o1, w, a, b, n1, at_risk = row(monthly_counts(big)["CWTA"], 0)
    assert o1.tolist() == [0.0, n / 8] and w.tolist() == [0.0, n / 4] and a == 1.0
    assert b.tolist() == [0.0, n * (n / 16) - (n / 4) ** 2] == [0.0, 0.0]  # n * Q - W**2, Q = n / 16
    assert n1.tolist() == [n / 2, n / 2] and at_risk.tolist() == [n, n]


# ------------------------------------------------------------------ curve


def test_cwta_curve_hand_values():
    """Four control subjects, one one-level worsening in month 1.

    value(1) = 1 - 0.25/4 = 0.9375; an experimental improvement in month 2
    lifts that arm's curve to 1 - (-0.25)/4 = 1.0625.
    """
    events = [ev(1, 0, Arm.CONTROL, 0.25), ev(2, 4, Arm.EXPERIMENTAL, -0.25)]
    at_risk = [[4, 4, 4], [4, 4, 4]]
    counts = event_sums_from(events, at_risk, horizon=2).counts()
    arms = arm_counts([np.expand_dims(x, 0) for x in counts])  # as a one-trial block
    assert product_limit(*arms[Arm.CONTROL]).tolist() == pytest.approx([1.0, 0.9375, 0.9375], abs=TOL)
    assert product_limit(*arms[Arm.EXPERIMENTAL]).tolist() == pytest.approx([1.0, 1.0, 1.0625], abs=TOL)
    assert arms[Arm.CONTROL][1][1] == arms[Arm.EXPERIMENTAL][1][1] == 4


# -------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),  # month
            st.sampled_from([-0.5, -0.25, 0.25, 0.5, 1.0]),
            st.booleans(),  # control?
        ),
        min_size=1,
        max_size=12,
    )
)
def test_weighted_statistic_matches_naive_on_generated_tables(raw):
    horizon = 6
    events = []
    for i, (month, weight, is_control) in enumerate(raw):
        arm = Arm.CONTROL if is_control else Arm.EXPERIMENTAL
        events.append(ev(month, i, arm, weight))
    at_risk = [[len(raw)] * (horizon + 1), [len(raw)] * (horizon + 1)]
    ome, v = monthly_terms(*event_sums_from(events, at_risk, horizon).counts())
    o_naive, v_naive = naive_weighted_sums(
        [e.month for e in events],
        [e.arm for e in events],
        [e.weight for e in events],
        at_risk,
    )
    assert float(ome.sum()) == pytest.approx(o_naive, abs=TOL)
    assert float(v.sum()) == pytest.approx(v_naive, abs=TOL)


def test_swapping_arm_labels_flips_the_sign():
    events = [
        ev(1, 0, Arm.CONTROL, 0.25),
        ev(2, 1, Arm.CONTROL, 0.5),
        ev(2, 2, Arm.EXPERIMENTAL, 0.25),
        ev(3, 3, Arm.EXPERIMENTAL, -0.25),
    ]
    at_risk = [[3, 3, 3, 3], [3, 3, 3, 3]]
    flipped = [
        ev(e.month, e.subject, Arm.EXPERIMENTAL if e.arm == Arm.CONTROL else Arm.CONTROL, e.weight)
        for e in events
    ]
    a = cwta_test(event_sums_from(events, at_risk, horizon=3))
    b = cwta_test(event_sums_from(flipped, at_risk, horizon=3))
    assert a.z == pytest.approx(-b.z, abs=TOL)
    assert a.p_value == pytest.approx(b.p_value, abs=TOL)
    assert a.variance == pytest.approx(b.variance, abs=TOL)
