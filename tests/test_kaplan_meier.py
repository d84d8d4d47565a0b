"""Kaplan-Meier and logrank tests against hand-worked and enumerated oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cwtasim import (
    Arm,
    Endpoint,
    endpoint_arrays,
)
from cwtasim.statistics import endpoint_counts, monthly_terms, product_limit, result_from_terms, two_sided_p

from oracles import (
    Record,
    columns,
    exact_logrank_permutation_p,
    naive_endpoint,
    naive_km,
    naive_logrank_sums,
    norm_two_sided_p,
    trial_state_matrix,
)

TOL = 1e-12


def rec(time, event, arm=Arm.CONTROL):
    return Record(time=time, event=event, arm=arm)


def records_from(times, events, arms=None):
    arms = arms or [Arm.CONTROL] * len(times)
    return [rec(t, e, a) for t, e, a in zip(times, events, arms)]


def km(records):
    """(time, survival, at_risk, events) at each event month, all records as one group,
    by the route of count_tests: endpoint_counts, then product_limit."""
    times, events, arms = columns(records)
    _, (d,), _, _, _, (n,) = endpoint_counts(times, events, arms, int(times.max()), np.zeros_like(times))
    survival = product_limit(d, n)
    return [(int(t), float(survival[t]), int(n[t]), int(d[t])) for t in np.flatnonzero(d)]


def logrank(records):
    """The logrank test by the route of count_tests: endpoint_counts, monthly_terms, result_from_terms."""
    times, events, arms = columns(records)
    (ome,), (v,) = monthly_terms(*endpoint_counts(times, events, arms, int(times.max()), np.zeros_like(times)))
    return result_from_terms(ome, v)


# ---------------------------------------------------------------- KM fixtures


def assert_curve(records, expected):
    got = km(records)
    assert len(got) == len(expected)
    for (t, s, n, d), (t_e, s_e, n_e, d_e) in zip(got, expected):
        assert t == t_e and n == n_e and d == d_e
        assert s == pytest.approx(s_e, abs=TOL)
    oracle = naive_km(records)
    assert len(oracle) == len(got)
    for (t, s, n, d), (t_o, s_o, n_o, d_o) in zip(got, oracle):
        assert t == t_o and n == n_o and d == d_o
        assert s == pytest.approx(s_o, abs=TOL)


def test_km_mixed_events_and_censoring():
    records = records_from([1, 2, 2, 3, 4, 5], [True, True, True, True, False, True])
    assert_curve(
        records,
        [(1, 5 / 6, 6, 1), (2, 1 / 2, 5, 2), (3, 1 / 3, 3, 1), (5, 0.0, 1, 1)],
    )


def test_km_censor_tied_at_event_time_stays_at_risk():
    records = records_from([2, 2, 2, 3], [True, False, True, True])
    assert_curve(records, [(2, 1 / 2, 4, 2), (3, 0.0, 1, 1)])


def test_km_all_censored_has_no_steps():
    assert km(records_from([1, 2, 3], [False, False, False])) == []


def test_km_single_event():
    assert_curve(records_from([1], [True]), [(1, 0.0, 1, 1)])


def test_km_censor_after_last_event():
    assert_curve(records_from([1, 3], [True, False]), [(1, 1 / 2, 2, 1)])


def test_km_interleaved_ties():
    records = records_from(
        [1, 1, 2, 2, 3, 4, 4, 6],
        [True, False, True, True, False, True, True, False],
    )
    assert_curve(records, [(1, 7 / 8, 8, 1), (2, 7 / 12, 6, 2), (4, 7 / 36, 3, 2)])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=30), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_km_matches_oracle_on_random_data(raw):
    records = records_from([t for t, _ in raw], [e for _, e in raw])
    curve = km(records)
    oracle = naive_km(records)
    assert len(curve) == len(oracle)
    last = 1.0
    for (time, survival, at_risk, events), (t, s, n, d) in zip(curve, oracle):
        assert (time, at_risk, events) == (t, n, d)
        assert survival == s  # bit for bit: curve CSVs depend on it
        assert 0.0 <= survival <= last + TOL
        last = survival


# ------------------------------------------------------------------- logrank


def test_logrank_four_subject_hand_fixture():
    records = [
        rec(1, True, Arm.CONTROL),
        rec(2, True, Arm.CONTROL),
        rec(3, True, Arm.EXPERIMENTAL),
        rec(4, True, Arm.EXPERIMENTAL),
    ]
    result = logrank(records)
    assert result.observed_minus_expected == pytest.approx(7 / 6, abs=TOL)
    assert result.variance == pytest.approx(17 / 36, abs=TOL)
    z = (7 / 6) / np.sqrt(17 / 36)
    assert result.z == pytest.approx(z, abs=TOL)
    assert result.statistic == pytest.approx(z * z, abs=TOL)
    assert result.p_value == pytest.approx(norm_two_sided_p(z), abs=1e-9)
    assert result.z > 0  # control failed earlier: positive favours experimental


@pytest.mark.parametrize("z", [0.0, 1e-300, 1.96, 8.0, 38.0, 40.0, np.inf, -1.96, -40.0, -np.inf])
def test_p_value_equals_norm_sf_bit_for_bit(z):
    """result_from_terms and the monthly scans share two_sided_p = 2 * ndtr(-|z|);
    it must equal 2 * norm.sf(|z|) exactly, into the subnormal tail and at +-inf."""
    expected = 2.0 * float(stats.norm.sf(abs(z)))
    assert float(two_sided_p(z)).hex() == expected.hex()
    result = result_from_terms(np.array([z]), np.array([1.0]))
    assert result.p_value.hex() == expected.hex()
    scan_p = two_sided_p(np.array([z, -z]))
    assert [float(p).hex() for p in scan_p] == [expected.hex()] * 2


def test_logrank_single_event_fixture():
    records = [rec(1, True, Arm.CONTROL), rec(1, False, Arm.EXPERIMENTAL)]
    result = logrank(records)
    assert result.observed_minus_expected == pytest.approx(0.5, abs=TOL)
    assert result.variance == pytest.approx(0.25, abs=TOL)
    assert result.z == pytest.approx(1.0, abs=TOL)
    assert result.p_value == pytest.approx(0.317310507863, abs=1e-9)


def test_logrank_degenerate_no_events():
    records = [rec(2, False, Arm.CONTROL), rec(3, False, Arm.EXPERIMENTAL)]
    assert logrank(records) is None


def test_logrank_degenerate_one_sided_risk_sets():
    records = [rec(1, False, Arm.CONTROL), rec(2, True, Arm.EXPERIMENTAL)]
    assert logrank(records) is None


def random_two_arm_records(rng, n):
    times = rng.integers(1, 9, size=n)
    events = rng.random(n) < 0.75
    arms = [Arm.CONTROL] * (n // 2) + [Arm.EXPERIMENTAL] * (n - n // 2)
    return records_from(times.tolist(), events.tolist(), arms)


def test_logrank_matches_naive_sums_on_random_data():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 40))
        records = random_two_arm_records(rng, n)
        o_minus_e, variance = naive_logrank_sums(records)
        if variance <= 0.0 or not any(r.event for r in records):
            continue
        result = logrank(records)
        assert result.observed_minus_expected == pytest.approx(o_minus_e, abs=TOL)
        assert result.variance == pytest.approx(variance, abs=TOL)
        checked += 1


def test_logrank_normal_p_close_to_exact_permutation_p():
    """On small fixtures the normal p must track the exact permutation p.

    Fixtures are seeded and filtered to at least four events so the
    permutation distribution is informative; single-event tables are
    grossly non-normal and out of scope for the approximation. Fixtures
    whose exact p exceeds 0.9 are likewise excluded: the two-sided
    permutation distribution has a large discrete atom at the top of the
    scale (every labeling can tie or beat a near-zero |z|), so no normal
    approximation bound holds there and no decision ever depends on it.
    """
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 8:
        n = int(rng.choice([8, 10, 12]))
        records = random_two_arm_records(rng, n)
        if sum(r.event for r in records) < 4:
            continue
        o_minus_e, variance = naive_logrank_sums(records)
        if variance <= 0.0:
            continue
        p_exact = exact_logrank_permutation_p(records)
        if p_exact > 0.9:
            continue
        p_normal = logrank(records).p_value
        assert abs(p_normal - p_exact) < 0.08
        checked += 1


# ------------------------------------------------------- endpoint derivation


def endpoint(states, kind):
    """(time, event) of one subject through the padded-matrix path."""
    packed, censor = trial_state_matrix([np.array(states, dtype=np.int8)])
    times, events = endpoint_arrays(packed, censor, kind)
    return int(times[0]), bool(events[0])


def test_derive_endpoint_progression_and_death():
    assert endpoint([2, 2, 3, 4], Endpoint.PFS) == (2, True)
    assert endpoint([2, 2, 3, 4], Endpoint.OS) == (3, True)


def test_derive_endpoint_censored_responder():
    for kind in (Endpoint.PFS, Endpoint.OS):
        assert endpoint([2, 1, 1], kind) == (2, False)


def test_endpoint_arrays_match_scalar_derivation():
    rng = np.random.default_rng(11)
    walks = []
    for _ in range(60):
        length = int(rng.integers(2, 12))
        walk = [2]
        for _ in range(length - 1):
            step = int(rng.choice([-1, 0, 1], p=[0.2, 0.5, 0.3]))
            nxt = min(4, max(0, walk[-1] + step))
            if walk[-1] == 4:
                nxt = 4
            elif walk[-1] == 3:
                nxt = min(4, max(3, nxt))
            walk.append(nxt)
        rng.random()  # the fixture's arm draw, kept so later walks stay the same
        walks.append(walk)
    states, censor = trial_state_matrix([np.array(w, dtype=np.int8) for w in walks])
    for kind in (Endpoint.PFS, Endpoint.OS):
        times, events = endpoint_arrays(states, censor, kind)
        for i, walk in enumerate(walks):
            assert naive_endpoint(walk, kind) == (int(times[i]), bool(events[i]))
