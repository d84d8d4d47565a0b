"""Calibration search tests."""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from cwtasim import calibration, mix64, seeds
from cwtasim.calibration import (
    CALIBRATION_SEED,
    DEFAULT_TEMPLATE,
    CalibrationError,
    CalibrationTarget,
    _critical_probabilities,
    calibrate_transition_model,
    control_response_rates,
)
from cwtasim.serialize import load_profile
from cwtasim.trajectories import CR, PR, SD, Arm, TransitionModel
from oracles import critical_improvement, exact_response_rates, simulate_subject, subject_rng

TEMPLATE = TransitionModel(
    improve_prob=(0.0, 0.0, 0.0, 0.0, 0.0),
    worsen_prob=(0.03, 0.1, 0.06, 0.12, 0.0),
    improve_decay=0.95,
    horizon_months=24,
)


def inject_draws(monkeypatch, seed, blocks):
    """Serve the settled passes' draws from blocks: subject i of a cohort at
    seed draws blocks[i] (its horizon + 2 uniforms) instead of its stream.
    The chunk source is wrapped: every round's draws are first checked
    against blocks, which must hold the subjects' real draws when this is
    called. Returns blocks' month draws, a view to edit in place."""
    chunks, real = calibration.pcg64_chunks, blocks.copy()
    subject = {mix64(seed, i): i for i in range(len(blocks))}

    class Served:
        def __init__(self, streams, live):
            self.streams, self.live = streams, live

        def rounds(self, width):
            for first, draws in self.streams.rounds(width):
                months = slice(first, first + len(draws))
                assert np.array_equal(draws, real[self.live, months].T)
                draws[...] = blocks[self.live, months].T
                yield first, draws

        def keep(self, columns):
            self.streams.keep(columns)
            self.live = self.live[columns]

    def wrapped(stream_seeds, width):
        for part, streams in chunks(stream_seeds, width):
            yield part, Served(streams, np.array([subject[int(s)] for s in stream_seeds[part]]))

    monkeypatch.setattr(calibration, "pcg64_chunks", wrapped)
    return blocks[:, 2:]


def test_target_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CalibrationTarget(cr_rate=-0.1, pr_rate=0.3)
    with pytest.raises(ValueError, match="exceed 1"):
        CalibrationTarget(cr_rate=0.6, pr_rate=0.5)
    with pytest.raises(ValueError, match="tolerance"):
        CalibrationTarget(cr_rate=0.05, pr_rate=0.3, tolerance=0.0)
    for tolerance in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            CalibrationTarget(cr_rate=0.05, pr_rate=0.3, tolerance=tolerance)


ORACLE_TEMPLATES = [
    replace(TEMPLATE, improve_decay=1.0),
    replace(TEMPLATE, improve_decay=1e-3, horizon_months=200),  # decay powers underflow to 0
    replace(TEMPLATE, horizon_months=1),
    replace(TEMPLATE, dropout_rate=0.0),
    replace(TEMPLATE, dropout_rate=1.0),
]
def test_response_rates_match_per_subject_oracle():
    """Best overall response over each subject's observed months, one subject
    at a time; half the subjects drop out, so the observed mask matters.
    Then the same improvement probabilities on every ORACLE_TEMPLATES entry:
    horizons of 1 and 200 months, decays of 1 and 1e-3, dropout 0 and 1."""
    model = TransitionModel(
        improve_prob=(0.0, 0.12, 0.1, 0.0, 0.0),
        worsen_prob=TEMPLATE.worsen_prob,
        improve_decay=0.9,
        horizon_months=24,
        dropout_rate=0.5,
    )
    n = 300
    for template in [model] + ORACLE_TEMPLATES:
        template = replace(template, improve_prob=model.improve_prob)
        best = [
            int(simulate_subject(template, Arm.CONTROL, 1.0, subject_rng(CALIBRATION_SEED, i))[0].min())
            for i in range(n)
        ]
        expected = (best.count(CR) / n, best.count(PR) / n)
        assert 0.0 < expected[1] and (0.0 < expected[0] or template != model)
        assert control_response_rates(template, n_subjects=n) == expected, template


@pytest.mark.parametrize("name", ["moderate", "high", "off-grid"])
def test_response_rates_lie_near_the_exact_rates(name):
    """The Monte Carlo rates of 100 000 subjects lie within 4.5 binomial
    standard errors of the chain's exact rates, on both shipped profiles
    and a model off their grid (dropout 0.5, decay 0.9, horizon 24)."""
    if name == "off-grid":
        model = replace(load_profile("moderate"), dropout_rate=0.5, improve_decay=0.9, horizon_months=24)
    else:
        model = load_profile(name)
    n = 100_000
    for rate, exact in zip(control_response_rates(model, n, CALIBRATION_SEED), exact_response_rates(model)):
        assert abs(rate - exact) <= 4.5 * math.sqrt(exact * (1.0 - exact) / n), (rate, exact)


def test_exact_response_rates_enumerate_every_path():
    """On a 3-month horizon the chain's rates equal the sum over every
    dropout, censor month and month-by-month move path."""
    model = replace(load_profile("moderate"), dropout_rate=0.4, horizon_months=3)
    h, d = model.horizon_months, model.dropout_rate
    censors = [(d / h, c) for c in range(1, h + 1)] + [(1.0 - d, h)]  # (probability, censor month)
    rates = [0.0] * (SD + 1)  # by best state
    for moves in itertools.product((-1, 0, 1), repeat=h):
        states, p = [SD], 1.0
        for m, move in enumerate(moves, 1):
            s = states[-1]
            up, down = model.improve_prob[s] * model.improve_decay ** (m - 1), model.worsen_prob[s]
            p *= {-1: up, 0: 1.0 - up - down, 1: down}[move]
            if not p:
                break
            states.append(s + move)
        else:
            for q, c in censors:
                rates[min(states[: c + 1])] += p * q
    assert rates[CR] > 0.0 and rates[PR] > 0.0
    assert exact_response_rates(model) == pytest.approx((rates[CR], rates[PR]), abs=1e-12, rel=0)


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


def test_bad_subject_count():
    with pytest.raises(ValueError, match="n_subjects"):
        calibrate_transition_model(
            CalibrationTarget(cr_rate=0.05, pr_rate=0.30), template=TEMPLATE, n_subjects=0
        )
    with pytest.raises(ValueError, match="n_subjects"):
        control_response_rates(TEMPLATE, n_subjects=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_critical_probabilities_are_the_least_improving_doubles():
    """d * p > u holds at the returned p and fails one double below it; inf
    exactly where even p = 1 fails."""
    rng = np.random.default_rng(15)
    u = rng.integers(0, 2**53, 4000) * 2.0**-53
    edges = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    decays = [1.0, 0.97, 0.5, 1e-3, 0.97**59, 1e-3**102, 5e-324, 1e-310, 2.0**-1022, 0.0]
    decays += list(rng.uniform(0.0, 1.0, 20))
    for d in decays:
        for draws in (u, edges, rng.uniform(0.0, 1e-300, 50), d * rng.uniform(0.999, 1.001, 50)):
            p = _critical_probabilities(draws, d)
            never = np.isinf(p)
            assert np.array_equal(never, draws >= d)
            p, draws = p[~never], draws[~never]
            assert np.all((0.0 < p) & (p <= 1.0))
            assert np.all(d * p > draws)
            assert not np.any(d * np.nextafter(p, 0.0) > draws)


def test_quotient_filter_keeps_a_cell_one_double_below_the_least_value(monkeypatch):
    """A month whose rounded quotient u / d is one double below the subject's
    least value so far, and is its critical probability, lowers the
    minimum: month 1 (d = 1) gives the double above a, a later month gives
    a. The later month is 2, in month 1's round, and 7, the first month of
    the next round, whose cells are filtered by the least value so far."""
    for later in (2, 7):
        d = TEMPLATE.improve_decay ** (later - 1)
        for k in np.random.default_rng(4).integers(2**51, 2**52, 1000):
            a = k * 2.0**-53
            b = np.floor(d * a * 2.0**53) * 2.0**-53  # a draw: a multiple of 2**-53
            if d * a > b and b / d == a:
                break
        cohort = calibration._Cohort(replace(TEMPLATE, dropout_rate=0.0), 1, 0)
        with monkeypatch.context() as patch:
            monthly_u = inject_draws(patch, 0, subject_rng(0, 0).random(TEMPLATE.horizon_months + 2)[None])
            monthly_u[0] = 0.5
            monthly_u[0, [0, later - 1]] = (a, b)
            assert _critical_probabilities(monthly_u[0, :1], 1.0)[0] == np.nextafter(a, 1.0)
            assert _critical_probabilities(monthly_u[0, later - 1 : later], d)[0] == a
            cohort.tabulate_responders()
        assert cohort.first_improvement.tolist() == [a], later


def test_table_rates_match_the_kernel_where_counts_step():
    """Rates read from the tables equal the kernel's at subjects' critical
    probabilities and one double below them, where the counts step; a model
    off the tabulated improve_prob[SD] runs the kernel."""
    template = replace(TEMPLATE, dropout_rate=0.5)
    cohort = calibration._Cohort(template, 2_000, 3)
    kernel_only = calibration._Cohort(template, 2_000, 3)
    cohort.tabulate_responders()
    a2s = cohort.responders[cohort.responders <= 1.0 - template.worsen_prob[SD]][::53]
    cohort.tabulate_complete(a2s[len(a2s) // 2])
    a1s = cohort.complete[1][cohort.complete[1] <= 1.0 - template.worsen_prob[PR]][::5]
    assert len(a2s) > 10 and len(a1s) > 10
    on_table = [(0.0, a2) for a2 in (*a2s, *np.nextafter(a2s, 0.0))]
    on_table += [(a1, cohort.complete[0]) for a1 in (*a1s, *np.nextafter(a1s, 0.0))]
    off_table = [(a1, a2) for a1, a2 in zip(a1s, a2s) if a2 != cohort.complete[0]]
    # valid, since 0.94 + 0.06 rounds to 1, but a draw of 0.94 would both improve and worsen
    off_table.append((0.0, np.nextafter(1.0 - template.worsen_prob[SD], 1.0)))
    for (a1, a2), tabulated in [(m, True) for m in on_table] + [(m, False) for m in off_table]:
        model = replace(template, improve_prob=(0.0, a1, a2, 0.0, 0.0))
        assert (cohort.counts(model) is not None) == tabulated
        assert calibration._response_rates(model, cohort) == calibration._response_rates(model, kernel_only)


ORACLE_TARGETS = [  # (cr, pr, tolerance)
    (0.05, 0.30, 0.005),
    (0.9, 0.05, 0.005),
    (0.0, 0.0, 0.005),
    (0.05, 0.30, 1e-4),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("template", ORACLE_TEMPLATES)
def test_critical_tables_match_per_cell_oracle(monkeypatch, template):
    """Both tables, the whole-cohort one and the responders-only one in chunks
    of a few streams, hold each subject's least critical
    probability over every observed cell. Every tenth subject stays in SD with zero draws scattered
    over the horizon, up to months whose decay factor is subnormal or 0
    (horizon 200 at decay 1e-3); every tenth from the fifth draws 0 in its
    first three months."""
    n, seed, horizon = 300, 11, template.horizon_months
    cohort = calibration._Cohort(template, n, seed)
    blocks = np.array([subject_rng(seed, i).random(horizon + 2) for i in range(n)])
    monthly_u = inject_draws(monkeypatch, seed, blocks)
    zeros = [m - 1 for m in (1, 2, 50, 104, 106, 108, 109, 150) if m <= horizon]
    monthly_u[::10] = 0.5
    monthly_u[np.ix_(range(0, n, 10), zeros)] = 0.0
    monthly_u[5::10, :3] = 0.0

    first = [critical_improvement(cohort.base, SD, block) for block in blocks]
    cohort.tabulate_responders()
    assert cohort.first_improvement.tolist() == first
    assert np.array_equal(cohort.responders, np.sort(first))
    monkeypatch.setattr(seeds, "CHUNK", 7)
    a2_max = 1.0 - template.worsen_prob[SD]
    for a2 in (a2_max, np.median([v for v in first if v <= a2_max])):
        model = replace(cohort.base, improve_prob=(0.0, 0.0, a2, 0.0, 0.0))
        complete = [critical_improvement(model, PR, block) for block in blocks]
        assert cohort.critical_values(model, PR).tolist() == complete
        cohort.tabulate_complete(a2)
        responders = [v <= a2 for v in first]
        assert all(np.isinf(v) for v, r in zip(complete, responders) if not r)
        assert cohort.complete[1].tolist() == sorted(v for v, r in zip(complete, responders) if r)


def _search(monkeypatch, template, target, n):
    """Every evaluation of one search as (model, rates, read from the tables),
    and its outcome: the fitted model, or the error's text, model and rates.
    A search makes at most 85 evaluations: two bisections of at most 42
    (both ends, then halvings of a bracket of at most 1 down to 1e-12) and
    the joint check."""
    evaluate, evaluations = calibration._response_rates, []

    def spy(model, cohort):
        evaluations.append((model, evaluate(model, cohort), cohort.counts(model) is not None))
        return evaluations[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(calibration, "_response_rates", spy)
        try:
            outcome = calibrate_transition_model(CalibrationTarget(*target), template, n_subjects=n)
        except CalibrationError as err:
            outcome = (str(err), err.model, err.achieved_cr, err.achieved_pr)
    assert len(evaluations) <= 85
    return evaluations, outcome


def _searches_agree(monkeypatch, n, chunk=None):
    """Whole searches read from the critical-probability tables, their
    settled passes run in chunks of chunk streams (default seeds.CHUNK),
    make the same evaluations, with the same rates, and end the same way as
    searches in which every evaluation runs a settled pass of its own."""
    from_tables = 0
    for template in ORACLE_TEMPLATES:
        for target in ORACLE_TARGETS:
            with monkeypatch.context() as chunked:
                chunked.setattr(seeds, "CHUNK", chunk or seeds.CHUNK)
                evaluations, outcome = _search(monkeypatch, template, target, n)
            with monkeypatch.context() as kernel_only:
                kernel_only.setattr(calibration._Cohort, "counts", lambda self, model: None)
                expected, expected_outcome = _search(monkeypatch, template, target, n)
            assert [e[:2] for e in evaluations] == [e[:2] for e in expected]
            assert outcome == expected_outcome
            from_tables += sum(e[2] for e in evaluations)
    assert from_tables > 100


@pytest.mark.parametrize("n", [1, 3_000])
def test_critical_tables_answer_every_search_as_the_kernel_does(monkeypatch, n):
    """Whole searches read from the critical-probability tables make the same
    evaluations, with the same rates, and end the same way as searches in
    which every evaluation runs the kernel."""
    _searches_agree(monkeypatch, n)


def test_critical_tables_answer_every_search_in_pieces(monkeypatch):
    """The whole-search check again, with the tables' settled passes run in
    chunks of 256 streams (12 for a responder table, about 4 for a CR table)
    and every kernel-only evaluation in one."""
    _searches_agree(monkeypatch, 3_000, chunk=256)


def test_moderate_search_runs_the_kernel_twice(monkeypatch):
    calls = {"_settled_pass": 0, "_response_rates": 0}
    for name in calls:
        original = getattr(calibration, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(calibration, name, counted)
    calibrate_transition_model(CalibrationTarget(0.05, 0.30, 0.005), DEFAULT_TEMPLATE, n_subjects=10_000)
    assert calls == {"_settled_pass": 2, "_response_rates": 20}


def use_cpus(monkeypatch, count):
    """Make count CPUs usable, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_shared_passes_are_the_same_at_any_cpu_count(monkeypatch):
    """Both tables, a best response and a whole search are the same at 1, 2
    and 3 usable CPUs, their passes split into per-process shares of 7-stream
    chunks, with every worker served the edited draws of the oracle test.
    The caller reads share 0, so at 3 CPUs it steps 14 of the 43 chunks of
    a whole-cohort pass; no process is left behind."""
    template, n, seed = ORACLE_TEMPLATES[0], 300, 11
    blocks = np.array([subject_rng(seed, i).random(template.horizon_months + 2) for i in range(n)])
    monthly_u = inject_draws(monkeypatch, seed, blocks)
    monthly_u[::10] = 0.5
    monthly_u[5::10, :3] = 0.0
    monkeypatch.setattr(seeds, "CHUNK", 7)
    model = replace(template, improve_prob=(0.0, 0.1, 0.08, 0.0, 0.0))
    target = CalibrationTarget(0.05, 0.30, 0.005)  # finer than 1 / n: the search may end in an error
    results, caller_chunks = [], []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        cohort = calibration._Cohort(template, n, seed)
        cohort.tabulate_responders()
        a2 = float(np.median(cohort.responders[np.isfinite(cohort.responders)]))
        cohort.tabulate_complete(a2)
        with monkeypatch.context() as counted:
            chunks, stepped = calibration.pcg64_chunks, []
            counted.setattr(calibration, "pcg64_chunks", lambda s, w: stepped.append(-(-len(s) // 7)) or chunks(s, w))
            best = cohort.best_response(model)
        caller_chunks.append(stepped)
        try:
            fitted = calibrate_transition_model(target, template, n_subjects=n, seed=seed)
        except CalibrationError as err:
            fitted = (str(err), err.model, err.achieved_cr, err.achieved_pr)
        results.append((cohort.first_improvement.tolist(), cohort.complete[1].tolist(), best.tolist(), fitted))
        assert multiprocessing.active_children() == []
    assert results[0] == results[1] == results[2]
    assert caller_chunks == [[43], [21], [14]]


@pytest.fixture()
def two_cpus(monkeypatch):
    """A cohort of three chunks at two usable CPUs: its responder table's pass
    runs subjects 0..CHUNK-1 in the caller and the rest in one worker."""
    use_cpus(monkeypatch, 2)
    return calibration._Cohort(TEMPLATE, 2 * seeds.CHUNK + 37, 3)


def test_worker_failure_in_a_pass_is_raised_by_the_caller(monkeypatch, two_cpus):
    caller, share = os.getpid(), calibration._critical_share

    def failing(model, base, s, stream_seeds):
        if os.getpid() != caller:
            raise ArithmeticError(f"share of {len(stream_seeds)} subjects failed")
        return share(model, base, s, stream_seeds)

    monkeypatch.setattr(calibration, "_critical_share", failing)
    with pytest.raises(ArithmeticError, match=f"^share of {seeds.CHUNK + 37} subjects failed$"):
        two_cpus.tabulate_responders()
    assert multiprocessing.active_children() == []


def test_dead_worker_in_a_pass_raises_child_process_error(monkeypatch, two_cpus):
    caller, share = os.getpid(), calibration._critical_share

    def dying(*args):
        if os.getpid() != caller:
            os._exit(7)
        return share(*args)

    monkeypatch.setattr(calibration, "_critical_share", dying)
    owed = f"the critical values of subjects {seeds.CHUNK}..{2 * seeds.CHUNK + 36}"
    with pytest.raises(ChildProcessError, match=f"^{re.escape(f'worker process 1 exited with code 7 before returning {owed}')}$"):
        two_cpus.tabulate_responders()
    assert multiprocessing.active_children() == []


def test_interrupted_pass_kills_its_worker(monkeypatch, two_cpus):
    """A KeyboardInterrupt in the caller's share propagates at once, and the
    worker, still in its share, is killed and joined."""
    caller = os.getpid()

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # outlasts the test unless the worker is killed

    monkeypatch.setattr(calibration, "_best_share", interrupted)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        two_cpus.best_response(TEMPLATE)
    assert time.perf_counter() - began < 30
    assert multiprocessing.active_children() == []


def test_daemonic_caller_runs_its_passes_in_process(monkeypatch):
    """A multiprocessing.Pool worker, which may start no process, reads a
    cohort of three chunks in one share, even with two usable CPUs; a try
    to start one would raise there."""
    use_cpus(monkeypatch, 2)
    n = 2 * seeds.CHUNK + 37
    with multiprocessing.get_context("fork").Pool(1) as pool:
        rates = pool.apply(control_response_rates, (TEMPLATE, n))
    assert rates == control_response_rates(TEMPLATE, n)
    assert multiprocessing.active_children() == []
