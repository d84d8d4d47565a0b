"""Calibrate control-arm improvement probabilities to response-rate targets.

Baseline worsening probabilities and the improvement decay are template
choices; what the literature pins down is the control arm's best-overall-
response mix (e.g. ~5% CR, ~30% PR). Calibration searches the two free
improvement probabilities against those targets:

  * a2 = improve_prob[SD] alone decides how many subjects ever reach PR
    or better (you can only enter PR from SD, and only enter CR through
    PR), so it is bisected first against the combined CR + PR rate;
  * a1 = improve_prob[PR] then converts responders into complete
    responders, so it is bisected against the CR rate.

Rates are measured by Monte Carlo on a fixed calibration seed with the
same uniforms read by every evaluation (common random numbers). The
counts behind the bisected rates are then exact, non-decreasing step
functions: responders of a2, complete responders of a1 at a fixed a2. A
subject's step is its critical probability, the least value at which the
kernel's own comparison moves it out of SD (or PR) in an observed month
(see _Cohort), so one pass tabulates the steps of a whole bisection.

No draw matrix is kept. Every read of the cohort is one loop over a
settled pass (_settled_pass): subject i's stream mix64(seed, i) is drawn
a round of seeds.LANES draws at a time, the kernel evolves the round's
months from the last round's states, and the pass yields them to the
loop body. A subject is dropped once it reaches PD or passes its censor
month, since no later draw can move what any reader reads, so about half
of a cohort's draws are never made. Three loops read the pass: the
responder table (critical improve_prob[SD] on the p = 0 path), the CR
table (critical improve_prob[PR] at the fitted a2, over the responders'
streams alone, since no other subject is ever in PR in an observed month;
a re-drawn stream gives the same draws) and the best response, for an
evaluation no table answers, such as control_response_rates. A search
runs two passes, one per table. A table's loop computes an exact
critical probability only where the subject is observed in the state and
the rounded quotient u / d of its draw and the month's decay factor lies
below its least value so far; no other cell can lower that value (see
_critical_share).

Each of the three passes runs on per-process shares (_shared_pass): its
seeds are split into contiguous runs of whole chunks, one per process that
pool.process_limit allows up to the pass's chunk count, and the shares
run through pool.in_order, the process map of a pooled grid: this process
loops over share 0 while one forked worker per other share loops over its
own and sends back its subjects' critical values or best states, joined
in share order. A subject's values depend on its own stream alone, so
every result is the same at any CPU count. A pass of one chunk, as on a
cohort of at most seeds.CHUNK subjects, or on one process starts none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable, Iterator, Sequence

import numpy as np

from .pool import in_order, process_limit
from .seeds import chunk_shares, mix64_array, pcg64_chunks
from .trajectories import (
    CR,
    DEATH,
    N_STATES,
    PD,
    PR,
    SD,
    TransitionModel,
    _dropout_from_uniforms,
    _simulate_state_matrix,
    check_draws,
)

CALIBRATION_SEED = 201805

# Template disease dynamics shared by the shipped profiles: monthly chances
# of CR->PR, PR->SD, SD->PD, PD->death relapse/progression steps, and the
# geometric decay of improvement chances. Improvement probabilities are
# deliberately zero here; calibration fills them in.
DEFAULT_TEMPLATE = TransitionModel(
    improve_prob=(0.0, 0.0, 0.0, 0.0, 0.0),
    worsen_prob=(0.05, 0.22, 0.028, 0.075, 0.0),
    improve_decay=0.97,
    horizon_months=60,
    dropout_rate=0.10,
)


@dataclass(frozen=True)
class CalibrationTarget:
    """Control-arm best-overall-response targets.

    cr_rate / pr_rate are the target fractions of control subjects whose
    best observed state is CR / exactly PR; tolerance is the acceptable
    absolute gap on each rate, positive and finite (an infinite one would
    accept any rate, so a search would stop at its first evaluation).
    """

    cr_rate: float
    pr_rate: float
    tolerance: float = 0.005

    def __post_init__(self) -> None:
        if not 0.0 <= self.cr_rate <= 1.0 or not 0.0 <= self.pr_rate <= 1.0:
            raise ValueError("target rates must lie in [0, 1]")
        if self.cr_rate + self.pr_rate > 1.0:
            raise ValueError("cr_rate + pr_rate cannot exceed 1")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


class CalibrationError(RuntimeError):
    """Raised when a target is unreachable or the search does not converge."""

    def __init__(
        self,
        message: str,
        model: TransitionModel | None = None,
        achieved_cr: float | None = None,
        achieved_pr: float | None = None,
    ) -> None:
        super().__init__(message)
        self.model = model
        self.achieved_cr = achieved_cr
        self.achieved_pr = achieved_pr


def _critical_probabilities(u: np.ndarray, d: float | np.ndarray) -> np.ndarray:
    """The least double p with d * p > u for each draw u, or inf where no
    p <= 1 has it (u >= d). Draws are multiples of 2**-53, as every stream
    draw is, so each is 0 or a normal double. d is one decay factor, or one
    per draw.

    The kernel improves a subject who draws u in a month whose decay factor
    is d iff u < d * p, and the rounded product d * p never decreases as p
    grows, so that holds exactly for the p at or above the result. The
    search starts from the rounded quotient u / d: the double below it lies
    below the exact quotient, so its product cannot exceed u, and for a
    normal u the answer is the quotient or a few doubles above it. At
    u = 0, d * p must round above zero, i.e. exceed half the least
    subnormal, so the start is half of 5e-324 / d, likewise never above the
    answer. Steps go up one double at a time, as int64 bit patterns, which
    order non-negative doubles as their values.
    """
    out = np.full(u.shape, np.inf)
    d = np.broadcast_to(d, u.shape)
    live = np.flatnonzero(u < d)  # d * 1.0 = d, so every other draw never improves
    if not live.size:
        return out
    u, d = u[live], d[live]
    p = u / d
    zero = u == 0.0
    p[zero] = 0.5 * (5e-324 / d[zero])
    bits = p.view(np.int64)
    while True:
        short = ~(d * p > u)
        if not short.any():
            break
        bits += short
    out[live] = p
    return out


def _settled_pass(model: TransitionModel, base: TransitionModel, seeds: np.ndarray) -> Iterator[tuple]:
    """Evolve one subject per stream of seeds under model until its best
    response is settled, reading no draw after that.

    The streams are drawn one round (LANES draws) at a time, chunk by chunk
    (pcg64_chunks). Round 0 gives each subject's dropout draws, read under
    base, and its first months; every round, the kernel evolves the live
    subjects through the round's months from their last states, and the
    pass yields (live, month, u, states, censor): live holds the positions
    in seeds of the live subjects, u their (k, live) draws of months
    month .. month + k - 1, states their (k + 1, live) states at months
    month - 1 .. month + k - 1 and censor their last observed months; u is
    valid until the next round. A subject is dropped at the end of the
    round in which it reaches PD, which it never leaves, or passes its
    censor month; no later draw can move a best response, nor a critical
    value, which only months spent in SD or PR make.
    """
    width = model.horizon_months + 2
    for part, streams in pcg64_chunks(seeds, width):
        live = np.arange(len(seeds))[part]
        state = np.full(len(live), SD, dtype=np.int8)
        for first, u in streams.rounds(width):
            if not first:
                censor = _dropout_from_uniforms(base, u[0], u[1])[1]
                u = u[2:]
            month = max(first - 1, 1)  # draw j is month j - 1's
            states = _simulate_state_matrix((model,), u.T, first_month=month, start=state).T
            yield live, month, u, states, censor
            keep = np.flatnonzero((states[-1] < PD) & (censor >= month + len(u)))
            streams.keep(keep)
            live, state, censor = live[keep], states[-1, keep], censor[keep]


def _critical_share(model: TransitionModel, base: TransitionModel, s: int, seeds: np.ndarray) -> np.ndarray:
    """The critical improve_prob[s] values under model of one subject per
    stream of seeds, from one settled pass (see _Cohort.critical_values).

    Each round's months are read at once, as (k, live) arrays. An exact
    critical probability is computed only where the subject is observed
    in s and the rounded quotient u / d of the draw and the month's decay
    factor lies below the subject's least value before the round:
    _critical_probabilities starts its search at that quotient and never
    returns less, so no other cell can lower a minimum."""
    critical = np.full(len(seeds), np.inf)
    for live, month, u, states, censor in _settled_pass(model, base, seeds):
        months = np.arange(month, month + len(u))
        d = np.array([model.improve_decay ** (m - 1) for m in months.tolist()])  # the kernel's powers
        least = critical[live]
        # A draw u >= d never improves: its quotient may overflow to inf, or be
        # inf or nan where d underflows to 0, and then lowers nothing.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cells = u / d[:, None] < least
        cells &= states[:-1] == s
        cells &= months[:, None] <= censor
        row, subject = np.divmod(np.flatnonzero(cells), len(live))
        if row.size:
            np.minimum.at(least, subject, _critical_probabilities(u[row, subject], d[row]))
            critical[live] = least
    return critical


def _best_share(model: TransitionModel, base: TransitionModel, seeds: np.ndarray) -> np.ndarray:
    """The best state over its observed months under model of one subject
    per stream of seeds, from one settled pass."""
    best = np.full(len(seeds), SD, dtype=np.int8)
    for live, month, u, states, censor in _settled_pass(model, base, seeds):
        # a month past the censor month reads as DEATH, which no best state exceeds
        unobserved = np.arange(month, month + len(u))[:, None] > censor
        best[live] = np.minimum(best[live], np.maximum(states[1:], unobserved * np.int8(DEATH)).min(axis=0))
    return best


def _shared_pass(read: Callable, args: tuple, seeds: np.ndarray, ids: Sequence[int], what: str) -> np.ndarray:
    """read(*args, seeds), a settled pass's per-subject array, computed in
    per-process shares and joined in share order.

    The seeds are split into one contiguous share of whole chunks per
    process (seeds.chunk_shares), as many as pool.process_limit and the
    pass's chunks allow, and the shares run through pool.in_order: this
    process reads share 0, and one forked worker reads each other share and
    sends back its array. Each subject's values depend on its own stream
    alone, so the result is the same at any share count. A pass of one
    chunk, or on one process, is one share read here. ids holds each
    seed's subject, which an error names with what: the result a dead
    worker owed."""
    shares = [slice(*bounds) for bounds in pairwise(chunk_shares(len(seeds), process_limit(len(seeds))))]
    parts = list(
        in_order(
            lambda share: read(*args, seeds[share]),
            lambda: shares,
            len(shares),
            lambda i, share: f"{what} of subjects {ids[share.start]}..{ids[share.stop - 1]}",
        )
    )
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Cohort:
    """A calibration sample: subject i draws from the stream mix64(seed, i),
    re-drawn by a settled pass whenever the cohort is read, and the
    critical-probability tables built from it.

    Hold every improvement probability but improve_prob[s] = p. A subject
    follows its p = 0 path until its first improvement out of s, which
    comes in the first month m spent in s on that path where the month's
    draw is below decay**(m - 1) * p. So it improves out of s in an
    observed month iff p is at least the least of those months' critical
    probabilities: a subject's critical value. counts reads a table only
    where p is at most 1 - worsen_prob[s], so that an improving draw never
    also worsens the subject, which would keep it in s.

    first_improvement holds each subject's critical improve_prob[SD] value
    at zero improvement, and responders sorts them: a subject is a
    responder, for any improve_prob[PR], iff improve_prob[SD] reaches its
    value. complete, once tabulate_complete has run, holds one
    improve_prob[SD] and the sorted critical improve_prob[PR] values of
    that improve_prob[SD]'s responders: reaching CR.
    """

    def __init__(self, template: TransitionModel, n_subjects: int, seed: int) -> None:
        if n_subjects < 1:
            raise ValueError("n_subjects must be positive")
        check_draws(n_subjects, template.horizon_months, name="n_subjects")
        self.base = replace(template, improve_prob=(0.0,) * N_STATES)
        self.seeds = mix64_array((seed,), np.arange(n_subjects, dtype=np.uint64))
        self.first_improvement: np.ndarray | None = None
        self.responders: np.ndarray | None = None
        self.complete: tuple[float, np.ndarray] | None = None

    def critical_values(self, model: TransitionModel, s: int, subjects: np.ndarray | None = None) -> np.ndarray:
        """The critical improve_prob[s] values under model, whose improve_prob[s]
        must be 0, of the given subjects (default all), from one settled pass
        over their streams in per-process shares (_shared_pass); inf for a
        subject never in s in an observed month."""
        seeds = self.seeds if subjects is None else self.seeds[subjects]
        ids = range(len(seeds)) if subjects is None else subjects
        return _shared_pass(_critical_share, (model, self.base, s), seeds, ids, "the critical values")

    def tabulate_responders(self) -> None:
        self.first_improvement = self.critical_values(self.base, SD)
        self.responders = np.sort(self.first_improvement)

    def tabulate_complete(self, a2: float) -> None:
        """Tabulate the critical improve_prob[PR] values at improve_prob[SD] = a2,
        at most 1 - worsen_prob[SD]. Only a responder at a2 is ever in PR in
        an observed month, so the pass re-draws the responders' streams
        alone. The others' values would be inf, which no count reaches."""
        model = replace(self.base, improve_prob=(0.0, 0.0, a2, 0.0, 0.0))
        critical = self.critical_values(model, PR, np.flatnonzero(self.first_improvement <= a2))
        critical.sort()
        self.complete = (a2, critical)

    def best_response(self, model: TransitionModel) -> np.ndarray:
        """Each subject's best state over its observed months under model,
        from one settled pass in per-process shares (_shared_pass)."""
        return _shared_pass(_best_share, (model, self.base), self.seeds, range(len(self.seeds)), "the best responses")

    def counts(self, model: TransitionModel) -> tuple[int, int] | None:
        """(complete responders, responders) of model from the tables, or None
        where no table answers it."""
        a1, a2 = model.improve_prob[PR], model.improve_prob[SD]
        if (
            self.responders is None
            or replace(model, improve_prob=self.base.improve_prob) != self.base
            or a2 > 1.0 - model.worsen_prob[SD]
        ):
            return None
        responders = int(np.searchsorted(self.responders, a2, side="right"))
        if a1 == 0.0:
            return 0, responders
        if self.complete is None or self.complete[0] != a2 or a1 > 1.0 - model.worsen_prob[PR]:
            return None
        return int(np.searchsorted(self.complete[1], a1, side="right")), responders


def _response_rates(model: TransitionModel, cohort: _Cohort) -> tuple[float, float]:
    """(CR rate, PR rate) of best overall response over the observed months:
    counted from the cohort's tables where they answer model, else from a
    settled pass under model. Both give the same doubles."""
    counts = cohort.counts(model)
    n = len(cohort.seeds)
    if counts is not None:
        complete, responders = counts
        return complete / n, (responders - complete) / n
    best = cohort.best_response(model)
    return float(np.mean(best == CR)), float(np.mean(best == PR))


def control_response_rates(
    model: TransitionModel, n_subjects: int = 100_000, seed: int = CALIBRATION_SEED
) -> tuple[float, float]:
    """Monte Carlo control-arm (CR, PR) best-response rates."""
    return _response_rates(model, _Cohort(model, n_subjects, seed))


def _bisect_rate(
    rate_of: Callable[[float], float], lo: float, hi: float, target: float, tol: float, label: str
) -> float:
    r_lo = rate_of(lo)
    if abs(r_lo - target) <= tol:
        return lo
    if r_lo > target:
        raise CalibrationError(f"{label}: rate {r_lo:.4f} at lower bound already exceeds target {target:.4f}")
    r_hi = rate_of(hi)
    if abs(r_hi - target) <= tol:
        return hi
    if r_hi < target:
        raise CalibrationError(f"{label}: target {target:.4f} unreachable (max rate {r_hi:.4f})")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        r = rate_of(mid)
        if abs(r - target) <= tol:
            return mid
        if r < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(f"{label}: bisection bracket collapsed without reaching tolerance {tol}")


def calibrate_transition_model(
    target: CalibrationTarget,
    template: TransitionModel = DEFAULT_TEMPLATE,
    n_subjects: int = 100_000,
    seed: int = CALIBRATION_SEED,
) -> TransitionModel:
    """Fit improve_prob[SD] and improve_prob[PR] to the response targets.

    n_subjects sets the simulated cohort (>= 10_000 recommended so Monte
    Carlo noise stays well under the tolerance). Bisections stop at a 1e-12
    bracket, so a search makes at most 85 rate evaluations. Raises
    CalibrationError if a target is unreachable or a bracket collapses, or,
    carrying the best model found, if the joint check fails.
    """
    cohort = _Cohort(template, n_subjects, seed)
    cohort.tabulate_responders()

    tried: list[tuple[float, TransitionModel, float, float]] = []  # (miss, model, cr, pr)

    def measure(a1: float, a2: float) -> tuple[TransitionModel, float, float]:
        model = replace(template, improve_prob=(0.0, a1, a2, 0.0, 0.0))
        cr, pr = _response_rates(model, cohort)
        tried.append((max(abs(cr - target.cr_rate), abs(pr - target.pr_rate)), model, cr, pr))
        return model, cr, pr

    inner_tol = target.tolerance / 2.0
    responder_target = target.cr_rate + target.pr_rate
    a2_max = 1.0 - template.worsen_prob[SD]
    a1_max = 1.0 - template.worsen_prob[PR]

    # One pass suffices: the responder count does not depend on improve_prob[PR]
    # (a subject is a responder once it first enters PR), so a responder rate
    # and a CR rate each within tolerance / 2 leave the PR rate within tolerance.
    a2 = _bisect_rate(
        lambda v: sum(measure(0.0, v)[1:]), 0.0, a2_max, responder_target, inner_tol, "responder rate"
    )
    cohort.tabulate_complete(a2)
    a1 = _bisect_rate(lambda v: measure(v, a2)[1], 0.0, a1_max, target.cr_rate, inner_tol, "CR rate")
    model, cr, pr = measure(a1, a2)
    if abs(cr - target.cr_rate) <= target.tolerance and abs(pr - target.pr_rate) <= target.tolerance:
        return model
    _, model, cr, pr = min(tried, key=lambda t: t[0])  # the first of the least misses
    raise CalibrationError("coordinate bisection did not converge jointly", model=model, achieved_cr=cr, achieved_pr=pr)
