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
same uniforms reused across evaluations (common random numbers). The
counts behind the bisected rates are then exact, non-decreasing step
functions: responders of a2, complete responders of a1 at a fixed a2. A
subject's step is its critical probability, the least value at which the
kernel's own comparison moves it out of SD (or PR) in an observed month
(see _Cohort), so one kernel run tabulates the steps of a whole bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .trajectories import (
    CR,
    N_STATES,
    PR,
    SD,
    TransitionModel,
    _dropout_from_uniforms,
    _simulate_state_matrix,
    subject_uniforms,
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
    absolute gap on each rate.
    """

    cr_rate: float
    pr_rate: float
    tolerance: float = 0.005

    def __post_init__(self) -> None:
        if not 0.0 <= self.cr_rate <= 1.0 or not 0.0 <= self.pr_rate <= 1.0:
            raise ValueError("target rates must lie in [0, 1]")
        if self.cr_rate + self.pr_rate > 1.0:
            raise ValueError("cr_rate + pr_rate cannot exceed 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


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


def _critical_probabilities(u: np.ndarray, d: float) -> np.ndarray:
    """The least double p with d * p > u for each draw u, or inf where no
    p <= 1 has it (u >= d). Draws are multiples of 2**-53, as every stream
    draw is, so each is 0 or a normal double.

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
    live = np.flatnonzero(u < d)  # d * 1.0 = d, so every other draw never improves
    if not live.size:
        return out
    u = u[live]
    p = u / d
    p[u == 0.0] = 0.5 * (5e-324 / d)
    bits = p.view(np.int64)
    while True:
        short = ~(d * p > u)
        if not short.any():
            break
        bits += short
    out[live] = p
    return out


class _Cohort:
    """A calibration sample: each subject's monthly uniforms and last observed
    month, drawn once, and the critical-probability tables built from them.

    Hold every improvement probability but improve_prob[s] = p. A subject
    follows its p = 0 path until its first improvement out of s, which
    comes in the first month m spent in s on that path where the month's
    draw is below decay**(m - 1) * p. So it improves out of s in an
    observed month iff p is at least the least of those months' critical
    probabilities: a subject's critical value. counts reads a table only
    where p is at most 1 - worsen_prob[s], so that an improving draw never
    also worsens the subject, which would keep it in s.

    responders sorts the critical improve_prob[SD] values at zero
    improvement: a subject is a responder, for any improve_prob[PR], iff
    improve_prob[SD] reaches its value. complete, once tabulate_complete
    has run, holds one improve_prob[SD] and the sorted critical
    improve_prob[PR] values there: reaching CR.
    """

    def __init__(self, template: TransitionModel, n_subjects: int, seed: int) -> None:
        blocks = subject_uniforms(seed, n_subjects, template.horizon_months)
        self.base = replace(template, improve_prob=(0.0,) * N_STATES)
        self.monthly_u = blocks[:, 2:]
        _, self.censor = _dropout_from_uniforms(template, blocks[:, 0], blocks[:, 1])
        self.early = np.flatnonzero(self.censor < template.horizon_months)
        self.responders: np.ndarray | None = None
        self.complete: tuple[float, np.ndarray] | None = None

    def _critical_values(self, model: TransitionModel, s: int) -> np.ndarray:
        """Sorted critical improve_prob[s] of every subject, from one kernel run
        of model, whose improve_prob[s] must be 0; inf for a subject never in s."""
        states = _simulate_state_matrix((model,), self.monthly_u).T
        critical = np.full(len(self.censor), np.inf)
        for m in range(1, model.horizon_months + 1):
            rows = np.flatnonzero(states[m - 1] == s)
            rows = rows[self.censor[rows] >= m]
            if rows.size:
                month = _critical_probabilities(self.monthly_u[rows, m - 1], model.improve_decay ** (m - 1))
                critical[rows] = np.minimum(critical[rows], month)
        critical.sort()
        return critical

    def tabulate_responders(self) -> None:
        self.responders = self._critical_values(self.base, SD)

    def tabulate_complete(self, a2: float) -> None:
        model = replace(self.base, improve_prob=(0.0, 0.0, a2, 0.0, 0.0))
        self.complete = (a2, self._critical_values(model, PR))

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
    """(CR rate, PR rate) of best overall response over the observed months.

    Counted from the cohort's tables where they answer model. Otherwise the
    kernel runs: its state buffer is month-major, so the best state is a
    minimum over contiguous month rows; the subjects who dropped out early
    take a running minimum over their own columns instead, read at their
    last observed month. Both give the same doubles.
    """
    n = len(cohort.censor)
    counts = cohort.counts(model)
    if counts is not None:
        complete, responders = counts
        return complete / n, (responders - complete) / n
    early = cohort.early
    states = _simulate_state_matrix((model,), cohort.monthly_u).T
    best = states.min(axis=0)
    best[early] = np.minimum.accumulate(states[:, early], axis=0)[cohort.censor[early], np.arange(len(early))]
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
    if n_subjects < 1:
        raise ValueError("n_subjects must be positive")
    cohort = _Cohort(template, n_subjects, seed)
    cohort.tabulate_responders()

    best: tuple[float, TransitionModel | None, float, float] = (np.inf, None, np.nan, np.nan)

    def measure(a1: float, a2: float) -> tuple[TransitionModel, float, float]:
        nonlocal best
        model = replace(template, improve_prob=(0.0, a1, a2, 0.0, 0.0))
        cr, pr = _response_rates(model, cohort)
        miss = max(abs(cr - target.cr_rate), abs(pr - target.pr_rate))
        if miss < best[0]:
            best = (miss, model, cr, pr)
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
    raise CalibrationError(
        "coordinate bisection did not converge jointly",
        model=best[1],
        achieved_cr=best[2],
        achieved_pr=best[3],
    )
