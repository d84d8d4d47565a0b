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
same uniforms reused across evaluations (common random numbers), which
makes each rate a deterministic, effectively monotone function of its
parameter and the bisection well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .trajectories import (
    CR,
    PR,
    SD,
    N_STATES,
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

    def to_json_dict(self) -> dict:
        return {"cr_rate": self.cr_rate, "pr_rate": self.pr_rate, "tolerance": self.tolerance}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CalibrationTarget":
        known = {"cr_rate", "pr_rate", "tolerance"}
        if not isinstance(data, dict) or not set(data) <= known:
            raise ValueError("calibration target document has unknown fields")
        return cls(
            cr_rate=float(data["cr_rate"]),
            pr_rate=float(data["pr_rate"]),
            tolerance=float(data.get("tolerance", 0.005)),
        )


class CalibrationError(RuntimeError):
    """Raised when the eval budget runs out or a target is unreachable."""

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


def _observed_months(model: TransitionModel, blocks: np.ndarray) -> np.ndarray:
    """(n, horizon + 1) mask of the months each subject is observed, from its dropout draws.

    It depends only on the uniforms and on the dropout rate and horizon,
    which calibration never changes, so it is built once per block.
    """
    _, censor = _dropout_from_uniforms(model, blocks[:, 0], blocks[:, 1])
    return np.arange(model.horizon_months + 1) <= censor[:, None]


def _response_rates(
    model: TransitionModel, monthly_u: np.ndarray, observed: np.ndarray
) -> tuple[float, float]:
    """(CR rate, PR rate) of best overall response over the observed months."""
    states = _simulate_state_matrix(model, monthly_u)
    best = np.where(observed, states, N_STATES).min(axis=1)
    return float(np.mean(best == CR)), float(np.mean(best == PR))


def control_response_rates(
    model: TransitionModel, n_subjects: int = 100_000, seed: int = CALIBRATION_SEED
) -> tuple[float, float]:
    """Monte Carlo control-arm (CR, PR) best-response rates."""
    blocks = subject_uniforms(seed, n_subjects, model.horizon_months)
    return _response_rates(model, blocks[:, 2:], _observed_months(model, blocks))


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
    budget: int = 200,
    n_subjects: int = 100_000,
    seed: int = CALIBRATION_SEED,
) -> TransitionModel:
    """Fit improve_prob[SD] and improve_prob[PR] to the response targets.

    budget caps the number of Monte Carlo evaluations; n_subjects sets the
    per-evaluation sample (>= 10_000 recommended so Monte Carlo noise stays
    well under the tolerance). Raises CalibrationError, carrying the best
    model found, if the budget is exhausted or a target is unreachable.
    """
    if n_subjects < 1:
        raise ValueError("n_subjects must be positive")
    blocks = subject_uniforms(seed, n_subjects, template.horizon_months)
    monthly_u, observed = blocks[:, 2:], _observed_months(template, blocks)

    evals = 0
    best: tuple[float, TransitionModel | None, float, float] = (np.inf, None, np.nan, np.nan)

    def measure(a1: float, a2: float) -> tuple[TransitionModel, float, float]:
        nonlocal evals, best
        model = replace(
            template, improve_prob=(0.0, a1, a2, 0.0, 0.0)
        )
        if evals >= budget:
            raise CalibrationError(
                f"calibration budget of {budget} evaluations exhausted",
                model=best[1],
                achieved_cr=best[2],
                achieved_pr=best[3],
            )
        evals += 1
        cr, pr = _response_rates(model, monthly_u, observed)
        miss = max(abs(cr - target.cr_rate), abs(pr - target.pr_rate))
        if miss < best[0]:
            best = (miss, model, cr, pr)
        return model, cr, pr

    inner_tol = target.tolerance / 2.0
    responder_target = target.cr_rate + target.pr_rate
    a2_max = 1.0 - template.worsen_prob[SD]
    a1_max = 1.0 - template.worsen_prob[PR]

    a1, a2 = 0.0, 0.0
    for _ in range(4):
        a2 = _bisect_rate(
            lambda v: sum(measure(a1, v)[1:]), 0.0, a2_max, responder_target, inner_tol, "responder rate"
        )
        a1 = _bisect_rate(
            lambda v: measure(v, a2)[1], 0.0, a1_max, target.cr_rate, inner_tol, "CR rate"
        )
        model, cr, pr = measure(a1, a2)
        if abs(cr - target.cr_rate) <= target.tolerance and abs(pr - target.pr_rate) <= target.tolerance:
            return model
    raise CalibrationError(
        "coordinate bisection did not converge jointly",
        model=best[1],
        achieved_cr=best[2],
        achieved_pr=best[3],
    )
