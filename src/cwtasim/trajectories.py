"""Discrete-time ordinal health-state trial simulation.

Health states form a five-level ladder (lower is better):

    0  complete response (CR)
    1  partial response (PR)
    2  stable disease (SD) -- every subject's baseline
    3  progressive disease (PD), irreversible
    4  death, absorbing; reachable only from PD

Each month a subject moves at most one level. A single uniform draw is
partitioned as [improve | stay | worsen]: the subject improves with
probability improve_prob[state] * improve_decay**(month - 1) and worsens
with probability worsen_prob[state]. Worsening chances are constant over
time; improvement chances decay geometrically, standing in for the
clinical pattern that responses concentrate early in treatment.
Experimental-arm subjects use worsening probabilities rescaled by a
hazard ratio (see apply_hazard_ratio).

Randomness contract: subject i of a trial draws from its own stream,
np.random.default_rng(mix64(trial_seed, i)), and consumes exactly
horizon + 2 uniforms in a fixed layout -- dropout flag, dropout month,
then one per month -- whether or not the subject drops out or dies early.
Trials are therefore bit-reproducible, and identical whether subjects are
simulated one at a time or as a vectorized batch. No generator is built
per subject: subject_uniforms draws all streams at once with
seeds.pcg64_uniforms, a vectorized SeedSequence + PCG64 that the oracle
test checks bit for bit against default_rng. It returns a month-major
(F-contiguous) view, so reading one month for every subject is a
contiguous read.

A trial has one form from simulation to every statistic: Trial, the
padded (n, horizon + 1) state matrix with each subject's censor month,
arm and dropout flag. There are no per-subject objects; the CSV reader
packs its rows into the same form with trial_state_matrix. simulate_block
simulates R trials of one design at once, as a Trial with a leading
replicate axis; simulate_trial is its one-trial call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from math import expm1, log1p
from typing import Sequence

import numpy as np

from .seeds import mix64_array, pcg64_uniforms

CR, PR, SD, PD, DEATH = 0, 1, 2, 3, 4
N_STATES = 5
MAX_STATE = 4  # ordinal span; one level change = weight 1/MAX_STATE

_STATE_KEYS = tuple(str(s) for s in range(N_STATES))


class Arm(IntEnum):
    CONTROL = 0
    EXPERIMENTAL = 1

    @property
    def label(self) -> str:
        return self.name.lower()


def _as_prob_tuple(values: Sequence[float], name: str) -> tuple[float, ...]:
    probs = tuple(float(v) for v in values)
    if len(probs) != N_STATES:
        raise ValueError(f"{name} must list one probability per state (got {len(probs)})")
    for s, p in enumerate(probs):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}[{s}] = {p} is not a probability")
    return probs


@dataclass(frozen=True)
class TransitionModel:
    """Per-state monthly transition probabilities for the control arm.

    improve_prob[s] is the chance of moving one level down (better) before
    decay; worsen_prob[s] of moving one level up (worse); the remainder is
    the stay probability. Structural zeros are enforced: CR cannot improve,
    PD cannot improve (progression is irreversible), death is absorbing,
    and death is reachable only through PD.
    """

    improve_prob: tuple[float, ...]
    worsen_prob: tuple[float, ...]
    improve_decay: float = 1.0
    horizon_months: int = 60
    dropout_rate: float = 0.10

    def __post_init__(self) -> None:
        object.__setattr__(self, "improve_prob", _as_prob_tuple(self.improve_prob, "improve_prob"))
        object.__setattr__(self, "worsen_prob", _as_prob_tuple(self.worsen_prob, "worsen_prob"))
        for s in (CR, PD, DEATH):
            if self.improve_prob[s] != 0.0:
                raise ValueError(f"improve_prob[{s}] must be 0 (structural)")
        if self.worsen_prob[DEATH] != 0.0:
            raise ValueError("worsen_prob[4] must be 0 (death is absorbing)")
        for s in range(N_STATES):
            if self.improve_prob[s] + self.worsen_prob[s] > 1.0:
                raise ValueError(f"improve_prob[{s}] + worsen_prob[{s}] exceeds 1")
        if not 0.0 < self.improve_decay <= 1.0:
            raise ValueError(f"improve_decay must lie in (0, 1], got {self.improve_decay}")
        if int(self.horizon_months) < 1:
            raise ValueError("horizon_months must be a positive integer")
        object.__setattr__(self, "horizon_months", int(self.horizon_months))
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError(f"dropout_rate = {self.dropout_rate} is not a probability")

    def to_json_dict(self) -> dict:
        return {
            "improve_prob": {k: self.improve_prob[int(k)] for k in _STATE_KEYS},
            "worsen_prob": {k: self.worsen_prob[int(k)] for k in _STATE_KEYS},
            "improve_decay": self.improve_decay,
            "horizon_months": self.horizon_months,
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TransitionModel":
        if not isinstance(data, dict):
            raise ValueError("transition model document must be a JSON object")
        known = {"improve_prob", "worsen_prob", "improve_decay", "horizon_months", "dropout_rate"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown transition model field(s): {', '.join(sorted(unknown))}")
        missing = {"improve_prob", "worsen_prob"} - set(data)
        if missing:
            raise ValueError(f"transition model document lacks {', '.join(sorted(missing))}")

        def probs(field: str) -> tuple[float, ...]:
            mapping = data[field]
            if not isinstance(mapping, dict) or not set(mapping) <= set(_STATE_KEYS):
                raise ValueError(f"{field} must map states '0'..'4' to probabilities")
            return tuple(float(mapping.get(k, 0.0)) for k in _STATE_KEYS)

        return cls(
            improve_prob=probs("improve_prob"),
            worsen_prob=probs("worsen_prob"),
            improve_decay=float(data.get("improve_decay", 1.0)),
            horizon_months=int(data.get("horizon_months", 60)),
            dropout_rate=float(data.get("dropout_rate", 0.10)),
        )


def _scale_probability(b: float, hr: float) -> float:
    if b <= 0.0:
        return 0.0
    if b >= 1.0:
        return 1.0
    # exact discrete-time analogue of scaling a hazard: 1 - (1 - b)**hr
    return -expm1(hr * log1p(-b))


def apply_hazard_ratio(
    model: TransitionModel, hr: float, improvement_hr: float | None = None
) -> TransitionModel:
    """Rescale worsening probabilities by a hazard ratio.

    A per-month probability b maps to b' = 1 - (1 - b)**hr, so the log
    survival-fraction ratio log(1 - b') / log(1 - b) equals hr to machine
    precision -- the exact discrete-time counterpart of multiplying a
    continuous hazard by hr. Improvement probabilities are left untouched
    (treatment effects act on worsening only) unless improvement_hr is
    given, in which case the same transform is applied to them.
    """
    if not hr > 0.0:
        raise ValueError(f"hazard ratio must be positive, got {hr}")
    worsen = tuple(_scale_probability(b, hr) for b in model.worsen_prob)
    improve = model.improve_prob
    if improvement_hr is not None:
        if not improvement_hr > 0.0:
            raise ValueError(f"improvement hazard ratio must be positive, got {improvement_hr}")
        improve = tuple(_scale_probability(a, improvement_hr) for a in model.improve_prob)
    return replace(model, worsen_prob=worsen, improve_prob=improve)


def _check_sample_size(sample_size: int) -> None:
    if sample_size < 2 or sample_size % 2 != 0:
        raise ValueError(
            f"sample_size must be an even integer >= 2 for 1:1 allocation, got {sample_size}"
        )


@dataclass(frozen=True)
class TrialConfig:
    sample_size: int
    hazard_ratio: float
    control_model: TransitionModel
    seed: int
    improvement_hr: float | None = None

    def __post_init__(self) -> None:
        _check_sample_size(self.sample_size)
        if not self.hazard_ratio > 0.0:
            raise ValueError(f"hazard_ratio must be positive, got {self.hazard_ratio}")


@dataclass(frozen=True, eq=False)
class Trial:
    """A two-arm trial in columnar form: one row per subject.

    states is (n, horizon + 1) int8: states[i, 0] is the SD baseline and
    every month after censor[i], the last observed month, holds -1.
    arms[i] is the Arm index. dropped[i] tells a subject who dropped out
    at the horizon month apart from one observed to the end.

    A block of R trials of one design has the same form with a leading
    replicate axis on states (R, n, horizon + 1), censor and dropped
    (R, n); arms stays (n,), shared by every trial of the block.
    """

    states: np.ndarray
    censor: np.ndarray
    arms: np.ndarray
    dropped: np.ndarray

    @property
    def horizon(self) -> int:
        return self.states.shape[-1] - 1


def subject_uniforms(base_seed, n: int, horizon: int) -> np.ndarray:
    """(n, horizon + 2) uniform draws, row i from the stream mix64(base_seed, i).

    Column layout per subject: dropout flag, dropout month, then one draw
    per month 1..horizon. Blocks are always drawn in full so the layout
    stays fixed regardless of what happens to the subject. base_seed may
    also be an array of R trial seeds; the result is then (R, n, horizon + 2),
    every stream drawn in one pass. Either way it is a view of a
    C-contiguous buffer with the draw axis first, so one month of every
    subject is contiguous.
    """
    trial_seeds = base_seed[:, None] if isinstance(base_seed, np.ndarray) else base_seed
    seeds = mix64_array((trial_seeds,), np.arange(n, dtype=np.uint64))
    draws = pcg64_uniforms(seeds.ravel(), horizon + 2)
    return np.moveaxis(draws.reshape((horizon + 2,) + seeds.shape), 0, -1)


def _simulate_state_matrix(model: TransitionModel, monthly_u: np.ndarray) -> np.ndarray:
    """Evolve the state ladder for a batch of subjects.

    monthly_u holds one uniform per subject per month, months on the last
    axis; any leading axes (subjects, or replicates and subjects) are kept.
    The draw decides [improve | stay | worsen] in that order: improve iff
    u < p_improve, worsen iff u >= 1 - p_worsen. Model validation
    guarantees the two intervals never overlap. Months are read and
    written one at a time, so a month-major monthly_u reads contiguously;
    the (..., horizon + 1) result is likewise a month-major view.
    """
    *lead, horizon = monthly_u.shape
    improve = np.asarray(model.improve_prob)
    worsen = np.asarray(model.worsen_prob)
    states = np.empty((horizon + 1, *lead), dtype=np.int8)
    states[0] = SD
    s = np.full(lead, SD, dtype=np.intp)
    for m in range(1, horizon + 1):
        u = monthly_u[..., m - 1]
        p_improve = improve[s] * (model.improve_decay ** (m - 1))
        p_worsen = worsen[s]
        s = s - (u < p_improve) + (u >= 1.0 - p_worsen)
        states[m] = s
    return np.moveaxis(states, 0, -1)


def _dropout_from_uniforms(model: TransitionModel, u_flag, u_month):
    """(dropped, censor): the dropout flag and last observed month of each subject.

    A dropped subject is censored at 1 + floor(u_month * horizon), anyone
    else at the horizon.
    """
    dropped = u_flag < model.dropout_rate
    month = 1 + np.floor(np.asarray(u_month) * model.horizon_months).astype(np.int64)
    return dropped, np.where(dropped, month, model.horizon_months)


def simulate_block(
    control_model: TransitionModel,
    hazard_ratio: float,
    sample_size: int,
    seeds,
    improvement_hr: float | None = None,
) -> Trial:
    """Simulate 1:1 two-arm trials of one design; subjects 0..n/2-1 are control.

    seeds is one trial seed, giving one Trial, or an array of R trial
    seeds, giving a block of R trials on a leading replicate axis. Every
    stream is drawn in one pass and each arm evolves once over all of its
    rows. Subject i of the trial with seed s draws from mix64(s, i), so a
    trial is the same whichever block it is simulated in.
    """
    _check_sample_size(sample_size)
    model_e = apply_hazard_ratio(control_model, hazard_ratio, improvement_hr)
    half = sample_size // 2
    horizon = control_model.horizon_months

    draws = subject_uniforms(seeds, sample_size, horizon)
    states = np.empty(draws.shape[:-1] + (horizon + 1,), dtype=np.int8)
    states[..., :half, :] = _simulate_state_matrix(control_model, draws[..., :half, 2:])
    states[..., half:, :] = _simulate_state_matrix(model_e, draws[..., half:, 2:])
    dropped, censor = _dropout_from_uniforms(control_model, draws[..., 0], draws[..., 1])
    states[np.arange(horizon + 1) > censor[..., None]] = -1
    arms = np.repeat(np.array([Arm.CONTROL, Arm.EXPERIMENTAL], dtype=np.int8), half)
    return Trial(states=states, censor=censor, arms=arms, dropped=dropped)


def simulate_trial(config: TrialConfig) -> Trial:
    """Simulate one 1:1 two-arm trial; subjects 0..n/2-1 are control.

    Bit-reproducible: per-subject streams are derived from
    (config.seed, subject_index), so the same config always yields the
    same trajectories.
    """
    return simulate_block(
        config.control_model, config.hazard_ratio, config.sample_size, config.seed, config.improvement_hr
    )


def trial_state_matrix(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-subject observed states into (states, censor).

    Row i holds subject i's states for months 0..k_i. states is
    (n, max k_i + 1) int8 with -1 after each row's end, and censor[i] = k_i.
    """
    if not rows:
        raise ValueError("no trajectories supplied")
    censor = np.array([len(r) - 1 for r in rows], dtype=np.int64)
    states = np.full((len(rows), int(censor.max()) + 1), -1, dtype=np.int8)
    for i, r in enumerate(rows):
        states[i, : len(r)] = r
    return states, censor
