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
per subject: trial_uniforms draws the streams of every subject of a block
of trials at once with seeds.pcg64_uniforms, a vectorized SeedSequence +
PCG64 that steps every stream in lanes of consecutive draws and that the
oracle test checks bit for bit against default_rng. It returns a
month-major (F-contiguous) view, so reading one month for every subject
is a contiguous read. One pass draws at most MAX_DRAWS uniforms, and a
model's horizon is at most MAX_HORIZON months, so an oversized sample or
horizon is refused with a ValueError instead of exhausting memory.

A trial has one form from simulation to every statistic: Trial, the
padded (n, horizon + 1) state matrix with each subject's censor month,
arm and dropout flag. There are no per-subject objects; the CSV reader
scatters its rows straight into the same form. Every Trial is a block of
trials, its trials' subject rows one after another, and starts holds
each trial's first row: the trial boundaries that the monthly counts are
keyed by. A single trial is a block of one, starts [0]. simulate_trials,
the one simulator, simulates a block whose trials may differ in hazard
ratio and sample size; simulate_trial is its call for one trial.

_simulate_state_matrix is the one month-step kernel, for trials and for
calibration alike; calibration runs it a round of months at a time, from
each round's starting month and states. It evolves every row of a block
in one pass, each row gathering its thresholds from stacked per-state
tables -- the control arm's, then one experimental arm's per hazard
ratio -- at its state plus N_STATES times its table. The structural zeros (CR never improves, death
never worsens) keep that index inside its table's entries, which is why
the gather's mode="clip" never clips.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from math import expm1, log1p
from typing import Sequence

import numpy as np

from .seeds import as_uint64, mix64_array, pcg64_uniforms

CR, PR, SD, PD, DEATH = 0, 1, 2, 3, 4
N_STATES = 5
MAX_STATE = 4  # ordinal span; one level change = weight 1/MAX_STATE
MAX_HORIZON = 1200  # months of follow-up a model may ask for (100 years)
MAX_DRAWS = 2**27  # uniforms one pass may draw (1 GiB of doubles)

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


def json_number(value, field: str) -> float:
    """A JSON document's number as a float; a bool, string, null or other
    value, or an integer too large for a float, raises ValueError naming field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} = {value} is out of range") from None


def json_object(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of every JSON document read: a field named twice,
    which json.loads would silently resolve to its last value, is a ValueError."""
    data: dict = {}
    for name, value in pairs:
        if name in data:
            raise ValueError(f"field {name!r} is named twice in one object")
        data[name] = value
    return data


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
        if not 1 <= int(self.horizon_months) <= MAX_HORIZON:
            raise ValueError(f"horizon_months must lie in 1..{MAX_HORIZON}, got {self.horizon_months}")
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
            return tuple(json_number(mapping.get(k, 0.0), f"{field}['{k}']") for k in _STATE_KEYS)

        horizon = data.get("horizon_months", 60)
        if isinstance(horizon, bool) or not isinstance(horizon, int):
            raise ValueError(f"horizon_months must be an integer, got {horizon!r}")
        return cls(
            improve_prob=probs("improve_prob"),
            worsen_prob=probs("worsen_prob"),
            improve_decay=json_number(data.get("improve_decay", 1.0), "improve_decay"),
            horizon_months=horizon,
            dropout_rate=json_number(data.get("dropout_rate", 0.10), "dropout_rate"),
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
    given, in which case the same transform is applied to them. The
    improvement decay is never changed, so both arms share the control
    model's. A ratio that makes the model invalid raises ValueError naming it.
    """
    if not hr > 0.0:
        raise ValueError(f"hazard ratio must be positive, got {hr}")
    worsen = tuple(_scale_probability(b, hr) for b in model.worsen_prob)
    improve = model.improve_prob
    if improvement_hr is not None:
        if not improvement_hr > 0.0:
            raise ValueError(f"improvement hazard ratio must be positive, got {improvement_hr}")
        improve = tuple(_scale_probability(a, improvement_hr) for a in model.improve_prob)
    try:
        return replace(model, worsen_prob=worsen, improve_prob=improve)
    except ValueError as exc:  # the one rule rescaling can break: improve + worsen exceeds 1
        hr_fits = all(a + b <= 1.0 for a, b in zip(model.improve_prob, worsen))
        ratio = f"improvement hazard ratio {improvement_hr}" if improvement_hr and hr_fits else f"hazard ratio {hr}"
        raise ValueError(f"{ratio} does not fit the profile: {exc}") from None


def _check_sample_size(sample_size: int) -> None:
    if sample_size < 2 or sample_size % 2 != 0:
        raise ValueError(
            f"sample_size must be an even integer >= 2 for 1:1 allocation, got {sample_size}"
        )


@dataclass(frozen=True, eq=False)
class Trial:
    """A two-arm trial in columnar form: one row per subject.

    states is (n, horizon + 1) int8: states[i, 0] is the SD baseline and
    every month after censor[i], the last observed month, holds -1.
    arms[i] is the Arm index. dropped[i] tells a subject who dropped out
    at the horizon month apart from one observed to the end.

    A block of trials has the same form over all of its trials' rows,
    which follow each other trial by trial; starts holds each trial's
    first row, in increasing order. A single trial is a block of one:
    starts defaults to [0].
    """

    states: np.ndarray
    censor: np.ndarray
    arms: np.ndarray
    dropped: np.ndarray
    starts: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    @property
    def horizon(self) -> int:
        return self.states.shape[-1] - 1


def check_draws(n: int, horizon: int, rows: int | None = None, name: str = "sample size") -> None:
    """Raise ValueError if one pass over `rows` subject rows (default n), of
    trials of sample size at most n, would draw more than MAX_DRAWS uniforms.
    The message names n as name."""
    need = (n if rows is None else rows) * (horizon + 2)
    if need > MAX_DRAWS:
        raise ValueError(
            f"{name} {n} at a {horizon}-month horizon needs {need} uniforms, "
            f"more than the {MAX_DRAWS} one pass may draw"
        )


def trial_uniforms(seeds, sizes, horizon: int) -> np.ndarray:
    """(sum(sizes), horizon + 2) uniform draws of a block of trials, in one pass.

    Trial k has seed seeds[k] and sizes[k] subject rows, which follow trial
    k - 1's; its row i is drawn from the stream mix64(seeds[k], i). Column
    layout per subject: dropout flag, dropout month, then one draw per
    month 1..horizon. Blocks are always drawn in full so the layout stays
    fixed regardless of what happens to the subject. The result is a view
    of a C-contiguous buffer with the draw axis first, so one month of
    every subject is contiguous. A block that would draw more than
    MAX_DRAWS uniforms raises ValueError before anything is allocated.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    check_draws(int(sizes.max(initial=0)), horizon, int(sizes.sum()))
    return pcg64_uniforms(_subject_seeds(seeds, sizes), horizon + 2).T


def _subject_seeds(seeds, sizes: np.ndarray) -> np.ndarray:
    """mix64(seeds[k], i) for subject row i of every trial k, rows trial by trial."""
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    subjects = (np.arange(len(first)) - first).astype(np.uint64)
    return mix64_array((np.repeat(as_uint64(seeds), sizes),), subjects)


def _simulate_state_matrix(
    models: Sequence[TransitionModel],
    monthly_u: np.ndarray,
    table: np.ndarray | None = None,
    first_month: int = 1,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Evolve the state ladder for a batch of subjects: the one month-step kernel.

    monthly_u is (rows, months), one uniform per subject for each month
    first_month, first_month + 1, ...; start holds each row's state at
    month first_month - 1, the SD baseline when None. Row i evolves under
    models[table[i]], or under models[0] when table is None. The
    improvement decay is models[0]'s for every row; apply_hazard_ratio
    never changes it. A path evolved in pieces, each from the last piece's
    final states, is the path evolved at once.

    The draw decides [improve | stay | worsen] in that order: improve iff
    u < p_improve, worsen iff u >= 1 - p_worsen. Model validation
    guarantees the two intervals never overlap. The tables are built once:
    improve_prob * decay**(m - 1) for every month m, and 1 - worsen_prob,
    entry s + N_STATES * k for state s of models[k]; every row gathers its
    two thresholds from them each month. Each entry is the very product or
    difference the per-subject rule computes, so the states are that
    rule's bit for bit. A row's index never leaves its table's N_STATES
    entries, since CR cannot improve and death cannot worsen, so
    mode="clip" never clips. States are updated in place, one month-major
    row a month, offset by N_STATES * table (int8, or int16 when the
    offsets need it); the offset is removed once at the end, and the
    (rows, months + 1) int8 result, start first, is a month-major view.
    """
    rows, horizon = monthly_u.shape
    decay = models[0].improve_decay
    improve = np.array([model.improve_prob for model in models]).ravel()
    months = range(first_month, first_month + horizon)
    improve_by_month = np.array([decay ** (m - 1) for m in months])[:, None] * improve
    worsen_from = 1.0 - np.array([model.worsen_prob for model in models]).ravel()
    dtype = np.int8 if improve.size <= 128 else np.int16
    offset = 0 if table is None else (N_STATES * table).astype(dtype)
    states = np.empty((horizon + 1, rows), dtype=dtype)
    states[0] = (SD if start is None else start) + offset
    index = states[0].astype(np.intp)
    p_improve, p_worsen_from, moved = np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool)
    for m in range(1, horizon + 1):
        u = monthly_u[:, m - 1]
        improve_by_month[m - 1].take(index, out=p_improve, mode="clip")
        worsen_from.take(index, out=p_worsen_from, mode="clip")
        np.less(u, p_improve, out=moved)
        np.subtract(states[m - 1], moved, out=states[m])
        np.greater_equal(u, p_worsen_from, out=moved)
        states[m] += moved
        index[...] = states[m]
    if table is not None:
        states -= offset
    return states.astype(np.int8, copy=False).T


def _dropout_from_uniforms(model: TransitionModel, u_flag, u_month):
    """(dropped, censor): the dropout flag and last observed month of each subject.

    A dropped subject is censored at 1 + floor(u_month * horizon), anyone
    else at the horizon.
    """
    dropped = u_flag < model.dropout_rate
    month = 1 + np.floor(np.asarray(u_month) * model.horizon_months).astype(np.int64)
    return dropped, np.where(dropped, month, model.horizon_months)


def simulate_trials(
    control_model: TransitionModel,
    designs: Sequence[tuple[float, int, np.ndarray]],
    improvement_hr: float | None = None,
) -> Trial:
    """Simulate a block of 1:1 two-arm trials as flat subject rows.

    designs lists (hazard_ratio, sample_size, seeds) runs: one trial per
    seed, trials in order, each with subjects 0..n/2-1 in control. Every
    stream of the block is drawn in one pass (trial_uniforms), and every
    row evolves in one kernel call under the control arm's table or its
    hazard ratio's experimental table. Subject i of the trial with seed s
    draws from mix64(s, i), so a trial is the same whichever block it is
    simulated in.
    """
    horizon = control_model.horizon_months
    experimental: dict[float, tuple[int, TransitionModel]] = {}  # hazard ratio -> (table, arm model)
    runs = []  # (experimental table, sample size, trial seeds) of each design
    for hazard_ratio, sample_size, trial_seeds in designs:
        _check_sample_size(sample_size)
        if hazard_ratio not in experimental:
            arm = apply_hazard_ratio(control_model, hazard_ratio, improvement_hr)
            experimental[hazard_ratio] = (len(experimental) + 1, arm)
        runs.append((experimental[hazard_ratio][0], sample_size, np.atleast_1d(as_uint64(trial_seeds))))
    sizes = np.concatenate([np.full(len(seeds), n) for _, n, seeds in runs])

    draws = trial_uniforms(np.concatenate([seeds for *_, seeds in runs]), sizes, horizon)  # checks the size first
    table = np.concatenate([np.tile(np.repeat([0, k], n // 2), len(seeds)) for k, n, seeds in runs])
    models = [control_model] + [arm for _, arm in experimental.values()]
    states = _simulate_state_matrix(models, draws[:, 2:], table)
    dropped, censor = _dropout_from_uniforms(control_model, draws[:, 0], draws[:, 1])
    late = np.flatnonzero(censor < horizon)  # only subjects who dropped out early have months to blank
    states[late] = np.where(np.arange(horizon + 1) > censor[late, None], -1, states[late])
    arms = (table > 0).astype(np.int8)  # Arm.EXPERIMENTAL wherever the table is a hazard ratio's
    return Trial(states=states, censor=censor, arms=arms, dropped=dropped, starts=np.cumsum(sizes) - sizes)


def simulate_trial(
    control_model: TransitionModel,
    hazard_ratio: float,
    sample_size: int,
    seed: int,
    improvement_hr: float | None = None,
) -> Trial:
    """Simulate one 1:1 two-arm trial, subjects 0..n/2-1 in control:
    simulate_trials' block of one seed.

    Bit-reproducible: subject i draws from the stream mix64(seed, i), so the
    same arguments always yield the same trajectories.
    """
    return simulate_trials(control_model, ((hazard_ratio, sample_size, seed),), improvement_hr)
