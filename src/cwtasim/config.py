"""Experiment configuration: the grid type and its strict JSON document.

ExperimentGrid is the one description of a power/TTE experiment, profile
model included, and its constructor is the one place each grid rule is
checked. parse_config reads the JSON document, profile loaded, into a grid
plus an output directory. Unknown fields, and fields named twice in one
object, are rejected so typos fail loudly instead of silently running a
default or the last value. The schema (all fields optional):

    {
      "profile": "moderate" | "high" | "path/to/profile.json",
      "hazard_ratios": [0.5, 0.6, 0.7, 0.8],    # distinct, > 0, each one the profile can take
      "sample_sizes": [20, 60, ...],            # distinct, even (1:1 allocation), within the draw cap
      "replicates": 1000 | {"0.5": 100, ...},   # or one count per listed HR; <= 10**7
      "alpha": 0.05,
      "master_seed": 0,
      "output_dir": "results"
    }

Defaults depend on the command: power and samplesize run
DEFAULT_POWER_SIZES at 1000 replicates, tte runs DEFAULT_TTE_SIZES at 100
replicates below HR 0.8 and 1000 at or above it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Mapping

from .serialize import load_profile
from .trajectories import TransitionModel, _check_sample_size, apply_hazard_ratio, check_draws, json_object

DEFAULT_PROFILE = "moderate"
DEFAULT_HAZARD_RATIOS = (0.5, 0.6, 0.7, 0.8)
DEFAULT_POWER_SIZES = (20, 40, 60, 80, 100, 140, 180, 240, 320, 400, 500)
DEFAULT_TTE_SIZES = (30, 60, 90, 120, 150, 180, 210, 240, 270, 300, 350, 400, 450, 500)
MAX_REPLICATES = 10**7  # per grid point; the result columns alone take about 0.5 GB


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_hr(value, context: str) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{context}: hazard ratio must be a number, got {value!r}")
    if not value > 0:
        raise ValueError(f"{context}: hazard ratio must be positive, got {value}")


def _check_replicate_count(value) -> None:
    if not _is_int(value):
        raise ValueError(f"replicates must be an integer, got {value!r}")
    if not 1 <= value <= MAX_REPLICATES:
        raise ValueError(f"replicates must lie in 1..{MAX_REPLICATES}, got {value}")


def _check_list(name: str, values) -> None:
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name}: must be a non-empty list, got {values!r}")


def _check_distinct(name: str, values) -> None:
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{name}: {value} is listed more than once")
        seen.add(value)


@dataclass(frozen=True)
class ExperimentGrid:
    """A power/TTE experiment: HR x sample-size grid plus run parameters.

    profile is the control arm's TransitionModel. replicates is one count for
    every grid point or a mapping from hazard ratio to count, keyed by exactly
    the grid's hazard ratios. Points run HR by HR, each over every sample size.
    """

    hazard_ratios: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    replicates: int | Mapping[float, int]
    alpha: float = 0.05
    profile: TransitionModel = field(default_factory=lambda: load_profile(DEFAULT_PROFILE))
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.profile, TransitionModel):
            raise ValueError(f"profile: must be a TransitionModel, got {self.profile!r}")
        _check_list("hazard_ratios", self.hazard_ratios)
        for hr in self.hazard_ratios:
            _check_hr(hr, "hazard_ratios")
            apply_hazard_ratio(self.profile, float(hr))  # raises if the rescaled model is invalid
        _check_distinct("hazard_ratios", self.hazard_ratios)
        _check_list("sample_sizes", self.sample_sizes)
        for ss in self.sample_sizes:
            if not _is_int(ss):
                raise ValueError(f"sample_sizes: sizes must be integers, got {ss!r}")
            _check_sample_size(ss)
            check_draws(ss, self.profile.horizon_months)  # a block is at most BLOCK_ROWS rows or one trial
        _check_distinct("sample_sizes", self.sample_sizes)
        if isinstance(self.replicates, Mapping):
            for hr, count in self.replicates.items():
                _check_hr(hr, "replicates")
                _check_replicate_count(count)
            missing = [hr for hr in self.hazard_ratios if hr not in self.replicates]
            if missing:
                raise ValueError(f"replicates mapping lacks hazard ratio(s): {missing}")
            extra = [hr for hr in self.replicates if hr not in self.hazard_ratios]
            if extra:
                raise ValueError(f"replicates mapping names hazard ratio(s) not on the grid: {extra}")
        else:
            _check_replicate_count(self.replicates)
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real):
            raise ValueError(f"alpha: must be a number, got {self.alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha: must lie in the open interval (0, 1), got {self.alpha}")
        if not _is_int(self.master_seed):
            raise ValueError(f"master_seed: must be an integer, got {self.master_seed!r}")
        object.__setattr__(self, "hazard_ratios", tuple(float(hr) for hr in self.hazard_ratios))
        object.__setattr__(self, "sample_sizes", tuple(int(ss) for ss in self.sample_sizes))
        object.__setattr__(self, "alpha", float(self.alpha))

    def replicates_for(self, hr: float) -> int:
        if isinstance(self.replicates, Mapping):
            return int(self.replicates[hr])
        return int(self.replicates)


_KNOWN_FIELDS = {f.name for f in fields(ExperimentGrid)} | {"output_dir"}


def parse_config(text: str, command: str) -> tuple[ExperimentGrid, str]:
    """The grid and output directory of an experiment config JSON document,
    with the defaults of a grid command (power, samplesize or tte)."""
    try:
        data = json.loads(text, object_pairs_hook=json_object)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

    values = dict(data)
    output_dir = values.pop("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: must be a non-empty string")
    if isinstance(values.get("replicates"), dict):
        replicates: dict[float, object] = {}
        keys: dict[float, str] = {}  # hazard ratio -> the key that names it
        for key, value in values["replicates"].items():
            try:
                hr = float(key)
            except ValueError:
                raise ConfigError(f"replicates: key {key!r} is not a hazard ratio") from None
            if keys.setdefault(hr, key) != key:
                raise ConfigError(f"replicates: keys {keys[hr]!r} and {key!r} name one hazard ratio, {hr}")
            replicates[hr] = value
        values["replicates"] = replicates
    values.setdefault("hazard_ratios", DEFAULT_HAZARD_RATIOS)
    values.setdefault("sample_sizes", DEFAULT_TTE_SIZES if command == "tte" else DEFAULT_POWER_SIZES)
    tte_default = command == "tte" and "replicates" not in values
    values.setdefault("replicates", 1000)
    try:  # an OSError of the profile file passes as itself
        profile = values.get("profile", DEFAULT_PROFILE)
        if not isinstance(profile, str) or not profile:
            raise ValueError(f"profile: must be a non-empty string, got {profile!r}")
        values["profile"] = load_profile(profile)  # before the grid, whose every rule may need the model
        grid = ExperimentGrid(**values)
        if tte_default:  # weak effects need more replicates for stable survival-time spreads
            grid = replace(grid, replicates={hr: 1000 if hr >= 0.8 else 100 for hr in grid.hazard_ratios})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return grid, output_dir
