"""Experiment configuration: a strict JSON document.

Unknown fields are rejected so typos fail loudly instead of silently
running a default. The schema (all fields optional):

    {
      "profile": "moderate" | "high" | "path/to/profile.json",
      "hazard_ratios": [0.5, 0.6, 0.7, 0.8],
      "sample_sizes": [20, 60, ...],            # even, 1:1 allocation
      "replicates": 1000 | {"0.5": 100, ...},   # per-HR mapping allowed; <= 10**7
      "alpha": 0.05,
      "master_seed": 0,
      "output_dir": "results"
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_HAZARD_RATIOS = (0.5, 0.6, 0.7, 0.8)
DEFAULT_POWER_SIZES = (20, 40, 60, 80, 100, 140, 180, 240, 320, 400, 500)
DEFAULT_TTE_SIZES = (30, 60, 90, 120, 150, 180, 210, 240, 270, 300, 350, 400, 450, 500)
MAX_REPLICATES = 10**7  # per grid point; the result columns alone take about 0.5 GB


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str = "moderate"
    hazard_ratios: tuple[float, ...] = DEFAULT_HAZARD_RATIOS
    sample_sizes: tuple[int, ...] | None = None
    replicates: int | dict | None = None
    alpha: float = 0.05
    master_seed: int = 0
    output_dir: str = "."


_KNOWN_FIELDS = (
    "profile",
    "hazard_ratios",
    "sample_sizes",
    "replicates",
    "alpha",
    "master_seed",
    "output_dir",
)


def _check_hr(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: hazard ratio must be a number, got {value!r}")
    if not value > 0:
        raise ConfigError(f"{context}: hazard ratio must be positive, got {value}")
    return float(value)


def _check_replicate_count(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: replicates must be an integer, got {value!r}")
    if not 1 <= value <= MAX_REPLICATES:
        raise ConfigError(f"{context}: replicates must lie in 1..{MAX_REPLICATES}, got {value}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config JSON document."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - set(_KNOWN_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

    out: dict = {}
    if "profile" in data:
        if not isinstance(data["profile"], str) or not data["profile"]:
            raise ConfigError("profile: must be a non-empty string")
        out["profile"] = data["profile"]
    if "hazard_ratios" in data:
        hrs = data["hazard_ratios"]
        if not isinstance(hrs, list) or not hrs:
            raise ConfigError("hazard_ratios: must be a non-empty list")
        out["hazard_ratios"] = tuple(_check_hr(v, "hazard_ratios") for v in hrs)
    if "sample_sizes" in data:
        sizes = data["sample_sizes"]
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError("sample_sizes: must be a non-empty list")
        checked = []
        for v in sizes:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"sample_sizes: sizes must be integers, got {v!r}")
            if v < 2 or v % 2 != 0:
                raise ConfigError(
                    f"sample_sizes: {v} is invalid; subjects are allocated 1:1, so sizes must be even and >= 2"
                )
            checked.append(v)
        out["sample_sizes"] = tuple(checked)
    if "replicates" in data:
        reps = data["replicates"]
        if isinstance(reps, dict):
            parsed: dict[float, int] = {}
            for key, value in reps.items():
                try:
                    hr = float(key)
                except ValueError:
                    raise ConfigError(f"replicates: key {key!r} is not a hazard ratio") from None
                parsed[_check_hr(hr, "replicates")] = _check_replicate_count(value, "replicates")
            out["replicates"] = parsed
        else:
            out["replicates"] = _check_replicate_count(reps, "replicates")
    if "alpha" in data:
        alpha = data["alpha"]
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise ConfigError(f"alpha: must be a number, got {alpha!r}")
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha: must lie in the open interval (0, 1), got {alpha}")
        out["alpha"] = float(alpha)
    if "master_seed" in data:
        seed = data["master_seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"master_seed: must be an integer, got {seed!r}")
        out["master_seed"] = seed
    if "output_dir" in data:
        if not isinstance(data["output_dir"], str) or not data["output_dir"]:
            raise ConfigError("output_dir: must be a non-empty string")
        out["output_dir"] = data["output_dir"]
    return ExperimentConfig(**out)


def default_replicates_for_tte(hazard_ratios: tuple[float, ...]) -> dict[float, int]:
    """Weak effects need more replicates for stable survival-time spreads."""
    return {hr: (1000 if hr >= 0.8 else 100) for hr in hazard_ratios}
