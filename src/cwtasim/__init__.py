"""Trial simulation and survival statistics for ordinal health-state trajectories.

Simulates two-arm oncology trials as monthly ordinal state processes
(CR < PR < SD < PD < Death) and analyzes them three ways: Kaplan-Meier
progression-free survival, Kaplan-Meier overall survival, and a weighted
trajectory test that scores every state move by its magnitude.
"""

from .calibration import (
    CALIBRATION_SEED,
    DEFAULT_TEMPLATE,
    CalibrationError,
    CalibrationTarget,
    calibrate_transition_model,
    control_response_rates,
)
from .config import (
    DEFAULT_POWER_SIZES,
    DEFAULT_TTE_SIZES,
    ConfigError,
    ExperimentGrid,
    parse_config,
)
from .harness import (
    PowerEstimate,
    ReplicateScans,
    SampleSizeEstimate,
    TTEComparison,
    TTESummary,
    compare_tte,
    estimate_power,
    first_months,
    interpolate_sample_size,
    power_rows,
    run_replicates,
    sample_size_rows,
    scan_trial,
    summarize_tte,
    tte_rows,
)
from .kaplan_meier import (
    DegenerateTestError,
    Endpoint,
    TestResult,
    endpoint_arrays,
)
from .seeds import mix64, mix64_array
from .serialize import (
    load_profile,
    read_trajectories_csv,
    save_profile,
    write_power_csv,
    write_sample_size_csv,
    write_tests_csv,
    write_trajectories_csv,
    write_tte_csv,
)
from .trajectories import (
    CR,
    DEATH,
    MAX_STATE,
    PD,
    PR,
    SD,
    Arm,
    TransitionModel,
    Trial,
    apply_hazard_ratio,
    simulate_trial,
)
from .weighted import METHODS, arm_counts, count_tests, monthly_counts

__version__ = "0.1.0"

__all__ = [
    "Arm",
    "CALIBRATION_SEED",
    "CR",
    "CalibrationError",
    "CalibrationTarget",
    "ConfigError",
    "DEATH",
    "DEFAULT_POWER_SIZES",
    "DEFAULT_TEMPLATE",
    "DEFAULT_TTE_SIZES",
    "DegenerateTestError",
    "Endpoint",
    "ExperimentGrid",
    "MAX_STATE",
    "METHODS",
    "PD",
    "PR",
    "PowerEstimate",
    "ReplicateScans",
    "SD",
    "SampleSizeEstimate",
    "TTEComparison",
    "TTESummary",
    "TestResult",
    "TransitionModel",
    "Trial",
    "apply_hazard_ratio",
    "arm_counts",
    "calibrate_transition_model",
    "compare_tte",
    "control_response_rates",
    "count_tests",
    "endpoint_arrays",
    "estimate_power",
    "first_months",
    "interpolate_sample_size",
    "load_profile",
    "mix64",
    "mix64_array",
    "monthly_counts",
    "parse_config",
    "power_rows",
    "read_trajectories_csv",
    "run_replicates",
    "sample_size_rows",
    "save_profile",
    "scan_trial",
    "simulate_trial",
    "summarize_tte",
    "tte_rows",
    "write_power_csv",
    "write_sample_size_csv",
    "write_tests_csv",
    "write_trajectories_csv",
    "write_tte_csv",
]
