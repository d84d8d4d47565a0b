"""Command-line interface.

Subcommands: calibrate, simulate, analyze, power, samplesize, tte, plot.
Grid commands (power/samplesize/tte) read a JSON config (see config.py
for the schema); everything is deterministic given the config and seeds,
including across --workers counts.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, serialize
from .calibration import (
    CALIBRATION_SEED,
    DEFAULT_TEMPLATE,
    CalibrationError,
    CalibrationTarget,
    calibrate_transition_model,
    control_response_rates,
)
from .config import ConfigError, ExperimentGrid, parse_config
from .statistics import METHODS, arm_counts, count_tests, monthly_counts
from .svgplot import CurveSpec, PlotSpec, emit_svg_stepplot
from .trajectories import Arm, check_draws, simulate_trial


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwtasim",
        description="Simulate ordinal health-state trials and compare KM PFS/OS with weighted trajectory analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a transition model to control-arm response targets")
    p.add_argument("--cr", type=float, required=True, help="target control CR rate, e.g. 0.05")
    p.add_argument("--pr", type=float, required=True, help="target control PR rate, e.g. 0.30")
    p.add_argument("--tolerance", type=float, default=0.005)
    p.add_argument("--template", default=None, help="profile name/path supplying worsening probabilities")
    p.add_argument("--subjects", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=CALIBRATION_SEED)
    p.add_argument("--out", required=True, help="output profile JSON path")

    p = sub.add_parser("simulate", help="simulate one trial and write its trajectories CSV")
    p.add_argument("--profile", default="moderate")
    p.add_argument("--sample-size", type=int, required=True)
    p.add_argument("--hr", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--improvement-hr", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="run KM-PFS, KM-OS and CWTA on a trajectories CSV")
    p.add_argument("--trial", required=True, help="trajectories CSV (simulated or external)")
    p.add_argument("--out-dir", required=True)

    for name, help_text in (
        ("power", "rejection rate per method over an HR x sample-size grid"),
        ("samplesize", "power grid plus interpolated 80%-power sample sizes"),
        ("tte", "time to first significant month per method"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON path")
        p.add_argument("--workers", type=int, default=1)
        if name == "samplesize":
            p.add_argument("--target", type=float, default=0.8)

    p = sub.add_parser("plot", help="render curve CSVs to an SVG step plot")
    p.add_argument("curves", nargs="+", help="curve CSV files (KM or trajectory layout)")
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="")
    p.add_argument("--y-label", default="value")

    return parser


def resolve_workers(requested: int, cpus: int | None) -> int:
    """Pool size for a grid command: at least 1, at most the cpus available.

    A request below 1 raises ValueError; one above cpus is capped with a
    warning on stderr. cpus of None (unknown) caps nothing.
    """
    if requested < 1:
        raise ValueError(f"--workers must be at least 1, got {requested}")
    if cpus is not None and requested > cpus:
        print(f"warning: --workers {requested} exceeds the {cpus} available CPUs; using {cpus}", file=sys.stderr)
        return cpus
    return requested


def _usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the OS has one.

    The set reflects taskset and cpusets, which os.cpu_count() ignores; the
    fallback is os.cpu_count(), None when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _cmd_calibrate(args) -> int:
    if args.subjects < 1:
        raise ValueError(f"--subjects must be at least 1, got {args.subjects}")
    template = DEFAULT_TEMPLATE if args.template is None else serialize.load_profile(args.template)
    check_draws(args.subjects, template.horizon_months, name="--subjects")
    target = CalibrationTarget(cr_rate=args.cr, pr_rate=args.pr, tolerance=args.tolerance)
    model = calibrate_transition_model(target, template=template, n_subjects=args.subjects, seed=args.seed)
    serialize.save_profile(model, args.out)
    cr, pr = control_response_rates(model, n_subjects=args.subjects, seed=args.seed + 1)
    print(f"wrote {args.out}")
    print(f"fresh-seed check: CR {cr:.4f} (target {args.cr}), PR {pr:.4f} (target {args.pr})")
    return 0


def _cmd_simulate(args) -> int:
    model = serialize.load_profile(args.profile)
    trial = simulate_trial(model, args.hr, args.sample_size, args.seed, args.improvement_hr)
    serialize.write_trajectories_csv(trial, args.out)
    print(f"wrote {args.out} ({args.sample_size} subjects, hr {args.hr}, seed {args.seed})")
    return 0


def _cmd_analyze(args) -> int:
    trial = serialize.read_trajectories_csv(args.trial)
    if set(trial.arms.tolist()) != {Arm.CONTROL, Arm.EXPERIMENTAL}:
        raise ValueError("analyze needs subjects in both arms")
    os.makedirs(args.out_dir, exist_ok=True)

    counts = monthly_counts(trial)
    for method in METHODS:
        arms = arm_counts(counts[method])
        path = os.path.join(args.out_dir, f"curve_{method.lower()}.csv")
        if method == "CWTA":
            serialize.write_trajectory_curves_by_arm_csv(arms, path)
        else:
            serialize.write_km_curves_by_arm_csv(arms, path)
    results = count_tests(counts)
    serialize.write_tests_csv(results, os.path.join(args.out_dir, "tests.csv"))
    for method in METHODS:
        r = results[method]
        if r is None:
            print(f"{method}: degenerate (no usable events)")
        else:
            print(f"{method}: z = {r.z:.4f}, p = {r.p_value:.6g}")
    return 0


def _grid_from_config(path: str, command: str) -> tuple[ExperimentGrid, str]:
    """The grid and output directory of a config file; any fault of the config
    or of its profile is a ConfigError that starts with the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_config(raw.decode(), command)
    except (ValueError, OSError) as exc:  # ValueError covers ConfigError and a decode error
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_power(args) -> int:
    grid, out_dir = _grid_from_config(args.config, "power")
    os.makedirs(out_dir, exist_ok=True)
    rows = harness.power_rows(grid, workers=args.workers)
    out = os.path.join(out_dir, "power.csv")
    serialize.write_power_csv(rows, out)
    print(f"wrote {out}")
    return 0


def _cmd_samplesize(args) -> int:
    harness.check_target(args.target)
    grid, out_dir = _grid_from_config(args.config, "samplesize")
    os.makedirs(out_dir, exist_ok=True)
    power = harness.power_rows(grid, workers=args.workers)
    serialize.write_power_csv(power, os.path.join(out_dir, "power.csv"))
    rows = harness.sample_size_rows(power, target=args.target)
    for row in rows:
        if row.sample_size is None:
            print(f"warning: {row.method} at HR {row.hr}: {row.unreached}", file=sys.stderr)
    out = os.path.join(out_dir, "sample_size.csv")
    serialize.write_sample_size_csv(rows, out)
    print(f"wrote {out}")
    return 0


def _cmd_tte(args) -> int:
    grid, out_dir = _grid_from_config(args.config, "tte")
    os.makedirs(out_dir, exist_ok=True)
    rows = harness.tte_rows(grid, workers=args.workers)
    out = os.path.join(out_dir, "tte.csv")
    serialize.write_tte_csv(rows, out)
    print(f"wrote {out}")
    return 0


def _cmd_plot(args) -> int:
    curves: list[CurveSpec] = []
    for path in args.curves:
        stem = os.path.splitext(os.path.basename(path))[0]
        for label, points in serialize.read_curves_csv(path):
            name = f"{stem} {label}".strip()
            curves.append(CurveSpec(label=name, points=tuple(points)))
    svg = emit_svg_stepplot(PlotSpec(curves=tuple(curves), title=args.title, y_label=args.y_label))
    # UTF-8 whatever the locale; argv bytes the locale could not decode go back out unchanged
    with open(args.out, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "power": _cmd_power,
    "samplesize": _cmd_samplesize,
    "tte": _cmd_tte,
    "plot": _cmd_plot,
}


def run_cli(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "workers"):
            args.workers = resolve_workers(args.workers, _usable_cpus())
        return _COMMANDS[args.command](args)
    except (ConfigError, CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}".replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)  # one line
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
