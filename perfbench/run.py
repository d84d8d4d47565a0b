"""End-to-end and per-layer benchmark of the cwtasim Monte Carlo engine.

Drives the public entry point ``cwtasim.cli.run_cli`` in-process on one of
four workloads (or all of them), times repeated CLI invocations with
tracing off, and checks every output file against golden SHA-256 digests.

    python3 perfbench/run.py --workload grid_small_n --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --smoke --trace 1

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (workers = 1), with the traced spans written to
``.perfbench_work/``. Run it from the root of a source checkout: the
package is imported from ``src/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
METHODS = ("CWTA", "PFS", "OS")
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import cwtasim.cli; cwtasim.cli.serialize.load_profile('moderate')"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    """One benchmark input: how to build it from a seed, and what it outputs."""

    name: str
    why: str
    prepare: Callable  # (workload, work dir, seed, smoke) -> run_cli argv
    outputs: tuple
    check: Callable  # (workload, out dir, stdout, smoke) -> problem or None
    default_workers: int = 1
    # (hazard ratios, sample sizes, replicates) for full and smoke runs; only
    # the grid workloads take --workers and can go through the process pool
    grid: tuple = ()


def _grid_shape(workload: Workload, smoke: bool):
    full, tiny = workload.grid
    return tiny if smoke else full


def _prepare_grid(workload: Workload, work: Path, seed: int, smoke: bool) -> list:
    hrs, sizes, reps = _grid_shape(workload, smoke)
    config = {
        "profile": "moderate",
        "hazard_ratios": list(hrs),
        "sample_sizes": list(sizes),
        "replicates": reps,
        "master_seed": seed,
        "output_dir": str(work / "out"),
    }
    path = work / "experiment.json"
    path.write_text(json.dumps(config))
    return ["power", "--config", str(path)]


def _check_power(workload: Workload, out: Path, stdout: str, smoke: bool) -> str | None:
    hrs, sizes, reps = _grid_shape(workload, smoke)
    lines = (out / "power.csv").read_text().splitlines()
    if lines[0] != "method,hr,ss,replicates,power":
        return f"power.csv header is {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(METHODS) * len(hrs) * len(sizes):
        return f"power.csv has {len(rows)} rows"
    for method, hr, ss, replicates, power in rows:
        if method not in METHODS or int(replicates) != reps or not 0.0 <= float(power) <= 1.0:
            return f"power.csv row {method},{hr},{ss},{replicates},{power} is out of range"
    return None


CAL_TARGET = (0.05, 0.30, 0.005)  # CR, PR, tolerance
CAL_SUBJECTS = (100_000, 4_000)  # full, smoke
CAL_SEED_BASE = 201805  # the CLI's default calibration seed; workload seed 0 reproduces it


def _prepare_calibrate(workload: Workload, work: Path, seed: int, smoke: bool) -> list:
    cr, pr, tol = CAL_TARGET
    return [
        "calibrate", "--cr", str(cr), "--pr", str(pr), "--tolerance", str(tol),
        "--subjects", str(CAL_SUBJECTS[smoke]), "--seed", str(CAL_SEED_BASE + seed),
        "--out", str(work / "out" / "profile.json"),
    ]  # fmt: skip


def _check_calibrate(workload: Workload, out: Path, stdout: str, smoke: bool) -> str | None:
    cr, pr, tol = CAL_TARGET
    match = re.search(r"fresh-seed check: CR ([0-9.]+) .*PR ([0-9.]+)", stdout)
    if match is None:
        return "calibrate printed no fresh-seed check"
    n = CAL_SUBJECTS[smoke]
    for got, want in zip(map(float, match.groups()), (cr, pr)):
        # within tolerance plus five Monte Carlo standard errors of the fresh cohort
        if abs(got - want) > tol + 5.0 * (want * (1.0 - want) / n) ** 0.5:
            return f"fresh-seed rate {got} is too far from target {want}"
    profile = json.loads((out / "profile.json").read_text())
    if not 0.0 < profile["improve_prob"]["1"] < 1.0 or not 0.0 < profile["improve_prob"]["2"] < 1.0:
        return "fitted improvement probabilities are out of range"
    return None


ANALYZE_SUBJECTS = (10_000, 300)  # full, smoke


def _prepare_analyze(workload: Workload, work: Path, seed: int, smoke: bool) -> list:
    """Write the external-trial CSV from the seed; then return the analyze argv.

    The CSV is simulated in a child interpreter so that its memory does not
    count towards this process's peak RSS.
    """
    trial = work / "trial.csv"
    argv = [
        "simulate", "--profile", "moderate", "--sample-size", str(ANALYZE_SUBJECTS[smoke]),
        "--hr", "0.7", "--seed", str(seed), "--out", str(trial),
    ]  # fmt: skip
    code = "import sys; sys.path.insert(0, sys.argv[1]); from cwtasim.cli import run_cli; sys.exit(run_cli(sys.argv[2:]))"
    subprocess.run([sys.executable, "-c", code, str(SRC), *argv], check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return ["analyze", "--trial", str(trial), "--out-dir", str(work / "out")]


def _check_analyze(workload: Workload, out: Path, stdout: str, smoke: bool) -> str | None:
    lines = (out / "tests.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != list(METHODS):
        return f"tests.csv lists methods {[r[0] for r in rows]}"
    for row in rows:
        if not 0.0 <= float(row[3]) <= 1.0:
            return f"tests.csv p-value {row[3]} for {row[0]} is out of range"
    for name in ("curve_pfs.csv", "curve_os.csv", "curve_cwta.csv"):
        if len((out / name).read_text().splitlines()) < 3:
            return f"{name} has no curve rows"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid_small_n",
            "Small trials, where fixed per-replicate cost dominates: month loops, p-values, config and result objects.",
            _prepare_grid,
            ("power.csv",),
            _check_power,
            default_workers=1,
            grid=(((0.5, 0.7), (20, 40, 60), 30), ((0.7,), (20,), 4)),
        ),
        Workload(
            "grid_large_n",
            "Large trials through the process pool, where per-subject cost dominates: one generator per subject.",
            _prepare_grid,
            ("power.csv",),
            _check_power,
            default_workers=2,
            grid=(((0.9,), (800,), 24), ((0.7,), (200,), 4)),
        ),
        Workload(
            "calibrate",
            "Uniforms drawn once and read by about 20 vectorized solver evaluations; bypasses statistics and harness.",
            _prepare_calibrate,
            ("profile.json",),
            _check_calibrate,
        ),
        Workload(
            "analyze_csv",
            "The only path through the CSV reader, km_estimate, cwta_curve and the curve writers.",
            _prepare_analyze,
            ("tests.csv", "curve_pfs.csv", "curve_os.csv", "curve_cwta.csv"),
            _check_analyze,
        ),
    )
}


def invoke(argv: list) -> tuple:
    """One in-process CLI call: (exit code, stdout, stderr, wall seconds).

    An exception escaping run_cli counts as exit code 1, as it would for
    the command-line program, with its traceback as stderr.
    """
    from cwtasim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run_cli(argv)
        except Exception:
            rc = 1
            traceback.print_exc()
        wall = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), wall


def digests(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names if (out / n).exists()}


class Verifier:
    """Counts CLI invocations and decides, for each, whether it failed.

    An invocation fails when its exit code is not zero, its outputs fail the
    workload's sanity check, or an output digest differs from the golden
    digest for this seed (or, for a seed without goldens, from the first
    invocation of the run). Every worker count is held to the same digests,
    which keeps worker invariance under watch.
    """

    def __init__(self, workload: Workload, out: Path, smoke: bool, expected: dict | None):
        self.workload, self.out, self.smoke = workload, out, smoke
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, rc: int, stdout: str, stderr: str) -> dict:
        self.attempted += 1
        got: dict = {}
        if rc != 0:
            problem = f"exit code {rc}: {stderr.strip()}"
        else:
            got = digests(self.out, self.workload.outputs)
            missing = [n for n in self.workload.outputs if n not in got]
            try:
                problem = self.workload.check(self.workload, self.out, stdout, self.smoke)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
            if missing:
                problem = f"missing output {', '.join(missing)}"
            elif problem is None:
                if self.expected is None:
                    self.expected = got
                elif got != self.expected:
                    bad = sorted(k for k in set(got) | set(self.expected) if got.get(k) != self.expected.get(k))
                    problem = f"digest mismatch in {', '.join(bad)}"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            print(f"failed op ({self.workload.name}): {problem}", file=sys.stderr)
        return got


REF_NOMINAL_S = 0.09  # the reference kernel's time at the nominal machine speed


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and large-array work.

    It calls numpy only, never cwtasim, so no change to the package moves
    it: its time tracks how fast this machine runs at the moment.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(1600):
        total += np.random.default_rng(i).random(62)[0]
    a = np.arange(300_000, dtype=np.float64)
    for _ in range(24):
        a = np.sqrt(a * 1.0001 + 1.0)
    counts: dict = {}
    for i in range(120_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - start


class Speedometer:
    """Times the reference kernel between timed samples to track the machine's speed.

    The machine this runs on is shared, and its speed drifts by tens of
    percent, over seconds as well as minutes. Each timed sample is scaled
    to the nominal speed, at which the reference kernel takes REF_NOMINAL_S,
    by the kernel times measured just before and just after it.
    """

    def __init__(self):
        self.points: list[float] = []

    def sample(self, runs: int = 1) -> None:
        self.points.append(statistics.median(reference_kernel() for _ in range(runs)))

    def bracketed(self, raw: float, runs: int = 1) -> float:
        """Sample the kernel, then scale `raw` by the last two sample points."""
        self.sample(runs)
        return raw * 2.0 * REF_NOMINAL_S / (self.points[-2] + self.points[-1])

    @property
    def speed(self) -> float:
        """Machine speed relative to nominal, over the whole run."""
        return REF_NOMINAL_S / statistics.median(self.points)


@dataclass
class Samples:
    """Timed samples as measured and scaled to the nominal machine speed."""

    raw: list
    scaled: list

    @property
    def median(self) -> float:
        return statistics.median(self.scaled)


def timed_loop(argv: list, seconds: float, verifier: Verifier, meter: Speedometer, recorder=None) -> Samples:
    """Wall times of CLI invocations repeated for about `seconds` (at least one).

    Another invocation starts only while at least half of it would fit.
    Only the CLI call is timed; output checks and the reference kernel run
    between calls, the kernel once plus once per whole second of the call
    (at most five times), the median of which is one sample point.
    """
    samples = Samples([], [])
    meter.sample()
    start = time.perf_counter()
    while not samples.raw or time.perf_counter() - start + samples.raw[-1] / 2 < seconds:
        if recorder is not None:
            recorder.invocation = len(samples.raw)
        rc, out, err, wall = invoke(argv)
        verifier.record(rc, out, err)
        samples.raw.append(wall)
        samples.scaled.append(meter.bracketed(wall, runs=min(5, 1 + int(wall))))
    return samples


def tail(walls: list) -> tuple:
    """(value, label): the highest sample with at least ten samples above it.

    Below 21 samples that sample would not lie above the median, so the
    maximum stands in for it.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n} samples (fewer than 21)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f}, 10 of {n} samples beyond it"


def setup_seconds(repeats: int) -> list:
    """Raw times from a fresh interpreter to cwtasim.cli imported and a profile loaded.

    Their median is scaled by the machine speed over the whole run, not
    sample by sample: kernel times taken next to a process start-up made
    single samples less steady, while the run's speed keeps the medians of
    runs made at different times comparable.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus the pool workers it has reaped.

    The kernel keeps only the largest reaped child's peak, so the workers'
    share is that peak times the worker count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child * pool_workers) / 1024.0


def git_commit() -> str:
    """HEAD's commit from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, workers: int, smoke: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "workers": workers,
        "mode": "smoke" if smoke else "full",
        "machine": platform.machine(),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def replicates_per_invocation(workload: Workload, smoke: bool, cohorts: int) -> int:
    """Trials simulated or analyzed by one invocation.

    Grids: replicates over all grid points. calibrate: the cohorts whose
    response rates were evaluated, by the solver and by the fresh-seed
    check. analyze_csv: the one external trial.
    """
    if workload.grid:
        hrs, sizes, reps = _grid_shape(workload, smoke)
        return len(hrs) * len(sizes) * reps
    return cohorts if workload.name == "calibrate" else 1


@contextlib.contextmanager
def counting_cohorts():
    """Count calibration response-rate evaluations (a call counter, not a span)."""
    from cwtasim import calibration

    counter = {"calls": 0}
    original = getattr(calibration, "_response_rates", None)
    if original is None:
        print("warning: calibration._response_rates is absent; cohorts are not counted", file=sys.stderr)
        yield counter
        return

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    calibration._response_rates = counted
    try:
        yield counter
    finally:
        calibration._response_rates = original


def run_untraced(workload, argv, seconds, verifier, smoke, workers) -> dict:
    """End-to-end metrics of one workload with tracing off."""
    full_argv = argv + (["--workers", str(workers)] if workload.grid else [])
    meter = Speedometer()
    with counting_cohorts() as counter:
        walls = timed_loop(full_argv, seconds, verifier, meter)
    rss = peak_rss_mb(workers if workers > 1 else 0)
    setups = setup_seconds(1 if smoke else 3)
    wall, setup = walls.median, statistics.median(setups) * meter.speed
    tail_value, tail_label = tail(walls.scaled)
    reps = replicates_per_invocation(workload, smoke, counter["calls"] // len(walls.raw))
    print(f"workload {workload.name}: {workload.why}")
    print(f"  times are scaled to nominal machine speed; the machine ran at {meter.speed:.3f} of it")
    print(f"  wall_s           {wall:.4f} s    median of {len(walls.raw)} samples (raw {statistics.median(walls.raw):.4f} s)")
    print(f"  wall_s_tail      {tail_value:.4f} s    {tail_label}")
    print(f"  replicates_per_s {reps / wall:.2f} 1/s  ({reps} per invocation)")
    print(f"  setup_s          {setup:.4f} s    median of {len(setups)} fresh interpreters (raw {statistics.median(setups):.4f} s)")
    print(f"  peak_rss_mb      {rss:.1f} MB")
    print(f"  failed_ops       {verifier.failed}/{verifier.attempted}")
    return {
        "wall_s": metric(wall, "s"),
        "wall_s_tail": metric(tail_value, "s"),
        "replicates_per_s": metric(reps / wall, "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


# Per-layer metrics: name -> (span name, field, unit). Fields: self (s), total (s), calls, work.
SPAN_METRICS = {
    "seeds.mix64.calls": ("seeds.mix64", "calls", "count"),
    "trajectories.subject_uniforms.self_s": ("trajectories.subject_uniforms", "self", "s"),
    "trajectories.subject_uniforms.rows": ("trajectories.subject_uniforms", "work", "count"),
    "trajectories.state_evolution.self_s": ("trajectories.state_evolution", "self", "s"),
    "trajectories.state_evolution.calls": ("trajectories.state_evolution", "calls", "count"),
    "trajectories.simulate_trial.self_s": ("trajectories.simulate_trial", "self", "s"),
    "trajectories.trial_state_matrix.self_s": ("trajectories.trial_state_matrix", "self", "s"),
    "trajectories.trial_state_matrix.calls": ("trajectories.trial_state_matrix", "calls", "count"),
    "kaplan_meier.endpoint_arrays.self_s": ("kaplan_meier.endpoint_arrays", "self", "s"),
    "kaplan_meier.monthly_logrank_terms.self_s": ("kaplan_meier.monthly_logrank_terms", "self", "s"),
    "kaplan_meier.km_estimate.self_s": ("kaplan_meier.km_estimate", "self", "s"),
    "kaplan_meier.derive_endpoint.self_s": ("kaplan_meier.derive_endpoint", "self", "s"),
    "kaplan_meier.logrank_test.self_s": ("kaplan_meier.logrank_test", "self", "s"),
    "weighted.extract_weighted_events.self_s": ("weighted.extract_weighted_events", "self", "s"),
    "weighted.events": ("weighted.extract_weighted_events", "work", "count"),
    "weighted.monthly_weighted_terms.self_s": ("weighted.monthly_weighted_terms", "self", "s"),
    "weighted.cwta_curve.self_s": ("weighted.cwta_curve", "self", "s"),
    "weighted.weighted_logrank_test.self_s": ("weighted.weighted_logrank_test", "self", "s"),
    "harness.scan_trial.self_s": ("harness.scan_trial", "self", "s"),
    "harness.run_replicates.self_s": ("harness.run_replicates", "self", "s"),
    "calibration.calibrate_transition_model.self_s": ("calibration.calibrate_transition_model", "self", "s"),
    "calibration.control_response_rates.total_s": ("calibration.control_response_rates", "total", "s"),
    "serialize.read_trajectories_csv.self_s": ("serialize.read_trajectories_csv", "self", "s"),
    "serialize.bytes_read": ("serialize.read_trajectories_csv", "work", "bytes"),
    "serialize.write.self_s": ("serialize.write", "self", "s"),
    "serialize.bytes_written": ("serialize.write", "work", "bytes"),
    "cli.run_cli.self_s": ("cli.run_cli", "self", "s"),
}
LAYER_TOTALS = ("seeds", "trajectories", "kaplan_meier", "weighted", "harness", "calibration", "serialize")
FIELDS = {"self": 0, "total": 1, "calls": 2, "work": 3}


def layer_metrics(recorder, traced: Samples) -> dict:
    """Per-invocation medians of each layer metric over the traced invocations.

    Times are scaled to nominal machine speed like the invocation they fall in.
    """
    per_inv = recorder.per_invocation()
    evaluations = recorder.evaluations_per_invocation()
    invocations = range(len(traced.raw))
    ns_to_s = [scaled / raw / 1e9 for raw, scaled in zip(traced.raw, traced.scaled)]

    def median_of(fn, unit) -> dict:
        return metric(statistics.median(fn(per_inv.get(i, {})) * (ns_to_s[i] if unit == "s" else 1) for i in invocations), unit)

    out = {}
    for layer in LAYER_TOTALS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = median_of(lambda spans: sum(v[0] for k, v in spans.items() if k.startswith(prefix)), "s")
    for name, (span, field, unit) in SPAN_METRICS.items():
        index = FIELDS[field]
        out[name] = median_of(lambda spans: spans[span][index] if span in spans else 0, unit)
    out["calibration.evaluations"] = metric(statistics.median(evaluations[i] for i in invocations), "count")
    return out


def run_traced(workload, argv, seconds, verifier, seed, pool_workers) -> dict:
    """Per-layer metrics: untraced runs for reference, then a traced run at workers = 1.

    On the grids an untraced run at pool_workers also gives the pool speedup.
    """
    from spans import SpanRecorder

    pooled_phase = bool(workload.grid) and pool_workers > 1
    share = seconds / (3 if pooled_phase else 2)
    w1_argv = argv + (["--workers", "1"] if workload.grid else [])
    meter = Speedometer()
    untraced = timed_loop(w1_argv, share, verifier, meter)
    speedup = 0.0
    if pooled_phase:
        # held to the workers = 1 digests, so this also checks worker invariance
        pooled = timed_loop(argv + ["--workers", str(pool_workers)], share, verifier, meter)
        speedup = untraced.median / pooled.median
    with SpanRecorder() as recorder:
        traced = timed_loop(w1_argv, share, verifier, meter, recorder)
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.csv"
    recorder.write(spans_path)
    out = layer_metrics(recorder, traced)
    out["harness.pool_speedup"] = metric(speedup, "ratio")
    out["trace.overhead"] = metric(traced.median - untraced.median, "s")
    print(f"workload {workload.name} (traced, workers 1): {len(traced.raw)} traced and {len(untraced.raw)} untraced invocations")
    print(f"  times are scaled to nominal machine speed; the machine ran at {meter.speed:.3f} of it")
    for name in sorted(out):
        print(f"  {name:48s} {out[name]['value']:.6g} {out[name]['unit']}")
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    if recorder.absent:
        print(f"  absent at this commit (reported as 0): {', '.join(recorder.absent)}")
    print(f"  failed_ops {verifier.failed}/{verifier.attempted}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workers: int | None) -> dict:
    workload = WORKLOADS[name]
    pool_workers = workers if workers is not None else min(workload.default_workers, nproc())
    pool_workers = pool_workers if workload.grid else 1
    mode = "smoke" if smoke else "full"
    golden = load_golden().get(mode, {}).get(name, {}).get(str(seed))
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    prov = provenance(seed, pool_workers, smoke)
    try:
        argv = workload.prepare(workload, work, seed, smoke)
        verifier = Verifier(workload, work / "out", smoke, golden)
        if trace:
            metrics = run_traced(workload, argv, seconds, verifier, seed, pool_workers)
        else:
            metrics = run_untraced(workload, argv, seconds, verifier, smoke, pool_workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"  digests checked against {'golden digests' if golden else 'the first invocation (no golden for this seed)'}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"provenance": prov, "problems": verifier.problems, **result}, indent=1)
    )
    return result


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak RSS and set-up are per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        cmd += (["--smoke"] if args.smoke else []) + ([f"--workers={args.workers}"] if args.workers else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"error: workload {name} exited {proc.returncode} without a result")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
    return combined


def record_golden(args) -> None:
    """Store the digests of one invocation per workload for this seed and mode."""
    golden = load_golden()
    mode = "smoke" if args.smoke else "full"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        work = WORK / f"golden-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        try:
            argv = workload.prepare(workload, work, args.seed, args.smoke)
            rc, out, err, _ = invoke(argv)
            problem = f"exit code {rc}: {err}" if rc else workload.check(workload, work / "out", out, args.smoke)
            if problem:
                raise SystemExit(f"error: {name} did not produce valid output: {problem}")
            golden.setdefault(mode, {}).setdefault(name, {})[str(args.seed)] = digests(work / "out", workload.outputs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {mode} digests of {name} at seed {args.seed}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed; inputs are derived from it")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None, help="pool workers for the grid workloads")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one invocation per phase")
    parser.add_argument("--record-golden", action="store_true", help="store output digests for this seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workers is not None and not 1 <= args.workers <= nproc():
        print(f"error: --workers must lie between 1 and nproc = {nproc()}, got {args.workers}", file=sys.stderr)
        return 2
    if not (SRC / "cwtasim" / "__init__.py").is_file():
        print(f"error: no cwtasim package under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden(args)
        return 0
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.workers)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
