"""Tests of the benchmark itself, at tiny sizes and with no timing bounds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_the_benchmark_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in run.WORKLOADS.values()}


def test_smoke_run_reports_every_end_to_end_metric():
    result = _result(_bench("--workload", "all", "--smoke", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for spec in SPEC["end_to_end"]:
            reported = result["metrics"][f"{workload}.{spec['name']}"]
            assert reported["unit"] == spec["unit"]
            assert reported["value"] > 0


def test_smoke_traced_run_reports_every_layer_metric():
    result = _result(_bench("--workload", "all", "--smoke", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for spec in SPEC["per_layer"]:
            assert result["metrics"][f"{workload}.{spec['name']}"]["unit"] == spec["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["calibrate.calibration.evaluations"] > 0
    assert metrics["analyze_csv.serialize.bytes_read"] > 0
    assert metrics["grid_small_n.trajectories.trial_state_matrix.calls"] > 0
    assert metrics["calibrate.harness.scan_trial.self_s"] == 0  # the bypass case


def _smoke_power_csv(directory: Path) -> None:
    rows = "".join(f"{m},0.7,20,4,0.25\n" for m in run.METHODS)
    (directory / "power.csv").write_text("method,hr,ss,replicates,power\n" + rows)


def test_digest_mismatch_and_exit_code_count_as_failed_ops(tmp_path):
    _smoke_power_csv(tmp_path)
    workload = run.WORKLOADS["grid_small_n"]
    verifier = run.Verifier(workload, tmp_path, True, {"power.csv": "0" * 64})
    verifier.record(0, "", "")
    verifier.record(2, "", "error: bad config")
    assert (verifier.attempted, verifier.failed) == (2, 2)

    verifier = run.Verifier(workload, tmp_path, True, None)
    verifier.record(0, "", "")
    verifier.record(0, "", "")
    assert (verifier.attempted, verifier.failed) == (2, 0)
    (tmp_path / "power.csv").write_text((tmp_path / "power.csv").read_text().replace("0.25", "0.5"))
    verifier.record(0, "", "")
    assert verifier.failed == 1


def test_workers_above_nproc_are_refused_with_one_message():
    proc = _bench("--workload", "grid_large_n", "--smoke", "--workers", str(run.nproc() + 1))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def test_span_self_time_excludes_children_and_missing_names_are_absent():
    layer = types.ModuleType("perfbench_fake_layer")
    sys.modules[layer.__name__] = layer

    def inner():
        time.sleep(0.01)

    def outer():
        layer.inner()
        time.sleep(0.005)

    layer.inner, layer.outer = inner, outer
    hooks = (
        (layer.__name__, "outer", "fake.outer", None),
        (layer.__name__, "inner", "fake.inner", None),
        (layer.__name__, "removed_later", "fake.removed", None),
        ("perfbench_no_such_module", "anything", "fake.module", None),
    )
    try:
        with spans.SpanRecorder(hooks) as recorder:
            layer.outer()
    finally:
        del sys.modules[layer.__name__]
    assert layer.outer is outer and layer.inner is inner
    assert recorder.absent == [f"{layer.__name__}.removed_later", "perfbench_no_such_module.anything"]
    times = recorder.per_invocation()[0]
    outer_self, outer_total, outer_calls, _ = times["fake.outer"]
    inner_self, inner_total, inner_calls, _ = times["fake.inner"]
    assert outer_calls == inner_calls == 1
    assert inner_self == inner_total >= 10_000_000
    assert outer_self == outer_total - inner_total >= 5_000_000


def test_tail_has_ten_samples_above_it_and_never_lies_below_the_median():
    assert run.tail(list(range(30)))[0] == 19
    assert run.tail(list(range(15)))[0] == 14


def test_an_exception_escaping_the_cli_counts_as_exit_code_1(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from cwtasim import cli

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_cli", boom)
    rc, out, err, wall = run.invoke(["power"])
    assert rc == 1 and "RuntimeError: boom" in err
