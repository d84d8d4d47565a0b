"""In-memory span recorder for the traced benchmark run.

The recorder replaces module-level names where cwtasim's hot path looks
them up (for example ``harness.simulate_trial``) with thin wrappers that
record one span per call: name, start, end, parent span and the CLI
invocation it belongs to. Spans stay in memory and are written out once,
when the run ends. A layer's self time is its span's duration minus the
durations of its direct child spans; calls run on one thread, so child
spans nest and never overlap.

A hooked name that a later version of the package no longer has is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _path_size(arg_index):
    """Counter: size in bytes of the file named by positional argument arg_index."""

    def count(args, kwargs, result):
        path = args[arg_index] if len(args) > arg_index else kwargs.get("path")
        return os.path.getsize(path) if path is not None and os.path.exists(path) else 0

    return count


def _arg(arg_index, name):
    def count(args, kwargs, result):
        return int(args[arg_index] if len(args) > arg_index else kwargs[name])

    return count


def _n_events(args, kwargs, result):
    return int(len(result.months))


# (module, attribute the hot path looks up, span name, counter or None).
# A counter maps (args, kwargs, result) to the amount of work the call did.
HOOKS = (
    ("cwtasim.cli", "run_cli", "cli.run_cli", None),
    ("cwtasim.cli", "calibrate_transition_model", "calibration.calibrate_transition_model", None),
    ("cwtasim.cli", "control_response_rates", "calibration.control_response_rates", None),
    ("cwtasim.cli", "derive_endpoint", "kaplan_meier.derive_endpoint", None),
    ("cwtasim.cli", "km_estimate", "kaplan_meier.km_estimate", None),
    ("cwtasim.cli", "logrank_test", "kaplan_meier.logrank_test", None),
    ("cwtasim.cli", "extract_weighted_events", "weighted.extract_weighted_events", _n_events),
    ("cwtasim.cli", "cwta_curve", "weighted.cwta_curve", None),
    ("cwtasim.cli", "weighted_logrank_test", "weighted.weighted_logrank_test", None),
    ("cwtasim.serialize", "read_trajectories_csv", "serialize.read_trajectories_csv", _path_size(0)),
    ("cwtasim.serialize", "write_power_csv", "serialize.write", _path_size(1)),
    ("cwtasim.serialize", "write_km_curves_by_arm_csv", "serialize.write", _path_size(1)),
    ("cwtasim.serialize", "write_trajectory_curves_by_arm_csv", "serialize.write", _path_size(1)),
    ("cwtasim.serialize", "write_tests_csv", "serialize.write", _path_size(1)),
    ("cwtasim.serialize", "save_profile", "serialize.write", _path_size(1)),
    ("cwtasim.harness", "run_replicates", "harness.run_replicates", None),
    ("cwtasim.harness", "scan_trial", "harness.scan_trial", None),
    ("cwtasim.harness", "simulate_trial", "trajectories.simulate_trial", None),
    ("cwtasim.harness", "trial_state_matrix", "trajectories.trial_state_matrix", None),
    ("cwtasim.harness", "endpoint_arrays", "kaplan_meier.endpoint_arrays", None),
    ("cwtasim.harness", "monthly_logrank_terms", "kaplan_meier.monthly_logrank_terms", None),
    ("cwtasim.harness", "extract_weighted_events", "weighted.extract_weighted_events", _n_events),
    ("cwtasim.harness", "monthly_weighted_terms", "weighted.monthly_weighted_terms", None),
    ("cwtasim.harness", "mix64", "seeds.mix64", None),
    ("cwtasim.harness", "float_bits", "seeds.float_bits", None),
    ("cwtasim.trajectories", "subject_uniforms", "trajectories.subject_uniforms", _arg(1, "n")),
    ("cwtasim.trajectories", "_simulate_state_matrix", "trajectories.state_evolution", None),
    ("cwtasim.trajectories", "mix64_array", "seeds.mix64_array", None),
    ("cwtasim.weighted", "trial_state_matrix", "trajectories.trial_state_matrix", None),
    ("cwtasim.weighted", "monthly_weighted_terms", "weighted.monthly_weighted_terms", None),
    ("cwtasim.kaplan_meier", "monthly_logrank_terms", "kaplan_meier.monthly_logrank_terms", None),
    ("cwtasim.calibration", "subject_uniforms", "trajectories.subject_uniforms", _arg(1, "n")),
    ("cwtasim.calibration", "_simulate_state_matrix", "trajectories.state_evolution", None),
    ("cwtasim.calibration", "_response_rates", "calibration.response_rates", None),
)

class SpanRecorder:
    """Records spans around hooked calls while installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original names. ``invocation`` tags the spans of one
    CLI call; set it before each call.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []  # (invocation, name, start_ns, end_ns, parent index or -1, work)
        self.absent = []
        self.invocation = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (self.invocation, name, start, time.perf_counter_ns(), parent, 0)
                stack.pop()
                raise
            end = time.perf_counter_ns()
            stack.pop()
            work = counter(args, kwargs, result) if counter is not None else 0
            spans[index] = (self.invocation, name, start, end, parent, work)
            return result

        return wrapper

    def __enter__(self):
        for module_name, attr, name, counter in self.hooks:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def per_invocation(self):
        """{invocation: {span name: [self_ns, total_ns, calls, work]}}."""
        child_ns = defaultdict(int)
        for inv, name, start, end, parent, work in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
        for i, (inv, name, start, end, parent, work) in enumerate(self.spans):
            entry = out[inv][name]
            entry[0] += end - start - child_ns[i]
            entry[1] += end - start
            entry[2] += 1
            entry[3] += work
        return out

    def evaluations_per_invocation(self):
        """Response-rate evaluations made within calibrate_transition_model, per invocation."""
        counts = defaultdict(int)
        for inv, name, start, end, parent, work in self.spans:
            if name != "calibration.response_rates":
                continue
            while parent >= 0 and self.spans[parent][1] != "calibration.calibrate_transition_model":
                parent = self.spans[parent][4]
            if parent >= 0:
                counts[inv] += 1
        return counts

    def write(self, path):
        """Write every span as one CSV line; times are ns from the first span."""
        origin = min((s[2] for s in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write("invocation,name,start_ns,end_ns,parent,work\n")
            for inv, name, start, end, parent, work in self.spans:
                fh.write(f"{inv},{name},{start - origin},{end - origin},{parent},{work}\n")
