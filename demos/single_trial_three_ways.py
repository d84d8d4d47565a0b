"""
One simulated trial, analyzed three ways
========================================

Simulates a single two-arm trial of 200 subjects under a hazard ratio of
0.5, then analyzes the same trajectories with Kaplan-Meier logrank tests
on progression-free and overall survival, and with the weighted
trajectory test that scores every state transition. Writes the step
curves as CSV and renders them to one SVG.
"""

import os

# the simulator: ordinal states CR=0, PR=1, SD=2, PD=3, death=4
from cwtasim import Arm, TrialConfig, load_profile, simulate_trial

# the three analyses
from cwtasim import (
    Endpoint,
    cwta_curve,
    endpoint_arrays,
    extract_weighted_events,
    km_estimate,
    logrank_test,
    weighted_logrank_test,
)

# CSV + SVG output helpers
from cwtasim.serialize import write_km_curves_by_arm_csv, write_trajectory_curves_by_arm_csv
from cwtasim.svgplot import CurveSpec, PlotSpec, emit_svg_stepplot

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

# simulate: the "moderate" profile is calibrated to a control arm with
# ~5% complete and ~30% partial responders
model = load_profile("moderate")
trial = simulate_trial(
    TrialConfig(sample_size=200, hazard_ratio=0.5, control_model=model, seed=20)
)
print(f"simulated {len(trial.arms)} subjects over {trial.horizon} months")

# Kaplan-Meier endpoints: one event-or-censoring time per subject, read
# from the trial's (subjects x months) state matrix
for kind in Endpoint:
    times, events = endpoint_arrays(trial.states, trial.censor, kind)
    result = logrank_test(times, events, trial.arms)
    print(f"{kind.name}: {events.sum()} events, z = {result.z:+.3f}, p = {result.p_value:.4g}")
    curves = {
        arm: km_estimate(times[trial.arms == arm], events[trial.arms == arm])
        for arm in (Arm.CONTROL, Arm.EXPERIMENTAL)
    }
    write_km_curves_by_arm_csv(curves, os.path.join(out_dir, f"curve_{kind.name.lower()}.csv"))

# weighted trajectory test: every one-level move is an event with weight
# 1/4 (positive when worsening, negative when improving)
table = extract_weighted_events(trial)
result = weighted_logrank_test(table)
print(f"CWTA: {table.months.size} weighted events, z = {result.z:+.3f}, p = {result.p_value:.4g}")
curves = {arm: cwta_curve(table, arm) for arm in (Arm.CONTROL, Arm.EXPERIMENTAL)}
write_trajectory_curves_by_arm_csv(curves, os.path.join(out_dir, "curve_cwta.csv"))

# plot the two weighted trajectory curves next to the OS KM curves
specs = []
os_times, os_events = endpoint_arrays(trial.states, trial.censor, Endpoint.OS)
for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
    km = km_estimate(os_times[trial.arms == arm], os_events[trial.arms == arm])
    points = [(0.0, 1.0)] + [(float(s.time), s.survival) for s in km.steps]
    specs.append(CurveSpec(label=f"OS {arm.label}", points=tuple(points), dash="5 3"))
for arm in (Arm.CONTROL, Arm.EXPERIMENTAL):
    c = cwta_curve(table, arm)
    specs.append(
        CurveSpec(
            label=f"CWTA {arm.label}",
            points=tuple((float(s.month), s.value) for s in c.steps),
        )
    )
svg = emit_svg_stepplot(
    PlotSpec(curves=tuple(specs), title="One trial, two views", y_label="survival / trajectory value")
)
with open(os.path.join(out_dir, "single_trial.svg"), "w") as fh:
    fh.write(svg)
print(f"wrote {out_dir}/single_trial.svg")
