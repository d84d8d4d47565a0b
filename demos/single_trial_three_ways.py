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

import numpy as np

# the simulator: ordinal states CR=0, PR=1, SD=2, PD=3, death=4
from cwtasim import load_profile, simulate_trial

# the three analyses
from cwtasim import METHODS, Endpoint, arm_counts, count_tests, monthly_counts
from cwtasim.statistics import product_limit

# CSV + SVG output helpers
from cwtasim.serialize import write_km_curves_by_arm_csv, write_trajectory_curves_by_arm_csv
from cwtasim.svgplot import CurveSpec, PlotSpec, emit_svg_stepplot

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

# simulate: the "moderate" profile is calibrated to a control arm with
# ~5% complete and ~30% partial responders
model = load_profile("moderate")
trial = simulate_trial(model, hazard_ratio=0.5, sample_size=200, seed=20)
print(f"simulated {len(trial.arms)} subjects over {trial.horizon} months")

# one pass over the trial's (subjects x months) state matrix gives each
# method's monthly counts: Kaplan-Meier endpoints count one event-or-censoring
# time per subject; the weighted trajectory test counts every one-level move
# as an event of weight 1/4 (positive when worsening, negative when improving)
counts = monthly_counts(trial)
tests = count_tests(counts)
for method in METHODS:
    print(f"{method}: z = {tests[method].z:+.3f}, p = {tests[method].p_value:.4g}")

# each arm's curve is the product limit of that arm's monthly events and risk set
arms = {method: arm_counts(counts[method]) for method in METHODS}
for kind in Endpoint:
    write_km_curves_by_arm_csv(arms[kind.name], os.path.join(out_dir, f"curve_{kind.name.lower()}.csv"))
write_trajectory_curves_by_arm_csv(arms["CWTA"], os.path.join(out_dir, "curve_cwta.csv"))

# plot the two weighted trajectory curves next to the OS KM curves, whose
# steps fall at the months with deaths
specs = []
for arm, (events, at_risk) in arms["OS"].items():
    survival = product_limit(events, at_risk)
    points = [(0.0, 1.0)] + [(float(t), float(survival[t])) for t in np.flatnonzero(events)]
    specs.append(CurveSpec(label=f"OS {arm.label}", points=tuple(points), dash="5 3"))
for arm, c in arms["CWTA"].items():
    specs.append(CurveSpec(label=f"CWTA {arm.label}", points=tuple(enumerate(product_limit(*c).tolist()))))
svg = emit_svg_stepplot(
    PlotSpec(curves=tuple(specs), title="One trial, two views", y_label="survival / trajectory value")
)
with open(os.path.join(out_dir, "single_trial.svg"), "w") as fh:
    fh.write(svg)
print(f"wrote {out_dir}/single_trial.svg")
