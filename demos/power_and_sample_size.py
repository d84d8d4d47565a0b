"""
Power curves and the sample size needed for 80% power
=====================================================

Runs a small Monte Carlo grid (one hazard ratio, six sample sizes,
200 replicates each) and estimates, for each analysis method, the
rejection rate at alpha = 0.05 and the interpolated sample size at
which power reaches 80%. With 200 replicates the numbers wobble by a
few percent; the full-size experiment in the acceptance suite uses
1000.
"""

from cwtasim import (
    METHODS,
    estimate_power,
    interpolate_sample_size,
    load_profile,
    run_replicates,
)

model = load_profile("moderate")
hr = 0.5
sizes = (30, 44, 58, 72, 86, 100)
replicates = 200

# each sample size: one row of final p-values per replicate, scored per method
power_points = {method: [] for method in METHODS}
for ss in sizes:
    results = run_replicates(hr, ss, replicates, model, master_seed=7)
    for method in METHODS:
        est = estimate_power(results, method, alpha=0.05, hr=hr, ss=ss)
        power_points[method].append((ss, est.power))

# print the power curve table
header = "size  " + "  ".join(f"{m:>6}" for m in METHODS)
print(header)
for i, ss in enumerate(sizes):
    row = f"{ss:>4}  " + "  ".join(f"{power_points[m][i][1]:6.3f}" for m in METHODS)
    print(row)

# interpolate where each curve crosses 80% (monotone-smoothed, linear
# between grid points)
print("\nsample size for 80% power (interpolated):")
for method in METHODS:
    try:
        ss80 = interpolate_sample_size(power_points[method], target=0.8)
        print(f"  {method:>4}: {ss80:.1f}")
    except ValueError as exc:
        print(f"  {method:>4}: not reached on this grid ({exc})")
