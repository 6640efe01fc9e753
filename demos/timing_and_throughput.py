"""
Calibration cost and sampling throughput
========================================

Calibration is a search over certified tail bounds, so its cost
is set by the grid size and the number of certificate probes, not
by the dimension.  The probe count is exact and the same on every
machine; it falls at large d, where the search starts next to the
Gaussian mechanism's equal-error scale.  A comparison table
calibrates every d in 1..d_max, and each of its l2 searches starts
at the secant through the two sigmas before it.  Sampling is one
Gamma(d) radius plus one normalised Gaussian direction per draw.
Timings vary by machine; the shape of the table should not.
"""

import time

import numpy as np

from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.errormodel import comparison_table
from l2mech.sampler import RngState, sample_l2

params = PrivacyParams(1.0, 1e-5)

print(f"{'d':>5s} {'calibrate (ms)':>15s} {'probes':>7s} {'sigma':>9s}")
for d in (2, 10, 100, 500):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        res = calibrate_l2(d, params)
        best = min(best, time.perf_counter() - t0)
    print(f"{d:5d} {best * 1e3:15.1f} {res.search_iterations:7d} {res.sigma:9.6f}")

best = float("inf")
for _ in range(3):
    t0 = time.perf_counter()
    comparison_table(params, 12)
    best = min(best, time.perf_counter() - t0)
print(f"\ncomparison_table, d = 1..12: {best * 1e3:.1f} ms")

print("\nsampling 10^5 draws:")
rng = RngState(55)
for d in (10, 100, 1000):
    sigma = 1.0 / (d ** 0.5)
    sample_l2(np.zeros(d), sigma, rng, size=100)  # warm up
    t0 = time.perf_counter()
    sample_l2(np.zeros(d), sigma, rng, size=100000)
    dt = time.perf_counter() - t0
    print(f"  d={d:5d}: {dt * 1e3:7.1f} ms  "
          f"({1e5 / dt / 1e3:,.0f}k draws/s)")
