"""Cost scaling of the clustered history sum.

Doubles the number of time steps N while keeping the tree depth at log2(N)
and records the history operation count, the peak number of simultaneously
stored values and the fast run's wall time per step.  The direct scheme
costs O(N^2) operations and O(N) storage per unknown; the clustered scheme
should show a fitted exponent near 1 (up to the log factor) and storage
growing only with the tree depth.

Run:  python3 demos/complexity_sweep.py
"""

import math
import time

import numpy as np

from subdiff import (
    RunConfig,
    SpatialGrid,
    benchmark_source,
    fast_run,
    max_depth,
    optimal_eta,
    sine_mode,
    slow_run,
    uniform_mesh,
)

R = 5
ETA = optimal_eta(R)
print(f"expansion order r={R}, admissibility eta={ETA:.4f}\n")
print(f"{'N':>6} {'G':>3} {'fast ops':>12} {'slow ops':>12} "
      f"{'fast peak':>10} {'slow peak':>10} {'us/step':>8}")

rows = []
for N in (512, 1024, 2048, 4096, 8192):
    mesh = uniform_mesh(N, 1.0)
    grid = SpatialGrid(dim=1, m=2, K=1.0 / math.pi**2)
    source = benchmark_source(grid)
    u0 = sine_mode(grid, 1)
    G = max_depth(N, 2)
    start = time.perf_counter()
    fast = fast_run(
        RunConfig(nu=0.5, mesh=mesh, grid=grid, r=R, eta=ETA, Q=2, G=G),
        source, u0)
    per_step_us = 1e6 * (time.perf_counter() - start) / N
    slow_ops = sum(n - 1 for n in range(1, N + 1)) * grid.M
    print(f"{N:>6} {G:>3} {fast.rhs_ops:>12,} {slow_ops:>12,} "
          f"{fast.peak_values:>10,} {N * grid.M:>10,} {per_step_us:>8.0f}")
    rows.append((N, fast.rhs_ops))

xs = np.log([n for n, _ in rows])
ys = np.log([ops for _, ops in rows])
slope = np.polyfit(xs, ys, 1)[0]
print(f"\nfitted exponent of fast ops vs N: {slope:.3f} "
      "(pure N log N gives about 1.1 on this range; the direct scheme is 2)")
