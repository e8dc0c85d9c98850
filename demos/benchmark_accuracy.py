"""Accuracy walkthrough: slow reference scheme vs. clustered fast scheme.

Solves the 2D single-mode benchmark (unit principal eigenvalue, forcing
(1 + sin pi t) * phi_11) whose exact solution u11(t) * phi_11 is available
through a Laplace-contour quadrature.  The script compares the max-nodal
error and the history operation count of both schemes at a desk-friendly
size, then shows how the expansion order r steers the fast scheme's extra
error.

Run:  python3 demos/benchmark_accuracy.py
"""

import math
import time

import numpy as np

from subdiff import (
    RunConfig,
    SpatialGrid,
    benchmark_source,
    fast_run,
    max_nodal_error,
    sine_mode,
    slow_run,
    u11,
    uniform_mesh,
)

NU, T, N, M_AXIS = 0.5, 6.0, 512, 20

mesh = uniform_mesh(N, T)
grid = SpatialGrid(dim=2, m=M_AXIS, K=1.0 / (2.0 * math.pi**2))
source = benchmark_source(grid)
mode = sine_mode(grid, 1, 1)
exact = np.outer(u11(NU, mesh.levels[1:]), mode)

print(f"benchmark: nu={NU}, T={T}, N={N}, grid {M_AXIS}x{M_AXIS} "
      f"({grid.M} unknowns)\n")

t0 = time.perf_counter()
slow = slow_run(RunConfig(nu=NU, mesh=mesh, grid=grid), source, mode)
err_slow = max_nodal_error(slow.solutions, exact)
print(f"slow   : err {err_slow:.4e}  rhs_ops {slow.rhs_ops:>12,}  "
      f"peak {slow.peak_values:>8,}  ({time.perf_counter() - t0:.2f}s)")

for r in (2, 3, 5, 8):
    t0 = time.perf_counter()
    fast = fast_run(
        RunConfig(nu=NU, mesh=mesh, grid=grid, r=r, Q=2, G=5), source, mode)
    err = max_nodal_error(fast.solutions, exact)
    print(f"fast r={r}: err {err:.4e}  rhs_ops {fast.rhs_ops:>12,}  "
          f"peak {fast.peak_values:>8,}  eta {fast.eta:.3f}  "
          f"({time.perf_counter() - t0:.2f}s)")

print("\nThe fast errors converge to the slow error as r grows, while the")
print("operation count and memory high-water mark stay far below the")
print("all-history reference.")
