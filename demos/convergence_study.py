"""Convergence of the time stepping scheme against the exact benchmark.

Two regimes are visible on the single-mode benchmark:

  * with a fine spatial grid, the max-nodal error is dominated by the
    first-order time discretization, so halving the time step halves it;
  * with many time steps the error saturates at the quadratic spatial
    floor, which drops ~4x whenever the axis resolution doubles.

Run:  python3 demos/convergence_study.py
"""

import math

import numpy as np

from subdiff import (
    RunConfig,
    SpatialGrid,
    benchmark_source,
    fast_run,
    max_depth,
    max_nodal_error,
    sine_mode,
    u11,
    uniform_mesh,
)

NU, T = 0.5, 6.0


def benchmark_error(N, m):
    mesh = uniform_mesh(N, T)
    grid = SpatialGrid(dim=2, m=m, K=1.0 / (2.0 * math.pi**2))
    mode = sine_mode(grid, 1, 1)
    cfg = RunConfig(nu=NU, mesh=mesh, grid=grid, r=8, eta=0.3, Q=2,
                    G=min(6, max_depth(N, 2)))
    res = fast_run(cfg, benchmark_source(grid), mode)
    exact = np.outer(u11(NU, mesh.levels[1:]), mode)
    return max_nodal_error(res.solutions, exact)


print("time refinement on a 40x40 grid (error should halve per row):")
prev = None
for N in (32, 64, 128, 256, 512):
    err = benchmark_error(N, 40)
    ratio = "" if prev is None else f"  ratio {prev / err:.2f}"
    print(f"  N={N:>4}  err {err:.4e}{ratio}")
    prev = err

print("\nspatial floor at N=4096 (error should drop ~4x per row):")
prev = None
for m in (10, 20, 40):
    err = benchmark_error(4096, m)
    ratio = "" if prev is None else f"  ratio {prev / err:.2f}"
    print(f"  m={m:>3}  err {err:.4e}{ratio}")
    prev = err
