"""Solver for the anomalous-subdiffusion model problem.

Piecewise-constant discontinuous Galerkin time stepping with continuous
piecewise-linear finite elements in space.  The memory term over past
time steps can be evaluated exactly (quadratic cost in the number of
steps) or through a clustered low-rank approximation with near-linear
cost and logarithmic live storage.

The package root holds the run API; the building blocks (weights,
expansion, cluster tree, history engine, diagnostics) live in their
modules.
"""

from .clustering import max_depth
from .dg_stepper import RunConfig, RunResult, fast_run, optimal_eta, slow_run
from .history_engine import SolutionSink
from .reference_solution import max_nodal_error, u11
from .spatial_fem import SeparableSource, SpatialGrid, benchmark_source, sine_mode
from .time_mesh import TimeMesh, mesh_from_levels, uniform_mesh

__all__ = [
    "RunConfig",
    "RunResult",
    "SeparableSource",
    "SolutionSink",
    "SpatialGrid",
    "TimeMesh",
    "benchmark_source",
    "fast_run",
    "max_depth",
    "max_nodal_error",
    "mesh_from_levels",
    "optimal_eta",
    "sine_mode",
    "slow_run",
    "u11",
    "uniform_mesh",
]
