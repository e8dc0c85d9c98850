"""Time partitions 0 = t_0 < t_1 < ... < t_N = T with quasiuniformity checks.

Interval indices are 1-based throughout the public API: interval n is
(t_{n-1}, t_n] with step k_n = t_n - t_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MAX_STEP_RATIO = 2.0  # largest max k_n / min k_n mesh_from_levels accepts


@dataclass(frozen=True)
class TimeMesh:
    """Immutable time partition.

    Attributes:
        levels: array of length N+1 holding t_0 .. t_N, finite.
        uniform: derived from the levels, not passed: True when all steps
            are exactly equal or the levels equal np.linspace(0, T, N+1),
            as uniform_mesh builds them.  It enables integer index
            arithmetic in admissibility tests and a lag table of weights.
    """

    levels: np.ndarray
    uniform: bool = field(init=False)

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "levels", levels)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError("mesh needs at least one interval")
        if not np.all(np.isfinite(levels)):
            raise ValueError("time levels must be finite")
        if levels[0] != 0.0:
            raise ValueError("mesh must start at t_0 = 0")
        steps = np.diff(levels)
        if np.any(steps <= 0.0):
            raise ValueError("time levels must be strictly increasing")
        uniform = bool(steps.max() == steps.min()) or np.array_equal(
            levels, np.linspace(0.0, levels[-1], levels.size))
        object.__setattr__(self, "uniform", uniform)

    @property
    def N(self) -> int:
        return self.levels.size - 1

    @property
    def T(self) -> float:
        return float(self.levels[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.levels)

    @property
    def k_min(self) -> float:
        return float(self.steps.min())

    def step(self, n: int) -> float:
        self._check_index(n)
        return float(self.levels[n] - self.levels[n - 1])

    def level(self, n: int) -> float:
        if not 0 <= n < self.levels.size:
            raise ValueError(f"level index {n} outside 0..{self.N}")
        return float(self.levels[n])

    def _check_index(self, n: int) -> None:
        if not 1 <= n <= self.N:
            raise ValueError(f"interval index {n} outside 1..{self.N}")


def uniform_mesh(N: int, T: float) -> TimeMesh:
    """Uniform partition of [0, T] into N intervals."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0.0 < T < np.inf:
        raise ValueError(f"final time T must be positive and finite, got {T}")
    return TimeMesh(np.linspace(0.0, T, N + 1))


def mesh_from_levels(levels) -> TimeMesh:
    """Validating constructor for an arbitrary quasiuniform partition.

    Rejects meshes whose step ratio max k_n / min k_n exceeds
    _MAX_STEP_RATIO, since the fast summation cost analysis assumes
    quasiuniformity.
    """
    mesh = TimeMesh(levels)
    steps = mesh.steps
    ratio = steps.max() / steps.min()
    if ratio > _MAX_STEP_RATIO * (1.0 + 1e-12):
        raise ValueError(
            f"mesh is not quasiuniform: step ratio {ratio:.6g} exceeds {_MAX_STEP_RATIO:.6g}"
        )
    return mesh
