"""The benchmark's workloads: the inputs each one builds from its seed and
the correctness gate its outputs must pass.

Only the long 1D workload depends on the seed (it perturbs the time
steps); the two desk-scale workloads are the fixed problem of the
README, so every seed gives them the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLI, SLOW, LONG = "desk2d-fast-cli", "desk2d-slow", "long1d-fast"
WORKLOADS = (CLI, SLOW, LONG)
FAST = (CLI, LONG)

# The desk-scale problem of the paper, as the README runs it.
DESK_ARGV = ["--mode", "fast", "--nu", "0.5", "--T", "6", "--N", "2000", "--dim", "2",
             "--m", "40", "--Q", "10", "--G", "3", "--r", "5", "--eta", "0.4"]

# Correctness gate.  Both desk workloads must print the same error to three
# significant digits, the rule of acceptance criterion 5; comparing each
# with one stored value makes the rule hold across separate runs.
DESK_ERROR_3SIG = "1.35e-03"
DESK_ERROR_TOL = 1.5e-3
# The m = 8 grid puts the long run on its spatial error floor (~2.2e-2).
LONG_ERROR_TOL = 3.0e-2


@dataclass(frozen=True)
class Problem:
    """One solver run: the time levels plus the spatial and scheme settings."""

    workload: str
    nu: float
    levels: np.ndarray  # t_0 .. t_N
    dim: int
    m: int
    Q: int
    G: int | None
    r: int | None
    eta: float | None

    @property
    def uniform(self) -> bool:
        return self.workload != LONG

    @property
    def N(self) -> int:
        return self.levels.size - 1

    @property
    def M(self) -> int:
        return (self.m - 1) ** self.dim

    @property
    def K(self) -> float:
        # principal Laplacian eigenvalue 1, so the exact solution is u11 * phi_11
        return 1.0 / (self.dim * math.pi**2)

    @property
    def error_tol(self) -> float:
        return LONG_ERROR_TOL if self.workload == LONG else DESK_ERROR_TOL


def long_levels(seed: int, N: int = 4096, T: float = 6.0, jitter: float = 0.3) -> np.ndarray:
    """Quasiuniform levels on [0, T]: each step is T/N perturbed by up to
    +-jitter, then all are rescaled to end at T."""
    rng = np.random.default_rng(seed)
    steps = 1.0 + jitter * rng.uniform(-1.0, 1.0, N)
    levels = np.concatenate([[0.0], np.cumsum(steps)])
    return levels * (T / levels[-1])


def problem(workload: str, seed: int) -> Problem:
    if workload == LONG:
        return Problem(LONG, nu=0.3, levels=long_levels(seed), dim=1, m=8, Q=2,
                       G=None, r=None, eta=None)
    if workload in (CLI, SLOW):
        return Problem(workload, nu=0.5, levels=np.linspace(0.0, 6.0, 2001), dim=2, m=40,
                       Q=10, G=3, r=5, eta=0.4)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def error_gate(prob: Problem, err: float) -> list[str]:
    """Gate failures for the max nodal error of one solve."""
    out = []
    if not err <= prob.error_tol:
        out.append(f"max nodal error {err:.4e} exceeds {prob.error_tol:.1e}")
    if prob.workload != LONG and f"{err:.2e}" != DESK_ERROR_3SIG:
        out.append(f"desk-scale error {err:.4e} does not read {DESK_ERROR_3SIG} "
                   "to three significant digits")
    return out
