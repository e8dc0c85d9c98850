"""Piecewise-linear (1D) and bilinear (2D tensor) finite elements on the
unit interval/square with homogeneous Dirichlet conditions.

The elliptic operator is A u = -div(K grad u) on a uniform grid with m
subdivisions per axis, giving M = (m-1)^dim free nodes in lexicographic
order.  Mass and stiffness share the discrete sine eigenbasis, so
nothing is assembled: EllipticSolver holds their eigenvalues and the
DST-I between nodal values and sine coefficients, where a
(mass + beta * stiffness) system is one elementwise division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .time_mesh import TimeMesh


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on (0,1)^dim with diffusivity K."""

    dim: int
    m: int
    K: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.m < 2:
            raise ValueError("need m >= 2 subdivisions per axis")
        if not 0.0 < self.K < np.inf:
            raise ValueError(f"diffusivity K must be positive and finite, got {self.K}")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def M(self) -> int:
        return (self.m - 1) ** self.dim

    @property
    def axis_nodes(self) -> np.ndarray:
        """Free node coordinates along one axis."""
        return np.arange(1, self.m) / self.m


class EllipticSolver:
    """The FEM operators in the sine basis, and the solver for
    (mass + beta * stiffness) u = b there.

    `sine` is the orthonormal DST-I matrix S, S[i, j] = sqrt(2/m)
    sin(pi i j / m); it is symmetric and its own inverse.  transform
    applies S along every axis (S @ v in 1D, S @ X @ S in 2D), mapping
    nodal values to sine coefficients and back.  In that basis mass and
    stiffness are the diagonals `mu` and `sigma`, flat in lexicographic
    mode order: mass = S diag(mu) S and stiffness = S diag(sigma) S.
    """

    def __init__(self, grid: SpatialGrid):
        self.grid = grid
        m, h, K = grid.m, grid.h, grid.K
        i = np.arange(1, m)
        # i*j reduced mod 2m keeps the sine's argument below 2 pi, so every
        # entry is accurate to a few ulps however large m is
        self.sine = np.sqrt(2.0 / m) * np.sin(np.pi / m * (np.outer(i, i) % (2 * m)))
        cos = np.cos(i * np.pi / m)
        # eigenvalues of the 1D factors
        mass_1d = (h / 6.0) * (4.0 + 2.0 * cos)
        stiff_1d = (K / h) * (2.0 - 2.0 * cos)
        if grid.dim == 1:
            self.mu, self.sigma = mass_1d, stiff_1d
        else:
            # 2D operators are tensor products: mass = M1 x M1,
            # stiffness = S1 x M1 + M1 x S1
            self.mu = np.outer(mass_1d, mass_1d).reshape(-1)
            self.sigma = (np.outer(stiff_1d, mass_1d) + np.outer(mass_1d, stiff_1d)).reshape(-1)

    def transform(self, v: np.ndarray) -> np.ndarray:
        """The DST-I of v along every axis: sine coefficients of nodal
        values, or nodal values of sine coefficients.  v may be a stack
        (..., M) of vectors; each row of the result is bitwise the
        transform of that row alone, as numpy's stacked matmul takes the
        same product per item (v @ S in 1D would not: it sums in another
        order)."""
        if self.grid.dim == 1:
            return np.matmul(self.sine, v[..., None])[..., 0]
        n = self.grid.m - 1
        return (self.sine @ v.reshape(*v.shape[:-1], n, n) @ self.sine).reshape(v.shape)

    def solve(self, beta: float, b_hat: np.ndarray) -> np.ndarray:
        """Sine coefficients of the solution of (mass + beta * stiffness) u = b,
        given the sine coefficients b_hat of b."""
        if beta < 0.0:
            raise ValueError("beta must be nonnegative")
        return b_hat / (self.mu + beta * self.sigma)

    def sine_load(self, source: SeparableSource | None) -> np.ndarray:
        """Sine coefficients mu * S spatial of the load mass @ spatial of
        the source's spatial factor; zero for no source."""
        if source is None:
            return np.zeros(self.grid.M)
        return self.mu * self.transform(np.ravel(source.spatial))


def l2_norm(solver: EllipticSolver, v: np.ndarray) -> float:
    """Finite element L2 norm sqrt(v' mass v), as the Parseval sum
    sqrt(sum mu * (S v)^2)."""
    c = solver.transform(v)
    return float(np.sqrt(solver.mu @ (c * c)))


def sine_mode(grid: SpatialGrid, i: int, j: int | None = None) -> np.ndarray:
    """Nodal values of the Dirichlet eigenfunction sin(i pi x) (times
    sin(j pi y) in 2D)."""
    x = grid.axis_nodes
    if grid.dim == 1:
        return np.sin(i * np.pi * x)
    if j is None:
        raise ValueError("2D mode needs both indices")
    return np.outer(np.sin(i * np.pi * x), np.sin(j * np.pi * x)).reshape(-1)


@dataclass(frozen=True)
class SeparableSource:
    """Source f(x, t) = time_factor(t) * spatial(x), with the time average
    over an interval supplied in closed form.

    spatial holds nodal values on the free nodes; time_average(t0, t1)
    returns (t1 - t0)^{-1} * integral of the time factor.
    """

    spatial: np.ndarray
    time_average: Callable[[float, float], float]


def sin_plus_one_average(t0: float, t1: float) -> float:
    """Interval average of 1 + sin(pi t) in closed form."""
    return 1.0 + (math.cos(math.pi * t0) - math.cos(math.pi * t1)) / (math.pi * (t1 - t0))


def benchmark_source(grid: SpatialGrid) -> SeparableSource:
    """The separable benchmark source (1 + sin pi t) * phi_11."""
    return SeparableSource(spatial=sine_mode(grid, 1, 1 if grid.dim == 2 else None),
                           time_average=sin_plus_one_average)


def load_average(mesh: TimeMesh, n: int, source: SeparableSource | None,
                 load_hat: np.ndarray) -> np.ndarray:
    """Sine coefficients of the load of the time-averaged source over
    interval n: the source's time average over I_n times load_hat, the
    run's EllipticSolver.sine_load(source).  None means a zero source.
    """
    if source is None:
        return np.zeros_like(load_hat)
    return source.time_average(mesh.level(n - 1), mesh.level(n)) * load_hat
