"""Piecewise-linear (1D) and bilinear (2D tensor) finite elements on the
unit interval/square with homogeneous Dirichlet conditions.

The elliptic operator is A u = -div(K grad u) on a uniform grid with m
subdivisions per axis, giving M = (m-1)^dim free nodes in lexicographic
order.  Mass and stiffness matrices share the discrete sine eigenbasis,
so (mass + beta * stiffness) systems are solved by DST-I diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn

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
        if self.K <= 0.0:
            raise ValueError("diffusivity K must be positive")

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


def _mass_1d(m: int) -> sp.csr_matrix:
    h = 1.0 / m
    main = np.full(m - 1, 4.0 * h / 6.0)
    off = np.full(m - 2, h / 6.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _stiff_1d(m: int, K: float) -> sp.csr_matrix:
    h = 1.0 / m
    main = np.full(m - 1, 2.0 * K / h)
    off = np.full(m - 2, -K / h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def assemble(grid: SpatialGrid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Mass and stiffness matrices on the free nodes.

    2D matrices are tensor products of the 1D factors:
    mass = M1 x M1, stiffness = S1 x M1 + M1 x S1.
    """
    m1 = _mass_1d(grid.m)
    if grid.dim == 1:
        return m1, _stiff_1d(grid.m, grid.K)
    s1 = _stiff_1d(grid.m, grid.K)
    mass = sp.kron(m1, m1, format="csr")
    stiff = (sp.kron(s1, m1) + sp.kron(m1, s1)).tocsr()
    return mass, stiff


class EllipticSolver:
    """Assembled operators plus a DST-I diagonalized solver for
    (mass + beta * stiffness) u = b."""

    def __init__(self, grid: SpatialGrid):
        self.grid = grid
        self.mass, self.stiffness = assemble(grid)
        m, h, K = grid.m, grid.h, grid.K
        i = np.arange(1, m)
        cos = np.cos(i * np.pi / m)
        # eigenvalues of the 1D factors in the sine basis
        self._mass_eig = (h / 6.0) * (4.0 + 2.0 * cos)
        self._stiff_eig = (K / h) * (2.0 - 2.0 * cos)

    def _shape(self, v: np.ndarray) -> np.ndarray:
        n = self.grid.m - 1
        return v.reshape((n,) * self.grid.dim)

    def solve(self, beta: float, b: np.ndarray) -> np.ndarray:
        """Solve (mass + beta * stiffness) u = b by sine diagonalization."""
        if beta < 0.0:
            raise ValueError("beta must be nonnegative")
        bh = dstn(self._shape(np.asarray(b, dtype=float)), type=1, norm="ortho")
        me, se = self._mass_eig, self._stiff_eig
        if self.grid.dim == 1:
            denom = me + beta * se
        else:
            denom = np.multiply.outer(me, me) + beta * (
                np.multiply.outer(se, me) + np.multiply.outer(me, se)
            )
        u = dstn(bh / denom, type=1, norm="ortho")
        return u.reshape(-1)


def l2_norm(solver: EllipticSolver, v: np.ndarray) -> float:
    """Finite element L2 norm sqrt(v' mass v)."""
    return float(np.sqrt(max(v @ (solver.mass @ v), 0.0)))


def nodal_interpolant(grid: SpatialGrid, f: Callable) -> np.ndarray:
    """Values of f at the free nodes, lexicographic order.

    1D: f(x); 2D: f(x1, x2) broadcast over the tensor grid.
    """
    x = grid.axis_nodes
    if grid.dim == 1:
        return np.asarray([f(xi) for xi in x], dtype=float)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return np.asarray(f(x1, x2), dtype=float).reshape(-1)


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
    return 1.0 + (np.cos(np.pi * t0) - np.cos(np.pi * t1)) / (np.pi * (t1 - t0))


def benchmark_source(grid: SpatialGrid) -> SeparableSource:
    """The separable benchmark source (1 + sin pi t) * phi_11."""
    return SeparableSource(spatial=sine_mode(grid, 1, 1 if grid.dim == 2 else None),
                           time_average=sin_plus_one_average)


def load_average(solver: EllipticSolver, mesh: TimeMesh, n: int,
                 source: SeparableSource | None) -> np.ndarray:
    """Load vector of the time-averaged source over interval n.

    Entries are <fbar_n, basis_m>, computed as mass * interpolant for the
    separable sources supported here; None means a zero source.
    """
    if source is None:
        return np.zeros(solver.grid.M)
    avg = source.time_average(mesh.level(n - 1), mesh.level(n))
    return avg * (solver.mass @ source.spatial)
