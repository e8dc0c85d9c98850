import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dstn
from scipy.integrate import quad

from subdiff.spatial_fem import (
    EllipticSolver,
    SeparableSource,
    SpatialGrid,
    l2_norm,
    load_average,
    sin_plus_one_average,
    sine_mode,
    benchmark_source,
)
from subdiff.time_mesh import uniform_mesh


def test_grid_validation():
    g = SpatialGrid(dim=2, m=4, K=0.5)
    assert g.h == pytest.approx(0.25)
    assert g.M == 9
    with pytest.raises(ValueError):
        SpatialGrid(dim=3, m=4, K=1.0)
    with pytest.raises(ValueError):
        SpatialGrid(dim=1, m=1, K=1.0)
    for K in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="diffusivity K must be positive and finite"):
            SpatialGrid(dim=1, m=4, K=K)


def _mass_1d(m: int) -> np.ndarray:
    h = 1.0 / m
    return h / 6.0 * (4.0 * np.eye(m - 1) + np.eye(m - 1, k=1) + np.eye(m - 1, k=-1))


def _stiff_1d(m: int, K: float) -> np.ndarray:
    h = 1.0 / m
    return K / h * (2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1))


def assemble(grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Dense mass and stiffness matrices on the free nodes, the oracle for
    the solver's sine-basis operators.

    2D matrices are tensor products of the 1D factors:
    mass = M1 x M1, stiffness = S1 x M1 + M1 x S1.
    """
    m1, s1 = _mass_1d(grid.m), _stiff_1d(grid.m, grid.K)
    if grid.dim == 1:
        return m1, s1
    return np.kron(m1, m1), np.kron(s1, m1) + np.kron(m1, s1)


def test_assembled_matrices_1d():
    grid = SpatialGrid(dim=1, m=4, K=2.0)
    mass, stiff = assemble(grid)
    h = 0.25
    want_mass = h / 6.0 * np.array([[4, 1, 0], [1, 4, 1], [0, 1, 4]], dtype=float)
    want_stiff = 2.0 / h * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    np.testing.assert_allclose(mass, want_mass)
    np.testing.assert_allclose(stiff, want_stiff)


def test_assembled_matrices_2d_tensor_structure():
    grid = SpatialGrid(dim=2, m=3, K=1.0)
    mass, stiff = assemble(grid)
    m1, s1 = assemble(SpatialGrid(dim=1, m=3, K=1.0))
    np.testing.assert_allclose(mass, np.kron(m1, m1))
    np.testing.assert_allclose(stiff, np.kron(s1, m1) + np.kron(m1, s1))


@pytest.mark.parametrize("dim,m", [(1, 9), (2, 6)])
def test_sine_basis_diagonalises_assembled_operators(dim, m):
    grid = SpatialGrid(dim=dim, m=m, K=0.7)
    solver = EllipticSolver(grid)
    mass, stiff = assemble(grid)
    # columns of the transform of the identity are the basis vectors
    basis = np.column_stack([solver.transform(e) for e in np.eye(grid.M)])
    np.testing.assert_allclose(basis.T @ mass @ basis, np.diag(solver.mu), atol=1e-14)
    np.testing.assert_allclose(basis.T @ stiff @ basis, np.diag(solver.sigma),
                               atol=1e-13 * np.max(solver.sigma))


@pytest.mark.parametrize("dim", [1, 2])
def test_solver_residual(dim):
    grid = SpatialGrid(dim=dim, m=12, K=0.3)
    solver = EllipticSolver(grid)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(grid.M)
    mass, stiff = assemble(grid)
    for beta in (0.0, 0.7, 3.0):
        u = solver.transform(solver.solve(beta, solver.transform(b)))
        resid = mass @ u + beta * (stiff @ u) - b
        assert np.max(np.abs(resid)) < 1e-12


def test_discrete_eigenvalue_converges_to_one():
    """With K = 1/(2 pi^2), the first generalized eigenvalue of the 2D
    stiffness/mass pair tends to the continuous value 1."""
    grid = SpatialGrid(dim=2, m=16, K=1.0 / (2.0 * math.pi**2))
    mass, stiff = assemble(grid)
    phi = sine_mode(grid, 1, 1)
    lam = (phi @ (stiff @ phi)) / (phi @ (mass @ phi))
    assert lam == pytest.approx(1.0, abs=1e-2)


def test_sine_mode_is_discrete_eigenvector():
    grid = SpatialGrid(dim=1, m=10, K=1.0)
    solver = EllipticSolver(grid)
    mass, stiff = assemble(grid)
    phi = sine_mode(grid, 2)
    # the mode solves mass w = mass phi: solve(0, S mass phi)
    w = solver.transform(solver.solve(0.0, solver.transform(mass @ phi)))
    np.testing.assert_allclose(w, phi, rtol=1e-12, atol=1e-12)
    # and its sine coefficients sit on mode 2 alone, where
    # stiffness phi = (sigma_2 / mu_2) mass phi
    coeffs = solver.transform(phi)
    assert np.count_nonzero(np.abs(coeffs) > 1e-12) == 1 and abs(coeffs[1]) > 1.0
    np.testing.assert_allclose(stiff @ phi, solver.sigma[1] / solver.mu[1] * (mass @ phi),
                               rtol=1e-12, atol=1e-12)


def test_l2_norm_of_sine_mode():
    grid = SpatialGrid(dim=1, m=200, K=1.0)
    solver = EllipticSolver(grid)
    val = l2_norm(solver, sine_mode(grid, 1))
    assert val == pytest.approx(math.sqrt(0.5), rel=1e-4)


@pytest.mark.parametrize("dim,m", [(1, 2), (1, 17), (1, 200), (2, 9), (2, 40)])
def test_transform_is_the_orthonormal_dst_and_involutive(dim, m):
    grid = SpatialGrid(dim=dim, m=m, K=1.0)
    solver = EllipticSolver(grid)
    v = np.random.default_rng(m).standard_normal(grid.M)
    shape = (m - 1,) * dim
    want = dstn(v.reshape(shape), type=1, norm="ortho").reshape(-1)
    scale = np.max(np.abs(want))
    # 1e-14 rather than 1e-13: without reducing i*j mod 2m in the sine's
    # argument, m = 200 is off by about 2e-14
    np.testing.assert_allclose(solver.transform(v), want, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(solver.transform(solver.transform(v)), v, rtol=0,
                               atol=1e-14 * np.max(np.abs(v)))


@pytest.mark.parametrize("dim,m", [(1, 13), (2, 7)])
def test_parseval_l2_norm_matches_assembled_mass(dim, m):
    grid = SpatialGrid(dim=dim, m=m, K=1.0)
    solver = EllipticSolver(grid)
    mass, _ = assemble(grid)
    for v in np.random.default_rng(dim).standard_normal((4, grid.M)):
        assert l2_norm(solver, v) == pytest.approx(math.sqrt(v @ mass @ v), rel=1e-13)


def test_import_loads_no_scipy():
    """The package and its CLI need no scipy module: importing them in a
    fresh interpreter loads none."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, subdiff, subdiff.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def nodal_interpolant(grid, f):
    """Values of f at the free nodes, lexicographic order.

    1D: f(x); 2D: f(x1, x2) broadcast over the tensor grid.
    """
    x = grid.axis_nodes
    if grid.dim == 1:
        return np.asarray([f(xi) for xi in x], dtype=float)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return np.asarray(f(x1, x2), dtype=float).reshape(-1)


def test_nodal_interpolant_ordering():
    grid = SpatialGrid(dim=2, m=3, K=1.0)
    vals = nodal_interpolant(grid, lambda x, y: 10.0 * x + y)
    # lexicographic: x varies slowest
    np.testing.assert_allclose(
        vals,
        [10 * xi + yi
         for xi in (1 / 3, 2 / 3) for yi in (1 / 3, 2 / 3)],
    )
    # sine_mode numbers the nodes the same way
    grid = SpatialGrid(dim=2, m=5, K=1.0)
    want = nodal_interpolant(grid, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
    np.testing.assert_allclose(sine_mode(grid, 1, 2), want, rtol=1e-14, atol=1e-15)


def test_sin_plus_one_average_matches_quadrature():
    for t0, t1 in [(0.0, 0.5), (0.25, 1.75), (3.0, 3.001)]:
        want = quad(lambda t: 1.0 + math.sin(math.pi * t), t0, t1)[0] / (t1 - t0)
        assert sin_plus_one_average(t0, t1) == pytest.approx(want, rel=1e-10)


def test_sin_plus_one_average_is_bitwise_its_numpy_form(monkeypatch):
    """The average in math floats equals the same expression in numpy
    scalars bit for bit, as a float, on every interval the benchmark
    workloads step through: the desk mesh (2,000 uniform steps to T = 6)
    and the long1d meshes of seeds 1 and 2 (4,096 +-30% steps each)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import long_levels

    for levels in (uniform_mesh(2000, 6.0).levels, long_levels(1), long_levels(2)):
        for t0, t1 in zip(levels[:-1].tolist(), levels[1:].tolist()):
            got = sin_plus_one_average(t0, t1)
            assert type(got) is float
            assert got == 1.0 + (np.cos(np.pi * t0) - np.cos(np.pi * t1)) / (np.pi * (t1 - t0))


def test_load_average():
    grid = SpatialGrid(dim=1, m=8, K=1.0)
    solver = EllipticSolver(grid)
    mass, _ = assemble(grid)
    mesh = uniform_mesh(4, 2.0)
    src = benchmark_source(grid)
    got = solver.transform(load_average(mesh, 2, src, solver.sine_load(src)))
    avg = sin_plus_one_average(0.5, 1.0)
    np.testing.assert_allclose(got, avg * (mass @ sine_mode(grid, 1)), rtol=1e-13)
    assert np.all(load_average(mesh, 2, None, solver.sine_load(None)) == 0.0)


def test_separable_source_time_average_hook():
    grid = SpatialGrid(dim=1, m=4, K=1.0)
    src = SeparableSource(spatial=np.ones(grid.M), time_average=lambda a, b: 2.0)
    assert src.time_average(0.0, 1.0) == 2.0


@pytest.mark.parametrize("dim,m", [(1, 2), (1, 8), (1, 64), (2, 6), (2, 40)])
def test_stacked_transform_is_bitwise_the_per_row_transform(dim, m):
    """transform of a stack (..., M) gives, row for row, the bits of the
    single-vector call, in 1D down to M = 1; the march's in-memory rows
    and the CLI's error pass rely on it."""
    solver = EllipticSolver(SpatialGrid(dim=dim, m=m))
    v = np.random.default_rng(m).standard_normal((3, 5, solver.grid.M))
    got = solver.transform(v)
    assert got.shape == v.shape
    for i, j in np.ndindex(3, 5):
        assert got[i, j].tobytes() == solver.transform(v[i, j]).tobytes()
