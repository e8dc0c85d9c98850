import math

import numpy as np
import pytest
from scipy.integrate import quad

from subdiff.spatial_fem import (
    EllipticSolver,
    SeparableSource,
    SpatialGrid,
    assemble,
    l2_norm,
    load_average,
    nodal_interpolant,
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
    with pytest.raises(ValueError):
        SpatialGrid(dim=1, m=4, K=0.0)


def test_assembled_matrices_1d():
    grid = SpatialGrid(dim=1, m=4, K=2.0)
    mass, stiff = assemble(grid)
    h = 0.25
    want_mass = h / 6.0 * np.array([[4, 1, 0], [1, 4, 1], [0, 1, 4]], dtype=float)
    want_stiff = 2.0 / h * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    np.testing.assert_allclose(mass.toarray(), want_mass)
    np.testing.assert_allclose(stiff.toarray(), want_stiff)


def test_assembled_matrices_2d_tensor_structure():
    grid = SpatialGrid(dim=2, m=3, K=1.0)
    mass, stiff = assemble(grid)
    m1, s1 = assemble(SpatialGrid(dim=1, m=3, K=1.0))
    np.testing.assert_allclose(mass.toarray(),
                               np.kron(m1.toarray(), m1.toarray()))
    want = np.kron(s1.toarray(), m1.toarray()) + np.kron(m1.toarray(), s1.toarray())
    np.testing.assert_allclose(stiff.toarray(), want)


@pytest.mark.parametrize("dim", [1, 2])
def test_solver_residual(dim):
    grid = SpatialGrid(dim=dim, m=12, K=0.3)
    solver = EllipticSolver(grid)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(grid.M)
    for beta in (0.0, 0.7, 3.0):
        u = solver.solve(beta, b)
        resid = solver.mass @ u + beta * (solver.stiffness @ u) - b
        assert np.max(np.abs(resid)) < 1e-12


def test_discrete_eigenvalue_converges_to_one():
    """With K = 1/(2 pi^2), the first generalized eigenvalue of the 2D
    stiffness/mass pair tends to the continuous value 1."""
    grid = SpatialGrid(dim=2, m=16, K=1.0 / (2.0 * math.pi**2))
    solver = EllipticSolver(grid)
    phi = sine_mode(grid, 1, 1)
    lam = (phi @ (solver.stiffness @ phi)) / (phi @ (solver.mass @ phi))
    assert lam == pytest.approx(1.0, abs=1e-2)


def test_sine_mode_is_discrete_eigenvector():
    grid = SpatialGrid(dim=1, m=10, K=1.0)
    solver = EllipticSolver(grid)
    phi = sine_mode(grid, 2)
    # M^{-1} S phi = lambda phi in the discrete sense: solve(0, S phi)
    w = solver.solve(0.0, solver.mass @ phi)
    np.testing.assert_allclose(w, phi, rtol=1e-12, atol=1e-12)


def test_l2_norm_of_sine_mode():
    grid = SpatialGrid(dim=1, m=200, K=1.0)
    solver = EllipticSolver(grid)
    val = l2_norm(solver, sine_mode(grid, 1))
    assert val == pytest.approx(math.sqrt(0.5), rel=1e-4)


def test_nodal_interpolant_ordering():
    grid = SpatialGrid(dim=2, m=3, K=1.0)
    vals = nodal_interpolant(grid, lambda x, y: 10.0 * x + y)
    # lexicographic: x varies slowest
    np.testing.assert_allclose(
        vals,
        [10 * xi + yi
         for xi in (1 / 3, 2 / 3) for yi in (1 / 3, 2 / 3)],
    )


def test_sin_plus_one_average_matches_quadrature():
    for t0, t1 in [(0.0, 0.5), (0.25, 1.75), (3.0, 3.001)]:
        want = quad(lambda t: 1.0 + math.sin(math.pi * t), t0, t1)[0] / (t1 - t0)
        assert sin_plus_one_average(t0, t1) == pytest.approx(want, rel=1e-10)


def test_load_average():
    grid = SpatialGrid(dim=1, m=8, K=1.0)
    solver = EllipticSolver(grid)
    mesh = uniform_mesh(4, 2.0)
    src = benchmark_source(grid)
    got = load_average(solver, mesh, 2, src)
    avg = sin_plus_one_average(0.5, 1.0)
    np.testing.assert_allclose(got, avg * (solver.mass @ sine_mode(grid, 1)),
                               rtol=1e-13)
    assert np.all(load_average(solver, mesh, 2, None) == 0.0)


def test_separable_source_time_average_hook():
    grid = SpatialGrid(dim=1, m=4, K=1.0)
    src = SeparableSource(spatial=np.ones(grid.M), time_average=lambda a, b: 2.0)
    assert src.time_average(0.0, 1.0) == 2.0
