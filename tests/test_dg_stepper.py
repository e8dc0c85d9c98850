import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from subdiff import dg_stepper
from subdiff.clustering import ClusterTree
from subdiff.dg_stepper import (
    RunConfig,
    accuracy_threshold,
    fast_run,
    optimal_eta,
    rho_nu,
    select_params,
    slow_run,
    stability_diagnostic,
    stability_threshold,
)
from subdiff.frac_weights import KernelParams, WeightEngine
from subdiff.history_engine import SolutionSink
from subdiff.reference_solution import direct_history_sum, u11
from subdiff.spatial_fem import (
    EllipticSolver,
    SeparableSource,
    SpatialGrid,
    benchmark_source,
    l2_norm,
    sine_mode,
)
from subdiff.taylor_expansion import phi_coeffs, psi_coeffs
from subdiff.time_mesh import mesh_from_levels, uniform_mesh
from test_spatial_fem import assemble


def test_rho_nu_values_and_continuity():
    assert rho_nu(0.5) == pytest.approx(0.48242, abs=5e-5)
    # positive and continuous across (0, 1)
    grid = np.linspace(0.01, 0.99, 197)
    vals = [rho_nu(float(nu)) for nu in grid]
    assert all(v > 0.0 for v in vals)
    assert max(abs(a - b) for a, b in zip(vals, vals[1:])) < 0.02
    with pytest.raises(ValueError):
        rho_nu(0.0)


def test_optimal_eta_table():
    assert optimal_eta(4) == pytest.approx(0.6024, abs=5e-5)
    assert optimal_eta(5) == pytest.approx(0.6228, abs=5e-5)
    assert optimal_eta(6) == pytest.approx(0.6378, abs=5e-5)
    with pytest.raises(ValueError):
        optimal_eta(0)


def test_select_params_with_explicit_r():
    mesh = uniform_mesh(256, 1.0)
    r, eta = select_params(0.5, mesh, r=5)
    assert (r, eta) == (5, optimal_eta(5))


def test_select_params_auto_meets_both_gates():
    mesh = uniform_mesh(256, 1.0)
    r, eta = select_params(0.5, mesh)
    gate = min(stability_threshold(0.5, mesh), accuracy_threshold(0.5, mesh))
    assert (r + 1) * (eta / 2.0) ** r <= gate
    # one order lower must fail the gate (r is minimal)
    r2 = r - 1
    assert (r2 + 1) * (optimal_eta(r2) / 2.0) ** r2 > gate


def test_select_params_r_cap(monkeypatch):
    monkeypatch.setattr(dg_stepper, "_R_CAP", 3)
    mesh = uniform_mesh(4096, 1.0)
    with pytest.raises(ValueError, match="no expansion order up to 3"):
        select_params(0.5, mesh)


def problem(N=32, m=16, dim=1, nu=0.5, T=1.0):
    mesh = uniform_mesh(N, T)
    grid = SpatialGrid(dim=dim, m=m, K=1.0 / (dim * math.pi**2))
    return mesh, grid, benchmark_source(grid), sine_mode(grid, 1, 1 if dim == 2 else None)


def perturbed_mesh(N, seed):
    """Steps of length 1/N perturbed by up to +-30%, ending at T = 1."""
    steps = 1.0 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, N)
    return mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum())


def test_slow_run_single_step():
    mesh, grid, src, u0 = problem(N=1)
    cfg = RunConfig(nu=0.5, mesh=mesh, grid=grid)
    res = slow_run(cfg, src, u0)
    assert len(res.solutions) == 1
    assert res.rhs_ops == 0
    mass, stiff = assemble(grid)
    w = WeightEngine(KernelParams(0.5), mesh)
    load = src.time_average(0.0, mesh.level(1)) * (mass @ src.spatial)
    rhs = mass @ u0 + mesh.step(1) * load
    np.testing.assert_allclose(res.solutions[0], np.linalg.solve(mass + w.diag(1) * stiff, rhs),
                               rtol=1e-14)


def nodal_march(config, source, u0):
    """The DG step in nodal values with the assembled matrices: the
    oracle for the sine-basis march."""
    mesh, M = config.mesh, config.grid.M
    mass, stiff = assemble(config.grid)
    weights = WeightEngine(KernelParams(config.nu), mesh)
    sols = []
    u = u0
    for n in range(1, mesh.N + 1):
        load = source.time_average(mesh.level(n - 1), mesh.level(n)) * (mass @ source.spatial)
        rhs = mass @ u + mesh.step(n) * load + stiff @ direct_history_sum(weights, sols, n, m=M)
        u = np.linalg.solve(mass + weights.diag(n) * stiff, rhs)
        sols.append(u)
    return sols


@pytest.mark.parametrize("dim,m", [(1, 16), (2, 8)])
def test_sine_basis_march_matches_nodal_march(dim, m):
    mesh = perturbed_mesh(64, seed=3)
    grid = SpatialGrid(dim=dim, m=m, K=1.0 / (dim * math.pi**2))
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1, 1 if dim == 2 else None)
    got = slow_run(config, src, u0).solutions
    np.testing.assert_allclose(got, nodal_march(config, src, u0), rtol=1e-12, atol=0)
    # data with every sine mode present; entries near zero are measured
    # against the largest value
    rng = np.random.default_rng(dim)
    src = SeparableSource(spatial=rng.standard_normal(grid.M), time_average=src.time_average)
    u0 = rng.standard_normal(grid.M)
    got = np.asarray(slow_run(config, src, u0).solutions)
    want = np.asarray(nodal_march(config, src, u0))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_zero_data_gives_zero_solution():
    mesh, grid, _, _ = problem(N=8)
    cfg = RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=2, G=2)
    for run in (slow_run, fast_run):
        res = run(cfg, None, None)
        assert all(np.all(u == 0.0) for u in res.solutions)


def test_slow_run_converges_to_exact_solution():
    errs = []
    for N in (16, 32, 64):
        mesh, grid, src, u0 = problem(N=N, m=128)
        res = slow_run(RunConfig(nu=0.5, mesh=mesh, grid=grid), src, u0)
        exact = u11(0.5, mesh.T) * u0  # u0 is the benchmark's spatial mode
        errs.append(float(np.max(np.abs(res.solutions[-1] - exact))))
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.15)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.15)


def test_fast_run_tracks_slow_run():
    mesh, grid, src, u0 = problem(N=64, m=24)
    slow = slow_run(RunConfig(nu=0.5, mesh=mesh, grid=grid), src, u0)
    fast = fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, r=8, Q=2, G=3), src, u0)
    assert fast.r == 8
    diff = np.max([np.max(np.abs(a - b)) for a, b in zip(slow.solutions, fast.solutions)])
    assert diff < 1e-7


@pytest.mark.parametrize("nu, Q, N", [
    pytest.param(0.1, 2, 256, id="0.1"),
    pytest.param(0.5, 2, 256, id="0.5"),
    pytest.param(0.9, 2, 256, id="0.9"),
    (0.001, 3, 243),
    (0.02, 3, 243),
    (0.98, 3, 243),
    (0.02, 4, 256),
    (0.98, 4, 256),
])
def test_fast_run_tracks_slow_run_on_perturbed_mesh(nu, Q, N):
    """Every step length is 1/N perturbed by up to +-30%; (r, eta) and the
    depth are chosen automatically and no uniform-mesh shortcut applies."""
    mesh = perturbed_mesh(N, seed=7)
    assert not mesh.uniform
    grid = SpatialGrid(dim=1, m=16, K=1.0 / math.pi**2)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1)
    slow = slow_run(RunConfig(nu=nu, mesh=mesh, grid=grid), src, u0)
    fast = fast_run(RunConfig(nu=nu, mesh=mesh, grid=grid, Q=Q), src, u0)
    gap = np.max(np.abs(np.array(slow.solutions) - np.array(fast.solutions)))  # keeps a NaN
    assert gap <= 1e-6


def test_fast_run_bitwise_equals_slow_with_degenerate_eta():
    mesh, grid, src, u0 = problem(N=32, m=8)
    slow = slow_run(RunConfig(nu=0.5, mesh=mesh, grid=grid), src, u0)
    fast = fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, r=1, eta=1e-300,
                              Q=2, G=3), src, u0)
    for a, b in zip(slow.solutions, fast.solutions):
        assert np.array_equal(a, b)


def test_streamed_fast_run_equals_in_memory_run(tmp_path):
    """Given a sink, the result's solutions are the stream mapped back:
    bitwise the in-memory run's, N rows of M, read-only."""
    mesh = perturbed_mesh(96, seed=11)
    grid = SpatialGrid(dim=2, m=6, K=1.0 / (2 * math.pi**2))
    config = RunConfig(nu=0.3, mesh=mesh, grid=grid, Q=2)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1, 1)
    plain = fast_run(config, src, u0)
    sink = SolutionSink(tmp_path / "stream.bin", {"N": 96})
    try:
        streamed = fast_run(config, src, u0, sink=sink)
    finally:
        sink.close()
    assert isinstance(plain.solutions, list)
    assert len(streamed.solutions) == 96 and np.shape(streamed.solutions) == (96, grid.M)
    assert not streamed.solutions.flags.writeable
    assert np.array_equal(np.asarray(streamed.solutions), np.asarray(plain.solutions))
    assert all(np.array_equal(a, b) for a, b in zip(streamed.solutions, plain.solutions))
    assert (streamed.rhs_ops, streamed.peak_values) == (plain.rhs_ops, plain.peak_values)


def test_streamed_fast_run_keeps_no_solutions_in_memory(tmp_path):
    """The Python heap peak of a streamed 2D fast run stays well below the
    N M float64 values of its solutions; without a sink it does not."""
    mesh, grid, src, u0 = problem(N=1024, m=16, dim=2)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=5, eta=0.4, Q=2)
    solution_bytes = mesh.N * grid.M * 8
    fast_run(config, src, u0)  # caches filled before tracing
    peaks = []
    for sink in (None, SolutionSink(tmp_path / "stream.bin", {})):
        tracemalloc.start()
        try:
            fast_run(config, src, u0, sink=sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            if sink is not None:
                sink.close()
    in_memory, streamed = peaks
    assert in_memory > solution_bytes
    assert streamed < 0.6 * solution_bytes


@pytest.mark.parametrize("dim", [1, 2])
def test_malformed_initial_value_or_source_is_rejected(dim):
    """Both schemes reject a u0 or source.spatial that does not hold M
    finite values before the first step, naming the argument and M, and
    take one that does flat, whatever its shape."""
    mesh, grid, src, u0 = problem(N=8, m=4, dim=dim)
    cfg, M = RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=2, G=2), grid.M
    spatial = lambda v: SeparableSource(spatial=v, time_average=src.time_average)
    cases = [(src, u0[:-1], "u0"), (src, np.append(u0, 0.0), "u0"),
             (src, np.where(np.arange(M) == 1, np.inf, u0), "u0"),
             (spatial(np.ones(M + 1)), u0, "source.spatial"),
             (spatial(np.full(M, np.nan)), u0, "source.spatial")]
    for run in (slow_run, fast_run):
        for source, init, name in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must hold M={M} finite"):
                run(cfg, source, init)
        column = run(cfg, spatial(src.spatial[:, None]), u0[:, None]).solutions
        assert np.array_equal(column, run(cfg, src, u0).solutions)


def test_fast_run_eta_requires_r():
    mesh, grid, src, u0 = problem(N=8)
    with pytest.raises(ValueError, match="explicit eta"):
        fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, eta=0.5, Q=2, G=2), src, u0)
    with pytest.raises(ValueError, match="explicit eta"):
        stability_diagnostic(RunConfig(nu=0.5, mesh=mesh, grid=grid, eta=0.9, Q=2, G=2))


def test_resolved_params_single_rule():
    mesh, grid, src, u0 = problem(N=8)
    base = dict(nu=0.5, mesh=mesh, grid=grid, Q=2, G=2)
    assert RunConfig(r=5, **base).resolved_params() == (5, optimal_eta(5))
    assert RunConfig(r=5, eta=0.9, **base).resolved_params() == (5, 0.9)
    assert RunConfig(**base).resolved_params() == select_params(0.5, mesh)
    # an eta outside (0, 1] is rejected by the run and the diagnostic alike
    cfg = RunConfig(r=4, eta=1.5, **base)
    with pytest.raises(ValueError, match="eta must lie"):
        fast_run(cfg, src, u0)
    with pytest.raises(ValueError, match="eta must lie"):
        stability_diagnostic(cfg)


def test_phase_times_cover_the_whole_run():
    mesh, grid, src, u0 = problem(N=64, m=16)
    for run in (slow_run, fast_run):
        start = time.perf_counter()
        res = run(RunConfig(nu=0.5, mesh=mesh, grid=grid, r=4, Q=2, G=3), src, u0)
        wall = time.perf_counter() - start
        assert res.total_seconds <= wall
        assert res.total_seconds >= 0.9 * wall


def test_homogeneous_norm_nonincreasing():
    mesh, grid, _, u0 = problem(N=64, m=16)
    res = fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=2, G=3), None, u0)
    solver = EllipticSolver(grid)
    norms = [l2_norm(solver, u) for u in res.solutions]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_result_accounting():
    mesh, grid, src, u0 = problem(N=32, m=8)
    slow = slow_run(RunConfig(nu=0.5, mesh=mesh, grid=grid), src, u0)
    assert slow.rhs_ops == sum(n - 1 for n in range(1, 33)) * grid.M
    assert slow.peak_values == 32 * grid.M
    assert slow.total_seconds >= 0.0
    fast = fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, r=3, Q=2, G=3), src, u0)
    assert fast.peak_values > 0
    assert fast.eta == optimal_eta(3)
    # The memory advantage of the clustered run only kicks in once the step
    # count dwarfs the per-cluster moment storage.
    mesh_l, grid_l, src_l, u0_l = problem(N=256, m=8)
    slow_l = slow_run(RunConfig(nu=0.5, mesh=mesh_l, grid=grid_l), src_l, u0_l)
    fast_l = fast_run(
        RunConfig(nu=0.5, mesh=mesh_l, grid=grid_l, r=3, Q=2, G=5), src_l, u0_l
    )
    assert fast_l.peak_values < slow_l.peak_values


def test_stability_diagnostic_certifies_moderate_mesh():
    mesh, grid, _, _ = problem(N=64, m=8)
    rep = stability_diagnostic(RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=2, G=3))
    assert rep.certified
    assert rep.row_ratio <= 1.0 and rep.col_ratio <= 1.0
    assert rep.row_ratio > 0.0 and rep.col_ratio > 0.0


def test_stability_diagnostic_matches_pairwise_loop():
    """The diagnostic's ratios equal a literal loop over every (step, far
    interval) pair with scalar coefficients."""
    mesh = perturbed_mesh(64, seed=4)
    config = RunConfig(nu=0.3, mesh=mesh, grid=SpatialGrid(dim=1, m=4), r=3, Q=2, G=4)
    rep = stability_diagnostic(config)

    weights = WeightEngine(KernelParams(0.3), mesh)
    tree = ClusterTree(mesh, 2, 4)
    lv = mesh.levels
    row, col = np.zeros(65), np.zeros(65)
    for n in range(2, 65):
        for c in tree.minimal_cover(tree.leaf_of(n), rep.eta).far:
            sbar = 0.5 * (lv[c.lo - 1] + lv[c.hi])
            phi = phi_coeffs(0.3, 3, sbar, lv[n - 1], lv[n])
            for j in range(c.lo, c.hi + 1):
                diff = abs(float(phi @ psi_coeffs(3, sbar, lv[j - 1], lv[j]))
                           - weights.offdiag(n, j))
                row[n] += diff
                col[j] += diff
    scale = rho_nu(0.3) * mesh.T ** (0.3 - 1.0) * mesh.steps
    assert row.max() > 0.0
    assert rep.row_ratio == pytest.approx(max(row[1:] / scale), rel=1e-9)
    assert rep.col_ratio == pytest.approx(max(col[1:-1] / scale[:-1]), rel=1e-9)
