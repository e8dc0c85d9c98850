import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subdiff import dg_stepper, frac_weights, history_engine
from subdiff.clustering import ClusterTree, max_depth
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
from subdiff.frac_weights import KernelParams, NonFiniteWeightError, WeightEngine
from subdiff.history_engine import HistoryEngine, SolutionSink, predicted_ops
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
from test_clustering import has_far_members, perturbed_levels
from test_spatial_fem import assemble
from weight_oracles import beta_diag, history_sum_per_pair


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
    load = src.time_average(0.0, mesh.level(1)) * (mass @ src.spatial)
    rhs = mass @ u0 + mesh.step(1) * load
    beta = beta_diag(KernelParams(0.5), mesh, 1)
    np.testing.assert_allclose(res.solutions[0], np.linalg.solve(mass + beta * stiff, rhs),
                               rtol=1e-14)


def nodal_march(config, source, u0):
    """The DG step in nodal values with the assembled matrices: the
    oracle for the sine-basis march."""
    mesh, M = config.mesh, config.grid.M
    mass, stiff = assemble(config.grid)
    weights = WeightEngine(KernelParams(config.nu), mesh)
    sols = np.empty((mesh.N, M))
    u = u0
    for n in range(1, mesh.N + 1):
        load = source.time_average(mesh.level(n - 1), mesh.level(n)) * (mass @ source.spatial)
        rhs = mass @ u + mesh.step(n) * load + stiff @ direct_history_sum(weights, sols, n)
        u = np.linalg.solve(mass + beta_diag(weights.params, mesh, n) * stiff, rhs)
        sols[n - 1] = u
    return sols


@pytest.mark.parametrize("dim,m", [(1, 16), (2, 8)])
def test_sine_basis_march_matches_nodal_march(dim, m):
    """Both schemes, which keep the history in sine coefficients, match
    the nodal march with exact weights; the fast run's degenerate eta
    makes every cover all-near, so its history sum is exact too."""
    mesh = perturbed_mesh(64, seed=3)
    grid = SpatialGrid(dim=dim, m=m, K=1.0 / (dim * math.pi**2))
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=1, eta=1e-300, Q=2, G=3)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1, 1 if dim == 2 else None)
    # data with every sine mode present; entries near zero are measured
    # against the largest value
    rng = np.random.default_rng(dim)
    rich = SeparableSource(spatial=rng.standard_normal(grid.M), time_average=src.time_average)
    rich_u0 = rng.standard_normal(grid.M)
    for run in (slow_run, fast_run):
        got = run(config, src, u0).solutions
        np.testing.assert_allclose(got, nodal_march(config, src, u0), rtol=1e-12, atol=0)
        got = np.asarray(run(config, rich, rich_u0).solutions)
        want = nodal_march(config, rich, rich_u0)
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
    depth are chosen automatically and no uniform-mesh shortcut applies.
    The picked tree has far members, so the expansion is exercised."""
    mesh = perturbed_mesh(N, seed=7)
    assert not mesh.uniform
    grid = SpatialGrid(dim=1, m=16, K=1.0 / math.pi**2)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1)
    slow = slow_run(RunConfig(nu=nu, mesh=mesh, grid=grid), src, u0)
    config = RunConfig(nu=nu, mesh=mesh, grid=grid, Q=Q)
    fast = fast_run(config, src, u0)
    tree = config.tree()
    assert fast.G == tree.G and has_far_members(tree, fast.eta)
    gap = np.max(np.abs(np.array(slow.solutions) - np.array(fast.solutions)))  # keeps a NaN
    assert gap <= 1e-6


def old_depth(N, Q):
    """The automatic depth before the count model: round(log_Q N) - 2,
    at least 1 and at most max_depth(N, Q)."""
    return min(max(1, round(math.log(N, Q)) - 2), max_depth(N, Q))


@pytest.mark.parametrize("nu, Q, N, perturbed", [
    (0.5, 2, 256, False), (0.3, 2, 4096, True), (0.5, 3, 729, True), (0.9, 3, 243, False),
    (0.5, 5, 625, True), (0.5, 10, 2000, False), (0.02, 10, 1000, True),
])
def test_automatic_depth_has_the_fewest_predicted_ops(nu, Q, N, perturbed):
    """With G None the tree is the depth with the fewest predicted ops at
    the run's (r, eta), the shallowest of equal ones, so it never costs
    more than the old round(log_Q N) - 2 tree; its lifetimes for eta are
    the ones the pick computed."""
    mesh = perturbed_mesh(N, seed=4) if perturbed else uniform_mesh(N, 1.0)
    config = RunConfig(nu=nu, mesh=mesh, grid=SpatialGrid(dim=1, m=4), Q=Q)
    r, eta = config.resolved_params()
    ops = [predicted_ops(ClusterTree(mesh, Q, G), r, eta) for G in range(1, max_depth(N, Q) + 1)]
    tree = config.tree()
    assert (tree.Q, tree.G) == (Q, 1 + ops.index(min(ops)))
    assert tree._lifetimes[0] == eta and predicted_ops(tree, r, eta) == min(ops)
    assert min(ops) <= ops[old_depth(N, Q) - 1]


def test_automatic_depth_of_the_long1d_problem():
    """On long1d-fast's mesh (seed 1) the pick is G = 8, with 12% fewer
    history ops than the old depth 10; fast_run reports that depth and
    counts the predicted ops."""
    steps = 1.0 + 0.3 * np.random.default_rng(1).uniform(-1.0, 1.0, 4096)
    mesh = mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]) * (6.0 / steps.sum()))
    grid = SpatialGrid(dim=1, m=8, K=1.0 / math.pi**2)
    config = RunConfig(nu=0.3, mesh=mesh, grid=grid, Q=2)
    r, eta = config.resolved_params()
    assert (config.tree().G, old_depth(4096, 2)) == (8, 10)
    assert [grid.M * predicted_ops(ClusterTree(mesh, 2, G), r, eta) for G in (8, 10)] == [
        10_118_528, 11_554_620]
    result = fast_run(config, benchmark_source(grid), sine_mode(grid, 1))
    assert (result.G, result.rhs_ops, result.peak_values) == (8, 10_118_528, 4_368)


def test_automatic_depth_breaks_ties_toward_the_shallower_tree(monkeypatch):
    """Of depths with equal predicted ops the pick is the shallowest, the
    one with the fewest leaves; an explicit G is used as given."""
    mesh, grid, _, _ = problem(N=64, m=4)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=2)
    for cheapest in ({1, 2, 3, 4, 5, 6}, {3, 5}, {6}):
        monkeypatch.setattr(dg_stepper, "predicted_ops",
                            lambda tree, r, eta: 0 if tree.G in cheapest else 1)
        assert config.tree().G == min(cheapest)
    assert RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=2, G=4).tree().G == 4


def test_automatic_depth_refuses_an_n_that_q_does_not_divide():
    """An N that Q does not divide has no tree of any depth: the error
    names N and Q, before any parameter is resolved or weight computed."""
    for N, Q in ((243, 2), (7, 2), (2001, 10), (1, 3)):
        mesh, grid, _, _ = problem(N=N, m=4)
        with pytest.raises(ValueError, match=f"^N={N} is not divisible by Q={Q}, "
                                             "so it has no cluster tree$"):
            RunConfig(nu=0.5, mesh=mesh, grid=grid, Q=Q).tree()


def test_fast_run_bitwise_equals_slow_with_degenerate_eta():
    mesh, grid, src, u0 = problem(N=32, m=8)
    slow = slow_run(RunConfig(nu=0.5, mesh=mesh, grid=grid), src, u0)
    fast = fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, r=1, eta=1e-300,
                              Q=2, G=3), src, u0)
    for a, b in zip(slow.solutions, fast.solutions):
        assert np.array_equal(a, b)


@st.composite
def all_near_runs(draw):
    """A +-30% mesh of N = leaf size * Q^G <= 300 steps, a kernel order and
    a grid of 1 to 16 unknowns: M = 1 at m = 2."""
    Q = draw(st.sampled_from([2, 3, 10]))
    G = draw(st.integers(1, int(math.log(300, Q) + 1e-9)))
    N = Q**G * draw(st.integers(1, 300 // Q**G))
    mesh = perturbed_mesh(N, seed=draw(st.integers(0, 2**32 - 1)))
    grid = SpatialGrid(dim=draw(st.sampled_from([1, 2])), m=draw(st.integers(2, 5)))
    return draw(st.floats(0.02, 0.98)), mesh, grid, Q, G


@settings(max_examples=40, deadline=None)
@given(all_near_runs())
def test_all_near_fast_run_equals_slow_run_bitwise(run):
    """On +-30% meshes, with eta so small that every cover is all near, the
    fast run's solutions are the slow run's, byte for byte, and at the
    automatic (r, eta) as well as at (1, 1e-300) it counts M times the ops
    predicted_ops gives its tree."""
    nu, mesh, grid, Q, G = run
    src, u0 = benchmark_source(grid), sine_mode(grid, 1, 1 if grid.dim == 2 else None)
    slow = slow_run(RunConfig(nu=nu, mesh=mesh, grid=grid), src, u0)
    near = fast_run(RunConfig(nu=nu, mesh=mesh, grid=grid, r=1, eta=1e-300, Q=Q, G=G), src, u0)
    assert near.solutions.tobytes() == slow.solutions.tobytes()
    tree = ClusterTree(mesh, Q, G)
    auto = fast_run(RunConfig(nu=nu, mesh=mesh, grid=grid, Q=Q, G=G), src, u0)
    for res in (near, auto):
        assert res.rhs_ops == grid.M * predicted_ops(tree, res.r, res.eta), (res.r, res.eta)


def test_streamed_fast_run_equals_in_memory_run(tmp_path):
    """Given a sink, the result's solutions are the stream mapped back:
    bitwise the in-memory run's, N rows of M, read-only.  The stream gets
    each step's transform and the in-memory run converts its rows in
    stacks after the last step: on 2D grids, with 96 steps in one stack
    (m = 6) or in several (m = 40), and in 1D on long1d's m = 8 and at
    M = 1."""
    mesh = perturbed_mesh(96, seed=11)
    for dim, m in ((2, 6), (2, 40), (1, 8), (1, 2)):
        grid = SpatialGrid(dim=dim, m=m, K=1.0 / (dim * math.pi**2))
        config = RunConfig(nu=0.3, mesh=mesh, grid=grid, Q=2)
        src, u0 = benchmark_source(grid), sine_mode(grid, 1, 1 if dim == 2 else None)
        assert (96 > dg_stepper._CONVERT_VALUES // grid.M) == (m == 40)
        plain = fast_run(config, src, u0)
        sink = SolutionSink(tmp_path / f"stream{dim}_{m}.bin", {"N": 96})
        try:
            streamed = fast_run(config, src, u0, sink=sink)
        finally:
            sink.close()
        assert isinstance(plain.solutions, np.ndarray) and plain.solutions.flags.c_contiguous
        assert plain.solutions.dtype == np.float64
        assert len(streamed.solutions) == 96 and np.shape(streamed.solutions) == (96, grid.M)
        assert not streamed.solutions.flags.writeable
        assert np.array_equal(np.asarray(streamed.solutions), np.asarray(plain.solutions))
        assert all(np.array_equal(a, b) for a, b in zip(streamed.solutions, plain.solutions))
        assert (streamed.rhs_ops, streamed.peak_values) == (plain.rhs_ops, plain.peak_values)


@pytest.mark.parametrize("dim,m", [(2, 16), (1, 2)])
def test_slow_run_keeps_the_per_pair_bits(dim, m, monkeypatch):
    """A slow run's solutions are bitwise those of the same run whose
    history sum is one multiply-accumulate per pair, on a 2D grid and on a
    +-30% mesh with a single node (M = 1, where numpy's axis-0 reduction
    would sum pairwise).  Both schemes keep an in-memory run's solutions
    as one C-contiguous (N, M) float64 array."""
    grid = SpatialGrid(dim=dim, m=m, K=1.0 / (dim * math.pi**2))
    mesh = uniform_mesh(96, 1.0) if dim == 2 else perturbed_mesh(96, seed=5)
    config = RunConfig(nu=0.3, mesh=mesh, grid=grid, r=4, Q=2)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1, 1 if dim == 2 else None)
    got = slow_run(config, src, u0).solutions
    for sols in (got, fast_run(config, src, u0).solutions):
        assert isinstance(sols, np.ndarray) and sols.flags.c_contiguous
        assert sols.dtype == np.float64 and sols.shape == (mesh.N, grid.M)
    monkeypatch.setattr(dg_stepper, "direct_history_sum", history_sum_per_pair)
    assert got.tobytes() == slow_run(config, src, u0).solutions.tobytes()


def test_slow_run_stops_at_the_first_non_finite_solution():
    """A source that goes NaN at step k stops the slow run there, with an
    error that names k."""
    k = 7
    mesh, grid, src, u0 = problem(N=16, m=6, dim=2)

    def time_average(t0, t1):
        return math.nan if t0 == mesh.level(k - 1) else src.time_average(t0, t1)

    poisoned = SeparableSource(spatial=src.spatial, time_average=time_average)
    with pytest.raises(dg_stepper.NonFiniteSolutionError, match=f"at step {k} is not finite"):
        slow_run(RunConfig(nu=0.5, mesh=mesh, grid=grid), poisoned, u0)


def test_fast_run_stops_at_a_non_finite_leaf():
    """A source that goes NaN at step k stops the fast run at the end of
    k's leaf, with an error that names k, not the leaf's last step."""
    k = 6  # the second of the leaf C(5, 8)
    mesh, grid, src, u0 = problem(N=32, m=6, dim=2)

    def time_average(t0, t1):
        return math.nan if t0 == mesh.level(k - 1) else src.time_average(t0, t1)

    poisoned = SeparableSource(spatial=src.spatial, time_average=time_average)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=3, Q=2, G=3)
    with pytest.raises(dg_stepper.NonFiniteSolutionError, match=f"at step {k} is not finite"):
        fast_run(config, poisoned, u0)


@pytest.mark.parametrize("run", [fast_run, slow_run])
@pytest.mark.parametrize("uniform", [True, False])
def test_a_non_finite_weight_stops_the_run_naming_its_pair(run, uniform, monkeypatch):
    """A series that returns NaN for one pair stops both schemes with
    NonFiniteWeightError naming that pair: on a uniform mesh the lag
    table's pair (L+1, 1), found once when the table grows to hold it; otherwise
    the pair (9, 7) itself, which the fast run sums exactly."""
    mesh = uniform_mesh(32, 1.0) if uniform else perturbed_mesh(32, seed=5)
    grid = SpatialGrid(dim=1, m=8, K=1.0 / math.pi**2)
    lv, (n, j) = mesh.levels, ((3, 1) if uniform else (9, 7))
    kj, kn = lv[j] - lv[j - 1], lv[n] - lv[n - 1]
    delta = 0.5 * (lv[n - 1] + lv[n]) - 0.5 * (lv[j - 1] + lv[j])
    series = frac_weights._series

    def nan_for_one_pair(nu, kj_, kn_, delta_):
        out = series(nu, kj_, kn_, delta_)
        out[(kj_ == kj) & (kn_ == kn) & (delta_ == delta)] = math.nan
        return out

    monkeypatch.setattr(frac_weights, "_series", nan_for_one_pair)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=3, Q=2, G=3)
    with pytest.raises(NonFiniteWeightError, match=fr"^the history weight of \(n, j\) = "
                                                   fr"\({n}, {j}\) is not finite$"):
        run(config, benchmark_source(grid), sine_mode(grid, 1))


def test_a_non_finite_coefficient_names_its_pair():
    """phi_coeffs and psi_coeffs check their result once per call and name
    the midpoint and the interval of the first pair that is not finite."""
    sbar, t_prev = np.array([0.5, 1.5, np.nan]), np.array([3.0, 4.0, 5.0])
    for coeffs in (lambda: phi_coeffs(0.5, 3, sbar, t_prev, t_prev + 1.0),
                   lambda: psi_coeffs(3, sbar, t_prev, t_prev + 1.0)):
        with pytest.raises(NonFiniteWeightError,
                           match=r"coefficient of the midpoint nan and the interval \(5, 6\]"):
            coeffs()


def test_fast_run_refuses_a_sink_that_holds_records(tmp_path):
    """A sink that already holds records would end with more than N of
    them and read incomplete after a complete run: fast_run refuses it
    before the first step and writes nothing to it."""
    mesh, grid, src, u0 = problem(N=16, m=4)
    sink = SolutionSink(tmp_path / "stream.bin", {"N": 16})
    for _ in range(3):
        sink.write(np.zeros(grid.M))
    with pytest.raises(ValueError, match="already holds 3 records"):
        fast_run(RunConfig(nu=0.5, mesh=mesh, grid=grid, r=3, Q=2), src, u0, sink=sink)
    assert sink.records == 3
    sink.close()
    hdr = (tmp_path / "stream.bin.hdr").read_text().splitlines()
    assert hdr[-2:] == ["records 3", "complete 0"]


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


def test_streamed_long1d_run_heap_is_bounded(tmp_path):
    """The Python heap peak of a streamed long1d-shaped fast run (seed 1,
    N = 4096, m = 8, automatic depth and (r, eta)) stays within 2.70 MiB:
    the 2.46 MiB (2,577,398 bytes) this run peaked at before the per-leaf
    entry records, plus 10%, so the block plans cannot grow unseen.  The
    paper's O(M log N) storage is far lower: 4,368 counted values."""
    grid = SpatialGrid(dim=1, m=8)
    config = RunConfig(nu=0.3, mesh=mesh_from_levels(perturbed_levels(4096, seed=1)), grid=grid,
                       Q=2)
    src, u0 = benchmark_source(grid), sine_mode(grid, 1)
    fast_run(config, src, u0)  # caches filled before tracing
    sink = SolutionSink(tmp_path / "stream.bin", {})
    tracemalloc.start()
    try:
        result = fast_run(config, src, u0, sink=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sink.close()
    assert result.peak_values == 4368 and sink.records == 4096
    assert peak <= 2.70 * 2**20, peak


def test_runs_make_no_call_through_np_einsum(monkeypatch):
    """Both history sums fold through einsum's C entry, bound when
    history_engine is imported, so a small fast run and a small slow run,
    in 1D and 2D, make no call through np.einsum's dispatch and wrapper."""
    calls, folds = [], []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    def entry(*args):
        folds.append(args[0])
        return c_einsum(*args)

    einsum, c_einsum = np.einsum, history_engine.c_einsum
    monkeypatch.setattr(np, "einsum", spy)
    monkeypatch.setattr(history_engine, "c_einsum", entry)
    for dim in (1, 2):
        mesh, grid, src, u0 = problem(N=64, m=6, dim=dim)
        config = RunConfig(nu=0.4, mesh=mesh, grid=grid, Q=2, G=3, r=3, eta=0.5)
        fast_run(config, src, u0)
        slow_run(config, src, u0)
    assert calls == [] and len(folds) > 2 * 63


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
    assert (slow.G, fast.G) == (None, 3)
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
    assert rep.row_ratio == pytest.approx(np.max(row[1:] / scale), rel=1e-9)
    assert rep.col_ratio == pytest.approx(np.max(col[1:-1] / scale[:-1]), rel=1e-9)


def test_stability_diagnostic_does_not_certify_a_nan_weight(monkeypatch):
    """A NaN exact weight for one far pair, (n, j) = (40, 20), makes both
    of its sums NaN, and the report must carry them: NaN ratios and no
    certificate, where a maximum that skips a NaN would certify."""
    offdiag = WeightEngine.offdiag

    def poisoned(self, n, j):
        out = np.array(offdiag(self, n, j), dtype=float)
        out[np.broadcast_to((n == 40) & (j == 20), out.shape)] = np.nan
        return out

    monkeypatch.setattr(WeightEngine, "offdiag", poisoned)
    mesh, grid, _, _ = problem(N=64, m=8)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=4, Q=2, G=4)
    rep = stability_diagnostic(config)
    tree = config.tree()
    assert any(c.lo <= 20 <= c.hi for c in tree.minimal_cover(tree.leaf_of(40), rep.eta).far)
    assert math.isnan(rep.row_ratio) and math.isnan(rep.col_ratio)
    assert not rep.certified


def recording_source(source, events):
    """The same source, appending ("average", t0, t1) to events per call."""
    def time_average(t0, t1):
        events.append(("average", t0, t1))
        return source.time_average(t0, t1)

    return SeparableSource(spatial=source.spatial, time_average=time_average)


def recorded(events, name, fn, at):
    """fn, appending (name, its positional argument at) to events per call."""
    def wrapper(*args, **kwargs):
        events.append((name, args[at]))
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("scheme", ["fast", "slow"])
def test_step_clock_reads_each_interval_once_in_step_order(scheme, monkeypatch):
    """The benchmark times set-up and each step from the source's
    time_average calls, so the march asks for the average over
    (t_{n-1}, t_n] exactly once per step, in step order: after step n's
    history and before its solve, which is given beta_nn, and after step
    n - 1's solve and, in the fast scheme, its commit.  A long1d-shaped
    fast run (nu 0.3, +-30% steps, automatic depth and (r, eta)) and a 2D
    slow run."""
    events = []
    monkeypatch.setattr(EllipticSolver, "solve",
                        recorded(events, "solve", EllipticSolver.solve, 1))
    if scheme == "fast":
        grid = SpatialGrid(dim=1, m=8)
        config = RunConfig(nu=0.3, mesh=perturbed_mesh(256, seed=1), grid=grid)
        for name, attr in (("history", "history_sum"), ("commit", "commit_step")):
            monkeypatch.setattr(HistoryEngine, attr,
                                recorded(events, name, getattr(HistoryEngine, attr), 1))
        run, u0 = fast_run, sine_mode(grid, 1)
    else:
        mesh, grid, _, u0 = problem(N=24, m=6, dim=2)
        config = RunConfig(nu=0.5, mesh=mesh, grid=grid)
        monkeypatch.setattr(dg_stepper, "direct_history_sum",
                            recorded(events, "history", direct_history_sum, 2))
        run = slow_run
    lv, params = config.mesh.levels, KernelParams(config.nu)
    res = run(config, recording_source(benchmark_source(grid), events), u0)
    assert len(res.solutions) == config.mesh.N
    want = []
    for n in range(1, config.mesh.N + 1):
        want += [("history", n), ("average", float(lv[n - 1]), float(lv[n])),
                 ("solve", beta_diag(params, config.mesh, n))]
        want += [("commit", n)] if scheme == "fast" else []
    assert events == want
    assert all(type(e[1]) is float for e in events if e[0] == "average")


@pytest.mark.parametrize("run", [fast_run, slow_run])
def test_step_scalars_equal_mesh_step_and_diagonal_weight(run, monkeypatch):
    """The march forms k_n and beta_nn from the time levels itself; on a
    +-30% mesh they equal mesh.step(n) and the oracle beta_diag bit for bit: the
    load is scaled by k_n and the solve is given beta_nn."""
    scalars = []

    class Load:
        """A step's load, recording the scalar that multiplies it."""

        def __init__(self, load):
            self.load = load

        def __rmul__(self, k):
            scalars.append(("k", k))
            return k * self.load

    load_average = dg_stepper.load_average
    monkeypatch.setattr(dg_stepper, "load_average", lambda *args: Load(load_average(*args)))
    monkeypatch.setattr(EllipticSolver, "solve",
                        recorded(scalars, "beta", EllipticSolver.solve, 1))
    mesh, grid = perturbed_mesh(128, seed=4), SpatialGrid(dim=1, m=8)
    config = RunConfig(nu=0.3, mesh=mesh, grid=grid, r=6, Q=2, G=4)
    run(config, benchmark_source(grid), sine_mode(grid, 1))
    params = KernelParams(config.nu)
    assert scalars == [x for n in range(1, mesh.N + 1)
                       for x in (("k", mesh.step(n)), ("beta", beta_diag(params, mesh, n)))]
    assert all(type(x) is float for _, x in scalars)


@pytest.mark.parametrize("scheme", ["slow", "fast", "streamed"])
def test_only_a_streamed_step_transforms(scheme, monkeypatch, tmp_path):
    """The march keeps the history in sine coefficients and transforms
    only for output: from the first time average on, a streamed fast run
    transforms once per step, after its average, for the record it
    writes; a slow or in-memory fast run never does between its first
    average and its last, and converts its N M < _CONVERT_VALUES values
    in one stacked call after the last step."""
    events = []
    monkeypatch.setattr(EllipticSolver, "transform",
                        recorded(events, "transform", EllipticSolver.transform, 1))
    mesh, grid, src, u0 = problem(N=32, m=6, dim=2)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=3, Q=2, G=3)
    sink = SolutionSink(tmp_path / "stream.bin", {}) if scheme == "streamed" else None
    try:
        if scheme == "slow":
            slow_run(config, recording_source(src, events), u0)
        else:
            fast_run(config, recording_source(src, events), u0, sink=sink)
    finally:
        if sink is not None:
            sink.close()
    marks = "".join("a" if e[0] == "average" else "t" for e in events)
    want = "at" * 32 if scheme == "streamed" else "a" * 32 + "t"
    assert marks[marks.index("a"):] == want
