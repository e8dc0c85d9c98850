import numpy as np
import pytest

from subdiff import frac_weights, history_engine
from subdiff.clustering import Cluster, ClusterTree
from subdiff.dg_stepper import RunConfig, fast_run
from subdiff.frac_weights import KernelParams, WeightEngine
from subdiff.history_engine import EngineCounters, HistoryEngine, SolutionSink
from subdiff.reference_solution import direct_history_sum
from subdiff.spatial_fem import SpatialGrid, benchmark_source, sine_mode
from subdiff.time_mesh import mesh_from_levels, uniform_mesh


def perturbed_mesh(N, seed=3):
    """Steps of length 1 perturbed by up to +-30%."""
    steps = 1.0 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, N)
    return mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]))


def make_engine(N=64, nu=0.5, Q=2, G=3, r=4, eta=0.6, m=3, T=None, mesh=None):
    if mesh is None:
        mesh = uniform_mesh(N, float(T if T is not None else N))
    weights = WeightEngine(KernelParams(nu), mesh)
    tree = ClusterTree(mesh, Q, G)
    return HistoryEngine(tree, weights, r, eta, m), weights


def random_values(N, m, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(m) for _ in range(N)]


def test_all_near_cover_matches_direct_sum_bitwise():
    engine, weights = make_engine(eta=1e-300)
    vals = random_values(64, 3)
    for n in range(1, 65):
        got = engine.history_sum(n)
        want = direct_history_sum(weights, vals, n, m=3)
        assert np.array_equal(got, want)
        engine.commit_step(n, vals[n - 1])


def test_far_field_accuracy_tracks_expansion_order():
    vals = random_values(64, 3)
    prev = None
    for r in (2, 4, 8):
        engine, weights = make_engine(r=r)
        worst = 0.0
        for n in range(1, 65):
            got = engine.history_sum(n)
            want = direct_history_sum(weights, vals, n, m=3)
            scale = max(float(np.max(np.abs(want))), 1e-30)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
            engine.commit_step(n, vals[n - 1])
        if prev is not None:
            assert worst < prev
        prev = worst
    assert prev < 1e-7


def test_moment_accumulators_hold_weighted_sums():
    """After committing a cluster's intervals, its first moment equals the
    plain step-weighted sum of the committed vectors."""
    engine, _ = make_engine(N=16, G=2, T=16.0)
    vals = random_values(16, 3)
    for n in range(1, 9):
        engine.commit_step(n, vals[n - 1])
    c = Cluster(1, 8)
    mat = engine.moments[engine.tree.node_id(c)]
    want = sum(vals[j] for j in range(8))  # psi_1 = k_j = 1 on this mesh
    np.testing.assert_allclose(mat[0], want, rtol=1e-13)
    # second moment: integral of (s - sbar) over each unit interval, times value
    sbar = 4.0
    want2 = sum((j + 0.5 - sbar) * vals[j] for j in range(8))
    np.testing.assert_allclose(mat[1], want2, rtol=1e-12)


def test_commit_order_enforced():
    engine, _ = make_engine(N=16, G=2)
    engine.commit_step(1, np.zeros(3))
    with pytest.raises(ValueError, match="expected commit of step 2"):
        engine.commit_step(3, np.zeros(3))
    with pytest.raises(ValueError):
        engine.commit_step(2, np.zeros(4))  # wrong length
    with pytest.raises(ValueError, match="committed"):
        engine.history_sum(5)


def test_free_semantics():
    engine, _ = make_engine(N=16, G=2, m=2)
    vals = random_values(16, 2)
    for n in range(1, 9):
        engine.commit_step(n, vals[n - 1])
    leaf = Cluster(1, 4)
    assert 1 in engine.retained
    engine.free_cluster(leaf)
    assert 1 not in engine.retained and 4 not in engine.retained
    live_after = engine.counters.live_values
    engine.free_cluster(leaf)  # double free is a no-op
    assert engine.counters.live_values == live_after
    # unallocated non-leaf free is a no-op too
    engine.free_cluster(Cluster(9, 12))
    assert engine.counters.live_values == live_after
    # freed vectors may no longer be read
    with pytest.raises(AssertionError, match="freed too early"):
        engine._retained(2)
    # allocated non-leaf free releases moments and remaining children
    root_child = Cluster(1, 8)
    engine.free_cluster(root_child)
    assert engine.tree.node_id(root_child) not in engine.moments
    assert 5 not in engine.retained


def test_run_schedule_frees_history_and_bounds_memory():
    engine, weights = make_engine(N=256, G=4, m=2, r=3)
    vals = random_values(256, 2)
    seen = []

    def cb(n, hist):
        seen.append(n)
        return vals[n - 1]

    engine.run_schedule(cb)
    assert seen == list(range(1, 257))
    # long-dead leaves were released: far fewer than N*m values remain live
    assert engine.counters.live_values < 256 * 2
    assert engine.counters.high_water < 256 * 2 * 0.6
    assert engine.counters.high_water >= engine.counters.live_values


@pytest.mark.parametrize("perturbed, rhs_ops, peak_values", [
    (False, 31840, 210),
    (True, 33488, 238),
])
def test_run_schedule_invariants(monkeypatch, perturbed, rhs_ops, peak_values):
    """Over a full schedule each node is freed at most twice, phi_coeffs runs
    at most once per step, the weights come from at most one beta_offdiag
    call per leaf (plus the lag table on a uniform mesh), and the operation
    and memory counts equal those of the per-step engine this one replaced."""
    N, m = 256, 2
    mesh = perturbed_mesh(N) if perturbed else None
    engine, _ = make_engine(N=N, Q=2, G=5, r=3, eta=0.5, m=m, mesh=mesh)
    calls = {"free": 0, "phi": 0, "weights": 0}
    free, phi = history_engine.HistoryEngine.free_cluster, history_engine.phi_coeffs
    beta_offdiag = frac_weights.beta_offdiag

    def counted_free(self, c):
        calls["free"] += 1
        return free(self, c)

    def counted_phi(*args):
        calls["phi"] += 1
        return phi(*args)

    monkeypatch.setattr(history_engine.HistoryEngine, "free_cluster", counted_free)
    def counted_weights(*args):
        calls["weights"] += 1
        return beta_offdiag(*args)

    monkeypatch.setattr(history_engine, "phi_coeffs", counted_phi)
    monkeypatch.setattr(frac_weights, "beta_offdiag", counted_weights)
    vals = random_values(N, m)
    engine.run_schedule(lambda n, hist: vals[n - 1])
    assert calls["free"] <= 2 * len(engine.tree.nodes)
    assert 1 <= calls["phi"] <= N
    assert 1 <= calls["weights"] <= len(list(engine.tree.leaves())) + 1
    assert engine.counters.live_values <= engine.counters.high_water
    assert engine.counters.rhs_ops + engine.counters.update_ops == rhs_ops
    assert engine.counters.high_water == peak_values


def test_all_near_engine_matches_direct_sum_on_perturbed_mesh():
    """With nothing admissible every weight is exact: the leaf plans' weight
    blocks give the same sums as the slow scheme's per-step rows."""
    N, m = 96, 3
    engine, weights = make_engine(G=4, eta=1e-300, m=m, mesh=perturbed_mesh(N, seed=8))
    vals = random_values(N, m)
    worst = 0.0

    def cb(n, hist):
        nonlocal worst
        want = direct_history_sum(weights, vals, n, m=m)
        worst = max(worst, float(np.max(np.abs(hist - want)))
                    / max(float(np.max(np.abs(want))), 1e-300))
        return vals[n - 1]

    engine.run_schedule(cb)
    assert worst <= 1e-14


def test_run_schedule_accuracy_against_direct_oracle():
    engine, weights = make_engine(N=128, G=3, m=2, r=8)
    vals = random_values(128, 2)
    worst = 0.0

    def cb(n, hist):
        nonlocal worst
        want = direct_history_sum(weights, vals, n, m=2)
        scale = max(float(np.max(np.abs(want))), 1e-30)
        worst = max(worst, float(np.max(np.abs(hist - want))) / scale)
        return vals[n - 1]

    engine.run_schedule(cb)
    assert worst < 1e-7


def test_solution_sink_roundtrip(tmp_path):
    mesh = uniform_mesh(8, 1.0)
    grid = SpatialGrid(dim=1, m=4)
    config = RunConfig(nu=0.5, mesh=mesh, grid=grid, r=3, Q=2, G=2)
    path = tmp_path / "stream.bin"
    sink = SolutionSink(path, {"N": 8, "M": grid.M})
    try:
        result = fast_run(config, benchmark_source(grid), sine_mode(grid, 1), sink=sink)
    finally:
        sink.close()
    data = np.fromfile(path, dtype="<f8").reshape(8, grid.M)
    np.testing.assert_array_equal(data, np.vstack(result.solutions))
    header = (path.parent / "stream.bin.hdr").read_text().splitlines()
    assert header == ["N 8", "M 3", "records 8"]
    with pytest.raises(ValueError, match="closed"):
        sink.write(result.solutions[0])


def test_engine_validation():
    mesh = uniform_mesh(8, 1.0)
    weights = WeightEngine(KernelParams(0.5), mesh)
    tree = ClusterTree(mesh, 2, 2)
    with pytest.raises(ValueError):
        HistoryEngine(tree, weights, r=0, eta=0.5, m=1)
    with pytest.raises(ValueError):
        HistoryEngine(tree, weights, r=3, eta=1.5, m=1)


def test_counters_allocate_release():
    c = EngineCounters()
    c.allocate(10)
    c.allocate(5)
    c.release(7)
    assert c.live_values == 8
    assert c.high_water == 15
