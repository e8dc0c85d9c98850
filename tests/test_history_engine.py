import numpy as np
import pytest

from subdiff import frac_weights, history_engine
from subdiff.clustering import Cluster, ClusterTree
from subdiff.dg_stepper import RunConfig, fast_run
from subdiff.frac_weights import KernelParams, WeightEngine
from subdiff.history_engine import EngineCounters, HistoryEngine, SolutionSink
from subdiff.reference_solution import direct_history_sum
from subdiff.spatial_fem import SpatialGrid, benchmark_source, sine_mode
from subdiff.taylor_expansion import ExpansionParams, phi_coeffs, psi_coeffs
from subdiff.time_mesh import mesh_from_levels, uniform_mesh
from test_clustering import COVER_TREES, children


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


def node_id(tree, c):
    return tree.nodes.index(c)


def test_all_near_cover_matches_direct_sum_bitwise():
    # m = 1 too: numpy sums a single column pairwise unless told otherwise
    for m in (3, 1):
        engine, weights = make_engine(eta=1e-300, m=m)
        vals = random_values(64, m)
        for n in range(1, 65):
            got = engine.history_sum(n)
            want = direct_history_sum(weights, vals, n, m=m)
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


def moment_block(engine, i):
    """The r moment vectors the engine holds for non-leaf node i: its chain
    row while it is an ancestor of the current leaf, its store block after."""
    tree = engine.tree
    g = int(tree.generation[i])
    if i in engine._chain_ids:
        return engine._chain[g]
    p = tree.position(i)
    return engine._stores[g].view(p, p + 1)


def test_moment_accumulators_hold_weighted_sums():
    """After committing a cluster's intervals, its first moment equals the
    plain step-weighted sum of the committed vectors, in the chain
    accumulator while the cluster is an ancestor of the current leaf and,
    bit for bit the same, in its generation's store once the schedule has
    left it.  On a Q = 3 tree, after each leaf's last commit, every held
    non-leaf moment block equals psi.T @ V over its committed intervals,
    with psi at the node's own geometry."""
    engine, _ = make_engine(N=16, G=2, T=16.0)
    vals = random_values(16, 3)
    for n in range(1, 9):
        engine.commit_step(n, vals[n - 1])
    assert engine._chain_ids[1] == node_id(engine.tree, Cluster(1, 8))
    mat = engine._chain[1].copy()
    want = sum(vals[j] for j in range(8))  # psi_1 = k_j = 1 on this mesh
    np.testing.assert_allclose(mat[0], want, rtol=1e-13)
    # second moment: integral of (s - sbar) over each unit interval, times value
    sbar = 4.0
    want2 = sum((j + 0.5 - sbar) * vals[j] for j in range(8))
    np.testing.assert_allclose(mat[1], want2, rtol=1e-12)
    engine.commit_step(9, vals[8])  # enters C(9, 12): C(1, 8) moves to the store
    assert np.array_equal(engine._stores[1].view(0, 1), mat)

    engine, _ = make_engine(N=81, Q=3, G=3, r=4, eta=0.5, m=2, T=2.0)
    tree, lv = engine.tree, engine.tree.mesh.levels
    V = np.array(random_values(81, 2))
    checked = 0
    for n in range(1, 82):
        engine.history_sum(n)
        engine.commit_step(n, V[n - 1])
        if n % tree.leaf_size:
            continue
        held = np.flatnonzero(engine._live[:tree.first[tree.G]])
        assert held.size
        for i in held.tolist():
            lo, hi = int(tree.lo[i]), min(int(tree.hi[i]), n)
            psi = psi_coeffs(engine.r, tree.midpoint(i), lv[lo - 1:hi], lv[lo:hi + 1])
            want, scale = psi.T @ V[lo - 1:hi], np.abs(psi.T) @ np.abs(V[lo - 1:hi])
            assert np.all(np.abs(moment_block(engine, i) - want) <= 1e-12 * scale), (n, i)
            checked += 1
    assert checked > 81


def test_commit_order_enforced():
    engine, _ = make_engine(N=16, G=2)
    engine.commit_step(1, np.zeros(3))
    with pytest.raises(ValueError, match="expected commit of step 2"):
        engine.commit_step(3, np.zeros(3))
    with pytest.raises(ValueError):
        engine.commit_step(2, np.zeros(4))  # wrong length
    with pytest.raises(ValueError, match="committed"):
        engine.history_sum(5)
    for n in range(2, 6):
        engine.commit_step(n, np.zeros(3))
    with pytest.raises(ValueError, match="before the current leaf"):
        engine.history_sum(4)  # the stores have moved on to leaf C(5, 8)


def holds(engine, c):
    """Whether the engine holds c's values: a leaf's retained vectors, or a
    non-leaf's moments in its store or in the chain accumulator."""
    return bool(engine._live[node_id(engine.tree, c)])


def subtree(tree, i):
    """Node i and every node below it."""
    out, level = [], [i]
    while level:
        out += level
        level = [k for j in level for k in children(tree, j)]
    return out


def test_free_semantics():
    engine, _ = make_engine(N=16, G=2, m=2)
    tree = engine.tree
    vals = random_values(16, 2)
    for n in range(1, 9):
        engine.commit_step(n, vals[n - 1])
    leaf = Cluster(1, 4)
    assert holds(engine, leaf)
    engine.free_cluster([node_id(tree, leaf)])
    assert not holds(engine, leaf)
    live_after = engine.counters.live_values
    assert live_after == 4 * 2 + 2 * 4 * 2  # leaf C(5, 8) and the moments of C(1, 16), C(1, 8)
    engine.free_cluster([node_id(tree, leaf)])  # double free is a no-op
    assert engine.counters.live_values == live_after
    # unallocated non-leaf free is a no-op too
    engine.free_cluster([node_id(tree, Cluster(9, 12)), node_id(tree, Cluster(9, 16))])
    assert engine.counters.live_values == live_after
    # freeing a held non-leaf and its subtree releases its moments and the
    # children still held; here C(1, 8) is still an ancestor of the current
    # leaf, in the chain accumulator
    root_child = Cluster(1, 8)
    engine.free_cluster(subtree(tree, node_id(tree, root_child)))
    assert not holds(engine, root_child)
    assert not holds(engine, Cluster(5, 8))
    assert engine.counters.live_values == 4 * 2
    # freed vectors may no longer be read: leaf C(9, 12) has C(1, 4) as a near leaf
    with pytest.raises(AssertionError, match="freed too early"):
        engine.history_sum(9)


def recursive_frees(tree, live, i, out):
    """The recursive free rule, the oracle for the cover's dead mask: a held
    node is freed, a held non-leaf after its children; a node not held
    ends the walk."""
    if live[i]:
        for k in children(tree, i):
            recursive_frees(tree, live, k, out)
        live[i] = False
        out.append(i)


@pytest.mark.parametrize("name", COVER_TREES)
def test_frees_match_recursive_rule(name, monkeypatch):
    """At every leaf entry the engine makes at most one free_cluster call,
    and it names exactly the ids the recursive rule frees from the same
    held state: the subtrees below the children of the far non-leaf
    members that are new to this cover."""
    tree, eta = COVER_TREES[name]()
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 2, eta, 1)
    entries = []  # per leaf entered: the leaf, the held flags before, the free calls
    enter, free = HistoryEngine._enter, HistoryEngine.free_cluster

    def recorded_enter(self, leaf):
        entries.append((leaf, self._live.copy(), []))
        return enter(self, leaf)

    def recorded_free(self, ids):
        entries[-1][2].append(sorted(np.asarray(ids).tolist()))
        return free(self, ids)

    monkeypatch.setattr(HistoryEngine, "_enter", recorded_enter)
    monkeypatch.setattr(HistoryEngine, "free_cluster", recorded_free)
    engine.run_schedule(lambda n, hist: np.ones(1))
    assert [leaf for leaf, _, _ in entries] == list(tree.leaves())
    seen, freed = set(), 0
    for leaf, live, calls in entries:
        far = tree.minimal_cover(leaf, eta).far_ids
        moments = {i for i in far if tree.generation[i] < tree.G}
        want = []
        for i in sorted(moments - seen):
            for k in children(tree, i):
                recursive_frees(tree, live, k, want)
        seen = moments
        assert len(calls) <= 1
        assert (calls[0] if calls else []) == sorted(want), leaf
        freed += len(want)
    assert freed > 0


def test_freed_moments_may_not_be_read():
    """A far non-leaf member whose moments were freed stops the plan."""
    engine, _ = make_engine(N=64, G=3, eta=0.6)
    vals = random_values(64, 3)
    tree = engine.tree
    target = next(i for i in engine.cover_for(49).far_ids if tree.generation[i] < tree.G)
    for n in range(1, 49):
        engine.commit_step(n, vals[n - 1])
    engine.free_cluster([target])
    with pytest.raises(AssertionError, match="freed too early"):
        engine.history_sum(49)


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
    """Over a full schedule free_cluster runs at most once per leaf entered;
    phi_coeffs and psi_coeffs run once each, for the lag tables, on a
    uniform mesh and once per block of leaves otherwise; the weights come
    from one beta_offdiag call per block (the lag table's alone on a
    uniform mesh); and the operation and memory counts equal those of the
    per-step engine this one replaced."""
    N, m = 256, 2
    mesh = perturbed_mesh(N) if perturbed else None
    calls = {"free": 0, "phi": 0, "psi": 0, "weights": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(history_engine.HistoryEngine, "free_cluster",
                        counted("free", history_engine.HistoryEngine.free_cluster))
    monkeypatch.setattr(history_engine, "phi_coeffs", counted("phi", history_engine.phi_coeffs))
    monkeypatch.setattr(history_engine, "psi_coeffs", counted("psi", history_engine.psi_coeffs))
    monkeypatch.setattr(frac_weights, "beta_offdiag",
                        counted("weights", frac_weights.beta_offdiag))
    engine, _ = make_engine(N=N, Q=2, G=5, r=3, eta=0.5, m=m, mesh=mesh)
    vals = random_values(N, m)
    engine.run_schedule(lambda n, hist: vals[n - 1])
    leaves = len(list(engine.tree.leaves()))
    assert calls["free"] <= leaves
    blocks = 2 ** (5 // 2)  # the nodes of generation G // 2
    assert calls["phi"] == calls["psi"] == calls["weights"] == (blocks if perturbed else 1)
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


def leaf_plans(engine, vals, monkeypatch):
    """Commit every step; return the plan of every leaf and the number of
    store views its entry took, one per run of cover members it multiplies."""
    views = []
    view = history_engine._BlockStore.view

    def counted_view(self, p0, p1):
        views.append((p0, p1))
        return view(self, p0, p1)

    monkeypatch.setattr(history_engine._BlockStore, "view", counted_view)
    plans, runs = {}, {}
    for n, value in enumerate(vals, start=1):
        before = len(views)
        engine.history_sum(n)
        engine.commit_step(n, value)
        leaf = engine._plan.leaf
        plans[leaf] = engine._plan
        runs[leaf] = runs.get(leaf, 0) + len(views) - before
    return plans, runs


def run_count(tree, ids):
    """Number of runs of consecutive node ids of one generation."""
    ids = sorted(ids)
    return sum(1 for a, b in zip([None] + ids, ids)
               if a is None or b != a + 1 or tree.generation[a] != tree.generation[b])


@pytest.mark.parametrize("N, Q, G, r, eta", [
    (2000, 10, 3, 5, 0.4),
    (256, 2, 6, 4, 0.5),
    (243, 3, 5, 3, 0.7),
    (64, 4, 3, 4, 0.3),
])
def test_uniform_plans_have_one_run_per_kind_and_generation(N, Q, G, r, eta, monkeypatch):
    """On a uniform mesh every plan keeps one exact run, and its entry
    multiplies at most one far-leaf run and one far-moment run per
    generation, so a step makes one exact reduction and a leaf entry O(G)
    far products whatever the size of its cover."""
    engine, _ = make_engine(N=N, Q=Q, G=G, r=r, eta=eta, m=2)
    tree = engine.tree
    plans, runs = leaf_plans(engine, random_values(N, 2), monkeypatch)
    assert len(plans) == Q**G
    for leaf, plan in plans.items():
        far = tree.minimal_cover(leaf, eta).far_ids
        gens = tree.generation[list(far)]
        moment_gens = set(gens[gens < G].tolist())
        assert len(plan.exact) == 1
        assert runs[leaf] == 1 + (1 if (gens == G).any() else 0) + len(moment_gens)
        assert (plan.far is None) == (not far)


def test_split_runs_on_a_perturbed_mesh(monkeypatch):
    """On this +-30% mesh some leaves see their near leaves, their far
    leaves or one generation's far members in two runs.  The plan keeps
    one exact term per exact run, its entry takes one product per run, the
    engine stays within the rank-r bound of the direct sum, and with
    nothing admissible it equals the direct sum."""
    N, m, r, eta, nu = 64, 3, 4, 0.3, 0.5
    mesh = perturbed_mesh(N, seed=9)
    engine, weights = make_engine(Q=4, G=3, r=r, eta=eta, m=m, nu=nu, mesh=mesh)
    tree = engine.tree
    vals = random_values(N, m)
    plans, taken = leaf_plans(engine, vals, monkeypatch)
    split = {"exact": 0, "far_leaves": 0, "far_moments": 0}
    for leaf, plan in plans.items():
        cover = tree.minimal_cover(leaf, eta)
        far_leaves = [i for i in cover.far_ids if tree.generation[i] == tree.G]
        moments = [i for i in cover.far_ids if tree.generation[i] < tree.G]
        runs = {"exact": run_count(tree, cover.near_ids + (tree.leaf_id(leaf.lo),)),
                "far_leaves": run_count(tree, far_leaves),
                "far_moments": run_count(tree, moments)}
        assert len(plan.exact) == runs["exact"]
        assert taken[leaf] == sum(runs.values())
        split["exact"] += runs["exact"] > 1
        split["far_leaves"] += runs["far_leaves"] > 1
        gens = [tree.generation[i] for i in moments]
        split["far_moments"] += runs["far_moments"] > len(set(gens))
    assert all(split.values()), split

    bound = ExpansionParams(r, eta).error_factor(nu)
    engine, weights = make_engine(Q=4, G=3, r=r, eta=eta, m=m, nu=nu, mesh=mesh)
    exact, _ = make_engine(Q=4, G=3, r=r, eta=1e-300, m=m, nu=nu, mesh=mesh)
    V = np.array(vals)
    for n in range(1, N + 1):
        want = direct_history_sum(weights, vals, n, m=m)
        scale = np.abs(weights.offdiag(n, np.arange(1, n))) @ np.abs(V[:n - 1]) if n > 1 else 0.0
        assert np.all(np.abs(engine.history_sum(n) - want) <= bound * scale + 1e-14 * scale)
        assert np.array_equal(exact.history_sum(n), want)
        engine.commit_step(n, vals[n - 1])
        exact.commit_step(n, vals[n - 1])


FAR_BLOCK_ENGINES = {
    # the desk problem's tree, and a +-30% mesh with Q = 4 and leaves of two steps
    "desk": lambda: make_engine(N=2000, Q=10, G=3, r=5, eta=0.4, m=2, T=6.0),
    "perturbed-Q4": lambda: make_engine(Q=4, G=3, r=4, eta=0.3, m=2,
                                        mesh=perturbed_mesh(128, seed=9)),
}


@pytest.mark.parametrize("name", FAR_BLOCK_ENGINES)
def test_far_block_matches_per_step_products(name, monkeypatch):
    """The far field a plan forms when its leaf is entered equals, row by
    row, that step's own products over the cover's far members: the
    step's phi against each member's moments, the psi-weighted sums of the
    member's vectors.  The coefficients come from where the engine takes
    them: the lag tables on the uniform desk mesh, phi_coeffs and
    psi_coeffs at each member's geometry on the perturbed one."""
    engine, weights = FAR_BLOCK_ENGINES[name]()
    tree = engine.tree
    assert (engine._tables is not None) == tree.mesh.uniform
    V = np.array(random_values(tree.mesh.N, engine.m))
    plans, _ = leaf_plans(engine, V, monkeypatch)
    moments = {}  # node id -> (moments, the same sum taken in absolute values)
    checked = 0
    for leaf, plan in plans.items():
        far = list(tree.minimal_cover(leaf, engine.eta).far_ids)
        if not far:
            assert plan.far is None
            continue
        for i in far:
            if i not in moments:
                lo, hi = int(tree.lo[i]), int(tree.hi[i])
                psi = engine._psi(np.array([i]), np.arange(lo, hi + 1)[None])[0]
                moments[i] = psi.T @ V[lo - 1:hi], np.abs(psi.T) @ np.abs(V[lo - 1:hi])
        for s, n in enumerate(range(leaf.lo, leaf.hi + 1)):
            phi = engine._phi(np.array(far), np.array([n]))
            want = sum(phi[k] @ moments[i][0] for k, i in enumerate(far))
            scale = sum(np.abs(phi[k]) @ moments[i][1] for k, i in enumerate(far))
            assert np.all(np.abs(plan.far[s] - want) <= 1e-13 * scale), (leaf, n)
            checked += 1
    assert checked > len(plans) // 2


LAG_TABLE_ENGINES = {
    "desk": lambda: make_engine(N=2000, Q=10, G=3, r=5, eta=0.4, T=6.0),
    "binary-G10": lambda: make_engine(N=4096, Q=2, G=10, r=8, eta=0.3, nu=0.3, T=3.0),
    "ternary": lambda: make_engine(N=729, Q=3, G=5, r=6, eta=0.5, nu=0.7, T=2.0),
}


@pytest.mark.parametrize("name", LAG_TABLE_ENGINES)
def test_lag_tables_match_each_nodes_own_coefficients(name):
    """Every row of the uniform-mesh lag tables equals, to 1e-11 relative,
    phi_coeffs and psi_coeffs at the geometry of every node that reads it:
    phi at each step after the node ends (elementwise, phi > 0), psi on
    each of its intervals (scaled per order by the node's largest |psi_p|,
    since odd orders nearly vanish about an interval's own midpoint).  The
    first node of each generation reads every row of its generation."""
    engine, weights = LAG_TABLE_ENGINES[name]()
    tree, r, nu, N = engine.tree, engine.r, weights.params.nu, engine.tree.mesh.N
    lv = tree.mesh.levels
    phi_table, psi_table = engine._tables
    width = N // tree.Q ** np.arange(tree.G + 1)
    assert phi_table.rows.shape == (np.sum(N - width), r)
    assert psi_table.rows.shape == (np.sum(width), r)
    worst = [0.0, 0.0]
    for i in range(len(tree.nodes)):
        lo, hi = int(tree.lo[i]), int(tree.hi[i])
        ids, sbar = np.array([i]), tree.midpoint(i)
        steps = np.arange(hi + 1, N + 1)
        if steps.size:
            want = phi_coeffs(nu, r, sbar, lv[steps - 1], lv[steps])
            got = phi_table.read(tree, ids, steps[None])[0]
            worst[0] = max(worst[0], float(np.max(np.abs(got - want) / want)))
        own = np.arange(lo, hi + 1)
        want = psi_coeffs(r, sbar, lv[own - 1], lv[own])
        got = psi_table.read(tree, ids, own[None])[0]
        worst[1] = max(worst[1], float(np.max(np.abs(got - want) / np.abs(want).max(axis=0))))
    assert max(worst) <= 1e-11, worst


def test_fast_run_without_lag_tables_agrees():
    """A uniform 2D fast run agrees to 1e-12 relative with the same run
    that computes phi and psi per leaf, as on a non-uniform mesh."""
    grid = SpatialGrid(dim=2, m=6)
    config = RunConfig(nu=0.4, mesh=uniform_mesh(243, 1.0), grid=grid, r=5, eta=0.5, Q=3, G=4)

    def solutions():
        return np.array(fast_run(config, benchmark_source(grid), sine_mode(grid, 1, 1))
                        .solutions)

    with_tables = solutions()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HistoryEngine, "_lag_tables", lambda self: None)
        per_leaf = solutions()
    assert np.max(np.abs(with_tables - per_leaf)) <= 1e-12 * np.max(np.abs(per_leaf))
    assert not np.array_equal(with_tables, per_leaf)  # the two paths did run


@pytest.mark.parametrize("name", FAR_BLOCK_ENGINES)
def test_steps_read_no_far_rows(name, monkeypatch):
    """Once a leaf is entered, NaN in the store rows of its far members
    changes none of its history sums: its steps read the far field the
    entry formed, never the far rows.  The rows are restored before the
    next entry, which may need them."""
    make = FAR_BLOCK_ENGINES[name]
    engine, _ = make()
    vals = random_values(engine.tree.mesh.N, engine.m)
    plain = []
    for n, value in enumerate(vals, start=1):
        plain.append(engine.history_sum(n))
        engine.commit_step(n, value)

    enter = HistoryEngine._enter
    poisoned = []  # (block, saved copy) for the current leaf's far members

    def poisoning_enter(self, leaf):
        for block, saved in poisoned:
            block[:] = saved
        poisoned.clear()
        plan = enter(self, leaf)
        tree = self.tree
        for i in tree.minimal_cover(leaf, self.eta).far_ids:
            p = tree.position(i)
            block = self._stores[tree.generation[i]].view(p, p + 1)
            poisoned.append((block, block.copy()))
            block.fill(np.nan)
        return plan

    monkeypatch.setattr(HistoryEngine, "_enter", poisoning_enter)
    engine, _ = make()
    poisoned_steps = 0
    for n, value in enumerate(vals, start=1):
        got = engine.history_sum(n)
        assert np.array_equal(got, plain[n - 1]), n
        poisoned_steps += bool(poisoned)
        engine.commit_step(n, value)
    assert poisoned_steps > engine.tree.mesh.N // 2


def test_unwritten_rows_are_never_read(monkeypatch):
    """Every block the stores hand out starts as NaN; a 2D fast run and a
    +-30%-perturbed 1D fast run still equal the unpoisoned runs bit for bit."""
    grid2, grid1 = SpatialGrid(dim=2, m=6), SpatialGrid(dim=1, m=8)
    steps = 1.0 + 0.3 * np.random.default_rng(5).uniform(-1.0, 1.0, 128)
    mesh1 = mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum())
    cases = [
        (RunConfig(nu=0.5, mesh=uniform_mesh(64, 1.0), grid=grid2, r=4, Q=2, G=4), grid2),
        (RunConfig(nu=0.3, mesh=mesh1, grid=grid1, Q=2, G=5), grid1),
    ]

    def solutions():
        return [fast_run(cfg, benchmark_source(g), sine_mode(g, 1, 1 if g.dim == 2 else None))
                .solutions for cfg, g in cases]

    plain = solutions()
    reserve = history_engine._BlockStore.reserve

    def poisoned(self, p):
        block = reserve(self, p)
        block.fill(np.nan)
        return block

    monkeypatch.setattr(history_engine._BlockStore, "reserve", poisoned)
    for want, got in zip(plain, solutions()):
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("N, Q, G, r, eta", [
    (2000, 10, 3, 5, 0.4),  # the desk problem's tree
    (1024, 2, 8, 6, 0.5),
])
def test_reserved_storage_tracks_counted_peak(N, Q, G, r, eta):
    """The values the stores and the chain accumulator reserve stay within
    a quarter of the counted peak plus one block per generation, so the
    O(M log N) bound holds for the memory actually held."""
    m = 2
    engine, _ = make_engine(N=N, Q=Q, G=G, r=r, eta=eta, m=m)
    vals = random_values(N, m)
    engine.run_schedule(lambda n, hist: vals[n - 1])
    c = engine.counters
    one_block_each = (G * r + engine.tree.leaf_size) * m
    assert c.high_water <= c.reserved_high_water <= 1.25 * c.high_water + one_block_each


def per_leaf_plan(engine, leaf):
    """The exact weights (leaf size, exact columns), the far field and
    psi_chain of leaf, each from calls for this leaf alone: one offdiag
    call, one phi and one psi evaluation (lag-table reads on a uniform
    mesh), and the products over the far runs read from the stores as they
    are at the leaf's entry."""
    tree, r, G, size = engine.tree, engine.r, engine.tree.G, leaf.size
    cover = tree.minimal_cover(leaf, engine.eta)
    leaf_id = tree.leaf_id(leaf.lo)
    nn = len(cover.near_ids) + 1
    ids = np.array(cover.near_ids + (leaf_id,) + cover.far_ids)
    steps = np.arange(leaf.lo, leaf.hi + 1)
    js = (tree.lo[ids[:nn]][:, None] + np.arange(size)).ravel()
    s, c = np.nonzero(js < steps[:, None])
    exact_w = np.zeros((size, js.size))
    exact_w[s, c] = engine.weights.offdiag(steps[s], js[c])
    far = ids[nn:]
    nmom = int(np.searchsorted(far, tree.first[G]))
    chain = np.array(tree.chain(leaf_id), dtype=int)
    rows = np.concatenate([chain, far[nmom:]])
    intervals = np.concatenate([[leaf.lo] * G, tree.lo[far[nmom:]]])[:, None] + np.arange(size)
    psi = engine._psi(rows[:, None], intervals)
    far_sum = None
    if far.size:
        phi = engine._phi(far[:, None], steps)
        w_mom = phi[:nmom].transpose(1, 0, 2).reshape(size, nmom * r)
        w_leaf = np.matmul(phi[nmom:], psi[G:].transpose(0, 2, 1))
        w_leaf = w_leaf.transpose(1, 0, 2).reshape(size, -1)
        far_sum = np.zeros((size, engine.m))
        cuts = [0, *(np.flatnonzero(far[1:] - far[:-1] != 1) + 1).tolist(), far.size]
        for i, j in zip(cuts, cuts[1:]):
            g, p = int(tree.generation[far[i]]), int(tree.position(far[i]))
            view = engine._stores[g].view(p, p + j - i)
            w = (w_mom[:, i * r:j * r] if g < G
                 else w_leaf[:, (i - nmom) * size:(j - nmom) * size])
            far_sum += w @ view
    return exact_w, far_sum, np.ascontiguousarray(psi[:G].transpose(0, 2, 1))


BLOCK_ENGINES = {
    "desk": lambda: make_engine(N=2000, Q=10, G=3, r=5, eta=0.4, m=2, T=6.0),
    "perturbed-Q2": lambda: make_engine(Q=2, G=5, r=6, eta=0.5, m=2, nu=0.3,
                                        mesh=perturbed_mesh(256, seed=4)),
    "perturbed-Q3": lambda: make_engine(Q=3, G=4, r=5, eta=0.6, m=2, nu=0.7,
                                        mesh=perturbed_mesh(243, seed=5)),
    "perturbed-Q4": lambda: make_engine(Q=4, G=3, r=4, eta=0.3, m=2,
                                        mesh=perturbed_mesh(128, seed=9)),
    "G1": lambda: make_engine(Q=8, G=1, r=5, eta=0.5, m=2, mesh=perturbed_mesh(64, seed=6)),
    "leaf-size-1": lambda: make_engine(Q=2, G=7, r=5, eta=0.5, m=2, nu=0.4,
                                       mesh=perturbed_mesh(128, seed=7)),
}


@pytest.mark.parametrize("name", BLOCK_ENGINES)
def test_block_plans_equal_per_leaf_plans(name, monkeypatch):
    """Every leaf's exact weights, far field and psi_chain, sliced from its
    block's arrays, equal bit for bit what calls for that leaf alone give;
    on a non-uniform mesh the engine makes one offdiag, one phi_coeffs and
    one psi_coeffs call per block, a block being the leaves under one node
    of generation G // 2."""
    engine, _ = BLOCK_ENGINES[name]()
    tree = engine.tree
    calls = {"offdiag": 0, "phi": 0, "psi": 0}
    entering = []  # set while the engine enters a leaf, so the oracle's calls go uncounted

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += bool(entering)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(WeightEngine, "offdiag", counted("offdiag", WeightEngine.offdiag))
    monkeypatch.setattr(history_engine, "phi_coeffs", counted("phi", history_engine.phi_coeffs))
    monkeypatch.setattr(history_engine, "psi_coeffs", counted("psi", history_engine.psi_coeffs))
    enter = HistoryEngine._enter
    checked = []

    def checked_enter(self, leaf):
        entering.append(leaf)
        plan = enter(self, leaf)
        entering.clear()
        exact_w, far, psi_chain = per_leaf_plan(self, leaf)
        got = np.concatenate([w for _, w, _ in plan.exact], axis=1)
        assert np.array_equal(got, exact_w), leaf
        assert (plan.far is None) == (far is None) and (far is None
                                                        or np.array_equal(plan.far, far)), leaf
        assert np.array_equal(plan.psi_chain, psi_chain), leaf
        checked.append(far is not None)
        return plan

    monkeypatch.setattr(HistoryEngine, "_enter", checked_enter)
    V = random_values(tree.mesh.N, engine.m)
    engine.run_schedule(lambda n, hist: V[n - 1])
    assert len(checked) == tree.Q ** tree.G and 2 * sum(checked) >= len(checked)
    blocks = tree.Q ** (tree.G // 2)
    if tree.mesh.uniform:
        assert calls == {"offdiag": blocks, "phi": 0, "psi": 0}  # phi and psi: the lag tables
    else:
        assert calls == {"offdiag": blocks, "phi": blocks, "psi": blocks}
