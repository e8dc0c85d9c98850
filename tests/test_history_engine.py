import gc

import numpy as np
import pytest

from subdiff import frac_weights, history_engine
from subdiff.clustering import Cluster, ClusterTree, max_depth
from subdiff.dg_stepper import RunConfig, fast_run
from subdiff.frac_weights import KernelParams, WeightEngine
from subdiff.history_engine import EngineCounters, HistoryEngine, SolutionSink
from subdiff.reference_solution import direct_history_sum
from subdiff.spatial_fem import SpatialGrid, benchmark_source, sine_mode
from subdiff.taylor_expansion import ExpansionParams, phi_coeffs, psi_coeffs
from subdiff.time_mesh import mesh_from_levels, uniform_mesh
from test_clustering import COVER_TREES, admissible, chain, children, perturbed_levels


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
    return rng.standard_normal((N, m))


def node_id(tree, c):
    return tree.nodes.index(c)


def leaf_cluster(tree, leaf_id):
    """The leaf with this id, which HistoryEngine._enter is given."""
    return tree.clusters([leaf_id])[0]


def plan_leaf(plan):
    """The leaf whose steps the plan serves."""
    return Cluster(plan.lo, plan.hi)


def engine_phi(engine, ids, steps):
    """phi of the nodes ids at the steps, broadcast against each other,
    with a trailing axis of length r, as the engine evaluates it."""
    lv = engine.tree.mesh.levels
    return phi_coeffs(engine.weights.params.nu, engine.r, engine.tree.midpoint(ids),
                      lv[steps - 1], lv[steps])


def engine_psi(engine, ids, intervals):
    """psi of the nodes ids on the intervals, broadcast against each
    other, with a trailing axis of length r, as the engine evaluates it."""
    lv = engine.tree.mesh.levels
    return psi_coeffs(engine.r, engine.tree.midpoint(ids), lv[intervals - 1], lv[intervals])


def test_all_near_cover_matches_direct_sum_bitwise():
    # m = 1 too: numpy sums a single column pairwise unless told otherwise
    for m in (3, 1):
        engine, weights = make_engine(eta=1e-300, m=m)
        vals = random_values(64, m)
        for n in range(1, 65):
            got = engine.history_sum(n)
            want = direct_history_sum(weights, vals, n)
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
            want = direct_history_sum(weights, vals, n)
            scale = max(float(np.max(np.abs(want))), 1e-30)
            worst = np.maximum(worst, float(np.max(np.abs(got - want))) / scale)
            engine.commit_step(n, vals[n - 1])
        if prev is not None:
            assert worst < prev
        prev = worst
    assert prev < 1e-7


def moment_block(engine, i):
    """The r moment vectors the engine holds for non-leaf node i, in its
    generation's store."""
    tree = engine.tree
    p = tree.position(i)
    return engine._stores[int(tree.generation[i])].view(p, p + 1)


def reach_maximum(tree, eta, g):
    """The running maximum of the freeing leaves of generation g's nodes:
    entering leaf k, its store holds its blocks from the first whose value
    lies past k, the bisection searchsorted(k, "right"), to its newest."""
    free = tree.lifetimes(eta)[2]
    return np.maximum.accumulate(free[tree.first[g]:tree.first[g + 1]])


def test_moment_accumulators_hold_weighted_sums(monkeypatch):
    """After committing a cluster's intervals, its first moment equals the
    plain step-weighted sum of the committed vectors, in its generation's
    store, and stays there bit for bit once the schedule has left it.  On
    Q = 3 trees over a uniform and a +-30% mesh, every ancestor of a
    leaf is held inside its store's live window from the leaf's entry on,
    and after each leaf's last commit every held non-leaf moment block
    equals psi.T @ V over its committed intervals, with psi at the node's
    own geometry."""
    engine, _ = make_engine(N=16, G=2, T=16.0)
    vals = random_values(16, 3)
    for n in range(1, 9):
        engine.commit_step(n, vals[n - 1])
    mat = moment_block(engine, node_id(engine.tree, Cluster(1, 8))).copy()
    want = sum(vals[j] for j in range(8))  # psi_1 = k_j = 1 on this mesh
    np.testing.assert_allclose(mat[0], want, rtol=1e-13)
    # second moment: integral of (s - sbar) over each unit interval, times value
    sbar = 4.0
    want2 = sum((j + 0.5 - sbar) * vals[j] for j in range(8))
    np.testing.assert_allclose(mat[1], want2, rtol=1e-12)
    engine.commit_step(9, vals[8])  # enters C(9, 12) and reserves C(9, 16) after C(1, 8)
    assert np.array_equal(moment_block(engine, node_id(engine.tree, Cluster(1, 8))), mat)

    enter = HistoryEngine._enter
    entered = []

    def checked_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        plan = enter(self, leaf_id)
        tree = self.tree
        k = leaf_id - tree.first[tree.G]
        for i in chain(tree, leaf_id):  # the ancestors: each its store's newest
            g, p = int(tree.generation[i]), tree.position(i)
            store, lo = self._stores[g], reach_maximum(tree, self.eta, g).searchsorted(k, "right")
            assert self._live[i] and store.base <= lo <= p < store.base + len(store.buf), (leaf, i)
        entered.append(leaf)
        return plan

    monkeypatch.setattr(HistoryEngine, "_enter", checked_enter)
    for mesh in (uniform_mesh(81, 2.0), perturbed_mesh(81, seed=6)):
        engine, _ = make_engine(Q=3, G=3, r=4, eta=0.5, m=2, mesh=mesh)
        tree, lv = engine.tree, mesh.levels
        V = random_values(81, 2)
        checked, entered[:] = 0, []
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
        assert checked > 81 and entered == list(tree.leaves())


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
    """Whether the engine holds c's values in its store: a leaf's retained
    vectors, or a non-leaf's moments."""
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
    # leaf, whose block its last commit fills
    root_child = Cluster(1, 8)
    engine.free_cluster(subtree(tree, node_id(tree, root_child)))
    assert not holds(engine, root_child)
    assert not holds(engine, Cluster(5, 8))
    assert engine.counters.live_values == 4 * 2
    # freed vectors may no longer be read: leaf C(9, 12) has C(1, 4) as a near leaf
    with pytest.raises(AssertionError, match="freed too early"):
        engine.history_sum(9)


def recursive_frees(tree, live, i, out):
    """The recursive free rule, the oracle for the engine's parent rule: a held
    node is freed, a held non-leaf after its children; a node not held
    ends the walk."""
    if live[i]:
        for k in children(tree, i):
            recursive_frees(tree, live, k, out)
        live[i] = False
        out.append(i)


@pytest.mark.parametrize("name", COVER_TREES)
def test_frees_match_recursive_rule(name, monkeypatch):
    """At every leaf entry the engine makes one free_cluster call, and it
    names exactly the ids the recursive rule frees from the same
    held state: the subtrees below the children of the far non-leaf
    members that are new to this cover."""
    tree, eta = COVER_TREES[name]()
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 2, eta, 1)
    entries = []  # per leaf entered: the leaf, the held flags before, the free calls
    enter, free = HistoryEngine._enter, HistoryEngine.free_cluster

    def recorded_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        entries.append((leaf, self._live.copy(), []))
        return enter(self, leaf_id)

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
        assert calls == [sorted(want)], leaf
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


def test_group_entry_checks_its_leaves_far_members():
    """A far group's first entry reads the far members of all its leaves: a
    moment block freed before it stops that entry, though the first leaf's
    own cover does not hold it (leaves 4..6 form a group, and C(1, 16) is
    far for leaf 6 only)."""
    engine, _ = make_engine(N=64, G=3, eta=0.6)
    tree = engine.tree
    assert (4, 7) in far_groups(tree, engine.eta)
    target = node_id(tree, Cluster(1, 16))
    assert target in engine.cover_for(49).far_ids
    assert target not in engine.cover_for(33).near_ids + engine.cover_for(33).far_ids
    vals = random_values(64, 3)
    for n in range(1, 33):
        engine.commit_step(n, vals[n - 1])
    engine.free_cluster([target])
    with pytest.raises(AssertionError, match="freed too early"):
        engine.history_sum(33)


def held_values(engine):
    """The values the engine holds by its flags: r per held non-leaf, and
    per held leaf one per committed step, times M."""
    tree, n = engine.tree, engine.committed
    held = np.flatnonzero(engine._live)
    lo = tree.lo[held[held >= tree.first[tree.G]]]
    steps = np.clip(n + 1 - lo, 0, tree.leaf_size).sum()
    return engine.m * (int(steps) + engine.r * (held.size - lo.size))


@pytest.mark.parametrize("name", ["ternary-perturbed", "desk"])
def test_static_frees_follow_the_held_scan(name, monkeypatch):
    """Over a full run, each leaf entry frees exactly the held nodes whose
    parent the leaf's history admits, found by hand from the held flags
    (the scan the static free lists replace), so each node is released
    once, at the first entry that admits its parent.  After every entry
    and commit the live values equal those the held flags give, and the
    high-water mark their running maximum."""
    tree, eta = COVER_TREES[name]()
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 3, eta, 2)
    enter, free, commit = HistoryEngine._enter, HistoryEngine.free_cluster, HistoryEngine.commit_step
    freed, peak = [], [0]

    def checked(self):
        live = held_values(self)
        peak[0] = max(peak[0], live)
        assert (self.counters.live_values, self.counters.high_water) == (live, peak[0])

    def scanned_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        held = np.flatnonzero(self._live[1:]) + 1  # the root is never freed
        parents = [tree.nodes[(i - 1) // tree.Q] for i in held.tolist()]
        want = sorted(i for i, c in zip(held.tolist(), parents)
                      if admissible(tree, c, leaf.lo - 1, eta))
        before = len(freed)
        plan = enter(self, leaf_id)
        assert sorted(freed[before:]) == want, leaf
        checked(self)
        return plan

    def recorded_free(self, ids):
        ids = np.asarray(ids)
        freed.extend(ids[self._live[ids]].tolist())
        return free(self, ids)

    def checked_commit(self, n, value):
        commit(self, n, value)
        checked(self)

    monkeypatch.setattr(HistoryEngine, "_enter", scanned_enter)
    monkeypatch.setattr(HistoryEngine, "free_cluster", recorded_free)
    monkeypatch.setattr(HistoryEngine, "commit_step", checked_commit)
    engine.run_schedule(lambda n, hist: np.ones(2))
    assert freed and len(freed) == len(set(freed))
    assert engine.counters.high_water == peak[0]


def test_leaf_entries_ask_no_admissibility_question(monkeypatch):
    """A long1d-shaped fast run (N = 4096, Q = 2, G = 10, 1,024 leaves)
    evaluates ClusterTree._admissible O(log leaves) times, once per
    bisection step of the lifetimes, not once or more per leaf.  (The depth
    is explicit: an automatic one asks the lifetimes of every depth.)"""
    calls = []
    predicate = ClusterTree._admissible

    def counted(self, *args):
        calls.append(args)
        return predicate(self, *args)

    monkeypatch.setattr(ClusterTree, "_admissible", counted)
    grid = SpatialGrid(dim=1, m=8)
    config = RunConfig(nu=0.3, mesh=mesh_from_levels(perturbed_levels(4096, seed=1)), grid=grid,
                       Q=2, G=10)
    leaves = config.tree().Q ** config.tree().G
    calls.clear()
    result = fast_run(config, benchmark_source(grid), sine_mode(grid, 1))
    assert leaves >= 1024 and len(result.solutions) == 4096
    assert 0 < len(calls) <= 2 * leaves.bit_length(), len(calls)


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
    """Over a full schedule free_cluster runs once per leaf entered;
    phi_coeffs and psi_coeffs run once per block of leaves on every mesh;
    the weights come from one beta_offdiag call per block (the weight lag
    table's alone on a uniform mesh); and the operation and memory counts
    equal those of the per-step engine this one replaced."""
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
    assert calls["free"] == leaves
    blocks = 2 ** (5 // 2)  # the nodes of generation G // 2
    assert calls["phi"] == calls["psi"] == blocks
    assert calls["weights"] == (blocks if perturbed else 1)
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
        want = direct_history_sum(weights, vals, n)
        worst = np.maximum(worst, float(np.max(np.abs(hist - want)))
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
        want = direct_history_sum(weights, vals, n)
        scale = max(float(np.max(np.abs(want))), 1e-30)
        worst = np.maximum(worst, float(np.max(np.abs(hist - want))) / scale)
        return vals[n - 1]

    engine.run_schedule(cb)
    assert worst < 1e-7


def long1d_engine(N):
    """The engine fast_run builds for a long1d-fast-shaped run of N steps:
    nu 0.3, +-30% steps, M = 7, Q = 2, automatic (r, eta) and depth."""
    config = RunConfig(nu=0.3, mesh=mesh_from_levels(perturbed_levels(N, seed=1)),
                       grid=SpatialGrid(dim=1, m=8), Q=2)
    return HistoryEngine(config.tree(), WeightEngine(KernelParams(config.nu), config.mesh),
                         *config.resolved_params(), config.grid.M)


SCHEDULE_ENGINES = {
    "long1d": lambda: long1d_engine(1024),
    "perturbed-Q3": lambda: make_engine(Q=3, G=4, r=5, eta=0.6, m=2, nu=0.7,
                                        mesh=perturbed_mesh(243, seed=5))[0],
}


@pytest.mark.parametrize("name", SCHEDULE_ENGINES)
def test_run_schedule_equals_hand_driven_steps(name):
    """run_schedule enters each leaf by id before its steps' history_sum
    and commit_step calls; a loop that drives those two by hand, so that
    each leaf is entered by its first query, gives the same histories and
    counts bit for bit.  Each step's value depends on its history."""
    results = []
    for by_hand in (False, True):
        engine = SCHEDULE_ENGINES[name]()
        N, m = engine.tree.mesh.N, engine.m
        vals, hists = random_values(N, m), []

        def step(n, hist):
            hists.append(hist.copy())
            return vals[n - 1] + 0.25 * hist

        if by_hand:
            for n in range(1, N + 1):
                engine.commit_step(n, step(n, engine.history_sum(n)))
        else:
            engine.run_schedule(step)
        results.append((np.array(hists), engine.counters, engine.committed))
    (scheduled, counts, committed), (driven, want_counts, want_committed) = results
    assert scheduled.shape == driven.shape == (N, m) and np.array_equal(scheduled, driven)
    assert counts == want_counts and committed == want_committed == N
    assert counts.rhs_ops > 0 and np.abs(scheduled).max() > 0


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("N, Q", [(256, 2), (243, 3), (125, 5), (1000, 10)])
def test_predicted_ops_equal_counted_ops(N, Q, perturbed):
    """predicted_ops, from the lifetimes alone, is the rhs_ops + update_ops
    the engine counts, divided by M, at every depth and two (r, eta)."""
    mesh = perturbed_mesh(N, seed=6) if perturbed else uniform_mesh(N, float(N))
    weights, m = WeightEngine(KernelParams(0.5), mesh), 2
    vals = random_values(N, m)
    for G in range(1, max_depth(N, Q) + 1):
        tree = ClusterTree(mesh, Q, G)
        for r, eta in ((3, 0.5), (6, 1.0)):
            engine = HistoryEngine(tree, weights, r, eta, m)
            engine.run_schedule(lambda n, hist: vals[n - 1])
            counted = engine.counters.rhs_ops + engine.counters.update_ops
            assert m * history_engine.predicted_ops(tree, r, eta) == counted, (G, r, eta)


def test_solution_sink_closed_as_failed_is_never_complete(tmp_path):
    """A stream closed as failed reads complete 0 even when it holds N
    records; closing it again changes nothing."""
    sink = SolutionSink(tmp_path / "stream.bin", {"N": 2})
    sink.write(np.zeros(3))
    sink.write(np.ones(3))
    sink.close(failed=True)
    sink.close()
    header = (tmp_path / "stream.bin.hdr").read_text().splitlines()
    assert header == ["N 2", "records 2", "complete 0"]


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
    assert header == ["N 8", "M 3", "records 8", "complete 1"]
    with pytest.raises(ValueError, match="closed"):
        sink.write(result.solutions[0])


def test_solution_sink_reads_back_its_records(tmp_path):
    rng = np.random.default_rng(5)
    records = rng.standard_normal((9, 4))
    path = tmp_path / "stream.bin"
    sink = SolutionSink(path, {"N": 9})
    try:
        for i, vec in enumerate(records):
            sink.write(vec)
            # readable while open: every record written so far
            assert np.array_equal(sink.read(), records[:i + 1])
        assert np.array_equal(sink.read(3, 7), records[3:7])
        with pytest.raises(ValueError, match="record of 5 values"):
            sink.write(np.zeros(5))
    finally:
        sink.close()
    view = sink.read()
    assert view.shape == (9, 4) and not view.flags.writeable
    assert np.array_equal(view, records)
    assert [row.tolist() for row in view] == records.tolist()
    assert sink.read(9).shape == (0, 4)
    with pytest.raises(IndexError):
        sink.read(2, 10)
    assert (tmp_path / "stream.bin.hdr").read_text().splitlines() == ["N 9", "records 9",
                                                                      "complete 1"]


def test_engine_validation():
    mesh = uniform_mesh(8, 1.0)
    weights = WeightEngine(KernelParams(0.5), mesh)
    tree = ClusterTree(mesh, 2, 2)
    with pytest.raises(ValueError, match="r must be at least 1"):
        HistoryEngine(tree, weights, r=0, eta=0.5, m=1)
    for eta in (1.5, float("nan")):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            HistoryEngine(tree, weights, r=3, eta=eta, m=1)


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
        leaf = plan_leaf(engine._plan)
        plans[leaf] = engine._plan
        runs[leaf] = runs.get(leaf, 0) + len(views) - before
    return plans, runs


def leaf_entries(engine, vals, monkeypatch):
    """Commit every step; return, per leaf in time order, its plan, the
    number of store views its entry took (one per run of cover members it
    multiplies), the far field the engine held after the entry (its far
    group's) and the held flags then."""
    views = []
    view, enter = history_engine._BlockStore.view, HistoryEngine._enter

    def counted_view(self, p0, p1):
        views.append((p0, p1))
        return view(self, p0, p1)

    entries = []

    def recorded_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        before = len(views)
        plan = enter(self, leaf_id)
        entries.append((plan, len(views) - before, self._far, self._live.copy()))
        return plan

    monkeypatch.setattr(history_engine._BlockStore, "view", counted_view)
    monkeypatch.setattr(HistoryEngine, "_enter", recorded_enter)
    for n, value in enumerate(vals, start=1):
        engine.history_sum(n)
        engine.commit_step(n, value)
    return entries


def groups_of(entries):
    """(first, end) leaf places of the runs of leaf entries that read one far field."""
    starts = [k for k, e in enumerate(entries) if not k or e[2] is not entries[k - 1][2]]
    return list(zip(starts, starts[1:] + [len(entries)]))


def far_groups(tree, eta):
    """The far groups by hand, as (first, end) leaf places: a group runs from
    its first leaf up to the first leaf for which one of its leaves is
    admissible, or to the end of its block (the leaves under one node of
    generation G // 2)."""
    leaves, per = list(tree.leaves()), tree.Q ** (tree.G - tree.G // 2)
    groups, k = [], 0
    while k < len(leaves):
        e = k + 1
        while e % per and not any(admissible(tree, leaves[j], leaves[e].lo - 1, eta)
                                  for j in range(k, e)):
            e += 1
        groups.append((k, e))
        k = e
    return groups


def group_far_ids(tree, eta, k0, k1):
    """The far members of leaves k0..k1-1, the union of their covers', by id."""
    leaves = list(tree.leaves())[k0:k1]
    return sorted(set().union(*(tree.minimal_cover(leaf, eta).far_ids for leaf in leaves)))


def run_count(tree, ids):
    """Number of runs of consecutive node ids of one generation."""
    ids = sorted(ids)
    return sum(1 for a, b in zip([None] + ids, ids)
               if a is None or b != a + 1 or tree.generation[a] != tree.generation[b])


def far_runs(tree, ids):
    """Runs of consecutive far leaves, and of moment members, among ids."""
    gens = tree.generation[ids]
    return (run_count(tree, [i for i, g in zip(ids, gens) if g == tree.G]),
            run_count(tree, [i for i, g in zip(ids, gens) if g < tree.G]))


@pytest.mark.parametrize("N, Q, G, r, eta", [
    (2000, 10, 3, 5, 0.4),
    (256, 2, 6, 4, 0.5),
    (243, 3, 5, 3, 0.7),
    (64, 4, 3, 4, 0.3),
])
def test_uniform_plans_have_one_run_per_kind_and_generation(N, Q, G, r, eta, monkeypatch):
    """On a uniform mesh every plan keeps one exact run; the first leaf
    entry of a far group multiplies at most one far-leaf run and one
    far-moment run per generation of the group's far members, and its other
    leaf entries none, so a step makes one exact reduction and a group
    entry O(G) far products whatever the size of its covers."""
    engine, _ = make_engine(N=N, Q=Q, G=G, r=r, eta=eta, m=2)
    tree = engine.tree
    entries = leaf_entries(engine, random_values(N, 2), monkeypatch)
    assert len(entries) == Q**G
    for k0, k1 in groups_of(entries):
        far = group_far_ids(tree, eta, k0, k1)
        gens = tree.generation[far]
        kinds = (1 if (gens == G).any() else 0) + len(set(gens[gens < G].tolist()))
        assert sum(far_runs(tree, far)) == kinds
        for k, (plan, taken, _, _) in enumerate(entries[k0:k1], start=k0):
            assert len(plan.exact) == 1
            assert taken == 1 + (kinds if k == k0 else 0)
            assert (plan.far is None) == (not tree.minimal_cover(plan_leaf(plan), eta).far_ids)


def test_split_runs_on_a_perturbed_mesh(monkeypatch):
    """On this +-30% mesh some leaves see their near leaves, and some far
    groups their far leaves or one generation's far members, in two runs.
    The plan keeps one exact term per exact run, a group's first entry
    takes one product per far run of the group, the engine stays within
    the rank-r bound of the direct sum, and with nothing admissible it
    equals the direct sum."""
    N, m, r, eta, nu = 64, 3, 4, 0.3, 0.5
    mesh = perturbed_mesh(N, seed=9)
    engine, weights = make_engine(Q=4, G=3, r=r, eta=eta, m=m, nu=nu, mesh=mesh)
    tree = engine.tree
    vals = random_values(N, m)
    entries = leaf_entries(engine, vals, monkeypatch)
    split = {"exact": 0, "far_leaves": 0, "far_moments": 0}
    for k0, k1 in groups_of(entries):
        far = group_far_ids(tree, eta, k0, k1)
        runs = far_runs(tree, far)
        for k, (plan, taken, _, _) in enumerate(entries[k0:k1], start=k0):
            exact = run_count(tree, tree.minimal_cover(plan_leaf(plan), eta).near_ids
                              + (tree.leaf_id(plan.lo),))
            assert len(plan.exact) == exact
            assert taken == exact + (sum(runs) if k == k0 else 0)
            split["exact"] += exact > 1
        split["far_leaves"] += runs[0] > 1
        split["far_moments"] += runs[1] > len(set(tree.generation[far][tree.generation[far]
                                                                       < tree.G].tolist()))
    assert all(split.values()), split

    bound = ExpansionParams(r, eta).error_factor(nu)
    engine, weights = make_engine(Q=4, G=3, r=r, eta=eta, m=m, nu=nu, mesh=mesh)
    exact, _ = make_engine(Q=4, G=3, r=r, eta=1e-300, m=m, nu=nu, mesh=mesh)
    for n in range(1, N + 1):
        want = direct_history_sum(weights, vals, n)
        scale = np.abs(weights.offdiag(n, np.arange(1, n))) @ np.abs(vals[:n - 1]) if n > 1 else 0.0
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
    member's vectors, with phi_coeffs and psi_coeffs at each member's
    geometry."""
    engine, weights = FAR_BLOCK_ENGINES[name]()
    tree = engine.tree
    V = random_values(tree.mesh.N, engine.m)
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
                psi = engine_psi(engine, np.array([i]), np.arange(lo, hi + 1)[None])[0]
                moments[i] = psi.T @ V[lo - 1:hi], np.abs(psi.T) @ np.abs(V[lo - 1:hi])
        for s, n in enumerate(range(leaf.lo, leaf.hi + 1)):
            phi = engine_phi(engine, np.array(far), np.array([n]))
            want = sum(phi[k] @ moments[i][0] for k, i in enumerate(far))
            scale = sum(np.abs(phi[k]) @ moments[i][1] for k, i in enumerate(far))
            assert np.all(np.abs(plan.far[s] - want) <= 1e-13 * scale), (leaf, n)
            checked += 1
    assert checked > len(plans) // 2


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

    def poisoning_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        for block, saved in poisoned:
            block[:] = saved
        poisoned.clear()
        plan = enter(self, leaf_id)
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

    def poisoned(self, p, lo):
        block = reserve(self, p, lo)
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
    """The values the stores reserve stay within a quarter of the counted
    peak plus one block per generation, so the O(M log N) bound holds for
    the memory actually held."""
    m = 2
    engine, _ = make_engine(N=N, Q=Q, G=G, r=r, eta=eta, m=m)
    vals = random_values(N, m)
    engine.run_schedule(lambda n, hist: vals[n - 1])
    c = engine.counters
    one_block_each = (G * r + engine.tree.leaf_size) * m
    assert c.high_water <= c.reserved_high_water <= 1.25 * c.high_water + one_block_each


def per_leaf_plan(engine, leaf):
    """The exact weights (leaf size, exact columns), the far weights and
    psi_chain of leaf, each from calls for this leaf alone: one offdiag,
    one phi_coeffs and one psi_coeffs call.  The far weights map each far
    member to its phi, (leaf size, r), or to a far leaf's phi @ psi.T,
    (leaf size, leaf size)."""
    tree, G, size = engine.tree, engine.tree.G, leaf.size
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
    rows = np.concatenate([np.array(chain(tree, leaf_id), dtype=int), far[nmom:]])
    intervals = np.concatenate([[leaf.lo] * G, tree.lo[far[nmom:]]])[:, None] + np.arange(size)
    psi = engine_psi(engine, rows[:, None], intervals)
    far_w = {}
    if far.size:
        phi = engine_phi(engine, far[:, None], steps)  # (member, step, r)
        w_leaf = np.matmul(phi[nmom:], psi[G:].transpose(0, 2, 1))
        far_w = dict(zip(far.tolist(), [*phi[:nmom], *w_leaf]))
    return exact_w, far_w, np.ascontiguousarray(psi[:G].transpose(0, 2, 1))


def group_far_field(engine, far_ws):
    """The far field of a far group's steps from its leaves' far weights
    (far_ws, in time order), placed in the group's layout: the group's far
    members by id, r columns per moment member, then one per interval of
    each far leaf, and a leaf's weights at its own rows, zero where the
    member is not in its cover; then one product per run of consecutive
    ids, with the stores as they are now, at the group's first entry."""
    tree, r, size = engine.tree, engine.r, engine.tree.leaf_size
    far = sorted(set().union(*far_ws))
    moments = int(np.searchsorted(far, tree.first[tree.G]))
    field = np.zeros((size * len(far_ws), engine.m))
    weights = [np.zeros((len(field), r * moments)), np.zeros((len(field), size * (len(far) - moments)))]
    for b, far_w in enumerate(far_ws):
        for c, i in enumerate(far):
            kind, width = (0, r) if c < moments else (1, size)
            c = c if c < moments else c - moments
            if i in far_w:
                weights[kind][b * size:(b + 1) * size, c * width:(c + 1) * width] = far_w[i]
    cuts = [c for c in range(len(far)) if not c or far[c] != far[c - 1] + 1 or c == moments]
    for c0, c1 in zip(cuts, cuts[1:] + [len(far)]):
        g, p = int(tree.generation[far[c0]]), int(tree.position(far[c0]))
        kind, width, base = (0, r, 0) if c0 < moments else (1, size, moments)
        w = weights[kind][:, (c0 - base) * width:(c1 - base) * width]
        field += w @ engine._stores[g].view(p, p + c1 - c0)
    return field


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
    "uniform-leaf-size-1": lambda: make_engine(N=128, Q=2, G=7, r=5, eta=0.5, m=2, nu=0.4),
}


@pytest.mark.parametrize("name", BLOCK_ENGINES)
def test_block_plans_equal_per_leaf_plans(name, monkeypatch):
    """Every leaf's exact weights and psi_chain, sliced from its block's
    arrays, equal bit for bit what calls for that leaf alone give, and its
    far field equals bit for bit its rows of its far group's far field
    formed from those leaves' own far weights; on every mesh the engine
    makes one offdiag, one phi_coeffs and one psi_coeffs call per block,
    a block being the leaves under one node of generation G // 2."""
    engine, _ = BLOCK_ENGINES[name]()
    tree = engine.tree
    leaves, groups = list(tree.leaves()), dict(far_groups(tree, engine.eta))
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
    checked, field = [], [None, 0]  # the current group's far field and first leaf

    def checked_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        entering.append(leaf)
        before = self._far
        plan = enter(self, leaf_id)
        entering.clear()
        k = leaves.index(leaf)
        assert (self._far is not before) == (k in groups), leaf
        if k in groups:
            far_ws = [per_leaf_plan(self, c)[1] for c in leaves[k:groups[k]]]
            field[:] = group_far_field(self, far_ws), k
        exact_w, far_w, psi_chain = per_leaf_plan(self, leaf)
        got = np.concatenate([w for _, w, _ in plan.exact], axis=1)
        assert np.array_equal(got, exact_w), leaf
        rows = field[0][(k - field[1]) * leaf.size:(k - field[1] + 1) * leaf.size]
        assert (plan.far is None) == (not far_w) and (not far_w
                                                      or np.array_equal(plan.far, rows)), leaf
        assert np.array_equal(plan.psi_chain, psi_chain), leaf
        checked.append(bool(far_w))
        return plan

    monkeypatch.setattr(HistoryEngine, "_enter", checked_enter)
    V = random_values(tree.mesh.N, engine.m)
    engine.run_schedule(lambda n, hist: V[n - 1])
    assert len(checked) == tree.Q ** tree.G and 2 * sum(checked) >= len(checked)
    blocks = tree.Q ** (tree.G // 2)
    assert calls == {"offdiag": blocks, "phi": blocks, "psi": blocks}


FAR_GROUP_TREES = {
    "desk": COVER_TREES["desk"],
    "long1d": COVER_TREES["long1d"],
    "long1d-seed2": COVER_TREES["long1d-seed2"],
    "ternary-perturbed": COVER_TREES["ternary-perturbed"],
    "perturbed-Q4": lambda: (ClusterTree(perturbed_mesh(128, seed=9), 4, 3), 0.3),
    # leaves of alternately two and one units: a short leaf is admissible
    # sooner than the long one before it, so a group ends at its second leaf's
    "two-speed": lambda: (ClusterTree(mesh_from_levels(np.r_[0.0, np.cumsum(np.repeat(
        np.resize([2.0, 1.0], 32), 4))]), 2, 5), 0.5),
}


@pytest.mark.parametrize("name", FAR_GROUP_TREES)
def test_far_groups_are_maximal_and_read_final_held_members(name, monkeypatch):
    """The leaves that share one far field are the far groups found by
    hand: they partition each block's leaves, and each runs up to the first
    leaf for which one of its leaves is admissible, or to its block's end.
    Every far member of the group's leaves ends before the group's first
    step and is held at its entry, which takes one product per run of them
    (on a uniform mesh at most one per kind and generation); the group's
    other leaf entries take none."""
    tree, eta = FAR_GROUP_TREES[name]()
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 3, eta, 1)
    entries = leaf_entries(engine, random_values(tree.mesh.N, 1), monkeypatch)
    groups = groups_of(entries)
    assert groups == far_groups(tree, eta)
    leaves, multi = list(tree.leaves()), 0
    for k0, k1 in groups:
        far = group_far_ids(tree, eta, k0, k1)
        assert (tree.hi[far] < leaves[k0].lo).all() and entries[k0][3][far].all(), k0
        runs = sum(far_runs(tree, far))
        if tree.mesh.uniform:
            gens = tree.generation[far]
            assert runs <= (gens == tree.G).any() + len(set(gens[gens < tree.G].tolist()))
        for k, (plan, taken, _, _) in enumerate(entries[k0:k1], start=k0):
            assert taken == len(plan.exact) + (runs if k == k0 else 0), k
        multi += k1 - k0 > 1
    assert 2 * multi >= len(groups)


@pytest.mark.parametrize("name, eta", [(name, None) for name in {**BLOCK_ENGINES, **FAR_GROUP_TREES}] + [
    (mesh, eta) for mesh in ("uniform", "perturbed") for eta in (1e-300, 0.25, 0.4, 0.688, 1.0)])
def test_block_covers_equal_minimal_covers(name, eta, monkeypatch):
    """Every leaf's covers as its block builds them from the lifetimes equal
    minimal_cover's, in order: its near ids are those of its exact runs
    before the leaf itself; at a far group's first leaf its far runs hold
    the far members of all the group's leaves, and no other leaf has far
    runs; and the ids its entry checks are held are its near and far ids
    and, at a group's first leaf, the group's far members.  Its entry
    record frees its static free list, the ids the lifetimes free at it,
    and reserves the block of each generation g with k % span == 0 for its
    place k, root first and its own last, each told the window start the
    bisection of the running maximum of its generation's freeing leaves
    gives.  The engine calls minimal_cover once per block, 10 times on desk
    and 16 on the long1d trees (of automatic depth 8)."""
    if name in FAR_GROUP_TREES:
        tree, eta = FAR_GROUP_TREES[name]()
    elif name in BLOCK_ENGINES:
        engine = BLOCK_ENGINES[name]()[0]
        tree, eta = engine.tree, engine.eta
    else:
        tree = ClusterTree(uniform_mesh(256, 6.0) if name == "uniform"
                           else perturbed_mesh(256, seed=10), 2, 6)
    leaves, leaf0, groups = list(tree.leaves()), tree.first[tree.G], dict(far_groups(tree, eta))
    covers = [tree.minimal_cover(leaf, eta) for leaf in leaves]
    free = tree.lifetimes(eta)[2]
    reach = [reach_maximum(tree, eta, g) for g in range(tree.G + 1)]
    cover, enter_block = ClusterTree.minimal_cover, HistoryEngine._enter_block
    calls, checked = [], []

    def counted(self, leaf, eta):
        calls.append(leaf)
        return cover(self, leaf, eta)

    def checked_enter_block(self, leaf_id):
        block = enter_block(self, leaf_id)
        for b, entry in enumerate(block.leaves):
            k = block.first + b - leaf0
            runs = [(kind, tree.first[g] + p) for kind, part in enumerate((entry.exact, entry.far))
                    for g, p0, p1, *_ in part for p in range(p0, p1)]
            near = [i for kind, i in runs if kind == 0]
            assert near[:-1] == list(covers[k].near_ids) and near[-1] == block.first + b, k
            union = set().union(*(covers[j].far_ids for j in range(k, groups.get(k, k))))
            assert sorted(i for kind, i in runs if kind) == sorted(union), k
            want = sorted({*near[:-1], *covers[k].far_ids, *union})
            assert entry.held.tolist() == want, k
            assert entry.frees.tolist() == np.flatnonzero(free == k).tolist(), k
            spans = [tree.Q ** (tree.G - g) for g in range(tree.G + 1)]
            assert entry.reserves == [(g, tree.first[g] + k // span, k // span,
                                       int(reach[g].searchsorted(k, "right")))
                                      for g, span in enumerate(spans) if k % span == 0], k
            checked.append(k)
        return block

    monkeypatch.setattr(ClusterTree, "minimal_cover", counted)
    monkeypatch.setattr(HistoryEngine, "_enter_block", checked_enter_block)
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 3, eta, 1)
    engine.run_schedule(lambda n, hist: np.ones(1))
    assert checked == list(range(len(leaves)))
    assert len(calls) == tree.Q ** (tree.G // 2) == {"desk": 10, "long1d": 16,
                                                     "long1d-seed2": 16}.get(name, len(calls))


@pytest.mark.parametrize("name", ["perturbed-Q4", "two-speed"])
def test_later_group_leaves_check_their_own_far_members(name):
    """A far group's first entry reads the far members of all its leaves,
    yet each later leaf's entry still checks its own: a moment block or a
    far leaf of the cover of a group's last leaf, freed by hand after the
    group's first entry, stops that leaf's entry."""
    tree, eta = FAR_GROUP_TREES[name]()
    leaves, leaf0 = list(tree.leaves()), tree.first[tree.G]
    k = next(k1 - 1 for k0, k1 in far_groups(tree, eta) if k1 - k0 > 1 and {
        i >= leaf0 for i in tree.minimal_cover(leaves[k1 - 1], eta).far_ids} == {False, True})
    far = tree.minimal_cover(leaves[k], eta).far_ids
    for target in (far[0], far[-1]):  # a moment block, then a far leaf
        engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 3, eta, 1)
        for n in range(1, leaves[k].lo):
            engine.commit_step(n, np.ones(1))
        engine.free_cluster([target])
        with pytest.raises(AssertionError, match="freed too early"):
            engine.history_sum(leaves[k].lo)


@pytest.mark.parametrize("name", ["perturbed-Q3", "uniform-leaf-size-1", "G1"])
def test_one_block_is_held_and_replaced_at_a_block_entry(name, monkeypatch):
    """The engine holds at most one block: the previous block is gone when
    the next one is built, and the held block changes only when the
    schedule enters a block's first leaf, so the last leaf of a block
    keeps it."""
    engine, _ = BLOCK_ENGINES[name]()
    tree = engine.tree
    per, leaf0 = tree.Q ** (tree.G - tree.G // 2), tree.first[tree.G]
    enter, enter_block = HistoryEngine._enter, HistoryEngine._enter_block
    built = []

    def checked_enter_block(self, leaf_id):
        gc.collect()
        assert not [o for o in gc.get_objects() if type(o) is history_engine._Block], leaf_id
        built.append(leaf_id)
        return enter_block(self, leaf_id)

    def checked_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        before = self._block and self._block.first  # no reference to the block itself
        plan = enter(self, leaf_id)
        first = (leaf_id - leaf0) % per == 0
        assert self._block is not None and (self._block.first != before) == first, leaf
        return plan

    monkeypatch.setattr(HistoryEngine, "_enter_block", checked_enter_block)
    monkeypatch.setattr(HistoryEngine, "_enter", checked_enter)
    V = random_values(tree.mesh.N, engine.m)
    engine.run_schedule(lambda n, hist: V[n - 1])
    assert built == list(range(leaf0, leaf0 + tree.Q ** tree.G, per))


@pytest.mark.parametrize("name", ["desk", "long1d"])
def test_runs_leave_the_cluster_list_unbuilt(name):
    """A run reads the tree's node arrays and makes a Cluster only per
    block, for its cover call, never the tree's list of them."""
    tree, eta = FAR_GROUP_TREES[name]()
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 3, eta, 1)
    V = random_values(tree.mesh.N, 1)
    engine.run_schedule(lambda n, hist: V[n - 1])
    assert engine.committed == tree.mesh.N and "nodes" not in vars(tree)


@pytest.mark.parametrize("name", ["desk", "long1d", "long1d-seed2", "ternary-perturbed",
                                  "two-speed"])
def test_store_windows_are_planned(name, monkeypatch):
    """Each store's buffer is allocated when the engine is built and never
    replaced.  At every leaf entry, each store's planned window, from the
    bisection of its running maximum of freeing leaves to its newest block,
    is the window the held flags give and lies in its buffer, and a store
    that reserves is told that window.  The buffers hold
    reserved_high_water values from the start: a quarter more than the
    widest window of each store, at most the whole generation."""
    tree, eta = FAR_GROUP_TREES[name]()
    engine = HistoryEngine(tree, WeightEngine(KernelParams(0.5), tree.mesh), 3, eta, 1)
    bufs = [store.buf for store in engine._stores]
    reserved = engine.counters.reserved_high_water
    G, leaf0 = tree.G, tree.first[tree.G]
    spans = [tree.Q ** (G - g) for g in range(G + 1)]
    reach = [reach_maximum(tree, eta, g) for g in range(G + 1)]
    enter, reserve = HistoryEngine._enter, history_engine._BlockStore.reserve
    told, widest = {}, [0] * (G + 1)

    def recorded_reserve(self, p, lo):
        told[next(g for g, store in enumerate(engine._stores) if store is self)] = (lo, p + 1)
        return reserve(self, p, lo)

    def checked_enter(self, leaf_id):
        leaf = leaf_cluster(self.tree, leaf_id)
        told.clear()
        plan = enter(self, leaf_id)
        k = leaf_id - leaf0
        assert set(told) == {g for g, span in enumerate(spans) if k % span == 0}, leaf
        for g, (span, store) in enumerate(zip(spans, self._stores)):
            held = np.flatnonzero(self._live[tree.first[g]:tree.first[g + 1]])
            window = (int(held[0]), int(held[-1]) + 1)
            assert (reach[g].searchsorted(k, "right"), k // span + 1) == window, (leaf, g)
            assert told.get(g, window) == window, (leaf, g)
            assert store.base <= window[0] and window[1] <= store.base + len(store.buf)
            widest[g] = max(widest[g], window[1] - window[0])
        return plan

    monkeypatch.setattr(history_engine._BlockStore, "reserve", recorded_reserve)
    monkeypatch.setattr(HistoryEngine, "_enter", checked_enter)
    V = random_values(tree.mesh.N, 1)
    engine.run_schedule(lambda n, hist: V[n - 1])
    assert all(store.buf is buf for store, buf in zip(engine._stores, bufs))
    rows = [engine.r] * G + [tree.leaf_size]
    assert reserved == engine.counters.reserved_high_water == sum(
        min(w + w // 4, tree.Q**g) * n for g, (w, n) in enumerate(zip(widest, rows)))
