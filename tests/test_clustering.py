import tracemalloc

import numpy as np
import pytest

from subdiff.clustering import Cluster, ClusterTree, max_depth
from subdiff.dg_stepper import RunConfig
from subdiff.spatial_fem import SpatialGrid
from subdiff.time_mesh import mesh_from_levels, uniform_mesh


def tree_of(N, Q, G, T=None):
    return ClusterTree(uniform_mesh(N, float(T if T is not None else N)), Q, G)


def children(tree, i):
    """Ids of node i's children, by the breadth-first numbering."""
    if tree.generation[i] == tree.G:
        return range(0)
    return range(tree.Q * i + 1, tree.Q * i + tree.Q + 1)


def chain(tree, i):
    """Ids of node i's ancestors, root first."""
    out = []
    while i > 0:
        i = (i - 1) // tree.Q
        out.append(i)
    return out[::-1]


def test_node_counts_and_structure():
    tree = tree_of(16, 2, 3)
    assert len(tree.nodes) == 2**4 - 1
    assert tree.nodes[0] == Cluster(1, 16)
    assert tree.leaf_size == 2
    leaves = list(tree.leaves())
    assert len(leaves) == 8
    assert leaves[0] == Cluster(1, 2)
    assert leaves[-1] == Cluster(15, 16)
    for i, c in enumerate(tree.nodes):
        assert (tree.lo[i], tree.hi[i]) == c
        assert tree.generation[i] == len(chain(tree, i))
        assert tree.position(i) == (c.lo - 1) // c.size
        kids = [tree.nodes[k] for k in children(tree, i)]
        if tree.is_leaf(c):
            assert kids == []
        else:
            assert len(kids) == 2
            assert kids[0].lo == c.lo and kids[-1].hi == c.hi
            assert kids[0].hi + 1 == kids[1].lo
            assert all(chain(tree, k)[-1] == i for k in children(tree, i))
    # every interval maps to the leaf containing it
    for n in range(1, 17):
        leaf = tree.leaf_of(n)
        assert leaf.lo <= n <= leaf.hi


def test_ternary_tree():
    tree = tree_of(27, 3, 3)
    assert len(tree.nodes) == (3**4 - 1) // 2
    assert tree.leaf_size == 1
    assert len(list(tree.leaves())) == 27
    # the children of node i are 3i + 1 .. 3i + 3, and they split its span
    for i in range(tree.first[3]):
        kids = [tree.nodes[k] for k in children(tree, i)]
        assert [k.size for k in kids] == [tree.nodes[i].size // 3] * 3
        assert (kids[0].lo, kids[-1].hi) == tree.nodes[i]
    assert [tree.nodes[i] for i in chain(tree, tree.leaf_id(14))] == [
        Cluster(1, 27), Cluster(10, 18), Cluster(13, 15)]


def test_divisibility_error_names_largest_depth():
    with pytest.raises(ValueError, match="largest admissible G is 7"):
        tree_of(16000, 2, 10)
    with pytest.raises(ValueError, match="not divisible"):
        tree_of(6, 2, 2)


def test_max_depth():
    assert max_depth(16, 2) == 4
    assert max_depth(16000, 2) == 7
    assert max_depth(2000, 10) == 3
    assert max_depth(7, 2) == 0
    # a branching factor below 2 has no depth: rejected, not looped on
    for Q in (1, 0):
        with pytest.raises(ValueError, match=f"Q={Q}"):
            max_depth(16, Q)
    with pytest.raises(ValueError, match="N=0"):
        max_depth(0, 2)


def test_geometry_queries():
    """C(3, 4) has length 2 and lies 2 before the leaf C(7, 8): admissible
    at eta = 1, the tie, and not below it."""
    tree = tree_of(8, 2, 2, T=8.0)
    i = tree.nodes.index(Cluster(3, 4))
    assert (tree.lo[i], tree.hi[i], tree.generation[i], tree.position(i)) == (3, 4, 2, 1)
    assert tree.midpoint([i]).tolist() == [3.0]
    assert tree.is_admissible(Cluster(3, 4), Cluster(7, 8), 1.0)
    assert not tree.is_admissible(Cluster(3, 4), Cluster(7, 8), 0.99)
    assert not tree.is_admissible(Cluster(5, 6), Cluster(7, 8), 1.0)  # adjacent
    assert not tree.is_admissible(Cluster(5, 8), Cluster(7, 8), 1.0)  # not in the history


def test_admissibility_and_cover_example():
    """Depth-3 binary tree over 8 intervals, eta = 1: the cover of the
    last leaf is {C(1,2), C(3,4), C(5,5), C(6,6)} far plus {C(7,7)} near."""
    tree = tree_of(8, 2, 3)
    leaf = tree.leaf_of(8)
    assert leaf == Cluster(8, 8)
    cover = tree.minimal_cover(leaf, 1.0)
    assert cover.far == (Cluster(1, 2), Cluster(3, 4), Cluster(5, 5), Cluster(6, 6))
    assert cover.near == (Cluster(7, 7),)
    assert cover.members() == (Cluster(1, 2), Cluster(3, 4), Cluster(5, 5),
                               Cluster(6, 6), Cluster(7, 7))


def test_vanishing_eta_gives_all_near_cover():
    tree = tree_of(16, 2, 4)
    for leaf in tree.leaves():
        cover = tree.minimal_cover(leaf, 1e-12)
        assert cover.far == ()
        got = [j for c in cover.near for j in range(c.lo, c.hi + 1)]
        assert got == list(range(1, leaf.lo))


def covers_history(members, leaf):
    """Partition check: members tile 1..leaf.lo-1 without gaps or overlap."""
    intervals = sorted(members)
    want = 1
    for c in intervals:
        if c.lo != want:
            return False
        want = c.hi + 1
    return want == leaf.lo


def enumerate_covers(tree, leaf, eta):
    """All tilings of the leaf's history by admissible-or-leaf tree nodes."""
    usable = [c for c in tree.nodes
              if c.hi < leaf.lo and (tree.is_admissible(c, leaf, eta) or tree.is_leaf(c))]
    by_lo = {}
    for c in usable:
        by_lo.setdefault(c.lo, []).append(c)

    out = []

    def extend(start, acc):
        if start == leaf.lo:
            out.append(tuple(acc))
            return
        for c in by_lo.get(start, []):
            acc.append(c)
            extend(c.hi + 1, acc)
            acc.pop()

    extend(1, [])
    return out


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("N,G", [(8, 3), (16, 4), (16, 2), (12, 2)])
def test_cover_minimality_and_uniqueness_exhaustive(N, G, eta):
    tree = tree_of(N, 2, G)
    for leaf in tree.leaves():
        cover = tree.minimal_cover(leaf, eta)
        members = cover.members()
        assert covers_history(members, leaf)
        candidates = enumerate_covers(tree, leaf, eta)
        assert members in candidates
        best = min(len(c) for c in candidates) if candidates else 0
        assert len(members) == best
        # uniqueness of the minimum
        assert sum(1 for c in candidates if len(c) == best) <= 1


def test_update_subtree_is_root_first_ancestor_chain():
    """The non-leaf clusters whose span holds interval n are the ancestor
    chain of n's leaf, root first."""
    tree = tree_of(16, 2, 3)
    ancestors = [tree.nodes[i] for i in chain(tree, tree.leaf_id(11))]
    assert ancestors == [Cluster(1, 16), Cluster(9, 16), Cluster(9, 12)]
    assert all(not tree.is_leaf(c) for c in ancestors)


def lifetime(tree, eta, c):
    """Contiguous step range [n_min, n_max] during which c belongs to the
    cover of the current leaf, or None if it never does."""
    steps = [n for leaf in tree.leaves() if c in tree.minimal_cover(leaf, eta).members()
             for n in range(leaf.lo, leaf.hi + 1)]
    if not steps:
        return None
    assert steps == list(range(steps[0], steps[-1] + 1)), f"non-contiguous for {c}: {steps}"
    return steps[0], steps[-1]


def test_lifetime_contiguity():
    tree = tree_of(16, 2, 3)
    assert lifetime(tree, 1.0, Cluster(1, 4)) == (9, 16)
    assert lifetime(tree, 1.0, Cluster(1, 2)) == (3, 8)
    # a right-edge cluster never belongs to any history cover
    assert lifetime(tree, 1.0, Cluster(15, 16)) is None


def admissible(tree, c, h, eta):
    """Whether cluster c lies in the history (0, t_h] with Len(C) <= eta *
    Dist(C, t_h), in interval counts on uniform meshes and in time
    otherwise; h may be an array of history ends."""
    lv = tree.mesh.levels
    if tree.mesh.uniform:
        fits = c.size <= eta * (h - c.hi)
    else:
        fits = float(lv[c.hi] - lv[c.lo - 1]) <= eta * (lv[h] - float(lv[c.hi]))
    return (c.hi <= h) & fits


def divide(tree, i, leaf, eta, near, far):
    """The recursive cover rule, the oracle for the mask.  Accept node i
    into far when it is admissible, or into near when it is a leaf lying
    fully in the target's history; otherwise recurse into the children.
    Nodes starting right of the target's history are dropped.
    Admissibility is evaluated here on its own, in interval counts on
    uniform meshes and in time otherwise."""
    c = tree.nodes[i]
    if c.lo > leaf.lo:
        return
    if admissible(tree, c, leaf.lo - 1, eta):
        far.append(i)
    elif c.hi <= leaf.lo - 1 and tree.generation[i] == tree.G:
        near.append(i)
    else:
        for k in children(tree, i):
            divide(tree, k, leaf, eta, near, far)


def perturbed_levels(N, seed):
    """N steps of length 6/N perturbed by up to +-30%, ending at T = 6, as
    the long1d-fast benchmark builds them."""
    steps = 1.0 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, N)
    levels = np.concatenate([[0.0], np.cumsum(steps)])
    return levels * (6.0 / levels[-1])


def has_far_members(tree, eta):
    """Whether some leaf's cover holds a far member: a node admissible
    before it is freed."""
    _, far, free = tree.lifetimes(eta)
    return bool((far < free).any())


def auto_tree(levels, nu, Q):
    """The tree, with automatic (r, eta) and depth, that fast_run builds;
    it has far members, so a test over it exercises the expansion."""
    config = RunConfig(nu=nu, mesh=mesh_from_levels(levels), grid=SpatialGrid(dim=1, m=8), Q=Q)
    tree, eta = config.tree(), config.resolved_params()[1]
    assert has_far_members(tree, eta)
    return tree, eta


COVER_TREES = {
    "desk": lambda: (ClusterTree(uniform_mesh(2000, 6.0), 10, 3), 0.4),
    "binary-G10": lambda: (ClusterTree(uniform_mesh(4096, 6.0), 2, 10), 0.3),
    "long1d": lambda: auto_tree(perturbed_levels(4096, seed=1), 0.3, 2),
    "long1d-seed2": lambda: auto_tree(perturbed_levels(4096, seed=2), 0.3, 2),
    "ternary-perturbed": lambda: auto_tree(perturbed_levels(729, seed=2), 0.5, 3),
}


def assert_covers_match_recursive_rule(tree, eta):
    """For every leaf, the mask gives the near and far node ids of the
    recursive rule, in id order, with Cluster views of the same ids.
    Returns whether any cover has a far member."""
    far_seen = False
    for leaf in tree.leaves():
        near, far = [], []
        divide(tree, 0, leaf, eta, near, far)
        cover = tree.minimal_cover(leaf, eta)
        assert cover.near_ids == tuple(sorted(near))
        assert cover.far_ids == tuple(sorted(far))
        assert cover.near == tuple(tree.nodes[i] for i in cover.near_ids)
        assert cover.far == tuple(tree.nodes[i] for i in cover.far_ids)
        far_seen |= bool(far)
    return far_seen


@pytest.mark.parametrize("name", COVER_TREES)
def test_cover_matches_recursive_rule(name):
    assert_covers_match_recursive_rule(*COVER_TREES[name]())


@pytest.mark.parametrize("eta", [1e-300, 0.25, 0.4, 0.688, 1.0])
@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("N,Q,G", [(1024, 2, 8), (729, 3, 5)])
def test_cover_matches_recursive_rule_over_eta(N, Q, G, perturbed, eta):
    """The same over the admissibility parameter, from the vanishing limit
    (no far member) to 1, on uniform and +-30% meshes."""
    mesh = mesh_from_levels(perturbed_levels(N, seed=3)) if perturbed else uniform_mesh(N, 6.0)
    assert assert_covers_match_recursive_rule(ClusterTree(mesh, Q, G), eta) == (eta > 1e-300)


def assert_lifetimes_match_recursive_rule(tree, eta):
    """Each node is in the recursive rule's cover of exactly the leaves of
    its lifetime, from its first index up to, not including, its third,
    and far in those from its second on.  The second is the first leaf
    for which the node is admissible by hand, and the third its parent's
    (the root's is the leaf count)."""
    enter, far, free = tree.lifetimes(eta)
    leaves = list(tree.leaves())
    held, as_far = [[] for _ in tree.nodes], [[] for _ in tree.nodes]
    for k, leaf in enumerate(leaves):
        near_ids, far_ids = [], []
        divide(tree, 0, leaf, eta, near_ids, far_ids)
        for i in near_ids + far_ids:
            held[i].append(k)
        for i in far_ids:
            as_far[i].append(k)
    h = np.array([leaf.lo - 1 for leaf in leaves])
    first_far = [int(np.argmax(np.append(admissible(tree, c, h, eta), True))) for c in tree.nodes]
    for i, c in enumerate(tree.nodes):
        assert far[i] == first_far[i], c
        assert free[i] == (first_far[(i - 1) // tree.Q] if i else len(leaves)), c
        assert held[i] == list(range(enter[i], free[i])), c
        assert as_far[i] == list(range(far[i], free[i])), c


@pytest.mark.parametrize("name", COVER_TREES)
def test_lifetimes_match_recursive_rule(name):
    assert_lifetimes_match_recursive_rule(*COVER_TREES[name]())


@pytest.mark.parametrize("eta", [1e-300, 0.25, 0.4, 0.688, 1.0])
@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("N,Q,G", [(1024, 2, 8), (729, 3, 5)])
def test_lifetimes_match_recursive_rule_over_eta(N, Q, G, perturbed, eta):
    mesh = mesh_from_levels(perturbed_levels(N, seed=3)) if perturbed else uniform_mesh(N, 6.0)
    assert_lifetimes_match_recursive_rule(ClusterTree(mesh, Q, G), eta)


def test_lifetimes_admit_an_exact_tie():
    """On the desk tree at eta = 0.4, C(1, 20) is 20 steps long and lies 50
    steps before the leaf C(71, 72), and 20 <= 0.4 * 50 holds exactly in
    floating point: the tie is admissible, so leaf 35 is the first that
    holds C(1, 20) as a far member.  (A two-step leaf would tie at a gap
    of 5, but desk leaves lie an even number of steps apart.)  The
    lifetimes are kept for the last eta asked about."""
    tree, eta = COVER_TREES["desk"]()
    assert 0.4 * 50 == 20.0 and eta == 0.4
    i = tree.nodes.index(Cluster(1, 20))
    enter, far, free = tree.lifetimes(eta)
    assert (enter[i], far[i], tree.nodes[tree.first[tree.G] + 35]) == (35, 35, Cluster(71, 72))
    assert i in tree.minimal_cover(Cluster(71, 72), eta).far_ids
    assert i not in tree.minimal_cover(Cluster(69, 70), eta).far_ids
    assert tree.lifetimes(eta)[1] is far
    assert tree.lifetimes(0.39)[1][i] == 36 and tree.lifetimes(eta)[1] is not far


def test_dump_renders_the_tree():
    """One line per node in id order, indented by generation, and no cover."""
    tree = tree_of(8, 2, 3)
    lines = tree.dump().splitlines()
    assert len(lines) == len(tree.nodes)
    assert lines[:3] == ["gen0 C(1,8)", "  gen1 C(1,4)", "  gen1 C(5,8)"]
    assert lines[-1] == "      gen3 C(8,8)"
    assert "[" not in tree.dump()


def test_tree_is_its_node_arrays():
    """Building a tree makes no Python object per node: the N = 131,072,
    Q = 2, G = 15 tree (65,535 nodes) peaks at 3.1 MB under tracemalloc,
    its lo, hi and generation arrays, the mesh coordinate and their
    temporaries, against 13.7 MB with a Cluster per node."""
    mesh = uniform_mesh(131072, 1.0)
    tracemalloc.start()
    try:
        tree = ClusterTree(mesh, 2, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20 and "nodes" not in vars(tree)


def test_nodes_are_made_once_from_the_arrays():
    """The list of Clusters is made on its first access and kept, since
    tests index it in loops, and holds the Clusters of lo and hi by id."""
    tree = tree_of(27, 3, 3)
    assert "nodes" not in vars(tree)
    assert tree.nodes is tree.nodes
    assert tree.nodes == [Cluster(lo, hi) for lo, hi in zip(tree.lo.tolist(), tree.hi.tolist())]
    assert tree.clusters([13, 0]) == (tree.nodes[13], tree.nodes[0]) and tree.clusters(()) == ()
