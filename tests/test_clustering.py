import itertools

import pytest

from subdiff.clustering import Cluster, ClusterTree, auto_depth, max_depth
from subdiff.time_mesh import uniform_mesh


def tree_of(N, Q, G, T=None):
    return ClusterTree(uniform_mesh(N, float(T if T is not None else N)), Q, G)


def test_node_counts_and_structure():
    tree = tree_of(16, 2, 3)
    assert len(tree.nodes) == 2**4 - 1
    assert tree.root == Cluster(1, 16)
    assert tree.leaf_size == 2
    leaves = list(tree.leaves())
    assert len(leaves) == 8
    assert leaves[0] == Cluster(1, 2)
    assert leaves[-1] == Cluster(15, 16)
    for c in tree.nodes:
        kids = tree.children_of(c)
        if tree.is_leaf(c):
            assert kids == []
        else:
            assert len(kids) == 2
            assert kids[0].lo == c.lo and kids[-1].hi == c.hi
            assert kids[0].hi + 1 == kids[1].lo
    # every interval maps to the leaf containing it
    for n in range(1, 17):
        leaf = tree.leaf_of(n)
        assert leaf.lo <= n <= leaf.hi


def test_ternary_tree():
    tree = tree_of(27, 3, 3)
    assert len(tree.nodes) == (3**4 - 1) // 2
    assert tree.leaf_size == 1
    assert len(list(tree.leaves())) == 27


def test_divisibility_error_names_largest_depth():
    with pytest.raises(ValueError, match="largest admissible G is 7"):
        tree_of(16000, 2, 10)
    with pytest.raises(ValueError, match="not divisible"):
        tree_of(6, 2, 2)


def test_max_depth_and_auto_depth():
    assert max_depth(16, 2) == 4
    assert max_depth(16000, 2) == 7
    assert max_depth(2000, 10) == 3
    assert max_depth(7, 2) == 0
    assert auto_depth(256, 2) == 6  # round(log2 256) - 2
    assert auto_depth(8, 2) == 1
    with pytest.raises(ValueError):
        auto_depth(7, 2)


def test_geometry_queries():
    tree = tree_of(8, 2, 2, T=8.0)
    c = Cluster(3, 4)
    assert tree.len_time(c) == pytest.approx(2.0)
    assert tree.dist_time(c, Cluster(7, 7)) == pytest.approx(2.0)
    assert tree.dist_time(c, Cluster(4, 5)) == 0.0
    assert tree.history(Cluster(7, 8)) == (0.0, 6.0)


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
    tree = tree_of(16, 2, 3)
    chain = tree.update_subtree(11)
    assert chain == [Cluster(1, 16), Cluster(9, 16), Cluster(9, 12)]
    assert all(not tree.is_leaf(c) for c in chain)


def test_lifetime_contiguity():
    tree = tree_of(16, 2, 3)
    assert tree.lifetime(1.0, Cluster(1, 4)) == (9, 16)
    assert tree.lifetime(1.0, Cluster(1, 2)) == (3, 8)
    # a right-edge cluster never belongs to any history cover
    assert tree.lifetime(1.0, Cluster(15, 16)) is None


def test_dump_marks_cover_roles():
    tree = tree_of(8, 2, 3)
    cover = tree.minimal_cover(tree.leaf_of(8), 1.0)
    text = tree.dump(cover)
    assert "gen0 C(1,8)" in text
    assert "C(1,2)  [FAR]" in text
    assert "C(7,7)  [NEAR]" in text
    assert "C(8,8)  [LEAF*]" in text
