"""Cluster trees over time intervals, admissibility and minimal covers.

A cluster C(j, n) is the run of consecutive intervals I_j .. I_n.  The
tree is rooted at C(1, N); every non-leaf splits into Q equal children
down to depth G (N must be divisible by Q^G).  For a target leaf L, the
history (0, t_{j-1}] is partitioned into the unique minimal cover of
tree nodes that are either admissible (length at most eta times the gap
to L, eligible for the rank-r expansion) or leaves (summed exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .time_mesh import TimeMesh


class Cluster(NamedTuple):
    """Consecutive interval run C(lo, hi), 1-based inclusive."""

    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class Cover:
    """Partition of a leaf's history into near (exact) and far (low-rank) parts."""

    leaf: Cluster
    near: tuple[Cluster, ...]
    far: tuple[Cluster, ...]

    def members(self) -> tuple[Cluster, ...]:
        return tuple(sorted(self.near + self.far))


class ClusterTree:
    """Uniform Q-ary cluster tree of depth G over a time mesh."""

    def __init__(self, mesh: TimeMesh, Q: int, G: int):
        if Q < 2:
            raise ValueError("branching factor Q must be at least 2")
        if G < 1:
            raise ValueError("depth G must be at least 1")
        N = mesh.N
        if N % Q**G != 0:
            raise ValueError(
                f"N={N} is not divisible by Q^G={Q**G}; "
                f"largest admissible G is {max_depth(N, Q)}"
            )
        self.mesh = mesh
        self.Q = Q
        self.G = G
        self.leaf_size = N // Q**G

        # Nodes in breadth-first order; generation ell holds Q^ell nodes.
        self.nodes: list[Cluster] = []
        self.generation: list[int] = []
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        self._index: dict[Cluster, int] = {}
        for ell in range(G + 1):
            count = Q**ell
            width = N // count
            for i in range(count):
                c = Cluster(i * width + 1, (i + 1) * width)
                idx = len(self.nodes)
                self.nodes.append(c)
                self.generation.append(ell)
                self._index[c] = idx
                self.parent.append(-1 if ell == 0 else self._parent_id(c, ell))
                self.children.append([])
        for idx, p in enumerate(self.parent):
            if p >= 0:
                self.children[p].append(idx)
        self._first_leaf = len(self.nodes) - Q**G

        gmin = min(self.len_time(c) for c in self.leaves())
        gmax = max(self.len_time(c) for c in self.leaves())
        scale = mesh.T * Q ** (-G)
        self.lam = gmin / scale
        self.Lam = gmax / scale

    def _parent_id(self, c: Cluster, ell: int) -> int:
        width = self.mesh.N // self.Q**ell
        pwidth = width * self.Q
        pi = (c.lo - 1) // pwidth
        # parent ids precede this generation in BFS order
        offset = (self.Q ** (ell - 1) - 1) // (self.Q - 1)
        return offset + pi

    # -- structure queries ------------------------------------------------

    def node_id(self, c: Cluster) -> int:
        return self._index[c]

    @property
    def root(self) -> Cluster:
        return self.nodes[0]

    def is_leaf(self, c: Cluster) -> bool:
        return self.generation[self._index[c]] == self.G

    def leaves(self) -> Iterator[Cluster]:
        return iter(self.nodes[self._first_leaf:])

    def children_of(self, c: Cluster) -> list[Cluster]:
        return [self.nodes[i] for i in self.children[self._index[c]]]

    def leaf_of(self, n: int) -> Cluster:
        """The unique leaf containing interval n."""
        self.mesh._check_index(n)
        i = (n - 1) // self.leaf_size
        return self.nodes[self._first_leaf + i]

    def ancestors(self, c: Cluster) -> list[Cluster]:
        out = []
        idx = self.parent[self._index[c]]
        while idx >= 0:
            out.append(self.nodes[idx])
            idx = self.parent[idx]
        return out

    def update_subtree(self, n: int) -> list[Cluster]:
        """Non-leaf clusters whose span intersects interval n: the ancestor
        chain of the containing leaf, root first."""
        leaf = self.leaf_of(n)
        chain = self.ancestors(leaf)
        chain.reverse()
        return chain

    # -- geometry ---------------------------------------------------------

    def len_time(self, c: Cluster) -> float:
        lv = self.mesh.levels
        return float(lv[c.hi] - lv[c.lo - 1])

    def dist_time(self, c1: Cluster, c2: Cluster) -> float:
        if c1.lo > c2.hi or c2.lo > c1.hi:
            left, right = (c1, c2) if c1.hi < c2.lo else (c2, c1)
            lv = self.mesh.levels
            return float(lv[right.lo - 1] - lv[left.hi])
        return 0.0

    def history(self, c: Cluster) -> tuple[float, float]:
        """The half-open interval (0, t_{lo-1}] preceding the cluster."""
        return (0.0, float(self.mesh.levels[c.lo - 1]))

    def is_admissible(self, c: Cluster, leaf: Cluster, eta: float) -> bool:
        """Containment in the leaf's history plus Len(C) <= eta * Dist(C, L).

        On uniform meshes both sides are evaluated in integer interval
        counts, so ties at the threshold are exact.
        """
        if c.hi > leaf.lo - 1:
            return False
        if self.mesh.uniform:
            return c.size <= eta * (leaf.lo - 1 - c.hi)
        return self.len_time(c) <= eta * self.dist_time(c, leaf)

    # -- covers -----------------------------------------------------------

    def divide(self, c: Cluster, near: list[Cluster], far: list[Cluster], leaf: Cluster,
               eta: float) -> None:
        """Recursive cover construction for one node.

        Accept c into far when it is admissible, or into near when it is a
        leaf lying fully in the target's history; otherwise recurse into the
        children.  Nodes starting right of the target's history are dropped.
        """
        if c.lo > leaf.lo:  # a > c guard: entirely outside History(L)
            return
        left_of = c.hi <= leaf.lo - 1
        if left_of and self.is_admissible(c, leaf, eta):
            far.append(c)
        elif left_of and self.is_leaf(c):
            near.append(c)
        else:
            for child in self.children_of(c):
                self.divide(child, near, far, leaf, eta)

    def minimal_cover(self, leaf: Cluster, eta: float) -> Cover:
        """The unique minimal admissible cover of History(leaf), split into
        near (non-admissible leaves) and far (admissible) parts."""
        if not self.is_leaf(leaf):
            raise ValueError(f"{leaf} is not a leaf of this tree")
        near: list[Cluster] = []
        far: list[Cluster] = []
        self.divide(self.root, near, far, leaf, eta)
        return Cover(leaf=leaf, near=tuple(sorted(near)), far=tuple(sorted(far)))

    def lifetime(self, eta: float, c: Cluster) -> tuple[int, int] | None:
        """Contiguous step range [n_min, n_max] during which c belongs to the
        cover of the current leaf, or None if it never does."""
        steps = [
            n
            for leaf in self.leaves()
            for n in range(leaf.lo, leaf.hi + 1)
            if c in self.minimal_cover(leaf, eta).members()
        ]
        if not steps:
            return None
        lo, hi = steps[0], steps[-1]
        if steps != list(range(lo, hi + 1)):
            raise AssertionError(f"non-contiguous cover membership for {c}: {steps}")
        return lo, hi

    # -- debug output -------------------------------------------------------

    def dump(self, cover: Cover | None = None) -> str:
        """Indented one-node-per-line rendering, optionally tagging a cover."""
        tags: dict[Cluster, str] = {}
        if cover is not None:
            tags.update({c: "NEAR" for c in cover.near})
            tags.update({c: "FAR" for c in cover.far})
            tags[cover.leaf] = "LEAF*"
        lines = []
        for idx, c in enumerate(self.nodes):
            ell = self.generation[idx]
            tag = f"  [{tags[c]}]" if c in tags else ""
            lines.append(f"{'  ' * ell}gen{ell} C({c.lo},{c.hi}){tag}")
        return "\n".join(lines) + "\n"


def max_depth(N: int, Q: int) -> int:
    """Largest G >= 0 with N divisible by Q^G."""
    g = 0
    while N % Q == 0:
        N //= Q
        g += 1
    return g


def auto_depth(N: int, Q: int) -> int:
    """Default tree depth: round(log_Q N) - 2, lowered to the nearest depth
    dividing N, at least 1."""
    import math

    target = max(1, round(math.log(N, Q)) - 2)
    g = min(target, max_depth(N, Q))
    if g < 1:
        raise ValueError(f"N={N} admits no uniform tree with Q={Q}")
    return g
