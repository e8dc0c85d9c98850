"""Cluster trees over time intervals, admissibility and minimal covers.

A cluster C(j, n) is the run of consecutive intervals I_j .. I_n.  The
tree is rooted at C(1, N); every non-leaf splits into Q equal children
down to depth G (N must be divisible by Q^G).  For a target leaf L, the
history (0, t_{j-1}] is partitioned into the unique minimal cover of
tree nodes that are either admissible (length at most eta times the gap
to L, eligible for the rank-r expansion) or leaves (summed exactly).

The tree is stored as node arrays `lo`, `hi` and `generation` in
breadth-first id order, and this module alone knows that numbering: the
children of node i are Q i + 1 .. Q i + Q, so parent, ancestor-chain
and position queries are id arithmetic.  A child is never longer than its
parent nor nearer to the leaf, so admissibility is monotone from parent to
child, and a node is in the cover exactly when it lies in the history, is
admissible or a leaf, and its parent is not admissible: one boolean mask
over the node arrays per leaf.  The nodes whose parent is admissible are
exactly those under a far member, and admissibility only grows as the
leaf moves right, so neither this leaf nor any later one needs their
values: `parent_admissible` answers that one query, for the cover's
members and for the history engine's frees alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

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
    """Partition of a leaf's history into near (exact) and far (low-rank)
    parts, as node ids by generation, then time; `near` and `far` give
    their Clusters when read."""

    leaf: Cluster
    near_ids: tuple[int, ...]
    far_ids: tuple[int, ...]
    nodes: list[Cluster] = field(compare=False, repr=False)  # the tree's Clusters by id

    @property
    def near(self) -> tuple[Cluster, ...]:
        return tuple(self.nodes[i] for i in self.near_ids)

    @property
    def far(self) -> tuple[Cluster, ...]:
        return tuple(self.nodes[i] for i in self.far_ids)

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
        # the first id of each generation, then the node count
        self.first = [(Q**g - 1) // (Q - 1) for g in range(G + 2)]

        self.generation = np.repeat(np.arange(G + 1), [Q**g for g in range(G + 1)])
        width = N // Q**self.generation
        self.lo = (np.arange(self.first[-1]) - np.array(self.first)[self.generation]) * width + 1
        self.hi = self.lo + width - 1
        self.nodes = list(map(Cluster, self.lo.tolist(), self.hi.tolist()))
        # the mesh coordinate of each level: interval counts on uniform
        # meshes, so admissibility ties at the threshold are exact; times otherwise
        self._x = np.arange(N + 1.0) if mesh.uniform else mesh.levels
        self._length, self._end = self._extent(self.lo, self.hi)
        # the extent of each node's parent; the root stands in for its own,
        # which ends at step N, so it is never admissible
        parent = np.maximum(np.arange(self.first[-1]) - 1, 0) // Q
        self._parent_length, self._parent_end = self._length[parent], self._end[parent]
        lv = mesh.levels
        self._midpoint = 0.5 * (lv[self.lo - 1] + lv[self.hi])
        self._first_of = np.array(self.first)[self.generation]  # per node: its generation's first id

    # -- structure queries ------------------------------------------------

    def is_leaf(self, c: Cluster) -> bool:
        return 1 <= c.lo <= self.mesh.N and self.leaf_of(c.lo) == c

    def leaves(self) -> Iterator[Cluster]:
        return iter(self.nodes[self.first[self.G]:])

    def leaf_id(self, n: int) -> int:
        """Id of the unique leaf containing interval n."""
        self.mesh._check_index(n)
        return self.first[self.G] + (n - 1) // self.leaf_size

    def leaf_of(self, n: int) -> Cluster:
        """The unique leaf containing interval n."""
        return self.nodes[self.leaf_id(n)]

    def chain(self, i: int) -> list[int]:
        """Ids of node i's ancestors, root first."""
        out = []
        while i > 0:
            i = (i - 1) // self.Q
            out.append(i)
        return out[::-1]

    def position(self, i):
        """Place of node i, or of each node of an id array, in its
        generation's time order."""
        return i - self._first_of[i]

    def midpoint(self, ids) -> np.ndarray:
        """Midpoints of the nodes' time spans."""
        return self._midpoint[ids]

    # -- admissibility and covers -------------------------------------------

    def _extent(self, lo, hi):
        """Length and right end of clusters C(lo, hi) in the mesh coordinate."""
        return self._x[hi] - self._x[lo - 1], self._x[hi]

    def _admissible(self, length, end, h: int, eta: float):
        """Whether clusters of the given extent lie in the history (0, t_h]
        with Len(C) <= eta * Dist(C, t_h); elementwise on arrays."""
        gap = self._x[h] - end
        return (gap >= 0) & (length <= eta * gap)

    def is_admissible(self, c: Cluster, leaf: Cluster, eta: float) -> bool:
        """Containment in the leaf's history plus Len(C) <= eta * Dist(C, L)."""
        return bool(self._admissible(*self._extent(c.lo, c.hi), leaf.lo - 1, eta))

    def minimal_cover(self, leaf: Cluster, eta: float) -> Cover:
        """The unique minimal admissible cover of History(leaf), split into
        near (non-admissible leaves) and far (admissible) parts."""
        if not self.is_leaf(leaf):
            raise ValueError(f"{leaf} is not a leaf of this tree")
        h, leaf0 = leaf.lo - 1, self.first[self.G]
        adm = self._admissible(self._length, self._end, h, eta)
        member = adm.copy()
        member[leaf0:] |= self.hi[leaf0:] <= h
        ids = np.flatnonzero(member & ~self.parent_admissible(np.s_[:], h, eta))
        far = adm[ids]
        near_ids, far_ids = tuple(ids[~far].tolist()), tuple(ids[far].tolist())
        return Cover(leaf=leaf, near_ids=near_ids, far_ids=far_ids, nodes=self.nodes)

    def parent_admissible(self, ids, h: int, eta: float) -> np.ndarray:
        """Whether the parent of each node in ids, an id array or a slice
        of the ids, is admissible for the history (0, t_h]: true exactly
        for the nodes under a far member of the cover of the leaf starting
        at step h + 1, and still true for every later leaf.  False for
        the root."""
        return self._admissible(self._parent_length[ids], self._parent_end[ids], h, eta)

    # -- debug output -------------------------------------------------------

    def dump(self) -> str:
        """Indented one-node-per-line rendering of the tree."""
        return "".join(f"{'  ' * g}gen{g} C({c.lo},{c.hi})\n"
                       for c, g in zip(self.nodes, self.generation.tolist()))


def max_depth(N: int, Q: int) -> int:
    """Largest G >= 0 with N divisible by Q^G."""
    if Q < 2:
        raise ValueError(f"branching factor Q={Q} must be at least 2")
    if N < 1:
        raise ValueError(f"step count N={N} must be positive")
    g = 0
    while N % Q == 0:
        N //= Q
        g += 1
    return g


def auto_depth(N: int, Q: int) -> int:
    """Default tree depth: round(log_Q N) - 2, lowered to the nearest depth
    dividing N, at least 1."""
    deepest = max_depth(N, Q)  # rejects Q < 2 before the logarithm does
    g = min(max(1, round(math.log(N, Q)) - 2), deepest)
    if g < 1:
        raise ValueError(f"N={N} admits no uniform tree with Q={Q}")
    return g
