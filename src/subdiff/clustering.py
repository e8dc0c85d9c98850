"""Cluster trees over time intervals, admissibility and minimal covers.

A cluster C(j, n) is the run of consecutive intervals I_j .. I_n.  The
tree is rooted at C(1, N); every non-leaf splits into Q equal children
down to depth G (N must be divisible by Q^G).  For a target leaf L, the
history (0, t_{j-1}] is partitioned into the unique minimal cover of
tree nodes that are either admissible (length at most eta times the gap
to L, eligible for the rank-r expansion) or leaves (summed exactly).

The tree is its node arrays `lo`, `hi` and `generation` in breadth-first
id order, and this module alone knows that numbering: the children of
node i are Q i + 1 .. Q i + Q, so parent, ancestor-chain and position
queries are id arithmetic.  A Cluster is made only when asked for: one
by leaf_of, those of a cover by its near and far, and the list of all of
them, `nodes`, once, on its first access.

A child is never longer than its parent nor nearer to the leaf, so
admissibility is monotone from parent to child, and it only grows as the
leaf moves right.  So each node has a lifetime: it enters the covers at
the first leaf for which it is admissible (a leaf node: at the leaf
after it, summed exactly until it is admissible) and leaves them at the
first leaf for which its parent is, never to return; no later leaf needs
its values then.  `lifetimes` finds these leaf indices for every node at
once, by bisection over the leaves, once per eta, and a leaf's cover is
the nodes whose lifetime holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    parts, as node ids by generation, then time; `near` and `far` make
    their Clusters from the tree's arrays when read."""

    near_ids: tuple[int, ...]
    far_ids: tuple[int, ...]
    tree: ClusterTree = field(compare=False, repr=False)

    @property
    def near(self) -> tuple[Cluster, ...]:
        return self.tree.clusters(self.near_ids)

    @property
    def far(self) -> tuple[Cluster, ...]:
        return self.tree.clusters(self.far_ids)

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
        # the mesh coordinate of each level: interval counts on uniform
        # meshes, so admissibility ties at the threshold are exact; times otherwise
        self._x = np.arange(N + 1.0) if mesh.uniform else mesh.levels
        self._lifetimes = None  # (eta, its lifetimes), for the last eta asked about

    # -- structure queries ------------------------------------------------

    @cached_property
    def nodes(self) -> list[Cluster]:
        """The Clusters by id, made on the first access (by leaves, or a
        test); no fast run asks."""
        return list(map(Cluster, self.lo.tolist(), self.hi.tolist()))

    def clusters(self, ids) -> tuple[Cluster, ...]:
        """The Clusters of the node ids, made from lo and hi."""
        return tuple(map(Cluster, self.lo[list(ids)].tolist(), self.hi[list(ids)].tolist()))

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
        i = self.leaf_id(n)
        return Cluster(int(self.lo[i]), int(self.hi[i]))

    def position(self, i):
        """Place of node i, or of each node of an id array, in its
        generation's time order."""
        return i - np.asarray(self.first)[self.generation[i]]

    def midpoint(self, ids) -> np.ndarray:
        """Midpoints of the nodes' time spans."""
        return 0.5 * (self.mesh.levels[self.lo[ids] - 1] + self.mesh.levels[self.hi[ids]])

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

    def lifetimes(self, eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per node id, three indices of leaves in time order (leaf k has
        the history (0, t_h], h = k * leaf_size), or the leaf count for
        none: the first leaf whose cover holds the node, the first for
        which it is admissible, and the first for which its parent is,
        which frees it.  Admissibility is monotone in h, so a bisection
        over the leaves finds them with O(log leaves) evaluations over all
        nodes.  Read-only, and kept for the last eta asked about."""
        if self._lifetimes is None or self._lifetimes[0] != eta:
            L, count = self.Q ** self.G, self.first[-1]
            length, end = self._extent(self.lo, self.hi)
            lo, hi = np.zeros(count, dtype=np.intp), np.full(count, L)
            for _ in range(L.bit_length()):  # the answer lies in [lo, hi]
                mid = (lo + hi) // 2
                adm = self._admissible(length, end, mid * self.leaf_size, eta)
                hi, lo = np.where(adm, mid, hi), np.where(adm, lo, np.minimum(mid + 1, hi))
            enter = hi.copy()  # a leaf is summed exactly from the leaf after it on
            enter[self.first[self.G]:] = np.arange(1, L + 1)
            # the root is never admissible, and stands in for its own parent
            free = hi[np.maximum(np.arange(count) - 1, 0) // self.Q]
            for x in (enter, hi, free):
                x.flags.writeable = False
            self._lifetimes = eta, (enter, hi, free)
        return self._lifetimes[1]

    def minimal_cover(self, leaf: Cluster, eta: float) -> Cover:
        """The unique minimal admissible cover of History(leaf), split into
        near (non-admissible leaves) and far (admissible) parts: the nodes
        whose lifetime holds the leaf, O(nodes) per call.  The history
        engine calls it once per block; the CLI tree dump, criterion 3,
        stability_diagnostic and bench/worker.py (via cover_for) per leaf."""
        if not self.is_leaf(leaf):
            raise ValueError(f"{leaf} is not a leaf of this tree")
        k = (leaf.lo - 1) // self.leaf_size
        enter, far, free = self.lifetimes(eta)
        ids = ((enter <= k) & (k < free)).nonzero()[0]
        is_far = far[ids] <= k
        near_ids, far_ids = tuple(ids[~is_far].tolist()), tuple(ids[is_far].tolist())
        return Cover(near_ids, far_ids, self)

    # -- debug output -------------------------------------------------------

    def dump(self) -> str:
        """Indented one-node-per-line rendering of the tree."""
        return "".join(f"{'  ' * g}gen{g} C({lo},{hi})\n" for lo, hi, g in
                       zip(self.lo.tolist(), self.hi.tolist(), self.generation.tolist()))


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
    dividing N, at least 1.  If N is not divisible by Q, the error names
    the nearest step count, the larger on a tie, with a tree of the
    depth asked for."""
    deepest = max_depth(N, Q)  # rejects Q < 2 before the logarithm does
    want = max(1, round(math.log(N, Q)) - 2)
    g = min(want, deepest)
    if g < 1:
        span = Q**want
        nearest = max(span, (2 * N + span) // (2 * span) * span)  # ties round up
        raise ValueError(f"N={N} admits no uniform tree with Q={Q}; "
                         f"N={nearest} has one of depth {want}")
    return g
