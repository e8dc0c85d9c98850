"""Fast history summation with clustered low-rank far fields and
incremental memory management.

Per committed step n the engine adds the new solution vector into the
moment accumulators of every non-leaf cluster containing interval n.
Querying the history at step n partitions the past into the current
leaf's earlier intervals plus the near/far parts of the leaf's minimal
cover: near intervals use exact weights against retained vectors, far
non-leaf clusters collapse to r moment vectors, and far leaves are
approximated from their still-retained vectors.

Everything a step needs depends on its leaf alone, so when the schedule
enters a leaf it builds that leaf's plan once, on uniform and non-uniform
meshes alike: the near intervals with the exact weights of every step of
the leaf against them and against the leaf's own earlier intervals, from
one WeightEngine.offdiag call; the far members with their phi
coefficients for every step of the leaf, from one phi_coeffs call;
the ancestor chain with the psi coefficients each commit folds into its
moments, from one psi_coeffs call that also yields the leaf's own psi
table (kept until the leaf is freed, for the later leaves that see it as
a far member); and the clusters to free.  Only the current leaf's plan
is kept.  The clusters to free are the children of non-leaf cover
members that were not members of the previous leaf's cover; cover
membership is contiguous in time, so each node is freed once, as soon
as its parent's moments take its place.  That keeps the live value
count logarithmic in the step count.

Counters track multiply-accumulates on length-M vectors (M operations
each) and the high-water mark of live stored values, so the cost and
memory bounds can be checked machine-independently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .clustering import Cluster, ClusterTree, Cover
from .frac_weights import WeightEngine
from .taylor_expansion import phi_coeffs, psi_coeffs


@dataclass
class EngineCounters:
    """Machine-independent cost and memory accounting."""

    rhs_ops: int = 0  # M ops per vector multiply-accumulate in history sums
    update_ops: int = 0  # M ops per moment-accumulator update
    live_values: int = 0
    high_water: int = 0

    def allocate(self, count: int) -> None:
        self.live_values += count
        if self.live_values > self.high_water:
            self.high_water = self.live_values

    def release(self, count: int) -> None:
        self.live_values -= count


class SolutionSink:
    """Sequential binary stream of solution records.

    Each record is M little-endian float64 values; a text sidecar header
    (written on close) records the run parameters.
    """

    def __init__(self, path: str | Path, header: dict):
        self.path = Path(path)
        self.header = dict(header)
        self._fh: io.BufferedWriter | None = self.path.open("wb")
        self.records = 0

    def write(self, vec: np.ndarray) -> None:
        if self._fh is None:
            raise ValueError("sink already closed")
        self._fh.write(np.asarray(vec, dtype="<f8").tobytes())
        self.records += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            lines = [f"{k} {v}" for k, v in self.header.items()]
            lines.append(f"records {self.records}")
            self.path.with_suffix(self.path.suffix + ".hdr").write_text(
                "\n".join(lines) + "\n"
            )


class _LeafPlan(NamedTuple):
    """What every step of one leaf needs.  The arrays have one row per step
    of the leaf, row s for step n = leaf.lo + s."""

    leaf: Cluster
    members: frozenset[Cluster]  # the leaf's cover, for the next plan's frees
    frees: tuple[Cluster, ...]  # children of non-leaf members new to this cover
    near: tuple[int, ...]  # intervals summed with exact weights, ascending
    exact_w: np.ndarray  # (leaf size, len(near) + leaf size): weights against near,
    #                      then the leaf's own intervals; 0 where j >= n
    far_leaf: tuple[int, ...]  # intervals of far leaf members, ascending
    far_leaf_w: np.ndarray  # (leaf size, len(far_leaf)): their low-rank weights
    far_moments: tuple[tuple[int, Cluster], ...]  # far non-leaf members (node id, cluster)
    phi_moments: np.ndarray  # (len(far_moments), leaf size, r): their phi
    chain: tuple[int, ...]  # node ids of the non-leaf ancestors, root first
    psi_chain: np.ndarray  # (len(chain), leaf size, r): psi about each ancestor
    ops: int  # rhs_ops of a step before the leaf's own earlier intervals


class HistoryEngine:
    """State machine evaluating sums over past steps of beta~_nj * U^j."""

    def __init__(self, tree: ClusterTree, weights: WeightEngine, r: int,
                 eta: float, m: int):
        if r < 1:
            raise ValueError("expansion order r must be at least 1")
        if not 0.0 < eta <= 1.0 or eta != eta:
            raise ValueError("eta must lie in (0, 1]")
        self.tree = tree
        self.weights = weights
        self.r = r
        self.eta = eta
        self.m = m
        self.counters = EngineCounters()
        self.retained: dict[int, np.ndarray] = {}
        self.moments: dict[int, np.ndarray] = {}  # node id -> (r, m) array
        self.committed = 0
        self._psi_tables: dict[int, np.ndarray] = {}  # leaf id -> (size, r), until freed
        self._plan: _LeafPlan | None = None

    # -- helpers ------------------------------------------------------------

    def cover_for(self, n: int) -> Cover:
        """The minimal cover of the leaf holding step n."""
        return self.tree.minimal_cover(self.tree.leaf_of(n), self.eta)

    def _sbar(self, clusters) -> np.ndarray:
        """Midpoints of the clusters' time spans."""
        lv = self.tree.mesh.levels
        return 0.5 * (lv[[c.lo - 1 for c in clusters]] + lv[[c.hi for c in clusters]])

    def _psi_table(self, c: Cluster) -> np.ndarray:
        table = self._psi_tables.get(self.tree.node_id(c))
        if table is None:
            raise AssertionError(f"far leaf {c} has no psi table")
        return table

    def _plan_for(self, n: int) -> _LeafPlan:
        """The plan of the leaf holding step n, built when that leaf is entered."""
        leaf = self.tree.leaf_of(n)
        if self._plan is None or self._plan.leaf != leaf:
            self._plan = self._build_plan(leaf, self._plan)
        return self._plan

    def _build_plan(self, leaf: Cluster, prev: _LeafPlan | None) -> _LeafPlan:
        """The plan of leaf, entered after the leaf of prev."""
        tree, r = self.tree, self.r
        cover = self.cover_for(leaf.lo)
        members = cover.members()
        seen = prev.members if prev is not None else frozenset()
        frees = tuple(child for c in members if not tree.is_leaf(c) and c not in seen
                      for child in tree.children_of(c))
        lv = tree.mesh.levels
        t_prev, t_next = lv[leaf.lo - 1:leaf.hi], lv[leaf.lo:leaf.hi + 1]  # the leaf's steps
        far = cover.far
        # one phi call covers every far member at every step of the leaf
        phi = (phi_coeffs(self.weights.params.nu, r, self._sbar(far)[:, None], t_prev, t_next)
               if far else np.empty((0, leaf.size, r)))
        leaf_idx = [i for i, c in enumerate(far) if tree.is_leaf(c)]
        mom_idx = [i for i, c in enumerate(far) if not tree.is_leaf(c)]
        blocks = [phi[i] @ self._psi_table(far[i]).T for i in leaf_idx]
        # one psi call for the ancestor chain and the leaf itself; the leaf's
        # own rows serve later leaves that see it as a far member
        ancestors = tree.update_subtree(leaf.lo)
        psi = psi_coeffs(r, self._sbar(ancestors + [leaf])[:, None], t_prev, t_next)
        self._psi_tables[tree.node_id(leaf)] = psi[-1]
        near = tuple(j for c in cover.near for j in range(c.lo, c.hi + 1))
        # one offdiag call for every step's exact weights, pairs j < n only
        steps = np.arange(leaf.lo, leaf.hi + 1)
        js = np.array(near + tuple(range(leaf.lo, leaf.hi + 1)))
        rows, cols = np.nonzero(js < steps[:, None])
        exact_w = np.zeros((steps.size, js.size))
        exact_w[rows, cols] = self.weights.offdiag(steps[rows], js[cols])
        far_leaf = tuple(j for i in leaf_idx for j in range(far[i].lo, far[i].hi + 1))
        return _LeafPlan(
            leaf=leaf,
            members=frozenset(members),
            frees=frees,
            near=near,
            exact_w=exact_w,
            far_leaf=far_leaf,
            far_leaf_w=np.hstack(blocks) if blocks else np.empty((leaf.size, 0)),
            far_moments=tuple((tree.node_id(far[i]), far[i]) for i in mom_idx),
            phi_moments=phi[mom_idx],
            chain=tuple(tree.node_id(c) for c in ancestors),
            psi_chain=psi[:-1],
            ops=self.m * (len(near) + len(far_leaf) + r * len(mom_idx)),
        )

    # -- per-step evaluation / commit / free operations ----------------------

    def history_sum(self, n: int) -> np.ndarray:
        """Approximate sum over j < n of beta~_nj * U^j.

        The exact-weight terms accumulate first, one vector at a time in
        ascending interval order, so the all-near path matches the direct
        sum bit for bit; the far-leaf and far-moment terms follow.
        """
        acc = np.zeros(self.m)
        if n == 1:
            return acc
        if n > self.committed + 1:
            raise ValueError(f"steps 1..{n-1} must be committed before querying {n}")
        plan = self._plan_for(n)
        s = n - plan.leaf.lo
        exact = plan.exact_w[s, :len(plan.near) + s].tolist()
        for j, w in zip(chain(plan.near, range(plan.leaf.lo, n)), exact):
            acc += w * self._retained(j)
        for j, w in zip(plan.far_leaf, plan.far_leaf_w[s].tolist()):
            acc += w * self._retained(j)
        for (nid, c), phi in zip(plan.far_moments, plan.phi_moments[:, s]):
            mat = self.moments.get(nid)
            if mat is None:
                raise AssertionError(f"far cluster {c} has no allocated accumulator")
            acc += phi @ mat
        self.counters.rhs_ops += plan.ops + self.m * s
        return acc

    def _retained(self, j: int) -> np.ndarray:
        vec = self.retained.get(j)
        if vec is None:
            raise AssertionError(f"solution vector for interval {j} was freed too early")
        return vec

    def commit_step(self, n: int, value: np.ndarray) -> None:
        """Accept U^n: retain it and fold it into the moment accumulators of
        every non-leaf ancestor cluster."""
        if n != self.committed + 1:
            raise ValueError(f"expected commit of step {self.committed + 1}, got {n}")
        value = np.asarray(value, dtype=float)
        if value.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}")
        plan = self._plan_for(n)
        self.retained[n] = value
        self.counters.allocate(self.m)
        for nid, psi in zip(plan.chain, plan.psi_chain[:, n - plan.leaf.lo]):
            mat = self.moments.get(nid)
            if mat is None:
                mat = np.zeros((self.r, self.m))
                self.moments[nid] = mat
                self.counters.allocate(self.r * self.m)
            mat += np.multiply.outer(psi, value)
        self.counters.update_ops += len(plan.chain) * self.r * self.m
        self.committed = n

    def free_cluster(self, c: Cluster) -> None:
        """Recursive deallocation: leaves drop their retained vectors and psi
        table, allocated non-leaves free their children then their own
        moments.  Freeing what is already freed, or an unallocated
        non-leaf, is a no-op."""
        nid = self.tree.node_id(c)
        if self.tree.is_leaf(c):
            self._psi_tables.pop(nid, None)
            for j in range(c.lo, c.hi + 1):
                if self.retained.pop(j, None) is not None:
                    self.counters.release(self.m)
        elif nid in self.moments:
            for child in self.tree.children_of(c):
                self.free_cluster(child)
            del self.moments[nid]
            self.counters.release(self.r * self.m)

    def run_schedule(self, step_callback) -> None:
        """Full N-step loop: on entering a leaf, free what its plan lists;
        per step, evaluate the history, hand it to the stepper callback and
        commit the vector it returns."""
        for n in range(1, self.tree.mesh.N + 1):
            plan = self._plan_for(n)
            if n == plan.leaf.lo:
                for c in plan.frees:
                    self.free_cluster(c)
            self.commit_step(n, step_callback(n, self.history_sum(n)))
