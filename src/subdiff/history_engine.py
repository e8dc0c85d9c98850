"""Fast history summation with clustered low-rank far fields and
incremental memory management.

Per committed step n the engine adds the new solution vector into the
moment accumulators of every non-leaf cluster containing interval n.
Querying the history at step n partitions the past into the current
leaf's earlier intervals plus the near/far parts of the leaf's minimal
cover: near intervals use exact weights against retained vectors, far
non-leaf clusters collapse to r moment vectors, and far leaves are
approximated on the fly from their still-retained vectors.  Cover
members' descendants are freed as soon as the cover is first used, which
keeps the live value count logarithmic in the step count.

Counters track multiply-accumulates on length-M vectors (M operations
each) and the high-water mark of live stored values, so the cost and
memory bounds can be checked machine-independently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

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
        self.freed_leaves: set[int] = set()
        self.committed = 0
        self._covers: dict[int, Cover] = {}  # cover depends on the leaf only

    # -- helpers ------------------------------------------------------------

    def cover_for(self, n: int) -> Cover:
        leaf = self.tree.leaf_of(n)
        key = self.tree.node_id(leaf)
        cov = self._covers.get(key)
        if cov is None:
            cov = self.tree.minimal_cover(leaf, self.eta)
            self._covers[key] = cov
        return cov

    def _sbar(self, c: Cluster) -> float:
        lv = self.tree.mesh.levels
        return 0.5 * float(lv[c.lo - 1] + lv[c.hi])

    def _interval(self, j: int) -> tuple[float, float]:
        lv = self.tree.mesh.levels
        return float(lv[j - 1]), float(lv[j])

    # -- per-step evaluation / commit / free operations ----------------------

    def history_sum(self, n: int) -> np.ndarray:
        """Approximate sum over j < n of beta~_nj * U^j.

        Contributions accumulate in ascending interval order (then
        ascending moment order within far clusters) so results are
        deterministic and the all-near path matches the direct sum bit
        for bit.
        """
        acc = np.zeros(self.m)
        if n == 1:
            return acc
        if n > self.committed + 1:
            raise ValueError(f"steps 1..{n-1} must be committed before querying {n}")
        cover = self.cover_for(n)
        near = set(cover.near)
        t_prev, t_next = self._interval(n)
        for c in cover.members():
            if c in near:
                for j in range(c.lo, c.hi + 1):
                    acc += self.weights.offdiag(n, j) * self._retained(j)
                    self.counters.rhs_ops += self.m
            elif self.tree.is_leaf(c):
                # admissible leaf: low-rank weights against retained vectors
                sbar = self._sbar(c)
                phi = phi_coeffs(self.weights.params.nu, self.r, sbar, t_prev, t_next)
                for j in range(c.lo, c.hi + 1):
                    s0, s1 = self._interval(j)
                    bt = float(phi @ psi_coeffs(self.r, sbar, s0, s1))
                    acc += bt * self._retained(j)
                    self.counters.rhs_ops += self.m
            else:
                sbar = self._sbar(c)
                phi = phi_coeffs(self.weights.params.nu, self.r, sbar, t_prev, t_next)
                psi_mat = self._moments(c)
                for p in range(self.r):
                    acc += phi[p] * psi_mat[p]
                    self.counters.rhs_ops += self.m
        # current leaf's own earlier intervals, exact weights
        for j in range(cover.leaf.lo, n):
            acc += self.weights.offdiag(n, j) * self._retained(j)
            self.counters.rhs_ops += self.m
        return acc

    def _retained(self, j: int) -> np.ndarray:
        vec = self.retained.get(j)
        if vec is None:
            raise AssertionError(f"solution vector for interval {j} was freed too early")
        return vec

    def _moments(self, c: Cluster) -> np.ndarray:
        mat = self.moments.get(self.tree.node_id(c))
        if mat is None:
            raise AssertionError(f"far cluster {c} has no allocated accumulator")
        return mat

    def commit_step(self, n: int, value: np.ndarray) -> None:
        """Accept U^n: retain it and fold it into the moment accumulators of
        every non-leaf ancestor cluster."""
        if n != self.committed + 1:
            raise ValueError(f"expected commit of step {self.committed + 1}, got {n}")
        value = np.asarray(value, dtype=float)
        if value.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}")
        self.retained[n] = value
        self.counters.allocate(self.m)
        for c in self.tree.update_subtree(n):
            nid = self.tree.node_id(c)
            mat = self.moments.get(nid)
            if mat is None:
                mat = np.zeros((self.r, self.m))
                self.moments[nid] = mat
                self.counters.allocate(self.r * self.m)
            s0, s1 = self._interval(n)
            psi = psi_coeffs(self.r, self._sbar(c), s0, s1)
            for p in range(self.r):
                mat[p] += psi[p] * value
                self.counters.update_ops += self.m
        self.committed = n

    def free_cluster(self, c: Cluster) -> None:
        """Recursive deallocation: leaves drop their retained vectors,
        allocated non-leaves free their children then their own moments.
        Freeing an unallocated non-leaf is a no-op."""
        if self.tree.is_leaf(c):
            nid = self.tree.node_id(c)
            if nid not in self.freed_leaves:
                self.freed_leaves.add(nid)
                for j in range(c.lo, c.hi + 1):
                    if self.retained.pop(j, None) is not None:
                        self.counters.release(self.m)
        else:
            nid = self.tree.node_id(c)
            if nid in self.moments:
                for child in self.tree.children_of(c):
                    self.free_cluster(child)
                del self.moments[nid]
                self.counters.release(self.r * self.m)

    def run_schedule(self, step_callback) -> None:
        """Full N-step loop: per step, build the cover, free descendants of
        its non-leaf members, evaluate the history, hand it to the stepper
        callback and commit the vector it returns."""
        for n in range(1, self.tree.mesh.N + 1):
            cover = self.cover_for(n)
            for c in cover.members():
                if not self.tree.is_leaf(c):
                    for child in self.tree.children_of(c):
                        self.free_cluster(child)
            self.commit_step(n, step_callback(n, self.history_sum(n)))
