"""Fast history summation with clustered low-rank far fields and
incremental memory management.

When a leaf's last step is committed, the engine adds the leaf's solution
vectors into the moment accumulators of every non-leaf cluster containing
it.  Querying the history at step n partitions the past into the current
leaf's earlier intervals plus the near/far parts of the leaf's minimal
cover: near intervals use exact weights against retained vectors, far
non-leaf clusters collapse to r moment vectors, and far leaves are
approximated from their still-retained vectors.

Storage is one block store per tree generation: a leaf's block holds its
retained vectors, a non-leaf's block its r moment vectors, and block p of
a generation sits at row p - base of the store's buffer.  Blocks are
reserved in time order and freed in roughly the same order, so the live
blocks lie in one window of consecutive positions.  The moments of the
current leaf's non-leaf ancestors live in one (G, r, M) chain
accumulator instead.  A commit only stores U^n in the leaf's block; the
moments are linear in the vectors, so the leaf's last commit adds the
whole leaf into the chain with one (G, r, leaf size) @ (leaf size, M)
product.  No step of a leaf reads its ancestors' moments (an ancestor is
never in its own leaf's cover), and an ancestor's row moves into its
generation's store when the schedule leaves it.

One flag per node id records whether the engine holds the node's
values, in its store block or in the chain accumulator.  Everything a
step needs depends on its leaf alone, and a leaf's coefficients depend
only on the mesh and the tree, not on the stores, so the engine plans in
two levels, on uniform and non-uniform meshes alike:
  - a block is the set of leaves under one node of generation G // 2.
    When the schedule enters a block's first leaf, the engine builds the
    covers of all its leaves and their coefficients: one
    WeightEngine.offdiag call for the exact weights of every step of
    every leaf against its near leaves and its own earlier intervals,
    one phi evaluation for every (far member, step) pair, and one psi
    evaluation for each leaf's ancestors about the leaf's steps and for
    its far leaves about their own intervals.  The block's arrays hold
    no M-length vector and are dropped once its last leaf is entered.
    With about the square root of the leaf count in blocks and in leaves
    per block, a block entry, the longest step of a run, stays a small
    fraction of the steps;
  - a leaf entry does what must happen at the leaf's time: one
    free_cluster call on the held nodes the leaf's cover marks dead
    (those under a far member, whose moments stand in for them from now
    on: the cover, not the engine, decides what is dead), retiring the
    ancestors the schedule leaves, holding the new ones and reserving the
    leaf's own block.  Stores change only then, so the views it takes
    stay valid for the whole leaf.  It builds the leaf's plan from those
    views and the leaf's rows of the block's arrays.
The cover's members fall into runs of consecutive positions of one
generation (on a uniform mesh one run per kind and generation), each with
one view and one weight block:
  - the near leaves followed by the leaf itself: exact weights;
  - the far leaves: low-rank weights, from one matmul of their phi
    coefficients with their psi tables;
  - each generation's far non-leaf members: their phi coefficients.
A far member's phi depends on the step's gap from its midpoint, and psi
on each interval's offset inside the node.  On a uniform mesh both are
fixed by the node's generation and the integer lag, so the engine builds
one phi and one psi lag table per generation when it is made, from one
phi_coeffs and one psi_coeffs call over the nodes that start each
generation, and a block entry reads its phi and psi from them by fancy
indexing.  On other meshes a block entry makes one phi_coeffs and one
psi_coeffs call.  The far members lie wholly before the leaf, so their
values are final when it is entered: the plan forms the far field of
every step of the leaf then, one block product per far run, and keeps
the exact runs' views.  A step then costs one sequential reduction per
exact run plus one add of its far-field row, and the live value count
stays logarithmic in the step count.

Counters track multiply-accumulates on length-M vectors (M operations
each), the high-water mark of live stored values, and the high-water
mark of values the stores and the chain accumulator actually reserve, so
the cost and memory bounds can be checked machine-independently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
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
    update_ops: int = 0  # G r M per commit: its share of the leaf's moment fold
    live_values: int = 0
    high_water: int = 0
    reserved: int = 0  # values held by the stores' buffers and the chain accumulator
    reserved_high_water: int = 0

    def allocate(self, count: int) -> None:
        self.live_values += count
        if self.live_values > self.high_water:
            self.high_water = self.live_values

    def release(self, count: int) -> None:
        self.live_values -= count

    def reserve(self, count: int) -> None:
        self.reserved += count
        if self.reserved > self.reserved_high_water:
            self.reserved_high_water = self.reserved


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


class _BlockStore:
    """The blocks of one tree generation, each `rows` vectors of length m.

    Block p sits at buf[p - base].  Blocks are reserved in ascending
    position order and freed by clearing their live flag, so the live ones
    lie in the window [lo, end); a flag set past end marks the node whose
    moments the chain accumulator holds.  Only reserve changes the buffer:
    when a block would fall past its end, the window moves to the front,
    or, if it would fill more than four fifths of the buffer, moves into a
    new buffer about a quarter larger than the window.
    """

    def __init__(self, live: np.ndarray, rows: int, m: int, counters: EngineCounters):
        self.buf = np.empty((0, rows, m))
        self.live = live  # one flag per position
        self.base = self.lo = self.end = 0
        self.counters = counters

    def reserve(self, p: int) -> np.ndarray:
        """Mark block p, past every block reserved so far, live and return it."""
        lo, live = self.lo, self.live
        while lo < self.end and not live[lo]:
            lo += 1
        self.lo = lo = lo if lo < self.end else p
        cap = len(self.buf)
        if p - self.base >= cap:
            need, kept, shift = p + 1 - lo, max(self.end - lo, 0), lo - self.base
            if 5 * need > 4 * cap:
                grown = np.empty((need + (need + 3) // 4, *self.buf.shape[1:]))
                self.counters.reserve(grown.size - self.buf.size)
                grown[:kept] = self.buf[shift:shift + kept]
                self.buf = grown
            else:  # in pieces no longer than the shift: numpy would copy an
                # overlapping source whole into a temporary first
                buf = self.buf
                for i in range(0, kept, shift):
                    buf[i:min(i + shift, kept)] = buf[i + shift:min(i + shift, kept) + shift]
            self.base = lo
        live[p] = True
        self.end = p + 1
        return self.buf[p - self.base]

    def view(self, p0: int, p1: int) -> np.ndarray:
        """Blocks p0..p1-1 as one (rows * (p1 - p0), m) view."""
        return self.buf[p0 - self.base:p1 - self.base].reshape(-1, self.buf.shape[2])


def _sum_rows(t: np.ndarray) -> np.ndarray:
    """t[0] + t[1] + ... in that order.  numpy's axis-0 reduction adds row
    after row when rows hold two or more values, but sums a single column
    pairwise; accumulate is sequential in both cases (and slow on wide rows)."""
    return np.add.reduce(t, axis=0) if t.shape[1] > 1 else np.add.accumulate(t, axis=0)[-1]


class _LagTable(NamedTuple):
    """Coefficients of every generation by lag, on a uniform mesh: node i
    of generation g takes at interval n the row rows[base[g] + n - lo_i],
    the value the generation's first node takes at the same lag."""

    rows: np.ndarray  # (lags of all generations, r), generation after generation
    base: np.ndarray  # per generation: the row of lag 0

    @classmethod
    def build(cls, tree: ClusterTree, coeffs, lo: np.ndarray, hi: np.ndarray) -> _LagTable:
        """coeffs(sbar, t_prev, t_next) of each generation's first node, which
        starts at interval 1, at the lags lo[g] .. hi[g] - 1, in one call."""
        count = hi - lo
        base = np.cumsum(count) - count - lo
        gen = np.repeat(np.arange(count.size), count)
        lag = np.arange(count.sum()) - base[gen]
        lv = tree.mesh.levels
        return cls(coeffs(tree.midpoint(np.array(tree.first[:-1]))[gen], lv[lag], lv[lag + 1]),
                   base)

    def read(self, tree: ClusterTree, ids: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The rows of nodes ids at intervals at, broadcast against each other."""
        return self.rows[self.base[tree.generation[ids]] - tree.lo[ids] + at]


class _LeafPlan(NamedTuple):
    """What every step of one leaf needs, built when the leaf is entered
    from its rows of its block's coefficients and from the store views
    taken then.  Arrays have one row per step of the leaf, row s for step
    n = leaf.lo + s; each exact run pairs its weights with a view of the
    store rows they multiply."""

    leaf: Cluster
    rows: np.ndarray  # (leaf size, M): the leaf's own block, filled by its commits
    near: int  # exact-weight columns before the leaf's own intervals
    exact: tuple  # (first column, weights, rows) per run of near leaves, the leaf's run last
    far: np.ndarray | None  # (leaf size, M): each step's far field, None if the cover has none
    psi_chain: np.ndarray  # (G, r, leaf size): each ancestor's psi on the leaf, root first
    ops: int  # rhs_ops of a step before the leaf's own earlier intervals


class _Block(NamedTuple):
    """The covers and coefficients of the leaves under one node of
    generation G // 2, built when the schedule enters the first of them
    and dropped when it enters the last.  Leaf k of the block, in
    time order, has the entry leaves[k]:
      - its cover's node ids: the near leaves, the leaf itself, then the
        far members;
      - the count of near leaves plus one, and of far non-leaf members;
      - its runs of consecutive ids, (first index, end index, generation,
        position) per run;
      - its ancestors' ids, root first;
      - the held nodes its cover can newly mark dead, those its
        predecessor's cover did not;
      - its rows of the block's exact weights, phi and psi arrays.
    No array holds an M-length vector."""

    first: int  # node id of the block's first leaf
    leaves: list


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
        G, first = tree.G, tree.first
        self._live = np.zeros(len(tree.nodes), dtype=bool)  # per node id: values held, not freed
        self._stores = [_BlockStore(self._live[first[g]:first[g + 1]],
                                    r if g < G else tree.leaf_size, m, self.counters)
                        for g in range(G + 1)]
        self._chain = np.zeros((G, r, m))  # moments of the current leaf's ancestors, root first
        self._chain_ids: list[int] = []  # their node ids, none before the first leaf
        self.counters.reserve(self._chain.size)
        self._tables = self._lag_tables() if tree.mesh.uniform else None
        self.committed = 0
        self._plan: _LeafPlan | None = None
        self._block: _Block | None = None

    # -- helpers ------------------------------------------------------------

    def _lag_tables(self) -> tuple[_LagTable, _LagTable]:
        """The phi and psi lag tables of a uniform mesh: phi at the lags
        width .. N - 1 a far member of each generation can take (it ends
        before the step), psi at the offsets 0 .. width - 1 inside a node."""
        tree, r, nu = self.tree, self.r, self.weights.params.nu
        N = tree.mesh.N
        width = N // tree.Q ** np.arange(tree.G + 1)
        return (_LagTable.build(tree, lambda *interval: phi_coeffs(nu, r, *interval), width,
                                np.full_like(width, N)),
                _LagTable.build(tree, lambda *interval: psi_coeffs(r, *interval),
                                np.zeros_like(width), width))

    def _phi(self, ids: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """phi of the nodes ids at the steps, broadcast against each other,
        with a trailing axis of length r."""
        if self._tables is not None:
            return self._tables[0].read(self.tree, ids, steps)
        lv = self.tree.mesh.levels
        return phi_coeffs(self.weights.params.nu, self.r, self.tree.midpoint(ids),
                          lv[steps - 1], lv[steps])

    def _psi(self, ids: np.ndarray, intervals: np.ndarray) -> np.ndarray:
        """psi of the nodes ids on the intervals, broadcast against each
        other, with a trailing axis of length r."""
        if self._tables is not None:
            return self._tables[1].read(self.tree, ids, intervals)
        lv = self.tree.mesh.levels
        return psi_coeffs(self.r, self.tree.midpoint(ids), lv[intervals - 1], lv[intervals])

    def cover_for(self, n: int) -> Cover:
        """The minimal cover of the leaf holding step n."""
        return self.tree.minimal_cover(self.tree.leaf_of(n), self.eta)

    def _plan_for(self, n: int) -> _LeafPlan:
        """The plan of the leaf holding step n, built when that leaf is entered."""
        plan = self._plan
        if plan is None or n > plan.leaf.hi:
            plan = self._plan = self._enter(self.tree.leaf_of(n))
        elif n < plan.leaf.lo:
            raise ValueError(f"step {n} lies before the current leaf {plan.leaf}")
        return plan

    def _enter_block(self, leaf_id: int) -> _Block:
        """Build the covers of the leaves in leaf_id's block and their
        coefficients: one offdiag call for every exact pair of the block,
        one phi call for every (far member, step) pair and one psi call for
        the ancestors of every leaf about its steps and for its far leaves
        about their own intervals."""
        tree, G = self.tree, self.tree.G
        size, per, leaf0 = tree.leaf_size, tree.Q ** (G - G // 2), tree.first[G]
        first = leaf_id - (leaf_id - leaf0) % per
        leaves = range(first, first + per)
        covers = [tree.minimal_cover(tree.nodes[i], self.eta) for i in leaves]
        lo, offsets = tree.lo[first:first + per], np.arange(size)
        # the dead masks only grow from leaf to leaf, and the engine frees at
        # each entry what it holds of them, so a leaf need only look at the
        # nodes its predecessor's mask did not have
        dead = np.array([c.dead for c in covers])
        dead[1:] &= ~dead[:-1]
        row, node = np.nonzero(dead)
        dead = np.split(node, np.searchsorted(row, range(1, per)))
        # Each leaf's near leaves and the leaf itself, then its far members by
        # generation, then in time, cut into runs of consecutive node ids.  The
        # far ids restart below the leaf's, and a generation's last node ends
        # at step N, so it is never a member: no run crosses a kind or a
        # generation.
        ids = np.fromiter((i for c, leaf in zip(covers, leaves)
                           for i in (*c.near_ids, leaf, *c.far_ids)), dtype=np.intp)
        nn = np.array([len(c.near_ids) + 1 for c in covers])
        count = nn + [len(c.far_ids) for c in covers]
        del covers  # before the coefficient arrays are made
        start = np.cumsum(count) - count
        owner = np.repeat(np.arange(per), count)
        at = np.arange(ids.size) - start[owner]  # place in its leaf's ids
        gen = tree.generation[ids]
        near = at < nn[owner]
        moment = ~near & (gen < G)  # far non-leaf members come before far leaves
        nmom = np.bincount(owner[moment], minlength=per)
        cut = np.ones(ids.size, dtype=bool)
        cut[1:] = ids[1:] != ids[:-1] + 1
        cut[start] = True
        run0 = np.flatnonzero(cut)
        runs = np.stack([at[run0], at[run0] + np.diff(run0, append=ids.size), gen[run0],
                         tree.position(ids[run0])], axis=1)
        # every step's exact pairs j < n, at their place in its leaf's weights
        width = nn * size  # exact columns per leaf
        col0 = np.cumsum(width) - width
        js = (tree.lo[ids[near]][:, None] + offsets).ravel()
        col_leaf = np.repeat(owner[near], size)
        s, c = np.nonzero(js < lo[col_leaf] + offsets[:, None])
        k = col_leaf[c]  # the leaf of each pair
        weights = np.zeros(size * width.sum())
        weights[size * col0[k] + s * width[k] + c - col0[k]] = self.weights.offdiag(lo[k] + s,
                                                                                   js[c])
        # every far member of every leaf at each of that leaf's steps
        far = ids[~near]
        phi = self._phi(far[:, None], lo[owner[~near]][:, None] + offsets)
        # per leaf, the ancestors' psi about its steps, then each far leaf's psi
        # about its own intervals
        chains = [tree.chain(i) for i in leaves]
        nrows = G + count - nn - nmom
        q0 = np.cumsum(nrows) - nrows
        chain_rows = q0[:, None] + np.arange(G)
        fl = ~near & ~moment
        psi_ids = np.empty(nrows.sum(), dtype=np.intp)
        psi_ids[chain_rows] = chains
        psi_ids[q0[owner[fl]] + G + at[fl] - (nn + nmom)[owner[fl]]] = ids[fl]
        psi_lo = tree.lo[psi_ids]
        psi_lo[chain_rows] = lo[:, None]
        psi = self._psi(psi_ids[:, None], psi_lo[:, None] + offsets)
        nfar = np.cumsum(count - nn)
        return _Block(first, list(zip(
            np.split(ids, start[1:]), nn.tolist(), nmom.tolist(),
            np.split(runs, np.searchsorted(run0, start[1:])), chains, dead,
            np.split(weights, size * col0[1:]), np.split(phi, nfar[:-1]),
            np.split(psi, q0[1:]))))

    def _enter(self, leaf: Cluster) -> _LeafPlan:
        """Free what leaf's cover marks dead, retire the ancestors the
        schedule leaves, hold the new ones, reserve the leaf's block and
        build its plan from its rows of its block's coefficients, entering
        the block first if the leaf is its first."""
        tree, r, m, G = self.tree, self.r, self.m, self.tree.G
        leaf_id = tree.leaf_id(leaf.lo)
        if self._block is None:
            self._block = self._enter_block(leaf_id)
        k = leaf_id - self._block.first
        ids, nn, nmom, runs, chain, dead, exact_w, phi, psi = self._block.leaves[k]
        if k == len(self._block.leaves) - 1:  # the block ends with its last leaf
            self._block = None
        self.free_cluster(dead[self._live[dead]])
        old = self._chain_ids
        left = next((g for g, (a, b) in enumerate(zip(chain, old)) if a != b), len(old))
        for g in range(left, len(old)):  # the ancestors the schedule leaves move to their stores
            if self._live[old[g]]:
                self._stores[g].reserve(tree.position(old[g]))[:] = self._chain[g]
        self._chain[left:] = 0.0
        self._chain_ids = chain
        self._live[chain[left:]] = True
        self.counters.allocate((G - left) * r * m)
        rows = self._stores[G].reserve(tree.position(leaf_id))
        live = self._live[ids]
        if not live.all():
            raise AssertionError(f"the blocks of {tree.nodes[ids[np.argmin(live)]]} "
                                 "were freed too early")

        size = leaf.size
        exact_w = exact_w.reshape(size, nn * size)
        nfar = ids.size - nn
        far_sum = None
        if nfar:
            w_mom = phi[:nmom].transpose(1, 0, 2).reshape(size, nmom * r)
            w_leaf = np.matmul(phi[nmom:], psi[G:].transpose(0, 2, 1))  # (far leaf, step, j)
            w_leaf = w_leaf.transpose(1, 0, 2).reshape(size, -1)
            far_sum = np.zeros((size, m))

        exact = []  # far runs go straight into every step's far field
        nf = nn + nmom  # where the far leaves start
        for i, j, g, p in runs.tolist():
            view = self._stores[g].view(p, p + j - i)
            if i < nn:
                exact.append((i * size, exact_w[:, i * size:j * size], view))
            elif g < G:
                far_sum += w_mom[:, (i - nn) * r:(j - nn) * r] @ view
            else:
                far_sum += w_leaf[:, (i - nf) * size:(j - nf) * size] @ view
        return _LeafPlan(
            leaf=leaf,
            rows=rows,
            near=(nn - 1) * size,
            exact=tuple(exact),
            far=far_sum,
            psi_chain=np.ascontiguousarray(psi[:G].transpose(0, 2, 1)),
            ops=m * ((nn - 1 + nfar - nmom) * size + r * nmom),
        )

    # -- per-step evaluation / commit / free operations ----------------------

    def history_sum(self, n: int) -> np.ndarray:
        """Approximate sum over j < n of beta~_nj * U^j.

        The exact-weight terms accumulate first, one row after another in
        ascending interval order across runs, reading only the rows with
        j < n, so the all-near path matches the direct sum bit for bit; the
        step's far field, formed when the leaf was entered, follows.
        """
        if n == 1:
            return np.zeros(self.m)
        if n > self.committed + 1:
            raise ValueError(f"steps 1..{n-1} must be committed before querying {n}")
        plan = self._plan_for(n)
        s = n - plan.leaf.lo
        last = plan.near + s  # exact columns with j < n
        acc = None  # set by the first run: the previous leaf, or the first leaf's own, is exact
        for col, w, rows in plan.exact:
            t = w[s, :last - col, None] * rows[:last - col]
            if acc is not None:
                t[0] += acc
            acc = _sum_rows(t)
        if plan.far is not None:
            acc += plan.far[s]
        self.counters.rhs_ops += plan.ops + self.m * s
        return acc

    def commit_step(self, n: int, value: np.ndarray) -> None:
        """Accept U^n: retain it in the leaf's block.  The leaf's last commit
        folds the whole block into the moments of every non-leaf ancestor
        cluster, with one product."""
        if n != self.committed + 1:
            raise ValueError(f"expected commit of step {self.committed + 1}, got {n}")
        value = np.asarray(value, dtype=float)
        if value.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}")
        plan = self._plan_for(n)
        s = n - plan.leaf.lo
        plan.rows[s] = value
        self.counters.allocate(self.m)
        if n == plan.leaf.hi:
            self._chain += plan.psi_chain @ plan.rows
        self.counters.update_ops += self._chain.size
        self.committed = n

    def free_cluster(self, ids) -> None:
        """Drop the values of the given distinct node ids: a leaf's retained
        vectors, a non-leaf's r moment vectors.  Ids not held (freed
        already, or never held) are a no-op."""
        tree = self.tree
        ids = np.asarray(ids, dtype=np.intp)
        ids = ids[self._live[ids]]
        self._live[ids] = False
        lo = tree.lo[ids[ids >= tree.first[tree.G]]]  # the leaves among them
        kept = np.minimum(np.maximum(self.committed + 1 - lo, 0), tree.leaf_size).sum()
        self.counters.release(self.m * int(kept) + self.r * self.m * (ids.size - lo.size))

    def run_schedule(self, step_callback) -> None:
        """Full N-step loop: per step, evaluate the history, hand it to the
        stepper callback and commit the vector it returns.  The first query
        or commit in a leaf enters it."""
        for n in range(1, self.tree.mesh.N + 1):
            self.commit_step(n, step_callback(n, self.history_sum(n)))
