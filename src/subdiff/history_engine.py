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
reserved in time order and freed in roughly the same order, so the held
blocks lie in one window of consecutive positions.  The lifetimes fix
every window before the first step: entering leaf k, a generation holds
its blocks from the first position whose freeing leaf lies past k, one
bisection of the running maximum of those leaves, to its newest.  So
each buffer is allocated once, a quarter wider than its widest window
(at most the whole generation), and a reserve that would fall past its
end moves the window to the front.  A non-leaf's block is reserved,
zeroed, when the schedule enters its first leaf, and the engine keeps
the blocks of the current leaf's G ancestors.  A commit only
stores U^n in the leaf's block; the moments are linear in the vectors, so
the leaf's last commit adds the whole leaf into its ancestors' blocks
with one (G, r, leaf size) @ (leaf size, M) product.  No step of a leaf
reads its ancestors' moments (an ancestor is never in its own leaf's
cover).

One flag per node id records whether the engine holds the node's store
block.  Everything a step needs depends on its leaf alone, and a leaf's
cover and coefficients depend only on the mesh, the tree and eta, not
on the stores, so the engine plans ahead, one path on every mesh:
  - per run, one argsort of the leaves that free the nodes (their
    lifetimes' third index: their parent turns admissible, and its
    moments or a far member above stand in for them) gives every leaf a
    static free list;
  - a block is the set of leaves under one node of generation G // 2.
    When the schedule enters a block's first leaf, the engine builds the
    covers of all its leaves and their weights: one WeightEngine.offdiag
    call for the exact weights of every step of every leaf against its
    near leaves and its own earlier intervals, one phi evaluation for
    every (far member, step) pair, one psi evaluation for each leaf's
    ancestors about the leaf's steps and for its far leaves about their
    own intervals, and one batched product of the far leaves' phi and
    psi; a leaf's weights are views into these, and its far group's (see
    below) are laid out at the group's first leaf.  The block's arrays hold
    no M-length vector and are dropped when the next block is entered,
    just before its arrays are built, so that they are freed within the
    block entry, not within an ordinary step.  With about the square
    root of the leaf count in blocks and in leaves per block, a block
    entry, the longest step of a run, stays a small fraction of the steps;
  - a leaf entry does what must happen at the leaf's time: one
    free_cluster call on its free list, reserving the blocks of the
    ancestors whose first leaf it is (by arithmetic on its place in
    time) and its own block, and checking that its cover is still held.
    Stores change only then, and a store reserves a non-leaf block only
    when its generation's ancestor changes, so the views the entry
    takes, and the blocks of the ancestors that continue, stay valid for
    the whole leaf.  It builds the leaf's plan from those views and its
    weights.
A leaf's near leaves followed by the leaf itself, and the far members of
a far group (the union of its leaves'), fall into runs of consecutive
positions of one generation (on a uniform mesh one run per kind and
generation), each with one view and one weight block:
  - the near leaves followed by the leaf itself: exact weights;
  - the far leaves: low-rank weights, from one matmul of their phi
    coefficients with their psi coefficients;
  - each generation's far non-leaf members: their phi coefficients.
A far group is a run of a block's leaves that ends at the first leaf for
which one of its leaves is admissible (the running minimum of their
lifetimes' second index), or at the block's end.  So its far members lie
wholly before its first leaf, and their values are final, and held, when
that leaf is entered: that entry forms the far field of every step of the
group, one block product per far run, from weights with one row per step
that are zero where a member is not in the step's leaf's cover.  Each
leaf of the group keeps its rows of it and its exact runs' views.  A step then costs one sequential reduction per exact run plus
one add of its far-field row, and the live value count stays
logarithmic in the step count.

Counters track multiply-accumulates on length-M vectors (M operations
each), the high-water mark of live stored values, and the values the
stores' buffers hold, so the cost and memory bounds can be checked
machine-independently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .clustering import Cluster, ClusterTree, Cover
from .frac_weights import WeightEngine
from .taylor_expansion import ExpansionParams, phi_coeffs, psi_coeffs


@dataclass
class EngineCounters:
    """Machine-independent cost and memory accounting.  The stores' buffers
    are allocated when the engine is built, which sets reserved_high_water
    to the values they hold."""

    rhs_ops: int = 0  # M ops per vector multiply-accumulate in history sums
    update_ops: int = 0  # G r M per commit: its share of the leaf's moment fold
    live_values: int = 0
    high_water: int = 0
    reserved_high_water: int = 0

    def allocate(self, count: int) -> None:
        self.live_values += count
        if self.live_values > self.high_water:
            self.high_water = self.live_values

    def release(self, count: int) -> None:
        self.live_values -= count


class SolutionSink:
    """Sequential binary stream of solution records.

    Each record is M little-endian float64 values; a text sidecar header
    (written on close) records the run parameters, the record count and,
    if the parameters name the run's step count N, whether the stream is
    complete: `complete 1` once it holds N records, `complete 0` before.
    read maps records back from the file, before or after close.
    """

    def __init__(self, path: str | Path, header: dict):
        self.path = Path(path)
        self.header = dict(header)
        # a desk record (12 KB) outgrows the default buffer: 128 KiB hold 10
        self._fh: io.BufferedWriter | None = self.path.open("wb", buffering=1 << 17)
        self.records = 0
        self.width = 0  # M, set by the first record

    def write(self, vec: np.ndarray) -> None:
        if self._fh is None:
            raise ValueError("sink already closed")
        data = np.asarray(vec, dtype="<f8")
        if self.records and data.size != self.width:
            raise ValueError(f"record of {data.size} values in a stream of {self.width}")
        self._fh.write(data.tobytes())
        self.width = data.size
        self.records += 1

    def read(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Records lo..hi-1 (all from lo by default) as a read-only
        (hi - lo, M) memory map of the file.  Each call maps anew, and
        pages count as resident only once touched, so a caller that reads
        a long stream a few records at a time holds only those."""
        hi = self.records if hi is None else hi
        if not 0 <= lo <= hi <= self.records:
            raise IndexError(f"records {lo}..{hi} outside a stream of {self.records}")
        if self._fh is not None:
            self._fh.flush()
        if lo == hi:
            return np.empty((0, self.width))
        return np.memmap(self.path, dtype="<f8", mode="r", offset=8 * lo * self.width,
                         shape=(hi - lo, self.width))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            lines = [f"{k} {v}" for k, v in self.header.items()]
            lines.append(f"records {self.records}")
            if "N" in self.header:
                lines.append(f"complete {int(self.records == self.header['N'])}")
            self.path.with_suffix(self.path.suffix + ".hdr").write_text(
                "\n".join(lines) + "\n"
            )


class _BlockStore:
    """Room for `blocks` blocks of one tree generation, each `rows` vectors
    of length m; block p sits at buf[p - base].  Blocks are reserved one
    after another, and only reserve changes the buffer."""

    def __init__(self, blocks: int, rows: int, m: int):
        self.buf = np.empty((blocks, rows, m))
        self.base = 0

    def reserve(self, p: int, lo: int) -> np.ndarray:
        """Block p, the one after p - 1, when the blocks held are lo..p-1;
        if p falls past the buffer's end, those move to its front first, in
        pieces no longer than the shift: numpy would copy an overlapping
        source whole into a temporary first."""
        if p - self.base >= len(self.buf):
            buf, kept, shift = self.buf, p - lo, lo - self.base
            for i in range(0, kept, shift):
                buf[i:min(i + shift, kept)] = buf[i + shift:min(i + shift, kept) + shift]
            self.base = lo
        return self.buf[p - self.base]

    def view(self, p0: int, p1: int) -> np.ndarray:
        """Blocks p0..p1-1 as one (rows * (p1 - p0), m) view."""
        return self.buf[p0 - self.base:p1 - self.base].reshape(-1, self.buf.shape[2])


def _sum_rows(t: np.ndarray) -> np.ndarray:
    """t[0] + t[1] + ... in that order.  numpy's axis-0 reduction adds row
    after row when rows hold two or more values, but sums a single column
    pairwise; accumulate is sequential in both cases (and slow on wide rows)."""
    return np.add.reduce(t, axis=0) if t.shape[1] > 1 else np.add.accumulate(t, axis=0)[-1]


class _LeafPlan(NamedTuple):
    """What every step of one leaf needs, built when the leaf is entered
    from its rows of its block's coefficients, from the store views taken
    then and from its rows of its far group's far field.  Arrays have one
    row per step of the leaf, row s for step n = leaf.lo + s; each exact
    run pairs its weights with a view of the store rows they multiply."""

    leaf: Cluster
    rows: np.ndarray  # (leaf size, M): the leaf's own block, filled by its commits
    near: int  # exact-weight columns before the leaf's own intervals
    exact: tuple  # (first column, weights, rows) per run of near leaves, the leaf's run last
    far: np.ndarray | None  # (leaf size, M): each step's far field, None if its cover has none
    psi_chain: np.ndarray  # (G, r, leaf size): each ancestor's psi on the leaf, root first
    ops: int  # rhs_ops of a step before the leaf's own earlier intervals


class _Block(NamedTuple):
    """The covers, far groups and coefficients of the leaves under one
    node of generation G // 2, built when the schedule enters the first of
    them and dropped when it enters the next block's first.  Leaf k of the
    block, in time order, has the offsets leaves[k] into the arrays:
      - ids[i0:i1]: its cover's node ids, the near leaves, the leaf
        itself, then the far members, and at a far group's first leaf the
        group's far members;
      - runs[r0:r1]: its runs of consecutive ids, each (generation, first
        and end position, kind, first and end column in its weights of
        that kind), and at a group's first leaf the group's far runs;
      - exact[e0:e1]: its exact weights, one row per step;
    then its first row in its group's far field, its far member count,
    its exact columns before its own intervals and the rhs_ops of a step
    before those, which count its cover, not the group's zero weights.
    far[k] holds, at a group's first leaf, the group's phi and phi @ psi.T,
    one row per step of the group.  psi[k G:(k + 1) G] is its ancestors'
    psi about its steps, root first.  No array holds an M-length vector."""

    first: int  # node id of the block's first leaf
    ids: np.ndarray
    runs: np.ndarray
    exact: np.ndarray
    far: list  # per leaf: (), or at a far group's first its two far weight arrays
    psi: np.ndarray  # (ancestor or far leaf, interval, r)
    leaves: list


class HistoryEngine:
    """State machine evaluating sums over past steps of beta~_nj * U^j."""

    def __init__(self, tree: ClusterTree, weights: WeightEngine, r: int,
                 eta: float, m: int):
        ExpansionParams(r, eta)  # rejects an r or eta out of range
        self.tree = tree
        self.weights = weights
        self.r = r
        self.eta = eta
        self.m = m
        self.counters = EngineCounters()
        G, first = tree.G, tree.first
        self._live = np.zeros(len(tree.nodes), dtype=bool)  # per node id: values held, not freed
        self._ancestors: list = [None] * G  # the current leaf's ancestors' blocks, root first
        self._spans = [tree.Q ** (G - g) for g in range(G)]  # leaves under a generation-g node
        free = tree.lifetimes(eta)[2]
        # entering leaf k, store g holds its blocks from the first whose freeing
        # leaf lies past k, _reach[g].searchsorted(k, "right"), to k // span
        self._reach, self._stores = [], []
        for g, span in enumerate(self._spans + [1]):
            reach = np.maximum.accumulate(free[first[g]:first[g + 1]])
            p = np.arange(len(reach))
            w = int((p + 1 - np.searchsorted(reach, p * span, side="right")).max())
            self._reach.append(reach)
            self._stores.append(_BlockStore(min(w + w // 4, len(reach)),
                                            r if g < G else tree.leaf_size, m))
        self.counters.reserved_high_water = sum(s.buf.size for s in self._stores)
        # leaf k, in time order, frees _frees[_free_at[k]:_free_at[k + 1]]
        self._frees = np.argsort(free, kind="stable")
        self._free_at = np.searchsorted(free[self._frees], np.arange(tree.Q**G + 1))
        self.committed = 0
        self._plan: _LeafPlan | None = None
        self._block: _Block | None = None
        self._far: np.ndarray | None = None  # the current far group's far field

    # -- helpers ------------------------------------------------------------

    def _phi(self, ids: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """phi of the nodes ids at the steps, broadcast against each other,
        with a trailing axis of length r."""
        lv = self.tree.mesh.levels
        return phi_coeffs(self.weights.params.nu, self.r, self.tree.midpoint(ids),
                          lv[steps - 1], lv[steps])

    def _psi(self, ids: np.ndarray, intervals: np.ndarray) -> np.ndarray:
        """psi of the nodes ids on the intervals, broadcast against each
        other, with a trailing axis of length r."""
        lv = self.tree.mesh.levels
        return psi_coeffs(self.r, self.tree.midpoint(ids), lv[intervals - 1], lv[intervals])

    def _reserve(self, g: int, p: int, k: int) -> np.ndarray:
        """Hold block p of store g, the generation's newest, at leaf k's entry."""
        self._live[self.tree.first[g] + p] = True
        return self._stores[g].reserve(p, int(self._reach[g].searchsorted(k, "right")))

    def cover_for(self, n: int) -> Cover:
        """The minimal cover of the leaf holding step n."""
        return self.tree.minimal_cover(self.tree.leaf_of(n), self.eta)

    def _plan_for(self, n: int) -> _LeafPlan:
        """The plan of the leaf holding step n, built when that leaf is entered."""
        plan = self._plan
        if plan is None or n > plan.leaf.hi:
            self._plan = plan = None  # its views of a block's arrays go before a new block's come
            plan = self._plan = self._enter(self.tree.leaf_of(n))
        elif n < plan.leaf.lo:
            raise ValueError(f"step {n} lies before the current leaf {plan.leaf}")
        return plan

    def _enter_block(self, leaf_id: int) -> _Block:
        """Build the covers of the leaves in leaf_id's block, their far
        groups and coefficients: one offdiag call for every exact pair of
        the block, one phi call for every (far member, step) pair, one psi
        call for the ancestors of every leaf about its steps and for its
        far leaves about their own intervals, and one batched product of
        the far leaves' phi with their psi."""
        tree, G, r = self.tree, self.tree.G, self.r
        size, per, leaf0 = tree.leaf_size, self._spans[G // 2], tree.first[G]
        first = leaf_id - (leaf_id - leaf0) % per
        leaf_ids = range(first, first + per)
        covers = [tree.minimal_cover(tree.nodes[i], self.eta) for i in leaf_ids]
        lo, offsets = tree.lo[first:first + per], np.arange(size)
        # each leaf's far group, by the group's first leaf: a group ends at the
        # first leaf for which one of its leaves is admissible, or at the block's end
        reach = tree.lifetimes(self.eta)[1][first:first + per] - (first - leaf0)
        group, end = np.empty(per, dtype=np.intp), 0
        for b, f in enumerate(reach.tolist()):
            group_first, end = (b, f) if b >= end else (group_first, min(end, f))
            group[b] = group_first
        # each leaf's near leaves and the leaf itself, then its far members by
        # generation, then in time
        ids = np.fromiter((i for c, leaf in zip(covers, leaf_ids)
                           for i in (*c.near_ids, leaf, *c.far_ids)), dtype=np.intp)
        nn = np.array([len(c.near_ids) + 1 for c in covers])
        count = nn + [len(c.far_ids) for c in covers]
        del covers
        start = np.cumsum(count) - count
        owner = np.repeat(np.arange(per), count)
        at = np.arange(ids.size) - start[owner]  # place in its leaf's ids
        near = at < nn[owner]
        moment = ~near & (ids < leaf0)  # far non-leaf members come before far leaves
        nmom = np.bincount(owner[moment], minlength=per)
        nfl = count - nn - nmom
        far = np.concatenate([np.flatnonzero(moment), np.flatnonzero(~near & ~moment)])
        nm = int(nmom.sum())
        # each group's far members, the union of its leaves', by generation,
        # then in time; slot maps each leaf's far member to its union entry
        union, slot = np.unique(group[owner[far]] * len(tree.nodes) + ids[far],
                                return_inverse=True)
        ugroup, union = np.divmod(union, len(tree.nodes))
        uleaf = union >= leaf0
        ukind = 2 * ugroup + uleaf  # moment members come before far leaves
        unmom, unfl = np.bincount(ukind, minlength=2 * per).reshape(per, 2).T  # at group firsts
        uat = np.arange(union.size) - np.searchsorted(ukind, ukind)  # place among its kind's
        # Each leaf's ids, then at a group's first leaf the group's far
        # members, cut into runs of consecutive node ids: each leaf's exact
        # runs (kind 0) and each group's runs of moment members (kind 1) and
        # of far leaves (kind 2); a leaf's own far members (kind 3) are only
        # checked.  The far ids restart below the leaf's, and a generation's
        # last node ends at step N, so it is never a member: no run crosses a
        # kind or a generation.
        seg = np.concatenate([2 * owner, 2 * ugroup + 1])
        order = np.argsort(seg, kind="stable")
        seg, members = seg[order], np.concatenate([ids, union])[order]
        kind = np.concatenate([3 - 3 * near, 1 + uleaf])[order]
        col = np.concatenate([at * size, uat * np.where(uleaf, size, r)])[order]
        unit = np.where(kind == 1, r, size)
        cut = np.ones(members.size, dtype=bool)
        cut[1:] = (members[1:] != members[:-1] + 1) | (seg[1:] != seg[:-1])
        run0 = np.flatnonzero(cut)
        length = np.diff(run0, append=members.size)[kind[run0] < 3]
        run0 = run0[kind[run0] < 3]
        p0, c0 = tree.position(members[run0]), col[run0]
        runs = np.stack([tree.generation[members[run0]], p0, p0 + length, kind[run0], c0,
                         c0 + length * unit[run0]], axis=1)
        ids_at = np.searchsorted(seg, 2 * np.arange(per + 1))
        run_at = np.searchsorted(seg[run0], 2 * np.arange(per + 1))
        del at, seg, order, kind, col, unit, cut, run0  # before the coefficient arrays are made
        # every step's exact pairs j < n, at their place in its leaf's weights
        width = nn * size  # exact columns per leaf
        col0 = np.cumsum(width) - width
        js = (tree.lo[ids[near]][:, None] + offsets).ravel()
        col_leaf = np.repeat(owner[near], size)
        s, c = np.nonzero(js < lo[col_leaf] + offsets[:, None])
        k = col_leaf[c]  # the leaf of each pair
        exact = np.zeros(size * width.sum())
        exact[size * col0[k] + s * width[k] + c - col0[k]] = self.weights.offdiag(lo[k] + s, js[c])
        # phi at each leaf step of the far moment members, then of the far leaves
        phi = self._phi(ids[far], lo[owner[far]] + offsets[:, None])  # (step, member, r)
        # the ancestors' psi about each leaf's steps, then each far leaf's
        # psi about its own intervals
        chains = np.array(tree.first[:G]) + (np.arange(per) + first - leaf0)[:, None] // self._spans
        psi_ids = np.concatenate([chains.ravel(), ids[far[nm:]]])
        psi_lo = np.concatenate([np.repeat(lo, G), tree.lo[psi_ids[per * G:]]])
        psi = self._psi(psi_ids[:, None], psi_lo[:, None] + offsets)
        # A group's far weights of each kind have one row per step of its
        # leaves and r columns per moment member (phi) or one per interval of
        # each far leaf (phi @ psi.T), zero where the member is not in that
        # step's leaf's cover; each far member's weights at a step of its
        # leaf are one row of r or leaf size values there.
        steps = size * np.bincount(group, minlength=per)
        nw = steps * np.stack([unmom, unfl])  # rows of each kind per group, at its first leaf
        w0 = np.cumsum(nw, axis=1) - nw
        q = group[owner[far]]
        row = w0[uleaf[slot].astype(int), q] + uat[slot] + np.where(
            uleaf[slot], unfl[q], unmom[q]) * ((owner[far] - q) * size + offsets[:, None])
        far_moments, far_leaves = np.zeros((nw[0].sum(), r)), np.zeros((nw[1].sum(), size))
        far_moments[row[:, :nm]] = phi[:, :nm]
        far_leaves[row[:, nm:]] = np.matmul(
            phi[:, nm:].transpose(1, 0, 2), psi[per * G:].transpose(0, 2, 1)).transpose(1, 0, 2)
        far_w = [(far_moments[a:a + x].reshape(st, -1), far_leaves[c:c + y].reshape(st, -1))
                 if st else () for a, c, x, y, st in zip(*w0.tolist(), *nw.tolist(), steps.tolist())]
        bounds = np.stack([ids_at[:-1], ids_at[1:], run_at[:-1], run_at[1:], size * col0,
                           size * (col0 + width), size * (np.arange(per) - group), count - nn,
                           size * (nn - 1), self.m * ((nn - 1 + nfl) * size + r * nmom)], axis=1)
        return _Block(first, members, runs, exact, far_w, psi, bounds.tolist())

    def _enter(self, leaf: Cluster) -> _LeafPlan:
        """Free the leaf's free list (the nodes whose parent turns admissible
        for it), reserve the blocks of the ancestors whose first leaf this
        is and the leaf's block, and build its plan from its block entry,
        entering the block first if the leaf is its first.  A far group's
        first leaf forms the group's far field, which its leaves read."""
        tree, r, m, G = self.tree, self.r, self.m, self.tree.G
        leaf_id = tree.leaf_id(leaf.lo)
        block = self._block
        if block is None or leaf_id - block.first >= len(block.leaves):
            block = self._block = None  # the old block's arrays go before the new one's come
            block = self._block = self._enter_block(leaf_id)
        b = leaf_id - block.first
        i0, i1, r0, r1, e0, e1, row, nfar, near, ops = block.leaves[b]
        ids, size = block.ids[i0:i1], leaf.size
        k = leaf_id - tree.first[G]  # the leaf's place in time
        self.free_cluster(self._frees[self._free_at[k]:self._free_at[k + 1]])
        new = [g for g, span in enumerate(self._spans) if k % span == 0]  # ancestors first met here
        for g in new:
            moments = self._ancestors[g] = self._reserve(g, k // self._spans[g], k)
            moments.fill(0.0)
        self.counters.allocate(len(new) * r * m)
        rows = self._reserve(G, k, k)
        live = self._live[ids]
        if not live.all():
            raise AssertionError(f"the blocks of {tree.nodes[ids[np.argmin(live)]]} "
                                 "were freed too early")

        weights = (block.exact[e0:e1].reshape(size, -1), *block.far[b])
        if not row:  # the group's first leaf: its far runs go straight into the far field
            self._far = np.zeros((len(weights[1]), m))
        exact = []
        for g, p0, p1, kind, c0, c1 in block.runs[r0:r1].tolist():
            view, w = self._stores[g].view(p0, p1), weights[kind][:, c0:c1]
            if not kind:  # near leaves, or ending with the leaf itself
                exact.append((c0, w, view))
            else:
                self._far += w @ view
        return _LeafPlan(leaf, rows, near, tuple(exact), self._far[row:row + size] if nfar else None,
                         block.psi[b * G:(b + 1) * G].transpose(0, 2, 1), ops)

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
        cluster, with one product, adding each ancestor's row into its
        block."""
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
            for block, moments in zip(self._ancestors, plan.psi_chain @ plan.rows):
                block += moments
        self.counters.update_ops += self.tree.G * self.r * self.m
        self.committed = n

    def free_cluster(self, ids) -> None:
        """Drop the values of the given distinct node ids: a leaf's retained
        vectors, a non-leaf's r moment vectors.  Ids not held (freed
        already, or never held) are a no-op."""
        tree = self.tree
        ids = np.asarray(ids, dtype=np.intp)
        ids = ids[self._live[ids]]
        if not ids.size:  # many leaf entries free nothing
            return
        self._live[ids] = False
        lo = tree.lo[ids[ids >= tree.first[tree.G]]].tolist()  # the leaves among them, few
        kept = sum(min(max(self.committed + 1 - j, 0), tree.leaf_size) for j in lo)
        self.counters.release(self.m * kept + self.r * self.m * (ids.size - len(lo)))

    def run_schedule(self, step_callback) -> None:
        """Full N-step loop: per step, evaluate the history, hand it to the
        stepper callback and commit the vector it returns.  The first query
        or commit in a leaf enters it."""
        for n in range(1, self.tree.mesh.N + 1):
            self.commit_step(n, step_callback(n, self.history_sum(n)))
