"""Fast history summation with clustered low-rank far fields and
incremental memory management.

The README's design section tells how the engine plans a run from the
cover lifetimes: the static free and enter lists, the blocks of leaves
with their covers and coefficients, the far groups and the per-generation
block stores.  The code relies on three invariants:
  - summation order: a step's exact terms accumulate first, one row after
    another in ascending interval order across its exact runs (its near
    leaves, then its leaf's own earlier intervals), reading only the rows
    with j < n, and its far-field row is added after them, so an all-near
    cover matches direct_history_sum bit for bit;
  - the window rule: store g keeps block p of its generation at
    buf[p - base], and entering leaf k it holds one window of consecutive
    blocks, from the first whose freeing leaf lies past k (a bisection of
    the running maximum of those leaves) to its newest.  So each buffer
    is allocated once, a quarter wider than its widest window; stores
    change only at a leaf entry, and a non-leaf store only when its
    generation's ancestor changes, so the views an entry takes stay valid
    for the whole leaf;
  - the far-group rule: a far group is a run of a block's leaves that
    ends at the first leaf for which one of its leaves is admissible, or
    at the block's end.  So its leaves' far members lie wholly before its
    first leaf and are final, and held, when that leaf is entered, which
    forms the far field of every step of the group; no step reads a far
    member's rows.
No step of a leaf reads its ancestors' moments, so its last commit folds
the whole leaf into them with one product.  Counters track
multiply-accumulates on length-M vectors (M operations each), the
high-water mark of live stored values, and the values the stores'
buffers hold, so the cost and memory bounds can be checked
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
    them and dropped when it enters the next block's first.  ids are its
    candidate nodes, by id.  Leaf k of the block, in time order, has its
    cover's row held[k] and, at a far group's first leaf, the group's far
    members' row union[k], which its entry checks are held; and the
    offsets leaves[k] into the arrays:
      - runs[r0:r1]: its runs of consecutive ids, each (generation, first
        and end position, kind, first and end column in its weights of
        that kind), the near leaves and the leaf itself, then at a group's
        first leaf the group's far runs;
      - exact[e0:e1]: its exact weights, one row per step;
    then its first row in its group's far field, its far member count,
    its exact columns before its own intervals and the rhs_ops of a step
    before those, which count its cover, not the group's zero weights.
    far[k] holds, at a group's first leaf, the group's phi and phi @ psi.T,
    one row per step of the group.  psi[k G:(k + 1) G] is its ancestors'
    psi about its steps, root first.  No array holds an M-length vector."""

    first: int  # node id of the block's first leaf
    ids: np.ndarray
    held: np.ndarray  # (leaves, candidates) bool
    union: np.ndarray
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
        self._live = np.zeros(first[-1], dtype=bool)  # per node id: values held, not freed
        self._ancestors: list = [None] * G  # the current leaf's ancestors' blocks, root first
        self._spans = [tree.Q ** (G - g) for g in range(G)]  # leaves under a generation-g node
        enter, _, free = tree.lifetimes(eta)
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
        # leaf k, in time order, frees _frees[_free_at[k]:_free_at[k + 1]], and its
        # cover is the first to hold _enters[_enter_at[k]:_enter_at[k + 1]]
        self._frees, self._enters = (np.argsort(x, kind="stable") for x in (free, enter))
        self._free_at = np.searchsorted(free[self._frees], np.arange(tree.Q**G + 1))
        self._enter_at = np.searchsorted(enter[self._enters], np.arange(tree.Q**G + 1))
        self.committed = 0
        self._plan: _LeafPlan | None = None
        self._block: _Block | None = None
        self._far: np.ndarray | None = None  # the current far group's far field

    # -- helpers ------------------------------------------------------------

    def _reserve(self, g: int, p: int, k: int) -> np.ndarray:
        """Hold block p of store g, the generation's newest, at leaf k's entry."""
        self._live[self.tree.first[g] + p] = True
        return self._stores[g].reserve(p, int(self._reach[g].searchsorted(k, "right")))

    def cover_for(self, n: int) -> Cover:
        """The minimal cover of the leaf holding step n, for bench/worker.py's
        cover statistics; the engine reads covers from its block matrices."""
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
        """Build the covers of the leaves in leaf_id's block from one
        minimal_cover call and the lifetimes, their far groups and their
        coefficients: one offdiag call for every exact pair of the block, one
        phi call for every (far member, step) pair, one psi call for the
        ancestors of every leaf about its steps and for its far leaves about
        their own intervals, and one batched product of their phi and psi."""
        tree, G, r, lv = self.tree, self.tree.G, self.r, self.tree.mesh.levels
        size, per, leaf0 = tree.leaf_size, self._spans[G // 2], tree.first[G]
        first = leaf_id - (leaf_id - leaf0) % per
        k0, lo, offsets = first - leaf0, tree.lo[first:first + per], np.arange(size)
        # the candidate nodes, by id: those held at the block's first leaf or first
        # held at a later one, and its last leaf, which only its own exact run reads
        cover = tree.minimal_cover(tree.leaf_of(int(lo[0])), self.eta)
        later = self._enters[self._enter_at[k0 + 1]:self._enter_at[k0 + per]]
        ids = np.sort(np.concatenate([cover.near_ids + cover.far_ids + (first + per - 1,), later]))
        nids, inner = ids.size, int(np.searchsorted(ids, leaf0))  # non-leaf candidates first
        # one row per leaf k: held where enter <= k < free, and far where also adm <= k
        enter, adm, free = tree.lifetimes(self.eta)
        k = np.arange(k0, k0 + per)[:, None]
        held = (enter[ids] <= k) & (k < free[ids])
        far = held & (adm[ids] <= k)
        # each leaf's far group, by the group's first leaf: a group ends at the
        # first leaf for which one of its leaves is admissible, or at the block's end
        group, end = np.empty(per, dtype=np.intp), 0
        for b, f in enumerate((adm[first:first + per] - k0).tolist()):
            group_first, end = (b, f) if b >= end else (group_first, min(end, f))
            group[b] = group_first
        starts = np.flatnonzero(group == np.arange(per))
        union = np.zeros_like(far)  # at a group's first leaf, the far members of its leaves
        union[starts] = np.logical_or.reduceat(far, starts)
        # Each leaf's columns of three kinds, in runs of consecutive node ids: its
        # near leaves and itself (kind 0, exact), then at a group's first leaf the
        # group's moment members (kind 1) and far leaves (kind 2); at[b, c] is c's
        # place among its kind's in row b, int32 as it outlives the coefficients.
        sel = np.concatenate([held & ~far | (ids == k + leaf0), union], axis=1)
        kind = np.concatenate([np.zeros(nids, dtype=np.intp), 1 + (ids >= leaf0)])
        at = np.concatenate([np.cumsum(part, axis=1, dtype=np.int32) for part in
                             np.split(sel, [nids, nids + inner], axis=1)], axis=1) - 1
        both = np.concatenate([ids, ids])
        link = sel[:, 1:] & sel[:, :-1] & (np.diff(both) == 1) & (np.diff(kind) == 0)
        run_b, j0 = np.nonzero(sel & ~np.pad(link, ((0, 0), (1, 0))))
        j1 = np.nonzero(sel & ~np.pad(link, ((0, 0), (0, 1))))[1] + 1
        unit = np.where(kind == 1, r, size)[j0]
        p0, c0 = tree.position(both[j0]), at[run_b, j0] * unit
        runs = np.stack([tree.generation[both[j0]], p0, p0 + j1 - j0, kind[j0], c0,
                         c0 + (j1 - j0) * unit], axis=1)
        # every step's exact pairs j < n, at their place in its leaf's weights
        nn = sel[:, :nids].sum(axis=1)
        width = nn * size  # exact columns per leaf
        col0 = np.cumsum(width) - width
        exact_b, exact_c = np.nonzero(sel[:, :nids])
        js = (tree.lo[ids[exact_c]][:, None] + offsets).ravel()
        col_leaf = np.repeat(exact_b, size)
        s, c = np.nonzero(js < lo[col_leaf] + offsets[:, None])
        q = col_leaf[c]  # the leaf of each pair
        exact = np.zeros(size * width.sum())
        exact[size * col0[q] + s * width[q] + c - col0[q]] = self.weights.offdiag(lo[q] + s, js[c])
        # each leaf's far members, the moment members first, each member's leaves together
        far_c, far_b = np.nonzero(far.T)
        nmom, nfl = far[:, :inner].sum(axis=1), far[:, inner:].sum(axis=1)
        nm = int(nmom.sum())
        far_steps = lo[far_b] + offsets[:, None]
        phi = phi_coeffs(self.weights.params.nu, r, tree.midpoint(ids[far_c]),
                         lv[far_steps - 1], lv[far_steps])  # (step, member, r)
        # the ancestors' psi about each leaf's steps, then each far leaf's
        # psi about its own intervals
        chains = np.array(tree.first[:G]) + k // self._spans
        psi_ids = np.concatenate([chains.ravel(), ids[far_c[nm:]]])
        psi_lo = np.concatenate([np.repeat(lo, G), tree.lo[psi_ids[per * G:]]])
        intervals = psi_lo[:, None] + offsets
        psi = psi_coeffs(r, tree.midpoint(psi_ids[:, None]), lv[intervals - 1], lv[intervals])
        # A group's far weights of each kind have one row per step of its
        # leaves and r columns per moment member (phi) or one per interval of
        # each far leaf (phi @ psi.T), zero where the member is not in that
        # step's leaf's cover; each far member's weights at a step of its
        # leaf are one row of r or leaf size values there.
        steps = size * np.bincount(group, minlength=per)
        members = np.stack([union[:, :inner].sum(axis=1), union[:, inner:].sum(axis=1)])
        nw = steps * members  # rows of each kind per group, at its first leaf
        w0 = np.cumsum(nw, axis=1) - nw
        q, is_leaf = group[far_b], (far_c >= inner).astype(np.intp)
        row = w0[is_leaf, q] + at[q, nids + far_c] + members[is_leaf, q] * (
            (far_b - q) * size + offsets[:, None])
        far_moments, far_leaves = np.zeros((nw[0].sum(), r)), np.zeros((nw[1].sum(), size))
        far_moments[row[:, :nm]] = phi[:, :nm]
        far_leaves[row[:, nm:]] = np.matmul(
            phi[:, nm:].transpose(1, 0, 2), psi[per * G:].transpose(0, 2, 1)).transpose(1, 0, 2)
        far_w = [(far_moments[a:a + x].reshape(st, -1), far_leaves[c:c + y].reshape(st, -1))
                 if st else () for a, c, x, y, st in zip(*w0.tolist(), *nw.tolist(), steps.tolist())]
        run_at = np.searchsorted(run_b, np.arange(per + 1))
        bounds = np.stack([run_at[:-1], run_at[1:], size * col0, size * (col0 + width),
                           size * (np.arange(per) - group), nmom + nfl, size * (nn - 1),
                           self.m * ((nn - 1 + nfl) * size + r * nmom)], axis=1)
        return _Block(first, ids, held, union, runs, exact, far_w, psi, bounds.tolist())

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
        r0, r1, e0, e1, row, nfar, near, ops = block.leaves[b]
        ids, size = block.ids[block.held[b] | block.union[b]], leaf.size
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
            raise AssertionError(f"the blocks of {tree.clusters(ids[~live][:1])[0]} "
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
