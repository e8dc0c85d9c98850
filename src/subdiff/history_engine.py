"""Fast history summation with clustered low-rank far fields and
incremental memory management.

The README's design section tells how the engine plans a run from the
cover lifetimes: the static free lists, the blocks of leaves with their
covers and coefficients, the far groups, the per-generation block stores
and, per block, one entry record per leaf, which its entry only looks
up.  The code relies on three invariants:
  - summation order: a step's exact terms accumulate first, one row after
    another in ascending interval order across its exact runs (its near
    leaves, then its leaf's own earlier intervals), reading only the rows
    with j < n, each run folded by fold_rows into the sum of the ones
    before, and its far-field row is added after them, so an all-near
    cover matches direct_history_sum, which folds with it too, bit for bit;
  - the window rule: store g keeps block p of its generation at
    buf[p - base], and entering leaf k it holds one window of consecutive
    blocks, from the first whose freeing leaf lies past k (a bisection of
    the running maximum of those leaves, made once per node for the leaf
    that reserves it) to its newest.  So each buffer
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

from .clustering import ClusterTree, Cover
from .frac_weights import WeightEngine
from .taylor_expansion import ExpansionParams, phi_coeffs, psi_coeffs


# The C function np.einsum calls when not asked to optimize: the same
# kernel, without the array-function dispatch and the Python wrapper.
try:
    from numpy._core._multiarray_umath import c_einsum
except ImportError:  # numpy 1.x
    try:
        from numpy.core._multiarray_umath import c_einsum
    except ImportError:
        c_einsum = np.einsum

_FLOAT = np.dtype(float)  # commit_step tests a value's dtype by identity with it


def fold_rows(w: np.ndarray, rows: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """acc + w[0] rows[0] + w[1] rows[1] + ... over the rows (at least one)
    of a 2D array: one product and one add per row, in that order, from
    +0.0 if no acc, the running sum carried in, is given.  Both history
    sums fold with it, which keeps them bitwise equal.

    Without acc, over rows of two or more values, it is one einsum pass:
    over C-ordered rows einsum adds each row's products into the zeroed
    sum, row after row.  It calls c_einsum, the C function np.einsum runs
    without optimize, past np.einsum's dispatch and wrapper, or np.einsum
    itself where numpy does not export it; either gives np.einsum's bits.
    These rest on einsum rounding each product before adding it, as x86-64
    baseline numpy builds do; on a build that fuses the two (aarch64 NEON,
    say) the per-pair tests fail.  Over a Fortran-ordered history or a
    single column einsum sums with a dot-product kernel in another order,
    so the rows are made C-ordered (np.ascontiguousarray returns C-ordered
    rows themselves, in less time than a test of their flags).  A single
    column, like a carried sum, takes the products, C-ordered, adds acc
    into the first and reduces along axis 0, which adds row after row over
    rows of two or more values (over Fortran-ordered products it would sum
    each column pairwise); one column, which the reduction would sum
    pairwise too, takes the last row of its running sum.
    """
    if acc is None and rows.shape[1] > 1:
        return c_einsum("j,jm->m", w, np.ascontiguousarray(rows))
    t = np.multiply(w[:, None], rows, order="C")
    t[0] += 0.0 if acc is None else acc
    return np.add.reduce(t, axis=0) if t.shape[1] > 1 else np.add.accumulate(t, axis=0)[-1]


class NonFiniteSolutionError(RuntimeError):
    """Raised when a run's solution at some step is not finite."""


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


def predicted_ops(tree: ClusterTree, r: int, eta: float) -> int:
    """The rhs_ops + update_ops a run of the engine over the tree counts,
    divided by M, which every term carries; exact, from the lifetimes.

    Step s (from 0) of leaf k multiply-accumulates one vector per interval
    of its near and far leaves, r per far moment node and s of its own
    leaf, and each commit counts G r.  Leaf k's near leaves are the leaf
    nodes with enter <= k < adm, its far leaves those with adm <= k < free
    and its far moments the non-leaf nodes with adm <= k < free, so over
    all leaves these counts add up to the lengths of those ranges."""
    enter, adm, free = tree.lifetimes(eta)
    leaf0, size, leaves = tree.first[tree.G], tree.leaf_size, tree.Q ** tree.G
    exact = int((free[leaf0:] - enter[leaf0:]).sum())  # near and far leaves, per leaf
    moments = int((free[:leaf0] - adm[:leaf0]).sum())
    return (size * (size * exact + r * moments) + leaves * size * (size - 1) // 2
            + tree.mesh.N * tree.G * r)


class SolutionSink:
    """Sequential binary stream of solution records.

    Each record is M little-endian float64 values; a text sidecar header
    (written on close) records the run parameters, the record count and,
    if the parameters name the run's step count N, whether the stream is
    complete: `complete 1` once it holds N records, unless it is closed
    as failed, `complete 0` otherwise.  read maps records back from the
    file, before or after close.
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
        data = np.ascontiguousarray(vec, dtype="<f8")
        if self.records and data.size != self.width:
            raise ValueError(f"record of {data.size} values in a stream of {self.width}")
        self._fh.write(data)  # its buffer, without a bytes copy
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

    def close(self, failed: bool = False) -> None:
        """Close the stream and write the header; a stream closed as failed
        reads `complete 0` whatever it holds."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            lines = [f"{k} {v}" for k, v in self.header.items()]
            lines.append(f"records {self.records}")
            if "N" in self.header:
                lines.append(f"complete {int(not failed and self.records == self.header['N'])}")
            self.path.with_suffix(self.path.suffix + ".hdr").write_text(
                "\n".join(lines) + "\n"
            )


class _BlockStore:
    """Room for `blocks` blocks of one tree generation, each `rows` vectors
    of length m; block p sits at buf[p - base].  Blocks are reserved one
    after another, and only reserve changes the buffer."""

    def __init__(self, blocks: int, rows: int, m: int):
        self.buf = np.empty((blocks, rows, m))
        self.flat = self.buf.reshape(-1, m)  # the same values, one row per vector
        self.rows = rows
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
        return self.flat[(p0 - self.base) * self.rows:(p1 - self.base) * self.rows]


class _LeafPlan(NamedTuple):
    """What every step of one leaf needs, built when the leaf is entered
    from its entry record, from the store views taken then and from its
    rows of its far group's far field.  Arrays have one row per step of the
    leaf, row s for step n = lo + s; each exact run pairs its weights with
    a view of the store rows they multiply."""

    lo: int  # the leaf's first and last step
    hi: int
    rows: np.ndarray  # (leaf size, M): the leaf's own block, filled by its commits
    near: int  # exact-weight columns before the leaf's own intervals
    exact: tuple  # (first column, weights, rows) per run of near leaves, the leaf's run last
    far: np.ndarray | None  # (leaf size, M): each step's far field, None if its cover has none
    psi_chain: np.ndarray  # (G, r, leaf size): each ancestor's psi on the leaf, root first
    ops: int  # rhs_ops of a step before the leaf's own earlier intervals


class _Entry(NamedTuple):
    """What entering one leaf does, planned with its block so that the entry
    only looks it up.  Its runs are of consecutive node ids of one
    generation, each with its slice of the leaf's exact weights (one row
    per step) or, at a far group's first leaf, of the group's phi or
    phi @ psi.T (one row per step of the group); ops counts its cover, not
    the group's zero weights.  No array holds an M-length vector."""

    frees: np.ndarray  # its static free list: the ids whose parent turns admissible for it
    reserves: list  # (generation, id, position, window start) per block it reserves, its own last
    held: np.ndarray  # the ids it checks are held: its cover's, and at a group's first its union
    exact: tuple  # (generation, first and end position, first column, weights) per exact run
    far: tuple  # (generation, first and end position, weights) per far run, at a group's first
    group: int  # at a group's first leaf the rows of the group's far field, else 0
    row: int | None  # its first row in that far field, None if its cover has no far member
    near: int  # its plan's near, ops and psi_chain
    ops: int
    psi_chain: np.ndarray


class _Block(NamedTuple):
    """The entry records of the leaves under one node of generation G // 2,
    in time order, built when the schedule enters the first of them and
    dropped when it enters the next block's first."""

    first: int  # node id of the block's first leaf
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
        _, _, free = tree.lifetimes(eta)
        # Entering leaf k, store g holds its blocks from the first whose freeing
        # leaf lies past k (a bisection of their running maximum) to k // span.
        # _start[i] is that first block at the leaf that reserves node i.
        self._start, self._stores = np.empty(first[-1], dtype=np.intp), []
        for g, span in enumerate(self._spans + [1]):
            reach = np.maximum.accumulate(free[first[g]:first[g + 1]])
            p = np.arange(len(reach))
            start = self._start[first[g]:first[g + 1]] = np.searchsorted(reach, p * span, "right")
            w = int((p + 1 - start).max())
            self._stores.append(_BlockStore(min(w + w // 4, len(reach)),
                                            r if g < G else tree.leaf_size, m))
        self.counters.reserved_high_water = sum(s.buf.size for s in self._stores)
        # leaf k, in time order, frees _frees[_free_at[k]:_free_at[k + 1]]
        self._frees = np.argsort(free, kind="stable")
        self._free_at = np.searchsorted(free[self._frees], np.arange(tree.Q**G + 1))
        self.committed = 0
        self._update_ops = G * r * m  # each commit's share of its leaf's moment fold
        self._plan: _LeafPlan | None = None
        self._block: _Block | None = None
        self._far: np.ndarray | None = None  # the current far group's far field

    # -- helpers ------------------------------------------------------------

    def cover_for(self, n: int) -> Cover:
        """The minimal cover of the leaf holding step n, for bench/worker.py's
        cover statistics; the engine reads covers from its block matrices."""
        return self.tree.minimal_cover(self.tree.leaf_of(n), self.eta)

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
        enter, adm, free = tree.lifetimes(self.eta)
        cover = tree.minimal_cover(tree.leaf_of(int(lo[0])), self.eta)
        later = np.flatnonzero((enter > k0) & (enter < k0 + per))
        ids = np.sort(np.concatenate([cover.near_ids + cover.far_ids + (first + per - 1,), later]))
        nids, inner = ids.size, int(np.searchsorted(ids, leaf0))  # non-leaf candidates first
        # one row per leaf k: held where enter <= k < free, and far where also adm <= k
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
        both, link = np.concatenate([ids, ids]), np.zeros((per, 2 * nids + 1), dtype=bool)
        link[:, 1:-1] = sel[:, 1:] & sel[:, :-1] & (np.diff(both) == 1) & (np.diff(kind) == 0)
        run_b, j0 = np.nonzero(sel & ~link[:, :-1])  # link[b, c]: c - 1 and c in one run
        j1 = np.nonzero(sel & ~link[:, 1:])[1] + 1
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
        spans, firsts = np.array(self._spans + [1]), np.array(tree.first[:G + 1])
        chain = firsts + k // spans  # each leaf's ancestors, root first, then itself
        psi_ids = np.concatenate([chain[:, :G].ravel(), ids[far_c[nm:]]])
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
        # each leaf's entry record: the blocks it reserves, those of the generations
        # whose span divides its place k, each with its window's start; its free
        # list; the ids it checks; and its runs with their weights
        res_b, res_g = np.nonzero(k % spans == 0)
        res_i = chain[res_b, res_g]
        reserves = list(zip(res_g.tolist(), res_i.tolist(), (res_i - firsts[res_g]).tolist(),
                            self._start[res_i].tolist()))
        res_at = np.searchsorted(res_b, np.arange(per + 1)).tolist()
        free_at = self._free_at[k0:k0 + per + 1].tolist()
        check_b, check_c = np.nonzero(held | union)
        check, check_at = ids[check_c], np.searchsorted(check_b, np.arange(per + 1)).tolist()
        run_at = np.searchsorted(run_b, np.arange(per + 1))
        bounds = np.stack([run_at[:-1], run_at[1:], size * col0, size * (col0 + width), steps,
                           size * (np.arange(per) - group), nmom + nfl, size * (nn - 1),
                           self.m * ((nn - 1 + nfl) * size + r * nmom)], axis=1)
        runs, psi_chains, leaves = runs.tolist(), psi[:per * G].transpose(0, 2, 1), []
        for b, (r0, r1, e0, e1, st, row, nfar, near, ops) in enumerate(bounds.tolist()):
            mine, weights = runs[r0:r1], (exact[e0:e1].reshape(size, -1), *far_w[b])
            leaves.append(_Entry(
                self._frees[free_at[b]:free_at[b + 1]], reserves[res_at[b]:res_at[b + 1]],
                check[check_at[b]:check_at[b + 1]],
                tuple([(g, p0, p1, c0, weights[0][:, c0:c1]) for g, p0, p1, kind, c0, c1 in mine
                       if not kind]),
                tuple([(g, p0, p1, weights[kind][:, c0:c1]) for g, p0, p1, kind, c0, c1 in mine
                       if kind]) if st else (),  # only a far group's first leaf has far runs
                st, row if nfar else None, near, ops, psi_chains[b * G:(b + 1) * G]))
        return _Block(first, leaves)

    def _enter(self, leaf_id: int) -> _LeafPlan:
        """Enter the leaf by its entry record, entering its block first if
        the leaf is its first: free its static free list, reserve the blocks
        of the ancestors whose first leaf this is and the leaf's own, check
        that the blocks it reads are held and take the store views of its
        runs.  A far group's first leaf forms the group's far field, which
        its leaves read."""
        block = self._block
        if block is None or leaf_id - block.first >= len(block.leaves):
            block = self._block = None  # the old block's arrays go before the new one's come
            block = self._block = self._enter_block(leaf_id)
        entry = block.leaves[leaf_id - block.first]
        self.free_cluster(entry.frees)
        live, stores, G, size = self._live, self._stores, self.tree.G, self.tree.leaf_size
        for g, i, p, start in entry.reserves:  # the leaf's own block last
            live[i] = True
            rows = stores[g].reserve(p, start)
            if g < G:
                rows.fill(0.0)
                self._ancestors[g] = rows
        self.counters.allocate((len(entry.reserves) - 1) * self.r * self.m)
        if not all(live[entry.held].tolist()):
            ids = entry.held[~live[entry.held]]
            raise AssertionError(f"the blocks of {self.tree.clusters(ids[:1])[0]} "
                                 "were freed too early")
        if entry.group:  # its far runs go straight into the far field
            far = self._far = np.zeros((entry.group, self.m))
            for g, p0, p1, w in entry.far:
                far += w @ stores[g].view(p0, p1)
        exact = tuple([(c0, w, stores[g].view(p0, p1)) for g, p0, p1, c0, w in entry.exact])
        lo = (leaf_id - self.tree.first[G]) * size + 1
        return _LeafPlan(lo, lo + size - 1, rows, entry.near, exact,
                         None if entry.row is None else self._far[entry.row:entry.row + size],
                         entry.psi_chain, entry.ops)

    # -- per-step evaluation / commit / free operations ----------------------

    def history_sum(self, n: int) -> np.ndarray:
        """Approximate sum over j < n of beta~_nj * U^j.

        The exact-weight terms accumulate first, one row after another in
        ascending interval order across runs, one fold_rows call per run,
        reading only the rows with j < n, so the all-near path matches the
        direct sum bit for bit; the step's far field, formed when the leaf
        was entered, follows.  A step of the held plan's leaf costs a range
        test; a later one enters its leaf.
        """
        if n == 1:
            return np.zeros(self.m)
        if n > self.committed + 1:
            raise ValueError(f"steps 1..{n-1} must be committed before querying {n}")
        plan = self._plan
        if plan is None or n > plan.hi:
            plan = self._plan = None  # its views of a block's arrays go before a new block's come
            plan = self._plan = self._enter(self.tree.leaf_id(n))
        elif n < plan.lo:
            raise ValueError(f"step {n} lies before the current leaf C({plan.lo}, {plan.hi})")
        s = n - plan.lo
        last = plan.near + s  # exact columns with j < n
        acc = None  # set by the first run: the previous leaf, or the first leaf's own, is exact
        for col, w, rows in plan.exact:
            acc = fold_rows(w[s, :last - col], rows[:last - col], acc)
        if plan.far is not None:
            acc += plan.far[s]
        self.counters.rhs_ops += plan.ops + self.m * s
        return acc

    def commit_step(self, n: int, value: np.ndarray) -> None:
        """Accept U^n: retain it in the leaf's block.  The leaf's last commit
        folds the whole block into the moments of every non-leaf ancestor
        cluster, with one product, adding each ancestor's row into its
        block; first it raises NonFiniteSolutionError, naming the step, if
        one of the leaf's vectors holds a NaN or an infinity.  A value that
        is not an ndarray of M values of numpy's own float64 dtype object is
        converted with np.asarray(value, dtype=float) first; one of another
        length raises ValueError."""
        if n != self.committed + 1:
            raise ValueError(f"expected commit of step {self.committed + 1}, got {n}")
        m = self.m
        if value.__class__ is not np.ndarray or value.dtype is not _FLOAT or value.shape != (m,):
            value = np.asarray(value, dtype=float)
            if value.shape != (m,):
                raise ValueError(f"expected vector of length {m}")
        plan = self._plan
        if plan is None or n > plan.hi:  # in order, so n >= plan.lo
            plan = self._plan = None
            plan = self._plan = self._enter(self.tree.leaf_id(n))
        plan.rows[n - plan.lo] = value
        counters = self.counters  # allocate(M), inline
        counters.live_values += m
        if counters.live_values > counters.high_water:
            counters.high_water = counters.live_values
        if n == plan.hi:
            finite = np.isfinite(plan.rows)
            if not finite.all():
                bad = plan.lo + int(np.argmin(finite.all(axis=1)))
                raise NonFiniteSolutionError(f"the fast run's solution at step {bad} is not finite")
            for block, moments in zip(self._ancestors, plan.psi_chain @ plan.rows):
                block += moments
        counters.update_ops += self._update_ops
        self.committed = n

    def free_cluster(self, ids) -> None:
        """Drop the values of the given distinct node ids: a leaf's retained
        vectors, a non-leaf's r moment vectors.  Ids not held (freed
        already, or never held) are a no-op.  A leaf entry frees a few ids,
        often none, so they are taken one by one."""
        tree, live, n = self.tree, self._live, self.committed + 1
        leaf0, size, kept, moments = tree.first[tree.G], tree.leaf_size, 0, 0
        for i in np.asarray(ids).tolist():
            if live[i]:
                live[i] = False
                if i >= leaf0:
                    kept += min(max(n - int(tree.lo[i]), 0), size)
                else:
                    moments += 1
        self.counters.release(self.m * (kept + self.r * moments))

    def run_schedule(self, step_callback) -> None:
        """Full N-step loop: per step, evaluate the history, hand it to the
        stepper callback and commit the vector it returns.  The first query
        or commit of a leaf's step enters the leaf, once, by its id.

        The loop runs under a 1024-value ufunc buffer, for the broadcast
        weight column of the exact runs that fold_rows multiplies out: those
        that carry a running sum, and every run over a single column.
        Numpy's default 8192 spans several rows, across which that column
        has no one stride and is copied value by value.  try/finally
        restores the caller's size."""
        history_sum, commit_step = self.history_sum, self.commit_step
        saved = np.setbufsize(1024)
        try:
            for n in range(1, self.tree.mesh.N + 1):
                commit_step(n, step_callback(n, history_sum(n)))
        finally:
            np.setbufsize(saved)
