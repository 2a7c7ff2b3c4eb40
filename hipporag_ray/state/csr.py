"""Partitioned CSR graph shards held by a pool of Ray actors.

The adjacency table (directed expansion of the undirected edge records,
sorted by ``src`` — stages/graph_build.py) is range-partitioned into P
vid shards.  Shard actor *t* owns vids ``[t*S, (t+1)*S)``: it loads its
slice from parquet with row-group pruning and holds the rank / label
state for its range.  Because the adjacency is symmetric (every
undirected record expanded both ways, SimpleGraph.kt:141-147), the
records with ``src`` in the owner's range are exactly the owner's
*incoming* edges read right-to-left — so the same pruned read serves
the pull-model iteration below.

Iteration protocol (pull / broadcast model):

1. every actor publishes one small per-vertex message vector for its
   range (PPR: damping*score/out_weight; CC/LP/coreness: labels) —
   total bytes per iteration = n x B, independent of P;
2. every actor holds its incoming edges in one order, sorted by (own
   vid, source vid), for every algorithm and pool shape, and
   segment-reduces them against the k message CHUNKS, each read where
   it lies (compiled one-pass kernel in state/native.py, which names an
   edge's chunk by a small per-edge chunk id; ``np.*.reduceat``
   fallback over the concatenated message).  With k =
   1 (every pool of at most 7 shards by default) there is no merge hop:
   the P shard messages are the chunks, cut at the shard bounds.  With
   k > 1, k persistent zero-CPU assembler actors merge the PPR slices
   into k chunks of consecutive shards in parallel (a single
   full-matrix assemble was the serial O(n x B) Amdahl term once the
   compiled kernel landed, capping 8->32-CPU scaling at ~0.5) and every
   actor fetches the k objects (zero-copy plasma reads; on a
   multi-node cluster each node fetches each chunk once — the same
   n x B per-node traffic).  Handing k refs to P pulls instead of P
   refs to each of P pulls matters at large P: the driver-side O(P^2)
   ref bookkeeping measured 170-330 ms per iteration at P=63 — more
   than the edge scan itself.  CC/LP/coreness messages are labels
   (n x 8 bytes total — no win from chunk parallelism): each step
   merges whatever label messages it gets (the P shard messages, or
   one assembled on one assembler when k > 1) into the full vector.
   A source's chunk changes neither an owner's rows nor their order,
   so every chunk cut gives the same bits.

Every algorithm runs one ``GraphShard.step`` (pull, then publish the
next message) per shard per iteration, from ``algos/iterate._superstep``.

This replaces a dense scatter all-to-all (P x n x B bytes/iteration)
that measured 10-50x slower than compute at P=32.  Actors are *caches
over the checkpointed parquet partitions* — restart-safe by
construction: a rebuilt actor reloads the same slice and the latest
rank checkpoint.

This is the one place the engine drops below the Dataset API: an
iterative fixpoint over shared mutable shard state is not expressible
as a streaming Dataset plan without re-shuffling the edge set every
iteration (the reference instead holds the whole igraph in one
process, HippoRAG.py:1205-1208).
"""

from __future__ import annotations

import os
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray

from .native import native

_I64_MAX = np.iinfo(np.int64).max

_PERF_ZERO = {
    "kernel_s": 0.0,
    "contrib_s": 0.0,
    "step_s": 0.0,
    "steps": 0,
    "kernel_cpu_s": 0.0,  # thread_time twins of the wall timers
    "step_cpu_s": 0.0,
}


class GraphShard:
    """Plain-python shard state (actor-wrapped below; also used directly
    in unit tests)."""

    def __init__(
        self,
        adj_path: str,
        shard_id: int,
        bounds: np.ndarray,
        n_vertices: int,
        hubs: np.ndarray | None = None,
        precise: bool = False,
        use_native: bool | None = None,
        msg_chunk_bounds: np.ndarray | None = None,
    ):
        """``bounds`` is the shared (P+1,) vid boundary array: shard t
        owns vids [bounds[t], bounds[t+1]).  Boundaries are chosen by
        *edge-count quantiles* of the src-sorted adjacency, not equal
        vid ranges — vids are assigned by node_key sort, which clusters
        the hub entity vertices together, and equal vid ranges put
        nearly the whole edge set on one actor (measured 95% skew).

        Remaining skew bound: one vertex's incoming edges stay on its
        owner, so the max single-vertex degree caps balance.  The scale
        path for degree >> E/P hubs (a tool entity at 10^12 turns) is
        row-range sharding that splits a hub's edge list across actors
        plus a boundary-vertex partial combine — same pull protocol,
        noted in SURVEY.md §4.2.

        ``hubs`` (sorted vid array) is the iteration-level hub salting:
        a hub's incoming reduction would otherwise be one giant segment
        on its owner.  Because the adjacency is symmetric, the
        contribution u->h can be computed at *u's* owner (which holds
        contrib[u] locally) from its row (own=u, other=h).  So every
        actor accumulates a tiny dense (|H|, B) hub-push block during
        the contrib phase — attached to the message it already
        publishes — and owners sum the P blocks in the pull phase.
        The hub's own-side rows are dropped from the segment groups
        (after out-weight computation); each undirected hub edge is
        counted exactly once.  No extra communication rounds."""
        bounds = np.asarray(bounds, dtype=np.int64)
        self.shard_id = shard_id
        # compiled segment kernels (state/native.py): one-pass SpMM /
        # seg-min with float64 accumulation — 8-9x the numpy
        # gather+reduceat path and numerically tighter.  None (no
        # compiler / HIPPORAG_RAY_NO_NATIVE / use_native=False) falls
        # back to the numpy path; results allclose between the two.
        self._kern = native() if use_native is not False else None
        # precise=True keeps the contribution messages float64 (doubles
        # the gather traffic) — for oracle-checked fixed-iteration runs
        # where scores are compared to an external reference at 1e-9,
        # tighter than the float32 message error (~6e-8 relative)
        self.precise = precise
        self._msg_dtype = np.float64 if precise else np.float32
        self.bounds = bounds
        self.n_shards = len(bounds) - 1
        self.n_vertices = n_vertices
        self.lo = int(bounds[shard_id])
        self.hi = int(bounds[shard_id + 1])
        self.local_n = max(0, self.hi - self.lo)

        self.hubs = np.asarray(hubs, dtype=np.int64) if hubs is not None else np.zeros(0, np.int64)
        dset = pads.dataset(adj_path)
        flt = (pads.field("src") >= self.lo) & (pads.field("src") < self.hi)
        if len(self.hubs):
            # hub row-range splitting: a hub's own edge list (degree can
            # be >> E/P) is NEVER loaded by its owner — every hub edge
            # (h, u) is covered by its mirror (u, h) at u's owner, which
            # feeds the hub-push block.  Hub-hub rows are kept (each is
            # the other hub's mirror).  The hub's out-weight is summed
            # from the push-row partials across shards
            # (hub_weight_partials / set_hub_out_weights below).
            hub_list = self.hubs.tolist()
            flt = flt & ~(
                pads.field("src").isin(hub_list) & ~pads.field("dst").isin(hub_list)
            )
        tbl = dset.to_table(columns=["src", "dst", "weight"], filter=flt)
        own = tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64) - self.lo
        other = tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = tbl["weight"].to_numpy(zero_copy_only=False).astype(np.float64)

        # out-weight over the directed expansion == undirected incident
        # weight sum (SimpleGraph.kt:149-152); symmetric, so a non-hub
        # "own" endpoint's incident sum is computable locally.  Hub
        # entries here are partial (hub-hub rows only) and are
        # overwritten by set_hub_out_weights with the cross-shard total.
        self.out_weight = np.bincount(own, weights=w, minlength=self.local_n)
        self._hub_local = None  # local indices of hubs owned by this shard
        if len(self.hubs):
            owned = (self.hubs >= self.lo) & (self.hubs < self.hi)
            self._hub_owned_idx = np.nonzero(owned)[0]
            self._hub_local = self.hubs[owned] - self.lo
            # push side: rows whose OTHER endpoint is a hub, grouped by
            # hub index, sorted for reduceat
            hub_pos = np.searchsorted(self.hubs, other)
            hub_pos[hub_pos >= len(self.hubs)] = len(self.hubs) - 1
            is_push = self.hubs[hub_pos] == other
            p_own = own[is_push]
            p_hub = hub_pos[is_push]
            p_w = w[is_push]
            po = np.argsort(p_hub, kind="stable")
            self._push = (p_own[po], p_hub[po], p_w[po])
            ps = self._push[1]
            self._push_starts = np.concatenate(
                [[0], np.nonzero(np.diff(ps))[0] + 1]
            ).astype(np.int64) if len(ps) else np.zeros(0, np.int64)
            self._push_uniq = ps[self._push_starts] if len(ps) else np.zeros(0, np.int64)
            # drop hub own-side rows from the segment groups: their
            # incoming reduction arrives via the push blocks instead
            hub_own_pos = np.searchsorted(self.hubs, own + self.lo)
            hub_own_pos[hub_own_pos >= len(self.hubs)] = len(self.hubs) - 1
            keep = self.hubs[hub_own_pos] != (own + self.lo)
            own, other, w = own[keep], other[keep], w[keep]
        else:
            self._hub_owned_idx = np.zeros(0, np.int64)
            self._push = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
            self._push_starts = np.zeros(0, np.int64)
            self._push_uniq = np.zeros(0, np.int64)

        # incoming edges in ONE order for every kind and pool shape:
        # sorted by (own, source vid), one segment per owned vertex.
        # ``msg_chunk_bounds`` cut the vid range into the k message
        # chunks a PPR step receives — the pool's assembled chunks, or,
        # in a pool without assemblers, the P shard messages themselves
        # (the shard bounds) — and the kernel reads each source row in
        # the chunk that holds it, named by ``_gcid`` (int16: 2 bytes
        # per edge).  Sources ascend within a segment, so the chunk cut
        # changes neither the rows nor their summation order.  k=1 (the
        # default for directly-constructed shards) is one message
        # covering the whole vid range.
        self._chunk_bounds = (
            np.asarray(msg_chunk_bounds, dtype=np.int64)
            if msg_chunk_bounds is not None
            else np.array([0, n_vertices], dtype=np.int64)
        )
        order = np.lexsort((other, own))
        own, other, w = own[order], other[order], w[order]
        self._starts = np.flatnonzero(np.diff(own, prepend=-1))
        self._uniq = own[self._starts]
        self._gown = own
        self._gother = other  # source vid
        self._gcid = (np.searchsorted(self._chunk_bounds, other, side="right") - 1).astype(np.int16)
        self._gw = w
        self._gw_msg = w.astype(self._msg_dtype)  # msg-dtype copy for the edge scan
        # rows scanned per iteration: incoming rows + hub-push rows
        self.edge_count = len(own) + len(self._push[0])

        # mutable per-algorithm state
        self.scores: np.ndarray | None = None  # (local_n, B) float64
        self.reset: np.ndarray | None = None  # (local_n, B) float64, normalized
        self.labels: np.ndarray | None = None  # (local_n,) int64
        self._core_rows: list | None = None  # coreness pairs, built lazily
        # per-shard phase timers (seconds, cumulative; read+reset via
        # perf_counters) — cheap enough to keep always-on, and the only
        # way to see where an iteration's wall goes without a profiler
        # attached to 63 actor processes
        self._perf = dict(_PERF_ZERO)

    def reload(self, *init_args, **init_kw) -> int:
        """Load another graph slice into this live shard: every attribute
        is dropped before ``__init__`` re-runs, so nothing of the old
        graph (scores, resets, labels, kind flags, core pairs, the
        cached reciprocal out-weights, timers) survives.  Returns the
        new edge count, so a reload doubles as the loading barrier."""
        self.__dict__.clear()
        self.__init__(*init_args, **init_kw)
        return self.get_edge_count()

    def perf_counters(self) -> dict:
        out = dict(self._perf)
        self._perf = dict(_PERF_ZERO)
        return out

    def get_edge_count(self) -> int:
        return int(self.edge_count)

    def hub_weight_partials(self) -> np.ndarray:
        """Per-hub incident-weight partial from this shard's push rows.
        Summed across shards this is the hub's full incident weight —
        every undirected hub edge (h, u) appears exactly once as a row
        (u, h) with ``other`` = h at u's owner."""
        part = np.zeros(len(self.hubs))
        _p_own, _p_hub, p_w = self._push
        if len(p_w):
            part[self._push_uniq] = np.add.reduceat(p_w, self._push_starts)
        return part

    def set_hub_out_weights(self, totals: np.ndarray) -> None:
        """Install the cross-shard hub incident-weight totals for the
        hubs this shard owns (replaces the partial local bincount)."""
        if len(self._hub_owned_idx):
            self.out_weight[self._hub_local] = np.asarray(totals)[self._hub_owned_idx]
            self._inv_w = None  # invalidate the cached reciprocal (ppr_contrib)

    # ------------------------------------------------------------------
    # PPR / PageRank
    # ------------------------------------------------------------------

    def ppr_init(self, n_queries: int, *triples) -> np.ndarray:
        """Set the unnormalized reset from shard-routed (vids, query_idx,
        weight) triples — no dense (n, B) matrix ever exists on the
        driver; duplicate entries sum (np.add.at).  No triples means a
        uniform reset.  Returns local reset column sums for global
        normalization."""
        b = n_queries
        if triples:
            self.reset = np.zeros((self.local_n, b), dtype=np.float64)
            for vids, qidx, w in triples:
                if len(vids):
                    np.add.at(self.reset, (vids - self.lo, qidx), w)
        else:
            self.reset = np.ones((self.local_n, b), dtype=np.float64)
        self.scores = np.full((self.local_n, b), 1.0 / max(self.n_vertices, 1))
        return self.reset.sum(axis=0)

    def load_kinds(self, vertices: str | list[str]) -> int:
        """Load the kind flags for this shard's vid range (pruned read of
        a vertex table directory or of its part files, such as
        ``GraphTables.vertex_parts``); returns the number of chunk
        vertices held."""
        tbl = pads.dataset(vertices).to_table(
            columns=["vid", "kind"],
            filter=(pads.field("vid") >= self.lo) & (pads.field("vid") < self.hi),
        )
        vids = tbl["vid"].to_numpy(zero_copy_only=False).astype(np.int64) - self.lo
        kinds = tbl["kind"].to_numpy(zero_copy_only=False)
        self._is_chunk = np.zeros(self.local_n, dtype=bool)
        self._is_chunk[vids[kinds == "chunk"]] = True
        return int(self._is_chunk.sum())

    def topk_chunk_scores_batch(self, query_idxs, k: int):
        """Per-shard top-k for MANY query columns in one actor call
        (one RPC per shard instead of one per (query, shard) — a
        32-query retrieve over P shards was 32 x P control messages).
        The chunk mask scan and score gather are hoisted ONCE per batch
        (per-query they were O(Q x local_n) on the serving hot path).
        Returns (qidx_rep, vids, scores) concatenated across queries;
        ties break by score desc, vid asc, so the driver's merge of the P
        partial top-ks equals a global sort."""
        query_idxs = list(query_idxs)
        if not query_idxs:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        mask = getattr(self, "_is_chunk", None)
        if mask is None or not mask.any():
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        vids_local = np.nonzero(mask)[0]
        cols = self.scores[vids_local][:, np.asarray(query_idxs, dtype=np.int64)]
        qs, vs, ss = [], [], []
        for j, qi in enumerate(query_idxs):
            s = cols[:, j]
            kk = min(k, len(s))
            if kk < len(s):
                part = np.argpartition(-s, kk - 1)
                cand = np.nonzero(s >= s[part[kk - 1]])[0]
            else:
                cand = np.arange(len(s))
            sel = cand[np.lexsort((vids_local[cand], -s[cand]))[:kk]]
            qs.append(np.full(len(sel), int(qi), dtype=np.int64))
            vs.append(vids_local[sel] + self.lo)
            ss.append(s[sel])
        return np.concatenate(qs), np.concatenate(vs), np.concatenate(ss)

    def _normalized_reset(self, sums) -> np.ndarray:
        totals = np.sum(sums, axis=0)
        out = np.empty_like(self.reset)
        nz = totals > 0
        out[:, nz] = self.reset[:, nz] / totals[nz]
        out[:, ~nz] = 1.0 / max(self.n_vertices, 1)
        return out

    def ppr_normalize_reset(self, *sums) -> None:
        """Normalize reset by the global column sums — the P shards'
        ``ppr_init`` sums added in shard order, the same arithmetic as
        one driver-side sum; all-zero columns -> uniform
        (SimpleGraph.kt:139)."""
        self.reset = self._normalized_reset(sums)

    def reset_digest(self, *sums) -> str:
        """Content digest of this shard's reset slice as normalized by
        ``sums`` (see ``ppr_normalize_reset``; the reset itself is left
        as it is) — checkpoint lineage identity for the seed set.
        Per-shard column SUMS are not enough: two different seed sets
        with equal per-shard mass would collide and resume would
        silently serve a different query's scores."""
        import hashlib

        return hashlib.md5(
            np.ascontiguousarray(self._normalized_reset(sums)).tobytes()
        ).hexdigest()

    def ppr_contrib(self, damping: float, active: np.ndarray):
        """Publish (contrib (local_n, B_active), dangling (B_active,)):
        contrib = damping * score / out_weight (0 for dangling rows).

        out_weight is iteration-invariant, so the reciprocal (zeroed on
        dangling rows — multiplying by 0 replaces the masked assignment)
        and the dangling row list are computed once and cached; the per
        iteration work is one column-take and one broadcast multiply —
        the float64-zeros + np.ix_ + division version measured the same
        order as the edge-scan kernel itself once the kernel was
        prefetch-optimized."""
        import time as _t

        _t0 = _t.perf_counter()
        inv_w = getattr(self, "_inv_w", None)
        if inv_w is None:
            nzm = self.out_weight > 0.0
            inv_w = np.zeros(self.local_n, dtype=np.float64)
            inv_w[nzm] = 1.0 / self.out_weight[nzm]
            self._inv_w = inv_w
            self._dangling_rows = np.nonzero(~nzm)[0]
        # full-active fast path (the common case: every iteration until
        # columns start freezing): scores already has exactly the active
        # columns, so the take is a pure copy — skip it.  The per-vertex
        # row plumbing here and in _pull_chunks, not the edge kernel,
        # was the measured straggler cost on vertex-heavy shards (~9x
        # the edge scan at local_n 39k / B 128), so every avoided
        # local_n x B pass moves the wave's critical path.
        s = (
            self.scores
            if len(active) == self.scores.shape[1]
            else self.scores.take(active, axis=1)
        )
        w = damping * inv_w
        # float32 message (default): halves the gather traffic of the
        # edge scan (the iteration is DRAM-bandwidth-bound); the induced
        # error (~6e-8 relative, contracted each iteration by damping)
        # is two orders below the 1e-6 convergence tolerance.  Dangling
        # and the hub blocks stay float64.  precise=True keeps float64.
        # The multiply casts on store (one fused pass — ufunc computes
        # in float64 and IEEE-rounds into the out dtype, bit-identical
        # to multiply-then-astype at half the traffic).
        msg = np.multiply(
            s, w[:, None], out=np.empty(s.shape, self._msg_dtype), casting="unsafe"
        )
        dangling = (
            s.take(self._dangling_rows, axis=0).sum(axis=0)
            if len(self._dangling_rows)
            else np.zeros(len(active))
        )
        # hub push: contributions from my vertices into hub vertices,
        # computed here (local contrib, float64) and summed by hub
        # owners in the pull phase — the iteration-level salting of
        # hub-entity skew.  Rebuilt from the push ROWS of s (bit-equal
        # to gathering rows of the full float64 contrib matrix, which
        # no longer exists: s[p]*w[p] is elementwise the same multiply).
        hub_push = np.zeros((len(self.hubs), len(active)))
        p_own, _p_hub, p_w = self._push
        if len(p_own):
            vals = (s[p_own] * w[p_own][:, None]) * p_w[:, None]
            hub_push[self._push_uniq] = np.add.reduceat(vals, self._push_starts, axis=0)
        out = (msg, dangling, hub_push)
        self._msg_active = active  # the columns this message covers
        self._perf["contrib_s"] += _t.perf_counter() - _t0
        return out

    _PULL_CHUNK = 32768  # edges per segment-sum block (bounds temp size)

    # wall timers (perf_counter) say where the ITERATION's wall goes;
    # the _cpu twins (thread_time) say how much of that was actual CPU
    # work vs OS descheduling — with 2x oversharding two shards share
    # each core, so wall-in-method alone cannot distinguish a slow
    # kernel from a descheduled one (the r4 8->32 scaling adjudication
    # needed exactly this split)

    def _pull_chunks(self, damping: float, active: np.ndarray, *msgs) -> np.ndarray:
        """PPR pull: next = (1-d)*reset + d*dangling*reset + incoming
        segment sums; update the active columns in place and return the
        per-column L1 delta.  ``msgs`` are the k per-chunk (M_c,
        dangling_partial, hub_partial) tuples of ``_chunk_bounds``: the
        assemblers' chunks, already at ``active`` width (the merge
        subsets the columns), or the P shard messages, which are at the
        width they were published with and so are narrowed here with
        one column take, on the waves after the active set shrank.
        Base ranks first, then one segment-sum pass over all edges that
        reads the chunks in place (compiled kernel), or over the
        concatenated message (blocked-gather numpy fallback).

        On the numpy fallback the edge scan runs in fixed-size blocks
        (snapped to segment boundaries) through a persistent gather
        buffer — a single (E x B) temporary measured 3x slower at low
        shard counts from mmap churn and page faults.  The compiled
        kernel needs no temporary at all."""
        cb = self._chunk_bounds
        if len(msgs) != len(cb) - 1:
            raise ValueError(
                f"ppr step: got {len(msgs)} message chunks, shard has {len(cb) - 1}"
            )
        Ms = [m[0] for m in msgs]
        dangling = np.sum([m[1] for m in msgs], axis=0)
        hub_total = np.sum([m[2] for m in msgs], axis=0)
        if len(dangling) != len(active):
            # every shard published with this shard's ``_msg_active``
            pos = np.searchsorted(self._msg_active, active)
            Ms = [M.take(pos, axis=1) for M in Ms]
            dangling, hub_total = dangling[pos], hub_total.take(pos, axis=1)
        # .take, not reset[:, active]: fancy indexing on axis 1 returns an
        # F-CONTIGUOUS array and numpy arithmetic preserves that layout —
        # the compiled kernel writes C-order and would scatter into wrong
        # cells (caught by its layout guard); take() returns C-order
        import time as _t

        _tk = _t.perf_counter()
        _ck = _t.thread_time()
        full = len(active) == self.scores.shape[1]
        # full-active fast path: skip the column-take copy of reset
        reset = self.reset if full else self.reset.take(active, axis=1)
        # (1-d)*r + d*dang*r = r * ((1-d) + d*dang): one fused pass over
        # the (local_n, B) block instead of three (the per-vertex row
        # plumbing, not the edge kernel, dominates vertex-heavy shards)
        nxt = reset * ((1.0 - damping) + damping * dangling)[None, :]
        if len(self._hub_owned_idx):
            nxt[self._hub_local] += hub_total[self._hub_owned_idx]
        if self._kern is not None:
            # one-pass compiled SpMM: no (edges x B) temporary, each
            # message row read once where it lies, float64 accumulation
            # (so _pull_numpy's oversized-segment escalation is moot)
            self._kern.spmm(
                self._starts, self._uniq, self._gother, self._gcid, self._gw_msg, Ms, cb, nxt
            )
        elif len(self._gown):
            self._pull_numpy(np.concatenate(Ms) if len(Ms) > 1 else Ms[0], nxt)
        if full:
            # no gather, no scatter: diff against the old matrix in one
            # buffer, then REBIND scores to nxt (the fancy-index
            # round-trip measured ~95 ms/iter on a 39k-vertex shard —
            # 4x the edge kernel)
            diff = nxt - self.scores
            np.abs(diff, out=diff)
            delta = diff.sum(axis=0)
            self.scores = nxt
        else:
            old = self.scores[:, active]
            delta = np.abs(nxt - old).sum(axis=0)
            self.scores[:, active] = nxt
        self._perf["kernel_s"] += _t.perf_counter() - _tk
        self._perf["kernel_cpu_s"] += _t.thread_time() - _ck
        return delta

    def _pull_numpy(self, M: np.ndarray, nxt: np.ndarray) -> None:
        """The numpy fallback of the segment-sum pass: ``nxt`` gains the
        incoming sums against the full (n, B) message ``M``."""
        B = M.shape[1]
        if getattr(self, "_buf", None) is None or self._buf.shape[1] != B:
            self._buf = np.empty((self._PULL_CHUNK + 1024, max(B, 1)), dtype=self._msg_dtype)
        buf = self._buf
        starts, uniq, other = self._starts, self._uniq, self._gother
        w32 = self._gw_msg[:, None]
        nseg = len(starts)
        s0 = 0
        while s0 < nseg:
            # take whole segments until ~_PULL_CHUNK edges (a single
            # segment larger than the chunk is processed alone)
            s1 = int(np.searchsorted(starts, starts[s0] + self._PULL_CHUNK, side="left"))
            s1 = max(s1, s0 + 1)
            a = int(starts[s0])
            b = int(starts[s1]) if s1 < nseg else len(other)
            m = b - a
            if m <= buf.shape[0]:
                block = buf[:m, :B]
                np.take(M, other[a:b], axis=0, out=block)
                np.multiply(block, w32[a:b], out=block)
            else:
                # lone oversized segment (high-degree vertex):
                # escalate to float64 — a sequential float32
                # reduceat over a degree-d segment has O(d)*eps32
                # worst-case error, so the float32 message error
                # bound (~6e-8) only holds for segments capped by
                # the chunk size; big segments pay the cast, which
                # is rare by construction (hubs are salted out)
                block = M[other[a:b]].astype(np.float64) * self._gw[a:b, None]
            nxt[uniq[s0:s1]] += np.add.reduceat(block, starts[s0:s1] - a, axis=0)
            s0 = s1

    def scores_table(self, query_idx: int = 0) -> pa.Table:
        vids = np.arange(self.lo, self.hi, dtype=np.int64)
        return pa.table(
            {"vid": vids, "score": self.scores[:, query_idx].astype(np.float64)}
        )

    def scores_matrix(self) -> np.ndarray:
        return self.scores.copy()

    # ------------------------------------------------------------------
    # Connected components (min-label propagation w/ self label)
    # ------------------------------------------------------------------

    def labels_init(self) -> None:
        """Every vertex starts as its own label (CC and LP)."""
        self.labels = np.arange(self.lo, self.hi, dtype=np.int64)

    def labels_msg(self):
        """(labels, [hub_mins]): min neighbor label per hub from my rows."""
        hub_mins = np.full(len(self.hubs), _I64_MAX, dtype=np.int64)
        p_own, _p_hub, _p_w = self._push
        if len(p_own):
            hub_mins[self._push_uniq] = np.minimum.reduceat(
                self.labels[p_own], self._push_starts
            )
        return self.labels, [hub_mins]

    def cc_pull(self, *msgs) -> int:
        global_lab, hub_parts = assemble_labels(msgs)
        nxt = self.labels.copy()
        if self._kern is not None:
            self._kern.segmin(self._starts, self._uniq, self._gother, global_lab, nxt)
        elif len(self._gown):
            mins = np.minimum.reduceat(global_lab[self._gother], self._starts)
            nxt[self._uniq] = np.minimum(nxt[self._uniq], mins)
        if len(self._hub_owned_idx):
            hub_total = np.min(hub_parts, axis=0)
            hl = self._hub_local
            nxt[hl] = np.minimum(nxt[hl], hub_total[self._hub_owned_idx])
        # pointer jumping: the assembled label vector covers the full vid
        # range (bounds are an ordered partition of [0, n)), so
        # shortcutting label -> label(label) is free here and turns
        # O(diameter) convergence into O(log diameter) — plain min-label
        # propagation would never converge on a long path within max_iter
        for _ in range(2):
            nxt = np.minimum(nxt, global_lab[nxt])
        changed = int((nxt != self.labels).sum())
        self.labels = nxt
        return changed

    def labels_table(self, col: str = "component") -> pa.Table:
        vids = np.arange(self.lo, self.hi, dtype=np.int64)
        return pa.table({"vid": vids, col: self.labels.copy()})

    # ------------------------------------------------------------------
    # Label propagation (synchronous, weighted max-vote, min tie-break)
    # ------------------------------------------------------------------

    def lp_msg(self):
        """(labels, [hub_votes (hub_idx, label, wsum)]): per-hub label
        vote partials from my push rows."""
        p_own, p_hub, p_w = self._push
        if len(p_own):
            labs = self.labels[p_own]
            order = np.lexsort((labs, p_hub))
            h2, l2, w2 = p_hub[order], labs[order], p_w[order]
            new_group = np.concatenate([[True], (np.diff(h2) != 0) | (np.diff(l2) != 0)])
            starts = np.nonzero(new_group)[0]
            votes = (h2[starts], l2[starts], np.add.reduceat(w2, starts))
        else:
            votes = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
        return self.labels, [votes]

    def _owned_hub_rows(self, parts):
        """The rows of the P hub partials ``parts`` (hub index, value,
        weight) whose hub this shard owns, with the hub as a local
        vertex index, in shard order."""
        h_idx, vals, ws = (np.concatenate(x) for x in zip(*parts))
        keep = np.isin(h_idx, self._hub_owned_idx)
        return self.hubs[h_idx[keep]] - self.lo, vals[keep], ws[keep]

    def lp_pull(self, *msgs) -> int:
        """Weighted max-vote: every owned vertex adopts the label with
        the largest summed weight over its vote rows (the edge rows,
        owner-grouped and labelled from the merged label vector; an
        owned hub's rows are its vote partials, in shard order), a tie
        going to the smallest label; a vertex with no rows keeps its
        label.  An owned hub has no edge rows (its own-side rows are
        dropped at load), so its partials are inserted at its place in
        the owner order and every owner's rows stay one run.  With the
        compiled kernels one ``lp_vote`` pass tallies each run's labels
        in a hash table, summing in row order as ``lp_oracle`` does.
        The numpy fallback groups by two lexsorts and sums with
        ``np.add.reduceat``, whose pairwise order can differ in the
        last bit; both pick the same labels unless two sums tie within
        rounding."""
        global_lab, vote_parts = assemble_labels(msgs)
        own_c, lab_c, w_c = self._gown, global_lab[self._gother], self._gw
        if len(self._hub_owned_idx):
            h_own, h_lab, h_w = self._owned_hub_rows(vote_parts)
            o = np.argsort(h_own, kind="stable")
            at = np.searchsorted(own_c, h_own[o])
            own_c, lab_c, w_c = (
                np.insert(a, at, h[o]) for a, h in ((own_c, h_own), (lab_c, h_lab), (w_c, h_w))
            )
        nxt = self.labels.copy()
        if len(own_c):
            if self._kern is not None:
                self._kern.lp_vote(own_c, lab_c, w_c, nxt)
            else:
                order = np.lexsort((lab_c, own_c))
                d2, l2, w2 = own_c[order], lab_c[order], w_c[order]
                new_group = np.concatenate([[True], (np.diff(d2) != 0) | (np.diff(l2) != 0)])
                starts = np.nonzero(new_group)[0]
                wsum = np.add.reduceat(w2, starts)
                d3, l3 = d2[starts], l2[starts]
                # winner per own vid: max wsum, tie -> smallest label
                order2 = np.lexsort((l3, -wsum, d3))
                d4 = d3[order2]
                first = np.concatenate([[True], np.diff(d4) != 0])
                nxt[d4[first]] = l3[order2][first]
        changed = int((nxt != self.labels).sum())
        self.labels = nxt
        return changed

    # ------------------------------------------------------------------
    # Coreness (k-core decomposition) by synchronous h-index iteration
    # (Lü et al. 2016: init = degree, value <- H(neighbor values);
    # monotonically non-increasing, converges to the core number)
    # ------------------------------------------------------------------

    def core_degree_partial(self) -> np.ndarray:
        """Phase-1 init collective: cache this shard's edge-row degree
        of its owned range and return the per-hub push-row counts —
        summed across shards these are exactly the hubs' degrees (every
        hub edge (h, u) appears once as a push row (u, h) at u's
        owner; hub own-side rows are dropped from the edge rows).

        Core numbers are those of the simple graph (``coreness_oracle``):
        the degree and the h-index multisets count distinct (owner,
        neighbour) pairs, never a parallel record (build_graph can
        write several records per vertex pair) or a self-loop.  The distinct
        pairs are built on the first call, not at shard load, so shards
        that never run coreness do not pay for them."""
        if self._core_rows is None:
            self._build_core_pairs()
        self._core_deg = np.bincount(self._core_rows[0], minlength=self.local_n)
        return np.bincount(self._core_push[1], minlength=len(self.hubs)).astype(np.int64)

    def _build_core_pairs(self) -> None:
        """The (own, source vid) edge rows with parallel records and
        self-loops dropped, and the hub-push rows (own, hub index)
        likewise.  A pair's records all sit on its owner's shard, so
        the dedup is local."""
        own, other = self._gown, self._gother
        keep = own + self.lo != other
        # rows are (own, other)-sorted, so a parallel record sits right
        # after its twin
        keep[1:] &= (own[1:] != own[:-1]) | (other[1:] != other[:-1])
        self._core_rows = (own[keep], other[keep])
        p_own, p_hub, _p_w = self._push
        keep = p_own + self.lo != self.hubs[p_hub]
        p_own, p_hub = p_own[keep], p_hub[keep]
        _, first = np.unique(p_hub * max(self.local_n, 1) + p_own, return_index=True)
        self._core_push = (p_own[first], p_hub[first])

    def core_init(self, *hub_parts) -> None:
        """Start every owned vertex at its degree: the edge-row degree
        cached by this shard's ``core_degree_partial``, plus, for an owned
        hub, its push-row count summed over the P shards' partials
        ``hub_parts`` in shard order."""
        deg = self._core_deg.copy()
        if len(self._hub_owned_idx):
            hub_deg = np.sum(hub_parts, axis=0)
            deg[self._hub_local] += hub_deg[self._hub_owned_idx]
        self.labels = deg  # coreness state rides the labels slot
        # a fresh run must not inherit the previous run's active-set
        # baseline (load_state clears it for a resumed one)
        self._core_prev_global = None

    def core_msg(self):
        """(values, [hub COO (hub_idx, value, count)]): per-hub neighbor
        value multisets from my push rows, run-length compressed."""
        if self._core_rows is None:  # a resumed run skips core_degree_partial
            self._build_core_pairs()
        p_own, p_hub = self._core_push
        if len(p_own):
            vals = self.labels[p_own]
            order = np.lexsort((vals, p_hub))
            h2, v2 = p_hub[order], vals[order]
            new_group = np.concatenate([[True], (np.diff(h2) != 0) | (np.diff(v2) != 0)])
            starts = np.nonzero(new_group)[0]
            cnt = np.diff(np.concatenate([starts, [len(h2)]])).astype(np.int64)
            coo = (h2[starts], v2[starts], cnt)
        else:
            z = np.zeros(0, np.int64)
            coo = (z, z, z)
        return self.labels, [coo]

    def core_pull(self, *msgs) -> int:
        global_vals, coo_parts = assemble_labels(msgs)
        # exact active-set skip: x_t(v) = min(x_{t-1}(v), H(nbr values))
        # is unchanged when no neighbor value moved since v's last
        # recompute (H input identical and the min guard already
        # applied), so only vertices with a changed neighbor re-enter
        # the lexsort — the per-iteration cost tracks the moving
        # frontier, not the graph (the h-index tail runs many
        # iterations with few movers).  Hubs stay always-dirty (their
        # COO parts are cheap and diffing them is not).
        prev = getattr(self, "_core_prev_global", None)
        self._core_prev_global = global_vals  # a fresh array: the merge copies
        own_c, other_c = self._core_rows
        val_c = global_vals[other_c]
        if prev is not None and len(prev) == len(global_vals):
            changed_g = global_vals != prev
            dirty = np.zeros(self.local_n, dtype=bool)
            if changed_g.any() and len(self._gown):
                ch = changed_g[self._gother]
                dirty[self._uniq] = np.maximum.reduceat(ch, self._starts).astype(bool)
            m = dirty[own_c]
            own_c, val_c = own_c[m], val_c[m]
        cnt_c = np.ones(len(own_c), np.int64)
        if len(self._hub_owned_idx):
            own_c, val_c, cnt_c = (
                np.concatenate(p) for p in zip((own_c, val_c, cnt_c), self._owned_hub_rows(coo_parts))
            )
        nxt = self.labels.copy()
        if len(own_c):
            # weighted h-index per owned vertex: sort (own, value desc),
            # running count C within the group, h = max min(value, C)
            order = np.lexsort((-val_c, own_c))
            o2, v2, c2 = own_c[order], val_c[order], cnt_c[order]
            new_group = np.concatenate([[True], np.diff(o2) != 0])
            starts = np.nonzero(new_group)[0]
            C = np.cumsum(c2)
            group_id = np.cumsum(new_group) - 1
            offs = (C[starts] - c2[starts])[group_id]
            cand = np.minimum(v2, C - offs)
            h = np.maximum.reduceat(cand, starts)
            heads = o2[starts]
            # min() guards monotonicity against any message ordering
            # edge case; theoretically h <= current already
            nxt[heads] = np.minimum(self.labels[heads], h)
        changed = int((nxt != self.labels).sum())
        self.labels = nxt
        return changed

    # ------------------------------------------------------------------
    # the one superstep contract
    # ------------------------------------------------------------------

    def step(self, kind: str, *args):
        """One superstep in ONE actor call: pull the merged message,
        then publish the next one from the updated state (bit-identical
        to separate pull and publish waves).  ``args`` are the
        ``message`` params, then the messages — top-level args, so Ray
        auto-derefs them: for ``ppr`` (params damping, active) the k
        message chunks of ``_chunk_bounds`` (the assemblers' chunks, or
        the P shard messages in a pool without assemblers), read where
        they lie; for ``cc``/``lp``/``coreness`` any number of label
        messages (the P shard messages, or one assembled one), merged
        by ``assemble_labels``.  Returns, for ``ppr``, (per-column L1
        delta, next contrib); for the label kinds, (changed count, next
        label message)."""
        import time as _t

        _ts = _t.perf_counter()
        _cs = _t.thread_time()
        pull, publish = self._KINDS[kind]
        params = args[:2] if kind == "ppr" else ()
        out = pull(self, *args), publish(self, *params)
        self._perf["step_s"] += _t.perf_counter() - _ts
        self._perf["step_cpu_s"] += _t.thread_time() - _cs
        self._perf["steps"] += 1
        return out

    def message(self, kind: str, *args, init: bool = False):
        """``kind``'s message from the current state — the prologue wave
        before the first ``step``.  ``args`` are the kind's params
        (``ppr``: damping, active; the label kinds have none), then,
        with ``init``, the args of the kind's init, which runs first:
        ``ppr_normalize_reset`` on the P shards' ``ppr_init`` column
        sums, ``labels_init`` for ``cc``/``lp``, ``core_init`` on the P
        shards' ``core_degree_partial`` counts.  A call's first wave so
        depends on every shard's init through its data, and no driver
        barrier sits between them.  Without ``init`` (a resumed label
        run) the message is the loaded state's."""
        n = 2 if kind == "ppr" else 0
        if init:
            self._INITS[kind](self, *args[n:])
        return self._KINDS[kind][1](self, *args[:n])

    # kind -> (pull, publish)
    _KINDS = {
        "ppr": (_pull_chunks, ppr_contrib),
        "cc": (cc_pull, labels_msg),
        "lp": (lp_pull, lp_msg),
        "coreness": (core_pull, core_msg),
    }
    # kind -> the init ``message(..., init=True)`` runs before publishing
    _INITS = {
        "ppr": ppr_normalize_reset,
        "cc": labels_init,
        "lp": labels_init,
        "coreness": core_init,
    }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def get_group_rows(self) -> int:
        """Segment-scan edge rows on this shard, excluding hub-push rows
        (diagnostic for partition-balance tests)."""
        return int(len(self._gown))

    def save_state(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols: dict[str, pa.Array] = {
            "vid": pa.array(np.arange(self.lo, self.hi, dtype=np.int64))
        }
        if self.scores is not None:
            for b in range(self.scores.shape[1]):
                cols[f"score_{b}"] = pa.array(self.scores[:, b])
        if self.labels is not None:
            cols["label"] = pa.array(self.labels)
        tmp = path + ".tmp"
        pq.write_table(pa.table(cols), tmp)
        os.replace(tmp, path)

    def load_state(self, path: str, n_queries: int = 0) -> None:
        tbl = pq.read_table(path)
        if n_queries:
            self.scores = np.stack(
                [tbl[f"score_{b}"].to_numpy() for b in range(n_queries)], axis=1
            ).astype(np.float64)
        if "label" in tbl.column_names:
            self.labels = tbl["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            # coreness's active-set baseline belongs to the replaced labels
            self._core_prev_global = None


def assemble_ppr(msgs, pos=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the PPR contrib messages of one chunk's shard group into a
    broadcast payload: the chunk's message matrix (shard slices
    concatenated in bounds order), the summed dangling mass and the
    summed hub-push block.  In a pool with k > 1 message chunks the
    driver runs it on a persistent zero-CPU assembler actor
    (``_ChunkAssembler``), one call per chunk per iteration, and hands
    the output refs to every step — each node then fetches the chunks
    once per iteration (n x B bytes, the same per-node traffic as
    fetching all P slices) instead of the driver inlining P refs into P
    calls (O(P^2) borrow registrations, the measured iteration-wall
    dominator at P=63).

    ``pos`` (optional int64 positions into the message columns) fuses
    the active-set column subset into the assemble: when the active set
    shrank since the messages were published, the chunk is built
    directly at the new width (one fill per slice, no full-width
    intermediate).  Without this, every consumer shard re-subset the
    full chunk matrices itself — O(n x B) PER SHARD, so total subset
    work scaled with P: at P=64 on the dense bench graph that memcpy
    measured 54.5 s of the 105.7 s total in-actor step time, the single
    largest term of the 8->32-CPU single-box scaling gap.  Here it is
    k x (n/k x B_now) total — P-independent.  (A pool without
    assemblers has at most 7 shards by default, and there each step
    narrows the P messages it reads, ``GraphShard._pull_chunks``.)"""
    if pos is not None:
        pos = np.asarray(pos, dtype=np.int64)
        rows = [m[0] for m in msgs]
        total = sum(r.shape[0] for r in rows)
        M = np.empty(
            (total, len(pos)), dtype=rows[0].dtype if rows else np.float32
        )
        r0 = 0
        for r in rows:
            np.take(r, pos, axis=1, out=M[r0 : r0 + r.shape[0]])
            r0 += r.shape[0]
        dangling = np.sum([m[1] for m in msgs], axis=0)[pos]
        hub_total = np.sum([m[2] for m in msgs], axis=0).take(pos, axis=1)
        return M, dangling, hub_total
    M = np.concatenate([m[0] for m in msgs], axis=0)
    dangling = np.sum([m[1] for m in msgs], axis=0)
    hub_total = np.sum([m[2] for m in msgs], axis=0)
    return M, dangling, hub_total


def assemble_labels(msgs) -> tuple[np.ndarray, list]:
    """Merge label messages (labels, [hub partials]) in bounds order:
    the (n,) label vector plus the list of the per-shard hub partials
    (CC: per-hub mins; LP: vote triples; coreness: value COO) — the
    partials are hub-sized, so they ride along unreduced.  A merged
    message has the same form, so merging it again (a step handed one
    assembler's output) gives it back."""
    return np.concatenate([m[0] for m in msgs]), [p for m in msgs for p in m[1]]


class _ChunkAssembler:
    """Persistent zero-CPU actor that merges one message chunk per
    iteration; a pool has k of them when it has k > 1 message chunks
    and none at k = 1, where each step reads the P shard messages in
    place and the wave saves an actor hop.  PLAIN ray tasks here caused
    worker-process churn: the raylet reaps idle task workers above the
    CPU count between PPR calls, so each call's first iterations paid
    ~1 s of fresh-worker spawn + import (observed as 134 spawned
    workers and 2-20x iteration-wall spikes).  Actors pin the process for the pool's
    lifetime.  num_cpus=0: the shard pool reserves all-but-one core
    while its actors sit IDLE waiting on exactly these memcpy calls."""

    def assemble_ppr(self, pos, *msgs):
        return assemble_ppr(msgs, pos)

    def assemble_labels(self, *msgs):
        return assemble_labels(msgs)


ChunkAssemblerActor = ray.remote(num_cpus=0)(_ChunkAssembler)


GraphShardActor = ray.remote(GraphShard)


# Shard-balance cost model: one vertex costs about this many edge
# traversals per PPR iteration.  The pull's per-vertex row plumbing
# (reset scale into nxt, delta reduction, score swap, contrib multiply
# + dangling rows) and the per-edge kernel work both scale linearly
# with the active column count B, so the ratio is ~B-independent;
# measured ~46 on the dense bench graph (39k-vertex shard: 41 ms of
# row plumbing vs 22.5 ns/edge over 1.05M edges at B=128) after the
# r5 fast-path rewrite.  Bounds from pure edge quantiles made that
# shard a 2.4x wave straggler; balancing degree + this constant splits
# vertex-dense vid ranges across shards instead.
VERTEX_EDGE_COST = 48

# at most this many hubs (the highest degrees above the hub threshold)
_MAX_HUBS = 1024


def _hub_cap(total_rows: int, n_shards: int, hub_min_degree: int | None) -> int:
    """Hub-degree threshold — ONE definition for both the exact and the
    row-group-stats bounds paths, so the same graph classifies hubs
    identically on either side of the stats_min_rows cutover."""
    if hub_min_degree is not None:
        return hub_min_degree
    return max(4096, (2 * total_rows) // max(n_shards, 1))

def _bounds_from_rowgroup_stats(
    adj_path: str,
    n_vertices: int,
    n_shards: int,
    hub_min_degree: int | None,
    file_metas: list | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Shard bounds + hub list from parquet ROW-GROUP STATISTICS only —
    the adjacency is src-sorted, so each row group's (min, max, rows)
    triple locates its edge mass without touching data pages.  This is
    the cluster-scale path: metadata bytes instead of an O(E) driver
    column read.  Returns None when any row group lacks src min/max
    stats (caller falls back to the exact column pass).

    Granularity caveats vs the exact pass: boundaries snap to row-group
    edges, and only hubs whose edge lists span whole row groups
    (min == max) are detected — both are performance-, not
    correctness-affecting (the iteration math is partition-invariant,
    verified in tests)."""
    stats: list[tuple[int, int, int]] = []  # (min_src, max_src, rows)
    if file_metas is None:
        file_metas = [
            pq.ParquetFile(f).metadata for f in pads.dataset(adj_path).files
        ]
    for md in file_metas:
        if md.num_row_groups == 0:
            continue
        src_idx = None
        first = md.row_group(0)
        for j in range(first.num_columns):
            if first.column(j).path_in_schema == "src":
                src_idx = j
                break
        if src_idx is None:
            continue
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            col = rg.column(src_idx)
            st = col.statistics
            if st is None or not st.has_min_max:
                return None
            stats.append((int(st.min), int(st.max), int(rg.num_rows)))
    if not stats:
        return np.array([0, n_vertices], dtype=np.int64), np.zeros(0, np.int64)
    stats.sort()
    rows = np.array([s[2] for s in stats], dtype=np.int64)
    mins = np.array([s[0] for s in stats], dtype=np.int64)
    maxs = np.array([s[1] for s in stats], dtype=np.int64)
    total = int(rows.sum())

    # hubs: accumulate rows of single-vid row groups per vid
    cap = _hub_cap(total, n_shards, hub_min_degree)
    single = mins == maxs
    hubs = np.zeros(0, np.int64)
    if single.any():
        vids, inv = np.unique(mins[single], return_inverse=True)
        deg = np.bincount(inv, weights=rows[single])
        hub_ids = vids[deg > cap]
        if len(hub_ids) > _MAX_HUBS:
            hub_ids = hub_ids[np.argsort(-deg[deg > cap], kind="stable")[:_MAX_HUBS]]
        hubs = np.sort(hub_ids).astype(np.int64)

    if n_shards <= 1:
        return np.array([0, n_vertices], dtype=np.int64), hubs
    # quantile cuts over the COMBINED cost (non-hub edge mass +
    # VERTEX_EDGE_COST per vid), snapped to row-group min_src — the
    # same cost model as the exact path below, evaluated only at the
    # snap points the metadata gives us: a cut at mins_bal[i] owns all
    # edges of earlier groups plus the per-vertex row-plumbing cost of
    # every vid below it (vids with zero edges still carry score/reset
    # rows, so the vertex term uses the vid itself, not a group count)
    if len(hubs):
        keep = ~(single & np.isin(mins, hubs))
        rows_bal, mins_bal = rows[keep], mins[keep]
    else:
        rows_bal, mins_bal = rows, mins
    if rows_bal.sum() == 0:
        rows_bal, mins_bal = rows, mins
    edges_before = np.concatenate([[0], np.cumsum(rows_bal)[:-1]])
    cost_at = edges_before + VERTEX_EDGE_COST * mins_bal
    total_cost = int(rows_bal.sum()) + VERTEX_EDGE_COST * n_vertices
    targets = (np.arange(1, n_shards, dtype=np.int64) * total_cost) // n_shards
    idx = np.searchsorted(cost_at, targets, side="left")
    cuts = np.unique(mins_bal[np.minimum(idx, len(mins_bal) - 1)])
    cuts = cuts[(cuts > 0) & (cuts < n_vertices)]
    return (
        np.concatenate([[0], cuts, [n_vertices]]).astype(np.int64),
        hubs,
    )


# row-count threshold above which bounds come from row-group metadata
# instead of reading the src column (the O(E) driver pass)
_STATS_BOUNDS_MIN_ROWS = 50_000_000


def edge_balanced_bounds(
    adj_path: str,
    n_vertices: int,
    n_shards: int,
    hub_min_degree: int | None = None,
    stats_min_rows: int = _STATS_BOUNDS_MIN_ROWS,
) -> tuple[np.ndarray, np.ndarray]:
    """Shard boundaries at edge-count quantiles of the src-sorted
    adjacency (snapped to vertex boundaries), plus the hub-vertex list
    (degree above the threshold — default max(4096, 2·E/P), or the
    explicit ``hub_min_degree``; top ``_MAX_HUBS``) whose incoming
    reductions are salted across all shards.

    Small inputs read only the ``src`` column (int64, exact quantiles);
    past ``stats_min_rows`` the pass switches to parquet row-group
    statistics (:func:`_bounds_from_rowgroup_stats`) — metadata only,
    no data pages, which is what survives a 100-TB adjacency."""
    dset = pads.dataset(adj_path)
    # one footer pass: the same per-file metadata feeds the row-count
    # gate AND the stats-based bounds (a 100-TB adjacency in tens of
    # thousands of files pays one metadata round-trip per file, not two)
    file_metas = [pq.ParquetFile(f).metadata for f in dset.files]
    total_rows = sum(md.num_rows for md in file_metas)
    if total_rows >= stats_min_rows:
        got = _bounds_from_rowgroup_stats(
            adj_path,
            n_vertices,
            n_shards,
            hub_min_degree,
            file_metas=file_metas,
        )
        if got is not None:
            return got
    src = dset.to_table(columns=["src"])["src"].to_numpy(
        zero_copy_only=False
    )
    if len(src) == 0:
        return np.array([0, n_vertices], dtype=np.int64), np.zeros(0, np.int64)
    deg = np.bincount(src.astype(np.int64), minlength=n_vertices)
    cap = _hub_cap(len(src), n_shards, hub_min_degree)
    hub_ids = np.nonzero(deg > cap)[0]
    if len(hub_ids) > _MAX_HUBS:
        hub_ids = hub_ids[np.argsort(-deg[hub_ids], kind="stable")[:_MAX_HUBS]]
    hubs = np.sort(hub_ids).astype(np.int64)
    if n_shards <= 1:
        return np.array([0, n_vertices], dtype=np.int64), hubs
    # quantiles over the COMBINED per-vid cost (non-hub degree +
    # VERTEX_EDGE_COST): hub segments no longer live on their owner, so
    # their edges should not skew the boundary placement; the vertex
    # term keeps vertex-dense/edge-sparse vid ranges from piling onto
    # one shard (pure edge quantiles gave one shard 39k of 102k
    # vertices on the dense bench graph — its per-vertex row plumbing
    # made it the 2.4x wave straggler)
    deg_bal = deg.astype(np.int64)  # astype copies: safe to zero hubs in place
    if len(hubs):
        deg_bal[hubs] = 0
    cum = np.cumsum(deg_bal + VERTEX_EDGE_COST)
    targets = (np.arange(1, n_shards, dtype=np.int64) * int(cum[-1])) // n_shards
    cuts = np.unique(np.searchsorted(cum, targets, side="left") + 1)
    cuts = cuts[(cuts > 0) & (cuts < n_vertices)]
    return np.concatenate([[0], cuts, [n_vertices]]).astype(np.int64), hubs


def _trim(actors: list, n: int) -> list:
    """The first ``n`` actors; the surplus is killed."""
    for a in actors[n:]:
        ray.kill(a)
    return actors[:n]


# this process's shard pools; each reserves CPUs out of what the
# others leave (see ShardedGraph._reload)
_POOLS: "weakref.WeakSet[ShardedGraph]" = weakref.WeakSet()


class ShardedGraph:
    """Pool of GraphShard actors covering the full vid range."""

    def __init__(
        self,
        adj_path: str,
        n_vertices: int,
        n_shards: int | None = None,
        min_shard_size: int = 1024,
        hub_min_degree: int | None = None,
        precise: bool = False,
        bounds_stats_min_rows: int | None = None,
        msg_chunks: int | None = None,
    ):
        self._opts = dict(
            n_shards=n_shards,
            min_shard_size=min_shard_size,
            hub_min_degree=hub_min_degree,
            precise=precise,
            bounds_stats_min_rows=bounds_stats_min_rows,
            msg_chunks=msg_chunks,
        )
        # one spawn/load path: a new pool is a reload of an empty one
        self.actors: list = []
        self.assemblers: list = []
        self.cpu_per_shard: float | None = None
        _POOLS.add(self)
        self.reload(adj_path, n_vertices)

    def reload(self, adj_path: str, n_vertices: int) -> None:
        """Point the pool at another graph with its own constructor
        options: bounds, hubs and message chunks are re-planned, and the
        live shard actors reload their new slices in place
        (``GraphShard.reload``) instead of being respawned — on one
        core, spawning and warming a 2-shard pool took ~2 s, loading
        its slices 0.02-0.04 s.  A
        changed shard count keeps the first min(old, new) actors, spawns
        the missing ones and kills the surplus (assemblers alike); a
        changed ``cpu_per_shard`` respawns the whole pool, since the old
        reservations would overcommit the cluster.  On any failure the
        pool is shut down and the error re-raised."""
        try:
            self._reload(adj_path, n_vertices)
        except BaseException:
            self.shutdown()
            raise

    def _reload(self, adj_path: str, n_vertices: int) -> None:
        o = self._opts
        # warm the compiled-kernel cache on the driver first: the shard
        # actors then CDLL the cached .so instead of racing 63 parallel
        # compiles on first use (node-local cache; other nodes of a real
        # cluster compile once each on first shard load)
        native()
        cpus = int(ray.cluster_resources().get("CPU", 8))
        n_shards = o["n_shards"]
        if n_shards is None:
            # Shard-count default, re-measured after the compiled pull
            # kernel landed (the pre-kernel 2x-oversharding figure is
            # stale): small pools still want 2x oversharding to smooth
            # scheduling stragglers (2 CPUs: 4 shards 3.69 B edges/s vs
            # 2 shards 3.28 B on the dense graph), but once the wave's
            # kernel cost shrinks the per-shard RPC floor dominates and
            # extra shards only add dispatch (32 CPUs, sf0.1 quiet:
            # 32 shards 16.2 B vs 63 shards 12.8 B; 8 CPUs: 12 shards
            # 9.15 B vs 16 shards 8.0 B) — so cap the oversharding at
            # ~12 shards: min(2 x cpus, max(cpus, 12)).  Single-box
            # tune: a real multi-node pool amortizes the dispatch floor
            # per node, so per-node 2x oversharding stays right there —
            # pass n_shards explicitly on a cluster.
            target = min(2 * cpus, max(cpus, 12))
            n_shards = max(1, min(target, -(-n_vertices // o["min_shard_size"])))
        bounds_kw = (
            {"stats_min_rows": o["bounds_stats_min_rows"]}
            if o["bounds_stats_min_rows"] is not None
            else {}
        )
        self.bounds, self.hubs = edge_balanced_bounds(
            adj_path, n_vertices, n_shards, o["hub_min_degree"], **bounds_kw
        )
        n_shards = len(self.bounds) - 1
        self.n_vertices = n_vertices
        self.n_shards = n_shards
        self.adj_path = adj_path
        # message-chunk groups: the per-iteration broadcast matrix is
        # assembled as k chunk objects by k parallel zero-CPU assembler
        # actors (consecutive shard groups cut at vertex-count
        # quantiles, so each chunk copies ~n/k rows) instead of one
        # serial full concat — the serial O(n x B) assemble was the Amdahl term
        # that capped 8->32-CPU scaling at ~0.5 once the compiled pull
        # kernel landed.  ~8 shards per chunk keeps the per-pull ref
        # fan-out at k x P << P x P (the measured borrower-storm
        # regime).
        msg_chunks = o["msg_chunks"]
        if msg_chunks is None:
            # k=4 measured best at P=63 AND P=16 on the bench graph
            # (k=1: serial-assemble bound; k=8/16: ref fan-out and
            # chunk-view overheads outweigh the extra assemble
            # parallelism); tiny pools scale k down so a group is
            # never smaller than ~4 shards, and up to 7 shards take
            # k = 1: no assembler, each step reads the P messages
            msg_chunks = min(4, max(1, n_shards // 4))
        k = max(1, min(int(msg_chunks), n_shards))
        targets = (np.arange(1, k) * n_vertices) // max(k, 1)
        cut_idx = np.unique(
            np.clip(np.searchsorted(self.bounds, targets, side="left"), 1, n_shards - 1)
        ) if k > 1 else np.zeros(0, np.int64)
        group_edges = np.concatenate([[0], cut_idx, [n_shards]]).astype(np.int64)
        self.msg_groups = [
            list(range(int(group_edges[i]), int(group_edges[i + 1])))
            for i in range(len(group_edges) - 1)
        ]
        # a pool without assemblers hands each step the P shard
        # messages, so the shard bounds are its message chunk bounds
        n_asm = len(self.msg_groups) if len(self.msg_groups) > 1 else 0
        self.chunk_bounds = self.bounds[group_edges] if n_asm else self.bounds
        # Reservation rules:
        # * fractional when shards outnumber cores — a pool that
        #   outsizes the cluster at num_cpus=1 deadlocks the loading
        #   barrier below;
        # * NEVER the whole cluster — dataset readbacks while the pool
        #   is alive (scores_dataset/labels_dataset via
        #   from_arrow_refs, reset routing tasks) submit default
        #   1.0-CPU Ray tasks, and a pool holding cpus/cpus CPUs
        #   starves them forever (observed: q_tx_pagerank deadlocked
        #   an 8-CPU session inside from_arrow_refs' metadata task
        #   while 10 actors held 10 x 0.8 CPUs).  Reservations don't
        #   bind threads, so leaving one core of headroom costs no
        #   iteration throughput.
        # * sized against what this process's other live pools leave:
        #   counting the whole cluster let two live pools (two engines
        #   in one 2-CPU session) reserve every CPU between them and
        #   starve the routing tasks.  Not the cluster's available
        #   count: it lags a killed pool's release, so a pool made right
        #   after another's shutdown sized itself against stale numbers.
        #   A live pool keeps its reservation while it still fits, so a
        #   write never respawns the actors.  Whole CPUs, or a budget of
        #   1 + 1e-9 would ask for a reservation finer than Ray's unit.
        others = sum(p.cpu_per_shard * len(p.actors) for p in _POOLS if p is not self and p.actors)
        budget = int(cpus - others + 1e-6)
        if self.actors and n_shards * self.cpu_per_shard <= budget - 1:
            cpu_per_shard = self.cpu_per_shard
        elif n_shards <= budget - 1:
            cpu_per_shard = 1
        else:
            # (budget - 1) split across shards keeps the total
            # reservation STRICTLY below what is free at every size — at
            # one free CPU this is zero (reservations don't bind
            # threads, so shards still compute; the core stays
            # schedulable for the default 1.0-CPU readback/routing tasks
            # that would otherwise deadlock behind a full reservation)
            cpu_per_shard = max(0.0, budget - 1) / n_shards
        if cpu_per_shard != self.cpu_per_shard:
            # live actors hold the old per-shard reservation
            self.shutdown()
        self.cpu_per_shard = cpu_per_shard  # introspectable (tests assert headroom)

        def init(i):
            return (adj_path, i, self.bounds, n_vertices, self.hubs, o["precise"])

        kw = {"msg_chunk_bounds": self.chunk_bounds}
        # one dedicated actor process per shard: packing several shards
        # into one process measured ~12% slower on steady-state PPR at
        # sf0.1 (the hosted shards' pull threads share a GIL for the
        # per-chunk Python overhead).  Live actors reload in place; only
        # a grown pool spawns.
        self.actors = _trim(self.actors, n_shards)
        loads = [a.reload.remote(*init(i), **kw) for i, a in enumerate(self.actors)]
        for i in range(len(self.actors), n_shards):
            self.actors.append(
                GraphShardActor.options(num_cpus=cpu_per_shard).remote(*init(i), **kw)
            )
            loads.append(self.actors[-1].get_edge_count.remote())
        # one persistent assembler per message chunk when there are k > 1
        # (see _ChunkAssembler); at k = 1 the steps read the messages
        self.assemblers = _trim(self.assemblers, n_asm)
        self.assemblers += [
            ChunkAssemblerActor.remote() for _ in range(len(self.assemblers), n_asm)
        ]
        # block until all shards loaded; also the total directed edge
        # record count (the per-iteration edge-scan volume)
        self.edge_count = sum(ray.get(loads))
        if len(self.hubs):
            # assemble hub out-weights from the per-shard push partials
            # (hub edge lists are split across shards — never loaded by
            # the owner, see GraphShard hub row-range splitting)
            parts = ray.get([a.hub_weight_partials.remote() for a in self.actors])
            totals = np.sum(parts, axis=0)
            ray.get([a.set_hub_out_weights.remote(totals) for a in self.actors])

    def shutdown(self) -> None:
        for a in self.actors + self.assemblers:
            ray.kill(a)
        self.actors = []
        self.assemblers = []
