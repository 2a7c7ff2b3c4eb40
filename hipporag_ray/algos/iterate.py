"""Driver loops for the iterative link-graph algorithms on a
ShardedGraph actor pool.

Semantics contracts:

* ``personalized_pagerank`` — exact twin of the reference's native
  power iteration (SimpleGraph.kt:130-182 / igraph prpack call at
  HippoRAG.py:1599-1606): damping 0.5 default, L1 tol 1e-6, max 100
  iterations, dangling mass redistributed through the normalized reset
  vector.  Runs B reset vectors concurrently (the reference loops
  queries sequentially, HippoRAG.py:409; we batch them, SURVEY.md §7.4)
  and freezes each column the iteration its own L1 delta drops below
  tol, so each column equals an independent run.
* ``pagerank`` — PPR with a uniform reset.
* ``connected_components`` — iterated min-label propagation with self
  label; exact (component id = min member vid).
* ``label_propagation`` — synchronous weighted max-vote, tie-break
  smallest label, capped iterations.
* ``coreness`` — synchronous h-index iteration to the core numbers;
  ``kcore_members`` reads the k-core off it (coreness >= k).

Checkpoint/resume: with ``checkpoint_dir`` set, every
``checkpoint_every`` iterations each shard writes its state partition
(atomic tmp+rename) and the driver appends a lineage entry to
``manifest.json``; ``resume=True`` restarts from the latest complete
iteration (per-partition lineage — a shard file missing ⇒ that
iteration is ignored).  ``checkpoint_every`` or ``resume`` without a
``checkpoint_dir`` raises ValueError.  Per-iteration metrics (L1 delta
or changed count, active queries, edges scanned, wall seconds) land in
``metrics.jsonl``.

Every algorithm runs the ONE pipelined superstep loop (``_superstep``)
over ``GraphShard.step``; it submits wave it+1 before reading wave it's
result.  A wave's messages reach the steps directly when the pool has
one message chunk (each step reads the P shard messages where they
lie), and through the pool's k assembler actors when it has k > 1.  A PPR call has no driver barrier before its first wave:
``ppr_init``'s column sums go to the prologue ``message`` wave as refs,
each shard normalizes its own reset from them, and the first
``ray.get`` is the first wave's.  A bad reset (vids or query_idx out of
range) therefore raises its ``ValueError`` there.  The label kinds
likewise initialize in the prologue message (coreness from the P
shards' degree partials, passed as refs).

A save point is a checkpoint BARRIER — when the next wave would start
past iteration ``it`` with ``it % checkpoint_every == 0``, the driver
does not submit it, consumes the in-flight wave (so the saved active
set / changed count is that wave's own, not lagged by a wave), saves
the iteration-consistent shard state, restarts the wall clock and
resumes pipelining.  A run whose last wave ends on a save
point saves too.  Without ``checkpoint_dir``/``checkpoint_every`` no
barrier fires and the submit/consume order is the plain pipeline's.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..stages.shuffle import _checked, _fan, _launch, _np, _parts
from ..state.csr import ShardedGraph


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _reset_triples(resets, n_vertices: int, n_queries: int) -> pa.Table:
    """(vid, query_idx, weight) rows of a driver-side reset — nnz-sized,
    so every reset form takes the one shard-routed route (``ppr_init``
    np.add.at: duplicate vids in one seed list sum) instead of an (n, B)
    matrix shipped through the object store on every call.  ``resets``
    is a dense (n, B) matrix — (n,) when ``n_queries`` is 1 — or a list
    of ``n_queries`` per-query (vids, weights) pairs."""
    if isinstance(resets, np.ndarray):
        dense = resets[:, None] if resets.ndim == 1 else resets
        if dense.shape != (n_vertices, n_queries):
            raise ValueError(
                f"dense reset of shape {resets.shape} does not match "
                f"(n_vertices, n_queries) = ({n_vertices}, {n_queries})"
            )
        vid, qidx = np.nonzero(dense)
        return pa.table(
            {
                "vid": vid.astype(np.int64),
                "query_idx": qidx.astype(np.int64),
                "weight": dense[vid, qidx].astype(np.float64),
            }
        )
    if len(resets) != n_queries:
        # a short list would leave all-zero columns (normalized to
        # uniform PageRank); a long one dies on an opaque range error
        raise ValueError(f"{len(resets)} list resets for n_queries={n_queries}")
    vids = [np.asarray(v, dtype=np.int64).ravel() for v, _ in resets]
    weights = [
        np.broadcast_to(np.asarray(w, dtype=np.float64), v.shape)
        for v, (_, w) in zip(vids, resets)
    ]
    return pa.table(
        {
            "vid": np.concatenate([np.zeros(0, np.int64), *vids]),
            "query_idx": np.repeat(
                np.arange(len(vids), dtype=np.int64), [len(v) for v in vids]
            ),
            "weight": np.concatenate([np.zeros(0), *weights]),
        }
    )


@ray.remote
def _route_reset_block(block, bounds: np.ndarray, n_queries: int | None, k: int):
    """Split one (vid, query_idx, weight) block into per-shard triples."""
    tbl = _checked(block, "vid", "query_idx", "weight")
    vids = _np(tbl, "vid", np.int64)
    qidx = _np(tbl, "query_idx", np.int64)
    w = _np(tbl, "weight", np.float64)
    bad = (vids < bounds[0]) | (vids >= bounds[-1])
    if bad.any():
        # stale seeds from a different graph build would otherwise be
        # dropped silently, and ppr_normalize_reset renormalizes the
        # remainder — masking the lost reset mass entirely
        raise ValueError(
            f"{int(bad.sum())} reset vids outside [{int(bounds[0])}, "
            f"{int(bounds[-1])}) — seeds do not match this graph "
            f"(e.g. {vids[bad][:5].tolist()})"
        )
    # query_idx needs the same loud gate: a negative index (upstream
    # join-miss sentinel) would WRAP in ppr_init's np.add.at,
    # adding seed mass to the last query's column, and normalization
    # would mask the corruption; an overflow would die as an opaque
    # IndexError inside the shard actor
    badq = (qidx < 0) | ((qidx >= n_queries) if n_queries is not None else False)
    if badq.any():
        raise ValueError(
            f"{int(badq.sum())} reset query_idx outside [0, {n_queries}) "
            f"(e.g. {qidx[badq][:5].tolist()})"
        )
    shard = np.searchsorted(bounds, vids, side="right") - 1
    return _fan([(vids[i], qidx[i], w[i]) for i in _parts(shard, k)])


def route_reset_dataset(
    sg: ShardedGraph, reset_ds, n_queries: int | None = None
) -> list[list]:
    """Shard-route a (vid, query_idx, weight) Dataset — or a list of
    arrow-table ObjectRefs (the serving path hands its task-wave outputs
    straight through, no Dataset wrapper needed); returns, per shard,
    the list of its triple refs (never materialized on the driver).
    ``n_queries`` enables the loud query_idx range gate."""
    refs = list(reset_ds) if isinstance(reset_ds, list) else reset_ds.to_arrow_refs()
    P = sg.n_shards
    per_block = [_launch(_route_reset_block, P, r, sg.bounds, n_queries) for r in refs]
    return [[b[t] for b in per_block] for t in range(P)]


def scores_dataset(sg: ShardedGraph, query_idx: int = 0):
    """(vid, score) Dataset assembled from the per-shard score tables —
    the dense (n, B) driver matrix never exists.  Blocks are actor-task
    returns owned by the driver, so they stay valid after
    ``sg.shutdown()`` (``ray.wait`` barriers on task completion first)."""
    import ray.data as rd

    refs = [a.scores_table.remote(query_idx) for a in sg.actors]
    ray.wait(refs, num_returns=len(refs))
    return rd.from_arrow_refs(refs)


def labels_dataset(sg: ShardedGraph, col: str = "component"):
    """(vid, <col>) Dataset from the per-shard label tables (see
    ``scores_dataset`` for the lifetime contract)."""
    import ray.data as rd

    refs = [a.labels_table.remote(col) for a in sg.actors]
    ray.wait(refs, num_returns=len(refs))
    return rd.from_arrow_refs(refs)


def topk_chunks(sg: ShardedGraph, query_idxs, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two-level top-k chunk readback of the pool's PPR scores: one
    ``topk_chunk_scores_batch`` call per shard (P x k rows per query,
    never the (n,) score vector), merged on the driver by (score desc,
    vid asc).  Returns one (vids, scores) pair per entry of
    ``query_idxs``.  The shards' kind flags must be loaded
    (``GraphShard.load_kinds``)."""
    qidx = np.asarray(query_idxs, dtype=np.int64)
    parts = ray.get([a.topk_chunk_scores_batch.remote(qidx, k) for a in sg.actors])
    all_q, all_v, all_s = (np.concatenate(x) for x in zip(*parts))
    out = []
    for qi in qidx:
        m = all_q == qi
        vids, scs = all_v[m], all_s[m]
        order = np.lexsort((vids, -scs))[:k]
        out.append((vids[order], scs[order]))
    return out


class _Checkpointer:
    def __init__(
        self, sg: ShardedGraph, ckpt_dir: str | None, algo: str, meta: dict, every: int
    ):
        self.sg = sg
        self.dir = ckpt_dir
        self.every = every
        if ckpt_dir:
            os.makedirs(ckpt_dir, exist_ok=True)
            self.manifest_path = os.path.join(ckpt_dir, "manifest.json")
            self.metrics_path = os.path.join(ckpt_dir, "metrics.jsonl")
            self._param_keys = [k for k in meta if k != "max_iter"]
            self.manifest = {
                "algo": algo,
                "n_vertices": sg.n_vertices,
                "n_shards": sg.n_shards,
                "bounds": sg.bounds.tolist(),
                "adj_path": sg.adj_path,
                "edge_records": sg.edge_count,
                **meta,
                "iters": [],
            }
            # seed lineage from an existing matching manifest so a save
            # after resume extends the history instead of discarding it
            prior = self._load_matching_manifest()
            if prior is not None:
                self.manifest["iters"] = prior["iters"]

    def _load_matching_manifest(self) -> dict | None:
        """The on-disk manifest, or None if absent / lineage-mismatched
        (different algo, input, or partitioning)."""
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path) as f:
            manifest = json.load(f)
        if (
            manifest.get("algo") != self.manifest["algo"]
            or manifest.get("n_shards") != self.sg.n_shards
            or manifest.get("n_vertices") != self.sg.n_vertices
            or manifest.get("adj_path") != self.sg.adj_path
            or manifest.get("bounds") != self.sg.bounds.tolist()
        ):
            return None
        # run parameters are lineage too: resuming under a different
        # n_queries crashes the shard kernels, a different damping/tol
        # or reset would silently mix two iteration dynamics.  max_iter
        # is exempt (resuming with a higher cap extends the run).
        for key in self._param_keys:
            if manifest.get(key) != self.manifest.get(key):
                return None
        return manifest

    def is_save_point(self, it: int) -> bool:
        """Whether the state after ``it`` completed iterations is saved
        (the driver drains the in-flight wave there — a barrier)."""
        return bool(self.every) and it % self.every == 0

    def shard_path(self, it: int, shard: int) -> str:
        return os.path.join(self.dir, "state", f"iter={it:04d}", f"shard-{shard:05d}.parquet")

    def save(self, it: int, extra: dict) -> None:
        ray.get(
            [
                a.save_state.remote(self.shard_path(it, i))
                for i, a in enumerate(self.sg.actors)
            ]
        )
        self.manifest["iters"].append({"iter": it, **extra})
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.manifest, f)
        os.replace(tmp, self.manifest_path)

    def metric(self, rec: dict) -> None:
        if not self.dir:
            return
        with open(self.metrics_path, "a") as f:
            f.write(json.dumps(rec) + "\n")

    def reset_metrics(self, start_iter: int) -> None:
        """Drop metrics records past ``start_iter`` so a resumed (or
        restarted) run appends without duplicating iteration records —
        a crash at iter 12 resumed from the iter-10 checkpoint would
        otherwise leave iters 11-12 twice in metrics.jsonl and any
        aggregation over it double-counts."""
        if not self.dir or not os.path.exists(self.metrics_path):
            return
        kept = []
        with open(self.metrics_path) as f:
            for line in f:
                try:
                    if json.loads(line).get("iter", 0) <= start_iter:
                        kept.append(line)
                except ValueError:
                    pass
        tmp = self.metrics_path + ".tmp"
        with open(tmp, "w") as f:
            f.writelines(kept)
        os.replace(tmp, self.metrics_path)

    def latest_complete(self) -> dict | None:
        """Latest manifest iteration whose every shard partition exists
        (algo + input + partitioning lineage must all match)."""
        manifest = self._load_matching_manifest()
        if manifest is None:
            return None
        for entry in reversed(manifest["iters"]):
            it = entry["iter"]
            if all(
                os.path.exists(self.shard_path(it, i)) for i in range(self.sg.n_shards)
            ):
                return entry
        if manifest["iters"]:
            import warnings

            warnings.warn(
                "checkpoint manifest lists iterations but no complete "
                "shard set is visible from this process — checkpoint_dir "
                "must live on storage shared by the driver and every "
                "shard actor (multi-node clusters need NFS/object "
                "storage); restarting from scratch",
                stacklevel=2,
            )
        return None


# ---------------------------------------------------------------------------
# the superstep loop
# ---------------------------------------------------------------------------


def _superstep(
    sg: ShardedGraph,
    prog,
    max_iter: int,
    checkpoint_dir: str | None,
    checkpoint_every: int,
    resume: bool,
    collect: bool,
) -> tuple[np.ndarray | None, list[dict]]:
    """The one driver loop of every shard algorithm (message -> combine
    -> update, as in Pregelix): a prologue ``GraphShard.message`` wave,
    then one ``GraphShard.step`` wave per iteration until ``prog``
    converges or ``max_iter``.  Returns (``prog.collect()`` or None,
    metrics).  ``prog`` (``_PPR``, ``_Labels``) gives the step ``kind``,
    the lineage ``meta``, the checkpointed score columns ``n_queries``,
    ``restore`` (resumed manifest entry or None -> converged), the next
    wave's ``params``, the init args of the prologue message
    ``prologue`` (None: publish the loaded state without an init),
    the ``assemble`` call (the P message refs themselves when the pool has
    no assemblers), ``consume`` (one wave's
    outputs -> record, converged, save fields; ``draining`` when no
    later wave is in flight) and ``collect``.

    The driver runs one wave AHEAD of consumption, so driver-side
    dispatch (~20-25 ms at P=63, comparable to the whole edge scan at
    bench scale) overlaps shard compute.  The convergence check lags one
    iteration: the extra wave is one more refinement toward the same
    fixpoint (PPR) or an idempotent pull of converged labels, and its
    scan is counted.  wall_s is the read-to-read interval; the clock
    (re)starts once a wave is in flight, so neither the prologue nor a
    save counts as wave time."""
    if not checkpoint_dir and (checkpoint_every or resume):
        # without a directory both would be silent no-ops: nothing
        # saved, and a "resumed" run restarting from iteration 0
        raise ValueError("checkpoint_every and resume need a checkpoint_dir")
    ck = _Checkpointer(sg, checkpoint_dir, prog.kind, prog.meta, checkpoint_every)
    resumed = ck.latest_complete() if resume else None
    start_iter = 0 if resumed is None else resumed["iter"]
    if resumed is not None:
        ray.get(
            [
                a.load_state.remote(ck.shard_path(start_iter, i), prog.n_queries)
                for i, a in enumerate(sg.actors)
            ]
        )
    converged = prog.restore(resumed)
    ck.reset_metrics(start_iter)

    metrics: list[dict] = []
    init = prog.prologue is not None
    msg_refs = [
        a.message.remote(prog.kind, *prog.params, *(prog.prologue or ()), init=init)
        for a in sg.actors
    ]
    it = start_iter
    in_flight = None  # (iter, params, output refs)
    t_prev = None
    while True:
        barrier = in_flight is not None and ck.is_save_point(it)
        if it < max_iter and not converged and not barrier:
            params = prog.params
            args = (prog.kind, *params, *prog.assemble(msg_refs))
            refs = [a.step.options(num_returns=2).remote(*args) for a in sg.actors]
            msg_refs = [r[1] for r in refs]
            if t_prev is None:
                t_prev = time.perf_counter()
            new_flight = (it, params, [r[0] for r in refs])
            it += 1
        else:
            new_flight = None
        if in_flight is None and new_flight is None:
            break
        if in_flight is not None:
            f_it, f_params, f_refs = in_flight
            outs = ray.get(f_refs)
            now = time.perf_counter()
            rec, converged, extra = prog.consume(
                f_params, outs, now - t_prev, new_flight is None
            )
            t_prev = now
            rec = {"iter": f_it + 1, "algo": prog.kind, **rec}
            metrics.append(rec)
            ck.metric(rec)
            if new_flight is None and ck.is_save_point(f_it + 1):
                ck.save(f_it + 1, extra)
                t_prev = None  # the save is not wave time
        in_flight = new_flight
    return (prog.collect() if collect else None), metrics


# ---------------------------------------------------------------------------
# PPR / PageRank
# ---------------------------------------------------------------------------


class _PPR:
    """Batched PPR as a superstep program.  Pull model: one (contrib,
    dangling, hub) message per shard; every owner segment-reduces its
    incoming edges against the message chunks, read where they lie.
    With one message chunk (pools of at most 7 shards by default) each
    step gets the P message refs as its chunks — no assembler hop in the
    wave — and narrows them itself after the active set shrank.  With
    k > 1 the k PARALLEL chunk assemblers merge them into the
    iteration's k chunk objects: passing k chunk refs (auto-dereffed at
    the actor) keeps the per-iteration ref fan-out at k x P — the full
    P x P inlining and the borrower-protocol storm of a ray.put'd ref
    list each measured slower than the edge scan itself at P=63.  There
    the active-column subset happens IN the merge (``pos``), so no shard
    re-subsets O(n x B) itself.  ``prologue`` (the P shards' ``ppr_init``
    sum refs) rides the prologue message, which normalizes the reset."""

    kind = "ppr"

    def __init__(
        self, sg: ShardedGraph, meta: dict, damping: float, tol: float, sums: list
    ):
        self.sg, self.meta, self.damping, self.tol = sg, meta, damping, tol
        self.prologue = tuple(sums)
        self.n_queries = meta["n_queries"]
        self.active = np.arange(self.n_queries)

    def restore(self, entry: dict | None) -> bool:
        if entry is not None:
            self.active = np.array(entry["active"], dtype=np.int64)
        self.msg_active = self.active  # columns the published messages cover
        return len(self.active) == 0

    @property
    def params(self):
        return self.damping, self.active

    def assemble(self, msg_refs) -> list:
        if not self.sg.assemblers:
            return msg_refs  # each GraphShard.step reads them as its chunks
        pos = (
            None
            if len(self.active) == len(self.msg_active)
            else np.searchsorted(self.msg_active, self.active)
        )
        self.msg_active = self.active
        return [
            asm.assemble_ppr.remote(pos, *[msg_refs[i] for i in grp])
            for asm, grp in zip(self.sg.assemblers, self.sg.msg_groups)
        ]

    def consume(self, params, deltas, wall: float, draining: bool):
        wave_active = params[1]
        delta = np.sum(deltas, axis=0)
        l1 = float(delta.sum())
        scanned = self.sg.edge_count * len(wave_active)  # records x active cols
        rec = {
            "l1_delta": l1,
            "active_queries": len(wave_active),
            "edge_records_scanned": scanned,
            "wall_s": wall,
            "edges_per_sec": scanned / wall if wall > 0 else None,
        }
        still = wave_active[delta >= self.tol]
        # while a wave is in flight, later submissions iterate the
        # intersection: columns not yet converged (per these lagged
        # deltas) that the in-flight wave's messages still cover
        self.active = (
            still if draining else np.intersect1d(self.active, still, assume_unique=True)
        )
        return rec, len(self.active) == 0, {"active": self.active.tolist(), "delta": l1}

    def collect(self) -> np.ndarray:
        return np.vstack(ray.get([a.scores_matrix.remote() for a in self.sg.actors]))


def personalized_pagerank(
    sg: ShardedGraph,
    resets=None,
    n_queries: int = 1,
    damping: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 100,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    reset_dataset=None,
    collect: bool = True,
) -> tuple[np.ndarray | None, list[dict]]:
    """Run batched PPR; returns (scores (n, B) float64, per-iter metrics).

    ``resets``: None (uniform), a dense (n, B) matrix — (n,) when
    ``n_queries`` is 1; any other shape raises ValueError — or a list of
    ``n_queries`` per-query (vids, weights) pairs.  Both forms become
    sparse triples on the driver and take the ``reset_dataset`` route.
    ``reset_dataset``: a (vid, query_idx, weight) Dataset routed to the
    shards without driver materialization (the streaming reset path).
    ``checkpoint_every``/``resume`` need ``checkpoint_dir``.
    ``collect=False`` skips assembling the dense score matrix on the
    driver — consume results via the actors' ``topk_chunk_scores_batch``
    / ``scores_table`` instead."""
    if resets is not None and reset_dataset is not None:
        # conflicting seed specifications: silently preferring one would
        # answer a different query than the caller described
        raise ValueError("pass either resets or reset_dataset, not both")
    if resets is not None:
        reset_dataset = [ray.put(_reset_triples(resets, sg.n_vertices, n_queries))]
    # no ray.get here: the sum refs ride the prologue message wave (see
    # _PPR).  The order holds through data, not actor submission order:
    # each prologue message needs every shard's sums and each step every
    # message, so a routing error surfaces at the first wave's get
    if reset_dataset is None:
        sums = [a.ppr_init.remote(n_queries) for a in sg.actors]
    else:
        routed = route_reset_dataset(sg, reset_dataset, n_queries)
        sums = [a.ppr_init.remote(n_queries, *routed[t]) for t, a in enumerate(sg.actors)]

    meta = {
        "n_queries": n_queries,
        "damping": damping,
        "tol": tol,
        "max_iter": max_iter,
    }
    if checkpoint_dir:
        # reset identity in the lineage: per-shard CONTENT digests of the
        # normalized reset slices (column sums alone collide for different
        # seed sets with equal per-shard mass, and a colliding fingerprint
        # makes resume serve a different query's checkpoint).  Only when
        # checkpointing — the digest is an extra actor round-trip plus an
        # md5 over the full reset (~100 MB hashed per 128-query batch at
        # sf0.1), pure waste on the retrieval hot path.
        import hashlib

        digests = ray.get([a.reset_digest.remote(*sums) for a in sg.actors])
        meta["reset_fp"] = hashlib.md5("".join(digests).encode()).hexdigest()[:16]
    prog = _PPR(sg, meta, damping, tol, sums)
    return _superstep(sg, prog, max_iter, checkpoint_dir, checkpoint_every, resume, collect)


def pagerank(sg: ShardedGraph, **kw) -> tuple[np.ndarray, list[dict]]:
    """Power-iteration PageRank = PPR with uniform reset (SURVEY.md §7.2)."""
    return personalized_pagerank(sg, resets=None, n_queries=1, **kw)


# ---------------------------------------------------------------------------
# Label fixpoints: connected components / label propagation / coreness
# ---------------------------------------------------------------------------


class _Labels:
    """A label fixpoint (CC min-label, LP weighted max-vote, coreness
    h-index) as a superstep program: one assembled (n,) label message
    per iteration, converged when no label changed.  A fresh run
    initializes the labels in the prologue message (``labels_init``;
    coreness ``core_init`` on the P shards' ``core_degree_partial``
    refs, so no driver barrier precedes the first wave); a resumed run
    publishes its loaded labels without an init."""

    n_queries = 0
    params = ()
    prologue = None

    def __init__(self, sg: ShardedGraph, kind: str, col: str, max_iter: int):
        self.sg, self.kind, self.col = sg, kind, col
        self.meta = {"max_iter": max_iter}

    def restore(self, entry: dict | None) -> bool:
        if entry is None:
            self.prologue = (
                tuple(a.core_degree_partial.remote() for a in self.sg.actors)
                if self.kind == "coreness"
                else ()
            )
        return False

    def assemble(self, msg_refs) -> list:
        if not self.sg.assemblers:
            return msg_refs  # GraphShard.step merges them
        # label messages are (n,) ints — no win from chunk parallelism,
        # but the persistent assembler actor avoids task-worker churn;
        # the step merges the one assembled message the same way
        return [self.sg.assemblers[0].assemble_labels.remote(*msg_refs)]

    def consume(self, params, changed, wall: float, draining: bool):
        changed = int(sum(changed))
        rec = {"changed": changed, "edge_records_scanned": self.sg.edge_count, "wall_s": wall}
        return rec, changed == 0, {"changed": changed}

    def collect(self) -> np.ndarray:
        tables = ray.get([a.labels_table.remote(self.col) for a in self.sg.actors])
        return np.concatenate([t[self.col].to_numpy() for t in tables])


def connected_components(
    sg: ShardedGraph,
    max_iter: int = 200,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    collect: bool = True,
) -> tuple[np.ndarray | None, list[dict]]:
    """Min-label propagation to fixpoint; exact (component = min vid).

    Rounds needed = graph diameter; for path-like graphs a
    large-star/small-star variant would shrink that — the substrate
    (scatter min / gather min) stays the same.
    """
    prog = _Labels(sg, "cc", "component", max_iter)
    return _superstep(sg, prog, max_iter, checkpoint_dir, checkpoint_every, resume, collect)


def label_propagation(
    sg: ShardedGraph,
    max_iter: int = 50,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    collect: bool = True,
) -> tuple[np.ndarray | None, list[dict]]:
    """Synchronous weighted label propagation (deterministic tie-break)."""
    prog = _Labels(sg, "lp", "label", max_iter)
    return _superstep(sg, prog, max_iter, checkpoint_dir, checkpoint_every, resume, collect)


def coreness(
    sg: ShardedGraph,
    max_iter: int = 200,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    collect: bool = True,
) -> tuple[np.ndarray | None, list[dict]]:
    """Full k-core decomposition (per-vertex core number) by the
    synchronous h-index iteration (Lü et al. 2016): values start at the
    vertex degree and each round become the h-index of the neighbor
    values; the sequence is monotonically non-increasing and converges
    to the coreness, here in the same fused message/pull waves as CC/LP
    (hub neighbor multisets travel as run-length COO partials, merged
    by the hub's owner).  The initial degree is per-shard edge-row
    degree plus, for a hub, the cross-shard sum of its push-row counts
    (a hub's rows live on its neighbors' owners): the P shards'
    ``core_degree_partial`` refs ride the prologue message, where each
    shard sums them, so the driver waits on nothing before the first
    wave.  Degrees and neighbor multisets count distinct neighbors, so the
    result is the simple-graph core number of ``coreness_oracle`` even
    on adjacency with parallel records and self-loops."""
    prog = _Labels(sg, "coreness", "coreness", max_iter)
    return _superstep(sg, prog, max_iter, checkpoint_dir, checkpoint_every, resume, collect)


def kcore_members(sg: ShardedGraph, k: int, max_iter: int = 200):
    """The (vid) Dataset of the k-core: v is in the k-core exactly when
    coreness(v) >= k, so this is a read of ``coreness`` on the pool
    (isolated vertices have coreness 0 and are never in it for k >= 1).
    Raises ``RuntimeError`` when the iteration still changed a value in
    its last wave at ``max_iter``: the values only decrease, so an
    unconverged read would be a superset of the core."""
    if k < 1:
        raise ValueError("k-core requires k >= 1")
    _, metrics = coreness(sg, max_iter=max_iter, collect=False)
    if not metrics or metrics[-1]["changed"] > 0:
        raise RuntimeError(
            f"coreness did not converge in max_iter={max_iter} waves "
            "(its last wave still changed values); raise max_iter"
        )

    def members(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["coreness"], pa.scalar(k, pa.int64()))).select(["vid"])

    return labels_dataset(sg, "coreness").map_batches(members, batch_format="pyarrow")
