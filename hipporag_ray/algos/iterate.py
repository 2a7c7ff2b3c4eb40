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

Checkpoint/resume: with ``checkpoint_dir`` set, every
``checkpoint_every`` iterations each shard writes its state partition
(atomic tmp+rename) and the driver appends a lineage entry to
``manifest.json``; ``resume=True`` restarts from the latest complete
iteration (per-partition lineage — a shard file missing ⇒ that
iteration is ignored).  Per-iteration metrics (L1 delta, active
queries, edges scanned, wall seconds) land in ``metrics.jsonl``.

Every driver is ONE pipelined loop: it submits wave it+1 before reading
wave it's result.  A save point is a checkpoint BARRIER — when the next
wave would start past iteration ``it`` with ``it % checkpoint_every ==
0``, the driver does not submit it, consumes the in-flight wave (so the
saved active set / changed count is that wave's own, not lagged by a
wave), saves the iteration-consistent shard state, restarts the wall
clock and resumes pipelining.  A run whose last wave ends on a save
point saves too.  Without ``checkpoint_dir``/``checkpoint_every`` no
barrier fires and the submit/consume order is the plain pipeline's.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa

import ray

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
    of per-query (vids, weights) pairs."""
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
def _route_reset_block(tbl, bounds: np.ndarray, k: int, n_queries: int | None = None):
    """Split one (vid, query_idx, weight) block into per-shard triples."""
    vids = tbl["vid"].to_numpy(zero_copy_only=False).astype(np.int64)
    qidx = tbl["query_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    w = tbl["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
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
    order = np.argsort(shard, kind="stable")
    vids, qidx, w, shard = vids[order], qidx[order], w[order], shard[order]
    gb = np.searchsorted(shard, np.arange(k + 1))
    outs = [
        (vids[gb[t] : gb[t + 1]], qidx[gb[t] : gb[t + 1]], w[gb[t] : gb[t + 1]])
        for t in range(k)
    ]
    return tuple(outs) if k > 1 else outs[0]


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
    per_block = []
    for r in refs:
        if P > 1:
            per_block.append(
                list(
                    _route_reset_block.options(num_returns=P).remote(
                        r, sg.bounds, P, n_queries
                    )
                )
            )
        else:
            per_block.append([_route_reset_block.remote(r, sg.bounds, P, n_queries)])
    return [[per_block[i][t] for i in range(len(refs))] for t in range(P)]


def _wave_dispatch(sg: ShardedGraph, method: str, returns_per_shard: int, *args):
    """Submit one iteration wave of ``method(*args)`` — one actor call
    per shard; returns ``returns_per_shard`` lists of per-shard
    ObjectRefs, in shard order."""
    if returns_per_shard == 1:
        return [[getattr(a, method).remote(*args) for a in sg.actors]]
    outs = [
        getattr(a, method).options(num_returns=returns_per_shard).remote(*args)
        for a in sg.actors
    ]
    return [[o[r] for o in outs] for r in range(returns_per_shard)]


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


class _Checkpointer:
    def __init__(
        self, sg: ShardedGraph, ckpt_dir: str | None, algo: str, meta: dict, every: int
    ):
        self.sg = sg
        self.dir = ckpt_dir
        self.every = every if ckpt_dir else 0
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
        if not self.dir or not os.path.exists(self.manifest_path):
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
        (the drivers drain the in-flight wave there — a barrier)."""
        return bool(self.every) and it % self.every == 0

    def shard_path(self, it: int, shard: int) -> str:
        return os.path.join(self.dir, "state", f"iter={it:04d}", f"shard-{shard:05d}.parquet")

    def save(self, it: int, extra: dict) -> None:
        if not self.dir:
            return
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
# PPR / PageRank
# ---------------------------------------------------------------------------


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
    per-query (vids, weights) pairs.  Both forms become sparse triples
    on the driver and take the ``reset_dataset`` route.
    ``reset_dataset``: a (vid, query_idx, weight) Dataset routed to the
    shards without driver materialization (the streaming reset path).
    ``collect=False`` skips assembling the dense score matrix on the
    driver — consume results via the actors' ``topk_chunk_scores`` /
    ``scores_table`` instead."""
    if resets is not None and reset_dataset is not None:
        # conflicting seed specifications: silently preferring one would
        # answer a different query than the caller described
        raise ValueError("pass either resets or reset_dataset, not both")
    if resets is not None:
        reset_dataset = [ray.put(_reset_triples(resets, sg.n_vertices, n_queries))]
    if reset_dataset is None:
        sums = ray.get([a.ppr_init.remote(n_queries) for a in sg.actors])
    else:
        routed = route_reset_dataset(sg, reset_dataset, n_queries)
        sums = ray.get(
            [a.ppr_init.remote(n_queries, *routed[t]) for t, a in enumerate(sg.actors)]
        )
    totals = np.sum(sums, axis=0)
    ray.get([a.ppr_normalize_reset.remote(totals) for a in sg.actors])

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

        digests = ray.get([a.reset_digest.remote() for a in sg.actors])
        meta["reset_fp"] = hashlib.md5("".join(digests).encode()).hexdigest()[:16]
    ck = _Checkpointer(sg, checkpoint_dir, "ppr", meta, checkpoint_every)
    start_iter = 0
    active = np.arange(n_queries)
    resumed = ck.latest_complete() if resume else None

    if resumed is not None:
        start_iter = resumed["iter"]
        active = np.array(resumed["active"], dtype=np.int64)
        ray.get(
            [
                a.load_state.remote(ck.shard_path(start_iter, i), n_queries)
                for i, a in enumerate(sg.actors)
            ]
        )
    ck.reset_metrics(start_iter)

    metrics: list[dict] = []
    # pull model: one (contrib, dangling) message per shard, merged by
    # k PARALLEL group-assemble tasks into the iteration's k chunk
    # broadcast objects; every owner segment-reduces its incoming
    # edges against them (one kernel pass per chunk).  Passing k
    # chunk refs (auto-dereffed at the actor) keeps the per-iteration
    # ref fan-out at k x P — the full P x P inlining and the
    # borrower-protocol storm of a ray.put'd ref list each measured
    # slower than the edge scan itself at P=63, and the former single
    # full-matrix assemble was the serial Amdahl term once the
    # compiled kernel landed.  Each iteration is ONE fused actor wave
    # (ppr_step = pull + next contrib, bit-identical to separate
    # waves); only the prologue publishes a bare contrib wave.
    groups, assemblers = sg.msg_groups, sg.assemblers

    def _submit_wave(active_prev: np.ndarray, active_now: np.ndarray, msg_refs):
        """One fused actor wave: k chunk assembles over the published
        contribs, then ppr_step on every shard.  Returns (delta refs,
        next-iteration contrib refs) WITHOUT waiting.

        The active-column subset happens IN the assembles (``pos``):
        the chunks reach the shards already at ``active_now`` width, so
        the per-shard O(n x B) re-subset — which scaled total memcpy
        with P and dominated the in-actor step time at P=64 — is gone
        (ppr_step is told columns already match via
        active_prev=active_now)."""
        pos = (
            None
            if len(active_now) == len(active_prev)
            else np.searchsorted(active_prev, active_now)
        )
        # persistent zero-CPU assembler actors: plain tasks here
        # re-spawned reaped idle workers mid-run (~1 s import cost
        # surfacing as random 2-20x iteration-wall spikes)
        chunk_refs = [
            assemblers[c].assemble_ppr.remote(pos, *[msg_refs[i] for i in grp])
            for c, grp in enumerate(groups)
        ]
        delta_refs, contrib_refs = _wave_dispatch(
            sg, "ppr_step", 2, damping, active_now, active_now, *chunk_refs
        )
        return delta_refs, contrib_refs

    def _record(it: int, n_active: int, delta: np.ndarray, wall: float) -> None:
        scanned = sg.edge_count * n_active  # traversals = records x active cols
        rec = {
            "iter": it + 1,
            "algo": "ppr",
            "l1_delta": float(delta.sum()),
            "active_queries": int(n_active),
            "edge_records_scanned": scanned,
            "wall_s": wall,
            "edges_per_sec": scanned / wall if wall > 0 else None,
        }
        metrics.append(rec)
        ck.metric(rec)

    # The driver runs one wave AHEAD of delta consumption (pipelined):
    # wave it+1 is submitted from wave it's contrib REFS before wave
    # it's deltas are read, so driver-side dispatch (~20-25 ms at P=63,
    # comparable to the whole edge scan at bench scale) overlaps shard
    # compute instead of serializing the iteration.  The only semantic
    # difference is that the active-set shrink lags ONE iteration: a
    # query whose delta crossed tol at wave it still iterates at wave
    # it+1 — one extra refinement toward the same fixpoint, so scores
    # can only move closer to convergence, and the scanned-work metrics
    # count the real (slightly larger) scan.  Each iteration's wall_s is
    # the delta-read-to-delta-read interval — the steady-state wave time
    # INCLUDING the overlapped driver-side dispatch/intersect work.
    # Save points are checkpoint barriers (see the module docstring).
    (msg_refs,) = _wave_dispatch(sg, "ppr_contrib", 1, damping, active)
    msg_active = active  # columns covered by msg_refs
    it = start_iter
    in_flight = None  # (iter, active_used, delta_refs)
    t_prev = None
    while True:
        barrier = in_flight is not None and ck.is_save_point(it)
        if it < max_iter and len(active) > 0 and not barrier:
            delta_refs, msg_refs = _submit_wave(msg_active, active, msg_refs)
            if t_prev is None:
                # clock starts when the FIRST wave is in flight, so
                # iteration 0 does not absorb the pre-loop contrib
                # dispatch on top of its own
                t_prev = time.perf_counter()
            new_flight = (it, active, delta_refs)
            msg_active = active
            it += 1
        else:
            new_flight = None
        if in_flight is None and new_flight is None:
            break
        if in_flight is not None:
            f_it, f_active, f_refs = in_flight
            delta = np.sum(ray.get(f_refs), axis=0)
            now = time.perf_counter()
            _record(f_it, len(f_active), delta, now - t_prev)
            t_prev = now
            still = f_active[delta >= tol]
            # future submissions iterate the intersection: columns
            # not yet converged (per the lagged deltas) that the
            # in-flight wave's messages still cover
            active = (
                np.intersect1d(active, still, assume_unique=True)
                if new_flight is not None
                else still
            )
            if new_flight is None and ck.is_save_point(f_it + 1):
                ck.save(f_it + 1, {"active": active.tolist(), "delta": float(delta.sum())})
                t_prev = None  # the save is not wave time
        in_flight = new_flight

    if not collect:
        return None, metrics
    scores = np.vstack(ray.get([a.scores_matrix.remote() for a in sg.actors]))
    return scores, metrics


def pagerank(sg: ShardedGraph, **kw) -> tuple[np.ndarray, list[dict]]:
    """Power-iteration PageRank = PPR with uniform reset (SURVEY.md §7.2)."""
    return personalized_pagerank(sg, resets=None, n_queries=1, **kw)


# ---------------------------------------------------------------------------
# Connected components / label propagation
# ---------------------------------------------------------------------------


def _label_fixpoint(
    sg: ShardedGraph,
    algo: str,
    init_attr: str,
    msg_attr: str,
    pull_attr: str,
    label_col: str,
    max_iter: int,
    checkpoint_dir: str | None,
    checkpoint_every: int,
    resume: bool,
    collect: bool,
) -> tuple[np.ndarray | None, list[dict]]:
    """Shared driver for the label-fixpoint algorithms (CC min-label,
    LP weighted max-vote): init -> (msg broadcast, pull, count changed)
    until changed == 0, with the same checkpoint/resume/metrics
    contract as PPR.  One definition so a fix to the loop (resume
    ordering, metrics truncation, cadence) cannot diverge between the
    two algorithms."""
    ck = _Checkpointer(
        sg, checkpoint_dir, algo, {"max_iter": max_iter}, checkpoint_every
    )
    start_iter = 0
    resumed = ck.latest_complete() if resume else None
    ray.get([getattr(a, init_attr).remote() for a in sg.actors])
    if resumed is not None:
        start_iter = resumed["iter"]
        ray.get(
            [
                a.load_state.remote(ck.shard_path(start_iter, i), 0)
                for i, a in enumerate(sg.actors)
            ]
        )
    ck.reset_metrics(start_iter)
    metrics: list[dict] = []
    # one fused actor wave per iteration (step = pull + next message),
    # mirroring the PPR loop; the prologue publishes the initial labels
    (msg_refs,) = _wave_dispatch(sg, msg_attr, 1)
    step_attr = pull_attr.replace("_pull", "_step")

    def _submit_wave(refs):
        # label messages are (n,) ints — no win from chunk parallelism,
        # but the persistent assembler actor avoids task-worker churn
        assembled = sg.assemblers[0].assemble_labels.remote(*refs)
        changed_refs, label_refs = _wave_dispatch(sg, step_attr, 2, assembled)
        return changed_refs, label_refs

    def _record(it: int, changed: int, wall: float) -> None:
        rec = {
            "iter": it + 1,
            "algo": algo,
            "changed": int(changed),
            "edge_records_scanned": sg.edge_count,
            "wall_s": wall,
        }
        metrics.append(rec)
        ck.metric(rec)

    # same wave pipelining and checkpoint barriers as the PPR loop: the
    # driver stays one wave ahead of the changed-count consumption, so
    # dispatch overlaps shard compute.  The fixpoint check lags one
    # iteration — the extra in-flight wave runs on already-converged
    # labels (idempotent pulls) and its scan is counted honestly.
    it = start_iter
    in_flight = None  # (iter, changed_refs)
    done = False
    t_prev = time.perf_counter()
    while True:
        barrier = in_flight is not None and ck.is_save_point(it)
        if it < max_iter and not done and not barrier:
            changed_refs, msg_refs = _submit_wave(msg_refs)
            new_flight = (it, changed_refs)
            it += 1
        else:
            new_flight = None
        if in_flight is None and new_flight is None:
            break
        if in_flight is not None:
            f_it, f_refs = in_flight
            changed = sum(ray.get(f_refs))
            now = time.perf_counter()
            _record(f_it, changed, now - t_prev)
            t_prev = now
            if changed == 0:
                done = True
            if new_flight is None and ck.is_save_point(f_it + 1):
                ck.save(f_it + 1, {"changed": int(changed)})
                t_prev = time.perf_counter()  # the save is not wave time
        in_flight = new_flight
    if not collect:
        return None, metrics
    tables = ray.get([a.labels_table.remote(label_col) for a in sg.actors])
    labels = np.concatenate([t[label_col].to_numpy() for t in tables])
    return labels, metrics


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
    return _label_fixpoint(
        sg,
        "cc",
        "cc_init",
        "labels_msg",
        "cc_pull",
        "component",
        max_iter,
        checkpoint_dir,
        checkpoint_every,
        resume,
        collect,
    )


def label_propagation(
    sg: ShardedGraph,
    max_iter: int = 50,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    collect: bool = True,
) -> tuple[np.ndarray | None, list[dict]]:
    """Synchronous weighted label propagation (deterministic tie-break)."""
    return _label_fixpoint(
        sg,
        "lp",
        "lp_init",
        "lp_msg",
        "lp_pull",
        "label",
        max_iter,
        checkpoint_dir,
        checkpoint_every,
        resume,
        collect,
    )


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
    by the hub's owner).  Init is a two-phase degree collective:
    per-shard chunk-row degrees plus the cross-shard sum of per-hub
    push-row counts (a hub's rows live on its neighbors' owners).
    Degrees and neighbor multisets count distinct neighbors, so the
    result is the simple-graph core number of ``coreness_oracle`` even
    on adjacency with parallel records and self-loops."""
    hub_parts = ray.get([a.core_degree_partial.remote() for a in sg.actors])
    hub_deg = (
        np.sum(hub_parts, axis=0).astype(np.int64)
        if hub_parts and len(hub_parts[0])
        else np.zeros(0, np.int64)
    )
    hub_ref = ray.put(hub_deg)
    ray.get([a.core_init.remote(hub_ref) for a in sg.actors])
    return _label_fixpoint(
        sg,
        "coreness",
        "core_ready",
        "core_msg",
        "core_pull",
        "coreness",
        max_iter,
        checkpoint_dir,
        checkpoint_every,
        resume,
        collect,
    )
