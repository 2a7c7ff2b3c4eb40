"""HippoRAG-style retrieval engine on the Ray-Data graph substrate.

Mirrors the reference lifecycle (HippoRAG.index / retrieve / delete,
/root/reference/src/hipporag/HippoRAG.py:218-449 and the smoke-test
flow tests_openai.py:28-103):

* ``index(transcripts)`` — append to the corpus, upsert the chunk /
  entity embedding stores (idempotent anti-join inserts), rebuild the
  co-occurrence graph (vertices/edges/adj parquet).  The reference's
  OpenIE triple extraction is replaced by the deterministic
  co-occurrence extractor; its embedding models by the seeded
  HashEmbedder.
* ``retrieve(queries)`` — fact-based linking by default: queries score
  the fact embeddings (get_fact_scores, HippoRAG.py:1290-1328, min-max
  normalized), the top ``link_top_k`` facts map to their
  subject/object phrases with 1/|chunks(entity)| damping and per-phrase
  mean (HippoRAG.py:1446-1481, A5), DPR passage weights scaled by
  ``passage_node_weight`` 0.05 (HippoRAG.py:1488-1498), reset = phrase
  + passage weights (HippoRAG.py:1501), batched PPR (damping 0.5,
  prpack semantics, HippoRAG.py:1593-1606), passages ranked by PPR
  score (K3), top-k content lookup last (J2, HippoRAG.py:428-430).
  Queries with no usable fact links fall back to pure DPR
  (HippoRAG.py:417-419); ``dpr_retrieve`` is the StandardRAG.py
  baseline; ``facts=False`` selects direct entity linking.  All
  queries run as ONE batched PPR — the reference loops queries
  sequentially (HippoRAG.py:409); we must not (SURVEY.md §7.4).
* ``delete(texts)`` — group-wise anti-join semantics
  (HippoRAG.py:280-361): an entity/fact survives iff some surviving
  chunk references it.  Default path is *incremental*: the deleted
  chunks' edge partials are subtracted through the int-key exchange
  (graph_build.delete_chunks_from_graph) and fact/corpus/store parts
  are rewritten by per-part Ray tasks; the rebuild path remains for
  synonymy mode (verified equal in tests).

Persistence layout under ``working_dir``: ``corpus/`` (turn parquet
parts), ``vdb_chunk/`` / ``vdb_entity/`` (embedding stores),
``graph/`` (vertices/edges/adj + manifest).  A fresh engine object on
the same directory reloads everything (tests_openai.py:52-60 parity).
"""

from __future__ import annotations

import inspect
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..functions.hashing import md5_hex
from ..functions.text import text_processing
from ..algos.iterate import personalized_pagerank, topk_chunks
from ..stages.similarity import topk_tie_rows
from ..stages.graph_build import ChunkToVertexRows, _to_chunk_rows, build_graph, graph_config, load_graph
from ..state.csr import ShardedGraph
from ..state.embedding_store import EmbeddingStore, HashEmbedder
from ..state.parts import block_columns, in_keys, new_rows, walk_parts, write_rows


# ---------------------------------------------------------------------------
# serving-path block kernels
# ---------------------------------------------------------------------------
# Query-time linking/scoring runs as ACTOR WAVES over the cached
# materialized view blocks instead of per-call Dataset executions: a
# Ray Data execution pays ~150-250 ms of executor startup per stage and
# one 32-query retrieve needed four of them (~0.8 s of the ~1.0 s
# call).  One call per pinned view block keeps the same distribution
# and zero-copy plasma reads; the views themselves are still BUILT by
# the bucketed hash-join exchanges (Dataset-first) — only the per-call
# scans drop to the _LinkWorker pool (plain tasks here suffered
# idle-worker reaping between calls — see the class docstring).  This
# is the deliberate serving/latency exception to the
# Dataset-everywhere rule, like the CSR shard pool.


def _empty_link() -> pd.DataFrame:
    """The canonical empty linking frame — ONE definition for every
    no-candidates path so the (vid, query_idx, weight) schema cannot
    silently diverge between them."""
    return pd.DataFrame(
        {
            "vid": pd.Series([], dtype="int64"),
            "query_idx": pd.Series([], dtype="int64"),
            "weight": pd.Series([], dtype="float64"),
        }
    )


def _emb_matrix(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """list<float32> embedding column -> (n, d) float64 dense matrix,
    via flatten (zero-copy) + one reshape + one cast — np.stack over n
    per-row object arrays measured 150-600 ms for a 26k-row block and
    was the whole serving-latency budget."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(n, -1)


def _sims(qm: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(Q, d) x (rows, d) -> (Q, rows) dot products, each summed in
    one fixed order.  ``qm @ m.T`` lets BLAS pick its blocking by the
    matrix shape, so a score depended on where the packs were cut.
    Appended packs are cut differently from a rebuild's, so the scores
    must not (cost: 1.7 -> 8.5 ms for 32 queries x 10.3k rows x 64
    dims on one core)."""
    return np.einsum("qd,rd->qr", qm, m, optimize=False)


def _densify_block(tbl: pa.Table, kind: str, n_slices: int) -> list:
    """One view block -> ``n_slices`` row-range serving packs.

    kind="ent":   (node_key, vid, n_chunks, emb_matrix)
    kind="chunk": (vid, emb_matrix)
    kind="fact":  (emb_matrix, subj_key, obj_key)
    """
    n = tbl.num_rows
    has_emb = "embedding" in tbl.column_names
    if n and not has_emb:
        # rows without an embedding column mean schema drift upstream
        # (store part written without embeddings / renamed join column);
        # silently emitting an empty pack would vanish this block from
        # fact scoring and linking — data loss with no error
        raise ValueError(
            f"view block ({kind}, {n} rows) lacks 'embedding': "
            f"columns {tbl.column_names}"
        )
    if n and has_emb:
        m = _emb_matrix(tbl["embedding"])
        if kind == "ent":
            nk = tbl["node_key"].to_numpy(zero_copy_only=False)
            vid = tbl["vid"].to_numpy(zero_copy_only=False).astype(np.int64)
            nch = (
                np.nan_to_num(
                    tbl["n_chunks"].to_numpy(zero_copy_only=False).astype(np.float64),
                    nan=1.0,
                )
                if "n_chunks" in tbl.column_names
                else np.ones(n)
            )
            cols = (nk, vid, nch, m)
        elif kind == "chunk":
            vid = tbl["vid"].to_numpy(zero_copy_only=False).astype(np.int64)
            cols = (vid, m)
        else:  # fact
            sk = tbl["subj_key"].to_numpy(zero_copy_only=False)
            ok = tbl["obj_key"].to_numpy(zero_copy_only=False)
            fc = (
                tbl["content"].to_numpy(zero_copy_only=False)
                if "content" in tbl.column_names
                else np.full(n, "", dtype=object)
            )
            cols = (m, sk, ok, fc)
    else:
        empties = {
            "ent": (np.zeros(0, object), np.zeros(0, np.int64), np.zeros(0), np.zeros((0, 0))),
            "chunk": (np.zeros(0, np.int64), np.zeros((0, 0))),
            "fact": (
                np.zeros((0, 0)),
                np.zeros(0, object),
                np.zeros(0, object),
                np.zeros(0, object),
            ),
        }
        cols = empties[kind]
        n = 0
    bounds = (np.arange(n_slices + 1) * n) // max(n_slices, 1)
    packs = [
        tuple(c[int(bounds[i]) : int(bounds[i + 1])] for c in cols)
        for i in range(n_slices)
    ]
    return packs if n_slices > 1 else packs[0]


def _extend_pack(pack, tbl: pa.Table | None, kind: str, dst=None, w=None):
    """A write's delta applied to one serving pack: ``tbl``'s rows
    (densified as by _densify_block) are appended, then an entity
    pack's ``n_chunks`` gain the summed new passage-edge weights
    ``w`` of its vids found in the sorted unique ``dst``."""
    if tbl is not None and tbl.num_rows:
        new = _densify_block(tbl, kind, 1)
        pack = tuple(
            b if len(a) == 0 else np.concatenate([a, b]) for a, b in zip(pack, new)
        )
    if kind == "ent" and dst is not None and len(dst) and len(pack[1]):
        nk, vid, nch, m = pack
        at = np.minimum(np.searchsorted(dst, vid), len(dst) - 1)
        pack = (nk, vid, nch + np.where(dst[at] == vid, w[at], 0.0), m)
    return pack


def _join_delta(verts: pa.Table, kind: str, store: pa.Table | None) -> pa.Table | None:
    """A write's new vertices of ``kind`` ⋈ its new store rows
    (node_key = hash_id) -> (node_key, vid, embedding) by vid.  None
    unless the join is one-to-one: any other delta (a new store row of
    an old vertex, a new vertex embedded before) touches rows of the
    built view, which only a rebuild sees."""
    v = verts.filter(pc.equal(verts["kind"], kind))
    if store is None:
        store = pa.table(
            {
                "hash_id": pa.array([], pa.string()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        )
    at = pc.index_in(v["node_key"], value_set=store["hash_id"].combine_chunks())
    if v.num_rows != store.num_rows or at.null_count:
        return None
    return pa.table(
        {
            "node_key": v["node_key"],
            "vid": v["vid"],
            "embedding": store["embedding"].take(at),
        }
    ).sort_by("vid")


def _join_facts(store: pa.Table | None, meta: pa.Table | None) -> pa.Table | None:
    """A write's new fact embeddings ⋈ the fact table's new rows
    (hash_id = fact_key; the table repeats a fact once per source
    chunk, first wins) -> (embedding, subj_key, obj_key, content).
    New table rows of facts embedded before belong to facts the built
    view already holds.  None when a new embedding has no new row."""
    if store is None:
        return pa.table({"embedding": pa.array([], pa.list_(pa.float32()))})
    if meta is None:
        return None
    _keys, first = np.unique(
        meta["fact_key"].to_numpy(zero_copy_only=False), return_index=True
    )
    meta = meta.take(first)
    at = pc.index_in(store["hash_id"], value_set=meta["fact_key"].combine_chunks())
    if at.null_count:
        return None
    return pa.table(
        {
            "embedding": store["embedding"],
            **{c: meta[c].take(at) for c in ("subj_key", "obj_key", "content")},
        }
    )


def _fact_tile(pack, qm: np.ndarray, k: int) -> pa.Table:
    """Per-block fact scoring (get_fact_scores, HippoRAG.py:1290-1328):
    per-query block top-k on raw similarity + block extrema.  ``pack``
    is the pre-densified (emb_matrix, subj_key, obj_key, content) slice
    built once at view time (see _fact_joined); ``fact`` carries the
    human-readable triple string for the rerank hook."""
    m, sk, ok, fc = pack
    if m.shape[0] == 0:
        return pa.table(
            {
                "query_idx": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
                "subj_key": pa.array([], pa.string()),
                "obj_key": pa.array([], pa.string()),
                "fact": pa.array([], pa.string()),
                "blo": pa.array([], pa.float64()),
                "bhi": pa.array([], pa.float64()),
            }
        )
    sims = _sims(qm, m)  # (B, rows)
    blo, bhi = sims.min(axis=1), sims.max(axis=1)
    qid, flat = topk_tie_rows(sims, k)
    return pa.table(
        {
            "query_idx": pa.array(qid, pa.int64()),
            "score": pa.array(sims[qid, flat]),
            "subj_key": pa.array(sk[flat], pa.string()),
            "obj_key": pa.array(ok[flat], pa.string()),
            "fact": pa.array(fc[flat], pa.string()),
            "blo": pa.array(blo[qid]),
            "bhi": pa.array(bhi[qid]),
        }
    )


def _pick_vids(pack, keys: np.ndarray) -> pa.Table:
    """Per-block phrase resolution: keep entity rows whose node_key is
    in the linked key set.  ``pack`` = (node_key, vid, n_chunks, emb)."""
    nk, vid, nch, _m = pack
    if len(nk) == 0:
        return pa.table(
            {
                "node_key": pa.array([], pa.string()),
                "vid": pa.array([], pa.int64()),
                "n_chunks": pa.array([], pa.float64()),
            }
        )
    mask = in_keys(nk, keys)
    return pa.table(
        {
            "node_key": pa.array(nk[mask], pa.string()),
            "vid": pa.array(vid[mask], pa.int64()),
            "n_chunks": pa.array(nch[mask], pa.float64()),
        }
    )


def _link_tile(pack, qm: np.ndarray, k: int) -> pa.Table:
    """Per-block direct entity linking (facts=False mode): per-query
    top-k similarity + the 1/|chunks| damping factors (A5)."""
    nk, vids, nch, m = pack
    if m.shape[0] == 0:
        return pa.table(
            {
                "query_idx": pa.array([], pa.int64()),
                "vid": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
                "n_chunks": pa.array([], pa.float64()),
            }
        )
    sims = _sims(qm, m)  # (B, rows)
    rows, flat = topk_tie_rows(sims, k)
    return pa.table(
        {
            "query_idx": pa.array(rows, type=pa.int64()),
            "vid": pa.array(vids[flat], type=pa.int64()),
            "score": pa.array(sims[rows, flat], type=pa.float64()),
            "n_chunks": pa.array(nch[flat], type=pa.float64()),
        }
    )


def _chunk_sims(pack, qm: np.ndarray):
    """Per-block DPR similarities, computed ONCE: returns the (2, B)
    extrema block (fetched by the driver for the global min-max) and
    the (vids, sims) pack (stays in plasma for _dpr_triples_task).
    ``pack`` = (vids, emb_matrix)."""
    vids, m = pack
    if m.shape[0] == 0:
        return None, None
    sims = _sims(qm, m)  # (B, rows)
    return np.stack([sims.min(axis=1), sims.max(axis=1)]), (vids, sims)


def _dpr_triples(pack, lo: np.ndarray, hi: np.ndarray, pw_scale: float) -> pa.Table:
    """Normalize one block's raw sims by the global per-query extrema
    into (vid, query_idx, weight) reset triples (min-max M3 + the
    passage_node_weight damping) — no second matmul pass."""
    if pack is None:
        return pa.table(
            {
                "vid": pa.array([], pa.int64()),
                "query_idx": pa.array([], pa.int64()),
                "weight": pa.array([], pa.float64()),
            }
        )
    vids, sims = pack
    rngs = hi - lo
    norm = np.where(
        rngs[:, None] == 0,
        1.0,
        (sims - lo[:, None]) / np.where(rngs[:, None] == 0, 1.0, rngs[:, None]),
    )
    w = norm * pw_scale
    nq, nr = w.shape
    return pa.table(
        {
            "vid": pa.array(np.tile(vids, nq)),
            "query_idx": pa.array(np.repeat(np.arange(nq), nr)),
            "weight": pa.array(w.reshape(-1)),
        }
    )


def _dpr_topk_block(pack, qm: np.ndarray, sel: np.ndarray, top_k: int) -> pa.Table:
    """Per-block dense-passage top-k for the selected query rows (K2).
    ``pack`` = (vids, emb_matrix)."""
    vids, m = pack
    if m.shape[0] == 0:
        return pa.table(
            {
                "query_idx": pa.array([], pa.int64()),
                "vid": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
    sims = _sims(qm[sel], m)  # (Q, rows)
    qrow, flat = topk_tie_rows(sims, top_k)
    return pa.table(
        {
            "query_idx": pa.array(sel[qrow], pa.int64()),
            "vid": pa.array(vids[flat], pa.int64()),
            "score": pa.array(sims[qrow, flat]),
        }
    )


class _LinkWorker:
    """Persistent zero-CPU worker for the per-retrieve linking/DPR
    waves over the pinned view blocks.  These ran as plain Ray TASKS
    through round 4, which made serving latency bimodal: the raylet
    reaps idle task workers above the CPU count between retrieve
    calls, so the first wave after any pause re-paid ~1 s of worker
    spawn + import per block (measured 0.5 -> 3.7 s retrieve jitter in
    one quiet session — the same churn the PPR assembler actors fixed).
    Block refs are auto-dereffed actor args (zero-copy plasma reads);
    the pool is stateless, so any worker serves any block."""

    def densify(self, tbl, kind, n_slices):
        return _densify_block(tbl, kind, n_slices)

    def extend(self, pack, tbl, kind, dst, w):
        return _extend_pack(pack, tbl, kind, dst, w)

    def fact_tile(self, pack, qm, k):
        return _fact_tile(pack, qm, k)

    def pick_vids(self, pack, keys):
        return _pick_vids(pack, keys)

    def link_tile(self, pack, qm, k):
        return _link_tile(pack, qm, k)

    def chunk_sims(self, pack, qm):
        return _chunk_sims(pack, qm)

    def dpr_triples(self, pack, lo, hi, pw_scale):
        return _dpr_triples(pack, lo, hi, pw_scale)

    def dpr_topk(self, pack, qm, sel, top_k):
        return _dpr_topk_block(pack, qm, sel, top_k)


_LinkWorkerActor = ray.remote(num_cpus=0)(_LinkWorker)


@ray.remote
def _drop_turns_in_part(path: str, del_arr) -> int:
    """Drop turns whose text hash is deleted (atomic rewrite) — one
    task per corpus part (Ray dereferences the broadcast ref arg)."""
    t = pq.read_table(path)
    mask = ~in_keys(md5_hex(t["text"], prefix="chunk-"), del_arr)
    if mask.all():
        return 0
    tmp = path + ".tmp"
    pq.write_table(t.filter(pa.array(mask)), tmp)
    os.replace(tmp, path)
    return int((~mask).sum())


@ray.remote
def _drop_fact_rows_in_part(path: str, del_arr) -> list[str]:
    """Drop (fact, chunk) rows of deleted chunks; returns the dropped
    fact keys — one task per fact-table part."""
    t = pq.read_table(path)
    mask = ~in_keys(t["chunk_key"], del_arr)
    if mask.all():
        return []
    dropped = t["fact_key"].filter(pa.array(~mask)).to_pylist()
    tmp = path + ".tmp"
    pq.write_table(t.filter(pa.array(mask)), tmp)
    os.replace(tmp, path)
    return dropped


@ray.remote
def _surviving_fact_keys_in_part(path: str, probe_arr) -> list[str]:
    fk = pq.read_table(path, columns=["fact_key"])["fact_key"].to_numpy(
        zero_copy_only=False
    )
    return fk[in_keys(fk, probe_arr)].tolist()



# fact table columns <- delta table columns
_FACT_TABLE = {
    "pair_key": "node_key",
    "fact_key": "fact_key",
    "chunk_key": "chunk_key",
    "content": "content",
    "subj_key": "subj_key",
    "obj_key": "obj_key",
}


def _new_of_kind(keys: list[pa.Table], kind: str, col: str, parts: list[str], key_col: str):
    """Per delta block, the positions of the rows to insert into a
    store: the ``kind`` rows' ``col`` keys, probed against the stored
    ``parts``' ``key_col`` (state/parts.py new_rows)."""
    pos = [np.flatnonzero(pc.equal(k["kind"], kind).to_numpy(zero_copy_only=False)) for k in keys]
    idx = new_rows(
        [k[col].to_numpy(zero_copy_only=False)[p] for k, p in zip(keys, pos)], parts, key_col
    )
    return [p[i] for p, i in zip(pos, idx)]


def _coarse(stages: dict) -> dict:
    """index()'s ``timers`` from its ``stages``: the store side
    (corpus + probe + embed), the graph merge and the views append."""
    return {
        "stores_s": stages["corpus_s"] + stages["probe_s"] + stages["embed_s"],
        "graph_s": stages["graph_s"],
        "views_s": stages["views_s"],
    }


# turns per delta slice: a write (or a reindex) of more turns reads,
# probes and stores them one slice at a time, so the driver holds one
# slice's keys and the object store one slice's delta table
_SLICE_ROWS = 32_768


def _slices(parts: list[str]) -> list[list[tuple[str, int, int]]]:
    """Corpus row ranges ``(part, lo, hi)`` in corpus order, grouped
    into slices of at most ``_SLICE_ROWS`` turns; a part larger than
    that is cut.  No slice for no rows."""
    out, cur, n = [], [], 0
    for p in parts:
        rows = pq.ParquetFile(p).metadata.num_rows
        for lo in range(0, rows, _SLICE_ROWS):
            hi = min(rows, lo + _SLICE_ROWS)
            if cur and n + hi - lo > _SLICE_ROWS:
                out.append(cur)
                cur, n = [], 0
            cur.append((p, lo, hi))
            n += hi - lo
    return out + [cur] if cur else out


@ray.remote
def _read_delta(path: str, lo: int, hi: int, min_token_len: int, facts: bool) -> pa.Table:
    """Turns ``[lo, hi)`` of one corpus part -> their rows of the
    write's delta table, read once for every store and the graph: the
    graph's vertex candidate rows (node_key, kind "chunk" | "entity", content;
    ChunkToVertexRows), which are also the chunk and entity store rows
    (hash_id = node_key), and with ``facts`` one row per (fact, chunk)
    binding: kind "fact", node_key = the pair key, the triple string as
    content, and the fact table's fact_key (the reference's
    ``"fact-" + md5(str(tuple))``, embedding_store.py:44-61), chunk_key,
    subj_key and obj_key."""
    from ..functions.hashing import entity_key
    from ..stages.triples import ExtractTriples, triple_content

    chunks = _to_chunk_rows(pq.read_table(path, columns=["text"]).slice(lo, hi - lo))
    rows = ChunkToVertexRows(min_token_len)(chunks)
    if not facts:
        return rows
    tr = ExtractTriples(["chunk_key"], "text", min_token_len)(chunks)
    content = pa.array(
        triple_content(
            *(tr[c].to_numpy(zero_copy_only=False) for c in ("subj", "pred", "obj"))
        ),
        pa.string(),
    )
    fact_key = md5_hex(content, prefix="fact-")
    fact_rows = pa.table(
        {
            "node_key": pc.binary_join_element_wise(fact_key, tr["chunk_key"], "\x00"),
            "kind": pa.array(["fact"] * tr.num_rows, pa.string()),
            "content": content,
            "fact_key": fact_key,
            "chunk_key": tr["chunk_key"],
            "subj_key": entity_key(tr["subj"]),
            "obj_key": entity_key(tr["obj"]),
        }
    )
    return pa.concat_tables([rows, fact_rows], promote_options="default")


class HippoRagEngine:
    def __init__(
        self,
        working_dir: str,
        dim: int = 64,
        min_token_len: int = 3,
        link_top_k: int = 5,
        passage_node_weight: float = 0.05,
        damping: float = 0.5,
        synonymy: bool = False,
        synonymy_threshold: float = 0.8,
        synonymy_knn_k: int = 2047,
        facts: bool = True,
        fact_score_threshold: float = 0.0,
        edge_source: str = "cooccur",
        embedder_cls: type | None = None,
        embedder_kwargs: dict | None = None,
        num_gpus: float = 0.0,
        embed_batch_size: int | None = None,
        rerank_fn=None,
        qa_llm_fn=None,
    ):
        """``rerank_fn``: optional fact-rerank hook — the DSPyFilter
        plug-point (HippoRAG.py:1522-1570, rerank.py:108-131).  Called
        per retrieve() batch with the per-query top-k fact candidate
        DataFrame (query_idx, score, subj_key, obj_key, ...); returns
        the surviving (possibly reordered) subset.  Queries whose facts
        are all dropped fall back to DPR, like the reference's empty
        rerank result.  Not config-serializable (a callable), so it is
        constructor-only."""
        self.working_dir = working_dir
        self.corpus_dir = os.path.join(working_dir, "corpus")
        self.graph_dir = os.path.join(working_dir, "graph")
        self.facts_dir = os.path.join(working_dir, "facts")
        os.makedirs(self.corpus_dir, exist_ok=True)
        # T1 plug-point: real embedding models slot in as the actor-pool
        # class (loaded once per actor), with GPU/batch sizing knobs
        store_kw = dict(
            embedder_cls=embedder_cls,
            embedder_kwargs=embedder_kwargs,
            num_gpus=num_gpus,
            embed_batch_size=embed_batch_size,
        )
        self.chunk_store = EmbeddingStore(working_dir, "chunk", dim, **store_kw)
        self.entity_store = EmbeddingStore(working_dir, "entity", dim, **store_kw)
        self.fact_store = EmbeddingStore(working_dir, "fact", dim, **store_kw)
        self.dim = dim
        self.min_token_len = min_token_len
        self.link_top_k = link_top_k
        self.passage_node_weight = passage_node_weight
        self.damping = damping
        self.synonymy = synonymy
        self.synonymy_threshold = synonymy_threshold
        self.synonymy_knn_k = synonymy_knn_k
        self.facts = facts
        self.fact_score_threshold = fact_score_threshold
        self.edge_source = edge_source
        from ..state.embedding_store import embedder_defaults

        _ecls = embedder_cls or HashEmbedder
        self.embedder = _ecls(**embedder_defaults(_ecls, embedder_kwargs, dim))
        self.rerank_fn = rerank_fn
        # reader-model plug for qa()/rag_qa() (like rerank_fn, a
        # callable is not config-serializable so it is constructor-only)
        self.qa_llm_fn = qa_llm_fn
        self._sg: ShardedGraph | None = None
        self._sg_stale = False
        self._kinds_loaded = False
        self._link_pool: list | None = None
        # serving views: refs to the densified packs only (no Dataset);
        # None = not built.  _view_refs = (entity packs, chunk packs),
        # _fact_view = fact packs.  _view_rows[kind] = [rows at the
        # last build, rows appended since] for the compaction rule.
        self._view_refs: tuple[list, list] | None = None
        self._fact_view: list | None = None
        self._view_rows: dict[str, list[int]] = {}

    @classmethod
    def from_config(cls, working_dir: str, config=None) -> "HippoRagEngine":
        """Construct from the frozen EngineConfig (BaseConfig analog)."""
        from ..config import DEFAULT_CONFIG

        c = config or DEFAULT_CONFIG
        return cls(
            working_dir,
            dim=c.embedding_dim,
            min_token_len=c.min_token_len,
            link_top_k=c.link_top_k,
            passage_node_weight=c.passage_node_weight,
            damping=c.damping,
            synonymy=c.synonymy,
            synonymy_threshold=c.synonymy_threshold,
            synonymy_knn_k=c.synonymy_knn_k,
            facts=c.facts,
            fact_score_threshold=c.fact_score_threshold,
            edge_source=c.edge_source,
        )

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _corpus_parts(self) -> list[str]:
        return walk_parts(self.corpus_dir)

    def _corpus_batch_dirs(self) -> list[str]:
        return sorted(
            os.path.join(self.corpus_dir, d)
            for d in os.listdir(self.corpus_dir)
            if os.path.isdir(os.path.join(self.corpus_dir, d))
        )

    def corpus(self) -> "rd.Dataset":
        return rd.read_parquet(self._corpus_parts())

    def index(self, transcripts: "rd.Dataset") -> dict:
        """Append new turns and merge them into the stores and the graph
        at the cost of the delta, not of the corpus.

        The new turns are written to the corpus and read back ONCE into
        a delta table of chunk, entity and fact rows (``_read_delta``,
        one task per written part).  Every store insert and the graph
        merge read from it: one key probe per store (state/parts.py)
        finds the keys already stored, and each store embeds and writes
        only its new rows.  When a graph exists the merge is incremental
        (``merge_delta``: a key probe of the vertex dictionary, new
        vertices as one new part) — old turns are never re-extracted.
        A write of more than ``_SLICE_ROWS`` turns is read, probed and
        stored one slice at a time (a later slice's probe sees the
        earlier slices' rows, so first-wins holds across slices), and
        the merge then reads its vertex candidates once more.  An empty
        write changes nothing and returns zero counts.

        The shard pool is not respawned: like every write, this marks
        it stale (``_invalidate``), and the next retrieve reloads the
        live shard actors in place.  The serving views outlive an
        incremental write: their packs are set aside, the write's delta
        (new vertex, store, fact and passage-edge rows, read with
        parquet filters) is appended to them (``_append_views``), and
        they are put back only once the append succeeded, so the next
        retrieve rebuilds nothing.  A rebuild write (synonymy mode, no
        graph yet), a delta the append does not cover, appended rows
        exceeding the rows of the last build, or an exception anywhere
        leaves the views dropped for the next retrieve to rebuild.

        ``timers`` splits the wall into ``stores_s`` (corpus + store
        inserts), ``graph_s`` and ``views_s`` (the append); ``stages``
        splits it finer, into ``corpus_s`` (corpus write + delta
        table), ``probe_s`` (store key probes), ``embed_s`` (store and
        fact-table writes), ``graph_s`` and ``views_s``."""
        import time as _time

        t0 = _time.perf_counter()
        manifest = os.path.join(self.graph_dir, "manifest.json")
        # streamed corpus append: each index() call writes one batch
        # directory of parquet parts (never concatenated on the driver)
        batch_dir = os.path.join(
            self.corpus_dir, f"batch-{len(self._corpus_batch_dirs()):05d}"
        )
        transcripts.write_parquet(batch_dir)
        slices = _slices(walk_parts(batch_dir))
        stages = dict.fromkeys(("corpus_s", "probe_s", "embed_s", "graph_s", "views_s"), 0.0)
        if not slices:
            # nothing to write (Ray writes no part for 0 rows): stores,
            # graph, views and pool stay as they are
            shutil.rmtree(batch_dir, ignore_errors=True)
            g = load_graph(self.graph_dir) if os.path.exists(manifest) else None
            stages["corpus_s"] = _time.perf_counter() - t0
            return {
                "new_chunks": 0,
                "new_entities": 0,
                "n_vertices": g.n_vertices if g else 0,
                "n_edges": g.n_edges if g else 0,
                "n_syn_edges": 0,
                "timers": _coarse(stages),
                "stages": stages,
            }
        views = (self._view_refs, self._fact_view)
        self._invalidate()
        parts_before = self._store_parts()
        stages["corpus_s"] = _time.perf_counter() - t0
        n_chunks, n_entities, delta = self._insert_slices(slices, stages)
        t2 = _time.perf_counter()
        incremental = os.path.exists(manifest) and not self.synonymy
        if incremental:
            from ..stages.graph_build import merge_delta

            if delta is None:  # a sliced write: the candidates, once more
                delta = self._delta([u for sl in slices for u in sl], facts=False)
            old = load_graph(self.graph_dir)
            g = merge_delta(
                *delta,
                old,
                self.graph_dir,
                self.min_token_len,
                edge_source=self.edge_source,
            )
            n_syn = 0
        else:
            # synonymy edges depend on the full entity set; rebuild
            shutil.rmtree(self.graph_dir, ignore_errors=True)
            g = build_graph(
                self.corpus(), self.graph_dir, self.min_token_len,
                edge_source=self.edge_source,
            )
            n_syn = self._add_synonymy_edges(g) if self.synonymy else 0
        t3 = _time.perf_counter()
        if incremental:
            self._append_views(views, parts_before, old.n_vertices, g)
        t4 = _time.perf_counter()
        stages["graph_s"] = t3 - t2
        stages["views_s"] = t4 - t3
        return {
            "new_chunks": n_chunks,
            "new_entities": n_entities,
            "n_vertices": g.n_vertices,
            # match the on-disk manifest, which _add_synonymy_edges bumps
            "n_edges": g.n_edges + n_syn,
            "n_syn_edges": n_syn,
            "timers": _coarse(stages),
            "stages": stages,
        }

    def _delta(self, units: list, facts: bool | None = None) -> tuple[list, list[pa.Table]]:
        """Read corpus row ranges ``(part, lo, hi)`` into a delta table,
        one task per range: refs of its blocks, and per block its keys
        (node_key, kind, fact_key) on the driver — delta-sized, like
        every key a write probes with.  ``facts`` (default: the
        engine's) adds the fact rows."""
        facts = self.facts if facts is None else facts
        refs = [_read_delta.remote(p, lo, hi, self.min_token_len, facts) for p, lo, hi in units]
        cols = ["node_key", "kind"] + (["fact_key"] if facts else [])
        return refs, block_columns(refs, cols)

    def _insert_slices(self, slices: list, stages: dict) -> tuple[int, int, tuple | None]:
        """Read and store every slice of a write in turn, adding the
        seconds spent to ``stages`` (corpus_s: delta reads, probe_s,
        embed_s).  Returns the new chunk and entity counts and, for a
        single slice, its delta table (refs, keys) for the graph merge
        (None for a sliced write, whose slices are released as they
        are stored)."""
        import time as _time

        n_chunks = n_entities = 0
        for sl in slices:
            t0 = _time.perf_counter()
            delta = self._delta(sl)
            t1 = _time.perf_counter()
            c, e, probe_s = self._insert_stores(*delta)
            n_chunks, n_entities = n_chunks + c, n_entities + e
            stages["corpus_s"] += t1 - t0
            stages["probe_s"] += probe_s
            stages["embed_s"] += _time.perf_counter() - t1 - probe_s
        return n_chunks, n_entities, delta if len(slices) == 1 else None

    def _store_parts(self) -> dict[str, set[str]]:
        """Part files of every append-only store, per store: a write's
        new rows are the parts it adds (every insert writes a new
        batch directory and never rewrites a part)."""
        return {
            "chunk": set(self.chunk_store._parts()),
            "ent": set(self.entity_store._parts()),
            "fact": set(self.fact_store._parts()),
            "fact_meta": set(self._fact_parts()),
        }

    def _append_views(self, views, parts_before: dict, n_old: int, g) -> None:
        """Append an incremental write's delta to the serving packs set
        aside by ``index`` and put them back.  Each delta is read with
        parquet filters (vertices ``vid >= n_old``, the stores' new
        parts, passage edges from the new chunks, whose vids are all
        ``>= n_old``) and joined on the driver; its rows go into each
        kind's LAST pack, so the pack count stays fixed, and every
        entity pack's ``n_chunks`` gains the new passage-edge weights
        (an old entity can gain chunks).  One _LinkWorker call per
        changed pack.  A view is left dropped (rebuilt by the next
        retrieve) when the delta is not covered — a new store row
        whose vertex is not new, or a new vertex without a new store
        row — or when its appended rows would exceed the rows it was
        built with (the compaction rule)."""
        import pyarrow.dataset as pads

        view_refs, fact_refs = views
        added = self._store_parts()
        added = {k: sorted(added[k] - parts_before[k]) for k in added}

        def new_rows(key: str, columns: list[str]) -> pa.Table | None:
            if not added[key]:
                return None
            return pads.dataset(added[key]).to_table(columns=columns)

        def grows(kind: str, n: int) -> bool:
            base, appended = self._view_rows[kind]
            self._view_rows[kind] = [base, appended + n]
            return appended + n <= base

        if view_refs is not None:
            verts = pads.dataset(g.vertex_parts).to_table(
                columns=["node_key", "kind", "vid"],
                filter=pads.field("vid") >= n_old,
            )
            ent = _join_delta(verts, "entity", new_rows("ent", ["hash_id", "embedding"]))
            chunk = _join_delta(verts, "chunk", new_rows("chunk", ["hash_id", "embedding"]))
            if (
                ent is not None
                and chunk is not None
                and grows("ent", ent.num_rows)
                and grows("chunk", chunk.num_rows)
            ):
                edges = pads.dataset(g.edges_path).to_table(
                    columns=["dst", "weight"],
                    filter=(pads.field("etype") == "passage")
                    & (pads.field("src") >= n_old),
                )
                dst, inv = np.unique(
                    edges["dst"].to_numpy(zero_copy_only=False), return_inverse=True
                )
                w = np.bincount(
                    inv, weights=edges["weight"].to_numpy(zero_copy_only=False),
                    minlength=len(dst),
                )
                ent = ent.append_column(
                    "n_chunks", pa.array(np.zeros(ent.num_rows), pa.float64())
                )
                ent_refs, chunk_refs = view_refs
                if len(dst) or ent.num_rows:
                    ent_refs = self._extend_refs(ent_refs, ent, "ent", dst, w)
                if chunk.num_rows:
                    chunk_refs = self._extend_refs(chunk_refs, chunk, "chunk")
                self._view_refs = (ent_refs, chunk_refs)

        if fact_refs is not None:
            facts = _join_facts(
                new_rows("fact", ["hash_id", "embedding"]),
                new_rows("fact_meta", ["fact_key", "subj_key", "obj_key", "content"]),
            )
            if facts is not None and grows("fact", facts.num_rows):
                self._fact_view = (
                    self._extend_refs(fact_refs, facts, "fact")
                    if facts.num_rows
                    else fact_refs
                )

    def _extend_refs(self, refs: list, tbl: pa.Table, kind: str, dst=None, w=None) -> list:
        """One _LinkWorker ``extend`` call per pack that changes: the
        last pack takes ``tbl``'s rows, and with new passage-edge
        weights every entity pack is bumped."""
        pool = self._pool()
        out = list(refs)
        bump_all = dst is not None and len(dst) > 0
        for i, r in enumerate(refs):
            last = i == len(refs) - 1
            if last or bump_all:
                out[i] = pool[i % len(pool)].extend.remote(
                    r, tbl if last else None, kind, dst, w
                )
        return out

    def _insert_stores(self, refs: list, keys: list[pa.Table]) -> tuple[int, int, float]:
        """Insert a delta table's new rows into the chunk, entity and
        fact stores and the fact table — the reference's store inserts
        (HippoRAG.py:218-263).  One key probe per store first, then one
        embed-and-write per store over its new rows.  Returns the new
        chunk and entity counts and the seconds spent probing.

        The fact table rows carry ``subj_key`` / ``obj_key`` (entity
        node keys) so query-time fact->entity mapping
        (HippoRAG.py:1446-1481) is a plain join, never a re-parse;
        they are keyed by the (fact, chunk) pair so an incremental
        delete can drop a chunk's facts."""
        import time as _time

        t0 = _time.perf_counter()
        stores = [(self.chunk_store, "chunk", "node_key"), (self.entity_store, "entity", "node_key")]
        if self.facts:
            stores.append((self.fact_store, "fact", "fact_key"))
            table_idx = _new_of_kind(keys, "fact", "node_key", self._fact_parts(), "pair_key")
        picks = [
            (store, col, _new_of_kind(keys, kind, col, store._parts(), "hash_id"))
            for store, kind, col in stores
        ]
        t1 = _time.perf_counter()
        counts = [
            store.write_rows(refs, idx, {"hash_id": col, "content": "content"})
            for store, col, idx in picks
        ]
        if self.facts and any(len(i) for i in table_idx):
            write_rows(refs, table_idx, _FACT_TABLE, self.facts_dir)
        return counts[0], counts[1], t1 - t0

    def _fact_parts(self) -> list[str]:
        return walk_parts(self.facts_dir)

    def _reindex(self) -> dict:
        stages = dict.fromkeys(("corpus_s", "probe_s", "embed_s"), 0.0)
        n_chunks, n_entities, _ = self._insert_slices(_slices(self._corpus_parts()), stages)
        self._invalidate()
        shutil.rmtree(self.graph_dir, ignore_errors=True)
        g = build_graph(
            self.corpus(), self.graph_dir, self.min_token_len,
            edge_source=self.edge_source,
        )
        n_syn = self._add_synonymy_edges(g) if self.synonymy else 0
        return {
            "new_chunks": n_chunks,
            "new_entities": n_entities,
            "n_vertices": g.n_vertices,
            # match the on-disk manifest, which _add_synonymy_edges bumps
            "n_edges": g.n_edges + n_syn,
            "n_syn_edges": n_syn,
        }

    def _add_synonymy_edges(self, g) -> int:
        """KNN similarity link (HippoRAG.py:821-882): append syn edge
        records + their adjacency expansion as extra parquet parts
        (each part carries its own row-group stats, so shard pruning
        still works)."""
        from ..stages.shuffle import hash_join
        from ..stages.synonymy import synonymy_edges_ds

        verts = g.vertices().map_batches(
            lambda b: pa.table(
                {
                    "node_key": b["node_key"],
                    "vid": b["vid"],
                    "content": b["content"],
                }
            ).filter(pc.equal(b["kind"], "entity")),
            batch_format="pyarrow",
        )
        emb = self.entity_store.dataset().map_batches(
            lambda b: pa.table({"node_key": b["hash_id"], "embedding": b["embedding"]}),
            batch_format="pyarrow",
        )
        from ..stages.shuffle import range_sort

        joined = hash_join(verts.materialize(), emb.materialize(), "node_key")
        syn = synonymy_edges_ds(
            joined, threshold=self.synonymy_threshold, knn_k=self.synonymy_knn_k
        ).materialize()
        n_syn = syn.count()
        if n_syn == 0:
            return 0
        # streamed parts (read_parquet recurses, so edges/syn/ and
        # adj/syn/ extend the canonical tables); adjacency parts are
        # range-sorted by src so shard row-group pruning still works
        syn.write_parquet(os.path.join(self.graph_dir, "edges", "syn"))

        def expand(batch: pa.Table) -> pa.Table:
            rev = pa.table(
                {
                    "src": batch["dst"],
                    "dst": batch["src"],
                    "weight": batch["weight"],
                    "etype": batch["etype"],
                }
            )
            return pa.concat_tables([batch, rev])

        adj_syn = range_sort(
            syn.map_batches(expand, batch_format="pyarrow").materialize(), "src"
        )
        adj_syn.write_parquet(os.path.join(self.graph_dir, "adj", "syn"))
        man_path = os.path.join(self.graph_dir, "manifest.json")
        with open(man_path) as f:
            man = json.load(f)
        man["n_edges"] += n_syn
        man["n_syn_edges"] = n_syn
        with open(man_path, "w") as f:
            json.dump(man, f)
        return n_syn

    def delete(self, texts: list[str], incremental: bool | None = None) -> dict:
        """Delete turns by exact text (HippoRAG.delete semantics:
        group-wise anti-join fixpoint, HippoRAG.py:280-361).

        ``incremental`` (default: on unless synonymy edges are enabled,
        which depend on the full entity set) subtracts the deleted
        chunks' edge partials through the int-key exchange
        (graph_build.delete_chunks_from_graph) instead of rebuilding
        the graph from the surviving corpus — the surviving corpus is
        never re-extracted.  An incremental delete of a graph with
        synonymy edges raises ``ValueError`` before anything changes
        (see ``graph_build.graph_config``)."""
        if incremental is None:
            incremental = not self.synonymy
        incremental = incremental and os.path.exists(os.path.join(self.graph_dir, "manifest.json"))
        if incremental:
            # a graph the incremental delete refuses (synonymy edges)
            # is refused before the corpus or a store loses a row
            graph_config(self.graph_dir)
        del_chunk_ids = set(
            md5_hex(np.array(texts, dtype=object), prefix="chunk-").to_pylist()
        )
        del_arr = np.sort(np.array(sorted(del_chunk_ids), dtype=object))
        # drop matching turns from the corpus part files (one task each)
        del_ref = ray.put(del_arr)
        ray.get([_drop_turns_in_part.remote(p, del_ref) for p in self._corpus_parts()])
        self.chunk_store.delete(del_chunk_ids)

        if incremental:
            from ..stages.graph_build import delete_chunks_from_graph

            self._invalidate()
            g = delete_chunks_from_graph(
                texts,
                load_graph(self.graph_dir),
                self.graph_dir,
                self.min_token_len,
                edge_source=self.edge_source,
            )
            self._delete_facts_for(del_arr)
            stats = {"n_vertices": g.n_vertices, "n_edges": g.n_edges}
        else:
            # rebuild path (synonymy needs the full entity set): facts
            # are re-derived from the surviving corpus
            shutil.rmtree(self.facts_dir, ignore_errors=True)
            shutil.rmtree(self.fact_store.dir, ignore_errors=True)
            os.makedirs(self.fact_store.dir, exist_ok=True)
            stats = self._reindex()
        # entity rows whose every referencing chunk was deleted no longer
        # appear in the graph; drop them from the store too.  Only an
        # entity a deleted text mentions can have died, so its keys (at
        # the graph's min_token_len) are probed against the vertex
        # table, and the misses leave the store: a delete-sized probe,
        # not a join of the whole store.
        from ..state.parts import in_keys, probe_keys

        g = self.graph()
        with open(os.path.join(self.graph_dir, "manifest.json")) as f:
            min_len = json.load(f).get("min_token_len", self.min_token_len)
        rows = ChunkToVertexRows(min_len)(
            _to_chunk_rows(pa.table({"text": pa.array(texts, pa.string())}))
        )
        keys = np.unique(
            rows["node_key"].filter(pc.equal(rows["kind"], "entity")).to_numpy(zero_copy_only=False)
        )
        live = probe_keys(g.vertex_parts, "node_key", keys)["node_key"]
        stale = keys[~in_keys(keys, live)]
        if len(stale):
            self.entity_store.delete(set(stale))
        return stats

    def _delete_facts_for(self, del_chunk_arr: np.ndarray) -> None:
        """Drop (fact, chunk) rows of deleted chunks from the fact
        table; facts left with no surviving source chunk are removed
        from the fact store (the delete fixpoint at fact granularity).
        One task per part file for both passes."""
        del_ref = ray.put(del_chunk_arr)
        dropped_lists = ray.get(
            [_drop_fact_rows_in_part.remote(p, del_ref) for p in self._fact_parts()]
        )
        dropped_keys: set[str] = set().union(*dropped_lists) if dropped_lists else set()
        if not dropped_keys:
            return
        probe_ref = ray.put(np.array(sorted(dropped_keys), dtype=object))
        surv_lists = ray.get(
            [
                _surviving_fact_keys_in_part.remote(p, probe_ref)
                for p in self._fact_parts()
            ]
        )
        surviving: set[str] = set().union(*surv_lists) if surv_lists else set()
        stale = dropped_keys - surviving
        if stale:
            self.fact_store.delete(stale)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def graph(self):
        return load_graph(self.graph_dir)

    def _invalidate(self, close: bool = False) -> None:
        """Drop every per-graph cache after a write.  The shard pool
        stays alive, marked stale, and the next retrieve reloads it in
        place (``_sharded``); ``close`` kills it instead."""
        if close and self._sg is not None:
            self._sg.shutdown()
            self._sg = None
        self._sg_stale = True
        self._kinds_loaded = False
        self._view_refs = None
        self._fact_view = None

    def _sharded(self) -> ShardedGraph:
        """The shard pool over the current graph: spawned on first use,
        reloaded in place after a write.  A failed reload has already
        shut the pool down; it is dropped so the next call respawns."""
        if self._sg is None:
            g = self.graph()
            self._sg = ShardedGraph(g.adj_path, g.n_vertices)
        elif self._sg_stale:
            g = self.graph()
            try:
                self._sg.reload(g.adj_path, g.n_vertices)
            except BaseException:
                self._sg = None
                raise
        self._sg_stale = False
        return self._sg

    def retrieve(self, queries: list[str], top_k: int = 10) -> list[dict]:
        """Batched streaming retrieval — no stage materializes the
        vertex or embedding tables on the driver:

        1. vertices ⋈ embeddings via the bucketed hash join
           (stages/shuffle.py) per kind;
        2. entity linking (J1) + DPR passage scoring (HippoRAG.py:
           1488-1498) as tiled ``map_batches`` against the broadcast
           query matrix; DPR min-max normalization is a two-pass over
           the tiles (per-block extrema -> tiny driver combine ->
           normalized weight emission);
        3. reset vectors flow to the shard actors as a
           (vid, query_idx, weight) Dataset (route_reset_dataset) —
           never a dense driver-side matrix;
        4. ranking is per-shard top-k on the actors merged on the
           driver (two-level top-k, K6); only the final top_k rows'
           content is read back (filtered parquet read — the
           reference's lookup-content-last, HippoRAG.py:428-430).

        Fills ``self.timers`` with the reference's accumulators
        (HippoRAG.py:160-162, 432-439), plus the two post-write costs
        they contain: ``views_s`` (view build, inside ``linking_time``)
        and ``pool_s`` (shard pool spawn or in-place reload, inside
        ``ppr_time``).  Both are ~0 on a steady retrieve and after an
        incremental ``index``, which appends to the views instead of
        dropping them; ``views_s`` is the rebuild after any other
        write."""
        import time as _time

        t_all = _time.perf_counter()
        g = self.graph()
        B = len(queries)
        q_norm = text_processing(pa.array(queries)).to_pylist()
        q_mat = self.embedder.embed(q_norm).astype(np.float64)
        q_ref = ray.put(q_mat)

        t0 = _time.perf_counter()
        self._build_views(g)
        fact_refs = self._fact_joined() if self.facts else None
        t_views = _time.perf_counter() - t0

        # --- linking: facts (HippoRAG.py:1290-1328 fact scores ->
        # 1446-1481 fact->entity phrase weights) or direct entities ---
        # (both helpers serve from the densified _view_refs packs)
        fallback: set[int] = set(range(B))
        link = _empty_link()
        if self.facts:
            if fact_refs:
                link, fallback = self._fact_link(fact_refs, q_ref, B, queries)
        else:
            link = self._entity_link(q_ref)
            fallback = set(range(B)) - set(link["query_idx"].tolist())
        link_triples = pa.table(
            {
                "vid": pa.array(link["vid"].to_numpy(np.int64)),
                "query_idx": pa.array(link["query_idx"].to_numpy(np.int64)),
                "weight": pa.array(link["weight"].to_numpy(np.float64)),
            }
        )

        # --- DPR passage weights: two-pass min-max (M3) as task waves
        # over the pinned chunk-view blocks; sims computed ONCE per
        # block (the normalize pass reads the plasma-resident pack) ---
        _ent_refs, chunk_refs = self._view_refs
        sim_pairs = self._pool_map(
            "chunk_sims", [(r, q_ref) for r in chunk_refs], num_returns=2
        )
        ext = [e for e in ray.get([p[0] for p in sim_pairs]) if e is not None]
        if not ext:  # no chunk embeddings at all
            lo = np.zeros(B)
            hi = np.zeros(B)
        else:
            lo = np.min([e[0] for e in ext], axis=0)
            hi = np.max([e[1] for e in ext], axis=0)
        reset_refs = self._pool_map(
            "dpr_triples",
            [(p[1], lo, hi, self.passage_node_weight) for p in sim_pairs],
        ) + [ray.put(link_triples)]

        t_link = _time.perf_counter() - t_all
        t0 = _time.perf_counter()
        # queries already in the DPR-fallback set never read their PPR
        # scores: skip the iteration entirely when EVERY query fell
        # back, and never launch per-shard top-k tasks for them
        non_fallback = [qi for qi in range(B) if qi not in fallback]
        t_pool = 0.0
        if non_fallback:
            sg = self._sharded()
            t_pool = _time.perf_counter() - t0
            personalized_pagerank(
                sg,
                n_queries=B,
                damping=self.damping,
                reset_dataset=reset_refs,
                collect=False,
            )
        t_ppr = _time.perf_counter() - t0

        # --- per-shard top-k, merged on the driver (K6) ---
        results = []
        shard_tops: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if non_fallback:
            if not self._kinds_loaded:
                ray.get([a.load_kinds.remote(g.vertex_parts) for a in sg.actors])
                self._kinds_loaded = True
            shard_tops = dict(zip(non_fallback, topk_chunks(sg, non_fallback, top_k)))
        # fallback queries get pure DPR ranking (HippoRAG.py:417-419)
        dpr_ranks = (
            self._dpr_topk(q_ref, sorted(fallback), top_k)
            if fallback
            else {}
        )
        need_vids: set[int] = set()
        merged = []
        for qi in range(B):
            vids, scs = dpr_ranks[qi] if qi in dpr_ranks else shard_tops[qi]
            merged.append((vids, scs))
            need_vids.update(vids.tolist())

        # content lookup last, filtered to the final top rows (J2)
        import pyarrow.dataset as pads

        tbl = pads.dataset(g.vertex_parts).to_table(
            columns=["vid", "content"],
            filter=pads.field("vid").isin(sorted(need_vids)),
        )
        content = dict(zip(tbl["vid"].to_pylist(), tbl["content"].to_pylist()))
        for qi in range(B):
            vids, scs = merged[qi]
            results.append(
                {
                    "question": queries[qi],
                    "docs": [content[int(v)] for v in vids],
                    "doc_scores": np.asarray(scs).tolist(),
                    "mode": "dpr_fallback" if qi in dpr_ranks else "ppr",
                }
            )
        self.timers = {
            "linking_time": t_link,
            "ppr_time": t_ppr,
            "all_retrieval_time": _time.perf_counter() - t_all,
            # the per-graph rebuilds inside linking_time / ppr_time:
            # ~0 on a steady retrieve, the post-write cost otherwise
            "views_s": t_views,
            "pool_s": t_pool,
        }
        return results

    # ------------------------------------------------------------------
    # linking helpers
    # ------------------------------------------------------------------

    def _build_views(self, g) -> None:
        """Cached vertex⋈embedding views (bucketed hash joins; nothing
        materialized on the driver), kept as densified pack refs only.
        Built here by the first retrieve after a write that dropped
        them (``_invalidate``); an incremental ``index`` appends to
        them instead (``_append_views``)."""
        if self._view_refs is not None:
            return
        from ..stages.shuffle import hash_join, int_key_sum

        def _kind(ds, kind):
            return ds.map_batches(
                lambda b, k=kind: b.filter(pc.equal(b["kind"], k)),
                batch_format="pyarrow",
            )

        def _as_key(store_ds):
            return store_ds.map_batches(
                lambda b: pa.table({"node_key": b["hash_id"], "embedding": b["embedding"]}),
                batch_format="pyarrow",
            )

        verts = g.vertices().select_columns(["node_key", "kind", "vid"])
        ent_joined = hash_join(
            _kind(verts, "entity"), _as_key(self.entity_store.dataset()), "node_key"
        )
        chunk_joined = hash_join(
            _kind(verts, "chunk"), _as_key(self.chunk_store.dataset()), "node_key"
        ).materialize()

        # |chunks(entity)| damping factors (J4): passage-edge sum by dst
        passage = g.edges().map_batches(
            lambda b: b.filter(pc.equal(b["etype"], "passage")).select(["dst", "weight"]),
            batch_format="pyarrow",
        )
        counts = int_key_sum(passage.materialize(), "dst", "weight").map_batches(
            lambda b: pa.table({"vid": b["dst"], "n_chunks": b["weight"]}),
            batch_format="pyarrow",
        )
        ent_full = hash_join(ent_joined, counts, "vid", how="left").materialize()
        # pinned PRE-DENSIFIED packs for the per-call serving waves:
        # numpy key/vid arrays + the (n, d) embedding matrix, converted
        # ONCE per build on the pool workers (the per-call np.stack
        # over Arrow list rows measured 150-600 ms per block — the whole
        # retrieve budget) and split into ~pool-size row ranges so one
        # big materialized block cannot serialize a wave on a single
        # worker.  Driver holds only refs; pack bytes stay in plasma,
        # and the joined blocks are freed once densified.
        # ORDER MATTERS: _view_refs is the cache sentinel and is set
        # LAST, in one assignment — a failure mid-densify leaves it
        # None, never pointing at the PREVIOUS graph's packs, so no
        # retrieve() can link stale vids against the new graph.
        self._view_rows["ent"] = [ent_full.count(), 0]
        self._view_rows["chunk"] = [chunk_joined.count(), 0]
        self._view_refs = (
            self._densify_refs(ent_full.to_arrow_refs(), "ent"),
            self._densify_refs(chunk_joined.to_arrow_refs(), "chunk"),
        )

    def _densify_refs(self, block_refs: list, kind: str) -> list:
        """Convert view blocks into serving packs on the worker pool:
        one call per block, ``num_returns`` row-range slices each."""
        n_slices = max(2, min(32, int(ray.cluster_resources().get("CPU", 8))))
        if not block_refs:
            return []
        per_block = max(1, -(-n_slices // len(block_refs)))
        out: list = []
        pool = self._pool()
        for i, r in enumerate(block_refs):
            m = pool[i % len(pool)].densify.options(num_returns=per_block)
            got = m.remote(r, kind, per_block)
            out.extend([got] if per_block == 1 else got)
        return out

    def _fact_joined(self) -> list:
        """Cached fact view: fact embeddings ⋈ fact metadata
        (subj_key/obj_key/content) via the bucketed hash join, kept as
        densified pack refs ([] when there are no facts)."""
        if self._fact_view is not None:
            return self._fact_view
        parts = self._fact_parts()
        if not parts or self.fact_store.count() == 0:
            self._view_rows["fact"] = [0, 0]
            self._fact_view = []
            return self._fact_view
        from ..stages.shuffle import hash_distinct, hash_join

        meta = hash_distinct(
            rd.read_parquet(
                # content = the human-readable fact string: the rerank
                # hook must show a real triple to the LLM, not md5
                # endpoint keys
                parts,
                columns=["fact_key", "subj_key", "obj_key", "content"],
            ).materialize(),
            "fact_key",
        )
        embs = self.fact_store.dataset().map_batches(
            lambda b: pa.table({"fact_key": b["hash_id"], "embedding": b["embedding"]}),
            batch_format="pyarrow",
        )
        view = hash_join(embs.materialize(), meta.materialize(), "fact_key").materialize()
        self._view_rows["fact"] = [view.count(), 0]
        self._fact_view = self._densify_refs(view.to_arrow_refs(), "fact")
        return self._fact_view

    def _pool(self) -> list:
        """Lazy persistent _LinkWorker pool (see class docstring); sized
        to the session's cores, round-robined over block refs."""
        if not self._link_pool:
            w = max(2, min(32, int(ray.cluster_resources().get("CPU", 8))))
            self._link_pool = [_LinkWorkerActor.remote() for _ in range(w)]
        return self._link_pool

    def _pool_map(self, method: str, argss, **opts) -> list:
        """Submit one actor call per arg tuple, round-robin across the
        pool; returns the refs WITHOUT waiting."""
        pool = self._pool()
        calls = []
        for i, args in enumerate(argss):
            m = getattr(pool[i % len(pool)], method)
            if opts:
                m = m.options(**opts)
            calls.append(m.remote(*args))
        return calls

    def _fact_link(
        self, fact_refs: list, q_ref, B: int, queries: list[str] | None = None
    ) -> tuple[pd.DataFrame, set[int]]:
        """Query -> fact candidates -> phrase (entity) reset weights:

        1. tiled dense scores against the fact embeddings with
           per-block top-k + extrema (get_fact_scores,
           HippoRAG.py:1290-1328; min-max is monotonic so block top-k
           on raw scores is exact);
        2. per-query global top ``link_top_k`` facts, scores min-max
           normalized (K1 rerank without the LLM filter);
        3. fact -> subject/object phrases, each weighted
           score / |chunks(phrase)| (damping HippoRAG.py:1463-1464),
           averaged per phrase (A5), top ``link_top_k`` phrases kept
           (K4 zeroing);
        4. queries with no facts above ``fact_score_threshold`` (or no
           resolvable phrases) fall back to DPR (HippoRAG.py:417-419).
        """
        k = self.link_top_k
        cand = pa.concat_tables(
            ray.get(
                self._pool_map(
                    "fact_tile", [(r, q_ref, k) for r in fact_refs]
                )
            )
        ).to_pandas()
        empty = _empty_link()
        if cand.empty:
            return empty, set(range(B))
        lo = cand.groupby("query_idx")["blo"].min()
        hi = cand.groupby("query_idx")["bhi"].max()
        cand = cand.sort_values(
            ["query_idx", "score", "subj_key", "obj_key"],
            ascending=[True, False, True, True],
        ).groupby("query_idx", as_index=False).head(k)
        # the fallback gate runs on RAW similarity (the rerank-filter
        # analog, HippoRAG.py:1522-1570): per-query min-max always peaks
        # at 1.0, so a threshold on normalized scores could never fire
        cand = cand[cand["score"] >= self.fact_score_threshold]
        if cand.empty:
            return empty, set(range(B))
        if self.rerank_fn is not None:
            # DSPyFilter plug-point: the hook sees the top-k facts and
            # returns the survivors; all-dropped queries fall to DPR.
            # A two-parameter hook (stages/rerank.py::dspy_rerank_fn)
            # also receives the query texts, like the reference filter
            # (rerank.py:108-117 takes the question per call).
            try:
                # count only positional-capable params: a 1-arg hook
                # gaining **kwargs or keyword-only options must not be
                # miscounted as the 2-arg shape — and a DEFAULTED second
                # positional (e.g. def hook(cand, top_k=20)) is an
                # option slot, not the query-list slot, unless it is
                # literally named for it
                params = list(
                    inspect.signature(self.rerank_fn).parameters.values()
                )
                pos = [
                    p
                    for p in params
                    if p.kind
                    in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                ]
                takes_queries = any(
                    p.kind == p.VAR_POSITIONAL for p in params
                ) or (
                    len(pos) >= 2
                    and (
                        pos[1].default is inspect.Parameter.empty
                        or pos[1].name in ("queries", "query_texts")
                    )
                )
            except (TypeError, ValueError):
                takes_queries = False
            cand = (
                self.rerank_fn(cand, queries)
                if takes_queries
                else self.rerank_fn(cand)
            )
            if cand is None or cand.empty:
                return empty, set(range(B))
        rng = (hi - lo).reindex(cand["query_idx"]).to_numpy()
        lo_q = lo.reindex(cand["query_idx"]).to_numpy()
        raw = cand["score"].to_numpy()
        cand = cand.assign(
            norm=np.where(rng == 0, 1.0, (raw - lo_q) / np.where(rng == 0, 1.0, rng))
        )

        # explode facts -> phrases, resolve to (vid, n_chunks)
        phrases = pd.concat(
            [
                cand[["query_idx", "norm", "subj_key"]].rename(columns={"subj_key": "node_key"}),
                cand[["query_idx", "norm", "obj_key"]].rename(columns={"obj_key": "node_key"}),
            ],
            ignore_index=True,
        )
        keys = np.sort(phrases["node_key"].unique())
        keys_ref = ray.put(keys)
        ent_refs, _chunk_refs = self._view_refs
        resolved = pa.concat_tables(
            ray.get(self._pool_map("pick_vids", [(r, keys_ref) for r in ent_refs]))
        ).to_pandas()
        if resolved.empty:
            return empty, set(range(B))
        merged = phrases.merge(resolved, on="node_key", how="inner")
        if merged.empty:
            return empty, set(range(B))
        nch = np.nan_to_num(merged["n_chunks"].to_numpy(np.float64), nan=1.0)
        merged["weight"] = merged["norm"].to_numpy() / np.maximum(nch, 1.0)
        per_phrase = (
            merged.groupby(["query_idx", "vid"], as_index=False)["weight"].mean()
        )
        per_phrase = per_phrase.sort_values(
            ["query_idx", "weight", "vid"], ascending=[True, False, True]
        ).groupby("query_idx", as_index=False).head(k)
        linked_q = set(per_phrase["query_idx"].tolist())
        return per_phrase[["vid", "query_idx", "weight"]], set(range(B)) - linked_q

    def _entity_link(self, q_ref) -> pd.DataFrame:
        """Direct entity linking (facts=False): per-block per-query
        top-k similarity candidates, merged and damped by
        1/|chunks(entity)| (A5, HippoRAG.py:1463-1464)."""
        k = self.link_top_k
        ent_refs, _chunk_refs = self._view_refs
        link = pa.concat_tables(
            ray.get(self._pool_map("link_tile", [(r, q_ref, k) for r in ent_refs]))
        ).to_pandas() if ent_refs else pd.DataFrame()
        if "query_idx" not in link.columns:  # all-empty view drops schema
            return _empty_link()
        link = link.sort_values(["query_idx", "score", "vid"], ascending=[True, False, True])
        link = link.groupby("query_idx", as_index=False).head(self.link_top_k)
        # per-phrase damping 1/|chunks(entity)| (A5, HippoRAG.py:1463-1464)
        link["weight"] = np.maximum(
            link["score"] / np.maximum(link["n_chunks"], 1.0), 0.0
        )
        return link[["vid", "query_idx", "weight"]]

    def _dpr_topk(
        self, q_ref, q_indices: list[int], top_k: int
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Pure dense passage ranking (K2, HippoRAG.py:1330-1365 /
        StandardRAG.py): one task per pinned chunk-view block against
        the broadcast query matrix, merged on the driver (two-level
        top-k, K6)."""
        if not q_indices:
            return {}
        sel = np.asarray(q_indices, dtype=np.int64)
        sel_ref = ray.put(sel)
        _ent_refs, chunk_refs = self._view_refs
        out = pa.concat_tables(
            ray.get(
                self._pool_map(
                    "dpr_topk", [(r, q_ref, sel_ref, top_k) for r in chunk_refs]
                )
            )
        ).to_pandas()
        ranks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if out.empty:
            return {
                qi: (np.zeros(0, np.int64), np.zeros(0)) for qi in q_indices
            }
        for qi in q_indices:
            sub = out[out["query_idx"] == qi]
            vids = sub["vid"].to_numpy(np.int64)
            scs = sub["score"].to_numpy(np.float64)
            order = np.lexsort((vids, -scs))[:top_k]
            ranks[qi] = (vids[order], scs[order])
        return ranks

    def dpr_retrieve(self, queries: list[str], top_k: int = 10) -> list[dict]:
        """DPR-only baseline retrieval (the reference's StandardRAG,
        StandardRAG.py:37-429): dense passage ranking, no graph."""
        g = self.graph()
        B = len(queries)
        q_norm = text_processing(pa.array(queries)).to_pylist()
        q_ref = ray.put(self.embedder.embed(q_norm).astype(np.float64))
        self._build_views(g)
        ranks = self._dpr_topk(q_ref, list(range(B)), top_k)
        need = sorted({int(v) for vids, _ in ranks.values() for v in vids})
        import pyarrow.dataset as pads

        tbl = pads.dataset(g.vertex_parts).to_table(
            columns=["vid", "content"], filter=pads.field("vid").isin(need)
        )
        content = dict(zip(tbl["vid"].to_pylist(), tbl["content"].to_pylist()))
        return [
            {
                "question": queries[qi],
                "docs": [content[int(v)] for v in ranks[qi][0]],
                "doc_scores": ranks[qi][1].tolist(),
                "mode": "dpr",
            }
            for qi in range(B)
        ]

    # ------------------------------------------------------------------
    # QA reading (the reference's rag_qa flagship surface)
    # ------------------------------------------------------------------
    def qa(
        self,
        query_solutions: list[dict],
        llm_fn=None,
        qa_top_k: int = 5,
    ) -> tuple[list[dict], list[str], list[dict]]:
        """QA reading over retrieval solutions (HippoRAG.py:670-728).

        Per solution: the top ``qa_top_k`` passages render into the
        reference's reader prompt shape (``Wikipedia Title: <doc>``
        lines + ``Question: ... Thought:``, rendered through the
        ``rag_qa`` chat template), ``llm_fn(messages) -> str`` or
        ``-> (message, metadata[, hit])`` answers it (wrap a
        ``state.llm_cache.CachedLLM.infer`` for S7 caching), and the
        answer is the text after ``Answer:`` (functions/facts.py::
        extract_answer, whole-response fallback).  Inference is
        per-query by nature, like the reference's reader loop; for a
        corpus-scale offline QA sweep route the rendered prompts
        through ``state/llm_cache.py::LLMInfer`` as an actor-pool
        ``map_batches`` stage instead.

        Returns ``(solutions_with_answers, response_messages,
        metadata_dicts)`` — the reference's triple.
        """
        from ..functions.facts import extract_answer
        from ..functions.prompts import PromptTemplateManager

        if llm_fn is None:
            llm_fn = getattr(self, "qa_llm_fn", None)
        if llm_fn is None:
            raise ValueError(
                "qa() needs an llm_fn(messages) -> str (the reader model "
                "is a plug, like the embedder and the rerank filter)"
            )
        mgr = PromptTemplateManager()
        all_messages = []
        for sol in query_solutions:
            prompt_user = ""
            for passage in sol["docs"][:qa_top_k]:
                prompt_user += f"Wikipedia Title: {passage}\n\n"
            prompt_user += "Question: " + sol["question"] + "\nThought: "
            all_messages.append(mgr.render("rag_qa", prompt_user=prompt_user))
        responses: list[str] = []
        metadata: list[dict] = []
        for messages in all_messages:
            out = llm_fn(messages)
            if isinstance(out, tuple):  # CachedLLM.infer shape
                responses.append(out[0])
                metadata.append(dict(out[1]) if len(out) > 1 and out[1] else {})
            else:
                responses.append(out)
                metadata.append({})
        solutions = []
        for sol, resp in zip(query_solutions, responses):
            solutions.append({**sol, "answer": extract_answer(resp)})
        return solutions, responses, metadata

    def rag_qa(
        self,
        queries: list,
        gold_docs: list[list[str]] | None = None,
        gold_answers: list[list[str]] | None = None,
        llm_fn=None,
        top_k: int = 10,
        qa_top_k: int = 5,
        recall_ks=(1, 2, 5),
    ):
        """Retrieval-augmented QA end-to-end (HippoRAG.py:451-523).

        ``queries`` may be strings (retrieval runs) or retrieve()
        solution dicts (retrieval skipped — the reference's
        QuerySolution passthrough).  With ``gold_docs`` the retrieval
        phase is scored (Recall@k over doc content, stages/evalops.py::
        recall_at_k); with ``gold_answers`` the answers are scored
        (normalized EM / max-F1, qa_scores) and rounded to 4 decimals
        like the reference.

        Returns ``(solutions, responses, metadata)``; with
        ``gold_answers`` additionally ``(overall_retrieval_result,
        overall_qa_results)`` — both as in the reference.  Extension:
        with ``gold_docs`` alone the reference still returns its
        3-tuple and only logs the Recall@k, while this engine returns
        the 4-tuple ``(solutions, responses, metadata,
        overall_retrieval_result)`` so retrieval-only evaluation can
        read the score it computed.
        """
        from ..stages.evalops import qa_scores, recall_at_k

        overall_retrieval_result = None
        if queries and not isinstance(queries[0], dict):
            queries = self.retrieve(list(queries), top_k=top_k)
        if gold_docs is not None:
            eval_ds = rd.from_arrow(
                pa.table(
                    {
                        "pred": pa.array(
                            [s["docs"] for s in queries], pa.list_(pa.string())
                        ),
                        "gold": pa.array(
                            [list(g) for g in gold_docs], pa.list_(pa.string())
                        ),
                    }
                )
            )
            overall_retrieval_result = {
                k: round(float(v), 4)
                for k, v in recall_at_k(eval_ds, ks=recall_ks).items()
            }

        solutions, responses, metadata = self.qa(
            queries, llm_fn=llm_fn, qa_top_k=qa_top_k
        )

        if gold_answers is None:
            if gold_docs is not None:
                # retrieval-only evaluation: return the Recall@k just
                # computed (an extension — the reference returns the
                # 3-tuple here and only logs the score)
                return solutions, responses, metadata, overall_retrieval_result
            return solutions, responses, metadata
        qa_ds = rd.from_arrow(
            pa.table(
                {
                    "answer": pa.array(
                        [s["answer"] for s in solutions], pa.string()
                    ),
                    "gold_answers": pa.array(
                        [list(g) for g in gold_answers], pa.list_(pa.string())
                    ),
                }
            )
        )
        overall_qa_results = {
            k: round(float(v), 4) for k, v in qa_scores(qa_ds).items()
        }
        for idx, s in enumerate(solutions):
            s["gold_answers"] = list(gold_answers[idx])
            if gold_docs is not None:
                s["gold_docs"] = list(gold_docs[idx])
        return solutions, responses, metadata, overall_retrieval_result, overall_qa_results

    def close(self):
        self._invalidate(close=True)
        for a in self._link_pool or []:
            ray.kill(a)
        self._link_pool = None
