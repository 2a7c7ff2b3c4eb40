"""Graph construction: transcripts -> vertices / edges / adjacency.

Re-expresses the reference's indexing graph semantics
(/root/reference/src/hipporag/HippoRAG.py:742-817, 1009-1086) as a Ray
Data plan:

* chunk (passage) nodes are *content-deduplicated* turns:
  ``chunk_key = "chunk-" + md5(text)`` (embedding_store.py:44-61) — a
  duplicated turn text contributes its co-occurrences exactly once
  (the reference skips chunks already in the graph, HippoRAG.py:756).
* fact edges: entity-entity co-occurrence within a chunk, inserted
  symmetrically in both directions with weight = count of co-occurring
  chunks (HippoRAG.py:763-769 increments both (a,b) and (b,a)).
* passage edges: chunk -> entity, weight 1.0 (HippoRAG.py:809-817).
* no self-loops (HippoRAG.py:1064).
* vertex ids: dense int64 assigned by global sort of node_key —
  deterministic across runs.

The *adjacency* table is the directed expansion of the edge records
(each record also reversed), sorted by ``src`` and written as
partitioned parquet so CSR shard actors can load their vid range with
row-group pruning.  Walking the expansion once per direction is exactly
the reference's undirected traversal of edge records
(SimpleGraph.kt:141-147).

Three writers share one commit path: :func:`build_graph` (full build),
:func:`merge_delta` (incremental add) and
:func:`delete_chunks_from_graph`.  They follow the graph's manifest
(:func:`graph_config`), copy the graph through when they change nothing
(:func:`_copy_through`), resolve edge partials by broadcast or join
(:func:`_edge_partials`), sum them with the stored edges in one signed
edge merge (:func:`_merge_edges`) and write edges, adjacency and
manifest in one tail (:func:`_write_edges_adj_manifest`).  The full
build keeps its distributed vertex dictionary (``hash_distinct`` +
:func:`assign_dense_ids`): the incremental writer holds the delta's
keys on the driver, which for a full build would be the whole corpus.

A delete is the same edge merge with negated partials, plus a vid
shift.  A deleted chunk can only orphan entities it mentions, so the
vertices that die are the present deleted chunks plus those of their
entities left without a passage edge: a delete-sized sorted list
``dead``.  Survivors keep their order and move down by the dead vids
below them, ``vid - searchsorted(dead, vid)`` — the dense renumbering
of the survivors, with no join.  No edge survives on a dead vid (every
edge of a deleted chunk cancels, and an entity with no passage edge
left has no fact edge left either); one that does raises
``ValueError``.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .. import schema as _schema
from ..functions.hashing import entity_key, md5_hex
from ..functions.pairs import segment_pairs
from ..functions.text import distinct_tokens_per_row, text_processing


# ---------------------------------------------------------------------------
# batch transforms
# ---------------------------------------------------------------------------


def _to_chunk_rows(batch: pa.Table) -> pa.Table:
    """transcripts batch -> (chunk_key, text): project early, key by content."""
    text = batch["text"]
    from ..functions.hashing import chunk_key

    return pa.table({"chunk_key": chunk_key(text), "text": text})


def _use_struct_keys(n_vertices: int, force: bool | None = None) -> bool:
    """Edge-aggregation key layout dispatch.  The default shuffle key is
    the single packed int64 ``(src*n + dst)*2 + flag``, which needs
    ``2*n^2 < 2^63`` (n < ~2.1e9) — numpy int64 wraps SILENTLY past
    that, merging unrelated edges.  At or beyond that (the 10^12-turn
    scale target makes every chunk a vertex), the same pipelines key on
    the TWO-int64 tuple ``(src, lo=dst*2+flag)`` through the pair-key
    exchange (shuffle.int_pair_key_sum) — valid to n < 2^62.  ``force``
    pins the mode for testing (both layouts produce bit-equal graphs,
    pinned by test)."""
    if force is not None:
        return bool(force)
    n = int(n_vertices)
    return bool(n) and 2 * n * n >= 2**63


def _decode_edges_table(batch: pa.Table, n: int, struct: bool) -> pa.Table:
    """Aggregated key rows -> (src, dst, weight, etype)."""
    if struct:
        src = batch["src"].to_numpy(zero_copy_only=False)
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        dst, is_fact = lo >> 1, (lo & 1).astype(bool)
    else:
        code2 = batch["code2"].to_numpy(zero_copy_only=False)
        code = code2 >> 1
        src, dst = code // n, code % n
        is_fact = (code2 & 1).astype(bool)
    return pa.table(
        {
            "src": pa.array(src, type=pa.int64()),
            "dst": pa.array(dst, type=pa.int64()),
            "weight": batch["weight"],
            "etype": pa.array(np.where(is_fact, "fact", "passage"), type=pa.string()),
        }
    )


def _key_table(src, dst, fact, weight, n: int, struct: bool) -> pa.Table:
    """Edge rows -> the aggregation key layout: the packed int64
    ``code2 = (src*n + dst)*2 + fact``, or the struct rows
    ``(src, lo=dst*2 + fact)`` (see _use_struct_keys)."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    if struct:
        keys = {"src": pa.array(src, pa.int64()), "lo": pa.array(dst * 2 + fact, pa.int64())}
    else:
        keys = {"code2": pa.array((src * n + dst) * 2 + fact, pa.int64())}
    return pa.table({**keys, "weight": pa.array(weight, pa.float64())})


_NO_ROWS = np.zeros(0, np.int64)


def _encode_edges_table(batch: pa.Table, n: int, struct: bool) -> pa.Table:
    """(src, dst, weight, etype) edge rows -> the aggregation key layout
    (writers onto a graph merge its re-encoded edges with their
    partials through the same exchange)."""
    return _key_table(
        batch["src"].to_numpy(zero_copy_only=False),
        batch["dst"].to_numpy(zero_copy_only=False),
        pc.equal(batch["etype"], "fact").to_numpy(zero_copy_only=False),
        batch["weight"].to_numpy(zero_copy_only=False),
        n,
        struct,
    )


def _sum_edge_partials(partials: "rd.Dataset", struct: bool) -> "rd.Dataset":
    from .shuffle import int_key_sum, int_pair_key_sum

    if struct:
        return int_pair_key_sum(partials, "src", "lo", "weight")
    return int_key_sum(partials, "code2", "weight")


def _kept_tokens(norm, min_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's tokens of at least ``min_len`` characters, in order:
    the words, the row of each, and the count per row."""
    from ..functions.text import tokenize

    toks = tokenize(norm)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n_rows = len(offs) - 1
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offs))
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) >= min_len
    words, rows = flat.to_numpy(zero_copy_only=False)[keep], rows[keep]
    return words, rows, np.bincount(rows, minlength=n_rows)


class ChunkToIntEdgePartials:
    """Deduped chunk batch -> locally pre-aggregated *vid-coded* edge
    partial rows.

    The vertex dictionary is built before edges and broadcast once
    (``ray.put``), so pair aggregation shuffles int64 codes instead of
    39-char md5 key strings — the difference between a string sort
    shuffle over the pair table and an int one is the dominant cost of
    the whole build.  Emits per chunk:

    * passage rows ``(src=chunk_vid, dst=entity_vid, weight=1.0)`` —
      globally unique already (chunks are deduped), so they bypass the
      aggregation shuffle entirely;
    * fact partial rows coded ``src_vid * n_vertices + dst_vid``
      (both orientations, no self-loops, per-batch pre-summed with
      np.unique) — the packed code requires ``2*n_vertices**2 < 2**63``;
      past that (or with ``struct_keys=True``) the rows carry the
      two-int64 struct key ``(src, lo=dst*2+flag)`` instead, summed by
      the pair-key exchange (see _use_struct_keys).
    """

    def __init__(
        self,
        vmap_ref,
        n_vertices: int,
        min_token_len: int = 3,
        edge_source: str = "cooccur",
        struct_keys: bool | None = None,
    ):
        """``edge_source``:

        * ``"cooccur"`` — fact partials are all distinct-token pairs of
          the chunk (the co-occurrence stand-in for OpenIE);
        * ``"triples"`` — fact partials are the (subject, object) pairs
          of the chunk's deterministic consecutive-3-token-window
          triples (stages/triples.py), exact-deduped per chunk, one
          increment per triple in both orientations — the reference's
          per-triple fact-edge accumulation (HippoRAG.py:756-775).
          Windows run over the min_token_len-filtered token sequence so
          every subject/object is a graph entity.
        """
        self.struct_keys = _use_struct_keys(n_vertices, struct_keys)
        self.vmap_ref = vmap_ref
        self.n = n_vertices
        self.min_token_len = min_token_len
        self.edge_source = edge_source
        self._vmap = None

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        if self._vmap is None:
            self._vmap = ray.get(self.vmap_ref)
        return self._vmap.loc[keys].to_numpy(dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        norm = text_processing(batch["text"])
        toks = distinct_tokens_per_row(norm, min_len=self.min_token_len)
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ents = toks.flatten().to_numpy(zero_copy_only=False)
        ckeys = batch["chunk_key"].to_numpy(zero_copy_only=False)

        # hash + map only UNIQUE tokens (vocab-sized), then expand — md5
        # per occurrence measured as the dominant cost of this stage
        uniq_ents, inv = np.unique(ents, return_inverse=True)
        uniq_vids = self._lookup(entity_key(uniq_ents).to_numpy(zero_copy_only=False))
        ent_vids = uniq_vids[inv]
        chunk_vids = self._lookup(ckeys)

        # --- passage rows (unique by construction) ---
        counts = np.diff(offsets)
        rep = np.repeat(np.arange(len(batch)), counts)
        p_src = chunk_vids[rep]

        # --- fact pair partials, both orientations, no self loops ---
        if self.edge_source == "cooccur":
            # one vectorized segment expansion over the whole batch
            # (functions/pairs.py) — the per-row repeat/tile loop here
            # measured as the dominant cost of the build's hottest stage
            A, B = segment_pairs(ent_vids, offsets, mode="ne")
        else:
            A, B = self._triple_pairs(norm, uniq_ents, uniq_vids)

        if self.struct_keys:
            # two-int64 struct key: no n^2 packing, so no vertex-count
            # ceiling below 2^62
            from .shuffle import _pair_partial_sum

            A, B, cnt = _pair_partial_sum(A, B, np.ones(len(A)))
        else:
            # one int64 code per pair: np.unique sums the batch's repeats
            code, cnt = np.unique(A * self.n + B, return_counts=True)
            A, B = code // self.n, code % self.n
        return _key_table(
            np.concatenate([p_src, A]),
            np.concatenate([ent_vids, B]),
            np.repeat([0, 1], [len(p_src), len(A)]),
            np.concatenate([np.ones(len(p_src)), cnt]),
            self.n,
            self.struct_keys,
        )

    def _triple_pairs(
        self, norm: pa.Array, uniq_ents: np.ndarray, uniq_vids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-chunk deterministic triples -> (subject, object) vid
        pairs, both orientations, one increment per *deduped triple*
        (the reference's per-triple stats accumulation,
        HippoRAG.py:756-775).  Windows run over the ordered
        min_token_len-filtered token sequence; all three window
        elements are batch-vocabulary members, so dedup runs on int
        vid triples."""
        from ..functions.pairs import segment_windows_dedup

        words, _rows, counts = _kept_tokens(norm, self.min_token_len)
        vid_seq = uniq_vids[np.searchsorted(uniq_ents, words)]
        _, s3, _, o3 = segment_windows_dedup(vid_seq, counts)
        ne = s3 != o3  # no self loops (HippoRAG.py:1064)
        s3, o3 = s3[ne], o3[ne]
        return np.concatenate([s3, o3]), np.concatenate([o3, s3])


class ChunkToMentionRows:
    """Deduped chunk batch -> mention rows for the *join-based* edge
    path (vertex dictionaries beyond the broadcast limit).

    ``ordered=False`` (cooccur): distinct tokens -> (chunk_key,
    node_key).  ``ordered=True`` (triples): the min_token_len-filtered
    token sequence in order -> (chunk_key, node_key, pos)."""

    def __init__(self, min_token_len: int = 3, ordered: bool = False):
        self.min_token_len = min_token_len
        self.ordered = ordered

    def __call__(self, batch: pa.Table) -> pa.Table:
        norm = text_processing(batch["text"])
        ckeys = batch["chunk_key"].to_numpy(zero_copy_only=False)
        if not self.ordered:
            toks = distinct_tokens_per_row(norm, min_len=self.min_token_len)
            offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            ents = toks.flatten().to_numpy(zero_copy_only=False)
            rep = np.repeat(np.arange(len(batch)), np.diff(offsets))
            uniq, inv = np.unique(ents, return_inverse=True)
            node_key = entity_key(uniq).take(pa.array(inv))
            return pa.table(
                {
                    "chunk_key": pa.array(ckeys[rep], type=pa.string()),
                    "node_key": node_key,
                }
            )
        words, rows, counts = _kept_tokens(norm, self.min_token_len)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        pos = np.arange(len(words), dtype=np.int64) - starts[rows]
        uniq, inv = np.unique(words, return_inverse=True)
        node_key = entity_key(uniq).take(pa.array(inv))
        return pa.table(
            {
                "chunk_key": pa.array(ckeys[rows], type=pa.string()),
                "node_key": node_key,
                "pos": pa.array(pos, type=pa.int64()),
            }
        )


@ray.remote
def _window_pairs_reduce(group_col: str, val_col: str, pos_col: str, *shards) -> pa.Table:
    """Per-group ordered 3-windows -> deduped (subject, object) vid
    pairs, both orientations — the join-path analog of
    ChunkToIntEdgePartials._triple_pairs."""
    shards = [s for s in shards if s.num_rows]
    if not shards:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    from ..functions.pairs import segment_windows_dedup

    tbl = pa.concat_tables(shards).combine_chunks()
    g = tbl[group_col].to_numpy(zero_copy_only=False)
    v = tbl[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
    p = tbl[pos_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((p, g))
    g, v = g[order], v[order]
    gstarts = np.concatenate([[0], np.nonzero(g[1:] != g[:-1])[0] + 1]).astype(np.int64)
    counts = np.diff(np.concatenate([gstarts, [len(g)]]))
    _, s3, _, o3 = segment_windows_dedup(v, counts)
    ne = s3 != o3
    s3, o3 = s3[ne], o3[ne]
    return pa.table(
        {
            "a": pa.array(np.concatenate([s3, o3]), pa.int64()),
            "b": pa.array(np.concatenate([o3, s3]), pa.int64()),
        }
    )


def _partials_via_join(
    chunks: "rd.Dataset",
    vertices: "rd.Dataset",
    n_vertices: int,
    min_token_len: int,
    edge_source: str,
    struct_keys: bool | None = None,
) -> "rd.Dataset":
    """Edge partial rows in the aggregation key layout (code2, weight —
    or the (src, lo, weight) struct rows, see _use_struct_keys) computed
    WITHOUT the broadcast vertex dictionary: mentions are joined to vids
    through the bucketed hash join (stages/shuffle.py) — the scale path
    once the dictionary outgrows single-node memory.  Produces the same
    rows as ChunkToIntEdgePartials (verified equal in tests)."""
    from .shuffle import _exchange, _pair_partial_sum, _plain_split, grouped_pairs, hash_join

    struct = _use_struct_keys(n_vertices, struct_keys)
    n = int(n_vertices)
    ordered = edge_source == "triples"
    ment = chunks.map_batches(
        ChunkToMentionRows(min_token_len, ordered=ordered), batch_format="pyarrow"
    )
    vkeys = vertices.select_columns(["node_key", "vid"]).materialize()
    m1 = hash_join(ment.materialize(), vkeys, "node_key")

    def rename_ent(batch: pa.Table) -> pa.Table:
        cols = {"chunk_key": batch["chunk_key"], "ent_vid": batch["vid"]}
        if "pos" in batch.column_names:
            cols["pos"] = batch["pos"]
        return pa.table(cols)

    m1 = m1.map_batches(rename_ent, batch_format="pyarrow")
    cv = chunks.map_batches(
        lambda b: pa.table({"node_key": b["chunk_key"], "chunk_key": b["chunk_key"]}),
        batch_format="pyarrow",
    )
    cv = hash_join(cv.materialize(), vkeys, "node_key").map_batches(
        lambda b: pa.table({"chunk_key": b["chunk_key"], "chunk_vid": b["vid"]}),
        batch_format="pyarrow",
    )
    m2 = hash_join(m1.materialize(), cv.materialize(), "chunk_key").materialize()

    # passage rows: distinct (chunk, entity) — a chunk's rows land in
    # one join bucket, so per-batch np.unique is globally exact
    def passage(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "chunk_vid" not in batch.column_names:
            return _key_table(_NO_ROWS, _NO_ROWS, 0, _NO_ROWS, n, struct)
        cv = batch["chunk_vid"].to_numpy(zero_copy_only=False).astype(np.int64)
        ev = batch["ent_vid"].to_numpy(zero_copy_only=False).astype(np.int64)
        if struct:
            # distinct (chunk, entity) pairs without the n^2 packing
            cv, ev, _cnt = _pair_partial_sum(cv, ev, np.ones(len(cv)))
        else:
            code = np.unique(cv * n + ev)
            cv, ev = code // n, code % n
        return _key_table(cv, ev, 0, np.ones(len(cv)), n, struct)

    passage_rows = m2.map_batches(passage, batch_format="pyarrow")

    if not ordered:
        pairs = grouped_pairs(m2, "chunk_key", "ent_vid", mode="ne")
    else:
        outs = _exchange(
            m2, _plain_split, ("chunk_key",), _window_pairs_reduce, ("chunk_key", "ent_vid", "pos")
        )
        if outs:
            pairs = rd.from_arrow_refs(outs)
        else:
            pairs = rd.from_arrow(pa.table({"chunk_key": pa.array([], pa.string())}))

    def fact(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return _key_table(_NO_ROWS, _NO_ROWS, 1, _NO_ROWS, n, struct)
        a = batch["a"].to_numpy(zero_copy_only=False)
        return _key_table(a, batch["b"].to_numpy(zero_copy_only=False), 1, np.ones(len(a)), n, struct)

    fact_rows = pairs.map_batches(fact, batch_format="pyarrow")
    return passage_rows.union(fact_rows)


class ChunkToVertexRows:
    """Deduped chunk batch -> vertex candidate rows (node_key, kind, content)."""

    def __init__(self, min_token_len: int = 3):
        self.min_token_len = min_token_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        norm = text_processing(batch["text"])
        toks = distinct_tokens_per_row(norm, min_len=self.min_token_len)
        ents = np.unique(toks.flatten().to_numpy(zero_copy_only=False))
        node_key = np.concatenate(
            [
                batch["chunk_key"].to_numpy(zero_copy_only=False),
                entity_key(ents).to_numpy(zero_copy_only=False),
            ]
        )
        kind = np.concatenate(
            [np.full(len(batch), "chunk", dtype=object), np.full(len(ents), "entity", dtype=object)]
        )
        content = np.concatenate([batch["text"].to_numpy(zero_copy_only=False), ents])
        return pa.table(
            {
                "node_key": pa.array(node_key, type=pa.string()),
                "kind": pa.array(kind, type=pa.string()),
                "content": pa.array(content, type=pa.string()),
            }
        )


# ---------------------------------------------------------------------------
# dense id assignment (sort + per-block offsets)
# ---------------------------------------------------------------------------


@ray.remote
def _with_ids(tbl: pa.Table, offset: int, col: str) -> pa.Table:
    ids = np.arange(offset, offset + tbl.num_rows, dtype=np.int64)
    return tbl.append_column(col, pa.array(ids, type=pa.int64()))


def assign_dense_ids(ds: "rd.Dataset", key: str, id_col: str = "vid") -> "rd.Dataset":
    """Sort by ``key`` and append a dense, globally-contiguous int64 id.

    The sort is a shuffle (custom range sort); id assignment is then
    per-block with a small metadata pass for offsets (no driver
    materialization of rows).
    """
    from .shuffle import _row_counts, range_sort

    sorted_ds = range_sort(ds, key).materialize()
    refs = sorted_ds.to_arrow_refs()
    counts = _row_counts(refs)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    out_refs = [
        _with_ids.remote(r, int(off), id_col) for r, off in zip(refs, offsets)
    ]
    return rd.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class GraphTables:
    out_dir: str
    n_vertices: int
    n_edges: int  # canonical edge records (fact both-direction + passage one-direction)

    @property
    def vertices_path(self) -> str:
        return os.path.join(self.out_dir, "vertices")

    @property
    def vertex_parts(self) -> list[str]:
        """The committed part files of ``vertices/``: every reader of the
        vertex table goes through these, so rows of a write that never
        reached its manifest (see :func:`merge_delta`) stay invisible."""
        return _vertex_parts(self.vertices_path, self.n_vertices)[0]

    @property
    def edges_path(self) -> str:
        return os.path.join(self.out_dir, "edges")

    @property
    def adj_path(self) -> str:
        return os.path.join(self.out_dir, "adj")

    def vertices(self) -> "rd.Dataset":
        return rd.read_parquet(self.vertex_parts)

    def edges(self) -> "rd.Dataset":
        return rd.read_parquet(self.edges_path)

    def adj(self) -> "rd.Dataset":
        return rd.read_parquet(self.adj_path)


def _write_table_dir(ds: "rd.Dataset", path: str, which: str) -> None:
    """write_parquet that guarantees the directory exists even for a
    0-row Dataset (Ray creates nothing then): a graph with vertices but
    zero edges must still leave edges/ and adj/ on disk, or every
    subsequent load crashes with FileNotFoundError."""
    ds.write_parquet(path)
    has_part = os.path.isdir(path) and any(
        f.endswith(".parquet") for f in os.listdir(path)
    )
    if not has_part:
        sch = _schema.VERTICES if which == "vertices" else _schema.EDGES
        os.makedirs(path, exist_ok=True)
        pq.write_table(sch.empty_table(), os.path.join(path, "part-0.parquet"))


def graph_config(out_dir: str, min_token_len: int = 3, edge_source: str = "cooccur") -> tuple[int, str]:
    """``(min_token_len, edge_source)`` of the graph under ``out_dir``
    by its manifest; the arguments fill in for a manifest without the
    key.  Every writer onto an existing graph follows them whatever its
    caller's config: a mismatched min_token_len would generate entity
    keys absent from the stored vertex table, or silently skip
    short-token partials from a subtraction.

    Raises ``ValueError`` for a graph with synonymy edges: the edge
    merge codes every non-fact record as a passage edge, so it would
    rewrite the ``syn`` records as passage edges and keep orphaned
    entities alive.  Such a graph is rebuilt, never merged into."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        m = json.load(f)
    if m.get("n_syn_edges"):
        raise ValueError(
            f"the graph in {out_dir!r} has synonymy edges (n_syn_edges="
            f"{m['n_syn_edges']}): an incremental write or delete would rewrite "
            "them as passage edges; rebuild it instead"
        )
    return m.get("min_token_len", min_token_len), m.get("edge_source", edge_source)


def _copy_through(graph: "GraphTables", out_dir: str) -> "GraphTables":
    """A write that changes nothing: ``out_dir`` holds the graph as it
    is (the same directory contract as a real write)."""
    if os.path.abspath(out_dir) != os.path.abspath(graph.out_dir):
        for sub in ("vertices", "edges", "adj", "manifest.json"):
            src = os.path.join(graph.out_dir, sub)
            dst = os.path.join(out_dir, sub)
            # idempotent retry: a previous (crashed or finished) run's
            # tables in out_dir must be replaced, not crash copytree
            # with FileExistsError
            if os.path.isdir(dst):
                shutil.rmtree(dst)
            elif os.path.exists(dst):
                os.unlink(dst)
            (shutil.copytree if os.path.isdir(src) else shutil.copy)(src, dst)
    return load_graph(out_dir)


def _edge_partials(
    chunks: "rd.Dataset",
    vertices,
    n: int,
    min_token_len: int,
    edge_source: str,
    struct: bool,
    broadcast_vertex_limit: int,
) -> "rd.Dataset":
    """Edge partial rows of ``chunks`` in the aggregation key layout.
    ``vertices`` maps their keys to vids: a (node_key, vid) table on
    the driver or a materialized Dataset with those columns.  It is
    broadcast once (``ray.put``) while it has at most
    ``broadcast_vertex_limit`` rows; beyond that the bucketed hash-join
    path (:func:`_partials_via_join`) gives the same rows with no
    driver-side or per-worker dictionary."""
    local = isinstance(vertices, pa.Table)
    if (vertices.num_rows if local else vertices.count()) > broadcast_vertex_limit:
        return _partials_via_join(
            chunks, rd.from_arrow(vertices) if local else vertices,
            n, min_token_len, edge_source, struct,
        )
    keyed = vertices if local else vertices.select_columns(["node_key", "vid"])
    vmap_ref = ray.put(keyed.to_pandas().set_index("node_key")["vid"])
    # per-batch pre-aggregated int codes for the custom int-key sum
    # shuffle (Dataset.groupby measured 25x slower here, see
    # stages/shuffle.py).  Explicit batch_size: the deduped-chunk
    # exchange can emit few large blocks (its partition heuristic
    # optimizes the shuffle, not this consumer) — without splitting,
    # the hottest stage of the build runs at the block count's
    # parallelism.  Task-based (callable instance), NOT an actor pool:
    # the batch function is ~30us/row, so a pool's actor-launch latency
    # dominates (measured 16.5s pooled vs ~4s as tasks on warm workers
    # at 32 CPUs); tasks re-fetch the broadcast vmap from plasma per
    # task, which is vertex-table-sized and cheap
    return chunks.map_batches(
        ChunkToIntEdgePartials(vmap_ref, n, min_token_len, edge_source, struct),
        batch_format="pyarrow",
        batch_size=2048,
    )


def _merge_edges(
    partials: "rd.Dataset", n: int, struct: bool, base: "GraphTables | None" = None
) -> "rd.Dataset":
    """The edge merge of every writer: ``partials`` plus the stored
    edge records of ``base`` (re-encoded with ``n`` vertices) summed
    per key through the int-key exchange, keys whose weights cancel to
    zero dropped (a delete's negated partials — counts are
    integer-valued floats, so a cancelled record sums to 0.0 exactly;
    without negative partials nothing is dropped), decoded and
    materialized."""
    if base is not None:
        partials = partials.union(
            base.edges().map_batches(
                lambda b: _encode_edges_table(b, n, struct), batch_format="pyarrow"
            )
        )
    return (
        _sum_edge_partials(partials, struct)
        .map_batches(
            lambda b: _decode_edges_table(
                b.filter(pc.not_equal(b["weight"], 0.0)), n, struct
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )


def _write_manifest(
    out_dir: str, n_vertices: int, n_edges: int, min_token_len: int, edge_source: str
) -> "GraphTables":
    """The commit point of a write: the manifest names the vertex and
    edge counts and how the edges were made (see :func:`graph_config`)."""
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(
            {
                "n_vertices": int(n_vertices),
                "n_edges": int(n_edges),
                "min_token_len": min_token_len,
                "edge_source": edge_source,
            },
            f,
        )
    return GraphTables(out_dir=out_dir, n_vertices=int(n_vertices), n_edges=int(n_edges))


def _write_edges_adj_manifest(
    edges: "rd.Dataset",
    out_dir: str,
    n_vertices: int,
    n_edges: int,
    min_token_len: int,
    edge_source: str,
) -> "GraphTables":
    """Shared write tail: replace edges/, expand each undirected record
    into both directions, range-sort by src for the CSR shards'
    row-group pruning (SimpleGraph.kt:141-147 undirected walk), write
    adj/, dump the manifest.  ``edges`` must not read from ``out_dir``
    (the writers hand in materialized edges)."""
    from .shuffle import range_sort

    for sub in ("edges", "adj"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    _write_table_dir(edges, os.path.join(out_dir, "edges"), "edges")

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

    # no materialize: range_sort consumes the lazy expansion via ref
    # bundles and holds only its own (sliced) refs — materializing
    # first would pin a second full copy of the adjacency in plasma
    adj = range_sort(edges.map_batches(expand, batch_format="pyarrow"), "src")
    _write_table_dir(adj, os.path.join(out_dir, "adj"), "adj")
    return _write_manifest(out_dir, n_vertices, n_edges, min_token_len, edge_source)


def dedup_chunks(transcripts: "rd.Dataset") -> "rd.Dataset":
    """transcripts -> distinct (chunk_key, text): exact first-wins
    dedup on the content hash (rows in a group are byte-identical since
    the key is md5(text)) — the A10 operator (embedding_store.py:63-90),
    via the custom hash-exchange distinct."""
    from .shuffle import hash_distinct

    chunks = transcripts.map_batches(_to_chunk_rows, batch_format="pyarrow")
    # one reduce partition per CPU even when the deduped volume is
    # modest: every downstream build stage fans out per TOKEN (~16x the
    # chunk rows), so the volume-based k here (e.g. 2 at 100k deduped
    # chunks) would serialize the vertex-row and edge-partial maps —
    # the block count, not the row count, is their parallelism
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return hash_distinct(chunks, "chunk_key", num_partitions=cpus)


# ---------------------------------------------------------------------------
# resumable extraction (phase A of a restartable build)
# ---------------------------------------------------------------------------


def _file_fingerprint(path: str) -> dict:
    st = os.stat(path)
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}


@ray.remote
def _extract_shard(in_file: str, part_dir: str, text_col: str) -> dict:
    """Extract one input parquet file into one chunk partition,
    atomically (write to <part_dir>.tmp.<pid>, rename into place).

    Per-file pre-dedup on chunk_key shrinks the partition but global
    dedup still happens in the build's hash exchange — a chunk
    appearing in two input files is only resolved there."""
    import time as _time

    t0 = _time.perf_counter()
    # fingerprint BEFORE reading: stat-after-read could pair version-A
    # rows with version-B's size/mtime if the producer replaces the
    # file mid-extraction, and the stale partition would then be
    # silently skipped forever
    fp = _file_fingerprint(in_file)
    tbl = pq.read_table(in_file, columns=[text_col])
    if text_col != "text":
        tbl = tbl.rename_columns(["text"])
    rows_in = tbl.num_rows
    chunks = _to_chunk_rows(tbl)
    keys = chunks["chunk_key"].to_numpy(zero_copy_only=False)
    _, first = np.unique(keys, return_index=True)
    chunks = chunks.take(pa.array(np.sort(first)))
    tmp = f"{part_dir}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(chunks, os.path.join(tmp, "part-0.parquet"))
    meta = {
        "input": in_file,
        "fingerprint": fp,
        "rows_in": int(rows_in),
        "rows_out": int(chunks.num_rows),
        "wall_sec": round(_time.perf_counter() - t0, 4),
    }
    with open(os.path.join(tmp, "_meta.json"), "w") as f:
        json.dump(meta, f)
    if os.path.isdir(part_dir):  # a concurrent/previous attempt won
        shutil.rmtree(tmp)
    else:
        try:
            os.rename(tmp, part_dir)
        except OSError:
            # lost the publish race to a concurrent extraction between
            # the isdir check and the rename — the winner's partition
            # is complete; an uncaught raise here would abort the whole
            # run's ray.get
            shutil.rmtree(tmp, ignore_errors=True)
    return meta


def extract_chunks_resumable(
    tx_path: str, chunks_dir: str, text_col: str = "text"
) -> list[dict]:
    """Phase A of a resumable graph build: per-input-file chunk
    extraction with per-partition lineage.

    Each input parquet file under ``tx_path`` maps to exactly one
    output partition ``chunks_dir/shard=<stem>/`` (the builder-brief
    "one directory per input shard" resumable layout).  A partition
    whose recorded input fingerprint (size + mtime) still matches is
    skipped, so a failed 100-TB extraction re-run only pays for the
    shards that never finished; a changed or new input file is
    (re-)extracted.  Every run appends one lineage entry per shard
    (input file, rows in/out, wall time, skipped flag) to
    ``chunks_dir/_lineage.jsonl`` (underscore prefix: parquet dataset
    discovery skips it).

    Returns this run's lineage entries.  Feed the result to
    :func:`build_graph` with ``pre_chunked=True`` via
    ``rd.read_parquet(chunks_dir)``.
    """
    import pyarrow.dataset as pads

    os.makedirs(chunks_dir, exist_ok=True)
    files = sorted(pads.dataset(tx_path).files)
    if not files:
        raise ValueError(f"no parquet files under {tx_path!r}")

    pending: list[tuple[str, str]] = []
    entries: list[dict] = []
    root = os.path.abspath(tx_path)
    expected_dirs: set[str] = set()
    for in_file in files:
        # shard name from the tx-relative path, not the basename: two
        # input files part-0.parquet in different subdirectories must
        # map to two distinct partitions.  A short path hash makes the
        # stem injective — `a/b.parquet` and `a__b.parquet` would
        # otherwise collide on one partition and clobber each other
        # every run
        rel = os.path.relpath(os.path.abspath(in_file), root)
        tag = md5_hex([rel]).to_pylist()[0][:8]
        stem = f"{os.path.splitext(rel)[0].replace(os.sep, '__')}-{tag}"
        part_dir = os.path.join(chunks_dir, f"shard={stem}")
        expected_dirs.add(os.path.basename(part_dir))
        meta_path = os.path.join(part_dir, "_meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                old = json.load(f)
            if old.get("fingerprint") == _file_fingerprint(in_file):
                entries.append({**old, "skipped": True})
                continue
            shutil.rmtree(part_dir)  # stale partition: input changed
        pending.append((in_file, part_dir))

    # prune partitions whose input file no longer exists — a deleted
    # input must not keep contributing chunks to every later build
    for d in os.listdir(chunks_dir):
        # '.tmp.' names are a CONCURRENT extraction's in-flight temp dirs
        # (see _extract_shard's atomic publish) — pruning one would make
        # that run's os.rename fail; only prune final-shaped names
        if d.startswith("shard=") and ".tmp." not in d and d not in expected_dirs:
            shutil.rmtree(os.path.join(chunks_dir, d), ignore_errors=True)

    done = ray.get(
        [_extract_shard.remote(f, d, text_col) for f, d in pending]
    )
    entries.extend({**m, "skipped": False} for m in done)
    with open(os.path.join(chunks_dir, "_lineage.jsonl"), "a") as f:
        for m in entries:
            f.write(json.dumps(m) + "\n")
    return entries


def build_graph(
    transcripts: "rd.Dataset",
    out_dir: str,
    min_token_len: int = 3,
    edge_source: str = "cooccur",
    broadcast_vertex_limit: int = 5_000_000,
    pre_chunked: bool = False,
    struct_keys: bool | None = None,
) -> GraphTables:
    """Full graph build; writes vertices/, edges/, adj/ + manifest.json.

    ``pre_chunked=True`` means the input already has (chunk_key, text)
    columns (phase-A output of :func:`extract_chunks_resumable`); only
    the global dedup exchange runs, not the hash map."""
    os.makedirs(out_dir, exist_ok=True)
    # Ray's write_parquet APPENDS into an existing directory: a rebuild
    # into the same out_dir (the resume-after-failure path) would
    # otherwise leave two full copies of every table behind a manifest
    # claiming the fresh counts
    for sub in ("vertices", "edges", "adj"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)

    from .shuffle import hash_distinct

    if pre_chunked:
        # per-CPU partitions for the same reason as dedup_chunks: the
        # downstream maps' parallelism is this exchange's block count
        chunks = hash_distinct(
            transcripts.select_columns(["chunk_key", "text"]),
            "chunk_key",
            num_partitions=int(ray.cluster_resources().get("CPU", 8)),
        ).materialize()
    else:
        chunks = dedup_chunks(transcripts).materialize()
    if chunks.count() == 0:
        for name, sch in (
            ("vertices", _schema.VERTICES),
            ("edges", _schema.EDGES),
            ("adj", _schema.EDGES),
        ):
            d = os.path.join(out_dir, name)
            os.makedirs(d, exist_ok=True)
            pq.write_table(sch.empty_table(), os.path.join(d, "part-0.parquet"))
        return _write_manifest(out_dir, 0, 0, min_token_len, edge_source)

    # --- vertex dictionary first (the small distinct set), so the big
    # pair shuffle runs over int64 codes, not md5 key strings ---
    vrows = chunks.map_batches(ChunkToVertexRows(min_token_len), batch_format="pyarrow")
    vdistinct = hash_distinct(vrows, "node_key")
    vertices = assign_dense_ids(vdistinct, "node_key", "vid").materialize()
    n = int(vertices.count())
    _write_table_dir(vertices, os.path.join(out_dir, "vertices"), "vertices")

    struct = _use_struct_keys(n, struct_keys)
    partials = _edge_partials(
        chunks, vertices, n, min_token_len, edge_source, struct, broadcast_vertex_limit
    )
    edges = _merge_edges(partials, n, struct)
    return _write_edges_adj_manifest(
        edges, out_dir, n, edges.count(), min_token_len, edge_source
    )


def build_graph_resumable(
    tx_path: str,
    out_dir: str,
    chunks_dir: str | None = None,
    **build_kw,
) -> tuple[GraphTables, list[dict]]:
    """Restartable two-phase build: resumable per-input-shard chunk
    extraction (:func:`extract_chunks_resumable`), then the normal
    exchange-based build over the extracted partitions.  A re-run after
    a failure skips every finished extraction shard; the shuffle phase
    re-runs (it is the cheap part relative to a 100-TB input scan and
    has no per-partition identity until the exchange).  Returns the
    graph tables plus this run's extraction lineage."""
    if chunks_dir is None:
        chunks_dir = os.path.join(out_dir, "chunks")
    lineage = extract_chunks_resumable(tx_path, chunks_dir)
    g = build_graph(
        rd.read_parquet(chunks_dir), out_dir, pre_chunked=True, **build_kw
    )
    return g, lineage


def load_graph(out_dir: str) -> GraphTables:
    with open(os.path.join(out_dir, "manifest.json")) as f:
        m = json.load(f)
    return GraphTables(out_dir=out_dir, n_vertices=m["n_vertices"], n_edges=m["n_edges"])


@ray.remote
def _passage_scan(cand: np.ndarray, watch: np.ndarray, *blocks) -> tuple:
    """Over merged edge blocks: the candidate vids ``cand`` that are
    still the dst of a passage edge, and the ``watch`` vids that are
    still an endpoint of any edge (both sorted, unique)."""
    alive, touched = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for b in blocks:
        if not b.num_rows:
            continue
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        passage = pc.equal(b["etype"], "passage").to_numpy(zero_copy_only=False)
        alive.append(dst[passage & np.isin(dst, cand)])
        ends = np.concatenate([src, dst])
        touched.append(ends[np.isin(ends, watch)])
    return np.unique(np.concatenate(alive)), np.unique(np.concatenate(touched))


def _drop_shift(tbl: pa.Table, dead: np.ndarray, cols: tuple) -> pa.Table:
    """Rows of ``tbl`` with no dead vid in ``cols``, each vid there
    moved down by the number of dead vids below it (``dead`` sorted)."""
    keep = np.ones(tbl.num_rows, bool)
    for c in cols:
        v = tbl[c].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(dead, v)
        keep &= dead[np.minimum(pos, len(dead) - 1)] != v
        tbl = tbl.set_column(tbl.column_names.index(c), c, pa.array(v - pos, pa.int64()))
    return tbl.filter(pa.array(keep))


def delete_chunks_from_graph(
    texts: list[str],
    graph: GraphTables,
    out_dir: str,
    min_token_len: int = 3,
    edge_source: str = "cooccur",
    struct_keys: bool | None = None,
) -> GraphTables:
    """Incremental delete with the reference's semantics
    (HippoRAG.py:280-361: an entity survives iff some surviving chunk
    references it), without re-extracting the surviving corpus: the
    deleted texts are the only chunk content read, and the driver holds
    delete-sized data only.

    * One key probe of ``vertices/`` (state/parts.py) with the deleted
      chunks' keys and the entity keys they mention gives the present
      chunks and the vids of every key they mention.  Texts not in the
      graph are ignored; a delete of none copies the graph through.
    * Their negated edge partials go through the writers' edge merge.
    * One task scan of the merged edge blocks finds which mentioned
      entities are still the dst of a passage edge.  ``dead`` is the
      present chunks plus the mentioned entities that are not.
    * Vertices and edges are each rewritten by one map: drop dead vids,
      then ``vid - searchsorted(dead, vid)``.

    Only a vertex a deleted chunk mentions can die, and survivors keep
    their order, so the result is vid-identical to renumbering the
    survivors densely.  No edge is left on a dead vid (a deleted chunk's
    edges all cancel, and an entity with no passage edge left has no
    fact edge left); one that is raises ``ValueError`` before anything
    is written.  ``min_token_len`` and ``edge_source`` follow the
    manifest (:func:`graph_config`)."""
    from ..state.parts import in_keys, probe_keys

    os.makedirs(out_dir, exist_ok=True)
    min_token_len, edge_source = graph_config(graph.out_dir, min_token_len, edge_source)
    n = int(graph.n_vertices)
    mentions = ChunkToVertexRows(min_token_len)

    del_chunks = _to_chunk_rows(pa.table({"text": pa.array(sorted(set(texts)), pa.string())}))
    hits = probe_keys(
        graph.vertex_parts,
        "node_key",
        np.unique(mentions(del_chunks)["node_key"].to_numpy(zero_copy_only=False)),
        ("vid",),
    )
    del_chunks = del_chunks.filter(in_keys(del_chunks["chunk_key"], hits["node_key"]))
    if not del_chunks.num_rows:
        return _copy_through(graph, out_dir)

    vid_of = hits.to_pandas().set_index("node_key")["vid"]
    rows = mentions(del_chunks)
    is_chunk = pc.equal(rows["kind"], "chunk").to_numpy(zero_copy_only=False)
    keys = rows["node_key"].to_numpy(zero_copy_only=False)
    del_vids = np.sort(vid_of.loc[keys[is_chunk]].to_numpy(np.int64))
    cand = np.sort(vid_of.loc[keys[~is_chunk]].to_numpy(np.int64))

    struct = _use_struct_keys(n, struct_keys)
    neg = ChunkToIntEdgePartials(ray.put(vid_of), n, min_token_len, edge_source, struct)(
        del_chunks
    )
    neg = neg.set_column(
        neg.column_names.index("weight"), "weight", pc.negate(neg["weight"])
    )
    edges = _merge_edges(rd.from_arrow(neg), n, struct, base=graph)
    n_edges = edges.count()

    refs = edges.to_arrow_refs()
    cpus = int(ray.cluster_resources().get("CPU", 1))
    cand_ref, watch_ref = ray.put(cand), ray.put(np.union1d(cand, del_vids))
    scans = ray.get(
        [
            _passage_scan.remote(cand_ref, watch_ref, *[refs[i] for i in g])
            for g in np.array_split(np.arange(len(refs)), max(1, min(len(refs), cpus)))
        ]
    )
    alive = np.concatenate([a for a, _ in scans])
    dead = np.union1d(del_vids, np.setdiff1d(cand, alive))
    left = np.intersect1d(np.concatenate([t for _, t in scans]), dead)
    if len(left):
        raise ValueError(
            f"delete left edges on {len(left)} dead vertices (vids {left[:5].tolist()}): "
            "the stored edges and the deleted chunks' partials disagree"
        )

    # vertices: written beside the table, then swapped in, so an
    # in-place delete never reads a part it already replaced
    vdir = os.path.join(out_dir, "vertices")
    tmp = vdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    _write_table_dir(
        rd.read_parquet(graph.vertex_parts).map_batches(
            lambda b: _drop_shift(b, dead, ("vid",)), batch_format="pyarrow"
        ),
        tmp,
        "vertices",
    )
    shutil.rmtree(vdir, ignore_errors=True)
    os.rename(tmp, vdir)
    return _write_edges_adj_manifest(
        edges.map_batches(
            lambda b: _drop_shift(b, dead, ("src", "dst")), batch_format="pyarrow"
        ),
        out_dir,
        n - len(dead),
        n_edges,
        min_token_len,
        edge_source,
    )


def build_graph_incremental(
    new_transcripts: "rd.Dataset",
    graph: GraphTables,
    out_dir: str,
    min_token_len: int = 3,
    edge_source: str = "cooccur",
    broadcast_vertex_limit: int = 5_000_000,
    struct_keys: bool | None = None,
) -> GraphTables:
    """Merge new turns into an existing graph without re-extracting the
    old corpus (the reference's incremental indexing: insert-time key
    checks, HippoRAG.py:218-278 + embedding_store.py:63-90).

    A thin adapter for callers that hold the new turns as a Dataset:
    they are materialized into vertex candidate rows (chunk rows plus
    their entity rows, :class:`ChunkToVertexRows`) and
    :func:`merge_delta` — the engine's entry point, fed by its delta
    table — does the rest:

    * one key probe of ``vertices/`` (state/parts.py) with the
      candidates' distinct keys returns the stored (node_key, vid)
      hits; the old vertex table is neither materialized nor
      collected;
    * chunks already present (by content hash) are skipped — their
      co-occurrences were counted once and stay counted once;
    * existing vids are stable; new vertices get vids
      ``[n_old, n_old+k)`` in node_key order, written as ONE new part
      of ``vertices/`` (a full rebuild instead sorts globally — same
      graph up to vid permutation, verified in tests);
    * edge state merges at the edge-table level: the old decoded edge
      table is re-encoded with the new vertex count and summed with the
      new chunks' partials through the same int-key shuffle; the
      adjacency is re-expanded and re-sorted.

    The raw old transcripts are never re-read, and the driver holds
    delta-sized keys, hits and new vertex rows only.  ``min_token_len``
    and ``edge_source`` follow the graph's manifest, whatever the
    caller passes.
    """
    from ..state.parts import block_columns

    refs = (
        new_transcripts.map_batches(_to_chunk_rows, batch_format="pyarrow")
        .map_batches(ChunkToVertexRows(min_token_len), batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    )
    return merge_delta(
        refs,
        block_columns(refs, ["node_key", "kind"]),
        graph,
        out_dir,
        min_token_len,
        edge_source,
        broadcast_vertex_limit,
        struct_keys,
    )


@ray.remote
def _rederive_candidates(block, min_token_len: int) -> pa.Table:
    """A delta block's vertex candidate rows re-derived from its chunk
    rows (node_key = chunk key, content = text) with ``min_token_len``."""
    from .shuffle import _tbl

    t = _tbl(block)
    if t.num_rows:
        t = t.filter(pc.equal(t["kind"], "chunk"))
    if t.num_rows == 0:  # an empty block may carry no columns at all
        return ChunkToVertexRows(min_token_len)(
            pa.table({"chunk_key": pa.array([], pa.string()), "text": pa.array([], pa.string())})
        )
    return ChunkToVertexRows(min_token_len)(
        pa.table({"chunk_key": t["node_key"], "text": t["content"]})
    )


def _vertex_parts(vdir: str, n_old: int) -> tuple[list[str], list[str]]:
    """(committed, stale) part files of a vertex table whose manifest
    says ``n_old`` vertices.  An incremental write adds its new
    vertices as ``delta-<first vid>.parquet`` and commits them with the
    manifest, so a delta part starting at or past ``n_old`` is left over
    from a write that never committed."""
    from ..state.parts import walk_parts

    committed, stale = [], []
    for p in walk_parts(vdir):
        name = os.path.basename(p)
        if name.startswith("delta-") and int(name[6:-8]) >= n_old:
            stale.append(p)
        else:
            committed.append(p)
    return committed, stale


def merge_delta(
    refs: list,
    keys: list[pa.Table],
    graph: GraphTables,
    out_dir: str,
    min_token_len: int = 3,
    edge_source: str = "cooccur",
    broadcast_vertex_limit: int = 5_000_000,
    struct_keys: bool | None = None,
) -> GraphTables:
    """The body of :func:`build_graph_incremental` over materialized
    delta blocks: ``refs`` hold vertex candidate rows (node_key, kind,
    content; rows of any other kind are ignored) derived with
    ``min_token_len``, and ``keys[b]`` is block ``b``'s (node_key, kind)
    on the driver.

    The graph's manifest records how its vertices and edges were
    produced, and the merge follows it whatever the caller's config:
    candidates derived with another ``min_token_len`` than the
    manifest's are re-derived from their chunk rows first (one task
    per block) — probed as they are, they would miss stored entities
    (a larger value) or add short-token entities the graph never held
    (a smaller one).  A graph with synonymy edges is refused
    (:func:`graph_config`).

    The manifest stays the commit point: readers see only committed
    parts (``GraphTables.vertex_parts``), and a retry into the same
    ``out_dir`` first drops the uncommitted delta part, so it never
    duplicates vertex rows."""
    from ..state.parts import block_columns, first_rows, probe_keys, take_rows

    os.makedirs(out_dir, exist_ok=True)
    graph_len, edge_source = graph_config(graph.out_dir, min_token_len, edge_source)
    if graph_len != min_token_len:
        min_token_len = graph_len
        refs = [_rederive_candidates.remote(r, min_token_len) for r in refs]
        keys = block_columns(refs, ["node_key", "kind"])
    n_old = int(graph.n_vertices)
    in_place = os.path.abspath(out_dir) == os.path.abspath(graph.out_dir)
    committed, stale = _vertex_parts(graph.vertices_path, n_old)
    if in_place:
        for p in stale:
            os.unlink(p)

    # --- one key probe: which candidates are stored vertices ---
    pos = [
        np.flatnonzero(pc.is_in(k["kind"], pa.array(["chunk", "entity"])).to_numpy(
            zero_copy_only=False
        ))
        for k in keys
    ]
    cand = [k["node_key"].to_numpy(zero_copy_only=False)[p] for k, p in zip(keys, pos)]
    flat = np.concatenate(cand) if cand else np.zeros(0, object)
    hits = probe_keys(committed, "node_key", np.unique(flat), ("vid",))
    hit_key = hits["node_key"].to_numpy(zero_copy_only=False)
    hit_vid = hits["vid"].to_numpy(zero_copy_only=False).astype(np.int64)
    idx = [p[i] for p, i in zip(pos, first_rows(cand, hit_key))]
    vnew = ray.get(
        take_rows(refs, idx, {"node_key": "node_key", "kind": "kind", "content": "content"})
    )
    vnew = pa.concat_tables(vnew) if vnew else _schema.VERTICES.empty_table().drop(["vid"])
    if not pc.any(pc.equal(vnew["kind"], "chunk")).as_py():
        return _copy_through(graph, out_dir)

    # --- new vertices: vids n_old + rank in node_key order, one part ---
    vnew = vnew.sort_by("node_key")
    vnew = vnew.append_column(
        "vid", pa.array(np.arange(n_old, n_old + vnew.num_rows), pa.int64())
    ).cast(_schema.VERTICES)
    n = n_old + vnew.num_rows
    vdir = os.path.join(out_dir, "vertices")
    if not in_place:
        # Ray's write_parquet APPENDS: a retry into a pre-existing
        # out_dir must not keep a previous run's vertex rows
        shutil.rmtree(vdir, ignore_errors=True)
        os.makedirs(vdir)
        for p in committed:
            dst = os.path.join(vdir, os.path.relpath(p, graph.vertices_path))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy(p, dst)
    pq.write_table(vnew, os.path.join(vdir, f"delta-{n_old:012d}.parquet"))

    # --- new chunks' partials from a delta-sized dictionary: the
    # stored hits plus the new vids ---
    vmap = pa.table(
        {
            "node_key": pa.concat_arrays(
                [pa.array(hit_key, pa.string()), vnew["node_key"].combine_chunks()]
            ),
            "vid": pa.array(np.concatenate([hit_vid, vnew["vid"].to_numpy()]), pa.int64()),
        }
    )
    chunk_idx = [
        i[pc.equal(k["kind"], "chunk").to_numpy(zero_copy_only=False)[i]]
        for k, i in zip(keys, idx)
    ]
    chunks_new = rd.from_arrow_refs(
        take_rows(refs, chunk_idx, {"chunk_key": "node_key", "text": "content"}, 2048)
    )
    struct = _use_struct_keys(n, struct_keys)
    partials = _edge_partials(
        chunks_new, vmap, n, min_token_len, edge_source, struct, broadcast_vertex_limit
    )
    edges = _merge_edges(partials, n, struct, base=graph)
    return _write_edges_adj_manifest(
        edges, out_dir, n, edges.count(), min_token_len, edge_source
    )
