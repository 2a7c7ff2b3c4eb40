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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

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


def _encode_edges_table(batch: pa.Table, n: int, struct: bool) -> pa.Table:
    """(src, dst, weight, etype) edge rows -> the aggregation key layout
    (the incremental add/delete paths merge re-encoded old edges with
    new partials through the same exchange)."""
    src = batch["src"].to_numpy(zero_copy_only=False)
    dst = batch["dst"].to_numpy(zero_copy_only=False)
    fact = (batch["etype"].to_numpy(zero_copy_only=False) == "fact").astype(np.int64)
    if struct:
        return pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "lo": pa.array(dst * 2 + fact, type=pa.int64()),
                "weight": batch["weight"],
            }
        )
    return pa.table(
        {
            "code2": pa.array((src * n + dst) * 2 + fact, type=pa.int64()),
            "weight": batch["weight"],
        }
    )


def _sum_edge_partials(partials: "rd.Dataset", struct: bool) -> "rd.Dataset":
    from .shuffle import int_key_sum, int_pair_key_sum

    if struct:
        return int_pair_key_sum(partials, "src", "lo", "weight")
    return int_key_sum(partials, "code2", "weight")


def _empty_partial_table(struct: bool) -> pa.Table:
    if struct:
        return pa.table(
            {
                "src": pa.array([], pa.int64()),
                "lo": pa.array([], pa.int64()),
                "weight": pa.array([], pa.float64()),
            }
        )
    return pa.table(
        {"code2": pa.array([], pa.int64()), "weight": pa.array([], pa.float64())}
    )

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
            # two-int64 struct key (src, lo=dst*2+flag): no n^2 packing,
            # so no vertex-count ceiling below 2^62
            from .shuffle import _pair_partial_sum

            A_u, B_u, cnt = _pair_partial_sum(A, B, np.ones(len(A)))
            return pa.table(
                {
                    "src": pa.array(np.concatenate([p_src, A_u]), type=pa.int64()),
                    "lo": pa.array(
                        np.concatenate([ent_vids * 2, B_u * 2 + 1]), type=pa.int64()
                    ),
                    "weight": pa.array(
                        np.concatenate([np.ones(len(p_src)), cnt]), type=pa.float64()
                    ),
                }
            )

        p_code = p_src * self.n + ent_vids
        if len(A):
            code_u, code_n = np.unique(A * self.n + B, return_counts=True)
        else:
            code_u = np.zeros(0, dtype=np.int64)
            code_n = np.zeros(0, dtype=np.int64)

        # single int64 shuffle key: (src*n + dst) * 2 + is_fact
        # (capacity dispatched by _use_struct_keys at construction)
        code2 = np.concatenate([p_code * 2, code_u * 2 + 1])
        w = np.concatenate([np.ones(len(p_code)), code_n.astype(np.float64)])
        return pa.table(
            {
                "code2": pa.array(code2, type=pa.int64()),
                "weight": pa.array(w, type=pa.float64()),
            }
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
        import pyarrow.compute as pc

        from ..functions.text import tokenize

        from ..functions.pairs import segment_windows_dedup

        toks = tokenize(norm)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_rows = len(offs) - 1
        words = flat.to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offs))
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) >= self.min_token_len
        words, rows = words[keep], rows[keep]
        counts = np.bincount(rows, minlength=n_rows)
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
        import pyarrow.compute as pc

        from ..functions.text import tokenize

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
        toks = tokenize(norm)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_rows = len(offs) - 1
        words = flat.to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offs))
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) >= self.min_token_len
        words, rows = words[keep], rows[keep]
        counts = np.bincount(rows, minlength=n_rows)
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
    shards = [s[0] if isinstance(s, tuple) and len(s) == 1 else s for s in shards]
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
    from .shuffle import _pair_partial_sum, _plain_split, grouped_pairs, hash_join

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
            return _empty_partial_table(struct)
        cv = batch["chunk_vid"].to_numpy(zero_copy_only=False).astype(np.int64)
        ev = batch["ent_vid"].to_numpy(zero_copy_only=False).astype(np.int64)
        if struct:
            # distinct (chunk, entity) pairs without the n^2 packing
            cu, eu, _cnt = _pair_partial_sum(cv, ev, np.ones(len(cv)))
            return pa.table(
                {
                    "src": pa.array(cu, type=pa.int64()),
                    "lo": pa.array(eu * 2, type=pa.int64()),
                    "weight": pa.array(np.ones(len(cu), np.float64)),
                }
            )
        code = np.unique(cv * n + ev)
        return pa.table(
            {
                "code2": pa.array(code * 2, type=pa.int64()),
                "weight": pa.array(np.ones(len(code), np.float64)),
            }
        )

    passage_rows = m2.map_batches(passage, batch_format="pyarrow")

    if not ordered:
        pairs = grouped_pairs(m2, "chunk_key", "ent_vid", mode="ne")
    else:
        from .shuffle import _streaming_splits

        def launch(r, k):
            if k > 1:
                return _plain_split.options(num_returns=k).remote(r, "chunk_key", k)
            return [_plain_split.remote(r, "chunk_key", k)]

        splits, k = _streaming_splits(m2, launch, None)
        if not splits:
            pairs = rd.from_arrow(
                pa.table({"chunk_key": pa.array([], pa.string())})
            )
        else:
            outs = [
                _window_pairs_reduce.remote(
                    "chunk_key", "ent_vid", "pos", *[splits[i][t] for i in range(len(splits))]
                )
                for t in range(k)
            ]
            pairs = rd.from_arrow_refs(outs)

    def fact(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return _empty_partial_table(struct)
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        if struct:
            return pa.table(
                {
                    "src": pa.array(a, type=pa.int64()),
                    "lo": pa.array(b * 2 + 1, type=pa.int64()),
                    "weight": pa.array(np.ones(len(a), np.float64)),
                }
            )
        return pa.table(
            {
                "code2": pa.array((a * n + b) * 2 + 1, type=pa.int64()),
                "weight": pa.array(np.ones(len(a), np.float64)),
            }
        )

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
def _block_len(tbl: pa.Table) -> int:
    return tbl.num_rows


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
    from .shuffle import range_sort

    sorted_ds = range_sort(ds, key).materialize()
    refs = sorted_ds.to_arrow_refs()
    counts = ray.get([_block_len.remote(r) for r in refs])
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
    from .. import schema as _schema

    ds.write_parquet(path)
    has_part = os.path.isdir(path) and any(
        f.endswith(".parquet") for f in os.listdir(path)
    )
    if not has_part:
        sch = _schema.VERTICES if which == "vertices" else _schema.EDGES
        os.makedirs(path, exist_ok=True)
        pq.write_table(sch.empty_table(), os.path.join(path, "part-0.parquet"))


def _write_edges_adj_manifest(
    edges: "rd.Dataset",
    out_dir: str,
    n_vertices: int,
    n_edges: int,
    min_token_len: int,
    edge_source: str,
) -> "GraphTables":
    """Shared build tail (build_graph / delete / incremental): write
    edges/, expand each undirected record into both directions, range-
    sort by src for the CSR shards' row-group pruning
    (SimpleGraph.kt:141-147 undirected walk), write adj/, dump the
    manifest.  ONE definition — three hand-synced copies of this block
    drifted apart once already."""
    from .shuffle import range_sort

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
    return GraphTables(
        out_dir=out_dir, n_vertices=int(n_vertices), n_edges=int(n_edges)
    )


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
        import shutil as _shutil

        _shutil.rmtree(tmp)
    else:
        try:
            os.rename(tmp, part_dir)
        except OSError:
            # lost the publish race to a concurrent extraction between
            # the isdir check and the rename — the winner's partition
            # is complete; an uncaught raise here would abort the whole
            # run's ray.get
            import shutil as _shutil

            _shutil.rmtree(tmp, ignore_errors=True)
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
        from ..functions.hashing import md5_hex as _md5

        rel = os.path.relpath(os.path.abspath(in_file), root)
        tag = _md5([rel]).to_pylist()[0][:8]
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
            import shutil as _shutil

            _shutil.rmtree(part_dir)  # stale partition: input changed
        pending.append((in_file, part_dir))

    # prune partitions whose input file no longer exists — a deleted
    # input must not keep contributing chunks to every later build
    import shutil as _shutil

    for d in os.listdir(chunks_dir):
        # '.tmp.' names are a CONCURRENT extraction's in-flight temp dirs
        # (see _extract_shard's atomic publish) — pruning one would make
        # that run's os.rename fail; only prune final-shaped names
        if d.startswith("shard=") and ".tmp." not in d and d not in expected_dirs:
            _shutil.rmtree(os.path.join(chunks_dir, d), ignore_errors=True)

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
    import shutil as _shutil

    for sub in ("vertices", "edges", "adj"):
        _shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)

    if pre_chunked:
        from .shuffle import hash_distinct as _hd

        # per-CPU partitions for the same reason as dedup_chunks: the
        # downstream maps' parallelism is this exchange's block count
        chunks = _hd(
            transcripts.select_columns(["chunk_key", "text"]),
            "chunk_key",
            num_partitions=int(ray.cluster_resources().get("CPU", 8)),
        ).materialize()
    else:
        chunks = dedup_chunks(transcripts).materialize()
    if chunks.count() == 0:
        from .. import schema as _schema

        for name, sch in (
            ("vertices", _schema.VERTICES),
            ("edges", _schema.EDGES),
            ("adj", _schema.EDGES),
        ):
            d = os.path.join(out_dir, name)
            os.makedirs(d, exist_ok=True)
            pq.write_table(sch.empty_table(), os.path.join(d, "part-0.parquet"))
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump({"n_vertices": 0, "n_edges": 0, "min_token_len": min_token_len}, f)
        return GraphTables(out_dir=out_dir, n_vertices=0, n_edges=0)

    # --- vertex dictionary first (the small distinct set), so the big
    # pair shuffle runs over int64 codes, not md5 key strings ---
    from .shuffle import hash_distinct, range_sort

    vrows = chunks.map_batches(ChunkToVertexRows(min_token_len), batch_format="pyarrow")
    vdistinct = hash_distinct(vrows, "node_key")
    vertices = assign_dense_ids(vdistinct, "node_key", "vid").materialize()
    n_vertices = vertices.count()
    _write_table_dir(vertices, os.path.join(out_dir, "vertices"), "vertices")

    # vertex dictionary: broadcast once (ray.put) while it fits; beyond
    # ``broadcast_vertex_limit`` switch to the bucketed hash-join path
    # (_partials_via_join) — same key rows, no driver-side or
    # per-worker dictionary
    struct = _use_struct_keys(n_vertices, struct_keys)
    if n_vertices <= broadcast_vertex_limit:
        vmap = vertices.select_columns(["node_key", "vid"]).to_pandas().set_index(
            "node_key"
        )["vid"]
        vmap_ref = ray.put(vmap)

        # --- edge records: per-batch pre-aggregated int codes -> custom
        # int-key sum shuffle (Dataset.groupby measured 25x slower here,
        # see stages/shuffle.py) ---
        # explicit batch_size: the deduped-chunk exchange can emit few
        # large blocks (its partition heuristic optimizes the shuffle,
        # not this consumer) — without splitting, the hottest stage of
        # the build runs at the block count's parallelism
        # task-based (callable instance), NOT an actor pool: the batch
        # function is ~30us/row, so a pool's actor-launch latency
        # dominates (measured 16.5s pooled vs ~4s as tasks on warm
        # workers at 32 CPUs); tasks re-fetch the broadcast vmap from
        # plasma per task, which is vertex-table-sized and cheap
        partials = chunks.map_batches(
            ChunkToIntEdgePartials(
                vmap_ref, int(n_vertices), min_token_len, edge_source, struct
            ),
            batch_format="pyarrow",
            batch_size=2048,
        )
    else:
        partials = _partials_via_join(
            chunks, vertices, int(n_vertices), min_token_len, edge_source, struct
        )
    agg = _sum_edge_partials(partials, struct)

    n = int(n_vertices)
    edges = agg.map_batches(
        lambda b: _decode_edges_table(b, n, struct), batch_format="pyarrow"
    ).materialize()
    n_edges = edges.count()
    return _write_edges_adj_manifest(
        edges, out_dir, int(n_vertices), n_edges, min_token_len, edge_source
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


def delete_chunks_from_graph(
    texts: list[str],
    graph: GraphTables,
    out_dir: str,
    min_token_len: int = 3,
    edge_source: str = "cooccur",
    struct_keys: bool | None = None,
) -> GraphTables:
    """Incremental delete: subtract the deleted chunks' edge partials
    through the same int-key exchange the incremental build uses —
    the reference's in-place delete semantics (HippoRAG.py:280-361: an
    entity survives iff some surviving chunk references it) WITHOUT
    re-extracting the surviving corpus.  Touches edge-table- and
    vertex-table-sized data only; the deleted texts themselves are the
    only chunk content read.

    Surviving vids are compacted (old-vid order preserved), so vid
    numbering differs from a fresh rebuild's global node_key sort when
    increments happened in between — the *logical* graph (node_key-
    labeled edges/weights) is identical, verified in tests."""
    from .shuffle import int_key_sum, range_sort

    os.makedirs(out_dir, exist_ok=True)
    # the graph's manifest records how its edges were produced — the
    # incremental math must match it regardless of the caller's config
    # (a mismatched min_token_len would generate entity keys absent
    # from the stored vertex table, or silently skip short-token
    # partials from the subtraction)
    with open(os.path.join(graph.out_dir, "manifest.json")) as _f:
        _m = json.load(_f)
    edge_source = _m.get("edge_source", edge_source)
    min_token_len = _m.get("min_token_len", min_token_len)
    n = int(graph.n_vertices)

    del_tbl = pa.table({"text": pa.array(sorted(set(texts)), type=pa.string())})
    del_chunks = _to_chunk_rows(del_tbl)
    # only chunks actually in the graph subtract anything.  Probe the
    # stored vertex table for the delete batch's keys — the driver holds
    # delete-batch-sized data only, never the vertex table
    import pyarrow.dataset as pads

    probe_keys = sorted(set(del_chunks["chunk_key"].to_pylist()))
    present_keys = set(
        pads.dataset(graph.vertex_parts)
        .to_table(columns=["node_key"], filter=pads.field("node_key").isin(probe_keys))[
            "node_key"
        ]
        .to_pylist()
    )
    present = np.array(
        [k in present_keys for k in del_chunks["chunk_key"].to_pylist()], dtype=bool
    )
    del_chunks = del_chunks.filter(pa.array(present))
    del_keys = set(del_chunks["chunk_key"].to_pylist())
    if not del_keys:
        if os.path.abspath(out_dir) != os.path.abspath(graph.out_dir):
            import shutil as _sh

            for sub in ("vertices", "edges", "adj", "manifest.json"):
                src = os.path.join(graph.out_dir, sub)
                dst = os.path.join(out_dir, sub)
                # idempotent retry: a previous (crashed or finished)
                # run's tables in out_dir must be replaced, not crash
                # copytree with FileExistsError
                if os.path.isdir(dst):
                    _sh.rmtree(dst)
                elif os.path.exists(dst):
                    os.unlink(dst)
                (_sh.copytree if os.path.isdir(src) else _sh.copy)(src, dst)
        return load_graph(out_dir)

    # negative partials: the key->vid dictionary is restricted to the
    # keys the deleted texts can mention (delete-vocab-sized) via a
    # filtered read — the full-vertex broadcast this replaces was
    # vertex-table-sized driver state
    needed = np.unique(
        ChunkToVertexRows(min_token_len)(del_chunks)["node_key"].to_numpy(
            zero_copy_only=False
        )
    )
    vsub = pads.dataset(graph.vertex_parts).to_table(
        columns=["node_key", "vid"],
        filter=pads.field("node_key").isin(needed.tolist()),
    )
    key_to_vid = vsub.to_pandas().set_index("node_key")["vid"]
    vmap_ref = ray.put(key_to_vid)
    struct = _use_struct_keys(n, struct_keys)
    neg = ChunkToIntEdgePartials(vmap_ref, n, min_token_len, edge_source, struct)(
        del_chunks
    )
    neg = neg.set_column(
        neg.column_names.index("weight"),
        "weight",
        pa.array(-neg["weight"].to_numpy(zero_copy_only=False)),
    )

    merged = (
        graph.edges()
        .map_batches(
            lambda b: _encode_edges_table(b, n, struct), batch_format="pyarrow"
        )
        .union(rd.from_arrow(neg))
    )
    agg = _sum_edge_partials(merged, struct)
    # counts are integer-valued floats: cancelled records sum to 0.0 exactly
    agg = agg.map_batches(
        lambda b: b.filter(
            pa.array(b["weight"].to_numpy(zero_copy_only=False) != 0.0)
        ),
        batch_format="pyarrow",
    )

    edges = agg.map_batches(
        lambda b: _decode_edges_table(b, n, struct), batch_format="pyarrow"
    ).materialize()

    # survivors: chunks not deleted; entities still referenced by some
    # surviving chunk (⟺ they kept a passage edge — HippoRAG.py:302-345);
    # distinct passage dst via the int-key exchange (vertex-sized result)
    import pyarrow.compute as pc

    pdst_rows = edges.map_batches(
        lambda b: pa.table(
            {
                "vid": b.filter(pc.equal(b["etype"], "passage"))["dst"],
                "one": pa.array(
                    np.ones(int(pc.sum(pc.equal(b["etype"], "passage")).as_py() or 0)),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    passage_dst = int_key_sum(pdst_rows, "vid", "one").map_batches(
        lambda b: b.select(["vid"]), batch_format="pyarrow"
    )

    # survivors, fully distributed: chunks not deleted (small del-key
    # broadcast), entities with a surviving passage edge (semi join on
    # the distinct passage dst set) — the vertex table never lands on
    # the driver
    from .shuffle import hash_join as _hash_join

    del_ref = ray.put(np.array(sorted(del_keys), dtype=object))

    def chunk_keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        from ..state.parts import in_keys

        is_c = _pc.equal(batch["kind"], "chunk")
        keep = is_c.to_numpy(zero_copy_only=False) & ~in_keys(
            batch["node_key"], ray.get(del_ref)
        )
        return batch.filter(pa.array(keep))

    def entity_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return batch.filter(_pc.invert(_pc.equal(batch["kind"], "chunk")))

    vcols = ["node_key", "kind", "content", "vid"]
    chunk_surv = graph.vertices().map_batches(chunk_keep, batch_format="pyarrow")
    ent_surv = _hash_join(
        graph.vertices().map_batches(entity_only, batch_format="pyarrow"),
        passage_dst,
        "vid",
    )

    def norm_cols(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or any(c not in batch.column_names for c in vcols):
            return pa.table(
                {
                    "node_key": pa.array([], pa.string()),
                    "kind": pa.array([], pa.string()),
                    "content": pa.array([], pa.string()),
                    "vid": pa.array([], pa.int64()),
                }
            )
        return batch.select(vcols)

    survivors = (
        chunk_surv.map_batches(norm_cols, batch_format="pyarrow")
        .union(ent_surv.map_batches(norm_cols, batch_format="pyarrow"))
        .materialize()
    )
    # compact vids preserving old order: dense rank of the old vid
    # (range sort + per-block offsets — no driver-side remap array)
    surv_ids = assign_dense_ids(survivors, "vid", "new_vid").materialize()
    n_vertices = surv_ids.count()

    # edge remap as two bucketed joins on the (old vid -> new vid)
    # table; inner joins drop edges with a dead endpoint
    remap_ds = surv_ids.map_batches(
        lambda b: pa.table({"old": b["vid"], "new": b["new_vid"]}),
        batch_format="pyarrow",
    ).materialize()

    def key_src(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "old": batch["src"],
                "dst": batch["dst"],
                "weight": batch["weight"],
                "etype": batch["etype"],
            }
        )

    def took_src(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "new" not in batch.column_names:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "old": pa.array([], pa.int64()),
                    "weight": pa.array([], pa.float64()),
                    "etype": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {
                "src": batch["new"],
                "old": batch["dst"],
                "weight": batch["weight"],
                "etype": batch["etype"],
            }
        )

    def took_dst(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "new" not in batch.column_names:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "dst": pa.array([], pa.int64()),
                    "weight": pa.array([], pa.float64()),
                    "etype": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {
                "src": batch["src"],
                "dst": batch["new"],
                "weight": batch["weight"],
                "etype": batch["etype"],
            }
        )

    e1 = _hash_join(
        edges.map_batches(key_src, batch_format="pyarrow"), remap_ds, "old"
    ).map_batches(took_src, batch_format="pyarrow")
    edges = (
        _hash_join(e1, remap_ds, "old")
        .map_batches(took_dst, batch_format="pyarrow")
        .materialize()
    )
    n_edges = edges.count()

    import shutil as _sh

    for sub in ("vertices", "edges", "adj"):
        _sh.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    _write_table_dir(
        surv_ids.map_batches(
            lambda b: pa.table(
                {
                    "node_key": b["node_key"],
                    "kind": b["kind"],
                    "content": b["content"],
                    "vid": b["new_vid"],
                }
            ),
            batch_format="pyarrow",
        ),
        os.path.join(out_dir, "vertices"),
        "vertices",
    )
    return _write_edges_adj_manifest(
        edges, out_dir, int(n_vertices), n_edges, min_token_len, edge_source
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
    (a smaller one).

    The manifest stays the commit point: readers see only committed
    parts (``GraphTables.vertex_parts``), and a retry into the same
    ``out_dir`` first drops the uncommitted delta part, so it never
    duplicates vertex rows."""
    import shutil as _sh

    from .. import schema as _schema
    from ..state.parts import block_columns, first_rows, probe_keys, take_rows

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(graph.out_dir, "manifest.json")) as _f:
        _m = json.load(_f)
    edge_source = _m.get("edge_source", edge_source)
    if _m.get("min_token_len", min_token_len) != min_token_len:
        min_token_len = _m["min_token_len"]
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
        # nothing new: copy-through (same directory contract)
        if not in_place:
            for sub in ("vertices", "edges", "adj", "manifest.json"):
                src = os.path.join(graph.out_dir, sub)
                dst = os.path.join(out_dir, sub)
                # idempotent retry: a previous (crashed or finished)
                # run's tables in out_dir must be replaced, not crash
                # copytree with FileExistsError
                if os.path.isdir(dst):
                    _sh.rmtree(dst)
                elif os.path.exists(dst):
                    os.unlink(dst)
                (_sh.copytree if os.path.isdir(src) else _sh.copy)(src, dst)
        return load_graph(out_dir)

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
        _sh.rmtree(vdir, ignore_errors=True)
        os.makedirs(vdir)
        for p in committed:
            dst = os.path.join(vdir, os.path.relpath(p, graph.vertices_path))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            _sh.copy(p, dst)
    pq.write_table(vnew, os.path.join(vdir, f"delta-{n_old:012d}.parquet"))

    # --- new chunks' partials from a delta-sized dictionary: the
    # stored hits plus the new vids.  Broadcast while it fits, bucketed
    # hash-join path beyond the limit (same fallback as build_graph) ---
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
    if vmap.num_rows <= broadcast_vertex_limit:
        vmap_ref = ray.put(vmap.to_pandas().set_index("node_key")["vid"])
        partials_new = chunks_new.map_batches(
            ChunkToIntEdgePartials(vmap_ref, n, min_token_len, edge_source, struct),
            batch_format="pyarrow",
            batch_size=2048,
        )
    else:
        partials_new = _partials_via_join(
            chunks_new, rd.from_arrow(vmap), n, min_token_len, edge_source, struct
        )

    merged = partials_new.union(
        graph.edges().map_batches(
            lambda b: _encode_edges_table(b, n, struct), batch_format="pyarrow"
        )
    )
    agg = _sum_edge_partials(merged, struct)

    edges = agg.map_batches(
        lambda b: _decode_edges_table(b, n, struct), batch_format="pyarrow"
    ).materialize()
    n_edges = edges.count()
    for sub in ("edges", "adj"):
        _sh.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    return _write_edges_adj_manifest(
        edges, out_dir, n, n_edges, min_token_len, edge_source
    )
