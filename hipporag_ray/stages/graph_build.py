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
range sort + dense ids): the incremental writer holds the delta's
keys on the driver, which for a full build would be the whole corpus.

Ray Data runs a writer's input read only.  After it, every stage is a
plain Ray task on block refs, handed from one to the next as (ref,
rows) pairs (:func:`_map_blocks`, or :func:`_map_stream` in completion
order into an exchange, the ``*_refs`` exchanges of
stages/shuffle.py, :func:`_write_parts`); a merge or delete reads the
stored parts by path.  The writers return their wall split by stage
(``GraphTables.stages``).  Parts keep the layout Ray Data's parquet
sink gave them: one per block in name order, row groups of at most
32,768 rows with min/max statistics, one typed-empty part for a table
without rows.

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

import functools
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
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


def _sum_edge_partials(partials: list, struct: bool) -> list:
    """Edge partial (block ref, rows) pairs summed per key: the reduce
    output refs of the int-key (or pair-key) exchange."""
    from .shuffle import int_key_sum_refs, int_pair_key_sum_refs

    if struct:
        return int_pair_key_sum_refs(partials, "src", "lo", "weight")
    return int_key_sum_refs(partials, "code2", "weight")


def _decode_nonzero(batch: pa.Table, n: int, struct: bool) -> pa.Table:
    """Summed key rows -> edge rows, keys whose weights cancelled to
    zero dropped."""
    return _decode_edges_table(batch.filter(pc.not_equal(batch["weight"], 0.0)), n, struct)


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
    from .shuffle import _blocks, _exchange, _pair_partial_sum, _plain_split, grouped_pairs, hash_join

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
            _blocks(m2),
            _plain_split,
            ("chunk_key",),
            _window_pairs_reduce,
            ("chunk_key", "ent_vid", "pos"),
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
# plain tasks on block refs
# ---------------------------------------------------------------------------


@ray.remote(num_returns=2)
def _map_block(fn, block):
    """``fn`` over one block (a block ref, or a parquet part by path),
    with the output's row count as a second return."""
    from .shuffle import _tbl

    out = fn(pq.read_table(block) if isinstance(block, str) else _tbl(block))
    return out, out.num_rows


def _map_blocks(fn, blocks: list) -> list:
    """One plain task of ``fn`` per block (a ref or a part path): the
    outputs as (ref, rows) pairs in block order, the counts fetched in
    one get."""
    outs = [_map_block.remote(fn, b) for b in blocks]
    rows = ray.get([n for _, n in outs])
    return [(t, n) for (t, _), n in zip(outs, rows)]


def _map_stream(fn, blocks: list):
    """:func:`_map_blocks` for an exchange, which takes its input in any
    order: the tasks launch now, and the outputs are yielded as (ref,
    rows) pairs as each one finishes, so the exchange splits a block as
    soon as it exists and the driver drops its ref once the split holds
    it."""
    pending = {n: t for t, n in (_map_block.remote(fn, b) for b in blocks)}

    def done():
        while pending:
            [n], _ = ray.wait(list(pending))
            yield pending.pop(n), ray.get(n)

    return done()


class _Batched:
    """``fn`` over consecutive ``rows``-row slices of a block, the
    outputs concatenated (``map_batches``' ``batch_size``)."""

    def __init__(self, fn, rows: int):
        self.fn, self.rows = fn, rows

    def __call__(self, tbl: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [self.fn(tbl.slice(i, self.rows)) for i in range(0, max(tbl.num_rows, 1), self.rows)]
        )


def _expand(batch: pa.Table) -> pa.Table:
    """Edge records -> both directions: the records, then each reversed."""
    rev = pa.table(
        {"src": batch["dst"], "dst": batch["src"], "weight": batch["weight"], "etype": batch["etype"]}
    )
    return pa.concat_tables([batch, rev])


@ray.remote
def _vertex_map(*blocks) -> "pd.Series":
    """The broadcast vertex dictionary: vid by node_key over the vertex
    blocks."""
    keyed = pa.concat_tables([b.select(["node_key", "vid"]) for b in blocks])
    return keyed.to_pandas().set_index("node_key")["vid"]


@ray.remote
def _write_part(block, path: str, i: int) -> None:
    """Part ``i`` of the table directory ``path``: one block written as
    Ray Data 2.49.2's parquet sink writes one (pyarrow's dataset
    writer: row groups of at most 32,768 rows with min/max statistics,
    which the CSR shard bounds and hub detection read), single-threaded
    so the part keeps the block's row order.  Zero-padded, so name
    order is block order."""
    from .shuffle import _tbl

    pads.write_dataset(
        _tbl(block),
        path,
        basename_template=f"part-{i:06d}-{{i}}.parquet",
        format="parquet",
        existing_data_behavior="overwrite_or_ignore",
        use_threads=False,
    )


def _write_parts(blocks: list, path: str, which: str) -> None:
    """Write the (ref, rows) ``blocks`` that have rows as the parts of
    ``path``, in block order, and wait for them.  A table with no rows
    still gets one typed-empty part: a graph with vertices but zero
    edges must still leave edges/ and adj/ on disk, or every
    subsequent load crashes with FileNotFoundError."""
    os.makedirs(path, exist_ok=True)
    ray.get([_write_part.remote(r, path, i) for i, (r, n) in enumerate(blocks) if n])
    if not any(n for _, n in blocks):
        sch = _schema.VERTICES if which == "vertices" else _schema.EDGES
        pq.write_table(sch.empty_table(), os.path.join(path, "part-0.parquet"))


# ---------------------------------------------------------------------------
# dense id assignment (sort + per-block offsets)
# ---------------------------------------------------------------------------


@ray.remote
def _with_ids(tbl: pa.Table, offset: int, col: str) -> pa.Table:
    ids = np.arange(offset, offset + tbl.num_rows, dtype=np.int64)
    return tbl.append_column(col, pa.array(ids, type=pa.int64()))


def _with_offsets(blocks: list, id_col: str) -> list:
    """(ref, rows) of the ordered ``blocks`` with a dense int64
    ``id_col`` appended, offsets from their row counts."""
    offsets = np.cumsum([0] + [n for _, n in blocks])
    return [(_with_ids.remote(r, int(off), id_col), n) for (r, n), off in zip(blocks, offsets)]


def assign_dense_ids(ds: "rd.Dataset", key: str, id_col: str = "vid") -> "rd.Dataset":
    """Sort by ``key`` and append a dense, globally-contiguous int64 id.

    The sort is a shuffle (custom range sort); id assignment is then
    per-block with offsets from the sorted blocks' row counts (no
    driver materialization of rows).  A Dataset without rows keeps its
    blocks, each given an empty id column.
    """
    from .shuffle import _blocks, range_sort_refs

    srt = range_sort_refs(_blocks(ds), key)
    if not srt:
        srt = [(r, 0) for r in ds.materialize().to_arrow_refs()]
    return rd.from_arrow_refs([r for r, _ in _with_offsets(srt, id_col)])


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class GraphTables:
    out_dir: str
    n_vertices: int
    n_edges: int  # canonical edge records (fact both-direction + passage one-direction)
    # the write's wall split by stage (dedup_s, vertex_dict_s,
    # vertex_write_s, edge_sum_s, edge_write_s, adj_s), seconds that sum
    # to the call's wall; empty for a graph loaded or copied through
    stages: dict = field(default_factory=dict, compare=False)

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


class _Stages:
    """A writer's wall split: each mark books the time since the last
    one (or since construction) to a stage, so the stages sum to the
    call's wall."""

    def __init__(self):
        self.split: dict = {}
        self._t = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.split[name] = self.split.get(name, 0.0) + now - self._t
        self._t = now


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
    chunks: list,
    vertices,
    n: int,
    min_token_len: int,
    edge_source: str,
    struct: bool,
    broadcast_vertex_limit: int,
):
    """Edge partial rows of the chunk block refs ``chunks`` in the
    aggregation key layout, as a stream of (ref, rows) pairs.  ``vertices`` maps
    their keys to vids: a (node_key, vid) table on the driver or (ref,
    rows) pairs of vertex blocks with those columns.  It is broadcast
    once (``ray.put`` of the table, or one task over the blocks) while
    it has at most ``broadcast_vertex_limit`` rows; beyond that the
    bucketed hash-join path (:func:`_partials_via_join`, on Datasets
    over the refs) gives the same rows with no driver-side or
    per-worker dictionary."""
    from .shuffle import _blocks

    local = isinstance(vertices, pa.Table)
    if (vertices.num_rows if local else sum(k for _, k in vertices)) > broadcast_vertex_limit:
        vds = rd.from_arrow(vertices) if local else rd.from_arrow_refs([r for r, _ in vertices])
        return _blocks(
            _partials_via_join(rd.from_arrow_refs(chunks), vds, n, min_token_len, edge_source, struct)
        )
    if local:
        vmap_ref = ray.put(vertices.to_pandas().set_index("node_key")["vid"])
    else:
        vmap_ref = _vertex_map.remote(*[r for r, _ in vertices])
    # one plain task per chunk block (the dedup exchange makes one per
    # CPU, so the hottest stage of the build runs at the CPU count's
    # parallelism), each pre-aggregating per 2048-row batch into int
    # codes for the custom int-key sum (Dataset.groupby measured 25x
    # slower here, see stages/shuffle.py).  Tasks, NOT an actor pool:
    # the batch function is ~30us/row, so a pool's actor-launch latency
    # dominates (measured 16.5s pooled vs ~4s as tasks on warm workers
    # at 32 CPUs); tasks fetch the broadcast vmap from plasma, which is
    # vertex-table-sized and cheap
    fn = ChunkToIntEdgePartials(vmap_ref, n, min_token_len, edge_source, struct)
    return _map_stream(_Batched(fn, 2048), chunks)


def _merge_edges(partials, n: int, struct: bool, base: "GraphTables | None" = None) -> list:
    """The edge merge of every writer: the (ref, rows) ``partials`` (a
    list is emptied once the exchange holds its blocks) plus the stored
    edge records of ``base`` (each part read by path
    and re-encoded with ``n`` vertices in a plain task) summed per key
    through the int-key exchange, then one task per reduce output
    decodes it and drops the keys whose weights cancel to zero (a
    delete's negated partials — counts are integer-valued floats, so a
    cancelled record sums to 0.0 exactly; without negative partials
    nothing is dropped).  Returns the edge blocks as (ref, rows) pairs,
    every task finished."""
    from ..state.parts import walk_parts

    blocks = partials
    if base is not None:
        encode = functools.partial(_encode_edges_table, n=n, struct=struct)
        blocks = itertools.chain(partials, _map_stream(encode, walk_parts(base.edges_path)))
    sums = _sum_edge_partials(blocks, struct)
    del blocks
    if isinstance(partials, list):
        partials.clear()  # the exchange's split tasks hold them now
    return _map_blocks(functools.partial(_decode_nonzero, n=n, struct=struct), sums)


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
    edges: list,
    out_dir: str,
    n_vertices: int,
    min_token_len: int,
    edge_source: str,
    stages: _Stages,
) -> "GraphTables":
    """Shared write tail: replace edges/ with the (ref, rows) ``edges``,
    expand each undirected record into both directions, range-sort by
    src for the CSR shards' row-group pruning (SimpleGraph.kt:141-147
    undirected walk), write adj/, dump the manifest.  ``edges`` must
    not read from ``out_dir`` (the writers hand in finished blocks);
    the list is emptied once the expansion tasks hold its blocks."""
    from .shuffle import range_sort_refs

    for sub in ("edges", "adj"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    _write_parts(edges, os.path.join(out_dir, "edges"), "edges")
    stages.mark("edge_write_s")
    n_edges = sum(k for _, k in edges)
    expanded = _map_blocks(_expand, [r for r, k in edges if k])
    edges.clear()
    _write_parts(range_sort_refs(expanded, "src"), os.path.join(out_dir, "adj"), "adj")
    g = _write_manifest(out_dir, n_vertices, n_edges, min_token_len, edge_source)
    stages.mark("adj_s")
    g.stages = stages.split
    return g


def _chunk_rows(transcripts: "rd.Dataset", pre_chunked: bool = False) -> "rd.Dataset":
    """The dedup exchange's input: (chunk_key, text) rows, hashed from
    the text unless ``pre_chunked``."""
    if pre_chunked:
        return transcripts.select_columns(["chunk_key", "text"])
    return transcripts.map_batches(_to_chunk_rows, batch_format="pyarrow")


def dedup_chunks(transcripts: "rd.Dataset") -> "rd.Dataset":
    """transcripts -> distinct (chunk_key, text): exact first-wins
    dedup on the content hash (rows in a group are byte-identical since
    the key is md5(text)) — the A10 operator (embedding_store.py:63-90),
    via the custom hash-exchange distinct."""
    from .shuffle import _cpus, hash_distinct

    return hash_distinct(_chunk_rows(transcripts), "chunk_key", num_partitions=_cpus())


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

    Ray Data runs the input read only: its blocks stream, as the
    executor produces them, into the chunk dedup exchange, and every
    later stage is plain tasks on block refs — vertex rows, the vertex
    dictionary (distinct, sort, ids), its broadcast, edge partials, the
    edge sum, the adjacency sort and the parquet writes.  The returned
    ``stages`` split the call's wall by stage.

    ``pre_chunked=True`` means the input already has (chunk_key, text)
    columns (phase-A output of :func:`extract_chunks_resumable`); only
    the global dedup exchange runs, not the hash map."""
    from .shuffle import _blocks, _cpus, hash_distinct_refs, range_sort_refs

    stages = _Stages()
    os.makedirs(out_dir, exist_ok=True)
    # parts are named by block index: a rebuild into the same out_dir
    # (the resume-after-failure path) would otherwise leave a previous
    # run's parts past this run's count behind a manifest claiming the
    # fresh counts
    for sub in ("vertices", "edges", "adj"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)

    # one reduce partition per CPU even when the deduped volume is
    # modest: every downstream build stage fans out per TOKEN (~16x the
    # chunk rows), so the volume-based k here (e.g. 2 at 100k deduped
    # chunks) would serialize the vertex-row and edge-partial tasks —
    # the block count, not the row count, is their parallelism
    chunks = hash_distinct_refs(
        _blocks(_chunk_rows(transcripts, pre_chunked)), "chunk_key", num_partitions=_cpus()
    )
    stages.mark("dedup_s")
    if not any(k for _, k in chunks):
        for name in ("vertices", "edges", "adj"):
            _write_parts([], os.path.join(out_dir, name), name)
        g = _write_manifest(out_dir, 0, 0, min_token_len, edge_source)
        stages.mark("vertex_write_s")
        g.stages = stages.split
        return g
    chunks = [r for r, _ in chunks]

    # --- vertex dictionary first (the small distinct set), so the big
    # pair shuffle runs over int64 codes, not md5 key strings ---
    vertices = _with_offsets(
        range_sort_refs(
            hash_distinct_refs(_map_stream(ChunkToVertexRows(min_token_len), chunks), "node_key"),
            "node_key",
        ),
        "vid",
    )
    n = sum(k for _, k in vertices)
    stages.mark("vertex_dict_s")
    _write_parts(vertices, os.path.join(out_dir, "vertices"), "vertices")
    stages.mark("vertex_write_s")

    struct = _use_struct_keys(n, struct_keys)
    partials = _edge_partials(
        chunks, vertices, n, min_token_len, edge_source, struct, broadcast_vertex_limit
    )
    del chunks, vertices
    edges = _merge_edges(partials, n, struct)
    stages.mark("edge_sum_s")
    return _write_edges_adj_manifest(edges, out_dir, n, min_token_len, edge_source, stages)


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
    from .shuffle import _cpus

    stages = _Stages()
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
    stages.mark("vertex_dict_s")
    edges = _merge_edges([(ray.put(neg), neg.num_rows)], n, struct, base=graph)
    stages.mark("edge_sum_s")

    refs = [r for r, _ in edges]
    cpus = _cpus()
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

    stages.mark("vertex_dict_s")

    # vertices: each committed part read by path and shifted in a plain
    # task, written beside the table, then swapped in, so an in-place
    # delete never reads a part it already replaced
    vdir = os.path.join(out_dir, "vertices")
    tmp = vdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shift = functools.partial(_drop_shift, dead=dead, cols=("vid",))
    _write_parts(_map_blocks(shift, graph.vertex_parts), tmp, "vertices")
    shutil.rmtree(vdir, ignore_errors=True)
    os.rename(tmp, vdir)
    shift = functools.partial(_drop_shift, dead=dead, cols=("src", "dst"))
    edges = _map_blocks(shift, refs)
    del refs
    stages.mark("vertex_write_s")
    return _write_edges_adj_manifest(
        edges, out_dir, n - len(dead), min_token_len, edge_source, stages
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

    t0 = time.perf_counter()
    refs = (
        new_transcripts.map_batches(_to_chunk_rows, batch_format="pyarrow")
        .map_batches(ChunkToVertexRows(min_token_len), batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    )
    keys = block_columns(refs, ["node_key", "kind"])
    read_s = time.perf_counter() - t0
    g = merge_delta(
        refs, keys, graph, out_dir, min_token_len, edge_source, broadcast_vertex_limit, struct_keys
    )
    if g.stages:  # the candidate rows are the vertex dictionary's input
        g.stages["vertex_dict_s"] += read_s
    return g


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

    stages = _Stages()
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
    stages.mark("vertex_dict_s")
    vdir = os.path.join(out_dir, "vertices")
    if not in_place:
        # a retry into a pre-existing out_dir must not keep a previous
        # run's vertex parts beside the copied ones
        shutil.rmtree(vdir, ignore_errors=True)
        os.makedirs(vdir)
        for p in committed:
            dst = os.path.join(vdir, os.path.relpath(p, graph.vertices_path))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy(p, dst)
    pq.write_table(vnew, os.path.join(vdir, f"delta-{n_old:012d}.parquet"))
    stages.mark("vertex_write_s")

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
    chunks_new = take_rows(refs, chunk_idx, {"chunk_key": "node_key", "text": "content"}, 2048)
    struct = _use_struct_keys(n, struct_keys)
    partials = _edge_partials(
        chunks_new, vmap, n, min_token_len, edge_source, struct, broadcast_vertex_limit
    )
    del chunks_new
    edges = _merge_edges(partials, n, struct, base=graph)
    stages.mark("edge_sum_s")
    return _write_edges_adj_manifest(edges, out_dir, n, min_token_len, edge_source, stages)
