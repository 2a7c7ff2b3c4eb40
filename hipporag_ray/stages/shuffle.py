"""Custom hash/range exchanges on raw Ray tasks.

Every exchange here is the same skeleton (:func:`_exchange`):

  split:  per input block — an optional map-side combine, then a
          partition id per row, fanned into k partition objects
          (one task return each; Ray moves each to its reducer directly)
  reduce: per partition — concat the k-th object of every split, then
          combine / sort / join / expand

The split contract: a split task takes the block first and ``k`` last
(:func:`_launch` appends it) and returns :func:`_fan` of its k
partitions — one object per partition, the single object itself at
k == 1, so reducers never unwrap anything.  A split refuses a block
with rows that lacks its key or weight column (:func:`_checked`); a
zero-row block with no schema passes through.  Input blocks stream
in as the executor produces them; k follows row volume (one
partition per CPU above ``CPUs x _PARTITION_FLOOR_ROWS``) and
oversized blocks are sliced first, so neither side's parallelism
depends on the upstream block layout.  :func:`hash_join` (k from the
larger of two inputs) and :func:`range_sort` (a sample pass, then the
range split) drive the same pieces themselves.

The input is a stream of (block ref, row count) pairs.  The
``*_refs`` entries (:func:`hash_distinct_refs`,
:func:`int_key_sum_refs`, :func:`int_pair_key_sum_refs`,
:func:`range_sort_refs`) take such pairs and return refs: the raw
reduce outputs of the sums, (ref, rows) pairs of the nonempty outputs
of the dedup and the sort, so one exchange feeds the next with no Ray
Data execution between them (the graph writers chain theirs this way).
The public ``Dataset`` functions are thin adapters: they feed
:func:`_blocks` of their input to the same entry and wrap its output
with ``from_arrow_refs``.

Why not ``Dataset.groupby`` / ``repartition(keys=...)``: on Ray 2.49.2
(4-CPU local session, one-core host) a native
``groupby("code2").sum("weight")`` over 253k int64 rows took 6.8-11.2 s
under either shuffle strategy against 0.08-0.13 s for
:func:`int_key_sum`, and a ``HASH_SHUFFLE``
``repartition(4, keys=...)`` of 250k string keys did not finish in
900 s against 0.10-0.29 s for :func:`hash_partition`.

KNOWN LIMIT — embedded NUL bytes in STRING keys: the general-key
aggregations reduce with pandas groupby, whose object-string hash
table truncates at ``\\x00`` (keys differing only past a NUL silently
merge; verified on pandas 2.2).  Every engine-generated key is NUL-free
(md5 hex, normalized tokens, int ids); callers feeding raw external
strings should sanitize first (heavy_hitters_topk refuses loudly).

The multiplicative hash decorrelates partition assignment from key
structure (our edge codes are ``src*n + dst`` — plain modulo would
alias src ranges).  Hot KEYS are already collapsed by the map-side
pre-aggregation: a key occurs at most once per input block, so a
reducer sees at most num_blocks rows per key — the classic combiner
bound, no salting needed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _partial_sum(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(codes) == 0:
        return codes, weights
    order = np.argsort(codes, kind="stable")
    c = codes[order]
    w = weights[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(c))[0] + 1]).astype(np.int64)
    return c[starts], np.add.reduceat(w, starts)


@ray.remote
def _map_split(block, key_col: str, weight_col: str, k: int):
    tbl = _checked(block, key_col, weight_col)
    codes, weights = _partial_sum(
        _np(tbl, key_col, np.int64), _np(tbl, weight_col, np.float64)
    )
    h = ((codes.astype(np.uint64) * _MIX) >> np.uint64(33)).astype(np.int64) % k
    return _fan([(codes[i], weights[i]) for i in _parts(h, k)])


@ray.remote
def _reduce(key_col: str, weight_col: str, *shards) -> pa.Table:
    c, w = _partial_sum(*(np.concatenate(col) for col in zip(*shards)))
    return pa.table({key_col: pa.array(c, type=pa.int64()), weight_col: pa.array(w)})


_MIX2 = np.uint64(0xBF58476D1CE4E5B9)  # splitmix64 finalizer constant


def _pair_partial_sum(
    k1: np.ndarray, k2: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """groupby-sum over a TWO-int64-key tuple (lexsort + run-boundary
    reduceat) — the struct-key analog of :func:`_partial_sum` for key
    spaces too large to pack into one int64 (e.g. vertex pairs at
    n >= ~2.1e9 where src*n+dst overflows)."""
    if len(k1) == 0:
        return k1, k2, weights
    order = np.lexsort((k2, k1))
    a, b, w = k1[order], k2[order], weights[order]
    new = np.concatenate([[True], (np.diff(a) != 0) | (np.diff(b) != 0)])
    starts = np.nonzero(new)[0]
    return a[starts], b[starts], np.add.reduceat(w, starts)


def _pair_hash(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit hash of an int64 key pair (independent mixes
    combined then re-mixed, so (a, b) and (b, a) land independently)."""
    h = (k1.astype(np.uint64) * _MIX) ^ (k2.astype(np.uint64) * _MIX2)
    return (h * _MIX) >> np.uint64(29)


@ray.remote
def _pair_map_split(block, k1_col: str, k2_col: str, weight_col: str, k: int):
    tbl = _checked(block, k1_col, k2_col, weight_col)
    k1, k2, w = _pair_partial_sum(
        _np(tbl, k1_col, np.int64),
        _np(tbl, k2_col, np.int64),
        _np(tbl, weight_col, np.float64),
    )
    h = (_pair_hash(k1, k2) % np.uint64(k)).astype(np.int64)
    return _fan([(k1[i], k2[i], w[i]) for i in _parts(h, k)])


@ray.remote
def _pair_reduce(k1_col: str, k2_col: str, weight_col: str, *shards) -> pa.Table:
    a, b, ws = _pair_partial_sum(*(np.concatenate(col) for col in zip(*shards)))
    return pa.table(
        {
            k1_col: pa.array(a, type=pa.int64()),
            k2_col: pa.array(b, type=pa.int64()),
            weight_col: pa.array(ws),
        }
    )


def int_pair_key_sum(
    ds: "rd.Dataset", k1_col: str, k2_col: str, weight_col: str
) -> "rd.Dataset":
    """groupby((k1, k2)).sum(weight) for a two-int64-key tuple; returns
    a Dataset with columns (k1_col, k2_col, weight_col).  The struct-key
    counterpart of :func:`int_key_sum` for key spaces that overflow a
    single packed int64 — routing hashes BOTH keys, aggregation compares
    the actual tuple, so there is no capacity ceiling below n < 2^63
    per component.  Same streaming-consumption contract."""
    outs = int_pair_key_sum_refs(_blocks(ds), k1_col, k2_col, weight_col)
    if not outs:
        # zero blocks: emit the typed AGGREGATE schema, not the input's
        # (consumers select (k1, k2, weight) unconditionally)
        empty = _typed_empty_agg(ds, [k1_col, k2_col], weight_col, weight_col, "sum")
        return empty if empty is not None else ds
    return rd.from_arrow_refs(outs)


def int_pair_key_sum_refs(blocks, k1_col: str, k2_col: str, weight_col: str) -> list:
    """The ref-list entry of :func:`int_pair_key_sum`: ``blocks`` are
    (block ref, rows) pairs; returns the k reduce output refs (none for
    no blocks)."""
    cols = (k1_col, k2_col, weight_col)
    return _exchange(blocks, _pair_map_split, cols, _pair_reduce, cols)


@ray.remote
def _multi_split(block, key_cols: list, weight_col, out_col: str, op: str, k: int):
    """Per-block partial groupby-``op`` (sum/min/max; or row count when
    weight_col is None) over arbitrary-typed key columns, fanned by a
    combined key hash.  Every op is mergeable, so the partial here and
    the final combine in :func:`_multi_reduce` compose exactly."""
    tbl = _checked(block, *key_cols, weight_col)
    if tbl is None:
        # schema-less ELIDED block (zero rows): nothing to type with
        return _fan([pa.table({})] * k)
    if tbl.num_rows == 0:
        # typed empty partial — keeps the aggregated schema observable
        # downstream when EVERY block is empty (count is int64; sum/min/
        # max keep the value column's dtype, matching pandas' combine,
        # except decimal sums which widen — see _sum_out_type)
        if weight_col is None:
            out_type = pa.int64()
        elif op == "sum":
            out_type = (
                _sum_out_type(tbl[weight_col].type) or tbl[weight_col].type
            )
        else:
            out_type = tbl[weight_col].type
        empty = tbl.select(list(key_cols)).slice(0, 0).append_column(
            out_col, pa.array([], type=out_type)
        )
        return _fan([empty] * k)
    df = _gb_pandas(
        tbl.select(list(key_cols) + ([weight_col] if weight_col else []))
    )
    if weight_col:
        part = df.groupby(
            list(key_cols), as_index=False, sort=False, dropna=False
        )[weight_col].agg(op)
        part = part.rename(columns={weight_col: out_col})
    else:
        part = df.groupby(
            list(key_cols), as_index=False, sort=False, dropna=False
        ).size()
        part = part.rename(columns={"size": out_col})
    ptbl = pa.Table.from_pandas(part, preserve_index=False)
    # canonical partial schema: key columns keep the INPUT block's
    # types; out_col is int64 for count, the value's type for min/max,
    # and the widened _sum_out_type for sum (int/float sums are
    # path-stable — measured: int32->int32, uint8->uint64, f32->f32 on
    # BOTH conversion paths — but decimal sums re-infer a
    # value-dependent precision on the numpy path)
    fields = [pa.field(c, tbl[c].type) for c in key_cols]
    if weight_col is None:
        fields.append(pa.field(out_col, pa.int64()))
    elif op in ("min", "max"):
        fields.append(pa.field(out_col, tbl[weight_col].type))
    elif op == "sum" and _sum_out_type(tbl[weight_col].type) is not None:
        # only parametric types need pinning; for int/float sums any
        # cast here could itself diverge per block (e.g. a uint64
        # partial fitting uint8 in one block but overflowing in
        # another), so they are left at their path-stable natural type
        fields.append(pa.field(out_col, _sum_out_type(tbl[weight_col].type)))
    ptbl = _cast_cols_like(ptbl, pa.schema(fields))
    h = np.zeros(ptbl.num_rows, dtype=np.uint64)
    for c in key_cols:
        h = (h * _MIX) ^ _hash_codes(ptbl, c)
    return _take_parts(ptbl, (h % np.uint64(k)).astype(np.int64), k)


@ray.remote
def _multi_reduce(key_cols: list, out_col: str, op: str, *shards) -> pa.Table:
    nonempty = [s for s in shards if s.num_rows]
    if not nonempty:
        # all-empty partition: keep a TYPED empty (key_cols + out_col)
        # if any shard carries schema, so empty-input pipelines still
        # expose the aggregated columns to consumers
        for s in shards:
            if s.num_columns:
                return s
        return _EMPTY_SENTINEL
    shards = nonempty
    df = _gb_pandas(pa.concat_tables(shards))
    out = df.groupby(
        list(key_cols), as_index=False, sort=False, dropna=False
    )[out_col].agg(op)
    # re-canonicalize to the (already-canonical) partial schema so
    # partitions that reduced through different conversion paths — and
    # the typed-empty partitions — agree block-to-block downstream
    return _cast_cols_like(
        pa.Table.from_pandas(out, preserve_index=False), shards[0].schema
    )


def _arrow_type_of(t) -> pa.DataType:
    """Normalize a Dataset.schema() entry (Arrow type, numpy dtype, or
    Python type for pandas-backed schemas) to an Arrow DataType."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string() if t in (str, object) else pa.int64()


def _typed_empty_agg(
    ds: "rd.Dataset",
    key_cols: list,
    weight_col: str | None,
    out_col: str,
    op: str = "min",
):
    """Empty (key_cols + out_col) dataset typed from ds's schema, or
    None when the schema is unavailable / missing the needed columns
    (then the caller has nothing better than passing ds through)."""
    sch = ds.schema(fetch_if_missing=True)
    if sch is None:
        return None
    types = dict(zip(sch.names, sch.types))
    if any(c not in types for c in key_cols) or (
        weight_col is not None and weight_col not in types
    ):
        return None
    cols = {c: pa.array([], _arrow_type_of(types[c])) for c in key_cols}
    if weight_col is None:
        out_type = pa.int64()
    else:
        out_type = _arrow_type_of(types[weight_col])
        if op == "sum":
            out_type = _sum_out_type(out_type) or out_type
    cols[out_col] = pa.array([], out_type)
    return rd.from_arrow(pa.table(cols))


def _multi_key_agg(
    ds: "rd.Dataset", key_cols: list, weight_col: str | None, out_col: str, op: str
) -> "rd.Dataset":
    """Shared machinery of :func:`multi_key_sum` / :func:`multi_key_min`
    / :func:`multi_key_max`: per-block pandas partials (map-side
    combine), a hash exchange on the combined key hash, a per-partition
    final combine.  ``op`` must be mergeable (sum/min/max; count runs
    as a sum over per-block sizes)."""
    reduce_op = "sum" if weight_col is None else op
    outs = _exchange(
        _blocks(ds),
        _multi_split,
        (list(key_cols), weight_col, out_col, op),
        _multi_reduce,
        (list(key_cols), out_col, reduce_op),
    )
    if not outs:
        # zero-block input: synthesize the TYPED empty result
        # (key_cols + out_col) rather than leaking the input schema —
        # consumers select out_col unconditionally (e.g. an empty
        # corpus through fact_edge_weights still exposes 'weight')
        empty = _typed_empty_agg(ds, key_cols, weight_col, out_col, op=op)
        return empty if empty is not None else ds
    # keep ONE (typed-empty) reduce output when all are empty so the
    # aggregated schema (key_cols + out_col) survives an empty input —
    # ds.limit(0) here would leak the INPUT's schema instead
    return rd.from_arrow_refs([r for r, _ in _nonempty(outs)] or outs[:1])


def multi_key_sum(
    ds: "rd.Dataset",
    key_cols: list,
    weight_col: str | None = None,
    out_col: str = "weight",
) -> "rd.Dataset":
    """groupby(key_cols).sum(weight_col) — or COUNT(*) per key tuple when
    ``weight_col`` is None — for arbitrary-typed (string, int, mixed)
    key columns.  The general-key counterpart of :func:`int_key_sum`:
    per-block pandas partials (map-side combine), a hash exchange on the
    combined key hash, a per-partition final combine.  Replaces
    ``Dataset.groupby(...).aggregate(...)`` for large keyspaces (the
    native groupby's sort-based shuffle measured an order of magnitude
    slower on the build path; small-cardinality groups should use the
    lineitem-style driver combine instead)."""
    return _multi_key_agg(ds, key_cols, weight_col, out_col, "sum")


def multi_key_min(
    ds: "rd.Dataset", key_cols: list, val_col: str, out_col: str
) -> "rd.Dataset":
    """groupby(key_cols).min(val_col) through the same exchange — the
    first-wins-representative shape (A10 exact dedup's min-id per
    content hash).  Min is mergeable, so per-block partials bound any
    hot key's reducer input by the block count."""
    return _multi_key_agg(ds, key_cols, val_col, out_col, "min")


def multi_key_max(
    ds: "rd.Dataset", key_cols: list, val_col: str, out_col: str
) -> "rd.Dataset":
    """groupby(key_cols).max(val_col) through the same exchange."""
    return _multi_key_agg(ds, key_cols, val_col, out_col, "max")


def _gb_pandas(tbl: pa.Table) -> "pd.DataFrame":
    """Arrow -> pandas for a key-grouped aggregation.  When ANY column
    carries nulls, convert with Arrow-backed dtypes so (a) a null key
    group survives ``groupby(dropna=False)`` as a proper NA (SQL GROUP
    BY semantics — DuckDB keeps the NULL group) and (b) a nullable
    int64 key/value round-trips exactly instead of degrading to
    float64+NaN (which corrupts large ids and, for value columns,
    flips the partial's dtype vs null-free blocks).  Null-free inputs
    — the common case for the engine's generated keys — keep the
    faster numpy-dtype path; :func:`_cast_cols_like` re-canonicalizes
    the lossy round-trips (large_string -> string etc.) so partials
    from both paths concat cleanly."""
    if any(tbl[c].null_count for c in tbl.column_names):
        return tbl.to_pandas(types_mapper=pd.ArrowDtype)
    return tbl.to_pandas()


def _sum_out_type(t: pa.DataType):
    """Canonical sum-output type for value types whose pandas-path sum
    dtype is VALUE-dependent, else None (meaning: leave the partial's
    natural, path-stable type alone).  Decimal sums re-infer precision
    from the result values on the numpy path (decimal128(10,2) inputs
    can come back decimal128(3,2)) while the ArrowDtype path keeps the
    input type — pin them to the SQL-style widened decimal128(38, s)."""
    if pa.types.is_decimal(t):
        return pa.decimal128(38, t.scale)
    return None


def _cast_cols_like(tbl: pa.Table, target: pa.Schema) -> pa.Table:
    """Cast tbl's columns to target's types where names match.  The
    pandas round-trip in the exchange partials is lossy for some Arrow
    types (large_string/string_view/dictionary keys come back as plain
    string on the numpy path but exactly on the ArrowDtype path), and
    ``pa.concat_tables`` in the reducer requires every shard to agree
    — so every partial is canonicalized to the input block's types."""
    for i, name in enumerate(tbl.column_names):
        if target.get_field_index(name) == -1:
            continue
        f = target.field(name)
        if f.type != tbl.column(i).type:
            try:
                tbl = tbl.set_column(i, f, tbl.column(i).cast(f.type))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                # deliberately best-effort: when EVERY partial diverges
                # the same way (all blocks took the same conversion
                # path) the reducer's concat still succeeds, and a
                # raise here would break that working case — only
                # path-MIXED divergence fails, later, in concat
                pass
    return tbl


def _hash_codes(tbl: pa.Table, key_col: str) -> np.ndarray:
    """Vectorized stable 64-bit hash of a key column (int via
    multiplicative mix; strings via polars' native hash — no Python
    per-row loop).  Nulls hash like 0 on the int path (a partition
    collision, not a correctness issue — partitioning only needs
    every null to land in ONE deterministic partition)."""
    col = tbl[key_col]
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = pc.fill_null(col, 0)
        codes = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        return (codes * _MIX) >> np.uint64(13)
    import polars as pl

    return (
        pl.from_arrow(tbl.select([key_col]))
        .select(pl.col(key_col).hash(seed=7))
        .to_series()
        .to_numpy()
        .astype(np.uint64)
    )


def _first_per_key(tbl: pa.Table, key_col: str) -> pa.Table:
    """Deterministic representative row per key (min sort order)."""
    if tbl.num_rows == 0:
        return tbl
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.concatenate([[0], np.nonzero(sk[1:] != sk[:-1])[0] + 1])
    return tbl.take(pa.array(order[starts]))


@ray.remote
def _distinct_split(block, key_col: str, k: int):
    tbl = _checked(block, key_col)
    if tbl is None or tbl.num_rows == 0:
        return _fan([_tbl(block)] * k)
    tbl = _first_per_key(tbl, key_col)
    return _take_parts(tbl, (_hash_codes(tbl, key_col) % np.uint64(k)).astype(np.int64), k)


@ray.remote
def _distinct_reduce(key_col: str, *shards) -> pa.Table:
    nonempty = [s for s in shards if s.num_rows]
    if not nonempty:
        for s in shards:  # typed empty keeps the input schema visible
            if s.num_columns:
                return s
        return _EMPTY_SENTINEL
    return _first_per_key(pa.concat_tables(nonempty).combine_chunks(), key_col)


_EMPTY_SENTINEL = pa.table({})


# k selection: one partition per CPU, floored for tiny inputs (a
# 10k-row shuffle doesn't need 32 reducers).  A/B at 2.2M-edge build
# scale: k = CPUs -> 14s, k capped by a 250k-row volume target -> 25s —
# the reduce-side sorts parallelize, so more reducers win until the
# data is genuinely tiny.  NOT capped by the input block count: an
# upstream that emitted 2 big blocks must not serialize the reduce side
# (map-side parallelism is restored separately by slicing oversized
# blocks, see _sliced).
_PARTITION_FLOOR_ROWS = 50_000
# Slice pieces are chunkier than reduce partitions: a map-split task is
# cheap per row, so ~250k-row pieces amortize task/serialization
# overhead while still restoring parallelism for few-big-block inputs.
_SLICE_TARGET_ROWS = 250_000


def _tbl(block) -> pa.Table:
    """Raw-block tasks receive whatever block format the upstream
    Dataset holds; ``from_pandas``-built inputs ship pandas blocks."""
    if isinstance(block, pd.DataFrame):
        return pa.Table.from_pandas(block, preserve_index=False)
    return block


def _checked(block, *cols) -> pa.Table | None:
    """``block`` as an Arrow table, or None when it lacks one of
    ``cols`` (None entries skipped) — which only a zero-row, schema-less
    block may.  A block with rows that lacks a key or weight column is
    a caller bug (misspelled / upstream-renamed column) and raises,
    rather than quietly exchanging to an empty or unsplit result."""
    tbl = _tbl(block)
    missing = [c for c in cols if c is not None and c not in tbl.column_names]
    if not missing:
        return tbl
    if tbl.num_rows:
        raise KeyError(
            f"exchange input block is missing column(s) {missing}; "
            f"block has {tbl.column_names}"
        )
    return None


def _np(tbl: pa.Table | None, col: str, dtype) -> np.ndarray:
    """One column as a ``dtype`` array; empty for a schema-less block."""
    if tbl is None:
        return np.zeros(0, dtype)
    return tbl[col].to_numpy(zero_copy_only=False).astype(dtype)


def _parts(part: np.ndarray, k: int) -> list:
    """Row indices of each of the k partitions (``part`` holds each
    row's partition id in [0, k)), input order kept within each."""
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(k + 1))
    return [order[bounds[t] : bounds[t + 1]] for t in range(k)]


def _fan(outs: list):
    """A split's return value: one object per partition, or the single
    object itself at k == 1 (a one-return task stores it as is)."""
    return tuple(outs) if len(outs) > 1 else outs[0]


def _take_parts(tbl: pa.Table, part: np.ndarray, k: int):
    return _fan([tbl.take(pa.array(i)) for i in _parts(part, k)])


def _launch(split, k: int, *args) -> list:
    """Submit ``split(*args, k)``; returns its k partition refs."""
    refs = split.options(num_returns=k).remote(*args, k)
    return list(refs) if k > 1 else [refs]


def _reducers(reduce, args: tuple, splits: list, k: int) -> list:
    """One ``reduce(*args, *shards)`` task per partition t, fed the t-th
    object of every split."""
    return [reduce.remote(*args, *[s[t] for s in splits]) for t in range(k)]


@ray.remote
def _block_rows(tbl) -> int:
    return len(tbl) if isinstance(tbl, pd.DataFrame) else tbl.num_rows


def _row_counts(refs: list) -> list:
    """Row count per block ref — no table bytes reach the driver."""
    return ray.get([_block_rows.remote(r) for r in refs])


def _nonempty(refs: list) -> list:
    """(ref, rows) of the refs with rows."""
    return [(r, c) for r, c in zip(refs, _row_counts(refs)) if c]


def _cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 8))


def _k_for(rows: int, cpus: int) -> int:
    return max(1, min(cpus, rows // _PARTITION_FLOOR_ROWS))


def _blocks(ds):
    """(block ref, row count) per block, as the streaming executor
    produces them.  Unknown metadata must not read as "tiny": a
    multi-million-row block counted as 0 would collapse k to 1 and skip
    the slicing, so its count is fetched."""
    for bundle in ds.iter_internal_ref_bundles():
        for bref, meta in bundle.blocks:
            rows = meta.num_rows
            if rows is None:
                rows = _row_counts([bref])[0]
            yield bref, rows


@ray.remote
def _slice_block(tbl: pa.Table, n: int):
    """Cut one block into n > 1 zero-copy slices.  Ray's Arrow serializer
    truncates sliced buffers on serialization (verified: a 1k-row slice
    of a 1M-row table ships ~15KB, not the full backing buffer), so the
    pieces leave this task at their logical size."""
    tbl = _tbl(tbl)
    step = -(-tbl.num_rows // n)
    return tuple(tbl.slice(i * step, step) for i in range(n))


def _sliced(bref, rows: int, cpus: int) -> list:
    """Fan an oversized block into ~_SLICE_TARGET_ROWS-row piece
    refs so map-side exchange parallelism doesn't collapse when the
    upstream emitted a few large blocks (e.g. a 1M-row transcript read
    coalesced into 2 x 128MB blocks).  Small blocks pass through."""
    n = min(cpus, max(1, int(rows or 0) // _SLICE_TARGET_ROWS))
    if n <= 1:
        return [bref]
    return list(_slice_block.options(num_returns=n).remote(bref, n))


def _launch_buffered(buffered: list, split, args: tuple, k: int, cpus: int) -> list:
    """Split tasks for ``(block ref, rows)`` pairs, oversized ones sliced."""
    return [
        _launch(split, k, piece, *args)
        for bref, rows in buffered
        for piece in _sliced(bref, rows, cpus)
    ]


def _splits_or_buffer(blocks, split, args: tuple, k: int | None):
    """Consume (block ref, rows) pairs AS THEY COME — from a Dataset,
    as the streaming executor produces them — and launch ``split`` on
    each: the input is never pinned whole
    in the object store (each block ref is dropped as soon as its split
    task holds it; what stays pinned are the column-pruned /
    pre-aggregated partitions).

    ``k`` selection needs no second pass: with no explicit ``k``, blocks
    are buffered until the row volume crosses CPUs x
    _PARTITION_FLOOR_ROWS (then k = CPUs and everything streams).  If
    the stream ends first, the input is returned UN-launched so the
    caller can pick k from its volume — or from another stream's too
    (hash_join sizes the exchange by the larger side).

    Returns ``(splits, k, buffered, rows_seen)``: ``k`` is None iff the
    input stayed buffered (then ``buffered`` holds its ``(block_ref,
    rows)`` pairs)."""
    cpus = _cpus()
    splits, buffered, rows_seen = [], [], 0
    for bref, rows in blocks:
        rows_seen += rows
        buffered.append((bref, rows))
        if k is None and rows_seen >= cpus * _PARTITION_FLOOR_ROWS:
            k = cpus
        if k is not None:
            splits += _launch_buffered(buffered, split, args, k, cpus)
            buffered = []
    return splits, k, buffered, rows_seen


def _exchange(blocks, split, split_args: tuple, reduce, reduce_args: tuple, k=None) -> list:
    """The exchange skeleton: stream the (block ref, rows) pairs
    ``blocks`` through ``split`` (k partitions per block, k
    row-proportional for a small input) and return the k ``reduce``
    output refs — none for an input with no blocks."""
    splits, k, buffered, rows_seen = _splits_or_buffer(blocks, split, split_args, k)
    if k is None:
        cpus = _cpus()
        k = _k_for(rows_seen, cpus)
        splits += _launch_buffered(buffered, split, split_args, k, cpus)
    return _reducers(reduce, reduce_args, splits, k) if splits else []


def hash_distinct(
    ds: "rd.Dataset", key_col: str, num_partitions: int | None = None
) -> "rd.Dataset":
    """Exact first-wins dedup by key (A10): per-block pre-dedup ->
    hash exchange -> per-partition dedup.  Deterministic representative
    = min row in key sort order.  Replaces ``groupby(key).aggregate``
    (measured order-of-magnitude slower for this shape).  Consumes its
    input streaming; empty output partitions are dropped by a
    row-count-only probe (no table bytes reach the driver)."""
    out = hash_distinct_refs(_blocks(ds), key_col, num_partitions)
    return rd.from_arrow_refs([r for r, _ in out]) if out else ds


def hash_distinct_refs(blocks, key_col: str, num_partitions: int | None = None) -> list:
    """The ref-list entry of :func:`hash_distinct`: ``blocks`` are
    (block ref, rows) pairs; returns (ref, rows) of the nonempty
    outputs — one typed-empty output when all are empty, none for no
    blocks."""
    outs = _exchange(
        blocks, _distinct_split, (key_col,), _distinct_reduce, (key_col,), num_partitions
    )
    # one typed-empty reduce output preserves the input schema
    return _nonempty(outs) or [(r, 0) for r in outs[:1]]


@ray.remote
def _sample_keys(block, key_col: str, every: int) -> np.ndarray:
    tbl = _checked(block, key_col)
    if tbl is None or tbl.num_rows == 0:
        return np.zeros(0, dtype=object)
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    return keys[:: max(1, every)]


@ray.remote
def _range_split(block, key_col: str, cuts: np.ndarray, k: int):
    tbl = _checked(block, key_col)
    if tbl is None or tbl.num_rows == 0:
        return _fan([_tbl(block)] * k)
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    return _take_parts(tbl, np.searchsorted(cuts, keys, side="right"), k)


@ray.remote
def _range_reduce(key_col: str, *shards) -> pa.Table:
    shards = [s for s in shards if s.num_rows]
    if not shards:
        return _EMPTY_SENTINEL
    tbl = pa.concat_tables(shards).combine_chunks()
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    return tbl.take(pa.array(np.argsort(keys, kind="stable")))


def range_sort(
    ds: "rd.Dataset", key_col: str, num_partitions: int | None = None
) -> "rd.Dataset":
    """Global sort by one key column: deterministic sample -> range cut
    values -> range exchange -> per-partition sort; output blocks are
    globally ordered (block i's keys <= block i+1's).  Replaces
    ``Dataset.sort`` for the adjacency/vertex layout passes.

    Needs two passes over the blocks (sample, then split), so unlike
    the hash exchanges the input refs are held; oversized blocks are
    still sliced so both passes parallelize past the upstream's block
    layout."""
    out = range_sort_refs(_blocks(ds), key_col, num_partitions)
    return rd.from_arrow_refs([r for r, _ in out]) if out else ds


def range_sort_refs(blocks, key_col: str, num_partitions: int | None = None) -> list:
    """The ref-list entry of :func:`range_sort`: ``blocks`` are (block
    ref, rows) pairs; returns (ref, rows) of the nonempty sorted
    outputs in key order — none when no block has rows."""
    cpus = _cpus()
    refs, rows_seen = [], 0
    for bref, rows in blocks:
        rows_seen += rows
        refs += _sliced(bref, rows, cpus)
    if not refs:
        return []
    k = _k_for(rows_seen, cpus) if num_partitions is None else num_partitions
    samples = np.concatenate(
        ray.get([_sample_keys.remote(r, key_col, 97) for r in refs])
    )
    if len(samples) == 0:
        return []
    samples = np.sort(samples, kind="stable")
    cuts = samples[(np.arange(1, k) * len(samples)) // k]
    splits = [_launch(_range_split, k, r, key_col, cuts) for r in refs]
    del refs
    # duplicate cuts under key skew guarantee empty partitions whose
    # zero-column sentinel would break downstream schema unification
    # (assign_dense_ids emits id-only blocks for them) — drop them
    return _nonempty(_reducers(_range_reduce, (key_col,), splits, k))


@ray.remote
def _join_reduce(key_col: str, how: str, n_left: int, *shards) -> pa.Table:
    def _typed_empty(side_shards, other_df):
        """Schema-stable empty frame for a rowless side: any typed shard
        carries the side's schema (output columns must not depend on
        which bucket a key hashed into); last resort is the key column
        alone, typed off the populated side."""
        typed = next(
            (
                sh
                for sh in side_shards
                if sh.num_columns and key_col in sh.column_names
            ),
            None,
        )
        if typed is not None:
            return typed.to_pandas()
        return pd.DataFrame({key_col: pd.Series([], dtype=other_df[key_col].dtype)})

    left = [s.to_pandas() for s in shards[:n_left] if s.num_rows]
    right = [s.to_pandas() for s in shards[n_left:] if s.num_rows]
    if not left and not right:
        return _EMPTY_SENTINEL
    if not left:
        if how != "outer":
            return _EMPTY_SENTINEL
        # FULL OUTER with an empty-left bucket: right rows survive with
        # NULL left columns
        rf = pd.concat(right, ignore_index=True)
        out = _typed_empty(shards[:n_left], rf).merge(rf, on=key_col, how="outer")
        return pa.Table.from_pandas(out, preserve_index=False)
    if how == "inner" and not right:
        return _EMPTY_SENTINEL
    lf = pd.concat(left, ignore_index=True)
    if how in ("leftanti", "leftsemi"):
        if right:
            seen = pd.concat(right, ignore_index=True)[key_col]
            m = lf[key_col].isin(seen)
            lf = lf[m if how == "leftsemi" else ~m]
        elif how == "leftsemi":
            return _EMPTY_SENTINEL
        return pa.Table.from_pandas(lf, preserve_index=False)
    if right:
        rf = pd.concat(right, ignore_index=True)
    else:
        # an empty right bucket must not drop the right-side columns
        # from a how='left'/'outer' output (schema would then depend on
        # data distribution); empty shards still carry the right schema
        rf = _typed_empty(shards[n_left:], lf)
    out = lf.merge(rf, on=key_col, how=how)
    return pa.Table.from_pandas(out, preserve_index=False)


@ray.remote
def _plain_split(block, key_col: str, k: int):
    tbl = _checked(block, key_col)
    if tbl is None or tbl.num_rows == 0:
        return _fan([_tbl(block)] * k)
    return _take_parts(tbl, (_hash_codes(tbl, key_col) % np.uint64(k)).astype(np.int64), k)


def hash_join(
    left: "rd.Dataset",
    right: "rd.Dataset",
    key_col: str,
    how: str = "inner",
    num_partitions: int | None = None,
) -> "rd.Dataset":
    """Bucketed hash join of two Datasets on one key column: both sides
    split by the same key hash, matching buckets merge pairwise with a
    pandas hash join (the guide's portable partitioned-join pattern;
    neither side is materialized on the driver).  ``how`` is "inner",
    "left", "outer" (FULL OUTER — unmatched rows of BOTH sides survive
    with NULL other-side columns), "leftsemi" (left rows whose key HAS
    a right match, right columns dropped — the EXISTS shape), or
    "leftanti" (left rows whose key has no right match — the J3
    anti-join shape).  Map-side combiners do not apply — rows pass
    through; skewed join keys inherit the key's hash bucket, so salt
    upstream when a single key dominates.  Both sides are consumed
    streaming; ``k`` tracks the LARGER side's volume (a small insert
    batch anti-joined against a multi-million-row store must not
    collapse the store side into one reduce task), via deferred launch
    of a small side's buffered blocks."""
    cpus = _cpus()
    args = (key_col,)
    ls, l_k, l_buf, l_rows = _splits_or_buffer(_blocks(left), _plain_split, args, num_partitions)
    if not ls and not l_buf:
        # degenerate fully-empty left: FULL OUTER degrades to the right
        # side (no left schema exists to project NULL columns from)
        return right if how == "outer" else left
    rs, r_k, r_buf, r_rows = _splits_or_buffer(_blocks(right), _plain_split, args, l_k)
    if l_k is not None:
        k = l_k
    elif r_k is not None:  # left small, right big: right's k (== cpus)
        k = r_k
    else:  # both sides small and fully buffered: larger side's volume
        k = _k_for(max(l_rows, r_rows), cpus)
    ls += _launch_buffered(l_buf, _plain_split, args, k, cpus)
    rs += _launch_buffered(r_buf, _plain_split, args, k, cpus)
    outs = _reducers(_join_reduce, (key_col, how, len(ls)), ls + rs, k)
    return rd.from_arrow_refs(outs)


@ray.remote
def _grouped_pairs_reduce(
    group_col: str, val_col: str, mode: str, include_group: bool, *shards
) -> pa.Table:
    from ..functions.pairs import segment_pairs

    shards = [s for s in shards if s.num_rows]
    if not shards:
        return _EMPTY_SENTINEL
    tbl = pa.concat_tables(shards).combine_chunks()
    g = tbl[group_col].to_numpy(zero_copy_only=False)
    v = tbl[val_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((v, g))
    g, v = g[order], v[order]
    starts = np.concatenate([[0], np.nonzero(g[1:] != g[:-1])[0] + 1]).astype(np.int64)
    offsets = np.concatenate([starts, [len(g)]])
    # expand on indices so the group value rides along for free
    ia, ib = segment_pairs(np.arange(len(v), dtype=np.int64), offsets, mode=mode)
    typ = tbl[val_col].type
    cols = {"a": pa.array(v[ia], type=typ), "b": pa.array(v[ib], type=typ)}
    if include_group:
        cols["g"] = pa.array(g[ia], type=tbl[group_col].type)
    return pa.table(cols)


def grouped_pairs(
    ds: "rd.Dataset",
    group_col: str,
    val_col: str,
    mode: str = "lt",
    include_group: bool = False,
) -> "rd.Dataset":
    """Within-group pair expansion, layout-independent: rows are
    hash-exchanged by ``group_col`` (so a group never straddles
    reducers regardless of upstream block layout), then each reducer
    expands pairs with the vectorized segment kernel.  ``mode`` as in
    :func:`hipporag_ray.functions.pairs.segment_pairs`;
    ``include_group`` adds the group value as column ``g``.  Streaming
    input consumption."""
    outs = _exchange(
        _blocks(ds),
        _plain_split,
        (group_col,),
        _grouped_pairs_reduce,
        (group_col, val_col, mode, include_group),
    )
    return rd.from_arrow_refs(outs) if outs else ds


@ray.remote
def _concat_reduce(*shards) -> pa.Table:
    shards = [s for s in shards if s.num_rows]
    if not shards:
        return _EMPTY_SENTINEL
    return pa.concat_tables(shards).combine_chunks()


def hash_partition(
    ds: "rd.Dataset", key_col: str, num_partitions: int | None = None
) -> "rd.Dataset":
    """Hash-exchange rows by ``key_col`` so every key's rows land in ONE
    output block — the layout guarantee that lets a downstream
    ``map_batches(..., batch_size=None)`` run key-complete vectorized
    kernels (sessionization, as-of joins) without per-group Python
    dispatch.  Streaming input consumption."""
    outs = _exchange(_blocks(ds), _plain_split, (key_col,), _concat_reduce, (), num_partitions)
    return rd.from_arrow_refs(outs) if outs else ds


def int_key_sum(ds: "rd.Dataset", key_col: str, weight_col: str) -> "rd.Dataset":
    """groupby(key_col).sum(weight_col) for an int64 key column; returns
    a Dataset with columns (key_col, weight_col).  Consumes its input
    streaming: map-side pre-aggregation launches per block as the
    upstream produces it, so the raw partial table is never pinned
    whole in the object store — only the combined shards are."""
    outs = int_key_sum_refs(_blocks(ds), key_col, weight_col)
    if not outs:
        # zero blocks: emit the typed AGGREGATE schema, not the input's
        # (consumers select (key, weight) unconditionally)
        empty = _typed_empty_agg(ds, [key_col], weight_col, weight_col, "sum")
        return empty if empty is not None else ds
    return rd.from_arrow_refs(outs)


def int_key_sum_refs(blocks, key_col: str, weight_col: str) -> list:
    """The ref-list entry of :func:`int_key_sum`: ``blocks`` are (block
    ref, rows) pairs; returns the k reduce output refs (none for no
    blocks)."""
    cols = (key_col, weight_col)
    return _exchange(blocks, _map_split, cols, _reduce, cols)
