"""EmbeddingStore: namespaced (hash_id, content, embedding) parquet
tables with idempotent insert.

Re-expression of the reference's EmbeddingStore
(/root/reference/src/hipporag/embedding_store.py):

* rows keyed ``prefix + md5(content)`` (embedding_store.py:44-61),
* ``insert_strings`` embeds only keys not yet present — a key probe
  of the stored hash_id column (embedding_store.py:63-90, J3;
  state/parts.py) — and is therefore idempotent and incremental,
* storage is parquet with ``embedding: list<float32>``
  (embedding_store.py:109-115).

Differences by design: instead of rewriting one parquet file per
upsert, each insert appends a new part file (resumable layout —
``write_parquet`` directory semantics); reads stream as a Ray Dataset
rather than materializing aligned lists + four dicts
(embedding_store.py:92-107) — point lookups become joins or broadcast
dict reads at the call site.

The default embedder is :class:`HashEmbedder` — a deterministic
content-hash embedding (seeded Gaussian per token, mean-pooled,
L2-normalized) standing in for the reference's model zoo (T1,
embedding_model/*.py); it keeps every similarity operator exercisable
and bit-reproducible without model weights.  Real model classes slot
into the same actor-pool ``map_batches`` stage.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray as _ray
import ray.data as rd

from ..functions.hashing import md5_hex, stable_hash64
from ..functions import pool_size
from ..functions.text import text_processing


from ..functions.hashing import splitmix64 as _splitmix64

# mixing constants for the per-dimension base hash (the finalizer
# itself is the shared functions.hashing.splitmix64; ONE definition of
# the constants lives there too)
from ..functions.hashing import _SM_GOLD as _GOLD
from ..functions.hashing import _SM_M1 as _SM1
from ..functions.hashing import _SM_M2 as _SM2


def embedder_defaults(cls: type, kwargs: dict | None, dim: int) -> dict:
    """Constructor kwargs for an embedder class: the ``{"dim": dim}``
    default applies ONLY to HashEmbedder (whose signature takes it) —
    injecting it into an arbitrary model-backed class raised TypeError
    inside the Ray actor; an explicitly-passed ``{}`` stays empty (the
    old falsy-``or`` turned it back into the dim default)."""
    if kwargs is not None:
        return dict(kwargs)
    return {"dim": dim} if cls is HashEmbedder else {}


class HashEmbedder:
    """Deterministic per-token hash embedding, sum-pooled + L2-normalized.

    Stateful stage (T1 analog): per-actor token-vector cache plays the
    reference's EmbeddingCache role (embedding_model/base.py:222-248);
    ``__call__`` embeds a batch.  Synonymous normalized strings embed
    identically, so synonymy-edge semantics (HippoRAG.py:859-882) are
    exercised end-to-end.

    Token vectors are standard-normal-ish via a fully vectorized
    hash -> splitmix64 -> Box-Muller kernel over the batch's *unique*
    tokens — the per-token ``np.random.Generator`` construction this
    replaces measured ~2k rows/s/core and was the indexing wall.

    ``STATELESS = True``: no per-actor setup, so the store runs it
    task-based on warm workers (pool launch latency was the measured
    cost of every ``insert_strings`` call).  Real model classes leave
    this False and get the actor pool.
    """

    STATELESS = True

    def __init__(self, dim: int = 64, seed: int = 17, text_col: str = "content"):
        self.dim = dim
        self.seed = np.uint64(seed)
        self.text_col = text_col

    def _token_vecs(self, tokens: np.ndarray) -> np.ndarray:
        """(T, dim) deterministic Gaussian-ish vectors for unique tokens."""
        h = stable_hash64(tokens) ^ self.seed  # (T,)
        d = np.arange(self.dim, dtype=np.uint64)
        with np.errstate(over="ignore"):
            base = h[:, None] * _GOLD + d[None, :] * _SM1
            z1 = _splitmix64(base)
            z2 = _splitmix64(base ^ _SM2)
        # 53-bit uniforms in (0, 1]; Box-Muller to normals
        u1 = ((z1 >> np.uint64(11)).astype(np.float64) + 1.0) / 2.0**53
        u2 = (z2 >> np.uint64(11)).astype(np.float64) / 2.0**53
        # float32 token vectors: halves the per-batch gather volume and
        # matches the stored embedding dtype
        return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).astype(
            np.float32
        )

    def embed(self, texts) -> np.ndarray:
        """Batch-embed; ``texts`` is a list of str or an Arrow string array.

        Tokenization is a single Arrow whitespace split (Python
        ``str.split()`` semantics: runs collapse, all-whitespace rows
        fall back to the raw text as one token); pooling is one
        ``np.add.reduceat`` over the gathered unique-token matrix.  No
        per-row Python and no cross-batch token cache — recomputing the
        splitmix64 kernel over a batch's unique vocab is cheaper than
        dict upkeep and keeps actor memory flat.
        """
        import pyarrow.compute as pc

        if isinstance(texts, pa.ChunkedArray):
            arr = texts.combine_chunks()
        elif isinstance(texts, pa.Array):
            arr = texts
        else:
            arr = pa.array([t if t is not None else "" for t in texts], pa.string())
        if arr.null_count:
            arr = pc.fill_null(arr, "")
        n = len(arr)
        if n == 0:
            return np.zeros((0, self.dim), dtype=np.float32)
        toks = pc.utf8_split_whitespace(arr)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts0 = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        row_id = np.repeat(np.arange(n, dtype=np.int64), counts0)
        # the Arrow split emits "" for leading/trailing/multiple spaces
        nonempty = flat != ""
        token_row = row_id[nonempty]
        token_val = flat[nonempty]
        counts = np.bincount(token_row, minlength=n)
        empty_rows = np.flatnonzero(counts == 0)
        if len(empty_rows):  # str.split() fallback: whole text as one token
            texts_np = arr.to_numpy(zero_copy_only=False)
            token_row = np.concatenate([token_row, empty_rows])
            token_val = np.concatenate([token_val, texts_np[empty_rows]])
            order = np.argsort(token_row, kind="stable")
            token_row = token_row[order]
            token_val = token_val[order]
            counts = np.bincount(token_row, minlength=n)
        uniq, inv = np.unique(token_val, return_inverse=True)
        mat = self._token_vecs(uniq)  # (U, dim) float32
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        sums = np.add.reduceat(mat[inv], offsets, axis=0, dtype=np.float64)
        norms = np.linalg.norm(sums, axis=1, keepdims=True)
        return (sums / np.maximum(norms, 1e-300)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = self.embed(text_processing(batch[self.text_col]))
        return batch.append_column(
            "embedding", pa.array(list(emb), type=pa.list_(pa.float32()))
        )


class CharFreqEmbedder:
    """Second reference implementation of the T1 embedder plug-point
    (deliberately different math from HashEmbedder): character-frequency
    vectors, L2-normalized.  Shows the contract a real model class must
    satisfy — ``__init__(**kwargs, text_col=...)`` (model load, once per
    actor), ``__call__(batch) -> batch + embedding`` (batched
    inference), ``embed(texts)`` (query-time encoding).  Both sides
    normalize with ``text_processing`` first — embedder classes MUST
    normalize consistently between store-time (``__call__``) and
    query-time (``embed``), or similarity silently skews."""

    STATELESS = True

    def __init__(self, dim: int = 32, text_col: str = "content"):
        self.dim = dim
        self.text_col = text_col

    def embed(self, texts) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, t in enumerate(texts):
            for ch in t or "":
                out[i, ord(ch) % self.dim] += 1.0
            n = np.linalg.norm(out[i])
            if n > 0:
                out[i] /= n
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = self.embed(text_processing(batch[self.text_col]).to_pylist())
        return batch.append_column(
            "embedding", pa.array(list(emb), type=pa.list_(pa.float32()))
        )


def _delete_rows_in_file(path: str, key_col: str, del_arr: np.ndarray) -> int:
    """Drop rows whose ``key_col`` is in ``del_arr`` (atomic rewrite);
    returns the number removed.  Shared per-part delete kernel."""
    from .parts import in_keys

    t = pq.read_table(path)
    mask = ~in_keys(t[key_col], del_arr)
    if mask.all():
        return 0
    tmp = path + ".tmp"
    pq.write_table(t.filter(pa.array(mask)), tmp)
    os.replace(tmp, path)
    return int((~mask).sum())


@_ray.remote
def _delete_from_part(path: str, del_arr) -> int:
    return _delete_rows_in_file(path, "hash_id", del_arr)


class EmbeddingStore:
    """One namespace ('chunk' | 'entity' | 'fact') of embedded rows.

    ``embedder_cls`` is the T1 plug-point (the reference's model zoo,
    embedding_model/*.py): any callable class whose ``__init__`` takes
    the given kwargs plus ``text_col`` and whose ``__call__`` maps an
    Arrow batch to the same batch with an ``embedding`` list column.
    Model load happens once per actor; ``num_gpus``/``embed_batch_size``
    size the pool for real models (reference batch 16/64,
    config_utils.py:128-131)."""

    def __init__(
        self,
        working_dir: str,
        namespace: str,
        dim: int = 64,
        embedder_cls: type | None = None,
        embedder_kwargs: dict | None = None,
        num_gpus: float = 0.0,
        embed_batch_size: int | None = None,
    ):
        self.dir = os.path.join(working_dir, f"vdb_{namespace}")
        self.namespace = namespace
        self.prefix = f"{namespace}-"
        self.dim = dim
        self.embedder_cls = embedder_cls or HashEmbedder
        self.embedder_kwargs = embedder_defaults(
            self.embedder_cls, embedder_kwargs, dim
        )
        self.num_gpus = num_gpus
        self.embed_batch_size = embed_batch_size
        os.makedirs(self.dir, exist_ok=True)

    def _parts(self) -> list[str]:
        from .parts import walk_parts

        return walk_parts(self.dir)

    def count(self) -> int:
        return sum(pq.ParquetFile(p).metadata.num_rows for p in self._parts())

    def dataset(self) -> "rd.Dataset":
        parts = self._parts()
        if not parts:
            return rd.from_arrow(
                pa.table(
                    {
                        "hash_id": pa.array([], pa.string()),
                        "content": pa.array([], pa.string()),
                        "embedding": pa.array([], pa.list_(pa.float32())),
                    }
                )
            )
        return rd.read_parquet(parts)

    def existing_ids(self) -> set[str]:
        """Driver-side key set — only for small-result call sites (the
        delete fixpoint); inserts use the key probe below."""
        ids: set[str] = set()
        for p in self._parts():
            ids.update(pq.read_table(p, columns=["hash_id"])["hash_id"].to_pylist())
        return ids

    def insert_strings(self, ds: "rd.Dataset", content_col: str = "content") -> int:
        """Embed & persist rows whose md5 key is not yet stored (J3,
        embedding_store.py:63-90): the keyed rows are materialized once,
        a key probe finds which of their keys the stored parts hold
        (state/parts.py; the stored keys never reach the driver), and
        the first row of every other key is embedded and written.
        Returns the number of new rows written.

        A thin adapter over :meth:`write_rows` for callers that hold the
        rows as a Dataset; the engine's ``index()`` probes and writes
        from its delta table instead."""
        from .parts import block_columns, new_rows

        prefix = self.prefix

        def keyed(batch: pa.Table) -> pa.Table:
            content = batch[content_col]
            return pa.table(
                {"hash_id": md5_hex(content, prefix=prefix), "content": content}
            )

        refs = ds.map_batches(keyed, batch_format="pyarrow").materialize().to_arrow_refs()
        keys = [
            t["hash_id"].to_numpy(zero_copy_only=False)
            for t in block_columns(refs, ["hash_id"])
        ]
        idx = new_rows(keys, self._parts(), "hash_id")
        return self.write_rows(refs, idx, {"hash_id": "hash_id", "content": "content"})

    def write_rows(self, refs: list, idx: list[np.ndarray], columns: dict) -> int:
        """Embed & persist rows ``idx[b]`` of each materialized block
        ``refs[b]`` — rows whose keys a probe found new (see
        ``insert_strings``).  ``columns`` maps the stored (hash_id,
        content) columns to the block's.  One ``map_batches(embedder)
        -> write_parquet``; the row count is known before embedding.
        Returns the number of rows written."""
        from .parts import next_batch_dir, take_rows

        n_new = sum(len(i) for i in idx)
        if n_new == 0:
            return 0
        # pieces of at least one embed batch, ~two per CPU: the new rows
        # of a big insert sit in few blocks, map_batches parallelizes
        # over blocks, and every block becomes a part file that later
        # probes read.  Stateless embedders (no model load) run
        # task-based on warm workers: actor-pool launch latency was the
        # dominant cost of small/medium inserts
        bsz = self.embed_batch_size or 512
        cpus = int(_ray.cluster_resources().get("CPU", 1))
        rows = max(bsz, -(-n_new // (2 * max(cpus, 1))))
        new = rd.from_arrow_refs(take_rows(refs, idx, columns, rows))
        if getattr(self.embedder_cls, "STATELESS", False) and self.num_gpus == 0:
            embedded = new.map_batches(
                self.embedder_cls(**{**self.embedder_kwargs, "text_col": "content"}),
                batch_format="pyarrow",
                batch_size=bsz,
            )
        else:
            embed_opts = {}
            if self.num_gpus > 0:
                embed_opts["num_gpus"] = self.num_gpus
            embedded = new.map_batches(
                self.embedder_cls,
                fn_constructor_kwargs={**self.embedder_kwargs, "text_col": "content"},
                batch_format="pyarrow",
                batch_size=bsz,
                concurrency=pool_size(),
                **embed_opts,
            )
        # streamed append: one subdirectory of parts per insert call
        embedded.write_parquet(next_batch_dir(self.dir))
        return n_new

    def delete(self, hash_ids: set[str]) -> int:
        """Remove rows by key — one Ray task per part file (rewrites
        only parts that contain deleted keys, atomically)."""
        import ray

        del_ref = ray.put(np.array(sorted(hash_ids), dtype=object))
        return int(
            sum(ray.get([_delete_from_part.remote(p, del_ref) for p in self._parts()]))
        )
