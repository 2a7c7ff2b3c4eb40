"""Similarity search over an embedding column (list<float>).

``knn_topk`` is the Ray-Data re-expression of the reference's blocked
dense top-k similarity join ``retrieve_knn``
(/root/reference/src/hipporag/utils/embed_utils.py:6-94): the query
matrix is broadcast once (``ray.put``) and every key batch computes one
tile (numpy matmul) and its per-tile top-k; tile top-ks merge in a
final (tiny) reduction — the two-level topk of embed_utils.py:55-75.

``lsh_ann_topk`` is the scale path: seeded random-hyperplane buckets
prune the candidate set before the exact kernel; recall < 1 by design
(approximate), rerank is exact cosine.

``ivf_ann_topk`` is the second scale path (IVF): a deterministic
coarse quantizer (k-means-style centroids trained on a seeded sample
with fixed Lloyd iterations) partitions the keys into cells; each
query scores only its ``n_probe`` nearest cells, exact cosine rerank
within them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd



def topk_tie_rows(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k candidate indices INCLUDING boundary ties: bare
    argpartition picks arbitrary members of a tied boundary, which
    would make a per-block top-k depend on block layout (the two-level
    merge then diverges from a global sort —
    GraphShard.topk_chunk_scores_batch keeps the same contract).  Returns (row_idx, col_idx) of every
    candidate with sims >= the row's k-th largest value."""
    nq, nr = sims.shape
    kk = min(k, nr)
    if kk >= nr:
        return np.repeat(np.arange(nq), nr), np.tile(np.arange(nr), nq)
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    kth = sims[np.arange(nq)[:, None], part].min(axis=1)
    rows, cols = np.nonzero(sims >= kth[:, None])
    return rows, cols


def _topk_tie_1d(sims: np.ndarray, k: int) -> np.ndarray:
    rows, cols = topk_tie_rows(sims[None, :], k)
    return cols


def _norm_rows(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _merge_topk(
    partial: pd.DataFrame, k: int, excl: set, id_col: str
) -> pd.DataFrame:
    """The shared final merge of every top-k entry point: drop excluded
    ids, order (score desc, id asc — the deterministic tie contract),
    keep k per query.  ONE definition so a tie/exclusion fix cannot
    drift between knn/ivf/lsh."""
    if excl:
        partial = partial[~partial[id_col].isin(excl)]
    partial = partial.sort_values(
        ["query_idx", "score", id_col], ascending=[True, False, True]
    )
    return partial.groupby("query_idx", as_index=False).head(k).reset_index(drop=True)


def knn_topk(
    ds: "rd.Dataset",
    query_vecs: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    metric: str = "cosine",
    exclude_ids: set | None = None,
) -> pd.DataFrame:
    """Brute-force top-k: returns (query_idx, id, score) rows,
    k per query, ordered by score desc then id asc (deterministic).
    ``metric``: 'cosine' (normalized) or 'dot' (raw inner product) —
    anything else raises rather than silently scoring a raw dot
    product under the requested metric's name."""
    if metric not in ("cosine", "dot"):
        raise ValueError(f"unsupported metric {metric!r} (use 'cosine' or 'dot')")
    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    if metric == "cosine":
        q = _norm_rows(q)
    q_ref = ray.put(q)
    excl = exclude_ids or set()

    def tile(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        if metric == "cosine":
            m = _norm_rows(m)
        sims = qm @ m.T  # (Q, B)
        rows, flat = topk_tie_rows(sims, k + len(excl))
        return pa.table(
            {
                "query_idx": pa.array(rows, type=pa.int64()),
                id_col: pa.array(ids[flat]),
                "score": pa.array(sims[rows, flat], type=pa.float64()),
            }
        )

    partial = ds.map_batches(tile, batch_format="pyarrow").to_pandas()
    # final top-k merge (small: tiles x k rows)
    return _merge_topk(partial, k, excl, id_col)


def train_ivf_centroids(
    ds: "rd.Dataset",
    n_centroids: int = 16,
    emb_col: str = "embedding",
    sample_rows: int = 4096,
    iters: int = 5,
    seed: int = 11,
) -> np.ndarray:
    """Deterministic coarse quantizer: seeded sample (first blocks up
    to ``sample_rows``) + fixed-iteration Lloyd k-means on normalized
    vectors.  Centroid training is sample-sized, never corpus-sized."""
    sample = ds.limit(sample_rows).to_pandas()
    if sample.empty or emb_col not in sample.columns:
        # empty training set: no cells — callers get the empty-result
        # path instead of an opaque np.stack crash
        return np.zeros((0, 1), dtype=np.float64)
    m = _norm_rows(np.stack(sample[emb_col].to_numpy()).astype(np.float64))
    rng = np.random.default_rng(seed)
    k = min(n_centroids, len(m))
    cents = m[rng.choice(len(m), size=k, replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cents.T, axis=1)
        for c in range(k):
            rows = m[assign == c]
            if len(rows):
                cents[c] = rows.mean(axis=0)
        cents = _norm_rows(cents)
    return cents


def ivf_ann_topk(
    ds: "rd.Dataset",
    query_vecs: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 16,
    n_probe: int = 4,
    seed: int = 11,
    exclude_ids: set | None = None,
    centroids: np.ndarray | None = None,
) -> pd.DataFrame:
    """IVF approximate top-k: keys are assigned to their nearest
    centroid cell inside each tile (broadcast centroid matrix); a query
    scores only rows whose cell is among its ``n_probe`` closest cells
    — exact cosine within the probed cells, two-level top-k merge."""
    q = _norm_rows(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    if centroids is None:
        centroids = train_ivf_centroids(
            ds, n_centroids=n_centroids, emb_col=emb_col, seed=seed
        )
    if len(centroids) == 0:  # empty dataset: nothing to probe
        return pd.DataFrame(
            {
                "query_idx": pd.Series([], dtype="int64"),
                id_col: pd.Series([], dtype=object),
                "score": pd.Series([], dtype="float64"),
            }
        )
    probe = np.argsort(-(q @ centroids.T), axis=1)[:, :n_probe]  # (Q, P)
    state_ref = ray.put((q, centroids, probe))
    excl = exclude_ids or set()

    def tile(batch: pa.Table) -> pa.Table:
        qm, cents, prb = ray.get(state_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _norm_rows(
            np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        cell = np.argmax(m @ cents.T, axis=1)  # (B,)
        out_q, out_id, out_s = [], [], []
        for qi in range(qm.shape[0]):
            mask = np.isin(cell, prb[qi])
            if not mask.any():
                continue
            sims = qm[qi] @ m[mask].T
            sub_ids = ids[mask]
            idx = _topk_tie_1d(sims, k + len(excl))
            out_q.extend([qi] * len(idx))
            out_id.extend(sub_ids[idx])
            out_s.extend(sims[idx])
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int64()),
                id_col: pa.array(out_id, type=batch[id_col].type),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    partial = ds.map_batches(tile, batch_format="pyarrow").to_pandas()
    return _merge_topk(partial, k, excl, id_col)


class HyperplaneLsh:
    """Seeded random-hyperplane bucketer: embedding -> int bucket id."""

    def __init__(self, dim: int, n_bits: int = 8, seed: int = 13):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_bits))

    def bucket(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1).astype(np.int64)


def lsh_ann_topk(
    ds: "rd.Dataset",
    query_vecs: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_bits: int = 6,
    seed: int = 13,
    exclude_ids: set | None = None,
) -> pd.DataFrame:
    """Approximate top-k: only key rows in a query's hyperplane bucket
    are scored (exact cosine rerank within the bucket)."""
    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    dim = q.shape[1]
    lsh = HyperplaneLsh(dim, n_bits, seed)
    q_buckets = lsh.bucket(_norm_rows(q))
    q_ref = ray.put((_norm_rows(q), q_buckets))
    excl = exclude_ids or set()

    def tile(batch: pa.Table) -> pa.Table:
        qm, qb = ray.get(q_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _norm_rows(
            np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        kb = HyperplaneLsh(m.shape[1], n_bits, seed).bucket(m)
        out_q, out_id, out_s = [], [], []
        for qi in range(qm.shape[0]):
            mask = kb == qb[qi]
            if not mask.any():
                continue
            sims = qm[qi] @ m[mask].T
            sub_ids = ids[mask]
            idx = _topk_tie_1d(sims, k + len(excl))
            out_q.extend([qi] * len(idx))
            out_id.extend(sub_ids[idx])
            out_s.extend(sims[idx])
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int64()),
                id_col: pa.array(out_id, type=batch[id_col].type),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    partial = ds.map_batches(tile, batch_format="pyarrow").to_pandas()
    return _merge_topk(partial, k, excl, id_col)
