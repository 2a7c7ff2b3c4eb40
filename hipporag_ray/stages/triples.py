"""Deterministic triple (fact) substrate.

The reference's unit of knowledge is the OpenIE triple: per-chunk
(subject, predicate, object) string 3-tuples produced by an LLM
(/root/reference/src/hipporag/information_extraction/openie_openai.py:
135-210), validated/deduped by ``filter_invalid_triples``
(utils/llm_utils.py:222-255), stored under the ``fact-`` namespace as
``str(tuple)`` (HippoRAG.py:262-263), counted into fact-edge weights
per co-occurring triple (HippoRAG.py:756-775) and reverse-indexed
triple -> docs (HippoRAG.py:1212-1219, J5).

This module re-expresses that substrate with a *deterministic*
extractor standing in for the LLM: a triple is every consecutive
3-token window of the normalized text — (tok[i], tok[i+1], tok[i+2]) —
exact-deduped per chunk.  Valid-by-construction (always 3 elements),
so ``filter_invalid_triples`` semantics reduce to the per-chunk dedup,
realized here as one vectorized lexsort (canonical sorted order per
SURVEY.md §7.4 determinism note).

All transforms are stateless zero-copy-Arrow ``map_batches`` stages;
the aggregations ride the same exchanges as the graph build.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.hashing import md5_hex
from ..functions.text import text_processing, tokenize


def triple_content(subj, pred, obj) -> np.ndarray:
    """The reference's fact string form: ``str((s, p, o))``
    (HippoRAG.py:262-263 stores str(tuple)).

    Fast path: vectorized template concat — byte-identical to
    ``str(tuple)`` whenever no element contains a quote or backslash
    (always true for normalized tokens); otherwise falls back to the
    exact per-row repr."""
    import pandas as pd

    n = len(subj)
    if n == 0:
        return np.empty(0, dtype=object)
    s = pd.Series(subj, dtype=object)
    p = pd.Series(pred, dtype=object)
    o = pd.Series(obj, dtype=object)
    needs_repr = np.zeros(n, dtype=bool)
    for col in (s, p, o):
        needs_repr |= (
            col.str.contains("'", regex=False)
            | col.str.contains("\\", regex=False)
            # repr also escapes control chars (\n, \t, \x00-\x1f, \x7f):
            # a newline inside an LLM-extracted entity must take the
            # exact-repr path or fact_key diverges from str(tuple)
            | col.str.contains(r"[\x00-\x1f\x7f]", regex=True)
        ).to_numpy()
    out = ("('" + s.str.cat([p, o], sep="', '") + "')").to_numpy(dtype=object)
    if needs_repr.any():
        for i in np.nonzero(needs_repr)[0]:
            out[i] = str((subj[i], pred[i], obj[i]))
    return out


class ExtractTriples:
    """transcripts/documents batch -> per-row deduped triple rows.

    ``id_cols`` are carried through (e.g. ``["doc_id"]`` or
    ``["conv_id", "turn_idx", "chunk_key"]``).
    """

    def __init__(
        self, id_cols: list[str], text_col: str = "text", min_token_len: int = 0
    ):
        """``min_token_len`` > 0 drops short tokens *before* windowing —
        used by the engine so every triple element is a graph entity
        (graph vocabulary applies the same filter)."""
        self.id_cols = list(id_cols)
        self.text_col = text_col
        self.min_token_len = min_token_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = tokenize(text_processing(batch[self.text_col]))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat_arr = toks.flatten()
        flat = flat_arr.to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_rows = len(offsets) - 1
        if self.min_token_len > 0:
            rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
            keep = (
                pc.utf8_length(flat_arr).to_numpy(zero_copy_only=False)
                >= self.min_token_len
            )
            flat, rows = flat[keep], rows[keep]
            counts = np.bincount(rows, minlength=n_rows)
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        counts = np.diff(offsets)
        id_arrays = {c: batch[c].to_numpy(zero_copy_only=False) for c in self.id_cols}
        # per-row consecutive 3-windows + exact dedup
        # (filter_invalid_triples semantics) via the shared kernel —
        # one global lexsort, no Python loop over rows
        from ..functions.pairs import segment_windows_dedup

        r3, s3, p3, o3 = segment_windows_dedup(flat, counts)
        return pa.table(
            {
                **{
                    c: pa.array(v[r3], type=batch[c].type)
                    for c, v in id_arrays.items()
                },
                "subj": pa.array(s3, pa.string()),
                "pred": pa.array(p3, pa.string()),
                "obj": pa.array(o3, pa.string()),
            }
        )


def extract_triples(
    ds: "rd.Dataset",
    id_cols: list[str],
    text_col: str = "text",
    min_token_len: int = 0,
) -> "rd.Dataset":
    """Dataset -> triple rows (id_cols..., subj, pred, obj)."""
    return ds.map_batches(
        ExtractTriples(id_cols, text_col, min_token_len),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def fact_edge_weights(triples: "rd.Dataset") -> "rd.Dataset":
    """Canonical fact-edge records (src < dst, weight): weight = number
    of (chunk, triple) occurrences whose subject/object pair is the
    edge — the reference's per-triple ``stats[(a,b)] += 1`` accumulation
    (HippoRAG.py:756-775; both directions there, one canonical record
    here, expanded on adjacency materialization)."""

    def pairs(batch: pa.Table) -> pa.Table:
        s = batch["subj"].to_numpy(zero_copy_only=False)
        o = batch["obj"].to_numpy(zero_copy_only=False)
        keep = s != o  # self-loops dropped (HippoRAG.py:1064)
        s, o = s[keep], o[keep]
        lo = np.minimum(s, o)
        hi = np.maximum(s, o)
        return pa.table(
            {"src": pa.array(lo, pa.string()), "dst": pa.array(hi, pa.string())}
        )

    from .shuffle import multi_key_sum

    return multi_key_sum(
        triples.map_batches(pairs, batch_format="pyarrow"),
        ["src", "dst"],
        None,
        out_col="weight",
    )


def triple_to_docs(triples: "rd.Dataset", doc_col: str) -> "rd.Dataset":
    """J5 reverse index: distinct (fact_key, doc) rows — the
    ``proc_triples_to_docs`` map (HippoRAG.py:1212-1219) kept as a
    table (collect_set becomes a groupby at the consumer)."""
    from .shuffle import hash_distinct

    def fn(batch: pa.Table) -> pa.Table:
        content = triple_content(
            batch["subj"].to_numpy(zero_copy_only=False),
            batch["pred"].to_numpy(zero_copy_only=False),
            batch["obj"].to_numpy(zero_copy_only=False),
        )
        keys = md5_hex(content, prefix="fact-").to_numpy(zero_copy_only=False)
        docs = batch[doc_col].to_numpy(zero_copy_only=False)
        # "|" separator: numpy strips a trailing "\x00" as fixed-width
        # padding (no delimiter at all); the fact key is fixed-length
        # ("fact-" + 32 hex) so any printable separator is unambiguous
        pair = np.char.add(np.char.add(keys.astype(str), "|"), docs.astype(str))
        return pa.table(
            {
                "fact_key": pa.array(keys, pa.string()),
                doc_col: batch[doc_col],
                "_pair": pa.array(pair, pa.string()),
            }
        )

    # no materialize: hash_distinct consumes streaming block refs, so
    # the _pair-augmented table (this operator's largest intermediate)
    # is never pinned whole in the object store
    out = triples.map_batches(fn, batch_format="pyarrow")
    return hash_distinct(out, "_pair").select_columns(["fact_key", doc_col])
