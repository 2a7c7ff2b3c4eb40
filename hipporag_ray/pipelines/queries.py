"""Query catalog: the driver-checkable surface of the engine.

Each entry composes library stages into a pipeline over the testdata
parquet tables (``TESTDATA.md``); where the semantics are
SQL-expressible the matching DuckDB oracle lives in ``ORACLE_SQL``
(column names match exactly; floats are rounded identically on both
sides so value hashes compare).  Graph-algorithm queries run over
transcripts synthesized deterministically from the sf directory name
(BASELINE.json input_hint shape) and carry pytest oracles instead of
SQL (rows-only driver check).

Operator coverage index (SURVEY.md §2): normalization M1, hashing M2,
min-max M3, sorted-distinct M5/M6/A11, dedup A10/M7, co-occurrence
aggregation A1/A2, KNN join J1, anti join J3/J6, hash join J2/J8,
groupby aggregates A5-A9, top-k K1-K8, PPR/PageRank A4, plus the
training-data extensions (dedup family, similarity search, text
analysis, multimodal plumbing).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.text import text_processing
from ..functions import pool_size
from ..stages import dedup as dd
from ..stages import similarity as sim
from ..stages import textstats as ts
from ..stages.extract import extract_mentions
from ..stages.graph_build import build_graph, load_graph


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_NORM_SQL = "trim(regexp_replace(lower(text), '[^a-z0-9 ]', ' ', 'g'))"
_TOK_CTE = f"""
WITH norm AS (
  SELECT doc_id, {_NORM_SQL} AS t FROM documents
), tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(t, ' +')) AS tok FROM norm WHERE t <> ''
)
"""


def _langid_sql() -> str:
    """DuckDB twin of stages/textstats.py::LangId: per-language
    stopword-hit counts over normalized whitespace tokens, argmax with
    alphabetical tie-break, 'und' when no hits (or no tokens)."""
    from ..stages.textstats import _STOPWORDS

    langs = sorted(_STOPWORDS)
    hit_cols = ",\n            ".join(
        "SUM(CASE WHEN tok IN ({}) THEN 1 ELSE 0 END) AS h_{}".format(
            ", ".join("'" + w + "'" for w in sorted(_STOPWORDS[lang])), lang
        )
        for lang in langs
    )
    m = "greatest({})".format(", ".join(f"h_{lang}" for lang in langs))
    case = " ".join(f"WHEN h.h_{lang} = h.m THEN '{lang}'" for lang in langs)
    return f"""
        WITH norm AS (
          SELECT doc_id, {_NORM_SQL} AS t FROM documents
        ), tok AS (
          SELECT doc_id, unnest(regexp_split_to_array(t, ' +')) AS tok
          FROM norm WHERE t <> ''
        ), hits AS (
          SELECT doc_id,
            {hit_cols},
            {m} AS m
          FROM tok GROUP BY doc_id
        )
        SELECT n.doc_id,
               CASE WHEN h.m IS NULL OR h.m = 0 THEN 'und' {case} END AS lang_pred
        FROM norm n LEFT JOIN hits h USING (doc_id)
    """


def _docs(sf_dir: str, cols: list[str] | None = None) -> "rd.Dataset":
    """documents reader; ``cols`` prunes the scan at the read (the wide
    ``text`` column must never leave storage for queries that don't use
    it — at 100-TB scale unpruned reads are wasted scan bandwidth)."""
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=cols)


def _events(sf_dir: str, cols: list[str] | None = None) -> "rd.Dataset":
    """events reader; ``cols`` prunes the scan at the read."""
    return rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=cols)


def _round_away(v: np.ndarray, nd: int) -> np.ndarray:
    """Round half-away-from-zero (DuckDB's rule; numpy's .round is
    half-even and disagrees on exact boundaries like 105/128)."""
    v = np.asarray(v, dtype=np.float64)
    scale = 10.0**nd
    return np.sign(v) * np.floor(np.abs(v) * scale + 0.5) / scale


def _round(df: pd.DataFrame, spec: dict[str, int]) -> pd.DataFrame:
    for c, nd in spec.items():
        df[c] = _round_away(df[c].astype(float).to_numpy(), nd)
    return df


def _empty_or(
    batch: pa.Table,
    need: tuple[str, ...],
    out_schema: dict[str, "pa.DataType"],
) -> pa.Table | None:
    """Empty-result guard for hash-join bucket consumers: buckets can be
    the zero-column sentinel table, so emit a typed empty table (in the
    OUTPUT schema) when the input lacks rows or the ``need`` columns."""
    if batch.num_rows == 0 or any(c not in batch.column_names for c in need):
        return pa.table({k: pa.array([], t) for k, t in out_schema.items()})
    return None


def sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


# Bump when graph-build / synth semantics change: /tmp caches from an
# older code version must not serve results for the new semantics.
_CACHE_VERSION = 2


def _input_fingerprint(*paths: str) -> str:
    """Cheap content fingerprint of input files (size + mtime per
    file, no data read) so caches keyed on it go stale when the driver
    regenerates testdata at the same sf with different content."""
    import hashlib

    h = hashlib.md5(f"v{_CACHE_VERSION}".encode())
    for p in sorted(paths):
        try:
            st = os.stat(p)
            h.update(f"{os.path.basename(p)}:{st.st_size}:{st.st_mtime_ns}".encode())
        except OSError:
            h.update(f"{os.path.basename(p)}:absent".encode())
    return h.hexdigest()[:12]


def synth_transcripts_for(sf_dir: str) -> str:
    """Deterministic transcripts at a scale derived from sf (cached)."""
    from ..synth import write_transcripts

    sf = sf_of(sf_dir)
    n_convs = max(50, int(100_000 * sf))
    vocab = max(100, int(20_000 * sf))
    out = f"/tmp/hipporag_ray/tx_sf{sf}_v{_CACHE_VERSION}"
    return write_transcripts(out, n_convs=n_convs, turns_per_conv=10, vocab=vocab, seed=42)


def _atomic_dir_publish(tmp: str, final: str) -> None:
    """Atomically publish a built cache directory; if a concurrent
    builder won the race, keep theirs and drop ours."""
    import shutil as _sh

    try:
        os.rename(tmp, final)
    except OSError:
        _sh.rmtree(tmp, ignore_errors=True)


def graph_for(sf_dir: str):
    """Build (once, cached) the transcript graph for this sf.  The
    build lands in a pid-suffixed temp dir and publishes by atomic
    rename, so concurrent query processes never co-write a cache."""
    sf = sf_of(sf_dir)
    tx = synth_transcripts_for(sf_dir)
    out = f"/tmp/hipporag_ray/graph_sf{sf}_v{_CACHE_VERSION}"
    marker = os.path.join(out, "manifest.json")
    if os.path.exists(marker):
        return load_graph(out)
    tmp = f"{out}.tmp.{os.getpid()}"
    build_graph(rd.read_parquet(tx, columns=["text"]), tmp)
    _atomic_dir_publish(tmp, out)
    return load_graph(out)


def doc_graph_for(sf_dir: str, weight_frac: float | None = None) -> tuple[str, int]:
    """Distributed build (once, cached) of the document token
    co-occurrence graph: vertices = sorted distinct tokens with dense
    vids (A11), symmetric adjacency with weight = number of docs where
    the pair co-occurs (A1).  Entirely through the distributed
    exchanges — mentions ⋈ vertices (bucketed hash join), pair
    expansion via the grouped hash exchange, weights via the int-key
    sum shuffle, adjacency range-sorted by src for shard pruning.
    ``weight_frac`` keeps only edges co-occurring in at least that
    fraction of the docs (the STRONG graph — the raw token graph is
    complete at bench scale); the vertex file/count stay the full
    vocabulary, thresholded-away vertices are simply isolated.
    Returns (graph_dir, n_vertices)."""
    import json

    from ..stages.graph_build import assign_dense_ids
    from ..stages.shuffle import (
        grouped_pairs,
        hash_distinct,
        hash_join,
        int_key_sum,
        range_sort,
    )

    fp = _input_fingerprint(os.path.join(sf_dir, "documents.parquet"))
    wtag = f"_wf{weight_frac}" if weight_frac is not None else ""
    d = f"/tmp/hipporag_ray/docgraph_sf{sf_of(sf_dir)}_{fp}{wtag}"
    marker = os.path.join(d, "manifest.json")
    if os.path.exists(marker):
        with open(marker) as f:
            return d, json.load(f)["n_vertices"]
    tmp_d = f"{d}.tmp.{os.getpid()}"  # publish by atomic rename below
    m = q_doc_mentions(sf_dir).materialize()
    distinct = hash_distinct(m, "entity").select_columns(["entity"])
    verts = assign_dense_ids(distinct, "entity", "vid").materialize()
    n = verts.count()
    os.makedirs(tmp_d, exist_ok=True)
    verts.write_parquet(os.path.join(tmp_d, "vertices"))

    def docvid(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("doc_id", "vid"), {"doc_id": pa.int64(), "vid": pa.int64()})
        if e is not None:
            return e
        return pa.table({"doc_id": b["doc_id"], "vid": b["vid"]})

    mv = hash_join(m, verts, "entity").map_batches(docvid, batch_format="pyarrow")
    pairs = grouped_pairs(mv, "doc_id", "vid", mode="ne")
    coded = pairs.map_batches(
        lambda b: pa.table(
            {
                "code": pc.add(pc.multiply(b["a"], pa.scalar(n, pa.int64())), b["b"]),
                "weight": pa.array(np.ones(b.num_rows, np.float64)),
            }
        ),
        batch_format="pyarrow",
    )
    agg = int_key_sum(coded, "code", "weight")
    if weight_frac is not None:
        thresh = weight_frac * _docs(sf_dir, ["doc_id"]).count()
        agg = agg.map_batches(
            lambda b: b.filter(pc.greater_equal(b["weight"], pa.scalar(thresh))),
            batch_format="pyarrow",
        )

    def decode(batch: pa.Table) -> pa.Table:
        code = batch["code"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(code // n, type=pa.int64()),
                "dst": pa.array(code % n, type=pa.int64()),
                "weight": batch["weight"],
            }
        )

    adj = range_sort(agg.map_batches(decode, batch_format="pyarrow"), "src")
    adj.write_parquet(os.path.join(tmp_d, "adj"))
    with open(os.path.join(tmp_d, "manifest.json"), "w") as f:
        json.dump({"n_vertices": int(n)}, f)
    _atomic_dir_publish(tmp_d, d)
    return d, int(n)


def _doc_vertex_names(graph_dir: str) -> "rd.Dataset":
    """(entity, vid) vertex-name view of the doc token graph (column-
    pruned read; consumed by bucketed joins, never by the driver)."""
    return rd.read_parquet(os.path.join(graph_dir, "vertices"), columns=["entity", "vid"])


def _label_entities(d: str, lab_ds: "rd.Dataset", col: str) -> "rd.Dataset":
    """Distributed (entity, <col>) naming of a (vid, <col>) label
    Dataset: the vid itself and the label (also a vid — min member /
    winning vote) are both resolved to entity names through bucketed
    hash joins, so no vertex-sized array ever lands on the driver."""
    from ..stages.shuffle import hash_join

    verts = _doc_vertex_names(d)

    def to_cvid(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("entity", col), {"entity": pa.string(), "cvid": pa.int64()})
        if e is not None:
            return e
        return pa.table({"entity": b["entity"], "cvid": b[col]})

    def name_label(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("vid", "entity"), {"cvid": pa.int64(), col: pa.string()})
        if e is not None:
            return e
        return pa.table({"cvid": b["vid"], col: b["entity"]})

    named = hash_join(lab_ds, verts, "vid").map_batches(
        to_cvid, batch_format="pyarrow"
    )
    label_names = verts.map_batches(name_label, batch_format="pyarrow")

    def final(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("entity", col), {"entity": pa.string(), col: pa.string()})
        if e is not None:
            return e
        return pa.table({"entity": b["entity"], col: b[col]})

    return hash_join(named, label_names, "cvid").map_batches(
        final, batch_format="pyarrow"
    )


def _named_scores(d: str, scores_ds: "rd.Dataset") -> "rd.Dataset":
    """Distributed (entity, round9(score)) naming of a (vid, score)
    Dataset via one bucketed join."""
    from ..stages.shuffle import hash_join

    def fin(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("entity", "score"), {"entity": pa.string(), "score": pa.float64()})
        if e is not None:
            return e
        return pa.table(
            {
                "entity": b["entity"],
                "score": pa.array(
                    _round_away(b["score"].to_numpy(zero_copy_only=False), 9)
                ),
            }
        )

    return hash_join(scores_ds, _doc_vertex_names(d), "vid").map_batches(
        fin, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# relational / text queries (SQL-checked)
# ---------------------------------------------------------------------------


def q_doc_normalize(sf_dir: str):
    """M1 text_processing over documents."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "norm_text": text_processing(batch["text"])}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def q_doc_token_count(sf_dir: str):
    return ts.token_count(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id")


def q_doc_token_count_bpe(sf_dir: str):
    """BPE-ish (letter/digit/punct-run) token counts — the tokenizer-
    style count a training-data pipeline budgets by."""
    return ts.token_count_bpe(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id")


def q_doc_regex_extract(sf_dir: str):
    """Vectorized regex extraction (first multi-digit run + match
    count per document) — the structured-field-extraction shape of a
    training-data pipeline, as single-pass Arrow RE2 kernels
    (pc.extract_regex / pc.count_substring_regex); no Python row
    loop.  DuckDB shares the RE2 dialect, so the oracle is exact."""

    def kernel(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["text"], r"(?P<num>[0-9]{2,})")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "first_num": pc.struct_field(ex, "num"),
                "n_nums": pc.cast(
                    pc.count_substring_regex(batch["text"], r"[0-9]{2,}"),
                    pa.int64(),
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(kernel, batch_format="pyarrow")


def q_doc_json_repair(sf_dir: str):
    """M10 end-to-end: repair truncated JSON generations and parse the
    entity list out of them (functions/llm_parse.py, reference
    llm_utils.py:150-219).

    A deterministic "truncated generation" is synthesized per document
    (first 6 normalized tokens as a ``{"named_entities": [...]}``
    object cut at 3/4 of its length — the finish_reason='length' shape
    the reference repairs), then the REAL general repair + parse runs.
    The oracle knows the closed form for this shape (trim at the last
    comma + ``]}``), so the general machinery is value-checked by SQL.
    Repair itself is an inherently sequential per-string scan (string
    literal/escape state), so this stage is a per-row parser by
    nature — cost O(bytes) per repaired row, embarrassingly parallel
    across rows/blocks."""
    from ..functions.llm_parse import fix_broken_generated_json
    import json as _json

    def kernel(batch: pa.Table) -> pa.Table:
        norm = text_processing(batch["text"]).to_pylist()
        ids, n_ents, ents_out = [], [], []
        for doc_id, t in zip(batch["doc_id"].to_pylist(), norm):
            if not t:
                continue
            toks = t.split()[:6]
            s = '{"named_entities": ["' + '", "'.join(toks) + '"]}'
            truncated = s[: (3 * len(s)) // 4]
            repaired = fix_broken_generated_json(truncated)
            try:
                ents = _json.loads(repaired)["named_entities"]
            except (ValueError, KeyError, TypeError):
                ents = None
            ids.append(doc_id)
            n_ents.append(len(ents) if ents else 0)
            ents_out.append("|".join(ents) if ents else None)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_ents": pa.array(n_ents, pa.int64()),
                "ents": pa.array(ents_out, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(kernel, batch_format="pyarrow")


def q_doc_prompt_render(sf_dir: str):
    """M13: vectorized prompt rendering over a document column — one
    Arrow binary_join_element_wise kernel per batch, placeholders
    compiled once per actor (functions/prompts.py::RenderPrompts;
    reference prompts/prompt_template_manager.py:105-140)."""
    from ..functions.prompts import RenderPrompts

    def to_fields(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"], "passage": batch["text"]})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(to_fields, batch_format="pyarrow")
        .map_batches(
            RenderPrompts(
                "Extract entities.\n\nPassage (doc ${doc_id}): ${passage}"
            ),
            batch_format="pyarrow",
        )
        .select_columns(["doc_id", "prompt"])
    )


def q_doc_llm_ner(sf_dir: str):
    """The reference's full NER plumbing end-to-end (T2+M8+M13,
    openie_openai.py:45-80): prompt render (vectorized,
    functions/prompts.py) -> cache-through inference actor pool
    (state/llm_cache.py::LLMInfer, sqlite response cache per actor
    node) -> NER response parsing (functions/llm_parse.py, prose
    stripped, order-preserving dedup) -> exploded (doc_id, entity)
    rows.  The model plug is a deterministic responder (distinct
    normalized tokens len>=3 wrapped in LLM-style prose + JSON), so
    the whole pipeline is value-checked by the doc_mentions-shaped
    SQL oracle — the parsing/caching plumbing is what's under test."""
    import json as _json
    import tempfile

    from ..functions.prompts import RenderPrompts
    from ..state.llm_cache import LLMInfer
    from ..functions.llm_parse import (
        extract_ner_from_response,
        unique_preserve_order,
    )

    def to_fields(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "passage": text_processing(batch["text"])}
        )

    def fake_ner_llm(messages, **gen):
        # deterministic "model": the passage rides in the prompt tail;
        # answer = the reference's NER response shape with prose
        passage = messages[-1]["content"].split("Passage: ", 1)[1]
        toks = sorted({t for t in passage.split() if len(t) >= 3})
        body = _json.dumps({"named_entities": toks})
        return f"Sure, here are the entities.\n{body}\nDone.", {
            "finish_reason": "stop"
        }

    cache_dir = tempfile.mkdtemp(prefix="llm_ner_cache_")

    def parse(batch: pa.Table) -> pa.Table:
        ids, ents = [], []
        for doc_id, resp in zip(
            batch["doc_id"].to_pylist(), batch["response"].to_pylist()
        ):
            for e in unique_preserve_order(extract_ner_from_response(resp)):
                ids.append(doc_id)
                ents.append(e)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "entity": pa.array(ents, pa.string())}
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(to_fields, batch_format="pyarrow")
        .map_batches(RenderPrompts("Extract entities.\nPassage: ${passage}"), batch_format="pyarrow")
        .map_batches(
            LLMInfer,
            fn_constructor_kwargs=dict(
                llm_fn_factory=lambda: fake_ner_llm,
                cache_path=os.path.join(cache_dir, "cache-{node}.sqlite"),
            ),
            concurrency=pool_size(),
            batch_size=128,
            batch_format="pyarrow",
        )
        .map_batches(parse, batch_format="pyarrow")
    )


def q_doc_mentions(sf_dir: str):
    """M6-style explode: distinct (doc_id, entity), tokens len>=3."""
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: pa.table({"conv_id": pc.cast(b["doc_id"], pa.string()),
                            "turn_idx": pa.array(np.zeros(len(b), np.int32)),
                            "role": pa.array([""] * len(b)),
                            "text": b["text"],
                            "tool": pa.array([""] * len(b)),
                            "ts": pa.array(np.zeros(len(b), "datetime64[us]"))}),
        batch_format="pyarrow",
    )
    m = extract_mentions(ds, min_token_len=3, include_role_tool=False)

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["conv_id"], pa.int64()),
                "entity": batch["entity"],
            }
        )

    # distinct across docs with equal text is already per-doc distinct
    return m.map_batches(proj, batch_format="pyarrow")


def q_doc_vertices(sf_dir: str):
    """A11 sorted distinct + dense vid over document tokens."""
    from ..stages.graph_build import assign_dense_ids

    from ..stages.shuffle import hash_distinct

    m = q_doc_mentions(sf_dir)
    distinct = hash_distinct(m, "entity").select_columns(["entity"])
    out = assign_dense_ids(distinct, "entity", "vid")
    return out.select_columns(["entity", "vid"])


def q_doc_cooccur(sf_dir: str):
    """A1-style co-occurrence: canonical (src < dst) token pairs,
    weight = number of docs where both appear.

    Pairs are expanded directly from each *document row* (vectorized
    segment kernel, functions/pairs.py), so correctness is independent
    of block layout — a doc is one input row and can never straddle
    batches."""
    from ..functions.pairs import segment_pairs
    from ..functions.text import distinct_tokens_per_row

    def pairs(batch: pa.Table) -> pa.Table:
        toks = distinct_tokens_per_row(text_processing(batch["text"]), min_len=3)
        vals = toks.flatten().to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # per-row tokens are sorted distinct, so i<j pairs are canonical
        a, b = segment_pairs(vals, offsets, mode="lt")
        return pa.table(
            {"src": pa.array(a, type=pa.string()), "dst": pa.array(b, type=pa.string())}
        )

    from ..stages.shuffle import multi_key_sum

    # large keyspace (token pairs): per-block partial counts through the
    # general-key hash exchange — not Dataset.groupby (sort-based
    # all-to-all, measured an order of magnitude slower on this shape)
    p = _docs(sf_dir, ["text"]).map_batches(pairs, batch_format="pyarrow")
    return multi_key_sum(p, ["src", "dst"], out_col="weight")


def q_doc_triples(sf_dir: str):
    """Deterministic triple extraction (the OpenIE analog): distinct
    consecutive-3-token windows per doc (stages/triples.py)."""
    from ..stages.triples import extract_triples

    return extract_triples(_docs(sf_dir, ["doc_id", "text"]), ["doc_id"])


def q_doc_openie(sf_dir: str):
    """Two-pass OpenIE driver (T3, openie_openai.py:135-210 shape):
    NER stage appends the per-doc entity column, the triple stage
    consumes it — windows of the raw token sequence kept iff subject
    and object are NER entities.  Two chained map_batches stages,
    streaming, no barrier."""
    from ..stages.openie import openie_pipeline

    return openie_pipeline(_docs(sf_dir, ["doc_id", "text"]), ["doc_id"], min_token_len=3)


def q_doc_fact_edges(sf_dir: str):
    """Fact-edge weights counted per triple occurrence
    (HippoRAG.py:756-775): canonical (src < dst) pair counts over the
    per-doc deduped triples."""
    from ..stages.triples import extract_triples, fact_edge_weights

    return fact_edge_weights(extract_triples(_docs(sf_dir, ["doc_id", "text"]), ["doc_id"]))


def q_doc_exact_dedup(sf_dir: str):
    """A10 exact dedup: first-wins doc per content hash."""
    return dd.exact_dedup_keys(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id")


def q_doc_stats(sf_dir: str):
    """A6-style per-language stats (lineitem-style map-side partials +
    tiny driver combine — a handful of languages, no shuffle)."""
    from ..stages.agg import grouped_partials

    out = grouped_partials(
        _docs(sf_dir, ["lang", "n_chars"]),
        ["lang"],
        {
            "n_docs": ("count", None),
            "avg_chars": ("mean", "n_chars"),
            "max_chars": ("max", "n_chars"),
        },
    )
    return _round(out, {"avg_chars": 4})


def q_doc_quality(sf_dir: str):
    out = ts.quality_score(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id").to_pandas()
    return _round(
        out, {"avg_token_len": 6, "stopword_ratio": 6, "alnum_ratio": 6}
    )


def q_doc_fingerprint(sf_dir: str):
    return ts.fingerprint(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id", n=5)


def q_doc_ngram_jaccard(sf_dir: str):
    out = dd.ngram_jaccard_pairs(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id", n=3, threshold=0.2)
    return _round(out, {"jaccard": 6})


def q_events_by_type(sf_dir: str):
    from ..stages.agg import grouped_partials

    out = grouped_partials(
        _events(sf_dir, ["event_type", "value"]),
        ["event_type"],
        {
            "n": ("count", None),
            "sum_value": ("sum", "value"),
            "avg_value": ("mean", "value"),
        },
    )
    return _round(out, {"sum_value": 2, "avg_value": 4})


def q_events_minmax(sf_dir: str):
    """M3 min_max_normalize over events.value (global)."""
    ev = _events(sf_dir, ["event_id", "value"])
    stats = ev.aggregate(Min("value"), Max("value"))
    lo, hi = stats["min(value)"], stats["max(value)"]
    # all values NULL: Min/Max come back None — every normalized value
    # is NULL (SQL arithmetic on NULL), not a TypeError on hi - lo
    rng = None if lo is None else hi - lo

    def fn(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        if rng is None:
            norm = np.full(len(v), np.nan)
        elif rng == 0:
            norm = np.where(np.isnan(v), np.nan, np.ones_like(v))
        else:
            norm = (v - lo) / rng
        norm = _round_away(norm, 6)
        # NULL input -> NULL output (the oracle's round() of NULL is
        # NULL; a NaN stored as a VALID float would hash-mismatch)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "norm_value": pa.array(
                    norm, pa.float64(), from_pandas=True  # NaN -> null
                ),
            }
        )

    return ev.map_batches(fn, batch_format="pyarrow")


def q_events_topk(sf_dir: str):
    """K2/K7 top-k: 20 highest-value events (deterministic tiebreak)."""
    out = (
        _events(sf_dir, ["event_id", "value"])
        .sort(["value", "event_id"], descending=[True, False])
        .limit(20)
        .select_columns(["event_id", "value"])
    )
    return out


def q_events_hourly(sf_dir: str):
    """Windowed aggregate: events per (hour, type) — map-side partials
    (the hour bucket is computed inside the partial task) + driver
    combine over O(groups x blocks) rows; was the catalog's recurring
    bench regression as a native Dataset.groupby."""
    from ..stages.agg import grouped_partials

    def pre(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        return pa.table({"hour": hour, "event_type": batch["event_type"]})

    return grouped_partials(
        _events(sf_dir, ["ts", "event_type"]), ["hour", "event_type"], {"n": ("count", None)}, pre=pre
    )


def q_orders_by_nation(sf_dir: str, broadcast_limit: int = 5_000_000):
    """J2-style join + grouped aggregate: orders x customer -> per
    nation.  The customer side is broadcast (ray.put once, read per
    actor) only while it fits under ``broadcast_limit`` rows — beyond
    that it routes through the bucketed hash join, the same size-gate
    policy as the graph build's vertex dictionary.  The 25-nation
    aggregate itself is map-side partials + driver combine."""
    from ..stages.agg import grouped_partials

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )
    cust_ds = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    import ray as _ray

    if cust_ds.count() <= broadcast_limit:
        cust = cust_ds.to_pandas()
        cust_ref = _ray.put(dict(zip(cust["c_custkey"], cust["c_nationkey"])))

        class Join:
            def __init__(self):
                self.m = _ray.get(cust_ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                df = batch.to_pandas()
                nk = df["o_custkey"].map(self.m)
                return pa.table(
                    {
                        "c_nationkey": pa.array(nk.to_numpy(dtype=np.int64)),
                        "o_totalprice": batch["o_totalprice"],
                    }
                )

        joined = orders.map_batches(Join, batch_format="pyarrow", concurrency=pool_size())
    else:
        from ..stages.shuffle import hash_join

        o2 = orders.map_batches(
            lambda b: pa.table(
                {"c_custkey": b["o_custkey"], "o_totalprice": b["o_totalprice"]}
            ),
            batch_format="pyarrow",
        )
        joined = hash_join(o2, cust_ds, "c_custkey")

    def pre(b: pa.Table) -> pa.Table:
        e = _empty_or(
            b,
            ("c_nationkey", "o_totalprice"),
            {"c_nationkey": pa.int64(), "o_totalprice": pa.float64()},
        )
        if e is not None:
            return e
        return pa.table(
            {
                # int64 regardless of path: the parquet column is int32
                # and the broadcast path emits int64
                "c_nationkey": b["c_nationkey"].cast(pa.int64()),
                "o_totalprice": b["o_totalprice"],
            }
        )

    out = grouped_partials(
        joined,
        ["c_nationkey"],
        {"n_orders": ("count", None), "total_price": ("sum", "o_totalprice")},
        pre=pre,
    )
    return _round(out, {"total_price": 2})


def q_orders_by_segment(sf_dir: str):
    """Large-side x large-side bucketed hash join (stages/shuffle.py)
    + grouped aggregate: order totals per customer market segment."""
    from ..stages.shuffle import hash_join

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda b: pa.table({"c_custkey": b["o_custkey"], "o_totalprice": b["o_totalprice"]}),
        batch_format="pyarrow",
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    joined = hash_join(orders, cust, "c_custkey")

    def guard(b: pa.Table) -> pa.Table:
        e = _empty_or(
            b,
            ("c_mktsegment", "o_totalprice"),
            {"c_mktsegment": pa.string(), "o_totalprice": pa.float64()},
        )
        if e is not None:
            return e
        return pa.table(
            {"c_mktsegment": b["c_mktsegment"], "o_totalprice": b["o_totalprice"]}
        )

    from ..stages.agg import grouped_partials

    out = grouped_partials(
        joined,
        ["c_mktsegment"],
        {"n_orders": ("count", None), "total_price": ("sum", "o_totalprice")},
        pre=guard,
    )
    return _round(out, {"total_price": 2})


def q_customers_no_orders(sf_dir: str):
    """J3/J6 anti join: customers with no orders (broadcast key set)."""
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    keys = np.sort(np.array(list(orders.unique("o_custkey")), dtype=np.int64))
    import ray as _ray

    keys_ref = _ray.put(keys)

    def fn(batch: pa.Table) -> pa.Table:
        ks = _ray.get(keys_ref)
        c = batch["c_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({"c_custkey": pa.array(c[~np.isin(c, ks)])})

    out = (
        rd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"])
        .map_batches(fn, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # Ray to_pandas drops schema on all-empty datasets
        out = pd.DataFrame({"c_custkey": pd.Series([], dtype="int64")})
    return out


def q_customers_with_orders(sf_dir: str):
    """Semi join (EXISTS shape) through the bucketed hash join: the
    distributed twin of q_customers_no_orders' broadcast anti join —
    left rows whose key has a right match, right columns dropped, no
    row multiplication from duplicate right keys."""
    from ..stages.shuffle import hash_join

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_acctbal"]
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
    ).map_batches(
        lambda b: pa.table({"c_custkey": b["o_custkey"]}), batch_format="pyarrow"
    )
    return hash_join(cust, orders, "c_custkey", how="leftsemi")


def q_customer_orders_full_outer(sf_dir: str):
    """FULL OUTER join through the bucketed hash join: nation<12
    customers x per-customer order totals — BOTH unmatched sides
    survive with NULL other-side columns (low-nation customers without
    orders, and ordering customers outside the nation filter).  The
    order totals come from the streaming int-key exchange, never a
    driver-side group."""
    from ..stages.shuffle import hash_join, int_key_sum

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_acctbal", "c_nationkey"],
    ).map_batches(
        lambda b: b.filter(pc.less(b["c_nationkey"], 12)).select(
            ["c_custkey", "c_acctbal"]
        ),
        batch_format="pyarrow",
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda b: pa.table(
            {"c_custkey": b["o_custkey"], "o_totalprice": b["o_totalprice"]}
        ),
        batch_format="pyarrow",
    )
    sums = int_key_sum(orders, "c_custkey", "o_totalprice")
    out = hash_join(cust, sums, "c_custkey", how="outer").to_pandas()
    out = out.rename(columns={"o_totalprice": "sum_spent"})
    out["sum_spent"] = _round_away(out["sum_spent"].to_numpy(dtype=np.float64), 2)
    return out[["c_custkey", "c_acctbal", "sum_spent"]]


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3-flavored 3-table pipeline: segment-filtered customers
    SEMI-join date-filtered orders (bucketed hash join), lineitem
    revenue pre-aggregated per order through the streaming int-key
    exchange BEFORE the join (the join moves order-cardinality rows,
    never lineitem-cardinality), inner join, global top-10 by revenue
    via per-block partial top-k + a driver merge of O(blocks x 10)
    rows.  Filters are pushed into the scans' first map so only
    surviving rows enter any exchange."""
    from ..stages.shuffle import hash_join, int_key_sum

    cutoff = np.datetime64("1998-01-01", "us")

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b["c_mktsegment"], pa.scalar("BUILDING"))
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "c_custkey": b["o_custkey"],
                "o_orderdate": b["o_orderdate"],
            }
        ).filter(pc.less(b["o_orderdate"], pa.scalar(cutoff, pa.timestamp("us")))),
        batch_format="pyarrow",
    )
    kept = hash_join(orders, cust, "c_custkey", how="leftsemi")

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev": pc.multiply(
                    b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
                ),
            }
        ).filter(pc.greater(b["l_shipdate"], pa.scalar(cutoff, pa.timestamp("us")))),
        batch_format="pyarrow",
    )
    rev = int_key_sum(li, "l_orderkey", "rev").map_batches(
        lambda b: pa.table({"o_orderkey": b["l_orderkey"], "rev": b["rev"]})
        if b.num_rows and "l_orderkey" in b.column_names
        else pa.table(
            {"o_orderkey": pa.array([], pa.int64()), "rev": pa.array([], pa.float64())}
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(rev, kept, "o_orderkey")

    K = 10

    def topk_partial(b: pa.Table) -> pa.Table:
        e = _empty_or(
            b,
            ("o_orderkey", "rev", "o_orderdate"),
            {
                "l_orderkey": pa.int64(),
                "revenue": pa.float64(),
                "o_orderdate": pa.timestamp("us"),
            },
        )
        if e is not None:
            return e
        okey = b["o_orderkey"].to_numpy(zero_copy_only=False)
        # round BEFORE ranking: the oracle's ORDER BY resolves `revenue`
        # to the rounded alias, so near-ties must rank post-rounding
        r = _round_away(
            b["rev"].to_numpy(zero_copy_only=False).astype(np.float64), 2
        )
        od = b["o_orderdate"].to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, -r))[:K]
        return pa.table(
            {
                "l_orderkey": pa.array(okey[order], pa.int64()),
                "revenue": pa.array(r[order], pa.float64()),
                "o_orderdate": pa.array(od[order], pa.timestamp("us")),
            }
        )

    out = joined.map_batches(
        topk_partial, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "l_orderkey": pd.Series([], dtype="int64"),
                "revenue": pd.Series([], dtype="float64"),
                "o_orderdate": pd.Series([], dtype="datetime64[us]"),
            }
        )
    return (
        out.sort_values(["revenue", "l_orderkey"], ascending=[False, True])
        .head(K)
        .reset_index(drop=True)
    )


def q_events_heavy_hitters(sf_dir: str):
    """Exact heavy hitters (the HAVING shape): users with >= 70 events
    — per-key counts through the general-key hash exchange, threshold
    filter applied inside the reduce partitions, only survivors reach
    the driver."""
    from ..stages.shuffle import multi_key_sum

    counts = multi_key_sum(
        _events(sf_dir, ["user_id"]), ["user_id"], None, out_col="n"
    )

    def keep(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("user_id", "n"), {"user_id": pa.int64(), "n": pa.int64()})
        if e is not None:
            return e
        return b.filter(pc.greater_equal(b["n"], pa.scalar(70, b["n"].type))).select(
            ["user_id", "n"]
        )

    return counts.map_batches(keep, batch_format="pyarrow")


def q_events_heavy_hitters_sketch(sf_dir: str):
    """Misra-Gries heavy-hitter summary over user_id with k=32 counters
    (below the 150-user cardinality, so compression actually fires):
    k+1-sized partials per block, no per-item exchange — the
    frequency-sketch path for item universes too large to count
    exactly.  Rows-only (estimates are layout-dependent within the
    ±N/(k+1) bound); the bound itself is pytest-checked in
    tests/test_heavy_hitters.py."""
    from ..stages.agg import heavy_hitters_sketch

    return heavy_hitters_sketch(_events(sf_dir, ["user_id"]), "user_id", k=32)


def q_events_heavy_hitters_verified(sf_dir: str):
    """Exact top-10 users by event count via the two-pass
    sketch-then-verify pattern (`stages/agg.py::heavy_hitters_topk`):
    MG candidates first, then exact counts over candidate rows only —
    the full per-item exchange never runs.  The result is provably the
    exact top-10 (guaranteed flag asserted), so it is SQL-oracle
    checkable even though a sketch picked the candidates.  A sketch too
    small for the guarantee is retried once 8x larger before raising."""
    from ..stages.agg import heavy_hitters_topk

    sizes = (1024, 8192)
    for k_sketch in sizes:
        out, guaranteed = heavy_hitters_topk(
            _events(sf_dir, ["user_id"]), "user_id", top=10, k_sketch=k_sketch
        )
        if guaranteed:
            return out
    raise RuntimeError(
        f"sketch bound too loose for an exact top-10 at k_sketch={sizes[0]} "
        f"and k_sketch={sizes[1]}"
    )


def q_lineitem_pricing(sf_dir: str):
    """TPC-H Q1-flavored grouped aggregate with per-batch computed
    column (revenue) — the canonical partial-aggregation pattern."""
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        # map-side combine: one row per (flag, status) per batch — the
        # final exchange moves O(groups x blocks) rows, not O(rows).
        # Pure-Arrow group_by: no pandas object conversion of the two
        # string key columns in the per-batch hot path.
        disc = batch["l_discount"]
        revenue = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), disc)
        )
        g = batch.append_column("revenue", revenue).group_by(
            ["l_returnflag", "l_linestatus"]
        ).aggregate(
            [
                ("l_quantity", "sum"),
                ("revenue", "sum"),
                ("l_discount", "sum"),
                # avg's denominator counts non-null discounts (SQL AVG
                # skips nulls); n is COUNT(*) — all rows
                ("l_discount", "count"),
                ([], "count_all"),
            ]
        )
        # select by the GENERATED names, then rename positionally:
        # TableGroupBy.aggregate's column ORDER moved across pyarrow
        # majors (keys-last before 14), but the '{col}_{agg}' names are
        # stable — a bare positional rename silently mislabels there
        return g.select(
            [
                "l_returnflag",
                "l_linestatus",
                "l_quantity_sum",
                "revenue_sum",
                "l_discount_sum",
                "l_discount_count",
                "count_all",
            ]
        ).rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "sum_revenue",
                "sum_disc",
                "n_disc",
                "n",
            ]
        )

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
        sum_qty=("sum_qty", "sum"),
        sum_revenue=("sum_revenue", "sum"),
        sum_disc=("sum_disc", "sum"),
        n_disc=("n_disc", "sum"),
        n=("n", "sum"),
    )
    out["avg_disc"] = out["sum_disc"] / out["n_disc"]
    out = out.drop(columns=["sum_disc", "n_disc"])
    return _round(out, {"sum_qty": 2, "sum_revenue": 1, "avg_disc": 5})


def _query_vec(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    """One query embedding via parquet predicate pushdown (J2) — not a
    per-row Python scan of the embeddings table."""
    import pyarrow.dataset as pads

    tbl = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["embedding"], filter=pads.field("vec_id") == vec_id
    )
    return np.stack(tbl["embedding"].to_numpy(zero_copy_only=False))[0]


def q_emb_knn(sf_dir: str):
    """J1 blocked dense top-k similarity join: 10 nearest neighbors of
    vec_id=0 by cosine (self excluded)."""
    embs = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    qv = _query_vec(sf_dir)
    out = sim.knn_topk(embs, qv[None, :], k=10, exclude_ids={0})
    return out[["vec_id"]].sort_values("vec_id").reset_index(drop=True)


def q_emb_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (a < b, cosine >= 0.45; the
    synthetic embeddings are near-orthogonal, so a production 0.95
    threshold would make the check vacuous)."""
    embs = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = dd.embedding_neardup_pairs(embs, "embedding", "vec_id", threshold=0.45)
    return out[["a", "b"]]


def q_doc_merge_by_first_token(sf_dir: str):
    """M14 merge_elements_with_same_first_line analog: group docs by
    their first token, concatenate bodies in doc_id order."""

    def keyed(batch: pa.Table) -> pa.Table:
        first = pc.list_element(pc.split_pattern(batch["text"], " "), 0)
        return pa.table({"first_tok": first, "doc_id": batch["doc_id"], "text": batch["text"]})

    def merge_part(batch: pa.Table) -> pa.Table:
        # key-complete block from the hash exchange: one pandas groupby
        # per partition, not one Python dispatch per group
        if batch.num_rows == 0 or "first_tok" not in batch.column_names:
            return pa.table(
                {
                    "first_tok": pa.array([], pa.string()),
                    "merged": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        df = batch.to_pandas().sort_values(["first_tok", "doc_id"])
        g = df.groupby("first_tok", sort=True)
        merged = g["text"].agg("\n".join)
        return pa.table(
            {
                "first_tok": pa.array(merged.index.to_numpy(), pa.string()),
                "merged": pa.array(merged.to_numpy(), pa.string()),
                "n_docs": pa.array(g.size().to_numpy(), pa.int64()),
            }
        )

    from ..stages.shuffle import hash_partition

    keyed_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(keyed, batch_format="pyarrow")
    return hash_partition(keyed_ds, "first_tok").map_batches(
        merge_part, batch_format="pyarrow", batch_size=None
    )


def q_events_asof_join(sf_dir: str):
    """As-of join: for each purchase, the latest signup of the same
    user at or before it (ties on ts break to the larger event_id).

    Physical plan: hash-exchange by user (every user's rows in one
    block), then ONE vectorized ``pd.merge_asof(by="user_id")`` per
    partition — no per-group Python dispatch."""
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["user_id", "event_type", "ts", "event_id"]).map_batches(
        lambda b: pa.table(
            {
                "user_id": b["user_id"],
                "event_type": b["event_type"],
                "ts": b["ts"],
                "event_id": b["event_id"],
            }
        ),
        batch_format="pyarrow",
    )
    parts = hash_partition(ev, "user_id")

    def kernel(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "signup_event_id": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return empty
        df = batch.to_pandas().sort_values(["ts", "event_id"], kind="stable")
        p = df[df["event_type"] == "purchase"][["user_id", "ts", "event_id"]]
        s = df[df["event_type"] == "signup"][["user_id", "ts", "event_id"]].rename(
            columns={"event_id": "signup_event_id"}
        )
        if p.empty or s.empty:
            return empty
        # rows are ts-sorted; with duplicate ts the LAST match wins =
        # largest event_id (the deterministic tie-break)
        out = pd.merge_asof(
            p, s, on="ts", by="user_id", direction="backward"
        ).dropna(subset=["signup_event_id"])
        return pa.table(
            {
                "event_id": pa.array(out["event_id"].to_numpy(np.int64)),
                "signup_event_id": pa.array(
                    out["signup_event_id"].to_numpy(np.int64)
                ),
            }
        )

    out = parts.map_batches(kernel, batch_format="pyarrow", batch_size=None).to_pandas()
    if out.empty:
        out = pd.DataFrame(
            {
                "event_id": pd.Series([], dtype="int64"),
                "signup_event_id": pd.Series([], dtype="int64"),
            }
        )
    return out


def q_events_sessions(sf_dir: str):
    """Sessionization (gap > 30 min starts a new session) — the
    streaming-shaped window pattern as an exchange + one vectorized
    scan per partition: sort by (user, ts), flag session starts
    (user boundary or gap), segment-sum per user."""
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["user_id", "ts"])
    parts = hash_partition(ev, "user_id")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.table(
                {"user_id": pa.array([], pa.int64()), "n_sessions": pa.array([], pa.int64())}
            )
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u, ts = u[order], ts[order]
        new_user = np.concatenate([[True], u[1:] != u[:-1]])
        gap = np.concatenate(
            [[True], (ts[1:] - ts[:-1]) > np.timedelta64(30, "m")]
        )
        start = (new_user | gap).astype(np.int64)
        ustarts = np.nonzero(new_user)[0]
        n_sessions = np.add.reduceat(start, ustarts)
        return pa.table(
            {
                "user_id": pa.array(u[ustarts]),
                "n_sessions": pa.array(n_sessions, type=pa.int64()),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_range_join(sf_dir: str):
    """Range (band) join: purchases within 1 hour at-or-after a signup
    by the same user — the bucketed band-join shape: hash exchange on
    the equi key (user), then one vectorized within-partition merge +
    interval filter (fan-out bounded by per-user event counts)."""
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["user_id", "event_type", "ts", "event_id"])
    parts = hash_partition(ev, "user_id")

    def kernel(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "signup_event_id": pa.array([], pa.int64()),
                "purchase_event_id": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return empty
        df = batch.to_pandas()
        s = df[df["event_type"] == "signup"][["user_id", "ts", "event_id"]]
        p = df[df["event_type"] == "purchase"][["user_id", "ts", "event_id"]]
        if s.empty or p.empty:
            return empty
        m = s.merge(p, on="user_id", suffixes=("_s", "_p"))
        dt = m["ts_p"] - m["ts_s"]
        keep = (dt >= pd.Timedelta(0)) & (dt < pd.Timedelta(hours=1))
        m = m[keep]
        return pa.table(
            {
                "signup_event_id": pa.array(m["event_id_s"].to_numpy(np.int64)),
                "purchase_event_id": pa.array(m["event_id_p"].to_numpy(np.int64)),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_user_value_salted(sf_dir: str):
    """Two-phase salted groupby-sum (stages/agg.py) over a vertex-like
    key — the explicit hot-key aggregation pattern."""
    from ..stages.agg import salted_sum

    out = salted_sum(
        _events(sf_dir, ["user_id", "value"]),
        ["user_id"],
        "value",
        alias="sum_value",
        salt=8,
    ).to_pandas()
    return _round(out, {"sum_value": 2})


def q_doc_pii_redact(sf_dir: str):
    """PII scrub (email/IPv4/phone -> typed placeholders) — the
    standard pre-training redaction stage, vectorized RE2 kernels
    (stages/textstats.py::pii_redact)."""
    return ts.pii_redact(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id")


def q_doc_tfidf(sf_dir: str):
    """Full (doc, term) TF-IDF table: one tokenizing scan + ONE term
    hash exchange (df = in-partition group size, idf join free)."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()
    out = ts.tfidf(docs, "text", "doc_id", n_docs).to_pandas()
    return _round(out, {"tfidf": 6})


_BM25_TERMS = ["table", "fast", "merge", "window"]


def q_doc_bm25(sf_dir: str):
    """Okapi BM25 of every document against a fixed query term set
    (stages/textstats.py::bm25_score): one posting-pruned corpus scan,
    tiny df/avgdl aggregates, per-doc int-key sum."""
    out = ts.bm25_score(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id", _BM25_TERMS).to_pandas()
    return _round(out, {"bm25": 6})


def q_events_quantiles(sf_dir: str):
    """Exact per-type p50/p90/p99 of events.value via distributed
    histogram refinement (stages/agg.py::group_quantiles) — no sort,
    no per-group collection; percentile_disc semantics so the result
    is an actual data value (bit-exact vs the SQL oracle)."""
    from ..stages.agg import group_quantiles

    tbl = group_quantiles(
        _events(sf_dir, ["event_type", "value"]),
        "event_type",
        "value",
        [0.5, 0.9, 0.99],
    )
    return tbl.to_pandas()


def q_events_quantiles_cont(sf_dir: str):
    """Interpolated per-type quantiles (percentile_cont / DuckDB
    quantile_cont): the same histogram-refinement machinery selects the
    floor/ceil order statistics and interpolates driver-side — still no
    sort and no per-group collection.  Values rounded to 6 places on
    both sides (interpolation arithmetic differs at float ulp scale)."""
    from ..stages.agg import group_quantiles

    tbl = group_quantiles(
        _events(sf_dir, ["event_type", "value"]),
        "event_type",
        "value",
        [0.25, 0.5, 0.9],
        interpolate=True,
    ).to_pandas()
    tbl["value"] = _round_away(tbl["value"].to_numpy(), 6)
    return tbl


def q_events_rollup(sf_dir: str):
    """GROUP BY ROLLUP(event_type, hour): all prefix aggregation levels
    in one scan + one exchange (stages/agg.py::rollup_sum_count);
    rolled-up keys surface as '(all)'."""
    from ..stages.agg import rollup_sum_count

    out = rollup_sum_count(
        _events_hourly_keyed(sf_dir), ["event_type", "hour"], "value"
    ).to_pandas()
    out["event_type"] = out["event_type"].fillna("(all)")
    out["hour"] = out["hour"].fillna("(all)")
    return _round(out, {"sum_value": 2})


def _events_hourly_keyed(sf_dir: str):
    """(event_type, hour-string, value) rows — the shared input shape
    of the ROLLUP and CUBE queries.  The cast to second precision
    matters: Arrow's %S renders the fractional part for sub-second
    timestamp units, which would break the strftime oracle parity."""

    def keyed(batch: pa.Table) -> pa.Table:
        hour = pc.strftime(
            pc.floor_temporal(batch["ts"], unit="hour").cast(pa.timestamp("s")),
            format="%Y-%m-%d %H:%M:%S",
        )
        return pa.table(
            {"event_type": batch["event_type"], "hour": hour, "value": batch["value"]}
        )

    return _events(sf_dir, ["event_type", "ts", "value"]).map_batches(keyed, batch_format="pyarrow")


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, hour): all four grouping sets in the
    same single-scan machinery as ROLLUP (stages/agg.py::cube_sum_count)."""
    from ..stages.agg import cube_sum_count

    out = cube_sum_count(
        _events_hourly_keyed(sf_dir), ["event_type", "hour"], "value"
    ).to_pandas()
    out["event_type"] = out["event_type"].fillna("(all)")
    out["hour"] = out["hour"].fillna("(all)")
    return _round(out, {"sum_value": 2})


def q_events_grouped_topk(sf_dir: str):
    """Grouped top-k: the 2 highest-value events per type
    (deterministic event_id tie-break) — hash exchange on the group,
    one vectorized per-partition selection (the row_number()<=k window
    shape)."""
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["event_type", "event_id", "value"])
    parts = hash_partition(ev, "event_type")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "event_id": pa.array([], pa.int64()),
                    "value": pa.array([], pa.float64()),
                }
            )
        from ..functions.pairs import pos_in_group

        et = batch["event_type"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, -v, et))
        et, eid, v = et[order], eid[order], v[order]
        keep = pos_in_group(et) < 2
        return pa.table(
            {
                "event_type": pa.array(et[keep], pa.string()),
                "event_id": pa.array(eid[keep], pa.int64()),
                "value": pa.array(v[keep], pa.float64()),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_distinct_users(sf_dir: str):
    """COUNT(DISTINCT user_id) per event_type: one hash-distinct
    exchange on the pair key, then a vectorized per-partition group
    count — no second shuffle (the distinct exchange already
    co-locates a pair's rows, and a pair's TYPE rides along)."""
    from ..stages.shuffle import hash_distinct

    def pair_key(batch: pa.Table) -> pa.Table:
        # SQL COUNT(DISTINCT) excludes NULLs: drop them up front — a
        # nullable int64 arrives as float64 + NaN, and astype(str) would
        # otherwise mint a literal 'nan' user per event_type
        batch = batch.filter(pc.is_valid(batch["user_id"]))
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        # "|" separator ("\x00" is stripped as numpy fixed-width
        # padding, leaving NO delimiter — prefix-related type names
        # would silently collide); uids are digits, so "|" is safe
        key = np.char.add(np.char.add(et.astype(str), "|"), uid.astype(str))
        return pa.table(
            {"pair": pa.array(key, pa.string()), "event_type": batch["event_type"]}
        )

    pairs = hash_distinct(
        _events(sf_dir, ["event_type", "user_id"])
        .map_batches(pair_key, batch_format="pyarrow"),
        "pair",
    )

    def count_part(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return pa.table(
                {"event_type": pa.array([], pa.string()), "n_part": pa.array([], pa.int64())}
            )
        et = batch["event_type"].to_numpy(zero_copy_only=False).astype(str)
        uniq, cnt = np.unique(et, return_counts=True)
        return pa.table(
            {"event_type": pa.array(uniq, pa.string()), "n_part": pa.array(cnt, pa.int64())}
        )

    # final combine: the partials are already type-cardinality-sized per
    # block — a tiny driver-side pandas sum, not a Dataset.groupby shuffle
    parts = pairs.map_batches(
        count_part, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if parts.empty:  # all-empty to_pandas drops schema
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=object),
                "n_users": pd.Series([], dtype="int64"),
            }
        )
    out = parts.groupby("event_type", as_index=False, sort=False)["n_part"].sum()
    out = out.rename(columns={"n_part": "n_users"})
    out["n_users"] = out["n_users"].astype("int64")
    return out


_PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_events_pivot(sf_dir: str):
    """Pivot: per-user event counts, one column per event type
    (conditional aggregation) — per-batch (user, type) bincount
    partials, then ONE user-keyed exchange carrying the whole packed
    count matrix (never a shuffle per pivot column)."""
    from ..stages.shuffle import hash_partition

    tarr = np.array(_PIVOT_TYPES)  # sorted; searchsorted = vectorized code lookup

    def partials(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = batch["event_type"].to_numpy(zero_copy_only=False).astype(str)
        code = np.searchsorted(tarr, et)
        code[code >= len(tarr)] = len(tarr) - 1
        bad = tarr[code] != et
        if bad.any():
            raise ValueError(f"unknown event_type values: {sorted(set(et[bad]))[:5]}")
        uniq, inv = np.unique(uid, return_inverse=True)
        mat = np.zeros((len(uniq), len(_PIVOT_TYPES)), dtype=np.int64)
        np.add.at(mat, (inv, code), 1)
        cols = {"user_id": pa.array(uniq, pa.int64())}
        for i, t in enumerate(_PIVOT_TYPES):
            cols[f"n_{t}"] = pa.array(mat[:, i], pa.int64())
        return pa.table(cols)

    parts = hash_partition(
        _events(sf_dir, ["user_id", "event_type"])
        .map_batches(partials, batch_format="pyarrow"),
        "user_id",
    )

    def combine(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                **{f"n_{t}": pa.array([], pa.int64()) for t in _PIVOT_TYPES},
            }
        )
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return empty
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(uid, return_inverse=True)
        cols = {"user_id": pa.array(uniq, pa.int64())}
        for t in _PIVOT_TYPES:
            v = batch[f"n_{t}"].to_numpy(zero_copy_only=False)
            cols[f"n_{t}"] = pa.array(np.bincount(inv, weights=v).astype(np.int64))
        return pa.table(cols)

    return parts.map_batches(combine, batch_format="pyarrow", batch_size=None)


def q_events_moving_avg(sf_dir: str):
    """Sliding-window mean (3 preceding + current) per user ordered by
    (ts, event_id): hash exchange on user, then one vectorized
    shifted-add kernel per key-complete partition — the ROWS BETWEEN
    window shape without per-group dispatch."""
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["user_id", "ts", "event_id", "value"])
    parts = hash_partition(ev, "user_id")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.table(
                {"event_id": pa.array([], pa.int64()), "mov_avg": pa.array([], pa.float64())}
            )
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        t = batch["ts"].to_numpy(zero_copy_only=False)
        e = batch["event_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        from ..functions.pairs import pos_in_group

        order = np.lexsort((e, t, u))
        u, e, v = u[order], e[order], v[order]
        pos = pos_in_group(u)
        # forward-order shifted adds = sequential v[i-3]+v[i-2]+v[i-1]+v[i];
        # NULL values are skipped from BOTH numerator and denominator
        # (SQL window avg semantics) — an all-null window yields NULL
        valid = ~np.isnan(v)
        vz = np.where(valid, v, 0.0)
        s = np.zeros(len(u), dtype=np.float64)
        cnt = np.zeros(len(u), dtype=np.int64)
        for back in (3, 2, 1, 0):
            m = pos >= back
            src = np.nonzero(m)[0] - back
            s[m] += vz[src]
            cnt[m] += valid[src]
        mov = _round_away(s / np.maximum(cnt, 1), 6)
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "mov_avg": pa.array(mov, pa.float64(), mask=(cnt == 0)),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_global_cumsum(sf_dir: str):
    """Globally-ordered running sum of ``value`` over (ts, event_id) —
    the distributed prefix scan (stages/agg.py::global_running_sum):
    range exchange on ts, per-partition sorted local scan in exact
    int64 fixed-point, exclusive scan over the P partition totals
    (P scalars on the driver, never data) added back blockwise.  The
    fixed-point arithmetic makes the distributed reassociation
    bit-equal to DuckDB's serial window regardless of partition count."""
    from ..stages.agg import global_running_sum

    ev = _events(sf_dir, ["ts", "event_id", "value"])
    return global_running_sum(
        ev, order_col="ts", tiebreak_col="event_id", value_col="value"
    )


def q_events_rank_stats(sf_dir: str):
    """PERCENT_RANK / CUME_DIST (tie-aware over ORDER BY value) and
    NTILE(4) (over the total order (value, event_id)) per event_type —
    the rank-window family as ONE hash exchange on the partition key +
    a vectorized run-boundary kernel per key-complete partition.
    percent_rank = (rank-1)/(n-1) with rank = 1 + rows strictly below
    the tie run; cume_dist = (rows <= current)/n; ntile buckets: first
    n%4 buckets get ceil(n/4) rows (SQL NTILE).  Reference analog:
    none (training-data lineage/window family)."""
    from ..functions.pairs import pos_in_group
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["event_type", "event_id", "value"])
    parts = hash_partition(ev, "event_type")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "prank": pa.array([], pa.float64()),
                    "cdist": pa.array([], pa.float64()),
                    "tile": pa.array([], pa.int64()),
                }
            )
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, v, et))
        et, eid, v = et[order], eid[order], v[order]
        rn = pos_in_group(et)  # 0-based row_number over (value, event_id)
        group_start = np.nonzero(rn == 0)[0]
        gid = np.cumsum(rn == 0) - 1
        n_g = np.diff(np.concatenate([group_start, [len(et)]]))[gid]
        # tie runs over value within the group
        new_run = np.concatenate([[True], (np.diff(v) != 0)]) | (rn == 0)
        idx = np.arange(len(et), dtype=np.int64)
        run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
        # run end = next run's start - 1 (per group handled: group head
        # always starts a run)
        run_id = np.cumsum(new_run) - 1
        starts_arr = idx[new_run]
        run_len = np.diff(np.concatenate([starts_arr, [len(et)]]))[run_id]
        run_end = run_start + run_len - 1
        rank = run_start - group_start[gid]  # 0-based rows strictly below
        below_eq = run_end - group_start[gid] + 1
        prank = np.where(n_g > 1, rank / np.maximum(n_g - 1, 1), 0.0)
        cdist = below_eq / n_g
        # NTILE(4): first r buckets get q+1 rows
        q, r = n_g // 4, n_g % 4
        cut = r * (q + 1)
        tile = np.where(
            rn < cut,
            rn // np.maximum(q + 1, 1),
            r + np.where(q > 0, (rn - cut) // np.maximum(q, 1), 0),
        ) + 1
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "prank": pa.array(prank, pa.float64()),
                "cdist": pa.array(cdist, pa.float64()),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_user_cumsum(sf_dir: str):
    """Per-user running sum + running non-null count of ``value``
    ordered by (ts, event_id) — the PARTITION BY prefix scan: one hash
    exchange on the partition key, then a vectorized grouped cumsum per
    key-complete partition (global cumsum minus each group's start
    offset — no per-group dispatch).  Like the global scan, the sum
    runs in exact int64 fixed-point so it hashes bit-equal to the
    serial SQL window; a window whose prefix is all-NULL yields NULL
    (SQL SUM semantics).  Reference analog: none (training-data
    lineage/window family, e.g. per-conversation running token
    budgets)."""
    from ..functions.pairs import pos_in_group
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["user_id", "ts", "event_id", "value"])
    parts = hash_partition(ev, "user_id")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "running_value": pa.array([], pa.float64()),
                    "running_n": pa.array([], pa.int64()),
                }
            )
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        t = batch["ts"].to_numpy(zero_copy_only=False)
        e = batch["event_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((e, t, u))
        u, e, v = u[order], e[order], v[order]
        valid = ~np.isnan(v)
        # half-away-from-zero (DECIMAL cast rule), like agg.py's scan
        iv = np.where(
            valid, np.sign(v) * np.floor(np.abs(v) * 1000 + 0.5), 0.0
        ).astype(np.int64)
        pos = pos_in_group(u)
        start = np.arange(len(u)) - pos  # index of each row's group head
        c = np.cumsum(iv)
        gc = c - c[start] + iv[start]
        n = np.cumsum(valid.astype(np.int64))
        gn = n - n[start] + valid[start]
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "running_value": pa.array(
                    gc.astype(np.float64) / 1000.0, pa.float64(), mask=gn == 0
                ),
                "running_n": pa.array(gn, pa.int64()),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_lead_lag(sf_dir: str):
    """ROW_NUMBER / LAG / LEAD per user ordered by (ts, event_id) —
    the offset-window family (reference analog: none; standard
    training-data lineage ops) as ONE hash exchange on the partition
    key + a vectorized shifted-gather kernel per key-complete
    partition.  Group boundaries mask the shifted values to NULL
    (SQL LAG/LEAD default)."""
    from ..functions.pairs import pos_in_group
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["user_id", "ts", "event_id", "value"])
    parts = hash_partition(ev, "user_id")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "rn": pa.array([], pa.int64()),
                    "prev_value": pa.array([], pa.float64()),
                    "next_value": pa.array([], pa.float64()),
                }
            )
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        t = batch["ts"].to_numpy(zero_copy_only=False)
        e = batch["event_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((e, t, u))
        u, e, v = u[order], e[order], v[order]
        pos = pos_in_group(u)  # 0-based rank within user
        n = len(u)
        prev = np.roll(v, 1)
        nxt = np.roll(v, -1)
        first = pos == 0  # user boundary: no predecessor
        last = np.concatenate([first[1:], [True]])  # no successor
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "rn": pa.array(pos + 1, pa.int64()),
                # mask NaN too: LAG/LEAD of a NULL value is NULL in SQL
                "prev_value": pa.array(prev, pa.float64(), mask=first | np.isnan(prev)),
                "next_value": pa.array(nxt, pa.float64(), mask=last | np.isnan(nxt)),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def q_events_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: 2 rows per event_type, chosen
    by md5(event_id) order — reproducible sampling whose SQL twin is a
    row_number() window, one hash exchange + a vectorized per-partition
    top-n."""
    from ..functions.hashing import md5_hex
    from ..stages.shuffle import hash_partition

    ev = _events(sf_dir, ["event_type", "event_id"])
    parts = hash_partition(ev, "event_type")

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return pa.table(
                {"event_type": pa.array([], pa.string()), "event_id": pa.array([], pa.int64())}
            )
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        from ..functions.pairs import pos_in_group

        h = md5_hex(eid.astype(str).astype(object)).to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, h, et))
        et, eid = et[order], eid[order]
        keep = pos_in_group(et) < 2
        return pa.table(
            {
                "event_type": pa.array(et[keep], pa.string()),
                "event_id": pa.array(eid[keep], pa.int64()),
            }
        )

    return parts.map_batches(kernel, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# rows-only queries (no SQL equivalent; verified by pytest oracles)
# ---------------------------------------------------------------------------


def q_events_quantiles_sketch(sf_dir: str):
    """Approximate per-type quantiles via the mergeable bottom-k-by-hash
    sketch (stages/agg.py::grouped_quantile_sketch) — the unbounded-
    group-cardinality companion to the exact histogram refinement;
    approx by design, so rows-only (pytest bounds the rank error)."""
    from ..stages.agg import grouped_quantile_sketch

    return grouped_quantile_sketch(
        _events(sf_dir, ["event_type", "value", "event_id"]),
        "event_type",
        "value",
        "event_id",
        [0.5, 0.9, 0.99],
    )


def q_events_distinct_users_sketch(sf_dir: str):
    """Approximate grouped distinct count via the KMV bottom-k sketch
    (stages/agg.py::grouped_distinct_sketch) — exact below k distinct,
    ~1/sqrt(k) relative error above; approx by design, rows-only
    (pytest bounds the error; the exact twin is events_distinct_users)."""
    from ..stages.agg import grouped_distinct_sketch

    return grouped_distinct_sketch(
        _events(sf_dir, ["event_type", "user_id"]),
        "event_type",
        "user_id",
    )


def q_doc_minhash_lsh(sf_dir: str):
    out = dd.minhash_lsh_pairs(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id", n=3, threshold=0.2)
    return _round(out, {"jaccard": 6})


def q_doc_simhash(sf_dir: str):
    return dd.simhash(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id")


def q_doc_langid(sf_dir: str):
    return ts.lang_id(_docs(sf_dir, ["doc_id", "text"]), "text", "doc_id")


def q_emb_neardup_lsh(sf_dir: str):
    """Approximate (hyperplane-LSH-bucketed) near-dup — the 100-TB
    scale path; exact verify within buckets so precision is 1."""
    embs = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = dd.embedding_neardup_lsh(
        embs, "embedding", "vec_id", threshold=0.45, n_bits=6, n_tables=8
    )
    return _round(out[["a", "b", "cosine"]], {"cosine": 6})


def q_emb_ann_lsh(sf_dir: str):
    embs = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    qv = _query_vec(sf_dir)
    out = sim.lsh_ann_topk(embs, qv[None, :], k=10, exclude_ids={0})
    return out[["vec_id", "score"]].pipe(_round, {"score": 6})


def q_emb_ann_ivf(sf_dir: str):
    """IVF-partitioned ANN (coarse quantizer + probed cells) — the
    second approximate scale path beside hyperplane LSH."""
    embs = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet")).materialize()
    qv = _query_vec(sf_dir)
    out = sim.ivf_ann_topk(
        embs, qv[None, :], k=10, n_centroids=8, n_probe=3, exclude_ids={0}
    )
    return out[["vec_id", "score"]].pipe(_round, {"score": 6})


def q_doc_triangles(sf_dir: str):
    """Distributed triangle count over the document token co-occurrence
    graph — SQL-verifiable end-to-end (extraction -> graph -> count)."""
    from ..algos.triangles import triangle_count

    d, n = doc_graph_for(sf_dir)
    edges = rd.read_parquet(os.path.join(d, "adj"), columns=["src", "dst"])
    total, _ = triangle_count(edges, n)
    return pd.DataFrame({"n_triangles": [int(total)]})


def q_doc_cc(sf_dir: str):
    """Distributed connected components over the document token graph,
    labeled by the lexicographically smallest member entity —
    SQL-verifiable via a recursive reachability closure."""
    from ..algos.iterate import connected_components
    from ..state.csr import ShardedGraph

    from ..algos.iterate import labels_dataset

    d, n = doc_graph_for(sf_dir)
    sg = ShardedGraph(os.path.join(d, "adj"), n)
    try:
        connected_components(sg, collect=False)
        lab = labels_dataset(sg, "component")
    finally:
        sg.shutdown()
    # vid order == sorted(entity), so min member vid == lexicographic min;
    # naming is two bucketed joins — no vertex-sized driver readback
    return _label_entities(d, lab, "component")


_PR_ITERS = 5  # fixed-iteration count shared by engine and SQL oracle


def q_doc_pagerank(sf_dir: str):
    """Fixed-iteration power-iteration PageRank over the document token
    graph (A4, SimpleGraph.kt:130-182 semantics: damping 0.5, uniform
    reset, dangling mass through the reset) — SQL-checkable because the
    iteration count is fixed and messages run float64 (precise=True)."""
    from ..algos.iterate import pagerank, scores_dataset

    from ..state.csr import ShardedGraph

    d, n = doc_graph_for(sf_dir)
    sg = ShardedGraph(os.path.join(d, "adj"), n, precise=True)
    try:
        pagerank(sg, damping=0.5, tol=0.0, max_iter=_PR_ITERS, collect=False)
        sds = scores_dataset(sg, 0)
    finally:
        sg.shutdown()
    return _named_scores(d, sds)


def q_doc_ppr(sf_dir: str):
    """Fixed-iteration personalized PageRank seeded at the 3
    lexicographically smallest tokens (= vids 0..2 under the sorted
    dense-id contract) — the HippoRAG retrieval primitive with a SQL
    oracle."""
    from ..algos.iterate import personalized_pagerank, scores_dataset
    from ..state.csr import ShardedGraph

    d, n = doc_graph_for(sf_dir)
    k = min(3, n)
    sg = ShardedGraph(os.path.join(d, "adj"), n, precise=True)
    try:
        personalized_pagerank(
            sg,
            resets=[(np.arange(k, dtype=np.int64), np.ones(k))],
            n_queries=1,
            damping=0.5,
            tol=0.0,
            max_iter=_PR_ITERS,
            collect=False,
        )
        sds = scores_dataset(sg, 0)
    finally:
        sg.shutdown()
    return _named_scores(d, sds)


_LP_ITERS = 3


def q_doc_lp(sf_dir: str):
    """Fixed-iteration synchronous weighted label propagation over the
    document token graph (max-vote, smallest-label tie-break;
    SURVEY.md §7.2 step 9) — labels reported as entity names (vid order
    == sorted entity order, so tie-breaks agree with the SQL oracle's
    string comparisons)."""
    from ..algos.iterate import label_propagation, labels_dataset
    from ..state.csr import ShardedGraph

    d, n = doc_graph_for(sf_dir)
    sg = ShardedGraph(os.path.join(d, "adj"), n)
    try:
        label_propagation(sg, max_iter=_LP_ITERS, collect=False)
        lab = labels_dataset(sg, "label")
    finally:
        sg.shutdown()
    return _label_entities(d, lab, "label")


_KCORE_K = 2
_KCORE_FRAC = 0.66  # edge kept iff co-occurrence weight >= frac * n_docs


def _doc_core_named(sf_dir: str, k: int, cols: tuple[str, ...]):
    """The ``cols`` of (entity, coreness) for the vertices with coreness
    >= ``k`` (k >= 1) over the STRONG co-occurrence graph: token pairs
    kept iff they co-occur in at least ``_KCORE_FRAC`` of the docs (the
    unthresholded token graph is complete at bench scale, which would
    make any k < n trivial).  One coreness run on the shard pool, named
    through one bucketed join."""
    from ..algos.iterate import coreness, labels_dataset
    from ..stages.shuffle import hash_join
    from ..state.csr import ShardedGraph

    types = {"entity": pa.string(), "coreness": pa.int64()}
    schema = {c: types[c] for c in cols}
    d, n = doc_graph_for(sf_dir, weight_frac=_KCORE_FRAC)
    adj_dir = os.path.join(d, "adj")
    empty = not os.path.isdir(adj_dir) or not any(
        f.name.endswith(".parquet") for f in os.scandir(adj_dir)
    )
    if empty or rd.read_parquet(adj_dir).count() == 0:
        # a plain Arrow table: an all-empty Dataset's to_pandas drops
        # the schema (even via from_arrow), failing the column compare
        return pa.table({c: pa.array([], t) for c, t in schema.items()})
    sg = ShardedGraph(adj_dir, n)
    try:
        coreness(sg, collect=False)
        lab = labels_dataset(sg, "coreness")
    finally:
        sg.shutdown()
    core = lab.map_batches(
        lambda b: b.filter(pc.greater_equal(b["coreness"], pa.scalar(k, pa.int64()))),
        batch_format="pyarrow",
    )

    def fin(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("entity", "coreness"), schema)
        return b.select(list(cols)) if e is None else e

    return hash_join(core, _doc_vertex_names(d), "vid").map_batches(
        fin, batch_format="pyarrow"
    )


def q_doc_kcore(sf_dir: str):
    """k-core membership over the STRONG co-occurrence graph: v is in
    the k-core exactly when coreness(v) >= k, so this reads the
    ★`doc_coreness` pool run (``_doc_core_named``) at k = ``_KCORE_K``;
    the SQL twin peels.  Reference analog: none — extends the
    link-graph algo family."""
    return _doc_core_named(sf_dir, _KCORE_K, ("entity",))


def q_doc_coreness(sf_dir: str):
    """Full k-core decomposition (per-vertex core number) over the
    STRONG co-occurrence graph, by the distributed synchronous h-index
    iteration on the shard-actor pool (algos/iterate.py::coreness —
    same fused message/pull waves as CC/LP, hub neighbor multisets as
    run-length COO partials).  Output = (entity, coreness) for
    vertices in the thresholded edge set (coreness >= 1); SQL twin is
    the chained h-index CTE.  Reference analog: none."""
    return _doc_core_named(sf_dir, 1, ("entity", "coreness"))


def q_doc_sample(sf_dir: str):
    """Deterministic systematic sample (every 8th doc: doc_id & 7 == 0,
    matching the SQL oracle's doc_id % 8 = 0) with the predicate pushed
    into the parquet read."""
    import pyarrow.dataset as pads

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )
    return ds.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 7), 0)),
        batch_format="pyarrow",
    )


def q_tx_graph_info(sf_dir: str):
    """A9 graph info: node/edge counts by class on the transcript graph."""
    from ..functions.facts import graph_info

    info = graph_info(graph_for(sf_dir))
    flat = {
        "n_vertices": [info["n_vertices"]],
        "n_edge_records": [info["n_edge_records"]],
        "n_chunks": [info["nodes_by_kind"].get("chunk", 0)],
        "n_entities": [info["nodes_by_kind"].get("entity", 0)],
        "n_fact_records": [info["edges_by_etype"].get("fact", 0)],
        "n_passage_records": [info["edges_by_etype"].get("passage", 0)],
    }
    return pd.DataFrame(flat)


def q_media_decode(sf_dir: str):
    """Multimodal plumbing: synthetic binary media -> actor-pool decode
    (deterministic fake codec) -> resize metadata.  Row count scales
    with sf; payloads are opaque binary columns."""
    from ..stages.multimodal import ResizeImage, decode_pipeline, make_fake_media

    n = max(100, int(20_000 * sf_of(sf_dir)))
    media = rd.from_arrow(make_fake_media(n))
    decoded = decode_pipeline(media, batch_size=128, fake=True)
    return decoded.map_batches(ResizeImage(max_side=32), batch_format="pyarrow").select_columns(
        ["media_id", "phash", "width", "height"]
    )


def q_media_decode_real(sf_dir: str):
    """REAL image decode: a deterministic mixed corpus of valid PNG,
    JPEG and GIF payloads decoded by the pure-numpy codecs
    (functions/{png,jpeg,gif}.py — dispatch on signature bytes) in an
    actor pool — real pixels, real block-mean features, real 8x8
    average phash (decoded dims, not metadata)."""
    from ..stages.multimodal import ResizeImage, decode_pipeline, make_real_media

    n = max(50, int(5_000 * sf_of(sf_dir)))
    media = rd.from_arrow(make_real_media(n))
    decoded = decode_pipeline(media, batch_size=64, fake=False)
    return decoded.map_batches(ResizeImage(max_side=32), batch_format="pyarrow").select_columns(
        ["media_id", "phash", "width", "height"]
    )


def q_media_audio(sf_dir: str):
    """REAL audio decode: a deterministic corpus of valid PCM WAV
    payloads parsed by the numpy RIFF codec (functions/wav.py) in an
    actor pool — real waveforms, real RMS/ZCR/centroid/band features."""
    from ..stages.multimodal import audio_pipeline, make_real_audio

    n = max(50, int(5_000 * sf_of(sf_dir)))
    media = rd.from_arrow(make_real_audio(n))
    out = audio_pipeline(media, batch_size=64)
    return out.map_batches(
        lambda b: pa.table(
            {
                "media_id": b["media_id"],
                "sample_rate": b["sample_rate"],
                "duration_ms": pa.array(
                    _round_away(b["duration_ms"].to_numpy(zero_copy_only=False), 3)
                ),
                "rms": pa.array(_round_away(b["rms"].to_numpy(zero_copy_only=False), 6)),
                "zcr": pa.array(_round_away(b["zcr"].to_numpy(zero_copy_only=False), 6)),
            }
        ),
        batch_format="pyarrow",
    )


def q_media_frames(sf_dir: str):
    """Multimodal video plumbing: synthetic binary videos -> actor-pool
    uniform frame sampling (deterministic fake codec) -> per-frame
    feature rows."""
    from ..stages.multimodal import frame_sample_pipeline, make_fake_video

    n = max(50, int(10_000 * sf_of(sf_dir)))
    videos = rd.from_arrow(make_fake_video(n))
    return frame_sample_pipeline(videos, max_frames=4, batch_size=64, fake=True)


def q_media_frames_real(sf_dir: str):
    """REAL video frame sampling: deterministic mixed APNG + animated
    GIF clips decoded by the numpy codecs — uniform frame selection;
    APNG decompresses only the sampled frames, GIF pays the sequential
    prefix decode its delta format requires (functions/gif.py) —
    emitting real per-frame block features + phash."""
    from ..stages.multimodal import frame_sample_pipeline, make_real_video

    n = max(30, int(2_000 * sf_of(sf_dir)))
    videos = rd.from_arrow(make_real_video(n))
    return frame_sample_pipeline(
        videos, max_frames=4, batch_size=32, fake=False
    ).select_columns(["media_id", "frame_idx", "phash"])


def q_tx_pagerank(sf_dir: str):
    from ..algos.iterate import pagerank, scores_dataset
    from ..state.csr import ShardedGraph

    g = graph_for(sf_dir)
    sg = ShardedGraph(g.adj_path, g.n_vertices)
    try:
        pagerank(sg, collect=False)
        sds = scores_dataset(sg, 0)
    finally:
        sg.shutdown()
    return sds.map_batches(
        lambda b: pa.table(
            {
                "vid": b["vid"],
                "score": pa.array(
                    _round_away(b["score"].to_numpy(zero_copy_only=False), 9)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_tx_ppr(sf_dir: str):
    """HippoRAG's retrieval primitive: PPR from the 5 highest-degree
    entities, top-200 chunk ranking (K3/K7 semantics)."""
    from ..algos.iterate import personalized_pagerank, topk_chunks
    from ..state.csr import ShardedGraph

    import ray

    from ..stages.shuffle import hash_join

    g = graph_for(sf_dir)
    # seed selection: distributed degree count ⋈ entity vertices, then a
    # sort+limit(5) — only the 5 seed rows reach the driver.  Degrees
    # go through the int-key sum exchange (the groupby-count shape it
    # replaces is the measured slow path; see shuffle.py header).
    from ..stages.shuffle import int_key_sum

    ones = g.adj().map_batches(
        lambda b: pa.table(
            {"src": b["src"], "deg": pa.array(np.ones(b.num_rows, np.float64))}
        ),
        batch_format="pyarrow",
    )
    deg = int_key_sum(ones, "src", "deg").map_batches(
        lambda b: pa.table(
            {
                "vid": b["src"],
                "deg": pc.cast(pc.round(b["deg"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    ent = g.vertices().map_batches(
        lambda b: b.filter(pc.equal(b["kind"], "entity")).select(["vid"]),
        batch_format="pyarrow",
    )

    def seed_guard(b: pa.Table) -> pa.Table:
        e = _empty_or(b, ("vid", "deg"), {"vid": pa.int64(), "deg": pa.int64()})
        if e is not None:
            return e
        return pa.table({"vid": b["vid"], "deg": b["deg"]})

    seeds = (
        hash_join(deg, ent, "vid")
        .map_batches(seed_guard, batch_format="pyarrow")
        .sort(["deg", "vid"], descending=[True, True])
        .limit(5)
        .to_pandas()["vid"]
        .to_numpy(np.int64)
    )
    sg = ShardedGraph(g.adj_path, g.n_vertices)
    try:
        personalized_pagerank(
            sg, resets=[(seeds, np.ones(len(seeds)))], n_queries=1, collect=False
        )
        ray.get([a.load_kinds.remote(g.vertex_parts) for a in sg.actors])
        ((vids, scs),) = topk_chunks(sg, [0], 200)
    finally:
        sg.shutdown()
    return pd.DataFrame({"vid": vids, "score": np.round(scs, 9)})


def q_tx_cc(sf_dir: str):
    from ..algos.iterate import connected_components
    from ..state.csr import ShardedGraph

    from ..algos.iterate import labels_dataset

    g = graph_for(sf_dir)
    sg = ShardedGraph(g.adj_path, g.n_vertices)
    try:
        connected_components(sg, collect=False)
        lab = labels_dataset(sg, "component")
    finally:
        sg.shutdown()
    return lab


def q_tx_coreness(sf_dir: str):
    """Engine-scale core decomposition on the transcript entity graph
    (simple-graph core number — parallel fact/passage records and
    self-loops are not extra neighbors, see algos/iterate.py::coreness).
    Rows-only: the twin with a DuckDB oracle is ★`doc_coreness`."""
    from ..algos.iterate import coreness, labels_dataset
    from ..state.csr import ShardedGraph

    g = graph_for(sf_dir)
    sg = ShardedGraph(g.adj_path, g.n_vertices)
    try:
        coreness(sg, collect=False)
        lab = labels_dataset(sg, "coreness")
    finally:
        sg.shutdown()
    return lab


def q_tx_lp(sf_dir: str):
    from ..algos.iterate import label_propagation
    from ..state.csr import ShardedGraph

    from ..algos.iterate import labels_dataset

    g = graph_for(sf_dir)
    sg = ShardedGraph(g.adj_path, g.n_vertices)
    try:
        label_propagation(sg, max_iter=10, collect=False)
        lab = labels_dataset(sg, "label")
    finally:
        sg.shutdown()
    return lab


def q_tx_triangles(sf_dir: str):
    from ..algos.triangles import triangle_count

    g = graph_for(sf_dir)
    total, per = triangle_count(g.edges(), g.n_vertices)
    return pd.DataFrame({"n_triangles": [total]})


def q_tx_eval_recall(sf_dir: str):
    """End-to-end retrieval evaluation (A7): for 8 seed entities, gold
    = chunks containing the entity (passage edges); prediction = PPR
    top-k chunks from that entity; report recall@k."""
    from ..algos.iterate import personalized_pagerank, topk_chunks
    from ..stages.evalops import recall_at_k
    from ..state.csr import ShardedGraph

    import ray

    from ..stages.shuffle import int_key_sum

    g = graph_for(sf_dir)
    # passage edges, batch-filtered (no per-row scan, never collected whole)
    passage = g.edges().map_batches(
        lambda b: b.filter(pc.equal(b["etype"], "passage")).select(["src", "dst"]),
        batch_format="pyarrow",
    ).materialize()
    # seed pick: 8 lowest-vid mid-frequency entities (3..50 chunks),
    # degree via the int-key sum exchange + sort/limit — only 8 rows
    # and their gold chunk lists ever reach the driver
    cnt = int_key_sum(
        passage.map_batches(
            lambda b: pa.table(
                {"dst": b["dst"], "one": pa.array(np.ones(b.num_rows))}
            ),
            batch_format="pyarrow",
        ).materialize(),
        "dst",
        "one",
    ).materialize()
    band = cnt.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b["one"], pa.scalar(3.0)),
                pc.less_equal(b["one"], pa.scalar(50.0)),
            )
        ),
        batch_format="pyarrow",
    )
    def _first8(ds):
        df = ds.sort("dst").limit(8).to_pandas()
        # all-empty datasets drop the schema in to_pandas — guard
        if "dst" not in df.columns:
            return np.zeros(0, np.int64)
        return df["dst"].to_numpy(np.int64)

    seeds = _first8(band)
    if len(seeds) == 0:
        seeds = _first8(cnt)
    seeds_ref = ray.put(np.sort(seeds))
    gold_df = passage.map_batches(
        lambda b: b.filter(
            pa.array(
                np.isin(
                    b["dst"].to_numpy(zero_copy_only=False), ray.get(seeds_ref)
                )
            )
        ),
        batch_format="pyarrow",
    ).to_pandas()
    by_ent = gold_df.groupby("dst")["src"].agg(list)
    sg = ShardedGraph(g.adj_path, g.n_vertices)
    try:
        personalized_pagerank(
            sg,
            resets=[(np.array([s]), np.ones(1)) for s in seeds],
            n_queries=len(seeds),
            collect=False,
        )
        ray.get([a.load_kinds.remote(g.vertex_parts) for a in sg.actors])
        tops = topk_chunks(sg, range(len(seeds)), 50)
    finally:
        sg.shutdown()
    rows = [
        {"pred": vids.tolist(), "gold": by_ent[s]} for s, (vids, _) in zip(seeds, tops)
    ]
    out = recall_at_k(rd.from_items(rows), ks=(1, 10, 50))
    return pd.DataFrame({k: [_round_half(v)] for k, v in out.items()})


def _round_half(v: float, nd: int = 6) -> float:
    # scalar shim over the ONE rounding-rule definition (_round_away)
    return float(_round_away(np.array([v]), nd)[0])


def q_tx_extract(sf_dir: str):
    """Extraction with per-turn text-equality lineage columns."""
    tx = synth_transcripts_for(sf_dir)
    return extract_mentions(rd.read_parquet(tx), include_role_tool=False)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES = {
    # order matters: a consumer that samples the head of the catalog
    # gets the DuckDB-oracle-checked entries (oracle_sql()) first; the
    # rows-only entries follow, and the four approximate-by-design
    # ones (LSH / ANN candidates) close the list
    "doc_normalize": q_doc_normalize,
    "doc_token_count": q_doc_token_count,
    "doc_regex_extract": q_doc_regex_extract,
    "doc_json_repair": q_doc_json_repair,
    "doc_llm_ner": q_doc_llm_ner,
    "doc_prompt_render": q_doc_prompt_render,
    "doc_token_count_bpe": q_doc_token_count_bpe,
    "doc_mentions": q_doc_mentions,
    "doc_vertices": q_doc_vertices,
    "doc_cooccur": q_doc_cooccur,
    "doc_triples": q_doc_triples,
    "doc_openie": q_doc_openie,
    "doc_fact_edges": q_doc_fact_edges,
    "doc_exact_dedup": q_doc_exact_dedup,
    "doc_stats": q_doc_stats,
    "doc_quality": q_doc_quality,
    "doc_fingerprint": q_doc_fingerprint,
    "doc_ngram_jaccard": q_doc_ngram_jaccard,
    "doc_simhash": q_doc_simhash,
    "doc_langid": q_doc_langid,
    "doc_merge_by_first_token": q_doc_merge_by_first_token,
    "events_asof_join": q_events_asof_join,
    "events_range_join": q_events_range_join,
    "events_sessions": q_events_sessions,
    "events_user_value_salted": q_events_user_value_salted,
    "events_by_type": q_events_by_type,
    "events_minmax": q_events_minmax,
    "events_topk": q_events_topk,
    "events_hourly": q_events_hourly,
    "orders_by_nation": q_orders_by_nation,
    "orders_by_segment": q_orders_by_segment,
    "shipping_priority": q_shipping_priority,
    "customers_no_orders": q_customers_no_orders,
    "customer_orders_full_outer": q_customer_orders_full_outer,
    "customers_with_orders": q_customers_with_orders,
    "lineitem_pricing": q_lineitem_pricing,
    "emb_knn": q_emb_knn,
    "emb_neardup": q_emb_neardup,
    "doc_triangles": q_doc_triangles,
    "doc_cc": q_doc_cc,
    "doc_pagerank": q_doc_pagerank,
    "doc_ppr": q_doc_ppr,
    "doc_lp": q_doc_lp,
    "doc_kcore": q_doc_kcore,
    "doc_coreness": q_doc_coreness,
    "doc_sample": q_doc_sample,
    "tx_graph_info": q_tx_graph_info,
    "tx_extract": q_tx_extract,
    "tx_triangles": q_tx_triangles,
    "doc_pii_redact": q_doc_pii_redact,
    "doc_tfidf": q_doc_tfidf,
    "doc_bm25": q_doc_bm25,
    "events_quantiles": q_events_quantiles,
    "events_quantiles_cont": q_events_quantiles_cont,
    "events_rollup": q_events_rollup,
    "events_cube": q_events_cube,
    "events_grouped_topk": q_events_grouped_topk,
    "events_moving_avg": q_events_moving_avg,
    "events_lead_lag": q_events_lead_lag,
    "events_global_cumsum": q_events_global_cumsum,
    "events_user_cumsum": q_events_user_cumsum,
    "events_rank_stats": q_events_rank_stats,
    "events_stratified_sample": q_events_stratified_sample,
    "events_distinct_users": q_events_distinct_users,
    "events_heavy_hitters": q_events_heavy_hitters,
    "events_heavy_hitters_verified": q_events_heavy_hitters_verified,
    "events_pivot": q_events_pivot,
    # rows-only: no SQL twin
    "media_decode": q_media_decode,
    "media_decode_real": q_media_decode_real,
    "media_audio": q_media_audio,
    "media_frames": q_media_frames,
    "media_frames_real": q_media_frames_real,
    "tx_pagerank": q_tx_pagerank,
    "tx_ppr": q_tx_ppr,
    "tx_cc": q_tx_cc,
    "tx_coreness": q_tx_coreness,
    "tx_lp": q_tx_lp,
    "tx_eval_recall": q_tx_eval_recall,
    "events_quantiles_sketch": q_events_quantiles_sketch,
    "events_distinct_users_sketch": q_events_distinct_users_sketch,
    "events_heavy_hitters_sketch": q_events_heavy_hitters_sketch,
    # rows-only, approximate by design
    "doc_minhash_lsh": q_doc_minhash_lsh,
    "emb_neardup_lsh": q_emb_neardup_lsh,
    "emb_ann_lsh": q_emb_ann_lsh,
    "emb_ann_ivf": q_emb_ann_ivf,
}


def _power_iteration_sql(reset_cte: str, k: int = _PR_ITERS) -> str:
    """K-step damped power iteration as chained CTEs (DuckDB):
    next = 0.5*r + 0.5*dangling*r + sum over incoming of
    0.5*score[u]*w(u,v)/outw(u) — exactly the pull of the engine's
    ``GraphShard.step("ppr", ...)`` (``GraphShard._pull_chunks``)
    (SimpleGraph.kt:130-182 semantics, damping 0.5)."""
    steps = []
    for i in range(1, k + 1):
        steps.append(
            f""", d{i - 1} AS (
          SELECT coalesce(sum(s.score), 0.0) AS dm
          FROM s{i - 1} s LEFT JOIN ow ON s.entity = ow.src WHERE ow.src IS NULL
        ), s{i} AS (
          SELECT v.entity,
                 0.5 * r.r + 0.5 * (SELECT dm FROM d{i - 1}) * r.r
                 + coalesce(inc.acc, 0.0) AS score
          FROM verts v
          JOIN r ON r.entity = v.entity
          LEFT JOIN (
            SELECT e.dst AS entity, sum(0.5 * s.score / ow.ow * e.w) AS acc
            FROM s{i - 1} s JOIN e ON e.src = s.entity JOIN ow ON ow.src = e.src
            GROUP BY e.dst
          ) inc ON inc.entity = v.entity
        )"""
        )
    return f"""
        {_TOK_CTE}, m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        ), verts AS (
          SELECT DISTINCT entity FROM m
        ), nn AS (
          SELECT CAST(count(*) AS DOUBLE) AS c FROM verts
        ), e AS (
          SELECT a.entity AS src, b.entity AS dst, CAST(count(*) AS DOUBLE) AS w
          FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity <> b.entity
          GROUP BY 1, 2
        ), ow AS (
          SELECT src, sum(w) AS ow FROM e GROUP BY src
        ), {reset_cte}, s0 AS (
          SELECT entity, (SELECT 1.0 / c FROM nn) AS score FROM verts
        ){"".join(steps)}
        SELECT entity, round(score, 9) AS score FROM s{k}
    """


def _kcore_sql(k: int = _KCORE_K, rounds: int = 6) -> str:
    """k-core by ``rounds`` chained peel CTEs (each round keeps edges
    whose BOTH endpoints currently have degree >= k) over the strong
    co-occurrence graph — ``rounds`` must cover the peel depth at test
    scale (measured: 2 rounds at sf0.01; extra rounds are no-ops at
    the fixpoint, so 6 is a safe margin)."""
    steps = []
    for i in range(1, rounds + 1):
        steps.append(
            f""", k{i - 1} AS (
          SELECT src FROM c{i - 1} GROUP BY src HAVING count(*) >= {k}
        ), c{i} AS (
          SELECT c.src, c.dst FROM c{i - 1} c
          JOIN k{i - 1} x ON c.src = x.src
          JOIN k{i - 1} y ON c.dst = y.src
        )"""
        )
    return f"""
        {_TOK_CTE}, m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        ), nd AS (
          SELECT count(*) AS c FROM documents
        ), e0 AS (
          SELECT a.entity AS src, b.entity AS dst, count(*) AS w
          FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity <> b.entity
          GROUP BY 1, 2
        ), c0 AS (
          -- CAST to DOUBLE: a bare 0.66 literal is DECIMAL in DuckDB
          -- (exact 0.66*500 = 330) while the engine thresholds in IEEE
          -- double (0.66*500 = 329.9999...) — same float on both sides
          SELECT src, dst FROM e0 WHERE w >= CAST({_KCORE_FRAC} AS DOUBLE) * (SELECT c FROM nd)
        ){"".join(steps)}
        SELECT DISTINCT src AS entity FROM c{rounds}
    """


def _coreness_sql(rounds: int = 8) -> str:
    """Core numbers by ``rounds`` chained h-index CTEs over the strong
    co-occurrence graph: values start at the degree and each round
    become min(current, H(neighbor values)) where the weighted h-index
    is max(least(value, rank)) over neighbors ranked by value desc —
    exactly the pull of ``GraphShard.step("coreness", ...)``
    (``GraphShard.core_pull``).  Measured convergence <= 3 rounds at
    sf0.001/0.01; extra rounds are no-ops at the fixpoint."""
    steps = []
    for i in range(1, rounds + 1):
        steps.append(
            f""", r{i} AS (
          SELECT c.src, s.val,
                 row_number() OVER (PARTITION BY c.src ORDER BY s.val DESC) AS rn
          FROM c0 c JOIN s{i - 1} s ON s.entity = c.dst
        ), s{i} AS (
          SELECT s.entity, least(s.val, coalesce(h.h, 0)) AS val
          FROM s{i - 1} s
          LEFT JOIN (
            SELECT src AS entity, max(least(val, rn)) AS h FROM r{i} GROUP BY src
          ) h ON h.entity = s.entity
        )"""
        )
    return f"""
        {_TOK_CTE}, m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        ), nd AS (
          SELECT count(*) AS c FROM documents
        ), e0 AS (
          SELECT a.entity AS src, b.entity AS dst, count(*) AS w
          FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity <> b.entity
          GROUP BY 1, 2
        ), c0 AS (
          SELECT src, dst FROM e0
          WHERE w >= CAST({_KCORE_FRAC} AS DOUBLE) * (SELECT c FROM nd)
        ), s0 AS (
          SELECT src AS entity, count(*) AS val FROM c0 GROUP BY src
        ){"".join(steps)}
        SELECT entity, val AS coreness FROM s{rounds}
    """


def _label_prop_sql(k: int = _LP_ITERS) -> str:
    """K-step synchronous weighted label propagation as chained CTEs:
    next label = neighbor label with max weight sum, ties to the
    smallest label, no-neighbor vertices keep their label — exactly
    the pull of ``GraphShard.step("lp", ...)`` (``GraphShard.lp_pull``)."""
    steps = []
    for i in range(1, k + 1):
        steps.append(
            f""", v{i} AS (
          SELECT e.dst AS entity, s.lab AS lab, sum(e.w) AS wsum
          FROM s{i - 1} s JOIN e ON e.src = s.entity GROUP BY 1, 2
        ), w{i} AS (
          SELECT entity, lab,
                 row_number() OVER (PARTITION BY entity ORDER BY wsum DESC, lab) AS rn
          FROM v{i}
        ), s{i} AS (
          SELECT s.entity, coalesce(w.lab, s.lab) AS lab
          FROM s{i - 1} s
          LEFT JOIN (SELECT entity, lab FROM w{i} WHERE rn = 1) w
            ON w.entity = s.entity
        )"""
        )
    return f"""
        {_TOK_CTE}, m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        ), verts AS (
          SELECT DISTINCT entity FROM m
        ), e AS (
          SELECT a.entity AS src, b.entity AS dst, CAST(count(*) AS DOUBLE) AS w
          FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity <> b.entity
          GROUP BY 1, 2
        ), s0 AS (
          SELECT entity, entity AS lab FROM verts
        ){"".join(steps)}
        SELECT entity, lab AS label FROM s{k}
    """


ORACLE_SQL = {
    "doc_normalize": f"SELECT doc_id, {_NORM_SQL} AS norm_text FROM documents",
    "doc_token_count": f"""
        {_TOK_CTE}
        SELECT d.doc_id,
               coalesce(t.n, 0) AS n_tokens
        FROM documents d
        LEFT JOIN (SELECT doc_id, count(*) AS n FROM tok WHERE tok <> '' GROUP BY doc_id) t
        USING (doc_id)
    """,
    "doc_regex_extract": """
        SELECT doc_id,
               NULLIF(regexp_extract(text, '([0-9]{2,})', 1), '') AS first_num,
               CAST(length(regexp_extract_all(text, '[0-9]{2,}')) AS BIGINT) AS n_nums
        FROM documents
    """,
    # doc_json_repair: the engine runs the GENERAL truncated-JSON
    # repair (llm_utils.py:150-219 semantics); on this constructed
    # shape (flat object, one array, alnum tokens, cut before the
    # closing "]}") the repair's closed form is "trim at the last
    # comma, append ]}".  With no comma in the cut there are two
    # sub-cases: the cut landed exactly after the first token's
    # closing quote (even quote count, trailing '"') -> the repair
    # closes the array and ONE entity parses; anywhere else the string
    # literal is left unterminated -> unparseable -> 0 entities.
    "doc_json_repair": """
        WITH norm AS (
          SELECT doc_id, trim(regexp_replace(lower(text), '[^a-z0-9 ]', ' ', 'g')) AS t
          FROM documents
        ), arrs AS (
          SELECT doc_id, (regexp_split_to_array(t, ' +'))[1:6] AS toks
          FROM norm WHERE t <> ''
        ), js AS (
          SELECT doc_id,
                 '{"named_entities": ["' || array_to_string(toks, '", "') || '"]}' AS s
          FROM arrs
        ), tr AS (
          SELECT doc_id, substr(s, 1, CAST(floor(3 * length(s) / 4.0) AS INT)) AS t
          FROM js
        ), rep AS (
          SELECT doc_id, t,
                 CASE WHEN position(',' IN reverse(t)) > 0
                      THEN length(t) - position(',' IN reverse(t)) + 1
                      ELSE 0 END AS lc
          FROM tr
        ), ent AS (
          SELECT doc_id,
                 CASE WHEN lc > 0
                      THEN string_split(replace(substr(t, 22, lc - 22), '"', ''), ', ')
                      WHEN length(t) >= 23 AND substr(t, length(t), 1) = '"'
                           AND (length(t) - length(replace(t, '"', ''))) % 2 = 0
                      THEN [substr(t, 22, length(t) - 22)]
                      ELSE NULL END AS ents
          FROM rep
        )
        SELECT doc_id,
               CAST(coalesce(length(ents), 0) AS BIGINT) AS n_ents,
               array_to_string(ents, '|') AS ents
        FROM ent
    """,
    "doc_prompt_render": """
        SELECT doc_id,
               'Extract entities.' || chr(10) || chr(10) ||
               'Passage (doc ' || CAST(doc_id AS VARCHAR) || '): ' || text AS prompt
        FROM documents
    """,
    # doc_llm_ner: the deterministic responder emits DISTINCT sorted
    # normalized tokens len>=3 — the render/cache/parse plumbing under
    # test must reproduce exactly the doc_mentions token set
    "doc_llm_ner": f"""
        {_TOK_CTE}
        SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
    """,
    "doc_token_count_bpe": r"""
        SELECT doc_id,
               CAST(length(regexp_extract_all(lower(text), '[a-z]+|[0-9]+|[^a-z0-9\s]+'))
                    AS BIGINT) AS n_bpe_tokens
        FROM documents
    """,
    "doc_mentions": f"""
        {_TOK_CTE}
        SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
    """,
    "doc_vertices": f"""
        {_TOK_CTE}
        SELECT entity, row_number() OVER (ORDER BY entity) - 1 AS vid
        FROM (SELECT DISTINCT tok AS entity FROM tok WHERE length(tok) >= 3)
    """,
    "doc_cooccur": f"""
        {_TOK_CTE}, m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        )
        SELECT a.entity AS src, b.entity AS dst, count(*) AS weight
        FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity < b.entity
        GROUP BY 1, 2
    """,
    "doc_sample": """
        SELECT doc_id, n_chars FROM documents WHERE doc_id % 8 = 0
    """,
    "doc_triples": f"""
        WITH norm AS (
          SELECT doc_id, regexp_split_to_array({_NORM_SQL}, ' +') AS toks
          FROM documents
        ), w AS (
          SELECT doc_id, toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj
          FROM norm, unnest(generate_series(1, greatest(len(toks) - 2, 0))) AS t(i)
        )
        SELECT DISTINCT doc_id, subj, pred, obj FROM w
    """,
    "doc_openie": f"""
        WITH norm AS (
          SELECT doc_id, regexp_split_to_array({_NORM_SQL}, ' +') AS toks
          FROM documents
        ), w AS (
          SELECT doc_id, toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj
          FROM norm, unnest(generate_series(1, greatest(len(toks) - 2, 0))) AS t(i)
        )
        SELECT DISTINCT doc_id, subj, pred, obj FROM w
        WHERE length(subj) >= 3 AND length(obj) >= 3
    """,
    "doc_fact_edges": f"""
        WITH norm AS (
          SELECT doc_id, regexp_split_to_array({_NORM_SQL}, ' +') AS toks
          FROM documents
        ), w AS (
          SELECT DISTINCT doc_id, toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj
          FROM norm, unnest(generate_series(1, greatest(len(toks) - 2, 0))) AS t(i)
        )
        SELECT least(subj, obj) AS src, greatest(subj, obj) AS dst,
               count(*) AS weight
        FROM w WHERE subj <> obj GROUP BY 1, 2
    """,
    "doc_triangles": f"""
        {_TOK_CTE}, m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        ), e AS (
          SELECT DISTINCT a.entity AS src, b.entity AS dst
          FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity < b.entity
        )
        SELECT count(*) AS n_triangles
        FROM e ab JOIN e bc ON ab.dst = bc.src JOIN e ac
          ON ac.src = ab.src AND ac.dst = bc.dst
    """,
    "doc_cc": f"""
        WITH RECURSIVE norm AS (
          SELECT doc_id, {_NORM_SQL} AS t FROM documents
        ), tok AS (
          SELECT doc_id, unnest(regexp_split_to_array(t, ' +')) AS tok FROM norm WHERE t <> ''
        ), m AS (
          SELECT DISTINCT doc_id, tok AS entity FROM tok WHERE length(tok) >= 3
        ), e AS (
          SELECT DISTINCT a.entity AS src, b.entity AS dst
          FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.entity <> b.entity
        ), verts AS (
          SELECT DISTINCT entity FROM m
        ), reach AS (
          SELECT entity AS a, entity AS b FROM verts
          UNION
          SELECT r.a, e.dst FROM reach r JOIN e ON r.b = e.src
        )
        SELECT a AS entity, min(b) AS component FROM reach GROUP BY a
    """,
    "doc_pagerank": _power_iteration_sql(
        "r AS (SELECT entity, (SELECT 1.0 / c FROM nn) AS r FROM verts)"
    ),
    "doc_ppr": _power_iteration_sql(
        """seeds AS (
          SELECT entity FROM verts ORDER BY entity LIMIT 3
        ), r AS (
          SELECT v.entity,
                 CASE WHEN s.entity IS NOT NULL
                      THEN 1.0 / (SELECT count(*) FROM seeds) ELSE 0.0 END AS r
          FROM verts v LEFT JOIN seeds s ON s.entity = v.entity
        )"""
    ),
    "doc_lp": _label_prop_sql(),
    "doc_kcore": _kcore_sql(),
    "doc_coreness": _coreness_sql(),
    "doc_exact_dedup": """
        SELECT md5(text) AS hash_id, min(doc_id) AS keep_id
        FROM documents GROUP BY 1
    """,
    "doc_stats": """
        SELECT lang, count(*) AS n_docs,
               round(avg(n_chars), 4) AS avg_chars,
               max(n_chars) AS max_chars
        FROM documents GROUP BY lang
    """,
    "doc_quality": f"""
        {_TOK_CTE}, tstats AS (
          SELECT doc_id, count(*) AS n_tokens,
                 avg(length(tok)) AS atl,
                 avg(CASE WHEN tok IN ('the','a','an','and','of','to','in','is','it','that')
                     THEN 1.0 ELSE 0.0 END) AS swr
          FROM tok WHERE tok <> '' GROUP BY doc_id
        )
        SELECT d.doc_id, length(d.text) AS n_chars,
               coalesce(t.n_tokens, 0) AS n_tokens,
               round(coalesce(t.atl, 0), 6) AS avg_token_len,
               round(coalesce(t.swr, 0), 6) AS stopword_ratio,
               round(length(regexp_replace(d.text, '[^A-Za-z0-9]', '', 'g'))
                     / greatest(length(d.text), 1), 6) AS alnum_ratio
        FROM documents d LEFT JOIN tstats t USING (doc_id)
    """,
    "doc_fingerprint": f"""
        WITH norm AS (
          SELECT doc_id, regexp_split_to_array({_NORM_SQL}, ' +') AS toks FROM documents
        ), sh AS (
          SELECT doc_id, md5(array_to_string(toks[i:i+4], ' ')) AS h
          FROM norm, unnest(generate_series(1, greatest(len(toks) - 4, 0))) AS t(i)
          WHERE len(toks) >= 5
        )
        SELECT d.doc_id, coalesce(s.fp, '') AS fp
        FROM documents d
        LEFT JOIN (SELECT doc_id, min(h) AS fp FROM sh GROUP BY doc_id) s USING (doc_id)
    """,
    # simhash is deterministic (stable_hash64 = first 8 md5 bytes,
    # little-endian), so the fingerprint is SQL-expressible: per
    # (doc, token) counts over the proven tokenizer CTE, bit k of the
    # token hash read straight out of DuckDB's md5 hex (byte k//8,
    # bit k%8 — little-endian byte order), signed-count accumulation
    # per bit, two's-complement pack via HUGEINT.
    "doc_simhash": _TOK_CTE + """
        , cnt AS (
          SELECT doc_id, tok, count(*) AS c FROM tok WHERE tok <> '' GROUP BY doc_id, tok
        ), hx AS (
          SELECT doc_id, c, md5(tok) AS h FROM cnt
        ), bitacc AS (
          SELECT doc_id, t.k AS k,
                 SUM(CASE WHEN ((16 * (strpos('0123456789abcdef', substr(h, 2*(t.k//8)+1, 1)) - 1)
                                + (strpos('0123456789abcdef', substr(h, 2*(t.k//8)+2, 1)) - 1))
                               // CAST(pow(2, t.k % 8) AS INTEGER)) % 2 = 1
                          THEN c ELSE -c END) AS acc
          FROM hx, generate_series(0, 63) AS t(k)
          GROUP BY doc_id, t.k
        ), packed AS (
          SELECT doc_id,
                 SUM(CASE WHEN acc > 0 THEN CAST(pow(2, k) AS HUGEINT) ELSE 0 END) AS u
          FROM bitacc GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(CASE WHEN p.u >= CAST(pow(2, 63) AS HUGEINT)
                                  THEN p.u - CAST(pow(2, 64) AS HUGEINT)
                                  ELSE p.u END, 0) AS BIGINT) AS simhash
        FROM documents d LEFT JOIN packed p USING (doc_id)
    """,
    "doc_langid": _langid_sql(),
    "doc_ngram_jaccard": f"""
        WITH norm AS (
          SELECT doc_id, regexp_split_to_array({_NORM_SQL}, ' +') AS toks FROM documents
        ), sh AS (
          SELECT DISTINCT doc_id, array_to_string(toks[i:i+2], ' ') AS shingle
          FROM norm, unnest(generate_series(1, greatest(len(toks) - 2, 0))) AS t(i)
          WHERE len(toks) >= 3
        ), cold AS (
          -- mirror the engine's stop-shingle guard: shingles in more
          -- than max_bucket (1000) docs are excluded from BOTH the
          -- intersections and the sizes
          SELECT sh.* FROM sh
          JOIN (
            SELECT shingle FROM sh GROUP BY shingle HAVING count(*) <= 1000
          ) ok USING (shingle)
        ), sizes AS (
          SELECT doc_id, count(*) AS n FROM cold GROUP BY doc_id
        ), inter AS (
          SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS i
          FROM cold a JOIN cold b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        )
        SELECT i.a, i.b,
               round(i.i / (sa.n + sb.n - i.i), 6) AS jaccard
        FROM inter i JOIN sizes sa ON i.a = sa.doc_id JOIN sizes sb ON i.b = sb.doc_id
        WHERE i.i / (sa.n + sb.n - i.i) >= 0.2
    """,
    "doc_merge_by_first_token": """
        SELECT split_part(text, ' ', 1) AS first_tok,
               string_agg(text, chr(10) ORDER BY doc_id) AS merged,
               count(*) AS n_docs
        FROM documents GROUP BY 1
    """,
    "events_asof_join": """
        SELECT p.event_id, s.event_id AS signup_event_id
        FROM events p
        JOIN events s
          ON p.user_id = s.user_id AND s.event_type = 'signup' AND s.ts <= p.ts
        WHERE p.event_type = 'purchase'
        QUALIFY row_number() OVER (
            PARTITION BY p.event_id ORDER BY s.ts DESC, s.event_id DESC) = 1
    """,
    "events_range_join": """
        SELECT s.event_id AS signup_event_id, p.event_id AS purchase_event_id
        FROM events s JOIN events p
          ON s.user_id = p.user_id
         AND s.event_type = 'signup' AND p.event_type = 'purchase'
         AND p.ts >= s.ts AND p.ts < s.ts + INTERVAL 1 HOUR
    """,
    "events_sessions": """
        WITH x AS (
          SELECT user_id,
                 CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                           > INTERVAL 30 MINUTE
                      OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                      THEN 1 ELSE 0 END AS new_s
          FROM events
        )
        SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions FROM x GROUP BY user_id
    """,
    "events_user_value_salted": """
        SELECT user_id, round(sum(value), 2) AS sum_value
        FROM events GROUP BY user_id
    """,
    "events_by_type": """
        SELECT event_type, count(*) AS n,
               round(sum(value), 2) AS sum_value,
               round(avg(value), 4) AS avg_value
        FROM events GROUP BY event_type
    """,
    "events_minmax": """
        SELECT event_id,
               round(CASE WHEN max(value) OVER () = min(value) OVER () THEN 1.0
                     ELSE (value - min(value) OVER ()) / (max(value) OVER () - min(value) OVER ())
                     END, 6) AS norm_value
        FROM events
    """,
    "events_topk": """
        SELECT event_id, value FROM events
        ORDER BY value DESC, event_id LIMIT 20
    """,
    "events_hourly": """
        SELECT date_trunc('hour', ts) AS hour, event_type, count(*) AS n
        FROM events GROUP BY 1, 2
    """,
    "orders_by_nation": """
        SELECT c.c_nationkey, count(*) AS n_orders,
               round(sum(o.o_totalprice), 2) AS total_price
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY 1
    """,
    "orders_by_segment": """
        SELECT c.c_mktsegment, count(*) AS n_orders,
               round(sum(o.o_totalprice), 2) AS total_price
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY 1
    """,
    "customers_no_orders": """
        SELECT c_custkey FROM customer
        WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
    """,
    "lineitem_pricing": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice * (1 - l_discount)), 1) AS sum_revenue,
               round(avg(l_discount), 5) AS avg_disc,
               count(*) AS n
        FROM lineitem GROUP BY 1, 2
    """,
    "shipping_priority": """
        SELECT l.l_orderkey,
               round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
               o.o_orderdate
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < TIMESTAMP '1998-01-01'
          AND l.l_shipdate > TIMESTAMP '1998-01-01'
        GROUP BY l.l_orderkey, o.o_orderdate
        ORDER BY revenue DESC, l.l_orderkey
        LIMIT 10
    """,
    "emb_knn": """
        SELECT e.vec_id
        FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
        WHERE e.vec_id <> 0
        ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
        LIMIT 10
    """,
    "emb_neardup": """
        SELECT a.vec_id AS a, b.vec_id AS b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
    """,
    # tx_triangles: triangles of the simple undirected graph induced by
    # the tx edge records (fact co-occurrence pairs + chunk<->entity
    # passage edges — the same edge universe tx_graph_info counts).
    # Canonicalize every edge to (s < d) over namespaced node keys,
    # then the standard x<y<z three-way join counts each triangle once.
    # Reads the sf0.01 synth cache like tx_extract (driver grades
    # oracles at sf=0.01 only; queries() synthesizes the cache first).
    "tx_triangles": f"""
        WITH tx AS (
          SELECT text
          FROM read_parquet('/tmp/hipporag_ray/tx_sf0.01_v{_CACHE_VERSION}/*.parquet')
        ), chunks AS (
          SELECT DISTINCT text FROM tx
        ), norm AS (
          SELECT text, {_NORM_SQL} AS t FROM chunks
        ), tok AS (
          SELECT text, unnest(regexp_split_to_array(t, ' +')) AS tok
          FROM norm WHERE t <> ''
        ), ment AS (
          SELECT DISTINCT text, tok FROM tok WHERE length(tok) >= 3
        ), e AS (
          SELECT DISTINCT 'e-' || m1.tok AS s, 'e-' || m2.tok AS d
          FROM ment m1 JOIN ment m2
            ON m1.text = m2.text AND m1.tok < m2.tok
          UNION
          SELECT DISTINCT least('c-' || md5(text), 'e-' || tok) AS s,
                 greatest('c-' || md5(text), 'e-' || tok) AS d
          FROM ment
        )
        SELECT CAST(count(*) AS BIGINT) AS n_triangles
        FROM e ab
        JOIN e bc ON ab.d = bc.s
        JOIN e ac ON ac.s = ab.s AND ac.d = bc.d
    """,
    # tx_graph_info: A9 node/edge counts by class as the SQL twin of
    # the full graph build (HippoRAG.py:1095-1148 semantics over the
    # stages/graph_build.py tables): chunks = distinct raw text,
    # entities = distinct normalized tokens len>=3, passage records =
    # distinct (chunk, entity), fact records = distinct ORDERED
    # co-occurring entity pairs (mode="ne" emits both directions).
    # Reads the sf0.01 synth cache like tx_extract below.
    "tx_graph_info": f"""
        WITH tx AS (
          SELECT text
          FROM read_parquet('/tmp/hipporag_ray/tx_sf0.01_v{_CACHE_VERSION}/*.parquet')
        ), chunks AS (
          SELECT DISTINCT text FROM tx
        ), norm AS (
          SELECT text, {_NORM_SQL} AS t FROM chunks
        ), tok AS (
          SELECT text, unnest(regexp_split_to_array(t, ' +')) AS tok
          FROM norm WHERE t <> ''
        ), ment AS (
          SELECT DISTINCT text, tok FROM tok WHERE length(tok) >= 3
        ), ents AS (
          SELECT DISTINCT tok FROM ment
        ), fact AS (
          SELECT DISTINCT m1.tok AS a, m2.tok AS b
          FROM ment m1 JOIN ment m2 ON m1.text = m2.text AND m1.tok <> m2.tok
        )
        SELECT
          CAST((SELECT count(*) FROM chunks) + (SELECT count(*) FROM ents) AS BIGINT) AS n_vertices,
          CAST((SELECT count(*) FROM fact) + (SELECT count(*) FROM ment) AS BIGINT) AS n_edge_records,
          CAST((SELECT count(*) FROM chunks) AS BIGINT) AS n_chunks,
          CAST((SELECT count(*) FROM ents) AS BIGINT) AS n_entities,
          CAST((SELECT count(*) FROM fact) AS BIGINT) AS n_fact_records,
          CAST((SELECT count(*) FROM ment) AS BIGINT) AS n_passage_records
    """,
    # tx_extract: mention extraction over the deterministic synthetic
    # transcripts.  The driver grades oracles at sf=0.01 only, so the
    # SQL reads the sf0.01 synth cache directly (the queries() callable
    # synthesizes it first — write_transcripts is idempotent); DuckDB's
    # md5() reproduces the chunk-/entity- content keys exactly.
    "tx_extract": f"""
        WITH tx AS (
          SELECT conv_id, turn_idx, text
          FROM read_parquet('/tmp/hipporag_ray/tx_sf0.01_v{_CACHE_VERSION}/*.parquet')
        ), norm AS (
          SELECT conv_id, turn_idx, text, {_NORM_SQL} AS t FROM tx
        ), tok AS (
          SELECT conv_id, turn_idx, text,
                 unnest(regexp_split_to_array(t, ' +')) AS tok
          FROM norm WHERE t <> ''
        )
        SELECT DISTINCT conv_id, turn_idx,
               'chunk-' || md5(text) AS chunk_key,
               tok AS entity,
               'entity-' || md5(tok) AS node_key
        FROM tok WHERE length(tok) >= 3
    """,
    # PII rules applied in sequence; counts run against the
    # progressively redacted text exactly like the Ray kernel
    "doc_pii_redact": r"""
        WITH r1 AS (
          SELECT doc_id, text,
                 len(regexp_extract_all(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS c1,
                 regexp_replace(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                     '[EMAIL]', 'g') AS t1
          FROM documents
        ), r2 AS (
          SELECT doc_id, c1,
                 len(regexp_extract_all(t1,
                     '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS c2,
                 regexp_replace(t1,
                     '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                     '[IP]', 'g') AS t2
          FROM r1
        )
        SELECT doc_id,
               regexp_replace(t2, '\b\d{3}[-.]\d{3}[-.]\d{4}\b',
                              '[PHONE]', 'g') AS redacted,
               CAST(c1 + c2 + len(regexp_extract_all(t2,
                    '\b\d{3}[-.]\d{3}[-.]\d{4}\b')) AS BIGINT) AS n_pii
        FROM r2
    """,
    "doc_tfidf": f"""
        {_TOK_CTE},
        tc AS (
          SELECT doc_id, tok AS term, count(*) AS tf FROM tok GROUP BY 1, 2
        ), dft AS (
          SELECT term, count(*) AS df FROM tc GROUP BY 1
        )
        SELECT tc.doc_id, tc.term,
               CAST(tc.tf AS BIGINT) AS tf,
               CAST(dft.df AS BIGINT) AS df,
               round(tc.tf * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE)
                                / dft.df), 6) AS tfidf
        FROM tc JOIN dft USING (term)
    """,
    "doc_bm25": f"""
        {_TOK_CTE},
        dl AS (
          SELECT d.doc_id, count(t.tok) AS dl
          FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id
          GROUP BY 1
        ), stats AS (
          SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl
        ), tf AS (
          SELECT doc_id, tok AS term, count(*) AS tf FROM tok
          WHERE tok IN ({", ".join("'" + t + "'" for t in _BM25_TERMS)})
          GROUP BY 1, 2
        ), dft AS (
          SELECT term, count(*) AS df FROM tf GROUP BY 1
        )
        SELECT tf.doc_id,
               round(sum(
                 ln((stats.n_docs - dft.df + 0.5) / (dft.df + 0.5) + 1)
                 * tf.tf * (1.2 + 1)
                 / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
               ), 6) AS bm25
        FROM tf
        JOIN dft USING (term)
        JOIN dl ON dl.doc_id = tf.doc_id
        CROSS JOIN stats
        GROUP BY 1
    """,
    "events_quantiles": """
        SELECT event_type, CAST(0.5 AS DOUBLE) AS q,
               quantile_disc(value, 0.5) AS value
        FROM events GROUP BY event_type
        UNION ALL
        SELECT event_type, CAST(0.9 AS DOUBLE) AS q,
               quantile_disc(value, 0.9) AS value
        FROM events GROUP BY event_type
        UNION ALL
        SELECT event_type, CAST(0.99 AS DOUBLE) AS q,
               quantile_disc(value, 0.99) AS value
        FROM events GROUP BY event_type
    """,
    "events_quantiles_cont": """
        SELECT event_type, CAST(0.25 AS DOUBLE) AS q,
               round(quantile_cont(value, 0.25), 6) AS value
        FROM events GROUP BY event_type
        UNION ALL
        SELECT event_type, CAST(0.5 AS DOUBLE) AS q,
               round(quantile_cont(value, 0.5), 6) AS value
        FROM events GROUP BY event_type
        UNION ALL
        SELECT event_type, CAST(0.9 AS DOUBLE) AS q,
               round(quantile_cont(value, 0.9), 6) AS value
        FROM events GROUP BY event_type
    """,
    "events_rollup": """
        WITH e AS (
          SELECT event_type,
                 strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour,
                 value
          FROM events
        )
        SELECT coalesce(event_type, '(all)') AS event_type,
               coalesce(hour, '(all)') AS hour,
               round(sum(value), 2) AS sum_value,
               CAST(count(*) AS BIGINT) AS n
        FROM e GROUP BY ROLLUP(event_type, hour)
    """,
    "events_cube": """
        WITH e AS (
          SELECT event_type,
                 strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour,
                 value
          FROM events
        )
        SELECT coalesce(event_type, '(all)') AS event_type,
               coalesce(hour, '(all)') AS hour,
               round(sum(value), 2) AS sum_value,
               CAST(count(*) AS BIGINT) AS n
        FROM e GROUP BY CUBE(event_type, hour)
    """,
    "events_grouped_topk": """
        SELECT event_type, event_id, value FROM (
          SELECT event_type, event_id, value,
                 row_number() OVER (
                   PARTITION BY event_type
                   ORDER BY value DESC, event_id) AS rn
          FROM events
        ) WHERE rn <= 2
    """,
    "events_distinct_users": """
        SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
        FROM events GROUP BY 1
    """,
    "events_heavy_hitters": """
        SELECT user_id, CAST(count(*) AS BIGINT) AS n
        FROM events GROUP BY user_id HAVING count(*) >= 70
    """,
    "events_heavy_hitters_verified": """
        SELECT user_id, CAST(count(*) AS BIGINT) AS n
        FROM events WHERE user_id IS NOT NULL
        GROUP BY user_id ORDER BY n DESC, user_id LIMIT 10
    """,
    "events_pivot": """
        SELECT user_id,
               CAST(sum(CASE WHEN event_type = 'click'    THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
               CAST(sum(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
               CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
               CAST(sum(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
               CAST(sum(CASE WHEN event_type = 'view'     THEN 1 ELSE 0 END) AS BIGINT) AS n_view
        FROM events GROUP BY 1
    """,
    "events_moving_avg": """
        SELECT event_id,
               round(avg(value) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), 6) AS mov_avg
        FROM events
    """,
    "customers_with_orders": """
        SELECT c_custkey, c_acctbal FROM customer
        WHERE c_custkey IN (SELECT o_custkey FROM orders)
    """,
    "customer_orders_full_outer": """
        SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey,
               c.c_acctbal,
               round(o.sum_spent, 2) AS sum_spent
        FROM (SELECT c_custkey, c_acctbal FROM customer WHERE c_nationkey < 12) c
        FULL OUTER JOIN (
          SELECT o_custkey, sum(o_totalprice) AS sum_spent
          FROM orders GROUP BY 1
        ) o ON c.c_custkey = o.o_custkey
    """,
    "events_lead_lag": """
        SELECT event_id,
               row_number() OVER w AS rn,
               lag(value)  OVER w AS prev_value,
               lead(value) OVER w AS next_value
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
    # exact fixed-point running sum: CAST to DECIMAL(18,3) makes the
    # serial window sum integer-exact, so the engine's distributed
    # int64 scan hashes bit-equal (both sides exact under 2**53)
    "events_global_cumsum": """
        SELECT event_id,
               CAST(SUM(CAST(value AS DECIMAL(18,3))) OVER (
                 ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
               ) AS DOUBLE) AS running_value
        FROM events
    """,
    "events_rank_stats": """
        SELECT event_id,
               percent_rank() OVER (PARTITION BY event_type ORDER BY value) AS prank,
               cume_dist() OVER (PARTITION BY event_type ORDER BY value) AS cdist,
               ntile(4) OVER (PARTITION BY event_type ORDER BY value, event_id) AS tile
        FROM events
    """,
    "events_user_cumsum": """
        SELECT event_id,
               CAST(SUM(CAST(value AS DECIMAL(18,3))) OVER w AS DOUBLE) AS running_value,
               COUNT(value) OVER w AS running_n
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    """,
    "events_stratified_sample": """
        SELECT event_type, event_id FROM (
          SELECT event_type, event_id,
                 row_number() OVER (
                   PARTITION BY event_type
                   ORDER BY md5(CAST(event_id AS VARCHAR)), event_id) AS rn
          FROM events
        ) WHERE rn <= 2
    """,
}
ORACLE_SQL = {k: v for k, v in ORACLE_SQL.items() if v is not None}
