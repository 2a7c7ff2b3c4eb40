"""Lifecycle test mirroring the reference smoke flow
(tests_openai.py:28-103): index -> retrieve -> reload -> incremental
index -> delete -> results match the original index (FIXTURES.md §4)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from hipporag_ray.pipelines.retrieval import HippoRagEngine
from hipporag_ray.state.embedding_store import EmbeddingStore, HashEmbedder


def _tx(rows):
    n = len(rows)
    return rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array(["user"] * n, pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
                "tool": pa.array([""] * n, pa.string()),
                "ts": pa.array(
                    np.arange(n, dtype="int64").astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
    )


CORPUS_A = [
    ("c0", 0, "alpha beta gamma"),
    ("c0", 1, "alpha delta epsilon"),
    ("c1", 0, "zeta beta gamma"),
    ("c1", 1, "theta iota kappa"),
    ("c2", 0, "kappa lambda theta"),
    ("c2", 1, "gamma alpha beta"),
    ("c3", 0, "sigma tau upsilon"),
    ("c3", 1, "upsilon sigma phi"),
    ("c4", 0, "omega psi chi"),
]

CORPUS_B = [
    ("d0", 0, "newword alpha brandnew"),
    ("d0", 1, "brandnew onlyinb"),
]


def test_embedding_store_idempotent(tmp_path):
    store = EmbeddingStore(str(tmp_path), "chunk", dim=16)
    ds = rd.from_items([{"content": "hello world"}, {"content": "foo bar"}, {"content": "hello world"}])
    assert store.insert_strings(ds) == 2  # exact dedup (A10)
    assert store.insert_strings(ds) == 0  # anti-join: nothing new (J3)
    assert store.count() == 2
    # deterministic embeddings
    e1 = HashEmbedder(dim=16).embed(["hello world"])
    e2 = HashEmbedder(dim=16).embed(["hello world"])
    np.testing.assert_array_equal(e1, e2)
    assert abs(np.linalg.norm(e1[0]) - 1.0) < 1e-5


def test_lifecycle_index_reload_incremental_delete(tmp_path):
    wd = str(tmp_path / "engine")
    eng = HippoRagEngine(wd, dim=32)
    stats = eng.index(_tx(CORPUS_A))
    assert stats["new_chunks"] == len(CORPUS_A)

    r1 = eng.retrieve(["alpha beta"], top_k=3)
    assert len(r1[0]["docs"]) == 3
    # turns mentioning alpha/beta outrank unrelated ones
    assert any("alpha" in d or "beta" in d for d in r1[0]["docs"][:2])
    eng.close()

    # reload into a fresh engine -> identical results (persistence path)
    eng2 = HippoRagEngine(wd, dim=32)
    r2 = eng2.retrieve(["alpha beta"], top_k=3)
    assert r2[0]["docs"] == r1[0]["docs"]
    np.testing.assert_allclose(r2[0]["doc_scores"], r1[0]["doc_scores"], atol=1e-9)

    # incremental index of corpus B, then retrieve hits the new doc
    eng2.index(_tx(CORPUS_B))
    r3 = eng2.retrieve(["brandnew onlyinb"], top_k=2)
    assert any("brandnew" in d for d in r3[0]["docs"])

    # delete corpus B -> results match the original A-only index
    eng2.delete([t for _, _, t in CORPUS_B])
    r4 = eng2.retrieve(["alpha beta"], top_k=3)
    assert r4[0]["docs"] == r1[0]["docs"]
    np.testing.assert_allclose(r4[0]["doc_scores"], r1[0]["doc_scores"], atol=1e-9)
    # entity present only in B is gone from the entity store (J6 group-
    # wise anti join); shared entity 'alpha' survives
    ids = eng2.entity_store.dataset().to_pandas()
    assert not ids["content"].eq("onlyinb").any()
    assert ids["content"].eq("alpha").any()
    eng2.close()


def test_batched_multi_query_retrieval(tmp_path):
    eng = HippoRagEngine(str(tmp_path / "e2"), dim=32)
    eng.index(_tx(CORPUS_A))
    rs = eng.retrieve(["alpha beta", "sigma tau", "omega psi"], top_k=2)
    assert len(rs) == 3
    assert any("sigma" in d for d in rs[1]["docs"])
    assert any("omega" in d for d in rs[2]["docs"])
    eng.close()


def test_custom_embedder_plugs_into_engine(ray_session, tmp_path):
    """A non-default embedder class (the real-model integration point)
    slots into the store actor pool and query path, with batch-size
    plumbing exercised."""
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.pipelines.retrieval import HippoRagEngine
    from hipporag_ray.state.embedding_store import CharFreqEmbedder

    texts = ["zebra quokka wombat", "quokka wombat dingo", "falcon osprey kestrel"]
    tx = rd.from_arrow(
        pa.table(
            {
                "conv_id": ["c0", "c0", "c1"],
                "turn_idx": pa.array([0, 1, 0], pa.int32()),
                "role": ["user", "assistant", "user"],
                "text": texts,
                "tool": ["", "", ""],
                "ts": pa.array([0, 1, 2], pa.timestamp("us")),
            }
        )
    )
    eng = HippoRagEngine(
        str(tmp_path / "wd"),
        embedder_cls=CharFreqEmbedder,
        embedder_kwargs={"dim": 32},
        embed_batch_size=2,
    )
    eng.index(tx)
    # stored embeddings really came from the plug-in model (32-dim) and
    # match a direct call on the same content
    df = eng.chunk_store.dataset().to_pandas()
    assert len(df["embedding"].iloc[0]) == 32
    toy = CharFreqEmbedder(dim=32)
    row = df[df["content"] == "zebra quokka wombat"].iloc[0]
    np.testing.assert_allclose(
        np.array(row["embedding"]), toy.embed(["zebra quokka wombat"])[0], atol=1e-6
    )
    res = eng.retrieve(["zebra quokka wombat"], top_k=1)
    assert res[0]["docs"][0] == "zebra quokka wombat"
    eng.close()


def test_rerank_hook_filters_facts(ray_session, tmp_path):
    """The DSPyFilter plug-point (HippoRAG.py:1522-1570): a rerank hook
    that drops facts changes the ranking; dropping everything falls the
    query back to DPR."""
    wd = tmp_path / "rr"
    eng = HippoRagEngine(working_dir=str(wd))
    eng.index(_tx(CORPUS_A))
    base = eng.retrieve(["alpha beta gamma"], top_k=3)
    eng.close()

    seen = {}

    def drop_top_subject(cand):
        # deterministic: drop every fact whose subject is the best
        # fact's subject, forcing different phrase weights
        top_subj = cand.sort_values(
            ["score", "subj_key", "obj_key"], ascending=[False, True, True]
        )["subj_key"].iloc[0]
        seen["subj"] = top_subj
        return cand[cand["subj_key"] != top_subj]

    eng2 = HippoRagEngine(working_dir=str(wd), rerank_fn=drop_top_subject)
    got = eng2.retrieve(["alpha beta gamma"], top_k=3)
    eng2.close()
    assert seen, "hook never invoked"
    assert base[0]["mode"] == "ppr" and got[0]["mode"] == "ppr"
    assert (
        base[0]["docs"] != got[0]["docs"]
        or base[0]["doc_scores"] != got[0]["doc_scores"]
    )

    eng3 = HippoRagEngine(working_dir=str(wd), rerank_fn=lambda c: c.iloc[0:0])
    got3 = eng3.retrieve(["alpha beta gamma"], top_k=3)
    eng3.close()
    assert got3[0]["mode"] == "dpr_fallback"


def test_zero_edge_graph_still_loads_and_retrieves(ray_session, tmp_path):
    """A corpus whose tokens are all below min_token_len builds a graph
    with vertices but zero edges; edges/ and adj/ must still exist on
    disk and retrieve() must degrade gracefully, not FileNotFoundError
    (regression: write_parquet on a 0-row Dataset creates no dir)."""
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.pipelines.retrieval import HippoRagEngine

    turns = pd.DataFrame(
        {
            "conv_id": ["c0", "c0"],
            "turn_idx": [0, 1],
            "role": ["user", "assistant"],
            "text": ["ab cd", "ef gh"],  # every token < min_token_len=3
            "tool": ["", ""],
            "ts": pd.to_datetime(["2026-01-01", "2026-01-01"]),
        }
    )
    eng = HippoRagEngine(str(tmp_path / "wd"))
    try:
        stats = eng.index(rd.from_pandas(turns))
        assert stats["n_edges"] == 0
        import os

        assert os.path.isdir(os.path.join(str(tmp_path / "wd"), "graph", "edges"))
        assert os.path.isdir(os.path.join(str(tmp_path / "wd"), "graph", "adj"))
        res = eng.retrieve(["ab cd"], top_k=2)
        assert isinstance(res, list) and len(res) == 1
    finally:
        eng.close()


def test_engine_pool_survives_writes(ray_session, tmp_path):
    """Writes reload the engine's live shard actors in place instead of
    respawning them.  After every write (append, re-append of indexed
    turns, delete, a synonymy-mode rebuild) the pool keeps its actors,
    its PPR equals a freshly built pool's, and retrieve equals a new
    engine's on the same working dir."""
    from hipporag_ray.algos.iterate import personalized_pagerank
    from hipporag_ray.state.csr import ShardedGraph

    queries = ["alpha beta", "brandnew onlyinb", "sigma tau"]

    def list_ppr(sg, n):
        rng = np.random.default_rng(0)
        resets = [(rng.choice(n, size=3, replace=False), rng.random(3)) for _ in range(2)]
        return personalized_pagerank(sg, resets=resets, n_queries=2)[0]

    def check(eng, ids, **kw):
        got = eng.retrieve(queries, top_k=3)
        assert [a._actor_id for a in eng._sg.actors] == ids
        g = eng.graph()
        fresh = ShardedGraph(g.adj_path, g.n_vertices)
        try:
            np.testing.assert_array_equal(
                list_ppr(eng._sg, g.n_vertices), list_ppr(fresh, g.n_vertices)
            )
        finally:
            fresh.shutdown()
        other = HippoRagEngine(eng.working_dir, dim=32, **kw)
        try:
            want = other.retrieve(queries, top_k=3)
        finally:
            other.close()
        assert [r["docs"] for r in got] == [r["docs"] for r in want]
        assert [r["doc_scores"] for r in got] == [r["doc_scores"] for r in want]

    eng = HippoRagEngine(str(tmp_path / "inc"), dim=32)
    try:
        eng.index(_tx(CORPUS_A))
        eng.retrieve(queries, top_k=3)
        ids = [a._actor_id for a in eng._sg.actors]
        eng.index(_tx(CORPUS_B))
        check(eng, ids)
        eng.index(_tx(CORPUS_A[:4]))
        check(eng, ids)
        eng.delete([t for _, _, t in CORPUS_B])
        check(eng, ids)
    finally:
        eng.close()

    syn = HippoRagEngine(str(tmp_path / "syn"), dim=32, synonymy=True)
    try:
        syn.index(_tx(CORPUS_A))
        syn.retrieve(queries, top_k=3)
        ids = [a._actor_id for a in syn._sg.actors]
        syn.index(_tx(CORPUS_B))
        syn._reindex()
        check(syn, ids, synonymy=True)
    finally:
        syn.close()


def _turns(tmp_path):
    """Synthetic turns as one pandas frame, ordered by (conv, turn)."""
    from hipporag_ray.synth import write_transcripts

    d = write_transcripts(
        str(tmp_path / "tx"), n_convs=12, turns_per_conv=10, vocab=150, seed=7,
        shards=1,
    )
    return rd.read_parquet(d).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True
    )


def _cut(per_block):
    """A ``_densify_refs`` that cuts every view block into ``per_block``
    packs, whatever the session's CPU count."""

    def _densify_refs(self, block_refs, kind):
        pool = self._pool()
        out = []
        for i, r in enumerate(block_refs):
            m = pool[i % len(pool)].densify.options(num_returns=per_block)
            out.extend(m.remote(r, kind, per_block))
        return out

    return _densify_refs


@pytest.mark.parametrize("facts", [True, False])
def test_scores_do_not_depend_on_pack_cuts(ray_session, tmp_path, monkeypatch, facts):
    """Appended packs are cut differently from a rebuild's, so retrieve
    must give bit-equal docs and scores however the view rows are
    sliced into packs."""
    turns = _turns(tmp_path)
    wd = str(tmp_path / "wd")
    eng = HippoRagEngine(wd, facts=facts)
    try:
        eng.index(rd.from_pandas(turns))
    finally:
        eng.close()
    queries = turns["text"].tolist()[::5][:96]
    got = []
    for per_block in (2, 7):
        monkeypatch.setattr(HippoRagEngine, "_densify_refs", _cut(per_block))
        eng = HippoRagEngine(wd, facts=facts)
        try:
            got.append(eng.retrieve(queries, top_k=5))
        finally:
            eng.close()
    assert [r["docs"] for r in got[0]] == [r["docs"] for r in got[1]]
    assert [r["doc_scores"] for r in got[0]] == [r["doc_scores"] for r in got[1]]


def _packs(eng):
    """The engine's serving packs, per kind, concatenated and sorted by
    vid (entity, chunk) or by fact content."""
    import ray

    def cat(refs, key):
        cols = list(zip(*ray.get(list(refs))))
        out = [
            np.concatenate([c for c in col if len(c)]) if any(len(c) for c in col) else col[0]
            for col in cols
        ]
        order = np.argsort(out[key], kind="stable")
        return [c[order] for c in out]

    ent, chunk = eng._view_refs
    out = {"ent": cat(ent, 1), "chunk": cat(chunk, 0)}
    if eng._fact_view is not None:
        out["fact"] = cat(eng._fact_view, 3)
    return out


@pytest.mark.parametrize(
    "kw",
    [dict(facts=True), dict(facts=False), dict(edge_source="triples")],
    ids=["facts", "entities", "triples"],
)
def test_appended_views_equal_rebuild(ray_session, tmp_path, kw):
    """An incremental index() appends its delta to the cached packs
    instead of dropping them.  After an append, a re-append of indexed
    turns and a second append, the live packs (n_chunks included) equal
    a freshly built engine's, and so does retrieve."""
    turns = _turns(tmp_path)
    queries = turns["text"].tolist()[::7]
    eng = HippoRagEngine(str(tmp_path / "wd"), **kw)
    try:
        eng.index(rd.from_pandas(turns.iloc[:80]))
        eng.retrieve(queries, top_k=5)
        for rows in (slice(80, 100), slice(0, 30), slice(100, 120)):
            stats = eng.index(rd.from_pandas(turns.iloc[rows]))
            assert set(stats["timers"]) == {"stores_s", "graph_s", "views_s"}
            assert eng._view_refs is not None  # appended, not dropped
            assert (eng._fact_view is not None) == eng.facts
            got = eng.retrieve(queries, top_k=5)
            assert eng.timers["views_s"] < 0.05  # nothing rebuilt
            live = _packs(eng)
            other = HippoRagEngine(eng.working_dir, **kw)
            try:
                want = other.retrieve(queries, top_k=5)
                fresh = _packs(other)
            finally:
                other.close()
            assert live.keys() == fresh.keys()
            for kind in live:
                for a, b in zip(live[kind], fresh[kind]):
                    np.testing.assert_array_equal(a, b)
            assert [r["docs"] for r in got] == [r["docs"] for r in want]
            assert [r["doc_scores"] for r in got] == [r["doc_scores"] for r in want]
    finally:
        eng.close()


def test_failed_or_oversized_append_drops_views(ray_session, tmp_path, monkeypatch):
    """A failed append leaves the views dropped, never stale: index()
    raises and the next retrieve rebuilds them.  An append larger than
    the built views is not made either (the compaction rule)."""
    turns = _turns(tmp_path)
    queries = turns["text"].tolist()[::7]
    eng = HippoRagEngine(str(tmp_path / "wd"))
    try:
        eng.index(rd.from_pandas(turns.iloc[:30]))
        eng.retrieve(queries, top_k=5)

        def boom(*a, **k):
            raise RuntimeError("append failed")

        with monkeypatch.context() as m:
            m.setattr(HippoRagEngine, "_extend_refs", boom)
            with pytest.raises(RuntimeError, match="append failed"):
                eng.index(rd.from_pandas(turns.iloc[30:40]))
        assert eng._view_refs is None and eng._fact_view is None
        got = eng.retrieve(queries, top_k=5)
        other = HippoRagEngine(eng.working_dir)
        try:
            want = other.retrieve(queries, top_k=5)
        finally:
            other.close()
        assert [r["doc_scores"] for r in got] == [r["doc_scores"] for r in want]
        assert [r["docs"] for r in got] == [r["docs"] for r in want]

        eng.index(rd.from_pandas(turns.iloc[40:]))  # 80 new turns > 40 built
        assert eng._view_refs is None
    finally:
        eng.close()


def test_empty_index_changes_nothing(ray_session, tmp_path):
    """index() of an empty Dataset returns zero counts and leaves the
    corpus, stores, graph, serving views and shard pool untouched (Ray
    writes no corpus part for 0 rows; the write used to raise
    FileNotFoundError after it had already dropped the views)."""
    import os

    eng = HippoRagEngine(str(tmp_path / "wd"), dim=32)
    try:
        st = eng.index(_tx([]))
        assert (st["new_chunks"], st["new_entities"], st["n_vertices"], st["n_edges"]) == (0, 0, 0, 0)
        assert os.listdir(eng.corpus_dir) == []
        assert not os.path.exists(os.path.join(eng.graph_dir, "manifest.json"))

        full = eng.index(_tx(CORPUS_A))
        eng.retrieve(["alpha beta"], top_k=3)
        ids = [a._actor_id for a in eng._sg.actors]
        views = (eng._view_refs, eng._fact_view)
        before = {
            d: sorted(os.listdir(os.path.join(eng.working_dir, d)))
            for d in ("corpus", "vdb_chunk", "vdb_entity", "vdb_fact", "facts", "graph")
        }
        st = eng.index(_tx([]))
        assert (st["new_chunks"], st["new_entities"]) == (0, 0)
        assert (st["n_vertices"], st["n_edges"]) == (full["n_vertices"], full["n_edges"])
        assert (eng._view_refs, eng._fact_view) == views
        assert not eng._sg_stale
        assert before == {d: sorted(os.listdir(os.path.join(eng.working_dir, d))) for d in before}
        got = eng.retrieve(["alpha beta"], top_k=3)
        assert [a._actor_id for a in eng._sg.actors] == ids
        assert got[0]["docs"]
    finally:
        eng.close()


def test_bad_reset_in_retrieve_fails_loudly(ray_session, tmp_path, monkeypatch):
    """Seed vids outside the graph (entity links shifted past the last
    vid) make retrieve raise ValueError naming them, at the PPR call's
    first wave; the engine's pool then serves the next retrieve as
    before and still answers PPR like the oracle."""
    import re

    from hipporag_ray.algos.iterate import personalized_pagerank
    from hipporag_ray.algos.oracle import ppr_oracle

    queries = ["alpha beta", "sigma tau"]
    eng = HippoRagEngine(str(tmp_path / "wd"), dim=32, facts=False)
    try:
        eng.index(_tx(CORPUS_A))
        want = eng.retrieve(queries, top_k=3)
        n = eng.graph().n_vertices
        real_link = eng._entity_link
        shifted = []

        def bad_link(q_ref):
            link = real_link(q_ref)
            link["vid"] = link["vid"] + n
            shifted.extend(link["vid"].tolist()[:5])
            return link

        monkeypatch.setattr(eng, "_entity_link", bad_link)
        with pytest.raises(ValueError, match="reset vids outside") as err:
            eng.retrieve(queries, top_k=3)
        assert shifted and re.search(re.escape(f"(e.g. {shifted})"), str(err.value))
        monkeypatch.undo()

        got = eng.retrieve(queries, top_k=3)
        assert [r["docs"] for r in got] == [r["docs"] for r in want]
        assert [r["doc_scores"] for r in got] == [r["doc_scores"] for r in want]
        e = eng.graph().edges().to_pandas()
        scores, _ = personalized_pagerank(eng._sg, resets=[([0, 2], [1.0, 3.0])], n_queries=1)
        reset = np.zeros(n)
        reset[[0, 2]] = [1.0, 3.0]
        oracle = ppr_oracle(
            n,
            e["src"].to_numpy(np.int64),
            e["dst"].to_numpy(np.int64),
            e["weight"].to_numpy(np.float64),
            reset=reset,
        )
        np.testing.assert_allclose(scores[:, 0], oracle, atol=1e-6)
    finally:
        eng.close()
