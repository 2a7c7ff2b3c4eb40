"""Checkpoint/resume for CC and the custom shuffle primitives."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from hipporag_ray.algos.iterate import connected_components
from hipporag_ray.algos.oracle import cc_oracle
from hipporag_ray.stages.graph_build import build_graph
from hipporag_ray.stages.shuffle import hash_distinct, int_key_sum, range_sort
from hipporag_ray.state.csr import ShardedGraph


def test_cc_resume(small_transcripts, tmp_path):
    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    e = g.edges().to_pandas()
    want = cc_oracle(g.n_vertices, e["src"].to_numpy(), e["dst"].to_numpy())

    ck = str(tmp_path / "ck")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        connected_components(sg, max_iter=2, checkpoint_dir=ck, checkpoint_every=1)
    finally:
        sg.shutdown()
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        comp, metrics = connected_components(
            sg, checkpoint_dir=ck, checkpoint_every=1, resume=True
        )
        assert metrics[0]["iter"] == 3  # resumed, not restarted
        np.testing.assert_array_equal(comp, want)
    finally:
        sg.shutdown()


def test_checkpoint_args_need_a_directory(small_transcripts, tmp_path):
    """checkpoint_every > 0 or resume=True without checkpoint_dir raises
    ValueError for PPR and CC — both used to be silent no-ops (nothing
    saved; "resume" restarting from iteration 0)."""
    from hipporag_ray.algos.iterate import personalized_pagerank

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        for run in (personalized_pagerank, connected_components):
            for kw in ({"checkpoint_every": 2}, {"resume": True}):
                with pytest.raises(ValueError, match="checkpoint_dir"):
                    run(sg, **kw)
    finally:
        sg.shutdown()


def test_resume_rejects_lineage_mismatch(small_transcripts, tmp_path):
    """A checkpoint taken under a different partitioning is ignored —
    the run restarts from iteration 0 instead of loading bad shards."""
    from hipporag_ray.algos.iterate import personalized_pagerank

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    ck = str(tmp_path / "ck")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        personalized_pagerank(sg, max_iter=4, checkpoint_dir=ck, checkpoint_every=2)
    finally:
        sg.shutdown()
    # different shard count -> bounds mismatch -> resume starts fresh
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        _, metrics = personalized_pagerank(
            sg, checkpoint_dir=ck, checkpoint_every=2, resume=True
        )
        assert metrics[0]["iter"] == 1
    finally:
        sg.shutdown()


def test_int_key_sum_matches_pandas():
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 500, 20000)
    w = rng.random(20000)
    ds = rd.from_arrow(
        pa.table({"code": pa.array(codes, type=pa.int64()), "w": pa.array(w)})
    ).repartition(7)
    out = int_key_sum(ds.materialize(), "code", "w").to_pandas()
    import pandas as pd

    want = pd.DataFrame({"code": codes, "w": w}).groupby("code", as_index=False).sum()
    merged = out.sort_values("code").reset_index(drop=True)
    want = want.sort_values("code").reset_index(drop=True)
    np.testing.assert_array_equal(merged["code"], want["code"])
    np.testing.assert_allclose(merged["w"], want["w"], rtol=1e-12)


def test_hash_distinct_and_range_sort():
    rng = np.random.default_rng(2)
    keys = [f"k{int(x):04d}" for x in rng.integers(0, 300, 5000)]
    vals = [f"v-{k}" for k in keys]  # value determined by key
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals})).repartition(5)
    out = hash_distinct(ds.materialize(), "k").to_pandas()
    assert len(out) == len(set(keys))
    assert (out["v"] == "v-" + out["k"]).all()

    ints = rng.integers(0, 10_000, 30000)
    ds2 = rd.from_arrow(pa.table({"x": pa.array(ints, type=pa.int64())})).repartition(6)
    sorted_ds = range_sort(ds2.materialize(), "x")
    tables = list(sorted_ds.iter_batches(batch_size=None, batch_format="pandas"))
    # each block sorted within; block key ranges disjoint (streaming
    # iteration may hand blocks back in any order)
    spans = []
    total = 0
    for t in tables:
        xs = t["x"].to_numpy()
        if len(xs) == 0:
            continue
        assert (np.diff(xs) >= 0).all()
        spans.append((xs[0], xs[-1]))
        total += len(xs)
    assert total == 30000
    spans.sort()
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert lo >= hi


def test_resume_rejects_algo_mismatch(small_transcripts, tmp_path):
    """A directory checkpointed by PPR must not seed a CC resume (the
    shard state columns differ) — CC restarts from iteration 0."""
    from hipporag_ray.algos.iterate import personalized_pagerank

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    e = g.edges().to_pandas()
    want = cc_oracle(g.n_vertices, e["src"].to_numpy(), e["dst"].to_numpy())
    ck = str(tmp_path / "ck")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        personalized_pagerank(sg, max_iter=4, checkpoint_dir=ck, checkpoint_every=2)
    finally:
        sg.shutdown()
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        comp, metrics = connected_components(sg, checkpoint_dir=ck, resume=True)
        assert metrics[0]["iter"] == 1  # NOT resumed from the ppr manifest
        np.testing.assert_array_equal(comp, want)
    finally:
        sg.shutdown()


def test_save_after_resume_extends_history(small_transcripts, tmp_path):
    """A checkpoint written after a resume extends the manifest's iter
    lineage instead of discarding the pre-resume entries."""
    import json
    import os

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    ck = str(tmp_path / "ck")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        connected_components(sg, max_iter=2, checkpoint_dir=ck, checkpoint_every=1)
    finally:
        sg.shutdown()
    with open(os.path.join(ck, "manifest.json")) as f:
        before = [e["iter"] for e in json.load(f)["iters"]]
    assert before == [1, 2]
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        connected_components(sg, checkpoint_dir=ck, checkpoint_every=1, resume=True)
    finally:
        sg.shutdown()
    with open(os.path.join(ck, "manifest.json")) as f:
        after = [e["iter"] for e in json.load(f)["iters"]]
    assert after[: len(before)] == before  # history preserved
    assert len(after) > len(before)  # and extended past the resume point


def test_ppr_resume_rejects_different_seed_set(small_transcripts, tmp_path):
    """The reset fingerprint is a CONTENT digest: two seed sets with
    equal per-shard mass must not share a lineage, or resume would
    serve query A's checkpoint to query B."""
    from hipporag_ray.algos.iterate import personalized_pagerank

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    ck = str(tmp_path / "ck")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        # seeds 0 and 1 land in the same shard with identical mass
        s_a, _ = personalized_pagerank(
            sg,
            resets=[(np.array([0]), np.array([1.0]))],
            n_queries=1,
            checkpoint_dir=ck,
            checkpoint_every=1,
        )
        s_b, m_b = personalized_pagerank(
            sg,
            resets=[(np.array([1]), np.array([1.0]))],
            n_queries=1,
            checkpoint_dir=ck,
            checkpoint_every=1,
            resume=True,
        )
        assert m_b[0]["iter"] == 1  # fresh run: lineage did not match
        assert not np.allclose(s_a, s_b)  # and the scores differ
    finally:
        sg.shutdown()


def test_resume_truncates_stale_metrics(small_transcripts, tmp_path):
    """metrics.jsonl drops the abandoned tail on resume so per-iter
    records never appear twice."""
    import json as _json
    import os as _os

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    ck = str(tmp_path / "ck")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        connected_components(sg, max_iter=3, checkpoint_dir=ck, checkpoint_every=2)
    finally:
        sg.shutdown()
    # checkpoints exist for iter 2 only at cadence 2 (run stopped at 3);
    # metrics hold iters 1..3 — the resume point is 2, so iter 3 is stale
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        connected_components(sg, checkpoint_dir=ck, checkpoint_every=2, resume=True)
    finally:
        sg.shutdown()
    with open(_os.path.join(ck, "metrics.jsonl")) as f:
        iters = [_json.loads(l)["iter"] for l in f]
    assert iters == sorted(set(iters)), f"duplicate iteration records: {iters}"


def test_route_reset_rejects_out_of_range_vids(small_transcripts, tmp_path):
    """Stale seeds from a different graph raise instead of silently
    losing reset mass."""
    import ray

    from hipporag_ray.algos.iterate import personalized_pagerank

    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    bad = rd.from_arrow(
        pa.table(
            {
                "vid": pa.array([0, g.n_vertices + 7], pa.int64()),
                "query_idx": pa.array([0, 0], pa.int64()),
                "weight": pa.array([1.0, 1.0], pa.float64()),
            }
        )
    )
    try:
        with pytest.raises(ray.exceptions.RayTaskError, match="outside"):
            personalized_pagerank(sg, reset_dataset=bad, n_queries=1)
    finally:
        sg.shutdown()


def test_md5_hex_null_tolerant():
    """Null strings hash as '' on both the dictionary and long-string
    paths (a null ingest row must not kill insert_strings)."""
    from hipporag_ray.functions.hashing import md5_hex, stable_hash64

    short = pa.array(["a", None, "b"], pa.string())
    got = md5_hex(short).to_pylist()
    want_empty = md5_hex(pa.array([""], pa.string())).to_pylist()[0]
    assert got[1] == want_empty and got[0] != got[1]
    long_vals = pa.array(["x" * 100, None], pa.string())
    got_long = md5_hex(long_vals).to_pylist()
    assert got_long[1] == want_empty
    h = stable_hash64(pa.array(["a", None], pa.string()))
    assert h[1] == stable_hash64(pa.array([""], pa.string()))[0]


def test_coreness_resume(tmp_path):
    """Coreness inherits the superstep loop's checkpoint/resume
    contract: an interrupted run resumes mid-iteration (degree init is
    re-run, then overwritten by the checkpointed values) and converges
    to the peeling oracle.  Uses a distinct-pair adjacency — coreness
    counts each (src, dst) RECORD as a neighbor slot, so the transcript
    graph's parallel fact+passage records would give the multigraph
    core number, not the simple-graph oracle's."""
    import os

    import pyarrow.parquet as pq

    from hipporag_ray.algos.iterate import coreness
    from hipporag_ray.algos.oracle import coreness_oracle

    rng = np.random.default_rng(17)
    n = 40
    a = rng.integers(0, n, 200)
    b = rng.integers(0, n, 200)
    keep = a != b
    lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    code = np.unique(lo * n + hi)  # canonical — (u,v)+(v,u) would be
    src, dst = code // n, code % n  # a duplicate record after mirroring
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.ones(2 * len(src)),
            "etype": ["fact"] * (2 * len(src)),
        }
    ).sort_by("src")
    adj_dir = tmp_path / "adj"
    os.makedirs(adj_dir)
    pq.write_table(adj, str(adj_dir / "part-0.parquet"))
    want = coreness_oracle(n, src, dst)

    ck = str(tmp_path / "ck")
    sg = ShardedGraph(str(adj_dir), n, n_shards=3)
    try:
        coreness(sg, max_iter=1, checkpoint_dir=ck, checkpoint_every=1)
    finally:
        sg.shutdown()
    sg = ShardedGraph(str(adj_dir), n, n_shards=3)
    try:
        core, metrics = coreness(
            sg, checkpoint_dir=ck, checkpoint_every=1, resume=True
        )
        assert metrics[0]["iter"] == 2  # resumed, not restarted
        np.testing.assert_array_equal(core, want)
    finally:
        sg.shutdown()
