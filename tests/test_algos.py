"""Distributed algorithms vs single-process oracles (FIXTURES.md §3)."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data as rd

from hipporag_ray.algos.iterate import (
    connected_components,
    label_propagation,
    pagerank,
    personalized_pagerank,
)
from hipporag_ray.algos.oracle import (
    cc_oracle,
    lp_oracle,
    pagerank_oracle,
    ppr_oracle,
)
from hipporag_ray.stages.graph_build import build_graph
from hipporag_ray.state.csr import ShardedGraph


@pytest.fixture(scope="module")
def graph(small_transcripts, tmp_path_factory):
    out = tmp_path_factory.mktemp("graph_algo")
    g = build_graph(rd.read_parquet(small_transcripts), str(out))
    e = g.edges().to_pandas()
    return g, e


def _edge_arrays(e):
    return (
        e["src"].to_numpy(np.int64),
        e["dst"].to_numpy(np.int64),
        e["weight"].to_numpy(np.float64),
    )


@pytest.mark.parametrize("n_shards", [1, 4])
def test_pagerank_matches_oracle(graph, n_shards):
    g, e = graph
    src, dst, w = _edge_arrays(e)
    want = pagerank_oracle(g.n_vertices, src, dst, w)
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=n_shards)
    try:
        got, metrics = pagerank(sg)
        assert got.shape == (g.n_vertices, 1)
        np.testing.assert_allclose(got[:, 0], want, atol=1e-6)
        assert metrics[-1]["l1_delta"] < 1e-6 or len(metrics) == 100
        # scores sum ~1
        assert abs(got.sum() - 1.0) < 1e-6
    finally:
        sg.shutdown()


def test_ppr_sparse_reset_multi_query(graph):
    g, e = graph
    src, dst, w = _edge_arrays(e)
    rng = np.random.default_rng(0)
    queries = []
    for _ in range(3):
        vids = rng.choice(g.n_vertices, size=5, replace=False)
        weights = rng.random(5)
        queries.append((vids, weights))
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        got, _ = personalized_pagerank(sg, resets=queries, n_queries=3)
        for b, (vids, weights) in enumerate(queries):
            reset = np.zeros(g.n_vertices)
            reset[vids] = weights
            want = ppr_oracle(g.n_vertices, src, dst, w, reset=reset)
            np.testing.assert_allclose(got[:, b], want, atol=1e-6)
    finally:
        sg.shutdown()


def test_ppr_all_zero_reset_uniform_fallback(graph):
    g, e = graph
    src, dst, w = _edge_arrays(e)
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        got, _ = personalized_pagerank(
            sg, resets=np.zeros((g.n_vertices, 1)), n_queries=1
        )
        want = ppr_oracle(g.n_vertices, src, dst, w, reset=np.zeros(g.n_vertices))
        np.testing.assert_allclose(got[:, 0], want, atol=1e-6)
    finally:
        sg.shutdown()


def test_cc_and_lp_match_oracle(graph):
    g, e = graph
    src, dst, w = _edge_arrays(e)
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=4)
    try:
        comp, _ = connected_components(sg)
        np.testing.assert_array_equal(comp, cc_oracle(g.n_vertices, src, dst))
        labels, _ = label_propagation(sg, max_iter=5)
        np.testing.assert_array_equal(labels, lp_oracle(g.n_vertices, src, dst, w, max_iter=5))
    finally:
        sg.shutdown()


def test_dangling_and_isolated_vertices(tmp_path):
    """Hand-built graph: path 0-1-2, isolated 3 and 4 (dangling: no
    out-weight -> their mass redistributes through reset,
    SimpleGraph.kt:158-166)."""
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([1, 2], dtype=np.int64)
    w = np.array([1.0, 2.0])
    n = 5
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.concatenate([w, w]),
            "etype": ["fact"] * 4,
        }
    )
    adj = adj.sort_by("src")
    adj_dir = tmp_path / "adj"
    os.makedirs(adj_dir)
    pq.write_table(adj, str(adj_dir / "part-0.parquet"))

    sg = ShardedGraph(str(adj_dir), n, n_shards=2)
    try:
        got, _ = pagerank(sg)
        want = pagerank_oracle(n, src, dst, w)
        np.testing.assert_allclose(got[:, 0], want, atol=1e-6)
        comp, _ = connected_components(sg)
        np.testing.assert_array_equal(comp, cc_oracle(n, src, dst))
    finally:
        sg.shutdown()


def test_cc_long_path_converges(tmp_path):
    """A 3000-vertex path: plain min-label needs 3000 rounds; pointer
    jumping must converge well inside max_iter=60."""
    n = 3000
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    w = np.ones(n - 1)
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.concatenate([w, w]),
            "etype": ["fact"] * (2 * (n - 1)),
        }
    ).sort_by("src")
    d = tmp_path / "adj"
    os.makedirs(d)
    pq.write_table(adj, str(d / "p.parquet"))
    sg = ShardedGraph(str(d), n, n_shards=4)
    try:
        comp, metrics = connected_components(sg, max_iter=60)
        assert metrics[-1]["changed"] == 0  # actually converged
        np.testing.assert_array_equal(comp, np.zeros(n, dtype=np.int64))
    finally:
        sg.shutdown()


def _early_column_resets(n):
    """Two point seeds plus a uniform column: the uniform column (plain
    PageRank) converges iterations before the point seeds, so the active
    set shrinks mid-run."""
    return [([0], [1.0]), ([1], [1.0]), (np.arange(n), 1.0)]


def test_ppr_resume_bit_identical(graph, tmp_path):
    """Kill after iteration K, resume from checkpoint, compare final
    scores vs uninterrupted — bit-identical (FIXTURES.md §3).  K is the
    first save point where the active set has already shrunk (one of
    the three list-reset columns converged early), so the resumed run
    restarts from a partial active set saved at a checkpoint barrier."""
    g, e = graph
    resets = _early_column_resets(g.n_vertices)
    kw = {"resets": resets, "n_queries": 3, "checkpoint_every": 2}
    ck1 = str(tmp_path / "ck_full")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        full, _ = personalized_pagerank(sg, checkpoint_dir=ck1, **kw)
    finally:
        sg.shutdown()
    with open(os.path.join(ck1, "manifest.json")) as f:
        saved = json.load(f)["iters"]
    k = next(e["iter"] for e in saved if 0 < len(e["active"]) < 3)

    ck2 = str(tmp_path / "ck_resume")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        personalized_pagerank(sg, max_iter=k, checkpoint_dir=ck2, **kw)
    finally:
        sg.shutdown()
    # fresh pool resumes from iter k
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        resumed, metrics = personalized_pagerank(
            sg, checkpoint_dir=ck2, resume=True, **kw
        )
        assert metrics[0]["iter"] == k + 1  # continued, not restarted
        assert metrics[0]["active_queries"] < 3
        np.testing.assert_array_equal(resumed, full)
    finally:
        sg.shutdown()


def _ckpt_record(ck):
    with open(os.path.join(ck, "manifest.json")) as f:
        saved = [e["iter"] for e in json.load(f)["iters"]]
    with open(os.path.join(ck, "metrics.jsonl")) as f:
        logged = [json.loads(line)["iter"] for line in f]
    return saved, logged


def test_checkpoint_barriers_save_drained_waves(graph, tmp_path):
    """Checkpointed runs pipeline like unchecked ones and drain the
    in-flight wave at each save point: the manifest holds exactly the
    save points up to the last iteration N, metrics.jsonl holds 1..N
    once each, and the results match the unchecked run and the oracle.
    Both inputs converge at an N that is not a save point, so the run
    also ends between barriers."""
    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices
    resets = _early_column_resets(n)
    sg = ShardedGraph(g.adj_path, n, n_shards=3)
    try:
        plain, _ = personalized_pagerank(sg, resets=resets, n_queries=3, damping=0.7)
        ck = str(tmp_path / "ck_ppr")
        got, metrics = personalized_pagerank(
            sg, resets=resets, n_queries=3, damping=0.7,
            checkpoint_dir=ck, checkpoint_every=3,
        )
        last = len(metrics)
        assert last % 3 != 0
        assert _ckpt_record(ck) == (list(range(3, last + 1, 3)), list(range(1, last + 1)))
        assert [m["iter"] for m in metrics] == list(range(1, last + 1))
        np.testing.assert_allclose(got, plain, atol=1e-6)
        for b, (vids, weights) in enumerate(resets):
            reset = np.zeros(n)
            reset[vids] = weights
            want = ppr_oracle(n, src, dst, w, reset=reset, damping=0.7)
            np.testing.assert_allclose(got[:, b], want, atol=1e-6)

        plain_cc, _ = connected_components(sg)
        ck = str(tmp_path / "ck_cc")
        comp, metrics = connected_components(sg, checkpoint_dir=ck, checkpoint_every=3)
        last = len(metrics)
        assert last % 3 != 0
        assert _ckpt_record(ck) == (list(range(3, last + 1, 3)), list(range(1, last + 1)))
        np.testing.assert_array_equal(comp, plain_cc)
        np.testing.assert_array_equal(comp, cc_oracle(n, src, dst))
    finally:
        sg.shutdown()


def test_dataset_readbacks_match_collected(ray_session, tmp_path):
    """scores_dataset / labels_dataset (the collect=False readback) are
    row-for-row the collected matrix/vector."""
    import numpy as np
    import ray.data as rd

    from hipporag_ray.algos.iterate import (
        connected_components,
        labels_dataset,
        pagerank,
        scores_dataset,
    )
    from hipporag_ray.stages.graph_build import build_graph
    from hipporag_ray.state.csr import ShardedGraph
    from hipporag_ray.synth import write_transcripts

    tx = write_transcripts(str(tmp_path / "tx"), 25, 6, 40, seed=3)
    g = build_graph(rd.read_parquet(tx), str(tmp_path / "g"))

    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        scores, _ = pagerank(sg, tol=0.0, max_iter=4)
        sdf = scores_dataset(sg, 0).to_pandas().sort_values("vid")
        np.testing.assert_array_equal(sdf["vid"].to_numpy(), np.arange(g.n_vertices))
        np.testing.assert_allclose(sdf["score"].to_numpy(), scores[:, 0], atol=0)

        comp, _ = connected_components(sg)
        ldf = labels_dataset(sg, "component").to_pandas().sort_values("vid")
        np.testing.assert_array_equal(ldf["component"].to_numpy(), comp)
    finally:
        sg.shutdown()
    # refs stay valid after shutdown (driver owns the actor-task returns)
    assert len(ldf) == g.n_vertices


def test_ppr_resume_rejects_param_mismatch(graph, tmp_path):
    """Resuming under different run parameters (n_queries, damping, or
    reset identity) must restart cleanly, not crash or silently mix two
    iteration dynamics."""
    g, e = graph
    ck = str(tmp_path / "ck_params")
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        personalized_pagerank(
            sg, n_queries=2, max_iter=4, checkpoint_dir=ck, checkpoint_every=2
        )
    finally:
        sg.shutdown()

    src, dst, w = _edge_arrays(e)
    for kw in (
        {"n_queries": 1},
        {"n_queries": 2, "damping": 0.85},
        {
            "n_queries": 2,
            "resets": [
                (np.array([0]), np.array([1.0])),
                (np.array([1]), np.array([1.0])),
            ],
        },
    ):
        sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
        try:
            scores, metrics = personalized_pagerank(
                sg, checkpoint_dir=ck, checkpoint_every=2, resume=True, **kw
            )
            assert metrics[0]["iter"] == 1  # restarted from scratch
            want = ppr_oracle(
                g.n_vertices,
                src,
                dst,
                w,
                damping=kw.get("damping", 0.5),
                reset=(
                    None
                    if "resets" not in kw
                    else np.eye(g.n_vertices)[:, 0]
                ),
            )
            if "resets" not in kw:
                np.testing.assert_allclose(scores[:, 0], want, atol=1e-6)
        finally:
            sg.shutdown()


def test_ppr_duplicate_reset_vids_sum(graph):
    """Duplicate (vid, weight) entries in one seed list sum — matching
    the streaming reset path's np.add.at semantics."""
    g, e = graph
    src, dst, w = _edge_arrays(e)
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        dup, _ = personalized_pagerank(
            sg,
            resets=[(np.array([1, 1, 3]), np.array([0.5, 0.5, 1.0]))],
            n_queries=1,
        )
        reset = np.zeros(g.n_vertices)
        reset[1], reset[3] = 1.0, 1.0
        want = ppr_oracle(g.n_vertices, src, dst, w, reset=reset)
        np.testing.assert_allclose(dup[:, 0], want, atol=1e-6)
    finally:
        sg.shutdown()


def test_ppr_list_resets_match_dense_and_reject_bad_vids(graph):
    """A list reset takes the sparse triple route: scores are identical
    to the same seeds given as a dense matrix (scalar weights broadcast,
    an empty seed list falls back to uniform), and a seed vid outside
    the graph raises instead of wrapping (a negative vid used to index
    the dense matrix from the end and seed the wrong vertex).  A list
    whose length is not ``n_queries`` raises ValueError naming both (a
    short one used to leave all-zero columns that normalize to uniform
    PageRank)."""
    g, _ = graph
    n = g.n_vertices
    queries = [(np.array([1, 4, 4]), np.array([0.5, 0.25, 0.25])), ([2, 3], 1.0), ([], [])]
    dense = np.zeros((n, len(queries)))
    for b, (vids, weights) in enumerate(queries):
        np.add.at(dense[:, b], np.asarray(vids, np.int64), weights)
    sg = ShardedGraph(g.adj_path, n, n_shards=2)
    try:
        got, _ = personalized_pagerank(sg, resets=queries, n_queries=len(queries))
        want, _ = personalized_pagerank(sg, resets=dense, n_queries=len(queries))
        np.testing.assert_array_equal(got, want)
        for bad in ([-1], [n]):
            with pytest.raises(Exception, match="reset vids outside"):
                personalized_pagerank(sg, resets=[(bad, [1.0])], n_queries=1)
        for n_queries in (len(queries) + 1, len(queries) - 1):
            with pytest.raises(ValueError, match=f"{len(queries)} .*={n_queries}"):
                personalized_pagerank(sg, resets=queries, n_queries=n_queries)
    finally:
        sg.shutdown()


def test_ppr_dense_reset_validation(graph):
    """A dense reset is checked on the driver with ValueError (not an
    assert, which ``python -O`` strips): a wrong shape, or a 1-D reset
    for several queries, raises.  A 1-D dense reset and the same seeds
    as a list give bit-identical scores."""
    g, _ = graph
    n = g.n_vertices
    sg = ShardedGraph(g.adj_path, n, n_shards=2)
    try:
        for bad, n_queries in (
            (np.ones((n + 1, 1)), 1),
            (np.ones((n, 3)), 2),
            (np.ones((n, 1, 1)), 1),
            (np.ones(n), 2),
        ):
            with pytest.raises(ValueError, match="dense reset"):
                personalized_pagerank(sg, resets=bad, n_queries=n_queries)
        vec = np.zeros(n)
        vec[[2, 5]] = [0.75, 0.25]
        got, _ = personalized_pagerank(sg, resets=vec, n_queries=1)
        want, _ = personalized_pagerank(
            sg, resets=[([2, 5], [0.75, 0.25])], n_queries=1
        )
        np.testing.assert_array_equal(got, want)
    finally:
        sg.shutdown()


def test_oversized_segment_float64_path(graph, tmp_path, monkeypatch):
    """Segments longer than the pull chunk take the float64 escalation
    path (the high-degree-vertex branch).  Driven through PLAIN
    GraphShards in-process (an actor pool would not see the patched
    chunk size), manual step("ppr") loop, compared to the oracle."""
    from hipporag_ray.state.csr import GraphShard, assemble_ppr

    g, e = graph
    src, dst, w = _edge_arrays(e)
    want = pagerank_oracle(g.n_vertices, src, dst, w)

    # buf rows = _PULL_CHUNK + 1024; a negative chunk gives a 0-row
    # buffer so EVERY segment takes the oversized float64 branch
    # (use_native=False: the chunked escalation is a numpy-path branch —
    # the compiled kernel accumulates float64 unconditionally)
    monkeypatch.setattr(GraphShard, "_PULL_CHUNK", -1024)
    n = g.n_vertices
    bounds = np.array([0, n // 2, n], dtype=np.int64)
    shards = [GraphShard(g.adj_path, i, bounds, n, use_native=False) for i in range(2)]
    sums = [s.ppr_init(1) for s in shards]
    totals = np.sum(sums, axis=0)
    for s in shards:
        s.ppr_normalize_reset(totals)
    active = np.arange(1)
    msgs = [s.message("ppr", 0.5, active) for s in shards]
    for _ in range(100):
        assembled = assemble_ppr(msgs)
        deltas, msgs = zip(*[s.step("ppr", 0.5, active, assembled) for s in shards])
        if np.sum(deltas) < 1e-6:
            break
    got = np.concatenate([s.scores[:, 0] for s in shards])
    np.testing.assert_allclose(got, want, atol=1e-6)


def _manual_ppr(shards, n_queries=2, iters=8, damping=0.5):
    from hipporag_ray.state.csr import assemble_ppr

    rng = np.random.default_rng(7)
    n = shards[-1].hi
    dense = rng.random((n, n_queries))
    sums = []
    for s in shards:
        vid, q = np.nonzero(dense[s.lo : s.hi])
        sums.append(s.ppr_init(n_queries, (vid + s.lo, q, dense[vid + s.lo, q])))
    totals = np.sum(sums, axis=0)
    for s in shards:
        s.ppr_normalize_reset(totals)
    active = np.arange(n_queries)
    msgs = [s.message("ppr", damping, active) for s in shards]
    for _ in range(iters):
        assembled = assemble_ppr(msgs)
        msgs = [s.step("ppr", damping, active, assembled)[1] for s in shards]
    return np.concatenate([s.scores for s in shards])


def _manual_cc(shards, iters=30):
    from hipporag_ray.state.csr import assemble_labels

    for s in shards:
        s.labels_init()
    msgs = [s.message("cc") for s in shards]
    for _ in range(iters):
        assembled = assemble_labels(msgs)
        changed, msgs = zip(*[s.step("cc", assembled) for s in shards])
        if sum(changed) == 0:
            break
    return np.concatenate([s.labels for s in shards])


def test_native_kernel_parity_with_numpy_path(graph):
    """The compiled SpMM / seg-min kernels (state/native.py) and the
    numpy gather+reduceat fallback produce the same PPR scores (allclose
    at the float32-message error scale) and identical CC labels on the
    same plain in-process shards."""
    from hipporag_ray.state.csr import GraphShard
    from hipporag_ray.state.native import native

    if native() is None:
        pytest.skip("no C compiler available — numpy fallback only")

    g, e = graph
    n = g.n_vertices
    bounds = np.array([0, n // 3, n // 2, n], dtype=np.int64)

    def mk(use_native):
        return [
            GraphShard(g.adj_path, i, bounds, n, use_native=use_native)
            for i in range(len(bounds) - 1)
        ]

    fast, slow = mk(True), mk(False)
    assert all(s._kern is not None for s in fast)
    assert all(s._kern is None for s in slow)

    got_fast = _manual_ppr(fast)
    got_slow = _manual_ppr(slow)
    # float32 messages either way; the kernels only differ in summation
    # order/precision (compiled path accumulates float64)
    np.testing.assert_allclose(got_fast, got_slow, atol=1e-6, rtol=1e-5)

    # the compiled path must ALSO match the oracle, not just the fallback
    src, dst, w = _edge_arrays(e)
    reset = np.random.default_rng(7).random((n, 2))
    for b in range(2):
        want = ppr_oracle(n, src, dst, w, reset=reset[:, b], max_iter=8, tol=0.0)
        np.testing.assert_allclose(got_fast[:, b], want, atol=1e-6)

    np.testing.assert_array_equal(_manual_cc(fast), _manual_cc(slow))


def test_chunked_messages_match_single_assemble(graph):
    """The k-chunk message protocol (parallel group assembles, each
    chunk read in place — csr.GraphShard msg_chunk_bounds) produces
    the same PPR scores as the pool without assemblers (k=1, the shard
    messages read in place), and identical CC/LP labels.  Every shard
    keeps one (own, source) edge order, so each segment adds the same
    rows in the same order under any chunk cut: the compiled path is
    exact, and any divergence is a routing bug, not numerics."""
    from hipporag_ray.state.native import native

    g, _ = graph
    out = {}
    for k in (1, 4):
        sg = ShardedGraph(g.adj_path, g.n_vertices, msg_chunks=k, precise=True)
        try:
            assert len(sg.assemblers) == (len(sg.msg_groups) if len(sg.msg_groups) > 1 else 0)
            assert [i for grp in sg.msg_groups for i in grp] == list(
                range(sg.n_shards)
            )
            rng = np.random.default_rng(3)
            resets = [
                (rng.choice(g.n_vertices, size=4, replace=False), np.ones(4))
                for _ in range(8)
            ]
            scores, _m = personalized_pagerank(
                sg, resets=resets, n_queries=8, max_iter=25
            )
            cc, _m = connected_components(sg)
            lp, _m = label_propagation(sg, max_iter=10)
            out[k] = (scores, cc, lp)
        finally:
            sg.shutdown()
    if native() is not None:
        np.testing.assert_array_equal(out[1][0], out[4][0])
    np.testing.assert_allclose(out[1][0], out[4][0], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out[1][1], out[4][1])
    np.testing.assert_array_equal(out[1][2], out[4][2])


def test_chunked_shard_in_process_matches_oracle(graph):
    """A GraphShard built with k>1 message chunks, stepped in-process
    with the assembled message sliced into k per-chunk (M_c, dangling,
    hub) tuples (the totals ride in chunk 0, zeros elsewhere, as the
    step sums the chunk partials), matches the oracle."""
    from hipporag_ray.state.csr import GraphShard, assemble_ppr

    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices
    bounds = np.array([0, n // 2, n], dtype=np.int64)
    cb = np.array([0, n // 3, 2 * n // 3, n], dtype=np.int64)
    shards = [
        GraphShard(g.adj_path, i, bounds, n, msg_chunk_bounds=cb) for i in range(2)
    ]
    assert all(len(s._chunk_bounds) == 4 for s in shards)
    sums = [s.ppr_init(1) for s in shards]
    totals = np.sum(sums, axis=0)
    for s in shards:
        s.ppr_normalize_reset(totals)
    active = np.arange(1)
    msgs = [s.message("ppr", 0.5, active) for s in shards]
    for _ in range(60):
        M, dangling, hub = assemble_ppr(msgs)
        chunks = [
            (
                M[cb[c] : cb[c + 1]],
                dangling if c == 0 else np.zeros_like(dangling),
                hub if c == 0 else np.zeros_like(hub),
            )
            for c in range(3)
        ]
        deltas, msgs = zip(*[s.step("ppr", 0.5, active, *chunks) for s in shards])
        if np.sum(deltas) < 1e-7:
            break
    got = np.concatenate([s.scores[:, 0] for s in shards])
    want = pagerank_oracle(n, src, dst, w)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_step_timers_count_every_kind(graph):
    """GraphShard.step keeps its phase timers for every kind: after a
    PPR, CC, LP or coreness call each shard counted one step per
    iteration record of that call."""
    from hipporag_ray.algos.iterate import coreness

    g, _ = graph
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=3)
    try:
        for run in (
            lambda: personalized_pagerank(sg, n_queries=2),
            lambda: connected_components(sg),
            lambda: label_propagation(sg, max_iter=10),
            lambda: coreness(sg),
        ):
            ray.get([a.perf_counters.remote() for a in sg.actors])  # zero them
            _, metrics = run()
            perf = ray.get([a.perf_counters.remote() for a in sg.actors])
            assert [p["steps"] for p in perf] == [len(metrics)] * sg.n_shards
            assert all(p["step_s"] > 0 for p in perf)
    finally:
        sg.shutdown()


def _kcore_graph(tmp_path):
    """Random sparse edges plus a path tail (peels one layer per round
    for k=2), written as a src-sorted adjacency of distinct directed
    records (the symmetric-adjacency contract).  Returns (adj_dir,
    n_vertices, src, dst)."""
    rng = np.random.default_rng(11)
    n = 60
    a = rng.integers(0, n, 300)
    b = rng.integers(0, n, 300)
    keep = a != b
    a, b = a[keep], b[keep]
    pa_, pb_ = np.arange(n, n + 12), np.arange(n + 1, n + 13)
    src = np.concatenate([a, b, pa_, pb_])
    dst = np.concatenate([b, a, pb_, pa_])
    n_tot = n + 13
    uniq = np.unique(src * n_tot + dst)
    src_u, dst_u = uniq // n_tot, uniq % n_tot
    adj_dir = tmp_path / "adj"
    os.makedirs(adj_dir)
    pq.write_table(
        pa.table({"src": src_u, "dst": dst_u, "weight": np.ones(len(src_u))}),
        str(adj_dir / "part-0.parquet"),
    )
    return str(adj_dir), n_tot, src_u, dst_u


def test_kcore_members_vs_peeling_oracle(tmp_path):
    """k-core membership read off the pool's coreness (coreness >= k) ==
    single-process peeling oracle on random sparse graphs across several
    k, including a long path (multi-round peel) and k larger than any
    coreness (empty core), at 1 and 3 shards and on a hub-salted pool."""
    from hipporag_ray.algos.iterate import kcore_members
    from hipporag_ray.algos.oracle import kcore_oracle

    adj_dir, n_tot, src_u, dst_u = _kcore_graph(tmp_path)
    hub_min = int(np.sort(np.bincount(src_u, minlength=n_tot))[-4])
    for n_shards, hubs in ((1, None), (3, None), (3, hub_min)):
        sg = ShardedGraph(adj_dir, n_tot, n_shards=n_shards, hub_min_degree=hubs)
        try:
            if hubs is not None:
                assert len(sg.hubs), "hub path not exercised"
            for k in (2, 3, 5, 40):
                got = kcore_members(sg, k).to_pandas()
                got_set = set(got["vid"].tolist()) if len(got) else set()
                want = set(np.nonzero(kcore_oracle(n_tot, src_u, dst_u, k))[0].tolist())
                assert got_set == want, (n_shards, hubs, k, got_set ^ want)
        finally:
            sg.shutdown()


def test_kcore_members_raises_when_unconverged(tmp_path):
    """One wave cannot peel the path tail: rather than return the
    superset an unconverged coreness gives, ``kcore_members`` raises
    naming ``max_iter``."""
    from hipporag_ray.algos.iterate import kcore_members

    adj_dir, n_tot, _, _ = _kcore_graph(tmp_path)
    sg = ShardedGraph(adj_dir, n_tot, n_shards=2)
    try:
        with pytest.raises(RuntimeError, match="max_iter=1"):
            kcore_members(sg, 2, max_iter=1)
    finally:
        sg.shutdown()


def test_coreness_h_index_vs_peeling_oracle(tmp_path):
    """Distributed synchronous h-index iteration == classic peeling
    core numbers, on a hub-bearing composite graph (star center forced
    over hub_min_degree so the push/COO hub path is exercised) and on
    several shard counts."""
    from hipporag_ray.algos.iterate import coreness
    from hipporag_ray.algos.oracle import coreness_oracle

    rng = np.random.default_rng(5)
    edges = set()
    # star: center 0 -> 1..24 (degree 24 -> hub)
    for v in range(1, 25):
        edges.add((0, v))
    # clique on 5..12 (coreness 7 inside)
    for a in range(5, 13):
        for b in range(a + 1, 13):
            edges.add((a, b))
    # path 25-34 (coreness 1)
    for v in range(25, 34):
        edges.add((v, v + 1))
    # random sprinkle
    for _ in range(60):
        a, b = rng.integers(0, 35, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    n = 36  # 35 is isolated (coreness 0)
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    w = np.ones(len(src))
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.concatenate([w, w]),
            "etype": ["fact"] * (2 * len(src)),
        }
    ).sort_by("src")
    adj_dir = tmp_path / "adj"
    os.makedirs(adj_dir)
    pq.write_table(adj, str(adj_dir / "part-0.parquet"))

    want = coreness_oracle(n, src, dst)
    for n_shards, hub_min in ((2, 10), (4, 10), (3, None)):
        sg = ShardedGraph(str(adj_dir), n, n_shards=n_shards, hub_min_degree=hub_min)
        try:
            if hub_min is not None:
                assert len(sg.hubs), "hub path not exercised"
            got, metrics = coreness(sg)
            np.testing.assert_array_equal(got, want)
            assert metrics[-1]["changed"] == 0
        finally:
            sg.shutdown()


def test_coreness_built_graph_matches_oracle(graph, tmp_path):
    """Regression: build_graph writes parallel records per fact pair, and
    coreness counted each as a neighbor (core numbers above the oracle's).
    Checked on the built adjacency plus self-loop records (twice each, on
    a hub and on a non-hub), with a hub whose neighbors span shards and
    with a chunk boundary inside the owned rows."""
    from hipporag_ray.algos.iterate import coreness
    from hipporag_ray.algos.oracle import coreness_oracle

    g, e = graph
    adj = pq.read_table(g.adj_path, columns=["src", "dst", "weight", "etype"])
    src = adj["src"].to_numpy()
    dst = adj["dst"].to_numpy()
    a, b = np.minimum(src, dst), np.maximum(src, dst)
    assert len(np.unique(a * g.n_vertices + b)) < len(src) // 2, "no parallel records"

    deg = np.bincount(src, minlength=g.n_vertices)
    hub_min = int(np.sort(deg)[-3])  # the top degrees become hubs
    hub, plain = int(np.argmax(deg)), int(np.argmin(np.where(deg > 0, deg, deg.max() + 1)))
    loops = pa.table(
        {
            "src": pa.array([hub, hub, plain, plain], adj.schema.field("src").type),
            "dst": pa.array([hub, hub, plain, plain], adj.schema.field("dst").type),
            "weight": pa.array([1.0] * 4, adj.schema.field("weight").type),
            "etype": pa.array(["fact"] * 4, adj.schema.field("etype").type),
        }
    )
    looped = pa.concat_tables([adj, loops]).sort_by("src")
    adj_dir = tmp_path / "adj"
    os.makedirs(adj_dir)
    pq.write_table(looped, str(adj_dir / "part-0.parquet"))

    all_src = np.concatenate([e["src"].to_numpy(), [hub, plain]])
    all_dst = np.concatenate([e["dst"].to_numpy(), [hub, plain]])
    want = coreness_oracle(g.n_vertices, all_src, all_dst)
    np.testing.assert_array_equal(
        want, coreness_oracle(g.n_vertices, e["src"].to_numpy(), e["dst"].to_numpy())
    )
    for path, n_shards, hubs, chunks in (
        (g.adj_path, 2, None, None),
        (str(adj_dir), 3, hub_min, None),
        (str(adj_dir), 3, hub_min, 2),
    ):
        sg = ShardedGraph(
            path, g.n_vertices, n_shards=n_shards, hub_min_degree=hubs, msg_chunks=chunks
        )
        try:
            if hubs is not None:
                assert hub in sg.hubs.tolist()
                nbr = dst[src == hub]
                owners = np.searchsorted(sg.bounds, nbr, side="right") - 1
                assert len(np.unique(owners)) > 1, "hub not split across shards"
            got, metrics = coreness(sg)
            np.testing.assert_array_equal(got, want)
            assert metrics[-1]["changed"] == 0
        finally:
            sg.shutdown()


def test_reset_dataset_guards(graph):
    """Loud gates on streaming resets: a negative query_idx (upstream
    join-miss sentinel) would WRAP in ppr_init's np.add.at and
    silently seed the wrong query; conflicting resets+reset_dataset
    would silently answer the dataset's query."""
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.algos.iterate import personalized_pagerank

    g, _ = graph
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        bad_q = rd.from_arrow(
            pa.table(
                {
                    "vid": pa.array([0, 1], pa.int64()),
                    "query_idx": pa.array([0, -1], pa.int64()),
                    "weight": pa.array([1.0, 1.0]),
                }
            )
        )
        with pytest.raises(Exception, match="query_idx"):
            personalized_pagerank(sg, reset_dataset=bad_q, n_queries=2)

        overflow = rd.from_arrow(
            pa.table(
                {
                    "vid": pa.array([0], pa.int64()),
                    "query_idx": pa.array([5], pa.int64()),
                    "weight": pa.array([1.0]),
                }
            )
        )
        with pytest.raises(Exception, match="query_idx"):
            personalized_pagerank(sg, reset_dataset=overflow, n_queries=2)

        ok = rd.from_arrow(
            pa.table(
                {
                    "vid": pa.array([0], pa.int64()),
                    "query_idx": pa.array([0], pa.int64()),
                    "weight": pa.array([1.0]),
                }
            )
        )
        with pytest.raises(ValueError, match="not both"):
            personalized_pagerank(
                sg,
                resets=np.eye(g.n_vertices)[:, :1],
                reset_dataset=ok,
                n_queries=1,
            )
    finally:
        sg.shutdown()


# ---------------------------------------------------------------------------
# one message chunk: no assembler actors, every step merges the messages
# ---------------------------------------------------------------------------


def _oracle_reset(n, vids, weights):
    reset = np.zeros(n)
    np.add.at(reset, np.asarray(vids), weights)
    return reset


@pytest.mark.parametrize("n_shards", [1, 2, 5])
def test_one_chunk_pool_runs_without_assemblers(graph, n_shards):
    """A default pool of at most 7 shards has one message chunk and no
    assembler actor.  On it, list- and dataset-reset PPR whose columns
    converge at different waves match ppr_oracle within 1e-6, and CC,
    LP and coreness equal their oracles."""
    from hipporag_ray.algos.iterate import coreness
    from hipporag_ray.algos.oracle import coreness_oracle

    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices
    sg = ShardedGraph(g.adj_path, n, n_shards=n_shards)
    try:
        assert sg.n_shards == n_shards
        assert len(sg.msg_groups) == 1 and sg.assemblers == []
        rng = np.random.default_rng(n_shards)
        resets = [
            (rng.choice(n, size=1, replace=False), np.ones(1)),
            (rng.choice(n, size=20, replace=False), rng.random(20)),
            (np.arange(n), np.ones(n)),  # uniform: converges first
        ]
        got, metrics = personalized_pagerank(sg, resets=resets, n_queries=3)
        assert len({m["active_queries"] for m in metrics}) > 1
        for b, (vids, wts) in enumerate(resets):
            want = ppr_oracle(n, src, dst, w, reset=_oracle_reset(n, vids, wts))
            np.testing.assert_allclose(got[:, b], want, atol=1e-6)

        vid = rng.integers(0, n, 30)
        qidx = np.repeat(np.arange(3), 10)
        wt = rng.random(30)
        ds = rd.from_arrow(pa.table({"vid": vid, "query_idx": qidx, "weight": wt}))
        got, _ = personalized_pagerank(sg, reset_dataset=ds.repartition(2), n_queries=3)
        for b in range(3):
            reset = _oracle_reset(n, vid[qidx == b], wt[qidx == b])
            np.testing.assert_allclose(
                got[:, b], ppr_oracle(n, src, dst, w, reset=reset), atol=1e-6
            )

        comp, _ = connected_components(sg)
        np.testing.assert_array_equal(comp, cc_oracle(n, src, dst))
        labels, _ = label_propagation(sg, max_iter=5)
        np.testing.assert_array_equal(labels, lp_oracle(n, src, dst, w, max_iter=5))
        core, _ = coreness(sg)
        np.testing.assert_array_equal(core, coreness_oracle(n, src, dst))
    finally:
        sg.shutdown()


def test_one_chunk_checkpoint_resume(graph, tmp_path):
    """A checkpoint_every=3 PPR run on a one-chunk pool resumes from its
    last save point and ends where an uninterrupted run does."""
    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices
    rng = np.random.default_rng(4)
    resets = [(rng.choice(n, size=3, replace=False), rng.random(3)) for _ in range(2)]
    sg = ShardedGraph(g.adj_path, n, n_shards=2)
    try:
        assert sg.assemblers == []
        kw = dict(resets=resets, n_queries=2, checkpoint_every=3)
        want, _ = personalized_pagerank(sg, checkpoint_dir=str(tmp_path / "full"), **kw)
        ck = str(tmp_path / "ck")
        personalized_pagerank(sg, max_iter=7, checkpoint_dir=ck, **kw)  # "crash" at 7
        got, metrics = personalized_pagerank(sg, checkpoint_dir=ck, resume=True, **kw)
        assert metrics[0]["iter"] == 7  # resumed after the iteration-6 save
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for b, (vids, wts) in enumerate(resets):
            oracle = ppr_oracle(n, src, dst, w, reset=_oracle_reset(n, vids, wts))
            np.testing.assert_allclose(got[:, b], oracle, atol=1e-6)
    finally:
        sg.shutdown()


def test_reload_spawns_and_kills_assemblers(graph):
    """A reload that moves a live pool between one message chunk and
    k > 1 spawns or kills the assembler actors, as it does shard actors,
    and PageRank on the pool still matches the oracle."""
    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices
    want = pagerank_oracle(n, src, dst, w)

    def reload(sg, **opts):
        sg._opts.update(opts)
        sg.reload(g.adj_path, n)
        np.testing.assert_allclose(pagerank(sg)[0][:, 0], want, atol=1e-6)

    def gone(actors):
        for a in actors:
            with pytest.raises(ray.exceptions.RayActorError):
                ray.get(a.__ray_ready__.remote())
        return True

    sg = ShardedGraph(g.adj_path, n, n_shards=2)
    try:
        assert sg.assemblers == []
        reload(sg, n_shards=9)  # 2 -> 9 shards: k = 2
        assert sg.n_shards == 9 and len(sg.msg_groups) == len(sg.assemblers) == 2
        asm = list(sg.assemblers)
        reload(sg, n_shards=2)  # and back: k = 1
        assert sg.assemblers == [] and gone(asm)

        shards = [a._actor_id for a in sg.actors]
        reload(sg, msg_chunks=2)  # same shards, k = 2: spawned in place
        assert len(sg.assemblers) == 2 and [a._actor_id for a in sg.actors] == shards
        asm = list(sg.assemblers)
        reload(sg, msg_chunks=None)  # k = 1: _trim kills them
        assert sg.assemblers == [] and gone(asm)
        assert [a._actor_id for a in sg.actors] == shards
    finally:
        sg.shutdown()


def test_ppr_prologue_has_no_driver_barrier(graph, monkeypatch):
    """A PPR call's first ray.get is its first wave's: the ppr_init sums
    ride the prologue message wave as refs.  Every ray.get of a call
    without checkpointing or collection is a wave's."""
    import sys

    from hipporag_ray.algos import iterate

    real_get = ray.get
    callers = []

    def spy(*args, **kw):
        frame = sys._getframe(1)
        if frame.f_globals.get("__name__") == iterate.__name__:
            callers.append(frame.f_code.co_name)
        return real_get(*args, **kw)

    g, _ = graph
    ds = rd.from_arrow(
        pa.table({"vid": [0, 3], "query_idx": [0, 1], "weight": [1.0, 2.0]})
    )
    sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=2)
    try:
        monkeypatch.setattr(ray, "get", spy)
        for kw in (dict(resets=[([0, 5], [1.0, 2.0]), ([7], [1.0])]), dict(reset_dataset=ds)):
            callers.clear()
            _, metrics = personalized_pagerank(sg, n_queries=2, collect=False, **kw)
            assert callers == ["_superstep"] * len(metrics)
    finally:
        monkeypatch.undo()
        sg.shutdown()


def test_bad_reset_fails_loudly_then_pool_serves(graph):
    """With no barrier before the first wave, a bad reset (vids outside
    the graph, a negative or too-large query_idx) still raises
    ValueError naming the culprits, at the first wave's get; the same
    pool then answers a valid call."""
    import re

    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices

    def triples(vid, qidx):
        return rd.from_arrow(
            pa.table(
                {
                    "vid": pa.array(vid, pa.int64()),
                    "query_idx": pa.array(qidx, pa.int64()),
                    "weight": pa.array([1.0] * len(vid)),
                }
            )
        )

    for n_shards in (1, 3):
        sg = ShardedGraph(g.adj_path, n, n_shards=n_shards)
        try:
            with pytest.raises(ValueError, match=re.escape(f"(e.g. [{n}, -3])")):
                personalized_pagerank(
                    sg, resets=[([0, n, -3], [1.0, 1.0, 1.0])], n_queries=1
                )
            for vid, qidx, bad in (([0, 1], [0, -1], -1), ([0], [5], 5)):
                msg = re.escape(f"query_idx outside [0, 2) (e.g. [{bad}])")
                with pytest.raises(ValueError, match=msg):
                    personalized_pagerank(sg, reset_dataset=triples(vid, qidx), n_queries=2)
            got, _ = personalized_pagerank(sg, resets=[([2, 9], [0.5, 1.5])], n_queries=1)
            want = ppr_oracle(n, src, dst, w, reset=_oracle_reset(n, [2, 9], [0.5, 1.5]))
            np.testing.assert_allclose(got[:, 0], want, atol=1e-6)
        finally:
            sg.shutdown()


def _write_adj(path, src, dst, w):
    """Symmetric, src-sorted adjacency parquet of the records (src, dst, w)."""
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]).astype(np.int64),
            "dst": np.concatenate([dst, src]).astype(np.int64),
            "weight": np.concatenate([w, w]).astype(np.float64),
        }
    ).sort_by([("src", "ascending"), ("dst", "ascending")])
    os.makedirs(path)
    pq.write_table(adj, os.path.join(path, "part-0.parquet"))
    return str(path)


def _manual_lp(shards, max_iter):
    """Label propagation on in-process shards, stopping as ``lp_oracle``
    does: at a wave that changes nothing, or after ``max_iter`` waves."""
    from hipporag_ray.state.csr import assemble_labels

    msgs = [s.message("lp", init=True) for s in shards]
    for _ in range(max_iter):
        outs = []
        for s in shards:
            # one chunk: the step merges the P messages; k > 1: it takes
            # the assembled message, as from an assembler actor
            args = msgs if len(s._chunk_bounds) == 2 else (assemble_labels(msgs),)
            outs.append(s.step("lp", *args))
        changed, msgs = zip(*outs)
        if sum(changed) == 0:
            break
    return np.concatenate([s.labels for s in shards])


def _lp_case(name, graph, tmp_path):
    """(adj path, n, src, dst, w, hubs, msg chunk bounds) of one of the
    kernel-vs-fallback graphs."""
    rng = np.random.default_rng(17)
    if name == "built":
        g, e = graph
        src, dst, w = _edge_arrays(e)
        return g.adj_path, g.n_vertices, src, dst, w, None, None
    if name == "heavy_tailed":
        # Zipf-like endpoints: a few vertices get hundreds of rows and are
        # salted as hubs; two message chunks split the vid range
        n, m = 600, 6000
        p = 1.0 / np.arange(1, n + 1) ** 0.6
        p /= p.sum()
        src, dst = rng.choice(n, m, p=p), rng.choice(n, m, p=p)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        w = rng.random(len(src))
        deg = np.bincount(np.concatenate([src, dst]), minlength=n)
        hubs = np.nonzero(deg >= 64)[0].astype(np.int64)
        assert len(hubs) >= 4
        cb = np.array([0, n // 3, n], dtype=np.int64)
        return _write_adj(tmp_path / "adj", src, dst, w), n, src, dst, w, hubs, cb
    if name == "dyadic_ties":
        # weights k/8 sum exactly in any order, so equal totals are exact
        # ties.  Planted: 10 sees label 11 via two parallel records
        # (0.25 + 0.5) and label 12 via one (0.75); 20 sees 21 via one
        # record (0.75) and 22 via two (0.5 + 0.25)
        n, m = 400, 2400
        src = rng.integers(30, n, m)
        dst = rng.integers(30, n, m)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        w = rng.integers(1, 5, len(src)) / 8.0
        src = np.concatenate([src, [10, 10, 10, 20, 20, 20]])
        dst = np.concatenate([dst, [11, 11, 12, 21, 22, 22]])
        w = np.concatenate([w, [0.25, 0.5, 0.75, 0.75, 0.5, 0.25]])
        return _write_adj(tmp_path / "adj", src, dst, w), n, src, dst, w, None, None
    # isolated: every third vid has no record at all
    n = 300
    live = np.array([v for v in range(n) if v % 3], dtype=np.int64)
    src = rng.choice(live, 900)
    dst = rng.choice(live, 900)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.random(len(src))
    return _write_adj(tmp_path / "adj", src, dst, w), n, src, dst, w, None, None


@pytest.mark.parametrize("case", ["built", "heavy_tailed", "dyadic_ties", "isolated"])
def test_lp_kernel_matches_fallback_and_oracle(graph, tmp_path, case):
    """The compiled ``lp_vote`` pull, the numpy lexsort fallback and
    ``lp_oracle`` give identical labels: on the built graph, on a
    heavy-tailed graph with salted hubs and two message chunks, with
    planted exact ties (the smallest label wins) and with isolated
    vertices (they keep their own label)."""
    from hipporag_ray.state.csr import GraphShard
    from hipporag_ray.state.native import native

    if native() is None:
        pytest.skip("no C compiler available — numpy fallback only")
    path, n, src, dst, w, hubs, cb = _lp_case(case, graph, tmp_path)
    bounds = np.array([0, n // 4, n // 2, n], dtype=np.int64)

    def run(use_native, max_iter):
        shards = [
            GraphShard(path, i, bounds, n, hubs=hubs, use_native=use_native,
                       msg_chunk_bounds=cb)
            for i in range(3)
        ]
        assert all((s._kern is not None) == use_native for s in shards)
        if hubs is not None:  # hub votes and chunked rows are exercised
            assert sum(len(s._push[0]) for s in shards) > 0
            assert all(len(s._chunk_bounds) == 3 for s in shards)
        return _manual_lp(shards, max_iter)

    for max_iter in (1, 50):
        fast, slow = run(True, max_iter), run(False, max_iter)
        want = lp_oracle(n, src, dst, w, max_iter=max_iter)
        np.testing.assert_array_equal(fast, want)
        np.testing.assert_array_equal(slow, want)
    if case == "dyadic_ties":
        first = run(True, 1)
        assert (first[10], first[20]) == (11, 21)
    if case == "isolated":
        iso = np.arange(0, n, 3)
        np.testing.assert_array_equal(fast[iso], iso)


def test_spmm_segmin_guards():
    """``_Kernels.spmm`` reads its message chunks in place and refuses a
    wrong chunk count, a chunk message of the wrong dtype, layout or
    shape, a source row outside its chunk and an owner outside ``nxt``;
    ``segmin`` refuses a source outside its label vector and an owner
    outside ``nxt``.  A refused call leaves ``nxt`` as it was."""
    from hipporag_ray.state.native import native

    kern = native()
    if kern is None:
        pytest.skip("no C compiler available — numpy fallback only")
    # 2 owners; owner 0 pulls vids 1, 3, 4, owner 1 pulls vid 0
    starts = np.array([0, 3], np.int64)
    uniq = np.array([0, 1], np.int64)
    other = np.array([1, 3, 4, 0], np.int64)
    cid = np.array([0, 1, 1, 0], np.int16)
    w = np.array([1.0, 2.0, 4.0, 8.0], np.float32)
    full = np.arange(10, dtype=np.float32).reshape(5, 2)
    cb = np.array([0, 2, 5], np.int64)
    chunks = [full[:2], full[2:]]
    nxt = np.zeros((2, 2))
    kern.spmm(starts, uniq, other, cid, w, chunks, cb, nxt)
    want = np.zeros((2, 2))
    for o, v, we in ((0, 1, 1.0), (0, 3, 2.0), (0, 4, 4.0), (1, 0, 8.0)):
        want[o] += we * full[v]
    np.testing.assert_array_equal(nxt, want)
    one = np.zeros((2, 2))
    kern.spmm(starts, uniq, other, np.zeros(4, np.int16), w, [full], np.array([0, 5], np.int64), one)
    np.testing.assert_array_equal(one, want)

    def refused(**kw):
        args = dict(starts=starts, uniq=uniq, other=other, cid=cid, w=w, msgs=chunks, cb=cb)
        args.update(kw)
        got = np.zeros((2, 2))
        with pytest.raises(ValueError):
            kern.spmm(args["starts"], args["uniq"], args["other"], args["cid"], args["w"],
                      args["msgs"], args["cb"], got)
        assert not got.any()

    refused(msgs=chunks[:1])  # chunk count
    refused(msgs=[full[:2], full[2:], full[:0]])  # chunk count
    refused(msgs=[full[:2].astype(np.float64), full[2:]])  # chunk dtype
    refused(msgs=[full[:2], np.asfortranarray(full[2:])])  # chunk layout
    refused(msgs=[full[:3], full[3:]])  # chunk rows != its bounds
    refused(msgs=[full[:2, :1].copy(), full[2:, :1].copy()])  # columns != nxt
    for bad in (-1, 5):  # a source row outside the chunks
        refused(other=np.array([1, 3, bad, 0], np.int64))
    refused(other=np.array([1, 3, 4, 2], np.int64))  # vid 2 is not in chunk 0
    for bad in (-1, 2):  # a chunk id outside the chunks
        refused(cid=np.array([0, 1, bad, 0], np.int16))
    refused(cid=cid.astype(np.int32))  # chunk id dtype
    for bad in (-1, 2):  # an owner outside nxt
        refused(uniq=np.array([0, bad], np.int64))
    refused(starts=np.array([0, 5], np.int64))  # a start past the edges
    refused(starts=np.array([3, 0], np.int64))  # starts out of order
    ro = np.zeros((2, 2))
    ro.flags.writeable = False
    with pytest.raises(ValueError):
        kern.spmm(starts, uniq, other, cid, w, chunks, cb, ro)

    lab = np.array([4, 3, 2, 1, 0], np.int64)
    got = np.array([9, 9], np.int64)
    kern.segmin(starts, uniq, other, lab, got)
    assert got.tolist() == [0, 4]
    for kw in (dict(other=np.array([1, 3, 5, 0], np.int64)),
               dict(other=np.array([1, 3, -1, 0], np.int64)),
               dict(uniq=np.array([0, 2], np.int64))):
        a = dict(starts=starts, uniq=uniq, other=other)
        a.update(kw)
        got = np.array([9, 9], np.int64)
        with pytest.raises(ValueError):
            kern.segmin(a["starts"], a["uniq"], a["other"], lab, got)
        assert got.tolist() == [9, 9]


def test_lp_vote_guards():
    """``_Kernels.lp_vote`` refuses a wrong dtype, a non-contiguous array,
    mismatched lengths, a read-only ``nxt``, rows not grouped by owner
    and an owner outside [0, len(nxt)) instead of letting the C loop
    read or write out of bounds; a refused call leaves ``nxt`` as it
    was."""
    from hipporag_ray.state.native import native

    kern = native()
    if kern is None:
        pytest.skip("no C compiler available — numpy fallback only")
    own = np.array([0, 0, 0, 2, 2], np.int64)
    lab = np.array([7, 5, 7, 9, 4], np.int64)
    w = np.array([0.5, 1.0, 0.5, 2.0, 2.0])
    nxt = np.arange(4, dtype=np.int64)
    kern.lp_vote(own, lab, w, nxt)
    assert nxt.tolist() == [5, 1, 4, 3]  # ties -> smallest label; 1, 3 keep theirs

    def fresh():
        return np.arange(4, dtype=np.int64)

    bad = [
        (own.astype(np.int32), lab, w, fresh()),  # own dtype
        (own, lab.astype(np.float64), w, fresh()),  # lab dtype
        (own, lab, w.astype(np.float32), fresh()),  # w dtype
        (own, lab, w, fresh().astype(np.int32)),  # nxt dtype
        (np.repeat(own, 2)[::2], lab, w, fresh()),  # strided own
        (own, np.repeat(lab, 2)[::2], w, fresh()),  # strided lab
        (own, lab[:-1], w, fresh()),  # lab length
        (own, lab, w[:-1], fresh()),  # w length
        (own.reshape(5, 1), lab.reshape(5, 1), w.reshape(5, 1), fresh()),  # 2-D
    ]
    for args in bad:
        with pytest.raises(ValueError):
            kern.lp_vote(*args)
    ungrouped = np.array([0, 2, 0, 2, 0], np.int64)  # owner order broken
    got = fresh()
    with pytest.raises(ValueError, match="not grouped by owner"):
        kern.lp_vote(ungrouped, lab, w, got)
    assert got.tolist() == [0, 1, 2, 3]
    for out_of_range in (-1, 4):
        o = own.copy()
        o[3] = out_of_range
        got = fresh()
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            kern.lp_vote(o, lab, w, got)
        assert got.tolist() == [0, 1, 2, 3]
    ro = fresh()
    ro.flags.writeable = False
    with pytest.raises(ValueError):
        kern.lp_vote(own, lab, w, ro)


def test_label_prologue_has_no_driver_barrier(graph, monkeypatch):
    """CC, LP and coreness initialize in the prologue message (coreness
    from the shards' degree-partial refs): every ray.get of a call
    without checkpointing or collection is a wave's, and the results
    still match the oracles."""
    import sys

    from hipporag_ray.algos import iterate
    from hipporag_ray.algos.iterate import coreness
    from hipporag_ray.algos.oracle import coreness_oracle

    real_get = ray.get
    callers = []

    def spy(*args, **kw):
        frame = sys._getframe(1)
        if frame.f_globals.get("__name__") == iterate.__name__:
            callers.append(frame.f_code.co_name)
        return real_get(*args, **kw)

    g, e = graph
    src, dst, w = _edge_arrays(e)
    n = g.n_vertices
    deg = np.bincount(src, minlength=n)
    want = {
        "component": cc_oracle(n, src, dst),
        "label": lp_oracle(n, src, dst, w, max_iter=10),
        "coreness": coreness_oracle(n, src, dst),
    }
    for kw in (dict(n_shards=2), dict(n_shards=3, hub_min_degree=int(np.sort(deg)[-3]),
                                      msg_chunks=2)):
        sg = ShardedGraph(g.adj_path, n, **kw)
        try:
            monkeypatch.setattr(ray, "get", spy)
            for run, col in (
                (connected_components, "component"),
                (lambda sg, **k: label_propagation(sg, max_iter=10, **k), "label"),
                (coreness, "coreness"),
            ):
                callers.clear()
                _, metrics = run(sg, collect=False)
                assert callers == ["_superstep"] * len(metrics)
                tables = real_get([a.labels_table.remote(col) for a in sg.actors])
                got = np.concatenate([t[col].to_numpy() for t in tables])
                np.testing.assert_array_equal(got, want[col])
        finally:
            monkeypatch.undo()
            sg.shutdown()


def test_label_resume_equals_unresumed(graph, tmp_path):
    """A CC, LP or coreness run stopped after a save point and resumed
    skips the init and ends where an uninterrupted run does: on the pool
    that ran it, after a full run in between (that run's coreness
    active-set baseline must not leak into the resumed one), and on a
    fresh pool (coreness builds its neighbour pairs without the degree
    partials).  On the 7-vertex path the middle vertex's core number
    drops at wave 3, after both its neighbours reached theirs at wave 2
    (the save point), so a stale baseline would leave it at 2."""
    from hipporag_ray.algos.iterate import coreness

    g, _ = graph
    path = np.arange(6, dtype=np.int64)
    pools = [
        (g.adj_path, g.n_vertices, dict(n_shards=3, hub_min_degree=16, msg_chunks=2)),
        (_write_adj(tmp_path / "path", path, path + 1, np.ones(6)), 7, dict(n_shards=2)),
    ]
    for p, (adj, n, kw) in enumerate(pools):
        sg = ShardedGraph(adj, n, **kw)
        try:
            assert p == 1 or len(sg.hubs)
            for fn, max_iter in ((connected_components, 200), (label_propagation, 10),
                                 (coreness, 200)):
                name = fn.__name__
                for fresh in (False, True):
                    ck = str(tmp_path / f"{p}-{name}-{fresh}")
                    fn(sg, max_iter=2, checkpoint_dir=ck, checkpoint_every=1)  # "crash"
                    want, full = fn(sg, max_iter=max_iter)
                    assert len(full) > 2, name
                    pool = ShardedGraph(adj, n, **kw) if fresh else sg
                    try:
                        got, metrics = fn(
                            pool, max_iter=max_iter, checkpoint_dir=ck, resume=True
                        )
                    finally:
                        if fresh:
                            pool.shutdown()
                    assert metrics[0]["iter"] == 3, name  # resumed, not restarted
                    np.testing.assert_array_equal(got, want, err_msg=name)
            if p == 1:
                assert want.tolist() == [1] * 7
        finally:
            sg.shutdown()
