"""Graph build tests: edge weights and vertices vs a brute-force
python reconstruction of the reference semantics."""

from __future__ import annotations

import hashlib
import itertools
import re
from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from hipporag_ray.stages.graph_build import build_graph, load_graph


def brute_force_graph(transcripts_dir: str, min_token_len: int = 3):
    """Pure-python twin of the build: content-dedup chunks, per-chunk
    distinct tokens, symmetric pair counts, passage edges."""
    import glob

    import pandas as pd

    df = pd.concat(
        [pq.read_table(p).to_pandas() for p in sorted(glob.glob(f"{transcripts_dir}/*.parquet"))]
    )
    chunks = {}
    for t in df["text"]:
        ck = "chunk-" + hashlib.md5(t.encode()).hexdigest()
        if ck not in chunks:
            norm = re.sub("[^A-Za-z0-9 ]", " ", t.lower()).strip()
            toks = sorted({w for w in norm.split() if len(w) >= min_token_len})
            chunks[ck] = toks
    fact = Counter()
    passage = set()
    vkeys = {}
    for ck, toks in chunks.items():
        vkeys[ck] = "chunk"
        keys = ["entity-" + hashlib.md5(t.encode()).hexdigest() for t in toks]
        for k in keys:
            vkeys[k] = "entity"
            passage.add((ck, k))
        for a, b in itertools.permutations(keys, 2):
            fact[(a, b)] += 1
    return chunks, fact, passage, vkeys


@pytest.fixture(scope="module")
def built(small_transcripts, tmp_path_factory):
    out = tmp_path_factory.mktemp("graph_small")
    g = build_graph(rd.read_parquet(small_transcripts), str(out))
    return small_transcripts, g


def test_vertices_dense_sorted(built):
    _, g = built
    v = g.vertices().to_pandas().sort_values("vid")
    assert list(v["vid"]) == list(range(len(v)))
    assert list(v["node_key"]) == sorted(v["node_key"])
    assert g.n_vertices == len(v)


def test_edges_match_brute_force(built):
    tdir, g = built
    chunks, fact, passage, vkeys = brute_force_graph(tdir)

    v = g.vertices().to_pandas()
    key_of = dict(zip(v["vid"], v["node_key"]))
    e = g.edges().to_pandas()
    got_fact = {
        (key_of[r.src], key_of[r.dst]): r.weight
        for r in e[e.etype == "fact"].itertuples()
    }
    got_passage = {
        (key_of[r.src], key_of[r.dst]) for r in e[e.etype == "passage"].itertuples()
    }
    assert got_fact == {k: float(w) for k, w in fact.items()}
    assert got_passage == passage
    # symmetric insertion (HippoRAG.py:763-769)
    for (a, b), w in got_fact.items():
        assert got_fact[(b, a)] == w
    # no self loops (HippoRAG.py:1064)
    assert (e.src != e.dst).all()
    # vertex kinds
    kinds = dict(zip(v["node_key"], v["kind"]))
    assert kinds == vkeys


def test_adjacency_expansion(built):
    _, g = built
    e = g.edges().to_pandas()
    adj = g.adj().to_pandas()
    assert len(adj) == 2 * len(e)
    # out-weight in adj doubles fact weights relative to record weights
    # (both orientations present as records, each expanded)
    want = Counter()
    for r in e.itertuples():
        want[(r.src, r.dst)] += r.weight
        want[(r.dst, r.src)] += r.weight
    got = Counter()
    for r in adj.itertuples():
        got[(r.src, r.dst)] += r.weight
    assert got == want
    # pruning contract: every adjacency part file is internally sorted
    # by src (row-group stats stay tight); Ray may list/return the part
    # files themselves in any order
    import glob

    for p in glob.glob(f"{g.adj_path}/*.parquet"):
        src = pq.read_table(p, columns=["src"])["src"].to_numpy()
        assert (np.diff(src) >= 0).all()


def test_manifest_roundtrip(built):
    _, g = built
    g2 = load_graph(g.out_dir)
    assert g2.n_vertices == g.n_vertices
    assert g2.n_edges == g.n_edges


def test_join_path_matches_broadcast_path(ray_session, tmp_path):
    """broadcast_vertex_limit=0 forces the bucketed hash-join vertex
    resolution; the resulting graph must be identical to the broadcast
    path for both edge sources."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.stages.graph_build import build_graph

    texts = [
        "alpha beta gamma alpha",
        "beta gamma delta",
        "solo",
        "alpha beta gamma alpha",  # duplicate chunk
        "epsilon zeta eta theta iota",
    ]
    tx = rd.from_arrow(pa.table({"text": texts})).repartition(3)
    for edge_source in ("cooccur", "triples"):
        g1 = build_graph(tx, str(tmp_path / f"b_{edge_source}"), edge_source=edge_source)
        g2 = build_graph(
            tx,
            str(tmp_path / f"j_{edge_source}"),
            edge_source=edge_source,
            broadcast_vertex_limit=0,
        )
        v1 = g1.vertices().to_pandas().sort_values("node_key").reset_index(drop=True)
        v2 = g2.vertices().to_pandas().sort_values("node_key").reset_index(drop=True)
        pd.testing.assert_frame_equal(v1, v2)
        cols = ["src", "dst", "etype"]
        e1 = g1.edges().to_pandas().sort_values(cols).reset_index(drop=True)
        e2 = g2.edges().to_pandas().sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(e1, e2)
        assert g1.n_edges == g2.n_edges and g1.n_vertices == g2.n_vertices


def test_incremental_join_path_matches_broadcast(ray_session, tmp_path):
    """broadcast_vertex_limit=0 on the incremental build routes new
    chunks through the bucketed-join vertex resolution — identical
    result to the broadcast incremental path."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.stages.graph_build import build_graph, build_graph_incremental, load_graph

    old = ["alpha beta gamma", "beta gamma delta"]
    new = ["gamma epsilon zeta", "alpha zeta eta", "beta gamma delta"]
    for limit, tag in ((5_000_000, "b"), (0, "j")):
        base = build_graph(rd.from_arrow(pa.table({"text": old})), str(tmp_path / f"base_{tag}"))
        g = build_graph_incremental(
            rd.from_arrow(pa.table({"text": new})),
            base,
            str(tmp_path / f"base_{tag}"),
            broadcast_vertex_limit=limit,
        )
        if tag == "b":
            want = (g.n_vertices, g.n_edges, g.edges().to_pandas())
        else:
            assert (g.n_vertices, g.n_edges) == want[:2]
            cols = ["src", "dst", "etype"]
            a = want[2].sort_values(cols).reset_index(drop=True)
            b = g.edges().to_pandas().sort_values(cols).reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b)


def test_incremental_config_follows_manifest(small_transcripts, tmp_path, ray_session):
    """delete/incremental read min_token_len (like edge_source) from the
    graph manifest: a caller default that differs from the build's must
    not desync the subtraction from the stored vertex vocabulary."""
    from hipporag_ray.stages.graph_build import delete_chunks_from_graph

    tx = rd.read_parquet(small_transcripts)
    g = build_graph(tx, str(tmp_path / "g4"), min_token_len=4)
    texts = tx.take(3)
    # caller passes the (wrong) default min_token_len=3 — manifest wins
    g2 = delete_chunks_from_graph(
        [r["text"] for r in texts], g, str(tmp_path / "g4_del")
    )
    rebuilt = build_graph(
        tx.filter(lambda r: r["text"] not in {t["text"] for t in texts}),
        str(tmp_path / "g4_rebuild"),
        min_token_len=4,
    )
    assert g2.n_vertices == rebuilt.n_vertices
    assert g2.n_edges == rebuilt.n_edges


def test_incremental_retry_does_not_duplicate_vertices(
    small_transcripts, tmp_path, ray_session
):
    import os
    """A retried incremental build into the SAME fresh out_dir must not
    append a second copy of the vertex table (write_parquet appends)."""
    from hipporag_ray.stages.graph_build import build_graph_incremental

    tx = rd.read_parquet(small_transcripts).materialize()
    base = build_graph(tx.limit(100).materialize(), str(tmp_path / "base"))
    new = tx.limit(150).materialize()
    out = str(tmp_path / "inc")
    g1 = build_graph_incremental(new, base, out)
    g2 = build_graph_incremental(new, base, out)  # retry into same dir
    assert g2.n_vertices == g1.n_vertices
    import pyarrow.parquet as pq
    import glob

    rows = sum(
        pq.ParquetFile(p).metadata.num_rows
        for p in glob.glob(os.path.join(out, "vertices", "**", "*.parquet"), recursive=True)
    )
    assert rows == g2.n_vertices


def test_resumable_extract_prunes_deleted_inputs(tmp_path, ray_session):
    """A shard partition whose input file was deleted must not keep
    contributing chunks to later builds; and two relative paths that
    collapse to the same '__'-joined stem get distinct partitions."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import os

    from hipporag_ray.stages.graph_build import extract_chunks_resumable

    txd = tmp_path / "tx"
    (txd / "a").mkdir(parents=True)
    pq.write_table(pa.table({"text": ["alpha bravo charlie"]}), str(txd / "a" / "b.parquet"))
    pq.write_table(pa.table({"text": ["delta echo foxtrot"]}), str(txd / "a__b.parquet"))
    cd = str(tmp_path / "chunks")
    entries = extract_chunks_resumable(str(txd), cd)
    shard_dirs = sorted(d for d in os.listdir(cd) if d.startswith("shard="))
    assert len(shard_dirs) == 2  # stems injective despite the collision
    assert rd.read_parquet(cd).count() == 2
    # delete one input; its partition must be pruned on the next run
    os.remove(str(txd / "a__b.parquet"))
    extract_chunks_resumable(str(txd), cd)
    assert rd.read_parquet(cd).count() == 1


def test_edge_code_capacity_dispatch():
    """n_vertices past the int64 packed-code range auto-selects the
    two-key struct layout instead of silently wrapping (and formerly
    raising): the capacity guard became a dispatch."""
    from hipporag_ray.stages.graph_build import (
        ChunkToIntEdgePartials,
        _use_struct_keys,
    )

    assert _use_struct_keys(2_000_000_000) is False  # packed code fits
    assert _use_struct_keys(3_000_000_000) is True  # would overflow
    assert _use_struct_keys(100, force=True) is True  # test pin
    assert ChunkToIntEdgePartials(None, 3_000_000_000).struct_keys is True
    assert ChunkToIntEdgePartials(None, 100).struct_keys is False


def test_struct_key_path_bit_equal_to_packed(small_transcripts, tmp_path, ray_session):
    """struct_keys=True routes the full build, the no-broadcast join
    path, and the incremental add/delete through the two-int64-key
    exchange — the >2.1e9-vertex layout — and produces bit-equal
    vertices/edges/adjacency on the same input as the packed-int64
    default."""
    import pandas as pd
    import pyarrow as pa

    from hipporag_ray.stages.graph_build import (
        build_graph,
        build_graph_incremental,
        delete_chunks_from_graph,
    )

    tx = rd.read_parquet(small_transcripts)

    def tables(g):
        out = {}
        for name, ds in (
            ("v", g.vertices()),
            ("e", g.edges()),
            ("a", g.adj()),
        ):
            df = ds.to_pandas()
            out[name] = df.sort_values(list(df.columns)).reset_index(drop=True)
        return out

    packed = tables(build_graph(tx, str(tmp_path / "packed"), struct_keys=False))
    structd = tables(build_graph(tx, str(tmp_path / "struct"), struct_keys=True))
    for k in packed:
        pd.testing.assert_frame_equal(packed[k], structd[k])

    # join path (no vertex broadcast) under struct keys
    joined = tables(
        build_graph(
            tx, str(tmp_path / "struct_join"), struct_keys=True,
            broadcast_vertex_limit=0,
        )
    )
    for k in packed:
        pd.testing.assert_frame_equal(packed[k], joined[k])

    # incremental add + delete under struct keys == packed counterparts
    texts = [r["text"] for r in tx.take(3)]
    new = rd.from_arrow(pa.table({"text": ["alpha beta graft", "graft beta gamma"]}))
    for mode, tag in ((False, "p"), (True, "s")):
        base = build_graph(tx, str(tmp_path / f"inc_base_{tag}"), struct_keys=mode)
        g_add = build_graph_incremental(
            new, base, str(tmp_path / f"inc_base_{tag}"), struct_keys=mode
        )
        g_del = delete_chunks_from_graph(
            texts, g_add, str(tmp_path / f"inc_del_{tag}"), struct_keys=mode
        )
        got = (tables(g_add), tables(g_del))
        if not mode:
            want = got
        else:
            for w, g in zip(want, got):
                for k in w:
                    pd.testing.assert_frame_equal(w[k], g[k])


def test_triples_window_exchange_matches_across_partition_counts(ray_session, tmp_path, monkeypatch):
    """The join path's triples window exchange gives the same graph at
    k = 4 partitions (a tiny _PARTITION_FLOOR_ROWS) as at k = 1."""
    import pandas as pd
    import pyarrow as pa

    from hipporag_ray.stages import shuffle

    rng = np.random.default_rng(5)
    words = [f"word{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, 8)) for _ in range(60)]
    tx = rd.from_arrow(pa.table({"text": texts})).repartition(4)

    def graph(name):
        g = build_graph(
            tx, str(tmp_path / name), edge_source="triples", broadcast_vertex_limit=0
        )
        cols = ["src", "dst", "etype"]
        return (
            g.vertices().to_pandas().sort_values("node_key").reset_index(drop=True),
            g.edges().to_pandas().sort_values(cols).reset_index(drop=True),
        )

    v1, e1 = graph("k1")
    monkeypatch.setattr(shuffle, "_PARTITION_FLOOR_ROWS", 4)
    v4, e4 = graph("k4")
    pd.testing.assert_frame_equal(v1, v4)
    pd.testing.assert_frame_equal(e1, e4)
    assert (e1["etype"] == "fact").any()


def _count_executions(monkeypatch) -> list:
    """Count Ray Data executions from here on (one entry per
    ``StreamingExecutor.execute``)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **k):
        calls.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


def test_build_runs_one_ray_data_execution(ray_session, tmp_path, monkeypatch):
    """A build over a multi-file parquet read runs exactly one Ray Data
    execution (the read feeding the chunk dedup exchange; every later
    stage is plain tasks on block refs), and its graph is the
    brute-force one."""
    from hipporag_ray.synth import write_transcripts

    tx = write_transcripts(str(tmp_path / "tx"), n_convs=30, turns_per_conv=8, vocab=80, seed=3, shards=3)
    calls = _count_executions(monkeypatch)
    g = build_graph(rd.read_parquet(tx), str(tmp_path / "g"))
    assert len(calls) == 1, f"{len(calls)} Ray Data executions"
    monkeypatch.undo()

    chunks, fact, passage, vkeys = brute_force_graph(tx)
    v = g.vertices().to_pandas()
    assert dict(zip(v["node_key"], v["kind"])) == vkeys
    assert g.n_vertices == len(vkeys)
    assert g.n_edges == len(fact) + len(passage)


def test_writer_stages_sum_to_wall(ray_session, tmp_path):
    """A full build, an incremental add and a delete each split their
    wall into stages that sum to the call's wall within 5%."""
    import time

    import pyarrow as pa

    from hipporag_ray.stages.graph_build import build_graph_incremental, delete_chunks_from_graph

    words = [f"word{i}" for i in range(50)]
    rng = np.random.default_rng(11)
    texts = [" ".join(rng.choice(words, 6)) for _ in range(300)]
    out = str(tmp_path / "g")
    writes = {"vertex_dict_s", "vertex_write_s", "edge_sum_s", "edge_write_s", "adj_s"}

    def check(g, t0, want):
        wall = time.perf_counter() - t0
        assert set(g.stages) == want
        assert min(g.stages.values()) >= 0
        assert abs(sum(g.stages.values()) - wall) <= 0.05 * wall, (g.stages, wall)
        assert g == load_graph(out)  # the split is no part of the graph's identity

    base, delta = (rd.from_arrow(pa.table({"text": t})) for t in (texts[:200], texts[200:]))
    t0 = time.perf_counter()
    g = build_graph(base, out)
    check(g, t0, writes | {"dedup_s"})
    t0 = time.perf_counter()
    g = build_graph_incremental(delta, g, out)
    check(g, t0, writes)
    t0 = time.perf_counter()
    g = delete_chunks_from_graph(texts[:20], g, out)
    check(g, t0, writes)


def test_adjacency_layout_is_sorted_row_groups(ray_session, tmp_path):
    """adj/ parts read in name order are globally src-sorted, and every
    row group of edges/ and adj/ holds at most 32,768 rows with src
    min/max statistics (the CSR shard bounds and hub detection read
    them); a graph big enough for several parts and row groups."""
    import os

    from hipporag_ray.synth import write_transcripts

    tx = write_transcripts(
        str(tmp_path / "tx"), n_convs=250, turns_per_conv=10, vocab=3000,
        entities_per_turn=12, seed=5,
    )
    g = build_graph(rd.read_parquet(tx), str(tmp_path / "g"))
    groups = 0
    for d in (g.edges_path, g.adj_path):
        parts = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        src = []
        for f in parts:
            pf = pq.ParquetFile(os.path.join(d, f))
            md = pf.metadata
            col = pf.schema_arrow.get_field_index("src")
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                assert rg.num_rows <= 32_768
                st = rg.column(col).statistics
                assert st is not None and st.has_min_max
                groups += 1
            src.append(pf.read(columns=["src"])["src"].to_numpy())
        if d == g.adj_path:
            assert len(parts) > 1
            src = np.concatenate(src)
            assert len(src) == 2 * g.n_edges
            assert (np.diff(src) >= 0).all()
    assert groups > 4


def test_zero_edge_build_leaves_typed_empty_tables(ray_session, tmp_path):
    """Chunks whose tokens are all shorter than min_token_len give
    vertices but no edges: build_graph still leaves loadable
    typed-empty edges/ and adj/."""
    import pyarrow as pa

    from hipporag_ray import schema

    g = build_graph(rd.from_arrow(pa.table({"text": ["a b c", "xy z", "a b c"]})), str(tmp_path / "g"))
    assert (g.n_vertices, g.n_edges) == (2, 0)
    assert g.vertices().count() == 2
    for path in (g.edges_path, g.adj_path):
        t = pq.read_table(path)
        assert t.num_rows == 0
        assert t.schema.equals(schema.EDGES, check_metadata=False)
    assert g.edges().count() == 0 and g.adj().count() == 0
    assert load_graph(g.out_dir) == g
