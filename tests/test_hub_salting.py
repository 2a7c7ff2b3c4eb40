"""Iteration-level hub salting: correctness on extreme-skew graphs and
balance improvement."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray

from hipporag_ray.algos.iterate import (
    connected_components,
    label_propagation,
    pagerank,
    personalized_pagerank,
)
from hipporag_ray.algos.oracle import cc_oracle, lp_oracle, pagerank_oracle, ppr_oracle
from hipporag_ray.state.csr import ShardedGraph


@pytest.fixture(scope="module")
def skew_graph(tmp_path_factory):
    """One hub connected to 60% of vertices + sparse random edges."""
    rng = np.random.default_rng(5)
    n = 2000
    hub = 700  # deliberately mid-range vid
    spoke = rng.choice(np.delete(np.arange(n), hub), size=1200, replace=False)
    src = np.concatenate([np.full(1200, hub), rng.integers(0, n, 1500)])
    dst = np.concatenate([spoke, rng.integers(0, n, 1500)])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.random(len(src)) + 0.1
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.concatenate([w, w]),
            "etype": ["fact"] * (2 * len(src)),
        }
    ).sort_by("src")
    d = tmp_path_factory.mktemp("skew") / "adj"
    os.makedirs(d)
    pq.write_table(adj, str(d / "part-0.parquet"))
    return str(d), n, src, dst, w, hub


def _sharded(path, n, **kw):
    return ShardedGraph(path, n, n_shards=4, **kw)


def test_hub_detected_and_excluded_from_groups(skew_graph):
    path, n, src, dst, w, hub = skew_graph
    sg = _sharded(path, n, hub_min_degree=256)
    try:
        assert hub in sg.hubs.tolist()
        # total scanned rows conserved: groups + push == all records
        assert sg.edge_count == 2 * len(src)
    finally:
        sg.shutdown()


@pytest.mark.parametrize("hub_min_degree", [256, 10**9])
def test_pagerank_ppr_with_hub_salting(skew_graph, hub_min_degree):
    """Same scores with and without hub salting, matching the oracle."""
    path, n, src, dst, w, hub = skew_graph
    want = pagerank_oracle(n, src, dst, w)
    sg = _sharded(path, n, hub_min_degree=hub_min_degree)
    try:
        if hub_min_degree == 256:
            assert len(sg.hubs) > 0
        got, _ = pagerank(sg)
        np.testing.assert_allclose(got[:, 0], want, atol=1e-6)

        rng = np.random.default_rng(0)
        vids = rng.choice(n, size=6, replace=False)
        vids[0] = hub  # reset mass on the hub itself
        weights = rng.random(6)
        reset = np.zeros(n)
        reset[vids] = weights
        want_ppr = ppr_oracle(n, src, dst, w, reset=reset)
        got_ppr, _ = personalized_pagerank(sg, resets=[(vids, weights)], n_queries=1)
        np.testing.assert_allclose(got_ppr[:, 0], want_ppr, atol=1e-6)
    finally:
        sg.shutdown()


def test_cc_lp_with_hub_salting(skew_graph):
    path, n, src, dst, w, hub = skew_graph
    sg = _sharded(path, n, hub_min_degree=256)
    try:
        comp, _ = connected_components(sg)
        np.testing.assert_array_equal(comp, cc_oracle(n, src, dst))
        labels, _ = label_propagation(sg, max_iter=5)
        np.testing.assert_array_equal(labels, lp_oracle(n, src, dst, w, max_iter=5))
    finally:
        sg.shutdown()


def test_hub_edge_list_split_across_shards(skew_graph, tmp_path):
    """Row-range splitting: a vertex with degree >> E/P never has its
    edge list loaded by its owner — the owner's total loaded rows stay
    bounded by its non-hub range, and out-weight/PPR remain exact."""
    rng = np.random.default_rng(11)
    n = 400
    hub = 13
    others = np.delete(np.arange(n), hub)
    # star: hub touches EVERY other vertex (degree n-1 >> E/P) + a ring
    src = np.concatenate([np.full(n - 1, hub), others])
    dst = np.concatenate([others, np.roll(others, 1)])
    w = rng.random(len(src)) + 0.1
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.concatenate([w, w]),
            "etype": ["fact"] * (2 * len(src)),
        }
    ).sort_by("src")
    d = tmp_path / "adj"
    os.makedirs(d)
    pq.write_table(adj, str(d / "part-0.parquet"))

    from hipporag_ray.state.csr import GraphShard, edge_balanced_bounds

    bounds, hubs = edge_balanced_bounds(str(d), n, 4, hub_min_degree=64)
    assert hub in hubs.tolist()
    shards = [GraphShard(str(d), i, bounds, n, hubs) for i in range(len(bounds) - 1)]
    owner = next(s for s in shards if s.lo <= hub < s.hi)
    # the owner loaded none of the hub's own rows (degree n-1), only its
    # range's non-hub rows + push rows
    deg_hub = n - 1
    own_rows = owner.get_group_rows()
    assert own_rows < deg_hub
    # hub out-weight assembled from cross-shard partials == true value
    parts = np.sum([s.hub_weight_partials() for s in shards], axis=0)
    for s in shards:
        s.set_hub_out_weights(parts)
    hub_w_true = w[src == hub].sum() + w[dst == hub].sum()
    hidx = owner.hubs.tolist().index(hub)
    np.testing.assert_allclose(parts[hidx], hub_w_true)
    np.testing.assert_allclose(owner.out_weight[hub - owner.lo], hub_w_true)

    # end-to-end PPR equality through the actor pool
    want = pagerank_oracle(n, src, dst, w)
    sg = ShardedGraph(str(d), n, n_shards=4, hub_min_degree=64)
    try:
        assert hub in sg.hubs.tolist()
        got, _ = pagerank(sg)
        np.testing.assert_allclose(got[:, 0], want, atol=1e-6)
    finally:
        sg.shutdown()


def test_hub_salting_balances_shards(skew_graph):
    """With salting on, no shard's segment-group row count is dominated
    by the hub's degree."""
    path, n, src, dst, w, hub = skew_graph

    def group_rows(sg):
        def rows(a):
            return a.get_group_rows.remote()

        import ray as _ray

        return _ray.get([rows(a) for a in sg.actors])

    sg_off = ShardedGraph(path, n, n_shards=4, hub_min_degree=10**9)
    try:
        off = group_rows(sg_off)
    finally:
        sg_off.shutdown()
    sg_on = ShardedGraph(path, n, n_shards=4, hub_min_degree=256)
    try:
        on = group_rows(sg_on)
    finally:
        sg_on.shutdown()
    assert max(on) < max(off)  # hub segment no longer concentrates on one shard


def test_rowgroup_stats_bounds_partition_invariant(ray_session, tmp_path):
    """Forcing shard bounds from parquet row-group statistics (the
    100-TB metadata-only path) yields a valid partition and identical
    PPR scores — the iteration math is partition-invariant."""
    import numpy as np
    import ray.data as rd

    from hipporag_ray.algos.iterate import pagerank
    from hipporag_ray.stages.graph_build import build_graph
    from hipporag_ray.state.csr import ShardedGraph, edge_balanced_bounds
    from hipporag_ray.synth import write_transcripts

    tx = write_transcripts(str(tmp_path / "tx"), 40, 8, 60, seed=9)
    g = build_graph(rd.read_parquet(tx), str(tmp_path / "g"))

    bounds, hubs = edge_balanced_bounds(
        g.adj_path, g.n_vertices, 4, stats_min_rows=0
    )
    assert bounds[0] == 0 and bounds[-1] == g.n_vertices
    assert (np.diff(bounds) > 0).all()
    assert np.all(np.isin(hubs, np.arange(g.n_vertices)))

    def scores(**kw):
        # float64 messages: partitioning only reorders summation
        sg = ShardedGraph(g.adj_path, g.n_vertices, n_shards=4, precise=True, **kw)
        try:
            s, _ = pagerank(sg, tol=0.0, max_iter=5)
        finally:
            sg.shutdown()
        return s[:, 0]

    np.testing.assert_allclose(
        scores(), scores(bounds_stats_min_rows=0), atol=1e-9
    )


def test_shard_count_invariance(skew_graph):
    """4- and 5-shard pools agree across PPR, CC, LP and coreness:
    partitioning moves vertices between shard actors, never the math.
    A different shard count changes the float reduction order, so PPR
    is allclose; the integer label fixpoints are exact."""
    from hipporag_ray.algos.iterate import coreness

    path, n, src, dst, w, hub = skew_graph
    rng = np.random.default_rng(11)
    resets = [(rng.choice(n, size=4, replace=False), np.ones(4)) for _ in range(3)]

    def run(n_shards):
        sg = ShardedGraph(path, n, n_shards=n_shards, precise=True)
        try:
            s, _ = personalized_pagerank(
                sg, resets=resets, n_queries=3, max_iter=8, tol=0.0
            )
            c, _ = connected_components(sg)
            l, _ = label_propagation(sg, max_iter=5)
            k, _ = coreness(sg)
            return s, c, l, k
        finally:
            sg.shutdown()

    four, five = run(4), run(5)
    np.testing.assert_allclose(four[0], five[0], atol=1e-9)
    np.testing.assert_array_equal(four[1], five[1])
    np.testing.assert_array_equal(four[2], five[2])
    np.testing.assert_array_equal(four[3], five[3])


def test_pool_reservation_leaves_scheduler_headroom(skew_graph):
    """The pool must NEVER reserve every cluster CPU: dataset readbacks
    while the pool is alive (scores_dataset -> from_arrow_refs metadata
    tasks, reset routing) submit 1.0-CPU Ray tasks that would starve
    forever behind a full reservation (observed 8-CPU deadlock)."""
    from hipporag_ray.algos.iterate import pagerank, scores_dataset

    path, n, src, dst, w, hub = skew_graph
    cpus = int(ray.cluster_resources().get("CPU", 8))
    # force more shards than cores so the fractional branch is exercised
    sg = ShardedGraph(path, n, n_shards=2 * cpus + 2)
    try:
        assert sg.cpu_per_shard * len(sg.actors) < cpus
        # end-to-end: a Ray Data readback completes while the pool is up
        pagerank(sg, tol=0.0, max_iter=2, collect=False)
        assert scores_dataset(sg, 0).count() == n
    finally:
        sg.shutdown()


def _write_graph(path, n, seed, hubs=()):
    """Random symmetric adjacency on n vertices; each hub gets n/2 spokes."""
    rng = np.random.default_rng(seed)
    src = [rng.integers(0, n, 3 * n)]
    dst = [rng.integers(0, n, 3 * n)]
    for h in hubs:
        src.append(np.full(n // 2, h))
        dst.append(rng.choice(n, size=n // 2, replace=False))
    src, dst = np.concatenate(src), np.concatenate(dst)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.random(len(src)) + 0.1
    adj = pa.table(
        {
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "weight": np.concatenate([w, w]),
        }
    ).sort_by("src")
    os.makedirs(path)
    pq.write_table(adj, os.path.join(path, "part-0.parquet"))
    return path


def _all_algos(sg):
    from hipporag_ray.algos.iterate import coreness

    rng = np.random.default_rng(2)
    resets = [
        (rng.choice(sg.n_vertices, size=5, replace=False), rng.random(5)) for _ in range(3)
    ]
    s, _ = personalized_pagerank(sg, resets=resets, n_queries=3)
    c, _ = connected_components(sg)
    l, _ = label_propagation(sg, max_iter=5)
    k, _ = coreness(sg)
    return s, c, l, k


def test_sharded_reload_across_shape_changes(tmp_path):
    """A reload keeps live actors where the plan allows: a grown pool
    spawns only the new shards, a shrunk one kills its surplus, a
    changed per-shard reservation respawns everything, and a new hub set
    reloads in place.  Every algorithm then matches a fresh pool exactly.
    A failed reload shuts the pool down."""
    kw = dict(min_shard_size=1000, hub_min_degree=200)
    g2 = _write_graph(str(tmp_path / "g2"), 2000, 1, hubs=[100])
    g3 = _write_graph(str(tmp_path / "g3"), 3000, 2, hubs=[100])
    g5 = _write_graph(str(tmp_path / "g5"), 5000, 3, hubs=[7])
    g5h = _write_graph(str(tmp_path / "g5h"), 5000, 4, hubs=[2500, 4000])

    def ids(actors):
        return [a._actor_id for a in actors]

    def fresh(path, n):
        f = ShardedGraph(path, n, **kw)
        try:
            return f.bounds, f.hubs, f.edge_count, _all_algos(f)
        finally:
            f.shutdown()

    # the fresh pools run first: two live pools of 1-CPU shards
    # overcommit the 4-CPU session, and the second never schedules
    wants = {p: fresh(p, n) for p, n in ((g3, 3000), (g2, 2000), (g5, 5000), (g5h, 5000))}

    def reload(sg, path, n):
        want = wants[path]
        sg.reload(path, n)
        np.testing.assert_array_equal(sg.bounds, want[0])
        np.testing.assert_array_equal(sg.hubs, want[1])
        assert sg.edge_count == want[2]
        for got, exp in zip(_all_algos(sg), want[3]):
            np.testing.assert_array_equal(got, exp)

    sg = ShardedGraph(g2, 2000, **kw)
    try:
        assert sg.n_shards == 2 and sg.cpu_per_shard == 1
        _all_algos(sg)  # leave per-algorithm state behind on the actors
        before = ids(sg.actors)

        reload(sg, g3, 3000)  # 2 -> 3 shards
        assert sg.n_shards == 3 and sg.cpu_per_shard == 1
        assert ids(sg.actors)[:2] == before
        assert sg.actors[2]._actor_id not in before

        before, dropped = ids(sg.actors), sg.actors[2]
        reload(sg, g2, 2000)  # 3 -> 2 shards
        assert ids(sg.actors) == before[:2]
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(dropped.get_edge_count.remote())

        before = ids(sg.actors) + ids(sg.assemblers)
        reload(sg, g5, 5000)  # 2 -> 5 shards: the reservation changes
        assert sg.n_shards >= 4 and sg.cpu_per_shard < 1
        assert not set(ids(sg.actors) + ids(sg.assemblers)) & set(before)

        before, hubs = ids(sg.actors), sg.hubs.tolist()
        reload(sg, g5h, 5000)  # same shape, another hub set
        assert sg.hubs.tolist() != hubs and len(sg.hubs) == 2
        assert ids(sg.actors) == before

        with pytest.raises(FileNotFoundError):
            sg.reload(str(tmp_path / "missing"), 5000)
        assert sg.actors == [] and sg.assemblers == []
    finally:
        sg.shutdown()


def test_shard_reload_clears_state(tmp_path):
    """GraphShard.reload leaves nothing of the old graph: after PPR,
    label, kind and coreness state, the reloaded shard equals a freshly
    built one attribute for attribute."""
    from hipporag_ray.state.csr import GraphShard, assemble_labels

    ga = _write_graph(str(tmp_path / "ga"), 600, 5, hubs=[50])
    gb = _write_graph(str(tmp_path / "gb"), 900, 6, hubs=[300])
    verts = tmp_path / "verts"
    os.makedirs(verts)
    pq.write_table(
        pa.table({"vid": np.arange(600), "kind": ["chunk", "entity"] * 300}),
        str(verts / "part-0.parquet"),
    )

    def args(path, n):
        return (path, 0, np.array([0, n]), n, np.array([50, 300]), False)

    shard = GraphShard(*args(ga, 600))
    shard.ppr_init(2, (np.array([1, 2]), np.array([0, 1]), np.array([1.0, 1.0])))
    shard.ppr_contrib(0.5, np.arange(2))
    shard.set_hub_out_weights(shard.hub_weight_partials())
    shard.labels_init()
    shard.load_kinds(str(verts))
    shard.core_init(shard.core_degree_partial())
    shard.core_pull(assemble_labels([shard.core_msg()]))
    shard.perf_counters()

    assert shard.reload(*args(gb, 900)) == GraphShard(*args(gb, 900)).edge_count
    fresh = GraphShard(*args(gb, 900))
    got, want = vars(shard), vars(fresh)
    got.pop("_kern"), want.pop("_kern")
    assert got.keys() == want.keys()

    def same(a, b):
        if isinstance(a, np.ndarray):
            return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
        if isinstance(a, (tuple, list)):
            return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
        return a == b

    for key in want:
        assert same(got[key], want[key]), key



_TWO_POOLS = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
try:
    DataContext.get_current().enable_progress_bars = False
    from hipporag_ray.algos.iterate import personalized_pagerank
    from hipporag_ray.state.csr import ShardedGraph

    pools = []
    try:
        for _ in range(2):
            pools.append(ShardedGraph(sys.argv[2], int(sys.argv[3]), n_shards=1))
        s, _m = personalized_pagerank(
            pools[1], resets=[(np.array([0, 1]), 1.0)], n_queries=1
        )
        print(json.dumps({"reserved": [p.cpu_per_shard for p in pools], "mass": float(s.sum())}))
    finally:
        for p in pools:
            p.shutdown()
finally:
    ray.shutdown()
"""


def test_two_live_pools_leave_a_cpu_for_routing(tmp_path):
    """Two live shard pools in one 2-CPU session (two engines, or an
    engine plus a fresh pool) must leave a CPU free for the 1-CPU
    reset-routing tasks of a list-reset PPR: each pool sizes its
    reservation against the CPUs still available.  Run in its own Ray
    session; on a timeout the whole process group (driver, raylet,
    workers) is killed."""
    import json
    import signal
    import subprocess
    import sys

    n = 300
    path = str(tmp_path / "adj")
    _write_graph(path, n, seed=9)
    script = tmp_path / "two_pools.py"
    script.write_text(_TWO_POOLS)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, str(script), repo, path, str(n)],
        cwd=repo,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("PPR starved behind two live pools' CPU reservations")
    assert proc.returncode == 0, err[-3000:]
    got = json.loads(out.strip().splitlines()[-1])
    assert sum(got["reserved"]) <= 1  # one CPU of two stays free
    assert got["mass"] > 0
