"""Triangle counting vs brute-force oracle."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from hipporag_ray.algos import triangles
from hipporag_ray.algos.oracle import triangles_oracle
from hipporag_ray.algos.triangles import _count_forward, _oriented_csr, triangle_count
from hipporag_ray.stages.graph_build import build_graph
from hipporag_ray.state.native import native


def _edges_ds(src, dst):
    return rd.from_arrow(
        pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
                "weight": pa.array(np.ones(len(src))),
                "etype": pa.array(["fact"] * len(src)),
            }
        )
    )


def _both_paths(monkeypatch, ds, n, **kw):
    """triangle_count on the compiled path, then with native() forced to
    None on the driver (which picks the path for every count task)."""
    out = [triangle_count(ds, n, **kw)]
    with monkeypatch.context() as mp:
        mp.setattr(triangles, "native", lambda: None)
        out.append(triangle_count(ds, n, **kw))
    return out


def test_triangle_small_known(monkeypatch):
    # K4 has 4 triangles, each vertex in 3
    src, dst = [], []
    for i in range(4):
        for j in range(i + 1, 4):
            src.append(i)
            dst.append(j)
    for total, per in _both_paths(monkeypatch, _edges_ds(src, dst), 4):
        assert total == 4
        assert per.tolist() == [3, 3, 3, 3]


def test_triangle_with_parallel_and_self_edges(monkeypatch):
    # duplicates/self-loops/both orientations must not change the count
    src = [0, 1, 0, 2, 1, 0, 3, 3]
    dst = [1, 0, 2, 0, 2, 0, 3, 0]
    want_total, want_per = triangles_oracle(4, np.array(src), np.array(dst))
    for total, per in _both_paths(monkeypatch, _edges_ds(src, dst), 4):
        assert total == want_total == 1
        np.testing.assert_array_equal(per, want_per)


def test_triangle_random_vs_oracle(monkeypatch):
    rng = np.random.default_rng(3)
    n = 60
    m = 400
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    want_total, want_per = triangles_oracle(n, src, dst)
    for total, per in _both_paths(monkeypatch, _edges_ds(src, dst), n):
        assert total == want_total
        np.testing.assert_array_equal(per, want_per)


def test_triangle_on_built_graph(small_transcripts, tmp_path, monkeypatch):
    g = build_graph(rd.read_parquet(small_transcripts), str(tmp_path / "g"))
    e = g.edges().to_pandas()
    want_total, want_per = triangles_oracle(
        g.n_vertices, e["src"].to_numpy(), e["dst"].to_numpy()
    )
    for total, per in _both_paths(monkeypatch, g.edges(), g.n_vertices):
        assert total == want_total
        np.testing.assert_array_equal(per, want_per)


@pytest.mark.parametrize("case", ["k4", "random"])
def test_triangle_distributed_wedge_join(case):
    """broadcast_limit=0 forces the fully distributed wedge-join plan;
    results must be identical to the broadcast path / oracle."""
    rng = np.random.default_rng(9)
    if case == "k4":
        n = 4
        src, dst = [], []
        for i in range(4):
            for j in range(i + 1, 4):
                src.append(i)
                dst.append(j)
        src, dst = np.array(src), np.array(dst)
    else:
        n = 80
        src = rng.integers(0, n, 500)
        dst = rng.integers(0, n, 500)
    total, per = triangle_count(_edges_ds(src, dst), n, broadcast_limit=0)
    want_total, want_per = triangles_oracle(n, np.asarray(src), np.asarray(dst))
    assert total == want_total
    np.testing.assert_array_equal(per, want_per)


def _k4():
    src = [i for i in range(4) for j in range(i + 1, 4)]
    dst = [j for i in range(4) for j in range(i + 1, 4)]
    return 4, np.array(src), np.array(dst)


def _oriented(n, src, dst):
    a, b = np.minimum(src, dst), np.maximum(src, dst)
    code = np.unique(a[a != b] * n + b[a != b])
    return _oriented_csr(code // n, code % n, n)


def test_count_forward_kernel_matches_numpy_across_batch_split():
    """In-process: the kernel and the numpy wedge check agree per batch,
    and per-batch partials sum to the oracle when one vertex's forward
    list is cut between two batches."""
    rng = np.random.default_rng(17)
    n = 120
    src, dst = rng.integers(0, n, 1500), rng.integers(0, n, 1500)
    want_total, want_per = triangles_oracle(n, src, dst)
    u, indptr, v, codes = _oriented(n, src, dst)
    # cut inside the longest forward list
    x = int(np.argmax(np.diff(indptr)))
    assert indptr[x + 1] - indptr[x] >= 2
    cut = int(indptr[x] + (indptr[x + 1] - indptr[x]) // 2)
    kern = native()
    paths = [None] if kern is None else [None, kern]
    for k in paths:
        per = sum(
            _count_forward(u[s], v[s], indptr, v, codes, k)
            for s in (slice(0, cut), slice(cut, len(u)))
        )
        assert int(per.sum()) // 3 == want_total, k
        np.testing.assert_array_equal(per, want_per)
    if kern is None:
        pytest.skip("no C compiler available — numpy fallback only")


def test_triangle_forward_list_spans_count_blocks(monkeypatch):
    """A dense graph whose oriented edge list splits into several count
    slices (one task each), with every slice cut inside a forward list:
    the per-slice partials must still sum exactly."""
    import ray

    rng = np.random.default_rng(0)
    n = 160
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < 0.7
    src, dst = iu[keep], ju[keep]
    u, _indptr, _v, _codes = _oriented(n, src, dst)
    # the count stage's slice count and cuts, as triangle_count sizes them
    k = min(int(ray.cluster_resources()["CPU"]), len(u) // 4096)
    assert k >= 2
    for i in range(1, k):
        cut = i * len(u) // k
        assert u[cut - k] == u[cut + k], "slice cut between forward lists"
    want_total, want_per = triangles_oracle(n, src, dst)
    for total, per in _both_paths(monkeypatch, _edges_ds(src, dst), n):
        assert total == want_total
        np.testing.assert_array_equal(per, want_per)


@pytest.mark.parametrize("broadcast_limit", [5_000_000, 0])
def test_triangle_duplicate_pair_across_input_blocks(broadcast_limit, monkeypatch):
    """The same pair in two input blocks (and both orientations) survives
    each block's own unique; only the exchange makes it distinct.  A
    leftover duplicate would double a forward-list entry and overcount."""
    n, src, dst = _k4()
    parts = [
        (src, dst),
        (dst[:3], src[:3]),  # (0,1), (0,2), (0,3) again, reversed
        (src[:1], dst[:1]),
    ]
    ds = rd.from_arrow(
        [
            pa.table(
                {
                    "src": pa.array(s, type=pa.int64()),
                    "dst": pa.array(d, type=pa.int64()),
                }
            )
            for s, d in parts
        ]
    )
    assert ds.materialize().num_blocks() == len(parts)
    for total, per in _both_paths(monkeypatch, ds, n, broadcast_limit=broadcast_limit):
        assert total == 4
        assert per.tolist() == [3, 3, 3, 3]


def test_tri_merge_guards():
    """The typed kernel wrapper refuses wrong dtypes, non-contiguous
    arrays, mismatched lengths and out-of-range vids instead of letting
    the C loop read or write out of bounds."""
    kern = native()
    if kern is None:
        pytest.skip("no C compiler available — numpy fallback only")
    n, src, dst = _k4()
    u, indptr, v, _codes = _oriented(n, src, dst)
    cnt = np.zeros(n, np.int64)
    assert kern.tri_merge(indptr, v, u, v, cnt) == 4
    assert cnt.tolist() == [3, 3, 3, 3]
    bad = [
        (indptr, v, u.astype(np.int32), v, np.zeros(n, np.int64)),  # dtype
        (indptr, v, u, v, np.zeros(n, np.float64)),  # cnt dtype
        (indptr, v, np.repeat(u, 2)[::2], v, np.zeros(n, np.int64)),  # strided
        (indptr, v, u, v[:-1], np.zeros(n, np.int64)),  # bu/bv lengths
        (indptr, v, u, v, np.zeros(n + 1, np.int64)),  # indptr/cnt lengths
        (indptr, v[:-1], u, v, np.zeros(n, np.int64)),  # adj vs indptr[-1]
        (indptr, v, u + n, v, np.zeros(n, np.int64)),  # vid out of range
        (indptr, v + n, u, v, np.zeros(n, np.int64)),  # adj vid out of range
    ]
    jump = indptr.copy()
    jump[1] = len(v) + 5  # past adj, then back down: not monotone
    neg = indptr.copy()
    neg[0] = -1
    bad += [(p, v, u, v, np.zeros(n, np.int64)) for p in (jump, neg)]
    for args in bad:
        with pytest.raises(ValueError):
            kern.tri_merge(*args)
    ro = np.zeros(n, np.int64)
    ro.flags.writeable = False
    with pytest.raises(ValueError):
        kern.tri_merge(indptr, v, u, v, ro)


def _plan_spy(monkeypatch):
    """Record the front's distinct exchange and distributed-plan calls."""
    calls = {"int_key_sum": 0, "distributed": 0}

    def spy(name, fn):
        def wrapped(*a, **k):
            calls[name] += 1
            return fn(*a, **k)

        return wrapped

    monkeypatch.setattr(
        triangles, "int_key_sum", spy("int_key_sum", triangles.int_key_sum)
    )
    monkeypatch.setattr(
        triangles,
        "_triangle_count_distributed",
        spy("distributed", triangles._triangle_count_distributed),
    )
    return calls


def test_triangle_plan_choice(monkeypatch):
    """Input rows within broadcast_limit count on the broadcast plan with
    no exchange; rows over it pay the distinct exchange, whose distinct
    count picks the plan exactly as before (distinct <= limit: broadcast,
    else the wedge join).  Every case is exact against the oracle."""
    rng = np.random.default_rng(21)
    n = 70
    src, dst = rng.integers(0, n, 400), rng.integers(0, n, 400)
    a, b = np.minimum(src, dst), np.maximum(src, dst)
    m = len(np.unique(a[a != b] * n + b[a != b]))
    want_total, want_per = triangles_oracle(n, src, dst)
    # each pair three times, in both orientations: 3x the rows, same set
    dup = _edges_ds(np.concatenate([src, dst, src]), np.concatenate([dst, src, dst]))
    cases = [
        (_edges_ds(src, dst), len(src), {"int_key_sum": 0, "distributed": 0}),
        (dup, m, {"int_key_sum": 1, "distributed": 0}),
        (dup, m - 1, {"int_key_sum": 1, "distributed": 1}),
    ]
    for ds, limit, want_calls in cases:
        with monkeypatch.context() as mp:
            calls = _plan_spy(mp)
            total, per = triangle_count(ds, n, broadcast_limit=limit)
        assert calls == want_calls, (limit, calls)
        assert total == want_total
        np.testing.assert_array_equal(per, want_per)


@pytest.mark.parametrize("case", ["empty", "self_loops"])
def test_triangle_empty_inputs(case, monkeypatch):
    """No rows, or only self-loops: (0, zeros(n)) on both count paths."""
    n = 5
    src = [] if case == "empty" else [0, 3, 3, 4]
    ds = _edges_ds(np.array(src, np.int64), np.array(src, np.int64))
    for total, per in _both_paths(monkeypatch, ds, n):
        assert total == 0
        assert per.dtype == np.int64
        np.testing.assert_array_equal(per, np.zeros(n, np.int64))


def test_triangle_block_codes_column_contract():
    """A block with rows but no dst column raises a KeyError naming it;
    a zero-row block with no schema yields no codes."""
    import ray

    ds = rd.from_arrow(
        pa.table({"src": pa.array([0, 1], pa.int64()), "dest": pa.array([1, 2], pa.int64())})
    )
    with pytest.raises(KeyError, match=r"missing column\(s\) \['dst'\]"):
        triangle_count(ds, 3)
    out = ray.get(triangles._block_codes.remote(pa.table({}), 3))
    assert out.num_rows == 0 and out.column_names == ["code", "one"]


def test_triangle_broadcast_plan_runs_one_execution(tmp_path, monkeypatch):
    """A broadcast-plan call over a parquet read runs exactly one Ray Data
    execution: the read itself, with no materialization after it."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    rng = np.random.default_rng(5)
    n = 90
    src, dst = rng.integers(0, n, 700), rng.integers(0, n, 700)
    for i in range(3):  # three files: three input blocks
        s = slice(i * 250, (i + 1) * 250)
        pq.write_table(
            pa.table({"src": pa.array(src[s]), "dst": pa.array(dst[s])}),
            tmp_path / f"part-{i}.parquet",
        )
    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **k):
        calls.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    total, per = triangle_count(rd.read_parquet(str(tmp_path)), n)
    assert len(calls) == 1, f"{len(calls)} Ray Data executions"
    want_total, want_per = triangles_oracle(n, src, dst)
    assert total == want_total
    np.testing.assert_array_equal(per, want_per)


def test_count_slices_sum_exactly_for_any_slice_count():
    """The count tasks' own slice cuts (i*m//k): for k = 2, 3 and m + 2
    (so some slices are empty) the per-slice partials over one broadcast
    CSR sum to the oracle on the kernel and the numpy path, with cuts
    inside forward lists and vertices without any forward edge."""
    import ray

    rng = np.random.default_rng(33)
    n = 50  # vids 40..49 are isolated
    src, dst = rng.integers(0, 40, 150), rng.integers(0, 40, 150)
    want_total, want_per = triangles_oracle(n, src, dst)
    assert want_total > 0
    _u, indptr, adj, _codes = _oriented(n, src, dst)
    m = len(adj)
    assert (np.diff(indptr) == 0).sum() > 10
    # a cut that is no list start falls inside a forward list
    assert not np.isin([m // 3, 2 * m // 3], indptr).all()
    csr = ray.put((indptr, adj))
    for k in (2, 3, m + 2):
        for use_kernel in (True, False):
            per = np.sum(
                ray.get(
                    [triangles._count_slice.remote(csr, i, k, use_kernel) for i in range(k)]
                ),
                axis=0,
            )
            assert int(per.sum()) // 3 == want_total, (k, use_kernel)
            np.testing.assert_array_equal(per, want_per)
