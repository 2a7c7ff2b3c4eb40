"""Triangle counting over the edge-record table (SURVEY.md §7.2 step 10).

Semantics: triangles of the *simple undirected graph* induced by the
edge records (multiplicities, weights and self-loops ignored) — exact
agreement with ``oracle.triangles_oracle``.

Plan:
1. canonicalize records to the int64 pair code a*n + b (a=min, b=max,
   self-loops dropped), distinct — a 1-D ``np.unique`` per batch, then
   the int-key exchange across batches;
2. orient each edge from the lower-(degree, vid) endpoint to the
   higher one — the standard degeneracy trick that bounds every
   forward-adjacency list by O(sqrt(m));
3. build the oriented CSR once in a task from the distinct blocks
   (forward lists sorted by vid) and broadcast it by reference; per
   oriented edge (u, v), parallel tasks over slices of the edge list
   merge-intersect N+(u) and N+(v) with the compiled ``tri_merge``
   kernel (``state/native.py``); without the kernel a numpy fallback
   expands the wedges (u, v, w ∈ N+(v)) and binary-searches (u, w) in
   the sorted edge codes.  Each task returns a per-vertex count vector;
4. sum of the per-task vectors on the driver.

The broadcast index holds the *distinct simple edge set* (entity
vocabulary graph), which is far smaller than the turn-level input; for
graphs whose simple edge set itself exceeds a node's memory the same
counting decomposes into a hash-bucketed wedge join keyed on the wedge
midpoint (edges ⋈ edges on mid, semi-join against the edge set) — the
orientation step and per-vertex accumulation are unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from ..state.native import native


def triangle_count(
    edges: "rd.Dataset",
    n_vertices: int,
    broadcast_limit: int = 5_000_000,
) -> tuple[int, np.ndarray]:
    """Returns (total_triangles, per_vertex_counts int64[n]).

    Two physical plans over the same semantics:

    * distinct simple edge set <= ``broadcast_limit``: build the
      oriented CSR once in a task, broadcast it by reference and
      intersect forward lists per edge slice (the small-graph fast
      path below);
    * larger: fully distributed bucketed wedge join — orient, expand
      forward-neighbor pairs per midpoint through the grouped hash
      exchange, semi-join the wedge codes against the oriented edge
      codes, aggregate per-vertex counts through the int-key shuffle.
      No edge-set materialization on the driver.
    """
    # distinct canonical pairs through the int-key exchange (code =
    # a*n + b) — Dataset.groupby on the pair columns measured ~10x
    # slower on the transcript graph
    from ..stages.shuffle import int_key_sum

    if n_vertices >= 3_037_000_499:  # isqrt(2^63): a*n+b must fit int64
        # silent int64 wraparound would produce a WRONG count; the
        # struct-key pair exchange (shuffle.int_pair_key_sum, the
        # graph build's >2.1e9-vertex path) is the template for lifting
        # this if a >3e9-vertex triangle count is ever needed
        raise ValueError(
            f"triangle_count packs vertex pairs into int64 codes; "
            f"n_vertices={n_vertices} would overflow (limit ~3.03e9)"
        )
    n0 = n_vertices

    def to_codes(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        keep = a != b
        # per-batch pre-dedup shrinks the shuffle; a 1-D unique on the
        # int64 code is ~30x cheaper than a row-wise unique of (a, b)
        code = np.unique(a[keep] * n0 + b[keep])
        return pa.table(
            {
                "code": pa.array(code, type=pa.int64()),
                "one": pa.array(np.ones(len(code), np.float64)),
            }
        )

    def from_codes(batch: pa.Table) -> pa.Table:
        code = batch["code"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": pa.array(code // n0, type=pa.int64()),
                "b": pa.array(code % n0, type=pa.int64()),
            }
        )

    distinct = int_key_sum(
        edges.map_batches(to_codes, batch_format="pyarrow").materialize(),
        "code",
        "one",
    ).materialize()
    m = distinct.count()
    if m == 0:
        return 0, np.zeros(n_vertices, dtype=np.int64)
    if m > broadcast_limit:
        return _triangle_count_distributed(
            distinct.map_batches(from_codes, batch_format="pyarrow").materialize(),
            n_vertices,
        )
    # the driver picks the counting path (HIPPORAG_RAY_NO_NATIVE or no
    # compiler: numpy) and compiles or loads the kernel cache once, so
    # the count tasks load the cached .so instead of racing compiles
    use_kernel = native() is not None
    # the CSR is built in a task straight from the distinct blocks and
    # the count tasks return per-vertex vectors: the driver never copies
    # an edge-sized array into or out of the object store
    blocks = [b for bundle in distinct.iter_internal_ref_bundles() for b, _ in bundle.blocks]
    csr_ref = _broadcast_csr.remote(n_vertices, *blocks)
    # one task per slice of the oriented edge list so the O(m*sqrt(m))
    # counting stage (the dominant cost) parallelizes
    cpus = int(ray.cluster_resources().get("CPU", 8))
    k = min(cpus, max(1, m // 4096))
    cuts = [i * m // k for i in range(k + 1)]
    parts = ray.get(
        [
            _count_slice.remote(csr_ref, cuts[i], cuts[i + 1], use_kernel)
            for i in range(k)
        ]
    )
    per_vertex = np.sum(parts, axis=0, dtype=np.int64)
    total = int(per_vertex.sum()) // 3
    return total, per_vertex


@ray.remote
def _broadcast_csr(n: int, *blocks) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, adj) of the oriented CSR from the distinct pair-code
    blocks of the int-key exchange."""
    code = np.concatenate(
        [np.zeros(0, np.int64)]
        + [b["code"].to_numpy(zero_copy_only=False).astype(np.int64) for b in blocks]
    )
    _u, indptr, adj, _codes = _oriented_csr(code // n, code % n, n)
    return indptr, adj


@ray.remote
def _count_slice(csr, e0: int, e1: int, use_kernel: bool) -> np.ndarray:
    """Per-vertex triangle corners closed by the oriented edges
    [e0, e1) of the broadcast CSR."""
    indptr, adj = csr  # zero-copy views of the broadcast object
    n = len(indptr) - 1
    u = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    kern = native() if use_kernel else None
    # the numpy fallback looks up (u, w) in the sorted edge codes
    codes = u * n + adj if kern is None else None
    return _count_forward(u[e0:e1], adj[e0:e1], indptr, adj, codes, kern)


def _oriented_csr(
    a: np.ndarray, b: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orient the distinct simple edges (a, b) from the lower (degree,
    vid) endpoint to the higher one; returns (u, indptr, v, codes) in
    (u, v) order, so each forward list N+(u) = v[indptr[u]:indptr[u+1]]
    is a vid-sorted run — what both the merge intersection and the code
    search rely on — and codes = u*n + v is sorted."""
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    rank = deg.astype(np.int64) * (n + 1)  # composite key (deg, vid)
    rank = rank + np.arange(n, dtype=np.int64)
    fwd = rank[a] < rank[b]
    u = np.where(fwd, a, b)
    v = np.where(fwd, b, a)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(u, minlength=n))
    return u, indptr, v, u * n + v


def _count_forward(
    bu: np.ndarray,
    bv: np.ndarray,
    indptr: np.ndarray,
    adj: np.ndarray,
    sorted_codes: np.ndarray | None,
    kern=None,
) -> np.ndarray:
    """Per-vertex triangle corners (int64[n]) closed by the oriented
    edges (bu, bv): every w in N+(u) ∩ N+(v) counts once at u, v and w.

    ``kern`` (``native()``) merge-intersects the two vid-sorted forward
    lists in one compiled pass.  The numpy fallback expands v's forward
    list w ∈ N+(v) per edge and tests (u, w) membership with one
    searchsorted over the whole batch's wedges against the sorted
    global edge codes, then bincounts per triangle corner."""
    n = len(indptr) - 1
    if kern is not None:
        acc = np.zeros(n, dtype=np.int64)
        kern.tri_merge(
            indptr, adj, np.ascontiguousarray(bu, np.int64),
            np.ascontiguousarray(bv, np.int64), acc,
        )
        return acc
    deg_v = indptr[bv + 1] - indptr[bv]
    if deg_v.sum() == 0:
        return np.zeros(n, dtype=np.int64)
    # expand wedges: edge i contributes deg_v[i] (u, w) candidates
    edge_rep = np.repeat(np.arange(len(bu)), deg_v)
    # gather w = adj[indptr[v] + offset] with per-edge offsets
    starts = indptr[bv]
    offs = np.arange(len(edge_rep)) - np.repeat(
        np.concatenate([[0], np.cumsum(deg_v)[:-1]]), deg_v
    )
    w_arr = adj[starts[edge_rep] + offs]
    cand = bu[edge_rep].astype(np.int64) * n + w_arr
    pos = np.searchsorted(sorted_codes, cand)
    pos[pos >= len(sorted_codes)] = len(sorted_codes) - 1
    hit = sorted_codes[pos] == cand
    # triangle corners: u and v of the wedge edge, and w
    acc = np.bincount(bu[edge_rep[hit]], minlength=n).astype(np.int64)
    acc += np.bincount(bv[edge_rep[hit]], minlength=n)
    acc += np.bincount(w_arr[hit], minlength=n)
    return acc


def _triangle_count_distributed(
    distinct: "rd.Dataset", n_vertices: int
) -> tuple[int, np.ndarray]:
    """Bucketed wedge-join plan (the scale path): every stage is an
    exchange; the driver only reads back the per-vertex count vector
    (output-sized)."""
    from ..stages.shuffle import grouped_pairs, hash_join, int_key_sum

    n = n_vertices

    # degrees over the simple graph: one row per endpoint -> int-key sum
    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vid": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "one": pa.array(np.ones(2 * len(a), np.float64)),
            }
        )

    deg = int_key_sum(
        distinct.map_batches(endpoints, batch_format="pyarrow").materialize(),
        "vid",
        "one",
    )
    deg_a = deg.map_batches(
        lambda t: pa.table({"a": t["vid"], "da": t["one"]}), batch_format="pyarrow"
    )
    deg_b = deg.map_batches(
        lambda t: pa.table({"b": t["vid"], "db": t["one"]}), batch_format="pyarrow"
    )
    j = hash_join(distinct, deg_a.materialize(), "a")
    j = hash_join(j.materialize(), deg_b.materialize(), "b")

    def orient(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = batch["da"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch["db"].to_numpy(zero_copy_only=False).astype(np.int64)
        ra = da * (n + 1) + a  # composite (deg, vid) rank
        rb = db * (n + 1) + b
        fwd = ra < rb
        u = np.where(fwd, a, b)
        v = np.where(fwd, b, a)
        # carry v as its rank composite so wedge pairs sort in RANK
        # order (a wedge (v1, v2) must probe the edge oriented
        # rank(v1) -> rank(v2), which need not follow vid order)
        vr = np.where(fwd, rb, ra)
        return pa.table({"u": pa.array(u), "v": pa.array(v), "vrank": pa.array(vr)})

    oriented = j.map_batches(orient, batch_format="pyarrow").materialize()
    # wedges per midpoint u: rank-ordered pairs of N+(u); the
    # orientation bounds |N+(u)| by O(sqrt(m)), so per-group expansion
    # is bounded without extra salting
    wedges = grouped_pairs(oriented, "u", "vrank", mode="lt", include_group=True)

    def wcode(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False) % (n + 1)  # rank -> vid
        b = batch["b"].to_numpy(zero_copy_only=False) % (n + 1)
        g = batch["g"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "code": pa.array(a * n + b, type=pa.int64()),
                "g": pa.array(g, type=pa.int64()),
            }
        )

    def ecode(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.table({"code": pa.array(u * n + v, type=pa.int64())})

    hits = hash_join(
        wedges.map_batches(wcode, batch_format="pyarrow").materialize(),
        oriented.map_batches(ecode, batch_format="pyarrow").materialize(),
        "code",
    )

    def corners(batch: pa.Table) -> pa.Table:
        code = batch["code"].to_numpy(zero_copy_only=False)
        g = batch["g"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vid": pa.array(
                    np.concatenate([g, code // n, code % n]), type=pa.int64()
                ),
                "one": pa.array(np.ones(3 * len(g), np.float64)),
            }
        )

    agg = int_key_sum(
        hits.map_batches(corners, batch_format="pyarrow").materialize(), "vid", "one"
    ).to_pandas()
    per_vertex = np.zeros(n_vertices, dtype=np.int64)
    if len(agg):
        per_vertex[agg["vid"].to_numpy(np.int64)] = agg["one"].to_numpy(np.int64)
    total = int(per_vertex.sum()) // 3
    return total, per_vertex
