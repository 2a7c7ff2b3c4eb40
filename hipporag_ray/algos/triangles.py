"""Triangle counting over the edge-record table (SURVEY.md §7.2 step 10).

Semantics: triangles of the *simple undirected graph* induced by the
edge records (multiplicities, weights and self-loops ignored) — exact
agreement with ``oracle.triangles_oracle``.

Plan:
1. canonicalize records to the int64 pair code a*n + b (a=min, b=max,
   self-loops dropped) — one plain task per input block as the read
   streams it, with a block-local 1-D ``np.unique``.  The code blocks
   go straight to the CSR task, which dedups their concatenation: no
   map operator, exchange or materialization between the read and
   the count.  Only an input of more than ``broadcast_limit`` rows
   first runs the int-key exchange, to learn whether its distinct set
   still fits the broadcast plan;
2. orient each edge from the lower-(degree, vid) endpoint to the
   higher one — the standard degeneracy trick that bounds every
   forward-adjacency list by O(sqrt(m));
3. build the oriented CSR once in that task (forward lists sorted by
   vid) and broadcast it by reference; per oriented edge (u, v),
   parallel tasks over slices of the edge list merge-intersect N+(u)
   and N+(v) with the compiled ``tri_merge`` kernel
   (``state/native.py``); without the kernel a numpy fallback expands
   the wedges (u, v, w ∈ N+(v)) and binary-searches (u, w) in the
   sorted edge codes.  Each task returns a per-vertex count vector;
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

from ..stages.shuffle import _blocks, _checked, _cpus, _np, int_key_sum
from ..state.native import native


def triangle_count(
    edges: "rd.Dataset",
    n_vertices: int,
    broadcast_limit: int = 5_000_000,
) -> tuple[int, np.ndarray]:
    """Returns (total_triangles, per_vertex_counts int64[n]).

    ``edges`` runs once, as its own read: each block streams into one
    :func:`_block_codes` task.  Two physical plans over the same
    semantics, picked by the distinct simple edge count m:

    * m <= ``broadcast_limit``: one task dedups the code blocks and
      builds the oriented CSR, which the count tasks share by reference
      and intersect forward lists over slices of.  Input rows bound m,
      so rows within the limit send the code blocks straight to that
      task: no exchange, no materialization and no driver wait before
      the result.  Larger inputs learn m from the distinct int-key
      exchange first;
    * larger: fully distributed bucketed wedge join — orient, expand
      forward-neighbor pairs per midpoint through the grouped hash
      exchange, semi-join the wedge codes against the oriented edge
      codes, aggregate per-vertex counts through the int-key shuffle.
      No edge-set materialization on the driver.
    """
    if n_vertices >= 3_037_000_499:  # isqrt(2^63): a*n+b must fit int64
        # silent int64 wraparound would produce a WRONG count; the
        # struct-key pair exchange (shuffle.int_pair_key_sum, the
        # graph build's >2.1e9-vertex path) is the template for lifting
        # this if a >3e9-vertex triangle count is ever needed
        raise ValueError(
            f"triangle_count packs vertex pairs into int64 codes; "
            f"n_vertices={n_vertices} would overflow (limit ~3.03e9)"
        )
    codes, rows = [], 0
    for bref, r in _blocks(edges):
        codes.append(_block_codes.remote(bref, n_vertices))
        rows += r
    if rows == 0:
        return 0, np.zeros(n_vertices, dtype=np.int64)
    if rows > broadcast_limit:
        # distinct pairs through the int-key exchange — Dataset.groupby
        # on the pair columns measured ~10x slower on the transcript
        # graph; the distinct count m picks the plan
        distinct = int_key_sum(rd.from_arrow_refs(codes), "code", "one").materialize()
        m = distinct.count()
        if m == 0:
            return 0, np.zeros(n_vertices, dtype=np.int64)
        if m > broadcast_limit:

            def from_codes(batch: pa.Table) -> pa.Table:
                code = batch["code"].to_numpy(zero_copy_only=False)
                return pa.table(
                    {
                        "a": pa.array(code // n_vertices, type=pa.int64()),
                        "b": pa.array(code % n_vertices, type=pa.int64()),
                    }
                )

            return _triangle_count_distributed(
                distinct.map_batches(from_codes, batch_format="pyarrow").materialize(),
                n_vertices,
            )
        codes = [b for b, _r in _blocks(distinct)]
    else:
        # input rows bound m from above: with duplicates or self-loops
        # the count stage below may start more tasks than m needs
        m = rows
    # the driver picks the counting path (HIPPORAG_RAY_NO_NATIVE or no
    # compiler: numpy) and compiles or loads the kernel cache once, so
    # the count tasks load the cached .so instead of racing compiles
    use_kernel = native() is not None
    # the CSR is built in a task straight from the code blocks and the
    # count tasks return per-vertex vectors: the driver never copies an
    # edge-sized array into or out of the object store
    csr_ref = _broadcast_csr.remote(n_vertices, *codes)
    del codes  # the CSR task holds the code blocks until it has run
    # one task per slice of the oriented edge list so the O(m*sqrt(m))
    # counting stage (the dominant cost) parallelizes; each task cuts
    # its slice from the CSR's own edge count
    k = min(_cpus(), max(1, m // 4096))
    parts = ray.get(
        [_count_slice.remote(csr_ref, i, k, use_kernel) for i in range(k)]
    )
    per_vertex = np.sum(parts, axis=0, dtype=np.int64)
    total = int(per_vertex.sum()) // 3
    return total, per_vertex


@ray.remote
def _block_codes(block, n: int) -> pa.Table:
    """Distinct pair codes a*n + b (a = min, b = max endpoint,
    self-loops dropped) of one edge block, with the unit weight column
    ``int_key_sum`` sums.  The exchange splits' column contract: a
    zero-row, schema-less block yields no codes; a block with rows but
    no ``src``/``dst`` raises ``KeyError``."""
    tbl = _checked(block, "src", "dst")
    src, dst = _np(tbl, "src", np.int64), _np(tbl, "dst", np.int64)
    a = np.minimum(src, dst)
    b = np.maximum(src, dst)
    keep = a != b
    # a 1-D unique on the int64 code is ~30x cheaper than a row-wise
    # unique of (a, b)
    code = np.unique(a[keep] * n + b[keep])
    return pa.table(
        {
            "code": pa.array(code, type=pa.int64()),
            "one": pa.array(np.ones(len(code), np.float64)),
        }
    )


@ray.remote
def _broadcast_csr(n: int, *blocks) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, adj) of the oriented CSR over the distinct pair codes of
    ``blocks`` (each block is distinct only within itself)."""
    code = np.unique(
        np.concatenate(
            [np.zeros(0, np.int64)]
            + [b["code"].to_numpy(zero_copy_only=False).astype(np.int64) for b in blocks]
        )
    )
    _u, indptr, adj, _codes = _oriented_csr(code // n, code % n, n)
    return indptr, adj


@ray.remote
def _count_slice(csr, i: int, k: int, use_kernel: bool) -> np.ndarray:
    """Per-vertex triangle corners closed by slice i of k of the
    broadcast CSR's oriented edges."""
    indptr, adj = csr  # zero-copy views of the broadcast object
    n, m = len(indptr) - 1, len(adj)
    e0, e1 = i * m // k, (i + 1) * m // k
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
