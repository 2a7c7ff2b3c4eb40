"""Bit-identity gate for shard-algorithm refactors: run a fixed set of
iterative algorithms through the public API and compare two runs.

    python tools/bitcheck.py --out before.npz      # on the old commit
    python tools/bitcheck.py --out after.npz       # on the new commit
    python tools/bitcheck.py --compare before.npz after.npz

Run mode writes a seeded synthetic symmetric adjacency (~2.7k vertices
with heavy-tailed degrees, so ``hub_min_degree=64`` salts ~160 hubs;
isolated vertices exercise dangling mass) and records, at shard counts
4, 6 and 9 with ``msg_chunks=2`` (assembler actors) and at shard counts
1 and 4 with ``msg_chunks=1`` (each step merges the shard messages
itself), in precise and float32 message modes: list-reset and
dataset-reset PPR (scores and per-wave active query counts), PageRank,
connected components, label propagation and coreness.  One list-reset
PPR run with ``checkpoint_every=3`` (4 shards, ``msg_chunks=2``) records
its manifest ``iter`` and ``active`` entries.  Compare mode exits
non-zero on any missing key or any array that is not bit-identical.
Only public names are used, so the same script runs on both commits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_VERTICES = 2700
N_RECORDS = 40000
N_QUERIES = 6
SHARD_COUNTS = (4, 6, 9)
# (shard count, msg_chunks, key suffix)
POOLS = [(p, 2, "") for p in SHARD_COUNTS] + [(p, 1, "_k1") for p in (1, 4)]


def write_adjacency(path: str, seed: int = 5) -> None:
    """Symmetric (src-sorted) adjacency parquet: Zipf-like endpoints
    give a heavy degree tail; the last 100 vids stay isolated."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    n_live = N_VERTICES - 100
    p = 1.0 / np.arange(1, n_live + 1) ** 0.5
    p /= p.sum()
    a = rng.choice(n_live, N_RECORDS, p=p)
    b = rng.choice(n_live, N_RECORDS, p=p)
    keep = a != b
    a, b = a[keep], b[keep]
    w = rng.integers(1, 4, len(a)).astype(np.float64)
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.lexsort((dst, src))
    os.makedirs(path, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "src": src[order].astype(np.int64),
                "dst": dst[order].astype(np.int64),
                "weight": np.concatenate([w, w])[order],
            }
        ),
        os.path.join(path, "part-0.parquet"),
        row_group_size=4096,
    )


def list_resets(seed: int = 11):
    rng = np.random.default_rng(seed)
    out = [(rng.choice(N_VERTICES, size=4, replace=False), rng.random(4))
           for _ in range(N_QUERIES - 1)]
    return out + [(np.arange(N_VERTICES), 1.0)]  # uniform column converges early


def run(out_path: str) -> None:
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from hipporag_ray.algos.iterate import (
        connected_components,
        coreness,
        label_propagation,
        pagerank,
        personalized_pagerank,
    )
    from hipporag_ray.state.csr import ShardedGraph

    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    try:
        DataContext.get_current().enable_progress_bars = False
        arrays: dict[str, np.ndarray] = {}
        with tempfile.TemporaryDirectory() as tmp:
            adj = os.path.join(tmp, "adj")
            write_adjacency(adj)
            resets = list_resets()
            rng = np.random.default_rng(13)
            vid = rng.integers(0, N_VERTICES, 40)
            reset_ds = rd.from_arrow(
                pa.table(
                    {
                        "vid": vid,
                        "query_idx": np.repeat(np.arange(N_QUERIES - 1), 8),
                        "weight": rng.random(40),
                    }
                )
            ).repartition(3)
            for precise in (True, False):
                for p, k, suffix in POOLS:
                    key = f"{'precise' if precise else 'f32'}_p{p}{suffix}"
                    sg = ShardedGraph(
                        adj, N_VERTICES, n_shards=p, hub_min_degree=64,
                        msg_chunks=k, precise=precise,
                    )
                    try:
                        arrays[f"{key}_n_hubs"] = np.array([len(sg.hubs)])
                        s, m = personalized_pagerank(sg, resets=resets, n_queries=N_QUERIES)
                        arrays[f"{key}_ppr_list"] = s
                        arrays[f"{key}_ppr_list_active"] = np.array(
                            [r["active_queries"] for r in m]
                        )
                        s, m = personalized_pagerank(
                            sg, reset_dataset=reset_ds, n_queries=N_QUERIES - 1
                        )
                        arrays[f"{key}_ppr_dataset"] = s
                        arrays[f"{key}_ppr_dataset_active"] = np.array(
                            [r["active_queries"] for r in m]
                        )
                        arrays[f"{key}_pagerank"] = pagerank(sg)[0]
                        arrays[f"{key}_cc"] = connected_components(sg)[0]
                        arrays[f"{key}_lp"] = label_propagation(sg)[0]
                        arrays[f"{key}_coreness"] = coreness(sg)[0]
                        if precise and p == SHARD_COUNTS[0] and k == 2:
                            ck = os.path.join(tmp, "ck")
                            s, _ = personalized_pagerank(
                                sg, resets=resets, n_queries=N_QUERIES,
                                checkpoint_dir=ck, checkpoint_every=3,
                            )
                            arrays["ckpt_ppr"] = s
                            with open(os.path.join(ck, "manifest.json")) as f:
                                iters = json.load(f)["iters"]
                            arrays["ckpt_iters"] = np.array([e["iter"] for e in iters])
                            arrays["ckpt_active_len"] = np.array(
                                [len(e["active"]) for e in iters]
                            )
                            arrays["ckpt_active"] = np.array(
                                [q for e in iters for q in e["active"]], dtype=np.int64
                            )
                    finally:
                        sg.shutdown()
        np.savez(out_path, **arrays)
        print(f"wrote {len(arrays)} arrays to {out_path}")
    finally:
        ray.shutdown()


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    bad = sorted(set(a.files) ^ set(b.files))
    for k in bad:
        print(f"only in one file: {k}")
    for k in sorted(set(a.files) & set(b.files)):
        x, y = a[k], b[k]
        if x.dtype != y.dtype or x.shape != y.shape or not np.array_equal(x, y):
            print(f"differs: {k} ({x.dtype}{x.shape} vs {y.dtype}{y.shape})")
            bad.append(k)
    print(f"{len(a.files)} vs {len(b.files)} arrays, {len(bad)} differences")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the algorithms and write this .npz")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two .npz")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    run(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
