"""Per-wave latency-floor probe (BASELINE.md scaling appendix).

The flagship PPR iteration is a wave: driver dispatches one pull RPC
per shard actor, the contributions are merged (by k zero-CPU
assemblers when the pool has k > 1 message chunks, inside each pull
when it has one), the driver folds the per-column convergence state.
On the sf0.1 graph at 32 CPUs the compiled kernel now accounts for
only ~40 ms of each wave, so the 8->32 scaling pair measures the
FIXED wave cost (dispatch + readback + assemble latency), not
edge-scan throughput.  This probe
measures that floor directly: a ~500-vertex graph (kernel ~= 0) run
through the identical wave machinery at the SAME shard fan-out the
flagship uses per CPU level (n_shards = 2 x CPUs), in fresh
affinity-pinned processes.

    python tools/wave_floor_probe.py            # parent: probes 8 and 32
    GRAFT_FLOOR_LEVELS=2,8 python tools/wave_floor_probe.py

Prints one JSON line per level: {num_cpus, n_shards, iters,
sec_per_wave, ...} plus a summary with the 8->32 floor ratio.
``sec_per_wave`` is the mean of a call's per-wave ``wall_s``; the first
wave's also holds the call's prologue (reset routing, ``ppr_init``,
normalization), which has no driver barrier before it.  The
floor is a single-box artifact class: on a real cluster the same
dispatch is one RPC per NODE-pool, amortized over hours of per-node
edge scan at the north rule's 10^12-turn scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def child(ncpu: int) -> None:
    os.sched_setaffinity(0, set(range(ncpu)))
    import numpy as np
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from hipporag_ray.algos.iterate import personalized_pagerank
    from hipporag_ray.pipelines.queries import sf_of  # noqa: F401 (parity import)
    from hipporag_ray.stages.graph_build import build_graph
    from hipporag_ray.state.csr import ShardedGraph
    from hipporag_ray.synth import write_transcripts

    # tiny input: vocab 220 -> a few hundred vertices, so the per-wave
    # kernel cost is negligible and wall/iter IS the dispatch floor
    tx_dir = write_transcripts(
        "/tmp/hipporag_ray/floor_tx",
        n_convs=50,
        turns_per_conv=10,
        vocab=220,
        entities_per_turn=16,
        seed=42,
        shards=8,
    )
    out_dir = f"/tmp/hipporag_ray/floor_graph_cpu{ncpu}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    g = build_graph(rd.read_parquet(tx_dir, columns=["text"]), out_dir)

    # force the flagship's shard fan-out for this CPU level (the
    # default would collapse a 500-vertex graph to 1 shard and probe
    # nothing): the production default rule min(2 x cpus, max(cpus,
    # 12)), min_shard_size=1 to allow the split
    sg = ShardedGraph(
        g.adj_path,
        g.n_vertices,
        n_shards=min(2 * ncpu, max(ncpu, 12)),
        min_shard_size=1,
    )
    try:
        rng = np.random.default_rng(42)
        B = 128
        k = min(8, g.n_vertices)
        resets = [
            (rng.choice(g.n_vertices, size=k, replace=False), np.ones(k))
            for _ in range(B)
        ]
        personalized_pagerank(sg, resets=resets, n_queries=B)  # warmup
        walls = []
        iters = 0
        t0 = time.perf_counter()
        for _ in range(5):
            _, m = personalized_pagerank(sg, resets=resets, n_queries=B)
            walls.append(sum(r["wall_s"] for r in m) / len(m))
            iters = len(m)
        total = time.perf_counter() - t0
        print(
            json.dumps(
                {
                    "num_cpus": ncpu,
                    "n_shards": sg.n_shards,
                    "n_vertices": g.n_vertices,
                    "adj_records": sg.edge_count,
                    "iters_per_run": iters,
                    "sec_per_wave": round(float(np.median(walls)), 5),
                    "sec_per_wave_reps": [round(w, 5) for w in walls],
                    "total_5rep_s": round(total, 3),
                }
            ),
            flush=True,
        )
    finally:
        sg.shutdown()
        ray.shutdown()


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        child(int(sys.argv[2]))
        return
    levels = [
        int(x)
        for x in os.environ.get("GRAFT_FLOOR_LEVELS", "8,32").split(",")
    ]
    results = []
    for lv in levels:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", str(lv)],
            capture_output=True,
            text=True,
            check=True,
        )
        line = [l for l in out.stdout.splitlines() if l.startswith("{")][-1]
        rec = json.loads(line)
        results.append(rec)
        print(line, flush=True)
    if len(results) >= 2:
        lo, hi = results[0], results[-1]
        print(
            json.dumps(
                {
                    "summary": "per-wave dispatch floor (kernel ~= 0)",
                    f"floor_{lo['num_cpus']}cpu_ms": round(
                        1e3 * lo["sec_per_wave"], 2
                    ),
                    f"floor_{hi['num_cpus']}cpu_ms": round(
                        1e3 * hi["sec_per_wave"], 2
                    ),
                    "floor_ratio_hi_over_lo": round(
                        hi["sec_per_wave"] / lo["sec_per_wave"], 3
                    ),
                }
            ),
            flush=True,
        )


if __name__ == "__main__":
    main()
