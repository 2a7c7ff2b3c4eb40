"""One-core link-graph benchmark for hipporag_ray.

    python3 perfbench/run.py --workload etl_build --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client in one process drives a
closed loop (each call starts when the previous one returns) against
a Ray session of its own at ``num_cpus`` = the CPUs this process may
use.  Inputs are generated from ``--seed``; every output is checked
against the generated input or ``hipporag_ray.algos.oracle`` outside
the timed region.  The last stdout line is the result object; the line
before it records the environment and the counts that must repeat for
a seed.  ``--trace 1`` records spans around the calls into each
package layer and reports the per-layer metrics instead of the
end-to-end ones.  perfbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from checks import array_mismatch, expected_graph_counts, topk_mismatch  # noqa: E402
from harness import (  # noqa: E402
    Ledger,
    TreeMemorySampler,
    Tracer,
    cpu_times,
    duration,
    env_record,
    kill_tree,
    loadavg,
    median,
    self_time,
    steal_share,
    tail_percentile,
)

RUN_LIMIT_S = 170.0  # hard stop for the whole run
OP_TIMEOUT_S = 60.0  # an op slower than this counts as failed
SETUP_REPS = 3  # set-up is repeated and its median reported
OBJECT_STORE_BYTES = 768 * 2**20
# Ray builds unix socket paths under its temp dir; AF_UNIX caps them
# at 107 bytes and the session suffix takes up to 64 of those
RAY_TMP_MAX_LEN = 43

# --- inputs (synth.write_transcripts arguments; the seed is added) ---
GRAPH_INPUT = dict(n_convs=600, turns_per_conv=10, vocab=3000,
                   entities_per_turn=12, zipf_a=1.3, shards=8)
SERVE_INITIAL = dict(n_convs=100, turns_per_conv=10, vocab=2000,
                     entities_per_turn=8, zipf_a=1.3, shards=1)
SERVE_STEP_TURNS = 200  # turns per incremental index()
SERVE_STEPS = 12  # increments generated (more than a run can use)
SERVE_RETRIEVES_PER_WRITE = 10
PPR_QUERIES = 128
PPR_SEEDS_PER_QUERY = 8
PPR_RESET_BATCHES = 3  # distinct 128-query batches, used in turn
PPR_CHECKED_QUERIES = 4  # per batch, compared against ppr_oracle
RETRIEVE_QUERIES = 32
TOP_K = 10
CC_PER_ROUND = 3  # CC is ~20x cheaper than the other calls


class Run:
    """State of one benchmark run."""

    def __init__(self, args, tmp: str):
        import numpy as np

        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = tmp
        self.tracer = Tracer(False)
        self.ledger = Ledger(OP_TIMEOUT_S)
        self.rng = np.random.default_rng(args.seed)
        self.counts: dict = {}  # must repeat exactly for a seed
        self.e2e: dict = {}
        self.layer: dict = {}
        self.phase_s: dict = {}  # untimed phases, for the environment record

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def expired(self, t_end: float) -> bool:
        return time.perf_counter() >= t_end

    def traced(self, i: int) -> bool:
        """Trace runs alternate traced and untraced calls, so the same
        run measures the tracing overhead; untraced runs trace nothing."""
        self.tracer.enabled = self.trace and i % 2 == 0
        return self.tracer.enabled

    def repeat(self, key: str, value) -> None:
        """Record a count that must be identical every time it is seen."""
        first = self.counts.setdefault(key, value)
        if first != value:
            raise AssertionError(f"{key}: {value} differs from the first reading {first}")

    def overhead(self, kind: str) -> None:
        on = [r["s"] for r in self.ledger.ops if r["kind"] == kind and r["ok"] and r.get("traced")]
        off = [r["s"] for r in self.ledger.ops if r["kind"] == kind and r["ok"] and not r.get("traced")]
        if on and off:
            self.layer["trace_overhead_ratio"] = median(on) / median(off)


def op(run: Run, kind: str, fn, *args, traced: bool = False):
    rec, out = run.ledger.run(kind, fn, *args)
    rec["traced"] = traced
    return rec, out


def checked(run: Run, rec, fn, *args) -> None:
    """Apply a check to an op's output; a raised check marks the op failed."""
    if not rec["ok"]:
        return
    try:
        why = fn(*args)
    except Exception as e:  # boundary: a failed check is an op failure
        why = f"{type(e).__name__}: {e}"
    if why:
        run.ledger.fail(rec, why)


# ---------------------------------------------------------------------------
# layer spans (trace runs only)
# ---------------------------------------------------------------------------


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the package's stage entry points with spans.  The wrappers
    pass straight through while the tracer is disabled.  While enabled,
    the int-key-sum exchange's input is materialized first, so the
    edge-partial map and the exchange are timed apart."""
    from hipporag_ray.stages import graph_build, shuffle

    def wrap(mod, name, span_name, rows_out=False):
        orig = getattr(mod, name)

        def traced(*a, **kw):
            if not tracer.enabled:
                return orig(*a, **kw)
            with tracer.span(span_name) as sp:
                out = orig(*a, **kw)
                if rows_out:
                    sp["rows_out"] = out.count()
            return out

        setattr(mod, name, traced)

    orig_iks = shuffle.int_key_sum

    def int_key_sum(ds, *a, **kw):
        if not tracer.enabled:
            return orig_iks(ds, *a, **kw)
        with tracer.span("graph_build.edge_partials") as sp:
            ds = ds.materialize()
            sp["rows_out"] = rows_in = ds.count()
        with tracer.span("shuffle.int_key_sum") as sp:
            out = orig_iks(ds, *a, **kw)
            sp["rows_in"], sp["rows_out"] = rows_in, out.count()
        return out

    shuffle.int_key_sum = int_key_sum
    wrap(shuffle, "hash_distinct", "shuffle.hash_distinct", rows_out=True)
    wrap(shuffle, "range_sort", "shuffle.range_sort")
    wrap(graph_build, "dedup_chunks", "graph_build.dedup_chunks", rows_out=True)
    wrap(graph_build, "assign_dense_ids", "graph_build.assign_dense_ids")


class ObjectStorePeak:
    """Samples Ray's free object-store memory while open; ``peak_mb``
    is total minus the least seen free."""

    def __init__(self, enabled: bool, every_s: float = 0.05):
        self.enabled = enabled
        self.every_s = every_s
        self.peak_mb = 0.0

    def __enter__(self):
        if self.enabled:
            import ray

            self._total = float(ray.cluster_resources().get("object_store_memory", 0.0))
            self._min = self._total
            self._stop = threading.Event()

            def loop():
                while not self._stop.is_set():
                    # a fully used resource is left out of the map
                    free = float(ray.available_resources().get("object_store_memory", 0.0))
                    self._min = min(self._min, free)
                    self._stop.wait(self.every_s)

            self._thread = threading.Thread(target=loop, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self.enabled:
            self._stop.set()
            self._thread.join(timeout=5)
            self.peak_mb = (self._total - self._min) / 2**20


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------


def write_input(run: Run, name: str, spec: dict, seed: int) -> str:
    from hipporag_ray.synth import write_transcripts

    return write_transcripts(run.path(name), seed=seed, **spec)


def input_texts(path: str) -> list[str]:
    import pyarrow.parquet as pq

    return pq.read_table(path, columns=["text"])["text"].to_pylist()


def build(run: Run, tx_dir: str, out_dir: str):
    """read_transcripts -> build_graph, spanned at both calls."""
    from hipporag_ray.sources.readers import read_transcripts
    from hipporag_ray.stages.graph_build import build_graph

    shutil.rmtree(out_dir, ignore_errors=True)
    with run.tracer.span("sources.read_transcripts"):
        ds = read_transcripts(tx_dir, columns=["text"])
    with run.tracer.span("graph_build.build_graph"):
        return build_graph(ds, out_dir)


def check_graph(g, want: dict):
    import pyarrow.parquet as pq

    if (g.n_vertices, g.n_edges) != (want["n_vertices"], want["n_edges"]):
        return (f"graph has {g.n_vertices} vertices / {g.n_edges} edges, input gives "
                f"{want['n_vertices']} / {want['n_edges']}")
    adj = sum(pq.ParquetFile(os.path.join(g.adj_path, f)).metadata.num_rows
              for f in os.listdir(g.adj_path) if f.endswith(".parquet"))
    if adj != 2 * g.n_edges:
        return f"adj table has {adj} records, expected 2 x {g.n_edges}"
    return None


def graph_layer_metrics(run: Run) -> None:
    """graph_build / shuffle / sources metrics from the traced builds."""
    t = run.tracer
    reads = t.named("sources.read_transcripts")
    if reads:
        run.layer["sources.read_transcripts_s"] = median(duration(s) for s in reads)
    builds = t.named("graph_build.build_graph")
    if not builds:
        return
    per = {k: [] for k in ("dedup", "vdict", "partials", "iks", "hd", "ratio",
                           "chunk_rows", "partial_rows", "combine", "self")}
    for b in builds:
        kids = t.children(b)
        by = lambda n: [k for k in kids if k["name"] == n]  # noqa: E731
        per["dedup"] += [duration(k) for k in by("graph_build.dedup_chunks")]
        per["chunk_rows"] += [k["rows_out"] for k in by("graph_build.dedup_chunks")]
        per["vdict"].append(sum(duration(k) for k in by("shuffle.hash_distinct"))
                            + sum(duration(k) for k in by("graph_build.assign_dense_ids")))
        per["partials"] += [duration(k) for k in by("graph_build.edge_partials")]
        per["partial_rows"] += [k["rows_out"] for k in by("graph_build.edge_partials")]
        for k in by("shuffle.int_key_sum"):
            per["iks"].append(duration(k))
            per["combine"].append(k["rows_out"] / k["rows_in"] if k["rows_in"] else 0.0)
        per["ratio"].append(sum(duration(k) for k in kids) / duration(b))
        per["self"].append(self_time(t, b))
    per["hd"] = [duration(s) for s in t.named("shuffle.hash_distinct")]
    run.layer.update({
        "graph_build.build_graph_s": median(duration(b) for b in builds),
        "graph_build.dedup_chunks_s": median(per["dedup"]),
        "graph_build.chunk_rows": median(per["chunk_rows"]),
        "graph_build.vertex_dict_s": median(per["vdict"]),
        "graph_build.edge_partials_s": median(per["partials"]),
        "graph_build.edge_partial_rows": median(per["partial_rows"]),
        "graph_build.stage_sum_ratio": median(per["ratio"]),
        "graph_build.build_graph_self_s": median(per["self"]),
        "shuffle.hash_distinct_s": median(per["hd"]),
        "shuffle.int_key_sum_s": median(per["iks"]),
        "shuffle.int_key_sum_combine_ratio": median(per["combine"]),
    })


# ---------------------------------------------------------------------------
# workload: etl_build
# ---------------------------------------------------------------------------


def etl_build(run: Run) -> None:
    """Repeated build_graph over one seeded transcript set."""
    from hipporag_ray.sources.readers import read_transcripts

    def prepare(i):
        d = write_input(run, f"tx{i}", GRAPH_INPUT, run.seed)
        read_transcripts(d, columns=["text"]).count()
        return d

    setups = [op(run, "setup", prepare, i) for i in range(SETUP_REPS)]
    if not all(rec["ok"] for rec, _ in setups):
        return
    run.e2e["setup_s"] = median(rec["s"] for rec, _ in setups)
    tx_dir = setups[-1][1]
    for i in range(SETUP_REPS - 1):
        shutil.rmtree(run.path(f"tx{i}"), ignore_errors=True)
    want = expected_graph_counts(input_texts(tx_dir))
    store_peaks = []

    def one(kind, traced, i):
        with ObjectStorePeak(traced) as osp:
            rec, g = op(run, kind, build, run, tx_dir, run.path(f"g{i % 2}"), traced=traced)
        if traced:
            store_peaks.append(osp.peak_mb)
        checked(run, rec, check_graph, g, want)
        if g is not None:
            checked(run, rec, run.repeat, "n_vertices", g.n_vertices)
            checked(run, rec, run.repeat, "n_edges", g.n_edges)

    one("warmup", False, 1)  # first build spawns the task workers
    t_end = time.perf_counter() + run.seconds
    i = 0
    while not run.expired(t_end):
        one("build", run.traced(i), i)
        i += 1
    run.tracer.enabled = False

    build_s = median(run.ledger.times("build"))
    run.e2e["call_p50_s"] = build_s
    run.e2e["round_s"] = build_s  # one round is one build
    graph_layer_metrics(run)
    run.layer["graph_build.object_store_peak_mb"] = median(store_peaks)
    run.layer["graph_build.n_vertices"] = run.counts.get("n_vertices", 0)
    run.layer["graph_build.n_edges"] = run.counts.get("n_edges", 0)
    run.overhead("build")


# ---------------------------------------------------------------------------
# workload: graph_analytics
# ---------------------------------------------------------------------------


def edge_arrays(g):
    import numpy as np
    import pyarrow.parquet as pq

    e = pq.read_table(g.edges_path, columns=["src", "dst", "weight"])
    return (e["src"].to_numpy().astype(np.int64), e["dst"].to_numpy().astype(np.int64),
            e["weight"].to_numpy().astype(np.float64))


def chunk_vids(g):
    import numpy as np
    import pyarrow.parquet as pq

    v = pq.read_table(g.vertices_path, columns=["vid", "kind"]).to_pandas()
    return np.sort(v.loc[v["kind"] == "chunk", "vid"].to_numpy(np.int64))


def load_shards(run: Run, g):
    import ray
    from hipporag_ray.state.csr import ShardedGraph

    with run.tracer.span("csr.shard_load"):
        sg = ShardedGraph(g.adj_path, g.n_vertices)
        ray.get([a.load_kinds.remote(g.vertices_path) for a in sg.actors])
    return sg


def readback(sg, what: str):
    import numpy as np
    import ray

    if what == "scores":
        return np.vstack(ray.get([a.scores_matrix.remote() for a in sg.actors]))
    tables = ray.get([a.labels_table.remote(what) for a in sg.actors])
    return np.concatenate([t[what].to_numpy() for t in tables])


def ppr_call(run: Run, sg, resets):
    """128-query PPR: seeds in -> per-shard top-k -> driver merge."""
    import numpy as np
    import ray
    from hipporag_ray.algos.iterate import personalized_pagerank

    b = len(resets)
    _, m = personalized_pagerank(sg, resets=resets, n_queries=b, collect=False)
    with run.tracer.span("csr.topk"):
        parts = ray.get([a.topk_chunk_scores_batch.remote(np.arange(b), TOP_K) for a in sg.actors])
    q = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    s = np.concatenate([p[2] for p in parts])
    tops = []
    for qi in range(b):
        sel = q == qi
        order = np.lexsort((v[sel], -s[sel]))[:TOP_K]
        tops.append((v[sel][order], s[sel][order]))
    return m, tops


def graph_analytics(run: Run) -> None:
    """One seeded graph, sharded once; a closed loop of analytics calls."""
    import numpy as np
    from hipporag_ray.algos import oracle
    from hipporag_ray.algos.iterate import (
        connected_components,
        label_propagation,
        pagerank,
    )
    from hipporag_ray.algos.triangles import triangle_count

    tx_dir = write_input(run, "tx", GRAPH_INPUT, run.seed)
    run.tracer.enabled = run.trace
    with ObjectStorePeak(run.trace) as osp:
        rec, g = op(run, "prepare", build, run, tx_dir, run.path("g"))
    run.tracer.enabled = False
    if g is None:
        return
    checked(run, rec, check_graph, g, expected_graph_counts(input_texts(tx_dir)))
    run.layer.update({"graph_build.object_store_peak_mb": osp.peak_mb,
                      "graph_build.n_vertices": g.n_vertices,
                      "graph_build.n_edges": g.n_edges})

    sg = None
    loads = []
    try:
        for _ in range(SETUP_REPS):
            if sg is not None:
                sg.shutdown()
            run.tracer.enabled = run.trace
            rec, sg = op(run, "setup", load_shards, run, g)
            run.tracer.enabled = False
            loads.append(rec)
            if sg is None:
                return
        run.e2e["setup_s"] = median(r["s"] for r in loads)

        # --- oracles: once per input, never from engine output ---
        t_oracles = time.perf_counter()
        n = g.n_vertices
        src, dst, w = edge_arrays(g)
        chunks = chunk_vids(g)
        want = {
            "scores": oracle.pagerank_oracle(n, src, dst, w),
            "component": oracle.cc_oracle(n, src, dst),
            "label": oracle.lp_oracle(n, src, dst, w),
            "triangles": oracle.triangles_oracle(n, src, dst),
        }
        batches = []
        for _ in range(PPR_RESET_BATCHES):
            resets = [(run.rng.choice(n, size=PPR_SEEDS_PER_QUERY, replace=False),
                       np.ones(PPR_SEEDS_PER_QUERY)) for _ in range(PPR_QUERIES)]
            expect = {}
            for qi in run.rng.choice(PPR_QUERIES, size=PPR_CHECKED_QUERIES, replace=False):
                reset = np.zeros(n)
                reset[resets[qi][0]] = resets[qi][1]
                expect[int(qi)] = oracle.ppr_oracle(n, src, dst, w, reset=reset)
            batches.append((resets, expect))
        run.phase_s["oracles"] = time.perf_counter() - t_oracles

        def check_ppr(bi, out):
            m, tops = out
            run.repeat(f"ppr_iters[{bi}]", len(m))
            run.repeat(f"ppr_edge_traversals[{bi}]", sum(r["edge_records_scanned"] for r in m))
            for qi, scores in batches[bi][1].items():
                why = topk_mismatch(tops[qi][0], tops[qi][1], scores, chunks, TOP_K)
                if why:
                    return f"PPR batch {bi} query {qi}: {why}"
            return None

        def check_iterative(kind, col, out):
            run.repeat(f"{kind}_iters", len(out[1]))
            got = readback(sg, col)
            if col == "scores":
                return array_mismatch(got[:, 0], want[col], kind, atol=1e-6)
            return array_mismatch(got, want[col], kind)

        def check_triangles(out):
            total, per = out
            run.repeat("triangles", int(total))
            want_total, want_per = want["triangles"]
            if int(total) != want_total:
                return f"triangle total {total} != oracle {want_total}"
            return array_mismatch(per, want_per, "per-vertex triangles")

        def iterative(kind, fn, col):
            return (kind, lambda: fn(sg, collect=False), lambda out: out[1],
                    lambda out: check_iterative(kind, col, out))

        t_end = time.perf_counter() + run.seconds
        r = 0
        while not run.expired(t_end):
            traced = run.traced(r)
            bi = r % PPR_RESET_BATCHES
            plan = [
                ("ppr", lambda: ppr_call(run, sg, batches[bi][0]), lambda out: out[0],
                 lambda out: check_ppr(bi, out)),
                iterative("pagerank", pagerank, "scores"),
                *[iterative("cc", connected_components, "component")] * CC_PER_ROUND,
                iterative("lp", label_propagation, "label"),
                ("triangles", lambda: triangle_count(g.edges(), n), lambda out: None,
                 check_triangles),
            ]
            for kind, call, iters_of, check in plan:
                if r > 0 and run.expired(t_end):
                    break
                if traced and kind == "ppr":
                    shard_perf(sg)  # zero the shard timers
                with run.tracer.span(f"op.{kind}", run.tracer.new_request()) as sp:
                    rec, out = op(run, kind, call, traced=traced)
                if out is None:
                    continue
                rec["iters"] = iters_of(out)
                if sp is not None:
                    rec["topk_s"] = sum(duration(c) for c in run.tracer.children(sp)
                                        if c["name"] == "csr.topk")
                    if kind == "ppr":
                        rec["perf"] = shard_perf(sg)
                checked(run, rec, check, out)
            r += 1
        run.tracer.enabled = False
        analytics_metrics(run, sg)
    finally:
        if sg is not None:
            sg.shutdown()


def shard_perf(sg) -> list[dict]:
    """Per-shard phase timers since the last read (reading zeroes them)."""
    import ray

    return ray.get([a.perf_counters.remote() for a in sg.actors])


def analytics_metrics(run: Run, sg) -> None:
    per_round = {"ppr": 1, "pagerank": 1, "cc": CC_PER_ROUND, "lp": 1, "triangles": 1}
    med = {k: median(run.ledger.times(k)) for k in per_round}
    run.e2e["call_p50_s"] = med["ppr"]
    run.e2e["round_s"] = sum(med[k] * c for k, c in per_round.items())
    L = run.layer
    L.update({
        "iterate.ppr_call_s": med["ppr"],
        "iterate.pagerank_s": med["pagerank"],
        "iterate.cc_s": med["cc"],
        "iterate.lp_s": med["lp"],
        "triangles.triangle_count_s": med["triangles"],
        "triangles.count": run.counts.get("triangles", 0),
        "csr.n_shards": sg.n_shards,
        "csr.edge_records": sg.edge_count,
        "csr.shard_load_s": median(duration(s) for s in run.tracer.named("csr.shard_load")),
    })
    graph_layer_metrics(run)

    def traced_ok(kind):
        return [r for r in run.ledger.ops if r["kind"] == kind and r["ok"] and r.get("traced")]

    ppr = traced_ok("ppr")
    if ppr:
        loop = [sum(x["wall_s"] for x in r["iters"]) for r in ppr]
        edges = [sum(x["edge_records_scanned"] for x in r["iters"]) for r in ppr]
        calls = [r["s"] for r in ppr]

        def shard_sum(key):
            return [sum(p[key] for p in r["perf"]) for r in ppr]

        skew = []
        for r in ppr:
            steps = [p["step_s"] for p in r["perf"]]
            skew.append(max(steps) * len(steps) / sum(steps) if sum(steps) else 0.0)
        L.update({
            "iterate.ppr_loop_s": median(loop),
            "iterate.ppr_outside_loop_s": median(
                c - lp - r["topk_s"] for c, lp, r in zip(calls, loop, ppr)),
            "csr.topk_s": median(r["topk_s"] for r in ppr),
            "iterate.ppr_iters": median(len(r["iters"]) for r in ppr),
            "iterate.ppr_edge_traversals": median(edges),
            "iterate.ppr_wave_edges_per_s": median(e / x for e, x in zip(edges, loop) if x),
            "iterate.ppr_call_edges_per_s": median(e / x for e, x in zip(edges, calls) if x),
            "csr.ppr.kernel_s": median(shard_sum("kernel_s")),
            "csr.ppr.kernel_cpu_s": median(shard_sum("kernel_cpu_s")),
            "csr.ppr.contrib_s": median(shard_sum("contrib_s")),
            "csr.ppr.step_s": median(shard_sum("step_s")),
            "csr.ppr.steps": median(shard_sum("steps")),
            "csr.ppr.step_skew": median(skew),
            "iterate.ppr_driver_wait_s": median(
                lp - max(p["step_s"] + p["contrib_s"] for p in r["perf"])
                for lp, r in zip(loop, ppr)),
        })
    for kind in ("pagerank", "cc", "lp"):
        recs = traced_ok(kind)
        if recs:
            L[f"iterate.{kind}_iters"] = median(len(r["iters"]) for r in recs)
            L[f"iterate.{kind}_iter_s"] = median(x["wall_s"] for r in recs for x in r["iters"])
            L[f"iterate.{kind}_outside_loop_s"] = median(
                r["s"] - sum(x["wall_s"] for x in r["iters"]) for r in recs)
    run.overhead("ppr")


# ---------------------------------------------------------------------------
# workload: serve_mixed
# ---------------------------------------------------------------------------


def serve_mixed(run: Run) -> None:
    """HippoRagEngine: 32-query retrieves with incremental index() writes
    in between."""
    from hipporag_ray.pipelines.retrieval import HippoRagEngine
    from hipporag_ray.sources.readers import read_transcripts

    from checks import entity_tokens

    init_dir = write_input(run, "tx0", SERVE_INITIAL, run.seed)
    steps_dir = write_input(run, "txs", dict(
        SERVE_INITIAL, n_convs=SERVE_STEPS * SERVE_STEP_TURNS // SERVE_INITIAL["turns_per_conv"],
        shards=SERVE_STEPS), run.seed + 1)
    steps = sorted(os.path.join(steps_dir, f) for f in os.listdir(steps_dir)
                   if f.endswith(".parquet"))

    indexed: list[str] = []  # distinct turn texts indexed so far, in order
    indexed_set: set[str] = set()
    entities: set[str] = set()

    def expect_index(texts):
        new = [t for t in dict.fromkeys(texts) if t not in indexed_set]
        new_ents = set().union(*(entity_tokens(t) for t in new)) - entities if new else set()
        graph = expected_graph_counts(indexed + new)
        return new, new_ents, graph

    def check_index(stats, expected):
        new, new_ents, graph = expected
        got = (stats["new_chunks"], stats["new_entities"], stats["n_vertices"], stats["n_edges"])
        want = (len(new), len(new_ents), graph["n_vertices"], graph["n_edges"])
        if got != want:
            return f"index() reports (chunks, entities, vertices, edges) = {got}, input gives {want}"
        return None

    def commit(expected):
        new, new_ents, _ = expected
        indexed.extend(new)
        indexed_set.update(new)
        entities.update(new_ents)

    def index(eng, path):
        with run.tracer.span("sources.read_transcripts"):
            ds = read_transcripts(path)
        with run.tracer.span("retrieval.index"):
            return eng.index(ds)

    def fresh_engine(i):
        eng = HippoRagEngine.from_config(run.path(f"eng{i}"))
        try:
            return eng, index(eng, init_dir)
        except Exception:
            eng.close()
            raise

    init_expected = expect_index(input_texts(init_dir))
    eng = None
    setups = []
    try:
        for i in range(SETUP_REPS):
            if eng is not None:
                eng.close()
                shutil.rmtree(run.path(f"eng{i - 1}"), ignore_errors=True)
            run.tracer.enabled = run.trace
            rec, out = op(run, "setup", fresh_engine, i)
            run.tracer.enabled = False
            setups.append(rec)
            if out is None:
                return
            eng, stats = out
            checked(run, rec, check_index, stats, init_expected)
        run.e2e["setup_s"] = median(r["s"] for r in setups)
        commit(init_expected)

        def check_retrieve(out, queries):
            res, _timers = out
            if len(res) != len(queries):
                return f"{len(res)} results for {len(queries)} queries"
            want_k = min(TOP_K, len(indexed))
            for r, q in zip(res, queries):
                docs, scores = r["docs"], r["doc_scores"]
                if r["question"] != q or r["mode"] not in ("ppr", "dpr_fallback"):
                    return "result does not answer its query"
                if len(docs) != want_k or len(set(docs)) != len(docs):
                    return f"{len(docs)} docs ({len(set(docs))} distinct), expected {want_k}"
                if not indexed_set.issuperset(docs):
                    return "a returned doc is not an indexed turn"
                if any(a < b for a, b in zip(scores, scores[1:])):
                    return "doc scores are not in descending order"
            return None

        def retrieve(kind, traced):
            pick = run.rng.choice(len(indexed), size=RETRIEVE_QUERIES, replace=False)
            queries = [indexed[i] for i in pick]

            def call():
                with run.tracer.span("retrieval.retrieve", run.tracer.new_request()):
                    res = eng.retrieve(queries, top_k=TOP_K)
                return res, dict(eng.timers)

            rec, out = op(run, kind, call, traced=traced)
            if out is not None:
                rec["timers"] = out[1]
                rec["ppr_queries"] = sum(1 for x in out[0] if x["mode"] == "ppr")
                checked(run, rec, check_retrieve, out, queries)

        retrieve("warmup", False)  # the first retrieve spawns the link and shard pools
        t_end = time.perf_counter() + run.seconds
        for c, path in enumerate(steps):
            for j in range(SERVE_RETRIEVES_PER_WRITE):
                if run.expired(t_end):
                    break
                # alternate within a cycle and flip each cycle, so the
                # first retrieve after a write is traced every other time
                retrieve("retrieve", run.traced(j + c))
            if run.expired(t_end):
                break
            run.tracer.enabled = run.trace
            expected = expect_index(input_texts(path))
            rec, stats = op(run, "index", index, eng, path, traced=run.trace)
            if stats is not None:
                rec["stats"] = stats
                checked(run, rec, check_index, stats, expected)
            commit(expected)
            retrieve("fresh", run.trace)
        run.tracer.enabled = False
    finally:
        if eng is not None:
            eng.close()
    serve_metrics(run)


def serve_metrics(run: Run) -> None:
    ret, fresh, idx = (run.ledger.times(k) for k in ("retrieve", "fresh", "index"))
    run.e2e["call_p50_s"] = median(ret)
    run.e2e["round_s"] = median(fresh) + SERVE_RETRIEVES_PER_WRITE * median(ret) + median(idx)
    L = run.layer
    tail = tail_percentile(ret)
    steady = [r for r in run.ledger.ops if r["kind"] == "retrieve" and r["ok"]]
    writes = [r for r in run.ledger.ops if r["kind"] == "index" and r["ok"]]
    reads = run.tracer.named("sources.read_transcripts")
    L.update({
        "retrieval.retrieve_p50_s": median(ret),
        "retrieval.retrieve_samples": len(ret),
        "retrieval.fresh_retrieve_s": median(fresh),
        "retrieval.fresh_minus_steady_s": median(fresh) - median(ret),
        "retrieval.index_inc_s": median(idx),
        "sources.read_transcripts_s": median(duration(s) for s in reads),
    })
    if tail is not None:
        L["retrieval.retrieve_tail_s"], L["retrieval.retrieve_tail_pct"], _ = tail
    if steady:
        t = [r["timers"] for r in steady]
        L.update({
            "retrieval.linking_s": median(x["linking_time"] for x in t),
            "retrieval.ppr_s": median(x["ppr_time"] for x in t),
            "retrieval.rank_s": median(
                x["all_retrieval_time"] - x["linking_time"] - x["ppr_time"] for x in t),
            "retrieval.ppr_query_ratio": sum(r["ppr_queries"] for r in steady)
            / (RETRIEVE_QUERIES * len(steady)),
        })
    if writes:
        L.update({
            "retrieval.index_new_chunks": median(r["stats"]["new_chunks"] for r in writes),
            "retrieval.index_new_entities": median(r["stats"]["new_entities"] for r in writes),
            "retrieval.n_edges": writes[-1]["stats"]["n_edges"],
        })
    hd = run.tracer.named("shuffle.hash_distinct")
    iks = run.tracer.named("shuffle.int_key_sum")
    if hd:
        L["shuffle.hash_distinct_s"] = median(duration(s) for s in hd)
    if iks:
        L["shuffle.int_key_sum_s"] = median(duration(s) for s in iks)
        L["shuffle.int_key_sum_combine_ratio"] = median(
            s["rows_out"] / s["rows_in"] for s in iks if s["rows_in"])
    run.overhead("retrieve")


WORKLOADS = {
    "etl_build": etl_build,
    "graph_analytics": graph_analytics,
    "serve_mixed": serve_mixed,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def metric_specs() -> tuple[list[dict], list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def make_tmp() -> tuple[str, str]:
    """A fresh scratch dir inside the checkout, and a Ray temp dir short
    enough for Ray's socket paths (outside the checkout only when the
    checkout path itself is too long)."""
    base = os.path.join(ROOT, ".pbt")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="", dir=base)
    ray_tmp = os.path.join(tmp, "r")
    if len(ray_tmp) > RAY_TMP_MAX_LEN:
        ray_tmp = tempfile.mkdtemp(prefix="pb")
    os.makedirs(ray_tmp, exist_ok=True)
    return tmp, ray_tmp


def start_watchdog(tmp_dirs) -> None:
    """Kill the run (and every process it started) past RUN_LIMIT_S."""

    def fire():
        print(f"[perfbench] run exceeded {RUN_LIMIT_S:.0f} s; stopping", file=sys.stderr,
              flush=True)
        kill_tree()
        for d in tmp_dirs:
            shutil.rmtree(d, ignore_errors=True)
        os._exit(3)

    t = threading.Timer(RUN_LIMIT_S, fire)
    t.daemon = True
    t.start()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "hipporag_ray", "__init__.py")):
        print(f"[perfbench] no hipporag_ray package under {ROOT}", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = metric_specs()
    tmp, ray_tmp = make_tmp()
    start_watchdog([tmp, ray_tmp])
    # Ray workers import the package from the checkout; every temp file
    # (including the compiled-kernel cache) stays in the scratch dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None  # drop the cached default so TMPDIR applies here too
    sys.path.insert(0, ROOT)

    import logging

    import ray
    from ray.data import DataContext

    run = Run(args, tmp)
    env = env_record(ROOT, args.seed, args.workload, ray.__version__)
    cpu_start = cpu_times()
    try:
        ray.init(address="local", num_cpus=env["nproc"], include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_tmp)
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        DataContext.get_current().enable_progress_bars = False
        if run.trace:
            install_layer_spans(run.tracer)
        with TreeMemorySampler() as mem:
            WORKLOADS[args.workload](run)
        run.e2e["peak_rss_mb"] = mem.peak_mb
    finally:
        ray.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    led = run.ledger
    run.e2e["success_rate"] = 1.0 - led.error_rate
    run.layer["error_rate"] = led.error_rate
    env["loadavg_end"] = loadavg()
    env["cpu_steal_share"] = steal_share(cpu_start, cpu_times())
    env["seconds"] = args.seconds
    env["phase_s"] = run.phase_s
    env["ops"] = {k: {"ok": len(led.times(k)), "p50_s": median(led.times(k))}
                  for k in dict.fromkeys(r["kind"] for r in led.ops)}
    print(json.dumps({"env": env, "counts": run.counts}))
    spec, values = (layer_spec, run.layer) if run.trace else (e2e_spec, run.e2e)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec}
    print(json.dumps({"correct": led.failed == 0, "attempted": led.attempted,
                      "failed": led.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
