"""CLI entry point — the reference's ``main.py`` analog.

    python -m hipporag_ray build-graph --input TX_DIR --out GRAPH_DIR
    python -m hipporag_ray pagerank    --graph GRAPH_DIR --out OUT_DIR
    python -m hipporag_ray ppr         --graph GRAPH_DIR --seeds 1,2,3 --out OUT_DIR
    python -m hipporag_ray cc|lp       --graph GRAPH_DIR --out OUT_DIR
    python -m hipporag_ray triangles   --graph GRAPH_DIR
    python -m hipporag_ray index       --workdir DIR --input TX_DIR
    python -m hipporag_ray retrieve    --workdir DIR --query "..." [--top-k 10] [--dpr]
    python -m hipporag_ray delete      --workdir DIR --text "..." [--text ...]
    python -m hipporag_ray eval        --workdir DIR --samples F.jsonl [--dataset hotpotqa] [--top-k 10]
    python -m hipporag_ray query       [NAME] [--sf-dir DIR] [--out DIR]
    python -m hipporag_ray triples     --input TX_DIR --out OUT_DIR
    python -m hipporag_ray synth       --out DIR --convs 100 --turns 10 --vocab 300

Owns its Ray session (``--num-cpus``); algorithm outputs are written as
partitioned parquet under ``--out`` with per-iteration metrics when
``--checkpoint-every`` is set (pagerank, cc, lp).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _ray_session(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        # honor a cluster address (`ray job submit` sets RAY_ADDRESS in
        # the job environment); default to a fresh local session, the
        # sandbox / laptop mode every BASELINE.md number was measured in
        addr = os.environ.get("RAY_ADDRESS") or "local"
        if addr != "local" and num_cpus is not None:
            print(
                f"warning: --num-cpus={num_cpus} ignored — RAY_ADDRESS={addr} "
                "connects to an existing cluster",
                file=sys.stderr,
            )
        if addr == "local":
            ray.init(
                address="local",
                num_cpus=num_cpus,
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
        else:
            ray.init(address=addr, ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _write_labels(out: str, vids, values, col: str):
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out, exist_ok=True)
    pq.write_table(
        pa.table({"vid": pa.array(vids, type=pa.int64()), col: pa.array(values)}),
        os.path.join(out, "part-0.parquet"),
    )


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hipporag_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth")
    p.add_argument("--out", required=True)
    p.add_argument("--convs", type=int, default=100)
    p.add_argument("--turns", type=int, default=10)
    p.add_argument("--vocab", type=int, default=300)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("build-graph")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-token-len", type=int, default=3)
    p.add_argument("--edge-source", choices=["cooccur", "triples"], default="cooccur")
    p.add_argument(
        "--resumable",
        action="store_true",
        help="two-phase build: per-input-shard extraction partitions with "
        "lineage under OUT/chunks; a re-run skips finished shards",
    )

    p = sub.add_parser("triples")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-token-len", type=int, default=0)

    p = sub.add_parser("openie")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-token-len", type=int, default=3)

    for name in ("pagerank", "cc", "lp", "triangles"):
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True)
        p.add_argument("--out")
        if name != "triangles":
            p.add_argument("--checkpoint-every", type=int, default=0)

    p = sub.add_parser("ppr")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated vids")
    p.add_argument("--out")
    p.add_argument("--damping", type=float, default=0.5)

    p = sub.add_parser("index")
    p.add_argument("--workdir", required=True)
    p.add_argument("--input", required=True)

    p = sub.add_parser("retrieve")
    p.add_argument("--workdir", required=True)
    p.add_argument("--query", action="append", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--dpr", action="store_true", help="DPR-only baseline (StandardRAG)")

    p = sub.add_parser(
        "qa",
        help="rag_qa end-to-end (HippoRAG.py:451-523): retrieve + QA "
        "reading.  --reader echo is a deterministic built-in (answers "
        "with the top passage); real models plug in via "
        "HippoRagEngine(qa_llm_fn=...) in library use",
    )
    p.add_argument("--workdir", required=True)
    p.add_argument("--query", action="append", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--qa-top-k", type=int, default=5)
    p.add_argument("--reader", default="echo", choices=["echo"],
                   help="built-in deterministic reader")
    p.add_argument("--cache", default=None,
                   help="sqlite response-cache path (S7)")

    p = sub.add_parser("delete")
    p.add_argument("--workdir", required=True)
    p.add_argument("--text", action="append", required=True)

    p = sub.add_parser(
        "eval",
        help="retrieval evaluation over a JSONL sample file "
        "(main.py analog: retrieve per question, Recall@k vs gold docs; "
        "EM/F1 when samples carry predicted_answer)",
    )
    p.add_argument("--workdir", required=True)
    p.add_argument("--samples", required=True, help="JSONL with question/gold fields")
    p.add_argument("--dataset", default=None, help="hotpotqa|2wikimultihopqa|musique")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--dpr", action="store_true", help="DPR-only baseline")

    p = sub.add_parser(
        "query", help="run a catalog pipeline from queries() by name"
    )
    p.add_argument("name", nargs="?", default=None, help="omit to list names")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", default=None, help="write result parquet here")
    p.add_argument("--limit", type=int, default=10, help="rows to print")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.cmd == "synth":
        from hipporag_ray.synth import write_transcripts

        out = write_transcripts(
            args.out, n_convs=args.convs, turns_per_conv=args.turns,
            vocab=args.vocab, seed=args.seed,
        )
        print(json.dumps({"out": out, "turns": args.convs * args.turns}))
        return 0

    ray = _ray_session(args.num_cpus)
    try:
        if args.cmd == "build-graph":
            from hipporag_ray.stages.graph_build import (
                build_graph,
                build_graph_resumable,
            )

            if args.resumable:
                g, lineage = build_graph_resumable(
                    args.input,
                    args.out,
                    min_token_len=args.min_token_len,
                    edge_source=args.edge_source,
                )
                skipped = sum(1 for m in lineage if m["skipped"])
                print(
                    json.dumps(
                        {
                            "n_vertices": g.n_vertices,
                            "n_edges": g.n_edges,
                            "out": args.out,
                            "shards": len(lineage),
                            "shards_skipped": skipped,
                        }
                    )
                )
                return 0
            from hipporag_ray.sources.readers import read_transcripts

            g = build_graph(
                read_transcripts(args.input, columns=["text"]),
                args.out,
                args.min_token_len,
                edge_source=args.edge_source,
            )
            print(json.dumps({"n_vertices": g.n_vertices, "n_edges": g.n_edges, "out": args.out}))
            return 0

        if args.cmd == "index":
            from hipporag_ray.pipelines.retrieval import HippoRagEngine

            from hipporag_ray.sources.readers import read_transcripts

            eng = HippoRagEngine(args.workdir)
            # full rows (index persists the corpus batch as-is), but
            # schema-validated so a malformed input fails with a clear
            # error instead of deep inside tokenization
            stats = eng.index(read_transcripts(args.input))
            eng.close()
            print(json.dumps(stats))
            return 0

        if args.cmd == "retrieve":
            from hipporag_ray.pipelines.retrieval import HippoRagEngine

            eng = HippoRagEngine(args.workdir)
            if args.dpr:
                results = eng.dpr_retrieve(args.query, top_k=args.top_k)
            else:
                results = eng.retrieve(args.query, top_k=args.top_k)
            eng.close()
            print(json.dumps(results))
            return 0

        if args.cmd == "qa":
            from hipporag_ray.pipelines.retrieval import HippoRagEngine

            def echo_reader(messages, **gen):
                # deterministic built-in: answer = the top passage; an
                # empty retrieval leaves no "Wikipedia Title:" line in
                # the prompt, so degrade to an empty answer, not a crash
                user = messages[-1]["content"]
                parts = user.split("Wikipedia Title: ", 1)
                first = parts[1].split("\n")[0] if len(parts) > 1 else ""
                return "Reading the passages.\nAnswer: " + first, {
                    "finish_reason": "stop"
                }

            llm_fn = echo_reader
            if args.cache:
                from hipporag_ray.state.llm_cache import CachedLLM

                llm_fn = CachedLLM(echo_reader, args.cache, model="echo").infer
            eng = HippoRagEngine(args.workdir, qa_llm_fn=llm_fn)
            solutions, _responses, _meta = eng.rag_qa(
                args.query, top_k=args.top_k, qa_top_k=args.qa_top_k
            )
            eng.close()
            print(json.dumps(solutions))
            return 0

        if args.cmd == "delete":
            from hipporag_ray.pipelines.retrieval import HippoRagEngine

            eng = HippoRagEngine(args.workdir)
            stats = eng.delete(args.text)
            eng.close()
            print(json.dumps(stats))
            return 0

        if args.cmd == "eval":
            import ray.data as rd

            from hipporag_ray.pipelines.retrieval import HippoRagEngine
            from hipporag_ray.sources.readers import (
                get_gold_answers,
                get_gold_docs,
                read_samples_jsonl,
            )
            from hipporag_ray.stages.evalops import qa_scores, recall_at_k

            samples = read_samples_jsonl(args.samples, limit=args.limit)
            if not samples:
                print(json.dumps({"n_samples": 0, "top_k": args.top_k}))
                return 0
            questions = [s.get("question", "") for s in samples]
            # gold only when every sample carries a gold-doc shape;
            # extraction errors (e.g. a supporting_facts file without
            # --dataset) must stay LOUD — readers.py raises them
            # deliberately so gold formatting is never silently wrong
            has_gold = all(
                any(k in s for k in ("supporting_facts", "contexts", "paragraphs"))
                for s in samples
            )
            gold_docs = get_gold_docs(samples, args.dataset) if has_gold else None
            eng = HippoRagEngine(args.workdir)
            if args.dpr:
                results = eng.dpr_retrieve(questions, top_k=args.top_k)
            else:
                results = eng.retrieve(questions, top_k=args.top_k)
            eng.close()
            report: dict = {"n_samples": len(samples), "top_k": args.top_k}
            if gold_docs:
                pairs = rd.from_items(
                    [
                        {"pred": r["docs"], "gold": g}
                        for r, g in zip(results, gold_docs)
                    ]
                )
                report["recall"] = recall_at_k(
                    pairs,
                    ks=sorted({k for k in (1, 5, args.top_k) if k <= args.top_k}),
                )
            if all("predicted_answer" in s for s in samples):
                gold_answers = get_gold_answers(samples)
                qa = rd.from_items(
                    [
                        {"answer": s["predicted_answer"], "gold_answers": sorted(g)}
                        for s, g in zip(samples, gold_answers)
                    ]
                )
                report["qa"] = qa_scores(qa)
            print(json.dumps(report))
            return 0

        if args.cmd == "query":
            import pandas as pd
            import pyarrow as pa

            from hipporag_ray.pipelines.queries import QUERIES

            if args.name is None:
                print(json.dumps(sorted(QUERIES)))
                return 0
            if args.name not in QUERIES:
                print(json.dumps({"error": f"unknown query {args.name!r}"}))
                return 2
            res = QUERIES[args.name](args.sf_dir)
            if isinstance(res, pa.Table):
                res = res.to_pandas()
            elif hasattr(res, "to_pandas") and not isinstance(res, pd.DataFrame):
                res = res.to_pandas()
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                import pyarrow.parquet as pq

                pq.write_table(
                    pa.Table.from_pandas(res, preserve_index=False),
                    os.path.join(args.out, "part-0.parquet"),
                )
            print(
                json.dumps(
                    {
                        "name": args.name,
                        "rows": int(len(res)),
                        "columns": list(map(str, res.columns)),
                        "head": json.loads(
                            res.head(args.limit).to_json(orient="records")
                        ),
                        **({"out": args.out} if args.out else {}),
                    }
                )
            )
            return 0

        if args.cmd == "triples":
            import ray.data as rd

            from hipporag_ray.stages.triples import extract_triples

            ds = rd.read_parquet(args.input)
            id_cols = [c for c in ("conv_id", "turn_idx") if c in ds.schema().names]
            # materialize once: write + count would otherwise each
            # re-execute the whole extraction over the input
            out = extract_triples(
                ds, id_cols, min_token_len=args.min_token_len
            ).materialize()
            out.write_parquet(args.out)
            print(json.dumps({"out": args.out, "n_triples": out.count()}))
            return 0

        if args.cmd == "openie":
            import ray.data as rd

            from hipporag_ray.stages.openie import openie_pipeline

            ds = rd.read_parquet(args.input)
            id_cols = [c for c in ("conv_id", "turn_idx", "doc_id") if c in ds.schema().names]
            out = openie_pipeline(
                ds, id_cols, min_token_len=args.min_token_len
            ).materialize()
            out.write_parquet(args.out)
            print(json.dumps({"out": args.out, "n_triples": out.count()}))
            return 0

        # graph algorithms
        from hipporag_ray.stages.graph_build import load_graph
        from hipporag_ray.state.csr import ShardedGraph

        g = load_graph(args.graph)
        if args.cmd == "triangles":
            from hipporag_ray.algos.triangles import triangle_count

            total, per = triangle_count(g.edges(), g.n_vertices)
            if getattr(args, "out", None):
                _write_labels(args.out, range(g.n_vertices), per, "tri_count")
            print(json.dumps({"n_triangles": int(total)}))
            return 0

        import numpy as np

        sg = ShardedGraph(g.adj_path, g.n_vertices)
        try:
            ck = {"checkpoint_dir": os.path.join(args.out, "ckpt"), "checkpoint_every": args.checkpoint_every} if getattr(args, "out", None) and getattr(args, "checkpoint_every", 0) else {}
            # outputs stream from the shard actors as a Dataset (no
            # vertex-sized driver array — matches the catalog queries)
            if args.cmd == "pagerank":
                from hipporag_ray.algos.iterate import pagerank, scores_dataset

                _, m = pagerank(sg, collect=False, **ck)
                if args.out:
                    scores_dataset(sg, 0).write_parquet(args.out)
                print(json.dumps({"iters": len(m), "l1_delta": m[-1]["l1_delta"]}))
            elif args.cmd == "ppr":
                from hipporag_ray.algos.iterate import (
                    personalized_pagerank,
                    scores_dataset,
                )

                seeds = np.array([int(s) for s in args.seeds.split(",")], dtype=np.int64)
                _, m = personalized_pagerank(
                    sg, resets=[(seeds, np.ones(len(seeds)))], n_queries=1,
                    damping=args.damping, collect=False,
                )
                if args.out:
                    scores_dataset(sg, 0).write_parquet(args.out)
                print(json.dumps({"iters": len(m), "l1_delta": m[-1]["l1_delta"]}))
            elif args.cmd == "cc":
                from hipporag_ray.algos.iterate import (
                    connected_components,
                    labels_dataset,
                )

                _, m = connected_components(sg, collect=False, **ck)
                lab = labels_dataset(sg, "component")
                if args.out:
                    lab.write_parquet(args.out)
                n_comp = lab.map_batches(
                    lambda b: {"component": np.unique(b["component"])},
                    batch_format="numpy",
                ).unique("component")
                print(json.dumps({"iters": len(m), "n_components": int(len(n_comp))}))
            elif args.cmd == "lp":
                from hipporag_ray.algos.iterate import (
                    label_propagation,
                    labels_dataset,
                )

                _, m = label_propagation(sg, collect=False, **ck)
                lab = labels_dataset(sg, "label")
                if args.out:
                    lab.write_parquet(args.out)
                n_lab = lab.map_batches(
                    lambda b: {"label": np.unique(b["label"])},
                    batch_format="numpy",
                ).unique("label")
                print(json.dumps({"iters": len(m), "n_labels": int(len(n_lab))}))
        finally:
            sg.shutdown()
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
