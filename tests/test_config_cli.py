"""EngineConfig + CLI argument handling (session-free parts)."""

from __future__ import annotations

import pytest

from hipporag_ray.config import DEFAULT_CONFIG, EngineConfig


def test_config_defaults_mirror_reference():
    c = DEFAULT_CONFIG
    assert c.damping == 0.5 and c.tol == 1e-6 and c.max_iter == 100
    assert c.link_top_k == 5 and c.retrieval_top_k == 200
    assert c.passage_node_weight == 0.05
    assert c.synonymy_threshold == 0.8 and c.synonymy_knn_k == 2047
    assert c.synonymy_max_accepted == 100


def test_config_roundtrip_and_validation():
    c = EngineConfig.from_dict({"damping": 0.85, "link_top_k": 9})
    assert c.damping == 0.85
    assert EngineConfig.from_dict(c.to_dict()) == c
    with pytest.raises(ValueError):
        EngineConfig.from_dict({"nope": 1})
    with pytest.raises(Exception):
        c.damping = 0.1  # frozen


def test_cli_checkpoint_every_only_for_iterative_commands(capsys):
    """--checkpoint-every exists for pagerank/cc/lp only: triangles
    never checkpoints, so the flag is an argparse error there instead
    of being silently ignored."""
    from hipporag_ray.__main__ import _parser

    ap = _parser()
    with pytest.raises(SystemExit) as exc:
        ap.parse_args(["triangles", "--graph", "g", "--checkpoint-every", "2"])
    assert exc.value.code == 2
    assert "--checkpoint-every" in capsys.readouterr().err
    for cmd in ("pagerank", "cc", "lp"):
        args = ap.parse_args([cmd, "--graph", "g", "--checkpoint-every", "2"])
        assert args.checkpoint_every == 2


def test_engine_from_config(tmp_path):
    from hipporag_ray.pipelines.retrieval import HippoRagEngine

    eng = HippoRagEngine.from_config(
        str(tmp_path), EngineConfig.from_dict({"embedding_dim": 16, "damping": 0.7})
    )
    assert eng.dim == 16 and eng.damping == 0.7


def test_cli_query_subcommand(tmp_path, capsys):
    """The `query` subcommand exposes the whole catalog by name: list,
    run with parquet out, and a clean error for unknown names."""
    import json

    import pyarrow.parquet as pq

    from hipporag_ray.__main__ import main

    assert main(["query"]) == 0
    names = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "doc_stats" in names and "events_quantiles" in names

    out = str(tmp_path / "q_out")
    rc = main(
        ["query", "doc_stats", "--sf-dir", "/root/testdata/sf0.001", "--out", out]
    )
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["rows"] > 0 and rec["out"] == out
    assert pq.read_table(out).num_rows == rec["rows"]

    assert main(["query", "nosuch"]) == 2


def test_cli_eval_subcommand(tmp_path, capsys):
    """`eval` is the reference main.py analog: index a crafted corpus,
    retrieve per sample question, report Recall@k (and EM/F1 when the
    samples carry predicted answers)."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hipporag_ray.__main__ import main

    texts = [
        "doc0\nalpha beta gamma delta",
        "doc1\nepsilon zeta eta theta",
        "doc2\niota kappa lambda mood",
    ]
    tx = pa.table(
        {
            "conv_id": pa.array(["c0", "c0", "c1"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "role": pa.array(["user"] * 3, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array([""] * 3, pa.string()),
            "ts": pa.array(
                np.array([0, 1, 2], dtype="datetime64[us]"), pa.timestamp("us")
            ),
        }
    )
    tx_dir = tmp_path / "tx"
    tx_dir.mkdir()
    pq.write_table(tx, str(tx_dir / "part-0.parquet"))
    wd = str(tmp_path / "wd")
    assert main(["index", "--workdir", wd, "--input", str(tx_dir)]) == 0
    capsys.readouterr()

    samples = [
        {
            "question": "alpha beta gamma",
            "contexts": [
                {
                    "title": "doc0",
                    "text": "alpha beta gamma delta",
                    "is_supporting": True,
                }
            ],
            "answer": "alpha",
            "predicted_answer": "Alpha!",
        }
    ]
    sf = tmp_path / "samples.jsonl"
    sf.write_text("\n".join(json.dumps(s) for s in samples))
    rc = main(
        ["eval", "--workdir", wd, "--samples", str(sf), "--top-k", "3"]
    )
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # gold "doc0\n..." equals the indexed turn text -> perfect recall
    assert rep["recall"]["recall_3"] == 1.0
    # normalize_answer maps "Alpha!" -> "alpha" == gold
    assert rep["qa"]["em"] == 1.0 and rep["qa"]["f1"] == 1.0


def test_cli_eval_empty_samples(tmp_path, capsys):
    """An empty samples file reports n_samples=0 instead of crashing in
    the metric aggregates."""
    import json

    from hipporag_ray.__main__ import main

    sf = tmp_path / "empty.jsonl"
    sf.write_text("")
    rc = main(["eval", "--workdir", str(tmp_path / "nowd"), "--samples", str(sf)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep == {"n_samples": 0, "top_k": 10}


def test_cli_qa_subcommand(tmp_path, capsys):
    """`qa` completes the main.py analog: index -> rag_qa with the
    built-in deterministic echo reader (+ optional sqlite cache)."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hipporag_ray.__main__ import main

    tx = pa.table(
        {
            "conv_id": pa.array(["c0", "c1"], pa.string()),
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": pa.array(["user"] * 2, pa.string()),
            "text": pa.array(
                ["alpha beta gamma", "theta iota kappa"], pa.string()
            ),
            "tool": pa.array([""] * 2, pa.string()),
            "ts": pa.array(
                np.array([0, 1], dtype="datetime64[us]"), pa.timestamp("us")
            ),
        }
    )
    tx_dir = tmp_path / "tx"
    tx_dir.mkdir()
    pq.write_table(tx, str(tx_dir / "part-0.parquet"))
    wd = str(tmp_path / "wd")
    assert main(["index", "--workdir", wd, "--input", str(tx_dir)]) == 0
    capsys.readouterr()

    cache = str(tmp_path / "qa_cache.sqlite")
    rc = main(
        ["qa", "--workdir", wd, "--query", "alpha beta gamma", "--cache", cache]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out) == 1
    # echo reader answers with the top retrieved passage
    assert out[0]["answer"] == out[0]["docs"][0]
    from hipporag_ray.state.llm_cache import LLMCache

    assert len(LLMCache(cache)) == 1  # response cached (S7)
