"""LLM-plumbing operators (SURVEY.md §2 M8/M9/M10/M13/M15, S7, T2/T4,
T5): response parsing, JSON repair, prompt rendering, the sqlite
response cache, and the DSPy fact-filter reranker — all deterministic
data transforms here (the LLM itself is a plug; tests use
deterministic fakes)."""

from __future__ import annotations

import json
from string import Template

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hipporag_ray.functions.llm_parse import (
    extract_ner_from_response,
    extract_triples_from_response,
    fix_broken_generated_json,
    parse_dspy_filter_response,
    repair_json_column,
    unique_preserve_order,
)
from hipporag_ray.functions.prompts import (
    PromptTemplateManager,
    RenderPrompts,
    render_template_column,
)
from hipporag_ray.state.llm_cache import CachedLLM, LLMCache, LLMInfer, cache_key
from hipporag_ray.stages.rerank import DSPyFilter, dspy_rerank_fn


# ---------------------------------------------------------------- M10
def test_fix_json_valid_passthrough():
    s = '{"a": [1, 2], "b": {"c": "x,y"}}'
    assert fix_broken_generated_json(s) == s


def test_fix_json_truncated_array():
    s = '{"named_entities": ["radio", "televisi'
    fixed = fix_broken_generated_json(s)
    assert json.loads(fixed) == {"named_entities": ["radio"]}


def test_fix_json_truncated_nested():
    s = '{"triples": [["a", "b", "c"], ["d", "e"'
    fixed = fix_broken_generated_json(s)
    # trailing content after the last comma is dropped, then the
    # unclosed [ [ { close in reverse opening order
    assert json.loads(fixed) == {"triples": [["a", "b", "c"], ["d"]]}


def test_fix_json_ignores_brackets_inside_strings():
    s = '{"a": ["x[y{z", "open'
    fixed = fix_broken_generated_json(s)
    assert json.loads(fixed) == {"a": ["x[y{z"]}


def test_fix_json_escaped_quote_inside_string():
    s = '{"a": ["he said \\"hi, there", "tail'
    fixed = fix_broken_generated_json(s)
    assert json.loads(fixed) == {"a": ['he said "hi, there']}


def test_fix_json_unterminated_string_stays_broken():
    # no comma to trim back to -> the dangling string literal survives
    # and the result is (deliberately) still unparseable, matching the
    # reference's exception path
    s = '{"named_entities": ["abc'
    fixed = fix_broken_generated_json(s)
    with pytest.raises(json.JSONDecodeError):
        json.loads(fixed)


def test_repair_json_column_nulls_and_mixed():
    col = pa.array(['{"a": 1}', '{"a": [1, 2', None])
    out = repair_json_column(col)
    assert out[0].as_py() == '{"a": 1}'
    assert json.loads(out[1].as_py()) == {"a": [1]}
    assert out[2].as_py() is None


# ------------------------------------------------------------- M8/M9
def test_extract_ner_with_prose_and_truncation():
    resp = 'Sure! Here you go:\n{"named_entities": ["Radio City", "India"]}\nDone.'
    assert extract_ner_from_response(resp) == ["Radio City", "India"]
    assert extract_ner_from_response("no json here") == []
    assert extract_ner_from_response(None) == []


def test_extract_ner_recovers_truncated_generation():
    # finish_reason=='length' shape: the array is cut mid-element, so
    # the regex has no closing '}' to anchor on — the whole-response
    # repair pass recovers the prefix entities (reference behavior:
    # repair first, then extract)
    resp = 'Entities follow.\n{"named_entities": ["Radio City", "Ind'
    assert extract_ner_from_response(resp) == ["Radio City"]
    # the unterminated "e" trims back to the last comma, keeping ["d"]
    trips = 'ok {"triples": [["a", "b", "c"], ["d", "e"'
    assert extract_triples_from_response(trips) == [["a", "b", "c"], ["d"]]


def test_extract_triples():
    resp = 'prefix {"triples": [["radio city", "is", "station"]]} suffix'
    assert extract_triples_from_response(resp) == [["radio city", "is", "station"]]
    # wrong field name does not match
    assert extract_triples_from_response('{"named_entities": ["x"]}') == []


def test_unique_preserve_order():
    assert unique_preserve_order(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]


# ---------------------------------------------------------------- M15
DSPY_OK = (
    "[[ ## fact_after_filter ## ]]\n"
    '{"fact": [["a", "b", "c"], ["d", "e", "f"]]}\n\n'
    "[[ ## completed ## ]]"
)


def test_parse_dspy_sections_json():
    assert parse_dspy_filter_response(DSPY_OK) == [
        ["a", "b", "c"],
        ["d", "e", "f"],
    ]


def test_parse_dspy_sections_python_literal_fallback():
    resp = "[[ ## fact_after_filter ## ]]\n{'fact': [['a', 'b', 'c']]}\n"
    assert parse_dspy_filter_response(resp) == [["a", "b", "c"]]


def test_parse_dspy_sections_invalid_and_precedence():
    assert parse_dspy_filter_response("free text, no sections") == []
    assert parse_dspy_filter_response("[[ ## fact_after_filter ## ]]\nnot json") == []
    # a later broken section keeps the earlier parsed value
    # (reference rerank.py:78-84 logs and moves on)
    both = DSPY_OK + "\n[[ ## fact_after_filter ## ]]\n{broken"
    assert parse_dspy_filter_response(both) == [["a", "b", "c"], ["d", "e", "f"]]


def test_parse_dspy_scalar_coercion_and_shape_rejection():
    # pydantic v2's list[list[str]] (reference rerank.py:11-12) REJECTS
    # non-string scalars — an unquoted year must drop the section, not
    # coerce (the reference keeps zero facts for this response)
    resp = '[[ ## fact_after_filter ## ]]\n{"fact": [[1, "b", "c"]]}'
    assert parse_dspy_filter_response(resp) == []
    resp_ok = '[[ ## fact_after_filter ## ]]\n{"fact": [["1", "b", "c"]]}'
    assert parse_dspy_filter_response(resp_ok) == [["1", "b", "c"]]
    assert parse_dspy_filter_response(
        '[[ ## fact_after_filter ## ]]\n{"fact": "nope"}'
    ) == []
    assert parse_dspy_filter_response(
        '[[ ## fact_after_filter ## ]]\n{"fact": [[["nested"], "b", "c"]]}'
    ) == []


# ---------------------------------------------------------------- M13
def test_prompt_manager_render_chat_and_string():
    mgr = PromptTemplateManager(role_mapping={"system": "sys"})
    # "ner" is the reference's real 4-turn few-shot template (system +
    # one-shot demo pair + the ${passage} user turn)
    msgs = mgr.render("ner", passage="hello world")
    assert msgs[0]["role"] == "sys"  # role_mapping applied
    assert len(msgs) == 4
    assert msgs[1]["content"].startswith("Radio City")  # one-shot demo
    assert msgs[-1] == {"role": "user", "content": "hello world"}
    out = mgr.render("qa", question="q?", context="ctx")
    assert out == "Question: q?\nContext:\nctx\nAnswer:"


def test_reference_template_set_loaded_verbatim():
    """The reference's template set ships as data with exact prose
    (prompts/templates/*.py -> functions/prompt_data/*.json)."""
    from hipporag_ray.functions.prompts import load_reference_templates

    tpls = load_reference_templates()
    assert set(tpls) == {
        "ner",
        "ner_query",
        "triple_extraction",
        "rag_qa_musique",
        "ircot_hotpotqa",
        "ircot_musique",
    }
    mgr = PromptTemplateManager()
    # ner_query: the reference's query-NER one-shot, final turn takes
    # ${query}
    q = mgr.render("ner_query", query="who founded X?")
    assert q[-1] == {"role": "user", "content": "Question: who founded X?"}
    assert "Arthur's Magazine" in q[1]["content"]
    # triple_extraction: ${passage} + ${named_entity_json} via the
    # reference's convert_format_to_template
    t = mgr.render(
        "triple_extraction", passage="p", named_entity_json='{"named_entities": []}'
    )
    assert "```\np\n```" in t[-1]["content"]
    assert '{"named_entities": []}' in t[-1]["content"]
    # RDF instruction prose verbatim
    assert "RDF (Resource Description Framework)" in t[0]["content"]
    # rag_qa_musique renders (the $$ escapes in the one-shot docs
    # substitute to single $, like the reference's Template path)
    r = mgr.render("rag_qa_musique", prompt_user="Q")
    assert r[1]["content"].count("$94 million") == 1
    assert r[-1]["content"] == "Q"
    # ircot: system carries the full demo; user takes ${prompt_user}
    for name in ("ircot_hotpotqa", "ircot_musique"):
        msgs = mgr.render(name, prompt_user="next thought?")
        assert len(msgs) == 2
        assert "So the answer is:" in msgs[0]["content"]
        assert msgs[1]["content"] == "next thought?"


def test_prompt_manager_missing_var_and_bad_template():
    mgr = PromptTemplateManager()
    with pytest.raises(ValueError, match="Missing variable"):
        mgr.render("qa", question="q?")  # no context
    with pytest.raises(TypeError):
        mgr.register("bad", 42)


@pytest.mark.parametrize(
    "template",
    [
        "plain, no placeholders",
        "Doc $doc_id: ${passage} end",
        "$$literal dollar then $passage",
        "${passage}${passage}",
    ],
)
def test_render_template_column_matches_substitute(template):
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "passage": pa.array(["a b", "", "x$y"], pa.string()),
        }
    )
    got = render_template_column(template, batch).to_pylist()
    want = [
        Template(template).substitute(doc_id=str(i), passage=p)
        for i, p in zip([1, 2, 3], ["a b", "", "x$y"])
    ]
    assert got == want


def test_render_template_column_missing_column():
    with pytest.raises(ValueError, match="nope"):
        render_template_column("${nope}", pa.table({"a": pa.array(["x"])}))


# ------------------------------------------------------------ S7 / T4
def test_llm_cache_roundtrip_and_key_sensitivity(tmp_path):
    cache = LLMCache(str(tmp_path / "c.sqlite"))
    msgs = [{"role": "user", "content": "hi"}]
    assert cache.lookup(msgs, model="m") is None
    cache.insert(msgs, "resp", {"finish_reason": "stop"}, model="m")
    assert cache.lookup(msgs, model="m") == ("resp", {"finish_reason": "stop"})
    # key includes model/seed/temperature (openai_gpt.py:40-48)
    assert cache.lookup(msgs, model="other") is None
    assert cache.lookup(msgs, model="m", temperature=0.5) is None
    assert cache_key(msgs, "m", 1, 0.0) != cache_key(msgs, "m", 2, 0.0)
    # INSERT OR REPLACE overwrites
    cache.insert(msgs, "resp2", {}, model="m")
    assert cache.lookup(msgs, model="m")[0] == "resp2"
    assert len(cache) == 1
    cache.close()


def test_cached_llm_hit_miss_and_retry(tmp_path):
    calls = {"n": 0, "fail_first": 2}

    def llm_fn(messages, **gen):
        calls["n"] += 1
        if calls["fail_first"] > 0:
            calls["fail_first"] -= 1
            raise RuntimeError("transient")
        return "echo:" + messages[-1]["content"], {"finish_reason": "stop"}

    llm = CachedLLM(llm_fn, str(tmp_path / "c.sqlite"), model="m", retry_wait=0.0)
    msg = [{"role": "user", "content": "x"}]
    out, meta, hit = llm.infer(msg)
    assert (out, hit) == ("echo:x", False) and calls["n"] == 3  # 2 retries
    out2, _, hit2 = llm.infer(msg)
    assert (out2, hit2) == ("echo:x", True) and calls["n"] == 3  # served from sqlite

    # a second handle over the same file shares the cache (T4: the
    # reference's multiprocess-shared sqlite file)
    llm2 = CachedLLM(llm_fn, str(tmp_path / "c.sqlite"), model="m")
    assert llm2.infer(msg)[2] is True

    def always_fail(messages, **gen):
        raise RuntimeError("down")

    llm3 = CachedLLM(
        always_fail, str(tmp_path / "c2.sqlite"), max_retries=3, retry_wait=0.0
    )
    with pytest.raises(RuntimeError, match="down"):
        llm3.infer(msg)


# ------------------------------------------------------------------ T2
def test_llm_infer_stage_actor_pool(ray_session, tmp_path):
    """The T2 pool shape end-to-end: prompts -> responses through the
    shared sqlite cache as an actor-pool map_batches stage; a second
    pass over the same prompts is all cache hits."""
    import ray.data as rd

    cache_path = str(tmp_path / "cache.sqlite")

    def fake_llm(messages, **gen):
        return "R:" + messages[-1]["content"], {"finish_reason": "stop"}

    ds = rd.from_arrow(
        pa.table({"prompt": pa.array([f"p{i % 4}" for i in range(16)])})
    )
    out = ds.map_batches(
        LLMInfer,
        fn_constructor_kwargs=dict(
            llm_fn_factory=lambda: fake_llm, cache_path=cache_path
        ),
        concurrency=1,
        batch_size=8,
        batch_format="pyarrow",
    ).to_pandas()
    assert sorted(out["response"].unique()) == ["R:p0", "R:p1", "R:p2", "R:p3"]
    # 4 distinct prompts -> exactly 4 cached rows
    assert len(LLMCache(cache_path)) == 4
    out2 = ds.map_batches(
        LLMInfer,
        fn_constructor_kwargs=dict(
            llm_fn_factory=lambda: fake_llm, cache_path=cache_path
        ),
        concurrency=1,
        batch_size=8,
        batch_format="pyarrow",
    ).to_pandas()
    assert out2["cache_hit"].all()


# ------------------------------------------------------------------ T5
def _fake_filter_llm(keep: list[list[str]]):
    """Deterministic 'LLM' that always answers with ``keep``."""

    def llm_fn(messages):
        assert messages[0]["role"] == "system"  # few-shot template shape
        assert "[[ ## question ## ]]" in messages[-1]["content"]
        return (
            "[[ ## fact_after_filter ## ]]\n"
            + json.dumps({"fact": keep})
            + "\n\n[[ ## completed ## ]]"
        )

    return llm_fn


def test_dspy_filter_rerank_orders_and_truncates():
    cands = [("a", "r", "b"), ("c", "r", "d"), ("e", "r", "f")]
    filt = DSPyFilter(_fake_filter_llm([["e", "r", "f"], ["a", "r", "b"]]))
    idx, items, meta = filt.rerank("q?", cands, [10, 11, 12])
    assert idx == [12, 10]  # generated order, mapped back to candidates
    assert items == [("e", "r", "f"), ("a", "r", "b")]
    assert meta == {"confidence": None}
    idx1, items1, _ = filt.rerank("q?", cands, [10, 11, 12], len_after_rerank=1)
    assert idx1 == [12] and items1 == [("e", "r", "f")]

    # fuzzy matching: a near-miss generation still snaps to the closest
    # candidate (difflib cutoff=0.0, reference rerank.py:123)
    filt2 = DSPyFilter(_fake_filter_llm([["a", "r", "bb"]]))
    assert filt2.rerank("q?", cands, [10, 11, 12])[0] == [10]

    def boom(messages):
        raise RuntimeError("llm down")

    assert DSPyFilter(boom).rerank("q?", cands, [10, 11, 12])[0] == []


def test_dspy_rerank_fn_dataframe_hook():
    cand = pd.DataFrame(
        {
            "query_idx": [0, 0, 1],
            "score": [0.9, 0.8, 0.7],
            "subj_key": ["a", "c", "x"],
            "obj_key": ["b", "d", "y"],
        },
        index=[5, 6, 7],
    )

    def llm_fn(messages):
        # keep only the (c, d) pair for query 0, drop query 1 entirely
        q = messages[-1]["content"]
        keep = [["c", "d"]] if "alpha" in q else []
        return (
            "[[ ## fact_after_filter ## ]]\n"
            + json.dumps({"fact": keep})
            + "\n[[ ## completed ## ]]"
        )

    hook = dspy_rerank_fn(llm_fn)
    out = hook(cand, ["alpha?", "beta?"])
    assert list(out.index) == [6]
    assert out["query_idx"].tolist() == [0]
    # every query dropped -> empty frame with the original columns
    hook_none = dspy_rerank_fn(lambda m: "[[ ## fact_after_filter ## ]]\n{\"fact\": []}")
    assert hook_none(cand, ["alpha?", "beta?"]).empty


def test_dspy_rerank_fn_sends_real_triples_and_dedups():
    """With the engine's fact column present, the LLM prompt carries the
    human-readable (subj, pred, obj) triples (reference rerank.py:113 —
    md5 endpoint keys could never match the few-shot demos), and a
    repeated fact in the response keeps one candidate row, not two."""
    cand = pd.DataFrame(
        {
            "query_idx": [0, 0],
            "score": [0.9, 0.8],
            "subj_key": ["entity-3f2a", "entity-9bc1"],
            "obj_key": ["entity-77aa", "entity-88bb"],
            "fact": ["('alpha', 'likes', 'beta')", "('gamma', 'hates', 'delta')"],
        },
        index=[5, 6],
    )
    prompts = []

    def llm_fn(messages):
        prompts.append(messages[-1]["content"])
        # repeat the same fact twice: the hook must dedup, and match the
        # REAL triple (not endpoint hashes)
        keep = [["alpha", "likes", "beta"], ["alpha", "likes", "beta"]]
        return (
            "[[ ## fact_after_filter ## ]]\n"
            + json.dumps({"fact": keep})
            + "\n[[ ## completed ## ]]"
        )

    hook = dspy_rerank_fn(llm_fn)
    out = hook(cand, ["who likes beta?"])
    assert list(out.index) == [5]  # the alpha fact, once
    joined = "\n".join(prompts)
    assert "alpha" in joined and "likes" in joined
    assert "entity-3f2a" not in joined  # no md5 keys shown to the LLM


def test_engine_two_arg_rerank_hook_receives_queries(ray_session, tmp_path):
    """The engine hook passes query texts to two-parameter hooks (the
    DSPyFilter shape needs the question, rerank.py:108-117)."""
    import ray.data as rd

    tx = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["c0", "c0", "c1", "c1"], pa.string()),
                "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
                "role": pa.array(["user"] * 4, pa.string()),
                "text": pa.array(
                    [
                        "alpha beta gamma",
                        "alpha delta epsilon",
                        "zeta beta gamma",
                        "theta iota kappa",
                    ],
                    pa.string(),
                ),
                "tool": pa.array([""] * 4, pa.string()),
                "ts": pa.array(
                    np.arange(4, dtype="int64").astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
    )
    from hipporag_ray.pipelines.retrieval import HippoRagEngine

    seen = {}

    def two_arg_hook(cand, queries):
        seen["queries"] = list(queries)
        return cand

    eng = HippoRagEngine(working_dir=str(tmp_path / "wd"), rerank_fn=two_arg_hook)
    eng.index(tx)
    res = eng.retrieve(["alpha beta gamma"], top_k=2)
    eng.close()
    assert seen["queries"] == ["alpha beta gamma"]
    assert res[0]["docs"]


def test_engine_defaulted_second_positional_hook_gets_cand_only(
    ray_session, tmp_path
):
    """A one-arg hook with a DEFAULTED second positional (an option
    slot like top_k, not the query-list slot) must NOT receive the
    query list as that option."""
    import ray.data as rd

    tx = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["c0", "c0"], pa.string()),
                "turn_idx": pa.array([0, 1], pa.int32()),
                "role": pa.array(["user"] * 2, pa.string()),
                "text": pa.array(
                    ["alpha beta gamma", "alpha delta epsilon"], pa.string()
                ),
                "tool": pa.array([""] * 2, pa.string()),
                "ts": pa.array(
                    np.arange(2, dtype="int64").astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
    )
    from hipporag_ray.pipelines.retrieval import HippoRagEngine

    seen = {}

    def hook(cand, top_k=20):
        seen["top_k"] = top_k
        return cand

    eng = HippoRagEngine(working_dir=str(tmp_path / "wd"), rerank_fn=hook)
    eng.index(tx)
    res = eng.retrieve(["alpha beta gamma"], top_k=2)
    eng.close()
    assert seen["top_k"] == 20  # default intact, not the query list
    assert res[0]["docs"]


# ----------------------------------------------------------- rag_qa
def test_rag_qa_end_to_end(ray_session, tmp_path):
    """The reference's flagship rag_qa flow (HippoRAG.py:451-523,
    670-728) with a deterministic reader: retrieve -> prompt render ->
    answer extraction -> Recall@k + EM/F1 scoring."""
    import ray.data as rd

    from hipporag_ray.pipelines.retrieval import HippoRagEngine
    from hipporag_ray.state.llm_cache import CachedLLM

    rows = [
        ("c0", 0, "alpha beta gamma"),
        ("c0", 1, "alpha delta epsilon"),
        ("c1", 0, "zeta beta gamma"),
        ("c1", 1, "theta iota kappa"),
    ]
    tx = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array(["user"] * 4, pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
                "tool": pa.array([""] * 4, pa.string()),
                "ts": pa.array(
                    np.arange(4, dtype="int64").astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
    )

    def reader(messages, **gen):
        # deterministic "reader": parrots the question back as the
        # answer (pins the QA mechanics without depending on toy-scale
        # retrieval quality)
        user = messages[-1]["content"]
        assert user.startswith("Wikipedia Title: ")  # reference prompt shape
        assert "\nQuestion: " in user and user.endswith("\nThought: ")
        q = user.split("\nQuestion: ")[1].split("\nThought:")[0]
        return f"The passages mention it.\nAnswer: {q}", {"finish_reason": "stop"}

    cached = CachedLLM(reader, str(tmp_path / "qa_cache.sqlite"), model="reader")
    eng = HippoRagEngine(working_dir=str(tmp_path / "wd"), qa_llm_fn=cached.infer)
    eng.index(tx)

    queries = ["alpha beta gamma", "theta iota kappa"]
    golds = [["alpha beta gamma"], ["theta iota kappa"]]
    out = eng.rag_qa(queries, gold_docs=golds, gold_answers=golds, top_k=3)
    solutions, responses, metadata, retrieval_result, qa_results = out
    assert len(solutions) == 2 and len(responses) == 2 and len(metadata) == 2
    # answers extracted after "Answer:" and scored: the reader parrots
    # the question, which equals the gold answer here -> perfect EM/F1
    assert solutions[0]["answer"] == queries[0]
    assert set(qa_results) == {"em", "f1"}
    assert qa_results["em"] == 1.0 and qa_results["f1"] == 1.0
    # gold docs are in the corpus, so recall@top_k is perfect and
    # recall@k is monotone in k
    assert retrieval_result["recall_5"] == 1.0
    assert retrieval_result["recall_1"] <= retrieval_result["recall_2"] <= 1.0
    assert solutions[0]["gold_answers"] == golds[0]
    assert metadata[0].get("finish_reason") == "stop"

    # QuerySolution passthrough: dict inputs skip retrieval
    sols2, _, _ = eng.rag_qa(solutions, llm_fn=lambda m: "Answer: fixed")
    assert all(s["answer"] == "fixed" for s in sols2)

    # cache: re-asking the same queries costs zero reader calls
    n_calls = cached.n_llm_calls
    eng.rag_qa(queries, llm_fn=cached.infer, top_k=3)
    assert cached.n_llm_calls == n_calls

    # no reader plug anywhere -> helpful error
    eng2 = HippoRagEngine(working_dir=str(tmp_path / "wd"))
    with pytest.raises(ValueError, match="llm_fn"):
        eng2.qa(solutions)
    eng2.close()
    eng.close()


def test_rag_qa_return_shape(ray_session, tmp_path):
    """rag_qa's return arity per gold argument: the reference's 3-tuple
    without golds and its 5-tuple with gold answers; with gold docs
    alone the engine extends the reference's 3-tuple with the Recall@k
    it computed."""
    from hipporag_ray.pipelines.retrieval import HippoRagEngine

    sols = [
        {"question": "q0", "docs": ["a", "b", "c"]},
        {"question": "q1", "docs": ["d", "e", "f"]},
    ]
    gold_docs = [["a"], ["f"]]
    reader = lambda m: "Answer: x"  # noqa: E731
    eng = HippoRagEngine(working_dir=str(tmp_path / "wd"))
    try:
        assert len(eng.rag_qa(sols, llm_fn=reader)) == 3
        out = eng.rag_qa(sols, gold_docs=gold_docs, llm_fn=reader)
        assert len(out) == 4
        assert out[3] == {"recall_1": 0.5, "recall_2": 0.5, "recall_5": 1.0}
        out = eng.rag_qa(sols, gold_docs=gold_docs, gold_answers=[["x"], ["y"]], llm_fn=reader)
        assert len(out) == 5
        assert out[3]["recall_5"] == 1.0 and out[4]["em"] == 0.5
    finally:
        eng.close()


def test_json_repair_oracle_fuzz_parity():
    """The doc_json_repair DuckDB oracle's closed form must match the
    general engine repair on random token streams — including the
    no-comma-but-token-closed truncation class (cut lands exactly after
    the first token's closing quote)."""
    import random
    import re
    import string

    import duckdb

    from hipporag_ray.pipelines.queries import ORACLE_SQL

    def engine_row(text):
        t = re.sub(r"[^a-z0-9 ]", " ", text.lower()).strip()
        if not t:
            return None
        toks = t.split()[:6]
        s = '{"named_entities": ["' + '", "'.join(toks) + '"]}'
        trunc = s[: (3 * len(s)) // 4]
        rep = fix_broken_generated_json(trunc)
        try:
            ents = json.loads(rep)["named_entities"]
        except (ValueError, KeyError, TypeError):
            ents = None
        return (len(ents) if ents else 0, "|".join(ents) if ents else None)

    random.seed(7)
    texts = ["rlh2 phs"]  # the known closed-quote-no-comma case
    for _ in range(800):
        n = random.randint(1, 9)
        texts.append(
            " ".join(
                "".join(
                    random.choices(
                        string.ascii_lowercase + string.digits,
                        k=random.randint(1, 10),
                    )
                )
                for _ in range(n)
            )
        )
    con = duckdb.connect()
    con.register(
        "documents",
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
    )
    df = con.execute(ORACLE_SQL["doc_json_repair"]).df().set_index("doc_id")
    for i, text in enumerate(texts):
        e = engine_row(text)
        o_ents = df.loc[i, "ents"]
        o = (int(df.loc[i, "n_ents"]), o_ents if pd.notna(o_ents) else None)
        assert e == o, (text, e, o)


def test_cached_llm_numpy_metadata_survives(tmp_path):
    """A successful response with numpy scalars in its metadata must be
    cached, not lost to a serialization TypeError."""

    def llm_fn(messages, **gen):
        return "ok", {"prompt_tokens": np.int64(87)}

    llm = CachedLLM(llm_fn, str(tmp_path / "c.sqlite"), model="m")
    msg = [{"role": "user", "content": "x"}]
    out, meta, hit = llm.infer(msg)
    assert (out, hit) == ("ok", False)
    out2, meta2, hit2 = llm.infer(msg)
    assert hit2 and out2 == "ok" and meta2["prompt_tokens"] == "87"


def test_one_arg_rerank_hook_with_kwargs_not_miscounted(ray_session, tmp_path):
    """def hook(cand, **kwargs) is a ONE-positional hook — it must not
    be called with two positionals."""
    import ray.data as rd

    from hipporag_ray.pipelines.retrieval import HippoRagEngine

    tx = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["c0", "c1"], pa.string()),
                "turn_idx": pa.array([0, 0], pa.int32()),
                "role": pa.array(["user"] * 2, pa.string()),
                "text": pa.array(["alpha beta gamma", "zeta beta gamma"], pa.string()),
                "tool": pa.array([""] * 2, pa.string()),
                "ts": pa.array(
                    np.arange(2, dtype="int64").astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
    )
    seen = {}

    def hook(cand, **kwargs):
        seen["n"] = len(cand)
        return cand

    eng = HippoRagEngine(working_dir=str(tmp_path / "wd"), rerank_fn=hook)
    eng.index(tx)
    res = eng.retrieve(["alpha beta gamma"], top_k=1)
    eng.close()
    assert "n" in seen and res[0]["docs"]


def test_render_template_large_string_column():
    batch = pa.table({"passage": pa.array(["a", "b"], pa.large_string())})
    got = render_template_column("x ${passage}", batch).to_pylist()
    assert got == ["x a", "x b"]


def test_llm_infer_per_node_cache_shard(ray_session, tmp_path):
    """A '{node}' placeholder in cache_path shards the sqlite cache per
    Ray node — the cluster-scale contention escape hatch."""
    import ray
    import ray.data as rd

    def fake(messages, **gen):
        return "r", {}

    ds = rd.from_arrow(pa.table({"prompt": pa.array(["a", "b"])}))
    tmpl = str(tmp_path / "c-{node}.sqlite")
    out = ds.map_batches(
        LLMInfer,
        fn_constructor_kwargs=dict(llm_fn_factory=lambda: fake, cache_path=tmpl),
        concurrency=1,
        batch_size=2,
        batch_format="pyarrow",
    ).to_pandas()
    assert len(out) == 2
    node = ray.get_runtime_context().get_node_id()[:12]
    resolved = tmpl.replace("{node}", node)
    assert len(LLMCache(resolved)) == 2


def test_default_templates_answers_before_first_index():
    """On a fresh import, DEFAULT_TEMPLATES answers .get/len/bool with the
    templates (the old lazy dict subclass read as empty until the first
    [] access), and importing the module alone loads no prompt data."""
    import os
    import subprocess
    import sys

    code = (
        "import hipporag_ray.functions.prompts as p\n"
        "assert p._DEFAULT_TEMPLATES_CACHE is None\n"
        "from hipporag_ray.functions.prompts import DEFAULT_TEMPLATES as t\n"
        "assert t.get('qa') is not None\n"
        "assert bool(t) and len(t) == len(list(t.values())) > 2\n"
        "assert t is p.default_templates()\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
