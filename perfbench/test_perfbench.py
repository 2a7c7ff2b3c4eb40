"""Tests for the benchmark's own helpers (no Ray needed):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from checks import array_mismatch, expected_graph_counts, topk_mismatch, topk_oracle
from harness import Ledger, Tracer, covered, self_time, steal_share, tail_percentile


# --- percentile with >= 10 samples beyond it -------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = tail_percentile([float(x) for x in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = tail_percentile([float(x) for x in range(1, 12)])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 3) is None
    assert tail_percentile([float(x) for x in range(10)]) is None


def test_tail_percentile_does_not_count_ties_as_beyond():
    xs = [1.0] * 5 + [2.0] * 20
    value, pct, _ = tail_percentile(xs)
    # 2.0 has no samples above it, so the tail drops to the last 1.0
    assert value == 1.0 and pct == pytest.approx(20.0)
    assert tail_percentile([3.0] * 30) is None


# --- span self time ---------------------------------------------------------


def _span(tracer, name, start, end, parent=None):
    rec = {"id": len(tracer.spans), "name": name, "start": start, "end": end,
           "parent": parent, "rid": 1}
    tracer.spans.append(rec)
    return rec


def test_self_time_subtracts_union_of_children():
    t = Tracer(True)
    root = _span(t, "root", 0.0, 10.0)
    _span(t, "a", 1.0, 3.0, root["id"])
    _span(t, "b", 2.0, 4.0, root["id"])  # overlaps a: counted once
    _span(t, "c", 6.0, 7.0, root["id"])
    _span(t, "grandchild", 6.2, 6.8, 3)  # inside c: not root's child
    assert self_time(t, root) == pytest.approx(6.0)
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_parent():
    t = Tracer(True)
    root = _span(t, "root", 0.0, 2.0)
    _span(t, "late", 1.5, 5.0, root["id"])
    assert self_time(t, root) == pytest.approx(1.5)


def test_tracer_nests_and_propagates_request_id():
    t = Tracer(True)
    with t.span("outer", rid=7) as outer:
        with t.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"] and inner["rid"] == 7
    assert t.children(outer) == [inner]
    off = Tracer(False)
    with off.span("x") as rec:
        assert rec is None
    assert off.spans == []


# --- error_rate accounting --------------------------------------------------


def test_ledger_counts_raised_slow_and_wrong_ops(capsys):
    led = Ledger(op_timeout_s=0.05)
    ok, out = led.run("call", lambda: 41 + 1)
    assert out == 42 and ok["ok"]

    def boom():
        raise RuntimeError("lost shard")

    rec, out = led.run("call", boom)
    assert out is None and not rec["ok"] and "lost shard" in rec["why"]

    import time

    slow, out = led.run("call", time.sleep, 0.1)
    assert not slow["ok"] and "limit" in slow["why"]

    wrong, _ = led.run("call", lambda: 0)
    led.fail(wrong, "bad answer")
    led.fail(wrong, "also bad")  # one op fails once
    assert (led.attempted, led.failed) == (4, 3)
    assert led.error_rate == pytest.approx(0.75)
    assert led.times("call") == [ok["s"]]
    assert "lost shard" in capsys.readouterr().err


def test_empty_ledger_has_zero_error_rate():
    assert Ledger(1.0).error_rate == 0.0


# --- oracle checks ----------------------------------------------------------


def _ring_graph(n=12):
    src = np.arange(n, dtype=np.int64)
    dst = (src + 1) % n
    w = np.linspace(1.0, 2.0, n)
    return src, dst, w


def test_topk_check_accepts_oracle_and_flags_perturbed_score():
    from hipporag_ray.algos.oracle import ppr_oracle

    src, dst, w = _ring_graph()
    reset = np.zeros(12)
    reset[[0, 5]] = 1.0
    scores = ppr_oracle(12, src, dst, w, reset=reset)
    cand = np.arange(0, 12, 2)
    ids, top = topk_oracle(scores, cand, 4)
    assert topk_mismatch(ids, top, scores, cand, 4) is None

    bumped = top.copy()
    bumped[1] += 1e-5
    assert "differ" in topk_mismatch(ids, bumped, scores, cand, 4)
    swapped = ids.copy()
    swapped[0] = 1  # not a candidate
    assert "not a candidate" in topk_mismatch(swapped, top, scores, cand, 4)
    assert "returned 3" in topk_mismatch(ids[:3], top[:3], scores, cand, 4)


def test_array_check_is_exact_or_within_tolerance():
    want = np.array([0, 0, 2, 2])
    assert array_mismatch(want.copy(), want, "cc") is None
    assert "first vid 3" in array_mismatch(np.array([0, 0, 2, 3]), want, "cc")
    f = np.array([0.25, 0.75])
    assert array_mismatch(f + 5e-7, f, "pr", atol=1e-6) is None
    assert array_mismatch(f + 5e-6, f, "pr", atol=1e-6) is not None


def test_expected_graph_counts_by_hand():
    texts = ["ent1 ent2", "Ent2, ent3 ent1", "ent1 ent2", "ab ent4"]
    got = expected_graph_counts(texts)
    # chunks: 3 distinct texts; entities ent1..ent4 ("ab" is too short)
    assert (got["n_chunks"], got["n_entities"], got["n_vertices"]) == (3, 4, 7)
    # passage: 2 + 3 + 1; fact: ordered pairs of {ent1, ent2, ent3}
    assert (got["n_passage_edges"], got["n_fact_edges"], got["n_edges"]) == (6, 6, 12)


def test_steal_share_from_cpu_tick_deltas():
    start = [100, 0, 50, 800, 0, 0, 0, 50]
    end = [160, 0, 70, 900, 0, 0, 0, 70]  # 200 ticks, 20 of them stolen
    assert steal_share(start, end) == pytest.approx(0.1)
    assert steal_share([1, 2, 3, 4], [2, 3, 4, 5]) == 0.0  # no steal column
