"""Output checks for the link-graph benchmark.  Expected values come
from the generated input or from ``hipporag_ray.algos.oracle``; none is
derived from the engine's own answers."""

from __future__ import annotations

import re

import numpy as np

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def entity_tokens(text: str, min_token_len: int = 3) -> set[str]:
    """Distinct entity tokens of one turn, for the ASCII text the
    synthetic generator writes: lowercase, non-alphanumerics become
    separators, tokens shorter than ``min_token_len`` are dropped."""
    return {t for t in _NON_ALNUM.sub(" ", text.lower()).split() if len(t) >= min_token_len}


def expected_graph_counts(texts, min_token_len: int = 3) -> dict:
    """Vertex and edge-record counts of the co-occurrence graph over
    ``texts``: one vertex per distinct turn text and per distinct
    entity; one passage record per (turn, entity) and one fact record
    per ordered pair of distinct entities sharing a turn."""
    distinct = sorted(set(texts))
    token_sets = [sorted(entity_tokens(t, min_token_len)) for t in distinct]
    vocab = {e: i for i, e in enumerate(sorted({e for ts in token_sets for e in ts}))}
    width = max((len(ts) for ts in token_sets), default=0)
    ids = np.full((len(token_sets), max(width, 1)), -1, dtype=np.int64)
    for r, ts in enumerate(token_sets):
        ids[r, : len(ts)] = [vocab[e] for e in ts]
    v = len(vocab)
    codes = []
    for i in range(width):
        for j in range(width):
            if i != j:
                a, b = ids[:, i], ids[:, j]
                ok = (a >= 0) & (b >= 0)
                codes.append(a[ok] * v + b[ok])
    fact = len(np.unique(np.concatenate(codes))) if codes else 0
    passage = int(sum(len(ts) for ts in token_sets))
    return {
        "n_chunks": len(distinct),
        "n_entities": v,
        "n_vertices": len(distinct) + v,
        "n_passage_edges": passage,
        "n_fact_edges": int(fact),
        "n_edges": passage + int(fact),
    }


def topk_oracle(scores: np.ndarray, candidates: np.ndarray, k: int):
    """Top-k candidate vertices by (score desc, vid asc)."""
    cand = np.asarray(candidates, dtype=np.int64)
    s = scores[cand]
    order = np.lexsort((cand, -s))[:k]
    return cand[order], s[order]


def topk_mismatch(got_ids, got_scores, want_scores, candidates, k: int, atol: float = 1e-6):
    """Compare one query's top-k against the oracle's full score vector.
    Returns ``None`` when they agree, else a description.  Ties inside
    ``atol`` may be ordered either way, so ids are checked by their
    oracle score rather than by position."""
    got_ids = np.asarray(got_ids, dtype=np.int64)
    got_scores = np.asarray(got_scores, dtype=np.float64)
    want_ids, want_top = topk_oracle(want_scores, candidates, k)
    if len(got_ids) != len(want_ids):
        return f"returned {len(got_ids)} ids, expected {len(want_ids)}"
    if len(set(got_ids.tolist())) != len(got_ids):
        return "duplicate ids in top-k"
    if not np.isin(got_ids, candidates).all():
        return "top-k holds a vertex that is not a candidate"
    err = np.abs(np.sort(got_scores)[::-1] - want_top)
    if err.size and err.max() > atol:
        return f"top-k scores differ from oracle by {err.max():.3g}"
    err = np.abs(want_scores[got_ids] - got_scores)
    if err.size and err.max() > atol:
        return f"score of a returned id differs from its oracle score by {err.max():.3g}"
    return None


def array_mismatch(got: np.ndarray, want: np.ndarray, what: str, atol: float | None = None):
    """``None`` when ``got`` equals ``want`` (exactly, or within
    ``atol``), else a description naming the first differing vertex."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != oracle {want.shape}"
    bad = np.abs(got - want) > atol if atol is not None else got != want
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        return f"{what}: {int(bad.sum())} vertices differ from oracle (first vid {i}: {got[i]} vs {want[i]})"
    return None
