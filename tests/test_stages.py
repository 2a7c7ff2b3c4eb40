"""Unit tests for the training-data-pipeline stages: dedup family,
similarity search, text stats, multimodal plumbing, eval operators."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from hipporag_ray.stages import dedup as dd
from hipporag_ray.stages import evalops
from hipporag_ray.stages import similarity as sim
from hipporag_ray.stages import textstats as ts
from hipporag_ray.stages.multimodal import DecodeImage, ResizeImage, decode_pipeline, make_fake_media


DOCS = [
    {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog again and again"},
    {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog again and once"},
    {"doc_id": 2, "text": "completely different content about graph engines and rays"},
    {"doc_id": 3, "text": "the quick brown fox jumps over the lazy dog again and again"},
    {"doc_id": 4, "text": "der hund und die katze sind ein team mit der maus"},
]


def _docs():
    return rd.from_items(DOCS)


def test_exact_dedup_first_wins():
    out = dd.exact_dedup_keys(_docs(), "text", "doc_id").to_pandas()
    # docs 0 and 3 share text -> keep 0
    assert len(out) == 4
    assert 0 in set(out["keep_id"]) and 3 not in set(out["keep_id"])


def test_minhash_matches_exact_jaccard():
    exact = dd.ngram_jaccard_pairs(_docs(), "text", "doc_id", n=3, threshold=0.4)
    lsh = dd.minhash_lsh_pairs(_docs(), "text", "doc_id", n=3, threshold=0.4)
    assert set(map(tuple, exact[["a", "b"]].to_numpy())) == set(
        map(tuple, lsh[["a", "b"]].to_numpy())
    )
    # verified jaccards agree
    m = exact.merge(lsh, on=["a", "b"])
    np.testing.assert_allclose(m["jaccard_x"], m["jaccard_y"])
    # identical docs 0/3 have jaccard 1.0
    assert ((exact["a"] == 0) & (exact["b"] == 3)).any()


def test_row_shingle_hashes_match_string_dedup():
    # the MinHash hot path dedups on the 64-bit stable hash instead of
    # the shingle string — same per-row distinct sets barring an md5-64
    # collision, so rows/counts and the hash multiset must agree
    from hipporag_ray.functions.hashing import stable_hash64

    text = pa.array([d["text"] for d in DOCS] + ["... !!", ""])
    rows_s, sh = dd._row_shingles(text, 3)
    rows_h, h = dd._row_shingle_hashes(text, 3)
    assert np.array_equal(rows_s, rows_h)
    expect = stable_hash64(pa.array(sh.astype(str)))
    # both grouped by row; within a row order differs (string vs hash
    # sort) — compare as per-row sets
    for r in np.unique(rows_s):
        assert set(expect[rows_s == r]) == set(h[rows_h == r])


def test_simhash_identical_and_near():
    out = dd.simhash(_docs(), "text", "doc_id").to_pandas().set_index("doc_id")
    assert out.loc[0, "simhash"] == out.loc[3, "simhash"]  # identical text
    ham = bin(int(out.loc[0, "simhash"]) ^ int(out.loc[1, "simhash"])).count("1")
    ham_far = bin(int(out.loc[0, "simhash"]) ^ int(out.loc[2, "simhash"])).count("1")
    assert ham < ham_far  # near-dup closer than unrelated


def test_simhash_matches_sql_oracle():
    # bit-exact parity with the DuckDB oracle (md5 bit extraction +
    # signed per-bit counts + two's-complement pack), including the
    # no-token zero path and a hash with bit 63 set (negative int64)
    import duckdb

    from hipporag_ray.pipelines.queries import ORACLE_SQL

    df = pd.DataFrame(
        {
            "doc_id": ["a", "b", "c", "d"],
            "text": ["", "?!.,;", "Hello hello WORLD", "the the the of"],
        }
    )
    eng = (
        dd.simhash(rd.from_pandas(df), "text", "doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    ora = (
        con.sql(ORACLE_SQL["doc_simhash"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(eng["doc_id"]) == list(ora["doc_id"])
    assert eng["simhash"].astype("int64").tolist() == ora["simhash"].astype("int64").tolist()
    assert eng.set_index("doc_id").loc["a", "simhash"] == 0
    assert (eng["simhash"] < 0).any()  # bit-63 pack exercised


def test_knn_vs_lsh_ann():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((200, 16)).astype(np.float32)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(200), type=pa.int64()),
                "embedding": pa.array(list(mat), type=pa.list_(pa.float32())),
            }
        )
    )
    q = mat[7]
    exact = sim.knn_topk(ds, q[None, :], k=5, exclude_ids={7})
    assert len(exact) == 5
    assert 7 not in set(exact["vec_id"])
    # self-query: nearest is itself
    self_hit = sim.knn_topk(ds, q[None, :], k=1)
    assert self_hit["vec_id"].iloc[0] == 7
    ann = sim.lsh_ann_topk(ds, q[None, :], k=5)
    assert ann["vec_id"].iloc[0] == 7  # same bucket as itself, exact rerank


def test_embedding_neardup_exact_and_lsh():
    """Block-pair exact near-dup vs brute force; LSH variant finds all
    exact duplicates (identical vectors share every bucket) and only
    true pairs (exact verify within buckets)."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal((40, 16))
    mat = np.concatenate([base, base[:10] + rng.standard_normal((10, 16)) * 1e-3])
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(mat)), type=pa.int64()),
                "embedding": pa.array(list(mat.astype(np.float32)), type=pa.list_(pa.float32())),
            }
        )
    ).repartition(4).materialize()
    exact = dd.embedding_neardup_pairs(ds, "embedding", "vec_id", threshold=0.99)
    # brute force oracle
    m = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = m @ m.T
    rows, cols = np.nonzero(np.triu(sims >= 0.99, k=1))
    assert set(map(tuple, exact[["a", "b"]].to_numpy())) == set(zip(rows, cols))
    # the 10 near-identical clones must be found
    assert {(i, i + 40) for i in range(10)} <= set(map(tuple, exact[["a", "b"]].to_numpy()))
    lsh = dd.embedding_neardup_lsh(ds, "embedding", "vec_id", threshold=0.99, n_bits=8, n_tables=6)
    got = set(map(tuple, lsh[["a", "b"]].to_numpy()))
    assert got <= set(zip(rows, cols))  # verify: no false positives
    assert {(i, i + 40) for i in range(10)} <= got  # near-dup clones collide


def test_quality_and_langid_and_fingerprint():
    q = ts.quality_score(_docs(), "text", "doc_id").to_pandas().set_index("doc_id")
    assert q.loc[0, "n_tokens"] == 12
    assert q.loc[0, "stopword_ratio"] > q.loc[4, "stopword_ratio"]  # en stopwords
    lang = ts.lang_id(_docs(), "text", "doc_id").to_pandas().set_index("doc_id")
    assert lang.loc[0, "lang_pred"] == "en"
    assert lang.loc[4, "lang_pred"] == "de"
    fp = ts.fingerprint(_docs(), "text", "doc_id", n=5).to_pandas().set_index("doc_id")
    assert fp.loc[0, "fp"] == fp.loc[3, "fp"]  # identical docs -> same fingerprint
    assert fp.loc[0, "fp"] != fp.loc[2, "fp"]


def test_token_count_edge_cases():
    ds = rd.from_items(
        [
            {"doc_id": 0, "text": ""},
            {"doc_id": 1, "text": "!!! ???"},
            {"doc_id": 2, "text": "one two  three"},
        ]
    )
    out = ts.token_count(ds, "text", "doc_id").to_pandas().set_index("doc_id").sort_index()
    assert out["n_tokens"].tolist() == [0, 0, 3]


def test_multimodal_plumbing():
    media = rd.from_arrow(make_fake_media(50))
    decoded = decode_pipeline(media, batch_size=16, fake=True)
    df = decoded.to_pandas()
    assert len(df) == 50
    assert len(df["features"].iloc[0]) == 16
    # deterministic: same payload -> same phash/features
    df2 = decode_pipeline(rd.from_arrow(make_fake_media(50)), fake=True).to_pandas()
    assert df.sort_values("media_id")["phash"].tolist() == df2.sort_values("media_id")["phash"].tolist()
    # real decoder rejects non-PNG payloads (real decode is covered in
    # test_png.py over an actual PNG corpus)
    with pytest.raises(ValueError):
        DecodeImage(fake=False)(make_fake_media(2))
    resized = rd.from_arrow(make_fake_media(20)).map_batches(
        ResizeImage(max_side=16), batch_format="pyarrow"
    ).to_pandas()
    assert resized[["width", "height"]].max().max() <= 16


def test_recall_and_qa_scores():
    ds = rd.from_items(
        [
            {"pred": [1, 2, 3], "gold": [1, 9]},
            {"pred": [5, 6, 7], "gold": [7]},
        ]
    )
    r = evalops.recall_at_k(ds, ks=(1, 3))
    assert r["recall_1"] == pytest.approx(0.25)  # (1/2 + 0) / 2
    assert r["recall_3"] == pytest.approx(0.75)  # (1/2 + 1) / 2
    qa = rd.from_items(
        [
            {"answer": "The Eiffel Tower!", "gold_answers": ["eiffel tower", "paris"]},
            {"answer": "london bridge", "gold_answers": ["tower bridge"]},
        ]
    )
    s = evalops.qa_scores(qa)
    assert s["em"] == pytest.approx(0.5)
    assert 0.0 < s["f1"] < 1.0


def test_ivf_ann():
    """IVF probed-cell search: self-hit with full probing; clustered
    data recall; deterministic centroids."""
    rng = np.random.default_rng(4)
    centers = rng.standard_normal((4, 16)) * 5
    mat = np.concatenate([c + rng.standard_normal((50, 16)) * 0.3 for c in centers])
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(mat)), type=pa.int64()),
                "embedding": pa.array(list(mat.astype(np.float32)), type=pa.list_(pa.float32())),
            }
        )
    ).materialize()
    q = mat[7]
    got = sim.ivf_ann_topk(ds, q[None, :], k=5, n_centroids=4, n_probe=4)
    assert got["vec_id"].iloc[0] == 7  # full probe -> self is nearest
    # with 1 probe on well-separated clusters, results == exact top-k
    exact = sim.knn_topk(ds, q[None, :], k=5)
    one = sim.ivf_ann_topk(ds, q[None, :], k=5, n_centroids=4, n_probe=1)
    assert one["vec_id"].tolist() == exact["vec_id"].tolist()
    # deterministic across calls
    again = sim.ivf_ann_topk(ds, q[None, :], k=5, n_centroids=4, n_probe=1)
    assert again["vec_id"].tolist() == one["vec_id"].tolist()


def test_frame_sampling_plumbing():
    from hipporag_ray.stages.multimodal import SampleFrames, frame_sample_pipeline, make_fake_video

    videos = rd.from_arrow(make_fake_video(30))
    frames = frame_sample_pipeline(videos, max_frames=4, fake=True).to_pandas()
    # <= max_frames rows per video, valid frame indices
    per = frames.groupby("media_id").size()
    assert per.max() <= 4 and per.min() >= 1
    meta = make_fake_video(30).to_pandas().set_index("media_id")["n_frames"]
    for mid, g in frames.groupby("media_id"):
        assert g["frame_idx"].max() < meta[mid]
        assert g["frame_idx"].is_unique
    # deterministic
    again = frame_sample_pipeline(rd.from_arrow(make_fake_video(30)), max_frames=4, fake=True).to_pandas()
    a = frames.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    b = again.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    assert a["phash"].tolist() == b["phash"].tolist()
    # real path rejects opaque non-APNG payloads
    with pytest.raises(ValueError):
        SampleFrames(fake=False)(make_fake_video(2))


def test_real_frame_sampling():
    import numpy as np

    from hipporag_ray.functions.avi import decode_avi
    from hipporag_ray.functions.gif import decode_gif
    from hipporag_ray.functions.png import decode_apng, to_grayscale, average_hash64
    from hipporag_ray.stages.multimodal import frame_sample_pipeline, make_real_video

    vids = make_real_video(20)
    frames = frame_sample_pipeline(rd.from_arrow(vids), max_frames=4, fake=False).to_pandas()
    per = frames.groupby("media_id").size()
    assert per.max() <= 4 and per.min() >= 1
    meta = vids.to_pandas().set_index("media_id")
    for mid, g in frames.groupby("media_id"):
        assert g["frame_idx"].max() < meta.loc[mid, "n_frames"]
        assert g["frame_idx"].is_unique
    # features are real: for each container, recompute one row's phash
    # straight from the payload with the matching codec
    decoders = {
        "video/apng": decode_apng,
        "video/avi": decode_avi,
        "video/gif": decode_gif,
    }
    for mime, dec in decoders.items():
        mids = meta.index[meta["mime"] == mime]
        row = frames[frames["media_id"].isin(mids)].iloc[3]
        payload = bytes(meta.loc[row["media_id"], "payload"])
        frame = dec(payload, [int(row["frame_idx"])])[0]
        assert average_hash64(to_grayscale(frame)) == row["phash"], mime
    # moving square -> phash varies across a clip's sampled frames
    nuniq = frames.groupby("media_id")["phash"].nunique()
    assert (nuniq > 1).mean() > 0.5
    # deterministic
    again = frame_sample_pipeline(
        rd.from_arrow(make_real_video(20)), max_frames=4, fake=False
    ).to_pandas()
    a = frames.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    b = again.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    assert a["phash"].tolist() == b["phash"].tolist()
    np.testing.assert_allclose(
        np.stack(a["features"].to_numpy()), np.stack(b["features"].to_numpy())
    )


def test_ngram_jaccard_hot_shingles_consistent_sizes(ray_session):
    """Intersections and sizes must share the hot-filtered shingle
    universe: two identical docs that also share boilerplate with many
    others must still score jaccard 1.0 (regression: sizes from the
    unfiltered table underestimated boilerplate-heavy pairs)."""
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.dedup import ngram_jaccard_pairs

    boiler = "alpha beta gamma delta epsilon zeta eta theta"
    uniq = [f"uniq{i} tail{i} word{i} mark{i} fin{i}" for i in range(12)]
    texts = [f"{boiler} {u}" for u in uniq]
    texts.append(texts[0])  # doc 12 is byte-identical to doc 0
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    )
    out = ngram_jaccard_pairs(
        ds, "text", "doc_id", n=3, threshold=0.9, max_bucket=5
    )
    pairs = set(zip(out["a"], out["b"]))
    assert (0, 12) in pairs
    got = out[(out["a"] == 0) & (out["b"] == 12)]["jaccard"].iloc[0]
    assert got == 1.0


def test_embedding_neardup_lsh_string_ids(ray_session):
    """The LSH near-dup path must handle non-integer id columns the
    same as the exact path (regression: hard-coded int64 id arrays)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.dedup import (
        embedding_neardup_lsh,
        embedding_neardup_pairs,
    )

    rng = np.random.default_rng(5)
    base = rng.standard_normal(16)
    rows = []
    for i in range(6):
        v = base + 0.01 * rng.standard_normal(16) if i < 2 else rng.standard_normal(16)
        rows.append({"vec_id": f"v{i}", "embedding": v.tolist()})
    ds = rd.from_pandas(pd.DataFrame(rows))

    exact = embedding_neardup_pairs(ds, "embedding", "vec_id", threshold=0.95)
    lsh = embedding_neardup_lsh(
        ds, "embedding", "vec_id", threshold=0.95, n_bits=4, n_tables=8
    )
    assert ("v0", "v1") in set(zip(exact["a"], exact["b"]))
    assert set(zip(lsh["a"], lsh["b"])) <= set(zip(exact["a"], exact["b"]))
    assert ("v0", "v1") in set(zip(lsh["a"], lsh["b"]))


def test_textstats_null_text_rows(ray_session):
    """Null text (including in the trailing rows of a batch, where the
    segment reduce previously indexed out of bounds) yields zero-token
    stats, 'und' language, and an empty fingerprint — never a crash."""
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                ["hello world the", None, "", "one two", None], pa.string()
            ),
        }
    )
    ds = rd.from_arrow(tbl)
    tc = ts.token_count(ds, "text", "doc_id").to_pandas().sort_values("doc_id")
    assert tc["n_tokens"].tolist() == [3, 0, 0, 2, 0]
    q = ts.quality_score(ds, "text", "doc_id").to_pandas().sort_values("doc_id")
    assert q["n_tokens"].tolist() == [3, 0, 0, 2, 0]
    assert q["avg_token_len"].tolist()[0] == pytest.approx(13 / 3)
    lid = ts.lang_id(ds, "text", "doc_id").to_pandas().sort_values("doc_id")
    assert lid["lang_pred"].tolist() == ["en", "und", "und", "und", "und"]
    fp = ts.fingerprint(ds, "text", "doc_id", n=2).to_pandas().sort_values("doc_id")
    assert [len(x) for x in fp["fp"]] == [32, 0, 0, 32, 0]


def test_evalops_null_rows_score_zero(ray_session):
    """A null gold list (unanswerable) or null prediction scores 0
    instead of aborting the whole metric pass."""
    ev = rd.from_arrow(
        pa.table(
            {
                "pred": pa.array([[1, 2], [3], None], pa.list_(pa.int64())),
                "gold": pa.array([[1], None, [2]], pa.list_(pa.int64())),
            }
        )
    )
    r = evalops.recall_at_k(ev, "pred", "gold", ks=(1,))
    assert r["recall_1"] == pytest.approx(1 / 3)
    qa = rd.from_arrow(
        pa.table(
            {
                "answer": pa.array(["The Fox!", None], pa.string()),
                "gold_answers": pa.array(
                    [["fox", "wolf"], None], pa.list_(pa.string())
                ),
            }
        )
    )
    s = evalops.qa_scores(qa)
    assert s["em"] == pytest.approx(0.5) and s["f1"] == pytest.approx(0.5)


def test_normalize_answer_reference_parity():
    """normalize_answer strips exactly string.punctuation (underscores
    go, non-ASCII letters stay), matching the reference eval_utils.py
    remove_punc on every case — not the ASCII [^\\w\\s] approximation."""
    import re
    import string

    from hipporag_ray.functions.text import normalize_answer

    def ref(answer: str) -> str:
        ex = set(string.punctuation)
        t = "".join(ch for ch in answer.lower() if ch not in ex)
        t = re.sub(r"\b(a|an|the)\b", " ", t)
        return " ".join(t.split())

    cases = [
        "café au lait",
        "foo_bar",
        "naïve answer",
        "The  Quick, Brown Fox!",
        "100%",
        "ümlaut ÜBER",
        "",
        # RE2's ASCII \b treats non-ASCII letters as boundaries — these
        # probe the unicode article edge the Python-re fallback covers
        # ('anécdota' must NOT lose its leading 'an'; 'La Niña' must
        # keep its trailing 'a')
        "anécdota",
        "La Niña",
        "the naïve théa an idea",
    ]
    got = normalize_answer(pa.array(cases)).to_pylist()
    assert got == [ref(c) for c in cases]


def test_resize_image_degenerate_dims():
    """A nonzero side never truncates to 0 and 0x0 rows pass through
    without dividing by zero."""
    rt = pa.table(
        {
            "media_id": ["a", "b", "c"],
            "width": pa.array([1, 0, 100], pa.int32()),
            "height": pa.array([100, 0, 50], pa.int32()),
        }
    )
    out = ResizeImage(max_side=32)(rt).to_pandas()
    assert out["width"].tolist() == [1, 0, 32]
    assert out["height"].tolist() == [32, 0, 16]


# ---------------------------------------------------------------------------
# PII redaction / TF-IDF
# ---------------------------------------------------------------------------


def test_pii_redact_rules():
    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "mail bob.smith+x@corp.example.COM now"},
            {"doc_id": 2, "text": "from 10.0.0.1 to 192.168.255.3."},
            {"doc_id": 3, "text": "call 555-123-4567 or 555.987.6543"},
            {"doc_id": 4, "text": "clean row, nothing to scrub"},
            {"doc_id": 5, "text": "a@b.io at 127.0.0.1 dials 111-222-3333"},
        ]
    )
    out = (
        ts.pii_redact(ds, "text", "doc_id").to_pandas().set_index("doc_id").sort_index()
    )
    assert out.loc[1, "redacted"] == "mail [EMAIL] now"
    assert out.loc[2, "redacted"] == "from [IP] to [IP]."
    assert out.loc[3, "redacted"] == "call [PHONE] or [PHONE]"
    assert out.loc[4, "redacted"] == "clean row, nothing to scrub"
    assert out.loc[5, "redacted"] == "[EMAIL] at [IP] dials [PHONE]"
    assert out["n_pii"].tolist() == [1, 2, 2, 0, 3]


def test_tfidf_matches_formula():
    docs = [
        {"doc_id": 0, "text": "alpha beta beta"},
        {"doc_id": 1, "text": "alpha gamma"},
        {"doc_id": 2, "text": "delta!"},
        {"doc_id": 3, "text": ""},
    ]
    out = (
        ts.tfidf(rd.from_items(docs), "text", "doc_id", n_docs=4)
        .to_pandas()
        .set_index(["doc_id", "term"])
        .sort_index()
    )
    # alpha: df=2; beta: df=1 tf=2; delta: df=1
    assert out.loc[(0, "beta"), "tf"] == 2
    assert out.loc[(0, "beta"), "df"] == 1
    assert np.isclose(out.loc[(0, "beta"), "tfidf"], 2 * np.log(4 / 1))
    assert out.loc[(0, "alpha"), "df"] == 2
    assert np.isclose(out.loc[(1, "alpha"), "tfidf"], np.log(4 / 2))
    # normalization strips punctuation -> 'delta'
    assert out.loc[(2, "delta"), "tf"] == 1
    assert len(out) == 5  # (0,alpha) (0,beta) (1,alpha) (1,gamma) (2,delta)


# ---------------------------------------------------------------------------
# Distributed exact quantiles / rollup
# ---------------------------------------------------------------------------


def _disc_oracle(vals: np.ndarray, q: float) -> float:
    import math

    x = q * len(vals)
    if abs(x - round(x)) < 1e-9:
        x = round(x)
    return float(np.sort(vals)[max(0, int(math.ceil(x)) - 1)])


def test_group_quantiles_exact_vs_sort():
    from hipporag_ray.stages.agg import group_quantiles

    rng = np.random.default_rng(7)
    rows = []
    data = {}
    for g, n in (("a", 997), ("b", 1024), ("c", 3)):
        v = np.round(rng.normal(size=n) * 100, 3)
        data[g] = v
        rows += [{"g": g, "v": float(x)} for x in v]
    # duplicate-heavy group: histogram must resolve via bucket min==max
    data["d"] = np.array([5.0] * 500 + [9.0] * 500)
    rows += [{"g": "d", "v": float(x)} for x in data["d"]]
    ds = rd.from_items(rows)
    qs = [0.5, 0.9, 0.99, 0.25]
    # tiny exact_threshold + few buckets forces multiple histogram rounds
    tbl = group_quantiles(
        ds, "g", "v", qs, n_buckets=8, exact_threshold=16, max_rounds=32
    ).to_pandas()
    for _, r in tbl.iterrows():
        assert r["value"] == _disc_oracle(data[r["g"]], r["q"]), (
            r["g"],
            r["q"],
        )
    assert len(tbl) == 4 * len(qs)


def test_group_quantiles_cont_vs_numpy():
    """interpolate=True (percentile_cont) through FORCED histogram
    rounds matches numpy's linear quantile on the collected values —
    including a q that lands exactly on an order statistic (frac=0)
    and a duplicate-heavy group."""
    from hipporag_ray.stages.agg import group_quantiles

    rng = np.random.default_rng(11)
    rows = []
    data = {}
    for g, n in (("a", 1001), ("b", 640), ("c", 2)):
        v = np.round(rng.normal(size=n) * 50, 3)
        data[g] = v
        rows += [{"g": g, "v": float(x)} for x in v]
    data["d"] = np.array([1.0] * 300 + [4.0] * 300)
    rows += [{"g": "d", "v": float(x)} for x in data["d"]]
    ds = rd.from_items(rows)
    qs = [0.25, 0.5, 0.75, 0.9]  # 0.25 on n=1001 hits rank 250 exactly
    tbl = group_quantiles(
        ds, "g", "v", qs, n_buckets=8, exact_threshold=16, max_rounds=32,
        interpolate=True,
    ).to_pandas()
    for _, r in tbl.iterrows():
        want = float(np.quantile(data[r["g"]], r["q"], method="linear"))
        np.testing.assert_allclose(r["value"], want, rtol=0, atol=1e-12)
    assert len(tbl) == 4 * len(qs)


def test_group_quantiles_single_value_group():
    from hipporag_ray.stages.agg import group_quantiles

    ds = rd.from_items([{"g": "x", "v": 2.5}] * 10)
    tbl = group_quantiles(ds, "g", "v", [0.5, 0.99]).to_pandas()
    assert tbl["value"].tolist() == [2.5, 2.5]


def test_rollup_sum_count_vs_pandas():
    from hipporag_ray.stages.agg import rollup_sum_count

    rng = np.random.default_rng(3)
    n = 5000
    df = pd.DataFrame(
        {
            "k1": rng.choice(["x", "y", "z"], n),
            "k2": rng.choice(["p", "q"], n),
            "v": np.round(rng.uniform(0, 10, n), 2),
        }
    )
    out = (
        rollup_sum_count(rd.from_pandas(df), ["k1", "k2"], "v")
        .to_pandas()
        .fillna("(all)")
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    # level 2
    lv2 = df.groupby(["k1", "k2"])["v"].agg(["sum", "count"]).reset_index()
    for _, r in lv2.iterrows():
        row = out[(out["k1"] == r["k1"]) & (out["k2"] == r["k2"])]
        assert len(row) == 1
        assert np.isclose(row["sum_value"].iloc[0], r["sum"])
        assert row["n"].iloc[0] == r["count"]
    # level 1 + grand total
    lv1 = df.groupby("k1")["v"].sum()
    for k1, s in lv1.items():
        row = out[(out["k1"] == k1) & (out["k2"] == "(all)")]
        assert np.isclose(row["sum_value"].iloc[0], s)
    gt = out[(out["k1"] == "(all)") & (out["k2"] == "(all)")]
    assert np.isclose(gt["sum_value"].iloc[0], df["v"].sum())
    assert gt["n"].iloc[0] == n
    assert len(out) == len(lv2) + len(lv1) + 1


def test_bm25_matches_formula():
    docs = [
        {"doc_id": 0, "text": "table fast table merge"},
        {"doc_id": 1, "text": "slow row scan"},
        {"doc_id": 2, "text": "table"},
        {"doc_id": 3, "text": ""},
    ]
    out = (
        ts.bm25_score(rd.from_items(docs), "text", "doc_id", ["table", "merge"])
        .to_pandas()
        .set_index("doc_id")["bm25"]
        .sort_index()
    )
    # N=4 (empty doc counts), df(table)=2, df(merge)=1, avgdl=(4+3+1+0)/4=2
    def idf(df):
        return np.log((4 - df + 0.5) / (df + 0.5) + 1)

    def sc(tf, dl, w):
        return w * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / 2.0))

    assert set(out.index) == {0, 2}  # docs without query terms omitted
    assert np.isclose(out.loc[0], sc(2, 4, idf(2)) + sc(1, 4, idf(1)))
    assert np.isclose(out.loc[2], sc(1, 1, idf(2)))


def test_rollup_separator_keys_do_not_collide():
    """Key values containing the old separator byte (or any '|'/':')
    must stay distinct groups — the composite key is length-prefixed,
    not separator-joined."""
    from hipporag_ray.stages.agg import rollup_sum_count

    df = pd.DataFrame(
        {
            "k1": ["a\x1fb", "a", "x|1", "x"],
            "k2": ["c", "b\x1fc", "2:y", "1:2:y"],
            "v": [1.0, 10.0, 100.0, 1000.0],
        }
    )
    out = (
        rollup_sum_count(rd.from_pandas(df), ["k1", "k2"], "v")
        .to_pandas()
        .fillna("(all)")
    )
    lv2 = out[(out["k1"] != "(all)") & (out["k2"] != "(all)")]
    assert len(lv2) == 4  # no merged groups
    assert set(lv2["sum_value"]) == {1.0, 10.0, 100.0, 1000.0}
    gt = out[(out["k1"] == "(all)") & (out["k2"] == "(all)")]
    assert gt["n"].iloc[0] == 4


def test_bm25_empty_query_terms_rejected():
    with pytest.raises(ValueError):
        ts.bm25_score(rd.from_items([{"doc_id": 0, "text": "x"}]), "text", "doc_id", [])


def test_tfidf_string_ids():
    """String id columns survive empty reducer blocks (the exchange's
    zero-column sentinel must not force int64)."""
    docs = [{"doc_id": f"u{i}", "text": "alpha beta"} for i in range(3)]
    out = ts.tfidf(rd.from_items(docs), "text", "doc_id", n_docs=3).to_pandas()
    assert sorted(set(out["doc_id"])) == ["u0", "u1", "u2"]


def test_moving_avg_matches_pandas_rolling(tmp_path):
    """q_events_moving_avg == pandas groupby.rolling(4) on random data
    with duplicate timestamps (event_id tie-break)."""
    import pyarrow.parquet as pq

    from hipporag_ray.pipelines.queries import _round_away, q_events_moving_avg

    rng = np.random.default_rng(17)
    n = 800
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 25, n),
            "ts": pd.to_datetime(rng.integers(0, 50, n), unit="m"),
            "event_type": "view",
            "value": np.round(rng.uniform(0, 100, n), 2),
            "props": "{}",
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = (
        q_events_moving_avg(str(tmp_path))
        .to_pandas()
        .set_index("event_id")["mov_avg"]
        .sort_index()
    )
    s = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
    want = (
        s.groupby("user_id")["value"]
        .rolling(4, min_periods=1)
        .mean()
        .reset_index(level=0, drop=True)
    )
    want.index = s["event_id"].to_numpy()
    want = want.sort_index()
    np.testing.assert_allclose(
        got.to_numpy(), _round_away(want.to_numpy(), 6), atol=1e-6
    )


def test_moving_avg_skips_null_values(tmp_path):
    """SQL window-avg semantics: NULL values drop out of both numerator
    and denominator; an all-null window is NULL (not NaN-poisoned)."""
    import pyarrow.parquet as pq

    from hipporag_ray.pipelines.queries import q_events_moving_avg

    df = pd.DataFrame(
        {
            "event_id": np.arange(5, dtype=np.int64),
            "user_id": np.zeros(5, dtype=np.int64),
            "ts": pd.to_datetime(np.arange(5), unit="m"),
            "event_type": "view",
            "value": [2.0, None, 6.0, None, None],
            "props": "{}",
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = (
        q_events_moving_avg(str(tmp_path))
        .to_pandas()
        .set_index("event_id")["mov_avg"]
        .sort_index()
    )
    # windows: [2], [2,N], [2,N,6], [2,N,6,N], [N,6,N,N]
    assert got.loc[0] == 2.0 and got.loc[1] == 2.0
    assert got.loc[2] == 4.0 and got.loc[3] == 4.0 and got.loc[4] == 6.0


def test_rollup_count_star_with_null_values():
    """count is count(*) at EVERY level (rows, not non-null values), so
    levels sum to the grand total even with nulls in the value column."""
    from hipporag_ray.stages.agg import rollup_sum_count

    df = pd.DataFrame(
        {"k": ["a", "a", "b"], "v": [1.0, None, 3.0]}
    )
    out = (
        rollup_sum_count(rd.from_pandas(df), ["k"], "v")
        .to_pandas()
        .fillna("(all)")
        .set_index("k")
    )
    assert out.loc["a", "n"] == 2
    assert out.loc["b", "n"] == 1
    assert out.loc["(all)", "n"] == 3
    assert out.loc["a", "sum_value"] == 1.0  # sum skips NULL (SQL)


def test_grouped_quantile_sketch_bounds_and_determinism():
    """Bottom-k-by-hash sketch: exact when a group fits in the sample,
    rank error within ~3/sqrt(k) otherwise, deterministic across runs,
    and true counts exact."""
    from hipporag_ray.stages.agg import grouped_quantile_sketch, _disc_rank

    rng = np.random.default_rng(23)
    rows = []
    small = np.round(rng.normal(size=200) * 10, 3)  # fits k -> exact
    big = np.round(rng.uniform(0, 1000, 20_000), 3)  # sampled
    rows += [
        {"g": "small", "v": float(x), "rid": int(i)} for i, x in enumerate(small)
    ]
    rows += [
        {"g": "big", "v": float(x), "rid": int(1_000_000 + i)}
        for i, x in enumerate(big)
    ]
    ds = rd.from_items(rows)
    qs = [0.5, 0.9]
    out1 = (
        grouped_quantile_sketch(ds, "g", "v", "rid", qs, k=1024)
        .to_pandas()
        .set_index(["g", "q"])
        .sort_index()
    )
    out2 = (
        grouped_quantile_sketch(ds, "g", "v", "rid", qs, k=1024)
        .to_pandas()
        .set_index(["g", "q"])
        .sort_index()
    )
    pd.testing.assert_frame_equal(out1, out2)  # no RNG anywhere
    assert out1.loc[("small", 0.5), "n"] == 200
    assert out1.loc[("big", 0.9), "n"] == 20_000
    # small group: sample == population -> exact percentile_disc
    sv = np.sort(small)
    for q in qs:
        assert out1.loc[("small", q), "value"] == sv[_disc_rank(q, len(sv))]
    # big group: rank error bound ~ 3/sqrt(k)
    bv = np.sort(big)
    for q in qs:
        est = out1.loc[("big", q), "value"]
        true_rank = np.searchsorted(bv, est) / len(bv)
        assert abs(true_rank - q) < 3 / np.sqrt(1024)


def test_cube_covers_all_subsets():
    from hipporag_ray.stages.agg import cube_sum_count

    df = pd.DataFrame(
        {"k1": ["x", "x", "y"], "k2": ["p", "q", "p"], "v": [1.0, 2.0, 4.0]}
    )
    out = (
        cube_sum_count(rd.from_pandas(df), ["k1", "k2"], "v")
        .to_pandas()
        .fillna("(all)")
    )
    # 2^2 grouping sets: (), (k1), (k2), (k1,k2)
    def get(k1, k2):
        r = out[(out["k1"] == k1) & (out["k2"] == k2)]
        assert len(r) == 1
        return float(r["sum_value"].iloc[0])

    assert get("(all)", "(all)") == 7.0
    assert get("x", "(all)") == 3.0
    assert get("(all)", "p") == 5.0  # the CUBE-only set ROLLUP lacks
    assert get("x", "q") == 2.0
    assert len(out) == 1 + 2 + 2 + 3


def test_grouped_distinct_sketch_exact_and_estimate():
    """KMV distinct sketch: exact below k, ~1/sqrt(k)-relative estimate
    above, deterministic."""
    from hipporag_ray.stages.agg import grouped_distinct_sketch

    rows = []
    # small group: 100 distinct values, lots of duplicates
    rows += [{"g": "small", "v": f"s{i % 100}"} for i in range(1000)]
    # big group: 50_000 distinct values
    rows += [{"g": "big", "v": f"b{i}"} for i in range(50_000)]
    ds = rd.from_items(rows)
    out1 = (
        grouped_distinct_sketch(ds, "g", "v", k=1024)
        .to_pandas()
        .set_index("g")
        .sort_index()
    )
    out2 = (
        grouped_distinct_sketch(ds, "g", "v", k=1024)
        .to_pandas()
        .set_index("g")
        .sort_index()
    )
    pd.testing.assert_frame_equal(out1, out2)
    assert out1.loc["small", "n_distinct"] == 100
    assert bool(out1.loc["small", "exact"])
    est = out1.loc["big", "n_distinct"]
    assert not bool(out1.loc["big", "exact"])
    assert abs(est - 50_000) / 50_000 < 4 / np.sqrt(1024)  # ~12.5% bound


def test_distinct_users_prefix_type_names_no_collision(tmp_path):
    """Regression: the pair key must carry a real delimiter — numpy
    strips a trailing '\\x00' as fixed-width padding, and with NO
    delimiter ('a', 12) and ('a1', 2) collide into one distinct pair."""
    import pyarrow.parquet as pq

    from hipporag_ray.pipelines.queries import q_events_distinct_users

    df = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([12, 2, 7, 7], dtype=np.int64),
            "ts": pd.to_datetime([0, 1, 2, 3], unit="s"),
            "event_type": ["a", "a1", "a", "a1"],
            "value": 1.0,
            "props": "{}",
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    out = q_events_distinct_users(str(tmp_path)).set_index("event_type")
    assert out.loc["a", "n_users"] == 2  # users 12 and 7
    assert out.loc["a1", "n_users"] == 2  # users 2 and 7


def test_orders_by_nation_broadcast_gate(ray_session):
    """broadcast_limit=0 routes the customer side through the bucketed
    hash join (the >limit fallback) — identical result to the broadcast
    path on the same input."""
    import pandas as pd

    from hipporag_ray.pipelines.queries import q_orders_by_nation

    sf = "/root/testdata/sf0.001"
    a = q_orders_by_nation(sf).sort_values("c_nationkey").reset_index(drop=True)
    b = (
        q_orders_by_nation(sf, broadcast_limit=0)
        .sort_values("c_nationkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_multi_key_sum_matches_pandas(ray_session):
    """multi_key_sum (general-key hash exchange) == pandas groupby on
    string/int mixed keys, counts and weighted sums."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.stages.shuffle import multi_key_sum

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "k1": rng.choice(["alpha", "beta", "gamma|x", ""], 5000),
            "k2": rng.integers(-3, 4, 5000),
            "w": rng.random(5000),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(7)

    got = multi_key_sum(ds, ["k1", "k2"], out_col="n").to_pandas()
    want = df.groupby(["k1", "k2"], as_index=False).size().rename(columns={"size": "n"})
    key = ["k1", "k2"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True),
        check_like=True,
    )

    got_w = multi_key_sum(ds, ["k1", "k2"], weight_col="w", out_col="sw").to_pandas()
    want_w = df.groupby(["k1", "k2"], as_index=False)["w"].sum().rename(columns={"w": "sw"})
    a = got_w.sort_values(key).reset_index(drop=True)
    b = want_w.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_like=True, atol=1e-9)


def test_global_running_sum_multi_partition_vs_serial():
    """Distributed prefix scan forced through 4 range partitions matches
    the serial pandas cumsum under (order, tiebreak) ordering, including
    duplicate order keys straddling cut values and NULL values (window
    sum over an all-NULL prefix is NULL; NULLs are skipped, not zeroed)."""
    from hipporag_ray.stages.agg import global_running_sum

    rng = np.random.default_rng(7)
    n = 2000
    # heavy duplication in the order key so cut values land ON ties
    o = rng.integers(0, 50, n)
    t = rng.permutation(n).astype(np.int64)
    v = np.round(rng.normal(size=n) * 5, 3)
    v[:5] = np.nan  # ensure some NULLs, incl. possibly leading ones
    df = pd.DataFrame({"o": o, "t": t, "v": v})
    got = (
        global_running_sum(
            rd.from_pandas(df), "o", "t", "v", num_partitions=4
        )
        .to_pandas()
        .set_index("t")["running_value"]
    )
    ser = df.sort_values(["o", "t"]).reset_index(drop=True)
    want = ser["v"].fillna(0.0).cumsum()
    want[ser["v"].expanding().count() == 0] = np.nan  # all-NULL prefix
    want.index = ser["t"]
    assert len(got) == n
    aligned = want.reindex(got.index)
    both = ~(aligned.isna() | got.isna())
    assert (aligned.isna() == got.isna()).all()
    assert np.allclose(aligned[both], got[both], atol=1e-9)


def test_write_partitioned_resumable_skips_finished_buckets(tmp_path):
    """Resumable sink: identical re-runs skip every finished bucket;
    deleting buckets (= a run that died before finishing them) rewrites
    ONLY those; the bucket mapping is the deterministic splitmix64 key
    hash pinned by the manifest, so read-back equals the input and each
    key lives in exactly one bucket."""
    from hipporag_ray.sources.writers import (
        read_partitioned,
        write_partitioned_resumable,
    )

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 200, 5000),
            "v": rng.normal(size=5000).round(6),
            "rid": np.arange(5000),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    out = str(tmp_path / "sink")
    r1 = write_partitioned_resumable(ds, out, "k", num_buckets=8)
    assert r1 == {"written": 8, "skipped": 0, "rows_written": 5000}
    # full re-run: everything skipped
    r2 = write_partitioned_resumable(ds, out, "k")
    assert r2 == {"written": 0, "skipped": 8, "rows_written": 0}
    # kill two buckets -> only those rewrite, read-back is complete
    import shutil

    for b in (2, 5):
        shutil.rmtree(f"{out}/bucket={b}")
    r3 = write_partitioned_resumable(ds, out, "k")
    assert r3["written"] == 2 and r3["skipped"] == 6
    back = read_partitioned(out).to_pandas()
    assert len(back) == 5000
    pd.testing.assert_frame_equal(
        back.sort_values("rid").reset_index(drop=True),
        df.sort_values("rid").reset_index(drop=True),
        check_like=True,
    )
    # key-completeness: a key's rows live in exactly one bucket
    import os as _os

    seen = {}
    for d in _os.listdir(out):
        if d.startswith("bucket="):
            part = rd.read_parquet(f"{out}/{d}/part-0.parquet").to_pandas()
            for kk in part["k"].unique():
                assert kk not in seen, (kk, d, seen[kk])
                seen[kk] = d
    # mismatched resume key is rejected
    with pytest.raises(ValueError):
        write_partitioned_resumable(ds, out, "rid")


def test_write_partitioned_resumable_string_keys_and_hash_scheme(tmp_path):
    """String keys route through the repo's pinned stable hash (not
    polars' version-unstable one), a sink recorded under a different
    hash scheme refuses to resume (silent row loss otherwise), a
    fully-complete resume returns without running the shuffle, and a
    zero-bucket directory reads back as an empty dataset."""
    import json as _json
    import os as _os

    from hipporag_ray.sources.writers import (
        read_partitioned,
        write_partitioned_resumable,
    )

    df = pd.DataFrame(
        {"k": [f"key-{i % 37}" for i in range(1500)], "rid": np.arange(1500)}
    )
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    out = str(tmp_path / "sink_str")
    r1 = write_partitioned_resumable(ds, out, "k", num_buckets=4)
    assert r1["rows_written"] == 1500
    # the internal bucket-key column must not leak into the output
    back = read_partitioned(out).to_pandas()
    assert sorted(back.columns) == ["k", "rid"]
    assert len(back) == 1500
    # full re-run short-circuits (manifest says complete)
    r2 = write_partitioned_resumable(ds, out, "k")
    assert r2 == {"written": 0, "skipped": 4, "rows_written": 0}
    # a foreign/legacy hash scheme refuses to resume
    mpath = _os.path.join(out, "manifest.json")
    with open(mpath) as f:
        m = _json.load(f)
    m["hash_scheme"] = "polars-legacy"
    with open(mpath, "w") as f:
        _json.dump(m, f)
    with pytest.raises(ValueError, match="hash_scheme"):
        write_partitioned_resumable(ds, out, "k")
    # zero completed buckets: empty dataset, not a crash
    empty_dir = str(tmp_path / "sink_empty")
    _os.makedirs(empty_dir)
    assert read_partitioned(empty_dir).count() == 0


def test_read_transcripts_csv_matches_parquet(small_transcripts, tmp_path):
    """CSV ingest coerces to the canonical TRANSCRIPTS schema and
    round-trips the parquet reader's rows (per-turn text equality under
    (conv_id, turn_idx) keys — the input_hint invariant)."""
    from hipporag_ray.sources.readers import read_transcripts, read_transcripts_csv

    want = read_transcripts(small_transcripts).to_pandas()
    csv_path = str(tmp_path / "tx.csv")
    want.to_csv(csv_path, index=False)
    got = read_transcripts_csv(csv_path).to_pandas()
    a = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    b = want.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    pd.testing.assert_series_equal(a["text"], b["text"])
    assert a["turn_idx"].dtype == b["turn_idx"].dtype
    pd.testing.assert_frame_equal(a, b, check_like=True)


def test_lineitem_pricing_count_star_with_null_discounts(ray_session, tmp_path):
    """n must be COUNT(*) (all rows) while avg_disc is SQL AVG
    (null-skipping): a null l_discount row counts toward n but not the
    avg denominator — the pure-Arrow partial counts both separately."""
    import duckdb
    import pyarrow.parquet as pq

    from hipporag_ray.pipelines.queries import q_lineitem_pricing

    t = pa.table(
        {
            "l_returnflag": ["A", "A", "A", "B"],
            "l_linestatus": ["F", "F", "F", "O"],
            "l_quantity": [1.0, 2.0, 3.0, 4.0],
            "l_extendedprice": [10.0, 20.0, 30.0, 40.0],
            "l_discount": pa.array([0.1, None, 0.3, 0.2], pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    got = (
        q_lineitem_pricing(str(tmp_path))
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    want = (
        duckdb.sql(
            f"""
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice * (1 - l_discount)), 1) AS sum_revenue,
               round(avg(l_discount), 5) AS avg_disc,
               count(*) AS n
        FROM read_parquet('{tmp_path}/lineitem.parquet')
        GROUP BY 1, 2 ORDER BY 1, 2
        """
        )
        .df()
        .reset_index(drop=True)
    )
    assert got["n"].tolist() == want["n"].tolist() == [3, 1]
    for c in ("sum_qty", "sum_revenue", "avg_disc"):
        assert got[c].tolist() == pytest.approx(want[c].tolist())


def test_catalog_order_sql_checked_first():
    """The head of the queries() catalog is the DuckDB-oracle-checked
    entries, so a 50-entry sample of it is fully value-checked; the
    approximate-by-design LSH / ANN entries close the list."""
    import __ray_entry__ as entry

    names = list(entry.queries())
    oracle = set(entry.oracle_sql())
    n_sql = sum(k in oracle for k in names)
    assert n_sql >= 50
    assert all(k in oracle for k in names[:n_sql])
    assert names[-4:] == ["doc_minhash_lsh", "emb_neardup_lsh", "emb_ann_lsh", "emb_ann_ivf"]
