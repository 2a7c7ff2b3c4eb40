"""Misra-Gries heavy-hitter sketch: error bound, exactness below k,
and the TPC-H-Q3-shaped shipping_priority catalog query vs DuckDB.

The MG guarantee under merging (Agarwal et al., Mergeable Summaries):
for every item, est <= true <= est + N/(k+1), and every item with
true count > N/(k+1) survives compression.  Estimates are
layout-dependent; the bound is not — both are asserted across
different block layouts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from hipporag_ray.stages.agg import heavy_hitters_sketch


def _skewed(n_rows: int, seed: int) -> pd.DataFrame:
    """Zipf-flavored item stream: a few dominant items + a long tail."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, 401)
    probs = 1.0 / ranks**1.3
    probs /= probs.sum()
    items = rng.choice(ranks, size=n_rows, p=probs)
    return pd.DataFrame({"item_id": items.astype(np.int64)})


@pytest.mark.parametrize("blocks", [1, 7])
def test_mg_bound_holds(blocks):
    df = _skewed(20_000, seed=3)
    true = df["item_id"].astype(str).value_counts()
    k = 16
    out = heavy_hitters_sketch(
        rd.from_pandas(df).repartition(blocks), "item_id", k=k
    )
    n = len(df)
    assert (out["n"] == n).all()
    bound = n / (k + 1)
    assert len(out) <= k
    for item, est in zip(out["item"], out["est_count"]):
        t = int(true.get(item, 0))
        assert est <= t <= est + bound, (item, est, t, bound)
    # every true heavy hitter (count > N/(k+1)) must survive
    hitters = set(true[true > bound].index)
    assert hitters <= set(out["item"])
    # dominant items come out on top with non-trivial estimates
    top_true = true.index[0]
    assert out.iloc[0]["item"] == top_true


def test_mg_exact_below_k():
    # fewer distinct items than counters: MG degenerates to exact counts
    df = pd.DataFrame({"item_id": np.repeat(np.arange(10), [50, 40, 30, 20, 10, 9, 8, 7, 6, 5])})
    out = heavy_hitters_sketch(rd.from_pandas(df).repartition(4), "item_id", k=64)
    true = df["item_id"].astype(str).value_counts()
    assert len(out) == 10
    got = dict(zip(out["item"], out["est_count"]))
    for item, t in true.items():
        assert got[item] == t


def test_mg_nulls_and_empty():
    df = pd.DataFrame({"item_id": pd.array([1, 1, None, 2, None], dtype="Int64")})
    out = heavy_hitters_sketch(rd.from_pandas(df), "item_id", k=8)
    # nulls count toward N but are never items
    assert (out["n"] == 5).all()
    assert set(out["item"]) == {"1", "2"}
    empty = heavy_hitters_sketch(
        rd.from_pandas(pd.DataFrame({"item_id": pd.Series([], dtype="int64")})),
        "item_id",
        k=8,
    )
    assert len(empty) == 0
    with pytest.raises(ValueError):
        heavy_hitters_sketch(rd.from_pandas(df), "item_id", k=0)


def test_topk_verified_matches_exact():
    from hipporag_ray.stages.agg import heavy_hitters_topk

    # 5000 distinct items >> k_sketch: compression fires on every block,
    # yet the verified top-10 must equal the full exact top-10
    rng = np.random.default_rng(11)
    ranks = np.arange(1, 5001)
    probs = 1.0 / ranks**1.2
    probs /= probs.sum()
    df = pd.DataFrame(
        {"item_id": rng.choice(ranks, size=60_000, p=probs).astype(np.int64)}
    )
    out, guaranteed = heavy_hitters_topk(
        rd.from_pandas(df).repartition(6), "item_id", top=10, k_sketch=256
    )
    assert guaranteed
    true = (
        df.groupby("item_id", as_index=False)
        .size()
        .rename(columns={"size": "n"})
        .sort_values(["n", "item_id"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out.astype({"item_id": "int64", "n": "int64"}), true.astype({"n": "int64"})
    )


def test_topk_verified_not_guaranteed_flag():
    from hipporag_ray.stages.agg import heavy_hitters_topk

    # near-uniform stream, tiny sketch: nothing clears the N/(k+1)
    # bound, so the helper must NOT claim the result is exact
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"item_id": rng.integers(0, 2000, size=20_000)})
    out, guaranteed = heavy_hitters_topk(
        rd.from_pandas(df).repartition(4), "item_id", top=10, k_sketch=8
    )
    assert not guaranteed


def test_shipping_priority_vs_duckdb():
    import duckdb

    from hipporag_ray.pipelines.queries import ORACLE_SQL, q_shipping_priority

    sf = "/root/testdata/sf0.001"
    got = q_shipping_priority(sf)
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = con.sql(ORACLE_SQL["shipping_priority"]).df()
    assert list(got.columns) == ["l_orderkey", "revenue", "o_orderdate"]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_events_heavy_hitters_vs_duckdb():
    import duckdb

    from hipporag_ray.pipelines.queries import ORACLE_SQL, q_events_heavy_hitters

    sf = "/root/testdata/sf0.001"
    got = q_events_heavy_hitters(sf).to_pandas().sort_values("user_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = (
        con.sql(ORACLE_SQL["events_heavy_hitters"]).df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_mg_sketch_nul_bytes_and_topk_refusal():
    """Items differing only past an embedded NUL stay distinct in the
    sketch (pandas' object-string hash truncates at \\x00 — the sketch
    merge uses np.unique instead), and the exact-verify top-k refuses
    loudly rather than returning merged 'exact' counts."""
    from hipporag_ray.stages.agg import heavy_hitters_sketch, heavy_hitters_topk

    df = pd.DataFrame({"k": ["a", "a\x00", "a\x00", "b"]})
    hh = heavy_hitters_sketch(rd.from_pandas(df), "k", k=8)
    assert dict(zip(hh["item"], hh["est_count"])) == {"a": 1, "a\x00": 2, "b": 1}
    with pytest.raises(ValueError, match="NUL"):
        heavy_hitters_topk(rd.from_pandas(df), "k", top=3, k_sketch=8)


def test_grouped_aggregates_all_null_group_sum_is_null():
    """SQL SUM over an all-NULL group is NULL, not pandas' 0.0 — both
    grouped_partials and the grouping-sets machinery."""
    import pyarrow as pa

    from hipporag_ray.stages.agg import grouped_partials, grouping_sets_sum_count

    t = pa.table(
        {
            "g": pa.array(["a", "a", "b", "b", "c"]),
            "v": pa.array([1.0, 2.0, None, None, 3.0]),
        }
    )
    ds = rd.from_arrow(t).repartition(2).materialize()
    gp = grouped_partials(ds, ["g"], {"s": ("sum", "v"), "n": ("count", None)})
    got = {r.g: (None if pd.isna(r.s) else r.s, r.n) for r in gp.itertuples()}
    assert got == {"a": (3.0, 2), "b": (None, 2), "c": (3.0, 1)}

    gs = grouping_sets_sum_count(
        ds, ["g"], "v", sets=[["g"], []], alias="s", count_alias="n"
    ).to_pandas()
    brow = gs[gs["g"] == "b"]
    assert len(brow) == 1 and pd.isna(brow["s"].iloc[0]) and brow["n"].iloc[0] == 2
    total = gs[gs["g"].isna()]
    assert len(total) == 1 and total["s"].iloc[0] == 6.0 and total["n"].iloc[0] == 5


def test_events_heavy_hitters_verified_retries_larger_sketch(monkeypatch, tmp_path):
    """An unguaranteed 1024-counter sketch is retried once at 8192
    before the query raises; the error names both sizes."""
    import hipporag_ray.stages.agg as agg
    from hipporag_ray.pipelines.queries import q_events_heavy_hitters_verified

    rng = np.random.default_rng(3)
    users = rng.zipf(1.5, size=5000) % 400
    pd.DataFrame({"user_id": users.astype(np.int64)}).to_parquet(
        tmp_path / "events.parquet"
    )
    real = agg.heavy_hitters_topk
    calls = []

    def guaranteed_from(k_min):
        def fake(ds, value_col, top=10, k_sketch=1024):
            calls.append(k_sketch)
            out, _ = real(ds, value_col, top=top, k_sketch=k_sketch)
            return out, k_sketch >= k_min

        return fake

    monkeypatch.setattr(agg, "heavy_hitters_topk", guaranteed_from(8192))
    got = q_events_heavy_hitters_verified(str(tmp_path))
    assert calls == [1024, 8192]
    counts = pd.Series(users).value_counts()
    want = counts.sort_index().sort_values(ascending=False, kind="stable").head(10)
    assert got["user_id"].astype(np.int64).tolist() == want.index.tolist()
    assert got["n"].astype(np.int64).tolist() == want.tolist()

    calls.clear()
    monkeypatch.setattr(agg, "heavy_hitters_topk", guaranteed_from(10**9))
    with pytest.raises(RuntimeError, match=r"k_sketch=1024.*k_sketch=8192"):
        q_events_heavy_hitters_verified(str(tmp_path))
    assert calls == [1024, 8192]
