"""Bucketed hash join unit tests."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from hipporag_ray.stages.shuffle import hash_join


def _ds(d, parts=3):
    return rd.from_arrow(pa.table(d)).repartition(parts).materialize()


def test_inner_join_matches_pandas():
    rng = np.random.default_rng(0)
    left = {"k": rng.integers(0, 50, 500).tolist(), "a": list(range(500))}
    right = {"k": rng.integers(0, 50, 80).tolist(), "b": list(range(80))}
    got = hash_join(_ds(left), _ds(right), "k").to_pandas()
    import pandas as pd

    want = pd.DataFrame(left).merge(pd.DataFrame(right), on="k")
    key = ["k", "a", "b"]
    got = got.sort_values(key).reset_index(drop=True)[key]
    want = want.sort_values(key).reset_index(drop=True)[key]
    assert got.equals(want)


def test_left_join_and_string_keys():
    left = {"k": ["x", "y", "z"], "a": [1, 2, 3]}
    right = {"k": ["y"], "b": [9]}
    got = hash_join(_ds(left, 2), _ds(right, 1), "k", how="left").to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["a"].tolist() == [1, 2, 3]
    assert got["b"].isna().tolist() == [True, False, True]


def test_join_empty_right():
    left = {"k": [1, 2], "a": [1, 2]}
    right = {"k": [], "b": []}
    got = hash_join(_ds(left, 1), _ds(right, 1), "k").to_pandas()
    assert len(got) == 0


def test_exchanges_consume_lazy_streaming_input(ray_session):
    """The exchanges accept un-materialized (lazy) Datasets and consume
    block refs as the streaming executor produces them; outputs match
    the eager path and hash_distinct emits no empty/sentinel blocks."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    from hipporag_ray.stages.shuffle import hash_distinct, int_key_sum

    rng = np.random.default_rng(0)
    tbl = pa.table(
        {
            "k": rng.integers(0, 50, 5000),
            "w": np.ones(5000),
        }
    )
    lazy = (
        rd.from_arrow(tbl)
        .repartition(7)
        .map_batches(lambda b: b, batch_format="pyarrow")  # keeps it lazy
    )
    got = int_key_sum(lazy, "k", "w").to_pandas().sort_values("k").reset_index(drop=True)
    assert got["w"].sum() == 5000 and len(got) == 50

    lazy2 = rd.from_arrow(tbl).repartition(7).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    dsd = hash_distinct(lazy2, "k")
    blocks = [ray.get(r) for r in dsd.to_arrow_refs()]
    assert all(b.num_rows > 0 and "k" in b.column_names for b in blocks)
    assert sum(b.num_rows for b in blocks) == 50


def test_exchange_parallelism_survives_few_big_blocks(ray_session):
    """A single huge input block must not collapse the exchange to one
    map task / one reducer: oversized blocks are sliced (shuffle._sliced)
    and k tracks row volume, not the upstream block layout.  Trap this
    pinned: the 1M-row transcript read coalesces to 2 x 128MB blocks and
    r2's build ran its hottest exchange at parallelism 2 on 32 CPUs."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    from hipporag_ray.stages.shuffle import (
        _PARTITION_FLOOR_ROWS,
        hash_distinct,
        int_key_sum,
        range_sort,
    )

    n = 12 * _PARTITION_FLOOR_ROWS  # 600k rows, one block
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 100_000, n)
    one_block = rd.from_arrow(
        pa.table({"k": keys.astype(np.int64), "w": np.ones(n)})
    ).repartition(1)

    summed = int_key_sum(one_block, "k", "w")
    assert summed.num_blocks() > 1  # reduce side parallelized
    got = summed.to_pandas()
    assert got["w"].sum() == n and len(got) == len(np.unique(keys))

    dsd = hash_distinct(one_block, "k")
    assert dsd.num_blocks() > 1
    assert sum(b.num_rows for b in (ray.get(r) for r in dsd.to_arrow_refs())) == len(
        np.unique(keys)
    )

    srt = range_sort(one_block, "k")
    assert srt.num_blocks() > 1
    out = srt.to_pandas()["k"].to_numpy()
    assert len(out) == n and (np.diff(out) >= 0).all()


def test_join_k_tracks_larger_side(ray_session):
    """A tiny left batch anti-joined against a big right store must not
    collapse the store side into one reduce task: k follows the larger
    side (the EmbeddingStore.insert_strings / incremental-fallback
    shape at scale)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.stages.shuffle import _PARTITION_FLOOR_ROWS, hash_join

    n_big = 12 * _PARTITION_FLOOR_ROWS
    left = rd.from_arrow(
        pa.table({"k": np.arange(100, dtype=np.int64)})
    ).repartition(1)
    right = rd.from_arrow(
        pa.table({"k": np.arange(50, n_big + 50, dtype=np.int64)})
    ).repartition(1)

    out = hash_join(left, right, "k", how="leftanti")
    assert out.num_blocks() > 1
    got = sorted(out.to_pandas()["k"])
    assert got == list(range(50))


def test_left_join_empty_right_bucket_keeps_schema(ray_session):
    """A how='left' bucket whose right side is empty must still emit
    the right-side columns (the per-block schema cannot depend on data
    distribution): with k=8 buckets and a single right key, seven
    buckets see an empty right and previously emitted left-only
    blocks, crashing downstream map_batches on the missing column."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from hipporag_ray.stages.shuffle import hash_join

    left = rd.from_arrow(
        pa.table({"k": list(range(64)), "a": list(range(64))})
    ).materialize()
    right = rd.from_arrow(pa.table({"k": [3], "b": [99]})).materialize()
    out = hash_join(left, right, "k", how="left", num_partitions=8)
    for ref in out.to_arrow_refs():
        blk = ray.get(ref)
        if blk.num_rows:
            assert "b" in blk.column_names
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert len(df) == 64
    assert df.loc[df["k"] == 3, "b"].tolist() == [99]
    assert df.loc[df["k"] != 3, "b"].isna().all()


def test_range_sort_skewed_key_drops_empty_partitions(ray_session):
    """Under heavy key skew the sampled range cuts repeat and some
    partitions are empty by construction; those zero-column sentinel
    blocks must be dropped, not emitted (downstream schema unification
    breaks on them)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    from hipporag_ray.stages.shuffle import range_sort

    # 95% of rows share one key -> duplicate cuts guaranteed at k=8
    keys = np.concatenate([np.full(950, 7), np.arange(50)]).astype(np.int64)
    ds = rd.from_arrow(pa.table({"k": keys})).repartition(4).materialize()
    out = range_sort(ds, "k", num_partitions=8)
    blocks = [ray.get(r) for r in out.to_arrow_refs()]
    assert all(b.num_rows > 0 and "k" in b.column_names for b in blocks)
    vals = out.to_pandas()["k"].to_numpy()
    assert len(vals) == 1000 and (np.diff(vals) >= 0).all()


def test_hash_distinct_tolerates_schemaless_blocks(ray_session):
    """A block lacking the key column (the zero-column sentinel an
    upstream exchange can emit) must take the graceful pass-through
    branch, not crash inside the per-block pre-dedup."""
    import pyarrow as pa
    import ray.data as rd

    from hipporag_ray.stages.shuffle import hash_distinct

    good = rd.from_arrow(pa.table({"k": [1, 1, 2, 3]}))
    sentinel = rd.from_arrow(pa.table({"x": [0]})).map_batches(
        lambda b: pa.table({}), batch_format="pyarrow"
    )
    ds = good.union(sentinel).materialize()
    out = hash_distinct(ds, "k").to_pandas()
    assert sorted(out["k"].tolist()) == [1, 2, 3]


def test_full_outer_join_matches_pandas():
    """how='outer': unmatched rows of BOTH sides survive with NULL
    other-side columns, across many buckets (so some buckets see only
    one side and must reconstruct the other side's schema)."""
    import pandas as pd

    rng = np.random.default_rng(4)
    left = {"k": rng.integers(0, 40, 200).tolist(), "a": list(range(200))}
    right = {"k": (rng.integers(20, 60, 90)).tolist(), "b": list(range(90))}
    got = hash_join(_ds(left, 3), _ds(right, 2), "k", how="outer").to_pandas()
    want = pd.DataFrame(left).merge(pd.DataFrame(right), on="k", how="outer")
    key = ["k", "a", "b"]
    got = got.sort_values(key).reset_index(drop=True)[key]
    want = want.sort_values(key).reset_index(drop=True)[key]
    assert got.shape == want.shape
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_full_outer_join_one_side_empty():
    """A fully-EMPTY side (zero blocks anywhere, not just an empty
    bucket) contributes no schema: outer degrades to the populated
    side's rows — documented degenerate, unlike the empty-BUCKET case
    where typed shards keep the other side's columns."""
    got = hash_join(
        _ds({"k": [1, 2], "a": [10, 20]}, 1),
        _ds({"k": [], "b": []}, 1),
        "k",
        how="outer",
    ).to_pandas()
    assert sorted(got["k"].tolist()) == [1, 2]
    if "b" in got.columns:  # schema survival is best-effort here
        assert got["b"].isna().all()
    got2 = hash_join(
        _ds({"k": [], "a": []}, 1),
        _ds({"k": [7], "b": [70]}, 1),
        "k",
        how="outer",
    ).to_pandas()
    assert got2["k"].tolist() == [7] and got2["b"].tolist() == [70]


def test_leftsemi_join():
    """how='leftsemi': EXISTS shape — matched left rows only, no row
    multiplication from duplicate right keys, right columns dropped."""
    got = hash_join(
        _ds({"k": [1, 2, 3, 4], "a": [10, 20, 30, 40]}, 2),
        _ds({"k": [2, 2, 4, 9], "b": [0, 1, 2, 3]}, 2),
        "k",
        how="leftsemi",
    ).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == [2, 4]
    assert got["a"].tolist() == [20, 40]
    assert "b" not in got.columns
    # empty right -> empty semi result
    got2 = hash_join(
        _ds({"k": [1], "a": [1]}, 1), _ds({"k": [], "b": []}, 1), "k", how="leftsemi"
    ).to_pandas()
    assert len(got2) == 0


def test_exchanges_handle_pandas_blocks_and_empty_inputs(ray_session):
    """from_pandas-sourced datasets ship PANDAS internal blocks; the
    raw-block split tasks must normalize them (regression: an empty
    from_pandas input crashed _multi_split on tbl.num_rows).  Empty
    inputs must come back with a typed, contract-shaped schema at the
    Dataset level (Ray's to_pandas drops schema on zero-row datasets,
    so the assertion reads Dataset.schema)."""
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.dedup import exact_dedup_keys
    from hipporag_ray.stages.shuffle import hash_distinct, multi_key_sum

    empty = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype="object"),
            }
        )
    )
    out = exact_dedup_keys(empty, "text", "doc_id")
    sch = out.schema(fetch_if_missing=True)
    assert sch.names == ["hash_id", "keep_id"]
    assert out.take_all() == []

    # string-typed id column keeps its type in the empty contract
    sempty = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="object"),
                "text": pd.Series([], dtype="object"),
            }
        )
    )
    ssch = exact_dedup_keys(sempty, "text", "doc_id").schema(fetch_if_missing=True)
    assert ssch.names == ["hash_id", "keep_id"]
    assert str(ssch.types[1]) == "string"

    # non-empty pandas-block inputs flow through every exchange family
    full = rd.from_pandas(
        pd.DataFrame({"doc_id": [3, 1, 2, 1], "text": ["a", "a", "b", "a"]})
    )
    mks = (
        multi_key_sum(full, ["text"], None, out_col="n")
        .to_pandas()
        .sort_values("text")
    )
    assert mks["n"].tolist() == [3, 1]
    hd = hash_distinct(full, "text").to_pandas()
    assert sorted(hd["text"].tolist()) == ["a", "b"]
    dd = (
        exact_dedup_keys(full, "text", "doc_id")
        .to_pandas()
        .sort_values("keep_id")
    )
    assert dd["keep_id"].tolist() == [1, 2]


def test_null_group_keys_survive_exchanges(ray_session):
    """SQL GROUP BY keeps the NULL group (DuckDB semantics); the
    pandas-backed exchanges must not silently drop null-key rows
    (pandas groupby defaults to dropna=True), and a nullable int64 key
    must keep its int64 type through the round trip instead of
    degrading to float64+NaN."""
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.agg import grouped_partials, salted_sum
    from hipporag_ray.stages.shuffle import multi_key_min, multi_key_sum

    t = pa.table(
        {
            "k": pa.array(["a", None, "b", None, "a", None]),
            "ki": pa.array([1, None, 2, None, 1, None], pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 8.0]),
        }
    )
    ds = rd.from_arrow(t).repartition(3).materialize()

    mks = multi_key_sum(ds, ["k"], "v", out_col="s").to_pandas()
    got = {(None if pd.isna(k) else k): s for k, s in zip(mks["k"], mks["s"])}
    assert got == {"a": 6.0, "b": 3.0, None: 14.0}

    # nullable INT key: null group kept AND int64 schema preserved
    mki = multi_key_sum(ds, ["ki"], "v", out_col="s")
    sch = mki.schema(fetch_if_missing=True)
    assert str(dict(zip(sch.names, sch.types))["ki"]) == "int64"
    gi = {
        (None if pd.isna(k) else int(k)): s
        for k, s in zip(*(mki.to_pandas()[c] for c in ("ki", "s")))
    }
    assert gi == {1: 6.0, 2: 3.0, None: 14.0}

    mkm = multi_key_min(ds, ["k"], "v", out_col="m").to_pandas()
    gm = {(None if pd.isna(k) else k): m for k, m in zip(mkm["k"], mkm["m"])}
    assert gm == {"a": 1.0, "b": 3.0, None: 2.0}

    ss = salted_sum(ds, ["k"], "v", alias="s", salt=4).to_pandas()
    gs = {(None if pd.isna(k) else k): s for k, s in zip(ss["k"], ss["s"])}
    assert gs == {"a": 6.0, "b": 3.0, None: 14.0}

    gp = grouped_partials(ds, ["k"], {"s": ("sum", "v"), "n": ("count", "v")})
    gg = {
        (None if pd.isna(k) else k): (s, n)
        for k, s, n in zip(gp["k"], gp["s"], gp["n"])
    }
    assert gg == {"a": (6.0, 2), "b": (3.0, 1), None: (14.0, 3)}


def test_mixed_null_blocks_lossy_key_types_concat(ray_session):
    """Partials from the ArrowDtype conversion path (blocks whose keys
    carry nulls) and the numpy path (null-free blocks) must agree on
    Arrow types for the reducer's concat: large_string keys round-trip
    as large_string on one path and plain string on the other, which
    crashed pa.concat_tables mid-exchange before the partials were
    canonicalized to the input block's types."""
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.shuffle import multi_key_min, multi_key_sum

    t1 = pa.table(
        {"g": pa.array(["a", None], pa.large_string()), "v": [1.0, 2.0]}
    )
    t2 = pa.table(
        {"g": pa.array(["b", "a"], pa.large_string()), "v": [4.0, 5.0]}
    )
    ds = rd.from_arrow([t1, t2]).materialize()
    out = multi_key_sum(ds, ["g"], "v", out_col="s").to_pandas()
    got = {(None if pd.isna(k) else k): s for k, s in zip(out["g"], out["s"])}
    assert got == {"a": 6.0, "b": 4.0, None: 2.0}

    # min over a large_string VALUE column: out_col type canonicalized too
    t3 = pa.table(
        {
            "h": pa.array(["x", "x", None], pa.large_string()),
            "id": pa.array(["b", "a", "c"], pa.large_string()),
        }
    )
    t4 = pa.table(
        {
            "h": pa.array(["x"], pa.large_string()),
            "id": pa.array(["d"], pa.large_string()),
        }
    )
    om = multi_key_min(
        rd.from_arrow([t3, t4]).materialize(), ["h"], "id", "keep"
    ).to_pandas()
    gm = {(None if pd.isna(k) else k): m for k, m in zip(om["h"], om["keep"])}
    assert gm == {"x": "a", None: "c"}

    # int64 value with nulls in only SOME blocks: the null block's sum
    # must not flip to float64 against the null-free block's int64
    t5 = pa.table({"g": pa.array([1, 2], pa.int64()), "v": pa.array([1, None], pa.int64())})
    t6 = pa.table({"g": pa.array([1, 2], pa.int64()), "v": pa.array([3, 4], pa.int64())})
    o2 = multi_key_sum(
        rd.from_arrow([t5, t6]).materialize(), ["g"], "v", out_col="s"
    ).to_pandas().sort_values("g")
    assert [(int(g), int(s)) for g, s in zip(o2["g"], o2["s"])] == [(1, 4), (2, 4)]


def test_multi_key_agg_zero_block_input_typed_schema(ray_session):
    """A zero-block input through multi_key_sum/min must come back as
    the TYPED (key_cols + out_col) empty, not leak the input schema —
    consumers select out_col unconditionally."""
    import ray.data as rd

    from hipporag_ray.stages.shuffle import multi_key_min, multi_key_sum

    e = rd.from_arrow(
        pa.table(
            {
                "src": pa.array([], pa.int64()),
                "dst": pa.array([], pa.int64()),
                "w": pa.array([], pa.float64()),
            }
        )
    )
    oe = multi_key_sum(e, ["src", "dst"], "w", out_col="weight")
    sch = oe.schema(fetch_if_missing=True)
    assert list(sch.names) == ["src", "dst", "weight"]
    assert [str(t) for t in sch.types] == ["int64", "int64", "double"]
    assert oe.count() == 0

    on = multi_key_sum(e, ["src"], None, out_col="n")
    sch2 = on.schema(fetch_if_missing=True)
    assert list(sch2.names) == ["src", "n"]
    assert [str(t) for t in sch2.types] == ["int64", "int64"]

    om = multi_key_min(e, ["src"], "dst", out_col="keep")
    sch3 = om.schema(fetch_if_missing=True)
    assert list(sch3.names) == ["src", "keep"]
    assert [str(t) for t in sch3.types] == ["int64", "int64"]


def test_exchange_agg_matches_duckdb_randomized(ray_session):
    """Property sweep: multi_key_sum/min over randomized key types
    (int64 / int32 / string / large_string), null-bearing keys, and
    random block layouts must match DuckDB's GROUP BY (null group
    kept) exactly.  Values are non-null by engine contract (pandas'
    sum-of-empty = 0 vs SQL NULL for all-null groups is out of scope).
    Deterministic seeds — a plain loop, not hypothesis, so the Ray
    session fixture composes cleanly."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.shuffle import multi_key_min, multi_key_sum

    key_types = [pa.int64(), pa.int32(), pa.string(), pa.large_string()]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        kt = key_types[seed % len(key_types)]
        n = int(rng.integers(1, 60))
        if pa.types.is_integer(kt):
            keys = rng.integers(-5, 6, n).astype(object)
        else:
            keys = np.array(
                ["k" + str(i) for i in rng.integers(0, 8, n)], dtype=object
            )
        null_mask = rng.random(n) < 0.25
        keys[null_mask] = None
        vals = np.round(rng.standard_normal(n), 3)
        tbl = pa.table(
            {"g": pa.array(list(keys), type=kt), "v": pa.array(vals)}
        )
        # random block layout: split rows into 1-4 chunks
        n_chunks = int(rng.integers(1, 5))
        cuts = sorted(rng.integers(0, n + 1, n_chunks - 1).tolist())
        bounds = [0] + cuts + [n]
        blocks = [
            tbl.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        ds = rd.from_arrow(blocks).materialize()  # empty slices included

        df = tbl.to_pandas(types_mapper=pd.ArrowDtype)
        want_sum = duckdb.sql(
            "SELECT g, sum(v) AS s FROM df GROUP BY g ORDER BY g NULLS LAST"
        ).df()
        got_sum = (
            multi_key_sum(ds, ["g"], "v", out_col="s")
            .to_pandas()
            .sort_values("g", na_position="last")
            .reset_index(drop=True)
        )
        assert [
            None if pd.isna(x) else x for x in got_sum["g"]
        ] == [None if pd.isna(x) else x for x in want_sum["g"]], f"seed {seed}"
        assert got_sum["s"].astype(float).tolist() == pytest.approx(
            want_sum["s"].astype(float).tolist()
        ), f"seed {seed}"

        want_min = duckdb.sql(
            "SELECT g, min(v) AS m FROM df GROUP BY g ORDER BY g NULLS LAST"
        ).df()
        got_min = (
            multi_key_min(ds, ["g"], "v", out_col="m")
            .to_pandas()
            .sort_values("g", na_position="last")
            .reset_index(drop=True)
        )
        assert got_min["m"].astype(float).tolist() == pytest.approx(
            want_min["m"].astype(float).tolist()
        ), f"seed {seed}"


def test_exchange_missing_value_column_raises(ray_session):
    """A misspelled / upstream-renamed value column must fail loudly
    (KeyError in the split task), not silently aggregate to empty —
    only zero-row schema-elided blocks take the silent-empty path."""
    import ray.data as rd

    from hipporag_ray.stages.shuffle import multi_key_sum

    ds = rd.from_arrow(pa.table({"k": ["a"], "v": [1.0]}))
    with pytest.raises(Exception, match="missing column"):
        multi_key_sum(ds, ["k"], "wieght", out_col="s").to_pandas()


def test_exchange_decimal_sum_mixed_null_blocks(ray_session):
    """Decimal sums re-infer a value-dependent precision on the numpy
    conversion path but keep the input precision on the ArrowDtype
    path — mixed null/non-null blocks must still concat (out_col is
    pinned to the widened decimal128(38, s))."""
    import decimal

    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.shuffle import multi_key_sum

    D = decimal.Decimal
    t1 = pa.table(
        {
            "g": pa.array(["a", None]),
            "v": pa.array([D("1.25"), D("2.50")], pa.decimal128(10, 2)),
        }
    )
    t2 = pa.table(
        {
            "g": pa.array(["a", "b"]),
            "v": pa.array([D("3.00"), D("4.75")], pa.decimal128(10, 2)),
        }
    )
    out = multi_key_sum(
        rd.from_arrow([t1, t2]).materialize(), ["g"], "v", out_col="s"
    ).to_pandas()
    got = sorted(
        (("<null>" if pd.isna(k) else k), str(v))
        for k, v in zip(out["g"], out["s"])
    )
    assert got == [("<null>", "2.50"), ("a", "4.25"), ("b", "4.75")]


def test_grouped_partials_nullable_int_key_driver_combine(ray_session):
    """The DRIVER-side combine of grouped_partials must keep a nullable
    int64 key exact: a bare Dataset.to_pandas() would degrade it to
    float64+NaN, silently corrupting ids above 2^53.  big is chosen so
    float64(big) == float64(big+1) — the combine only stays correct on
    the Arrow-backed path."""
    import pandas as pd
    import ray.data as rd

    from hipporag_ray.stages.agg import grouped_partials

    big = (1 << 53) + 1
    t = pa.table(
        {
            "ki": pa.array([big, big + 1, None, big, None], pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )
    ds = rd.from_arrow(t).repartition(3).materialize()
    gp = grouped_partials(ds, ["ki"], {"s": ("sum", "v"), "n": ("count", "v")})
    got = {
        (None if pd.isna(k) else int(k)): (s, int(n))
        for k, s, n in zip(gp["ki"], gp["s"], gp["n"])
    }
    assert got == {big: (5.0, 2), big + 1: (2.0, 1), None: (8.0, 2)}


def test_int_key_sum_empty_input_typed_schema(ray_session):
    """Zero-block inputs through int_key_sum / int_pair_key_sum emit the
    typed AGGREGATE schema (key + weight only), not the input's full
    schema — consumers select those columns unconditionally."""
    import ray.data as rd

    from hipporag_ray.stages.shuffle import int_key_sum, int_pair_key_sum

    empty = pa.table(
        {
            "src": pa.array([], pa.int64()),
            "dst": pa.array([], pa.int64()),
            "w": pa.array([], pa.float64()),
            "extra": pa.array([], pa.string()),
        }
    )
    ds = rd.from_arrow(empty).materialize()

    out = int_key_sum(ds, "src", "w")
    sch = out.schema(fetch_if_missing=True)
    assert sch is not None and sch.names == ["src", "w"]
    assert out.count() == 0

    out2 = int_pair_key_sum(ds, "src", "dst", "w")
    sch2 = out2.schema(fetch_if_missing=True)
    assert sch2 is not None and sch2.names == ["src", "dst", "w"]
    assert out2.count() == 0


def _missing_key_runs():
    from hipporag_ray.stages import shuffle as sh

    return {
        "int_key_sum": lambda ds: sh.int_key_sum(ds, "kk", "w"),
        "int_pair_key_sum": lambda ds: sh.int_pair_key_sum(ds, "kk", "v", "w"),
        "multi_key_sum": lambda ds: sh.multi_key_sum(ds, ["kk"], "w"),
        "hash_distinct": lambda ds: sh.hash_distinct(ds, "kk", num_partitions=3),
        "hash_partition": lambda ds: sh.hash_partition(ds, "kk", num_partitions=3),
        "range_sort": lambda ds: sh.range_sort(ds, "kk", num_partitions=3),
        "grouped_pairs": lambda ds: sh.grouped_pairs(ds, "kk", "v"),
        "hash_join": lambda ds: sh.hash_join(ds, ds, "kk", num_partitions=3),
    }


@pytest.mark.parametrize("name", sorted(_missing_key_runs()))
def test_exchange_missing_key_column_raises(ray_session, name):
    """A key column missing from a block with rows is a caller bug:
    every exchange must raise a KeyError naming it — not return zero
    rows, copy the block into every partition, or pass it unsorted."""
    ds = rd.from_arrow(
        pa.table({"k": np.arange(10), "v": np.arange(10) % 3, "w": np.ones(10)})
    )
    with pytest.raises(KeyError, match=r"missing column\(s\) \['kk'\]"):
        _missing_key_runs()[name](ds).materialize()


def test_exchanges_match_across_partition_counts(ray_session, monkeypatch):
    """The exchanges no other test drives past one partition give the
    same rows at k = 4 (a tiny _PARTITION_FLOOR_ROWS) as at k = 1."""
    from hipporag_ray.stages import shuffle as sh

    rng = np.random.default_rng(3)
    n = 400
    tbl = pa.table(
        {
            "a": rng.integers(0, 20, n),
            "b": rng.integers(0, 5, n),
            "s": pa.array([f"s{i}" for i in rng.integers(0, 30, n)]),
            "w": rng.integers(0, 100, n).astype(np.float64),
        }
    )
    ds = rd.from_arrow(tbl).repartition(5).materialize()
    runs = {
        "int_pair_key_sum": lambda: sh.int_pair_key_sum(ds, "a", "b", "w"),
        "multi_key_sum": lambda: sh.multi_key_sum(ds, ["s", "b"], "w", out_col="x"),
        "multi_key_count": lambda: sh.multi_key_sum(ds, ["s"], out_col="x"),
        "multi_key_min": lambda: sh.multi_key_min(ds, ["s"], "w", "x"),
        "multi_key_max": lambda: sh.multi_key_max(ds, ["a", "s"], "w", "x"),
        "grouped_pairs": lambda: sh.grouped_pairs(ds, "b", "a", include_group=True),
    }

    def rows(out):
        df = out.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    want = {name: rows(run()) for name, run in runs.items()}
    monkeypatch.setattr(sh, "_PARTITION_FLOOR_ROWS", 4)
    for name, run in runs.items():
        out = run().materialize()
        assert out.num_blocks() > 1, name
        got = rows(out)
        assert len(got) and got.equals(want[name]), name
