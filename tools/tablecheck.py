"""Identity gate for the engine's on-disk state: run a seeded write
sequence through the public API and compare two runs.

    python tools/tablecheck.py --out before.npz      # on the old commit
    python tools/tablecheck.py --out after.npz       # on the new commit
    python tools/tablecheck.py --compare before.npz after.npz

Run mode indexes a synthetic base corpus into a ``HippoRagEngine``
(facts on), then three incremental writes — new turns, a re-append of
turns indexed before, new turns again — and an empty write, then two
incremental deletes: indexed turns plus one never-indexed text, and
turns that each hold a word no other indexed turn holds (so the delete
orphans those entities).  After every step it records, each sorted by
its key: ``vertices/``, ``edges/``, ``adj/``, the manifest counts, the
chunk, entity and fact embedding stores (hash_id, content, embedding)
and the fact table.
A step that raises is reported and the run goes on, so both commits
record the same keys.  Compare mode exits non-zero on any missing key
or any array that is not identical.  Only public names are used, so
the same script runs on both commits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SORT_KEYS = {
    "vertices": ["node_key"],
    "edges": ["src", "dst", "etype"],
    "adj": ["src", "dst", "etype", "weight"],
    "chunk_store": ["hash_id"],
    "entity_store": ["hash_id"],
    "fact_store": ["hash_id"],
    "fact_table": ["pair_key"],
}


def _arrays(name: str, tbl) -> dict[str, np.ndarray]:
    """One table, sorted by its key columns, as column arrays (strings
    as fixed-width unicode, list columns as 2-D arrays)."""
    import pyarrow as pa

    tbl = tbl.sort_by([(c, "ascending") for c in SORT_KEYS[name]])
    out = {f"{name}_rows": np.array([tbl.num_rows])}
    for c in tbl.column_names:
        col = tbl[c].combine_chunks()
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            arr = np.array(col.to_pylist(), dtype=np.float32).reshape(len(col), -1)
        elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            arr = np.array([("\0null" if v is None else v) for v in col.to_pylist()], dtype=str)
        else:
            arr = col.to_numpy(zero_copy_only=False)
        out[f"{name}_{c}"] = arr
    return out


def _read(path: str):
    """Every parquet part under ``path`` as one table (None if none)."""
    import pyarrow.dataset as pads

    files = sorted(
        os.path.join(r, f)
        for r, _d, fs in os.walk(path)
        for f in fs
        if f.endswith(".parquet")
    )
    return pads.dataset(files).to_table() if files else None


def _state(eng) -> dict[str, np.ndarray]:
    g = eng.graph()
    with open(os.path.join(g.out_dir, "manifest.json")) as f:
        m = json.load(f)
    out = {"manifest": np.array([m["n_vertices"], m["n_edges"]])}
    for name, path in (
        ("vertices", g.vertices_path),
        ("edges", g.edges_path),
        ("adj", g.adj_path),
        ("chunk_store", eng.chunk_store.dir),
        ("entity_store", eng.entity_store.dir),
        ("fact_store", eng.fact_store.dir),
        ("fact_table", eng.facts_dir),
    ):
        tbl = _read(path)
        out.update(_arrays(name, tbl) if tbl is not None else {f"{name}_rows": np.array([0])})
    return out


def _turns(tx_dir: str):
    import pyarrow.dataset as pads

    return pads.dataset(tx_dir).to_table()


def _orphaning(texts: list[str], k: int) -> list[str]:
    """The first ``k`` of the distinct ``texts`` that hold a word no
    other text holds: deleting them orphans those words' entities."""
    from collections import Counter

    texts = sorted(set(texts))
    counts = Counter(w for t in texts for w in set(t.split()))
    return [t for t in texts if any(counts[w] == 1 for w in t.split())][:k]


def run(out_path: str) -> None:
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from hipporag_ray.pipelines.retrieval import HippoRagEngine
    from hipporag_ray.synth import write_transcripts

    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    try:
        DataContext.get_current().enable_progress_bars = False
        arrays: dict[str, np.ndarray] = {}
        with tempfile.TemporaryDirectory() as tmp:
            base = _turns(write_transcripts(os.path.join(tmp, "a"), n_convs=30,
                                            turns_per_conv=10, vocab=400, seed=3))
            more = _turns(write_transcripts(os.path.join(tmp, "b"), n_convs=20,
                                            turns_per_conv=10, vocab=500, seed=4))
            steps = [
                ("base", base),
                ("new", more.slice(0, 80)),
                # turns indexed before, from the base and the last write
                ("reappend", pa.concat_tables([base.slice(100, 60), more.slice(0, 20)])),
                ("new2", more.slice(80, 120)),
                ("empty", more.slice(0, 0)),
            ]
            eng = HippoRagEngine(os.path.join(tmp, "wd"))
            try:
                indexed = base["text"].to_pylist() + more.slice(0, 200)["text"].to_pylist()
                gone = (base.slice(0, 40)["text"].to_pylist()
                        + more.slice(100, 10)["text"].to_pylist()
                        + ["a turn that was never indexed"])
                live = sorted(set(indexed) - set(gone))
                steps += [("delete", gone), ("orphans", _orphaning(live, 12))]
                for i, (name, arg) in enumerate(steps):
                    try:
                        if isinstance(arg, list):
                            st = eng.delete(arg)
                            print(f"{name}: {len(arg)} texts deleted, "
                                  f"{st['n_vertices']} vertices, {st['n_edges']} edges")
                        else:
                            st = eng.index(rd.from_arrow(arg))
                            print(f"{name}: {st['new_chunks']} new chunks, "
                                  f"{st['n_vertices']} vertices, {st['n_edges']} edges")
                    except Exception as e:  # recorded state shows the effect
                        print(f"{name}: raised {type(e).__name__}: {e}")
                    for k, v in _state(eng).items():
                        arrays[f"{i}{name}_{k}"] = v
            finally:
                eng.close()
        np.savez(out_path, **arrays)
        print(f"wrote {len(arrays)} arrays to {out_path}")
    finally:
        ray.shutdown()


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    bad = sorted(set(a.files) ^ set(b.files))
    for k in bad:
        print(f"only in one file: {k}")
    for k in sorted(set(a.files) & set(b.files)):
        x, y = a[k], b[k]
        if x.dtype != y.dtype or x.shape != y.shape or not np.array_equal(x, y):
            print(f"differs: {k} ({x.dtype}{x.shape} vs {y.dtype}{y.shape})")
            bad.append(k)
    print(f"{len(a.files)} vs {len(b.files)} arrays, {len(bad)} differences")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the write sequence and write this .npz")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two .npz")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    run(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
