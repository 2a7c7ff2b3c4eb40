"""Shared helpers for append-only keyed parquet stores.

The persistent stores of the engine — the embedding store
(state/embedding_store.py, reference embedding_store.py:63-90), the
fact table (pipelines/retrieval.py) and the graph's vertex dictionary
(stages/graph_build.py) — follow the same pattern: parquet parts
accumulate beside each other (under batch-NNNNN subdirectories for the
stores), and an insert keeps each incoming key's first row unless the
key is already stored.

"Already stored" is answered by a *key probe* (J3): the incoming keys,
which are delta-sized, are broadcast once (``ray.put``), ~one task per
CPU scans the key column of a contiguous group of stored parts where
they are, and only the hits come back.  The stored keys never reach
the driver.  A probe is one task wave, where a distributed dedup +
anti join is several Ray Data executions of ~40 ms overhead each — the
whole cost of a write of a few hundred rows.  Groups of parts, not one
task per part, because every write adds parts.

One definition here so behavior fixes (part discovery, batch
numbering, first-wins selection, the probe) cannot diverge between the
stores.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray


def walk_parts(root: str) -> list[str]:
    """All .parquet part files under ``root``, sorted (stable read
    order across processes)."""
    out: list[str] = []
    for r, _dirs, files in os.walk(root):
        out.extend(os.path.join(r, f) for f in files if f.endswith(".parquet"))
    return sorted(out)


def next_batch_dir(root: str) -> str:
    """Path for the next ``batch-NNNNN`` append directory: max existing
    batch number + 1, NOT a directory count — a removed batch (failed-
    write cleanup, compaction) or any stray subdirectory would make the
    count collide with an existing batch and silently append new part
    files beside older rows in the first-wins store."""
    n = 0
    if os.path.isdir(root):
        for d in os.listdir(root):
            if d.startswith("batch-") and os.path.isdir(os.path.join(root, d)):
                try:
                    n = max(n, int(d[6:]) + 1)
                except ValueError:
                    continue
    return os.path.join(root, f"batch-{n:05d}")


# stored rows per key lookup in a probe task: the lookup hashes the
# probe's keys once per call, not once per (small) part
_PROBE_ROWS = 1 << 20


@ray.remote
def _probe_group(paths: list[str], key_col: str, keys, columns: list[str]) -> pa.Table:
    """Rows of one group of stored parts whose key is in ``keys``
    (Ray dereferences the broadcast ref arg)."""
    hits, run, n = [], [], 0
    for i, p in enumerate(paths):
        run.append(pq.read_table(p, columns=[key_col, *columns]))
        n += run[-1].num_rows
        if n >= _PROBE_ROWS or i == len(paths) - 1:
            t = pa.concat_tables(run)
            hits.append(t.filter(pc.is_in(t[key_col], value_set=keys)))
            run, n = [], 0
    return pa.concat_tables(hits)


def probe_keys(
    parts: list[str], key_col: str, keys: np.ndarray, columns: tuple = ()
) -> pa.Table:
    """``(key_col, *columns)`` of the stored rows whose key is in
    ``keys``: one broadcast of the keys, ~one task per CPU over
    contiguous groups of ``parts``, only the hits return."""
    if not parts or not len(keys):
        return pa.table({c: pa.array([], pa.string()) for c in (key_col, *columns)})
    cpus = int(ray.cluster_resources().get("CPU", 1))
    groups = np.array_split(np.arange(len(parts)), min(len(parts), max(1, cpus)))
    ref = ray.put(pa.array(keys, pa.string()))
    return pa.concat_tables(
        ray.get(
            [
                _probe_group.remote([parts[i] for i in g], key_col, ref, list(columns))
                for g in groups
            ]
        )
    )


def in_keys(values, keys) -> np.ndarray:
    """Boolean mask: which of ``values`` are in ``keys``.  Both are
    string keys (numpy object arrays, lists or arrow arrays).  It is one
    hash lookup, where numpy 1.26's ``np.isin`` compares object arrays
    pairwise (20k x 10k keys: 1.36 s on one core)."""

    def arrow(x):
        if isinstance(x, pa.ChunkedArray):
            return x.combine_chunks()
        return x if isinstance(x, pa.Array) else pa.array(x, pa.string())

    return pc.is_in(arrow(values), value_set=arrow(keys)).to_numpy(zero_copy_only=False)


def first_rows(keys: list[np.ndarray], skip) -> list[np.ndarray]:
    """First-wins selection over incoming blocks: per block, the
    positions (into that block's ``keys``) of each key's first
    occurrence in block order, leaving out keys in ``skip``."""
    flat = np.concatenate(keys) if keys else np.zeros(0, object)
    uniq, first = np.unique(flat, return_index=True)
    keep = first[~in_keys(uniq, skip)]
    ends = np.cumsum([len(k) for k in keys])
    return [
        np.sort(keep[(keep >= e - len(k)) & (keep < e)]) - (e - len(k))
        for k, e in zip(keys, ends)
    ]


def new_rows(keys: list[np.ndarray], parts: list[str], key_col: str) -> list[np.ndarray]:
    """An insert's rows: per incoming block, the positions of the first
    row of each key that the stored ``parts`` do not hold (one
    :func:`probe_keys` over the distinct incoming keys)."""
    flat = np.concatenate(keys) if keys else np.zeros(0, object)
    hits = probe_keys(parts, key_col, np.unique(flat))[key_col]
    return first_rows(keys, hits.to_numpy(zero_copy_only=False))


def _taken(block, idx: np.ndarray, columns: dict) -> pa.Table:
    from ..stages.shuffle import _tbl

    t = _tbl(block).take(pa.array(idx, pa.int64()))
    return pa.table({out: t[src] for out, src in columns.items()})


_take = ray.remote(_taken)


@ray.remote
def _write_taken(block, idx: np.ndarray, columns: dict, path: str) -> None:
    pq.write_table(_taken(block, idx, columns), path)


@ray.remote
def _select(block, columns: list[str]) -> pa.Table:
    from ..stages.shuffle import _tbl

    t = _tbl(block)
    if t.num_rows == 0:  # an empty block may carry no columns at all
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return t.select(columns)


def block_columns(refs: list, columns: list[str]) -> list[pa.Table]:
    """``columns`` of every block (delta-sized keys) on the driver."""
    return ray.get([_select.remote(r, columns) for r in refs])


def take_rows(refs: list, idx: list[np.ndarray], columns: dict, rows: int = 512) -> list:
    """Refs of the selected rows of each block, projected and renamed
    (``{out_name: in_name}``), cut into pieces of at most ``rows`` rows
    so that a consumer's map stage parallelizes; blocks with nothing
    selected are skipped."""
    out = []
    for r, i in zip(refs, idx):
        for lo in range(0, len(i), rows):
            out.append(_take.remote(r, i[lo : lo + rows], columns))
    return out


def write_rows(refs: list, idx: list[np.ndarray], columns: dict, root: str) -> None:
    """Append the selected rows of each block (projected and renamed as
    in :func:`take_rows`) to the store under ``root``: one part per
    block in a new batch directory, written by plain tasks — for a
    table whose new rows need no map stage."""
    d = next_batch_dir(root)
    os.makedirs(d)
    ray.get(
        [
            _write_taken.remote(r, i, columns, os.path.join(d, f"part-{b:05d}.parquet"))
            for b, (r, i) in enumerate(zip(refs, idx))
            if len(i)
        ]
    )
