"""Reindex — the reference's scroll-read → transform → bulk-write ETL loop
(``modules/reindex/.../Reindexer.java:69,97``,
``AbstractAsyncBulkByScrollAction.java:333-384``), Ray-Data-shaped:

  read per input shard → ingest-processor Pipeline (one map_batches) →
  partitioned parquet sink, one output file per input shard written
  atomically + a manifest — so a failed run resumes by skipping finished
  shards (the slice-parallelism of BulkByScrollParallelizationHelper is
  native here: one task per shard)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from elasticsearch_ray.index.segments import atomic_write_json, read_json
from elasticsearch_ray.ops.processors import Pipeline
from elasticsearch_ray.sources.webpages import plan_shards


def reindex(
    src_dir: str,
    dst_dir: str,
    processors: list | None = None,
    file_pattern: str = "*.parquet",
    columns: list[str] | None = None,
) -> dict:
    """Returns {'shards': n, 'skipped': n_resumed, 'rows': total}."""
    os.makedirs(dst_dir, exist_ok=True)
    shards = plan_shards(src_dir, file_pattern)
    pipe = Pipeline(processors or [])

    todo = []
    skipped = 0
    for s in shards:
        man = read_json(os.path.join(dst_dir, f"part-{s['part']:05d}.manifest.json"), {})
        if man.get("input_rows") == s["rows"]:
            skipped += 1
            continue
        todo.append(s)

    def one_shard(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            tbl = pq.read_table(row["path"], columns=columns)
            df = pipe(tbl.to_pandas())
            out_path = os.path.join(dst_dir, f"part-{row['part']:05d}.parquet")
            tmp = out_path + ".tmp"
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp)
            os.replace(tmp, out_path)
            atomic_write_json(out_path.replace(".parquet", ".manifest.json"),
                              {"input_path": row["path"], "input_rows": row["rows"],
                               "output_rows": len(df)})
            outs.append({"part": row["part"], "rows": len(df)})
        return pa.Table.from_pylist(outs)

    rows = 0
    if todo:
        res = (
            rd.from_items(todo, override_num_blocks=len(todo))
            .map_batches(one_shard, batch_size=1, batch_format="pyarrow", num_cpus=1)
            .take_all()
        )
        rows = sum(r["rows"] for r in res)
    return {"shards": len(shards), "skipped": skipped, "rows": rows}


def _rewrite_partition(s, docs, _scores, cfg: dict) -> pa.Table:
    """One partition's task of the engine's all-hits pass: with the query's
    hits ``docs`` in hand, rewrite the partition's OWN input files —
    delete-by-query drops matching rows, update-by-query pipes matching rows
    through the processor chain. No broadcast of a corpus-sized id set;
    output is one file per input file (partitioned; the destination is
    recreated fresh each run)."""
    import numpy as np

    pipe = Pipeline(cfg["processors"])  # Pipeline([]) is the identity
    paths = s.r.manifest["input_path"]
    if isinstance(paths, str):
        paths = [paths]
    base = 0
    n_out = 0
    for fi, pth in enumerate(paths):
        t = pq.read_table(pth)
        n = len(t)
        in_file = docs[(docs >= base) & (docs < base + n)] - base
        mask = np.zeros(n, dtype=bool)
        mask[in_file] = True
        if cfg["mode"] == "delete":
            t = t.filter(pa.array(~mask))
        elif mask.any():  # update: pipe matching rows, splice back
            df = t.to_pandas()
            out = pipe(df.loc[mask].copy())
            # splice POSITIONALLY (label alignment would NaN-fill if a
            # processor reindexed); row-dropping or column-removing
            # processors cannot be spliced — that's reindex_query's job
            if len(out) != int(mask.sum()):
                raise ValueError("update_by_query processors must keep the "
                                 "row count (use reindex_query to drop rows)")
            for c in out.columns:  # script-added fields extend the schema
                if c not in df.columns:
                    df[c] = None
            missing = set(df.columns) - set(out.columns)
            if missing:
                raise ValueError(f"update_by_query processors removed "
                                 f"columns {sorted(missing)}")
            df.loc[mask, list(df.columns)] = out[list(df.columns)].to_numpy()
            t = pa.Table.from_pandas(df, preserve_index=False)
        out_path = os.path.join(cfg["dst_dir"], f"part-{s.part:05d}-{fi:03d}.parquet")
        tmp = out_path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, out_path)
        n_out += len(t)
        base += n
    return pa.table({"part": [s.part], "rows": [n_out]})


def _by_query(engine, dst_dir: str, q, mode: str, processors: list | None) -> int:
    import shutil

    shutil.rmtree(dst_dir, ignore_errors=True)  # deterministic names: stale
    os.makedirs(dst_dir, exist_ok=True)         # files must not mix in
    res = engine._all_hits_ds(q, _rewrite_partition, dst_dir=dst_dir, mode=mode,
                              processors=processors or []).take_all()
    if mode == "update" and processors:
        _unify_output_schema(dst_dir)
    return sum(r["rows"] for r in res)


def _unify_output_schema(dst_dir: str) -> None:
    """Processor-added columns only appear in output files whose slice had
    matching rows; schema-strict readers (ray.data.read_parquet, a rebuild
    over the destination) would fail or drop the column. Unify: footer-only
    schema scan (cheap), then rewrite ONLY the non-conforming files with
    null-filled missing columns in the union column order."""
    paths = sorted(
        os.path.join(dst_dir, f) for f in os.listdir(dst_dir) if f.endswith(".parquet")
    )
    schemas = [pq.read_schema(p) for p in paths]
    union = pa.unify_schemas(schemas)
    for p, s in zip(paths, schemas):
        if s.equals(union):
            continue
        t = pq.read_table(p)
        cols = [
            t[f.name].cast(f.type) if f.name in t.column_names else pa.nulls(len(t), f.type)
            for f in union
        ]
        tmp = p + ".tmp"
        pq.write_table(pa.table(dict(zip(union.names, cols))), tmp)
        os.replace(tmp, p)


def delete_by_query(engine, dst_dir: str, q) -> int:
    """delete-by-query (TransportDeleteByQueryAction analog) over the
    immutable corpus: writes a new partitioned corpus WITHOUT the matching
    rows; returns rows written. Each partition task is self-contained."""
    return _by_query(engine, dst_dir, q, "delete", None)


def update_by_query(engine, dst_dir: str, q, processors: list) -> int:
    """update-by-query (TransportUpdateByQueryAction analog): matching rows
    run through the ingest-processor chain (the script's role), all rows are
    rewritten to the destination corpus."""
    return _by_query(engine, dst_dir, q, "update", processors)


def reindex_query(engine, dst_dir: str, q, processors: list | None = None,
                  source_columns: tuple = ("text", "lang"),
                  fetch: tuple = ("doc_id",)) -> int:
    """Query-filtered reindex (``Reindexer.java`` source-with-query +
    ``remote.query`` surface): the distributed sliced scroll
    (``engine.scan_dataset``) heads the pipeline, ingest processors run per
    batch, and the partitioned parquet sink streams — index → query →
    transform → sink without any driver materialization. Returns rows
    written."""
    pipe = Pipeline(processors or [])
    ds = engine.scan_dataset(q, fetch=fetch, source_columns=source_columns)

    def xf(df):
        return pipe(df)

    ds = ds.map_batches(xf, batch_format="pandas")
    # fresh sink: write_parquet emits uuid-named files, so stale output from
    # a previous run would otherwise mix into (and inflate) the result
    import shutil

    shutil.rmtree(dst_dir, ignore_errors=True)
    os.makedirs(dst_dir, exist_ok=True)
    ds.write_parquet(dst_dir)
    import glob

    return sum(pq.read_metadata(p).num_rows
               for p in glob.glob(os.path.join(dst_dir, "*.parquet")))
