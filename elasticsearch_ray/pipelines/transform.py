"""Transforms — the reference's x-pack transform module
(`x-pack/plugin/transform/.../transforms/pivot/Pivot.java` and
`latest/Latest.java`): batch jobs that read an index and write a
summarized DESTINATION index.

- **pivot**: group_by sources (terms and/or date_histogram) + per-group
  metric aggregations → one destination row per group tuple.
- **latest**: one destination row per unique key — the row with the
  maximum sort value (Latest.java composes top_hits size=1 per bucket;
  here it's a sort by (key, sort) + per-block vectorized LAST-by-key,
  the ops/components.py range-partition pattern — no per-group Python).

Both write partitioned Parquet destinations with an atomic manifest
(resume = skip when the manifest matches the source fingerprint), the
repo's checkpoint discipline (index/build.py) applied to transforms —
the analog of the transform checkpoint documents."""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from elasticsearch_ray.index.segments import atomic_write_json, read_json

_AGGS = {"sum": Sum, "avg": Mean, "min": Min, "max": Max}


def _manifest_path(dest_dir: str) -> str:
    return os.path.join(dest_dir, "transform_manifest.json")


def _dest_manifest(dest_dir: str) -> dict | None:
    return read_json(_manifest_path(dest_dir))


def _spec_key(spec: dict, fingerprint: str | None) -> str:
    import hashlib

    return hashlib.sha1(
        json.dumps([spec, fingerprint], sort_keys=True).encode()
    ).hexdigest()[:12]


def _resume(dest_dir: str, spec: dict, fingerprint: str | None):
    """Serve the destination iff the manifest matches (spec, fingerprint)
    AND the data file it POINTS TO exists — the data file name embeds the
    spec key, so a crash between writing new data and the manifest can
    never pair an old manifest with new rows."""
    man = _dest_manifest(dest_dir)
    if not man:
        return None
    if man.get("spec") != json.loads(json.dumps(spec)) \
            or man.get("input_fingerprint") != fingerprint:
        return None
    p = os.path.join(dest_dir, man.get("data_file", ""))
    return pd.read_parquet(p) if man.get("data_file") and os.path.exists(p) \
        else None


def _publish(dest_dir: str, spec: dict, fingerprint: str | None,
             frame: pd.DataFrame) -> None:
    os.makedirs(dest_dir, exist_ok=True)
    data_file = f"dest-{_spec_key(spec, fingerprint)}.parquet"
    tmp = os.path.join(dest_dir, data_file + ".tmp")
    frame.to_parquet(tmp, index=False)
    os.replace(tmp, os.path.join(dest_dir, data_file))
    atomic_write_json(_manifest_path(dest_dir),
                      {"spec": spec, "input_fingerprint": fingerprint,
                       "data_file": data_file, "n_rows": int(len(frame))})


def pivot_transform(ds: Dataset, dest_dir: str, group_by: list[str],
                    aggs: dict[str, tuple[str, str]],
                    date_floor: dict[str, str] | None = None,
                    input_fingerprint: str | None = None) -> pd.DataFrame:
    """Pivot: ``group_by`` columns (optionally date-floored via
    ``date_floor={col: unit}``) × ``aggs={out_name: (fn, col)}`` with fn
    in sum/avg/min/max/count. Executes as ONE Ray groupby-aggregate
    (map-side combine keeps the shuffle group-sized); writes the
    destination Parquet + manifest, returns the (small) result frame."""
    spec = {"kind": "pivot", "group_by": group_by, "aggs": aggs,
            "date_floor": date_floor or {}}
    cached = _resume(dest_dir, spec, input_fingerprint)
    if cached is not None:
        return cached
    for out, (fn, _col) in aggs.items():
        if fn not in _AGGS and fn not in ("count", "value_count"):
            raise ValueError(f"unknown pivot aggregation {fn!r} for {out!r}; "
                             f"known: {sorted(_AGGS) + ['count', 'value_count']}")
    if date_floor:
        from elasticsearch_ray.ops.analytics import calendar_floor

        def floor_cols(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            for c, u in date_floor.items():
                df[c] = calendar_floor(df[c], u)
            return pa.Table.from_pandas(df, preserve_index=False)

        ds = ds.map_batches(floor_cols, batch_format="pyarrow")
    ray_aggs = []
    for out, (fn, col) in aggs.items():
        if fn == "count":
            ray_aggs.append(Count(alias_name=out))
        elif fn == "value_count":
            # non-null value count (the ES value_count metric — row count
            # diverges whenever the metric column has nulls, review r5 #2)
            ray_aggs.append(Count(col, ignore_nulls=True, alias_name=out))
        else:
            ray_aggs.append(_AGGS[fn](col, alias_name=out))
    res = (ds.groupby(list(group_by)).aggregate(*ray_aggs).to_pandas()
           .sort_values(list(group_by)).reset_index(drop=True))
    _publish(dest_dir, spec, input_fingerprint, res)
    return res


def latest_transform(ds: Dataset, dest_dir: str, unique_key: str,
                     sort_col: str,
                     input_fingerprint: str | None = None) -> pd.DataFrame:
    """Latest: the max-``sort_col`` row per ``unique_key``. Deterministic
    whenever (key, sort) pairs are unique; under exact (key, sort) TIES
    the final pick breaks on the remaining columns, but the block-local
    combiner may already have dropped a tied row, so tie choice is
    block-layout-dependent — the same caveat the reference has (Latest
    composes top_hits sorted on the sort field alone)."""
    spec = {"kind": "latest", "unique_key": unique_key, "sort_col": sort_col}
    cached = _resume(dest_dir, spec, input_fingerprint)
    if cached is not None:
        return cached

    def last_by_key(batch: pa.Table) -> pa.Table:
        k = batch[unique_key].to_numpy(zero_copy_only=False)
        # sorted by (key, sort): the LAST row of each key run wins
        last = np.r_[np.flatnonzero(k[1:] != k[:-1]), len(k) - 1]
        return batch.take(pa.array(last))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        tie = [c for c in g.columns if c != sort_col]
        return g.sort_values([sort_col] + tie, kind="stable").tail(1)

    # two-phase reduce: a block-local vectorized last-by-key COMBINER
    # (batch_size=None = one sorted block per batch), then a hash-grouped
    # final pick — Ray sort boundaries are row-based and can split a key
    # across blocks, so block-local winners alone can duplicate keys; the
    # final groupby sees at most #blocks candidates per key
    out = (ds.sort([unique_key, sort_col])
           .map_batches(last_by_key, batch_format="pyarrow", batch_size=None)
           .groupby(unique_key)
           .map_groups(pick, batch_format="pandas")
           .to_pandas().sort_values(unique_key).reset_index(drop=True))
    _publish(dest_dir, spec, input_fingerprint, out)
    return out


# ------------------------------------------------------- continuous mode


def continuous_pivot(ds: Dataset, dest_dir: str, group_by: list[str],
                     aggs: dict[str, tuple[str, str]], sync_field: str,
                     checkpoint_upper,
                     date_floor: dict[str, str] | None = None
                     ) -> pd.DataFrame:
    """One CONTINUOUS-transform checkpoint (TransformIndexer continuous
    mode + CompositeBucketsChangeCollector + TransformCheckpoint):

    1. the new slice is ``last_upper < sync_field <= checkpoint_upper``;
    2. the change collector extracts the DISTINCT group tuples present in
       that slice (after date-flooring, so a changed calendar bucket is a
       changed key — the reference collects changed composite buckets);
    3. ONLY those keys' aggregates are recomputed, over the full source
       masked to the changed keys (the reference issues the pivot query
       with a terms filter per changed bucket);
    4. recomputed rows upsert into the destination; unchanged rows are
       carried over byte-identical.

    State rides in the destination manifest (checkpoint number +
    sync_upper), with the same crash-atomic spec-keyed data-file
    discipline as the batch transforms: re-running an already-processed
    upper bound is a no-op served from the manifest. Scale shape: the
    expensive full-source pass touches only (group_by, agg columns) and
    reduces to |changed keys| groups — idle checkpoints cost one slice
    scan and nothing else."""
    base_spec = {"kind": "continuous_pivot", "group_by": group_by,
                 "aggs": aggs, "date_floor": date_floor or {},
                 "sync_field": sync_field}
    man = _dest_manifest(dest_dir)
    prev_upper = None
    checkpoint = 0
    prev = pd.DataFrame(columns=list(group_by) + list(aggs))
    upper = pd.Timestamp(checkpoint_upper)
    if man and man.get("spec") == json.loads(json.dumps(base_spec)):
        prev_upper = pd.Timestamp(man["sync_upper"]) \
            if man.get("sync_upper") is not None else None
        checkpoint = int(man.get("checkpoint", 0))
        if prev_upper is not None and upper <= prev_upper:
            # already processed through this bound — serve the manifest
            return pd.read_parquet(os.path.join(dest_dir, man["data_file"]))
        p = os.path.join(dest_dir, man.get("data_file", ""))
        if man.get("data_file") and os.path.exists(p):
            prev = pd.read_parquet(p)
    lo = prev_upper

    def floored(d: Dataset) -> Dataset:
        if not date_floor:
            return d
        from elasticsearch_ray.ops.analytics import calendar_floor

        def fl(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            for c, u in date_floor.items():
                df[c] = calendar_floor(df[c], u)
            return df

        return d.map_batches(fl, batch_format="pandas")

    def in_window(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.to_datetime(df[sync_field])
        m = t <= upper
        if lo is not None:
            m &= t > lo
        return df[m]

    # change collector: distinct changed group tuples in the new slice
    changed = (floored(ds.map_batches(in_window, batch_format="pandas"))
               .map_batches(
                   lambda df: df[list(group_by)].drop_duplicates(),
                   batch_format="pandas")
               .to_pandas().drop_duplicates().reset_index(drop=True))
    if changed.empty:
        _publish_checkpoint(dest_dir, base_spec, checkpoint + 1, upper,
                            prev)
        return prev

    def cut_raw(df: pd.DataFrame) -> pd.DataFrame:
        # the checkpoint's consistent view is bounded on the RAW sync
        # value — flooring first would pull rows past the upper bound
        # into their (floored) changed bucket (review r5 #3)
        return df[pd.to_datetime(df[sync_field]) <= upper]

    def only_changed(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        return df.merge(changed, on=list(group_by), how="inner")

    recomputed = pivot_transform(
        floored(ds.map_batches(cut_raw, batch_format="pandas"))
        .map_batches(only_changed, batch_format="pandas"),
        os.path.join(dest_dir, "_recompute"), group_by, aggs,
        input_fingerprint=f"ckpt-{checkpoint + 1}-{upper}")
    keep = prev
    if len(prev):
        m = prev.merge(changed, on=list(group_by), how="left",
                       indicator=True)
        keep = prev[(m["_merge"] == "left_only").to_numpy()]
    out = recomputed if not len(keep) else \
        pd.concat([keep, recomputed], ignore_index=True)
    out = out.sort_values(list(group_by)).reset_index(drop=True)
    _publish_checkpoint(dest_dir, base_spec, checkpoint + 1, upper, out)
    return out


def _publish_checkpoint(dest_dir: str, spec: dict, checkpoint: int,
                        upper, frame: pd.DataFrame) -> None:
    """Crash-atomic: the checkpoint-keyed data file lands first, then ONE
    manifest write points at it (a crash in between leaves the previous
    manifest intact and the next run redoes this checkpoint)."""
    os.makedirs(dest_dir, exist_ok=True)
    data_file = f"dest-ckpt{checkpoint}-{_spec_key(spec, str(upper))}.parquet"
    tmp = os.path.join(dest_dir, data_file + ".tmp")
    frame.to_parquet(tmp, index=False)
    os.replace(tmp, os.path.join(dest_dir, data_file))
    atomic_write_json(_manifest_path(dest_dir),
                      {"spec": spec, "checkpoint": int(checkpoint),
                       "sync_upper": str(upper), "data_file": data_file,
                       "n_rows": int(len(frame))})
