"""Rollup / downsample job packaging (SURVEY beyond-§2:
``x-pack/plugin/rollup/.../RollupIndexer.java``, ``RollupJobConfig`` /
``DateHistogramGroupConfig`` / ``MetricConfig``, and the TSDB downsample
action's query-side routing).

A rollup JOB aggregates a raw event stream into a small destination
("rollup index") keyed by a calendar-floored timestamp × term columns,
storing per-metric ``{field}.{metric}`` columns. Like the reference, avg
is never stored directly — ``sum`` + ``value_count`` are, so the rollup
can be RE-AGGREGATED exactly to any coarser aligned interval at query
time (``RollupResponseTranslator`` recomposes avg the same way).

Execution rides :func:`pivot_transform` — one Ray map-side-combined
groupby-aggregate over the raw Dataset, crash-atomic spec-keyed
destination — plus a ``rollup_job.json`` carrying the job config.

Query-side routing (``rollup_search``): a request at interval R is served
from a job at interval J iff J is calendar-ALIGNED under R (minute→hour→
day→{week | month→quarter→year}; a week rollup can serve nothing coarser
— month boundaries don't align with weeks). Serving = re-floor the
rollup's own timestamps and combine partials (sum of sums, min of mins,
max of maxes, summed value_counts, avg = Σsum/Σcount) — pure pandas over
the already-tiny rollup frame.
"""

from __future__ import annotations

import errno
import os

import pandas as pd

from elasticsearch_ray.index.segments import atomic_write_json, read_json
from elasticsearch_ray.ops.analytics import calendar_floor
from elasticsearch_ray.pipelines.transform import _dest_manifest, pivot_transform

# unit → the set of units a rollup AT that unit can serve (itself + all
# calendar-aligned coarser units)
_SERVES: dict[str, tuple[str, ...]] = {
    "second": ("second", "minute", "hour", "day", "week", "month",
               "quarter", "year"),
    "minute": ("minute", "hour", "day", "week", "month", "quarter", "year"),
    "hour": ("hour", "day", "week", "month", "quarter", "year"),
    "day": ("day", "week", "month", "quarter", "year"),
    "week": ("week",),
    "month": ("month", "quarter", "year"),
    "quarter": ("quarter", "year"),
    "year": ("year",),
}

_COMBINE = {"sum": "sum", "min": "min", "max": "max", "value_count": "sum"}


def run_rollup_job(ds, dest_dir: str, ts_field: str, interval: str,
                   terms: list[str], metrics: dict[str, list[str]],
                   input_fingerprint: str | None = None,
                   index_pattern: str = "*") -> pd.DataFrame:
    """Execute a rollup job: ``metrics`` is ``{field: [metric...]}`` with
    metrics from sum/min/max/avg/value_count. Requesting ``avg`` stores
    ``sum`` + ``value_count`` instead (recomposed at query time). Returns
    the rollup frame; destination carries the data + job config."""
    if interval not in _SERVES:
        raise ValueError(f"unknown calendar interval {interval!r}")
    stored: dict[str, list[str]] = {}
    for field, ms in metrics.items():
        out = set()
        for m in ms:
            if m == "avg":
                out |= {"sum", "value_count"}
            elif m in _COMBINE:
                out.add(m)
            else:
                raise ValueError(f"unknown rollup metric {m!r} for {field!r}")
        stored[field] = sorted(out)
    aggs = {}
    for field, ms in stored.items():
        for m in ms:
            # value_count = NON-NULL count of the metric field (ES
            # MetricConfig semantics; avg recomposition depends on it)
            aggs[f"{field}.{m}"] = (m, field)
    frame = pivot_transform(ds, dest_dir,
                            group_by=[ts_field] + list(terms),
                            date_floor={ts_field: interval},
                            aggs=aggs,
                            input_fingerprint=input_fingerprint)
    # metrics sorted by field: rollup_search serves their columns in this order
    atomic_write_json(os.path.join(dest_dir, "rollup_job.json"),
                      {"ts_field": ts_field, "interval": interval,
                       "terms": list(terms), "metrics": dict(sorted(stored.items())),
                       "index_pattern": index_pattern})
    return frame


def rollup_config(dest_dir: str) -> dict:
    p = os.path.join(dest_dir, "rollup_job.json")
    if (cfg := read_json(p)) is None:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), p)
    return cfg


def _job_caps(dest_dir: str) -> dict:
    """RollupJobCaps shape (``rollup/action/RollupJobCaps.java``): the
    per-field capability map a search layer uses to decide which jobs
    can serve which aggregations."""
    cfg = rollup_config(dest_dir)
    fields: dict[str, list[dict]] = {
        cfg["ts_field"]: [{"agg": "date_histogram",
                           "calendar_interval": cfg["interval"],
                           "time_zone": "UTC"}],
    }
    for t in cfg["terms"]:
        fields.setdefault(t, []).append({"agg": "terms"})
    for f, ms in cfg["metrics"].items():
        caps = [{"agg": m} for m in ms]
        if {"sum", "value_count"} <= set(ms):
            caps.append({"agg": "avg"})  # recomposable, advertised
        fields.setdefault(f, []).extend(caps)
    return {"job_id": os.path.basename(os.path.abspath(dest_dir)),
            "rollup_index": os.path.abspath(dest_dir),
            "index_pattern": cfg.get("index_pattern", "*"),
            "fields": fields}


def get_rollup_caps(dest_dirs: list[str],
                    index_pattern: str = "_all") -> dict:
    """``GET _rollup/data/<pattern>`` (TransportGetRollupCapsAction):
    jobs grouped by the RAW index pattern they roll up; ``_all`` or a
    ``*`` pattern matches like the reference's simple wildcard."""
    import fnmatch

    out: dict[str, dict] = {}
    for d in dest_dirs:
        caps = _job_caps(d)
        pat = caps["index_pattern"]
        if index_pattern not in ("_all", pat) and \
                not fnmatch.fnmatchcase(pat, index_pattern):
            continue
        out.setdefault(pat, {"rollup_jobs": []})["rollup_jobs"].append(caps)
    return out


def get_rollup_index_caps(dest_dir: str) -> dict:
    """``GET <rollup_index>/_rollup/data``
    (TransportGetRollupIndexCapsAction): capabilities of the jobs that
    WROTE this rollup index (one job per destination here)."""
    caps = _job_caps(dest_dir)
    return {caps["rollup_index"]: {"rollup_jobs": [caps]}}


def rollup_search(dest_dir: str, interval: str,
                  metrics: dict[str, list[str]] | None = None
                  ) -> pd.DataFrame:
    """Serve a date_histogram(calendar_interval=``interval``) × terms
    aggregation FROM the rollup index — raises if the job's interval
    cannot align to the requested one (caller then falls back to the raw
    table). ``metrics=None`` returns everything the job stored plus any
    recomposable avg."""
    cfg = rollup_config(dest_dir)
    job_unit = cfg["interval"]
    if interval not in _SERVES.get(job_unit, ()):
        raise ValueError(
            f"rollup at {job_unit!r} cannot serve calendar interval "
            f"{interval!r} (alignment: {_SERVES.get(job_unit)})")
    man = _dest_manifest(dest_dir)
    if man is None:
        raise FileNotFoundError(f"rollup {dest_dir!r} has no transform manifest")
    frame = pd.read_parquet(os.path.join(dest_dir, man["data_file"]))
    ts, terms = cfg["ts_field"], cfg["terms"]
    frame[ts] = calendar_floor(frame[ts], interval)
    if metrics is None:
        metrics = {f: ms + (["avg"] if {"sum", "value_count"} <= set(ms)
                            else [])
                   for f, ms in cfg["metrics"].items()}
    plan = {}  # stored column → pandas combine fn
    for field, ms in metrics.items():
        stored = set(cfg["metrics"].get(field, ()))
        for m in ms:
            need = {"sum", "value_count"} if m == "avg" else {m}
            if not need <= stored:
                raise ValueError(f"job did not store {sorted(need)} for "
                                 f"{field!r} (has {sorted(stored)})")
            for s in need:
                plan[f"{field}.{s}"] = _COMBINE[s]
    out = (frame.groupby([ts] + terms, as_index=False)
           .agg(plan)
           .sort_values([ts] + terms)
           .reset_index(drop=True))
    for field, ms in metrics.items():
        if "avg" in ms:
            out[f"{field}.avg"] = (out[f"{field}.sum"]
                                   / out[f"{field}.value_count"])
            if "sum" not in ms:
                out = out.drop(columns=[f"{field}.sum"])
            if "value_count" not in ms:
                out = out.drop(columns=[f"{field}.value_count"])
    return out
