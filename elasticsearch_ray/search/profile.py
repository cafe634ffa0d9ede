"""Search profiler + _cat APIs.

Profiler (``server/.../search/profile/ProfileResult.java``,
``query/QueryProfiler.java``, SearchSourceBuilder ``profile: true``):
``profile_search`` runs the engine's local top-k path with per-phase wall
timing — rewrite, weight creation (the stats/scorer phase), can_match
pruning, per-partition scoring (one entry per shard, like the reference's
per-shard ProfileShardResult), merge, fetch. It keeps its own
per-partition loop (for the per-shard timings): each partition is a
one-segment top-k pass (``PartitionSearcher.topk`` alone, in local docs),
where a search scores all of a process's candidate partitions in one pass
(``SegmentSpace.hits``) — the same hits, since BMW is exact either way.
It passes the same gate
as a search (``QueryEngine._read_gate``: a closed or read-blocked index
refuses it), runs on a snapshot of the engine (``_pinned``) and reuses the
engine's query preparation (``_prepare``), candidate selection
(``_candidate_parts``), top-k collector (``PartitionSearcher.topk``) and
hit merge (``engine._merge_hits``), so it scores the same partitions and
returns the SAME hits a plain search returns, plus the profile tree.

_cat (``rest/action/cat/RestIndicesAction.java``,
``RestSegmentsAction.java``, ``RestCountAction.java``): fixed-column
pandas frames over existing metadata — nothing is opened or scanned
beyond manifests and file sizes, matching the reference's cheap cat
endpoints.
"""

from __future__ import annotations

import time

import pandas as pd

from elasticsearch_ray.search.engine import _hits_table, _merge_hits


def profile_search(eng, q, k: int = 10, mode: str = "bmw",
                   fetch: tuple = ("doc_id",)) -> dict:
    """Profile a top-k search. Returns ``{"hits", "took_ms",
    "profile"}`` where profile mirrors the reference's shape: a
    ``shards`` list with per-partition query timings plus coordinator
    ``phases``."""
    return eng._read_gate(lambda: _profile(eng._pinned(), q, k, mode, fetch))


def _profile(eng, q, k, mode, fetch) -> dict:
    t_start = time.perf_counter_ns()

    t0 = time.perf_counter_ns()
    q2 = eng._prepare(q)
    rewrite_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    scorers = eng._scorers_cached(q2)
    create_weight_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    cand = eng._candidate_parts(q2)
    can_match_ns = time.perf_counter_ns() - t0

    shards = []
    results = []
    for p in cand:
        t0 = time.perf_counter_ns()
        d, s = eng._searcher(p).topk(q2, scorers, k, mode)
        score_ns = time.perf_counter_ns() - t0
        shards.append({
            "id": f"[part={p}]",
            "searches": [{"query": [{
                "type": type(q2).__name__,
                "description": repr(q2),
                "time_in_nanos": score_ns,
                "breakdown": {"score": score_ns,
                              "collected_hits": int(len(d))},
            }]}],
        })
        results.append((p, (d, s)))

    t0 = time.perf_counter_ns()
    tbl = _merge_hits(_hits_table(results), k)
    merge_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    tbl = eng._attach_fetch(tbl, fetch)
    fetch_ns = time.perf_counter_ns() - t0

    took = time.perf_counter_ns() - t_start
    return {
        "hits": tbl,
        "took_ms": took / 1e6,
        "profile": {
            "phases": {"rewrite": rewrite_ns,
                       "create_weight": create_weight_ns,
                       "can_match": can_match_ns,
                       "merge": merge_ns, "fetch": fetch_ns},
            "shards": shards,
        },
    }


# ------------------------------------------------------------------ _cat

def cat_indices(indices: dict[str, object]) -> pd.DataFrame:
    """RestIndicesAction analog: one row per index. ``indices`` maps
    index names to QueryEngine instances."""
    rows = []
    for name, eng in sorted(indices.items()):
        du = eng.disk_usage()
        rows.append({"index": name, "pri": len(eng.parts),
                     "docs.count": int(eng.n_docs),
                     "store.size_bytes": int(du["total_in_bytes"])})
    return pd.DataFrame(rows, columns=["index", "pri", "docs.count",
                                       "store.size_bytes"])


def cat_segments(eng) -> pd.DataFrame:
    """RestSegmentsAction analog: one row per partition segment."""
    rows = []
    for seg in eng.segments():
        rows.append({"segment": f"part={seg['partition']:05d}",
                     "docs.count": seg["n_docs"],
                     "size_bytes": seg["size_in_bytes"],
                     "version": seg["format"]})
    return pd.DataFrame(rows, columns=["segment", "docs.count",
                                       "size_bytes", "version"])


def cat_count(eng) -> pd.DataFrame:
    """RestCountAction analog."""
    return pd.DataFrame([{"count": int(eng.n_docs)}])
