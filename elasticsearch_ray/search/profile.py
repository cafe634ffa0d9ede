"""Search profiler + _cat APIs.

Profiler (``server/.../search/profile/ProfileResult.java``,
``query/QueryProfiler.java``, SearchSourceBuilder ``profile: true``):
``profile_search`` is the engine's own query phase with timing switched on.
It passes the same gate as a search (``QueryEngine._read_gate``: a closed
or read-blocked index refuses it), runs on a snapshot of the engine
(``_pinned``), prepares the query with ``_prepare`` and runs
``QueryEngine._query_phase`` with a ``lap`` callback that timestamps each
phase, so it scores the same partitions, is placed the same way (the
driver's readers or a fan-out to the searcher actors) and returns the SAME
hits a plain search returns, plus the profile tree. ``phases`` times
rewrite, weight creation (the stats/scorer phase), can_match pruning, merge
(and rescore) and fetch. ``shards`` has one entry per scoring pass, like
the reference's per-shard ProfileShardResult: one for the driver, or one per
actor of a fan-out, each naming the candidate partitions it scored, with
its ``collected_hits`` and the fan-out's wall time as the driver saw it.

_cat (``rest/action/cat/RestIndicesAction.java``,
``RestSegmentsAction.java``, ``RestCountAction.java``): fixed-column
pandas frames over existing metadata — nothing is opened or scanned
beyond manifests and file sizes, matching the reference's cheap cat
endpoints.
"""

from __future__ import annotations

import time

import pandas as pd


def profile_search(eng, q, k: int = 10, mode: str = "bmw",
                   fetch: tuple = ("doc_id",)) -> dict:
    """Profile a top-k search. Returns ``{"hits", "took_ms",
    "profile"}`` where profile mirrors the reference's shape: a
    ``shards`` list with one query timing per scoring pass plus coordinator
    ``phases``."""
    return eng._read_gate(lambda: _profile(eng._pinned(), q, k, mode, fetch))


def _profile(eng, q, k, mode, fetch) -> dict:
    t = {"start": time.perf_counter_ns()}
    passes = []

    def lap(phase, *info):
        t[phase] = time.perf_counter_ns()
        if phase == "query":
            parts, pool, results = info
            owners = ({f"actor={a}": ps for a, ps in eng._actor_shares(parts, pool).items()}
                      if pool else {"driver": parts} if parts else {})
            passes.extend(zip(owners.items(), results))

    q = eng._prepare(q)
    t["rewrite"] = time.perf_counter_ns()
    hits = eng._attach_fetch(eng._query_phase(q, k, mode, {}, lap), fetch)
    t["fetch"] = time.perf_counter_ns()
    query_ns = t["query"] - t["can_match"]
    return {
        "hits": hits,
        "took_ms": (t["fetch"] - t["start"]) / 1e6,
        "profile": {
            "phases": {"rewrite": t["rewrite"] - t["start"],
                       "create_weight": t["create_weight"] - t["rewrite"],
                       "can_match": t["can_match"] - t["create_weight"],
                       "merge": t["merge"] - t["query"],
                       "fetch": t["fetch"] - t["merge"]},
            "shards": [{
                "id": f"[{who}][part={','.join(map(str, ps))}]",
                "searches": [{"query": [{
                    "type": type(q).__name__,
                    "description": repr(q),
                    "time_in_nanos": query_ns,
                    "breakdown": {"score": query_ns,
                                  "collected_hits": int(len(r[0]))},
                }]}],
            } for (who, ps), r in passes],
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
