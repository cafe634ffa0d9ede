"""Cluster-ops APIs over index metadata + the Ray runtime:

- ``cluster_health`` — RestClusterHealthAction /
  ``cluster/health/ClusterHealthResponse.java``: green/yellow/red from
  per-partition manifest+file presence (a partition with a manifest but
  missing segment files = unassigned shard → red; replicas are logical
  here, so yellow maps to "index open but some replicas throttled/
  frozen").
- ``cluster_stats`` — ``admin/cluster/stats/ClusterStatsResponse.java``:
  aggregate index/shard/doc/store-byte counts + the node roll-up from
  Ray's node table (``ray.nodes()``).
- ``nodes_info`` / ``nodes_stats`` — ``admin/cluster/node/info|stats``:
  one row per Ray node (the node IS the data node analog), cpu/memory
  resources, alive flag, object-store capacity.
- ``autoscaling_capacity`` — x-pack autoscaling
  (``ReactiveStorageDeciderService.java`` shape): required storage =
  current store bytes × headroom vs the policy's fixed capacity floor;
  returns the API's {policies: {name: {required_capacity}}} shape.
- ``deprecation_info`` — x-pack deprecation
  (``DeprecationInfoAction.java``): index-settings checks that map to
  REAL reference deprecations reachable from this engine's spec surface
  (frozen indices — deprecated 7.14; ``classic`` similarity — removed
  in 8; ``max_result_window`` raised past the 10000 default —
  soft-limit advisory).
- ``collect_monitoring`` — the monitoring plugin's collector loop
  (``monitoring/.../Collector.java``): one cluster_stats doc + one
  index_stats doc per index per collection tick, timestamped by the
  caller (determinism: no wall-clock reads inside).

All functions read ONLY manifests/file sizes and Ray's node table —
nothing opens segments, matching the reference's cheap admin endpoints.
"""

from __future__ import annotations

import os

import pandas as pd

from elasticsearch_ray.index import state
from elasticsearch_ray.index.segments import part_dir

_SEGMENT_FILES = ("terms.parquet", "postings.bin", "docs.parquet",
                  "manifest.json")


def _index_store_bytes(index_dir: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def index_health(index_dir: str) -> dict:
    """Per-index health: active vs unassigned count of the partitions the
    committed part list names (a part directory it does not list, left by a
    crashed build or merge, is not a shard)."""
    snap = state.snapshot(index_dir)
    expected = len(snap.parts)
    active = 0
    for p in snap.parts:
        d = part_dir(index_dir, p.part)
        if all(os.path.exists(os.path.join(d, f)) for f in _SEGMENT_FILES):
            active += 1
    frozen = snap.frozen
    if active == expected:
        status = "yellow" if frozen else "green"
    elif active > 0:
        status = "yellow"
    else:
        status = "red"
    return {
        "status": status,
        "number_of_shards": expected,
        "active_shards": active,
        "unassigned_shards": expected - active,
        "n_docs": snap.n_docs,
        "frozen": frozen,
    }


def cluster_health(indices: dict[str, str]) -> dict:
    """{name: index_dir} → the _cluster/health response shape. Overall
    status is the worst per-index status (the reference's rule)."""
    rank = {"green": 0, "yellow": 1, "red": 2}
    per = {name: index_health(d) for name, d in indices.items()}
    worst = max((h["status"] for h in per.values()),
                key=lambda s: rank[s], default="green")
    return {
        "status": worst,
        "number_of_indices": len(per),
        "active_shards": sum(h["active_shards"] for h in per.values()),
        "unassigned_shards": sum(h["unassigned_shards"]
                                 for h in per.values()),
        "indices": per,
    }


def _ray_nodes() -> list[dict]:
    try:
        import ray

        if ray.is_initialized():
            return ray.nodes()
    except Exception:
        pass
    return []


def nodes_info() -> pd.DataFrame:
    """_nodes: one row per Ray node — the data-node analog."""
    rows = []
    for n in _ray_nodes():
        res = n.get("Resources", {})
        rows.append({
            "node_id": n.get("NodeID", "")[:12],
            "host": n.get("NodeManagerHostname", ""),
            "alive": bool(n.get("Alive", False)),
            "roles": "data,ingest,master",  # every Ray node serves all
            "cpu": float(res.get("CPU", 0.0)),
            "memory_bytes": int(res.get("memory", 0)),
            "object_store_bytes": int(res.get("object_store_memory", 0)),
        })
    return pd.DataFrame(rows, columns=["node_id", "host", "alive",
                                       "roles", "cpu", "memory_bytes",
                                       "object_store_bytes"])


def nodes_stats() -> pd.DataFrame:
    """_nodes/stats: live resource totals per node (available vs
    logical) from Ray's resource accounting."""
    try:
        import ray

        avail = ray.available_resources() if ray.is_initialized() else {}
    except Exception:
        avail = {}
    df = nodes_info()
    if len(df):
        df["cpu_available"] = float(avail.get("CPU", 0.0))
        df["memory_available_bytes"] = int(avail.get("memory", 0))
    return df


def cluster_stats(indices: dict[str, str]) -> dict:
    """_cluster/stats: index aggregates + node roll-up."""
    health = cluster_health(indices)
    store = {name: _index_store_bytes(d) for name, d in indices.items()}
    nodes = nodes_info()
    return {
        "status": health["status"],
        "indices": {
            "count": len(indices),
            "shards_total": health["active_shards"]
            + health["unassigned_shards"],
            "docs_count": sum(h["n_docs"]
                              for h in health["indices"].values()),
            "store_size_bytes": sum(store.values()),
        },
        "nodes": {
            "count": int(len(nodes)),
            "total_cpu": float(nodes["cpu"].sum()) if len(nodes) else 0.0,
            "total_memory_bytes": int(nodes["memory_bytes"].sum())
            if len(nodes) else 0,
        },
    }


def autoscaling_capacity(indices: dict[str, str],
                         policies: dict[str, dict] | None = None) -> dict:
    """x-pack autoscaling _autoscaling/capacity analog. Each policy:
    ``{"storage_headroom": 1.5, "fixed_storage_bytes": 0}`` — required
    storage is max(current_store × headroom, fixed floor); memory
    requirement scales with shard count (the reactive decider's
    per-shard overhead model, 2**20 bytes/shard here)."""
    policies = policies or {"default": {}}
    store = sum(_index_store_bytes(d) for d in indices.values())
    shards = cluster_health(indices)
    n_shards = shards["active_shards"] + shards["unassigned_shards"]
    out = {}
    for name, p in policies.items():
        headroom = float(p.get("storage_headroom", 1.5))
        floor = int(p.get("fixed_storage_bytes", 0))
        req_storage = max(int(store * headroom), floor)
        req_memory = n_shards * (1 << 20)
        out[name] = {
            "required_capacity": {
                "total": {"storage": req_storage, "memory": req_memory},
            },
            "current_capacity": {"storage": store},
        }
    return {"policies": out}


def deprecation_info(indices: dict[str, str]) -> dict:
    """x-pack _migration/deprecations analog: real reference
    deprecations reachable from this engine's spec surface."""
    index_issues: dict[str, list] = {}
    for name, d in indices.items():
        issues = []
        snap = state.snapshot(d)
        spec = snap.meta.get("spec", {})
        if snap.frozen:
            issues.append({
                "level": "warning",
                "message": "frozen indices are deprecated",
                "details": "the freeze API is deprecated (7.14); "
                           "searchable snapshots / partially mounted "
                           "indices replace it",
            })
        if spec.get("similarity") == "classic":
            issues.append({
                "level": "critical",
                "message": "the [classic] similarity is removed in 8.0",
                "details": "migrate to BM25 or a configured DFR/LM "
                           "similarity",
            })
        mrw = spec.get("max_result_window")
        if mrw is not None and int(mrw) > 10000:
            issues.append({
                "level": "warning",
                "message": "index.max_result_window raised above 10000",
                "details": f"window of {mrw} makes deep pagination "
                           "memory-heavy; prefer search_after",
            })
        if issues:
            index_issues[name] = issues
    return {"index_settings": index_issues,
            "cluster_settings": [], "node_settings": []}


def collect_monitoring(indices: dict[str, str], ts: int) -> pd.DataFrame:
    """One collection tick: a cluster_stats doc + one index_stats doc
    per index (the .monitoring-es index's document stream). ``ts`` is
    the caller's collection timestamp (epoch ms) — no wall clock is
    read here so replays/retries are deterministic."""
    rows = []
    cs = cluster_stats(indices)
    rows.append({
        "timestamp": ts, "type": "cluster_stats", "index_name": "",
        "docs_count": cs["indices"]["docs_count"],
        "store_size_bytes": cs["indices"]["store_size_bytes"],
        "shards": cs["indices"]["shards_total"],
        "status": cs["status"],
    })
    for name, d in sorted(indices.items()):
        h = index_health(d)
        rows.append({
            "timestamp": ts, "type": "index_stats", "index_name": name,
            "docs_count": h["n_docs"],
            "store_size_bytes": _index_store_bytes(d),
            "shards": h["number_of_shards"],
            "status": h["status"],
        })
    return pd.DataFrame(rows)

# ------------------------------------------------------------ node shutdown
# x-pack shutdown plugin (PutShutdownNodeAction / GetShutdownStatusAction /
# DeleteShutdownNodeAction): register an intended node shutdown and report
# per-component migration readiness. The reference tracks shard-migration /
# persistent-task status for the draining node; here partitions stand in
# for shards — a `remove` shutdown reports every partition of every known
# index as needing relocation (COMPLETE once the caller re-plans them), a
# `restart` needs none (shards stay allocated).

_SHUTDOWNS: dict[str, dict] = {}

_SHUTDOWN_TYPES = ("restart", "remove", "replace")


def resolve_index(expressions, indices: dict[str, str],
                  alias_members: dict[str, list[str]] | None = None,
                  datastream_service=None) -> dict:
    """``GET _resolve/index/<expressions>``
    (``TransportResolveIndexAction`` / ``ResolveIndexAction.java``):
    resolve name-or-wildcard expressions against concrete indices,
    aliases, and data streams. Reference shape mirrored: each section is
    sorted by name; a data stream's backing indices appear ONLY through
    the stream entry unless an expression matches the backing name
    itself; concrete indices carry their ``open`` attribute and the
    aliases that point at them."""
    import fnmatch

    if isinstance(expressions, str):
        expressions = [expressions]
    alias_members = dict(alias_members or {})
    streams = []
    backing = {}  # backing index name -> stream
    if datastream_service is not None:
        for s in datastream_service.list_streams():
            info = datastream_service.get(s)
            streams.append(info)
            for b in info["indices"]:
                backing[b] = s

    def hits(names):
        return sorted({n for n in names
                       for ex in expressions
                       if fnmatch.fnmatchcase(n, ex)})

    idx_aliases: dict[str, list[str]] = {}
    for a, members in alias_members.items():
        for m in members:
            idx_aliases.setdefault(m, []).append(a)

    out_indices = []
    # concrete indices (data-stream backing indices only on exact/glob
    # match of the backing name itself)
    for name in hits(list(indices) + list(backing)):
        entry = {"name": name, "attributes": ["open"]}
        if name in idx_aliases:
            entry["aliases"] = sorted(idx_aliases[name])
        if name in backing:
            entry["data_stream"] = backing[name]
        out_indices.append(entry)
    out_aliases = [{"name": a, "indices": sorted(alias_members[a])}
                   for a in hits(alias_members)]
    out_streams = [{"name": s["name"],
                    "backing_indices": list(s["indices"]),
                    "timestamp_field": s["timestamp_field"]}
                   for s in sorted(streams, key=lambda x: x["name"])
                   if any(fnmatch.fnmatchcase(s["name"], ex)
                          for ex in expressions)]
    return {"indices": out_indices, "aliases": out_aliases,
            "data_streams": out_streams}


def put_node_shutdown(node_id: str, type_: str, reason: str,
                      target_node_name: str | None = None) -> dict:
    if type_ not in _SHUTDOWN_TYPES:
        raise ValueError(f"shutdown type must be one of {_SHUTDOWN_TYPES}")
    if type_ == "replace" and not target_node_name:
        raise ValueError("replace shutdown needs target_node_name")
    rec = {"node_id": node_id, "type": type_, "reason": reason,
           "shutdown_startedmillis": 0,
           "target_node_name": target_node_name}
    _SHUTDOWNS[node_id] = rec
    return {"acknowledged": True}


def get_shutdown_status(indices: dict[str, str] | None = None) -> dict:
    """GET _nodes/shutdown: each registered shutdown with shard-migration
    status. `restart` is immediately COMPLETE (shards do not move);
    `remove`/`replace` count the partitions that must relocate."""
    nodes = []
    for rec in _SHUTDOWNS.values():
        if rec["type"] == "restart":
            migration = {"status": "COMPLETE", "shard_migrations_remaining": 0}
        else:
            remaining = sum(len(state.snapshot(d).parts) for d in
                            (indices or {}).values())
            migration = {
                "status": "COMPLETE" if remaining == 0 else "IN_PROGRESS",
                "shard_migrations_remaining": remaining,
            }
        nodes.append({**rec, "shard_migration": migration,
                      "persistent_tasks": {"status": "COMPLETE"},
                      "plugins": {"status": "COMPLETE"},
                      "status": migration["status"]})
    return {"nodes": nodes}


def delete_node_shutdown(node_id: str) -> dict:
    if node_id not in _SHUTDOWNS:
        raise KeyError(f"no shutdown registered for node {node_id!r}")
    del _SHUTDOWNS[node_id]
    return {"acknowledged": True}
