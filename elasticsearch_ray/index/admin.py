"""Index-administration APIs over a built index directory — the
``rest/action/admin/indices`` surface that manages STATE rather than
data: open/close (``RestOpenIndexAction`` / ``RestCloseIndexAction``),
index blocks (``RestAddIndexBlockAction`` — ``IndexMetadata.APIBlock``),
mappings get/put (``RestGetMappingAction`` / ``RestPutMappingAction`` —
additive, never a reindex), settings get/update
(``RestGetSettingsAction`` / ``RestUpdateSettingsAction`` — DYNAMIC keys
only, like ``IndexScopedSettings``), ``_stats``
(``RestIndicesStatsAction``), ``_recovery`` (``RestRecoveryAction``),
and the ``_flush`` / ``_refresh`` / ``_clear_cache`` analogs.

All state is the index's admin state (``state.admin_state`` /
``state.commit_admin``: atomic writes next to the index) and is
EXEC-ONLY: it is never part of the spec fingerprint, so toggling it can
never trigger a segment rebuild — exactly the reference's split between
index METADATA updates and mapping-incompatible changes that require a
reindex. Reads go through a tiny mtime-validated cache so per-query
enforcement costs one ``os.stat``.
"""

from __future__ import annotations

import os

from elasticsearch_ray.index import state
from elasticsearch_ray.index.state import admin_state as _state
from elasticsearch_ray.index.state import commit_admin as _save


class IndexClosedError(RuntimeError):
    """IndexClosedException analog."""


class ClusterBlockError(RuntimeError):
    """ClusterBlockException analog (FORBIDDEN/blocked by: [...])."""


_BLOCKS = ("read", "write", "read_only", "metadata")

# dynamic settings (updatable live); anything else is rejected like the
# reference's "Can't update non dynamic settings" validation
_DYNAMIC = {"index.max_result_window", "index.blocks.read",
            "index.blocks.write", "index.blocks.read_only",
            "index.blocks.metadata", "index.search.throttled",
            "index.refresh_interval"}

# ------------------------------------------------------------ open/close

def close_index(index_dir: str) -> None:
    st = dict(_state(index_dir))
    st["closed"] = True
    _save(index_dir, st)


def open_index(index_dir: str) -> None:
    st = dict(_state(index_dir))
    st["closed"] = False
    _save(index_dir, st)


def is_closed(index_dir: str) -> bool:
    return bool(_state(index_dir).get("closed"))


# ------------------------------------------------------------ API blocks

def add_index_block(index_dir: str, block: str) -> None:
    """``PUT /<index>/_block/<block>`` — read / write / read_only /
    metadata (IndexMetadata.APIBlock names)."""
    if block not in _BLOCKS:
        raise ValueError(f"unknown block {block!r}; one of {_BLOCKS}")
    st = dict(_state(index_dir))
    blocks = set(st.get("blocks", ()))
    blocks.add(block)
    st["blocks"] = sorted(blocks)
    _save(index_dir, st)


def remove_index_block(index_dir: str, block: str) -> None:
    st = dict(_state(index_dir))
    st["blocks"] = sorted(set(st.get("blocks", ())) - {block})
    _save(index_dir, st)


def check_read(index_dir: str) -> None:
    """Raise if searches are forbidden (closed index or read block) —
    called from the engine's query entry points."""
    st = _state(index_dir)
    if st.get("closed"):
        raise IndexClosedError(f"closed index [{index_dir}]")
    if "read" in st.get("blocks", ()):
        raise ClusterBlockError(
            "blocked by: [FORBIDDEN/7/index read (api)]")


def check_write(index_dir: str) -> None:
    """Raise if document writes (build_index rebuild/append, snapshot
    shard recovery into this dir) are forbidden."""
    st = _state(index_dir)
    if st.get("closed"):
        raise IndexClosedError(f"closed index [{index_dir}]")
    blocks = st.get("blocks", ())
    if "write" in blocks or "read_only" in blocks:
        raise ClusterBlockError(
            "blocked by: [FORBIDDEN/8/index write (api)]")


# -------------------------------------------------------------- mappings

def get_mapping(index_dir: str, spec: dict | None = None) -> dict:
    """Mapping derived from the persisted spec (text body + extra
    fields + doc columns) merged with additive ``put_mapping``
    properties."""
    props: dict = {}
    if spec:
        props[spec.get("text_column", "text")] = {
            "type": "text", "analyzer": spec.get("analyzer", "standard")}
        for f in (spec.get("fields") or {}):
            fa = (spec.get("field_analyzers") or {}).get(
                f, spec.get("analyzer", "standard"))
            props[f] = {"type": "text", "analyzer": fa}
        for c in spec.get("doc_columns", ()):
            props.setdefault(c, {"type": "keyword"})
    props.update(_state(index_dir).get("mappings", {}))
    return {"properties": props}


def put_mapping(index_dir: str, properties: dict,
                spec: dict | None = None) -> None:
    """Additive mapping update (``RestPutMappingAction``): new fields
    only — changing an existing field's type is the reference's
    "mapper [x] cannot be changed from type" error. New fields take
    effect for FUTURE (re)indexing; existing segments are untouched
    (the reference doesn't backfill either)."""
    check_metadata_write(index_dir)
    current = get_mapping(index_dir, spec)["properties"]
    for name, m in properties.items():
        old = current.get(name)
        if old is not None and old.get("type") != m.get("type"):
            raise ValueError(
                f"mapper [{name}] cannot be changed from type "
                f"[{old.get('type')}] to [{m.get('type')}]")
    st = dict(_state(index_dir))
    merged = dict(st.get("mappings", {}))
    merged.update(properties)
    st["mappings"] = merged
    _save(index_dir, st)


# -------------------------------------------------------------- settings

def get_settings(index_dir: str, spec: dict | None = None) -> dict:
    out = {}
    if spec:
        if spec.get("max_result_window") is not None:
            out["index.max_result_window"] = spec["max_result_window"]
        if spec.get("sort_field"):
            out["index.sort.field"] = spec["sort_field"]
            out["index.sort.order"] = spec.get("sort_order", "asc")
    out.update(_state(index_dir).get("settings", {}))
    st = _state(index_dir)
    for b in st.get("blocks", ()):
        out[f"index.blocks.{b}"] = True
    return out


def check_metadata_write(index_dir: str) -> None:
    """Raise when metadata writes (put_mapping, non-block settings) are
    forbidden — the reference's METADATA_WRITE block level (read_only
    implies it)."""
    blocks = _state(index_dir).get("blocks", ())
    if "metadata" in blocks or "read_only" in blocks:
        raise ClusterBlockError(
            "blocked by: [FORBIDDEN/9/index metadata (api)]")


def update_settings(index_dir: str, settings: dict) -> None:
    """Dynamic-only updates; ``index.blocks.*`` route to the block
    machinery (how the reference's read_only flag works too). Settings
    are staged FIRST, then block toggles — a mixed batch loses nothing
    (review r5e #1) — and pure block toggles stay allowed under a
    metadata/read_only block (you must be able to UNBLOCK)."""
    for k in settings:
        if k not in _DYNAMIC:
            raise ValueError(
                f"Can't update non dynamic settings [[{k}]] for open "
                f"indices")
    plain = {k: v for k, v in settings.items()
             if not k.startswith("index.blocks.")}
    blocks = {k: v for k, v in settings.items()
              if k.startswith("index.blocks.")}
    # UNBLOCK toggles first (review r5f #5): a batch that lifts the
    # metadata/read_only block and updates a setting must succeed —
    # the lifted block no longer guards the plain updates; block
    # ENABLES apply last so they don't forbid this very batch
    for k, v in blocks.items():
        if not v:
            remove_index_block(index_dir, k.rsplit(".", 1)[1])
    if plain:
        check_metadata_write(index_dir)
        st = dict(_state(index_dir))
        stored = dict(st.get("settings", {}))
        for k, v in plain.items():
            if v is None:
                stored.pop(k, None)
            else:
                stored[k] = v
        st["settings"] = stored
        _save(index_dir, st)
    for k, v in blocks.items():
        if v:
            add_index_block(index_dir, k.rsplit(".", 1)[1])


def effective_max_result_window(index_dir: str, spec: dict) -> int | None:
    """The live dynamic override wins over the build-time spec value."""
    dyn = _state(index_dir).get("settings", {}).get(
        "index.max_result_window")
    return dyn if dyn is not None else spec.get("max_result_window")


# ------------------------------------------------------ stats / recovery

def _iter_manifests(index_dir: str):
    """Yield the committed INVERTED-index part manifests in part order —
    never a co-located vector index's vpart manifests (review r5e #8)."""
    if state.exists(index_dir):
        for p in state.snapshot(index_dir).parts:
            if p.manifest is not None:
                yield p.manifest


def indices_stats(index_dir: str) -> dict:
    """``GET /<index>/_stats`` essentials from manifests + file sizes —
    never opens a segment (the _segments/_disk_usage discipline)."""
    docs = 0
    segs = 0
    for m in _iter_manifests(index_dir):
        segs += 1
        docs += int(m.get("n_docs", 0))
    size = 0
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            try:
                size += os.path.getsize(os.path.join(root, f))
            except OSError:
                continue
    return {"docs": {"count": docs},
            "store": {"size_in_bytes": size},
            "segments": {"count": segs}}


def recovery(index_dir: str) -> dict:
    """``GET /<index>/_recovery``: per-shard provenance from the build
    manifests (source files, rows, elapsed) — stage DONE by definition
    once a manifest exists (manifests are written atomically last)."""
    shards = []
    for m in _iter_manifests(index_dir):
        shards.append({
            "id": m.get("part"),
            "stage": "DONE",
            "type": "SNAPSHOT" if m.get("restored") else "STORE",
            "source": m.get("input_path"),
            "index": {"docs": m.get("n_docs"),
                      "elapsed_sec": m.get("elapsed_sec")},
        })
    return {"shards": shards}


# ------------------------------------- flush / refresh / clear_cache

def flush(index_dir: str) -> dict:
    """``POST /<index>/_flush``: segments here are written+fsynced at
    build time (atomic manifests last), so flush is the reference's
    successful no-op response shape."""
    n = indices_stats(index_dir)["segments"]["count"]
    return {"_shards": {"total": n, "successful": n, "failed": 0}}


def refresh(engine) -> dict:
    """``POST /<index>/_refresh`` analog — near-real-time refresh, which the
    reference does by reopening readers inside live nodes
    (``IndexSettings.java:252``). ``QueryEngine.reopen`` takes a new
    snapshot of the index state and reopens only the partitions whose
    manifest changed, on the engine's own readers and, for a ray-backed
    engine, in its live pooled searcher actors (no process is started); removed
    partitions are dropped. Then the query-side caches are cleared. Returns
    the reopen's partition counts and the cleared cache entries."""
    out = engine.reopen() if hasattr(engine, "reopen") else {}
    return {**out, **clear_cache(engine)}


def clear_cache(engine) -> dict:
    """``POST /<index>/_clear_cache``: drop the engine's query-side
    caches (DFS stats, scorer caches) — next queries recompute."""
    cleared = 0
    for attr in dir(engine):
        if attr.startswith("_") and attr.endswith("_cache"):
            c = getattr(engine, attr)
            if isinstance(c, dict):
                cleared += len(c)
                c.clear()
    return {"cleared_entries": cleared}
